//! Initial placement of logical qubits onto home ULBs.
//!
//! Placement quality drives routing distance, so the default strategy is
//! interaction-aware: qubits are ordered by a weighted BFS over the
//! interaction intensity graph (heaviest edges first) and laid out along a
//! center-out spiral of the fabric, putting strongly-coupled qubits in
//! adjacent ULBs — the layout an iterative quantum placer converges to.
//! Row-major and random strategies exist as ablation baselines
//! (`ablation_placement` bench).

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use leqa_circuit::{Iig, QubitId};
use leqa_fabric::{FabricDims, FabricMap, Ulb};

use crate::MapError;

/// How to assign home ULBs to logical qubits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PlacementStrategy {
    /// Weighted-BFS over the IIG, laid out along a center-out spiral
    /// (default).
    #[default]
    IigCluster,
    /// Qubit `i` goes to the `i`-th ULB in row-major order.
    RowMajor,
    /// A seeded random permutation of ULBs.
    Random,
}

/// Computes a home ULB for every logical qubit.
///
/// With a [`FabricMap`], qubits only get homes on *live* cells and the
/// fit check compares against the live-cell count; without one (or with a
/// defect-free map) the behaviour is bit-identical to the uniform path.
///
/// # Errors
///
/// Returns [`MapError::FabricTooSmall`] if the IIG has more qubits than
/// the fabric has usable ULBs.
pub fn initial_placement(
    iig: &Iig,
    dims: FabricDims,
    strategy: PlacementStrategy,
    seed: u64,
    map: Option<&FabricMap>,
) -> Result<Vec<Ulb>, MapError> {
    let q = iig.num_qubits() as u64;
    let usable = map.map_or(dims.area(), FabricMap::live_cells);
    if q > usable {
        return Err(MapError::FabricTooSmall {
            qubits: q,
            area: usable,
        });
    }

    let order: Vec<QubitId> = match strategy {
        PlacementStrategy::RowMajor => (0..iig.num_qubits()).map(QubitId).collect(),
        PlacementStrategy::Random => {
            let mut ids: Vec<QubitId> = (0..iig.num_qubits()).map(QubitId).collect();
            ids.shuffle(&mut StdRng::seed_from_u64(seed));
            ids
        }
        PlacementStrategy::IigCluster => bfs_order(iig),
    };

    let mut sites: Vec<Ulb> = match strategy {
        PlacementStrategy::RowMajor | PlacementStrategy::Random => dims.ulbs().collect(),
        PlacementStrategy::IigCluster => spiral_sites(dims),
    };
    if let Some(map) = map.filter(|m| m.has_defects()) {
        sites.retain(|u| map.cell_enabled(*u));
    }

    let mut placement = vec![Ulb::new(0, 0); iig.num_qubits() as usize];
    for (rank, qubit) in order.iter().enumerate() {
        placement[qubit.index()] = sites[rank];
    }
    Ok(placement)
}

/// Orders qubits by a BFS over the IIG that expands the heaviest edges
/// first, starting from the strongest qubit; isolated qubits follow at the
/// end in index order.
fn bfs_order(iig: &Iig) -> Vec<QubitId> {
    let n = iig.num_qubits();
    let mut visited = vec![false; n as usize];
    let mut order: Vec<QubitId> = Vec::with_capacity(n as usize);
    // Seeds: strongest first, so each component starts from its hub.
    let seeds = iig.qubits_by_strength();

    for seed in seeds {
        if visited[seed.index()] || iig.strength(seed) == 0 {
            continue;
        }
        // BFS within this component.
        let mut frontier = vec![seed];
        visited[seed.index()] = true;
        while let Some(current) = frontier.pop() {
            order.push(current);
            let mut neighbors: Vec<(QubitId, u64)> = iig
                .neighbors(current)
                .filter(|(q, _)| !visited[q.index()])
                .collect();
            // Heaviest partner placed nearest → visit first. Tie-break on
            // the index for determinism.
            neighbors.sort_by_key(|&(q, w)| (std::cmp::Reverse(w), q));
            // Depth-first-ish expansion keeps chains contiguous on the
            // spiral; push in reverse so the heaviest is popped next.
            for (q, _) in neighbors.into_iter().rev() {
                if !visited[q.index()] {
                    visited[q.index()] = true;
                    frontier.push(q);
                }
            }
        }
    }
    // Isolated qubits (no two-qubit ops) go last.
    for i in 0..n {
        if !visited[i as usize] {
            order.push(QubitId(i));
        }
    }
    order
}

/// ULBs ordered along a center-out spiral (ring by ring of increasing
/// Manhattan radius), so consecutive ranks are physically close.
fn spiral_sites(dims: FabricDims) -> Vec<Ulb> {
    let center = Ulb::new(dims.width() / 2, dims.height() / 2);
    dims.rings(center).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use leqa_circuit::FtCircuit;

    fn q(i: u32) -> QubitId {
        QubitId(i)
    }

    fn chain_iig(n: u32) -> Iig {
        let mut ft = FtCircuit::new(n);
        for i in 0..n - 1 {
            ft.push_cnot(q(i), q(i + 1)).unwrap();
        }
        Iig::from_ft_circuit(&ft)
    }

    /// Distinctness via an index sort — no clone of the placement itself.
    fn all_distinct(p: &[Ulb]) -> bool {
        let mut idx: Vec<usize> = (0..p.len()).collect();
        idx.sort_unstable_by_key(|&i| p[i]);
        idx.windows(2).all(|w| p[w[0]] != p[w[1]])
    }

    #[test]
    fn all_strategies_produce_distinct_homes() {
        let iig = chain_iig(10);
        let dims = FabricDims::new(5, 5).unwrap();
        for strategy in [
            PlacementStrategy::IigCluster,
            PlacementStrategy::RowMajor,
            PlacementStrategy::Random,
        ] {
            let p = initial_placement(&iig, dims, strategy, 7, None).unwrap();
            assert_eq!(p.len(), 10);
            assert!(all_distinct(&p), "{strategy:?} must not share ULBs");
            for u in &p {
                assert!(dims.contains(*u), "{strategy:?} placed off-fabric");
            }
        }
    }

    #[test]
    fn cluster_placement_keeps_chain_neighbors_close() {
        let iig = chain_iig(16);
        let dims = FabricDims::new(8, 8).unwrap();
        let cluster =
            initial_placement(&iig, dims, PlacementStrategy::IigCluster, 0, None).unwrap();
        let random = initial_placement(&iig, dims, PlacementStrategy::Random, 0, None).unwrap();

        let avg_dist = |p: &[Ulb]| -> f64 {
            (0..15)
                .map(|i| p[i].manhattan_distance(p[i + 1]) as f64)
                .sum::<f64>()
                / 15.0
        };
        assert!(
            avg_dist(&cluster) < avg_dist(&random),
            "cluster {} vs random {}",
            avg_dist(&cluster),
            avg_dist(&random)
        );
        // Chain neighbours should average within a couple of hops.
        assert!(avg_dist(&cluster) <= 3.0, "got {}", avg_dist(&cluster));
    }

    #[test]
    fn too_many_qubits_is_an_error() {
        let iig = chain_iig(10);
        let dims = FabricDims::new(3, 3).unwrap();
        assert!(matches!(
            initial_placement(&iig, dims, PlacementStrategy::RowMajor, 0, None),
            Err(MapError::FabricTooSmall {
                qubits: 10,
                area: 9
            })
        ));
    }

    #[test]
    fn random_is_seed_deterministic() {
        let iig = chain_iig(12);
        let dims = FabricDims::new(6, 6).unwrap();
        let a = initial_placement(&iig, dims, PlacementStrategy::Random, 3, None).unwrap();
        let b = initial_placement(&iig, dims, PlacementStrategy::Random, 3, None).unwrap();
        let c = initial_placement(&iig, dims, PlacementStrategy::Random, 4, None).unwrap();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn isolated_qubits_still_get_homes() {
        // 6 qubits, only 0 and 1 interact.
        let mut ft = FtCircuit::new(6);
        ft.push_cnot(q(0), q(1)).unwrap();
        let iig = Iig::from_ft_circuit(&ft);
        let dims = FabricDims::new(3, 3).unwrap();
        let p = initial_placement(&iig, dims, PlacementStrategy::IigCluster, 0, None).unwrap();
        assert_eq!(p.len(), 6);
        assert!(all_distinct(&p));
    }

    #[test]
    fn defective_fabric_placement_avoids_dead_cells() {
        let iig = chain_iig(10);
        let dims = FabricDims::new(4, 4).unwrap();
        let mut map = FabricMap::pristine(dims);
        for u in [Ulb::new(0, 0), Ulb::new(2, 2), Ulb::new(3, 1)] {
            map.disable_cell(u).unwrap();
        }
        for strategy in [
            PlacementStrategy::IigCluster,
            PlacementStrategy::RowMajor,
            PlacementStrategy::Random,
        ] {
            let p = initial_placement(&iig, dims, strategy, 7, Some(&map)).unwrap();
            assert!(all_distinct(&p));
            for u in &p {
                assert!(map.cell_enabled(*u), "{strategy:?} placed on a dead cell");
            }
        }
        // Fit check compares against live cells: 13 live < 14 qubits.
        let big = chain_iig(14);
        assert!(matches!(
            initial_placement(&big, dims, PlacementStrategy::RowMajor, 0, Some(&map)),
            Err(MapError::FabricTooSmall {
                qubits: 14,
                area: 13
            })
        ));
    }

    #[test]
    fn pristine_map_placement_is_identical_to_no_map() {
        let iig = chain_iig(12);
        let dims = FabricDims::new(6, 6).unwrap();
        let map = FabricMap::pristine(dims);
        for strategy in [
            PlacementStrategy::IigCluster,
            PlacementStrategy::RowMajor,
            PlacementStrategy::Random,
        ] {
            assert_eq!(
                initial_placement(&iig, dims, strategy, 5, None).unwrap(),
                initial_placement(&iig, dims, strategy, 5, Some(&map)).unwrap()
            );
        }
    }

    #[test]
    fn spiral_starts_at_center() {
        let dims = FabricDims::new(9, 9).unwrap();
        let sites = spiral_sites(dims);
        assert_eq!(sites[0], Ulb::new(4, 4));
        assert_eq!(sites.len() as u64, dims.area());
    }
}

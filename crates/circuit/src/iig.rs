//! The interaction intensity graph (IIG, §3.1).
//!
//! Nodes are logical qubits; an undirected edge `e_ij` with weight `w(e_ij)`
//! counts the two-qubit operations between qubits `i` and `j`. No self-loops
//! exist because one-qubit operations add no edges. The quantities LEQA
//! reads off the IIG are `M_i = deg(n_i)` (the neighbour count) and
//! `Σ_j w(e_ij)` (the interaction *strength*, the weight used in the
//! weighted averages of Eqs. 7 and 12).
//!
//! # Representation
//!
//! The graph is stored in compressed sparse row (CSR) form: one flat arena
//! of `(neighbour, weight)` entries sorted within each qubit's run, plus an
//! offset table — no per-qubit hash maps. Construction sorts and
//! run-length-encodes the CNOT pair stream, so building from a circuit of
//! `g` two-qubit ops costs `O(g log g)` with zero per-node allocation, and
//! `degree`/`strength` are O(1) lookups (strengths are precomputed).

use crate::{FtCircuit, FtOp, Qodg, QubitId};

/// The interaction intensity graph of a circuit, in CSR form.
///
/// # Examples
///
/// ```
/// use leqa_circuit::{FtCircuit, Iig, QubitId};
///
/// # fn main() -> Result<(), leqa_circuit::CircuitError> {
/// let mut ft = FtCircuit::new(3);
/// ft.push_cnot(QubitId(0), QubitId(1))?;
/// ft.push_cnot(QubitId(0), QubitId(1))?;
/// ft.push_cnot(QubitId(1), QubitId(2))?;
///
/// let iig = Iig::from_ft_circuit(&ft);
/// assert_eq!(iig.degree(QubitId(1)), 2);       // neighbours: q0, q2
/// assert_eq!(iig.strength(QubitId(1)), 3);     // 2 + 1 interactions
/// assert_eq!(iig.weight(QubitId(0), QubitId(1)), 2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Iig {
    num_qubits: u32,
    /// `offsets[i]..offsets[i+1]` is qubit `i`'s run in the arenas below.
    offsets: Vec<u32>,
    /// Neighbour ids, sorted ascending within each run.
    neighbors: Vec<QubitId>,
    /// Edge weights, parallel to `neighbors`.
    weights: Vec<u64>,
    /// Precomputed `Σ_j w(e_ij)` per qubit.
    strengths: Vec<u64>,
    total_weight: u64,
}

impl Iig {
    /// Builds the IIG by a single traversal of the lowered circuit.
    pub fn from_ft_circuit(circuit: &FtCircuit) -> Self {
        Iig::from_ops(circuit.num_qubits(), circuit.ops())
    }

    /// Builds the IIG by traversing a QODG's op nodes (Algorithm 1,
    /// line 1: `O(|V| + |E|)` plus the pair sort).
    pub fn from_qodg(qodg: &Qodg) -> Self {
        Iig::from_ops(qodg.num_qubits(), qodg.ops())
    }

    /// Builds the CSR arenas from the op list's interaction pairs by
    /// sort + run-length dedup (two passes over the sorted pairs, no
    /// per-node allocation).
    fn from_ops(num_qubits: u32, ops: &[FtOp]) -> Self {
        let mut pairs: Vec<(u32, u32)> = ops
            .iter()
            .filter_map(|op| match *op {
                FtOp::Cnot { control, target } => Some(normalize(control, target)),
                FtOp::OneQubit { .. } => None,
            })
            .collect();
        pairs.sort_unstable();
        let mut edges: Vec<(u32, u32, u64)> = Vec::new();
        let mut i = 0;
        while i < pairs.len() {
            let (a, b) = pairs[i];
            let start = i;
            while i < pairs.len() && pairs[i] == (a, b) {
                i += 1;
            }
            edges.push((a, b, (i - start) as u64));
        }
        Iig::from_sorted_edges(num_qubits, edges)
    }

    /// Rebuilds an IIG from its unique weighted edge list — the inverse
    /// of iterating [`neighbors`](Self::neighbors) and keeping each edge
    /// once. Edges may arrive in any order and with either endpoint
    /// first; duplicates merge by summing weights. Zero-weight entries
    /// and self-loops are rejected, as are endpoints outside
    /// `0..num_qubits`.
    ///
    /// The result is *bit-identical* to the IIG the original circuit
    /// built (same CSR layout, same totals) — the property the snapshot
    /// store in `leqa-api` relies on to round-trip cached profiles.
    ///
    /// # Errors
    ///
    /// [`CircuitError::QubitOutOfRange`](crate::CircuitError::QubitOutOfRange)
    /// when an endpoint is out of range,
    /// [`CircuitError::DuplicateOperand`](crate::CircuitError::DuplicateOperand)
    /// for a self-loop edge. Zero-weight entries are dropped silently
    /// (they carry no information).
    pub fn from_weighted_edges(
        num_qubits: u32,
        edges: impl IntoIterator<Item = (u32, u32, u64)>,
    ) -> Result<Self, crate::CircuitError> {
        let mut normalized: Vec<(u32, u32, u64)> = Vec::new();
        for (a, b, w) in edges {
            if a >= num_qubits || b >= num_qubits {
                return Err(crate::CircuitError::QubitOutOfRange {
                    qubit: QubitId(a.max(b)),
                    num_qubits,
                });
            }
            if a == b {
                return Err(crate::CircuitError::DuplicateOperand { qubit: QubitId(a) });
            }
            if w == 0 {
                continue;
            }
            let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
            normalized.push((lo, hi, w));
        }
        normalized.sort_unstable();
        // Merge duplicate (lo, hi) entries by summing weights.
        let mut merged: Vec<(u32, u32, u64)> = Vec::with_capacity(normalized.len());
        for (a, b, w) in normalized {
            match merged.last_mut() {
                Some((la, lb, lw)) if *la == a && *lb == b => *lw += w,
                _ => merged.push((a, b, w)),
            }
        }
        Ok(Iig::from_sorted_edges(num_qubits, merged))
    }

    /// The shared CSR builder: `edges` holds the unique weighted edges,
    /// sorted by `(lo, hi)` with `lo < hi`.
    fn from_sorted_edges(num_qubits: u32, edges: Vec<(u32, u32, u64)>) -> Self {
        let total_weight = edges.iter().map(|&(_, _, w)| w).sum();

        // Pass 1: per-qubit degrees.
        let mut degrees = vec![0u32; num_qubits as usize];
        for &(a, b, _) in &edges {
            degrees[a as usize] += 1;
            degrees[b as usize] += 1;
        }

        // Prefix-sum the offsets; keep per-qubit write cursors.
        let mut offsets = Vec::with_capacity(num_qubits as usize + 1);
        let mut running = 0u32;
        offsets.push(0);
        for &d in &degrees {
            running += d;
            offsets.push(running);
        }
        debug_assert_eq!(running as usize, 2 * edges.len());

        // Pass 2: fill both directed half-edges. Edges are sorted by
        // (lo, hi), so each endpoint's run comes out sorted by neighbour:
        // the `lo` side sees increasing `hi`, and for a fixed `hi` the `lo`
        // values arrive in increasing order too.
        let mut cursors: Vec<u32> = offsets[..num_qubits as usize].to_vec();
        let mut neighbors = vec![QubitId(0); running as usize];
        let mut weights = vec![0u64; running as usize];
        let mut strengths = vec![0u64; num_qubits as usize];
        for &(a, b, w) in &edges {
            let ca = cursors[a as usize] as usize;
            neighbors[ca] = QubitId(b);
            weights[ca] = w;
            cursors[a as usize] += 1;
            let cb = cursors[b as usize] as usize;
            neighbors[cb] = QubitId(a);
            weights[cb] = w;
            cursors[b as usize] += 1;
            strengths[a as usize] += w;
            strengths[b as usize] += w;
        }

        Iig {
            num_qubits,
            offsets,
            neighbors,
            weights,
            strengths,
            total_weight,
        }
    }

    /// Iterates over every unique edge once as `(lo, hi, weight)` with
    /// `lo < hi`, in ascending `(lo, hi)` order — the exact list
    /// [`from_weighted_edges`](Self::from_weighted_edges) reconstructs
    /// from.
    pub fn edges(&self) -> impl Iterator<Item = (u32, u32, u64)> + '_ {
        (0..self.num_qubits).flat_map(move |i| {
            self.neighbors(QubitId(i))
                .filter(move |(n, _)| n.0 > i)
                .map(move |(n, w)| (i, n.0, w))
        })
    }

    /// The bounds of qubit `i`'s run in the arenas.
    #[inline]
    fn run(&self, qubit: QubitId) -> (usize, usize) {
        (
            self.offsets[qubit.index()] as usize,
            self.offsets[qubit.index() + 1] as usize,
        )
    }

    /// Number of qubits (nodes), `Q`.
    #[inline]
    pub fn num_qubits(&self) -> u32 {
        self.num_qubits
    }

    /// `M_i`: the number of distinct interaction partners of qubit `i`.
    #[inline]
    pub fn degree(&self, qubit: QubitId) -> u64 {
        let (lo, hi) = self.run(qubit);
        (hi - lo) as u64
    }

    /// `Σ_j w(e_ij)`: total two-qubit ops involving qubit `i` (O(1),
    /// precomputed).
    #[inline]
    pub fn strength(&self, qubit: QubitId) -> u64 {
        self.strengths[qubit.index()]
    }

    /// `w(e_ij)`: two-qubit ops between `a` and `b` (0 if they never
    /// interact; symmetric). Binary search over `a`'s sorted run.
    #[inline]
    pub fn weight(&self, a: QubitId, b: QubitId) -> u64 {
        let (lo, hi) = self.run(a);
        match self.neighbors[lo..hi].binary_search(&b) {
            Ok(pos) => self.weights[lo + pos],
            Err(_) => 0,
        }
    }

    /// Iterates over the neighbours of `qubit` with edge weights, in
    /// ascending neighbour order.
    pub fn neighbors(&self, qubit: QubitId) -> impl Iterator<Item = (QubitId, u64)> + '_ {
        let (lo, hi) = self.run(qubit);
        self.neighbors[lo..hi]
            .iter()
            .zip(&self.weights[lo..hi])
            .map(|(&q, &w)| (q, w))
    }

    /// Total edge weight (= total two-qubit op count of the circuit).
    #[inline]
    pub fn total_weight(&self) -> u64 {
        self.total_weight
    }

    /// Number of distinct edges.
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.neighbors.len() / 2
    }

    /// Qubit ids sorted by decreasing strength (used by the mapper's
    /// interaction-aware placement).
    pub fn qubits_by_strength(&self) -> Vec<QubitId> {
        let mut ids: Vec<QubitId> = (0..self.num_qubits).map(QubitId).collect();
        ids.sort_by_key(|q| std::cmp::Reverse(self.strength(*q)));
        ids
    }
}

#[inline]
fn normalize(a: QubitId, b: QubitId) -> (u32, u32) {
    debug_assert_ne!(a, b, "no self-loops in the IIG");
    if a.0 <= b.0 {
        (a.0, b.0)
    } else {
        (b.0, a.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use leqa_fabric::OneQubitKind;

    fn q(i: u32) -> QubitId {
        QubitId(i)
    }

    fn sample() -> FtCircuit {
        let mut ft = FtCircuit::new(4);
        ft.push_cnot(q(0), q(1)).unwrap();
        ft.push_cnot(q(1), q(0)).unwrap(); // same pair, reversed roles
        ft.push_cnot(q(1), q(2)).unwrap();
        ft.push_one_qubit(OneQubitKind::H, q(3)).unwrap(); // no edge
        ft
    }

    #[test]
    fn edges_are_undirected_and_weighted() {
        let iig = Iig::from_ft_circuit(&sample());
        assert_eq!(iig.weight(q(0), q(1)), 2);
        assert_eq!(iig.weight(q(1), q(0)), 2);
        assert_eq!(iig.weight(q(1), q(2)), 1);
        assert_eq!(iig.weight(q(0), q(2)), 0);
    }

    #[test]
    fn degrees_and_strengths() {
        let iig = Iig::from_ft_circuit(&sample());
        assert_eq!(iig.degree(q(0)), 1);
        assert_eq!(iig.degree(q(1)), 2);
        assert_eq!(iig.degree(q(3)), 0); // one-qubit ops add no edges
        assert_eq!(iig.strength(q(1)), 3);
        assert_eq!(iig.strength(q(3)), 0);
    }

    #[test]
    fn totals() {
        let iig = Iig::from_ft_circuit(&sample());
        assert_eq!(iig.total_weight(), 3);
        assert_eq!(iig.edge_count(), 2);
        assert_eq!(iig.num_qubits(), 4);
    }

    #[test]
    fn qodg_and_circuit_builders_agree() {
        let ft = sample();
        let from_circuit = Iig::from_ft_circuit(&ft);
        let from_qodg = Iig::from_qodg(&Qodg::from_ft_circuit(&ft));
        for i in 0..4 {
            assert_eq!(from_circuit.degree(q(i)), from_qodg.degree(q(i)));
            assert_eq!(from_circuit.strength(q(i)), from_qodg.strength(q(i)));
        }
    }

    #[test]
    fn strength_ordering() {
        let iig = Iig::from_ft_circuit(&sample());
        let order = iig.qubits_by_strength();
        assert_eq!(order[0], q(1)); // strength 3
        assert_eq!(*order.last().unwrap(), q(3)); // strength 0
    }

    #[test]
    fn neighbors_iteration() {
        let iig = Iig::from_ft_circuit(&sample());
        let n: Vec<(QubitId, u64)> = iig.neighbors(q(1)).collect();
        // CSR runs are sorted by neighbour id already.
        assert_eq!(n, vec![(q(0), 2), (q(2), 1)]);
    }

    #[test]
    fn neighbors_runs_are_sorted() {
        // A denser pattern exercising both fill directions of pass 2.
        let mut ft = FtCircuit::new(6);
        for (a, b) in [(4, 1), (0, 5), (2, 5), (1, 3), (5, 1), (0, 2), (3, 0)] {
            ft.push_cnot(q(a), q(b)).unwrap();
        }
        let iig = Iig::from_ft_circuit(&ft);
        for i in 0..6 {
            let ids: Vec<u32> = iig.neighbors(q(i)).map(|(n, _)| n.0).collect();
            let mut sorted = ids.clone();
            sorted.sort_unstable();
            assert_eq!(ids, sorted, "run of q{i} must be sorted");
        }
    }

    #[test]
    fn weighted_edges_round_trip_bit_identically() {
        let mut ft = FtCircuit::new(6);
        for (a, b) in [
            (4, 1),
            (0, 5),
            (2, 5),
            (1, 3),
            (5, 1),
            (0, 2),
            (3, 0),
            (1, 4),
        ] {
            ft.push_cnot(q(a), q(b)).unwrap();
        }
        let original = Iig::from_ft_circuit(&ft);
        let edges: Vec<(u32, u32, u64)> = original.edges().collect();
        let rebuilt = Iig::from_weighted_edges(original.num_qubits(), edges.clone()).unwrap();
        assert_eq!(rebuilt.num_qubits(), original.num_qubits());
        assert_eq!(rebuilt.total_weight(), original.total_weight());
        assert_eq!(rebuilt.edge_count(), original.edge_count());
        for i in 0..6 {
            let a: Vec<_> = original.neighbors(q(i)).collect();
            let b: Vec<_> = rebuilt.neighbors(q(i)).collect();
            assert_eq!(a, b, "run of q{i} must match");
            assert_eq!(original.strength(q(i)), rebuilt.strength(q(i)));
        }
        assert_eq!(rebuilt.edges().collect::<Vec<_>>(), edges);
    }

    #[test]
    fn weighted_edges_normalize_order_and_merge_duplicates() {
        // Reversed endpoints and split weights collapse to one edge.
        let iig =
            Iig::from_weighted_edges(3, vec![(1, 0, 2), (0, 1, 1), (2, 1, 1), (0, 2, 0)]).unwrap();
        assert_eq!(iig.weight(q(0), q(1)), 3);
        assert_eq!(iig.weight(q(1), q(2)), 1);
        assert_eq!(iig.weight(q(0), q(2)), 0, "zero-weight entry dropped");
        assert_eq!(iig.total_weight(), 4);
    }

    #[test]
    fn weighted_edges_reject_bad_endpoints() {
        assert!(matches!(
            Iig::from_weighted_edges(2, vec![(0, 2, 1)]),
            Err(crate::CircuitError::QubitOutOfRange { .. })
        ));
        assert!(matches!(
            Iig::from_weighted_edges(2, vec![(1, 1, 1)]),
            Err(crate::CircuitError::DuplicateOperand { .. })
        ));
    }

    #[test]
    fn empty_circuit_has_empty_graph() {
        let iig = Iig::from_ft_circuit(&FtCircuit::new(3));
        assert_eq!(iig.total_weight(), 0);
        assert_eq!(iig.edge_count(), 0);
        for i in 0..3 {
            assert_eq!(iig.degree(q(i)), 0);
            assert_eq!(iig.strength(q(i)), 0);
            assert_eq!(iig.neighbors(q(i)).count(), 0);
        }
    }
}

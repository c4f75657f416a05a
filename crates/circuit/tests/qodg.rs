//! The op-list critical-path sweep and the QODG's `end` merge, each
//! checked against a direct reference: the longest-path walk over the
//! QODG's CSR predecessor lists, and the quadratic duplicate-scanning
//! merge of wire-last nodes.

use leqa_circuit::{
    ops_critical_path, CriticalPath, CriticalPathScratch, FtCircuit, FtOp, NodeId, OneQubitKind,
    Qodg, QodgNode, QubitId,
};
use leqa_fabric::Micros;

fn q(i: u32) -> QubitId {
    QubitId(i)
}

/// SplitMix64: a dependency-free seeded generator for the random circuits.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u32 {
        (self.next() % n) as u32
    }
}

/// A random circuit on `wires` wires, leaving some wires idle and
/// repeating CNOT pairs often enough to exercise merged parallel edges.
fn random_circuit(rng: &mut SplitMix, wires: u32, ops: usize) -> FtCircuit {
    let mut ft = FtCircuit::new(wires);
    let used = 1 + rng.below(u64::from(wires));
    for _ in 0..ops {
        let a = rng.below(u64::from(used));
        if used > 1 && rng.below(3) > 0 {
            let b = (a + 1 + rng.below(u64::from(used - 1))) % used;
            ft.push_cnot(q(a), q(b)).unwrap();
            if rng.below(4) == 0 {
                ft.push_cnot(q(b), q(a)).unwrap();
            }
        } else {
            let kind = OneQubitKind::ALL[rng.below(OneQubitKind::ALL.len() as u64) as usize];
            ft.push_one_qubit(kind, q(a)).unwrap();
        }
    }
    ft
}

/// The reference longest path: node by node over the CSR predecessor
/// lists, first predecessor wins, a later one replaces it only when
/// strictly greater.
fn csr_walk(qodg: &Qodg, delay: impl Fn(&FtOp) -> Micros) -> CriticalPath {
    let n = qodg.node_count();
    let mut dist = vec![Micros::ZERO; n];
    let mut argmax: Vec<Option<NodeId>> = vec![None; n];
    for i in 0..n {
        let mut best: Option<NodeId> = None;
        for &p in qodg.preds(NodeId(i)) {
            if best.is_none_or(|b| dist[p.0] > dist[b.0]) {
                best = Some(p);
            }
        }
        let own = match qodg.node(NodeId(i)) {
            QodgNode::Op(op) => delay(&op),
            _ => Micros::ZERO,
        };
        dist[i] = best.map_or(Micros::ZERO, |b| dist[b.0]) + own;
        argmax[i] = best;
    }
    let mut cp = CriticalPath {
        length: dist[n - 1],
        cnot_count: 0,
        one_qubit_counts: [0; 8],
        path: Vec::new(),
    };
    let mut cur = Some(qodg.end());
    while let Some(id) = cur {
        cp.path.push(id);
        match qodg.node(id) {
            QodgNode::Op(FtOp::Cnot { .. }) => cp.cnot_count += 1,
            QodgNode::Op(FtOp::OneQubit { kind, .. }) => cp.one_qubit_counts[kind.index()] += 1,
            _ => {}
        }
        cur = argmax[id.0];
    }
    cp.path.reverse();
    cp
}

/// The reference `end` merge: each wire's last node in wire order,
/// skipping any already taken by scanning the taken list.
fn naive_end_preds(ft: &FtCircuit) -> Vec<NodeId> {
    let mut last = vec![None; ft.num_qubits() as usize];
    for (i, op) in ft.ops().iter().enumerate() {
        for w in op.qubits() {
            last[w.index()] = Some(NodeId(i + 1));
        }
    }
    let mut preds = Vec::new();
    for l in last.into_iter().flatten() {
        if !preds.contains(&l) {
            preds.push(l);
        }
    }
    if preds.is_empty() {
        preds.push(NodeId(0));
    }
    preds
}

/// Delay models that make ties likely: all equal, all zero, and a few
/// small integers by op type.
fn delay_models() -> [fn(&FtOp) -> Micros; 3] {
    [
        |_| Micros::new(1.0),
        |_| Micros::ZERO,
        |op| match op {
            FtOp::Cnot { .. } => Micros::new(2.0),
            FtOp::OneQubit { kind, .. } => Micros::new((kind.index() % 3) as f64),
        },
    ]
}

fn assert_sweep_matches_walk(ft: &FtCircuit, scratch: &mut CriticalPathScratch, what: &str) {
    let qodg = Qodg::from_ft_circuit(ft);
    for (m, delay) in delay_models().into_iter().enumerate() {
        let swept = ops_critical_path(ft.num_qubits(), ft.ops(), delay, scratch);
        assert_eq!(swept, csr_walk(&qodg, delay), "{what}, delay model {m}");
        let via_qodg = qodg.critical_path_reuse(
            |node| match node {
                QodgNode::Op(op) => delay(op),
                _ => Micros::ZERO,
            },
            scratch,
        );
        assert_eq!(via_qodg, swept, "{what}, delay model {m}");
    }
}

#[test]
fn sweep_matches_the_csr_walk_on_tie_cases() {
    let mut scratch = CriticalPathScratch::new();

    // Merged parallel CNOTs, then a reversed repeat.
    let mut parallel = FtCircuit::new(3);
    parallel.push_cnot(q(0), q(1)).unwrap();
    parallel.push_cnot(q(0), q(1)).unwrap();
    parallel.push_cnot(q(1), q(0)).unwrap();
    parallel.push_one_qubit(OneQubitKind::T, q(2)).unwrap();
    assert_sweep_matches_walk(&parallel, &mut scratch, "parallel CNOTs");

    // Idle wires around two equal-length branches.
    let mut idle = FtCircuit::new(7);
    idle.push_one_qubit(OneQubitKind::H, q(2)).unwrap();
    idle.push_one_qubit(OneQubitKind::H, q(5)).unwrap();
    idle.push_cnot(q(5), q(2)).unwrap();
    idle.push_one_qubit(OneQubitKind::X, q(3)).unwrap();
    assert_sweep_matches_walk(&idle, &mut scratch, "idle wires");

    // A CNOT whose operands join an untouched wire to a zero-length one.
    let mut fresh = FtCircuit::new(2);
    fresh.push_one_qubit(OneQubitKind::Z, q(1)).unwrap();
    fresh.push_cnot(q(0), q(1)).unwrap();
    assert_sweep_matches_walk(&fresh, &mut scratch, "start joins an op");

    // The empty program: start → end, length zero.
    let empty = FtCircuit::new(3);
    assert_sweep_matches_walk(&empty, &mut scratch, "empty program");
    let cp = ops_critical_path(3, &[], |_| Micros::new(1.0), &mut scratch);
    assert_eq!(cp.path, vec![NodeId(0), NodeId(1)]);
    assert_eq!(cp.length, Micros::ZERO);
    assert_eq!(cp.op_count(), 0);
}

#[test]
fn sweep_matches_the_csr_walk_on_random_circuits() {
    let mut rng = SplitMix(0x1e9a_2013);
    let mut scratch = CriticalPathScratch::new();
    for case in 0..300 {
        let wires = 1 + rng.below(9);
        let ops = rng.below(40) as usize;
        let ft = random_circuit(&mut rng, wires, ops);
        assert_sweep_matches_walk(&ft, &mut scratch, &format!("case {case}"));
    }
}

#[test]
fn end_merge_matches_the_naive_merge_on_random_circuits() {
    let mut rng = SplitMix(0x0d0c_2013);
    for case in 0..500 {
        let wires = 1 + rng.below(12);
        let ops = rng.below(30) as usize;
        let ft = random_circuit(&mut rng, wires, ops);
        let qodg = Qodg::from_ft_circuit(&ft);
        assert_eq!(
            qodg.preds(qodg.end()),
            naive_end_preds(&ft).as_slice(),
            "case {case}"
        );
    }
}

#[test]
fn end_merge_is_linear_on_a_wide_register() {
    // 20k wires, each CNOT last on both of its wires: `end` takes every
    // CNOT once, in the order of its lower wire.
    const WIRES: u32 = 20_000;
    let mut ft = FtCircuit::new(WIRES + 1);
    for i in 0..WIRES / 2 {
        ft.push_cnot(q(WIRES - 1 - i), q(i)).unwrap();
    }
    ft.push_one_qubit(OneQubitKind::H, q(WIRES)).unwrap();
    let qodg = Qodg::from_ft_circuit(&ft);
    let end_preds = qodg.preds(qodg.end());
    assert_eq!(end_preds.len(), WIRES as usize / 2 + 1);
    for (i, p) in end_preds[..WIRES as usize / 2].iter().enumerate() {
        assert_eq!(*p, NodeId(i + 1));
    }
    assert_eq!(*end_preds.last().unwrap(), NodeId(WIRES as usize / 2 + 1));
    assert_eq!(qodg.edge_count(), WIRES as usize + 2);
}

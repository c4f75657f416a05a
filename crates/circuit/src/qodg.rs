//! The quantum operation dependency graph (QODG, §2 and Fig. 2b).
//!
//! Nodes are FT operations plus synthetic `start`/`end` nodes; edges capture
//! data dependencies between consecutive operations on the same wire. Two
//! parallel edges between the same node pair (a CNOT followed immediately by
//! another CNOT on the same two qubits) are merged, and fan-out is impossible
//! by construction (no-cloning).
//!
//! The QODG is a DAG whose node order is already topological (ops are added
//! in program order), which makes the longest-path (critical path)
//! computation a single linear sweep — the `O(|V| + |E|)` step of the
//! paper's Algorithm 1, line 19, which [`ops_critical_path`] runs over the
//! op list alone: the estimator never builds a QODG; the mapper does.
//!
//! # Representation
//!
//! Op nodes are a shared `Arc<[FtOp]>` (a cached op list is not copied).
//! Predecessor lists live in compressed sparse row (CSR) form: a flat
//! `pred_edges` arena indexed by a `pred_offsets` table, appended to in one
//! pass during construction — no per-node `Vec` allocations. The
//! critical-path sweep can reuse a caller-owned [`CriticalPathScratch`] so
//! repeated passes (fabric sweeps) allocate nothing but the result path.

use std::sync::Arc;

use leqa_fabric::Micros;

use crate::{FtCircuit, FtOp};

/// Index of a node in a [`Qodg`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub usize);

/// Payload of a QODG node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QodgNode {
    /// The synthetic source node feeding every first-level op.
    Start,
    /// The synthetic sink node fed by every last-level op.
    End,
    /// An FT operation.
    Op(FtOp),
}

/// The quantum operation dependency graph.
///
/// Node `0` is `start`, node `i + 1` is op `i`, and the last node is `end`.
///
/// # Examples
///
/// ```
/// use leqa_circuit::{FtCircuit, FtOp, OneQubitKind, Qodg, QubitId};
/// use leqa_fabric::Micros;
///
/// # fn main() -> Result<(), leqa_circuit::CircuitError> {
/// let mut ft = FtCircuit::new(2);
/// ft.push_one_qubit(OneQubitKind::H, QubitId(0))?;
/// ft.push_cnot(QubitId(0), QubitId(1))?;
///
/// let qodg = Qodg::from_ft_circuit(&ft);
/// assert_eq!(qodg.op_count(), 2);
///
/// // Critical path with unit delays: start → H → CNOT → end.
/// let cp = qodg.critical_path(|_| Micros::new(1.0));
/// assert_eq!(cp.length, Micros::new(2.0));
/// assert_eq!(cp.cnot_count, 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Qodg {
    /// The op nodes in program (topological) order.
    ops: Arc<[FtOp]>,
    /// CSR offsets into `pred_edges`; node `i`'s predecessors are
    /// `pred_edges[pred_offsets[i]..pred_offsets[i + 1]]`.
    pred_offsets: Vec<u32>,
    /// Flat predecessor arena, in the order edges were discovered.
    pred_edges: Vec<NodeId>,
    num_qubits: u32,
}

impl Qodg {
    /// Builds the QODG of a lowered circuit (Algorithm 1's input).
    pub fn from_ft_circuit(circuit: &FtCircuit) -> Self {
        Qodg::from_ops(circuit.num_qubits(), circuit.ops().into())
    }

    /// Builds the QODG over a shared op list on `num_qubits` wires, holding
    /// `ops` itself rather than a copy.
    ///
    /// # Panics
    ///
    /// Panics if an op touches a wire at or beyond `num_qubits`.
    pub fn from_ops(num_qubits: u32, ops: Arc<[FtOp]>) -> Self {
        let start = NodeId(0);
        let mut pred_offsets: Vec<u32> = Vec::with_capacity(ops.len() + 3);
        // Each op contributes at most two merged predecessor edges.
        let mut pred_edges: Vec<NodeId> = Vec::with_capacity(2 * ops.len() + 2);
        pred_offsets.extend([0, 0]); // start has no predecessors

        // The last node on each wire; `start` while the wire is untouched.
        let mut last: Vec<NodeId> = vec![start; num_qubits as usize];
        for (i, op) in ops.iter().enumerate() {
            let id = NodeId(i + 1);
            let first = pred_edges.len();
            for q in op.qubits() {
                let pred = last[q.index()];
                // Merge parallel edges (the paper combines duplicate edges).
                if !pred_edges[first..].contains(&pred) {
                    pred_edges.push(pred);
                }
                last[q.index()] = id;
            }
            pred_offsets.push(pred_edges.len() as u32);
        }

        // `end` is fed by each wire's last node, in wire order. A node is
        // last on at most its two CNOT wires: keep it on the lower one.
        let first = pred_edges.len();
        for (w, &l) in last.iter().enumerate().filter(|&(_, &l)| l != start) {
            let lower = match ops[l.0 - 1] {
                FtOp::Cnot { control, target } => control.index().min(target.index()),
                FtOp::OneQubit { .. } => w,
            };
            if lower == w || last[lower] != l {
                pred_edges.push(l);
            }
        }
        if pred_edges.len() == first {
            // Empty program: keep start connected to end so the graph stays
            // a single component.
            pred_edges.push(start);
        }
        pred_offsets.push(pred_edges.len() as u32);
        debug_assert_eq!(pred_offsets.len(), ops.len() + 3);

        Qodg {
            ops,
            pred_offsets,
            pred_edges,
            num_qubits,
        }
    }

    /// Total node count `|V|`, including `start` and `end`.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.ops.len() + 2
    }

    /// Number of operation nodes (excludes `start`/`end`).
    #[inline]
    pub fn op_count(&self) -> usize {
        self.ops.len()
    }

    /// The op nodes' payloads in program order (node `i + 1` is op `i`).
    #[inline]
    pub fn ops(&self) -> &[FtOp] {
        &self.ops
    }

    /// Total edge count `|E|` after duplicate-edge merging.
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.pred_edges.len()
    }

    /// The number of logical qubits the underlying circuit uses (`Q`).
    #[inline]
    pub fn num_qubits(&self) -> u32 {
        self.num_qubits
    }

    /// The start node.
    #[inline]
    pub fn start(&self) -> NodeId {
        NodeId(0)
    }

    /// The end node.
    #[inline]
    pub fn end(&self) -> NodeId {
        NodeId(self.ops.len() + 1)
    }

    /// The payload of a node.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    #[inline]
    pub fn node(&self, id: NodeId) -> QodgNode {
        match id.0 {
            0 => QodgNode::Start,
            i if i == self.ops.len() + 1 => QodgNode::End,
            i => QodgNode::Op(self.ops[i - 1]),
        }
    }

    /// Predecessors of a node.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    #[inline]
    pub fn preds(&self, id: NodeId) -> &[NodeId] {
        let lo = self.pred_offsets[id.0] as usize;
        let hi = self.pred_offsets[id.0 + 1] as usize;
        &self.pred_edges[lo..hi]
    }

    /// Iterates over operation nodes in topological (program) order.
    pub fn op_nodes(&self) -> impl Iterator<Item = (NodeId, FtOp)> + '_ {
        self.ops
            .iter()
            .enumerate()
            .map(|(i, op)| (NodeId(i + 1), *op))
    }

    /// Longest path from `start` to `end` where each node costs
    /// `delay(node)` (`start`/`end` are free). Returns the path length and
    /// the op-type census along the path — the `N^critical` values of Eq. 1.
    ///
    /// Runs in `O(|V| + |E|)` (supplemental, line 19).
    pub fn critical_path(&self, delay: impl Fn(&QodgNode) -> Micros) -> CriticalPath {
        self.critical_path_reuse(delay, &mut CriticalPathScratch::new())
    }

    /// Like [`critical_path`](Self::critical_path), reusing caller-owned
    /// scratch buffers so repeated passes (one per fabric candidate in a
    /// sweep) allocate nothing but the returned path.
    pub fn critical_path_reuse(
        &self,
        delay: impl Fn(&QodgNode) -> Micros,
        scratch: &mut CriticalPathScratch,
    ) -> CriticalPath {
        let delay = |op: &FtOp| delay(&QodgNode::Op(*op));
        ops_critical_path(self.num_qubits, &self.ops, delay, scratch)
    }
}

/// Algorithm 1 line 19 without the graph: the QODG's longest path, ties
/// included, where node `i + 1` is `ops[i]` and costs `delay`. One sweep
/// keeps a per-wire `(distance, last op)` frontier and a per-op
/// predecessor: an op takes its first operand's entry, a later one only if
/// strictly greater (the QODG's edge order); `end` likewise over touched
/// wires in order. Walking back from `end` yields the path and census.
///
/// # Panics
///
/// Panics if an op touches a wire at or beyond `num_qubits`, or on
/// `u32::MAX` ops or more.
pub fn ops_critical_path(
    num_qubits: u32,
    ops: &[FtOp],
    delay: impl Fn(&FtOp) -> Micros,
    scratch: &mut CriticalPathScratch,
) -> CriticalPath {
    assert!(ops.len() < u32::MAX as usize, "node ids must fit in u32");
    // First candidate wins; a later one replaces it only when strictly greater.
    let longer = |best: Option<(Micros, u32)>, cand: (Micros, u32)| match best {
        Some(best) if cand.0 > best.0 => Some(cand),
        None => Some(cand),
        kept => kept,
    };
    let CriticalPathScratch { frontier, argmax } = scratch;
    frontier.clear();
    frontier.resize(num_qubits as usize, (Micros::ZERO, 0));
    argmax.clear();
    argmax.reserve(ops.len());
    for (i, op) in ops.iter().enumerate() {
        let (dist, pred) = op
            .qubits()
            .map(|q| frontier[q.index()])
            .fold(None, longer)
            .expect("every FtOp has at least one operand");
        argmax.push(pred);
        let next = (dist + delay(op), i as u32 + 1);
        for q in op.qubits() {
            frontier[q.index()] = next;
        }
    }
    let touched = frontier.iter().copied().filter(|&(_, last)| last != 0);
    let (length, mut cur) = touched.fold(None, longer).unwrap_or((Micros::ZERO, 0));

    let mut cp = CriticalPath {
        length,
        cnot_count: 0,
        one_qubit_counts: [0; 8],
        path: vec![NodeId(ops.len() + 1)],
    };
    while cur != 0 {
        let i = cur as usize - 1;
        cp.path.push(NodeId(i + 1));
        match ops[i] {
            FtOp::Cnot { .. } => cp.cnot_count += 1,
            FtOp::OneQubit { kind, .. } => cp.one_qubit_counts[kind.index()] += 1,
        }
        cur = argmax[i];
    }
    cp.path.push(NodeId(0));
    cp.path.reverse();
    cp
}

/// Reusable buffers for [`ops_critical_path`]. One instance can serve any
/// number of passes over any number of programs.
#[derive(Debug, Default)]
pub struct CriticalPathScratch {
    /// Per wire: the distance of its last op and that op's node id.
    frontier: Vec<(Micros, u32)>,
    /// Per op: the node id of its chosen predecessor.
    argmax: Vec<u32>,
}

impl CriticalPathScratch {
    /// Creates empty scratch buffers.
    pub fn new() -> Self {
        CriticalPathScratch::default()
    }
}

/// Result of a critical-path computation.
#[derive(Debug, Clone, PartialEq)]
pub struct CriticalPath {
    /// Length of the longest path (sum of node delays along it).
    pub length: Micros,
    /// `N_CNOT^critical`: CNOT nodes on the path.
    pub cnot_count: u64,
    /// `N_g^critical` per one-qubit kind, indexed by
    /// [`OneQubitKind::index`](leqa_fabric::OneQubitKind::index).
    pub one_qubit_counts: [u64; 8],
    /// The path itself, `start` to `end`.
    pub path: Vec<NodeId>,
}

impl CriticalPath {
    /// Total op nodes on the path.
    pub fn op_count(&self) -> u64 {
        self.cnot_count + self.one_qubit_counts.iter().sum::<u64>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::QubitId;
    use leqa_fabric::OneQubitKind;

    fn q(i: u32) -> QubitId {
        QubitId(i)
    }

    /// A two-wire circuit: H(0); CNOT(0,1); T(1)  — serial chain.
    fn chain() -> FtCircuit {
        let mut ft = FtCircuit::new(2);
        ft.push_one_qubit(OneQubitKind::H, q(0)).unwrap();
        ft.push_cnot(q(0), q(1)).unwrap();
        ft.push_one_qubit(OneQubitKind::T, q(1)).unwrap();
        ft
    }

    #[test]
    fn node_and_edge_counts() {
        let qodg = Qodg::from_ft_circuit(&chain());
        // start + 3 ops + end
        assert_eq!(qodg.node_count(), 5);
        assert_eq!(qodg.op_count(), 3);
        // start→H, start→CNOT (wire 1 first touch), H→CNOT, CNOT→T,
        // T→end, CNOT? wire0's last op is CNOT → end. Total 6.
        assert_eq!(qodg.edge_count(), 6);
    }

    #[test]
    fn parallel_edges_are_merged() {
        let mut ft = FtCircuit::new(2);
        ft.push_cnot(q(0), q(1)).unwrap();
        ft.push_cnot(q(0), q(1)).unwrap();
        let qodg = Qodg::from_ft_circuit(&ft);
        // Second CNOT has both operands coming from the first: one merged
        // edge, not two.
        assert_eq!(qodg.preds(NodeId(2)), &[NodeId(1)]);
        // start→c1 (x2 operands merged? No: both wires' first touch is c1 →
        // two candidate edges start→c1, merged to one).
        assert_eq!(qodg.preds(NodeId(1)), &[NodeId(0)]);
    }

    #[test]
    fn critical_path_counts_types() {
        let qodg = Qodg::from_ft_circuit(&chain());
        let cp = qodg.critical_path(|_| Micros::new(1.0));
        assert_eq!(cp.length, Micros::new(3.0));
        assert_eq!(cp.cnot_count, 1);
        assert_eq!(cp.one_qubit_counts[OneQubitKind::H.index()], 1);
        assert_eq!(cp.one_qubit_counts[OneQubitKind::T.index()], 1);
        assert_eq!(cp.op_count(), 3);
        assert_eq!(cp.path.len(), 5); // start, 3 ops, end
        assert_eq!(cp.path[0], qodg.start());
        assert_eq!(*cp.path.last().unwrap(), qodg.end());
    }

    #[test]
    fn critical_path_picks_heavier_branch() {
        // Two independent wires: wire0 has one slow op, wire1 has two fast
        // ops. Delay(T)=10 makes wire0 critical.
        let mut ft = FtCircuit::new(2);
        ft.push_one_qubit(OneQubitKind::T, q(0)).unwrap();
        ft.push_one_qubit(OneQubitKind::H, q(1)).unwrap();
        ft.push_one_qubit(OneQubitKind::H, q(1)).unwrap();
        let qodg = Qodg::from_ft_circuit(&ft);
        let cp = qodg.critical_path(|n| match n {
            QodgNode::Op(FtOp::OneQubit {
                kind: OneQubitKind::T,
                ..
            }) => Micros::new(10.0),
            _ => Micros::new(1.0),
        });
        assert_eq!(cp.length, Micros::new(10.0));
        assert_eq!(cp.one_qubit_counts[OneQubitKind::T.index()], 1);
        assert_eq!(cp.one_qubit_counts[OneQubitKind::H.index()], 0);
    }

    #[test]
    fn delays_can_flip_the_critical_path() {
        // The paper's motivation for line 19: routing latency added to CNOTs
        // may re-route the critical path.
        let mut ft = FtCircuit::new(4);
        // Branch A: 3 one-qubit ops on wire 0.
        ft.push_one_qubit(OneQubitKind::H, q(0)).unwrap();
        ft.push_one_qubit(OneQubitKind::H, q(0)).unwrap();
        ft.push_one_qubit(OneQubitKind::H, q(0)).unwrap();
        // Branch B: 2 CNOTs on wires 2,3.
        ft.push_cnot(q(2), q(3)).unwrap();
        ft.push_cnot(q(3), q(2)).unwrap();
        let qodg = Qodg::from_ft_circuit(&ft);

        // Without routing latency, branch A (3) beats branch B (2).
        let no_routing = qodg.critical_path(|_| Micros::new(1.0));
        assert_eq!(no_routing.length, Micros::new(3.0));
        assert_eq!(no_routing.cnot_count, 0);

        // Adding routing latency to CNOTs flips it: 2*(1+1) > 3.
        let with_routing = qodg.critical_path(|n| match n {
            QodgNode::Op(FtOp::Cnot { .. }) => Micros::new(2.0),
            _ => Micros::new(1.0),
        });
        assert_eq!(with_routing.length, Micros::new(4.0));
        assert_eq!(with_routing.cnot_count, 2);
    }

    #[test]
    fn empty_circuit_has_start_end_edge() {
        let ft = FtCircuit::new(3);
        let qodg = Qodg::from_ft_circuit(&ft);
        assert_eq!(qodg.node_count(), 2);
        assert_eq!(qodg.edge_count(), 1);
        let cp = qodg.critical_path(|_| Micros::new(1.0));
        assert_eq!(cp.length, Micros::ZERO);
    }

    #[test]
    fn op_nodes_iterate_in_program_order() {
        let qodg = Qodg::from_ft_circuit(&chain());
        let kinds: Vec<FtOp> = qodg.op_nodes().map(|(_, op)| op).collect();
        assert_eq!(kinds.len(), 3);
        assert!(matches!(kinds[1], FtOp::Cnot { .. }));
    }

    #[test]
    fn preds_are_topologically_earlier() {
        let qodg = Qodg::from_ft_circuit(&chain());
        for i in 0..qodg.node_count() {
            for p in qodg.preds(NodeId(i)) {
                assert!(p.0 < i, "edges must point forward");
            }
        }
    }

    #[test]
    fn from_ops_shares_the_op_list() {
        let ft = chain();
        let ops: Arc<[FtOp]> = ft.ops().into();
        let shared = Qodg::from_ops(ft.num_qubits(), Arc::clone(&ops));
        assert_eq!(shared, Qodg::from_ft_circuit(&ft));
        assert!(std::ptr::eq(shared.ops(), &*ops));
        assert_eq!(shared.node(NodeId(2)), QodgNode::Op(ops[1]));
    }

    #[test]
    fn scratch_reuse_matches_fresh_runs() {
        let mut scratch = CriticalPathScratch::new();
        // Reuse the same scratch across two different graphs and delay
        // functions; results must match the allocating entry point.
        for ft in [chain(), FtCircuit::new(2)] {
            let qodg = Qodg::from_ft_circuit(&ft);
            for unit in [1.0, 2.5] {
                let fresh = qodg.critical_path(|_| Micros::new(unit));
                let reused = qodg.critical_path_reuse(|_| Micros::new(unit), &mut scratch);
                assert_eq!(fresh, reused);
            }
        }
    }
}

impl Qodg {
    /// Logical depth: the number of op nodes on the longest unit-delay
    /// path — the circuit's level count under unbounded parallelism.
    pub fn depth(&self) -> u64 {
        self.critical_path(|_| Micros::new(1.0)).op_count()
    }

    /// Average op-level parallelism: `op_count / depth` (1.0 for a fully
    /// serial program; 0.0 for an empty one).
    pub fn average_parallelism(&self) -> f64 {
        let depth = self.depth();
        if depth == 0 {
            0.0
        } else {
            self.op_count() as f64 / depth as f64
        }
    }
}

#[cfg(test)]
mod depth_tests {
    use super::*;
    use crate::{FtCircuit, QubitId};
    use leqa_fabric::OneQubitKind;

    fn q(i: u32) -> QubitId {
        QubitId(i)
    }

    #[test]
    fn serial_chain_has_depth_equal_to_ops() {
        let mut ft = FtCircuit::new(1);
        for _ in 0..7 {
            ft.push_one_qubit(OneQubitKind::H, q(0)).unwrap();
        }
        let qodg = Qodg::from_ft_circuit(&ft);
        assert_eq!(qodg.depth(), 7);
        assert!((qodg.average_parallelism() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn independent_wires_have_depth_one() {
        let mut ft = FtCircuit::new(5);
        for i in 0..5 {
            ft.push_one_qubit(OneQubitKind::T, q(i)).unwrap();
        }
        let qodg = Qodg::from_ft_circuit(&ft);
        assert_eq!(qodg.depth(), 1);
        assert!((qodg.average_parallelism() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn empty_program_has_zero_depth() {
        let qodg = Qodg::from_ft_circuit(&FtCircuit::new(2));
        assert_eq!(qodg.depth(), 0);
        assert_eq!(qodg.average_parallelism(), 0.0);
    }

    #[test]
    fn cnots_join_wires_into_one_level_chain() {
        let mut ft = FtCircuit::new(2);
        ft.push_cnot(q(0), q(1)).unwrap();
        ft.push_cnot(q(1), q(0)).unwrap();
        let qodg = Qodg::from_ft_circuit(&ft);
        assert_eq!(qodg.depth(), 2);
    }
}

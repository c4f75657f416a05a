//! The mapping engine: list scheduling plus per-movement routing.
//!
//! # The zero-alloc hot path
//!
//! One mapping run needs a pile of working buffers — qubit positions,
//! ready times, the CSR successor graph, the ready heap, route and
//! channel-calendar storage. [`MapScratch`] owns all of them and is
//! reusable across runs (any program, any fabric), so services that map
//! repeatedly — `compare`/`map` endpoints, the bench suite — stop
//! churning the allocator: after the first call on a thread, a run
//! allocates only its outputs (placement, channel heatmap, optional
//! trace). [`Mapper::map`] and [`Mapper::map_with_trace`] keep a
//! thread-local scratch automatically; [`Mapper::map_with_scratch`]
//! takes a caller-owned one. Scratch reuse is bit-identical to fresh
//! buffers (pinned by `reused_scratch_is_bit_identical` below and the
//! workspace differential tests).

use std::cell::RefCell;
use std::collections::BinaryHeap;
use std::sync::Arc;

use leqa_circuit::{FtOp, Iig, NodeId, Qodg, QodgNode};
use leqa_fabric::{route, Channel, FabricDims, FabricMap, Micros, PhysicalParams, Ulb};

use crate::channels::ChannelOccupancy;
use crate::placement::{initial_placement, PlacementStrategy};
use crate::trace::{OpRecord, Trace};
use crate::MapError;

/// Configuration of the detailed mapper.
#[derive(Debug, Clone)]
pub struct MapperConfig {
    /// The fabric to map onto.
    pub dims: FabricDims,
    /// Physical parameters (Table 1).
    pub params: PhysicalParams,
    /// Placement strategy.
    pub placement: PlacementStrategy,
    /// Routing discipline for qubit transfers.
    pub router: RouterStrategy,
    /// How qubit positions evolve across interactions.
    pub movement: MovementModel,
    /// Seed for the randomized placement strategy.
    pub seed: u64,
}

/// How a qubit's position evolves after a two-qubit interaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MovementModel {
    /// The control travels to the target, interacts, and returns to its
    /// fixed home ULB (default; teleport-style QLA data regions).
    #[default]
    HomeBased,
    /// The control stays near the interaction site: after the gate it
    /// relocates to the nearest unoccupied ULB and that becomes its new
    /// position — the free-drift behaviour of movement-based mappers like
    /// the paper's QSPR.
    Drift,
}

/// Routing discipline for the control qubit's trips.
///
/// Both dimension orders produce minimal paths; [`Adaptive`](Self::Adaptive)
/// probes the queueing wait along each candidate's channels (without
/// booking) and takes the less congested one — a cheap congestion-aware
/// router in the spirit of the paper's crossbar-based channel network.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RouterStrategy {
    /// X-then-Y dimension order (default).
    #[default]
    Xy,
    /// Y-then-X dimension order.
    Yx,
    /// Per-transfer choice of XY or YX by probed congestion.
    Adaptive,
}

/// The detailed scheduling/placement/routing mapper.
///
/// See the [crate docs](crate) for the model; construction is cheap, all
/// the work happens in [`map`](Self::map).
#[derive(Debug, Clone)]
pub struct Mapper {
    config: MapperConfig,
    /// Defect/heterogeneity overlay; `None` (or a pristine map) keeps the
    /// uniform-fabric fast paths bit-identical.
    fabric_map: Option<Arc<FabricMap>>,
}

impl Mapper {
    /// Creates a mapper with the default (interaction-aware) placement.
    pub fn new(dims: FabricDims, params: PhysicalParams) -> Self {
        Mapper {
            config: MapperConfig {
                dims,
                params,
                placement: PlacementStrategy::default(),
                router: RouterStrategy::default(),
                movement: MovementModel::default(),
                seed: 0,
            },
            fabric_map: None,
        }
    }

    /// Creates a mapper from an explicit configuration.
    pub fn with_config(config: MapperConfig) -> Self {
        Mapper {
            config,
            fabric_map: None,
        }
    }

    /// Attaches a fabric map: placement avoids dead cells, routing detours
    /// around dead cells/channels (or fails with
    /// [`MapError::Unroutable`]), and channel calendars honour per-region
    /// capacity/`T_move` overlays. A pristine map is equivalent to none.
    #[must_use]
    pub fn with_fabric_map(mut self, map: Arc<FabricMap>) -> Self {
        self.fabric_map = Some(map);
        self
    }

    /// The attached fabric map, if any.
    pub fn fabric_map(&self) -> Option<&FabricMap> {
        self.fabric_map.as_deref()
    }

    /// The configuration in use.
    pub fn config(&self) -> &MapperConfig {
        &self.config
    }

    /// Maps a QODG onto the fabric, simulating every qubit movement, and
    /// returns the program latency with detailed statistics.
    ///
    /// Operations are processed as a discrete-event simulation: an op
    /// enters the ready heap once all its QODG predecessors completed, and
    /// ops are executed in order of their earliest resource use, so channel
    /// and ULB bookings happen in (approximately) simulated-time order.
    ///
    /// # Errors
    ///
    /// Returns [`MapError::FabricTooSmall`] if the program uses more
    /// logical qubits than the fabric has usable ULBs,
    /// [`MapError::Unroutable`] if an attached fabric map disconnects a
    /// required transfer, and [`MapError::FabricMapMismatch`] if the map
    /// describes different dimensions than the mapper.
    ///
    /// Uses a thread-local [`MapScratch`], so repeated calls on one
    /// thread reuse every working buffer.
    pub fn map(&self, qodg: &Qodg) -> Result<MappingResult, MapError> {
        let (result, _) = with_thread_scratch(|scratch| self.map_impl(qodg, false, scratch))?;
        Ok(result)
    }

    /// Like [`map`](Self::map) with a caller-owned scratch — for callers
    /// that manage their own reuse (e.g. a dedicated mapping thread).
    /// Results are bit-identical to [`map`](Self::map).
    ///
    /// # Errors
    ///
    /// Same as [`map`](Self::map).
    pub fn map_with_scratch(
        &self,
        qodg: &Qodg,
        scratch: &mut MapScratch,
    ) -> Result<MappingResult, MapError> {
        let (result, _) = self.map_impl(qodg, false, scratch)?;
        Ok(result)
    }

    /// Like [`map`](Self::map), additionally recording the per-operation
    /// schedule (start/end, travel distance, queueing wait).
    ///
    /// # Errors
    ///
    /// Same as [`map`](Self::map).
    pub fn map_with_trace(&self, qodg: &Qodg) -> Result<(MappingResult, Trace), MapError> {
        let (result, trace) = with_thread_scratch(|scratch| self.map_impl(qodg, true, scratch))?;
        Ok((result, trace.expect("trace requested")))
    }

    fn map_impl(
        &self,
        qodg: &Qodg,
        want_trace: bool,
        scratch: &mut MapScratch,
    ) -> Result<(MappingResult, Option<Trace>), MapError> {
        let dims = self.config.dims;
        let params = &self.config.params;
        if let Some(map) = self.fabric_map.as_deref() {
            let md = map.dims();
            if md != dims {
                return Err(MapError::FabricMapMismatch {
                    dims: (dims.width(), dims.height()),
                    map_dims: (md.width(), md.height()),
                });
            }
        }
        // A pristine map is indistinguishable from no map; dropping it here
        // keeps defect-free runs on the legacy code paths, bit-identically.
        let fmap = self.fabric_map.as_deref().filter(|m| !m.is_pristine());
        let defects = fmap.filter(|m| m.has_defects());
        let iig = Iig::from_qodg(qodg);
        let placement =
            initial_placement(&iig, dims, self.config.placement, self.config.seed, fmap)?;

        let t_move = params.t_move();
        let d_cnot = params.gate_delays().cnot();
        let shuttle = params.one_qubit_routing_latency(); // 2·T_move in/out

        // Split the scratch into disjoint buffer borrows.
        let MapScratch {
            position,
            residents,
            qubit_ready,
            ulb_free,
            succ_offsets,
            succ_cursor,
            succ_edges,
            remaining,
            heap,
            route: route_buf,
            route_alt,
            channels: channels_slot,
        } = scratch;

        let channels: &mut ChannelOccupancy = match channels_slot {
            Some(c) => {
                match fmap {
                    Some(map) => c.reset_with_map(dims, params.channel_capacity(), t_move, map),
                    None => c.reset(dims, params.channel_capacity(), t_move),
                }
                c
            }
            None => channels_slot.insert(match fmap {
                Some(map) => {
                    ChannelOccupancy::new_with_map(dims, params.channel_capacity(), t_move, map)
                }
                None => ChannelOccupancy::new(dims, params.channel_capacity(), t_move),
            }),
        };

        // Current position of each logical qubit (fixed homes in the
        // home-based model, evolving under drift).
        position.clear();
        position.extend_from_slice(&placement);
        // Residents per ULB (drift model only; ≤ 1 by construction).
        residents.clear();
        residents.resize(dims.area() as usize, 0);
        for &p in position.iter() {
            residents[dims.index_of(p)] += 1;
        }
        // When each logical qubit is next free.
        qubit_ready.clear();
        qubit_ready.resize(qodg.num_qubits() as usize, 0.0);
        // When each ULB finishes its current operation.
        ulb_free.clear();
        ulb_free.resize(dims.area() as usize, 0.0);

        // CSR successor graph and remaining-predecessor counters for the
        // event-driven sweep: counts, prefix sums, then a fill pass — in
        // the same (ascending node id) order the Vec-of-Vec build used,
        // so the heap sees identical push order.
        let n = qodg.node_count();
        succ_offsets.clear();
        succ_offsets.resize(n + 1, 0);
        remaining.clear();
        remaining.resize(n, 0);
        for (i, slot) in remaining.iter_mut().enumerate() {
            let preds = qodg.preds(NodeId(i));
            *slot = preds.len() as u32;
            for &p in preds {
                succ_offsets[p.0 + 1] += 1;
            }
        }
        for i in 0..n {
            succ_offsets[i + 1] += succ_offsets[i];
        }
        succ_cursor.clear();
        succ_cursor.extend_from_slice(&succ_offsets[..n]);
        succ_edges.clear();
        succ_edges.resize(succ_offsets[n], NodeId(0));
        for i in 0..n {
            for &p in qodg.preds(NodeId(i)) {
                succ_edges[succ_cursor[p.0]] = NodeId(i);
                succ_cursor[p.0] += 1;
            }
        }
        let succs = |node: NodeId| &succ_edges[succ_offsets[node.0]..succ_offsets[node.0 + 1]];

        heap.clear();
        let push_if_ready = |heap: &mut BinaryHeap<ReadyOp>, qubit_ready: &[f64], node: NodeId| {
            if let QodgNode::Op(op) = qodg.node(node) {
                // Earliest resource use: the control's departure for a
                // CNOT, the target's shuttle for a one-qubit op. Operand
                // ready times are final once every predecessor completed
                // (ops on a wire form a chain in the QODG).
                let at = match op {
                    FtOp::Cnot { control, .. } => qubit_ready[control.index()],
                    FtOp::OneQubit { target, .. } => qubit_ready[target.index()],
                };
                heap.push(ReadyOp { at, node });
            }
        };

        // Seed: successors of `start`.
        for &s in succs(qodg.start()) {
            remaining[s.0] -= 1;
            if remaining[s.0] == 0 {
                push_if_ready(heap, qubit_ready, s);
            }
        }

        let mut makespan = 0.0f64;
        let mut stats = MappingStats::default();
        let mut processed = 0usize;
        let mut trace = want_trace.then(Trace::new);

        while let Some(ReadyOp { node, .. }) = heap.pop() {
            let QodgNode::Op(op) = qodg.node(node) else {
                continue;
            };
            processed += 1;
            match op {
                FtOp::OneQubit { kind, target } => {
                    let here = position[target.index()];
                    let ulb = dims.index_of(here);
                    let start = qubit_ready[target.index()].max(ulb_free[ulb]);
                    // Shuttle into the ULB's operating region, run the FT
                    // op, shuttle out (the paper's empirical 2·T_move).
                    let end =
                        start + shuttle.as_f64() + params.gate_delays().one_qubit(kind).as_f64();
                    qubit_ready[target.index()] = end;
                    ulb_free[ulb] = end;
                    makespan = makespan.max(end);
                    stats.one_qubit_ops += 1;
                    if let Some(trace) = trace.as_mut() {
                        trace.push(OpRecord {
                            node,
                            op,
                            start: Micros::new(start),
                            end: Micros::new(end),
                            distance: 0,
                            outbound_wait: Micros::ZERO,
                        });
                    }
                }
                FtOp::Cnot { control, target } => {
                    let from = position[control.index()];
                    let to = position[target.index()];
                    let ulb = dims.index_of(to);

                    // Outbound trip of the control qubit.
                    let depart = qubit_ready[control.index()];
                    let mut t = Micros::new(depart);
                    route_transfer(
                        self.config.router,
                        defects,
                        channels,
                        from,
                        to,
                        t,
                        route_buf,
                        route_alt,
                    )?;
                    let distance = route_buf.len() as u64;
                    for &ch in route_buf.iter() {
                        t = channels.traverse(ch, t);
                    }
                    let arrival = t.as_f64();

                    // Gate executes when both qubits and the ULB are ready.
                    let start = arrival.max(qubit_ready[target.index()]).max(ulb_free[ulb]);
                    let end = start + d_cnot.as_f64();
                    qubit_ready[target.index()] = end;
                    ulb_free[ulb] = end;
                    makespan = makespan.max(end);

                    // After the gate the control either returns home
                    // (home-based) or settles nearby (drift).
                    match self.config.movement {
                        MovementModel::HomeBased => {
                            let mut back = Micros::new(end);
                            route_transfer(
                                self.config.router,
                                defects,
                                channels,
                                to,
                                from,
                                back,
                                route_buf,
                                route_alt,
                            )?;
                            for &ch in route_buf.iter() {
                                back = channels.traverse(ch, back);
                            }
                            qubit_ready[control.index()] = back.as_f64();
                            stats.total_hops += 2 * distance;
                        }
                        MovementModel::Drift => {
                            // Vacate the old site, settle at the nearest
                            // free (and live) ULB around the interaction
                            // site.
                            residents[dims.index_of(from)] -= 1;
                            let settle = dims
                                .rings(to)
                                .find(|u| {
                                    residents[dims.index_of(*u)] == 0
                                        && defects.is_none_or(|m| m.cell_enabled(*u))
                                })
                                .expect("Q <= usable ULBs guarantees a free one");
                            residents[dims.index_of(settle)] += 1;
                            position[control.index()] = settle;
                            let mut back = Micros::new(end);
                            route_transfer(
                                self.config.router,
                                defects,
                                channels,
                                to,
                                settle,
                                back,
                                route_buf,
                                route_alt,
                            )?;
                            for &ch in route_buf.iter() {
                                back = channels.traverse(ch, back);
                            }
                            qubit_ready[control.index()] = back.as_f64();
                            stats.total_hops += distance + to.manhattan_distance(settle) as u64;
                        }
                    }

                    stats.cnot_ops += 1;
                    stats.total_cnot_distance += distance;
                    if let Some(trace) = trace.as_mut() {
                        let ideal = distance as f64 * t_move.as_f64();
                        trace.push(OpRecord {
                            node,
                            op,
                            start: Micros::new(start),
                            end: Micros::new(end),
                            distance: distance as u32,
                            outbound_wait: Micros::new((arrival - depart - ideal).max(0.0)),
                        });
                    }
                }
            }

            for &s in succs(node) {
                remaining[s.0] -= 1;
                if remaining[s.0] == 0 {
                    push_if_ready(heap, qubit_ready, s);
                }
            }
        }
        debug_assert_eq!(processed, qodg.op_count(), "all ops must execute");

        stats.congestion_wait = channels.congestion_wait();
        stats.channel_traversals = channels.traversals();
        stats.max_channel_load = channels.load().iter().copied().max().unwrap_or(0);

        Ok((
            MappingResult {
                latency: Micros::new(makespan),
                placement,
                channel_load: channels.load().to_vec(),
                stats,
            },
            trace,
        ))
    }
}

/// Reusable working storage for [`Mapper`] runs (see the module docs):
/// positions, ready times, the CSR successor graph, the ready heap, the
/// route buffers and the channel calendars. One scratch serves any
/// sequence of programs and fabrics; buffers grow to the high-water mark
/// and stay.
#[derive(Debug, Default)]
pub struct MapScratch {
    position: Vec<Ulb>,
    residents: Vec<u32>,
    qubit_ready: Vec<f64>,
    ulb_free: Vec<f64>,
    succ_offsets: Vec<usize>,
    succ_cursor: Vec<usize>,
    succ_edges: Vec<NodeId>,
    remaining: Vec<u32>,
    heap: BinaryHeap<ReadyOp>,
    route: Vec<Channel>,
    route_alt: Vec<Channel>,
    channels: Option<ChannelOccupancy>,
}

impl MapScratch {
    /// An empty scratch; buffers are sized on first use.
    #[must_use]
    pub fn new() -> Self {
        MapScratch::default()
    }
}

thread_local! {
    /// Per-thread scratch behind [`Mapper::map`] / [`Mapper::map_with_trace`].
    static THREAD_SCRATCH: RefCell<MapScratch> = RefCell::new(MapScratch::new());
}

/// Runs `f` with the thread-local scratch (falling back to a fresh one
/// in the — currently impossible — reentrant case).
fn with_thread_scratch<R>(f: impl FnOnce(&mut MapScratch) -> R) -> R {
    THREAD_SCRATCH.with(|cell| match cell.try_borrow_mut() {
        Ok(mut scratch) => f(&mut scratch),
        Err(_) => f(&mut MapScratch::new()),
    })
}

/// Chooses the channel sequence for one transfer under the configured
/// routing discipline, filling `out` in place (`alt` is the comparison
/// buffer the adaptive router probes against) — no allocation once the
/// buffers reached the fabric diameter.
fn pick_route_into(
    strategy: RouterStrategy,
    channels: &ChannelOccupancy,
    from: Ulb,
    to: Ulb,
    at: Micros,
    out: &mut Vec<Channel>,
    alt: &mut Vec<Channel>,
) {
    match strategy {
        RouterStrategy::Xy => route::xy_channels_into(from, to, out),
        RouterStrategy::Yx => route::yx_channels_into(from, to, out),
        RouterStrategy::Adaptive => {
            route::xy_channels_into(from, to, out);
            route::yx_channels_into(from, to, alt);
            if out == alt {
                return; // straight line: no choice to make
            }
            let probe = |path: &[Channel]| -> f64 {
                path.iter()
                    .map(|ch| channels.peek_wait(*ch, at).as_f64())
                    .sum()
            };
            if probe(out) > probe(alt) {
                std::mem::swap(out, alt);
            }
        }
    }
}

/// Routes one transfer, honouring a defect map when present: without
/// defects this is exactly [`pick_route_into`]; with defects, the minimal
/// dimension-ordered candidates are validated against the map and a BFS
/// detour is taken when both are blocked.
///
/// # Errors
///
/// [`MapError::Unroutable`] when the defect map disconnects `from` and
/// `to`.
#[allow(clippy::too_many_arguments)]
fn route_transfer(
    strategy: RouterStrategy,
    defects: Option<&FabricMap>,
    channels: &ChannelOccupancy,
    from: Ulb,
    to: Ulb,
    at: Micros,
    out: &mut Vec<Channel>,
    alt: &mut Vec<Channel>,
) -> Result<(), MapError> {
    match defects {
        None => {
            pick_route_into(strategy, channels, from, to, at, out, alt);
            Ok(())
        }
        Some(map) => defect_route_into(strategy, map, channels, from, to, at, out, alt),
    }
}

/// Defect-aware route choice: prefer the strategy's minimal path, fall
/// back to the other dimension order, then to a BFS detour over the live
/// fabric ([`FabricMap::route_avoiding`]).
#[allow(clippy::too_many_arguments)]
fn defect_route_into(
    strategy: RouterStrategy,
    map: &FabricMap,
    channels: &ChannelOccupancy,
    from: Ulb,
    to: Ulb,
    at: Micros,
    out: &mut Vec<Channel>,
    alt: &mut Vec<Channel>,
) -> Result<(), MapError> {
    match strategy {
        RouterStrategy::Xy => {
            route::xy_channels_into(from, to, out);
            if path_ok(map, from, out) {
                return Ok(());
            }
            route::yx_channels_into(from, to, out);
            if path_ok(map, from, out) {
                return Ok(());
            }
        }
        RouterStrategy::Yx => {
            route::yx_channels_into(from, to, out);
            if path_ok(map, from, out) {
                return Ok(());
            }
            route::xy_channels_into(from, to, out);
            if path_ok(map, from, out) {
                return Ok(());
            }
        }
        RouterStrategy::Adaptive => {
            route::xy_channels_into(from, to, out);
            route::yx_channels_into(from, to, alt);
            match (path_ok(map, from, out), path_ok(map, from, alt)) {
                (true, true) => {
                    if out != alt {
                        let probe = |path: &[Channel]| -> f64 {
                            path.iter()
                                .map(|ch| channels.peek_wait(*ch, at).as_f64())
                                .sum()
                        };
                        if probe(out) > probe(alt) {
                            std::mem::swap(out, alt);
                        }
                    }
                    return Ok(());
                }
                (true, false) => return Ok(()),
                (false, true) => {
                    std::mem::swap(out, alt);
                    return Ok(());
                }
                (false, false) => {}
            }
        }
    }
    if map.route_avoiding(from, to, out) {
        Ok(())
    } else {
        Err(MapError::Unroutable { from, to })
    }
}

/// Whether a channel path starting at `from` stays on live channels and
/// cells (every cell it enters, intermediate or final, must be enabled;
/// `from` itself is a placement/settle site and is live by construction).
fn path_ok(map: &FabricMap, from: Ulb, path: &[Channel]) -> bool {
    let mut here = from;
    for &ch in path {
        if !map.channel_enabled(ch) {
            return false;
        }
        here = if ch.origin() == here {
            ch.far_end()
        } else {
            ch.origin()
        };
        if !map.cell_enabled(here) {
            return false;
        }
    }
    true
}

/// Heap entry: an op whose predecessors all completed, ordered by earliest
/// resource-use time (min-heap).
#[derive(Debug, Clone, Copy)]
struct ReadyOp {
    at: f64,
    node: NodeId,
}

impl PartialEq for ReadyOp {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.node == other.node
    }
}
impl Eq for ReadyOp {}
impl PartialOrd for ReadyOp {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for ReadyOp {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reverse for a min-heap; tie-break on node id for determinism.
        other
            .at
            .total_cmp(&self.at)
            .then_with(|| other.node.cmp(&self.node))
    }
}

/// The outcome of a detailed mapping run.
#[derive(Debug, Clone)]
pub struct MappingResult {
    /// The program latency ("actual delay" in Table 2): the completion
    /// time of the last operation.
    pub latency: Micros,
    /// The home ULB of each logical qubit.
    pub placement: Vec<Ulb>,
    /// Per-channel traversal counts indexed by
    /// [`ChannelId`](leqa_fabric::ChannelId) — the congestion heatmap.
    pub channel_load: Vec<u64>,
    /// Movement and congestion statistics.
    pub stats: MappingStats,
}

impl MappingResult {
    /// The `k` most-traversed channels as `(channel index, traversals)`,
    /// busiest first — where crossbar congestion concentrates.
    ///
    /// Partial selection: for small `k` over a big fabric's channel
    /// vector this is `O(n + k log k)` rather than the full `O(n log n)`
    /// sort it used to pay.
    pub fn hotspots(&self, k: usize) -> Vec<(usize, u64)> {
        let mut indexed: Vec<(usize, u64)> = self
            .channel_load
            .iter()
            .copied()
            .enumerate()
            .filter(|&(_, load)| load > 0)
            .collect();
        if k == 0 || indexed.is_empty() {
            return Vec::new();
        }
        let rank = |&(i, load): &(usize, u64)| (std::cmp::Reverse(load), i);
        if k < indexed.len() {
            indexed.select_nth_unstable_by_key(k - 1, rank);
            indexed.truncate(k);
        }
        indexed.sort_unstable_by_key(rank);
        indexed
    }
}

/// Movement and congestion statistics of a mapping run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MappingStats {
    /// One-qubit operations executed.
    pub one_qubit_ops: u64,
    /// CNOT operations executed.
    pub cnot_ops: u64,
    /// Channel hops travelled (out- and return trips).
    pub total_hops: u64,
    /// Sum over CNOTs of the control→target Manhattan distance.
    pub total_cnot_distance: u64,
    /// Total time qubits queued at saturated channels.
    pub congestion_wait: Micros,
    /// Total channel traversals recorded by the occupancy tracker.
    pub channel_traversals: u64,
    /// Traversals through the single busiest channel.
    pub max_channel_load: u64,
}

impl MappingStats {
    /// Average control→target distance per CNOT, in ULB hops.
    pub fn avg_cnot_distance(&self) -> f64 {
        if self.cnot_ops == 0 {
            0.0
        } else {
            self.total_cnot_distance as f64 / self.cnot_ops as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use leqa_circuit::{FtCircuit, QubitId};
    use leqa_fabric::OneQubitKind;

    fn q(i: u32) -> QubitId {
        QubitId(i)
    }

    fn dac13_mapper() -> Mapper {
        Mapper::new(FabricDims::dac13(), PhysicalParams::dac13())
    }

    #[test]
    fn single_one_qubit_op_latency() {
        let mut ft = FtCircuit::new(1);
        ft.push_one_qubit(OneQubitKind::H, q(0)).unwrap();
        let qodg = Qodg::from_ft_circuit(&ft);
        let r = dac13_mapper().map(&qodg).unwrap();
        // 2·T_move shuttle + d_H
        assert_eq!(r.latency.as_f64(), 200.0 + 5440.0);
    }

    #[test]
    fn serial_ops_accumulate() {
        let mut ft = FtCircuit::new(1);
        ft.push_one_qubit(OneQubitKind::H, q(0)).unwrap();
        ft.push_one_qubit(OneQubitKind::T, q(0)).unwrap();
        let qodg = Qodg::from_ft_circuit(&ft);
        let r = dac13_mapper().map(&qodg).unwrap();
        assert_eq!(r.latency.as_f64(), 2.0 * 200.0 + 5440.0 + 10940.0);
    }

    #[test]
    fn parallel_ops_overlap() {
        let mut ft = FtCircuit::new(2);
        ft.push_one_qubit(OneQubitKind::H, q(0)).unwrap();
        ft.push_one_qubit(OneQubitKind::H, q(1)).unwrap();
        let qodg = Qodg::from_ft_circuit(&ft);
        let r = dac13_mapper().map(&qodg).unwrap();
        // Different homes → fully parallel.
        assert_eq!(r.latency.as_f64(), 200.0 + 5440.0);
    }

    #[test]
    fn cnot_pays_travel_time() {
        let mut ft = FtCircuit::new(2);
        ft.push_cnot(q(0), q(1)).unwrap();
        let qodg = Qodg::from_ft_circuit(&ft);
        let r = dac13_mapper().map(&qodg).unwrap();
        let d = r.stats.avg_cnot_distance();
        assert!(d >= 1.0, "homes are distinct, so distance ≥ 1");
        assert_eq!(r.latency.as_f64(), d * 100.0 + 4930.0);
    }

    #[test]
    fn control_return_trip_delays_its_next_op() {
        // CNOT(0,1) then H(0): the H must wait for the control to return.
        let mut ft = FtCircuit::new(2);
        ft.push_cnot(q(0), q(1)).unwrap();
        ft.push_one_qubit(OneQubitKind::H, q(0)).unwrap();
        let qodg = Qodg::from_ft_circuit(&ft);
        let r = dac13_mapper().map(&qodg).unwrap();
        let d = r.stats.avg_cnot_distance();
        // out + gate + back + shuttle + H
        let expected = d * 100.0 + 4930.0 + d * 100.0 + 200.0 + 5440.0;
        assert!((r.latency.as_f64() - expected).abs() < 1e-9);
    }

    #[test]
    fn congestion_appears_under_contention() {
        // Star pattern: many qubits CNOT into one hub target concurrently →
        // channels near the hub saturate. Use capacity 1 to force queueing.
        let params = PhysicalParams::dac13()
            .to_builder()
            .channel_capacity(1)
            .build()
            .unwrap();
        let mut ft = FtCircuit::new(9);
        for i in 1..9 {
            ft.push_cnot(q(i), q(0)).unwrap();
        }
        let qodg = Qodg::from_ft_circuit(&ft);
        let mapper = Mapper::new(FabricDims::new(3, 3).unwrap(), params);
        let r = mapper.map(&qodg).unwrap();
        // All 8 CNOTs serialize on the hub ULB regardless; congestion shows
        // up as waiting in the stats.
        assert!(r.stats.congestion_wait.as_f64() >= 0.0);
        assert_eq!(r.stats.cnot_ops, 8);
    }

    #[test]
    fn too_many_qubits_is_an_error() {
        let mut ft = FtCircuit::new(10);
        ft.push_cnot(q(0), q(1)).unwrap();
        let qodg = Qodg::from_ft_circuit(&ft);
        let mapper = Mapper::new(FabricDims::new(3, 3).unwrap(), PhysicalParams::dac13());
        assert!(matches!(
            mapper.map(&qodg),
            Err(MapError::FabricTooSmall { .. })
        ));
    }

    #[test]
    fn deterministic_results() {
        let mut ft = FtCircuit::new(6);
        for i in 0..5 {
            ft.push_cnot(q(i), q(i + 1)).unwrap();
            ft.push_one_qubit(OneQubitKind::T, q(i)).unwrap();
        }
        let qodg = Qodg::from_ft_circuit(&ft);
        let a = dac13_mapper().map(&qodg).unwrap();
        let b = dac13_mapper().map(&qodg).unwrap();
        assert_eq!(a.latency, b.latency);
        assert_eq!(a.stats, b.stats);
    }

    #[test]
    fn reused_scratch_is_bit_identical() {
        // One scratch across different programs, fabrics, routers and
        // movement models must reproduce fresh-buffer runs exactly —
        // the zero-alloc contract.
        let mut scratch = MapScratch::new();
        let mut programs = Vec::new();
        for n in [2u32, 7, 16] {
            let mut ft = FtCircuit::new(n);
            for i in 0..n - 1 {
                ft.push_cnot(q(i), q(i + 1)).unwrap();
                ft.push_one_qubit(OneQubitKind::H, q((i * 3) % n)).unwrap();
            }
            for i in 0..n / 2 {
                ft.push_cnot(q(i), q(n - 1 - i)).unwrap();
            }
            programs.push(Qodg::from_ft_circuit(&ft));
        }
        for qodg in &programs {
            for side in [5u32, 9, 12] {
                for router in [
                    RouterStrategy::Xy,
                    RouterStrategy::Yx,
                    RouterStrategy::Adaptive,
                ] {
                    for movement in [MovementModel::HomeBased, MovementModel::Drift] {
                        let mapper = Mapper::with_config(MapperConfig {
                            dims: FabricDims::new(side, side).unwrap(),
                            params: PhysicalParams::dac13()
                                .to_builder()
                                .channel_capacity(1)
                                .build()
                                .unwrap(),
                            placement: PlacementStrategy::RowMajor,
                            router,
                            movement,
                            seed: 0,
                        });
                        let reused = mapper.map_with_scratch(qodg, &mut scratch).unwrap();
                        let fresh = mapper
                            .map_with_scratch(qodg, &mut MapScratch::new())
                            .unwrap();
                        assert_eq!(reused.latency, fresh.latency);
                        assert_eq!(reused.stats, fresh.stats);
                        assert_eq!(reused.placement, fresh.placement);
                        assert_eq!(reused.channel_load, fresh.channel_load);
                    }
                }
            }
        }
    }

    #[test]
    fn empty_program_is_instant() {
        let ft = FtCircuit::new(3);
        let qodg = Qodg::from_ft_circuit(&ft);
        let r = dac13_mapper().map(&qodg).unwrap();
        assert_eq!(r.latency, Micros::ZERO);
    }

    #[test]
    fn stats_hop_accounting() {
        let mut ft = FtCircuit::new(2);
        ft.push_cnot(q(0), q(1)).unwrap();
        let qodg = Qodg::from_ft_circuit(&ft);
        let r = dac13_mapper().map(&qodg).unwrap();
        assert_eq!(r.stats.total_hops, 2 * r.stats.total_cnot_distance);
        assert_eq!(r.stats.channel_traversals, r.stats.total_hops);
    }
}

#[cfg(test)]
mod trace_tests {
    use super::*;
    use leqa_circuit::{FtCircuit, QubitId};
    use leqa_fabric::OneQubitKind;

    fn q(i: u32) -> QubitId {
        QubitId(i)
    }

    fn sample_qodg() -> Qodg {
        let mut ft = FtCircuit::new(4);
        ft.push_one_qubit(OneQubitKind::H, q(0)).unwrap();
        ft.push_cnot(q(0), q(1)).unwrap();
        ft.push_cnot(q(2), q(3)).unwrap();
        ft.push_one_qubit(OneQubitKind::T, q(1)).unwrap();
        Qodg::from_ft_circuit(&ft)
    }

    #[test]
    fn trace_covers_every_op() {
        let qodg = sample_qodg();
        let mapper = Mapper::new(FabricDims::dac13(), PhysicalParams::dac13());
        let (result, trace) = mapper.map_with_trace(&qodg).unwrap();
        assert_eq!(trace.records().len(), qodg.op_count());
        // The trace's last finisher defines the makespan.
        let last = trace.last_to_finish().unwrap();
        assert!((last.end.as_f64() - result.latency.as_f64()).abs() < 1e-9);
    }

    #[test]
    fn traced_and_untraced_runs_agree() {
        let qodg = sample_qodg();
        let mapper = Mapper::new(FabricDims::dac13(), PhysicalParams::dac13());
        let plain = mapper.map(&qodg).unwrap();
        let (traced, _) = mapper.map_with_trace(&qodg).unwrap();
        assert_eq!(plain.latency, traced.latency);
        assert_eq!(plain.stats, traced.stats);
    }

    #[test]
    fn cnot_records_have_distance_one_qubit_records_do_not() {
        let qodg = sample_qodg();
        let mapper = Mapper::new(FabricDims::dac13(), PhysicalParams::dac13());
        let (_, trace) = mapper.map_with_trace(&qodg).unwrap();
        for r in trace.records() {
            match r.op {
                FtOp::Cnot { .. } => assert!(r.distance >= 1),
                FtOp::OneQubit { .. } => assert_eq!(r.distance, 0),
            }
            assert!(r.end > r.start);
        }
    }

    #[test]
    fn channel_load_sums_to_traversals() {
        let qodg = sample_qodg();
        let mapper = Mapper::new(FabricDims::dac13(), PhysicalParams::dac13());
        let result = mapper.map(&qodg).unwrap();
        let total: u64 = result.channel_load.iter().sum();
        assert_eq!(total, result.stats.channel_traversals);
        assert!(result.stats.max_channel_load >= 1);
    }

    #[test]
    fn hotspots_partial_select_matches_full_sort() {
        let qodg = congested_reference_qodg();
        let mapper = Mapper::new(FabricDims::new(8, 8).unwrap(), PhysicalParams::dac13());
        let result = mapper.map(&qodg).unwrap();
        // Reference: full sort + truncate (the previous implementation).
        let mut reference: Vec<(usize, u64)> = result
            .channel_load
            .iter()
            .copied()
            .enumerate()
            .filter(|&(_, load)| load > 0)
            .collect();
        reference.sort_by_key(|&(i, load)| (std::cmp::Reverse(load), i));
        for k in [0usize, 1, 2, 3, 5, reference.len(), reference.len() + 10] {
            let mut want = reference.clone();
            want.truncate(k);
            assert_eq!(result.hotspots(k), want, "k = {k}");
        }
    }

    fn congested_reference_qodg() -> Qodg {
        let mut ft = FtCircuit::new(20);
        for round in 0..3u32 {
            for i in 0..10u32 {
                ft.push_cnot(q(i), q(10 + ((i + round) % 10))).unwrap();
            }
        }
        Qodg::from_ft_circuit(&ft)
    }

    #[test]
    fn hotspots_are_sorted_and_bounded() {
        let qodg = sample_qodg();
        let mapper = Mapper::new(FabricDims::dac13(), PhysicalParams::dac13());
        let result = mapper.map(&qodg).unwrap();
        let hs = result.hotspots(3);
        assert!(!hs.is_empty() && hs.len() <= 3);
        for w in hs.windows(2) {
            assert!(w[0].1 >= w[1].1);
        }
        assert_eq!(hs[0].1, result.stats.max_channel_load);
    }
}

#[cfg(test)]
mod router_tests {
    use super::*;
    use leqa_circuit::{FtCircuit, QubitId};

    fn q(i: u32) -> QubitId {
        QubitId(i)
    }

    fn congested_qodg() -> Qodg {
        // Many concurrent CNOTs between two groups, forcing shared
        // channels.
        let mut ft = FtCircuit::new(16);
        for round in 0..4u32 {
            for i in 0..8u32 {
                let target = 8 + ((i + round) % 8);
                ft.push_cnot(q(i), q(target)).unwrap();
            }
        }
        Qodg::from_ft_circuit(&ft)
    }

    fn latency_with(router: RouterStrategy) -> f64 {
        let mapper = Mapper::with_config(MapperConfig {
            dims: FabricDims::new(6, 6).unwrap(),
            params: PhysicalParams::dac13()
                .to_builder()
                .channel_capacity(1)
                .build()
                .unwrap(),
            placement: PlacementStrategy::RowMajor,
            router,
            movement: Default::default(),
            seed: 0,
        });
        mapper.map(&congested_qodg()).unwrap().latency.as_f64()
    }

    #[test]
    fn all_router_strategies_complete_with_equal_distances() {
        // Minimal routing: distances identical across strategies.
        for router in [
            RouterStrategy::Xy,
            RouterStrategy::Yx,
            RouterStrategy::Adaptive,
        ] {
            let mapper = Mapper::with_config(MapperConfig {
                dims: FabricDims::dac13(),
                params: PhysicalParams::dac13(),
                placement: PlacementStrategy::IigCluster,
                router,
                movement: Default::default(),
                seed: 0,
            });
            let r = mapper.map(&congested_qodg()).unwrap();
            assert_eq!(r.stats.cnot_ops, 32);
            assert!(r.latency.is_valid());
        }
    }

    #[test]
    fn adaptive_routing_never_loses_badly() {
        // On a congested capacity-1 fabric, the adaptive router should be
        // no worse than the better of the two fixed disciplines by more
        // than a small slack (probes are heuristic).
        let xy = latency_with(RouterStrategy::Xy);
        let yx = latency_with(RouterStrategy::Yx);
        let adaptive = latency_with(RouterStrategy::Adaptive);
        let best = xy.min(yx);
        assert!(
            adaptive <= best * 1.10,
            "adaptive {adaptive} vs best fixed {best}"
        );
    }

    #[test]
    fn router_choice_is_deterministic() {
        assert_eq!(
            latency_with(RouterStrategy::Adaptive),
            latency_with(RouterStrategy::Adaptive)
        );
    }
}

#[cfg(test)]
mod defect_tests {
    use super::*;
    use leqa_circuit::{FtCircuit, QubitId};
    use leqa_fabric::ChannelId;

    fn q(i: u32) -> QubitId {
        QubitId(i)
    }

    fn dense_qodg(n: u32, rounds: u32) -> Qodg {
        let mut ft = FtCircuit::new(n);
        for round in 0..rounds {
            for i in 0..n / 2 {
                ft.push_cnot(q(i), q(n / 2 + ((i + round) % (n / 2))))
                    .unwrap();
            }
        }
        Qodg::from_ft_circuit(&ft)
    }

    fn mapper_on(map: FabricMap, router: RouterStrategy, movement: MovementModel) -> Mapper {
        let dims = map.dims();
        Mapper::with_config(MapperConfig {
            dims,
            params: PhysicalParams::dac13()
                .to_builder()
                .channel_capacity(1)
                .build()
                .unwrap(),
            placement: PlacementStrategy::RowMajor,
            router,
            movement,
            seed: 0,
        })
        .with_fabric_map(Arc::new(map))
    }

    /// Every channel whose use the map forbids — disabled outright, or
    /// only reachable by entering a dead cell — must end the run with
    /// zero traversals.
    fn assert_forbidden_channels_unused(map: &FabricMap, load: &[u64]) {
        let dims = map.dims();
        for ch in map.channels() {
            let forbidden = !map.channel_enabled(ch)
                || !map.cell_enabled(ch.origin())
                || !map.cell_enabled(ch.far_end());
            if forbidden {
                assert_eq!(load[ch.id(dims).0], 0, "forbidden channel {ch:?} was used");
            }
        }
    }

    #[test]
    fn routing_never_uses_dead_cells_or_channels() {
        let dims = FabricDims::new(6, 6).unwrap();
        let qodg = dense_qodg(16, 3);
        for seed in 0..8u64 {
            let map = FabricMap::with_random_defects(dims, 0.12, 0.12, seed).unwrap();
            for router in [
                RouterStrategy::Xy,
                RouterStrategy::Yx,
                RouterStrategy::Adaptive,
            ] {
                for movement in [MovementModel::HomeBased, MovementModel::Drift] {
                    let mapper = mapper_on(map.clone(), router, movement);
                    match mapper.map(&qodg) {
                        Ok(r) => {
                            assert_forbidden_channels_unused(&map, &r.channel_load);
                            assert!(r.latency.is_valid());
                        }
                        // A dense defect draw may disconnect the fabric —
                        // that must surface as the typed error, not a
                        // panic or a route through a defect.
                        Err(MapError::Unroutable { .. } | MapError::FabricTooSmall { .. }) => {}
                        Err(e) => panic!("unexpected error: {e}"),
                    }
                }
            }
        }
    }

    #[test]
    fn disconnected_fabric_is_unroutable() {
        // A full column of dead cells splits the fabric in two.
        let dims = FabricDims::new(5, 3).unwrap();
        let mut map = FabricMap::pristine(dims);
        for y in 0..3 {
            map.disable_cell(Ulb::new(2, y)).unwrap();
        }
        let mut ft = FtCircuit::new(12);
        for i in 0..11 {
            ft.push_cnot(q(i), q(i + 1)).unwrap();
        }
        let qodg = Qodg::from_ft_circuit(&ft);
        let err = mapper_on(map, RouterStrategy::Xy, MovementModel::HomeBased)
            .map(&qodg)
            .unwrap_err();
        assert!(matches!(err, MapError::Unroutable { .. }), "got {err}");
    }

    #[test]
    fn detour_pays_extra_hops() {
        // Dead cell directly between two interacting qubits on a 3x1-ish
        // line: the route must go around (4 hops instead of 2).
        let dims = FabricDims::new(3, 2).unwrap();
        let mut map = FabricMap::pristine(dims);
        map.disable_cell(Ulb::new(1, 0)).unwrap();
        let mut ft = FtCircuit::new(2);
        ft.push_cnot(q(0), q(1)).unwrap();
        let qodg = Qodg::from_ft_circuit(&ft);
        // RowMajor on live cells: q0 -> (0,0), q1 -> (2,0).
        let r = mapper_on(map.clone(), RouterStrategy::Xy, MovementModel::HomeBased)
            .map(&qodg)
            .unwrap();
        assert_eq!(r.placement, vec![Ulb::new(0, 0), Ulb::new(2, 0)]);
        assert_eq!(r.stats.total_cnot_distance, 4, "detour through y=1");
        assert_forbidden_channels_unused(&map, &r.channel_load);
    }

    #[test]
    fn pristine_map_is_bit_identical_to_no_map() {
        let dims = FabricDims::new(6, 6).unwrap();
        let qodg = dense_qodg(16, 3);
        for router in [
            RouterStrategy::Xy,
            RouterStrategy::Yx,
            RouterStrategy::Adaptive,
        ] {
            for movement in [MovementModel::HomeBased, MovementModel::Drift] {
                let config = MapperConfig {
                    dims,
                    params: PhysicalParams::dac13(),
                    placement: PlacementStrategy::IigCluster,
                    router,
                    movement,
                    seed: 0,
                };
                let plain = Mapper::with_config(config.clone()).map(&qodg).unwrap();
                let mapped = Mapper::with_config(config)
                    .with_fabric_map(Arc::new(FabricMap::pristine(dims)))
                    .map(&qodg)
                    .unwrap();
                assert_eq!(plain.latency, mapped.latency);
                assert_eq!(plain.stats, mapped.stats);
                assert_eq!(plain.placement, mapped.placement);
                assert_eq!(plain.channel_load, mapped.channel_load);
            }
        }
    }

    #[test]
    fn overlay_capacity_increases_congestion_wait() {
        // Choking every channel to capacity 1 via an overlay must produce
        // at least as much queueing as the uniform capacity-5 fabric.
        let dims = FabricDims::new(6, 6).unwrap();
        let qodg = dense_qodg(16, 4);
        let mut map = FabricMap::pristine(dims);
        map.push_overlay(leqa_fabric::RegionOverlay {
            x0: 0,
            y0: 0,
            x1: 5,
            y1: 5,
            t_move_us: None,
            qubit_speed: None,
            channel_capacity: Some(1),
        })
        .unwrap();
        let config = MapperConfig {
            dims,
            params: PhysicalParams::dac13(),
            placement: PlacementStrategy::RowMajor,
            router: RouterStrategy::Xy,
            movement: MovementModel::HomeBased,
            seed: 0,
        };
        let wide = Mapper::with_config(config.clone()).map(&qodg).unwrap();
        let choked = Mapper::with_config(config)
            .with_fabric_map(Arc::new(map))
            .map(&qodg)
            .unwrap();
        assert!(
            choked.stats.congestion_wait >= wide.stats.congestion_wait,
            "choked {:?} vs wide {:?}",
            choked.stats.congestion_wait,
            wide.stats.congestion_wait
        );
        assert!(choked.latency >= wide.latency);
    }

    #[test]
    fn mismatched_map_dims_is_an_error() {
        let qodg = dense_qodg(4, 1);
        let mapper = Mapper::new(FabricDims::new(5, 5).unwrap(), PhysicalParams::dac13())
            .with_fabric_map(Arc::new(FabricMap::pristine(
                FabricDims::new(4, 4).unwrap(),
            )));
        assert_eq!(
            mapper.map(&qodg).unwrap_err(),
            MapError::FabricMapMismatch {
                dims: (5, 5),
                map_dims: (4, 4)
            }
        );
    }

    #[test]
    fn defective_runs_are_deterministic() {
        let dims = FabricDims::new(6, 6).unwrap();
        let map = FabricMap::with_random_defects(dims, 0.1, 0.1, 42).unwrap();
        let qodg = dense_qodg(12, 2);
        let run = || {
            mapper_on(map.clone(), RouterStrategy::Adaptive, MovementModel::Drift)
                .map(&qodg)
                .map(|r| (r.latency, r.stats.clone(), r.channel_load.clone()))
        };
        assert_eq!(run().unwrap(), run().unwrap());
    }

    #[test]
    fn channel_load_length_matches_channel_count() {
        let dims = FabricDims::new(4, 3).unwrap();
        let map = FabricMap::with_random_defects(dims, 0.05, 0.05, 1).unwrap();
        let qodg = dense_qodg(6, 1);
        if let Ok(r) = mapper_on(map, RouterStrategy::Xy, MovementModel::HomeBased).map(&qodg) {
            assert_eq!(r.channel_load.len(), ChannelId::count(dims));
        }
    }
}

#[cfg(test)]
mod drift_tests {
    use super::*;
    use leqa_circuit::{FtCircuit, QubitId};

    fn q(i: u32) -> QubitId {
        QubitId(i)
    }

    fn mapper(movement: MovementModel) -> Mapper {
        Mapper::with_config(MapperConfig {
            dims: FabricDims::dac13(),
            params: PhysicalParams::dac13(),
            placement: PlacementStrategy::IigCluster,
            router: RouterStrategy::Xy,
            movement,
            seed: 0,
        })
    }

    fn chain_qodg(n: u32) -> Qodg {
        let mut ft = FtCircuit::new(n);
        for i in 0..n - 1 {
            ft.push_cnot(q(i), q(i + 1)).unwrap();
        }
        Qodg::from_ft_circuit(&ft)
    }

    #[test]
    fn drift_completes_and_differs_from_home_based() {
        // A chain where q0 interacts repeatedly with distant qubits: drift
        // lets it settle near its next partner instead of commuting.
        let mut ft = FtCircuit::new(10);
        for i in 1..10 {
            ft.push_cnot(q(0), q(i)).unwrap();
        }
        let qodg = Qodg::from_ft_circuit(&ft);
        let home = mapper(MovementModel::HomeBased).map(&qodg).unwrap();
        let drift = mapper(MovementModel::Drift).map(&qodg).unwrap();
        assert!(home.latency.is_valid() && drift.latency.is_valid());
        // Drift saves the return commutes on this hub pattern.
        assert!(
            drift.stats.total_hops <= home.stats.total_hops,
            "drift hops {} vs home {}",
            drift.stats.total_hops,
            home.stats.total_hops
        );
    }

    #[test]
    fn drift_keeps_one_resident_per_ulb() {
        // Indirectly observable: the run completes and every CNOT routes;
        // an occupancy violation would panic the relocation search.
        let qodg = chain_qodg(30);
        let r = mapper(MovementModel::Drift).map(&qodg).unwrap();
        assert_eq!(r.stats.cnot_ops, 29);
    }

    #[test]
    fn drift_is_deterministic() {
        let qodg = chain_qodg(12);
        let a = mapper(MovementModel::Drift).map(&qodg).unwrap();
        let b = mapper(MovementModel::Drift).map(&qodg).unwrap();
        assert_eq!(a.latency, b.latency);
        assert_eq!(a.stats, b.stats);
    }

    #[test]
    fn drift_dominates_dependency_bound_too() {
        use leqa_fabric::OneQubitKind;
        let mut ft = FtCircuit::new(6);
        for i in 0..5 {
            ft.push_cnot(q(i), q(i + 1)).unwrap();
            ft.push_one_qubit(OneQubitKind::T, q(i)).unwrap();
        }
        let qodg = Qodg::from_ft_circuit(&ft);
        let params = PhysicalParams::dac13();
        let delays = *params.gate_delays();
        let shuttle = params.one_qubit_routing_latency();
        let bound = qodg.critical_path(|node| match node {
            QodgNode::Op(FtOp::Cnot { .. }) => delays.cnot(),
            QodgNode::Op(FtOp::OneQubit { kind, .. }) => delays.one_qubit(*kind) + shuttle,
            _ => Micros::ZERO,
        });
        let r = mapper(MovementModel::Drift).map(&qodg).unwrap();
        assert!(r.latency.as_f64() >= bound.length.as_f64() - 1e-6);
    }
}

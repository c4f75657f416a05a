//! Fabric-size exploration: Algorithm 1's stated use case ("this value
//! can be changed to find the optimal size for the fabric which results
//! in the minimum delay").
//!
//! # The sweep engine
//!
//! A sweep estimates one program on `N` candidate fabrics. Done naively
//! that costs `N` full runs of Algorithm 1; this module amortises all
//! program-dependent work instead:
//!
//! 1. **Profile reuse** — the IIG traversal, Eq. 7's zone average and
//!    Eq. 12's uncongested-delay terms are computed once per program
//!    ([`ProgramProfile`]) and shared by every candidate.
//! 2. **Compressed coverage** — per candidate, `E[S_q]` is evaluated over
//!    the run-length-compressed coverage histogram
//!    ([`crate::coverage::CoverageHistogram`], `O(terms · s²)` instead of
//!    `O(terms · A)`).
//! 3. **Census bisection** — the routing-aware critical path depends on the
//!    fabric only through the scalar `L_CNOT^avg`, and the optimal path is
//!    piecewise-constant in it. The engine sorts the candidates'
//!    `L_CNOT^avg` values and recursively bisects: when the two endpoints
//!    of an interval select the *same* path, every interior candidate
//!    provably shares it (the longest-path envelope is convex in
//!    `L_CNOT^avg`) and only the path's length is re-accumulated, in
//!    exactly the order the full `O(|V|+|E|)` pass would have used.
//!    Typical sweeps cross a handful of path regimes, so ~`log N` full
//!    passes replace `N`.
//!
//! Every estimate produced this way is bit-identical to an independent
//! [`Estimator::estimate`] call on the same candidate (asserted per
//! workload by `tests/differential.rs`).
//!
//! The per-candidate loop runs on the persistent worker pool
//! ([`crate::exec::parallel_map`]); candidate results do not depend on
//! how the candidates are spread over threads.

use leqa_circuit::{CriticalPath, CriticalPathScratch, Qodg, QodgNode};
use leqa_fabric::{FabricDims, Micros, PhysicalParams};

use crate::estimator::{assemble_estimate, routing_aware_critical_path, RoutingQuantities};
use crate::{Estimate, Estimator, EstimatorOptions, ProgramProfile};

/// Outcome of one fabric-size candidate.
///
/// `#[non_exhaustive]`: response-shaped — new per-candidate quantities may
/// be added without a breaking release.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct SweepPoint {
    /// The candidate fabric.
    pub dims: FabricDims,
    /// The estimate on that fabric, or `None` when the program does not
    /// fit (fewer ULBs than logical qubits).
    pub estimate: Option<Estimate>,
}

/// Estimates a program across candidate fabrics and returns all points.
///
/// Builds the [`ProgramProfile`] once and runs the amortised engine above,
/// so an `N`-candidate sweep pays the `O(ops)` program traversals once
/// instead of `N` times. Candidates too small for the program yield
/// `estimate: None` rather than an error, so sweeps can span wide ranges.
pub fn sweep_fabrics(
    qodg: &Qodg,
    params: &PhysicalParams,
    options: EstimatorOptions,
    candidates: impl IntoIterator<Item = FabricDims>,
) -> Vec<SweepPoint> {
    sweep_profile(&ProgramProfile::new(qodg), params, options, candidates)
}

/// Like [`sweep_fabrics`] with a caller-owned [`ProgramProfile`] — the
/// entry point for callers sweeping the same program repeatedly (e.g.
/// across parameter sets as well as fabric sizes).
pub fn sweep_profile(
    profile: &ProgramProfile<'_>,
    params: &PhysicalParams,
    options: EstimatorOptions,
    candidates: impl IntoIterator<Item = FabricDims>,
) -> Vec<SweepPoint> {
    run_sweep(profile, params, options, candidates.into_iter().collect())
}

/// Square-fabric convenience over [`sweep_profile`]: one point per side,
/// in input order — the reuse hook shared by the API's `sweep` endpoint
/// and the experiment engine's fabric axis, so both ride the same
/// census-bisection amortisation (and the same bit-identity contract).
///
/// # Errors
///
/// Returns the underlying [`FabricError`](leqa_fabric::FabricError) when a
/// side is not a valid fabric dimension (zero); sides merely too small for
/// the program still yield `estimate: None` points.
pub fn sweep_profile_squares(
    profile: &ProgramProfile<'_>,
    params: &PhysicalParams,
    options: EstimatorOptions,
    sides: impl IntoIterator<Item = u32>,
) -> Result<Vec<SweepPoint>, leqa_fabric::FabricError> {
    let candidates = sides
        .into_iter()
        .map(|side| FabricDims::new(side, side))
        .collect::<Result<Vec<_>, _>>()?;
    Ok(sweep_profile(profile, params, options, candidates))
}

/// Finds the latency-minimal square fabric among `sides`.
///
/// Returns `None` if no candidate fits the program.
///
/// # Examples
///
/// ```
/// use leqa::sweep::optimal_square_fabric;
/// use leqa::EstimatorOptions;
/// use leqa_circuit::{FtCircuit, Qodg, QubitId};
/// use leqa_fabric::PhysicalParams;
///
/// # fn main() -> Result<(), leqa_circuit::CircuitError> {
/// let mut ft = FtCircuit::new(3);
/// ft.push_cnot(QubitId(0), QubitId(1))?;
/// ft.push_cnot(QubitId(1), QubitId(2))?;
/// let qodg = Qodg::from_ft_circuit(&ft);
///
/// let best = optimal_square_fabric(
///     &qodg,
///     &PhysicalParams::dac13(),
///     EstimatorOptions::default(),
///     [2, 4, 8, 16],
/// );
/// assert!(best.is_some());
/// # Ok(())
/// # }
/// ```
pub fn optimal_square_fabric(
    qodg: &Qodg,
    params: &PhysicalParams,
    options: EstimatorOptions,
    sides: impl IntoIterator<Item = u32>,
) -> Option<(FabricDims, Estimate)> {
    let candidates = sides.into_iter().filter_map(|s| FabricDims::new(s, s).ok());
    sweep_fabrics(qodg, params, options, candidates)
        .into_iter()
        .filter_map(|p| p.estimate.map(|e| (p.dims, e)))
        .min_by(|a, b| a.1.latency.as_f64().total_cmp(&b.1.latency.as_f64()))
}

// ── Engine internals ─────────────────────────────────────────────────────

fn run_sweep(
    profile: &ProgramProfile<'_>,
    params: &PhysicalParams,
    options: EstimatorOptions,
    candidates: Vec<FabricDims>,
) -> Vec<SweepPoint> {
    // Phase 1: per-candidate congestion pricing (Algorithm 1 lines 1–18,
    // with lines 1–8 prepaid by the profile). Candidates are independent
    // and CPU-bound, so wide sweeps scale with cores.
    let quantities = crate::exec::parallel_map(&candidates, |&dims| {
        candidate_quantities(profile, params, options, dims)
    });

    // Phase 2: resolve the routing-aware critical path for every distinct
    // L_CNOT^avg by convex bisection. The critical-path and assembly
    // kernels are fabric-independent free functions, so no placeholder
    // fabric is involved.
    let xs: Vec<Micros> = quantities
        .iter()
        .flatten()
        .map(|q: &RoutingQuantities| q.l_cnot_avg)
        .collect();
    let censuses = CensusCache::resolve(params, &options, profile.qodg(), &xs);

    // Phase 3: assemble the estimates (Eq. 1) in candidate order.
    candidates
        .into_iter()
        .zip(quantities)
        .map(|(dims, quantities)| {
            let estimate = quantities.map(|q| {
                let critical = censuses
                    .materialize(q.l_cnot_avg)
                    .expect("phase 2 resolved every candidate's L_CNOT^avg");
                assemble_estimate(params, q, critical)
            });
            SweepPoint { dims, estimate }
        })
        .collect()
}

/// Phase 1 for one candidate; `None` when the program does not fit or the
/// options are invalid (mirrors the `.ok()` semantics sweeps always had).
fn candidate_quantities(
    profile: &ProgramProfile<'_>,
    params: &PhysicalParams,
    options: EstimatorOptions,
    dims: FabricDims,
) -> Option<RoutingQuantities> {
    Estimator::with_options(dims, params.clone(), options)
        .routing_quantities(profile)
        .ok()
}

/// Resolved critical paths per distinct `L_CNOT^avg` value: a handful of
/// *template* paths from full passes, plus a `(template, length)` pair per
/// value — template paths are shared until [`materialize`] clones one into
/// an [`Estimate`], so each candidate pays exactly one path copy.
///
/// [`materialize`]: CensusCache::materialize
struct CensusCache {
    /// Distinct `L_CNOT^avg` values, ascending.
    xs: Vec<f64>,
    /// `(index into templates, length at xs[i])`.
    resolved: Vec<Option<(usize, Micros)>>,
    /// Critical paths produced by full passes, one per path regime hit.
    templates: Vec<CriticalPath>,
}

impl CensusCache {
    /// Computes the routing-aware critical path for every value in `xs`.
    ///
    /// In exact arithmetic the longest-path length is a convex
    /// piecewise-linear function of `L_CNOT^avg` (each start→end path
    /// contributes the line `base + n_CNOT · x`), so if the full
    /// `O(|V|+|E|)` pass selects the same path at both endpoints of an
    /// interval, that path is optimal on the whole interval; interior
    /// values then only re-accumulate its length. Intervals whose
    /// endpoints disagree are bisected with a full pass in the middle.
    ///
    /// Floats bend the lines by ULPs, so an interior reuse is additionally
    /// guarded: if any *other* discovered path regime comes within a few
    /// ULPs of (or beats) the template's length at that value, the engine
    /// falls back to a full pass there instead of trusting the convexity
    /// argument across a near-degenerate tie. (`tests/differential.rs`
    /// pins the resulting bit-identity across the workload suite.)
    fn resolve(
        params: &PhysicalParams,
        options: &EstimatorOptions,
        qodg: &Qodg,
        xs: &[Micros],
    ) -> CensusCache {
        let mut unique: Vec<f64> = xs.iter().map(|x| x.as_f64()).collect();
        unique.sort_by(f64::total_cmp);
        unique.dedup();

        let mut cache = CensusCache {
            resolved: vec![None; unique.len()],
            xs: unique,
            templates: Vec::new(),
        };
        if cache.xs.is_empty() {
            return cache;
        }

        let mut scratch = CriticalPathScratch::new();
        if !options.update_critical_path {
            // Ablation mode: node delays ignore routing, so the pass is
            // independent of L_CNOT^avg — one pass serves every candidate.
            let cp = routing_aware_critical_path(params, options, qodg, Micros::ZERO, &mut scratch);
            let length = cp.length;
            cache.templates.push(cp);
            cache.resolved.fill(Some((0, length)));
            return cache;
        }

        let last = cache.xs.len() - 1;
        cache.full_pass(params, options, qodg, 0, &mut scratch);
        if last > 0 {
            cache.full_pass(params, options, qodg, last, &mut scratch);
        }
        cache.solve(params, options, qodg, 0, last, &mut scratch);
        cache
    }

    /// Runs the full critical-path pass at `xs[i]`, registering its path
    /// as a template (deduplicated against the previous passes' paths).
    fn full_pass(
        &mut self,
        params: &PhysicalParams,
        options: &EstimatorOptions,
        qodg: &Qodg,
        i: usize,
        scratch: &mut CriticalPathScratch,
    ) {
        let x = Micros::new(self.xs[i]);
        let cp = routing_aware_critical_path(params, options, qodg, x, scratch);
        let length = cp.length;
        let template = match self.templates.iter().position(|t| t.path == cp.path) {
            Some(t) => t,
            None => {
                self.templates.push(cp);
                self.templates.len() - 1
            }
        };
        self.resolved[i] = Some((template, length));
    }

    /// Fills `resolved[lo..=hi]` given that both endpoints already are.
    fn solve(
        &mut self,
        params: &PhysicalParams,
        options: &EstimatorOptions,
        qodg: &Qodg,
        lo: usize,
        hi: usize,
        scratch: &mut CriticalPathScratch,
    ) {
        if hi <= lo + 1 {
            return;
        }
        let (tpl_lo, _) = self.resolved[lo].expect("endpoint resolved");
        let (tpl_hi, _) = self.resolved[hi].expect("endpoint resolved");
        if tpl_lo == tpl_hi {
            // One path rules the whole interval: re-accumulate its length
            // at each interior value in DP order. Guard each reuse against
            // the other discovered regimes (see `resolve`): a rival within
            // a few ULPs means the full pass's winner is
            // rounding-determined there, so run the full pass.
            for mid in lo + 1..hi {
                let x = Micros::new(self.xs[mid]);
                let length = accumulate_along(params, qodg, &self.templates[tpl_lo], x);
                if self.rival_near(params, qodg, tpl_lo, length, x) {
                    self.full_pass(params, options, qodg, mid, scratch);
                } else {
                    self.resolved[mid] = Some((tpl_lo, length));
                }
            }
        } else {
            let mid = lo + (hi - lo) / 2;
            self.full_pass(params, options, qodg, mid, scratch);
            self.solve(params, options, qodg, lo, mid, scratch);
            self.solve(params, options, qodg, mid, hi, scratch);
        }
    }

    /// Whether any template other than `chosen` reaches (or ULP-grazes)
    /// `length` at `x`. Cheap in the common case: sweeps usually discover
    /// a single path regime, and the loop skips `chosen` itself.
    fn rival_near(
        &self,
        params: &PhysicalParams,
        qodg: &Qodg,
        chosen: usize,
        length: Micros,
        x: Micros,
    ) -> bool {
        const REL_MARGIN: f64 = 1e-12;
        self.templates.iter().enumerate().any(|(t, template)| {
            if t == chosen {
                return false;
            }
            let rival = accumulate_along(params, qodg, template, x).as_f64();
            rival >= length.as_f64() * (1.0 - REL_MARGIN)
        })
    }

    /// Builds the owned [`CriticalPath`] for a phase-1 `L_CNOT^avg` value
    /// (one path copy — the only one a candidate pays).
    fn materialize(&self, x: Micros) -> Option<CriticalPath> {
        let i = self
            .xs
            .binary_search_by(|probe| probe.total_cmp(&x.as_f64()))
            .ok()?;
        let (template, length) = self.resolved[i]?;
        let template = &self.templates[template];
        Some(CriticalPath {
            length,
            cnot_count: template.cnot_count,
            one_qubit_counts: template.one_qubit_counts,
            path: template.path.clone(),
        })
    }
}

/// Re-accumulates a known path's length at a new `L_CNOT^avg`: node delays
/// added in first-to-last order — exactly the float additions the full
/// pass performs along its argmax chain, so the length is bit-identical to
/// what the pass would return for this path.
fn accumulate_along(
    params: &PhysicalParams,
    qodg: &Qodg,
    template: &CriticalPath,
    l_cnot_avg: Micros,
) -> Micros {
    let l_one_qubit_avg = params.one_qubit_routing_latency();
    let delays = *params.gate_delays();

    let mut length = Micros::ZERO;
    for &id in &template.path {
        if let QodgNode::Op(op) = qodg.node(id) {
            let own = match op {
                leqa_circuit::FtOp::Cnot { .. } => delays.cnot() + l_cnot_avg,
                leqa_circuit::FtOp::OneQubit { kind, .. } => {
                    delays.one_qubit(kind) + l_one_qubit_avg
                }
            };
            length += own;
        }
    }
    length
}

#[cfg(test)]
mod tests {
    use super::*;
    use leqa_circuit::{FtCircuit, QubitId};

    fn q(i: u32) -> QubitId {
        QubitId(i)
    }

    fn dense_qodg() -> Qodg {
        let mut ft = FtCircuit::new(20);
        for i in 0..20u32 {
            for j in (i + 1)..20 {
                ft.push_cnot(q(i), q(j)).unwrap();
            }
        }
        Qodg::from_ft_circuit(&ft)
    }

    #[test]
    fn sweep_marks_undersized_fabrics() {
        let qodg = dense_qodg(); // 20 qubits
        let points = sweep_fabrics(
            &qodg,
            &PhysicalParams::dac13(),
            EstimatorOptions::default(),
            [
                FabricDims::new(4, 4).unwrap(),
                FabricDims::new(10, 10).unwrap(),
            ],
        );
        assert!(points[0].estimate.is_none()); // 16 < 20
        assert!(points[1].estimate.is_some());
    }

    #[test]
    fn optimum_is_the_sweep_minimum() {
        let qodg = dense_qodg();
        let params = PhysicalParams::dac13();
        let opts = EstimatorOptions::default();
        let sides = [5u32, 8, 15, 30, 60];
        let (best_dims, best) =
            optimal_square_fabric(&qodg, &params, opts, sides).expect("some fit");
        for p in sweep_fabrics(
            &qodg,
            &params,
            opts,
            sides.iter().filter_map(|&s| FabricDims::new(s, s).ok()),
        ) {
            if let Some(e) = p.estimate {
                assert!(best.latency.as_f64() <= e.latency.as_f64() + 1e-9);
            }
        }
        assert!(best_dims.area() >= 25);
    }

    #[test]
    fn squares_hook_matches_explicit_candidates() {
        let qodg = dense_qodg();
        let params = PhysicalParams::dac13();
        let opts = EstimatorOptions::default();
        let profile = ProgramProfile::new(&qodg);
        let from_sides = sweep_profile_squares(&profile, &params, opts, [4u32, 10, 20]).unwrap();
        let explicit = sweep_profile(
            &profile,
            &params,
            opts,
            [4u32, 10, 20].map(|s| FabricDims::new(s, s).unwrap()),
        );
        assert_eq!(from_sides.len(), explicit.len());
        for (a, b) in from_sides.iter().zip(&explicit) {
            assert_eq!(a.dims, b.dims);
            match (&a.estimate, &b.estimate) {
                (Some(x), Some(y)) => assert_eq!(x.latency, y.latency),
                (None, None) => {}
                other => panic!("mismatch: {other:?}"),
            }
        }
        assert!(sweep_profile_squares(&profile, &params, opts, [0u32]).is_err());
    }

    #[test]
    fn no_fit_returns_none() {
        let qodg = dense_qodg();
        assert!(optimal_square_fabric(
            &qodg,
            &PhysicalParams::dac13(),
            EstimatorOptions::default(),
            [2u32, 3, 4],
        )
        .is_none());
    }

    #[test]
    fn sweep_is_bit_identical_to_independent_estimates() {
        // The engine's contract: profile reuse, compressed coverage and
        // census bisection change the cost, never the bits.
        let qodg = dense_qodg();
        let params = PhysicalParams::dac13();
        let opts = EstimatorOptions::default();
        let candidates: Vec<FabricDims> = (5..=60)
            .step_by(5)
            .map(|s| FabricDims::new(s, s).unwrap())
            .collect();
        let points = sweep_fabrics(&qodg, &params, opts, candidates.clone());
        for (point, dims) in points.iter().zip(&candidates) {
            let direct = Estimator::with_options(*dims, params.clone(), opts)
                .estimate(&qodg)
                .ok();
            match (&point.estimate, &direct) {
                (Some(sweep), Some(direct)) => {
                    assert_eq!(sweep.latency, direct.latency, "{dims:?}");
                    assert_eq!(sweep.l_cnot_avg, direct.l_cnot_avg, "{dims:?}");
                    assert_eq!(sweep.critical, direct.critical, "{dims:?}");
                    assert_eq!(sweep.esq, direct.esq, "{dims:?}");
                }
                (None, None) => {}
                other => panic!("{dims:?}: fit mismatch {other:?}"),
            }
        }
    }

    #[test]
    fn sweep_without_critical_path_update_matches_too() {
        let qodg = dense_qodg();
        let params = PhysicalParams::dac13();
        let opts = EstimatorOptions {
            update_critical_path: false,
            ..Default::default()
        };
        for point in sweep_fabrics(
            &qodg,
            &params,
            opts,
            [
                FabricDims::new(5, 5).unwrap(),
                FabricDims::new(40, 40).unwrap(),
            ],
        ) {
            let direct = Estimator::with_options(point.dims, params.clone(), opts)
                .estimate(&qodg)
                .unwrap();
            let sweep = point.estimate.expect("fits");
            assert_eq!(sweep.latency, direct.latency);
            assert_eq!(sweep.critical, direct.critical);
        }
    }
}

#[cfg(test)]
mod parallel_tests {
    use super::*;
    use leqa_circuit::{FtCircuit, QubitId};

    /// The pooled sweep against its real reference: an independent
    /// [`Estimator::estimate`] at every candidate size.
    #[test]
    fn parallel_sweep_matches_serial() {
        let mut ft = FtCircuit::new(12);
        for i in 0..11u32 {
            ft.push_cnot(QubitId(i), QubitId(i + 1)).unwrap();
        }
        let qodg = Qodg::from_ft_circuit(&ft);
        let params = PhysicalParams::dac13();
        let opts = EstimatorOptions::default();
        let candidates: Vec<FabricDims> = [3u32, 4, 6, 10, 20, 40]
            .iter()
            .map(|&s| FabricDims::new(s, s).unwrap())
            .collect();

        let points = sweep_fabrics(&qodg, &params, opts, candidates.clone());
        assert_eq!(points.len(), candidates.len());
        for (point, dims) in points.iter().zip(candidates) {
            assert_eq!(point.dims, dims);
            let direct = Estimator::with_options(dims, params.clone(), opts)
                .estimate(&qodg)
                .ok();
            match (&point.estimate, &direct) {
                (Some(a), Some(b)) => {
                    assert_eq!(a.latency, b.latency);
                    assert_eq!(a.critical, b.critical);
                }
                (None, None) => {}
                other => panic!("mismatch at {dims:?}: {other:?}"),
            }
        }
    }
}

//! The seeded request lists of the three workloads.
//!
//! Every timed request is a pure function of `(workload, seed, index)`,
//! so the load generator and the traced replay see the same list and the
//! daemon sees only the generated request lines. Lists are built in
//! rounds: each round is a seeded permutation of a fixed template, so
//! every run carries the same mix whatever the seed and however many
//! requests fit in the window.

use std::fmt::Write as _;
use std::sync::Arc;

use leqa_api::{CompareRequest, EstimateRequest, ProgramSpec, Request};
use leqa_fabric::SplitMix64;

/// A traffic mix the benchmark can drive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Every request names a program its daemon has never seen.
    EstimateCold,
    /// A warmed working set of eight programs, requested repeatedly.
    EstimateWarm,
    /// `compare` requests over the mid-size Table 2 programs.
    CompareMap,
}

/// Slots per round of `estimate_cold`: 12 named random circuits of 5k to
/// 60k gates, 4 `qft_N_K`, 6 inline sources (a quarter) of 5k to 60k
/// gates, one Shor skeleton just below the 1M-op streaming threshold and
/// one just above it.
const COLD_ROUND: usize = 24;
const COLD_QFT: std::ops::Range<usize> = 12..16;
const COLD_INLINE: std::ops::Range<usize> = 16..22;
const COLD_SHOR_MATERIALIZED: usize = 22;
const COLD_SHOR_STREAMED: usize = 23;

/// The Shor slots draw `shor_N_R` with `N` in 24..=40 and `R` chosen so
/// the lowered op count lies in a narrow band just below (materialized)
/// or just above (streamed) the 1M-op streaming threshold: the tail keeps
/// its size while the ~150 pairs per band keep every pair a daemon sees
/// new.
const SHOR_WIDTHS: std::ops::RangeInclusive<u32> = 24..=40;
const SHOR_MATERIALIZED_OPS: std::ops::Range<u64> = 940_000..990_000;
const SHOR_STREAMED_OPS: std::ops::Range<u64> = 1_010_000..1_060_000;
/// Fabric override that fits every Shor skeleton drawn (under 15,000
/// qubits).
const SHOR_FABRIC: u32 = 140;

/// The Table 2 programs `compare_map` cycles through (`gf2^256mult`
/// is left out: one request would take most of a second).
const COMPARE_SUITE: [&str; 13] = [
    "8bitadder",
    "ham15",
    "hwb50ps",
    "gf2^16mult",
    "gf2^18mult",
    "gf2^19mult",
    "gf2^20mult",
    "gf2^50mult",
    "gf2^64mult",
    "gf2^100mult",
    "gf2^128mult",
    "qft_64",
    "qft_128",
];
/// Seeded `random_24_2000_S` programs added to the compare set.
const COMPARE_RANDOM: usize = 2;

/// Programs the estimate workloads send as `compare` requests after the
/// timed window, for the accuracy metrics (plus one seeded
/// `random_24_2000_S`).
const ACCURACY_PROBE: [&str; 3] = ["8bitadder", "ham15", "qft_64"];

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::EstimateCold,
        Workload::EstimateWarm,
        Workload::CompareMap,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::EstimateCold => "estimate_cold",
            Workload::EstimateWarm => "estimate_warm",
            Workload::CompareMap => "compare_map",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// How many daemons share a run's timed window, one after another:
    /// one per two seconds, so set-up is sampled several times per run.
    /// `estimate_cold` grows the never-evicting session cache by about
    /// half a gigabyte per second of work, so it switches to a fresh
    /// daemon every half second.
    pub fn segments(self, seconds: u64) -> usize {
        let per_two_seconds = match self {
            Workload::EstimateCold => 4,
            Workload::EstimateWarm | Workload::CompareMap => 1,
        };
        usize::try_from(seconds * per_two_seconds / 2)
            .expect("window fits in usize")
            .max(1)
    }
}

/// A workload's request list under one seed.
#[derive(Debug, Clone)]
pub struct Plan {
    pub workload: Workload,
    pub seed: u64,
    /// The working set (`estimate_warm`, `compare_map`), one line each.
    set: Vec<Arc<str>>,
    /// One round of the working-set workloads, as indices into `set`.
    round: Vec<usize>,
    /// `(N, R)` of the Shor skeletons below and above the streaming
    /// threshold (`estimate_cold`).
    shor: [Vec<(u32, u32)>; 2],
}

impl Plan {
    pub fn new(workload: Workload, seed: u64) -> Plan {
        let (set, round, shor) = match workload {
            Workload::EstimateCold => (
                Vec::new(),
                Vec::new(),
                [
                    shor_pairs(SHOR_MATERIALIZED_OPS),
                    shor_pairs(SHOR_STREAMED_OPS),
                ],
            ),
            // `random_24_40000_S` comes twice per round, so the median
            // request falls inside one program's latency mode instead of
            // on the boundary between the 4th and 5th of eight.
            Workload::EstimateWarm => (
                warm_set(seed),
                vec![0, 1, 2, 2, 3, 4, 5, 6, 7],
                Default::default(),
            ),
            Workload::CompareMap => {
                let set = compare_set(seed);
                let round = (0..set.len()).collect();
                (set, round, Default::default())
            }
        };
        Plan {
            workload,
            seed,
            set,
            round,
            shor,
        }
    }

    /// Lines a fresh daemon answers before the timed window: the whole
    /// working set, or for `estimate_cold` a few small programs that no
    /// timed request names.
    pub fn warmup(&self) -> Vec<String> {
        match self.workload {
            Workload::EstimateCold => {
                let mut rng = SplitMix64::new(SplitMix64::mix(self.seed, 0xC01D));
                vec![
                    estimate_line(ProgramSpec::bench("qft_32"), None),
                    estimate_line(
                        ProgramSpec::bench(format!("random_12_20000_{}", rng.next_u64() >> 1)),
                        None,
                    ),
                    estimate_line(
                        ProgramSpec::source(inline_source("warmup", 12, 10_000, &mut rng)),
                        None,
                    ),
                ]
            }
            Workload::EstimateWarm | Workload::CompareMap => {
                self.set.iter().map(|l| l.to_string()).collect()
            }
        }
    }

    /// Accuracy-probe lines sent after the timed window (empty on
    /// `compare_map`, whose timed replies carry the accuracy).
    pub fn probe(&self) -> Vec<String> {
        match self.workload {
            Workload::CompareMap => Vec::new(),
            _ => {
                let mut rng = SplitMix64::new(SplitMix64::mix(self.seed, 0xACC));
                let random = format!("random_24_2000_{}", rng.next_u64() >> 1);
                ACCURACY_PROBE
                    .iter()
                    .map(|name| name.to_string())
                    .chain([random])
                    .map(|name| compare_line(ProgramSpec::bench(name)))
                    .collect()
            }
        }
    }

    /// The `index`-th timed request line.
    pub fn line(&self, index: u64) -> Arc<str> {
        match self.workload {
            Workload::EstimateCold => self.cold_line(index).into(),
            Workload::EstimateWarm | Workload::CompareMap => {
                let slot = round_slot(self.seed, index, self.round.len() as u64);
                Arc::clone(&self.set[self.round[slot]])
            }
        }
    }

    fn cold_line(&self, index: u64) -> String {
        let round = index / COLD_ROUND as u64;
        let slot = round_slot(self.seed, index, COLD_ROUND as u64);
        let mut rng = SplitMix64::new(SplitMix64::mix(self.seed, index));
        // Names below are unique among any run of consecutive requests a
        // single daemon can serve, so no timed request hits its cache.
        let spec = match slot {
            s if COLD_QFT.contains(&s) => {
                let k = (s - COLD_QFT.start) as u64;
                let j = round * COLD_QFT.len() as u64 + k;
                ProgramSpec::bench(format!("qft_{}_{}", 48 + j % 200, 4 + 2 * k))
            }
            s if COLD_INLINE.contains(&s) => {
                let k = (s - COLD_INLINE.start) as u64;
                let (qubits, gates) = (8 + 4 * k as u32, 5_000 + 11_000 * k);
                let name = format!("inline{}_{index}", self.seed);
                ProgramSpec::source(inline_source(&name, qubits, gates, &mut rng))
            }
            COLD_SHOR_MATERIALIZED | COLD_SHOR_STREAMED => {
                let pairs = &self.shor[usize::from(slot == COLD_SHOR_STREAMED)];
                let pick = round.wrapping_add(self.seed) % pairs.len() as u64;
                let (n, rounds) = pairs[usize::try_from(pick).expect("small index")];
                return estimate_line(
                    ProgramSpec::bench(format!("shor_{n}_{rounds}")),
                    Some(SHOR_FABRIC),
                );
            }
            k => {
                // A ladder of sizes per round: the seed picks the order
                // and the gates, never the round's total work.
                let (qubits, gates) = (8 + 2 * k as u32, 5_000 + 5_000 * k as u64);
                // The seed part keeps names distinct across runs and
                // requests; the shift keeps it in `u64` decimal range.
                let unique = SplitMix64::mix(self.seed, index) >> 1;
                ProgramSpec::bench(format!("random_{qubits}_{gates}_{unique}"))
            }
        };
        estimate_line(spec, None)
    }
}

/// Every `(N, R)` with `N` in [`SHOR_WIDTHS`] whose Shor skeleton lowers
/// to a number of ops within `ops`.
fn shor_pairs(ops: std::ops::Range<u64>) -> Vec<(u32, u32)> {
    SHOR_WIDTHS
        .flat_map(|n| (1..=1_000).map(move |r| (n, r)))
        .filter(|&(n, r)| {
            leqa_workloads::shor::shor_lowered_op_count(n, r).is_some_and(|c| ops.contains(&c))
        })
        .collect()
}

/// Slot of the template that request `index` takes: rounds of `len`
/// requests, each a seeded permutation of the template.
fn round_slot(seed: u64, index: u64, len: u64) -> usize {
    let round = index / len;
    let mut order: Vec<usize> = (0..len as usize).collect();
    let mut rng = SplitMix64::new(SplitMix64::mix(seed ^ 0x5107, round));
    for i in (1..order.len()).rev() {
        let j = (rng.next_u64() % (i as u64 + 1)) as usize;
        order.swap(i, j);
    }
    order[(index % len) as usize]
}

fn warm_set(seed: u64) -> Vec<Arc<str>> {
    let mut rng = SplitMix64::new(SplitMix64::mix(seed, 0x3A2B));
    let mut unique = || rng.next_u64() >> 1;
    let mut set = vec![
        estimate_line(ProgramSpec::bench("qft_64"), None),
        estimate_line(
            ProgramSpec::bench(format!("random_16_20000_{}", unique())),
            None,
        ),
        estimate_line(
            ProgramSpec::bench(format!("random_24_40000_{}", unique())),
            None,
        ),
        estimate_line(
            ProgramSpec::bench(format!("random_16_60000_{}", unique())),
            None,
        ),
    ];
    let mut rng = SplitMix64::new(SplitMix64::mix(seed, 0x1A1E));
    for (k, (qubits, gates)) in [(12, 5_000), (16, 15_000), (24, 30_000), (16, 60_000)]
        .into_iter()
        .enumerate()
    {
        let text = inline_source(&format!("warm{seed}_{k}"), qubits, gates, &mut rng);
        set.push(estimate_line(ProgramSpec::source(text), None));
    }
    set.into_iter().map(Arc::from).collect()
}

fn compare_set(seed: u64) -> Vec<Arc<str>> {
    let mut rng = SplitMix64::new(SplitMix64::mix(seed, 0xC0E9));
    let mut set: Vec<String> = COMPARE_SUITE
        .iter()
        .map(|name| compare_line(ProgramSpec::bench(*name)))
        .collect();
    for _ in 0..COMPARE_RANDOM {
        let name = format!("random_24_2000_{}", rng.next_u64() >> 1);
        set.push(compare_line(ProgramSpec::bench(name)));
    }
    set.into_iter().map(Arc::from).collect()
}

fn estimate_line(program: ProgramSpec, fabric_side: Option<u32>) -> String {
    let mut req = EstimateRequest::new(program);
    if let Some(side) = fabric_side {
        req = req.with_fabric(side, side);
    }
    Request::Estimate(req).to_json().encode()
}

fn compare_line(program: ProgramSpec) -> String {
    Request::Compare(CompareRequest::new(program))
        .to_json()
        .encode()
}

/// A random reversible circuit in the shared text format, written by the
/// benchmark itself: a quarter Toffolis, a third CNOTs, the rest
/// one-qubit gates, operands uniform over distinct wires.
pub fn inline_source(name: &str, qubits: u32, gates: u64, rng: &mut SplitMix64) -> String {
    const ONE_QUBIT: [&str; 5] = ["h", "t", "tdg", "s", "x"];
    let q = u64::from(qubits);
    let mut text = String::with_capacity(usize::try_from(gates).expect("small") * 12 + 64);
    let _ = writeln!(text, ".name {name}\n.qubits {qubits}");
    for _ in 0..gates {
        let roll = rng.next_u64() % 12;
        let a = rng.next_u64() % q;
        let mut b = rng.next_u64() % (q - 1);
        if b >= a {
            b += 1;
        }
        let _ = match roll {
            0..=2 => {
                let mut t = rng.next_u64() % q;
                while t == a || t == b {
                    t = (t + 1) % q;
                }
                writeln!(text, "toffoli {a} {b} {t}")
            }
            3..=6 => writeln!(text, "cnot {a} {b}"),
            _ => writeln!(text, "{} {a}", ONE_QUBIT[(roll - 7) as usize]),
        };
    }
    text
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn lists_repeat_for_a_seed_and_differ_across_seeds() {
        for w in Workload::ALL {
            let a = Plan::new(w, 7);
            let b = Plan::new(w, 7);
            let c = Plan::new(w, 8);
            let la: Vec<Arc<str>> = (0..48).map(|i| a.line(i)).collect();
            let lb: Vec<Arc<str>> = (0..48).map(|i| b.line(i)).collect();
            let lc: Vec<Arc<str>> = (0..48).map(|i| c.line(i)).collect();
            assert_eq!(la, lb, "{}", w.name());
            assert_ne!(la, lc, "{}", w.name());
        }
    }

    #[test]
    fn cold_requests_are_distinct_and_keep_the_mix() {
        let plan = Plan::new(Workload::EstimateCold, 3);
        let lines: Vec<String> = (0..480).map(|i| plan.line(i).to_string()).collect();
        let distinct: HashSet<&String> = lines.iter().collect();
        assert_eq!(distinct.len(), lines.len());
        let inline = lines.iter().filter(|l| l.contains("\"source\"")).count();
        let shor = lines.iter().filter(|l| l.contains("shor_")).count();
        assert_eq!(inline, 480 / 4);
        assert_eq!(shor, 480 / 12);
        for l in &plan.warmup() {
            assert!(!distinct.contains(l));
        }
    }

    #[test]
    fn working_sets_cycle_in_rounds() {
        let plan = Plan::new(Workload::CompareMap, 11);
        let set: HashSet<String> = plan.warmup().into_iter().collect();
        assert_eq!(set.len(), COMPARE_SUITE.len() + COMPARE_RANDOM);
        let round: HashSet<String> = (0..set.len() as u64)
            .map(|i| plan.line(i).to_string())
            .collect();
        assert_eq!(round, set);
        let warm = Plan::new(Workload::EstimateWarm, 11);
        assert_eq!(warm.warmup().len(), 8);
        let round: Vec<String> = (0..9).map(|i| warm.line(i).to_string()).collect();
        let distinct: HashSet<&String> = round.iter().collect();
        assert_eq!(distinct.len(), 8);
        assert_eq!(
            round
                .iter()
                .filter(|l| l.contains("random_24_40000"))
                .count(),
            2
        );
    }

    #[test]
    fn shor_slots_straddle_the_streaming_threshold() {
        let plan = Plan::new(Workload::EstimateCold, 5);
        let [below, above] = &plan.shor;
        assert!(below.len() >= 100 && above.len() >= 100);
        let threshold = leqa_api::DEFAULT_STREAMING_THRESHOLD;
        for (pairs, streamed) in [(below, false), (above, true)] {
            for &(n, r) in pairs {
                let ops = leqa_workloads::shor::shor_lowered_op_count(n, r).expect("in range");
                assert_eq!(ops >= threshold, streamed);
                let qubits = leqa_workloads::shor::shor_lowered_qubits(n, r).expect("in range");
                assert!(qubits <= SHOR_FABRIC * SHOR_FABRIC);
            }
        }
    }

    #[test]
    fn inline_sources_parse() {
        let mut rng = SplitMix64::new(1);
        let text = inline_source("t", 9, 500, &mut rng);
        let c = leqa_circuit::parser::parse(&text).expect("valid circuit text");
        assert_eq!(c.gates().len(), 500);
        assert_eq!(c.name(), Some("t"));
    }
}

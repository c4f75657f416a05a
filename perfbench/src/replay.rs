//! The traced run: the same request lines replayed in-process, composed
//! from each layer's public functions the way the daemon composes them,
//! with a span around every call. Each composed result is checked field
//! by field, bit for bit, against the daemon's reply, and the reply bytes
//! against the canonical encoding of those fields.

use std::collections::HashMap;
use std::collections::HashSet;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

use leqa::{Estimate, Estimator, EstimatorOptions, FnSource, ProfileData, ProgramProfile};
use leqa_api::{
    json, CompareResponse, EstimateResponse, FabricSpec, ProgramSpec, Request, Response, Server,
    Session,
};
use leqa_circuit::{decompose::lower_to_ft, parser, Qodg};
use leqa_fabric::{FabricDims, PhysicalParams};
use qspr::{initial_placement, Mapper, PlacementStrategy};

use crate::load::Sample;
use crate::spans::Recorder;
use crate::workload::Plan;

/// The daemon's configuration, read from a default [`Session`] so the
/// replay composes with exactly the values `leqa serve` runs with.
#[derive(Debug, Clone)]
pub struct Config {
    fabric: FabricDims,
    params: PhysicalParams,
    options: EstimatorOptions,
    streaming_threshold: u64,
}

impl Config {
    pub fn daemon_defaults() -> Result<Config, String> {
        let session = Session::builder().build().map_err(|e| e.to_string())?;
        Ok(Config {
            fabric: session.fabric(),
            params: session.params().clone(),
            options: *session.options(),
            streaming_threshold: session.streaming_threshold(),
        })
    }

    fn dims(&self, spec: Option<FabricSpec>) -> Result<FabricDims, String> {
        match spec {
            None => Ok(self.fabric),
            Some(f) => FabricDims::new(f.width, f.height).map_err(|e| e.to_string()),
        }
    }

    fn estimator(&self, dims: FabricDims) -> Estimator {
        Estimator::with_options(dims, self.params.clone(), self.options)
    }
}

/// A program resident in the replay's cache, as the session keeps it:
/// canonical text, QODG and a profile built on first use.
struct Resident {
    source: String,
    qodg: Qodg,
    profile: OnceLock<ProfileData>,
}

/// The replay's program cache for one segment (one daemon lifetime):
/// keyed like the session's, by FNV-1a of the canonical text, verified
/// against the text on hit.
#[derive(Default)]
struct Mirror {
    programs: Mutex<HashMap<u64, Arc<Resident>>>,
    streams: Mutex<HashSet<String>>,
}

impl Mirror {
    fn lookup(&self, key: u64, source: &str) -> Option<Arc<Resident>> {
        let programs = self.programs.lock().expect("no replay thread panicked");
        programs
            .get(&key)
            .filter(|r| r.source == source)
            .map(Arc::clone)
    }

    /// Inserts unless an equal program won a race; returns the resident
    /// entry and whether this call inserted it.
    fn insert(&self, key: u64, candidate: Resident) -> (Arc<Resident>, bool) {
        let mut programs = self.programs.lock().expect("no replay thread panicked");
        match programs.get(&key) {
            Some(r) if r.source == candidate.source => (Arc::clone(r), false),
            _ => {
                let r = Arc::new(candidate);
                programs.insert(key, Arc::clone(&r));
                (r, true)
            }
        }
    }
}

/// FNV-1a, the session's content key.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

/// What the composed layers produced for one request.
enum Composed {
    Estimate {
        label: String,
        qubits: u64,
        ops: u64,
        dims: FabricDims,
        estimate: Estimate,
        cached: bool,
        streamed: bool,
    },
    Compare {
        label: String,
        qubits: u64,
        ops: u64,
        dims: FabricDims,
        actual_us: f64,
        estimate: Estimate,
    },
}

/// Loads a program the way `Session::load` does: resolve (generate or
/// parse), canonical write, content key, cache lookup, and on a miss
/// lower and build the QODG.
fn load(
    rec: &mut Recorder,
    mirror: &Mirror,
    spec: &ProgramSpec,
) -> Result<(String, Arc<Resident>, bool), String> {
    rec.span("api.session.load", |rec| {
        let (label, circuit) = match spec {
            ProgramSpec::Bench { name } => {
                let circuit = rec
                    .span("workloads.generate", |_| {
                        leqa_workloads::circuit_by_name(name)
                    })
                    .ok_or_else(|| format!("unknown workload `{name}`"))?;
                (name.clone(), circuit)
            }
            ProgramSpec::Source { text } => {
                let circuit = rec
                    .span("circuit.parser.parse", |_| parser::parse(text))
                    .map_err(|e| e.to_string())?;
                let label = circuit.name().unwrap_or("<inline>").to_string();
                (label, circuit)
            }
            other => return Err(format!("program spec {other:?} is not generated")),
        };
        let source = rec.span("circuit.parser.write", |_| parser::write(&circuit));
        rec.count("circuit.parser.bytes", source.len() as f64);
        let key = fnv1a(source.as_bytes());
        if let Some(resident) = mirror.lookup(key, &source) {
            return Ok((label, resident, true));
        }
        let ft = rec
            .span("circuit.decompose.lower", |_| lower_to_ft(&circuit))
            .map_err(|e| e.to_string())?;
        rec.count("circuit.decompose.ft_ops", ft.ops().len() as f64);
        let qodg = rec.span("circuit.qodg.build", |_| Qodg::from_ft_circuit(&ft));
        rec.count("circuit.qodg.nodes", qodg.node_count() as f64);
        let (resident, fresh) = mirror.insert(
            key,
            Resident {
                source,
                qodg,
                profile: OnceLock::new(),
            },
        );
        Ok((label, resident, !fresh))
    })
}

fn profile<'a>(rec: &mut Recorder, resident: &'a Resident) -> &'a ProfileData {
    resident.profile.get_or_init(|| {
        let data = rec.span("core.profile.build", |_| ProfileData::new(&resident.qodg));
        rec.count("core.profile.iig_edges", data.iig().edge_count() as f64);
        data
    })
}

fn estimate_with_profile(
    rec: &mut Recorder,
    config: &Config,
    dims: FabricDims,
    resident: &Resident,
) -> Result<Estimate, String> {
    let data = profile(rec, resident);
    rec.span("core.estimator.estimate", |_| {
        config
            .estimator(dims)
            .estimate_with_profile(&ProgramProfile::from_data(&resident.qodg, data))
    })
    .map_err(|e| e.to_string())
}

fn compose(
    rec: &mut Recorder,
    config: &Config,
    mirror: &Mirror,
    request: &Request,
) -> Result<Composed, String> {
    match request {
        Request::Estimate(req) => {
            let dims = config.dims(req.fabric)?;
            if let ProgramSpec::Bench { name } = &req.program {
                let stream = leqa_workloads::stream_by_name(name)
                    .filter(|s| s.ft_op_count() >= config.streaming_threshold);
                if let Some(stream) = stream {
                    // The session streams these from a per-name entry; on
                    // a repeat it reuses the profile, which changes the
                    // cost but not a bit of the result.
                    let cached = !mirror
                        .streams
                        .lock()
                        .expect("no replay thread panicked")
                        .insert(stream.name());
                    let source = FnSource::new(stream.num_qubits(), || stream.ops());
                    let estimate = rec
                        .span("core.stream.estimate", |_| {
                            config.estimator(dims).estimate_stream(&source)
                        })
                        .map_err(|e| e.to_string())?;
                    rec.count("core.stream.ops", stream.ft_op_count() as f64);
                    return Ok(Composed::Estimate {
                        label: name.clone(),
                        qubits: u64::from(stream.num_qubits()),
                        ops: stream.ft_op_count(),
                        dims,
                        estimate,
                        cached,
                        streamed: true,
                    });
                }
            }
            let (label, resident, cached) = load(rec, mirror, &req.program)?;
            let estimate = estimate_with_profile(rec, config, dims, &resident)?;
            Ok(Composed::Estimate {
                label,
                qubits: u64::from(resident.qodg.num_qubits()),
                ops: resident.qodg.op_count() as u64,
                dims,
                estimate,
                cached,
                streamed: false,
            })
        }
        Request::Compare(req) => {
            let dims = config.dims(req.fabric)?;
            let (label, resident, _) = load(rec, mirror, &req.program)?;
            let data = profile(rec, &resident);
            rec.span("qspr.placement.place", |_| {
                initial_placement(data.iig(), dims, PlacementStrategy::default(), 0, None)
            })
            .map_err(|e| e.to_string())?;
            let (mapping, trace) = rec
                .span("qspr.engine.map", |_| {
                    Mapper::new(dims, config.params.clone()).map_with_trace(&resident.qodg)
                })
                .map_err(|e| e.to_string())?;
            let stats = trace.stats();
            rec.count("qspr.engine.ops", stats.ops as f64);
            rec.count(
                "qspr.engine.outbound_wait_us",
                stats.total_outbound_wait.as_f64(),
            );
            let estimate = estimate_with_profile(rec, config, dims, &resident)?;
            Ok(Composed::Compare {
                label,
                qubits: u64::from(resident.qodg.num_qubits()),
                ops: resident.qodg.op_count() as u64,
                dims,
                actual_us: mapping.latency.as_f64(),
                estimate,
            })
        }
        other => Err(format!("request {other:?} is not generated")),
    }
}

fn same(what: &str, reply: f64, composed: f64) -> Result<(), String> {
    if reply.to_bits() == composed.to_bits() {
        Ok(())
    } else {
        Err(format!("{what}: daemon {reply:?}, composed {composed:?}"))
    }
}

fn same_eq<T: PartialEq + std::fmt::Debug>(
    what: &str,
    reply: T,
    composed: T,
) -> Result<(), String> {
    if reply == composed {
        Ok(())
    } else {
        Err(format!("{what}: daemon {reply:?}, composed {composed:?}"))
    }
}

fn check_estimate(resp: &EstimateResponse, est: &Estimate) -> Result<(), String> {
    same("latency_us", resp.latency_us, est.latency.as_f64())?;
    same("l_cnot_avg_us", resp.l_cnot_avg_us, est.l_cnot_avg.as_f64())?;
    same(
        "l_one_qubit_avg_us",
        resp.l_one_qubit_avg_us,
        est.l_one_qubit_avg.as_f64(),
    )?;
    same("d_uncong_us", resp.d_uncong_us, est.d_uncong.as_f64())?;
    same("avg_zone_area", resp.avg_zone_area, est.avg_zone_area)?;
    same_eq("zone_side", resp.zone_side, est.zone_side)?;
    same_eq("esq terms", resp.esq.len(), est.esq.len())?;
    for (r, c) in resp.esq.iter().zip(&est.esq) {
        same("esq", *r, *c)?;
    }
    same_eq(
        "critical_cnots",
        resp.critical_cnots,
        est.critical.cnot_count,
    )?;
    same_eq(
        "critical_one_qubit",
        resp.critical_one_qubit,
        est.critical.one_qubit_counts.iter().sum(),
    )
}

/// Checks the daemon's decoded reply against the composed result.
fn check(resp: &Response, composed: &Composed) -> Result<(), String> {
    let fabric = |dims: &FabricDims| FabricSpec::new(dims.width(), dims.height());
    match (resp, composed) {
        (
            Response::Estimate(r),
            Composed::Estimate {
                label,
                qubits,
                ops,
                dims,
                estimate,
                cached,
                ..
            },
        ) => {
            same_eq("label", &r.program.label, label)?;
            same_eq("qubits", r.program.qubits, *qubits)?;
            same_eq("ops", r.program.ops, *ops)?;
            same_eq("fabric", r.fabric, fabric(dims))?;
            same_eq("profile_cached", r.profile_cached, *cached)?;
            check_estimate(r, estimate)
        }
        (
            Response::Compare(r),
            Composed::Compare {
                label,
                qubits,
                ops,
                dims,
                actual_us,
                estimate,
            },
        ) => {
            same_eq("label", &r.program.label, label)?;
            same_eq("qubits", r.program.qubits, *qubits)?;
            same_eq("ops", r.program.ops, *ops)?;
            same_eq("fabric", r.fabric, fabric(dims))?;
            same("actual_us", r.actual_us, *actual_us)?;
            let estimated = estimate.latency.as_f64();
            same("estimated_us", r.estimated_us, estimated)?;
            let error_pct =
                (*actual_us > 0.0).then(|| 100.0 * (estimated - actual_us).abs() / actual_us);
            same_eq(
                "error_pct bits",
                r.error_pct.map(f64::to_bits),
                error_pct.map(f64::to_bits),
            )
        }
        _ => Err("reply kind differs from the request".to_string()),
    }
}

/// Decodes a reply line into a response; error frames fail.
pub fn decode_reply(reply: &str) -> Result<Response, String> {
    let doc = json::parse(reply).map_err(|e| format!("reply is not JSON: {e}"))?;
    Response::from_json(&doc).map_err(|_| format!("error reply: {reply}"))
}

/// Replays one request under a `request` root span and checks it.
/// Returns whether the stream path ran.
fn replay_one(
    rec: &mut Recorder,
    config: &Config,
    mirror: &Mirror,
    line: &str,
    reply: &str,
) -> Result<bool, String> {
    let decoded = decode_reply(reply)?;
    let (composed, encoded) = rec.span("request", |rec| {
        let request = rec.span("api.json.decode", |_| {
            json::parse(line)
                .map_err(|e| e.to_string())
                .and_then(|doc| Request::from_json(&doc).map_err(|e| e.to_string()))
        })?;
        rec.count("api.json.request_bytes", line.len() as f64);
        let composed = compose(rec, config, mirror, &request)?;
        let encoded = rec.span("api.json.encode", |_| decoded.to_json().encode());
        Ok::<_, String>((composed, encoded))
    })?;
    check(&decoded, &composed)?;
    if encoded != reply {
        return Err("reply bytes differ from the canonical encoding".to_string());
    }
    Ok(matches!(
        composed,
        Composed::Estimate { streamed: true, .. }
    ))
}

/// Per-request verdicts and the spans of the requests replayed.
pub struct Replay {
    /// Every timed request's check, indexed like the samples.
    pub verdicts: Vec<Verdict>,
    pub recorders: Vec<Recorder>,
    /// Requests replayed (the rest were checked against an identical,
    /// already-verified line).
    pub replayed: usize,
    /// Replayed requests that took the streaming path.
    pub streamed: usize,
    /// Wall time of the replay across threads, warm-ups excluded.
    pub elapsed: Duration,
}

/// A sample's check: `Err(why)` when it failed.
type Verdict = Result<(), String>;

/// What checking one sample did.
enum Checked {
    /// Replayed through the layers; `streamed` when the stream path ran.
    Replayed { streamed: bool },
    /// Compared with the reply of an identical, already verified line.
    Memoized,
}

/// State the replay threads share within one segment.
struct Checker<'a> {
    config: &'a Config,
    mirror: Mirror,
    /// Line hash -> reply of a verified line.
    verified: &'a Mutex<HashMap<u64, String>>,
    /// Repeats are memoized only once this instant has passed.
    memo_after: Instant,
}

impl Checker<'_> {
    fn check(&self, rec: &mut Recorder, sample: &Sample) -> (Verdict, Checked) {
        let reply = match &sample.reply {
            Ok(reply) => reply,
            Err(e) => return (Err(e.clone()), Checked::Memoized),
        };
        let key = fnv1a(sample.line.as_bytes());
        if Instant::now() > self.memo_after {
            let known = self
                .verified
                .lock()
                .expect("no replay thread panicked")
                .get(&key)
                .cloned();
            if let Some(expected) = known {
                let verdict = if expected == *reply {
                    Ok(())
                } else {
                    Err("reply differs from an identical request's".to_string())
                };
                return (verdict, Checked::Memoized);
            }
        }
        rec.set_request(sample.index);
        match replay_one(rec, self.config, &self.mirror, &sample.line, reply) {
            Ok(streamed) => {
                self.verified
                    .lock()
                    .expect("no replay thread panicked")
                    .entry(key)
                    .or_insert_with(|| reply.clone());
                (Ok(()), Checked::Replayed { streamed })
            }
            Err(e) => (Err(e), Checked::Replayed { streamed: false }),
        }
    }
}

/// Replays every segment's requests over `threads` threads against a
/// fresh cache per segment (warmed like its daemon). Every distinct line
/// is replayed; once `budget` is spent, repeats of an already-verified
/// line are checked against that line's reply instead.
pub fn replay(
    plan: &Plan,
    config: &Config,
    samples: &[Sample],
    segments: usize,
    threads: usize,
    budget: Duration,
) -> Replay {
    let epoch = Instant::now();
    let mut verdicts: Vec<Verdict> = samples.iter().map(|_| Ok(())).collect();
    let verified = Mutex::new(HashMap::new());
    let mut recorders: Vec<Recorder> = (0..threads).map(|_| Recorder::new(epoch)).collect();
    let mut replay = Replay {
        verdicts: Vec::new(),
        recorders: Vec::new(),
        replayed: 0,
        streamed: 0,
        elapsed: Duration::ZERO,
    };
    let warmup = plan.warmup();

    for segment in 0..segments {
        let checker = Checker {
            config,
            mirror: Mirror::default(),
            verified: &verified,
            memo_after: epoch + budget,
        };
        let mut warmup_rec = Recorder::new(epoch);
        for line in &warmup {
            if let Ok(request) = json::parse(line)
                .map_err(|e| e.to_string())
                .and_then(|d| Request::from_json(&d).map_err(|e| e.to_string()))
            {
                let _ = compose(&mut warmup_rec, config, &checker.mirror, &request);
            }
        }
        let todo: Vec<usize> = (0..samples.len())
            .filter(|&k| samples[k].segment == segment)
            .collect();
        let cursor = AtomicUsize::new(0);
        let started = Instant::now();
        let results: Vec<(usize, Verdict, Checked)> = std::thread::scope(|scope| {
            let handles: Vec<_> = recorders
                .iter_mut()
                .map(|rec| {
                    let (todo, cursor, checker) = (&todo, &cursor, &checker);
                    scope.spawn(move || {
                        let mut out = Vec::new();
                        while let Some(&k) = todo.get(cursor.fetch_add(1, Ordering::Relaxed)) {
                            let (verdict, how) = checker.check(rec, &samples[k]);
                            out.push((k, verdict, how));
                        }
                        out
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("replay thread panicked"))
                .collect()
        });
        replay.elapsed += started.elapsed();
        for (k, verdict, how) in results {
            verdicts[k] = verdict;
            if let Checked::Replayed { streamed } = how {
                replay.replayed += 1;
                replay.streamed += usize::from(streamed);
            }
        }
    }
    replay.verdicts = verdicts;
    replay.recorders = recorders;
    replay
}

/// Times `Server::process_line` in-process on the same lines (fresh
/// server per segment, warmed like its daemon) until `budget` is spent,
/// and checks each reply is byte-identical to the daemon's. Returns the
/// per-call times in ms and the indices of mismatching samples.
pub fn process_lines(
    plan: &Plan,
    samples: &[Sample],
    segments: usize,
    budget: Duration,
) -> Result<(Vec<f64>, Vec<usize>), String> {
    let started = Instant::now();
    let warmup = plan.warmup();
    let mut times = Vec::new();
    let mut mismatches = Vec::new();
    for segment in 0..segments {
        if started.elapsed() > budget {
            break;
        }
        let server = Server::new(Session::builder().build().map_err(|e| e.to_string())?);
        for line in &warmup {
            let _ = server.process_line(line);
        }
        for (k, sample) in samples.iter().enumerate() {
            if sample.segment != segment || started.elapsed() > budget {
                continue;
            }
            let Ok(reply) = &sample.reply else { continue };
            let t = Instant::now();
            let local = server.process_line(&sample.line);
            times.push(t.elapsed().as_secs_f64() * 1e3);
            if local.as_deref() != Some(reply.as_str()) {
                mismatches.push(k);
            }
        }
    }
    Ok((times, mismatches))
}

/// `|error_pct|` of every `compare` reply among `pairs`, one per distinct
/// request line (in first-seen order).
pub fn error_pcts<'a>(pairs: impl IntoIterator<Item = (&'a str, &'a str)>) -> Vec<f64> {
    let mut seen = HashSet::new();
    pairs
        .into_iter()
        .filter(|(line, _)| seen.insert(*line))
        .filter_map(|(_, reply)| match decode_reply(reply) {
            Ok(Response::Compare(CompareResponse {
                error_pct: Some(e), ..
            })) => Some(e.abs()),
            _ => None,
        })
        .collect()
}

//! End-to-end and per-layer benchmark of the `leqa serve` daemon.
//!
//! ```text
//! perfbench --daemon PATH --workload NAME --seed N --seconds S --trace 0|1 [--out DIR]
//! ```
//!
//! Drives the release daemon over loopback TCP as a closed loop with two
//! connections for `S` seconds, then replays the same request list
//! in-process through each layer's public functions under spans, checks
//! every reply bit for bit, and prints one JSON result as the last line
//! of standard output: the end-to-end metrics with `--trace 0`, the
//! per-layer metrics with `--trace 1`. See `README.md` for the workloads
//! and what each metric should move.

mod daemon;
mod load;
mod replay;
mod report;
mod spans;
mod summary;
mod workload;

use std::collections::HashMap;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::{Duration, Instant};

use leqa_api::json::Json;

use crate::report::{LayerReport, Metric};
use crate::spans::self_times;
use crate::summary::{median, tail, Tally};
use crate::workload::{Plan, Workload};

/// Closed-loop client connections (one per core of the 2-core runner
/// the benchmark was tuned on).
const CONNECTIONS: usize = 2;
/// Threads of the in-process replay, mirroring the connections.
const REPLAY_THREADS: usize = CONNECTIONS;

/// The end-to-end metrics, `(name, unit, better)`, in reporting order.
const END_TO_END: [(&str, &str, &str); 7] = [
    ("throughput_rps", "req/s", "higher"),
    ("latency_p50_ms", "ms", "lower"),
    ("latency_p99_ms", "ms", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mib", "MiB", "lower"),
    ("error_pct_mean", "%", "lower"),
    ("error_pct_max", "%", "lower"),
];

/// Per-layer metrics measured outside the replay's spans: the in-process
/// server, the daemons' cache counters and the tracing overhead.
const RUN_LAYER: [(&str, &str, &str); 7] = [
    ("api.server.process_line_ms", "ms", "lower"),
    ("api.server.process_line.calls", "count", "lower"),
    ("api.server.wire_ms", "ms", "lower"),
    ("api.session.hit_ratio", "fraction", "higher"),
    ("trace.requests", "count", "higher"),
    ("trace.rate_rps", "req/s", "higher"),
    ("trace.rate_vs_untraced", "ratio", "higher"),
];

fn metrics<const N: usize>(
    table: &[(&str, &'static str, &'static str); N],
    values: [f64; N],
) -> Vec<Metric> {
    table
        .iter()
        .zip(values)
        .map(|(&(name, unit, better), value)| Metric::new(name, unit, better, value))
        .collect()
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    daemon: PathBuf,
    out: Option<PathBuf>,
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut flags: HashMap<String, String> = HashMap::new();
    while let Some(flag) = argv.next() {
        let key = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument `{flag}`"))?;
        let value = argv
            .next()
            .ok_or_else(|| format!("`{flag}` needs a value"))?;
        flags.insert(key.to_string(), value);
    }
    let mut take = |key: &str| {
        flags
            .remove(key)
            .ok_or_else(|| format!("missing `--{key}`"))
    };
    let workload = take("workload")?;
    let workload = Workload::parse(&workload).ok_or_else(|| {
        let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        format!(
            "unknown workload `{workload}` (one of {})",
            names.join(", ")
        )
    })?;
    let number = |key: &str, v: String| {
        v.parse::<u64>()
            .map_err(|_| format!("`--{key}` must be a whole number"))
    };
    let seed = number("seed", take("seed")?)?;
    let seconds = number("seconds", take("seconds")?)?;
    if seconds == 0 {
        return Err("`--seconds` must be positive".to_string());
    }
    let trace = match take("trace")?.as_str() {
        "0" => false,
        "1" => true,
        _ => return Err("`--trace` must be 0 or 1".to_string()),
    };
    let daemon = PathBuf::from(take("daemon")?);
    let out = flags.remove("out").map(PathBuf::from);
    if let Some(key) = flags.keys().next() {
        return Err(format!("unknown flag `--{key}`"));
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        daemon,
        out,
    })
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}

/// Runs the benchmark; `Ok(false)` when a reply failed its check or a
/// workload-shape guard tripped (the result line still prints).
fn run(args: &Args) -> Result<bool, String> {
    let plan = Plan::new(args.workload, args.seed);
    let config = replay::Config::daemon_defaults()?;
    let started = Instant::now();
    let run = load::drive(&args.daemon, &plan, args.seconds, CONNECTIONS)?;
    let drive_s = started.elapsed().as_secs_f64();
    let segments = run.segments.len();
    let samples = &run.samples;
    // Every distinct line is replayed; repeats only until a third of the
    // window is spent (the rest are checked against verified replies).
    let budget = Duration::from_secs(args.seconds) / 3;
    let traced = replay::replay(&plan, &config, samples, segments, REPLAY_THREADS, budget);
    let replay_s = started.elapsed().as_secs_f64() - drive_s;
    let process = if args.trace {
        Some(replay::process_lines(&plan, samples, segments, budget)?)
    } else {
        None
    };

    // Outcomes: transport errors, error replies, and replies that fail
    // the bit-exact check all count against the attempted requests.
    let mismatched: Vec<usize> = process.as_ref().map_or(Vec::new(), |p| p.1.clone());
    let mut tally = Tally::default();
    let mut failures = Vec::new();
    for (k, (sample, verdict)) in samples.iter().zip(&traced.verdicts).enumerate() {
        let why = match verdict {
            Err(e) => Some(e.clone()),
            Ok(()) if mismatched.contains(&k) => {
                Some("in-process Server::process_line reply differs".to_string())
            }
            Ok(()) => None,
        };
        tally.record(why.is_none());
        if let Some(why) = why {
            failures.push(format!("request {}: {why}", sample.index));
        }
    }

    // End-to-end metrics.
    let window_s = run.window().as_secs_f64();
    let latencies: Vec<f64> = samples
        .iter()
        .filter(|s| s.reply.is_ok())
        .map(|s| s.latency.as_secs_f64() * 1e3)
        .collect();
    let completed = latencies.len();
    let p50 = median(&latencies).unwrap_or(0.0);
    let tail = tail(&latencies);
    let setups: Vec<f64> = run.segments.iter().map(|s| s.setup.as_secs_f64()).collect();
    let rss: Vec<f64> = run.segments.iter().map(|s| s.peak_rss_mib).collect();
    let accuracy = match args.workload {
        Workload::CompareMap => replay::error_pcts(
            samples
                .iter()
                .filter_map(|s| Some((&*s.line, s.reply.as_deref().ok()?))),
        ),
        _ => replay::error_pcts(run.probe.iter().map(|(l, r)| (l.as_str(), r.as_str()))),
    };
    let throughput = completed as f64 / window_s;
    let end_to_end = metrics(
        &END_TO_END,
        [
            throughput,
            p50,
            tail.map_or(0.0, |t| t.value),
            median(&setups).unwrap_or(0.0),
            median(&rss).unwrap_or(0.0),
            accuracy.iter().sum::<f64>() / accuracy.len().max(1) as f64,
            accuracy.iter().copied().fold(0.0, f64::max),
        ],
    );

    // Per-layer metrics from the traced replay.
    let line_of: HashMap<u64, &str> = samples.iter().map(|s| (s.index, &*s.line)).collect();
    let layers = LayerReport::new(&traced.recorders, &line_of);
    let (hits, loads) = run
        .segments
        .iter()
        .fold((0, 0), |(h, l), s| (h + s.hits, l + s.loads));
    let hit_ratio = if loads == 0 {
        0.0
    } else {
        hits as f64 / loads as f64
    };
    let trace_rate = traced.replayed as f64 / traced.elapsed.as_secs_f64().max(1e-9);

    // Workload-shape guards: each workload must still exercise the
    // mechanism it was chosen for.
    let mut guards = Vec::new();
    if tally.attempted == 0 {
        guards.push("no request completed in the timed window".to_string());
    }
    let cold = args.workload == Workload::EstimateCold;
    if args.workload == Workload::EstimateWarm && (hits != loads || loads != tally.attempted) {
        guards.push(format!(
            "estimate_warm: {hits} of {loads} session loads hit the cache over {} requests",
            tally.attempted
        ));
    }
    if cold && hits != 0 {
        guards.push(format!("estimate_cold: {hits} session loads hit the cache"));
    }
    if cold && traced.streamed == 0 {
        guards.push("estimate_cold: no request took the streaming path".to_string());
    }
    let largest = layers.shares.largest();
    if args.workload == Workload::CompareMap && largest != Some("qspr.engine.map") {
        guards.push(format!(
            "compare_map: largest layer share is {largest:?}, not qspr.engine.map"
        ));
    }
    if accuracy.is_empty() {
        guards.push("no compare reply carried an error_pct".to_string());
    }

    let mut per_layer = layers.into_metrics();
    let process_ms = process.as_ref().map(|p| p.0.as_slice()).unwrap_or(&[]);
    let process_med = median(process_ms).unwrap_or(0.0);
    per_layer.extend(metrics(
        &RUN_LAYER,
        [
            process_med,
            process_ms.len() as f64,
            p50 - process_med,
            hit_ratio,
            traced.replayed as f64,
            trace_rate,
            trace_rate / throughput.max(1e-9),
        ],
    ));

    if args.trace {
        if let Some(dir) = &args.out {
            write_spans(dir, args, &traced.recorders)?;
        }
    }

    let correct = tally.failed == 0 && guards.is_empty();
    for g in &guards {
        eprintln!("perfbench: SHAPE GUARD FAILED: {g}");
    }
    for f in failures.iter().take(5) {
        eprintln!("perfbench: FAILED {f}");
    }

    let details = Json::obj(vec![
        ("workload", Json::str(args.workload.name())),
        ("seed", Json::Num(args.seed as f64)),
        ("seconds", Json::Num(args.seconds as f64)),
        ("trace", Json::Bool(args.trace)),
        ("commit", Json::str(commit())),
        ("source_fnv", Json::str(source_fingerprint())),
        ("nproc", Json::Num(nproc() as f64)),
        ("rustc", Json::str(rustc_version())),
        (
            "daemon_command",
            Json::str(format!(
                "{} {}",
                args.daemon.display(),
                daemon::DAEMON_ARGS.join(" ")
            )),
        ),
        ("connections", Json::Num(CONNECTIONS as f64)),
        ("daemons", Json::Num(segments as f64)),
        ("window_s", Json::Num(window_s)),
        ("drive_s", Json::Num(drive_s)),
        ("replay_s", Json::Num(replay_s)),
        ("total_s", Json::Num(started.elapsed().as_secs_f64())),
        ("samples", Json::Num(completed as f64)),
        (
            "latency_tail_percentile",
            Json::Num(tail.map_or(100.0, |t| t.percentile)),
        ),
        (
            "latency_tail_beyond",
            Json::Num(tail.map_or(0.0, |t| t.beyond as f64)),
        ),
        ("error_rate", Json::Num(tally.error_rate())),
        ("cache_hits", Json::Num(hits as f64)),
        ("cache_loads", Json::Num(loads as f64)),
        ("streamed_requests", Json::Num(traced.streamed as f64)),
        ("accuracy_replies", Json::Num(accuracy.len() as f64)),
        (
            "latency_p50_ms_by_program",
            by_program(args.workload, samples),
        ),
        (
            "guards_failed",
            Json::Arr(guards.iter().map(Json::str).collect()),
        ),
    ]);
    let metrics = if args.trace { &per_layer } else { &end_to_end };
    let result = Json::obj(vec![
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Num(tally.attempted as f64)),
        ("failed", Json::Num(tally.failed as f64)),
        (
            "metrics",
            Json::obj(
                metrics
                    .iter()
                    .map(|m| {
                        (
                            m.name.as_str(),
                            Json::obj(vec![
                                ("value", Json::Num(finite(m.value))),
                                ("unit", Json::str(m.unit)),
                            ]),
                        )
                    })
                    .collect(),
            ),
        ),
    ]);
    let mut out = std::io::stdout().lock();
    writeln!(out, "{}", Json::obj(vec![("details", details)]).encode())
        .and_then(|()| writeln!(out, "{}", result.encode()))
        .and_then(|()| out.flush())
        .map_err(|e| format!("writing the result: {e}"))?;
    Ok(correct)
}

/// Median latency per program label on the working-set workloads
/// (empty on `estimate_cold`, whose programs never repeat).
fn by_program(workload: Workload, samples: &[load::Sample]) -> Json {
    if workload == Workload::EstimateCold {
        return Json::obj(Vec::new());
    }
    let mut groups: std::collections::BTreeMap<String, Vec<f64>> = Default::default();
    for s in samples {
        let label = s
            .reply
            .as_deref()
            .ok()
            .and_then(|r| match replay::decode_reply(r) {
                Ok(leqa_api::Response::Estimate(e)) => Some(e.program.label),
                Ok(leqa_api::Response::Compare(c)) => Some(c.program.label),
                _ => None,
            });
        if let Some(label) = label {
            groups
                .entry(label)
                .or_default()
                .push(s.latency.as_secs_f64() * 1e3);
        }
    }
    Json::obj(
        groups
            .iter()
            .map(|(label, v)| (label.as_str(), Json::Num(median(v).unwrap_or(0.0))))
            .collect(),
    )
}

fn finite(v: f64) -> f64 {
    if v.is_finite() {
        v
    } else {
        0.0
    }
}

/// Writes every span, one JSON object per line, to
/// `DIR/spans-<workload>-<seed>.ndjson`.
fn write_spans(dir: &Path, args: &Args, recorders: &[spans::Recorder]) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join(format!(
        "spans-{}-{}.ndjson",
        args.workload.name(),
        args.seed
    ));
    let mut text = String::new();
    for (thread, rec) in recorders.iter().enumerate() {
        for (span, own) in rec.spans.iter().zip(self_times(&rec.spans)) {
            let line = Json::obj(vec![
                ("thread", Json::Num(thread as f64)),
                ("request", Json::Num(span.request as f64)),
                ("id", Json::Num(span.id as f64)),
                (
                    "parent",
                    span.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                ),
                ("name", Json::str(span.name)),
                ("start_ns", Json::Num(span.start_ns as f64)),
                ("end_ns", Json::Num(span.end_ns as f64)),
                ("self_ns", Json::Num(own as f64)),
            ]);
            text.push_str(&line.encode());
            text.push('\n');
        }
    }
    std::fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))
}

fn command_output(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

fn commit() -> String {
    command_output("git", &["rev-parse", "HEAD"]).unwrap_or_else(|| "unknown".to_string())
}

fn rustc_version() -> String {
    command_output("rustc", &["-V"]).unwrap_or_else(|| "unknown".to_string())
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// FNV-1a over the paths and bytes of every file under `crates/`, in
/// path order: identifies the measured source where no git metadata is.
fn source_fingerprint() -> String {
    fn walk(dir: &Path, files: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                walk(&path, files);
            } else {
                files.push(path);
            }
        }
    }
    let mut files = Vec::new();
    walk(Path::new("crates"), &mut files);
    files.sort();
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for path in &files {
        let bytes = std::fs::read(path).unwrap_or_default();
        for &b in path.to_string_lossy().as_bytes().iter().chain(&bytes) {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    format!("{h:016x}")
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` at the repository root must declare exactly the
    /// metrics this program prints, with the same units and directions.
    #[test]
    fn benchmark_json_matches_the_reported_metrics() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repository root");
        let doc = leqa_api::json::parse(&text).expect("valid JSON");
        let declared = |key: &str| -> Vec<(String, String, String)> {
            doc.get(key)
                .and_then(Json::as_arr)
                .expect("metric list")
                .iter()
                .map(|m| {
                    let field = |f: &str| {
                        m.get(f)
                            .and_then(Json::as_str)
                            .expect("string field")
                            .to_string()
                    };
                    (field("name"), field("unit"), field("better"))
                })
                .collect()
        };
        let owned = |ms: Vec<Metric>| -> Vec<(String, String, String)> {
            ms.into_iter()
                .map(|m| (m.name, m.unit.to_string(), m.better.to_string()))
                .collect()
        };
        assert_eq!(
            declared("end_to_end"),
            owned(metrics(&END_TO_END, [0.0; 7]))
        );
        let mut per_layer = LayerReport::new(&[], &HashMap::new()).into_metrics();
        per_layer.extend(metrics(&RUN_LAYER, [0.0; 7]));
        assert_eq!(declared("per_layer"), owned(per_layer));
        let workloads: Vec<&str> = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .expect("workload list")
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).expect("name"))
            .collect();
        let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(workloads, ours);
    }

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(list.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = args(&[
            "--daemon",
            "d",
            "--workload",
            "compare_map",
            "--seed",
            "4",
            "--seconds",
            "10",
            "--trace",
            "1",
        ])
        .expect("valid");
        assert_eq!(a.workload, Workload::CompareMap);
        assert_eq!((a.seed, a.seconds, a.trace), (4, 10, true));
        assert!(args(&[
            "--daemon",
            "d",
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0"
        ])
        .is_err());
        assert!(args(&[
            "--daemon",
            "d",
            "--workload",
            "estimate_warm",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "2"
        ])
        .is_err());
        assert!(args(&["--workload", "estimate_warm"]).is_err());
    }
}

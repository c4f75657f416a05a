//! Daemon throughput: requests/sec through a live `leqa_api::server`
//! loopback daemon versus a **one-session-per-request** baseline — the
//! in-process proxy for today's one-process-per-request CLI usage (it
//! excludes `exec()` and dynamic-link cost, so the measured speedup is
//! a *lower bound* on what a real process-per-request deployment
//! pays).
//!
//! The daemon's whole point is amortisation: one resident session keeps
//! profiles cached and the worker pool warm across requests, while the
//! baseline rebuilds the session and the program profile every time.
//! `BENCH_JSON=BENCH_throughput.json cargo bench -p leqa-bench --bench
//! serve_throughput` appends the individual medians plus a
//! `serve/throughput` summary line (requests/sec both ways, speedup).
//!
//! The ≥ 2× target needs a second thread (the daemon serves from its
//! own accept/connection threads); single-core runners report
//! `SKIPPED` like the `throughput` bench. Set `SERVE_BENCH_SMOKE=1`
//! for the reduced CI variant.

use std::io::{BufRead, BufReader, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::time::Instant;

use criterion::{criterion_group, criterion_main, Criterion};

use leqa_api::{EstimateRequest, ProgramSpec, Request, Server, Session};

fn smoke() -> bool {
    std::env::var("SERVE_BENCH_SMOKE").is_ok_and(|v| v == "1")
}

/// The request stream: repeated estimates over a small set of mid-size
/// programs — the shape of service traffic a warm cache amortises.
fn request_lines() -> Vec<String> {
    let names: &[&str] = if smoke() {
        &["qft_16", "qft_32"]
    } else {
        &["qft_16", "qft_32", "qft_48", "qft_64"]
    };
    let rounds = if smoke() { 3 } else { 8 };
    let mut lines = Vec::new();
    for _ in 0..rounds {
        for name in names {
            lines.push(
                Request::Estimate(EstimateRequest::new(ProgramSpec::bench(*name)))
                    .to_json()
                    .encode(),
            );
        }
    }
    lines
}

/// Baseline: every request pays session construction and a cold profile
/// build, like a fresh process would.
fn run_per_request_sessions(lines: &[String]) -> usize {
    lines
        .iter()
        .map(|line| {
            let session = Session::builder().build().expect("default session");
            let doc = leqa_api::json::parse(line).expect("benchmark lines parse");
            let Request::Estimate(req) = Request::from_json(&doc).expect("estimate line") else {
                unreachable!("request_lines emits estimates only");
            };
            session.estimate(&req).expect("suite programs estimate");
        })
        .count()
}

/// Daemon path: one persistent connection to a live loopback server,
/// all lines pipelined, all replies drained.
fn run_through_daemon(addr: SocketAddr, lines: &[String]) -> usize {
    let stream = TcpStream::connect(addr).expect("connect to daemon");
    stream.set_nodelay(true).expect("nodelay");
    let mut reader = BufReader::new(stream.try_clone().expect("clone stream"));
    let mut writer = stream;
    for line in lines {
        writer.write_all(line.as_bytes()).expect("send");
        writer.write_all(b"\n").expect("send");
    }
    writer.flush().expect("flush");
    let mut reply = String::new();
    let mut served = 0usize;
    for _ in lines {
        reply.clear();
        let n = reader.read_line(&mut reply).expect("read reply");
        assert!(n > 0, "daemon closed early");
        assert!(
            reply.starts_with("{\"schema_version\":1,\"op\":\"estimate\""),
            "unexpected reply: {reply}"
        );
        served += 1;
    }
    served
}

/// Strict request/reply alternation, one roundtrip at a time — how
/// `leqa-client` drives the daemon.
fn run_ndjson_serial(addr: SocketAddr, lines: &[String]) -> usize {
    let stream = TcpStream::connect(addr).expect("connect to daemon");
    stream.set_nodelay(true).expect("nodelay");
    let mut reader = BufReader::new(stream.try_clone().expect("clone stream"));
    let mut writer = stream;
    let mut reply = String::new();
    let mut served = 0usize;
    for line in lines {
        writer.write_all(line.as_bytes()).expect("send");
        writer.write_all(b"\n").expect("send");
        writer.flush().expect("flush");
        reply.clear();
        let n = reader.read_line(&mut reply).expect("read reply");
        assert!(n > 0, "daemon closed early");
        assert!(
            reply.starts_with("{\"schema_version\":1,\"op\":\"estimate\""),
            "unexpected reply: {reply}"
        );
        served += 1;
    }
    served
}

fn bench_serve_throughput(c: &mut Criterion) {
    let lines = request_lines();

    let server = Server::new(Session::builder().build().expect("default session"));
    let bound = server.bind("127.0.0.1:0").expect("bind loopback");
    let addr = bound.local_addr();
    let daemon = std::thread::spawn(move || bound.run());
    // Warm the daemon once: the steady state under service traffic.
    run_through_daemon(addr, &lines);

    let mut group = c.benchmark_group("serve");
    group.sample_size(10);
    group.bench_function(
        criterion::BenchmarkId::from_parameter("per_request_sessions"),
        |b| b.iter(|| run_per_request_sessions(&lines)),
    );
    group.bench_function(criterion::BenchmarkId::from_parameter("daemon_warm"), |b| {
        b.iter(|| run_through_daemon(addr, &lines))
    });
    group.bench_function(
        criterion::BenchmarkId::from_parameter("ndjson_serial"),
        |b| b.iter(|| run_ndjson_serial(addr, &lines)),
    );
    group.finish();

    // Headline: median-of-5 wall-clock → requests/sec both ways.
    let median = |f: &dyn Fn() -> usize| -> f64 {
        let mut samples = Vec::new();
        for _ in 0..5 {
            let t0 = Instant::now();
            std::hint::black_box(f());
            samples.push(t0.elapsed().as_secs_f64());
        }
        samples.sort_by(f64::total_cmp);
        samples[samples.len() / 2]
    };
    let baseline_s = median(&|| run_per_request_sessions(&lines));
    let daemon_s = median(&|| run_through_daemon(addr, &lines));
    let n = lines.len() as f64;
    let baseline_rps = n / baseline_s;
    let daemon_rps = n / daemon_s;
    let speedup = baseline_s / daemon_s;

    let threads = std::thread::available_parallelism()
        .map(|t| t.get())
        .unwrap_or(1);
    let verdict = if threads < 2 {
        format!("SKIPPED ({threads} thread available, need >= 2 for the 2x target)")
    } else if speedup >= 2.0 {
        "MET".to_string()
    } else {
        "NOT MET".to_string()
    };
    println!(
        "serve throughput: {speedup:.2}x ({daemon_rps:.0} req/s via daemon vs {baseline_rps:.0} req/s per-request sessions, {threads} threads) — target >= 2x: {verdict}",
    );

    if let Ok(path) = std::env::var("BENCH_JSON") {
        if let Ok(mut file) = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
        {
            let _ = writeln!(
                file,
                "{{\"name\":\"serve/throughput\",\"speedup\":{speedup:.4},\"daemon_rps\":{daemon_rps:.1},\"baseline_rps\":{baseline_rps:.1},\"requests\":{},\"threads\":{threads}}}",
                lines.len(),
            );
        }
    }

    // Graceful shutdown: ack, drain, clean exit.
    let stream = TcpStream::connect(addr).expect("connect for shutdown");
    let mut reader = BufReader::new(stream.try_clone().expect("clone stream"));
    let mut writer = stream;
    writer.write_all(b"{\"cmd\":\"shutdown\"}\n").expect("send");
    writer.flush().expect("flush");
    let mut ack = String::new();
    reader.read_line(&mut ack).expect("ack");
    assert!(ack.contains("\"op\":\"shutdown\""), "ack: {ack}");
    daemon
        .join()
        .expect("daemon thread")
        .expect("daemon exits cleanly");
}

criterion_group!(benches, bench_serve_throughput);
criterion_main!(benches);

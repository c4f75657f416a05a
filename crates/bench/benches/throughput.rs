//! Service-layer throughput: one shared [`Session`] hammered from many
//! threads, the `batch` endpoint, and the QFT-64 `compare` that exercises
//! the zero-alloc QSPR hot path.
//!
//! The headline number is the **batch-style concurrent throughput over
//! the serial cache-warm baseline** — the same requests, the same warm
//! session, executed request-by-request versus fanned out on the
//! persistent worker pool. The paper's pitch (and the ROADMAP's) is a
//! service that scales with the hardware; this bench records the
//! trajectory: `BENCH_JSON=BENCH_throughput.json cargo bench -p
//! leqa-bench --bench throughput` appends one JSON line per measurement
//! plus a `throughput/speedup` summary line.
//!
//! The ≥ 3× target only applies on a multi-core runner (the pool cannot
//! beat serial on one core); single-core runs report `SKIPPED`.
//!
//! Set `THROUGHPUT_BENCH_SMOKE=1` for the reduced CI smoke variant
//! (fewer requests, shorter budgets).

use std::io::Write as _;
use std::time::Instant;

use criterion::{criterion_group, criterion_main, Criterion};

use leqa_api::{CompareRequest, EstimateRequest, ProgramSpec, Request, Session};

fn smoke() -> bool {
    std::env::var("THROUGHPUT_BENCH_SMOKE").is_ok_and(|v| v == "1")
}

/// The mixed request set: distinct mid-size programs with repeats, the
/// shape of real service traffic hitting a warm cache.
fn requests() -> Vec<Request> {
    let names: &[&str] = if smoke() {
        &["qft_8", "qft_16", "8bitadder"]
    } else {
        &["qft_8", "qft_16", "qft_24", "qft_32", "8bitadder"]
    };
    let rounds = if smoke() { 2 } else { 6 };
    let mut requests = Vec::new();
    for _ in 0..rounds {
        for name in names {
            requests.push(Request::Estimate(EstimateRequest::new(ProgramSpec::bench(
                *name,
            ))));
        }
    }
    requests
}

/// Serial cache-warm baseline: request by request on one thread.
fn run_serial(session: &Session, requests: &[Request]) -> usize {
    requests
        .iter()
        .map(|req| {
            session
                .execute(req)
                .expect("suite programs execute cleanly");
        })
        .count()
}

/// Concurrent execution of the same requests on the persistent worker
/// pool — what `batch` does.
fn run_concurrent(session: &Session, requests: &[Request]) -> usize {
    leqa::pool::Pool::global()
        .map(requests, |req| {
            session
                .execute(req)
                .expect("suite programs execute cleanly");
        })
        .len()
}

fn bench_throughput(c: &mut Criterion) {
    let session = Session::builder().build().expect("default session");
    let requests = requests();
    // Warm the program cache once; the service steady state is all hits.
    run_serial(&session, &requests);

    let mut group = c.benchmark_group("throughput");
    group.sample_size(10);

    group.bench_function(
        criterion::BenchmarkId::from_parameter("estimate_serial"),
        |b| b.iter(|| run_serial(&session, &requests)),
    );
    group.bench_function(
        criterion::BenchmarkId::from_parameter("estimate_concurrent"),
        |b| b.iter(|| run_concurrent(&session, &requests)),
    );
    group.bench_function(criterion::BenchmarkId::from_parameter("batch"), |b| {
        b.iter(|| session.batch(&requests))
    });

    // The detailed-mapper endpoint: QFT-64 compare (QSPR + LEQA on the
    // paper's 60×60 fabric) through the thread-local MapScratch.
    let compare = CompareRequest::new(ProgramSpec::bench(if smoke() {
        "qft_16"
    } else {
        "qft_64"
    }));
    group.bench_function(
        criterion::BenchmarkId::from_parameter("compare_qft64"),
        |b| b.iter(|| session.compare(&compare).expect("qft fits the fabric")),
    );
    group.finish();

    // Headline: median-of-5 concurrent vs serial wall-clock on the warm
    // session — the batch-throughput acceptance number.
    let median = |f: &dyn Fn()| -> f64 {
        let mut samples = Vec::new();
        for _ in 0..5 {
            let t0 = Instant::now();
            f();
            samples.push(t0.elapsed().as_secs_f64());
        }
        samples.sort_by(f64::total_cmp);
        samples[samples.len() / 2]
    };
    let serial_s = median(&|| {
        std::hint::black_box(run_serial(&session, &requests));
    });
    let concurrent_s = median(&|| {
        std::hint::black_box(run_concurrent(&session, &requests));
    });
    let speedup = serial_s / concurrent_s;

    let threads = leqa::pool::Pool::global().workers() + 1; // pool + submitter
    let verdict = if threads < 4 {
        format!("SKIPPED ({threads} threads available, need >= 4 for the 3x target)")
    } else if speedup >= 3.0 {
        "MET".to_string()
    } else {
        "NOT MET".to_string()
    };
    println!(
        "throughput speedup: {speedup:.2}x (serial {:.2} ms vs concurrent {:.2} ms, {threads} threads) — batch target >= 3x: {verdict}",
        serial_s * 1e3,
        concurrent_s * 1e3,
    );

    // Append the summary to the same baseline file the shim records to,
    // so BENCH_throughput.json carries the headline ratio too.
    if let Ok(path) = std::env::var("BENCH_JSON") {
        if let Ok(mut file) = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
        {
            let _ = writeln!(
                file,
                "{{\"name\":\"throughput/speedup\",\"speedup\":{speedup:.4},\"serial_ms\":{:.4},\"concurrent_ms\":{:.4},\"threads\":{threads}}}",
                serial_s * 1e3,
                concurrent_s * 1e3,
            );
        }
    }
}

criterion_group!(benches, bench_throughput);
criterion_main!(benches);

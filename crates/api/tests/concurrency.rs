//! The shared-state contract of [`Session`]: `Send + Sync`, `&self`
//! endpoints hammered from many threads with byte-identical responses,
//! coherent atomic cache accounting, and batch/serial bit-identity.

use leqa_api::{
    CompareRequest, EstimateRequest, MapRequest, ProgramSpec, Request, Session, SweepRequest,
    ZonesRequest,
};

/// The `Send + Sync` contract is part of the public API: a concurrent
/// service shares one `Session` across its worker threads.
#[test]
fn session_is_send_and_sync() {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Session>();
    assert_send_sync::<leqa_api::ProgramHandle>();
}

fn mixed_requests() -> Vec<Request> {
    vec![
        Request::Estimate(EstimateRequest::new(ProgramSpec::bench("8bitadder"))),
        Request::Estimate(EstimateRequest::new(ProgramSpec::bench("qft_8"))),
        Request::Zones(ZonesRequest::new(ProgramSpec::bench("8bitadder")).with_limit(3)),
        Request::Sweep(SweepRequest::new(ProgramSpec::bench("qft_8"), [4, 10, 20])),
        Request::Compare(CompareRequest::new(ProgramSpec::bench("8bitadder")).with_fabric(12, 12)),
        Request::Map(MapRequest::new(ProgramSpec::bench("qft_8")).with_trace_limit(5)),
        Request::Estimate(EstimateRequest::new(ProgramSpec::source(
            ".qubits 3\ncnot 0 1\nh 2\ncnot 1 2\n",
        ))),
    ]
}

/// Distinct programs named by [`mixed_requests`].
const DISTINCT_PROGRAMS: u64 = 3;

/// Encodes a response slot the way a service would put it on the wire.
fn wire(slot: &Result<leqa_api::Response, leqa_api::LeqaError>) -> String {
    match slot {
        Ok(resp) => resp.to_json().encode(),
        Err(e) => format!("error: {e}"),
    }
}

#[test]
fn hammered_session_matches_the_serial_run_byte_for_byte() {
    let session = Session::builder().build().unwrap();
    let requests = mixed_requests();

    // Warm the cache once so every later load is a deterministic hit
    // (first-load `profile_cached` flags depend on arrival order under
    // true concurrency, by design).
    for req in &requests {
        session.load(req.program()).unwrap();
    }
    let warm = session.cache_stats();
    assert_eq!(warm.cache_misses, DISTINCT_PROGRAMS);
    assert_eq!(warm.cache_hits + warm.cache_misses, warm.loads);

    // The serial reference run, on the same session.
    let expected: Vec<String> = requests
        .iter()
        .map(|req| wire(&session.execute(req)))
        .collect();

    // Hammer: N threads share the session and each replays the whole
    // mixed set several times.
    const THREADS: usize = 8;
    const ROUNDS: usize = 3;
    std::thread::scope(|scope| {
        for _ in 0..THREADS {
            let session = &session;
            let requests = &requests;
            let expected = &expected;
            scope.spawn(move || {
                for _ in 0..ROUNDS {
                    for (req, want) in requests.iter().zip(expected) {
                        let got = wire(&session.execute(req));
                        assert_eq!(&got, want, "concurrent response diverged");
                    }
                }
            });
        }
    });

    // Accounting stayed coherent under fire: every load was counted
    // exactly once as a hit or a miss, no load re-lowered a program.
    let stats = session.cache_stats();
    assert_eq!(stats.cache_hits + stats.cache_misses, stats.loads);
    assert_eq!(stats.cache_misses, DISTINCT_PROGRAMS);
    // One load per request in the warm pass, the serial pass, and every
    // hammer round.
    let total_loads = (requests.len() as u64) * (2 + (THREADS * ROUNDS) as u64);
    assert_eq!(stats.loads, total_loads);
    // Profiles are exactly-once per program no matter how many threads
    // raced (`map` never builds one, so at most DISTINCT_PROGRAMS).
    assert!(stats.profile_builds <= DISTINCT_PROGRAMS);
}

#[test]
fn concurrent_first_loads_build_each_profile_once() {
    // No pre-warm: threads race on cold programs. Responses may disagree
    // on `profile_cached` (by design), but the cache must stay coherent:
    // one miss per distinct program, everything else hits.
    let session = Session::builder().build().unwrap();
    let req = EstimateRequest::new(ProgramSpec::bench("qft_8"));
    std::thread::scope(|scope| {
        for _ in 0..8 {
            let session = &session;
            let req = &req;
            scope.spawn(move || {
                let resp = session.estimate(req).unwrap();
                assert!(resp.latency_us > 0.0);
            });
        }
    });
    let stats = session.cache_stats();
    assert_eq!(stats.cache_hits + stats.cache_misses, stats.loads);
    assert_eq!(stats.loads, 8);
    assert!(stats.cache_misses >= 1, "someone had to lower the program");
    assert_eq!(
        stats.profile_builds, 1,
        "OnceLock keeps profiles exactly-once"
    );
}

#[test]
fn batch_is_bit_identical_to_the_serial_order() {
    let requests = mixed_requests();

    // Serial reference: a fresh session executing request by request,
    // with the batch's per-slot error context applied.
    let serial_session = Session::builder().build().unwrap();
    let serial: Vec<Result<leqa_api::Response, leqa_api::LeqaError>> = requests
        .iter()
        .enumerate()
        .map(|(i, req)| {
            serial_session
                .execute(req)
                .map_err(|e| e.context(format!("batch request {i}")))
        })
        .collect();

    let batch_session = Session::builder().build().unwrap();
    let batch = batch_session.batch(&requests);

    assert_eq!(batch.results.len(), serial.len());
    for (got, want) in batch.results.iter().zip(&serial) {
        assert_eq!(
            wire(got),
            wire(want),
            "wire bytes must match the serial order"
        );
    }
    // Including the cache accounting.
    assert_eq!(batch_session.cache_stats(), serial_session.cache_stats());

    // A second identical batch is all hits, and still byte-stable.
    let again = batch_session.batch(&requests);
    let stats = batch_session.cache_stats();
    assert_eq!(stats.cache_hits + stats.cache_misses, stats.loads);
    assert_eq!(stats.cache_misses, DISTINCT_PROGRAMS);
    for (slot, first) in again.results.iter().zip(&batch.results) {
        match (slot, first) {
            (Ok(a), Ok(b)) => {
                let mut a = a.to_json().encode();
                let mut b = b.to_json().encode();
                // Only the cache flag may differ between a cold and a
                // warm batch.
                a = a.replace("\"profile_cached\":false", "\"profile_cached\":true");
                b = b.replace("\"profile_cached\":false", "\"profile_cached\":true");
                assert_eq!(a, b);
            }
            other => panic!("unexpected slots: {other:?}"),
        }
    }
}

#[test]
fn clear_cache_is_safe_under_concurrent_loads() {
    // Smoke: loads racing a cache clear must neither deadlock nor
    // corrupt accounting (hits + misses == loads throughout).
    let session = Session::builder().build().unwrap();
    let req = EstimateRequest::new(ProgramSpec::bench("qft_8"));
    std::thread::scope(|scope| {
        for _ in 0..4 {
            let session = &session;
            let req = &req;
            scope.spawn(move || {
                for _ in 0..5 {
                    session.estimate(req).unwrap();
                }
            });
        }
        let session = &session;
        scope.spawn(move || {
            for _ in 0..10 {
                session.clear_cache();
            }
        });
    });
    let stats = session.cache_stats();
    assert_eq!(stats.cache_hits + stats.cache_misses, stats.loads);
    assert_eq!(stats.loads, 20);
}

/// Repeat loads through the resolve memo — workload names, canonical and
/// non-canonical inline text, and one program reached both by name and by
/// text — hammered from many threads while another thread clears the
/// cache. Every reply must equal the serial reply for its request: the
/// warm one (a hit), or the cold one when a clear forced a reload.
#[test]
fn memo_hits_stay_byte_identical_under_clear_cache() {
    let canonical_qft = Session::builder()
        .build()
        .unwrap()
        .load(&ProgramSpec::bench("qft_8"))
        .unwrap()
        .source()
        .to_string();
    let requests = vec![
        Request::Estimate(EstimateRequest::new(ProgramSpec::bench("qft_8"))),
        Request::Estimate(EstimateRequest::new(ProgramSpec::bench("8bitadder"))),
        Request::Estimate(EstimateRequest::new(ProgramSpec::source(canonical_qft))),
        Request::Estimate(EstimateRequest::new(ProgramSpec::source(
            ".name tiny\n.qubits 3\ncnot 0 1\nh 2\ncnot 1 2\n",
        ))),
        Request::Estimate(EstimateRequest::new(ProgramSpec::source(
            "# not canonical\n.qubits 3\n\ncnot 0 1\nh 2\n",
        ))),
        Request::Sweep(SweepRequest::new(ProgramSpec::bench("8bitadder"), [10, 20])),
    ];
    let cold: Vec<String> = requests
        .iter()
        .map(|req| wire(&Session::builder().build().unwrap().execute(req)))
        .collect();
    let session = Session::builder().build().unwrap();
    for req in &requests {
        session.execute(req).unwrap();
    }
    let warm: Vec<String> = requests
        .iter()
        .map(|req| wire(&session.execute(req)))
        .collect();

    const THREADS: usize = 4;
    const ROUNDS: usize = 6;
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let (session, requests, warm, cold) = (&session, &requests, &warm, &cold);
            scope.spawn(move || {
                for round in 0..ROUNDS {
                    for k in 0..requests.len() {
                        // Each thread walks the set from its own offset.
                        let i = (k + t + round) % requests.len();
                        let got = wire(&session.execute(&requests[i]));
                        assert!(
                            got == warm[i] || got == cold[i],
                            "request {i} diverged from the serial replies: {got}"
                        );
                    }
                }
            });
        }
        let session = &session;
        scope.spawn(move || {
            for _ in 0..20 {
                session.clear_cache();
                std::thread::yield_now();
            }
        });
    });

    let stats = session.cache_stats();
    assert_eq!(stats.cache_hits + stats.cache_misses, stats.loads);
    let total = requests.len() * (2 + THREADS * ROUNDS);
    assert_eq!(stats.loads, total as u64);
}

/// Threads racing to fill the estimate memo — the same programs on
/// overlapping fabrics, through `estimate`, `compare` and `batch`, with
/// the programs resident but no estimate computed yet — get the bytes a
/// fresh session gives serially. Racing computations must agree bit for
/// bit, whichever one the memo keeps.
#[test]
fn hammered_estimate_memo_matches_a_fresh_session() {
    let mut requests = Vec::new();
    for name in ["8bitadder", "qft_8"] {
        for (w, h) in [(20, 20), (60, 60), (14, 30), (3, 3)] {
            let spec = ProgramSpec::bench(name);
            requests.push(Request::Estimate(
                EstimateRequest::new(spec.clone()).with_fabric(w, h),
            ));
        }
        let spec = ProgramSpec::bench(name);
        requests.push(Request::Estimate(EstimateRequest::new(spec.clone())));
        requests.push(Request::Compare(
            CompareRequest::new(spec).with_fabric(20, 20),
        ));
    }
    // The reference: a fresh session per request, each program resident
    // first so every flag reads as the warm session's will.
    let (expected, expected_batch): (Vec<String>, Vec<String>) = requests
        .iter()
        .enumerate()
        .map(|(i, req)| {
            let fresh = Session::builder().build().unwrap();
            fresh.load(req.program()).unwrap();
            let reply = fresh.execute(req);
            let in_batch = reply
                .clone()
                .map_err(|e| e.context(format!("batch request {i}")));
            (wire(&reply), wire(&in_batch))
        })
        .unzip();

    let session = Session::builder().build().unwrap();
    for req in &requests {
        session.load(req.program()).unwrap();
    }
    const THREADS: usize = 8;
    const ROUNDS: usize = 3;
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let (session, requests) = (&session, &requests);
            let (expected, expected_batch) = (&expected, &expected_batch);
            scope.spawn(move || {
                for round in 0..ROUNDS {
                    for k in 0..requests.len() {
                        let i = (k + t + round) % requests.len();
                        let got = wire(&session.execute(&requests[i]));
                        assert_eq!(got, expected[i], "request {i} diverged");
                    }
                    // And once per round as a batch, slot by slot.
                    let batch = session.batch(requests);
                    for (i, slot) in batch.results.iter().enumerate() {
                        assert_eq!(wire(slot), expected_batch[i], "batch slot {i} diverged");
                    }
                }
            });
        }
    });
    assert_eq!(session.cache_stats().profile_builds, 2);
}

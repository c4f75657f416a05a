//! Integration tests of the [`Session`] façade: endpoint parity with the
//! engine crates, profile-cache accounting, batch semantics, and the
//! error taxonomy end to end.

use leqa_api::{
    BatchResponse, CompareRequest, ErrorKind, EstimateRequest, MapRequest, ProgramSpec, Request,
    Response, Session, SweepRequest, ZonesRequest,
};

fn session() -> Session {
    Session::builder().build().expect("default session builds")
}

#[test]
fn estimate_matches_the_engine_bit_for_bit() {
    use leqa::Estimator;
    use leqa_circuit::{decompose::lower_to_ft, Qodg};
    use leqa_fabric::{FabricDims, PhysicalParams};

    let s = session();
    let resp = s
        .estimate(&EstimateRequest::new(ProgramSpec::bench("8bitadder")))
        .unwrap();

    let circuit = leqa_workloads::circuit_by_name("8bitadder").unwrap();
    let qodg = Qodg::from_ft_circuit(&lower_to_ft(&circuit).unwrap());
    let direct = Estimator::new(FabricDims::dac13(), PhysicalParams::dac13())
        .estimate(&qodg)
        .unwrap();

    assert_eq!(resp.latency_us, direct.latency.as_f64());
    assert_eq!(resp.l_cnot_avg_us, direct.l_cnot_avg.as_f64());
    assert_eq!(resp.esq, direct.esq);
    assert_eq!(resp.critical_cnots, direct.critical.cnot_count);
    assert_eq!(resp.program.qubits, 24);
    assert_eq!(resp.program.ops, 822);
    assert!(!resp.profile_cached);
}

/// Asserts every field of a session reply equals the estimator run on the
/// program's freshly built QODG.
fn assert_reply_matches_the_qodg_estimator(
    resp: &leqa_api::EstimateResponse,
    circuit: &leqa_circuit::Circuit,
    dims: leqa_fabric::FabricDims,
) {
    use leqa::Estimator;
    use leqa_circuit::{decompose::lower_to_ft, Qodg};
    use leqa_fabric::PhysicalParams;

    let label = &resp.program.label;
    let ft = lower_to_ft(circuit).unwrap();
    let direct = Estimator::new(dims, PhysicalParams::dac13())
        .estimate(&Qodg::from_ft_circuit(&ft))
        .unwrap();
    let bits = |x: f64| x.to_bits();
    assert_eq!(resp.program.qubits, u64::from(ft.num_qubits()), "{label}");
    assert_eq!(resp.program.ops, ft.ops().len() as u64, "{label}");
    assert_eq!(
        (resp.fabric.width, resp.fabric.height),
        (dims.width(), dims.height()),
        "{label}"
    );
    assert_eq!(
        bits(resp.latency_us),
        bits(direct.latency.as_f64()),
        "{label}"
    );
    assert_eq!(
        bits(resp.l_cnot_avg_us),
        bits(direct.l_cnot_avg.as_f64()),
        "{label}"
    );
    assert_eq!(
        bits(resp.l_one_qubit_avg_us),
        bits(direct.l_one_qubit_avg.as_f64()),
        "{label}"
    );
    assert_eq!(
        bits(resp.d_uncong_us),
        bits(direct.d_uncong.as_f64()),
        "{label}"
    );
    assert_eq!(
        bits(resp.avg_zone_area),
        bits(direct.avg_zone_area),
        "{label}"
    );
    assert_eq!(resp.zone_side, direct.zone_side, "{label}");
    assert_eq!(
        resp.esq.iter().map(|&x| bits(x)).collect::<Vec<_>>(),
        direct.esq.iter().map(|&x| bits(x)).collect::<Vec<_>>(),
        "{label}"
    );
    assert_eq!(resp.critical_cnots, direct.critical.cnot_count, "{label}");
    assert_eq!(
        resp.critical_one_qubit,
        direct.critical.one_qubit_counts.iter().sum::<u64>(),
        "{label}"
    );
}

#[test]
fn op_list_estimates_match_the_qodg_estimator_on_every_program() {
    use leqa_fabric::FabricDims;

    let s = session();
    let dac13 = FabricDims::dac13();
    let mut cases: Vec<(ProgramSpec, leqa_circuit::Circuit, FabricDims)> = leqa_workloads::SUITE
        .iter()
        .map(|b| (ProgramSpec::bench(b.name), b.circuit(), dac13))
        .collect();
    for (name, side) in [("shor_32_188", 140), ("qft_64", 60)] {
        let circuit = leqa_workloads::circuit_by_name(name).unwrap();
        let dims = FabricDims::new(side, side).unwrap();
        cases.push((ProgramSpec::bench(name), circuit, dims));
    }
    let text = ".qubits 4\ntoffoli 0 1 2\ncnot 2 3\nh 3\ncnot 3 0\ncnot 3 0\n";
    let inline = leqa_circuit::parser::parse(text).unwrap();
    cases.push((ProgramSpec::source(text), inline, dac13));

    for (spec, circuit, dims) in &cases {
        let req = EstimateRequest::new(spec.clone()).with_fabric(dims.width(), dims.height());
        let resp = s.estimate(&req).unwrap();
        assert_reply_matches_the_qodg_estimator(&resp, circuit, *dims);
        // The compare endpoint reports the very same estimate.
        if resp.program.ops < 10_000 {
            let compare =
                CompareRequest::new(spec.clone()).with_fabric(dims.width(), dims.height());
            assert_eq!(
                s.compare(&compare).unwrap().estimated_us.to_bits(),
                resp.latency_us.to_bits()
            );
        }
    }
}

#[test]
fn repeat_requests_hit_the_profile_cache() {
    let s = session();
    let req = EstimateRequest::new(ProgramSpec::bench("8bitadder"));
    let first = s.estimate(&req).unwrap();
    let second = s.estimate(&req).unwrap();
    assert!(!first.profile_cached);
    assert!(second.profile_cached);
    assert_eq!(first.latency_us, second.latency_us);
    assert_eq!(s.cache_stats().profile_builds, 1);
    assert_eq!(s.cache_stats().cache_hits, 1);
}

#[test]
fn cache_keys_by_content_not_by_spec() {
    // The same circuit through `bench` and `source` shares one profile.
    let s = session();
    let via_bench = s
        .estimate(&EstimateRequest::new(ProgramSpec::bench("8bitadder")))
        .unwrap();
    let text = s
        .load(&ProgramSpec::bench("8bitadder"))
        .unwrap()
        .source()
        .to_string();
    let via_source = s
        .estimate(&EstimateRequest::new(ProgramSpec::source(text)))
        .unwrap();
    assert!(via_source.profile_cached);
    assert_eq!(via_bench.latency_us, via_source.latency_us);
    assert_eq!(s.cache_stats().profile_builds, 1);
}

#[test]
fn cache_hits_keep_the_requesting_specs_label() {
    // Regression: a cache hit must not echo the label of whichever spec
    // first populated the cache — each response is labelled by the spec
    // the current request named.
    let s = session();
    let via_source = s
        .load(&ProgramSpec::source(".qubits 2\ncnot 0 1\n"))
        .unwrap();
    assert_eq!(via_source.label(), "<inline>");
    let via_path = {
        let dir = std::env::temp_dir().join("leqa-api-label-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("tiny.qc");
        std::fs::write(&path, ".qubits 2\ncnot 0 1\n").unwrap();
        s.load(&ProgramSpec::path(path.to_string_lossy().into_owned()))
            .unwrap()
    };
    // Same content → cache hit, but the label follows the new spec.
    assert_eq!(s.cache_stats().cache_hits, 1);
    assert!(
        via_path.label().ends_with("tiny.qc"),
        "{}",
        via_path.label()
    );
    let resp = s
        .estimate(&EstimateRequest::new(ProgramSpec::source(
            ".qubits 2\ncnot 0 1\n",
        )))
        .unwrap();
    assert!(resp.profile_cached);
    assert_eq!(resp.program.label, "<inline>");
}

#[test]
fn profiles_are_lazy_map_never_builds_one() {
    // `map` and `gen` never touch the presence-zone model, so the profile
    // pass must not run for them.
    let s = session();
    s.map(&MapRequest::new(ProgramSpec::bench("8bitadder")))
        .unwrap();
    assert_eq!(s.cache_stats().profile_builds, 0);
    // The first estimator-side request forces it, exactly once.
    s.estimate(&EstimateRequest::new(ProgramSpec::bench("8bitadder")))
        .unwrap();
    s.zones(&ZonesRequest::new(ProgramSpec::bench("8bitadder")))
        .unwrap();
    assert_eq!(s.cache_stats().profile_builds, 1);
}

#[test]
fn batch_builds_each_profile_exactly_once() {
    // The acceptance criterion: a batch naming N programs (with repeats)
    // builds each ProgramProfile exactly once; every further use is a
    // cache hit.
    let s = session();
    let a = || ProgramSpec::bench("8bitadder");
    let b = || ProgramSpec::bench("qft_8");
    let requests = vec![
        Request::Estimate(EstimateRequest::new(a())),
        Request::Estimate(EstimateRequest::new(b())),
        Request::Estimate(EstimateRequest::new(a())),
        Request::Zones(ZonesRequest::new(a()).with_limit(3)),
        Request::Sweep(SweepRequest::new(b(), [10, 20, 60])),
    ];
    let batch = s.batch(&requests);
    assert_eq!(batch.results.len(), 5);
    for slot in &batch.results {
        assert!(slot.is_ok(), "{slot:?}");
    }
    let stats = s.cache_stats();
    assert_eq!(stats.profile_builds, 2, "two distinct programs");
    assert_eq!(stats.cache_hits, 3, "three repeat namings");
}

#[test]
fn batch_matches_individual_calls_and_isolates_failures() {
    let requests = vec![
        Request::Estimate(EstimateRequest::new(ProgramSpec::bench("8bitadder"))),
        Request::Estimate(EstimateRequest::new(ProgramSpec::bench("no-such-bench"))),
        Request::Compare(CompareRequest::new(ProgramSpec::bench("qft_8")).with_fabric(12, 12)),
        // Fits errors stay per-slot too: 24 qubits cannot fit 2x2.
        Request::Estimate(EstimateRequest::new(ProgramSpec::bench("8bitadder")).with_fabric(2, 2)),
    ];
    let batch = session().batch(&requests);

    let serial = session();
    match (&batch.results[0], serial.execute(&requests[0])) {
        (Ok(Response::Estimate(a)), Ok(Response::Estimate(b))) => {
            assert_eq!(a.latency_us, b.latency_us);
        }
        other => panic!("unexpected: {other:?}"),
    }
    match &batch.results[1] {
        Err(e) => {
            assert_eq!(e.kind(), ErrorKind::Usage);
            assert!(e.to_string().contains("batch request 1"), "{e}");
        }
        ok => panic!("expected usage error, got {ok:?}"),
    }
    match (&batch.results[2], serial.execute(&requests[2])) {
        (Ok(Response::Compare(a)), Ok(Response::Compare(b))) => {
            assert_eq!(a.actual_us, b.actual_us);
            assert_eq!(a.estimated_us, b.estimated_us);
        }
        other => panic!("unexpected: {other:?}"),
    }
    match &batch.results[3] {
        Err(e) => assert_eq!(e.kind(), ErrorKind::Estimate),
        ok => panic!("expected estimate error, got {ok:?}"),
    }

    // The batch round-trips through its JSON envelope.
    let wire = batch.to_json().encode();
    let back = BatchResponse::from_json(&leqa_api::json::parse(&wire).unwrap()).unwrap();
    assert_eq!(back, batch);
}

#[test]
fn sweep_matches_the_sweep_engine() {
    let s = session();
    let resp = s
        .sweep(&SweepRequest::new(
            ProgramSpec::bench("8bitadder"),
            [4, 10, 60],
        ))
        .unwrap();
    assert_eq!(resp.points.len(), 3);
    // 24 qubits: 4x4 = 16 ULBs is too small.
    assert_eq!(resp.points[0].latency_us, None);
    assert!(resp.points[1].latency_us.is_some());
    assert_eq!(resp.optimal_side, Some(60));
}

#[test]
fn zones_limit_semantics() {
    let s = session();
    let all = s
        .zones(&ZonesRequest::new(ProgramSpec::bench("8bitadder")))
        .unwrap();
    assert_eq!(all.rows.len() as u64, all.total_rows);
    let limited = s
        .zones(&ZonesRequest::new(ProgramSpec::bench("8bitadder")).with_limit(2))
        .unwrap();
    assert_eq!(limited.rows.len(), 2);
    assert_eq!(limited.total_rows, all.total_rows);
    // Strongest first.
    assert!(limited.rows[0].strength >= limited.rows[1].strength);
    // limit 0 == no limit.
    let zero = s
        .zones(&ZonesRequest::new(ProgramSpec::bench("8bitadder")).with_limit(0))
        .unwrap();
    assert_eq!(zero.rows.len() as u64, zero.total_rows);
}

#[test]
fn map_and_compare_agree_on_the_actual_latency() {
    let s = session();
    let spec = || ProgramSpec::bench("8bitadder");
    let map = s.map(&MapRequest::new(spec()).with_trace_limit(3)).unwrap();
    let cmp = s.compare(&CompareRequest::new(spec())).unwrap();
    assert_eq!(map.latency_us, cmp.actual_us);
    assert!(map.trace.as_deref().unwrap().contains("dist"));
    let err = cmp.error_pct.expect("nonzero actual");
    assert!(err >= 0.0);
}

#[test]
fn error_taxonomy_end_to_end() {
    let s = session();

    let usage = s
        .estimate(&EstimateRequest::new(ProgramSpec::bench("nope")))
        .unwrap_err();
    assert_eq!(usage.kind(), ErrorKind::Usage);
    assert_eq!(usage.exit_code(), 2);

    let io = s
        .estimate(&EstimateRequest::new(ProgramSpec::path(
            "/nonexistent/x.qc",
        )))
        .unwrap_err();
    assert_eq!(io.kind(), ErrorKind::Io);
    assert!(io.to_string().contains("reading `/nonexistent/x.qc`"));

    let parse = s
        .estimate(&EstimateRequest::new(ProgramSpec::source("frobnicate 1 2")))
        .unwrap_err();
    assert_eq!(parse.kind(), ErrorKind::Parse);

    let map = s
        .map(&MapRequest::new(ProgramSpec::bench("8bitadder")).with_fabric(2, 2))
        .unwrap_err();
    assert_eq!(map.kind(), ErrorKind::Map);

    let invalid = s
        .estimate(&EstimateRequest::new(ProgramSpec::bench("8bitadder")).with_fabric(0, 5))
        .unwrap_err();
    assert_eq!(invalid.kind(), ErrorKind::Invalid);
}

#[test]
fn builder_rejects_invalid_options() {
    let err = Session::builder()
        .options(leqa::EstimatorOptions {
            max_esq_terms: 0,
            ..Default::default()
        })
        .build()
        .unwrap_err();
    assert_eq!(err.kind(), ErrorKind::Invalid);
}

#[test]
fn clear_cache_forces_a_rebuild() {
    let s = session();
    let req = EstimateRequest::new(ProgramSpec::bench("qft_8"));
    s.estimate(&req).unwrap();
    s.clear_cache();
    let resp = s.estimate(&req).unwrap();
    assert!(!resp.profile_cached);
    assert_eq!(s.cache_stats().profile_builds, 2);
}

// ── Streaming path ───────────────────────────────────────────────────────

/// A threshold-0 session streams every streamable workload; the response
/// must be byte-identical to the materialized one (same floats, same
/// summary), because the paper's numbers cannot depend on *how* they were
/// computed.
#[test]
fn streamed_estimate_is_byte_identical_to_materialized() {
    let streaming = Session::builder().streaming_threshold(0).build().unwrap();
    let materialized = session();
    assert_eq!(materialized.streaming_threshold(), 1_000_000);

    let req = EstimateRequest::new(ProgramSpec::bench("shor_16_2"));
    let streamed = streaming.estimate(&req).unwrap();
    let direct = materialized.estimate(&req).unwrap();

    assert_eq!(streamed.latency_us, direct.latency_us);
    assert_eq!(streamed.l_cnot_avg_us, direct.l_cnot_avg_us);
    assert_eq!(streamed.l_one_qubit_avg_us, direct.l_one_qubit_avg_us);
    assert_eq!(streamed.d_uncong_us, direct.d_uncong_us);
    assert_eq!(streamed.avg_zone_area, direct.avg_zone_area);
    assert_eq!(streamed.zone_side, direct.zone_side);
    assert_eq!(streamed.esq, direct.esq);
    assert_eq!(streamed.critical_cnots, direct.critical_cnots);
    assert_eq!(streamed.critical_one_qubit, direct.critical_one_qubit);
    assert_eq!(streamed.program.label, direct.program.label);
    assert_eq!(streamed.program.qubits, direct.program.qubits);
    assert_eq!(streamed.program.ops, direct.program.ops);
}

/// Streamed programs get the same cache accounting as materialized ones:
/// first request misses and builds, the repeat hits without a rebuild,
/// and `clear_cache` evicts the stream entry too.
#[test]
fn streamed_estimates_share_the_cache_discipline() {
    let s = Session::builder().streaming_threshold(0).build().unwrap();
    let req = EstimateRequest::new(ProgramSpec::bench("shor_12_2"));

    let first = s.estimate(&req).unwrap();
    let second = s.estimate(&req).unwrap();
    assert!(!first.profile_cached);
    assert!(second.profile_cached);
    assert_eq!(first.latency_us, second.latency_us);
    assert_eq!(s.cache_stats().profile_builds, 1);
    assert_eq!(s.cache_stats().cache_hits, 1);
    assert_eq!(s.cache_stats().cache_misses, 1);

    s.clear_cache();
    let third = s.estimate(&req).unwrap();
    assert!(!third.profile_cached);
    assert_eq!(s.cache_stats().profile_builds, 2);
}

/// Below the threshold the materialized path serves streamable names —
/// the default-session behavior for every small `shor_N`.
#[test]
fn small_streams_stay_on_the_materialized_path() {
    let s = Session::builder()
        .streaming_threshold(u64::MAX)
        .build()
        .unwrap();
    let resp = s
        .estimate(&EstimateRequest::new(ProgramSpec::bench("shor_8")))
        .unwrap();
    // The materialized path loads through the sharded program cache.
    assert!(!resp.profile_cached);
    assert_eq!(s.cache_stats().cache_misses, 1);
}

/// `shor_0` and parameter overflows are *invalid* requests (a recognized
/// family with out-of-range parameters), not unknown names — the typed
/// distinction clients branch on.
#[test]
fn invalid_shor_parameters_get_a_typed_error() {
    let s = session();
    for name in ["shor_0", &format!("shor_{}_{}", u32::MAX, u32::MAX)] {
        let err = s
            .estimate(&EstimateRequest::new(ProgramSpec::bench(name)))
            .unwrap_err();
        assert_eq!(err.kind(), ErrorKind::Invalid, "{name}: {err}");
    }
    // Out-of-grammar spellings stay Usage ("unknown benchmark").
    let err = s
        .estimate(&EstimateRequest::new(ProgramSpec::bench("shor_x")))
        .unwrap_err();
    assert_eq!(err.kind(), ErrorKind::Usage, "{err}");
}

// ── Resolve memo ─────────────────────────────────────────────────────────

/// A file rewritten between two loads of the same path is read again: the
/// second reply describes the new program, labelled by the same rule (a
/// `.name` header if present, otherwise the path).
#[test]
fn rewritten_files_are_reloaded() {
    let s = session();
    let dir = std::env::temp_dir().join(format!("leqa-api-rewrite-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("prog.qc");
    let spec = ProgramSpec::path(path.to_string_lossy().into_owned());
    let req = EstimateRequest::new(spec);

    std::fs::write(&path, ".qubits 2\ncnot 0 1\n").unwrap();
    let first = s.estimate(&req).unwrap();
    assert_eq!(first.program.qubits, 2);
    assert_eq!(first.program.label, path.to_string_lossy());
    assert!(s.estimate(&req).unwrap().profile_cached);

    std::fs::write(&path, ".name grown\n.qubits 3\ncnot 0 1\ncnot 1 2\nh 2\n").unwrap();
    let second = s.estimate(&req).unwrap();
    let fresh = fresh_estimate(&req);
    assert_eq!(second.program, fresh.program);
    assert_eq!(second.program.qubits, 3);
    assert_eq!(second.program.label, "grown");
    assert!(!second.profile_cached);
    assert_eq!(second.latency_us, fresh.latency_us);

    // And back: the first program is still resident, so this is a hit.
    std::fs::write(&path, ".qubits 2\ncnot 0 1\n").unwrap();
    let third = s.estimate(&req).unwrap();
    assert_eq!(third.program, first.program);
    assert!(third.profile_cached);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The estimate a fresh session gives, for comparison with a warm one.
fn fresh_estimate(req: &EstimateRequest) -> leqa_api::EstimateResponse {
    session().estimate(req).unwrap()
}

/// Inline text without a `.name` header keeps its `<inline>` label on
/// repeat loads, and different text is never served another's program.
#[test]
fn repeat_inline_sources_keep_label_and_program() {
    let s = session();
    let small = EstimateRequest::new(ProgramSpec::source(".qubits 2\ncnot 0 1\n"));
    let large = EstimateRequest::new(ProgramSpec::source(".qubits 3\ncnot 0 1\ncnot 1 2\n"));
    for _ in 0..2 {
        for req in [&small, &large] {
            let resp = s.estimate(req).unwrap();
            let fresh = fresh_estimate(req);
            assert_eq!(resp.program, fresh.program);
            assert_eq!(resp.program.label, "<inline>");
            assert_eq!(resp.latency_us, fresh.latency_us);
        }
    }
    let stats = s.cache_stats();
    assert_eq!((stats.cache_misses, stats.cache_hits), (2, 2));
}

/// Non-canonical text (comments, blank lines) is memoized too, and a hit
/// on it shares the profile of the canonical program.
#[test]
fn non_canonical_text_hits_the_memo() {
    let s = session();
    let canonical = ProgramSpec::source(".qubits 2\ncnot 0 1\n");
    let spaced = ProgramSpec::source("# a comment\n.qubits 2\n\ncnot 0 1\n");
    let first = s.load(&canonical).unwrap();
    let second = s.load(&spaced).unwrap();
    let third = s.load(&spaced).unwrap();
    assert_eq!(second.source(), first.source());
    assert_eq!(third.source(), first.source());
    let stats = s.cache_stats();
    assert_eq!(
        (stats.cache_misses, stats.cache_hits, stats.loads),
        (1, 2, 3)
    );
}

/// Failed loads are never memoized: the same bad spec twice gets the same
/// typed error, and no load, hit or miss is counted for either.
#[test]
fn errors_are_never_memoized() {
    let s = session();
    s.load(&ProgramSpec::bench("qft_4")).unwrap();
    let before = s.cache_stats();
    for (spec, kind) in [
        (ProgramSpec::bench("no_such_bench"), ErrorKind::Usage),
        (ProgramSpec::bench("shor_0"), ErrorKind::Invalid),
        (
            ProgramSpec::source(".qubits 2\nfrobnicate 0 1\n"),
            ErrorKind::Parse,
        ),
    ] {
        let req = EstimateRequest::new(spec);
        let first = s.estimate(&req).unwrap_err();
        let second = s.estimate(&req).unwrap_err();
        assert_eq!(first.kind(), kind, "{first}");
        assert_eq!(second.kind(), kind, "{second}");
        assert_eq!(first.to_string(), second.to_string());
    }
    assert_eq!(s.cache_stats(), before);
}

// ── Estimate memo ────────────────────────────────────────────────────────

/// A reply's wire bytes, for bit-for-bit comparison.
fn bytes(resp: &leqa_api::EstimateResponse) -> String {
    resp.to_json().encode()
}

/// What a warm session must answer: a fresh session's reply, carrying the
/// `profile_cached` flag the warm session reports.
fn fresh_bytes(s: &Session, req: &EstimateRequest, cached: bool) -> String {
    let mut fresh = s.estimate(req).unwrap();
    fresh.profile_cached = cached;
    bytes(&fresh)
}

/// Fabric sequences A, B, A — with B an override equal to the session
/// fabric, which shares the memo slot of a request without an override —
/// answer exactly what a fresh session answers, `profile_cached` included.
#[test]
fn repeat_estimates_across_fabrics_match_a_fresh_session() {
    let s = session();
    let plain = EstimateRequest::new(ProgramSpec::bench("8bitadder"));
    let a = plain.clone().with_fabric(30, 20);
    let b = plain.clone().with_fabric(60, 60);
    assert_eq!(s.fabric(), leqa_fabric::FabricDims::new(60, 60).unwrap());
    let sequence = [
        (&a, false),
        (&b, true),
        (&a, true),
        (&plain, true),
        (&b, true),
    ];
    for (i, (req, cached)) in sequence.into_iter().enumerate() {
        let got = s.estimate(req).unwrap();
        assert_eq!(got.profile_cached, cached, "request {i}");
        assert_eq!(
            bytes(&got),
            fresh_bytes(&session(), req, cached),
            "request {i}"
        );
    }
    assert_eq!(s.cache_stats().profile_builds, 1);
}

/// One program reached by name and by inline text: the memo serves both,
/// and each reply keeps the label its own spec implies.
#[test]
fn memo_hits_keep_each_specs_label() {
    let s = session();
    let by_name = EstimateRequest::new(ProgramSpec::bench("qft_8"));
    let source = s.load(&by_name.program).unwrap().source().to_string();
    let by_text = EstimateRequest::new(ProgramSpec::source(source));
    for req in [&by_name, &by_text, &by_name, &by_text] {
        let got = s.estimate(req).unwrap();
        assert!(got.profile_cached);
        assert_eq!(bytes(&got), fresh_bytes(&session(), req, true));
    }
    assert_eq!(s.estimate(&by_name).unwrap().program.label, "qft_8");
    assert_eq!(s.estimate(&by_text).unwrap().program.label, "qft8");
    assert_eq!(s.cache_stats().cache_misses, 1);
}

/// A streamed `shor_N_R` asked twice (and on a second fabric) is answered
/// from the stream entry's memo with the bytes of a fresh session.
#[test]
fn streamed_repeats_match_a_fresh_session() {
    let streaming = || Session::builder().streaming_threshold(0).build().unwrap();
    let s = streaming();
    let req = EstimateRequest::new(ProgramSpec::bench("shor_12_2"));
    let wide = req.clone().with_fabric(80, 80);
    for (req, cached) in [(&req, false), (&req, true), (&wide, true), (&req, true)] {
        let got = s.estimate(req).unwrap();
        assert_eq!(got.profile_cached, cached);
        assert_eq!(bytes(&got), fresh_bytes(&streaming(), req, cached));
    }
    assert_eq!(s.cache_stats().profile_builds, 1);
}

/// One more distinct fabric than the memo holds, each asked twice in a
/// row and then all again in order (so every recall of the first fabric
/// meets an evicted slot): every reply is a fresh session's.
#[test]
fn more_fabrics_than_the_memo_holds_stay_exact() {
    let s = session();
    let spec = ProgramSpec::bench("qft_8");
    let requests: Vec<EstimateRequest> = (0..9)
        .map(|i| EstimateRequest::new(spec.clone()).with_fabric(12 + i, 12 + 2 * i))
        .collect();
    let order = requests.iter().flat_map(|req| [req, req]).chain(&requests);
    for (i, req) in order.enumerate() {
        let got = s.estimate(req).unwrap();
        assert_eq!(
            bytes(&got),
            fresh_bytes(&session(), req, i > 0),
            "request {i}"
        );
    }
}

/// A fabric too small for the program fails the same way every time and
/// leaves no trace: a later fitting fabric is still answered exactly.
#[test]
fn fabric_too_small_is_never_memoized() {
    let s = session();
    let spec = ProgramSpec::bench("8bitadder");
    let tiny = EstimateRequest::new(spec.clone()).with_fabric(3, 3);
    let fresh_err = session().estimate(&tiny).unwrap_err();
    for _ in 0..2 {
        let err = s.estimate(&tiny).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::Estimate);
        assert_eq!(err.to_string(), fresh_err.to_string());
    }
    let fits = EstimateRequest::new(spec).with_fabric(9, 9);
    assert_eq!(
        bytes(&s.estimate(&fits).unwrap()),
        fresh_bytes(&session(), &fits, true)
    );
}

/// `clear_cache` drops the memo with its program: the next estimate is a
/// cold reply again, rebuilt from a new profile.
#[test]
fn clear_cache_drops_the_estimate_memo() {
    let s = session();
    let req = EstimateRequest::new(ProgramSpec::bench("qft_16")).with_fabric(20, 20);
    s.estimate(&req).unwrap();
    s.clear_cache();
    for cached in [false, true] {
        let got = s.estimate(&req).unwrap();
        assert_eq!(bytes(&got), fresh_bytes(&session(), &req, cached));
    }
    assert_eq!(s.cache_stats().profile_builds, 2);
}

/// `compare`'s `estimated_us` and batch estimates read the same memo and
/// agree with a fresh session.
#[test]
fn compare_and_batch_read_the_estimate_memo() {
    let s = session();
    let spec = ProgramSpec::bench("8bitadder");
    let on = EstimateRequest::new(spec.clone()).with_fabric(14, 14);
    s.estimate(&on).unwrap();
    let compare = CompareRequest::new(spec.clone()).with_fabric(14, 14);
    let got = s.compare(&compare).unwrap();
    let fresh = session().compare(&compare).unwrap();
    assert_eq!(got.estimated_us.to_bits(), fresh.estimated_us.to_bits());
    assert_eq!(
        got.estimated_us.to_bits(),
        s.estimate(&on).unwrap().latency_us.to_bits()
    );

    let requests: Vec<Request> = [on.clone(), EstimateRequest::new(spec), on.clone()]
        .into_iter()
        .map(Request::Estimate)
        .collect();
    let batch = s.batch(&requests);
    for (slot, req) in batch.results.iter().zip(&requests) {
        let Ok(Response::Estimate(got)) = slot else {
            panic!("estimate slot: {slot:?}")
        };
        let Request::Estimate(req) = req else {
            unreachable!()
        };
        assert_eq!(bytes(got), fresh_bytes(&session(), req, true));
    }
}

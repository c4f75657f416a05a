//! Bounded-memory regression: the streaming estimator's peak live heap
//! must stay under a fixed budget at cryptographic scale — the property
//! that justifies the streaming path's existence.
//!
//! The binary installs [`CountingAlloc`] as the global allocator, so the
//! numbers are *live requested bytes*, not RSS: deterministic across
//! machines and allocators. The `shor_1024` test (≈19.7 M lowered ops) is
//! `#[ignore]` by default — it streams tens of millions of gates twice —
//! with a `shor_64` smoke variant that runs everywhere and additionally
//! pins byte-identity against the materialized pipeline.

use leqa::meter::CountingAlloc;
use leqa::stream::FnSource;
use leqa::{Estimate, Estimator};
use leqa_circuit::{decompose::lower_to_ft, Qodg};
use leqa_fabric::{FabricDims, PhysicalParams};
use leqa_workloads::{circuit_by_name, stream_by_name};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

/// Streams `name` through the estimator on `dims`, returning the estimate
/// and the peak live bytes attributable to the call.
fn streamed_estimate_with_peak(name: &str, dims: FabricDims) -> (Estimate, usize) {
    let stream = stream_by_name(name).unwrap_or_else(|| panic!("streamable workload {name}"));
    let source = FnSource::new(stream.num_qubits(), move || stream.ops());
    let estimator = Estimator::new(dims, PhysicalParams::dac13());

    let baseline = ALLOC.live_bytes();
    ALLOC.reset_peak();
    let estimate = estimator
        .estimate_stream(&source)
        .expect("stream is well-formed and fits the fabric");
    let peak = ALLOC.peak_bytes().saturating_sub(baseline);
    (estimate, peak)
}

/// `shor_64` (≈77 k ops, 1162 lowered qubits): small enough to also run
/// the materialized pipeline and require byte-identity, with the memory
/// budget asserted at smoke scale.
#[test]
fn shor_64_smoke_stays_in_budget_and_matches_materialized() {
    // 8 MiB: dominated by the accumulator's fixed 64 Ki-pair chunk buffer
    // and the (tiny) IIG; materializing the same workload costs ~10× more
    // before the profile pass even starts.
    const SMOKE_BUDGET: usize = 8 << 20;

    let (streamed, peak) = streamed_estimate_with_peak("shor_64", FabricDims::dac13());
    println!("shor_64 streaming peak: {} bytes", peak);
    assert!(
        peak < SMOKE_BUDGET,
        "streaming shor_64 peaked at {peak} bytes (budget {SMOKE_BUDGET})"
    );

    let ft = lower_to_ft(&circuit_by_name("shor_64").unwrap()).unwrap();
    let materialized = Estimator::new(FabricDims::dac13(), PhysicalParams::dac13())
        .estimate(&Qodg::from_ft_circuit(&ft))
        .unwrap();
    assert_eq!(streamed.latency, materialized.latency);
    assert_eq!(streamed.l_cnot_avg, materialized.l_cnot_avg);
    assert_eq!(streamed.d_uncong, materialized.d_uncong);
    assert_eq!(streamed.esq, materialized.esq);
    assert_eq!(
        streamed.critical.cnot_count,
        materialized.critical.cnot_count
    );
    assert_eq!(
        streamed.critical.one_qubit_counts,
        materialized.critical.one_qubit_counts
    );
}

/// The acceptance bar: `shor_1024` (19,660,800 lowered ops on 264,322
/// qubits) streams to an estimate in < 1/10 of what materializing it
/// *provably* needs. `#[ignore]` by default: run with
/// `cargo test -p leqa --test bounded_memory --release -- --ignored`.
#[test]
#[ignore = "streams ~20M gates twice; run explicitly (use --release)"]
fn shor_1024_streams_under_a_tenth_of_the_materialized_floor() {
    const BUDGET: usize = 64 << 20; // 64 MiB

    let stream = stream_by_name("shor_1024").unwrap();
    let ops = stream.ft_op_count();
    assert!(ops > 10_000_000, "acceptance demands cryptographic scale");

    // An *analytic lower bound* on the materialized pipeline's live heap,
    // from the closed-form op count. `Qodg::from_ft_circuit(&ft)` copies
    // the lowered op list into the graph's shared op array while `ft`
    // still holds it, and adds per op a CSR offset and at least one
    // predecessor edge (one is pushed for the first operand wire
    // unconditionally). All four arrays are live at once. This ignores
    // the critical-path pass, the IIG pair buffer and every second
    // predecessor edge, so the real peak is higher still.
    let materialized_floor = ops as usize
        * (2 * std::mem::size_of::<leqa_circuit::FtOp>()
            + std::mem::size_of::<u32>()
            + std::mem::size_of::<leqa_circuit::NodeId>());
    assert!(
        BUDGET * 10 < materialized_floor,
        "budget {BUDGET} is not a 10x improvement over the {materialized_floor}-byte floor"
    );

    // 520 x 520 = 270,400 ULBs: the smallest round fabric that fits the
    // 264,322 lowered qubits.
    let dims = FabricDims::new(520, 520).unwrap();
    let (estimate, peak) = streamed_estimate_with_peak("shor_1024", dims);
    println!(
        "shor_1024: {} ops, peak {} bytes ({:.1} MiB), floor {} bytes",
        ops,
        peak,
        peak as f64 / (1 << 20) as f64,
        materialized_floor
    );
    assert!(
        peak < BUDGET,
        "streaming shor_1024 peaked at {peak} bytes (budget {BUDGET})"
    );
    assert_eq!(estimate.qubit_count, 264_322);
    assert!(estimate.latency.as_f64() > 0.0);
    assert!(estimate.critical.cnot_count > 0);
}

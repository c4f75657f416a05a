//! Golden-file tests: `--format json` output is byte-stable.
//!
//! The JSON envelopes are part of the service contract — object key
//! order is fixed, floats use shortest-round-trip formatting — so the
//! exact bytes for a fixed request must never drift silently. If an
//! intentional schema change lands, regenerate with e.g.
//!
//! ```text
//! cargo run -p leqa-cli --release -- estimate --bench 8bitadder --format json \
//!     > crates/cli/tests/golden/estimate_8bitadder.json
//! ```
//!
//! and bump `SCHEMA_VERSION` if the shape (not just values) changed.

fn run(args: &[&str]) -> String {
    let argv: Vec<String> = args.iter().map(|s| s.to_string()).collect();
    let mut out = Vec::new();
    leqa_cli::run(&argv, &mut out).expect("command succeeds");
    String::from_utf8(out).expect("utf8 output")
}

fn assert_golden(actual: &str, golden: &str, name: &str) {
    if actual != golden {
        let mismatch = actual
            .bytes()
            .zip(golden.bytes())
            .position(|(a, b)| a != b)
            .unwrap_or_else(|| actual.len().min(golden.len()));
        panic!(
            "{name}: output drifted from the golden file at byte {mismatch}\n\
             actual:  …{}…\n\
             golden:  …{}…",
            &actual[mismatch.saturating_sub(40)..(mismatch + 40).min(actual.len())],
            &golden[mismatch.saturating_sub(40)..(mismatch + 40).min(golden.len())],
        );
    }
}

#[test]
fn estimate_json_is_byte_stable() {
    assert_golden(
        &run(&["estimate", "--bench", "8bitadder", "--format", "json"]),
        include_str!("golden/estimate_8bitadder.json"),
        "estimate",
    );
}

#[test]
fn sweep_json_is_byte_stable() {
    assert_golden(
        &run(&[
            "sweep",
            "--bench",
            "8bitadder",
            "--sizes",
            "10,20,60",
            "--format",
            "json",
        ]),
        include_str!("golden/sweep_8bitadder.json"),
        "sweep",
    );
}

#[test]
fn zones_json_is_byte_stable() {
    assert_golden(
        &run(&[
            "zones",
            "--bench",
            "8bitadder",
            "--trace",
            "5",
            "--format",
            "json",
        ]),
        include_str!("golden/zones_8bitadder.json"),
        "zones",
    );
}

#[test]
fn map_json_is_byte_stable() {
    assert_golden(
        &run(&["map", "--bench", "8bitadder", "--format", "json"]),
        include_str!("golden/map_8bitadder.json"),
        "map",
    );
}

#[test]
fn compare_json_is_byte_stable() {
    assert_golden(
        &run(&["compare", "--bench", "8bitadder", "--format", "json"]),
        include_str!("golden/compare_8bitadder.json"),
        "compare",
    );
}

#[test]
fn golden_files_decode_under_the_current_schema() {
    // The stored bytes must themselves be valid, current-version envelopes
    // (guards against committing a stale golden after a schema bump).
    let est = leqa_api::json::parse(include_str!("golden/estimate_8bitadder.json").trim_end())
        .expect("golden estimate parses");
    leqa_api::EstimateResponse::from_json(&est).expect("golden estimate decodes");

    let sweep = leqa_api::json::parse(include_str!("golden/sweep_8bitadder.json").trim_end())
        .expect("golden sweep parses");
    leqa_api::SweepResponse::from_json(&sweep).expect("golden sweep decodes");

    let zones = leqa_api::json::parse(include_str!("golden/zones_8bitadder.json").trim_end())
        .expect("golden zones parses");
    leqa_api::ZonesResponse::from_json(&zones).expect("golden zones decodes");

    let map = leqa_api::json::parse(include_str!("golden/map_8bitadder.json").trim_end())
        .expect("golden map parses");
    leqa_api::MapResponse::from_json(&map).expect("golden map decodes");

    let compare = leqa_api::json::parse(include_str!("golden/compare_8bitadder.json").trim_end())
        .expect("golden compare parses");
    leqa_api::CompareResponse::from_json(&compare).expect("golden compare decodes");
}

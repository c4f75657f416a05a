//! Process-level integration tests of the `leqa` binary: real argv, real
//! exit codes, real stdout/stderr.

use std::process::Command;

fn leqa(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_leqa"))
        .args(args)
        .output()
        .expect("binary runs")
}

#[test]
fn help_exits_zero_with_usage() {
    let out = leqa(&["help"]);
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("USAGE"));
}

#[test]
fn unknown_command_exits_nonzero_with_usage_on_stderr() {
    let out = leqa(&["bogus"]);
    assert!(!out.status.success());
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("unknown command"));
    assert!(err.contains("USAGE"));
}

#[test]
fn estimate_bench_end_to_end() {
    let out = leqa(&["estimate", "--bench", "8bitadder"]);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("estimated latency"));
}

#[test]
fn estimate_from_file_end_to_end() {
    let dir = std::env::temp_dir().join("leqa-cli-proc-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("tiny.qc");
    std::fs::write(&path, ".qubits 2\ncnot 0 1\nh 0\n").unwrap();
    let out = leqa(&["compare", path.to_str().unwrap(), "--fabric", "8x8"]);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("absolute error"));
}

#[test]
fn missing_file_reports_io_error() {
    let out = leqa(&["estimate", "/nonexistent/path.qc"]);
    assert!(!out.status.success());
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("io error"));
}

#[test]
fn removed_mapper_flags_are_unknown() {
    // The mapper has one scheduler and no pass pipeline: the flags that
    // selected them are gone and fail as any unknown flag (usage, 2).
    for flag in ["--scheduler", "--passes"] {
        let out = leqa(&["map", "--bench", "qft_8", flag, "greedy"]);
        assert_eq!(out.status.code(), Some(2), "{flag}");
        let err = String::from_utf8(out.stderr).unwrap();
        assert!(err.contains(&format!("unknown flag `{flag}`")), "{err}");
    }
}

#[test]
fn exit_codes_follow_the_error_taxonomy() {
    // Stable per-kind codes (API.md): usage 2, io 3, estimate 6, map 7.
    assert_eq!(leqa(&["bogus"]).status.code(), Some(2));
    assert_eq!(
        leqa(&["estimate", "/nonexistent/path.qc"]).status.code(),
        Some(3)
    );
    assert_eq!(
        leqa(&["estimate", "--bench", "ham15", "--fabric", "5x5"])
            .status
            .code(),
        Some(6)
    );
    assert_eq!(
        leqa(&["map", "--bench", "ham15", "--fabric", "5x5"])
            .status
            .code(),
        Some(7)
    );
}

#[test]
fn json_format_end_to_end() {
    let out = leqa(&["estimate", "--bench", "qft_8", "--format", "json"]);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.starts_with("{\"schema_version\":1,"));
    let doc = leqa_api::json::parse(text.trim_end()).expect("valid json on stdout");
    let resp = leqa_api::EstimateResponse::from_json(&doc).expect("valid estimate envelope");
    assert_eq!(resp.program.label, "qft_8");
    assert!(resp.latency_us > 0.0);
}

#[test]
fn gen_pipes_reparseable_text() {
    let out = leqa(&["gen", "--bench", "hwb15ps"]);
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.starts_with(".name hwb15ps"));
    assert!(leqa_circuit::parser::parse(&text).is_ok());
}

#[test]
fn oversized_program_reports_mapping_error() {
    let out = leqa(&["map", "--bench", "ham15", "--fabric", "5x5"]);
    assert!(!out.status.success());
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("cannot be placed"));
}

#[test]
fn experiment_end_to_end_with_stable_exit_codes() {
    let dir = std::env::temp_dir().join("leqa-cli-proc-experiment");
    std::fs::create_dir_all(&dir).unwrap();
    let spec = dir.join("grid.json");
    std::fs::write(
        &spec,
        r#"{"schema_version":1,"op":"experiment",
            "workloads":["qft_8"],"fabrics":[10,20]}"#,
    )
    .unwrap();
    let spec = spec.to_str().unwrap();

    // Dry run prints the plan and succeeds.
    let out = leqa(&["experiment", "--spec", spec, "--dry-run"]);
    assert!(out.status.success());
    assert!(String::from_utf8(out.stdout).unwrap().contains("2 cells"));

    // A real run streams NDJSON: 2 cell records + 1 summary record.
    let out = leqa(&["experiment", "--spec", spec, "--format", "json"]);
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 3);
    assert!(lines[0].contains("\"op\":\"experiment_cell\""));
    assert!(lines[2].contains("\"op\":\"experiment_summary\""));

    // Stable exit codes: usage 2 (missing --spec / unknown workload),
    // io 3 (unreadable spec), invalid 5 (empty axis), json 8 (bad json).
    assert_eq!(leqa(&["experiment"]).status.code(), Some(2));
    assert_eq!(
        leqa(&["experiment", "--spec", "/nonexistent/spec.json"])
            .status
            .code(),
        Some(3)
    );
    let bad = dir.join("bad.json");
    std::fs::write(&bad, "{oops").unwrap();
    assert_eq!(
        leqa(&["experiment", "--spec", bad.to_str().unwrap()])
            .status
            .code(),
        Some(8)
    );
    let unknown = dir.join("unknown.json");
    std::fs::write(
        &unknown,
        r#"{"schema_version":1,"op":"experiment","workloads":["frob"],"fabrics":[10]}"#,
    )
    .unwrap();
    assert_eq!(
        leqa(&["experiment", "--spec", unknown.to_str().unwrap()])
            .status
            .code(),
        Some(2)
    );
    let empty = dir.join("empty.json");
    std::fs::write(
        &empty,
        r#"{"schema_version":1,"op":"experiment","workloads":["qft_8"],"fabrics":[]}"#,
    )
    .unwrap();
    assert_eq!(
        leqa(&["experiment", "--spec", empty.to_str().unwrap()])
            .status
            .code(),
        Some(5)
    );
}

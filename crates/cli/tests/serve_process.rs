//! Process-level tests of `leqa serve` and `leqa shard`: the stdio
//! transport driven as a real child process, the TCP transport driven
//! through the bundled `leqa-client` (line and pipelined frame modes,
//! overload retries), and the serve-specific exit codes.

use std::io::{BufRead, BufReader, Write};
use std::process::{Child, Command, Stdio};

use leqa_api::{json, ControlFrame, EstimateRequest, ProgramSpec, Request, Session, StatsResponse};

fn estimate_line(name: &str) -> String {
    Request::Estimate(EstimateRequest::new(ProgramSpec::bench(name)))
        .to_json()
        .encode()
}

#[test]
fn stdio_round_trip_is_byte_identical_and_exits_cleanly() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_leqa"))
        .args(["serve", "--stdio"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("daemon starts");
    let mut stdin = child.stdin.take().expect("piped stdin");
    let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));

    let mut roundtrip = |line: &str| -> String {
        writeln!(stdin, "{line}").expect("write request line");
        stdin.flush().expect("flush");
        let mut reply = String::new();
        stdout.read_line(&mut reply).expect("read reply line");
        reply.trim_end_matches('\n').to_string()
    };

    // Two estimates: the second must be served from the daemon's cache,
    // byte-identical to the same sequence on a direct session.
    let direct = Session::builder().build().unwrap();
    let req = EstimateRequest::new(ProgramSpec::bench("qft_8"));
    for _ in 0..2 {
        let reply = roundtrip(&estimate_line("qft_8"));
        let expected = direct.estimate(&req).unwrap().to_json().encode();
        assert_eq!(reply, expected);
    }

    let stats = roundtrip(&ControlFrame::Stats.to_json().encode());
    assert!(stats.contains("\"requests\":{\"estimate\":2,"), "{stats}");
    assert!(stats.contains("\"cache_hits\":1"), "{stats}");

    let ack = roundtrip(&ControlFrame::Shutdown.to_json().encode());
    assert!(ack.contains("\"op\":\"shutdown\""), "{ack}");

    let out = child.wait_with_output().expect("daemon exits");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn stdio_daemon_exits_cleanly_on_pipe_close() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_leqa"))
        .args(["serve", "--stdio"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .expect("daemon starts");
    let mut stdin = child.stdin.take().expect("piped stdin");
    writeln!(stdin, "{}", estimate_line("qft_8")).unwrap();
    drop(stdin); // EOF: the supervisor hung up.
    let out = child.wait_with_output().expect("daemon exits");
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("\"op\":\"estimate\""));
}

#[test]
fn serve_without_a_transport_is_a_usage_error() {
    let out = Command::new(env!("CARGO_BIN_EXE_leqa"))
        .arg("serve")
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("--stdio or --listen"));
}

/// Spawns a `leqa` daemon-style subcommand with `--listen 127.0.0.1:0`
/// plus `extra` flags and parses the announced address from its stdout.
fn spawn_listener(subcommand: &str, extra: &[&str]) -> (Child, String) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_leqa"))
        .args([subcommand, "--listen", "127.0.0.1:0"])
        .args(extra)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("daemon starts");
    let mut line = String::new();
    BufReader::new(child.stdout.as_mut().expect("piped stdout"))
        .read_line(&mut line)
        .expect("announcement line");
    let addr = line
        .trim()
        .strip_prefix("listening on ")
        .expect("announcement format")
        .to_string();
    (child, addr)
}

fn spawn_tcp_daemon() -> (Child, String) {
    spawn_listener("serve", &[])
}

#[test]
fn tcp_daemon_serves_the_bundled_client_and_shuts_down() {
    let (child, addr) = spawn_tcp_daemon();

    let out = Command::new(env!("CARGO_BIN_EXE_leqa-client"))
        .args([
            addr.as_str(),
            &estimate_line("qft_8"),
            &ControlFrame::Stats.to_json().encode(),
        ])
        .output()
        .expect("client runs");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let replies = String::from_utf8(out.stdout).unwrap();
    let lines: Vec<&str> = replies.lines().collect();
    assert_eq!(lines.len(), 2, "{replies}");
    assert!(lines[0].starts_with("{\"schema_version\":1,\"op\":\"estimate\""));
    assert!(lines[1].starts_with("{\"schema_version\":1,\"op\":\"stats\""));

    // An error reply maps to the client's exit code (usage 2 here).
    let out = Command::new(env!("CARGO_BIN_EXE_leqa-client"))
        .args([addr.as_str(), &estimate_line("no-such-bench")])
        .output()
        .expect("client runs");
    assert_eq!(out.status.code(), Some(2));

    let out = Command::new(env!("CARGO_BIN_EXE_leqa-client"))
        .args([addr.as_str(), &ControlFrame::Shutdown.to_json().encode()])
        .output()
        .expect("client runs");
    assert!(out.status.success());

    let out = child.wait_with_output().expect("daemon exits");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
}

/// One line-mode roundtrip on a raw TCP connection.
struct RawClient {
    reader: BufReader<std::net::TcpStream>,
    writer: std::net::TcpStream,
}

impl RawClient {
    fn connect(addr: &str) -> RawClient {
        let stream = std::net::TcpStream::connect(addr).expect("connect");
        RawClient {
            reader: BufReader::new(stream.try_clone().expect("clone")),
            writer: stream,
        }
    }

    fn roundtrip(&mut self, line: &str) -> String {
        writeln!(self.writer, "{line}").expect("write");
        self.writer.flush().expect("flush");
        let mut reply = String::new();
        self.reader.read_line(&mut reply).expect("read");
        reply.trim_end_matches('\n').to_string()
    }
}

fn daemon_stats(probe: &mut RawClient) -> StatsResponse {
    let reply = probe.roundtrip(&ControlFrame::Stats.to_json().encode());
    StatsResponse::from_json(&json::parse(&reply).expect("stats json")).expect("stats frame")
}

/// Regression for the retry satellite: with `--retries 0` the client
/// exits 9 on the first `overloaded` refusal (the old behaviour); with
/// retries enabled it backs off and succeeds once the load drains. The
/// refusal window is held open deterministically by a FIFO-gated hog.
#[test]
#[cfg(unix)]
fn client_retries_overloaded_refusals_until_the_load_drains() {
    let (child, addr) = spawn_listener("serve", &["--max-inflight", "1"]);

    let dir = std::env::temp_dir().join(format!("leqa-client-retry-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let fifo = dir.join("gate.qc");
    let status = Command::new("mkfifo").arg(&fifo).status().expect("mkfifo");
    assert!(status.success(), "mkfifo failed");

    // The hog blocks inside its program load (reading the FIFO), holding
    // the single inflight slot.
    let hog_line = Request::Estimate(EstimateRequest::new(ProgramSpec::path(
        fifo.to_str().expect("utf8 path"),
    )))
    .to_json()
    .encode();
    let hog_addr = addr.clone();
    let hog = std::thread::spawn(move || RawClient::connect(&hog_addr).roundtrip(&hog_line));

    let mut probe = RawClient::connect(&addr);
    while daemon_stats(&mut probe).inflight < 1 {
        std::thread::yield_now();
    }

    // Old behaviour, still reachable: first refusal is fatal.
    let out = Command::new(env!("CARGO_BIN_EXE_leqa-client"))
        .args(["--retries", "0", addr.as_str(), &estimate_line("qft_8")])
        .output()
        .expect("client runs");
    assert_eq!(out.status.code(), Some(9), "no-retry client exits 9");
    let baseline = daemon_stats(&mut probe).overloaded;

    // Retrying client: spawn it, *prove* it was refused at least once,
    // then release the gate so a later retry lands.
    let retrying = Command::new(env!("CARGO_BIN_EXE_leqa-client"))
        .args(["--retries", "12", addr.as_str(), &estimate_line("qft_8")])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("client starts");
    while daemon_stats(&mut probe).overloaded <= baseline {
        std::thread::yield_now();
    }
    std::fs::write(&fifo, ".qubits 2\ncnot 0 1\nh 0\n").expect("feed the fifo");

    let hog_reply = hog.join().expect("hog client");
    assert!(hog_reply.contains("\"op\":\"estimate\""), "{hog_reply}");
    let out = retrying.wait_with_output().expect("client exits");
    assert!(
        out.status.success(),
        "retrying client: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        String::from_utf8_lossy(&out.stdout).contains("\"op\":\"estimate\""),
        "retried reply printed"
    );

    let ack = probe.roundtrip(&ControlFrame::Shutdown.to_json().encode());
    assert!(ack.contains("\"op\":\"shutdown\""), "{ack}");
    let out = child.wait_with_output().expect("daemon exits");
    assert!(out.status.success());
    let _ = std::fs::remove_dir_all(&dir);
}

/// End-to-end tentpole smoke: a 2-replica `leqa shard` front-end serving
/// the pipelined frame-mode client, replies printed in input order and
/// unique-program replies byte-identical to a direct session.
#[test]
fn shard_serves_the_pipelined_client_end_to_end() {
    let (child, addr) = spawn_listener("shard", &["--replicas", "2"]);

    let lines = [
        estimate_line("qft_8"),
        estimate_line("qft_16"),
        estimate_line("8bitadder"),
        estimate_line("qft_8"),
        estimate_line("qft_24"),
    ];
    let out = Command::new(env!("CARGO_BIN_EXE_leqa-client"))
        .args(["--pipeline", "8", addr.as_str()])
        .args(&lines)
        .output()
        .expect("client runs");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).unwrap();
    let replies: Vec<&str> = stdout.lines().collect();
    assert_eq!(replies.len(), lines.len(), "{stdout}");

    // Input order is preserved even though completion is out of order;
    // unique programs must be byte-identical to a direct session. The
    // two qft_8 requests race each other through the pipeline, so either
    // may load the program first: exactly one is the cold rendering and
    // the other the warm one.
    let direct = Session::builder().build().unwrap();
    let bytes = |name: &str| {
        direct
            .estimate(&EstimateRequest::new(ProgramSpec::bench(name)))
            .unwrap()
            .to_json()
            .encode()
    };
    let qft8_cold = bytes("qft_8");
    assert_eq!(replies[1], bytes("qft_16"));
    assert_eq!(replies[2], bytes("8bitadder"));
    let qft8_warm = bytes("qft_8");
    assert!(
        (replies[0] == qft8_cold && replies[3] == qft8_warm)
            || (replies[0] == qft8_warm && replies[3] == qft8_cold),
        "exactly one qft_8 request must have loaded the program:\n{}\n{}",
        replies[0],
        replies[3]
    );
    assert_eq!(replies[4], bytes("qft_24"));

    // Merged stats across replicas account for all five estimates.
    let mut probe = RawClient::connect(&addr);
    let stats = daemon_stats(&mut probe);
    assert_eq!(stats.estimate, 5);

    let ack = probe.roundtrip(&ControlFrame::Shutdown.to_json().encode());
    assert!(ack.contains("\"op\":\"shutdown\""), "{ack}");
    let out = child.wait_with_output().expect("shard exits");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
}

/// Retry satellite, transport path: against a daemon whose replies are
/// dropped by a deterministic fault plan, the retrying client reconnects
/// and converges with correct bytes; with retries disabled the same
/// fault is fatal with the `io` exit code (the give-up path).
#[test]
fn client_rides_out_chaotic_connection_drops_and_gives_up_without_retries() {
    let (child, addr) = spawn_listener("serve", &["--chaos", "seed=5,drop=0.4"]);

    let lines = [
        estimate_line("qft_8"),
        estimate_line("qft_16"),
        estimate_line("8bitadder"),
        estimate_line("qft_8"),
        estimate_line("qft_16"),
        estimate_line("8bitadder"),
    ];
    let out = Command::new(env!("CARGO_BIN_EXE_leqa-client"))
        .args(["--retries", "30", "--deadline-ms", "3000", addr.as_str()])
        .args(&lines)
        .output()
        .expect("client runs");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).unwrap();
    let replies: Vec<&str> = stdout.lines().collect();
    assert_eq!(replies.len(), lines.len(), "{stdout}");

    // A dropped reply still warmed the daemon's cache, so a retried
    // request may legitimately see the warm rendering: pin cold-or-warm.
    let direct = Session::builder().build().unwrap();
    for (i, name) in [
        "qft_8",
        "qft_16",
        "8bitadder",
        "qft_8",
        "qft_16",
        "8bitadder",
    ]
    .iter()
    .enumerate()
    {
        let req = EstimateRequest::new(ProgramSpec::bench(*name));
        let cold = direct.estimate(&req).unwrap().to_json().encode();
        let warm = direct.estimate(&req).unwrap().to_json().encode();
        assert!(
            replies[i] == cold || replies[i] == warm,
            "request {i}: {}",
            replies[i]
        );
    }

    // Give-up path: with every reply dropped and no retry budget, the
    // transport failure surfaces as exit 3 (`io`).
    let (mut drop_all, drop_addr) = spawn_listener("serve", &["--chaos", "seed=5,drop=1.0"]);
    let out = Command::new(env!("CARGO_BIN_EXE_leqa-client"))
        .args([
            "--retries",
            "0",
            drop_addr.as_str(),
            &estimate_line("qft_8"),
        ])
        .output()
        .expect("client runs");
    assert_eq!(out.status.code(), Some(3), "no-retry client exits io");

    // Both daemons drop every shutdown ack too; reap them directly.
    drop_all.kill().expect("kill drop-all daemon");
    let mut chaotic = child;
    let out = Command::new(env!("CARGO_BIN_EXE_leqa-client"))
        .args([
            "--retries",
            "30",
            "--deadline-ms",
            "3000",
            addr.as_str(),
            &ControlFrame::Shutdown.to_json().encode(),
        ])
        .output()
        .expect("client runs");
    if !out.status.success() {
        chaotic.kill().expect("kill chaotic daemon");
    }
    let _ = chaotic.wait();
    let _ = drop_all.wait();
}

/// Retry satellite, `unavailable` path: a shard whose only replica is a
/// dead attached address answers every request with the retryable
/// `unavailable` kind; after the retry budget is spent the client exits
/// with its stable code 11 (the give-up path).
#[test]
fn client_gives_up_on_a_dead_fleet_with_the_unavailable_exit_code() {
    // Port 9 (discard) on loopback is a dead replica: nothing listens.
    let (mut child, addr) = spawn_listener("shard", &["--attach", "127.0.0.1:9"]);

    let out = Command::new(env!("CARGO_BIN_EXE_leqa-client"))
        .args([
            "--retries",
            "2",
            "--deadline-ms",
            "2000",
            addr.as_str(),
            &estimate_line("qft_8"),
        ])
        .output()
        .expect("client runs");
    assert_eq!(out.status.code(), Some(11), "unavailable after retries");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("\"kind\":\"unavailable\""), "{stdout}");

    // The fleet is dead, so a shutdown broadcast cannot ack; reap it.
    child.kill().expect("kill shard");
    let _ = child.wait();
}

/// Warm-restart acceptance: a daemon restarted with the same
/// `--cache-dir` serves previously-seen programs from the snapshot
/// store (`store_hits > 0`, `profile_builds == 0`), and a deliberately
/// corrupted snapshot is detected and recomputed without crashing.
#[test]
fn daemon_restarts_warm_from_the_cache_dir_and_survives_corruption() {
    let dir = std::env::temp_dir().join(format!("leqa-serve-warm-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let dir_flag = dir.to_str().expect("utf8 path").to_string();
    let run_once = || -> (String, StatsResponse) {
        let (child, addr) = spawn_listener("serve", &["--cache-dir", &dir_flag]);
        let mut probe = RawClient::connect(&addr);
        let reply = probe.roundtrip(&estimate_line("qft_8"));
        let stats = daemon_stats(&mut probe);
        let ack = probe.roundtrip(&ControlFrame::Shutdown.to_json().encode());
        assert!(ack.contains("\"op\":\"shutdown\""), "{ack}");
        assert!(child
            .wait_with_output()
            .expect("daemon exits")
            .status
            .success());
        (reply, stats)
    };

    // Cold: the profile is built and snapshotted.
    let (cold_reply, cold_stats) = run_once();
    assert!(cold_reply.contains("\"op\":\"estimate\""), "{cold_reply}");
    assert_eq!(cold_stats.cache.profile_builds, 1, "{cold_stats:?}");
    assert_eq!(cold_stats.store_misses, 1, "{cold_stats:?}");

    // Warm restart: served from the store, no profile pass at all.
    let (warm_reply, warm_stats) = run_once();
    assert_eq!(warm_reply, cold_reply, "byte-identical across restart");
    assert_eq!(warm_stats.cache.profile_builds, 0, "{warm_stats:?}");
    assert!(warm_stats.store_hits > 0, "{warm_stats:?}");

    // Corrupt every snapshot byte-flip-style: the store must reject the
    // damage and the daemon must recompute, never crash or serve junk.
    let mut corrupted = 0;
    for entry in std::fs::read_dir(&dir).expect("store dir") {
        let path = entry.expect("dir entry").path();
        let mut bytes = std::fs::read(&path).expect("snapshot bytes");
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        std::fs::write(&path, &bytes).expect("rewrite snapshot");
        corrupted += 1;
    }
    assert!(corrupted > 0, "the store should hold at least one snapshot");

    let (fixed_reply, fixed_stats) = run_once();
    assert_eq!(fixed_reply, cold_reply, "recomputed reply is identical");
    assert_eq!(fixed_stats.cache.profile_builds, 1, "{fixed_stats:?}");
    assert_eq!(fixed_stats.store_misses, 1, "{fixed_stats:?}");

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn shard_without_replicas_is_a_usage_error() {
    let out = Command::new(env!("CARGO_BIN_EXE_leqa"))
        .args(["shard", "--listen", "127.0.0.1:0"])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("--replicas"));
}

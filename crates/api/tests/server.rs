//! Integration tests of the persistent service daemon: real TCP
//! sockets, concurrent clients, admission control, graceful shutdown.
//!
//! The acceptance bar (ISSUE 5): concurrent TCP clients receive
//! responses **byte-identical** to direct [`Session`] calls, and a
//! saturated inflight cap yields `overloaded` error frames followed by
//! successful requests once the load drains.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::thread::JoinHandle;

use leqa_api::{
    json, BatchRequest, CompareRequest, ControlFrame, ErrorFrame, ErrorKind, EstimateRequest,
    LeqaError, MapRequest, ProgramSpec, Request, Server, ServerConfig, Session, Shard,
    StatsResponse, SweepRequest, ZonesRequest,
};

/// Binds a fresh server on a loopback port and runs its accept loop on
/// a background thread.
fn start(config: ServerConfig) -> (Server, SocketAddr, JoinHandle<Result<(), LeqaError>>) {
    let server = Server::with_config(Session::builder().build().expect("default session"), config);
    let bound = server.bind("127.0.0.1:0").expect("bind loopback");
    let addr = bound.local_addr();
    let handle = std::thread::spawn(move || bound.run());
    (server, addr, handle)
}

/// A line-oriented protocol client.
struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    fn connect(addr: SocketAddr) -> Client {
        let stream = TcpStream::connect(addr).expect("connect");
        Client {
            reader: BufReader::new(stream.try_clone().expect("clone stream")),
            writer: stream,
        }
    }

    /// Sends one line and reads the one reply line (newline stripped).
    fn roundtrip(&mut self, line: &str) -> String {
        self.writer.write_all(line.as_bytes()).expect("send");
        self.writer.write_all(b"\n").expect("send newline");
        self.writer.flush().expect("flush");
        self.read_line()
    }

    fn read_line(&mut self) -> String {
        let mut reply = String::new();
        let n = self.reader.read_line(&mut reply).expect("read reply");
        assert!(n > 0, "server closed the connection unexpectedly");
        reply.trim_end_matches('\n').to_string()
    }
}

fn shutdown_via(addr: SocketAddr) {
    let mut client = Client::connect(addr);
    let ack = client.roundtrip(&ControlFrame::Shutdown.to_json().encode());
    assert!(ack.contains("\"op\":\"shutdown\""), "ack: {ack}");
}

/// The request mix one concurrent client sends, over its own distinct
/// program so `profile_cached` flags are deterministic under races.
fn client_mix(program: &str) -> Vec<Request> {
    let spec = ProgramSpec::bench(program);
    vec![
        Request::Estimate(EstimateRequest::new(spec.clone())),
        // Repeat: the second estimate must report `profile_cached`.
        Request::Estimate(EstimateRequest::new(spec.clone())),
        Request::Sweep(SweepRequest::new(spec.clone(), [10, 20, 40])),
        Request::Zones(ZonesRequest::new(spec.clone()).with_limit(5)),
        Request::Compare(CompareRequest::new(spec.clone()).with_fabric(40, 40)),
        Request::Map(MapRequest::new(spec).with_fabric(40, 40)),
    ]
}

#[test]
fn concurrent_tcp_clients_get_replies_byte_identical_to_direct_sessions() {
    let (_server, addr, handle) = start(ServerConfig::new());
    let programs = ["qft_8", "qft_16", "qft_24", "8bitadder"];

    let replies: Vec<Vec<String>> = std::thread::scope(|scope| {
        let workers: Vec<_> = programs
            .iter()
            .map(|program| {
                scope.spawn(move || {
                    let mut client = Client::connect(addr);
                    client_mix(program)
                        .iter()
                        .map(|req| client.roundtrip(&req.to_json().encode()))
                        .collect::<Vec<String>>()
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("client"))
            .collect()
    });

    // Expected bytes: the same sequence against a fresh direct session
    // per client (each client used its own program, so per-client cache
    // history is independent of interleaving).
    for (program, got) in programs.iter().zip(&replies) {
        let direct = Session::builder().build().unwrap();
        for (req, reply) in client_mix(program).iter().zip(got) {
            let expected = direct.execute(req).expect("direct call").to_json().encode();
            assert_eq!(reply, &expected, "program {program}, request {req:?}");
        }
    }

    shutdown_via(addr);
    handle.join().expect("no panic").expect("clean run");
}

#[test]
fn batch_and_experiment_frames_are_byte_identical_to_direct_calls() {
    let (_server, addr, handle) = start(ServerConfig::new());
    let direct = Session::builder().build().unwrap();
    let mut client = Client::connect(addr);

    let batch = BatchRequest::new([
        Request::Estimate(EstimateRequest::new(ProgramSpec::bench("qft_8"))),
        Request::Estimate(EstimateRequest::new(ProgramSpec::bench("qft_8"))),
        Request::Estimate(EstimateRequest::new(ProgramSpec::bench("nope"))),
        Request::Zones(ZonesRequest::new(ProgramSpec::bench("qft_16")).with_limit(3)),
    ]);
    let reply = client.roundtrip(&batch.to_json().encode());
    let expected = direct.batch(&batch.requests).to_json().encode();
    assert_eq!(reply, expected);

    // The experiment frame rides the same session state (cache deltas in
    // the summary match because both sides ran the batch first).
    let spec = leqa_api::ScenarioSpec::new(
        ["qft_8", "qft_16"],
        [
            leqa_api::FabricEntry::Side(20),
            leqa_api::FabricEntry::Side(40),
        ],
    );
    let reply = client.roundtrip(&spec.to_json().encode());
    let expected = direct
        .batch_experiment(&spec)
        .expect("experiment runs")
        .to_json()
        .encode();
    assert_eq!(reply, expected);

    shutdown_via(addr);
    handle.join().expect("no panic").expect("clean run");
}

#[test]
fn removed_mapper_knobs_are_accepted_as_defaults_and_refused_otherwise() {
    // The mapper has one scheduler (`greedy`) and no pass pipeline. A
    // request may still name those defaults and gets the same bytes as
    // one without them; anything else is an `invalid` error frame, and
    // the server goes on answering.
    let fresh = || Server::new(Session::builder().build().expect("default session"));
    let server = fresh();
    let base = Request::Map(MapRequest::new(ProgramSpec::bench("qft_8")).with_fabric(10, 10))
        .to_json()
        .encode();
    let with = |extra: &str| format!("{},{extra}}}", base.strip_suffix('}').expect("object"));
    let expected = server.process_line(&base).expect("reply");
    assert!(
        expected.starts_with("{\"schema_version\":1,\"op\":\"map\""),
        "{expected}"
    );

    for extra in [
        r#""scheduler":"greedy""#,
        r#""passes":null"#,
        r#""passes":"""#,
        r#""scheduler":"greedy","passes":null"#,
    ] {
        assert_eq!(
            server.process_line(&with(extra)).expect("reply"),
            expected,
            "{extra}"
        );
    }

    let spec = r#"{"schema_version":1,"op":"experiment","workloads":["qft_8"],"fabrics":[10]"#;
    let spec_with = |extra: &str| format!("{spec},{extra}}}");
    // Fresh servers: the summary's cache counters depend on history.
    let spec_expected = fresh().process_line(&format!("{spec}}}")).expect("reply");
    assert!(
        spec_expected.contains("\"scheduler\":\"greedy\""),
        "{spec_expected}"
    );
    assert_eq!(
        fresh()
            .process_line(&spec_with(r#""schedulers":["greedy"],"passes":"""#))
            .expect("reply"),
        spec_expected
    );

    for (line, feature) in [
        (with(r#""scheduler":"mobility""#), "mobility scheduler"),
        (with(r#""passes":"dce""#), "pass pipeline"),
        (
            spec_with(r#""schedulers":["mobility"]"#),
            "mobility scheduler",
        ),
    ] {
        let reply = server.process_line(&line).expect("reply");
        let frame = ErrorFrame::from_json(&json::parse(&reply).unwrap()).expect("error frame");
        assert_eq!(frame.error.kind(), ErrorKind::Invalid, "{line}");
        assert!(frame.error.to_string().contains(feature), "{reply}");
        // The same server answers the next request.
        assert_eq!(server.process_line(&base).expect("reply"), expected);
    }
}

const UPGRADE: &str = r#"{"cmd":"upgrade","proto":"frame1"}"#;

/// Asserts `reply` is the `invalid` refusal of `upgrade`, naming the
/// removed protocol.
fn assert_upgrade_refused(reply: &str) {
    let frame = ErrorFrame::from_json(&json::parse(reply).unwrap()).expect("error frame");
    assert_eq!(frame.error.kind(), ErrorKind::Invalid, "{reply}");
    assert!(
        reply.contains("frame1") && reply.contains("removed"),
        "{reply}"
    );
}

/// The binary frame protocol is gone: `upgrade` gets one `invalid` error
/// frame naming it, over TCP, over stdio and through a shard, and the
/// same connection then answers an estimate byte-identical to a direct
/// session.
#[test]
fn upgrade_is_refused_naming_the_removed_protocol_on_every_transport() {
    let estimate = Request::Estimate(EstimateRequest::new(ProgramSpec::bench("qft_8")))
        .to_json()
        .encode();
    let expected = Session::builder()
        .build()
        .unwrap()
        .execute(&Request::from_json(&json::parse(&estimate).unwrap()).unwrap())
        .unwrap()
        .to_json()
        .encode();

    // TCP.
    let (_server, addr, handle) = start(ServerConfig::new());
    let mut client = Client::connect(addr);
    assert_upgrade_refused(&client.roundtrip(UPGRADE));
    assert_eq!(client.roundtrip(&estimate), expected);
    shutdown_via_open_client(&mut client);
    handle.join().expect("no panic").expect("clean run");

    // Stdio.
    let server = Server::new(Session::builder().build().unwrap());
    let mut reader = std::io::Cursor::new(format!("{UPGRADE}\n{estimate}\n").into_bytes());
    let mut out = Vec::new();
    server.serve_connection(&mut reader, &mut out).unwrap();
    let out = String::from_utf8(out).unwrap();
    let lines: Vec<&str> = out.lines().collect();
    assert_eq!(lines.len(), 2, "{out}");
    assert_upgrade_refused(lines[0]);
    assert_eq!(lines[1], expected);

    // Shard.
    let shard = Shard::new();
    shard
        .spawn_replica(Server::new(Session::builder().build().unwrap()))
        .unwrap();
    let bound = shard.bind("127.0.0.1:0").expect("bind loopback");
    let addr = bound.local_addr();
    let handle = std::thread::spawn(move || bound.run());
    let mut client = Client::connect(addr);
    assert_upgrade_refused(&client.roundtrip(UPGRADE));
    assert_eq!(client.roundtrip(&estimate), expected);
    shutdown_via_open_client(&mut client);
    handle.join().expect("no panic").expect("clean run");
}

/// Saturates the single inflight slot **deterministically**: the hog's
/// `estimate` names a FIFO path, so the server blocks inside the
/// program load (holding the slot) until this test writes the circuit —
/// no timing assumptions anywhere.
#[test]
#[cfg(unix)]
fn saturated_inflight_cap_yields_overloaded_then_recovers() {
    let (_server, addr, handle) = start(ServerConfig::new().max_inflight(1));

    let dir = std::env::temp_dir().join(format!("leqa-server-overload-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let fifo = dir.join("gate.qc");
    let status = std::process::Command::new("mkfifo")
        .arg(&fifo)
        .status()
        .expect("mkfifo runs");
    assert!(status.success(), "mkfifo failed");

    let hog_line = Request::Estimate(EstimateRequest::new(ProgramSpec::path(
        fifo.to_str().expect("utf8 path"),
    )))
    .to_json()
    .encode();
    let hog = std::thread::spawn(move || {
        let mut client = Client::connect(addr);
        client.roundtrip(&hog_line)
    });

    // Control frames bypass admission control: poll stats until the hog
    // provably holds the slot (it is blocked reading the FIFO, so the
    // slot cannot be released before we write the circuit below).
    let mut probe = Client::connect(addr);
    let stats_line = ControlFrame::Stats.to_json().encode();
    loop {
        let reply = probe.roundtrip(&stats_line);
        let stats = StatsResponse::from_json(&json::parse(&reply).unwrap()).unwrap();
        if stats.inflight >= 1 {
            break;
        }
        std::thread::yield_now();
    }

    // Saturated: a work frame is refused with the typed, retryable kind.
    let estimate = Request::Estimate(EstimateRequest::new(ProgramSpec::bench("qft_8")))
        .to_json()
        .encode();
    let reply = probe.roundtrip(&estimate);
    let frame = ErrorFrame::from_json(&json::parse(&reply).unwrap()).expect("error frame");
    assert_eq!(frame.error.kind(), ErrorKind::Overloaded);
    assert_eq!(frame.error.exit_code(), 9);

    // Release the gate: the hog's load unblocks and completes normally.
    std::fs::write(&fifo, ".qubits 2\ncnot 0 1\nh 0\n").expect("feed the fifo");
    let hog_reply = hog.join().expect("hog client");
    assert!(
        hog_reply.starts_with("{\"schema_version\":1,\"op\":\"estimate\""),
        "hog reply: {hog_reply}"
    );

    // Recovery: the refused request now succeeds.
    let reply = probe.roundtrip(&estimate);
    assert!(
        reply.starts_with("{\"schema_version\":1,\"op\":\"estimate\""),
        "recovered reply: {reply}"
    );

    let reply = probe.roundtrip(&stats_line);
    let stats = StatsResponse::from_json(&json::parse(&reply).unwrap()).unwrap();
    assert!(stats.overloaded >= 1, "stats recorded the refusal");
    assert_eq!(stats.inflight, 0, "all permits released");

    shutdown_via(addr);
    handle.join().expect("no panic").expect("clean run");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn connection_cap_refuses_with_one_overloaded_frame() {
    let (_server, addr, handle) = start(ServerConfig::new().max_connections(1));

    let mut first = Client::connect(addr);
    // A roundtrip guarantees the first connection's thread is live
    // before the second connection arrives.
    let reply = first.roundtrip(&ControlFrame::Stats.to_json().encode());
    assert!(reply.contains("\"op\":\"stats\""));

    let mut refused = Client::connect(addr);
    let reply = refused.read_line();
    let frame = ErrorFrame::from_json(&json::parse(&reply).unwrap()).expect("error frame");
    assert_eq!(frame.error.kind(), ErrorKind::Overloaded);
    assert!(frame.error.to_string().contains("connections"));

    shutdown_via_open_client(&mut first);
    handle.join().expect("no panic").expect("clean run");
}

/// Shuts down through an already-open connection (a second connection
/// would be refused by the cap).
fn shutdown_via_open_client(client: &mut Client) {
    let ack = client.roundtrip(&ControlFrame::Shutdown.to_json().encode());
    assert!(ack.contains("\"op\":\"shutdown\""), "ack: {ack}");
}

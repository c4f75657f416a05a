//! `leqa-client` — a minimal TCP client for the `leqa serve` daemon and
//! the `leqa shard` front-end, used by the CI smoke step and handy for
//! manual poking.
//!
//! ```text
//! leqa-client [FLAGS] ADDR [LINE ...]    # send each LINE, print each reply
//! leqa-client [FLAGS] ADDR -             # pipe stdin lines instead
//!
//! --retries N       retry transient failures N times (default 4)
//! --deadline-ms MS  per-attempt reply deadline (default 0 = wait forever)
//! ```
//!
//! Lines go out one at a time, each waiting for its reply (strict
//! NDJSON request/reply alternation); any other `--` flag is a usage
//! error (exit 2).
//!
//! Retries cover `overloaded` and `unavailable` error frames and — since
//! the client can reconnect and resend the one line it is waiting on —
//! transient transport failures too: connection resets, refused
//! connects (a replica mid-restart), and expired `--deadline-ms` reply
//! deadlines. Backoff is `2^attempt` milliseconds plus deterministic
//! seeded jitter (SplitMix64 over the line index and attempt — no
//! wall-clock state, so retried traffic is replayable).
//!
//! Exits 0 when every line got a success reply; exit code 3 (`io`) when
//! the connection fails beyond the retry budget; otherwise the worst
//! error-frame exit code seen after retries (e.g. 11 only when a request
//! stayed `unavailable` through every retry) — so shell pipelines can
//! branch on the taxonomy without parsing JSON.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use leqa_api::{json, ErrorFrame, ErrorKind};
use leqa_fabric::SplitMix64;

struct Cli {
    addr: String,
    lines: Vec<String>,
    retries: u32,
    deadline_ms: u64,
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: leqa-client [--retries N] [--deadline-ms MS] \
         ADDR [LINE ...] (or `-` to read lines from stdin)"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut cli = Cli {
        addr: String::new(),
        lines: Vec::new(),
        retries: 4,
        deadline_ms: 0,
    };
    let mut it = args.into_iter();
    let mut positionals: Vec<String> = Vec::new();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--retries" => {
                let Some(n) = it.next().and_then(|v| v.parse::<u32>().ok()) else {
                    return usage();
                };
                cli.retries = n;
            }
            "--deadline-ms" => {
                let Some(ms) = it.next().and_then(|v| v.parse::<u64>().ok()) else {
                    return usage();
                };
                cli.deadline_ms = ms;
            }
            flag if flag.starts_with("--") => return usage(),
            _ => positionals.push(arg),
        }
    }
    let Some((addr, lines)) = positionals.split_first() else {
        return usage();
    };
    cli.addr = addr.clone();
    cli.lines = lines.to_vec();

    match run(&cli) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(3)
        }
    }
}

/// The input lines, with `-` expanded to stdin and blanks dropped.
fn input_lines(lines: &[String]) -> std::io::Result<Vec<String>> {
    let raw: Vec<String> = if lines.len() == 1 && lines[0] == "-" {
        std::io::stdin().lock().lines().collect::<Result<_, _>>()?
    } else {
        lines.to_vec()
    };
    Ok(raw
        .into_iter()
        .map(|l| l.trim().to_string())
        .filter(|l| !l.is_empty())
        .collect())
}

/// The error-frame exit code a reply carries, if it is an error frame;
/// also flags whether the kind is retryable (`overloaded`, or
/// `unavailable` — a fleet mid-restart).
fn reply_error(reply: &str) -> Option<(u8, bool)> {
    let doc = json::parse(reply.trim_end()).ok()?;
    let frame = ErrorFrame::from_json(&doc).ok()?;
    let retryable = matches!(
        frame.error.kind(),
        ErrorKind::Overloaded | ErrorKind::Unavailable
    );
    Some((frame.error.exit_code(), retryable))
}

/// Deterministic backoff: `2^attempt` milliseconds plus seeded jitter
/// drawn from SplitMix64 over (line index, attempt). No wall-clock
/// state crosses the wire, so retried traffic stays byte-identical and
/// replayable, while the jitter de-synchronizes clients that share a
/// fault window.
fn backoff(idx: usize, attempt: u32) -> Duration {
    let base = 1u64 << attempt.min(10);
    let word = ((idx as u64) << 32) | u64::from(attempt);
    let jitter = (SplitMix64::new(SplitMix64::mix(0x1ea4_c11e, word)).next_f64() * 4.0) as u64;
    Duration::from_millis(base + jitter)
}

/// Whether an I/O failure is worth a reconnect-and-retry: resets and
/// refusals (a replica mid-restart), torn lines, corrupt (non-UTF-8)
/// replies, and expired reply deadlines.
fn transient(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::UnexpectedEof
            | std::io::ErrorKind::ConnectionReset
            | std::io::ErrorKind::ConnectionAborted
            | std::io::ErrorKind::ConnectionRefused
            | std::io::ErrorKind::BrokenPipe
            | std::io::ErrorKind::WouldBlock
            | std::io::ErrorKind::TimedOut
            | std::io::ErrorKind::InvalidData
    )
}

fn run(cli: &Cli) -> std::io::Result<ExitCode> {
    let lines = input_lines(&cli.lines)?;
    run_lines(&cli.addr, &lines, cli.retries, cli.deadline_ms)
}

/// Strict request/reply alternation, one line at a time, reconnecting
/// across transient transport failures.
fn run_lines(
    addr: &str,
    lines: &[String],
    retries: u32,
    deadline_ms: u64,
) -> std::io::Result<ExitCode> {
    let mut conn: Option<BufReader<TcpStream>> = None;
    let mut worst = 0u8;

    for (idx, line) in lines.iter().enumerate() {
        let mut attempt = 0u32;
        let reply = loop {
            match attempt_line(&mut conn, addr, line, deadline_ms) {
                Ok(reply) => match reply_error(&reply) {
                    Some((_, true)) if attempt < retries => {
                        std::thread::sleep(backoff(idx, attempt));
                        attempt += 1;
                    }
                    _ => break reply,
                },
                Err(e) if transient(&e) && attempt < retries => {
                    conn = None;
                    std::thread::sleep(backoff(idx, attempt));
                    attempt += 1;
                }
                Err(e) => return Err(e),
            }
        };
        print!("{reply}");
        if let Some((exit, _)) = reply_error(&reply) {
            worst = worst.max(exit);
        }
    }
    Ok(ExitCode::from(worst))
}

/// One NDJSON attempt: connect if needed, send the line, read one reply
/// line. With a deadline the socket polls in short ticks and the whole
/// read is bounded; an expired deadline surfaces as `TimedOut` (which
/// [`transient`] treats as retryable).
fn attempt_line(
    conn: &mut Option<BufReader<TcpStream>>,
    addr: &str,
    line: &str,
    deadline_ms: u64,
) -> std::io::Result<String> {
    // Take the connection out; it only goes back once the attempt ends
    // with the stream in a reusable (reply-boundary) state.
    let mut reader = match conn.take() {
        Some(reader) => reader,
        None => {
            let stream = TcpStream::connect(addr)?;
            stream.set_nodelay(true)?;
            if deadline_ms > 0 {
                stream.set_read_timeout(Some(Duration::from_millis(deadline_ms.clamp(1, 50))))?;
            }
            BufReader::new(stream)
        }
    };
    let stream = reader.get_mut();
    stream.write_all(line.as_bytes())?;
    stream.write_all(b"\n")?;
    stream.flush()?;

    if deadline_ms == 0 {
        let mut reply = String::new();
        // A line without its trailing newline is a torn reply (the
        // server died mid-write) — retryable, never printed.
        if reader.read_line(&mut reply)? == 0 || !reply.ends_with('\n') {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed the connection before replying",
            ));
        }
        *conn = Some(reader);
        return Ok(reply);
    }

    // Deadline-bounded byte-by-byte read: a `read_line` could lose a
    // partial line to the timeout error, desynchronizing the stream, so
    // the buffer is kept here and the connection dropped on expiry.
    let start = Instant::now();
    let mut bytes = Vec::new();
    let mut byte = [0u8; 1];
    loop {
        if start.elapsed() >= Duration::from_millis(deadline_ms) {
            return Err(std::io::Error::new(
                std::io::ErrorKind::TimedOut,
                format!("no reply within the {deadline_ms} ms deadline"),
            ));
        }
        match reader.read(&mut byte) {
            Ok(0) => {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "server closed the connection before replying",
                ));
            }
            Ok(_) => {
                bytes.push(byte[0]);
                if byte[0] == b'\n' {
                    let reply = String::from_utf8(bytes).map_err(|_| {
                        std::io::Error::new(
                            std::io::ErrorKind::InvalidData,
                            "reply is not valid UTF-8",
                        )
                    })?;
                    *conn = Some(reader);
                    return Ok(reply);
                }
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut
                    || e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
}

//! One `leqa serve --listen 127.0.0.1:0` child process.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::Duration;

use leqa_api::{json, StatsResponse};

/// Arguments the daemon runs with (after the binary path).
pub const DAEMON_ARGS: [&str; 3] = ["serve", "--listen", "127.0.0.1:0"];

/// How long any single reply may take before the request counts as
/// failed (the slowest request of any workload takes well under a
/// second).
const REPLY_TIMEOUT: Duration = Duration::from_secs(30);

/// A running daemon. Dropping it kills and reaps the process if
/// [`shutdown`](Daemon::shutdown) was not called.
pub struct Daemon {
    child: Child,
    // Held open so the daemon never writes into a closed pipe.
    _stdout: BufReader<ChildStdout>,
    addr: SocketAddr,
}

impl Daemon {
    /// Spawns the daemon and waits for its `listening on ADDR` line.
    pub fn spawn(binary: &Path) -> Result<Daemon, String> {
        let mut child = Command::new(binary)
            .args(DAEMON_ARGS)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawning {}: {e}", binary.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        let announced = stdout
            .read_line(&mut line)
            .map_err(|e| e.to_string())
            .and_then(|_| {
                line.trim()
                    .strip_prefix("listening on ")
                    .ok_or_else(|| format!("unexpected daemon output `{}`", line.trim()))
                    .and_then(|a| a.parse::<SocketAddr>().map_err(|e| e.to_string()))
            });
        match announced {
            Ok(addr) => Ok(Daemon {
                child,
                _stdout: stdout,
                addr,
            }),
            Err(e) => {
                let _ = child.kill();
                let _ = child.wait();
                Err(e)
            }
        }
    }

    /// Opens a client connection with `TCP_NODELAY` and the reply timeout.
    pub fn connect(&self) -> Result<Connection, String> {
        let stream = TcpStream::connect(self.addr).map_err(|e| e.to_string())?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        stream
            .set_read_timeout(Some(REPLY_TIMEOUT))
            .map_err(|e| e.to_string())?;
        let reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
        Ok(Connection { stream, reader })
    }

    /// The daemon's counters (`{"cmd":"stats"}`).
    pub fn stats(&self) -> Result<StatsResponse, String> {
        let reply = self.connect()?.call(r#"{"cmd":"stats"}"#)?;
        let doc = json::parse(&reply).map_err(|e| e.to_string())?;
        StatsResponse::from_json(&doc).map_err(|e| e.to_string())
    }

    /// The daemon's peak resident set (`VmHWM`) in MiB.
    pub fn peak_rss_mib(&self) -> Result<f64, String> {
        let path = format!("/proc/{}/status", self.child.id());
        let status = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map(|kib| kib / 1024.0)
            .ok_or_else(|| format!("no VmHWM in {path}"))
    }

    /// Asks the daemon to drain and exit, then reaps it.
    pub fn shutdown(mut self) -> Result<(), String> {
        let acked = self
            .connect()
            .and_then(|mut c| c.call(r#"{"cmd":"shutdown"}"#));
        let status = self.child.wait().map_err(|e| e.to_string())?;
        acked?;
        if status.success() {
            Ok(())
        } else {
            Err(format!("daemon exited with {status}"))
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// One NDJSON client connection.
pub struct Connection {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Connection {
    /// Sends one request line and reads its reply line (without the
    /// newline).
    pub fn call(&mut self, line: &str) -> Result<String, String> {
        self.stream
            .write_all(line.as_bytes())
            .and_then(|()| self.stream.write_all(b"\n"))
            .map_err(|e| format!("send: {e}"))?;
        let mut reply = String::new();
        match self.reader.read_line(&mut reply) {
            Ok(0) => Err("connection closed before a reply".to_string()),
            Ok(_) => {
                if reply.ends_with('\n') {
                    reply.pop();
                }
                Ok(reply)
            }
            Err(e) => Err(format!("receive: {e}")),
        }
    }
}

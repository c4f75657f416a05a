//! `leqa shard` — a sharded front-end over N daemon replicas.
//!
//! One listener accepts clients speaking the same NDJSON protocol as a
//! single daemon (see [`crate::server`]); behind it, N replica daemons
//! (spawned in-process or attached by address) do the work. The
//! front-end:
//!
//! * **routes work frames by content**: the FNV-1a hash of the program's
//!   identity text (bench name, path, or inline source — the same
//!   content-hash discipline as the session profile cache) picks the
//!   replica, so repeats of a program always land on the replica whose
//!   cache is warm;
//! * **broadcasts control frames**: `{"cmd":"stats"}` visits every live
//!   replica in turn and the [`StatsResponse`]s merge
//!   ([`StatsResponse::merge`]) into one fleet-wide snapshot;
//!   `{"cmd":"shutdown"}` stops the whole fleet, then the front-end;
//! * **fails over**: each client connection forwards its lines one at a
//!   time over its own NDJSON link to the routed replica. A link that
//!   closes, tears or returns a reply that is not UTF-8 is reopened and
//!   the request resent (requests are pure computations, so a resend is
//!   safe), at most three times per replica. After that the
//!   request moves to the next live replica; once every replica has
//!   been tried, the reply is a retryable `unavailable` error frame.
//! * **supervises the fleet**: only a failed connect or a failed
//!   supervisor probe marks a replica dead. [`BoundShard::run`] probes
//!   every live replica with a deadline-bounded `{"cmd":"stats"}` ping;
//!   a replica that stops answering is marked dead even if no request
//!   has touched it. When a restart factory is registered
//!   ([`Shard::supervise`]), dead in-process replicas are relaunched on
//!   a fresh port (re-warmed from the profile snapshot store when the
//!   factory builds its sessions with a `cache_dir`) under a **bounded
//!   restart budget** — once the budget is spent the fleet stays down
//!   and clients keep getting `unavailable`. Replica incarnations carry
//!   a generation counter, so a stale link failing cannot kill a freshly
//!   restarted replica.
//!
//! Replies stay **byte-identical** to a direct daemon: work replies are
//! forwarded verbatim.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use crate::dto::{ControlFrame, ErrorFrame, ShutdownAck, StatsResponse};
use crate::json;
use crate::server::{
    serve_lines, write_line, Answer, Frame, LineService, Server, DEFAULT_READ_POLL_MS,
};
use crate::session::fnv1a;
use crate::{ErrorKind, LeqaError};

/// How many times one request is resent to the same replica over a
/// fresh link after its link closed, tore or answered with bytes that
/// are not UTF-8 — and how many times the supervisor re-probes a
/// replica whose probe connection closed — before giving up on it.
const LINK_RETRIES: usize = 3;

/// A factory the supervisor calls to build each replacement replica
/// (typically `Session::builder().cache_dir(…)` + `Server::new`, so the
/// replacement starts warm from the snapshot store).
pub type ReplicaFactory = dyn Fn() -> Result<Server, LeqaError> + Send + Sync;

/// One backend daemon the shard routes to.
struct Replica {
    /// Current address — replaced when the supervisor restarts an
    /// in-process replica on a fresh port.
    addr: Mutex<SocketAddr>,
    /// Cleared fleet-wide when a connect to this replica fails or the
    /// supervisor's probe gets no answer; set again only by a supervised
    /// restart.
    alive: AtomicBool,
    /// Incarnation counter, bumped on every restart. Links remember the
    /// generation they opened against, so a stale link failing cannot
    /// mark a freshly restarted replica dead.
    generation: AtomicU64,
    /// The in-process server for spawned replicas (used to stop and
    /// join them on shutdown, replaced on restart); `None` for attached
    /// replicas.
    server: Mutex<Option<Server>>,
    /// Whether the supervisor may restart this replica (in-process
    /// spawns only; attached replicas have an external owner).
    supervised: bool,
}

impl Replica {
    fn addr(&self) -> SocketAddr {
        *self.addr.lock().expect("no poisoning")
    }
}

struct ShardInner {
    replicas: Mutex<Vec<Arc<Replica>>>,
    /// Join handles of in-process replica accept loops.
    replica_threads: Mutex<Vec<std::thread::JoinHandle<()>>>,
    shutdown: AtomicBool,
    wake_addr: Mutex<Option<SocketAddr>>,
    /// Builds replacement replicas ([`Shard::supervise`]); `None` means
    /// dead replicas stay dead.
    factory: Mutex<Option<Arc<ReplicaFactory>>>,
    /// Remaining supervised restarts — the bounded give-up.
    restart_budget: AtomicU64,
    /// Replicas the supervisor has restarted (surfaced in merged
    /// `{"cmd":"stats"}` replies as `replicas_restarted`).
    replicas_restarted: AtomicU64,
    /// Read-poll period, ms (`0` = [`DEFAULT_READ_POLL_MS`]): socket
    /// poll granularity, and the base for the supervisor's probe pacing
    /// (probe period = 2× this, probe deadline = 4× this).
    read_poll_ms: AtomicU64,
}

/// The sharded front-end (see the [module docs](self)). Cheaply
/// cloneable (an `Arc` handle); clones share the replica set and
/// shutdown flag.
#[derive(Clone)]
pub struct Shard {
    inner: Arc<ShardInner>,
}

impl std::fmt::Debug for Shard {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Shard")
            .field("replicas", &self.replicas())
            .field("shutdown", &self.is_shutting_down())
            .finish_non_exhaustive()
    }
}

impl Default for Shard {
    fn default() -> Self {
        Shard::new()
    }
}

impl Shard {
    /// An empty shard; add replicas with
    /// [`spawn_replica`](Self::spawn_replica) /
    /// [`attach_replica`](Self::attach_replica) before binding.
    #[must_use]
    pub fn new() -> Shard {
        Shard {
            inner: Arc::new(ShardInner {
                replicas: Mutex::new(Vec::new()),
                replica_threads: Mutex::new(Vec::new()),
                shutdown: AtomicBool::new(false),
                wake_addr: Mutex::new(None),
                factory: Mutex::new(None),
                restart_budget: AtomicU64::new(0),
                replicas_restarted: AtomicU64::new(0),
                read_poll_ms: AtomicU64::new(0),
            }),
        }
    }

    /// Registers a restart factory and a bounded restart budget: the
    /// supervisor inside [`BoundShard::run`] replaces each dead
    /// in-process replica with `factory()` bound to a fresh port, at
    /// most `budget` times fleet-wide. Build the factory's sessions with
    /// [`SessionBuilder::cache_dir`](crate::SessionBuilder::cache_dir)
    /// and replacements start warm from the profile snapshot store.
    /// Once the budget is spent, dead replicas stay dead and clients
    /// keep receiving retryable `unavailable` errors — the bounded
    /// give-up.
    pub fn supervise(
        &self,
        factory: impl Fn() -> Result<Server, LeqaError> + Send + Sync + 'static,
        budget: u64,
    ) {
        *self.inner.factory.lock().expect("no poisoning") = Some(Arc::new(factory));
        self.inner.restart_budget.store(budget, Ordering::Release);
    }

    /// Sets the read-poll period in milliseconds (`0` = the default,
    /// [`DEFAULT_READ_POLL_MS`]) — socket poll granularity and the base
    /// of the supervisor's probe pacing; pass the same value as the
    /// replicas' [`ServerConfig::read_poll_ms`](crate::ServerConfig::read_poll_ms)
    /// so one knob tunes the whole deployment.
    pub fn set_read_poll_ms(&self, ms: u64) {
        self.inner.read_poll_ms.store(ms, Ordering::Release);
    }

    /// Replicas the supervisor has restarted so far.
    #[must_use]
    pub fn replicas_restarted(&self) -> u64 {
        self.inner.replicas_restarted.load(Ordering::Relaxed)
    }

    fn read_poll(&self) -> Duration {
        let ms = match self.inner.read_poll_ms.load(Ordering::Acquire) {
            0 => DEFAULT_READ_POLL_MS,
            ms => ms,
        };
        Duration::from_millis(ms)
    }

    /// Spawns `server` as an in-process replica on a loopback port of
    /// the OS's choosing and returns its address. The replica's accept
    /// loop runs on its own thread; it is stopped and joined when the
    /// shard shuts down.
    ///
    /// # Errors
    ///
    /// [`ErrorKind::Io`] when the replica cannot bind or its accept
    /// thread cannot be spawned.
    pub fn spawn_replica(&self, server: Server) -> Result<SocketAddr, LeqaError> {
        let bound = server.bind("127.0.0.1:0")?;
        let addr = bound.local_addr();
        let handle = std::thread::Builder::new()
            .name("leqa-shard-replica".to_string())
            .spawn(move || {
                let _ = bound.run();
            })
            .map_err(LeqaError::from)?;
        self.inner
            .replica_threads
            .lock()
            .expect("no poisoning")
            .push(handle);
        self.push_replica(Replica {
            addr: Mutex::new(addr),
            alive: AtomicBool::new(true),
            generation: AtomicU64::new(0),
            server: Mutex::new(Some(server)),
            supervised: true,
        });
        Ok(addr)
    }

    /// Attaches an already-running daemon at `addr` as a replica. The
    /// shard forwards shutdown to it but does not own its lifecycle.
    ///
    /// # Errors
    ///
    /// [`ErrorKind::Usage`] when `addr` is not a valid socket address.
    pub fn attach_replica(&self, addr: &str) -> Result<SocketAddr, LeqaError> {
        let addr: SocketAddr = addr
            .parse()
            .map_err(|_| LeqaError::usage(format!("invalid replica address `{addr}`")))?;
        self.push_replica(Replica {
            addr: Mutex::new(addr),
            alive: AtomicBool::new(true),
            generation: AtomicU64::new(0),
            server: Mutex::new(None),
            supervised: false,
        });
        Ok(addr)
    }

    /// Number of replicas (live or dead).
    #[must_use]
    pub fn replicas(&self) -> usize {
        self.inner.replicas.lock().expect("no poisoning").len()
    }

    /// Whether shutdown was requested. Once set it never clears.
    #[must_use]
    pub fn is_shutting_down(&self) -> bool {
        self.inner.shutdown.load(Ordering::Acquire)
    }

    /// Requests graceful shutdown: the accept loop stops, client
    /// connections drain, and spawned replicas are stopped and joined by
    /// [`BoundShard::run`]. Idempotent.
    pub fn shutdown(&self) {
        self.inner.shutdown.store(true, Ordering::Release);
        let wake = *self.inner.wake_addr.lock().expect("no poisoning");
        if let Some(addr) = wake {
            // Wake a blocked `accept`; the loop re-checks the flag
            // before serving whatever it accepted.
            let _ = TcpStream::connect_timeout(&addr, self.read_poll());
        }
    }

    /// Binds the front-end listener (port `0` lets the OS pick).
    ///
    /// # Errors
    ///
    /// [`ErrorKind::Io`] when the address cannot be bound.
    pub fn bind(&self, addr: &str) -> Result<BoundShard, LeqaError> {
        let listener = TcpListener::bind(addr)
            .map_err(LeqaError::from)
            .map_err(|e| e.context(format!("binding `{addr}`")))?;
        let local = listener.local_addr().map_err(LeqaError::from)?;
        *self.inner.wake_addr.lock().expect("no poisoning") = Some(local);
        Ok(BoundShard {
            shard: self.clone(),
            listener,
            local,
        })
    }

    fn push_replica(&self, replica: Replica) {
        self.inner
            .replicas
            .lock()
            .expect("no poisoning")
            .push(Arc::new(replica));
    }

    fn replica_snapshot(&self) -> Vec<Arc<Replica>> {
        self.inner.replicas.lock().expect("no poisoning").clone()
    }

    /// One supervisor pass: probe live replicas (deadline-bounded stats
    /// ping), restart dead supervised ones while the budget lasts.
    fn supervise_once(&self) {
        let deadline = self.read_poll() * 4;
        for replica in self.replica_snapshot() {
            if self.is_shutting_down() {
                return;
            }
            if replica.alive.load(Ordering::Acquire) {
                if !probe_replica(&replica, deadline) {
                    replica.alive.store(false, Ordering::Release);
                }
            } else if replica.supervised {
                self.try_restart(&replica);
            }
        }
    }

    /// Replaces a dead in-process replica with a fresh one from the
    /// restart factory, spending one unit of the bounded budget (a
    /// factory or bind failure still spends it — a persistently failing
    /// environment must converge on give-up, not loop forever).
    fn try_restart(&self, replica: &Arc<Replica>) {
        let factory = self.inner.factory.lock().expect("no poisoning").clone();
        let Some(factory) = factory else {
            return;
        };
        let budget_left = self
            .inner
            .restart_budget
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |n| n.checked_sub(1))
            .is_ok();
        if !budget_left {
            return;
        }
        let Ok(server) = factory() else {
            return;
        };
        let Ok(bound) = server.bind("127.0.0.1:0") else {
            return;
        };
        let addr = bound.local_addr();
        let Ok(handle) = std::thread::Builder::new()
            .name("leqa-shard-replica".to_string())
            .spawn(move || {
                let _ = bound.run();
            })
        else {
            return;
        };
        self.inner
            .replica_threads
            .lock()
            .expect("no poisoning")
            .push(handle);
        {
            let mut slot = replica.server.lock().expect("no poisoning");
            // The old incarnation may be half-dead rather than gone;
            // make sure it is fully draining before it is dropped.
            if let Some(old) = slot.take() {
                old.shutdown();
            }
            *slot = Some(server);
        }
        *replica.addr.lock().expect("no poisoning") = addr;
        // Publish the new address *before* the generation bump: a link
        // that observes the new generation must connect to the new port.
        replica.generation.fetch_add(1, Ordering::AcqRel);
        replica.alive.store(true, Ordering::Release);
        self.inner
            .replicas_restarted
            .fetch_add(1, Ordering::Relaxed);
    }
}

/// Deadline-bounded health probe: connect, send `{"cmd":"stats"}`, and
/// require at least one full reply line back within the deadline. A
/// probe connection that closes before replying is retried, like a
/// request link, at most [`LINK_RETRIES`] times; a failed connect or an
/// expired deadline fails the probe at once.
fn probe_replica(replica: &Replica, deadline: Duration) -> bool {
    for _ in 0..=LINK_RETRIES {
        match probe_once(replica.addr(), deadline) {
            Probe::Answered => return true,
            Probe::Closed => {}
            Probe::Silent => return false,
        }
    }
    false
}

enum Probe {
    Answered,
    /// The connection closed (or reset) before a full reply line.
    Closed,
    /// No connection, or no reply within the deadline.
    Silent,
}

fn probe_once(addr: SocketAddr, deadline: Duration) -> Probe {
    let Ok(mut stream) = TcpStream::connect_timeout(&addr, deadline) else {
        return Probe::Silent;
    };
    if stream.set_read_timeout(Some(deadline)).is_err()
        || stream.set_write_timeout(Some(deadline)).is_err()
    {
        return Probe::Silent;
    }
    if stream.write_all(b"{\"cmd\":\"stats\"}\n").is_err() || stream.flush().is_err() {
        return Probe::Closed;
    }
    let start = Instant::now();
    let mut buf = [0u8; 1024];
    loop {
        if start.elapsed() > deadline {
            return Probe::Silent;
        }
        match stream.read(&mut buf) {
            Ok(0) => return Probe::Closed,
            Ok(n) => {
                if buf[..n].contains(&b'\n') {
                    return Probe::Answered;
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            // WouldBlock/TimedOut: the read timeout is the deadline.
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                return Probe::Silent
            }
            Err(_) => return Probe::Closed,
        }
    }
}

/// A [`Shard`] bound to its front-door address, ready to
/// [`run`](Self::run).
#[derive(Debug)]
pub struct BoundShard {
    shard: Shard,
    listener: TcpListener,
    local: SocketAddr,
}

impl BoundShard {
    /// The actual bound address.
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.local
    }

    /// A handle to the shard (clone it to trigger [`Shard::shutdown`]
    /// from a supervising thread).
    #[must_use]
    pub fn shard(&self) -> &Shard {
        &self.shard
    }

    /// Accepts and serves clients until shutdown, supervising the fleet
    /// the whole time (health probes + bounded restarts — see
    /// [`Shard::supervise`]); then joins client threads, stops spawned
    /// replicas and joins their accept loops.
    ///
    /// # Errors
    ///
    /// [`ErrorKind::Io`] when a client thread cannot be spawned.
    pub fn run(self) -> Result<(), LeqaError> {
        let supervisor = {
            let shard = self.shard.clone();
            std::thread::Builder::new()
                .name("leqa-shard-supervisor".to_string())
                .spawn(move || {
                    // Probe at 2× the read-poll period: fast enough that
                    // a dead replica is noticed within a few poll ticks,
                    // slow enough that probes stay background noise.
                    while !shard.is_shutting_down() {
                        std::thread::sleep(shard.read_poll() * 2);
                        if shard.is_shutting_down() {
                            break;
                        }
                        shard.supervise_once();
                    }
                })
                .map_err(LeqaError::from)?
        };
        let mut handles: Vec<std::thread::JoinHandle<()>> = Vec::new();
        for stream in self.listener.incoming() {
            if self.shard.is_shutting_down() {
                break;
            }
            let stream = match stream {
                Ok(stream) => stream,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    std::thread::sleep(self.shard.read_poll());
                    continue;
                }
            };
            handles.retain(|h| !h.is_finished());
            let shard = self.shard.clone();
            let handle = std::thread::Builder::new()
                .name("leqa-shard-conn".to_string())
                .spawn(move || {
                    let _ = serve_client(&shard, stream);
                })
                .map_err(LeqaError::from)?;
            handles.push(handle);
        }
        drop(self.listener);
        for handle in handles {
            let _ = handle.join();
        }
        let _ = supervisor.join();
        // Stop spawned replicas (already draining when the shutdown came
        // over the wire — `Server::shutdown` is idempotent) and join
        // their accept loops.
        for replica in self.shard.replica_snapshot() {
            if let Some(server) = replica.server.lock().expect("no poisoning").as_ref() {
                server.shutdown();
            }
        }
        let threads: Vec<_> = self
            .shard
            .inner
            .replica_threads
            .lock()
            .expect("no poisoning")
            .drain(..)
            .collect();
        for handle in threads {
            let _ = handle.join();
        }
        Ok(())
    }
}

// ── Per-connection state ─────────────────────────────────────────────

/// One client connection's NDJSON link to a replica incarnation.
struct Link {
    stream: BufReader<TcpStream>,
    /// The replica generation this link was opened against.
    generation: u64,
}

impl Link {
    fn open(replica: &Replica, generation: u64, read_poll: Duration) -> Option<Link> {
        let stream = TcpStream::connect(replica.addr()).ok()?;
        stream.set_nodelay(true).ok()?;
        stream.set_read_timeout(Some(read_poll)).ok()?;
        Some(Link {
            stream: BufReader::new(stream),
            generation,
        })
    }

    /// Sends one request line and reads its reply line (newline
    /// stripped). `None` when the link closed, tore, failed, answered
    /// with bytes that are not UTF-8, or its replica was marked dead
    /// while the reply was awaited.
    fn round_trip(&mut self, line: &str, replica: &Replica) -> Option<String> {
        write_line(self.stream.get_mut(), line).ok()?;
        let mut reply = String::new();
        loop {
            match self.stream.read_line(&mut reply) {
                // EOF, possibly after a torn prefix, lands here too.
                Ok(_) => return reply.strip_suffix('\n').map(str::to_string),
                Err(e)
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        || e.kind() == std::io::ErrorKind::TimedOut
                        || e.kind() == std::io::ErrorKind::Interrupted =>
                {
                    if !replica.alive.load(Ordering::Acquire) {
                        return None;
                    }
                }
                Err(_) => return None,
            }
        }
    }
}

/// The shard as one client connection sees it: the replica set (index
/// stable for this connection; the `alive` flags inside are the shared
/// fleet-wide ones) and this connection's links, opened lazily.
struct ClientConn {
    shard: Shard,
    replicas: Vec<Arc<Replica>>,
    links: Vec<Option<Link>>,
}

fn unavailable() -> String {
    let e = LeqaError::new(
        ErrorKind::Unavailable,
        "no live replicas (fleet dead or restarting); retry",
    );
    ErrorFrame::new(e).to_json().encode()
}

impl LineService for ClientConn {
    fn stopping(&self) -> bool {
        self.shard.is_shutting_down()
    }

    fn answer(&mut self, line: &mut String) -> Answer {
        let text = line.trim();
        if text.is_empty() {
            return Answer::Skip;
        }
        Answer::Reply(match Frame::parse(text) {
            Err(e) => ErrorFrame::new(e).to_json().encode(),
            Ok(Frame::Control(control)) => self.broadcast(control, text),
            Ok(work) => {
                let n = self.replicas.len();
                let start = route_hash(&work, text) % n.max(1) as u64;
                let start = usize::try_from(start).expect("mod n fits usize");
                (0..n)
                    .find_map(|i| self.exchange((start + i) % n, text))
                    .unwrap_or_else(unavailable)
            }
        })
    }

    fn write_reply(&mut self, writer: &mut dyn Write, reply: &str) -> std::io::Result<bool> {
        write_line(writer, reply)?;
        Ok(true)
    }

    fn error_reply(&self, e: LeqaError) -> String {
        ErrorFrame::new(e).to_json().encode()
    }
}

impl ClientConn {
    /// Sends one request line to replica `r` and returns its reply. A
    /// failed link is reopened and the request resent, at most
    /// [`LINK_RETRIES`] times; `None` means the replica is dead (a
    /// failed connect marks it so) or kept failing, and the caller moves
    /// on.
    fn exchange(&mut self, r: usize, line: &str) -> Option<String> {
        let replica = Arc::clone(&self.replicas[r]);
        for _ in 0..=LINK_RETRIES {
            if !replica.alive.load(Ordering::Acquire) {
                return None;
            }
            let generation = replica.generation.load(Ordering::Acquire);
            let mut link = match self.links[r].take() {
                Some(link) if link.generation == generation => link,
                // None yet, or one to an older incarnation (a stale
                // port): connect to the current one.
                _ => match Link::open(&replica, generation, self.shard.read_poll()) {
                    Some(link) => link,
                    None => {
                        // A stale address failing says nothing about a
                        // freshly restarted incarnation.
                        if replica.generation.load(Ordering::Acquire) == generation {
                            replica.alive.store(false, Ordering::Release);
                        }
                        return None;
                    }
                },
            };
            if let Some(reply) = link.round_trip(line, &replica) {
                self.links[r] = Some(link);
                return Some(reply);
            }
        }
        None
    }

    /// Visits every live replica in turn with a control frame: `stats`
    /// replies merge into one fleet-wide snapshot; `shutdown` stops the
    /// fleet, then the front-end. A replica that fails on the way is
    /// skipped.
    fn broadcast(&mut self, control: ControlFrame, text: &str) -> String {
        let live: Vec<usize> = (0..self.replicas.len())
            .filter(|&r| self.replicas[r].alive.load(Ordering::Acquire))
            .collect();
        if live.is_empty() {
            return unavailable();
        }
        let mut merged = StatsResponse::default();
        for r in live {
            let stats = self
                .exchange(r, text)
                .and_then(|reply| StatsResponse::from_json(&json::parse(&reply).ok()?).ok());
            if let Some(stats) = stats {
                merged.merge(&stats);
            }
        }
        match control {
            ControlFrame::Stats => {
                // The replicas each report 0 restarts (the supervisor
                // lives here, not there); the fleet-wide count is the
                // shard's.
                merged.replicas_restarted += self.shard.replicas_restarted();
                merged.to_json().encode()
            }
            ControlFrame::Shutdown => {
                self.shard.shutdown();
                ShutdownAck.to_json().encode()
            }
        }
    }
}

/// Serves one client connection end to end.
fn serve_client(shard: &Shard, stream: TcpStream) -> std::io::Result<()> {
    stream.set_read_timeout(Some(shard.read_poll()))?;
    stream.set_nodelay(true)?;
    let replicas = shard.replica_snapshot();
    let mut conn = ClientConn {
        shard: shard.clone(),
        links: replicas.iter().map(|_| None).collect(),
        replicas,
    };
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = stream;
    serve_lines(&mut conn, &mut reader, &mut writer)
}

/// The routing hash: program identity text for single requests (cache
/// affinity — every repeat of a program lands on the same replica),
/// whole payload for batch/experiment envelopes.
fn route_hash(frame: &Frame, text: &str) -> u64 {
    match frame {
        Frame::Single(req) => {
            let identity = match req.program() {
                crate::ProgramSpec::Bench { name } => name.as_str(),
                crate::ProgramSpec::Path { path } => path.as_str(),
                crate::ProgramSpec::Source { text } => text.as_str(),
            };
            fnv1a(identity.as_bytes())
        }
        _ => fnv1a(text.trim().as_bytes()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{EstimateRequest, ProgramSpec, Request, Session};
    use std::io::BufReader;

    fn estimate_line(name: &str) -> String {
        Request::Estimate(EstimateRequest::new(ProgramSpec::bench(name)))
            .to_json()
            .encode()
    }

    fn shard_with_replicas(n: usize) -> (Shard, Vec<Server>) {
        let shard = Shard::new();
        let servers: Vec<Server> = (0..n)
            .map(|_| Server::new(Session::builder().build().expect("session")))
            .collect();
        for server in &servers {
            shard.spawn_replica(server.clone()).expect("replica spawns");
        }
        (shard, servers)
    }

    fn run_shard(shard: &Shard) -> (SocketAddr, std::thread::JoinHandle<Result<(), LeqaError>>) {
        let bound = shard.bind("127.0.0.1:0").expect("bind");
        let addr = bound.local_addr();
        let handle = std::thread::spawn(move || bound.run());
        (addr, handle)
    }

    struct LineClient {
        reader: BufReader<TcpStream>,
        stream: TcpStream,
    }

    impl LineClient {
        fn connect(addr: SocketAddr) -> LineClient {
            let stream = TcpStream::connect(addr).expect("connect");
            stream.set_nodelay(true).expect("nodelay");
            LineClient {
                reader: BufReader::new(stream.try_clone().expect("clone")),
                stream,
            }
        }

        fn roundtrip(&mut self, line: &str) -> String {
            writeln!(self.stream, "{line}").expect("write");
            self.stream.flush().expect("flush");
            let mut reply = String::new();
            self.reader.read_line(&mut reply).expect("read");
            reply.trim_end_matches('\n').to_string()
        }
    }

    #[test]
    fn shard_routes_work_merges_stats_and_shuts_down() {
        let (shard, _servers) = shard_with_replicas(2);
        let (addr, handle) = run_shard(&shard);
        let mut client = LineClient::connect(addr);

        // Byte-identity with a direct session, cold then warm: the
        // repeat must land on the same replica (cache affinity), so its
        // reply carries `profile_cached: true` exactly like the direct
        // session's second call.
        let direct = Session::builder().build().unwrap();
        let req = EstimateRequest::new(ProgramSpec::bench("qft_8"));
        let cold = direct.estimate(&req).unwrap().to_json().encode();
        let warm = direct.estimate(&req).unwrap().to_json().encode();
        assert_eq!(client.roundtrip(&estimate_line("qft_8")), cold);
        assert_eq!(client.roundtrip(&estimate_line("qft_8")), warm);

        // Stats broadcast: merged across both replicas.
        let stats_reply = client.roundtrip(r#"{"cmd":"stats"}"#);
        let stats = StatsResponse::from_json(&json::parse(&stats_reply).unwrap()).unwrap();
        assert_eq!(stats.estimate, 2, "{stats_reply}");
        assert_eq!(stats.cache.cache_hits, 1, "affinity: {stats_reply}");
        assert!(stats.connections >= 2, "both replicas: {stats_reply}");

        let ack = client.roundtrip(r#"{"cmd":"shutdown"}"#);
        assert_eq!(ack, ShutdownAck.to_json().encode());
        handle.join().expect("no panic").expect("clean exit");
    }

    #[test]
    fn shard_fails_over_when_a_replica_dies_midstream() {
        let (shard, servers) = shard_with_replicas(2);
        let (addr, handle) = run_shard(&shard);
        let mut client = LineClient::connect(addr);

        let r1 = client.roundtrip(&estimate_line("qft_8"));
        let r2 = client.roundtrip(&estimate_line("qft_16"));
        assert!(r1.contains("\"op\":\"estimate\""), "{r1}");
        assert!(r2.contains("\"op\":\"estimate\""), "{r2}");

        // Kill replica 0 out from under the shard. Requests racing the
        // replica's drain may see one `overloaded` refusal forwarded
        // verbatim; once the dropped link is observed, work re-routes to
        // the surviving replica.
        servers[0].shutdown();
        for name in ["qft_8", "qft_16", "qft_8"] {
            let mut reply = String::new();
            for _ in 0..100 {
                reply = client.roundtrip(&estimate_line(name));
                if reply.contains("\"op\":\"estimate\"") {
                    break;
                }
                std::thread::sleep(std::time::Duration::from_millis(20));
            }
            assert!(
                reply.contains("\"op\":\"estimate\""),
                "after failover: {reply}"
            );
        }

        let ack = client.roundtrip(r#"{"cmd":"shutdown"}"#);
        assert!(ack.contains("\"op\":\"shutdown\""), "{ack}");
        handle.join().expect("no panic").expect("clean exit");
    }

    #[test]
    fn dropped_replies_are_resent_without_marking_the_replica_dead() {
        // The only replica drops one reply in ten, and there is no
        // restart factory: a replica marked dead would stay dead. A
        // dropped reply closes the link, so the shard reopens it and
        // resends; only a failed connect or probe is a death.
        let plan = crate::FaultPlan::parse("seed=3,drop=0.1").expect("valid plan");
        let session = Session::builder().build().expect("session");
        let shard = Shard::new();
        shard
            .spawn_replica(Server::with_chaos(
                session,
                crate::ServerConfig::new(),
                plan,
            ))
            .expect("replica spawns");
        let (addr, handle) = run_shard(&shard);
        let mut client = LineClient::connect(addr);

        let direct = Session::builder().build().unwrap();
        let req = EstimateRequest::new(ProgramSpec::bench("qft_8"));
        let cold = direct.estimate(&req).unwrap().to_json().encode();
        let warm = direct.estimate(&req).unwrap().to_json().encode();
        for i in 0..100 {
            let mut unavailable = 0;
            let reply = loop {
                let reply = client.roundtrip(&estimate_line("qft_8"));
                if !reply.contains("\"kind\":\"unavailable\"") {
                    break reply;
                }
                unavailable += 1;
                assert!(unavailable < 20, "request {i} stayed unavailable");
                std::thread::sleep(Duration::from_millis(10));
            };
            // A resent first request may find the profile already built.
            assert!(
                reply == warm || (i == 0 && reply == cold),
                "request {i}: {reply}"
            );
        }

        drop(client);
        shard.shutdown();
        handle.join().expect("no panic").expect("clean exit");
    }

    #[test]
    fn supervisor_restarts_dead_replicas_warm_from_the_store() {
        let dir = std::env::temp_dir().join(format!("leqa-shard-restart-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let shard = Shard::new();
        shard.set_read_poll_ms(10); // fast probes so the test converges quickly
        let server = Server::new(
            Session::builder()
                .cache_dir(&dir)
                .build()
                .expect("session with store"),
        );
        shard.spawn_replica(server.clone()).expect("replica spawns");
        let factory_dir = dir.clone();
        shard.supervise(
            move || {
                Ok(Server::new(
                    Session::builder().cache_dir(&factory_dir).build()?,
                ))
            },
            4,
        );
        let (addr, handle) = run_shard(&shard);
        let mut client = LineClient::connect(addr);

        // Warm the snapshot store through the first incarnation, and pin
        // the byte-stable direct replies for later comparison.
        let direct = Session::builder().build().unwrap();
        let req = EstimateRequest::new(ProgramSpec::bench("qft_8"));
        let cold = direct.estimate(&req).unwrap().to_json().encode();
        let warm = direct.estimate(&req).unwrap().to_json().encode();
        assert_eq!(client.roundtrip(&estimate_line("qft_8")), cold);

        // Kill the only replica out from under the shard; the supervisor
        // must notice (probe failure or link death) and restart it.
        server.shutdown();
        let mut reply = String::new();
        for _ in 0..500 {
            reply = client.roundtrip(&estimate_line("qft_8"));
            if reply.contains("\"op\":\"estimate\"") {
                break;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        assert!(
            reply == cold || reply == warm,
            "restarted replica answers byte-identically: {reply}"
        );

        // The replacement came up warm from the snapshot store: it
        // served a seen program without building a single profile.
        let stats_reply = client.roundtrip(r#"{"cmd":"stats"}"#);
        let stats = StatsResponse::from_json(&json::parse(&stats_reply).unwrap()).unwrap();
        assert!(stats.replicas_restarted >= 1, "{stats_reply}");
        assert_eq!(stats.replicas_restarted, shard.replicas_restarted());
        assert!(stats.store_hits >= 1, "warm from store: {stats_reply}");
        assert_eq!(
            stats.cache.profile_builds, 0,
            "no rebuilds after restart: {stats_reply}"
        );

        let ack = client.roundtrip(r#"{"cmd":"shutdown"}"#);
        assert!(ack.contains("\"op\":\"shutdown\""), "{ack}");
        handle.join().expect("no panic").expect("clean exit");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn dead_fleet_without_a_factory_answers_unavailable() {
        let shard = Shard::new();
        shard.set_read_poll_ms(5);
        // Port 9 (discard) on loopback: nothing listens, connects are
        // refused immediately — a permanently dead attached replica.
        shard.attach_replica("127.0.0.1:9").expect("valid address");
        let (addr, handle) = run_shard(&shard);
        let mut client = LineClient::connect(addr);
        let reply = client.roundtrip(&estimate_line("qft_8"));
        let frame = ErrorFrame::from_json(&json::parse(&reply).unwrap()).unwrap();
        assert_eq!(frame.error.kind(), ErrorKind::Unavailable, "{reply}");
        // Unavailable is the retryable give-up: it stays Unavailable, it
        // never escalates or crashes the front-end.
        let again = client.roundtrip(&estimate_line("qft_8"));
        let frame = ErrorFrame::from_json(&json::parse(&again).unwrap()).unwrap();
        assert_eq!(frame.error.kind(), ErrorKind::Unavailable, "{again}");
        drop(client);
        shard.shutdown();
        handle.join().expect("no panic").expect("clean exit");
    }

    #[test]
    fn attach_replica_validates_addresses() {
        let shard = Shard::new();
        assert!(shard.attach_replica("not-an-addr").is_err());
        shard.attach_replica("127.0.0.1:9").expect("valid");
        assert_eq!(shard.replicas(), 1);
    }
}

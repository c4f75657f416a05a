//! The closed-loop load generator: a fixed number of connections, each
//! sending its next request only after the previous reply arrived.

use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use crate::daemon::Daemon;
use crate::workload::Plan;

/// One timed request as the load generator saw it.
#[derive(Debug)]
pub struct Sample {
    /// Position in the workload's request list.
    pub index: u64,
    /// The daemon (segment) that served it.
    pub segment: usize,
    pub line: Arc<str>,
    /// Send-to-full-reply time.
    pub latency: Duration,
    /// The reply line, or why none arrived.
    pub reply: Result<String, String>,
}

/// What one daemon's segment of the timed window measured.
#[derive(Debug)]
pub struct Segment {
    /// Spawn to end of warm-up.
    pub setup: Duration,
    /// First send to last reply of the segment.
    pub elapsed: Duration,
    /// `VmHWM` before shutdown.
    pub peak_rss_mib: f64,
    /// Session cache hits and loads during the segment.
    pub hits: u64,
    pub loads: u64,
}

/// Everything the untraced run measured.
#[derive(Debug)]
pub struct LoadRun {
    pub samples: Vec<Sample>,
    pub segments: Vec<Segment>,
    /// Accuracy-probe `(line, reply)` pairs sent after the window.
    pub probe: Vec<(String, String)>,
}

impl LoadRun {
    /// Total timed window: the sum of the segments.
    pub fn window(&self) -> Duration {
        self.segments.iter().map(|s| s.elapsed).sum()
    }
}

/// Lines generated before the first segment; later segments generate
/// a quarter more than the previous one used, plus this margin. A segment
/// that runs out generates its remaining lines on the fly.
const PREGENERATED: u64 = 32;

/// Drives `plan` for `seconds` over `connections` closed-loop clients.
/// The window is split evenly over `plan.workload.segments(seconds)`
/// daemons run one after another; each is spawned, warmed, driven,
/// measured and shut down before the next one starts. Each segment's
/// request lines are generated before its window opens, so clients
/// spend the window sending, not generating.
pub fn drive(
    binary: &Path,
    plan: &Plan,
    seconds: u64,
    connections: usize,
) -> Result<LoadRun, String> {
    let count = plan.workload.segments(seconds);
    let segment_len = Duration::from_secs_f64(seconds as f64 / count as f64);
    let next = AtomicU64::new(0);
    let samples = Mutex::new(Vec::new());
    let mut segments = Vec::with_capacity(count);
    let mut probe = Vec::new();
    let warmup = plan.warmup();
    let mut ahead = PREGENERATED;

    for segment in 0..count {
        let spawned = Instant::now();
        let daemon = Daemon::spawn(binary)?;
        {
            let mut conn = daemon.connect()?;
            for line in &warmup {
                conn.call(line)
                    .map_err(|e| format!("warm-up request failed: {e}"))?;
            }
        }
        let setup = spawned.elapsed();

        let first = next.load(Ordering::Relaxed);
        let lines: Vec<Arc<str>> = (first..first + ahead).map(|i| plan.line(i)).collect();
        let before = daemon.stats()?.cache;
        let start = Instant::now();
        let deadline = start + segment_len;
        std::thread::scope(|scope| {
            for _ in 0..connections {
                scope.spawn(|| {
                    let mut local = Vec::new();
                    let mut conn = daemon.connect();
                    while Instant::now() < deadline {
                        let index = next.fetch_add(1, Ordering::Relaxed);
                        let line = usize::try_from(index - first)
                            .ok()
                            .and_then(|k| lines.get(k))
                            .map_or_else(|| plan.line(index), Arc::clone);
                        let sent = Instant::now();
                        let reply = match conn.as_mut() {
                            Ok(c) => c.call(&line),
                            Err(e) => Err(e.clone()),
                        };
                        let latency = sent.elapsed();
                        if reply.is_err() {
                            // The connection may be gone; the next
                            // request gets a fresh one.
                            conn = daemon.connect();
                        }
                        local.push(Sample {
                            index,
                            segment,
                            line,
                            latency,
                            reply,
                        });
                    }
                    samples.lock().expect("no client panicked").extend(local);
                });
            }
        });
        let elapsed = start.elapsed();
        let used = next.load(Ordering::Relaxed) - first;
        ahead = used + used / 4 + PREGENERATED;
        drop(lines);
        let after = daemon.stats()?.cache;
        let hits = after.cache_hits - before.cache_hits;
        let loads = after.loads - before.loads;

        if segment + 1 == count {
            let mut conn = daemon.connect()?;
            for line in plan.probe() {
                let reply = conn.call(&line)?;
                probe.push((line, reply));
            }
        }
        let peak_rss_mib = daemon.peak_rss_mib()?;
        daemon.shutdown()?;
        segments.push(Segment {
            setup,
            elapsed,
            peak_rss_mib,
            hits,
            loads,
        });
    }

    let mut samples = samples.into_inner().expect("no client panicked");
    samples.sort_by_key(|s| s.index);
    Ok(LoadRun {
        samples,
        segments,
        probe,
    })
}

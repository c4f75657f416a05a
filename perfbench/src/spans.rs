//! In-memory span recorder for the traced run.
//!
//! A span is one call into a layer: its name, start and end, the request
//! it belongs to and the span that caused it. Spans stay in memory until
//! the run ends; [`self_times`] then charges each span its duration minus
//! the part of its interval covered by its children.

use std::time::Instant;

/// One recorded call into a layer.
#[derive(Debug, Clone)]
pub struct Span {
    /// Index of this span in its recorder.
    pub id: usize,
    /// The span that was open when this one began, if any.
    pub parent: Option<usize>,
    /// The request (timed-list index) the span belongs to.
    pub request: u64,
    /// Layer name, e.g. `circuit.parser.parse`.
    pub name: &'static str,
    /// Start, in nanoseconds since the recorder's epoch.
    pub start_ns: u64,
    /// End, in nanoseconds since the recorder's epoch.
    pub end_ns: u64,
}

impl Span {
    /// The span's wall duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// A count recorded at a layer boundary (ops lowered, bytes written, …).
#[derive(Debug, Clone)]
pub struct Count {
    pub request: u64,
    pub name: &'static str,
    pub value: f64,
}

/// Records spans and counts for the requests one thread replays.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    request: u64,
    open: Vec<usize>,
    pub spans: Vec<Span>,
    pub counts: Vec<Count>,
}

impl Recorder {
    /// A recorder whose timestamps count from `epoch` (share one epoch
    /// between threads so their spans merge onto one time line).
    pub fn new(epoch: Instant) -> Self {
        Recorder {
            epoch,
            request: 0,
            open: Vec::new(),
            spans: Vec::new(),
            counts: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).expect("run shorter than 584 years")
    }

    /// Attributes the following spans and counts to `request`.
    pub fn set_request(&mut self, request: u64) {
        self.request = request;
    }

    /// Times `f` as a span named `name`, nested under whichever span is
    /// open. `f` receives the recorder so it can open child spans.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> T) -> T {
        let id = self.spans.len();
        let parent = self.open.last().copied();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id,
            parent,
            request: self.request,
            name,
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        out
    }

    /// Records a count for the current request.
    pub fn count(&mut self, name: &'static str, value: f64) {
        self.counts.push(Count {
            request: self.request,
            name,
            value,
        });
    }
}

/// Self time of every span (same order as `spans`, whose `id`s must be
/// their indices): duration minus the union of its children's intervals,
/// clipped to the parent's own interval.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for (start, end) in kids {
                let start = start.max(reach);
                let end = end.min(s.end_ns);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            s.duration_ns() - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: usize, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            request: 0,
            name: "x",
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // root [0,100) ⊃ load [10,60) ⊃ parse [20,30), write [30,50);
        // root also ⊃ estimate [70,90).
        let spans = vec![
            span(0, None, 0, 100),
            span(1, Some(0), 10, 60),
            span(2, Some(1), 20, 30),
            span(3, Some(1), 30, 50),
            span(4, Some(0), 70, 90),
        ];
        assert_eq!(self_times(&spans), vec![30, 20, 10, 20, 20]);
    }

    #[test]
    fn overlapping_children_are_not_double_counted() {
        // Children from two threads may overlap; their union is charged once.
        let spans = vec![
            span(0, None, 0, 100),
            span(1, Some(0), 10, 50),
            span(2, Some(0), 40, 80),
            span(3, Some(0), 90, 120), // clipped to the parent's end
        ];
        assert_eq!(self_times(&spans)[0], 100 - 70 - 10);
    }

    #[test]
    fn self_times_sum_to_root_duration() {
        let spans = vec![
            span(0, None, 0, 1000),
            span(1, Some(0), 100, 700),
            span(2, Some(1), 150, 300),
            span(3, Some(2), 160, 200),
            span(4, Some(0), 800, 950),
        ];
        let total: u64 = self_times(&spans).iter().sum();
        assert_eq!(total, 1000);
    }

    #[test]
    fn recorder_nests_and_tags_requests() {
        let mut rec = Recorder::new(Instant::now());
        rec.set_request(7);
        let v = rec.span("outer", |rec| {
            rec.count("bytes", 3.0);
            rec.span("inner", |_| 41) + 1
        });
        assert_eq!(v, 42);
        assert_eq!(rec.spans.len(), 2);
        assert_eq!(rec.spans[0].parent, None);
        assert_eq!(rec.spans[1].parent, Some(0));
        assert!(rec.spans.iter().all(|s| s.request == 7));
        assert!(rec.spans[0].start_ns <= rec.spans[1].start_ns);
        assert!(rec.spans[1].end_ns <= rec.spans[0].end_ns);
        assert_eq!(rec.counts[0].value, 3.0);
    }
}

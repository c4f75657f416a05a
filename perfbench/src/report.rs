//! Per-layer metrics from the traced run's spans and counts.

use std::collections::HashMap;

use crate::spans::{self_times, Recorder};
use crate::summary::median;

/// Unit of a layer's time metric.
#[derive(Clone, Copy)]
enum Unit {
    Ms,
    Us,
}

/// The layers the traced run times, by span name. Each yields
/// `<name>_<unit>` (median duration per call, children included),
/// `<name>.calls` and `<name>.share` (self time over summed request time).
const LAYERS: [(&str, Unit); 13] = [
    ("api.json.decode", Unit::Us),
    ("api.session.load", Unit::Ms),
    ("workloads.generate", Unit::Ms),
    ("circuit.parser.parse", Unit::Ms),
    ("circuit.parser.write", Unit::Ms),
    ("circuit.decompose.lower", Unit::Ms),
    ("circuit.qodg.build", Unit::Ms),
    ("core.profile.build", Unit::Ms),
    ("core.stream.estimate", Unit::Ms),
    ("core.estimator.estimate", Unit::Ms),
    ("qspr.placement.place", Unit::Ms),
    ("qspr.engine.map", Unit::Ms),
    ("api.json.encode", Unit::Us),
];

/// Counts recorded at layer boundaries, reported as medians per call.
const COUNTS: [(&str, &str, &str); 7] = [
    ("api.json.request_bytes", "bytes", "lower"),
    ("circuit.parser.bytes", "bytes", "lower"),
    ("circuit.decompose.ft_ops", "count", "lower"),
    ("circuit.qodg.nodes", "count", "lower"),
    ("core.profile.iig_edges", "count", "lower"),
    ("qspr.engine.ops", "count", "lower"),
    ("qspr.engine.outbound_wait_us", "us", "lower"),
];

/// The root span around one replayed request.
const ROOT: &str = "request";

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub better: &'static str,
    pub value: f64,
}

impl Metric {
    pub fn new(
        name: impl Into<String>,
        unit: &'static str,
        better: &'static str,
        value: f64,
    ) -> Self {
        Metric {
            name: name.into(),
            unit,
            better,
            value,
        }
    }
}

/// Share of the summed request time spent in each layer's own code.
pub struct Shares {
    pub by_layer: Vec<(&'static str, f64)>,
}

impl Shares {
    /// The layer with the largest share (ties: the first listed).
    pub fn largest(&self) -> Option<&'static str> {
        self.by_layer
            .iter()
            .fold(
                None,
                |best: Option<(&str, f64)>, &(name, share)| match best {
                    Some((_, b)) if b >= share => best,
                    _ => Some((name, share)),
                },
            )
            .map(|(name, _)| name)
    }
}

/// Aggregates spans and counts from every replay thread.
pub struct LayerReport {
    metrics: Vec<Metric>,
    pub shares: Shares,
}

impl LayerReport {
    /// `line_of` maps a request index to the line it sent (to group the
    /// Table 3 speed-up by program).
    pub fn new(recorders: &[Recorder], line_of: &HashMap<u64, &str>) -> LayerReport {
        let mut durations: HashMap<&str, Vec<f64>> = HashMap::new();
        let mut self_ns: HashMap<&str, u64> = HashMap::new();
        let mut per_request: HashMap<(u64, &str), f64> = HashMap::new();
        let mut counts: HashMap<&str, Vec<f64>> = HashMap::new();
        let mut stream_ops: HashMap<u64, f64> = HashMap::new();
        let mut total_ns = 0u64;

        for rec in recorders {
            for (span, own) in rec.spans.iter().zip(self_times(&rec.spans)) {
                let ns = span.duration_ns();
                if span.name == ROOT {
                    total_ns += ns;
                }
                *self_ns.entry(span.name).or_default() += own;
                durations.entry(span.name).or_default().push(ns as f64);
                *per_request.entry((span.request, span.name)).or_default() += ns as f64;
            }
            for c in &rec.counts {
                if c.name == "core.stream.ops" {
                    stream_ops.insert(c.request, c.value);
                } else {
                    counts.entry(c.name).or_default().push(c.value);
                }
            }
        }

        let share = |name: &str| {
            if total_ns == 0 {
                0.0
            } else {
                self_ns.get(name).copied().unwrap_or(0) as f64 / total_ns as f64
            }
        };
        let mut metrics = Vec::new();
        let mut by_layer = Vec::new();
        for (name, unit) in LAYERS {
            let calls = durations.get(name).map_or(0, Vec::len);
            let (unit_name, scale) = match unit {
                Unit::Ms => ("ms", 1e-6),
                Unit::Us => ("us", 1e-3),
            };
            let med = durations.get(name).and_then(|d| median(d)).unwrap_or(0.0);
            metrics.push(Metric::new(
                format!("{name}_{unit_name}"),
                unit_name,
                "lower",
                med * scale,
            ));
            metrics.push(Metric::new(
                format!("{name}.calls"),
                "count",
                "lower",
                calls as f64,
            ));
            metrics.push(Metric::new(
                format!("{name}.share"),
                "fraction",
                "lower",
                share(name),
            ));
            by_layer.push((name, share(name)));
        }
        for (name, unit, better) in COUNTS {
            let med = counts.get(name).and_then(|v| median(v)).unwrap_or(0.0);
            metrics.push(Metric::new(name, unit, better, med));
        }

        let ops_per_s: Vec<f64> = stream_ops
            .iter()
            .filter_map(|(request, ops)| {
                let ns = per_request.get(&(*request, "core.stream.estimate"))?;
                (*ns > 0.0).then(|| ops / (ns * 1e-9))
            })
            .collect();
        metrics.push(Metric::new(
            "core.stream.ops_per_s",
            "ops/s",
            "higher",
            median(&ops_per_s).unwrap_or(0.0),
        ));

        // Table 3: mapper time over estimator time, per program.
        let mut by_program: HashMap<&str, (Vec<f64>, Vec<f64>)> = HashMap::new();
        for (&(request, name), &ns) in &per_request {
            let Some(line) = line_of.get(&request) else {
                continue;
            };
            let entry = by_program.entry(line).or_default();
            match name {
                "qspr.engine.map" => entry.0.push(ns),
                "core.estimator.estimate" => entry.1.push(ns),
                _ => {}
            }
        }
        let speedups: Vec<f64> = by_program
            .values()
            .filter_map(|(map, est)| {
                let (m, e) = (median(map)?, median(est)?);
                (e > 0.0).then(|| m / e)
            })
            .collect();
        metrics.push(Metric::new(
            "qspr.speedup_over_leqa",
            "ratio",
            "higher",
            median(&speedups).unwrap_or(0.0),
        ));

        let unattributed = share(ROOT);
        metrics.push(Metric::new(
            "unattributed_share",
            "fraction",
            "lower",
            unattributed,
        ));
        LayerReport {
            metrics,
            shares: Shares { by_layer },
        }
    }

    pub fn into_metrics(self) -> Vec<Metric> {
        self.metrics
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spans::Span;
    use std::time::Instant;

    fn span(
        id: usize,
        parent: Option<usize>,
        request: u64,
        name: &'static str,
        s: u64,
        e: u64,
    ) -> Span {
        Span {
            id,
            parent,
            request,
            name,
            start_ns: s,
            end_ns: e,
        }
    }

    #[test]
    fn shares_use_self_time_and_sum_to_one() {
        let mut rec = Recorder::new(Instant::now());
        rec.spans = vec![
            span(0, None, 0, ROOT, 0, 1_000),
            span(1, Some(0), 0, "api.session.load", 0, 600),
            span(2, Some(1), 0, "workloads.generate", 0, 400),
            span(3, Some(0), 0, "core.estimator.estimate", 600, 900),
        ];
        let report = LayerReport::new(&[rec], &HashMap::new());
        let get = |n: &str| {
            report
                .shares
                .by_layer
                .iter()
                .find(|(name, _)| *name == n)
                .map(|(_, s)| *s)
                .unwrap()
        };
        assert_eq!(get("api.session.load"), 0.2);
        assert_eq!(get("workloads.generate"), 0.4);
        assert_eq!(get("core.estimator.estimate"), 0.3);
        assert_eq!(report.shares.largest(), Some("workloads.generate"));
        let layered: f64 = report.shares.by_layer.iter().map(|(_, s)| s).sum();
        let metrics = report.into_metrics();
        let unattributed = metrics
            .iter()
            .find(|m| m.name == "unattributed_share")
            .unwrap();
        assert_eq!(unattributed.value, 0.1);
        assert!((layered + unattributed.value - 1.0).abs() < 1e-12);
        let load = metrics
            .iter()
            .find(|m| m.name == "api.session.load_ms")
            .unwrap();
        assert_eq!(load.value, 600.0 * 1e-6);
        let calls = metrics
            .iter()
            .find(|m| m.name == "circuit.qodg.build.calls")
            .unwrap();
        assert_eq!(calls.value, 0.0);
    }
}

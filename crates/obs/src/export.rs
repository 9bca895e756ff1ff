//! Snapshot exporters: JSON and Prometheus text exposition.
//!
//! Both are hand-rolled (the workspace's `compat/` philosophy: no external
//! dependencies) and deterministic: a [`Snapshot`] always serialises to the
//! same bytes, which is what makes the registry golden-testable.

use crate::histogram::HistogramSnapshot;
use crate::registry::{MetricSnapshot, Snapshot};

/// Format an `f64` the way both exporters need it: integral values without
/// a trailing `.0` churn, everything else with full round-trip precision.
/// Shared with the journal writer, which emits the same number style.
pub(crate) fn fmt_f64(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

/// Escape a string for inclusion inside JSON quotes (RFC 8259 §7). Shared
/// by the trace and journal writers; metric names never need it (dotted
/// lowercase by convention) but journal labels and span names might.
pub(crate) fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

fn histogram_json(h: &HistogramSnapshot, indent: &str) -> String {
    format!(
        concat!(
            "{{\n",
            "{i}  \"count\": {count},\n",
            "{i}  \"sum\": {sum},\n",
            "{i}  \"min\": {min},\n",
            "{i}  \"max\": {max},\n",
            "{i}  \"mean\": {mean},\n",
            "{i}  \"p50\": {p50},\n",
            "{i}  \"p95\": {p95},\n",
            "{i}  \"p99\": {p99}\n",
            "{i}}}"
        ),
        i = indent,
        count = h.count,
        sum = h.sum,
        min = h.min,
        max = h.max,
        mean = fmt_f64(h.mean()),
        p50 = h.p50(),
        p95 = h.p95(),
        p99 = h.p99(),
    )
}

impl Snapshot {
    /// The snapshot as a JSON object: metric names map to numbers
    /// (counters/gauges) or objects with `count/sum/min/max/mean/p50/p95/p99`
    /// (histograms). Keys are sorted; output is byte-deterministic.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        for (i, (name, value)) in self.entries.iter().enumerate() {
            let sep = if i + 1 < self.entries.len() { "," } else { "" };
            match value {
                MetricSnapshot::Counter(v) => {
                    out.push_str(&format!("  \"{name}\": {v}{sep}\n"));
                }
                MetricSnapshot::Gauge(v) => {
                    out.push_str(&format!("  \"{name}\": {}{sep}\n", fmt_f64(*v)));
                }
                MetricSnapshot::Histogram(h) => {
                    out.push_str(&format!("  \"{name}\": {}{sep}\n", histogram_json(h, "  ")));
                }
            }
        }
        out.push_str("}\n");
        out
    }

    /// The snapshot in Prometheus text exposition format. Dotted metric
    /// names become underscore-separated; histograms are exported summary
    /// style (`_count`, `_sum`, and `quantile`-labelled samples).
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        for (name, value) in &self.entries {
            let pname: String =
                name.chars().map(|c| if c.is_ascii_alphanumeric() { c } else { '_' }).collect();
            match value {
                MetricSnapshot::Counter(v) => {
                    out.push_str(&format!("# TYPE {pname} counter\n{pname} {v}\n"));
                }
                MetricSnapshot::Gauge(v) => {
                    out.push_str(&format!("# TYPE {pname} gauge\n{pname} {}\n", fmt_f64(*v)));
                }
                MetricSnapshot::Histogram(h) => {
                    out.push_str(&format!("# TYPE {pname} summary\n"));
                    for (q, v) in [("0.5", h.p50()), ("0.95", h.p95()), ("0.99", h.p99())] {
                        out.push_str(&format!("{pname}{{quantile=\"{q}\"}} {v}\n"));
                    }
                    out.push_str(&format!("{pname}_sum {}\n", h.sum));
                    out.push_str(&format!("{pname}_count {}\n", h.count));
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use crate::MetricsRegistry;

    /// Fixed registrations + fixed records → byte-exact exporter output.
    /// This is the registry's determinism contract: if this golden breaks,
    /// dashboards and every `/stats` consumer break with it.
    #[test]
    fn golden_json_snapshot() {
        let reg = MetricsRegistry::new();
        reg.counter("serve.queries").add(3);
        reg.gauge("train.steps_per_sec").set(1234.5);
        let h = reg.histogram("serve.query_ns");
        for v in [100u64, 200, 300] {
            h.record(v);
        }
        let json = reg.snapshot().to_json();
        let expected = "{\n  \"serve.queries\": 3,\n  \"serve.query_ns\": {\n    \"count\": 3,\n    \"sum\": 600,\n    \"min\": 100,\n    \"max\": 300,\n    \"mean\": 200,\n    \"p50\": 207,\n    \"p95\": 300,\n    \"p99\": 300\n  },\n  \"train.steps_per_sec\": 1234.5\n}\n";
        assert_eq!(json, expected);
    }

    #[test]
    fn golden_prometheus_snapshot() {
        let reg = MetricsRegistry::new();
        reg.counter("serve.queries").add(3);
        reg.gauge("train.steps_per_sec").set(1234.5);
        let h = reg.histogram("serve.query_ns");
        for v in [100u64, 200, 300] {
            h.record(v);
        }
        let text = reg.snapshot().to_prometheus();
        let expected = "# TYPE serve_queries counter\nserve_queries 3\n# TYPE serve_query_ns summary\nserve_query_ns{quantile=\"0.5\"} 207\nserve_query_ns{quantile=\"0.95\"} 300\nserve_query_ns{quantile=\"0.99\"} 300\nserve_query_ns_sum 600\nserve_query_ns_count 3\n# TYPE train_steps_per_sec gauge\ntrain_steps_per_sec 1234.5\n";
        assert_eq!(text, expected);
    }

    #[test]
    fn empty_snapshot_serialises() {
        let reg = MetricsRegistry::new();
        assert_eq!(reg.snapshot().to_json(), "{\n}\n");
        assert_eq!(reg.snapshot().to_prometheus(), "");
    }
}

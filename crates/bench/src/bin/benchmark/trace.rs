//! Benchmark-side spans: recorded in memory around every call into a layer,
//! written out as Chrome trace JSON when the run ends.
//!
//! The spans live here, not inside the program: this benchmark defines the
//! layer boundaries from outside, and spans inside the program are a later
//! change. A layer's *self time* is its span minus the part of that span its
//! children cover.

use std::collections::BTreeMap;
use std::time::Instant;

/// Index of a span inside its [`Tracer`].
pub type SpanId = u32;

/// "No parent" / "no request".
pub const NONE: u32 = u32::MAX;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// The span that caused this one, or [`NONE`].
    pub parent: SpanId,
    /// Shared by all spans of one request, or [`NONE`].
    pub req: u32,
    /// Recording thread (one Chrome trace row each).
    pub tid: u32,
}

/// One thread's span buffer. Disabled tracers record nothing and read no
/// clock, so the untraced run pays one predictable branch per call site.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    tid: u32,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(enabled: bool, epoch: Instant, tid: u32) -> Self {
        Tracer { enabled, epoch, tid, spans: Vec::new() }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span now.
    pub fn begin(&mut self, name: &'static str, parent: SpanId, req: u32) -> SpanId {
        if !self.enabled {
            return NONE;
        }
        let now = self.now_ns();
        self.push(name, now, now, parent, req)
    }

    /// Close a span opened with [`Self::begin`].
    pub fn end(&mut self, id: SpanId) {
        if self.enabled {
            let now = self.now_ns();
            self.spans[id as usize].end_ns = now;
        }
    }

    /// Record a span whose interval is already known (e.g. synthesised from
    /// `run_profiled` totals). Times are nanoseconds since the epoch.
    pub fn push(
        &mut self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: SpanId,
        req: u32,
    ) -> SpanId {
        if !self.enabled {
            return NONE;
        }
        self.spans.push(Span { name, start_ns, end_ns, parent, req, tid: self.tid });
        (self.spans.len() - 1) as SpanId
    }

    /// Start time of an open or closed span.
    pub fn start_of(&self, id: SpanId) -> u64 {
        self.spans[id as usize].start_ns
    }

    /// Duration of a closed span, in milliseconds.
    pub fn ms(&self, id: SpanId) -> f64 {
        let s = self.spans[id as usize];
        (s.end_ns - s.start_ns) as f64 / 1e6
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }

    /// Append another thread's spans, re-basing their parent links.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len() as u32;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            if s.parent != NONE {
                s.parent += base;
            }
            s
        }));
    }
}

/// Per-layer totals over a span set.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerTime {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// Self time of every span: its duration minus the part of its interval
/// that its direct children cover (overlapping children count once).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if s.parent != NONE {
            let p = &spans[s.parent as usize];
            let (lo, hi) = (s.start_ns.max(p.start_ns), s.end_ns.min(p.end_ns));
            if hi > lo {
                children[s.parent as usize].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(&mut children)
        .map(|(s, kids)| {
            kids.sort_unstable();
            let (mut covered, mut reach) = (0u64, s.start_ns);
            for &(lo, hi) in kids.iter() {
                let lo = lo.max(reach);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            (s.end_ns - s.start_ns).saturating_sub(covered)
        })
        .collect()
}

/// Totals by span name, in name order.
pub fn by_layer(spans: &[Span]) -> BTreeMap<&'static str, LayerTime> {
    let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(self_times(spans)) {
        let e = out.entry(s.name).or_default();
        e.count += 1;
        e.total_ns += s.end_ns - s.start_ns;
        e.self_ns += self_ns;
    }
    out
}

/// Share of the `parent`-named spans' time that their children cover.
pub fn attributed_share(spans: &[Span], parent: &str) -> f64 {
    match by_layer(spans).get(parent) {
        Some(l) if l.total_ns > 0 => 1.0 - l.self_ns as f64 / l.total_ns as f64,
        _ => 0.0,
    }
}

/// The per-layer table printed after a traced run.
pub fn render_table(spans: &[Span]) -> String {
    let mut out = format!("  {:<26} {:>9} {:>12} {:>12}\n", "span", "count", "total ms", "self ms");
    for (name, l) in by_layer(spans) {
        out.push_str(&format!(
            "  {:<26} {:>9} {:>12.3} {:>12.3}\n",
            name,
            l.count,
            l.total_ns as f64 / 1e6,
            l.self_ns as f64 / 1e6
        ));
    }
    out
}

/// Chrome trace-event JSON (`chrome://tracing`, Perfetto): one complete
/// event per span, parent and request ids in `args`.
pub fn chrome_json(spans: &[Span]) -> String {
    let mut out = String::with_capacity(64 + spans.len() * 120);
    out.push_str("{\"traceEvents\":[");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\
             \"args\":{{\"id\":{},\"parent\":{},\"req\":{}}}}}",
            s.name,
            s.tid,
            s.start_ns as f64 / 1e3,
            (s.end_ns - s.start_ns) as f64 / 1e3,
            i,
            if s.parent == NONE { -1 } else { i64::from(s.parent) },
            if s.req == NONE { -1 } else { i64::from(s.req) },
        ));
    }
    out.push_str("]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: SpanId) -> Span {
        Span { name, start_ns, end_ns, parent, req: NONE, tid: 0 }
    }

    #[test]
    fn self_time_is_span_minus_child_cover() {
        let spans = [
            span("root", 0, 100, NONE),
            span("a", 10, 40, 0),
            span("b", 30, 60, 0),  // overlaps `a` by 10: union covers 10..60
            span("c", 90, 120, 0), // sticks out of the parent: clipped to 90..100
            span("leaf", 12, 20, 1),
        ];
        assert_eq!(self_times(&spans), vec![100 - 50 - 10, 30 - 8, 30, 30, 8]);
        assert!((attributed_share(&spans, "root") - 0.6).abs() < 1e-12);
        assert_eq!(by_layer(&spans)["a"], LayerTime { count: 1, total_ns: 30, self_ns: 22 });
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false, Instant::now(), 0);
        let id = t.begin("x", NONE, NONE);
        t.end(id);
        assert_eq!(t.push("y", 0, 1, NONE, NONE), NONE);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn absorb_rebases_parents_and_chrome_json_parses() {
        let epoch = Instant::now();
        let mut a = Tracer::new(true, epoch, 0);
        let root = a.begin("loadgen.wait", NONE, 7);
        a.end(root);
        let mut b = Tracer::new(true, epoch, 1);
        let p = b.push("http.roundtrip", 5, 9, NONE, 8);
        b.push("child", 6, 7, p, 8);
        a.absorb(b);
        assert_eq!(a.spans()[2].parent, 1);
        let doc = gem_obs::json::parse(&chrome_json(a.spans())).expect("chrome trace is JSON");
        let events = doc.get("traceEvents").and_then(|e| e.as_array()).expect("traceEvents");
        assert_eq!(events.len(), 3);
        assert_eq!(
            events[2].get("args").and_then(|a| a.get("parent")).unwrap().as_f64(),
            Some(1.0)
        );
    }
}

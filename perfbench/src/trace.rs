//! In-memory tracing for the benchmark's traced runs.
//!
//! A span is a name, a start, an end, the span that caused it and the
//! id of the trace (one iteration, one served job, one replay) it
//! belongs to. Spans are recorded around the public calls the benchmark
//! makes into each layer; values (counts, bytes, server-reported
//! milliseconds) are recorded at the same boundaries. Nothing is
//! written until the run ends ([`Tracer::write_json`]).
//!
//! A disabled tracer records nothing, so the untraced runs that give
//! the end-to-end numbers pay only a branch per call.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::time::Instant;

/// Index of a recorded span.
pub type SpanId = usize;

/// One recorded span, times in nanoseconds since the tracer's origin.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<SpanId>,
    pub trace: u64,
}

/// Count, sum and maximum of a series of observations.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Agg {
    pub count: u64,
    pub total: f64,
    pub max: f64,
}

impl Agg {
    pub fn add(&mut self, value: f64) {
        self.count += 1;
        self.total += value;
        self.max = self.max.max(value);
    }
}

/// Per-name span totals, in nanoseconds.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanAgg {
    pub count: u64,
    pub total_ns: u64,
    pub max_ns: u64,
    /// Duration not covered by child spans, summed over the spans.
    pub self_ns: u64,
    /// Whether any span of this name has children.
    pub has_children: bool,
}

/// The span and value recorder. Single-threaded: the benchmark makes
/// every traced call from its driving thread.
#[derive(Debug)]
pub struct Tracer {
    enabled: Cell<bool>,
    origin: Instant,
    spans: RefCell<Vec<Span>>,
    stack: RefCell<Vec<SpanId>>,
    values: RefCell<BTreeMap<&'static str, Agg>>,
    next_trace: Cell<u64>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled: Cell::new(enabled),
            origin: Instant::now(),
            spans: RefCell::new(Vec::new()),
            stack: RefCell::new(Vec::new()),
            values: RefCell::new(BTreeMap::new()),
            next_trace: Cell::new(0),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled.get()
    }

    /// Switches recording on or off (traced runs alternate traced and
    /// untraced iterations to measure the tracing overhead).
    pub fn set_enabled(&self, on: bool) {
        self.enabled.set(on);
    }

    fn ns(&self, at: Instant) -> u64 {
        u64::try_from(at.saturating_duration_since(self.origin).as_nanos()).unwrap_or(u64::MAX)
    }

    /// A fresh trace id.
    pub fn new_trace(&self) -> u64 {
        let id = self.next_trace.get();
        self.next_trace.set(id + 1);
        id
    }

    /// Runs `f` inside a span named `name`, nested under the innermost
    /// open span; with no open span it starts a new trace.
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.enabled() {
            return f();
        }
        let parent = self.stack.borrow().last().copied();
        let trace = match parent {
            Some(p) => self.spans.borrow()[p].trace,
            None => self.new_trace(),
        };
        let id = self.open(name, Instant::now(), parent, trace);
        self.stack.borrow_mut().push(id);
        let out = f();
        self.stack.borrow_mut().pop();
        self.close(id, Instant::now());
        out
    }

    /// Opens a span explicitly (for work whose start was in the past,
    /// such as a served job timed from its due time). Records even when
    /// disabled: callers check [`Tracer::enabled`] first.
    pub fn open(
        &self,
        name: &'static str,
        start: Instant,
        parent: Option<SpanId>,
        trace: u64,
    ) -> SpanId {
        let start_ns = self.ns(start);
        let mut spans = self.spans.borrow_mut();
        spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            trace,
        });
        spans.len() - 1
    }

    /// Closes a span opened with [`Tracer::open`].
    pub fn close(&self, id: SpanId, end: Instant) {
        let end_ns = self.ns(end);
        let mut spans = self.spans.borrow_mut();
        spans[id].end_ns = end_ns.max(spans[id].start_ns);
    }

    /// Records a finished span between two instants.
    pub fn record(
        &self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<SpanId>,
        trace: u64,
    ) -> SpanId {
        let id = self.open(name, start, parent, trace);
        self.close(id, end);
        id
    }

    /// Records one observation of a value (a count, a byte size, a
    /// server-reported time).
    pub fn value(&self, name: &'static str, value: f64) {
        if self.enabled() {
            self.values.borrow_mut().entry(name).or_default().add(value);
        }
    }

    /// Adds `count` observations summing to `total` that were counted
    /// elsewhere (a delta of a server's cumulative counter), so no
    /// maximum is known.
    pub fn add_series(&self, name: &'static str, count: u64, total: f64) {
        if self.enabled() {
            let mut values = self.values.borrow_mut();
            let agg = values.entry(name).or_default();
            agg.count += count;
            agg.total += total;
        }
    }

    #[cfg(test)]
    pub fn spans(&self) -> Vec<Span> {
        self.spans.borrow().clone()
    }

    pub fn values(&self) -> BTreeMap<&'static str, Agg> {
        self.values.borrow().clone()
    }

    /// Span totals per name, with self time derived from the spans.
    pub fn span_aggregates(&self) -> BTreeMap<&'static str, SpanAgg> {
        aggregate(&self.spans.borrow())
    }

    /// Writes every span and value as one JSON document.
    pub fn write_json(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = String::from("{\"spans\": [\n");
        let spans = self.spans.borrow();
        for (i, s) in spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"trace\": {}}}{}\n",
                s.name,
                s.start_ns,
                s.end_ns,
                s.trace,
                if i + 1 < spans.len() { "," } else { "" }
            ));
        }
        out.push_str("],\n\"values\": {");
        let values = self.values.borrow();
        let body: Vec<String> = values
            .iter()
            .map(|(k, a)| {
                format!(
                    "\n\"{k}\": {{\"count\": {}, \"total\": {}, \"max\": {}}}",
                    a.count, a.total, a.max
                )
            })
            .collect();
        out.push_str(&body.join(","));
        out.push_str("\n}}\n");
        std::fs::write(path, out)
    }
}

/// Per-name totals over `spans`. A span's self time is its duration
/// minus the part of its interval that its children cover (overlapping
/// children count once).
pub fn aggregate(spans: &[Span]) -> BTreeMap<&'static str, SpanAgg> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    let mut out: BTreeMap<&'static str, SpanAgg> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        let dur = s.end_ns - s.start_ns;
        let covered = covered_ns(s.start_ns, s.end_ns, &mut children[i]);
        let agg = out.entry(s.name).or_default();
        agg.count += 1;
        agg.total_ns += dur;
        agg.max_ns = agg.max_ns.max(dur);
        agg.self_ns += dur - covered;
        agg.has_children |= !children[i].is_empty();
    }
    out
}

/// Length of the union of `intervals`, clipped to `[start, end]`.
fn covered_ns(start: u64, end: u64, intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut reach = start;
    for &(a, b) in intervals.iter() {
        let (a, b) = (a.max(reach), b.min(end));
        if b > a {
            covered += b - a;
            reach = b;
        }
    }
    covered
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<SpanId>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            trace: 0,
        }
    }

    #[test]
    fn self_time_is_duration_minus_child_coverage() {
        let spans = vec![
            span("iteration", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("b", 30, 60, Some(0)),  // overlaps a: 10..60 covered once
            span("c", 90, 120, Some(0)), // clipped at the parent's end
        ];
        let agg = aggregate(&spans);
        assert_eq!(agg["iteration"].total_ns, 100);
        assert_eq!(agg["iteration"].self_ns, 100 - 50 - 10);
        assert!(agg["iteration"].has_children);
        assert_eq!(agg["a"].self_ns, 30);
        assert!(!agg["a"].has_children);
    }

    #[test]
    fn nested_spans_link_to_their_parent_and_trace() {
        let t = Tracer::new(true);
        t.span("outer", || t.span("inner", || ()));
        t.span("second", || ());
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].trace, spans[0].trace);
        assert_ne!(spans[2].trace, spans[0].trace);
        assert!(spans[1].start_ns >= spans[0].start_ns && spans[1].end_ns <= spans[0].end_ns);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        assert_eq!(t.span("x", || 7), 7);
        t.value("v", 1.0);
        assert!(t.spans().is_empty() && t.values().is_empty());
    }

    #[test]
    fn values_keep_count_total_and_max() {
        let t = Tracer::new(true);
        for v in [3.0, 9.0, 1.0] {
            t.value("bytes", v);
        }
        let a = t.values()["bytes"];
        assert_eq!((a.count, a.total, a.max), (3, 13.0, 9.0));
    }
}

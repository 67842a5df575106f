//! Bench-side spans: host-clock brackets around each library call of the
//! epoch loop, and around each pipeline stage through `StageObserver`.
//!
//! The library never reads a clock; every timestamp here is taken by the
//! benchmark. Spans live in memory during a pass and are exported as JSON
//! lines afterwards, so writing them never lands inside a measured span.

use crate::procfs;
use cshard_core::{StageKind, StageObserver, StageOutput};
use cshard_json::{ObjectBuilder, Value};
use std::collections::BTreeMap;
use std::time::Instant;

/// One closed span.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// Layer name (`workload.gen`, `classify`, `crossrun`, ...).
    pub name: &'static str,
    /// Start, in nanoseconds since the tracer's origin.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer's origin.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The epoch the span belongs to — the id shared by every span of one
    /// epoch. `None` for pass-level spans such as set-up.
    pub epoch: Option<u64>,
}

impl Span {
    /// Wall time of the span.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// An in-memory span recorder with an open-span stack.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    epoch: Option<u64>,
    /// Positive resident-set growth observed inside classify spans.
    classify_rss_growth: u64,
    rss_at_classify_start: u64,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            epoch: None,
            classify_rss_growth: 0,
            rss_at_classify_start: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Sets the epoch later spans are tagged with.
    pub fn set_epoch(&mut self, epoch: Option<u64>) {
        self.epoch = epoch;
    }

    /// Opens a span nested in the innermost open one.
    pub fn open(&mut self, name: &'static str) {
        let span = Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            epoch: self.epoch,
        };
        self.open.push(self.spans.len());
        self.spans.push(span);
    }

    /// Closes the innermost open span.
    pub fn close(&mut self) {
        let now = self.now_ns();
        if let Some(i) = self.open.pop() {
            self.spans[i].end_ns = now;
        }
    }

    /// The recorded spans, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Resident-set growth (bytes) observed inside classify spans.
    pub fn classify_rss_growth(&self) -> u64 {
        self.classify_rss_growth
    }
}

/// Opens `name` on `tracer` (when tracing), runs `f`, closes the span.
pub fn in_span<R>(tracer: &mut Option<Tracer>, name: &'static str, f: impl FnOnce() -> R) -> R {
    match tracer {
        None => f(),
        Some(t) => {
            t.open(name);
            let r = f();
            t.close();
            r
        }
    }
}

/// The observer the traced loop hands the pipeline: one span per stage.
/// The classify stage is additionally bracketed by resident-set reads,
/// taken outside its span so they count as benchmark glue.
pub struct StageSpans<'a>(pub &'a mut Tracer);

impl StageObserver for StageSpans<'_> {
    fn stage_started(&mut self, stage: StageKind) {
        if stage == StageKind::Classify {
            self.0.rss_at_classify_start = procfs::rss_bytes();
        }
        self.0.open(stage.name());
    }

    fn stage_finished(&mut self, stage: StageKind, _output: &StageOutput) {
        self.0.close();
        if stage == StageKind::Classify {
            let grown = procfs::rss_bytes().saturating_sub(self.0.rss_at_classify_start);
            self.0.classify_rss_growth += grown;
        }
    }
}

/// The observer of the untraced loop.
pub struct NoSpans;

impl StageObserver for NoSpans {}

/// Self time per span name: each span's duration minus its children's.
pub fn self_time_ns(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut child_ns = vec![0u64; spans.len()];
    for span in spans {
        if let Some(p) = span.parent {
            child_ns[p] += span.duration_ns();
        }
    }
    let mut out = BTreeMap::new();
    for (span, children) in spans.iter().zip(child_ns) {
        *out.entry(span.name).or_insert(0) += span.duration_ns().saturating_sub(children);
    }
    out
}

/// One JSON-lines record per span, in opening order.
pub fn json_lines(spans: &[Span]) -> String {
    let opt = |v: Option<u64>| v.map_or(Value::Null, Value::from);
    let mut out = String::new();
    for (id, span) in spans.iter().enumerate() {
        let record = ObjectBuilder::new()
            .field("id", id)
            .field("name", span.name)
            .field("start_ns", span.start_ns)
            .field("end_ns", span.end_ns)
            .field("parent", opt(span.parent.map(|p| p as u64)))
            .field("epoch", opt(span.epoch))
            .build();
        out.push_str(&record.to_string_compact());
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            epoch: Some(0),
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = vec![
            span("epoch", 0, 100, None),
            span("pipeline", 10, 70, Some(0)),
            span("classify", 10, 40, Some(1)),
            span("unify", 40, 65, Some(1)),
            span("baseline", 70, 90, Some(0)),
        ];
        let t = self_time_ns(&spans);
        assert_eq!(t["epoch"], 100 - 60 - 20);
        assert_eq!(t["pipeline"], 60 - 30 - 25);
        assert_eq!(t["classify"], 30);
        assert_eq!(t["unify"], 25);
        assert_eq!(t["baseline"], 20);
        assert_eq!(
            t.values().sum::<u64>(),
            100,
            "self times partition the root"
        );
    }

    #[test]
    fn tracer_nests_and_exports_one_line_per_span() {
        let mut t = Some(Tracer::new());
        if let Some(t) = t.as_mut() {
            t.set_epoch(Some(3));
        }
        in_span(&mut t, "epoch", || ());
        let spans = t.as_ref().map(|t| t.spans().to_vec()).unwrap_or_default();
        assert_eq!(spans.len(), 1);
        assert!(spans[0].end_ns >= spans[0].start_ns);
        let lines = json_lines(&spans);
        assert_eq!(lines.lines().count(), 1);
        let parsed = cshard_json::parse(lines.trim()).expect("valid JSON line");
        assert_eq!(parsed.get("epoch").and_then(|v| v.as_u64()), Some(3));
        assert!(parsed.get("parent").is_some_and(|v| v.is_null()));
    }
}

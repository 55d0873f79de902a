//! In-memory span recorder for the traced run.
//!
//! Spans sit around *chunks* of calls into one layer (a 64Ki-record
//! read, one conversion batch, one `SimSink::push` loop), never around
//! single records, so the clock reads stay far below the work they
//! time. With tracing off every call is a no-op that never reads the
//! clock.

use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

/// One recorded span. `start_ns`/`end_ns` are relative to the
/// recorder's epoch; `req` groups the spans of one request or
/// operation.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub req: u64,
}

/// Collects spans when on; does nothing when off.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

/// An open span; it closes when dropped.
pub struct SpanGuard<'a> {
    tracer: &'a Tracer,
    idx: Option<usize>,
    req: u64,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer { on, epoch: Instant::now(), spans: Mutex::new(Vec::new()) }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    fn spans(&self) -> std::sync::MutexGuard<'_, Vec<Span>> {
        self.spans.lock().expect("span recorder poisoned by a panicking thread")
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    fn open(&self, name: &'static str, parent: Option<usize>, req: u64) -> SpanGuard<'_> {
        if !self.on {
            return SpanGuard { tracer: self, idx: None, req };
        }
        let start_ns = self.ns(Instant::now());
        let mut spans = self.spans();
        spans.push(Span { name, start_ns, end_ns: start_ns, parent, req });
        SpanGuard { tracer: self, idx: Some(spans.len() - 1), req }
    }

    /// Opens a top-level span for request/operation `req`.
    pub fn root(&self, name: &'static str, req: u64) -> SpanGuard<'_> {
        self.open(name, None, req)
    }

    /// Records a finished span whose endpoints were taken elsewhere
    /// (e.g. on another thread); returns its index for children.
    pub fn record(
        &self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        req: u64,
    ) -> Option<usize> {
        if !self.on {
            return None;
        }
        let span = Span { name, start_ns: self.ns(start), end_ns: self.ns(end), parent, req };
        let mut spans = self.spans();
        spans.push(span);
        Some(spans.len() - 1)
    }

    /// Every span recorded so far.
    pub fn snapshot(&self) -> Vec<Span> {
        self.spans().clone()
    }
}

impl SpanGuard<'_> {
    /// Opens a child span of this one, in the same request.
    pub fn child(&self, name: &'static str) -> SpanGuard<'_> {
        self.tracer.open(name, self.idx, self.req)
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        if let Some(idx) = self.idx {
            let end = self.tracer.ns(Instant::now());
            if let Some(span) = self.tracer.spans().get_mut(idx) {
                span.end_ns = end;
            }
        }
    }
}

/// Per-name totals: self time (duration minus the part covered by
/// child spans), span count.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerTime {
    pub self_ns: u64,
    pub count: u64,
}

impl LayerTime {
    pub fn self_s(&self) -> f64 {
        self.self_ns as f64 / 1e9
    }

    /// Mean self time per span, in microseconds (0 with no spans).
    pub fn mean_us(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.self_ns as f64 / 1e3 / self.count as f64
        }
    }
}

/// Self time per span name. Children of one span never overlap in this
/// benchmark (each thread records its own nesting), so summing their
/// durations gives the covered part.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, LayerTime> {
    let mut child_ns = vec![0u64; spans.len()];
    for span in spans {
        if let Some(p) = span.parent {
            child_ns[p] += span.end_ns.saturating_sub(span.start_ns);
        }
    }
    let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
    for (span, covered) in spans.iter().zip(child_ns) {
        let entry = out.entry(span.name).or_default();
        entry.self_ns += span.end_ns.saturating_sub(span.start_ns).saturating_sub(covered);
        entry.count += 1;
    }
    out
}

/// One JSON object per line: the span file written at exit.
pub fn spans_jsonl(spans: &[Span]) -> String {
    let mut out = String::with_capacity(spans.len() * 80);
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or_else(|| "null".to_owned(), |p| p.to_string());
        out.push_str(&format!(
            "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"req\":{}}}\n",
            s.name, s.start_ns, s.end_ns, s.req
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_records_nothing() {
        let t = Tracer::new(false);
        {
            let root = t.root("a", 1);
            let _c = root.child("b");
        }
        assert!(t.snapshot().is_empty());
    }

    #[test]
    fn self_time_excludes_children() {
        let spans = vec![
            Span { name: "op", start_ns: 0, end_ns: 100, parent: None, req: 1 },
            Span { name: "read", start_ns: 10, end_ns: 40, parent: Some(0), req: 1 },
            Span { name: "read", start_ns: 50, end_ns: 70, parent: Some(0), req: 1 },
        ];
        let t = self_times(&spans);
        assert_eq!(t["op"].self_ns, 50);
        assert_eq!(t["read"].self_ns, 50);
        assert_eq!(t["read"].count, 2);
    }
}

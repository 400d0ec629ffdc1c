//! In-memory spans recorded around calls into each layer.
//!
//! A span has a name, start, end, parent and request id. Spans stay in
//! memory while the traced run measures and are written out once at the
//! end. A layer's self time is its span's duration minus the part of that
//! interval its child spans cover.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded interval (nanoseconds since the tracer's epoch).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Layer boundary name, e.g. `"http.parse"`.
    pub name: &'static str,
    /// Start, ns since epoch.
    pub start: u64,
    /// End, ns since epoch.
    pub end: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The request (or input item) that caused the span.
    pub req: u64,
}

/// Totals of one span name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Totals {
    /// Spans recorded.
    pub count: u64,
    /// Summed duration, ns.
    pub total_ns: u64,
    /// Summed self time (duration minus child coverage), ns.
    pub self_ns: u64,
}

/// Span recorder with a stack of open spans.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// An empty tracer whose epoch is now.
    #[must_use]
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Nanoseconds since the epoch.
    #[must_use]
    pub fn now(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span nested in the innermost open one.
    pub fn begin(&mut self, name: &'static str, req: u64) -> usize {
        let start = self.now();
        let id = self.push(name, req, start, start);
        self.open.push(id);
        id
    }

    /// Closes the innermost open span, which must be `id`.
    pub fn end(&mut self, id: usize) {
        let popped = self.open.pop();
        assert_eq!(popped, Some(id), "spans must close innermost first");
        self.spans[id].end = self.now();
    }

    /// Runs `f` inside a span.
    pub fn span<T>(&mut self, name: &'static str, req: u64, f: impl FnOnce() -> T) -> T {
        let id = self.begin(name, req);
        let out = f();
        self.end(id);
        out
    }

    /// Records a finished span nested in the innermost open one (for work
    /// timed outside the tracer).
    pub fn record(&mut self, name: &'static str, req: u64, start: u64, end: u64) -> usize {
        self.push(name, req, start, end)
    }

    /// Records a finished span under `parent` (for work a layer timed
    /// itself and reported after its caller's span closed).
    pub fn record_in(&mut self, parent: usize, name: &'static str, req: u64, start: u64, end: u64) {
        let id = self.push(name, req, start, end);
        self.spans[id].parent = Some(parent);
    }

    fn push(&mut self, name: &'static str, req: u64, start: u64, end: u64) -> usize {
        self.spans.push(Span {
            name,
            start,
            end,
            parent: self.open.last().copied(),
            req,
        });
        self.spans.len() - 1
    }

    /// Every span recorded so far.
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span, by index.
    #[must_use]
    pub fn self_times(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start, s.end));
            }
        }
        self.spans
            .iter()
            .zip(children.iter_mut())
            .map(|(s, kids)| s.end.saturating_sub(s.start) - covered(s.start, s.end, kids))
            .collect()
    }

    /// Count, total and self time per span name, over the spans from
    /// index `from` on.
    #[must_use]
    pub fn totals_from(&self, from: usize) -> BTreeMap<&'static str, Totals> {
        let mut out: BTreeMap<&'static str, Totals> = BTreeMap::new();
        for (s, own) in self.spans.iter().zip(self.self_times()).skip(from) {
            let t = out.entry(s.name).or_default();
            t.count += 1;
            t.total_ns += s.end.saturating_sub(s.start);
            t.self_ns += own;
        }
        out
    }

    /// [`Tracer::totals_from`] over every span.
    #[must_use]
    pub fn totals(&self) -> BTreeMap<&'static str, Totals> {
        self.totals_from(0)
    }

    /// The spans as JSON lines, one object per span.
    #[must_use]
    pub fn to_json_lines(&self) -> String {
        let mut out = String::with_capacity(self.spans.len() * 72);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or(-1, |p| p as i64);
            let _ = writeln!(
                out,
                "{{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"req\": {}}}",
                s.name, s.start, s.end, s.req
            );
        }
        out
    }
}

/// Nanoseconds of `[start, end)` covered by the union of `intervals`
/// (each clipped to the parent's interval).
fn covered(start: u64, end: u64, intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cursor = start;
    for &(s, e) in intervals.iter() {
        let s = s.max(cursor);
        let e = e.min(end);
        if e > s {
            total += e - s;
            cursor = e;
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new();
        // Hand-built timeline: request [0,100) holds parse [0,10) and
        // handle [10,90); handle holds allocator [20,70).
        let root = t.record("request", 1, 0, 100);
        t.open.push(root);
        t.record("parse", 1, 0, 10);
        let handle = t.record("handle", 1, 10, 90);
        t.open.push(handle);
        t.record("allocator", 1, 20, 70);
        t.open.clear();
        let totals = t.totals();
        assert_eq!(totals["request"].self_ns, 10);
        assert_eq!(totals["parse"].self_ns, 10);
        assert_eq!(totals["handle"].self_ns, 30);
        assert_eq!(totals["allocator"].self_ns, 50);
        let self_sum: u64 = totals.values().map(|x| x.self_ns).sum();
        assert_eq!(
            self_sum, totals["request"].total_ns,
            "self times partition the root"
        );
    }

    #[test]
    fn overlapping_and_overhanging_children_count_once() {
        let mut spans = [(10, 40), (30, 60), (90, 150)];
        // Parent [0,100): union of children inside it is [10,60) + [90,100).
        assert_eq!(covered(0, 100, &mut spans), 60);
        assert_eq!(covered(0, 100, &mut []), 0);
    }

    #[test]
    fn live_spans_nest_and_serialise() {
        let mut t = Tracer::new();
        let outer = t.begin("outer", 7);
        let inner = t.span("inner", 7, || 42);
        assert_eq!(inner, 42);
        t.end(outer);
        let spans = t.spans();
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[0].start <= spans[1].start && spans[1].end <= spans[0].end);
        let totals = t.totals();
        assert_eq!(
            totals["outer"].self_ns + totals["inner"].total_ns,
            totals["outer"].total_ns
        );
        assert_eq!(t.to_json_lines().lines().count(), 2);
    }
}

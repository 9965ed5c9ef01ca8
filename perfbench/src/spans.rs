//! In-memory span recorder: one span per call into a simulator layer,
//! written out as JSON when the run ends.
//!
//! A span has a name, start and end (ns since the recorder was made),
//! the span that caused it, and a run id shared by every span of one
//! repeat or sweep cell. Per-call boundaries that fire millions of times
//! (the workload's `next_for`) are kept as an [`Aggregate`] — a count
//! and a total under a parent span — instead of one span per call.

use std::fmt::Write as _;
use std::time::Instant;

/// Index of a span in its [`Spans`] recorder.
pub type SpanId = usize;

/// One timed call into a layer.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer-qualified name, e.g. `core.build`.
    pub name: &'static str,
    /// Start, ns since the recorder's origin.
    pub start_ns: u64,
    /// End, ns since the recorder's origin (equal to start while open).
    pub end_ns: u64,
    /// The span that caused this one.
    pub parent: Option<SpanId>,
    /// Repeat or cell this span belongs to.
    pub run: u64,
}

/// A high-frequency boundary folded into a count and a total.
#[derive(Clone, Debug)]
pub struct Aggregate {
    /// Boundary name, e.g. `workload.next_for`.
    pub name: &'static str,
    /// The span the calls happened under.
    pub parent: SpanId,
    /// Calls made.
    pub calls: u64,
    /// Host time inside those calls, ns.
    pub total_ns: u64,
}

/// The recorder.
#[derive(Debug)]
pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
    aggregates: Vec<Aggregate>,
    open: Vec<SpanId>,
    run: u64,
}

impl Default for Spans {
    fn default() -> Self {
        Self::new()
    }
}

impl Spans {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Self {
        Spans {
            origin: Instant::now(),
            spans: Vec::new(),
            aggregates: Vec::new(),
            open: Vec::new(),
            run: 0,
        }
    }

    /// Starts a new run id for the spans that follow.
    pub fn next_run(&mut self) {
        self.run += 1;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str) -> SpanId {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            run: self.run,
        });
        self.open.push(id);
        id
    }

    /// Closes span `id` (and any still open inside it); returns its
    /// duration in seconds.
    pub fn exit(&mut self, id: SpanId) -> f64 {
        let end = self.now_ns();
        while let Some(top) = self.open.pop() {
            self.spans[top].end_ns = end;
            if top == id {
                break;
            }
        }
        self.secs(id)
    }

    /// Runs `f` inside a span; returns its result and duration in seconds.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> (R, f64) {
        let id = self.enter(name);
        let r = f();
        (r, self.exit(id))
    }

    /// Folds `calls` calls totalling `total_ns` under span `parent`.
    pub fn aggregate(&mut self, name: &'static str, parent: SpanId, calls: u64, total_ns: u64) {
        self.aggregates.push(Aggregate {
            name,
            parent,
            calls,
            total_ns,
        });
    }

    /// Duration of span `id`, seconds.
    pub fn secs(&self, id: SpanId) -> f64 {
        let s = &self.spans[id];
        (s.end_ns - s.start_ns) as f64 * 1e-9
    }

    /// Self time of span `id`, ns: its duration minus the part of it
    /// covered by child spans and aggregated child calls.
    pub fn self_ns(&self, id: SpanId) -> u64 {
        let s = &self.spans[id];
        let covered: u64 = self
            .spans
            .iter()
            .filter(|c| c.parent == Some(id))
            .map(|c| c.end_ns - c.start_ns)
            .sum();
        let folded: u64 = self
            .aggregates
            .iter()
            .filter(|g| g.parent == id)
            .map(|g| g.total_ns)
            .sum();
        (s.end_ns - s.start_ns).saturating_sub(covered + folded)
    }

    /// Every recorded span.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The spans and aggregates as one JSON document, each span with its
    /// self time.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"spans\":[\n");
        for (id, s) in self.spans.iter().enumerate() {
            if id > 0 {
                out.push_str(",\n");
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"run\":{},\"self_ns\":{}}}",
                s.name,
                s.start_ns,
                s.end_ns,
                s.run,
                self.self_ns(id)
            );
        }
        out.push_str("\n],\"aggregates\":[\n");
        for (i, g) in self.aggregates.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"parent\":{},\"calls\":{},\"total_ns\":{}}}",
                g.name, g.parent, g.calls, g.total_ns
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_excludes_children_and_aggregates() {
        let mut spans = Spans::new();
        let run = spans.enter("core.run");
        let child = spans.enter("noc.replay");
        std::thread::sleep(Duration::from_millis(2));
        spans.exit(child);
        std::thread::sleep(Duration::from_millis(2));
        spans.exit(run);
        spans.aggregate("workload.next_for", run, 10, 1_000_000);
        let total = spans.spans()[run].end_ns - spans.spans()[run].start_ns;
        let kid = spans.spans()[child].end_ns - spans.spans()[child].start_ns;
        assert_eq!(spans.self_ns(run), total - kid - 1_000_000);
        assert_eq!(spans.spans()[child].parent, Some(run));
        assert!(spans.to_json().contains("\"name\":\"workload.next_for\""));
    }
}

//! An in-memory span recorder for the traced run.
//!
//! Spans are taken from the benchmark's side of each call into a layer's public
//! functions, never inside the program. A span records its name, start, end,
//! parent, and the query it belongs to; the whole trace is written out once, when
//! the run ends.
//!
//! Some layers only expose a duration the program measured itself (the fields of
//! `ExecutionReport` and `OptimizationReport`). Such *derived* children are laid
//! end to end from their parent's start: their durations are measured, their
//! placement inside the parent is nominal.

use std::fmt::Write as _;
use std::time::Instant;

/// Index of a span in its [`Trace`].
pub type SpanId = usize;

/// One recorded interval, in seconds since the trace's epoch.
#[derive(Debug, Clone)]
pub struct Span {
    /// The query (or served request) the span belongs to; 0 is set-up work such
    /// as the exact oracle.
    pub query: u64,
    /// Layer name, e.g. `shuffle` or `sample.output`.
    pub name: &'static str,
    /// Start, seconds since the epoch.
    pub start: f64,
    /// End, seconds since the epoch (`NaN` while open).
    pub end: f64,
    /// The span that caused this one.
    pub parent: Option<SpanId>,
    /// Whether the duration came from a program-side timer.
    pub derived: bool,
}

impl Span {
    /// Duration in seconds.
    pub fn seconds(&self) -> f64 {
        self.end - self.start
    }
}

/// All spans of one run.
pub struct Trace {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Trace {
    /// An empty trace whose clock starts now.
    pub fn new() -> Self {
        Trace {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64()
    }

    /// Open a span now.
    pub fn begin(&mut self, query: u64, name: &'static str, parent: Option<SpanId>) -> SpanId {
        let start = self.now();
        self.spans.push(Span {
            query,
            name,
            start,
            end: f64::NAN,
            parent,
            derived: false,
        });
        self.spans.len() - 1
    }

    /// Close span `id` now.
    pub fn end(&mut self, id: SpanId) {
        self.spans[id].end = self.now();
    }

    /// Run `f` inside a new span; returns its result and the span.
    pub fn time<R>(
        &mut self,
        query: u64,
        name: &'static str,
        parent: Option<SpanId>,
        f: impl FnOnce() -> R,
    ) -> (R, SpanId) {
        let id = self.begin(query, name, parent);
        let out = f();
        self.end(id);
        (out, id)
    }

    /// Add derived children of `parent`, one per `(name, seconds)`, laid end to
    /// end from the parent's start and clipped to its end.
    pub fn derive(&mut self, parent: SpanId, children: &[(&'static str, f64)]) {
        let (query, mut at, limit) = {
            let p = &self.spans[parent];
            (p.query, p.start, p.end)
        };
        for &(name, seconds) in children {
            let end = (at + seconds.max(0.0)).min(limit);
            self.spans.push(Span {
                query,
                name,
                start: at,
                end,
                parent: Some(parent),
                derived: true,
            });
            at = end;
        }
    }

    /// Rename span `id` (a serve span learns its plan source only on return).
    pub fn rename(&mut self, id: SpanId, name: &'static str) {
        self.spans[id].name = name;
    }

    /// The span `id`.
    pub fn span(&self, id: SpanId) -> &Span {
        &self.spans[id]
    }

    /// Seconds of span `id` covered by the union of its children.
    pub fn covered(&self, id: SpanId) -> f64 {
        let p = &self.spans[id];
        let mut iv: Vec<(f64, f64)> = self
            .spans
            .iter()
            .filter(|c| c.parent == Some(id))
            .map(|c| (c.start.max(p.start), c.end.min(p.end)))
            .filter(|(a, b)| b > a)
            .collect();
        iv.sort_by(|a, b| a.0.total_cmp(&b.0));
        let mut total = 0.0;
        let mut cur: Option<(f64, f64)> = None;
        for (a, b) in iv {
            match cur {
                Some((ca, cb)) if a <= cb => cur = Some((ca, cb.max(b))),
                Some((ca, cb)) => {
                    total += cb - ca;
                    cur = Some((a, b));
                }
                None => cur = Some((a, b)),
            }
        }
        if let Some((ca, cb)) = cur {
            total += cb - ca;
        }
        total
    }

    /// Self time of span `id`: its duration minus what its children cover.
    pub fn self_seconds(&self, id: SpanId) -> f64 {
        self.spans[id].seconds() - self.covered(id)
    }

    /// Write the trace to `perfbench/out/trace-<workload>-<seed>.json`.
    pub fn save(&self, workload: &str, seed: u64) -> Result<(), String> {
        let path = crate::out_dir().join(format!("trace-{workload}-{seed}.json"));
        std::fs::write(&path, self.to_json(workload, seed))
            .map_err(|e| format!("writing {}: {e}", path.display()))
    }

    /// The trace as JSON: one object per span with its self time.
    pub fn to_json(&self, workload: &str, seed: u64) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"workload\": \"{workload}\", \"seed\": {seed}, \"spans\": ["
        );
        for (id, s) in self.spans.iter().enumerate() {
            let sep = if id == 0 { "\n" } else { ",\n" };
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{sep}  {{\"id\": {id}, \"query\": {}, \"name\": \"{}\", \"start_s\": {}, \
                 \"end_s\": {}, \"self_s\": {}, \"parent\": {parent}, \"derived\": {}}}",
                s.query,
                s.name,
                s.start,
                s.end,
                self.self_seconds(id),
                s.derived
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fixed(
        trace: &mut Trace,
        name: &'static str,
        parent: Option<SpanId>,
        a: f64,
        b: f64,
    ) -> SpanId {
        trace.spans.push(Span {
            query: 0,
            name,
            start: a,
            end: b,
            parent,
            derived: false,
        });
        trace.spans.len() - 1
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let mut t = Trace::new();
        let root = fixed(&mut t, "query", None, 0.0, 10.0);
        fixed(&mut t, "a", Some(root), 1.0, 4.0);
        fixed(&mut t, "b", Some(root), 3.0, 6.0); // overlaps a
        fixed(&mut t, "c", Some(root), 8.0, 12.0); // clipped at the parent's end
        assert_eq!(t.covered(root), 5.0 + 2.0);
        assert_eq!(t.self_seconds(root), 3.0);
    }

    #[test]
    fn derived_children_are_laid_end_to_end_and_clipped() {
        let mut t = Trace::new();
        let root = fixed(&mut t, "reduce", None, 2.0, 5.0);
        t.derive(root, &[("local_join", 2.0), ("verify", 2.0)]);
        let kids: Vec<&Span> = t.spans.iter().filter(|s| s.parent == Some(root)).collect();
        assert_eq!((kids[0].start, kids[0].end), (2.0, 4.0));
        assert_eq!((kids[1].start, kids[1].end), (4.0, 5.0));
        assert!(kids.iter().all(|s| s.derived));
        assert_eq!(t.self_seconds(root), 0.0);
    }

    #[test]
    fn timed_spans_nest_and_serialize() {
        let mut t = Trace::new();
        let root = t.begin(3, "query", None);
        let (v, child) = t.time(3, "work", Some(root), || 41 + 1);
        t.end(root);
        assert_eq!(v, 42);
        assert!(t.span(child).seconds() >= 0.0);
        assert!(t.span(root).seconds() >= t.span(child).seconds());
        let json = t.to_json("w", 9);
        assert!(json.contains("\"name\": \"work\""));
        assert!(json.contains("\"parent\": 0"));
    }
}

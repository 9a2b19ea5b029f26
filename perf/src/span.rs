//! In-memory spans for the traced run.
//!
//! The harness records a span around every call it makes into a layer
//! (name, start, end, the span that caused it, and — for `tick` and
//! `request` spans — the tick number or request sequence they share).
//! Nothing is written until the run ends; [`Trace::to_json`] is the
//! one place spans leave memory.

use std::time::Instant;

use crate::json::{obj, Value};

/// Index of a span inside its [`Trace`].
pub type SpanId = u32;

/// "No parent": the root span.
pub const ROOT: SpanId = u32::MAX;

/// One recorded interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: SpanId,
    /// Shard the call ran on (0 outside sharded runs).
    pub shard: u32,
    /// Tick number for `tick`/`pump`, connection for `request`.
    pub id: u64,
    /// Request sequence on the connection (`request` spans only).
    pub seq: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// The span store of one run.
pub struct Trace {
    t0: Instant,
    pub spans: Vec<Span>,
}

impl Trace {
    pub fn new() -> Trace {
        Trace {
            t0: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Nanoseconds since the trace began.
    pub fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Opens a span now; close it with [`Trace::close`].
    pub fn open(&mut self, name: &'static str, parent: SpanId) -> SpanId {
        let now = self.now_ns();
        self.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent,
            shard: 0,
            id: 0,
            seq: 0,
        })
    }

    pub fn close(&mut self, id: SpanId) {
        self.spans[id as usize].end_ns = self.now_ns();
    }

    /// Records an already measured span.
    pub fn push(&mut self, span: Span) -> SpanId {
        self.spans.push(span);
        (self.spans.len() - 1) as SpanId
    }

    /// Runs `f` inside a span.
    pub fn scope<T>(&mut self, name: &'static str, parent: SpanId, f: impl FnOnce() -> T) -> T {
        let id = self.open(name, parent);
        let out = f();
        self.close(id);
        out
    }

    /// A span's self time: its duration minus the part of its interval
    /// that its direct children cover (overlapping children count once).
    pub fn self_ns(&self, id: SpanId) -> u64 {
        let me = self.spans[id as usize];
        let mut kids: Vec<(u64, u64)> = self
            .spans
            .iter()
            .filter(|s| s.parent == id)
            .map(|s| (s.start_ns.max(me.start_ns), s.end_ns.min(me.end_ns)))
            .filter(|(a, b)| b > a)
            .collect();
        kids.sort_unstable();
        let (mut covered, mut edge) = (0u64, me.start_ns);
        for (a, b) in kids {
            let a = a.max(edge);
            if b > a {
                covered += b - a;
                edge = b;
            }
        }
        me.dur_ns() - covered
    }

    /// Total duration of the direct children of `parent` named `name`.
    pub fn child_sum_ns(&self, parent: SpanId, name: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.parent == parent && s.name == name)
            .map(Span::dur_ns)
            .sum()
    }

    /// The first span with this name, if any.
    pub fn find(&self, name: &str) -> Option<SpanId> {
        self.spans
            .iter()
            .position(|s| s.name == name)
            .map(|i| i as SpanId)
    }

    /// The whole trace as one JSON document (an array of span rows; a
    /// parent of -1 marks the root).
    pub fn to_json(&self, workload: &str, seed: u64) -> String {
        let rows = self
            .spans
            .iter()
            .enumerate()
            .map(|(i, s)| {
                obj([
                    ("span", Value::Num(i as f64)),
                    ("name", Value::Str(s.name.to_string())),
                    ("start_ns", Value::Num(s.start_ns as f64)),
                    ("end_ns", Value::Num(s.end_ns as f64)),
                    (
                        "parent",
                        Value::Num(if s.parent == ROOT {
                            -1.0
                        } else {
                            f64::from(s.parent)
                        }),
                    ),
                    ("shard", Value::Num(f64::from(s.shard))),
                    ("id", Value::Num(s.id as f64)),
                    ("seq", Value::Num(s.seq as f64)),
                ])
            })
            .collect();
        let mut doc = obj([
            ("workload", Value::Str(workload.to_string())),
            ("seed", Value::Num(seed as f64)),
            ("spans", Value::Arr(rows)),
        ])
        .to_json();
        doc.push('\n');
        doc
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: SpanId) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            shard: 0,
            id: 0,
            seq: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let mut t = Trace::new();
        let serve = t.push(span("serve", 100, 1100, ROOT));
        t.push(span("tick", 100, 300, serve));
        t.push(span("tick", 250, 500, serve)); // Overlaps the first by 50.
        t.push(span("pump", 900, 1300, serve)); // Clipped to the parent.
        let grandchild = t.push(span("step", 120, 180, 1));
        assert_eq!(t.self_ns(serve), 1000 - (400 + 200));
        assert_eq!(
            t.self_ns(1),
            200 - 60,
            "grandchildren bill their own parent"
        );
        assert_eq!(t.self_ns(grandchild), 60);
        assert_eq!(t.child_sum_ns(serve, "tick"), 200 + 250);
        assert_eq!(t.find("pump"), Some(3));
    }

    #[test]
    fn trace_serializes_every_span_with_its_parent() {
        let mut t = Trace::new();
        let root = t.push(span("workload", 0, 10, ROOT));
        t.push(Span {
            shard: 1,
            id: 7,
            seq: 3,
            ..span("request", 2, 9, root)
        });
        let doc = crate::json::parse(&t.to_json("hot_small", 42)).expect("valid JSON");
        let spans = doc.get("spans").expect("spans").as_arr();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].get("parent").and_then(Value::as_f64), Some(-1.0));
        assert_eq!(spans[1].get("parent").and_then(Value::as_f64), Some(0.0));
        assert_eq!(spans[1].get("seq").and_then(Value::as_f64), Some(3.0));
        assert_eq!(
            doc.get("workload").and_then(Value::as_str),
            Some("hot_small")
        );
    }
}

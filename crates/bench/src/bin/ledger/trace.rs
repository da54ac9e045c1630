//! Spans recorded by the benchmark around its calls into each layer.
//!
//! Spans stay in memory while the traced run measures and are written out
//! once, when it ends. A layer's self time is its span's duration minus
//! the part of it that child spans cover.

use std::collections::BTreeMap;
use std::time::Instant;

/// Index of a span's parent, or `NO_PARENT` for a root.
pub const NO_PARENT: u32 = u32::MAX;

/// A registered span name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NameId(u32);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Index into [`Tracer::names`].
    pub name: u32,
    pub parent: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// What every span of one name adds up to.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NameTotals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

#[derive(Debug)]
pub struct Tracer {
    /// A tracer that is off runs the code under its spans and records
    /// nothing: the same walk, without the cost of tracing it.
    enabled: bool,
    origin: Instant,
    names: Vec<&'static str>,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Tracer {
    pub fn new() -> Self {
        Self::switched(true)
    }

    pub fn off() -> Self {
        Self::switched(false)
    }

    fn switched(enabled: bool) -> Self {
        Self {
            enabled,
            origin: Instant::now(),
            names: Vec::new(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Registers a span name once, outside the timed code, so that
    /// opening a span costs two clock reads and a push.
    pub fn name(&mut self, name: &'static str) -> NameId {
        match self.names.iter().position(|n| *n == name) {
            Some(i) => NameId(i as u32),
            None => {
                self.names.push(name);
                NameId((self.names.len() - 1) as u32)
            }
        }
    }

    /// Runs `f` inside a span called `name`, child of the span open now.
    pub fn span<T>(&mut self, name: NameId, f: impl FnOnce(&mut Self) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let name = name.0;
        let parent = self.open.last().copied().unwrap_or(NO_PARENT);
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            parent,
            start_ns: 0,
            end_ns: 0,
        });
        self.open.push(id);
        self.spans[id as usize].start_ns = self.now_ns();
        let out = f(self);
        self.spans[id as usize].end_ns = self.now_ns();
        self.open.pop();
        out
    }

    /// Records a span measured elsewhere (a client-side exchange, say),
    /// as a child of the span open now.
    pub fn record(&mut self, name: NameId, start: Instant, end: Instant) {
        let name = name.0;
        let parent = self.open.last().copied().unwrap_or(NO_PARENT);
        let at = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
        self.spans.push(Span {
            name,
            parent,
            start_ns: at(start),
            end_ns: at(end),
        });
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Nanoseconds an empty span takes: two clock reads and a push.
    pub fn span_cost_ns() -> f64 {
        const SPANS: u32 = 50_000;
        let mut t = Self::new();
        let (outer, inner) = (t.name("outer"), t.name("inner"));
        t.span(outer, |t| {
            for _ in 0..SPANS {
                t.span(inner, |_| ());
            }
        });
        t.totals()["outer"].total_ns as f64 / f64::from(SPANS)
    }

    /// Count, total and self time per span name.
    pub fn totals(&self) -> BTreeMap<&'static str, NameTotals> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if span.parent != NO_PARENT {
                child_ns[span.parent as usize] += span.end_ns - span.start_ns;
            }
        }
        let mut totals: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
        for (span, children) in self.spans.iter().zip(child_ns) {
            let duration = span.end_ns - span.start_ns;
            let entry = totals.entry(self.names[span.name as usize]).or_default();
            entry.count += 1;
            entry.total_ns += duration;
            entry.self_ns += duration.saturating_sub(children);
        }
        totals
    }

    /// The spans as one JSON document:
    /// `{"workload", "names": [..], "spans": [[name, parent, start_ns, end_ns], ..]}`
    /// with `parent` = -1 for a root. `op` is the span name's prefix up to
    /// the first dot, so it is not stored per span.
    pub fn to_json(&self, workload: &str) -> String {
        let mut out = String::with_capacity(self.spans.len() * 32 + 256);
        out.push_str(&format!("{{\"workload\":\"{workload}\",\"names\":["));
        for (i, name) in self.names.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\"{name}\""));
        }
        out.push_str("],\"spans\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = if s.parent == NO_PARENT {
                -1
            } else {
                i64::from(s.parent)
            };
            out.push_str(&format!(
                "[{},{},{},{}]",
                s.name, parent, s.start_ns, s.end_ns
            ));
        }
        out.push_str("]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_is_duration_minus_children() {
        let mut t = Tracer::new();
        // Hand-built spans: parent 0..100, children 10..30 and 40..90,
        // grandchild 50..60 under the second child.
        t.names = vec!["parent", "child", "grandchild"];
        let span = |name, parent, start_ns, end_ns| Span {
            name,
            parent,
            start_ns,
            end_ns,
        };
        t.spans = vec![
            span(0, NO_PARENT, 0, 100),
            span(1, 0, 10, 30),
            span(1, 0, 40, 90),
            span(2, 2, 50, 60),
        ];
        let totals = t.totals();
        assert_eq!(
            totals["parent"],
            NameTotals {
                count: 1,
                total_ns: 100,
                self_ns: 30
            }
        );
        assert_eq!(
            totals["child"],
            NameTotals {
                count: 2,
                total_ns: 70,
                self_ns: 60
            }
        );
        assert_eq!(totals["grandchild"].self_ns, 10);
        // Self times of a tree add up to the root's duration.
        let sum: u64 = totals.values().map(|t| t.self_ns).sum();
        assert_eq!(sum, 100);
    }

    #[test]
    fn nested_spans_record_their_parent() {
        let mut t = Tracer::new();
        let (outer, inner, measured) = (t.name("outer"), t.name("inner"), t.name("measured"));
        assert_eq!(t.name("inner"), inner);
        let got = t.span(outer, |t| {
            t.span(inner, |_| std::thread::sleep(Duration::from_millis(2)));
            let start = Instant::now();
            t.record(measured, start, start + Duration::from_micros(5));
            7
        });
        assert_eq!(got, 7);
        assert_eq!(t.len(), 3);
        let mut off = Tracer::off();
        let name = off.name("outer");
        assert_eq!(off.span(name, |_| 7), 7);
        assert_eq!(off.len(), 0);
        assert_eq!(t.spans[0].parent, NO_PARENT);
        assert_eq!(t.spans[1].parent, 0);
        assert_eq!(t.spans[2].parent, 0);
        let totals = t.totals();
        assert!(totals["inner"].total_ns >= 2_000_000);
        assert!(totals["outer"].total_ns >= totals["inner"].total_ns);
        assert_eq!(totals["measured"].total_ns, 5_000);
        let json: serde_json::Value = serde_json::from_str(&t.to_json("w")).expect("valid JSON");
        assert_eq!(
            json.get("spans").and_then(|s| s.as_array()).map(Vec::len),
            Some(3)
        );
    }
}

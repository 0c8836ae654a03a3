//! In-memory span recorder for the traced run.
//!
//! Spans are recorded in the benchmark's own code around each public
//! call it makes: name, start and end (ns since the tracer started),
//! parent span, and the id of the compile or simulation unit the span
//! belongs to, plus optional counts taken at the same boundary. They
//! stay in memory and are written once, at exit, as JSON lines.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use ccr::telemetry::JsonWriter;

#[derive(Clone, Debug)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub unit: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub counts: Vec<(&'static str, f64)>,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Tracer {
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn new_id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Runs `f` inside a span; `f` receives the span's id (the parent
    /// for nested spans) and returns its result plus any counts.
    pub fn counted<R>(
        &self,
        name: &'static str,
        unit: u64,
        parent: Option<u64>,
        f: impl FnOnce(u64) -> (R, Vec<(&'static str, f64)>),
    ) -> R {
        let id = self.new_id();
        let start_ns = self.now_ns();
        let (out, counts) = f(id);
        let end_ns = self.now_ns();
        self.record(Span {
            id,
            parent,
            unit,
            name,
            start_ns,
            end_ns,
            counts,
        });
        out
    }

    /// [`Tracer::counted`] without counts.
    pub fn span<R>(
        &self,
        name: &'static str,
        unit: u64,
        parent: Option<u64>,
        f: impl FnOnce(u64) -> R,
    ) -> R {
        self.counted(name, unit, parent, |id| (f(id), Vec::new()))
    }

    pub fn record(&self, span: Span) {
        self.spans.lock().expect("span log").push(span);
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans.into_inner().expect("span log")
    }
}

/// Per-span self time: duration minus the part of it covered by the
/// span's children (overlapping children counted once, children
/// clipped to the parent's interval).
pub fn self_times(spans: &[Span]) -> HashMap<u64, u64> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut covered = 0;
            if let Some(kids) = children.get_mut(&s.id) {
                kids.sort_unstable();
                let mut cursor = s.start_ns;
                for &(a, b) in kids.iter() {
                    let (a, b) = (a.max(cursor), b.min(s.end_ns));
                    if b > a {
                        covered += b - a;
                        cursor = b;
                    }
                }
            }
            (s.id, s.dur_ns() - covered)
        })
        .collect()
}

/// One JSON object per span.
pub fn to_jsonl(workload: &str, spans: &[Span]) -> String {
    let selves = self_times(spans);
    let mut out = String::new();
    for s in spans {
        let mut w = JsonWriter::new();
        w.obj_begin();
        w.key("workload").str_val(workload);
        w.key("id").u64_val(s.id);
        w.key("parent");
        match s.parent {
            Some(p) => w.u64_val(p),
            None => w.null_val(),
        };
        w.key("unit").u64_val(s.unit);
        w.key("name").str_val(s.name);
        w.key("start_ns").u64_val(s.start_ns);
        w.key("end_ns").u64_val(s.end_ns);
        w.key("self_ns").u64_val(selves[&s.id]);
        for (k, v) in &s.counts {
            w.key(k).f64_val(*v);
        }
        w.obj_end();
        out.push_str(&w.finish());
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            unit: 0,
            name: "s",
            start_ns,
            end_ns,
            counts: Vec::new(),
        }
    }

    #[test]
    fn self_time_subtracts_child_coverage_once() {
        // root [0,100): children [10,30) and [20,50) overlap (covering
        // 40 together) and [90,120) sticks out (10 inside the root).
        // Child 2 has its own child [25,35), which counts against
        // child 2 only.
        let spans = vec![
            span(1, None, 0, 100),
            span(2, Some(1), 10, 30),
            span(3, Some(1), 20, 50),
            span(4, Some(1), 90, 120),
            span(5, Some(2), 25, 35),
        ];
        let s = self_times(&spans);
        assert_eq!(s[&1], 100 - 40 - 10);
        assert_eq!(s[&2], 20 - 5);
        assert_eq!(s[&3], 30);
        assert_eq!(s[&4], 30);
        assert_eq!(s[&5], 10);
    }

    #[test]
    fn recorded_spans_nest_and_serialize() {
        let t = Tracer::new();
        let out = t.span("outer", 7, None, |id| {
            t.counted("inner", 7, Some(id), |_| (3, vec![("n", 2.0)]))
        });
        assert_eq!(out, 3);
        let spans = t.into_spans();
        assert_eq!(spans.len(), 2);
        let (inner, outer) = (&spans[0], &spans[1]);
        assert_eq!(inner.parent, Some(outer.id));
        assert!(outer.start_ns <= inner.start_ns && inner.end_ns <= outer.end_ns);
        let text = to_jsonl("w", &spans);
        assert_eq!(text.lines().count(), 2);
        assert!(text.contains("\"name\":\"inner\"") && text.contains("\"n\":2"));
    }
}

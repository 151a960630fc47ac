//! In-memory spans recorded around calls into the program's layers.
//!
//! The benchmark times each layer from outside: every span wraps one
//! call into a public function of the library. Spans are kept in memory
//! while the replay runs and written out once it ends, so writing them
//! costs the measured code nothing.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::path::Path;
use std::time::Instant;

/// One timed call: `[start, end)` in nanoseconds since the tracer was
/// created, the enclosing span (if any) and the session it served.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub session: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Records nested spans on one thread. A disabled tracer runs the same
/// closures and records nothing; comparing the two gives the tracing
/// overhead.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span that stays open until the matching [`Tracer::exit`].
    pub fn enter(&mut self, name: &'static str, session: u64) {
        if !self.enabled {
            return;
        }
        let span = Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            session,
        };
        self.open.push(self.spans.len());
        self.spans.push(span);
    }

    /// Closes the innermost open span.
    pub fn exit(&mut self) {
        if !self.enabled {
            return;
        }
        let end = self.now_ns();
        let i = self.open.pop().expect("exit matches an enter");
        self.spans[i].end_ns = end;
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, session: u64, f: impl FnOnce() -> T) -> T {
        self.enter(name, session);
        let out = f();
        self.exit();
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        let mut out = io::BufWriter::new(std::fs::File::create(path)?);
        for (i, sp) in self.spans.iter().enumerate() {
            let parent = sp.parent.map_or("null".to_owned(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"session\":{}}}",
                sp.name, sp.start_ns, sp.end_ns, sp.session
            )?;
        }
        out.flush()
    }

    /// Durations in nanoseconds of every span named `name`.
    pub fn durations_ns(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64)
            .collect()
    }

    /// Total self time per span name, in nanoseconds.
    pub fn self_time_by_name(&self) -> BTreeMap<&'static str, u64> {
        let mut out = BTreeMap::new();
        for (sp, own) in self.spans.iter().zip(self_times(&self.spans)) {
            *out.entry(sp.name).or_insert(0) += own;
        }
        out
    }
}

/// Self time of each span: its duration minus the part of its interval
/// covered by its children (children are clipped to the parent and their
/// overlaps counted once).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for sp in spans {
        if let Some(p) = sp.parent {
            children[p].push((sp.start_ns, sp.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(sp, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = sp.start_ns;
            for (s, e) in kids {
                let s = s.max(reach);
                let e = e.min(sp.end_ns);
                if e > s {
                    covered += e - s;
                    reach = e;
                }
            }
            sp.duration_ns().saturating_sub(covered)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            session: 1,
        }
    }

    #[test]
    fn self_time_subtracts_children_once() {
        let spans = vec![
            span("session", 0, 100, None),
            span("a", 10, 30, Some(0)),
            span("b", 20, 50, Some(0)),  // overlaps `a` on [20, 30)
            span("c", 90, 130, Some(0)), // runs past the parent's end
            span("d", 12, 18, Some(1)),
        ];
        // Children cover [10, 50) and [90, 100): 50ns of the parent's 100.
        assert_eq!(self_times(&spans), vec![50, 14, 30, 40, 6]);
    }

    #[test]
    fn leaf_self_time_is_its_duration() {
        assert_eq!(self_times(&[span("x", 5, 9, None)]), vec![4]);
    }

    #[test]
    fn tracer_nests_spans_and_disabled_records_nothing() {
        let mut on = Tracer::new(true);
        on.enter("outer", 7);
        let v = on.span("inner", 7, || 41 + 1);
        on.exit();
        assert_eq!(v, 42);
        let spans = on.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        let by_name = on.self_time_by_name();
        assert_eq!(by_name.len(), 2);

        let mut off = Tracer::new(false);
        off.enter("outer", 7);
        assert_eq!(off.span("inner", 7, || 3), 3);
        off.exit();
        assert!(off.spans().is_empty());
    }
}

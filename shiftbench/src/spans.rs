//! In-memory span recorder for the traced invocation.
//!
//! Spans are recorded from the benchmark's own code, around batches of calls
//! into one layer, and kept in memory until the run ends; nothing is written
//! while a timed stage is open. A span's *self time* is its duration minus
//! the part of its interval covered by its children.

use std::fmt::Write as _;
use std::io;
use std::path::Path;
use std::time::Instant;

/// Index of a span in its [`Spans`] recorder.
pub type SpanId = usize;

/// One recorded interval.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Layer or phase name (`"l1i"`, `"plan"`, `"run.warmup"`, ...).
    pub name: &'static str,
    /// The span that caused this one.
    pub parent: Option<SpanId>,
    /// The `RunKeyId` shared by every span of one simulation run.
    pub run: Option<u64>,
    /// Start, in nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the recorder was created.
    pub end_ns: u64,
    /// Calls into the layer made inside the span (0 for pure phases).
    pub calls: u64,
}

impl Span {
    /// Wall duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Span recorder with a single time origin.
#[derive(Debug)]
pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
}

impl Spans {
    /// An empty recorder whose time origin is now.
    pub fn new() -> Self {
        Spans {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Nanoseconds since the origin.
    #[inline]
    pub fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Records a finished span and returns its id.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        run: Option<u64>,
        start_ns: u64,
        end_ns: u64,
        calls: u64,
    ) -> SpanId {
        self.spans.push(Span {
            name,
            parent,
            run,
            start_ns,
            end_ns,
            calls,
        });
        self.spans.len() - 1
    }

    /// Opens a span whose end is set later with [`Spans::close`]; used for
    /// parents, which must exist before their children name them.
    pub fn open(&mut self, name: &'static str, parent: Option<SpanId>, run: Option<u64>) -> SpanId {
        let start = self.now();
        self.record(name, parent, run, start, start, 0)
    }

    /// Closes a span opened with [`Spans::open`].
    pub fn close(&mut self, id: SpanId) {
        let end = self.now();
        self.spans[id].end_ns = end;
    }

    /// Every recorded span, in recording order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes every span, with its self time, as one JSON object per line.
    pub fn write_ndjson(&self, path: &Path) -> io::Result<()> {
        let selfs = self_times(&self.spans);
        let mut out = String::with_capacity(self.spans.len() * 96);
        for (id, (span, self_ns)) in self.spans.iter().zip(&selfs).enumerate() {
            let parent = span.parent.map_or("null".to_owned(), |p| p.to_string());
            let run = span
                .run
                .map_or("null".to_owned(), |r| format!("\"{r:016x}\""));
            let _ = writeln!(
                out,
                "{{\"id\":{id},\"parent\":{parent},\"run\":{run},\"name\":\"{}\",\
                 \"start_ns\":{},\"end_ns\":{},\"self_ns\":{self_ns},\"calls\":{}}}",
                span.name, span.start_ns, span.end_ns, span.calls
            );
        }
        std::fs::write(path, out)
    }
}

/// Self time of every span: its duration minus the union of its children's
/// intervals, clipped to the parent's interval (overlapping children, as from
/// parallel workers, are not double-subtracted).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(p) = span.parent {
            children[p].push((span.start_ns, span.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(span, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut cursor = span.start_ns;
            for &(start, end) in kids.iter() {
                let start = start.max(cursor);
                let end = end.min(span.end_ns);
                if end > start {
                    covered += end - start;
                    cursor = end;
                }
            }
            span.duration_ns() - covered
        })
        .collect()
}

/// Sum of self time per span name, in first-seen order.
pub fn self_time_by_name(spans: &[Span]) -> Vec<(&'static str, u64)> {
    let selfs = self_times(spans);
    let mut totals: Vec<(&'static str, u64)> = Vec::new();
    for (span, self_ns) in spans.iter().zip(selfs) {
        match totals.iter_mut().find(|(name, _)| *name == span.name) {
            Some((_, total)) => *total += self_ns,
            None => totals.push((span.name, self_ns)),
        }
    }
    totals
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<SpanId>, start: u64, end: u64) -> Span {
        Span {
            name,
            parent,
            run: None,
            start_ns: start,
            end_ns: end,
            calls: 0,
        }
    }

    #[test]
    fn self_time_subtracts_children_and_handles_overlap_and_nesting() {
        // root [0,100): children a [10,40) and b [30,60) overlap on [30,40),
        // so together they cover 50 ns, not 60. a has a grandchild [15,25)
        // that must not be subtracted from root a second time. c [90,120)
        // spills past root's end and only counts up to 100.
        let spans = vec![
            span("root", None, 0, 100),
            span("a", Some(0), 10, 40),
            span("b", Some(0), 30, 60),
            span("a.inner", Some(1), 15, 25),
            span("c", Some(0), 90, 120),
        ];
        assert_eq!(self_times(&spans), vec![100 - 50 - 10, 30 - 10, 30, 10, 30]);
    }

    #[test]
    fn leaf_and_gapless_children() {
        let spans = vec![
            span("run", None, 0, 40),
            span("setup", Some(0), 0, 10),
            span("warmup", Some(0), 10, 20),
            span("measure", Some(0), 20, 35),
            span("finish", Some(0), 35, 40),
            span("run", None, 50, 60),
        ];
        assert_eq!(self_times(&spans), vec![0, 10, 10, 15, 5, 10]);
        let by_name = self_time_by_name(&spans);
        assert_eq!(by_name[0], ("run", 10));
        assert_eq!(by_name.len(), 5);
    }

    #[test]
    fn recorder_totals_and_open_close() {
        let mut rec = Spans::new();
        let parent = rec.open("chunk", None, Some(7));
        rec.record("l1i", Some(parent), Some(7), 1, 4, 3);
        rec.record("l1i", Some(parent), Some(7), 4, 9, 2);
        rec.close(parent);
        assert_eq!(rec.spans().len(), 3);
        assert!(rec.spans()[parent].end_ns >= rec.spans()[parent].start_ns);
    }
}

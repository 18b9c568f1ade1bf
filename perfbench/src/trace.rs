//! In-memory spans for the traced per-layer replay.
//!
//! Every call into a layer is wrapped in [`Tracer::span`]: the span keeps
//! its name, start, end and parent (the span open when it began), and is
//! held in memory until [`Tracer::write_json`] dumps the lot at the end of
//! the run. A layer's *self time* is its span's duration minus the part
//! covered by its child spans. A disabled tracer runs the same closures
//! without reading the clock, which is how the replay's untraced wall
//! time (the tracing overhead baseline) is measured.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::path::Path;
use std::time::Instant;

/// One recorded call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    /// Which shard the call served, for per-shard layers.
    pub shard: Option<usize>,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the tracer's span list.
    pub parent: Option<usize>,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).expect("a run lasts less than 584 years")
    }

    /// Runs `f` inside a span named `name`; spans opened by `f` through
    /// the tracer it is handed become children of this one.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> T) -> T {
        self.span_for(name, None, f)
    }

    /// [`Self::span`] for a call that served one shard.
    pub fn shard_span<T>(
        &mut self,
        name: &'static str,
        shard: usize,
        f: impl FnOnce(&mut Self) -> T,
    ) -> T {
        self.span_for(name, Some(shard), f)
    }

    fn span_for<T>(
        &mut self,
        name: &'static str,
        shard: Option<usize>,
        f: impl FnOnce(&mut Self) -> T,
    ) -> T {
        if !self.enabled {
            return f(self);
        }
        let index = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            shard,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
        });
        self.open.push(index);
        let out = f(self);
        self.open.pop();
        self.spans[index].end_ns = self.now_ns();
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Dumps every span as one JSON document (self time included).
    pub fn write_json(&self, path: &Path) -> io::Result<()> {
        let selfs = self_times_ns(&self.spans);
        let mut out = io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "{{\"spans\": [")?;
        for (i, (span, self_ns)) in self.spans.iter().zip(&selfs).enumerate() {
            let shard = span.shard.map_or("null".to_string(), |s| s.to_string());
            let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
            let comma = if i + 1 < self.spans.len() { "," } else { "" };
            writeln!(
                out,
                "  {{\"id\": {i}, \"name\": \"{}\", \"shard\": {shard}, \"start_ns\": {}, \
                 \"end_ns\": {}, \"self_ns\": {self_ns}, \"parent\": {parent}}}{comma}",
                span.name, span.start_ns, span.end_ns
            )?;
        }
        writeln!(out, "]}}")?;
        out.flush()
    }
}

/// Self time of every span: its duration minus its direct children's
/// durations (children of one parent never overlap — the tracer is
/// single-threaded and strictly nested).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut selfs: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for span in spans {
        if let Some(parent) = span.parent {
            selfs[parent] -= span.duration_ns();
        }
    }
    selfs
}

/// What every span of one name adds up to.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct SpanTotals {
    pub calls: usize,
    /// Summed durations, in seconds.
    pub inclusive_s: f64,
    /// Summed self times, in seconds.
    pub self_s: f64,
}

/// Per-name totals of `spans`.
pub fn totals_by_name(spans: &[Span]) -> BTreeMap<&'static str, SpanTotals> {
    let selfs = self_times_ns(spans);
    let mut totals: BTreeMap<&'static str, SpanTotals> = BTreeMap::new();
    for (span, self_ns) in spans.iter().zip(selfs) {
        let entry = totals.entry(span.name).or_default();
        entry.calls += 1;
        entry.inclusive_s += span.duration_ns() as f64 * 1e-9;
        entry.self_s += self_ns as f64 * 1e-9;
    }
    totals
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            shard: None,
            start_ns,
            end_ns,
            parent,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // barrier [0,100) ⊃ merge [10,70) ⊃ restore [20,50); barrier also
        // holds append [80,95).
        let spans = vec![
            span("barrier", 0, 100, None),
            span("merge", 10, 70, Some(0)),
            span("restore", 20, 50, Some(1)),
            span("append", 80, 95, Some(0)),
        ];
        assert_eq!(self_times_ns(&spans), vec![25, 30, 30, 15]);
        let merge = totals_by_name(&spans)["merge"];
        assert_eq!(merge.calls, 1);
        assert!((merge.inclusive_s - 60e-9).abs() < 1e-15);
        assert!((merge.self_s - 30e-9).abs() < 1e-15);
    }

    #[test]
    fn tracer_nests_spans_and_a_disabled_tracer_records_nothing() {
        let mut tracer = Tracer::new(true);
        let out = tracer.span("outer", |t| {
            t.shard_span("inner", 1, |_| 2 + 2) + t.span("inner", |_| 1)
        });
        assert_eq!(out, 5);
        let spans = tracer.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!((spans[1].parent, spans[1].shard), (Some(0), Some(1)));
        assert_eq!(spans[2].parent, Some(0));
        assert!(spans.iter().all(|s| s.end_ns >= s.start_ns));
        let selfs = self_times_ns(spans);
        assert_eq!(
            selfs[0],
            spans[0].duration_ns() - spans[1].duration_ns() - spans[2].duration_ns()
        );

        let mut off = Tracer::new(false);
        assert_eq!(off.span("outer", |t| t.span("inner", |_| 3)), 3);
        assert!(off.spans().is_empty());
    }
}

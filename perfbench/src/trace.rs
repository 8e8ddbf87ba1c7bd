//! In-memory spans recorded around the benchmark's own calls into each layer.
//!
//! A span has a name, a start, an end and a parent (the span open when it began). Spans
//! are only ever opened and closed in stack order on one thread, so a span's children
//! never overlap and its self time is its duration minus the sum of its children's.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::OnceLock;
use std::time::Instant;

const NO_PARENT: u32 = u32::MAX;

struct Span {
    name: &'static str,
    parent: u32,
    start_ns: u64,
    end_ns: u64,
}

/// Per-name aggregate of the recorded spans.
#[derive(Clone, Copy, Debug, Default)]
pub struct SpanTotals {
    pub calls: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

impl SpanTotals {
    pub fn self_ms(&self) -> f64 {
        self.self_ns as f64 / 1e6
    }

    pub fn total_ms(&self) -> f64 {
        self.total_ns as f64 / 1e6
    }

    /// Mean duration per call in microseconds.
    pub fn mean_us(&self) -> f64 {
        self.total_ns as f64 / 1e3 / self.calls.max(1) as f64
    }
}

/// A span recorder. A disabled tracer records nothing, so the same replay code measures
/// tracing overhead by running once each way.
pub struct Tracer {
    enabled: bool,
    spans: Vec<Span>,
    open: Vec<u32>,
}

/// Handle for an open span; `Tracer::exit` closes it.
#[must_use]
pub struct Open(u32);

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        // one epoch for every tracer, so spans recorded on different threads line up
        static EPOCH: OnceLock<Instant> = OnceLock::new();
        EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
    }

    pub fn enter(&mut self, name: &'static str) -> Open {
        if !self.enabled {
            return Open(NO_PARENT);
        }
        let id = self.spans.len() as u32;
        let parent = self.open.last().copied().unwrap_or(NO_PARENT);
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
        Open(id)
    }

    pub fn exit(&mut self, open: Open) {
        if !self.enabled {
            return;
        }
        let end_ns = self.now_ns();
        let popped = self.open.pop();
        debug_assert_eq!(popped, Some(open.0), "spans close in stack order");
        self.spans[open.0 as usize].end_ns = end_ns;
    }

    /// Run `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let open = self.enter(name);
        let result = f();
        self.exit(open);
        result
    }

    /// Calls, total and self time per span name.
    pub fn totals(&self) -> BTreeMap<&'static str, SpanTotals> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if span.parent != NO_PARENT {
                child_ns[span.parent as usize] += span.end_ns - span.start_ns;
            }
        }
        let mut totals: BTreeMap<&'static str, SpanTotals> = BTreeMap::new();
        for (span, children) in self.spans.iter().zip(child_ns) {
            let duration = span.end_ns - span.start_ns;
            let entry = totals.entry(span.name).or_default();
            entry.calls += 1;
            entry.total_ns += duration;
            entry.self_ns += duration.saturating_sub(children);
        }
        totals
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }
}

/// Write the spans of several tracers (one per thread) as CSV lines
/// `track,id,parent,name,start_ns,end_ns`; `parent` is empty for a root span and ids are
/// per track.
pub fn write_csv(tracers: &[&Tracer], path: &Path) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "track,id,parent,name,start_ns,end_ns")?;
    for (track, tracer) in tracers.iter().enumerate() {
        for (id, span) in tracer.spans.iter().enumerate() {
            let parent = if span.parent == NO_PARENT {
                String::new()
            } else {
                span.parent.to_string()
            };
            writeln!(
                out,
                "{track},{id},{parent},{},{},{}",
                span.name, span.start_ns, span.end_ns
            )?;
        }
    }
    out.flush()
}

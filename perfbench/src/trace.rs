//! In-memory span recorder for the traced run.
//!
//! Spans (name, start, end, parent) are recorded around the benchmark's
//! own calls into the layers, kept in memory while the workload runs and
//! written out as JSONL when it ends. Per-name totals and self times
//! (duration minus the part covered by child spans) are kept online, so
//! the per-layer metrics never depend on the stored-span cap.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// Spans kept for the JSONL dump; later spans still count in the totals.
const MAX_STORED: usize = 100_000;

/// One finished span. Times are nanoseconds since the tracer's epoch;
/// `parent` is 0 for a root span.
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Per-name totals over every finished span.
#[derive(Default, Clone, Copy)]
pub struct Totals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

struct Frame {
    id: u64,
    parent: u64,
    name: &'static str,
    start_ns: u64,
    child_ns: u64,
}

/// A single-threaded span recorder. When off, every call is a no-op.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    next_id: u64,
    stack: Vec<Frame>,
    spans: Vec<Span>,
    dropped: u64,
    totals: BTreeMap<&'static str, Totals>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Self {
            on,
            epoch: Instant::now(),
            next_id: 1,
            stack: Vec::new(),
            spans: Vec::new(),
            dropped: 0,
            totals: BTreeMap::new(),
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    fn ns(&self, at: Instant) -> u64 {
        u64::try_from(at.saturating_duration_since(self.epoch).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span under the innermost open span.
    pub fn enter(&mut self, name: &'static str) {
        if self.on {
            let start_ns = self.ns(Instant::now());
            self.open(name, start_ns);
        }
    }

    fn open(&mut self, name: &'static str, start_ns: u64) {
        let parent = self.stack.last().map_or(0, |f| f.id);
        let id = self.next_id;
        self.next_id += 1;
        self.stack.push(Frame { id, parent, name, start_ns, child_ns: 0 });
    }

    /// Closes the innermost open span.
    pub fn exit(&mut self) {
        if self.on {
            let end_ns = self.ns(Instant::now());
            self.close(end_ns);
        }
    }

    fn close(&mut self, end_ns: u64) {
        let frame = self.stack.pop().expect("exit without a matching enter");
        let dur = end_ns.saturating_sub(frame.start_ns);
        let totals = self.totals.entry(frame.name).or_default();
        totals.count += 1;
        totals.total_ns += dur;
        totals.self_ns += dur.saturating_sub(frame.child_ns);
        if let Some(parent) = self.stack.last_mut() {
            parent.child_ns += dur;
        }
        if self.spans.len() < MAX_STORED {
            self.spans.push(Span {
                id: frame.id,
                parent: frame.parent,
                name: frame.name,
                start_ns: frame.start_ns,
                end_ns,
            });
        } else {
            self.dropped += 1;
        }
    }

    /// Records a leaf span timed by the caller, under the innermost open
    /// span.
    pub fn record(&mut self, name: &'static str, start: Instant, end: Instant) {
        if self.on {
            let (s, e) = (self.ns(start), self.ns(end));
            self.open(name, s);
            self.close(e);
        }
    }

    /// Per-name totals, by name.
    pub fn summary(&self) -> impl Iterator<Item = (&'static str, Totals)> + '_ {
        self.totals.iter().map(|(name, totals)| (*name, *totals))
    }

    /// Writes every stored span as one JSON object per line, after a
    /// header line carrying `header` (a JSON object).
    pub fn write_jsonl(&self, path: &Path, header: &str) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "{header}")?;
        for s in &self.spans {
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.parent, s.name, s.start_ns, s.end_ns
            )?;
        }
        if self.dropped > 0 {
            writeln!(out, "{{\"dropped_spans\":{}}}", self.dropped)?;
        }
        out.flush()
    }
}

//! In-memory span recorder for the traced run.
//!
//! Spans are opened and closed on the benchmark's own thread around its
//! calls into each layer, kept in a `Vec`, and written out as JSONL when
//! the run ends. A span's self time is its duration minus the durations
//! of its children (children on one thread never overlap).

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// One closed span. Ids start at 1; parent 0 means a root span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Layer call the span times, e.g. `store.adjacent_batch`.
    pub name: &'static str,
    /// This span's id.
    pub id: u32,
    /// Enclosing span's id, 0 for a root.
    pub parent: u32,
    /// Batch (or probe) the span belongs to.
    pub batch: u64,
    /// Start, ns since the recorder was created.
    pub start_ns: u64,
    /// End, ns since the recorder was created.
    pub end_ns: u64,
}

impl Span {
    /// Duration in ns.
    #[must_use]
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Total self time and count of every span name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SelfTime {
    /// Spans of this name.
    pub count: u64,
    /// Sum of their self times, ns.
    pub self_ns: u64,
}

/// Records nested spans on one thread.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    /// Indices into `spans` of the currently open spans, innermost last.
    open: Vec<usize>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// An empty recorder; timestamps count from now.
    #[must_use]
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open span.
    pub fn enter(&mut self, name: &'static str, batch: u64) {
        let parent = self.open.last().map_or(0, |&i| self.spans[i].id);
        let id = u32::try_from(self.spans.len() + 1).expect("fewer than 2^32 spans");
        let start_ns = self.now_ns();
        self.open.push(self.spans.len());
        self.spans.push(Span {
            name,
            id,
            parent,
            batch,
            start_ns,
            end_ns: start_ns,
        });
    }

    /// Closes the innermost open span.
    ///
    /// # Panics
    ///
    /// Panics when no span is open.
    pub fn exit(&mut self) {
        let i = self.open.pop().expect("exit without an open span");
        self.spans[i].end_ns = self.now_ns();
    }

    /// Runs `f` inside a leaf span.
    pub fn time<T>(&mut self, name: &'static str, batch: u64, f: impl FnOnce() -> T) -> T {
        self.enter(name, batch);
        let out = f();
        self.exit();
        out
    }

    /// Every closed span, in opening order.
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time per span name.
    #[must_use]
    pub fn self_times(&self) -> BTreeMap<&'static str, SelfTime> {
        let mut child_ns = vec![0u64; self.spans.len() + 1];
        for s in &self.spans {
            child_ns[s.parent as usize] += s.dur_ns();
        }
        let mut out: BTreeMap<&'static str, SelfTime> = BTreeMap::new();
        for s in &self.spans {
            let t = out.entry(s.name).or_default();
            t.count += 1;
            t.self_ns += s.dur_ns().saturating_sub(child_ns[s.id as usize]);
        }
        out
    }

    /// Writes every span as one JSON object per line.
    ///
    /// # Errors
    ///
    /// Fails when the file cannot be created or written.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            writeln!(
                out,
                "{{\"name\":\"{}\",\"id\":{},\"parent\":{},\"batch\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.id, s.parent, s.batch, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

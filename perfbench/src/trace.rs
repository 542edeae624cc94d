//! In-memory span recording for the traced run.
//!
//! A span is one timed call into a layer: its name, start, end, the
//! span that caused it, and the id of the statement it belongs to.
//! Every statement has a root span (`stmt`) that measures the
//! statement's traced time; layer spans hang below it. A span's *self
//! time* is its duration minus the durations of its direct children, so
//! the root's self time is the part of the statement no layer accounts
//! for. Spans stay in memory until [`Tracer::write_tsv`] at the end of
//! the run.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// Name of the per-statement root span.
pub const ROOT: &str = "stmt";

/// One recorded span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Statement id shared by all spans of one statement.
    pub stmt: u32,
    /// Index of the parent span, `None` for a root.
    pub parent: Option<u32>,
    /// Layer call name (`sql.parse`, `exec.run`, …).
    pub name: &'static str,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer was created.
    pub end_ns: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Records spans; nesting follows the begin/end order.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Nanoseconds since the tracer was created.
    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span as a child of the innermost open span.
    pub fn begin(&mut self, stmt: u32, name: &'static str) -> u32 {
        let id = self.spans.len() as u32;
        let parent = self.open.last().copied();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            stmt,
            parent,
            name,
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
        id
    }

    /// Close span `id`, which must be the innermost open span.
    pub fn end(&mut self, id: u32) {
        let top = self.open.pop();
        debug_assert_eq!(top, Some(id), "spans must close innermost first");
        self.spans[id as usize].end_ns = self.now_ns();
    }

    /// Record an already-measured span as a child of the innermost open
    /// span. Used for time measured inside a layer call (the proof
    /// checker's share of a rewrite) and for time derived by
    /// subtraction (the server's residual).
    pub fn record(&mut self, stmt: u32, name: &'static str, start_ns: u64, dur_ns: u64) {
        let parent = self.open.last().copied();
        self.spans.push(Span {
            stmt,
            parent,
            name,
            start_ns,
            end_ns: start_ns + dur_ns,
        });
    }

    /// Set the duration of a closed span (the root of a wire statement
    /// is the client call's round trip, measured outside the tracer).
    pub fn set_duration(&mut self, id: u32, dur_ns: u64) {
        let span = &mut self.spans[id as usize];
        span.end_ns = span.start_ns + dur_ns;
    }

    /// Total self time per span name, in nanoseconds.
    pub fn self_times(&self) -> BTreeMap<&'static str, u64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(p) = span.parent {
                child_ns[p as usize] += span.dur_ns();
            }
        }
        let mut out = BTreeMap::new();
        for (span, children) in self.spans.iter().zip(child_ns) {
            *out.entry(span.name).or_insert(0) += span.dur_ns().saturating_sub(children);
        }
        out
    }

    /// Total duration of all spans named `name`, in nanoseconds.
    pub fn total(&self, name: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::dur_ns)
            .sum()
    }

    /// Write every span as tab-separated values: statement id, span id,
    /// parent id (`-` for a root), name, start and end in nanoseconds.
    pub fn write_tsv(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "stmt\tspan\tparent\tname\tstart_ns\tend_ns")?;
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}\t{}",
                s.stmt, id, parent, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children() {
        let mut t = Tracer::new();
        let root = t.begin(0, ROOT);
        t.record(0, "a", t.now_ns(), 100);
        t.end(root);
        t.set_duration(root, 250);
        t.record(1, "b", 0, 7);
        let self_ns = t.self_times();
        assert_eq!(self_ns[ROOT], 150);
        assert_eq!(self_ns["a"], 100);
        assert_eq!(self_ns["b"], 7);
        assert_eq!(t.total(ROOT), 250);
    }
}

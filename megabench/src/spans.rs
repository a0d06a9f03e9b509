//! In-memory spans recorded by the benchmark around its calls into each
//! layer's public API. Nothing is added inside the program: a span covers
//! one call (or one loop of identical calls, with `count` set) made from
//! this crate. Spans stay in memory and are written out once, at exit.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Index of a span in its [`Recorder`].
pub type SpanId = usize;

/// One recorded span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// `<layer>.<operation>`, e.g. `flowtree.observe`.
    pub name: &'static str,
    /// Nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// Nanoseconds since the recorder was created.
    pub end_ns: u64,
    /// The enclosing span, if any.
    pub parent: Option<SpanId>,
    /// Shared by every span of one epoch, query or probe.
    pub trace_id: u64,
    /// Calls covered by the span (1 for a single call).
    pub count: u64,
}

impl Span {
    /// The span's wall time in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    /// The layer: the part of the name before the first `.`.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// Records spans when enabled; when disabled every method is a no-op
/// apart from the wall-clock measurement callers always need.
#[derive(Debug)]
pub struct Recorder {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<SpanId>,
}

impl Recorder {
    /// A recorder that keeps spans iff `enabled`.
    pub fn new(enabled: bool) -> Self {
        Recorder {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Whether spans are being kept.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span that later spans nest under until [`Recorder::close`].
    pub fn open(&mut self, name: &'static str, trace_id: u64) -> Option<SpanId> {
        if !self.enabled {
            return None;
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            trace_id,
            count: 1,
        });
        self.open.push(id);
        Some(id)
    }

    /// Closes a span opened with [`Recorder::open`].
    pub fn close(&mut self, id: Option<SpanId>) {
        if let Some(id) = id {
            let end = self.now_ns();
            self.spans[id].end_ns = end;
            if let Some(pos) = self.open.iter().rposition(|&o| o == id) {
                self.open.truncate(pos);
            }
        }
    }

    /// Runs `f` — `count` calls into one layer — and returns its result
    /// with its wall time in seconds, recording a span when enabled.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        trace_id: u64,
        count: u64,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let start = Instant::now();
        let out = f();
        let secs = start.elapsed().as_secs_f64();
        if self.enabled {
            let end_ns = self.now_ns();
            let dur = (secs * 1e9) as u64;
            self.spans.push(Span {
                name,
                start_ns: end_ns.saturating_sub(dur),
                end_ns,
                parent: self.open.last().copied(),
                trace_id,
                count,
            });
        }
        (out, secs)
    }

    /// Every recorded span, in start order of their opening.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time per layer in milliseconds: each span's duration minus the
    /// part its child spans cover (children of one parent never overlap —
    /// the benchmark calls one layer at a time).
    pub fn self_ms_by_layer(&self) -> BTreeMap<&'static str, f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(p) = span.parent {
                child_ns[p] += span.duration_ns();
            }
        }
        let mut out: BTreeMap<&'static str, f64> = BTreeMap::new();
        for (span, covered) in self.spans.iter().zip(child_ns) {
            let own = span.duration_ns().saturating_sub(covered);
            *out.entry(span.layer()).or_default() += own as f64 / 1e6;
        }
        out
    }

    /// Writes every span as one tab-separated line:
    /// `id parent trace_id name start_ns end_ns count`.
    ///
    /// # Errors
    ///
    /// Returns the I/O error of creating or writing `path`.
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id\tparent\ttrace_id\tname\tstart_ns\tend_ns\tcount")?;
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or_else(|| "-".to_owned(), |p| p.to_string());
            writeln!(
                out,
                "{id}\t{parent}\t{}\t{}\t{}\t{}\t{}",
                s.trace_id, s.name, s.start_ns, s.end_ns, s.count
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_keeps_nothing_but_still_times() {
        let mut rec = Recorder::new(false);
        let p = rec.open("bench.epoch", 1);
        let (v, secs) = rec.time("core.ingest", 1, 1, || 7);
        rec.close(p);
        assert_eq!(v, 7);
        assert!(secs >= 0.0);
        assert!(rec.spans().is_empty());
    }

    #[test]
    fn children_nest_and_self_time_excludes_them() {
        let mut rec = Recorder::new(true);
        let p = rec.open("bench.epoch", 3);
        rec.time("core.ingest", 3, 10, || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        rec.close(p);
        let spans = rec.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].trace_id, 3);
        let self_ms = rec.self_ms_by_layer();
        assert!(self_ms["core"] >= 2.0);
        assert!(self_ms["bench"] < self_ms["core"]);
    }
}

//! Spans recorded by the benchmark around its calls into each layer.
//!
//! A span is `{name, start_ns, end_ns, parent, page}`; spans of one page
//! share its attempt number. They are kept in a `Vec` and written out
//! once, when the run ends. The replay is generic over [`Recorder`], so
//! the untraced variant compiles span recording to nothing and the
//! difference between the two is the tracing overhead.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// The layer boundaries the stage replay crosses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    Replay,
    Claim,
    Page,
    Fetch,
    Classify,
    MarkDone,
    LinkInsert,
    Upsert,
    MarkFailed,
    Commit,
    DistillEdges,
    DistillHits,
    DistillPersist,
}

impl Stage {
    pub const COUNT: usize = Stage::DistillPersist as usize + 1;

    pub fn name(self) -> &'static str {
        match self {
            Stage::Replay => "replay",
            Stage::Claim => "crawler.frontier.claim",
            Stage::Page => "page",
            Stage::Fetch => "webgraph.fetch",
            Stage::Classify => "classifier.compiled.evaluate",
            Stage::MarkDone => "crawler.frontier.mark_done",
            Stage::LinkInsert => "minirel.db.link_insert",
            Stage::Upsert => "crawler.frontier.upsert",
            Stage::MarkFailed => "crawler.frontier.mark_failed",
            Stage::Commit => "minirel.wal.commit",
            Stage::DistillEdges => "distiller.memory.edges",
            Stage::DistillHits => "distiller.memory.hits",
            Stage::DistillPersist => "distiller.persist",
        }
    }
}

pub type SpanId = u32;
/// Parent of a root span.
pub const NO_PARENT: SpanId = u32::MAX;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub stage: Stage,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: SpanId,
    /// Attempt number of the page this span worked for (0 = none).
    pub page: u64,
}

pub trait Recorder {
    /// Whether spans (and the counts taken at the same boundaries) are
    /// recorded at all.
    const ON: bool;
    fn begin(&mut self, stage: Stage, parent: SpanId, page: u64) -> SpanId;
    fn end(&mut self, id: SpanId);
}

/// Records every span.
pub struct Tracer {
    origin: Instant,
    pub spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }
}

impl Recorder for Tracer {
    const ON: bool = true;

    fn begin(&mut self, stage: Stage, parent: SpanId, page: u64) -> SpanId {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            stage,
            start_ns,
            end_ns: start_ns,
            parent,
            page,
        });
        (self.spans.len() - 1) as SpanId
    }

    fn end(&mut self, id: SpanId) {
        self.spans[id as usize].end_ns = self.now_ns();
    }
}

/// Records nothing.
pub struct NoTrace;

impl Recorder for NoTrace {
    const ON: bool = false;

    #[inline(always)]
    fn begin(&mut self, _: Stage, _: SpanId, _: u64) -> SpanId {
        NO_PARENT
    }

    #[inline(always)]
    fn end(&mut self, _: SpanId) {}
}

/// Spans of one stage, summed.
#[derive(Debug, Clone, Copy, Default)]
pub struct StageTime {
    pub spans: u64,
    pub total_ns: u64,
    /// Total minus the part covered by child spans.
    pub self_ns: u64,
    /// Duration of the stage's last span.
    pub last_ns: u64,
}

impl Tracer {
    /// Per-stage sums, indexed by `Stage as usize`.
    pub fn by_stage(&self) -> [StageTime; Stage::COUNT] {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != NO_PARENT {
                child_ns[s.parent as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut out = [StageTime::default(); Stage::COUNT];
        for (s, children) in self.spans.iter().zip(child_ns) {
            let t = &mut out[s.stage as usize];
            let dur = s.end_ns - s.start_ns;
            t.spans += 1;
            t.total_ns += dur;
            t.self_ns += dur.saturating_sub(children);
            t.last_ns = dur;
        }
        out
    }

    /// Write the spans as one JSON array.
    pub fn write_json(&self, path: &Path) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "[")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == NO_PARENT {
                "null".to_owned()
            } else {
                s.parent.to_string()
            };
            let comma = if i + 1 == self.spans.len() { "" } else { "," };
            writeln!(
                w,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"page\":{}}}{comma}",
                s.stage.name(),
                s.start_ns,
                s.end_ns,
                s.page
            )?;
        }
        writeln!(w, "]")?;
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::default();
        let page = t.begin(Stage::Page, NO_PARENT, 7);
        let fetch = t.begin(Stage::Fetch, page, 7);
        t.end(fetch);
        t.end(page);
        // Pin the clock readings so the arithmetic is exact.
        t.spans[page as usize].start_ns = 100;
        t.spans[page as usize].end_ns = 200;
        t.spans[fetch as usize].start_ns = 120;
        t.spans[fetch as usize].end_ns = 150;
        let by = t.by_stage();
        assert_eq!(by[Stage::Page as usize].total_ns, 100);
        assert_eq!(by[Stage::Page as usize].self_ns, 70);
        assert_eq!(by[Stage::Fetch as usize].self_ns, 30);
        assert_eq!(by[Stage::Fetch as usize].spans, 1);
    }

    #[test]
    fn untraced_recorder_records_nothing() {
        let mut n = NoTrace;
        let id = n.begin(Stage::Claim, NO_PARENT, 1);
        n.end(id);
        assert_eq!(id, NO_PARENT);
    }
}

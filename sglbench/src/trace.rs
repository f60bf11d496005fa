//! In-memory span recorder.  Spans are taken from the benchmark's own files,
//! around the calls into each layer; nothing inside the engine is
//! instrumented.  A disabled tracer records nothing, so the untraced run
//! executes the same loop as the traced one.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer-qualified name, e.g. `exec.tick`.
    pub name: &'static str,
    /// Start, nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Index of the span that was open when this one began.
    pub parent: Option<usize>,
    /// Simulation tick the span belongs to; spans of one tick share it.
    pub tick: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Handle returned by [`Tracer::begin`]; `None` while the tracer is disabled.
pub type SpanId = Option<usize>;

pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    enabled: bool,
}

impl Tracer {
    /// A tracer with room for `capacity` spans, so recording never allocates
    /// inside a measured region.
    pub fn new(capacity: usize) -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::with_capacity(capacity),
            open: Vec::with_capacity(16),
            enabled: false,
        }
    }

    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn begin(&mut self, name: &'static str, tick: u64) -> SpanId {
        if !self.enabled {
            return None;
        }
        let id = self.spans.len();
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: self.open.last().copied(),
            tick,
        });
        self.open.push(id);
        Some(id)
    }

    pub fn end(&mut self, id: SpanId) {
        let Some(id) = id else { return };
        self.spans[id].end_ns = self.now_ns();
        // Spans close innermost-first; tolerate a skipped `end` on an error
        // path by closing everything opened after `id` with it.
        while let Some(top) = self.open.pop() {
            if top == id {
                break;
            }
        }
    }

    /// Record `f` as a span and return its result.
    pub fn span<T>(&mut self, name: &'static str, tick: u64, f: impl FnOnce() -> T) -> T {
        let id = self.begin(name, tick);
        let out = f();
        self.end(id);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations in microseconds of every span called `name`.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64 / 1e3)
            .collect()
    }

    /// A span's duration minus the part of its interval that its direct
    /// children cover (children may overlap each other; the union counts
    /// once, and anything outside the parent is clipped).
    pub fn self_time_ns(&self, id: usize) -> u64 {
        let parent = &self.spans[id];
        let mut children: Vec<(u64, u64)> = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(|s| (s.start_ns.max(parent.start_ns), s.end_ns.min(parent.end_ns)))
            .filter(|(start, end)| end > start)
            .collect();
        children.sort_unstable();
        let mut covered = 0u64;
        let mut reach = parent.start_ns;
        for (start, end) in children {
            let start = start.max(reach);
            if end > start {
                covered += end - start;
                reach = end;
            }
        }
        parent.duration_ns() - covered
    }

    /// Write one JSON object per span: `id`, `name`, `start_ns`, `end_ns`,
    /// `parent` (an `id` or null), `tick`.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\": {id}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"tick\": {}}}",
                s.name, s.start_ns, s.end_ns, s.tick
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            tick: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let mut t = Tracer::new(8);
        t.spans = vec![
            span("tick", 100, 200, None),
            span("a", 110, 140, Some(0)),
            span("b", 130, 160, Some(0)), // overlaps a: union is 110..160
            span("nested", 115, 120, Some(1)), // grandchild: not subtracted twice
            span("c", 190, 250, Some(0)), // clipped to 190..200
            span("other", 0, 1000, None),
        ];
        assert_eq!(t.self_time_ns(0), 100 - 50 - 10);
        assert_eq!(t.self_time_ns(1), 30 - 5);
        assert_eq!(t.self_time_ns(5), 1000);
    }

    #[test]
    fn spans_nest_and_a_disabled_tracer_records_nothing() {
        let mut t = Tracer::new(8);
        assert_eq!(t.begin("off", 1), None);
        t.set_enabled(true);
        let outer = t.begin("outer", 7);
        let inner = t.span("inner", 7, || 41 + 1);
        assert_eq!(inner, 42);
        t.end(outer);
        let after = t.begin("after", 8);
        t.end(after);
        let s = t.spans();
        assert_eq!(s.len(), 3);
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[2].parent, None);
        assert!(s[0].end_ns >= s[1].end_ns);
        assert_eq!(t.durations_us("inner").len(), 1);
    }
}

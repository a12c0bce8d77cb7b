//! Spans recorded around the benchmark's own calls into each layer.
//!
//! Spans live in memory until the run ends. A span's self time is its
//! duration minus the part its child spans cover ([`crate::stats::self_ns`]).

use crate::stats::self_ns;
use std::time::Instant;

/// One timed interval, in nanoseconds since the tracer was created.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer boundary the span wraps, e.g. `core.batch`.
    pub name: &'static str,
    /// The span that caused this one.
    pub parent: Option<usize>,
    /// Start, ns since the tracer's origin.
    pub start: u64,
    /// End, ns since the tracer's origin (equal to `start` while open).
    pub end: u64,
}

impl Span {
    /// Duration in ns.
    pub fn ns(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// An in-memory span recorder.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::with_capacity(1 << 16),
        }
    }
}

impl Tracer {
    fn now(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Open a span; returns its id for [`Tracer::close`].
    pub fn open(&mut self, name: &'static str, parent: Option<usize>) -> usize {
        let t = self.now();
        self.spans.push(Span {
            name,
            parent,
            start: t,
            end: t,
        });
        self.spans.len() - 1
    }

    /// Close span `id`.
    pub fn close(&mut self, id: usize) {
        let t = self.now();
        self.spans[id].end = t;
    }

    /// Span by id.
    pub fn span(&self, id: usize) -> &Span {
        &self.spans[id]
    }

    /// Durations of every span named `name`, in recording order.
    pub fn durations(&self, name: &str) -> Vec<u64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::ns)
            .collect()
    }

    /// Summed duration of the spans named `name` whose parent is `parent`.
    pub fn child_total(&self, parent: usize, name: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.parent == Some(parent) && s.name == name)
            .map(Span::ns)
            .sum()
    }

    /// Self time of span `id`: its duration minus what its children cover.
    pub fn self_time(&self, id: usize) -> u64 {
        let children: Vec<(u64, u64)> = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(|s| (s.start, s.end))
            .collect();
        let s = &self.spans[id];
        self_ns(s.start, s.end, &children)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn children_cover_the_parent_except_its_self_time() {
        let mut t = Tracer::default();
        let root = t.open("build", None);
        let a = t.open("core.batch", Some(root));
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.close(a);
        let b = t.open("dtree.decide", Some(root));
        t.close(b);
        t.close(root);
        let total = t.span(root).ns();
        let covered = t.child_total(root, "core.batch") + t.child_total(root, "dtree.decide");
        assert_eq!(t.self_time(root), total - covered);
        assert!(t.child_total(root, "core.batch") >= 2_000_000);
        assert_eq!(t.durations("core.batch").len(), 1);
        assert_eq!(
            t.self_time(a),
            t.span(a).ns(),
            "a leaf span is all self time"
        );
    }
}

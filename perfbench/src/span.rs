//! In-memory spans recorded around calls into each layer.
//!
//! A span has a name, a start and an end (milliseconds from the
//! recorder's origin), the span that caused it, and the request (job) it
//! belongs to. Spans stay in memory until the run ends. A span's *self
//! time* is its duration minus the part of its interval that its child
//! spans cover, so overlapping children are not counted twice.

use std::time::Instant;

/// Index of a span in its [`Recorder`].
pub type SpanId = usize;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub request: u64,
    pub parent: Option<SpanId>,
    pub start_ms: f64,
    pub end_ms: f64,
}

impl Span {
    pub fn duration_ms(&self) -> f64 {
        (self.end_ms - self.start_ms).max(0.0)
    }
}

/// Collects the traced run's spans (the untraced run records none).
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
}

impl Recorder {
    pub fn new() -> Self {
        Recorder { origin: Instant::now(), spans: Vec::new() }
    }

    fn now_ms(&self) -> f64 {
        self.origin.elapsed().as_secs_f64() * 1e3
    }

    /// Open a span now; close it with [`Recorder::end`].
    pub fn start(&mut self, name: &'static str, request: u64, parent: Option<SpanId>) -> SpanId {
        let start_ms = self.now_ms();
        self.spans.push(Span { name, request, parent, start_ms, end_ms: start_ms });
        self.spans.len() - 1
    }

    pub fn end(&mut self, id: SpanId) {
        let now = self.now_ms();
        if let Some(span) = self.spans.get_mut(id) {
            span.end_ms = now;
        }
    }

    /// Record an already-measured span.
    #[cfg(test)]
    pub fn push(&mut self, span: Span) -> SpanId {
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// Self time of `id`: its duration minus the union of its direct
    /// children's intervals, clipped to the span.
    pub fn self_time_ms(&self, id: SpanId) -> f64 {
        let Some(span) = self.spans.get(id) else { return 0.0 };
        let mut children: Vec<(f64, f64)> = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(|s| (s.start_ms.max(span.start_ms), s.end_ms.min(span.end_ms)))
            .filter(|(a, b)| b > a)
            .collect();
        children.sort_by(|a, b| a.0.total_cmp(&b.0));
        let mut covered = 0.0;
        let mut cursor = span.start_ms;
        for (a, b) in children {
            let a = a.max(cursor);
            if b > a {
                covered += b - a;
                cursor = b;
            }
        }
        (span.duration_ms() - covered).max(0.0)
    }

    /// Per span name, in first-seen order: spans, distinct requests,
    /// summed duration and summed self time (ms).
    pub fn summary(&self) -> Vec<(&'static str, usize, usize, f64, f64)> {
        let mut out: Vec<(&'static str, Vec<u64>, f64, f64)> = Vec::new();
        for (i, s) in self.spans.iter().enumerate() {
            let k = match out.iter().position(|e| e.0 == s.name) {
                Some(k) => k,
                None => {
                    out.push((s.name, Vec::new(), 0.0, 0.0));
                    out.len() - 1
                }
            };
            out[k].1.push(s.request);
            out[k].2 += s.duration_ms();
            out[k].3 += self.self_time_ms(i);
        }
        out.into_iter()
            .map(|(name, mut requests, total, self_ms)| {
                let spans = requests.len();
                requests.sort_unstable();
                requests.dedup();
                (name, spans, requests.len(), total, self_ms)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<SpanId>, start_ms: f64, end_ms: f64) -> Span {
        Span { name, request: 1, parent, start_ms, end_ms }
    }

    #[test]
    fn self_time_subtracts_disjoint_children() {
        let mut r = Recorder::new();
        let root = r.push(span("solve", None, 0.0, 10.0));
        r.push(span("construct", Some(root), 1.0, 3.0));
        r.push(span("pheromone", Some(root), 5.0, 9.0));
        assert_eq!(r.self_time_ms(root), 4.0);
        let summary = r.summary();
        assert_eq!(summary[0], ("solve", 1, 1, 10.0, 4.0));
        assert_eq!(summary[1], ("construct", 1, 1, 2.0, 2.0));
    }

    #[test]
    fn overlapping_children_are_counted_once() {
        let mut r = Recorder::new();
        let root = r.push(span("job", None, 0.0, 10.0));
        r.push(span("a", Some(root), 2.0, 6.0));
        r.push(span("b", Some(root), 4.0, 8.0));
        r.push(span("c", Some(root), 5.0, 7.0));
        assert_eq!(r.self_time_ms(root), 4.0);
    }

    #[test]
    fn children_are_clipped_and_grandchildren_ignored() {
        let mut r = Recorder::new();
        let root = r.push(span("job", None, 2.0, 10.0));
        let child = r.push(span("a", Some(root), 0.0, 4.0));
        r.push(span("deep", Some(child), 1.0, 3.0));
        r.push(span("late", Some(root), 9.0, 12.0));
        assert_eq!(r.self_time_ms(root), 5.0);
        assert_eq!(r.self_time_ms(child), 2.0);
        assert_eq!(r.self_time_ms(99), 0.0);
    }
}

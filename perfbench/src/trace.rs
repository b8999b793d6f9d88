//! In-memory spans for the traced run.
//!
//! A span records a name, start and end (nanoseconds since the tracer's
//! origin), its parent span and the request it belongs to. Spans stay in
//! memory while the workload runs and are written out as JSON lines when
//! it ends. A disabled tracer records nothing and costs one branch.

use std::fmt::Write as _;
use std::path::Path;
use std::time::{Duration, Instant};

use crate::stats::Samples;
use crate::Result;

/// One recorded span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// What ran: a layer's public call (`IndexView::candidates`) or a client
    /// request (`tcp.QUERY`).
    pub name: &'static str,
    /// Start, in ns since the tracer's origin.
    pub start_ns: u64,
    /// End, in ns since the tracer's origin (0 while open).
    pub end_ns: u64,
    /// The enclosing span's id, 0 for a root.
    pub parent: u64,
    /// The request (or work item) the span belongs to.
    pub request: u64,
}

impl Span {
    /// The span's duration.
    pub fn duration(&self) -> Duration {
        Duration::from_nanos(self.end_ns.saturating_sub(self.start_ns))
    }
}

/// A span identifier: 1-based index into the tracer, 0 meaning "no span".
pub type SpanId = u64;

/// A span recorder owned by one thread.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer that records when `enabled`, timing from `origin`.
    pub fn new(enabled: bool, origin: Instant) -> Self {
        Self {
            enabled,
            origin,
            spans: Vec::new(),
        }
    }

    /// Whether spans are recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span; close it with [`Tracer::close_span`]. Returns 0 (and
    /// records nothing) when disabled.
    pub fn open_span(&mut self, name: &'static str, parent: SpanId, request: u64) -> SpanId {
        if !self.enabled {
            return 0;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: 0,
            parent,
            request,
        });
        u64::try_from(self.spans.len()).unwrap_or(0)
    }

    /// Closes a span opened by [`Tracer::open_span`].
    pub fn close_span(&mut self, id: SpanId) {
        let end_ns = self.now_ns();
        let slot = usize::try_from(id).ok().and_then(|id| id.checked_sub(1));
        if let Some(span) = slot.and_then(|slot| self.spans.get_mut(slot)) {
            span.end_ns = end_ns;
        }
    }

    /// Runs `work` inside a span and returns its result with the span's
    /// wall time (measured whether or not the tracer records).
    pub fn timed<T>(
        &mut self,
        name: &'static str,
        parent: SpanId,
        request: u64,
        work: impl FnOnce() -> T,
    ) -> (T, Duration) {
        let id = self.open_span(name, parent, request);
        let started = Instant::now();
        let value = work();
        let elapsed = started.elapsed();
        self.close_span(id);
        (value, elapsed)
    }

    /// Records an already-measured interval as a closed span.
    pub fn add_span(
        &mut self,
        name: &'static str,
        started: Instant,
        elapsed: Duration,
        request: u64,
    ) {
        if !self.enabled {
            return;
        }
        let start_ns = u64::try_from(started.saturating_duration_since(self.origin).as_nanos())
            .unwrap_or(u64::MAX);
        let end_ns = start_ns.saturating_add(u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX));
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent: 0,
            request,
        });
    }

    /// Moves another tracer's spans into this one, re-basing their parent
    /// ids.
    pub fn absorb_spans(&mut self, other: Tracer) {
        let offset = u64::try_from(self.spans.len()).unwrap_or(0);
        self.spans.extend(other.spans.into_iter().map(|mut span| {
            if span.parent != 0 {
                span.parent += offset;
            }
            span
        }));
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The median duration, in µs, of the spans with this name.
    pub fn median_us(&self, name: &str) -> f64 {
        let mut samples = Samples::new();
        for span in self.spans.iter().filter(|span| span.name == name) {
            samples.add(span.duration());
        }
        samples.median_us()
    }

    /// Every span as one JSON object per line (`id` is 1-based).
    pub fn jsonl(&self) -> String {
        let mut out = String::with_capacity(self.spans.len() * 96);
        for (index, span) in self.spans.iter().enumerate() {
            let _ = writeln!(
                out,
                "{{\"id\": {}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {}, \"request\": {}}}",
                index + 1,
                span.name,
                span.start_ns,
                span.end_ns,
                span.parent,
                span.request
            );
        }
        out
    }

    /// Writes [`Tracer::jsonl`] to `path`, creating its directory.
    pub fn write_jsonl(&self, path: &Path) -> Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, self.jsonl())?;
        Ok(())
    }
}

/// The cost of recording one span (an open and a close), measured on a
/// separate tracer: what tracing adds to each timed call.
pub fn span_cost(origin: Instant) -> Duration {
    const ROUNDS: u32 = 100_000;
    let mut spare = Tracer::new(true, origin);
    spare.spans.reserve(usize::try_from(ROUNDS).unwrap_or(0));
    let started = Instant::now();
    for round in 0..ROUNDS {
        let id = spare.open_span("calibration", 0, u64::from(round));
        spare.close_span(id);
    }
    started.elapsed() / ROUNDS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracers_record_nothing_but_still_time() {
        let mut tracer = Tracer::new(false, Instant::now());
        let (value, elapsed) = tracer.timed("work", 0, 1, || 7);
        assert_eq!(value, 7);
        assert!(elapsed <= Duration::from_secs(1));
        assert_eq!(tracer.open_span("x", 0, 0), 0);
        tracer.add_span("y", Instant::now(), Duration::from_millis(1), 0);
        assert!(tracer.spans().is_empty());
    }

    #[test]
    fn nested_spans_record_parents_and_durations() {
        let origin = Instant::now();
        let mut tracer = Tracer::new(true, origin);
        let outer = tracer.open_span("outer", 0, 9);
        let (_, _) = tracer.timed("inner", outer, 9, || {
            sablock::core::parallel::sleep(Duration::from_millis(2))
        });
        tracer.close_span(outer);
        let spans = tracer.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, 1, "inner points at outer");
        assert_eq!(spans[1].request, 9);
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        let inner_us = tracer.median_us("inner");
        assert!(inner_us >= 2_000.0, "{inner_us}");
        assert!(tracer.median_us("outer") >= inner_us);
        assert_eq!(tracer.median_us("absent"), 0.0);
    }

    #[test]
    fn absorbed_spans_keep_their_parents() {
        let origin = Instant::now();
        let mut first = Tracer::new(true, origin);
        let root = first.open_span("a", 0, 0);
        first.close_span(root);
        let mut second = Tracer::new(true, origin);
        let parent = second.open_span("b", 0, 1);
        let child = second.open_span("c", parent, 1);
        second.close_span(child);
        second.close_span(parent);
        first.absorb_spans(second);
        let spans = first.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[2].parent, 2, "c's parent b moved from id 1 to id 2");
        assert_eq!(spans[1].parent, 0);
    }

    #[test]
    fn spans_write_as_json_lines() {
        let mut tracer = Tracer::new(true, Instant::now());
        tracer.add_span("tcp.QUERY", Instant::now(), Duration::from_micros(5), 3);
        let text = tracer.jsonl();
        assert!(
            text.starts_with("{\"id\": 1, \"name\": \"tcp.QUERY\""),
            "{text}"
        );
        assert!(text.ends_with("\"request\": 3}\n"), "{text}");
    }

    #[test]
    fn span_cost_is_small_and_positive() {
        let cost = span_cost(Instant::now());
        assert!(
            cost > Duration::ZERO && cost < Duration::from_micros(50),
            "{cost:?}"
        );
    }
}

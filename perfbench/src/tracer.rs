//! In-memory span recorder for the traced run.
//!
//! Spans are opened and closed around calls into a layer's public
//! functions from the benchmark's own code; nothing inside the program
//! is instrumented. Each span has a name, start and end, its parent
//! span and the request it belongs to. Spans stay in memory and are
//! written out once, when the run ends.

use cachekit_bench::json::Json;
use std::time::{Duration, Instant};

/// Identifier of an open or closed span.
pub type SpanId = usize;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer boundary, e.g. `"sweep.simulate"`.
    pub name: &'static str,
    /// Parent span, if any.
    pub parent: Option<SpanId>,
    /// Request (or campaign, or cell) the span belongs to.
    pub request: u64,
    /// Start, relative to the tracer's epoch.
    pub start: Duration,
    /// End, relative to the tracer's epoch (`None` while open).
    pub end: Option<Duration>,
}

impl Span {
    /// Duration of a closed span (zero while open).
    pub fn duration(&self) -> Duration {
        self.end.map_or(Duration::ZERO, |e| e - self.start)
    }
}

/// The recorder.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// An empty recorder whose epoch is now.
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Open a span.
    pub fn open(&mut self, name: &'static str, parent: Option<SpanId>, request: u64) -> SpanId {
        self.spans.push(Span {
            name,
            parent,
            request,
            start: self.epoch.elapsed(),
            end: None,
        });
        self.spans.len() - 1
    }

    /// Close a span; returns its duration.
    pub fn close(&mut self, id: SpanId) -> Duration {
        let span = &mut self.spans[id];
        span.end = Some(self.epoch.elapsed());
        span.duration()
    }

    /// Record an already-measured span (work timed elsewhere, e.g. on
    /// another thread) of `duration` ending now.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        request: u64,
        duration: Duration,
    ) {
        let end = self.epoch.elapsed();
        self.spans.push(Span {
            name,
            parent,
            request,
            start: end.saturating_sub(duration),
            end: Some(end),
        });
    }

    /// Sum of the durations of every span named `name`.
    pub fn total(&self, name: &str) -> Duration {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::duration)
            .sum()
    }

    /// Summed duration, in seconds, of the spans named `name` that
    /// belong to `request`.
    pub fn span_s(&self, name: &str, request: u64) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name && s.request == request)
            .map(|s| s.duration().as_secs_f64())
            .sum()
    }

    /// Self time of every span named `name`, summed: each span's
    /// duration minus the part of it its direct children cover.
    pub fn self_time(&self, name: &str) -> Duration {
        let mut covered = vec![Duration::ZERO; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                covered[p] += s.duration();
            }
        }
        self.spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == name)
            .map(|(i, s)| s.duration().saturating_sub(covered[i]))
            .sum()
    }

    /// Number of spans recorded.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// The spans as JSON lines (one object per span).
    pub fn to_json_lines(&self) -> String {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let line = Json::object(vec![
                ("id", Json::from(id)),
                ("name", Json::from(s.name)),
                ("parent", s.parent.map_or(Json::Null, Json::from)),
                ("request", Json::from(s.request)),
                ("start_ns", Json::from(s.start.as_nanos() as u64)),
                (
                    "end_ns",
                    Json::from(s.end.map_or(0, |e| e.as_nanos() as u64)),
                ),
            ]);
            out.push_str(&line.to_compact());
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children() {
        let mut t = Tracer::new();
        let root = t.open("campaign", None, 1);
        std::thread::sleep(Duration::from_millis(2));
        let child = t.open("measure", Some(root), 1);
        std::thread::sleep(Duration::from_millis(5));
        t.close(child);
        t.close(root);
        let total = t.total("campaign");
        let own = t.self_time("campaign");
        assert_eq!(own, total - t.total("measure"));
        assert!(own >= Duration::from_millis(2));
        assert_eq!(t.to_json_lines().lines().count(), 2);
    }
}

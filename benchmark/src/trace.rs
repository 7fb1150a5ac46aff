//! In-memory spans for the traced run.
//!
//! A span records one call into a layer: its name, id, the span that
//! caused it, the request it belongs to, start and end in nanoseconds
//! since the tracer was created, and counts of the work it did. Spans
//! are kept in memory while the workload runs and written out as JSON
//! lines when it ends, so writing never perturbs the timed calls.
//!
//! Spans are opened and closed from the benchmark's own code, around
//! calls into the repository's public functions; nothing inside the
//! program is instrumented.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One closed span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer-qualified name, e.g. `sim.replay`.
    pub name: String,
    /// Unique id within the run (starts at 1).
    pub id: u64,
    /// The span that caused this one.
    pub parent: Option<u64>,
    /// The request or operation this span serves.
    pub request: Option<u64>,
    /// Start, nanoseconds since the tracer's origin.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer's origin.
    pub end_ns: u64,
    /// Work counts recorded at the boundary (records, pairs, cells…).
    pub counts: Vec<(String, u64)>,
}

impl Span {
    /// Duration in seconds.
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }

    /// A recorded count by key, 0 when absent.
    pub fn count(&self, key: &str) -> u64 {
        self.counts
            .iter()
            .find(|(k, _)| k == key)
            .map_or(0, |&(_, v)| v)
    }
}

/// An opened span, closed by [`Tracer::close`].
#[derive(Debug)]
#[must_use = "an open span records nothing until closed"]
pub struct Open {
    name: String,
    id: u64,
    parent: Option<u64>,
    request: Option<u64>,
    start_ns: u64,
}

impl Open {
    /// This span's id, to pass as a child's parent.
    pub fn id(&self) -> u64 {
        self.id
    }
}

/// Collects spans from any thread.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// A tracer whose clock starts now.
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span now.
    pub fn open(&self, name: &str, parent: Option<u64>, request: Option<u64>) -> Open {
        Open {
            name: name.to_owned(),
            id: self.next_id.fetch_add(1, Ordering::Relaxed),
            parent,
            request,
            start_ns: self.now_ns(),
        }
    }

    /// Closes `open` now with its work counts; returns its duration
    /// in seconds.
    pub fn close(&self, open: Open, counts: &[(&str, u64)]) -> f64 {
        let span = Span {
            name: open.name,
            id: open.id,
            parent: open.parent,
            request: open.request,
            start_ns: open.start_ns,
            end_ns: self.now_ns().max(open.start_ns),
            counts: counts.iter().map(|&(k, v)| (k.to_owned(), v)).collect(),
        };
        let secs = span.secs();
        self.spans.lock().expect("span list lock").push(span);
        secs
    }

    /// Records a span whose interval was measured elsewhere, e.g. by
    /// the load generator's own clock (`start`/`end` are instants on
    /// the same monotonic clock as the tracer's origin).
    pub fn record(
        &self,
        name: &str,
        parent: Option<u64>,
        request: Option<u64>,
        start: Instant,
        end: Instant,
        counts: &[(&str, u64)],
    ) -> u64 {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let start_ns = start.saturating_duration_since(self.origin).as_nanos() as u64;
        let end_ns = end.saturating_duration_since(self.origin).as_nanos() as u64;
        self.spans.lock().expect("span list lock").push(Span {
            name: name.to_owned(),
            id,
            parent,
            request,
            start_ns,
            end_ns: end_ns.max(start_ns),
            counts: counts.iter().map(|&(k, v)| (k.to_owned(), v)).collect(),
        });
        id
    }

    /// A snapshot of every closed span, in closing order.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span list lock").clone()
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = String::new();
        for span in self.spans() {
            let opt = |v: Option<u64>| v.map_or("null".to_owned(), |v| v.to_string());
            let mut counts = String::new();
            for (i, (k, v)) in span.counts.iter().enumerate() {
                let sep = if i == 0 { "" } else { "," };
                let _ = write!(counts, "{sep}\"{k}\":{v}");
            }
            let _ = writeln!(
                out,
                "{{\"name\":\"{}\",\"id\":{},\"parent\":{},\"request\":{},\"start_ns\":{},\"end_ns\":{},\"counts\":{{{counts}}}}}",
                span.name,
                span.id,
                opt(span.parent),
                opt(span.request),
                span.start_ns,
                span.end_ns
            );
        }
        let mut file = std::fs::File::create(path)?;
        file.write_all(out.as_bytes())?;
        file.sync_all()
    }
}

/// Total duration in seconds of the spans named `name`.
pub fn total_secs(spans: &[Span], name: &str) -> f64 {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::secs)
        .sum()
}

/// Durations in seconds of the spans named `name`, in closing order.
pub fn durations(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::secs)
        .collect()
}

/// Sum of count `key` over the spans named `name`.
pub fn total_count(spans: &[Span], name: &str, key: &str) -> u64 {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.count(key))
        .sum()
}

/// Self time per layer, in seconds: each span's duration minus the
/// part of its interval its direct children cover, summed by layer
/// (the name up to its first dot).
pub fn layer_self_times(spans: &[Span]) -> BTreeMap<String, f64> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for span in spans {
        if let Some(parent) = span.parent {
            children
                .entry(parent)
                .or_default()
                .push((span.start_ns, span.end_ns));
        }
    }
    let mut by_layer: BTreeMap<String, f64> = BTreeMap::new();
    for span in spans {
        let covered = children.get_mut(&span.id).map_or(0, |intervals| {
            covered_ns(intervals, span.start_ns, span.end_ns)
        });
        let own = (span.end_ns - span.start_ns).saturating_sub(covered);
        let layer = span.name.split('.').next().unwrap_or(&span.name).to_owned();
        *by_layer.entry(layer).or_default() += own as f64 * 1e-9;
    }
    by_layer
}

/// Length of the union of `intervals`, clipped to `[lo, hi]`.
fn covered_ns(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut reach = lo;
    for &(start, end) in intervals.iter() {
        let start = start.max(reach);
        let end = end.min(hi);
        if end > start {
            covered += end - start;
            reach = end;
        }
    }
    covered
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, id: u64, parent: Option<u64>, start: u64, end: u64) -> Span {
        Span {
            name: name.to_owned(),
            id,
            parent,
            request: None,
            start_ns: start,
            end_ns: end,
            counts: Vec::new(),
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span("serve.request", 1, None, 0, 1_000),
            // Two overlapping children cover 100..400 = 300 ns.
            span("serve.store.get", 2, Some(1), 100, 300),
            span("serve.codec.decode", 3, Some(1), 200, 400),
            span("sim.replay", 4, None, 0, 500),
        ];
        let layers = layer_self_times(&spans);
        let ns = |layer: &str| (layers[layer] * 1e9).round() as u64;
        assert_eq!(ns("serve"), 700 + 200 + 200);
        assert_eq!(ns("sim"), 500);
    }

    #[test]
    fn spans_round_trip_through_the_tracer() {
        let tracer = Tracer::new();
        let outer = tracer.open("experiments.fig2", None, Some(7));
        let inner = tracer.open("report.render", Some(outer.id()), Some(7));
        tracer.close(inner, &[("bytes", 10)]);
        tracer.close(outer, &[("pairs", 3)]);
        let spans = tracer.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].parent, Some(spans[1].id));
        assert_eq!(spans[1].count("pairs"), 3);
        assert_eq!(total_count(&spans, "report.render", "bytes"), 10);
        assert!(spans[1].start_ns <= spans[0].start_ns);
        assert!(spans[0].end_ns <= spans[1].end_ns);
    }
}

//! Service metrics with Prometheus text exposition.
//!
//! Plain atomics — no instrumentation framework. Counters are
//! monotonic `u64`s; the one gauge tracks batches currently inside
//! the simulation engine; batch latency lands in a fixed-bound
//! histogram. [`Metrics::render_prometheus`] emits the standard text
//! format for `GET /metrics`.

use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

use crate::store::StoreStats;

/// Upper bounds (seconds) of the batch-latency histogram buckets, two
/// per decade from 10 µs (a one-cell batch on a short trace) to 10 s;
/// a `+Inf` bucket is implicit.
pub const LATENCY_BOUNDS: [f64; 13] = [
    0.00001, 0.00003, 0.0001, 0.0003, 0.001, 0.003, 0.01, 0.03, 0.1, 0.3, 1.0, 3.0, 10.0,
];

/// A histogram of batch latencies with fixed bounds.
#[derive(Debug, Default)]
pub struct Histogram {
    buckets: [AtomicU64; LATENCY_BOUNDS.len() + 1],
    sum_micros: AtomicU64,
    count: AtomicU64,
}

impl Histogram {
    /// Records one observation.
    pub fn observe(&self, latency: Duration) {
        let secs = latency.as_secs_f64();
        let idx = LATENCY_BOUNDS
            .iter()
            .position(|&b| secs <= b)
            .unwrap_or(LATENCY_BOUNDS.len());
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.sum_micros
            .fetch_add(latency.as_micros() as u64, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }
}

/// Statuses that get their own `bpred_serve_requests_total{status=…}`
/// series; anything else lands in the `"other"` bucket.
pub const TRACKED_STATUSES: [u16; 7] = [200, 400, 404, 413, 429, 431, 500];

/// All counters the service exports.
#[derive(Debug, Default)]
pub struct Metrics {
    /// HTTP requests accepted (any route).
    pub http_requests: AtomicU64,
    /// Responses sent, by status (indexed like [`TRACKED_STATUSES`],
    /// final slot = other).
    pub requests_by_status: [AtomicU64; TRACKED_STATUSES.len() + 1],
    /// Connections currently open across all shards (gauge).
    pub connections_open: AtomicU64,
    /// Sweep requests refused with 429 because the compute queue was
    /// full.
    pub shed_total: AtomicU64,
    /// Sweep requests sitting in (or being pulled from) the compute
    /// queue (gauge).
    pub queue_depth: AtomicU64,
    /// Sweep requests parsed successfully.
    pub sweep_requests: AtomicU64,
    /// Sweep requests answered on the event loop, every cell from the
    /// local store tiers (a subset of `sweep_requests`).
    pub sweeps_inline: AtomicU64,
    /// Requests rejected with a 4xx.
    pub bad_requests: AtomicU64,
    /// Sweep cells requested (one per config per request).
    pub cells: AtomicU64,
    /// Cells answered from the result store.
    pub cache_hits: AtomicU64,
    /// Cells that had to be simulated.
    pub cache_misses: AtomicU64,
    /// Cells answered by waiting on another request's in-flight batch.
    pub coalesced_waits: AtomicU64,
    /// Batches submitted to the simulation engine.
    pub batches: AtomicU64,
    /// Batches currently inside the engine (gauge).
    pub inflight_batches: AtomicU64,
    /// Batch wall-clock latency.
    pub batch_latency: Histogram,
    /// Workload models materialised by the service's model memo (at
    /// most one per suite benchmark per process).
    pub workload_models_built: AtomicU64,
    /// Per-tier store counters, attached when the server opens its
    /// result store; the store series render as zeros until then.
    store: OnceLock<Arc<StoreStats>>,
}

impl Metrics {
    /// Fresh zeroed metrics.
    pub fn new() -> Self {
        Metrics::default()
    }

    /// Adds one to a counter.
    pub fn inc(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds `n` to a counter.
    pub fn add(counter: &AtomicU64, n: u64) {
        counter.fetch_add(n, Ordering::Relaxed);
    }

    /// Shares the result store's per-tier counters with this
    /// exposition (idempotent; the first attachment wins).
    pub fn attach_store(&self, stats: Arc<StoreStats>) {
        let _ = self.store.set(stats);
    }

    /// Counts one response by its status code.
    pub fn observe_status(&self, status: u16) {
        let idx = TRACKED_STATUSES
            .iter()
            .position(|&s| s == status)
            .unwrap_or(TRACKED_STATUSES.len());
        self.requests_by_status[idx].fetch_add(1, Ordering::Relaxed);
    }

    /// Reads one status counter (tests and sanity checks).
    pub fn status_count(&self, status: u16) -> u64 {
        let idx = TRACKED_STATUSES
            .iter()
            .position(|&s| s == status)
            .unwrap_or(TRACKED_STATUSES.len());
        self.requests_by_status[idx].load(Ordering::Relaxed)
    }

    /// Renders the Prometheus text exposition format.
    pub fn render_prometheus(&self) -> String {
        let mut out = String::with_capacity(2048);
        let counters: [(&str, &str, &AtomicU64); 10] = [
            (
                "bpred_http_requests_total",
                "HTTP requests accepted",
                &self.http_requests,
            ),
            (
                "bpred_sweep_requests_total",
                "Sweep requests parsed successfully",
                &self.sweep_requests,
            ),
            (
                "bpred_sweeps_inline_total",
                "Sweep requests answered on the event loop from the local store tiers",
                &self.sweeps_inline,
            ),
            (
                "bpred_bad_requests_total",
                "Requests rejected with a client error",
                &self.bad_requests,
            ),
            ("bpred_cells_total", "Sweep cells requested", &self.cells),
            (
                "bpred_cache_hits_total",
                "Cells answered from the result store",
                &self.cache_hits,
            ),
            (
                "bpred_cache_misses_total",
                "Cells that had to be simulated",
                &self.cache_misses,
            ),
            (
                "bpred_coalesced_waits_total",
                "Cells answered by waiting on another request's batch",
                &self.coalesced_waits,
            ),
            (
                "bpred_batches_total",
                "Batches submitted to the simulation engine",
                &self.batches,
            ),
            (
                "bpred_workload_models_built_total",
                "Workload models materialised by the sweep service",
                &self.workload_models_built,
            ),
        ];
        for (name, help, counter) in counters {
            let value = counter.load(Ordering::Relaxed);
            let _ = writeln!(out, "# HELP {name} {help}");
            let _ = writeln!(out, "# TYPE {name} counter");
            let _ = writeln!(out, "{name} {value}");
        }

        let _ = writeln!(
            out,
            "# HELP bpred_serve_requests_total Responses sent, by HTTP status"
        );
        let _ = writeln!(out, "# TYPE bpred_serve_requests_total counter");
        for (i, status) in TRACKED_STATUSES.iter().enumerate() {
            let value = self.requests_by_status[i].load(Ordering::Relaxed);
            let _ = writeln!(
                out,
                "bpred_serve_requests_total{{status=\"{status}\"}} {value}"
            );
        }
        let other = self.requests_by_status[TRACKED_STATUSES.len()].load(Ordering::Relaxed);
        let _ = writeln!(
            out,
            "bpred_serve_requests_total{{status=\"other\"}} {other}"
        );

        let _ = writeln!(
            out,
            "# HELP bpred_serve_shed_total Sweep requests refused with 429 (compute queue full)"
        );
        let _ = writeln!(out, "# TYPE bpred_serve_shed_total counter");
        let _ = writeln!(
            out,
            "bpred_serve_shed_total {}",
            self.shed_total.load(Ordering::Relaxed)
        );

        let _ = writeln!(
            out,
            "# HELP bpred_serve_connections_open Connections currently open across all shards"
        );
        let _ = writeln!(out, "# TYPE bpred_serve_connections_open gauge");
        let _ = writeln!(
            out,
            "bpred_serve_connections_open {}",
            self.connections_open.load(Ordering::Relaxed)
        );

        let _ = writeln!(
            out,
            "# HELP bpred_serve_queue_depth Sweep requests waiting in the compute queue"
        );
        let _ = writeln!(out, "# TYPE bpred_serve_queue_depth gauge");
        let _ = writeln!(
            out,
            "bpred_serve_queue_depth {}",
            self.queue_depth.load(Ordering::Relaxed)
        );

        // Tiered result store: per-tier hit counters plus the
        // segment-count and hot-tier-size gauges. Rendered (as
        // zeros) even before a store is attached so the exposition
        // schema is stable.
        let store = self.store.get();
        let tier =
            |f: fn(&StoreStats) -> &AtomicU64| store.map_or(0, |s| f(s).load(Ordering::Relaxed));
        let _ = writeln!(
            out,
            "# HELP bpred_store_hits_total Cells answered, by store tier"
        );
        let _ = writeln!(out, "# TYPE bpred_store_hits_total counter");
        let _ = writeln!(
            out,
            "bpred_store_hits_total{{tier=\"hot\"}} {}",
            tier(|s| &s.hot_hits)
        );
        let _ = writeln!(
            out,
            "bpred_store_hits_total{{tier=\"pack\"}} {}",
            tier(|s| &s.pack_hits)
        );
        let _ = writeln!(out, "# HELP bpred_store_segments Pack segments on disk");
        let _ = writeln!(out, "# TYPE bpred_store_segments gauge");
        let _ = writeln!(out, "bpred_store_segments {}", tier(|s| &s.segments));
        let _ = writeln!(out, "# HELP bpred_store_hot_bytes Hot-tier resident bytes");
        let _ = writeln!(out, "# TYPE bpred_store_hot_bytes gauge");
        let _ = writeln!(out, "bpred_store_hot_bytes {}", tier(|s| &s.hot_bytes));

        // Engine-side counter: lane-records replayed through the
        // chunked sweep pipeline, process-wide (so it covers every
        // batch this service has run).
        let replayed = bpred_sim::records_replayed_total();
        let _ = writeln!(
            out,
            "# HELP bpred_records_replayed_total Lane-records replayed through the chunked sweep pipeline"
        );
        let _ = writeln!(out, "# TYPE bpred_records_replayed_total counter");
        let _ = writeln!(out, "bpred_records_replayed_total {replayed}");

        // Predict+update throughput of the most recent sweep, labelled
        // with the dispatch tier the engine would use for groupable
        // lanes (scalar / multilane). 0 until the first sweep runs.
        let pairs = bpred_sim::replay_pairs_per_sec();
        let tier = bpred_sim::dispatch_tier();
        let _ = writeln!(
            out,
            "# HELP bpred_replay_pairs_per_sec Predict+update pairs per second of the most recent chunked sweep"
        );
        let _ = writeln!(out, "# TYPE bpred_replay_pairs_per_sec gauge");
        let _ = writeln!(out, "bpred_replay_pairs_per_sec{{tier=\"{tier}\"}} {pairs}");

        // Lanes of the most recent sweep that fell back to the scalar
        // replay tier — non-zero means a sweep is silently running
        // ~7x slower than the grouped kernels it should be on.
        let scalar_lanes = bpred_sim::replay_scalar_lanes();
        let _ = writeln!(
            out,
            "# HELP bpred_replay_scalar_lanes Lanes of the most recent chunked sweep on the scalar fallback tier"
        );
        let _ = writeln!(out, "# TYPE bpred_replay_scalar_lanes gauge");
        let _ = writeln!(out, "bpred_replay_scalar_lanes {scalar_lanes}");

        // Per-plan-family lane census of the most recent sweep, so the
        // plan families a sweep actually dispatched to (and any lanes
        // left on the scalar tier) are visible per label.
        let group_lanes = bpred_sim::replay_group_lanes();
        let _ = writeln!(
            out,
            "# HELP bpred_replay_group_lanes Lanes of the most recent chunked sweep per plan family"
        );
        let _ = writeln!(out, "# TYPE bpred_replay_group_lanes gauge");
        for (label, lanes) in bpred_sim::LANE_TIER_LABELS.iter().zip(group_lanes) {
            let _ = writeln!(out, "bpred_replay_group_lanes{{plan=\"{label}\"}} {lanes}");
        }

        let inflight = self.inflight_batches.load(Ordering::Relaxed);
        let _ = writeln!(
            out,
            "# HELP bpred_inflight_batches Batches currently inside the engine"
        );
        let _ = writeln!(out, "# TYPE bpred_inflight_batches gauge");
        let _ = writeln!(out, "bpred_inflight_batches {inflight}");

        let _ = writeln!(
            out,
            "# HELP bpred_batch_seconds Wall-clock latency of engine batches"
        );
        let _ = writeln!(out, "# TYPE bpred_batch_seconds histogram");
        let mut cumulative = 0u64;
        for (i, &bound) in LATENCY_BOUNDS.iter().enumerate() {
            cumulative += self.batch_latency.buckets[i].load(Ordering::Relaxed);
            let _ = writeln!(
                out,
                "bpred_batch_seconds_bucket{{le=\"{bound}\"}} {cumulative}"
            );
        }
        cumulative += self.batch_latency.buckets[LATENCY_BOUNDS.len()].load(Ordering::Relaxed);
        let _ = writeln!(
            out,
            "bpred_batch_seconds_bucket{{le=\"+Inf\"}} {cumulative}"
        );
        let sum = self.batch_latency.sum_micros.load(Ordering::Relaxed) as f64 / 1e6;
        let _ = writeln!(out, "bpred_batch_seconds_sum {sum}");
        let _ = writeln!(
            out,
            "bpred_batch_seconds_count {}",
            self.batch_latency.count()
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exposition_contains_every_series() {
        let m = Metrics::new();
        Metrics::inc(&m.http_requests);
        Metrics::add(&m.cache_hits, 5);
        m.batch_latency.observe(Duration::from_micros(20));
        m.batch_latency.observe(Duration::from_millis(3));
        m.batch_latency.observe(Duration::from_millis(300));
        let text = m.render_prometheus();
        assert!(text.contains("bpred_http_requests_total 1"));
        assert!(text.contains("bpred_cache_hits_total 5"));
        assert!(text.contains("bpred_cache_misses_total 0"));
        assert!(text.contains("bpred_workload_models_built_total 0"));
        assert!(text.contains("bpred_sweeps_inline_total 0"));
        assert!(text.contains("bpred_inflight_batches 0"));
        assert!(text.contains("bpred_batch_seconds_count 3"));
        // 20µs falls in le=0.00003, 3ms in le=0.003, 300ms in le=0.3;
        // cumulative buckets, one per bound plus +Inf.
        assert_eq!(
            text.matches("bpred_batch_seconds_bucket{").count(),
            LATENCY_BOUNDS.len() + 1
        );
        assert!(text.contains("bpred_batch_seconds_bucket{le=\"0.00001\"} 0"));
        assert!(text.contains("bpred_batch_seconds_bucket{le=\"0.00003\"} 1"));
        assert!(text.contains("bpred_batch_seconds_bucket{le=\"0.001\"} 1"));
        assert!(text.contains("bpred_batch_seconds_bucket{le=\"0.003\"} 2"));
        assert!(text.contains("bpred_batch_seconds_bucket{le=\"0.1\"} 2"));
        assert!(text.contains("bpred_batch_seconds_bucket{le=\"1\"} 3"));
        assert!(text.contains("bpred_batch_seconds_bucket{le=\"+Inf\"} 3"));
        assert!(text.contains("# TYPE bpred_records_replayed_total counter"));
    }

    #[test]
    fn serve_series_track_statuses_and_gauges() {
        let m = Metrics::new();
        m.observe_status(200);
        m.observe_status(200);
        m.observe_status(429);
        m.observe_status(431);
        m.observe_status(418); // falls into the "other" bucket
        Metrics::inc(&m.shed_total);
        m.connections_open.fetch_add(3, Ordering::Relaxed);
        m.queue_depth.fetch_add(2, Ordering::Relaxed);
        assert_eq!(m.status_count(200), 2);
        assert_eq!(m.status_count(429), 1);
        assert_eq!(m.status_count(418), 1);
        let text = m.render_prometheus();
        assert!(text.contains("bpred_serve_requests_total{status=\"200\"} 2"));
        assert!(text.contains("bpred_serve_requests_total{status=\"429\"} 1"));
        assert!(text.contains("bpred_serve_requests_total{status=\"431\"} 1"));
        assert!(text.contains("bpred_serve_requests_total{status=\"413\"} 0"));
        assert!(text.contains("bpred_serve_requests_total{status=\"other\"} 1"));
        assert!(text.contains("bpred_serve_shed_total 1"));
        assert!(text.contains("bpred_serve_connections_open 3"));
        assert!(text.contains("bpred_serve_queue_depth 2"));
    }

    #[test]
    fn replayed_records_series_tracks_the_engine_counter() {
        use bpred_core::PredictorConfig;
        use bpred_sim::{run_configs, Simulator};
        use bpred_trace::{BranchRecord, Outcome, Trace};

        let m = Metrics::new();
        let trace: Trace = (0..200)
            .map(|i| BranchRecord::conditional(0x40 + 4 * (i % 8), 0x20, Outcome::from(i % 3 == 0)))
            .collect();
        let before = bpred_sim::records_replayed_total();
        run_configs(&[PredictorConfig::AlwaysTaken], &trace, Simulator::new());
        assert!(bpred_sim::records_replayed_total() >= before + 200);
        let value: u64 = m
            .render_prometheus()
            .lines()
            .find_map(|l| l.strip_prefix("bpred_records_replayed_total "))
            .expect("series present")
            .parse()
            .expect("numeric value");
        assert!(value >= before + 200);
    }

    #[test]
    fn replay_throughput_gauge_carries_the_dispatch_tier_label() {
        use bpred_core::PredictorConfig;
        use bpred_sim::{run_configs, Simulator};
        use bpred_trace::{BranchRecord, Outcome, Trace};

        let m = Metrics::new();
        let trace: Trace = (0..500)
            .map(|i| BranchRecord::conditional(0x40 + 4 * (i % 8), 0x20, Outcome::from(i % 3 == 0)))
            .collect();
        run_configs(&[PredictorConfig::AlwaysTaken], &trace, Simulator::new());
        let text = m.render_prometheus();
        assert!(text.contains("# TYPE bpred_replay_pairs_per_sec gauge"));
        let line = text
            .lines()
            .find(|l| l.starts_with("bpred_replay_pairs_per_sec{tier=\""))
            .expect("labelled gauge present");
        let value: f64 = line
            .rsplit(' ')
            .next()
            .expect("value field")
            .parse()
            .expect("numeric value");
        assert!(value > 0.0, "{line}");
    }

    #[test]
    fn scalar_lane_gauge_renders_the_engine_fallback_count() {
        // Schema-level: the series must render and parse. The exact
        // value belongs to the most recent process-wide sweep, which
        // concurrent tests also drive, so the strongest stable claim
        // is agreement with the engine accessor at render time.
        let m = Metrics::new();
        let text = m.render_prometheus();
        assert!(text.contains("# TYPE bpred_replay_scalar_lanes gauge"));
        let value: u64 = text
            .lines()
            .find_map(|l| l.strip_prefix("bpred_replay_scalar_lanes "))
            .expect("series present")
            .parse()
            .expect("numeric value");
        let _ = value;
    }

    #[test]
    fn group_lane_gauge_renders_every_plan_family() {
        // One labelled series per plan-family label, all numeric.
        let m = Metrics::new();
        let text = m.render_prometheus();
        assert!(text.contains("# TYPE bpred_replay_group_lanes gauge"));
        for label in bpred_sim::LANE_TIER_LABELS {
            let prefix = format!("bpred_replay_group_lanes{{plan=\"{label}\"}} ");
            let value: u64 = text
                .lines()
                .find_map(|l| l.strip_prefix(prefix.as_str()))
                .unwrap_or_else(|| panic!("series for {label} present"))
                .parse()
                .expect("numeric value");
            let _ = value;
        }
    }

    #[test]
    fn store_series_render_zeroed_then_attached() {
        let m = Metrics::new();
        let text = m.render_prometheus();
        assert!(text.contains("bpred_store_hits_total{tier=\"hot\"} 0"));
        assert!(text.contains("bpred_store_hits_total{tier=\"pack\"} 0"));
        assert!(text.contains("bpred_store_segments 0"));
        assert!(text.contains("bpred_store_hot_bytes 0"));

        let stats = Arc::new(StoreStats::default());
        stats.hot_hits.fetch_add(3, Ordering::Relaxed);
        stats.segments.store(2, Ordering::Relaxed);
        stats.hot_bytes.store(4096, Ordering::Relaxed);
        m.attach_store(stats);
        let text = m.render_prometheus();
        assert!(text.contains("bpred_store_hits_total{tier=\"hot\"} 3"));
        assert!(text.contains("bpred_store_segments 2"));
        assert!(text.contains("bpred_store_hot_bytes 4096"));
    }

    #[test]
    fn histogram_counts_oversize_observations() {
        let h = Histogram::default();
        h.observe(Duration::from_secs(60));
        assert_eq!(h.count(), 1);
    }
}

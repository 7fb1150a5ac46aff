//! Single-pass batched replay: N lanes × one shared chunk stream.
//!
//! The per-configuration sweep ([`run_config`](crate::run_config) in a
//! loop) replays the whole trace once *per predictor*: a 32-point
//! sweep over a 120k-branch trace walks 3.8M records. The batched
//! engine goes further than sharing a stream per shard: the trace is
//! generated (or decoded) into structure-of-arrays
//! [`TraceChunk`]s **exactly once per sweep**, and every lane replays
//! that one chunk sequence. Chunk production either runs inline ahead
//! of the lanes (single worker) or on a dedicated producer thread that
//! publishes into a bounded ref-counted ring shared by all shard
//! workers (see [`crate::ring`]), overlapping generation with replay.
//!
//! Each shard replays its lanes through one [`LaneSet`]: fused
//! multilane groups per plan kind, or one per-chunk
//! [`ScalarLane`](crate::ScalarLane) per configuration under
//! `BPRED_FORCE_SCALAR`. Because lanes are independent, a batched run
//! is *bit-identical* to running each configuration alone through
//! [`Simulator::run`], which
//! `tests/determinism.rs` at the workspace root enforces for every
//! configuration variant.
//!
//! # Shard size
//!
//! A shard groups the lanes a worker advances consecutively through
//! each chunk: too large and the shard's combined predictor state
//! thrashes the cache the chunk was meant to stay hot in.
//! [`DEFAULT_SHARD_SIZE`] (8) is a good default for the paper's
//! predictor sizes (≤ 64 KiB of counters each); use smaller shards
//! for very large predictors. Shard count also bounds worker
//! parallelism.
//!
//! # Thread count
//!
//! Shards are distributed over `min(available parallelism, shards)`
//! workers. Set `BPRED_THREADS` to pin the worker count (clamped to
//! at least 1) for reproducible CI and benchmark runs; values that do
//! not parse as a decimal count are rejected with a one-time warning
//! on stderr. Thread count never changes results, only wall-clock
//! time.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, Once};
use std::time::Instant;

use bpred_core::PredictorConfig;
use bpred_trace::{TraceChunk, TraceSource};

use crate::multilane::LANE_TIER_LABELS;
use crate::ring::{ChunkRing, DetachGuard, FinishGuard, RING_CAPACITY};
use crate::{LaneSet, SimResult, Simulator};

/// Predictors replayed together per shard by
/// [`run_configs`](crate::run_configs) and the sweep layers built on it.
pub const DEFAULT_SHARD_SIZE: usize = 8;

/// Records replayed through the chunked pipeline, process-wide.
static RECORDS_REPLAYED: AtomicU64 = AtomicU64::new(0);

/// Bit pattern of the last chunked sweep's predict+update pairs per
/// second (an `f64` stored through `to_bits`; 0 until a sweep runs).
static REPLAY_PAIRS_PER_SEC: AtomicU64 = AtomicU64::new(0);

/// Lanes of the last chunked sweep that fell back to the scalar
/// replay tier (0 until a sweep runs).
static REPLAY_SCALAR_LANES: AtomicU64 = AtomicU64::new(0);

/// Per-plan-family lane counts of the last chunked sweep, indexed like
/// [`LANE_TIER_LABELS`] (all zero until a sweep runs).
static REPLAY_GROUP_LANES: [AtomicU64; LANE_TIER_LABELS.len()] =
    [const { AtomicU64::new(0) }; LANE_TIER_LABELS.len()];

/// Fused groups of the last chunked sweep that resolved chunk-level
/// arena prefetch *on* (0 until a sweep runs).
static REPLAY_PREFETCH_GROUPS: AtomicU64 = AtomicU64::new(0);

/// Warns at most once per process about an unparsable `BPRED_THREADS`.
static BPRED_THREADS_WARNING: Once = Once::new();

/// Total lane-records replayed through the chunked sweep pipeline
/// since process start (each record counts once per lane that
/// consumed it). Monotonic; backs the `bpred_records_replayed_total`
/// counter exported by `bpred-serve`'s `/metrics` endpoint.
pub fn records_replayed_total() -> u64 {
    RECORDS_REPLAYED.load(Ordering::Relaxed)
}

/// Predict+update pairs per second of the most recent chunked sweep
/// in this process (0.0 before any sweep). Wall-clock observability
/// only — it never influences results; backs the
/// `bpred_replay_pairs_per_sec` gauge exported by `bpred-serve`'s
/// `/metrics` endpoint, labelled with
/// [`dispatch_tier`](crate::dispatch_tier).
pub fn replay_pairs_per_sec() -> f64 {
    f64::from_bits(REPLAY_PAIRS_PER_SEC.load(Ordering::Relaxed))
}

/// Number of lanes in the most recent chunked sweep that fell back to
/// the scalar replay tier ([`LaneSet::scalar_lanes`] summed over the
/// sweep's shards). 0 before the first sweep — and, the healthy case,
/// 0 after a sweep whose every lane dispatched to a fast tier. Backs
/// the `bpred_replay_scalar_lanes` gauge exported by `bpred-serve`'s
/// `/metrics` endpoint, so a sweep silently degrading to the slow
/// tier is observable.
pub fn replay_scalar_lanes() -> u64 {
    REPLAY_SCALAR_LANES.load(Ordering::Relaxed)
}

/// Per-plan-family lane counts of the most recent chunked sweep,
/// indexed like [`LANE_TIER_LABELS`] (all zero before the first
/// sweep). Backs the `bpred_replay_group_lanes{plan=...}` gauge
/// exported by `bpred-serve`'s `/metrics` endpoint, so the plan
/// families a sweep actually dispatched to are observable.
pub fn replay_group_lanes() -> [u64; LANE_TIER_LABELS.len()] {
    std::array::from_fn(|i| REPLAY_GROUP_LANES[i].load(Ordering::Relaxed))
}

/// Number of fused groups in the most recent chunked sweep that
/// resolved chunk-level arena prefetch *on* (see
/// [`PREFETCH_SPILL_BYTES`](crate::multilane::PREFETCH_SPILL_BYTES)); 0 before the first
/// sweep. Lets benches and `/metrics` record which prefetch mode a
/// sweep's footprint heuristic actually chose.
pub fn replay_prefetch_groups() -> u64 {
    REPLAY_PREFETCH_GROUPS.load(Ordering::Relaxed)
}

/// Adds one [`LaneSet`]'s tier census to the sweep-wide gauges.
fn record_lane_census(lanes: &LaneSet) {
    REPLAY_SCALAR_LANES.fetch_add(lanes.scalar_lanes() as u64, Ordering::Relaxed);
    REPLAY_PREFETCH_GROUPS.fetch_add(lanes.prefetch_groups() as u64, Ordering::Relaxed);
    for (slot, count) in REPLAY_GROUP_LANES.iter().zip(lanes.lane_tier_counts()) {
        slot.fetch_add(count, Ordering::Relaxed);
    }
}

/// Number of worker threads: the `BPRED_THREADS` environment override
/// (clamped ≥ 1) when set and numeric, otherwise the available
/// parallelism; always capped by the number of jobs. A set-but-invalid
/// override (e.g. `"0x8"` or an empty string) falls back to available
/// parallelism and reports the rejected value once on stderr instead
/// of silently ignoring it.
pub(crate) fn worker_count(jobs: usize) -> usize {
    let cores = match std::env::var("BPRED_THREADS") {
        Ok(raw) => match raw.parse::<usize>() {
            Ok(n) => n.max(1),
            Err(_) => {
                BPRED_THREADS_WARNING.call_once(|| {
                    eprintln!(
                        "bpred-sim: ignoring invalid BPRED_THREADS value {raw:?} \
                         (expected a decimal thread count); \
                         using available parallelism"
                    );
                });
                available_parallelism_or_one()
            }
        },
        Err(_) => available_parallelism_or_one(),
    };
    cores.min(jobs).max(1)
}

fn available_parallelism_or_one() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Locks `mutex` even when another worker's panic poisoned it: every
/// slot is written at most once by the worker that computed it, so the
/// data is consistent regardless, and swallowing the poison lets the
/// *original* panic (a predictor bug surfaced by `thread::scope`)
/// propagate instead of an opaque secondary "lock poisoned" panic.
pub(crate) fn lock_ignoring_poison<T>(mutex: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    mutex
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Simulates every configuration against `source` through the chunked
/// decode-once pipeline with [`TraceChunk::DEFAULT_LEN`]-record
/// chunks. Results come back in `configs` order and are bit-identical
/// to running [`Simulator::run`] per configuration.
///
/// The source is generated/decoded into structure-of-arrays chunks
/// exactly once; every lane replays that one chunk sequence (see
/// [`run_batched_chunked`] for the pipeline and the role of
/// `shard_size`).
///
/// # Panics
///
/// Panics if `shard_size` is zero.
///
/// # Examples
///
/// ```
/// use bpred_core::PredictorConfig;
/// use bpred_sim::{run_batched, Simulator};
/// use bpred_trace::{BranchRecord, Outcome, Trace};
///
/// let trace: Trace = (0..300)
///     .map(|i| BranchRecord::conditional(0x40 + 4 * (i % 8), 0x20, Outcome::from(i % 3 == 0)))
///     .collect();
/// let configs: Vec<PredictorConfig> = (2..10)
///     .map(|n| PredictorConfig::Gshare { history_bits: n, col_bits: 2 })
///     .collect();
/// let results = run_batched(&configs, &trace, Simulator::new(), 4);
/// assert_eq!(results.len(), 8);
/// assert_eq!(results[0].conditionals, 300);
/// ```
pub fn run_batched<S>(
    configs: &[PredictorConfig],
    source: &S,
    simulator: Simulator,
    shard_size: usize,
) -> Vec<SimResult>
where
    S: TraceSource + Sync + ?Sized,
{
    run_batched_chunked(
        configs,
        source,
        simulator,
        shard_size,
        TraceChunk::DEFAULT_LEN,
    )
}

/// The chunked pipeline with an explicit chunk length: the source is
/// decoded into [`TraceChunk`]s of up to `chunk_len` records exactly
/// once, and every configuration's lane replays that one sequence.
///
/// With a single worker the chunks are produced inline, immediately
/// ahead of the lanes that consume them. With more, a dedicated
/// producer thread publishes chunks into a bounded ref-counted ring
/// and each worker replays them through the shards it owns (static
/// round-robin), so chunk production overlaps with replay and is
/// backpressured by the slowest worker. Either way production happens
/// once per sweep — not once per shard — and results are bit-identical
/// to [`Simulator::run`] per configuration.
///
/// `chunk_len` trades ring memory against synchronisation frequency;
/// [`TraceChunk::DEFAULT_LEN`] suits everything in this workspace.
/// `shard_size` groups the lanes a worker advances consecutively
/// through each chunk (see [`DEFAULT_SHARD_SIZE`]).
///
/// # Panics
///
/// Panics if `shard_size` or `chunk_len` is zero.
pub fn run_batched_chunked<S>(
    configs: &[PredictorConfig],
    source: &S,
    simulator: Simulator,
    shard_size: usize,
    chunk_len: usize,
) -> Vec<SimResult>
where
    S: TraceSource + Sync + ?Sized,
{
    assert!(shard_size > 0, "shard size must be positive");
    assert!(chunk_len > 0, "chunk length must be positive");
    if configs.is_empty() {
        return Vec::new();
    }
    let shard_count = configs.len().div_ceil(shard_size);
    let consumers = worker_count(shard_count);
    let before = records_replayed_total();
    REPLAY_SCALAR_LANES.store(0, Ordering::Relaxed);
    REPLAY_PREFETCH_GROUPS.store(0, Ordering::Relaxed);
    for slot in &REPLAY_GROUP_LANES {
        slot.store(0, Ordering::Relaxed);
    }
    let start = Instant::now();
    let results = if consumers == 1 {
        run_chunked_inline(configs, source, simulator, chunk_len)
    } else {
        run_chunked_pipelined(configs, source, simulator, shard_size, chunk_len, consumers)
    };
    let pairs = records_replayed_total() - before;
    let elapsed = start.elapsed().as_secs_f64();
    if pairs > 0 && elapsed > 0.0 {
        REPLAY_PAIRS_PER_SEC.store((pairs as f64 / elapsed).to_bits(), Ordering::Relaxed);
    }
    results
}

/// Single-worker chunk path: no threads, no ring — produce each chunk
/// and advance every lane through it before the next one exists.
fn run_chunked_inline<S>(
    configs: &[PredictorConfig],
    source: &S,
    simulator: Simulator,
    chunk_len: usize,
) -> Vec<SimResult>
where
    S: TraceSource + ?Sized,
{
    let mut lanes = LaneSet::new(configs, simulator);
    record_lane_census(&lanes);
    // One generator pass through a single reused buffer: with no other
    // worker to share with, the whole replay runs out of one chunk's
    // worth of memory.
    let mut feeder = source.chunk_feeder();
    let mut chunk = TraceChunk::with_capacity(chunk_len);
    while feeder.refill(&mut chunk, chunk_len) > 0 {
        RECORDS_REPLAYED.fetch_add((chunk.len() * lanes.len()) as u64, Ordering::Relaxed);
        lanes.replay_chunk(&chunk);
    }
    lanes.finish()
}

/// Multi-worker chunk path: one producer thread fills a bounded
/// [`ChunkRing`]; `consumers` workers replay the shared sequence
/// through the shards each statically owns (worker `c` owns shards
/// `c, c + consumers, …`).
fn run_chunked_pipelined<S>(
    configs: &[PredictorConfig],
    source: &S,
    simulator: Simulator,
    shard_size: usize,
    chunk_len: usize,
    consumers: usize,
) -> Vec<SimResult>
where
    S: TraceSource + Sync + ?Sized,
{
    let shard_count = configs.len().div_ceil(shard_size);
    let ring = ChunkRing::new(RING_CAPACITY, consumers);
    let results: Mutex<Vec<Option<SimResult>>> = Mutex::new(vec![None; configs.len()]);

    std::thread::scope(|scope| {
        scope.spawn(|| {
            // The guard finishes the stream even if the source's
            // iterator panics mid-sweep.
            let _finish = FinishGuard(&ring);
            for chunk in source.chunks(chunk_len) {
                if !ring.publish(chunk) {
                    return; // every consumer is gone
                }
            }
        });
        for consumer in 0..consumers {
            let ring = &ring;
            let results = &results;
            scope.spawn(move || {
                let _detach = DetachGuard { ring, consumer };
                let mut shards: Vec<(usize, LaneSet)> = (consumer..shard_count)
                    .step_by(consumers)
                    .map(|shard| {
                        let base = shard * shard_size;
                        let shard_configs = &configs[base..(base + shard_size).min(configs.len())];
                        (base, LaneSet::new(shard_configs, simulator))
                    })
                    .collect();
                if shards.is_empty() {
                    return; // more workers than shards: nothing owned
                }
                for (_, set) in &shards {
                    record_lane_census(set);
                }
                let lane_count: usize = shards.iter().map(|(_, set)| set.len()).sum();
                while let Some(chunk) = ring.next(consumer) {
                    RECORDS_REPLAYED
                        .fetch_add((chunk.len() * lane_count) as u64, Ordering::Relaxed);
                    for (_, set) in &mut shards {
                        set.replay_chunk(&chunk);
                    }
                }
                let mut results = lock_ignoring_poison(results);
                for (base, set) in shards {
                    for (offset, result) in set.finish().into_iter().enumerate() {
                        results[base + offset] = Some(result);
                    }
                }
            });
        }
    });

    results
        .into_inner()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
        .into_iter()
        .map(|r| r.expect("every configuration simulated"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run_config;
    use bpred_trace::{BranchRecord, Outcome, Trace};

    fn trace(n: usize) -> Trace {
        (0..n)
            .map(|i| {
                BranchRecord::conditional(
                    0x400 + 4 * (i as u64 % 32),
                    0x100,
                    Outcome::from(i % 7 < 4),
                )
            })
            .collect()
    }

    fn mixed_configs() -> Vec<PredictorConfig> {
        vec![
            PredictorConfig::AlwaysTaken,
            PredictorConfig::AddressIndexed { addr_bits: 4 },
            PredictorConfig::Gshare {
                history_bits: 6,
                col_bits: 2,
            },
            PredictorConfig::Gas {
                history_bits: 4,
                col_bits: 4,
            },
            PredictorConfig::PasInfinite {
                history_bits: 5,
                col_bits: 1,
            },
        ]
    }

    #[test]
    fn batched_matches_serial_exactly() {
        let t = trace(3_000);
        let configs = mixed_configs();
        for shard_size in [1, 2, 3, 64] {
            let batched = run_batched(&configs, &t, Simulator::new(), shard_size);
            for (cfg, got) in configs.iter().zip(&batched) {
                let want = run_config(*cfg, &t, Simulator::new());
                assert_eq!(&want, got, "{cfg} at shard size {shard_size}");
            }
        }
    }

    /// Each configuration replayed alone through the scalar oracle.
    fn oracle(configs: &[PredictorConfig], trace: &Trace) -> Vec<SimResult> {
        configs
            .iter()
            .map(|config| run_config(*config, trace, Simulator::new()))
            .collect()
    }

    #[test]
    fn chunked_matches_the_scalar_oracle_at_any_chunk_len() {
        let t = trace(3_000);
        let configs = mixed_configs();
        let baseline = oracle(&configs, &t);
        for chunk_len in [1, 7, 2_999, 3_000, 3_001] {
            let chunked = run_batched_chunked(&configs, &t, Simulator::new(), 2, chunk_len);
            assert_eq!(baseline, chunked, "chunk_len {chunk_len}");
        }
    }

    #[test]
    fn pipelined_ring_path_matches_inline() {
        // The 1-core default would take the inline path, so drive the
        // producer/consumer pipeline directly with explicit worker
        // counts (including more workers than shards).
        let t = trace(4_000);
        let configs = mixed_configs();
        let inline = run_chunked_inline(&configs, &t, Simulator::new(), 64);
        for consumers in [2, 3, 7] {
            let pipelined = run_chunked_pipelined(&configs, &t, Simulator::new(), 2, 64, consumers);
            assert_eq!(inline, pipelined, "{consumers} consumers");
        }
    }

    #[test]
    fn pipelined_streaming_source_matches_materialised() {
        use bpred_workloads::{suite, WorkloadSource};
        let model = suite::espresso().scaled(3_000);
        let source = WorkloadSource::new(model.clone(), 23);
        let configs = mixed_configs();
        let streamed = run_chunked_pipelined(&configs, &source, Simulator::new(), 2, 256, 2);
        assert_eq!(streamed, oracle(&configs, &model.trace(23)));
    }

    #[test]
    fn results_preserve_config_order() {
        let configs: Vec<PredictorConfig> = (0..13)
            .map(|n| PredictorConfig::AddressIndexed { addr_bits: n })
            .collect();
        let results = run_batched(&configs, &trace(400), Simulator::new(), 4);
        assert_eq!(results.len(), 13);
        for (cfg, r) in configs.iter().zip(&results) {
            assert_eq!(r.predictor, cfg.build().name());
        }
    }

    #[test]
    fn warmup_is_honoured_per_lane() {
        let configs = vec![PredictorConfig::AlwaysTaken, PredictorConfig::Btfn];
        let results = run_batched(&configs, &trace(100), Simulator::with_warmup(40), 2);
        assert!(results.iter().all(|r| r.conditionals == 60));
    }

    #[test]
    fn empty_config_list_is_empty_result() {
        let results = run_batched(&[], &trace(10), Simulator::new(), 8);
        assert!(results.is_empty());
    }

    #[test]
    #[should_panic(expected = "shard size must be positive")]
    fn zero_shard_size_panics() {
        let _ = run_batched(&mixed_configs(), &trace(10), Simulator::new(), 0);
    }

    #[test]
    #[should_panic(expected = "chunk length must be positive")]
    fn zero_chunk_len_panics() {
        let _ = run_batched_chunked(&mixed_configs(), &trace(10), Simulator::new(), 4, 0);
    }

    #[test]
    fn replayed_records_counter_advances_by_lanes_times_records() {
        let configs = mixed_configs();
        let before = records_replayed_total();
        let _ = run_batched(&configs, &trace(1_000), Simulator::new(), 2);
        let grew = records_replayed_total() - before;
        // Other tests may replay concurrently, so the counter can only
        // be bounded from below by this run's contribution.
        assert!(
            grew >= (1_000 * configs.len()) as u64,
            "counter grew by {grew}"
        );
    }

    #[test]
    fn bpred_threads_pins_the_worker_count() {
        // Serialised via the env var itself: this test owns the name.
        std::env::set_var("BPRED_THREADS", "2");
        assert_eq!(worker_count(8), 2);
        assert_eq!(worker_count(1), 1); // still capped by jobs
        std::env::set_var("BPRED_THREADS", "0");
        assert_eq!(worker_count(8), 1); // clamped to at least one
        std::env::set_var("BPRED_THREADS", "not-a-number");
        assert!(worker_count(8) >= 1); // garbage falls back (with a warning)
        std::env::set_var("BPRED_THREADS", "0x8");
        assert!(worker_count(8) >= 1); // hex is rejected, not misread as 0 or 8
        std::env::set_var("BPRED_THREADS", "");
        assert!(worker_count(8) >= 1); // empty string likewise
        std::env::remove_var("BPRED_THREADS");
        assert!(worker_count(64) >= 1);

        // Thread count never changes results.
        std::env::set_var("BPRED_THREADS", "1");
        let pinned = run_batched(&mixed_configs(), &trace(500), Simulator::new(), 2);
        std::env::remove_var("BPRED_THREADS");
        let free = run_batched(&mixed_configs(), &trace(500), Simulator::new(), 2);
        assert_eq!(pinned, free);
    }

    #[test]
    fn poisoned_results_lock_is_recovered_not_repanicked() {
        let mutex = Mutex::new(vec![0u32]);
        std::thread::scope(|scope| {
            let _ = scope
                .spawn(|| {
                    let _guard = mutex.lock().expect("first lock");
                    panic!("lane panic while holding the lock");
                })
                .join();
        });
        assert!(mutex.is_poisoned());
        lock_ignoring_poison(&mutex)[0] = 7;
        assert_eq!(mutex.into_inner().unwrap_or_else(|p| p.into_inner())[0], 7);
    }

    #[test]
    fn streaming_source_needs_no_materialised_trace() {
        use bpred_workloads::{suite, WorkloadSource};
        let model = suite::espresso().scaled(2_000);
        let source = WorkloadSource::new(model.clone(), 11);
        let configs = mixed_configs();
        let streamed = crate::run_configs(&configs, &source, Simulator::new());
        let materialised = crate::run_configs(&configs, &model.trace(11), Simulator::new());
        assert_eq!(streamed, materialised);
    }
}

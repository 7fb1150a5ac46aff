//! Result-cache hooks for the sweep layers.
//!
//! The paper's method re-runs the same `(workload × predictor
//! geometry)` grid over and over; because the whole pipeline is
//! deterministic, every sweep cell is a pure function of its inputs
//! and can be memoised. This module defines the *key* of that
//! function ([`CellKey`]), the cache interface ([`ResultCache`]), and
//! the keyed sweep entry point ([`run_configs_keyed`]) that consults a
//! cache the caller passes before falling back to the batched replay
//! engine.
//!
//! The cache itself lives elsewhere (the `bpred-serve` crate provides
//! a content-addressed on-disk store); this crate only carries the
//! hook so the simulation layers stay dependency-free. A binary opens
//! its cache once — the experiment binaries from the
//! `BPRED_CACHE_DIR` environment variable — and passes it down to
//! every keyed sweep it runs. With no cache passed the keyed entry
//! point behaves exactly like its unkeyed counterpart.
//!
//! # Key scheme
//!
//! A cell key combines four components, each individually stable:
//!
//! * the **source id** — the caller-supplied identity of the exact
//!   record stream (e.g. [`WorkloadSource::cache_id`] or a trace-file
//!   fingerprint); callers must guarantee equal ids ⇒ bit-identical
//!   streams;
//! * the **config id** — [`PredictorConfig::config_id`], the canonical
//!   `scheme:k=v` syntax;
//! * the **warmup** — [`Simulator::warmup`], the only engine knob that
//!   changes results;
//! * the **engine version** — [`ENGINE_VERSION`], bumped whenever the
//!   replay semantics or the workload generators change behaviour, so
//!   stale caches are invalidated wholesale instead of silently served.
//!
//! [`WorkloadSource::cache_id`]: https://docs.rs/bpred-workloads

use bpred_core::PredictorConfig;
use bpred_trace::{fnv, TraceSource};

use crate::batch::{run_batched, DEFAULT_SHARD_SIZE};
use crate::{SimResult, Simulator};

/// Version of the replay/generation semantics baked into every cache
/// key. Bump this whenever a change makes any `(source id, config,
/// warmup)` cell produce different numbers — engine scoring changes,
/// workload-generator behaviour changes, predictor bit-stream changes
/// — so previously cached results can never be mistaken for current
/// ones. Version 2 corresponds to the batched single-pass engine.
pub const ENGINE_VERSION: u32 = 2;

/// The identity of one sweep cell: everything the simulation result
/// is a function of.
///
/// # Examples
///
/// ```
/// use bpred_core::PredictorConfig;
/// use bpred_sim::cache::CellKey;
/// use bpred_sim::Simulator;
///
/// let cfg = PredictorConfig::Gshare { history_bits: 8, col_bits: 2 };
/// let key = CellKey::new("workload:espresso@00aa/s1/n1000/j0.08", &cfg, &Simulator::new());
/// assert_eq!(key.digest().len(), 32);
/// assert_eq!(key, CellKey::new("workload:espresso@00aa/s1/n1000/j0.08", &cfg, &Simulator::new()));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CellKey {
    /// Caller-supplied identity of the record stream.
    pub source_id: String,
    /// Canonical configuration id ([`PredictorConfig::config_id`]).
    pub config_id: String,
    /// Scored-branch warmup exclusion ([`Simulator::warmup`]).
    pub warmup: usize,
    /// Engine version the cell was computed under.
    pub engine: u32,
}

impl CellKey {
    /// Builds the key of `(source, config, simulator)` under the
    /// current [`ENGINE_VERSION`].
    pub fn new(source_id: &str, config: &PredictorConfig, simulator: &Simulator) -> CellKey {
        CellKey {
            source_id: source_id.to_owned(),
            config_id: config.config_id(),
            warmup: simulator.warmup(),
            engine: ENGINE_VERSION,
        }
    }

    /// The canonical key string all components are folded into, in a
    /// fixed order with a leading version. This text (not the struct
    /// layout) is the persistent format: stores hash it for content
    /// addresses and embed it verbatim for collision detection.
    pub fn canonical(&self) -> String {
        format!(
            "cell-v{}|{}|{}|w{}",
            self.engine, self.source_id, self.config_id, self.warmup
        )
    }

    /// Stable 128-bit content address of this key: 32 lowercase hex
    /// digits of FNV-1a over [`canonical`](Self::canonical).
    pub fn digest(&self) -> String {
        fnv::fnv128_hex(self.canonical().as_bytes())
    }
}

/// A memo of sweep-cell results, keyed by [`CellKey`].
///
/// Implementations must be safe for concurrent use and must only
/// return results previously stored for an equal key (equal
/// *canonical strings*, not merely equal digests — stores detect
/// digest collisions by comparing the embedded canonical key).
/// Lookups and stores are best-effort: a cache may drop entries at
/// any time, and `put` failures must be swallowed, not propagated —
/// the sweep result is already in hand.
pub trait ResultCache: Send + Sync {
    /// Looks up the result of a cell, if cached.
    fn get(&self, key: &CellKey) -> Option<SimResult>;
    /// Stores the result of a cell.
    fn put(&self, key: &CellKey, result: &SimResult);
}

/// [`run_configs`](crate::run_configs) with cache keying: when a
/// cache is given with the source's id, cached cells are returned
/// without replaying the source, and only the misses are simulated
/// (still batched through one shared streaming pass) and written back.
///
/// Results are in `configs` order and bit-identical to the uncached
/// path: the batched engine feeds each predictor independently, so
/// simulating an arbitrary *subset* of the configurations replicates
/// the full run exactly (the property `tests/determinism.rs`
/// enforces), and cached entries were produced by that same path
/// under the same [`ENGINE_VERSION`].
///
/// With `cache` of `None` this is exactly
/// [`run_configs`](crate::run_configs).
pub fn run_configs_keyed<S>(
    configs: &[PredictorConfig],
    source: &S,
    simulator: Simulator,
    cache: Option<(&dyn ResultCache, &str)>,
) -> Vec<SimResult>
where
    S: TraceSource + Sync + ?Sized,
{
    let Some((cache, source_id)) = cache else {
        return run_batched(configs, source, simulator, DEFAULT_SHARD_SIZE);
    };

    let keys: Vec<CellKey> = configs
        .iter()
        .map(|config| CellKey::new(source_id, config, &simulator))
        .collect();
    let mut results: Vec<Option<SimResult>> = keys.iter().map(|key| cache.get(key)).collect();
    let miss_indices: Vec<usize> = results
        .iter()
        .enumerate()
        .filter_map(|(i, r)| r.is_none().then_some(i))
        .collect();
    if !miss_indices.is_empty() {
        let miss_configs: Vec<PredictorConfig> = miss_indices.iter().map(|&i| configs[i]).collect();
        let computed = run_batched(&miss_configs, source, simulator, DEFAULT_SHARD_SIZE);
        for (&i, result) in miss_indices.iter().zip(computed) {
            cache.put(&keys[i], &result);
            results[i] = Some(result);
        }
    }
    results
        .into_iter()
        .map(|r| r.expect("every cell resolved"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run_configs;
    use bpred_trace::{BranchRecord, Outcome, Trace};
    use std::collections::HashMap;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Mutex;

    #[derive(Default)]
    struct MemoryCache {
        map: Mutex<HashMap<String, SimResult>>,
        puts: AtomicUsize,
    }

    impl ResultCache for MemoryCache {
        fn get(&self, key: &CellKey) -> Option<SimResult> {
            self.map
                .lock()
                .expect("cache poisoned")
                .get(&key.canonical())
                .cloned()
        }

        fn put(&self, key: &CellKey, result: &SimResult) {
            self.puts.fetch_add(1, Ordering::Relaxed);
            self.map
                .lock()
                .expect("cache poisoned")
                .insert(key.canonical(), result.clone());
        }
    }

    fn trace(n: usize) -> Trace {
        (0..n)
            .map(|i| {
                BranchRecord::conditional(
                    0x400 + 4 * (i as u64 % 16),
                    0x100,
                    Outcome::from(i % 5 < 3),
                )
            })
            .collect()
    }

    fn configs() -> Vec<PredictorConfig> {
        (2..8)
            .map(|n| PredictorConfig::Gshare {
                history_bits: n,
                col_bits: 2,
            })
            .collect()
    }

    #[test]
    fn keys_discriminate_every_component() {
        let cfg = PredictorConfig::AddressIndexed { addr_bits: 4 };
        let base = CellKey::new("src", &cfg, &Simulator::new());
        assert_ne!(
            base.digest(),
            CellKey::new("src2", &cfg, &Simulator::new()).digest()
        );
        assert_ne!(
            base.digest(),
            CellKey::new(
                "src",
                &PredictorConfig::AddressIndexed { addr_bits: 5 },
                &Simulator::new()
            )
            .digest()
        );
        assert_ne!(
            base.digest(),
            CellKey::new("src", &cfg, &Simulator::with_warmup(1)).digest()
        );
        let mut other_engine = base.clone();
        other_engine.engine += 1;
        assert_ne!(base.digest(), other_engine.digest());
        assert!(base.canonical().starts_with("cell-v2|src|"));
    }

    #[test]
    fn second_sweep_is_served_from_cache() {
        let cache = MemoryCache::default();
        let keyed = Some((&cache as &dyn ResultCache, "trace:test"));

        let t = trace(2_000);
        let cold = run_configs_keyed(&configs(), &t, Simulator::new(), keyed);
        assert_eq!(cache.puts.load(Ordering::Relaxed), configs().len());

        let warm = run_configs_keyed(&configs(), &t, Simulator::new(), keyed);
        // No new computations: the put count did not advance.
        assert_eq!(cache.puts.load(Ordering::Relaxed), configs().len());
        assert_eq!(cold, warm);
    }

    #[test]
    fn cached_results_match_uncached_exactly() {
        let t = trace(3_000);
        let reference = run_configs(&configs(), &t, Simulator::new());

        let cache = MemoryCache::default();
        let keyed = Some((&cache as &dyn ResultCache, "trace:mix"));
        // Pre-warm half the cells, then sweep: hits and misses must
        // interleave back into exactly the reference results.
        let half: Vec<PredictorConfig> = configs().into_iter().step_by(2).collect();
        run_configs_keyed(&half, &t, Simulator::new(), keyed);
        let mixed = run_configs_keyed(&configs(), &t, Simulator::new(), keyed);
        assert_eq!(mixed, reference);
    }

    #[test]
    fn no_cache_is_plain_simulation() {
        let t = trace(400);
        assert_eq!(
            run_configs_keyed(&configs(), &t, Simulator::new(), None),
            run_configs(&configs(), &t, Simulator::new())
        );
    }
}

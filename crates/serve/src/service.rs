//! The sweep service: request parsing, cell decomposition, cache
//! dedup, batch coalescing, JSON assembly.
//!
//! A sweep request names one workload stream (benchmark, seed, trace
//! length, warmup) and a list of predictor configurations. The
//! service decomposes it into cells — one per configuration — and
//! resolves each by the cheapest available path, in order:
//!
//! 1. **Store hit** — the cell's digest is in the result store.
//! 2. **Coalesced wait** — another request is simulating the same
//!    cell right now ([`Flight`] single-flight); wait for it.
//! 3. **Simulate** — the residual misses run as *one* batch through
//!    [`run_batched`], sharing a single streaming pass, then land in
//!    the store for next time.
//!
//! The JSON body is deterministic (insertion-ordered fields, no
//! timestamps, no cache provenance), so repeated identical requests
//! return byte-identical bodies whether answered hot or cold — the
//! provenance (`hits=… misses=… coalesced=…`) rides in the
//! `X-Bpred-Provenance` response header instead.
//!
//! Workload models are a pure function of their suite spec, so the
//! service materialises each benchmark's model at most once per
//! process, on first request, and shares it (`Arc`) with every later
//! request and worker — store hits and cold batches alike. The memo
//! has one slot per suite benchmark, so it is bounded by the suite:
//! about 2.3 MiB once the three focus models are built, about 6.5 MiB
//! if all fourteen are requested.

use std::sync::{Arc, OnceLock};
use std::time::Instant;

use bpred_core::PredictorConfig;
use bpred_sim::cache::CellKey;
use bpred_sim::{run_batched, SimResult, Simulator, DEFAULT_SHARD_SIZE};
use bpred_workloads::{suite, BenchmarkSpec, WorkloadModel, WorkloadSource};

use crate::flight::{Flight, Join, LeaderGuard};
use crate::http::parse_query;
use crate::json::{array, Object};
use crate::metrics::Metrics;
use crate::store::ResultStore;

/// Default trace seed, matching the experiment drivers.
pub const DEFAULT_SEED: u64 = 1996;

/// A parsed sweep request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SweepRequest {
    /// Benchmark name (a [`suite`] member).
    pub workload: String,
    /// Trace generation seed.
    pub seed: u64,
    /// Conditional branches to replay; `None` uses the model default.
    pub branches: Option<usize>,
    /// Scored-branch warmup exclusion.
    pub warmup: usize,
    /// Predictor configurations, in response order.
    pub configs: Vec<PredictorConfig>,
}

/// A client error: HTTP status plus message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BadRequest {
    /// HTTP status code (4xx).
    pub status: u16,
    /// Human-readable reason, sent as the response body.
    pub message: String,
}

impl BadRequest {
    fn new(message: impl Into<String>) -> Self {
        BadRequest {
            status: 400,
            message: message.into(),
        }
    }
}

impl SweepRequest {
    /// Parses request parameters from a query string (or
    /// form-encoded POST body): `workload=<name>` and
    /// `configs=<cfg>;<cfg>;…` are required; `seed=<u64>`,
    /// `branches=<usize>`, and `warmup=<usize>` are optional.
    pub fn parse(query: &str) -> Result<SweepRequest, BadRequest> {
        let mut workload: Option<String> = None;
        let mut seed = DEFAULT_SEED;
        let mut branches: Option<usize> = None;
        let mut warmup = 0usize;
        let mut configs: Vec<PredictorConfig> = Vec::new();

        for (key, value) in parse_query(query) {
            match key.as_str() {
                "workload" => workload = Some(value),
                "seed" => {
                    seed = value
                        .parse()
                        .map_err(|_| BadRequest::new(format!("seed {value:?} is not a u64")))?;
                }
                "branches" => {
                    let n: usize = value.parse().map_err(|_| {
                        BadRequest::new(format!("branches {value:?} is not a count"))
                    })?;
                    if n == 0 {
                        return Err(BadRequest::new("branches must be positive"));
                    }
                    branches = Some(n);
                }
                "warmup" => {
                    warmup = value
                        .parse()
                        .map_err(|_| BadRequest::new(format!("warmup {value:?} is not a count")))?;
                }
                "configs" => {
                    for part in value.split(';').filter(|p| !p.is_empty()) {
                        let config: PredictorConfig = part
                            .parse()
                            .map_err(|e| BadRequest::new(format!("config {part:?}: {e}")))?;
                        configs.push(config);
                    }
                }
                other => {
                    return Err(BadRequest::new(format!("unknown parameter {other:?}")));
                }
            }
        }

        let workload = workload.ok_or_else(|| BadRequest::new("missing parameter: workload"))?;
        if configs.is_empty() {
            return Err(BadRequest::new(
                "missing parameter: configs (e.g. configs=gshare:h=8,c=2;gas:h=8,c=2)",
            ));
        }
        Ok(SweepRequest {
            workload,
            seed,
            branches,
            warmup,
            configs,
        })
    }
}

/// Aggregate provenance of one answered sweep, reported in the
/// `X-Bpred-Provenance` header.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Provenance {
    /// Cells answered from the store.
    pub hits: usize,
    /// Cells this request simulated.
    pub misses: usize,
    /// Cells answered by waiting on another request's batch.
    pub coalesced: usize,
}

impl Provenance {
    /// The header value, e.g. `hits=3 misses=1 coalesced=0`.
    pub fn header_value(&self) -> String {
        format!(
            "hits={} misses={} coalesced={}",
            self.hits, self.misses, self.coalesced
        )
    }
}

/// One suite benchmark's slot in the service's model memo.
#[derive(Debug)]
struct ModelSlot {
    spec: BenchmarkSpec,
    model: OnceLock<Arc<WorkloadModel>>,
}

/// The sweep-answering engine behind the HTTP server.
#[derive(Debug)]
pub struct SweepService {
    store: Option<Arc<ResultStore>>,
    flight: Flight<SimResult>,
    metrics: Arc<Metrics>,
    max_branches: usize,
    models: Vec<ModelSlot>,
}

impl SweepService {
    /// Builds a service. `store` of `None` disables persistence
    /// (every cell simulates, but concurrent duplicates still
    /// coalesce); `max_branches` caps the per-request replay length.
    pub fn new(
        store: Option<Arc<ResultStore>>,
        metrics: Arc<Metrics>,
        max_branches: usize,
    ) -> Self {
        SweepService {
            store,
            flight: Flight::new(),
            metrics,
            max_branches,
            models: suite::all_specs()
                .into_iter()
                .map(|spec| ModelSlot {
                    spec,
                    model: OnceLock::new(),
                })
                .collect(),
        }
    }

    /// The service's metrics.
    pub fn metrics(&self) -> &Arc<Metrics> {
        &self.metrics
    }

    /// The shared model for suite benchmark `name`, materialised on
    /// first use; `None` for a name outside the suite. A build holds
    /// only its own slot's once-cell, so requests for other benchmarks
    /// never wait on it, and concurrent first requests for the same
    /// one wait for a single build. A build that panics leaves its
    /// slot empty for the next request to retry.
    fn model(&self, name: &str) -> Option<Arc<WorkloadModel>> {
        let slot = self.models.iter().find(|slot| slot.spec.name == name)?;
        let model = slot.model.get_or_init(|| {
            let model = Arc::new(WorkloadModel::from_spec(&slot.spec));
            Metrics::inc(&self.metrics.workload_models_built);
            model
        });
        Some(Arc::clone(model))
    }

    /// Answers one sweep request: the deterministic JSON body plus
    /// provenance for the response header.
    pub fn execute(&self, request: &SweepRequest) -> Result<(String, Provenance), BadRequest> {
        let model = self
            .model(&request.workload)
            .ok_or_else(|| BadRequest::new(format!("unknown workload {:?}", request.workload)))?;
        let source = match request.branches {
            Some(n) => WorkloadSource::with_length(model, request.seed, n),
            None => WorkloadSource::new(model, request.seed),
        };
        if source.conditionals() > self.max_branches {
            return Err(BadRequest::new(format!(
                "trace length {} exceeds the server cap of {} branches",
                source.conditionals(),
                self.max_branches
            )));
        }
        Metrics::inc(&self.metrics.sweep_requests);
        Metrics::add(&self.metrics.cells, request.configs.len() as u64);

        let source_id = source.cache_id();
        let simulator = Simulator::with_warmup(request.warmup);
        let keys: Vec<CellKey> = request
            .configs
            .iter()
            .map(|config| CellKey::new(&source_id, config, &simulator))
            .collect();

        let mut provenance = Provenance::default();
        let mut results: Vec<Option<SimResult>> = vec![None; keys.len()];

        // 1. Store hits.
        if let Some(store) = &self.store {
            for (slot, key) in results.iter_mut().zip(&keys) {
                if let Some(result) = store.get(key) {
                    *slot = Some(result);
                    provenance.hits += 1;
                }
            }
        }
        Metrics::add(&self.metrics.cache_hits, provenance.hits as u64);

        // 2. Join the flight for every remaining cell. Each cell is
        // either led (this request will simulate it) or followed
        // (another request's in-flight batch covers it). Leaders are
        // claimed before any follower waits, so two requests can never
        // block on each other's unled work.
        let mut leaders: Vec<(usize, LeaderGuard<SimResult>)> = Vec::new();
        let mut followers: Vec<(usize, crate::flight::Waiter<SimResult>)> = Vec::new();
        for (i, key) in keys.iter().enumerate() {
            if results[i].is_some() {
                continue;
            }
            match self.flight.join(&key.digest()) {
                Join::Leader(guard) => leaders.push((i, guard)),
                Join::Follower(waiter) => followers.push((i, waiter)),
            }
        }

        // 3. Simulate all led cells as one batch. Re-check the store
        // first: leadership can be won for a cell another request
        // finished (and retired from the flight) between our store
        // miss and our join — simulate only what is still absent.
        if let Some(store) = &self.store {
            let mut still_missing = Vec::with_capacity(leaders.len());
            for (i, guard) in leaders {
                match store.get(&keys[i]) {
                    Some(result) => {
                        provenance.hits += 1;
                        Metrics::inc(&self.metrics.cache_hits);
                        // Publish to any followers of our short-lived
                        // leadership.
                        guard.complete(result.clone());
                        results[i] = Some(result);
                    }
                    None => still_missing.push((i, guard)),
                }
            }
            leaders = still_missing;
        }
        if !leaders.is_empty() {
            let configs: Vec<PredictorConfig> =
                leaders.iter().map(|&(i, _)| request.configs[i]).collect();
            Metrics::inc(&self.metrics.batches);
            Metrics::inc(&self.metrics.inflight_batches);
            let started = Instant::now();
            let computed = run_batched(&configs, &source, simulator, DEFAULT_SHARD_SIZE);
            self.metrics.batch_latency.observe(started.elapsed());
            self.metrics
                .inflight_batches
                .fetch_sub(1, std::sync::atomic::Ordering::Relaxed);

            provenance.misses += leaders.len();
            Metrics::add(&self.metrics.cache_misses, leaders.len() as u64);
            for ((i, guard), result) in leaders.into_iter().zip(computed) {
                if let Some(store) = &self.store {
                    let _ = store.put(&keys[i], &result);
                }
                guard.complete(result.clone());
                results[i] = Some(result);
            }
        }

        // 4. Collect followed cells; an aborted leader (panicked
        // request) falls back to a solo simulation here.
        for (i, waiter) in followers {
            let result = match waiter.wait() {
                Some(result) => {
                    provenance.coalesced += 1;
                    Metrics::inc(&self.metrics.coalesced_waits);
                    result
                }
                None => {
                    provenance.misses += 1;
                    Metrics::inc(&self.metrics.cache_misses);
                    let solo = run_batched(
                        &[request.configs[i]],
                        &source,
                        simulator,
                        DEFAULT_SHARD_SIZE,
                    )
                    .remove(0);
                    if let Some(store) = &self.store {
                        let _ = store.put(&keys[i], &solo);
                    }
                    solo
                }
            };
            results[i] = Some(result);
        }

        let resolved: Vec<SimResult> = results
            .into_iter()
            .map(|r| r.expect("every cell resolved"))
            .collect();
        let body = sweep_body(request, source.conditionals(), &source_id, &resolved);
        Ok((body, provenance))
    }
}

/// Renders the deterministic JSON body for an answered sweep. Public
/// so the load harness (`bench_serve`) can compute the expected body
/// from direct engine results and assert bit-identity against what
/// the server returned.
pub fn sweep_body(
    request: &SweepRequest,
    conditionals: usize,
    source_id: &str,
    results: &[SimResult],
) -> String {
    let cells: Vec<String> = request
        .configs
        .iter()
        .zip(results)
        .map(|(config, result)| cell_json(config, result))
        .collect();
    Object::new()
        .str("workload", &request.workload)
        .u64("seed", request.seed)
        .u64("branches", conditionals as u64)
        .u64("warmup", request.warmup as u64)
        .u64("engine", u64::from(bpred_sim::ENGINE_VERSION))
        .str("source_id", source_id)
        .raw("cells", &array(cells))
        .build()
}

fn cell_json(config: &PredictorConfig, result: &SimResult) -> String {
    let mut obj = Object::new()
        .str("config", &config.config_id())
        .str("predictor", &result.predictor)
        .u64("state_bits", result.state_bits)
        .u64("conditionals", result.conditionals)
        .u64("mispredictions", result.mispredictions)
        .f64("misprediction_rate", result.misprediction_rate());
    if let Some(alias) = &result.alias {
        obj = obj.raw(
            "alias",
            &Object::new()
                .u64("accesses", alias.accesses)
                .u64("conflicts", alias.conflicts)
                .u64("harmless_conflicts", alias.harmless_conflicts)
                .build(),
        );
    }
    if let Some(bht) = &result.bht {
        obj = obj.raw(
            "bht",
            &Object::new()
                .u64("accesses", bht.accesses)
                .u64("misses", bht.misses)
                .build(),
        );
    }
    obj.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::Ordering;

    fn gshare_configs() -> String {
        "configs=gshare:h=6,c=2;gas:h=6,c=2".to_owned()
    }

    #[test]
    fn parse_accepts_the_documented_form() {
        let q = format!(
            "workload=espresso&seed=7&branches=5000&warmup=100&{}",
            gshare_configs()
        );
        let r = SweepRequest::parse(&q).unwrap();
        assert_eq!(r.workload, "espresso");
        assert_eq!(r.seed, 7);
        assert_eq!(r.branches, Some(5000));
        assert_eq!(r.warmup, 100);
        assert_eq!(r.configs.len(), 2);
    }

    #[test]
    fn parse_rejects_bad_input() {
        assert!(SweepRequest::parse("configs=gshare:h=6").is_err()); // no workload
        assert!(SweepRequest::parse("workload=espresso").is_err()); // no configs
        assert!(SweepRequest::parse("workload=e&configs=nonsense~").is_err());
        assert!(SweepRequest::parse("workload=e&configs=gshare:h=6&seed=x").is_err());
        assert!(SweepRequest::parse("workload=e&configs=gshare:h=6&branches=0").is_err());
        assert!(SweepRequest::parse("workload=e&configs=gshare:h=6&bogus=1").is_err());
    }

    #[test]
    fn execute_answers_in_config_order() {
        let service = SweepService::new(None, Arc::new(Metrics::new()), 1_000_000);
        let request = SweepRequest::parse(&format!(
            "workload=espresso&branches=3000&{}",
            gshare_configs()
        ))
        .unwrap();
        let (body, provenance) = service.execute(&request).unwrap();
        assert!(body.contains("\"config\":\"gshare:h=6,c=2\""));
        assert!(body.contains("\"config\":\"gas:h=6,c=2\""));
        let gshare_at = body.find("gshare:h=6,c=2").unwrap();
        let gas_at = body.find("\"gas:h=6,c=2\"").unwrap();
        assert!(gshare_at < gas_at, "cells follow request order");
        assert_eq!(provenance.misses, 2);
        assert_eq!(provenance.hits, 0);
    }

    #[test]
    fn execute_is_deterministic_without_a_store() {
        let service = SweepService::new(None, Arc::new(Metrics::new()), 1_000_000);
        let request =
            SweepRequest::parse("workload=eqntott&branches=2000&configs=gshare:h=5,c=3").unwrap();
        let (a, _) = service.execute(&request).unwrap();
        let (b, _) = service.execute(&request).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn shared_models_answer_like_fresh_services_for_every_benchmark() {
        let long_lived = SweepService::new(None, Arc::new(Metrics::new()), 1_000_000);
        for spec in suite::all_specs() {
            for seed in [DEFAULT_SEED, 7] {
                for branches in [1_500, 4_000] {
                    let request = SweepRequest::parse(&format!(
                        "workload={}&seed={seed}&branches={branches}&configs=gshare:h=6,c=2;pas:h=4,c=2",
                        spec.name
                    ))
                    .unwrap();
                    let fresh = SweepService::new(None, Arc::new(Metrics::new()), 1_000_000);
                    let (expected, _) = fresh.execute(&request).unwrap();
                    let (body, _) = long_lived.execute(&request).unwrap();
                    assert_eq!(body, expected, "{} s{seed} n{branches}", spec.name);
                    // The same body from an owned, unshared model.
                    let owned = WorkloadSource::with_length(
                        suite::by_name(&spec.name).unwrap(),
                        seed,
                        branches,
                    );
                    let results = run_batched(
                        &request.configs,
                        &owned,
                        Simulator::new(),
                        DEFAULT_SHARD_SIZE,
                    );
                    let direct = sweep_body(&request, branches, &owned.cache_id(), &results);
                    assert_eq!(body, direct, "{} s{seed} n{branches}", spec.name);
                }
            }
        }
        let built = long_lived
            .metrics()
            .workload_models_built
            .load(Ordering::Relaxed);
        assert_eq!(built, 14, "one build per benchmark across 56 requests");
    }

    #[test]
    fn repeated_requests_build_a_model_once() {
        let service = SweepService::new(None, Arc::new(Metrics::new()), 1_000_000);
        let built = || {
            service
                .metrics()
                .workload_models_built
                .load(Ordering::Relaxed)
        };
        let espresso =
            SweepRequest::parse("workload=espresso&branches=1000&configs=gshare:h=5").unwrap();
        let first = service.execute(&espresso).unwrap();
        for seed in [1, 2, 3] {
            let mut again = espresso.clone();
            again.seed = seed;
            service.execute(&again).unwrap();
        }
        assert_eq!(service.execute(&espresso).unwrap(), first);
        assert_eq!(built(), 1);
        let eqntott =
            SweepRequest::parse("workload=eqntott&branches=1000&configs=gshare:h=5").unwrap();
        service.execute(&eqntott).unwrap();
        service.execute(&eqntott).unwrap();
        assert_eq!(built(), 2);
    }

    #[test]
    fn concurrent_first_requests_share_one_build() {
        let service = SweepService::new(None, Arc::new(Metrics::new()), 1_000_000);
        let request =
            SweepRequest::parse("workload=real_gcc&branches=1000&configs=gshare:h=5").unwrap();
        let bodies: Vec<String> = std::thread::scope(|scope| {
            let workers: Vec<_> = (0..4)
                .map(|_| scope.spawn(|| service.execute(&request).unwrap().0))
                .collect();
            workers.into_iter().map(|w| w.join().unwrap()).collect()
        });
        assert!(bodies.windows(2).all(|pair| pair[0] == pair[1]));
        let built = service
            .metrics()
            .workload_models_built
            .load(Ordering::Relaxed);
        assert_eq!(built, 1);
    }

    #[test]
    fn unknown_workloads_never_enter_the_memo() {
        let service = SweepService::new(None, Arc::new(Metrics::new()), 1_000_000);
        for name in ["nope", "", "ESPRESSO", "espresso ", "real-gcc"] {
            let mut request = SweepRequest::parse("workload=x&configs=gshare:h=5").unwrap();
            request.workload = name.to_owned();
            let err = service.execute(&request).unwrap_err();
            assert!(err.message.contains("unknown workload"), "{name:?}");
        }
        assert_eq!(service.models.len(), 14);
        assert!(service.models.iter().all(|slot| slot.model.get().is_none()));
        let built = service
            .metrics()
            .workload_models_built
            .load(Ordering::Relaxed);
        assert_eq!(built, 0);
    }

    #[test]
    fn execute_rejects_unknown_workload_and_oversize() {
        let service = SweepService::new(None, Arc::new(Metrics::new()), 10_000);
        let bad = SweepRequest::parse("workload=nope&configs=gshare:h=5").unwrap();
        assert!(service.execute(&bad).is_err());
        let big =
            SweepRequest::parse("workload=espresso&branches=20000&configs=gshare:h=5").unwrap();
        assert!(service.execute(&big).is_err());
    }
}

//! The serve workload, `serve-mixed`: the `serve` binary as a child
//! process on a scratch result store, driven over two keep-alive
//! connections by [`crate::loadgen`].
//!
//! A 1024-sweep warm pool is primed during set-up, with the hot tier
//! sized to about half of it, so warm hits split between the hot tier
//! and pack segments plus decode. One request in eight is a never-seen
//! sweep that computes and appends to a pack segment; in the open-loop
//! phase half of those are requested again within 5 ms on the other
//! connection, so single-flight coalescing does real work.
//!
//! A run is a few rounds. Each round starts a fresh server on a fresh
//! store and primes the warm pool through it (one set-up), then
//! measures three phases against it: one caller sending one request at
//! a time (the latency a lone user sees), two connections with four
//! requests in flight each (the throughput the server sustains), and
//! seeded Poisson arrivals at a pinned rate (open loop). The two
//! closed-loop phases run in short batches with a reference pass
//! ([`crate::host`]) after each, so their latencies and rates are
//! expressed at reference speed.

use std::collections::HashMap;
use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bpred_core::PredictorConfig;
use bpred_serve::hot::HotTier;
use bpred_serve::http::{parse_request, Parsed};
use bpred_serve::store::{ResultStore, StoreOptions};
use bpred_serve::{codec, sweep_body, Metrics, SweepRequest, SweepService};
use bpred_sim::cache::{run_configs_keyed, CellKey};
use bpred_sim::{run_batched, SimResult, Simulator, DEFAULT_SHARD_SIZE};
use bpred_workloads::{suite, WorkloadModel, WorkloadSource};

use crate::host;
use crate::layers::{self, Sweep};
use crate::loadgen::{self, latencies_ms, poisson, Client, Load, Observed, Planned};
use crate::stats::{median, percentile, summarize};
use crate::trace::{durations, Tracer};
use crate::{Ctx, Outcome, Rng};

/// Connections (and so concurrent requests in the server) the load
/// comes over.
const CONNECTIONS: usize = 2;
/// Requests each connection keeps in flight in the saturation phase.
const SATURATION_WINDOW: usize = 4;
/// A generator later than this at p99 (ms) marks an open-loop phase
/// invalid.
const MAX_LAG_P99_MS: f64 = 1.0;

/// Distinct sweeps in the warm pool (an eighth of it under `--quick`).
const POOL: usize = 1024;
/// Conditional branches per warm sweep.
const POOL_BRANCHES: usize = 5_000;
/// Open-loop arrival rate, requests per second: about a third of the
/// saturated throughput on the commit that introduced the benchmark.
const OPEN_RPS: f64 = 220.0;
/// Rounds per run, each with its own server and set-up (two under
/// `--quick`).
const ROUNDS: usize = 3;
/// Requests per batch of the unloaded phase, sent one at a time (about
/// a tenth of a second); a reference pass follows each batch.
const UNLOADED_BATCH: usize = 200;
/// Requests per connection per batch of the saturated phase (about a
/// quarter of a second); a reference pass follows each batch.
const SATURATED_BATCH: usize = 100;
/// Longest a closed-loop batch may send for before it is cut short.
const BATCH_LIMIT: Duration = Duration::from_secs(10);

/// Benchmarks of the pool: the paper's three focus benchmarks, whose
/// model sizes differ by 7×.
const POOL_WORKLOADS: [&str; 3] = ["espresso", "mpeg_play", "real_gcc"];

/// Conditional branches of a cold sweep (distinct from every pool's,
/// so a cold source can never be a warm one).
const COLD_BRANCHES: usize = 4_000;
/// One request in this many is cold.
const COLD_EVERY: usize = 8;
/// Window in which a duplicate of a cold sweep follows it.
const DUPLICATE_WITHIN: Duration = Duration::from_millis(5);

/// One distinct sweep request.
#[derive(Debug, Clone)]
pub struct Target {
    /// Request path with query.
    pub path: String,
    /// Benchmark name.
    pub workload: &'static str,
    /// Trace seed.
    pub seed: u64,
    /// Conditional branches.
    pub branches: usize,
    /// Configurations.
    pub configs: Vec<PredictorConfig>,
}

impl Target {
    fn new(
        workload: &'static str,
        seed: u64,
        branches: usize,
        configs: Vec<PredictorConfig>,
    ) -> Target {
        let list: Vec<String> = configs.iter().map(PredictorConfig::config_id).collect();
        Target {
            path: format!(
                "/sweep?workload={workload}&seed={seed}&branches={branches}&configs={}",
                list.join(";")
            ),
            workload,
            seed,
            branches,
            configs,
        }
    }

    fn source(&self, models: &mut Models) -> WorkloadSource {
        WorkloadSource::with_length(models.get(self.workload), self.seed, self.branches)
    }
}

/// Workload models built once per benchmark process.
#[derive(Default)]
struct Models(HashMap<&'static str, WorkloadModel>);

impl Models {
    fn get(&mut self, name: &'static str) -> WorkloadModel {
        self.0
            .entry(name)
            .or_insert_with(|| suite::by_name(name).expect("pool workloads are in the suite"))
            .clone()
    }
}

/// A random configuration from one of the thirteen predictor families
/// (static schemes aside), sized small enough for a quick cold sweep.
fn random_config(rng: &mut Rng) -> PredictorConfig {
    let mut r = |lo: usize, hi: usize| lo + rng.below(hi - lo + 1);
    let text = match r(0, 12) {
        0 => format!("last:a={}", r(6, 12)),
        1 => format!("bimodal:a={}", r(6, 12)),
        2 => format!("gas:h={},c={}", r(4, 10), r(0, 4)),
        3 => format!("gshare:h={},c={}", r(4, 10), r(0, 4)),
        4 => format!("path:r={},c={},q=2", r(4, 8), r(0, 3)),
        5 => format!("pas:h={},c={}", r(4, 8), r(0, 3)),
        6 => format!(
            "pas:h={},c={},e={},w=4",
            r(4, 8),
            r(0, 3),
            [128, 1024][r(0, 1)]
        ),
        7 => format!("sas:h={},s={},c={}", r(4, 8), r(2, 4), r(0, 3)),
        8 => format!("tournament:a={},h={},k={}", r(6, 10), r(6, 10), r(6, 10)),
        9 => format!("agree:h={}", r(6, 10)),
        10 => format!("bimode:h={}", r(6, 10)),
        11 => format!("gskew:h={},b={}", r(6, 10), r(6, 9)),
        _ => format!("yags:k={},b={},t={}", r(6, 10), r(5, 8), r(4, 6)),
    };
    text.parse().expect("generated configs parse")
}

/// Seed of the streams the pool's and the cold sweeps' configurations
/// are drawn from. It is the same for every `--seed`, so what a request
/// costs does not change with the seed; the seed picks trace seeds and
/// the order of requests.
const CONFIG_STREAM_SEED: u64 = 1996;

/// The warm pool: distinct sweeps whose trace seeds derive from the
/// seed, with a seed-independent mix of benchmarks, sizes and
/// configurations.
fn warm_pool(pool: usize, seed: u64) -> Vec<Target> {
    let base = Rng::new(seed, 1).next_u64() >> 24;
    let mut rng = Rng::new(CONFIG_STREAM_SEED, 1);
    (0..pool)
        .map(|i| {
            let configs = (0..4).map(|_| random_config(&mut rng)).collect();
            Target::new(
                POOL_WORKLOADS[i % POOL_WORKLOADS.len()],
                base + i as u64,
                POOL_BRANCHES,
                configs,
            )
        })
        .collect()
}

/// Cold sweeps are appended to the target list as schedules need
/// them; their trace seeds continue one counter per run, and the `n`th
/// cold sweep has the same benchmark and configurations for every seed.
struct Targets {
    list: Vec<Target>,
    paths: Vec<String>,
    pool: usize,
    cold_rng: Rng,
    cold_seed: u64,
}

impl Targets {
    fn new(pool: Vec<Target>, seed: u64) -> Targets {
        let cold_rng = Rng::new(CONFIG_STREAM_SEED, 2);
        let cold_seed = Rng::new(seed, 2).next_u64() >> 24;
        Targets {
            paths: pool.iter().map(|t| t.path.clone()).collect(),
            pool: pool.len(),
            list: pool,
            cold_rng,
            cold_seed,
        }
    }

    fn push_cold(&mut self) -> usize {
        let rng = &mut self.cold_rng;
        let workload = POOL_WORKLOADS[rng.below(POOL_WORKLOADS.len())];
        let count = 1 + rng.below(4);
        let configs = (0..count).map(|_| random_config(rng)).collect();
        self.cold_seed += 1;
        let target = Target::new(workload, self.cold_seed, COLD_BRANCHES, configs);
        self.paths.push(target.path.clone());
        self.list.push(target);
        self.list.len() - 1
    }
}

/// The open-loop plan of one phase: Poisson arrivals at `rate` for
/// `secs`, alternating connections; one arrival in [`COLD_EVERY`] is a
/// cold sweep, and half of those are duplicated on the other
/// connection.
fn schedule(rng: &mut Rng, rate: f64, secs: f64, targets: &mut Targets) -> Vec<Planned> {
    let arrivals = poisson(rng, rate, Duration::from_secs_f64(secs));
    let mut plan = Vec::with_capacity(arrivals.len() + arrivals.len() / 8);
    for (i, due) in arrivals.into_iter().enumerate() {
        let conn = i % CONNECTIONS;
        if rng.below(COLD_EVERY) == 0 {
            let target = targets.push_cold();
            plan.push(Planned { due, conn, target });
            if rng.below(2) == 0 {
                let gap = DUPLICATE_WITHIN.mul_f64(rng.unit());
                plan.push(Planned {
                    due: due + gap,
                    conn: (conn + 1) % CONNECTIONS,
                    target,
                });
            }
        } else {
            plan.push(Planned {
                due,
                conn,
                target: rng.below(targets.pool),
            });
        }
    }
    plan.sort_by_key(|p| p.due);
    plan
}

/// The `serve` child process.
struct Server {
    child: Child,
    addr: SocketAddr,
    // Held so the child's later startup lines never hit a closed pipe.
    _stdout: BufReader<ChildStdout>,
}

impl Server {
    /// Starts `serve` on a fresh store at `dir` and waits until
    /// `/healthz` answers.
    fn spawn(bin: &Path, dir: &Path, hot_bytes: u64) -> Result<Server, String> {
        let _ = std::fs::remove_dir_all(dir);
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        // The server runs at a lower priority than the load generator
        // that shares its CPU: the generator needs little CPU but must
        // send on time, and a late sender would hide server latency.
        let command = |niced: bool| {
            let mut command = if niced {
                let mut nice = Command::new("nice");
                nice.args(["-n", "10"]).arg(bin);
                nice
            } else {
                Command::new(bin)
            };
            command
                .args(["--addr", "127.0.0.1:0", "--cache-dir"])
                .arg(dir)
                .env("BPRED_STORE_HOT_BYTES", hot_bytes.to_string())
                .stdin(Stdio::null())
                .stdout(Stdio::piped());
            command
        };
        let mut child = command(true)
            .spawn()
            .or_else(|_| command(false).spawn())
            .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        let read = stdout.read_line(&mut line);
        let addr = line
            .trim()
            .rsplit("http://")
            .next()
            .and_then(|a| a.parse::<SocketAddr>().ok());
        let server = match (read, addr) {
            (Ok(_), Some(addr)) => Server {
                child,
                addr,
                _stdout: stdout,
            },
            _ => {
                let _ = child.kill();
                let _ = child.wait();
                return Err(format!("serve did not report its address (got {line:?})"));
            }
        };
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            if let Ok((200, _)) = loadgen::get(server.addr, "/healthz", Duration::from_secs(1)) {
                return Ok(server);
            }
            if Instant::now() > deadline {
                return Err("serve never answered /healthz".to_owned());
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    fn peak_rss_mib(&self) -> Option<f64> {
        crate::peak_rss_mib(&self.child.id().to_string())
    }

    /// `/metrics` counters by series name (labels included).
    fn scrape(&self) -> Result<HashMap<String, f64>, String> {
        let (status, body) = loadgen::get(self.addr, "/metrics", Duration::from_secs(5))
            .map_err(|e| format!("/metrics: {e}"))?;
        if status != 200 {
            return Err(format!("/metrics answered {status}"));
        }
        Ok(String::from_utf8_lossy(&body)
            .lines()
            .filter(|l| !l.starts_with('#'))
            .filter_map(|l| {
                let (name, value) = l.rsplit_once(' ')?;
                Some((name.to_owned(), value.parse().ok()?))
            })
            .collect())
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Expected body hashes (and results, for priming in-process stores),
/// computed straight through the engine and the service's serializer.
struct Expected {
    hashes: Vec<Option<u64>>,
    results: Vec<Option<Vec<SimResult>>>,
    models: Models,
}

impl Expected {
    fn new() -> Expected {
        Expected {
            hashes: Vec::new(),
            results: Vec::new(),
            models: Models::default(),
        }
    }

    fn ensure(&mut self, targets: &[Target], index: usize) -> u64 {
        if self.hashes.len() < targets.len() {
            self.hashes.resize(targets.len(), None);
            self.results.resize(targets.len(), None);
        }
        if let Some(hash) = self.hashes[index] {
            return hash;
        }
        let target = &targets[index];
        let query = target
            .path
            .split_once('?')
            .expect("sweep paths have a query")
            .1;
        let request = SweepRequest::parse(query).expect("benchmark requests parse");
        let source = target.source(&mut self.models);
        let results = run_configs_keyed(
            &request.configs,
            &source,
            Simulator::with_warmup(request.warmup),
            None,
        );
        let body = sweep_body(
            &request,
            source.conditionals(),
            &source.cache_id(),
            &results,
        );
        let hash = crate::fnv64(body.as_bytes());
        self.hashes[index] = Some(hash);
        self.results[index] = Some(results);
        hash
    }

    /// Hot-tier bytes the pool's cells occupy, as the hot tier itself
    /// charges them.
    fn pool_bytes(&mut self, targets: &[Target], pool: usize) -> u64 {
        let tier = HotTier::new(u64::MAX);
        for i in 0..pool {
            self.ensure(targets, i);
            let target = &targets[i];
            let source_id = target.source(&mut self.models).cache_id();
            let results = self.results[i].as_ref().expect("just ensured");
            for (config, result) in target.configs.iter().zip(results) {
                let key = CellKey::new(&source_id, config, &Simulator::new());
                let digest = u128::from_str_radix(&key.digest(), 16).expect("digests are hex");
                tier.put(
                    digest,
                    result,
                    codec::encode(&key.canonical(), result).len(),
                );
            }
        }
        tier.bytes()
    }
}

/// A closed-loop target sequence of `len` requests: uniform over the
/// warm pool, and one in [`COLD_EVERY`] a cold sweep.
fn sequence(rng: &mut Rng, len: usize, targets: &mut Targets) -> Vec<usize> {
    (0..len)
        .map(|_| {
            if rng.below(COLD_EVERY) == 0 {
                targets.push_cold()
            } else {
                rng.below(targets.pool)
            }
        })
        .collect()
}

/// One closed-loop batch: what it observed, when it started, and the
/// host's slowdown timed right after it.
struct Batch {
    observed: Vec<Observed>,
    origin: Instant,
    slowdown: f64,
}

impl Batch {
    /// Answered requests per second, at reference speed.
    fn rate(&self) -> Option<f64> {
        let answered = self.observed.iter().filter(|o| o.ok()).count();
        let end = self.observed.iter().filter_map(|o| o.done).max()?;
        Some(answered as f64 / end.as_secs_f64() * self.slowdown)
    }
}

/// What one round observed.
struct Round {
    /// Set-up seconds at reference speed.
    setup_s: f64,
    /// Priming responses.
    primed: Vec<Observed>,
    /// One caller, one request at a time, in batches.
    unloaded: Vec<Batch>,
    /// Two connections with [`SATURATION_WINDOW`] in flight each, in
    /// batches.
    saturated: Vec<Batch>,
    /// Poisson arrivals at the pinned rate.
    open: Vec<Observed>,
    /// The server's peak resident set, MiB.
    rss_mib: f64,
    /// `/metrics` counters gained over the measured phases.
    counters: HashMap<String, f64>,
}

impl Round {
    fn measured(&self) -> impl Iterator<Item = &Observed> {
        let batches = self.unloaded.iter().chain(&self.saturated);
        batches.flat_map(|b| &b.observed).chain(&self.open)
    }

    fn all(&self) -> impl Iterator<Item = &Observed> {
        self.primed.iter().chain(self.measured())
    }
}

/// Closed-loop batches of `per_conn` requests on each of `conns`
/// connections with `window` in flight on each, a reference pass after
/// every batch, until `secs` have passed.
fn batches(
    client: &mut Client,
    targets: &mut Targets,
    rng: &mut Rng,
    (conns, per_conn, window): (usize, usize, usize),
    secs: f64,
) -> Vec<Batch> {
    let end = Instant::now() + Duration::from_secs_f64(secs);
    let mut out = Vec::new();
    while out.is_empty() || Instant::now() < end {
        let sequences: Vec<Vec<usize>> = (0..conns)
            .map(|_| sequence(rng, per_conn, targets))
            .collect();
        let load = Load::Closed {
            targets: &sequences,
            window,
            duration: BATCH_LIMIT,
        };
        let (observed, origin) = client.run(&targets.paths, load);
        let slowdown = host::slowdown(host::reference_pass());
        out.push(Batch {
            observed,
            origin,
            slowdown,
        });
    }
    out
}

/// One round: a fresh server on a fresh store at `dir`, primed, then
/// the phases as shares of `secs`: unloaded 0.4, saturated 0.4, open
/// loop 0.2. The unloaded phase comes first, so the server's tiers hold
/// exactly the primed pool when it starts.
fn round(
    secs: f64,
    bin: &Path,
    dir: &Path,
    hot_bytes: u64,
    targets: &mut Targets,
    rng: &mut Rng,
) -> Result<Round, String> {
    let (server, mut client, primed, setup_wall_s) = set_up(bin, dir, hot_bytes, targets)?;
    let setup_s = setup_wall_s / host::slowdown(host::reference_pass());
    let before = server.scrape()?;
    let unloaded = batches(
        &mut client,
        targets,
        rng,
        (1, UNLOADED_BATCH, 1),
        0.4 * secs,
    );
    let saturated = batches(
        &mut client,
        targets,
        rng,
        (CONNECTIONS, SATURATED_BATCH, SATURATION_WINDOW),
        0.4 * secs,
    );
    let plan = schedule(rng, OPEN_RPS, 0.2 * secs, targets);
    let (open, _) = client.run(&targets.paths, Load::Open(&plan));

    let after = server.scrape()?;
    let counters = after
        .iter()
        .map(|(name, v)| (name.clone(), v - before.get(name).copied().unwrap_or(0.0)))
        .collect();
    Ok(Round {
        setup_s,
        primed,
        unloaded,
        saturated,
        open,
        rss_mib: server.peak_rss_mib().unwrap_or(0.0),
        counters,
    })
}

/// Starts the server and primes the warm pool through it: one
/// set-up. Returns the server, the priming observations and the
/// set-up seconds.
fn set_up(
    bin: &Path,
    dir: &Path,
    hot_bytes: u64,
    targets: &Targets,
) -> Result<(Server, Client, Vec<Observed>, f64), String> {
    let start = Instant::now();
    let server = Server::spawn(bin, dir, hot_bytes)?;
    let mut client =
        Client::connect(server.addr, CONNECTIONS).map_err(|e| format!("connect: {e}"))?;
    let plan: Vec<Planned> = (0..targets.pool)
        .map(|target| Planned {
            due: Duration::ZERO,
            conn: target % CONNECTIONS,
            target,
        })
        .collect();
    let (primed, _) = client.run(&targets.paths, Load::Open(&plan));
    Ok((server, client, primed, start.elapsed().as_secs_f64()))
}

/// Median over rounds of `f` of each round.
fn median_of(rounds: &[Round], f: impl Fn(&Round) -> f64) -> f64 {
    median(&rounds.iter().map(f).collect::<Vec<_>>()).expect("at least one round")
}

/// One run of `serve-mixed`.
pub fn run(ctx: &Ctx, tracer: Option<&Tracer>) -> Result<Outcome, String> {
    let bin = ctx.bin("serve")?;
    let (pool, rounds) = if ctx.quick {
        (POOL / 8, 2)
    } else {
        (POOL, ROUNDS)
    };
    let mut out = Outcome::default();
    let mut targets = Targets::new(warm_pool(pool, ctx.seed), ctx.seed);
    let mut expected = Expected::new();
    let hot_bytes = expected.pool_bytes(&targets.list, targets.pool) / 2;
    out.note("hot_tier_bytes", hot_bytes as f64, "B");

    let mut rng = Rng::new(ctx.seed, 3);
    let secs = ctx.seconds / rounds as f64;
    let rounds = (0..rounds)
        .map(|i| {
            let dir = ctx.scratch.join(format!("store-{i}"));
            round(secs, &bin, &dir, hot_bytes, &mut targets, &mut rng)
        })
        .collect::<Result<Vec<Round>, String>>()?;

    // Every response, priming included, against the direct result.
    for o in rounds.iter().flat_map(Round::all) {
        let want = expected.ensure(&targets.list, o.planned.target);
        out.check(o.ok() && o.body_hash == want, || {
            format!(
                "{} answered status {} with body hash {:016x}, expected 200 and {want:016x}",
                targets.paths[o.planned.target], o.status, o.body_hash
            )
        });
    }

    // Latencies of the unloaded batches at reference speed, every
    // round pooled, and each saturated batch's rate.
    let unloaded_batches = || rounds.iter().flat_map(|r| &r.unloaded);
    let scaled: Vec<f64> = unloaded_batches()
        .flat_map(|b| {
            latencies_ms(&b.observed)
                .into_iter()
                .map(|ms| ms / b.slowdown)
        })
        .collect();
    let unloaded = summarize(&scaled).ok_or("the unloaded phase sent nothing")?;
    let wall: Vec<f64> = unloaded_batches()
        .flat_map(|b| latencies_ms(&b.observed))
        .collect();
    let unloaded_wall = summarize(&wall).expect("same requests as above");
    let rates: Vec<f64> = rounds
        .iter()
        .flat_map(|r| r.saturated.iter().filter_map(Batch::rate))
        .collect();
    out.e2e
        .insert("setup_s".into(), median_of(&rounds, |r| r.setup_s));
    out.e2e.insert("latency_ms".into(), unloaded.p50);
    out.e2e.insert(
        "capacity_per_s".into(),
        median(&rates).ok_or("the saturated phase completed nothing")?,
    );
    out.e2e
        .insert("peak_rss_mib".into(), median_of(&rounds, |r| r.rss_mib));
    out.note("rounds", rounds.len() as f64, "count");
    out.note("unloaded.requests", unloaded.n as f64, "count");
    out.note(
        &format!("latency_ms.p{:.0}", unloaded.tail_pct),
        unloaded.tail,
        "ms",
    );
    out.note("unloaded.wall.p50_ms", unloaded_wall.p50, "ms");
    out.note(
        &format!("unloaded.wall.p{:.0}_ms", unloaded_wall.tail_pct),
        unloaded_wall.tail,
        "ms",
    );
    let slowdowns: Vec<f64> = rounds
        .iter()
        .flat_map(|r| r.unloaded.iter().chain(&r.saturated).map(|b| b.slowdown))
        .collect();
    out.note(
        "host.slowdown.p50",
        median(&slowdowns).expect("batches ran"),
        "ratio",
    );
    let saturated: Vec<f64> = rounds
        .iter()
        .flat_map(|r| r.saturated.iter().flat_map(|b| latencies_ms(&b.observed)))
        .collect();
    let open: Vec<f64> = rounds.iter().flat_map(|r| latencies_ms(&r.open)).collect();
    for (phase, lat) in [("saturated", saturated), ("open", open)] {
        let s = summarize(&lat).ok_or("a phase sent nothing")?;
        out.note(&format!("{phase}.requests"), s.n as f64, "count");
        out.note(&format!("{phase}.wall.p50_ms"), s.p50, "ms");
        out.note(&format!("{phase}.wall.p{:.0}_ms", s.tail_pct), s.tail, "ms");
    }
    out.note("open.rate", OPEN_RPS, "1/s");
    let lag = percentile(
        &rounds
            .iter()
            .flat_map(|r| r.open.iter().map(Observed::lag_ms))
            .collect::<Vec<_>>(),
        99.0,
    )
    .unwrap_or(0.0);
    out.note("client.lag_ms.p99", lag, "ms");
    if lag > MAX_LAG_P99_MS {
        println!(
            "# INVALID open-loop phase: generator {lag:.3} ms late at p99 (limit {MAX_LAG_P99_MS} ms); its latencies, taken from due time, include that lateness"
        );
    }
    let counter = |name: &str| -> f64 {
        rounds
            .iter()
            .map(|r| r.counters.get(name).copied().unwrap_or(0.0))
            .sum()
    };
    let cells = counter("bpred_cells_total").max(1.0);
    let hot_hits = counter("bpred_store_hits_total{tier=\"hot\"}");
    let pack_hits = counter("bpred_store_hits_total{tier=\"pack\"}");
    let misses = counter("bpred_cache_misses_total");
    out.note("store.cells", cells, "cells");
    out.note("store.hot_hits", hot_hits, "cells");
    out.note("store.pack_hits", pack_hits, "cells");
    out.note("store.misses", misses, "cells");

    if let Some(tracer) = tracer {
        let first = &rounds[0];
        for batch in &first.unloaded {
            for o in &batch.observed {
                if let Some(done) = o.done {
                    tracer.record(
                        "client.request",
                        None,
                        Some(o.planned.target as u64),
                        batch.origin + o.planned.due,
                        batch.origin + done,
                        &[("status", u64::from(o.status))],
                    );
                }
            }
        }
        let measured = || rounds.iter().flat_map(Round::measured);
        let layers = &mut out.layers;
        layers.insert("serve.store.hot_ratio".into(), hot_hits / cells);
        layers.insert("serve.store.pack_ratio".into(), pack_hits / cells);
        layers.insert("serve.store.miss_ratio".into(), misses / cells);
        let (missed, coalesced) = measured().fold((0u64, 0u64), |(m, c), o| {
            (m + u64::from(o.provenance.1), c + u64::from(o.provenance.2))
        });
        layers.insert(
            "serve.flight.coalesced_ratio".into(),
            coalesced as f64 / (missed + coalesced).max(1) as f64,
        );
        let requests = measured().count().max(1) as f64;
        layers.insert(
            "serve.shed_ratio".into(),
            measured().filter(|o| o.status == 429).count() as f64 / requests,
        );
        layers.insert("client.lag_ms.p99".into(), lag);
        serve_layers(
            tracer,
            ctx,
            &targets,
            &mut expected,
            &first
                .unloaded
                .iter()
                .flat_map(|b| b.observed.iter().cloned())
                .collect::<Vec<_>>(),
            hot_bytes,
            unloaded_wall.p50,
            &mut out,
        )?;
    }
    Ok(out)
}

/// Per-layer passes of `serve-mixed`: chunk production and the
/// batched sweep over the sweeps it computes, plan rates, and an in-process
/// re-drive of the first round's unloaded phase through the service's
/// public calls (the server answered that phase one request at a time
/// from the primed pool, so stores primed the same way replay its tier
/// states).
#[allow(clippy::too_many_arguments)]
fn serve_layers(
    tracer: &Tracer,
    ctx: &Ctx,
    targets: &Targets,
    expected: &mut Expected,
    unloaded: &[Observed],
    hot_bytes: u64,
    unloaded_p50_ms: f64,
    out: &mut Outcome,
) -> Result<(), String> {
    // The sweeps the server computes: the pool, plus up to 64 colds.
    let computed = targets.list.len().min(targets.pool + 64);
    let sweeps: Vec<Sweep> = (0..computed)
        .map(|i| Sweep {
            configs: targets.list[i].configs.clone(),
            source: targets.list[i].source(&mut expected.models),
            simulator: Simulator::new(),
        })
        .collect();
    layers::chunk_pass(
        tracer,
        &sweeps.iter().map(|s| &s.source).collect::<Vec<_>>(),
        out,
    );
    layers::sim_pass(tracer, &sweeps, out);
    let configs: Vec<PredictorConfig> = sweeps.iter().flat_map(|s| s.configs.clone()).collect();
    let chunks = layers::prefix_chunks(
        &sweeps.iter().map(|s| &s.source).collect::<Vec<_>>(),
        1 << 18,
    );
    layers::plan_pass(tracer, &configs, &chunks, out);

    // Two in-process stores primed like the server's: one re-driven
    // call by call, one answering through `SweepService::execute`.
    let options = StoreOptions {
        hot_bytes,
        ..StoreOptions::default()
    };
    let open = |name: &str| {
        let dir = ctx.scratch.join(name);
        let _ = std::fs::remove_dir_all(&dir);
        ResultStore::open_with(&dir, options.clone()).map_err(|e| format!("store {name}: {e}"))
    };
    let stepped = open("redrive-steps")?;
    let service_store = Arc::new(open("redrive-execute")?);
    for i in 0..targets.pool {
        let target = &targets.list[i];
        let source_id = target.source(&mut expected.models).cache_id();
        let results = expected.results[i].as_ref().expect("pool results computed");
        for (config, result) in target.configs.iter().zip(results) {
            let key = CellKey::new(&source_id, config, &Simulator::new());
            stepped
                .put(&key, result)
                .map_err(|e| format!("prime: {e}"))?;
            service_store
                .put(&key, result)
                .map_err(|e| format!("prime: {e}"))?;
        }
    }
    let service = SweepService::new(Some(service_store), Arc::new(Metrics::new()), 2_000_000);

    let limit = if ctx.quick { 200 } else { 3000 };
    let mut execute_us = Vec::new();
    for (n, o) in unloaded.iter().take(limit).enumerate() {
        let target = &targets.list[o.planned.target];
        let hash = redrive(tracer, &stepped, n as u64, target)?;
        out.check(hash == o.body_hash, || {
            format!(
                "re-driven body for {} differs from the server's",
                target.path
            )
        });
        let query = target.path.split_once('?').expect("query").1;
        let request = SweepRequest::parse(query).map_err(|e| e.message)?;
        let start = Instant::now();
        let answered = service.execute(&request).map_err(|e| e.message)?;
        execute_us.push(start.elapsed().as_secs_f64() * 1e6);
        out.check(crate::fnv64(answered.0.as_bytes()) == o.body_hash, || {
            format!(
                "in-process execute for {} differs from the server's",
                target.path
            )
        });
    }

    let spans = tracer.spans();
    let mut timing = |metric: &str, span: &str, scale: f64| {
        let values: Vec<f64> = durations(&spans, span).iter().map(|s| s * scale).collect();
        let summary = summarize(&values);
        out.layers
            .insert(format!("{metric}.p50"), summary.map_or(0.0, |s| s.p50));
        out.layers
            .insert(format!("{metric}.tail"), summary.map_or(0.0, |s| s.tail));
    };
    timing("serve.http.parse_us", "serve.http.parse", 1e6);
    timing("serve.service.parse_us", "serve.service.parse", 1e6);
    timing("serve.service.source_us", "serve.service.source", 1e6);
    timing("serve.store.get_hot_us", "serve.store.get_hot", 1e6);
    timing("serve.store.get_pack_us", "serve.store.get_pack", 1e6);
    timing("serve.codec.decode_us", "serve.codec.decode", 1e6);
    timing("serve.compute.batch_ms", "serve.compute.batch", 1e3);
    timing("serve.codec.encode_us", "serve.codec.encode", 1e6);
    timing("serve.store.put_us", "serve.store.put", 1e6);
    timing("serve.json.body_us", "serve.json.body", 1e6);
    let execute = summarize(&execute_us).ok_or("nothing re-driven")?;
    out.layers
        .insert("serve.service.execute_us.p50".into(), execute.p50);
    out.layers
        .insert("serve.service.execute_us.tail".into(), execute.tail);
    out.layers.insert(
        "serve.net.overhead_us".into(),
        unloaded_p50_ms * 1e3 - execute.p50,
    );
    out.untouched = vec!["experiments.", "report.", "workloads.trace."];
    Ok(())
}

/// Re-drives one request through the public calls, in the order
/// `SweepService::execute` makes them, under one request span.
/// Returns the FNV-1a 64 of the re-driven body.
fn redrive(tracer: &Tracer, store: &ResultStore, id: u64, target: &Target) -> Result<u64, String> {
    let root = tracer.open("serve.request", None, Some(id));
    let parent = Some(root.id());
    let req = Some(id);
    let raw = format!("GET {} HTTP/1.1\r\nHost: bench\r\n\r\n", target.path);

    let open = tracer.open("serve.http.parse", parent, req);
    let parsed = parse_request(raw.as_bytes());
    tracer.close(open, &[]);
    let Parsed::Request(http, _) = parsed else {
        return Err(format!("{} did not parse as HTTP", target.path));
    };

    let open = tracer.open("serve.service.parse", parent, req);
    let request = SweepRequest::parse(&http.query).map_err(|e| e.message)?;
    tracer.close(open, &[("cells", request.configs.len() as u64)]);

    let open = tracer.open("serve.service.source", parent, req);
    let model = suite::by_name(&request.workload).ok_or("unknown workload")?;
    let source = match request.branches {
        Some(n) => WorkloadSource::with_length(model, request.seed, n),
        None => WorkloadSource::new(model, request.seed),
    };
    let source_id = source.cache_id();
    let simulator = Simulator::with_warmup(request.warmup);
    let keys: Vec<CellKey> = request
        .configs
        .iter()
        .map(|config| CellKey::new(&source_id, config, &simulator))
        .collect();
    tracer.close(open, &[]);

    let stats = store.stats();
    let load =
        |counter: &std::sync::atomic::AtomicU64| counter.load(std::sync::atomic::Ordering::Relaxed);
    let mut results: Vec<Option<SimResult>> = Vec::with_capacity(keys.len());
    for key in &keys {
        let (hot, pack) = (load(&stats.hot_hits), load(&stats.pack_hits));
        let start = Instant::now();
        let got = store.get(key);
        let end = Instant::now();
        let tier = if load(&stats.hot_hits) > hot {
            "serve.store.get_hot"
        } else if load(&stats.pack_hits) > pack {
            "serve.store.get_pack"
        } else {
            "serve.store.get_miss"
        };
        tracer.record(tier, parent, req, start, end, &[]);
        if tier == "serve.store.get_pack" {
            // The decode share of a pack hit, on the same stored bytes.
            if let Some(bytes) = store.get_raw(&key.digest()) {
                let open = tracer.open("serve.codec.decode", parent, req);
                let decoded = codec::decode(&bytes, &key.canonical());
                tracer.close(open, &[("bytes", bytes.len() as u64)]);
                std::hint::black_box(decoded.ok());
            }
        }
        results.push(got);
    }

    let missing: Vec<usize> = (0..keys.len()).filter(|&i| results[i].is_none()).collect();
    if !missing.is_empty() {
        let configs: Vec<PredictorConfig> = missing.iter().map(|&i| request.configs[i]).collect();
        let open = tracer.open("serve.compute.batch", parent, req);
        let computed = run_batched(&configs, &source, simulator, DEFAULT_SHARD_SIZE);
        tracer.close(open, &[("cells", configs.len() as u64)]);
        for (&i, result) in missing.iter().zip(computed) {
            let open = tracer.open("serve.codec.encode", parent, req);
            let bytes = codec::encode(&keys[i].canonical(), &result);
            tracer.close(open, &[("bytes", bytes.len() as u64)]);
            let open = tracer.open("serve.store.put", parent, req);
            store
                .put(&keys[i], &result)
                .map_err(|e| format!("put: {e}"))?;
            tracer.close(open, &[]);
            results[i] = Some(result);
        }
    }

    let resolved: Vec<SimResult> = results.into_iter().map(|r| r.expect("resolved")).collect();
    let open = tracer.open("serve.json.body", parent, req);
    let body = sweep_body(&request, source.conditionals(), &source_id, &resolved);
    tracer.close(open, &[("bytes", body.len() as u64)]);
    tracer.close(root, &[("cells", keys.len() as u64)]);
    Ok(crate::fnv64(body.as_bytes()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn targets_and_plan(seed: u64) -> (Targets, Vec<Planned>) {
        let mut targets = Targets::new(warm_pool(POOL / 8, seed), seed);
        let plan = schedule(&mut Rng::new(seed, 3), 2000.0, 1.0, &mut targets);
        (targets, plan)
    }

    #[test]
    fn schedules_and_pools_are_deterministic_per_seed() {
        let make = |seed| {
            let (targets, plan) = targets_and_plan(seed);
            (plan, targets.paths)
        };
        assert_eq!(make(5), make(5));
        assert_ne!(make(5).1, make(6).1);
    }

    #[test]
    fn configurations_do_not_depend_on_the_seed() {
        let (a, _) = targets_and_plan(5);
        let (b, _) = targets_and_plan(6);
        let shape = |t: &Targets| -> Vec<(&str, Vec<PredictorConfig>)> {
            t.list
                .iter()
                .map(|x| (x.workload, x.configs.clone()))
                .collect()
        };
        let (a, b) = (shape(&a), shape(&b));
        let n = a.len().min(b.len());
        assert!(n > POOL / 8, "the plans hold cold sweeps");
        assert_eq!(a[..n], b[..n]);
    }

    #[test]
    fn mixed_schedule_duplicates_colds_on_the_other_connection() {
        let mut targets = Targets::new(warm_pool(POOL / 8, 9), 9);
        let plan = schedule(&mut Rng::new(9, 3), 4000.0, 2.0, &mut targets);
        let colds: Vec<&Planned> = plan.iter().filter(|p| p.target >= targets.pool).collect();
        let share = colds.len() as f64 / plan.len() as f64;
        // One arrival in eight is cold and half of those come twice:
        // (1.5 / 8) / (7 / 8 + 1.5 / 8) ≈ 0.176 of the plan.
        assert!((0.15..0.21).contains(&share), "{share}");
        let mut by_target: HashMap<usize, Vec<&Planned>> = HashMap::new();
        for p in &colds {
            by_target.entry(p.target).or_default().push(p);
        }
        let pairs: Vec<&Vec<&Planned>> = by_target.values().filter(|v| v.len() == 2).collect();
        assert!(!pairs.is_empty());
        for pair in pairs {
            assert_ne!(pair[0].conn, pair[1].conn);
            let gap = pair[1].due.abs_diff(pair[0].due);
            assert!(gap <= DUPLICATE_WITHIN, "{gap:?}");
        }
        assert!(by_target.values().all(|v| v.len() <= 2));
    }

    #[test]
    fn random_configs_cover_every_family() {
        let mut rng = Rng::new(3, 0);
        let mut plans = std::collections::BTreeSet::new();
        for _ in 0..500 {
            plans.insert(layers::plan_of(&random_config(&mut rng)));
        }
        assert_eq!(plans.len(), 11, "{plans:?}");
        assert!(!plans.contains("scalar"));
    }
}

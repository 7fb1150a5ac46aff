//! Tracked serve-layer load measurement behind `BENCH_serve.json`.
//!
//! Starts an in-process `bpred-serve` instance on a scratch result
//! store, drives it with a multi-client load generator over real
//! sockets, and records p50/p99 request latency and sustained RPS
//! per scenario:
//!
//! ```text
//! cargo run --release -p bpred-bench --bin bench_serve -- [out.json] [--quick]
//! # scripts/bench_serve.sh wraps this and writes BENCH_serve.json
//! ```
//!
//! Scenarios are the cross product of client mode × concurrency:
//!
//! - `keepalive` — each client holds one connection and pipes every
//!   request through it (HTTP/1.1 reuse, the cheap path).
//! - `oneshot` — each client opens a fresh connection per request
//!   with `Connection: close` (the worst-case path).
//!
//! Each scenario runs [`LOAD_RUNS`] times (two under `--quick`), the
//! scenarios interleaved run by run. A row records the median over its
//! runs of `rps`, `p50_ms` and `p99_ms`, each with its quartiles
//! (`rps_q1`, `rps_q3`, ...); `requests` counts one run's requests
//! and `sheds` all runs'. `scripts/bench_serve.sh` pins the process to
//! one CPU where `taskset` exists.
//!
//! Requests mix store hits and cold misses: the warm pool is primed
//! before measurement, and every eighth request targets a
//! never-seen seed so the engine stays in the loop.
//!
//! **Bit-identity is asserted before any number is written**: the
//! expected body of every distinct sweep is computed directly with
//! [`run_configs_keyed`] (uncached) and rendered through the same
//! [`sweep_body`] serializer the server uses; every single response
//! must match its expected body byte-for-byte or the bench fails.

use std::fmt::Write as _;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

use bpred_bench::rustc_version;
use bpred_serve::json::escape;
use bpred_serve::server::{Server, ServerConfig};
use bpred_serve::service::{sweep_body, SweepRequest};
use bpred_serve::store::StoreOptions;
use bpred_sim::cache::run_configs_keyed;
use bpred_sim::Simulator;
use bpred_workloads::{suite, WorkloadSource};

/// Runs of each load scenario outside `--quick`. One run swung 2–3×
/// between back-to-back invocations of the same binary, so a row
/// reports the median of several with its quartiles.
const LOAD_RUNS: usize = 5;

/// One run of one load scenario.
struct Measurement {
    requests: usize,
    sheds: u64,
    rps: f64,
    p50_ms: f64,
    p99_ms: f64,
}

/// `(q1, median, q3)` of `values`, interpolating between ranks.
fn quartiles(mut values: Vec<f64>) -> (f64, f64, f64) {
    values.sort_by(|a, b| a.partial_cmp(b).expect("finite measurements"));
    let at = |p: f64| {
        let pos = (values.len() - 1) as f64 * p;
        let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
        values[lo] + (values[hi] - values[lo]) * (pos - lo as f64)
    };
    (at(0.25), at(0.5), at(0.75))
}

/// A sweep target: its request path and the expected body bytes.
#[derive(Clone)]
struct Target {
    path: String,
    expected: Arc<Vec<u8>>,
}

fn sweep_path(workload: &str, seed: u64, branches: usize, configs: &str) -> String {
    format!("/sweep?workload={workload}&seed={seed}&branches={branches}&configs={configs}")
}

/// Computes the expected response body for `path` straight through
/// the engine — no store, no server — using the same serializer the
/// service uses.
fn expected_body(path: &str) -> Vec<u8> {
    let query = path.split_once('?').expect("sweep path has a query").1;
    let request = SweepRequest::parse(query).expect("bench paths parse");
    let model = suite::by_name(&request.workload).expect("bench workload exists");
    let source = match request.branches {
        Some(n) => WorkloadSource::with_length(model, request.seed, n),
        None => WorkloadSource::new(model, request.seed),
    };
    let simulator = Simulator::with_warmup(request.warmup);
    // source_id None: plain uncached run_batched under the hood.
    let results = run_configs_keyed(&request.configs, &source, simulator, None);
    sweep_body(
        &request,
        source.conditionals(),
        &source.cache_id(),
        &results,
    )
    .into_bytes()
}

/// One HTTP exchange on an open stream. Returns (status, body);
/// `keep_alive` controls the request's Connection header.
fn exchange(stream: &mut BufReader<TcpStream>, path: &str, keep_alive: bool) -> (u16, Vec<u8>) {
    let connection = if keep_alive { "keep-alive" } else { "close" };
    write!(
        stream.get_mut(),
        "GET {path} HTTP/1.1\r\nHost: bench\r\nConnection: {connection}\r\n\r\n"
    )
    .expect("send request");

    let mut status_line = String::new();
    stream.read_line(&mut status_line).expect("status line");
    let status: u16 = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("malformed status line {status_line:?}"));

    let mut content_length = 0usize;
    loop {
        let mut line = String::new();
        stream.read_line(&mut line).expect("header line");
        let line = line.trim_end();
        if line.is_empty() {
            break;
        }
        if let Some((name, value)) = line.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value.trim().parse().expect("numeric content-length");
            }
        }
    }
    let mut body = vec![0u8; content_length];
    stream.read_exact(&mut body).expect("body");
    (status, body)
}

/// Issues one request in the given mode, retrying sheds (429) until
/// it lands. Returns (latency of the successful attempt, sheds seen).
fn request(
    addr: SocketAddr,
    conn: &mut Option<BufReader<TcpStream>>,
    target: &Target,
    keep_alive: bool,
) -> (Duration, u64) {
    let mut sheds = 0u64;
    loop {
        if conn.is_none() {
            let stream = TcpStream::connect(addr).expect("connect");
            stream.set_nodelay(true).expect("nodelay");
            *conn = Some(BufReader::new(stream));
        }
        let start = Instant::now();
        let (status, body) = exchange(
            conn.as_mut().expect("just opened"),
            &target.path,
            keep_alive,
        );
        let latency = start.elapsed();
        if !keep_alive {
            *conn = None;
        }
        match status {
            200 => {
                assert_eq!(
                    &body,
                    target.expected.as_ref(),
                    "response for {} diverged from the direct engine result",
                    target.path
                );
                return (latency, sheds);
            }
            429 => {
                sheds += 1;
                assert!(sheds < 1000, "server shed {} forever", target.path);
                std::thread::sleep(Duration::from_millis(5));
            }
            other => panic!("unexpected status {other} for {}", target.path),
        }
    }
}

/// Runs one scenario: `concurrency` clients × `per_client` requests.
#[allow(clippy::too_many_arguments)]
fn run_scenario(
    addr: SocketAddr,
    mode: &'static str,
    concurrency: usize,
    per_client: usize,
    warm: &[Target],
    cold: &mut Vec<Target>,
) -> Measurement {
    let keep_alive = mode == "keepalive";
    let started = Instant::now();
    let mut handles = Vec::new();
    for client in 0..concurrency {
        let warm: Vec<Target> = warm.to_vec();
        // Every eighth request is a never-before-seen sweep.
        let cold_count = per_client.div_ceil(8);
        let cold: Vec<Target> = (0..cold_count)
            .map(|_| cold.pop().expect("enough cold targets prepared"))
            .collect();
        handles.push(std::thread::spawn(move || {
            let mut conn: Option<BufReader<TcpStream>> = None;
            let mut latencies = Vec::with_capacity(per_client);
            let mut sheds = 0u64;
            let mut cold = cold.into_iter();
            for i in 0..per_client {
                let target = if i % 8 == 7 {
                    cold.next().expect("sized above")
                } else {
                    warm[(i + client) % warm.len()].clone()
                };
                let (latency, shed) = request(addr, &mut conn, &target, keep_alive);
                latencies.push(latency.as_secs_f64() * 1e3);
                sheds += shed;
            }
            (latencies, sheds)
        }));
    }
    let mut latencies: Vec<f64> = Vec::new();
    let mut sheds = 0u64;
    for handle in handles {
        let (client_latencies, client_sheds) = handle.join().expect("client thread survived");
        latencies.extend(client_latencies);
        sheds += client_sheds;
    }
    let elapsed = started.elapsed().as_secs_f64();
    latencies.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
    let percentile = |p: f64| -> f64 {
        let idx = ((latencies.len() as f64 - 1.0) * p).round() as usize;
        latencies[idx]
    };
    Measurement {
        requests: latencies.len(),
        sheds,
        rps: latencies.len() as f64 / elapsed,
        p50_ms: percentile(0.50),
        p99_ms: percentile(0.99),
    }
}

/// One store-tier scenario's measured numbers.
struct StorePass {
    scenario: &'static str,
    requests: usize,
    p50_ms: f64,
    p99_ms: f64,
}

/// Drives every target `repeats` times over one keep-alive
/// connection and returns the percentiles of the per-request
/// latencies (bit-identity asserted inside [`request`]).
fn store_pass(
    addr: SocketAddr,
    scenario: &'static str,
    targets: &[Target],
    repeats: usize,
) -> StorePass {
    let mut conn: Option<BufReader<TcpStream>> = None;
    let mut latencies = Vec::with_capacity(targets.len() * repeats);
    for _ in 0..repeats {
        for target in targets {
            let (latency, _) = request(addr, &mut conn, target, true);
            latencies.push(latency.as_secs_f64() * 1e3);
        }
    }
    latencies.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
    let percentile = |p: f64| latencies[((latencies.len() as f64 - 1.0) * p).round() as usize];
    StorePass {
        scenario,
        requests: latencies.len(),
        p50_ms: percentile(0.50),
        p99_ms: percentile(0.99),
    }
}

fn start_node(cache_dir: &std::path::Path, options: StoreOptions) -> bpred_serve::ServerHandle {
    let _ = std::fs::remove_dir_all(cache_dir);
    Server::start(ServerConfig {
        addr: "127.0.0.1:0".to_owned(),
        cache_dir: Some(cache_dir.to_path_buf()),
        store: options,
        ..ServerConfig::default()
    })
    .expect("store-bench node starts")
}

/// Store-tier comparison: cold compute into pack segments, repeat
/// hits served by the hot tier, and the same repeats served from pack
/// segments by a node with no hot tier.
fn run_store_scenarios(
    warm: &[Target],
    repeats: usize,
    scratch: &std::path::Path,
) -> Vec<StorePass> {
    let mut passes = Vec::new();

    // First pass computes every cell (cold), repeat passes must be
    // answered from the in-memory hot tier.
    let packed_dir = scratch.join("packed");
    let packed = start_node(&packed_dir, StoreOptions::default());
    passes.push(store_pass(packed.addr(), "pack_cold", warm, 1));
    passes.push(store_pass(packed.addr(), "hot_warm", warm, repeats));
    packed.shutdown();

    // Pack warm: with the hot tier off, every repeat is read from the
    // segments the first (unrecorded) pass wrote.
    let pack_dir = scratch.join("pack-only");
    let pack_node = start_node(
        &pack_dir,
        StoreOptions {
            hot_bytes: 0,
            ..StoreOptions::default()
        },
    );
    store_pass(pack_node.addr(), "pack_fill", warm, 1);
    passes.push(store_pass(pack_node.addr(), "pack_warm", warm, repeats));
    let stats = pack_node.store().expect("node has a store").stats();
    assert_eq!(stats.hot_hits.load(std::sync::atomic::Ordering::Relaxed), 0);
    assert!(
        stats.pack_hits.load(std::sync::atomic::Ordering::Relaxed) >= (warm.len() * repeats) as u64,
        "pack_warm repeats are answered from pack segments"
    );
    pack_node.shutdown();

    let _ = std::fs::remove_dir_all(scratch);
    passes
}

fn main() -> ExitCode {
    let mut out_path = "BENCH_serve.json".to_owned();
    let mut quick = false;
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--quick" => quick = true,
            "--help" | "-h" => {
                eprintln!("usage: bench_serve [out.json] [--quick]");
                return ExitCode::SUCCESS;
            }
            path => out_path = path.to_owned(),
        }
    }
    // Pin engine threads so the artifact measures the serve layer,
    // not the machine's core count.
    if std::env::var_os("BPRED_THREADS").is_none() {
        std::env::set_var("BPRED_THREADS", "1");
    }

    let (branches, per_client, concurrencies): (usize, usize, [usize; 2]) = if quick {
        (5_000, 16, [2, 4])
    } else {
        (20_000, 48, [2, 8])
    };
    let workload = "espresso";
    let configs = "gshare:h=8,c=2;gshare:h=10,c=2;gas:h=8,c=2;bimodal:a=10";
    let configs_per_request = 4;

    // Distinct sweeps: a warm pool primed before measurement plus a
    // disjoint cold stream (unique seeds) drawn during it.
    let warm_paths: Vec<String> = (1..=4u64)
        .map(|seed| sweep_path(workload, seed, branches, configs))
        .collect();
    let runs = if quick { 2 } else { LOAD_RUNS };
    let scenario_runs = 2 * concurrencies.len() * runs;
    let cold_needed = scenario_runs * concurrencies.iter().max().unwrap() * per_client.div_ceil(8);
    let cold_paths: Vec<String> = (1000..1000 + cold_needed as u64)
        .map(|seed| sweep_path(workload, seed, branches, configs))
        .collect();

    eprintln!(
        "computing {} expected bodies directly through the engine…",
        warm_paths.len() + cold_paths.len()
    );
    let body_of = |path: &String| Target {
        path: path.clone(),
        expected: Arc::new(expected_body(path)),
    };
    let warm: Vec<Target> = warm_paths.iter().map(body_of).collect();
    let mut cold: Vec<Target> = cold_paths.iter().map(body_of).collect();

    let cache_dir = std::env::temp_dir().join(format!("bpred-bench-serve-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&cache_dir);
    let server = match Server::start(ServerConfig {
        addr: "127.0.0.1:0".to_owned(),
        cache_dir: Some(cache_dir.clone()),
        ..ServerConfig::default()
    }) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("cannot start server: {e}");
            return ExitCode::FAILURE;
        }
    };
    let addr = server.addr();

    // Prime the warm pool (and verify it cold, once).
    {
        let mut conn = None;
        for target in &warm {
            request(addr, &mut conn, target, true);
        }
    }

    let scenarios: Vec<(&'static str, usize)> = ["keepalive", "oneshot"]
        .into_iter()
        .flat_map(|mode| concurrencies.map(|c| (mode, c)))
        .collect();
    let mut measurements: Vec<Vec<Measurement>> = scenarios.iter().map(|_| Vec::new()).collect();
    for run in 1..=runs {
        for (&(mode, concurrency), runs_of) in scenarios.iter().zip(&mut measurements) {
            let m = run_scenario(addr, mode, concurrency, per_client, &warm, &mut cold);
            eprintln!(
                "run {run} {mode:<10} c={concurrency:<2} {:>4} reqs  {:>7.1} rps  p50 {:>7.2} ms  p99 {:>7.2} ms  sheds {}",
                m.requests, m.rps, m.p50_ms, m.p99_ms, m.sheds
            );
            runs_of.push(m);
        }
    }

    server.shutdown();
    let _ = std::fs::remove_dir_all(&cache_dir);

    // Store-tier comparison on the warm pool: cold pack writes, hot
    // repeats and pack repeats.
    let store_scratch =
        std::env::temp_dir().join(format!("bpred-bench-store-{}", std::process::id()));
    let store_repeats = if quick { 8 } else { 32 };
    let store_passes = run_store_scenarios(&warm, store_repeats, &store_scratch);
    for pass in &store_passes {
        eprintln!(
            "store {:<10} {:>4} reqs  p50 {:>7.3} ms  p99 {:>7.3} ms",
            pass.scenario, pass.requests, pass.p50_ms, pass.p99_ms
        );
    }

    let mut json = String::new();
    let _ = writeln!(json, "{{");
    let _ = writeln!(json, "  \"bench\": \"serve_latency\",");
    let _ = writeln!(json, "  \"workload\": \"{workload}\",");
    let _ = writeln!(json, "  \"branches\": {branches},");
    let _ = writeln!(json, "  \"configs_per_request\": {configs_per_request},");
    let _ = writeln!(json, "  \"requests_per_client\": {per_client},");
    let _ = writeln!(json, "  \"runs\": {runs},");
    let _ = writeln!(json, "  \"cold_every\": 8,");
    let _ = writeln!(json, "  \"bit_identity_asserted\": true,");
    let _ = writeln!(json, "  \"rustc\": \"{}\",", escape(&rustc_version()));
    let _ = writeln!(
        json,
        "  \"profile\": \"{}\",",
        if cfg!(debug_assertions) {
            "dev"
        } else {
            "release"
        }
    );
    let _ = writeln!(
        json,
        "  \"threads\": \"{}\",",
        escape(&std::env::var("BPRED_THREADS").unwrap_or_default())
    );
    let _ = writeln!(json, "  \"scenarios\": [");
    for (i, (&(mode, concurrency), runs_of)) in scenarios.iter().zip(&measurements).enumerate() {
        let comma = if i + 1 == scenarios.len() { "" } else { "," };
        let requests = runs_of[0].requests;
        let sheds: u64 = runs_of.iter().map(|m| m.sheds).sum();
        let _ = write!(
            json,
            "    {{\"mode\": \"{mode}\", \"concurrency\": {concurrency}, \"requests\": {requests}, \"sheds\": {sheds}"
        );
        let over_runs = |get: fn(&Measurement) -> f64| quartiles(runs_of.iter().map(get).collect());
        for (name, (q1, median, q3), digits) in [
            ("rps", over_runs(|m| m.rps), 1),
            ("p50_ms", over_runs(|m| m.p50_ms), 3),
            ("p99_ms", over_runs(|m| m.p99_ms), 3),
        ] {
            let _ = write!(
                json,
                ", \"{name}\": {median:.digits$}, \"{name}_q1\": {q1:.digits$}, \"{name}_q3\": {q3:.digits$}"
            );
        }
        let _ = writeln!(json, "}}{comma}");
    }
    let _ = writeln!(json, "  ],");
    let _ = writeln!(json, "  \"store\": {{");
    let _ = writeln!(json, "    \"warm_repeats\": {store_repeats},");
    let _ = writeln!(json, "    \"scenarios\": [");
    for (i, pass) in store_passes.iter().enumerate() {
        let comma = if i + 1 == store_passes.len() { "" } else { "," };
        let _ = writeln!(
            json,
            "      {{\"scenario\": \"{}\", \"requests\": {}, \"p50_ms\": {:.3}, \"p99_ms\": {:.3}}}{comma}",
            pass.scenario, pass.requests, pass.p50_ms, pass.p99_ms
        );
    }
    let _ = writeln!(json, "    ]");
    let _ = writeln!(json, "  }}");
    let _ = writeln!(json, "}}");

    if let Err(e) = std::fs::write(&out_path, &json) {
        eprintln!("cannot write {out_path}: {e}");
        return ExitCode::FAILURE;
    }
    println!("{out_path}");
    ExitCode::SUCCESS
}

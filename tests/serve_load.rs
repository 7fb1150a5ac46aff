//! Concurrency and saturation tests for the event-driven serve
//! layer: keep-alive clients with pipelined sweeps must all get
//! bit-identical correct bodies, a saturated compute queue must shed
//! with `429 + Retry-After` while in-flight work completes, and the
//! striped store index must survive concurrent hit/miss storms.

use std::fs;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use bpred_serve::server::{Server, ServerConfig};
use bpred_serve::service::{sweep_body, SweepRequest, SweepService};
use bpred_serve::store::{ResultStore, StoreOptions};
use bpred_serve::Metrics;
use bpred_sim::cache::run_configs_keyed;
use bpred_sim::Simulator;
use bpred_workloads::{suite, WorkloadSource};

use proptest::prelude::*;

/// A fresh scratch directory unique to `tag` (and this process),
/// cleaned before use so reruns start empty, and removed on drop.
fn scratch(tag: &str) -> Scratch {
    let dir = std::env::temp_dir()
        .join("bpred-serve-load")
        .join(format!("{}-{tag}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    Scratch(dir)
}

/// A scratch directory, removed with its contents when dropped.
struct Scratch(PathBuf);

impl std::ops::Deref for Scratch {
    type Target = Path;

    fn deref(&self) -> &Path {
        &self.0
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

/// Reads one response from a keep-alive stream: (status, headers,
/// body), framed by Content-Length.
fn read_response(stream: &mut BufReader<TcpStream>) -> (u16, Vec<String>, Vec<u8>) {
    let mut status_line = String::new();
    stream.read_line(&mut status_line).expect("status line");
    let status: u16 = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("malformed status line {status_line:?}"));
    let mut headers = Vec::new();
    let mut content_length = 0usize;
    loop {
        let mut line = String::new();
        stream.read_line(&mut line).expect("header");
        let line = line.trim_end().to_owned();
        if line.is_empty() {
            break;
        }
        if let Some((name, value)) = line.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value.trim().parse().expect("numeric length");
            }
        }
        headers.push(line);
    }
    let mut body = vec![0u8; content_length];
    stream.read_exact(&mut body).expect("body");
    (status, headers, body)
}

/// The expected body for a sweep query, computed directly through
/// the engine with the service's own serializer.
fn expected_body(query: &str) -> Vec<u8> {
    let request = SweepRequest::parse(query).expect("test query parses");
    let model = suite::by_name(&request.workload).expect("workload exists");
    let source = match request.branches {
        Some(n) => WorkloadSource::with_length(model, request.seed, n),
        None => WorkloadSource::new(model, request.seed),
    };
    let simulator = Simulator::with_warmup(request.warmup);
    let results = run_configs_keyed(&request.configs, &source, simulator, None);
    sweep_body(
        &request,
        source.conditionals(),
        &source.cache_id(),
        &results,
    )
    .into_bytes()
}

#[test]
fn keepalive_clients_pipelining_sweeps_get_bit_identical_bodies() {
    let dir = scratch("pipeline");
    let server = Server::start(ServerConfig {
        addr: "127.0.0.1:0".to_owned(),
        cache_dir: Some(dir.to_path_buf()),
        ..ServerConfig::default()
    })
    .expect("server starts");
    let addr = server.addr();

    // 4 distinct sweeps, pipelined by every client in its own order.
    let queries: Vec<String> = (1..=4u64)
        .map(|seed| {
            format!(
                "workload=espresso&seed={seed}&branches=4000&configs=gshare:h=6,c=2;gas:h=6,c=2"
            )
        })
        .collect();
    let expected: Arc<Vec<Vec<u8>>> = Arc::new(queries.iter().map(|q| expected_body(q)).collect());

    let n_clients = 6;
    let rounds = 3;
    let mut handles = Vec::new();
    for client in 0..n_clients {
        let queries = queries.clone();
        let expected = expected.clone();
        handles.push(thread::spawn(move || {
            let stream = TcpStream::connect(addr).expect("connect");
            stream.set_nodelay(true).unwrap();
            let mut reader = BufReader::new(stream);
            // Pipeline: write every request of the round before
            // reading any response, rotated per client.
            for round in 0..rounds {
                let order: Vec<usize> = (0..queries.len())
                    .map(|i| (i + client + round) % queries.len())
                    .collect();
                for &i in &order {
                    write!(
                        reader.get_mut(),
                        "GET /sweep?{} HTTP/1.1\r\nHost: t\r\n\r\n",
                        queries[i]
                    )
                    .expect("pipelined send");
                }
                for &i in &order {
                    let (status, _, body) = read_response(&mut reader);
                    assert_eq!(status, 200, "client {client} round {round}");
                    assert_eq!(
                        body, expected[i],
                        "client {client} sweep {i}: body diverged from the direct engine result"
                    );
                }
            }
        }));
    }
    for handle in handles {
        handle.join().expect("client survived");
    }

    // Single-flight + store: each of the 4 distinct sweeps simulated
    // its cells at most a handful of times (hits + coalescing soak up
    // the other 6×3−1 repetitions each).
    let metrics = server.metrics();
    assert_eq!(
        metrics.status_count(200),
        (n_clients * rounds * queries.len()) as u64
    );
    server.shutdown();
}

#[test]
fn saturation_sheds_with_retry_after_while_inflight_completes() {
    // One worker, a queue of one: the third concurrent sweep MUST be
    // shed. Distinct heavy sweeps so nothing coalesces or hits.
    let server = Server::start(ServerConfig {
        addr: "127.0.0.1:0".to_owned(),
        shards: 1,
        workers: 1,
        queue_depth: 1,
        cache_dir: None,
        max_branches: 2_000_000,
        ..ServerConfig::default()
    })
    .expect("server starts");
    let addr = server.addr();

    // Heavy enough to hold the lone worker for a while on one core.
    let configs: Vec<String> = (2..10)
        .flat_map(|h| (1..=4).map(move |c| format!("gshare:h={h},c={c}")))
        .collect();
    let target = |seed: u64| {
        format!(
            "/sweep?workload=espresso&seed={seed}&branches=400000&configs={}",
            configs.join(";")
        )
    };

    let n_clients = 6u64;
    let mut handles = Vec::new();
    for seed in 0..n_clients {
        let target = target(seed + 1);
        handles.push(thread::spawn(move || {
            let mut stream = TcpStream::connect(addr).expect("connect");
            write!(
                stream,
                "GET {target} HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n"
            )
            .expect("send");
            let mut response = Vec::new();
            stream.read_to_end(&mut response).expect("read");
            let head_end = response
                .windows(4)
                .position(|w| w == b"\r\n\r\n")
                .expect("boundary");
            let head = String::from_utf8_lossy(&response[..head_end]).to_string();
            let status: u16 = head
                .lines()
                .next()
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|s| s.parse().ok())
                .expect("status");
            (status, head, response[head_end + 4..].to_vec())
        }));
    }

    let mut ok = 0u32;
    let mut shed = 0u32;
    for handle in handles {
        let (status, head, body) = handle.join().expect("client survived");
        match status {
            200 => {
                ok += 1;
                assert!(body.starts_with(b"{\"workload\":\"espresso\""));
            }
            429 => {
                shed += 1;
                let retry_after = head
                    .lines()
                    .find(|l| l.to_ascii_lowercase().starts_with("retry-after:"))
                    .expect("429 carries Retry-After");
                let seconds: u64 = retry_after
                    .split_once(':')
                    .expect("header value")
                    .1
                    .trim()
                    .parse()
                    .expect("numeric Retry-After");
                assert!(seconds >= 1);
            }
            other => panic!("unexpected status {other}: {head}"),
        }
    }
    // With 6 near-simultaneous heavy sweeps against one worker and a
    // queue of one, at least one is shed — and everything the server
    // accepted completes with a full correct body despite the sheds
    // (whether 1 or 2 get in depends on when the worker dequeues).
    assert!(shed >= 1, "saturation must shed ({ok} ok, {shed} shed)");
    assert!(ok >= 1, "in-flight sweeps complete ({ok} ok)");
    assert_eq!(ok + shed, n_clients as u32);

    let metrics = server.metrics();
    assert_eq!(metrics.status_count(429), u64::from(shed));
    assert!(
        metrics
            .shed_total
            .load(std::sync::atomic::Ordering::Relaxed)
            >= u64::from(shed)
    );
    server.shutdown();
}

#[test]
fn shed_connection_stays_usable_for_the_retry() {
    // A keep-alive client whose sweep is shed retries on the same
    // connection and eventually succeeds.
    let server = Server::start(ServerConfig {
        addr: "127.0.0.1:0".to_owned(),
        shards: 1,
        workers: 1,
        queue_depth: 1,
        cache_dir: None,
        max_branches: 2_000_000,
        ..ServerConfig::default()
    })
    .expect("server starts");
    let addr = server.addr();

    // Fill the worker and the queue with slow sweeps.
    let occupy: Vec<thread::JoinHandle<()>> = (0..2)
        .map(|seed| {
            thread::spawn(move || {
                let mut stream = TcpStream::connect(addr).expect("connect");
                write!(
                    stream,
                    "GET /sweep?workload=espresso&seed={}&branches=400000&configs=gshare:h=9,c=4;gshare:h=8,c=4;gshare:h=7,c=4;gshare:h=6,c=4 HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n",
                    100 + seed
                )
                .expect("send");
                let mut sink = Vec::new();
                let _ = stream.read_to_end(&mut sink);
            })
        })
        .collect();
    thread::sleep(Duration::from_millis(50));

    let stream = TcpStream::connect(addr).expect("connect");
    let mut reader = BufReader::new(stream);
    let query = "workload=espresso&seed=7&branches=2000&configs=gshare:h=5,c=2";
    let want = expected_body(query);
    let mut sheds = 0u32;
    loop {
        write!(
            reader.get_mut(),
            "GET /sweep?{query} HTTP/1.1\r\nHost: t\r\n\r\n"
        )
        .expect("send");
        let (status, _, body) = read_response(&mut reader);
        match status {
            200 => {
                assert_eq!(body, want, "retried sweep is bit-identical");
                break;
            }
            429 => {
                sheds += 1;
                assert!(sheds < 2000, "never admitted");
                thread::sleep(Duration::from_millis(10));
            }
            other => panic!("unexpected status {other}"),
        }
    }
    for h in occupy {
        h.join().expect("occupier survived");
    }
    server.shutdown();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Concurrent hit/miss storms of sweeps over arbitrary key sets,
    /// through one service and its shared store (probe, single-flight,
    /// put), leave the tiered store exactly consistent with the
    /// objects — with the seal threshold squeezed so segments roll
    /// over mid-storm, and the hot tier ranging from disabled through
    /// tiny (evicting constantly) to roomy.
    #[test]
    fn striped_index_survives_concurrent_storms(
        seeds in proptest::collection::vec(0u64..50, 4..24),
        threads in 2usize..6,
        hot_bytes in prop_oneof![Just(0u64), Just(1u64 << 10), Just(1u64 << 20)],
    ) {
        let dir = scratch(&format!("storm-{threads}-{}-{hot_bytes}", seeds.len()));
        let options = StoreOptions {
            hot_bytes,
            // ~2 cells per segment: every storm crosses many seals.
            seal_bytes: 512,
            peers: None,
        };
        let store = Arc::new(ResultStore::open_with(&*dir, options.clone()).expect("open"));
        let service = Arc::new(SweepService::new(
            Some(store.clone()),
            Arc::new(Metrics::new()),
            ServerConfig::default().max_branches,
        ));

        // Every thread walks the whole key set: first toucher of a
        // key computes (miss), racers coalesce, repeats hit.
        let mut handles = Vec::new();
        for t in 0..threads {
            let service = service.clone();
            let seeds = seeds.clone();
            handles.push(thread::spawn(move || {
                for i in 0..seeds.len() {
                    // Rotate the walk per thread to maximise distinct
                    // concurrent keys (stripe spread).
                    let seed = seeds[(i + t) % seeds.len()];
                    let query =
                        format!("workload=espresso&seed={seed}&branches=500&configs=gshare:h=5,c=2");
                    let request = SweepRequest::parse(&query).expect("storm query parses");
                    let (body, _) = service.execute(&request).expect("storm sweep answers");
                    // Every observer sees the same deterministic cell.
                    let direct = expected_body(&query);
                    assert_eq!(body.into_bytes(), direct);
                }
            }));
        }
        for h in handles {
            h.join().expect("storm thread survived");
        }

        // The tiers agree with each other and with a fresh reopen
        // (segment rescan): distinct seeds → distinct digests, each
        // exactly once, regardless of how many seals and hot-tier
        // evictions the storm crossed.
        let distinct: std::collections::HashSet<u64> = seeds.iter().copied().collect();
        prop_assert_eq!(store.len(), distinct.len());
        prop_assert!(store.segments() >= 1);
        if hot_bytes == 0 {
            prop_assert_eq!(store.hot_len(), 0, "disabled hot tier stays empty");
        }
        let reopened = ResultStore::open_with(&*dir, options).expect("reopen");
        prop_assert_eq!(reopened.len(), store.len());
        prop_assert_eq!(reopened.total_bytes(), store.total_bytes());
    }
}

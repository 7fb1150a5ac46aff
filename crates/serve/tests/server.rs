//! End-to-end server tests over real sockets: routing, cache-hit
//! behaviour (bit-identical repeats without re-simulation), and
//! concurrent clients.

use std::fs;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::mpsc;
use std::thread;

use bpred_serve::server::{Server, ServerConfig, ServerHandle};
use bpred_serve::store::StoreOptions;
use bpred_serve::PeerSet;

/// A fresh scratch directory unique to `tag` (and this process),
/// cleaned before use so reruns start empty, and removed on drop.
fn scratch(tag: &str) -> Scratch {
    let dir = std::env::temp_dir()
        .join("bpred-serve-e2e")
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

fn start(cache: Option<&Path>) -> ServerHandle {
    Server::start(ServerConfig {
        addr: "127.0.0.1:0".to_owned(),
        workers: 4,
        cache_dir: cache.map(Path::to_path_buf),
        max_branches: 2_000_000,
        ..ServerConfig::default()
    })
    .expect("server starts")
}

/// One HTTP exchange over a fresh connection; returns (status line,
/// headers, body). Reads to EOF — the server closes per request.
fn get(addr: SocketAddr, target: &str) -> (String, Vec<String>, Vec<u8>) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    write!(
        stream,
        "GET {target} HTTP/1.1\r\nHost: localhost\r\nConnection: close\r\n\r\n"
    )
    .expect("send request");
    let mut response = Vec::new();
    stream.read_to_end(&mut response).expect("read response");
    let split = response
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .expect("response has a header/body boundary");
    let head = String::from_utf8(response[..split].to_vec()).expect("ASCII head");
    let body = response[split + 4..].to_vec();
    let mut lines = head.lines();
    let status = lines.next().expect("status line").to_owned();
    (status, lines.map(str::to_owned).collect(), body)
}

fn header<'a>(headers: &'a [String], name: &str) -> Option<&'a str> {
    headers.iter().find_map(|h| {
        let (n, v) = h.split_once(':')?;
        n.eq_ignore_ascii_case(name).then(|| v.trim())
    })
}

/// Scrapes one counter value from the Prometheus exposition.
fn metric(addr: SocketAddr, name: &str) -> u64 {
    let (status, _, body) = get(addr, "/metrics");
    assert!(status.contains("200"), "metrics endpoint healthy");
    let text = String::from_utf8(body).expect("metrics are UTF-8");
    text.lines()
        .find(|l| l.starts_with(name) && l.as_bytes().get(name.len()) == Some(&b' '))
        .unwrap_or_else(|| panic!("metric {name} missing"))
        .rsplit(' ')
        .next()
        .unwrap()
        .parse()
        .unwrap_or_else(|_| panic!("metric {name} is not an integer"))
}

const SWEEP: &str =
    "/sweep?workload=espresso&branches=20000&configs=gshare:h=7,c=2;gas:h=7,c=2;bimodal:a=9";

#[test]
fn healthz_and_unknown_routes() {
    let server = start(None);
    let addr = server.addr();

    let (status, _, body) = get(addr, "/healthz");
    assert!(status.contains("200"), "got {status}");
    assert_eq!(body, b"ok\n");

    let (status, _, _) = get(addr, "/nope");
    assert!(status.contains("404"), "got {status}");

    let (status, _, body) = get(addr, "/sweep?workload=espresso");
    assert!(status.contains("400"), "got {status}");
    assert!(String::from_utf8_lossy(&body).contains("configs"));

    server.shutdown();
}

#[test]
fn repeated_sweep_hits_the_cache_bit_identically() {
    let dir = scratch("repeat");
    let server = start(Some(&dir));
    let addr = server.addr();

    // Cold: everything simulates.
    let (status, headers, cold_body) = get(addr, SWEEP);
    assert!(status.contains("200"), "got {status}");
    assert_eq!(
        header(&headers, "X-Bpred-Provenance"),
        Some("hits=0 misses=3 coalesced=0")
    );
    assert_eq!(header(&headers, "Content-Type"), Some("application/json"));
    let misses_after_cold = metric(addr, "bpred_cache_misses_total");
    assert_eq!(misses_after_cold, 3);
    assert_eq!(metric(addr, "bpred_sweeps_inline_total"), 0, "cold: pool");

    // Warm: answered from the store — bit-identical body, miss
    // counter parked.
    let (status, headers, warm_body) = get(addr, SWEEP);
    assert!(status.contains("200"), "got {status}");
    assert_eq!(
        header(&headers, "X-Bpred-Provenance"),
        Some("hits=3 misses=0 coalesced=0")
    );
    assert_eq!(warm_body, cold_body, "cached response is bit-identical");
    assert_eq!(
        metric(addr, "bpred_cache_misses_total"),
        misses_after_cold,
        "no re-simulation on the warm request"
    );
    assert_eq!(metric(addr, "bpred_cache_hits_total"), 3);
    // Answered on the event loop: no batch, nothing queued.
    assert_eq!(metric(addr, "bpred_sweeps_inline_total"), 1);
    assert_eq!(metric(addr, "bpred_batches_total"), 1);
    assert_eq!(metric(addr, "bpred_serve_queue_depth"), 0);
    assert_eq!(metric(addr, "bpred_store_hits_total{tier=\"hot\"}"), 3);
    // Both requests shared one materialisation of the espresso model.
    assert_eq!(metric(addr, "bpred_workload_models_built_total"), 1);

    // The body is real JSON with the cells in request order.
    let text = String::from_utf8(warm_body).expect("JSON is UTF-8");
    assert!(text.starts_with("{\"workload\":\"espresso\""));
    let gshare = text.find("\"gshare:h=7,c=2\"").expect("gshare cell");
    let gas = text.find("\"gas:h=7,c=2\"").expect("gas cell");
    let bimodal = text.find("\"bimodal:a=9\"").expect("bimodal cell");
    assert!(gshare < gas && gas < bimodal);

    server.shutdown();
}

#[test]
fn sweep_without_store_still_answers_consistently() {
    let server = start(None);
    let addr = server.addr();
    let (_, _, a) = get(addr, SWEEP);
    let (_, headers, b) = get(addr, SWEEP);
    assert_eq!(a, b, "deterministic engine, deterministic body");
    // No store: every cell recomputes.
    assert_eq!(
        header(&headers, "X-Bpred-Provenance"),
        Some("hits=0 misses=3 coalesced=0")
    );
    server.shutdown();
}

#[test]
fn oversize_configs_get_400_and_leave_every_worker_alive() {
    let server = start(None);
    let addr = server.addr();
    // More bad sweeps than the four compute workers: had any of them
    // reached a worker and panicked there, the valid sweep below
    // would never be answered.
    for bad in [
        "gshare:h=40",
        "gas:h=20,c=11",
        "yags:k=31",
        "gskew:h=8,b=25",
    ] {
        for _ in 0..2 {
            let (status, _, body) = get(addr, &format!("/sweep?workload=espresso&configs={bad}"));
            assert!(status.contains("400"), "{bad}: got {status}");
            let reason = String::from_utf8_lossy(&body);
            assert!(reason.contains(bad), "{bad}: {reason}");
        }
    }
    let (status, _, body) = get(addr, SWEEP);
    assert!(status.contains("200"), "got {status}");
    assert!(String::from_utf8_lossy(&body).contains("\"cells\""));
    assert_eq!(metric(addr, "bpred_bad_requests_total"), 8);
    server.shutdown();
}

/// Sends `sweep`, which asks for more counters than the per-sweep
/// budget, and requires a 400 that names the budget.
fn assert_over_budget(addr: SocketAddr, sweep: &str) {
    let (status, _, body) = get(addr, sweep);
    assert!(status.contains("400"), "got {status}");
    let reason = String::from_utf8_lossy(&body);
    let budget = bpred_serve::service::MAX_SWEEP_COUNTERS.to_string();
    assert!(reason.contains(&budget), "{reason}");
}

#[test]
fn a_table_over_the_sweep_budget_gets_400_and_builds_nothing() {
    let dir = scratch("budget-one");
    let server = start(Some(&dir));
    let addr = server.addr();
    // One legal table of 2^30 counters: a 4 GiB arena had it run.
    assert_over_budget(addr, "/sweep?workload=espresso&configs=gshare:h=30,c=0");
    assert_eq!(metric(addr, "bpred_workload_models_built_total"), 0);
    assert_eq!(metric(addr, "bpred_cache_misses_total"), 0);
    assert_eq!(metric(addr, "bpred_bad_requests_total"), 1);
    let (status, _, _) = get(addr, SWEEP);
    assert!(status.contains("200"), "got {status}");
    server.shutdown();
}

#[test]
fn legal_tables_that_add_up_past_the_sweep_budget_get_400() {
    let server = start(None);
    let addr = server.addr();
    // Each 3 x 2^21 counters, well inside the budget alone; six of
    // them are past it.
    let configs = ["gskew:h=8,b=21"; 6].join(";");
    assert_over_budget(addr, &format!("/sweep?workload=espresso&configs={configs}"));
    assert_eq!(metric(addr, "bpred_workload_models_built_total"), 0);
    assert_eq!(metric(addr, "bpred_cache_misses_total"), 0);
    server.shutdown();
}

#[test]
fn eight_concurrent_clients_are_served() {
    let dir = scratch("concurrent");
    let server = start(Some(&dir));
    let addr = server.addr();

    // Mixed identical and distinct sweeps, healthz, and metrics —
    // all in flight at once.
    let mut handles = Vec::new();
    for i in 0..8 {
        handles.push(thread::spawn(move || {
            let target = match i % 4 {
                0 | 1 => SWEEP.to_owned(),
                2 => format!(
                    "/sweep?workload=eqntott&branches=10000&configs=gshare:h={},c=2",
                    4 + i
                ),
                _ => "/healthz".to_owned(),
            };
            let (status, _, body) = get(addr, &target);
            assert!(status.contains("200"), "client {i} got {status}");
            assert!(!body.is_empty());
            body
        }));
    }
    let bodies: Vec<Vec<u8>> = handles
        .into_iter()
        .map(|h| h.join().expect("no client panicked"))
        .collect();

    // The identical sweeps agree byte-for-byte regardless of which
    // request simulated and which waited or hit the store.
    assert_eq!(bodies[0], bodies[1]);
    assert_eq!(bodies[0], bodies[4]);
    assert_eq!(bodies[0], bodies[5]);

    // Every cell was answered exactly once by the engine; the rest
    // came from the store or coalesced onto in-flight batches.
    let hits = metric(addr, "bpred_cache_hits_total");
    let misses = metric(addr, "bpred_cache_misses_total");
    let coalesced = metric(addr, "bpred_coalesced_waits_total");
    assert_eq!(metric(addr, "bpred_cells_total"), hits + misses + coalesced);
    // 3 distinct SWEEP cells + 2 distinct eqntott cells.
    assert_eq!(misses, 5, "each distinct cell simulated once");

    server.shutdown();
}

/// Splits a `Connection: close` response read to EOF into its status
/// line and body, asserting it is the only response on the wire.
fn only_response(response: &[u8]) -> (String, Vec<u8>) {
    let text = String::from_utf8_lossy(response);
    assert_eq!(text.matches("HTTP/1.1 ").count(), 1, "one response: {text}");
    let split = response
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .expect("response has a header/body boundary");
    let status = text.lines().next().expect("status line").to_owned();
    (status, response[split + 4..].to_vec())
}

#[test]
fn a_request_written_in_two_parts_is_answered_once() {
    let server = start(None);
    let addr = server.addr();
    let before = metric(addr, "bpred_http_requests_total");

    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .write_all(b"GET /healthz HTTP/1.1\r\nHo")
        .expect("first part");
    thread::sleep(std::time::Duration::from_millis(20));
    stream
        .write_all(b"st: localhost\r\nConnection: close\r\n\r\n")
        .expect("second part");
    let mut response = Vec::new();
    stream.read_to_end(&mut response).expect("read response");
    let (status, body) = only_response(&response);
    assert!(status.contains("200"), "got {status}");
    assert_eq!(body, b"ok\n");

    // The split request and this scrape, nothing else.
    assert_eq!(metric(addr, "bpred_http_requests_total") - before, 2);
    server.shutdown();
}

#[test]
fn a_half_closed_client_still_gets_its_response() {
    let dir = scratch("half-close");
    let server = start(Some(&dir));
    let addr = server.addr();
    // Cold (answered by the pool), then warm (answered on the shard).
    let mut bodies = Vec::new();
    for _ in 0..2 {
        let mut stream = TcpStream::connect(addr).expect("connect");
        write!(stream, "GET {SWEEP} HTTP/1.1\r\nHost: localhost\r\n\r\n").expect("send");
        stream
            .shutdown(std::net::Shutdown::Write)
            .expect("half-close");
        let mut response = Vec::new();
        stream.read_to_end(&mut response).expect("read response");
        let (status, body) = only_response(&response);
        assert!(status.contains("200"), "got {status}");
        bodies.push(body);
    }
    assert_eq!(bodies[0], bodies[1]);
    assert_eq!(metric(addr, "bpred_sweeps_inline_total"), 1);
    server.shutdown();
}

#[test]
fn metrics_exposition_is_well_formed() {
    let server = start(None);
    let addr = server.addr();
    let (_, _, _) = get(addr, "/healthz");
    let (status, _, body) = get(addr, "/metrics");
    assert!(status.contains("200"));
    let text = String::from_utf8(body).expect("UTF-8");
    for series in [
        "bpred_http_requests_total",
        "bpred_sweep_requests_total",
        "bpred_bad_requests_total",
        "bpred_cells_total",
        "bpred_cache_hits_total",
        "bpred_cache_misses_total",
        "bpred_coalesced_waits_total",
        "bpred_batches_total",
        "bpred_inflight_batches",
        "bpred_batch_seconds_bucket{le=\"+Inf\"}",
        "bpred_batch_seconds_sum",
        "bpred_batch_seconds_count",
        "bpred_serve_requests_total{status=\"200\"}",
        "bpred_serve_requests_total{status=\"429\"}",
        "bpred_serve_connections_open",
        "bpred_serve_shed_total",
        "bpred_serve_queue_depth",
    ] {
        assert!(text.contains(series), "missing series {series}");
    }
    server.shutdown();
}

#[test]
fn half_warm_sweep_dispatches_once_and_probes_each_cell_once() {
    let dir = scratch("half-warm");
    let server = start(Some(&dir));
    let addr = server.addr();
    let warm = "/sweep?workload=espresso&branches=20000&configs=gshare:h=7,c=2;gas:h=7,c=2";
    let (status, _, _) = get(addr, warm);
    assert!(status.contains("200"), "got {status}");

    let looked_up = || {
        metric(addr, "bpred_store_hits_total{tier=\"hot\"}")
            + metric(addr, "bpred_store_hits_total{tier=\"pack\"}")
            + metric(addr, "bpred_cache_misses_total")
    };
    let (before, batches, inline) = (
        looked_up(),
        metric(addr, "bpred_batches_total"),
        metric(addr, "bpred_sweeps_inline_total"),
    );
    let half = "/sweep?workload=espresso&branches=20000\
                &configs=gshare:h=7,c=2;bimodal:a=9;gas:h=7,c=2;pas:h=4,c=2";
    let (status, headers, _) = get(addr, half);
    assert!(status.contains("200"), "got {status}");
    assert_eq!(
        header(&headers, "X-Bpred-Provenance"),
        Some("hits=2 misses=2 coalesced=0")
    );
    assert_eq!(looked_up() - before, 4, "one lookup per cell");
    assert_eq!(metric(addr, "bpred_batches_total") - batches, 1);
    assert_eq!(metric(addr, "bpred_sweeps_inline_total"), inline);
    server.shutdown();
}

#[test]
fn restarted_server_builds_its_model_in_the_pool_then_answers_inline() {
    let dir = scratch("restart");
    let first = start(Some(&dir));
    let (_, _, cold_body) = get(first.addr(), SWEEP);
    first.shutdown();

    let server = start(Some(&dir));
    let addr = server.addr();
    let (status, headers, body) = get(addr, SWEEP);
    assert!(status.contains("200"), "got {status}");
    assert_eq!(body, cold_body);
    assert_eq!(
        header(&headers, "X-Bpred-Provenance"),
        Some("hits=3 misses=0 coalesced=0")
    );
    // Every cell was on disk, but the model was not built: the pool
    // built it and answered from the pack tier.
    assert_eq!(metric(addr, "bpred_workload_models_built_total"), 1);
    assert_eq!(metric(addr, "bpred_sweeps_inline_total"), 0);
    assert_eq!(metric(addr, "bpred_store_hits_total{tier=\"pack\"}"), 3);

    let (_, _, again) = get(addr, SWEEP);
    assert_eq!(again, cold_body);
    assert_eq!(metric(addr, "bpred_sweeps_inline_total"), 1);
    assert_eq!(metric(addr, "bpred_store_hits_total{tier=\"hot\"}"), 3);
    assert_eq!(metric(addr, "bpred_workload_models_built_total"), 1);
    server.shutdown();
}

/// A peer that answers nothing until told to: it reports each fetch
/// it accepts on `accepted`, then answers `404` once per message on
/// `release`. A worker fetching from it is held until released. The
/// thread exits once `release` is dropped and one more connection
/// arrives.
fn held_peer() -> (
    SocketAddr,
    mpsc::Receiver<()>,
    mpsc::Sender<()>,
    thread::JoinHandle<()>,
) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind peer");
    let addr = listener.local_addr().expect("peer address");
    let (accepted_tx, accepted) = mpsc::channel();
    let (release, release_rx) = mpsc::channel::<()>();
    let peer = thread::spawn(move || {
        for stream in listener.incoming() {
            let mut stream = stream.expect("peer accept");
            let mut head = Vec::new();
            let mut byte = [0u8; 1];
            while !head.ends_with(b"\r\n\r\n") && stream.read(&mut byte).unwrap_or(0) == 1 {
                head.push(byte[0]);
            }
            let _ = accepted_tx.send(());
            if release_rx.recv().is_err() {
                return;
            }
            let _ = stream.write_all(b"HTTP/1.1 404 Not Found\r\nContent-Length: 0\r\n\r\n");
        }
    });
    (addr, accepted, release, peer)
}

#[test]
fn warm_sweeps_are_answered_while_the_pool_sheds() {
    let dir = scratch("shed");
    let primer = start(Some(&dir));
    assert!(get(primer.addr(), SWEEP).0.contains("200"));
    primer.shutdown();

    let (peer, accepted, release, peer_thread) = held_peer();
    let server = Server::start(ServerConfig {
        addr: "127.0.0.1:0".to_owned(),
        workers: 1,
        queue_depth: 1,
        cache_dir: Some(dir.to_path_buf()),
        store: StoreOptions {
            peers: PeerSet::from_list(&peer.to_string()),
            ..StoreOptions::default()
        },
        ..ServerConfig::default()
    })
    .expect("server starts");
    let addr = server.addr();
    // The pool builds the model; every cell is local, so no fetch.
    assert!(get(addr, SWEEP).0.contains("200"));

    // Hold the only worker in a peer fetch for a cold cell, then fill
    // the one-slot queue behind it.
    let cold = |h: u32| format!("/sweep?workload=espresso&branches=20000&configs=gshare:h={h},c=2");
    let held = thread::spawn({
        let target = cold(9);
        move || get(addr, &target).0
    });
    accepted.recv().expect("the worker asks the peer");
    let queued = thread::spawn({
        let target = cold(10);
        move || get(addr, &target).0
    });
    while metric(addr, "bpred_serve_queue_depth") == 0 {
        thread::sleep(std::time::Duration::from_millis(1));
    }

    let (status, headers, _) = get(addr, SWEEP);
    assert!(
        status.contains("200"),
        "warm sweep answered inline: {status}"
    );
    assert_eq!(
        header(&headers, "X-Bpred-Provenance"),
        Some("hits=3 misses=0 coalesced=0")
    );
    let (status, headers, _) = get(addr, &cold(11));
    assert!(status.contains("429"), "cold sweep shed: {status}");
    assert_eq!(header(&headers, "Retry-After"), Some("1"));
    assert_eq!(metric(addr, "bpred_sweeps_inline_total"), 1);
    assert_eq!(metric(addr, "bpred_serve_shed_total"), 1);

    release.send(()).expect("release the held fetch");
    assert!(held.join().expect("held client").contains("200"));
    accepted.recv().expect("the queued sweep asks the peer");
    release.send(()).expect("release the queued fetch");
    assert!(queued.join().expect("queued client").contains("200"));
    assert_eq!(metric(addr, "bpred_cache_misses_total"), 2);
    assert!(accepted.try_recv().is_err(), "one fetch per cold cell");
    drop(release);
    drop(TcpStream::connect(peer));
    peer_thread.join().expect("peer thread");
    // The shed sweep was probed on the event loop but never counted.
    assert_eq!(metric(addr, "bpred_sweep_requests_total"), 4);
    assert_eq!(metric(addr, "bpred_cells_total"), 8);
    server.shutdown();
}

#[test]
fn warm_sweeps_past_the_inline_cell_cap_go_to_the_pool() {
    let dir = scratch("cap");
    let server = start(Some(&dir));
    let addr = server.addr();
    let sweep = |cells: usize| {
        let configs = vec!["taken"; cells].join(";");
        get(
            addr,
            &format!("/sweep?workload=espresso&branches=2000&configs={configs}"),
        )
    };
    assert!(sweep(1).0.contains("200"));
    let batches = metric(addr, "bpred_batches_total");

    let (status, headers, _) = sweep(1024);
    assert!(status.contains("200"), "got {status}");
    assert_eq!(metric(addr, "bpred_sweeps_inline_total"), 1);
    let (status, headers_past, _) = sweep(1025);
    assert!(status.contains("200"), "got {status}");
    assert_eq!(
        metric(addr, "bpred_sweeps_inline_total"),
        1,
        "pool answered"
    );
    assert_eq!(metric(addr, "bpred_batches_total"), batches);
    assert_eq!(
        header(&headers, "X-Bpred-Provenance"),
        Some("hits=1024 misses=0 coalesced=0")
    );
    assert_eq!(
        header(&headers_past, "X-Bpred-Provenance"),
        Some("hits=1025 misses=0 coalesced=0")
    );
    server.shutdown();
}

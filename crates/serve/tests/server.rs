//! End-to-end server tests over real sockets: routing, cache-hit
//! behaviour (bit-identical repeats without re-simulation), and
//! concurrent clients.

use std::fs;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::thread;

use bpred_serve::server::{Server, ServerConfig, ServerHandle};

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join("bpred-serve-e2e")
        .join(format!("{}-{tag}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn start(cache: Option<PathBuf>) -> ServerHandle {
    Server::start(ServerConfig {
        addr: "127.0.0.1:0".to_owned(),
        workers: 4,
        cache_dir: cache,
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
    let server = start(Some(dir));
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
    assert_eq!(metric(addr, "bpred_batches_total"), 1);
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

#[test]
fn eight_concurrent_clients_are_served() {
    let dir = scratch("concurrent");
    let server = start(Some(dir));
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

//! Two-node peer-exchange tests over real sockets: the `/cell`
//! routes, and a warm node feeding a cold one so cells arrive by
//! digest fetch instead of recomputation — bit-identically.

use std::fs;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};

use bpred_core::PredictorConfig;
use bpred_serve::codec;
use bpred_serve::peers::PeerSet;
use bpred_serve::server::{Server, ServerConfig, ServerHandle};
use bpred_serve::store::StoreOptions;
use bpred_sim::cache::CellKey;
use bpred_sim::{SimResult, Simulator};

/// A fresh scratch directory unique to `tag` (and this process),
/// cleaned before use so reruns start empty, and removed on drop.
fn scratch(tag: &str) -> Scratch {
    let dir = std::env::temp_dir()
        .join("bpred-serve-peer")
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

fn options(peers: Option<PeerSet>) -> StoreOptions {
    StoreOptions {
        hot_bytes: 16 << 20,
        seal_bytes: 1 << 20,
        peers,
    }
}

fn start(cache: &Path, peers: Option<PeerSet>) -> ServerHandle {
    Server::start(ServerConfig {
        addr: "127.0.0.1:0".to_owned(),
        workers: 2,
        cache_dir: Some(cache.to_path_buf()),
        store: options(peers),
        ..ServerConfig::default()
    })
    .expect("server starts")
}

/// One HTTP exchange over a fresh connection; returns (status line,
/// body). Reads to EOF — `Connection: close`.
fn exchange(addr: SocketAddr, request: &[u8]) -> (String, Vec<u8>) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.write_all(request).expect("send request");
    let mut response = Vec::new();
    stream.read_to_end(&mut response).expect("read response");
    let split = response
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .expect("header/body boundary");
    let head = String::from_utf8(response[..split].to_vec()).expect("ASCII head");
    let status = head.lines().next().expect("status line").to_owned();
    (status, response[split + 4..].to_vec())
}

fn get(addr: SocketAddr, target: &str) -> (String, Vec<u8>) {
    exchange(
        addr,
        format!("GET {target} HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n").as_bytes(),
    )
}

fn put(addr: SocketAddr, target: &str, body: &[u8]) -> (String, Vec<u8>) {
    let mut request = format!(
        "PUT {target} HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    )
    .into_bytes();
    request.extend_from_slice(body);
    exchange(addr, &request)
}

/// Scrapes one (possibly labelled) series value from `/metrics`.
fn metric(addr: SocketAddr, series: &str) -> u64 {
    let (status, body) = get(addr, "/metrics");
    assert!(status.contains("200"), "metrics endpoint healthy");
    let text = String::from_utf8(body).expect("metrics are UTF-8");
    text.lines()
        .find(|l| l.starts_with(series) && l.as_bytes().get(series.len()) == Some(&b' '))
        .unwrap_or_else(|| panic!("series {series} missing"))
        .rsplit(' ')
        .next()
        .unwrap()
        .parse()
        .unwrap_or_else(|_| panic!("series {series} is not an integer"))
}

fn sample_key() -> CellKey {
    CellKey::new(
        "workload:peer-test@0/s1/n1000/j0",
        &PredictorConfig::Gshare {
            history_bits: 6,
            col_bits: 2,
        },
        &Simulator::new(),
    )
}

fn sample_result() -> SimResult {
    SimResult {
        predictor: "gshare(2^8)".to_owned(),
        state_bits: 512,
        conditionals: 1000,
        mispredictions: 99,
        alias: None,
        bht: None,
    }
}

#[test]
fn cell_routes_serve_and_accept_verified_objects() {
    let dir = scratch("cell");
    let server = start(&dir, None);
    let addr = server.addr();
    let key = sample_key();
    let object = codec::encode(&key.canonical(), &sample_result());

    // Nothing stored yet.
    let (status, _) = get(addr, &format!("/cell/{}", key.digest()));
    assert!(status.contains("404"), "got {status}");
    let (status, _) = get(addr, "/cell/nope");
    assert!(status.contains("400"), "got {status}");

    // PUT under the wrong digest is refused...
    let wrong = format!("/cell/{}", "0".repeat(32));
    let (status, body) = put(addr, &wrong, &object);
    assert!(status.contains("400"), "got {status}");
    assert!(String::from_utf8_lossy(&body).contains("digest"));

    // ...and garbage is refused.
    let target = format!("/cell/{}", key.digest());
    let (status, _) = put(addr, &target, b"junk");
    assert!(status.contains("400"), "got {status}");

    // A verified object lands and reads back byte-for-byte.
    let (status, _) = put(addr, &target, &object);
    assert!(status.contains("200"), "got {status}");
    let (status, body) = get(addr, &target);
    assert!(status.contains("200"), "got {status}");
    assert_eq!(body, object);

    // The store behind the server agrees.
    let store = server.store().expect("store configured").clone();
    assert_eq!(store.get(&key), Some(sample_result()));

    server.shutdown();
}

const SWEEP: &str =
    "/sweep?workload=espresso&branches=20000&configs=gshare:h=7,c=2;gas:h=7,c=2;bimodal:a=9";

#[test]
fn cold_node_warm_fetches_every_cell_from_its_peer() {
    // Node A computes the sweep; node B, configured with A as a
    // peer, must answer the same sweep without simulating anything.
    let dir_a = scratch("peer-a");
    let node_a = start(&dir_a, None);
    let addr_a = node_a.addr();
    let (status, body_a) = get(addr_a, SWEEP);
    assert!(status.contains("200"), "got {status}");
    assert_eq!(metric(addr_a, "bpred_cache_misses_total"), 3);

    let peers = PeerSet::from_list(&addr_a.to_string()).expect("peer list");
    let dir_b = scratch("peer-b");
    let node_b = start(&dir_b, Some(peers));
    let addr_b = node_b.addr();
    let (status, body_b) = get(addr_b, SWEEP);
    assert!(status.contains("200"), "got {status}");

    // Bit-identical across nodes, zero recomputation on B: all
    // three cells arrived via peer fetch.
    assert_eq!(body_a, body_b);
    assert_eq!(metric(addr_b, "bpred_cache_misses_total"), 0);
    assert_eq!(metric(addr_b, "bpred_store_hits_total{tier=\"peer\"}"), 3);
    assert_eq!(
        metric(addr_a, "bpred_cache_misses_total"),
        3,
        "A served from store"
    );

    // A repeat on B is now a local hot-tier hit, not another fetch.
    let (_, body_b2) = get(addr_b, SWEEP);
    assert_eq!(body_b, body_b2);
    assert_eq!(metric(addr_b, "bpred_store_hits_total{tier=\"peer\"}"), 3);
    assert_eq!(metric(addr_b, "bpred_store_hits_total{tier=\"hot\"}"), 3);

    node_b.shutdown();
    node_a.shutdown();
}

#[test]
fn dead_peer_degrades_to_local_compute() {
    // Port 1: connection refused. The node must still answer by
    // simulating, just without peer help.
    let peers = PeerSet::from_list("127.0.0.1:1").expect("peer list");
    let dir = scratch("peer-dead");
    let node = start(&dir, Some(peers));
    let addr = node.addr();
    let (status, _) = get(addr, SWEEP);
    assert!(status.contains("200"), "got {status}");
    assert_eq!(metric(addr, "bpred_cache_misses_total"), 3);
    assert_eq!(metric(addr, "bpred_store_hits_total{tier=\"peer\"}"), 0);
    node.shutdown();
}

#[test]
fn local_miss_goes_to_the_pool_where_the_peer_answers_it() {
    let dir_a = scratch("pool-a");
    let node_a = start(&dir_a, None);
    let (status, body_a) = get(node_a.addr(), SWEEP);
    assert!(status.contains("200"), "got {status}");

    let peers = PeerSet::from_list(&node_a.addr().to_string()).expect("peer list");
    let dir_b = scratch("pool-b");
    let node_b = start(&dir_b, Some(peers));
    let addr = node_b.addr();
    // Build B's espresso model on a cell A does not have, so the
    // sweep below runs its local stage on the event loop.
    let (status, _) = get(
        addr,
        "/sweep?workload=espresso&branches=20000&configs=bimodal:a=5",
    );
    assert!(status.contains("200"), "got {status}");
    let misses = metric(addr, "bpred_cache_misses_total");

    let one = "/sweep?workload=espresso&branches=20000&configs=gas:h=7,c=2";
    let (status, body) = get(addr, one);
    assert!(status.contains("200"), "got {status}");
    assert_eq!(metric(addr, "bpred_store_hits_total{tier=\"peer\"}"), 1);
    assert_eq!(metric(addr, "bpred_sweeps_inline_total"), 0);
    assert_eq!(metric(addr, "bpred_cache_misses_total"), misses);
    let text = String::from_utf8(body).expect("UTF-8");
    let cell = text.find("{\"config\":\"gas:h=7,c=2\"").expect("cell");
    let cell = &text[cell..text.len() - 2];
    assert!(
        String::from_utf8_lossy(&body_a).contains(cell),
        "A's numbers"
    );

    // Now local: the repeat never leaves the event loop.
    let (_, again) = get(addr, one);
    assert_eq!(again, text.as_bytes());
    assert_eq!(metric(addr, "bpred_sweeps_inline_total"), 1);
    assert_eq!(metric(addr, "bpred_store_hits_total{tier=\"peer\"}"), 1);

    node_b.shutdown();
    node_a.shutdown();
}

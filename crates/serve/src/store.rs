//! Tiered content-addressed result store.
//!
//! Every sweep cell — one `(workload stream, predictor config,
//! warmup, engine version)` tuple — is pure and deterministic, so its
//! [`SimResult`] can be stored under the stable digest of its
//! [`CellKey`] and reused forever (until
//! [`ENGINE_VERSION`](bpred_sim::ENGINE_VERSION) changes, which
//! changes every key). Reads fall through three tiers:
//!
//! 1. **hot** — a sharded, byte-bounded in-memory tier of decoded
//!    results ([`crate::hot`]); repeat hits never touch the
//!    filesystem.
//! 2. **pack** — checksummed append-only pack segments, indexed in
//!    memory by scanning them at open ([`crate::pack`]).
//! 3. **peer** — other serve nodes named in `BPRED_SERVE_PEERS`,
//!    asked by digest over `GET /cell/<digest>` ([`crate::peers`])
//!    before the cell is recomputed.
//!
//! Whatever the tier, bytes are decoded by the [`codec`] — checksum
//! plus embedded-canonical-key verification — so every answer is
//! bit-identical to a local `run_configs_keyed` recomputation; a
//! corrupt object (or a lying peer) is a miss, never a wrong number.
//! The store itself never computes a cell: the sweep service
//! ([`crate::service`]) single-flights concurrent computes of one cell.
//!
//! The store implements [`ResultCache`], so passing one to a keyed
//! sweep ([`bpred_sim::cache::run_configs_keyed`]) memoises it;
//! [`open_from_env`] opens the store `BPRED_CACHE_DIR` names.
//!
//! The store only grows: nothing in it deletes a cell. To trim it,
//! stop every process using it and delete old sealed segments
//! (`packs/seg-*.pack`) or the whole directory; a reopen drops the
//! deleted segments' cells from the index, and they read as misses.

use std::io;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use bpred_sim::cache::{CellKey, ResultCache};
use bpred_sim::SimResult;
use bpred_trace::fnv;

use crate::codec;
use crate::hot::HotTier;
use crate::pack::PackStore;
use crate::peers::PeerSet;

/// Tuning for [`ResultStore::open_with`].
#[derive(Debug, Clone)]
pub struct StoreOptions {
    /// Hot-tier byte budget; 0 disables the tier.
    pub hot_bytes: u64,
    /// Active pack segment seal threshold in bytes.
    pub seal_bytes: u64,
    /// Peers to fetch missing cells from.
    pub peers: Option<PeerSet>,
}

impl Default for StoreOptions {
    fn default() -> StoreOptions {
        StoreOptions {
            hot_bytes: 64 << 20,
            seal_bytes: 8 << 20,
            peers: None,
        }
    }
}

impl StoreOptions {
    /// Defaults overridden by the environment:
    /// `BPRED_STORE_HOT_BYTES`, `BPRED_STORE_SEAL_BYTES`, and
    /// `BPRED_SERVE_PEERS`.
    pub fn from_env() -> StoreOptions {
        let mut options = StoreOptions::default();
        if let Some(v) = env_u64("BPRED_STORE_HOT_BYTES") {
            options.hot_bytes = v;
        }
        if let Some(v) = env_u64("BPRED_STORE_SEAL_BYTES") {
            options.seal_bytes = v;
        }
        if let Ok(list) = std::env::var("BPRED_SERVE_PEERS") {
            options.peers = PeerSet::from_list(&list);
        }
        options
    }
}

fn env_u64(name: &str) -> Option<u64> {
    std::env::var(name).ok()?.trim().parse().ok()
}

/// Per-tier hit counters and size gauges, exported on `/metrics` as
/// `bpred_store_hits_total{tier=…}`, `bpred_store_segments`, and
/// `bpred_store_hot_bytes`.
#[derive(Debug, Default)]
pub struct StoreStats {
    /// Cells answered from the in-memory hot tier.
    pub hot_hits: AtomicU64,
    /// Cells answered from pack segments.
    pub pack_hits: AtomicU64,
    /// Cells answered by a peer fetch.
    pub peer_hits: AtomicU64,
    /// Segments on disk (gauge).
    pub segments: AtomicU64,
    /// Hot-tier resident bytes (gauge).
    pub hot_bytes: AtomicU64,
}

/// A cell's canonical key and its content address, built once per
/// cell so every tier lookup and the pack append share one hash. The
/// digest is FNV-1a 128 of the canonical key — [`CellKey::digest`] as
/// a number rather than hex.
#[derive(Debug)]
pub(crate) struct Address {
    pub(crate) canonical: String,
    pub(crate) digest: u128,
}

impl Address {
    pub(crate) fn of(key: &CellKey) -> Address {
        let canonical = key.canonical();
        let digest = fnv::fnv128(canonical.as_bytes());
        Address { canonical, digest }
    }
}

/// The local tier that answered a [`ResultStore::probe`].
#[derive(Debug, Clone, Copy)]
pub(crate) enum Tier {
    Hot,
    Pack,
}

/// A tiered content-addressed cache of simulation results.
///
/// Cheaply shareable via [`Arc`]; all methods take `&self` and are
/// safe to call from many threads.
#[derive(Debug)]
pub struct ResultStore {
    pack: PackStore,
    hot: HotTier,
    peers: Option<PeerSet>,
    stats: Arc<StoreStats>,
}

impl ResultStore {
    /// Opens (creating if needed) the store rooted at `root` with
    /// [`StoreOptions::from_env`].
    pub fn open(root: impl Into<PathBuf>) -> io::Result<ResultStore> {
        ResultStore::open_with(root, StoreOptions::from_env())
    }

    /// Opens (creating if needed) the store rooted at `root`.
    ///
    /// Every pack segment is scanned to index its cells, and a leftover
    /// partial active segment is recovered.
    pub fn open_with(root: impl Into<PathBuf>, options: StoreOptions) -> io::Result<ResultStore> {
        let pack = PackStore::open(&root.into(), options.seal_bytes)?;
        let store = ResultStore {
            pack,
            hot: HotTier::new(options.hot_bytes),
            peers: options.peers,
            stats: Arc::new(StoreStats::default()),
        };
        store.refresh_gauges();
        Ok(store)
    }

    /// Per-tier hit counters and gauges, shared with `/metrics`.
    pub fn stats(&self) -> Arc<StoreStats> {
        self.stats.clone()
    }

    /// Number of cached cells on disk.
    pub fn len(&self) -> usize {
        self.pack.len()
    }

    /// Returns `true` when no cells are cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total payload bytes of cached objects.
    pub fn total_bytes(&self) -> u64 {
        self.pack.payload_bytes()
    }

    /// Segments on disk.
    pub fn segments(&self) -> usize {
        self.pack.segments()
    }

    /// Cells resident in the hot tier.
    pub fn hot_len(&self) -> usize {
        self.hot.len()
    }

    fn refresh_gauges(&self) {
        self.stats
            .segments
            .store(self.segments() as u64, Ordering::Relaxed);
        self.stats
            .hot_bytes
            .store(self.hot.bytes(), Ordering::Relaxed);
    }

    /// Looks up the result for `key`, trying hot → pack → peers.
    /// `None` on a miss; a corrupt object is dropped (the cell heals
    /// by recomputation), and peer bytes are verified against the
    /// expected canonical key before being believed.
    pub fn get(&self, key: &CellKey) -> Option<SimResult> {
        let address = Address::of(key);
        self.get_local(&address).or_else(|| self.get_peer(&address))
    }

    /// A counted [`probe`](Self::probe).
    pub(crate) fn get_local(&self, address: &Address) -> Option<SimResult> {
        let (result, tier) = self.probe(address)?;
        self.count_local_hit(tier);
        Some(result)
    }

    /// Looks `address` up in the local tiers (hot, then pack), without
    /// counting the hit: the caller reports it with
    /// [`count_local_hit`](Self::count_local_hit) once the answer is
    /// used. A pack hit is promoted to the hot tier; a corrupt pack
    /// object is dropped.
    pub(crate) fn probe(&self, address: &Address) -> Option<(SimResult, Tier)> {
        let digest = address.digest;
        if let Some(result) = self.hot.get(digest) {
            return Some((result, Tier::Hot));
        }
        let (bytes, loc) = self.pack.read(digest)?;
        match codec::decode(&bytes, &address.canonical) {
            Ok(result) => {
                self.hot.put(digest, &result, bytes.len());
                self.refresh_gauges();
                Some((result, Tier::Pack))
            }
            Err(_) => {
                self.pack.forget(digest, loc);
                None
            }
        }
    }

    /// Counts one local-tier hit on `/metrics`.
    pub(crate) fn count_local_hit(&self, tier: Tier) {
        let counter = match tier {
            Tier::Hot => &self.stats.hot_hits,
            Tier::Pack => &self.stats.pack_hits,
        };
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Asks the peers for `address`, a local miss; a verified answer
    /// lands in the pack and hot tiers.
    pub(crate) fn get_peer(&self, address: &Address) -> Option<SimResult> {
        let peers = self.peers.as_ref()?;
        let bytes = peers.fetch(&format!("{:032x}", address.digest))?;
        let result = codec::decode(&bytes, &address.canonical).ok()?;
        let _ = self.pack.put(address.digest, &bytes);
        self.hot.put(address.digest, &result, bytes.len());
        self.stats.peer_hits.fetch_add(1, Ordering::Relaxed);
        self.refresh_gauges();
        Some(result)
    }

    /// Stores the result for `key` durably (a pack append) and in the
    /// hot tier.
    pub fn put(&self, key: &CellKey, result: &SimResult) -> io::Result<()> {
        self.put_addressed(&Address::of(key), result)
    }

    /// [`put`](Self::put) for a cell already addressed.
    pub(crate) fn put_addressed(&self, address: &Address, result: &SimResult) -> io::Result<()> {
        let bytes = codec::encode(&address.canonical, result);
        self.pack.put(address.digest, &bytes)?;
        self.hot.put(address.digest, result, bytes.len());
        self.refresh_gauges();
        Ok(())
    }

    /// Reads the raw stored object for `digest_hex` from the *local*
    /// tiers only — this is what `GET /cell/<digest>` serves, so two
    /// peers asking each other can never loop.
    ///
    /// Only an object [`put_raw`](Self::put_raw) would accept is served;
    /// anything else (bit rot in a segment) is a miss, and forgotten.
    pub fn get_raw(&self, digest_hex: &str) -> Option<Vec<u8>> {
        let digest = parse_digest(digest_hex)?;
        let (bytes, loc) = self.pack.read(digest)?;
        match codec::decode_verified(&bytes) {
            Ok((key, _)) if fnv::fnv128(key.as_bytes()) == digest => Some(bytes),
            _ => {
                self.pack.forget(digest, loc);
                None
            }
        }
    }

    /// Accepts a raw object for `digest_hex` (the `PUT /cell/…`
    /// handler). The bytes must decode cleanly and their embedded
    /// canonical key must hash to `digest_hex`; anything else is
    /// rejected, so a peer can prime caches but never poison them.
    pub fn put_raw(&self, digest_hex: &str, bytes: &[u8]) -> Result<(), String> {
        if !digest_ok(digest_hex) {
            return Err("digest must be 32 hex digits".to_owned());
        }
        let (stored_key, result) =
            codec::decode_verified(bytes).map_err(|e| format!("bad object: {e}"))?;
        if fnv::fnv128_hex(stored_key.as_bytes()) != digest_hex {
            return Err("object key does not hash to the given digest".to_owned());
        }
        let digest = parse_digest(digest_hex).expect("digest_ok checked");
        self.pack.put(digest, bytes).map_err(|e| e.to_string())?;
        self.hot.put(digest, &result, bytes.len());
        self.refresh_gauges();
        Ok(())
    }
}

/// Whether `digest` is 32 hex digits, the form of a content address.
pub(crate) fn digest_ok(digest: &str) -> bool {
    digest.len() == 32 && digest.bytes().all(|b| b.is_ascii_hexdigit())
}

fn parse_digest(hex: &str) -> Option<u128> {
    if !digest_ok(hex) {
        return None;
    }
    u128::from_str_radix(hex, 16).ok()
}

impl ResultCache for ResultStore {
    fn get(&self, key: &CellKey) -> Option<SimResult> {
        ResultStore::get(self, key)
    }

    fn put(&self, key: &CellKey, result: &SimResult) {
        // Best effort: a full disk must not fail the sweep.
        let _ = ResultStore::put(self, key, result);
    }
}

/// When `BPRED_CACHE_DIR` is set and non-empty, opens the store
/// rooted there (honouring the `BPRED_STORE_*` / `BPRED_SERVE_PEERS`
/// environment) for a binary to pass to its keyed sweeps. `None` when
/// the variable is unset or empty, or when the store cannot be opened
/// (a warning is printed; the binary runs uncached).
pub fn open_from_env() -> Option<ResultStore> {
    let dir = std::env::var("BPRED_CACHE_DIR").ok()?;
    if dir.is_empty() {
        return None;
    }
    ResultStore::open(&dir)
        .map_err(|e| {
            eprintln!(
                "warning: BPRED_CACHE_DIR={dir}: cannot open result store ({e}); running uncached"
            )
        })
        .ok()
}

//! Tiered content-addressed result store.
//!
//! Every sweep cell — one `(workload stream, predictor config,
//! warmup, engine version)` tuple — is pure and deterministic, so its
//! [`SimResult`] can be stored under the stable digest of its
//! [`CellKey`] and reused forever (until [`ENGINE_VERSION`] changes,
//! which changes every key). Reads fall through three tiers:
//!
//! 1. **hot** — a sharded, byte-bounded in-memory tier of decoded
//!    results ([`crate::hot`]); repeat hits never touch the
//!    filesystem.
//! 2. **pack** — checksummed append-only pack segments with a
//!    persistent page-aligned index ([`crate::pack`]).
//! 3. **peer** — other serve nodes named in `BPRED_SERVE_PEERS`,
//!    asked by digest over `GET /cell/<digest>` ([`crate::peers`])
//!    before the cell is recomputed.
//!
//! Whatever the tier, bytes are decoded by the [`codec`] — checksum
//! plus embedded-canonical-key verification — so every answer is
//! bit-identical to a local `run_configs_keyed` recomputation; a
//! corrupt object (or a lying peer) is a miss, never a wrong number.
//! Concurrent compute for the same cell stays single-flighted via
//! [`crate::flight`].
//!
//! The legacy one-file-per-object layout (`objects/<aa>/<digest>.bin`)
//! is only ever read: opening a store over a directory that still has
//! an `objects/` tree packs it into segments and removes it (also
//! exposed as `serve store migrate`).
//!
//! The store implements [`ResultCache`], so
//! [`bpred_sim::cache::install`]ing one memoises every keyed sweep in
//! the process; [`install_from_env`] does that from `BPRED_CACHE_DIR`.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use bpred_sim::cache::{CellKey, ResultCache};
use bpred_sim::{SimResult, ENGINE_VERSION};
use bpred_trace::fnv;

use crate::codec;
use crate::flight::{Flight, Join};
use crate::hot::HotTier;
use crate::pack::PackStore;
use crate::peers::PeerSet;

pub use crate::pack::GcReport;

const OBJECTS_DIR: &str = "objects";
const LEGACY_INDEX_FILE: &str = "index.log";

/// Tuning for [`ResultStore::open_with`].
#[derive(Debug, Clone)]
pub struct StoreOptions {
    /// Hot-tier byte budget; 0 disables the tier.
    pub hot_bytes: u64,
    /// Active pack segment seal threshold in bytes.
    pub seal_bytes: u64,
    /// Peers to fetch missing cells from.
    pub peers: Option<PeerSet>,
    /// Migrate a legacy `objects/` tree into segments at open.
    pub auto_migrate: bool,
}

impl Default for StoreOptions {
    fn default() -> StoreOptions {
        StoreOptions {
            hot_bytes: 64 << 20,
            seal_bytes: 8 << 20,
            peers: None,
            auto_migrate: true,
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

/// What migrating a legacy flat tree into pack segments did.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MigrateReport {
    /// Objects packed into segments.
    pub migrated: usize,
    /// Corrupt, misnamed or stray entries dropped.
    pub skipped: usize,
    /// Payload bytes migrated.
    pub bytes: u64,
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
    root: PathBuf,
    pack: PackStore,
    hot: HotTier,
    peers: Option<PeerSet>,
    stats: Arc<StoreStats>,
    flight: Flight<SimResult>,
    migration: Option<MigrateReport>,
}

impl ResultStore {
    /// Opens (creating if needed) the store rooted at `root` with
    /// [`StoreOptions::from_env`].
    pub fn open(root: impl Into<PathBuf>) -> io::Result<ResultStore> {
        ResultStore::open_with(root, StoreOptions::from_env())
    }

    /// Opens (creating if needed) the store rooted at `root`.
    ///
    /// A leftover partial active segment is recovered, a missing or
    /// corrupt persistent index is rebuilt by scanning segments, and
    /// (unless `auto_migrate` is off) a legacy flat `objects/` tree is
    /// packed into segments first.
    pub fn open_with(root: impl Into<PathBuf>, options: StoreOptions) -> io::Result<ResultStore> {
        let root = root.into();
        let pack = PackStore::open(&root, options.seal_bytes)?;
        let mut migration = None;
        if options.auto_migrate && root.join(OBJECTS_DIR).is_dir() {
            migration = Some(migrate_flat_tree(&root, &pack)?);
        }
        let store = ResultStore {
            root,
            pack,
            hot: HotTier::new(options.hot_bytes),
            peers: options.peers,
            stats: Arc::new(StoreStats::default()),
            flight: Flight::new(),
            migration,
        };
        store.refresh_gauges();
        Ok(store)
    }

    /// The store's root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Per-tier hit counters and gauges, shared with `/metrics`.
    pub fn stats(&self) -> Arc<StoreStats> {
        self.stats.clone()
    }

    /// The migration performed at open, if any.
    pub fn migration(&self) -> Option<MigrateReport> {
        self.migration
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
        self.get_addressed(&Address::of(key))
    }

    /// [`get`](Self::get) for a cell already addressed.
    pub(crate) fn get_addressed(&self, address: &Address) -> Option<SimResult> {
        self.get_local(address).or_else(|| self.get_peer(address))
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

    /// Returns the cached result for `key`, or computes, stores, and
    /// returns it. Concurrent callers for the same cell are
    /// single-flighted: one computes, the rest wait for its result.
    /// If the computing caller panics, waiters recompute themselves.
    pub fn get_or_compute(&self, key: &CellKey, compute: impl FnOnce() -> SimResult) -> SimResult {
        let address = Address::of(key);
        if let Some(result) = self.get_addressed(&address) {
            return result;
        }
        match self.flight.join(&address.canonical) {
            Join::Leader(guard) => {
                // Double-check under leadership: another leader may
                // have stored the cell between our miss and our join.
                let result = self.get_local(&address).unwrap_or_else(compute);
                let _ = self.put_addressed(&address, &result);
                guard.complete(result.clone());
                result
            }
            Join::Follower(waiter) => match waiter.wait() {
                Some(result) => result,
                None => {
                    // Leader aborted; compute independently.
                    let result = compute();
                    let _ = self.put_addressed(&address, &result);
                    result
                }
            },
        }
    }

    /// Trims the store to at most `max_bytes` on disk.
    ///
    /// Whole sealed segments are dropped oldest generation first and
    /// mostly-dead ones compacted; the active segment is never touched,
    /// so a cell being written concurrently can never be collected.
    pub fn gc(&self, max_bytes: u64) -> io::Result<GcReport> {
        let report = self.pack.gc(max_bytes)?;
        self.refresh_gauges();
        Ok(report)
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

/// Packs every valid object of a legacy flat `objects/` tree into the
/// segment store, seals it, then removes the tree (and the old
/// journal). Corrupt or misnamed objects, and any stray entry that is
/// not `objects/<aa>/<digest>.bin`, are counted as skipped and dropped
/// with the tree — they were unreadable in the old layout too.
fn migrate_flat_tree(root: &Path, pack: &PackStore) -> io::Result<MigrateReport> {
    let mut report = MigrateReport::default();
    let objects = root.join(OBJECTS_DIR);
    for fan in fs::read_dir(&objects)? {
        let fan = fan?;
        if !fan.file_type()?.is_dir() {
            report.skipped += 1;
            continue;
        }
        for entry in fs::read_dir(fan.path())? {
            let entry = entry?;
            let name = entry.file_name();
            let hex = name.to_str().and_then(|n| n.strip_suffix(".bin"));
            let digest = hex
                .and_then(parse_digest)
                .filter(|_| entry.file_type().is_ok_and(|t| t.is_file()));
            let (Some(hex), Some(digest)) = (hex, digest) else {
                report.skipped += 1;
                continue;
            };
            let bytes = fs::read(entry.path())?;
            let valid = codec::decode_verified(&bytes)
                .map(|(key, _)| fnv::fnv128_hex(key.as_bytes()) == hex)
                .unwrap_or(false);
            if valid {
                pack.put(digest, &bytes)?;
                report.migrated += 1;
                report.bytes += bytes.len() as u64;
            } else {
                report.skipped += 1;
            }
        }
    }
    pack.seal_active()?;
    let _ = fs::remove_dir_all(&objects);
    let _ = fs::remove_file(root.join(LEGACY_INDEX_FILE));
    Ok(report)
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
/// environment) and installs it as the process-wide result cache for
/// keyed sweeps (see [`bpred_sim::cache`]). Returns the installed
/// store, or `None` when the variable is unset/empty or the store
/// cannot be opened (a warning is printed; simulation proceeds
/// uncached).
pub fn install_from_env() -> Option<Arc<ResultStore>> {
    let dir = std::env::var("BPRED_CACHE_DIR").ok()?;
    if dir.is_empty() {
        return None;
    }
    match ResultStore::open(&dir) {
        Ok(store) => {
            let store = Arc::new(store);
            bpred_sim::cache::install(store.clone());
            Some(store)
        }
        Err(e) => {
            eprintln!(
                "warning: BPRED_CACHE_DIR={dir}: cannot open result store ({e}); running uncached"
            );
            None
        }
    }
}

/// The store format the current binary writes, surfaced for
/// diagnostics: engine version the cache keys are bound to.
pub const fn engine_version() -> u32 {
    ENGINE_VERSION
}

//! Result-store integration tests: codec properties, tiered
//! round-trips, crash recovery, migration, peer-object validation,
//! concurrent single-flight, and eviction.

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread;

use proptest::prelude::*;

use bpred_core::{AliasStats, BhtStats, PredictorConfig};
use bpred_serve::codec;
use bpred_serve::store::{ResultStore, StoreOptions};
use bpred_sim::cache::CellKey;
use bpred_sim::{SimResult, Simulator};

/// A fresh scratch directory unique to `tag` (and this process),
/// cleaned before use so reruns start empty, and removed on drop.
fn scratch(tag: &str) -> Scratch {
    let dir = std::env::temp_dir()
        .join("bpred-serve-tests")
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

fn key(tag: &str) -> CellKey {
    CellKey::new(
        &format!("workload:test@{tag}/s1/n1000/j0.05"),
        &PredictorConfig::Gshare {
            history_bits: 8,
            col_bits: 2,
        },
        &Simulator::new(),
    )
}

fn result(mispredictions: u64) -> SimResult {
    SimResult {
        predictor: "gshare(2^10)".to_owned(),
        state_bits: 2048,
        conditionals: 1000,
        mispredictions,
        alias: Some(AliasStats {
            accesses: 1000,
            conflicts: 17,
            harmless_conflicts: 5,
        }),
        bht: None,
    }
}

/// A packed store with explicit tier tuning (no env influence).
fn packed(dir: &Path, hot_bytes: u64, seal_bytes: u64) -> ResultStore {
    ResultStore::open_with(
        dir,
        StoreOptions {
            hot_bytes,
            seal_bytes,
            peers: None,
            auto_migrate: true,
        },
    )
    .unwrap()
}

/// Writes `cells` as a legacy flat tree: one `codec::encode`d object
/// per cell at `objects/<aa>/<digest>.bin`.
fn write_legacy_tree(dir: &Path, cells: &[(CellKey, SimResult)]) {
    for (key, result) in cells {
        let digest = key.digest();
        let fan = dir.join("objects").join(&digest[..2]);
        fs::create_dir_all(&fan).unwrap();
        let bytes = codec::encode(&key.canonical(), result);
        fs::write(fan.join(format!("{digest}.bin")), bytes).unwrap();
    }
}

// ------------------------------------------------------------ codec

/// Printable ASCII strings up to `max` characters.
fn arb_string(max: usize) -> impl Strategy<Value = String> {
    prop::collection::vec(32u8..127u8, 0..max)
        .prop_map(|bytes| bytes.into_iter().map(char::from).collect())
}

fn arb_result() -> impl Strategy<Value = SimResult> {
    (
        arb_string(40),
        (any::<u64>(), any::<u64>(), any::<u64>()),
        (any::<bool>(), any::<u64>(), any::<u64>(), any::<u64>()),
        (any::<bool>(), any::<u64>(), any::<u64>()),
    )
        .prop_map(
            |(
                predictor,
                (state_bits, conditionals, mispredictions),
                (has_alias, accesses, conflicts, harmless_conflicts),
                (has_bht, bht_accesses, bht_misses),
            )| SimResult {
                predictor,
                state_bits,
                conditionals,
                mispredictions,
                alias: has_alias.then_some(AliasStats {
                    accesses,
                    conflicts,
                    harmless_conflicts,
                }),
                bht: has_bht.then_some(BhtStats {
                    accesses: bht_accesses,
                    misses: bht_misses,
                }),
            },
        )
}

proptest! {
    #[test]
    fn codec_round_trips_arbitrary_results(
        result in arb_result(),
        tail in arb_string(60),
    ) {
        let key = format!("cell-v2|{tail}");
        let bytes = codec::encode(&key, &result);
        prop_assert_eq!(codec::decode(&bytes, &key).unwrap(), result.clone());
        // The self-describing decode agrees and returns the key.
        let (stored_key, verified) = codec::decode_verified(&bytes).unwrap();
        prop_assert_eq!(stored_key, key);
        prop_assert_eq!(verified, result);
    }

    #[test]
    fn codec_never_panics_on_arbitrary_bytes(bytes in prop::collection::vec(any::<u8>(), 0..256)) {
        let _ = codec::decode(&bytes, "cell-v2|x|gshare:h=1,c=0|w0");
        let _ = codec::decode_verified(&bytes);
    }

    #[test]
    fn codec_rejects_any_truncation(result in arb_result(), cut in 1usize..64) {
        let bytes = codec::encode("cell-v2|k|gshare:h=1,c=0|w0", &result);
        let keep = bytes.len().saturating_sub(cut);
        prop_assert!(codec::decode(&bytes[..keep], "cell-v2|k|gshare:h=1,c=0|w0").is_err());
    }
}

// ------------------------------------------------------------ store

#[test]
fn put_get_round_trips_across_reopen() {
    let dir = scratch("roundtrip");
    let k = key("rt");
    {
        let store = packed(&dir, 1 << 20, 1 << 20);
        assert!(store.is_empty());
        assert_eq!(store.get(&k), None);
        store.put(&k, &result(123)).unwrap();
        assert_eq!(store.get(&k), Some(result(123)));
        assert_eq!(store.len(), 1);
    }
    // A new process would see the same state via the segments.
    let store = packed(&dir, 1 << 20, 1 << 20);
    assert_eq!(store.len(), 1);
    assert_eq!(store.get(&k), Some(result(123)));
    assert!(store.total_bytes() > 0);
}

#[test]
fn distinct_keys_store_distinct_results() {
    let dir = scratch("distinct");
    let store = packed(&dir, 1 << 20, 1 << 20);
    for i in 0..20u64 {
        store.put(&key(&format!("k{i}")), &result(i)).unwrap();
    }
    assert_eq!(store.len(), 20);
    for i in 0..20u64 {
        assert_eq!(store.get(&key(&format!("k{i}"))), Some(result(i)));
    }
}

#[test]
fn overwriting_a_key_keeps_one_entry() {
    let dir = scratch("overwrite");
    let store = packed(&dir, 1 << 20, 1 << 20);
    let k = key("ow");
    store.put(&k, &result(1)).unwrap();
    store.put(&k, &result(2)).unwrap();
    assert_eq!(store.len(), 1);
    assert_eq!(store.get(&k), Some(result(2)));
}

#[test]
fn hot_tier_answers_repeat_hits_without_the_filesystem() {
    let dir = scratch("hot");
    let store = packed(&dir, 1 << 20, 1 << 20);
    let k = key("hot");
    store.put(&k, &result(5)).unwrap();
    let stats = store.stats();

    // Nuke the disk tier behind the store's back: a hot-tier hit
    // must still answer, proving the filesystem was not consulted.
    fs::remove_dir_all(dir.join("packs")).unwrap();
    assert_eq!(store.get(&k), Some(result(5)));
    assert_eq!(stats.hot_hits.load(Ordering::Relaxed), 1);
    assert_eq!(stats.pack_hits.load(Ordering::Relaxed), 0);
    assert!(stats.hot_bytes.load(Ordering::Relaxed) > 0);
}

#[test]
fn disabled_hot_tier_reads_from_pack_and_promotes_nothing() {
    let dir = scratch("nohot");
    let store = packed(&dir, 0, 1 << 20);
    let k = key("nh");
    store.put(&k, &result(6)).unwrap();
    let stats = store.stats();
    assert_eq!(store.get(&k), Some(result(6)));
    assert_eq!(store.get(&k), Some(result(6)));
    assert_eq!(stats.hot_hits.load(Ordering::Relaxed), 0);
    assert_eq!(stats.pack_hits.load(Ordering::Relaxed), 2);
    assert_eq!(store.hot_len(), 0);
}

#[test]
fn torn_active_tail_recovers_prefix_and_heals() {
    let dir = scratch("torn");
    {
        let store = packed(&dir, 0, 1 << 20);
        for i in 0..8u64 {
            store.put(&key(&format!("t{i}")), &result(i)).unwrap();
        }
    }
    // Tear the (sole) active segment: half a frame of garbage.
    let packs = dir.join("packs");
    let active = fs::read_dir(&packs)
        .unwrap()
        .filter_map(|e| e.ok())
        .find(|e| e.file_name().to_string_lossy().starts_with("active-"))
        .expect("active segment present")
        .path();
    let mut bytes = fs::read(&active).unwrap();
    bytes.extend_from_slice(b"BPCL\xde\xad\xbe\xef torn frame");
    fs::write(&active, &bytes).unwrap();

    let store = packed(&dir, 0, 1 << 20);
    assert_eq!(store.len(), 8, "prefix survives the torn tail");
    for i in 0..8u64 {
        assert_eq!(store.get(&key(&format!("t{i}"))), Some(result(i)));
    }
    // The store keeps working after recovery.
    store.put(&key("t-new"), &result(99)).unwrap();
    assert_eq!(store.get(&key("t-new")), Some(result(99)));
}

#[test]
fn persistent_index_is_an_optimisation_not_the_truth() {
    let dir = scratch("pidx");
    {
        let store = packed(&dir, 0, 256); // tiny seal: many sealed segments
        for i in 0..12u64 {
            store.put(&key(&format!("p{i}")), &result(i)).unwrap();
        }
    }
    let index = dir.join("packs").join("index.bin");
    assert!(index.exists(), "sealing wrote the persistent index");

    // Missing index: rebuilt by scanning segments.
    fs::remove_file(&index).unwrap();
    {
        let store = packed(&dir, 0, 256);
        assert_eq!(store.len(), 12);
        assert_eq!(store.get(&key("p3")), Some(result(3)));
    }

    // Corrupt index: detected by checksum, rebuilt the same way.
    let mut bytes = fs::read(&index).unwrap();
    let last = bytes.len() - 1;
    bytes[last] ^= 0xff;
    fs::write(&index, &bytes).unwrap();
    let store = packed(&dir, 0, 256);
    assert_eq!(store.len(), 12);
    assert_eq!(store.get(&key("p7")), Some(result(7)));
}

#[test]
fn migration_packs_a_legacy_flat_tree() {
    // The second input adds stray entries no flat store ever wrote: a
    // plain file directly under `objects/` and a non-`.bin` file in a
    // fan directory. They count as skipped and leave with the tree.
    let strays: [&[&str]; 2] = [&[], &["README", "00/notes.txt"]];
    for (case, stray) in strays.iter().enumerate() {
        let dir = scratch(&format!("migrate-{case}"));
        let cells: Vec<_> = (0..10u64)
            .map(|i| (key(&format!("m{i}")), result(i)))
            .collect();
        write_legacy_tree(&dir, &cells);
        fs::write(dir.join("index.log"), b"legacy journal").unwrap();
        // Plant one corrupt object: it must be skipped, not migrated.
        let corrupt = dir.join("objects").join("00");
        fs::create_dir_all(&corrupt).unwrap();
        fs::write(
            corrupt.join("00000000000000000000000000000000.bin"),
            b"not a result object",
        )
        .unwrap();
        for path in *stray {
            fs::write(dir.join("objects").join(path), b"stray").unwrap();
        }

        let store = packed(&dir, 1 << 20, 1 << 20);
        let report = store.migration().expect("migration ran");
        assert_eq!(report.migrated, 10, "case {case}");
        assert_eq!(report.skipped, 1 + stray.len(), "case {case}");
        assert!(report.bytes > 0);
        assert!(!dir.join("objects").exists(), "legacy tree removed");
        assert!(!dir.join("index.log").exists(), "legacy journal removed");
        for (key, result) in &cells {
            assert_eq!(store.get(key).as_ref(), Some(result));
        }

        // Re-opening does not migrate again.
        drop(store);
        let store = packed(&dir, 1 << 20, 1 << 20);
        assert!(store.migration().is_none(), "case {case}: migrated twice");
        assert!(!dir.join("objects").exists());
        assert_eq!(store.len(), 10);
    }
}

#[test]
fn raw_object_exchange_validates_digests() {
    let dir = scratch("raw");
    let store = packed(&dir, 1 << 20, 1 << 20);
    let a = key("a");
    let b = key("b");
    let bytes_a = codec::encode(&a.canonical(), &result(1));

    // A peer-pushed object must hash to the digest it claims.
    assert!(store.put_raw(&b.digest(), &bytes_a).is_err());
    assert!(store.put_raw("zz", &bytes_a).is_err());
    assert!(store.put_raw(&a.digest(), b"garbage").is_err());
    assert_eq!(store.len(), 0);

    store.put_raw(&a.digest(), &bytes_a).unwrap();
    assert_eq!(store.get(&a), Some(result(1)));
    assert_eq!(store.get_raw(&a.digest()).unwrap(), bytes_a);
    assert_eq!(store.get_raw(&b.digest()), None);
}

#[test]
fn concurrent_writers_compute_once() {
    let dir = scratch("flight");
    let store = Arc::new(packed(&dir, 1 << 20, 1 << 20));
    let computes = Arc::new(AtomicUsize::new(0));
    let k = key("cw");

    let mut handles = Vec::new();
    for _ in 0..2 {
        let store = store.clone();
        let computes = computes.clone();
        let k = k.clone();
        handles.push(thread::spawn(move || {
            store.get_or_compute(&k, || {
                computes.fetch_add(1, Ordering::SeqCst);
                // Give the other thread time to join as a follower.
                thread::sleep(std::time::Duration::from_millis(30));
                result(42)
            })
        }));
    }
    for h in handles {
        assert_eq!(h.join().unwrap(), result(42));
    }
    assert_eq!(
        computes.load(Ordering::SeqCst),
        1,
        "exactly one thread computed; the other waited or read the store"
    );
    assert_eq!(store.get(&k), Some(result(42)));
}

#[test]
fn gc_drops_sealed_segments_but_never_the_active_one() {
    let dir = scratch("gc");
    let store = packed(&dir, 0, 256); // tiny seal: every few puts roll
    for i in 0..20u64 {
        store.put(&key(&format!("gc{i}")), &result(i)).unwrap();
    }
    assert!(store.segments() > 3);

    // Learn the current on-disk footprint from a no-op pass.
    let full = store.gc(u64::MAX).unwrap();
    assert_eq!(full.evicted, 0);
    assert_eq!(full.kept, 20);

    let budget = full.kept_bytes / 2;
    let report = store.gc(budget).unwrap();
    assert!(report.evicted > 0);
    assert!(report.freed_bytes > 0);
    assert!(report.kept_bytes <= budget, "{report:?} vs budget {budget}");
    assert_eq!(report.kept, store.len());
    assert_eq!(report.kept + report.evicted, 20);

    // Survivors read back correctly, and a reopen agrees.
    drop(store);
    let store = packed(&dir, 0, 256);
    assert_eq!(store.len(), report.kept);
    for i in 0..20u64 {
        if let Some(r) = store.get(&key(&format!("gc{i}"))) {
            assert_eq!(r, result(i));
        }
    }

    // A cell written *during* GC accounting can never be collected:
    // it lands in the active segment, which GC skips by construction.
    let fresh = key("gc-during");
    store.put(&fresh, &result(777)).unwrap();
    let _ = store.gc(0).unwrap();
    assert_eq!(store.get(&fresh), Some(result(777)));
}

// ------------------------------------------------------- corruption

/// A store's whole on-disk state after twelve puts with a tiny seal
/// threshold, so most cells sit in sealed segments that
/// `packs/index.bin` covers; plus the cells that were put.
struct Sealed {
    /// `(name under packs/, bytes)` for every file there.
    files: Vec<(String, Vec<u8>)>,
    cells: Vec<(CellKey, SimResult)>,
}

fn sealed() -> &'static Sealed {
    static SEALED: std::sync::OnceLock<Sealed> = std::sync::OnceLock::new();
    SEALED.get_or_init(|| {
        let dir = scratch("flip-fixture");
        let cells: Vec<(CellKey, SimResult)> = (0..12u64)
            .map(|i| (key(&format!("f{i}")), result(i)))
            .collect();
        {
            let store = packed(&dir, 0, 256);
            for (k, r) in &cells {
                store.put(k, r).unwrap();
            }
        }
        let mut files: Vec<(String, Vec<u8>)> = fs::read_dir(dir.join("packs"))
            .unwrap()
            .map(|e| e.unwrap())
            .map(|e| {
                let name = e.file_name().into_string().unwrap();
                (name, fs::read(e.path()).unwrap())
            })
            .collect();
        files.sort();
        assert!(files.iter().any(|(n, _)| n == "index.bin"));
        assert!(files.iter().filter(|(n, _)| n.starts_with("seg-")).count() >= 4);
        Sealed { files, cells }
    })
}

/// Writes the sealed fixture into a fresh directory with the bytes at
/// `flips` (positions taken modulo the file's length) of the file
/// `target` picks XORed, reopens the store there and checks that every
/// read answers nothing or exactly what was put.
fn reopen_flipped(
    case: &str,
    pick: impl Fn(&str) -> bool,
    target: usize,
    flips: &[(usize, u8)],
) -> Result<(), TestCaseError> {
    static CASES: AtomicUsize = AtomicUsize::new(0);
    let fixture = sealed();
    let dir = scratch(&format!(
        "flip-{case}-{}",
        CASES.fetch_add(1, Ordering::Relaxed)
    ));
    let packs = dir.join("packs");
    fs::create_dir_all(&packs).unwrap();
    let candidates: Vec<&str> = fixture
        .files
        .iter()
        .map(|(n, _)| n.as_str())
        .filter(|n| pick(n))
        .collect();
    let flipped = candidates[target % candidates.len()];
    for (name, bytes) in &fixture.files {
        let mut bytes = bytes.clone();
        if name == flipped {
            for &(pos, flip) in flips {
                let len = bytes.len();
                bytes[pos % len] ^= flip;
            }
        }
        fs::write(packs.join(name), bytes).unwrap();
    }
    let store = packed(&dir, 0, 256);
    prop_assert!(store.len() <= fixture.cells.len());
    // Raw reads first: a typed read that rejects a cell also forgets
    // it, which would hide what a raw read of it serves.
    for (k, r) in &fixture.cells {
        if let Some(raw) = store.get_raw(&k.digest()) {
            prop_assert_eq!(
                raw,
                codec::encode(&k.canonical(), r),
                "{} flipped at {:?}",
                flipped,
                flips
            );
        }
    }
    for (k, r) in &fixture.cells {
        if let Some(got) = store.get(k) {
            prop_assert_eq!(&got, r, "{} flipped at {:?}", flipped, flips);
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn byte_flips_in_sealed_segments_never_serve_a_wrong_cell(
        target in 0usize..64,
        flips in prop::collection::vec((any::<usize>(), 1u8..=255), 1..4),
    ) {
        reopen_flipped("seg", |n| n.starts_with("seg-"), target, &flips)?;
    }

    #[test]
    fn byte_flips_in_the_persistent_index_never_serve_a_wrong_cell(
        // Its header fields, its records, or anywhere in the file.
        flips in prop::collection::vec(
            (prop_oneof![0usize..24, 4096usize..4096 + 12 * 40, any::<usize>()], 1u8..=255),
            1..4,
        ),
    ) {
        reopen_flipped("index", |n| n == "index.bin", 0, &flips)?;
    }
}

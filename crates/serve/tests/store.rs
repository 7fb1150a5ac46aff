//! Result-store integration tests: codec properties, tiered
//! round-trips, crash recovery, leftover flat trees, peer-object
//! validation, and segments deleted by hand.

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

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
        },
    )
    .unwrap()
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
fn a_leftover_flat_tree_is_not_read_or_removed() {
    // The pre-pack layout: one `codec::encode`d object per cell at
    // `objects/<aa>/<digest>.bin`, beside an `index.log` journal.
    let dir = scratch("flat-leftover");
    let cell = key("f1");
    let digest = cell.digest();
    let object = dir
        .join("objects")
        .join(&digest[..2])
        .join(format!("{digest}.bin"));
    fs::create_dir_all(object.parent().unwrap()).unwrap();
    fs::write(&object, codec::encode(&cell.canonical(), &result(1))).unwrap();
    let journal = dir.join("index.log");
    fs::write(&journal, b"legacy journal").unwrap();

    let store = packed(&dir, 1 << 20, 1 << 20);
    assert_eq!(store.get(&cell), None, "a flat object answered a cell");
    assert_eq!(store.len(), 0);
    drop(store);
    assert!(object.is_file(), "the store removed a file it does not own");
    assert!(
        journal.is_file(),
        "the store removed a file it does not own"
    );
}

/// The index file and `tmp/` directory an older store kept beside its
/// segments: the store reads its cells from the segments alone and
/// leaves both in place. The planted index is well formed (a `BPIX`
/// header page, then checksummed 40-byte records) and lies: one record
/// names a segment that is not on disk, one a cell no segment holds.
#[test]
fn a_leftover_index_and_tmp_dir_are_not_read_or_removed() {
    let dir = scratch("index-leftover");
    let cells: Vec<CellKey> = (0..12).map(|i| key(&format!("l{i}"))).collect();
    {
        let store = packed(&dir, 0, 256); // tiny seal: many sealed segments
        for (i, cell) in cells.iter().enumerate() {
            store.put(cell, &result(i as u64)).unwrap();
        }
    }
    let packs = dir.join("packs");
    let sealed_gen = fs::read_dir(&packs)
        .unwrap()
        .find_map(|entry| {
            let name = entry.unwrap().file_name().into_string().unwrap();
            let hex = name.strip_prefix("seg-")?.strip_suffix(".pack")?;
            u64::from_str_radix(hex, 16).ok()
        })
        .expect("a sealed segment");
    let mut records = Vec::new();
    for (digest, gen) in [(1u128, 1), (2, sealed_gen)] {
        records.extend_from_slice(&digest.to_le_bytes());
        records.extend_from_slice(&gen.to_le_bytes());
        records.extend_from_slice(&16u64.to_le_bytes()); // offset
        records.extend_from_slice(&8u32.to_le_bytes()); // len
        records.extend_from_slice(&0u32.to_le_bytes());
    }
    let mut index = vec![0u8; 4096];
    index[..4].copy_from_slice(b"BPIX");
    index[4..6].copy_from_slice(&1u16.to_le_bytes());
    index[8..16].copy_from_slice(&2u64.to_le_bytes());
    index[16..24].copy_from_slice(&bpred_trace::fnv::fnv64(&records).to_le_bytes());
    index.extend_from_slice(&records);
    let index_file = packs.join("index.bin");
    fs::write(&index_file, &index).unwrap();
    let tmp = dir.join("tmp");
    fs::create_dir_all(&tmp).unwrap();

    let store = packed(&dir, 0, 256);
    assert_eq!(store.len(), cells.len(), "only the scanned cells count");
    for (i, cell) in cells.iter().enumerate() {
        assert_eq!(store.get(cell), Some(result(i as u64)), "cell {i}");
        assert_eq!(
            store.get_raw(&cell.digest()),
            Some(codec::encode(&cell.canonical(), &result(i as u64))),
            "cell {i}"
        );
    }
    drop(store);
    assert_eq!(fs::read(&index_file).unwrap(), index, "the index changed");
    assert!(
        tmp.is_dir(),
        "the store removed a directory it does not own"
    );
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

/// The content addresses of the cells in a segment file, read frame by
/// frame: a 16-byte `BPSG` header, then `BPCL` frames of magic, u128
/// digest, u32 length, payload and u64 checksum.
fn segment_digests(bytes: &[u8]) -> Vec<String> {
    let mut digests = Vec::new();
    let mut pos = 16;
    while let Some(head) = bytes.get(pos..pos + 24) {
        assert_eq!(&head[..4], b"BPCL", "frame at byte {pos}");
        let digest = u128::from_le_bytes(head[4..20].try_into().unwrap());
        digests.push(format!("{digest:032x}"));
        let len = u32::from_le_bytes(head[20..24].try_into().unwrap()) as usize;
        pos += 24 + len + 8;
    }
    digests
}

/// The store only grows; it is trimmed offline by deleting sealed
/// segments. A reopen must read a deleted segment's cells as clean
/// misses and keep every other cell.
#[test]
fn a_deleted_sealed_segment_reads_as_misses() {
    let dir = scratch("trim");
    let cells: Vec<CellKey> = (0..20).map(|i| key(&format!("d{i}"))).collect();
    {
        let store = packed(&dir, 0, 256); // tiny seal: many sealed segments
        for (i, cell) in cells.iter().enumerate() {
            store.put(cell, &result(i as u64)).unwrap();
        }
    }
    let packs = dir.join("packs");
    let oldest = fs::read_dir(&packs)
        .unwrap()
        .map(|entry| entry.unwrap().path())
        .filter(|path| {
            path.file_name()
                .unwrap()
                .to_string_lossy()
                .starts_with("seg-")
        })
        .min()
        .expect("a sealed segment");
    let deleted = segment_digests(&fs::read(&oldest).unwrap());
    assert!(!deleted.is_empty());
    fs::remove_file(&oldest).unwrap();

    let survivors = cells.len() - deleted.len();
    for _ in 0..2 {
        let store = packed(&dir, 0, 256);
        // Counted before any read could forget a dangling entry.
        assert_eq!(store.len(), survivors);
        for (i, cell) in cells.iter().enumerate() {
            if deleted.contains(&cell.digest()) {
                assert_eq!(store.get(cell), None, "cell {i} was deleted");
                assert_eq!(store.get_raw(&cell.digest()), None, "cell {i}");
            } else {
                assert_eq!(store.get(cell), Some(result(i as u64)), "cell {i}");
            }
        }
        assert_eq!(store.len(), survivors);
    }

    // A deleted cell heals when it is stored again.
    let store = packed(&dir, 0, 256);
    let healed = cells.iter().position(|c| deleted.contains(&c.digest()));
    let healed = healed.expect("a deleted cell");
    store.put(&cells[healed], &result(healed as u64)).unwrap();
    assert_eq!(store.get(&cells[healed]), Some(result(healed as u64)));
    assert_eq!(store.len(), survivors + 1);
}

// ------------------------------------------------------- corruption

/// A store's whole on-disk state after twelve puts with a tiny seal
/// threshold, so most cells sit in sealed segments; plus the cells
/// that were put.
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
        assert!(files.iter().filter(|(n, _)| n.starts_with("seg-")).count() >= 4);
        Sealed { files, cells }
    })
}

/// Writes the sealed fixture into a fresh directory with the bytes at
/// `flips` (positions taken modulo the file's length) of the sealed
/// segment `target` picks XORed, reopens the store there and checks
/// that every read answers nothing or exactly what was put.
fn reopen_flipped(target: usize, flips: &[(usize, u8)]) -> Result<(), TestCaseError> {
    static CASES: AtomicUsize = AtomicUsize::new(0);
    let fixture = sealed();
    let dir = scratch(&format!("flip-{}", CASES.fetch_add(1, Ordering::Relaxed)));
    let packs = dir.join("packs");
    fs::create_dir_all(&packs).unwrap();
    let candidates: Vec<&str> = fixture
        .files
        .iter()
        .map(|(n, _)| n.as_str())
        .filter(|n| n.starts_with("seg-"))
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
        reopen_flipped(target, &flips)?;
    }
}

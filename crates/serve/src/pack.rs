//! Pack-segment disk tier: cells appended into large checksummed
//! segments, indexed in memory by scanning them at open.
//!
//! Replaces the one-file-per-object layout for scale — a hundred
//! million cells is a hundred million inodes in that layout, but
//! only a few thousand segments here. Layout:
//!
//! ```text
//! <root>/packs/seg-<gen:016x>.pack      sealed, immutable segment
//! <root>/packs/active-<pid>-<n>.pack    this process's append segment
//! ```
//!
//! *Segment format.* A 16-byte header (`BPSG` magic, format version,
//! generation number) followed by frames:
//!
//! ```text
//! magic   : 4 bytes  b"BPCL"
//! digest  : u128 LE  content address of the payload
//! len     : u32  LE  payload length in bytes
//! payload : len bytes (the codec encoding of the cell)
//! crc     : u64  LE  FNV-1a of digest‖len‖payload
//! ```
//!
//! Appends go to the process's own *active* segment; once it passes
//! the seal threshold it is renamed (atomically) to its immutable
//! `seg-<gen>` name and a fresh active segment starts. Generations
//! are allocated from a wall-clock base and checked unique on disk,
//! so segment age order is generation order.
//!
//! *Open.* The segments are the store's only on-disk state. Opening
//! a store scans every segment frame by frame into the in-memory
//! index; where one digest has frames in several segments, the newest
//! `(generation, offset)` wins, whatever order the directory lists
//! them in. A torn or corrupt frame ends its segment's scan, so that
//! frame and the segment's later cells read as misses and heal by
//! recomputation. A deleted segment's cells read as misses too. An
//! index file or `tmp/` directory that an older version of the store
//! left beside the segments is neither read nor removed.
//!
//! *Crash recovery.* An active segment left by a previous incarnation
//! of this process is truncated at the first torn or corrupt frame —
//! everything before the tear is kept — and appended to again.
//! Active segments owned by *other live processes* are scanned but
//! never truncated (their writer may still be appending; a partial
//! final frame simply ends the scan).
//!
//! *Growth.* Nothing here deletes a segment; a superseded or
//! forgotten frame stays in its segment as dead space. The store is
//! trimmed offline: with no process using it, delete old sealed
//! segments (oldest generation first) or the whole directory.
//!
//! *Held read handles.* Every segment's `SegMeta` carries a read
//! handle, so a cell read is one positioned read (`pread`) with no
//! path lookup, open or close. Active segments get theirs before any
//! of their frames is indexed, so a reader never sees a frame whose
//! segment it cannot read, whatever renames happen after. Sealed
//! segments open theirs on first read, and at most
//! `MAX_SEALED_HANDLES` stay open: the least recently read one is
//! closed to admit another.

use std::collections::BTreeMap;
use std::collections::HashMap;
use std::fs::{self, File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::process;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{SystemTime, UNIX_EPOCH};

use bpred_trace::fnv;

use crate::flight::lock_recover;

const PACKS_DIR: &str = "packs";

const SEG_MAGIC: &[u8; 4] = b"BPSG";
const SEG_VERSION: u16 = 1;
const SEG_HEADER_LEN: u64 = 16;

const FRAME_MAGIC: &[u8; 4] = b"BPCL";
/// magic + digest + len field + trailing crc.
const FRAME_OVERHEAD: u64 = 4 + 16 + 4 + 8;

/// Refuse to parse obviously insane frame lengths (the codec caps
/// bodies well below this); bounds damage from a corrupt length field.
const MAX_FRAME_PAYLOAD: u32 = 64 * 1024 * 1024;

const INDEX_STRIPES: usize = 16;

/// Most sealed segments whose read handle stays open at once. Sealed
/// segments outnumber it only in stores of hundreds of MiB (8 MiB
/// segments), whose reads then reopen the least recently read ones.
const MAX_SEALED_HANDLES: usize = 64;

/// Where a cell's payload lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Loc {
    gen: u64,
    /// Byte offset of the payload (not the frame) within the segment.
    offset: u64,
    /// Payload length in bytes.
    len: u32,
}

/// In-memory digest → location map, striped by the digest's top
/// nibble (the first hex character — same striping as the PR 7 flat
/// index and the single-flight table).
#[derive(Debug)]
struct StripedIndex {
    stripes: [Mutex<HashMap<u128, Loc>>; INDEX_STRIPES],
}

impl StripedIndex {
    fn new() -> StripedIndex {
        StripedIndex {
            stripes: std::array::from_fn(|_| Mutex::new(HashMap::new())),
        }
    }

    fn stripe(&self, digest: u128) -> MutexGuard<'_, HashMap<u128, Loc>> {
        let nibble = (digest >> 124) as usize & 0xf;
        // A poisoned stripe means a holder panicked between
        // single-statement map updates; the map is still consistent.
        lock_recover(&self.stripes[nibble])
    }

    fn get(&self, digest: u128) -> Option<Loc> {
        self.stripe(digest).get(&digest).copied()
    }

    /// Inserts `loc` unless an entry with a newer `(gen, offset)`
    /// already exists — makes open-time rescans idempotent no matter
    /// the order segments are visited in.
    fn insert_if_newer(&self, digest: u128, loc: Loc) {
        let mut map = self.stripe(digest);
        if map
            .get(&digest)
            .is_none_or(|old| (old.gen, old.offset) < (loc.gen, loc.offset))
        {
            map.insert(digest, loc);
        }
    }

    /// Removes the entry for `digest` only if it still points at
    /// `loc`; a newer entry put meanwhile stays.
    fn remove_if(&self, digest: u128, loc: Loc) {
        let mut map = self.stripe(digest);
        if map.get(&digest) == Some(&loc) {
            map.remove(&digest);
        }
    }

    fn len(&self) -> usize {
        self.stripes.iter().map(|s| lock_recover(s).len()).sum()
    }

    fn payload_bytes(&self) -> u64 {
        self.stripes
            .iter()
            .map(|s| {
                lock_recover(s)
                    .values()
                    .map(|l| u64::from(l.len))
                    .sum::<u64>()
            })
            .sum()
    }
}

/// Bookkeeping for one on-disk segment (sealed or active).
#[derive(Debug)]
struct SegMeta {
    /// The segment's name on disk; changed only under the `segs`
    /// lock, together with the rename.
    path: PathBuf,
    /// Sealed segments are immutable.
    sealed: bool,
    /// Read handle: always open for an active segment, opened on
    /// first read for a sealed one (see [`MAX_SEALED_HANDLES`]).
    reader: Option<Arc<File>>,
    /// The store's read clock at this segment's latest read.
    last_read: u64,
}

impl SegMeta {
    fn new(path: PathBuf, sealed: bool, reader: Option<File>) -> SegMeta {
        SegMeta {
            path,
            sealed,
            reader: reader.map(Arc::new),
            last_read: 0,
        }
    }
}

/// Closes the least recently read sealed handles until at most
/// [`MAX_SEALED_HANDLES`] are open. A reader still holding a closed
/// handle's `Arc` finishes its read first.
fn trim_sealed_handles(segs: &mut BTreeMap<u64, SegMeta>) {
    let mut open: Vec<&mut SegMeta> = segs
        .values_mut()
        .filter(|m| m.sealed && m.reader.is_some())
        .collect();
    while open.len() > MAX_SEALED_HANDLES {
        let oldest = (0..open.len())
            .min_by_key(|&i| open[i].last_read)
            .expect("more handles open than the limit");
        open.swap_remove(oldest).reader = None;
    }
}

/// The open append handle.
#[derive(Debug)]
struct Writer {
    file: File,
    gen: u64,
    path: PathBuf,
    /// Next append offset == current file length.
    offset: u64,
}

/// The pack-segment disk tier. All methods take `&self` and are safe
/// to call from many threads.
#[derive(Debug)]
pub struct PackStore {
    dir: PathBuf,
    index: StripedIndex,
    /// Created lazily on the first `put` (and after each seal), so a
    /// process that only reads never litters the directory with
    /// empty active segments.
    writer: Mutex<Option<Writer>>,
    segs: Mutex<BTreeMap<u64, SegMeta>>,
    seal_bytes: u64,
    /// Read clock for the least-recently-read handle choice; a
    /// statistic that publishes no other data.
    reads: AtomicU64,
}

fn seg_path(dir: &Path, gen: u64) -> PathBuf {
    dir.join(format!("seg-{gen:016x}.pack"))
}

fn parse_seg_name(name: &str) -> Option<u64> {
    let hex = name.strip_prefix("seg-")?.strip_suffix(".pack")?;
    (hex.len() == 16).then(|| u64::from_str_radix(hex, 16).ok())?
}

fn active_name() -> String {
    // A fresh name per (pid, in-process instance): re-opening the same
    // directory twice in one process never fights over one active
    // file, and a file matching our own pid+instance can only be a
    // dead predecessor's (safe to adopt and truncate).
    static INSTANCE: AtomicU64 = AtomicU64::new(0);
    let n = INSTANCE.fetch_add(1, Ordering::Relaxed);
    format!("active-{}-{n}.pack", process::id())
}

fn now_gen() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_nanos() as u64)
        .unwrap_or(1)
}

fn frame_crc(digest: u128, payload: &[u8]) -> u64 {
    let mut buf = Vec::with_capacity(20 + payload.len());
    buf.extend_from_slice(&digest.to_le_bytes());
    buf.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    buf.extend_from_slice(payload);
    fnv::fnv64(&buf)
}

fn encode_frame(digest: u128, payload: &[u8]) -> Vec<u8> {
    let mut frame = Vec::with_capacity(FRAME_OVERHEAD as usize + payload.len());
    frame.extend_from_slice(FRAME_MAGIC);
    frame.extend_from_slice(&digest.to_le_bytes());
    frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    frame.extend_from_slice(payload);
    frame.extend_from_slice(&frame_crc(digest, payload).to_le_bytes());
    frame
}

fn seg_header(gen: u64) -> [u8; SEG_HEADER_LEN as usize] {
    let mut header = [0u8; SEG_HEADER_LEN as usize];
    header[..4].copy_from_slice(SEG_MAGIC);
    header[4..6].copy_from_slice(&SEG_VERSION.to_le_bytes());
    header[8..16].copy_from_slice(&gen.to_le_bytes());
    header
}

/// The result of scanning one segment: its generation, every intact
/// frame as `(digest, payload offset, payload length)`, and the byte
/// length of the valid prefix.
type SegmentScan = (u64, Vec<(u128, u64, u32)>, u64);

/// One full pass over a segment file. A torn or corrupt frame ends
/// the scan; `None` means the file is not a recognisable segment at
/// all.
fn scan_segment(mut file: &File) -> io::Result<Option<SegmentScan>> {
    let mut bytes = Vec::new();
    file.read_to_end(&mut bytes)?;
    if bytes.len() < SEG_HEADER_LEN as usize || &bytes[..4] != SEG_MAGIC {
        return Ok(None);
    }
    let version = u16::from_le_bytes([bytes[4], bytes[5]]);
    if version != SEG_VERSION {
        return Ok(None);
    }
    let gen = u64::from_le_bytes(bytes[8..16].try_into().expect("8 header bytes"));
    let mut frames = Vec::new();
    let mut pos = SEG_HEADER_LEN as usize;
    while let Some(head) = bytes.get(pos..pos + 24) {
        if &head[..4] != FRAME_MAGIC {
            break;
        }
        let digest = u128::from_le_bytes(head[4..20].try_into().expect("16 digest bytes"));
        let len = u32::from_le_bytes(head[20..24].try_into().expect("4 len bytes"));
        if len > MAX_FRAME_PAYLOAD {
            break;
        }
        let payload_start = pos + 24;
        let Some(payload) = bytes.get(payload_start..payload_start + len as usize) else {
            break;
        };
        let Some(crc_bytes) =
            bytes.get(payload_start + len as usize..payload_start + len as usize + 8)
        else {
            break;
        };
        let crc = u64::from_le_bytes(crc_bytes.try_into().expect("8 crc bytes"));
        if frame_crc(digest, payload) != crc {
            break;
        }
        frames.push((digest, payload_start as u64, len));
        pos = payload_start + len as usize + 8;
    }
    Ok(Some((gen, frames, pos as u64)))
}

impl PackStore {
    /// Opens (creating if needed) the pack tier under `root`,
    /// indexing every segment on disk by scanning its frames and
    /// recovering any partial active segment of our own.
    pub fn open(root: &Path, seal_bytes: u64) -> io::Result<PackStore> {
        let dir = root.join(PACKS_DIR);
        fs::create_dir_all(&dir)?;

        let mut sealed: Vec<(u64, PathBuf)> = Vec::new();
        let mut actives: Vec<PathBuf> = Vec::new();
        for entry in fs::read_dir(&dir)? {
            let entry = entry?;
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            if let Some(gen) = parse_seg_name(name) {
                sealed.push((gen, entry.path()));
            } else if name.starts_with("active-") && name.ends_with(".pack") {
                actives.push(entry.path());
            }
        }

        let index = StripedIndex::new();
        let mut segs: BTreeMap<u64, SegMeta> = BTreeMap::new();
        for (gen, path) in sealed {
            if let Some((_, frames, _)) = scan_segment(&File::open(&path)?)? {
                for (digest, offset, len) in frames {
                    index.insert_if_newer(digest, Loc { gen, offset, len });
                }
            }
            segs.insert(gen, SegMeta::new(path, true, None));
        }

        // Recover our own leftover active (same pid + instance can
        // only be a dead predecessor: truncate the torn tail and
        // append after it). Foreign actives are scanned read-only —
        // their writer may be mid-append.
        let our_name = active_name();
        let our_path = dir.join(&our_name);
        let mut writer: Option<Writer> = None;
        for path in actives {
            // The scan reads through the handle reads will use, so it
            // stays valid when the segment's writer seals it later.
            let reader = File::open(&path)?;
            let Some((gen, frames, valid_len)) = scan_segment(&reader)? else {
                continue;
            };
            let ours = path == our_path;
            if ours && frames.is_empty() {
                // A dead predecessor's active that never landed a
                // frame: nothing to recover, delete the husk.
                let _ = fs::remove_file(&path);
                continue;
            }
            for &(digest, offset, len) in &frames {
                index.insert_if_newer(digest, Loc { gen, offset, len });
            }
            segs.insert(gen, SegMeta::new(path.clone(), false, Some(reader)));
            if ours {
                let file = OpenOptions::new().write(true).open(&path)?;
                file.set_len(valid_len)?;
                let mut file = file;
                file.seek(SeekFrom::Start(valid_len))?;
                writer = Some(Writer {
                    file,
                    gen,
                    path,
                    offset: valid_len,
                });
            }
        }
        // No leftover of our own to adopt: the writer stays `None`
        // until the first `put` creates a fresh active on demand.

        Ok(PackStore {
            dir,
            index,
            writer: Mutex::new(writer),
            segs: Mutex::new(segs),
            seal_bytes: seal_bytes.max(SEG_HEADER_LEN + FRAME_OVERHEAD),
            reads: AtomicU64::new(0),
        })
    }

    /// Number of live cells.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// Returns `true` when no cells are stored.
    pub fn is_empty(&self) -> bool {
        self.index.len() == 0
    }

    /// Payload bytes of live cells.
    pub fn payload_bytes(&self) -> u64 {
        self.index.payload_bytes()
    }

    /// Segments on disk (sealed + active).
    pub fn segments(&self) -> usize {
        self.lock_segs().len()
    }

    /// Whether a cell for `digest` is indexed.
    pub fn contains(&self, digest: u128) -> bool {
        self.index.get(digest).is_some()
    }

    fn lock_segs(&self) -> MutexGuard<'_, BTreeMap<u64, SegMeta>> {
        lock_recover(&self.segs)
    }

    fn lock_writer(&self) -> MutexGuard<'_, Option<Writer>> {
        lock_recover(&self.writer)
    }

    /// Reads the raw payload stored for `digest`, with the location
    /// read, which a caller that rejects the bytes passes to
    /// [`forget`](Self::forget). `None` on a miss or on any read
    /// failure (the entry is forgotten so the cell heals by
    /// recomputation). The bytes are not checked against the frame's
    /// CRC: every caller decodes them through a verifying codec before
    /// believing them.
    pub(crate) fn read(&self, digest: u128) -> Option<(Vec<u8>, Loc)> {
        let loc = self.index.get(digest)?;
        match self.read_loc(loc) {
            Ok(bytes) => Some((bytes, loc)),
            Err(_) => {
                self.forget(digest, loc);
                None
            }
        }
    }

    /// One positioned read of `loc`'s payload through its segment's
    /// held handle.
    fn read_loc(&self, loc: Loc) -> io::Result<Vec<u8>> {
        let file = self.reader(loc.gen)?;
        let mut buf = vec![0u8; loc.len as usize];
        file.read_exact_at(&mut buf, loc.offset)?;
        Ok(buf)
    }

    /// Segment `gen`'s read handle, opening a sealed segment's on its
    /// first read. `NotFound` for a segment the store does not hold.
    fn reader(&self, gen: u64) -> io::Result<Arc<File>> {
        let mut segs = self.lock_segs();
        let meta = segs.get_mut(&gen).ok_or(io::ErrorKind::NotFound)?;
        meta.last_read = self.reads.fetch_add(1, Ordering::Relaxed);
        if let Some(file) = &meta.reader {
            return Ok(file.clone());
        }
        let file = Arc::new(File::open(&meta.path)?);
        meta.reader = Some(file.clone());
        trim_sealed_handles(&mut segs);
        Ok(file)
    }

    /// Drops the index entry for `digest` if it still points at `loc`
    /// (the frame bytes stay in their segment as dead space). A newer
    /// entry put since `loc` was read stays.
    pub(crate) fn forget(&self, digest: u128, loc: Loc) {
        self.index.remove_if(digest, loc);
    }

    /// Sealed segments whose read handle is open.
    #[cfg(test)]
    fn open_sealed_handles(&self) -> usize {
        self.lock_segs()
            .values()
            .filter(|m| m.sealed && m.reader.is_some())
            .count()
    }

    /// Appends the payload for `digest` to the active segment,
    /// superseding any previous entry, and seals the segment once it
    /// passes the threshold.
    pub fn put(&self, digest: u128, payload: &[u8]) -> io::Result<()> {
        let frame = encode_frame(digest, payload);
        let mut guard = self.lock_writer();
        if guard.is_none() {
            let mut segs = self.lock_segs();
            *guard = Some(new_active(&self.dir, &active_name(), &mut segs)?);
        }
        let writer = guard.as_mut().expect("ensured above");
        writer.file.write_all(&frame)?;
        let loc = Loc {
            gen: writer.gen,
            offset: writer.offset + 24,
            len: payload.len() as u32,
        };
        writer.offset += frame.len() as u64;
        self.index.insert_if_newer(digest, loc);
        if writer.offset >= self.seal_bytes {
            let writer = guard.take().expect("held above");
            self.seal_writer(writer)?;
        }
        Ok(())
    }

    /// Seals the current active segment (even if small). A no-op when
    /// nothing has been appended.
    #[cfg(test)]
    fn seal_active(&self) -> io::Result<()> {
        let mut guard = self.lock_writer();
        let Some(writer) = guard.take() else {
            return Ok(());
        };
        if writer.offset <= SEG_HEADER_LEN {
            *guard = Some(writer); // nothing but the header yet
            return Ok(());
        }
        self.seal_writer(writer)
    }

    /// Renames an active segment to its immutable name. The next
    /// `put` starts a fresh active on demand. The rename happens under
    /// the `segs` lock, so whoever reads a `SegMeta.path` under it (a
    /// handle opened by path) sees the name the file has on disk.
    fn seal_writer(&self, mut writer: Writer) -> io::Result<()> {
        writer.file.flush()?;
        let sealed_path = seg_path(&self.dir, writer.gen);
        let mut segs = self.lock_segs();
        fs::rename(&writer.path, &sealed_path)?;
        if let Some(meta) = segs.get_mut(&writer.gen) {
            meta.path = sealed_path;
            meta.sealed = true;
            meta.last_read = self.reads.fetch_add(1, Ordering::Relaxed);
        }
        trim_sealed_handles(&mut segs);
        Ok(())
    }
}

fn new_active(dir: &Path, name: &str, segs: &mut BTreeMap<u64, SegMeta>) -> io::Result<Writer> {
    let mut gen = now_gen();
    while segs.contains_key(&gen) || seg_path(dir, gen).exists() {
        gen = gen.wrapping_add(1).max(1);
    }
    let path = dir.join(name);
    let mut file = OpenOptions::new()
        .create(true)
        .write(true)
        .truncate(true)
        .open(&path)?;
    file.write_all(&seg_header(gen))?;
    // The read handle exists before any frame of this segment is
    // indexed: a reader that finds one can read it after the seal's
    // rename too.
    let reader = File::open(&path)?;
    segs.insert(gen, SegMeta::new(path.clone(), false, Some(reader)));
    Ok(Writer {
        file,
        gen,
        path,
        offset: SEG_HEADER_LEN,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn payload(tag: u8, len: usize) -> Vec<u8> {
        (0..len).map(|i| tag.wrapping_add(i as u8)).collect()
    }

    /// The payload stored for `digest`, as the store read it.
    fn read_payload(store: &PackStore, digest: u128) -> Option<Vec<u8>> {
        store.read(digest).map(|(bytes, _)| bytes)
    }

    #[test]
    fn put_get_round_trip_survives_reopen() {
        let dir = tempdir("pack-roundtrip");
        let store = PackStore::open(&dir, 1 << 20).unwrap();
        for i in 0..50u128 {
            store.put(i, &payload(i as u8, 100 + i as usize)).unwrap();
        }
        assert_eq!(store.len(), 50);
        for i in 0..50u128 {
            assert_eq!(
                read_payload(&store, i).unwrap(),
                payload(i as u8, 100 + i as usize)
            );
        }
        drop(store);
        let reopened = PackStore::open(&dir, 1 << 20).unwrap();
        assert_eq!(reopened.len(), 50);
        assert_eq!(read_payload(&reopened, 7).unwrap(), payload(7, 107));
    }

    #[test]
    fn duplicate_put_supersedes_and_counts_once() {
        let dir = tempdir("pack-dup");
        let store = PackStore::open(&dir, 1 << 20).unwrap();
        store.put(42, &payload(1, 64)).unwrap();
        store.put(42, &payload(2, 96)).unwrap();
        assert_eq!(store.len(), 1);
        assert_eq!(read_payload(&store, 42).unwrap(), payload(2, 96));
    }

    #[test]
    fn sealing_rolls_the_active_segment() {
        let dir = tempdir("pack-seal");
        let store = PackStore::open(&dir, 256).unwrap();
        for i in 0..20u128 {
            store.put(i, &payload(i as u8, 128)).unwrap();
        }
        assert!(store.segments() > 2, "tiny seal threshold should roll");
        for i in 0..20u128 {
            assert_eq!(read_payload(&store, i).unwrap(), payload(i as u8, 128));
        }
    }

    #[test]
    fn torn_tail_is_truncated_and_prefix_kept() {
        let dir = tempdir("pack-torn");
        {
            let store = PackStore::open(&dir, 1 << 20).unwrap();
            for i in 0..10u128 {
                store.put(i, &payload(i as u8, 200)).unwrap();
            }
        }
        // Tear the active segment: append half a frame.
        let packs = dir.join(PACKS_DIR);
        let active = fs::read_dir(&packs)
            .unwrap()
            .filter_map(|e| e.ok())
            .find(|e| e.file_name().to_string_lossy().starts_with("active-"))
            .expect("active segment present")
            .path();
        let mut file = OpenOptions::new().append(true).open(&active).unwrap();
        file.write_all(FRAME_MAGIC).unwrap();
        file.write_all(&99u128.to_le_bytes()).unwrap();
        file.write_all(&500u32.to_le_bytes()).unwrap();
        file.write_all(&[0xab; 40]).unwrap(); // payload cut short
        drop(file);

        let reopened = PackStore::open(&dir, 1 << 20).unwrap();
        assert_eq!(reopened.len(), 10, "prefix survives the torn tail");
        for i in 0..10u128 {
            assert_eq!(read_payload(&reopened, i).unwrap(), payload(i as u8, 200));
        }
        assert!(read_payload(&reopened, 99).is_none());
    }

    #[test]
    fn sealed_segments_reopen_by_scan() {
        let dir = tempdir("pack-rescan");
        {
            let store = PackStore::open(&dir, 512).unwrap();
            for i in 0..30u128 {
                store.put(i, &payload(i as u8, 100)).unwrap();
            }
            store.seal_active().unwrap();
        }
        let reopened = PackStore::open(&dir, 512).unwrap();
        assert_eq!(reopened.len(), 30);
        for i in 0..30u128 {
            assert_eq!(read_payload(&reopened, i).unwrap(), payload(i as u8, 100));
        }
    }

    #[test]
    fn the_newest_frame_of_a_digest_wins_at_reopen() {
        let dir = tempdir("pack-newest");
        {
            // Digest 5 in each of eight sealed segments, newest last.
            let store = PackStore::open(&dir, 1 << 20).unwrap();
            for n in 0..8u8 {
                store.put(5, &payload(n, 64 + n as usize)).unwrap();
                store.put(100 + u128::from(n), &payload(n, 32)).unwrap();
                store.seal_active().unwrap();
            }
            assert_eq!(store.segments(), 8);
        }
        let reopened = PackStore::open(&dir, 1 << 20).unwrap();
        assert_eq!(reopened.len(), 9, "a superseded frame is not counted");
        assert_eq!(read_payload(&reopened, 5).unwrap(), payload(7, 71));
        for n in 0..8u8 {
            let digest = 100 + u128::from(n);
            assert_eq!(read_payload(&reopened, digest).unwrap(), payload(n, 32));
        }
    }

    #[test]
    fn a_corrupt_frame_ends_its_sealed_segments_scan() {
        let dir = tempdir("pack-corrupt-frame");
        let len = 100usize;
        {
            let store = PackStore::open(&dir, 1 << 20).unwrap();
            for i in 0..10u128 {
                store.put(i, &payload(i as u8, len)).unwrap();
            }
            store.seal_active().unwrap();
            for i in 10..15u128 {
                store.put(i, &payload(i as u8, len)).unwrap();
            }
            store.seal_active().unwrap();
        }
        // Flip one payload byte of frame 4 in the older segment.
        let oldest = fs::read_dir(dir.join(PACKS_DIR))
            .unwrap()
            .map(|e| e.unwrap().path())
            .min()
            .expect("two sealed segments");
        let mut bytes = fs::read(&oldest).unwrap();
        let frame = FRAME_OVERHEAD as usize + len;
        bytes[SEG_HEADER_LEN as usize + 4 * frame + 24 + 7] ^= 0x5a;
        fs::write(&oldest, &bytes).unwrap();

        let reopened = PackStore::open(&dir, 1 << 20).unwrap();
        assert_eq!(reopened.len(), 4 + 5);
        for i in 0..15u128 {
            let read = read_payload(&reopened, i);
            if (4..10).contains(&i) {
                assert_eq!(read, None, "cell {i} is at or after the corrupt frame");
            } else {
                assert_eq!(read, Some(payload(i as u8, len)), "cell {i}");
            }
        }
        reopened.put(4, &payload(4, len)).unwrap();
        assert_eq!(read_payload(&reopened, 4).unwrap(), payload(4, len));
        drop(reopened);
        let healed = PackStore::open(&dir, 1 << 20).unwrap();
        assert_eq!(read_payload(&healed, 4).unwrap(), payload(4, len));
        assert_eq!(healed.len(), 4 + 5 + 1);
    }

    #[test]
    fn a_location_taken_before_a_seal_reads_after_it() {
        let dir = tempdir("pack-seal-read");
        let store = PackStore::open(&dir, 1 << 20).unwrap();
        store.put(7, &payload(7, 300)).unwrap();
        // A reader finds the cell in the active segment, whose handle
        // was opened before the frame was indexed...
        let loc = store.index.get(7).unwrap();
        let (active, handle) = {
            let segs = store.lock_segs();
            let meta = &segs[&loc.gen];
            (
                meta.path.clone(),
                meta.reader.clone().expect("active holds a handle"),
            )
        };
        // ...and the writer seals (renames) the segment before the read.
        store.seal_active().unwrap();
        assert!(!active.exists(), "the seal renamed the active segment");
        assert!(Arc::ptr_eq(&handle, &store.reader(loc.gen).unwrap()));
        assert_eq!(store.read_loc(loc).unwrap(), payload(7, 300));
        assert_eq!(store.read(7), Some((payload(7, 300), loc)));
        assert!(store.contains(7), "the cell stays indexed");
    }

    #[test]
    fn forget_drops_only_the_location_that_was_read() {
        let dir = tempdir("pack-forget");
        let store = PackStore::open(&dir, 1 << 20).unwrap();
        store.put(42, &payload(1, 64)).unwrap();
        let stale = store.index.get(42).unwrap();
        store.put(42, &payload(2, 96)).unwrap();
        store.forget(42, stale);
        assert_eq!(
            read_payload(&store, 42).unwrap(),
            payload(2, 96),
            "newer entry kept"
        );
        store.forget(42, store.index.get(42).unwrap());
        assert!(!store.contains(42));
        assert_eq!(store.payload_bytes(), 0);
    }

    #[test]
    fn sealed_handles_stay_within_the_limit() {
        let dir = tempdir("pack-handles");
        let cells = MAX_SEALED_HANDLES as u128 + 8;
        let store = PackStore::open(&dir, 1 << 20).unwrap();
        for i in 0..cells {
            store.put(i, &payload(i as u8, 64 + i as usize)).unwrap();
            store.seal_active().unwrap();
        }
        assert_eq!(
            store.segments(),
            cells as usize,
            "one sealed segment a cell"
        );
        assert_eq!(store.open_sealed_handles(), MAX_SEALED_HANDLES);
        drop(store);
        let store = PackStore::open(&dir, 1 << 20).unwrap();
        assert_eq!(
            store.open_sealed_handles(),
            0,
            "sealed handles open on first read"
        );
        for _ in 0..2 {
            for i in (0..cells).rev() {
                assert_eq!(
                    read_payload(&store, i).unwrap(),
                    payload(i as u8, 64 + i as usize)
                );
                assert!(store.open_sealed_handles() <= MAX_SEALED_HANDLES);
            }
        }
        assert_eq!(store.len(), cells as usize);
        assert_eq!(store.open_sealed_handles(), MAX_SEALED_HANDLES);
    }

    /// A fresh scratch directory, removed with its contents on drop.
    struct TempDir(PathBuf);

    impl std::ops::Deref for TempDir {
        type Target = Path;

        fn deref(&self) -> &Path {
            &self.0
        }
    }

    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = fs::remove_dir_all(&self.0);
        }
    }

    fn tempdir(tag: &str) -> TempDir {
        static N: AtomicU64 = AtomicU64::new(0);
        let n = N.fetch_add(1, Ordering::Relaxed);
        let dir =
            std::env::temp_dir().join(format!("bpred-{tag}-{}-{n}-{:x}", process::id(), now_gen()));
        fs::create_dir_all(&dir).unwrap();
        TempDir(dir)
    }
}

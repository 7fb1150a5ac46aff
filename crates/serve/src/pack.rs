//! Pack-segment disk tier: cells appended into large checksummed
//! segments with a page-aligned persistent index.
//!
//! Replaces the one-file-per-object layout for scale — a hundred
//! million cells is a hundred million inodes in that layout, but
//! only a few thousand segments here. Layout:
//!
//! ```text
//! <root>/packs/seg-<gen:016x>.pack      sealed, immutable segment
//! <root>/packs/active-<pid>-<n>.pack    this process's append segment
//! <root>/packs/index.bin                persistent index of sealed cells
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
//! *Crash recovery.* Opening a store scans any active segment left by
//! a previous incarnation frame by frame and truncates at the first
//! torn or corrupt frame — everything before the tear is kept.
//! Active segments owned by *other live processes* are scanned but
//! never truncated (their writer may still be appending; a partial
//! final frame simply ends the scan).
//!
//! *Persistent index.* `index.bin` is a page-aligned snapshot of the
//! sealed cells: a 4 KiB header page (`BPIX` magic, entry count,
//! checksum) followed by fixed 40-byte records, so it can be read
//! back in one pass (or mapped) without parsing. It covers sealed
//! segments only and is rewritten atomically at seal/GC; active
//! segments are always rescanned at open, and a missing or corrupt
//! index is rebuilt by scanning every segment. The index is an
//! optimisation, never the source of truth.
//!
//! *GC by segment generation.* [`PackStore::gc`] never touches an
//! active segment, so a cell being written can never be collected —
//! eviction drops whole sealed segments, oldest generation first,
//! and compacts mostly-dead sealed segments by rewriting their live
//! frames into the current active segment.
//!
//! *Held read handles.* Every segment's `SegMeta` carries a read
//! handle, so a cell read is one positioned read (`pread`) with no
//! path lookup, open or close. Active segments get theirs before any
//! of their frames is indexed, so a reader never sees a frame whose
//! segment it cannot read, whatever renames happen after. Sealed
//! segments open theirs on first read, and at most
//! `MAX_SEALED_HANDLES` stay open: the least recently read one is
//! closed to admit another. A handle is dropped with its `SegMeta`,
//! so GC frees a deleted segment's disk space at once.

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
const TMP_DIR: &str = "tmp";
const INDEX_FILE: &str = "index.bin";

const SEG_MAGIC: &[u8; 4] = b"BPSG";
const SEG_VERSION: u16 = 1;
const SEG_HEADER_LEN: u64 = 16;

const FRAME_MAGIC: &[u8; 4] = b"BPCL";
/// magic + digest + len field + trailing crc.
const FRAME_OVERHEAD: u64 = 4 + 16 + 4 + 8;

const INDEX_MAGIC: &[u8; 4] = b"BPIX";
const INDEX_VERSION: u16 = 1;
/// The header occupies one whole page so the record array that
/// follows is page-aligned (mmap- and read-once-friendly).
const INDEX_PAGE: usize = 4096;
const INDEX_ENTRY_LEN: usize = 40;

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
    /// the order segments are visited in. Returns the superseded
    /// location, if any.
    fn insert_if_newer(&self, digest: u128, loc: Loc) -> Option<Loc> {
        let mut map = self.stripe(digest);
        match map.get(&digest).copied() {
            Some(old) if (old.gen, old.offset) >= (loc.gen, loc.offset) => None,
            old => {
                map.insert(digest, loc);
                old
            }
        }
    }

    /// Removes the entry for `digest` only if it still points at
    /// `loc`; a newer entry put meanwhile stays.
    fn remove_if(&self, digest: u128, loc: Loc) -> bool {
        let mut map = self.stripe(digest);
        let matches = map.get(&digest) == Some(&loc);
        if matches {
            map.remove(&digest);
        }
        matches
    }

    /// Removes every entry pointing into segment `gen`.
    fn remove_gen(&self, gen: u64) -> usize {
        let mut removed = 0;
        for stripe in &self.stripes {
            let mut map = lock_recover(stripe);
            let before = map.len();
            map.retain(|_, loc| loc.gen != gen);
            removed += before - map.len();
        }
        removed
    }

    /// Entries pointing into segment `gen`.
    fn collect_gen(&self, gen: u64) -> Vec<(u128, Loc)> {
        let mut out = Vec::new();
        for stripe in &self.stripes {
            let map = lock_recover(stripe);
            out.extend(
                map.iter()
                    .filter(|(_, l)| l.gen == gen)
                    .map(|(&d, &l)| (d, l)),
            );
        }
        out
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

    /// Point-in-time copy (not atomic across stripes; callers
    /// tolerate concurrent churn).
    fn snapshot(&self) -> Vec<(u128, Loc)> {
        let mut out = Vec::with_capacity(self.len());
        for stripe in &self.stripes {
            let map = lock_recover(stripe);
            out.extend(map.iter().map(|(&d, &l)| (d, l)));
        }
        out
    }
}

/// Bookkeeping for one on-disk segment (sealed or active).
#[derive(Debug)]
struct SegMeta {
    /// The segment's name on disk; changed only under the `segs`
    /// lock, together with the rename.
    path: PathBuf,
    /// File size in bytes (valid prefix for a foreign active).
    bytes: u64,
    /// Cells in the index that still point here.
    live_cells: u64,
    /// Payload bytes of those live cells.
    live_bytes: u64,
    /// Sealed segments are immutable and GC-eligible.
    sealed: bool,
    /// `true` for this process's own active segment.
    ours: bool,
    /// Read handle: always open for an active segment, opened on
    /// first read for a sealed one (see [`MAX_SEALED_HANDLES`]).
    reader: Option<Arc<File>>,
    /// The store's read clock at this segment's latest read.
    last_read: u64,
}

impl SegMeta {
    fn new(path: PathBuf, bytes: u64, sealed: bool, ours: bool, reader: Option<File>) -> SegMeta {
        SegMeta {
            path,
            bytes,
            live_cells: 0,
            live_bytes: 0,
            sealed,
            ours,
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

/// What a [`PackStore::gc`] pass did (cells and file bytes).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct GcReport {
    /// Live cells dropped with their segments.
    pub evicted: usize,
    /// Segment file bytes deleted.
    pub freed_bytes: u64,
    /// Segments rewritten by compaction.
    pub compacted_segments: usize,
    /// Cells remaining.
    pub kept: usize,
    /// File bytes remaining across all segments.
    pub kept_bytes: u64,
}

/// The pack-segment disk tier. All methods take `&self` and are safe
/// to call from many threads.
#[derive(Debug)]
pub struct PackStore {
    dir: PathBuf,
    tmp: PathBuf,
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
    /// recovering any partial active segment and merging the
    /// persistent index with whatever segments exist on disk.
    pub fn open(root: &Path, seal_bytes: u64) -> io::Result<PackStore> {
        let dir = root.join(PACKS_DIR);
        let tmp = root.join(TMP_DIR);
        fs::create_dir_all(&dir)?;
        fs::create_dir_all(&tmp)?;

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
        for (gen, path) in &sealed {
            let bytes = fs::metadata(path)?.len();
            segs.insert(*gen, SegMeta::new(path.clone(), bytes, true, false, None));
        }

        // The persistent index covers sealed segments; entries for
        // segments that no longer exist are dropped, and sealed
        // segments it does not mention get rescanned below.
        let mut covered: std::collections::HashSet<u64> = std::collections::HashSet::new();
        if let Some(entries) = load_index_file(&dir.join(INDEX_FILE)) {
            for (digest, loc) in entries {
                if segs.contains_key(&loc.gen) {
                    covered.insert(loc.gen);
                    index.insert_if_newer(digest, loc);
                }
            }
        }
        let mut index_dirty = false;
        for (gen, path) in &sealed {
            if covered.contains(gen) {
                continue;
            }
            index_dirty = true;
            if let Some((_, frames, _)) = scan_segment(&File::open(path)?)? {
                for (digest, offset, len) in frames {
                    index.insert_if_newer(
                        digest,
                        Loc {
                            gen: *gen,
                            offset,
                            len,
                        },
                    );
                }
            }
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
            if ours {
                let file = OpenOptions::new().write(true).open(&path)?;
                file.set_len(valid_len)?;
                let mut file = file;
                file.seek(SeekFrom::Start(valid_len))?;
                segs.insert(
                    gen,
                    SegMeta::new(path.clone(), valid_len, false, true, Some(reader)),
                );
                writer = Some(Writer {
                    file,
                    gen,
                    path,
                    offset: valid_len,
                });
            } else {
                segs.insert(
                    gen,
                    SegMeta::new(path, valid_len, false, false, Some(reader)),
                );
            }
        }
        // No leftover of our own to adopt: the writer stays `None`
        // until the first `put` creates a fresh active on demand.

        // Live-cell accounting per segment, from the merged index.
        for (_, loc) in index.snapshot() {
            if let Some(meta) = segs.get_mut(&loc.gen) {
                meta.live_cells += 1;
                meta.live_bytes += u64::from(loc.len);
            }
        }

        let store = PackStore {
            dir,
            tmp,
            index,
            writer: Mutex::new(writer),
            segs: Mutex::new(segs),
            seal_bytes: seal_bytes.max(SEG_HEADER_LEN + FRAME_OVERHEAD),
            reads: AtomicU64::new(0),
        };
        if index_dirty {
            let _ = store.write_index();
        }
        Ok(store)
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

    /// File bytes across all segments (sealed + active).
    pub fn file_bytes(&self) -> u64 {
        self.lock_segs().values().map(|m| m.bytes).sum()
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

    /// Reads the raw payload stored for `digest`. `None` on a miss or
    /// on any read failure (the entry is forgotten so the cell heals
    /// by recomputation).
    pub fn get(&self, digest: u128) -> Option<Vec<u8>> {
        self.read(digest).map(|(bytes, _)| bytes)
    }

    /// [`get`](Self::get), also returning the location read, which a
    /// caller that rejects the bytes passes to [`forget`](Self::forget).
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
    /// first read. `NotFound` once GC has dropped the segment.
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
    /// (the frame bytes stay in their segment as dead space until GC).
    /// A newer entry put since `loc` was read stays.
    pub(crate) fn forget(&self, digest: u128, loc: Loc) {
        if self.index.remove_if(digest, loc) {
            let mut segs = self.lock_segs();
            if let Some(meta) = segs.get_mut(&loc.gen) {
                meta.live_cells = meta.live_cells.saturating_sub(1);
                meta.live_bytes = meta.live_bytes.saturating_sub(u64::from(loc.len));
            }
        }
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
        let full = writer.offset >= self.seal_bytes;
        {
            let mut segs = self.lock_segs();
            if let Some(meta) = segs.get_mut(&writer.gen) {
                meta.bytes = writer.offset;
                meta.live_cells += 1;
                meta.live_bytes += u64::from(loc.len);
            }
            if let Some(old) = self.index.insert_if_newer(digest, loc) {
                if let Some(meta) = segs.get_mut(&old.gen) {
                    meta.live_cells = meta.live_cells.saturating_sub(1);
                    meta.live_bytes = meta.live_bytes.saturating_sub(u64::from(old.len));
                }
            }
        }
        if full {
            let writer = guard.take().expect("held above");
            self.seal_writer(writer)?;
            drop(guard);
            let _ = self.write_index();
        }
        Ok(())
    }

    /// Seals the current active segment (even if small); used by
    /// tests and `store migrate` to leave a fully indexed store
    /// behind. A no-op when nothing has been appended.
    pub fn seal_active(&self) -> io::Result<()> {
        let mut guard = self.lock_writer();
        let Some(writer) = guard.take() else {
            return Ok(());
        };
        if writer.offset <= SEG_HEADER_LEN {
            *guard = Some(writer); // nothing but the header yet
            return Ok(());
        }
        self.seal_writer(writer)?;
        drop(guard);
        self.write_index()
    }

    /// Renames an active segment to its immutable name. The next
    /// `put` starts a fresh active on demand. The rename happens under
    /// the `segs` lock, so whoever reads a `SegMeta.path` under it
    /// (a handle opened by path, GC deleting a file) sees the name
    /// the file has on disk.
    fn seal_writer(&self, mut writer: Writer) -> io::Result<()> {
        writer.file.flush()?;
        let sealed_path = seg_path(&self.dir, writer.gen);
        let mut segs = self.lock_segs();
        fs::rename(&writer.path, &sealed_path)?;
        if let Some(meta) = segs.get_mut(&writer.gen) {
            meta.path = sealed_path;
            meta.sealed = true;
            meta.ours = false;
            meta.last_read = self.reads.fetch_add(1, Ordering::Relaxed);
        }
        trim_sealed_handles(&mut segs);
        Ok(())
    }

    /// Writes the page-aligned persistent index (sealed cells only)
    /// atomically via a temp file + rename.
    pub fn write_index(&self) -> io::Result<()> {
        let sealed: std::collections::HashSet<u64> = self
            .lock_segs()
            .iter()
            .filter(|(_, m)| m.sealed)
            .map(|(&g, _)| g)
            .collect();
        let mut entries: Vec<(u128, Loc)> = self
            .index
            .snapshot()
            .into_iter()
            .filter(|(_, loc)| sealed.contains(&loc.gen))
            .collect();
        entries.sort_by_key(|&(d, _)| d); // deterministic for same content

        let mut records = Vec::with_capacity(entries.len() * INDEX_ENTRY_LEN);
        for (digest, loc) in &entries {
            records.extend_from_slice(&digest.to_le_bytes());
            records.extend_from_slice(&loc.gen.to_le_bytes());
            records.extend_from_slice(&loc.offset.to_le_bytes());
            records.extend_from_slice(&loc.len.to_le_bytes());
            records.extend_from_slice(&0u32.to_le_bytes());
        }
        let mut header = vec![0u8; INDEX_PAGE];
        header[..4].copy_from_slice(INDEX_MAGIC);
        header[4..6].copy_from_slice(&INDEX_VERSION.to_le_bytes());
        header[8..16].copy_from_slice(&(entries.len() as u64).to_le_bytes());
        header[16..24].copy_from_slice(&fnv::fnv64(&records).to_le_bytes());

        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let n = COUNTER.fetch_add(1, Ordering::Relaxed);
        let tmp = self.tmp.join(format!("index.{}.{n}", process::id()));
        let mut file = File::create(&tmp)?;
        file.write_all(&header)?;
        file.write_all(&records)?;
        drop(file);
        fs::rename(&tmp, self.dir.join(INDEX_FILE))
    }

    /// Trims the store to at most `max_bytes` of segment files by
    /// dropping whole sealed segments, oldest generation first, then
    /// compacts sealed segments that are mostly dead space by
    /// rewriting their live frames into the active segment.
    ///
    /// Active segments are never evicted or rewritten, so a cell
    /// being appended concurrently can never be collected.
    pub fn gc(&self, max_bytes: u64) -> io::Result<GcReport> {
        let mut report = GcReport::default();
        let mut total = self.file_bytes();

        let victims: Vec<(u64, PathBuf, u64)> = self
            .lock_segs()
            .iter()
            .filter(|(_, m)| m.sealed)
            .map(|(&g, m)| (g, m.path.clone(), m.bytes))
            .collect();
        for (gen, path, bytes) in victims {
            if total <= max_bytes {
                break;
            }
            report.evicted += self.index.remove_gen(gen);
            let _ = fs::remove_file(&path);
            self.lock_segs().remove(&gen);
            report.freed_bytes += bytes;
            total -= bytes;
        }

        // Compaction: a sealed segment whose live payload (plus frame
        // overhead) fills less than half its file is rewritten.
        let candidates: Vec<(u64, PathBuf)> = self
            .lock_segs()
            .iter()
            .filter(|(_, m)| {
                m.sealed
                    && (m.live_bytes + m.live_cells * FRAME_OVERHEAD + SEG_HEADER_LEN) * 2 < m.bytes
            })
            .map(|(&g, m)| (g, m.path.clone()))
            .collect();
        for (gen, path) in candidates {
            for (digest, loc) in self.index.collect_gen(gen) {
                // The codec layer re-validates payloads at decode, so
                // a plain byte copy is enough here.
                if let Ok(payload) = self.read_loc(loc) {
                    self.put(digest, &payload)?;
                }
            }
            // Anything still pointing here failed its rewrite read.
            self.index.remove_gen(gen);
            let _ = fs::remove_file(&path);
            self.lock_segs().remove(&gen);
            report.compacted_segments += 1;
        }

        let _ = self.write_index();
        report.kept = self.index.len();
        report.kept_bytes = self.file_bytes();
        Ok(report)
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
    segs.insert(
        gen,
        SegMeta::new(path.clone(), SEG_HEADER_LEN, false, true, Some(reader)),
    );
    Ok(Writer {
        file,
        gen,
        path,
        offset: SEG_HEADER_LEN,
    })
}

/// Reads and validates `index.bin`; `None` means absent or corrupt
/// (callers fall back to scanning segments).
fn load_index_file(path: &Path) -> Option<Vec<(u128, Loc)>> {
    let bytes = fs::read(path).ok()?;
    if bytes.len() < INDEX_PAGE || &bytes[..4] != INDEX_MAGIC {
        return None;
    }
    let version = u16::from_le_bytes([bytes[4], bytes[5]]);
    if version != INDEX_VERSION {
        return None;
    }
    let count = u64::from_le_bytes(bytes[8..16].try_into().ok()?) as usize;
    let checksum = u64::from_le_bytes(bytes[16..24].try_into().ok()?);
    let records = bytes.get(INDEX_PAGE..INDEX_PAGE + count.checked_mul(INDEX_ENTRY_LEN)?)?;
    if fnv::fnv64(records) != checksum {
        return None;
    }
    let mut entries = Vec::with_capacity(count);
    for rec in records.chunks_exact(INDEX_ENTRY_LEN) {
        let digest = u128::from_le_bytes(rec[..16].try_into().ok()?);
        let gen = u64::from_le_bytes(rec[16..24].try_into().ok()?);
        let offset = u64::from_le_bytes(rec[24..32].try_into().ok()?);
        let len = u32::from_le_bytes(rec[32..36].try_into().ok()?);
        entries.push((digest, Loc { gen, offset, len }));
    }
    Some(entries)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn payload(tag: u8, len: usize) -> Vec<u8> {
        (0..len).map(|i| tag.wrapping_add(i as u8)).collect()
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
            assert_eq!(store.get(i).unwrap(), payload(i as u8, 100 + i as usize));
        }
        drop(store);
        let reopened = PackStore::open(&dir, 1 << 20).unwrap();
        assert_eq!(reopened.len(), 50);
        assert_eq!(reopened.get(7).unwrap(), payload(7, 107));
    }

    #[test]
    fn duplicate_put_supersedes_and_counts_once() {
        let dir = tempdir("pack-dup");
        let store = PackStore::open(&dir, 1 << 20).unwrap();
        store.put(42, &payload(1, 64)).unwrap();
        store.put(42, &payload(2, 96)).unwrap();
        assert_eq!(store.len(), 1);
        assert_eq!(store.get(42).unwrap(), payload(2, 96));
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
            assert_eq!(store.get(i).unwrap(), payload(i as u8, 128));
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
            assert_eq!(reopened.get(i).unwrap(), payload(i as u8, 200));
        }
        assert!(reopened.get(99).is_none());
    }

    #[test]
    fn index_rebuild_from_packs_matches() {
        let dir = tempdir("pack-rebuild");
        {
            let store = PackStore::open(&dir, 512).unwrap();
            for i in 0..30u128 {
                store.put(i, &payload(i as u8, 100)).unwrap();
            }
            store.seal_active().unwrap();
        }
        fs::remove_file(dir.join(PACKS_DIR).join(INDEX_FILE)).unwrap();
        let rebuilt = PackStore::open(&dir, 512).unwrap();
        assert_eq!(rebuilt.len(), 30);
        for i in 0..30u128 {
            assert_eq!(rebuilt.get(i).unwrap(), payload(i as u8, 100));
        }
        assert!(
            dir.join(PACKS_DIR).join(INDEX_FILE).exists(),
            "rebuild rewrites the persistent index"
        );
    }

    #[test]
    fn corrupt_index_falls_back_to_scan() {
        let dir = tempdir("pack-badindex");
        {
            let store = PackStore::open(&dir, 512).unwrap();
            for i in 0..20u128 {
                store.put(i, &payload(i as u8, 100)).unwrap();
            }
            store.seal_active().unwrap();
        }
        let index_path = dir.join(PACKS_DIR).join(INDEX_FILE);
        let mut bytes = fs::read(&index_path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xff;
        fs::write(&index_path, &bytes).unwrap();
        let reopened = PackStore::open(&dir, 512).unwrap();
        assert_eq!(reopened.len(), 20);
    }

    #[test]
    fn gc_never_touches_the_active_segment() {
        let dir = tempdir("pack-gc-active");
        let store = PackStore::open(&dir, 1 << 20).unwrap();
        for i in 0..10u128 {
            store.put(i, &payload(i as u8, 100)).unwrap();
        }
        // Everything is in the (unsealable) active segment: a zero
        // budget must evict nothing.
        let report = store.gc(0).unwrap();
        assert_eq!(report.evicted, 0);
        assert_eq!(store.len(), 10);
    }

    #[test]
    fn gc_drops_oldest_sealed_segments_to_budget() {
        let dir = tempdir("pack-gc-budget");
        let store = PackStore::open(&dir, 400).unwrap();
        for i in 0..30u128 {
            store.put(i, &payload(i as u8, 100)).unwrap();
        }
        let before = store.file_bytes();
        assert!(store.segments() > 3);
        let report = store.gc(before / 2).unwrap();
        assert!(report.evicted > 0);
        assert!(report.freed_bytes > 0);
        assert!(store.file_bytes() < before);
        // Newest cells survive (they live in the newest segments).
        assert!(store.get(29).is_some());
        // Survivors still read back correctly after the pass.
        for i in 0..30u128 {
            if let Some(bytes) = store.get(i) {
                assert_eq!(bytes, payload(i as u8, 100));
            }
        }
    }

    #[test]
    fn compaction_rewrites_mostly_dead_segments() {
        let dir = tempdir("pack-compact");
        let store = PackStore::open(&dir, 2048).unwrap();
        for i in 0..40u128 {
            store.put(i, &payload(i as u8, 100)).unwrap();
        }
        store.seal_active().unwrap();
        // Kill most cells so sealed segments go mostly-dead.
        for i in 0..36u128 {
            store.forget(i, store.index.get(i).unwrap());
        }
        let before_segments = store.segments();
        let report = store.gc(u64::MAX).unwrap();
        assert!(report.compacted_segments > 0, "{report:?}");
        assert!(store.segments() < before_segments);
        for i in 36..40u128 {
            assert_eq!(store.get(i).unwrap(), payload(i as u8, 100), "cell {i}");
        }
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
        assert_eq!(store.get(42).unwrap(), payload(2, 96), "newer entry kept");
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
                assert_eq!(store.get(i).unwrap(), payload(i as u8, 64 + i as usize));
                assert!(store.open_sealed_handles() <= MAX_SEALED_HANDLES);
            }
        }
        assert_eq!(store.len(), cells as usize);
        assert_eq!(store.open_sealed_handles(), MAX_SEALED_HANDLES);
    }

    #[test]
    fn gc_closes_the_handles_of_deleted_segments() {
        let dir = tempdir("pack-gc-handles");
        // Three 100-byte cells a segment: cells 3k..3k+3 share one.
        let store = PackStore::open(&dir, 400).unwrap();
        for i in 0..30u128 {
            store.put(i, &payload(i as u8, 100)).unwrap();
        }
        store.seal_active().unwrap();
        for i in [19u128, 20, 22, 23, 25, 26] {
            store.forget(i, store.index.get(i).unwrap());
        }
        // Every sealed segment's handle is open before the pass.
        assert_eq!(store.open_sealed_handles(), 10);
        assert_eq!(fds_under(&dir).len(), 10);
        let report = store.gc(store.file_bytes() / 2).unwrap();
        assert!(report.evicted > 0, "{report:?}");
        assert!(report.compacted_segments > 0, "{report:?}");
        let deleted: Vec<String> = fds_under(&dir)
            .into_iter()
            .filter(|link| link.ends_with(" (deleted)"))
            .collect();
        assert!(deleted.is_empty(), "fds on deleted segments: {deleted:?}");
        for i in 0..30u128 {
            if let Some(bytes) = store.get(i) {
                assert_eq!(bytes, payload(i as u8, 100));
            }
        }
    }

    /// Targets of this process's open fds that lie under `dir`.
    fn fds_under(dir: &Path) -> Vec<String> {
        let dir = dir.canonicalize().unwrap();
        let dir = dir.to_string_lossy();
        fs::read_dir("/proc/self/fd")
            .unwrap()
            .filter_map(|entry| fs::read_link(entry.ok()?.path()).ok())
            .map(|target| target.to_string_lossy().into_owned())
            .filter(|target| target.starts_with(&*dir))
            .collect()
    }

    fn tempdir(tag: &str) -> PathBuf {
        static N: AtomicU64 = AtomicU64::new(0);
        let n = N.fetch_add(1, Ordering::Relaxed);
        let dir =
            std::env::temp_dir().join(format!("bpred-{tag}-{}-{n}-{:x}", process::id(), now_gen()));
        fs::create_dir_all(&dir).unwrap();
        dir
    }
}

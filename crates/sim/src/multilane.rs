//! Multi-lane replay: many predictor configurations advance through
//! one record stream with data-parallel kernels.
//!
//! The scalar batch engine replays lane-major: each lane walks a whole
//! chunk through its own serial predict/update chain, so throughput is
//! bounded by the latency of one chain. [`LaneSet`] regroups the work
//! by *dispatch tier* so independent lanes (and, for history-free
//! schemes, independent records) are stepped together:
//!
//! * **Record-parallel statics** — always-taken, always-not-taken and
//!   BTFN have no state, so whole chunks collapse into popcounts over
//!   the [`TraceChunk`] metadata words (sixteen records per `u64` op)
//!   and one branchless pass over the pc/target columns.
//! * **Lane groups** — every other configuration reduces to a
//!   [`WalkPlan`] (a first-level history read, one to three counter
//!   reads over a shared arena, and a combine/update rule) and shares
//!   a monomorphic, lane-major loop with up to [`cell::PACKED_LANES`]
//!   other lanes of the same [`PlanKind`]. Every group sits behind one
//!   shell (`Group`): the per-lane result tallies, the
//!   [`LANE_TIER_LABELS`] slot, and the finish step are shared, and
//!   only the per-kind kernel (`GroupKernel`: lane parameters, arena
//!   and inner loop) differs. The chunk is decoded once into the
//!   shared `ChunkInputs`: a dense `(pc, taken)` conditional stream
//!   and its narrow owner tags, plus dense branch ids, agree bias bits
//!   and one first-level walk (`Level1Walk`) per per-address/per-set
//!   table geometry and per path-register `q`, when a group reads them.
//!   Every counter arena holds 4-byte cells, two counter bits under a
//!   30-bit owner tag that `NarrowTags` maps exactly from the pc.
//!
//!   Every plan with a single counter read — address-indexed, GAg/GAs,
//!   gshare, PAg/PAs (perfect or finite first level), SAg/SAs, Nair's
//!   path scheme and agree — runs one lane loop, `SingleReadGroup`,
//!   compiled once per pair of a *row source* and a *counter rule*.
//!   The row source is the lane's global history register, advanced
//!   in the loop (Direct lanes and agree), or its shared first-level
//!   walk (PAs, SAs, path). The counter rule trains toward the outcome,
//!   or, for agree, toward agreement with the shared bias column. Every
//!   plan with several reads runs one other lane loop, `MultiReadGroup`,
//!   over its global history register, compiled once per *combine
//!   rule*: bi-mode's choice-steered direction tables, gskew's majority
//!   of three skewed banks, tournament's chooser over two components,
//!   and YAGS's tagged exception caches over a choice bias. A rule is a
//!   small per-lane value (region bases and masks) with one
//!   per-conditional step, so a new rule is one `Combine` impl and one
//!   arm in `Group::new`. The one-bit LastTime table has a loop of its
//!   own, with no shared arena. Groups iterate lanes in *row-blocked* order
//!   (descending region size, ties by configuration position — the
//!   same order the arena placer assigns bases), so consecutive lanes
//!   of a sweep walk adjacent arena regions and same-row reads land in
//!   neighbouring cache lines.
//! * **Scalar fallback** — under `BPRED_FORCE_SCALAR` every lane
//!   replays through a [`ScalarLane`] instead: the configuration's
//!   concrete scheme, built once by
//!   [`PredictorConfig::visit`], behind one virtual call per chunk.
//!   The scalar schemes remain the oracle: multilane results are
//!   bit-identical by construction and by test (`tests/multilane.rs`
//!   at the workspace root).
//!
//! Lane grouping never straddles plan kinds: a group holds only
//! configurations whose per-record transition is structurally
//! identical (same first-level shape, same read count, same combine
//! rule), so one monomorphic loop serves the whole group.
//!
//! # Environment knobs
//!
//! * `BPRED_FORCE_SCALAR` — any value other than empty/`0` pins every
//!   lane to the scalar tier (the determinism suite runs under this in
//!   CI). It changes the code path, never the results.

use std::collections::HashMap;
use std::hint::select_unpredictable;
use std::marker::PhantomData;
use std::ops::Range;

use bpred_core::{
    cell, reset_pattern, AliasStats, BhtStats, CombineRule, IndexFn, Level1Read, PlanKind,
    PredictorConfig, TableRead, TwoBitCounter, WalkPlan, SKEW_BANK_MULTIPLIERS,
};
use bpred_trace::{Outcome, TraceChunk};

use crate::{scalar_lane, ScalarLane, SimResult, Simulator};

/// Mask of the low bit of every 4-bit metadata field in a chunk
/// metadata word.
const NIBBLE_LO: u64 = 0x1111_1111_1111_1111;

/// Records per block of the two-phase prefetch form of the fused loop
/// ([`PREFETCH_SPILL_BYTES`]): long enough to cover the load latency the
/// touch pass hides, short enough that the touched lines are still
/// resident when the read-modify-write pass consumes them.
const PREFETCH_WINDOW: usize = 16;

/// `bits` low ones for any width `0..=64` (gskew history registers may
/// be up to 64 bits wide).
#[inline]
fn wide_low_mask(bits: u32) -> u64 {
    match bits {
        0 => 0,
        64 => u64::MAX,
        b => (1u64 << b) - 1,
    }
}

/// Whether `BPRED_FORCE_SCALAR` pins every lane to the scalar tier.
fn force_scalar() -> bool {
    matches!(std::env::var("BPRED_FORCE_SCALAR"), Ok(v) if !v.is_empty() && v != "0")
}

/// Arena footprint (bytes) above which a single-read group whose rows
/// come from a global history register (Direct and agree lanes) runs
/// its lane loop in the blocked two-phase prefetch form: the point
/// where a group's arena has outgrown a typical L2 and the gather
/// starts missing. Below it the blocking costs ~4%; above it the touch
/// pass hides the gathered-row misses (EXPERIMENTS.md, spill-scale
/// sweeps). Lanes that read their rows off a shared first-level walk
/// never take the blocked form: it measured slower on them.
pub const PREFETCH_SPILL_BYTES: u64 = 4 << 20;

/// A fused arena cell: a two-bit counter in the low bits under a
/// 30-bit narrow owner tag ([`NarrowTags`]). Every group with a counter
/// arena keeps this one format; the scalar oracle's [`cell`] words
/// keep their 62-bit pc tags.
type Cell = u32;

/// Bytes per fused arena cell, the size the prefetch gate measures
/// arenas in.
const CELL_BYTES: u64 = std::mem::size_of::<Cell>() as u64;

/// The dispatch tier the next [`LaneSet`] will use for groupable
/// configurations: `"scalar"` under `BPRED_FORCE_SCALAR`,
/// `"multilane"` otherwise. Exported (with this label) as the
/// `bpred_replay_pairs_per_sec` gauge's `tier` by `bpred-serve`.
pub fn dispatch_tier() -> &'static str {
    if force_scalar() {
        "scalar"
    } else {
        "multilane"
    }
}

/// Stable labels of every dispatch tier / plan family a lane can land
/// on, in [`LaneSet::lane_tier_counts`] order. Exported as the
/// `plan` label values of the `bpred_replay_group_lanes` gauge.
pub const LANE_TIER_LABELS: [&str; 13] = [
    "direct",
    "pas-perfect",
    "pas-finite",
    "per-set",
    "agree",
    "bimode",
    "gskew",
    "tournament",
    "yags",
    "path",
    "last-time",
    "static",
    "scalar",
];

/// Conditional/taken-conditional counts of a chunk, sixteen records
/// per word op: a record is conditional when its three kind bits are
/// zero, and the taken bit sits below them.
fn conditional_counts(chunk: &TraceChunk) -> (u64, u64) {
    let len = chunk.len();
    let words = chunk.meta_words();
    let tail = len % TraceChunk::META_RECORDS_PER_WORD;
    let mut conditionals = 0u64;
    let mut taken = 0u64;
    for (i, &word) in words.iter().enumerate() {
        // Zeroed high fields of the final word would read as
        // conditional-not-taken; mask them off.
        let valid = if i + 1 == words.len() && tail != 0 {
            (1u64 << (4 * tail)) - 1
        } else {
            !0
        };
        let word = word & valid;
        let kind = (word >> 1) | (word >> 2) | (word >> 3);
        let cond = !kind & NIBBLE_LO & valid;
        conditionals += cond.count_ones() as u64;
        taken += (cond & word).count_ones() as u64;
    }
    (conditionals, taken)
}

/// Extracts a chunk's dense conditional stream into the reused
/// scratch column: element `i` is `(pc << 1) | taken` of the i-th
/// conditional (addresses fit 62 bits, see [`cell::EMPTY_OWNER`]).
/// Decoded once per chunk and shared by every lane group, so the
/// group kernels stream a single dense column with no metadata
/// re-decoding and no branch on record kind.
fn collect_conditionals(chunk: &TraceChunk, stream_out: &mut Vec<u64>) {
    stream_out.clear();
    let mut meta = chunk.meta_words().iter();
    let mut word_bits = 0u64;
    let mut in_word = 0u32;
    for &pc in chunk.pcs() {
        if in_word == 0 {
            word_bits = meta.next().copied().unwrap_or(0);
            in_word = TraceChunk::META_RECORDS_PER_WORD as u32;
        }
        let bits = word_bits & 0xF;
        word_bits >>= TraceChunk::META_BITS_PER_RECORD;
        in_word -= 1;
        if bits & 0b1110 == 0 {
            stream_out.push((pc << 1) | (bits & 1));
        }
    }
}

/// The three stateless schemes the record-parallel tier covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum StaticScheme {
    AlwaysTaken,
    AlwaysNotTaken,
    Btfn,
}

/// One record-parallel static lane.
#[derive(Debug)]
struct StaticUnit {
    /// Result slot in the caller's configuration order.
    index: usize,
    scheme: StaticScheme,
    /// The kernel's display name.
    name: String,
    mispredictions: u64,
}

impl StaticUnit {
    /// Scores a whole chunk whose first `unscored` conditionals fall in
    /// the warmup prefix. `conditionals`/`taken` are the chunk's shared
    /// counts; the bulk word paths apply once the warmup prefix is
    /// consumed, with a per-record fallback for the (rare) chunk that
    /// crosses the warmup boundary.
    fn replay_chunk(&mut self, chunk: &TraceChunk, unscored: u64, conditionals: u64, taken: u64) {
        if unscored == 0 {
            self.mispredictions += match self.scheme {
                StaticScheme::AlwaysTaken => conditionals - taken,
                StaticScheme::AlwaysNotTaken => taken,
                StaticScheme::Btfn => btfn_wrong(chunk),
            };
        } else {
            self.replay_chunk_scalar(chunk, unscored);
        }
    }

    /// Per-record path for chunks that straddle the warmup boundary.
    fn replay_chunk_scalar(&mut self, chunk: &TraceChunk, unscored: u64) {
        let conditionals = chunk.iter().filter(|record| record.is_conditional());
        for record in conditionals.skip(unscored as usize) {
            let predicted = match self.scheme {
                StaticScheme::AlwaysTaken => Outcome::Taken,
                StaticScheme::AlwaysNotTaken => Outcome::NotTaken,
                StaticScheme::Btfn => Outcome::from(record.target < record.pc),
            };
            self.mispredictions += (predicted != record.outcome) as u64;
        }
    }

    fn finish(self, scored: u64) -> SimResult {
        SimResult {
            predictor: self.name,
            state_bits: 0,
            conditionals: scored,
            mispredictions: self.mispredictions,
            alias: None,
            bht: None,
        }
    }
}

/// BTFN mispredictions over a whole chunk: one branchless pass over
/// the pc/target columns with the conditional/outcome flags decoded
/// straight from the metadata nibbles.
fn btfn_wrong(chunk: &TraceChunk) -> u64 {
    let pcs = chunk.pcs();
    let targets = chunk.targets();
    let words = chunk.meta_words();
    let mut wrong = 0u64;
    for i in 0..pcs.len() {
        let bits = (words[i / TraceChunk::META_RECORDS_PER_WORD]
            >> (TraceChunk::META_BITS_PER_RECORD * (i % TraceChunk::META_RECORDS_PER_WORD)))
            & 0xF;
        let conditional = (bits & 0b1110 == 0) as u64;
        let predicted_taken = (targets[i] < pcs[i]) as u64;
        wrong += conditional & (predicted_taken ^ (bits & 1));
    }
    wrong
}

/// One groupable lane: its result slot, the display name and *static*
/// state cost captured from the kernel at build time (dynamic
/// per-branch state — perfect-BHT histories, agree bias bits — is
/// added at finish from the shared distinct-pc count), and its
/// [`WalkPlan`].
struct PlanSpec {
    index: usize,
    name: String,
    state_bits: u64,
    plan: WalkPlan,
}

/// The part of a fused lane that every group kind shares: its result
/// slot in the caller's configuration order, display name, static
/// state cost, and the three accumulators the kernels add into once
/// per lane and chunk.
#[derive(Debug, Default)]
struct LaneTally {
    index: usize,
    name: String,
    state_bits: u64,
    conflicts: u64,
    harmless: u64,
    mispredictions: u64,
}

/// One lane's counts over one chunk: conflicts, harmless conflicts,
/// mispredictions.
type LaneCounts = (u64, u64, u64);

impl LaneTally {
    fn add(&mut self, (conflicts, harmless, mispredictions): LaneCounts) {
        self.conflicts += conflicts;
        self.harmless += harmless;
        self.mispredictions += mispredictions;
    }
}

/// The exact map from a conditional's 62-bit scalar owner tag
/// ([`cell::tag`]) to the 30-bit tag a fused [`Cell`] holds, with no
/// hash lookup per record. A tag below [`DIRECT`](Self::DIRECT) is its
/// own narrow tag: every suite layout and multiprogrammed contexts 0
/// and 1 land there, and a chunk of them is one vectorised truncation.
///
/// Any other tag *escapes*. It keeps its low [`WINDOW_BITS`](Self::WINDOW_BITS)
/// and trades the rest, its region, for a window: a block of narrow
/// tags above `DIRECT`, handed out in first-escape order. A real
/// 64-bit program's branches sit in a few regions (its text, a few
/// shared libraries), so an escaping record costs one probe of a small
/// direct-mapped memo of regions. Once [`WINDOWS`](Self::WINDOWS)
/// windows are out, a tag whose region has none gets a single narrow
/// tag of its own from a map. [`EMPTY`](Self::EMPTY) sits above every
/// tag handed out, so the map is injective and never yields the empty
/// owner — bar the scalar empty owner itself, which an exact map must
/// keep empty.
#[derive(Debug)]
struct NarrowTags {
    /// `(region, window base)` of recently escaped regions, by
    /// [`memo_slot`](Self::memo_slot); `u64::MAX` marks a free slot.
    memo: Box<[(u64, u32); Self::MEMO]>,
    /// The window base of every region that has one.
    windows: HashMap<u64, u32>,
    /// The narrow tag of each escaping tag whose region has no window.
    singles: HashMap<u64, u32>,
}

impl Default for NarrowTags {
    fn default() -> Self {
        NarrowTags {
            memo: Box::new([(u64::MAX, 0); Self::MEMO]),
            windows: HashMap::new(),
            singles: HashMap::new(),
        }
    }
}

impl NarrowTags {
    /// Wide tags below this are their own narrow tag.
    const DIRECT: u32 = 1 << 29;
    /// The owner of an untouched cell: no narrow tag reaches it.
    const EMPTY: u32 = (1 << 30) - 1;
    /// Low tag bits an escaping tag keeps: 64 KiB windows.
    const WINDOW_BITS: u32 = 16;
    /// Windows fill `[DIRECT, DIRECT + 2^28)`, single tags
    /// `[SINGLES, EMPTY)`.
    const WINDOWS: usize = 1 << (28 - Self::WINDOW_BITS);
    /// The first single tag.
    const SINGLES: u32 = Self::DIRECT + (1 << 28);
    /// Memo slots: 4 KiB, resident beside the kernels' working set.
    const MEMO: usize = 256;
    /// A memo miss in [`fill`](Self::fill)'s first pass: above every
    /// narrow tag.
    const MISS: u32 = u32::MAX;

    /// Fills `tags` with the narrow owner tag of each element of the
    /// packed conditional `stream`. A chunk with no escaping pc is a
    /// truncation over the whole column, which vectorises; one with
    /// escapes maps them through the memo in one pass, and only memo
    /// misses take a second.
    fn fill(&mut self, stream: &[u64], tags: &mut Vec<u32>) {
        tags.clear();
        // Pc bits 29..=61, nonzero exactly when the 62-bit tag escapes.
        let escaping = |packed: u64| (packed << 1) >> 31;
        if stream.iter().fold(0, |any, &packed| any | escaping(packed)) == 0 {
            tags.extend(stream.iter().map(|&packed| (packed >> 1) as u32));
            return;
        }
        let memo = &*self.memo;
        let mut missed = false;
        tags.extend(stream.iter().map(|&packed| {
            let wide = cell::tag(packed >> 1);
            let region = wide >> Self::WINDOW_BITS;
            let (memo_region, base) = memo[Self::memo_slot(region)];
            let hit = memo_region == region;
            let direct = wide < u64::from(Self::DIRECT);
            missed |= !(direct | hit);
            match (direct, hit) {
                (true, _) => wide as u32,
                (false, true) => Self::in_window(base, wide),
                (false, false) => Self::MISS,
            }
        }));
        if missed {
            for (tag, &packed) in tags.iter_mut().zip(stream) {
                if *tag == Self::MISS {
                    *tag = self.escape(cell::tag(packed >> 1));
                }
            }
        }
    }

    /// The narrow tag of a wide tag at or above [`DIRECT`](Self::DIRECT):
    /// its region's window through the memo, else found or opened in
    /// the map, else a single tag.
    fn escape(&mut self, wide: u64) -> u32 {
        let region = wide >> Self::WINDOW_BITS;
        let (memo_region, base) = self.memo[Self::memo_slot(region)];
        if memo_region == region {
            return Self::in_window(base, wide);
        }
        if wide == cell::EMPTY_OWNER {
            return Self::EMPTY;
        }
        let opened = self.windows.len();
        let base = match self.windows.get(&region) {
            Some(&base) => Some(base),
            None if opened < Self::WINDOWS => {
                let base = Self::DIRECT + ((opened as u32) << Self::WINDOW_BITS);
                self.windows.insert(region, base);
                Some(base)
            }
            None => None,
        };
        if let Some(base) = base {
            // The scalar empty owner's region never enters the memo:
            // that tag must stay empty, and the memo cannot tell it.
            if region != cell::EMPTY_OWNER >> Self::WINDOW_BITS {
                self.memo[Self::memo_slot(region)] = (region, base);
            }
            return Self::in_window(base, wide);
        }
        let next = self.singles.len() as u32;
        let id = *self.singles.entry(wide).or_insert_with(|| {
            // 2^28 - 1 single tags: a map that large outgrows memory
            // first.
            assert!(
                next < Self::EMPTY - Self::SINGLES,
                "narrow owner tags exhausted"
            );
            next
        });
        Self::SINGLES + id
    }

    /// `wide`'s narrow tag in the window at `base`.
    #[inline]
    fn in_window(base: u32, wide: u64) -> u32 {
        base | (wide as u32 & ((1 << Self::WINDOW_BITS) - 1))
    }

    /// The memo slot of `region`: its low byte folded with the next,
    /// so regions that differ only in their low byte (one binary's
    /// text, up to 16 MiB of it) never collide.
    #[inline]
    fn memo_slot(region: u64) -> usize {
        ((region ^ (region >> 8)) % Self::MEMO as u64) as usize
    }
}

/// A chunk decoded once for every lane group. The conditional stream
/// is always filled; the other columns only when a group reads them
/// (the owner tags whenever a group has a counter arena).
#[derive(Debug, Default)]
struct ChunkInputs {
    /// The dense conditional stream: element `i` is `(pc << 1) |
    /// taken` of the i-th conditional (see [`collect_conditionals`]).
    conditionals: Vec<u64>,
    /// `conditionals[i]`'s narrow owner tag, the one every arena
    /// access compares and stores.
    tags: Vec<u32>,
    /// The persistent narrow-tag map behind `tags`.
    narrow: NarrowTags,
    /// `conditionals[i]`'s dense branch id, in first-appearance order
    /// over the whole stream (perfect-BHT rows, agree bias latches).
    ids: Vec<u32>,
    /// Pre-latch (bit 0) / post-latch (bit 1) agree bias-is-taken
    /// flags per conditional.
    bias_bits: Vec<u8>,
    /// One first-level walk per distinct [`Level1Read`] the
    /// per-address, per-set and path lanes use, in first-use order.
    walks: Vec<Level1Walk>,
    needs_tags: bool,
    needs_ids: bool,
    needs_bias: bool,
    /// Persistent dense branch ids behind `ids`.
    id_map: HashMap<u64, u32>,
    /// Persistent agree bias latch per dense id: 0 unset (reads as
    /// taken, the scalar default), 1 latched taken, 2 latched
    /// not-taken.
    bias: Vec<u8>,
}

impl ChunkInputs {
    /// Decodes `chunk` into the columns the groups read.
    fn decode(&mut self, chunk: &TraceChunk) {
        collect_conditionals(chunk, &mut self.conditionals);
        if self.needs_tags {
            self.narrow.fill(&self.conditionals, &mut self.tags);
        }
        if self.needs_ids {
            // Dense ids in first-appearance order and, when agree
            // lanes exist, the record-major bias latch column.
            self.ids.clear();
            self.bias_bits.clear();
            for &packed in &self.conditionals {
                let pc = packed >> 1;
                let next = self.id_map.len() as u32;
                let id = *self.id_map.entry(pc).or_insert(next);
                self.ids.push(id);
                if self.needs_bias {
                    let taken = (packed & 1) as u8;
                    if id as usize == self.bias.len() {
                        self.bias.push(0);
                    }
                    let b = &mut self.bias[id as usize];
                    let pre = (*b != 2) as u8;
                    if *b == 0 {
                        *b = 2 - taken;
                    }
                    let post = (*b != 2) as u8;
                    self.bias_bits.push(pre | (post << 1));
                }
            }
        }
        for walk in &mut self.walks {
            walk.walk(chunk, &self.conditionals, &self.ids, self.id_map.len());
        }
    }

    /// The slot of `read`'s walk in [`walks`](Self::walks), added on
    /// first use.
    fn walk_slot(&mut self, read: Level1Read) -> usize {
        if let Some(slot) = self.walks.iter().position(|w| w.read == read) {
            return slot;
        }
        self.needs_ids |= read == Level1Read::PerfectBht;
        self.walks.push(Level1Walk::new(read));
        self.walks.len() - 1
    }
}

/// One first-level history entry as the walk tracks it: the last (up
/// to 64) outcomes recorded since allocation and how many that is,
/// saturating at 64. Finite-table ways add their tag and LRU stamp.
#[derive(Debug, Clone, Copy)]
struct WalkEntry {
    /// `u64::MAX` marks a never-filled way (no tag reaches it).
    tag: u64,
    last_use: u64,
    hist: u64,
    age: u64,
}

impl WalkEntry {
    const FRESH: WalkEntry = WalkEntry {
        tag: u64::MAX,
        last_use: 0,
        hist: 0,
        age: 0,
    };

    /// Parks `(H, k)` in a record's column slots, then shifts in its outcome.
    #[inline]
    fn step(&mut self, packed: u64, hist: &mut u64, age: &mut u8) {
        (*hist, *age) = (self.hist, self.age as u8);
        self.hist = (self.hist << 1) | (packed & 1);
        self.age = (self.age + 1).min(64);
    }
}

/// The width-free first-level walk of one [`Level1Read`] geometry,
/// run once per chunk for every lane that reads it (DESIGN.md, "Shared
/// first-level walks", argues the width independence). A `w`-bit entry
/// allocated with [`reset_pattern`]`(w)` and fed `k` outcomes `H` holds
/// `((reset_pattern(w) << k) | H) & mask(w)`, and finite-table hits and
/// LRU victims depend on the pc order alone, so the walk emits `(H, k)`
/// per conditional and each lane reads `reset_fill(w)[k] | (H &
/// mask(w))`. Per-set registers start at zero, which is `k = 64`. A
/// path register only ever shifts left, so a `w`-bit one is the low
/// `w` bits of the full 64-bit register the walk keeps per `q`, which
/// starts at zero (`k = 64`) too.
#[derive(Debug)]
struct Level1Walk {
    read: Level1Read,
    /// Per conditional of the chunk: its entry's `H` before the record.
    hist: Vec<u64>,
    /// Per conditional: its entry's `k` before the record.
    age: Vec<u8>,
    /// Finite-table misses so far (the scalar `BhtStats::misses`).
    misses: u64,
    /// Finite ways (set-major), perfect entries (by id), set registers
    /// or the one path register.
    entries: Vec<WalkEntry>,
    /// Finite-table LRU clock: one tick per access.
    clock: u64,
}

impl Level1Walk {
    fn new(read: Level1Read) -> Self {
        // `PredictorConfig::build` has validated finite geometries.
        let len = match read {
            Level1Read::PerfectBht => 0,
            Level1Read::SetAssocBht { entries, .. } => entries,
            Level1Read::SetHistories { set_bits } => 1 << set_bits,
            Level1Read::PathHistory { .. } => 1,
            other => unreachable!("no first-level walk for {other:?}"),
        };
        Level1Walk {
            read,
            hist: Vec::new(),
            age: Vec::new(),
            misses: 0,
            entries: vec![WalkEntry::FRESH; len],
            clock: 0,
        }
    }

    /// Walks one chunk into the columns: its conditional stream, or
    /// for a path register every record of `chunk` (perfect tables key
    /// by `ids`, the dense branch ids, `distinct` so far).
    fn walk(&mut self, chunk: &TraceChunk, conditionals: &[u64], ids: &[u32], distinct: usize) {
        // A spare slot takes what a path register parks after the last
        // conditional. Per-set and path registers never reset, so their
        // ages stay at 64.
        self.hist.resize(conditionals.len() + 1, 0);
        self.age.resize(conditionals.len(), 64);
        let columns = self.hist.iter_mut().zip(self.age.iter_mut());
        match self.read {
            Level1Read::PerfectBht => {
                self.entries.resize(distinct, WalkEntry::FRESH);
                for ((&packed, &id), (hist, age)) in conditionals.iter().zip(ids).zip(columns) {
                    self.entries[id as usize].step(packed, hist, age);
                }
            }
            Level1Read::SetHistories { set_bits } => {
                let mask = wide_low_mask(set_bits);
                for (&packed, (hist, _)) in conditionals.iter().zip(columns) {
                    let entry = &mut self.entries[((packed >> 3) & mask) as usize];
                    *hist = entry.hist;
                    entry.hist = (entry.hist << 1) | (packed & 1);
                }
            }
            Level1Read::SetAssocBht { entries, ways } => {
                let sets = entries / ways;
                for (&packed, (hist, age)) in conditionals.iter().zip(columns) {
                    let word = packed >> 3;
                    let tag = word >> sets.trailing_zeros();
                    let start = (word as usize & (sets - 1)) * ways;
                    let set = &mut self.entries[start..start + ways];
                    self.clock += 1;
                    let way = set.iter().position(|w| w.tag == tag).unwrap_or_else(|| {
                        // Miss: the first least-recently-used way
                        // restarts from the reset pattern.
                        self.misses += 1;
                        let victim = (0..ways).min_by_key(|&w| set[w].last_use).unwrap_or(0);
                        set[victim] = WalkEntry::FRESH;
                        set[victim].tag = tag;
                        victim
                    });
                    set[way].last_use = self.clock;
                    set[way].step(packed, hist, age);
                }
            }
            Level1Read::PathHistory { bits_per_target: q } => {
                // Every control transfer shifts in `q` low bits of its
                // destination word (a conditional's target or
                // fall-through by outcome, any other transfer's target);
                // the value before each record parks in the next
                // conditional's slot.
                let (reg, keep, mut next) = (&mut self.entries[0].hist, wide_low_mask(q), 0);
                let (pcs, targets, words) = (chunk.pcs(), chunk.targets(), chunk.meta_words());
                for i in 0..pcs.len() {
                    let bits = (words[i / TraceChunk::META_RECORDS_PER_WORD]
                        >> (TraceChunk::META_BITS_PER_RECORD
                            * (i % TraceChunk::META_RECORDS_PER_WORD)))
                        & 0xF;
                    let conditional = bits & 0b1110 == 0;
                    let dest = if conditional && bits & 1 == 0 {
                        pcs[i].wrapping_add(4)
                    } else {
                        targets[i]
                    };
                    self.hist[next] = *reg;
                    next += usize::from(conditional);
                    *reg = (*reg << q) | ((dest >> 2) & keep);
                }
            }
            other => unreachable!("no first-level walk for {other:?}"),
        }
        self.hist.truncate(conditionals.len());
    }
}

/// The reset part of a `width`-bit walked row, by the entry's age `k`:
/// `(reset_pattern(width) << k) & mask(width)`, zero at `k = 64`.
fn reset_fill(width: u32) -> [u64; 65] {
    std::array::from_fn(|k| {
        reset_pattern(width).checked_shl(k as u32).unwrap_or(0) & wide_low_mask(width)
    })
}

/// The per-kind half of a fused lane group: lane parameters,
/// first-level state, the counter arena, and the kind's monomorphic
/// inner loop. The shared half lives in [`Group`].
///
/// Implementations mark [`replay_lane`](GroupKernel::replay_lane)
/// `#[inline(never)]`: a lane's hot loop then owns the registers, with
/// no group bookkeeping live across it, and its accumulators cannot
/// be packed into vector registers to match the tally update (which
/// measured ~35% slower on the tournament and YAGS kernels).
trait GroupKernel: std::fmt::Debug + Send {
    /// Feeds one decoded chunk through lane `lane` and returns its
    /// counts. The chunk's first `unscored` conditionals fall in the
    /// warmup prefix: they train the lane but score no miss, exactly
    /// as in the scalar core.
    fn replay_lane(&mut self, lane: usize, input: &ChunkInputs, unscored: usize) -> LaneCounts;

    /// Feeds one decoded chunk through every lane, adding each lane's
    /// counts into its tally (`lanes` is in kernel lane order).
    fn replay(&mut self, lanes: &mut [LaneTally], input: &ChunkInputs, unscored: usize) {
        for (lane, tally) in lanes.iter_mut().enumerate() {
            tally.add(self.replay_lane(lane, input, unscored));
        }
    }

    /// Alias-instrumented table accesses per conditional, or `None`
    /// when the scheme reports no alias statistics.
    fn accesses_per_conditional(&self) -> Option<u64> {
        Some(1)
    }

    /// Dynamic state to add to a lane's static cost at finish
    /// (`distinct` is the shared distinct-conditional-pc count).
    fn extra_state_bits(&self, _lane: usize, _distinct: u64) -> u64 {
        0
    }

    /// First-level access statistics, when the scheme reports them
    /// (`seen` is the shared conditional count).
    fn bht_stats(&self, _lane: usize, _input: &ChunkInputs, _seen: u64) -> Option<BhtStats> {
        None
    }

    /// Whether the kernel runs the blocked two-phase prefetch form.
    fn prefetches(&self) -> bool {
        false
    }
}

/// A fused lane group: up to [`cell::PACKED_LANES`] lanes of one
/// [`PlanKind`], their shared tallies, and the kind's kernel.
#[derive(Debug)]
struct Group {
    /// The group's slot in [`LANE_TIER_LABELS`].
    tier: usize,
    lanes: Vec<LaneTally>,
    kernel: Box<dyn GroupKernel>,
}

impl Group {
    /// Builds the group for `specs`, all of plan kind `kind`, in
    /// row-blocked order, registering the first-level walks its lanes
    /// read with `input`.
    fn new(kind: PlanKind, specs: Vec<PlanSpec>, input: &mut ChunkInputs) -> Self {
        debug_assert!(!specs.is_empty() && specs.len() <= cell::PACKED_LANES);
        // Every kind but last-time keeps a counter arena.
        input.needs_tags |= kind != PlanKind::LastOutcome;
        let (label, kernel): (&str, Box<dyn GroupKernel>) = match kind {
            PlanKind::Direct => ("direct", Box::new(DirectGroup::new(&specs, input))),
            PlanKind::PerAddressPerfect => {
                ("pas-perfect", Box::new(WalkedGroup::new(&specs, input)))
            }
            PlanKind::PerAddressFinite => ("pas-finite", Box::new(WalkedGroup::new(&specs, input))),
            PlanKind::PerSet => ("per-set", Box::new(WalkedGroup::new(&specs, input))),
            PlanKind::AgreeBias => ("agree", Box::new(AgreeBiasGroup::new(&specs, input))),
            PlanKind::BiModeChoice => ("bimode", MultiReadGroup::<BiMode>::boxed(&specs)),
            PlanKind::SkewedMajority => ("gskew", MultiReadGroup::<Gskew>::boxed(&specs)),
            PlanKind::TournamentChooser => {
                ("tournament", MultiReadGroup::<Tournament>::boxed(&specs))
            }
            PlanKind::TaggedChoice => ("yags", MultiReadGroup::<Yags>::boxed(&specs)),
            PlanKind::PathHistory => ("path", Box::new(WalkedGroup::new(&specs, input))),
            PlanKind::LastOutcome => ("last-time", Box::new(LastTimeGroup::new(&specs))),
        };
        Group {
            tier: tier_slot(label),
            lanes: specs
                .into_iter()
                .map(|spec| LaneTally {
                    index: spec.index,
                    name: spec.name,
                    state_bits: spec.state_bits,
                    ..LaneTally::default()
                })
                .collect(),
            kernel,
        }
    }

    /// Drains the group into per-lane results. `seen` is the shared
    /// conditional count (every conditional fed), `scored` the shared
    /// post-warmup count; `input` holds the distinct-pc count and the
    /// first-level walks.
    fn finish(
        self,
        input: &ChunkInputs,
        seen: u64,
        scored: u64,
        results: &mut [Option<SimResult>],
    ) {
        let accesses = self.kernel.accesses_per_conditional();
        let distinct = input.id_map.len() as u64;
        for (lane, tally) in self.lanes.into_iter().enumerate() {
            results[tally.index] = Some(SimResult {
                predictor: tally.name,
                state_bits: tally.state_bits + self.kernel.extra_state_bits(lane, distinct),
                conditionals: scored,
                mispredictions: tally.mispredictions,
                alias: accesses.map(|per| AliasStats {
                    accesses: per * seen,
                    conflicts: tally.conflicts,
                    harmless_conflicts: tally.harmless,
                }),
                bht: self.kernel.bht_stats(lane, input, seen),
            });
        }
    }
}

/// The position of `label` in [`LANE_TIER_LABELS`].
fn tier_slot(label: &str) -> usize {
    LANE_TIER_LABELS
        .iter()
        .position(|&l| l == label)
        .expect("a known tier label")
}

/// The saturating two-bit counter step toward `toward` (1 = taken):
/// +1 below strong taken, −1 above strong not-taken. Every fused
/// kernel trains its counters through this one step.
///
/// With `w = bits + 2 * toward - 1` in `-1..=4`, `w - (w >> 2)`
/// (arithmetic shift) clamps it to `0..=3`: four branch-free
/// instructions, and no compare for the backend to turn into a
/// data-dependent branch.
#[inline(always)]
fn counter_step(bits: u64, toward: u64) -> u64 {
    let w = (bits + 2 * toward) as i64 - 1;
    (w - (w >> 2)) as u64
}

/// A cell owned by the narrow tag `owner`, holding counter `bits`.
#[inline(always)]
fn owned(owner: u32, bits: u64) -> Cell {
    (owner << 2) | bits as Cell
}

/// A cell's counter bits, and 1 when a branch other than `tag`'s owns
/// it (an alias conflict).
#[inline(always)]
fn peek(cell_word: Cell, tag: u32) -> (u64, u64) {
    let owner = cell_word >> 2;
    let conflict = (owner != NarrowTags::EMPTY) & (owner != tag);
    (u64::from(cell_word & 0b11), conflict as u64)
}

/// A cell's [`counter_step`] taken only when `train` is 1, with the
/// cell's owner bits kept: the untagged chooser and choice cells are
/// peeked and retrained, never tagged, exactly like the scalar
/// counter vectors they mirror.
#[inline(always)]
fn retrain(cell_word: Cell, toward: u64, train: u64) -> Cell {
    let bits = u64::from(cell_word & 0b11);
    let stepped = counter_step(bits, toward);
    (cell_word & !0b11) | (bits ^ ((bits ^ stepped) & train.wrapping_neg())) as Cell
}

/// Where a [`SingleReadGroup`] lane's rows come from: one record per
/// lane, its parameters and state, copied into locals for the lane's
/// loop and written back after it.
trait RowSource: Copy + std::fmt::Debug + Send + 'static {
    /// Whether the group runs the blocked two-phase prefetch form once
    /// its arena outgrows [`PREFETCH_SPILL_BYTES`]: a property of the
    /// source, not an option (it paid off only for the register).
    const PREFETCHES: bool;

    /// `spec`'s record, registering the walk it reads with `input`.
    fn new(spec: &PlanSpec, input: &mut ChunkInputs) -> Self;

    /// The walk's `(H, k)` columns the lane reads; none by default.
    fn columns<'a>(&self, _input: &'a ChunkInputs) -> WalkColumns<'a> {
        (&[], &[])
    }

    /// Conditional `i`'s counter index in the lane's region, `(row <<
    /// col_bits) | column`, and 1 when its history pattern is all-taken
    /// (a conflict there is harmless); `packed` is its stream element.
    fn index(&self, columns: WalkColumns, i: usize, packed: u64) -> (u64, u64);

    /// Moves past one conditional (`packed` carries its outcome).
    fn advance(&mut self, _packed: u64) {}

    /// First-level access statistics, when the source reports them.
    fn bht_stats(&self, _input: &ChunkInputs, _seen: u64) -> Option<BhtStats> {
        None
    }
}

/// The global history register as a row source (address-indexed,
/// GAg/GAs, gshare and agree; every multi-read lane keeps one too),
/// advanced inside the lane loop: the row is `history ^ ((word >>
/// col_bits) & xor_mask)`. Every read it feeds (bar gskew's hashed
/// banks) has at least `history_bits` row bits, so the history needs
/// no row mask.
///
/// The register and its masks are kept shifted left by the column
/// bits, so the whole index is `history ^ (word & addr_mask)` and the
/// loop runs no variable shift. The history is all-taken when it
/// equals its mask; a zero-width register shifts in nothing and stays
/// zero under an all-ones mask, so it never is, as in the scalar
/// selector.
#[derive(Debug, Clone, Copy)]
struct GlobalRegister {
    hist: u64,
    hist_mask: u64,
    /// `1 << col_bits`, or 0 for a zero-width register.
    low_bit: u64,
    /// The address bits in the index: the column bits, and the row
    /// bits too for gshare-family reads.
    addr_mask: u64,
}

impl GlobalRegister {
    /// `plan`'s history register, feeding the rows of `read`.
    fn feeding(plan: &WalkPlan, read: TableRead) -> Self {
        let skewed = matches!(read.index, IndexFn::Skewed { .. });
        debug_assert!(skewed || plan.history_bits <= read.row_bits);
        let placed = |mask: u64| mask << read.col_bits;
        GlobalRegister {
            hist: 0,
            hist_mask: placed(match plan.history_bits {
                0 => u64::MAX,
                h => wide_low_mask(h),
            }),
            low_bit: placed(u64::from(plan.history_bits > 0)),
            addr_mask: wide_low_mask(read.col_bits)
                | placed(match read.index {
                    IndexFn::Unified { xor: true } => wide_low_mask(read.row_bits),
                    _ => 0,
                }),
        }
    }

    /// The counter index of the conditional `packed` in its region.
    #[inline(always)]
    fn index_of(&self, packed: u64) -> u64 {
        self.hist ^ ((packed >> 3) & self.addr_mask)
    }

    /// 1 when the history pattern is all-taken.
    #[inline(always)]
    fn all_taken(&self) -> u64 {
        (self.hist == self.hist_mask) as u64
    }
}

impl RowSource for GlobalRegister {
    const PREFETCHES: bool = true;

    fn new(spec: &PlanSpec, _input: &mut ChunkInputs) -> Self {
        GlobalRegister::feeding(&spec.plan, spec.plan.reads[0])
    }

    #[inline(always)]
    fn index(&self, _columns: WalkColumns, _i: usize, packed: u64) -> (u64, u64) {
        (self.index_of(packed), self.all_taken())
    }

    #[inline(always)]
    fn advance(&mut self, packed: u64) {
        let taken = (packed & 1) * self.low_bit;
        self.hist = ((self.hist << 1) | taken) & self.hist_mask;
    }
}

/// A lane's shared [`Level1Walk`] as its row source (PAg/PAs with a
/// perfect or finite first level, SAg/SAs, path): conditional `i`'s
/// row is `fill[k] | (H & mask(history_bits))` off the walk's columns.
#[derive(Debug, Clone, Copy)]
struct WalkColumn {
    /// The lane's walk in `ChunkInputs::walks`.
    walk: usize,
    /// [`reset_fill`] of the lane's width.
    fill: [u64; 65],
    /// The row mask too: these plans read `history_bits`-wide rows.
    hist_mask: u64,
    col_shift: u64,
    col_mask: u64,
    /// The all-taken row, or the unreachable `u64::MAX` when there is
    /// none: zero-width rows, and path rows, which the scalar path
    /// selector never reports as all-taken.
    all_taken: u64,
}

impl RowSource for WalkColumn {
    const PREFETCHES: bool = false;

    fn new(spec: &PlanSpec, input: &mut ChunkInputs) -> Self {
        let p = &spec.plan;
        WalkColumn {
            walk: input.walk_slot(p.level1),
            fill: reset_fill(p.history_bits),
            hist_mask: wide_low_mask(p.history_bits),
            col_shift: u64::from(p.reads[0].col_bits),
            col_mask: wide_low_mask(p.reads[0].col_bits),
            all_taken: match (p.level1, p.history_bits) {
                (Level1Read::PathHistory { .. }, _) | (_, 0) => u64::MAX,
                (_, h) => wide_low_mask(h),
            },
        }
    }

    fn columns<'a>(&self, input: &'a ChunkInputs) -> WalkColumns<'a> {
        let walk = &input.walks[self.walk];
        (&walk.hist, &walk.age)
    }

    #[inline(always)]
    fn index(&self, (hist, age): WalkColumns, i: usize, packed: u64) -> (u64, u64) {
        // `age <= 64` always; the clamp only elides the bounds check.
        let row = self.fill[usize::from(age[i]).min(64)] | (hist[i] & self.hist_mask);
        let all_taken = (row == self.all_taken) as u64;
        (
            (row << self.col_shift) | ((packed >> 3) & self.col_mask),
            all_taken,
        )
    }

    fn bht_stats(&self, input: &ChunkInputs, seen: u64) -> Option<BhtStats> {
        let walk = &input.walks[self.walk];
        matches!(
            walk.read,
            Level1Read::PerfectBht | Level1Read::SetAssocBht { .. }
        )
        .then_some(BhtStats {
            accesses: seen,
            misses: walk.misses,
        })
    }
}

/// How a [`SingleReadGroup`]'s one counter read predicts and trains.
trait CounterRule: std::fmt::Debug + Send + 'static {
    /// Whether the rule reads the shared agree bias column.
    const READS_BIAS: bool;

    /// The chunk's bias column if the rule reads it, else empty.
    #[inline(always)]
    fn bias(input: &ChunkInputs) -> &[u8] {
        match Self::READS_BIAS {
            true => &input.bias_bits[..input.conditionals.len()],
            false => &[],
        }
    }

    /// `(predicted, toward)` for conditional `i`, given the counter's
    /// high bit `msb` and the outcome `taken`: the predicted direction
    /// and the one the counter trains toward.
    fn judge(msb: u64, taken: u64, bias: &[u8], i: usize) -> (u64, u64);
}

/// The counter predicts the outcome and trains toward it.
#[derive(Debug)]
struct TowardOutcome;

impl CounterRule for TowardOutcome {
    const READS_BIAS: bool = false;

    #[inline(always)]
    fn judge(msb: u64, taken: u64, _bias: &[u8], _i: usize) -> (u64, u64) {
        (msb, taken)
    }
}

/// Agree: the counter predicts *agreement* with a per-branch bias bit
/// latched at first execution. The latch sequence depends only on the
/// shared (pc, outcome) stream, so `ChunkInputs::decode` latches it
/// once, record-major, into each conditional's pre-latch (bit 0) and
/// post-latch (bit 1) bias-is-taken flags (a shared latch array would
/// corrupt pre-latch reads once the first lane had latched).
#[derive(Debug)]
struct AgreeWithBias;

impl CounterRule for AgreeWithBias {
    const READS_BIAS: bool = true;

    #[inline(always)]
    fn judge(msb: u64, taken: u64, bias: &[u8], i: usize) -> (u64, u64) {
        let (pre, post) = (u64::from(bias[i] & 1), u64::from(bias[i] >> 1));
        // Predict the bias if the counter says "agree", its complement
        // otherwise (an XNOR); train toward agreement with the
        // post-latch bias, not the raw outcome.
        (1 ^ msb ^ pre, 1 ^ taken ^ post)
    }
}

/// A walk's `(H, k)` columns over one chunk.
type WalkColumns<'a> = (&'a [u64], &'a [u8]);

/// The chunk columns a single-read lane reads: the conditional stream,
/// its owner tags, the bias column and the lane's walk columns.
type LaneColumns<'a> = (&'a [u64], &'a [u32], &'a [u8], WalkColumns<'a>);

/// A lane group for every plan with a single counter read: Direct
/// (address-indexed, GAg/GAs, gshare) and agree on a
/// [`GlobalRegister`], PAs (perfect or finite), SAs and path on a
/// [`WalkColumn`]. The lane loop is compiled once per source and rule.
/// Each lane owns the power-of-two arena region [`place_regions`]
/// assigned it, and its loop indexes only that region's slice.
#[derive(Debug)]
struct SingleReadGroup<S, R> {
    rows: Vec<S>,
    region: Vec<Range<usize>>,
    /// Dynamic state per distinct branch, added at finish: a perfect
    /// table's history width, agree's one bias bit, else 0.
    branch_bits: Vec<u64>,
    /// All lanes' packed counter cells.
    arena: Vec<Cell>,
    /// Whether the lane loop runs its blocked two-phase prefetch form:
    /// on when the source allows it and the arena outgrows
    /// [`PREFETCH_SPILL_BYTES`].
    prefetch: bool,
    rule: PhantomData<R>,
}

/// The single-read kernels by row source and counter rule.
type DirectGroup = SingleReadGroup<GlobalRegister, TowardOutcome>;
type WalkedGroup = SingleReadGroup<WalkColumn, TowardOutcome>;
type AgreeBiasGroup = SingleReadGroup<GlobalRegister, AgreeWithBias>;

impl<S: RowSource, R: CounterRule> SingleReadGroup<S, R> {
    fn new(specs: &[PlanSpec], input: &mut ChunkInputs) -> Self {
        let (region, arena) = lane_arena(specs, |_| None);
        input.needs_ids |= R::READS_BIAS;
        input.needs_bias |= R::READS_BIAS;
        SingleReadGroup {
            rows: specs.iter().map(|s| S::new(s, input)).collect(),
            region,
            branch_bits: per_lane(specs, |p| match (p.combine, p.level1) {
                (CombineRule::AgreementVsBias, _) => 1,
                (_, Level1Read::PerfectBht) => u64::from(p.history_bits),
                _ => 0,
            }),
            prefetch: S::PREFETCHES && CELL_BYTES * arena.len() as u64 > PREFETCH_SPILL_BYTES,
            arena,
            rule: PhantomData,
        }
    }
}

/// A lane's counts over conditionals `range` of the chunk's `(stream,
/// tags, bias, walk)` columns, its misses counted only when `scored`:
/// per conditional, the source's index, then one fused counter
/// read-modify-write there in the lane's arena region.
/// Every lane parameter, the row state and the accumulators stay in
/// locals, so the loop touches memory only for the (shared,
/// cache-hot) chunk columns and the lane's own region.
#[inline(always)]
fn run_lane<S: RowSource, R: CounterRule>(
    rows: &mut S,
    arena: &mut [Cell],
    (stream, tags, bias, columns): LaneColumns,
    range: std::ops::Range<usize>,
    scored: bool,
) -> LaneCounts {
    // Masking by the region's `len - 1` (a power of two) elides the
    // bounds check, and columns cut to the range's end elide theirs.
    let mask = arena.len() - 1;
    let (stream, tags) = (&stream[..range.end], &tags[..range.end]);
    let bias = if R::READS_BIAS {
        &bias[..range.end]
    } else {
        bias
    };
    let (mut conflicts, mut harmless, mut wrong) = (0u64, 0u64, 0u64);
    for i in range {
        let packed = stream[i];
        let (index, all_taken) = rows.index(columns, i, packed);
        let slot = index as usize & mask;
        let (conflict, miss) = access::<R>(arena, slot, packed, tags[i], bias, i);
        conflicts += conflict;
        harmless += conflict & all_taken;
        if scored {
            wrong += miss;
        }
        rows.advance(packed);
    }
    (conflicts, harmless, wrong)
}

/// One conditional's fused counter access-train at `slot` under rule
/// `R`, branch-free: 1 on an owner conflict, and 1 when the rule's
/// prediction missed; the cell is retagged to `tag` and trained.
#[inline(always)]
fn access<R: CounterRule>(
    arena: &mut [Cell],
    slot: usize,
    packed: u64,
    tag: u32,
    bias: &[u8],
    i: usize,
) -> (u64, u64) {
    let taken = packed & 1;
    let (bits, conflict) = peek(arena[slot], tag);
    let (predicted, toward) = R::judge(bits >> 1, taken, bias, i);
    arena[slot] = owned(tag, counter_step(bits, toward));
    (conflict, predicted ^ taken)
}

impl<S: RowSource, R: CounterRule> GroupKernel for SingleReadGroup<S, R> {
    /// The chunk splits at the warmup boundary once, so no record tests
    /// whether it is scored. In the blocked two-phase prefetch form the
    /// pass runs in windows of [`PREFETCH_WINDOW`] records, each led by
    /// a run-ahead copy of the row source that touches the window's
    /// arena slots (the gather is the loop's one data-dependent load)
    /// before the read-modify-write pass consumes them. The touches
    /// discard their values, so both forms are bit-identical.
    #[inline(never)]
    fn replay_lane(&mut self, lane: usize, input: &ChunkInputs, unscored: usize) -> LaneCounts {
        let mut rows = self.rows[lane];
        let stream = &input.conditionals[..];
        let columns = (stream, &input.tags[..], R::bias(input), rows.columns(input));
        let arena = &mut self.arena[self.region[lane].clone()];
        let mask = arena.len() - 1;
        let prefetch = S::PREFETCHES && self.prefetch;
        let window = if prefetch {
            PREFETCH_WINDOW
        } else {
            stream.len().max(1)
        };
        let mut counts = (0, 0, 0);
        for start in (0..stream.len()).step_by(window) {
            let end = stream.len().min(start + window);
            if prefetch {
                let mut ahead = rows;
                for (i, &packed) in stream.iter().enumerate().take(end).skip(start) {
                    let (index, _) = ahead.index(columns.3, i, packed);
                    // Safe-code prefetch: pull the cell's line now,
                    // drop the value.
                    std::hint::black_box(arena[index as usize & mask]);
                    ahead.advance(packed);
                }
            }
            // The bound always holds; stating it measured ~5% faster.
            let mid = unscored.min(stream.len()).clamp(start, end);
            let (c0, h0, _) = run_lane::<S, R>(&mut rows, arena, columns, start..mid, false);
            let (c1, h1, w) = run_lane::<S, R>(&mut rows, arena, columns, mid..end, true);
            counts = (counts.0 + c0 + c1, counts.1 + h0 + h1, counts.2 + w);
        }
        self.rows[lane] = rows;
        counts
    }

    fn extra_state_bits(&self, lane: usize, distinct: u64) -> u64 {
        distinct * self.branch_bits[lane]
    }

    fn bht_stats(&self, lane: usize, input: &ChunkInputs, seen: u64) -> Option<BhtStats> {
        self.rows[lane].bht_stats(input, seen)
    }

    fn prefetches(&self) -> bool {
        self.prefetch
    }
}

/// Places power-of-two regions into one arena: regions are assigned
/// bases in descending size order (ties by original position), so each
/// base is aligned to its own region's size and `base | idx` is exact
/// addition. Returns the bases in original order plus the (power-of-two) arena
/// length.
fn place_regions(sizes: &[u64]) -> (Vec<u64>, usize) {
    let mut order: Vec<usize> = (0..sizes.len()).collect();
    order.sort_by(|&a, &b| sizes[b].cmp(&sizes[a]).then(a.cmp(&b)));
    let mut bases = vec![0u64; sizes.len()];
    let mut next = 0u64;
    for i in order {
        bases[i] = next;
        next += sizes[i];
    }
    (bases, next.next_power_of_two().max(1) as usize)
}

/// Places every lane's table regions (its plan's reads, in order) into
/// one arena of untouched cells in the workspace default counter state
/// (weakly taken), bar the reads whose region `fill` gives another
/// initial cell. Returns the regions, lane-major, and the arena.
fn lane_arena(
    specs: &[PlanSpec],
    fill: fn(usize) -> Option<Cell>,
) -> (Vec<Range<usize>>, Vec<Cell>) {
    let reads = || specs.iter().flat_map(|s| s.plan.reads.iter().enumerate());
    let sizes: Vec<u64> = reads().map(|(_, table)| table.cells()).collect();
    let (bases, len) = place_regions(&sizes);
    let bits = TwoBitCounter::default().state().bits();
    let mut arena = vec![owned(NarrowTags::EMPTY, bits.into()); len];
    let regions = (reads().zip(bases))
        .map(|((read, table), base)| {
            let region = base as usize..(base + table.cells()) as usize;
            if let Some(cell) = fill(read) {
                arena[region.clone()].fill(cell);
            }
            region
        })
        .collect();
    (regions, arena)
}

/// One per-lane parameter column: `f` of each lane's plan.
fn per_lane(specs: &[PlanSpec], f: impl Fn(&WalkPlan) -> u64) -> Vec<u64> {
    specs.iter().map(|s| f(&s.plan)).collect()
}

/// Row-blocked lane order (see the module docs): sorts plan specs by
/// descending arena footprint, ties by configuration position, before
/// the group split — the order [`place_regions`] assigns bases in.
/// Lanes are independent and each result goes to its own slot, so only
/// the iteration order changes.
fn row_block_plans(specs: &mut [PlanSpec]) {
    specs.sort_by(|a, b| {
        b.plan
            .cells()
            .cmp(&a.plan.cells())
            .then(a.index.cmp(&b.index))
    });
}

/// Splits groupable specs into group-sized chunks, preserving order:
/// the first [`cell::PACKED_LANES`] lanes form the first group, and so
/// on.
fn split_at_lane_limit<T>(mut specs: Vec<T>) -> Vec<Vec<T>> {
    let mut out = Vec::new();
    while !specs.is_empty() {
        let rest = specs.split_off(specs.len().min(cell::PACKED_LANES));
        out.push(std::mem::replace(&mut specs, rest));
    }
    out
}

/// How a [`MultiReadGroup`] lane combines its counter reads: one small
/// `Copy` value per lane, its region bases and masks, stepped once per
/// conditional inside the group's one lane loop. A new combine rule is
/// one impl of this trait plus one arm in `Group::new`.
trait Combine: Copy + std::fmt::Debug + Send + 'static {
    /// The read the lane's history register feeds.
    const REGISTER_READ: usize;
    /// Alias-instrumented table accesses per conditional.
    const ACCESSES: u64;

    /// The rule of a lane with plan `plan`, whose regions start at
    /// `bases` (one per read, in read order).
    fn new(plan: &WalkPlan, bases: &[u64]) -> Self;

    /// The initial cell of read `read`'s region, when it is not the
    /// arena's untagged weakly-taken default.
    fn fill(_read: usize) -> Option<Cell> {
        None
    }

    /// One conditional, `packed` with owner `tag`, under history `reg`:
    /// predicts and trains in the lane's regions of `arena`, and returns
    /// its conflicts, harmless conflicts and 1 on a miss.
    fn step(&self, arena: &mut [Cell], reg: &GlobalRegister, packed: u64, tag: u32) -> LaneCounts;
}

/// A lane group for every plan with several counter reads (bi-mode,
/// gskew, tournament, YAGS), its lane loop compiled once per
/// [`Combine`] rule. Every lane keeps a [`GlobalRegister`]; its regions
/// sit in the one shared arena, each slot masked by the arena's length.
#[derive(Debug)]
struct MultiReadGroup<C> {
    /// Each lane's rule and history register.
    lanes: Vec<(C, GlobalRegister)>,
    arena: Vec<Cell>,
}

impl<C: Combine> MultiReadGroup<C> {
    fn boxed(specs: &[PlanSpec]) -> Box<dyn GroupKernel> {
        let (regions, arena) = lane_arena(specs, C::fill);
        let mut bases = regions.iter().map(|region| region.start as u64);
        let lanes = (specs.iter())
            .map(|spec| {
                let plan = &spec.plan;
                let bases: Vec<u64> = bases.by_ref().take(plan.reads.len()).collect();
                let reg = GlobalRegister::feeding(plan, plan.reads[C::REGISTER_READ]);
                (C::new(plan, &bases), reg)
            })
            .collect();
        Box::new(MultiReadGroup { lanes, arena })
    }
}

/// A lane's counts over the conditionals `stream` with owner `tags`,
/// its misses counted only when `scored`. The rule, the register and
/// the accumulators stay in locals.
#[inline(always)]
fn step_lane<C: Combine>(
    rule: C,
    reg: &mut GlobalRegister,
    arena: &mut [Cell],
    (stream, tags): (&[u64], &[u32]),
    scored: bool,
) -> LaneCounts {
    let (mut conflicts, mut harmless, mut wrong) = (0u64, 0u64, 0u64);
    for (&packed, &tag) in stream.iter().zip(tags) {
        let (conflict, harmless_conflict, miss) = rule.step(arena, reg, packed, tag);
        conflicts += conflict;
        harmless += harmless_conflict;
        if scored {
            wrong += miss;
        }
        reg.advance(packed);
    }
    (conflicts, harmless, wrong)
}

impl<C: Combine> GroupKernel for MultiReadGroup<C> {
    /// The chunk splits at the warmup boundary once, so no record tests
    /// whether it is scored.
    #[inline(never)]
    fn replay_lane(&mut self, lane: usize, input: &ChunkInputs, unscored: usize) -> LaneCounts {
        let (rule, mut reg) = self.lanes[lane];
        let stream = &input.conditionals[..];
        let (warm, scored) = stream.split_at(unscored);
        let (warm_tags, scored_tags) = input.tags[..stream.len()].split_at(unscored);
        let arena = self.arena.as_mut_slice();
        let (c0, h0, _) = step_lane(rule, &mut reg, arena, (warm, warm_tags), false);
        let (c1, h1, wrong) = step_lane(rule, &mut reg, arena, (scored, scored_tags), true);
        self.lanes[lane].1 = reg;
        (c0 + c1, h0 + h1, wrong)
    }

    fn accesses_per_conditional(&self) -> Option<u64> {
        Some(C::ACCESSES)
    }
}

/// Slot `base | index`, masked by the arena's power-of-two length.
#[inline(always)]
fn slot(arena: &[Cell], base: u64, index: u64) -> usize {
    (base | index) as usize & (arena.len() - 1)
}

/// Bi-mode ([`PlanKind::BiModeChoice`]): a peeked choice read steers
/// each record to one of two direction regions; the selected counter
/// trains toward the outcome and the choice counter trains too unless
/// the bi-mode exception holds (choice disagreed but the selected
/// counter was right). The choice cells are only ever peeked and
/// retrained, so their owner tags stay empty and they contribute no
/// alias accounting — exactly the scalar tables' split.
#[derive(Debug, Clone, Copy)]
struct BiMode {
    /// Region bases: taken, not-taken, choice.
    bases: [u64; 3],
    choice_mask: u64,
}

impl Combine for BiMode {
    const REGISTER_READ: usize = 0;
    const ACCESSES: u64 = 1;

    fn new(plan: &WalkPlan, bases: &[u64]) -> Self {
        BiMode {
            bases: bases.try_into().expect("three reads"),
            choice_mask: wide_low_mask(plan.reads[2].col_bits),
        }
    }

    #[inline(always)]
    fn step(&self, arena: &mut [Cell], reg: &GlobalRegister, packed: u64, tag: u32) -> LaneCounts {
        let [taken_base, not_taken_base, choice_base] = self.bases;
        let taken = packed & 1;
        let choice_slot = slot(arena, choice_base, (packed >> 3) & self.choice_mask);
        let choice_cell = arena[choice_slot];
        let use_taken = (choice_cell & 0b11) >= 2;
        // Region select between the direction tables, kept a cmov (x86
        // would branch on it); the selected counter trains toward the outcome.
        let dir_base = select_unpredictable(use_taken, taken_base, not_taken_base);
        let dir_slot = slot(arena, dir_base, reg.index_of(packed));
        let (conflict, miss) = access::<TowardOutcome>(arena, dir_slot, packed, tag, &[], 0);
        // Choice trains toward the outcome except on the bi-mode
        // exception; its owner (empty) is preserved — peek and retrain
        // never tag.
        let exception = (u64::from(use_taken) ^ taken) & (1 - miss);
        arena[choice_slot] = retrain(choice_cell, taken, 1 - exception);
        (conflict, conflict & reg.all_taken(), miss)
    }
}

/// gskew ([`PlanKind::SkewedMajority`]): three skewed bank reads per
/// record, majority vote, total-update training. Each lane owns three
/// disjoint bank regions, so the scalar access-access-access /
/// train-train-train sequence fuses into one read-modify-write per
/// bank.
#[derive(Debug, Clone, Copy)]
struct Gskew {
    bases: [u64; 3],
    /// The hash down-shift, `64 - bank_bits` (0 for a zero-bit bank).
    shift: u64,
    /// All ones, or zero for a zero-bit bank: its hash key is then 0,
    /// so every bank index is 0 — the scalar `Gskew` rule for
    /// single-counter banks.
    key_mask: u64,
}

impl Combine for Gskew {
    const REGISTER_READ: usize = 0;
    const ACCESSES: u64 = 3;

    fn new(plan: &WalkPlan, bases: &[u64]) -> Self {
        let bank_bits = plan.reads[0].row_bits;
        Gskew {
            bases: bases.try_into().expect("three reads"),
            shift: u64::from(64 - bank_bits) % 64,
            key_mask: if bank_bits == 0 { 0 } else { u64::MAX },
        }
    }

    #[inline(always)]
    fn step(&self, arena: &mut [Cell], reg: &GlobalRegister, packed: u64, tag: u32) -> LaneCounts {
        let taken = packed & 1;
        let key = (((packed >> 3) << 20) ^ reg.hist) & self.key_mask;
        // All three loads issue before any store: an interleaved
        // read-modify-write would order each load after the previous
        // bank's store (the compiler cannot prove the disjoint slots
        // apart). Either way it is one fused RMW per bank.
        let slots: [usize; 3] = std::array::from_fn(|bank| {
            let index = key.wrapping_mul(SKEW_BANK_MULTIPLIERS[bank]) >> self.shift;
            slot(arena, self.bases[bank], index)
        });
        let cells = slots.map(|s| arena[s]);
        let (mut conflicts, mut votes) = (0, 0);
        for (s, cell_word) in slots.into_iter().zip(cells) {
            let (bits, conflict) = peek(cell_word, tag);
            arena[s] = owned(tag, counter_step(bits, taken));
            conflicts += conflict;
            votes += bits >> 1;
        }
        let miss = (votes >= 2) as u64 ^ taken;
        (conflicts, conflicts & reg.all_taken().wrapping_neg(), miss)
    }
}

/// Tournament ([`PlanKind::TournamentChooser`]): a per-address chooser
/// read steers between two component reads — an address-indexed table
/// (read 0) and a gshare table (read 1) — per the
/// [`Combining`](bpred_core::Combining) kernel. Both components
/// access-then-train exactly like the scalar [`cell::step`]; the
/// chooser is the scalar kernel's bare counter vector, so its cells
/// are peeked and retrained with their owner preserved (never tagged,
/// no alias accounting) and train toward "the second component was
/// right" only when the components disagreed.
#[derive(Debug, Clone, Copy)]
struct Tournament {
    /// Region bases: address-indexed, gshare, chooser.
    bases: [u64; 3],
    addr_mask: u64,
    chooser_mask: u64,
}

impl Combine for Tournament {
    const REGISTER_READ: usize = 1;
    /// Both components, whose stats the scalar kernel sums; not the chooser.
    const ACCESSES: u64 = 2;

    fn new(plan: &WalkPlan, bases: &[u64]) -> Self {
        Tournament {
            bases: bases.try_into().expect("three reads"),
            addr_mask: wide_low_mask(plan.reads[0].col_bits),
            chooser_mask: wide_low_mask(plan.reads[2].col_bits),
        }
    }

    /// The scalar chooser starts weakly-not-taken ("trust the first
    /// component"), unlike the arena's weakly-taken default.
    fn fill(read: usize) -> Option<Cell> {
        (read == 2).then_some(owned(NarrowTags::EMPTY, 1))
    }

    #[inline(always)]
    fn step(&self, arena: &mut [Cell], reg: &GlobalRegister, packed: u64, tag: u32) -> LaneCounts {
        let [addr_base, gshare_base, chooser_base] = self.bases;
        let word = packed >> 3;
        // Both components access and train toward the outcome
        // (disjoint regions, so in either order): address-indexed (row
        // always zero, so never an all-taken pattern), then gshare
        // (column-free, `history_bits` rows wide).
        let a_slot = slot(arena, addr_base, word & self.addr_mask);
        let (a_conflict, a_miss) = access::<TowardOutcome>(arena, a_slot, packed, tag, &[], 0);
        let g_slot = slot(arena, gshare_base, reg.index_of(packed));
        let (g_conflict, g_miss) = access::<TowardOutcome>(arena, g_slot, packed, tag, &[], 0);
        let chooser_slot = slot(arena, chooser_base, word & self.chooser_mask);
        let chooser_cell = arena[chooser_slot];
        let use_second = ((chooser_cell & 0b11) >= 2) as u64;
        // The untagged chooser trains toward "the second was right".
        arena[chooser_slot] = retrain(chooser_cell, 1 ^ g_miss, a_miss ^ g_miss);
        let miss = a_miss ^ ((a_miss ^ g_miss) & use_second.wrapping_neg());
        (a_conflict + g_conflict, g_conflict & reg.all_taken(), miss)
    }
}

/// YAGS ([`PlanKind::TaggedChoice`]): an untagged choice read gives the
/// bias; the opposite direction cache — a tagged exception store — is
/// probed at `history ^ address`, and a tag hit overrides the bias.
/// Training steps the probed entry on a hit, allocates (unconditional
/// eviction, tag + weak counter) on a wrong-bias miss, and retrains
/// the choice unless a hit already captured the anti-bias outcome —
/// exactly the [`Yags`](bpred_core::Yags) sequence. Cache entries hold
/// the partial tag in the owner bits and the `u16::MAX` empty sentinel
/// (partial tags are at most 8 bits, so the sentinel is unreachable).
#[derive(Debug, Clone, Copy)]
struct Yags {
    /// Region bases: choice, taken cache, not-taken cache.
    bases: [u64; 3],
    choice_mask: u64,
    tag_mask: u64,
}

impl Combine for Yags {
    const REGISTER_READ: usize = 1;
    /// The choice access only: the scalar caches are uninstrumented.
    const ACCESSES: u64 = 1;

    fn new(plan: &WalkPlan, bases: &[u64]) -> Self {
        Yags {
            bases: bases.try_into().expect("three reads"),
            choice_mask: wide_low_mask(plan.reads[0].col_bits),
            tag_mask: wide_low_mask(plan.reads[1].tag_bits),
        }
    }

    /// Empty cache entries: the scalar caches' `u16::MAX` sentinel tag
    /// over their initial counters, weakly toward each cache's direction
    /// (never observable before an allocation overwrites them).
    fn fill(read: usize) -> Option<Cell> {
        let empty = u32::from(u16::MAX);
        [None, Some(owned(empty, 2)), Some(owned(empty, 1))][read]
    }

    #[inline(always)]
    fn step(&self, arena: &mut [Cell], reg: &GlobalRegister, packed: u64, tag: u32) -> LaneCounts {
        let [choice_base, taken_base, not_taken_base] = self.bases;
        let taken = packed & 1;
        let word = packed >> 3;
        // The choice access: the bias, and the lane's only alias counts.
        let choice_slot = slot(arena, choice_base, word & self.choice_mask);
        let choice_cell = arena[choice_slot];
        let (c_bits, conflict) = peek(choice_cell, tag);
        let bias = u64::from(c_bits >= 2);
        // Probe the cache opposite the bias for an exception.
        let cache_base = select_unpredictable(bias != 0, not_taken_base, taken_base);
        let entry_slot = slot(arena, cache_base, reg.index_of(packed));
        let entry = arena[entry_slot];
        let partial = word & self.tag_mask;
        let hit = (u64::from(entry >> 2) == partial) as u64;
        let entry_pred = ((entry & 0b11) >= 2) as u64;
        let predicted = bias ^ ((bias ^ entry_pred) & hit.wrapping_neg());
        // Cache entry: train on a hit, allocate (evict) on a wrong-bias
        // miss, leave untouched otherwise.
        let trained = retrain(entry, taken, 1);
        let allocated = owned(partial as u32, 1 + taken);
        let hit_m = (hit as Cell).wrapping_neg();
        let alloc_m = ((1 - hit) & (taken ^ bias)).wrapping_neg() as Cell;
        arena[entry_slot] =
            (trained & hit_m) | (allocated & alloc_m) | (entry & !(hit_m | alloc_m));
        // Choice: retrain toward the outcome unless a hit captured the
        // anti-bias outcome; re-tagged either way (the scalar access was).
        let train = 1 - (hit & (taken ^ bias));
        arena[choice_slot] = owned(tag, u64::from(retrain(choice_cell, taken, train) & 0b11));
        (conflict, conflict & reg.all_taken(), predicted ^ taken)
    }
}

/// A lane group for [`PlanKind::LastOutcome`]: LastTime's degenerate
/// one-bit table, predicting whatever outcome the indexed entry last
/// stored. No shared-arena cells (there are no counters to pack and
/// no owner tags to account) — each lane is a flat byte-per-entry
/// table, updated with a blind store so no read-modify-write chain
/// serializes the walk.
#[derive(Debug)]
struct LastTimeGroup {
    addr_mask: Vec<u64>,
    /// Per-lane last-outcome table, one byte per entry (0 =
    /// not-taken, the initial state, 1 = taken).
    table: Vec<Vec<u8>>,
}

impl LastTimeGroup {
    fn new(specs: &[PlanSpec]) -> Self {
        LastTimeGroup {
            addr_mask: per_lane(specs, |p| wide_low_mask(p.reads[0].col_bits)),
            table: specs
                .iter()
                .map(|s| vec![0u8; s.plan.reads[0].cells() as usize])
                .collect(),
        }
    }

    /// Walks one chunk through lanes `lane..lane + N` together and
    /// returns their mispredictions. The chunk is split at the warmup
    /// boundary once instead of testing each record: the `unscored`
    /// warmup records update the table without scoring, scored records
    /// pay one load + xor + blind store each. Walking lanes in blocks
    /// amortizes the shared record decode and overlaps same-entry
    /// store-to-load chains from different lanes.
    fn replay_block<const N: usize>(
        &mut self,
        lane: usize,
        stream: &[u64],
        unscored: usize,
    ) -> [u64; N] {
        let (warm, scored) = stream.split_at(unscored);
        let masks: [u64; N] = std::array::from_fn(|k| self.addr_mask[lane + k]);
        let block: &mut [Vec<u8>; N] = (&mut self.table[lane..lane + N])
            .try_into()
            .expect("N lanes");
        // Reslice each table to exactly `mask + 1` entries (its full
        // length) so the masked index is provably in bounds and the
        // inner loops stay check-free.
        let mut tables = block.each_mut().map(Vec::as_mut_slice);
        for (table, &mask) in tables.iter_mut().zip(&masks) {
            *table = &mut std::mem::take(table)[..=(mask as usize)];
        }
        let mut wrong = [0u64; N];
        for &packed in warm {
            let (taken, key) = ((packed & 1) as u8, packed >> 3);
            for k in 0..N {
                tables[k][(key & masks[k]) as usize] = taken;
            }
        }
        for &packed in scored {
            let (taken, key) = ((packed & 1) as u8, packed >> 3);
            for k in 0..N {
                let idx = (key & masks[k]) as usize;
                wrong[k] += (tables[k][idx] ^ taken) as u64;
                tables[k][idx] = taken;
            }
        }
        wrong
    }
}

impl GroupKernel for LastTimeGroup {
    /// Lanes in octets, then a quad, then one at a time.
    fn replay(&mut self, lanes: &mut [LaneTally], input: &ChunkInputs, unscored: usize) {
        let stream = &input.conditionals[..];
        let mut lane = 0;
        while lane + 8 <= lanes.len() {
            let wrong = self.replay_block::<8>(lane, stream, unscored);
            for (tally, wrong) in lanes[lane..].iter_mut().zip(wrong) {
                tally.mispredictions += wrong;
            }
            lane += 8;
        }
        if lane + 4 <= lanes.len() {
            let wrong = self.replay_block::<4>(lane, stream, unscored);
            for (tally, wrong) in lanes[lane..].iter_mut().zip(wrong) {
                tally.mispredictions += wrong;
            }
            lane += 4;
        }
        for (lane, tally) in lanes.iter_mut().enumerate().skip(lane) {
            tally.add(self.replay_lane(lane, input, unscored));
        }
    }

    /// One lane alone: the tail of [`replay`](GroupKernel::replay)'s
    /// octets and quad.
    #[inline(never)]
    fn replay_lane(&mut self, lane: usize, input: &ChunkInputs, unscored: usize) -> LaneCounts {
        let [wrong] = self.replay_block::<1>(lane, &input.conditionals, unscored);
        (0, 0, wrong)
    }

    /// A one-bit table has no owner tags to account.
    fn accesses_per_conditional(&self) -> Option<u64> {
        None
    }
}

/// A set of predictor lanes advancing together through one chunk
/// stream, each on its fastest applicable dispatch tier.
///
/// Build one over a configuration list, feed it chunks in stream
/// order with [`replay_chunk`](LaneSet::replay_chunk), and close it
/// with [`finish`](LaneSet::finish); results come back in
/// configuration order and are bit-identical to running
/// [`Simulator::run`] per configuration (the workspace determinism
/// and multilane suites enforce this).
///
/// # Examples
///
/// ```
/// use bpred_core::PredictorConfig;
/// use bpred_sim::{LaneSet, Simulator};
/// use bpred_trace::{BranchRecord, Outcome, TraceChunk};
///
/// let chunk: TraceChunk = (0..100)
///     .map(|i| BranchRecord::conditional(0x40 + 4 * (i % 8), 0x20, Outcome::from(i % 3 != 0)))
///     .collect();
/// let configs = [
///     PredictorConfig::AlwaysTaken,
///     PredictorConfig::Gshare { history_bits: 6, col_bits: 2 },
/// ];
/// let mut lanes = LaneSet::new(&configs, Simulator::new());
/// lanes.replay_chunk(&chunk);
/// let results = lanes.finish();
/// assert_eq!(results.len(), 2);
/// assert_eq!(results[0].conditionals, 100);
/// ```
#[derive(Debug)]
pub struct LaneSet {
    len: usize,
    warmup: u64,
    /// Conditionals fed so far (the shared table-access count).
    seen: u64,
    /// Conditionals scored so far (past the warmup prefix).
    scored: u64,
    groups: Vec<Group>,
    statics: Vec<StaticUnit>,
    scalars: Vec<(usize, Box<dyn ScalarLane + Send>)>,
    inputs: ChunkInputs,
}

impl LaneSet {
    /// Partitions `configs` into dispatch tiers (honouring
    /// `BPRED_FORCE_SCALAR`) and builds the lanes. Scoring follows
    /// `simulator`'s warmup policy, shared by every tier.
    pub fn new(configs: &[PredictorConfig], simulator: Simulator) -> Self {
        let force_scalar = force_scalar();
        // Plan specs bucketed by kind, in first-appearance order.
        let mut buckets: Vec<(PlanKind, Vec<PlanSpec>)> = Vec::new();
        let mut statics = Vec::new();
        let mut scalars = Vec::new();
        for (index, config) in configs.iter().enumerate() {
            let scheme = match config {
                _ if force_scalar => None,
                PredictorConfig::AlwaysTaken => Some(StaticScheme::AlwaysTaken),
                PredictorConfig::AlwaysNotTaken => Some(StaticScheme::AlwaysNotTaken),
                PredictorConfig::Btfn => Some(StaticScheme::Btfn),
                _ => None,
            };
            if let Some(scheme) = scheme {
                statics.push(StaticUnit {
                    index,
                    scheme,
                    name: config.build().name(),
                    mispredictions: 0,
                });
                continue;
            }
            let Some(plan) = WalkPlan::of(config).filter(|_| !force_scalar) else {
                scalars.push((index, scalar_lane(config, simulator)));
                continue;
            };
            // Name and state cost come from the scalar scheme itself —
            // the single source of the describe() rules — captured
            // once at build and the scheme dropped.
            let scheme = config.build();
            let spec = PlanSpec {
                index,
                name: scheme.name(),
                state_bits: scheme.state_bits(),
                plan,
            };
            let kind = spec.plan.kind();
            match buckets.iter_mut().find(|(k, _)| *k == kind) {
                Some((_, specs)) => specs.push(spec),
                None => buckets.push((kind, vec![spec])),
            }
        }
        let mut inputs = ChunkInputs::default();
        let mut groups = Vec::new();
        for (kind, mut specs) in buckets {
            row_block_plans(&mut specs);
            groups.extend(
                split_at_lane_limit(specs)
                    .into_iter()
                    .map(|chunk| Group::new(kind, chunk, &mut inputs)),
            );
        }
        LaneSet {
            len: configs.len(),
            warmup: simulator.warmup() as u64,
            seen: 0,
            scored: 0,
            groups,
            statics,
            scalars,
            inputs,
        }
    }

    /// Number of lanes (configurations) in the set.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the set holds no lanes.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of lanes on the scalar fallback tier.
    pub fn scalar_lanes(&self) -> usize {
        self.scalars.len()
    }

    /// Lane counts per dispatch tier / plan family, aligned with
    /// [`LANE_TIER_LABELS`] — the raw material of the
    /// `bpred_replay_group_lanes{plan=...}` gauge.
    pub fn lane_tier_counts(&self) -> [u64; LANE_TIER_LABELS.len()] {
        let mut counts = [0u64; LANE_TIER_LABELS.len()];
        for group in &self.groups {
            counts[group.tier] += group.lanes.len() as u64;
        }
        counts[tier_slot("static")] = self.statics.len() as u64;
        counts[tier_slot("scalar")] = self.scalars.len() as u64;
        counts
    }

    /// Number of groups whose arena footprint turned the two-phase
    /// prefetch form on (see [`PREFETCH_SPILL_BYTES`]).
    pub fn prefetch_groups(&self) -> usize {
        self.groups.iter().filter(|g| g.kernel.prefetches()).count()
    }

    /// Feeds one chunk through every lane. Chunks must arrive in
    /// stream order; record semantics per lane are identical to
    /// [`ReplayCore::feed`](crate::ReplayCore::feed) over the same records.
    pub fn replay_chunk(&mut self, chunk: &TraceChunk) {
        let (conditionals, taken) = conditional_counts(chunk);
        // The chunk's conditionals in the warmup prefix, split off once
        // for every tier.
        let unscored = conditionals.min(self.warmup.saturating_sub(self.seen));
        if !self.groups.is_empty() {
            self.inputs.decode(chunk);
            for group in &mut self.groups {
                (group.kernel).replay(&mut group.lanes, &self.inputs, unscored as usize);
            }
        }
        for unit in &mut self.statics {
            unit.replay_chunk(chunk, unscored, conditionals, taken);
        }
        for (_, lane) in &mut self.scalars {
            lane.feed_chunk(chunk);
        }
        self.scored += conditionals - unscored;
        self.seen += conditionals;
    }

    /// Closes every lane into its [`SimResult`], in configuration
    /// order.
    pub fn finish(self) -> Vec<SimResult> {
        let mut results: Vec<Option<SimResult>> = (0..self.len).map(|_| None).collect();
        for group in self.groups {
            group.finish(&self.inputs, self.seen, self.scored, &mut results);
        }
        for unit in self.statics {
            let slot = unit.index;
            results[slot] = Some(unit.finish(self.scored));
        }
        for (index, lane) in self.scalars {
            results[index] = Some(lane.finish());
        }
        results
            .into_iter()
            .map(|r| r.expect("every lane finished"))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bpred_trace::{BranchRecord, Trace, TraceSource};
    use std::collections::HashSet;

    fn trace(n: usize) -> Trace {
        let mut t = Trace::new();
        for i in 0..n as u64 {
            if i % 17 == 0 {
                t.push(BranchRecord::jump(0x900 + 4 * (i % 5), 0x40));
            }
            t.push(BranchRecord::conditional(
                0x400 + 4 * (i % 23),
                if i % 4 == 0 { 0x100 } else { 0x900 },
                Outcome::from((i * 7) % 5 < 3),
            ));
        }
        t
    }

    fn grouped_configs() -> Vec<PredictorConfig> {
        vec![
            PredictorConfig::AlwaysTaken,
            PredictorConfig::AlwaysNotTaken,
            PredictorConfig::Btfn,
            PredictorConfig::AddressIndexed { addr_bits: 4 },
            PredictorConfig::AddressIndexed { addr_bits: 0 },
            PredictorConfig::Gas {
                history_bits: 0,
                col_bits: 3,
            },
            PredictorConfig::Gas {
                history_bits: 5,
                col_bits: 0,
            },
            PredictorConfig::Gas {
                history_bits: 4,
                col_bits: 3,
            },
            PredictorConfig::Gshare {
                history_bits: 0,
                col_bits: 4,
            },
            PredictorConfig::Gshare {
                history_bits: 6,
                col_bits: 2,
            },
            PredictorConfig::Gshare {
                history_bits: 8,
                col_bits: 0,
            },
        ]
    }

    /// Every configuration through one [`LaneSet`]: a single shard.
    fn one_lane_set(
        configs: &[PredictorConfig],
        t: &Trace,
        simulator: Simulator,
    ) -> Vec<SimResult> {
        crate::run_batched(configs, t, simulator, configs.len().max(1))
    }

    fn assert_matches_serial(configs: &[PredictorConfig], t: &Trace, simulator: Simulator) {
        let multilane = one_lane_set(configs, t, simulator);
        for (config, got) in configs.iter().zip(&multilane) {
            let want = simulator.run(&mut config.build(), t);
            assert_eq!(&want, got, "{config}");
        }
    }

    /// Fused groups of `lanes` on the tier labelled `label`.
    fn groups_on(lanes: &LaneSet, label: &str) -> usize {
        lanes
            .groups
            .iter()
            .filter(|g| g.tier == tier_slot(label))
            .count()
    }

    #[test]
    fn grouped_tiers_match_serial_replay() {
        assert_matches_serial(&grouped_configs(), &trace(3_000), Simulator::new());
    }

    #[test]
    fn warmup_is_honoured_on_every_tier() {
        for warmup in [1, 100, 2_999, 3_000, 10_000] {
            assert_matches_serial(
                &grouped_configs(),
                &trace(3_000),
                Simulator::with_warmup(warmup),
            );
        }
    }

    #[test]
    fn scalar_tier_configs_match_serial_replay() {
        // The families that used to pin lanes to the scalar fallback
        // (multi-structure schemes) now all group; the mix still
        // replays bit-identically alongside every other tier.
        let configs = vec![
            PredictorConfig::LastTime { addr_bits: 4 },
            PredictorConfig::Path {
                row_bits: 5,
                col_bits: 2,
                bits_per_target: 2,
            },
            PredictorConfig::Tournament {
                addr_bits: 4,
                history_bits: 4,
                chooser_bits: 4,
            },
            PredictorConfig::Gshare {
                history_bits: 5,
                col_bits: 1,
            },
        ];
        let lanes = LaneSet::new(&configs, Simulator::new());
        if !force_scalar() {
            assert_eq!(lanes.scalar_lanes(), 0);
        }
        assert_matches_serial(&configs, &trace(2_000), Simulator::new());
    }

    #[test]
    fn zero_bit_gskew_banks_match_the_scalar_oracle() {
        // A zero-bit bank (explicit, or defaulted from h=0) indexes
        // its single counter at 0 in both kernels; it groups like any
        // other gskew lane.
        let configs = vec![
            PredictorConfig::Gskew {
                history_bits: 4,
                bank_bits: 0,
            },
            PredictorConfig::Gskew {
                history_bits: 0,
                bank_bits: 0,
            },
            PredictorConfig::Gshare {
                history_bits: 5,
                col_bits: 1,
            },
        ];
        let lanes = LaneSet::new(&configs, Simulator::new());
        let fused = if force_scalar() { 0 } else { 3 };
        assert_eq!(lanes.scalar_lanes(), configs.len() - fused);
        assert_matches_serial(&configs, &trace(2_000), Simulator::new());
        assert_matches_serial(&configs, &trace(2_000), Simulator::with_warmup(500));
    }

    #[test]
    fn groups_split_at_the_packed_lane_limit() {
        // More groupable lanes than fit one packed word.
        let configs: Vec<PredictorConfig> = (0..(cell::PACKED_LANES as u32 + 9))
            .map(|i| PredictorConfig::Gshare {
                history_bits: 2 + (i % 7),
                col_bits: i % 4,
            })
            .collect();
        let lanes = LaneSet::new(&configs, Simulator::new());
        if force_scalar() {
            // The CI matrix re-runs this suite under
            // BPRED_FORCE_SCALAR=1, where every lane is scalar-tier.
            assert!(lanes.groups.is_empty());
            assert_eq!(lanes.scalar_lanes(), configs.len());
        } else {
            assert_eq!(lanes.groups.len(), 2);
            assert_eq!(lanes.scalar_lanes(), 0);
        }
        assert_matches_serial(&configs, &trace(1_500), Simulator::new());
    }

    #[test]
    fn duplicate_configs_get_independent_lanes() {
        let configs = vec![
            PredictorConfig::Gshare {
                history_bits: 5,
                col_bits: 2,
            };
            3
        ];
        let results = one_lane_set(&configs, &trace(1_000), Simulator::new());
        assert_eq!(results[0], results[1]);
        assert_eq!(results[1], results[2]);
    }

    /// The table-walk-plan families (everything groupable beyond the
    /// single-read Direct shape), with degenerate shapes included.
    fn plan_configs() -> Vec<PredictorConfig> {
        vec![
            PredictorConfig::PasInfinite {
                history_bits: 5,
                col_bits: 2,
            },
            PredictorConfig::PasInfinite {
                history_bits: 1,
                col_bits: 0,
            },
            PredictorConfig::PasFinite {
                history_bits: 5,
                col_bits: 2,
                entries: 64,
                ways: 2,
            },
            PredictorConfig::PasFinite {
                history_bits: 3,
                col_bits: 1,
                entries: 8,
                ways: 8,
            },
            PredictorConfig::Sas {
                history_bits: 5,
                set_bits: 3,
                col_bits: 2,
            },
            PredictorConfig::Sas {
                history_bits: 1,
                set_bits: 0,
                col_bits: 0,
            },
            PredictorConfig::Agree {
                history_bits: 6,
                index_bits: 8,
            },
            PredictorConfig::Agree {
                history_bits: 0,
                index_bits: 3,
            },
            PredictorConfig::BiMode {
                history_bits: 6,
                direction_bits: 7,
                choice_bits: 7,
            },
            PredictorConfig::BiMode {
                history_bits: 0,
                direction_bits: 2,
                choice_bits: 0,
            },
            PredictorConfig::Gskew {
                history_bits: 6,
                bank_bits: 7,
            },
            PredictorConfig::Gskew {
                history_bits: 40,
                bank_bits: 9,
            },
            PredictorConfig::Tournament {
                addr_bits: 5,
                history_bits: 6,
                chooser_bits: 4,
            },
            PredictorConfig::Tournament {
                addr_bits: 0,
                history_bits: 0,
                chooser_bits: 0,
            },
            PredictorConfig::Yags {
                choice_bits: 6,
                cache_bits: 5,
                tag_bits: 4,
            },
            PredictorConfig::Yags {
                choice_bits: 0,
                cache_bits: 0,
                tag_bits: 1,
            },
            PredictorConfig::Path {
                row_bits: 6,
                col_bits: 2,
                bits_per_target: 3,
            },
            PredictorConfig::Path {
                row_bits: 0,
                col_bits: 2,
                bits_per_target: 1,
            },
            PredictorConfig::LastTime { addr_bits: 5 },
            PredictorConfig::LastTime { addr_bits: 0 },
        ]
    }

    #[test]
    fn plan_families_replay_on_the_grouped_tier() {
        let configs = plan_configs();
        let lanes = LaneSet::new(&configs, Simulator::new());
        if force_scalar() {
            assert_eq!(lanes.scalar_lanes(), configs.len());
        } else {
            // Every family must land on its plan group, not the
            // scalar fallback.
            assert_eq!(lanes.scalar_lanes(), 0);
            for label in &LANE_TIER_LABELS[1..11] {
                assert_eq!(groups_on(&lanes, label), 1, "{label}");
            }
            assert_eq!(groups_on(&lanes, "direct"), 0);
        }
        assert_matches_serial(&configs, &trace(3_000), Simulator::new());
    }

    #[test]
    fn every_plan_kind_splits_at_the_lane_limit() {
        // 17 copies of two lanes per plan kind (eight Direct): every
        // kind outgrows one group, and each splits into exactly as
        // many groups as the lane limit requires.
        let mut one_copy = plan_configs();
        one_copy.extend(grouped_configs());
        let configs: Vec<PredictorConfig> = (0..17).flat_map(|_| one_copy.clone()).collect();
        let lanes = LaneSet::new(&configs, Simulator::new());
        if !force_scalar() {
            let counts = lanes.lane_tier_counts();
            for label in &LANE_TIER_LABELS[..11] {
                let count = counts[tier_slot(label)] as usize;
                assert!(count > cell::PACKED_LANES, "{label}");
                let want = count.div_ceil(cell::PACKED_LANES);
                assert_eq!(groups_on(&lanes, label), want, "{label}");
            }
        }
        assert_matches_serial(&configs, &trace(600), Simulator::with_warmup(100));
    }

    #[test]
    fn plan_families_honour_warmup() {
        for warmup in [1, 100, 2_999, 3_000] {
            assert_matches_serial(
                &plan_configs(),
                &trace(3_000),
                Simulator::with_warmup(warmup),
            );
        }
    }

    #[test]
    fn gskew_zero_bank_bits_rides_the_gskew_group() {
        let configs = vec![
            PredictorConfig::Gskew {
                history_bits: 4,
                bank_bits: 0,
            },
            PredictorConfig::Gskew {
                history_bits: 6,
                bank_bits: 3,
            },
        ];
        let lanes = LaneSet::new(&configs, Simulator::new());
        if !force_scalar() {
            assert_eq!(lanes.scalar_lanes(), 0);
            assert_eq!(groups_on(&lanes, "gskew"), 1);
        }
        assert_matches_serial(&configs, &trace(2_500), Simulator::new());
    }

    #[test]
    fn duplicate_plan_configs_get_independent_lanes() {
        let mut configs = vec![
            PredictorConfig::Agree {
                history_bits: 5,
                index_bits: 7,
            };
            3
        ];
        configs.extend(vec![
            PredictorConfig::PasInfinite {
                history_bits: 4,
                col_bits: 1,
            };
            3
        ]);
        let results = one_lane_set(&configs, &trace(1_200), Simulator::new());
        assert_eq!(results[0], results[1]);
        assert_eq!(results[1], results[2]);
        assert_eq!(results[3], results[4]);
        assert_eq!(results[4], results[5]);
    }

    #[test]
    fn duplicate_multi_structure_configs_get_independent_lanes() {
        let mut configs = vec![
            PredictorConfig::Yags {
                choice_bits: 5,
                cache_bits: 4,
                tag_bits: 3,
            };
            3
        ];
        configs.extend(vec![
            PredictorConfig::Tournament {
                addr_bits: 4,
                history_bits: 5,
                chooser_bits: 3,
            };
            3
        ]);
        configs.extend(vec![
            PredictorConfig::Path {
                row_bits: 4,
                col_bits: 1,
                bits_per_target: 2,
            };
            3
        ]);
        let results = one_lane_set(&configs, &trace(1_200), Simulator::new());
        for k in [0, 3, 6] {
            assert_eq!(results[k], results[k + 1]);
            assert_eq!(results[k + 1], results[k + 2]);
        }
    }

    #[test]
    fn lane_tier_counts_label_every_lane() {
        let mut configs = plan_configs();
        configs.extend(grouped_configs());
        let lanes = LaneSet::new(&configs, Simulator::new());
        let counts = lanes.lane_tier_counts();
        assert_eq!(counts.iter().sum::<u64>() as usize, configs.len());
        let of = |label| counts[tier_slot(label)];
        if force_scalar() {
            assert_eq!(of("scalar") as usize, configs.len());
            assert_eq!(of("static"), 0, "statics force-scalar too");
        } else {
            assert_eq!(of("scalar"), 0);
            assert_eq!(of("static"), 3);
            for label in ["tournament", "yags", "path", "last-time"] {
                assert_eq!(of(label), 2, "{label}");
            }
        }
    }

    #[test]
    fn prefetch_gates_on_arena_footprint() {
        // One gshare lane of 2^20 four-byte cells fills exactly
        // PREFETCH_SPILL_BYTES; one more history bit crosses it.
        let at_bits = (PREFETCH_SPILL_BYTES / CELL_BYTES).trailing_zeros();
        assert_eq!((at_bits, CELL_BYTES << at_bits), (20, PREFETCH_SPILL_BYTES));
        let lane = |history_bits| PredictorConfig::Gshare {
            history_bits,
            col_bits: 0,
        };
        let at = LaneSet::new(&[lane(at_bits)], Simulator::new());
        let past = LaneSet::new(&[lane(at_bits + 1)], Simulator::new());
        assert_eq!(at.prefetch_groups(), 0);
        assert_eq!(past.prefetch_groups(), usize::from(!force_scalar()));
        // Agree lanes read their rows off a register too; walked lanes
        // never prefetch, however large their arena.
        let agree = PredictorConfig::Agree {
            history_bits: at_bits + 1,
            index_bits: at_bits + 1,
        };
        let pas = PredictorConfig::PasInfinite {
            history_bits: at_bits + 1,
            col_bits: 0,
        };
        let agree_past = LaneSet::new(&[agree], Simulator::new());
        assert_eq!(agree_past.prefetch_groups(), usize::from(!force_scalar()));
        assert_eq!(LaneSet::new(&[pas], Simulator::new()).prefetch_groups(), 0);
    }

    #[test]
    fn prefetch_path_is_bit_identical() {
        // For every rule the register source runs, force the prefetch
        // form on a second group built from the same specs and compare
        // against the plain loop.
        fn forced<R: CounterRule>(
            specs: &[PlanSpec],
            input: &mut ChunkInputs,
        ) -> Box<dyn GroupKernel> {
            Box::new(SingleReadGroup::<GlobalRegister, R> {
                prefetch: true,
                ..SingleReadGroup::new(specs, input)
            })
        }
        type Forced = fn(&[PlanSpec], &mut ChunkInputs) -> Box<dyn GroupKernel>;
        let mut configs = grouped_configs();
        configs.extend([(6, 8), (0, 3), (5, 5)].map(|(history_bits, index_bits)| {
            PredictorConfig::Agree {
                history_bits,
                index_bits,
            }
        }));
        let specs = |kind| -> Vec<PlanSpec> {
            (configs.iter().enumerate())
                .filter_map(|(index, config)| {
                    let plan = WalkPlan::of(config)?;
                    (plan.kind() == kind).then(|| PlanSpec {
                        index,
                        name: config.to_string(),
                        state_bits: 0,
                        plan,
                    })
                })
                .collect()
        };
        let mut input = ChunkInputs::default();
        let kinds: [(PlanKind, Forced); 2] = [
            (PlanKind::Direct, forced::<TowardOutcome>),
            (PlanKind::AgreeBias, forced::<AgreeWithBias>),
        ];
        let mut pairs: Vec<(Group, Group)> = (kinds.into_iter())
            .map(|(kind, forced)| {
                let plain = Group::new(kind, specs(kind), &mut input);
                let prefetched = Group {
                    kernel: forced(&specs(kind), &mut input),
                    ..Group::new(kind, specs(kind), &mut input)
                };
                assert!(!plain.kernel.prefetches() && prefetched.kernel.prefetches());
                (plain, prefetched)
            })
            .collect();
        let (mut seen, warmup) = (0, 300u64);
        for chunk in trace(2_500).chunks(256) {
            input.decode(&chunk);
            let unscored = input
                .conditionals
                .len()
                .min(warmup.saturating_sub(seen) as usize);
            for (plain, prefetched) in &mut pairs {
                for group in [plain, prefetched] {
                    group.kernel.replay(&mut group.lanes, &input, unscored);
                }
            }
            seen += input.conditionals.len() as u64;
        }
        let finish = |group: Group| {
            let mut results = vec![None; configs.len()];
            group.finish(&input, seen, seen - warmup, &mut results);
            results
        };
        for (plain, prefetched) in pairs {
            assert_eq!(finish(plain), finish(prefetched));
        }
    }

    #[test]
    fn level1_walk_rows_match_the_scalar_tables() {
        use bpred_core::{
            HistoryTable, PathRegister, PerfectBht, RowSelector, SetAssocBht, SetSelector,
        };
        use bpred_trace::BranchKind;
        enum Oracle {
            Table(Box<dyn HistoryTable>),
            Sets(SetSelector),
            Path(PathRegister),
        }
        // Eight hot branches outliving 64 outcomes between evictions,
        // under a 1-in-16 drizzle of 200 cold ones that keeps evicting.
        // Jumps, calls and returns fall between conditionals: only a
        // path register sees them.
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let mut t = Trace::new();
        for _ in 0..20_000 {
            // A 64-bit LCG; only its high bits are used.
            x = x.wrapping_mul(0x5851_F42D_4C95_7F2D).wrapping_add(1);
            let word = if x >> 60 == 0 {
                8 + (x >> 32) % 200
            } else {
                (x >> 32) % 8
            };
            let target = 4 * ((x >> 20) & 0xFFF);
            let outcome = Outcome::from_bit((x >> 59) & 1);
            t.push(BranchRecord::conditional(4 * word, target, outcome));
            let kind = match (x >> 56) & 7 {
                0 => BranchKind::Unconditional,
                1 => BranchKind::Call,
                2 => BranchKind::Return,
                _ => continue,
            };
            t.push(BranchRecord::new(
                0x800,
                (x >> 8) & !3,
                kind,
                Outcome::Taken,
            ));
        }
        let finite = |entries, ways| Level1Read::SetAssocBht { entries, ways };
        let sets = |set_bits| Level1Read::SetHistories { set_bits };
        let path = |bits_per_target| Level1Read::PathHistory { bits_per_target };
        let (perfect, widths) = (Level1Read::PerfectBht, [0, 1, 5, 16, 18, 63, 64]);
        for read in [
            finite(16, 1),
            finite(64, 4),
            finite(16, 16),
            perfect,
            sets(0),
            sets(3),
            path(1),
            path(2),
            path(4),
            path(16),
        ] {
            let mut oracles: Vec<Oracle> = (widths.iter())
                .map(|&w| match read {
                    Level1Read::SetAssocBht { entries, ways } => {
                        Oracle::Table(Box::new(SetAssocBht::new(entries, ways, w)))
                    }
                    Level1Read::SetHistories { set_bits } => {
                        Oracle::Sets(SetSelector::new(w, set_bits))
                    }
                    Level1Read::PathHistory { bits_per_target } => {
                        Oracle::Path(PathRegister::new(w, bits_per_target))
                    }
                    _ => Oracle::Table(Box::new(PerfectBht::new(w))),
                })
                .collect();
            let (mut input, mut saturated) = (ChunkInputs::default(), false);
            let slot = input.walk_slot(read);
            for chunk in t.chunks(1_500) {
                input.decode(&chunk);
                let walk = &input.walks[slot];
                assert_eq!(walk.hist.len(), input.conditionals.len(), "{read:?}");
                let mut i = 0;
                for record in chunk.iter() {
                    if !record.is_conditional() {
                        for oracle in &mut oracles {
                            if let Oracle::Path(reg) = oracle {
                                reg.push(record.target);
                            }
                        }
                        continue;
                    }
                    let (pc, outcome, age) = (record.pc, record.outcome, walk.age[i]);
                    saturated |= age == 64;
                    for (&width, oracle) in widths.iter().zip(&mut oracles) {
                        let row = reset_fill(width)[usize::from(age)]
                            | (walk.hist[i] & wide_low_mask(width));
                        let want = match oracle {
                            Oracle::Table(table) => (table.lookup(pc), table.record(pc, outcome)).0,
                            Oracle::Sets(sel) => {
                                let row = sel.history_for(pc).bits();
                                sel.train(pc, 0, outcome, bpred_core::TableGeometry::new(0, 0));
                                row
                            }
                            Oracle::Path(reg) => {
                                let row = reg.bits();
                                reg.push(match outcome {
                                    Outcome::Taken => record.target,
                                    Outcome::NotTaken => pc.wrapping_add(4),
                                });
                                row
                            }
                        };
                        assert_eq!(row, want, "{read:?} width {width} record {i}");
                    }
                    i += 1;
                }
                for oracle in &oracles {
                    if let Oracle::Table(table) = oracle {
                        assert_eq!(walk.misses, table.stats().misses, "{read:?}");
                    }
                }
            }
            assert!(saturated, "{read:?}: no entry outlived 64 outcomes");
        }
    }

    #[test]
    fn narrow_tag_column_is_injective_and_never_empty() {
        // Pcs below and above the direct bound: the suite text base,
        // multiprogrammed segment bases, pcs sharing their low 32 bits,
        // and the top of the address space.
        let bases = [0, 0x40_0000, 1 << 28, 1 << 29, 3 << 28, 1 << 32, 1 << 61];
        let mut pcs: Vec<u64> = (bases.iter())
            .flat_map(|&base| (0..40).map(move |i| base + 0x40 + 4 * i))
            .collect();
        pcs.extend([0x3FFF_FFFF_FFFF_FFF8, 0xFFFF_FFF8, 0x1_0000_0040]);
        // Bits 62 and 63 are no part of the scalar owner tag either.
        pcs.push(0xC000_0000_0000_0040);
        // Regions 2^16 apart share a memo slot; interleaved, they evict
        // each other on every record.
        for i in 0..40 {
            pcs.extend([0x2_0000_0040 + 4 * i, 0x3_0000_0040 + 4 * i]);
        }
        // More escaping regions than windows: the last ones fall back
        // to single tags, two pcs each.
        let spread = NarrowTags::WINDOWS as u64 + 100;
        pcs.extend((0..spread).flat_map(|r| [(1 << 40) + (r << 16), (1 << 40) + (r << 16) + 4]));
        let t: Trace = (pcs.iter().chain(pcs.iter().rev()))
            .map(|&pc| BranchRecord::conditional(pc, 0x20, Outcome::Taken))
            .collect();
        let mut input = ChunkInputs {
            needs_tags: true,
            ..ChunkInputs::default()
        };
        let mut seen: HashMap<u64, u32> = HashMap::new();
        for chunk in t.chunks(37) {
            input.decode(&chunk);
            assert_eq!(input.tags.len(), input.conditionals.len());
            for (&packed, &narrow) in input.conditionals.iter().zip(&input.tags) {
                let wide = cell::tag(packed >> 1);
                assert_ne!(narrow, NarrowTags::EMPTY, "{wide:#x}");
                assert!(narrow < NarrowTags::EMPTY);
                if wide < u64::from(NarrowTags::DIRECT) {
                    assert_eq!(u64::from(narrow), wide);
                }
                assert_eq!(*seen.entry(wide).or_insert(narrow), narrow, "{wide:#x}");
            }
        }
        let distinct: HashSet<u32> = seen.values().copied().collect();
        assert_eq!(
            distinct.len(),
            seen.len(),
            "two wide tags share a narrow tag"
        );
        assert_eq!(input.narrow.windows.len(), NarrowTags::WINDOWS);
        assert!(input.narrow.singles.len() >= 200);
        // The scalar empty owner is the one wide tag that stays empty,
        // though a real pc opened its region's window.
        assert!(input
            .narrow
            .windows
            .contains_key(&(cell::EMPTY_OWNER >> 16)));
        assert_eq!(input.narrow.escape(cell::EMPTY_OWNER), NarrowTags::EMPTY);
    }

    #[test]
    fn counter_step_matches_the_scalar_counter() {
        use bpred_core::{CounterState, TwoBitCounter};
        for bits in 0..4u64 {
            for (toward, outcome) in [(0, Outcome::NotTaken), (1, Outcome::Taken)] {
                let state = CounterState::from_bits(bits as u8).expect("two-bit value");
                let mut counter = TwoBitCounter::new(state);
                counter.train(outcome);
                let want = u64::from(counter.state().bits());
                assert_eq!(counter_step(bits, toward), want, "{bits} toward {toward}");
                let cell_word = owned(0x1234, bits);
                assert_eq!(retrain(cell_word, toward, 1), owned(0x1234, want));
                assert_eq!(retrain(cell_word, toward, 0), cell_word);
            }
        }
    }

    #[test]
    fn empty_inputs_are_empty_results() {
        assert!(one_lane_set(&[], &trace(10), Simulator::new()).is_empty());
        let results = one_lane_set(&grouped_configs(), &Trace::new(), Simulator::new());
        assert!(results.iter().all(|r| r.conditionals == 0));
    }

    #[test]
    fn conditional_counts_match_record_decode() {
        let t = trace(501);
        for chunk_len in [1, 7, 16, 500, 501, 502] {
            for chunk in t.chunks(chunk_len) {
                let (cond, taken) = conditional_counts(&chunk);
                let want_cond = chunk.iter().filter(|r| r.is_conditional()).count() as u64;
                let want_taken = chunk
                    .iter()
                    .filter(|r| r.is_conditional() && r.outcome.is_taken())
                    .count() as u64;
                assert_eq!((cond, taken), (want_cond, want_taken));
            }
        }
    }
}

//! Structure-of-arrays record chunks.
//!
//! A [`TraceChunk`] holds a fixed-size run of branch records as
//! parallel arrays — branch addresses, taken-targets, and bit-packed
//! outcome/kind metadata words — instead of an array of
//! [`BranchRecord`] structs. The replay engine's inner loop walks the
//! arrays directly: consecutive `pc` loads share cache lines, and the
//! outcome and kind of sixteen records fit in one metadata word, so a
//! chunk of [`TraceChunk::DEFAULT_LEN`] records stays resident in L2
//! while every predictor lane of a sweep shard consumes it.
//!
//! Chunks are also the unit of *sharing*: the chunked sweep pipeline
//! in `bpred-sim` generates (or decodes) each chunk once, wraps it in
//! an `Arc`, and lets every shard worker replay the same chunk
//! sequence, so trace production is paid once per sweep instead of
//! once per shard. Any [`TraceSource`](crate::TraceSource) can be
//! viewed as a chunk sequence through
//! [`TraceSource::chunks`](crate::TraceSource::chunks).
//!
//! # Layout
//!
//! Per record `i`:
//!
//! * `pcs[i]` — branch instruction address;
//! * `targets[i]` — taken-target address;
//! * four bits of `meta[i / 16]` at `4 * (i % 16)` — bit 0 is the
//!   resolved outcome (taken = 1), bits 1–3 the [`BranchKind`] code.
//!
//! The packing is an in-memory layout only, not a persistence format;
//! the on-disk formats stay in [`binfmt`](crate::binfmt) and
//! [`textfmt`](crate::textfmt).
//!
//! # Examples
//!
//! ```
//! use bpred_trace::{BranchRecord, Outcome, TraceChunk};
//!
//! let mut chunk = TraceChunk::with_capacity(4);
//! for i in 0..4 {
//!     chunk.push(&BranchRecord::conditional(0x40 + 4 * i, 0x20, Outcome::Taken));
//! }
//! assert_eq!(chunk.len(), 4);
//! assert_eq!(chunk.record(2).pc, 0x48);
//! assert!(chunk.iter().all(|r| r.outcome.is_taken()));
//! ```

use crate::{BranchKind, BranchRecord, Outcome};

/// Records packed per metadata word (4 bits each in a `u64`).
const RECORDS_PER_META_WORD: usize = 16;
/// Bits of metadata per record: 1 outcome bit + 3 kind bits.
const META_BITS: usize = 4;
/// Mask of one record's metadata field.
const META_MASK: u64 = (1 << META_BITS) - 1;

/// Three-bit code of a [`BranchKind`], the packing used inside
/// metadata words (the kind's index in [`BranchKind::ALL`]).
#[inline]
fn kind_code(kind: BranchKind) -> u64 {
    match kind {
        BranchKind::Conditional => 0,
        BranchKind::Unconditional => 1,
        BranchKind::Call => 2,
        BranchKind::Return => 3,
        BranchKind::Indirect => 4,
    }
}

/// Inverse of [`kind_code`].
#[inline]
fn kind_from_code(code: u64) -> BranchKind {
    match code {
        0 => BranchKind::Conditional,
        1 => BranchKind::Unconditional,
        2 => BranchKind::Call,
        3 => BranchKind::Return,
        _ => BranchKind::Indirect,
    }
}

/// A run of branch records in structure-of-arrays layout.
///
/// See the [module docs](self) for the layout and the role chunks play
/// in the sweep pipeline. Chunks grow by [`push`](TraceChunk::push) /
/// [`append`](TraceChunk::append) /
/// [`fill_from`](TraceChunk::fill_from) and are consumed positionally
/// ([`record`](TraceChunk::record)) or sequentially
/// ([`iter`](TraceChunk::iter)); both directions round-trip records
/// bit-exactly.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TraceChunk {
    /// Branch instruction addresses, one per record.
    pcs: Vec<u64>,
    /// Taken-target addresses, one per record.
    targets: Vec<u64>,
    /// Bit-packed outcome/kind words, sixteen records each.
    meta: Vec<u64>,
}

impl TraceChunk {
    /// Default records per chunk used by the sweep pipeline: at 8 Ki
    /// records a chunk is ~132 KiB of arrays — big enough to amortise
    /// per-chunk dispatch and ring traffic, small enough to stay
    /// cache-resident alongside one predictor's tables.
    pub const DEFAULT_LEN: usize = 8 * 1024;

    /// Records packed per [`meta_words`](TraceChunk::meta_words) word.
    pub const META_RECORDS_PER_WORD: usize = RECORDS_PER_META_WORD;

    /// Metadata bits per record inside a
    /// [`meta_words`](TraceChunk::meta_words) word: the outcome bit
    /// (taken = 1) followed by the three-bit [`BranchKind`] code
    /// (conditional = 0).
    pub const META_BITS_PER_RECORD: usize = META_BITS;

    /// An empty chunk.
    pub fn new() -> Self {
        TraceChunk::default()
    }

    /// An empty chunk with room for `capacity` records.
    pub fn with_capacity(capacity: usize) -> Self {
        TraceChunk {
            pcs: Vec::with_capacity(capacity),
            targets: Vec::with_capacity(capacity),
            meta: Vec::with_capacity(capacity.div_ceil(RECORDS_PER_META_WORD)),
        }
    }

    /// Number of records in the chunk.
    pub fn len(&self) -> usize {
        self.pcs.len()
    }

    /// Removes every record, keeping the allocated capacity — so a
    /// buffer-reusing producer (see
    /// [`TraceSource::chunk_feeder`](crate::TraceSource::chunk_feeder))
    /// refills the same arrays chunk after chunk without touching the
    /// allocator.
    pub fn clear(&mut self) {
        self.pcs.clear();
        self.targets.clear();
        self.meta.clear();
    }

    /// Returns `true` when the chunk holds no records.
    pub fn is_empty(&self) -> bool {
        self.pcs.is_empty()
    }

    /// Appends one record.
    #[inline]
    pub fn push(&mut self, record: &BranchRecord) {
        self.append(record.pc, record.target, record.kind, record.outcome);
    }

    /// Appends one record given as its fields, packing the kind and
    /// outcome into the metadata word — the one place the packing is
    /// written. A generator that produces fields rather than
    /// [`BranchRecord`]s (the workload models' chunk fill) writes
    /// through this without assembling a record first.
    #[inline]
    pub fn append(&mut self, pc: u64, target: u64, kind: BranchKind, outcome: Outcome) {
        let i = self.pcs.len();
        self.pcs.push(pc);
        self.targets.push(target);
        let bits = outcome.as_bit() | (kind_code(kind) << 1);
        if i.is_multiple_of(RECORDS_PER_META_WORD) {
            self.meta.push(bits);
        } else {
            let shift = (i % RECORDS_PER_META_WORD) * META_BITS;
            self.meta[i / RECORDS_PER_META_WORD] |= bits << shift;
        }
    }

    /// Drains up to `max` records from `records` into the chunk,
    /// returning how many were taken. The iterator is taken by
    /// mutable reference so a generator can fill chunk after chunk
    /// from one pass; because the parameter is generic, the fill loop
    /// monomorphizes over the concrete iterator — a workload generator
    /// writes straight into the arrays with no boxed per-record call.
    pub fn fill_from<I: Iterator<Item = BranchRecord>>(
        &mut self,
        records: &mut I,
        max: usize,
    ) -> usize {
        let mut taken = 0;
        while taken < max {
            let Some(record) = records.next() else { break };
            self.push(&record);
            taken += 1;
        }
        taken
    }

    /// The branch instruction addresses as a flat slice, one per
    /// record — the raw column record-parallel replay kernels walk.
    #[inline]
    pub fn pcs(&self) -> &[u64] {
        &self.pcs
    }

    /// The taken-target addresses as a flat slice, one per record.
    #[inline]
    pub fn targets(&self) -> &[u64] {
        &self.targets
    }

    /// The bit-packed metadata words:
    /// [`META_RECORDS_PER_WORD`](TraceChunk::META_RECORDS_PER_WORD)
    /// records of
    /// [`META_BITS_PER_RECORD`](TraceChunk::META_BITS_PER_RECORD) bits
    /// each, record `i` at bits `4 * (i % 16)` of word `i / 16`, unused
    /// high fields of the final word zero. Exposed so record-parallel
    /// kernels can classify sixteen records per word op (e.g. popcount
    /// the conditional-and-taken fields) instead of decoding records
    /// one at a time.
    #[inline]
    pub fn meta_words(&self) -> &[u64] {
        &self.meta
    }

    /// The metadata bits of record `i` (outcome bit 0, kind code in
    /// bits 1–3).
    #[inline]
    fn meta_bits(&self, i: usize) -> u64 {
        let shift = (i % RECORDS_PER_META_WORD) * META_BITS;
        (self.meta[i / RECORDS_PER_META_WORD] >> shift) & META_MASK
    }

    /// Reassembles record `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    #[inline]
    pub fn record(&self, i: usize) -> BranchRecord {
        let bits = self.meta_bits(i);
        BranchRecord {
            pc: self.pcs[i],
            target: self.targets[i],
            kind: kind_from_code(bits >> 1),
            outcome: Outcome::from_bit(bits & 1),
        }
    }

    /// Returns `true` if record `i` is a conditional branch.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    #[inline]
    pub fn is_conditional(&self, i: usize) -> bool {
        self.meta_bits(i) >> 1 == kind_code(BranchKind::Conditional)
    }

    /// The resolved outcome of record `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    #[inline]
    pub fn outcome(&self, i: usize) -> Outcome {
        Outcome::from_bit(self.meta_bits(i) & 1)
    }

    /// Iterates the chunk's records in order, walking the parallel
    /// arrays directly (a concrete iterator — no boxing, so replay
    /// loops over it monomorphize).
    pub fn iter(&self) -> ChunkRecords<'_> {
        ChunkRecords {
            pairs: self.pcs.iter().zip(self.targets.iter()),
            meta: self.meta.iter(),
            word: 0,
            in_word: 0,
        }
    }
}

impl<'a> IntoIterator for &'a TraceChunk {
    type Item = BranchRecord;
    type IntoIter = ChunkRecords<'a>;

    fn into_iter(self) -> ChunkRecords<'a> {
        self.iter()
    }
}

impl Extend<BranchRecord> for TraceChunk {
    fn extend<I: IntoIterator<Item = BranchRecord>>(&mut self, iter: I) {
        for record in iter {
            self.push(&record);
        }
    }
}

impl FromIterator<BranchRecord> for TraceChunk {
    fn from_iter<I: IntoIterator<Item = BranchRecord>>(iter: I) -> Self {
        let mut chunk = TraceChunk::new();
        chunk.extend(iter);
        chunk
    }
}

/// Sequential iterator over a [`TraceChunk`]'s records.
///
/// Walks the pc/target arrays through a slice zip (no per-record
/// bounds checks) and holds the current metadata word in a register,
/// refilling it once every sixteen records — this is the replay
/// engine's inner-loop decode, so every load it avoids counts.
#[derive(Debug, Clone)]
pub struct ChunkRecords<'a> {
    pairs: std::iter::Zip<std::slice::Iter<'a, u64>, std::slice::Iter<'a, u64>>,
    meta: std::slice::Iter<'a, u64>,
    /// Unconsumed metadata fields of the current word, low field next.
    word: u64,
    /// Records left in `word` before the next refill.
    in_word: u32,
}

impl Iterator for ChunkRecords<'_> {
    type Item = BranchRecord;

    #[inline]
    fn next(&mut self) -> Option<BranchRecord> {
        let (&pc, &target) = self.pairs.next()?;
        if self.in_word == 0 {
            self.word = self.meta.next().copied().unwrap_or(0);
            self.in_word = RECORDS_PER_META_WORD as u32;
        }
        let bits = self.word & META_MASK;
        self.word >>= META_BITS;
        self.in_word -= 1;
        Some(BranchRecord {
            pc,
            target,
            kind: kind_from_code(bits >> 1),
            outcome: Outcome::from_bit(bits & 1),
        })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.pairs.size_hint()
    }
}

impl ExactSizeIterator for ChunkRecords<'_> {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Trace, TraceSource};

    fn every_kind() -> Vec<BranchRecord> {
        BranchKind::ALL
            .into_iter()
            .enumerate()
            .flat_map(|(i, kind)| {
                [
                    BranchRecord::new(0x1000 + 4 * i as u64, 0x40, kind, Outcome::Taken),
                    BranchRecord::new(0x2000 + 4 * i as u64, 0x8000, kind, Outcome::NotTaken),
                ]
            })
            .collect()
    }

    #[test]
    fn push_and_record_round_trip_every_kind_and_outcome() {
        let records = every_kind();
        let chunk: TraceChunk = records.iter().copied().collect();
        assert_eq!(chunk.len(), records.len());
        for (i, want) in records.iter().enumerate() {
            assert_eq!(&chunk.record(i), want, "record {i}");
            assert_eq!(chunk.is_conditional(i), want.is_conditional());
            assert_eq!(chunk.outcome(i), want.outcome);
        }
    }

    #[test]
    fn iter_matches_positional_access_across_word_boundaries() {
        // More than one metadata word, not a multiple of sixteen.
        let records: Vec<BranchRecord> = (0..37)
            .map(|i| BranchRecord::conditional(4 * i, 0x10, Outcome::from(i % 3 == 0)))
            .collect();
        let chunk: TraceChunk = records.iter().copied().collect();
        let iterated: Vec<BranchRecord> = chunk.iter().collect();
        assert_eq!(iterated, records);
        assert_eq!(chunk.iter().len(), 37);
    }

    #[test]
    fn fill_from_stops_at_max_and_at_exhaustion() {
        let records = every_kind();
        let mut stream = records.iter().copied();
        let mut chunk = TraceChunk::with_capacity(4);
        assert_eq!(chunk.fill_from(&mut stream, 4), 4);
        assert_eq!(chunk.len(), 4);
        let mut rest = TraceChunk::new();
        assert_eq!(rest.fill_from(&mut stream, 100), records.len() - 4);
        let mut empty = TraceChunk::new();
        assert_eq!(empty.fill_from(&mut stream, 8), 0);
        assert!(empty.is_empty());
        // The two chunks partition the sequence in order.
        let rejoined: Vec<BranchRecord> = chunk.iter().chain(rest.iter()).collect();
        assert_eq!(rejoined, records);
    }

    #[test]
    fn chunked_source_view_round_trips() {
        let trace: Trace = every_kind().into_iter().collect();
        for chunk_len in [1, 3, trace.len() - 1, trace.len(), trace.len() + 1] {
            let rejoined: Vec<BranchRecord> = trace
                .chunks(chunk_len)
                .flat_map(|chunk| chunk.iter().collect::<Vec<_>>())
                .collect();
            assert_eq!(rejoined, trace.records(), "chunk_len {chunk_len}");
            for chunk in trace.chunks(chunk_len) {
                assert!(chunk.len() <= chunk_len);
                assert!(!chunk.is_empty());
            }
        }
    }

    #[test]
    fn raw_columns_match_positional_access() {
        let records = every_kind();
        let chunk: TraceChunk = records.iter().copied().collect();
        assert_eq!(chunk.pcs().len(), records.len());
        assert_eq!(chunk.targets().len(), records.len());
        assert_eq!(
            chunk.meta_words().len(),
            records.len().div_ceil(TraceChunk::META_RECORDS_PER_WORD)
        );
        for (i, want) in records.iter().enumerate() {
            assert_eq!(chunk.pcs()[i], want.pc);
            assert_eq!(chunk.targets()[i], want.target);
            let word = chunk.meta_words()[i / TraceChunk::META_RECORDS_PER_WORD];
            let bits = (word >> ((i % TraceChunk::META_RECORDS_PER_WORD) * META_BITS)) & META_MASK;
            assert_eq!(bits & 1, want.outcome.as_bit());
            assert_eq!(bits >> 1, kind_code(want.kind));
        }
        // Unused high fields of the final metadata word stay zero.
        let tail = records.len() % TraceChunk::META_RECORDS_PER_WORD;
        if tail != 0 {
            let last = *chunk.meta_words().last().unwrap();
            assert_eq!(last >> (tail * META_BITS), 0);
        }
    }

    #[test]
    fn default_len_is_a_power_of_two_of_whole_meta_words() {
        assert_eq!(TraceChunk::DEFAULT_LEN % RECORDS_PER_META_WORD, 0);
        assert!(TraceChunk::DEFAULT_LEN.is_power_of_two());
    }
}

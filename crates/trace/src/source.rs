//! Streaming trace sources.
//!
//! A [`TraceSource`] yields branch records one at a time, so consumers
//! (notably the batched replay engine in `bpred-sim`) can process a
//! workload in a single pass without materialising it in memory first.
//! Every source is restartable: [`TraceSource::stream`] takes `&self`
//! and returns a fresh iterator over the same record sequence, which is
//! what lets several worker threads replay the same workload
//! concurrently, and lets a deterministic generator serve as a source
//! directly (each call re-seeds and replays).
//!
//! A source fills [`TraceChunk`]s in one place,
//! [`TraceSource::chunk_feeder`]; [`TraceSource::chunks`] is built on
//! it. [`Trace`] implements the trait over its record slice, so any API
//! accepting `&impl TraceSource` still accepts an in-memory trace.
//!
//! # Examples
//!
//! ```
//! use bpred_trace::{BranchRecord, Outcome, Trace, TraceSource};
//!
//! let trace: Trace = (0..4)
//!     .map(|i| BranchRecord::conditional(0x40 + 4 * i, 0x20, Outcome::Taken))
//!     .collect();
//! let source: &dyn TraceSource = &trace;
//! assert_eq!(source.stream().count(), 4);
//! assert_eq!(source.len_hint(), Some(4));
//! // Streams restart from the beginning on every call.
//! assert_eq!(source.stream().next(), source.stream().next());
//! ```

use crate::{BranchRecord, Trace, TraceChunk};

/// A restartable stream of branch records.
///
/// Implementors promise that every call to [`stream`](Self::stream)
/// yields the *same* record sequence: sources are replayable, which the
/// simulation layers rely on both for sharded parallel replay and for
/// bit-identical batched-vs-serial comparisons.
pub trait TraceSource {
    /// Opens a fresh iterator over the full record sequence.
    fn stream(&self) -> Box<dyn Iterator<Item = BranchRecord> + '_>;

    /// Total number of records the stream will yield, when cheaply
    /// known. Used only for capacity hints.
    fn len_hint(&self) -> Option<usize> {
        None
    }

    /// Materialises the source into an in-memory [`Trace`].
    fn collect_trace(&self) -> Trace {
        let mut trace = Trace::with_capacity(self.len_hint().unwrap_or(0));
        trace.extend(self.stream());
        trace
    }

    /// Opens the record sequence as structure-of-arrays
    /// [`TraceChunk`]s of up to `chunk_len` records each.
    ///
    /// The chunk sequence carries exactly the records of
    /// [`stream`](Self::stream), in order: every chunk except possibly
    /// the last holds `chunk_len` records, empty chunks are never
    /// yielded, and concatenating the chunks reproduces the stream
    /// bit-for-bit. Each chunk is a fresh buffer filled by one
    /// [`chunk_feeder`](Self::chunk_feeder) refill; sources do not
    /// override this method.
    ///
    /// # Panics
    ///
    /// Panics if `chunk_len` is zero.
    fn chunks(&self, chunk_len: usize) -> Box<dyn Iterator<Item = TraceChunk> + '_> {
        assert!(chunk_len > 0, "chunk length must be positive");
        let mut feeder = self.chunk_feeder();
        Box::new(std::iter::from_fn(move || {
            let mut chunk = TraceChunk::with_capacity(chunk_len);
            (feeder.refill(&mut chunk, chunk_len) > 0).then_some(chunk)
        }))
    }

    /// Opens a refill cursor over the record sequence: the one way a
    /// source produces [`TraceChunk`]s.
    ///
    /// A feeder writes into a caller-provided buffer, so the
    /// single-worker sweep path replays from one chunk's worth of
    /// memory. The record sequence is exactly [`stream`](Self::stream)'s,
    /// split at the caller's refill sizes. The default drains the boxed
    /// stream, one virtual call per record; a [`Trace`] copies runs of
    /// its slice, and a workload model fills the arrays monomorphically.
    fn chunk_feeder(&self) -> Box<dyn ChunkFeeder + '_> {
        struct StreamFeeder<'a>(Box<dyn Iterator<Item = BranchRecord> + 'a>);
        impl ChunkFeeder for StreamFeeder<'_> {
            fn refill(&mut self, chunk: &mut TraceChunk, max: usize) -> usize {
                chunk.clear();
                chunk.extend(self.0.by_ref().take(max));
                chunk.len()
            }
        }
        Box::new(StreamFeeder(self.stream()))
    }
}

/// A cursor that refills a caller-provided [`TraceChunk`] with the
/// next run of records from a [`TraceSource`]; see
/// [`TraceSource::chunk_feeder`].
pub trait ChunkFeeder {
    /// Clears `chunk` and fills it with up to `max` records, returning
    /// how many were written — zero exactly when the sequence is
    /// exhausted.
    fn refill(&mut self, chunk: &mut TraceChunk, max: usize) -> usize;
}

impl TraceSource for Trace {
    fn stream(&self) -> Box<dyn Iterator<Item = BranchRecord> + '_> {
        Box::new(self.iter().copied())
    }

    fn len_hint(&self) -> Option<usize> {
        Some(self.len())
    }

    fn collect_trace(&self) -> Trace {
        self.clone()
    }

    fn chunk_feeder(&self) -> Box<dyn ChunkFeeder + '_> {
        // Copies each run straight out of the record slice.
        struct SliceFeeder<'a>(&'a [BranchRecord]);
        impl ChunkFeeder for SliceFeeder<'_> {
            fn refill(&mut self, chunk: &mut TraceChunk, max: usize) -> usize {
                let (run, rest) = self.0.split_at(max.min(self.0.len()));
                self.0 = rest;
                chunk.clear();
                chunk.extend(run.iter().copied());
                run.len()
            }
        }
        Box::new(SliceFeeder(self.records()))
    }
}

impl<T: TraceSource + ?Sized> TraceSource for &T {
    fn stream(&self) -> Box<dyn Iterator<Item = BranchRecord> + '_> {
        (**self).stream()
    }

    fn len_hint(&self) -> Option<usize> {
        (**self).len_hint()
    }

    fn collect_trace(&self) -> Trace {
        (**self).collect_trace()
    }

    fn chunk_feeder(&self) -> Box<dyn ChunkFeeder + '_> {
        (**self).chunk_feeder()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Outcome;

    /// A trace seen only through its record stream, so it takes the
    /// provided stream-draining feeder.
    struct Wrapped(Trace);

    impl TraceSource for Wrapped {
        fn stream(&self) -> Box<dyn Iterator<Item = BranchRecord> + '_> {
            self.0.stream()
        }
    }

    fn sample() -> Trace {
        (0..10u64)
            .map(|i| BranchRecord::conditional(0x100 + 4 * i, 0x80, Outcome::from(i % 2 == 0)))
            .collect()
    }

    #[test]
    fn trace_streams_its_records_in_order() {
        let t = sample();
        let streamed: Vec<BranchRecord> = t.stream().collect();
        assert_eq!(streamed, t.records());
    }

    #[test]
    fn streams_restart() {
        let t = sample();
        let a: Vec<BranchRecord> = t.stream().collect();
        let b: Vec<BranchRecord> = t.stream().collect();
        assert_eq!(a, b);
    }

    #[test]
    fn len_hint_matches() {
        let t = sample();
        assert_eq!(t.len_hint(), Some(10));
        assert_eq!(t.len_hint(), Some(10));
    }

    #[test]
    fn collect_trace_round_trips() {
        let t = sample();
        assert_eq!(t.collect_trace(), t);
        assert_eq!((&&t).collect_trace(), t);
    }

    #[test]
    fn works_as_a_trait_object() {
        let t = sample();
        let dynamic: &dyn TraceSource = &t;
        assert_eq!(dynamic.stream().count(), 10);
        assert_eq!(dynamic.collect_trace(), t);
        assert_eq!(dynamic.chunks(4).count(), 3);
    }

    #[test]
    fn chunk_view_concatenates_back_to_the_stream() {
        let t = sample();
        for chunk_len in [1, 3, 9, 10, 11, 64] {
            let rejoined: Vec<BranchRecord> = t
                .chunks(chunk_len)
                .flat_map(|chunk| chunk.iter().collect::<Vec<_>>())
                .collect();
            assert_eq!(rejoined, t.records(), "chunk_len {chunk_len}");
        }
        // The trace's slice feeder agrees with the generic
        // stream-draining default (exercised through a plain wrapper).
        let wrapped = Wrapped(t.clone());
        let a: Vec<TraceChunk> = t.chunks(4).collect();
        let b: Vec<TraceChunk> = wrapped.chunks(4).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn refills_stop_at_max_and_at_exhaustion() {
        // The trace's slice feeder and the stream-draining default.
        let t = sample();
        let wrapped = Wrapped(t.clone());
        for mut feeder in [t.chunk_feeder(), wrapped.chunk_feeder()] {
            let mut chunk = TraceChunk::with_capacity(4);
            let mut rejoined = Vec::new();
            for (max, want) in [(4, 4), (1, 1), (3, 3), (100, 2)] {
                assert_eq!(feeder.refill(&mut chunk, max), want);
                assert_eq!(chunk.len(), want);
                rejoined.extend(chunk.iter());
            }
            assert_eq!(rejoined, t.records());
            assert_eq!(feeder.refill(&mut chunk, 8), 0);
            assert!(chunk.is_empty());
        }
    }

    #[test]
    #[should_panic(expected = "chunk length must be positive")]
    fn zero_chunk_len_panics() {
        let _ = sample().chunks(0);
    }
}

//! The replay core: one canonical per-record feed path.
//!
//! Every simulation in this workspace — serial runs, batched sweeps,
//! per-branch attribution, interference classification, the sweep
//! service — replays records through exactly one code path:
//! [`ReplayCore::feed_observed`]. For a conditional branch it runs the
//! paper's two-phase protocol (predict, score after warmup, update);
//! for any other control transfer it notifies the predictor. This is
//! the *only* place in `bpred-sim` that calls
//! [`predict`](BranchPredictor::predict) or
//! [`update`](BranchPredictor::update).
//!
//! Everything the old per-purpose loops special-cased is layered on
//! top as an [`Observer`]: a hook invoked once per record, *between*
//! predict and update, with the resolved prediction and a borrow of
//! the predictor. Observers are inert by construction — they can read
//! predictor statistics but never touch predictor state or the core's
//! own bookkeeping — so attaching any combination of them leaves the
//! [`SimResult`] bit-identical to a bare run (`tests/observers.rs` at
//! the workspace root enforces this).
//!
//! The core is generic over the predictor type. The hot sweep paths
//! instantiate it with [`PredictorKernel`] and replay through
//! [`replay_dispatched`](ReplayCore::replay_dispatched), which
//! resolves the enum variant *once per stream* and runs the whole
//! record loop monomorphized; legacy call sites instantiate the core
//! with `&mut dyn BranchPredictor` (or any concrete scheme) and keep
//! trait-object semantics. Records can arrive one at a time
//! ([`feed`](ReplayCore::feed)), as a stream, or as
//! structure-of-arrays [`TraceChunk`]s
//! ([`feed_chunk`](ReplayCore::feed_chunk) /
//! [`replay_chunks`](ReplayCore::replay_chunks) /
//! [`replay_chunk_dispatched`](ReplayCore::replay_chunk_dispatched) —
//! the chunked sweep pipeline's feed path, hoisted per chunk). Every
//! shape reassembles the same record sequence through the same feed
//! site, so the replayed bit-stream is identical — dispatch and
//! memory-layout cost are the only differences.
//!
//! Sweeps that replay *many* configurations over one chunk stream go
//! one tier further: a [`LaneSet`](crate::LaneSet) (module
//! [`multilane`](crate::multilane), driven by
//! [`run_configs`](crate::run_configs)) fuses compatible lanes into
//! lane-major groups over shared counter arenas, with this core pinned
//! underneath as the scalar fallback and bit-identity oracle.
//!
//! # Examples
//!
//! Bare replay (what [`Simulator::run`](crate::Simulator::run) does):
//!
//! ```
//! use bpred_core::PredictorConfig;
//! use bpred_sim::{ReplayCore, Simulator};
//! use bpred_trace::{BranchRecord, Outcome, Trace};
//!
//! let trace: Trace = (0..100)
//!     .map(|i| BranchRecord::conditional(0x40, 0x20, Outcome::from(i % 4 != 0)))
//!     .collect();
//! let config = PredictorConfig::Gshare { history_bits: 6, col_bits: 2 };
//! let mut core = ReplayCore::new(config.kernel(), Simulator::new());
//! core.replay(&trace);
//! let result = core.finish();
//! assert_eq!(result.conditionals, 100);
//! ```
//!
//! With an observer attached:
//!
//! ```
//! use bpred_core::PredictorConfig;
//! use bpred_sim::{BranchProfiler, ReplayCore, Simulator};
//! use bpred_trace::{BranchRecord, Outcome, Trace};
//!
//! let trace: Trace = (0..100)
//!     .map(|i| BranchRecord::conditional(0x40 + 4 * (i % 2), 0x20, Outcome::Taken))
//!     .collect();
//! let mut profiler = BranchProfiler::new();
//! let mut core = ReplayCore::new(PredictorConfig::Btfn.kernel(), Simulator::new());
//! core.replay_observed(&trace, &mut profiler);
//! assert_eq!(profiler.counts().len(), 2); // two static branches seen
//! # let _ = core.finish();
//! ```

use std::borrow::Borrow;

use bpred_core::{
    AliasStats, BhtStats, BranchPredictor, KernelVisitor, PredictorConfig, PredictorKernel,
};
use bpred_trace::{BranchRecord, Outcome, TraceChunk, TraceSource};

use crate::{SimResult, Simulator};

/// Per-record instrumentation over the canonical feed path.
///
/// For every conditional branch the core calls
/// [`on_conditional`](Observer::on_conditional) after the prediction
/// is made and scored but *before* the training update — the moment a
/// hardware pipeline would know its guess and the true outcome but has
/// not yet retrained, and the point where prediction-time statistics
/// (e.g. the aliasing-conflict delta behind
/// [`InterferenceObserver`](crate::InterferenceObserver)) are still
/// readable. Non-conditional transfers arrive through
/// [`on_control_transfer`](Observer::on_control_transfer) after the
/// predictor has been notified.
///
/// Observers receive the predictor as `&dyn BranchPredictor`: they can
/// read its statistics but cannot perturb the replay, which is what
/// makes observer attachment inert. (The *core's* predict/update calls
/// stay monomorphized — only the observer's view is virtual, and only
/// observers that actually query the predictor pay for it.)
pub trait Observer {
    /// Called once per conditional branch, between predict and update.
    /// `predicted` is the predictor's guess, `scored` is false for
    /// warmup-excluded branches.
    fn on_conditional(
        &mut self,
        record: &BranchRecord,
        predicted: Outcome,
        scored: bool,
        predictor: &dyn BranchPredictor,
    ) {
        let _ = (record, predicted, scored, predictor);
    }

    /// Called once per non-conditional control transfer, after the
    /// predictor was notified.
    fn on_control_transfer(&mut self, record: &BranchRecord, predictor: &dyn BranchPredictor) {
        let _ = (record, predictor);
    }
}

/// The no-op observer: a bare replay.
impl Observer for () {}

/// Mutable references to observers observe.
impl<O: Observer + ?Sized> Observer for &mut O {
    fn on_conditional(
        &mut self,
        record: &BranchRecord,
        predicted: Outcome,
        scored: bool,
        predictor: &dyn BranchPredictor,
    ) {
        (**self).on_conditional(record, predicted, scored, predictor);
    }

    fn on_control_transfer(&mut self, record: &BranchRecord, predictor: &dyn BranchPredictor) {
        (**self).on_control_transfer(record, predictor);
    }
}

macro_rules! tuple_observer {
    ($($name:ident : $idx:tt),+) => {
        /// Tuples fan each record out to every member, left to right.
        impl<$($name: Observer),+> Observer for ($($name,)+) {
            fn on_conditional(
                &mut self,
                record: &BranchRecord,
                predicted: Outcome,
                scored: bool,
                predictor: &dyn BranchPredictor,
            ) {
                $(self.$idx.on_conditional(record, predicted, scored, predictor);)+
            }

            fn on_control_transfer(
                &mut self,
                record: &BranchRecord,
                predictor: &dyn BranchPredictor,
            ) {
                $(self.$idx.on_control_transfer(record, predictor);)+
            }
        }
    };
}

tuple_observer!(A: 0);
tuple_observer!(A: 0, B: 1);
tuple_observer!(A: 0, B: 1, C: 2);
tuple_observer!(A: 0, B: 1, C: 2, D: 3);

/// One predictor advancing through a record stream, with the scoring
/// and statistics bookkeeping shared by every replay flavour.
///
/// A core is built around a predictor ([`new`](ReplayCore::new) or
/// [`from_config`](ReplayCore::from_config)), fed records one at a
/// time ([`feed`](ReplayCore::feed) /
/// [`feed_observed`](ReplayCore::feed_observed), or whole sources via
/// [`replay`](ReplayCore::replay) /
/// [`replay_observed`](ReplayCore::replay_observed)), and consumed
/// with [`finish`](ReplayCore::finish) into the [`SimResult`] the old
/// engine produced. Alias/BHT statistics are reported as deltas from
/// the core's construction, so reusing a predictor across cores never
/// double-counts.
#[derive(Debug)]
pub struct ReplayCore<P: BranchPredictor> {
    predictor: P,
    warmup: usize,
    seen: usize,
    scored: u64,
    mispredictions: u64,
    alias_before: AliasStats,
    bht_before: BhtStats,
}

impl ReplayCore<PredictorKernel> {
    /// A core over the enum-dispatched kernel of `config` — the hot
    /// path the batched sweep lanes use.
    pub fn from_config(config: &PredictorConfig, simulator: Simulator) -> Self {
        ReplayCore::new(config.kernel(), simulator)
    }

    /// Replays `source` with the kernel's variant resolved *once*, so
    /// the whole record loop runs monomorphized.
    ///
    /// Per-record enum dispatch costs an indirect jump per predict and
    /// per update that the replay loop cannot hide; hoisting the match
    /// out of the loop recovers fully static dispatch for entire
    /// streams. Record-interleaved consumers (the batch lanes) cannot
    /// hoist and keep using [`feed`](ReplayCore::feed). The replayed
    /// bit-stream is identical either way.
    pub fn replay_dispatched<S: TraceSource + ?Sized>(&mut self, source: &S) {
        self.run_hoisted(FusedStreamJob { source });
    }

    /// [`replay_dispatched`](ReplayCore::replay_dispatched) with an
    /// observer attached.
    pub fn replay_observed_dispatched<S, O>(&mut self, source: &S, observer: &mut O)
    where
        S: TraceSource + ?Sized,
        O: Observer,
    {
        self.run_hoisted(StreamJob { source, observer });
    }

    /// Replays a whole chunk sequence with the kernel's variant
    /// resolved once for the entire run, iterating each chunk's
    /// structure-of-arrays storage in the monomorphized inner loop.
    ///
    /// Accepts owned chunks, references, or `Arc`s (anything
    /// [`Borrow<TraceChunk>`]), so both a [`TraceSource::chunks`] view
    /// and the sweep pipeline's shared ring chunks replay through the
    /// same path. Record semantics are identical to
    /// [`replay`](ReplayCore::replay) over the concatenated records.
    pub fn replay_chunks<I>(&mut self, chunks: I)
    where
        I: IntoIterator,
        I::Item: Borrow<TraceChunk>,
    {
        self.run_hoisted(FusedChunksJob { chunks });
    }

    /// Feeds one chunk with the kernel's variant resolved once per
    /// chunk — the batch workers' feed path, where lanes interleave at
    /// chunk granularity so a whole-stream hoist is impossible but a
    /// per-chunk hoist still amortises dispatch over thousands of
    /// records.
    #[inline]
    pub fn replay_chunk_dispatched(&mut self, chunk: &TraceChunk) {
        self.run_hoisted(FusedChunksJob {
            chunks: std::iter::once(chunk),
        });
    }

    /// Resolves the kernel's variant once and runs `job` against a
    /// concrete-typed twin of this core, folding the bookkeeping (and
    /// the trained predictor) back afterwards. Baselines stay the
    /// outer core's: `finish` must report deltas from construction,
    /// not from this call.
    fn run_hoisted<J: ReplayJob>(&mut self, job: J) {
        struct Hoisted<'a, J> {
            core: &'a mut ReplayCore<PredictorKernel>,
            job: J,
        }

        impl<J: ReplayJob> KernelVisitor for Hoisted<'_, J> {
            type Output = ();

            fn visit<P: BranchPredictor>(self, predictor: P, rewrap: fn(P) -> PredictorKernel) {
                let mut inner = ReplayCore {
                    predictor,
                    warmup: self.core.warmup,
                    seen: self.core.seen,
                    scored: self.core.scored,
                    mispredictions: self.core.mispredictions,
                    alias_before: self.core.alias_before,
                    bht_before: self.core.bht_before,
                };
                self.job.run(&mut inner);
                self.core.seen = inner.seen;
                self.core.scored = inner.scored;
                self.core.mispredictions = inner.mispredictions;
                self.core.predictor = rewrap(inner.predictor);
            }
        }

        let kernel = std::mem::replace(
            &mut self.predictor,
            PredictorKernel::AlwaysNotTaken(bpred_core::AlwaysNotTaken),
        );
        kernel.visit(Hoisted { core: self, job });
    }
}

/// A unit of replay work runnable against any concrete predictor
/// type: the bridge between the kernel visitor (which monomorphizes
/// per scheme) and the various feed shapes (record streams, chunk
/// sequences).
trait ReplayJob {
    /// Feeds the job's records through `core`.
    fn run<P: BranchPredictor>(self, core: &mut ReplayCore<P>);
}

/// Replays a full [`TraceSource`] stream with an observer.
struct StreamJob<'a, S: ?Sized, O> {
    source: &'a S,
    observer: &'a mut O,
}

impl<S: TraceSource + ?Sized, O: Observer> ReplayJob for StreamJob<'_, S, O> {
    fn run<P: BranchPredictor>(self, core: &mut ReplayCore<P>) {
        for record in self.source.stream() {
            core.feed_observed(&record, &mut *self.observer);
        }
    }
}

/// Replays a full [`TraceSource`] stream through the fused
/// no-observer [`feed`](ReplayCore::feed).
struct FusedStreamJob<'a, S: ?Sized> {
    source: &'a S,
}

impl<S: TraceSource + ?Sized> ReplayJob for FusedStreamJob<'_, S> {
    fn run<P: BranchPredictor>(self, core: &mut ReplayCore<P>) {
        for record in self.source.stream() {
            core.feed(&record);
        }
    }
}

/// Replays a chunk sequence through the fused no-observer
/// [`feed_chunk`](ReplayCore::feed_chunk) — the sweep pipeline's
/// inner loop.
struct FusedChunksJob<I> {
    chunks: I,
}

impl<I> ReplayJob for FusedChunksJob<I>
where
    I: IntoIterator,
    I::Item: Borrow<TraceChunk>,
{
    fn run<P: BranchPredictor>(self, core: &mut ReplayCore<P>) {
        for chunk in self.chunks {
            core.feed_chunk(chunk.borrow());
        }
    }
}

impl<P: BranchPredictor> ReplayCore<P> {
    /// A core that owns (or mutably borrows) `predictor`, scoring
    /// under `simulator`'s warmup policy.
    pub fn new(predictor: P, simulator: Simulator) -> Self {
        ReplayCore {
            warmup: simulator.warmup(),
            seen: 0,
            scored: 0,
            mispredictions: 0,
            alias_before: predictor.alias_stats().unwrap_or_default(),
            bht_before: predictor.bht_stats().unwrap_or_default(),
            predictor,
        }
    }

    /// The predictor being driven.
    pub fn predictor(&self) -> &P {
        &self.predictor
    }

    /// Feeds one record through the canonical path without
    /// instrumentation.
    ///
    /// With no observer to notify between predict and update, this
    /// uses the predictor's fused
    /// [`predict_then_update`](BranchPredictor::predict_then_update)
    /// path (one table walk instead of two). The trait contract makes
    /// the fused call exactly equivalent to the
    /// [`feed_observed`](ReplayCore::feed_observed) sequence, and the
    /// workspace observer tests replay both paths over the same traces
    /// and require identical results.
    #[inline]
    pub fn feed(&mut self, record: &BranchRecord) {
        if record.is_conditional() {
            let scored = self.seen >= self.warmup;
            let predicted =
                self.predictor
                    .predict_then_update(record.pc, record.target, record.outcome);
            self.scored += scored as u64;
            self.mispredictions += (scored & (predicted != record.outcome)) as u64;
            self.seen += 1;
        } else {
            self.predictor.note_control_transfer(record);
        }
    }

    /// Feeds one record through the canonical path: predict, score
    /// after warmup, notify `observer`, update. This is the single
    /// predict/update feed site of the whole simulation layer.
    #[inline]
    pub fn feed_observed<O: Observer>(&mut self, record: &BranchRecord, observer: &mut O) {
        if record.is_conditional() {
            let predicted = self.predictor.predict(record.pc, record.target);
            let scored = self.seen >= self.warmup;
            // Branch-free scoring: a mispredict-dependent branch here
            // would itself mispredict at roughly the rate being measured.
            self.scored += scored as u64;
            self.mispredictions += (scored & (predicted != record.outcome)) as u64;
            self.seen += 1;
            observer.on_conditional(record, predicted, scored, &self.predictor);
            self.predictor
                .update(record.pc, record.target, record.outcome);
        } else {
            self.predictor.note_control_transfer(record);
            observer.on_control_transfer(record, &self.predictor);
        }
    }

    /// Feeds every record of `chunk` through the canonical path,
    /// iterating the chunk's structure-of-arrays storage with a
    /// concrete (monomorphized) iterator. Uses the fused no-observer
    /// [`feed`](ReplayCore::feed) per record.
    #[inline]
    pub fn feed_chunk(&mut self, chunk: &TraceChunk) {
        for record in chunk.iter() {
            self.feed(&record);
        }
    }

    /// [`feed_chunk`](ReplayCore::feed_chunk) with an observer
    /// attached. Records are reassembled from the parallel arrays one
    /// at a time and fed through
    /// [`feed_observed`](ReplayCore::feed_observed) — the single
    /// predict/update site — so chunked and record-at-a-time replays
    /// are the same bit-stream by construction.
    #[inline]
    pub fn feed_chunk_observed<O: Observer>(&mut self, chunk: &TraceChunk, observer: &mut O) {
        for record in chunk.iter() {
            self.feed_observed(&record, observer);
        }
    }

    /// Feeds every record of `source` through the core.
    pub fn replay<S: TraceSource + ?Sized>(&mut self, source: &S) {
        for record in source.stream() {
            self.feed(&record);
        }
    }

    /// Feeds every record of `source` through the core with `observer`
    /// attached.
    pub fn replay_observed<S, O>(&mut self, source: &S, observer: &mut O)
    where
        S: TraceSource + ?Sized,
        O: Observer,
    {
        for record in source.stream() {
            self.feed_observed(&record, observer);
        }
    }

    /// Closes the run: the aggregate result, with alias/BHT statistics
    /// as deltas over the core's lifetime.
    pub fn finish(self) -> SimResult {
        let alias = self.predictor.alias_stats().map(|after| AliasStats {
            accesses: after.accesses - self.alias_before.accesses,
            conflicts: after.conflicts - self.alias_before.conflicts,
            harmless_conflicts: after.harmless_conflicts - self.alias_before.harmless_conflicts,
        });
        let bht = self.predictor.bht_stats().map(|after| BhtStats {
            accesses: after.accesses - self.bht_before.accesses,
            misses: after.misses - self.bht_before.misses,
        });
        SimResult {
            predictor: self.predictor.name(),
            state_bits: self.predictor.state_bits(),
            conditionals: self.scored,
            mispredictions: self.mispredictions,
            alias,
            bht,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bpred_core::AddressIndexed;
    use bpred_trace::{Outcome, Trace};

    fn trace(n: usize) -> Trace {
        (0..n)
            .map(|i| {
                BranchRecord::conditional(
                    0x400 + 4 * (i as u64 % 8),
                    0x100,
                    Outcome::from(i % 3 != 0),
                )
            })
            .collect()
    }

    /// Counts callbacks and asserts the scored flag honours warmup.
    #[derive(Default)]
    struct Counting {
        conditionals: usize,
        scored: usize,
        transfers: usize,
    }

    impl Observer for Counting {
        fn on_conditional(
            &mut self,
            _record: &BranchRecord,
            _predicted: Outcome,
            scored: bool,
            _predictor: &dyn BranchPredictor,
        ) {
            self.conditionals += 1;
            if scored {
                self.scored += 1;
            }
        }

        fn on_control_transfer(
            &mut self,
            _record: &BranchRecord,
            _predictor: &dyn BranchPredictor,
        ) {
            self.transfers += 1;
        }
    }

    #[test]
    fn observer_sees_every_record_with_warmup_flag() {
        let mut t = trace(50);
        t.push(BranchRecord::jump(0x900, 0x40));
        let mut observer = Counting::default();
        let mut core = ReplayCore::new(AddressIndexed::new(4), Simulator::with_warmup(20));
        core.replay_observed(&t, &mut observer);
        assert_eq!(observer.conditionals, 50);
        assert_eq!(observer.scored, 30);
        assert_eq!(observer.transfers, 1);
        assert_eq!(core.finish().conditionals, 30);
    }

    #[test]
    fn observed_and_bare_replays_are_identical() {
        let t = trace(400);
        let mut bare = ReplayCore::from_config(
            &PredictorConfig::Gshare {
                history_bits: 5,
                col_bits: 2,
            },
            Simulator::new(),
        );
        bare.replay(&t);

        let mut observer = (Counting::default(), Counting::default());
        let mut observed = ReplayCore::from_config(
            &PredictorConfig::Gshare {
                history_bits: 5,
                col_bits: 2,
            },
            Simulator::new(),
        );
        observed.replay_observed(&t, &mut observer);
        assert_eq!(bare.finish(), observed.finish());
        assert_eq!(observer.0.conditionals, 400);
        assert_eq!(observer.1.conditionals, 400);
    }

    #[test]
    fn borrowed_predictor_reports_deltas() {
        let mut p = AddressIndexed::new(0);
        let t = trace(30);
        for _ in 0..2 {
            let mut core = ReplayCore::new(&mut p, Simulator::new());
            core.replay(&t);
            let result = core.finish();
            assert_eq!(result.alias.expect("instrumented").accesses, 30);
        }
    }
}

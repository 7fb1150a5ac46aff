//! Workload characterization.
//!
//! These statistics mirror the benchmark-characterization tables of
//! Sechrest, Lee & Mudge (ISCA 1996): Table 1 reports, per benchmark, the
//! dynamic conditional-branch count, the static conditional-branch count,
//! and the number of static branches that together contribute 90% of the
//! dynamic instances; Table 2 breaks the dynamic instances into coverage
//! buckets (the branches supplying the first 50%, the next 40%, the next
//! 9%, and the remaining 1%).
//!
//! # Examples
//!
//! ```
//! use bpred_trace::{stats::TraceStats, BranchRecord, Outcome, Trace};
//!
//! // One hot branch executed 90 times, ten cold ones once each.
//! let mut trace = Trace::new();
//! for _ in 0..90 {
//!     trace.push(BranchRecord::conditional(0x100, 0x80, Outcome::Taken));
//! }
//! for i in 0..10u64 {
//!     trace.push(BranchRecord::conditional(0x200 + 4 * i, 0x80, Outcome::NotTaken));
//! }
//! let stats = TraceStats::measure(&trace);
//! assert_eq!(stats.static_conditionals, 11);
//! assert_eq!(stats.static_for_fraction(0.5), 1);
//! ```
//!
//! Every measurement is a fold over [`TraceChunk`]s ([`StatsFold`]):
//! [`TraceStats::measure_source`] folds any source's chunks through one
//! reused buffer, and [`TraceStats::measure`] is that fold over a
//! materialised trace, so the two agree by construction and a workload
//! generator's statistics never need the whole trace in memory.

use std::collections::HashMap;

use crate::{Outcome, Trace, TraceChunk, TraceSource};

/// Per-static-branch execution profile: how often each distinct branch
/// address executed and how often it was taken.
///
/// The profile is the intermediate result behind [`TraceStats`]; it is
/// exposed because workload calibration and aliasing analyses want the
/// raw per-branch data (C-INTERMEDIATE).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BranchProfile {
    counts: HashMap<u64, BranchCounts>,
    dynamic_conditionals: u64,
}

/// Execution and taken counts for one static branch.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BranchCounts {
    /// Dynamic executions of this branch.
    pub executions: u64,
    /// Executions resolved taken.
    pub taken: u64,
}

impl BranchCounts {
    /// Fraction of executions that were taken.
    pub fn taken_rate(&self) -> f64 {
        if self.executions == 0 {
            0.0
        } else {
            self.taken as f64 / self.executions as f64
        }
    }

    /// Bias towards the dominant direction, in `[0.5, 1.0]`.
    ///
    /// A branch that is always taken or never taken has bias 1.0; a
    /// 50/50 branch has bias 0.5.
    pub fn bias(&self) -> f64 {
        let t = self.taken_rate();
        t.max(1.0 - t)
    }
}

impl BranchProfile {
    /// Profiles the conditional branches of a trace.
    pub fn measure(trace: &Trace) -> Self {
        TraceStats::measure(trace).profile
    }

    /// Adds the conditional branches of one chunk to the profile.
    fn add(&mut self, chunk: &TraceChunk) {
        for (i, &pc) in chunk.pcs().iter().enumerate() {
            if chunk.is_conditional(i) {
                self.dynamic_conditionals += 1;
                let entry = self.counts.entry(pc).or_default();
                entry.executions += 1;
                entry.taken += u64::from(chunk.outcome(i) == Outcome::Taken);
            }
        }
    }

    /// Number of distinct conditional branch addresses.
    pub fn static_conditionals(&self) -> usize {
        self.counts.len()
    }

    /// Total dynamic conditional branches profiled.
    pub fn dynamic_conditionals(&self) -> u64 {
        self.dynamic_conditionals
    }

    /// Counts for one branch address, if it executed.
    pub fn get(&self, pc: u64) -> Option<BranchCounts> {
        self.counts.get(&pc).copied()
    }

    /// Iterates over `(pc, counts)` pairs in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, BranchCounts)> + '_ {
        self.counts.iter().map(|(&pc, &c)| (pc, c))
    }

    /// Execution counts sorted descending — the basis for coverage
    /// bucket computations.
    pub fn sorted_executions(&self) -> Vec<u64> {
        let mut v: Vec<u64> = self.counts.values().map(|c| c.executions).collect();
        v.sort_unstable_by(|a, b| b.cmp(a));
        v
    }

    /// The smallest number of static branches whose combined executions
    /// reach `fraction` of all dynamic conditional instances.
    ///
    /// `fraction` is clamped to `[0, 1]`. Returns 0 for an empty profile.
    pub fn static_for_fraction(&self, fraction: f64) -> usize {
        let need = (self.dynamic_conditionals as f64 * fraction.clamp(0.0, 1.0)).ceil() as u64;
        if need == 0 {
            return 0;
        }
        let mut acc = 0u64;
        for (i, execs) in self.sorted_executions().into_iter().enumerate() {
            acc += execs;
            if acc >= need {
                return i + 1;
            }
        }
        self.counts.len()
    }

    /// Fraction of dynamic conditional instances arising from branches
    /// whose bias is at least `threshold` (e.g. 0.9 for "highly biased").
    pub fn dynamic_fraction_with_bias(&self, threshold: f64) -> f64 {
        if self.dynamic_conditionals == 0 {
            return 0.0;
        }
        let biased: u64 = self
            .counts
            .values()
            .filter(|c| c.bias() >= threshold)
            .map(|c| c.executions)
            .sum();
        biased as f64 / self.dynamic_conditionals as f64
    }

    /// Splits the static branches into the paper's Table 2 coverage
    /// buckets.
    pub fn coverage_buckets(&self) -> CoverageBuckets {
        let b50 = self.static_for_fraction(0.50);
        let b90 = self.static_for_fraction(0.90);
        let b99 = self.static_for_fraction(0.99);
        let total = self.counts.len();
        CoverageBuckets {
            first_50: b50,
            next_40: b90.saturating_sub(b50),
            next_9: b99.saturating_sub(b90),
            last_1: total.saturating_sub(b99),
        }
    }
}

/// Table 2 of the paper: number of static branches contributing each
/// slice of the dynamic conditional instances.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CoverageBuckets {
    /// Branches contributing the first 50% of dynamic instances.
    pub first_50: usize,
    /// Branches contributing the next 40% (to 90% cumulative).
    pub next_40: usize,
    /// Branches contributing the next 9% (to 99% cumulative).
    pub next_9: usize,
    /// Branches contributing the remaining 1%.
    pub last_1: usize,
}

impl CoverageBuckets {
    /// Total static branches across all buckets.
    pub fn total(&self) -> usize {
        self.first_50 + self.next_40 + self.next_9 + self.last_1
    }
}

/// Summary statistics for a trace, in the shape of the paper's Table 1.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceStats {
    /// Total records of any kind.
    pub total_records: usize,
    /// Dynamic conditional branch instances.
    pub dynamic_conditionals: u64,
    /// Distinct conditional branch addresses.
    pub static_conditionals: usize,
    /// Static branches contributing 90% of dynamic instances (Table 1's
    /// rightmost column).
    pub static_for_90: usize,
    /// Fraction of dynamic conditional instances that were taken.
    pub taken_rate: f64,
    /// Fraction of dynamic instances from branches with bias ≥ 0.9.
    pub highly_biased_fraction: f64,
    /// Table 2 coverage buckets.
    pub coverage: CoverageBuckets,
    profile: BranchProfile,
}

/// A chunk-at-a-time fold into [`TraceStats`]: [`add`](Self::add)
/// every chunk of a record sequence in order, then
/// [`finish`](Self::finish). Where the chunk boundaries fall never
/// changes the result.
///
/// # Examples
///
/// ```
/// use bpred_trace::stats::{StatsFold, TraceStats};
/// use bpred_trace::{BranchRecord, Outcome, Trace, TraceSource};
///
/// let trace: Trace = (0..100u64)
///     .map(|i| BranchRecord::conditional(0x40 + 4 * (i % 3), 0x20, Outcome::from(i % 2 == 0)))
///     .collect();
/// let mut fold = StatsFold::new();
/// for chunk in trace.chunks(7) {
///     fold.add(&chunk);
/// }
/// assert_eq!(fold.finish(), TraceStats::measure(&trace));
/// ```
#[derive(Debug, Clone, Default)]
pub struct StatsFold {
    profile: BranchProfile,
    records: usize,
}

impl StatsFold {
    /// An empty fold.
    pub fn new() -> Self {
        StatsFold::default()
    }

    /// Folds in the next chunk of the sequence.
    pub fn add(&mut self, chunk: &TraceChunk) {
        self.records += chunk.len();
        self.profile.add(chunk);
    }

    /// The statistics of every chunk added so far.
    pub fn finish(self) -> TraceStats {
        let profile = self.profile;
        let taken: u64 = profile.counts.values().map(|c| c.taken).sum();
        let dynamic = profile.dynamic_conditionals();
        TraceStats {
            total_records: self.records,
            dynamic_conditionals: dynamic,
            static_conditionals: profile.static_conditionals(),
            static_for_90: profile.static_for_fraction(0.90),
            taken_rate: if dynamic == 0 {
                0.0
            } else {
                taken as f64 / dynamic as f64
            },
            highly_biased_fraction: profile.dynamic_fraction_with_bias(0.9),
            coverage: profile.coverage_buckets(),
            profile,
        }
    }
}

impl TraceStats {
    /// Measures a trace: [`measure_source`](Self::measure_source)
    /// over its chunks.
    pub fn measure(trace: &Trace) -> Self {
        TraceStats::measure_source(trace)
    }

    /// Measures a streaming source in one pass through a single reused
    /// chunk buffer, without materialising the trace.
    pub fn measure_source<S: TraceSource + ?Sized>(source: &S) -> Self {
        let mut fold = StatsFold::new();
        let mut feeder = source.chunk_feeder();
        let mut chunk = TraceChunk::with_capacity(TraceChunk::DEFAULT_LEN);
        while feeder.refill(&mut chunk, TraceChunk::DEFAULT_LEN) > 0 {
            fold.add(&chunk);
        }
        fold.finish()
    }

    /// The per-branch profile the summary was computed from.
    pub fn profile(&self) -> &BranchProfile {
        &self.profile
    }

    /// Shorthand for [`BranchProfile::static_for_fraction`].
    pub fn static_for_fraction(&self, fraction: f64) -> usize {
        self.profile.static_for_fraction(fraction)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BranchKind, BranchRecord};

    /// hot branch ×90 (always taken), 10 cold branches ×1 (not taken)
    fn skewed() -> Trace {
        let mut t = Trace::new();
        for _ in 0..90 {
            t.push(BranchRecord::conditional(0x100, 0x80, Outcome::Taken));
        }
        for i in 0..10u64 {
            t.push(BranchRecord::conditional(
                0x200 + 4 * i,
                0x80,
                Outcome::NotTaken,
            ));
        }
        t
    }

    #[test]
    fn static_and_dynamic_counts() {
        let s = TraceStats::measure(&skewed());
        assert_eq!(s.total_records, 100);
        assert_eq!(s.dynamic_conditionals, 100);
        assert_eq!(s.static_conditionals, 11);
    }

    #[test]
    fn coverage_fractions() {
        let s = TraceStats::measure(&skewed());
        assert_eq!(s.static_for_fraction(0.5), 1);
        assert_eq!(s.static_for_fraction(0.9), 1);
        // 99% needs 99 executions: hot (90) + 9 cold ones
        assert_eq!(s.static_for_fraction(0.99), 10);
        assert_eq!(s.static_for_fraction(1.0), 11);
        assert_eq!(s.static_for_90, 1);
    }

    #[test]
    fn coverage_buckets_partition_static_branches() {
        let s = TraceStats::measure(&skewed());
        let b = s.coverage;
        assert_eq!(b.total(), s.static_conditionals);
        assert_eq!(b.first_50, 1);
        assert_eq!(b.next_40, 0);
        assert_eq!(b.next_9, 9);
        assert_eq!(b.last_1, 1);
    }

    #[test]
    fn taken_rate_and_bias() {
        let s = TraceStats::measure(&skewed());
        assert!((s.taken_rate - 0.9).abs() < 1e-12);
        // every branch here is perfectly biased
        assert!((s.highly_biased_fraction - 1.0).abs() < 1e-12);
    }

    #[test]
    fn bias_of_mixed_branch() {
        let mut t = Trace::new();
        for i in 0..10 {
            t.push(BranchRecord::conditional(0x40, 0x20, Outcome::from(i < 3)));
        }
        let p = BranchProfile::measure(&t);
        let c = p.get(0x40).unwrap();
        assert!((c.taken_rate() - 0.3).abs() < 1e-12);
        assert!((c.bias() - 0.7).abs() < 1e-12);
        assert!((p.dynamic_fraction_with_bias(0.9)).abs() < 1e-12);
    }

    #[test]
    fn empty_trace_is_all_zeros() {
        let s = TraceStats::measure(&Trace::new());
        assert_eq!(s.dynamic_conditionals, 0);
        assert_eq!(s.static_conditionals, 0);
        assert_eq!(s.taken_rate, 0.0);
        assert_eq!(s.coverage.total(), 0);
        assert_eq!(s.static_for_fraction(0.5), 0);
    }

    #[test]
    fn non_conditionals_are_ignored_by_profile() {
        let mut t = skewed();
        t.push(BranchRecord::jump(0x900, 0x100));
        let s = TraceStats::measure(&t);
        assert_eq!(s.total_records, 101);
        assert_eq!(s.dynamic_conditionals, 100);
        assert_eq!(s.static_conditionals, 11);
    }

    /// A few thousand records over 40 PCs with skewed counts, taken
    /// rates that differ per PC, and a jump, call or return between
    /// some of the conditionals.
    fn mixed(n: u64) -> Trace {
        let mut t = Trace::new();
        for i in 0..n {
            let pc = 0x1000 + 4 * ((i * i) % 40);
            t.push(BranchRecord::conditional(
                pc,
                0x80,
                Outcome::from((i * 7 + pc) % 5 < 2),
            ));
            match i % 11 {
                3 => t.push(BranchRecord::jump(0x9000 + i, 0x100)),
                5 => t.push(BranchRecord::new(
                    0xa000,
                    0x200,
                    BranchKind::Call,
                    Outcome::Taken,
                )),
                7 => t.push(BranchRecord::new(
                    0xa010,
                    0xa004,
                    BranchKind::Return,
                    Outcome::Taken,
                )),
                _ => {}
            }
        }
        t
    }

    #[test]
    fn chunk_fold_matches_the_whole_trace_at_any_chunk_len() {
        let trace = mixed(20_000);
        // The whole-trace reference, record by record.
        let mut counts: HashMap<u64, BranchCounts> = HashMap::new();
        for r in trace.iter().filter(|r| r.is_conditional()) {
            let c = counts.entry(r.pc).or_default();
            c.executions += 1;
            c.taken += u64::from(r.outcome == Outcome::Taken);
        }
        let whole = TraceStats::measure(&trace);
        assert_eq!(whole.total_records, trace.len());
        assert_eq!(whole.dynamic_conditionals, 20_000);
        assert_eq!(whole.profile().counts, counts);
        for chunk_len in [1, 7, TraceChunk::DEFAULT_LEN] {
            let mut fold = StatsFold::new();
            for chunk in trace.chunks(chunk_len) {
                fold.add(&chunk);
            }
            assert_eq!(fold.finish(), whole, "chunk_len {chunk_len}");
        }
        assert_eq!(TraceStats::measure_source(&trace), whole);
    }

    #[test]
    fn sorted_executions_is_descending() {
        let p = BranchProfile::measure(&skewed());
        let v = p.sorted_executions();
        assert_eq!(v[0], 90);
        assert!(v.windows(2).all(|w| w[0] >= w[1]));
    }
}

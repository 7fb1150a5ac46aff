//! The trace-driven simulation engine.
//!
//! [`Simulator::run`] replays a [`Trace`] against a
//! [`BranchPredictor`]: every conditional branch is predicted then
//! resolved, every other control transfer is reported to the predictor
//! (for path-history schemes), and the result collects the paper's
//! figures of merit — misprediction rate, second-level aliasing, and
//! first-level miss rate. The replay itself is one pass of the shared
//! [`ReplayCore`]; `Simulator` carries only the
//! scoring policy (warmup) and the convenience entry point.

use bpred_core::{AliasStats, BhtStats, BranchPredictor};
use bpred_trace::Trace;

use crate::ReplayCore;

/// Replays traces against predictors.
///
/// # Examples
///
/// ```
/// use bpred_core::AddressIndexed;
/// use bpred_sim::Simulator;
/// use bpred_trace::{BranchRecord, Outcome, Trace};
///
/// let trace: Trace = (0..100)
///     .map(|i| BranchRecord::conditional(0x40, 0x20, Outcome::from(i % 5 != 0)))
///     .collect();
/// let mut p = AddressIndexed::new(4);
/// let result = Simulator::new().run(&mut p, &trace);
/// assert_eq!(result.conditionals, 100);
/// assert!(result.misprediction_rate() < 0.35);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Simulator {
    warmup: usize,
}

impl Simulator {
    /// A simulator that scores every conditional branch (no warmup
    /// exclusion — matching the paper, which simulates whole traces).
    pub fn new() -> Self {
        Simulator::default()
    }

    /// Excludes the first `warmup` conditional branches from the
    /// scored statistics (they are still used for training). Useful
    /// for steady-state comparisons.
    pub fn with_warmup(warmup: usize) -> Self {
        Simulator { warmup }
    }

    /// Number of initial conditional branches excluded from scoring.
    pub fn warmup(&self) -> usize {
        self.warmup
    }

    /// Replays `trace` against `predictor` and collects statistics.
    pub fn run<P: BranchPredictor + ?Sized>(&self, predictor: &mut P, trace: &Trace) -> SimResult {
        let mut core = ReplayCore::new(predictor, *self);
        core.replay(trace);
        core.finish()
    }
}

/// The outcome of one simulation run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SimResult {
    /// Name of the predictor configuration.
    pub predictor: String,
    /// Predictor state cost in bits at the end of the run.
    pub state_bits: u64,
    /// Conditional branches scored.
    pub conditionals: u64,
    /// Scored branches predicted incorrectly.
    pub mispredictions: u64,
    /// Second-level aliasing statistics over the whole run, when the
    /// predictor tracks them.
    pub alias: Option<AliasStats>,
    /// First-level table statistics, for per-address schemes.
    pub bht: Option<BhtStats>,
}

impl SimResult {
    /// Fraction of scored branches mispredicted — the paper's figure
    /// of merit. Zero for an empty run.
    pub fn misprediction_rate(&self) -> f64 {
        if self.conditionals == 0 {
            0.0
        } else {
            self.mispredictions as f64 / self.conditionals as f64
        }
    }

    /// `1 - misprediction_rate`.
    pub fn accuracy(&self) -> f64 {
        1.0 - self.misprediction_rate()
    }

    /// Second-level aliasing rate (Figure 5's z-axis), or 0 for
    /// predictors without an instrumented table.
    pub fn alias_rate(&self) -> f64 {
        self.alias.map_or(0.0, |a| a.conflict_rate())
    }

    /// First-level miss rate (Table 3's miss-rate column), or 0 for
    /// schemes without a first-level table.
    pub fn bht_miss_rate(&self) -> f64 {
        self.bht.map_or(0.0, |b| b.miss_rate())
    }
}

impl std::fmt::Display for SimResult {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}: {:.2}% mispredicted over {} branches",
            self.predictor,
            100.0 * self.misprediction_rate(),
            self.conditionals
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bpred_core::{AddressIndexed, AlwaysTaken, Pas, PathBased};
    use bpred_trace::{BranchRecord, Outcome};

    fn all_taken(n: usize) -> Trace {
        (0..n)
            .map(|_| BranchRecord::conditional(0x40, 0x20, Outcome::Taken))
            .collect()
    }

    #[test]
    fn perfect_predictor_scores_zero() {
        let mut p = AlwaysTaken;
        let r = Simulator::new().run(&mut p, &all_taken(50));
        assert_eq!(r.mispredictions, 0);
        assert_eq!(r.conditionals, 50);
        assert_eq!(r.misprediction_rate(), 0.0);
        assert_eq!(r.accuracy(), 1.0);
    }

    #[test]
    fn all_wrong_scores_one() {
        let mut p = AlwaysTaken;
        let trace: Trace = (0..10)
            .map(|_| BranchRecord::conditional(0x40, 0x20, Outcome::NotTaken))
            .collect();
        let r = Simulator::new().run(&mut p, &trace);
        assert_eq!(r.misprediction_rate(), 1.0);
    }

    #[test]
    fn warmup_excludes_cold_start() {
        // Counter starts weak-taken; an all-not-taken trace mispredicts
        // only the first time (one train flips a weak state).
        let trace: Trace = (0..100)
            .map(|_| BranchRecord::conditional(0x40, 0x20, Outcome::NotTaken))
            .collect();
        let cold = Simulator::new().run(&mut AddressIndexed::new(2), &trace);
        assert_eq!(cold.mispredictions, 1);
        let warm = Simulator::with_warmup(10).run(&mut AddressIndexed::new(2), &trace);
        assert_eq!(warm.mispredictions, 0);
        assert_eq!(warm.conditionals, 90);
    }

    #[test]
    fn alias_and_bht_stats_are_captured() {
        let mut trace = Trace::new();
        for i in 0..40u64 {
            trace.push(BranchRecord::conditional(
                0x40 + 4 * (i % 2) * 16,
                0x20,
                Outcome::Taken,
            ));
        }
        let mut p = AddressIndexed::new(0); // everything collides
        let r = Simulator::new().run(&mut p, &trace);
        let alias = r.alias.expect("table predictor reports aliasing");
        assert_eq!(alias.accesses, 40);
        assert!(alias.conflicts > 30);
        assert!(r.alias_rate() > 0.9);
        assert!(r.bht.is_none());

        let mut pas = Pas::with_bht(4, 0, 16, 1);
        let r = Simulator::new().run(&mut pas, &trace);
        let bht = r.bht.expect("per-address predictor reports bht stats");
        assert_eq!(bht.accesses, 40);
        assert!(r.bht_miss_rate() > 0.0);
    }

    #[test]
    fn static_predictors_report_no_table_stats() {
        let r = Simulator::new().run(&mut AlwaysTaken, &all_taken(5));
        assert!(r.alias.is_none());
        assert!(r.bht.is_none());
        assert_eq!(r.alias_rate(), 0.0);
        assert_eq!(r.bht_miss_rate(), 0.0);
    }

    #[test]
    fn stats_are_deltas_across_repeated_runs() {
        // Running the same predictor twice must not double-count the
        // first run's accesses in the second result.
        let mut p = AddressIndexed::new(0);
        let t = all_taken(30);
        let first = Simulator::new().run(&mut p, &t);
        let second = Simulator::new().run(&mut p, &t);
        assert_eq!(first.alias.unwrap().accesses, 30);
        assert_eq!(second.alias.unwrap().accesses, 30);
    }

    #[test]
    fn non_conditionals_reach_the_predictor() {
        // A path predictor sees jumps; its register must change even
        // with no conditional branches in between.
        let mut trace = Trace::new();
        trace.push(BranchRecord::jump(0x40, 0x84c)); // word 0x213, low bits 11
        trace.push(BranchRecord::conditional(0x44, 0x20, Outcome::Taken));
        let mut p = PathBased::new(4, 0, 2);
        let r = Simulator::new().run(&mut p, &trace);
        assert_eq!(r.conditionals, 1);
        assert_ne!(p.selector().path().bits(), 0);
    }

    #[test]
    fn empty_trace_is_a_zero_result() {
        let r = Simulator::new().run(&mut AlwaysTaken, &Trace::new());
        assert_eq!(r.conditionals, 0);
        assert_eq!(r.misprediction_rate(), 0.0);
    }

    #[test]
    fn display_summarises() {
        let r = Simulator::new().run(&mut AlwaysTaken, &all_taken(4));
        assert_eq!(
            r.to_string(),
            "always-taken: 0.00% mispredicted over 4 branches"
        );
    }
}

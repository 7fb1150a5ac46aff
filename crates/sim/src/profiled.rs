//! Per-branch misprediction attribution.
//!
//! The paper's methodology argument (§1) is that designs should follow
//! from *aggregate* behaviour of large programs, not from individual
//! constructs — but checking that requires seeing the per-branch
//! breakdown. [`BranchProfiler`] is an [`Observer`] that attributes
//! every scored prediction to its static branch; [`ProfiledRun`]
//! attaches it to one [`ReplayCore`] pass and pairs
//! the attribution with the aggregate result, exposing the
//! concentration of error mass the paper reasons about.

use std::collections::HashMap;

use bpred_core::BranchPredictor;
use bpred_trace::{BranchRecord, Outcome, Trace};

use crate::replay::{Observer, ReplayCore};
use crate::report::{percent, TextTable};
use crate::{SimResult, Simulator};

/// Per-static-branch outcome of a profiled simulation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BranchOutcomeCounts {
    /// Dynamic executions of this branch.
    pub executions: u64,
    /// Executions mispredicted.
    pub mispredictions: u64,
}

impl BranchOutcomeCounts {
    /// This branch's own misprediction rate.
    pub fn rate(&self) -> f64 {
        if self.executions == 0 {
            0.0
        } else {
            self.mispredictions as f64 / self.executions as f64
        }
    }
}

/// An [`Observer`] attributing every scored prediction to its static
/// branch address.
///
/// Warmup-excluded records are skipped, so the profiler's totals
/// always sum exactly to the core's aggregate [`SimResult`].
#[derive(Debug, Clone, Default)]
pub struct BranchProfiler {
    per_branch: HashMap<u64, BranchOutcomeCounts>,
}

impl BranchProfiler {
    /// An empty profiler, ready to attach to a replay.
    pub fn new() -> Self {
        BranchProfiler::default()
    }

    /// The per-branch counts accumulated so far.
    pub fn counts(&self) -> &HashMap<u64, BranchOutcomeCounts> {
        &self.per_branch
    }
}

impl Observer for BranchProfiler {
    fn on_conditional(
        &mut self,
        record: &BranchRecord,
        predicted: Outcome,
        scored: bool,
        _predictor: &dyn BranchPredictor,
    ) {
        if !scored {
            return;
        }
        let entry = self.per_branch.entry(record.pc).or_default();
        entry.executions += 1;
        if predicted != record.outcome {
            entry.mispredictions += 1;
        }
    }
}

/// A simulation result with per-branch attribution.
#[derive(Debug, Clone, PartialEq)]
pub struct ProfiledRun {
    /// The aggregate result (identical to an unprofiled run).
    pub result: SimResult,
    per_branch: HashMap<u64, BranchOutcomeCounts>,
}

impl ProfiledRun {
    /// Replays `trace` against `predictor`, attributing every
    /// misprediction to its branch address.
    ///
    /// # Examples
    ///
    /// ```
    /// use bpred_core::AddressIndexed;
    /// use bpred_sim::ProfiledRun;
    /// use bpred_trace::{BranchRecord, Outcome, Trace};
    ///
    /// let trace: Trace = (0..100)
    ///     .map(|i| BranchRecord::conditional(0x40, 0x20, Outcome::from(i % 2 == 0)))
    ///     .collect();
    /// let run = ProfiledRun::run(&mut AddressIndexed::new(4), &trace);
    /// let worst = run.worst_offenders(1);
    /// assert_eq!(worst[0].0, 0x40);
    /// ```
    pub fn run<P: BranchPredictor + ?Sized>(predictor: &mut P, trace: &Trace) -> ProfiledRun {
        ProfiledRun::run_with(predictor, trace, Simulator::new())
    }

    /// [`run`](Self::run) under an explicit scoring policy: one
    /// [`ReplayCore`] pass with a [`BranchProfiler`] attached.
    /// Warmup-excluded branches train the predictor but appear in
    /// neither the aggregate nor the attribution, so the per-branch
    /// totals always sum to the aggregate exactly.
    pub fn run_with<P: BranchPredictor + ?Sized>(
        predictor: &mut P,
        trace: &Trace,
        simulator: Simulator,
    ) -> ProfiledRun {
        let mut profiler = BranchProfiler::new();
        let mut core = ReplayCore::new(predictor, simulator);
        core.replay_observed(trace, &mut profiler);
        ProfiledRun {
            result: core.finish(),
            per_branch: profiler.per_branch,
        }
    }

    /// Counts for one branch address.
    pub fn branch(&self, pc: u64) -> Option<BranchOutcomeCounts> {
        self.per_branch.get(&pc).copied()
    }

    /// Number of distinct branches executed.
    pub fn static_branches(&self) -> usize {
        self.per_branch.len()
    }

    /// Iterates over `(pc, counts)` in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, BranchOutcomeCounts)> + '_ {
        self.per_branch.iter().map(|(&pc, &c)| (pc, c))
    }

    /// The `n` branches contributing the most mispredictions, sorted
    /// by contribution (then by address for determinism).
    pub fn worst_offenders(&self, n: usize) -> Vec<(u64, BranchOutcomeCounts)> {
        let mut all: Vec<(u64, BranchOutcomeCounts)> = self.iter().collect();
        all.sort_by(|a, b| {
            b.1.mispredictions
                .cmp(&a.1.mispredictions)
                .then(a.0.cmp(&b.0))
        });
        all.truncate(n);
        all
    }

    /// The smallest number of static branches accounting for
    /// `fraction` of all mispredictions — the error-mass analogue of
    /// the paper's Table 2 coverage measure.
    pub fn branches_for_error_fraction(&self, fraction: f64) -> usize {
        let total = self.result.mispredictions;
        let need = (total as f64 * fraction.clamp(0.0, 1.0)).ceil() as u64;
        if need == 0 {
            return 0;
        }
        let mut misses: Vec<u64> = self.per_branch.values().map(|c| c.mispredictions).collect();
        misses.sort_unstable_by(|a, b| b.cmp(a));
        let mut acc = 0u64;
        for (i, m) in misses.into_iter().enumerate() {
            acc += m;
            if acc >= need {
                return i + 1;
            }
        }
        self.per_branch.len()
    }

    /// Renders the top offenders as a table.
    pub fn offenders_table(&self, n: usize) -> TextTable {
        let mut table = TextTable::new(
            [
                "branch",
                "executions",
                "mispredicts",
                "own rate",
                "share of all misses",
            ]
            .map(str::to_owned)
            .to_vec(),
        );
        let total = self.result.mispredictions.max(1);
        for (pc, counts) in self.worst_offenders(n) {
            table.push_row(vec![
                format!("{pc:#010x}"),
                counts.executions.to_string(),
                counts.mispredictions.to_string(),
                percent(counts.rate()),
                percent(counts.mispredictions as f64 / total as f64),
            ]);
        }
        table
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bpred_core::{AddressIndexed, AlwaysTaken};
    use bpred_trace::{BranchRecord, Outcome};

    use crate::Simulator;

    fn mixed_trace() -> Trace {
        let mut t = Trace::new();
        for i in 0..100u32 {
            // Branch A: always taken (never missed by AlwaysTaken).
            t.push(BranchRecord::conditional(0x40, 0x20, Outcome::Taken));
            // Branch B: never taken (always missed by AlwaysTaken).
            t.push(BranchRecord::conditional(0x44, 0x20, Outcome::NotTaken));
            // Branch C: alternating.
            t.push(BranchRecord::conditional(
                0x48,
                0x20,
                Outcome::from(i % 2 == 0),
            ));
        }
        t
    }

    #[test]
    fn aggregate_matches_simulator_run() {
        let trace = mixed_trace();
        let profiled = ProfiledRun::run(&mut AddressIndexed::new(4), &trace);
        let plain = Simulator::new().run(&mut AddressIndexed::new(4), &trace);
        assert_eq!(profiled.result, plain);
    }

    #[test]
    fn attribution_identifies_the_bad_branch() {
        let trace = mixed_trace();
        let run = ProfiledRun::run(&mut AlwaysTaken, &trace);
        assert_eq!(run.static_branches(), 3);
        assert_eq!(run.branch(0x40).unwrap().mispredictions, 0);
        assert_eq!(run.branch(0x44).unwrap().mispredictions, 100);
        assert_eq!(run.branch(0x48).unwrap().mispredictions, 50);
        let worst = run.worst_offenders(2);
        assert_eq!(worst[0].0, 0x44);
        assert_eq!(worst[1].0, 0x48);
    }

    #[test]
    fn per_branch_counts_sum_to_totals() {
        let trace = mixed_trace();
        let run = ProfiledRun::run(&mut AddressIndexed::new(2), &trace);
        let execs: u64 = run.iter().map(|(_, c)| c.executions).sum();
        let misses: u64 = run.iter().map(|(_, c)| c.mispredictions).sum();
        assert_eq!(execs, run.result.conditionals);
        assert_eq!(misses, run.result.mispredictions);
    }

    #[test]
    fn error_fraction_coverage() {
        let trace = mixed_trace();
        let run = ProfiledRun::run(&mut AlwaysTaken, &trace);
        // 150 misses total: 100 from B, 50 from C.
        assert_eq!(run.branches_for_error_fraction(0.5), 1);
        assert_eq!(run.branches_for_error_fraction(0.9), 2);
        assert_eq!(run.branches_for_error_fraction(0.0), 0);
    }

    #[test]
    fn offenders_table_renders() {
        let trace = mixed_trace();
        let run = ProfiledRun::run(&mut AlwaysTaken, &trace);
        let text = run.offenders_table(2).render();
        assert!(text.contains("0x00000044"));
        assert!(text.contains("66.67%")); // B's share: 100/150
    }

    #[test]
    fn own_rate_is_bounded() {
        let trace = mixed_trace();
        let run = ProfiledRun::run(&mut AddressIndexed::new(4), &trace);
        for (_, c) in run.iter() {
            assert!((0.0..=1.0).contains(&c.rate()));
        }
    }
}

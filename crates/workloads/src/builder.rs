//! Builder for custom workload models.
//!
//! The fourteen [`suite`](crate::suites) models are calibrated to the
//! paper; downstream users studying their own design points need
//! workloads with different shapes. [`WorkloadBuilder`] exposes every
//! calibration axis with sensible (large-program) defaults, so a
//! usable model takes two lines and a fully bespoke one stays
//! readable.

use bpred_trace::stats::CoverageBuckets;

use crate::model::WorkloadModel;
use crate::spec::{
    BehaviorMix, BehaviorTuning, BenchmarkSpec, BiasRange, PaperReference, SuiteKind,
};

/// Non-consuming builder for [`WorkloadModel`]s (and their
/// [`BenchmarkSpec`]s).
///
/// # Examples
///
/// ```
/// use bpred_workloads::WorkloadBuilder;
///
/// // A 2000-branch program with an espresso-like correlated hot set.
/// let model = WorkloadBuilder::new("my-workload")
///     .static_branches(2_000)
///     .correlated_fraction(0.4)
///     .sequence_coherence(0.8)
///     .dynamic_branches(50_000)
///     .build();
/// assert_eq!(model.static_branches(), 2_000);
/// let trace = model.trace(1);
/// assert_eq!(trace.conditional_len(), 50_000);
/// ```
#[derive(Debug, Clone)]
pub struct WorkloadBuilder {
    spec: BenchmarkSpec,
}

impl WorkloadBuilder {
    /// Starts from large-program (IBS-like) defaults: 5,000 static
    /// branches with a realistic coverage skew, a highly biased hot
    /// set, and 500k-branch traces.
    pub fn new(name: &str) -> Self {
        WorkloadBuilder {
            spec: BenchmarkSpec {
                name: name.to_owned(),
                suite: SuiteKind::IbsUltrix,
                coverage: derive_coverage(5_000),
                hot_mix: BehaviorMix {
                    biased_taken: 0.42,
                    biased_not_taken: 0.23,
                    loops: 0.22,
                    patterns: 0.04,
                    correlated: 0.09,
                },
                cold_mix: BehaviorMix {
                    biased_taken: 0.55,
                    biased_not_taken: 0.38,
                    loops: 0.05,
                    patterns: 0.01,
                    correlated: 0.01,
                },
                hot_bias: BiasRange {
                    low: 0.94,
                    high: 0.999,
                },
                cold_bias: BiasRange {
                    low: 0.96,
                    high: 1.0,
                },
                correlation_bits: 6,
                correlation_noise: 0.03,
                tuning: BehaviorTuning::default(),
                sequence_coherence: 0.65,
                dynamic_branches: 500_000,
                jump_fraction: 0.08,
                paper: PaperReference {
                    dynamic_instructions: 0,
                    dynamic_conditionals: 0,
                    static_conditionals: 0,
                    static_for_90: 0,
                    table2: None,
                },
            },
        }
    }

    /// Sets the static branch count, deriving a realistic coverage
    /// skew (≈1% of branches supply half the instances).
    pub fn static_branches(&mut self, statics: usize) -> &mut Self {
        self.spec.coverage = derive_coverage(statics);
        self
    }

    /// Sets exact coverage buckets (overrides
    /// [`static_branches`](Self::static_branches)).
    pub fn coverage(&mut self, coverage: CoverageBuckets) -> &mut Self {
        self.spec.coverage = coverage;
        self
    }

    /// Sets the hot-set behaviour mix.
    pub fn hot_mix(&mut self, mix: BehaviorMix) -> &mut Self {
        self.spec.hot_mix = mix;
        self
    }

    /// Sets the cold-tail behaviour mix.
    pub fn cold_mix(&mut self, mix: BehaviorMix) -> &mut Self {
        self.spec.cold_mix = mix;
        self
    }

    /// Sets the fraction of hot branches that are globally correlated,
    /// rebalancing the biased fractions to keep the mix normalised.
    pub fn correlated_fraction(&mut self, fraction: f64) -> &mut Self {
        let mix = &mut self.spec.hot_mix;
        let non_biased = mix.loops + mix.patterns + fraction;
        assert!(
            non_biased < 1.0,
            "correlated fraction {fraction} leaves no room for biased branches"
        );
        mix.correlated = fraction;
        let biased = 1.0 - non_biased;
        mix.biased_taken = biased * 0.62;
        mix.biased_not_taken = biased * 0.38;
        self
    }

    /// Sets the hot-set bias range.
    pub fn hot_bias(&mut self, low: f64, high: f64) -> &mut Self {
        self.spec.hot_bias = BiasRange { low, high };
        self
    }

    /// Sets how many global-history bits correlated branches depend
    /// on, and their noise rate.
    pub fn correlation(&mut self, bits: u32, noise: f64) -> &mut Self {
        self.spec.correlation_bits = bits;
        self.spec.correlation_noise = noise;
        self
    }

    /// Sets the fine behaviour tuning (loop trips, pattern lengths,
    /// correlated-function pool).
    pub fn tuning(&mut self, tuning: BehaviorTuning) -> &mut Self {
        self.spec.tuning = tuning;
        self
    }

    /// Sets the block-chain coherence (how deterministic the
    /// macro-level control flow is).
    pub fn sequence_coherence(&mut self, coherence: f64) -> &mut Self {
        self.spec.sequence_coherence = coherence;
        self
    }

    /// Sets the default trace length in conditional branches.
    pub fn dynamic_branches(&mut self, branches: usize) -> &mut Self {
        self.spec.dynamic_branches = branches;
        self
    }

    /// Sets the fraction of non-conditional transfer records.
    pub fn jump_fraction(&mut self, fraction: f64) -> &mut Self {
        self.spec.jump_fraction = fraction;
        self
    }

    /// The spec as configured so far.
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails
    /// [`BenchmarkSpec::validate`].
    pub fn spec(&self) -> BenchmarkSpec {
        self.spec.validate();
        self.spec.clone()
    }

    /// Materialises the workload model.
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails
    /// [`BenchmarkSpec::validate`].
    pub fn build(&self) -> WorkloadModel {
        WorkloadModel::from_spec(&self.spec)
    }
}

/// Derives paper-shaped coverage buckets from a static count: ~1%
/// of branches supply 50% of instances, ~10% supply 90%.
fn derive_coverage(statics: usize) -> CoverageBuckets {
    assert!(statics >= 8, "a workload needs at least 8 static branches");
    let first_50 = (statics / 100).max(1);
    let next_40 = (statics / 10).max(2);
    let next_9 = (statics * 3 / 10).max(2);
    let last_1 = statics - first_50 - next_40 - next_9;
    CoverageBuckets {
        first_50,
        next_40,
        next_9,
        last_1,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_build_a_valid_model() {
        let model = WorkloadBuilder::new("default").build();
        assert_eq!(model.name(), "default");
        assert_eq!(model.static_branches(), 5_000);
        let trace = model.scaled(5_000).trace(1);
        assert_eq!(trace.conditional_len(), 5_000);
    }

    #[test]
    fn static_branches_partition_into_buckets() {
        for statics in [8usize, 100, 1_000, 20_000] {
            let c = derive_coverage(statics);
            assert_eq!(c.total(), statics, "{statics}");
            assert!(c.first_50 >= 1);
        }
    }

    #[test]
    fn correlated_fraction_keeps_mix_normalised() {
        let mut b = WorkloadBuilder::new("x");
        b.correlated_fraction(0.5);
        let spec = b.spec();
        let sum = spec.hot_mix.biased_taken
            + spec.hot_mix.biased_not_taken
            + spec.hot_mix.loops
            + spec.hot_mix.patterns
            + spec.hot_mix.correlated;
        assert!((sum - 1.0).abs() < 1e-9);
        assert!((spec.hot_mix.correlated - 0.5).abs() < 1e-12);
    }

    #[test]
    fn chained_configuration_applies() {
        let mut b = WorkloadBuilder::new("chained");
        b.static_branches(500)
            .hot_bias(0.8, 0.95)
            .correlation(8, 0.01)
            .sequence_coherence(0.9)
            .dynamic_branches(10_000)
            .jump_fraction(0.0);
        let spec = b.spec();
        assert_eq!(spec.static_branches(), 500);
        assert_eq!(spec.correlation_bits, 8);
        assert_eq!(spec.dynamic_branches, 10_000);
        let trace = b.build().trace(2);
        assert_eq!(trace.len(), trace.conditional_len()); // no jumps
    }

    #[test]
    fn different_names_produce_different_programs() {
        let a = WorkloadBuilder::new("alpha").build();
        let b = WorkloadBuilder::new("beta").build();
        assert_ne!(a.branches().next(), b.branches().next());
    }

    #[test]
    #[should_panic(expected = "no room for biased")]
    fn over_allocated_mix_panics() {
        WorkloadBuilder::new("x").correlated_fraction(0.9);
    }

    #[test]
    #[should_panic(expected = "at least 8 static branches")]
    fn tiny_program_panics() {
        WorkloadBuilder::new("x").static_branches(3);
    }
}

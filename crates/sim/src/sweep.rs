//! Parallel configuration sweeps.
//!
//! The paper's figures each come from tens of simulations of the same
//! trace under different predictor configurations. [`run_configs`]
//! executes a batch in parallel; results come back in input order.
//! Since the batched-replay rework it accepts any [`TraceSource`] and
//! routes through [`run_batched`], so a sweep makes
//! one streaming pass per predictor shard instead of one full replay
//! per configuration.

use bpred_core::{BranchPredictor, PredictorConfig, SchemeVisitor};
use bpred_trace::{Trace, TraceSource};

use crate::batch::{run_batched, DEFAULT_SHARD_SIZE};
use crate::{ReplayCore, SimResult, Simulator};

/// Simulates every configuration against `source` in parallel,
/// returning results in the same order as `configs`.
///
/// This is the batched single-pass engine: shards of
/// [`DEFAULT_SHARD_SIZE`] predictors advance together through one
/// stream of the source. Results are bit-identical to running each
/// configuration alone (see `tests/determinism.rs`).
///
/// # Examples
///
/// ```
/// use bpred_core::PredictorConfig;
/// use bpred_sim::run_configs;
/// use bpred_trace::{BranchRecord, Outcome, Trace};
///
/// let trace: Trace = (0..200)
///     .map(|i| BranchRecord::conditional(0x40 + 4 * (i % 8), 0x20, Outcome::from(i % 3 == 0)))
///     .collect();
/// let configs = vec![
///     PredictorConfig::AddressIndexed { addr_bits: 4 },
///     PredictorConfig::Gshare { history_bits: 4, col_bits: 2 },
/// ];
/// let results = run_configs(&configs, &trace, Simulator::new());
/// # use bpred_sim::Simulator;
/// assert_eq!(results.len(), 2);
/// assert!(results[0].predictor.starts_with("address-indexed"));
/// ```
pub fn run_configs<S>(
    configs: &[PredictorConfig],
    source: &S,
    simulator: Simulator,
) -> Vec<SimResult>
where
    S: TraceSource + Sync + ?Sized,
{
    run_batched(configs, source, simulator, DEFAULT_SHARD_SIZE)
}

/// Simulates one configuration (convenience wrapper matching
/// [`run_configs`] semantics for a single point), replayed through the
/// configuration's concrete scheme with the record loop monomorphized.
pub fn run_config(config: PredictorConfig, trace: &Trace, simulator: Simulator) -> SimResult {
    struct Run<'a>(&'a Trace, Simulator);

    impl SchemeVisitor for Run<'_> {
        type Output = SimResult;

        fn visit<P: BranchPredictor + Send + 'static>(self, predictor: P) -> SimResult {
            let mut core = ReplayCore::new(predictor, self.1);
            core.replay(self.0);
            core.finish()
        }
    }

    config.visit(Run(trace, simulator))
}

#[cfg(test)]
mod tests {
    use super::*;
    use bpred_trace::{BranchRecord, Outcome};

    fn trace(n: usize) -> Trace {
        (0..n)
            .map(|i| {
                BranchRecord::conditional(
                    0x400 + 4 * (i as u64 % 32),
                    0x100,
                    Outcome::from(i % 7 < 4),
                )
            })
            .collect()
    }

    #[test]
    fn results_preserve_config_order() {
        let configs: Vec<PredictorConfig> = (0..12)
            .map(|n| PredictorConfig::AddressIndexed { addr_bits: n })
            .collect();
        let results = run_configs(&configs, &trace(500), Simulator::new());
        assert_eq!(results.len(), 12);
        for (cfg, r) in configs.iter().zip(&results) {
            assert_eq!(r.predictor, cfg.build().name());
        }
    }

    #[test]
    fn parallel_matches_sequential() {
        let configs = vec![
            PredictorConfig::Gshare {
                history_bits: 6,
                col_bits: 2,
            },
            PredictorConfig::Gas {
                history_bits: 4,
                col_bits: 4,
            },
            PredictorConfig::PasInfinite {
                history_bits: 5,
                col_bits: 1,
            },
        ];
        let t = trace(2_000);
        let parallel = run_configs(&configs, &t, Simulator::new());
        for (cfg, par) in configs.iter().zip(&parallel) {
            let seq = run_config(*cfg, &t, Simulator::new());
            assert_eq!(&seq, par, "{cfg}");
        }
    }

    #[test]
    fn batched_matches_the_scalar_oracle_per_config() {
        let configs: Vec<PredictorConfig> = (2..8)
            .map(|n| PredictorConfig::Gshare {
                history_bits: n,
                col_bits: 2,
            })
            .collect();
        let t = trace(1_500);
        let oracle: Vec<SimResult> = configs
            .iter()
            .map(|config| run_config(*config, &t, Simulator::new()))
            .collect();
        assert_eq!(oracle, run_configs(&configs, &t, Simulator::new()));
    }

    #[test]
    fn empty_config_list_is_empty_result() {
        assert!(run_configs(&[], &trace(10), Simulator::new()).is_empty());
    }

    #[test]
    fn simulator_options_are_honoured() {
        let configs = vec![PredictorConfig::AlwaysTaken];
        let r = run_configs(&configs, &trace(100), Simulator::with_warmup(40));
        assert_eq!(r[0].conditionals, 60);
    }
}

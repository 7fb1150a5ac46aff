//! Observer-layer guarantees of the shared replay core.
//!
//! Every measurement concern in `bpred::sim` (per-branch attribution,
//! interference classification) attaches to the one `ReplayCore` feed
//! path as an `Observer`. Observers see the predictor only through a
//! shared borrow, so attaching them must never change the aggregate
//! result — and the per-branch attribution must partition it exactly.
//! These tests enforce both properties for every `PredictorConfig`
//! variant and, via proptest, across randomised traces, warmups, and
//! observer stacks.

use proptest::prelude::*;

use bpred::core::PredictorConfig;
use bpred::sim::{
    interference, scalar_lane, BranchProfiler, InterferenceObserver, ProfiledRun, ReplayCore,
    SimResult, Simulator,
};
use bpred::trace::{BranchRecord, Outcome, Trace, TraceChunk, TraceSource};

/// One configuration of every `PredictorConfig` variant (mirrors the
/// determinism harness).
fn every_variant() -> Vec<PredictorConfig> {
    vec![
        PredictorConfig::AlwaysTaken,
        PredictorConfig::AlwaysNotTaken,
        PredictorConfig::Btfn,
        PredictorConfig::LastTime { addr_bits: 6 },
        PredictorConfig::AddressIndexed { addr_bits: 6 },
        PredictorConfig::Gas {
            history_bits: 6,
            col_bits: 2,
        },
        PredictorConfig::Gshare {
            history_bits: 7,
            col_bits: 2,
        },
        PredictorConfig::Path {
            row_bits: 6,
            col_bits: 2,
            bits_per_target: 3,
        },
        PredictorConfig::PasInfinite {
            history_bits: 5,
            col_bits: 2,
        },
        PredictorConfig::PasFinite {
            history_bits: 5,
            col_bits: 2,
            entries: 64,
            ways: 2,
        },
        PredictorConfig::Tournament {
            addr_bits: 6,
            history_bits: 6,
            chooser_bits: 6,
        },
        PredictorConfig::Sas {
            history_bits: 5,
            set_bits: 3,
            col_bits: 2,
        },
        PredictorConfig::Agree {
            history_bits: 6,
            index_bits: 8,
        },
        PredictorConfig::BiMode {
            history_bits: 6,
            direction_bits: 7,
            choice_bits: 7,
        },
        PredictorConfig::Gskew {
            history_bits: 6,
            bank_bits: 7,
        },
        PredictorConfig::Yags {
            choice_bits: 7,
            cache_bits: 6,
            tag_bits: 6,
        },
    ]
}

/// A mixed trace with enough branch reuse to exercise aliasing and a
/// sprinkling of unconditional transfers for path-history schemes.
fn mixed_trace(n: usize) -> Trace {
    let mut t = Trace::new();
    for i in 0..n {
        if i % 11 == 10 {
            t.push(BranchRecord::jump(
                0x1000 + 4 * (i as u64 % 16),
                0x2000 + 8 * (i as u64 % 5),
            ));
        } else {
            t.push(BranchRecord::conditional(
                0x400 + 4 * (i as u64 % 24),
                0x100,
                Outcome::from((i * 7) % 13 < 6),
            ));
        }
    }
    t
}

/// Runs `config` with a full observer stack attached and returns the
/// aggregate result plus the profiler that watched it.
fn observed_run(
    config: &PredictorConfig,
    trace: &Trace,
    simulator: Simulator,
) -> (SimResult, BranchProfiler) {
    let mut core = ReplayCore::new(config.build(), simulator);
    let mut profiler = BranchProfiler::new();
    let mut interference = InterferenceObserver::for_predictor(core.predictor());
    core.replay_observed(trace, &mut (&mut profiler, &mut interference));
    (core.finish(), profiler)
}

#[test]
fn observers_are_inert_for_every_variant() {
    let trace = mixed_trace(4_000);
    for simulator in [Simulator::new(), Simulator::with_warmup(500)] {
        for config in every_variant() {
            let plain = simulator.run(&mut config.build(), &trace);
            let (observed, _) = observed_run(&config, &trace, simulator);
            assert_eq!(plain, observed, "{config} with observers attached");
        }
    }
}

#[test]
fn hoisted_dispatch_matches_per_record_dispatch_for_every_variant() {
    // A scalar lane resolves the scheme once, at build, and feeds each
    // chunk through one virtual call; `Simulator::run` over `build()`
    // dispatches through the box per record. Same bit-stream, same
    // result at every chunk length — including when the lane resumes a
    // core that has already consumed records.
    let trace = mixed_trace(4_000);
    let twice: Trace = trace.iter().chain(trace.iter()).copied().collect();
    for simulator in [Simulator::new(), Simulator::with_warmup(500)] {
        for config in every_variant() {
            let per_record = simulator.run(&mut config.build(), &trace);
            let per_record_twice = simulator.run(&mut config.build(), &twice);
            for len in [1, 7, 4096, trace.len()] {
                let chunks: Vec<TraceChunk> = trace.chunks(len).collect();
                let mut hoisted = scalar_lane(&config, simulator);
                for chunk in &chunks {
                    hoisted.feed_chunk(chunk);
                }
                assert_eq!(per_record, hoisted.finish(), "{config} in chunks of {len}");

                let mut resumed = scalar_lane(&config, simulator);
                for chunk in chunks.iter().chain(&chunks) {
                    resumed.feed_chunk(chunk);
                }
                assert_eq!(
                    per_record_twice,
                    resumed.finish(),
                    "{config} resumed in chunks of {len}"
                );
            }
        }
    }
}

#[test]
fn profiler_partitions_the_aggregate_for_every_variant() {
    let trace = mixed_trace(4_000);
    for simulator in [Simulator::new(), Simulator::with_warmup(500)] {
        for config in every_variant() {
            let (aggregate, profiler) = observed_run(&config, &trace, simulator);
            let execs: u64 = profiler.counts().values().map(|c| c.executions).sum();
            let misses: u64 = profiler.counts().values().map(|c| c.mispredictions).sum();
            assert_eq!(execs, aggregate.conditionals, "{config}");
            assert_eq!(misses, aggregate.mispredictions, "{config}");
        }
    }
}

#[test]
fn profiled_run_totals_match_plain_simulation() {
    let trace = mixed_trace(3_000);
    for warmup in [0, 1, 999] {
        let simulator = Simulator::with_warmup(warmup);
        let plain = simulator.run(
            &mut PredictorConfig::Gshare {
                history_bits: 7,
                col_bits: 2,
            }
            .build(),
            &trace,
        );
        let profiled = ProfiledRun::run_with(
            &mut PredictorConfig::Gshare {
                history_bits: 7,
                col_bits: 2,
            }
            .build(),
            &trace,
            simulator,
        );
        assert_eq!(profiled.result, plain);
        let misses: u64 = profiled.iter().map(|(_, c)| c.mispredictions).sum();
        assert_eq!(misses, plain.mispredictions);
    }
}

#[test]
fn interference_classification_partitions_the_error() {
    let trace = mixed_trace(3_000);
    for config in every_variant() {
        let mut predictor = config.build();
        let stats = interference::classify(&mut predictor, &trace);
        let plain = Simulator::new().run(&mut config.build(), &trace);
        assert_eq!(stats.total(), plain.conditionals, "{config}");
        assert_eq!(
            stats.clean_incorrect + stats.conflict_incorrect,
            plain.mispredictions,
            "{config}"
        );
    }
}

/// Strategy: a trace of conditional branches over a small pc pool with
/// occasional jumps, so histories collide and paths shift.
fn arbitrary_trace() -> impl Strategy<Value = Trace> {
    proptest::collection::vec((0u64..24, any::<bool>(), 0u8..12), 1..400).prop_map(|records| {
        records
            .into_iter()
            .map(|(slot, taken, kind)| {
                if kind == 0 {
                    BranchRecord::jump(0x1000 + 4 * slot, 0x2000 + 8 * slot)
                } else {
                    BranchRecord::conditional(0x400 + 4 * slot, 0x100, Outcome::from(taken))
                }
            })
            .collect()
    })
}

fn arbitrary_config() -> impl Strategy<Value = PredictorConfig> {
    prop_oneof![
        Just(PredictorConfig::AlwaysTaken),
        (1u32..8, 0u32..3).prop_map(|(history_bits, col_bits)| PredictorConfig::Gshare {
            history_bits,
            col_bits,
        }),
        (1u32..8, 0u32..3).prop_map(|(history_bits, col_bits)| PredictorConfig::Gas {
            history_bits,
            col_bits,
        }),
        (0u32..6).prop_map(|addr_bits| PredictorConfig::AddressIndexed { addr_bits }),
        (1u32..6, 0u32..3).prop_map(|(history_bits, col_bits)| PredictorConfig::PasInfinite {
            history_bits,
            col_bits,
        }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Attaching the full observer stack never changes the aggregate,
    /// and the attribution partitions it exactly — for any trace,
    /// configuration, and warmup.
    #[test]
    fn observer_attachment_is_inert(
        trace in arbitrary_trace(),
        config in arbitrary_config(),
        warmup in 0usize..60,
    ) {
        let simulator = Simulator::with_warmup(warmup);
        let plain = simulator.run(&mut config.build(), &trace);
        let (observed, profiler) = observed_run(&config, &trace, simulator);
        prop_assert_eq!(&observed, &plain);
        let execs: u64 = profiler.counts().values().map(|c| c.executions).sum();
        let misses: u64 = profiler.counts().values().map(|c| c.mispredictions).sum();
        prop_assert_eq!(execs, plain.conditionals);
        prop_assert_eq!(misses, plain.mispredictions);
    }
}

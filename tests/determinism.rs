//! Determinism harness for the batched single-pass replay engine.
//!
//! The batched engine (`bpred::sim::run_batched`) promises results
//! *bit-identical* to the serial reference (`Simulator::run` once per
//! configuration). These tests enforce that promise for every
//! [`PredictorConfig`] variant, for the acceptance-sized sweep
//! (32 configurations over a 120k-branch trace), and across repeated
//! same-seed runs.

use proptest::prelude::*;

use bpred::core::PredictorConfig;
use bpred::sim::{run_batched, run_batched_chunked, run_configs, Simulator};
use bpred::trace::{BranchKind, BranchRecord, Outcome, Trace};
use bpred::workloads::{suite, WorkloadSource};

/// One configuration of every `PredictorConfig` variant, sized so each
/// exercises warmup, aliasing, and (where present) first-level BHT
/// statistics on a modest trace.
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

/// The acceptance sweep: 32 configurations mixing four schemes over a
/// range of sizes.
fn acceptance_configs() -> Vec<PredictorConfig> {
    (2..10u32)
        .flat_map(|history_bits| {
            [
                PredictorConfig::Gas {
                    history_bits,
                    col_bits: 3,
                },
                PredictorConfig::Gshare {
                    history_bits,
                    col_bits: 3,
                },
                PredictorConfig::PasInfinite {
                    history_bits,
                    col_bits: 2,
                },
                PredictorConfig::AddressIndexed {
                    addr_bits: history_bits + 3,
                },
            ]
        })
        .collect()
}

/// Serial reference: `Simulator::run` per configuration, nothing
/// shared between runs.
fn serial_reference(
    configs: &[PredictorConfig],
    trace: &Trace,
    simulator: Simulator,
) -> Vec<bpred::sim::SimResult> {
    configs
        .iter()
        .map(|config| simulator.run(&mut config.build(), trace))
        .collect()
}

#[test]
fn every_variant_matches_serial_exactly() {
    let trace = suite::espresso().scaled(8_000).trace(1996);
    let configs = every_variant();
    let serial = serial_reference(&configs, &trace, Simulator::new());
    for shard_size in [1, 3, 8, configs.len()] {
        let batched = run_batched(&configs, &trace, Simulator::new(), shard_size);
        assert_eq!(serial, batched, "shard size {shard_size}");
    }
}

#[test]
fn every_variant_matches_serial_with_warmup() {
    let trace = suite::mpeg_play().scaled(6_000).trace(7);
    let configs = every_variant();
    let simulator = Simulator::with_warmup(1_000);
    let serial = serial_reference(&configs, &trace, simulator);
    let batched = run_batched(&configs, &trace, simulator, 5);
    assert_eq!(serial, batched);
}

#[test]
fn acceptance_sweep_32_configs_120k_branches_is_bit_identical() {
    let model = suite::espresso().scaled(120_000);
    let trace = model.trace(2);
    assert!(trace.conditional_len() >= 120_000);
    let configs = acceptance_configs();
    assert_eq!(configs.len(), 32);

    let serial = serial_reference(&configs, &trace, Simulator::new());
    let batched = run_configs(&configs, &trace, Simulator::new());
    assert_eq!(serial, batched);

    // The streaming path (no materialised trace) agrees too.
    let source = WorkloadSource::new(model, 2);
    let streamed = run_configs(&configs, &source, Simulator::new());
    assert_eq!(serial, streamed);
}

#[test]
fn same_seed_runs_are_bit_identical() {
    let configs = every_variant();
    let source = WorkloadSource::new(suite::real_gcc().scaled(10_000), 3);
    let first = run_configs(&configs, &source, Simulator::new());
    let second = run_configs(&configs, &source, Simulator::new());
    assert_eq!(first, second);
}

#[test]
fn chunk_boundary_sizes_are_bit_identical_to_serial() {
    // The edge chunk lengths: single-record chunks, a length coprime
    // to everything, and the off-by-one straddles of the trace length.
    let trace = suite::mpeg_play().scaled(3_000).trace(11);
    let len = trace.len();
    let configs = every_variant();
    let serial = serial_reference(&configs, &trace, Simulator::new());
    for chunk_len in [1, 7, len - 1, len, len + 1] {
        let chunked = run_batched_chunked(&configs, &trace, Simulator::new(), 8, chunk_len);
        assert_eq!(serial, chunked, "chunk_len {chunk_len}");
    }
}

#[test]
fn warmup_boundary_mid_chunk_is_bit_identical_to_serial() {
    // Warmup ends inside a chunk (not on a boundary): record 1_000 of
    // 3_000 with 256-record chunks lands 232 records into chunk 3.
    let trace = suite::espresso().scaled(3_000).trace(5);
    let configs = every_variant();
    let simulator = Simulator::with_warmup(1_000);
    let serial = serial_reference(&configs, &trace, simulator);
    for chunk_len in [256, 999, 1_001] {
        let chunked = run_batched_chunked(&configs, &trace, simulator, 4, chunk_len);
        assert_eq!(serial, chunked, "chunk_len {chunk_len}");
    }
}

/// A small pool of branch addresses so random traces still alias.
fn arb_record() -> impl Strategy<Value = BranchRecord> {
    (
        0u64..24,
        0u64..8,
        prop::sample::select(vec![
            BranchKind::Conditional,
            BranchKind::Conditional,
            BranchKind::Conditional,
            BranchKind::Unconditional,
            BranchKind::Call,
            BranchKind::Return,
            BranchKind::Indirect,
        ]),
        any::<bool>(),
    )
        .prop_map(|(pc_idx, target_idx, kind, taken)| {
            BranchRecord::new(
                0x1000 + 4 * pc_idx,
                0x2000 + 4 * target_idx,
                kind,
                Outcome::from(taken),
            )
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any trace, any chunk length, any warmup: the chunked engine is
    /// bit-identical to the serial reference — including warmups that
    /// end mid-chunk and chunk lengths that straddle the trace length.
    #[test]
    fn chunked_replay_matches_serial_on_arbitrary_traces(
        records in prop::collection::vec(arb_record(), 1..200),
        chunk_extra in 0usize..4,
        warmup in 0usize..150,
    ) {
        let trace: Trace = records.into_iter().collect();
        let len = trace.len();
        let configs = [
            PredictorConfig::Gshare { history_bits: 5, col_bits: 2 },
            PredictorConfig::PasFinite { history_bits: 4, col_bits: 2, entries: 8, ways: 2 },
            PredictorConfig::Tournament { addr_bits: 4, history_bits: 4, chooser_bits: 4 },
        ];
        let simulator = Simulator::with_warmup(warmup);
        let serial = serial_reference(&configs, &trace, simulator);
        for chunk_len in [1, 7, len.max(2) - 1, len, len + 1, len + chunk_extra] {
            if chunk_len == 0 {
                continue;
            }
            let chunked = run_batched_chunked(&configs, &trace, simulator, 2, chunk_len);
            prop_assert_eq!(&serial, &chunked, "chunk_len {}", chunk_len);
        }
    }
}

#[test]
fn streaming_source_equals_materialised_trace() {
    let model = suite::sdet().scaled(9_000);
    let source = WorkloadSource::new(model.clone(), 41);
    let trace = model.trace(41);
    let configs = every_variant();
    assert_eq!(
        run_configs(&configs, &source, Simulator::new()),
        run_configs(&configs, &trace, Simulator::new()),
    );
}

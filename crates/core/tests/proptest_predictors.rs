//! Property tests: predictor state machines, structural equivalences
//! between schemes, and accounting invariants, over arbitrary branch
//! streams.

use proptest::prelude::*;

use bpred_core::{
    AddressIndexed, BranchPredictor, CounterState, Gas, Gshare, HistoryRegister, Pas,
    PredictorConfig, SaturatingCounter, TableGeometry, TwoBitCounter,
};
use bpred_trace::Outcome;

/// An arbitrary short branch stream: (pc index into a small text
/// segment, outcome) pairs.
fn arb_stream() -> impl Strategy<Value = Vec<(u64, bool)>> {
    prop::collection::vec((0u64..64, any::<bool>()), 1..400)
}

fn drive<P: BranchPredictor>(p: &mut P, stream: &[(u64, bool)]) -> Vec<Outcome> {
    stream
        .iter()
        .map(|&(slot, taken)| {
            let pc = 0x1000 + 4 * slot;
            let target = 0x2000 + 4 * slot;
            let predicted = p.predict(pc, target);
            p.update(pc, target, Outcome::from(taken));
            predicted
        })
        .collect()
}

proptest! {
    #[test]
    fn two_bit_counter_never_leaves_its_range(
        start in 0u8..4,
        outcomes in prop::collection::vec(any::<bool>(), 0..64),
    ) {
        let mut c = TwoBitCounter::new(CounterState::from_bits(start).unwrap());
        for taken in outcomes {
            let before = c.state().bits();
            c.train(Outcome::from(taken));
            let after = c.state().bits();
            prop_assert!(after <= 3);
            // Transitions move at most one step.
            prop_assert!((after as i8 - before as i8).abs() <= 1);
        }
    }

    #[test]
    fn saturating_counter_tracks_reference_model(
        bits in 1u32..=8,
        outcomes in prop::collection::vec(any::<bool>(), 0..128),
    ) {
        let max = (1u32 << bits) - 1;
        let mut reference = max / 2;
        let mut counter = SaturatingCounter::new(bits, reference);
        for taken in outcomes {
            if taken {
                reference = (reference + 1).min(max);
            } else {
                reference = reference.saturating_sub(1);
            }
            counter.train(Outcome::from(taken));
            prop_assert_eq!(counter.value(), reference);
        }
    }

    #[test]
    fn history_register_matches_bit_vector_model(
        width in 0u32..=24,
        outcomes in prop::collection::vec(any::<bool>(), 0..64),
    ) {
        let mut h = HistoryRegister::new(width);
        let mut model: Vec<bool> = Vec::new();
        for taken in outcomes {
            h.push(Outcome::from(taken));
            model.push(taken);
        }
        // Reconstruct the register from the last `width` outcomes.
        let mut expected = 0u64;
        for &taken in model.iter().rev().take(width as usize).collect::<Vec<_>>().iter().rev() {
            expected = (expected << 1) | u64::from(*taken);
        }
        prop_assert_eq!(h.bits(), expected);
        prop_assert_eq!(
            h.is_all_taken(),
            width > 0
                && model.len() >= width as usize
                && model.iter().rev().take(width as usize).all(|&t| t)
        );
    }

    #[test]
    fn geometry_index_is_in_bounds_and_injective_on_masked_inputs(
        row_bits in 0u32..=8,
        col_bits in 0u32..=8,
        row in any::<u64>(),
        col in any::<u64>(),
    ) {
        let g = TableGeometry::new(row_bits, col_bits);
        let idx = g.index(row, col);
        prop_assert!(idx < g.counters() as usize);
        // Masked coordinates round-trip through the index.
        let row_m = row & (g.rows() - 1);
        let col_m = col & (g.cols() - 1);
        prop_assert_eq!(idx as u64, (row_m << col_bits) | col_m);
    }

    #[test]
    fn predictors_are_deterministic(stream in arb_stream()) {
        for config in [
            PredictorConfig::AddressIndexed { addr_bits: 4 },
            PredictorConfig::Gshare { history_bits: 5, col_bits: 2 },
            PredictorConfig::PasFinite { history_bits: 4, col_bits: 1, entries: 16, ways: 2 },
            PredictorConfig::Path { row_bits: 5, col_bits: 2, bits_per_target: 2 },
            PredictorConfig::Tournament { addr_bits: 4, history_bits: 4, chooser_bits: 4 },
        ] {
            let a = drive(&mut config.build(), &stream);
            let b = drive(&mut config.build(), &stream);
            prop_assert_eq!(a, b, "{} not deterministic", config);
        }
    }

    #[test]
    fn gas_with_zero_history_equals_address_indexed(stream in arb_stream()) {
        let mut gas = Gas::new(0, 5);
        let mut addr = AddressIndexed::new(5);
        prop_assert_eq!(drive(&mut gas, &stream), drive(&mut addr, &stream));
    }

    #[test]
    fn gshare_with_zero_history_equals_address_indexed(stream in arb_stream()) {
        let mut gshare = Gshare::new(0, 5);
        let mut addr = AddressIndexed::new(5);
        prop_assert_eq!(drive(&mut gshare, &stream), drive(&mut addr, &stream));
    }

    #[test]
    fn gshare_single_column_equals_gas_when_address_bits_vanish(stream in arb_stream()) {
        // With every branch at the same row-address bits (all pcs here
        // share pc>>2 upper bits only when column field consumes the
        // varying bits), gshare == GAs XORed by a constant... instead
        // test the stronger structural fact: one branch only.
        let single: Vec<(u64, bool)> = stream.iter().map(|&(_, t)| (0, t)).collect();
        let mut gshare = Gshare::new(6, 0);
        let mut gas = Gas::new(6, 0);
        prop_assert_eq!(drive(&mut gshare, &single), drive(&mut gas, &single));
    }

    #[test]
    fn pas_perfect_equals_oversized_finite_bht(stream in arb_stream()) {
        let mut ideal = Pas::perfect(5, 2);
        let mut big = Pas::with_bht(5, 2, 1024, 4);
        prop_assert_eq!(drive(&mut ideal, &stream), drive(&mut big, &stream));
    }

    #[test]
    fn alias_accounting_invariants(stream in arb_stream()) {
        let mut p = Gas::new(4, 2);
        let _ = drive(&mut p, &stream);
        let alias = BranchPredictor::alias_stats(&p).expect("tracked");
        prop_assert_eq!(alias.accesses, stream.len() as u64);
        prop_assert!(alias.conflicts <= alias.accesses);
        prop_assert!(alias.harmless_conflicts <= alias.conflicts);
    }

    #[test]
    fn bht_accounting_invariants(stream in arb_stream()) {
        let mut p = Pas::with_bht(4, 0, 16, 2);
        let _ = drive(&mut p, &stream);
        let bht = p.first_level_stats();
        prop_assert_eq!(bht.accesses, stream.len() as u64);
        prop_assert!(bht.misses <= bht.accesses);
        // At most one cold miss per distinct branch plus conflicts; at
        // least one miss if anything ran.
        prop_assert!(bht.misses >= 1);
    }

    #[test]
    fn mispredictions_never_exceed_stream_length(stream in arb_stream()) {
        let mut p = Gshare::new(4, 2);
        let predictions = drive(&mut p, &stream);
        let wrong = predictions
            .iter()
            .zip(&stream)
            .filter(|(pred, (_, taken))| pred.is_taken() != *taken)
            .count();
        prop_assert!(wrong <= stream.len());
    }

    #[test]
    fn config_strings_round_trip(
        h in 0u32..=14,
        c in 0u32..=6,
        entries_log in 4u32..=12,
        ways in prop::sample::select(vec![1u32, 2, 4, 8]),
    ) {
        let configs = [
            PredictorConfig::Gas { history_bits: h, col_bits: c },
            PredictorConfig::Gshare { history_bits: h, col_bits: c },
            PredictorConfig::PasInfinite { history_bits: h, col_bits: c },
            PredictorConfig::PasFinite {
                history_bits: h,
                col_bits: c,
                entries: 1 << entries_log,
                ways,
            },
        ];
        for config in configs {
            let text = config.to_string();
            let parsed: PredictorConfig = text.parse().expect("parse own display");
            prop_assert_eq!(parsed, config);
        }
    }

    #[test]
    fn state_bits_match_geometry(
        row_bits in 0u32..=10,
        col_bits in 0u32..=6,
    ) {
        let gas = Gas::new(row_bits, col_bits);
        prop_assert_eq!(
            gas.state_bits(),
            2 * (1u64 << (row_bits + col_bits)) + u64::from(row_bits)
        );
    }
}

mod reference_models {
    use proptest::prelude::*;
    use std::collections::HashMap;

    use bpred_core::{HistoryTable, SetAssocBht};
    use bpred_trace::Outcome;

    proptest! {
        /// A fully associative SetAssocBht (ways == entries) with more
        /// entries than distinct branches behaves exactly like a
        /// dictionary of shift registers.
        #[test]
        fn fully_associative_bht_matches_dictionary(
            ops in prop::collection::vec((0u64..24, any::<bool>()), 1..300),
        ) {
            let mut bht = SetAssocBht::new(32, 32, 6);
            let mut model: HashMap<u64, u64> = HashMap::new();
            for (slot, taken) in ops {
                let pc = 0x100 + 4 * slot;
                let got = bht.lookup(pc);
                let entry = model
                    .entry(pc)
                    .or_insert_with(|| bpred_core::reset_pattern(6));
                prop_assert_eq!(got, *entry);
                bht.record(pc, Outcome::from(taken));
                *entry = ((*entry << 1) | u64::from(taken)) & 0x3F;
            }
            // Cold misses only: one per distinct branch.
            prop_assert_eq!(bht.stats().misses as usize, model.len());
        }
    }
}

//! Property tests: calibration and structural invariants of the
//! workload machinery over arbitrary parameters.

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;

use bpred_trace::stats::CoverageBuckets;
use bpred_workloads::{bucket_weights, suite, AliasTable, TextLayout};

proptest! {
    #[test]
    fn bucket_weights_hit_their_masses(
        first in 1usize..40,
        next40 in 1usize..200,
        next9 in 1usize..400,
        last in 1usize..800,
    ) {
        let buckets = CoverageBuckets {
            first_50: first,
            next_40: next40,
            next_9: next9,
            last_1: last,
        };
        let w = bucket_weights(&buckets);
        prop_assert_eq!(w.len(), buckets.total());
        prop_assert!(w.iter().all(|&x| x > 0.0));
        let sum: f64 = w.iter().sum();
        prop_assert!((sum - 1.0).abs() < 1e-9);
        let head: f64 = w[..first].iter().sum();
        prop_assert!((head - 0.5).abs() < 1e-9, "head mass {head}");
        let to90: f64 = w[..first + next40].iter().sum();
        prop_assert!((to90 - 0.9).abs() < 1e-9, "90% mass {to90}");
    }

    #[test]
    fn bucket_weights_are_heaviest_first_across_buckets(
        first in 1usize..20,
        next40 in 1usize..60,
    ) {
        // The lightest branch of the 50%-bucket must outweigh the
        // heaviest of the 40%-bucket whenever per-branch mass says so;
        // at minimum, weights within each bucket are non-increasing.
        let buckets = CoverageBuckets {
            first_50: first,
            next_40: next40,
            next_9: 1,
            last_1: 1,
        };
        let w = bucket_weights(&buckets);
        prop_assert!(w[..first].windows(2).all(|p| p[0] >= p[1]));
        prop_assert!(w[first..first + next40].windows(2).all(|p| p[0] >= p[1]));
    }

    #[test]
    fn alias_table_samples_in_bounds(
        weights in prop::collection::vec(0.0f64..10.0, 1..100),
        seed in any::<u64>(),
    ) {
        prop_assume!(weights.iter().sum::<f64>() > 0.0);
        let table = AliasTable::new(&weights);
        let mut rng = SmallRng::seed_from_u64(seed);
        for _ in 0..200 {
            let idx = table.sample(&mut rng);
            prop_assert!(idx < weights.len());
            prop_assert!(weights[idx] > 0.0, "sampled zero-weight index {idx}");
        }
    }

    #[test]
    fn layout_addresses_are_unique_and_aligned(n in 1usize..2000, seed in any::<u64>()) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let layout = TextLayout::generate(n, &mut rng);
        prop_assert_eq!(layout.branch_pcs().len(), n);
        let mut pcs: Vec<u64> = layout.branch_pcs().to_vec();
        pcs.sort_unstable();
        pcs.dedup();
        prop_assert_eq!(pcs.len(), n, "duplicate branch addresses");
        prop_assert!(layout.branch_pcs().iter().all(|pc| pc % 4 == 0));
    }

    #[test]
    fn traces_are_seed_deterministic(seed in any::<u64>(), len in 100usize..2000) {
        let model = suite::compress().scaled(len);
        prop_assert_eq!(model.trace(seed), model.trace(seed));
        prop_assert_eq!(model.trace(seed).conditional_len(), len);
    }

    #[test]
    fn different_seeds_usually_differ(seed in any::<u64>()) {
        let model = suite::compress().scaled(500);
        prop_assert_ne!(model.trace(seed), model.trace(seed.wrapping_add(1)));
    }

    #[test]
    fn all_emitted_pcs_belong_to_the_program(seed in any::<u64>()) {
        let model = suite::xlisp().scaled(1_000);
        let valid: std::collections::HashSet<u64> =
            model.branches().map(|b| b.pc).collect();
        for r in model.trace(seed).iter().filter(|r| r.is_conditional()) {
            prop_assert!(valid.contains(&r.pc));
        }
    }
}

mod cfg_properties {
    use proptest::prelude::*;

    use bpred_workloads::{CfgConfig, CfgProgram, Terminator};

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Generated programs are structurally sound for any seed and
        /// a range of shapes.
        #[test]
        fn cfg_structure_is_sound(
            seed in any::<u64>(),
            functions in 1usize..12,
            variables in 1u8..24,
        ) {
            let program = CfgProgram::generate(
                CfgConfig {
                    functions,
                    variables,
                    ..CfgConfig::default()
                },
                seed,
            );
            let n = program.blocks().len();
            prop_assert_eq!(program.entries().len(), functions);
            for block in program.blocks() {
                match block.terminator {
                    Terminator::Cond { taken, fall, .. } => {
                        prop_assert!(taken < n && fall < n);
                    }
                    Terminator::Jump { to } => prop_assert!(to < n),
                    Terminator::Call { callee, resume } => {
                        prop_assert!(callee < n && resume < n);
                        prop_assert!(program.entries().contains(&callee));
                    }
                    Terminator::Return | Terminator::Exit => {}
                }
            }
        }

        /// Execution always terminates with the requested number of
        /// conditionals, for any seed.
        #[test]
        fn cfg_traces_hit_their_length(seed in any::<u64>(), len in 1usize..3000) {
            let program = CfgProgram::generate(CfgConfig::default(), seed);
            let trace = program.trace(seed, len);
            prop_assert_eq!(trace.conditional_len(), len);
        }
    }
}

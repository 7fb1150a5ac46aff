//! Per-branch behaviour models.
//!
//! Each static branch in a synthetic program resolves according to one
//! of these behaviours. The taxonomy follows the branch populations the
//! paper discusses: the bulk of dynamic instances come from *highly
//! biased* branches ("loops, error and bounds checking, and other
//! routine conditionals", §2); loop-closing branches show periodic
//! self-history patterns that per-address schemes capture; and a
//! minority of branches are *correlated* — their outcome is a function
//! of recent global branch outcomes, the case two-level global schemes
//! were invented for (Pan/So/Rahmeh 1992).

use rand::RngCore;

use crate::sampling::{draw_below, threshold, UNIT};

/// Mixes the bits of `x` (splitmix64 finaliser). Deterministic hash used
/// to derive per-branch random boolean functions.
#[inline]
pub(crate) fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// How a static branch resolves each time it executes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum BranchBehavior {
    /// Bernoulli branch taken with probability `taken_prob`,
    /// independently each execution. `taken_prob` near 0 or 1 models
    /// the highly biased checks that dominate large programs.
    Biased {
        /// Probability the branch is taken.
        taken_prob: f64,
    },
    /// Loop-closing branch: taken `trip_count - 1` times, then not
    /// taken once, repeating. Perfectly predictable from
    /// `trip_count`-deep self-history.
    Loop {
        /// Loop trip count (≥ 1); a trip count of 1 never takes.
        trip_count: u32,
    },
    /// Periodic branch cycling through a fixed outcome pattern (bit 0
    /// first; `length` ≤ 64 bits). Generalises [`BranchBehavior::Loop`]
    /// to arbitrary short patterns.
    Pattern {
        /// Outcome bits, bit i = outcome of phase i (1 = taken).
        bits: u64,
        /// Pattern period in bits.
        length: u32,
    },
    /// Correlated branch: outcome is a fixed (per-branch, seeded)
    /// boolean function of the last `history_bits` global branch
    /// outcomes, XOR-flipped with probability `noise`. Global-history
    /// predictors with at least `history_bits` of history (and a
    /// conflict-free counter) learn it; predictors that cannot see the
    /// correlation observe a branch whose taken rate is roughly
    /// `taken_weight` (the fraction of history patterns mapping to
    /// taken), like the `if (a && b)` tests of real code.
    Correlated {
        /// Per-branch function seed.
        seed: u64,
        /// Number of global history bits the outcome depends on.
        history_bits: u32,
        /// Probability an execution deviates from the function.
        noise: f64,
        /// Fraction of history patterns that map to taken.
        taken_weight: f64,
    },
}

impl BranchBehavior {
    /// Whether this behaviour benefits from backward (loop-shaped)
    /// branch targets.
    pub fn is_loop_shaped(&self) -> bool {
        matches!(self, BranchBehavior::Loop { .. })
    }

    /// Long-run taken rate of the behaviour (ignoring noise
    /// asymmetries; used for layout decisions and tests).
    pub fn expected_taken_rate(&self) -> f64 {
        match *self {
            BranchBehavior::Biased { taken_prob } => taken_prob,
            BranchBehavior::Loop { trip_count } => {
                (trip_count.saturating_sub(1)) as f64 / trip_count.max(1) as f64
            }
            BranchBehavior::Pattern { bits, length } => {
                if length == 0 {
                    0.0
                } else {
                    (bits & mask(length)).count_ones() as f64 / length as f64
                }
            }
            BranchBehavior::Correlated { taken_weight, .. } => taken_weight,
        }
    }
}

#[inline]
fn mask(bits: u32) -> u64 {
    match bits {
        0 => 0,
        64 => u64::MAX,
        b => (1u64 << b) - 1,
    }
}

/// A [`BranchBehavior`] compiled for the generator's step: loop and
/// pattern periods pre-clamped and every probability turned into an
/// exact 53-bit
/// [threshold], so resolving is integer
/// compares only (see the [`sampling`](crate::sampling) module for why
/// that is bit-identical to the float rule).
///
/// Loop and pattern branches keep their position in a per-stream
/// `phase` counter that the generator owns, one per static branch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Rule {
    /// Taken when a draw falls below `taken`.
    Biased { taken: u64 },
    /// Taken for phases `0..period - 1`, not taken at `period - 1`.
    Loop { period: u32 },
    /// Taken when bit `phase` of `bits` is set.
    Pattern { bits: u64, period: u32 },
    /// The seeded function of the last `history_bits` outcomes,
    /// flipped when a draw falls below `noise` (no draw at all when
    /// `noise` is zero).
    Correlated {
        seed: u64,
        taken: u64,
        noise: u64,
        history_bits: u32,
    },
}

impl Rule {
    /// Compiles a behaviour.
    pub(crate) fn compile(behavior: BranchBehavior) -> Rule {
        match behavior {
            BranchBehavior::Biased { taken_prob } => Rule::Biased {
                taken: threshold(taken_prob),
            },
            BranchBehavior::Loop { trip_count } => Rule::Loop {
                period: trip_count.max(1),
            },
            BranchBehavior::Pattern { bits, length } => Rule::Pattern {
                bits,
                period: length.clamp(1, 64),
            },
            BranchBehavior::Correlated {
                seed,
                history_bits,
                noise,
                taken_weight,
            } => Rule::Correlated {
                seed,
                taken: threshold(taken_weight),
                noise: threshold(noise),
                history_bits,
            },
        }
    }

    /// The behaviour this rule resolves as. Probabilities read back as
    /// their thresholds over 2⁵³ — the exact values the generator
    /// compares against, which compile back to the same rule — and
    /// periods as their clamped values.
    pub(crate) fn behavior(self) -> BranchBehavior {
        let unit = |t: u64| t as f64 / UNIT as f64;
        match self {
            Rule::Biased { taken } => BranchBehavior::Biased {
                taken_prob: unit(taken),
            },
            Rule::Loop { period } => BranchBehavior::Loop { trip_count: period },
            Rule::Pattern { bits, period } => BranchBehavior::Pattern {
                bits,
                length: period,
            },
            Rule::Correlated {
                seed,
                taken,
                noise,
                history_bits,
            } => BranchBehavior::Correlated {
                seed,
                history_bits,
                noise: unit(noise),
                taken_weight: unit(taken),
            },
        }
    }

    /// Whether this is a loop latch candidate.
    pub(crate) fn is_loop(self) -> bool {
        matches!(self, Rule::Loop { .. })
    }

    /// Resolves one execution: `true` for taken.
    ///
    /// `phase` is this branch's position counter; `global_history`
    /// holds the most recent conditional outcomes anywhere in the
    /// program (newest in bit 0), which correlated branches consume.
    /// Draws from `rng` exactly where the behaviour's definition
    /// does: one for a biased branch, one for a correlated branch with
    /// non-zero noise, none otherwise.
    #[inline(always)]
    pub(crate) fn resolve<R: RngCore + ?Sized>(
        self,
        phase: &mut u32,
        global_history: u64,
        rng: &mut R,
    ) -> bool {
        match self {
            Rule::Biased { taken } => draw_below(rng, taken),
            Rule::Loop { period } => {
                let taken = *phase + 1 < period;
                *phase = if *phase + 1 == period { 0 } else { *phase + 1 };
                taken
            }
            Rule::Pattern { bits, period } => {
                let taken = (bits >> *phase) & 1 == 1;
                *phase = if *phase + 1 == period { 0 } else { *phase + 1 };
                taken
            }
            Rule::Correlated {
                seed,
                taken,
                noise,
                history_bits,
            } => {
                // The (branch, pattern) pair hashed to a 53-bit value
                // and compared against the taken weight's threshold:
                // the expected fraction of taken-mapped patterns is
                // the weight, and each pattern's value is fixed.
                let pattern = global_history & mask(history_bits);
                let functional = (mix64(seed ^ pattern) >> 11) < taken;
                let flip = noise > 0 && draw_below(rng, noise);
                functional ^ flip
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bpred_trace::Outcome;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn run(behavior: BranchBehavior, n: usize, history: impl Fn(usize) -> u64) -> Vec<Outcome> {
        let mut rng = SmallRng::seed_from_u64(11);
        let rule = Rule::compile(behavior);
        let mut phase = 0;
        (0..n)
            .map(|i| Outcome::from(rule.resolve(&mut phase, history(i), &mut rng)))
            .collect()
    }

    /// Resolves one execution from a fresh phase.
    fn once(behavior: BranchBehavior, history: u64, rng: &mut SmallRng) -> Outcome {
        Outcome::from(Rule::compile(behavior).resolve(&mut 0, history, rng))
    }

    #[test]
    fn biased_branch_matches_probability() {
        let outcomes = run(BranchBehavior::Biased { taken_prob: 0.9 }, 20_000, |_| 0);
        let rate = outcomes.iter().filter(|o| o.is_taken()).count() as f64 / 20_000.0;
        assert!((rate - 0.9).abs() < 0.01, "{rate}");
    }

    #[test]
    fn biased_extremes_are_deterministic() {
        assert!(run(BranchBehavior::Biased { taken_prob: 1.0 }, 100, |_| 0)
            .iter()
            .all(|o| o.is_taken()));
        assert!(run(BranchBehavior::Biased { taken_prob: 0.0 }, 100, |_| 0)
            .iter()
            .all(|o| o.is_not_taken()));
    }

    #[test]
    fn loop_behavior_cycles() {
        let outcomes = run(BranchBehavior::Loop { trip_count: 4 }, 12, |_| 0);
        let expected = [true, true, true, false];
        for (i, o) in outcomes.iter().enumerate() {
            assert_eq!(o.is_taken(), expected[i % 4], "position {i}");
        }
    }

    #[test]
    fn degenerate_loop_never_takes() {
        assert!(run(BranchBehavior::Loop { trip_count: 1 }, 10, |_| 0)
            .iter()
            .all(|o| o.is_not_taken()));
    }

    #[test]
    fn pattern_behavior_repeats_bits() {
        let b = BranchBehavior::Pattern {
            bits: 0b0110,
            length: 4,
        };
        let outcomes = run(b, 8, |_| 0);
        let expected = [false, true, true, false];
        for (i, o) in outcomes.iter().enumerate() {
            assert_eq!(o.is_taken(), expected[i % 4], "position {i}");
        }
    }

    #[test]
    fn correlated_is_deterministic_function_of_history() {
        let b = BranchBehavior::Correlated {
            seed: 1234,
            history_bits: 4,
            noise: 0.0,
            taken_weight: 0.5,
        };
        // Same history pattern -> same outcome, regardless of RNG.
        let a = run(b, 50, |_| 0b1010);
        assert!(a.windows(2).all(|w| w[0] == w[1]));
        // Different patterns usually differ somewhere.
        let outcomes: Vec<Outcome> = (0..16u64)
            .map(|p| {
                let mut rng = SmallRng::seed_from_u64(0);
                once(b, p, &mut rng)
            })
            .collect();
        assert!(outcomes.iter().any(|o| o.is_taken()));
        assert!(outcomes.iter().any(|o| o.is_not_taken()));
    }

    #[test]
    fn correlated_ignores_history_beyond_its_bits() {
        let b = BranchBehavior::Correlated {
            seed: 77,
            history_bits: 3,
            noise: 0.0,
            taken_weight: 0.5,
        };
        let mut rng = SmallRng::seed_from_u64(5);
        let low = once(b, 0b101, &mut rng);
        let high = once(b, 0b101 | (0xFF << 3), &mut rng);
        assert_eq!(low, high);
    }

    #[test]
    fn correlated_noise_flips_sometimes() {
        let b = BranchBehavior::Correlated {
            seed: 9,
            history_bits: 2,
            noise: 0.3,
            taken_weight: 0.5,
        };
        let outcomes = run(b, 10_000, |_| 0b11);
        let taken = outcomes.iter().filter(|o| o.is_taken()).count() as f64 / 10_000.0;
        // Functional value is fixed; noise makes the minority direction
        // appear ~30% of the time.
        assert!((0.25..=0.75).contains(&taken), "{taken}");
        assert!(taken <= 0.35 || taken >= 0.65, "{taken}");
    }

    #[test]
    fn pattern_of_full_width_wraps_at_64() {
        let b = BranchBehavior::Pattern {
            bits: 1 << 63,
            length: 64,
        };
        let outcomes = run(b, 130, |_| 0);
        for (i, o) in outcomes.iter().enumerate() {
            assert_eq!(o.is_taken(), i % 64 == 63, "position {i}");
        }
    }

    #[test]
    fn compiled_rules_draw_exactly_where_the_definition_does() {
        // The float definition of each behaviour, written out once
        // here as the oracle for the compiled rule: same outcomes and
        // the same RNG position after every execution.
        fn reference(b: BranchBehavior, phase: &mut u32, history: u64, rng: &mut SmallRng) -> bool {
            match b {
                BranchBehavior::Biased { taken_prob } => rng.gen::<f64>() < taken_prob,
                BranchBehavior::Loop { trip_count } => {
                    let trip = trip_count.max(1);
                    let taken = *phase < trip - 1;
                    *phase = (*phase + 1) % trip;
                    taken
                }
                BranchBehavior::Pattern { bits, length } => {
                    let len = length.clamp(1, 64);
                    let taken = (bits >> *phase) & 1 == 1;
                    *phase = (*phase + 1) % len;
                    taken
                }
                BranchBehavior::Correlated {
                    seed,
                    history_bits,
                    noise,
                    taken_weight,
                } => {
                    let pattern = history & mask(history_bits);
                    let u = (mix64(seed ^ pattern) >> 11) as f64 / (1u64 << 53) as f64;
                    let flip = noise > 0.0 && rng.gen::<f64>() < noise;
                    (u < taken_weight) ^ flip
                }
            }
        }
        let behaviors = [
            BranchBehavior::Biased { taken_prob: 0.3 },
            BranchBehavior::Biased { taken_prob: 0.97 },
            BranchBehavior::Loop { trip_count: 0 },
            BranchBehavior::Loop { trip_count: 1 },
            BranchBehavior::Loop { trip_count: 7 },
            BranchBehavior::Pattern {
                bits: 0b1011,
                length: 0,
            },
            BranchBehavior::Pattern {
                bits: 0b1011_0110,
                length: 9,
            },
            BranchBehavior::Correlated {
                seed: 5,
                history_bits: 6,
                noise: 0.0,
                taken_weight: 0.4,
            },
            BranchBehavior::Correlated {
                seed: 6,
                history_bits: 64,
                noise: 0.05,
                taken_weight: 0.71,
            },
        ];
        for b in behaviors {
            let rule = Rule::compile(b);
            let (mut fast, mut slow) = (SmallRng::seed_from_u64(3), SmallRng::seed_from_u64(3));
            let (mut fast_phase, mut slow_phase) = (0, 0);
            for i in 0..500u64 {
                let history = mix64(i);
                assert_eq!(
                    rule.resolve(&mut fast_phase, history, &mut fast),
                    reference(b, &mut slow_phase, history, &mut slow),
                    "{b:?} execution {i}"
                );
                assert_eq!(fast_phase, slow_phase, "{b:?} execution {i}");
                assert_eq!(fast, slow, "{b:?} execution {i}");
            }
            // Reading the rule back and recompiling is the identity.
            assert_eq!(Rule::compile(rule.behavior()), rule, "{b:?}");
        }
    }

    #[test]
    fn expected_taken_rates() {
        assert_eq!(
            BranchBehavior::Biased { taken_prob: 0.7 }.expected_taken_rate(),
            0.7
        );
        assert_eq!(
            BranchBehavior::Loop { trip_count: 4 }.expected_taken_rate(),
            0.75
        );
        assert_eq!(
            BranchBehavior::Pattern {
                bits: 0b0110,
                length: 4
            }
            .expected_taken_rate(),
            0.5
        );
    }

    #[test]
    fn loop_shape_detection() {
        assert!(BranchBehavior::Loop { trip_count: 8 }.is_loop_shaped());
        assert!(!BranchBehavior::Biased { taken_prob: 0.5 }.is_loop_shaped());
    }

    #[test]
    fn mix64_is_stable_and_spreads() {
        assert_ne!(mix64(0), mix64(1));
        assert_eq!(mix64(12345), mix64(12345));
        // A weak avalanche check: flipping one bit changes many.
        let d = (mix64(42) ^ mix64(43)).count_ones();
        assert!(d > 16, "{d}");
    }
}

//! Weighted sampling utilities.
//!
//! Trace generation draws hundreds of thousands of branches from a
//! skewed frequency distribution; Walker's alias method gives O(1)
//! draws after O(n) setup.
//!
//! # Exact integer thresholds
//!
//! Every Bernoulli draw in the generator has the form
//! `rng.gen::<f64>() < p`, and `gen::<f64>()` is exactly
//! `(x >> 11) · 2⁻⁵³` for the next raw word `x`. For an integer
//! `u < 2⁵³`, `u · 2⁻⁵³ < p ⇔ u < p · 2⁵³ ⇔ u < ⌈p · 2⁵³⌉`, and
//! `p · 2⁵³` is exact in `f64` (a power-of-two scale), so
//! [`threshold`] compiles `p` once into an integer and [`draw_below`]
//! makes the same decision from the same single `next_u64` call with
//! one integer compare — bit-identical to the float rule for every
//! draw and every `p`, with no float work per record.

use rand::{Rng, RngCore};

/// `2⁵³`: the number of distinct values `gen::<f64>()` produces.
pub(crate) const UNIT: u64 = 1 << 53;

/// Compiles a probability into the integer threshold [`draw_below`]
/// compares against: `⌈p · 2⁵³⌉`, clamped to `[0, 2⁵³]` (so `p ≤ 0`
/// and NaN never fire, `p ≥ 1` always does). A threshold is zero
/// exactly when `p` is not positive, so `p > 0.0` tests become
/// `threshold > 0`.
pub(crate) fn threshold(p: f64) -> u64 {
    if p >= 1.0 {
        UNIT
    } else if p > 0.0 {
        // Exact: scaling by a power of two, then an integral ceil
        // below 2⁵³. NaN fails both tests above and lands on zero.
        (p * UNIT as f64).ceil() as u64
    } else {
        0
    }
}

/// One Bernoulli draw: `true` with probability `threshold / 2⁵³`,
/// consuming exactly one `next_u64` — the same decision as
/// `rng.gen::<f64>() < p` for `threshold == threshold(p)`.
#[inline(always)]
pub(crate) fn draw_below<R: RngCore + ?Sized>(rng: &mut R, threshold: u64) -> bool {
    (rng.next_u64() >> 11) < threshold
}

/// One cell of an [`AliasTable`]: keep the cell when a draw falls
/// below `accept`, otherwise take `alias`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Cell {
    accept: u64,
    alias: u32,
}

/// Walker alias table for O(1) weighted sampling of indices.
///
/// # Examples
///
/// ```
/// use bpred_workloads::AliasTable;
/// use rand::{rngs::SmallRng, SeedableRng};
///
/// let table = AliasTable::new(&[8.0, 1.0, 1.0]);
/// let mut rng = SmallRng::seed_from_u64(7);
/// let mut counts = [0u32; 3];
/// for _ in 0..10_000 {
///     counts[table.sample(&mut rng)] += 1;
/// }
/// assert!(counts[0] > 7_000); // ~80%
/// ```
#[derive(Debug, Clone)]
pub struct AliasTable {
    /// Acceptance threshold and fallback index per cell, side by side
    /// so one draw touches one cache line.
    cells: Vec<Cell>,
}

impl AliasTable {
    /// Builds a table from non-negative weights (not necessarily
    /// normalised).
    ///
    /// # Panics
    ///
    /// Panics if `weights` is empty, contains a negative or non-finite
    /// value, sums to zero, or has more than `u32::MAX` entries.
    pub fn new(weights: &[f64]) -> Self {
        let (prob, alias) = float_cells(weights);
        let cells = prob
            .iter()
            .zip(&alias)
            .map(|(&p, &a)| Cell {
                accept: threshold(p),
                alias: a,
            })
            .collect();
        AliasTable { cells }
    }

    /// Number of weights in the table.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// Returns `true` if the table has no entries (never: construction
    /// requires at least one weight).
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Draws one index with probability proportional to its weight.
    #[inline]
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        let cell = rng.gen_range(0..self.cells.len());
        let Cell { accept, alias } = self.cells[cell];
        if draw_below(rng, accept) {
            cell
        } else {
            alias as usize
        }
    }
}

/// Walker's construction in floating point: each cell's acceptance
/// probability and fallback index. [`AliasTable::new`] compiles the
/// probabilities into thresholds.
fn float_cells(weights: &[f64]) -> (Vec<f64>, Vec<u32>) {
    assert!(!weights.is_empty(), "alias table needs at least one weight");
    assert!(
        u32::try_from(weights.len()).is_ok(),
        "alias table indices must fit in u32"
    );
    let total: f64 = weights
        .iter()
        .inspect(|w| {
            assert!(
                w.is_finite() && **w >= 0.0,
                "weights must be finite and non-negative"
            );
        })
        .sum();
    assert!(total > 0.0, "weights must not all be zero");

    let n = weights.len();
    let mut prob: Vec<f64> = weights.iter().map(|w| w * n as f64 / total).collect();
    let mut alias = vec![0u32; n];
    let mut small: Vec<usize> = Vec::with_capacity(n);
    let mut large: Vec<usize> = Vec::with_capacity(n);
    for (i, &p) in prob.iter().enumerate() {
        if p < 1.0 {
            small.push(i);
        } else {
            large.push(i);
        }
    }
    while let (Some(&s), Some(&l)) = (small.last(), large.last()) {
        small.pop();
        alias[s] = l as u32;
        prob[l] -= 1.0 - prob[s];
        if prob[l] < 1.0 {
            large.pop();
            small.push(l);
        }
    }
    // Numerical leftovers: everything remaining accepts outright.
    for &i in small.iter().chain(large.iter()) {
        prob[i] = 1.0;
    }
    (prob, alias)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn empirical(weights: &[f64], draws: usize) -> Vec<f64> {
        let table = AliasTable::new(weights);
        let mut rng = SmallRng::seed_from_u64(42);
        let mut counts = vec![0u64; weights.len()];
        for _ in 0..draws {
            counts[table.sample(&mut rng)] += 1;
        }
        counts.iter().map(|&c| c as f64 / draws as f64).collect()
    }

    #[test]
    fn matches_uniform_weights() {
        let freq = empirical(&[1.0, 1.0, 1.0, 1.0], 100_000);
        for f in freq {
            assert!((f - 0.25).abs() < 0.01, "{f}");
        }
    }

    #[test]
    fn matches_skewed_weights() {
        let freq = empirical(&[0.5, 0.25, 0.125, 0.125], 200_000);
        let expect = [0.5, 0.25, 0.125, 0.125];
        for (f, e) in freq.iter().zip(expect) {
            assert!((f - e).abs() < 0.01, "{f} vs {e}");
        }
    }

    #[test]
    fn zero_weight_entries_are_never_drawn() {
        let freq = empirical(&[1.0, 0.0, 1.0], 50_000);
        assert_eq!(freq[1], 0.0);
    }

    #[test]
    fn single_entry_always_selected() {
        let table = AliasTable::new(&[3.0]);
        let mut rng = SmallRng::seed_from_u64(1);
        for _ in 0..100 {
            assert_eq!(table.sample(&mut rng), 0);
        }
    }

    #[test]
    fn unnormalised_weights_are_accepted() {
        let a = empirical(&[2.0, 6.0], 100_000);
        assert!((a[0] - 0.25).abs() < 0.01);
    }

    #[test]
    fn len_reports_size() {
        let t = AliasTable::new(&[1.0, 2.0]);
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
    }

    #[test]
    #[should_panic(expected = "at least one weight")]
    fn empty_weights_panic() {
        let _ = AliasTable::new(&[]);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_weight_panics() {
        let _ = AliasTable::new(&[1.0, -0.5]);
    }

    #[test]
    #[should_panic(expected = "not all be zero")]
    fn all_zero_weights_panic() {
        let _ = AliasTable::new(&[0.0, 0.0]);
    }

    /// An RNG that returns one fixed word, so a test can feed
    /// `gen::<f64>()` and [`draw_below`] the same raw draw.
    struct Fixed(u64);

    impl RngCore for Fixed {
        fn next_u32(&mut self) -> u32 {
            (self.0 >> 32) as u32
        }

        fn next_u64(&mut self) -> u64 {
            self.0
        }
    }

    /// The float rule the thresholds replace, on one raw draw.
    fn float_rule(x: u64, p: f64) -> bool {
        Fixed(x).gen::<f64>() < p
    }

    /// Raw words whose 53 high bits are `u`, with noise in the low
    /// eleven bits that both rules must ignore.
    fn words(u: u64) -> [u64; 2] {
        [u << 11, (u << 11) | 0x7ff]
    }

    #[test]
    fn threshold_rule_matches_the_float_rule_at_the_edges() {
        let k = 0x000a_bcde_f012_3456u64; // an arbitrary 53-bit k
        let at_k = k as f64 / UNIT as f64;
        let probabilities = [
            0.0,
            -0.5,
            f64::NAN,
            1.0 / UNIT as f64,
            at_k,
            f64::from_bits(at_k.to_bits() - 1),
            f64::from_bits(at_k.to_bits() + 1),
            f64::from_bits(1), // the smallest subnormal
            f64::MIN_POSITIVE / 3.0,
            0.5,
            1.0 - 1.0 / UNIT as f64,
            1.0,
            1.5,
        ];
        for p in probabilities {
            let t = threshold(p);
            assert!(t <= UNIT, "threshold({p}) = {t}");
            assert_eq!(t > 0, p > 0.0, "positivity of {p}");
            let draws = [0, 1, k - 1, k, k + 1, UNIT / 2 - 1, UNIT / 2, UNIT - 1];
            for x in draws.into_iter().flat_map(words).chain([u64::MAX, 0]) {
                assert_eq!(
                    draw_below(&mut Fixed(x), t),
                    float_rule(x, p),
                    "p = {p:e}, x = {x:#x}"
                );
            }
        }
        // The boundary itself: exactly k draws of 2^53 fall below k/2^53.
        assert_eq!(threshold(at_k), k);
        assert_eq!(threshold(f64::from_bits(1)), 1);
        assert_eq!(threshold(1.0 - 1.0 / UNIT as f64), UNIT - 1);
    }

    #[test]
    fn large_table_samples_in_bounds() {
        let weights: Vec<f64> = (1..=5000).map(|i| 1.0 / i as f64).collect();
        let table = AliasTable::new(&weights);
        let mut rng = SmallRng::seed_from_u64(9);
        for _ in 0..10_000 {
            assert!(table.sample(&mut rng) < 5000);
        }
    }

    proptest! {
        #[test]
        fn threshold_rule_matches_the_float_rule(p in 0.0f64..=1.0, x in any::<u64>()) {
            prop_assert_eq!(draw_below(&mut Fixed(x), threshold(p)), float_rule(x, p));
        }

        #[test]
        fn threshold_rule_matches_at_every_probability_bit_pattern(
            bits in any::<u64>(),
            x in any::<u64>(),
        ) {
            // Arbitrary f64s, including NaNs, infinities, negatives
            // and subnormals.
            let p = f64::from_bits(bits);
            prop_assert_eq!(draw_below(&mut Fixed(x), threshold(p)), float_rule(x, p));
        }

        #[test]
        fn threshold_rule_matches_next_to_the_boundary(
            k in 1u64..UNIT,
            up in any::<bool>(),
            x in any::<u64>(),
        ) {
            // The f64 on each side of k/2^53, and draws at the boundary.
            let at_k = k as f64 / UNIT as f64;
            let p = f64::from_bits(if up { at_k.to_bits() + 1 } else { at_k.to_bits() - 1 });
            for x in [x, k << 11, (k - 1) << 11] {
                prop_assert_eq!(draw_below(&mut Fixed(x), threshold(p)), float_rule(x, p));
            }
        }

        #[test]
        fn alias_sample_matches_the_float_rule(
            weights in prop::collection::vec(0.0f64..10.0, 1..64),
            seed in any::<u64>(),
        ) {
            prop_assume!(weights.iter().sum::<f64>() > 0.0);
            let table = AliasTable::new(&weights);
            let (prob, alias) = float_cells(&weights);
            let mut fast = SmallRng::seed_from_u64(seed);
            let mut float = fast.clone();
            for _ in 0..256 {
                let cell = float.gen_range(0..prob.len());
                let want = if float.gen::<f64>() < prob[cell] {
                    cell
                } else {
                    alias[cell] as usize
                };
                prop_assert_eq!(table.sample(&mut fast), want);
            }
            prop_assert_eq!(fast, float);
        }
    }
}

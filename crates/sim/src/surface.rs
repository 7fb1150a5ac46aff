//! Design-space surfaces (the paper's Figures 4–10).
//!
//! A *surface* evaluates one scheme over a grid of second-level table
//! shapes: tiers of constant counter count (2^total counters), each
//! tier ranging from the address-indexed split (all columns) to the
//! single-column split (all rows). [`Surface::sweep`] runs the whole
//! grid in parallel and records, per point, the misprediction rate and
//! aliasing statistics, with the best-in-tier marked exactly as the
//! paper blackens its best bars; [`Surface::sweep_with`] leaves the
//! simulation to the caller.

use std::ops::RangeInclusive;

use bpred_core::PredictorConfig;
use bpred_trace::TraceSource;

use crate::{run_configs, SimResult, Simulator};

/// One simulated point of a surface.
#[derive(Debug, Clone, PartialEq)]
pub struct SurfacePoint {
    /// Row-index bits (history/path/self-history depth).
    pub row_bits: u32,
    /// Column-index bits (address bits).
    pub col_bits: u32,
    /// Simulation result at this shape.
    pub result: SimResult,
}

impl SurfacePoint {
    /// Misprediction rate at this point.
    pub fn rate(&self) -> f64 {
        self.result.misprediction_rate()
    }
}

/// A constant-cost tier: every point has `2^total_bits` counters.
#[derive(Debug, Clone, PartialEq)]
pub struct Tier {
    /// log2 of the counter count shared by all points in the tier.
    pub total_bits: u32,
    /// Points ordered from all-columns (`col_bits == total_bits`,
    /// address-indexed) to all-rows (`col_bits == 0`), matching the
    /// paper's left-to-right axis.
    pub points: Vec<SurfacePoint>,
}

impl Tier {
    /// The point with the lowest misprediction rate (ties break toward
    /// more address bits, the cheaper row-selection hardware).
    ///
    /// # Panics
    ///
    /// Panics if the tier is empty (sweeps never produce one).
    pub fn best(&self) -> &SurfacePoint {
        self.points
            .iter()
            .min_by(|a, b| {
                a.rate()
                    .partial_cmp(&b.rate())
                    .expect("rates are never NaN")
            })
            .expect("tier has at least one point")
    }

    /// The point with the given column width, if the tier contains it.
    pub fn point(&self, col_bits: u32) -> Option<&SurfacePoint> {
        self.points.iter().find(|p| p.col_bits == col_bits)
    }
}

/// A full design-space surface for one scheme on one workload.
#[derive(Debug, Clone, PartialEq)]
pub struct Surface {
    /// Scheme label, e.g. `"GAs"`.
    pub scheme: String,
    /// Workload label, e.g. `"mpeg_play"`.
    pub workload: String,
    /// Tiers in increasing size order.
    pub tiers: Vec<Tier>,
}

impl Surface {
    /// Sweeps `make(row_bits, col_bits)` over every split of every
    /// tier in `total_bits`, simulating all points in parallel through
    /// the batched single-pass engine. `source` can be a materialised
    /// [`Trace`](bpred_trace::Trace) or any streaming
    /// [`TraceSource`] (e.g. a workload generator).
    ///
    /// # Examples
    ///
    /// ```
    /// use bpred_core::PredictorConfig;
    /// use bpred_sim::{Simulator, Surface};
    /// use bpred_trace::{BranchRecord, Outcome, Trace};
    ///
    /// let trace: Trace = (0..500)
    ///     .map(|i| BranchRecord::conditional(0x40 + 4 * (i % 16), 0x20, Outcome::from(i % 2 == 0)))
    ///     .collect();
    /// let surface = Surface::sweep(
    ///     "GAs",
    ///     "toy",
    ///     4..=6,
    ///     &trace,
    ///     Simulator::new(),
    ///     |rows, cols| PredictorConfig::Gas { history_bits: rows, col_bits: cols },
    /// );
    /// assert_eq!(surface.tiers.len(), 3);
    /// assert_eq!(surface.tiers[0].points.len(), 5); // splits of 2^4
    /// ```
    pub fn sweep<S: TraceSource + Sync + ?Sized>(
        scheme: &str,
        workload: &str,
        total_bits: RangeInclusive<u32>,
        source: &S,
        simulator: Simulator,
        make: impl Fn(u32, u32) -> PredictorConfig,
    ) -> Surface {
        Surface::sweep_with(scheme, workload, total_bits, make, |configs| {
            run_configs(configs, source, simulator)
        })
    }

    /// [`sweep`](Surface::sweep) with the simulation left to
    /// `simulate`: it gets every point's configuration in one slice, in
    /// the paper's order, and returns their results in the same order.
    /// The paper's exhibits read their points from a shared plan this
    /// way (see [`crate::experiments`]).
    pub fn sweep_with(
        scheme: &str,
        workload: &str,
        total_bits: impl IntoIterator<Item = u32>,
        make: impl Fn(u32, u32) -> PredictorConfig,
        simulate: impl FnOnce(&[PredictorConfig]) -> Vec<SimResult>,
    ) -> Surface {
        let mut shapes: Vec<(u32, u32)> = Vec::new();
        for total in total_bits {
            // Paper orientation: address-indexed on the left.
            for col_bits in (0..=total).rev() {
                shapes.push((total - col_bits, col_bits));
            }
        }
        let configs: Vec<PredictorConfig> = shapes.iter().map(|&(r, c)| make(r, c)).collect();
        let results = simulate(&configs);

        let mut tiers: Vec<Tier> = Vec::new();
        for ((row_bits, col_bits), result) in shapes.into_iter().zip(results) {
            let total = row_bits + col_bits;
            if tiers.last().map(|t| t.total_bits) != Some(total) {
                tiers.push(Tier {
                    total_bits: total,
                    points: Vec::new(),
                });
            }
            tiers
                .last_mut()
                .expect("tier just pushed")
                .points
                .push(SurfacePoint {
                    row_bits,
                    col_bits,
                    result,
                });
        }
        Surface {
            scheme: scheme.to_owned(),
            workload: workload.to_owned(),
            tiers,
        }
    }

    /// The tier with `2^total_bits` counters, if swept.
    pub fn tier(&self, total_bits: u32) -> Option<&Tier> {
        self.tiers.iter().find(|t| t.total_bits == total_bits)
    }

    /// Point-wise misprediction-rate difference `self - other` over the
    /// shapes present in both surfaces (the paper's Figures 7 and 8).
    /// Results are `(row_bits, col_bits, difference)`.
    pub fn difference(&self, other: &Surface) -> Vec<(u32, u32, f64)> {
        let mut out = Vec::new();
        for tier in &self.tiers {
            let Some(other_tier) = other.tier(tier.total_bits) else {
                continue;
            };
            for p in &tier.points {
                if let Some(q) = other_tier.point(p.col_bits) {
                    out.push((p.row_bits, p.col_bits, p.rate() - q.rate()));
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bpred_trace::{BranchRecord, Outcome, Trace};

    fn trace() -> Trace {
        (0..2_000)
            .map(|i| {
                BranchRecord::conditional(
                    0x400 + 4 * (i as u64 % 24),
                    0x100,
                    Outcome::from(i % 5 < 3),
                )
            })
            .collect()
    }

    fn gas_surface(range: RangeInclusive<u32>) -> Surface {
        Surface::sweep("GAs", "toy", range, &trace(), Simulator::new(), |r, c| {
            PredictorConfig::Gas {
                history_bits: r,
                col_bits: c,
            }
        })
    }

    #[test]
    fn tier_structure_matches_request() {
        let s = gas_surface(3..=5);
        assert_eq!(s.tiers.len(), 3);
        for (tier, bits) in s.tiers.iter().zip(3u32..) {
            assert_eq!(tier.total_bits, bits);
            assert_eq!(tier.points.len(), bits as usize + 1);
            // Left-to-right: address-indexed first.
            assert_eq!(tier.points[0].col_bits, bits);
            assert_eq!(tier.points.last().unwrap().col_bits, 0);
            for p in &tier.points {
                assert_eq!(p.row_bits + p.col_bits, bits);
            }
        }
    }

    #[test]
    fn best_is_minimal_in_tier() {
        let s = gas_surface(4..=6);
        for tier in &s.tiers {
            let best = tier.best();
            assert!(tier.points.iter().all(|p| best.rate() <= p.rate()));
        }
    }

    #[test]
    fn tier_lookup() {
        let s = gas_surface(4..=6);
        assert!(s.tier(5).is_some());
        assert!(s.tier(9).is_none());
        assert!(s.tier(5).unwrap().point(2).is_some());
        assert!(s.tier(5).unwrap().point(6).is_none());
    }

    #[test]
    fn difference_with_itself_is_zero() {
        let s = gas_surface(4..=5);
        for (_, _, d) in s.difference(&s) {
            assert_eq!(d, 0.0);
        }
        assert_eq!(s.difference(&s).len(), 5 + 6);
    }

    #[test]
    fn difference_skips_missing_tiers() {
        let a = gas_surface(4..=6);
        let b = gas_surface(5..=5);
        assert_eq!(a.difference(&b).len(), 6);
    }

    #[test]
    fn point_results_carry_scheme_names() {
        let s = gas_surface(4..=4);
        assert_eq!(
            s.tiers[0].points[0].result.predictor,
            "address-indexed(2^4)"
        );
        assert_eq!(s.tiers[0].points[4].result.predictor, "GAg(2^4)");
    }
}

//! Table-walk plans — the groupable shape of a predictor's lookup.
//!
//! The multilane replay tier in `bpred-sim` fuses many sweep lanes
//! into one lane-major loop over a shared counter arena. That only
//! works for lanes whose per-branch work is *structurally identical*;
//! originally that meant "one unified-index counter read", which
//! limited the fast tier to AddressIndexed/GAs/gshare. A [`WalkPlan`]
//! generalizes the shape into a small descriptor:
//!
//! 1. an optional **first-level read** ([`Level1Read`]) producing the
//!    row-selection pattern — a global history register, a per-address
//!    BHT (perfect or set-associative), per-set history registers, or
//!    a path register of hashed branch targets;
//! 2. **one to three second-level counter reads** ([`TableRead`]) over
//!    the shared arena, each with its own index function
//!    ([`IndexFn`]): the unified `(row ^ xor?) | col` form or gskew's
//!    skewed multiplicative bank hashes. A read with `tag_bits > 0`
//!    probes a *tagged* direction cache (YAGS): entries carry a
//!    partial address tag, a lookup hits only on a tag match, and a
//!    miss on the wrong-way outcome allocates by unconditional
//!    eviction — exactly the `yags.rs` accounting;
//! 3. a **combine/update rule** ([`CombineRule`]): direct,
//!    agreement-vs-bias (agree), chooser-steered (bi-mode), majority
//!    vote (gskew), chooser-over-two-subplans (tournament, each
//!    sub-plan carrying its own optional level-1 read), tagged
//!    exception over a choice bias (YAGS), or the degenerate
//!    last-outcome single-bit rule (LastTime), with every family's
//!    partial-update policy folded in.
//!
//! [`WalkPlan::of`] maps a [`PredictorConfig`] to its plan (or `None`
//! for the stateless static schemes, which need no table walk). Lanes whose plans share a [`PlanKind`]
//! execute the same fused loop and may share a group.
//!
//! # Examples
//!
//! ```
//! use bpred_core::{PlanKind, PredictorConfig, WalkPlan};
//!
//! let plan = WalkPlan::of(&PredictorConfig::Gshare {
//!     history_bits: 12,
//!     col_bits: 2,
//! })
//! .unwrap();
//! assert_eq!(plan.kind(), PlanKind::Direct);
//! assert_eq!(plan.reads.len(), 1);
//! assert_eq!(plan.cells(), 1 << 14);
//! ```

use crate::config::PredictorConfig;

/// Odd multipliers for gskew's three skewed bank hashes (shared with
/// the scalar [`Gskew`](crate::Gskew) so both paths compute the same
/// indices from the same constants).
pub const SKEW_BANK_MULTIPLIERS: [u64; 3] = [
    0x9E37_79B9_7F4A_7C15,
    0xC2B2_AE3D_27D4_EB4F,
    0x1656_67B1_9E37_79F9,
];

/// The first-level read that produces a lane's row-selection pattern.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Level1Read {
    /// No history at all — the row is always zero (address-indexed).
    None,
    /// One global shift register shared by every branch.
    GlobalHistory,
    /// An unbounded per-address history table
    /// ([`PerfectBht`](crate::PerfectBht)).
    PerfectBht,
    /// A finite set-associative per-address history table
    /// ([`SetAssocBht`](crate::SetAssocBht)).
    SetAssocBht {
        /// Total first-level entries (power of two).
        entries: usize,
        /// Associativity (divides `entries`).
        ways: usize,
    },
    /// Per-set history registers selected by low address bits
    /// ([`SetSelector`](crate::SetSelector)).
    SetHistories {
        /// log2 of the number of history sets.
        set_bits: u32,
    },
    /// One global path register of hashed control-transfer targets
    /// ([`PathRegister`](crate::PathRegister)) — fed by *every*
    /// control transfer, not just conditionals.
    PathHistory {
        /// Low target bits contributed per transfer.
        bits_per_target: u32,
    },
}

/// The index function of one second-level counter read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IndexFn {
    /// The unified two-level form: `row = (pattern [^ pc-bits]) &
    /// row_mask`, `idx = (row << col_bits) | (pc-word & col_mask)`.
    Unified {
        /// Whether the address bits are XORed into the row (gshare
        /// family) or only concatenated as columns (GAs family).
        xor: bool,
    },
    /// gskew's skewed bank hash:
    /// `idx = (((pc-word << 20) ^ pattern) * SKEW_BANK_MULTIPLIERS[bank]) >> (64 - row_bits)`.
    ///
    /// A zero-bit (single-counter) bank always indexes 0.
    Skewed {
        /// Which of the three bank multipliers to use.
        bank: u8,
    },
}

/// One second-level counter-table read within a plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TableRead {
    /// log2 of the row count.
    pub row_bits: u32,
    /// log2 of the column count.
    pub col_bits: u32,
    /// How (pattern, address) map to a counter index.
    pub index: IndexFn,
    /// Partial-tag width for a tagged direction cache (YAGS); `0`
    /// means an ordinary untagged counter read. A tagged read hits
    /// only when the stored tag matches the low address bits, and
    /// allocates by unconditionally evicting the indexed entry.
    pub tag_bits: u32,
}

impl TableRead {
    /// Counters this read's table holds.
    pub fn cells(&self) -> u64 {
        1u64 << (self.row_bits + self.col_bits)
    }
}

/// How a plan's reads combine into a prediction and train on the
/// outcome.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CombineRule {
    /// The single read *is* the prediction; train it toward the
    /// outcome.
    Direct,
    /// Agree: the read predicts agreement with a per-branch bias bit
    /// latched at first execution; train toward agreement.
    AgreementVsBias,
    /// Bi-mode: the third read (the choice table) steers between the
    /// first two direction reads; the selected direction trains toward
    /// the outcome and the choice trains too unless the bi-mode
    /// exception holds.
    ChooserSteered,
    /// gskew: majority vote of three reads; every bank trains toward
    /// the outcome (total-update policy).
    Majority,
    /// Tournament: the third read (a per-address chooser) steers
    /// between two component sub-plans — reads 0 and 1, each with its
    /// own optional level-1 read carried here. The selected component
    /// is the prediction; both components train toward the outcome
    /// and the chooser trains toward whichever component was right,
    /// only when they disagreed.
    ChooserOverTwo {
        /// Level-1 read feeding the first component (read 0).
        first_level1: Level1Read,
        /// Level-1 read feeding the second component (read 1).
        second_level1: Level1Read,
    },
    /// YAGS: read 0 is an untagged choice (bias) table; reads 1 and 2
    /// are tagged direction caches holding the exceptions to a taken
    /// / not-taken bias respectively. A tag hit in the
    /// opposite-to-bias cache overrides the bias; training updates
    /// the probed cache on a hit, allocates on a wrong-bias miss, and
    /// skips the choice update only when a hit already captured the
    /// anti-bias outcome.
    TaggedException,
    /// LastTime: the single read is a one-bit-per-entry table that
    /// predicts the last outcome stored at the index and then stores
    /// the new outcome.
    LastOutcome,
}

/// The execution class of a plan: lanes in the same kind run the same
/// fused loop and may share a multilane group.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PlanKind {
    /// Single unified read off global (or no) history —
    /// AddressIndexed/GAs/gshare, the original fused loop.
    Direct,
    /// Single unified read off an unbounded per-address BHT.
    PerAddressPerfect,
    /// Single unified read off a finite set-associative BHT.
    PerAddressFinite,
    /// Single unified read off per-set history registers.
    PerSet,
    /// Agreement counters vs per-branch bias bits.
    AgreeBias,
    /// Two direction reads steered by a choice read.
    BiModeChoice,
    /// Three skewed banks with a majority vote.
    SkewedMajority,
    /// Two component reads steered by a per-address chooser read.
    TournamentChooser,
    /// Untagged choice read plus two tagged direction caches.
    TaggedChoice,
    /// Single unified read off a global path register.
    PathHistory,
    /// Single one-bit read predicting the last stored outcome.
    LastOutcome,
}

/// A lane's table-walk plan: what the fused multilane tier must do per
/// conditional branch to be bit-identical to the scalar kernel.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalkPlan {
    /// The first-level read producing the row pattern.
    pub level1: Level1Read,
    /// Width of the history pattern (0 for address-indexed).
    pub history_bits: u32,
    /// The second-level counter reads, in access order.
    pub reads: Vec<TableRead>,
    /// How the reads combine and train.
    pub combine: CombineRule,
}

impl WalkPlan {
    /// The plan for `config`, or `None` for the stateless static
    /// schemes (always-taken, always-not-taken, BTFN).
    pub fn of(config: &PredictorConfig) -> Option<WalkPlan> {
        let unified = |row_bits: u32, col_bits: u32, xor: bool| TableRead {
            row_bits,
            col_bits,
            index: IndexFn::Unified { xor },
            tag_bits: 0,
        };
        let tagged = |row_bits: u32, tag_bits: u32| TableRead {
            row_bits,
            col_bits: 0,
            index: IndexFn::Unified { xor: true },
            tag_bits,
        };
        match *config {
            PredictorConfig::AddressIndexed { addr_bits } => Some(WalkPlan {
                level1: Level1Read::None,
                history_bits: 0,
                reads: vec![unified(0, addr_bits, false)],
                combine: CombineRule::Direct,
            }),
            PredictorConfig::Gas {
                history_bits,
                col_bits,
            } => Some(WalkPlan {
                level1: Level1Read::GlobalHistory,
                history_bits,
                reads: vec![unified(history_bits, col_bits, false)],
                combine: CombineRule::Direct,
            }),
            PredictorConfig::Gshare {
                history_bits,
                col_bits,
            } => Some(WalkPlan {
                level1: Level1Read::GlobalHistory,
                history_bits,
                reads: vec![unified(history_bits, col_bits, true)],
                combine: CombineRule::Direct,
            }),
            PredictorConfig::PasInfinite {
                history_bits,
                col_bits,
            } => Some(WalkPlan {
                level1: Level1Read::PerfectBht,
                history_bits,
                reads: vec![unified(history_bits, col_bits, false)],
                combine: CombineRule::Direct,
            }),
            PredictorConfig::PasFinite {
                history_bits,
                col_bits,
                entries,
                ways,
            } => Some(WalkPlan {
                level1: Level1Read::SetAssocBht {
                    entries: entries as usize,
                    ways: ways as usize,
                },
                history_bits,
                reads: vec![unified(history_bits, col_bits, false)],
                combine: CombineRule::Direct,
            }),
            PredictorConfig::Sas {
                history_bits,
                set_bits,
                col_bits,
            } => Some(WalkPlan {
                level1: Level1Read::SetHistories { set_bits },
                history_bits,
                reads: vec![unified(history_bits, col_bits, false)],
                combine: CombineRule::Direct,
            }),
            PredictorConfig::Agree {
                history_bits,
                index_bits,
            } => Some(WalkPlan {
                level1: Level1Read::GlobalHistory,
                history_bits,
                reads: vec![unified(index_bits, 0, true)],
                combine: CombineRule::AgreementVsBias,
            }),
            PredictorConfig::BiMode {
                history_bits,
                direction_bits,
                choice_bits,
            } => Some(WalkPlan {
                level1: Level1Read::GlobalHistory,
                history_bits,
                reads: vec![
                    unified(direction_bits, 0, true),
                    unified(direction_bits, 0, true),
                    unified(0, choice_bits, false),
                ],
                combine: CombineRule::ChooserSteered,
            }),
            PredictorConfig::Gskew {
                history_bits,
                bank_bits,
            } => Some(WalkPlan {
                level1: Level1Read::GlobalHistory,
                history_bits,
                reads: (0..3u8)
                    .map(|bank| TableRead {
                        row_bits: bank_bits,
                        col_bits: 0,
                        index: IndexFn::Skewed { bank },
                        tag_bits: 0,
                    })
                    .collect(),
                combine: CombineRule::Majority,
            }),
            PredictorConfig::LastTime { addr_bits } => Some(WalkPlan {
                level1: Level1Read::None,
                history_bits: 0,
                reads: vec![unified(0, addr_bits, false)],
                combine: CombineRule::LastOutcome,
            }),
            PredictorConfig::Path {
                row_bits,
                col_bits,
                bits_per_target,
            } => Some(WalkPlan {
                level1: Level1Read::PathHistory { bits_per_target },
                history_bits: row_bits,
                reads: vec![unified(row_bits, col_bits, false)],
                combine: CombineRule::Direct,
            }),
            PredictorConfig::Tournament {
                addr_bits,
                history_bits,
                chooser_bits,
            } => Some(WalkPlan {
                level1: Level1Read::GlobalHistory,
                history_bits,
                reads: vec![
                    unified(0, addr_bits, false),
                    unified(history_bits, 0, true),
                    unified(0, chooser_bits, false),
                ],
                combine: CombineRule::ChooserOverTwo {
                    first_level1: Level1Read::None,
                    second_level1: Level1Read::GlobalHistory,
                },
            }),
            PredictorConfig::Yags {
                choice_bits,
                cache_bits,
                tag_bits,
            } => Some(WalkPlan {
                level1: Level1Read::GlobalHistory,
                history_bits: cache_bits,
                reads: vec![
                    unified(0, choice_bits, false),
                    tagged(cache_bits, tag_bits),
                    tagged(cache_bits, tag_bits),
                ],
                combine: CombineRule::TaggedException,
            }),
            _ => None,
        }
    }

    /// The execution class this plan groups under.
    pub fn kind(&self) -> PlanKind {
        match (self.combine, self.level1) {
            (CombineRule::AgreementVsBias, _) => PlanKind::AgreeBias,
            (CombineRule::ChooserSteered, _) => PlanKind::BiModeChoice,
            (CombineRule::Majority, _) => PlanKind::SkewedMajority,
            (CombineRule::ChooserOverTwo { .. }, _) => PlanKind::TournamentChooser,
            (CombineRule::TaggedException, _) => PlanKind::TaggedChoice,
            (CombineRule::LastOutcome, _) => PlanKind::LastOutcome,
            (CombineRule::Direct, Level1Read::PerfectBht) => PlanKind::PerAddressPerfect,
            (CombineRule::Direct, Level1Read::SetAssocBht { .. }) => PlanKind::PerAddressFinite,
            (CombineRule::Direct, Level1Read::SetHistories { .. }) => PlanKind::PerSet,
            (CombineRule::Direct, Level1Read::PathHistory { .. }) => PlanKind::PathHistory,
            (CombineRule::Direct, _) => PlanKind::Direct,
        }
    }

    /// Total second-level counters across every read — the lane's
    /// arena footprint.
    pub fn cells(&self) -> u64 {
        self.reads.iter().map(TableRead::cells).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn direct_families_share_a_kind() {
        for config in [
            PredictorConfig::AddressIndexed { addr_bits: 10 },
            PredictorConfig::Gas {
                history_bits: 8,
                col_bits: 2,
            },
            PredictorConfig::Gshare {
                history_bits: 8,
                col_bits: 2,
            },
        ] {
            let plan = WalkPlan::of(&config).expect("groupable");
            assert_eq!(plan.kind(), PlanKind::Direct, "{config:?}");
            assert_eq!(plan.reads.len(), 1);
            assert_eq!(plan.combine, CombineRule::Direct);
        }
    }

    #[test]
    fn only_gshare_xors_the_address_into_the_row() {
        let xor_of = |config: &PredictorConfig| match WalkPlan::of(config).unwrap().reads[0].index {
            IndexFn::Unified { xor } => xor,
            other => panic!("unexpected index fn {other:?}"),
        };
        assert!(xor_of(&PredictorConfig::Gshare {
            history_bits: 8,
            col_bits: 2
        }));
        assert!(!xor_of(&PredictorConfig::Gas {
            history_bits: 8,
            col_bits: 2
        }));
        assert!(!xor_of(&PredictorConfig::AddressIndexed { addr_bits: 10 }));
    }

    #[test]
    fn per_address_plans_carry_their_first_level_shape() {
        let perfect = WalkPlan::of(&PredictorConfig::PasInfinite {
            history_bits: 6,
            col_bits: 2,
        })
        .unwrap();
        assert_eq!(perfect.kind(), PlanKind::PerAddressPerfect);
        assert_eq!(perfect.level1, Level1Read::PerfectBht);

        let finite = WalkPlan::of(&PredictorConfig::PasFinite {
            history_bits: 6,
            col_bits: 2,
            entries: 64,
            ways: 4,
        })
        .unwrap();
        assert_eq!(finite.kind(), PlanKind::PerAddressFinite);
        assert_eq!(
            finite.level1,
            Level1Read::SetAssocBht {
                entries: 64,
                ways: 4
            }
        );

        let sas = WalkPlan::of(&PredictorConfig::Sas {
            history_bits: 6,
            set_bits: 3,
            col_bits: 2,
        })
        .unwrap();
        assert_eq!(sas.kind(), PlanKind::PerSet);
        assert_eq!(sas.level1, Level1Read::SetHistories { set_bits: 3 });
    }

    #[test]
    fn dealiased_plans_describe_their_reads() {
        let agree = WalkPlan::of(&PredictorConfig::Agree {
            history_bits: 6,
            index_bits: 10,
        })
        .unwrap();
        assert_eq!(agree.kind(), PlanKind::AgreeBias);
        assert_eq!(agree.reads.len(), 1);
        assert_eq!(agree.reads[0].row_bits, 10);
        assert_eq!(agree.reads[0].index, IndexFn::Unified { xor: true });
        assert_eq!(agree.cells(), 1 << 10);

        let bimode = WalkPlan::of(&PredictorConfig::BiMode {
            history_bits: 6,
            direction_bits: 9,
            choice_bits: 8,
        })
        .unwrap();
        assert_eq!(bimode.kind(), PlanKind::BiModeChoice);
        assert_eq!(bimode.reads.len(), 3);
        assert_eq!(bimode.reads[2].index, IndexFn::Unified { xor: false });
        assert_eq!(bimode.cells(), (1 << 9) + (1 << 9) + (1 << 8));

        let gskew = WalkPlan::of(&PredictorConfig::Gskew {
            history_bits: 6,
            bank_bits: 9,
        })
        .unwrap();
        assert_eq!(gskew.kind(), PlanKind::SkewedMajority);
        assert_eq!(gskew.reads.len(), 3);
        for (bank, read) in gskew.reads.iter().enumerate() {
            assert_eq!(read.index, IndexFn::Skewed { bank: bank as u8 });
        }
        assert_eq!(gskew.cells(), 3 << 9);
    }

    #[test]
    fn multi_structure_plans_describe_their_shapes() {
        let tournament = WalkPlan::of(&PredictorConfig::Tournament {
            addr_bits: 10,
            history_bits: 8,
            chooser_bits: 9,
        })
        .unwrap();
        assert_eq!(tournament.kind(), PlanKind::TournamentChooser);
        assert_eq!(tournament.reads.len(), 3);
        assert_eq!(tournament.reads[0].index, IndexFn::Unified { xor: false });
        assert_eq!(tournament.reads[1].index, IndexFn::Unified { xor: true });
        assert_eq!(
            tournament.combine,
            CombineRule::ChooserOverTwo {
                first_level1: Level1Read::None,
                second_level1: Level1Read::GlobalHistory,
            }
        );
        assert_eq!(tournament.cells(), (1 << 10) + (1 << 8) + (1 << 9));

        let yags = WalkPlan::of(&PredictorConfig::Yags {
            choice_bits: 10,
            cache_bits: 8,
            tag_bits: 6,
        })
        .unwrap();
        assert_eq!(yags.kind(), PlanKind::TaggedChoice);
        assert_eq!(yags.history_bits, 8, "YAGS history is cache-bits wide");
        assert_eq!(yags.reads.len(), 3);
        assert_eq!(yags.reads[0].tag_bits, 0, "the choice table is untagged");
        for cache in &yags.reads[1..] {
            assert_eq!(cache.tag_bits, 6);
            assert_eq!(cache.index, IndexFn::Unified { xor: true });
        }
        assert_eq!(yags.cells(), (1 << 10) + (1 << 8) + (1 << 8));

        let path = WalkPlan::of(&PredictorConfig::Path {
            row_bits: 8,
            col_bits: 2,
            bits_per_target: 3,
        })
        .unwrap();
        assert_eq!(path.kind(), PlanKind::PathHistory);
        assert_eq!(path.level1, Level1Read::PathHistory { bits_per_target: 3 });
        assert_eq!(path.reads.len(), 1);
        assert_eq!(path.reads[0].index, IndexFn::Unified { xor: false });
        assert_eq!(path.cells(), 1 << 10);

        let last = WalkPlan::of(&PredictorConfig::LastTime { addr_bits: 9 }).unwrap();
        assert_eq!(last.kind(), PlanKind::LastOutcome);
        assert_eq!(last.level1, Level1Read::None);
        assert_eq!(last.reads.len(), 1);
        assert_eq!(last.cells(), 1 << 9);
    }

    #[test]
    fn only_the_statics_have_no_plan() {
        for config in [
            PredictorConfig::AlwaysTaken,
            PredictorConfig::AlwaysNotTaken,
            PredictorConfig::Btfn,
        ] {
            assert!(WalkPlan::of(&config).is_none(), "{config:?}");
        }
        // A zero-bit gskew bank is a one-counter table, not a hole.
        let zero = WalkPlan::of(&PredictorConfig::Gskew {
            history_bits: 0,
            bank_bits: 0,
        })
        .expect("zero-bit gskew has a plan");
        assert_eq!(zero.kind(), PlanKind::SkewedMajority);
        assert_eq!(zero.cells(), 3);
    }

    #[test]
    fn skew_multipliers_are_odd_and_distinct() {
        for m in SKEW_BANK_MULTIPLIERS {
            assert_eq!(m & 1, 1);
        }
        assert_ne!(SKEW_BANK_MULTIPLIERS[0], SKEW_BANK_MULTIPLIERS[1]);
        assert_ne!(SKEW_BANK_MULTIPLIERS[1], SKEW_BANK_MULTIPLIERS[2]);
    }
}

//! The replay rows the tracked speed artifacts share: the kernel
//! families and spill-scale sweeps `bench_replay` writes into
//! `BENCH_replay.json`, which `scripts/ab_replay.sh` also times against
//! a base revision.

use bpred_core::PredictorConfig;

/// One family sweep: a name plus the configurations replayed together.
#[derive(Debug, Clone)]
pub struct Family {
    /// The row's name in the artifacts.
    pub name: &'static str,
    /// The configurations, in sweep order.
    pub configs: Vec<PredictorConfig>,
}

/// The kernel families of `BENCH_replay.json`, each one sweep
/// replayed together: the Direct shapes, the statics, the
/// table-walk-plan families and the multi-structure plans.
pub fn families() -> Vec<Family> {
    let gshare = (2..10u32)
        .flat_map(|history_bits| {
            (1..=4u32).map(move |col_bits| PredictorConfig::Gshare {
                history_bits,
                col_bits,
            })
        })
        .collect::<Vec<_>>();
    assert_eq!(gshare.len(), 32, "the acceptance sweep is 32 points");
    vec![
        Family {
            name: "gshare",
            configs: gshare,
        },
        Family {
            name: "gas",
            configs: (2..10u32)
                .flat_map(|history_bits| {
                    (1..=4u32).map(move |col_bits| PredictorConfig::Gas {
                        history_bits,
                        col_bits,
                    })
                })
                .collect(),
        },
        Family {
            name: "address-indexed",
            configs: (1..=16u32)
                .map(|addr_bits| PredictorConfig::AddressIndexed { addr_bits })
                .collect(),
        },
        Family {
            name: "static",
            configs: vec![
                PredictorConfig::AlwaysTaken,
                PredictorConfig::AlwaysNotTaken,
                PredictorConfig::Btfn,
            ],
        },
        // The table-walk-plan families: per-address/per-set history
        // schemes and the dealiased predictors, grouped since the plan
        // refactor (previously pinned to the scalar fallback).
        Family {
            name: "pas",
            configs: (2..6u32)
                .map(|history_bits| PredictorConfig::PasInfinite {
                    history_bits,
                    col_bits: 2,
                })
                .collect(),
        },
        Family {
            name: "pas-finite",
            // One 1024x4 first level under eight history widths: the
            // lanes share one first-level walk per chunk.
            configs: (2..=9u32)
                .map(|history_bits| PredictorConfig::PasFinite {
                    history_bits,
                    col_bits: 2,
                    entries: 1024,
                    ways: 4,
                })
                .collect(),
        },
        Family {
            name: "sas",
            configs: (2..6u32)
                .map(|history_bits| PredictorConfig::Sas {
                    history_bits,
                    set_bits: 4,
                    col_bits: 2,
                })
                .collect(),
        },
        Family {
            name: "agree",
            configs: (4..12u32)
                .map(|index_bits| PredictorConfig::Agree {
                    history_bits: index_bits.min(8),
                    index_bits,
                })
                .collect(),
        },
        Family {
            name: "bimode",
            configs: (4..12u32)
                .map(|direction_bits| PredictorConfig::BiMode {
                    history_bits: direction_bits.min(8),
                    direction_bits,
                    choice_bits: direction_bits,
                })
                .collect(),
        },
        Family {
            name: "gskew",
            configs: (4..12u32)
                .map(|bank_bits| PredictorConfig::Gskew {
                    history_bits: bank_bits.min(10),
                    bank_bits,
                })
                .collect(),
        },
        // The multi-structure families: chooser-over-two-subplans,
        // tagged direction caches, the path-history register feed,
        // and the degenerate single-bit table — the last schemes off
        // the scalar fallback.
        Family {
            name: "tournament",
            configs: (4..12u32)
                .map(|bits| PredictorConfig::Tournament {
                    addr_bits: bits,
                    history_bits: bits.min(10),
                    chooser_bits: bits,
                })
                .collect(),
        },
        Family {
            name: "yags",
            configs: (4..12u32)
                .map(|cache_bits| PredictorConfig::Yags {
                    choice_bits: cache_bits,
                    cache_bits,
                    tag_bits: 6,
                })
                .collect(),
        },
        Family {
            name: "path",
            configs: (4..12u32)
                .map(|row_bits| PredictorConfig::Path {
                    row_bits,
                    col_bits: 2,
                    bits_per_target: 4,
                })
                .collect(),
        },
        Family {
            name: "lasttime",
            // 32 lanes: the single-bit walk is nearly free, so a
            // narrow family would measure the shared chunk generation
            // it amortizes rather than the kernel.
            configs: (1..=16u32)
                .chain(1..=16u32)
                .map(|addr_bits| PredictorConfig::LastTime { addr_bits })
                .collect(),
        },
    ]
}

/// The spill-scale sweeps: 16 identical gshare lanes, one fused group
/// whose shared arena is 16 × 2^(h+2) four-byte cells — 512 KiB, 8 MiB
/// and 32 MiB, from within L2 to past the LLC. The names date from
/// 8-byte cells (1, 16 and 64 MiB); the shapes stay so the rows stay
/// comparable across artifacts.
pub fn spill_rows() -> Vec<Family> {
    [("spill-l2", 11), ("spill-llc", 15), ("spill-4xllc", 17)]
        .into_iter()
        .map(|(name, history_bits)| Family {
            name,
            configs: vec![
                PredictorConfig::Gshare {
                    history_bits,
                    col_bits: 2,
                };
                16
            ],
        })
        .collect()
}

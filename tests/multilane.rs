//! Bit-identity harness for the multilane replay kernels.
//!
//! The [`LaneSet`] the batched engine runs on promises results
//! bit-identical to the pinned scalar fallback — `Simulator::run` once
//! per configuration — for every `PredictorConfig` variant, every
//! dispatch tier, any lane mix, and any chunking of the stream. These
//! tests enforce that promise; the CI matrix re-runs the whole suite
//! under `BPRED_FORCE_SCALAR=1` so the forced-fallback partition gets
//! the same coverage.

use proptest::prelude::*;

use bpred::core::{cell, PredictorConfig};
use bpred::sim::{
    run_batched, run_batched_chunked, LaneSet, SimResult, Simulator, LANE_TIER_LABELS,
};
use bpred::trace::{BranchKind, BranchRecord, Outcome, Trace, TraceChunk};
use bpred::workloads::{suite, Multiprogrammed};

/// One configuration of every `PredictorConfig` variant: the three
/// static schemes ride the record-parallel tier and every dynamic
/// scheme — including the multi-structure tournament/YAGS/path/
/// last-time plans and the zero-bit gskew banks — dispatches to a
/// fused group.
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
        // Zero-bit banks, explicit and defaulted from `gskew:h=0`: one
        // counter per bank, indexed at 0.
        PredictorConfig::Gskew {
            history_bits: 4,
            bank_bits: 0,
        },
        PredictorConfig::Gskew {
            history_bits: 0,
            bank_bits: 0,
        },
        PredictorConfig::Yags {
            choice_bits: 7,
            cache_bits: 6,
            tag_bits: 6,
        },
    ]
}

fn serial_reference(
    configs: &[PredictorConfig],
    trace: &Trace,
    simulator: Simulator,
) -> Vec<SimResult> {
    configs
        .iter()
        .map(|config| simulator.run(&mut config.build(), trace))
        .collect()
}

/// Every configuration through one [`LaneSet`]: one shard holds them
/// all, so lanes past the packed-lane limit share a set at any
/// `BPRED_THREADS`.
fn one_lane_set(
    configs: &[PredictorConfig],
    trace: &Trace,
    simulator: Simulator,
) -> Vec<SimResult> {
    run_batched(configs, trace, simulator, configs.len().max(1))
}

#[test]
fn every_variant_matches_the_scalar_oracle() {
    let trace = suite::espresso().scaled(8_000).trace(1996);
    let configs = every_variant();
    let serial = serial_reference(&configs, &trace, Simulator::new());
    let multilane = one_lane_set(&configs, &trace, Simulator::new());
    assert_eq!(serial, multilane);
}

#[test]
fn every_variant_matches_with_a_mid_stream_warmup() {
    let trace = suite::mpeg_play().scaled(6_000).trace(7);
    let configs = every_variant();
    let simulator = Simulator::with_warmup(1_000);
    let serial = serial_reference(&configs, &trace, simulator);
    let multilane = one_lane_set(&configs, &trace, simulator);
    assert_eq!(serial, multilane);
}

#[test]
fn chunk_boundaries_never_change_results() {
    // The batched engine drives LaneSet chunk by chunk; cover
    // single-record chunks, a coprime length, and the off-by-one
    // straddles of the trace length.
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
fn a_group_wider_than_the_packed_lane_limit_splits_cleanly() {
    // 41 groupable lanes force a second direct group (the limit is
    // cell::PACKED_LANES = 32), mixed with statics and scalar-tier
    // lanes on both sides of the split.
    let mut configs = vec![PredictorConfig::AlwaysTaken];
    configs.extend((1..=20u32).map(|n| PredictorConfig::Gshare {
        history_bits: n % 9 + 1,
        col_bits: n % 3 + 1,
    }));
    configs.push(PredictorConfig::PasInfinite {
        history_bits: 4,
        col_bits: 2,
    });
    configs.extend((1..=21u32).map(|n| PredictorConfig::Gas {
        history_bits: n % 7 + 1,
        col_bits: n % 4 + 1,
    }));
    configs.push(PredictorConfig::Btfn);
    let trace = suite::sdet().scaled(5_000).trace(3);
    let serial = serial_reference(&configs, &trace, Simulator::new());
    let multilane = one_lane_set(&configs, &trace, Simulator::new());
    assert_eq!(serial, multilane);
}

#[test]
fn duplicate_configurations_stay_independent() {
    let configs = vec![
        PredictorConfig::Gshare {
            history_bits: 5,
            col_bits: 2,
        };
        5
    ];
    let trace = suite::espresso().scaled(2_000).trace(9);
    let serial = serial_reference(&configs, &trace, Simulator::new());
    let multilane = one_lane_set(&configs, &trace, Simulator::new());
    assert_eq!(serial, multilane);
    assert!(multilane.windows(2).all(|w| w[0] == w[1]));
}

#[test]
fn lane_set_streams_one_chunk_at_a_time() {
    // Drive LaneSet directly (the batched engine's usage) with a
    // reused chunk buffer, against the one-shot entry point.
    use bpred::trace::TraceSource;
    let trace = suite::real_gcc().scaled(4_000).trace(17);
    let configs = every_variant();
    let mut lanes = LaneSet::new(&configs, Simulator::new());
    let mut feeder = trace.chunk_feeder();
    let mut chunk = TraceChunk::with_capacity(333);
    while feeder.refill(&mut chunk, 333) > 0 {
        lanes.replay_chunk(&chunk);
    }
    assert_eq!(
        lanes.finish(),
        one_lane_set(&configs, &trace, Simulator::new())
    );
}

/// One groupable configuration per table-walk-plan family beyond the
/// single-read Direct shape (Pas perfect/finite, SAs, agree, bi-mode,
/// gskew, and the multi-structure tournament/YAGS/path/last-time
/// plans).
fn plan_family_variants() -> Vec<PredictorConfig> {
    vec![
        PredictorConfig::Tournament {
            addr_bits: 6,
            history_bits: 7,
            chooser_bits: 5,
        },
        PredictorConfig::Yags {
            choice_bits: 7,
            cache_bits: 6,
            tag_bits: 5,
        },
        PredictorConfig::Path {
            row_bits: 7,
            col_bits: 2,
            bits_per_target: 3,
        },
        PredictorConfig::LastTime { addr_bits: 7 },
        PredictorConfig::PasInfinite {
            history_bits: 6,
            col_bits: 2,
        },
        PredictorConfig::PasFinite {
            history_bits: 6,
            col_bits: 2,
            entries: 128,
            ways: 4,
        },
        PredictorConfig::Sas {
            history_bits: 6,
            set_bits: 4,
            col_bits: 2,
        },
        PredictorConfig::Agree {
            history_bits: 7,
            index_bits: 9,
        },
        PredictorConfig::BiMode {
            history_bits: 7,
            direction_bits: 8,
            choice_bits: 8,
        },
        PredictorConfig::Gskew {
            history_bits: 8,
            bank_bits: 8,
        },
    ]
}

#[test]
fn each_plan_family_matches_the_scalar_oracle_alone() {
    // One lane at a time: a failure pins the family instead of the
    // mix.
    let trace = suite::espresso().scaled(6_000).trace(23);
    for config in plan_family_variants() {
        let configs = [config];
        let serial = serial_reference(&configs, &trace, Simulator::new());
        let multilane = one_lane_set(&configs, &trace, Simulator::new());
        assert_eq!(serial, multilane, "{config}");
    }
}

#[test]
fn plan_families_match_with_warmups_and_chunking() {
    let trace = suite::real_gcc().scaled(4_000).trace(31);
    let len = trace.len();
    let configs = plan_family_variants();
    for warmup in [0, 1, 500, len] {
        let simulator = Simulator::with_warmup(warmup);
        let serial = serial_reference(&configs, &trace, simulator);
        for chunk_len in [1, 13, len - 1, len + 1] {
            let chunked = run_batched_chunked(&configs, &trace, simulator, 4, chunk_len);
            assert_eq!(serial, chunked, "warmup {warmup} chunk_len {chunk_len}");
        }
    }
}

#[test]
fn a_plan_group_wider_than_the_packed_lane_limit_splits_cleanly() {
    // 41 agree lanes force a second agree group (the limit is
    // cell::PACKED_LANES = 32), interleaved with the other plan
    // families and a multi-structure lane on both sides of the split.
    let mut configs = vec![PredictorConfig::LastTime { addr_bits: 5 }];
    configs.extend((1..=41u32).map(|n| PredictorConfig::Agree {
        history_bits: n % 6,
        index_bits: n % 6 + 3,
    }));
    configs.extend(plan_family_variants());
    configs.push(PredictorConfig::Yags {
        choice_bits: 6,
        cache_bits: 5,
        tag_bits: 6,
    });
    let trace = suite::sdet().scaled(4_000).trace(41);
    let serial = serial_reference(&configs, &trace, Simulator::new());
    let multilane = one_lane_set(&configs, &trace, Simulator::new());
    assert_eq!(serial, multilane);
}

#[test]
fn duplicate_plan_configurations_stay_independent() {
    let mut configs = vec![
        PredictorConfig::Gskew {
            history_bits: 6,
            bank_bits: 7,
        };
        3
    ];
    configs.extend(vec![
        PredictorConfig::PasInfinite {
            history_bits: 5,
            col_bits: 2,
        };
        3
    ]);
    let trace = suite::espresso().scaled(2_000).trace(13);
    let serial = serial_reference(&configs, &trace, Simulator::new());
    let multilane = one_lane_set(&configs, &trace, Simulator::new());
    assert_eq!(serial, multilane);
    assert_eq!(multilane[0], multilane[1]);
    assert_eq!(multilane[1], multilane[2]);
    assert_eq!(multilane[3], multilane[4]);
    assert_eq!(multilane[4], multilane[5]);
}

#[test]
fn per_address_lanes_sharing_first_level_walks_match_the_scalar_oracle() {
    // One lane set over every way the shared first-level walks are
    // keyed and read: zero and non-zero widths on one geometry, 16- and
    // 18-bit rows (the reset prefix survives into the row), four finite
    // geometries beside perfect-table and agree lanes (which share the
    // dense branch ids), per-set lanes, and 36 lanes of one geometry,
    // so one walk feeds two groups.
    let finite = |history_bits, col_bits, entries, ways| PredictorConfig::PasFinite {
        history_bits,
        col_bits,
        entries,
        ways,
    };
    let perfect = |history_bits, col_bits| PredictorConfig::PasInfinite {
        history_bits,
        col_bits,
    };
    let mut configs = vec![
        finite(0, 2, 64, 4),
        finite(16, 0, 256, 4),
        finite(18, 0, 256, 4),
        finite(3, 1, 16, 1),
        finite(7, 2, 128, 2),
        perfect(0, 2),
        perfect(16, 0),
        perfect(18, 0),
        PredictorConfig::Sas {
            history_bits: 16,
            set_bits: 3,
            col_bits: 0,
        },
        PredictorConfig::Sas {
            history_bits: 0,
            set_bits: 2,
            col_bits: 1,
        },
        PredictorConfig::Agree {
            history_bits: 6,
            index_bits: 8,
        },
    ];
    configs.extend((0..35u32).map(|n| finite(n % 9, n % 3, 64, 4)));
    let trace = suite::espresso().scaled(20_000).trace(61);
    let simulator = Simulator::with_warmup(500);
    let serial = serial_reference(&configs, &trace, simulator);
    assert_eq!(serial, one_lane_set(&configs, &trace, simulator));
    let chunked = run_batched_chunked(&configs, &trace, simulator, 4, 777);
    assert_eq!(serial, chunked);
    let counts = LaneSet::new(&configs, simulator).lane_tier_counts();
    let of = |label: &str| counts[LANE_TIER_LABELS.iter().position(|&l| l == label).unwrap()];
    if std::env::var("BPRED_FORCE_SCALAR").is_ok_and(|v| !v.is_empty() && v != "0") {
        assert_eq!(of("scalar") as usize, configs.len());
    } else {
        assert!(of("pas-finite") as usize > cell::PACKED_LANES);
        assert_eq!((of("pas-perfect"), of("per-set"), of("agree")), (3, 2, 1));
    }
}

/// Builds lane `n` of one plan kind.
type LaneOf = fn(u32) -> PredictorConfig;

/// Lane `n` of each fused plan kind, keyed by its `LANE_TIER_LABELS`
/// label; shapes vary with `n` (degenerate widths included).
const PLAN_KIND_LANES: [(&str, LaneOf); 11] = [
    ("direct", |n| match n % 3 {
        0 => PredictorConfig::AddressIndexed { addr_bits: n % 9 },
        1 => PredictorConfig::Gas {
            history_bits: n % 7,
            col_bits: n % 3,
        },
        _ => PredictorConfig::Gshare {
            history_bits: n % 9,
            col_bits: n % 3,
        },
    }),
    ("pas-perfect", |n| PredictorConfig::PasInfinite {
        history_bits: n % 6 + 1,
        col_bits: n % 3,
    }),
    ("pas-finite", |n| PredictorConfig::PasFinite {
        history_bits: n % 5 + 1,
        col_bits: n % 3,
        entries: 16 << (n % 3),
        ways: 1 << (n % 3),
    }),
    ("per-set", |n| PredictorConfig::Sas {
        history_bits: n % 5 + 1,
        set_bits: n % 4,
        col_bits: n % 3,
    }),
    ("agree", |n| PredictorConfig::Agree {
        history_bits: n % 6,
        index_bits: n % 6 + 3,
    }),
    ("bimode", |n| PredictorConfig::BiMode {
        history_bits: n % 5,
        direction_bits: n % 5 + 2,
        choice_bits: n % 6,
    }),
    ("gskew", |n| PredictorConfig::Gskew {
        history_bits: n % 10,
        bank_bits: n % 8,
    }),
    ("tournament", |n| PredictorConfig::Tournament {
        addr_bits: n % 6,
        history_bits: n % 7,
        chooser_bits: n % 5,
    }),
    ("yags", |n| PredictorConfig::Yags {
        choice_bits: n % 7,
        cache_bits: n % 6,
        tag_bits: n % 8 + 1,
    }),
    ("path", |n| PredictorConfig::Path {
        row_bits: n % 8,
        col_bits: n % 3,
        bits_per_target: n % 4 + 1,
    }),
    ("last-time", |n| PredictorConfig::LastTime {
        addr_bits: n % 9,
    }),
];

#[test]
fn every_plan_kind_splits_cleanly_past_the_packed_lane_limit() {
    // PACKED_LANES + 1 lanes of every plan kind force a second group
    // per kind; lanes of all kinds are interleaved with each other and
    // with statics, so every group's lanes are scattered across the
    // configuration order.
    let lanes_per_kind = cell::PACKED_LANES as u32 + 1;
    let statics = [
        PredictorConfig::AlwaysTaken,
        PredictorConfig::AlwaysNotTaken,
        PredictorConfig::Btfn,
    ];
    let mut configs = Vec::new();
    for n in 0..lanes_per_kind {
        configs.extend(PLAN_KIND_LANES.iter().map(|(_, lane)| lane(n)));
        configs.push(statics[n as usize % 3]);
    }
    let trace = suite::sdet().scaled(2_500).trace(53);
    let serial = serial_reference(&configs, &trace, Simulator::with_warmup(400));
    let multilane = one_lane_set(&configs, &trace, Simulator::with_warmup(400));
    assert_eq!(serial, multilane);

    let counts = LaneSet::new(&configs, Simulator::new()).lane_tier_counts();
    assert_eq!(counts.iter().sum::<u64>() as usize, configs.len());
    let of = |label: &str| counts[LANE_TIER_LABELS.iter().position(|&l| l == label).unwrap()];
    if std::env::var("BPRED_FORCE_SCALAR").is_ok_and(|v| !v.is_empty() && v != "0") {
        assert_eq!(of("scalar") as usize, configs.len());
    } else {
        for (label, _) in PLAN_KIND_LANES {
            assert_eq!(of(label), u64::from(lanes_per_kind), "{label}");
        }
        assert_eq!(of("static"), u64::from(lanes_per_kind));
        assert_eq!(of("scalar"), 0);
    }
}

/// Conditionals (and a few jumps, for the path register) over `pcs`,
/// drawn by a fixed LCG: every pc recurs, so each one's counters are
/// touched by the others wherever their index bits agree.
fn trace_over(pcs: &[u64], records: usize) -> Trace {
    let mut x = 0x2545_F491_4F6C_DD1Du64;
    let mut trace = Trace::new();
    for _ in 0..records {
        x = x.wrapping_mul(0x5851_F42D_4C95_7F2D).wrapping_add(1);
        let pc = pcs[(x >> 40) as usize % pcs.len()];
        let target = pc.wrapping_sub(0x40 + 4 * ((x >> 20) & 0xF));
        if (x >> 33) & 15 == 0 {
            trace.push(BranchRecord::jump(pc + 8, target));
        }
        trace.push(BranchRecord::conditional(
            pc,
            target,
            Outcome::from((x >> 61) != 0),
        ));
    }
    trace
}

#[test]
fn pcs_sharing_their_low_bits_keep_distinct_owners() {
    // 0x40 and 0x1_0000_0040 share their low 32 bits, and
    // 0x3FFF_FFFF_FFFF_FFF8 shares its with 0xFFFF_FFF8: each pair
    // lands on the same slot of every table here, so only the owner
    // tags tell them apart. 0x2000_0040 escapes the direct tag range
    // as a third context would; 0xC000_0000_0000_0040 differs from
    // 0x40 only in bits the scalar owner tag drops, so it is the same
    // owner in both representations.
    let pcs = [
        0x40,
        0x1_0000_0040,
        0x3FFF_FFFF_FFFF_FFF8,
        0xFFFF_FFF8,
        0x2000_0040,
        0xC000_0000_0000_0040,
        0x44,
    ];
    let trace = trace_over(&pcs, 6_000);
    // A one-counter table beside the zero-bit gskew banks: every
    // access by another pc is a conflict.
    let mut configs = every_variant();
    configs.push(PredictorConfig::AddressIndexed { addr_bits: 0 });
    for warmup in [0, 700] {
        let simulator = Simulator::with_warmup(warmup);
        let serial = serial_reference(&configs, &trace, simulator);
        assert_eq!(serial, one_lane_set(&configs, &trace, simulator));
        assert_eq!(
            serial,
            run_batched_chunked(&configs, &trace, simulator, 4, 333)
        );
    }
}

#[test]
fn more_escaping_regions_than_windows_match_the_scalar_oracle() {
    // A prelude touches 4,100 escaping 64 KiB regions once each, more
    // than the narrow tags have windows for; then pcs in the first
    // windows, in regions past them (single tags) and in the direct
    // range recur. Every pc has the same low 16 bits, so they share
    // every table slot and only the owner tags tell them apart.
    let region = |r: u64| (1 << 40) + (r << 16);
    let mut trace: Trace = (0..4_100)
        .map(|r| BranchRecord::conditional(region(r), region(r) - 0x40, Outcome::Taken))
        .collect();
    let hot = [
        region(0),
        region(1),
        region(4_096),
        region(4_097),
        region(4_099),
        0x10_0000,
    ];
    trace.extend(trace_over(&hot, 12_000).iter().copied());
    let configs = every_variant();
    let simulator = Simulator::new();
    let serial = serial_reference(&configs, &trace, simulator);
    assert_eq!(serial, one_lane_set(&configs, &trace, simulator));
}

#[test]
fn four_context_multiprogrammed_mix_matches_the_scalar_oracle() {
    // Contexts 2 and 3 sit at 2^29 and 3 * 2^28, past the direct tag
    // range, and alias contexts 0 and 1 in every table index.
    let mix = Multiprogrammed::new(
        vec![
            suite::espresso(),
            suite::sdet(),
            suite::mpeg_play(),
            suite::real_gcc(),
        ],
        700,
    );
    let trace = mix.trace(1996, 8_000);
    assert!(trace.iter().any(|r| r.pc >= 3 << 28));
    let configs = every_variant();
    let simulator = Simulator::with_warmup(500);
    let serial = serial_reference(&configs, &trace, simulator);
    assert_eq!(serial, one_lane_set(&configs, &trace, simulator));
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

/// A configuration drawn from every dispatch tier, with degenerate
/// shapes (zero history, zero columns) included.
fn arb_config() -> impl Strategy<Value = PredictorConfig> {
    prop_oneof![
        Just(PredictorConfig::AlwaysTaken),
        Just(PredictorConfig::AlwaysNotTaken),
        Just(PredictorConfig::Btfn),
        (0u32..8, 0u32..4).prop_map(|(history_bits, col_bits)| PredictorConfig::Gshare {
            history_bits,
            col_bits
        }),
        (0u32..8, 0u32..4).prop_map(|(history_bits, col_bits)| PredictorConfig::Gas {
            history_bits,
            col_bits
        }),
        (0u32..8).prop_map(|addr_bits| PredictorConfig::AddressIndexed { addr_bits }),
        (0u32..6, 1u32..3).prop_map(|(history_bits, col_bits)| PredictorConfig::PasInfinite {
            history_bits,
            col_bits
        }),
        (2u32..6, 2u32..6, 2u32..6).prop_map(|(addr_bits, history_bits, chooser_bits)| {
            PredictorConfig::Tournament {
                addr_bits,
                history_bits,
                chooser_bits,
            }
        }),
        (
            0u32..6,
            0u32..3,
            prop::sample::select(vec![(8u32, 1u32), (16, 2), (16, 16), (64, 4)])
        )
            .prop_map(|(history_bits, col_bits, (entries, ways))| {
                PredictorConfig::PasFinite {
                    history_bits,
                    col_bits,
                    entries,
                    ways,
                }
            }),
        (0u32..6, 0u32..4, 0u32..3).prop_map(|(history_bits, set_bits, col_bits)| {
            PredictorConfig::Sas {
                history_bits,
                set_bits,
                col_bits,
            }
        }),
        // history <= index/direction bits is asserted by the scalar
        // kernels; derive the history from the table shape.
        (1u32..8, 0u32..3).prop_map(|(index_bits, h_back)| PredictorConfig::Agree {
            history_bits: index_bits.saturating_sub(h_back),
            index_bits,
        }),
        (1u32..7, 0u32..3, 0u32..6).prop_map(|(direction_bits, h_back, choice_bits)| {
            PredictorConfig::BiMode {
                history_bits: direction_bits.saturating_sub(h_back),
                direction_bits,
                choice_bits,
            }
        }),
        (0u32..10, 0u32..8).prop_map(|(history_bits, bank_bits)| PredictorConfig::Gskew {
            history_bits,
            bank_bits,
        }),
        (0u32..8).prop_map(|addr_bits| PredictorConfig::LastTime { addr_bits }),
        // bits_per_target is asserted 1..=16 by the path register.
        (0u32..8, 0u32..3, 1u32..5).prop_map(|(row_bits, col_bits, bits_per_target)| {
            PredictorConfig::Path {
                row_bits,
                col_bits,
                bits_per_target,
            }
        }),
        // tag_bits is asserted 1..=8 by the scalar kernel.
        (0u32..7, 0u32..7, 1u32..=8).prop_map(|(choice_bits, cache_bits, tag_bits)| {
            PredictorConfig::Yags {
                choice_bits,
                cache_bits,
                tag_bits,
            }
        }),
    ]
}

/// Branch addresses mixing low pcs with ones that share their low bits
/// but sit past 2^29, 2^32 or near the top of the address space.
fn arb_mixed_pc() -> impl Strategy<Value = u64> {
    (
        0u64..12,
        prop::sample::select(vec![
            0u64,
            1 << 28,
            1 << 29,
            3 << 28,
            1 << 32,
            0x3FFF_FFFF_0000_0000,
            0xC000_0000_0000_0000,
        ]),
    )
        .prop_map(|(slot, base)| base + 0x1000 + 4 * slot)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Low and high pcs mixed in one stream: the narrow owner tags of
    /// the fused arenas count exactly the conflicts the scalar
    /// oracle's full tags do.
    #[test]
    fn mixed_low_and_high_pcs_match_the_scalar_oracle(
        records in prop::collection::vec((arb_mixed_pc(), any::<bool>(), 0u64..4), 1..200),
        configs in prop::collection::vec(arb_config(), 1..12),
        warmup in 0usize..100,
    ) {
        let trace: Trace = records
            .into_iter()
            .map(|(pc, taken, back)| {
                BranchRecord::conditional(pc, pc - 0x40 * back, Outcome::from(taken))
            })
            .collect();
        let simulator = Simulator::with_warmup(warmup);
        let serial = serial_reference(&configs, &trace, simulator);
        prop_assert_eq!(&serial, &one_lane_set(&configs, &trace, simulator));
        prop_assert_eq!(&serial, &run_batched_chunked(&configs, &trace, simulator, 4, 7));
    }

    /// Any trace, any lane mix, any warmup, any chunking: the
    /// multilane kernels are bit-identical to the scalar oracle.
    #[test]
    fn multilane_matches_serial_on_arbitrary_lane_mixes(
        records in prop::collection::vec(arb_record(), 1..200),
        configs in prop::collection::vec(arb_config(), 1..12),
        warmup in 0usize..150,
        chunk_extra in 0usize..4,
    ) {
        let trace: Trace = records.into_iter().collect();
        let len = trace.len();
        let simulator = Simulator::with_warmup(warmup);
        let serial = serial_reference(&configs, &trace, simulator);
        prop_assert_eq!(
            &serial,
            &one_lane_set(&configs, &trace, simulator),
            "one-shot multilane"
        );
        for chunk_len in [1, 7, len.max(2) - 1, len + chunk_extra] {
            if chunk_len == 0 {
                continue;
            }
            let chunked = run_batched_chunked(&configs, &trace, simulator, 4, chunk_len);
            prop_assert_eq!(&serial, &chunked, "chunk_len {}", chunk_len);
        }
    }
}

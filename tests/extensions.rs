//! Integration tests for the extensions beyond the paper: the
//! dealiased predictors its conclusion motivated, per-set history,
//! per-branch attribution, context switching, and the CPI model.

use bpred::core::{Agree, BiMode, Gshare, Gskew, PredictorConfig, Sas};
use bpred::sim::{run_config, CpiModel, ProfiledRun, Simulator};
use bpred::trace::Trace;
use bpred::workloads::{suite, Multiprogrammed};

fn trace_of(name: &str, branches: usize) -> Trace {
    suite::by_name(name)
        .expect("benchmark exists")
        .scaled(branches)
        .trace(77)
}

/// The paper's conclusion: "controlling aliasing will be the key to
/// improving prediction accuracy". The agree predictor must beat
/// plain gshare at matched size on a large-program model where
/// gshare is aliasing-bound.
#[test]
fn agree_dealiases_gshare_on_large_programs() {
    let trace = trace_of("mpeg_play", 150_000);
    let sim = Simulator::new();
    let mut gshare = Gshare::new(12, 0);
    let gshare_result = sim.run(&mut gshare, &trace);
    let mut agree = Agree::new(12, 12);
    let agree_result = sim.run(&mut agree, &trace);
    assert!(
        agree_result.misprediction_rate() < gshare_result.misprediction_rate(),
        "agree {:.4} should beat gshare {:.4}",
        agree_result.misprediction_rate(),
        gshare_result.misprediction_rate()
    );
}

/// Bi-mode and gskew must also land at or below gshare's rate at
/// matched direction-state on the aliasing-heavy model.
#[test]
fn bimode_and_gskew_do_not_lose_to_gshare() {
    let trace = trace_of("real_gcc", 150_000);
    let sim = Simulator::new();
    let gshare = sim
        .run(&mut Gshare::new(13, 0), &trace)
        .misprediction_rate();
    let bimode = sim
        .run(&mut BiMode::new(12, 12, 12), &trace)
        .misprediction_rate();
    let gskew = sim
        .run(&mut Gskew::new(12, 12), &trace)
        .misprediction_rate();
    assert!(
        bimode < gshare + 0.01,
        "bimode {bimode:.4} vs gshare {gshare:.4}"
    );
    assert!(
        gskew < gshare + 0.01,
        "gskew {gskew:.4} vs gshare {gshare:.4}"
    );
}

/// SAs interpolates the taxonomy: with enough sets it must approach
/// untagged per-address behaviour and beat the single-set (GAs-like)
/// configuration on a self-history-friendly model.
#[test]
fn more_history_sets_help_on_self_history_workloads() {
    let trace = trace_of("mpeg_play", 120_000);
    let sim = Simulator::new();
    let one_set = sim
        .run(&mut Sas::new(10, 0, 0), &trace)
        .misprediction_rate();
    let many_sets = sim
        .run(&mut Sas::new(10, 10, 0), &trace)
        .misprediction_rate();
    assert!(
        many_sets < one_set,
        "2^10 sets {many_sets:.4} should beat 1 set {one_set:.4}"
    );
}

/// Per-branch attribution reproduces the paper's concentration
/// argument: a small fraction of static branches carries most of the
/// error mass.
#[test]
fn misprediction_mass_is_concentrated() {
    let trace = trace_of("real_gcc", 150_000);
    let mut p = PredictorConfig::AddressIndexed { addr_bits: 12 }.build();
    let run = ProfiledRun::run(&mut p, &trace);
    let for_half = run.branches_for_error_fraction(0.5);
    let statics = run.static_branches();
    assert!(
        for_half * 10 < statics,
        "half the misses come from {for_half} of {statics} branches — not concentrated"
    );
    // Attribution must tie out with the aggregate.
    let direct = run_config(
        PredictorConfig::AddressIndexed { addr_bits: 12 },
        &trace,
        Simulator::new(),
    );
    assert_eq!(run.result, direct);
}

/// The CPI model orders predictors the same way misprediction rates
/// do, and deep pipelines widen the gaps.
#[test]
fn cpi_model_is_monotone_in_rate() {
    let trace = trace_of("gs", 100_000);
    let sim = Simulator::new();
    let good = sim
        .run(
            &mut PredictorConfig::PasInfinite {
                history_bits: 10,
                col_bits: 2,
            }
            .build(),
            &trace,
        )
        .misprediction_rate();
    let bad = sim
        .run(
            &mut PredictorConfig::Gas {
                history_bits: 10,
                col_bits: 0,
            }
            .build(),
            &trace,
        )
        .misprediction_rate();
    assert!(good < bad);
    let model = CpiModel::mips_r2000_like();
    assert!(model.cpi(good) < model.cpi(bad));
    let deep = CpiModel::deep_pipeline();
    let shallow_gap = model.cpi(bad) - model.cpi(good);
    let deep_gap = deep.cpi(bad) - deep.cpi(good);
    assert!(deep_gap > shallow_gap);
}

/// Boxed dyn predictors from every extension config behave and report
/// consistently through the engine.
#[test]
fn extension_configs_run_through_the_engine() {
    let trace = trace_of("nroff", 30_000);
    for text in [
        "sas:h=8,s=6,c=2",
        "agree:h=11,i=12",
        "bimode:h=10,d=11,k=10",
        "gskew:h=10,b=11",
        "tournament:a=10,h=10,k=10",
    ] {
        let config: PredictorConfig = text.parse().expect("valid config");
        let result = run_config(config, &trace, Simulator::new());
        assert_eq!(result.conditionals, 30_000, "{text}");
        assert!(result.misprediction_rate() < 0.5, "{text}: {result}");
        assert!(result.alias.is_some(), "{text} should track aliasing");
    }
}

/// Multiprogrammed interleaving (the IBS traces' kernel/X-server
/// time-slicing) pollutes shared predictor state: the mix mispredicts
/// at least as much as the weighted solo average.
#[test]
fn context_switching_pollutes_predictor_state() {
    let a = suite::mpeg_play().scaled(30_000);
    let b = suite::sdet().scaled(30_000);
    let config = PredictorConfig::Gshare {
        history_bits: 10,
        col_bits: 0,
    };
    let sim = Simulator::new();
    let solo_a = run_config(config, &a.trace(9), sim).misprediction_rate();
    let solo_b = run_config(config, &b.trace(9), sim).misprediction_rate();
    let solo_avg = (solo_a + solo_b) / 2.0;

    let mixed = Multiprogrammed::new(vec![a, b], 500);
    let mixed_rate = run_config(config, &mixed.trace(9, 60_000), sim).misprediction_rate();
    assert!(
        mixed_rate > solo_avg - 0.005,
        "mixed {mixed_rate:.4} vs solo average {solo_avg:.4}"
    );
    // And a shorter quantum (more switching) should not help either.
    let churny = Multiprogrammed::new(
        vec![
            suite::mpeg_play().scaled(30_000),
            suite::sdet().scaled(30_000),
        ],
        50,
    );
    let churny_rate = run_config(config, &churny.trace(9, 60_000), sim).misprediction_rate();
    assert!(churny_rate > solo_avg - 0.005);
}

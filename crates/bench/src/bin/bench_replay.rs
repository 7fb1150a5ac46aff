//! Tracked replay-throughput measurement behind `BENCH_replay.json`.
//!
//! Replays the acceptance-sized sweep (32 configurations × 120k
//! branches of the IBS-calibrated `mpeg_play` workload, seed 2)
//! through the chunked engine once per kernel family and once per
//! dispatch mode, and writes the measured predict+update pairs per
//! second — plus toolchain metadata and the chunk-generation rates of
//! `mpeg_play` and of the largest model, `real_gcc` — as JSON:
//!
//! ```text
//! cargo run --release -p bpred-bench --bin bench_replay -- [out.json] [--quick]
//! # scripts/bench_replay.sh wraps this and writes BENCH_replay.json
//! ```
//!
//! Modes per family:
//!
//! - `scalar` — `BPRED_FORCE_SCALAR=1`: every lane is the pinned
//!   hoisted-dispatch [`ReplayCore`](bpred_sim::ReplayCore) fallback.
//! - `multilane` — the default tier
//!   ([`dispatch_tier`]): the fused
//!   lane-major group kernels.
//!
//! Both modes produce bit-identical results (asserted here on every
//! run); only wall-clock differs. Families cover the Direct shapes
//! (gshare/GAs/address-indexed), the statics, the table-walk-plan
//! families (PAs with a perfect and with a finite first level,
//! SAs/agree/bi-mode/gskew), and the multi-structure plans
//! (tournament/YAGS/path/lasttime). A multilane row whose sweep
//! actually ran lanes on the scalar tier is recorded as
//! `"mode": "scalar-fallback"` instead of a misleading multilane
//! number. A spill-scale scenario block re-measures the multilane
//! tier at arena footprints from within L2 to past the LLC, and every
//! row records the chunk-level prefetch the footprint gate resolved.
//! Alongside the gshare headline `speedup`, the artifact carries a
//! `geomean_speedup` across all kernel families. `--quick` shrinks
//! the trace and rep count for CI smoke use and additionally asserts
//! that every family reports a non-fallback multilane row and that no
//! row anywhere degraded to `"scalar-fallback"`.

use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Instant;

use bpred_bench::replay_rows::{families, spill_rows, Family};
use bpred_bench::rustc_version;
use bpred_core::PredictorConfig;
use bpred_serve::json::escape;
use bpred_sim::{dispatch_tier, run_batched_chunked, SimResult, Simulator, DEFAULT_SHARD_SIZE};
use bpred_trace::{TraceChunk, TraceSource};
use bpred_workloads::{suite, WorkloadSource};

/// A measured (family × mode) cell. `mode` is the requested dispatch
/// mode, rewritten to `"scalar-fallback"` when a multilane
/// measurement actually ran lanes on the scalar tier — a fallback row
/// must not masquerade as a multilane number.
struct Measurement {
    family: String,
    mode: String,
    lanes: usize,
    pairs_per_sec: f64,
    /// The chunk-level arena prefetch the footprint heuristic resolved
    /// for this row: `"on"` when any fused group prefetched, `"off"`
    /// otherwise (scalar rows have no groups, hence always `"off"`).
    prefetch: &'static str,
}

/// The prefetch choice the engine resolved for the sweep that just
/// ran, as recorded per row in the artifact.
fn resolved_prefetch() -> &'static str {
    if bpred_sim::replay_prefetch_groups() > 0 {
        "on"
    } else {
        "off"
    }
}

/// Replays `configs` against `source` `reps` times and returns the
/// best pairs/s plus the (bit-identical across reps) results.
fn measure(
    configs: &[PredictorConfig],
    source: &WorkloadSource,
    records: usize,
    reps: usize,
) -> (f64, Vec<SimResult>) {
    let mut best = 0.0f64;
    let mut results = Vec::new();
    for _ in 0..reps {
        let start = Instant::now();
        let run = run_batched_chunked(
            configs,
            source,
            Simulator::new(),
            DEFAULT_SHARD_SIZE,
            TraceChunk::DEFAULT_LEN,
        );
        let pairs_per_sec = (records * configs.len()) as f64 / start.elapsed().as_secs_f64();
        best = best.max(pairs_per_sec);
        results = run;
    }
    (best, results)
}

/// Best-of-`reps` records per second of generating `source` into
/// default-length chunks, asserting every pass emits `records`.
fn generation_rate(source: &WorkloadSource, records: usize, reps: usize) -> f64 {
    let mut best = 0.0f64;
    for _ in 0..reps {
        let start = Instant::now();
        let n: usize = source
            .chunks(TraceChunk::DEFAULT_LEN)
            .map(|c| c.len())
            .sum();
        assert_eq!(n, records);
        best = best.max(records as f64 / start.elapsed().as_secs_f64());
    }
    best
}

fn main() -> ExitCode {
    let mut out_path = "BENCH_replay.json".to_owned();
    let mut quick = false;
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--quick" => quick = true,
            "--help" | "-h" => {
                eprintln!("usage: bench_replay [out.json] [--quick]");
                return ExitCode::SUCCESS;
            }
            path => out_path = path.to_owned(),
        }
    }
    let (conditionals, reps) = if quick { (20_000, 1) } else { (120_000, 3) };

    // Worker count changes wall-clock, never results; pin it so the
    // artifact measures the kernels, not the machine's core count.
    if std::env::var_os("BPRED_THREADS").is_none() {
        std::env::set_var("BPRED_THREADS", "1");
    }
    std::env::remove_var("BPRED_FORCE_SCALAR");

    let source = WorkloadSource::new(suite::mpeg_play().scaled(conditionals), 2);
    let records: usize = source
        .chunks(TraceChunk::DEFAULT_LEN)
        .map(|c| c.len())
        .sum();

    // Chunk generation alone: every sweep pays this once regardless
    // of tier, so it bounds the speedup any replay kernel can show
    // (Amdahl) — reported so the decomposition can subtract it. The
    // sweep's own mpeg_play model, and real_gcc: the largest program
    // (15,351 static branches) and the model behind the narrow sweeps
    // where generation is half the time.
    let gen_records_per_sec = generation_rate(&source, records, reps);
    let real_gcc = WorkloadSource::new(suite::real_gcc().scaled(conditionals), 2);
    let real_gcc_records = real_gcc.stream().count();
    let gen_real_gcc_records_per_sec = generation_rate(&real_gcc, real_gcc_records, reps);
    eprintln!(
        "chunk generation: {:.1} M records/s (mpeg_play), {:.1} M records/s (real_gcc)",
        gen_records_per_sec / 1e6,
        gen_real_gcc_records_per_sec / 1e6
    );

    // (mode name, whether BPRED_FORCE_SCALAR is set)
    let modes = [("scalar", true), ("multilane", false)];

    let mut measurements: Vec<Measurement> = Vec::new();
    for family in families() {
        let mut oracle: Option<Vec<SimResult>> = None;
        for (mode, force_scalar) in modes {
            if force_scalar {
                std::env::set_var("BPRED_FORCE_SCALAR", "1");
            } else {
                std::env::remove_var("BPRED_FORCE_SCALAR");
            }
            let (pairs_per_sec, results) = measure(&family.configs, &source, records, reps);
            match &oracle {
                None => oracle = Some(results),
                Some(want) => assert_eq!(
                    want, &results,
                    "{} {mode} diverged from the scalar oracle",
                    family.name
                ),
            }
            // A multilane row that actually ran lanes on the scalar
            // tier is not a multilane number: mark it instead of
            // recording a misleading rate.
            let fell_back = !force_scalar && bpred_sim::replay_scalar_lanes() > 0;
            let mode = if fell_back {
                "scalar-fallback".to_owned()
            } else {
                mode.to_owned()
            };
            eprintln!(
                "{:<16} {:<16} {:>2} lanes  {:>7.1} M pairs/s",
                family.name,
                mode,
                family.configs.len(),
                pairs_per_sec / 1e6
            );
            measurements.push(Measurement {
                family: family.name.to_owned(),
                mode,
                lanes: family.configs.len(),
                pairs_per_sec,
                prefetch: resolved_prefetch(),
            });
        }
    }
    std::env::remove_var("BPRED_FORCE_SCALAR");

    // Spill-scale scenarios (`spill_rows`): each row records
    // whether the footprint gate turned chunk-level prefetch on.
    for Family { name, configs } in spill_rows() {
        let (pairs_per_sec, _) = measure(&configs, &source, records, reps);
        let prefetch = resolved_prefetch();
        eprintln!(
            "{:<16} multilane ({prefetch:<3}) {:>2} lanes  {:>7.1} M pairs/s",
            name,
            configs.len(),
            pairs_per_sec / 1e6
        );
        measurements.push(Measurement {
            family: name.to_owned(),
            mode: "multilane".to_owned(),
            lanes: configs.len(),
            pairs_per_sec,
            prefetch,
        });
    }

    // Schema assertion (CI smoke runs `--quick`): every family in
    // this table is groupable, so each must report a non-fallback
    // multilane row. A family silently landing on the scalar tier is
    // a dispatch regression, not a slow day.
    if quick {
        for family in measurements
            .iter()
            .map(|m| m.family.as_str())
            .collect::<std::collections::BTreeSet<_>>()
        {
            assert!(
                measurements
                    .iter()
                    .any(|m| m.family == family && m.mode.starts_with("multilane")),
                "groupable family {family} reported no non-fallback multilane mode"
            );
        }
        // Every PredictorConfig family is plan-covered now: a
        // fallback row anywhere is a dispatch regression.
        assert!(
            measurements.iter().all(|m| m.mode != "scalar-fallback"),
            "a sweep degraded to the scalar fallback tier"
        );
    }

    // The headline numbers: the acceptance sweep's scalar baseline vs
    // the full multilane tier.
    let overall = |mode: &str| {
        measurements
            .iter()
            .find(|m| m.family == "gshare" && m.mode == mode)
            .expect("gshare sweep measured")
            .pairs_per_sec
    };
    let scalar = overall("scalar");
    let multilane = overall("multilane");
    let speedup = multilane / scalar;
    eprintln!("\ngshare sweep: {:.2}x over the scalar fallback", speedup);

    // Geomean of multilane-over-scalar across every kernel family, so
    // the trajectory number survives family additions instead of
    // riding on gshare alone. Spill scenarios have no scalar rows and
    // stay out of it.
    let family_speedups: Vec<f64> = measurements
        .iter()
        .filter(|m| m.mode == "multilane")
        .filter_map(|m| {
            measurements
                .iter()
                .find(|s| s.family == m.family && s.mode == "scalar")
                .map(|s| m.pairs_per_sec / s.pairs_per_sec)
        })
        .collect();
    let geomean_speedup =
        (family_speedups.iter().map(|s| s.ln()).sum::<f64>() / family_speedups.len() as f64).exp();
    eprintln!(
        "geomean over {} families: {:.2}x over the scalar fallback",
        family_speedups.len(),
        geomean_speedup
    );

    let mut json = String::new();
    let _ = writeln!(json, "{{");
    let _ = writeln!(json, "  \"bench\": \"replay_throughput\",");
    let _ = writeln!(json, "  \"conditionals\": {conditionals},");
    let _ = writeln!(json, "  \"records\": {records},");
    let _ = writeln!(json, "  \"reps\": {reps},");
    let _ = writeln!(json, "  \"dispatch_tier\": \"{}\",", dispatch_tier());
    let _ = writeln!(json, "  \"rustc\": \"{}\",", escape(&rustc_version()));
    let _ = writeln!(
        json,
        "  \"rustflags\": \"{}\",",
        escape(&std::env::var("RUSTFLAGS").unwrap_or_default())
    );
    let _ = writeln!(
        json,
        "  \"profile\": \"{}\",",
        if cfg!(debug_assertions) {
            "dev"
        } else {
            "release"
        }
    );
    let _ = writeln!(
        json,
        "  \"threads\": \"{}\",",
        escape(&std::env::var("BPRED_THREADS").unwrap_or_default())
    );
    let _ = writeln!(json, "  \"gen_records_per_sec\": {gen_records_per_sec:.0},");
    let _ = writeln!(
        json,
        "  \"gen_real_gcc_records_per_sec\": {gen_real_gcc_records_per_sec:.0},"
    );
    let _ = writeln!(json, "  \"scalar_pairs_per_sec\": {scalar:.0},");
    let _ = writeln!(json, "  \"multilane_pairs_per_sec\": {multilane:.0},");
    let _ = writeln!(json, "  \"speedup\": {speedup:.3},");
    let _ = writeln!(json, "  \"geomean_speedup\": {geomean_speedup:.3},");
    let _ = writeln!(json, "  \"sweeps\": [");
    for (i, m) in measurements.iter().enumerate() {
        let comma = if i + 1 == measurements.len() { "" } else { "," };
        let _ = writeln!(
            json,
            "    {{\"family\": \"{}\", \"mode\": \"{}\", \"lanes\": {}, \"pairs_per_sec\": {:.0}, \"prefetch\": \"{}\"}}{comma}",
            m.family, m.mode, m.lanes, m.pairs_per_sec, m.prefetch
        );
    }
    let _ = writeln!(json, "  ]");
    let _ = writeln!(json, "}}");

    if let Err(e) = std::fs::write(&out_path, &json) {
        eprintln!("cannot write {out_path}: {e}");
        return ExitCode::FAILURE;
    }
    println!("{out_path}");
    ExitCode::SUCCESS
}

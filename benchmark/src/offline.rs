//! The two offline workloads, both closed loop (one caller; the next
//! operation starts when the last one finishes).
//!
//! - `paper-repro`: the `all` binary — every table and figure of the
//!   paper, over the paper's whole design space — run as a child
//!   process, as the paper's readers run it.
//! - `sweep-narrow`: one small sweep (four configurations over
//!   `real_gcc`), the shape of a `/sweep` cold miss, repeated in
//!   process.
//!
//! A reference pass ([`crate::host`]) follows every operation and
//! every set-up, and each is reported at reference speed.

use std::io::Read as _;
use std::path::Path;
use std::process::{Command, Stdio};
use std::time::Instant;

use bpred_core::PredictorConfig;
use bpred_sim::experiments::{
    self, render_difference, render_size_series, ExperimentOptions, Table3Scheme,
};
use bpred_sim::report::{render_surface, render_tier};
use bpred_sim::{records_replayed_total, run_batched, SimResult, Simulator, DEFAULT_SHARD_SIZE};
use bpred_trace::stats::TraceStats;
use bpred_workloads::{suite, WorkloadSource};

use crate::host;
use crate::layers::{self, Sweep};
use crate::stats::{median, summarize};
use crate::trace::{total_count, total_secs, Tracer};
use crate::{fnv64, peak_rss_mib, Ctx, Outcome};

/// Conditional branches per benchmark trace in `paper-repro`
/// (`all --branches`): a twentieth to a sixtieth of the paper's
/// lengths, so one reproduction takes about a second and a run holds
/// dozens, each paired with the reference pass timed right after it.
/// Every exhibit still sweeps its full design space (tiers 2^4 to
/// 2^15).
const PAPER_BRANCHES: usize = 20_000;

/// The pinned reproduction: trace seed → FNV-1a 64 digest of what
/// `all --seed <seed> --branches 20000` prints, and of what
/// `all --seed <seed> --quick` prints. Seed 1996 is the paper default;
/// the others are held out. Recompute a digest by running the workload
/// with that seed: a mismatch prints the digest the run produced.
const PAPER_PINS: [(u64, u64, u64); 4] = [
    (1996, 0xec25_f329_14de_900c, 0x45ef_13f0_33da_98f6),
    (7, 0xa75b_9374_008e_bd72, 0x3216_954e_cac5_0fd0),
    (42, 0xf55f_4144_da76_9f46, 0xa341_fd08_3536_3f19),
    (2024, 0xc6e2_5dae_6413_2ca1, 0xd4f4_8fd9_3aa8_630d),
];

/// The benchmark seed's trace seed for `paper-repro`: a pinned seed
/// maps to itself, any other seed to a pinned one, because the output
/// can only be checked against a pinned digest.
fn paper_trace_seed(seed: u64) -> (u64, u64, u64) {
    PAPER_PINS
        .iter()
        .copied()
        .find(|&(s, _, _)| s == seed)
        .unwrap_or(PAPER_PINS[(seed % PAPER_PINS.len() as u64) as usize])
}

/// Checks one reproduction's output against its pinned digest.
fn check_output(out: &mut Outcome, text: &[u8], trace_seed: u64, digest: u64) {
    let got = fnv64(text);
    out.check(got == digest, || {
        format!("paper-repro output digest {got:016x} != pinned {digest:016x} (trace seed {trace_seed})")
    });
}

/// What one run of a child process left behind.
struct ChildRun {
    stdout: Vec<u8>,
    /// Exited with status 0.
    ok: bool,
    /// Peak resident set of the child, in MiB.
    peak_rss_mib: f64,
}

/// `struct rusage` on 64-bit Linux: two `timeval`s, then fourteen
/// `long`s starting with `ru_maxrss` (KiB).
#[repr(C)]
struct Rusage {
    times: [i64; 4],
    maxrss_kib: i64,
    rest: [i64; 13],
}

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
}

/// Runs `bin args`, collecting its standard output, and reaps it with
/// `wait4(2)` for its peak resident set (which `std::process` does not
/// report).
fn run_child(bin: &Path, args: &[String]) -> Result<ChildRun, String> {
    let mut child = Command::new(bin)
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
    let mut stdout = Vec::new();
    let read = child
        .stdout
        .take()
        .expect("stdout is piped")
        .read_to_end(&mut stdout);
    let pid = child.id() as i32;
    let mut status = 0i32;
    let mut usage = Rusage {
        times: [0; 4],
        maxrss_kib: 0,
        rest: [0; 13],
    };
    // SAFETY: `pid` is this process's own unreaped child, `status` and
    // `usage` are live, exclusively borrowed and laid out as the C
    // types; the kernel writes only into them.
    let reaped = unsafe { wait4(pid, &mut status, 0, &mut usage) };
    if reaped != pid {
        return Err(format!(
            "wait4 on {}: {}",
            bin.display(),
            std::io::Error::last_os_error()
        ));
    }
    read.map_err(|e| format!("reading {} output: {e}", bin.display()))?;
    Ok(ChildRun {
        stdout,
        ok: status == 0,
        peak_rss_mib: usage.maxrss_kib as f64 / 1024.0,
    })
}

/// Exhibits in paper order, as named in the `experiments.<name>.*`
/// metrics.
const EXHIBITS: [&str; 11] = [
    "table1", "table2", "fig2", "fig3", "fig4", "fig6", "fig7", "fig8", "fig9", "fig10", "table3",
];

/// Median of `reps` timings of `f`, in seconds at reference speed.
fn median_setup_secs(reps: usize, mut f: impl FnMut()) -> f64 {
    let times: Vec<f64> = (0..reps)
        .map(|_| {
            let ((), secs, slowdown) = host::timed(&mut f);
            secs / slowdown
        })
        .collect();
    median(&times).expect("at least one repetition")
}

/// One closed-loop operation: its wall time in seconds and the host's
/// slowdown timed right after it.
#[derive(Debug, Clone, Copy)]
struct Rep {
    secs: f64,
    slowdown: f64,
}

/// Closed-loop repetitions: runs `op` at least `min_reps` times and
/// then while another repetition of the mean length (reference pass
/// included) still fits in `seconds`.
fn closed_loop(seconds: f64, min_reps: usize, mut op: impl FnMut(u64)) -> Vec<Rep> {
    let start = Instant::now();
    let mut reps = Vec::new();
    loop {
        let ((), secs, slowdown) = host::timed(|| op(reps.len() as u64));
        reps.push(Rep { secs, slowdown });
        let elapsed = start.elapsed().as_secs_f64();
        let mean = elapsed / reps.len() as f64;
        if reps.len() >= min_reps && elapsed + mean > seconds {
            return reps;
        }
    }
}

/// Fills the end-to-end metrics shared by the closed-loop workloads,
/// every time at reference speed. One caller keeps the program busy, so
/// capacity is operations over the time they took; the wall-clock
/// median and tail are reported beside them, ungated.
fn closed_loop_metrics(out: &mut Outcome, setup_s: f64, reps: &[Rep], rss_mib: f64) {
    let scaled_ms: Vec<f64> = reps.iter().map(|r| r.secs * 1e3 / r.slowdown).collect();
    let wall_ms: Vec<f64> = reps.iter().map(|r| r.secs * 1e3).collect();
    let slowdowns: Vec<f64> = reps.iter().map(|r| r.slowdown).collect();
    let scaled = summarize(&scaled_ms).expect("at least one repetition");
    let wall = summarize(&wall_ms).expect("at least one repetition");
    out.e2e.insert("setup_s".into(), setup_s);
    out.e2e.insert("latency_ms".into(), scaled.p50);
    out.e2e.insert(
        "capacity_per_s".into(),
        1e3 * reps.len() as f64 / scaled_ms.iter().sum::<f64>(),
    );
    out.e2e.insert("peak_rss_mib".into(), rss_mib);
    out.note("operations", scaled.n as f64, "count");
    out.note(
        &format!("latency_ms.p{:.0}", scaled.tail_pct),
        scaled.tail,
        "ms",
    );
    out.note("wall.p50_ms", wall.p50, "ms");
    out.note(&format!("wall.p{:.0}_ms", wall.tail_pct), wall.tail, "ms");
    out.note(
        "host.slowdown.p50",
        median(&slowdowns).expect("at least one repetition"),
        "ratio",
    );
}

/// Reproductions a `paper-repro` run makes at least, so its median and
/// tail are not one sample.
const PAPER_MIN_REPS: usize = 3;
/// Set-ups a run times; `setup_s` is their median.
const SETUPS: usize = 21;

/// `paper-repro`: `all` as a child process, repeated, each output
/// checked against the pinned digest.
pub fn paper_repro(ctx: &Ctx, tracer: Option<&Tracer>) -> Result<Outcome, String> {
    let all = ctx.bin("all")?;
    let (trace_seed, digest, quick_digest) = paper_trace_seed(ctx.seed);
    let mut args = vec!["--seed".to_owned(), trace_seed.to_string()];
    if ctx.quick {
        args.push("--quick".to_owned());
    } else {
        args.extend(["--branches".to_owned(), PAPER_BRANCHES.to_string()]);
    }
    let expected = if ctx.quick { quick_digest } else { digest };
    let mut out = Outcome::default();
    out.note("trace_seed", trace_seed as f64, "seed");

    // Set-up: what every exhibit consumes first — the fourteen workload
    // models and the focus set.
    let setup_s = median_setup_secs(SETUPS, || {
        std::hint::black_box((suite::all(), suite::focus()));
    });

    let mut runs = Vec::new();
    let reps = closed_loop(ctx.seconds, PAPER_MIN_REPS, |_| {
        runs.push(run_child(&all, &args));
    });
    let mut rss = Vec::new();
    for run in runs {
        let run = run?;
        out.check(run.ok, || "all exited with a failure status".to_owned());
        check_output(&mut out, &run.stdout, trace_seed, expected);
        rss.push(run.peak_rss_mib);
    }
    closed_loop_metrics(
        &mut out,
        setup_s,
        &reps,
        median(&rss).expect("at least one reproduction"),
    );

    if let Some(tracer) = tracer {
        let opts = ExperimentOptions {
            seed: trace_seed,
            branches: Some(if ctx.quick { 50_000 } else { PAPER_BRANCHES }),
            max_bits: if ctx.quick {
                10
            } else {
                ExperimentOptions::default().max_bits
            },
            ..ExperimentOptions::default()
        };
        paper_layers(tracer, &opts, &mut out);
    }
    Ok(out)
}

/// Times `compute` as exhibit `name` (with the replay pairs it drove)
/// and `render` of its result as `report.render`.
fn exhibit<T>(
    tracer: &Tracer,
    name: &str,
    compute: impl FnOnce() -> T,
    render: impl FnOnce(&T) -> String,
) {
    let before = records_replayed_total();
    let open = tracer.open(&format!("experiments.{name}"), None, None);
    let value = compute();
    tracer.close(open, &[("pairs", records_replayed_total() - before)]);
    let open = tracer.open("report.render", None, None);
    let text = render(&value);
    tracer.close(open, &[("bytes", text.len() as u64)]);
}

/// Renders every surface, and each tier's aliasing (Figure 5).
fn surfaces_text(surfaces: &[bpred_sim::Surface], aliasing: bool) -> String {
    let mut text = String::new();
    for surface in surfaces {
        text.push_str(&render_surface(surface));
        if aliasing {
            for tier in &surface.tiers {
                text.push_str(&render_tier(tier, |p| p.result.alias_rate()));
            }
        }
    }
    text
}

/// Per-layer passes of `paper-repro`: the exhibits `all` prints, called
/// in process one by one, then the trace, chunk and sim layers over the
/// reproduction's inputs.
fn paper_layers(tracer: &Tracer, opts: &ExperimentOptions, out: &mut Outcome) {
    let t = tracer;
    exhibit(t, "table1", || experiments::table1(opts), |x| x.render());
    exhibit(t, "table2", || experiments::table2(opts), |x| x.render());
    exhibit(
        t,
        "fig2",
        || experiments::fig2(opts),
        |x| render_size_series(x).render(),
    );
    exhibit(
        t,
        "fig3",
        || experiments::fig3(opts),
        |x| render_size_series(x).render(),
    );
    exhibit(
        t,
        "fig4",
        || experiments::fig4(opts),
        |x| surfaces_text(x, true),
    );
    exhibit(
        t,
        "fig6",
        || experiments::fig6(opts),
        |x| surfaces_text(x, false),
    );
    exhibit(
        t,
        "fig7",
        || experiments::fig7(opts),
        |x| render_difference(x).render(),
    );
    exhibit(
        t,
        "fig8",
        || experiments::fig8(opts),
        |x| render_difference(x).render(),
    );
    exhibit(
        t,
        "fig9",
        || experiments::fig9(opts),
        |x| surfaces_text(x, false),
    );
    exhibit(
        t,
        "fig10",
        || experiments::fig10(opts, &[128, 1024, 2048]),
        |x| surfaces_text(x, false),
    );
    let budgets: Vec<u32> = [9u32, 12, 15]
        .into_iter()
        .filter(|&b| b >= opts.min_bits && b <= opts.max_bits)
        .collect();
    exhibit(
        t,
        "table3",
        || experiments::table3(opts, &budgets, &Table3Scheme::all()),
        |x| x.render(),
    );
    let spans = tracer.spans();
    for name in EXHIBITS {
        let span = format!("experiments.{name}");
        out.layers
            .insert(format!("{span}.s"), total_secs(&spans, &span));
        out.layers.insert(
            format!("{span}.pairs"),
            total_count(&spans, &span, "pairs") as f64,
        );
    }
    out.layers.insert(
        "report.render_s".into(),
        total_secs(&spans, "report.render"),
    );

    // Table 1/2 trace materialisation and statistics, per model.
    for model in suite::all().iter().chain(suite::focus().iter()) {
        let open = tracer.open("workloads.trace.materialize", None, None);
        let trace = opts.trace(model);
        let stats = TraceStats::measure(&trace);
        tracer.close(open, &[("records", trace.len() as u64)]);
        std::hint::black_box(stats);
    }
    out.layers.insert(
        "workloads.trace.materialize_s".into(),
        total_secs(&tracer.spans(), "workloads.trace.materialize"),
    );

    let sources: Vec<WorkloadSource> = suite::all().iter().map(|m| opts.source(m)).collect();
    layers::chunk_pass(tracer, &sources.iter().collect::<Vec<_>>(), out);

    // The sim layer over mpeg_play — the benchmark behind Figures 7, 8
    // and 10 — with one surface per plan the reproduction runs.
    let mpeg = suite::by_name("mpeg_play").expect("mpeg_play is in the suite");
    let source = opts.source(&mpeg);
    let surface = |make: &dyn Fn(u32, u32) -> PredictorConfig| -> Vec<PredictorConfig> {
        (opts.min_bits..=opts.max_bits)
            .flat_map(|total| (0..=total).rev().map(move |c| (total - c, c)))
            .map(|(r, c)| make(r, c))
            .collect()
    };
    let sweeps: Vec<Sweep> = [
        surface(&|r, c| PredictorConfig::Gas {
            history_bits: r,
            col_bits: c,
        }),
        surface(&|r, c| PredictorConfig::Path {
            row_bits: r,
            col_bits: c,
            bits_per_target: 2,
        }),
        surface(&|r, c| PredictorConfig::PasInfinite {
            history_bits: r,
            col_bits: c,
        }),
        surface(&|r, c| PredictorConfig::PasFinite {
            history_bits: r,
            col_bits: c,
            entries: 1024,
            ways: 4,
        }),
    ]
    .into_iter()
    .map(|configs| Sweep {
        configs,
        source: source.clone(),
        simulator: Simulator::new(),
    })
    .collect();
    layers::sim_pass(tracer, &sweeps, out);
    let configs: Vec<PredictorConfig> = sweeps.iter().flat_map(|s| s.configs.clone()).collect();
    let chunks = layers::prefix_chunks(&[&source], 1 << 20);
    layers::plan_pass(tracer, &configs, &chunks, out);
    out.untouched = vec!["serve.", "client."];
}

/// The four configurations of `sweep-narrow`.
const NARROW_CONFIGS: &str = "gshare:h=8,c=2;gshare:h=10,c=2;gas:h=8,c=2;bimodal:a=10";

/// Parses a `;`-separated configuration list.
fn parse_configs(list: &str) -> Vec<PredictorConfig> {
    list.split(';')
        .map(|c| c.parse().expect("benchmark configs parse"))
        .collect()
}

/// Conditional branches of the `sweep-narrow` stream. One sweep takes
/// about a quarter of a second, so a run holds about a hundred and the
/// reference pass after each adds under a tenth to its time.
const NARROW_BRANCHES: usize = 5_000_000;

/// `sweep-narrow`: four configurations over `real_gcc`, repeated,
/// each repetition checked against the scalar oracle.
pub fn sweep_narrow(ctx: &Ctx, tracer: Option<&Tracer>) -> Result<Outcome, String> {
    let branches = if ctx.quick { 200_000 } else { NARROW_BRANCHES };
    let mut out = Outcome::default();

    // Set-up: the model, its stream and the parsed configurations.
    let mut input: Option<(Vec<PredictorConfig>, WorkloadSource)> = None;
    let setup_s = median_setup_secs(SETUPS, || {
        let model = suite::by_name("real_gcc").expect("real_gcc is in the suite");
        input = Some((
            parse_configs(NARROW_CONFIGS),
            WorkloadSource::with_length(model, ctx.seed, branches),
        ));
    });
    let (configs, source) = input.expect("set up at least once");

    let mut results: Vec<Vec<SimResult>> = Vec::new();
    let mut pairs: Vec<f64> = Vec::new();
    let reps = closed_loop(ctx.seconds, 3, |rep| {
        let before = records_replayed_total();
        let open = tracer.map(|t| t.open("workload.sweep", None, Some(rep)));
        let start = Instant::now();
        results.push(run_batched(
            &configs,
            &source,
            Simulator::new(),
            DEFAULT_SHARD_SIZE,
        ));
        let secs = start.elapsed().as_secs_f64();
        let replayed = records_replayed_total() - before;
        if let (Some(tracer), Some(open)) = (tracer, open) {
            tracer.close(open, &[("pairs", replayed)]);
        }
        pairs.push(replayed as f64 / secs);
    });
    closed_loop_metrics(
        &mut out,
        setup_s,
        &reps,
        peak_rss_mib("self").unwrap_or(0.0),
    );
    out.note(
        "pairs_per_s",
        median(&pairs).expect("at least one repetition"),
        "1/s",
    );

    // Oracle: the same sweep with every lane pinned to the scalar tier.
    std::env::set_var("BPRED_FORCE_SCALAR", "1");
    let oracle = run_batched(&configs, &source, Simulator::new(), DEFAULT_SHARD_SIZE);
    std::env::remove_var("BPRED_FORCE_SCALAR");
    for (rep, got) in results.iter().enumerate() {
        out.check(*got == oracle, || {
            format!("sweep-narrow repetition {rep} differs from the BPRED_FORCE_SCALAR=1 replay")
        });
    }

    if let Some(tracer) = tracer {
        layers::chunk_pass(tracer, &[&source], &mut out);
        let sweep = Sweep {
            configs: configs.clone(),
            source: source.clone(),
            simulator: Simulator::new(),
        };
        layers::sim_pass(tracer, &[sweep], &mut out);
        let chunks = layers::prefix_chunks(&[&source], 1 << 20);
        layers::plan_pass(tracer, &configs, &chunks, &mut out);
        out.untouched = vec![
            "experiments.",
            "report.",
            "workloads.trace.",
            "serve.",
            "client.",
        ];
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_seed_maps_to_a_pinned_trace_seed() {
        assert_eq!(paper_trace_seed(1996).0, 1996);
        assert_eq!(paper_trace_seed(42).0, 42);
        for seed in 0..100 {
            let (s, _, _) = paper_trace_seed(seed);
            assert!(PAPER_PINS.iter().any(|p| p.0 == s));
            assert_eq!(paper_trace_seed(seed), paper_trace_seed(seed));
        }
    }

    #[test]
    fn a_wrong_pinned_digest_fails_the_run() {
        let text = b"================ Table 1 ================\n";
        let digest = fnv64(text);
        let mut wrong = Outcome::default();
        check_output(&mut wrong, text, 5, digest ^ 1);
        assert_eq!((wrong.attempted, wrong.failed), (1, 1));
        assert!(wrong.problems[0].contains("pinned"));

        let mut ok = Outcome::default();
        check_output(&mut ok, text, 5, digest);
        assert_eq!((ok.attempted, ok.failed), (1, 0));
    }

    #[test]
    fn a_child_run_reports_output_status_and_peak_memory() {
        let script = |s: &str| vec!["-c".to_owned(), s.to_owned()];
        let run = run_child(Path::new("sh"), &script("printf abc")).unwrap();
        assert_eq!(run.stdout, b"abc");
        assert!(run.ok);
        assert!(run.peak_rss_mib > 0.0 && run.peak_rss_mib < 1024.0);
        let failed = run_child(Path::new("sh"), &script("exit 3")).unwrap();
        assert!(!failed.ok);
        assert!(run_child(Path::new("no-such-program-here"), &[]).is_err());
    }
}

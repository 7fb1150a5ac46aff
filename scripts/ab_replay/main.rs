//! In-process A/B replay timing: this checkout's `bpred-sim` against a
//! base revision's, linked into one binary so both sides replay the same
//! rows in alternation on the same warmed process. Built and run by
//! `scripts/ab_replay.sh`, which exports the base, renames its crates
//! (`base_*` here) and writes `BENCH_ab.json` from this program's output.
//!
//! Usage: `ab_replay <base-rev> <head-rev> <pairs> <out.json>`.
//!
//! Rows: every `BENCH_replay.json` family and spill row (the
//! `bpred_bench::replay_rows` definitions, 120k branches of `mpeg_play`
//! at seed 2), then `experiments::paper` at 20,000 branches. Each row
//! first asserts that both sides give bit-identical results, then times
//! `pairs` pairs. One call is one `LaneSet` build, replay and finish over
//! pre-generated chunks (the whole `paper` call for the paper row); a
//! pair interleaves base and head calls, alternating which goes first,
//! until each side has run for at least [`MIN_SAMPLE`] and at least
//! [`MIN_CALLS`] times. Each pair gives
//! a time ratio head/base; a row reports their median, quartiles and
//! the pairs head won.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

use bpred_bench::replay_rows::{families, spill_rows};

/// Shortest time per side per pair: long enough that timer and
/// scheduler noise is a small fraction of it.
const MIN_SAMPLE: Duration = Duration::from_millis(250);

/// Fewest calls per side per pair: a row whose call outlasts
/// [`MIN_SAMPLE`] (the paper row, about 400 ms) would otherwise get two
/// calls a side, too few to average out one slow call. At six its
/// quartiles still spanned 0.065; at ten, 0.039.
const MIN_CALLS: usize = 10;

/// Conditional branches of the family rows, as in `BENCH_replay.json`.
const FAMILY_BRANCHES: usize = 120_000;

/// Conditional branches of the paper row.
const PAPER_BRANCHES: usize = 20_000;

/// One timed row: a name, its lane count, and a closure per side that
/// runs one sample and returns its results rendered for comparison.
struct Row {
    name: String,
    lanes: usize,
    base: Box<dyn FnMut() -> String>,
    head: Box<dyn FnMut() -> String>,
}

/// Seconds one call of `run` takes.
fn time(run: &mut dyn FnMut() -> String) -> f64 {
    let start = Instant::now();
    std::hint::black_box(run());
    start.elapsed().as_secs_f64()
}

/// One pair: `reps` rounds of one base and one head call, the side
/// that goes first alternating by round, and each side's total seconds.
/// Interleaving call by call keeps a drift in the host's speed from
/// landing on one side.
fn pair(row: &mut Row, reps: usize) -> (f64, f64) {
    let (mut head, mut base) = (0.0, 0.0);
    for round in 0..reps {
        if round % 2 == 0 {
            base += time(&mut row.base);
            head += time(&mut row.head);
        } else {
            head += time(&mut row.head);
            base += time(&mut row.base);
        }
    }
    (head, base)
}

/// The `q`-quantile of sorted `xs`, interpolated linearly.
fn quantile(xs: &[f64], q: f64) -> f64 {
    let at = q * (xs.len() - 1) as f64;
    let (lo, hi) = (at.floor() as usize, at.ceil() as usize);
    xs[lo] + (xs[hi] - xs[lo]) * (at - lo as f64)
}

fn family_rows() -> Vec<Row> {
    let head_chunks: Vec<bpred_trace::TraceChunk> = {
        let model = bpred_workloads::suite::mpeg_play().scaled(FAMILY_BRANCHES);
        let source = bpred_workloads::WorkloadSource::new(model, 2);
        bpred_trace::TraceSource::chunks(&source, bpred_trace::TraceChunk::DEFAULT_LEN).collect()
    };
    let base_chunks: Vec<base_trace::TraceChunk> = {
        let model = base_workloads::suite::mpeg_play().scaled(FAMILY_BRANCHES);
        let source = base_workloads::WorkloadSource::new(model, 2);
        base_trace::TraceSource::chunks(&source, base_trace::TraceChunk::DEFAULT_LEN).collect()
    };
    let head_chunks = std::rc::Rc::new(head_chunks);
    let base_chunks = std::rc::Rc::new(base_chunks);
    families()
        .into_iter()
        .chain(spill_rows())
        .map(|family| {
            let ids: Vec<String> = family.configs.iter().map(|c| c.config_id()).collect();
            let head_configs = family.configs.clone();
            let base_configs: Vec<base_core::PredictorConfig> = (ids.iter())
                .map(|id| id.parse().expect("the base parses every row configuration"))
                .collect();
            let (head_chunks, base_chunks) = (head_chunks.clone(), base_chunks.clone());
            Row {
                name: family.name.to_owned(),
                lanes: ids.len(),
                head: Box::new(move || {
                    let mut set =
                        bpred_sim::LaneSet::new(&head_configs, bpred_sim::Simulator::new());
                    for chunk in head_chunks.iter() {
                        set.replay_chunk(chunk);
                    }
                    format!("{:?}", set.finish())
                }),
                base: Box::new(move || {
                    let mut set = base_sim::LaneSet::new(&base_configs, base_sim::Simulator::new());
                    for chunk in base_chunks.iter() {
                        set.replay_chunk(chunk);
                    }
                    format!("{:?}", set.finish())
                }),
            }
        })
        .collect()
}

fn paper_row() -> Row {
    Row {
        name: "paper".to_owned(),
        lanes: 0,
        head: Box::new(|| {
            let opts = bpred_sim::experiments::ExperimentOptions {
                branches: Some(PAPER_BRANCHES),
                ..Default::default()
            };
            format!("{:?}", bpred_sim::experiments::paper(&opts))
        }),
        base: Box::new(|| {
            let opts = base_sim::experiments::ExperimentOptions {
                branches: Some(PAPER_BRANCHES),
                ..Default::default()
            };
            format!("{:?}", base_sim::experiments::paper(&opts))
        }),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let [base_rev, head_rev, pairs, out] = &args[..] else {
        eprintln!("usage: ab_replay <base-rev> <head-rev> <pairs> <out.json>");
        std::process::exit(2);
    };
    let pairs: usize = pairs.parse().expect("pairs is a count");
    assert!(pairs >= 2, "at least two pairs");

    let mut lines = Vec::new();
    for mut row in family_rows().into_iter().chain([paper_row()]) {
        let (head, base) = ((row.head)(), (row.base)());
        assert!(head == base, "{}: head and base results differ", row.name);
        let once = Instant::now();
        (row.base)();
        let reps = ((MIN_SAMPLE.as_secs_f64() / once.elapsed().as_secs_f64()).ceil() as usize)
            .max(MIN_CALLS);
        let (mut ratios, mut head_s, mut base_s) = (Vec::new(), Vec::new(), Vec::new());
        for _ in 0..pairs {
            let (h, b) = pair(&mut row, reps);
            ratios.push(h / b);
            head_s.push(h / reps as f64);
            base_s.push(b / reps as f64);
        }
        let won = ratios.iter().filter(|&&r| r < 1.0).count();
        for xs in [&mut ratios, &mut head_s, &mut base_s] {
            xs.sort_by(f64::total_cmp);
        }
        let (q1, median, q3) = (
            quantile(&ratios, 0.25),
            quantile(&ratios, 0.5),
            quantile(&ratios, 0.75),
        );
        // The ±3% gate: a row whose quartiles span more than the band's
        // width cannot be told apart from noise.
        let verdict = if q3 - q1 > 0.06 {
            "unresolved"
        } else if median > 1.03 {
            "slower"
        } else if median < 0.97 {
            "faster"
        } else {
            "within"
        };
        eprintln!(
            "{:<16} {:>2} lanes  x{reps:<3} ratio {median:.3} [{q1:.3}, {q3:.3}]  won {won}/{pairs}  {verdict}",
            row.name, row.lanes
        );
        lines.push(format!(
            "    {{\"row\": \"{}\", \"lanes\": {}, \"reps\": {reps}, \"base_ms\": {:.3}, \"head_ms\": {:.3}, \
             \"ratio_median\": {median:.4}, \"ratio_q1\": {q1:.4}, \"ratio_q3\": {q3:.4}, \"won\": {won}, \
             \"verdict\": \"{verdict}\"}}",
            row.name,
            row.lanes,
            quantile(&base_s, 0.5) * 1e3,
            quantile(&head_s, 0.5) * 1e3,
        ));
    }

    let mut json = String::new();
    let _ = writeln!(json, "{{");
    let _ = writeln!(json, "  \"bench\": \"ab_replay\",");
    let _ = writeln!(json, "  \"base\": \"{base_rev}\",");
    let _ = writeln!(json, "  \"head\": \"{head_rev}\",");
    let _ = writeln!(json, "  \"pairs\": {pairs},");
    let _ = writeln!(json, "  \"rustc\": \"{}\",", bpred_bench::rustc_version());
    let _ = writeln!(
        json,
        "  \"rustflags\": \"{}\",",
        std::env::var("RUSTFLAGS").unwrap_or_default()
    );
    let _ = writeln!(json, "  \"gate\": \"median time ratio head/base within [0.97, 1.03]; quartile spread over 0.06 is unresolved\",");
    let _ = writeln!(json, "  \"rows\": [\n{}\n  ]", lines.join(",\n"));
    let _ = writeln!(json, "}}");
    std::fs::write(out, json).expect("write the artifact");
    println!("{out}");
}

//! The repository benchmark.
//!
//! ```text
//! bash benchmark/run.sh --workload <name|all> --seed <N> [--seconds S] [--trace 0|1|DIR] [--quick]
//! ```
//!
//! `--seconds` is accepted only with the value of `run_seconds` in
//! `BENCHMARK.json`: the benchmark fixes its run length, and the flag
//! exists because the command line that runs it passes that value.
//!
//! Runs one workload declared in `BENCHMARK.json`, checks every output
//! it produced, prints each metric as `workload metric value unit`,
//! and ends with one JSON line:
//! `{"correct":…,"attempted":…,"failed":…,"metrics":{…}}`. Untraced
//! runs report the end-to-end metrics; traced runs (`--trace 1` or a
//! directory) report the per-layer metrics, write the spans to
//! `<dir>/<workload>.spans.jsonl`, and print each layer's self time
//! and the tracing overhead. See `benchmark/README.md`.

mod host;
mod layers;
mod loadgen;
mod offline;
mod serve;
mod spec;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use spec::Spec;
use trace::Tracer;

/// The benchmark's declaration, relative to the checkout.
const SPEC_PATH: &str = "BENCHMARK.json";
/// Where traced runs write spans by default, relative to the checkout.
const DEFAULT_SPANS_DIR: &str = ".bench_build/spans";
/// Scratch space (result stores of the serve workloads), relative to
/// the checkout.
const SCRATCH_DIR: &str = ".bench_build/scratch";
/// Measured window of a `--quick` smoke run, in seconds.
const QUICK_SECONDS: f64 = 2.0;
/// The end-to-end metric whose traced and untraced values give the
/// tracing overhead.
const OVERHEAD_METRIC: &str = "latency_ms";

/// Everything a workload needs to know about its run.
#[derive(Debug, Clone)]
pub struct Ctx {
    /// Workload seed; every input is derived from it.
    pub seed: u64,
    /// Seconds the measured window should last.
    pub seconds: f64,
    /// Tiny sizes for a smoke run (every correctness gate stays on).
    pub quick: bool,
    /// Scratch directory private to this run.
    pub scratch: PathBuf,
    /// Directory holding the repository's `serve` and `all` binaries.
    pub bin_dir: Option<PathBuf>,
}

impl Ctx {
    /// The repository binary `name`, from `--bin-dir`.
    pub fn bin(&self, name: &str) -> Result<PathBuf, String> {
        self.bin_dir
            .as_ref()
            .map(|dir| dir.join(name))
            .ok_or_else(|| format!("this workload runs `{name}` and needs --bin-dir"))
    }
}

/// What one pass of a workload produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (requests, sweeps, reproductions, checks).
    pub attempted: u64,
    /// Operations that failed or produced a wrong output.
    pub failed: u64,
    /// End-to-end metrics by name.
    pub e2e: BTreeMap<String, f64>,
    /// Per-layer metrics by name (traced passes only).
    pub layers: BTreeMap<String, f64>,
    /// Metric-name prefixes of layers this workload never calls into;
    /// their per-layer metrics read 0.
    pub untouched: Vec<&'static str>,
    /// Extra `metric value unit` lines for the human report.
    pub notes: Vec<(String, f64, String)>,
    /// What went wrong, one line per failure kind.
    pub problems: Vec<String>,
}

impl Outcome {
    /// Records a checked operation.
    pub fn check(&mut self, ok: bool, problem: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.problems.len() < 20 {
                self.problems.push(problem());
            }
        }
    }

    /// Adds an informational line to the human report.
    pub fn note(&mut self, name: &str, value: f64, unit: &str) {
        self.notes.push((name.to_owned(), value, unit.to_owned()));
    }
}

/// Peak resident set (VmHWM) of process `pid` (`"self"` for this one),
/// in MiB.
pub fn peak_rss_mib(pid: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// FNV-1a 64-bit digest, the benchmark's own output fingerprint.
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// SplitMix64: the seeded generator behind every derived input.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed` and a stream label, so independent
    /// streams never share a sequence.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        rng.next_u64();
        rng
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[0, n)`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.unit() * n as f64) as usize % n.max(1)
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: Option<f64>,
    trace: Option<PathBuf>,
    quick: bool,
    bin_dir: Option<PathBuf>,
}

fn usage() -> String {
    "usage: run.sh --workload <name|all> --seed <N> [--seconds S] [--trace 0|1|DIR] [--quick]\n\
     \x20      run.sh --list-workloads"
        .to_owned()
}

fn parse_args(raw: Vec<String>) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1996,
        seconds: None,
        trace: None,
        quick: false,
        bin_dir: None,
    };
    let mut it = raw.into_iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => {
                let v = value()?;
                args.seed = v
                    .parse()
                    .map_err(|_| format!("--seed {v:?} is not a u64"))?;
            }
            "--seconds" => {
                let v = value()?;
                let s: f64 = v
                    .parse()
                    .map_err(|_| format!("--seconds {v:?} is not a number"))?;
                args.seconds = Some(s);
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => None,
                    "1" => Some(PathBuf::from(DEFAULT_SPANS_DIR)),
                    dir => Some(PathBuf::from(dir)),
                }
            }
            "--quick" => args.quick = true,
            "--bin-dir" => args.bin_dir = Some(PathBuf::from(value()?)),
            "--help" | "-h" => return Err(usage()),
            other => return Err(format!("unknown argument {other:?}\n{}", usage())),
        }
    }
    Ok(args)
}

/// Engine worker threads (`BPRED_THREADS`). One: on the shared 2-vCPU
/// host the benchmark was written on, a full-length reproduction with
/// two workers ran no faster than with one, and a shortened one three
/// times as unevenly, so the benchmark measures the cost of the work on
/// one core.
const ENGINE_THREADS: usize = 1;

/// Clears every `BPRED_*` setting inherited from the caller and pins
/// the engine's worker count, so a run measures the code and not the
/// caller's environment.
fn pin_environment() {
    let inherited: Vec<String> = std::env::vars()
        .map(|(k, _)| k)
        .filter(|k| k.starts_with("BPRED_"))
        .collect();
    for key in inherited {
        std::env::remove_var(key);
    }
    std::env::set_var("BPRED_THREADS", ENGINE_THREADS.to_string());
}

/// `cpu_set_t`: a mask of 1024 CPUs.
#[repr(C)]
struct CpuSet([u64; 16]);

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
}

/// Pins this thread, and so every thread and child process started
/// after it, to the highest-numbered CPU it may run on. With the load
/// generator and the server on one CPU a request travels by context
/// switch; free to use both CPUs of a shared host, the median request
/// latency of six runs spread over 0.31–0.40 ms, against 0.25–0.27 ms
/// pinned. Returns the CPU, or `None` when the kernel refused.
fn pin_to_one_cpu() -> Option<usize> {
    let size = std::mem::size_of::<CpuSet>();
    let mut allowed = CpuSet([0; 16]);
    // SAFETY: `allowed` is a live, exclusively borrowed mask of `size`
    // bytes laid out as `cpu_set_t`; pid 0 is the calling thread; the
    // kernel writes only into the mask.
    if unsafe { sched_getaffinity(0, size, &mut allowed) } != 0 {
        return None;
    }
    let cpu = (0..1024)
        .rev()
        .find(|&c| allowed.0[c / 64] >> (c % 64) & 1 == 1)?;
    let mut one = CpuSet([0; 16]);
    one.0[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: as above; the kernel only reads the mask.
    (unsafe { sched_setaffinity(0, size, &one) } == 0).then_some(cpu)
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn rustc_version() -> String {
    std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_owned())
        .filter(|v| !v.is_empty())
        .unwrap_or_else(|| "unknown".to_owned())
}

fn run_workload(name: &str, ctx: &Ctx, tracer: Option<&Tracer>) -> Result<Outcome, String> {
    match name {
        "paper-repro" => offline::paper_repro(ctx, tracer),
        "sweep-narrow" => offline::sweep_narrow(ctx, tracer),
        "serve-mixed" => serve::run(ctx, tracer),
        other => Err(format!("workload {other:?} is not implemented")),
    }
}

/// Formats a metric value with all its digits.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_owned()
    }
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    if raw.iter().any(|a| a == "--list-workloads") {
        return match Spec::load(Path::new(SPEC_PATH)) {
            Ok(spec) => {
                for w in &spec.workloads {
                    println!("{}", w.name);
                }
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("error: BENCHMARK.json: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let args = match parse_args(raw) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let spec = match Spec::load(Path::new(SPEC_PATH)) {
        Ok(spec) => spec,
        Err(e) => {
            eprintln!("error: {SPEC_PATH}: {e}");
            return ExitCode::FAILURE;
        }
    };
    if spec.workload(&args.workload).is_none() {
        let names: Vec<&str> = spec.workloads.iter().map(|w| w.name.as_str()).collect();
        eprintln!(
            "error: unknown workload {:?}; declared: {}",
            args.workload,
            names.join(", ")
        );
        return ExitCode::from(2);
    }
    if let Some(s) = args.seconds {
        if s != spec.run_seconds as f64 {
            eprintln!(
                "error: --seconds {s} differs from run_seconds {} in {SPEC_PATH}; the benchmark fixes its run length",
                spec.run_seconds
            );
            return ExitCode::from(2);
        }
    }

    pin_environment();
    let cores = nproc();
    let cpu = pin_to_one_cpu();
    let scratch =
        PathBuf::from(SCRATCH_DIR).join(format!("{}-{}", args.workload, std::process::id()));
    let ctx = Ctx {
        seed: args.seed,
        seconds: if args.quick {
            QUICK_SECONDS
        } else {
            spec.run_seconds as f64
        },
        quick: args.quick,
        scratch: scratch.clone(),
        bin_dir: args.bin_dir.clone(),
    };
    println!(
        "# workload {} seed {} seconds {} quick {} trace {}",
        args.workload,
        ctx.seed,
        ctx.seconds,
        ctx.quick,
        args.trace.is_some()
    );
    println!(
        "# nproc {cores} BPRED_THREADS {ENGINE_THREADS} cpu {} {}",
        cpu.map_or("unpinned".to_owned(), |c| c.to_string()),
        rustc_version()
    );

    let result = match &args.trace {
        None => run_workload(&args.workload, &ctx, None),
        Some(dir) => traced(&args.workload, &ctx, dir),
    };
    let _ = std::fs::remove_dir_all(&scratch);
    match result {
        Ok(outcome) => report(&spec, &args.workload, outcome, args.trace.is_some()),
        Err(e) => {
            eprintln!("error: {}: {e}", args.workload);
            ExitCode::FAILURE
        }
    }
}

/// A traced run: the workload untraced and then traced on the same
/// seed, each for half the run (the difference is the tracing
/// overhead), then the per-layer passes, then the spans written out.
fn traced(workload: &str, ctx: &Ctx, dir: &Path) -> Result<Outcome, String> {
    let half = Ctx {
        seconds: ctx.seconds / 2.0,
        ..ctx.clone()
    };
    let untraced = run_workload(workload, &half, None)?;
    let tracer = Tracer::new();
    let mut outcome = run_workload(workload, &half, Some(&tracer))?;
    outcome.attempted += untraced.attempted;
    outcome.failed += untraced.failed;
    outcome.problems.extend(untraced.problems);

    let base = untraced.e2e.get(OVERHEAD_METRIC).copied().unwrap_or(0.0);
    let with = outcome.e2e.get(OVERHEAD_METRIC).copied().unwrap_or(0.0);
    let overhead = if base > 0.0 { with / base - 1.0 } else { 0.0 };
    outcome
        .layers
        .insert("trace.overhead_ratio".to_owned(), overhead);

    let path = dir.join(format!("{workload}.spans.jsonl"));
    tracer
        .write_jsonl(&path)
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    let spans = tracer.spans();
    println!("# spans {} written to {}", spans.len(), path.display());
    for (layer, secs) in trace::layer_self_times(&spans) {
        println!("{workload} self.{layer} {} s", num(secs));
    }
    println!(
        "{workload} trace.overhead {OVERHEAD_METRIC} untraced {} traced {} ({:+.2}%)",
        num(base),
        num(with),
        100.0 * overhead
    );
    Ok(outcome)
}

/// Prints the human report and the final JSON line; the exit code is
/// non-zero when any check failed.
fn report(spec: &Spec, workload: &str, mut outcome: Outcome, traced: bool) -> ExitCode {
    let declared = if traced {
        &spec.per_layer
    } else {
        &spec.end_to_end
    };
    let produced = if traced {
        &mut outcome.layers
    } else {
        &mut outcome.e2e
    };
    let mut missing = Vec::new();
    for metric in declared {
        if produced.contains_key(&metric.name) {
            continue;
        }
        let untouched = outcome
            .untouched
            .iter()
            .any(|prefix| metric.name.starts_with(prefix));
        if traced && untouched {
            produced.insert(metric.name.clone(), 0.0);
        } else {
            missing.push(metric.name.clone());
        }
    }
    if !missing.is_empty() {
        eprintln!(
            "error: {workload} produced no value for declared metric(s): {}",
            missing.join(", ")
        );
        return ExitCode::FAILURE;
    }

    for (name, value, unit) in &outcome.notes {
        println!("{workload} {name} {} {unit}", num(*value));
    }
    if traced && !outcome.untouched.is_empty() {
        println!(
            "# layers {workload} never calls (metrics read 0): {}",
            outcome.untouched.join(", ")
        );
    }
    for metric in declared {
        println!(
            "{workload} {} {} {}",
            metric.name,
            num(produced[&metric.name]),
            metric.unit
        );
    }
    for problem in &outcome.problems {
        println!("# FAILED: {problem}");
    }

    let correct = outcome.failed == 0 && outcome.attempted > 0;
    let mut json = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        outcome.attempted.max(1),
        outcome.failed
    );
    for (i, metric) in declared.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        json.push_str(&format!(
            "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            metric.name,
            num(produced[&metric.name]),
            metric.unit
        ));
    }
    json.push_str("}}");
    println!("{json}");
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rng_streams_are_deterministic_and_distinct() {
        let a: Vec<u64> = (0..4).map(|_| Rng::new(7, 1).next_u64()).collect();
        assert!(a.windows(2).all(|w| w[0] == w[1]));
        let mut x = Rng::new(7, 1);
        let mut y = Rng::new(7, 2);
        assert_ne!(x.next_u64(), y.next_u64());
        let mut r = Rng::new(1, 0);
        for _ in 0..1000 {
            let u = r.unit();
            assert!((0.0..1.0).contains(&u));
            assert!(r.below(5) < 5);
        }
    }

    #[test]
    fn fnv_matches_the_reference_vectors() {
        assert_eq!(fnv64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv64(b"a"), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn trace_flag_accepts_off_on_and_a_directory() {
        let parse = |v: &str| parse_args(vec!["--trace".into(), v.into()]).unwrap().trace;
        assert_eq!(parse("0"), None);
        assert_eq!(parse("1"), Some(PathBuf::from(DEFAULT_SPANS_DIR)));
        assert_eq!(parse("out/spans"), Some(PathBuf::from("out/spans")));
        assert!(parse_args(vec!["--seed".into(), "x".into()]).is_err());
        assert!(parse_args(vec!["--bogus".into()]).is_err());
    }
}

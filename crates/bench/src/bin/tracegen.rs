//! Trace generator tool: writes any workload model (or the CFG
//! program) to a trace file for external tooling or repeated
//! simulation.
//!
//! ```text
//! cargo run --release -p bpred-bench --bin tracegen -- <benchmark|cfg> <output> [branches] [seed]
//! # e.g.
//! cargo run --release -p bpred-bench --bin tracegen -- mpeg_play mpeg.bpt 500000 7
//! cargo run --release -p bpred-bench --bin tracegen -- espresso espresso.txt
//! ```
//!
//! Output format is chosen by extension: `.txt`/`.trace` are the text
//! format, anything else the binary format.

use std::process::ExitCode;

use bpred_trace::io;
use bpred_workloads::{suite, CfgConfig, CfgProgram};

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let (Some(workload), Some(output)) = (args.next(), args.next()) else {
        eprintln!("usage: tracegen <benchmark|cfg> <output-file> [branches] [seed]");
        return ExitCode::FAILURE;
    };
    let (branches, seed) = match bpred_bench::parse_length_and_seed(args) {
        Ok(parsed) => parsed,
        Err(code) => return code,
    };

    let trace = if workload == "cfg" {
        let program = CfgProgram::generate(CfgConfig::default(), seed);
        program.trace(seed, branches.unwrap_or(500_000))
    } else {
        let Some(model) = suite::by_name(&workload) else {
            eprintln!(
                "unknown benchmark {workload:?}; available: cfg, {}",
                suite::all_specs()
                    .iter()
                    .map(|s| s.name.clone())
                    .collect::<Vec<_>>()
                    .join(", ")
            );
            return ExitCode::FAILURE;
        };
        let model = match branches {
            Some(n) => model.scaled(n),
            None => model,
        };
        model.trace(seed)
    };

    if let Err(e) = io::save(&output, &trace) {
        eprintln!("failed to write {output}: {e}");
        return ExitCode::FAILURE;
    }
    println!(
        "wrote {} ({} records, {} conditional)",
        output,
        trace.len(),
        trace.conditional_len()
    );
    ExitCode::SUCCESS
}

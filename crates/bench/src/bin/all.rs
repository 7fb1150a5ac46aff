//! Runs every table and figure harness in paper order with shared
//! options — the one-shot reproduction of the whole evaluation
//! section. Every exhibit renders from one plan
//! ([`experiments::paper`]), so each `(workload, configuration)` cell
//! is simulated once; the text is [`Paper::render`](experiments::Paper::render).
//!
//! ```text
//! cargo run --release -p bpred-bench --bin all -- [--quick] [--branches N] ...
//! ```

use std::process::ExitCode;

use bpred_bench::Args;
use bpred_sim::experiments;

fn main() -> ExitCode {
    let args = match Args::parse() {
        Ok(args) => args,
        Err(code) => return code,
    };
    if args.csv {
        eprintln!("all prints aligned text only and takes no --csv; run export for CSV files");
        return ExitCode::FAILURE;
    }
    print!("{}", experiments::paper(&args.options).render());
    ExitCode::SUCCESS
}

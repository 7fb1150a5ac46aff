//! Runs every table and figure harness in paper order with shared
//! options — the one-shot reproduction of the whole evaluation
//! section. Every exhibit renders from one plan
//! ([`experiments::paper`]), so each `(workload, configuration)` cell
//! is simulated once; the text is [`Paper::render`](experiments::Paper::render).
//! With `BPRED_CACHE_DIR` set, the plan's cells are read from and
//! stored in the result store there.
//!
//! ```text
//! cargo run --release -p bpred-bench --bin all -- [--quick] [--branches N] ...
//! ```

use std::process::ExitCode;

use bpred_bench::Args;
use bpred_sim::{experiments, ResultCache};

fn main() -> ExitCode {
    let args = match Args::parse() {
        Ok(args) => args,
        Err(code) => return code,
    };
    if args.csv {
        eprintln!("all prints aligned text only and takes no --csv; run export for CSV files");
        return ExitCode::FAILURE;
    }
    let store = bpred_serve::open_from_env();
    let cache = store.as_ref().map(|store| store as &dyn ResultCache);
    print!("{}", experiments::paper(&args.options, cache).render());
    ExitCode::SUCCESS
}

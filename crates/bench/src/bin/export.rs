//! Exports every exhibit's data as CSV files for external plotting
//! (gnuplot, matplotlib, R): [`Paper::csv_files`](experiments::Paper::csv_files),
//! one file per exhibit in the output directory (`results` unless
//! given), every exhibit rendered from one plan ([`experiments::paper`]).
//! With `BPRED_CACHE_DIR` set, the plan's cells are read from and
//! stored in the result store there.
//!
//! ```text
//! cargo run --release -p bpred-bench --bin export -- [DIR] [--quick] [--branches N] ...
//! ```

use std::fs;
use std::path::PathBuf;
use std::process::ExitCode;

use bpred_bench::Args;
use bpred_sim::{experiments, ResultCache};

fn main() -> ExitCode {
    let (args, out_dir) = match Args::parse_with_dir(std::env::args().skip(1)) {
        Ok(parsed) => parsed,
        Err(code) => return code,
    };
    if args.csv {
        eprintln!("export writes CSV files always and takes no --csv; run all for text");
        return ExitCode::FAILURE;
    }
    let out_dir = out_dir.unwrap_or_else(|| PathBuf::from("results"));
    if let Err(e) = fs::create_dir_all(&out_dir) {
        eprintln!("cannot create {}: {e}", out_dir.display());
        return ExitCode::FAILURE;
    }
    let store = bpred_serve::open_from_env();
    let cache = store.as_ref().map(|store| store as &dyn ResultCache);
    let mut ok = true;
    for (name, contents) in experiments::paper(&args.options, cache).csv_files() {
        let path = out_dir.join(name);
        match fs::write(&path, contents) {
            Ok(()) => println!("wrote {}", path.display()),
            Err(e) => {
                eprintln!("failed to write {}: {e}", path.display());
                ok = false;
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

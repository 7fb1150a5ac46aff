//! Exports every exhibit's data as CSV files for external plotting
//! (gnuplot, matplotlib, R): [`Paper::csv_files`](experiments::Paper::csv_files),
//! one file per exhibit in the chosen output directory, every exhibit
//! rendered from one plan ([`experiments::paper`]).
//!
//! ```text
//! cargo run --release -p bpred-bench --bin export -- [out-dir] [--quick] [--branches N] ...
//! ```

use std::fs;
use std::path::PathBuf;
use std::process::ExitCode;

use bpred_bench::Args;
use bpred_sim::experiments;

fn main() -> ExitCode {
    let mut raw: Vec<String> = std::env::args().skip(1).collect();
    let out_dir = if raw.first().map(|a| !a.starts_with("--")).unwrap_or(false) {
        PathBuf::from(raw.remove(0))
    } else {
        PathBuf::from("results")
    };
    let args = match Args::parse_from(raw) {
        Ok(args) => args,
        Err(code) => return code,
    };
    // Install the result store when BPRED_CACHE_DIR is set, as
    // `Args::parse` does for the other drivers.
    bpred_serve::install_from_env();
    if let Err(e) = fs::create_dir_all(&out_dir) {
        eprintln!("cannot create {}: {e}", out_dir.display());
        return ExitCode::FAILURE;
    }
    let mut ok = true;
    for (name, contents) in experiments::paper(&args.options).csv_files() {
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

//! Exports every figure's data as CSV files for external plotting
//! (gnuplot, matplotlib, R). One file per exhibit in the chosen
//! output directory, every exhibit rendered from one plan
//! ([`experiments::paper`]).
//!
//! ```text
//! cargo run --release -p bpred-bench --bin export -- [out-dir] [--quick] [--branches N] ...
//! ```

use std::fs;
use std::path::PathBuf;
use std::process::ExitCode;

use bpred_bench::Args;
use bpred_sim::experiments::{self, render_size_series};
use bpred_sim::report::surface_csv;

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
    if let Err(e) = fs::create_dir_all(&out_dir) {
        eprintln!("cannot create {}: {e}", out_dir.display());
        return ExitCode::FAILURE;
    }
    let paper = experiments::paper(&args.options);
    let write = |name: &str, contents: String| {
        let path = out_dir.join(name);
        match fs::write(&path, contents) {
            Ok(()) => {
                println!("wrote {}", path.display());
                true
            }
            Err(e) => {
                eprintln!("failed to write {}: {e}", path.display());
                false
            }
        }
    };

    let mut ok = true;
    ok &= write("table1.csv", paper.table1.to_csv());
    ok &= write("table2.csv", paper.table2.to_csv());
    ok &= write(
        "fig2_address_indexed.csv",
        render_size_series(&paper.fig2).to_csv(),
    );
    ok &= write("fig3_gag.csv", render_size_series(&paper.fig3).to_csv());
    for surface in &paper.fig4 {
        ok &= write(
            &format!("fig4_gas_{}.csv", surface.workload),
            surface_csv(surface),
        );
    }
    for surface in &paper.fig6 {
        ok &= write(
            &format!("fig6_gshare_{}.csv", surface.workload),
            surface_csv(surface),
        );
    }
    for surface in &paper.fig9 {
        ok &= write(
            &format!("fig9_pas_{}.csv", surface.workload),
            surface_csv(surface),
        );
    }
    for surface in &paper.fig10 {
        let label = surface.scheme.replace(['(', ')', 'x'], "_");
        ok &= write(&format!("fig10_{label}.csv"), surface_csv(surface));
    }
    let diff_csv = |diff: &[(u32, u32, f64)]| {
        let mut out = String::from("row_bits,col_bits,difference\n");
        for &(r, c, d) in diff {
            out.push_str(&format!("{r},{c},{d:.6}\n"));
        }
        out
    };
    ok &= write("fig7_gshare_minus_gas.csv", diff_csv(&paper.fig7));
    ok &= write("fig8_path_minus_gas.csv", diff_csv(&paper.fig8));

    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

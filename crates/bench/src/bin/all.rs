//! Runs every table and figure harness in paper order with shared
//! options — the one-shot reproduction of the whole evaluation
//! section. Every exhibit renders from one plan
//! ([`experiments::paper`]), so each `(workload, configuration)` cell
//! is simulated once.
//!
//! ```text
//! cargo run --release -p bpred-bench --bin all -- [--quick] [--branches N] ...
//! ```

use std::process::ExitCode;

use bpred_bench::Args;
use bpred_sim::experiments::{self, render_difference, render_size_series};
use bpred_sim::report::{percent, render_surface, render_tier};

fn main() -> ExitCode {
    let args = match Args::parse() {
        Ok(args) => args,
        Err(code) => return code,
    };
    if args.csv {
        eprintln!("all prints aligned text only; run the per-exhibit binaries (table1, fig4, ...) for --csv");
        return ExitCode::FAILURE;
    }
    let paper = experiments::paper(&args.options);

    println!("================ Table 1 ================\n");
    print!("{}", paper.table1.render());

    println!("\n================ Table 2 ================\n");
    print!("{}", paper.table2.render());

    println!("\n================ Figure 2 (address-indexed) ================\n");
    print!("{}", render_size_series(&paper.fig2).render());

    println!("\n================ Figure 3 (GAg) ================\n");
    print!("{}", render_size_series(&paper.fig3).render());

    println!("\n================ Figure 4 (GAs surfaces) ================\n");
    for surface in &paper.fig4 {
        println!("{}", render_surface(surface));
    }

    println!("================ Figure 5 (GAs aliasing) ================\n");
    for surface in &paper.fig4 {
        println!("GAs aliasing on {}", surface.workload);
        for tier in &surface.tiers {
            println!("{}", render_tier(tier, |p| p.result.alias_rate()));
        }
        if let Some(tier) = surface.tiers.last() {
            let (conflicts, harmless) = tier
                .points
                .iter()
                .filter_map(|p| p.result.alias)
                .fold((0u64, 0u64), |(c, h), a| {
                    (c + a.conflicts, h + a.harmless_conflicts)
                });
            if conflicts > 0 {
                println!(
                    "harmless share in 2^{} tier: {}",
                    tier.total_bits,
                    percent(harmless as f64 / conflicts as f64)
                );
            }
        }
        println!();
    }

    println!("================ Figure 6 (gshare surfaces) ================\n");
    for surface in &paper.fig6 {
        println!("{}", render_surface(surface));
    }

    println!("================ Figure 7 (gshare - GAs, mpeg_play) ================\n");
    print!("{}", render_difference(&paper.fig7).render());

    println!("\n================ Figure 8 (path - GAs, mpeg_play) ================\n");
    print!("{}", render_difference(&paper.fig8).render());

    println!("\n================ Figure 9 (PAs perfect histories) ================\n");
    for surface in &paper.fig9 {
        println!("{}", render_surface(surface));
    }

    println!("================ Figure 10 (PAs finite BHTs, mpeg_play) ================\n");
    for surface in &paper.fig10 {
        println!("{}", render_surface(surface));
    }

    println!("================ Table 3 ================\n");
    print!("{}", paper.table3.render());

    ExitCode::SUCCESS
}

//! Trace simulation tool: runs one or more predictor configurations
//! over a trace file (written by `tracegen` or any compatible
//! producer) and prints a comparison table, with optional per-branch
//! misprediction attribution and CPI estimates.
//!
//! ```text
//! cargo run --release -p bpred-bench --bin simulate -- <trace-file> <config>... [--offenders N]
//! # e.g.
//! cargo run --release -p bpred-bench --bin simulate -- mpeg.bpt bimodal:a=12 gshare:h=12 pas:h=10,e=1024
//! ```
//!
//! Configuration syntax is `bpred_core::PredictorConfig`'s:
//! `taken`, `not-taken`, `btfn`, `last:a=N`, `bimodal:a=N`, `gag:h=N`,
//! `gas:h=N,c=N`, `gshare:h=N,c=N`, `path:r=N,c=N,q=N`,
//! `pas:h=N,c=N[,e=N,w=N]`, `sas:h=N,s=N,c=N`, `tournament:a=N,h=N,k=N`,
//! `agree:h=N[,i=N]`, `bimode:h=N[,d=N,k=N]`, `gskew:h=N[,b=N]`.

//! When `BPRED_CACHE_DIR` is set, results are read and written
//! through the on-disk result store, keyed by the trace file's
//! content fingerprint — re-running the same configurations over the
//! same trace answers from the cache.

use std::process::ExitCode;

use bpred_core::PredictorConfig;
use bpred_sim::report::percent;
use bpred_sim::{run_configs_keyed, CpiModel, ProfiledRun, ResultCache, Simulator, TextTable};
use bpred_trace::io;

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let mut offenders = 0usize;
    if let Some(pos) = args.iter().position(|a| a == "--offenders") {
        let Some(value) = args.get(pos + 1).and_then(|v| v.parse().ok()) else {
            eprintln!("--offenders requires a number");
            return ExitCode::FAILURE;
        };
        offenders = value;
        args.drain(pos..=pos + 1);
    }
    if args.len() < 2 {
        eprintln!("usage: simulate <trace-file> <config>... [--offenders N]");
        return ExitCode::FAILURE;
    }
    let trace_path = args.remove(0);
    let trace = match io::load(&trace_path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("failed to read {trace_path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "{trace_path}: {} records, {} conditional branches\n",
        trace.len(),
        trace.conditional_len()
    );

    let configs: Vec<PredictorConfig> = match args
        .iter()
        .map(|a| a.parse())
        .collect::<Result<Vec<_>, _>>()
    {
        Ok(c) => c,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };

    let model = CpiModel::mips_r2000_like();
    let mut table = TextTable::new(
        [
            "config",
            "predictor",
            "state bits",
            "mispredict",
            "aliasing",
            "L1 miss",
            "CPI (R2000-like)",
        ]
        .map(str::to_owned)
        .to_vec(),
    );
    // With BPRED_CACHE_DIR set, the trace's content fingerprint keys
    // the cells in the result store there.
    let store = bpred_serve::open_from_env();
    let source_id = format!("tracefile:{:016x}", trace.fingerprint());
    let cache = store
        .as_ref()
        .map(|store| (store as &dyn ResultCache, source_id.as_str()));
    let results = run_configs_keyed(&configs, &trace, Simulator::new(), cache);
    for (config, result) in configs.iter().zip(results) {
        table.push_row(vec![
            config.config_id(),
            result.predictor.clone(),
            result.state_bits.to_string(),
            percent(result.misprediction_rate()),
            result
                .alias
                .map(|a| percent(a.conflict_rate()))
                .unwrap_or_else(|| "-".into()),
            result
                .bht
                .map(|b| percent(b.miss_rate()))
                .unwrap_or_else(|| "-".into()),
            format!("{:.4}", model.cpi_of(&result)),
        ]);
    }
    print!("{}", table.render());

    if offenders > 0 {
        for config in &configs {
            let mut predictor = config.build();
            let run = ProfiledRun::run(&mut predictor, &trace);
            println!(
                "\nworst offenders for {} ({} branches cover 90% of its misses):",
                run.result.predictor,
                run.branches_for_error_fraction(0.9)
            );
            print!("{}", run.offenders_table(offenders).render());
        }
    }
    ExitCode::SUCCESS
}

//! Diagnostic: attribute a predictor's mispredictions to the behaviour
//! classes of the synthetic workload, to see what dominates the error.
//!
//! ```text
//! cargo run --release -p bpred-bench --bin diagnose -- <benchmark> <config> [branches] [seed]
//! # e.g.
//! cargo run --release -p bpred-bench --bin diagnose -- espresso gas:h=8,c=7
//! ```

use std::collections::HashMap;
use std::process::ExitCode;

use bpred_core::{BranchPredictor, PredictorConfig};
use bpred_workloads::{suite, BranchBehavior};

fn class_of(behavior: &BranchBehavior) -> &'static str {
    match behavior {
        BranchBehavior::Biased { taken_prob } if *taken_prob >= 0.5 => "biased-taken",
        BranchBehavior::Biased { .. } => "biased-not-taken",
        BranchBehavior::Loop { trip_count } if *trip_count <= 8 => "loop-short",
        BranchBehavior::Loop { .. } => "loop-long",
        BranchBehavior::Pattern { .. } => "pattern",
        BranchBehavior::Correlated { .. } => "correlated",
    }
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let benchmark = args.next().unwrap_or_else(|| "espresso".to_owned());
    let config_text = args.next().unwrap_or_else(|| "gas:h=8,c=7".to_owned());
    let branches: usize = args
        .next()
        .map(|s| s.parse().expect("branches must be a number"))
        .unwrap_or(400_000);
    let seed: u64 = args
        .next()
        .map(|s| s.parse().expect("seed must be a number"))
        .unwrap_or(1996);

    let Some(model) = suite::by_name(&benchmark) else {
        eprintln!("unknown benchmark {benchmark:?}");
        return ExitCode::FAILURE;
    };
    let config: PredictorConfig = match config_text.parse() {
        Ok(c) => c,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };

    let classes: HashMap<u64, &'static str> = model
        .branches()
        .map(|b| (b.pc, class_of(&b.behavior)))
        .collect();
    let trace = model.scaled(branches).trace(seed);

    let mut predictor = config.build();
    let mut per_class: HashMap<&'static str, (u64, u64)> = HashMap::new();
    for r in trace.iter() {
        if !r.is_conditional() {
            predictor.note_control_transfer(r);
            continue;
        }
        let predicted = predictor.predict(r.pc, r.target);
        predictor.update(r.pc, r.target, r.outcome);
        let entry = per_class.entry(classes[&r.pc]).or_default();
        entry.0 += 1;
        if predicted != r.outcome {
            entry.1 += 1;
        }
    }

    let total: u64 = per_class.values().map(|v| v.0).sum();
    let wrong: u64 = per_class.values().map(|v| v.1).sum();
    println!(
        "{benchmark} / {}: overall {:.2}% over {total} branches\n",
        predictor.name(),
        100.0 * wrong as f64 / total as f64
    );
    println!(
        "{:<18} {:>10} {:>8} {:>10} {:>16}",
        "class", "instances", "share", "missrate", "overall contrib"
    );
    let mut rows: Vec<_> = per_class.into_iter().collect();
    rows.sort_by_key(|r| std::cmp::Reverse(r.1 .1));
    for (class, (n, m)) in rows {
        println!(
            "{:<18} {:>10} {:>7.1}% {:>9.2}% {:>15.2}%",
            class,
            n,
            100.0 * n as f64 / total as f64,
            100.0 * m as f64 / n as f64,
            100.0 * m as f64 / total as f64
        );
    }
    ExitCode::SUCCESS
}

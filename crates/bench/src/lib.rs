//! Shared plumbing for the experiment binaries.
//!
//! Every binary regenerating a paper exhibit accepts the same flags:
//!
//! ```text
//! --branches <n>   trace length in conditional branches (default: model)
//! --seed <n>       trace seed (default 1996)
//! --min-bits <n>   smallest tier, log2 counters (default 4)
//! --max-bits <n>   largest tier, log2 counters (default 15, at most 30)
//! --csv            emit CSV instead of aligned text (`all` rejects it)
//! --quick          shorthand for --branches 50000 --max-bits 10; an
//!                  explicit --branches or --max-bits wins, in any order
//! ```
//!
//! When `BPRED_CACHE_DIR` is set, [`Args::parse`] additionally opens
//! the result store rooted there and installs it as the process-wide
//! sweep cache (see [`bpred_serve::store`]): previously computed
//! sweep cells load from disk instead of re-simulating, and fresh
//! cells persist for the next run. Unset, nothing changes.

use std::process::ExitCode;

use bpred_core::TableGeometry;

pub mod replay_rows;
use bpred_sim::experiments::ExperimentOptions;

/// Parsed command-line options for an experiment binary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Args {
    /// Experiment options forwarded to the drivers.
    pub options: ExperimentOptions,
    /// Emit CSV instead of human-readable tables.
    pub csv: bool,
}

impl Args {
    /// Parses `std::env::args`, printing usage and exiting on error.
    ///
    /// Also installs the on-disk result cache when `BPRED_CACHE_DIR`
    /// is set (see the crate docs); [`parse_from`](Self::parse_from)
    /// stays pure for tests.
    pub fn parse() -> Result<Args, ExitCode> {
        let args = Self::parse_from(std::env::args().skip(1))?;
        bpred_serve::install_from_env();
        Ok(args)
    }

    /// Parses an explicit argument list (testable).
    pub fn parse_from(args: impl IntoIterator<Item = String>) -> Result<Args, ExitCode> {
        let mut options = ExperimentOptions::default();
        let (mut branches, mut max_bits) = (None, None);
        let (mut csv, mut quick) = (false, false);
        let mut iter = args.into_iter();
        while let Some(arg) = iter.next() {
            match arg.as_str() {
                "--branches" => branches = Some(require_number(&arg, iter.next())?),
                "--seed" => options.seed = require_number(&arg, iter.next())? as u64,
                "--min-bits" => options.min_bits = require_bits(&arg, iter.next())?,
                "--max-bits" => max_bits = Some(require_bits(&arg, iter.next())?),
                "--csv" => csv = true,
                "--quick" => quick = true,
                "--help" | "-h" => {
                    eprintln!(
                        "usage: [--branches N] [--seed N] [--min-bits N] [--max-bits N] [--csv] [--quick]"
                    );
                    return Err(ExitCode::SUCCESS);
                }
                other => {
                    eprintln!("unknown argument {other:?}; try --help");
                    return Err(ExitCode::FAILURE);
                }
            }
        }
        // Explicit sizes win over --quick's, wherever the flags sit.
        if quick {
            options.branches = Some(50_000);
            options.max_bits = options.max_bits.min(10);
        }
        options.branches = branches.or(options.branches);
        options.max_bits = max_bits.unwrap_or(options.max_bits);
        if options.min_bits > options.max_bits {
            eprintln!("--min-bits must not exceed --max-bits");
            return Err(ExitCode::FAILURE);
        }
        if options.max_bits > TableGeometry::MAX_TOTAL_BITS {
            eprintln!(
                "--max-bits must not exceed {} (the largest supported table)",
                TableGeometry::MAX_TOTAL_BITS
            );
            return Err(ExitCode::FAILURE);
        }
        Ok(Args { options, csv })
    }
}

fn require_number(flag: &str, value: Option<String>) -> Result<usize, ExitCode> {
    let Some(text) = value else {
        eprintln!("{flag} requires a value");
        return Err(ExitCode::FAILURE);
    };
    text.parse().map_err(|_| {
        eprintln!("{flag}: {text:?} is not a number");
        ExitCode::FAILURE
    })
}

/// A table-size flag's value in bits; values past `u32` saturate, so
/// the range check rejects them instead of wrapping them small.
fn require_bits(flag: &str, value: Option<String>) -> Result<u32, ExitCode> {
    Ok(require_number(flag, value)?.try_into().unwrap_or(u32::MAX))
}

/// The `rustc --version` line of the toolchain `RUSTC` names (plain
/// `rustc` when unset), or `unknown`: the toolchain a `BENCH_*.json`
/// artifact records.
pub fn rustc_version() -> String {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".to_owned());
    std::process::Command::new(rustc)
        .arg("--version")
        .output()
        .ok()
        .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_owned())
        .filter(|v| !v.is_empty())
        .unwrap_or_else(|| "unknown".to_owned())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, ExitCode> {
        Args::parse_from(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn defaults_match_paper_range() {
        let args = parse(&[]).unwrap();
        assert_eq!(args.options.min_bits, 4);
        assert_eq!(args.options.max_bits, 15);
        assert_eq!(args.options.branches, None);
        assert!(!args.csv);
    }

    #[test]
    fn flags_are_applied() {
        let args = parse(&[
            "--branches",
            "1000",
            "--seed",
            "7",
            "--min-bits",
            "5",
            "--max-bits",
            "9",
            "--csv",
        ])
        .unwrap();
        assert_eq!(args.options.branches, Some(1000));
        assert_eq!(args.options.seed, 7);
        assert_eq!(args.options.min_bits, 5);
        assert_eq!(args.options.max_bits, 9);
        assert!(args.csv);
    }

    #[test]
    fn quick_mode_caps_size() {
        let args = parse(&["--quick"]).unwrap();
        assert_eq!(args.options.branches, Some(50_000));
        assert_eq!(args.options.max_bits, 10);
    }

    #[test]
    fn explicit_sizes_win_over_quick_in_either_order() {
        for args in [
            ["--branches", "1000", "--quick", "--max-bits", "12"],
            ["--quick", "--branches", "1000", "--max-bits", "12"],
            ["--max-bits", "12", "--branches", "1000", "--quick"],
        ] {
            let options = parse(&args).unwrap().options;
            assert_eq!(options.branches, Some(1000), "{args:?}");
            assert_eq!(options.max_bits, 12, "{args:?}");
        }
        let capped = parse(&["--branches", "1000", "--quick"]).unwrap().options;
        assert_eq!(capped.max_bits, 10);
        let sized = parse(&["--max-bits", "8", "--quick"]).unwrap().options;
        assert_eq!((sized.branches, sized.max_bits), (Some(50_000), 8));
    }

    #[test]
    fn bad_flags_are_rejected() {
        assert!(parse(&["--bogus"]).is_err());
        assert!(parse(&["--seed"]).is_err());
        assert!(parse(&["--seed", "abc"]).is_err());
        assert!(parse(&["--min-bits", "9", "--max-bits", "5"]).is_err());
    }

    #[test]
    fn max_bits_past_the_table_limit_is_rejected() {
        let limit = TableGeometry::MAX_TOTAL_BITS.to_string();
        let past = (TableGeometry::MAX_TOTAL_BITS + 1).to_string();
        let args = parse(&["--max-bits", &limit]).unwrap();
        assert_eq!(args.options.max_bits, TableGeometry::MAX_TOTAL_BITS);
        assert!(parse(&["--max-bits", &past]).is_err());
        assert!(parse(&["--min-bits", "40", "--max-bits", "40"]).is_err());
        // 2^32 + 5 must not wrap to 5.
        assert!(parse(&["--max-bits", "4294967301"]).is_err());
    }
}

//! `bpred-serve` binary: the sweep service over HTTP, plus store
//! maintenance subcommands.
//!
//! ```text
//! serve [--addr HOST:PORT] [--cache-dir DIR] [--shards N] [--workers N]
//!       [--queue N] [--max-branches N]
//! serve store stats DIR       print tier sizes and counts
//! ```
//!
//! `--cache-dir` defaults to `BPRED_CACHE_DIR` when set; with neither,
//! the server runs uncached (every cell simulates). The bound address
//! is printed on startup — use port 0 to let the OS pick. The store
//! only grows: to trim it, stop the server and delete old sealed
//! segments (`packs/seg-*.pack`) or the whole directory.
//!
//! Env knobs (flags win): `BPRED_SERVE_QUEUE` (compute queue depth),
//! `BPRED_SERVE_TIMEOUT_MS` (read/write timeout),
//! `BPRED_SERVE_IDLE_MS` (keep-alive idle timeout),
//! `BPRED_STORE_HOT_BYTES` / `BPRED_STORE_SEAL_BYTES` (store tuning).

use std::process::ExitCode;

use bpred_serve::server::{Server, ServerConfig};
use bpred_serve::store::ResultStore;

fn usage() -> ! {
    eprintln!(
        "usage: serve [--addr HOST:PORT] [--cache-dir DIR] [--shards N] [--workers N]\n\
         \x20            [--queue N] [--max-branches N]\n\
         \x20      serve store stats DIR\n\
         \n\
         endpoints:\n\
         \x20 GET /healthz\n\
         \x20 GET /metrics\n\
         \x20 GET /sweep?workload=<name>&configs=<cfg>;<cfg>[&seed=N][&branches=N][&warmup=N]\n\
         \n\
         defaults: --addr 127.0.0.1:8199, --shards 2, --workers 4, --max-branches 2000000,\n\
         --queue $BPRED_SERVE_QUEUE (64), --cache-dir $BPRED_CACHE_DIR (unset: uncached);\n\
         timeouts via BPRED_SERVE_TIMEOUT_MS (10000) and BPRED_SERVE_IDLE_MS (30000);\n\
         store tuning via BPRED_STORE_HOT_BYTES and BPRED_STORE_SEAL_BYTES;\n\
         the store only grows: to trim it, stop the server and delete old\n\
         sealed segments (DIR/packs/seg-*.pack) or the whole directory"
    );
    std::process::exit(2);
}

/// `serve store stats DIR` — sizes and counts per tier.
fn store_stats(dir: &str) -> ExitCode {
    match ResultStore::open(dir) {
        Ok(store) => {
            println!("engine version : {}", bpred_sim::ENGINE_VERSION);
            println!("cells          : {}", store.len());
            println!("segments       : {}", store.segments());
            println!("payload bytes  : {}", store.total_bytes());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: cannot open store at {dir}: {e}");
            ExitCode::FAILURE
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();

    if args.first().map(String::as_str) == Some("store") {
        return match (args.get(1).map(String::as_str), args.get(2)) {
            (Some("stats"), Some(dir)) if args.len() == 3 => store_stats(dir),
            _ => usage(),
        };
    }

    let mut config = ServerConfig {
        addr: "127.0.0.1:8199".to_owned(),
        ..ServerConfig::default()
    };
    if let Ok(dir) = std::env::var("BPRED_CACHE_DIR") {
        if !dir.is_empty() {
            config.cache_dir = Some(dir.into());
        }
    }

    fn value(args: &[String], i: &mut usize, name: &str) -> String {
        *i += 1;
        args.get(*i).cloned().unwrap_or_else(|| {
            eprintln!("error: {name} needs a value");
            usage();
        })
    }

    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--addr" => config.addr = value(&args, &mut i, "--addr"),
            "--cache-dir" => config.cache_dir = Some(value(&args, &mut i, "--cache-dir").into()),
            "--workers" => {
                config.workers = match value(&args, &mut i, "--workers").parse() {
                    Ok(n) if n > 0 => n,
                    _ => {
                        eprintln!("error: --workers needs a positive count");
                        return ExitCode::from(2);
                    }
                }
            }
            "--shards" => {
                config.shards = match value(&args, &mut i, "--shards").parse() {
                    Ok(n) if n > 0 => n,
                    _ => {
                        eprintln!("error: --shards needs a positive count");
                        return ExitCode::from(2);
                    }
                }
            }
            "--queue" => {
                config.queue_depth = match value(&args, &mut i, "--queue").parse() {
                    Ok(n) if n > 0 => n,
                    _ => {
                        eprintln!("error: --queue needs a positive depth");
                        return ExitCode::from(2);
                    }
                }
            }
            "--max-branches" => {
                config.max_branches = match value(&args, &mut i, "--max-branches").parse() {
                    Ok(n) if n > 0 => n,
                    _ => {
                        eprintln!("error: --max-branches needs a positive count");
                        return ExitCode::from(2);
                    }
                }
            }
            "--help" | "-h" => usage(),
            other => {
                eprintln!("error: unknown argument {other:?}");
                usage();
            }
        }
        i += 1;
    }

    let cache_note = config
        .cache_dir
        .as_ref()
        .map(|d| format!("result store at {}", d.display()))
        .unwrap_or_else(|| "uncached (set BPRED_CACHE_DIR or --cache-dir)".to_owned());
    match Server::start(config) {
        Ok(handle) => {
            println!("bpred-serve listening on http://{}", handle.addr());
            println!("{cache_note}");
            // Serve until killed.
            loop {
                std::thread::park();
            }
        }
        Err(e) => {
            eprintln!("error: cannot start server: {e}");
            ExitCode::FAILURE
        }
    }
}

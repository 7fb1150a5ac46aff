//! Trace-driven branch-prediction simulation: engine, parallel
//! configuration sweeps, design-space surfaces, report formatting, and
//! the experiment drivers that regenerate every table and figure of
//! Sechrest, Lee & Mudge (ISCA 1996).
//!
//! # Replay core & observers
//!
//! Every replay in this crate — [`Simulator::run`], the batched sweep
//! lanes, [`ProfiledRun`], [`interference::classify`] — is one
//! [`ReplayCore`] pass: predict, score after warmup, update, note
//! non-conditional control transfers. Measurement concerns that used
//! to be separate hand-rolled loops are [`Observer`]s attached to that
//! single feed path; observers see the predictor only through a shared
//! borrow, so attaching any combination of them cannot change results
//! (enforced by `tests/observers.rs` at the workspace root).
//!
//! # Batched replay
//!
//! Sweeps route through the chunked decode-once engine
//! ([`run_batched`]): any
//! [`TraceSource`](bpred_trace::TraceSource) — a materialised
//! [`Trace`](bpred_trace::Trace) or a workload generator — is
//! generated/decoded into structure-of-arrays
//! [`TraceChunk`](bpred_trace::TraceChunk)s **once per sweep**, and
//! every configuration's lane replays that single chunk sequence.
//! With one worker the chunks are produced inline; with more, a
//! producer thread publishes them into a bounded ref-counted ring
//! shared by all shard workers, overlapping trace production with
//! replay. Results are bit-identical to [`Simulator::run`] per
//! configuration (enforced by `tests/determinism.rs` at the
//! workspace root). Shard sizing: [`DEFAULT_SHARD_SIZE`] (8) fits
//! the paper's predictor sizes; shrink it when a shard's combined
//! predictor state would fall out of cache.
//! [`records_replayed_total`] exposes the pipeline's process-wide
//! replay counter.
//!
//! # Running the test suite
//!
//! `cargo test -q` at the workspace root runs the tier-1 integration
//! tests (paper claims, determinism, golden workload statistics);
//! `cargo test -q --workspace` adds per-crate unit and property
//! tests; `cargo bench -p bpred-bench --bench sweeps` measures
//! whole-tier sweeps through the batched engine.
//!
//! # Examples
//!
//! ```
//! use bpred_core::{Gas, Gshare};
//! use bpred_sim::Simulator;
//! use bpred_workloads::suite;
//!
//! let trace = suite::mpeg_play().scaled(20_000).trace(1);
//! let sim = Simulator::new();
//! let gas = sim.run(&mut Gas::new(6, 4), &trace);
//! let gshare = sim.run(&mut Gshare::new(6, 4), &trace);
//! println!("{gas}\n{gshare}");
//! assert!(gas.conditionals == 20_000);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod batch;
pub mod cache;
mod cost;
mod engine;
pub mod experiments;
pub mod interference;
pub mod multilane;
mod profiled;
pub mod ranking;
mod replay;
mod replicate;
pub mod report;
mod ring;
mod surface;
mod sweep;

pub use batch::{
    records_replayed_total, replay_group_lanes, replay_pairs_per_sec, replay_prefetch_groups,
    replay_scalar_lanes, run_batched, run_batched_chunked, DEFAULT_SHARD_SIZE,
};
pub use cache::{run_configs_keyed, CellKey, ResultCache, ENGINE_VERSION};
pub use cost::CpiModel;
pub use engine::{SimResult, Simulator};
pub use interference::{InterferenceObserver, InterferenceStats};
pub use multilane::{dispatch_tier, LaneSet, LANE_TIER_LABELS};
pub use profiled::{BranchOutcomeCounts, BranchProfiler, ProfiledRun};
pub use replay::{Observer, ReplayCore};
pub use replicate::{replicate, Replication};
pub use report::TextTable;
pub use surface::{Surface, SurfacePoint, Tier};
pub use sweep::{run_config, run_configs};

//! Synthetic branch-trace workloads calibrated to the SPECint92 and
//! IBS-Ultrix benchmarks of Sechrest, Lee & Mudge (ISCA 1996).
//!
//! The original MIPS traces are unavailable, so this crate substitutes
//! *statistical program models*: each benchmark is materialised as a
//! fixed synthetic program whose static-branch count, dynamic-coverage
//! skew (Tables 1–2 of the paper), branch-bias mix, and address layout
//! match the published characterization. See `DESIGN.md` at the
//! workspace root for the substitution argument.
//!
//! * [`suite`] — the fourteen benchmark models
//!   ([`suite::espresso`], [`suite::mpeg_play`], [`suite::real_gcc`], …);
//! * [`WorkloadModel`] / [`BenchmarkSpec`] — build custom workloads;
//! * [`BranchBehavior`] — the per-branch behaviour taxonomy (biased,
//!   loop, periodic pattern, globally correlated);
//! * [`CfgProgram`] — an independent control-flow-graph workload where
//!   correlation arises structurally;
//! * [`AliasTable`], [`bucket_weights`], [`TextLayout`] — the building
//!   blocks.
//!
//! # Examples
//!
//! ```
//! use bpred_trace::stats::TraceStats;
//! use bpred_workloads::suite;
//!
//! let trace = suite::espresso().scaled(50_000).trace(42);
//! let stats = TraceStats::measure(&trace);
//! // The model reproduces espresso's skew: ~12 branches supply half
//! // the dynamic instances.
//! assert!(stats.static_for_fraction(0.5) < 30);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod behavior;
mod builder;
mod cfg;
mod layout;
mod model;
mod multiprog;
mod sampling;
mod spec;
pub mod suites;
mod weights;

pub use behavior::BranchBehavior;
pub use builder::WorkloadBuilder;
pub use cfg::{Block, BlockId, CfgConfig, CfgProgram, Condition, Effect, Terminator};
pub use layout::{TextLayout, TEXT_BASE};
pub use model::{StaticBranch, TraceStream, WorkloadModel, WorkloadSource};
pub use multiprog::Multiprogrammed;
pub use sampling::AliasTable;
pub use spec::{BehaviorMix, BehaviorTuning, BenchmarkSpec, BiasRange, PaperReference, SuiteKind};
pub use weights::bucket_weights;

/// Alias of [`suites`] used throughout examples (`suite::espresso()`).
pub use suites as suite;

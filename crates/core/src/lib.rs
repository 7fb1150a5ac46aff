//! Dynamic branch predictors with aliasing instrumentation.
//!
//! This crate implements every prediction scheme studied in *Sechrest,
//! Lee & Mudge, "Correlation and Aliasing in Dynamic Branch Predictors"
//! (ISCA 1996)*, plus the baselines and extensions needed to reproduce
//! and extend its evaluation:
//!
//! * the general two-level model of the paper's Figure 1
//!   ([`TwoLevel`] = a [`RowSelector`] in front of an instrumented
//!   [`CounterTable`]);
//! * address-indexed two-bit counters ([`AddressIndexed`]), GAg/GAs
//!   ([`Gas`]), gshare ([`Gshare`]), Nair's path-based scheme
//!   ([`PathBased`]);
//! * per-address schemes PAg/PAs ([`Pas`]) over perfect
//!   ([`PerfectBht`]) or finite tag-checked ([`SetAssocBht`])
//!   first-level tables;
//! * static baselines ([`AlwaysTaken`], [`AlwaysNotTaken`], [`Btfn`],
//!   [`LastTime`]) and McFarling's combining
//!   predictor ([`Combining`]);
//! * aliasing accounting ([`AliasStats`]) built into every table
//!   access, distinguishing the paper's harmless all-ones-pattern
//!   conflicts from harmful ones.
//!
//! # Examples
//!
//! ```
//! use bpred_core::{BranchPredictor, Gshare};
//! use bpred_trace::Outcome;
//!
//! let mut p = Gshare::new(8, 2); // 2^8 x 2^2 = 1024 counters
//! let mut mispredicts = 0;
//! for i in 0..1000u64 {
//!     let pc = 0x400 + 4 * (i % 16);
//!     let outcome = Outcome::from(i % 3 != 0);
//!     if p.predict(pc, 0x100) != outcome {
//!         mispredicts += 1;
//!     }
//!     p.update(pc, 0x100, outcome);
//! }
//! println!("{}: {} mispredicts, {}", p.name(), mispredicts, p.table_alias_stats());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod aliasing;
mod bht;
pub mod cell;
mod combining;
mod config;
mod counter;
mod dealiased;
mod delayed;
mod fsm;
mod geometry;
mod global;
mod history;
mod peraddr;
mod plan;
mod predictor;
mod setsel;
mod speculative;
mod static_pred;
mod table;
mod twolevel;
mod yags;

pub use aliasing::AliasStats;
pub use bht::{BhtStats, HistoryTable, PerfectBht, SetAssocBht};
pub use combining::Combining;
pub use config::{ParseConfigError, PredictorConfig, SchemeVisitor};
pub use counter::{CounterState, SaturatingCounter, TwoBitCounter};
pub use dealiased::{Agree, BiMode, Gskew};
pub use delayed::DelayedUpdate;
pub use fsm::{FsmPredictor, FsmSpec, InvalidFsmError};
pub use geometry::TableGeometry;
pub use global::{
    AddressIndexed, Gas, GlobalSelector, Gshare, GshareSelector, NullSelector, PathBased,
    PathSelector,
};
pub use history::{reset_pattern, HistoryRegister, PathRegister};
pub use peraddr::{Pas, SelfSelector};
pub use plan::{
    CombineRule, IndexFn, Level1Read, PlanKind, TableRead, WalkPlan, SKEW_BANK_MULTIPLIERS,
};
pub use predictor::BranchPredictor;
pub use setsel::{Sas, SetSelector};
pub use speculative::SpeculativeGshare;
pub use static_pred::{AlwaysNotTaken, AlwaysTaken, Btfn, LastTime};
pub use table::CounterTable;
pub use twolevel::{RowSelection, RowSelector, TwoLevel};
pub use yags::Yags;

//! Branch trace model for trace-driven branch-prediction simulation.
//!
//! This crate provides the vocabulary types shared by the whole `bpred`
//! workspace:
//!
//! * [`Outcome`] — a resolved conditional-branch direction;
//! * [`BranchRecord`] — one dynamic branch instance (program counter,
//!   target, kind, outcome);
//! * [`Trace`] — an in-memory sequence of branch records with iteration,
//!   slicing, and collection support;
//! * [`TraceSource`] — a restartable streaming view of a record
//!   sequence, letting generators feed the simulation engine without
//!   materialising a full trace; each source produces chunks through
//!   one [`ChunkFeeder`];
//! * [`TraceChunk`] — a structure-of-arrays run of records (parallel
//!   address/target arrays, bit-packed outcome/kind words), the unit
//!   the chunked sweep pipeline decodes once and shares across shard
//!   workers;
//! * [`binfmt`] — the compact binary format, one streaming encoder and
//!   one decoder; [`textfmt`] — a line-oriented text format; [`io`] —
//!   trace files in either format;
//! * [`stats`] — workload characterization (static/dynamic branch counts,
//!   bias, and dynamic-coverage buckets) mirroring Tables 1–2 of
//!   Sechrest, Lee & Mudge (ISCA 1996).
//!
//! # Examples
//!
//! ```
//! use bpred_trace::{BranchRecord, Outcome, Trace};
//!
//! let trace: Trace = (0..8)
//!     .map(|i| BranchRecord::conditional(0x400_000 + 4 * i, 0x400_100, Outcome::from(i % 2 == 0)))
//!     .collect();
//! assert_eq!(trace.len(), 8);
//! let taken = trace.iter().filter(|r| r.outcome.is_taken()).count();
//! assert_eq!(taken, 4);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod binfmt;
mod chunk;
mod error;
pub mod fnv;
pub mod io;
mod outcome;
mod record;
mod source;
pub mod stats;
mod stream;
pub mod textfmt;

pub use chunk::{ChunkRecords, TraceChunk};
pub use error::{DecodeTraceError, ParseTraceError, ParseTraceErrorKind};
pub use outcome::Outcome;
pub use record::{BranchKind, BranchRecord};
pub use source::{ChunkFeeder, TraceSource};
pub use stream::{Iter, Trace};

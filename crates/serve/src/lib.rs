//! Result store and sweep service.
//!
//! The paper's evaluation is a grid of independent, deterministic
//! simulations — the same cells recur across figures, tables, and
//! reruns. This crate makes that structure operational with two
//! layers:
//!
//! * **[`store`]** — a two-tier content-addressed cache of
//!   [`SimResult`](bpred_sim::SimResult)s, keyed by the stable digest
//!   of a sweep cell's [`CellKey`](bpred_sim::CellKey) (workload
//!   stream identity × predictor configuration × warmup × engine
//!   version). Reads fall through a sharded in-memory **hot tier**
//!   ([`hot`]) to checksummed append-only **pack segments**, indexed
//!   in memory by scanning them at open ([`pack`]); pack bytes are
//!   verified (checksum + embedded canonical key) before being
//!   believed. Only results this process computed are stored: no
//!   route or option accepts a cell from outside. [`ResultStore`]
//!   implements [`ResultCache`](bpred_sim::ResultCache), so a keyed
//!   sweep given one is memoised (the `bpred-bench` binaries `all`,
//!   `export` and `simulate` pass the store [`open_from_env`] opens
//!   when `BPRED_CACHE_DIR` is set). The store only grows; trim it by
//!   stopping its users and deleting old sealed segments or the whole
//!   directory.
//!
//! * **[`server`]** — a dependency-free event-driven HTTP/1.1
//!   service: sharded readiness loops over nonblocking `std::net`
//!   (poll(2) via the self-contained [`reactor`]) drive
//!   per-connection state machines with keep-alive, pipelining, and
//!   read/write/idle timeouts, handing sweep compute to a bounded
//!   worker queue that load-sheds with `429 + Retry-After` when
//!   saturated. Requests decompose into cells; cells are
//!   deduplicated against the store and against in-flight work
//!   ([`flight`], single-flight coalescing), and the residual misses
//!   run as one batch through the single-pass engine. `/healthz`
//!   reports liveness and `/metrics` exposes Prometheus counters for
//!   requests (by status), connections, sheds, queue depth, cache
//!   hits/misses, in-flight batches, and batch latency.
//!
//! # Quick start
//!
//! ```no_run
//! use bpred_serve::server::{Server, ServerConfig};
//!
//! let handle = Server::start(ServerConfig::default()).unwrap();
//! println!("listening on http://{}", handle.addr());
//! // GET /sweep?workload=espresso&branches=100000&configs=gshare:h=8,c=2;gas:h=8,c=2
//! handle.shutdown();
//! ```

// `deny` rather than `forbid`: the one `#[allow(unsafe_code)]`
// carve-out is `reactor::sys`, the poll(2) binding that keeps the
// event loop vendor-free.
#![deny(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod codec;
pub mod flight;
pub mod hot;
pub mod http;
pub mod json;
pub mod metrics;
pub mod pack;
pub mod reactor;
pub mod server;
pub mod service;
pub mod store;

pub use metrics::Metrics;
pub use server::{Server, ServerConfig, ServerHandle};
pub use service::{sweep_body, SweepRequest, SweepService};
pub use store::{open_from_env, ResultStore, StoreOptions, StoreStats};

//! # ehp-serve
//!
//! The scenario **serving** layer: the first subsystem of the workspace
//! whose job is traffic rather than simulation. Three building blocks,
//! each usable on its own, composed by `ehp-harness` into the cached
//! `ehp run`/`ehp all` path, the `ehp worker` child-process mode, and
//! the long-running `ehp serve` Unix-socket daemon:
//!
//! * [`cache`] — a content-hash-keyed experiment **result cache**
//!   (`target/result-cache/`): key = FNV-1a over the canonical scenario
//!   JSON, the experiment id, and a code version (the harness hashes
//!   every workspace source file at build time).
//!   Versioned, degrade-to-empty on any load failure, byte-identical
//!   summaries hot or cold — the same discipline the lint incremental
//!   cache proved (DESIGN.md §11).
//! * [`pool`] — a **multi-process worker pool**: child processes of the
//!   same binary claim scenario chunks over a length-prefixed JSON
//!   stdin/stdout protocol ([`frame`]). Workers that die, emit
//!   malformed frames, or exceed a per-chunk timeout are killed and the
//!   chunk retried on a fresh worker; after bounded retries the chunk
//!   degrades to the caller's in-process fallback, so one poisoned
//!   scenario can never sink a batch.
//! * [`server`] — the accept/dispatch loop over a Unix domain socket
//!   (`std::os::unix::net`, zero deps): framed JSON requests in,
//!   streamed per-scenario frames plus a final response out, with
//!   [`stats`] tracking requests, cache hit/miss counts, worker
//!   restarts, and end-to-end latency percentiles.
//!
//! The crate deliberately knows nothing about experiments or the
//! registry: jobs and results are opaque [`Json`](ehp_sim_core::json::Json)
//! values, and request handling is injected via [`server::Handler`].
//! `ehp-harness` supplies the semantics; this crate supplies the
//! traffic machinery. DESIGN.md §12 documents the cache-key discipline,
//! the frame protocol, and the retry/degrade ladder.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod cache;
pub mod frame;
pub mod pool;
#[cfg(unix)]
pub mod server;
pub mod stats;

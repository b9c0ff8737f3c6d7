//! Test oracles for the memory model: the reference implementations the
//! production code replaced or must match, kept out of shipped code.
//! The crate's unit tests include this file by `#[path]`.
//!
//! - [`stamp_slice`]: the stamp-based Infinity Cache slice the per-set
//!   recency record replaced, checked against `icache::SliceMut`.
//! - [`loop_refresh`]: the per-interval refresh catch-up loop the closed
//!   form replaced, checked against `hbm::HbmBank`.
//! - [`decode`]: the two-step address decode (stack and channel, then
//!   bank) the fused `interleave::Interleaver::decode` replaced, checked
//!   against it.
//! - [`replay`]: the sequential reference replay, one
//!   `MemorySubsystem::access` per request. It needs only the public API,
//!   so `tests/replay_determinism.rs` and `crates/bench/benches/replay.rs`
//!   include that file alone by `#[path]`.

pub mod decode;
pub mod loop_refresh;
pub mod replay;
pub mod stamp_slice;

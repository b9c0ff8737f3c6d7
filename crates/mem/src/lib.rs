//! # ehp-mem
//!
//! The unified HBM memory subsystem of the MI300-class APU models:
//! physical-address interleaving across stacks/channels (Section IV.D of
//! the paper: "Every 4 KB of sequential physical addresses map to the same
//! HBM stack before moving on to another HBM stack chosen based on a
//! physical address hashing scheme"), per-channel HBM bank/bus timing, and
//! the memory-side **Infinity Cache** (2 MB slice per channel, 256 MB
//! total, up to 17 TB/s of bandwidth amplification, with a hardware
//! prefetcher).
//!
//! The top-level entry point is
//! [`MemorySubsystem`](subsystem::MemorySubsystem), which routes requests
//! through the interleaver to per-channel
//! [`MemoryChannel`](channel::MemoryChannel)s.
//!
//! ## Example
//!
//! ```
//! use ehp_mem::request::MemRequest;
//! use ehp_mem::subsystem::{MemConfig, MemorySubsystem};
//! use ehp_sim_core::time::SimTime;
//!
//! let mut mem = MemorySubsystem::new(MemConfig::mi300_hbm3());
//! let done = mem.access(SimTime::ZERO, MemRequest::read(0x4000, 64));
//! assert!(done.completes_at > SimTime::ZERO);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod channel;
pub mod hbm;
pub mod icache;
pub mod interleave;
pub mod request;
pub mod subsystem;
pub mod trace;

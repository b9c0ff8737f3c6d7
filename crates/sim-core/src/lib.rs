//! # ehp-sim-core
//!
//! Simulation primitives shared by every substrate crate of the
//! `ehp-sim` project — a software reproduction of the systems described in
//! *"Realizing the AMD Exascale Heterogeneous Processor Vision"* (ISCA 2024,
//! Industry Track).
//!
//! The crate deliberately has **no external dependencies**: it provides the
//! simulated clock, physical-unit newtypes, component identifiers,
//! statistic sinks, a deterministic RNG, a JSON codec, a content hash,
//! and shared-resource (bandwidth/served-queue) models that
//! higher-level crates compose into memory, fabric, compute, dispatch,
//! power and thermal simulators.
//!
//! ## Example
//!
//! ```
//! use ehp_sim_core::resource::BandwidthPipe;
//! use ehp_sim_core::time::SimTime;
//! use ehp_sim_core::units::{Bandwidth, Bytes};
//!
//! // Two 1 KB transfers issued together on a 1 TB/s pipe: the second
//! // queues behind the first, so both finish after 2 ns.
//! let mut pipe = BandwidthPipe::new("link", Bandwidth::from_gb_s(1000.0));
//! pipe.request(SimTime::ZERO, Bytes(1000));
//! let done = pipe.request(SimTime::ZERO, Bytes(1000));
//! assert_eq!(done, SimTime::from_nanos(2));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod hash;
pub mod ids;
pub mod json;
pub mod resource;
pub mod rng;
pub mod stats;
pub mod time;
pub mod units;

pub use ids::{ChannelId, ChipletId, CuId, IodId, NodeId, SocketId};
pub use json::{Json, ToJson};
pub use rng::SplitMix64;
pub use time::{Cycle, Frequency, SimTime};
pub use units::{Bandwidth, Bytes, Energy, Power};

//! # ehp-dispatch
//!
//! The kernel-launch path of the MI300A (Section VI.A): Architected
//! Queueing Language (AQL) dispatch packets, per-XCD Asynchronous
//! Compute Engines (ACEs) that launch their share of a packet's
//! workgroups, and the **cooperative multi-XCD dispatch protocol** of
//! Figure 13 — every ACE in a partition reads each dispatch packet,
//! launches its subset of the workgroups, synchronises with its peers
//! over the fabric's high-priority channel, and a nominated XCD signals
//! kernel completion through a [`CompletionSignal`](signal::CompletionSignal).
//!
//! ## Example
//!
//! ```
//! use ehp_dispatch::aql::AqlPacket;
//! use ehp_dispatch::dispatcher::{DispatcherConfig, MultiXcdDispatcher};
//!
//! let pkt = AqlPacket::dispatch_1d(1024 * 64, 64); // 1024 workgroups
//! let mut d = MultiXcdDispatcher::new(DispatcherConfig::mi300a_partition());
//! let run = d.dispatch(&pkt, |_wg| 1_000); // 1000 cycles per workgroup
//! assert_eq!(run.workgroups_launched, 1024);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod ace;
pub mod aql;
pub mod dispatcher;
pub mod signal;

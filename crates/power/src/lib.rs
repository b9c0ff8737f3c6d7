//! # ehp-power
//!
//! Socket power management for the 3D-stacked APU.
//!
//! Section V.D/V.E of the paper: power can be "dynamically
//! reallocated among the different physical components" — in
//! compute-intensive phases the majority of the budget goes to the
//! compute chiplets; in memory-intensive phases it shifts to the memory
//! system, data fabric and USR links (Figure 12a). Power moves
//! *vertically* between the IOD and the chiplets stacked on it, within
//! the envelope the TSV grid and package can deliver.
//!
//! This crate provides the budget manager
//! ([`SocketPowerManager`](budget::SocketPowerManager)), the per-domain
//! distribution type ([`PowerDistribution`](budget::PowerDistribution)),
//! and a DVFS model ([`dvfs`]) mapping power allocations to achievable
//! clocks.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod budget;
pub mod dvfs;

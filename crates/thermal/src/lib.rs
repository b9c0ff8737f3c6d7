//! # ehp-thermal
//!
//! A 2-D steady-state finite-difference thermal solver over a package
//! floorplan — the tool behind Figure 12(b)/(c)'s "thermal simulation
//! results" for the GPU-intensive and memory-intensive scenarios.
//!
//! The model solves, per grid cell,
//!
//! ```text
//! k_lat · Σ(T_neighbour − T) + P_cell − h·A_cell·(T − T_cold) = 0
//! ```
//!
//! i.e. lateral conduction through the silicon/lid plus vertical heat
//! extraction into the cold plate. The solver runs red-black successive
//! over-relaxation on two planes split by column parity, so each
//! half-sweep updates contiguous rows of one colour from the other's,
//! with the relaxation factor derived from the cell size, and stops once a sweep's largest diagonal-scaled residual
//! drops below [`solver::TOLERANCE_C`]: about 110 sweeps at one cell
//! per mm² (70×56) and 56 at 35×28. Every solved field carries its sweep
//! count and final residual, and `ThermalSolver::imbalance` reports the
//! energy balance as independent evidence of convergence.
//!
//! ## Example
//!
//! ```
//! use ehp_package::floorplan::Floorplan;
//! use ehp_sim_core::units::Power;
//! use ehp_thermal::{ThermalConfig, ThermalSolver};
//!
//! let mut fp = Floorplan::mi300a();
//! fp.assign_power("xcd", Power::from_watts(340.0));
//! let field = ThermalSolver::new(ThermalConfig::default()).solve(&fp);
//! assert!(field.max().0 > 40.0); // well above coolant temperature
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod field;
pub mod solver;

pub use solver::{ThermalConfig, ThermalSolver};

//! # ehp-workloads
//!
//! Analytical workload models driving the paper's evaluation figures:
//!
//! * [`hpc`] — the Figure 20 HPC workloads (GROMACS-class molecular
//!   dynamics, the mini N-body kernel, HPCG, and OpenFOAM-class CFD),
//!   each characterised by its arithmetic work, memory traffic, host
//!   transfer volume and serial CPU fraction, executed against machine
//!   models of MI250X and MI300A.
//! * [`llm`] — the Figure 21 Llama-2 70B inference roofline (prefill =
//!   compute-bound, decode = weight-streaming bandwidth-bound) across
//!   platform/software combinations.
//! * [`scaling`] — Amdahl plus ring all-reduce strong scaling over the
//!   node fabrics of Figures 2 and 18.
//!
//! Calibration stance: workload parameters are physical (flops, bytes,
//! transfer volumes per step); machine numbers come from `ehp-core`
//! product specs. We reproduce the *shape* of the paper's results — who
//! wins and by roughly what factor — not testbed-exact numbers.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod hpc;
pub mod llm;
pub mod scaling;

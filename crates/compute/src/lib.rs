//! # ehp-compute
//!
//! Compute-chiplet models: the CDNA compute unit (CU) with the per-datatype
//! vector/matrix throughput rates of Table 1, the accelerator complex die
//! (XCD — 38 of 40 CUs enabled), and the "Zen 4" CPU complex die (CCD —
//! eight cores at 16 DP FLOPs per cycle).
//!
//! These models are *throughput-accurate*: they answer "how many
//! operations per clock can this block retire for datatype X on unit Y"
//! and expose roofline-style execution-time estimates, which is the level
//! at which every quantitative claim in the paper is made. The Section
//! IV.B studies add a CU occupancy calculator ([`occupancy`]) and the
//! shared per-CU-pair instruction-cache comparison ([`icache`]).
//!
//! ## Example
//!
//! ```
//! use ehp_compute::cu::GpuArch;
//! use ehp_compute::dtype::{DataType, ExecUnit};
//!
//! // Table 1: CDNA 3 doubles FP16 matrix throughput over CDNA 2 and adds FP8.
//! let c2 = GpuArch::Cdna2.ops_per_clock(ExecUnit::Matrix, DataType::Fp16).unwrap();
//! let c3 = GpuArch::Cdna3.ops_per_clock(ExecUnit::Matrix, DataType::Fp16).unwrap();
//! assert_eq!((c2, c3), (1024, 2048));
//! assert!(GpuArch::Cdna2.ops_per_clock(ExecUnit::Matrix, DataType::Fp8).is_none());
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod ccd;
pub mod cu;
pub mod dtype;
pub mod icache;
pub mod occupancy;
pub mod xcd;

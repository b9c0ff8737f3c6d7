//! # ehp-core
//!
//! The paper's primary contribution, assembled from the substrate crates:
//! models of the AMD Instinct MI250X, MI300A and MI300X (plus the
//! hypothetical EHPv4), the unified-memory APU programming model, the
//! compute/memory partitioning modes, and the node-level topologies.
//!
//! * [`products`] — product spec sheets, the Figure 7 interface
//!   bandwidths and the generational-uplift arithmetic of Figure 19.
//! * [`progmodel`] — the CPU-only / discrete-GPU / APU execution models
//!   of Figure 14 and the fine-grained overlap of Figure 15.
//! * [`partition`] — Figure 17's SPX/TPX and 1/2/4/8-partition modes
//!   with NPS1/NPS4 memory.
//! * [`node`] — Figure 18's quad-MI300A and eight-MI300X node
//!   architectures.
//! * [`audit`] — the EHPv4 shortcomings audit (Figure 4) quantified
//!   against the MI300A organisation.
//!
//! ## Example
//!
//! ```
//! use ehp_core::products::Product;
//! use ehp_compute::dtype::{DataType, ExecUnit};
//!
//! let mi300a = Product::Mi300a.spec();
//! let fp64 = mi300a.peak_tflops(ExecUnit::Matrix, DataType::Fp64).unwrap();
//! assert!((fp64 - 122.6).abs() < 0.5); // the advertised 122.6 TFLOP/s
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod audit;
pub mod modular;
pub mod node;
pub mod node_fabric;
pub mod partition;
pub mod powertherm;
pub mod products;
pub mod progmodel;
pub mod ras;
pub mod shim;

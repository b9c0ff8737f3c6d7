//! # ehp-fabric
//!
//! The Infinity Fabric interconnect models: link technologies (3D hybrid
//! bond, in-package ultra-short-reach (USR) PHYs, 2D organic-substrate
//! SerDes, off-package x16 IF/PCIe), the on-package topology graph with
//! shortest-path routing, and a timed transfer simulator with per-link
//! bandwidth contention and transport-energy accounting.
//!
//! Paper anchors:
//! * Section V.A — USR PHYs deliver >10× the area bandwidth density
//!   (Tbps/mm²) of conventional SerDes at 0.4 mW/Gbps, so "the HBM can be
//!   accessed as if the Infinity Fabric were implemented on a single
//!   monolithic IOD".
//! * Section III.B / Figure 4 — EHPv4's server-IOD reuse forced long
//!   paths and DDR-provisioned IF links that bottleneck HBM traffic; the
//!   [`topology`] builders reproduce both organisations so the
//!   `ehpv4_audit` experiment can quantify the difference.
//! * Section VIII / Figure 18 — each socket exposes eight x16 links
//!   (128 GB/s each) for scale-out topologies.
//!
//! A topology is built once from its full link list and is then
//! immutable; the hot data structures are flattened onto dense integer
//! indices (CSR adjacency, all-pairs route table, allocation-free
//! max-min solver workspace). See DESIGN.md §9 for the representation.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod fabric;
pub mod flows;
pub mod link;
pub mod topology;

// The unit tests check the route table and the dense solver against the
// oracles the integration tests use.
#[cfg(test)]
#[path = "../tests/oracle/mod.rs"]
mod oracle;

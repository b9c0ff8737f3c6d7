//! # ehp-package
//!
//! The physical-construction substrate of the MI300 family (Section V):
//! chiplet footprints and placement geometry, the IOD mirroring/rotation
//! scheme with signal-TSV redundancy (Figure 9), the uniform
//! power/ground TSV grid and its current-delivery budget (Section V.D),
//! Infinity-Cache-macro pitch matching (Figure 10), beachfront
//! (perimeter) accounting that motivates the four-IOD partitioning, and
//! package floorplans consumed by the thermal solver.
//!
//! Everything here is *checkable geometry*: the paper's claims about
//! mirrored IODs interfacing with non-mirrored chiplets, TSV grids
//! lining up "for every permutation of mirrored/rotated IOD, CCD, and
//! XCD", and current density ≥ 1.5 A/mm² become executable property
//! tests.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod beachfront;
pub mod bond;
pub mod chiplet;
pub mod ehpv3;
pub mod floorplan;
pub mod geometry;
pub mod mirror;
pub mod tsv;

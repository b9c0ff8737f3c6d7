//! # ehp-bench
//!
//! The microbench shim ([`microbench`]) behind the benches under
//! `benches/`, plus the workspace-root examples and cross-crate
//! integration tests. The paper experiments themselves live in
//! `ehp-harness` and run through the `ehp` CLI (`ehp run <id>`,
//! `ehp all --jobs 8`).

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod microbench;

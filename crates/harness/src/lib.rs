//! `ehp-harness`: the experiment registry, declarative scenarios, and a
//! parallel batch runner with structured metrics.
//!
//! The harness owns everything between "which paper artefact do I want"
//! and "files on disk":
//!
//! * [`registry`] — every experiment (Table 1, Figures 7–21, the audits,
//!   the Infinity-Cache sweep) as one [`experiment::Experiment`] entry,
//!   addressable by stable id.
//! * [`scenario`] — declarative inputs: product-config overrides and
//!   parameter sweeps as JSON spec files that expand into concrete
//!   scenarios.
//! * [`executor`] — the `--jobs N` batch runner: per-scenario panic
//!   isolation, deterministic name-derived seeds, and a batch summary
//!   whose bytes are identical across same-seed runs.
//! * [`serving`] — the scale-out layer (DESIGN.md §12): a content-hash
//!   result cache under `ehp run`/`ehp all`, the `ehp worker`
//!   child-process protocol, and the `ehp serve` Unix-socket daemon,
//!   all built on the experiment-agnostic `ehp-serve` crate. Cache keys
//!   fold in a [`code_version`] hashed from the source tree at build
//!   time, so any source edit invalidates every cached outcome.
//! * [`check`] — committed expected-shape ranges (`ehp check`): the
//!   paper's headline numbers as a regression gate.
//! * [`report`] / [`output`] — the text/JSON result writers; everything
//!   lands under one `target/figures/` layout.
//!
//! The `ehp` binary ([`cli`]) is a thin front end over these modules.

pub mod check;
pub mod cli;
pub mod code_version;
pub mod executor;
pub mod experiment;
mod experiments;
pub mod lint;
pub mod output;
pub mod registry;
pub mod report;
pub mod scenario;
pub mod serving;

pub use experiment::{Experiment, ExperimentResult};
pub use report::Report;
pub use scenario::{Scenario, ScenarioSpec};

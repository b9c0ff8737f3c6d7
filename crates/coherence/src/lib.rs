//! # ehp-coherence
//!
//! Cache-coherence substrate for the APU's unified memory.
//!
//! The paper (Section IV.D): *"The CPUs are hardware coherent with all
//! CPUs and GPUs using the same type of probe filter-based coherence
//! protocol as in EPYC CPUs. The GPUs are software-coherent to GPUs in
//! other sockets (to reduce hardware coherence bandwidth needs) and
//! directory-based hardware coherent within a socket using a slightly
//! simpler protocol than the CPUs use."*
//!
//! Two models live here:
//! * [`probe_filter`] — a MESI-style directory ("probe filter") tracking
//!   owner/sharers per line, with the single-writer-multiple-reader
//!   invariant enforced and verified.
//! * [`multisocket`] — the node-scale policy: which agent's access to
//!   which socket's memory hardware coherence covers.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod multisocket;
pub mod probe_filter;

//! The experiment implementations, one module per paper artefact. Each
//! exposes `pub(crate) fn run(&Scenario) -> ExperimentResult`; the
//! [`registry`](crate::registry) wires them to stable ids.

pub(crate) mod ehpv3_audit;
pub(crate) mod ehpv4_audit;
pub(crate) mod figure12;
pub(crate) mod figure13;
pub(crate) mod figure14;
pub(crate) mod figure15;
pub(crate) mod figure16;
pub(crate) mod figure17;
pub(crate) mod figure18;
pub(crate) mod figure19;
pub(crate) mod figure20;
pub(crate) mod figure21;
pub(crate) mod figure7;
pub(crate) mod frontier_node;
pub(crate) mod ic_sweep;
pub(crate) mod mem_bank_audit;
pub(crate) mod microarch_audit;
pub(crate) mod modular_platform;
pub(crate) mod packaging_audit;
pub(crate) mod power_management;
pub(crate) mod table1;

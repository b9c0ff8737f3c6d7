//! The experiment implementations, one module per paper artefact. Each
//! exposes `pub(crate) fn run(&Scenario) -> ExperimentResult`; the
//! [`registry`](crate::registry) wires them to stable ids.

use ehp_core::products::Product;

use crate::scenario::Scenario;

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

/// Resolves the optional `product` scenario parameter ("mi250x",
/// "mi300a", "mi300x", "ehpv4", case-insensitive).
///
/// # Panics
///
/// Panics on an unknown product name: scenario files are authored by
/// hand, and the batch executor turns the panic into a `Panicked`
/// outcome naming the bad value.
pub(crate) fn product_param(sc: &Scenario, default: Product) -> Product {
    let name = sc.str("product", "");
    match name.to_ascii_lowercase().as_str() {
        "" => default,
        "mi250x" => Product::Mi250x,
        "mi300a" => Product::Mi300a,
        "mi300x" => Product::Mi300x,
        "ehpv4" => Product::Ehpv4,
        other => panic!("unknown product {other:?} (expected mi250x/mi300a/mi300x/ehpv4)"),
    }
}

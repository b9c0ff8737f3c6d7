//! **Figure 7**: MI300A IOD bandwidths across the interface classes
//! (3D hybrid bond, USR, HBM PHY, x16), plus a timed check that traffic
//! through the product's package fabric achieves the claimed rates.

use ehp_core::products::Product;
use ehp_fabric::fabric::FabricSim;
use ehp_fabric::topology::{NodeKey, Topology};
use ehp_sim_core::json::Json;
use ehp_sim_core::time::SimTime;
use ehp_sim_core::units::Bytes;

use crate::experiment::ExperimentResult;
use crate::report::Report;
use crate::scenario::Scenario;

pub(crate) fn run(sc: &Scenario) -> ExperimentResult {
    let mut rep = Report::new(&sc.name);
    let spec = Product::Mi300a.spec();
    let mut fabric = FabricSim::new(Topology::mi300_package(3));

    rep.section("Interface bandwidths (bidirectional)");
    let mut rows = Vec::new();
    let mut usr_aggregate_tb_s = 0.0;
    let mut hbm_aggregate_tb_s = 0.0;
    for i in spec.interface_bandwidths() {
        rep.row(format!(
            "  {:<28} x{:<3} {:>10.1} GB/s each   {:>8.2} TB/s aggregate",
            i.name,
            i.count,
            i.per_interface.as_gb_s(),
            i.aggregate().as_tb_s()
        ));
        if i.name.contains("USR") {
            usr_aggregate_tb_s = i.aggregate().as_tb_s();
        }
        if i.name.contains("HBM") {
            hbm_aggregate_tb_s = i.aggregate().as_tb_s();
        }
        rows.push(Json::object([
            ("interface", Json::from(i.name)),
            ("count", Json::from(i.count)),
            ("per_interface_gb_s", Json::Num(i.per_interface.as_gb_s())),
            ("aggregate_tb_s", Json::Num(i.aggregate().as_tb_s())),
        ]));
    }

    rep.section("Timed transfers through the assembled fabric");
    let mb = Bytes::from_mib(64);
    let cases = [
        (
            "XCD -> local HBM stack",
            NodeKey::Chiplet(0),
            NodeKey::HbmStack(0),
        ),
        (
            "XCD -> adjacent-IOD HBM",
            NodeKey::Chiplet(0),
            NodeKey::HbmStack(3),
        ),
        (
            "XCD -> diagonal-IOD HBM",
            NodeKey::Chiplet(0),
            NodeKey::HbmStack(7),
        ),
        (
            "CCD -> local HBM stack",
            NodeKey::Chiplet(6),
            NodeKey::HbmStack(6),
        ),
    ];
    let mut local_bw_gb_s = 0.0;
    for (name, from, to) in cases {
        let t = fabric.send(SimTime::ZERO, from, to, mb).expect("reachable");
        let bw = mb.as_f64() / t.latency().as_secs() / 1e9;
        if name.contains("local HBM stack") && name.starts_with("XCD") {
            local_bw_gb_s = bw;
        }
        rep.row(format!(
            "  {name:<28} {} hops, {:>8.3} effective GB/s, {:>10.3} pJ/B",
            t.hops,
            bw,
            t.energy.as_joules() * 1e12 / mb.as_f64()
        ));
    }

    rep.kv(
        "USR aggregate (paper: 'multiple TB/s')",
        format!("{usr_aggregate_tb_s:.1} TB/s"),
    );

    let mut res = ExperimentResult::new(rep);
    res.metric("usr_aggregate_tb_s", usr_aggregate_tb_s);
    res.metric("hbm_aggregate_tb_s", hbm_aggregate_tb_s);
    res.metric("xcd_local_hbm_gb_s", local_bw_gb_s);
    res.set_payload(Json::Arr(rows));
    res
}

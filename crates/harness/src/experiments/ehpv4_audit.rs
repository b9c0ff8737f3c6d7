//! The **Figure 4** analysis: the remaining challenges in EHPv4 (long
//! GPU↔HBM paths, DDR-provisioned IF bottlenecks, long CPU paths, wasted
//! server-IOD links, empty package area), quantified against the MI300A
//! organisation.

use ehp_core::audit::Ehpv4Audit;
use ehp_fabric::flows::{Flow, FlowSolver};
use ehp_fabric::link::LinkTech;
use ehp_fabric::topology::{NodeKey, Topology};
use ehp_sim_core::json::Json;

use crate::experiment::ExperimentResult;
use crate::report::Report;
use crate::scenario::Scenario;

pub(crate) fn run(sc: &Scenario) -> ExperimentResult {
    let mut rep = Report::new(&sc.name);
    let a = Ehpv4Audit::run();

    let mut rows = Vec::new();
    for m in [&a.ehpv4, &a.mi300a] {
        rep.section(m.name);
        rep.kv("GPU -> far HBM hops (challenge 1)", m.gpu_far_hbm_hops);
        rep.kv(
            "GPU -> far HBM bottleneck BW (challenge 2)",
            m.gpu_far_hbm_bw,
        );
        rep.kv("GPU -> far HBM energy / MiB", m.gpu_far_hbm_energy);
        rep.kv("CPU -> HBM hops (challenge 3)", m.cpu_hbm_hops);
        rep.kv("CPU -> HBM bottleneck BW", m.cpu_hbm_bw);
        rep.kv(
            "package silicon utilisation (challenge 5)",
            format!("{:.0}%", m.package_utilization * 100.0),
        );
        rows.push(Json::object([
            ("organisation", Json::from(m.name)),
            ("gpu_far_hbm_hops", Json::from(m.gpu_far_hbm_hops)),
            ("cpu_hbm_hops", Json::from(m.cpu_hbm_hops)),
            ("package_utilization", Json::Num(m.package_utilization)),
        ]));
    }

    rep.section("Head-to-head");
    rep.kv(
        "MI300A cross-package bandwidth advantage",
        format!("{:.1}x", a.cross_package_bw_advantage()),
    );
    rep.kv(
        "MI300A cross-package energy advantage",
        format!("{:.1}x", a.cross_package_energy_advantage()),
    );
    rep.kv(
        "EHPv4 wasted server-IOD IF links (challenge 4)",
        format!("{} of 12", a.ehpv4_wasted_if_links),
    );

    rep.section("Link-technology root cause (Section V.A)");
    let usr = LinkTech::Usr.spec();
    let serdes = LinkTech::Serdes2D.spec();
    rep.kv(
        "USR area bandwidth density",
        format!("{:.1} Tbps/mm^2", usr.area_density_tbps_mm2),
    );
    rep.kv(
        "2D SerDes area bandwidth density",
        format!("{:.1} Tbps/mm^2", serdes.area_density_tbps_mm2),
    );
    let density_advantage = usr.area_density_tbps_mm2 / serdes.area_density_tbps_mm2;
    rep.kv(
        "density advantage (paper: >10x)",
        format!("{density_advantage:.1}x"),
    );
    rep.kv(
        "USR transport energy",
        format!(
            "{:.1} pJ/B (0.4 mW/Gbps)",
            usr.energy_per_byte.as_picojoules()
        ),
    );
    rep.kv(
        "SerDes transport energy",
        format!("{:.1} pJ/B", serdes.energy_per_byte.as_picojoules()),
    );

    rep.section("Steady-state all-to-all streaming (max-min fair flows)");
    let mi300 = Topology::mi300_package(0);
    let mut flows = Vec::new();
    for c in 0..8u32 {
        for s in 0..8u32 {
            flows.push(Flow::greedy(NodeKey::Chiplet(c), NodeKey::HbmStack(s)));
        }
    }
    let agg_mi300 = FlowSolver::new(&mi300).aggregate(&flows);

    let ehpv4_topo = Topology::ehpv4_package();
    let mut ehpv4_flows = Vec::new();
    for c in [2u32, 3, 4, 5] {
        for s in 0..8u32 {
            ehpv4_flows.push(Flow::greedy(NodeKey::Chiplet(c), NodeKey::HbmStack(s)));
        }
    }
    let agg_ehpv4 = FlowSolver::new(&ehpv4_topo).aggregate(&ehpv4_flows);
    let streaming_advantage = agg_mi300.as_bytes_per_sec() / agg_ehpv4.as_bytes_per_sec();
    rep.kv("MI300A aggregate GPU streaming", agg_mi300);
    rep.kv("EHPv4 aggregate GPU streaming", agg_ehpv4);
    rep.kv(
        "MI300A advantage",
        format!("{streaming_advantage:.1}x (USR mesh saturates the HBM; SerDes hub cannot)"),
    );

    let mut res = ExperimentResult::new(rep);
    res.metric("usr_density_advantage", density_advantage);
    res.metric("cross_package_bw_advantage", a.cross_package_bw_advantage());
    res.metric(
        "cross_package_energy_advantage",
        a.cross_package_energy_advantage(),
    );
    res.metric("streaming_advantage", streaming_advantage);
    res.metric("ehpv4_wasted_if_links", f64::from(a.ehpv4_wasted_if_links));
    res.set_payload(Json::Arr(rows));
    res
}

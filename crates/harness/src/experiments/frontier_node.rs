//! The **Figure 2** analysis: the Frontier node architecture — one
//! optimized EPYC CPU and four MI250X accelerators on coherent Infinity
//! Fabric — the paper's reading of it as "four instances of the EHP
//! conjoined by a common IOD", plus strong scaling across it.

use ehp_core::node::NodeTopology;
use ehp_core::node_fabric::NodeFabric;
use ehp_core::products::{Product, HBM_STACKS};
use ehp_sim_core::json::Json;
use ehp_sim_core::time::SimTime;
use ehp_sim_core::units::Bytes;
use ehp_workloads::scaling::ScalingStudy;

use crate::experiment::ExperimentResult;
use crate::report::Report;
use crate::scenario::Scenario;

pub(crate) fn run(sc: &Scenario) -> ExperimentResult {
    let mut rep = Report::new(&sc.name);

    let node = NodeTopology::frontier();
    let audit = node.audit().expect("valid topology");

    rep.section("Figure 2: node composition");
    rep.kv("sockets", "1x EPYC CPU + 4x MI250X");
    rep.kv("GPUs fully connected", audit.accelerators_fully_connected);
    rep.kv("coherent GPU HBM", audit.coherent_hbm_capacity);
    rep.kv(
        "free GPU links (for NICs)",
        format!("{:?}", &audit.free_links_per_socket[1..]),
    );

    rep.section("\"Four instances of the EHP conjoined\"");
    let ehp = Product::Ehpv4.spec();
    let gpu = Product::Mi250x.spec();
    rep.kv(
        "one EHPv4 quarter: GPU chiplets",
        format!(
            "{} (MI250X: {} GCDs x 2 dies)",
            ehp.gpu_chiplets, gpu.gpu_chiplets
        ),
    );
    rep.kv(
        "one EHPv4 quarter: HBM stacks",
        format!("{HBM_STACKS} = {HBM_STACKS}"),
    );
    rep.kv(
        "one EHPv4 quarter: CCDs",
        format!("{} (a Trento quarter)", ehp.ccds),
    );
    rep.kv(
        "architecturally unified, physically discrete",
        "flat address space + coherence over IF, separate packages",
    );

    rep.section("CPU<->GPU path vs the MI300A APU");
    let mut fab = NodeFabric::new(&node);
    let t = fab
        .remote_access(1, Bytes(128), SimTime::from_nanos(120))
        .expect("connected");
    rep.kv("Frontier: CPU line access to GPU HBM", t);
    rep.kv(
        "MI300A: CPU line access to the same HBM",
        "~local (shared package; no inter-socket hop)",
    );
    let stream = fab
        .remote_access(1, Bytes::from_gib(1), SimTime::from_nanos(120))
        .expect("connected");
    let stream_gb_s = Bytes::from_gib(1).as_f64() / stream.as_secs() / 1e9;
    rep.kv(
        "Frontier: CPU->GPU streaming",
        format!("{stream_gb_s:.0} GB/s (one IF link)"),
    );
    rep.kv(
        "MI300A: CPU->HBM streaming",
        "CCD-fabric limited (~320 GB/s in this model)",
    );

    rep.section("Strong scaling across the four GPUs (HPCG-class)");
    let mut study = ScalingStudy::hpcg_on_mi300a();
    study.machine = ehp_workloads::hpc::MachineModel::mi250x();
    // Only the accelerators run the solve: 1..=4 GPUs on the quad
    // node's all-to-all shape.
    let mut rows = Vec::new();
    let mut speedup_4 = 0.0;
    for (n, s) in study.curve() {
        rep.row(format!("  {n} GPU(s): speedup {s:.2}x"));
        if n == 4 {
            speedup_4 = s;
        }
        rows.push(Json::object([
            ("gpus", Json::from(n)),
            ("speedup", Json::Num(s)),
        ]));
    }

    let mut res = ExperimentResult::new(rep);
    res.metric(
        "gpus_fully_connected",
        f64::from(audit.accelerators_fully_connected),
    );
    res.metric("coherent_hbm_gib", audit.coherent_hbm_capacity.as_gib_f64());
    res.metric("cpu_gpu_stream_gb_s", stream_gb_s);
    res.metric("hpcg_speedup_4gpu", speedup_4);
    res.set_payload(Json::Arr(rows));
    res
}

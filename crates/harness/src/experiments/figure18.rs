//! **Figure 18**: exemplary node architectures — (a) four MI300A APUs
//! fully connected over coherent IF, (b) eight MI300X accelerators fully
//! connected with EPYC hosts over PCIe — with link budgets, bisection
//! bandwidth and coherent-memory accounting.

use ehp_coherence::multisocket::{AgentClass, MultiSocketCoherence};
use ehp_core::node::NodeTopology;
use ehp_core::node_fabric::NodeFabric;
use ehp_sim_core::ids::AgentId;
use ehp_sim_core::json::Json;
use ehp_sim_core::time::SimTime;
use ehp_sim_core::units::Bytes;

use crate::experiment::ExperimentResult;
use crate::report::Report;
use crate::scenario::Scenario;

pub(crate) fn run(sc: &Scenario) -> ExperimentResult {
    let mut rep = Report::new(&sc.name);
    let mut rows = Vec::new();
    let mut quad_bisection_gb_s = 0.0;
    let mut all_fully_connected = true;

    for (name, node) in [
        ("(a) 4x MI300A APU node", NodeTopology::quad_mi300a()),
        ("(b) 8x MI300X + EPYC hosts", NodeTopology::eight_mi300x()),
    ] {
        let audit = node.audit().expect("valid topology");
        rep.section(name);
        rep.kv("sockets", node.sockets().len());
        rep.kv("link bundles", node.links().len());
        rep.kv(
            "accelerators fully connected",
            audit.accelerators_fully_connected,
        );
        rep.kv(
            "bisection bandwidth",
            format!("{:.0} GB/s", audit.bisection_bandwidth.as_gb_s()),
        );
        rep.kv(
            "coherent HBM in flat address space",
            audit.coherent_hbm_capacity,
        );
        rep.kv(
            "free x16 links per socket",
            format!("{:?}", audit.free_links_per_socket),
        );

        if name.starts_with("(a)") {
            quad_bisection_gb_s = audit.bisection_bandwidth.as_gb_s();
        }
        all_fully_connected &= audit.accelerators_fully_connected;
        rows.push(Json::object([
            ("topology", Json::from(name)),
            ("sockets", Json::from(node.sockets().len())),
            ("links", Json::from(node.links().len())),
            (
                "fully_connected",
                Json::from(audit.accelerators_fully_connected),
            ),
            (
                "bisection_gb_s",
                Json::Num(audit.bisection_bandwidth.as_gb_s()),
            ),
            (
                "coherent_hbm_gib",
                Json::Num(audit.coherent_hbm_capacity.as_gib_f64()),
            ),
            (
                "free_links",
                Json::Arr(
                    audit
                        .free_links_per_socket
                        .iter()
                        .map(|&n| Json::from(n))
                        .collect(),
                ),
            ),
        ]));
    }

    rep.section("Per-socket I/O budget");
    rep.row("  8 x16 links x 128 GB/s bidirectional = 1,024 GB/s per socket");
    rep.row("  (four of the eight links may run PCIe instead of Infinity Fabric)");

    rep.section("Flat address space in action (4x MI300A)");
    let mut fab = NodeFabric::new(&NodeTopology::quad_mi300a());
    let service = SimTime::from_nanos(120);
    let local = fab.remote_access(0, Bytes(128), service).expect("local");
    let remote = fab
        .remote_access(1, Bytes(128), service)
        .expect("connected");
    rep.kv("local HBM line access", local);
    rep.kv("remote-socket HBM line access", remote);
    let big = fab
        .remote_access(2, Bytes::from_gib(1), service)
        .expect("connected");
    let remote_stream_gb_s = Bytes::from_gib(1).as_f64() / big.as_secs() / 1e9;
    rep.kv(
        "remote streaming bandwidth",
        format!("{remote_stream_gb_s:.0} GB/s (pair-bundle limited)"),
    );

    rep.section("Node coherence policy (Section IV.D at node scale)");
    let mut coh = MultiSocketCoherence::quad_mi300a();
    coh.register(AgentId(0), AgentClass::Cpu);
    coh.register(AgentId(1), AgentClass::Gpu);
    let span = 128u64 << 30;
    let cpu_remote = coh.read(AgentId(0), span + 0x100);
    let gpu_remote = coh.read(AgentId(1), span + 0x100);
    rep.kv(
        "CPU remote access",
        format!("hardware coherent: {}", cpu_remote.hardware_coherent),
    );
    rep.kv(
        "GPU remote access",
        format!(
            "hardware coherent: {} (software coherent)",
            gpu_remote.hardware_coherent
        ),
    );

    let mut res = ExperimentResult::new(rep);
    res.metric("quad_mi300a_bisection_gb_s", quad_bisection_gb_s);
    res.metric("all_fully_connected", f64::from(all_fully_connected));
    res.metric("remote_stream_gb_s", remote_stream_gb_s);
    res.metric(
        "cpu_remote_hw_coherent",
        f64::from(cpu_remote.hardware_coherent),
    );
    res.set_payload(Json::Arr(rows));
    res
}

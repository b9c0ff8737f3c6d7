//! The Section VII modular-platform analysis as a design space: all five
//! IOD compute-stack assignments (MI300X … a CPU-only variant) evaluated
//! on HPC and AI figures of merit — plus the exascale RAS arithmetic the
//! DOE program that started all of this cared about.

use ehp_core::modular::{evaluate_design_space, ModularVariant};
use ehp_core::ras;
use ehp_sim_core::json::Json;

use crate::experiment::ExperimentResult;
use crate::report::Report;
use crate::scenario::Scenario;

pub(crate) fn run(sc: &Scenario) -> ExperimentResult {
    let mut rep = Report::new(&sc.name);

    rep.section("The five buildable IOD stack assignments");
    rep.row(format!(
        "  {:<26} {:>6} {:>7} {:>12} {:>12} {:>12} {:>8}",
        "variant", "CUs", "cores", "FP64 TF/s", "HPC time s", "decode t/s", "TDP W"
    ));
    let mut rows = Vec::new();
    for e in evaluate_design_space() {
        rep.row(format!(
            "  {:<26} {:>6} {:>7} {:>12} {:>12.2} {:>12.1} {:>8.0}",
            e.name,
            e.variant.cus(),
            e.cpu_cores,
            e.fp64_tflops
                .map_or("n/a".to_string(), |v| format!("{v:.1}")),
            e.hpc_time_s,
            e.decode_tps,
            e.tdp.as_watts()
        ));
        rows.push(Json::object([
            ("variant", Json::from(e.name.as_str())),
            ("cus", Json::from(e.variant.cus())),
            ("cpu_cores", Json::from(e.cpu_cores)),
            ("fp64_tflops", e.fp64_tflops.map_or(Json::Null, Json::Num)),
            ("hpc_time_s", Json::Num(e.hpc_time_s)),
            ("decode_tps", Json::Num(e.decode_tps)),
            ("tdp_w", Json::Num(e.tdp.as_watts())),
        ]));
    }

    rep.section("Reading the space");
    let space = evaluate_design_space();
    let variant_count = space.len();
    let best_hpc = space
        .into_iter()
        .min_by(|a, b| a.hpc_time_s.total_cmp(&b.hpc_time_s))
        .expect("non-empty space");
    rep.kv("best mixed-HPC variant", &best_hpc.name);
    let x = ModularVariant::new(0);
    rep.kv(
        "best AI-throughput variant",
        format!("{} ({} CUs)", x.name(), x.cus()),
    );
    rep.row("  Same IODs, same memory system, same package — only the stacked");
    rep.row("  compute differs: the paper's \"new level of chiplet modularity\".");

    rep.section("Reliability at exascale (the DOE concern, Section I)");
    let mut frontier_eff = 0.0;
    for (label, nodes) in [
        ("1,000-node system", 1_000u32),
        ("9,408-node (Frontier-scale)", 9_408),
    ] {
        let s = ras::summarize(nodes);
        rep.row(format!("  {label}:"));
        rep.kv("  node MTBF", format!("{:.0} h", s.node_mtbf_h));
        rep.kv("  system MTBF", format!("{:.1} h", s.system_mtbf_h));
        rep.kv("  failures/day", format!("{:.1}", s.failures_per_day));
        rep.kv(
            "  optimal checkpoint interval (Young)",
            s.checkpoint_interval,
        );
        rep.kv(
            "  machine efficiency with checkpointing",
            format!("{:.1}%", s.efficiency * 100.0),
        );
        if nodes == 9_408 {
            frontier_eff = s.efficiency;
        }
    }

    let mut res = ExperimentResult::new(rep);
    res.metric("design_space_variants", variant_count as f64);
    res.metric("best_hpc_time_s", best_hpc.hpc_time_s);
    res.metric("frontier_scale_efficiency", frontier_eff);
    res.set_payload(Json::Arr(rows));
    res
}

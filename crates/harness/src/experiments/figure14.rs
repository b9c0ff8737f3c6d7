//! **Figure 14**: code/data-movement comparison of (a) CPU-only, (b)
//! CPU + discrete GPU with separate memories, and (c) the APU with
//! unified memory — phase timelines and a problem-size sweep.

use ehp_core::progmodel::{ExecutionModel, WorkloadShape};
use ehp_core::shim::{LibraryCall, Shim, Target};
use ehp_sim_core::json::Json;

use crate::experiment::ExperimentResult;
use crate::report::Report;
use crate::scenario::Scenario;

pub(crate) fn run(sc: &Scenario) -> ExperimentResult {
    let mut rep = Report::new(&sc.name);
    let models: [(&str, ExecutionModel); 3] = [
        ("(a) CPU-only", ExecutionModel::cpu_only()),
        ("(b) CPU + discrete GPU", ExecutionModel::discrete_mi250x()),
        ("(c) APU, unified memory", ExecutionModel::apu_mi300a()),
    ];

    let shape = WorkloadShape::vector_scale(256 << 20);
    rep.section("Phase timelines (256 Mi elements)");
    for (name, model) in &models {
        let tl = model.run(&shape);
        rep.row(format!("  {name}: total {}", tl.total()));
        for p in tl.phases() {
            rep.row(format!(
                "      {:<8} [{:>10.3} .. {:>10.3}] ms  ({})",
                p.name,
                p.start.as_millis_f64(),
                p.end.as_millis_f64(),
                p.duration()
            ));
        }
    }

    rep.section("Problem-size sweep");
    rep.row(format!(
        "  {:>12} {:>14} {:>14} {:>14} {:>16}",
        "elements", "cpu-only (ms)", "discrete (ms)", "apu (ms)", "apu vs discrete"
    ));
    let mut rows = Vec::new();
    let mut apu_vs_discrete_largest = 0.0;
    for shift in [16u32, 20, 24, 28] {
        let n = 1u64 << shift;
        let s = WorkloadShape::vector_scale(n);
        let cpu = models[0].1.run(&s).total().as_millis_f64();
        let disc = models[1].1.run(&s).total().as_millis_f64();
        let apu = models[2].1.run(&s).total().as_millis_f64();
        apu_vs_discrete_largest = disc / apu;
        rep.row(format!(
            "  {:>12} {:>14.3} {:>14.3} {:>14.3} {:>15.2}x",
            n,
            cpu,
            disc,
            apu,
            disc / apu
        ));
        rows.push(Json::object([
            ("elements", Json::from(n)),
            ("cpu_only_ms", Json::Num(cpu)),
            ("discrete_ms", Json::Num(disc)),
            ("apu_ms", Json::Num(apu)),
            ("apu_vs_discrete", Json::Num(disc / apu)),
        ]));
    }

    rep.section("Key observations (paper Section VI.B)");
    let tl = models[1].1.run(&shape);
    let copies = tl.total_for("h2d") + tl.total_for("d2h");
    rep.kv("discrete-GPU copy time (hipMemcpy x2)", copies);
    rep.kv("APU copy time", "0 (no hipMalloc, no hipMemcpy)");

    rep.section("Library-shim dispatch heuristic (Section VI.B)");
    let apu_shim = Shim::mi300a();
    let disc_shim = Shim::discrete_mi250x();
    rep.row(format!(
        "  {:>10} {:>14} {:>14}",
        "DGEMM n", "APU target", "discrete target"
    ));
    for n in [64u64, 256, 1024, 4096] {
        let call = LibraryCall::dgemm(n);
        let t = |s: &Shim| match s.dispatch(&call) {
            Target::Cpu => "CPU",
            Target::Gpu => "GPU",
        };
        rep.row(format!(
            "  {:>10} {:>14} {:>14}",
            n,
            t(&apu_shim),
            t(&disc_shim)
        ));
    }
    rep.kv(
        "offload crossover (DGEMM n)",
        format!(
            "APU {} vs discrete {} — unified memory makes small offloads pay",
            apu_shim.dgemm_crossover(),
            disc_shim.dgemm_crossover()
        ),
    );

    let mut res = ExperimentResult::new(rep);
    res.metric("apu_vs_discrete_speedup", apu_vs_discrete_largest);
    res.metric("discrete_copy_ms", copies.as_millis_f64());
    res.metric("apu_dgemm_crossover", apu_shim.dgemm_crossover() as f64);
    res.metric(
        "discrete_dgemm_crossover",
        disc_shim.dgemm_crossover() as f64,
    );
    res.set_payload(Json::Arr(rows));
    res
}

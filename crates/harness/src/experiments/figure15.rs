//! **Figure 15**: fine-grained decoupling of GPU and CPU execution via
//! per-chunk completion flags in coherent unified memory — overlapped
//! timeline vs the original kernel-level-sync timeline.

use ehp_core::progmodel::{ExecutionModel, WorkloadShape};
use ehp_sim_core::json::Json;

use crate::experiment::ExperimentResult;
use crate::report::Report;
use crate::scenario::Scenario;

pub(crate) fn run(sc: &Scenario) -> ExperimentResult {
    let mut rep = Report::new(&sc.name);
    let apu = ExecutionModel::apu_mi300a();
    let shape = WorkloadShape::vector_scale(256 << 20);

    let coarse = apu.run(&shape);
    rep.section("(c) original code: coarse kernel-level synchronisation");
    for p in coarse.phases() {
        rep.row(format!(
            "  {:<8} [{:>9.3} .. {:>9.3}] ms",
            p.name,
            p.start.as_millis_f64(),
            p.end.as_millis_f64()
        ));
    }
    rep.kv("total", coarse.total());

    let fine = apu.run_overlapped(&shape, 8);
    rep.section("(b) fine-grained flags: CPU consumes chunks as produced");
    for p in fine.phases() {
        rep.row(format!(
            "  {:<8} [{:>9.3} .. {:>9.3}] ms",
            p.name,
            p.start.as_millis_f64(),
            p.end.as_millis_f64()
        ));
    }
    rep.kv("total", fine.total());
    rep.kv("overlap saving", coarse.total() - fine.total());

    rep.section("Chunk-count sweep");
    let mut rows = Vec::new();
    for chunks in [1u32, 2, 4, 8, 16, 32, 64] {
        let t = apu.run_overlapped(&shape, chunks).total();
        let saving = coarse.total().saturating_sub(t);
        rep.row(format!(
            "  {chunks:>4} chunks: total {:>9.3} ms, saving {:>8.3} ms",
            t.as_millis_f64(),
            saving.as_millis_f64()
        ));
        rows.push(Json::object([
            ("chunks", Json::from(chunks)),
            ("total_ms", Json::Num(t.as_millis_f64())),
            ("saving_vs_coarse_ms", Json::Num(saving.as_millis_f64())),
        ]));
    }

    let mut res = ExperimentResult::new(rep);
    res.metric("coarse_total_ms", coarse.total().as_millis_f64());
    res.metric("fine_total_ms", fine.total().as_millis_f64());
    res.metric(
        "overlap_saving_ms",
        coarse.total().saturating_sub(fine.total()).as_millis_f64(),
    );
    res.set_payload(Json::Arr(rows));
    res
}

//! **Figure 16**: modular replacement of MI300A's CCDs with XCDs to
//! create MI300X — the same four IODs host either compute stack, and the
//! geometric interface checks pass for both.

use ehp_compute::dtype::{DataType, ExecUnit};
use ehp_core::products::Product;
use ehp_package::mirror::{IodInstance, IodVariant};
use ehp_sim_core::json::Json;

use crate::experiment::ExperimentResult;
use crate::report::Report;
use crate::scenario::Scenario;

pub(crate) fn run(sc: &Scenario) -> ExperimentResult {
    let mut rep = Report::new(&sc.name);

    rep.section("Shared silicon building blocks");
    let mut rows = Vec::new();
    for product in [Product::Mi300a, Product::Mi300x] {
        let s = product.spec();
        rep.row(format!(
            "  {:<8} IODs: 4 (identical)   compute stacks: {} XCDs + {} CCDs   CUs: {}   CPU cores: {}",
            s.name,
            s.gpu_chiplets,
            s.ccds,
            s.total_cus(),
            s.cpu_cores
        ));
        rows.push(Json::object([
            ("product", Json::from(s.name)),
            ("xcds", Json::from(s.gpu_chiplets)),
            ("ccds", Json::from(s.ccds)),
            ("cus", Json::from(s.total_cus())),
            ("cpu_cores", Json::from(s.cpu_cores)),
        ]));
    }

    rep.section("Chiplet-swap consequences");
    let a = Product::Mi300a.spec();
    let x = Product::Mi300x.spec();
    let fp16 = |s: &ehp_core::products::ProductSpec| {
        s.peak_tflops(ExecUnit::Matrix, DataType::Fp16)
            .expect("fp16")
    };
    rep.kv(
        "MI300A FP16 matrix peak",
        format!("{:.1} TFLOP/s", fp16(&a)),
    );
    rep.kv(
        "MI300X FP16 matrix peak",
        format!("{:.1} TFLOP/s", fp16(&x)),
    );
    rep.kv(
        "FLOPS gain from the swap",
        format!(
            "{:.2}x (\"more FLOPS/mm^3 than MI300A\")",
            fp16(&x) / fp16(&a)
        ),
    );
    rep.kv(
        "MI300X memory capacity",
        format!("{} (12-high stacks)", x.memory_capacity()),
    );

    rep.section("Interface compatibility across every IOD variant");
    let mut all_variants_accept = true;
    for v in IodVariant::ALL {
        let inst = IodInstance::production(v);
        let ok = inst.accepts_chiplet();
        all_variants_accept &= ok;
        rep.row(format!("  {v:?}: accepts unmirrored compute chiplet: {ok}"));
        assert!(ok, "swap must work on all variants");
    }

    let mut res = ExperimentResult::new(rep);
    res.metric("mi300x_fp16_tflops", fp16(&x));
    res.metric("mi300a_fp16_tflops", fp16(&a));
    res.metric("swap_flops_gain", fp16(&x) / fp16(&a));
    res.metric("all_iod_variants_accept", f64::from(all_variants_accept));
    res.metric("mi300x_memory_gib", x.memory_capacity().as_gib_f64());
    res.set_payload(Json::Arr(rows));
    res
}

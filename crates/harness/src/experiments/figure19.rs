//! **Figure 19**: generational uplift of MI300A and MI300X over MI250X
//! across peak rates, memory bandwidth, capacity and I/O.

use ehp_compute::dtype::{DataType, ExecUnit};
use ehp_core::products::Product;
use ehp_sim_core::json::Json;

use crate::experiment::ExperimentResult;
use crate::report::Report;
use crate::scenario::Scenario;

pub(crate) fn run(sc: &Scenario) -> ExperimentResult {
    let mut rep = Report::new(&sc.name);
    let m = Product::Mi250x.spec();
    let a = Product::Mi300a.spec();
    let x = Product::Mi300x.spec();

    rep.section("Absolute peaks");
    rep.row(format!(
        "  {:<26} {:>10} {:>10} {:>10}",
        "metric", "MI250X", "MI300A", "MI300X"
    ));
    let mut rows = Vec::new();
    let mut peak_row = |name: &str, unit, dt| {
        let f = |s: &ehp_core::products::ProductSpec| s.peak_tflops(unit, dt);
        let fmt = |v: Option<f64>| v.map_or("n/a".into(), |v| format!("{v:.1}"));
        rep.row(format!(
            "  {:<26} {:>10} {:>10} {:>10}",
            name,
            fmt(f(&m)),
            fmt(f(&a)),
            fmt(f(&x))
        ));
        let opt = |v: Option<f64>| v.map_or(Json::Null, Json::Num);
        rows.push(Json::object([
            ("metric", Json::from(name)),
            ("mi250x", opt(f(&m))),
            ("mi300a", opt(f(&a))),
            ("mi300x", opt(f(&x))),
        ]));
    };
    peak_row("FP64 vector (TFLOP/s)", ExecUnit::Vector, DataType::Fp64);
    peak_row("FP32 vector (TFLOP/s)", ExecUnit::Vector, DataType::Fp32);
    peak_row("FP64 matrix (TFLOP/s)", ExecUnit::Matrix, DataType::Fp64);
    peak_row("FP16 matrix (TFLOP/s)", ExecUnit::Matrix, DataType::Fp16);
    peak_row("FP8 matrix (TFLOP/s)", ExecUnit::Matrix, DataType::Fp8);
    peak_row("INT8 matrix (TOP/s)", ExecUnit::Matrix, DataType::Int8);

    rep.row(format!(
        "  {:<26} {:>10.2} {:>10.2} {:>10.2}",
        "memory BW (TB/s)",
        m.memory_bandwidth().as_tb_s(),
        a.memory_bandwidth().as_tb_s(),
        x.memory_bandwidth().as_tb_s()
    ));
    rep.row(format!(
        "  {:<26} {:>10.0} {:>10.0} {:>10.0}",
        "memory capacity (GiB)",
        m.memory_capacity().as_gib_f64(),
        a.memory_capacity().as_gib_f64(),
        x.memory_capacity().as_gib_f64()
    ));
    rep.row(format!(
        "  {:<26} {:>10.0} {:>10.0} {:>10.0}",
        "I/O BW (GB/s)",
        m.io_bandwidth().as_gb_s(),
        a.io_bandwidth().as_gb_s(),
        x.io_bandwidth().as_gb_s()
    ));

    rep.section("Uplift over MI250X");
    for (name, spec) in [("MI300A", &a), ("MI300X", &x)] {
        let u = spec.uplift_over_mi250x();
        rep.row(format!("  {name}:"));
        let fmt = |v: Option<f64>| v.map_or("new".into(), |v| format!("{v:.2}x"));
        rep.kv("  FP64 vector", fmt(u.fp64_vector));
        rep.kv("  FP32 vector", fmt(u.fp32_vector));
        rep.kv("  FP64 matrix", fmt(u.fp64_matrix));
        rep.kv("  FP16 matrix", fmt(u.fp16_matrix));
        rep.kv("  INT8 matrix", fmt(u.int8_matrix));
        rep.kv("  memory bandwidth", format!("{:.2}x", u.memory_bandwidth));
        rep.kv("  memory capacity", format!("{:.2}x", u.memory_capacity));
        rep.kv("  I/O bandwidth", format!("{:.2}x", u.io_bandwidth));
    }

    rep.section("Performance per watt (TDP-normalised)");
    rep.row(format!(
        "  {:<26} {:>10} {:>10} {:>10}",
        "metric", "MI250X", "MI300A", "MI300X"
    ));
    let per_w = |s: &ehp_core::products::ProductSpec, unit, dt| {
        s.peak_tflops(unit, dt).map(|v| v * 1e3 / s.tdp.as_watts()) // GFLOP/s per W
    };
    for (name, unit, dt) in [
        ("FP64 matrix (GF/s/W)", ExecUnit::Matrix, DataType::Fp64),
        ("FP16 matrix (GF/s/W)", ExecUnit::Matrix, DataType::Fp16),
    ] {
        let fmt = |v: Option<f64>| v.map_or("n/a".into(), |v| format!("{v:.0}"));
        rep.row(format!(
            "  {:<26} {:>10} {:>10} {:>10}",
            name,
            fmt(per_w(&m, unit, dt)),
            fmt(per_w(&a, unit, dt)),
            fmt(per_w(&x, unit, dt))
        ));
    }
    let eff_uplift = per_w(&a, ExecUnit::Matrix, DataType::Fp64).expect("fp64")
        / per_w(&m, ExecUnit::Matrix, DataType::Fp64).expect("fp64");
    rep.kv(
        "MI300A FP64 efficiency uplift",
        format!("{eff_uplift:.2}x per W"),
    );

    rep.section("Paper claims check");
    let ua = a.uplift_over_mi250x();
    rep.kv(
        "memory BW 'improved by 70%'",
        format!("{:.0}%", (ua.memory_bandwidth - 1.0) * 100.0),
    );
    rep.kv("I/O 'doubled'", format!("{:.2}x", ua.io_bandwidth));
    rep.kv(
        "MI300X capacity '50% greater'",
        format!(
            "{:.0}%",
            (x.uplift_over_mi250x().memory_capacity - 1.0) * 100.0
        ),
    );

    let mut res = ExperimentResult::new(rep);
    res.metric("mi300a_mem_bw_uplift", ua.memory_bandwidth);
    res.metric("mi300a_io_bw_uplift", ua.io_bandwidth);
    res.metric(
        "mi300x_capacity_uplift",
        x.uplift_over_mi250x().memory_capacity,
    );
    res.metric("mi300a_fp64_per_watt_uplift", eff_uplift);
    res.set_payload(Json::Arr(rows));
    res
}

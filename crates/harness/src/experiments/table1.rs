//! **Table 1**: peak operations-per-clock-per-CU rates for the CDNA 2
//! CUs in MI250X versus the CDNA 3 CUs in MI300A, plus the 4:2-sparsity
//! footnote.

use ehp_compute::cu::GpuArch;
use ehp_compute::dtype::{DataType, ExecUnit};
use ehp_sim_core::json::Json;

use crate::experiment::ExperimentResult;
use crate::report::Report;
use crate::scenario::Scenario;

pub(crate) fn run(sc: &Scenario) -> ExperimentResult {
    let mut rep = Report::new(&sc.name);
    rep.section("Peak ops/clock/CU (dense)");
    rep.row(format!(
        "{:8} {:>10} {:>10} {:>10} {:>10} {:>10} {:>10} {:>10} {:>10} {:>10}",
        "", "VecFP64", "VecFP32", "MatFP64", "MatFP32", "TF32", "FP16", "BF16", "FP8", "INT8"
    ));

    let mut rows = Vec::new();
    for arch in [GpuArch::Cdna2, GpuArch::Cdna3] {
        let fmt = |unit, dt| match arch.ops_per_clock(unit, dt) {
            Some(v) => v.to_string(),
            None => "n/a".to_string(),
        };
        rep.row(format!(
            "{:8} {:>10} {:>10} {:>10} {:>10} {:>10} {:>10} {:>10} {:>10} {:>10}",
            format!("{arch:?}"),
            fmt(ExecUnit::Vector, DataType::Fp64),
            fmt(ExecUnit::Vector, DataType::Fp32),
            fmt(ExecUnit::Matrix, DataType::Fp64),
            fmt(ExecUnit::Matrix, DataType::Fp32),
            fmt(ExecUnit::Matrix, DataType::Tf32),
            fmt(ExecUnit::Matrix, DataType::Fp16),
            fmt(ExecUnit::Matrix, DataType::Bf16),
            fmt(ExecUnit::Matrix, DataType::Fp8),
            fmt(ExecUnit::Matrix, DataType::Int8),
        ));
        for unit in [ExecUnit::Vector, ExecUnit::Matrix] {
            for dt in DataType::ALL {
                rows.push(Json::object([
                    ("arch", Json::from(format!("{arch:?}"))),
                    ("unit", Json::from(unit.to_string())),
                    ("dtype", Json::from(dt.to_string())),
                    (
                        "ops_per_clock",
                        arch.ops_per_clock(unit, dt).map_or(Json::Null, Json::from),
                    ),
                ]));
            }
        }
    }

    rep.section("4:2 structured sparsity (CDNA 3 matrix cores)");
    let mut sparse_fp8 = 0u64;
    for dt in [DataType::Fp8, DataType::Int8] {
        let v = GpuArch::Cdna3
            .ops_per_clock_sparse(dt)
            .expect("cdna3 supports 8-bit sparsity");
        if dt == DataType::Fp8 {
            sparse_fp8 = v;
        }
        rep.kv(&format!("{dt} 4:2 sparse ops/clock/CU"), v);
    }

    let ops = |arch: GpuArch, unit, dt| arch.ops_per_clock(unit, dt).unwrap_or(0) as f64;
    let mut res = ExperimentResult::new(rep);
    res.metric(
        "cdna3_fp16_matrix_ops_per_clock",
        ops(GpuArch::Cdna3, ExecUnit::Matrix, DataType::Fp16),
    );
    res.metric(
        "cdna3_fp64_matrix_ops_per_clock",
        ops(GpuArch::Cdna3, ExecUnit::Matrix, DataType::Fp64),
    );
    res.metric(
        "fp16_matrix_uplift_vs_cdna2",
        ops(GpuArch::Cdna3, ExecUnit::Matrix, DataType::Fp16)
            / ops(GpuArch::Cdna2, ExecUnit::Matrix, DataType::Fp16),
    );
    res.metric("cdna3_fp8_sparse_ops_per_clock", sparse_fp8 as f64);
    res.set_payload(Json::Arr(rows));
    res
}

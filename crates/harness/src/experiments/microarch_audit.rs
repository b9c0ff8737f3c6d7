//! Section IV.B microarchitecture analyses that accompany Table 1: the
//! shared per-CU-pair instruction cache, CU occupancy limits, and the
//! widened L1 data path of CDNA 3.

use ehp_compute::cu::GpuArch;
use ehp_compute::icache::{self, IcacheOrg, KERNEL_FOOTPRINT, SHARED_RELATIVE_AREA};
use ehp_compute::occupancy::{KernelResources, Occupancy};
use ehp_sim_core::json::Json;
use ehp_sim_core::units::Bytes;

use crate::experiment::ExperimentResult;
use crate::report::Report;
use crate::scenario::Scenario;

pub(crate) fn run(sc: &Scenario) -> ExperimentResult {
    let mut rep = Report::new(&sc.name);

    rep.section("Shared instruction cache per CU pair (Section IV.B)");
    rep.kv("kernel instruction footprint", KERNEL_FOOTPRINT);
    let private_hit = IcacheOrg::PrivatePerCu.hit_rate();
    let shared_hit = IcacheOrg::SharedPerPair.hit_rate();
    rep.kv(
        "private 32 KB per CU: hit rate",
        format!("{:.1}%", private_hit * 100.0),
    );
    rep.kv(
        "shared 64 KB per pair: hit rate",
        format!("{:.1}%", shared_hit * 100.0),
    );
    rep.kv(
        "fetch-traffic reduction from sharing",
        format!("{:.1}x", icache::fetch_traffic_reduction()),
    );
    rep.kv(
        "relative area of shared organisation",
        format!("{:.0}%", SHARED_RELATIVE_AREA * 100.0),
    );

    rep.section("L1 data path (CDNA 2 -> CDNA 3)");
    rep.kv(
        "L1 line size",
        format!(
            "{} B -> {} B",
            GpuArch::Cdna2.l1_line_bytes(),
            GpuArch::Cdna3.l1_line_bytes()
        ),
    );
    rep.kv(
        "L1 bandwidth factor",
        format!("{:.0}x", GpuArch::Cdna3.l1_bandwidth_factor()),
    );

    rep.section("CU occupancy limits (38-CU XCD)");
    rep.row(format!(
        "  {:<34} {:>6} {:>6} {:>14}",
        "kernel", "wgs/CU", "waves", "limiter"
    ));
    let cases: [(&str, KernelResources); 4] = [
        ("light (256 thr, 64 VGPR)", KernelResources::light()),
        (
            "register-hungry (256 VGPR)",
            KernelResources {
                waves_per_workgroup: 4,
                vgprs_per_wave: 256,
                lds_per_workgroup: Bytes::ZERO,
            },
        ),
        (
            "LDS-hungry (32 KB/wg)",
            KernelResources {
                waves_per_workgroup: 2,
                vgprs_per_wave: 64,
                lds_per_workgroup: Bytes::from_kib(32),
            },
        ),
        (
            "tiny workgroups (64 thr)",
            KernelResources {
                waves_per_workgroup: 1,
                vgprs_per_wave: 32,
                lds_per_workgroup: Bytes::ZERO,
            },
        ),
    ];
    let mut rows = Vec::new();
    for (name, k) in cases {
        let o = Occupancy::compute(&k);
        rep.row(format!(
            "  {:<34} {:>6} {:>6} {:>14?}",
            name, o.workgroups_per_cu, o.waves_per_cu, o.limiter
        ));
        rows.push(Json::object([
            ("kernel", Json::from(name)),
            ("workgroups_per_cu", Json::from(o.workgroups_per_cu)),
            ("waves_per_cu", Json::from(o.waves_per_cu)),
            ("limiter", Json::from(format!("{:?}", o.limiter))),
        ]));
    }

    let mut res = ExperimentResult::new(rep);
    res.metric("shared_icache_hit_rate", shared_hit);
    res.metric("private_icache_hit_rate", private_hit);
    res.metric("fetch_traffic_reduction", icache::fetch_traffic_reduction());
    res.metric("l1_bandwidth_factor", GpuArch::Cdna3.l1_bandwidth_factor());
    res.set_payload(Json::Arr(rows));
    res
}

//! The Section V.D/V.E power-management story as a running system: the
//! closed power→thermal→DVFS loop, the vertical power shifting between
//! IOD and compute chiplets, and the bond-interface power-delivery check
//! of Figure 11.

use ehp_core::powertherm::{ControllerConfig, PowerThermalController, XCD_SHARE};
use ehp_core::products::Product;
use ehp_package::bond::{BpvTarget, HybridBondInterface, MAX_DROP_FRACTION};
use ehp_power::budget::{PowerDomain, SocketPowerManager, WorkloadProfile};
use ehp_power::dvfs;
use ehp_sim_core::json::Json;
use ehp_sim_core::units::Power;
use ehp_thermal::ThermalConfig;

use crate::experiment::ExperimentResult;
use crate::report::Report;
use crate::scenario::Scenario;

/// Power the vertical-shifting demo moves from the HBM DRAM to the
/// compute chiplets (W).
const SHIFT_W: f64 = 60.0;

pub(crate) fn run(sc: &Scenario) -> ExperimentResult {
    let mut rep = Report::new(&sc.name);
    let tdp = Product::Mi300a.spec().tdp;

    rep.section(&format!(
        "Closed power/thermal/DVFS loop (MI300A, {:.0} W)",
        tdp.as_watts()
    ));
    let mut rows = Vec::new();
    let mut tight_safe = false;
    for (label, tj) in [("roomy (95 C)", 95.0), ("tight (42 C)", 42.0)] {
        let mut c = PowerThermalController::new(ControllerConfig {
            tj_limit_c: tj,
            thermal: ThermalConfig { nx: 35, ny: 28 },
        });
        let op = c.converge(WorkloadProfile::ComputeIntensive);
        rep.row(format!(
            "  Tj limit {label}: peak {:.1} C after {} iterations, compute {}, XCD clock {:.0}% of nominal, safe: {}",
            op.peak_c,
            op.iterations,
            op.compute_power,
            op.xcd_perf_factor * 100.0,
            op.thermally_safe
        ));
        if tj < 50.0 {
            tight_safe = op.thermally_safe;
        }
        rows.push(Json::object([
            ("tj_limit_c", Json::Num(tj)),
            ("peak_c", Json::Num(op.peak_c)),
            ("iterations", Json::from(op.iterations)),
            ("xcd_perf_factor", Json::Num(op.xcd_perf_factor)),
            ("thermally_safe", Json::from(op.thermally_safe)),
        ]));
    }

    rep.section("Vertical power shifting and what it buys (DVFS)");
    let mut pm = SocketPowerManager::new(tdp);
    pm.apply_profile(WorkloadProfile::MemoryIntensive);
    let before = pm.current().get(PowerDomain::ComputeChiplets);
    let per_xcd_before = before.scale(XCD_SHARE / 6.0);
    pm.shift(
        PowerDomain::HbmDram,
        PowerDomain::ComputeChiplets,
        Power::from_watts(SHIFT_W),
    );
    let after = pm.current().get(PowerDomain::ComputeChiplets);
    let per_xcd_after = after.scale(XCD_SHARE / 6.0);
    rep.kv("compute allocation before", before);
    rep.kv(
        &format!("compute allocation after +{SHIFT_W:.0} W shift"),
        after,
    );
    let clock_before = dvfs::perf_factor(per_xcd_before);
    let clock_after = dvfs::perf_factor(per_xcd_after);
    rep.kv("XCD clock factor before", format!("{clock_before:.2}"));
    rep.kv("XCD clock factor after", format!("{clock_after:.2}"));
    pm.check_budget().expect("budget respected");
    rep.kv("TDP respected after shift", true);

    rep.section("Figure 11: bond-pad via landing and power delivery");
    let vcache_style = HybridBondInterface {
        bpv: BpvTarget::TopLevelMetal,
    };
    let mi300 = HybridBondInterface::mi300_compute();
    rep.kv(
        "V-Cache-style BPV->top-metal drop at XCD current",
        format!(
            "{:.1}% (budget {:.0}%) -> {}",
            vcache_style.drop_fraction() * 100.0,
            MAX_DROP_FRACTION * 100.0,
            if vcache_style.drop_fraction() > MAX_DROP_FRACTION {
                "INADEQUATE"
            } else {
                "ok"
            }
        ),
    );
    rep.kv(
        "MI300 BPV->aluminium-RDL drop at XCD current",
        format!(
            "{:.2}% -> {}",
            mi300.drop_fraction() * 100.0,
            if mi300.drop_fraction() <= MAX_DROP_FRACTION {
                "ok"
            } else {
                "INADEQUATE"
            }
        ),
    );
    rep.kv(
        "interface I2R loss at 70 A",
        format!("{:.2} W", mi300.i2r_loss_w()),
    );

    let mut res = ExperimentResult::new(rep);
    res.metric("tight_limit_thermally_safe", f64::from(tight_safe));
    res.metric("clock_gain_from_shift", clock_after - clock_before);
    res.metric("mi300_bond_drop_fraction", mi300.drop_fraction());
    res.metric("vcache_bond_drop_fraction", vcache_style.drop_fraction());
    res.set_payload(Json::Arr(rows));
    res
}

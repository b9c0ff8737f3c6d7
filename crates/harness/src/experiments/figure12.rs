//! **Figure 12**: (a) representative power distributions for
//! compute-intensive vs memory-intensive scenarios, and (b)/(c) thermal
//! simulation heat maps for both scenarios over the MI300A floorplan.

use ehp_core::powertherm::mi300a_power_map;
use ehp_core::products::Product;
use ehp_power::budget::{PowerDomain, SocketPowerManager, WorkloadProfile};
use ehp_sim_core::json::Json;
use ehp_thermal::{ThermalConfig, ThermalSolver};

use crate::experiment::ExperimentResult;
use crate::report::Report;
use crate::scenario::Scenario;

pub(crate) fn run(sc: &Scenario) -> ExperimentResult {
    let mut rep = Report::new(&sc.name);
    let mut pm = SocketPowerManager::new(Product::Mi300a.spec().tdp);
    let mut rows = Vec::new();
    let mut compute_xcd_fraction = 0.0;

    rep.section("(a) normalised power distributions");
    for (label, profile) in [
        ("compute-intensive", WorkloadProfile::ComputeIntensive),
        ("memory-intensive", WorkloadProfile::MemoryIntensive),
    ] {
        let dist = pm.apply_profile(profile);
        rep.row(format!("  scenario: {label} (total {})", dist.total()));
        for (domain, frac) in dist.normalized() {
            rep.row(format!("    {:<18} {:>5.1}%", domain.name(), frac * 100.0));
            if label == "compute-intensive" && domain == PowerDomain::ComputeChiplets {
                compute_xcd_fraction = frac;
            }
            rows.push(Json::object([
                ("scenario", Json::from(label)),
                ("domain", Json::from(domain.name())),
                ("fraction", Json::Num(frac)),
            ]));
        }
    }

    let solver = ThermalSolver::new(ThermalConfig::default());
    let mut max_by_label = [0.0f64; 2];
    let mut energy_balance_rel_err = 0.0;
    let mut gpu_xcd_minus_hbm_phy = 0.0;
    let mut mem_usr_minus_xcd = 0.0;
    for (k, (label, profile, panel)) in [
        ("GPU-intensive", WorkloadProfile::ComputeIntensive, "(b)"),
        ("memory-intensive", WorkloadProfile::MemoryIntensive, "(c)"),
    ]
    .into_iter()
    .enumerate()
    {
        pm.apply_profile(profile);
        let fp = mi300a_power_map(pm.current());
        let field = solver.solve(&fp);
        let (max_t, _) = field.max();
        max_by_label[k] = max_t;

        rep.section(&format!("{panel} thermal map, {label} scenario"));
        rep.kv("max temperature", format!("{max_t:.1} C"));
        let xcd_mean = fp
            .regions_matching("xcd")
            .filter_map(|r| field.mean_over(&r.rect))
            .sum::<f64>()
            / 6.0;
        let usr_mean = fp
            .regions_matching("usr")
            .filter_map(|r| field.mean_over(&r.rect))
            .sum::<f64>()
            / 3.0;
        let hbm_phy_mean = fp
            .regions_matching("hbm_phy")
            .filter_map(|r| field.mean_over(&r.rect))
            .sum::<f64>()
            / 8.0;
        rep.kv("mean XCD temperature", format!("{xcd_mean:.1} C"));
        rep.kv("mean USR PHY temperature", format!("{usr_mean:.1} C"));
        rep.kv("mean HBM PHY temperature", format!("{hbm_phy_mean:.1} C"));
        let imbalance = solver.imbalance(&fp, &field);
        rep.kv(
            "solver convergence",
            format!(
                "{} sweeps, residual {:.1e} C, energy imbalance {imbalance:.1e}",
                field.sweeps(),
                field.residual_c()
            ),
        );
        if k == 0 {
            energy_balance_rel_err = imbalance;
            gpu_xcd_minus_hbm_phy = xcd_mean - hbm_phy_mean;
        } else {
            mem_usr_minus_xcd = usr_mean - xcd_mean;
        }
        rep.row("");
        // One character per ~2 mm cell: the solved field's row pairs.
        for line in field.merge_row_pairs().ascii_map().lines() {
            rep.row(format!("  {line}"));
        }
    }

    let mut res = ExperimentResult::new(rep);
    res.metric("compute_chiplet_power_fraction", compute_xcd_fraction);
    res.metric("compute_scenario_max_c", max_by_label[0]);
    res.metric("memory_scenario_max_c", max_by_label[1]);
    res.metric("energy_balance_rel_err", energy_balance_rel_err);
    res.metric("gpu_xcd_minus_hbm_phy_c", gpu_xcd_minus_hbm_phy);
    res.metric("mem_usr_minus_xcd_c", mem_usr_minus_xcd);
    res.set_payload(Json::Arr(rows));
    res
}

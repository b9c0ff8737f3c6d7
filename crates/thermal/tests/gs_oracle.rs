//! The plain Gauss–Seidel solver that red-black SOR replaced, kept as a
//! test-only oracle. Run to a tolerance far below the production one, it
//! pins `ThermalSolver::solve` cell by cell on the Figure 12 floorplans
//! and on random small floorplans.

use ehp_package::floorplan::{Floorplan, Layer};
use ehp_package::geometry::Rect;
use ehp_power::budget::{PowerDomain, SocketPowerManager, WorkloadProfile};
use ehp_sim_core::rng::SplitMix64;
use ehp_sim_core::units::Power;
use ehp_thermal::field::TemperatureField;
use ehp_thermal::solver::{COOLANT_C, HTC_W_PER_K_MM2, LATERAL_W_PER_K, TOLERANCE_C};
use ehp_thermal::{ThermalConfig, ThermalSolver};

/// The oracle stops when no cell moves by this much in a sweep (°C).
const ORACLE_TOL_C: f64 = 1e-10;
/// Per-cell agreement required between solver and oracle (°C).
const AGREE_C: f64 = 1e-3;
/// Largest relative energy imbalance a converged solve may leave.
const BALANCE_REL: f64 = 1e-5;
/// Base seed of the random-floorplan stream.
const SEED: u64 = 0x6500_0C1E;

/// Gauss–Seidel on nested rows (`t[j][i]`), cold start at coolant,
/// stopped on the largest per-sweep update.
fn gauss_seidel(c: &ThermalConfig, fp: &Floorplan, tol: f64) -> Vec<Vec<f64>> {
    let outline = fp.outline();
    let cell_area = (outline.w / c.nx as f64) * (outline.h / c.ny as f64);
    let p: Vec<Vec<f64>> = fp
        .power_density_grid(c.nx, c.ny)
        .chunks_exact(c.nx)
        .map(|row| row.iter().map(|d| d * cell_area).collect())
        .collect();
    let g = LATERAL_W_PER_K;
    let h_cell = HTC_W_PER_K_MM2 * cell_area;
    let mut t = vec![vec![COOLANT_C; c.nx]; c.ny];
    for _ in 0..1_000_000 {
        let mut max_delta: f64 = 0.0;
        for j in 0..c.ny {
            for i in 0..c.nx {
                let mut nsum = 0.0;
                let mut ncount = 0.0;
                if i > 0 {
                    nsum += t[j][i - 1];
                    ncount += 1.0;
                }
                if i + 1 < c.nx {
                    nsum += t[j][i + 1];
                    ncount += 1.0;
                }
                if j > 0 {
                    nsum += t[j - 1][i];
                    ncount += 1.0;
                }
                if j + 1 < c.ny {
                    nsum += t[j + 1][i];
                    ncount += 1.0;
                }
                let new_t = (g * nsum + p[j][i] + h_cell * COOLANT_C) / (g * ncount + h_cell);
                max_delta = max_delta.max((new_t - t[j][i]).abs());
                t[j][i] = new_t;
            }
        }
        if max_delta < tol {
            return t;
        }
    }
    panic!("oracle did not converge");
}

/// Solves `fp` both ways and checks agreement, convergence evidence and
/// energy balance; returns the solver's sweep count.
fn agree(cfg: ThermalConfig, fp: &Floorplan, what: &str) -> usize {
    let solver = ThermalSolver::new(cfg);
    let field: TemperatureField = solver.solve(fp);
    let oracle = gauss_seidel(&cfg, fp, ORACLE_TOL_C);
    assert_eq!(field.dims(), (cfg.nx, cfg.ny), "{what}");
    for (j, row) in oracle.iter().enumerate() {
        for (i, &want) in row.iter().enumerate() {
            let got = field.at(i, j).as_f64();
            assert!(
                (got - want).abs() <= AGREE_C,
                "{what}: cell ({i},{j}) solver {got} vs oracle {want}"
            );
        }
    }
    assert!(
        field.residual_c() < TOLERANCE_C,
        "{what}: stopped on the sweep cap, residual {}",
        field.residual_c()
    );
    let imbalance = solver.imbalance(fp, &field);
    assert!(
        imbalance <= BALANCE_REL,
        "{what}: energy imbalance {imbalance}"
    );
    solver.check_balance(fp, &field, BALANCE_REL).unwrap();
    field.sweeps()
}

/// The MI300A floorplan powered as `figure12` powers it for `profile`.
fn figure12_plan(profile: WorkloadProfile) -> Floorplan {
    let mut pm = SocketPowerManager::new(Power::from_watts(550.0));
    pm.apply_profile(profile);
    let d = pm.current();
    let mut fp = Floorplan::mi300a();
    fp.assign_power("xcd", d.get(PowerDomain::ComputeChiplets).scale(0.88));
    fp.assign_power("ccd", d.get(PowerDomain::ComputeChiplets).scale(0.12));
    fp.assign_power(
        "iod",
        d.get(PowerDomain::InfinityCache) + d.get(PowerDomain::DataFabric),
    );
    fp.assign_power("usr", d.get(PowerDomain::UsrPhys));
    fp.assign_power("hbm_phy", d.get(PowerDomain::HbmPhys));
    fp.assign_power(
        "hbm_stack",
        d.get(PowerDomain::HbmDram) + d.get(PowerDomain::Io),
    );
    fp
}

#[test]
fn sor_matches_gauss_seidel_on_figure12_floorplans() {
    let cfg = ThermalConfig { nx: 35, ny: 28 };
    for profile in [
        WorkloadProfile::ComputeIntensive,
        WorkloadProfile::MemoryIntensive,
    ] {
        let sweeps = agree(cfg, &figure12_plan(profile), &format!("{profile:?}"));
        assert!(sweeps <= 100, "{profile:?}: {sweeps} sweeps");
    }
}

#[test]
fn sor_matches_gauss_seidel_on_random_floorplans() {
    let mut rng = SplitMix64::new(SEED);
    let mut uniform = |lo: f64, hi: f64| lo + (hi - lo) * rng.next_f64();
    for case in 0..32 {
        let nx = uniform(8.0, 41.0) as usize;
        let ny = uniform(8.0, 33.0) as usize;
        // Cells of 1–2.5 mm a side, as in the product configurations.
        let (w, h) = (nx as f64 * uniform(1.0, 2.5), ny as f64 * uniform(1.0, 2.5));
        let mut fp = Floorplan::new(Rect::new(0.0, 0.0, w, h));
        for r in 0..uniform(1.0, 7.0) as usize {
            let (rw, rh) = (uniform(0.05, 0.6) * w, uniform(0.05, 0.6) * h);
            let rect = Rect::new(uniform(0.0, w - rw), uniform(0.0, h - rh), rw, rh);
            let name = format!("block{r}");
            fp.add(name.clone(), rect, Layer::Compute);
            fp.assign_power(&name, Power::from_watts(uniform(1.0, 150.0)));
        }
        let cfg = ThermalConfig { nx, ny };
        let sweeps = agree(
            cfg,
            &fp,
            &format!("case {case} ({nx}x{ny}, {w:.1}x{h:.1} mm)"),
        );
        assert!(sweeps <= 200, "case {case}: {sweeps} sweeps");
    }
}

//! The ghost-ring red-black SOR solver that the colour-split planes
//! replaced, kept as a test-only oracle. It runs the same per-cell
//! expression over one flat `(nx + 2) × (ny + 2)` grid in row order, so
//! `ThermalSolver::solve` must match it bit for bit: sweep count, final
//! residual and every cell.

use ehp_package::floorplan::{Floorplan, Layer};
use ehp_package::geometry::Rect;
use ehp_power::budget::{PowerDomain, SocketPowerManager, WorkloadProfile};
use ehp_sim_core::rng::SplitMix64;
use ehp_sim_core::units::Power;
use ehp_thermal::solver::{COOLANT_C, HTC_W_PER_K_MM2, LATERAL_W_PER_K, TOLERANCE_C};
use ehp_thermal::{ThermalConfig, ThermalSolver};

/// The solver's sweep cap.
const MAX_ITERS: usize = 20_000;
/// Base seed of the random-floorplan stream.
const SEED: u64 = 0x6500_0C1E;

/// The oracle's solution: row-major cells, sweeps and final residual.
struct Solved {
    cells: Vec<f64>,
    sweeps: usize,
    residual: f64,
}

/// Red-black SOR on a flat grid with a ring of zero ghost cells, each
/// half-sweep in row order.
fn ghost_ring_sor(c: &ThermalConfig, fp: &Floorplan) -> Solved {
    let (nx, ny) = (c.nx, c.ny);
    let outline = fp.outline();
    let cell_area = (outline.w / nx as f64) * (outline.h / ny as f64);
    let g = LATERAL_W_PER_K;
    let h_cell = HTC_W_PER_K_MM2 * cell_area;
    let rho = 4.0 * g / (4.0 * g + h_cell);
    let omega = 2.0 / (1.0 + (1.0 - rho * rho).sqrt());

    let w = nx + 2;
    let mut gain = vec![0.0; w * (ny + 2)];
    let mut source = vec![0.0; w * (ny + 2)];
    for (j, row) in fp.power_density_grid(nx, ny).chunks_exact(nx).enumerate() {
        for (i, density) in row.iter().enumerate() {
            let neighbours = usize::from(i > 0)
                + usize::from(i + 1 < nx)
                + usize::from(j > 0)
                + usize::from(j + 1 < ny);
            let diag = g * neighbours as f64 + h_cell;
            let k = (j + 1) * w + i + 1;
            gain[k] = omega * g / diag;
            source[k] = omega * (density * cell_area + h_cell * COOLANT_C) / diag;
        }
    }
    let mut t = vec![0.0; w * (ny + 2)];
    for row in t.chunks_exact_mut(w).skip(1).take(ny) {
        row[1..=nx].fill(COOLANT_C);
    }

    let keep = 1.0 - omega;
    let mut sweeps = 0;
    let mut residual = f64::INFINITY;
    while sweeps < MAX_ITERS {
        sweeps += 1;
        let mut max_step = 0.0;
        for colour in 0..2 {
            for j in 1..ny + 1 {
                let first = j * w + 1 + (j + colour + 1) % 2;
                for k in (first..j * w + nx + 1).step_by(2) {
                    let old = t[k];
                    let new = keep * old
                        + source[k]
                        + gain[k] * (t[k - 1] + t[k + 1] + t[k - w] + t[k + w]);
                    let step = (new - old).abs();
                    if step > max_step {
                        max_step = step;
                    }
                    t[k] = new;
                }
            }
        }
        residual = max_step / omega;
        if residual < TOLERANCE_C {
            break;
        }
    }
    let cells = t
        .chunks_exact(w)
        .skip(1)
        .take(ny)
        .flat_map(|row| row[1..=nx].iter().copied())
        .collect();
    Solved {
        cells,
        sweeps,
        residual,
    }
}

/// Solves `fp` both ways and requires identical bits; returns the sweeps.
fn identical(cfg: ThermalConfig, fp: &Floorplan, what: &str) -> usize {
    let field = ThermalSolver::new(cfg).solve(fp);
    let oracle = ghost_ring_sor(&cfg, fp);
    assert_eq!(field.dims(), (cfg.nx, cfg.ny), "{what}");
    assert_eq!(field.sweeps(), oracle.sweeps, "{what}: sweeps");
    assert_eq!(
        field.residual_c().to_bits(),
        oracle.residual.to_bits(),
        "{what}: residual {} vs {}",
        field.residual_c(),
        oracle.residual
    );
    for (k, want) in oracle.cells.iter().enumerate() {
        let (i, j) = (k % cfg.nx, k / cfg.nx);
        let got = field.at(i, j).as_f64();
        assert_eq!(
            got.to_bits(),
            want.to_bits(),
            "{what}: cell ({i},{j}) solver {got} vs oracle {want}"
        );
    }
    oracle.sweeps
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

/// The product grids and the odd and degenerate ones.
const GRIDS: [(usize, usize); 8] = [
    (70, 56),
    (35, 28),
    (140, 112),
    (1, 1),
    (1, 7),
    (7, 1),
    (7, 5),
    (3, 2),
];

#[test]
fn colour_split_solve_matches_ghost_ring_sor_on_figure12_floorplans() {
    for profile in [
        WorkloadProfile::ComputeIntensive,
        WorkloadProfile::MemoryIntensive,
    ] {
        let fp = figure12_plan(profile);
        for (nx, ny) in GRIDS {
            let sweeps = identical(
                ThermalConfig { nx, ny },
                &fp,
                &format!("{profile:?} {nx}x{ny}"),
            );
            if (nx, ny) == (70, 56) {
                assert!((110..=111).contains(&sweeps), "{profile:?}: {sweeps}");
            }
            if (nx, ny) == (35, 28) {
                assert!((55..=56).contains(&sweeps), "{profile:?}: {sweeps}");
            }
        }
    }
}

#[test]
fn colour_split_solve_matches_ghost_ring_sor_on_random_floorplans() {
    let mut rng = SplitMix64::new(SEED);
    let mut uniform = |lo: f64, hi: f64| lo + (hi - lo) * rng.next_f64();
    for case in 0..24 {
        // The odd and degenerate grids first, then random ones.
        let (nx, ny) = GRIDS
            .get(3 + case)
            .copied()
            .unwrap_or_else(|| (uniform(1.0, 41.0) as usize, uniform(1.0, 33.0) as usize));
        let (w, h) = (nx as f64 * uniform(1.0, 2.5), ny as f64 * uniform(1.0, 2.5));
        let mut fp = Floorplan::new(Rect::new(0.0, 0.0, w, h));
        for r in 0..uniform(1.0, 7.0) as usize {
            let (rw, rh) = (uniform(0.05, 0.6) * w, uniform(0.05, 0.6) * h);
            let rect = Rect::new(uniform(0.0, w - rw), uniform(0.0, h - rh), rw, rh);
            let name = format!("block{r}");
            fp.add(name.clone(), rect, Layer::Compute);
            fp.assign_power(&name, Power::from_watts(uniform(1.0, 150.0)));
        }
        identical(
            ThermalConfig { nx, ny },
            &fp,
            &format!("case {case} ({nx}x{ny}, {w:.1}x{h:.1} mm)"),
        );
    }
}

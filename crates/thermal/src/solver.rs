//! The steady-state heat solver: red-black successive over-relaxation
//! (SOR) on a flat grid, stopped on the residual.

use ehp_package::floorplan::Floorplan;
use ehp_package::geometry::Point;

use crate::field::TemperatureField;

/// Lateral conduction coefficient between adjacent cells (W/K).
/// Captures spreading through silicon, lid and heat pipes.
pub const LATERAL_W_PER_K: f64 = 2.0;
/// Vertical heat-extraction coefficient to the cold plate (W/(K·mm²)).
pub const HTC_W_PER_K_MM2: f64 = 0.02;
/// Coolant / cold-plate temperature (°C).
pub const COOLANT_C: f64 = 30.0;
/// Convergence threshold on the largest diagonal-scaled residual
/// `|(b − A·T)_k / A_kk|` of a sweep (°C) — how far a Gauss–Seidel
/// step would still move the worst cell.
pub const TOLERANCE_C: f64 = 1e-6;
/// Sweep cap.
const MAX_ITERS: usize = 20_000;

/// Solver grid.
#[derive(Debug, Clone, Copy)]
pub struct ThermalConfig {
    /// Grid cells along x.
    pub nx: usize,
    /// Grid cells along y.
    pub ny: usize,
}

impl Default for ThermalConfig {
    fn default() -> ThermalConfig {
        ThermalConfig { nx: 70, ny: 56 }
    }
}

/// The finite-difference solver.
#[derive(Debug, Clone, Copy)]
pub struct ThermalSolver {
    cfg: ThermalConfig,
}

/// The SOR relaxation factor for a cell with four neighbours at
/// conductance `g` and cold-plate conductance `h_cell`:
/// `ω = 2 / (1 + sqrt(1 − ρ²))` with `ρ = 4g / (4g + h_cell)`, the
/// Jacobi iteration's spectral-radius bound for the interior stencil.
fn sor_omega(g: f64, h_cell: f64) -> f64 {
    let rho = 4.0 * g / (4.0 * g + h_cell);
    2.0 / (1.0 + (1.0 - rho * rho).sqrt())
}

/// Relaxes one half-sweep's cells of one row in place: cell `m` of `row`
/// has `sides[m]` and `sides[m + 1]` as its left and right neighbours and
/// `up[m]` and `down[m]` above and below it. Returns the largest
/// `|T' − T|` of the row.
fn relax_row(
    row: &mut [f64],
    sides: &[f64],
    up: &[f64],
    down: &[f64],
    source: &[f64],
    gain: &[f64],
    keep: f64,
) -> f64 {
    let n = row.len();
    let (left, right) = (&sides[..n], &sides[1..=n]);
    let (up, down, source, gain) = (&up[..n], &down[..n], &source[..n], &gain[..n]);
    let relax = |row: &mut [f64], m: usize| {
        let old = row[m];
        let new = keep * old + source[m] + gain[m] * (left[m] + right[m] + up[m] + down[m]);
        row[m] = new;
        (new - old).abs()
    };
    // Two running maxima, one per cell of a pair, so the pair's updates
    // need not wait on each other; the maximum is exact in any order. The
    // comparison (not `f64::max`, which must order NaNs) lets the pair
    // compile to two-lane vector code.
    let mut lanes = [0.0f64; 2];
    for q in 0..n / 2 {
        for (l, lane) in lanes.iter_mut().enumerate() {
            let step = relax(row, 2 * q + l);
            if step > *lane {
                *lane = step;
            }
        }
    }
    if n % 2 == 1 {
        lanes[0] = lanes[0].max(relax(row, n - 1));
    }
    lanes[0].max(lanes[1])
}

impl ThermalSolver {
    /// Creates a solver.
    ///
    /// # Panics
    ///
    /// Panics on an empty grid.
    #[must_use]
    pub fn new(cfg: ThermalConfig) -> ThermalSolver {
        assert!(cfg.nx > 0 && cfg.ny > 0, "grid must be non-empty");
        ThermalSolver { cfg }
    }

    /// Solves the steady-state field for a floorplan's assigned powers.
    ///
    /// Red-black SOR from a cold start at coolant temperature; stops
    /// once a sweep's largest diagonal-scaled residual falls below
    /// [`TOLERANCE_C`] (or at the sweep cap). The returned field
    /// carries the sweep count and that final residual.
    #[must_use]
    pub fn solve(&self, fp: &Floorplan) -> TemperatureField {
        let ThermalConfig { nx, ny } = self.cfg;
        let outline = fp.outline();
        let cell_w = outline.w / nx as f64;
        let cell_h = outline.h / ny as f64;
        let cell_area = cell_w * cell_h;
        let g = LATERAL_W_PER_K;
        let h_cell = HTC_W_PER_K_MM2 * cell_area;
        let omega = sor_omega(g, h_cell);

        // The grid carries a ring of zero ghost cells, so every cell sums
        // four neighbours without branching; `diag` counts only the real
        // ones (adiabatic package edges). With diag = g·neighbours +
        // h_cell, the SOR update of cell k is
        //   T' = (1 − ω)·T + source_k + gain_k · Σ T_neighbour,
        // source_k = ω·(P_k + h_cell·T_cool)/diag, gain_k = ω·g/diag.
        //
        // `t`, `gain` and `source` each hold two planes split by column
        // parity, ghost columns included: ghost-ring column `I` of row `J`
        // sits at `(I % 2) * plane + J * hw + I / 2`.
        let hw = (nx + 2).div_ceil(2);
        let plane = (ny + 2) * hw;
        let at = |i: usize, j: usize| (i % 2) * plane + j * hw + i / 2;
        let mut gain = vec![0.0; 2 * plane];
        let mut source = vec![0.0; 2 * plane];
        let mut t = vec![0.0; 2 * plane];
        let density = fp.power_density_grid(nx, ny);
        for (j, row) in density.chunks_exact(nx).enumerate() {
            for (i, density) in row.iter().enumerate() {
                let neighbours = usize::from(i > 0)
                    + usize::from(i + 1 < nx)
                    + usize::from(j > 0)
                    + usize::from(j + 1 < ny);
                let diag = g * neighbours as f64 + h_cell;
                let k = at(i + 1, j + 1);
                gain[k] = omega * g / diag;
                source[k] = omega * (density * cell_area + h_cell * COOLANT_C) / diag;
                t[k] = COOLANT_C;
            }
        }
        drop(density);

        // Red-black ordering: each half-sweep updates the cells of one
        // colour, `(I + J) % 2`, from the other's latest values. In row
        // `J` those are the real cells of plane `(colour + J) % 2`, from
        // position `first` on; their left and right neighbours are the
        // other plane's row at positions `m − 1 + p` and `m + p`, and
        // their up and down neighbours are their own plane's adjacent
        // rows, which hold the other colour. A half-sweep therefore
        // reads no cell it writes, and the order of its updates does not
        // change a bit.
        let keep = 1.0 - omega;
        let (t_even, t_odd) = t.split_at_mut(plane);
        let mut sweeps = 0;
        let mut residual = f64::INFINITY;
        while sweeps < MAX_ITERS {
            sweeps += 1;
            let mut max_step = 0.0f64;
            for colour in 0..2 {
                for j in 1..=ny {
                    // Even columns 2..=nx start at position 1, odd columns
                    // 1..=nx at position 0.
                    let p = (colour + j) % 2;
                    let (own, other, first, cells) = if p == 0 {
                        (&mut *t_even, &*t_odd, 1, nx / 2)
                    } else {
                        (&mut *t_odd, &*t_even, 0, nx.div_ceil(2))
                    };
                    let (above, rest) = own.split_at_mut(j * hw);
                    let (row, below) = rest.split_at_mut(hw);
                    let k = p * plane + j * hw + first;
                    let step = relax_row(
                        &mut row[first..first + cells],
                        &other[j * hw..j * hw + cells + 1],
                        &above[(j - 1) * hw + first..(j - 1) * hw + first + cells],
                        &below[first..first + cells],
                        &source[k..k + cells],
                        &gain[k..k + cells],
                        keep,
                    );
                    max_step = max_step.max(step);
                }
            }
            residual = max_step / omega;
            if residual < TOLERANCE_C {
                break;
            }
        }

        // The field reuses `source`'s buffer, which is larger than it.
        let mut data = source;
        data.clear();
        for j in 1..=ny {
            data.extend((1..=nx).map(|i| t[at(i, j)]));
        }
        TemperatureField::new(
            Point::new(outline.origin.x, outline.origin.y),
            cell_w,
            cell_h,
            nx,
            data,
        )
        .with_convergence(sweeps, residual)
    }

    /// `(injected, extracted)` watts: the power the grid's cells inject
    /// (the floorplan's power map as `solve` discretises it) and the heat
    /// the cold plate removes from the field. Lateral flows cancel in the
    /// sum, so the two agree exactly at the discrete steady state.
    fn heat_flows(&self, fp: &Floorplan, field: &TemperatureField) -> (f64, f64) {
        let c = &self.cfg;
        let outline = fp.outline();
        let cell_area = (outline.w / c.nx as f64) * (outline.h / c.ny as f64);
        let injected: f64 = fp
            .power_density_grid(c.nx, c.ny)
            .iter()
            .map(|d| d * cell_area)
            .sum();
        let mut extracted = 0.0;
        let (nx, ny) = field.dims();
        for j in 0..ny {
            for i in 0..nx {
                extracted += HTC_W_PER_K_MM2 * cell_area * (field.at(i, j).as_f64() - COOLANT_C);
            }
        }
        (injected, extracted)
    }

    /// Relative energy imbalance `|injected − extracted| / injected` of a
    /// solved field: zero at the exact steady state, so it measures how
    /// far the solve stopped short of convergence.
    #[must_use]
    pub fn imbalance(&self, fp: &Floorplan, field: &TemperatureField) -> f64 {
        let (injected, extracted) = self.heat_flows(fp, field);
        ((injected - extracted) / injected.max(1e-12)).abs()
    }

    /// Energy-balance check: at the solved field, extracted heat should
    /// match injected power within `rel_tol`.
    ///
    /// # Errors
    ///
    /// Returns `(injected, extracted)` watts on imbalance.
    pub fn check_balance(
        &self,
        fp: &Floorplan,
        field: &TemperatureField,
        rel_tol: f64,
    ) -> Result<(), (f64, f64)> {
        if self.imbalance(fp, field) <= rel_tol {
            Ok(())
        } else {
            Err(self.heat_flows(fp, field))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ehp_package::floorplan::{Floorplan, Layer};
    use ehp_package::geometry::Rect;
    use ehp_sim_core::units::Power;

    fn uniform_plan(watts: f64) -> Floorplan {
        let mut fp = Floorplan::new(Rect::new(0.0, 0.0, 10.0, 10.0));
        fp.add("block", Rect::new(0.0, 0.0, 10.0, 10.0), Layer::Compute);
        fp.assign_power("block", Power::from_watts(watts));
        fp
    }

    fn small_cfg() -> ThermalConfig {
        ThermalConfig { nx: 20, ny: 20 }
    }

    #[test]
    fn uniform_power_gives_uniform_analytic_temperature() {
        // With uniform power there is no lateral gradient; every cell
        // sits at T = T_cool + q / h (q in W/mm²).
        let fp = uniform_plan(100.0);
        let field = ThermalSolver::new(small_cfg()).solve(&fp);
        let expected = COOLANT_C + (100.0 / 100.0) / HTC_W_PER_K_MM2;
        let (max, _) = field.max();
        let min = field.min();
        assert!((max - expected).abs() < 0.1, "max {max} vs {expected}");
        assert!((max - min).abs() < 0.05, "uniform field");
    }

    #[test]
    fn hotspot_decays_with_distance() {
        let mut fp = Floorplan::new(Rect::new(0.0, 0.0, 20.0, 20.0));
        fp.add("hot", Rect::new(9.0, 9.0, 2.0, 2.0), Layer::Compute);
        fp.assign_power("hot", Power::from_watts(50.0));
        let field = ThermalSolver::new(small_cfg()).solve(&fp);
        // 1 mm cells: cell (i, j) covers [i, i + 1) x [j, j + 1) mm.
        let center = field.at(10, 10);
        let near = field.at(13, 10);
        let far = field.at(19, 10);
        assert!(center.as_f64() > near.as_f64());
        assert!(near.as_f64() > far.as_f64());
        assert!(far.as_f64() >= 30.0 - 1e-9, "never below coolant");
    }

    #[test]
    fn energy_balance_at_convergence() {
        let fp = uniform_plan(200.0);
        let solver = ThermalSolver::new(small_cfg());
        let field = solver.solve(&fp);
        solver.check_balance(&fp, &field, 0.01).unwrap();
    }

    #[test]
    fn more_power_is_hotter() {
        let solver = ThermalSolver::new(small_cfg());
        let cold = solver.solve(&uniform_plan(50.0)).max().0;
        let hot = solver.solve(&uniform_plan(150.0)).max().0;
        assert!(hot > cold + 10.0);
    }

    #[test]
    fn mi300a_gpu_scenario_hotspots_on_xcds() {
        let mut fp = Floorplan::mi300a();
        // Compute-intensive split (Figure 12a): most power in the XCDs.
        fp.assign_power("xcd", Power::from_watts(340.0));
        fp.assign_power("ccd", Power::from_watts(45.0));
        fp.assign_power("iod", Power::from_watts(60.0));
        fp.assign_power("usr", Power::from_watts(20.0));
        fp.assign_power("hbm_phy", Power::from_watts(25.0));
        fp.assign_power("hbm_stack", Power::from_watts(60.0));
        let field = ThermalSolver::new(ThermalConfig::default()).solve(&fp);
        // Mean XCD temperature beats mean HBM temperature.
        let xcd_t = fp
            .regions_matching("xcd")
            .filter_map(|r| field.mean_over(&r.rect))
            .sum::<f64>()
            / 6.0;
        let hbm_t = fp
            .regions_matching("hbm_stack")
            .filter_map(|r| field.mean_over(&r.rect))
            .sum::<f64>()
            / 8.0;
        assert!(
            xcd_t > hbm_t + 5.0,
            "GPU-intensive: XCDs ({xcd_t:.1}C) should be the hotspots vs HBM ({hbm_t:.1}C)"
        );
    }

    #[test]
    fn omega_follows_the_cell_size() {
        // The MI300A outline is 70 × 56 mm: 1 mm² cells at 70×56, 4 mm²
        // at 35×28.
        assert!((sor_omega(2.0, 0.02 * 1.0) - 1.868).abs() < 1e-3);
        assert!((sor_omega(2.0, 0.02 * 4.0) - 1.754).abs() < 1e-3);
    }

    #[test]
    fn full_grid_solve_stops_on_the_residual() {
        let mut fp = Floorplan::mi300a();
        fp.assign_power("xcd", Power::from_watts(340.0));
        fp.assign_power("hbm_stack", Power::from_watts(60.0));
        let solver = ThermalSolver::new(ThermalConfig::default());
        let field = solver.solve(&fp);
        assert!(field.residual_c() < TOLERANCE_C);
        assert!(
            (1..=200).contains(&field.sweeps()),
            "{} sweeps",
            field.sweeps()
        );
        solver.check_balance(&fp, &field, 1e-5).unwrap();
    }

    #[test]
    #[should_panic(expected = "grid must be non-empty")]
    fn empty_grid_panics() {
        let _ = ThermalSolver::new(ThermalConfig { nx: 0, ny: 56 });
    }
}

//! The solved temperature field and its queries.

use ehp_package::geometry::{Point, Rect};
use ehp_sim_core::units::Celsius;

/// The glyphs of [`TemperatureField::ascii_map`], from cold to hot.
const HEAT_LEVELS: &str = " .:-=+*#%@";

/// A temperature field sampled on a regular grid over a package outline,
/// with the convergence evidence of the solve that produced it.
#[derive(Debug, Clone)]
pub struct TemperatureField {
    origin: Point,
    cell_w: f64,
    cell_h: f64,
    nx: usize,
    /// Row-major: `data[j * nx + i]` is the cell at column `i`, row `j`.
    data: Vec<f64>,
    sweeps: usize,
    residual_c: f64,
}

impl TemperatureField {
    /// Wraps solved row-major data, `nx` cells per row.
    ///
    /// # Panics
    ///
    /// Panics if `data` is empty or not a whole number of rows, or cell
    /// sizes are not positive.
    #[must_use]
    pub(crate) fn new(
        origin: Point,
        cell_w: f64,
        cell_h: f64,
        nx: usize,
        data: Vec<f64>,
    ) -> TemperatureField {
        assert!(cell_w > 0.0 && cell_h > 0.0, "cell size must be positive");
        assert!(nx > 0 && !data.is_empty(), "field must be non-empty");
        assert!(data.len().is_multiple_of(nx), "field must be rectangular");
        TemperatureField {
            origin,
            cell_w,
            cell_h,
            nx,
            data,
            sweeps: 0,
            residual_c: 0.0,
        }
    }

    /// Attaches the solver's convergence evidence: the sweeps it ran and
    /// the largest diagonal-scaled residual of the last one (°C).
    #[must_use]
    pub(crate) fn with_convergence(mut self, sweeps: usize, residual_c: f64) -> TemperatureField {
        self.sweeps = sweeps;
        self.residual_c = residual_c;
        self
    }

    /// Sweeps the solver ran to produce this field (0 if not solved).
    #[must_use]
    pub fn sweeps(&self) -> usize {
        self.sweeps
    }

    /// Largest diagonal-scaled residual `|(b − A·T)_k / A_kk|` seen in
    /// the solve's last sweep (°C): how far a Gauss–Seidel step would
    /// still move the worst cell (0 if not solved).
    #[must_use]
    pub fn residual_c(&self) -> f64 {
        self.residual_c
    }

    /// Grid dimensions `(nx, ny)`.
    #[must_use]
    pub fn dims(&self) -> (usize, usize) {
        (self.nx, self.data.len() / self.nx)
    }

    /// Temperature of cell `(i, j)`.
    ///
    /// # Panics
    ///
    /// Panics if out of range.
    #[must_use]
    pub fn at(&self, i: usize, j: usize) -> Celsius {
        assert!(i < self.nx, "column {i} out of range");
        Celsius(self.data[j * self.nx + i])
    }

    /// Maximum temperature and its cell.
    #[must_use]
    pub fn max(&self) -> (f64, (usize, usize)) {
        let mut best = (f64::NEG_INFINITY, 0);
        for (k, &t) in self.data.iter().enumerate() {
            if t > best.0 {
                best = (t, k);
            }
        }
        (best.0, (best.1 % self.nx, best.1 / self.nx))
    }

    /// Minimum temperature.
    #[must_use]
    pub(crate) fn min(&self) -> f64 {
        self.data.iter().copied().fold(f64::INFINITY, f64::min)
    }

    /// Mean temperature over the cells whose centres fall in `r`;
    /// `None` if no cell does.
    #[must_use]
    pub fn mean_over(&self, r: &Rect) -> Option<f64> {
        let mut sum = 0.0;
        let mut n = 0u32;
        for (j, row) in self.data.chunks_exact(self.nx).enumerate() {
            for (i, &t) in row.iter().enumerate() {
                let c = Point::new(
                    self.origin.x + (i as f64 + 0.5) * self.cell_w,
                    self.origin.y + (j as f64 + 0.5) * self.cell_h,
                );
                if r.contains(c) {
                    sum += t;
                    n += 1;
                }
            }
        }
        (n > 0).then(|| sum / f64::from(n))
    }

    /// The field on a grid with half as many rows: each coarse cell is
    /// the mean of the two fine cells it covers. Carries no convergence
    /// evidence.
    ///
    /// # Panics
    ///
    /// Panics if the row count is odd.
    #[must_use]
    pub fn merge_row_pairs(&self) -> TemperatureField {
        let (nx, ny) = self.dims();
        assert!(ny.is_multiple_of(2), "row count {ny} must be even");
        let data = self
            .data
            .chunks_exact(2 * nx)
            .flat_map(|pair| {
                let (lo, hi) = pair.split_at(nx);
                lo.iter().zip(hi).map(|(a, b)| 0.5 * (a + b))
            })
            .collect();
        TemperatureField::new(self.origin, self.cell_w, 2.0 * self.cell_h, nx, data)
    }

    /// Renders the field as a coarse ASCII heat map (for the figure
    /// reports): one of the `HEAT_LEVELS` characters per cell, from cold
    /// to hot.
    #[must_use]
    pub fn ascii_map(&self) -> String {
        let chars: Vec<char> = HEAT_LEVELS.chars().collect();
        let (max, _) = self.max();
        let min = self.min();
        let span = (max - min).max(1e-9);
        let mut out = String::new();
        // Render top row (max y) first.
        for row in self.data.chunks_exact(self.nx).rev() {
            for &t in row {
                let idx = (((t - min) / span) * (chars.len() as f64 - 1.0)).round() as usize;
                out.push(chars[idx.min(chars.len() - 1)]);
            }
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn field() -> TemperatureField {
        TemperatureField::new(
            Point::new(0.0, 0.0),
            1.0,
            1.0,
            2,
            vec![10.0, 20.0, 30.0, 40.0],
        )
    }

    #[test]
    fn dims_and_at() {
        let f = field();
        assert_eq!(f.dims(), (2, 2));
        assert_eq!(f.at(1, 1).as_f64(), 40.0);
    }

    #[test]
    fn max_min() {
        let f = field();
        let (t, (i, j)) = f.max();
        assert_eq!((t, i, j), (40.0, 1, 1));
        assert_eq!(f.min(), 10.0);
    }

    #[test]
    fn mean_over_region() {
        let f = field();
        let m = f.mean_over(&Rect::new(0.0, 0.0, 2.0, 1.0)).unwrap();
        assert!((m - 15.0).abs() < 1e-12);
        assert_eq!(f.mean_over(&Rect::new(10.0, 10.0, 1.0, 1.0)), None);
    }

    #[test]
    fn ascii_map_shape() {
        let f = field();
        let map = f.ascii_map();
        let lines: Vec<&str> = map.lines().collect();
        assert_eq!(lines.len(), 2);
        // Hottest cell (top-right in render) is '@', coldest ' '.
        assert_eq!(lines[0].chars().nth(1), Some('@'));
        assert_eq!(lines[1].chars().next(), Some(' '));
    }

    #[test]
    fn merge_row_pairs_averages_each_column() {
        let f = field().with_convergence(7, 1e-7);
        let coarse = f.merge_row_pairs();
        assert_eq!(coarse.dims(), (2, 1));
        assert_eq!(coarse.at(0, 0).as_f64(), 20.0);
        assert_eq!(coarse.at(1, 0).as_f64(), 30.0);
        assert_eq!(coarse.sweeps(), 0);
    }

    #[test]
    #[should_panic(expected = "rectangular")]
    fn ragged_field_panics() {
        let _ = TemperatureField::new(Point::new(0.0, 0.0), 1.0, 1.0, 2, vec![1.0, 1.0, 2.0]);
    }
}

//! Package floorplans: named, layered regions with power assignments.
//!
//! The floorplan is the shared substrate between the packaging audits
//! (area utilisation, Figure 4's empty EHPv4 regions) and the thermal
//! solver (Figure 12's heat maps), which consumes the per-region power
//! densities produced here.

use std::ops::Range;

use ehp_sim_core::units::Power;

use crate::chiplet::{ChipletKind, Footprint};
use crate::geometry::Rect;

/// Millimetres per character of [`Floorplan::ascii_render`].
const RENDER_SCALE_MM: f64 = 1.4;

/// The vertical layer a region occupies (3D stacking means regions on
/// different layers legitimately overlap in plan view).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Layer {
    /// The passive silicon interposer / organic substrate.
    Interposer,
    /// The active IOD dies.
    Iod,
    /// PHY blocks within the IOD (USR, HBM PHYs) — drawn separately so
    /// the thermal map shows them.
    Phy,
    /// The stacked compute chiplets (XCDs/CCDs).
    Compute,
    /// HBM stacks.
    Hbm,
}

/// A named floorplan region.
#[derive(Debug, Clone)]
pub struct Region {
    /// Region name, e.g. `"xcd2"`, `"usr01"`, `"hbm_phy3"`.
    pub(crate) name: String,
    /// Plan-view extent.
    pub rect: Rect,
    /// Layer.
    pub(crate) layer: Layer,
    /// Power dissipated in this region.
    pub(crate) power: Power,
}

/// A package floorplan.
///
/// # Example
///
/// ```
/// use ehp_package::floorplan::Floorplan;
///
/// let fp = Floorplan::mi300a();
/// assert_eq!(fp.regions_matching("xcd").count(), 6);
/// assert_eq!(fp.regions_matching("ccd").count(), 3);
/// assert_eq!(fp.regions_matching("hbm_stack").count(), 8);
/// fp.check().unwrap();
/// ```
#[derive(Debug, Clone)]
pub struct Floorplan {
    outline: Rect,
    regions: Vec<Region>,
}

impl Floorplan {
    /// Creates an empty floorplan with the given outline.
    #[must_use]
    pub fn new(outline: Rect) -> Floorplan {
        Floorplan {
            outline,
            regions: Vec::new(),
        }
    }

    /// Adds a region.
    pub fn add(&mut self, name: impl Into<String>, rect: Rect, layer: Layer) {
        self.regions.push(Region {
            name: name.into(),
            rect,
            layer,
            power: Power::ZERO,
        });
    }

    /// The outline.
    #[must_use]
    pub fn outline(&self) -> &Rect {
        &self.outline
    }

    /// Regions whose name starts with `prefix`.
    pub fn regions_matching<'a>(
        &'a self,
        prefix: &'a str,
    ) -> impl Iterator<Item = &'a Region> + 'a {
        self.regions
            .iter()
            .filter(move |r| r.name.starts_with(prefix))
    }

    /// Distributes `total` power equally among regions matching `prefix`.
    ///
    /// # Panics
    ///
    /// Panics if no region matches.
    pub fn assign_power(&mut self, prefix: &str, total: Power) {
        let n = self.regions_matching(prefix).count();
        assert!(n > 0, "no region matches prefix '{prefix}'");
        let share = total.scale(1.0 / n as f64);
        for r in &mut self.regions {
            if r.name.starts_with(prefix) {
                r.power = share;
            }
        }
    }

    /// Total assigned power.
    #[must_use]
    pub fn total_power(&self) -> Power {
        self.regions.iter().map(|r| r.power).sum()
    }

    /// Validates geometry: every region inside the outline, and no two
    /// same-layer regions overlapping.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violation.
    pub fn check(&self) -> Result<(), String> {
        for r in &self.regions {
            if !self.outline.contains_rect(&r.rect) {
                return Err(format!("region '{}' escapes the outline", r.name));
            }
        }
        for (i, a) in self.regions.iter().enumerate() {
            for b in &self.regions[i + 1..] {
                if a.layer == b.layer && a.rect.intersects(&b.rect) {
                    return Err(format!(
                        "regions '{}' and '{}' overlap on layer {:?}",
                        a.name, b.name, a.layer
                    ));
                }
            }
        }
        Ok(())
    }

    /// Fraction of the outline covered by silicon on or above the IOD
    /// layer (the utilisation metric of the EHPv4 critique: "EHPv4 leaves
    /// several regions of the package empty").
    #[must_use]
    pub fn silicon_utilization(&self) -> f64 {
        // Approximate coverage on a fine grid so stacked layers are not
        // double counted. A point is covered when some region's column
        // range and row range both hold it, so each row is marked from
        // the regions whose rows hold it.
        let n = 200;
        let spans: Vec<_> = self
            .regions
            .iter()
            .filter(|r| r.layer >= Layer::Iod)
            .map(|r| self.sample_spans(&r.rect, n, n))
            .collect();
        let mut row = vec![false; n];
        let mut covered = 0;
        for j in 0..n {
            row.fill(false);
            for (cols, rows) in &spans {
                if rows.contains(&j) {
                    row[cols.clone()].fill(true);
                }
            }
            covered += row.iter().filter(|&&c| c).count();
        }
        covered as f64 / (n * n) as f64
    }

    /// Power density (W/mm²) sampled at the centres of an `nx × ny` grid
    /// over the outline, row-major (`grid[j * nx + i]`); stacked layers
    /// add, in region order.
    #[must_use]
    pub fn power_density_grid(&self, nx: usize, ny: usize) -> Vec<f64> {
        let mut grid = vec![0.0; nx * ny];
        for r in &self.regions {
            let area = r.rect.area();
            if area > 0.0 {
                let density = r.power.as_watts() / area;
                let (cols, rows) = self.sample_spans(&r.rect, nx, ny);
                for j in rows {
                    for cell in &mut grid[j * nx + cols.start..j * nx + cols.end] {
                        *cell += density;
                    }
                }
            }
        }
        grid
    }

    /// The columns and rows of an `nx × ny` centre-sampled grid over the
    /// outline whose sample points `rect` contains (edges inclusive, as
    /// [`Rect::contains`]). Sample `i` of `n` sits at
    /// `origin + (i + 0.5) · extent / n`; those rise with `i`, so each
    /// set is one range.
    fn sample_spans(&self, rect: &Rect, nx: usize, ny: usize) -> (Range<usize>, Range<usize>) {
        let o = &self.outline;
        let span = |origin: f64, extent: f64, n: usize, lo: f64, hi: f64| {
            let at = |i: usize| origin + (i as f64 + 0.5) * extent / n as f64;
            let start = (0..n).find(|&i| at(i) >= lo).unwrap_or(n);
            let end = (start..n).find(|&i| at(i) > hi).unwrap_or(n);
            start..end
        };
        (
            span(o.origin.x, o.w, nx, rect.origin.x, rect.origin.x + rect.w),
            span(o.origin.y, o.h, ny, rect.origin.y, rect.origin.y + rect.h),
        )
    }

    /// Renders the floorplan as ASCII art (one character ≈
    /// `RENDER_SCALE_MM`), top row first. Layer glyphs: `I` IOD, `X`
    /// XCD, `C` CCD, `H` HBM, `u` USR PHY, `p` HBM PHY, `.`
    /// interposer/empty.
    #[must_use]
    pub fn ascii_render(&self) -> String {
        let scale = RENDER_SCALE_MM;
        let nx = (self.outline.w / scale).ceil() as usize;
        let ny = (self.outline.h / scale).ceil() as usize;
        let mut rows = vec![vec!['.'; nx]; ny];
        // Draw lowest layers first so stacked chiplets overwrite them.
        let mut order: Vec<&Region> = self.regions.iter().collect();
        order.sort_by_key(|r| r.layer);
        for r in order {
            let glyph = match r.layer {
                Layer::Interposer => '.',
                Layer::Iod => 'I',
                Layer::Phy => {
                    if r.name.starts_with("usr") {
                        'u'
                    } else {
                        'p'
                    }
                }
                Layer::Compute => {
                    if r.name.starts_with("ccd") {
                        'C'
                    } else {
                        'X'
                    }
                }
                Layer::Hbm => 'H',
            };
            for (j, row) in rows.iter_mut().enumerate() {
                for (i, cell) in row.iter_mut().enumerate() {
                    let p = crate::geometry::Point::new(
                        self.outline.origin.x + (i as f64 + 0.5) * scale,
                        self.outline.origin.y + (j as f64 + 0.5) * scale,
                    );
                    if r.rect.contains(p) {
                        *cell = glyph;
                    }
                }
            }
        }
        let mut out = String::new();
        for row in rows.iter().rev() {
            out.extend(row.iter());
            out.push('\n');
        }
        out
    }

    /// The MI300A floorplan: four IODs (2×2) on an interposer, six XCDs +
    /// three CCDs stacked on them, eight HBM stacks flanking, USR PHY
    /// strips at the IOD seams and HBM PHYs on the outer IOD edges.
    #[must_use]
    pub fn mi300a() -> Floorplan {
        let mut fp = Floorplan::new(Rect::new(0.0, 0.0, 70.0, 56.0));
        let iod = Footprint::of(ChipletKind::Iod); // 21.6 x 17.1
        let block_x = 13.4;
        let block_y = 10.9;
        let iod_pos = [
            (block_x, block_y),
            (block_x + iod.w, block_y),
            (block_x, block_y + iod.h),
            (block_x + iod.w, block_y + iod.h),
        ];
        for (i, &(x, y)) in iod_pos.iter().enumerate() {
            fp.add(format!("iod{i}"), iod.at(x, y), Layer::Iod);
        }

        // Compute chiplets: XCD drawn rotated (8.8 wide x 13 tall), two
        // on each of IODs 0-2; IOD 3 carries the three CCDs.
        let mut xcd_n = 0;
        for &(x, y) in &iod_pos[..3] {
            for dx in [2.0, 11.0] {
                fp.add(
                    format!("xcd{xcd_n}"),
                    Rect::new(x + dx, y + 2.0, 8.8, 13.0),
                    Layer::Compute,
                );
                xcd_n += 1;
            }
        }
        let ccd = Footprint::of(ChipletKind::Ccd); // 9.4 x 7.6
        let (x, y) = iod_pos[3];
        for (k, (dx, dy)) in [(1.0, 1.5), (11.0, 1.5), (1.0, 9.3)]
            .into_iter()
            .enumerate()
        {
            fp.add(format!("ccd{k}"), ccd.at(x + dx, y + dy), Layer::Compute);
        }

        // HBM stacks: four per side, flanking the IOD block.
        let hbm = Footprint::of(ChipletKind::HbmStack); // 11 x 10
        for s in 0..8 {
            let (x, col) = if s < 4 { (1.0, s) } else { (58.0, s - 4) };
            let y = 4.0 + f64::from(col) * 12.0;
            fp.add(format!("hbm_stack{s}"), hbm.at(x, y), Layer::Hbm);
        }

        // USR PHY strips at the two seams (vertical seam between IOD
        // columns, horizontal seam between rows) — drawn inside the IODs
        // on the Phy layer.
        let seam_x = block_x + iod.w;
        let seam_y = block_y + iod.h;
        fp.add(
            "usr_v0",
            Rect::new(seam_x - 1.0, block_y + 1.0, 2.0, 2.0 * iod.h - 2.0),
            Layer::Phy,
        );
        // The horizontal seam strip is split around the vertical strip so
        // Phy-layer regions stay disjoint.
        fp.add(
            "usr_h0",
            Rect::new(block_x + 2.0, seam_y - 1.0, iod.w - 3.0, 2.0),
            Layer::Phy,
        );
        fp.add(
            "usr_h1",
            Rect::new(seam_x + 1.0, seam_y - 1.0, iod.w - 3.0, 2.0),
            Layer::Phy,
        );

        // HBM PHYs on the outer (left/right) IOD edges, one per stack,
        // spread evenly along the block's vertical extent.
        for s in 0..8u32 {
            let (x, col) = if s < 4 {
                (block_x, s)
            } else {
                (block_x + 2.0 * iod.w - 1.5, s - 4)
            };
            let y = block_y + 1.0 + f64::from(col) * 8.4;
            fp.add(format!("hbm_phy{s}"), Rect::new(x, y, 1.5, 7.5), Layer::Phy);
        }
        fp
    }

    /// The EHPv4 floorplan (Figure 4): a central server IOD with two CCDs
    /// over organic substrate, two far-apart GPU+HBM complexes, and the
    /// empty package regions the paper criticises.
    #[must_use]
    pub fn ehpv4() -> Floorplan {
        let mut fp = Floorplan::new(Rect::new(0.0, 0.0, 70.0, 56.0));
        // Central server IOD.
        fp.add("iod0", Rect::new(23.0, 21.0, 24.0, 14.0), Layer::Iod);
        let ccd = Footprint::of(ChipletKind::Ccd);
        fp.add("ccd0", ccd.at(25.0, 38.0), Layer::Compute);
        fp.add("ccd1", ccd.at(36.0, 38.0), Layer::Compute);
        // Two GPU complexes at the far package edges: each a 2.5D
        // interposer carrying two GPU dies and four HBM stacks. The long
        // span between them and the central IOD (organic SerDes only) is
        // the paper's challenge ①, and the corners stay empty (⑤).
        for (g, x) in [(0u32, 2.0), (1u32, 52.0)] {
            fp.add(format!("gpu{g}"), Rect::new(x, 8.0, 16.0, 40.0), Layer::Iod);
            for k in 0..4u32 {
                let (dx, dy) = (1.0 + f64::from(k % 2) * 7.0, 2.0 + f64::from(k / 2) * 22.0);
                fp.add(
                    format!("hbm_stack{}", g * 4 + k),
                    Rect::new(x + dx, 8.0 + dy, 7.0, 9.0),
                    Layer::Hbm,
                );
            }
        }
        fp
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mi300a_validates() {
        let fp = Floorplan::mi300a();
        fp.check().unwrap();
        assert_eq!(fp.regions_matching("iod").count(), 4);
        assert_eq!(fp.regions_matching("xcd").count(), 6);
        assert_eq!(fp.regions_matching("ccd").count(), 3);
        assert_eq!(fp.regions_matching("hbm_stack").count(), 8);
        assert_eq!(fp.regions_matching("hbm_phy").count(), 8);
    }

    #[test]
    fn power_assignment_distributes_equally() {
        let mut fp = Floorplan::mi300a();
        fp.assign_power("xcd", Power::from_watts(300.0));
        for r in fp.regions_matching("xcd") {
            assert!((r.power.as_watts() - 50.0).abs() < 1e-9);
        }
        assert!((fp.total_power().as_watts() - 300.0).abs() < 1e-9);
    }

    #[test]
    fn power_density_grid_sees_hotspots() {
        let mut fp = Floorplan::mi300a();
        fp.assign_power("xcd", Power::from_watts(300.0));
        let grid = fp.power_density_grid(70, 56);
        let max = grid.iter().copied().fold(0.0f64, f64::max);
        assert!(
            max > 0.3,
            "XCD power density should exceed 0.3 W/mm², got {max}"
        );
        // Package corners are cold.
        assert_eq!(grid[0], 0.0);
    }

    #[test]
    fn mi300_utilization_beats_ehpv4() {
        let mi300 = Floorplan::mi300a().silicon_utilization();
        let ehpv4 = Floorplan::ehpv4().silicon_utilization();
        assert!(
            mi300 > ehpv4 + 0.15,
            "MI300 {mi300:.2} should clearly beat EHPv4 {ehpv4:.2}"
        );
    }

    #[test]
    fn overlap_detection_works() {
        let mut fp = Floorplan::new(Rect::new(0.0, 0.0, 10.0, 10.0));
        fp.add("a", Rect::new(0.0, 0.0, 5.0, 5.0), Layer::Compute);
        fp.add("b", Rect::new(4.0, 4.0, 5.0, 5.0), Layer::Compute);
        assert!(fp.check().is_err());
    }

    #[test]
    fn cross_layer_overlap_is_fine() {
        let mut fp = Floorplan::new(Rect::new(0.0, 0.0, 10.0, 10.0));
        fp.add("iod", Rect::new(0.0, 0.0, 8.0, 8.0), Layer::Iod);
        fp.add("xcd", Rect::new(1.0, 1.0, 5.0, 5.0), Layer::Compute);
        fp.check().unwrap();
    }

    #[test]
    fn escape_detection_works() {
        let mut fp = Floorplan::new(Rect::new(0.0, 0.0, 10.0, 10.0));
        fp.add("a", Rect::new(8.0, 8.0, 5.0, 5.0), Layer::Compute);
        assert!(fp.check().unwrap_err().contains("escapes"));
    }

    #[test]
    fn ascii_render_shows_every_component_class() {
        let art = Floorplan::mi300a().ascii_render();
        for glyph in ['I', 'X', 'C', 'H', 'u', 'p', '.'] {
            assert!(art.contains(glyph), "missing {glyph} in render");
        }
        // The 70 × 56 mm outline at 1.4 mm per character: 40 rows of 50.
        assert_eq!(art.lines().count(), 40);
        assert!(art.lines().all(|l| l.len() == 50));
    }

    #[test]
    fn ascii_render_stacks_compute_over_iod() {
        // An XCD cell covers its IOD cell (Compute sorts above Iod).
        let fp = Floorplan::mi300a();
        let art = fp.ascii_render();
        let xcds = art.matches('X').count();
        // 6 XCDs x ~114 mm² at 1.96 mm² per cell.
        assert!((300..500).contains(&xcds), "XCD cells: {xcds}");
    }

    #[test]
    #[should_panic(expected = "no region matches")]
    fn power_to_unknown_prefix_panics() {
        Floorplan::mi300a().assign_power("nonexistent", Power::from_watts(1.0));
    }
}

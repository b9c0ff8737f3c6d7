//! Point-by-point references for the package's sampled audits:
//! `Floorplan::power_density_grid`, `Floorplan::silicon_utilization` and
//! `tsv::check_symmetry`. Each reference tests every sample point
//! against every region (or every TSV under every transform) with the
//! same expressions the per-axis versions use, so the two must agree bit
//! for bit.

use ehp_package::floorplan::{Floorplan, Layer};
use ehp_package::geometry::{Point, Rect, Transform};
use ehp_package::tsv;
use ehp_sim_core::rng::SplitMix64;
use ehp_sim_core::units::Power;

/// Base seed of the random-floorplan stream.
const SEED: u64 = 0x5A3F_1E0D;
/// Samples per axis of `silicon_utilization`.
const UTIL_SAMPLES: usize = 200;
/// The P/G TSV grid's pitch (mm).
const PITCH_MM: f64 = 0.1;

/// A region as the test drew it: what the floorplan keeps private.
struct Drawn {
    rect: Rect,
    layer: Layer,
    watts: f64,
}

/// Sample `k` of `n` along an axis: the cell centre.
fn centre(origin: f64, extent: f64, k: usize, n: usize) -> f64 {
    origin + (k as f64 + 0.5) * extent / n as f64
}

/// Every cell's centre against every region, in region order.
fn density_reference(outline: &Rect, regions: &[Drawn], nx: usize, ny: usize) -> Vec<f64> {
    let mut grid = vec![0.0; nx * ny];
    for j in 0..ny {
        for i in 0..nx {
            let p = Point::new(
                centre(outline.origin.x, outline.w, i, nx),
                centre(outline.origin.y, outline.h, j, ny),
            );
            for r in regions {
                let area = r.rect.w * r.rect.h;
                if r.rect.contains(p) && area > 0.0 {
                    grid[j * nx + i] += r.watts / area;
                }
            }
        }
    }
    grid
}

/// Every point of the 200 × 200 grid against every IOD-or-above region.
fn utilization_reference(outline: &Rect, regions: &[Drawn]) -> f64 {
    let n = UTIL_SAMPLES;
    let mut covered = 0u32;
    for i in 0..n {
        for j in 0..n {
            let p = Point::new(
                centre(outline.origin.x, outline.w, i, n),
                centre(outline.origin.y, outline.h, j, n),
            );
            if regions
                .iter()
                .any(|r| r.layer >= Layer::Iod && r.rect.contains(p))
            {
                covered += 1;
            }
        }
    }
    f64::from(covered) / (n * n) as f64
}

/// Every TSV under every transform, in transform order.
fn symmetry_reference(w: f64, h: f64) -> Result<(), Transform> {
    let on_grid = |p: Point| {
        let fx = (p.x / PITCH_MM) - 0.5;
        let fy = (p.y / PITCH_MM) - 0.5;
        (fx - fx.round()).abs() < 1e-6 && (fy - fy.round()).abs() < 1e-6
    };
    let nx = (w / PITCH_MM).floor() as usize;
    let ny = (h / PITCH_MM).floor() as usize;
    for t in Transform::ALL {
        for i in 0..nx {
            for j in 0..ny {
                let p = Point::new((i as f64 + 0.5) * PITCH_MM, (j as f64 + 0.5) * PITCH_MM);
                if !on_grid(t.apply_point(p, w, h)) {
                    return Err(t);
                }
            }
        }
    }
    Ok(())
}

/// A random floorplan over a random outline, with regions on every
/// layer: free rectangles (overlapping across and within layers, some
/// sticking out of the outline), rectangles whose edges sit on sample
/// centres of the `nx × ny` grid or the utilisation grid, and zero-area
/// ones.
fn draw(rng: &mut SplitMix64, nx: usize, ny: usize) -> (Floorplan, Rect, Vec<Drawn>) {
    let mut uniform = |lo: f64, hi: f64| lo + (hi - lo) * rng.next_f64();
    let outline = Rect::new(
        uniform(-5.0, 5.0),
        uniform(-5.0, 5.0),
        uniform(4.0, 80.0),
        uniform(4.0, 80.0),
    );
    let layers = [
        Layer::Interposer,
        Layer::Iod,
        Layer::Phy,
        Layer::Compute,
        Layer::Hbm,
    ];
    let mut regions = Vec::new();
    for _ in 0..uniform(0.0, 14.0) as usize {
        let layer = layers[uniform(0.0, 5.0) as usize];
        // An interval along one axis of the outline.
        let mut interval = |origin: f64, extent: f64, n: usize| {
            let kind = uniform(0.0, 4.0) as usize;
            let grid = if uniform(0.0, 1.0) < 0.5 {
                n
            } else {
                UTIL_SAMPLES
            };
            let a = centre(origin, extent, uniform(0.0, grid as f64) as usize, grid);
            let b = centre(origin, extent, uniform(0.0, grid as f64) as usize, grid);
            match kind {
                // Both edges on sample centres.
                0 => (a.min(b), (a - b).abs()),
                // Zero extent on a sample centre.
                1 => (a, 0.0),
                // The low edge on a centre, the high one anywhere.
                2 => (a, uniform(0.0, 0.5) * extent),
                // Anywhere, up to half beyond the outline.
                _ => (
                    origin + uniform(-0.2, 1.0) * extent,
                    uniform(0.0, 0.7) * extent,
                ),
            }
        };
        let (x, w) = interval(outline.origin.x, outline.w, nx);
        let (y, h) = interval(outline.origin.y, outline.h, ny);
        let watts = uniform(0.0, 120.0);
        regions.push(Drawn {
            rect: Rect::new(x, y, w, h),
            layer,
            watts,
        });
    }
    let mut fp = Floorplan::new(outline);
    for (k, r) in regions.iter().enumerate() {
        // Fixed-width names: no name is a prefix of another.
        let name = format!("r{k:02}");
        fp.add(name.clone(), r.rect, r.layer);
        fp.assign_power(&name, Power::from_watts(r.watts));
    }
    (fp, outline, regions)
}

fn assert_same_grid(got: &[f64], want: &[f64], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: cells");
    for (k, (g, w)) in got.iter().zip(want).enumerate() {
        assert_eq!(g.to_bits(), w.to_bits(), "{what}: cell {k}: {g} vs {w}");
    }
}

#[test]
fn power_density_grid_matches_the_point_by_point_reference() {
    let mut rng = SplitMix64::new(SEED);
    for case in 0..96 {
        let fixed = [(70, 56), (35, 28), (1, 1), (1, 7), (7, 1)];
        let (nx, ny) = fixed.get(case).copied().unwrap_or_else(|| {
            (
                1 + (rng.next_f64() * 90.0) as usize,
                1 + (rng.next_f64() * 90.0) as usize,
            )
        });
        let (fp, outline, regions) = draw(&mut rng, nx, ny);
        assert_same_grid(
            &fp.power_density_grid(nx, ny),
            &density_reference(&outline, &regions, nx, ny),
            &format!("case {case} ({nx}x{ny}, {} regions)", regions.len()),
        );
    }
}

#[test]
fn power_density_grid_matches_on_the_product_floorplans() {
    for product in [Floorplan::mi300a(), Floorplan::ehpv4()] {
        // The product's regions, each with its own watts.
        let outline = *product.outline();
        let regions: Vec<Drawn> = product
            .regions_matching("")
            .enumerate()
            .map(|(k, r)| Drawn {
                rect: r.rect,
                layer: Layer::Compute,
                watts: 10.0 + k as f64,
            })
            .collect();
        let mut fp = Floorplan::new(outline);
        for (k, r) in regions.iter().enumerate() {
            let name = format!("r{k:02}");
            fp.add(name.clone(), r.rect, r.layer);
            fp.assign_power(&name, Power::from_watts(r.watts));
        }
        for (nx, ny) in [(70, 56), (35, 28), (140, 112)] {
            assert_same_grid(
                &fp.power_density_grid(nx, ny),
                &density_reference(&outline, &regions, nx, ny),
                &format!("{nx}x{ny}"),
            );
        }
    }
}

#[test]
fn silicon_utilization_matches_the_point_by_point_reference() {
    let mut rng = SplitMix64::new(SEED ^ 1);
    for case in 0..24 {
        let (fp, outline, regions) = draw(&mut rng, UTIL_SAMPLES, UTIL_SAMPLES);
        let (got, want) = (
            fp.silicon_utilization(),
            utilization_reference(&outline, &regions),
        );
        assert_eq!(
            got.to_bits(),
            want.to_bits(),
            "case {case}: {got} vs {want}"
        );
    }
}

#[test]
fn check_symmetry_matches_the_point_by_point_reference() {
    let mut rng = SplitMix64::new(SEED ^ 2);
    let mut dims = vec![(21.6, 17.1), (21.65, 17.1), (0.0, 0.0), (0.05, 3.0)];
    for _ in 0..80 {
        let mut dim = || {
            let pitches = rng.next_f64() * 120.0;
            match (rng.next_f64() * 4.0) as usize {
                // On the pitch, two ways of writing it.
                0 => pitches.floor() * PITCH_MM,
                1 => pitches.floor() / 10.0,
                // Under one pitch.
                2 => pitches / 1200.0,
                // Off the pitch.
                _ => pitches * PITCH_MM,
            }
        };
        dims.push((dim(), dim()));
    }
    for (w, h) in dims {
        assert_eq!(
            tsv::check_symmetry(w, h),
            symmetry_reference(w, h),
            "{w} x {h} mm"
        );
    }
}

//! The EHPv3 manufacturability audit (Section III.A).
//!
//! EHPv3 stacked four GPU chiplets on a >400 mm² active interposer and
//! HBM on top of the GPU chiplets. The paper lists why that could not be
//! productised in the Frontier timeframe: the number of additional
//! processing steps, the number of separate dies/stacks individually
//! handled and tested, die thinning + TSV construction for going beyond
//! a two-high stack, the larger overall structure, and heat dissipation
//! beyond contemporary cooling. This module prices those factors for any
//! stack description so EHPv3, V-Cache and MI300A can be compared with
//! the same yardstick.

/// One vertical level of a 3D assembly.
#[derive(Debug, Clone)]
pub(crate) struct StackLevel {
    /// Dies placed side by side at this level.
    pub(crate) dies: u32,
    /// Area of one die at this level (mm²).
    pub(crate) die_area_mm2: f64,
    /// Whether dies at this level need TSVs (anything with a die above
    /// it does).
    pub(crate) needs_tsvs: bool,
    /// Power dissipated at this level (W) for the thermal feasibility
    /// check.
    pub(crate) power_w: f64,
}

/// A 3D-stacked assembly to audit.
///
/// # Examples
///
/// ```
/// use ehp_package::ehpv3::{audit, StackedAssembly};
///
/// let v = audit(&StackedAssembly::ehpv3_complex());
/// assert!(v.beyond_two_high && v.exceeds_cooling);
/// ```
///
#[derive(Debug, Clone)]
pub struct StackedAssembly {
    /// Assembly name.
    pub(crate) name: &'static str,
    /// Levels, bottom-up (level 0 sits on the substrate/interposer).
    pub(crate) levels: Vec<StackLevel>,
    /// How many such complexes are co-packaged.
    pub(crate) complexes: u32,
    /// Whether DRAM sits at the top of the stack (tightens the junction
    /// temperature — and hence power-density — limit).
    pub(crate) dram_on_top: bool,
}

impl StackedAssembly {
    /// The V-Cache assembly: an SRAM chiplet (tens of mm²) on a CPU
    /// chiplet — the two-high stack AMD had matured in production.
    #[must_use]
    pub fn v_cache() -> StackedAssembly {
        StackedAssembly {
            name: "V-Cache",
            levels: vec![
                // CCD
                StackLevel {
                    dies: 1,
                    die_area_mm2: 71.0,
                    needs_tsvs: true,
                    power_w: 60.0,
                },
                // SRAM chiplet
                StackLevel {
                    dies: 1,
                    die_area_mm2: 41.0,
                    needs_tsvs: false,
                    power_w: 4.0,
                },
            ],
            complexes: 1,
            dram_on_top: false,
        }
    }

    /// The EHPv3 GPU complex: active interposer > 400 mm², four GPU
    /// chiplets (each >= an HBM footprint) stacked on it, and HBM stacked
    /// on top of each GPU chiplet — a three-high structure, two complexes
    /// per package.
    #[must_use]
    pub fn ehpv3_complex() -> StackedAssembly {
        StackedAssembly {
            name: "EHPv3 complex",
            levels: vec![
                // active interposer
                StackLevel {
                    dies: 1,
                    die_area_mm2: 440.0,
                    needs_tsvs: true,
                    power_w: 40.0,
                },
                // GPU chiplets
                StackLevel {
                    dies: 4,
                    die_area_mm2: 110.0,
                    needs_tsvs: true,
                    power_w: 240.0,
                },
                // HBM stacks
                StackLevel {
                    dies: 4,
                    die_area_mm2: 110.0,
                    needs_tsvs: false,
                    power_w: 40.0,
                },
            ],
            complexes: 2,
            dram_on_top: true,
        }
    }

    /// The MI300A organisation in the same terms: compute chiplets on
    /// active-interposer IODs (two-high compute stack; HBM beside, not on
    /// top).
    #[must_use]
    pub fn mi300a_complex() -> StackedAssembly {
        StackedAssembly {
            name: "MI300A complex",
            levels: vec![
                // IOD
                StackLevel {
                    dies: 1,
                    die_area_mm2: 370.0,
                    needs_tsvs: true,
                    power_w: 45.0,
                },
                // compute chiplets
                StackLevel {
                    dies: 3,
                    die_area_mm2: 110.0,
                    needs_tsvs: false,
                    power_w: 110.0,
                },
            ],
            complexes: 4,
            dram_on_top: false,
        }
    }

    /// Stack height in active-die levels.
    #[must_use]
    pub(crate) fn height(&self) -> usize {
        self.levels.len()
    }

    /// Total separate dies that must be individually handled and tested
    /// across the package.
    #[must_use]
    pub(crate) fn dies_handled(&self) -> u32 {
        self.levels.iter().map(|l| l.dies).sum::<u32>() * self.complexes
    }

    /// Bonding operations: each die above level 0 needs one bonding step.
    #[must_use]
    pub(crate) fn bonding_steps(&self) -> u32 {
        self.levels[1..].iter().map(|l| l.dies).sum::<u32>() * self.complexes
    }

    /// Dies requiring thinning + TSV construction.
    #[must_use]
    pub(crate) fn tsv_dies(&self) -> u32 {
        self.levels
            .iter()
            .filter(|l| l.needs_tsvs)
            .map(|l| l.dies)
            .sum::<u32>()
            * self.complexes
    }

    /// `true` if any die in the stack has active silicon more than two
    /// levels deep — "going beyond a two-high stack", which needed
    /// process maturation AMD did not yet have in the Frontier window.
    #[must_use]
    pub(crate) fn beyond_two_high(&self) -> bool {
        self.height() > 2
    }

    /// Areal power density through the top of the stack (W/mm²): all
    /// levels' power must exit vertically; structural silicon spreads it
    /// over the stack's largest footprint.
    #[must_use]
    pub(crate) fn vertical_power_density(&self) -> f64 {
        let max_area = self
            .levels
            .iter()
            .map(|l| f64::from(l.dies) * l.die_area_mm2)
            .fold(0.0f64, f64::max);
        let total_power: f64 = self.levels.iter().map(|l| l.power_w).sum();
        total_power / max_area
    }

    /// The coolable-density limit applicable to this stack: DRAM on top
    /// of hot logic constrains the junction temperature far more than a
    /// logic/SRAM top level does.
    #[must_use]
    pub(crate) fn cooling_limit(&self) -> f64 {
        if self.dram_on_top {
            DRAM_TOP_COOLING_LIMIT_W_MM2
        } else {
            LOGIC_TOP_COOLING_LIMIT_W_MM2
        }
    }

    /// A relative assembly-complexity score: bonding steps + TSV dies +
    /// a penalty per level beyond two. Unitless; meaningful only for
    /// comparisons.
    #[must_use]
    pub(crate) fn complexity_score(&self) -> u32 {
        let beyond = (self.height().saturating_sub(2)) as u32 * 8 * self.complexes;
        self.bonding_steps() + self.tsv_dies() + beyond
    }
}

/// The Section III.A verdict for an assembly against a cooling limit.
#[derive(Debug, Clone)]
pub struct Ehpv3Verdict {
    /// Assembly audited.
    pub name: &'static str,
    /// Dies handled/tested.
    pub dies_handled: u32,
    /// Bonding steps.
    pub bonding_steps: u32,
    /// Beyond two-high?
    pub beyond_two_high: bool,
    /// W/mm² that must cross the top of the stack.
    pub power_density: f64,
    /// Whether the density exceeds the cooling capability.
    pub exceeds_cooling: bool,
    /// Complexity score.
    pub complexity: u32,
}

/// Frontier-era coolable density when DRAM tops the stack (W/mm²):
/// the HBM junction limit dominates.
pub(crate) const DRAM_TOP_COOLING_LIMIT_W_MM2: f64 = 0.55;

/// Frontier-era coolable density with logic/SRAM on top (W/mm²).
pub(crate) const LOGIC_TOP_COOLING_LIMIT_W_MM2: f64 = 1.8;

/// Audits an assembly.
#[must_use]
pub fn audit(a: &StackedAssembly) -> Ehpv3Verdict {
    let density = a.vertical_power_density();
    Ehpv3Verdict {
        name: a.name,
        dies_handled: a.dies_handled(),
        bonding_steps: a.bonding_steps(),
        beyond_two_high: a.beyond_two_high(),
        power_density: density,
        exceeds_cooling: density > a.cooling_limit(),
        complexity: a.complexity_score(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn v_cache_is_the_matured_baseline() {
        let v = audit(&StackedAssembly::v_cache());
        assert_eq!(v.dies_handled, 2);
        assert_eq!(v.bonding_steps, 1);
        assert!(!v.beyond_two_high);
        assert!(!v.exceeds_cooling);
    }

    #[test]
    fn ehpv3_handles_far_more_dies_than_v_cache() {
        let e = audit(&StackedAssembly::ehpv3_complex());
        let v = audit(&StackedAssembly::v_cache());
        assert!(
            e.dies_handled >= 8 * v.dies_handled,
            "EHPv3 {} vs V-Cache {}",
            e.dies_handled,
            v.dies_handled
        );
        assert!(e.bonding_steps > 10 * v.bonding_steps);
    }

    #[test]
    fn ehpv3_goes_beyond_two_high() {
        assert!(StackedAssembly::ehpv3_complex().beyond_two_high());
        assert!(!StackedAssembly::mi300a_complex().beyond_two_high());
        assert!(!StackedAssembly::v_cache().beyond_two_high());
    }

    #[test]
    fn ehpv3_interposer_exceeds_reticle_class() {
        // "an active interposer die that would have to be over 400 mm²"
        // — the paper's point is size, not strictly reticle violation.
        let e = StackedAssembly::ehpv3_complex();
        assert!(e.levels[0].die_area_mm2 > 400.0);
    }

    #[test]
    fn ehpv3_heat_exceeds_frontier_era_cooling() {
        // "The heat dissipation through this 3D structure would have also
        // exceeded contemporary cooling capabilities."
        let e = audit(&StackedAssembly::ehpv3_complex());
        assert!(
            e.exceeds_cooling,
            "EHPv3 density {:.2} W/mm² should exceed the {} limit",
            e.power_density, DRAM_TOP_COOLING_LIMIT_W_MM2
        );
    }

    #[test]
    fn mi300a_stays_coolable() {
        let m = audit(&StackedAssembly::mi300a_complex());
        assert!(
            !m.exceeds_cooling,
            "MI300A density {:.2} W/mm² must be coolable",
            m.power_density
        );
    }

    #[test]
    fn complexity_ordering_v_cache_mi300_ehpv3() {
        let v = StackedAssembly::v_cache().complexity_score();
        let m = StackedAssembly::mi300a_complex().complexity_score();
        let e = StackedAssembly::ehpv3_complex().complexity_score();
        assert!(v < m, "V-Cache ({v}) simpler than MI300A ({m})");
        assert!(m < e, "MI300A ({m}) simpler than EHPv3 ({e})");
    }

    #[test]
    fn tsv_dies_counted() {
        // EHPv3: interposer + 4 GPU chiplets per complex need TSVs, x2.
        assert_eq!(StackedAssembly::ehpv3_complex().tsv_dies(), 10);
        // MI300A: only the IODs, x4.
        assert_eq!(StackedAssembly::mi300a_complex().tsv_dies(), 4);
    }
}

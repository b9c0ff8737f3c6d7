//! Dynamic voltage/frequency scaling: mapping a power allocation to an
//! achievable clock.
//!
//! Dynamic power follows `P = C·V²·f` with voltage roughly linear in
//! frequency over the operating range, so `P ≈ k·f³ + P_static`. The
//! inverse of that cubic tells the power manager what clock a chiplet can
//! sustain for a given share of the budget — the mechanism behind the
//! compute↔memory power shifting paying off in performance.

use ehp_sim_core::time::Frequency;
use ehp_sim_core::units::Power;

/// A cubic-law DVFS curve for one chiplet class.
///
/// # Example
///
/// ```
/// use ehp_power::dvfs::DvfsCurve;
/// use ehp_sim_core::time::Frequency;
/// use ehp_sim_core::units::Power;
///
/// let xcd = DvfsCurve::mi300_xcd();
/// let p = xcd.power_at(Frequency::from_ghz(2.1));
/// let f = xcd.clock_for(p);
/// assert!((f.as_ghz() - 2.1).abs() < 0.01);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct DvfsCurve {
    /// Static (leakage + always-on) power.
    static_power: Power,
    /// Dynamic power at the nominal clock.
    dynamic_at_nominal: Power,
    /// Nominal clock.
    nominal: Frequency,
    /// Maximum boost clock.
    fmax: Frequency,
    /// Minimum operating clock.
    fmin: Frequency,
}

impl DvfsCurve {
    /// One MI300 XCD: ~50 W nominal dynamic at 2.1 GHz plus 6 W static
    /// (6 XCDs ≈ 330 W of the compute allocation), clocked 0.8–2.5 GHz.
    #[must_use]
    pub fn mi300_xcd() -> DvfsCurve {
        DvfsCurve {
            static_power: Power::from_watts(6.0),
            dynamic_at_nominal: Power::from_watts(50.0),
            nominal: Frequency::from_ghz(2.1),
            fmax: Frequency::from_ghz(2.5),
            fmin: Frequency::from_ghz(0.8),
        }
    }

    /// Power drawn at clock `f` (cubic dynamic + static).
    #[must_use]
    pub fn power_at(&self, f: Frequency) -> Power {
        let ratio = f.as_hz() / self.nominal.as_hz();
        self.static_power + self.dynamic_at_nominal.scale(ratio.powi(3))
    }

    /// Highest sustainable clock within `budget`, clamped to
    /// `[fmin, fmax]`. A budget below even `fmin`'s draw still returns
    /// `fmin` (the part cannot run slower; the manager must find the
    /// power elsewhere or throttle duty-cycle, which this model folds
    /// into `fmin`).
    #[must_use]
    pub fn clock_for(&self, budget: Power) -> Frequency {
        let dynamic_budget = budget.saturating_sub(self.static_power).as_watts();
        let nominal_dyn = self.dynamic_at_nominal.as_watts();
        let ratio = (dynamic_budget / nominal_dyn).cbrt();
        let hz = (self.nominal.as_hz() * ratio).clamp(self.fmin.as_hz(), self.fmax.as_hz());
        Frequency::from_hz(hz)
    }

    /// Performance scaling factor (clock ratio vs nominal) for a budget.
    #[must_use]
    pub fn perf_factor(&self, budget: Power) -> f64 {
        self.clock_for(budget).as_hz() / self.nominal.as_hz()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_nominal() {
        let c = DvfsCurve::mi300_xcd();
        let p = c.power_at(c.nominal);
        assert!((p.as_watts() - 56.0).abs() < 1e-9);
        assert!((c.clock_for(p).as_ghz() - 2.1).abs() < 1e-6);
    }

    #[test]
    fn cubic_scaling() {
        let c = DvfsCurve::mi300_xcd();
        let p_half = c.power_at(Frequency::from_ghz(1.05));
        // Half clock: dynamic drops to 1/8.
        assert!((p_half.as_watts() - (6.0 + 50.0 / 8.0)).abs() < 1e-9);
    }

    #[test]
    fn clock_clamped_at_fmax() {
        let c = DvfsCurve::mi300_xcd();
        let f = c.clock_for(Power::from_watts(10_000.0));
        assert_eq!(f.as_ghz(), c.fmax.as_ghz());
    }

    #[test]
    fn clock_clamped_at_fmin() {
        let c = DvfsCurve::mi300_xcd();
        let f = c.clock_for(Power::from_watts(1.0));
        assert_eq!(f.as_ghz(), c.fmin.as_ghz());
    }

    #[test]
    fn more_power_more_clock() {
        let c = DvfsCurve::mi300_xcd();
        let f40 = c.clock_for(Power::from_watts(40.0));
        let f56 = c.clock_for(Power::from_watts(56.0));
        let f70 = c.clock_for(Power::from_watts(70.0));
        assert!(f40.as_hz() < f56.as_hz());
        assert!(f56.as_hz() < f70.as_hz());
    }

    #[test]
    fn perf_factor_at_nominal_is_one() {
        let c = DvfsCurve::mi300_xcd();
        let p = c.power_at(Frequency::from_ghz(2.1));
        assert!((c.perf_factor(p) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn power_shift_buys_measurable_performance() {
        // The Fig. 12 story: moving 60 W from memory to six XCDs in a
        // compute phase should raise the achievable clock meaningfully.
        let c = DvfsCurve::mi300_xcd();
        let per_xcd_before = Power::from_watts(45.0);
        let per_xcd_after = Power::from_watts(55.0);
        let gain = c.perf_factor(per_xcd_after) / c.perf_factor(per_xcd_before);
        assert!(gain > 1.05, "10 W per XCD should buy >5% clock, got {gain}");
    }
}

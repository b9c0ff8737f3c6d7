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

// The cubic-law DVFS curve of one MI300 XCD: ~50 W nominal dynamic at
// 2.1 GHz plus 6 W static (6 XCDs ≈ 330 W of the compute allocation),
// clocked 0.8–2.5 GHz.

/// Static (leakage + always-on) power, in watts.
const STATIC_W: f64 = 6.0;
/// Dynamic power at the nominal clock, in watts.
const DYNAMIC_AT_NOMINAL_W: f64 = 50.0;
/// Nominal clock, in GHz.
const NOMINAL_GHZ: f64 = 2.1;
/// Maximum boost clock, in GHz.
const FMAX_GHZ: f64 = 2.5;
/// Minimum operating clock, in GHz.
const FMIN_GHZ: f64 = 0.8;

/// Power one XCD draws at clock `f` (cubic dynamic + static).
///
/// # Example
///
/// ```
/// use ehp_power::dvfs::{clock_for, power_at};
/// use ehp_sim_core::time::Frequency;
///
/// let p = power_at(Frequency::from_ghz(2.1));
/// let f = clock_for(p);
/// assert!((f.as_ghz() - 2.1).abs() < 0.01);
/// ```
#[must_use]
pub fn power_at(f: Frequency) -> Power {
    let ratio = f.as_hz() / Frequency::from_ghz(NOMINAL_GHZ).as_hz();
    Power::from_watts(STATIC_W) + Power::from_watts(DYNAMIC_AT_NOMINAL_W).scale(ratio.powi(3))
}

/// Highest clock one XCD sustains within `budget`, clamped to
/// `[FMIN_GHZ, FMAX_GHZ]`. A budget below even the minimum clock's draw
/// still returns that clock (the part cannot run slower; the manager
/// must find the power elsewhere or throttle duty-cycle, which this
/// model folds into the minimum).
#[must_use]
pub fn clock_for(budget: Power) -> Frequency {
    let dynamic_budget = budget
        .saturating_sub(Power::from_watts(STATIC_W))
        .as_watts();
    let nominal_dyn = Power::from_watts(DYNAMIC_AT_NOMINAL_W).as_watts();
    let ratio = (dynamic_budget / nominal_dyn).cbrt();
    let hz = (Frequency::from_ghz(NOMINAL_GHZ).as_hz() * ratio).clamp(
        Frequency::from_ghz(FMIN_GHZ).as_hz(),
        Frequency::from_ghz(FMAX_GHZ).as_hz(),
    );
    Frequency::from_hz(hz)
}

/// Performance scaling factor (clock ratio vs nominal) for a budget.
#[must_use]
pub fn perf_factor(budget: Power) -> f64 {
    clock_for(budget).as_hz() / Frequency::from_ghz(NOMINAL_GHZ).as_hz()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_nominal() {
        let p = power_at(Frequency::from_ghz(NOMINAL_GHZ));
        assert!((p.as_watts() - 56.0).abs() < 1e-9);
        assert!((clock_for(p).as_ghz() - 2.1).abs() < 1e-6);
    }

    #[test]
    fn cubic_scaling() {
        let p_half = power_at(Frequency::from_ghz(1.05));
        // Half clock: dynamic drops to 1/8.
        assert!((p_half.as_watts() - (6.0 + 50.0 / 8.0)).abs() < 1e-9);
    }

    #[test]
    fn clock_clamped_at_fmax() {
        let f = clock_for(Power::from_watts(10_000.0));
        assert_eq!(f.as_ghz(), Frequency::from_ghz(FMAX_GHZ).as_ghz());
    }

    #[test]
    fn clock_clamped_at_fmin() {
        let f = clock_for(Power::from_watts(1.0));
        assert_eq!(f.as_ghz(), Frequency::from_ghz(FMIN_GHZ).as_ghz());
    }

    #[test]
    fn more_power_more_clock() {
        let f40 = clock_for(Power::from_watts(40.0));
        let f56 = clock_for(Power::from_watts(56.0));
        let f70 = clock_for(Power::from_watts(70.0));
        assert!(f40.as_hz() < f56.as_hz());
        assert!(f56.as_hz() < f70.as_hz());
    }

    #[test]
    fn perf_factor_at_nominal_is_one() {
        let p = power_at(Frequency::from_ghz(2.1));
        assert!((perf_factor(p) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn power_shift_buys_measurable_performance() {
        // The Fig. 12 story: moving 60 W from memory to six XCDs in a
        // compute phase should raise the achievable clock meaningfully.
        let per_xcd_before = Power::from_watts(45.0);
        let per_xcd_after = Power::from_watts(55.0);
        let gain = perf_factor(per_xcd_after) / perf_factor(per_xcd_before);
        assert!(gain > 1.05, "10 W per XCD should buy >5% clock, got {gain}");
    }
}

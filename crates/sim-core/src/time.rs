//! Simulated time: cycles, wall-clock time, and clock frequencies.
//!
//! The simulator's native unit is the [`Cycle`] of a reference clock.
//! Clock rates are [`Frequency`] values, and figures that report
//! seconds convert through [`SimTime`] (picosecond resolution, stored
//! as `u64`).

use core::fmt;
use core::iter::Sum;
use core::ops::{Add, AddAssign, Div, Mul, Sub};

/// A point (or span) in simulated time measured in reference-clock cycles.
///
/// `Cycle` is ordered and adds without saturating: overflow in a
/// simulation would indicate a run of ~10^19 cycles, far beyond any
/// experiment in this project, so plain `+` is used.
///
/// # Example
///
/// ```
/// use ehp_sim_core::time::Cycle;
/// let a = Cycle(100);
/// assert_eq!(a + Cycle(20), Cycle(120));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Cycle(pub u64);

impl Cycle {
    /// The zero point of simulated time.
    pub const ZERO: Cycle = Cycle(0);

    /// Returns the maximum of two cycle counts.
    #[must_use]
    pub(crate) fn max(self, other: Cycle) -> Cycle {
        Cycle(self.0.max(other.0))
    }

    /// Saturating subtraction: returns `Cycle(0)` instead of underflowing.
    #[must_use]
    pub fn saturating_sub(self, other: Cycle) -> Cycle {
        Cycle(self.0.saturating_sub(other.0))
    }
}

impl Add for Cycle {
    type Output = Cycle;
    fn add(self, rhs: Cycle) -> Cycle {
        Cycle(self.0 + rhs.0)
    }
}

impl fmt::Display for Cycle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} cyc", self.0)
    }
}

/// Wall-clock simulated time with picosecond resolution.
///
/// # Example
///
/// ```
/// use ehp_sim_core::time::SimTime;
/// let t = SimTime::from_nanos(2);
/// assert_eq!(t.as_picos(), 2_000);
/// assert!((t.as_secs() - 2e-9).abs() < 1e-18);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime {
    picos: u64,
}

impl SimTime {
    /// The time origin.
    pub const ZERO: SimTime = SimTime { picos: 0 };

    /// Constructs a time from picoseconds.
    #[inline]
    #[must_use]
    pub fn from_picos(picos: u64) -> SimTime {
        SimTime { picos }
    }

    /// Constructs a time from nanoseconds.
    #[inline]
    #[must_use]
    pub fn from_nanos(nanos: u64) -> SimTime {
        SimTime {
            picos: nanos * 1_000,
        }
    }

    /// Constructs a time from microseconds.
    #[must_use]
    pub fn from_micros(micros: u64) -> SimTime {
        SimTime {
            picos: micros * 1_000_000,
        }
    }

    /// Constructs a time from (possibly fractional) seconds.
    ///
    /// # Panics
    ///
    /// Panics if `secs` is negative or not finite.
    #[must_use]
    pub fn from_secs_f64(secs: f64) -> SimTime {
        assert!(secs.is_finite() && secs >= 0.0, "invalid time: {secs}");
        SimTime {
            picos: (secs * 1e12).round() as u64,
        }
    }

    /// Time in picoseconds.
    #[inline]
    #[must_use]
    pub fn as_picos(self) -> u64 {
        self.picos
    }

    /// Time in (fractional) nanoseconds.
    #[inline]
    #[must_use]
    pub fn as_nanos_f64(self) -> f64 {
        self.picos as f64 / 1e3
    }

    /// Time in (fractional) microseconds.
    #[must_use]
    pub fn as_micros_f64(self) -> f64 {
        self.picos as f64 / 1e6
    }

    /// Time in (fractional) milliseconds.
    #[must_use]
    pub fn as_millis_f64(self) -> f64 {
        self.picos as f64 / 1e9
    }

    /// Time in (fractional) seconds.
    #[must_use]
    pub fn as_secs(self) -> f64 {
        self.picos as f64 / 1e12
    }

    /// Saturating subtraction.
    #[must_use]
    pub fn saturating_sub(self, other: SimTime) -> SimTime {
        SimTime {
            picos: self.picos.saturating_sub(other.picos),
        }
    }
}

impl Add for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, rhs: SimTime) -> SimTime {
        SimTime {
            picos: self.picos + rhs.picos,
        }
    }
}

impl AddAssign for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: SimTime) {
        self.picos += rhs.picos;
    }
}

impl Sub for SimTime {
    type Output = SimTime;
    #[inline]
    fn sub(self, rhs: SimTime) -> SimTime {
        SimTime {
            picos: self.picos - rhs.picos,
        }
    }
}

impl Mul<u64> for SimTime {
    type Output = SimTime;
    #[inline]
    fn mul(self, rhs: u64) -> SimTime {
        SimTime {
            picos: self.picos * rhs,
        }
    }
}

impl Div<u64> for SimTime {
    type Output = SimTime;
    fn div(self, rhs: u64) -> SimTime {
        SimTime {
            picos: self.picos / rhs,
        }
    }
}

impl Sum for SimTime {
    fn sum<I: Iterator<Item = SimTime>>(iter: I) -> SimTime {
        SimTime {
            picos: iter.map(|t| t.picos).sum(),
        }
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.picos >= 1_000_000_000_000 {
            write!(f, "{:.3} s", self.as_secs())
        } else if self.picos >= 1_000_000_000 {
            write!(f, "{:.3} ms", self.as_millis_f64())
        } else if self.picos >= 1_000_000 {
            write!(f, "{:.3} us", self.as_micros_f64())
        } else {
            write!(f, "{:.3} ns", self.as_nanos_f64())
        }
    }
}

/// A clock frequency in hertz.
///
/// # Example
///
/// ```
/// use ehp_sim_core::time::Frequency;
/// let f = Frequency::from_ghz(2.0);
/// assert_eq!(f.as_hz(), 2e9);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd)]
pub struct Frequency {
    hz: f64,
}

impl Frequency {
    /// Constructs a frequency from hertz.
    ///
    /// # Panics
    ///
    /// Panics if `hz` is not strictly positive and finite.
    #[must_use]
    pub fn from_hz(hz: f64) -> Frequency {
        assert!(hz.is_finite() && hz > 0.0, "invalid frequency: {hz}");
        Frequency { hz }
    }

    /// Constructs a frequency from gigahertz.
    #[must_use]
    pub fn from_ghz(ghz: f64) -> Frequency {
        Frequency::from_hz(ghz * 1e9)
    }

    /// Frequency in hertz.
    #[must_use]
    pub fn as_hz(self) -> f64 {
        self.hz
    }

    /// Frequency in gigahertz.
    #[must_use]
    pub fn as_ghz(self) -> f64 {
        self.hz / 1e9
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cycle_arithmetic() {
        let a = Cycle(10);
        let b = Cycle(4);
        assert_eq!(a + b, Cycle(14));
        assert_eq!(b.saturating_sub(a), Cycle::ZERO);
        assert_eq!(a.max(b), a);
    }

    #[test]
    fn cycle_sum_and_display() {
        let total = Cycle(1) + Cycle(2) + Cycle(3);
        assert_eq!(total, Cycle(6));
        assert_eq!(format!("{total}"), "6 cyc");
    }

    #[test]
    fn simtime_conversions() {
        let t = SimTime::from_micros(3);
        assert_eq!(t.as_picos(), 3_000_000);
        assert!((t.as_nanos_f64() - 3_000.0).abs() < 1e-9);
        assert!((t.as_secs() - 3e-6).abs() < 1e-18);
    }

    #[test]
    fn simtime_arithmetic() {
        let a = SimTime::from_nanos(10);
        let b = SimTime::from_nanos(4);
        assert_eq!((a + b).as_picos(), 14_000);
        assert_eq!((a - b).as_picos(), 6_000);
        assert_eq!((a * 2).as_picos(), 20_000);
        assert_eq!((a / 2).as_picos(), 5_000);
        assert_eq!(b.saturating_sub(a), SimTime::ZERO);
    }

    #[test]
    fn simtime_display_scales() {
        assert_eq!(format!("{}", SimTime::from_picos(500)), "0.500 ns");
        assert_eq!(format!("{}", SimTime::from_nanos(1_500)), "1.500 us");
        assert_eq!(format!("{}", SimTime::from_micros(2_500)), "2.500 ms");
        assert_eq!(format!("{}", SimTime::from_secs_f64(1.25)), "1.250 s");
    }

    #[test]
    #[should_panic(expected = "invalid frequency")]
    fn frequency_rejects_zero() {
        let _ = Frequency::from_hz(0.0);
    }

    #[test]
    #[should_panic(expected = "invalid time")]
    fn simtime_rejects_negative() {
        let _ = SimTime::from_secs_f64(-1.0);
    }
}

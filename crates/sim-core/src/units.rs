//! Physical-quantity newtypes: bytes, bandwidth, energy, power, and
//! temperature.
//!
//! These exist to make unit errors a compile-time problem ([C-NEWTYPE]):
//! a `Bandwidth` cannot be accidentally added to an `Energy`, and the
//! dimensional products that *are* meaningful (`Bytes ÷ Bandwidth =
//! time`) are provided as explicit methods.

use core::fmt;
use core::iter::Sum;
use core::ops::{Add, AddAssign, Div, Mul, Sub};

use crate::time::SimTime;

/// A data size in bytes.
///
/// # Example
///
/// ```
/// use ehp_sim_core::units::Bytes;
/// let b = Bytes::from_gib(2);
/// assert_eq!(b.as_u64(), 2 * 1024 * 1024 * 1024);
/// assert_eq!(Bytes::from_kib(4).as_u64(), 4096);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Bytes(pub u64);

impl Bytes {
    /// Zero bytes.
    pub const ZERO: Bytes = Bytes(0);

    /// Constructs from kibibytes (1024 B).
    #[must_use]
    pub fn from_kib(kib: u64) -> Bytes {
        Bytes(kib << 10)
    }

    /// Constructs from mebibytes (1024 KiB).
    #[must_use]
    pub fn from_mib(mib: u64) -> Bytes {
        Bytes(mib << 20)
    }

    /// Constructs from gibibytes (1024 MiB).
    #[must_use]
    pub fn from_gib(gib: u64) -> Bytes {
        Bytes(gib << 30)
    }

    /// Raw byte count.
    #[inline]
    #[must_use]
    pub fn as_u64(self) -> u64 {
        self.0
    }

    /// Byte count as `f64`.
    #[inline]
    #[must_use]
    pub fn as_f64(self) -> f64 {
        self.0 as f64
    }

    /// Size in (fractional) gibibytes.
    #[must_use]
    pub fn as_gib_f64(self) -> f64 {
        self.0 as f64 / (1u64 << 30) as f64
    }
}

impl Add for Bytes {
    type Output = Bytes;
    #[inline]
    fn add(self, rhs: Bytes) -> Bytes {
        Bytes(self.0 + rhs.0)
    }
}

impl AddAssign for Bytes {
    #[inline]
    fn add_assign(&mut self, rhs: Bytes) {
        self.0 += rhs.0;
    }
}

impl Mul<u64> for Bytes {
    type Output = Bytes;
    #[inline]
    fn mul(self, rhs: u64) -> Bytes {
        Bytes(self.0 * rhs)
    }
}

impl Div<u64> for Bytes {
    type Output = Bytes;
    fn div(self, rhs: u64) -> Bytes {
        Bytes(self.0 / rhs)
    }
}

impl Sum for Bytes {
    fn sum<I: Iterator<Item = Bytes>>(iter: I) -> Bytes {
        Bytes(iter.map(|b| b.0).sum())
    }
}

impl fmt::Display for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1 << 30 {
            write!(f, "{:.2} GiB", self.as_gib_f64())
        } else if self.0 >= 1 << 20 {
            write!(f, "{:.2} MiB", self.0 as f64 / (1 << 20) as f64)
        } else if self.0 >= 1 << 10 {
            write!(f, "{:.2} KiB", self.0 as f64 / 1024.0)
        } else {
            write!(f, "{} B", self.0)
        }
    }
}

/// A data-transfer rate in bytes per second.
///
/// # Example
///
/// ```
/// use ehp_sim_core::units::{Bandwidth, Bytes};
/// let hbm = Bandwidth::from_tb_s(5.3);
/// let t = hbm.transfer_time(Bytes::from_gib(1));
/// assert!((t.as_micros_f64() - 202.6).abs() < 1.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Bandwidth {
    bytes_per_sec: f64,
}

impl Bandwidth {
    /// Zero bandwidth (a disconnected link).
    pub const ZERO: Bandwidth = Bandwidth { bytes_per_sec: 0.0 };

    /// Constructs from bytes per second.
    ///
    /// # Panics
    ///
    /// Panics if `bps` is negative or not finite.
    #[must_use]
    pub fn from_bytes_per_sec(bps: f64) -> Bandwidth {
        assert!(bps.is_finite() && bps >= 0.0, "invalid bandwidth: {bps}");
        Bandwidth { bytes_per_sec: bps }
    }

    /// Constructs from gigabytes (10^9 B) per second.
    #[must_use]
    pub fn from_gb_s(gb_s: f64) -> Bandwidth {
        Bandwidth::from_bytes_per_sec(gb_s * 1e9)
    }

    /// Constructs from terabytes (10^12 B) per second.
    #[must_use]
    pub fn from_tb_s(tb_s: f64) -> Bandwidth {
        Bandwidth::from_bytes_per_sec(tb_s * 1e12)
    }

    /// Rate in bytes per second.
    #[must_use]
    pub fn as_bytes_per_sec(self) -> f64 {
        self.bytes_per_sec
    }

    /// Rate in gigabytes per second.
    #[must_use]
    pub fn as_gb_s(self) -> f64 {
        self.bytes_per_sec / 1e9
    }

    /// Rate in terabytes per second.
    #[must_use]
    pub fn as_tb_s(self) -> f64 {
        self.bytes_per_sec / 1e12
    }

    /// Time to transfer `size` at this rate.
    ///
    /// # Panics
    ///
    /// Panics if the bandwidth is zero and `size` is non-zero (a transfer
    /// over a disconnected link never completes).
    #[must_use]
    pub fn transfer_time(self, size: Bytes) -> SimTime {
        if size == Bytes::ZERO {
            return SimTime::ZERO;
        }
        assert!(
            self.bytes_per_sec > 0.0,
            "transfer of {size} over zero-bandwidth link"
        );
        SimTime::from_secs_f64(size.as_f64() / self.bytes_per_sec)
    }

    /// Scales the bandwidth by a dimensionless factor.
    ///
    /// # Panics
    ///
    /// Panics if `factor` is negative or not finite.
    #[must_use]
    pub fn scale(self, factor: f64) -> Bandwidth {
        Bandwidth::from_bytes_per_sec(self.bytes_per_sec * factor)
    }
}

impl Add for Bandwidth {
    type Output = Bandwidth;
    fn add(self, rhs: Bandwidth) -> Bandwidth {
        Bandwidth {
            bytes_per_sec: self.bytes_per_sec + rhs.bytes_per_sec,
        }
    }
}

impl Sum for Bandwidth {
    fn sum<I: Iterator<Item = Bandwidth>>(iter: I) -> Bandwidth {
        iter.fold(Bandwidth::ZERO, |a, b| a + b)
    }
}

impl fmt::Display for Bandwidth {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.bytes_per_sec >= 1e12 {
            write!(f, "{:.2} TB/s", self.as_tb_s())
        } else {
            write!(f, "{:.2} GB/s", self.as_gb_s())
        }
    }
}

/// An energy amount in joules.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Energy {
    joules: f64,
}

impl Energy {
    /// Zero energy.
    pub const ZERO: Energy = Energy { joules: 0.0 };

    /// Constructs from joules.
    ///
    /// # Panics
    ///
    /// Panics if `joules` is negative or not finite.
    #[inline]
    #[must_use]
    pub(crate) fn from_joules(joules: f64) -> Energy {
        assert!(
            joules.is_finite() && joules >= 0.0,
            "invalid energy: {joules}"
        );
        Energy { joules }
    }

    /// Constructs from picojoules (the natural unit for per-bit transport
    /// energy).
    #[must_use]
    pub fn from_picojoules(pj: f64) -> Energy {
        Energy::from_joules(pj * 1e-12)
    }

    /// Energy in joules.
    #[must_use]
    pub fn as_joules(self) -> f64 {
        self.joules
    }

    /// Energy in picojoules.
    #[must_use]
    pub fn as_picojoules(self) -> f64 {
        self.joules * 1e12
    }

    /// Scales the energy by a dimensionless factor (e.g. a byte count).
    #[inline]
    #[must_use]
    pub fn scale(self, factor: f64) -> Energy {
        Energy::from_joules(self.joules * factor)
    }
}

impl Add for Energy {
    type Output = Energy;
    #[inline]
    fn add(self, rhs: Energy) -> Energy {
        Energy {
            joules: self.joules + rhs.joules,
        }
    }
}

impl AddAssign for Energy {
    #[inline]
    fn add_assign(&mut self, rhs: Energy) {
        self.joules += rhs.joules;
    }
}

impl Sub for Energy {
    type Output = Energy;
    fn sub(self, rhs: Energy) -> Energy {
        Energy::from_joules(self.joules - rhs.joules)
    }
}

impl Sum for Energy {
    fn sum<I: Iterator<Item = Energy>>(iter: I) -> Energy {
        iter.fold(Energy::ZERO, |a, b| a + b)
    }
}

impl fmt::Display for Energy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.joules >= 1.0 {
            write!(f, "{:.3} J", self.joules)
        } else if self.joules >= 1e-3 {
            write!(f, "{:.3} mJ", self.joules * 1e3)
        } else if self.joules >= 1e-6 {
            write!(f, "{:.3} uJ", self.joules * 1e6)
        } else {
            write!(f, "{:.3} nJ", self.joules * 1e9)
        }
    }
}

/// A power draw in watts.
///
/// # Example
///
/// ```
/// use ehp_sim_core::units::Power;
/// let p = Power::from_watts(550.0); // MI300A TDP
/// assert_eq!(p.scale(0.5).as_watts(), 275.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Power {
    watts: f64,
}

impl Power {
    /// Zero power.
    pub const ZERO: Power = Power { watts: 0.0 };

    /// Constructs from watts.
    ///
    /// # Panics
    ///
    /// Panics if `watts` is negative or not finite.
    #[must_use]
    pub fn from_watts(watts: f64) -> Power {
        assert!(watts.is_finite() && watts >= 0.0, "invalid power: {watts}");
        Power { watts }
    }

    /// Power in watts.
    #[must_use]
    pub fn as_watts(self) -> f64 {
        self.watts
    }

    /// Scales the power by a dimensionless factor.
    #[must_use]
    pub fn scale(self, factor: f64) -> Power {
        Power::from_watts(self.watts * factor)
    }

    /// Saturating subtraction: clamps at zero.
    #[must_use]
    pub fn saturating_sub(self, other: Power) -> Power {
        Power {
            watts: (self.watts - other.watts).max(0.0),
        }
    }

    /// Returns the minimum of two powers.
    #[must_use]
    pub fn min(self, other: Power) -> Power {
        Power {
            watts: self.watts.min(other.watts),
        }
    }
}

impl Add for Power {
    type Output = Power;
    fn add(self, rhs: Power) -> Power {
        Power {
            watts: self.watts + rhs.watts,
        }
    }
}

impl Sub for Power {
    type Output = Power;
    fn sub(self, rhs: Power) -> Power {
        Power::from_watts(self.watts - rhs.watts)
    }
}

impl Sum for Power {
    fn sum<I: Iterator<Item = Power>>(iter: I) -> Power {
        iter.fold(Power::ZERO, |a, b| a + b)
    }
}

impl fmt::Display for Power {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.2} W", self.watts)
    }
}

/// A temperature in degrees Celsius (the thermal solver's unit).
#[derive(Debug, Clone, Copy, Default)]
pub struct Celsius(pub f64);

impl Celsius {
    /// Temperature value in °C.
    #[must_use]
    pub fn as_f64(self) -> f64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bytes_constructors() {
        assert_eq!(Bytes::from_kib(1).as_u64(), 1024);
        assert_eq!(Bytes::from_mib(2).as_u64(), 2 << 20);
        assert_eq!(Bytes::from_gib(128).as_u64(), 128u64 << 30);
    }

    #[test]
    fn bytes_arithmetic() {
        let a = Bytes(100);
        assert_eq!(a + Bytes(20), Bytes(120));
        assert_eq!(a * 2, Bytes(200));
        assert_eq!(a / 4, Bytes(25));
    }

    #[test]
    fn bytes_display() {
        assert_eq!(format!("{}", Bytes(512)), "512 B");
        assert_eq!(format!("{}", Bytes::from_kib(4)), "4.00 KiB");
        assert_eq!(format!("{}", Bytes::from_mib(256)), "256.00 MiB");
        assert_eq!(format!("{}", Bytes::from_gib(128)), "128.00 GiB");
    }

    #[test]
    fn bandwidth_transfer_time() {
        let bw = Bandwidth::from_gb_s(100.0);
        let t = bw.transfer_time(Bytes(1_000_000_000));
        assert!((t.as_millis_f64() - 10.0).abs() < 1e-6);
        assert_eq!(bw.transfer_time(Bytes::ZERO), SimTime::ZERO);
    }

    #[test]
    #[should_panic(expected = "zero-bandwidth link")]
    fn zero_bandwidth_transfer_panics() {
        let _ = Bandwidth::ZERO.transfer_time(Bytes(1));
    }

    #[test]
    fn bandwidth_sum_and_scale() {
        let total: Bandwidth = (0..8).map(|_| Bandwidth::from_gb_s(665.0)).sum();
        // 8 HBM stacks at ~665 GB/s each ~= 5.3 TB/s (paper's figure).
        assert!((total.as_tb_s() - 5.32).abs() < 0.01);
        assert!((total.scale(0.5).as_tb_s() - 2.66).abs() < 0.01);
    }

    #[test]
    fn power_saturating_sub_clamps() {
        let a = Power::from_watts(10.0);
        let b = Power::from_watts(25.0);
        assert_eq!(a.saturating_sub(b), Power::ZERO);
        assert_eq!(b.saturating_sub(a).as_watts(), 15.0);
    }

    #[test]
    fn energy_accumulation() {
        let per_bit = Energy::from_picojoules(0.4); // USR-class pJ/bit
        let total = per_bit.scale(8.0 * 1e9); // 1 GB of bits
        assert!((total.as_joules() - 3.2e-3).abs() < 1e-9);
    }

    #[test]
    fn displays_are_nonempty() {
        // C-DEBUG-NONEMPTY analogue for Display.
        assert!(!format!("{}", Bandwidth::ZERO).is_empty());
        assert!(!format!("{}", Energy::ZERO).is_empty());
        assert!(!format!("{}", Power::ZERO).is_empty());
    }
}

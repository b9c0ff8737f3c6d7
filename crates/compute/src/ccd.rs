//! The "Zen 4" CPU complex die (CCD).
//!
//! Section IV.C: each CCD provides eight "Zen 4" cores sharing a 32 MB
//! L3; per-core L2 doubled to 1 MB over "Zen 3"; AVX-512 ISA support was
//! added. MI300A carries three CCDs (24 cores). The CCD runs "all of the
//! traditional x86-based code, including everything necessary for the
//! operating system as well as all portions of user codes that have not
//! been offloaded to the XCDs" — i.e. the Amdahl's-law serial fraction.
//! The model keeps what that serial phase's time depends on: cores,
//! clock and DP FLOPs per cycle. Cache capacities and the ISA are not
//! modelled.

use ehp_sim_core::time::{Frequency, SimTime};
use ehp_sim_core::units::{Bandwidth, Bytes};

/// Static parameters of a CCD.
#[derive(Debug, Clone, Copy)]
pub struct CcdSpec {
    /// Cores per CCD.
    pub cores: u32,
    /// Boost-class clock.
    pub(crate) clock: Frequency,
    /// Double-precision FLOPs per cycle per core (Zen 4: two 256-bit FMA
    /// pipes => 16 DP FLOPs/cycle; AVX-512 instructions are double-pumped).
    pub(crate) dp_flops_per_cycle: u32,
}

impl CcdSpec {
    /// The MI300A "Zen 4" CCD.
    #[must_use]
    pub fn zen4() -> CcdSpec {
        CcdSpec {
            cores: 8,
            clock: Frequency::from_ghz(3.7),
            dp_flops_per_cycle: 16,
        }
    }
}

/// A CCD with derived aggregate rates.
///
/// # Example
///
/// ```
/// use ehp_compute::ccd::{CcdModel, CcdSpec};
///
/// let ccd = CcdModel::new(CcdSpec::zen4());
/// // 8 cores * 16 DP FLOPs/cycle * 3.7 GHz ~= 0.47 TFLOP/s.
/// assert!((ccd.peak_dp_flops() / 1e12 - 0.4736).abs() < 0.001);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct CcdModel {
    spec: CcdSpec,
}

impl CcdModel {
    /// Wraps a spec.
    ///
    /// # Panics
    ///
    /// Panics if the core count is zero.
    #[must_use]
    pub fn new(spec: CcdSpec) -> CcdModel {
        assert!(spec.cores > 0, "CCD must have cores");
        CcdModel { spec }
    }

    /// The spec.
    #[must_use]
    pub fn spec(&self) -> &CcdSpec {
        &self.spec
    }

    /// Peak double-precision FLOP/s across the CCD.
    #[must_use]
    pub fn peak_dp_flops(&self) -> f64 {
        f64::from(self.spec.cores)
            * f64::from(self.spec.dp_flops_per_cycle)
            * self.spec.clock.as_hz()
    }

    /// Time for a CPU phase of `flops` FLOPs and `bytes` of memory
    /// traffic at `mem_bw`, on `threads` cores at `efficiency` of peak.
    ///
    /// # Panics
    ///
    /// Panics if `threads` is zero or exceeds the core count, or if
    /// `efficiency` is not in `(0, 1]`.
    #[must_use]
    pub fn phase_time(
        &self,
        flops: f64,
        bytes: Bytes,
        mem_bw: Bandwidth,
        threads: u32,
        efficiency: f64,
    ) -> SimTime {
        assert!(
            threads > 0 && threads <= self.spec.cores,
            "threads {threads} out of range 1..={}",
            self.spec.cores
        );
        assert!(
            efficiency > 0.0 && efficiency <= 1.0,
            "efficiency must be in (0,1]: {efficiency}"
        );
        let peak = self.peak_dp_flops() * f64::from(threads) / f64::from(self.spec.cores);
        let t_compute = flops / (peak * efficiency);
        let t_memory = bytes.as_f64() / mem_bw.as_bytes_per_sec();
        SimTime::from_secs_f64(t_compute.max(t_memory))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The prior-generation "Zen 3" CCD, the reference for the clock
    /// highlight in Section IV.C.
    fn zen3() -> CcdSpec {
        CcdSpec {
            cores: 8,
            clock: Frequency::from_ghz(3.4),
            dp_flops_per_cycle: 16,
        }
    }

    #[test]
    fn zen4_highlights_over_zen3() {
        // "clock frequency improvements"
        assert!(CcdSpec::zen4().clock > zen3().clock);
    }

    #[test]
    fn mi300a_has_24_cores() {
        assert_eq!(3 * CcdSpec::zen4().cores, 24);
    }

    #[test]
    fn peak_flops_scale_with_threads() {
        let ccd = CcdModel::new(CcdSpec::zen4());
        let t8 = ccd.phase_time(1e12, Bytes(1), Bandwidth::from_tb_s(1.0), 8, 1.0);
        let t1 = ccd.phase_time(1e12, Bytes(1), Bandwidth::from_tb_s(1.0), 1, 1.0);
        assert!((t1.as_secs() / t8.as_secs() - 8.0).abs() < 1e-6);
    }

    #[test]
    fn memory_bound_phase_ignores_thread_count() {
        let ccd = CcdModel::new(CcdSpec::zen4());
        let t1 = ccd.phase_time(1.0, Bytes::from_gib(1), Bandwidth::from_gb_s(100.0), 1, 1.0);
        let t8 = ccd.phase_time(1.0, Bytes::from_gib(1), Bandwidth::from_gb_s(100.0), 8, 1.0);
        assert_eq!(t1, t8);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn too_many_threads_panics() {
        let ccd = CcdModel::new(CcdSpec::zen4());
        let _ = ccd.phase_time(1.0, Bytes(1), Bandwidth::from_gb_s(1.0), 9, 1.0);
    }

    #[test]
    #[should_panic(expected = "must have cores")]
    fn zero_cores_panics() {
        let mut s = CcdSpec::zen4();
        s.cores = 0;
        let _ = CcdModel::new(s);
    }
}

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

/// Cores per CCD.
pub const CORES: u32 = 8;
/// Boost-class clock of the MI300A "Zen 4" CCD, in GHz.
const CLOCK_GHZ: f64 = 3.7;
/// Double-precision FLOPs per cycle per core (Zen 4: two 256-bit FMA
/// pipes => 16 DP FLOPs/cycle; AVX-512 instructions are double-pumped).
const DP_FLOPS_PER_CYCLE: u32 = 16;
/// Fraction of peak a CPU phase sustains.
pub const EFFICIENCY: f64 = 0.5;

/// Peak double-precision FLOP/s across the CCD.
///
/// # Example
///
/// ```
/// // 8 cores * 16 DP FLOPs/cycle * 3.7 GHz ~= 0.47 TFLOP/s.
/// assert!((ehp_compute::ccd::peak_dp_flops() / 1e12 - 0.4736).abs() < 0.001);
/// ```
#[must_use]
pub fn peak_dp_flops() -> f64 {
    f64::from(CORES) * f64::from(DP_FLOPS_PER_CYCLE) * Frequency::from_ghz(CLOCK_GHZ).as_hz()
}

/// Time for a CPU phase of `flops` FLOPs and `bytes` of memory traffic
/// at `mem_bw`, on all of one CCD's cores at `EFFICIENCY` of peak.
#[must_use]
pub fn phase_time(flops: f64, bytes: Bytes, mem_bw: Bandwidth) -> SimTime {
    let t_compute = flops / (peak_dp_flops() * EFFICIENCY);
    let t_memory = bytes.as_f64() / mem_bw.as_bytes_per_sec();
    SimTime::from_secs_f64(t_compute.max(t_memory))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zen4_highlights_over_zen3() {
        // "clock frequency improvements" over the 3.4 GHz "Zen 3" CCD.
        assert!(Frequency::from_ghz(CLOCK_GHZ) > Frequency::from_ghz(3.4));
    }

    #[test]
    fn mi300a_has_24_cores() {
        assert_eq!(3 * CORES, 24);
    }

    #[test]
    fn compute_bound_phase_runs_at_peak_times_efficiency() {
        let t = phase_time(peak_dp_flops(), Bytes(1), Bandwidth::from_tb_s(1.0));
        assert!((t.as_secs() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn memory_bound_phase_runs_at_memory_bandwidth() {
        let t = phase_time(1.0, Bytes::from_gib(1), Bandwidth::from_gb_s(100.0));
        assert_eq!(
            t,
            Bandwidth::from_gb_s(100.0).transfer_time(Bytes::from_gib(1))
        );
    }
}

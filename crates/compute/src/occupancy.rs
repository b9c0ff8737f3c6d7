//! CU occupancy: how many wavefronts a kernel can keep resident per CU.
//!
//! Each CU has fixed pools of wavefront slots, vector registers and LDS
//! (Section IV.B lists the 64 KB LDS and 32 KB L1 per CU); a kernel's
//! per-workgroup resource appetite determines how many workgroups fit
//! concurrently, which bounds latency hiding and hence the achieved
//! fraction of peak that the roofline models take as an efficiency
//! input.

use ehp_sim_core::units::Bytes;

/// Maximum resident wavefronts per CDNA 3 CU.
const MAX_WAVES: u32 = 32;
/// Vector general-purpose registers per SIMD lane pool (per CU, counted
/// in per-wave allocation units).
const VGPRS: u32 = 2048;
/// LDS capacity per CU.
const LDS: Bytes = Bytes(64 * 1024);
/// Maximum workgroups resident per CU.
const MAX_WORKGROUPS: u32 = 16;

/// A kernel's per-workgroup resource appetite.
#[derive(Debug, Clone, Copy)]
pub struct KernelResources {
    /// Wavefronts per workgroup (workgroup size ÷ 64).
    pub waves_per_workgroup: u32,
    /// VGPRs per wavefront.
    pub vgprs_per_wave: u32,
    /// LDS bytes per workgroup.
    pub lds_per_workgroup: Bytes,
}

impl KernelResources {
    /// A typical light kernel: 256-thread workgroups, modest registers,
    /// no LDS.
    #[must_use]
    pub fn light() -> KernelResources {
        KernelResources {
            waves_per_workgroup: 4,
            vgprs_per_wave: 64,
            lds_per_workgroup: Bytes::ZERO,
        }
    }
}

/// The occupancy verdict for a kernel on a CU.
///
/// # Examples
///
/// ```
/// use ehp_compute::occupancy::{KernelResources, Occupancy};
///
/// let o = Occupancy::compute(&KernelResources::light());
/// assert_eq!(o.waves_per_cu, 32); // full occupancy
/// ```
///
#[derive(Debug, Clone, Copy)]
pub struct Occupancy {
    /// Workgroups resident per CU.
    pub workgroups_per_cu: u32,
    /// Wavefronts resident per CU.
    pub waves_per_cu: u32,
    /// Which resource capped the count.
    pub limiter: OccupancyLimiter,
}

/// What capped occupancy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OccupancyLimiter {
    /// Wavefront slot pool.
    WaveSlots,
    /// Vector register file.
    Vgprs,
    /// Local Data Share capacity.
    Lds,
    /// Per-CU workgroup limit.
    WorkgroupSlots,
}

impl Occupancy {
    /// Computes occupancy for a kernel on a CDNA 3 CU.
    ///
    /// # Panics
    ///
    /// Panics if the kernel needs zero waves, more VGPRs than the CU
    /// has, or more LDS than the CU has (an unlaunchable kernel).
    #[must_use]
    pub fn compute(k: &KernelResources) -> Occupancy {
        assert!(k.waves_per_workgroup > 0, "kernel needs at least one wave");
        assert!(
            k.vgprs_per_wave <= VGPRS,
            "kernel VGPR appetite exceeds the register file"
        );
        assert!(
            k.lds_per_workgroup <= LDS,
            "kernel LDS appetite exceeds the LDS"
        );

        let by_wave_slots = MAX_WAVES / k.waves_per_workgroup;
        let by_vgprs = VGPRS
            .checked_div(k.vgprs_per_wave)
            .map_or(u32::MAX, |waves| waves / k.waves_per_workgroup);
        let by_lds = if k.lds_per_workgroup == Bytes::ZERO {
            u32::MAX
        } else {
            u32::try_from(LDS.as_u64() / k.lds_per_workgroup.as_u64()).unwrap_or(u32::MAX)
        };
        let by_wg_slots = MAX_WORKGROUPS;

        let (workgroups, limiter) = [
            (by_wave_slots, OccupancyLimiter::WaveSlots),
            (by_vgprs, OccupancyLimiter::Vgprs),
            (by_lds, OccupancyLimiter::Lds),
            (by_wg_slots, OccupancyLimiter::WorkgroupSlots),
        ]
        .into_iter()
        .min_by_key(|&(n, _)| n)
        .expect("non-empty candidates");

        Occupancy {
            workgroups_per_cu: workgroups,
            waves_per_cu: workgroups * k.waves_per_workgroup,
            limiter,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn light_kernel_hits_wave_or_wg_limit() {
        let o = Occupancy::compute(&KernelResources::light());
        // 32 slots / 4 waves = 8 workgroups; VGPRs allow 2048/64/4 = 8.
        assert_eq!(o.workgroups_per_cu, 8);
        assert_eq!(o.waves_per_cu, 32);
    }

    #[test]
    fn register_hungry_kernel_is_vgpr_limited() {
        let k = KernelResources {
            waves_per_workgroup: 4,
            vgprs_per_wave: 256,
            lds_per_workgroup: Bytes::ZERO,
        };
        let o = Occupancy::compute(&k);
        // 2048/256 = 8 waves -> 2 workgroups.
        assert_eq!(o.workgroups_per_cu, 2);
        assert_eq!(o.limiter, OccupancyLimiter::Vgprs);
    }

    #[test]
    fn lds_hungry_kernel_is_lds_limited() {
        let k = KernelResources {
            waves_per_workgroup: 2,
            vgprs_per_wave: 32,
            lds_per_workgroup: Bytes::from_kib(32),
        };
        let o = Occupancy::compute(&k);
        assert_eq!(o.workgroups_per_cu, 2, "64 KB / 32 KB");
        assert_eq!(o.limiter, OccupancyLimiter::Lds);
    }

    #[test]
    fn tiny_workgroups_hit_workgroup_slot_limit() {
        let k = KernelResources {
            waves_per_workgroup: 1,
            vgprs_per_wave: 16,
            lds_per_workgroup: Bytes::ZERO,
        };
        let o = Occupancy::compute(&k);
        assert_eq!(o.workgroups_per_cu, 16);
        assert_eq!(o.limiter, OccupancyLimiter::WorkgroupSlots);
    }

    #[test]
    fn more_registers_fewer_waves_monotone() {
        let mut prev = u32::MAX;
        for vgprs in [32u32, 64, 128, 256, 512] {
            let k = KernelResources {
                waves_per_workgroup: 4,
                vgprs_per_wave: vgprs,
                lds_per_workgroup: Bytes::ZERO,
            };
            let o = Occupancy::compute(&k);
            assert!(o.waves_per_cu <= prev);
            prev = o.waves_per_cu;
        }
    }

    #[test]
    #[should_panic(expected = "exceeds the LDS")]
    fn unlaunchable_lds_panics() {
        let k = KernelResources {
            waves_per_workgroup: 1,
            vgprs_per_wave: 16,
            lds_per_workgroup: Bytes::from_kib(128),
        };
        let _ = Occupancy::compute(&k);
    }
}

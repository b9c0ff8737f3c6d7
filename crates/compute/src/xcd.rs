//! The accelerator complex die (XCD).
//!
//! Each MI300 XCD physically implements 40 CUs but enables 38 for yield
//! (Section IV.B), contains four Asynchronous Compute Engines (ACEs), a
//! hardware scheduler, and a 4 MB L2 that "serves to coalesce all of the
//! memory traffic for the die". The model keeps the CU counts and the
//! per-CU rates; the ACEs and the L2 are not modelled.

use ehp_sim_core::time::SimTime;
use ehp_sim_core::units::{Bandwidth, Bytes};

use crate::cu::CuSpec;
use crate::dtype::{DataType, ExecUnit};

/// Execution unit of the kernels the roofline prices: Figure 14's FP64
/// vector workload is the only one.
const KERNEL_UNIT: ExecUnit = ExecUnit::Vector;
/// Datatype of those kernels.
const KERNEL_DTYPE: DataType = DataType::Fp64;
/// Fraction of peak a kernel sustains.
const KERNEL_EFFICIENCY: f64 = 0.7;

/// Static parameters of an XCD (or a CDNA 2 GCD, which this type also
/// describes).
#[derive(Debug, Clone, Copy)]
pub struct XcdSpec {
    /// Per-CU parameters.
    pub(crate) cu: CuSpec,
    /// Physically implemented CUs.
    pub(crate) cus_physical: u32,
    /// CUs enabled after yield harvesting.
    pub cus_enabled: u32,
}

impl XcdSpec {
    /// The MI300 XCD: 40 CUs built, 38 enabled.
    #[must_use]
    pub fn mi300() -> XcdSpec {
        XcdSpec {
            cu: CuSpec::cdna3(),
            cus_physical: 40,
            cus_enabled: 38,
        }
    }

    /// An MI250X GCD described in the same terms: 112 CUs built, 110
    /// enabled, CDNA 2 CUs.
    #[must_use]
    pub fn mi250x_gcd() -> XcdSpec {
        XcdSpec {
            cu: CuSpec::cdna2(),
            cus_physical: 112,
            cus_enabled: 110,
        }
    }
}

/// An XCD with derived aggregate rates.
///
/// # Example
///
/// ```
/// use ehp_compute::xcd::{XcdModel, XcdSpec};
///
/// let xcd = XcdModel::new(XcdSpec::mi300());
/// // 38 CUs * 128 ops/clk * 2.1 GHz ~= 10.2 TFLOP/s FP64 vector per XCD.
/// assert!((xcd.peak_flops() / 1e12 - 10.2).abs() < 0.1);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct XcdModel {
    spec: XcdSpec,
}

impl XcdModel {
    /// Wraps a spec.
    ///
    /// # Panics
    ///
    /// Panics if more CUs are enabled than physically exist.
    #[must_use]
    pub fn new(spec: XcdSpec) -> XcdModel {
        assert!(
            spec.cus_enabled <= spec.cus_physical,
            "cannot enable {} of {} CUs",
            spec.cus_enabled,
            spec.cus_physical
        );
        XcdModel { spec }
    }

    /// Peak dense FP64 vector ops/second across all enabled CUs.
    #[must_use]
    pub fn peak_flops(&self) -> f64 {
        let cu = self.spec.cu;
        let ops = cu
            .arch
            .ops_per_clock(KERNEL_UNIT, KERNEL_DTYPE)
            .expect("every CDNA CU runs FP64 vector ops");
        ops as f64 * cu.clock.as_hz() * f64::from(self.spec.cus_enabled)
    }

    /// Roofline execution time for a kernel phase: the longer of compute
    /// time for `ops` at `KERNEL_EFFICIENCY × peak` and memory time for
    /// `bytes` at `mem_bw`.
    #[must_use]
    pub fn roofline_time(&self, ops: f64, bytes: Bytes, mem_bw: Bandwidth) -> SimTime {
        let t_compute = ops / (self.peak_flops() * KERNEL_EFFICIENCY);
        let t_memory = bytes.as_f64() / mem_bw.as_bytes_per_sec();
        SimTime::from_secs_f64(t_compute.max(t_memory))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mi300_xcd_geometry() {
        let s = XcdSpec::mi300();
        assert_eq!(s.cus_physical, 40);
        assert_eq!(s.cus_enabled, 38);
        assert_eq!(
            s.cus_physical - s.cus_enabled,
            2,
            "up to two CUs can be defective"
        );
    }

    #[test]
    fn six_xcds_give_228_cus() {
        // MI300A: 6 XCDs x 38 CUs = 228 CUs (paper Section IV.B).
        assert_eq!(6 * XcdSpec::mi300().cus_enabled, 228);
        // MI300X: 8 XCDs x 38 = 304 CUs (Section VII).
        assert_eq!(8 * XcdSpec::mi300().cus_enabled, 304);
        // MI250X: 2 GCDs x 110 = 220 CUs.
        assert_eq!(2 * XcdSpec::mi250x_gcd().cus_enabled, 220);
    }

    #[test]
    fn xcd_peak_scales_with_cus() {
        let xcd = XcdModel::new(XcdSpec::mi300());
        let cu = XcdSpec::mi300().cu;
        let per_cu =
            cu.arch.ops_per_clock(KERNEL_UNIT, KERNEL_DTYPE).unwrap() as f64 * cu.clock.as_hz();
        assert!((xcd.peak_flops() / per_cu - 38.0).abs() < 1e-9);
    }

    #[test]
    fn roofline_compute_bound() {
        let xcd = XcdModel::new(XcdSpec::mi300());
        // Huge FLOPs, tiny data: compute bound.
        let t = xcd.roofline_time(1e12, Bytes::from_mib(1), Bandwidth::from_tb_s(1.0));
        let expect = 1e12 / (xcd.peak_flops() * KERNEL_EFFICIENCY);
        assert!((t.as_secs() - expect).abs() < 1e-9);
    }

    #[test]
    fn roofline_memory_bound() {
        let xcd = XcdModel::new(XcdSpec::mi300());
        // Tiny FLOPs, huge data: memory bound.
        let t = xcd.roofline_time(1e6, Bytes::from_gib(1), Bandwidth::from_gb_s(100.0));
        assert!((t.as_millis_f64() - (1u64 << 30) as f64 / 1e8 * 1e3 / 1e3).abs() < 0.2);
    }

    #[test]
    fn efficiency_slows_compute() {
        let xcd = XcdModel::new(XcdSpec::mi300());
        let t = xcd.roofline_time(1e12, Bytes(1), Bandwidth::from_tb_s(5.0));
        let at_peak = 1e12 / xcd.peak_flops();
        assert!((t.as_secs() / at_peak - 1.0 / 0.7).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "cannot enable")]
    fn over_enabled_panics() {
        let mut s = XcdSpec::mi300();
        s.cus_enabled = 41;
        let _ = XcdModel::new(s);
    }
}

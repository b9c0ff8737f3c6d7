//! The accelerator complex die (XCD).
//!
//! Each MI300 XCD physically implements 40 CUs but enables 38 for yield
//! (Section IV.B), contains four Asynchronous Compute Engines (ACEs), a
//! hardware scheduler, and a 4 MB L2 that "serves to coalesce all of the
//! memory traffic for the die". The model keeps the CU counts and the
//! per-CU rates; the ACEs and the L2 are not modelled.

use ehp_sim_core::time::SimTime;
use ehp_sim_core::units::{Bandwidth, Bytes};

use crate::cu::{CuModel, CuSpec};
use crate::dtype::{DataType, ExecUnit};

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
/// use ehp_compute::dtype::{DataType, ExecUnit};
///
/// let xcd = XcdModel::new(XcdSpec::mi300());
/// // 38 CUs * 256 ops/clk * 2.1 GHz ~= 20.4 TFLOP/s FP64 matrix per XCD.
/// let fp64 = xcd.peak_flops(ExecUnit::Matrix, DataType::Fp64).unwrap();
/// assert!((fp64 / 1e12 - 20.4).abs() < 0.1);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct XcdModel {
    spec: XcdSpec,
    cu: CuModel,
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
        XcdModel {
            spec,
            cu: CuModel::new(spec.cu),
        }
    }

    /// Peak dense ops/second across all enabled CUs.
    #[must_use]
    pub fn peak_flops(&self, unit: ExecUnit, dtype: DataType) -> Option<f64> {
        self.cu
            .peak_flops(unit, dtype)
            .map(|f| f * f64::from(self.spec.cus_enabled))
    }

    /// Roofline execution time for a kernel phase: the longer of compute
    /// time at `efficiency × peak` and memory time at `mem_bw`.
    ///
    /// # Panics
    ///
    /// Panics if the datatype/unit is unsupported, or `efficiency` is not
    /// in `(0, 1]`.
    #[must_use]
    pub fn roofline_time(
        &self,
        unit: ExecUnit,
        dtype: DataType,
        ops: f64,
        bytes: Bytes,
        mem_bw: Bandwidth,
        efficiency: f64,
    ) -> SimTime {
        assert!(
            efficiency > 0.0 && efficiency <= 1.0,
            "efficiency must be in (0,1]: {efficiency}"
        );
        let peak = self
            .peak_flops(unit, dtype)
            .unwrap_or_else(|| panic!("{dtype} on {unit} unsupported"));
        let t_compute = ops / (peak * efficiency);
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
        let per_cu = CuModel::new(XcdSpec::mi300().cu)
            .peak_flops(ExecUnit::Matrix, DataType::Fp16)
            .unwrap();
        let total = xcd.peak_flops(ExecUnit::Matrix, DataType::Fp16).unwrap();
        assert!((total / per_cu - 38.0).abs() < 1e-9);
    }

    #[test]
    fn roofline_compute_bound() {
        let xcd = XcdModel::new(XcdSpec::mi300());
        // Huge FLOPs, tiny data: compute bound.
        let t = xcd.roofline_time(
            ExecUnit::Matrix,
            DataType::Fp64,
            1e12,
            Bytes::from_mib(1),
            Bandwidth::from_tb_s(1.0),
            1.0,
        );
        let peak = xcd.peak_flops(ExecUnit::Matrix, DataType::Fp64).unwrap();
        assert!((t.as_secs() - 1e12 / peak).abs() < 1e-9);
    }

    #[test]
    fn roofline_memory_bound() {
        let xcd = XcdModel::new(XcdSpec::mi300());
        // Tiny FLOPs, huge data: memory bound.
        let t = xcd.roofline_time(
            ExecUnit::Vector,
            DataType::Fp64,
            1e6,
            Bytes::from_gib(1),
            Bandwidth::from_gb_s(100.0),
            1.0,
        );
        assert!((t.as_millis_f64() - (1u64 << 30) as f64 / 1e8 * 1e3 / 1e3).abs() < 0.2);
    }

    #[test]
    fn efficiency_slows_compute() {
        let xcd = XcdModel::new(XcdSpec::mi300());
        let fast = xcd.roofline_time(
            ExecUnit::Matrix,
            DataType::Fp32,
            1e12,
            Bytes(1),
            Bandwidth::from_tb_s(5.0),
            1.0,
        );
        let slow = xcd.roofline_time(
            ExecUnit::Matrix,
            DataType::Fp32,
            1e12,
            Bytes(1),
            Bandwidth::from_tb_s(5.0),
            0.5,
        );
        assert!((slow.as_secs() / fast.as_secs() - 2.0).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "cannot enable")]
    fn over_enabled_panics() {
        let mut s = XcdSpec::mi300();
        s.cus_enabled = 41;
        let _ = XcdModel::new(s);
    }

    #[test]
    #[should_panic(expected = "efficiency")]
    fn bad_efficiency_panics() {
        let xcd = XcdModel::new(XcdSpec::mi300());
        let _ = xcd.roofline_time(
            ExecUnit::Matrix,
            DataType::Fp32,
            1.0,
            Bytes(1),
            Bandwidth::from_gb_s(1.0),
            0.0,
        );
    }
}

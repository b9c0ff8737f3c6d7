//! The CDNA compute unit (CU) model and the Table 1 throughput rates.

use ehp_sim_core::time::Frequency;

use crate::dtype::{DataType, ExecUnit};

/// GPU compute architecture generation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GpuArch {
    /// CDNA 2 (MI250X's GCDs).
    Cdna2,
    /// CDNA 3 (MI300's XCDs).
    Cdna3,
}

impl GpuArch {
    /// Peak operations-per-clock-per-CU for dense operands — exactly
    /// Table 1 of the paper. `None` marks the "n/a" cells (no hardware
    /// support).
    ///
    /// # Example
    ///
    /// ```
    /// use ehp_compute::cu::GpuArch;
    /// use ehp_compute::dtype::{DataType, ExecUnit};
    ///
    /// let fp64 = GpuArch::Cdna3.ops_per_clock(ExecUnit::Matrix, DataType::Fp64);
    /// assert_eq!(fp64, Some(256)); // 537.6 GFLOP/s per CU at 2.1 GHz
    /// assert_eq!(GpuArch::Cdna2.ops_per_clock(ExecUnit::Matrix, DataType::Fp8), None);
    /// ```
    #[must_use]
    pub fn ops_per_clock(self, unit: ExecUnit, dtype: DataType) -> Option<u64> {
        use DataType::*;
        use ExecUnit::*;
        match (self, unit, dtype) {
            (GpuArch::Cdna2, Vector, Fp64) => Some(128),
            (GpuArch::Cdna2, Vector, Fp32) => Some(128),
            (GpuArch::Cdna2, Vector, _) => None,
            (GpuArch::Cdna2, Matrix, Fp64) => Some(256),
            (GpuArch::Cdna2, Matrix, Fp32) => Some(256),
            (GpuArch::Cdna2, Matrix, Tf32) => None,
            (GpuArch::Cdna2, Matrix, Fp16) => Some(1024),
            (GpuArch::Cdna2, Matrix, Bf16) => Some(1024),
            (GpuArch::Cdna2, Matrix, Fp8) => None,
            (GpuArch::Cdna2, Matrix, Int8) => Some(1024),

            (GpuArch::Cdna3, Vector, Fp64) => Some(128),
            (GpuArch::Cdna3, Vector, Fp32) => Some(256),
            (GpuArch::Cdna3, Vector, _) => None,
            (GpuArch::Cdna3, Matrix, Fp64) => Some(256),
            (GpuArch::Cdna3, Matrix, Fp32) => Some(256),
            (GpuArch::Cdna3, Matrix, Tf32) => Some(1024),
            (GpuArch::Cdna3, Matrix, Fp16) => Some(2048),
            (GpuArch::Cdna3, Matrix, Bf16) => Some(2048),
            (GpuArch::Cdna3, Matrix, Fp8) => Some(4096),
            (GpuArch::Cdna3, Matrix, Int8) => Some(4096),
        }
    }

    /// Peak matrix rate with 4:2 structured sparsity: CDNA 3's matrix
    /// cores double their dense rate, reaching 8192 ops/clock/CU for FP8
    /// and INT8. `None` where the hardware has no sparsity support.
    #[must_use]
    pub fn ops_per_clock_sparse(self, dtype: DataType) -> Option<u64> {
        let dense = self.ops_per_clock(ExecUnit::Matrix, dtype)?;
        match self {
            GpuArch::Cdna3 => Some(dense * 2),
            GpuArch::Cdna2 => None,
        }
    }

    /// L1 data cache line size: CDNA 3 widened it to 128 B ("the L1 data
    /// cache line size has been increased to 128B").
    #[must_use]
    pub fn l1_line_bytes(self) -> u64 {
        match self {
            GpuArch::Cdna2 => 64,
            GpuArch::Cdna3 => 128,
        }
    }

    /// Relative L1 data-path width (CDNA 3 "effectively doubling the
    /// cache bandwidth compared to the CDNA 2 architecture").
    #[must_use]
    pub fn l1_bandwidth_factor(self) -> f64 {
        match self {
            GpuArch::Cdna2 => 1.0,
            GpuArch::Cdna3 => 2.0,
        }
    }
}

/// Static parameters of one CU: what its Table 1 peak rates depend on.
/// The LDS capacity the occupancy study reads is
/// [`occupancy`](crate::occupancy)'s `LDS`, and the shared instruction
/// cache is in [`icache`](crate::icache).
#[derive(Debug, Clone, Copy)]
pub struct CuSpec {
    /// Architecture generation.
    pub(crate) arch: GpuArch,
    /// Core clock.
    pub(crate) clock: Frequency,
}

impl CuSpec {
    /// CDNA 3 CU as in MI300 (2.1 GHz class clocks).
    #[must_use]
    pub fn cdna3() -> CuSpec {
        CuSpec {
            arch: GpuArch::Cdna3,
            clock: Frequency::from_ghz(2.1),
        }
    }

    /// CDNA 2 CU as in MI250X (1.7 GHz class clocks).
    #[must_use]
    pub(crate) fn cdna2() -> CuSpec {
        CuSpec {
            arch: GpuArch::Cdna2,
            clock: Frequency::from_ghz(1.7),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The full Table 1, transcribed row-by-row as the ground truth.
    #[test]
    fn table1_is_reproduced_exactly() {
        use DataType::*;
        let rows: [(GpuArch, ExecUnit, DataType, Option<u64>); 18] = [
            (GpuArch::Cdna2, ExecUnit::Vector, Fp64, Some(128)),
            (GpuArch::Cdna2, ExecUnit::Vector, Fp32, Some(128)),
            (GpuArch::Cdna2, ExecUnit::Matrix, Fp64, Some(256)),
            (GpuArch::Cdna2, ExecUnit::Matrix, Fp32, Some(256)),
            (GpuArch::Cdna2, ExecUnit::Matrix, Tf32, None),
            (GpuArch::Cdna2, ExecUnit::Matrix, Fp16, Some(1024)),
            (GpuArch::Cdna2, ExecUnit::Matrix, Bf16, Some(1024)),
            (GpuArch::Cdna2, ExecUnit::Matrix, Fp8, None),
            (GpuArch::Cdna2, ExecUnit::Matrix, Int8, Some(1024)),
            (GpuArch::Cdna3, ExecUnit::Vector, Fp64, Some(128)),
            (GpuArch::Cdna3, ExecUnit::Vector, Fp32, Some(256)),
            (GpuArch::Cdna3, ExecUnit::Matrix, Fp64, Some(256)),
            (GpuArch::Cdna3, ExecUnit::Matrix, Fp32, Some(256)),
            (GpuArch::Cdna3, ExecUnit::Matrix, Tf32, Some(1024)),
            (GpuArch::Cdna3, ExecUnit::Matrix, Fp16, Some(2048)),
            (GpuArch::Cdna3, ExecUnit::Matrix, Bf16, Some(2048)),
            (GpuArch::Cdna3, ExecUnit::Matrix, Fp8, Some(4096)),
            (GpuArch::Cdna3, ExecUnit::Matrix, Int8, Some(4096)),
        ];
        for (arch, unit, dtype, expect) in rows {
            assert_eq!(
                arch.ops_per_clock(unit, dtype),
                expect,
                "{arch:?} {unit} {dtype}"
            );
        }
    }

    #[test]
    fn sparsity_doubles_cdna3_8bit_matrix() {
        let r = GpuArch::Cdna3.ops_per_clock_sparse(DataType::Fp8).unwrap();
        assert_eq!(r, 8192, "paper: up to 8192 ops/cycle/CU with 4:2 sparsity");
        assert_eq!(
            GpuArch::Cdna3.ops_per_clock_sparse(DataType::Int8),
            Some(8192)
        );
    }

    #[test]
    fn cdna2_has_no_sparsity() {
        assert_eq!(GpuArch::Cdna2.ops_per_clock_sparse(DataType::Fp16), None);
    }

    #[test]
    fn vector_fp32_doubled_in_cdna3() {
        let c2 = GpuArch::Cdna2
            .ops_per_clock(ExecUnit::Vector, DataType::Fp32)
            .unwrap();
        let c3 = GpuArch::Cdna3
            .ops_per_clock(ExecUnit::Vector, DataType::Fp32)
            .unwrap();
        assert_eq!(c3, 2 * c2);
    }

    #[test]
    fn l1_line_widened() {
        assert_eq!(GpuArch::Cdna2.l1_line_bytes(), 64);
        assert_eq!(GpuArch::Cdna3.l1_line_bytes(), 128);
        assert_eq!(GpuArch::Cdna3.l1_bandwidth_factor(), 2.0);
    }

    #[test]
    fn peak_flops_matches_hand_computation() {
        let cu = CuSpec::cdna3();
        let fp8 = cu
            .arch
            .ops_per_clock(ExecUnit::Matrix, DataType::Fp8)
            .unwrap() as f64
            * cu.clock.as_hz();
        assert!((fp8 - 4096.0 * 2.1e9).abs() < 1.0);
        assert!(cu
            .arch
            .ops_per_clock(ExecUnit::Vector, DataType::Fp8)
            .is_none());
    }
}

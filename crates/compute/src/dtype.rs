//! Numeric datatypes and execution-unit kinds.

use core::fmt;

/// Numeric formats supported by the CDNA vector/matrix pipelines
/// (the columns of Table 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum DataType {
    /// IEEE double precision.
    Fp64,
    /// IEEE single precision.
    Fp32,
    /// TensorFloat-32 (19-bit mantissa-truncated matrix format).
    Tf32,
    /// IEEE half precision.
    Fp16,
    /// bfloat16.
    Bf16,
    /// 8-bit floating point (E4M3/E5M2 class), new in CDNA 3.
    Fp8,
    /// 8-bit integer.
    Int8,
}

impl DataType {
    /// All datatypes in Table 1's column order.
    pub const ALL: [DataType; 7] = [
        DataType::Fp64,
        DataType::Fp32,
        DataType::Tf32,
        DataType::Fp16,
        DataType::Bf16,
        DataType::Fp8,
        DataType::Int8,
    ];
}

impl fmt::Display for DataType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DataType::Fp64 => "FP64",
            DataType::Fp32 => "FP32",
            DataType::Tf32 => "TF32",
            DataType::Fp16 => "FP16",
            DataType::Bf16 => "BF16",
            DataType::Fp8 => "FP8",
            DataType::Int8 => "INT8",
        };
        f.write_str(s)
    }
}

/// Which pipeline executes an operation (the row groups of Table 1).
#[derive(Debug, Clone, Copy)]
pub enum ExecUnit {
    /// SIMD vector ALUs.
    Vector,
    /// Matrix cores (MFMA).
    Matrix,
}

impl fmt::Display for ExecUnit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            ExecUnit::Vector => "Vector",
            ExecUnit::Matrix => "Matrix",
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_covers_every_variant() {
        assert_eq!(DataType::ALL.len(), 7);
        let mut set = std::collections::HashSet::new();
        for d in DataType::ALL {
            set.insert(d);
        }
        assert_eq!(set.len(), 7);
    }

    #[test]
    fn display_names() {
        assert_eq!(DataType::Fp8.to_string(), "FP8");
        assert_eq!(ExecUnit::Matrix.to_string(), "Matrix");
    }
}

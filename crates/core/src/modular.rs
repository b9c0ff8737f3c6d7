//! The modular chiplet platform as a design space (Section VII).
//!
//! "The silicon building blocks of MI300A provide a modular chiplet
//! platform that enables stacking different compute chiplets on the
//! IODs." Each of the four IODs carries either two XCDs or three CCDs;
//! MI300A is the 3-XCD-IOD/1-CCD-IOD point and MI300X the 4/0 point.
//! This module enumerates *all five* assignments and evaluates each
//! against HPC and AI figure-of-merit models, turning the paper's
//! mix-and-match claim into an explorable design space.

use ehp_compute::ccd;
use ehp_compute::dtype::{DataType, ExecUnit};
use ehp_compute::xcd::{XcdSpec, KERNEL_EFFICIENCY};
use ehp_sim_core::time::Frequency;
use ehp_sim_core::units::{Bandwidth, Power};

/// FP64 GPU work of the representative mixed HPC phase, in FLOPs.
const HPC_GPU_FLOPS: f64 = 1e15;
/// Serial CPU work of that phase, in FLOPs: 99.5% of the phase's flops
/// are GPU-parallel, a well-ported exascale code.
const HPC_CPU_FLOPS: f64 = 5e12;
/// CCDs of the external host an accelerator-only variant runs its serial
/// sections on (a 64-core EPYC).
const HOST_CCDS: f64 = 8.0;
/// Weight bytes streamed per decoded token: a 70B-parameter FP16 model.
const DECODE_WEIGHT_BYTES: f64 = 140e9;
/// Fraction of peak HBM bandwidth a decode step streams weights at.
const DECODE_BW_EFFICIENCY: f64 = 0.7;

/// One point in the modular design space: how many of the four IODs
/// carry CCD stacks.
///
/// # Examples
///
/// ```
/// use ehp_core::modular::ModularVariant;
///
/// let mi300a = ModularVariant::new(1);
/// assert_eq!(mi300a.cus(), 228);
/// assert_eq!(mi300a.cpu_cores(), 24);
/// ```
///
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ModularVariant {
    /// IODs carrying three CCDs each (0–4).
    pub(crate) ccd_iods: u32,
}

impl ModularVariant {
    /// All five buildable variants.
    pub(crate) const ALL: [ModularVariant; 5] = [
        ModularVariant { ccd_iods: 0 }, // MI300X
        ModularVariant { ccd_iods: 1 }, // MI300A
        ModularVariant { ccd_iods: 2 },
        ModularVariant { ccd_iods: 3 },
        ModularVariant { ccd_iods: 4 }, // a CPU-heavy "MI300C"-style part
    ];

    /// Creates a variant.
    ///
    /// # Panics
    ///
    /// Panics if `ccd_iods > 4`.
    #[must_use]
    pub fn new(ccd_iods: u32) -> ModularVariant {
        assert!(ccd_iods <= 4, "only four IODs exist");
        ModularVariant { ccd_iods }
    }

    /// IODs carrying XCD pairs.
    #[must_use]
    pub(crate) fn xcd_iods(&self) -> u32 {
        4 - self.ccd_iods
    }

    /// Total XCDs.
    #[must_use]
    pub(crate) fn xcds(&self) -> u32 {
        2 * self.xcd_iods()
    }

    /// Total CCDs.
    #[must_use]
    pub(crate) fn ccds(&self) -> u32 {
        3 * self.ccd_iods
    }

    /// Total enabled CUs.
    #[must_use]
    pub fn cus(&self) -> u32 {
        self.xcds() * XcdSpec::mi300().cus_enabled
    }

    /// Total CPU cores.
    #[must_use]
    pub fn cpu_cores(&self) -> u32 {
        self.ccds() * ccd::CORES
    }

    /// A display name (the shipping points get their product names).
    #[must_use]
    pub fn name(&self) -> String {
        match self.ccd_iods {
            0 => "MI300X (8 XCD)".to_string(),
            1 => "MI300A (6 XCD + 3 CCD)".to_string(),
            4 => format!("CPU-only ({} CCD)", self.ccds()),
            _ => format!("hybrid ({} XCD + {} CCD)", self.xcds(), self.ccds()),
        }
    }

    /// Peak FP64 matrix throughput (TFLOP/s); `None` when the variant
    /// has no XCDs.
    #[must_use]
    pub(crate) fn gpu_peak_tflops(&self) -> Option<f64> {
        if self.xcds() == 0 {
            return None;
        }
        let ops =
            ehp_compute::cu::GpuArch::Cdna3.ops_per_clock(ExecUnit::Matrix, DataType::Fp64)?;
        Some(ops as f64 * f64::from(self.cus()) * Frequency::from_ghz(2.1).as_hz() / 1e12)
    }

    /// Peak CPU DP throughput (TFLOP/s).
    #[must_use]
    pub(crate) fn cpu_peak_tflops(&self) -> f64 {
        f64::from(self.ccds()) * ccd::peak_dp_flops() / 1e12
    }

    /// The shared memory system (identical across variants — the point
    /// of the platform).
    #[must_use]
    pub(crate) fn memory_bandwidth(&self) -> Bandwidth {
        Bandwidth::from_tb_s(5.3)
    }

    /// A rough TDP scaling: XCD stacks draw more than CCD stacks.
    #[must_use]
    pub(crate) fn tdp(&self) -> Power {
        let base = 200.0; // IODs + HBM + fabric
        Power::from_watts(
            base + f64::from(self.xcd_iods()) * 110.0 + f64::from(self.ccd_iods) * 60.0,
        )
    }

    /// Figure of merit for a mixed HPC workload: seconds for a phase of
    /// [`HPC_GPU_FLOPS`] FP64 GPU work plus [`HPC_CPU_FLOPS`] serial CPU
    /// work (runs on an external host if the variant has no CPU, at a
    /// 10x effective penalty for link crossings and synchronisation).
    #[must_use]
    pub(crate) fn hpc_time(&self) -> f64 {
        let gpu = match self.gpu_peak_tflops() {
            Some(peak) => HPC_GPU_FLOPS / (peak * 1e12 * KERNEL_EFFICIENCY),
            // CPU-only variant runs GPU work on its cores.
            None => HPC_GPU_FLOPS / (self.cpu_peak_tflops() * 1e12 * ccd::EFFICIENCY),
        };
        let cpu = if self.cpu_cores() > 0 {
            HPC_CPU_FLOPS / (self.cpu_peak_tflops() * 1e12 * ccd::EFFICIENCY)
        } else {
            // Accelerator-only part: serial sections live on an external
            // host — every one pays link crossings, launch round trips
            // and synchronisation, an order-of-magnitude effective
            // penalty (the Amdahl cost the APU exists to remove).
            10.0 * HPC_CPU_FLOPS / (ccd::peak_dp_flops() * HOST_CCDS * ccd::EFFICIENCY)
        };
        gpu + cpu
    }

    /// Figure of merit for LLM decode: tokens/second streaming
    /// [`DECODE_WEIGHT_BYTES`] per token.
    #[must_use]
    pub(crate) fn decode_tokens_per_s(&self) -> f64 {
        if self.xcds() == 0 {
            return 0.0; // no tensor engines worth speaking of
        }
        self.memory_bandwidth().as_bytes_per_sec() * DECODE_BW_EFFICIENCY / DECODE_WEIGHT_BYTES
    }
}

/// One row of the design-space evaluation.
#[derive(Debug, Clone)]
pub struct VariantEval {
    /// The variant.
    pub variant: ModularVariant,
    /// Display name.
    pub name: String,
    /// FP64 matrix peak (TFLOP/s), if any GPU present.
    pub fp64_tflops: Option<f64>,
    /// CPU cores.
    pub cpu_cores: u32,
    /// Mixed-HPC phase time (s) — lower is better.
    pub hpc_time_s: f64,
    /// LLM decode rate (tokens/s).
    pub decode_tps: f64,
    /// Estimated TDP.
    pub tdp: Power,
}

/// Evaluates the whole design space for a representative mixed HPC phase
/// (`HPC_GPU_FLOPS` + `HPC_CPU_FLOPS`) and 70B FP16 decode.
#[must_use]
pub fn evaluate_design_space() -> Vec<VariantEval> {
    ModularVariant::ALL
        .iter()
        .map(|&v| VariantEval {
            variant: v,
            name: v.name(),
            fp64_tflops: v.gpu_peak_tflops(),
            cpu_cores: v.cpu_cores(),
            hpc_time_s: v.hpc_time(),
            decode_tps: v.decode_tokens_per_s(),
            tdp: v.tdp(),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shipping_points_match_products() {
        let x = ModularVariant::new(0);
        assert_eq!((x.xcds(), x.ccds(), x.cus()), (8, 0, 304));
        let a = ModularVariant::new(1);
        assert_eq!(
            (a.xcds(), a.ccds(), a.cus(), a.cpu_cores()),
            (6, 3, 228, 24)
        );
    }

    #[test]
    fn five_variants_enumerate() {
        assert_eq!(ModularVariant::ALL.len(), 5);
        let evals = evaluate_design_space();
        assert_eq!(evals.len(), 5);
        // Every variant keeps the same unified memory.
        for v in ModularVariant::ALL {
            assert!((v.memory_bandwidth().as_tb_s() - 5.3).abs() < 1e-9);
        }
    }

    #[test]
    fn mi300x_wins_pure_ai_mi300a_wins_mixed_hpc() {
        let x = ModularVariant::new(0);
        let a = ModularVariant::new(1);
        // Pure decode: MI300X >= MI300A (same memory; both fine) but
        // matrix peak is higher on X.
        assert!(x.gpu_peak_tflops().unwrap() > a.gpu_peak_tflops().unwrap());
        // Mixed HPC with a serial CPU component: the APU wins because
        // the accelerator-only part pays the host-link penalty.
        assert!(
            a.hpc_time() < x.hpc_time(),
            "MI300A {} vs MI300X {}",
            a.hpc_time(),
            x.hpc_time()
        );
        // And for this well-ported mix, MI300A is the sweet spot of the
        // whole space — the shipped HPC design point.
        let best = super::evaluate_design_space()
            .into_iter()
            .min_by(|p, q| p.hpc_time_s.total_cmp(&q.hpc_time_s))
            .expect("non-empty");
        assert_eq!(best.variant, a);
    }

    #[test]
    fn cpu_heavy_variants_lose_gpu_peak_monotonically() {
        let mut prev = f64::INFINITY;
        for v in ModularVariant::ALL {
            let peak = v.gpu_peak_tflops().unwrap_or(0.0);
            assert!(peak < prev || (peak == 0.0 && prev == 0.0));
            prev = peak.max(f64::MIN_POSITIVE);
        }
    }

    #[test]
    fn cpu_only_variant_has_no_decode() {
        assert_eq!(ModularVariant::new(4).decode_tokens_per_s(), 0.0);
        assert_eq!(ModularVariant::new(4).cpu_cores(), 96);
    }

    #[test]
    fn tdp_ordering_gpu_heavier() {
        assert!(ModularVariant::new(0).tdp().as_watts() > ModularVariant::new(4).tdp().as_watts());
    }

    #[test]
    #[should_panic(expected = "only four IODs")]
    fn five_ccd_iods_panics() {
        let _ = ModularVariant::new(5);
    }
}

//! The Figure 21 LLM-inference model: Llama-2 70B, batch size 1,
//! 2048 input tokens, 128 output tokens.
//!
//! Inference has two regimes the paper leans on throughout: the **prompt
//! (prefill) phase demands high compute throughput** while the **token
//! generation (decode) phase is typically constrained by memory
//! bandwidth** — every generated token streams the full weight set.
//! Median latency is prefill + 128 × decode, computed from platform
//! rooflines modulated by the software stack's achieved efficiencies.

use ehp_sim_core::time::SimTime;
use ehp_sim_core::units::{Bandwidth, Bytes};

/// A GPU platform as the LLM model sees it.
#[derive(Debug, Clone, Copy)]
pub struct GpuPlatform {
    /// Per-GPU HBM bandwidth.
    pub mem_bw: Bandwidth,
    /// Per-GPU dense FP16 matrix throughput (FLOP/s).
    pub fp16_flops: f64,
    /// Per-GPU dense FP8 throughput, if supported.
    pub(crate) fp8_flops: Option<f64>,
    /// Per-GPU memory capacity.
    pub capacity: Bytes,
    /// GPUs in the inference server (tensor parallel degree).
    pub gpus: u32,
    /// Per-layer all-reduce latency across the tensor-parallel group.
    pub(crate) allreduce: SimTime,
}

impl GpuPlatform {
    /// An 8×MI300X server (Figure 18(b)-style platform).
    #[must_use]
    pub fn mi300x_platform() -> GpuPlatform {
        GpuPlatform {
            mem_bw: Bandwidth::from_tb_s(5.3),
            fp16_flops: 1307.4e12,
            fp8_flops: Some(2614.9e12),
            capacity: Bytes::from_gib(192),
            gpus: 8,
            allreduce: SimTime::from_micros(18),
        }
    }

    /// An 8×baseline-GPU server of the competitive class Figure 21
    /// measures against (H100-class: ~3.35 TB/s, ~990 TF dense FP16).
    #[must_use]
    pub fn baseline_platform() -> GpuPlatform {
        GpuPlatform {
            mem_bw: Bandwidth::from_tb_s(3.35),
            fp16_flops: 989.0e12,
            fp8_flops: Some(1978.0e12),
            capacity: Bytes::from_gib(80),
            gpus: 8,
            allreduce: SimTime::from_micros(15),
        }
    }
}

/// The serving software stack's achieved efficiencies.
#[derive(Debug, Clone, Copy)]
pub struct SoftwareStack {
    /// Fraction of peak compute achieved in prefill.
    pub(crate) prefill_eff: f64,
    /// Fraction of peak bandwidth achieved in decode.
    pub(crate) decode_eff: f64,
    /// Whether the stack supports FP8 weights.
    pub(crate) supports_fp8: bool,
}

impl SoftwareStack {
    /// vLLM tuned for MI300X (ROCm): healthy efficiencies on both axes.
    #[must_use]
    pub fn vllm_rocm() -> SoftwareStack {
        SoftwareStack {
            prefill_eff: 0.55,
            decode_eff: 0.78,
            // "The vLLM library currently does not support FP8."
            supports_fp8: false,
        }
    }

    /// vLLM on the baseline platform at the time of measurement: the
    /// generic stack left much of the hardware on the table.
    #[must_use]
    pub(crate) fn vllm_baseline() -> SoftwareStack {
        SoftwareStack {
            prefill_eff: 0.40,
            decode_eff: 0.42,
            supports_fp8: false,
        }
    }

    /// TensorRT-LLM: "optimized specifically for the baseline GPU".
    #[must_use]
    pub fn tensorrt_llm() -> SoftwareStack {
        SoftwareStack {
            prefill_eff: 0.62,
            decode_eff: 0.85,
            supports_fp8: true,
        }
    }

    /// TensorRT-LLM running FP8 weights: doubles peak compute and halves
    /// weight traffic, at reduced achieved efficiency (quantisation
    /// scaffolding, immature FP8 kernels at the time).
    #[must_use]
    pub(crate) fn tensorrt_llm_fp8() -> SoftwareStack {
        SoftwareStack {
            prefill_eff: 0.50,
            decode_eff: 0.50,
            supports_fp8: true,
        }
    }
}

/// Weight precision for the run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WeightPrecision {
    /// 16-bit weights (2 bytes/parameter).
    Fp16,
    /// 8-bit weights (1 byte/parameter).
    Fp8,
}

impl WeightPrecision {
    /// Bytes per parameter.
    #[must_use]
    pub(crate) fn bytes_per_param(self) -> f64 {
        match self {
            WeightPrecision::Fp16 => 2.0,
            WeightPrecision::Fp8 => 1.0,
        }
    }
}

/// Batch size of every inference run.
const BATCH: u32 = 1;
/// Input (prompt) tokens.
const TOKENS_IN: u32 = 2048;
/// Output (generated) tokens.
const TOKENS_OUT: u32 = 128;

/// The inference workload configuration: the model, at batch
/// `BATCH` with `TOKENS_IN` prompt and `TOKENS_OUT` generated
/// tokens.
#[derive(Debug, Clone, Copy)]
pub struct InferenceConfig {
    /// Model parameters.
    pub params: f64,
    /// Transformer layers (for all-reduce counting).
    pub layers: u32,
    /// Weight precision.
    pub(crate) precision: WeightPrecision,
}

impl InferenceConfig {
    /// The Figure 21 configuration: Llama-2 70B, batch 1, 2048 in,
    /// 128 out.
    #[must_use]
    pub fn llama2_70b(precision: WeightPrecision) -> InferenceConfig {
        InferenceConfig {
            params: 70e9,
            layers: 80,
            precision,
        }
    }

    /// Weight bytes at the configured precision.
    #[must_use]
    pub(crate) fn weight_bytes(&self) -> f64 {
        self.params * self.precision.bytes_per_param()
    }
}

/// The latency breakdown of one inference run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InferenceLatency {
    /// Prefill (prompt processing) time in seconds.
    pub prefill_s: f64,
    /// Per-generated-token decode time in seconds.
    pub per_token_s: f64,
    /// End-to-end median latency in seconds.
    pub total_s: f64,
}

/// Errors from inference estimation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InferenceError {
    /// The weights (plus margin) do not fit in aggregate GPU memory.
    OutOfMemory,
    /// The stack does not support the requested precision.
    PrecisionUnsupported,
}

impl core::fmt::Display for InferenceError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            InferenceError::OutOfMemory => f.write_str("model does not fit in GPU memory"),
            InferenceError::PrecisionUnsupported => {
                f.write_str("software stack does not support the requested precision")
            }
        }
    }
}

/// Estimates median latency for a (platform, stack, config) combination.
///
/// # Errors
///
/// Returns [`InferenceError`] if the model cannot run on the platform.
pub fn estimate_latency(
    platform: &GpuPlatform,
    stack: &SoftwareStack,
    cfg: &InferenceConfig,
) -> Result<InferenceLatency, InferenceError> {
    if cfg.precision == WeightPrecision::Fp8 && !stack.supports_fp8 {
        return Err(InferenceError::PrecisionUnsupported);
    }
    let weights = cfg.weight_bytes();
    // 20% margin for KV cache and activations.
    let total_cap = platform.capacity.as_f64() * f64::from(platform.gpus);
    if weights * 1.2 > total_cap {
        return Err(InferenceError::OutOfMemory);
    }

    let n = f64::from(platform.gpus);
    let peak_flops = match cfg.precision {
        WeightPrecision::Fp16 => platform.fp16_flops,
        WeightPrecision::Fp8 => platform
            .fp8_flops
            .ok_or(InferenceError::PrecisionUnsupported)?,
    } * n;
    let bw = platform.mem_bw.as_bytes_per_sec() * n;

    // Prefill: ~2 * params flops per token over the whole prompt,
    // compute-bound, plus one all-reduce per layer.
    let prefill_flops = 2.0 * cfg.params * f64::from(TOKENS_IN) * f64::from(BATCH);
    let prefill_s = prefill_flops / (peak_flops * stack.prefill_eff)
        + f64::from(cfg.layers) * platform.allreduce.as_secs();

    // Decode: each token streams the weights once (batch 1), plus the
    // per-layer all-reduces.
    let per_token_s =
        weights / (bw * stack.decode_eff) + f64::from(cfg.layers) * platform.allreduce.as_secs();

    let total_s = prefill_s + per_token_s * f64::from(TOKENS_OUT);
    Ok(InferenceLatency {
        prefill_s,
        per_token_s,
        total_s,
    })
}

/// One bar of Figure 21.
#[derive(Debug, Clone)]
pub struct Figure21Row {
    /// Scenario label.
    pub scenario: &'static str,
    /// Baseline-platform latency (seconds); `None` if it cannot run.
    pub baseline_s: Option<f64>,
    /// MI300X latency (seconds).
    pub mi300x_s: f64,
    /// Baseline ÷ MI300X (>1 means MI300X is faster).
    pub mi300x_advantage: Option<f64>,
}

/// Regenerates Figure 21's three comparisons.
#[must_use]
pub fn figure21() -> Vec<Figure21Row> {
    let mi300x = GpuPlatform::mi300x_platform();
    let base = GpuPlatform::baseline_platform();
    let fp16 = InferenceConfig::llama2_70b(WeightPrecision::Fp16);
    let fp8 = InferenceConfig::llama2_70b(WeightPrecision::Fp8);

    let mi300x_vllm = estimate_latency(&mi300x, &SoftwareStack::vllm_rocm(), &fp16)
        .expect("fits")
        .total_s;

    let rows = vec![
        Figure21Row {
            scenario: "vLLM vs vLLM",
            baseline_s: estimate_latency(&base, &SoftwareStack::vllm_baseline(), &fp16)
                .ok()
                .map(|l| l.total_s),
            mi300x_s: mi300x_vllm,
            mi300x_advantage: None,
        },
        Figure21Row {
            scenario: "TensorRT-LLM vs vLLM",
            baseline_s: estimate_latency(&base, &SoftwareStack::tensorrt_llm(), &fp16)
                .ok()
                .map(|l| l.total_s),
            mi300x_s: mi300x_vllm,
            mi300x_advantage: None,
        },
        Figure21Row {
            scenario: "TensorRT-LLM FP8 vs vLLM FP16",
            baseline_s: estimate_latency(&base, &SoftwareStack::tensorrt_llm_fp8(), &fp8)
                .ok()
                .map(|l| l.total_s),
            mi300x_s: mi300x_vllm,
            mi300x_advantage: None,
        },
    ];
    rows.into_iter()
        .map(|mut r| {
            r.mi300x_advantage = r.baseline_s.map(|b| b / r.mi300x_s);
            r
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decode_dominates_at_batch_one() {
        let l = estimate_latency(
            &GpuPlatform::mi300x_platform(),
            &SoftwareStack::vllm_rocm(),
            &InferenceConfig::llama2_70b(WeightPrecision::Fp16),
        )
        .unwrap();
        assert!(
            l.per_token_s * 128.0 > l.prefill_s,
            "token generation phase is bandwidth-constrained and dominant"
        );
    }

    #[test]
    fn figure21_vllm_advantage_exceeds_2x() {
        let rows = figure21();
        let r = &rows[0];
        let adv = r.mi300x_advantage.unwrap();
        assert!(adv > 2.0, "paper: >2x improvement, got {adv:.2}");
    }

    #[test]
    fn figure21_tensorrt_advantage_near_1_3x() {
        let rows = figure21();
        let adv = rows[1].mi300x_advantage.unwrap();
        assert!(
            (1.15..1.55).contains(&adv),
            "paper: ~30% improvement, got {adv:.2}"
        );
    }

    #[test]
    fn figure21_mi300x_fp16_still_beats_fp8_baseline() {
        let rows = figure21();
        let adv = rows[2].mi300x_advantage.unwrap();
        assert!(
            adv > 1.0,
            "paper: MI300X (FP16) still ahead of the FP8 baseline, got {adv:.2}"
        );
        assert!(adv < 1.6, "but by a reduced margin, got {adv:.2}");
    }

    #[test]
    fn seventy_b_fp16_needs_multiple_baseline_gpus() {
        // 140 GB of weights cannot fit one 80 GB GPU.
        let mut single = GpuPlatform::baseline_platform();
        single.gpus = 1;
        let r = estimate_latency(
            &single,
            &SoftwareStack::tensorrt_llm(),
            &InferenceConfig::llama2_70b(WeightPrecision::Fp16),
        );
        assert_eq!(r, Err(InferenceError::OutOfMemory));
        // One MI300X (192 GB) does fit it — the capacity story.
        let mut mi300x = GpuPlatform::mi300x_platform();
        mi300x.gpus = 1;
        assert!(estimate_latency(
            &mi300x,
            &SoftwareStack::vllm_rocm(),
            &InferenceConfig::llama2_70b(WeightPrecision::Fp16)
        )
        .is_ok());
    }

    #[test]
    fn fp8_unsupported_on_vllm() {
        let r = estimate_latency(
            &GpuPlatform::mi300x_platform(),
            &SoftwareStack::vllm_rocm(),
            &InferenceConfig::llama2_70b(WeightPrecision::Fp8),
        );
        assert_eq!(r, Err(InferenceError::PrecisionUnsupported));
    }

    #[test]
    fn fp8_halves_decode_weight_traffic() {
        let base = GpuPlatform::baseline_platform();
        let stack = SoftwareStack::tensorrt_llm_fp8();
        let fp16 = estimate_latency(
            &base,
            &stack,
            &InferenceConfig::llama2_70b(WeightPrecision::Fp16),
        )
        .unwrap();
        let fp8 = estimate_latency(
            &base,
            &stack,
            &InferenceConfig::llama2_70b(WeightPrecision::Fp8),
        )
        .unwrap();
        // Same stack: per-token time roughly halves (minus all-reduce floor).
        assert!(fp8.per_token_s < 0.6 * fp16.per_token_s + 80.0 * base.allreduce.as_secs());
    }

    #[test]
    fn error_display_nonempty() {
        assert!(!InferenceError::OutOfMemory.to_string().is_empty());
        assert!(!InferenceError::PrecisionUnsupported.to_string().is_empty());
    }
}

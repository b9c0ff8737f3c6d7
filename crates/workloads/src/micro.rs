//! Microkernel models (STREAM, GEMM) used by the ablation benches and
//! examples. These run *through the simulator* (the memory subsystem and
//! compute models), not as closed-form formulas, so they exercise the
//! same code paths the figure experiments rely on.

use ehp_compute::dtype::{DataType, ExecUnit};
use ehp_core::products::Product;
use ehp_mem::request::MemRequest;
use ehp_mem::subsystem::{MemConfig, MemorySubsystem};
use ehp_sim_core::time::SimTime;
use ehp_sim_core::units::{Bandwidth, Bytes};

/// A STREAM-triad-style bandwidth kernel driven through the memory
/// subsystem simulator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StreamKernel {
    /// Elements per array (three arrays: a = b + s*c).
    pub elements: u64,
    /// Element size.
    pub element_bytes: Bytes,
    /// Request granularity (one cache line).
    pub line_bytes: Bytes,
}

impl StreamKernel {
    /// A default triad over `elements` FP64 values.
    #[must_use]
    pub fn fp64(elements: u64) -> StreamKernel {
        StreamKernel {
            elements,
            element_bytes: Bytes(8),
            line_bytes: Bytes(128),
        }
    }

    /// Total bytes moved (two reads + one write per element).
    #[must_use]
    pub fn total_bytes(&self) -> Bytes {
        self.element_bytes * (3 * self.elements)
    }

    /// Runs the triad through a memory subsystem; returns `(elapsed,
    /// achieved bandwidth)`.
    pub fn run(&self, mem: &mut MemorySubsystem) -> (SimTime, Bandwidth) {
        let line = self.line_bytes.as_u64();
        let lines_per_array = (self.element_bytes * self.elements).as_u64().div_ceil(line);
        // Array base addresses spaced far apart.
        let spacing = 1u64 << 33;
        let mut last = SimTime::ZERO;
        for l in 0..lines_per_array {
            let off = l * line;
            // b and c reads, a write — issued at t=0 batch-style; the
            // channels serialise internally.
            for (base, write) in [(spacing, false), (2 * spacing, false), (0, true)] {
                let req = if write {
                    MemRequest::write(base + off, line)
                } else {
                    MemRequest::read(base + off, line)
                };
                let resp = mem.access(SimTime::ZERO, req);
                if resp.completes_at > last {
                    last = resp.completes_at;
                }
            }
        }
        let bw = Bandwidth::from_bytes_per_sec(self.total_bytes().as_f64() / last.as_secs());
        (last, bw)
    }

    /// Runs on a fresh memory subsystem for a product.
    pub fn run_on(&self, product: Product) -> (SimTime, Bandwidth) {
        let cfg = match product {
            Product::Mi250x | Product::Ehpv4 => MemConfig::mi250x_hbm2e(),
            _ => MemConfig::mi300_hbm3(),
        };
        self.run(&mut MemorySubsystem::new(cfg))
    }
}

/// A square-GEMM compute kernel priced on a product's matrix cores.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GemmKernel {
    /// Matrix dimension (C = A·B, all n×n).
    pub n: u64,
    /// Element datatype.
    pub dtype: DataType,
    /// Fraction of peak sustained.
    pub efficiency: f64,
}

impl GemmKernel {
    /// A dense FP16 GEMM.
    #[must_use]
    pub fn fp16(n: u64) -> GemmKernel {
        GemmKernel {
            n,
            dtype: DataType::Fp16,
            efficiency: 0.8,
        }
    }

    /// Total floating-point operations (2·n³).
    #[must_use]
    pub fn flops(&self) -> f64 {
        2.0 * (self.n as f64).powi(3)
    }

    /// Memory traffic assuming blocked execution (~3·n² elements + one
    /// reload factor).
    #[must_use]
    pub fn bytes(&self) -> Bytes {
        Bytes(4 * self.n * self.n * self.dtype.bytes())
    }

    /// Execution time on a product (roofline).
    ///
    /// # Panics
    ///
    /// Panics if the product lacks matrix support for the datatype.
    #[must_use]
    pub fn time_on(&self, product: Product) -> SimTime {
        let spec = product.spec();
        let peak = spec
            .peak_tflops(ExecUnit::Matrix, self.dtype)
            .unwrap_or_else(|| panic!("{:?} lacks {} matrix support", product, self.dtype))
            * 1e12;
        let t_comp = self.flops() / (peak * self.efficiency);
        let t_mem = self.bytes().as_f64() / spec.memory_bandwidth().as_bytes_per_sec();
        SimTime::from_secs_f64(t_comp.max(t_mem))
    }

    /// Arithmetic intensity in flops/byte.
    #[must_use]
    pub fn intensity(&self) -> f64 {
        self.flops() / self.bytes().as_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_moves_expected_bytes() {
        let k = StreamKernel::fp64(1 << 16);
        assert_eq!(k.total_bytes(), Bytes(3 * 8 * (1 << 16)));
    }

    #[test]
    fn stream_mi300_beats_mi250x() {
        let k = StreamKernel::fp64(1 << 18);
        let (_, bw300) = k.run_on(Product::Mi300a);
        let (_, bw250) = k.run_on(Product::Mi250x);
        assert!(
            bw300.as_gb_s() > bw250.as_gb_s(),
            "HBM3 {bw300} vs HBM2e {bw250}"
        );
    }

    #[test]
    fn stream_achieves_reasonable_fraction_of_peak() {
        let k = StreamKernel::fp64(1 << 18);
        let (_, bw) = k.run_on(Product::Mi300a);
        // Batch issue at t=0 keeps every channel busy; expect a healthy
        // fraction of the 5.3 TB/s peak at HBM (or above it with cache
        // hits on the re-walked write array).
        assert!(bw.as_tb_s() > 1.0, "achieved only {bw}");
    }

    #[test]
    fn gemm_flops_and_intensity() {
        let g = GemmKernel::fp16(4096);
        assert!((g.flops() - 2.0 * 4096f64.powi(3)).abs() < 1.0);
        assert!(g.intensity() > 1000.0, "large GEMM is compute-bound");
    }

    #[test]
    fn gemm_scales_with_product_peak() {
        let g = GemmKernel::fp16(8192);
        let t250 = g.time_on(Product::Mi250x).as_secs();
        let t300a = g.time_on(Product::Mi300a).as_secs();
        let t300x = g.time_on(Product::Mi300x).as_secs();
        // Speedups track the FP16 peak ratios (2.56x and 3.41x).
        assert!((t250 / t300a - 980.6 / 383.0).abs() < 0.05);
        assert!((t250 / t300x - 1307.4 / 383.0).abs() < 0.05);
    }

    #[test]
    fn small_gemm_is_memory_bound() {
        let g = GemmKernel {
            n: 128,
            dtype: DataType::Fp16,
            efficiency: 0.8,
        };
        let spec = Product::Mi300a.spec();
        let t = g.time_on(Product::Mi300a).as_secs();
        let t_mem = g.bytes().as_f64() / spec.memory_bandwidth().as_bytes_per_sec();
        // SimTime quantises to picoseconds; allow that rounding.
        assert!((t - t_mem).abs() / t_mem < 1e-3);
    }

    #[test]
    #[should_panic(expected = "lacks FP8 matrix support")]
    fn fp8_gemm_on_cdna2_panics() {
        let g = GemmKernel {
            n: 1024,
            dtype: DataType::Fp8,
            efficiency: 0.8,
        };
        let _ = g.time_on(Product::Mi250x);
    }
}

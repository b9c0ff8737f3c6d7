//! Product spec sheets: MI250X, MI300A, MI300X, and the hypothetical
//! EHPv4 — plus the Figure 7 interface-bandwidth table and the
//! generational-uplift arithmetic behind Figure 19.

use ehp_compute::cu::GpuArch;
use ehp_compute::dtype::{DataType, ExecUnit};
use ehp_fabric::link::LinkTech;
use ehp_mem::hbm::HbmGeneration;
use ehp_sim_core::time::Frequency;
use ehp_sim_core::units::{Bandwidth, Bytes, Power};

/// Which product a model describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Product {
    /// The MI250X accelerator (CDNA 2, two GCDs, discrete).
    Mi250x,
    /// The MI300A APU (six XCDs + three CCDs, unified HBM).
    Mi300a,
    /// The MI300X accelerator (eight XCDs, 192 GB HBM).
    Mi300x,
    /// The EHPv4 research concept (four GPU chiplets + two CCDs over a
    /// reused server IOD).
    Ehpv4,
}

impl Product {
    /// All real products (EHPv4 excluded).
    pub const SHIPPING: [Product; 3] = [Product::Mi250x, Product::Mi300a, Product::Mi300x];

    /// The spec sheet.
    #[must_use]
    pub fn spec(self) -> ProductSpec {
        match self {
            Product::Mi250x => ProductSpec {
                name: "MI250X",
                gpu_arch: GpuArch::Cdna2,
                gpu_chiplets: 2,
                cus_per_chiplet: 110,
                gpu_clock: Frequency::from_ghz(1.7),
                ccds: 0,
                cpu_cores: 0,
                hbm: HbmGeneration::Hbm2e,
                x16_links: 8,
                x16_per_direction: Bandwidth::from_gb_s(32.0),
                tdp: Power::from_watts(560.0),
            },
            Product::Mi300a => ProductSpec {
                name: "MI300A",
                gpu_arch: GpuArch::Cdna3,
                gpu_chiplets: 6,
                cus_per_chiplet: 38,
                gpu_clock: Frequency::from_ghz(2.1),
                ccds: 3,
                cpu_cores: 24,
                hbm: HbmGeneration::Hbm3,
                x16_links: 8,
                x16_per_direction: Bandwidth::from_gb_s(64.0),
                tdp: Power::from_watts(550.0),
            },
            Product::Mi300x => ProductSpec {
                name: "MI300X",
                gpu_arch: GpuArch::Cdna3,
                gpu_chiplets: 8,
                cus_per_chiplet: 38,
                gpu_clock: Frequency::from_ghz(2.1),
                ccds: 0,
                cpu_cores: 0,
                hbm: HbmGeneration::Hbm3TwelveHigh,
                x16_links: 8,
                x16_per_direction: Bandwidth::from_gb_s(64.0),
                tdp: Power::from_watts(750.0),
            },
            Product::Ehpv4 => ProductSpec {
                name: "EHPv4",
                gpu_arch: GpuArch::Cdna2,
                gpu_chiplets: 4,
                cus_per_chiplet: 110,
                gpu_clock: Frequency::from_ghz(1.7),
                ccds: 2,
                cpu_cores: 16,
                hbm: HbmGeneration::Hbm2e,
                x16_links: 4,
                x16_per_direction: Bandwidth::from_gb_s(32.0),
                tdp: Power::from_watts(600.0),
            },
        }
    }
}

/// HBM stacks per package, on every product.
pub const HBM_STACKS: u32 = 8;

/// A product's architectural spec sheet.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProductSpec {
    /// Marketing name.
    pub name: &'static str,
    /// GPU architecture generation.
    pub(crate) gpu_arch: GpuArch,
    /// GPU chiplets (XCDs/GCDs).
    pub gpu_chiplets: u32,
    /// Enabled CUs per GPU chiplet.
    pub cus_per_chiplet: u32,
    /// GPU engine clock.
    pub(crate) gpu_clock: Frequency,
    /// CPU chiplets in package.
    pub ccds: u32,
    /// CPU cores in package.
    pub cpu_cores: u32,
    /// HBM generation.
    pub(crate) hbm: HbmGeneration,
    /// Off-package x16 links.
    pub x16_links: u32,
    /// Per-direction bandwidth of one x16 link.
    pub(crate) x16_per_direction: Bandwidth,
    /// Board/package thermal design power.
    pub tdp: Power,
}

impl ProductSpec {
    /// Total enabled CUs.
    #[must_use]
    pub fn total_cus(&self) -> u32 {
        self.gpu_chiplets * self.cus_per_chiplet
    }

    /// Peak dense throughput in TFLOP/s (or TOP/s for INT8); `None` where
    /// Table 1 says n/a.
    #[must_use]
    pub fn peak_tflops(&self, unit: ExecUnit, dtype: DataType) -> Option<f64> {
        let ops = self.gpu_arch.ops_per_clock(unit, dtype)?;
        Some(ops as f64 * f64::from(self.total_cus()) * self.gpu_clock.as_hz() / 1e12)
    }

    /// Peak HBM bandwidth.
    #[must_use]
    pub fn memory_bandwidth(&self) -> Bandwidth {
        self.hbm.stack_bandwidth().scale(f64::from(HBM_STACKS))
    }

    /// HBM capacity.
    #[must_use]
    pub fn memory_capacity(&self) -> Bytes {
        self.hbm.stack_capacity() * u64::from(HBM_STACKS)
    }

    /// Aggregate off-package I/O bandwidth (bidirectional).
    #[must_use]
    pub fn io_bandwidth(&self) -> Bandwidth {
        (self.x16_per_direction + self.x16_per_direction).scale(f64::from(self.x16_links))
    }

    /// The Figure 7 audit: bandwidth of each interface class on the
    /// socket.
    #[must_use]
    pub fn interface_bandwidths(&self) -> Vec<InterfaceBandwidth> {
        let bidi = |tech: LinkTech| {
            let s = tech.spec();
            s.per_direction + s.per_direction
        };
        vec![
            InterfaceBandwidth {
                name: "XCD/CCD 3D hybrid bond",
                count: self.gpu_chiplets + self.ccds,
                per_interface: bidi(LinkTech::HybridBond3D),
            },
            InterfaceBandwidth {
                name: "IOD-IOD USR",
                count: 4,
                per_interface: bidi(LinkTech::Usr),
            },
            InterfaceBandwidth {
                name: "HBM PHY",
                count: HBM_STACKS,
                per_interface: self.hbm.stack_bandwidth(),
            },
            InterfaceBandwidth {
                name: "x16 IF/PCIe",
                count: self.x16_links,
                per_interface: self.x16_per_direction + self.x16_per_direction,
            },
        ]
    }

    /// One row of the Figure 19 comparison against MI250X: ratios of
    /// peak rates, bandwidth, capacity and I/O.
    #[must_use]
    pub fn uplift_over_mi250x(&self) -> Uplift {
        let base = Product::Mi250x.spec();
        let ratio = |unit, dt| -> Option<f64> {
            match (self.peak_tflops(unit, dt), base.peak_tflops(unit, dt)) {
                (Some(a), Some(b)) => Some(a / b),
                _ => None,
            }
        };
        Uplift {
            fp64_vector: ratio(ExecUnit::Vector, DataType::Fp64),
            fp32_vector: ratio(ExecUnit::Vector, DataType::Fp32),
            fp64_matrix: ratio(ExecUnit::Matrix, DataType::Fp64),
            fp16_matrix: ratio(ExecUnit::Matrix, DataType::Fp16),
            int8_matrix: ratio(ExecUnit::Matrix, DataType::Int8),
            memory_bandwidth: self.memory_bandwidth().as_bytes_per_sec()
                / base.memory_bandwidth().as_bytes_per_sec(),
            memory_capacity: self.memory_capacity().as_f64() / base.memory_capacity().as_f64(),
            io_bandwidth: self.io_bandwidth().as_bytes_per_sec()
                / base.io_bandwidth().as_bytes_per_sec(),
        }
    }
}

/// One row of the Figure 7 interface-bandwidth audit.
#[derive(Debug, Clone)]
pub struct InterfaceBandwidth {
    /// Interface name.
    pub name: &'static str,
    /// Number of such interfaces per socket.
    pub count: u32,
    /// Bidirectional bandwidth per interface.
    pub per_interface: Bandwidth,
}

impl InterfaceBandwidth {
    /// Aggregate bidirectional bandwidth for all interfaces of this kind.
    #[must_use]
    pub fn aggregate(&self) -> Bandwidth {
        self.per_interface.scale(f64::from(self.count))
    }
}

/// Generational uplift ratios versus a baseline product (Figure 19).
#[derive(Debug, Clone, Copy)]
pub struct Uplift {
    /// FP64 vector ratio.
    pub fp64_vector: Option<f64>,
    /// FP32 vector ratio.
    pub fp32_vector: Option<f64>,
    /// FP64 matrix ratio.
    pub fp64_matrix: Option<f64>,
    /// FP16 matrix ratio.
    pub fp16_matrix: Option<f64>,
    /// INT8 matrix ratio.
    pub int8_matrix: Option<f64>,
    /// HBM bandwidth ratio.
    pub memory_bandwidth: f64,
    /// HBM capacity ratio.
    pub memory_capacity: f64,
    /// I/O bandwidth ratio.
    pub io_bandwidth: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cu_counts_match_paper() {
        assert_eq!(Product::Mi250x.spec().total_cus(), 220);
        assert_eq!(Product::Mi300a.spec().total_cus(), 228);
        assert_eq!(Product::Mi300x.spec().total_cus(), 304);
    }

    #[test]
    fn advertised_peak_rates_reproduce() {
        // Hand-checked against the public spec sheets that Figure 19
        // summarises.
        let a = Product::Mi300a.spec();
        let x = Product::Mi300x.spec();
        let m = Product::Mi250x.spec();
        let close = |v: Option<f64>, expect: f64| {
            let v = v.unwrap();
            assert!((v - expect).abs() / expect < 0.01, "{v} vs {expect}");
        };
        close(a.peak_tflops(ExecUnit::Vector, DataType::Fp64), 61.3);
        close(a.peak_tflops(ExecUnit::Matrix, DataType::Fp64), 122.6);
        close(a.peak_tflops(ExecUnit::Matrix, DataType::Fp16), 980.6);
        close(a.peak_tflops(ExecUnit::Matrix, DataType::Fp8), 1961.2);
        close(x.peak_tflops(ExecUnit::Vector, DataType::Fp64), 81.7);
        close(x.peak_tflops(ExecUnit::Matrix, DataType::Fp16), 1307.4);
        close(x.peak_tflops(ExecUnit::Matrix, DataType::Fp8), 2614.9);
        close(m.peak_tflops(ExecUnit::Vector, DataType::Fp64), 47.9);
        close(m.peak_tflops(ExecUnit::Matrix, DataType::Fp64), 95.7);
        close(m.peak_tflops(ExecUnit::Matrix, DataType::Fp16), 383.0);
        assert!(m.peak_tflops(ExecUnit::Matrix, DataType::Fp8).is_none());
    }

    #[test]
    fn memory_figures_match_paper() {
        let a = Product::Mi300a.spec();
        let x = Product::Mi300x.spec();
        let m = Product::Mi250x.spec();
        assert!((a.memory_bandwidth().as_tb_s() - 5.3).abs() < 0.01);
        assert_eq!(a.memory_capacity(), Bytes::from_gib(128));
        assert_eq!(x.memory_capacity(), Bytes::from_gib(192));
        assert_eq!(m.memory_capacity(), Bytes::from_gib(128));
        // "peak memory bandwidth has also improved by 70%"
        let up = a.uplift_over_mi250x();
        assert!(
            (1.55..1.75).contains(&up.memory_bandwidth),
            "{}",
            up.memory_bandwidth
        );
        // "total memory capacity is also 50% greater" (MI300X).
        assert!((x.uplift_over_mi250x().memory_capacity - 1.5).abs() < 1e-9);
    }

    #[test]
    fn io_doubled_over_mi250x() {
        let a = Product::Mi300a.spec();
        // "I/O (network) bandwidth has also doubled."
        assert!((a.uplift_over_mi250x().io_bandwidth - 2.0).abs() < 1e-9);
        // 8 x16 links at 128 GB/s bidirectional = 1024 GB/s per socket.
        assert!((a.io_bandwidth().as_gb_s() - 1024.0).abs() < 1e-6);
    }

    #[test]
    fn chiplet_ratio_is_two_to_one() {
        // "both ended up with the same ratio of two GPU compute chiplets
        // for every CCD (i.e., 4:2 in EHPv4, and 6:3 in MI300A)".
        for p in [Product::Mi300a, Product::Ehpv4] {
            let s = p.spec();
            assert_eq!(s.gpu_chiplets, 2 * s.ccds);
        }
        assert_eq!(Product::Mi300x.spec().ccds, 0);
    }

    #[test]
    fn mi300x_more_flops_per_package_than_mi300a() {
        // "The eight XCDs provide a total of 304 CUs, delivering more
        // FLOPS/mm^3 than MI300A."
        let a = Product::Mi300a.spec();
        let x = Product::Mi300x.spec();
        assert!(
            x.peak_tflops(ExecUnit::Matrix, DataType::Fp16).unwrap()
                > a.peak_tflops(ExecUnit::Matrix, DataType::Fp16).unwrap()
        );
    }

    #[test]
    fn figure7_interface_hierarchy() {
        let rows = Product::Mi300a.spec().interface_bandwidths();
        let get = |name: &str| {
            rows.iter()
                .find(|r| r.name.contains(name))
                .unwrap()
                .aggregate()
                .as_tb_s()
        };
        let bond = get("hybrid bond");
        let usr = get("USR");
        let hbm = get("HBM");
        let x16 = get("x16");
        // 3D bond > USR > HBM > x16 in aggregate.
        assert!(bond > usr, "bond {bond} vs usr {usr}");
        assert!(usr > hbm, "USR must not bottleneck HBM: {usr} vs {hbm}");
        assert!(hbm > x16);
        // "the USR interfaces deliver multiple TB/s of bandwidth".
        assert!(usr >= 2.0);
        // HBM aggregate ~5.3 TB/s.
        assert!((hbm - 5.3).abs() < 0.05);
    }
}

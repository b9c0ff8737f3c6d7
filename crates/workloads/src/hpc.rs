//! The Figure 20 HPC workload models.
//!
//! Each workload is characterised per timestep/iteration by: GPU
//! arithmetic work (with datatype, on the vector unit), GPU memory traffic, bytes
//! moved between host CPU and GPU memory (zero-copy on an APU), and a
//! serial CPU phase. A [`MachineModel`] prices those components for a
//! product; the speedup of MI300A over MI250X then emerges from the
//! same three mechanisms the paper names: higher compute throughput
//! (GROMACS, N-body), HBM3 bandwidth (HPCG), and the elimination of
//! CPU↔GPU data movement (OpenFOAM).

use ehp_compute::dtype::{DataType, ExecUnit};
use ehp_core::products::Product;
use ehp_sim_core::time::SimTime;
use ehp_sim_core::units::{Bandwidth, Bytes};

/// Sustained CPU throughput for the serial fraction (FLOP/s).
const CPU_FLOPS: f64 = 1.0e12;
/// GPU execution unit of every workload's kernels.
const UNIT: ExecUnit = ExecUnit::Vector;

/// A machine as seen by the workload models.
#[derive(Debug, Clone, Copy)]
pub struct MachineModel {
    /// Product identity.
    pub(crate) product: Product,
    /// Host↔device transfer bandwidth; `None` means unified memory
    /// (zero-copy).
    pub host_link: Option<Bandwidth>,
}

impl MachineModel {
    /// The MI250X machine: discrete GPU behind a host link.
    #[must_use]
    pub fn mi250x() -> MachineModel {
        MachineModel {
            product: Product::Mi250x,
            // Coherent IF host link on Frontier blades, PCIe-class
            // elsewhere; tens of GB/s effective either way.
            host_link: Some(Bandwidth::from_gb_s(55.0)),
        }
    }

    /// The MI300A machine: unified memory, no host link.
    #[must_use]
    pub fn mi300a() -> MachineModel {
        MachineModel {
            product: Product::Mi300a,
            host_link: None,
        }
    }

    /// Time for one workload step on this machine.
    #[must_use]
    pub fn step_time(&self, w: &HpcWorkload) -> SimTime {
        // GPU phase: roofline.
        let t_gpu = self
            .product
            .spec()
            .gpu_roofline_secs(UNIT, w.dtype, w.gpu_flops, w.gpu_bytes);
        // Host transfer: zero on unified memory.
        let t_xfer = match self.host_link {
            Some(link) => w.host_transfer.as_f64() / link.as_bytes_per_sec(),
            None => 0.0,
        };
        // Serial CPU phase.
        let t_cpu = w.cpu_flops / CPU_FLOPS;
        SimTime::from_secs_f64(t_gpu + t_xfer + t_cpu)
    }

    /// Total time for the workload's configured iteration count.
    #[must_use]
    pub fn run(&self, w: &HpcWorkload) -> SimTime {
        self.step_time(w) * u64::from(w.iterations)
    }
}

/// An HPC workload's per-step character.
#[derive(Debug, Clone, Copy)]
pub struct HpcWorkload {
    /// Workload name.
    pub name: &'static str,
    /// GPU arithmetic per step.
    pub(crate) gpu_flops: f64,
    /// GPU kernel datatype.
    pub(crate) dtype: DataType,
    /// GPU memory traffic per step.
    pub(crate) gpu_bytes: Bytes,
    /// Host↔device bytes per step (fields/halos/reductions).
    pub(crate) host_transfer: Bytes,
    /// Serial CPU work per step.
    pub(crate) cpu_flops: f64,
    /// Steps per run.
    pub iterations: u32,
}

impl HpcWorkload {
    /// GROMACS-class molecular dynamics: FP32-heavy non-bonded kernels,
    /// compute-bound on both machines, so the speedup tracks the FP32
    /// vector-throughput ratio.
    #[must_use]
    pub(crate) fn gromacs() -> HpcWorkload {
        HpcWorkload {
            name: "GROMACS",
            gpu_flops: 7.2e12,
            dtype: DataType::Fp32,
            gpu_bytes: Bytes(450 << 20), // compute-bound: non-bonded FP32 kernels
            host_transfer: Bytes(1 << 20),
            cpu_flops: 2.0e7,
            iterations: 100,
        }
    }

    /// The mini N-body kernel: pure FP64 all-pairs compute.
    #[must_use]
    pub(crate) fn nbody() -> HpcWorkload {
        HpcWorkload {
            name: "N-body",
            gpu_flops: 4.0e12,
            dtype: DataType::Fp64,
            gpu_bytes: Bytes(64 << 20),
            host_transfer: Bytes(512 << 10),
            cpu_flops: 1.0e7,
            iterations: 50,
        }
    }

    /// HPCG: sparse matrix-vector products — almost pure memory
    /// bandwidth.
    #[must_use]
    pub fn hpcg() -> HpcWorkload {
        HpcWorkload {
            name: "HPCG",
            gpu_flops: 2.0e9,
            dtype: DataType::Fp64,
            gpu_bytes: Bytes::from_gib(8),
            host_transfer: Bytes(8 << 20),
            cpu_flops: 2.0e7,
            iterations: 50,
        }
    }

    /// OpenFOAM-class CFD (HPC Motorbike): "(1) is computationally
    /// intense, (2) requires high memory bandwidth, and (3) also tends to
    /// exhibit a lot of CPU-GPU data movement in discrete-GPU
    /// implementations."
    #[must_use]
    pub fn openfoam() -> HpcWorkload {
        HpcWorkload {
            name: "OpenFOAM",
            gpu_flops: 2.5e10,
            dtype: DataType::Fp64,
            gpu_bytes: Bytes::from_gib(4),
            host_transfer: Bytes(100 << 20),
            cpu_flops: 4.0e8,
            iterations: 20,
        }
    }

    /// The Figure 20 set.
    #[must_use]
    pub fn figure20_set() -> [HpcWorkload; 4] {
        [
            HpcWorkload::gromacs(),
            HpcWorkload::nbody(),
            HpcWorkload::hpcg(),
            HpcWorkload::openfoam(),
        ]
    }
}

/// One bar of Figure 20.
#[derive(Debug, Clone)]
pub struct Figure20Row {
    /// Workload name.
    pub workload: &'static str,
    /// MI250X time (seconds).
    pub mi250x_s: f64,
    /// MI300A time (seconds).
    pub mi300a_s: f64,
    /// Speedup of MI300A over MI250X.
    pub speedup: f64,
}

/// Regenerates Figure 20: MI300A speedup over MI250X per workload.
#[must_use]
pub fn figure20() -> Vec<Figure20Row> {
    let base = MachineModel::mi250x();
    let apu = MachineModel::mi300a();
    HpcWorkload::figure20_set()
        .iter()
        .map(|w| {
            let t_base = base.run(w).as_secs();
            let t_apu = apu.run(w).as_secs();
            Figure20Row {
                workload: w.name,
                mi250x_s: t_base,
                mi300a_s: t_apu,
                speedup: t_base / t_apu,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn speedup(w: &HpcWorkload) -> f64 {
        MachineModel::mi250x().run(w).as_secs() / MachineModel::mi300a().run(w).as_secs()
    }

    #[test]
    fn every_workload_speeds_up() {
        for w in HpcWorkload::figure20_set() {
            let s = speedup(&w);
            assert!(s > 1.0, "{} regressed: {s:.2}", w.name);
            assert!(s < 4.0, "{} implausibly fast: {s:.2}", w.name);
        }
    }

    #[test]
    fn hpcg_speedup_tracks_bandwidth_ratio() {
        // "HBM3's higher memory bandwidth vs. the HBM2e memory in MI250X
        // (HPCG)": the speedup should sit near 5.3/3.28 ~= 1.62.
        let s = speedup(&HpcWorkload::hpcg());
        assert!((1.4..1.8).contains(&s), "HPCG speedup {s:.2}");
    }

    #[test]
    fn nbody_speedup_tracks_fp64_compute_ratio() {
        // FP64 vector ratio is 61.3/47.9 ~= 1.28.
        let s = speedup(&HpcWorkload::nbody());
        assert!((1.1..1.5).contains(&s), "N-body speedup {s:.2}");
    }

    #[test]
    fn gromacs_speedup_from_compute() {
        // FP32 compute-driven, capped by the MI300A bandwidth roof:
        // between the FP64 ratio and the raw FP32 ratio (2.56).
        let s = speedup(&HpcWorkload::gromacs());
        assert!((1.5..2.6).contains(&s), "GROMACS speedup {s:.2}");
    }

    #[test]
    fn openfoam_approaches_paper_2_75x() {
        // The headline result: ~2.75x from compute + bandwidth + the
        // elimination of CPU-GPU copies.
        let s = speedup(&HpcWorkload::openfoam());
        assert!((2.4..3.1).contains(&s), "OpenFOAM speedup {s:.2}");
    }

    #[test]
    fn openfoam_wins_mostly_from_zero_copy() {
        // Ablation: give MI300A a host link too; the speedup should drop
        // well below 2x, showing data movement is the dominant term.
        let w = HpcWorkload::openfoam();
        let mut apu_with_link = MachineModel::mi300a();
        apu_with_link.host_link = MachineModel::mi250x().host_link;
        let s_with_copies =
            MachineModel::mi250x().run(&w).as_secs() / apu_with_link.run(&w).as_secs();
        let s_zero_copy = speedup(&w);
        assert!(
            s_zero_copy > s_with_copies + 0.5,
            "zero-copy {s_zero_copy:.2} vs with-copies {s_with_copies:.2}"
        );
    }

    #[test]
    fn figure20_rows_complete() {
        let rows = figure20();
        assert_eq!(rows.len(), 4);
        let of = rows.iter().find(|r| r.workload == "OpenFOAM").unwrap();
        let max = rows.iter().map(|r| r.speedup).fold(0.0, f64::max);
        assert_eq!(of.speedup, max, "OpenFOAM is the biggest winner");
        for r in &rows {
            assert!((r.mi250x_s / r.mi300a_s - r.speedup).abs() < 1e-12);
        }
    }

    #[test]
    fn step_time_positive_and_iterations_scale() {
        let w = HpcWorkload::hpcg();
        let m = MachineModel::mi300a();
        let one = m.step_time(&w);
        let all = m.run(&w);
        assert!(one > SimTime::ZERO);
        assert_eq!(all, one * u64::from(w.iterations));
    }
}

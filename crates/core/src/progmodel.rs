//! The programming/execution models of Figures 14 and 15.
//!
//! Figure 14 contrasts three ways to run an init → kernel → post-process
//! workload: (a) CPU-only, (b) CPU + discrete GPU with separate memories
//! (explicit `hipMalloc`/`hipMemcpy` and a PCIe bottleneck), and (c) the
//! APU with one unified HBM — no allocation mirroring, no copies.
//! Figure 15 adds fine-grained decoupling: per-element completion flags
//! let the CPU consume results while the GPU still produces, made safe by
//! the APU's cache-coherent memory.

use ehp_compute::ccd;
use ehp_compute::xcd::{XcdModel, XcdSpec};
use ehp_sim_core::time::SimTime;
use ehp_sim_core::units::{Bandwidth, Bytes};

/// The shape of a Figure-14-style workload.
#[derive(Debug, Clone, Copy)]
pub struct WorkloadShape {
    /// Bytes the CPU initialises and the kernel reads.
    pub(crate) bytes_in: Bytes,
    /// Bytes the kernel produces and the CPU post-processes.
    pub(crate) bytes_out: Bytes,
    /// Kernel arithmetic work (FP64 vector, at the roofline's kernel
    /// efficiency; see `XcdModel::roofline_time`).
    pub kernel_flops: f64,
    /// CPU post-processing arithmetic work (at `ccd::phase_time`'s
    /// efficiency).
    pub(crate) cpu_post_flops: f64,
}

impl WorkloadShape {
    /// A compute-heavy vector workload of `n` FP64 elements (a couple of
    /// thousand flops each — an iterative stencil/N-body class kernel)
    /// with light CPU post-processing.
    #[must_use]
    pub fn vector_scale(n: u64) -> WorkloadShape {
        WorkloadShape {
            bytes_in: Bytes(n * 8),
            bytes_out: Bytes(n * 8),
            kernel_flops: n as f64 * 1600.0,
            cpu_post_flops: n as f64,
        }
    }
}

/// One phase of an execution timeline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Phase {
    /// Phase name (`"init"`, `"h2d"`, `"kernel"`, `"d2h"`, `"post"`, …).
    pub name: &'static str,
    /// Start time.
    pub start: SimTime,
    /// End time.
    pub end: SimTime,
}

impl Phase {
    /// Phase duration.
    #[must_use]
    pub fn duration(&self) -> SimTime {
        self.end - self.start
    }
}

/// An execution timeline: ordered phases.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Timeline {
    phases: Vec<Phase>,
}

impl Timeline {
    /// Appends a phase running `[start, start+dur)`.
    fn push(&mut self, name: &'static str, start: SimTime, dur: SimTime) -> SimTime {
        let end = start + dur;
        self.phases.push(Phase { name, start, end });
        end
    }

    /// All phases.
    #[must_use]
    pub fn phases(&self) -> &[Phase] {
        &self.phases
    }

    /// Total elapsed time (end of the last-finishing phase).
    #[must_use]
    pub fn total(&self) -> SimTime {
        self.phases
            .iter()
            .map(|p| p.end)
            .max()
            .unwrap_or(SimTime::ZERO)
    }

    /// Sum of durations of phases with the given name.
    #[must_use]
    pub fn total_for(&self, name: &str) -> SimTime {
        self.phases
            .iter()
            .filter(|p| p.name == name)
            .map(Phase::duration)
            .sum()
    }
}

/// The three execution models of Figure 14.
#[derive(Debug, Clone)]
pub enum ExecutionModel {
    /// Figure 14(a): everything on the CPU.
    CpuOnly {
        /// CPU chiplet count.
        ccds: u32,
        /// CPU-visible memory bandwidth.
        mem_bw: Bandwidth,
    },
    /// Figure 14(b): host CPU plus a discrete GPU with its own memory.
    DiscreteGpu {
        /// Host CPU chiplet count.
        ccds: u32,
        /// Host (DDR) memory bandwidth.
        host_bw: Bandwidth,
        /// Host↔device link bandwidth (PCIe class, "typically tens of
        /// GB/s").
        link_bw: Bandwidth,
        /// Device GPU model.
        xcd: XcdModel,
        /// GPU chiplet count.
        xcds: u32,
        /// Device (HBM) bandwidth.
        device_bw: Bandwidth,
    },
    /// Figure 14(c): the APU with one unified HBM.
    Apu {
        /// CPU chiplet count.
        ccds: u32,
        /// GPU model.
        xcd: XcdModel,
        /// GPU chiplet count.
        xcds: u32,
        /// Unified HBM bandwidth (GPU side).
        hbm_bw: Bandwidth,
        /// CPU-attainable share of HBM bandwidth (CCD fabric limit).
        cpu_hbm_bw: Bandwidth,
    },
}

impl ExecutionModel {
    /// An EPYC-class CPU-only host (DDR at ~300 GB/s).
    #[must_use]
    pub fn cpu_only() -> ExecutionModel {
        ExecutionModel::CpuOnly {
            ccds: 8,
            mem_bw: Bandwidth::from_gb_s(300.0),
        }
    }

    /// EPYC host + discrete MI250X over PCIe-class links.
    #[must_use]
    pub fn discrete_mi250x() -> ExecutionModel {
        ExecutionModel::DiscreteGpu {
            ccds: 8,
            host_bw: Bandwidth::from_gb_s(300.0),
            link_bw: Bandwidth::from_gb_s(55.0),
            xcd: XcdModel::new(XcdSpec::mi250x_gcd()),
            xcds: 2,
            device_bw: Bandwidth::from_tb_s(3.28),
        }
    }

    /// The MI300A APU.
    #[must_use]
    pub fn apu_mi300a() -> ExecutionModel {
        ExecutionModel::Apu {
            ccds: 3,
            xcd: XcdModel::new(XcdSpec::mi300()),
            xcds: 6,
            hbm_bw: Bandwidth::from_tb_s(5.3),
            cpu_hbm_bw: Bandwidth::from_gb_s(320.0),
        }
    }

    fn cpu_time(ccds: u32, flops: f64, bytes: Bytes, bw: Bandwidth) -> SimTime {
        // Use all cores of all CCDs; ccd::phase_time handles one CCD, so
        // scale flops down by the CCD count.
        ccd::phase_time(
            flops / f64::from(ccds),
            Bytes(bytes.as_u64() / u64::from(ccds).max(1)),
            bw.scale(1.0 / f64::from(ccds)),
        )
    }

    fn gpu_time(xcd: &XcdModel, xcds: u32, shape: &WorkloadShape, bw: Bandwidth) -> SimTime {
        let bytes = shape.bytes_in + shape.bytes_out;
        xcd.roofline_time(
            shape.kernel_flops / f64::from(xcds),
            Bytes(bytes.as_u64() / u64::from(xcds)),
            bw.scale(1.0 / f64::from(xcds)),
        )
    }

    /// Runs the workload under this model (Figure 14's flow) and returns
    /// the timeline.
    #[must_use]
    pub fn run(&self, shape: &WorkloadShape) -> Timeline {
        let mut tl = Timeline::default();
        let mut t = SimTime::ZERO;
        match self {
            ExecutionModel::CpuOnly { ccds, mem_bw } => {
                t = tl.push("init", t, mem_bw.transfer_time(shape.bytes_in));
                // CPU does the "kernel" work too.
                t = tl.push(
                    "kernel",
                    t,
                    Self::cpu_time(
                        *ccds,
                        shape.kernel_flops,
                        shape.bytes_in + shape.bytes_out,
                        *mem_bw,
                    ),
                );
                tl.push(
                    "post",
                    t,
                    Self::cpu_time(*ccds, shape.cpu_post_flops, shape.bytes_out, *mem_bw),
                );
            }
            ExecutionModel::DiscreteGpu {
                ccds,
                host_bw,
                link_bw,
                xcd,
                xcds,
                device_bw,
            } => {
                // malloc + hipMalloc are cheap but present.
                t = tl.push("alloc", t, SimTime::from_micros(10));
                t = tl.push("init", t, host_bw.transfer_time(shape.bytes_in));
                // hipMemcpy host->device over the link.
                t = tl.push("h2d", t, link_bw.transfer_time(shape.bytes_in));
                t = tl.push("kernel", t, Self::gpu_time(xcd, *xcds, shape, *device_bw));
                // hipMemcpy device->host.
                t = tl.push("d2h", t, link_bw.transfer_time(shape.bytes_out));
                tl.push(
                    "post",
                    t,
                    Self::cpu_time(*ccds, shape.cpu_post_flops, shape.bytes_out, *host_bw),
                );
            }
            ExecutionModel::Apu {
                ccds,
                xcd,
                xcds,
                hbm_bw,
                cpu_hbm_bw,
            } => {
                t = tl.push("alloc", t, SimTime::from_micros(5));
                // CPU initialises straight into HBM; kernel launches with
                // no copies; CPU post-processes in place.
                t = tl.push("init", t, cpu_hbm_bw.transfer_time(shape.bytes_in));
                t = tl.push("kernel", t, Self::gpu_time(xcd, *xcds, shape, *hbm_bw));
                tl.push(
                    "post",
                    t,
                    Self::cpu_time(*ccds, shape.cpu_post_flops, shape.bytes_out, *cpu_hbm_bw),
                );
            }
        }
        tl
    }

    /// Figure 15: fine-grained producer/consumer overlap on the APU. The
    /// kernel writes completion flags per chunk; the CPU (spinning on the
    /// coherent flags) post-processes each chunk as it lands.
    ///
    /// Non-APU models fall back to [`ExecutionModel::run`] (the paper's
    /// point: the pattern *requires* coherent unified memory).
    ///
    /// # Panics
    ///
    /// Panics if `chunks` is zero.
    #[must_use]
    pub fn run_overlapped(&self, shape: &WorkloadShape, chunks: u32) -> Timeline {
        assert!(chunks > 0, "need at least one chunk");
        let ExecutionModel::Apu {
            ccds,
            xcd,
            xcds,
            hbm_bw,
            cpu_hbm_bw,
        } = self
        else {
            return self.run(shape);
        };

        let mut tl = Timeline::default();
        let t = tl.push("alloc", SimTime::ZERO, SimTime::from_micros(5));
        let t = tl.push("init", t, cpu_hbm_bw.transfer_time(shape.bytes_in));

        let kernel_total = Self::gpu_time(xcd, *xcds, shape, *hbm_bw);
        let post_total = Self::cpu_time(*ccds, shape.cpu_post_flops, shape.bytes_out, *cpu_hbm_bw);
        let kernel_chunk = kernel_total / u64::from(chunks);
        let post_chunk = post_total / u64::from(chunks);

        tl.push("kernel", t, kernel_total);
        let mut cpu_free = t;
        for c in 0..chunks {
            let produced = t + kernel_chunk * u64::from(c + 1);
            let start = if produced > cpu_free {
                produced
            } else {
                cpu_free
            };
            cpu_free = tl.push("post", start, post_chunk);
        }
        tl
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shape() -> WorkloadShape {
        WorkloadShape::vector_scale(256 << 20) // 2 GiB in, 2 GiB out
    }

    #[test]
    fn discrete_has_copies_apu_does_not() {
        let disc = ExecutionModel::discrete_mi250x().run(&shape());
        let apu = ExecutionModel::apu_mi300a().run(&shape());
        let has = |tl: &Timeline, name: &str| tl.phases().iter().any(|p| p.name == name);
        assert!(has(&disc, "h2d"));
        assert!(has(&disc, "d2h"));
        assert!(!has(&apu, "h2d"), "no hipMemcpy on the APU");
        assert!(!has(&apu, "d2h"));
    }

    #[test]
    fn apu_beats_discrete_beats_cpu() {
        for s in [WorkloadShape::vector_scale(64 << 20), shape()] {
            let cpu = ExecutionModel::cpu_only().run(&s).total();
            let disc = ExecutionModel::discrete_mi250x().run(&s).total();
            let apu = ExecutionModel::apu_mi300a().run(&s).total();
            assert!(disc < cpu, "discrete {disc} should beat CPU-only {cpu}");
            assert!(apu < disc, "APU {apu} should beat discrete {disc}");
        }
    }

    #[test]
    fn pcie_dominates_discrete_for_low_intensity() {
        // For this bandwidth-heavy kernel the two PCIe copies dominate the
        // discrete timeline.
        let tl = ExecutionModel::discrete_mi250x().run(&shape());
        let copies = tl.total_for("h2d") + tl.total_for("d2h");
        let kernel = tl.total_for("kernel");
        assert!(
            copies > kernel * 2,
            "copies {copies} should dwarf kernel {kernel}"
        );
    }

    #[test]
    fn overlap_beats_coarse_sync() {
        let s = shape();
        let apu = ExecutionModel::apu_mi300a();
        let coarse = apu.run(&s).total();
        let fine = apu.run_overlapped(&s, 16).total();
        assert!(fine < coarse, "overlapped {fine} vs coarse {coarse}");
        // The saving approaches the post-processing time.
        let post = apu.run(&s).total_for("post");
        let saving = coarse - fine;
        assert!(saving.as_secs() > 0.5 * post.as_secs() * (15.0 / 16.0) * 0.5);
    }

    #[test]
    fn more_chunks_more_overlap() {
        let s = shape();
        let apu = ExecutionModel::apu_mi300a();
        let few = apu.run_overlapped(&s, 2).total();
        let many = apu.run_overlapped(&s, 64).total();
        assert!(many <= few);
    }

    #[test]
    fn overlap_on_non_apu_falls_back() {
        let s = shape();
        let disc = ExecutionModel::discrete_mi250x();
        assert_eq!(disc.run_overlapped(&s, 8), disc.run(&s));
    }

    #[test]
    fn phase_accounting() {
        let tl = ExecutionModel::apu_mi300a().run(&shape());
        // Phases are contiguous and ordered.
        for pair in tl.phases().windows(2) {
            assert!(pair[1].start >= pair[0].start);
        }
        assert_eq!(tl.phases().len(), 4); // alloc, init, kernel, post
        assert!(tl.total() > SimTime::ZERO);
    }

    #[test]
    #[should_panic(expected = "at least one chunk")]
    fn zero_chunks_panics() {
        let _ = ExecutionModel::apu_mi300a().run_overlapped(&shape(), 0);
    }
}

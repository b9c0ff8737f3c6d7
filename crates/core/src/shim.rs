//! The library-dispatch shim of Section VI.B.
//!
//! "This permits standard library APIs, such as BLAS or LAPACK, to be
//! linked to both CPU and GPU libraries. The generic library calls
//! invoke a thin shim library that dispatches the work to either the CPU
//! or GPU processing elements depending on simple heuristics such as
//! problem size, etc. This enables code that might be CPU-only ... to be
//! offloaded to an APU without explicit code refactoring."
//!
//! The shim prices both execution targets with the machine models —
//! including the kernel-launch overhead that makes tiny problems faster
//! on the CPU — and dispatches to the cheaper one. On a *discrete* GPU
//! the same call must also pay transfer costs, pushing the crossover far
//! higher: the APU's unified memory is what makes fine-grained
//! offloading profitable.

use ehp_compute::ccd;
use ehp_compute::dtype::{DataType, ExecUnit};
use ehp_sim_core::time::SimTime;
use ehp_sim_core::units::{Bandwidth, Bytes};

use crate::products::{Product, ProductSpec};

/// Where the shim decided to run a call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Target {
    /// Run on the CPU complex.
    Cpu,
    /// Offload to the GPU.
    Gpu,
}

/// Datatype of every library call.
const CALL_DTYPE: DataType = DataType::Fp64;
/// Execution unit a GPU implementation of a call would use.
const CALL_UNIT: ExecUnit = ExecUnit::Matrix;

/// A generic library call, BLAS-style: FP64 on the matrix unit.
#[derive(Debug, Clone, Copy)]
pub struct LibraryCall {
    /// Arithmetic work.
    pub(crate) flops: f64,
    /// Operand + result bytes touched.
    pub(crate) bytes: Bytes,
}

impl LibraryCall {
    /// A square FP64 DGEMM of dimension `n`.
    #[must_use]
    pub fn dgemm(n: u64) -> LibraryCall {
        LibraryCall {
            flops: 2.0 * (n as f64).powi(3),
            bytes: Bytes(3 * n * n * 8),
        }
    }
}

/// The shim's cost model for one machine.
///
/// # Examples
///
/// ```
/// use ehp_core::shim::{LibraryCall, Shim, Target};
///
/// let shim = Shim::mi300a();
/// assert_eq!(shim.dispatch(&LibraryCall::dgemm(16)), Target::Cpu);
/// assert_eq!(shim.dispatch(&LibraryCall::dgemm(4096)), Target::Gpu);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Shim {
    spec: ProductSpec,
    /// CPU-visible memory bandwidth.
    cpu_bw: Bandwidth,
    /// Fixed kernel-launch overhead for a GPU call.
    launch_overhead: SimTime,
    /// Per-call host↔device transfer bandwidth; `None` = unified memory.
    transfer: Option<Bandwidth>,
}

impl Shim {
    /// The MI300A shim: unified memory, cheap launches.
    #[must_use]
    pub fn mi300a() -> Shim {
        Shim {
            spec: Product::Mi300a.spec(),
            cpu_bw: Bandwidth::from_gb_s(320.0),
            launch_overhead: SimTime::from_micros(4),
            transfer: None,
        }
    }

    /// A discrete-GPU shim (EPYC host + MI250X over a host link): the
    /// same heuristic must amortise data movement too.
    #[must_use]
    pub fn discrete_mi250x() -> Shim {
        Shim {
            spec: Product::Mi250x.spec(),
            cpu_bw: Bandwidth::from_gb_s(300.0),
            launch_overhead: SimTime::from_micros(10),
            transfer: Some(Bandwidth::from_gb_s(55.0)),
        }
    }

    /// Estimated CPU time for a call (3 CCDs' worth on MI300A; the
    /// estimate uses one CCD scaled by the package core count).
    #[must_use]
    pub(crate) fn cpu_time(&self, call: &LibraryCall) -> SimTime {
        let ccds = self.spec.ccds.max(8); // discrete host has a full EPYC
        ccd::phase_time(
            call.flops / f64::from(ccds),
            Bytes(call.bytes.as_u64() / u64::from(ccds)),
            self.cpu_bw.scale(1.0 / f64::from(ccds)),
        )
    }

    /// Estimated GPU time for a call, including launch overhead and (on
    /// discrete machines) the round-trip transfer.
    #[must_use]
    pub(crate) fn gpu_time(&self, call: &LibraryCall) -> SimTime {
        let peak = self
            .spec
            .peak_tflops(CALL_UNIT, CALL_DTYPE)
            .expect("dtype supported")
            * 1e12
            * 0.7;
        let bw = self.spec.memory_bandwidth().as_bytes_per_sec() * 0.8;
        let t_exec = (call.flops / peak).max(call.bytes.as_f64() / bw);
        let t_xfer = self
            .transfer
            .map_or(0.0, |l| call.bytes.as_f64() / l.as_bytes_per_sec());
        self.launch_overhead + SimTime::from_secs_f64(t_exec + t_xfer)
    }

    /// The dispatch decision for a call.
    #[must_use]
    pub fn dispatch(&self, call: &LibraryCall) -> Target {
        if self.gpu_time(call) < self.cpu_time(call) {
            Target::Gpu
        } else {
            Target::Cpu
        }
    }

    /// The smallest DGEMM dimension the shim offloads (binary search).
    #[must_use]
    pub fn dgemm_crossover(&self) -> u64 {
        let (mut lo, mut hi) = (1u64, 1 << 16);
        while lo < hi {
            let mid = (lo + hi) / 2;
            if self.dispatch(&LibraryCall::dgemm(mid)) == Target::Gpu {
                hi = mid;
            } else {
                lo = mid + 1;
            }
        }
        lo
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A DAXPY of length `n` (y += a·x): bandwidth-bound, so the
    /// unit's peak does not matter.
    fn daxpy(n: u64) -> LibraryCall {
        LibraryCall {
            flops: 2.0 * n as f64,
            bytes: Bytes(3 * n * 8),
        }
    }

    #[test]
    fn tiny_calls_stay_on_cpu() {
        let shim = Shim::mi300a();
        assert_eq!(shim.dispatch(&LibraryCall::dgemm(16)), Target::Cpu);
    }

    #[test]
    fn large_calls_offload() {
        let shim = Shim::mi300a();
        assert_eq!(shim.dispatch(&LibraryCall::dgemm(4096)), Target::Gpu);
    }

    #[test]
    fn apu_crossover_is_far_lower_than_discrete() {
        // The Section VI.B point: unified memory makes offload profitable
        // at much smaller problems.
        let apu = Shim::mi300a().dgemm_crossover();
        let discrete = Shim::discrete_mi250x().dgemm_crossover();
        assert!(
            apu * 2 <= discrete,
            "APU crossover n={apu} vs discrete n={discrete}"
        );
        assert!(apu >= 32, "launch overhead keeps tiny GEMMs on the CPU");
    }

    #[test]
    fn dispatch_picks_the_faster_target() {
        let shim = Shim::mi300a();
        for n in [64u64, 256, 1024, 4096] {
            let call = LibraryCall::dgemm(n);
            let t = match shim.dispatch(&call) {
                Target::Cpu => shim.cpu_time(&call),
                Target::Gpu => shim.gpu_time(&call),
            };
            assert!(t <= shim.cpu_time(&call));
            assert!(t <= shim.gpu_time(&call));
        }
    }

    #[test]
    fn crossover_is_monotone_decision() {
        // Above the crossover every size offloads; below, none does.
        let shim = Shim::mi300a();
        let x = shim.dgemm_crossover();
        for n in [x, x + 1, 2 * x, 4 * x] {
            assert_eq!(shim.dispatch(&LibraryCall::dgemm(n)), Target::Gpu);
        }
        for n in (1..x).rev().take(4) {
            assert_eq!(shim.dispatch(&LibraryCall::dgemm(n)), Target::Cpu);
        }
    }

    #[test]
    fn daxpy_offload_needs_bigger_vectors_than_gemm_flops_suggest() {
        // Bandwidth-bound DAXPY gains less from the GPU than GEMM;
        // with transfers (discrete) it essentially never pays.
        let discrete = Shim::discrete_mi250x();
        assert_eq!(discrete.dispatch(&daxpy(1 << 28)), Target::Cpu);
        let apu = Shim::mi300a();
        assert_eq!(apu.dispatch(&daxpy(1 << 28)), Target::Gpu);
    }
}

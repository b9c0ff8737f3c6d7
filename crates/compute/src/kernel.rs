//! A small kernel IR and wavefront-level timing estimator.
//!
//! The roofline models answer "how long at peak"; this module answers
//! the microarchitectural question underneath: given an instruction mix,
//! memory latencies, and the occupancy computed by
//! [`occupancy`](crate::occupancy), how many cycles does one wavefront's
//! pass take and how much of the memory latency do the other resident
//! wavefronts hide? It feeds per-workgroup durations to the dispatcher.

use ehp_sim_core::time::Cycle;

use crate::cu::CuModel;
use crate::dtype::{DataType, ExecUnit};
use crate::occupancy::{CuResources, KernelResources, Occupancy};

/// One kernel instruction class at wavefront granularity.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Instr {
    /// Vector ALU op (per-lane) of a datatype.
    VAlu(DataType),
    /// Matrix-core op (MFMA) of a datatype.
    Mfma(DataType),
    /// Global memory load of one line per wavefront.
    Load,
    /// Global memory store of one line per wavefront.
    Store,
    /// LDS access.
    Lds,
    /// Scalar/branch bookkeeping.
    Scalar,
}

/// A straight-line kernel body executed `trips` times per wavefront.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelProgram {
    /// Instruction sequence of one loop body.
    pub body: Vec<Instr>,
    /// Loop trip count per wavefront.
    pub trips: u32,
    /// Resource appetite (for occupancy).
    pub resources: KernelResources,
}

impl KernelProgram {
    /// A streaming triad body: 2 loads, 1 FMA, 1 store.
    #[must_use]
    pub fn triad(trips: u32) -> KernelProgram {
        KernelProgram {
            body: vec![
                Instr::Load,
                Instr::Load,
                Instr::VAlu(DataType::Fp64),
                Instr::Store,
                Instr::Scalar,
            ],
            trips,
            resources: KernelResources::light(),
        }
    }

    /// A GEMM inner body: 2 LDS reads feeding an MFMA.
    #[must_use]
    pub fn gemm_inner(dtype: DataType, trips: u32) -> KernelProgram {
        KernelProgram {
            body: vec![Instr::Lds, Instr::Lds, Instr::Mfma(dtype), Instr::Scalar],
            trips,
            resources: KernelResources {
                waves_per_workgroup: 4,
                vgprs_per_wave: 128,
                lds_per_workgroup: ehp_sim_core::units::Bytes::from_kib(16),
            },
        }
    }

    /// Global loads per wavefront over the whole kernel.
    #[must_use]
    pub fn loads(&self) -> u64 {
        self.count(|i| matches!(i, Instr::Load)) * u64::from(self.trips)
    }

    /// Global stores per wavefront over the whole kernel.
    #[must_use]
    pub fn stores(&self) -> u64 {
        self.count(|i| matches!(i, Instr::Store)) * u64::from(self.trips)
    }

    fn count(&self, f: impl Fn(&Instr) -> bool) -> u64 {
        self.body.iter().filter(|i| f(i)).count() as u64
    }
}

/// Memory-system parameters the estimator needs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MemoryEnv {
    /// Average global-load latency in CU cycles.
    pub load_latency: u64,
    /// LDS access latency in cycles.
    pub lds_latency: u64,
}

impl MemoryEnv {
    /// MI300-class figures at ~2.1 GHz: ~350 cycles to HBM through the
    /// Infinity Cache hierarchy, ~20 cycles to LDS.
    #[must_use]
    pub fn mi300() -> MemoryEnv {
        MemoryEnv {
            load_latency: 350,
            lds_latency: 20,
        }
    }
}

/// The timing estimate for one wavefront through the kernel.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KernelTiming {
    /// Issue cycles (execution-unit occupancy) per wavefront.
    pub issue_cycles: Cycle,
    /// Raw memory-stall cycles per wavefront before latency hiding.
    pub raw_stall_cycles: Cycle,
    /// Stall cycles remaining after multi-wavefront latency hiding.
    pub exposed_stall_cycles: Cycle,
    /// Total cycles per wavefront.
    pub total_cycles: Cycle,
    /// Occupancy used for hiding.
    pub occupancy: Occupancy,
}

impl KernelTiming {
    /// Fraction of cycles doing useful issue (the achieved-efficiency
    /// proxy the roofline models consume).
    #[must_use]
    pub fn issue_efficiency(&self) -> f64 {
        self.issue_cycles.as_f64() / self.total_cycles.as_f64()
    }
}

/// Estimates wavefront timing for a program on a CU.
///
/// Issue cost per instruction: vector/matrix ops take
/// `64 / ops_per_clock x (ops per lane)` — folded to 1–4 cycles for the
/// supported types; loads/stores/LDS/scalar issue in 1 cycle. Memory
/// latency is overlapped by the other `waves_per_cu - 1` resident
/// wavefronts: exposed stall = raw stall ÷ waves resident.
///
/// # Panics
///
/// Panics if the program uses a datatype/unit unsupported on the CU.
///
/// # Examples
///
/// ```
/// use ehp_compute::cu::{CuModel, CuSpec};
/// use ehp_compute::kernel::{estimate, KernelProgram, MemoryEnv};
/// use ehp_compute::occupancy::CuResources;
///
/// let cu = CuModel::new(CuSpec::cdna3());
/// let t = estimate(&cu, &CuResources::cdna3(), &KernelProgram::triad(32),
///                  &MemoryEnv::mi300());
/// assert!(t.issue_efficiency() > 0.0 && t.issue_efficiency() <= 1.0);
/// ```
///
#[must_use]
pub fn estimate(
    cu: &CuModel,
    res: &CuResources,
    prog: &KernelProgram,
    mem: &MemoryEnv,
) -> KernelTiming {
    let occupancy = Occupancy::compute(res, &prog.resources);

    let mut issue = 0u64;
    let mut raw_stall = 0u64;
    for i in &prog.body {
        match *i {
            Instr::VAlu(dt) => {
                let rate = cu
                    .spec()
                    .arch
                    .ops_per_clock(ExecUnit::Vector, dt)
                    .unwrap_or_else(|| panic!("{dt} unsupported on vector unit"));
                // One op per lane, 64 lanes per wavefront.
                issue += (64u64).div_ceil(rate.min(64));
            }
            Instr::Mfma(dt) => {
                let rate = cu
                    .spec()
                    .arch
                    .ops_per_clock(ExecUnit::Matrix, dt)
                    .unwrap_or_else(|| panic!("{dt} unsupported on matrix unit"));
                // An MFMA retires a block of rate ops/clk; count 4-cycle
                // class issue for the big blocks.
                issue += (4 * 1024u64).div_ceil(rate);
            }
            Instr::Load => {
                issue += 1;
                raw_stall += mem.load_latency;
            }
            Instr::Store => issue += 1,
            Instr::Lds => {
                issue += 1;
                raw_stall += mem.lds_latency;
            }
            Instr::Scalar => issue += 1,
        }
    }
    issue *= u64::from(prog.trips);
    raw_stall *= u64::from(prog.trips);

    let waves = u64::from(occupancy.waves_per_cu.max(1));
    let exposed = raw_stall / waves;
    KernelTiming {
        issue_cycles: Cycle(issue),
        raw_stall_cycles: Cycle(raw_stall),
        exposed_stall_cycles: Cycle(exposed),
        total_cycles: Cycle(issue + exposed),
        occupancy,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cu::CuSpec;

    fn cu() -> CuModel {
        CuModel::new(CuSpec::cdna3())
    }

    #[test]
    fn triad_timing_is_dominated_by_memory_at_low_occupancy() {
        let mut prog = KernelProgram::triad(100);
        // Register-hog variant: occupancy collapses to few waves.
        prog.resources.vgprs_per_wave = 512;
        let t = estimate(&cu(), &CuResources::cdna3(), &prog, &MemoryEnv::mi300());
        assert!(t.exposed_stall_cycles > t.issue_cycles);
        assert!(t.issue_efficiency() < 0.5);
    }

    #[test]
    fn full_occupancy_hides_most_latency() {
        let prog = KernelProgram::triad(100);
        let t = estimate(&cu(), &CuResources::cdna3(), &prog, &MemoryEnv::mi300());
        assert_eq!(t.occupancy.waves_per_cu, 32);
        assert!(
            t.exposed_stall_cycles * 4 < t.raw_stall_cycles,
            "32 waves should hide most of the {} raw stalls",
            t.raw_stall_cycles
        );
    }

    #[test]
    fn occupancy_improves_efficiency_monotonically() {
        let mem = MemoryEnv::mi300();
        let mut prev = 0.0;
        for vgprs in [512u32, 256, 128, 64] {
            let mut prog = KernelProgram::triad(50);
            prog.resources.vgprs_per_wave = vgprs;
            let t = estimate(&cu(), &CuResources::cdna3(), &prog, &mem);
            assert!(
                t.issue_efficiency() >= prev,
                "fewer registers -> more waves -> better hiding"
            );
            prev = t.issue_efficiency();
        }
    }

    #[test]
    fn gemm_inner_is_compute_dominated() {
        let prog = KernelProgram::gemm_inner(DataType::Fp16, 200);
        let t = estimate(&cu(), &CuResources::cdna3(), &prog, &MemoryEnv::mi300());
        assert!(
            t.issue_efficiency() > 0.6,
            "LDS-fed MFMA stream should keep the pipes busy: {:.2}",
            t.issue_efficiency()
        );
    }

    #[test]
    fn fp8_mfma_issues_faster_than_fp64() {
        let mem = MemoryEnv::mi300();
        let f8 = estimate(
            &cu(),
            &CuResources::cdna3(),
            &KernelProgram::gemm_inner(DataType::Fp8, 100),
            &mem,
        );
        let f64_ = estimate(
            &cu(),
            &CuResources::cdna3(),
            &KernelProgram::gemm_inner(DataType::Fp64, 100),
            &mem,
        );
        assert!(f8.issue_cycles < f64_.issue_cycles);
    }

    #[test]
    fn loads_and_stores_counted() {
        let prog = KernelProgram::triad(7);
        assert_eq!(prog.loads(), 14);
        assert_eq!(prog.stores(), 7);
    }

    #[test]
    #[should_panic(expected = "unsupported on matrix unit")]
    fn cdna2_fp8_mfma_panics() {
        let cu2 = CuModel::new(CuSpec::cdna2());
        let prog = KernelProgram::gemm_inner(DataType::Fp8, 1);
        let _ = estimate(&cu2, &CuResources::cdna3(), &prog, &MemoryEnv::mi300());
    }
}

//! Integration: the unified-memory story end to end — coherent CPU↔GPU
//! handoffs through the socket's probe filter (`ehp-coherence`), and the
//! programming-model comparison against a discrete-GPU configuration
//! (`ehp-core`).

use ehp_coherence::probe_filter::{DataSource, LineState, ProbeFilter};
use ehp_core::progmodel::{ExecutionModel, WorkloadShape};
use ehp_sim_core::ids::AgentId;

const CPU: AgentId = AgentId(0);
const GPU: AgentId = AgentId(1);

#[test]
fn producer_consumer_round_trip_through_socket() {
    let mut pf = ProbeFilter::new();
    // CPU produces 1 MiB of initialised data (8192 128-byte lines).
    let lines = 8192u64;
    for line in 0..lines {
        pf.write(CPU, line);
    }
    // GPU consumes it: every line is forwarded coherently from the CPU.
    for line in 0..lines {
        let r = pf.read(GPU, line);
        assert_eq!(r.probes, vec![CPU]);
        assert_eq!(r.data_from, DataSource::Cache(CPU));
    }
    assert_eq!(pf.probes_sent(), lines);
    assert_eq!(pf.cache_to_cache(), lines);

    // GPU writes results back; CPU polls one flag line (Figure 15's
    // fine-grained pattern) and must observe the latest version.
    let flag = lines;
    pf.write(GPU, flag);
    pf.read(CPU, flag);
    assert_eq!(pf.observed_version(CPU, flag), pf.version(flag));
    pf.check_invariants().unwrap();
}

#[test]
fn repeated_handoffs_alternate_ownership() {
    let mut pf = ProbeFilter::new();
    let line = 0x40;
    for round in 0..10 {
        let w = pf.write(CPU, line);
        if round > 0 {
            assert_eq!(w.data_from, DataSource::Cache(GPU));
        }
        let r = pf.write(GPU, line);
        assert_eq!(r.probes, vec![CPU]);
    }
    assert_eq!(pf.state(line), LineState::Owned(GPU));
    pf.check_invariants().unwrap();
}

#[test]
fn apu_model_wins_figure14_comparison_at_scale() {
    for shift in [20u32, 24, 28] {
        let shape = WorkloadShape::vector_scale(1 << shift);
        let disc = ExecutionModel::discrete_mi250x().run(&shape).total();
        let apu = ExecutionModel::apu_mi300a().run(&shape).total();
        assert!(
            apu < disc,
            "n=2^{shift}: APU {apu} should beat discrete {disc}"
        );
    }
}

#[test]
fn unified_memory_flag_in_socket_sim() {
    // The Figure 15 spin-loop: GPU writes a flag; the CPU's next read
    // must be sourced from the GPU's cache, not stale memory.
    let mut pf = ProbeFilter::new();
    let line = 0x00F1_A600 / 128;
    pf.write(GPU, line);
    assert_eq!(pf.version(line), 1);
    let r = pf.read(CPU, line);
    assert_eq!(r.data_from, DataSource::Cache(GPU));
    assert_eq!(pf.observed_version(CPU, line), 1);
}

//! Integration: kernel dispatch through the ACEs generating memory
//! traffic through the interleaver, Infinity Cache and HBM channels —
//! the full launch-to-memory path spanning `ehp-dispatch`, `ehp-mem`
//! and `ehp-fabric`.

use ehp_dispatch::aql::AqlPacket;
use ehp_dispatch::dispatcher::{DispatcherConfig, MultiXcdDispatcher};
use ehp_fabric::fabric::FabricSim;
use ehp_fabric::topology::{NodeKey, Topology};
use ehp_mem::request::MemRequest;
use ehp_mem::subsystem::{MemConfig, MemorySubsystem};
use ehp_sim_core::time::{Cycle, SimTime};
use ehp_sim_core::units::Bytes;

/// Runs a kernel whose workgroups each stream memory, and returns the
/// memory-side completion time.
fn run_kernel_with_memory(workgroups: u32, lines_per_wg: u64) -> (Cycle, SimTime, MemorySubsystem) {
    let mut d = MultiXcdDispatcher::new(DispatcherConfig::mi300a_partition());
    let run = d.dispatch(&AqlPacket::dispatch_1d(workgroups * 64, 64), |_| 2_000);
    assert_eq!(run.workgroups_launched, u64::from(workgroups));

    // Each workgroup streams `lines_per_wg` cache lines from its slice of
    // a shared array.
    let mut mem = MemorySubsystem::new(MemConfig::mi300_hbm3());
    let mut mem_done = SimTime::ZERO;
    for wg in 0..u64::from(workgroups) {
        let base = wg * lines_per_wg * 128;
        for l in 0..lines_per_wg {
            let resp = mem.access(SimTime::ZERO, MemRequest::read(base + l * 128, 128));
            if resp.completes_at > mem_done {
                mem_done = resp.completes_at;
            }
        }
    }
    (run.completion_at, mem_done, mem)
}

#[test]
fn full_path_dispatch_to_memory() {
    let (completion, mem_done, mem) = run_kernel_with_memory(228, 64);
    assert!(completion > Cycle(0));
    assert!(mem_done > SimTime::ZERO);
    assert_eq!(mem.reads(), 228 * 64);
    // The streamed array spreads across many channels.
    let busy_channels = mem
        .channels()
        .iter()
        .filter(|c| c.hbm_bytes_moved() > Bytes::ZERO || c.icache_bytes() > Bytes::ZERO)
        .count();
    assert!(busy_channels > 64, "only {busy_channels} channels touched");
}

#[test]
fn dispatch_and_fabric_compose() {
    // A dispatch's completion signal conceptually crosses the fabric's
    // high-priority channel; verify the fabric path the signal takes
    // exists on the MI300A package for every XCD pair.
    let fab = FabricSim::new(Topology::mi300_package(3));
    for a in 0..6u32 {
        for b in 0..6u32 {
            let lat = fab
                .path_latency(NodeKey::Chiplet(a), NodeKey::Chiplet(b))
                .expect("XCDs mutually reachable");
            if a != b {
                assert!(lat > SimTime::ZERO);
            }
        }
    }
}

#[test]
fn locality_policy_concentrates_reuse() {
    // Workgroups that re-walk a working set which fits the Infinity
    // Cache slices are served mostly from the slices after the first
    // pass.
    let mut mem = MemorySubsystem::new(MemConfig::mi300_hbm3());
    for _pass in 0..4 {
        for l in 0..4096u64 {
            mem.access(SimTime::ZERO, MemRequest::read(l * 128, 128));
        }
    }
    let hit = mem.icache_hit_rate().expect("slices present");
    assert!(hit > 0.7, "reuse hit rate {hit}");
}

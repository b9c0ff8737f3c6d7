//! Quickstart: read the MI300A spec sheet and its Figure 7 interface
//! bandwidths, time a transfer across the package fabric, dispatch a
//! kernel across the six XCDs, hand cache lines from CPU to GPU through
//! the probe filter, and stream them through the memory subsystem.
//!
//! Run with: `cargo run -p ehp-bench --example quickstart`

use ehp_coherence::probe_filter::ProbeFilter;
use ehp_core::products::Product;
use ehp_dispatch::aql::AqlPacket;
use ehp_dispatch::dispatcher::{DispatcherConfig, MultiXcdDispatcher};
use ehp_fabric::fabric::FabricSim;
use ehp_fabric::topology::{NodeKey, Topology};
use ehp_mem::request::MemRequest;
use ehp_mem::subsystem::{MemConfig, MemorySubsystem};
use ehp_sim_core::ids::AgentId;
use ehp_sim_core::time::SimTime;
use ehp_sim_core::units::Bytes;

fn main() {
    // 1. The spec sheet: 6 XCDs + 3 CCDs on four IODs, 8 HBM3 stacks.
    let spec = Product::Mi300a.spec();
    println!("== {} ==", spec.name);
    println!("  CUs: {} ({} XCDs)", spec.total_cus(), spec.gpu_chiplets);
    println!("  CPU cores: {} ({} CCDs)", spec.cpu_cores, spec.ccds);
    println!(
        "  HBM: {} at {}",
        spec.memory_capacity(),
        spec.memory_bandwidth()
    );
    for i in spec.interface_bandwidths() {
        println!(
            "  {:<24} x{:<2} {:>8.2} TB/s aggregate",
            i.name,
            i.count,
            i.aggregate().as_tb_s()
        );
    }

    // 2. A timed 64 MiB transfer from XCD 0 to an HBM stack attached
    //    to the diagonal IOD.
    let mut fabric = FabricSim::new(Topology::mi300_package(3));
    let mb = Bytes::from_mib(64);
    let t = fabric
        .send(SimTime::ZERO, NodeKey::Chiplet(0), NodeKey::HbmStack(7), mb)
        .expect("every XCD reaches every stack");
    println!(
        "\nXCD0 -> HBM stack 7: {} hops, {:.1} GB/s effective",
        t.hops,
        mb.as_f64() / t.latency().as_secs() / 1e9
    );

    // 3. A kernel described by an HSA AQL packet: every XCD's ACE reads
    //    the packet and launches a subset of the workgroups (Figure 13's
    //    cooperative protocol).
    let pkt = AqlPacket::dispatch_1d(228 * 256, 256); // 228 workgroups
    let mut dispatcher = MultiXcdDispatcher::new(DispatcherConfig::mi300a_partition());
    let run = dispatcher.dispatch(&pkt, |_wg| 10_000);
    println!("\nKernel dispatch:");
    println!(
        "  workgroups: {} split {:?}",
        run.workgroups_launched, run.per_xcd
    );
    println!(
        "  completion signalled at {} (sync overhead {})",
        run.completion_at,
        run.sync_overhead()
    );

    // 4. The CPU initialises 64 lines in unified memory (no hipMemcpy)
    //    and the GPU consumes them: the probe filter forwards the dirty
    //    data cache to cache — the hardware coherence the programming
    //    model relies on.
    let cpu = AgentId(0);
    let gpu = AgentId(1);
    let mut coherence = ProbeFilter::new();
    for line in 0..64u64 {
        coherence.write(cpu, line);
    }
    for line in 0..64u64 {
        coherence.read(gpu, line);
    }
    println!("\nGPU consumed the 64 CPU-written lines");
    println!("  coherence probes sent: {}", coherence.probes_sent());
    println!("  cache-to-cache transfers: {}", coherence.cache_to_cache());

    // 5. The same lines read twice through the 128-channel memory
    //    subsystem: the second pass hits the Infinity Cache.
    let mut mem = MemorySubsystem::new(MemConfig::mi300_hbm3());
    for _pass in 0..2 {
        for line in 0..64u64 {
            mem.access(SimTime::ZERO, MemRequest::read(line * 128, 128));
        }
    }
    println!("\nMemory subsystem:");
    println!("  reads: {}  writes: {}", mem.reads(), mem.writes());
    if let Some(hr) = mem.icache_hit_rate() {
        println!("  Infinity Cache hit rate: {:.0}%", hr * 100.0);
    }
    if let Some(lat) = mem.mean_latency_ns() {
        println!("  mean access latency: {lat:.1} ns");
    }
}

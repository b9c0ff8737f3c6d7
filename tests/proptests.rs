//! Property-style tests on the core data structures and invariants
//! across crates.
//!
//! The build environment is offline, so the `proptest` crate cannot be
//! vendored; each property instead runs a SplitMix64-driven case loop
//! with a fixed seed — deterministic, reproducible, and shrink-free but
//! still covering hundreds of random inputs per invariant.

use ehp_coherence::multisocket::{AgentClass, MultiSocketCoherence};
use ehp_coherence::probe_filter::{LineState, ProbeFilter};
use ehp_dispatch::aql::AqlPacket;
use ehp_dispatch::dispatcher::{DispatcherConfig, MultiXcdDispatcher};
use ehp_mem::interleave::{InterleaveConfig, Interleaver};
use ehp_mem::trace::{Pattern, TraceConfig};
use ehp_package::bond::{BpvTarget, HybridBondInterface};
use ehp_package::geometry::{Point, Transform};
use ehp_sim_core::ids::AgentId;
use ehp_sim_core::rng::SplitMix64;

fn rng_for(tag: &str) -> SplitMix64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in tag.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    SplitMix64::new(h)
}

fn f64_in(rng: &mut SplitMix64, lo: f64, hi: f64) -> f64 {
    lo + rng.next_f64() * (hi - lo)
}

/// The MI300 decode: 8 stacks x 16 channels x 16 banks.
fn mi300_interleaver() -> Interleaver {
    Interleaver::new(InterleaveConfig::mi300(), 16).unwrap()
}

/// The (stack, channel within the stack, flat channel) of `addr`, read
/// off its flat bank (`channel x 16 + bank`).
fn place(il: &Interleaver, addr: u64) -> (usize, usize, usize) {
    let channel = il.decode(addr).0 / 16;
    (channel / 16, channel % 16, channel)
}

/// Interleaving is a pure function and always lands in range.
#[test]
fn interleave_in_range_and_deterministic() {
    let il = mi300_interleaver();
    let mut rng = rng_for("interleave_in_range");
    for _ in 0..512 {
        let addr = rng.next_u64();
        let (stack, channel_in_stack, channel) = place(&il, addr);
        assert!(stack < 8);
        assert!(channel_in_stack < 16);
        assert!(channel < 128);
        assert_eq!(il.decode(addr), il.decode(addr));
    }
}

/// Two addresses in the same 4 KB granule always share a stack; two
/// addresses in the same 256 B sub-granule share a channel.
#[test]
fn interleave_granule_cohesion() {
    let il = mi300_interleaver();
    let mut rng = rng_for("interleave_granule_cohesion");
    for _ in 0..512 {
        let base = rng.next_u64() & !0xFFF;
        let off = rng.next_below(4096);
        assert_eq!(place(&il, base).0, place(&il, base + off).0);
        let line_base = base + (off & !0xFF);
        assert_eq!(
            place(&il, line_base).2,
            place(&il, line_base + (off & 0xFF)).2
        );
    }
}

/// A sequential address sweep touches every channel within any
/// 128-granule window (bandwidth-spreading property).
#[test]
fn interleave_spreads_sequential_sweeps() {
    let il = mi300_interleaver();
    let mut rng = rng_for("interleave_spreads");
    for _ in 0..64 {
        let start_granule = rng.next_below(1_000_000);
        let mut stacks = std::collections::HashSet::new();
        for g in 0..64u64 {
            stacks.insert(place(&il, (start_granule + g) * 4096).0);
        }
        assert!(
            stacks.len() >= 6,
            "only {} stacks in 64 granules",
            stacks.len()
        );
    }
}

/// The decorrelated socket placement is a bijection on channel
/// granules: distinct 256 B-aligned addresses never collide on a
/// (flat bank, bank-local address) pair, and the mapping is
/// deterministic. This is the property that lets sharded replay
/// partition requests by flat bank without losing or double-counting
/// any access (DESIGN.md §14).
#[test]
fn socket_bank_placement_is_bijective() {
    use ehp_mem::subsystem::{MemConfig, MemorySubsystem};
    let mem = MemorySubsystem::new(MemConfig::mi300_hbm3());
    let mut rng = rng_for("socket_bank_placement_bijective");
    let mut seen = std::collections::HashMap::new();
    for _ in 0..4096 {
        let addr = rng.next_below(1 << 40) & !0xFF;
        let key = mem.flat_bank_of(addr);
        assert_eq!(key, mem.flat_bank_of(addr), "placement must be pure");
        if let Some(prev) = seen.insert(key, addr) {
            assert_eq!(
                prev, addr,
                "{prev:#x} and {addr:#x} collide on flat bank {} local {:#x}",
                key.0, key.1
            );
        }
    }
}

/// A dense 256 B-granule sweep populates every one of the socket's
/// 2048 flat banks near-uniformly: channel and bank selection draw
/// from disjoint address bits, so neither starves the other
/// (DESIGN.md §14 — the correlated mapping reached only 4 banks per
/// channel).
#[test]
fn socket_sweep_covers_all_flat_banks_uniformly() {
    use ehp_mem::subsystem::{MemConfig, MemorySubsystem};
    let mem = MemorySubsystem::new(MemConfig::mi300_hbm3());
    let total = mem.total_banks();
    assert_eq!(total, 2048, "128 channels x 16 banks");
    let sweeps: u64 = 200_000;
    let mut counts = vec![0u64; total];
    for i in 0..sweeps {
        let (flat, _) = mem.flat_bank_of(i * 256);
        counts[flat] += 1;
    }
    let min = *counts.iter().min().unwrap();
    let max = *counts.iter().max().unwrap();
    let mean = sweeps as f64 / total as f64;
    assert!(min > 0, "some flat bank never touched by a dense sweep");
    assert!(
        (max as f64) <= mean * 2.0 && (min as f64) >= mean * 0.5,
        "skewed bank load: min {min} / max {max} vs mean {mean:.1}"
    );
}

/// A cooperative dispatch launches every workgroup exactly once and
/// spreads them round-robin: no XCD gets more than one workgroup above
/// another.
#[test]
fn dispatch_covers_every_workgroup() {
    let mut rng = rng_for("dispatch_covers_every_workgroup");
    for _ in 0..64 {
        let workgroups = 1 + rng.next_below(4_999) as u32;
        let xcds = 1 + rng.next_below(8) as u32;
        let mut d = MultiXcdDispatcher::new(DispatcherConfig {
            xcds,
            ..DispatcherConfig::mi300a_partition()
        });
        let run = d.dispatch(&AqlPacket::dispatch_1d(workgroups * 64, 64), |_| 100);
        assert_eq!(run.per_xcd.len(), xcds as usize);
        assert_eq!(run.per_xcd.iter().sum::<u64>(), u64::from(workgroups));
        let max = run.per_xcd.iter().max().unwrap();
        let min = run.per_xcd.iter().min().unwrap();
        assert!(max - min <= 1, "{:?}", run.per_xcd);
    }
}

/// Probe-filter safety: after any op sequence there is at most one
/// owner per line and invariants hold.
#[test]
fn coherence_single_writer() {
    let mut rng = rng_for("coherence_single_writer");
    for _ in 0..32 {
        let n_ops = 1 + rng.next_below(2_000);
        let mut pf = ProbeFilter::new();
        for _ in 0..n_ops {
            let a = AgentId(rng.next_below(5) as u32);
            let l = rng.next_below(32) * 64;
            if rng.chance(0.5) {
                pf.read(a, l);
            } else {
                pf.write(a, l);
            }
            // SWMR: owner implies no sharers (by type), shared implies
            // non-empty set.
            if let LineState::Shared(s) = pf.state(l) {
                assert!(!s.is_empty());
            }
        }
        assert!(pf.check_invariants().is_ok());
    }
}

/// Geometric transforms are involutions and preserve containment.
#[test]
fn transforms_preserve_geometry() {
    let mut rng = rng_for("transforms_preserve_geometry");
    for _ in 0..256 {
        let p = Point::new(f64_in(&mut rng, 0.0, 100.0), f64_in(&mut rng, 0.0, 100.0));
        let w = f64_in(&mut rng, 100.0, 200.0);
        let h = f64_in(&mut rng, 100.0, 200.0);
        for t in Transform::ALL {
            let q = t.apply_point(p, w, h);
            // Still inside the die outline.
            assert!(q.x >= -1e-9 && q.x <= w + 1e-9);
            assert!(q.y >= -1e-9 && q.y <= h + 1e-9);
            // Involution.
            let back = t.apply_point(q, w, h);
            assert!(back.approx_eq(p));
        }
    }
}

/// Workgroup math: total workgroups x workgroup size covers the grid
/// with less than one extra workgroup of slack per dimension.
#[test]
fn aql_workgroup_math() {
    let mut rng = rng_for("aql_workgroup_math");
    for _ in 0..512 {
        let grid = 1 + rng.next_below(10_000_000 - 1) as u32;
        let wg = 1 + rng.next_below(1023) as u16;
        let p = AqlPacket::dispatch_1d(grid, wg);
        let wgs = p.total_workgroups();
        assert!(wgs * u64::from(wg) >= u64::from(grid));
        assert!((wgs - 1) * u64::from(wg) < u64::from(grid));
    }
}

/// Multi-socket coherence policy: every agent sits on socket 0; CPUs
/// are always hardware coherent, and a GPU is exactly when the line is
/// homed on socket 0, under arbitrary traces.
#[test]
fn multisocket_policy_invariants() {
    let mut rng = rng_for("multisocket_policy_invariants");
    for _ in 0..8 {
        let n_ops = 1 + rng.next_below(1_500);
        let mut n = MultiSocketCoherence::quad_mi300a();
        for a in 0..4u32 {
            n.register(
                AgentId(a),
                if a % 2 == 0 {
                    AgentClass::Cpu
                } else {
                    AgentClass::Gpu
                },
            );
        }
        let span = 128u64 << 30;
        for _ in 0..n_ops {
            let agent = rng.next_below(4) as u32;
            let line = rng.next_below(1024);
            let home = line % 4;
            let acc = n.read(AgentId(agent), home * span + (line * 128) % span);
            if agent.is_multiple_of(2) {
                assert!(acc.hardware_coherent, "CPU access is hardware coherent");
            } else {
                assert_eq!(acc.hardware_coherent, home == 0);
            }
        }
    }
}

/// Trace generation is total, in-footprint and deterministic for
/// every pattern.
#[test]
fn traces_in_footprint() {
    let mut rng = rng_for("traces_in_footprint");
    for _ in 0..64 {
        let pattern = match rng.next_below(5) {
            0 => Pattern::Sequential,
            1 => Pattern::Strided { stride: 4096 },
            2 => Pattern::Random,
            3 => Pattern::Hot {
                hot_fraction: 0.9,
                hot_bytes: 64 << 10,
            },
            _ => Pattern::PointerChase,
        };
        let cfg = TraceConfig {
            pattern,
            accesses: 256,
            footprint: (1 + rng.next_below(4095)) << 10,
            write_fraction: rng.next_f64(),
            line: 128,
            seed: rng.next_u64(),
            jobs: 1,
        };
        let t1 = cfg.generate();
        assert_eq!(t1.len(), 256);
        for r in &t1 {
            assert!(r.addr < cfg.footprint);
            assert!(r.addr.is_multiple_of(128));
        }
        assert_eq!(t1, cfg.generate());
    }
}

/// Random topologies: every returned route is a contiguous walk from
/// source to destination, and hop counts agree with route lengths.
#[test]
fn routes_are_valid_walks() {
    use ehp_fabric::link::LinkTech;
    use ehp_fabric::topology::{NodeKey, Topology};
    let mut rng = rng_for("routes_are_valid_walks");
    for _ in 0..128 {
        let n_edges = 1 + rng.next_below(23);
        let mut links = Vec::new();
        for _ in 0..n_edges {
            let a = rng.next_below(8) as u32;
            let b = rng.next_below(8) as u32;
            if a != b {
                links.push((NodeKey::Iod(a), NodeKey::Iod(b), LinkTech::Usr.spec()));
            }
        }
        let topo = Topology::from_links(links);
        let from = rng.next_below(8) as u32;
        let to = rng.next_below(8) as u32;
        let (src, dst) = (NodeKey::Iod(from), NodeKey::Iod(to));
        match topo.route(src, dst) {
            None => {}
            Some(path) => {
                assert_eq!(topo.hops(src, dst), Some(path.len()));
                let mut cur = src;
                for &ei in path {
                    let e = topo.edges()[ei as usize];
                    assert_eq!(e.from, cur, "contiguous walk");
                    cur = e.to;
                }
                if from == to {
                    assert!(path.is_empty());
                } else {
                    assert_eq!(cur, dst);
                }
            }
        }
    }
}

/// Thermal solver monotonicity: scaling the power map up makes every
/// cell at least as hot, and no cell ever dips below coolant.
#[test]
fn thermal_monotone_in_power() {
    use ehp_package::floorplan::{Floorplan, Layer};
    use ehp_package::geometry::Rect;
    use ehp_sim_core::units::Power;
    use ehp_thermal::solver::COOLANT_C;
    use ehp_thermal::{ThermalConfig, ThermalSolver};

    let solver = ThermalSolver::new(ThermalConfig { nx: 12, ny: 12 });
    let build = |w: f64| {
        let mut fp = Floorplan::new(Rect::new(0.0, 0.0, 12.0, 12.0));
        fp.add("hot", Rect::new(3.0, 3.0, 4.0, 4.0), Layer::Compute);
        fp.assign_power("hot", Power::from_watts(w));
        fp
    };
    let mut rng = rng_for("thermal_monotone_in_power");
    for _ in 0..16 {
        let watts = f64_in(&mut rng, 10.0, 300.0);
        let factor = f64_in(&mut rng, 1.1, 3.0);
        let base = solver.solve(&build(watts));
        let hotter = solver.solve(&build(watts * factor));
        let (nx, ny) = base.dims();
        for j in 0..ny {
            for i in 0..nx {
                let a = base.at(i, j).as_f64();
                let b = hotter.at(i, j).as_f64();
                assert!(b >= a - 1e-6, "cell ({i},{j}): {b} < {a}");
                assert!(a >= COOLANT_C - 1e-6);
            }
        }
    }
}

/// DVFS round trip: for any in-range clock, power_at then clock_for
/// recovers it.
#[test]
fn dvfs_round_trip() {
    use ehp_power::dvfs::{clock_for, power_at};
    use ehp_sim_core::time::Frequency;
    let mut rng = rng_for("dvfs_round_trip");
    for _ in 0..256 {
        let ghz = f64_in(&mut rng, 0.8, 2.5);
        let f = Frequency::from_ghz(ghz);
        let back = clock_for(power_at(f));
        assert!((back.as_ghz() - ghz).abs() < 1e-6, "got {}", back.as_ghz());
    }
}

/// RDL landing beats top-level metal on the bond interface's IR drop.
#[test]
fn bond_drop_monotonicity() {
    let top = HybridBondInterface {
        bpv: BpvTarget::TopLevelMetal,
    };
    let rdl = HybridBondInterface::mi300_compute();
    assert!(rdl.ir_drop_mv() < top.ir_drop_mv());
}

//! **Figure 13**: the multi-XCD kernel dispatch and completion flow —
//! the timestamped event trace of the cooperative protocol, plus its
//! sync overhead versus partition size.
//!
//! Scenario parameters: `workgroups` (default 228, at most 4,194,303),
//! `workgroup_size` (default 64, at most 1024). The bounds keep the AQL
//! grid of `workgroups * workgroup_size` workitems inside a `u32`.

use ehp_dispatch::aql::AqlPacket;
use ehp_dispatch::dispatcher::{DispatchEvent, DispatcherConfig, MultiXcdDispatcher};
use ehp_sim_core::json::Json;

use crate::experiment::ExperimentResult;
use crate::report::Report;
use crate::scenario::Scenario;

pub(crate) fn run(sc: &Scenario) -> ExperimentResult {
    let mut rep = Report::new(&sc.name);
    let workgroups = sc.u64("workgroups", 228);
    let wg_size = u16::try_from(sc.u64("workgroup_size", 64)).expect("schema caps workgroup_size");
    let grid = workgroups
        .checked_mul(u64::from(wg_size))
        .and_then(|g| u32::try_from(g).ok())
        .expect("schema caps the grid below 2^32 workitems");

    let pkt = AqlPacket::dispatch_1d(grid, wg_size);
    let mut d = MultiXcdDispatcher::new(DispatcherConfig::mi300a_partition());
    let run = d.dispatch(&pkt, |wg| 2_000 + (wg % 7) * 50);

    rep.section("Cooperative dispatch event trace (6-XCD partition)");
    let mut rows = Vec::new();
    for (t, e) in &run.events {
        let label = match e {
            DispatchEvent::PacketRead { xcd } => format!("(1) ACE on XCD{xcd} reads AQL packet"),
            DispatchEvent::SubsetLaunched { xcd, count } => {
                format!("(2) XCD{xcd} launches its subset: {count} workgroups")
            }
            DispatchEvent::XcdDrained { xcd } => format!("    XCD{xcd} subset complete"),
            DispatchEvent::SyncMessage { from, to } => {
                format!("(3) XCD{from} -> XCD{to}: completion notification (high-priority IF)")
            }
            DispatchEvent::CompletionSignaled { xcd } => {
                format!("(4) XCD{xcd} signals kernel completion to software")
            }
        };
        rep.row(format!("  {:>8} cyc  {label}", t.0));
        rows.push(Json::object([
            ("cycle", Json::from(t.0)),
            ("event", Json::from(label)),
        ]));
    }

    rep.section("Summary");
    rep.kv("workgroups launched", run.workgroups_launched);
    rep.kv("per-XCD split", format!("{:?}", run.per_xcd));
    rep.kv("first launch", run.first_launch);
    rep.kv("last workgroup retired", run.last_retire);
    rep.kv("completion visible to software", run.completion_at);
    rep.kv("multi-chiplet sync overhead", run.sync_overhead());

    rep.section("Sync overhead vs partition width (single logical GPU scaling)");
    let mut overhead_6xcd = 0.0;
    for xcds in [1u32, 2, 3, 6] {
        let cfg = DispatcherConfig {
            xcds,
            ..DispatcherConfig::mi300a_partition()
        };
        let run = MultiXcdDispatcher::new(cfg).dispatch(&pkt, |_| 2_000);
        if xcds == 6 {
            overhead_6xcd = run.sync_overhead().0 as f64;
        }
        rep.row(format!(
            "  {xcds} XCD(s): last retire {:>8}, completion {:>8}, overhead {}",
            run.last_retire,
            run.completion_at,
            run.sync_overhead()
        ));
    }

    let mut res = ExperimentResult::new(rep);
    res.metric("workgroups_launched", run.workgroups_launched as f64);
    res.metric("sync_overhead_cycles", run.sync_overhead().0 as f64);
    res.metric("sync_overhead_cycles_6xcd_uniform", overhead_6xcd);
    res.set_payload(Json::Arr(rows));
    res
}

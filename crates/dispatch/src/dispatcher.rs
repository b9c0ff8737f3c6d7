//! The cooperative multi-XCD dispatch protocol (Figure 13).
//!
//! "When a dispatch packet is submitted into the queue, an ACE in each
//! XCD of a partition will read the AQL packet ①. All of these processors
//! decode the packet and set up their local microarchitecture to launch a
//! subset of the requested workgroups ② ... At various points ... the
//! XCDs' ACEs may need to synchronize with each other ③ ... all XCDs must
//! indicate that their subset of a dispatch's waves have completed ...
//! before a nominated XCD can send a signal that indicates the kernel has
//! completed ④."
//!
//! This module executes that protocol over the [`AceEngine`]s of a
//! partition and records a timestamped event trace.

use ehp_sim_core::time::Cycle;

use crate::ace::AceEngine;
use crate::aql::AqlPacket;
use crate::signal::CompletionSignal;

/// One-way latency of the inter-ACE high-priority Infinity Fabric
/// channel.
const SYNC_LATENCY: Cycle = Cycle(200);

/// Partition/dispatcher parameters.
#[derive(Debug, Clone, Copy)]
pub struct DispatcherConfig {
    /// XCDs cooperating in this partition.
    pub xcds: u32,
    /// Enabled CUs per XCD.
    pub cus_per_xcd: u32,
}

impl DispatcherConfig {
    /// MI300A in its single-partition (SPX) mode: all six XCDs as one
    /// logical GPU.
    #[must_use]
    pub fn mi300a_partition() -> DispatcherConfig {
        DispatcherConfig {
            xcds: 6,
            cus_per_xcd: 38,
        }
    }
}

/// One entry in the dispatch event trace.
#[derive(Debug, Clone, Copy)]
pub enum DispatchEvent {
    /// Step ①: an XCD's ACE read the AQL packet from the user queue.
    PacketRead {
        /// XCD index within the partition.
        xcd: u32,
    },
    /// Step ②: an XCD launched its subset of the workgroups.
    SubsetLaunched {
        /// XCD index.
        xcd: u32,
        /// Workgroups in the subset.
        count: u64,
    },
    /// An XCD's last workgroup retired.
    XcdDrained {
        /// XCD index.
        xcd: u32,
    },
    /// Step ③: a drained XCD notified the nominated XCD over the
    /// high-priority channel.
    SyncMessage {
        /// Sender XCD.
        from: u32,
        /// Nominated receiver XCD.
        to: u32,
    },
    /// Step ④: the nominated XCD signalled kernel completion.
    CompletionSignaled {
        /// Nominated XCD.
        xcd: u32,
    },
}

/// The outcome of one cooperative dispatch.
#[derive(Debug, Clone)]
pub struct DispatchRun {
    /// Total workgroups launched (must equal the packet's count).
    pub workgroups_launched: u64,
    /// Workgroups per XCD, indexed by partition-local XCD id.
    pub per_xcd: Vec<u64>,
    /// Time the first workgroup began executing.
    pub first_launch: Cycle,
    /// Time the last workgroup retired (before completion signalling).
    pub last_retire: Cycle,
    /// Time the completion signal was visible to software.
    pub completion_at: Cycle,
    /// Timestamped protocol trace.
    pub events: Vec<(Cycle, DispatchEvent)>,
}

impl DispatchRun {
    /// Protocol overhead: completion-signal time minus last retirement
    /// (the cost of the multi-chiplet synchronisation).
    #[must_use]
    pub fn sync_overhead(&self) -> Cycle {
        self.completion_at.saturating_sub(self.last_retire)
    }
}

/// Executes cooperative dispatches over a partition's ACE engines.
#[derive(Debug)]
pub struct MultiXcdDispatcher {
    cfg: DispatcherConfig,
    engines: Vec<AceEngine>,
}

impl MultiXcdDispatcher {
    /// Builds the dispatcher and its per-XCD engines.
    ///
    /// # Panics
    ///
    /// Panics if the configuration has zero XCDs.
    #[must_use]
    pub fn new(cfg: DispatcherConfig) -> MultiXcdDispatcher {
        assert!(cfg.xcds > 0, "partition needs at least one XCD");
        let engines = (0..cfg.xcds)
            .map(|_| AceEngine::new(cfg.cus_per_xcd))
            .collect();
        MultiXcdDispatcher { cfg, engines }
    }

    /// Dispatches one AQL packet at time zero; `duration(wg)` gives each
    /// workgroup's execution cycles.
    pub fn dispatch(
        &mut self,
        pkt: &AqlPacket,
        mut duration: impl FnMut(u64) -> u64,
    ) -> DispatchRun {
        let total = pkt.total_workgroups();
        let n = self.cfg.xcds;
        let nominated = 0u32;
        let mut events = Vec::new();

        // Step 1: every ACE reads the packet.
        for x in 0..n {
            events.push((Cycle::ZERO, DispatchEvent::PacketRead { xcd: x }));
        }

        // Step 2: partition the workgroups round-robin (adjacent
        // workgroups on different XCDs) and launch per XCD.
        let mut assignments: Vec<Vec<u64>> = vec![Vec::new(); n as usize];
        for wg in 0..total {
            assignments[(wg % u64::from(n)) as usize].push(wg);
        }

        let mut per_xcd = vec![0u64; n as usize];
        let mut first_launch: Option<Cycle> = None;
        let mut last_retire = Cycle::ZERO;
        let mut drain_times = vec![Cycle::ZERO; n as usize];
        for (x, wgs) in assignments.iter().enumerate() {
            per_xcd[x] = wgs.len() as u64;
            events.push((
                Cycle::ZERO,
                DispatchEvent::SubsetLaunched {
                    xcd: x as u32,
                    count: wgs.len() as u64,
                },
            ));
            let (first, done) = self.engines[x].launch(wgs.iter().copied(), &mut duration);
            if !wgs.is_empty() {
                first_launch = Some(first_launch.map_or(first, |f: Cycle| f.min(first)));
            }
            drain_times[x] = done;
            events.push((done, DispatchEvent::XcdDrained { xcd: x as u32 }));
            if done > last_retire {
                last_retire = done;
            }
        }

        // Step 3: each XCD notifies the nominated XCD when drained; the
        // notification crosses the high-priority IF channel.
        let mut signal = CompletionSignal::new(i64::from(n));
        let mut nominated_sees_all = Cycle::ZERO;
        for (x, &done) in drain_times.iter().enumerate() {
            let arrival = if x as u32 == nominated {
                done // local: no fabric hop
            } else {
                events.push((
                    done,
                    DispatchEvent::SyncMessage {
                        from: x as u32,
                        to: nominated,
                    },
                ));
                done + SYNC_LATENCY
            };
            signal.decrement();
            if arrival > nominated_sees_all {
                nominated_sees_all = arrival;
            }
        }
        debug_assert!(signal.is_complete());

        // Step 4: the nominated XCD publishes the completion signal, whose
        // store must become visible at the appropriate coherence scope
        // (one more fabric traversal).
        let completion_at = nominated_sees_all + SYNC_LATENCY;
        events.push((
            completion_at,
            DispatchEvent::CompletionSignaled { xcd: nominated },
        ));

        events.sort_by_key(|&(t, _)| t);
        DispatchRun {
            workgroups_launched: total,
            per_xcd,
            first_launch: first_launch.unwrap_or(Cycle::ZERO),
            last_retire,
            completion_at,
            events,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn big_packet() -> AqlPacket {
        AqlPacket::dispatch_1d(228 * 64 * 4, 64) // 912 workgroups
    }

    #[test]
    fn all_workgroups_launch_exactly_once() {
        let mut d = MultiXcdDispatcher::new(DispatcherConfig::mi300a_partition());
        let pkt = big_packet();
        let run = d.dispatch(&pkt, |_| 500);
        assert_eq!(run.workgroups_launched, pkt.total_workgroups());
        assert_eq!(run.per_xcd.iter().sum::<u64>(), pkt.total_workgroups());
    }

    #[test]
    fn trace_follows_figure_13_order() {
        let mut d = MultiXcdDispatcher::new(DispatcherConfig::mi300a_partition());
        let run = d.dispatch(&big_packet(), |_| 500);
        // 6 packet reads, 6 subset launches, 6 drains, 5 sync messages
        // (nominated XCD is local), 1 completion.
        let count =
            |f: &dyn Fn(&DispatchEvent) -> bool| run.events.iter().filter(|(_, e)| f(e)).count();
        assert_eq!(count(&|e| matches!(e, DispatchEvent::PacketRead { .. })), 6);
        assert_eq!(
            count(&|e| matches!(e, DispatchEvent::SubsetLaunched { .. })),
            6
        );
        assert_eq!(count(&|e| matches!(e, DispatchEvent::XcdDrained { .. })), 6);
        assert_eq!(
            count(&|e| matches!(e, DispatchEvent::SyncMessage { .. })),
            5
        );
        assert_eq!(
            count(&|e| matches!(e, DispatchEvent::CompletionSignaled { .. })),
            1
        );
        // Completion is the final event.
        assert!(matches!(
            run.events.last().unwrap().1,
            DispatchEvent::CompletionSignaled { xcd: 0 }
        ));
    }

    #[test]
    fn completion_after_last_retire_by_sync_cost() {
        let mut d = MultiXcdDispatcher::new(DispatcherConfig::mi300a_partition());
        let run = d.dispatch(&big_packet(), |_| 500);
        assert!(run.completion_at > run.last_retire);
        // Overhead is at most two high-priority channel traversals.
        assert!(run.sync_overhead() <= SYNC_LATENCY + SYNC_LATENCY);
        assert!(run.sync_overhead() >= SYNC_LATENCY);
    }

    #[test]
    fn more_xcds_finish_sooner() {
        let pkt = big_packet();
        let run_with = |xcds: u32| {
            let cfg = DispatcherConfig {
                xcds,
                ..DispatcherConfig::mi300a_partition()
            };
            MultiXcdDispatcher::new(cfg)
                .dispatch(&pkt, |_| 2_000)
                .last_retire
        };
        let two = run_with(2);
        let six = run_with(6);
        assert!(
            six.0 * 2 < two.0,
            "6 XCDs ({six}) should be ~3x faster than 2 ({two})"
        );
    }

    #[test]
    fn single_xcd_partition_works() {
        let cfg = DispatcherConfig {
            xcds: 1,
            ..DispatcherConfig::mi300a_partition()
        };
        let mut d = MultiXcdDispatcher::new(cfg);
        let run = d.dispatch(&AqlPacket::dispatch_1d(64 * 38, 64), |_| 100);
        assert_eq!(run.per_xcd, vec![38]);
        // No cross-XCD sync messages.
        assert!(!run
            .events
            .iter()
            .any(|(_, e)| matches!(e, DispatchEvent::SyncMessage { .. })));
    }

    #[test]
    fn round_robin_spreads_adjacent() {
        // Workgroup `i` goes to XCD `i % 6`: 13 workgroups leave one
        // extra on XCD 0, not a short last block.
        let mut d = MultiXcdDispatcher::new(DispatcherConfig::mi300a_partition());
        let run = d.dispatch(&AqlPacket::dispatch_1d(13 * 64, 64), |_| 100);
        assert_eq!(run.per_xcd, vec![3, 2, 2, 2, 2, 2]);
    }

    #[test]
    fn imbalanced_durations_extend_last_retire() {
        let mut d = MultiXcdDispatcher::new(DispatcherConfig::mi300a_partition());
        // One straggler workgroup is 100x longer.
        let run = d.dispatch(&big_packet(), |wg| if wg == 0 { 50_000 } else { 500 });
        assert!(run.last_retire.0 >= 50_000);
    }
}

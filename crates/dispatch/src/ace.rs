//! Asynchronous Compute Engines (ACEs) and workgroup placement policies.
//!
//! Each XCD "contains the necessary hardware to handle dispatching
//! kernels to that XCD" — the ACEs read AQL packets, decode them, find
//! space within the XCD's compute units for the workgroups, initialise
//! wavefront state, and detect completion (Section VI.A). Using
//! per-chiplet schedulers instead of a separate scheduling chiplet
//! "reduce\[s\] inter-chiplet wiring requirements and increase\[s\]
//! workgroup scheduling throughput as more chiplets are added" — the
//! scaling claim `figure13` reports against partition width.

use ehp_sim_core::resource::SlotServer;
use ehp_sim_core::time::Cycle;

/// How a dispatch's workgroups are divided among the partition's XCDs.
///
/// "The decision of which workgroups are scheduled into which XCD is
/// configurable to allow tradeoffs between factors like inter-workgroup
/// data reuse in the XCD's L2 cache versus initiating work on as many
/// XCDs as possible to maximize memory bandwidth."
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WorkgroupPolicy {
    /// Adjacent workgroups go to different XCDs: maximum spread, fastest
    /// ramp onto all memory channels.
    RoundRobin,
    /// The dispatch is cut into one contiguous block per XCD: maximum
    /// inter-workgroup L2 reuse.
    BlockContiguous,
    /// Chunks of `chunk` consecutive workgroups rotate across XCDs: a
    /// mid-point between reuse and spread.
    Chunked {
        /// Consecutive workgroups kept on one XCD.
        chunk: u32,
    },
}

impl WorkgroupPolicy {
    /// XCD index (0-based within the partition) for workgroup `wg` out of
    /// `total` on `n_xcds` chiplets.
    ///
    /// # Panics
    ///
    /// Panics if `n_xcds` is zero, `total` is zero, `wg >= total`, or a
    /// chunked policy has a zero chunk.
    #[must_use]
    pub fn assign(self, wg: u64, total: u64, n_xcds: u32) -> u32 {
        assert!(n_xcds > 0, "need at least one XCD");
        assert!(
            total > 0 && wg < total,
            "workgroup {wg} out of range {total}"
        );
        let n = u64::from(n_xcds);
        let idx = match self {
            WorkgroupPolicy::RoundRobin => wg % n,
            WorkgroupPolicy::BlockContiguous => {
                // ceil-sized blocks so the mapping covers all workgroups.
                let block = total.div_ceil(n);
                wg / block
            }
            WorkgroupPolicy::Chunked { chunk } => {
                assert!(chunk > 0, "chunk must be non-zero");
                (wg / u64::from(chunk)) % n
            }
        };
        u32::try_from(idx.min(n - 1)).expect("xcd index fits u32")
    }
}

/// One XCD's dispatch engine: packet decode, workgroup launch throughput,
/// and CU occupancy.
#[derive(Debug)]
pub struct AceEngine {
    /// Cycles to read + decode an AQL packet.
    decode_latency: Cycle,
    /// Cycles between successive workgroup launches per ACE.
    cycles_per_launch: Cycle,
    /// Parallel ACE units on the XCD (4 on MI300).
    ace_count: u32,
    /// One slot per CU: a workgroup occupies a CU for its duration.
    cus: SlotServer,
}

impl AceEngine {
    /// Creates an engine for an XCD with `cus` compute units and
    /// `ace_count` ACEs.
    ///
    /// # Panics
    ///
    /// Panics if `cus` or `ace_count` is zero.
    #[must_use]
    pub(crate) fn new(cus: u32, ace_count: u32) -> AceEngine {
        assert!(ace_count > 0, "need at least one ACE");
        AceEngine {
            decode_latency: Cycle(64),
            cycles_per_launch: Cycle(4),
            ace_count,
            cus: SlotServer::new("cu_slots", cus as usize),
        }
    }

    /// Launches `n_wgs` workgroups starting after packet decode at `at`;
    /// each workgroup `i` runs for `duration(i)` cycles on a CU slot.
    ///
    /// Returns `(first_launch, all_complete)` — the time the first
    /// workgroup begins and the time the last one retires. Launches are
    /// throttled by the combined ACE launch throughput.
    pub(crate) fn launch(
        &mut self,
        at: Cycle,
        wg_indices: impl IntoIterator<Item = u64>,
        mut duration: impl FnMut(u64) -> u64,
    ) -> (Cycle, Cycle) {
        let decoded = at + self.decode_latency;
        let mut first_launch = None;
        let mut all_done = decoded;
        // Combined launch throughput of all ACEs: one workgroup every
        // cycles_per_launch / ace_count cycles (modelled by striding).
        for (i, wg) in wg_indices.into_iter().enumerate() {
            let launch_ready =
                decoded + Cycle(self.cycles_per_launch.0 * (i as u64 / u64::from(self.ace_count)));
            let (start, done) = self.cus.submit(launch_ready, Cycle(duration(wg)));
            first_launch.get_or_insert(start);
            if done > all_done {
                all_done = done;
            }
        }
        (first_launch.unwrap_or(decoded), all_done)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Number of workgroups `policy` sends to XCD `xcd`.
    fn count_for(policy: WorkgroupPolicy, xcd: u32, total: u64, n_xcds: u32) -> u64 {
        (0..total)
            .filter(|&wg| policy.assign(wg, total, n_xcds) == xcd)
            .count() as u64
    }

    #[test]
    fn round_robin_spreads_adjacent() {
        let p = WorkgroupPolicy::RoundRobin;
        assert_eq!(p.assign(0, 12, 6), 0);
        assert_eq!(p.assign(1, 12, 6), 1);
        assert_eq!(p.assign(6, 12, 6), 0);
    }

    #[test]
    fn block_keeps_neighbours_together() {
        let p = WorkgroupPolicy::BlockContiguous;
        // 12 wgs on 6 XCDs: blocks of 2.
        assert_eq!(p.assign(0, 12, 6), 0);
        assert_eq!(p.assign(1, 12, 6), 0);
        assert_eq!(p.assign(2, 12, 6), 1);
        assert_eq!(p.assign(11, 12, 6), 5);
    }

    #[test]
    fn chunked_rotates_chunks() {
        let p = WorkgroupPolicy::Chunked { chunk: 4 };
        assert_eq!(p.assign(0, 32, 2), 0);
        assert_eq!(p.assign(3, 32, 2), 0);
        assert_eq!(p.assign(4, 32, 2), 1);
        assert_eq!(p.assign(8, 32, 2), 0);
    }

    #[test]
    fn every_policy_covers_all_workgroups_evenly() {
        for policy in [
            WorkgroupPolicy::RoundRobin,
            WorkgroupPolicy::BlockContiguous,
            WorkgroupPolicy::Chunked { chunk: 8 },
        ] {
            let total = 6 * 38 * 4;
            let n = 6;
            let counts: Vec<u64> = (0..n).map(|x| count_for(policy, x, total, n)).collect();
            assert_eq!(counts.iter().sum::<u64>(), total, "{policy:?} covers all");
            let max = counts.iter().max().unwrap();
            let min = counts.iter().min().unwrap();
            assert!(
                max - min <= total / u64::from(n) / 4,
                "{policy:?} balanced: {counts:?}"
            );
        }
    }

    #[test]
    fn uneven_totals_still_cover() {
        let p = WorkgroupPolicy::BlockContiguous;
        let total = 13;
        let n = 6;
        let sum: u64 = (0..n).map(|x| count_for(p, x, total, n)).sum();
        assert_eq!(sum, total);
        // Last workgroup maps inside range.
        assert!(p.assign(12, 13, 6) < 6);
    }

    #[test]
    fn ace_launch_occupies_cus() {
        let mut ace = AceEngine::new(4, 1);
        // 8 equal workgroups on 4 CUs: two waves.
        let (first, done) = ace.launch(Cycle(0), 0..8u64, |_| 100);
        assert!(first >= ace.decode_latency);
        // Two waves of 100 cycles plus decode/launch overheads.
        assert!(done.0 >= 200 + ace.decode_latency.0);
        assert!(done.0 < 200 + ace.decode_latency.0 + 64);
    }

    #[test]
    fn more_aces_launch_faster() {
        let run = |aces: u32| {
            let mut ace = AceEngine::new(1024, aces);
            // Tiny workgroups: launch throughput dominates.
            let (_, done) = ace.launch(Cycle(0), 0..1024u64, |_| 1);
            done
        };
        let one = run(1);
        let four = run(4);
        assert!(
            four.0 * 3 < one.0,
            "4 ACEs ({four}) should be ~4x faster than 1 ({one})"
        );
    }

    #[test]
    fn empty_launch_completes_at_decode() {
        // The MI300 XCD engine: 38 CUs, 4 ACEs.
        let mut ace = AceEngine::new(38, 4);
        let (first, done) = ace.launch(Cycle(10), std::iter::empty(), |_| 1);
        assert_eq!(first, done);
        assert_eq!(done, Cycle(10) + ace.decode_latency);
    }

    #[test]
    #[should_panic(expected = "at least one XCD")]
    fn zero_xcds_panics() {
        let _ = WorkgroupPolicy::RoundRobin.assign(0, 1, 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_wg_panics() {
        let _ = WorkgroupPolicy::RoundRobin.assign(5, 5, 2);
    }
}

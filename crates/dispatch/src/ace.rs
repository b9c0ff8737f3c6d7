//! Asynchronous Compute Engines (ACEs).
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

/// Parallel ACE units on an XCD (4 on MI300).
const ACES_PER_XCD: u64 = 4;
/// Cycles to read + decode an AQL packet.
const DECODE_LATENCY: Cycle = Cycle(64);
/// Cycles between successive workgroup launches per ACE.
const CYCLES_PER_LAUNCH: u64 = 4;

/// One XCD's dispatch engine: packet decode, workgroup launch throughput,
/// and CU occupancy.
#[derive(Debug)]
pub struct AceEngine {
    /// One slot per CU: a workgroup occupies a CU for its duration.
    cus: SlotServer,
}

impl AceEngine {
    /// Creates an engine for an XCD with `cus` compute units and
    /// [`ACES_PER_XCD`] ACEs.
    ///
    /// # Panics
    ///
    /// Panics if `cus` is zero.
    #[must_use]
    pub(crate) fn new(cus: u32) -> AceEngine {
        AceEngine {
            cus: SlotServer::new(cus as usize),
        }
    }

    /// Launches `n_wgs` workgroups starting after packet decode at time
    /// zero; each workgroup `i` runs for `duration(i)` cycles on a CU
    /// slot.
    ///
    /// Returns `(first_launch, all_complete)` — the time the first
    /// workgroup begins and the time the last one retires. Launches are
    /// throttled by the combined ACE launch throughput.
    pub(crate) fn launch(
        &mut self,
        wg_indices: impl IntoIterator<Item = u64>,
        mut duration: impl FnMut(u64) -> u64,
    ) -> (Cycle, Cycle) {
        let decoded = DECODE_LATENCY;
        let mut first_launch = None;
        let mut all_done = decoded;
        // Combined launch throughput of all ACEs: one workgroup every
        // CYCLES_PER_LAUNCH / ACES_PER_XCD cycles (modelled by striding).
        for (i, wg) in wg_indices.into_iter().enumerate() {
            let launch_ready = decoded + Cycle(CYCLES_PER_LAUNCH * (i as u64 / ACES_PER_XCD));
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

    #[test]
    fn ace_launch_occupies_cus() {
        let mut ace = AceEngine::new(4);
        // 8 equal workgroups on 4 CUs: two waves.
        let (first, done) = ace.launch(0..8u64, |_| 100);
        assert!(first >= DECODE_LATENCY);
        // Two waves of 100 cycles plus decode/launch overheads.
        assert!(done.0 >= 200 + DECODE_LATENCY.0);
        assert!(done.0 < 200 + DECODE_LATENCY.0 + 64);
    }

    #[test]
    fn empty_launch_completes_at_decode() {
        // The MI300 XCD engine: 38 CUs.
        let mut ace = AceEngine::new(38);
        let (first, done) = ace.launch(std::iter::empty(), |_| 1);
        assert_eq!(first, done);
        assert_eq!(done, DECODE_LATENCY);
    }
}

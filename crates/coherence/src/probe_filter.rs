//! The probe-filter (directory) coherence protocol.
//!
//! A probe filter is a directory that records, per cached line, which
//! agent owns it exclusively or which agents share it — so that a request
//! probes only the caches that can actually hold the line instead of
//! broadcasting. This module implements the protocol state machine at
//! line granularity with explicit action records (who gets probed, where
//! data comes from) so timing layers can charge the right costs.

use std::collections::{BTreeMap, BTreeSet};

use ehp_sim_core::ids::AgentId;
use ehp_sim_core::stats::Counter;

/// Directory-visible state of a line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LineState {
    /// Not cached by any agent; memory is the only copy.
    Uncached,
    /// Cached read-only by one or more agents.
    Shared(BTreeSet<AgentId>),
    /// Owned (potentially dirty) by exactly one agent.
    Owned(AgentId),
}

/// Where the data for a request is sourced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DataSource {
    /// Straight from memory (no cached copy, or clean sharers).
    Memory,
    /// Forwarded from the owning agent's cache (cache-to-cache).
    Cache(AgentId),
    /// Already present in the requester's cache (hit; no directory
    /// transaction needed beyond an upgrade).
    Local,
}

/// The coherence actions triggered by one request.
#[derive(Debug, Clone)]
pub struct CoherenceAction {
    /// Agents that must be probed (invalidated or downgraded).
    pub probes: Vec<AgentId>,
    /// Where the requester's data comes from.
    pub data_from: DataSource,
}

impl CoherenceAction {
    fn silent(data_from: DataSource) -> CoherenceAction {
        CoherenceAction {
            probes: Vec::new(),
            data_from,
        }
    }
}

/// The probe-filter directory for one coherence domain (a socket).
///
/// # Example
///
/// ```
/// use ehp_coherence::probe_filter::{ProbeFilter, DataSource};
/// use ehp_sim_core::ids::AgentId;
///
/// let mut pf = ProbeFilter::new();
/// let (cpu, gpu) = (AgentId(0), AgentId(1));
/// pf.read(cpu, 0x100);                 // CPU caches the line
/// let act = pf.write(gpu, 0x100);      // GPU write probes the CPU
/// assert_eq!(act.probes, vec![cpu]);
/// ```
#[derive(Debug)]
pub struct ProbeFilter {
    lines: BTreeMap<u64, LineState>,
    /// Monotonic version per line: each write bumps it. Readers observing
    /// the directory-correct version is the protocol's safety property.
    versions: BTreeMap<u64, u64>,
    /// Version each agent last observed/produced per line.
    observed: BTreeMap<(AgentId, u64), u64>,
    probes_sent: Counter,
    cache_to_cache: Counter,
}

impl Default for ProbeFilter {
    fn default() -> Self {
        ProbeFilter::new()
    }
}

impl ProbeFilter {
    /// Creates an empty directory.
    #[must_use]
    pub fn new() -> ProbeFilter {
        ProbeFilter {
            lines: BTreeMap::new(),
            versions: BTreeMap::new(),
            observed: BTreeMap::new(),
            probes_sent: Counter::default(),
            cache_to_cache: Counter::default(),
        }
    }

    /// State of a line as the directory sees it.
    #[must_use]
    pub fn state(&self, line: u64) -> LineState {
        self.lines
            .get(&line)
            .cloned()
            .unwrap_or(LineState::Uncached)
    }

    /// Current version (write count) of a line.
    #[must_use]
    pub fn version(&self, line: u64) -> u64 {
        self.versions.get(&line).copied().unwrap_or(0)
    }

    /// Handles a read request; returns the actions and records the version
    /// the reader observes.
    pub fn read(&mut self, agent: AgentId, line: u64) -> CoherenceAction {
        let version = self.version(line);
        let state = self.state(line);
        let action = match state {
            LineState::Uncached => {
                self.lines
                    .insert(line, LineState::Shared(BTreeSet::from([agent])));
                CoherenceAction::silent(DataSource::Memory)
            }
            LineState::Shared(mut sharers) => {
                let local = sharers.contains(&agent);
                sharers.insert(agent);
                self.lines.insert(line, LineState::Shared(sharers));
                CoherenceAction::silent(if local {
                    DataSource::Local
                } else {
                    DataSource::Memory
                })
            }
            LineState::Owned(owner) if owner == agent => CoherenceAction::silent(DataSource::Local),
            LineState::Owned(owner) => {
                // Downgrade the owner to sharer; dirty data is forwarded
                // cache-to-cache and written back.
                self.probes_sent.inc();
                self.cache_to_cache.inc();
                self.lines
                    .insert(line, LineState::Shared(BTreeSet::from([owner, agent])));
                CoherenceAction {
                    probes: vec![owner],
                    data_from: DataSource::Cache(owner),
                }
            }
        };
        self.observed.insert((agent, line), version);
        action
    }

    /// Handles a write (read-for-ownership); returns the actions.
    pub fn write(&mut self, agent: AgentId, line: u64) -> CoherenceAction {
        let state = self.state(line);
        let action = match state {
            LineState::Uncached => {
                self.lines.insert(line, LineState::Owned(agent));
                CoherenceAction::silent(DataSource::Memory)
            }
            LineState::Shared(sharers) => {
                let others: Vec<AgentId> = {
                    let mut v: Vec<_> = sharers.iter().copied().filter(|&a| a != agent).collect();
                    v.sort();
                    v
                };
                self.probes_sent.add(others.len() as u64);
                let local = sharers.contains(&agent);
                self.lines.insert(line, LineState::Owned(agent));
                CoherenceAction {
                    probes: others,
                    data_from: if local {
                        DataSource::Local
                    } else {
                        DataSource::Memory
                    },
                }
            }
            LineState::Owned(owner) if owner == agent => CoherenceAction::silent(DataSource::Local),
            LineState::Owned(owner) => {
                self.probes_sent.inc();
                self.cache_to_cache.inc();
                self.lines.insert(line, LineState::Owned(agent));
                CoherenceAction {
                    probes: vec![owner],
                    data_from: DataSource::Cache(owner),
                }
            }
        };
        let v = self.versions.entry(line).or_insert(0);
        *v += 1;
        let v = *v;
        self.observed.insert((agent, line), v);
        action
    }

    /// The version `agent` last observed for `line` (0 if never read).
    #[must_use]
    pub fn observed_version(&self, agent: AgentId, line: u64) -> u64 {
        self.observed.get(&(agent, line)).copied().unwrap_or(0)
    }

    /// Verifies protocol invariants; returns the first violation found.
    ///
    /// Invariants:
    /// 1. An owned line has exactly one owner (encoded by construction).
    /// 2. A shared line has at least one sharer.
    /// 3. Version maps never regress (monotonic by construction).
    ///
    /// # Errors
    ///
    /// Returns a description of the violated invariant.
    pub fn check_invariants(&self) -> Result<(), String> {
        for (&line, state) in &self.lines {
            if let LineState::Shared(s) = state {
                if s.is_empty() {
                    return Err(format!("line {line:#x}: Shared with zero sharers"));
                }
            }
        }
        Ok(())
    }

    /// Total probes sent to agents.
    #[must_use]
    pub fn probes_sent(&self) -> u64 {
        self.probes_sent.value()
    }

    /// Total cache-to-cache transfers.
    #[must_use]
    pub fn cache_to_cache(&self) -> u64 {
        self.cache_to_cache.value()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const A: AgentId = AgentId(0);
    const B: AgentId = AgentId(1);
    const C: AgentId = AgentId(2);

    #[test]
    fn cold_read_from_memory() {
        let mut pf = ProbeFilter::new();
        let act = pf.read(A, 0);
        assert_eq!(act.data_from, DataSource::Memory);
        assert!(act.probes.is_empty());
        assert_eq!(pf.state(0), LineState::Shared(BTreeSet::from([A])));
    }

    #[test]
    fn second_reader_joins_sharers_without_probes() {
        let mut pf = ProbeFilter::new();
        pf.read(A, 0);
        let act = pf.read(B, 0);
        assert!(act.probes.is_empty());
        assert_eq!(pf.state(0), LineState::Shared(BTreeSet::from([A, B])));
    }

    #[test]
    fn repeat_read_is_local_hit() {
        let mut pf = ProbeFilter::new();
        pf.read(A, 0);
        assert_eq!(pf.read(A, 0).data_from, DataSource::Local);
    }

    #[test]
    fn write_invalidates_all_other_sharers() {
        let mut pf = ProbeFilter::new();
        pf.read(A, 0);
        pf.read(B, 0);
        pf.read(C, 0);
        let act = pf.write(A, 0);
        assert_eq!(act.probes, vec![B, C]);
        assert_eq!(act.data_from, DataSource::Local);
        assert_eq!(pf.state(0), LineState::Owned(A));
    }

    #[test]
    fn read_of_owned_line_forwards_and_downgrades() {
        let mut pf = ProbeFilter::new();
        pf.write(A, 0);
        let act = pf.read(B, 0);
        assert_eq!(act.probes, vec![A]);
        assert_eq!(act.data_from, DataSource::Cache(A));
        assert_eq!(pf.state(0), LineState::Shared(BTreeSet::from([A, B])));
    }

    #[test]
    fn write_of_owned_line_transfers_ownership() {
        let mut pf = ProbeFilter::new();
        pf.write(A, 0);
        let act = pf.write(B, 0);
        assert_eq!(act.probes, vec![A]);
        assert_eq!(act.data_from, DataSource::Cache(A));
        assert_eq!(pf.state(0), LineState::Owned(B));
    }

    #[test]
    fn owner_rewrite_is_silent() {
        let mut pf = ProbeFilter::new();
        pf.write(A, 0);
        let act = pf.write(A, 0);
        assert!(act.probes.is_empty());
        assert_eq!(act.data_from, DataSource::Local);
    }

    #[test]
    fn versions_track_writes_and_reads_observe_latest() {
        let mut pf = ProbeFilter::new();
        pf.write(A, 0);
        pf.write(A, 0);
        pf.write(B, 0); // ownership transfer
        assert_eq!(pf.version(0), 3);
        pf.read(C, 0);
        assert_eq!(pf.observed_version(C, 0), 3, "reader sees latest write");
    }

    #[test]
    fn distinct_lines_are_independent() {
        let mut pf = ProbeFilter::new();
        pf.write(A, 0);
        pf.read(B, 64);
        assert_eq!(pf.state(0), LineState::Owned(A));
        assert_eq!(pf.state(64), LineState::Shared(BTreeSet::from([B])));
        assert_eq!(pf.probes_sent(), 0);
    }

    #[test]
    fn invariants_hold_after_random_trace() {
        use ehp_sim_core::rng::SplitMix64;
        let mut pf = ProbeFilter::new();
        let mut rng = SplitMix64::new(2024);
        let agents = [A, B, C, AgentId(3), AgentId(4)];
        for _ in 0..50_000 {
            let agent = agents[rng.next_below(agents.len() as u64) as usize];
            let line = rng.next_below(64) * 64;
            if rng.chance(0.5) {
                pf.read(agent, line);
            } else {
                pf.write(agent, line);
            }
        }
        pf.check_invariants().unwrap();
        // Every line's last writer observation equals its version.
        for line in (0..64u64).map(|l| l * 64) {
            let v = pf.version(line);
            if let LineState::Owned(owner) = pf.state(line) {
                assert_eq!(
                    pf.observed_version(owner, line),
                    v,
                    "owner of {line:#x} must hold latest version"
                );
            }
        }
    }
}

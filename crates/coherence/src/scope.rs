//! GPU scoped software coherence (acquire/release).
//!
//! Within a socket the GPU caches are hardware-coherent through the
//! directory; *across* sockets the paper's design makes GPUs
//! software-coherent "to reduce hardware coherence bandwidth needs".
//! Software coherence means the program (or runtime) brackets shared
//! accesses with release (flush written lines to the visibility point)
//! and acquire (invalidate potentially stale lines) at a chosen scope.
//!
//! This module tracks, per agent, the dirty and valid line sets and
//! counts the flush/invalidate traffic each scope transition costs — the
//! quantity the hardware-coherent CPU path avoids paying.

use std::collections::{BTreeMap, BTreeSet};

use ehp_sim_core::ids::AgentId;

/// The synchronisation scope of an acquire/release operation, ordered by
/// visibility breadth.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SyncScope {
    /// Visible within the issuing workgroup (stays in the local L1/LDS —
    /// free at this model's granularity).
    Workgroup,
    /// Visible to the whole device (socket): flush to the socket
    /// visibility point (L2 / Infinity Fabric).
    Device,
    /// Visible system-wide (other sockets' GPUs, host CPUs): flush all
    /// the way to memory.
    System,
}

/// Per-agent software-coherence state machine.
///
/// # Example
///
/// ```
/// use ehp_coherence::scope::{ScopeTracker, SyncScope};
/// use ehp_sim_core::ids::AgentId;
///
/// let mut t = ScopeTracker::new();
/// let gpu = AgentId(1);
/// t.record_write(gpu, 0x100);
/// let flushed = t.release(gpu, SyncScope::System);
/// assert_eq!(flushed, 1); // one dirty line flushed
/// ```
#[derive(Debug)]
pub struct ScopeTracker {
    dirty: BTreeMap<AgentId, BTreeSet<u64>>,
    valid: BTreeMap<AgentId, BTreeSet<u64>>,
    /// Lines made globally visible, with the releasing agent.
    visible: BTreeMap<u64, AgentId>,
}

impl Default for ScopeTracker {
    fn default() -> Self {
        ScopeTracker::new()
    }
}

impl ScopeTracker {
    /// Creates an empty tracker.
    #[must_use]
    pub fn new() -> ScopeTracker {
        ScopeTracker {
            dirty: BTreeMap::new(),
            valid: BTreeMap::new(),
            visible: BTreeMap::new(),
        }
    }

    /// Records a write by `agent` to `line` (cached, not yet visible
    /// beyond the agent).
    pub fn record_write(&mut self, agent: AgentId, line: u64) {
        self.dirty.entry(agent).or_default().insert(line);
        self.valid.entry(agent).or_default().insert(line);
    }

    /// Records a read by `agent` of `line` (caches it locally).
    pub fn record_read(&mut self, agent: AgentId, line: u64) {
        self.valid.entry(agent).or_default().insert(line);
    }

    /// `true` if `agent` would observe the latest release of `line`
    /// without an intervening acquire (i.e. it is *not* at risk of
    /// staleness).
    #[must_use]
    pub(crate) fn observes_latest(&self, agent: AgentId, line: u64) -> bool {
        match self.visible.get(&line) {
            // Published by someone else while we hold a cached copy: stale
            // unless we wrote it ourselves.
            Some(&publisher) if publisher != agent => {
                self.valid.get(&agent).is_none_or(|v| !v.contains(&line))
            }
            _ => true,
        }
    }

    /// Release at `scope`: flush the agent's dirty lines to the scope's
    /// visibility point. Returns the number of lines flushed.
    ///
    /// Workgroup scope is free (nothing leaves the CU). Device and System
    /// scope flush everything dirty; System additionally publishes the
    /// lines for cross-socket observers.
    pub fn release(&mut self, agent: AgentId, scope: SyncScope) -> u64 {
        if scope == SyncScope::Workgroup {
            return 0;
        }
        let drained: Vec<u64> = self
            .dirty
            .get_mut(&agent)
            .map(|d| std::mem::take(d).into_iter().collect())
            .unwrap_or_default();
        let n = drained.len() as u64;
        if scope == SyncScope::System {
            for line in drained {
                self.visible.insert(line, agent);
            }
        }
        n
    }

    /// Acquire at `scope`: invalidate the agent's potentially stale
    /// cached lines. Returns the number invalidated.
    ///
    /// Workgroup scope is free. Device/System scope drop every cached
    /// line that another agent has published (conservatively, software
    /// coherence typically drops the whole cache; we model the precise
    /// stale set to keep counts meaningful, plus report it).
    pub fn acquire(&mut self, agent: AgentId, scope: SyncScope) -> u64 {
        if scope == SyncScope::Workgroup {
            return 0;
        }
        let Some(valid) = self.valid.get_mut(&agent) else {
            return 0;
        };
        let stale: Vec<u64> = valid
            .iter()
            .copied()
            .filter(|l| matches!(self.visible.get(l), Some(&p) if p != agent))
            .collect();
        for l in &stale {
            valid.remove(l);
        }
        stale.len() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const GPU0: AgentId = AgentId(10);
    const GPU1: AgentId = AgentId(11);

    #[test]
    fn workgroup_scope_is_free() {
        let mut t = ScopeTracker::new();
        t.record_write(GPU0, 0);
        assert_eq!(t.release(GPU0, SyncScope::Workgroup), 0);
        assert_eq!(t.acquire(GPU1, SyncScope::Workgroup), 0);
        assert_eq!(t.release(GPU0, SyncScope::System), 1, "line still dirty");
    }

    #[test]
    fn release_flushes_dirty_set() {
        let mut t = ScopeTracker::new();
        for l in 0..10 {
            t.record_write(GPU0, l * 64);
        }
        assert_eq!(t.release(GPU0, SyncScope::Device), 10);
        assert_eq!(t.release(GPU0, SyncScope::Device), 0, "nothing left dirty");
    }

    #[test]
    fn release_acquire_handoff() {
        let mut t = ScopeTracker::new();
        // GPU1 caches an old copy.
        t.record_read(GPU1, 0x100);
        // GPU0 writes and releases system-wide.
        t.record_write(GPU0, 0x100);
        t.release(GPU0, SyncScope::System);
        // Without acquire, GPU1 is at risk of staleness.
        assert!(!t.observes_latest(GPU1, 0x100));
        // Acquire invalidates the stale copy.
        assert_eq!(t.acquire(GPU1, SyncScope::System), 1);
        assert!(t.observes_latest(GPU1, 0x100));
    }

    #[test]
    fn acquire_spares_own_lines() {
        let mut t = ScopeTracker::new();
        t.record_write(GPU0, 0x40);
        t.release(GPU0, SyncScope::System);
        t.record_read(GPU0, 0x40);
        // GPU0 published the line itself: not stale for GPU0.
        assert_eq!(t.acquire(GPU0, SyncScope::System), 0);
        assert!(t.observes_latest(GPU0, 0x40));
    }

    #[test]
    fn device_release_does_not_publish_cross_socket() {
        let mut t = ScopeTracker::new();
        t.record_read(GPU1, 0x80);
        t.record_write(GPU0, 0x80);
        t.release(GPU0, SyncScope::Device);
        // Device-scope release: no cross-socket publication, so GPU1's
        // acquire has nothing marked stale (matches "software coherent to
        // GPUs in other sockets" — system scope is required).
        assert_eq!(t.acquire(GPU1, SyncScope::System), 0);
    }

    #[test]
    fn repeated_release_is_idempotent() {
        let mut t = ScopeTracker::new();
        t.record_write(GPU0, 0);
        assert_eq!(t.release(GPU0, SyncScope::System), 1);
        assert_eq!(t.release(GPU0, SyncScope::System), 0);
    }

    #[test]
    fn scope_ordering() {
        assert!(SyncScope::Workgroup < SyncScope::Device);
        assert!(SyncScope::Device < SyncScope::System);
    }

    #[test]
    fn fresh_agent_observes_latest() {
        let t = ScopeTracker::new();
        assert!(t.observes_latest(GPU0, 0x1234));
    }
}

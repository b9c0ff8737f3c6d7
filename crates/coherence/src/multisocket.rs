//! Multi-socket coherence: the asymmetric design of Section IV.D at
//! node scale.
//!
//! In a Figure 18(a) node, every MI300A has direct load-store access to
//! all HBM with one flat physical address space. **CPUs are hardware
//! coherent with all CPUs and GPUs** (EPYC-style probe filter spanning
//! sockets); **GPUs are hardware coherent only within their socket** and
//! *software coherent* to GPUs in other sockets — explicitly to reduce
//! the hardware-coherence bandwidth that GPU-rate traffic would
//! otherwise burn on cross-socket probes. This module composes the
//! per-socket [`ProbeFilter`]s and the [`ScopeTracker`] into that
//! policy, with an ablation flag to price the alternative.

use std::collections::HashMap;

use ehp_sim_core::ids::AgentId;
use ehp_sim_core::stats::Counter;

use crate::probe_filter::ProbeFilter;
use crate::scope::{ScopeTracker, SyncScope};

/// Whether an agent is a CPU complex or a GPU device.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AgentClass {
    /// CPU (CCD): hardware coherent node-wide.
    Cpu,
    /// GPU (XCD group): hardware coherent within the socket only.
    Gpu,
}

/// Result of one coherent access at node scope.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeAccess {
    /// Whether the line's home is on another socket.
    pub(crate) cross_socket: bool,
    /// Whether hardware coherence covered this access.
    pub hardware_coherent: bool,
    /// Agents probed (hardware-coherent path only).
    pub probes: Vec<AgentId>,
    /// `true` if the access may observe stale data (GPU reading a
    /// remote line without an acquire after the producer's release).
    pub stale_risk: bool,
}

/// Node-level coherence configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NodeCoherenceConfig {
    /// Sockets in the node.
    pub(crate) sockets: u32,
    /// Bytes of physical address space per socket (flat map: the home
    /// socket is `addr / socket_span`).
    pub(crate) socket_span: u64,
    /// Ablation: make GPUs hardware coherent across sockets too, to
    /// measure the probe-bandwidth cost the real design avoids.
    pub(crate) gpu_hw_coherent_cross_socket: bool,
}

impl NodeCoherenceConfig {
    /// The quad-MI300A node: four sockets × 128 GiB.
    #[must_use]
    pub fn quad_mi300a() -> NodeCoherenceConfig {
        NodeCoherenceConfig {
            sockets: 4,
            socket_span: 128 << 30,
            gpu_hw_coherent_cross_socket: false,
        }
    }
}

/// The node-level coherence fabric.
///
/// # Examples
///
/// ```
/// use ehp_coherence::multisocket::{AgentClass, MultiSocketCoherence, NodeCoherenceConfig};
/// use ehp_sim_core::ids::AgentId;
///
/// let mut n = MultiSocketCoherence::new(NodeCoherenceConfig::quad_mi300a());
/// n.register(AgentId(0), 0, AgentClass::Cpu);
/// n.register(AgentId(1), 0, AgentClass::Gpu);
/// let remote = 128u64 << 30; // homed on socket 1
/// assert!(n.read(AgentId(0), remote).hardware_coherent);  // CPU: hw everywhere
/// assert!(!n.read(AgentId(1), remote).hardware_coherent); // GPU: sw cross-socket
/// ```
#[derive(Debug)]
pub struct MultiSocketCoherence {
    cfg: NodeCoherenceConfig,
    /// One directory per socket.
    directories: Vec<ProbeFilter>,
    /// Cross-socket GPU software coherence.
    scopes: ScopeTracker,
    /// Agent registry.
    agents: HashMap<AgentId, (u32, AgentClass)>,
    sw_coherent_accesses: Counter,
}

impl MultiSocketCoherence {
    /// Builds the fabric.
    ///
    /// # Panics
    ///
    /// Panics if the configuration has zero sockets.
    #[must_use]
    pub fn new(cfg: NodeCoherenceConfig) -> MultiSocketCoherence {
        assert!(cfg.sockets > 0, "need at least one socket");
        MultiSocketCoherence {
            cfg,
            directories: (0..cfg.sockets).map(|_| ProbeFilter::new()).collect(),
            scopes: ScopeTracker::new(),
            agents: HashMap::new(),
            sw_coherent_accesses: Counter::new("sw_coherent_accesses"),
        }
    }

    /// Registers an agent on a socket.
    ///
    /// # Panics
    ///
    /// Panics if the socket index is out of range.
    pub fn register(&mut self, agent: AgentId, socket: u32, class: AgentClass) {
        assert!(socket < self.cfg.sockets, "socket {socket} out of range");
        self.agents.insert(agent, (socket, class));
    }

    fn home_socket(&self, addr: u64) -> u32 {
        u32::try_from(addr / self.cfg.socket_span).expect("address in range") % self.cfg.sockets
    }

    fn lookup(&self, agent: AgentId) -> (u32, AgentClass) {
        *self.agents.get(&agent).expect("agent registered")
    }

    /// A coherent read of `addr` by `agent`.
    ///
    /// # Panics
    ///
    /// Panics if the agent is unregistered.
    pub fn read(&mut self, agent: AgentId, addr: u64) -> NodeAccess {
        let (socket, class) = self.lookup(agent);
        let home = self.home_socket(addr);
        let cross = home != socket;
        let line = addr / 128;

        let hw = class == AgentClass::Cpu || !cross || self.cfg.gpu_hw_coherent_cross_socket;

        if hw {
            let action = self.directories[home as usize].read(agent, line);
            NodeAccess {
                cross_socket: cross,
                hardware_coherent: true,
                probes: action.probes,
                stale_risk: false,
            }
        } else {
            // Software-coherent path: the GPU reads whatever is visible;
            // staleness depends on release/acquire discipline.
            self.sw_coherent_accesses.inc();
            let stale = !self.scopes.observes_latest(agent, line);
            self.scopes.record_read(agent, line);
            NodeAccess {
                cross_socket: cross,
                hardware_coherent: false,
                probes: Vec::new(),
                stale_risk: stale,
            }
        }
    }

    /// A coherent write of `addr` by `agent`.
    ///
    /// # Panics
    ///
    /// Panics if the agent is unregistered.
    pub fn write(&mut self, agent: AgentId, addr: u64) -> NodeAccess {
        let (socket, class) = self.lookup(agent);
        let home = self.home_socket(addr);
        let cross = home != socket;
        let line = addr / 128;

        let hw = class == AgentClass::Cpu || !cross || self.cfg.gpu_hw_coherent_cross_socket;

        if hw {
            let action = self.directories[home as usize].write(agent, line);
            NodeAccess {
                cross_socket: cross,
                hardware_coherent: true,
                probes: action.probes,
                stale_risk: false,
            }
        } else {
            self.sw_coherent_accesses.inc();
            self.scopes.record_write(agent, line);
            NodeAccess {
                cross_socket: cross,
                hardware_coherent: false,
                probes: Vec::new(),
                stale_risk: false,
            }
        }
    }

    /// A GPU release at `scope`; returns lines flushed.
    pub fn release(&mut self, agent: AgentId, scope: SyncScope) -> u64 {
        self.scopes.release(agent, scope)
    }

    /// A GPU acquire at `scope`; returns lines invalidated.
    pub fn acquire(&mut self, agent: AgentId, scope: SyncScope) -> u64 {
        self.scopes.acquire(agent, scope)
    }

    /// Accesses handled by the software-coherent path.
    #[must_use]
    pub fn sw_coherent_accesses(&self) -> u64 {
        self.sw_coherent_accesses.value()
    }

    /// Per-socket directories (diagnostics).
    #[must_use]
    pub fn directories(&self) -> &[ProbeFilter] {
        &self.directories
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const CPU0: AgentId = AgentId(0);
    const GPU0: AgentId = AgentId(1);
    const CPU1: AgentId = AgentId(2);
    const GPU1: AgentId = AgentId(3);
    const SPAN: u64 = 128 << 30;

    fn node() -> MultiSocketCoherence {
        let mut n = MultiSocketCoherence::new(NodeCoherenceConfig::quad_mi300a());
        n.register(CPU0, 0, AgentClass::Cpu);
        n.register(GPU0, 0, AgentClass::Gpu);
        n.register(CPU1, 1, AgentClass::Cpu);
        n.register(GPU1, 1, AgentClass::Gpu);
        n
    }

    #[test]
    fn cpu_remote_access_is_hardware_coherent() {
        let mut n = node();
        // CPU0 reads an address homed on socket 1.
        let a = n.read(CPU0, SPAN + 0x100);
        assert!(a.cross_socket);
        assert!(a.hardware_coherent);
        assert!(!a.stale_risk);
    }

    #[test]
    fn gpu_local_access_is_hardware_coherent() {
        let mut n = node();
        let a = n.write(GPU0, 0x1000);
        assert!(!a.cross_socket);
        assert!(a.hardware_coherent);
    }

    #[test]
    fn gpu_remote_access_is_software_coherent() {
        let mut n = node();
        let a = n.read(GPU0, SPAN + 0x100);
        assert!(a.cross_socket);
        assert!(!a.hardware_coherent);
        assert_eq!(n.sw_coherent_accesses(), 1);
    }

    #[test]
    fn gpu_remote_write_stays_private_until_release() {
        let mut n = node();
        // GPU1 writes an address homed on socket 0 (remote for GPU1):
        // the dirty line rides the software-coherent path.
        let addr = 0x3000u64;
        let w = n.write(GPU1, addr);
        assert!(w.cross_socket && !w.hardware_coherent);
        // Release publishes exactly that one dirty line.
        assert_eq!(n.release(GPU1, SyncScope::System), 1);
        // A line no one released is never flagged stale.
        let fresh = n.read(GPU0, SPAN);
        assert!(!fresh.stale_risk, "never-released line is not stale");
    }

    #[test]
    fn release_acquire_clears_staleness() {
        let mut n = node();
        let addr = SPAN + 0x4000; // remote for both GPU0 (socket 0)
                                  // GPU0 caches a remote line via the software path.
        n.read(GPU0, addr);
        // GPU1 (also remote to socket... socket 1 is home: GPU1 is local)
        // Use GPU1 writing an address homed on socket 2: remote for both.
        let shared = 2 * SPAN + 0x100;
        n.read(GPU0, shared);
        n.write(GPU1, shared);
        n.release(GPU1, SyncScope::System);
        let stale = n.read(GPU0, shared);
        assert!(stale.stale_risk, "unacquired read after remote release");
        n.acquire(GPU0, SyncScope::System);
        let fresh = n.read(GPU0, shared);
        assert!(!fresh.stale_risk);
    }

    #[test]
    fn software_coherence_saves_probe_bandwidth() {
        // The paper's rationale: run the same GPU sharing pattern with
        // and without cross-socket hardware coherence and compare probe
        // traffic.
        let run = |hw: bool| {
            let mut cfg = NodeCoherenceConfig::quad_mi300a();
            cfg.gpu_hw_coherent_cross_socket = hw;
            let mut n = MultiSocketCoherence::new(cfg);
            n.register(GPU0, 0, AgentClass::Gpu);
            n.register(GPU1, 1, AgentClass::Gpu);
            // Both GPUs ping-pong over lines homed on socket 2.
            let mut probes = 0;
            for i in 0..1_000u64 {
                let addr = 2 * SPAN + i % 64 * 128;
                probes += n.write(GPU0, addr).probes.len();
                probes += n.write(GPU1, addr).probes.len();
            }
            probes
        };
        let probes_hw = run(true);
        let probes_sw = run(false);
        assert_eq!(probes_sw, 0, "software path sends no probes");
        assert!(
            probes_hw > 1_000,
            "hardware path would burn {probes_hw} cross-socket probes"
        );
    }

    #[test]
    fn cpu_gpu_same_socket_probe_is_local() {
        let mut n = node();
        n.write(CPU0, 0x100);
        // The owner sits on the line's home socket.
        assert_eq!(n.read(GPU0, 0x100).probes, vec![CPU0]);
    }

    #[test]
    fn cpu_cross_socket_probe_counted() {
        let mut n = node();
        let addr = SPAN + 0x500; // homed on socket 1
        n.write(CPU1, addr); // local owner
                             // Remote reader probes CPU1, which is local to the home socket.
        assert_eq!(n.read(CPU0, addr).probes, vec![CPU1]);
        // CPU1 re-owns: probes CPU0, remote to the home socket.
        assert_eq!(n.write(CPU1, addr).probes, vec![CPU0]);
    }

    #[test]
    #[should_panic(expected = "agent registered")]
    fn unregistered_agent_panics() {
        let mut n = node();
        n.read(AgentId(99), 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_socket_panics() {
        let mut n = node();
        n.register(AgentId(50), 9, AgentClass::Cpu);
    }
}

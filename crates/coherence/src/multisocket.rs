//! Multi-socket coherence: the asymmetric design of Section IV.D at
//! node scale.
//!
//! In a Figure 18(a) node, every MI300A has direct load-store access to
//! all HBM with one flat physical address space. **CPUs are hardware
//! coherent with all CPUs and GPUs** (EPYC-style probe filter spanning
//! sockets); **GPUs are hardware coherent only within their socket** and
//! *software coherent* to GPUs in other sockets — explicitly to reduce
//! the hardware-coherence bandwidth that GPU-rate traffic would
//! otherwise burn on cross-socket probes. This module is that policy:
//! it decides which accesses hardware coherence covers. Read-only
//! traffic probes no one, so no directory is kept; a socket's
//! [`ProbeFilter`](crate::probe_filter::ProbeFilter) models the
//! hardware-coherent side.

use std::collections::HashMap;

use ehp_sim_core::ids::AgentId;

/// Whether an agent is a CPU complex or a GPU device.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AgentClass {
    /// CPU (CCD): hardware coherent node-wide.
    Cpu,
    /// GPU (XCD group): hardware coherent within the socket only.
    Gpu,
}

/// Result of one coherent access at node scope.
#[derive(Debug, Clone)]
pub struct NodeAccess {
    /// Whether hardware coherence covered this access; if not, the
    /// access is software coherent.
    pub hardware_coherent: bool,
}

/// Sockets in the quad-MI300A node.
const SOCKETS: u32 = 4;
/// Bytes of physical address space per socket (flat map: the home
/// socket is `addr / SOCKET_SPAN`).
const SOCKET_SPAN: u64 = 128 << 30;

/// The node-level coherence fabric.
///
/// # Examples
///
/// ```
/// use ehp_coherence::multisocket::{AgentClass, MultiSocketCoherence};
/// use ehp_sim_core::ids::AgentId;
///
/// let mut n = MultiSocketCoherence::quad_mi300a();
/// n.register(AgentId(0), AgentClass::Cpu);
/// n.register(AgentId(1), AgentClass::Gpu);
/// let remote = 128u64 << 30; // homed on socket 1
/// assert!(n.read(AgentId(0), remote).hardware_coherent);  // CPU: hw everywhere
/// assert!(!n.read(AgentId(1), remote).hardware_coherent); // GPU: sw cross-socket
/// ```
#[derive(Debug)]
pub struct MultiSocketCoherence {
    /// Agent registry; every agent sits on socket 0.
    agents: HashMap<AgentId, AgentClass>,
}

impl MultiSocketCoherence {
    /// The quad-MI300A node: four sockets × 128 GiB.
    #[must_use]
    pub fn quad_mi300a() -> MultiSocketCoherence {
        MultiSocketCoherence {
            agents: HashMap::new(),
        }
    }

    /// Registers an agent on socket 0.
    pub fn register(&mut self, agent: AgentId, class: AgentClass) {
        self.agents.insert(agent, class);
    }

    fn home_socket(addr: u64) -> u32 {
        u32::try_from(addr / SOCKET_SPAN).expect("address in range") % SOCKETS
    }

    /// A coherent read of `addr` by `agent`: hardware coherent for a CPU
    /// anywhere and for a GPU when the line is homed on its own socket; a
    /// GPU read of another socket's memory is software coherent.
    ///
    /// # Panics
    ///
    /// Panics if the agent is unregistered.
    pub fn read(&self, agent: AgentId, addr: u64) -> NodeAccess {
        let class = *self.agents.get(&agent).expect("agent registered");
        NodeAccess {
            hardware_coherent: class == AgentClass::Cpu || Self::home_socket(addr) == 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::probe_filter::ProbeFilter;

    const CPU0: AgentId = AgentId(0);
    const GPU0: AgentId = AgentId(1);
    const GPU1: AgentId = AgentId(3);

    fn node() -> MultiSocketCoherence {
        let mut n = MultiSocketCoherence::quad_mi300a();
        n.register(CPU0, AgentClass::Cpu);
        n.register(GPU0, AgentClass::Gpu);
        n.register(GPU1, AgentClass::Gpu);
        n
    }

    #[test]
    fn cpu_remote_access_is_hardware_coherent() {
        let n = node();
        // CPU0 reads an address homed on socket 1.
        assert!(n.read(CPU0, SOCKET_SPAN + 0x100).hardware_coherent);
    }

    #[test]
    fn gpu_local_access_is_hardware_coherent() {
        let n = node();
        assert!(n.read(GPU0, 0x1000).hardware_coherent);
    }

    #[test]
    fn gpu_remote_access_is_software_coherent() {
        let n = node();
        assert!(!n.read(GPU0, SOCKET_SPAN + 0x100).hardware_coherent);
    }

    #[test]
    fn software_coherence_saves_probe_bandwidth() {
        // The paper's rationale, priced: GPU0 and GPU1 ping-pong writes
        // over 64 lines homed on socket 2. Were GPUs hardware coherent
        // across sockets, every write would go through the home socket's
        // probe filter and probe the other GPU's copy; the node sends
        // every one of those GPUs' cross-socket accesses down the
        // software path, which keeps no directory and probes no one.
        let n = node();
        let mut directories: Vec<ProbeFilter> = (0..4).map(|_| ProbeFilter::new()).collect();
        let mut probes_hw = 0;
        for i in 0..1_000u64 {
            let addr = 2 * SOCKET_SPAN + i % 64 * 128;
            let home = (addr / SOCKET_SPAN) as usize;
            for gpu in [GPU0, GPU1] {
                probes_hw += directories[home].write(gpu, addr / 128).probes.len();
                assert!(!n.read(gpu, addr).hardware_coherent, "software path");
            }
        }
        assert!(
            probes_hw > 1_000,
            "hardware path would burn {probes_hw} cross-socket probes"
        );
    }

    #[test]
    #[should_panic(expected = "agent registered")]
    fn unregistered_agent_panics() {
        let n = node();
        n.read(AgentId(99), 0);
    }
}

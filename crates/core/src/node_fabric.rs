//! Timed cross-socket traffic over a node topology.
//!
//! Figure 18(a): "Each MI300A has direct load-store access to all HBM
//! across all four modules (i.e., flat physical address space)." This
//! module turns a [`NodeTopology`] into a timed [`FabricSim`] so remote
//! load-store traffic can be measured: a remote access rides the
//! inter-socket x16 Infinity Fabric bundle and lands in the remote
//! socket's memory system — fast enough to program against, far slower
//! than local HBM, which is exactly the NUMA shape software sees.

use ehp_fabric::fabric::{FabricSim, Transfer};
use ehp_fabric::link::LinkTech;
use ehp_fabric::topology::{NodeKey, Topology};
use ehp_sim_core::time::SimTime;
use ehp_sim_core::units::{Bandwidth, Bytes};

use crate::node::{NodeLinkKind, NodeTopology};

/// The fabric topology of a node: socket `i` appears as
/// [`NodeKey::External`]`(i)`, and each link bundle becomes one link
/// with `count ×` the per-link bandwidth.
#[must_use]
pub fn fabric_topology(node: &NodeTopology) -> Topology {
    Topology::from_links(node.links().iter().map(|l| {
        let tech = match l.kind {
            NodeLinkKind::InfinityFabric => LinkTech::X16InfinityFabric,
            NodeLinkKind::Pcie => LinkTech::X16Pcie,
        };
        let spec = tech.spec().scaled(f64::from(l.count));
        (
            NodeKey::External(l.a as u32),
            NodeKey::External(l.b as u32),
            spec,
        )
    }))
}

/// A timed node-level fabric built from a [`NodeTopology`].
///
/// # Examples
///
/// ```
/// use ehp_core::node::NodeTopology;
/// use ehp_core::node_fabric::NodeFabric;
///
/// let fab = NodeFabric::new(&NodeTopology::quad_mi300a());
/// // Two x16 links per pair: 128 GB/s per direction.
/// assert!((fab.socket_bandwidth().unwrap().as_gb_s() - 128.0).abs() < 1e-6);
/// ```
#[derive(Debug)]
pub struct NodeFabric {
    fabric: FabricSim,
}

impl NodeFabric {
    /// Builds the timed fabric over [`fabric_topology`]`(node)`.
    #[must_use]
    pub fn new(node: &NodeTopology) -> NodeFabric {
        NodeFabric {
            fabric: FabricSim::new(fabric_topology(node)),
        }
    }

    /// Sends `size` bytes from socket `from` to socket `to` at `at`.
    /// Returns `None` if the sockets are not connected.
    pub fn send(&mut self, at: SimTime, from: usize, to: usize, size: Bytes) -> Option<Transfer> {
        self.fabric.send(
            at,
            NodeKey::External(from as u32),
            NodeKey::External(to as u32),
            size,
        )
    }

    /// Peak bandwidth from socket 0 to socket 1 (bottleneck along the
    /// route).
    #[must_use]
    pub fn socket_bandwidth(&self) -> Option<Bandwidth> {
        self.fabric
            .path_bandwidth(NodeKey::External(0), NodeKey::External(1))
    }

    /// Latency floor from socket 0 to socket 1.
    #[must_use]
    pub fn socket_latency(&self) -> Option<SimTime> {
        self.fabric
            .path_latency(NodeKey::External(0), NodeKey::External(1))
    }

    /// A load-store access at time zero by socket 0 to memory homed on
    /// socket `home`: a remote access's request and response each cross
    /// the node fabric around the remote memory's service time.
    /// Returns the total completion time.
    pub fn remote_access(
        &mut self,
        home: usize,
        size: Bytes,
        remote_service: SimTime,
    ) -> Option<SimTime> {
        if home == 0 {
            return Some(remote_service);
        }
        let request = self.send(SimTime::ZERO, 0, home, Bytes(64))?; // command packet
        let served = request.completed + remote_service;
        let response = self.send(served, home, 0, size)?;
        Some(response.completed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ehp_mem::request::MemRequest;
    use ehp_mem::subsystem::{MemConfig, MemorySubsystem};

    fn quad() -> NodeFabric {
        NodeFabric::new(&NodeTopology::quad_mi300a())
    }

    #[test]
    fn all_socket_pairs_connected_in_quad() {
        let f = quad();
        for a in 0..4 {
            for b in 0..4 {
                if a != b {
                    let bw = f
                        .fabric
                        .path_bandwidth(NodeKey::External(a), NodeKey::External(b))
                        .expect("connected");
                    // Two x16 links per pair: 128 GB/s per direction.
                    assert!((bw.as_gb_s() - 128.0).abs() < 1e-6);
                }
            }
        }
    }

    #[test]
    fn remote_access_slower_than_local() {
        let mut f = quad();
        let service = SimTime::from_nanos(120);
        let local = f.remote_access(0, Bytes(128), service).unwrap();
        let remote = f.remote_access(1, Bytes(128), service).unwrap();
        assert!(
            remote > local * 1,
            "remote {remote} must exceed local {local}"
        );
        assert!(remote.as_nanos_f64() > local.as_nanos_f64() + 50.0);
    }

    #[test]
    fn remote_bandwidth_is_link_limited() {
        let mut f = quad();
        // Stream 1 GiB remotely: limited by the 128 GB/s pair bundle,
        // not the 5.3 TB/s HBM.
        let t = f
            .remote_access(1, Bytes::from_gib(1), SimTime::from_nanos(120))
            .unwrap();
        let achieved = Bytes::from_gib(1).as_f64() / t.as_secs() / 1e9;
        assert!(achieved < 130.0, "achieved {achieved:.0} GB/s");
        assert!(achieved > 100.0, "achieved {achieved:.0} GB/s");
    }

    #[test]
    fn flat_address_space_end_to_end() {
        // A socket-0 agent touches memory homed on socket 1: node fabric
        // + the remote socket's real memory subsystem.
        let mut f = quad();
        let mut remote_mem = MemorySubsystem::new(MemConfig::mi300_hbm3());
        let resp = remote_mem.access(SimTime::ZERO, MemRequest::read(0x4000, 128));
        let service = resp.completes_at;
        let total = f.remote_access(1, Bytes(128), service).unwrap();
        assert!(total > service, "fabric adds on top of memory service");
    }

    #[test]
    fn eight_mi300x_accelerators_reach_each_other() {
        let mut f = NodeFabric::new(&NodeTopology::eight_mi300x());
        for b in 1..8 {
            let t = f.send(SimTime::ZERO, 0, b, Bytes::from_kib(64)).unwrap();
            assert_eq!(t.hops, 1, "fully connected: one hop to socket {b}");
        }
        // Host access rides PCIe (higher latency).
        let to_host = f
            .fabric
            .path_latency(NodeKey::External(0), NodeKey::External(8))
            .unwrap();
        let to_peer = f.socket_latency().unwrap();
        assert!(to_host > to_peer);
    }

    #[test]
    fn contention_on_shared_pair_bundle() {
        let mut f = quad();
        let size = Bytes::from_mib(64);
        let t1 = f.send(SimTime::ZERO, 0, 1, size).unwrap();
        let t2 = f.send(SimTime::ZERO, 0, 1, size).unwrap();
        assert!(t2.completed > t1.completed, "second stream queues");
        // But 0->2 is an independent bundle.
        let t3 = f.send(SimTime::ZERO, 0, 2, size).unwrap();
        assert_eq!(t3.completed, t1.completed);
    }
}

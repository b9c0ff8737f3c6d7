//! Node-level topologies (Figure 18, Section VIII).
//!
//! Each MI300 socket exposes eight x16 links (four of which may run PCIe
//! instead of Infinity Fabric), 128 GB/s bidirectional each — 1,024 GB/s
//! per socket. Figure 18(a) wires four MI300A APUs fully connected with
//! two links per pair (cache-coherent, flat address space); Figure 18(b)
//! wires eight MI300X accelerators fully connected with one link per
//! pair plus one PCIe link each back to EPYC hosts.

use ehp_sim_core::units::{Bandwidth, Bytes};

use crate::products::{Product, ProductSpec};

/// The protocol running on a node link.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum NodeLinkKind {
    /// Cache-coherent Infinity Fabric.
    InfinityFabric,
    /// PCIe Gen5 (host attach).
    Pcie,
}

/// A bundle of x16 links between two sockets.
#[derive(Debug, Clone, Copy)]
pub struct NodeLink {
    /// First endpoint (socket index).
    pub a: usize,
    /// Second endpoint (socket index).
    pub b: usize,
    /// Number of x16 links in the bundle.
    pub(crate) count: u32,
    /// Protocol.
    pub(crate) kind: NodeLinkKind,
}

/// A socket in the node.
#[derive(Debug, Clone, Copy)]
pub enum NodeSocket {
    /// An accelerator/APU module.
    Accelerator(ProductSpec),
    /// An EPYC host CPU.
    EpycHost,
}

impl NodeSocket {
    /// x16 links this socket provides.
    #[must_use]
    pub(crate) fn x16_links(&self) -> u32 {
        match self {
            NodeSocket::Accelerator(s) => s.x16_links,
            NodeSocket::EpycHost => 8,
        }
    }
}

/// A node topology.
///
/// # Example
///
/// ```
/// use ehp_core::node::NodeTopology;
///
/// let node = NodeTopology::quad_mi300a();
/// let audit = node.audit().unwrap();
/// assert_eq!(audit.free_links_per_socket, vec![2; 4]); // NICs/storage
/// ```
#[derive(Debug, Clone)]
pub struct NodeTopology {
    sockets: Vec<NodeSocket>,
    links: Vec<NodeLink>,
}

/// Audit results for a node topology.
#[derive(Debug, Clone)]
pub struct NodeAudit {
    /// Links left over per socket (available for network/storage).
    pub free_links_per_socket: Vec<u32>,
    /// Whether every accelerator pair has a direct IF connection.
    pub accelerators_fully_connected: bool,
    /// Minimum bidirectional bandwidth across any balanced bipartition of
    /// the accelerators.
    pub bisection_bandwidth: Bandwidth,
    /// Total HBM capacity visible in the node's flat address space
    /// (coherent IF domains only).
    pub coherent_hbm_capacity: Bytes,
}

impl NodeTopology {
    /// Figure 18(a): four MI300A APUs, fully connected, two x16 IF links
    /// per pair; the remaining two links per socket stay free for NICs.
    #[must_use]
    pub fn quad_mi300a() -> NodeTopology {
        let spec = Product::Mi300a.spec();
        let sockets = vec![NodeSocket::Accelerator(spec); 4];
        let mut links = Vec::new();
        for a in 0..4 {
            for b in (a + 1)..4 {
                links.push(NodeLink {
                    a,
                    b,
                    count: 2,
                    kind: NodeLinkKind::InfinityFabric,
                });
            }
        }
        NodeTopology { sockets, links }
    }

    /// Figure 2: the Frontier node — one optimized EPYC CPU and four
    /// MI250X accelerators joined by coherent Infinity Fabric. The paper
    /// reads this node as "four instances of the EHP conjoined by a
    /// common IOD": each CPU-quarter plus one MI250X matches one EHPv4's
    /// compute and memory. Socket 0 is the CPU; sockets 1–4 the GPUs.
    #[must_use]
    pub fn frontier() -> NodeTopology {
        let gpu = Product::Mi250x.spec();
        let mut sockets = vec![NodeSocket::EpycHost];
        sockets.extend(std::iter::repeat_n(NodeSocket::Accelerator(gpu), 4));
        let mut links = Vec::new();
        // Each GPU has one coherent IF link to the CPU...
        for g in 1..=4 {
            links.push(NodeLink {
                a: 0,
                b: g,
                count: 1,
                kind: NodeLinkKind::InfinityFabric,
            });
        }
        // ...and the GPUs are fully connected among themselves.
        for a in 1..=4 {
            for b in (a + 1)..=4 {
                links.push(NodeLink {
                    a,
                    b,
                    count: 1,
                    kind: NodeLinkKind::InfinityFabric,
                });
            }
        }
        NodeTopology { sockets, links }
    }

    /// Figure 18(b): eight MI300X accelerators fully connected with one
    /// x16 IF link per pair (seven links each); the eighth link runs PCIe
    /// back to the EPYC hosts.
    #[must_use]
    pub fn eight_mi300x() -> NodeTopology {
        let spec = Product::Mi300x.spec();
        let mut sockets = vec![NodeSocket::Accelerator(spec); 8];
        sockets.push(NodeSocket::EpycHost); // socket 8
        sockets.push(NodeSocket::EpycHost); // socket 9
        let mut links = Vec::new();
        for a in 0..8 {
            for b in (a + 1)..8 {
                links.push(NodeLink {
                    a,
                    b,
                    count: 1,
                    kind: NodeLinkKind::InfinityFabric,
                });
            }
        }
        // One PCIe link from each accelerator to a host (4 per host).
        for a in 0..8 {
            links.push(NodeLink {
                a,
                b: 8 + a / 4,
                count: 1,
                kind: NodeLinkKind::Pcie,
            });
        }
        NodeTopology { sockets, links }
    }

    /// The sockets.
    #[must_use]
    pub fn sockets(&self) -> &[NodeSocket] {
        &self.sockets
    }

    /// The link bundles.
    #[must_use]
    pub fn links(&self) -> &[NodeLink] {
        &self.links
    }

    fn accelerator_indices(&self) -> Vec<usize> {
        self.sockets
            .iter()
            .enumerate()
            .filter_map(|(i, s)| matches!(s, NodeSocket::Accelerator(_)).then_some(i))
            .collect()
    }

    fn links_used(&self, socket: usize) -> u32 {
        self.links
            .iter()
            .filter(|l| l.a == socket || l.b == socket)
            .map(|l| l.count)
            .sum()
    }

    /// Per-x16 bidirectional bandwidth of an accelerator link.
    fn x16_bidi(&self) -> Bandwidth {
        // 64 GB/s per direction.
        Bandwidth::from_gb_s(128.0)
    }

    /// Audits the topology against each socket's link budget and
    /// computes connectivity/bandwidth figures.
    ///
    /// # Errors
    ///
    /// Returns a description if any socket oversubscribes its links.
    pub fn audit(&self) -> Result<NodeAudit, String> {
        let mut free = Vec::with_capacity(self.sockets.len());
        for (i, s) in self.sockets.iter().enumerate() {
            let used = self.links_used(i);
            let budget = s.x16_links();
            if used > budget {
                return Err(format!(
                    "socket {i} uses {used} x16 links but only has {budget}"
                ));
            }
            free.push(budget - used);
        }

        let accels = self.accelerator_indices();
        let fully = accels.iter().all(|&a| {
            accels.iter().all(|&b| {
                a == b
                    || self.links.iter().any(|l| {
                        l.kind == NodeLinkKind::InfinityFabric
                            && ((l.a == a && l.b == b) || (l.a == b && l.b == a))
                    })
            })
        });

        // Bisection: minimum IF bandwidth over balanced bipartitions.
        let n = accels.len();
        let mut best = f64::INFINITY;
        if n >= 2 {
            let half = n / 2;
            // Enumerate subsets of size `half` containing accels[0] fixed
            // out (canonical) — n <= 8 so brute force is fine.
            for mask in 0u32..(1 << n) {
                if mask.count_ones() as usize != half || (mask & 1) != 0 {
                    continue;
                }
                let mut cross = 0.0;
                for l in &self.links {
                    if l.kind != NodeLinkKind::InfinityFabric {
                        continue;
                    }
                    let (ia, ib) = (
                        accels.iter().position(|&x| x == l.a),
                        accels.iter().position(|&x| x == l.b),
                    );
                    if let (Some(ia), Some(ib)) = (ia, ib) {
                        let a_in = mask & (1 << ia) != 0;
                        let b_in = mask & (1 << ib) != 0;
                        if a_in != b_in {
                            cross += f64::from(l.count) * self.x16_bidi().as_bytes_per_sec();
                        }
                    }
                }
                best = best.min(cross);
            }
        } else {
            best = 0.0;
        }

        // Flat coherent address space: all accelerators joined by IF
        // contribute their HBM ("each MI300A has direct load-store access
        // to all HBM across all four modules").
        let coherent: Bytes = self
            .sockets
            .iter()
            .filter_map(|s| match s {
                NodeSocket::Accelerator(spec) => Some(spec.memory_capacity()),
                NodeSocket::EpycHost => None,
            })
            .sum();

        Ok(NodeAudit {
            free_links_per_socket: free,
            accelerators_fully_connected: fully,
            bisection_bandwidth: Bandwidth::from_bytes_per_sec(if best.is_finite() {
                best
            } else {
                0.0
            }),
            coherent_hbm_capacity: coherent,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quad_mi300a_matches_figure_18a() {
        let node = NodeTopology::quad_mi300a();
        let audit = node.audit().unwrap();
        // Six of eight links used per socket; two free.
        assert_eq!(audit.free_links_per_socket, vec![2, 2, 2, 2]);
        assert!(audit.accelerators_fully_connected);
        // 512 GB of flat coherent HBM across the node.
        assert_eq!(audit.coherent_hbm_capacity, Bytes::from_gib(512));
        // Bisection: 2 sockets vs 2 sockets -> 4 crossing pairs x 2 links
        // x 128 GB/s = 1024 GB/s.
        assert!((audit.bisection_bandwidth.as_gb_s() - 1024.0).abs() < 1e-6);
    }

    #[test]
    fn eight_mi300x_matches_figure_18b() {
        let node = NodeTopology::eight_mi300x();
        let audit = node.audit().unwrap();
        // Accelerators: 7 IF + 1 PCIe = 8 used, 0 free.
        for i in 0..8 {
            assert_eq!(audit.free_links_per_socket[i], 0, "socket {i}");
        }
        // Hosts have spare links.
        assert!(audit.free_links_per_socket[8] > 0);
        assert!(audit.accelerators_fully_connected);
        // Bisection: 4v4 -> 16 crossing pairs x 128 GB/s = 2048 GB/s.
        assert!((audit.bisection_bandwidth.as_gb_s() - 2048.0).abs() < 1e-6);
        // 8 x 192 GB = 1536 GB across the IF domain.
        assert_eq!(audit.coherent_hbm_capacity, Bytes::from_gib(1536));
    }

    #[test]
    fn frontier_node_matches_figure_2() {
        let node = NodeTopology::frontier();
        let audit = node.audit().unwrap();
        assert_eq!(node.sockets().len(), 5, "1 CPU + 4 GPUs");
        assert!(audit.accelerators_fully_connected);
        // Cache coherence across the node: 4 x 128 GB of GPU HBM in the
        // flat space (the CPU's DDR is outside this accounting).
        assert_eq!(audit.coherent_hbm_capacity, Bytes::from_gib(512));
        // GPUs use 4 of their 8 links (3 peers + 1 CPU).
        for g in 1..=4 {
            assert_eq!(audit.free_links_per_socket[g], 4, "gpu {g}");
        }
    }

    #[test]
    fn frontier_embeds_four_logical_ehps() {
        // "the components within each of the four different-colored boxes
        // ... match the compute and memory components of one EHPv4":
        // 2 CCDs + 2 GPU dies + 8 HBM stacks per quarter.
        let ehp = Product::Ehpv4.spec();
        let gpu = Product::Mi250x.spec();
        // One MI250X == one EHPv4's GPU complement (4 GCD-halves = 2 big
        // dies; we model the MI250X as 2 GCDs).
        assert_eq!(gpu.gpu_chiplets * 2, ehp.gpu_chiplets);
        // A quarter of a 64-core Trento ~= 2 CCDs = EHPv4's CPU side.
        assert_eq!(ehp.ccds, 2);
    }

    #[test]
    fn oversubscription_detected() {
        let spec = Product::Mi300a.spec();
        let node = NodeTopology {
            sockets: vec![NodeSocket::Accelerator(spec); 2],
            links: vec![NodeLink {
                a: 0,
                b: 1,
                count: 9,
                kind: NodeLinkKind::InfinityFabric,
            }],
        };
        assert!(node.audit().is_err());
    }

    #[test]
    fn pcie_links_do_not_make_accels_connected() {
        let spec = Product::Mi300x.spec();
        let node = NodeTopology {
            sockets: vec![NodeSocket::Accelerator(spec); 2],
            links: vec![NodeLink {
                a: 0,
                b: 1,
                count: 1,
                kind: NodeLinkKind::Pcie,
            }],
        };
        let audit = node.audit().unwrap();
        assert!(!audit.accelerators_fully_connected);
    }

    #[test]
    fn link_budget_per_socket_is_1024_gb_s() {
        // "a total of 1,024 GB/s per socket".
        let spec = Product::Mi300a.spec();
        assert!((spec.io_bandwidth().as_gb_s() - 1024.0).abs() < 1e-6);
    }
}

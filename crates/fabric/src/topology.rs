//! The fabric topology graph and its builders.
//!
//! Nodes are fabric endpoints (IOD routers, compute chiplets, HBM stacks,
//! I/O ports); edges are links with a [`LinkSpec`]. Builders construct the
//! MI300-style 2×2 IOD package and the EHPv4-style server-IOD package so
//! experiments can contrast them.
//!
//! ## Built once, read through one route table (DESIGN.md §9)
//!
//! A [`Topology`] is immutable: [`Topology::from_links`] takes the whole
//! link list, interns every node to a dense id (first appearance order),
//! builds the CSR (compressed sparse row) adjacency over those ids and
//! flattens all-pairs shortest paths into one contiguous route table,
//! once each. Every routing query ([`Topology::route`], and through it
//! [`FabricSim`](crate::fabric::FabricSim) and
//! [`FlowSolver`](crate::flows::FlowSolver)) is then two array reads.
//! The property tests under `tests/` check the table against an
//! independent per-pair BFS.

use std::collections::HashMap;

use crate::link::{LinkSpec, LinkTech};

/// XCDs hybrid-bonded to each GPU IOD of an MI300 package: two on every
/// IOD of MI300X and on three of MI300A's four.
const XCDS_PER_IOD: u32 = 2;

/// A fabric endpoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum NodeKey {
    /// An IOD's internal data-fabric router.
    Iod(u32),
    /// A compute chiplet (XCD or CCD), indexed package-wide.
    Chiplet(u32),
    /// An HBM stack, indexed package-wide.
    HbmStack(u32),
    /// An off-package I/O port (x16 link attach point).
    IoPort(u32),
    /// Another socket/device in a node-level topology.
    External(u32),
}

/// A directed edge in the topology (one direction of a full-duplex link).
#[derive(Debug, Clone, Copy)]
pub struct Edge {
    /// Source endpoint.
    pub from: NodeKey,
    /// Destination endpoint.
    pub to: NodeKey,
    /// Link parameters.
    pub spec: LinkSpec,
}

/// The fabric topology: a small directed multigraph with its all-pairs
/// shortest-path table.
///
/// # Example
///
/// ```
/// use ehp_fabric::topology::Topology;
/// let topo = Topology::mi300_package(0); // MI300X: no CCDs
/// // Any chiplet can reach any HBM stack.
/// use ehp_fabric::topology::NodeKey;
/// let path = topo.route(NodeKey::Chiplet(0), NodeKey::HbmStack(7)).unwrap();
/// assert!(!path.is_empty());
/// ```
#[derive(Debug, Clone)]
pub struct Topology {
    edges: Vec<Edge>,
    /// `NodeKey → dense id`, in first-appearance order.
    node_ids: HashMap<NodeKey, u32>,
    /// `node_count² + 1` offsets into `route_edges`, one run per
    /// `(src, dst)` dense-id pair in row-major order.
    route_off: Vec<u32>,
    /// Each pair's shortest path as directed edge indices, concatenated.
    route_edges: Vec<u32>,
    /// Per-pair reachability (tells an empty path from no path).
    reach: Vec<bool>,
}

impl Topology {
    /// Builds the topology from its full-duplex links: each becomes two
    /// directed edges, `a → b` then `b → a`, in link order.
    ///
    /// Routes are fewest-hop paths found by one breadth-first search per
    /// source, each node's outgoing edges tried in insertion order.
    #[must_use]
    pub fn from_links(links: impl IntoIterator<Item = (NodeKey, NodeKey, LinkSpec)>) -> Topology {
        let mut node_ids: HashMap<NodeKey, u32> = HashMap::new();
        let mut intern = |key: NodeKey| {
            let next = u32::try_from(node_ids.len()).expect("node count fits u32");
            *node_ids.entry(key).or_insert(next)
        };
        let mut edges = Vec::new();
        // Dense endpoint ids of each edge, so the search never hashes.
        let (mut edge_src, mut edge_dst) = (Vec::new(), Vec::new());
        for (a, b, spec) in links {
            for (from, to) in [(a, b), (b, a)] {
                edge_src.push(intern(from));
                edge_dst.push(intern(to));
                edges.push(Edge { from, to, spec });
            }
        }
        let n = node_ids.len();

        // CSR adjacency: a stable counting sort of edge indices by source,
        // so each node's neighbours stay in insertion order.
        let mut csr_off = vec![0u32; n + 1];
        for &src in &edge_src {
            csr_off[src as usize + 1] += 1;
        }
        for u in 0..n {
            csr_off[u + 1] += csr_off[u];
        }
        let mut csr_edges = vec![0u32; edges.len()];
        let mut cursor = csr_off[..n].to_vec();
        for (ei, &src) in edge_src.iter().enumerate() {
            let slot = &mut cursor[src as usize];
            csr_edges[*slot as usize] = ei as u32;
            *slot += 1;
        }

        // One full BFS per source; each pair's path is read back from the
        // discovering-edge pointers.
        let mut route_off = Vec::with_capacity(n * n + 1);
        route_off.push(0);
        let mut route_edges = Vec::new();
        let mut reach = vec![false; n * n];
        let mut prev = vec![u32::MAX; n];
        let mut queue: Vec<u32> = Vec::with_capacity(n);
        let mut path: Vec<u32> = Vec::new();
        for src in 0..n as u32 {
            prev.fill(u32::MAX);
            queue.clear();
            queue.push(src);
            let mut head = 0;
            while head < queue.len() {
                let u = queue[head] as usize;
                head += 1;
                for &ei in &csr_edges[csr_off[u] as usize..csr_off[u + 1] as usize] {
                    let v = edge_dst[ei as usize];
                    if v != src && prev[v as usize] == u32::MAX {
                        prev[v as usize] = ei;
                        queue.push(v);
                    }
                }
            }
            for dst in 0..n as u32 {
                let pair = src as usize * n + dst as usize;
                if dst == src {
                    reach[pair] = true;
                } else if prev[dst as usize] != u32::MAX {
                    reach[pair] = true;
                    path.clear();
                    let mut cur = dst;
                    while cur != src {
                        let ei = prev[cur as usize];
                        path.push(ei);
                        cur = edge_src[ei as usize];
                    }
                    route_edges.extend(path.iter().rev());
                }
                route_off.push(route_edges.len() as u32);
            }
        }
        Topology {
            edges,
            node_ids,
            route_off,
            route_edges,
            reach,
        }
    }

    /// All directed edges, in insertion order.
    #[must_use]
    pub fn edges(&self) -> &[Edge] {
        &self.edges
    }

    /// Shortest path (fewest hops, ties broken by insertion order) from
    /// `from` to `to` as directed edge indices, borrowed from the route
    /// table: empty for `from == to`, `None` if unreachable.
    #[must_use]
    pub fn route(&self, from: NodeKey, to: NodeKey) -> Option<&[u32]> {
        // lint:hot-path
        if from == to {
            return Some(&[]);
        }
        let n = self.node_ids.len();
        let (src, dst) = (*self.node_ids.get(&from)?, *self.node_ids.get(&to)?);
        let pair = src as usize * n + dst as usize;
        self.reach[pair].then(|| {
            let (lo, hi) = (
                self.route_off[pair] as usize,
                self.route_off[pair + 1] as usize,
            );
            &self.route_edges[lo..hi]
        })
        // lint:hot-path-end
    }

    /// Hop count between two nodes, if reachable.
    #[must_use]
    pub fn hops(&self, from: NodeKey, to: NodeKey) -> Option<usize> {
        self.route(from, to).map(<[u32]>::len)
    }

    /// Builds the MI300-style package fabric: four IODs in a 2×2 grid
    /// joined by USR links, `XCDS_PER_IOD` XCD chiplets hybrid-bonded to
    /// the first IODs and `ccds` CCDs on the remainder (MI300A: 2 XCDs on
    /// three IODs + 3 CCDs on one; MI300X: 2 XCDs on all four), two HBM
    /// stacks per IOD, and two x16 I/O ports per IOD.
    ///
    /// Chiplet indices are assigned IOD-major: chiplets on IOD *i* come
    /// before chiplets on IOD *i+1*.
    #[must_use]
    pub fn mi300_package(ccds: u32) -> Topology {
        let mut links = Vec::new();
        let usr = LinkTech::Usr.spec();
        // 2x2 grid: IODs 0,1 on top; 2,3 on bottom. Adjacent pairs get USR.
        for (a, b) in [(0, 1), (2, 3), (0, 2), (1, 3)] {
            links.push((NodeKey::Iod(a), NodeKey::Iod(b), usr));
        }

        let bond = LinkTech::HybridBond3D.spec();
        let mut chiplet = 0u32;
        // One IOD carries the CCDs in MI300A (paper: 3 CCDs on one IOD);
        // here the *last* IOD hosts them when ccds > 0.
        for iod in 0..4u32 {
            let is_ccd_iod = ccds > 0 && iod == 3;
            let count = if is_ccd_iod { ccds } else { XCDS_PER_IOD };
            for _ in 0..count {
                links.push((NodeKey::Chiplet(chiplet), NodeKey::Iod(iod), bond));
                chiplet += 1;
            }
        }

        let hbm = LinkTech::HbmPhy.spec();
        for stack in 0..8u32 {
            links.push((NodeKey::HbmStack(stack), NodeKey::Iod(stack / 2), hbm));
        }

        let x16 = LinkTech::X16InfinityFabric.spec();
        for port in 0..8u32 {
            links.push((NodeKey::IoPort(port), NodeKey::Iod(port / 2), x16));
        }
        Topology::from_links(links)
    }

    /// Builds the EHPv4-style package (Figure 4): a central server-derived
    /// IOD (node `Iod(0)`), two GPU complexes (`Iod(1)`, `Iod(2)`) each
    /// with two GPU chiplets and four HBM stacks, and two CCDs on the
    /// central IOD — all joined by 2D organic-substrate SerDes because
    /// the server IOD has no advanced-packaging interfaces.
    ///
    /// Several of the server IOD's twelve IF links go unconnected; the
    /// count is exposed via the audit in `ehp-core`.
    #[must_use]
    pub fn ehpv4_package() -> Topology {
        let mut links = Vec::new();
        let serdes = LinkTech::Serdes2D.spec();

        // CCDs 0,1 on the central server IOD.
        for c in 0..2u32 {
            links.push((NodeKey::Chiplet(c), NodeKey::Iod(0), serdes));
        }
        // GPU complexes hang off the server IOD over SerDes; the two GPU
        // sides are far apart (no direct GPU<->GPU link), so GPU0->GPU1
        // traffic crosses the central IOD — the long path the paper calls
        // out.
        for gpu_iod in [1u32, 2] {
            links.push((NodeKey::Iod(gpu_iod), NodeKey::Iod(0), serdes));
        }
        // GPU chiplets 2,3 on complex 1; 4,5 on complex 2 (local 2.5D).
        let local = LinkTech::HbmPhy.spec();
        for (c, iod) in [(2, 1), (3, 1), (4, 2), (5, 2)] {
            links.push((NodeKey::Chiplet(c), NodeKey::Iod(iod), local));
        }

        // Eight HBM stacks: four on each GPU complex.
        let hbm = LinkTech::HbmPhy.spec();
        for stack in 0..8u32 {
            let iod = if stack < 4 { 1 } else { 2 };
            links.push((NodeKey::HbmStack(stack), NodeKey::Iod(iod), hbm));
        }

        // A couple of I/O ports on the server IOD.
        let x16 = LinkTech::X16InfinityFabric.spec();
        for port in 0..2u32 {
            links.push((NodeKey::IoPort(port), NodeKey::Iod(0), x16));
        }
        Topology::from_links(links)
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;

    use super::*;

    /// The distinct nodes of `t` that `pick` selects (every node is the
    /// source of some edge, since links are full duplex).
    fn count_nodes(t: &Topology, pick: fn(&NodeKey) -> bool) -> usize {
        let nodes: BTreeSet<NodeKey> = t.edges().iter().map(|e| e.from).collect();
        nodes.into_iter().filter(pick).count()
    }

    /// Whether edge `ei` of `t` is a 2D SerDes link, told by its
    /// transport energy per byte, which no other technology shares.
    fn is_serdes(t: &Topology, ei: u32) -> bool {
        t.edges()[ei as usize].spec.energy_per_byte == LinkTech::Serdes2D.spec().energy_per_byte
    }

    #[test]
    fn mi300a_package_shape() {
        // MI300A: 2 XCDs per XCD-IOD, 3 CCDs on the last IOD.
        let t = Topology::mi300_package(3);
        let chiplets = count_nodes(&t, |n| matches!(n, NodeKey::Chiplet(_)));
        assert_eq!(chiplets, 9, "6 XCDs + 3 CCDs");
        let stacks = count_nodes(&t, |n| matches!(n, NodeKey::HbmStack(_)));
        assert_eq!(stacks, 8);
        let ports = count_nodes(&t, |n| matches!(n, NodeKey::IoPort(_)));
        assert_eq!(ports, 8);
    }

    #[test]
    fn mi300x_package_shape() {
        let t = Topology::mi300_package(0);
        let chiplets = count_nodes(&t, |n| matches!(n, NodeKey::Chiplet(_)));
        assert_eq!(chiplets, 8, "8 XCDs on MI300X");
    }

    #[test]
    fn dense_ids_follow_first_appearance() {
        let t = Topology::mi300_package(0);
        let mut expect: HashMap<NodeKey, u32> = HashMap::new();
        for e in t.edges() {
            for key in [e.from, e.to] {
                let next = expect.len() as u32;
                expect.entry(key).or_insert(next);
            }
        }
        assert_eq!(t.node_ids, expect);
        assert_eq!(t.route_off.len(), expect.len() * expect.len() + 1);
    }

    #[test]
    fn links_become_both_directions_in_order() {
        let usr = LinkTech::Usr.spec();
        let t = Topology::from_links([(NodeKey::Iod(0), NodeKey::Iod(1), usr)]);
        let ends: Vec<_> = t.edges().iter().map(|e| (e.from, e.to)).collect();
        assert_eq!(
            ends,
            [
                (NodeKey::Iod(0), NodeKey::Iod(1)),
                (NodeKey::Iod(1), NodeKey::Iod(0))
            ]
        );
        assert_eq!(t.route(NodeKey::Iod(1), NodeKey::Iod(0)), Some(&[1][..]));
    }

    #[test]
    fn table_matches_bfs_on_builders() {
        for t in [
            Topology::mi300_package(0),
            Topology::mi300_package(3),
            Topology::ehpv4_package(),
        ] {
            let bfs = crate::oracle::Bfs::new(&t);
            let nodes: BTreeSet<NodeKey> = t.edges().iter().map(|e| e.from).collect();
            for &a in &nodes {
                for &b in &nodes {
                    let table: Option<Vec<usize>> = t
                        .route(a, b)
                        .map(|p| p.iter().map(|&ei| ei as usize).collect());
                    assert_eq!(table, bfs.route(a, b), "{a:?} -> {b:?}");
                }
            }
        }
    }

    #[test]
    fn adjacent_iods_one_hop_diagonal_two() {
        let t = Topology::mi300_package(0);
        assert_eq!(t.hops(NodeKey::Iod(0), NodeKey::Iod(1)), Some(1));
        assert_eq!(t.hops(NodeKey::Iod(0), NodeKey::Iod(2)), Some(1));
        assert_eq!(t.hops(NodeKey::Iod(0), NodeKey::Iod(3)), Some(2));
    }

    #[test]
    fn chiplet_to_any_stack_reachable() {
        let t = Topology::mi300_package(3);
        for c in 0..9u32 {
            for s in 0..8u32 {
                let hops = t
                    .hops(NodeKey::Chiplet(c), NodeKey::HbmStack(s))
                    .expect("reachable");
                // chiplet->iod->(0..2 USR hops)->stack
                assert!(
                    (2..=4).contains(&hops),
                    "chiplet {c} to stack {s}: {hops} hops"
                );
            }
        }
    }

    #[test]
    fn local_stack_is_closest() {
        let t = Topology::mi300_package(0);
        // Chiplet 0 is on IOD 0; stacks 0,1 are local (2 hops), stacks on
        // the diagonal IOD 3 are 4 hops.
        assert_eq!(t.hops(NodeKey::Chiplet(0), NodeKey::HbmStack(0)), Some(2));
        assert_eq!(t.hops(NodeKey::Chiplet(0), NodeKey::HbmStack(7)), Some(4));
    }

    #[test]
    fn route_to_self_is_empty() {
        let t = Topology::mi300_package(0);
        assert_eq!(t.route(NodeKey::Iod(0), NodeKey::Iod(0)), Some(&[][..]));
        assert_eq!(t.hops(NodeKey::Iod(0), NodeKey::Iod(0)), Some(0));
    }

    #[test]
    fn unknown_node_unreachable() {
        let t = Topology::mi300_package(0);
        assert_eq!(t.route(NodeKey::Iod(0), NodeKey::External(99)), None);
        assert_eq!(t.route(NodeKey::External(99), NodeKey::Iod(0)), None);
        assert_eq!(t.hops(NodeKey::Iod(0), NodeKey::External(99)), None);
    }

    #[test]
    fn ehpv4_gpu_to_far_hbm_is_long() {
        let t = Topology::ehpv4_package();
        // GPU chiplet 2 (complex 1) to a far stack (complex 2): must cross
        // the central server IOD: chiplet->iod1->iod0->iod2->stack = 4 hops.
        assert_eq!(t.hops(NodeKey::Chiplet(2), NodeKey::HbmStack(7)), Some(4));
        // Local stack: 2 hops.
        assert_eq!(t.hops(NodeKey::Chiplet(2), NodeKey::HbmStack(0)), Some(2));
    }

    #[test]
    fn ehpv4_cross_traffic_uses_serdes() {
        let t = Topology::ehpv4_package();
        let path = t.route(NodeKey::Chiplet(2), NodeKey::HbmStack(7)).unwrap();
        let serdes_hops = path.iter().filter(|&&ei| is_serdes(&t, ei)).count();
        assert_eq!(serdes_hops, 2, "far HBM crosses two SerDes links");
    }

    #[test]
    fn mi300_cross_traffic_uses_usr_only() {
        let t = Topology::mi300_package(0);
        let path = t.route(NodeKey::Chiplet(0), NodeKey::HbmStack(7)).unwrap();
        for &ei in path {
            assert!(
                !is_serdes(&t, ei),
                "MI300 package should never cross SerDes"
            );
        }
    }
}

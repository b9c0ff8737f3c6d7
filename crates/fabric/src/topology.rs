//! The fabric topology graph and its builders.
//!
//! Nodes are fabric endpoints (IOD routers, compute chiplets, HBM stacks,
//! I/O ports); edges are links with a [`LinkSpec`]. Builders construct the
//! MI300-style 2×2 IOD package and the EHPv4-style server-IOD package so
//! experiments can contrast them.
//!
//! ## Dense-index fast path (DESIGN.md §9)
//!
//! Every node is interned to a stable dense id (`NodeKey → u32`, first
//! appearance order) at [`Topology::add_link`] time; adjacency lives in a
//! CSR (compressed sparse row) layout over those ids, and
//! [`Topology::precompute_routes`] flattens all-pairs shortest paths into
//! one contiguous route table so steady-state consumers
//! ([`FabricSim`](crate::fabric::FabricSim),
//! [`FlowSolver`](crate::flows::FlowSolver)) never run BFS per query.
//! Any mutation (`add_link`) invalidates the table; the builders return
//! with it already precomputed. Table-served routes are bit-identical to
//! [`Topology::route_bfs`] — the property tests under `tests/` pin this
//! for random topologies.

use std::collections::HashMap;

use ehp_sim_core::ids::LinkId;
use ehp_sim_core::json::{Json, ToJson};

use crate::link::{LinkSpec, LinkTech};

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

impl ToJson for NodeKey {
    fn to_json(&self) -> Json {
        Json::Str(format!("{self:?}"))
    }
}

/// A directed edge in the topology (one direction of a full-duplex link).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Edge {
    /// Source endpoint.
    pub from: NodeKey,
    /// Destination endpoint.
    pub to: NodeKey,
    /// Link parameters.
    pub(crate) spec: LinkSpec,
    /// Identifier for contention accounting (both directions of one
    /// physical link share an id but have independent pipes).
    pub(crate) link: LinkId,
}

/// The flattened all-pairs route table: for each `(src, dst)` dense-id
/// pair (row-major), the shortest path as a run of directed edge indices
/// inside one contiguous array.
#[derive(Debug, Clone, Default)]
struct RouteTable {
    /// `node_count² + 1` offsets into `edges`.
    off: Vec<u32>,
    /// Concatenated per-pair edge-index runs.
    edges: Vec<u32>,
    /// Per-pair reachability (distinguishes "empty path" from "no path").
    reach: Vec<bool>,
}

/// Reusable BFS scratch so repeated route computations on unfrozen
/// topologies allocate nothing after warm-up.
#[derive(Debug, Clone, Default)]
pub struct BfsScratch {
    /// Per-node discovering edge index; `u32::MAX` = undiscovered.
    prev: Vec<u32>,
    /// BFS frontier (drained by index, no ring buffer needed).
    queue: Vec<u32>,
}

/// The fabric topology: a small directed multigraph.
///
/// # Example
///
/// ```
/// use ehp_fabric::topology::Topology;
/// let topo = Topology::mi300_package(2, 0); // MI300X: 2 XCDs per IOD
/// // Any chiplet can reach any HBM stack.
/// use ehp_fabric::topology::NodeKey;
/// let path = topo.route(NodeKey::Chiplet(0), NodeKey::HbmStack(7)).unwrap();
/// assert!(!path.is_empty());
/// ```
#[derive(Debug, Clone, Default)]
pub struct Topology {
    edges: Vec<Edge>,
    /// Dense endpoint ids of each edge (parallel to `edges`), so the BFS
    /// hot loops never hash a `NodeKey`.
    edge_src: Vec<u32>,
    edge_dst: Vec<u32>,
    /// `NodeKey → dense id` (first-appearance order; stable under growth).
    node_ids: HashMap<NodeKey, u32>,
    /// Dense id → key.
    node_table: Vec<NodeKey>,
    /// All nodes in sorted order, maintained incrementally for `nodes()`.
    nodes_sorted: Vec<NodeKey>,
    /// CSR adjacency: `csr_off[u]..csr_off[u+1]` indexes `csr_edges`,
    /// which holds outgoing edge indices in insertion order.
    csr_off: Vec<u32>,
    csr_edges: Vec<u32>,
    /// Precomputed all-pairs routes; `None` whenever the edge set has
    /// changed since the last [`Topology::precompute_routes`].
    routes: Option<RouteTable>,
    next_link: u32,
}

impl Topology {
    /// Creates an empty topology.
    #[must_use]
    pub fn new() -> Topology {
        Topology::default()
    }

    fn intern(&mut self, key: NodeKey) -> u32 {
        if let Some(&id) = self.node_ids.get(&key) {
            return id;
        }
        let id = u32::try_from(self.node_table.len()).expect("node count fits u32");
        self.node_ids.insert(key, id);
        self.node_table.push(key);
        let pos = self
            .nodes_sorted
            .binary_search(&key)
            .expect_err("new node not yet present");
        self.nodes_sorted.insert(pos, key);
        id
    }

    /// Rebuilds the CSR adjacency from the edge list (stable counting
    /// sort by source node, so per-node neighbour order is edge insertion
    /// order — the BFS tie-break rule).
    fn rebuild_csr(&mut self) {
        let n = self.node_table.len();
        self.csr_off.clear();
        self.csr_off.resize(n + 1, 0);
        for &src in &self.edge_src {
            self.csr_off[src as usize + 1] += 1;
        }
        for u in 0..n {
            self.csr_off[u + 1] += self.csr_off[u];
        }
        self.csr_edges.resize(self.edges.len(), 0);
        let mut cursor: Vec<u32> = self.csr_off[..n].to_vec();
        for (ei, &src) in self.edge_src.iter().enumerate() {
            let slot = &mut cursor[src as usize];
            self.csr_edges[*slot as usize] = ei as u32;
            *slot += 1;
        }
    }

    /// Adds a full-duplex link (two directed edges sharing a [`LinkId`]);
    /// returns the id. Invalidates any precomputed route table.
    pub fn add_link(&mut self, a: NodeKey, b: NodeKey, spec: LinkSpec) -> LinkId {
        let id = LinkId(self.next_link);
        self.next_link += 1;
        for (from, to) in [(a, b), (b, a)] {
            let (src, dst) = (self.intern(from), self.intern(to));
            self.edges.push(Edge {
                from,
                to,
                spec,
                link: id,
            });
            self.edge_src.push(src);
            self.edge_dst.push(dst);
        }
        self.rebuild_csr();
        self.routes = None;
        id
    }

    /// All directed edges.
    #[must_use]
    pub fn edges(&self) -> &[Edge] {
        &self.edges
    }

    /// The dense id of a node, if it appears in the graph.
    #[must_use]
    pub(crate) fn node_id(&self, key: NodeKey) -> Option<usize> {
        self.node_ids.get(&key).map(|&id| id as usize)
    }

    /// All nodes that appear in the graph, in sorted order. Served from
    /// the dense node table maintained at construction — no per-call
    /// collection or sort.
    #[must_use]
    pub fn nodes(&self) -> &[NodeKey] {
        &self.nodes_sorted
    }

    /// Whether the all-pairs route table is built and current.
    #[must_use]
    pub(crate) fn routes_ready(&self) -> bool {
        self.routes.is_some()
    }

    /// Builds the flat all-pairs route table (one full BFS per source
    /// over the CSR adjacency). Idempotent; `add_link` invalidates it.
    /// The builders and [`FabricSim::new`](crate::fabric::FabricSim::new)
    /// call this, so steady-state routing never re-runs BFS.
    pub fn precompute_routes(&mut self) {
        if self.routes.is_some() {
            return;
        }
        let n = self.node_table.len();
        let mut table = RouteTable {
            off: Vec::with_capacity(n * n + 1),
            edges: Vec::new(),
            reach: vec![false; n * n],
        };
        table.off.push(0);
        let mut prev = vec![u32::MAX; n];
        let mut queue: Vec<u32> = Vec::with_capacity(n);
        let mut path: Vec<u32> = Vec::new();
        for src in 0..n as u32 {
            // Full single-source BFS: discovery order (and therefore
            // every prev pointer) matches the truncated per-pair BFS in
            // `route_bfs`, because truncation never rewrites the prev of
            // an already-discovered node.
            prev.fill(u32::MAX);
            queue.clear();
            queue.push(src);
            let mut head = 0;
            while head < queue.len() {
                let u = queue[head] as usize;
                head += 1;
                let (lo, hi) = (self.csr_off[u] as usize, self.csr_off[u + 1] as usize);
                for &ei in &self.csr_edges[lo..hi] {
                    let v = self.edge_dst[ei as usize];
                    if v != src && prev[v as usize] == u32::MAX {
                        prev[v as usize] = ei;
                        queue.push(v);
                    }
                }
            }
            for dst in 0..n as u32 {
                let pair = src as usize * n + dst as usize;
                if dst == src {
                    table.reach[pair] = true;
                } else if prev[dst as usize] != u32::MAX {
                    table.reach[pair] = true;
                    path.clear();
                    let mut cur = dst;
                    while cur != src {
                        let ei = prev[cur as usize];
                        path.push(ei);
                        cur = self.edge_src[ei as usize];
                    }
                    table.edges.extend(path.iter().rev());
                }
                table.off.push(table.edges.len() as u32);
            }
        }
        self.routes = Some(table);
    }

    /// Table-served route as a borrowed slice of directed edge indices
    /// (empty for `from == to`); `None` if unreachable. This is the
    /// allocation-free steady-state path.
    ///
    /// # Panics
    /// If the route table has not been built (call
    /// [`Topology::precompute_routes`] after the last mutation).
    #[must_use]
    pub(crate) fn route_slice(&self, from: NodeKey, to: NodeKey) -> Option<&[u32]> {
        // lint:hot-path
        if from == to {
            return Some(&[]);
        }
        let table = self
            .routes
            .as_ref()
            .expect("route table not built: call precompute_routes()");
        let n = self.node_table.len();
        let (src, dst) = (self.node_id(from)?, self.node_id(to)?);
        let pair = src * n + dst;
        table.reach[pair].then(|| {
            let (lo, hi) = (table.off[pair] as usize, table.off[pair + 1] as usize);
            &table.edges[lo..hi]
        })
        // lint:hot-path-end
    }

    /// Shortest path (fewest hops, ties broken by insertion order) from
    /// `from` to `to` as a list of directed edge indices. Returns `None`
    /// if unreachable. Served from the precomputed table when current,
    /// otherwise falls back to a fresh BFS.
    #[must_use]
    pub fn route(&self, from: NodeKey, to: NodeKey) -> Option<Vec<usize>> {
        if from == to {
            return Some(Vec::new());
        }
        if self.routes.is_some() {
            return self
                .route_slice(from, to)
                .map(|p| p.iter().map(|&ei| ei as usize).collect());
        }
        self.route_bfs(from, to)
    }

    /// Always-BFS route (the pre-table algorithm), kept as the oracle for
    /// differential tests and the route-table build.
    #[must_use]
    pub fn route_bfs(&self, from: NodeKey, to: NodeKey) -> Option<Vec<usize>> {
        if from == to {
            return Some(Vec::new());
        }
        let mut scratch = BfsScratch::default();
        let mut out = Vec::new();
        self.route_into(from, to, &mut scratch, &mut out)
            .then(|| out.iter().map(|&ei| ei as usize).collect())
    }

    /// BFS route into caller-owned buffers (allocation-free after
    /// warm-up): fills `out` with the path's directed edge indices and
    /// returns whether `to` is reachable (`from == to` is reachable with
    /// an empty path).
    pub(crate) fn route_into(
        &self,
        from: NodeKey,
        to: NodeKey,
        scratch: &mut BfsScratch,
        out: &mut Vec<u32>,
    ) -> bool {
        out.clear();
        if from == to {
            return true;
        }
        let n = self.node_table.len();
        let (Some(src), Some(dst)) = (self.node_id(from), self.node_id(to)) else {
            return false;
        };
        let (src, dst) = (src as u32, dst as u32);
        scratch.prev.clear();
        scratch.prev.resize(n, u32::MAX);
        scratch.queue.clear();
        scratch.queue.push(src);
        let mut head = 0;
        while head < scratch.queue.len() {
            let u = scratch.queue[head] as usize;
            head += 1;
            if u as u32 == dst {
                break;
            }
            let (lo, hi) = (self.csr_off[u] as usize, self.csr_off[u + 1] as usize);
            for &ei in &self.csr_edges[lo..hi] {
                let v = self.edge_dst[ei as usize];
                if v != src && scratch.prev[v as usize] == u32::MAX {
                    scratch.prev[v as usize] = ei;
                    scratch.queue.push(v);
                }
            }
        }
        if scratch.prev[dst as usize] == u32::MAX {
            return false;
        }
        let mut cur = dst;
        while cur != src {
            let ei = scratch.prev[cur as usize];
            out.push(ei);
            cur = self.edge_src[ei as usize];
        }
        out.reverse();
        true
    }

    /// Hop count between two nodes, if reachable.
    #[must_use]
    pub fn hops(&self, from: NodeKey, to: NodeKey) -> Option<usize> {
        if from == to {
            return Some(0);
        }
        if self.routes.is_some() {
            return self.route_slice(from, to).map(<[u32]>::len);
        }
        self.route_bfs(from, to).map(|p| p.len())
    }

    /// Builds the MI300-style package fabric: four IODs in a 2×2 grid
    /// joined by USR links, `xcds_per_iod` XCD chiplets hybrid-bonded to
    /// the first IODs and `ccds` CCDs on the remainder (MI300A: 2 XCDs on
    /// three IODs + 3 CCDs on one; MI300X: 2 XCDs on all four), two HBM
    /// stacks per IOD, and two x16 I/O ports per IOD.
    ///
    /// Chiplet indices are assigned IOD-major: chiplets on IOD *i* come
    /// before chiplets on IOD *i+1*. The route table is precomputed.
    #[must_use]
    pub fn mi300_package(xcds_per_iod: u32, ccds: u32) -> Topology {
        let mut t = Topology::new();
        let usr = LinkTech::Usr.spec();
        // 2x2 grid: IODs 0,1 on top; 2,3 on bottom. Adjacent pairs get USR.
        for (a, b) in [(0, 1), (2, 3), (0, 2), (1, 3)] {
            t.add_link(NodeKey::Iod(a), NodeKey::Iod(b), usr);
        }

        let bond = LinkTech::HybridBond3D.spec();
        let mut chiplet = 0u32;
        // One IOD carries the CCDs in MI300A (paper: 3 CCDs on one IOD);
        // here the *last* IOD hosts them when ccds > 0.
        for iod in 0..4u32 {
            let is_ccd_iod = ccds > 0 && iod == 3;
            let count = if is_ccd_iod { ccds } else { xcds_per_iod };
            for _ in 0..count {
                t.add_link(NodeKey::Chiplet(chiplet), NodeKey::Iod(iod), bond);
                chiplet += 1;
            }
        }

        let hbm = LinkTech::HbmPhy.spec();
        for stack in 0..8u32 {
            t.add_link(NodeKey::HbmStack(stack), NodeKey::Iod(stack / 2), hbm);
        }

        let x16 = LinkTech::X16InfinityFabric.spec();
        for port in 0..8u32 {
            t.add_link(NodeKey::IoPort(port), NodeKey::Iod(port / 2), x16);
        }
        t.precompute_routes();
        t
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
        let mut t = Topology::new();
        let serdes = LinkTech::Serdes2D.spec();

        // CCDs 0,1 on the central server IOD.
        for c in 0..2u32 {
            t.add_link(NodeKey::Chiplet(c), NodeKey::Iod(0), serdes);
        }
        // GPU complexes hang off the server IOD over SerDes; the two GPU
        // sides are far apart (no direct GPU<->GPU link), so GPU0->GPU1
        // traffic crosses the central IOD — the long path the paper calls
        // out.
        for gpu_iod in [1u32, 2] {
            t.add_link(NodeKey::Iod(gpu_iod), NodeKey::Iod(0), serdes);
        }
        // GPU chiplets 2,3 on complex 1; 4,5 on complex 2 (local 2.5D).
        let local = LinkTech::HbmPhy.spec();
        t.add_link(NodeKey::Chiplet(2), NodeKey::Iod(1), local);
        t.add_link(NodeKey::Chiplet(3), NodeKey::Iod(1), local);
        t.add_link(NodeKey::Chiplet(4), NodeKey::Iod(2), local);
        t.add_link(NodeKey::Chiplet(5), NodeKey::Iod(2), local);

        // Eight HBM stacks: four on each GPU complex.
        let hbm = LinkTech::HbmPhy.spec();
        for stack in 0..8u32 {
            let iod = if stack < 4 { 1 } else { 2 };
            t.add_link(NodeKey::HbmStack(stack), NodeKey::Iod(iod), hbm);
        }

        // A couple of I/O ports on the server IOD.
        let x16 = LinkTech::X16InfinityFabric.spec();
        for port in 0..2u32 {
            t.add_link(NodeKey::IoPort(port), NodeKey::Iod(0), x16);
        }
        t.precompute_routes();
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mi300a_package_shape() {
        // MI300A: 2 XCDs per XCD-IOD, 3 CCDs on the last IOD.
        let t = Topology::mi300_package(2, 3);
        let nodes = t.nodes();
        let chiplets = nodes
            .iter()
            .filter(|n| matches!(n, NodeKey::Chiplet(_)))
            .count();
        assert_eq!(chiplets, 9, "6 XCDs + 3 CCDs");
        let stacks = nodes
            .iter()
            .filter(|n| matches!(n, NodeKey::HbmStack(_)))
            .count();
        assert_eq!(stacks, 8);
        let ports = nodes
            .iter()
            .filter(|n| matches!(n, NodeKey::IoPort(_)))
            .count();
        assert_eq!(ports, 8);
    }

    #[test]
    fn mi300x_package_shape() {
        let t = Topology::mi300_package(2, 0);
        let chiplets = t
            .nodes()
            .iter()
            .filter(|n| matches!(n, NodeKey::Chiplet(_)))
            .count();
        assert_eq!(chiplets, 8, "8 XCDs on MI300X");
    }

    #[test]
    fn nodes_is_sorted_and_dense_ids_are_stable() {
        let t = Topology::mi300_package(2, 0);
        assert!(
            t.nodes().windows(2).all(|w| w[0] < w[1]),
            "sorted, no dupes"
        );
        assert_eq!(t.nodes().len(), t.node_table.len());
        for (id, &key) in t.node_table.iter().enumerate() {
            assert_eq!(t.node_id(key), Some(id));
        }
    }

    #[test]
    fn adjacent_iods_one_hop_diagonal_two() {
        let t = Topology::mi300_package(2, 0);
        assert_eq!(t.hops(NodeKey::Iod(0), NodeKey::Iod(1)), Some(1));
        assert_eq!(t.hops(NodeKey::Iod(0), NodeKey::Iod(2)), Some(1));
        assert_eq!(t.hops(NodeKey::Iod(0), NodeKey::Iod(3)), Some(2));
    }

    #[test]
    fn chiplet_to_any_stack_reachable() {
        let t = Topology::mi300_package(2, 3);
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
        let t = Topology::mi300_package(2, 0);
        // Chiplet 0 is on IOD 0; stacks 0,1 are local (2 hops), stacks on
        // the diagonal IOD 3 are 4 hops.
        assert_eq!(t.hops(NodeKey::Chiplet(0), NodeKey::HbmStack(0)), Some(2));
        assert_eq!(t.hops(NodeKey::Chiplet(0), NodeKey::HbmStack(7)), Some(4));
    }

    #[test]
    fn route_to_self_is_empty() {
        let t = Topology::mi300_package(2, 0);
        assert_eq!(t.route(NodeKey::Iod(0), NodeKey::Iod(0)), Some(vec![]));
        assert_eq!(
            t.route_slice(NodeKey::Iod(0), NodeKey::Iod(0)),
            Some(&[][..])
        );
    }

    #[test]
    fn unknown_node_unreachable() {
        let t = Topology::mi300_package(2, 0);
        assert_eq!(t.route(NodeKey::Iod(0), NodeKey::External(99)), None);
        assert_eq!(t.route_slice(NodeKey::Iod(0), NodeKey::External(99)), None);
    }

    #[test]
    fn table_matches_bfs_on_builders() {
        for t in [
            Topology::mi300_package(2, 0),
            Topology::mi300_package(2, 3),
            Topology::ehpv4_package(),
        ] {
            assert!(t.routes_ready());
            for &a in t.nodes() {
                for &b in t.nodes() {
                    assert_eq!(t.route(a, b), t.route_bfs(a, b), "{a:?} -> {b:?}");
                }
            }
        }
    }

    #[test]
    fn add_link_invalidates_route_table() {
        let mut t = Topology::mi300_package(2, 0);
        assert!(t.routes_ready());
        t.add_link(
            NodeKey::External(0),
            NodeKey::IoPort(0),
            LinkTech::X16InfinityFabric.spec(),
        );
        assert!(!t.routes_ready(), "mutation must drop the table");
        // BFS fallback still answers, and rebuilding restores the table.
        assert!(t
            .route(NodeKey::External(0), NodeKey::HbmStack(0))
            .is_some());
        t.precompute_routes();
        assert!(t.routes_ready());
        assert_eq!(
            t.route(NodeKey::External(0), NodeKey::HbmStack(0)),
            t.route_bfs(NodeKey::External(0), NodeKey::HbmStack(0)),
        );
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
        let serdes_hops = path
            .iter()
            .filter(|&&ei| t.edges()[ei].spec.tech == LinkTech::Serdes2D)
            .count();
        assert_eq!(serdes_hops, 2, "far HBM crosses two SerDes links");
    }

    #[test]
    fn mi300_cross_traffic_uses_usr_only() {
        let t = Topology::mi300_package(2, 0);
        let path = t.route(NodeKey::Chiplet(0), NodeKey::HbmStack(7)).unwrap();
        for &ei in &path {
            let tech = t.edges()[ei].spec.tech;
            assert!(
                !matches!(tech, LinkTech::Serdes2D),
                "MI300 package should never cross SerDes"
            );
        }
    }

    #[test]
    fn link_ids_shared_by_directions() {
        let mut t = Topology::new();
        let id = t.add_link(NodeKey::Iod(0), NodeKey::Iod(1), LinkTech::Usr.spec());
        let both: Vec<_> = t.edges().iter().filter(|e| e.link == id).collect();
        assert_eq!(both.len(), 2);
        assert_eq!(both[0].from, both[1].to);
    }
}

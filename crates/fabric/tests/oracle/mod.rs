//! Test oracles for the fabric's route table and dense flow solver,
//! shared by `route_table_props.rs`, the crate's unit tests and
//! `crates/bench/benches/fabric.rs` (the last two include this file by
//! `#[path]`).
//!
//! - [`Bfs`]: a per-pair breadth-first search written over the public
//!   edge list, so it shares no code with the route table build.
//! - [`solve`]: the pre-refactor map-based max-min solver, routing every
//!   flow with a fresh [`Bfs`] search.
//!
//! The file names the fabric's modules as `crate::flows` and
//! `crate::topology`, so it compiles inside the fabric crate too; other
//! includers import them at their root with
//! `use ehp_fabric::{flows, topology};`.

use std::collections::{HashMap, VecDeque};

use crate::flows::{Flow, FlowRate};
use crate::topology::{NodeKey, Topology};

/// Fewest-hop routes over [`Topology::edges`], each node's outgoing
/// edges tried in insertion order: the tie-break the route table
/// promises.
#[derive(Debug)]
pub struct Bfs {
    /// Every node, sorted; a node's index is its position here.
    nodes: Vec<NodeKey>,
    /// Each edge's source and target node indices.
    ends: Vec<(usize, usize)>,
    /// Each node's outgoing edge indices, in insertion order.
    out: Vec<Vec<usize>>,
}

impl Bfs {
    /// Indexes the nodes and edges of `topo`.
    pub fn new(topo: &Topology) -> Bfs {
        // Links are full duplex, so every node is some edge's source.
        let mut nodes: Vec<NodeKey> = topo.edges().iter().map(|e| e.from).collect();
        nodes.sort();
        nodes.dedup();
        let index = |key| nodes.binary_search(&key).expect("edge ends at a node");
        let ends: Vec<(usize, usize)> = topo
            .edges()
            .iter()
            .map(|e| (index(e.from), index(e.to)))
            .collect();
        let mut out = vec![Vec::new(); nodes.len()];
        for (ei, &(u, _)) in ends.iter().enumerate() {
            out[u].push(ei);
        }
        Bfs { nodes, ends, out }
    }

    /// The path from `from` to `to` as directed edge indices: empty for
    /// `from == to`, `None` if unreachable. Searches from `from` until
    /// `to` leaves the queue.
    pub fn route(&self, from: NodeKey, to: NodeKey) -> Option<Vec<usize>> {
        if from == to {
            return Some(Vec::new());
        }
        let src = self.nodes.binary_search(&from).ok()?;
        let dst = self.nodes.binary_search(&to).ok()?;
        // The edge that discovered each node.
        let mut prev: Vec<Option<usize>> = vec![None; self.nodes.len()];
        let mut queue = VecDeque::from([src]);
        while let Some(u) = queue.pop_front() {
            if u == dst {
                break;
            }
            for &ei in &self.out[u] {
                let v = self.ends[ei].1;
                if v != src && prev[v].is_none() {
                    prev[v] = Some(ei);
                    queue.push_back(v);
                }
            }
        }
        let mut path = Vec::new();
        let mut cur = dst;
        while cur != src {
            let ei = prev[cur]?;
            path.push(ei);
            cur = self.ends[ei].0;
        }
        path.reverse();
        Some(path)
    }
}

/// Each flow's allocation as the bit pattern of its rate in bytes per
/// second and whether a link limits it: equal outcomes are bit-identical.
pub fn outcomes(rates: &[FlowRate]) -> Vec<(u64, bool)> {
    rates
        .iter()
        .map(|r| (r.rate.as_bytes_per_sec().to_bits(), r.link_limited))
        .collect()
}

/// The pre-refactor solver: progressive-filling max-min allocation with
/// `HashMap`-keyed link capacities and a fresh BFS per flow. Its
/// per-round `min` reduction and uniform updates do not depend on the
/// map's iteration order. Returns [`outcomes`].
pub fn solve(topo: &Topology, flows: &[Flow]) -> Vec<(u64, bool)> {
    // Route each flow once (directed edge indices).
    let bfs = Bfs::new(topo);
    let routes: Vec<Option<Vec<usize>>> = flows.iter().map(|f| bfs.route(f.from, f.to)).collect();

    let mut rate = vec![0.0f64; flows.len()];
    let mut frozen = vec![false; flows.len()];
    for (i, r) in routes.iter().enumerate() {
        if r.is_none() || r.as_ref().is_some_and(Vec::is_empty) {
            frozen[i] = true;
        }
    }

    // Remaining capacity per directed edge.
    let mut cap: HashMap<usize, f64> = HashMap::new();
    for (i, r) in routes.iter().enumerate() {
        if frozen[i] {
            continue;
        }
        for &e in r.as_ref().expect("active flow has route") {
            cap.entry(e)
                .or_insert_with(|| topo.edges()[e].spec.per_direction.as_bytes_per_sec());
        }
    }

    loop {
        let active: Vec<usize> = (0..flows.len()).filter(|&i| !frozen[i]).collect();
        if active.is_empty() {
            break;
        }

        let mut delta = f64::INFINITY;
        for (&e, &remaining) in &cap {
            let crossing = active
                .iter()
                .filter(|&&i| routes[i].as_ref().expect("route").contains(&e))
                .count();
            if crossing > 0 {
                delta = delta.min(remaining / crossing as f64);
            }
        }
        for &i in &active {
            if let Some(d) = flows[i].demand {
                delta = delta.min(d.as_bytes_per_sec() - rate[i]);
            }
        }
        if !delta.is_finite() || delta <= 1e-6 {
            break;
        }

        for &i in &active {
            rate[i] += delta;
        }
        let edges: Vec<usize> = cap.keys().copied().collect();
        for e in edges {
            let crossing = active
                .iter()
                .filter(|&&i| routes[i].as_ref().expect("route").contains(&e))
                .count();
            if crossing > 0 {
                *cap.get_mut(&e).expect("known edge") -= delta * crossing as f64;
            }
        }

        let saturated: Vec<usize> = cap
            .iter()
            .filter(|(_, &rem)| rem <= 1e-3)
            .map(|(&e, _)| e)
            .collect();
        for &i in &active {
            let on_saturated = routes[i]
                .as_ref()
                .expect("route")
                .iter()
                .any(|e| saturated.contains(e));
            let at_demand = flows[i]
                .demand
                .is_some_and(|d| rate[i] >= d.as_bytes_per_sec() - 1e-3);
            if on_saturated || at_demand {
                frozen[i] = true;
            }
        }
    }

    flows
        .iter()
        .enumerate()
        .map(|(i, &flow)| {
            let link_limited = routes[i].as_ref().is_some_and(|r| !r.is_empty())
                && flow
                    .demand
                    .is_none_or(|d| rate[i] < d.as_bytes_per_sec() - 1e-3);
            (rate[i].max(0.0).to_bits(), link_limited)
        })
        .collect()
}

//! Steady-state flow analysis: max-min fair bandwidth allocation.
//!
//! The timed [`FabricSim`](crate::fabric::FabricSim) answers "when does
//! this message arrive"; this module answers the steady-state question —
//! given a set of continuous flows (e.g. every XCD streaming from every
//! HBM stack), what throughput does each sustain once links saturate?
//! The allocator implements progressive filling (max-min fairness),
//! which is what a well-arbitrated fabric converges to, and is the right
//! tool for the paper's bandwidth claims under contention.
//!
//! ## Dense fast path (DESIGN.md §9)
//!
//! Sweep studies solve many flow sets over one fixed topology, so the
//! solver works entirely in dense per-edge/per-flow arrays held in a
//! reusable [`SolverWorkspace`]: routes are borrowed from the topology's
//! route table, and a warmed-up workspace allocates nothing per
//! [`FlowSolver::solve_into`] call. Links are visited in edge-index
//! order, so every floating-point reduction sees the same values as the
//! pre-refactor map-based solver, which the tests under `tests/` keep as
//! an oracle: outputs are bit-identical.

use ehp_sim_core::units::Bandwidth;

use crate::topology::{NodeKey, Topology};

/// One continuous flow.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Flow {
    /// Source endpoint.
    pub from: NodeKey,
    /// Destination endpoint.
    pub to: NodeKey,
    /// Offered load (demand ceiling); unlimited if `None`.
    pub demand: Option<Bandwidth>,
}

impl Flow {
    /// An unlimited (greedy) flow.
    #[must_use]
    pub fn greedy(from: NodeKey, to: NodeKey) -> Flow {
        Flow {
            from,
            to,
            demand: None,
        }
    }
}

/// The allocation result for one flow.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlowRate {
    /// Allocated steady-state throughput.
    pub rate: Bandwidth,
    /// Whether the flow is bottlenecked by a link (vs its own demand).
    pub link_limited: bool,
}

/// Reusable dense scratch state for [`FlowSolver`]: per-flow rates,
/// flattened routes, per-edge capacities and saturation flags, and the
/// active-flow list. After the first solve of a given problem size,
/// subsequent solves allocate nothing.
#[derive(Debug, Clone, Default)]
pub struct SolverWorkspace {
    // Per-flow state.
    rate: Vec<f64>,
    frozen: Vec<bool>,
    route_off: Vec<u32>,
    route_edges: Vec<u32>,
    // Per-edge state (indexed by directed edge index).
    cap: Vec<f64>,
    in_cap: Vec<bool>,
    crossing: Vec<u32>,
    saturated: Vec<bool>,
    // Scratch.
    active: Vec<u32>,
}

impl SolverWorkspace {
    /// Creates an empty workspace (buffers grow on first use).
    #[must_use]
    pub fn new() -> SolverWorkspace {
        SolverWorkspace::default()
    }

    fn reset(&mut self, flows: usize, edges: usize) {
        self.rate.clear();
        self.rate.resize(flows, 0.0);
        self.frozen.clear();
        self.frozen.resize(flows, false);
        self.route_off.clear();
        self.route_off.push(0);
        self.route_edges.clear();
        self.cap.clear();
        self.cap.resize(edges, 0.0);
        self.in_cap.clear();
        self.in_cap.resize(edges, false);
        self.crossing.clear();
        self.crossing.resize(edges, 0);
        self.saturated.clear();
        self.saturated.resize(edges, false);
        self.active.clear();
    }

    fn route(&self, i: usize) -> &[u32] {
        &self.route_edges[self.route_off[i] as usize..self.route_off[i + 1] as usize]
    }
}

/// Max-min fair allocator over a topology.
///
/// # Examples
///
/// ```
/// use ehp_fabric::flows::{Flow, FlowSolver};
/// use ehp_fabric::topology::{NodeKey, Topology};
///
/// let topo = Topology::mi300_package(0);
/// let solver = FlowSolver::new(&topo);
/// let rates = solver.solve(&[Flow::greedy(NodeKey::Chiplet(0), NodeKey::HbmStack(0))]);
/// assert!(rates[0].rate.as_gb_s() > 600.0); // HBM-PHY bottleneck
/// ```
#[derive(Debug)]
pub struct FlowSolver<'a> {
    topo: &'a Topology,
}

impl<'a> FlowSolver<'a> {
    /// Creates a solver over a topology.
    #[must_use]
    pub fn new(topo: &'a Topology) -> FlowSolver<'a> {
        FlowSolver { topo }
    }

    /// Solves the max-min fair allocation. Flows whose route does not
    /// exist, and self-flows (`from == to`, an empty route), are returned
    /// with zero rate and `link_limited = false`: no link limits them.
    ///
    /// Convenience wrapper that allocates a one-shot [`SolverWorkspace`];
    /// sweeps should hold a workspace and call [`FlowSolver::solve_into`].
    #[must_use]
    pub fn solve(&self, flows: &[Flow]) -> Vec<FlowRate> {
        let mut out = Vec::with_capacity(flows.len());
        self.solve_into(flows, &mut SolverWorkspace::new(), &mut out);
        out
    }

    /// Solves into caller-owned buffers: with a warmed-up workspace and a
    /// result vector of sufficient capacity, performs zero heap
    /// allocations.
    ///
    /// Progressive filling: raise every unfrozen flow's rate uniformly
    /// until a link saturates or a flow hits its demand; freeze those;
    /// repeat. Links are scanned in directed-edge-index order; because
    /// the per-round increment is a pure `min` reduction and per-edge
    /// updates are independent, the result is bit-identical to the
    /// pre-refactor map-based solver.
    pub fn solve_into(&self, flows: &[Flow], ws: &mut SolverWorkspace, out: &mut Vec<FlowRate>) {
        // lint:hot-path
        let n_edges = self.topo.edges().len();
        ws.reset(flows.len(), n_edges);

        // Route each flow once, borrowed from the topology's route table.
        for (i, f) in flows.iter().enumerate() {
            if let Some(path) = self.topo.route(f.from, f.to) {
                ws.route_edges.extend_from_slice(path);
            }
            ws.route_off.push(ws.route_edges.len() as u32);
            // Unroutable flows and self-flows cross no link: their route
            // is empty and they start frozen.
            if ws.route(i).is_empty() {
                ws.frozen[i] = true;
            }
        }

        // Remaining capacity per directed edge, over the edges any
        // initially active flow crosses.
        for i in 0..flows.len() {
            if ws.frozen[i] {
                continue;
            }
            for k in ws.route_off[i] as usize..ws.route_off[i + 1] as usize {
                let e = ws.route_edges[k] as usize;
                if !ws.in_cap[e] {
                    ws.in_cap[e] = true;
                    ws.cap[e] = self.topo.edges()[e].spec.per_direction.as_bytes_per_sec();
                }
            }
        }

        loop {
            ws.active.clear();
            for i in 0..flows.len() {
                if !ws.frozen[i] {
                    ws.active.push(i as u32);
                }
            }
            if ws.active.is_empty() {
                break;
            }

            // How much headroom can every active flow gain uniformly?
            // Per link: remaining / active flows crossing it.
            ws.crossing[..n_edges].fill(0);
            for a in 0..ws.active.len() {
                let i = ws.active[a] as usize;
                for k in ws.route_off[i] as usize..ws.route_off[i + 1] as usize {
                    ws.crossing[ws.route_edges[k] as usize] += 1;
                }
            }
            let mut delta = f64::INFINITY;
            for e in 0..n_edges {
                if ws.crossing[e] > 0 {
                    delta = delta.min(ws.cap[e] / f64::from(ws.crossing[e]));
                }
            }
            // Demand ceilings.
            for a in 0..ws.active.len() {
                let i = ws.active[a] as usize;
                if let Some(d) = flows[i].demand {
                    delta = delta.min(d.as_bytes_per_sec() - ws.rate[i]);
                }
            }
            if !delta.is_finite() || delta <= 1e-6 {
                // No constraining link and no demand: flows are capped by
                // nothing in the model — freeze at current rate.
                break;
            }

            // Apply the increment.
            for a in 0..ws.active.len() {
                ws.rate[ws.active[a] as usize] += delta;
            }
            for e in 0..n_edges {
                if ws.crossing[e] > 0 {
                    ws.cap[e] -= delta * f64::from(ws.crossing[e]);
                }
            }

            // Freeze flows on saturated links or at their demand.
            for e in 0..n_edges {
                ws.saturated[e] = ws.in_cap[e] && ws.cap[e] <= 1e-3;
            }
            for a in 0..ws.active.len() {
                let i = ws.active[a] as usize;
                let on_saturated = ws.route(i).iter().any(|&e| ws.saturated[e as usize]);
                let at_demand = flows[i]
                    .demand
                    .is_some_and(|d| ws.rate[i] >= d.as_bytes_per_sec() - 1e-3);
                if on_saturated || at_demand {
                    ws.frozen[i] = true;
                }
            }
        }

        out.clear();
        out.extend(flows.iter().enumerate().map(|(i, &flow)| {
            FlowRate {
                rate: Bandwidth::from_bytes_per_sec(ws.rate[i].max(0.0)),
                link_limited: !ws.route(i).is_empty()
                    && flow
                        .demand
                        .is_none_or(|d| ws.rate[i] < d.as_bytes_per_sec() - 1e-3),
            }
        }));
        // lint:hot-path-end
    }

    /// Aggregate throughput of a flow set.
    #[must_use]
    pub fn aggregate(&self, flows: &[Flow]) -> Bandwidth {
        self.solve(flows).iter().map(|r| r.rate).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::LinkTech;

    fn one_usr_link() -> Topology {
        Topology::from_links([(NodeKey::Iod(0), NodeKey::Iod(1), LinkTech::Usr.spec())])
    }

    #[test]
    fn single_flow_gets_bottleneck_bandwidth() {
        let topo = Topology::mi300_package(0);
        let solver = FlowSolver::new(&topo);
        let rates = solver.solve(&[Flow::greedy(NodeKey::Chiplet(0), NodeKey::HbmStack(0))]);
        // Bottleneck is the HBM PHY: 662.5 GB/s.
        assert!((rates[0].rate.as_gb_s() - 662.5).abs() < 1.0);
        assert!(rates[0].link_limited);
    }

    #[test]
    fn two_flows_share_a_link_fairly() {
        let topo = one_usr_link();
        let solver = FlowSolver::new(&topo);
        let f = Flow::greedy(NodeKey::Iod(0), NodeKey::Iod(1));
        let rates = solver.solve(&[f, f]);
        let total: f64 = rates.iter().map(|r| r.rate.as_tb_s()).sum();
        assert!((total - 1.5).abs() < 0.01, "link fully used: {total}");
        assert!((rates[0].rate.as_tb_s() - rates[1].rate.as_tb_s()).abs() < 0.01);
    }

    #[test]
    fn demand_capped_flow_leaves_room() {
        let topo = one_usr_link();
        let solver = FlowSolver::new(&topo);
        let small = Flow {
            from: NodeKey::Iod(0),
            to: NodeKey::Iod(1),
            demand: Some(Bandwidth::from_gb_s(100.0)),
        };
        let big = Flow::greedy(NodeKey::Iod(0), NodeKey::Iod(1));
        let rates = solver.solve(&[small, big]);
        assert!((rates[0].rate.as_gb_s() - 100.0).abs() < 0.5);
        assert!(!rates[0].link_limited, "capped by its own demand");
        // The greedy flow takes the rest of the 1.5 TB/s.
        assert!((rates[1].rate.as_gb_s() - 1400.0).abs() < 5.0);
    }

    #[test]
    fn unroutable_flow_gets_zero() {
        let topo = Topology::mi300_package(0);
        let solver = FlowSolver::new(&topo);
        let rates = solver.solve(&[Flow::greedy(NodeKey::Iod(0), NodeKey::External(77))]);
        assert_eq!(rates[0].rate.as_gb_s(), 0.0);
        assert!(!rates[0].link_limited);
    }

    #[test]
    fn self_flow_is_not_link_limited() {
        // A self-flow crosses no link, so no link can limit it, with or
        // without a demand.
        let topo = one_usr_link();
        let solver = FlowSolver::new(&topo);
        let greedy = Flow::greedy(NodeKey::Iod(0), NodeKey::Iod(0));
        let capped = Flow {
            demand: Some(Bandwidth::from_gb_s(100.0)),
            ..greedy
        };
        for r in solver.solve(&[greedy, capped]) {
            assert_eq!(r.rate.as_gb_s(), 0.0);
            assert!(!r.link_limited);
        }
    }

    #[test]
    fn all_xcds_streaming_all_stacks_reach_hbm_class_aggregate() {
        // The paper's architectural claim: with the USR mesh, aggregate
        // GPU streaming saturates the HBM, not the fabric.
        let topo = Topology::mi300_package(0);
        let solver = FlowSolver::new(&topo);
        let mut flows = Vec::new();
        for c in 0..8u32 {
            for s in 0..8u32 {
                flows.push(Flow::greedy(NodeKey::Chiplet(c), NodeKey::HbmStack(s)));
            }
        }
        let agg = solver.aggregate(&flows);
        // All 8 stacks' PHYs saturated: 8 x 662.5 = 5.3 TB/s.
        assert!(
            (agg.as_tb_s() - 5.3).abs() < 0.1,
            "aggregate {agg} should equal HBM peak"
        );
    }

    #[test]
    fn ehpv4_cross_traffic_collapses_to_serdes() {
        // The same all-to-all streaming on the EHPv4 organisation: the
        // cross-complex flows collapse onto the SerDes hub links.
        let topo = Topology::ehpv4_package();
        let solver = FlowSolver::new(&topo);
        let gpu_chiplets = [2u32, 3, 4, 5];
        let mut cross = Vec::new();
        for &c in &gpu_chiplets {
            for s in 0..8u32 {
                // Only cross-complex flows: chiplets 2-3 to stacks 4-7 etc.
                let local = (c <= 3 && s < 4) || (c >= 4 && s >= 4);
                if !local {
                    cross.push(Flow::greedy(NodeKey::Chiplet(c), NodeKey::HbmStack(s)));
                }
            }
        }
        let agg = solver.aggregate(&cross);
        // All cross traffic funnels through two 64 GB/s SerDes links per
        // direction pair: aggregate is SerDes-class, not HBM-class.
        assert!(
            agg.as_gb_s() < 300.0,
            "EHPv4 cross aggregate {agg} should be SerDes-bound"
        );
    }

    #[test]
    fn dense_solver_matches_reference_exactly() {
        // Bit-identical, not approximately equal: the dense solver must
        // not perturb any experiment output.
        let topo = Topology::mi300_package(3);
        let mut flows = Vec::new();
        for c in 0..9u32 {
            for s in 0..8u32 {
                let demand = (c % 3 == 0).then(|| Bandwidth::from_gb_s(f64::from(40 + s * 17)));
                flows.push(Flow {
                    from: NodeKey::Chiplet(c),
                    to: NodeKey::HbmStack(s),
                    demand,
                });
            }
        }
        let dense = FlowSolver::new(&topo).solve(&flows);
        assert_eq!(
            crate::oracle::outcomes(&dense),
            crate::oracle::solve(&topo, &flows)
        );
    }

    #[test]
    fn fairness_no_flow_starves() {
        let topo = Topology::mi300_package(3);
        let solver = FlowSolver::new(&topo);
        let mut flows = Vec::new();
        for c in 0..9u32 {
            flows.push(Flow::greedy(NodeKey::Chiplet(c), NodeKey::HbmStack(7)));
        }
        let rates = solver.solve(&flows);
        let min = rates
            .iter()
            .map(|r| r.rate.as_gb_s())
            .fold(f64::MAX, f64::min);
        let max = rates.iter().map(|r| r.rate.as_gb_s()).fold(0.0, f64::max);
        assert!(min > 0.0, "no starvation");
        // Max-min: chiplets sharing the same bottleneck get equal rates;
        // different IODs may differ, but not wildly.
        assert!(max / min < 8.0, "min {min} max {max}");
    }

    #[test]
    fn workspace_reuse_matches_one_shot_solve() {
        let topo = Topology::mi300_package(0);
        let solver = FlowSolver::new(&topo);
        let mut ws = SolverWorkspace::new();
        let mut out = Vec::new();
        for round in 0..3 {
            let mut flows = Vec::new();
            for c in 0..8u32 {
                for s in 0..8u32 {
                    if (c + s + round) % 3 != 0 {
                        flows.push(Flow::greedy(NodeKey::Chiplet(c), NodeKey::HbmStack(s)));
                    }
                }
            }
            solver.solve_into(&flows, &mut ws, &mut out);
            assert_eq!(out, solver.solve(&flows), "round {round}");
        }
    }
}

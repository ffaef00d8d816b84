//! Min-cost max-flow with `f64` costs.
//!
//! Paper Section IV-A converts an ITA instance into an MCMF problem:
//! maximize flow from source to sink (the number of assigned tasks —
//! primary objective), and among all maximum flows pick one with minimum
//! total cost (costs encode negated, normalized influence — secondary
//! objective). The paper runs Ford–Fulkerson then a cost-minimizing LP;
//! the successive-shortest-path family used here computes the same
//! optimum: every augmentation routes along a cheapest residual path, so
//! after the final augmentation the flow is maximum and its cost is
//! minimal among maximum flows.
//!
//! The cheapest paths come from a Johnson-style **potential-based
//! Dijkstra** over reduced costs `c_π(u→v) = c(u→v) + π(u) − π(v)`,
//! valid because every entered cost is non-negative (the assignment
//! costs `1/(if+1)` always are) so the all-zero initial potential is
//! feasible. One search pass settles nodes through a deterministic
//! binary heap keyed `(distance, node id)` and **stops the moment the
//! sink settles** — with warm potentials only a small wavefront around
//! the cheapest path is ever touched. The potential update truncates
//! labels at `dist(t)` (`π(v) += min(dist(v), dist(t))`, unreached
//! nodes take the full `dist(t)`), which keeps reduced costs
//! non-negative under early exit; afterwards the pass's predecessor
//! chain from `t` back to `s` is a cheapest path with every reduced cost
//! exactly zero, and the solver augments along it — one path per pass,
//! the textbook successive-shortest-path step. Augmenting along a tight
//! path keeps the potentials feasible (the reverse of a tight edge is
//! itself tight), which is the invariant [`verify`] certifies. The
//! result is a pure function of the input network.
//!
//! Searches walk a **CSR adjacency** ([`MinCostMaxFlow`] flattens edge
//! lists into `first`/`adj` arrays once per solve) in ascending edge-id
//! order per node.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// Tolerance for floating-point cost comparisons during the
/// certificate's Bellman–Ford relaxation in [`verify`].
const COST_EPS: f64 = 1e-13;

/// Result of an MCMF run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlowResult {
    /// Total flow routed (the number of assignments for unit capacities).
    pub flow: i64,
    /// Total cost of the routed flow.
    pub cost: f64,
    /// Augmenting paths used.
    pub augmentations: usize,
    /// Shortest-path search passes run, including the final pass that
    /// finds no path. Each other pass commits exactly one path, so
    /// `passes == augmentations + 1` on every solve that routes flow.
    pub passes: usize,
}

/// A min-cost max-flow network over `f64` edge costs.
#[derive(Debug, Clone)]
pub struct MinCostMaxFlow {
    to: Vec<u32>,
    cap: Vec<i64>,
    cost: Vec<f64>,
    /// CSR row starts into `adj` (`n + 1` entries once built).
    first: Vec<u32>,
    /// Edge ids grouped by tail node, ascending within each row.
    adj: Vec<u32>,
    /// Edge count `adj` was built at; a mismatch with `to.len()`
    /// triggers a rebuild at the next solve.
    csr_edges: usize,
    n: usize,
}

impl MinCostMaxFlow {
    /// Creates a network with `n` nodes.
    pub fn new(n: usize) -> Self {
        MinCostMaxFlow {
            to: Vec::new(),
            cap: Vec::new(),
            cost: Vec::new(),
            first: Vec::new(),
            adj: Vec::new(),
            csr_edges: usize::MAX,
            n,
        }
    }

    /// Number of nodes.
    #[inline]
    pub fn n_nodes(&self) -> usize {
        self.n
    }

    /// Number of directed edges added (excluding residual reverses).
    #[inline]
    pub fn n_edges(&self) -> usize {
        self.to.len() / 2
    }

    /// Adds a directed edge with capacity and non-negative cost; returns
    /// an edge id usable with [`MinCostMaxFlow::flow_on`].
    pub fn add_edge(&mut self, u: usize, v: usize, cap: i64, cost: f64) -> usize {
        assert!(u < self.n && v < self.n, "node out of range");
        assert!(cap >= 0, "capacity must be non-negative");
        assert!(cost.is_finite(), "cost must be finite");
        let id = self.to.len();
        self.to.push(v as u32);
        self.cap.push(cap);
        self.cost.push(cost);
        self.to.push(u as u32);
        self.cap.push(0);
        self.cost.push(-cost);
        id
    }

    /// Flow routed through edge `id`.
    pub fn flow_on(&self, id: usize) -> i64 {
        self.cap[id ^ 1]
    }

    /// Tail node of edge `e` (the head of its residual reverse).
    #[inline]
    fn tail(&self, e: usize) -> usize {
        self.to[e ^ 1] as usize
    }

    /// The CSR adjacency row of node `u`: edge ids leaving `u`,
    /// ascending. Valid only after [`MinCostMaxFlow::ensure_csr`].
    #[inline]
    fn row(&self, u: usize) -> &[u32] {
        let lo = self.first[u] as usize;
        let hi = self.first[u + 1] as usize;
        &self.adj[lo..hi]
    }

    /// (Re)builds the flat CSR adjacency when edges were added since
    /// the last build. A stable counting scatter, so each row lists
    /// edge ids in ascending order — the same per-node order the old
    /// `head: Vec<Vec<u32>>` layout produced, now in two cache-friendly
    /// flat arrays.
    fn ensure_csr(&mut self) {
        let m = self.to.len();
        if self.csr_edges == m {
            return;
        }
        let mut counts = vec![0u32; self.n + 1];
        for e in 0..m {
            counts[self.tail(e) + 1] += 1;
        }
        for u in 0..self.n {
            counts[u + 1] += counts[u];
        }
        let mut adj = vec![0u32; m];
        let mut cursor = counts.clone();
        for e in 0..m {
            let u = self.tail(e);
            adj[cursor[u] as usize] = e as u32;
            cursor[u] += 1;
        }
        self.first = counts;
        self.adj = adj;
        self.csr_edges = m;
    }

    /// Runs min-cost max-flow from `s` to `t`.
    pub fn run(&mut self, s: usize, t: usize) -> FlowResult {
        assert!(s < self.n && t < self.n, "node out of range");
        if s == t {
            return FlowResult {
                flow: 0,
                cost: 0.0,
                augmentations: 0,
                passes: 0,
            };
        }
        self.ensure_csr();
        self.run_dijkstra(s, t)
    }

    /// Reduced cost of residual edge `e` under potentials `pot`.
    #[inline]
    fn reduced(&self, e: usize, pot: &[f64]) -> f64 {
        self.cost[e] + pot[self.tail(e)] - pot[self.to[e] as usize]
    }

    /// One deterministic Dijkstra pass over reduced costs, terminating
    /// the moment `t` settles: returns `dist(t)` (`∞` when `t` is
    /// unreachable). Only the wavefront strictly cheaper than the
    /// augmenting path is settled — with warm potentials that is a
    /// small neighborhood of the path. Two further prunes keep the heap
    /// small: the per-node potential is hoisted out of the edge scan,
    /// and labels above the tentative `dist(t)` upper bound are never
    /// pushed (such nodes cannot lie on a cheapest `s → t` path). The
    /// heap pops by `(distance, node id)` and relaxation requires
    /// strict improvement, so the label arrays are a pure function of
    /// the residual network and `pot`.
    ///
    /// The **zero layer** — every node whose distance is exactly `0`,
    /// i.e. the closure of `s` under zero-reduced-cost residual edges —
    /// settles first through a plain FIFO queue, bypassing the heap
    /// entirely. On assignment networks the layer holds every free
    /// worker every pass (their source edges stay tight for the whole
    /// solve), so this removes the bulk of the heap traffic. Distances
    /// are unaffected (any settle order within one distance level is
    /// valid); only equal-cost predecessor ties resolve in FIFO
    /// discovery order instead of heap order, which is just as
    /// deterministic.
    #[allow(clippy::too_many_arguments)]
    fn dijkstra_pass(
        &self,
        s: usize,
        t: usize,
        pot: &[f64],
        dist: &mut [f64],
        pred: &mut [u32],
        heap: &mut BinaryHeap<Reverse<HeapKey>>,
        zero: &mut VecDeque<u32>,
    ) -> f64 {
        dist.fill(f64::INFINITY);
        pred.fill(u32::MAX);
        heap.clear();
        zero.clear();
        dist[s] = 0.0;
        zero.push_back(s as u32);
        let mut ub = f64::INFINITY;
        while let Some(u) = zero.pop_front() {
            let u = u as usize;
            if u == t {
                return 0.0;
            }
            let pu = pot[u];
            for &e in self.row(u) {
                let e = e as usize;
                if self.cap[e] <= 0 {
                    continue;
                }
                let v = self.to[e] as usize;
                // Feasible potentials keep reduced costs non-negative;
                // clamp the ~1e-16 rounding negatives so Dijkstra's
                // settled-is-final invariant is exact.
                let rc = (self.cost[e] + pu - pot[v]).max(0.0);
                if rc >= dist[v] {
                    continue;
                }
                dist[v] = rc;
                pred[v] = e as u32;
                if rc == 0.0 {
                    zero.push_back(v as u32);
                } else if rc <= ub {
                    if v == t {
                        ub = rc;
                    }
                    heap.push(Reverse(HeapKey {
                        dist: rc,
                        node: v as u32,
                    }));
                }
            }
        }
        while let Some(Reverse(HeapKey { dist: d, node: u })) = heap.pop() {
            let u = u as usize;
            if u == t {
                return d;
            }
            if d > dist[u] {
                continue; // stale heap entry
            }
            let pu = pot[u];
            for &e in self.row(u) {
                let e = e as usize;
                if self.cap[e] <= 0 {
                    continue;
                }
                let v = self.to[e] as usize;
                let rc = (self.cost[e] + pu - pot[v]).max(0.0);
                let nd = d + rc;
                if nd < dist[v] && nd <= ub {
                    dist[v] = nd;
                    pred[v] = e as u32;
                    if v == t {
                        ub = nd;
                    }
                    heap.push(Reverse(HeapKey {
                        dist: nd,
                        node: v as u32,
                    }));
                }
            }
        }
        f64::INFINITY
    }

    /// Successive shortest paths by potential-based Dijkstra (see the
    /// module docs for the algorithm and its determinism argument).
    fn run_dijkstra(&mut self, s: usize, t: usize) -> FlowResult {
        let n = self.n;
        let mut pot = vec![0.0f64; n];
        let mut dist = vec![f64::INFINITY; n];
        let mut pred = vec![u32::MAX; n];
        let mut heap: BinaryHeap<Reverse<HeapKey>> = BinaryHeap::new();
        let mut zero: VecDeque<u32> = VecDeque::new();
        let mut flow = 0i64;
        let mut cost = 0.0f64;
        let mut augmentations = 0usize;
        let mut passes = 0usize;

        loop {
            passes += 1;
            let dt = self.dijkstra_pass(s, t, &pot, &mut dist, &mut pred, &mut heap, &mut zero);
            if !dt.is_finite() {
                break;
            }
            // Make every cheapest path tight. The pass stops the moment
            // `t` settles, so labels are truncated at `dt = dist(t)`:
            // `π(v) += min(dist(v), dt)`, with unreached nodes (label
            // still ∞) taking the full `dt`. This keeps reduced costs
            // non-negative everywhere — settled nodes (`dist < dt`)
            // have fully relaxed out-edges; everything else gets the
            // uniform `dt` increment, which cannot decrease any reduced
            // cost by more than its head gains — while nodes on the
            // cheapest path (all settled, labels ≤ dt) become exactly
            // tight.
            for (p, &d) in pot.iter_mut().zip(dist.iter()) {
                *p += d.min(dt);
            }

            // Augment along the pass's predecessor chain `t → … → s`.
            let mut bottleneck = i64::MAX;
            let mut v = t;
            while v != s {
                let e = pred[v] as usize;
                bottleneck = bottleneck.min(self.cap[e]);
                v = self.tail(e);
            }
            debug_assert!(bottleneck > 0);
            let mut path_cost = 0.0f64;
            let mut v = t;
            while v != s {
                let e = pred[v] as usize;
                self.cap[e] -= bottleneck;
                self.cap[e ^ 1] += bottleneck;
                path_cost += self.cost[e];
                v = self.tail(e);
            }
            flow += bottleneck;
            cost += path_cost * bottleneck as f64;
            augmentations += 1;
        }
        FlowResult {
            flow,
            cost,
            augmentations,
            passes,
        }
    }
}

/// Heap key for the deterministic Dijkstra: orders by distance, ties
/// broken by node id — the fixed tie-break that makes settle order a
/// pure function of the residual network.
#[derive(Debug, Clone, Copy, PartialEq)]
struct HeapKey {
    dist: f64,
    node: u32,
}

impl Eq for HeapKey {}

impl Ord for HeapKey {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.dist
            .total_cmp(&other.dist)
            .then(self.node.cmp(&other.node))
    }
}

impl PartialOrd for HeapKey {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// A violated certificate condition, with a human-readable diagnosis.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CertificateError(String);

impl std::fmt::Display for CertificateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

/// Certifies that a solved network holds a **min-cost max-flow** from
/// `s` to `t` matching `result` — independent of how the flow was
/// produced. Checks, in order:
///
/// 1. **capacity bounds** — every residual capacity is non-negative
///    (equivalently `0 ≤ flow(e) ≤ cap(e)` per forward edge);
/// 2. **conservation** — net outflow is `result.flow` at `s`,
///    `−result.flow` at `t`, zero elsewhere;
/// 3. **reported totals** — recomputed flow cost matches `result.cost`
///    within `eps · (1 + |cost|)`;
/// 4. **maximality** — no residual `s → t` path remains;
/// 5. **optimality (ε-slack complementary slackness)** — feasible
///    potentials exist: Bellman–Ford from an implicit all-zero source
///    over the residual graph converges without a negative cycle, and
///    every residual edge then has reduced cost `≥ −eps`. For a flow
///    that is maximum, this is equivalent to minimum cost among
///    maximum flows.
///
/// `O(n·m)` — a test/debug helper, not a production path. The
/// differential suites run it after every solve.
pub fn verify(
    net: &MinCostMaxFlow,
    s: usize,
    t: usize,
    result: &FlowResult,
    eps: f64,
) -> Result<(), CertificateError> {
    let n = net.n;
    let m = net.to.len();
    let fail = |msg: String| Err(CertificateError(msg));

    // 1. Capacity bounds.
    for e in 0..m {
        if net.cap[e] < 0 {
            return fail(format!("edge {e}: residual capacity {} < 0", net.cap[e]));
        }
    }

    // 2. Conservation + 3. totals, over forward edges (even ids).
    let mut net_out = vec![0i64; n];
    let mut total_cost = 0.0f64;
    for e in (0..m).step_by(2) {
        let f = net.flow_on(e);
        net_out[net.tail(e)] += f;
        net_out[net.to[e] as usize] -= f;
        total_cost += f as f64 * net.cost[e];
    }
    for (v, &out) in net_out.iter().enumerate() {
        let want = if v == s {
            result.flow
        } else if v == t {
            -result.flow
        } else {
            0
        };
        if out != want {
            return fail(format!("node {v}: net outflow {out}, expected {want}"));
        }
    }
    if (total_cost - result.cost).abs() > eps * (1.0 + result.cost.abs()) {
        return fail(format!(
            "cost mismatch: edges sum to {total_cost}, result reports {}",
            result.cost
        ));
    }

    // 4. Maximality: BFS over residual capacity.
    let mut reach = vec![false; n];
    let mut queue = VecDeque::new();
    reach[s] = true;
    queue.push_back(s);
    while let Some(u) = queue.pop_front() {
        for e in 0..m {
            if net.tail(e) == u && net.cap[e] > 0 {
                let v = net.to[e] as usize;
                if !reach[v] {
                    reach[v] = true;
                    queue.push_back(v);
                }
            }
        }
    }
    if reach[t] && s != t {
        return fail("an augmenting path remains: flow is not maximum".to_string());
    }

    // 5. Optimality: Bellman–Ford with all-zero initial labels over
    // residual edges. Convergence within n rounds certifies there is
    // no negative residual cycle and yields feasible potentials.
    let mut pot = vec![0.0f64; n];
    for round in 0..=n {
        let mut changed = false;
        for e in 0..m {
            if net.cap[e] <= 0 {
                continue;
            }
            let u = net.tail(e);
            let v = net.to[e] as usize;
            let nd = pot[u] + net.cost[e];
            if nd + COST_EPS < pot[v] {
                pot[v] = nd;
                changed = true;
            }
        }
        if !changed {
            break;
        }
        if round == n {
            return fail("negative residual cycle: flow is not min-cost".to_string());
        }
    }
    for e in 0..m {
        if net.cap[e] <= 0 {
            continue;
        }
        let rc = net.reduced(e, &pot);
        if rc < -eps {
            return fail(format!(
                "residual edge {e} ({} -> {}) has reduced cost {rc} < -{eps}",
                net.tail(e),
                net.to[e]
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Solves `g` and checks the flow certificate.
    fn solve_verified(mut g: MinCostMaxFlow, s: usize, t: usize) -> (MinCostMaxFlow, FlowResult) {
        let r = g.run(s, t);
        verify(&g, s, t, &r, 1e-9).unwrap_or_else(|e| panic!("certificate: {e}"));
        (g, r)
    }

    #[test]
    fn prefers_cheap_path() {
        // Two disjoint unit paths; only one unit of demand can't happen —
        // max flow is 2, but the cheap path must carry flow first.
        let mut g = MinCostMaxFlow::new(4);
        g.add_edge(0, 1, 1, 1.0);
        g.add_edge(1, 3, 1, 1.0);
        g.add_edge(0, 2, 1, 10.0);
        g.add_edge(2, 3, 1, 10.0);
        let (_, r) = solve_verified(g, 0, 3);
        assert_eq!(r.flow, 2);
        assert!((r.cost - 22.0).abs() < 1e-9);
    }

    #[test]
    fn max_flow_takes_priority_over_cost() {
        // Routing greedily by cost alone would block the second unit;
        // MCMF must still find flow = 2 (reusing residual edges).
        let mut g = MinCostMaxFlow::new(4);
        g.add_edge(0, 1, 1, 0.0);
        g.add_edge(0, 2, 1, 5.0);
        g.add_edge(1, 2, 1, 0.0);
        g.add_edge(1, 3, 1, 9.0);
        g.add_edge(2, 3, 2, 1.0);
        let (_, r) = solve_verified(g, 0, 3);
        assert_eq!(r.flow, 2);
        // Optimal: 0->1->2->3 (1.0) + 0->2->3 (6.0) = 7.0
        assert!((r.cost - 7.0).abs() < 1e-9, "{}", r.cost);
    }

    #[test]
    fn unit_bipartite_assignment() {
        // 2 workers, 2 tasks. w0 can do both (costs 0.1, 0.9),
        // w1 only task0 (cost 0.2). Max cardinality 2 forces w0->t1.
        let (s, w0, w1, t0, t1, t) = (0, 1, 2, 3, 4, 5);
        let mut g = MinCostMaxFlow::new(6);
        g.add_edge(s, w0, 1, 0.0);
        g.add_edge(s, w1, 1, 0.0);
        g.add_edge(w0, t0, 1, 0.1);
        g.add_edge(w0, t1, 1, 0.9);
        g.add_edge(w1, t0, 1, 0.2);
        g.add_edge(t0, t, 1, 0.0);
        g.add_edge(t1, t, 1, 0.0);
        let (_, r) = solve_verified(g, s, t);
        assert_eq!(r.flow, 2);
        assert!((r.cost - 1.1).abs() < 1e-9);
    }

    #[test]
    fn flow_on_reconstructs_assignment() {
        let (s, w0, t0, t) = (0, 1, 2, 3);
        let mut g = MinCostMaxFlow::new(4);
        g.add_edge(s, w0, 1, 0.0);
        let e = g.add_edge(w0, t0, 1, 0.3);
        g.add_edge(t0, t, 1, 0.0);
        let (g, r) = solve_verified(g, s, t);
        assert_eq!(r.flow, 1);
        assert_eq!(g.flow_on(e), 1);
    }

    #[test]
    fn no_path_yields_zero() {
        let mut g = MinCostMaxFlow::new(3);
        g.add_edge(0, 1, 1, 1.0);
        let r = g.run(0, 2);
        assert_eq!(r.flow, 0);
        assert_eq!(r.cost, 0.0);
        assert_eq!(r.augmentations, 0);
        verify(&g, 0, 2, &r, 1e-9).unwrap();
    }

    #[test]
    fn source_equals_sink() {
        let mut g = MinCostMaxFlow::new(2);
        g.add_edge(0, 1, 1, 1.0);
        let r = g.run(0, 0);
        assert_eq!(r.flow, 0);
    }

    #[test]
    fn capacities_above_one() {
        let mut g = MinCostMaxFlow::new(3);
        g.add_edge(0, 1, 5, 2.0);
        g.add_edge(1, 2, 3, 1.0);
        let (_, r) = solve_verified(g, 0, 2);
        assert_eq!(r.flow, 3);
        assert!((r.cost - 9.0).abs() < 1e-9);
    }

    #[test]
    fn zero_cost_network_is_pure_maxflow() {
        let mut g = MinCostMaxFlow::new(4);
        g.add_edge(0, 1, 2, 0.0);
        g.add_edge(0, 2, 2, 0.0);
        g.add_edge(1, 3, 2, 0.0);
        g.add_edge(2, 3, 1, 0.0);
        let (_, r) = solve_verified(g, 0, 3);
        assert_eq!(r.flow, 3);
        assert_eq!(r.cost, 0.0);
    }

    #[test]
    fn one_augmentation_per_pass_on_a_plateau() {
        // A wide tie plateau: 6 workers, 6 tasks, every pair cost 1.0.
        // Every pass routes exactly one of the many cheapest paths, so
        // the plateau takes one pass per unit plus the final empty one.
        let n = 6usize;
        let (s, t) = (0, 2 * n + 1);
        let mut g = MinCostMaxFlow::new(2 * n + 2);
        for w in 0..n {
            g.add_edge(s, 1 + w, 1, 0.0);
        }
        for task in 0..n {
            g.add_edge(1 + n + task, t, 1, 0.0);
        }
        for w in 0..n {
            for task in 0..n {
                g.add_edge(1 + w, 1 + n + task, 1, 1.0);
            }
        }
        let r = g.run(s, t);
        assert_eq!(r.flow, n as i64);
        assert!((r.cost - n as f64).abs() < 1e-9);
        assert_eq!(r.augmentations, n);
        assert_eq!(r.passes, r.augmentations + 1);
        verify(&g, s, t, &r, 1e-9).unwrap();
    }

    #[test]
    fn solve_after_adding_more_edges_rebuilds_csr() {
        // The CSR must follow the edge list across incremental solves.
        let mut g = MinCostMaxFlow::new(4);
        g.add_edge(0, 1, 1, 1.0);
        g.add_edge(1, 3, 1, 1.0);
        let r1 = g.run(0, 3);
        assert_eq!(r1.flow, 1);
        g.add_edge(0, 2, 1, 1.0);
        g.add_edge(2, 3, 1, 1.0);
        let r2 = g.run(0, 3);
        assert_eq!(r2.flow, 1, "only the new path had residual capacity");
        assert_eq!(g.flow_on(4), 1);
    }

    #[test]
    fn verify_rejects_a_suboptimal_flow() {
        // Hand-route flow along the expensive path only: conservation
        // and capacity hold, but a negative residual cycle exposes the
        // suboptimality.
        let mut g = MinCostMaxFlow::new(4);
        let cheap_a = g.add_edge(0, 1, 1, 1.0);
        let cheap_b = g.add_edge(1, 3, 1, 1.0);
        let dear_a = g.add_edge(0, 2, 1, 10.0);
        let dear_b = g.add_edge(2, 3, 1, 10.0);
        // Manually saturate the expensive path.
        for e in [dear_a, dear_b] {
            g.cap[e] -= 1;
            g.cap[e ^ 1] += 1;
        }
        let claimed = FlowResult {
            flow: 1,
            cost: 20.0,
            augmentations: 1,
            passes: 1,
        };
        // Not maximum (the cheap path is still open) *and* not optimal.
        assert!(verify(&g, 0, 3, &claimed, 1e-9).is_err());
        // Saturate the cheap path too: now maximum, and also optimal
        // (both paths carry flow), so the certificate passes.
        for e in [cheap_a, cheap_b] {
            g.cap[e] -= 1;
            g.cap[e ^ 1] += 1;
        }
        let claimed = FlowResult {
            flow: 2,
            cost: 22.0,
            augmentations: 2,
            passes: 2,
        };
        verify(&g, 0, 3, &claimed, 1e-9).unwrap();
    }

    #[test]
    fn verify_rejects_wrong_totals() {
        let mut g = MinCostMaxFlow::new(3);
        g.add_edge(0, 1, 1, 1.0);
        g.add_edge(1, 2, 1, 1.0);
        let mut r = g.run(0, 2);
        verify(&g, 0, 2, &r, 1e-9).unwrap();
        r.cost += 0.5;
        assert!(verify(&g, 0, 2, &r, 1e-9).is_err());
        r.cost -= 0.5;
        r.flow += 1;
        assert!(verify(&g, 0, 2, &r, 1e-9).is_err());
    }

    #[test]
    fn certificate_holds_on_random_instances() {
        use rand::rngs::SmallRng;
        use rand::{RngExt, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(99);
        for case in 0..20 {
            let n_left = rng.random_range(1..6usize);
            let n_right = rng.random_range(1..6usize);
            let mut edges = Vec::new();
            for l in 0..n_left {
                for r in 0..n_right {
                    if rng.random_bool(0.5) {
                        edges.push((l, r, rng.random_range(1..100) as f64 / 17.0));
                    }
                }
            }
            let n = n_left + n_right + 2;
            let s = 0;
            let t = n - 1;
            let mut g = MinCostMaxFlow::new(n);
            for l in 0..n_left {
                g.add_edge(s, 1 + l, 1, 0.0);
            }
            for r in 0..n_right {
                g.add_edge(1 + n_left + r, t, 1, 0.0);
            }
            for &(l, r, c) in &edges {
                g.add_edge(1 + l, 1 + n_left + r, 1, c);
            }
            let r = g.run(s, t);
            verify(&g, s, t, &r, 1e-9).unwrap_or_else(|e| panic!("case {case}: {e}"));
        }
    }
}

//! Min-cost max-flow on the unit-capacity bipartite assignment network.
//!
//! Paper Section IV-A converts an ITA instance into an MCMF problem on
//! the network of its Figure 4 — source → workers → tasks → sink, every
//! capacity 1: maximize flow (the number of assigned tasks — primary
//! objective), and among all maximum flows pick one with minimum total
//! cost (costs encode negated, normalized influence — secondary
//! objective). The paper runs Ford–Fulkerson then a cost-minimizing LP;
//! the successive-shortest-path (SSP) family used here computes the same
//! optimum: every augmentation routes along a cheapest residual path, so
//! after the final augmentation the flow is maximum and its cost is
//! minimal among maximum flows.
//!
//! [`MinCostMaxFlow`] is that network and nothing more general: *left*
//! nodes (workers), *right* nodes (tasks), and one unit-capacity edge
//! per eligible pair with a finite, non-negative cost. The source and
//! sink are implicit, so a flow is a matching and an edge carries flow
//! exactly when it is matched.
//!
//! The cheapest paths come from a Johnson-style **potential-based
//! Dijkstra** over reduced costs `c_π(u→v) = c(u→v) + π(u) − π(v)`,
//! valid because every cost is non-negative, so the all-zero initial
//! potential is feasible. One pass settles nodes through a
//! deterministic binary heap keyed `(distance, node id)` — left node
//! `w` has id `w`, right node `j` id `n_left + j` — with a plain FIFO
//! for the nodes at distance exactly 0, and **stops at the first free
//! right node it settles**. The potential update truncates labels at
//! that distance `dt` (`π(v) += min(dist(v), dt)`), which keeps reduced
//! costs non-negative under early exit; the pass's predecessor chain is
//! then a cheapest path with every reduced cost exactly zero, and the
//! solver augments along it — one path per pass, the textbook SSP step.
//! Augmenting along a tight path keeps the potentials feasible (the
//! reverse of a tight edge is itself tight), which is the invariant
//! [`verify`] certifies. The result is a pure function of the network.
//!
//! Three facts of SSP on this network keep a pass away from the free
//! left nodes, which a source-rooted search would rescan every pass:
//!
//! 1. **A free left node sits at distance 0 with potential 0**, and a
//!    matched one never becomes free again. So the cheapest way into
//!    right node `j` from any free left node is its cheapest still-free
//!    edge, its *seed*. The solver keeps each right node's seed edge and
//!    its cost, found through a forward-only pointer into its edges
//!    sorted by `(cost, edge id)`. A seed changes only when an
//!    augmentation matches its left node, so only the right nodes
//!    adjacent to that node are re-found, and a pass reads every seed
//!    in `O(1)` without visiting a free left node.
//! 2. **Every free right node shares the sink's potential**, so the
//!    sink's distance is the smallest free right node's, and the pass
//!    ends at the first free right node it settles. A seed farther than
//!    the smallest free right node's seed read so far is not queued:
//!    it cannot settle before the pass ends, and any relaxation into it
//!    that the bound admits beats the seed anyway, so the settle order
//!    is the one a fully seeded pass would take.
//! 3. **Only settled nodes change potential** relative to the sink: an
//!    unsettled node's potential rises by `dt` like the sink's. The
//!    solver stores potentials relative to a running `shift` (the sink's
//!    potential), updates only the settled nodes, and resets labels
//!    through a list of the nodes the pass touched.
//!
//! A pass therefore costs `O(n_right)` reads of the cached seeds, plus
//! heap work for the seeds within the bound and for the wavefront (the
//! matched left nodes and right nodes strictly cheaper than the
//! augmenting path), instead of `O(nodes + the free left nodes'
//! degree)`; each augmentation adds a walk of one left node's edge row.
//! Right nodes have one residual out-edge at most (back to their
//! matched left node); a matched left node scans its edge row.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// Tolerance for floating-point cost comparisons during the
/// certificate's Bellman–Ford relaxation in [`verify`].
const COST_EPS: f64 = 1e-13;

/// "No edge" / "free node" marker in the `u32` edge-id arrays.
const NONE: u32 = u32::MAX;

/// Result of an MCMF run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlowResult {
    /// Total flow routed (the number of matched edges).
    pub flow: i64,
    /// Total cost of the routed flow.
    pub cost: f64,
    /// Augmenting paths used.
    pub augmentations: usize,
    /// Shortest-path search passes run, including the final pass that
    /// finds no path. Each other pass commits exactly one path, so
    /// `passes == augmentations + 1` on every solve (an empty network
    /// runs one pass).
    pub passes: usize,
}

/// The unit-capacity bipartite assignment network of paper Figure 4,
/// solved for a min-cost maximum matching with `f64` costs.
#[derive(Debug, Clone)]
pub struct MinCostMaxFlow {
    n_left: usize,
    n_right: usize,
    /// Left node of each edge.
    left: Vec<u32>,
    /// Right node of each edge.
    right: Vec<u32>,
    /// Cost of each edge.
    cost: Vec<f64>,
    /// Matched edge of each right node after [`MinCostMaxFlow::run`]
    /// (`NONE` while free).
    matched: Vec<u32>,
}

impl MinCostMaxFlow {
    /// Creates a network with `n_left` left nodes (workers) and
    /// `n_right` right nodes (tasks), and no edges.
    pub fn new(n_left: usize, n_right: usize) -> Self {
        assert!(
            n_left + n_right < NONE as usize,
            "too many nodes for u32 node ids"
        );
        MinCostMaxFlow {
            n_left,
            n_right,
            left: Vec::new(),
            right: Vec::new(),
            cost: Vec::new(),
            matched: vec![NONE; n_right],
        }
    }

    /// Number of edges added.
    #[inline]
    pub fn n_edges(&self) -> usize {
        self.cost.len()
    }

    /// Adds a unit-capacity edge from left node `left` to right node
    /// `right`; returns its id (edges are numbered in insertion order,
    /// from 0), usable with [`MinCostMaxFlow::flow_on`]. Parallel edges
    /// are allowed.
    ///
    /// # Panics
    ///
    /// If a node is out of range, or `cost` is not finite and ≥ 0 — the
    /// potential argument of the solver needs non-negative costs.
    pub fn add_edge(&mut self, left: usize, right: usize, cost: f64) -> usize {
        assert!(
            left < self.n_left && right < self.n_right,
            "node out of range"
        );
        assert!(
            cost.is_finite() && cost >= 0.0,
            "edge cost must be finite and non-negative, got {cost}"
        );
        let id = self.cost.len();
        assert!(id < NONE as usize, "too many edges for u32 edge ids");
        self.left.push(left as u32);
        self.right.push(right as u32);
        self.cost.push(cost);
        id
    }

    /// Flow routed through edge `id`: 1 when the last
    /// [`MinCostMaxFlow::run`] matched it, else 0.
    pub fn flow_on(&self, id: usize) -> i64 {
        i64::from(self.matched[self.right[id] as usize] == id as u32)
    }

    /// Ids of the edges carrying flow, ascending.
    pub fn matched_edges(&self) -> Vec<usize> {
        (0..self.n_edges())
            .filter(|&e| self.flow_on(e) > 0)
            .collect()
    }

    /// Solves the network from scratch: a maximum matching, and among
    /// maximum matchings one of minimum total cost. Successive shortest
    /// paths, one potential-based Dijkstra pass per augmenting path
    /// (see the module docs).
    pub fn run(&mut self) -> FlowResult {
        let (row_start, row_ids) = group_edges(self.n_left, &self.left);
        let (col_start, mut col_ids) = group_edges(self.n_right, &self.right);
        for j in 0..self.n_right {
            let col = &mut col_ids[col_start[j] as usize..col_start[j + 1] as usize];
            col.sort_unstable_by(|&a, &b| {
                self.cost[a as usize]
                    .total_cmp(&self.cost[b as usize])
                    .then(a.cmp(&b))
            });
        }
        let n = self.n_left + self.n_right;
        let mut ssp = Ssp {
            left: &self.left,
            right: &self.right,
            cost: &self.cost,
            n_left: self.n_left,
            row_start,
            row_ids,
            next_free: col_start[..self.n_right].to_vec(),
            col_start,
            col_ids,
            seed_edge: vec![NONE; self.n_right],
            seed_cost: vec![0.0; self.n_right],
            match_left: vec![NONE; self.n_left],
            match_right: vec![NONE; self.n_right],
            pot: vec![0.0; n],
            shift: 0.0,
            dist: vec![f64::INFINITY; n],
            pred: vec![NONE; self.n_right],
            touched: Vec::new(),
            settled: Vec::new(),
            zero: VecDeque::new(),
            heap: BinaryHeap::new(),
        };
        for j in 0..self.n_right {
            ssp.reseed(j);
        }
        let mut result = FlowResult {
            flow: 0,
            cost: 0.0,
            augmentations: 0,
            passes: 0,
        };
        loop {
            result.passes += 1;
            let Some(j) = ssp.pass() else { break };
            result.cost += ssp.augment(j);
            result.flow += 1;
            result.augmentations += 1;
        }
        self.matched = ssp.match_right;
        result
    }
}

/// Edge ids grouped by one endpoint, by a stable counting scatter:
/// node `v`'s edges are `ids[start[v]..start[v + 1]]`, ascending.
fn group_edges(n: usize, ends: &[u32]) -> (Vec<u32>, Vec<u32>) {
    let mut start = vec![0u32; n + 1];
    for &v in ends {
        start[v as usize + 1] += 1;
    }
    for v in 0..n {
        start[v + 1] += start[v];
    }
    let mut next = start.clone();
    let mut ids = vec![0u32; ends.len()];
    for (e, &v) in ends.iter().enumerate() {
        ids[next[v as usize] as usize] = e as u32;
        next[v as usize] += 1;
    }
    (start, ids)
}

/// The state of one solve.
struct Ssp<'a> {
    left: &'a [u32],
    right: &'a [u32],
    cost: &'a [f64],
    n_left: usize,
    /// Each left node's edge ids, ascending:
    /// `row_ids[row_start[w]..row_start[w + 1]]`.
    row_start: Vec<u32>,
    row_ids: Vec<u32>,
    /// Each right node's edge ids sorted by `(cost, edge id)`:
    /// `col_ids[col_start[j]..col_start[j + 1]]`.
    col_start: Vec<u32>,
    col_ids: Vec<u32>,
    /// Per right node, the position in its column before which every
    /// edge's left node is matched. Only moves forward: a matched left
    /// node never becomes free again.
    next_free: Vec<u32>,
    /// Per right node, its cheapest free edge (`NONE` when every edge's
    /// left node is matched) and that edge's cost: the pass's seed.
    /// Refreshed only for the right nodes adjacent to the left node an
    /// augmentation has just matched, the one event that changes it.
    seed_edge: Vec<u32>,
    seed_cost: Vec<f64>,
    /// Matched edge of each left / right node (`NONE` while free).
    match_left: Vec<u32>,
    match_right: Vec<u32>,
    /// Potential minus `shift`, per node id, for right nodes and
    /// matched left nodes; a free left node's potential is 0.
    pot: Vec<f64>,
    /// The sink's potential, which every free right node shares: the
    /// sum of the passes' path distances.
    shift: f64,
    /// Tentative distance per node id; `∞` outside `touched`.
    dist: Vec<f64>,
    /// Per right node, the edge its current label arrived by. A matched
    /// left node's label always arrives by its matched edge.
    pred: Vec<u32>,
    /// Node ids labelled this pass.
    touched: Vec<u32>,
    /// Node ids settled this pass, before the free right node that
    /// ended it.
    settled: Vec<u32>,
    /// Nodes at distance exactly 0, in discovery order.
    zero: VecDeque<u32>,
    heap: BinaryHeap<Reverse<HeapKey>>,
}

impl Ssp<'_> {
    /// Re-finds right node `j`'s seed: the cheapest edge into it whose
    /// left node is free.
    fn reseed(&mut self, j: usize) {
        let end = self.col_start[j + 1];
        let mut k = self.next_free[j];
        while k < end
            && self.match_left[self.left[self.col_ids[k as usize] as usize] as usize] != NONE
        {
            k += 1;
        }
        self.next_free[j] = k;
        if k < end {
            let e = self.col_ids[k as usize];
            self.seed_edge[j] = e;
            self.seed_cost[j] = self.cost[e as usize];
        } else {
            self.seed_edge[j] = NONE;
        }
    }

    /// Refreshes the seeds that ran through left node `w`, which an
    /// augmentation has just matched.
    fn reseed_around(&mut self, w: usize) {
        for k in self.row_start[w] as usize..self.row_start[w + 1] as usize {
            let j = self.right[self.row_ids[k] as usize] as usize;
            let seed = self.seed_edge[j];
            if seed != NONE && self.left[seed as usize] as usize == w {
                self.reseed(j);
            }
        }
    }

    /// One deterministic Dijkstra pass over reduced costs. Returns the
    /// first free right node it settles (the end of a cheapest
    /// augmenting path), after updating the potentials; `None` when no
    /// augmenting path exists.
    ///
    /// Every right node is seeded from its cached cheapest free edge.
    /// Nodes at distance 0 — right nodes with a tight seed and the
    /// matched left nodes and right nodes tight edges reach from them —
    /// settle through a FIFO in discovery order, the rest through the
    /// heap by `(distance, node id)`. Relaxation needs strict
    /// improvement, and labels above the cheapest free right node's
    /// tentative distance are never pushed (such nodes cannot settle
    /// before the pass ends), so the labels are a pure function of the
    /// residual network and the potentials. That bound already applies
    /// while seeding: a seed farther than the cheapest free right
    /// node's seed so far is left unlabelled, since any relaxation the
    /// bound admits into it beats the seed as well.
    fn pass(&mut self) -> Option<usize> {
        for &v in &self.touched {
            self.dist[v as usize] = f64::INFINITY;
        }
        self.touched.clear();
        self.settled.clear();
        self.zero.clear();
        // The cheapest free right node's tentative distance: an upper
        // bound on the distance the pass ends at.
        let mut ub = f64::INFINITY;
        let mut seeds = std::mem::take(&mut self.heap).into_vec();
        seeds.clear();
        for j in 0..self.match_right.len() {
            let e = self.seed_edge[j];
            if e == NONE {
                continue;
            }
            let v = self.n_left + j;
            // Feasible potentials keep reduced costs non-negative; clamp
            // the ~1e-16 rounding negatives so Dijkstra's
            // settled-is-final invariant is exact.
            let d = (self.seed_cost[j] - (self.pot[v] + self.shift)).max(0.0);
            if d > ub {
                continue;
            }
            self.dist[v] = d;
            self.pred[j] = e;
            self.touched.push(v as u32);
            if self.match_right[j] == NONE {
                ub = d;
            }
            if d == 0.0 {
                self.zero.push_back(v as u32);
            } else {
                seeds.push(Reverse(HeapKey {
                    dist: d,
                    node: v as u32,
                }));
            }
        }
        self.heap = BinaryHeap::from(seeds);

        let end = loop {
            let (u, d) = if let Some(u) = self.zero.pop_front() {
                (u as usize, 0.0)
            } else if let Some(Reverse(HeapKey { dist, node })) = self.heap.pop() {
                if dist > self.dist[node as usize] {
                    continue; // stale heap entry
                }
                (node as usize, dist)
            } else {
                return None;
            };
            if let Some(j) = self.settle(u, d, &mut ub) {
                break j;
            }
        };

        // Make every cheapest path tight: `π(v) += min(dist(v), dt)`.
        // Unsettled nodes take the full `dt`, like the sink, so their
        // stored potentials stand; settled ones move by `dist(v) − dt`.
        let dt = self.dist[self.n_left + end];
        for &u in &self.settled {
            let u = u as usize;
            self.pot[u] += self.dist[u] - dt;
        }
        self.shift += dt;
        Some(end)
    }

    /// Settles node `u` at distance `d`: returns `u`'s right index if it
    /// is a free right node, or relaxes its residual out-edges.
    fn settle(&mut self, u: usize, d: f64, ub: &mut f64) -> Option<usize> {
        if let Some(j) = u.checked_sub(self.n_left) {
            let e = self.match_right[j];
            if e == NONE {
                return Some(j);
            }
            self.settled.push(u as u32);
            // The one residual edge out of a matched right node: back
            // along its matched edge.
            let e = e as usize;
            let w = self.left[e] as usize;
            let rc = (-self.cost[e] + self.pot[u] - self.pot[w]).max(0.0);
            self.relax(w, d + rc, ub);
        } else {
            self.settled.push(u as u32);
            let pu = self.pot[u];
            let skip = self.match_left[u];
            let (lo, hi) = (self.row_start[u] as usize, self.row_start[u + 1] as usize);
            for k in lo..hi {
                let e = self.row_ids[k];
                if e == skip {
                    continue;
                }
                let e = e as usize;
                let v = self.n_left + self.right[e] as usize;
                let rc = (self.cost[e] + pu - self.pot[v]).max(0.0);
                if self.relax(v, d + rc, ub) {
                    self.pred[v - self.n_left] = e as u32;
                }
            }
        }
        None
    }

    /// Lowers node `v`'s label to `nd` if that is a strict improvement
    /// within the bound `ub`, queueing it; returns whether it did.
    fn relax(&mut self, v: usize, nd: f64, ub: &mut f64) -> bool {
        if nd >= self.dist[v] || nd > *ub {
            return false;
        }
        if self.dist[v] == f64::INFINITY {
            self.touched.push(v as u32);
        }
        self.dist[v] = nd;
        if v >= self.n_left && self.match_right[v - self.n_left] == NONE {
            *ub = nd;
        }
        if nd == 0.0 {
            self.zero.push_back(v as u32);
        } else {
            self.heap.push(Reverse(HeapKey {
                dist: nd,
                node: v as u32,
            }));
        }
        true
    }

    /// Flips the augmenting path that ends at free right node `j`,
    /// walking predecessors back to the free left node it starts at,
    /// and re-finds the seeds that ran through that node; returns the
    /// path's cost (forward edges minus reversed ones).
    ///
    /// # Panics
    ///
    /// If the walk passes more right nodes than exist: the predecessors
    /// form a cycle, which only a stale seed or label can make. A panic
    /// fails the round; a cycle would spin forever.
    fn augment(&mut self, mut j: usize) -> f64 {
        let mut path_cost = 0.0f64;
        for _ in 0..self.match_right.len() {
            let e = self.pred[j];
            path_cost += self.cost[e as usize];
            let w = self.left[e as usize] as usize;
            let prev = self.match_left[w];
            self.match_left[w] = e;
            self.match_right[j] = e;
            if prev == NONE {
                // The path's free left node: potential 0, stored
                // relative to the shift from now on.
                self.pot[w] = -self.shift;
                self.reseed_around(w);
                return path_cost;
            }
            path_cost += -self.cost[prev as usize];
            j = self.right[prev as usize] as usize;
        }
        panic!("augmenting path revisits a right node");
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

/// Certifies that the edges `matched` form a **min-cost max-flow** of
/// `net` matching `result` — independent of how they were produced. It
/// builds the residual Figure 4 network itself (source, left nodes,
/// right nodes, sink, with the source and sink residual edges) and
/// checks, in order:
///
/// 1. **capacity bounds** — every id names an edge, listed once, and no
///    left or right node carries more than one unit;
/// 2. **conservation** — the source sends, and the sink receives,
///    `result.flow` units (every other node passes on what it gets by
///    construction);
/// 3. **reported totals** — the matched edges' cost matches
///    `result.cost` within `eps · (1 + |cost|)`;
/// 4. **maximality** — no residual source → sink path remains;
/// 5. **optimality (ε-slack complementary slackness)** — feasible
///    potentials exist: Bellman–Ford from an implicit all-zero source
///    over the residual network converges without a negative cycle,
///    and every residual edge then has reduced cost `≥ −eps`. For a
///    flow that is maximum, this is equivalent to minimum cost among
///    maximum flows. A cheaper free left node that could displace a
///    matched one shows up only as a cycle through the source's
///    residual edges (and a cheaper free right node through the
///    sink's).
///
/// `O(n·m)` — a test/debug helper, not a production path. The
/// differential suites run it after every solve.
pub fn verify(
    net: &MinCostMaxFlow,
    matched: &[usize],
    result: &FlowResult,
    eps: f64,
) -> Result<(), CertificateError> {
    let (n_left, n_right, m) = (net.n_left, net.n_right, net.n_edges());
    let fail = |msg: String| Err(CertificateError(msg));

    // 1. Capacity bounds.
    let mut flows = vec![false; m];
    let mut left_used = vec![false; n_left];
    let mut right_used = vec![false; n_right];
    for &e in matched {
        if e >= m {
            return fail(format!("matched edge {e} does not exist"));
        }
        if flows[e] {
            return fail(format!("edge {e}: flow 2 exceeds capacity 1"));
        }
        flows[e] = true;
        let (w, j) = (net.left[e] as usize, net.right[e] as usize);
        if left_used[w] {
            return fail(format!("left node {w}: source edge carries 2 > capacity 1"));
        }
        if right_used[j] {
            return fail(format!("right node {j}: sink edge carries 2 > capacity 1"));
        }
        left_used[w] = true;
        right_used[j] = true;
    }

    // 2. Conservation + 3. totals.
    if matched.len() as i64 != result.flow {
        return fail(format!(
            "source sends {} units, result reports {}",
            matched.len(),
            result.flow
        ));
    }
    let total_cost: f64 = matched.iter().map(|&e| net.cost[e]).sum();
    if (total_cost - result.cost).abs() > eps * (1.0 + result.cost.abs()) {
        return fail(format!(
            "cost mismatch: edges sum to {total_cost}, result reports {}",
            result.cost
        ));
    }

    // The residual Figure 4 network: node 0 is the source, then the
    // left nodes, the right nodes, and the sink last.
    let (s, t) = (0usize, n_left + n_right + 1);
    let n = t + 1;
    let mut residual: Vec<(usize, usize, f64)> = Vec::with_capacity(n_left + n_right + m);
    for (w, &used) in left_used.iter().enumerate() {
        residual.push(if used {
            (1 + w, s, 0.0)
        } else {
            (s, 1 + w, 0.0)
        });
    }
    for (j, &used) in right_used.iter().enumerate() {
        let v = 1 + n_left + j;
        residual.push(if used { (t, v, 0.0) } else { (v, t, 0.0) });
    }
    for (e, &f) in flows.iter().enumerate() {
        let (u, v, c) = (
            1 + net.left[e] as usize,
            1 + n_left + net.right[e] as usize,
            net.cost[e],
        );
        residual.push(if f { (v, u, -c) } else { (u, v, c) });
    }

    // 4. Maximality: BFS over the residual network.
    let mut out: Vec<Vec<usize>> = vec![Vec::new(); n];
    for &(u, v, _) in &residual {
        out[u].push(v);
    }
    let mut reach = vec![false; n];
    let mut queue = VecDeque::from([s]);
    reach[s] = true;
    while let Some(u) = queue.pop_front() {
        for &v in &out[u] {
            if !reach[v] {
                reach[v] = true;
                queue.push_back(v);
            }
        }
    }
    if reach[t] {
        return fail("an augmenting path remains: flow is not maximum".to_string());
    }

    // 5. Optimality: Bellman–Ford with all-zero initial labels over the
    // residual edges. Convergence within n rounds certifies there is
    // no negative residual cycle and yields feasible potentials.
    let mut pot = vec![0.0f64; n];
    for round in 0..=n {
        let mut changed = false;
        for &(u, v, c) in &residual {
            let nd = pot[u] + c;
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
    for &(u, v, c) in &residual {
        let rc = c + pot[u] - pot[v];
        if rc < -eps {
            return fail(format!(
                "residual edge {u} -> {v} has reduced cost {rc} < -{eps}"
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::HopcroftKarp;

    /// Solves `g` and checks the flow certificate.
    fn solve_verified(mut g: MinCostMaxFlow) -> (MinCostMaxFlow, FlowResult) {
        let r = g.run();
        verify(&g, &g.matched_edges(), &r, 1e-9).unwrap_or_else(|e| panic!("certificate: {e}"));
        assert_eq!(r.passes, r.augmentations + 1);
        (g, r)
    }

    #[test]
    fn unit_bipartite_assignment() {
        // 2 workers, 2 tasks. w0 can do both (costs 0.1, 0.9),
        // w1 only task0 (cost 0.2). Max cardinality 2 forces w0->t1.
        let mut g = MinCostMaxFlow::new(2, 2);
        g.add_edge(0, 0, 0.1);
        let w0_t1 = g.add_edge(0, 1, 0.9);
        let w1_t0 = g.add_edge(1, 0, 0.2);
        let (g, r) = solve_verified(g);
        assert_eq!(r.flow, 2);
        assert!((r.cost - 1.1).abs() < 1e-9);
        assert_eq!(g.matched_edges(), vec![w0_t1, w1_t0]);
    }

    #[test]
    fn flow_on_reconstructs_assignment() {
        let mut g = MinCostMaxFlow::new(1, 1);
        let e = g.add_edge(0, 0, 0.3);
        assert_eq!(g.flow_on(e), 0, "no flow before the solve");
        let (g, r) = solve_verified(g);
        assert_eq!(r.flow, 1);
        assert_eq!(g.flow_on(e), 1);
    }

    #[test]
    fn no_path_yields_zero() {
        // Nodes on both sides, but no edge between them.
        let mut g = MinCostMaxFlow::new(3, 2);
        let r = g.run();
        assert_eq!(r.flow, 0);
        assert_eq!(r.cost, 0.0);
        assert_eq!(r.augmentations, 0);
        assert_eq!(r.passes, 1);
        verify(&g, &[], &r, 1e-9).unwrap();
    }

    #[test]
    fn empty_network_solves_to_zero() {
        // The network of an instance with no workers and no tasks.
        let (g, r) = solve_verified(MinCostMaxFlow::new(0, 0));
        assert_eq!(r.flow, 0);
        assert_eq!(r.cost, 0.0);
        assert_eq!(g.n_edges(), 0);
        assert!(g.matched_edges().is_empty());
    }

    /// The full 2 × 2 square, edges in row order: (w0,t0), (w0,t1),
    /// (w1,t0), (w1,t1).
    fn square(costs: [f64; 4]) -> MinCostMaxFlow {
        let mut g = MinCostMaxFlow::new(2, 2);
        for (id, cost) in costs.into_iter().enumerate() {
            g.add_edge(id / 2, id % 2, cost);
        }
        g
    }

    #[test]
    fn costs_steer_the_matching() {
        // Both perfect matchings have full cardinality; the cheap
        // off-diagonal edges make the crossed one optimal.
        let (g, r) = solve_verified(square([1.0, 0.1, 0.1, 1.0]));
        assert_eq!(r.flow, 2);
        assert_eq!(g.matched_edges(), vec![1, 2]);
        assert!((r.cost - 0.2).abs() < 1e-9);
    }

    #[test]
    fn jittered_plateau_returns_the_cheapest_matching() {
        // All edges tied at cost 1.0 plus a jitter-like offset. Both
        // perfect matchings cost 2 + 5e-7 in exact arithmetic; in `f64`
        // the diagonal one, (w0,t0) + (w1,t1), sums lower, and it is
        // the one the solve must return.
        let costs = [1.0 + 3e-7, 1.0 + 1e-7, 1.0 + 4e-7, 1.0 + 2e-7];
        let (g, r) = solve_verified(square(costs));
        assert_eq!(g.matched_edges(), vec![0, 3]);
        assert_eq!(r.cost, costs[0] + costs[3]);
    }

    #[test]
    fn zero_cost_network_is_pure_maxflow() {
        // All costs 0: the solve is a plain maximum matching, so its
        // flow must equal Hopcroft–Karp's cardinality. Task 0 is wanted
        // by three workers, task 3 by none.
        let edges = [(0, 0), (1, 0), (2, 0), (2, 1), (3, 1), (3, 2), (4, 2)];
        let mut g = MinCostMaxFlow::new(5, 4);
        let mut hk = HopcroftKarp::new(5, 4);
        for &(w, task) in &edges {
            g.add_edge(w, task, 0.0);
            hk.add_edge(w, task);
        }
        let (_, r) = solve_verified(g);
        assert_eq!(r.flow, hk.solve().0 as i64);
        assert_eq!(r.flow, 3);
        assert_eq!(r.cost, 0.0);
    }

    #[test]
    fn one_augmentation_per_pass_on_a_plateau() {
        // A wide tie plateau: 6 workers, 6 tasks, every pair cost 1.0.
        // Every pass routes exactly one of the many cheapest paths, so
        // the plateau takes one pass per unit plus the final empty one.
        let n = 6usize;
        let mut g = MinCostMaxFlow::new(n, n);
        for w in 0..n {
            for task in 0..n {
                g.add_edge(w, task, 1.0);
            }
        }
        let (_, r) = solve_verified(g);
        assert_eq!(r.flow, n as i64);
        assert!((r.cost - n as f64).abs() < 1e-9);
        assert_eq!(r.augmentations, n);
        assert_eq!(r.passes, r.augmentations + 1);
    }

    #[test]
    fn parallel_edges_route_through_the_cheapest() {
        let mut g = MinCostMaxFlow::new(2, 1);
        g.add_edge(0, 0, 0.5);
        let cheap = g.add_edge(0, 0, 0.3);
        g.add_edge(1, 0, 0.4);
        g.add_edge(0, 0, 0.3); // equal cost, higher id: never preferred
        let (g, r) = solve_verified(g);
        assert_eq!(r.flow, 1);
        assert_eq!(g.matched_edges(), vec![cheap]);
    }

    #[test]
    fn costs_the_potentials_cannot_hold_are_refused() {
        for cost in [-0.5, f64::NAN, f64::INFINITY] {
            let refused = std::panic::catch_unwind(|| {
                MinCostMaxFlow::new(1, 1).add_edge(0, 0, cost);
            });
            assert!(refused.is_err(), "cost {cost} accepted");
        }
    }

    #[test]
    fn verify_rejects_a_suboptimal_flow() {
        let claim = |flow: i64, cost: f64| FlowResult {
            flow,
            cost,
            augmentations: flow as usize,
            passes: flow as usize + 1,
        };
        // w0 reaches both tasks (0.1, 0.9), w1 only task 0 (0.2).
        let mut g = MinCostMaxFlow::new(2, 2);
        let w0_t0 = g.add_edge(0, 0, 0.1);
        let w0_t1 = g.add_edge(0, 1, 0.9);
        let w1_t0 = g.add_edge(1, 0, 0.2);
        // The greedy edge alone is cheap but not maximum.
        assert!(verify(&g, &[w0_t0], &claim(1, 0.1), 1e-9).is_err());
        verify(&g, &[w0_t1, w1_t0], &claim(2, 1.1), 1e-9).unwrap();

        // Maximum but not min-cost: matched w0 at 0.9 while free w1
        // costs 0.1. The negative cycle runs through the source's
        // residual edges: s → w1 → t0 → w0 → s.
        let mut g = MinCostMaxFlow::new(2, 1);
        let dear = g.add_edge(0, 0, 0.9);
        let cheap = g.add_edge(1, 0, 0.1);
        assert!(verify(&g, &[dear], &claim(1, 0.9), 1e-9).is_err());
        verify(&g, &[cheap], &claim(1, 0.1), 1e-9).unwrap();

        // The mirror image through the sink's residual edges: w0 holds
        // t0 at 0.9 while free t1 costs it 0.1.
        let mut g = MinCostMaxFlow::new(1, 2);
        let dear = g.add_edge(0, 0, 0.9);
        let cheap = g.add_edge(0, 1, 0.1);
        assert!(verify(&g, &[dear], &claim(1, 0.9), 1e-9).is_err());
        verify(&g, &[cheap], &claim(1, 0.1), 1e-9).unwrap();
    }

    #[test]
    fn verify_rejects_wrong_totals() {
        let mut g = MinCostMaxFlow::new(2, 1);
        g.add_edge(0, 0, 1.0);
        g.add_edge(1, 0, 2.0);
        let mut r = g.run();
        let matched = g.matched_edges();
        verify(&g, &matched, &r, 1e-9).unwrap();
        r.cost += 0.5;
        assert!(verify(&g, &matched, &r, 1e-9).is_err());
        r.cost -= 0.5;
        r.flow += 1;
        assert!(verify(&g, &matched, &r, 1e-9).is_err());
    }

    #[test]
    fn verify_rejects_overloaded_nodes() {
        let mut g = MinCostMaxFlow::new(2, 2);
        let a = g.add_edge(0, 0, 1.0);
        let b = g.add_edge(0, 1, 1.0);
        let c = g.add_edge(1, 1, 1.0);
        let two = FlowResult {
            flow: 2,
            cost: 2.0,
            augmentations: 2,
            passes: 3,
        };
        // An edge listed twice, a worker used twice, a task used twice.
        assert!(verify(&g, &[a, a], &two, 1e-9).is_err());
        assert!(verify(&g, &[a, b], &two, 1e-9).is_err());
        assert!(verify(&g, &[b, c], &two, 1e-9).is_err());
        assert!(verify(&g, &[3], &two, 1e-9).is_err());
    }

    #[test]
    fn certificate_holds_on_random_instances() {
        use rand::rngs::SmallRng;
        use rand::{RngExt, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(99);
        for case in 0..20 {
            let n_left = rng.random_range(1..6usize);
            let n_right = rng.random_range(1..6usize);
            let mut g = MinCostMaxFlow::new(n_left, n_right);
            for l in 0..n_left {
                for r in 0..n_right {
                    if rng.random_bool(0.5) {
                        g.add_edge(l, r, rng.random_range(1..100) as f64 / 17.0);
                    }
                }
            }
            let r = g.run();
            verify(&g, &g.matched_edges(), &r, 1e-9).unwrap_or_else(|e| panic!("case {case}: {e}"));
        }
    }
}

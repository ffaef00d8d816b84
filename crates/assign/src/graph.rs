//! The task-assignment graph (paper Figure 4).
//!
//! Nodes: source `N_s`, one node per worker, one per task, sink `N_d`.
//! Edges: `N_s → wᵢ` (cap 1, cost 0), `wᵢ → sⱼ` for each available pair
//! (cap 1, cost supplied by the algorithm), `sⱼ → N_d` (cap 1, cost 0).
//! Maximum flow = maximum number of assignments; minimum cost among
//! maximum flows encodes the influence objective. [`MinCostMaxFlow`]
//! is this network with the source and sink implicit, so only the
//! worker → task edges are entered — one per pair, in pair order, so
//! an edge id is a pair index.

use crate::eligibility::EligibilityMatrix;
use sc_graph::{CertificateError, FlowResult, MinCostMaxFlow};

/// A solved or unsolved assignment graph.
#[derive(Debug)]
pub struct AssignmentGraph {
    flow: MinCostMaxFlow,
}

impl AssignmentGraph {
    /// Builds the graph from an eligibility matrix; `pair_cost` supplies
    /// the cost of each worker→task edge (indexed as in
    /// [`EligibilityMatrix::pairs`]). Costs must be finite and
    /// non-negative ([`MinCostMaxFlow::add_edge`] panics otherwise).
    pub fn build(matrix: &EligibilityMatrix, mut pair_cost: impl FnMut(usize) -> f64) -> Self {
        let mut flow = MinCostMaxFlow::new(matrix.n_workers(), matrix.n_tasks());
        for (pi, pair) in matrix.pairs().iter().enumerate() {
            flow.add_edge(
                pair.worker_idx as usize,
                pair.task_idx as usize,
                pair_cost(pi),
            );
        }
        AssignmentGraph { flow }
    }

    /// Solves MCMF and returns `(result, chosen)`: the indices into
    /// [`EligibilityMatrix::pairs`] of the pairs carrying flow, ascending.
    pub fn solve(&mut self) -> (FlowResult, Vec<usize>) {
        let result = self.flow.run();
        (result, self.flow.matched_edges())
    }

    /// Number of worker→task edges.
    pub fn n_pair_edges(&self) -> usize {
        self.flow.n_edges()
    }

    /// Runs the [`sc_graph::verify`] flow certificate against a solved
    /// graph: capacity bounds, conservation, maximality, and no
    /// negative reduced-cost residual edge (the min-cost optimality
    /// witness). A test/debug helper — `result` must come from
    /// [`AssignmentGraph::solve`] on this same graph.
    pub fn verify(&self, result: &FlowResult) -> Result<(), CertificateError> {
        sc_graph::verify(&self.flow, &self.flow.matched_edges(), result, 1e-9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sc_types::{
        CategoryId, Duration, Instance, Location, Task, TaskId, TimeInstant, Worker, WorkerId,
    };

    fn instance() -> Instance {
        // Two workers, two tasks, everything mutually reachable.
        Instance::new(
            TimeInstant::at(0, 0),
            vec![
                Worker::new(WorkerId::new(0), Location::new(0.0, 0.0), 100.0),
                Worker::new(WorkerId::new(1), Location::new(1.0, 0.0), 100.0),
            ],
            vec![
                Task::new(
                    TaskId::new(0),
                    Location::new(0.5, 0.0),
                    TimeInstant::at(0, 0),
                    Duration::hours(48),
                    CategoryId::new(0),
                ),
                Task::new(
                    TaskId::new(1),
                    Location::new(0.6, 0.0),
                    TimeInstant::at(0, 0),
                    Duration::hours(48),
                    CategoryId::new(0),
                ),
            ],
        )
    }

    #[test]
    fn maximum_cardinality_reached() {
        let inst = instance();
        let matrix = EligibilityMatrix::build(&inst);
        let mut g = AssignmentGraph::build(&matrix, |_| 1.0);
        let (result, chosen) = g.solve();
        g.verify(&result).expect("flow certificate");
        assert_eq!(result.flow, 2);
        assert_eq!(chosen.len(), 2);
        // Each worker and task appears exactly once.
        let pairs = matrix.pairs();
        let mut ws: Vec<u32> = chosen.iter().map(|&pi| pairs[pi].worker_idx).collect();
        let mut ts: Vec<u32> = chosen.iter().map(|&pi| pairs[pi].task_idx).collect();
        ws.sort_unstable();
        ts.sort_unstable();
        assert_eq!(ws, vec![0, 1]);
        assert_eq!(ts, vec![0, 1]);
    }

    #[test]
    fn costs_steer_the_matching() {
        let inst = instance();
        let matrix = EligibilityMatrix::build(&inst);
        // Pair order: (w0,t0), (w0,t1), (w1,t0), (w1,t1).
        // Make w0->t1 and w1->t0 cheap: the matching must cross.
        let costs = [1.0, 0.1, 0.1, 1.0];
        let mut g = AssignmentGraph::build(&matrix, |pi| costs[pi]);
        let (result, chosen) = g.solve();
        g.verify(&result).expect("flow certificate");
        assert_eq!(result.flow, 2);
        assert_eq!(chosen, vec![1, 2]);
        assert!((result.cost - 0.2).abs() < 1e-9);
    }

    #[test]
    fn cardinality_beats_cost() {
        // w0 is the only worker reaching t1; a cheap (w0,t0) edge must not
        // steal w0 when that would strand t1 and drop the flow to 1.
        let inst = Instance::new(
            TimeInstant::at(0, 0),
            vec![
                Worker::new(WorkerId::new(0), Location::new(0.0, 0.0), 100.0),
                Worker::new(WorkerId::new(1), Location::new(0.0, 0.0), 0.6),
            ],
            vec![
                Task::new(
                    TaskId::new(0),
                    Location::new(0.5, 0.0),
                    TimeInstant::at(0, 0),
                    Duration::hours(48),
                    CategoryId::new(0),
                ),
                Task::new(
                    TaskId::new(1),
                    Location::new(50.0, 0.0),
                    TimeInstant::at(0, 0),
                    Duration::hours(48),
                    CategoryId::new(0),
                ),
            ],
        );
        let matrix = EligibilityMatrix::build(&inst);
        // Pairs: (w0,t0), (w0,t1), (w1,t0). Give (w0,t0) cost 0.
        let costs = [0.0, 5.0, 9.0];
        let mut g = AssignmentGraph::build(&matrix, |pi| costs[pi]);
        let (result, chosen) = g.solve();
        g.verify(&result).expect("flow certificate");
        assert_eq!(result.flow, 2, "both tasks must be assigned");
        assert_eq!(chosen, vec![1, 2]);
    }

    #[test]
    fn empty_matrix_solves_to_zero() {
        let inst = Instance::new(TimeInstant::EPOCH, vec![], vec![]);
        let matrix = EligibilityMatrix::build(&inst);
        let mut g = AssignmentGraph::build(&matrix, |_| 0.0);
        let (result, chosen) = g.solve();
        g.verify(&result).expect("flow certificate");
        assert_eq!(result.flow, 0);
        assert!(chosen.is_empty());
        assert_eq!(g.n_pair_edges(), 0);
    }

    #[test]
    fn jittered_plateau_returns_the_cheapest_matching() {
        let inst = instance();
        let matrix = EligibilityMatrix::build(&inst);
        // All pairs tied at cost 1.0 plus a deterministic jitter-like
        // offset. Both perfect matchings cost 2 + 5e-7 in exact
        // arithmetic; in `f64` the diagonal one, (w0,t0) + (w1,t1),
        // sums lower, and it is the one the solve must return.
        let costs = [1.0 + 3e-7, 1.0 + 1e-7, 1.0 + 4e-7, 1.0 + 2e-7];
        let mut g = AssignmentGraph::build(&matrix, |pi| costs[pi]);
        let (result, chosen) = g.solve();
        g.verify(&result).expect("flow certificate");
        assert_eq!(chosen, vec![0, 3]);
        assert_eq!(result.cost, costs[0] + costs[3]);
    }
}

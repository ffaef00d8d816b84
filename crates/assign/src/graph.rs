//! The task-assignment graph (paper Figure 4).
//!
//! Nodes: source `N_s`, one node per worker, one per task, sink `N_d`.
//! Edges: `N_s → wᵢ` (cap 1, cost 0), `wᵢ → sⱼ` for each available pair
//! (cap 1, cost supplied by the algorithm), `sⱼ → N_d` (cap 1, cost 0).
//! Maximum flow = maximum number of assignments; minimum cost among
//! maximum flows encodes the influence objective.

use crate::eligibility::EligibilityMatrix;
use sc_graph::{CertificateError, FlowResult, MinCostMaxFlow};

/// A solved or unsolved assignment graph.
#[derive(Debug)]
pub struct AssignmentGraph {
    flow: MinCostMaxFlow,
    /// `(worker_idx, task_idx, mcmf edge id)` per available pair.
    pair_edges: Vec<(u32, u32, usize)>,
    n_workers: usize,
    n_tasks: usize,
}

impl AssignmentGraph {
    /// Builds the graph from an eligibility matrix; `pair_cost` supplies
    /// the cost of each worker→task edge (indexed as in
    /// [`EligibilityMatrix::pairs`]). Solves on one thread; see
    /// [`AssignmentGraph::build_with`].
    pub fn build(matrix: &EligibilityMatrix, pair_cost: impl FnMut(usize) -> f64) -> Self {
        Self::build_with(matrix, pair_cost, 1)
    }

    /// [`AssignmentGraph::build`] with a thread budget for the solver's
    /// batched candidate searches. The solved assignment is identical
    /// at every budget, which trades wall time only.
    pub fn build_with(
        matrix: &EligibilityMatrix,
        mut pair_cost: impl FnMut(usize) -> f64,
        threads: usize,
    ) -> Self {
        let n_workers = matrix.n_workers();
        let n_tasks = matrix.n_tasks();
        // Layout: 0 = source, 1..=W workers, W+1..=W+S tasks, last = sink.
        let source = 0usize;
        let sink = n_workers + n_tasks + 1;
        let mut flow = MinCostMaxFlow::new(sink + 1).with_threads(threads);

        for wi in 0..n_workers {
            flow.add_edge(source, 1 + wi, 1, 0.0);
        }
        for ti in 0..n_tasks {
            flow.add_edge(1 + n_workers + ti, sink, 1, 0.0);
        }
        let mut pair_edges = Vec::with_capacity(matrix.n_pairs());
        for (pi, pair) in matrix.pairs().iter().enumerate() {
            let cost = pair_cost(pi);
            debug_assert!(cost.is_finite() && cost >= 0.0, "bad edge cost {cost}");
            let id = flow.add_edge(
                1 + pair.worker_idx as usize,
                1 + n_workers + pair.task_idx as usize,
                1,
                cost,
            );
            pair_edges.push((pair.worker_idx, pair.task_idx, id));
        }

        AssignmentGraph {
            flow,
            pair_edges,
            n_workers,
            n_tasks,
        }
    }

    /// Solves MCMF and returns `(result, chosen pairs)` where pairs are
    /// `(worker_idx, task_idx)` carrying flow.
    pub fn solve(&mut self) -> (FlowResult, Vec<(u32, u32)>) {
        let source = 0;
        let sink = self.n_workers + self.n_tasks + 1;
        let result = self.flow.run(source, sink);
        let chosen = self
            .pair_edges
            .iter()
            .filter(|&&(_, _, id)| self.flow.flow_on(id) > 0)
            .map(|&(w, t, _)| (w, t))
            .collect();
        (result, chosen)
    }

    /// Number of worker→task edges.
    pub fn n_pair_edges(&self) -> usize {
        self.pair_edges.len()
    }

    /// Runs the [`sc_graph::verify`] flow certificate against a solved
    /// graph: capacity bounds, conservation, maximality, and no
    /// negative reduced-cost residual edge (the min-cost optimality
    /// witness). A test/debug helper — `result` must come from
    /// [`AssignmentGraph::solve`] on this same graph.
    pub fn verify(&self, result: &FlowResult) -> Result<(), CertificateError> {
        let source = 0;
        let sink = self.n_workers + self.n_tasks + 1;
        sc_graph::verify(&self.flow, source, sink, result, 1e-9)
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
        let mut ws: Vec<u32> = chosen.iter().map(|&(w, _)| w).collect();
        let mut ts: Vec<u32> = chosen.iter().map(|&(_, t)| t).collect();
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
        let (result, mut chosen) = g.solve();
        g.verify(&result).expect("flow certificate");
        chosen.sort_unstable();
        assert_eq!(result.flow, 2);
        assert_eq!(chosen, vec![(0, 1), (1, 0)]);
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
        let (result, mut chosen) = g.solve();
        g.verify(&result).expect("flow certificate");
        chosen.sort_unstable();
        assert_eq!(result.flow, 2, "both tasks must be assigned");
        assert_eq!(chosen, vec![(0, 1), (1, 0)]);
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
    fn thread_budgets_solve_identically() {
        let inst = instance();
        let matrix = EligibilityMatrix::build(&inst);
        // All pairs tied at cost 1.0 plus a deterministic jitter-like
        // offset: every thread budget must return the same matching.
        let costs = [1.0 + 3e-7, 1.0 + 1e-7, 1.0 + 4e-7, 1.0 + 2e-7];
        let mut reference: Option<(FlowResult, Vec<(u32, u32)>)> = None;
        for threads in [1usize, 4] {
            let mut g = AssignmentGraph::build_with(&matrix, |pi| costs[pi], threads);
            let (result, mut chosen) = g.solve();
            g.verify(&result).expect("flow certificate");
            chosen.sort_unstable();
            match &reference {
                Some((r0, c0)) => {
                    assert_eq!(&result, r0, "{threads} threads");
                    assert_eq!(&chosen, c0, "{threads} threads");
                }
                None => reference = Some((result, chosen)),
            }
        }
    }
}

//! The social network of workers.
//!
//! Wraps a directed [`CsrGraph`] together with the Independent Cascade
//! edge probabilities of the paper's evaluation:
//! `P_j(w_j, w_i) = 1 / indeg(w_i)` — the probability that an informed
//! neighbour `w_j` informs `w_i` is one over the number of edges entering
//! `w_i` ("a ratio between 1 and w_i's in-degree").
//!
//! The reverse graph `G'` is materialized once at construction because
//! the RRR sampler walks it for every set.

use sc_graph::CsrGraph;
use sc_types::WorkerId;

/// A worker social network under the weighted-cascade model.
#[derive(Debug, Clone)]
pub struct SocialNetwork {
    forward: CsrGraph,
    reverse: CsrGraph,
    /// `1 / indeg(v)` per node (0 when indeg = 0).
    inform_prob: Vec<f64>,
}

impl SocialNetwork {
    /// Builds a network from directed follower edges `(src, dst)` meaning
    /// "src can inform dst".
    pub fn from_directed_edges(n_workers: usize, edges: &[(u32, u32)]) -> Self {
        Self::from_graph(CsrGraph::from_edges(n_workers, edges))
    }

    /// Builds a network from undirected friendships (both directions).
    pub fn from_undirected_edges(n_workers: usize, edges: &[(u32, u32)]) -> Self {
        Self::from_graph(CsrGraph::from_undirected_edges(n_workers, edges))
    }

    /// Wraps an existing graph.
    pub fn from_graph(forward: CsrGraph) -> Self {
        let reverse = forward.reverse();
        let inform_prob = (0..forward.n_nodes() as u32)
            .map(|v| {
                let d = forward.in_degree(v);
                if d == 0 {
                    0.0
                } else {
                    1.0 / d as f64
                }
            })
            .collect();
        SocialNetwork {
            forward,
            reverse,
            inform_prob,
        }
    }

    /// Number of workers `|W|`.
    #[inline]
    pub fn n_workers(&self) -> usize {
        self.forward.n_nodes()
    }

    /// Number of directed edges `|E|`.
    #[inline]
    pub fn n_edges(&self) -> usize {
        self.forward.n_edges()
    }

    /// The forward graph.
    #[inline]
    pub fn graph(&self) -> &CsrGraph {
        &self.forward
    }

    /// The reverse graph `G'`.
    #[inline]
    pub fn reverse_graph(&self) -> &CsrGraph {
        &self.reverse
    }

    /// Probability that any single informed in-neighbour informs `v`.
    #[inline]
    pub fn inform_probability(&self, v: u32) -> f64 {
        self.inform_prob[v as usize]
    }

    /// Out-neighbours a worker can inform.
    #[inline]
    pub fn informs(&self, v: u32) -> &[u32] {
        self.forward.neighbors(v)
    }

    /// In-neighbours that can inform a worker.
    #[inline]
    pub fn informed_by(&self, v: u32) -> &[u32] {
        self.reverse.neighbors(v)
    }

    /// Checks that a worker id is in range.
    pub fn contains(&self, w: WorkerId) -> bool {
        w.index() < self.n_workers()
    }

    /// Returns the network with one extra worker appended (its id is the
    /// old [`SocialNetwork::n_workers`]), connected by undirected
    /// friendships to each of `friends`.
    ///
    /// This is the incremental population-growth hook of the online
    /// engine: a worker arriving outside the trained population brings
    /// their social edges, and the rebuilt network is exactly the
    /// network that would have been constructed had the worker been
    /// present from the start — in-degrees (and therefore the
    /// weighted-cascade edge probabilities `1/indeg`) of the friends
    /// are updated accordingly. The rebuild is `O(|W| + |E|)`; callers
    /// folding in whole cohorts should batch them or accept the linear
    /// cost per arrival. Edges stream through a
    /// [`CsrBuilder`](sc_graph::CsrBuilder) in the same order the old
    /// collect-then-rebuild path enumerated them — bit-identical
    /// result, without the doubling edge `Vec` it materialized.
    ///
    /// # Panics
    /// When a friend id is out of range (friends must already be in the
    /// network).
    pub fn fold_in_worker(&self, friends: &[u32]) -> SocialNetwork {
        let new_id = self.n_workers() as u32;
        let mut b = sc_graph::CsrBuilder::new_directed(self.n_workers() + 1);
        for (u, v) in self.forward.edges() {
            b.push(u, v);
        }
        for &f in friends {
            assert!(
                f < new_id,
                "fold-in friend {f} out of range (|W| = {new_id})"
            );
            b.push(new_id, f);
            b.push(f, new_id);
        }
        Self::from_graph(b.finish())
    }
}

/// Snapshot serde: only the forward graph travels; the reverse graph
/// and the `1/indeg` probabilities are derived at construction, so the
/// restore path rebuilds them through [`SocialNetwork::from_graph`] —
/// bit-identical by the same argument as the original construction.
impl serde::Serialize for SocialNetwork {
    fn to_value(&self) -> serde::json::Value {
        serde::json::Value::Object(vec![("forward".to_string(), self.forward.to_value())])
    }
}

impl serde::Deserialize for SocialNetwork {
    fn from_value(value: &serde::json::Value) -> Result<Self, serde::Error> {
        let obj = value
            .as_object()
            .ok_or_else(|| serde::Error::expected("social-network object", value))?;
        Ok(SocialNetwork::from_graph(serde::get_field(obj, "forward")?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn star() -> SocialNetwork {
        // 0 informs 1,2,3; 1 and 2 also inform 3.
        SocialNetwork::from_directed_edges(4, &[(0, 1), (0, 2), (0, 3), (1, 3), (2, 3)])
    }

    #[test]
    fn inform_probability_is_inverse_indegree() {
        let net = star();
        assert_eq!(net.inform_probability(0), 0.0, "no in-edges");
        assert_eq!(net.inform_probability(1), 1.0);
        assert_eq!(net.inform_probability(2), 1.0);
        assert!((net.inform_probability(3) - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn reverse_graph_flips_inform_direction() {
        let net = star();
        assert_eq!(net.informs(0), &[1, 2, 3]);
        assert_eq!(net.informed_by(3), &[0, 1, 2]);
        assert_eq!(net.informed_by(0), &[] as &[u32]);
    }

    #[test]
    fn undirected_edges_inform_both_ways() {
        let net = SocialNetwork::from_undirected_edges(2, &[(0, 1)]);
        assert_eq!(net.informs(0), &[1]);
        assert_eq!(net.informs(1), &[0]);
        assert_eq!(net.inform_probability(0), 1.0);
        assert_eq!(net.n_edges(), 2);
    }

    #[test]
    fn contains_checks_range() {
        let net = star();
        assert!(net.contains(WorkerId::new(3)));
        assert!(!net.contains(WorkerId::new(4)));
    }

    #[test]
    fn fold_in_appends_worker_with_undirected_edges() {
        let net = star();
        let folded = net.fold_in_worker(&[1, 3]);
        assert_eq!(folded.n_workers(), 5);
        assert_eq!(folded.n_edges(), net.n_edges() + 4);
        assert_eq!(folded.informs(4), &[1, 3]);
        assert!(folded.informs(1).contains(&4));
        assert!(folded.informed_by(4).contains(&3));
        // Friend in-degrees grew by one, so their inform probability
        // dropped accordingly: worker 1 had indeg 1, now 2.
        assert!((folded.inform_probability(1) - 0.5).abs() < 1e-12);
        assert!((folded.inform_probability(3) - 0.25).abs() < 1e-12);
        // Untouched workers keep their probabilities.
        assert_eq!(folded.inform_probability(2), net.inform_probability(2));
        // The original network is unchanged.
        assert_eq!(net.n_workers(), 4);
    }

    #[test]
    fn fold_in_isolated_worker_has_no_edges() {
        let net = star();
        let folded = net.fold_in_worker(&[]);
        assert_eq!(folded.n_workers(), 5);
        assert_eq!(folded.n_edges(), net.n_edges());
        assert!(folded.informs(4).is_empty());
        assert_eq!(folded.inform_probability(4), 0.0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn fold_in_rejects_unknown_friends() {
        let _ = star().fold_in_worker(&[9]);
    }
}

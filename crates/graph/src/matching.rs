//! Hopcroft–Karp maximum bipartite matching.
//!
//! The assignment graph is bipartite with unit capacities, so its maximum
//! flow equals the maximum matching. The influence-agnostic MTA baseline
//! computes its assignment here, and the tests use it to cross-check
//! the min-cost solve's cardinality.

use std::collections::VecDeque;

const NIL: u32 = u32::MAX;
const INF: u32 = u32::MAX;

/// Maximum matching in a bipartite graph with `n_left` and `n_right`
/// vertices, given as adjacency lists from left to right.
#[derive(Debug, Clone)]
pub struct HopcroftKarp {
    adj: Vec<Vec<u32>>,
    n_left: usize,
    n_right: usize,
}

impl HopcroftKarp {
    /// Creates an empty bipartite graph.
    pub fn new(n_left: usize, n_right: usize) -> Self {
        HopcroftKarp {
            adj: vec![Vec::new(); n_left],
            n_left,
            n_right,
        }
    }

    /// Adds an edge between left vertex `l` and right vertex `r`.
    pub fn add_edge(&mut self, l: usize, r: usize) {
        assert!(l < self.n_left && r < self.n_right, "vertex out of range");
        self.adj[l].push(r as u32);
    }

    /// Computes the maximum matching. Returns `(size, pair_left)` where
    /// `pair_left[l]` is the matched right vertex of `l` (or `None`).
    pub fn solve(&self) -> (usize, Vec<Option<u32>>) {
        let mut pair_l = vec![NIL; self.n_left];
        let mut pair_r = vec![NIL; self.n_right];
        let mut dist = vec![INF; self.n_left];
        let mut matching = 0usize;

        while self.bfs(&pair_l, &pair_r, &mut dist) {
            for l in 0..self.n_left {
                if pair_l[l] == NIL && self.dfs(l, &mut pair_l, &mut pair_r, &mut dist) {
                    matching += 1;
                }
            }
        }

        let pairs = pair_l
            .into_iter()
            .map(|p| (p != NIL).then_some(p))
            .collect();
        (matching, pairs)
    }

    fn bfs(&self, pair_l: &[u32], pair_r: &[u32], dist: &mut [u32]) -> bool {
        let mut queue = VecDeque::new();
        for l in 0..self.n_left {
            if pair_l[l] == NIL {
                dist[l] = 0;
                queue.push_back(l as u32);
            } else {
                dist[l] = INF;
            }
        }
        let mut found = false;
        while let Some(l) = queue.pop_front() {
            for &r in &self.adj[l as usize] {
                let next = pair_r[r as usize];
                if next == NIL {
                    found = true;
                } else if dist[next as usize] == INF {
                    dist[next as usize] = dist[l as usize] + 1;
                    queue.push_back(next);
                }
            }
        }
        found
    }

    fn dfs(&self, l: usize, pair_l: &mut [u32], pair_r: &mut [u32], dist: &mut [u32]) -> bool {
        for i in 0..self.adj[l].len() {
            let r = self.adj[l][i] as usize;
            let next = pair_r[r];
            if next == NIL
                || (dist[next as usize] == dist[l] + 1
                    && self.dfs(next as usize, pair_l, pair_r, dist))
            {
                pair_l[l] = r as u32;
                pair_r[r] = l as u32;
                return true;
            }
        }
        dist[l] = INF;
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_matching() {
        let mut hk = HopcroftKarp::new(3, 3);
        hk.add_edge(0, 0);
        hk.add_edge(1, 1);
        hk.add_edge(2, 2);
        let (size, pairs) = hk.solve();
        assert_eq!(size, 3);
        assert_eq!(pairs, vec![Some(0), Some(1), Some(2)]);
    }

    #[test]
    fn augmenting_path_required() {
        // l0-{r0,r1}, l1-{r0}: greedy l0->r0 would block l1.
        let mut hk = HopcroftKarp::new(2, 2);
        hk.add_edge(0, 0);
        hk.add_edge(0, 1);
        hk.add_edge(1, 0);
        let (size, pairs) = hk.solve();
        assert_eq!(size, 2);
        assert_eq!(pairs[1], Some(0));
        assert_eq!(pairs[0], Some(1));
    }

    #[test]
    fn unbalanced_sides() {
        let mut hk = HopcroftKarp::new(4, 2);
        for l in 0..4 {
            hk.add_edge(l, 0);
            hk.add_edge(l, 1);
        }
        let (size, _) = hk.solve();
        assert_eq!(size, 2);
    }

    #[test]
    fn no_edges() {
        let hk = HopcroftKarp::new(3, 3);
        let (size, pairs) = hk.solve();
        assert_eq!(size, 0);
        assert!(pairs.iter().all(Option::is_none));
    }

    #[test]
    fn matching_is_consistent() {
        let mut hk = HopcroftKarp::new(5, 5);
        let edges = [
            (0, 1),
            (0, 2),
            (1, 0),
            (1, 3),
            (2, 1),
            (3, 3),
            (3, 4),
            (4, 4),
        ];
        for (l, r) in edges {
            hk.add_edge(l, r);
        }
        let (size, pairs) = hk.solve();
        // No right vertex matched twice.
        let mut used = std::collections::HashSet::new();
        for p in pairs.iter().flatten() {
            assert!(used.insert(*p));
        }
        // Every matched pair is a real edge.
        for (l, p) in pairs.iter().enumerate() {
            if let Some(r) = p {
                assert!(edges.contains(&(l, *r as usize)));
            }
        }
        assert_eq!(size, used.len());
        assert_eq!(size, 5);
    }
}

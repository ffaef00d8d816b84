//! Compressed-sparse-row directed graphs.
//!
//! Nodes are dense `u32` indices. Parallel edges are allowed (the social
//! generators never produce them, but the structure does not forbid them);
//! self-loops are allowed but typically filtered by callers.

use serde::json::Value;

/// A directed graph in CSR form: `offsets[u]..offsets[u+1]` indexes the
/// out-neighbour slice of `u` in `targets`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CsrGraph {
    offsets: Vec<u32>,
    targets: Vec<u32>,
    in_degrees: Vec<u32>,
}

impl CsrGraph {
    /// Builds a graph with `n` nodes from directed `(src, dst)` edges.
    /// Panics when an endpoint is out of range.
    pub fn from_edges(n: usize, edges: &[(u32, u32)]) -> Self {
        CsrBuilder::new_directed(n).extend(edges).finish()
    }

    /// Builds an undirected graph: every `(u, v)` edge is inserted in
    /// both directions, `(u, v)` then `(v, u)`. Panics when an endpoint
    /// is out of range.
    pub fn from_undirected_edges(n: usize, edges: &[(u32, u32)]) -> Self {
        CsrBuilder::new_undirected(n).extend(edges).finish()
    }

    /// Number of nodes.
    #[inline]
    pub fn n_nodes(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of directed edges.
    #[inline]
    pub fn n_edges(&self) -> usize {
        self.targets.len()
    }

    /// Out-neighbours of `u`.
    #[inline]
    pub fn neighbors(&self, u: u32) -> &[u32] {
        let lo = self.offsets[u as usize] as usize;
        let hi = self.offsets[u as usize + 1] as usize;
        &self.targets[lo..hi]
    }

    /// Out-degree of `u`.
    #[inline]
    pub fn out_degree(&self, u: u32) -> u32 {
        self.offsets[u as usize + 1] - self.offsets[u as usize]
    }

    /// In-degree of `u` (precomputed at construction). The IC model's
    /// edge probability `P_j(w_j, w_i) = 1 / in-degree(w_i)` reads this.
    #[inline]
    pub fn in_degree(&self, u: u32) -> u32 {
        self.in_degrees[u as usize]
    }

    /// The reverse graph `G'` (every edge flipped), used to sample RRR sets.
    ///
    /// Built by scattering directly out of this graph's CSR — the
    /// flipped edge list the old implementation collected (8 bytes ×
    /// edges, transiently) is never built. The reverse offsets are the
    /// prefix sums of this graph's in-degrees, the reverse in-degrees
    /// are this graph's out-degrees, and the scatter walks edges in CSR
    /// order — the same order the edge-list path used, so the result is
    /// bit-identical.
    pub fn reverse(&self) -> CsrGraph {
        let n = self.n_nodes();
        let mut offsets = vec![0u32; n + 1];
        for u in 0..n {
            offsets[u + 1] = offsets[u] + self.in_degrees[u];
        }
        let mut in_degrees = vec![0u32; n];
        for u in 0..n as u32 {
            in_degrees[u as usize] = self.out_degree(u);
        }
        let mut cursor = offsets.clone();
        let mut targets = vec![0u32; self.n_edges()];
        for u in 0..n as u32 {
            for &v in self.neighbors(u) {
                targets[cursor[v as usize] as usize] = u;
                cursor[v as usize] += 1;
            }
        }
        CsrGraph {
            offsets,
            targets,
            in_degrees,
        }
    }

    /// Iterates over all `(src, dst)` edges in CSR order.
    pub fn edges(&self) -> impl Iterator<Item = (u32, u32)> + '_ {
        (0..self.n_nodes() as u32).flat_map(move |u| self.neighbors(u).iter().map(move |&v| (u, v)))
    }
}

/// Snapshot serde: only `offsets` and `targets` travel. The in-degrees
/// are derived, so a restore counts them from `targets`, after checking
/// that the offsets rise from 0 to `targets.len()` and that every
/// target names a node.
impl serde::Serialize for CsrGraph {
    fn to_value(&self) -> Value {
        Value::Object(vec![
            ("offsets".to_string(), self.offsets.to_value()),
            ("targets".to_string(), self.targets.to_value()),
        ])
    }
}

impl serde::Deserialize for CsrGraph {
    fn from_value(value: &Value) -> Result<Self, serde::Error> {
        let obj = value
            .as_object()
            .ok_or_else(|| serde::Error::expected("CSR graph object", value))?;
        let offsets: Vec<u32> = serde::get_field(obj, "offsets")?;
        let targets: Vec<u32> = serde::get_field(obj, "targets")?;
        let n = offsets.len().saturating_sub(1);
        if offsets.first() != Some(&0) || offsets[n] as usize != targets.len() {
            return Err(serde::Error::custom(format!(
                "CSR offsets must run from 0 to the {} targets",
                targets.len()
            )));
        }
        if let Some(u) = offsets.windows(2).position(|w| w[0] > w[1]) {
            return Err(serde::Error::custom(format!(
                "CSR offsets fall after node {u}"
            )));
        }
        let mut in_degrees = vec![0u32; n];
        for &v in &targets {
            let Some(d) = in_degrees.get_mut(v as usize) else {
                return Err(serde::Error::custom(format!(
                    "CSR target {v} is past the {n} nodes"
                )));
            };
            *d += 1;
        }
        Ok(CsrGraph {
            offsets,
            targets,
            in_degrees,
        })
    }
}

/// Edges per buffered chunk in [`CsrBuilder`] (8 MB of pairs). Chunks
/// start small and double up to this cap so tiny graphs don't pay the
/// full chunk.
const EDGE_CHUNK: usize = 1 << 20;

/// Streaming CSR construction: push edges one at a time, then
/// [`CsrBuilder::finish`] into a [`CsrGraph`].
///
/// The builder buffers edges in fixed-cap chunks (never a doubling
/// `Vec` reallocation) and counts degrees as edges arrive; `finish`
/// prefix-sums the counts and scatters chunk by chunk, **freeing each
/// chunk as it is consumed**. Peak footprint is therefore
/// `pairs + targets` falling to `targets` during the scatter — the
/// million-edge generators stream straight into this instead of
/// materializing an edge `Vec` (with doubling slack).
///
/// The scatter order is the push order: each node's out-neighbours are
/// the edges pushed from it, in push order (in undirected mode a pushed
/// `(u, v)` also appends `u` to `v`'s). [`CsrGraph::from_edges`] and
/// [`CsrGraph::from_undirected_edges`] push their slice through here.
#[derive(Debug)]
pub struct CsrBuilder {
    n: usize,
    undirected: bool,
    /// Per-node out-degree counts (both directions in undirected mode).
    counts: Vec<u32>,
    in_degrees: Vec<u32>,
    chunks: Vec<Vec<(u32, u32)>>,
    n_pushed: usize,
}

impl CsrBuilder {
    /// A builder for a directed graph with `n` nodes.
    pub fn new_directed(n: usize) -> Self {
        CsrBuilder {
            n,
            undirected: false,
            counts: vec![0u32; n],
            in_degrees: vec![0u32; n],
            chunks: Vec::new(),
            n_pushed: 0,
        }
    }

    /// A builder for an undirected graph with `n` nodes: every pushed
    /// `(u, v)` is inserted in both directions.
    pub fn new_undirected(n: usize) -> Self {
        CsrBuilder {
            undirected: true,
            ..Self::new_directed(n)
        }
    }

    /// Number of edge pairs pushed so far (an undirected pair counts
    /// once here, twice in the finished graph).
    #[inline]
    pub fn n_pushed(&self) -> usize {
        self.n_pushed
    }

    /// Buffers every edge of `edges`, in order (see [`Self::push`]).
    fn extend(mut self, edges: &[(u32, u32)]) -> Self {
        for &(u, v) in edges {
            self.push(u, v);
        }
        self
    }

    /// Buffers one edge. Panics when an endpoint is out of range.
    pub fn push(&mut self, u: u32, v: u32) {
        assert!(
            (u as usize) < self.n && (v as usize) < self.n,
            "edge out of range"
        );
        self.counts[u as usize] += 1;
        self.in_degrees[v as usize] += 1;
        if self.undirected {
            self.counts[v as usize] += 1;
            self.in_degrees[u as usize] += 1;
        }
        match self.chunks.last_mut() {
            Some(chunk) if chunk.len() < chunk.capacity() => chunk.push((u, v)),
            _ => {
                // Fixed-cap chunks: 4k pairs doubling up to EDGE_CHUNK,
                // so small graphs stay small and large ones amortize.
                let cap = self
                    .chunks
                    .last()
                    .map_or(4096, |c| (c.capacity() * 2).min(EDGE_CHUNK));
                let mut chunk = Vec::with_capacity(cap);
                chunk.push((u, v));
                self.chunks.push(chunk);
            }
        }
        self.n_pushed += 1;
    }

    /// Builds the graph, consuming the buffered chunks as it scatters.
    pub fn finish(self) -> CsrGraph {
        let n = self.n;
        let mut offsets = vec![0u32; n + 1];
        for (i, &c) in self.counts.iter().enumerate() {
            offsets[i + 1] = offsets[i] + c;
        }
        drop(self.counts);
        let mut cursor: Vec<u32> = offsets[..n].to_vec();
        let mut targets = vec![0u32; offsets[n] as usize];
        for chunk in self.chunks {
            for &(u, v) in &chunk {
                targets[cursor[u as usize] as usize] = v;
                cursor[u as usize] += 1;
                if self.undirected {
                    targets[cursor[v as usize] as usize] = u;
                    cursor[v as usize] += 1;
                }
            }
            // `chunk` drops here: the buffer is freed before the next
            // one is scattered.
        }
        CsrGraph {
            offsets,
            targets,
            in_degrees: self.in_degrees,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> CsrGraph {
        // 0 -> 1, 0 -> 2, 1 -> 3, 2 -> 3
        CsrGraph::from_edges(4, &[(0, 1), (0, 2), (1, 3), (2, 3)])
    }

    #[test]
    fn adjacency_and_degrees() {
        let g = diamond();
        assert_eq!(g.n_nodes(), 4);
        assert_eq!(g.n_edges(), 4);
        assert_eq!(g.neighbors(0), &[1, 2]);
        assert_eq!(g.neighbors(3), &[] as &[u32]);
        assert_eq!(g.out_degree(0), 2);
        assert_eq!(g.in_degree(3), 2);
        assert_eq!(g.in_degree(0), 0);
    }

    #[test]
    fn reverse_flips_edges() {
        let g = diamond();
        let r = g.reverse();
        assert_eq!(r.neighbors(3), &[1, 2]);
        assert_eq!(r.neighbors(1), &[0]);
        assert_eq!(r.in_degree(0), 2);
        // Reversing twice restores the original edge multiset.
        let rr = r.reverse();
        let mut a: Vec<_> = g.edges().collect();
        let mut b: Vec<_> = rr.edges().collect();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b);
    }

    #[test]
    fn undirected_doubles_edges() {
        let g = CsrGraph::from_undirected_edges(3, &[(0, 1), (1, 2)]);
        assert_eq!(g.n_edges(), 4);
        assert_eq!(g.neighbors(1), &[0, 2]);
        assert_eq!(g.in_degree(1), 2);
    }

    #[test]
    fn empty_and_isolated() {
        let g = CsrGraph::from_edges(3, &[]);
        assert_eq!(g.n_nodes(), 3);
        assert_eq!(g.n_edges(), 0);
        assert_eq!(g.neighbors(1), &[] as &[u32]);

        let empty = CsrGraph::from_edges(0, &[]);
        assert_eq!(empty.n_nodes(), 0);
    }

    #[test]
    fn parallel_edges_and_self_loops_are_kept() {
        let g = CsrGraph::from_edges(2, &[(0, 1), (0, 1), (1, 1)]);
        assert_eq!(g.neighbors(0), &[1, 1]);
        assert_eq!(g.in_degree(1), 3);
        assert_eq!(g.out_degree(1), 1);
    }

    #[test]
    fn edges_iterator_matches_input() {
        let input = [(0u32, 1u32), (2, 0), (1, 2)];
        let g = CsrGraph::from_edges(3, &input);
        let mut got: Vec<_> = g.edges().collect();
        let mut expect = input.to_vec();
        got.sort_unstable();
        expect.sort_unstable();
        assert_eq!(got, expect);
    }

    #[test]
    #[should_panic(expected = "edge out of range")]
    fn out_of_range_edge_panics() {
        let _ = CsrGraph::from_edges(2, &[(0, 2)]);
    }

    #[test]
    fn serde_sends_offsets_and_targets_and_counts_in_degrees() {
        use serde::{Deserialize, Serialize};
        let g = CsrGraph::from_edges(4, &[(0, 1), (0, 3), (2, 3), (3, 3)]);
        let value = g.to_value();
        assert_eq!(
            value.to_json_string(),
            r#"{"offsets":[0,2,2,3,4],"targets":[1,3,3,3]}"#
        );
        assert_eq!(CsrGraph::from_value(&value).unwrap(), g);
    }

    #[test]
    fn restore_refuses_offsets_and_targets_that_are_not_a_graph() {
        use serde::Deserialize;
        for (text, why) in [
            (r#"{"offsets":[],"targets":[]}"#, "from 0"),
            (r#"{"offsets":[1,1],"targets":[0]}"#, "from 0"),
            (r#"{"offsets":[0,1],"targets":[0,0]}"#, "to the 2 targets"),
            (
                r#"{"offsets":[0,2,1,2],"targets":[0,1]}"#,
                "fall after node 1",
            ),
            (
                r#"{"offsets":[0,1,2],"targets":[1,2]}"#,
                "target 2 is past the 2 nodes",
            ),
        ] {
            let value = serde::json::parse(text).unwrap();
            let err = CsrGraph::from_value(&value).unwrap_err().to_string();
            assert!(err.contains(why), "{text}: {err}");
        }
    }

    /// `g` against a plain adjacency list filled in edge order: the
    /// offsets, the targets and the in-degrees.
    fn assert_matches_adjacency(g: &CsrGraph, n: usize, edges: &[(u32, u32)], undirected: bool) {
        let mut adjacency = vec![Vec::new(); n];
        let mut in_degrees = vec![0u32; n];
        for &(u, v) in edges {
            adjacency[u as usize].push(v);
            in_degrees[v as usize] += 1;
            if undirected {
                adjacency[v as usize].push(u);
                in_degrees[u as usize] += 1;
            }
        }
        let mut offsets = vec![0u32];
        for list in &adjacency {
            offsets.push(offsets.last().unwrap() + list.len() as u32);
        }
        assert_eq!(g.offsets, offsets);
        assert_eq!(g.targets, adjacency.concat());
        assert_eq!(g.in_degrees, in_degrees);
    }

    #[test]
    fn builder_matches_from_edges() {
        let edges = [(0u32, 1u32), (2, 0), (1, 2), (0, 1), (2, 2)];
        let mut b = CsrBuilder::new_directed(3);
        for &(u, v) in &edges {
            b.push(u, v);
        }
        assert_eq!(b.n_pushed(), edges.len());
        assert_matches_adjacency(&b.finish(), 3, &edges, false);
        assert_matches_adjacency(&CsrGraph::from_edges(3, &edges), 3, &edges, false);
    }

    #[test]
    fn undirected_builder_matches_from_undirected_edges() {
        let edges = [(0u32, 1u32), (1, 2), (0, 3), (2, 3), (1, 3), (2, 2)];
        let mut b = CsrBuilder::new_undirected(4);
        for &(u, v) in &edges {
            b.push(u, v);
        }
        assert_eq!(b.n_pushed(), edges.len());
        assert_matches_adjacency(&b.finish(), 4, &edges, true);
        assert_matches_adjacency(&CsrGraph::from_undirected_edges(4, &edges), 4, &edges, true);
    }

    #[test]
    fn builder_spans_many_chunks() {
        // Cross several chunk boundaries (first chunk holds 4096 pairs)
        // so the progressive-scatter path actually iterates chunks.
        let n = 300usize;
        let edges: Vec<(u32, u32)> = (0..40_000u32)
            .map(|i| (i % n as u32, (i * 7 + 3) % n as u32))
            .collect();
        assert_matches_adjacency(&CsrGraph::from_edges(n, &edges), n, &edges, false);
        assert_matches_adjacency(&CsrGraph::from_undirected_edges(n, &edges), n, &edges, true);
    }

    #[test]
    fn empty_builder_finishes_empty() {
        let g = CsrBuilder::new_directed(5).finish();
        assert_eq!(g.n_nodes(), 5);
        assert_eq!(g.n_edges(), 0);
    }

    #[test]
    #[should_panic(expected = "edge out of range")]
    fn builder_rejects_out_of_range() {
        CsrBuilder::new_directed(2).push(0, 2);
    }
}

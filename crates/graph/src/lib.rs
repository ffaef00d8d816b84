//! # sc-graph — graph substrate
//!
//! Everything graph-shaped in the reproduction lives here, implemented
//! from scratch:
//!
//! * [`CsrGraph`] — a compressed-sparse-row directed graph used for the
//!   social network. The RRR-set sampler of `sc-influence` walks its
//!   [reverse](CsrGraph::reverse) relentlessly, so adjacency is flat and
//!   cache-friendly.
//! * [`traverse`] — BFS/DFS/weakly-connected components.
//! * [`Dinic`] — max-flow for the influence-agnostic MTA baseline.
//! * [`MinCostMaxFlow`] — successive-shortest-path min-cost max-flow with
//!   `f64` costs; the IA/EIA/DIA algorithms of paper Section IV reduce
//!   their assignment instances to this solver (the paper's
//!   Ford–Fulkerson + LP step computes the same optimum).
//! * [`HopcroftKarp`] — maximum bipartite matching, used as an
//!   independent cross-check of the flow-based cardinality.

#![deny(missing_docs)]
#![warn(clippy::all)]
#![forbid(unsafe_code)]

pub mod csr;
pub mod matching;
pub mod maxflow;
pub mod mcmf;
pub mod traverse;

pub use csr::{CsrBuilder, CsrGraph};
pub use matching::HopcroftKarp;
pub use maxflow::Dinic;
pub use mcmf::{verify, CertificateError, FlowResult, MinCostMaxFlow};

//! # sc-graph — graph substrate
//!
//! Everything graph-shaped in the reproduction lives here, implemented
//! from scratch:
//!
//! * [`CsrGraph`] — a compressed-sparse-row directed graph used for the
//!   social network. The RRR-set sampler of `sc-influence` walks its
//!   [reverse](CsrGraph::reverse) relentlessly, so adjacency is flat and
//!   cache-friendly.
//! * [`traverse`] — BFS hop distances, the reachability oracle of the
//!   cascade property tests.
//! * [`MinCostMaxFlow`] — min-cost max-flow with `f64` costs on the
//!   unit-capacity bipartite network of paper Figure 4 (workers on the
//!   left, tasks on the right, source and sink implicit); the IA/EIA/DIA
//!   algorithms of paper Section IV reduce their assignment instances to
//!   it (the paper's Ford–Fulkerson + LP step computes the same
//!   optimum). Successive shortest paths whose passes never visit a
//!   free worker; [`verify`] certifies a solved matching independently
//!   of the solver.
//! * [`HopcroftKarp`] — maximum bipartite matching, which is the
//!   maximum flow of that network. The influence-agnostic MTA baseline
//!   runs on it, and the tests use it as the min-cost solve's
//!   cardinality reference.

#![deny(missing_docs)]
#![warn(clippy::all)]
#![forbid(unsafe_code)]

pub mod csr;
pub mod matching;
pub mod mcmf;
pub mod traverse;

pub use csr::{CsrBuilder, CsrGraph};
pub use matching::HopcroftKarp;
pub use mcmf::{verify, CertificateError, FlowResult, MinCostMaxFlow};

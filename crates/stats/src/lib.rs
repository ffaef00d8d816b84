//! # sc-stats — statistics substrate
//!
//! Self-contained statistical building blocks used across the workspace:
//!
//! * [`Pareto`] — the movement-probability density of the Historical
//!   Acceptance model (paper Section III-B2), including the maximum
//!   likelihood estimator of the shape parameter (paper Eq. 1).
//! * [`Zipf`] — skewed categorical sampling for the synthetic datasets
//!   (category popularity, venue popularity).
//! * [`AliasTable`] — O(1) weighted sampling (Walker's alias method),
//!   used by the dataset generators and the cascade simulator.
//! * [`entropy`] — Shannon entropy (location entropy, paper Section IV-B).
//! * [`OnlineMoments`] — streaming (Welford) means for the experiment
//!   harness.
//! * [`power_iteration`] — stationary distributions of row-stochastic
//!   matrices (the RWR model of Section III-B1).
//! * [`rss`] — peak/current resident-set-size probes (`/proc` on
//!   Linux, honest `None` elsewhere) backing the scale benchmarks'
//!   recorded memory numbers.
//! * [`par`] — the workspace's budget-respecting chunked-shard
//!   scheduler: every parallel phase (RRR sampling, eligibility,
//!   scoring, sweeps) maps contiguous index ranges onto at most
//!   `threads` scoped threads and merges outputs in index order, so
//!   parallel results are bit-identical to sequential ones.

#![deny(missing_docs)]
#![warn(clippy::all)]
#![forbid(unsafe_code)]

pub mod alias;
pub mod entropy;
pub mod moments;
pub mod par;
pub mod pareto;
pub mod power_iter;
pub mod rss;
pub mod zipf;

pub use alias::AliasTable;
pub use entropy::{entropy_from_counts, entropy_from_probs};
pub use moments::OnlineMoments;
pub use par::{chunk_bounds, map_chunked, map_shards};
pub use pareto::Pareto;
pub use power_iter::{power_iteration, PowerIterationResult};
pub use rss::{current_rss_bytes, peak_rss_bytes, reset_peak_rss};
pub use zipf::Zipf;

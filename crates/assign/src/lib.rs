//! # sc-assign — influence-aware task assignment (paper Section IV)
//!
//! Implements every assignment algorithm of the paper on top of the
//! spatio-temporal eligibility rules of Section IV-A:
//!
//! | Algorithm | Objective encoding | Paper |
//! |---|---|---|
//! | [`AlgorithmKind::Mta`] | maximum matching (influence-agnostic) | baseline (GeoCrowd) |
//! | [`AlgorithmKind::Ia`]  | MCMF, edge cost `1/(if+1)` | IV-A |
//! | [`AlgorithmKind::Eia`] | MCMF, edge cost `(s.e+1)/(if+1)` | IV-B |
//! | [`AlgorithmKind::Dia`] | MCMF, edge cost `1/(F·if+1)` | IV-C |
//! | [`AlgorithmKind::Mi`]  | greedy max total influence (two-step) | baseline |
//! | [`AlgorithmKind::GreedyNearest`] | nearest free worker | Fig. 1 |
//!
//! The influence values `if(w, s)` come from an [`InfluenceOracle`] —
//! `sc-core` provides the full DITA oracle; tests use closures.
//!
//! ## Intra-instance parallelism
//!
//! The two scoring passes that dominate a single instance — building
//! the [`EligibilityMatrix`] and evaluating `if(w, s)` per eligible
//! pair — shard over the workspace scheduler (`sc_stats::par`) under a
//! budget above 1: [`EligibilityMatrix::build_with_threads`] splits the
//! worker (CSR) axis into contiguous ranges over a shared task grid,
//! and [`score_pairs`] splits the pair range over the budget
//! [`AssignInput::with_threads`] carries. Both merge in index
//! order, so assignments are **bit-identical at any thread count** —
//! the same contract as `sc-influence`'s sharded RRR sampling. The
//! combinatorial solve (matching / MCMF / greedy) stays sequential;
//! only the embarrassingly parallel scoring work fans out.
//!
//! ## One path per instance
//!
//! Every caller runs the same three steps: build the
//! [`EligibilityMatrix`], score its pairs with [`score_pairs`], then
//! solve with [`run_scored`]. The steps are separate calls so round
//! drivers can time each phase, and so one matrix and one scoring scan
//! can feed several solves. IA, EIA and DIA solve paper Figure 4's
//! network on `sc_graph::MinCostMaxFlow`, one edge per eligible pair;
//! MTA takes a maximum matching of the same edges from
//! `sc_graph::HopcroftKarp`.

#![deny(missing_docs)]
#![warn(clippy::all)]
#![forbid(unsafe_code)]

pub mod algorithms;
pub mod eligibility;
pub mod oracle;

pub use algorithms::{run_scored, score_pairs, AlgorithmKind, AssignInput, SolveStats};
pub use eligibility::{EligibilityMatrix, EligiblePair};
pub use oracle::{score_shards, InfluenceFn, InfluenceOracle, ZeroInfluence};

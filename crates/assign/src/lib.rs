//! # sc-assign — influence-aware task assignment (paper Section IV)
//!
//! Implements every assignment algorithm of the paper on top of the
//! spatio-temporal eligibility rules of Section IV-A:
//!
//! | Algorithm | Objective encoding | Paper |
//! |---|---|---|
//! | [`AlgorithmKind::Mta`] | max-flow only (influence-agnostic) | baseline (GeoCrowd) |
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
//! pair — shard over the workspace scheduler (`sc_stats::par`) when
//! [`AssignInput::with_threads`] carries a budget above 1:
//! [`EligibilityMatrix::build_with_threads`] splits the worker (CSR)
//! axis into contiguous ranges over a shared task grid, and the
//! pair-influence scan splits the pair range. Both merge in index
//! order, so assignments are **bit-identical at any thread count** —
//! the same contract as `sc-influence`'s sharded RRR sampling. The
//! combinatorial solve (max-flow / MCMF / greedy) stays sequential;
//! only the embarrassingly parallel scoring work fans out.
//!
//! [`score_pairs`] / [`run_scored`] split the scoring scan from the
//! solve so online round drivers can time the phases separately.

#![deny(missing_docs)]
#![warn(clippy::all)]
#![forbid(unsafe_code)]

pub mod algorithms;
pub mod eligibility;
pub mod graph;
pub mod oracle;

pub use algorithms::{
    run, run_scored, run_scored_with_stats, run_with_matrix, score_pairs, AlgorithmKind,
    AssignInput, SolveStats,
};
pub use eligibility::{EligibilityMatrix, EligiblePair};
pub use graph::AssignmentGraph;
pub use oracle::{InfluenceFn, InfluenceOracle, ZeroInfluence};

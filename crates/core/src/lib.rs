//! # sc-core — the DITA framework
//!
//! This crate is the paper's primary contribution assembled end-to-end:
//! the **D**ata-driven **I**nfluence-aware **T**ask **A**ssignment
//! framework (paper Figure 2). It wires the substrates together:
//!
//! 1. **Training** ([`DitaBuilder::build`]): fit the LDA affinity model
//!    on workers' historical category documents (`sc-topics`), the
//!    Historical-Acceptance willingness model (`sc-mobility`), the
//!    location-entropy table, and the RPO RRR-set pool (`sc-influence`).
//! 2. **Scoring** ([`DitaPipeline::scorer`]): the worker-task influence
//!    `if(w_s, s) = P_aff(w_s, s) · Σ_{w_i ≠ w_s} P_wil(w_i, s) ·
//!    P_pro(w_s, w_i)` (Section III-D), cached per task in the
//!    pipeline's [`ScorerCache`]. [`InfluenceScorer::new`] is the one
//!    way to build a scorer.
//! 3. **Assignment** ([`DitaPipeline::assign`]): any of the Section IV
//!    algorithms on a per-time-instance snapshot. It is the one
//!    assignment call: eligibility, cache warming, scoring and the
//!    solve, with a per-phase [`RoundPerf`]. The online engine, the CLI
//!    and the examples all go through it.
//!
//! The ablation variants of the evaluation (IA-WP, IA-AP, IA-AW) are
//! expressed as [`InfluenceVariant`]s that drop one factor of the
//! influence product.

#![deny(missing_docs)]
#![warn(clippy::all)]
#![forbid(unsafe_code)]

pub mod config;
pub mod model;
pub mod pipeline;
pub mod scorer;

pub use config::{DitaConfig, OnlineConfig};
pub use model::InfluenceModel;
pub use pipeline::{DitaBuilder, DitaPipeline, RoundPerf};
pub use scorer::{InfluenceBreakdown, InfluenceScorer, InfluenceVariant, ScorerCache, WarmStats};

// The assignment algorithms are part of the public API of the framework.
pub use sc_assign::AlgorithmKind;

// The solve telemetry rides along so round drivers (sim engines,
// benches) can read it without importing sc-assign.
pub use sc_assign::SolveStats;

// The sampling thread budget travels with the config; re-exported so
// downstream crates (sim harness, CLI) need not depend on sc-influence
// just to set it.
pub use sc_influence::Parallelism;

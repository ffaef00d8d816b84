//! # dita — Influence-aware Task Assignment in Spatial Crowdsourcing
//!
//! Umbrella crate for the reproduction of *"Influence-aware Task Assignment
//! in Spatial Crowdsourcing"* (Chen, Zhao, Zheng, Yang, Jensen — ICDE 2022).
//!
//! The workspace implements the full DITA framework:
//!
//! * [`types`] — workers, tasks, check-in histories, assignments.
//! * [`spatial`] — planar geometry and the grid index.
//! * [`stats`] — Pareto/Zipf distributions, MLE, entropy.
//! * [`graph`] — CSR digraphs, min-cost max-flow, Hopcroft–Karp matching.
//! * [`topics`] — Latent Dirichlet Allocation (worker-task affinity).
//! * [`mobility`] — Historical-Acceptance willingness and location entropy.
//! * [`influence`] — Independent Cascade, RRR sets, the RPO estimator.
//! * [`assign`] — IA / EIA / DIA and the MTA / MI / greedy baselines.
//! * [`datagen`] — synthetic Brightkite/FourSquare-like datasets.
//! * [`sim`] — the SC-platform simulator and experiment harness.
//! * [`core`] — the end-to-end DITA pipeline (start here).
//! * [`serve`] — the `dita serve` HTTP front (events in, reports out).
//!
//! ## Quickstart
//!
//! ```no_run
//! use dita::datagen::{DatasetProfile, SyntheticDataset};
//! use dita::core::{AlgorithmKind, DitaBuilder};
//!
//! // Generate a small Brightkite-like world and run one assignment round.
//! let data = SyntheticDataset::generate(&DatasetProfile::brightkite_small(), 42);
//! let pipeline = DitaBuilder::new()
//!     .topics(20)
//!     .build(&data.social, &data.histories)
//!     .expect("training succeeds");
//! let day = data.instance_for_day(0, 100, 80, Default::default());
//! let (assignment, _perf) =
//!     pipeline.assign(&day.instance, Some(&day.task_venues), AlgorithmKind::Ia);
//! println!("assigned {} tasks", assignment.len());
//! ```

#![deny(missing_docs)]
#![warn(clippy::all)]
#![forbid(unsafe_code)]

pub use sc_assign as assign;
pub use sc_core as core;
pub use sc_datagen as datagen;
pub use sc_graph as graph;
pub use sc_influence as influence;
pub use sc_mobility as mobility;
pub use sc_serve as serve;
pub use sc_sim as sim;
pub use sc_spatial as spatial;
pub use sc_stats as stats;
pub use sc_topics as topics;
pub use sc_types as types;

//! # sc-sim — the SC-platform simulator and experiment harness
//!
//! Reproduces the evaluation protocol of paper Section V:
//!
//! * a synthetic dataset (BK- or FS-profile) stands in for the check-in
//!   datasets;
//! * the DITA pipeline is trained once per dataset;
//! * each experiment sweeps one parameter of Table II (|S|, |W|, φ, r)
//!   with the others at their defaults, runs the algorithms on the
//!   instances of 4 simulated days, and averages;
//! * metrics per algorithm: CPU time, number of assigned tasks, Average
//!   Influence (Eq. 6), Average Propagation (Eq. 7), and travel cost.
//!
//! The harness feeds the figure-regeneration binaries in `sc-bench`
//! (`fig05`–`fig16`) and prints the same series the paper plots.
//!
//! Beyond the paper's batch protocol, [`online::OnlineEngine`] serves
//! the *online* deployment mode: streaming task/worker arrivals,
//! per-round assignment, and bounded RRR-pool maintenance (rotation
//! instead of retraining). [`platform::simulate_day`] is a
//! day-in-the-life driver built on the engine, and [`replay::replay_day`]
//! drives it from a **real check-in trace** (`sc_datagen::ReplayStream`):
//! train on the trace's past, replay one day round by round, and fold
//! previously-unseen workers into the live influence network as they
//! first appear.
//!
//! All parallelism — sweep points across instances *and* the scoring
//! passes inside one instance — schedules through the workspace's
//! `sc_stats::par` chunked-shard scheduler under one budget
//! ([`Parallelism`], the CLI's `--threads`), with results bit-identical
//! at any thread count.

#![deny(missing_docs)]
#![warn(clippy::all)]
#![forbid(unsafe_code)]

pub mod event;
pub mod harness;
pub mod metrics;
pub mod online;
pub mod platform;
pub mod replay;
pub mod snapshot;
pub mod sweep;
pub mod table;

pub use event::{Event, EventKind, Outcome, RejectReason};
pub use harness::{AblationPoint, ComparisonPoint, ExperimentRunner};
pub use metrics::MetricsRow;
pub use online::{
    scripted_event, EngineBuilder, NetworkMode, OnlineEngine, OnlineSummary, PipelineMode,
    RoundReport,
};
pub use replay::{replay_day, ReplayReport, ReplayRoundOutcome, ReplayRun};
pub use sc_core::{OnlineConfig, Parallelism};
pub use snapshot::{
    load_snapshot, save_snapshot, snapshot_from_str, snapshot_to_string, SnapshotError,
    SNAPSHOT_VERSION,
};
pub use sweep::{ExperimentScale, SweepAxis, SweepValues};
pub use table::{render_table, to_csv};

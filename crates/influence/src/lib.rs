//! # sc-influence — worker propagation via RRR sets
//!
//! Paper Section III-C measures *worker propagation* — the probability
//! that worker `w_i` learns about a task known to worker `w_s` — under the
//! Independent Cascade model with in-degree edge probabilities
//! (`P_j(w_j, w_i) = 1 / indeg(w_i)`, the classic weighted cascade).
//! It is the one diffusion model here: the RRR sampler, the pool's
//! worker fold-in and the forward simulator all follow it.
//!
//! Enumerating cascades is infeasible, so the paper samples **Random
//! Reverse Reachable (RRR) sets** (Definition 5) and estimates
//!
//! `P_pro(w_s, w_i) = |W|/N · E[# RRR sets rooted at w_i containing w_s]`
//! (Eq. 3), with the **RPO** algorithm (Algorithm 1) choosing the number
//! of sets `N` through two lower bounds: the iteration-based `NR(k)`
//! (Lemma 6) and the threshold-based `N'_R(γ)` (Lemma 5), with
//! `ε* = √2·ε`, `λ = |W|^{−o}`, `λ* = 1/(|W|^o log₂|W|)`.
//!
//! Crate layout:
//!
//! * [`network`] — the social network with cascade probabilities.
//! * [`cascade`] — forward IC simulation (ground truth for tests and the
//!   propagation-validation benches).
//! * [`rrr`] — single RRR-set sampling on the reverse graph.
//! * [`arena`] — the chunked [`RunArena`] both pool indexes live in:
//!   segments of whole runs, grown by zero-copy segment adoption and
//!   compacted in place, so no pool operation transiently holds a
//!   second copy of the live data.
//! * [`membership`] — the pool's worker → sets index, two levels of
//!   runs over set ids relative to a moving base, so a rotation round
//!   costs O(quantum) and renumbers nothing.
//! * [`pool`] — chunked arenas of RRR sets with per-worker and
//!   per-root indexes; all estimators read from it. Generation is
//!   sharded across threads yet **bit-identical at any thread count**
//!   (per-set RNG streams derived from `(master_seed, set_index)`).
//! * [`rpo`] — Algorithm 1: decides how many sets the pool needs, with
//!   incremental (never-resampling) top-ups.
//! * [`parallel`] — the [`Parallelism`] thread-budget knob.
//!
//! Sharded sampling schedules through the workspace-wide
//! `sc_stats::par` chunked-shard scheduler — the same primitive that
//! drives eligibility sharding and influence scoring in `sc-assign` /
//! `sc-core` and sweep-point evaluation in `sc-sim` — so one budget
//! (`Parallelism`, the CLI's `--threads`) governs every parallel phase
//! with one determinism contract (seed per work item, merge in index
//! order).

#![deny(missing_docs)]
#![warn(clippy::all)]
#![forbid(unsafe_code)]

pub mod arena;
pub mod cascade;
pub mod membership;
pub mod network;
pub mod parallel;
pub mod pool;
pub mod rpo;
pub mod rrr;

pub use arena::RunArena;
pub use cascade::IndependentCascade;
pub use membership::{MembershipIndex, SetIds};
pub use network::SocialNetwork;
pub use parallel::Parallelism;
pub use pool::{PoolMemStats, RrrPool};
pub use rpo::{Rpo, RpoParams, RpoStats};
pub use rrr::sample_rrr_set;

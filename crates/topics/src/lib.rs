//! # sc-topics — Latent Dirichlet Allocation for worker-task affinity
//!
//! Paper Section III-A measures a worker's affinity towards a task by
//! training an LDA topic model in which
//!
//! * a **word** is a task category,
//! * a **document** is the category multiset of all tasks a worker has
//!   performed (`dc_w`), and
//! * a task's document is its own category labels (`dc_s`).
//!
//! The affinity is the inner product of topic distributions
//! (`P_aff(w, s) = Σ_t P(w|t) · P(s|t)`, paper's notation; operationally
//! both factors are the inferred document-topic proportions).
//!
//! The model is trained by a from-scratch collapsed Gibbs sampler
//! ([`StreamingLda`]) with symmetric Dirichlet priors, plus fold-in
//! inference for unseen documents ([`LdaModel::infer`]) so that tasks
//! appearing at assignment time can be scored online. The sampler never
//! materializes a corpus — documents are folded into Gibbs state as
//! they arrive, which is how the million-worker training path stays
//! inside its memory budget. Its equivalence contract (see
//! [`streaming`]) pins it bit for bit against a plain batch sampler that
//! `tests/streaming_equality.rs` keeps as the reference model.

#![deny(missing_docs)]
#![warn(clippy::all)]
#![forbid(unsafe_code)]

pub mod affinity;
pub mod gibbs;
pub mod streaming;

pub use affinity::topic_affinity;
pub use gibbs::{LdaModel, LdaParams};
pub use streaming::StreamingLda;

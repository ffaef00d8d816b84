//! The determinism & safety rules.
//!
//! Each rule is a function over one lexed file (plus the cross-file
//! [`Registry`](crate::context::Registry) where needed) that appends
//! [`Finding`](crate::engine::Finding)s. Rules work at token altitude:
//! they track just enough structure (brace depth, `let` bindings,
//! struct-literal bodies) to avoid lying, and prefer a false negative
//! over a false positive — the determinism suites remain the runtime
//! backstop; the lint is the cheap front line.

pub mod d001;
pub mod d002;
pub mod d003;
pub mod d004;
pub mod s001;

/// True when the file lives in a crate whose output reaches assignment
/// reports or snapshots — the blast radius of order-nondeterminism
/// (D001): every crate but the sc-bench and sc-lint tools.
pub fn is_report_affecting(path: &str) -> bool {
    [
        "assign",
        "core",
        "datagen",
        "graph",
        "influence",
        "mobility",
        "serve",
        "sim",
        "spatial",
        "stats",
        "topics",
        "types",
    ]
    .iter()
    .any(|c| path.starts_with(&format!("crates/{c}/src/")))
}

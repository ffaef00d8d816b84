//! # sc-lint — workspace determinism & safety static analysis
//!
//! The workspace's core guarantee is that assignment reports are
//! **bit-identical at any thread or shard count**. Runtime determinism
//! suites can only catch a nondeterminism source once it fires;
//! `sc-lint` rejects the *constructs* that produce such sources at CI
//! time, before they can reach a report:
//!
//! | rule | contract |
//! |------|----------|
//! | D001 | no `HashMap`/`HashSet` **iteration** in report-affecting crates (sc-assign, sc-core, sc-datagen, sc-graph, sc-influence, sc-mobility, sc-serve, sc-sim, sc-spatial, sc-stats, sc-topics, sc-types) — use `BTreeMap`/`BTreeSet` or an explicit sort; hash *lookups* stay legal |
//! | D002 | no ambient entropy (`thread_rng`, `rand::random`, `from_entropy`) — RNG state must flow from the master seed via `seed_from_stream` |
//! | D003 | no `Instant::now`/`SystemTime::now` feeding a field compared by `PartialEq` — timing may only land in fields the manual `PartialEq`-ignores-timings impls exclude, marked `// lint: timing` |
//! | D004 | no ad-hoc `std::thread::scope` parallelism — every parallel phase routes through `sc_stats::par::{map_shards, map_chunked}` |
//! | S001 | every `unsafe` carries `// SAFETY:`; every unsafe-free crate declares `#![forbid(unsafe_code)]` |
//!
//! Findings print as `file:line RULE message` (or as JSON with
//! `--json`) and are suppressible inline:
//!
//! ```text
//! // lint:allow(D001, reason = "values are collected and sorted below")
//! ```
//!
//! The reason clause is mandatory — a reason-less allow is ignored.
//!
//! The tool is built the way the repo builds everything: offline. The
//! lexer ([`lexer`]) is hand-rolled (comments, raw strings, lifetimes
//! vs. char literals, nested block comments), rules do lightweight
//! scope tracking over the token stream, and there are zero external
//! dependencies. Run it as:
//!
//! ```text
//! cargo run -p sc-lint --release -- check
//! cargo run -p sc-lint --release -- check --json
//! cargo run -p sc-lint --release -- rules
//! ```

#![deny(missing_docs)]
#![warn(clippy::all)]
#![forbid(unsafe_code)]

pub mod context;
pub mod engine;
pub mod lexer;
mod rules;
pub mod walker;

pub use engine::{analyze, render_json, render_text, Finding, Rule, SourceFile};
pub use walker::load_workspace;

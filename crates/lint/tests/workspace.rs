//! Workspace-level integration tests.
//!
//! The smoke half asserts what CI runs: `sc-lint check` is clean on
//! the checked-in tree. The seeded half proves the tool is not
//! vacuously green — injecting a hash-map iteration into sc-assign's
//! file set produces a D001 finding at the expected line.

use sc_lint::{analyze, load_workspace, Rule, SourceFile};
use std::path::Path;

fn workspace_files() -> Vec<SourceFile> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    load_workspace(&root).expect("walk workspace sources")
}

#[test]
fn head_workspace_is_clean() {
    let files = workspace_files();
    assert!(
        files.len() > 50,
        "walker should see the whole workspace, got {} files",
        files.len()
    );
    let findings = analyze(&files);
    assert!(
        findings.is_empty(),
        "HEAD must be lint-clean; found:\n{}",
        sc_lint::render_text(&findings)
    );
}

#[test]
fn seeded_hashmap_iteration_in_assign_is_caught() {
    let mut files = workspace_files();
    files.push(SourceFile {
        path: "crates/assign/src/seeded_violation.rs".to_string(),
        text: "\
use std::collections::HashMap;

pub fn leak_order(scores: &HashMap<u64, f64>) -> Vec<(u64, f64)> {
    let mut out = Vec::new();
    for (w, s) in scores.iter() {
        out.push((*w, *s));
    }
    out
}
"
        .to_string(),
    });
    let findings = analyze(&files);
    let seeded: Vec<_> = findings
        .iter()
        .filter(|f| f.file == "crates/assign/src/seeded_violation.rs" && f.rule == Rule::D001)
        .collect();
    assert_eq!(
        seeded.len(),
        1,
        "exactly the seeded iteration should fire:\n{}",
        sc_lint::render_text(&findings)
    );
    assert_eq!(seeded[0].line, 5, "{:?}", seeded[0]);
}

#[test]
fn seeded_entropy_outside_assign_is_also_caught() {
    // D002/D004/S001 are workspace-wide; prove a non-report-affecting
    // crate is still covered.
    let mut files = workspace_files();
    files.push(SourceFile {
        path: "crates/bench/src/seeded_entropy.rs".to_string(),
        text: "pub fn jitter() -> u64 {\n    rand::thread_rng().next_u64()\n}\n".to_string(),
    });
    let findings = analyze(&files);
    assert!(
        findings
            .iter()
            .any(|f| f.file == "crates/bench/src/seeded_entropy.rs"
                && f.rule == Rule::D002
                && f.line == 2),
        "seeded thread_rng must be caught:\n{}",
        sc_lint::render_text(&findings)
    );
}

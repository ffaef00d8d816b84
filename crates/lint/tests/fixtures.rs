//! Fixture-driven self-tests for every rule.
//!
//! Each rule directory under `tests/fixtures/` holds a `trigger.rs`
//! (must produce findings at known lines), an `ok.rs` (must produce
//! none), and a `suppressed.rs` (violations excused via `lint:allow`
//! with a reason, so none survive). The fixtures are plain source
//! *data* — they are never compiled; the driver feeds them to
//! [`sc_lint::analyze`] under synthetic workspace paths.

use sc_lint::{analyze, Finding, Rule, SourceFile};

/// A path inside a report-affecting crate (D001's scope).
const ASSIGN_PATH: &str = "crates/assign/src/fixture.rs";
/// A path in sc-mobility, whose location entropy reaches snapshots
/// (D001's scope too).
const MOBILITY_PATH: &str = "crates/mobility/src/fixture.rs";
/// A path outside the report-affecting set.
const BENCH_PATH: &str = "crates/bench/src/fixture.rs";

fn fixture(rule_dir: &str, name: &str) -> String {
    let path = format!(
        "{}/tests/fixtures/{rule_dir}/{name}",
        env!("CARGO_MANIFEST_DIR")
    );
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"))
}

fn analyze_at(path: &str, text: String) -> Vec<Finding> {
    analyze(&[SourceFile {
        path: path.to_string(),
        text,
    }])
}

/// Lines at which `rule` fired, sorted (analyze sorts by line already).
fn lines(findings: &[Finding], rule: Rule) -> Vec<u32> {
    findings
        .iter()
        .filter(|f| f.rule == rule)
        .map(|f| f.line)
        .collect()
}

// ---------------------------------------------------------------- D001

#[test]
fn d001_trigger_flags_every_iteration_shape() {
    for path in [ASSIGN_PATH, MOBILITY_PATH] {
        let findings = analyze_at(path, fixture("d001", "trigger.rs"));
        assert_eq!(
            lines(&findings, Rule::D001),
            vec![15, 23, 28, 32, 38, 56, 72],
            "{path}: into_iter, values, for-in-&set, drain, for-in-&self.field, \
             iter_mut through expr.field, values of an inner map: {findings:?}"
        );
    }
}

#[test]
fn d001_ok_lookups_and_ordered_maps_pass() {
    let findings = analyze_at(ASSIGN_PATH, fixture("d001", "ok.rs"));
    assert_eq!(
        lines(&findings, Rule::D001),
        Vec::<u32>::new(),
        "{findings:?}"
    );
}

#[test]
fn d001_suppressed_with_reason_passes() {
    let findings = analyze_at(ASSIGN_PATH, fixture("d001", "suppressed.rs"));
    assert_eq!(
        lines(&findings, Rule::D001),
        Vec::<u32>::new(),
        "{findings:?}"
    );
}

#[test]
fn d001_does_not_apply_outside_report_affecting_crates() {
    let findings = analyze_at(BENCH_PATH, fixture("d001", "trigger.rs"));
    assert_eq!(
        lines(&findings, Rule::D001),
        Vec::<u32>::new(),
        "sc-bench may iterate hash maps freely: {findings:?}"
    );
}

// ---------------------------------------------------------------- D002

#[test]
fn d002_trigger_flags_all_entropy_sources() {
    let findings = analyze_at(BENCH_PATH, fixture("d002", "trigger.rs"));
    assert_eq!(
        lines(&findings, Rule::D002),
        vec![5, 7, 8],
        "thread_rng, rand::random, from_entropy: {findings:?}"
    );
}

#[test]
fn d002_ok_seeded_streams_pass() {
    let findings = analyze_at(BENCH_PATH, fixture("d002", "ok.rs"));
    assert_eq!(
        lines(&findings, Rule::D002),
        Vec::<u32>::new(),
        "{findings:?}"
    );
}

#[test]
fn d002_suppressed_with_reason_passes() {
    let findings = analyze_at(BENCH_PATH, fixture("d002", "suppressed.rs"));
    assert_eq!(
        lines(&findings, Rule::D002),
        Vec::<u32>::new(),
        "{findings:?}"
    );
}

// ---------------------------------------------------------------- D003

#[test]
fn d003_trigger_flags_literal_shorthand_and_store() {
    let findings = analyze_at(BENCH_PATH, fixture("d003", "trigger.rs"));
    assert_eq!(
        lines(&findings, Rule::D003),
        vec![17, 27, 30],
        "direct literal entry, tainted shorthand, field store: {findings:?}"
    );
}

#[test]
fn d003_ok_annotated_and_uncompared_pass() {
    let findings = analyze_at(BENCH_PATH, fixture("d003", "ok.rs"));
    assert_eq!(
        lines(&findings, Rule::D003),
        Vec::<u32>::new(),
        "{findings:?}"
    );
}

#[test]
fn d003_suppressed_with_reason_passes() {
    let findings = analyze_at(BENCH_PATH, fixture("d003", "suppressed.rs"));
    assert_eq!(
        lines(&findings, Rule::D003),
        Vec::<u32>::new(),
        "{findings:?}"
    );
}

// ---------------------------------------------------------------- D004

#[test]
fn d004_trigger_flags_adhoc_scoped_threads() {
    let findings = analyze_at(BENCH_PATH, fixture("d004", "trigger.rs"));
    assert_eq!(
        lines(&findings, Rule::D004),
        vec![5, 18],
        "qualified and imported thread::scope: {findings:?}"
    );
}

#[test]
fn d004_ok_sc_stats_par_passes() {
    let findings = analyze_at(BENCH_PATH, fixture("d004", "ok.rs"));
    assert_eq!(
        lines(&findings, Rule::D004),
        Vec::<u32>::new(),
        "{findings:?}"
    );
}

#[test]
fn d004_suppressed_with_reason_passes() {
    let findings = analyze_at(BENCH_PATH, fixture("d004", "suppressed.rs"));
    assert_eq!(
        lines(&findings, Rule::D004),
        Vec::<u32>::new(),
        "{findings:?}"
    );
}

// ---------------------------------------------------------------- S001

#[test]
fn s001_trigger_undocumented_unsafe() {
    let findings = analyze_at(
        "crates/demo/src/lib.rs",
        fixture("s001", "trigger_missing_safety.rs"),
    );
    assert_eq!(
        lines(&findings, Rule::S001),
        vec![4],
        "unsafe without SAFETY comment: {findings:?}"
    );
}

#[test]
fn s001_trigger_missing_forbid_on_clean_crate() {
    let findings = analyze_at(
        "crates/demo/src/lib.rs",
        fixture("s001", "trigger_missing_forbid.rs"),
    );
    assert_eq!(
        lines(&findings, Rule::S001),
        vec![1],
        "unsafe-free root without #![forbid(unsafe_code)]: {findings:?}"
    );
}

#[test]
fn s001_ok_forbid_declared() {
    let findings = analyze_at("crates/demo/src/lib.rs", fixture("s001", "ok.rs"));
    assert_eq!(
        lines(&findings, Rule::S001),
        Vec::<u32>::new(),
        "{findings:?}"
    );
}

#[test]
fn s001_ok_documented_unsafe() {
    let findings = analyze_at("crates/demo/src/lib.rs", fixture("s001", "ok_safety.rs"));
    assert_eq!(
        lines(&findings, Rule::S001),
        Vec::<u32>::new(),
        "SAFETY comments within reach; forbid not required when unsafe \
         exists: {findings:?}"
    );
}

#[test]
fn s001_bin_target_needs_its_own_forbid() {
    // A lib root's attribute does not cover sibling binaries: the same
    // clean text passes as an annotated lib root but fails as a bin.
    let text = fixture("s001", "trigger_missing_forbid.rs");
    let findings = analyze_at("crates/demo/src/bin/tool.rs", text);
    assert_eq!(lines(&findings, Rule::S001), vec![1], "{findings:?}");
}

//! Smoke-size runs of every workload, untraced and traced. Each run must
//! pass its output checks (exit 0 with `"correct": true`) and print every
//! metric `BENCHMARK.json` declares for its mode, with that unit.
//!
//! ```text
//! cargo test --release --offline --manifest-path servebench/Cargo.toml
//! ```

use serde::json::Value;
use std::path::{Path, PathBuf};
use std::process::Command;

fn object(value: &Value) -> &[(String, Value)] {
    value.as_object().expect("a JSON object")
}

fn get<'a>(obj: &'a [(String, Value)], key: &str) -> &'a Value {
    &obj.iter()
        .find(|(k, _)| k == key)
        .unwrap_or_else(|| panic!("missing key `{key}`"))
        .1
}

fn text(value: &Value) -> &str {
    match value {
        Value::Str(s) => s,
        other => panic!("expected a string, got {other:?}"),
    }
}

/// `(name, unit)` of every metric `BENCHMARK.json` lists under `section`.
fn declared(section: &str) -> Vec<(String, String)> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("read BENCHMARK.json");
    let root = serde::json::parse(&json).expect("BENCHMARK.json is JSON");
    let Value::Array(metrics) = get(object(&root), section) else {
        panic!("`{section}` is not an array");
    };
    metrics
        .iter()
        .map(|m| {
            let m = object(m);
            (
                text(get(m, "name")).to_string(),
                text(get(m, "unit")).to_string(),
            )
        })
        .collect()
}

fn smoke(workload: &str, trace: bool) {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("smoke-{workload}-{trace}"));
    std::fs::create_dir_all(&dir).expect("create the run directory");
    let out = Command::new(env!("CARGO_BIN_EXE_servebench"))
        .args([
            "--workload",
            workload,
            "--seed",
            "7",
            "--seconds",
            "1",
            "--smoke",
        ])
        .args(["--trace", if trace { "1" } else { "0" }])
        .current_dir(&dir)
        .output()
        .expect("run servebench");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("a result line");
    let result = serde::json::parse(last).expect("the result line is JSON");
    let result = object(&result);
    assert_eq!(result.len(), 4, "{last}");
    assert_eq!(get(result, "correct"), &Value::Bool(true));
    assert_eq!(get(result, "failed"), &Value::Int(0));
    assert!(matches!(get(result, "attempted"), Value::Int(n) if *n >= 1));
    let metrics = object(get(result, "metrics"));
    let want = declared(if trace { "per_layer" } else { "end_to_end" });
    assert_eq!(metrics.len(), want.len(), "{last}");
    for (name, unit) in want {
        let m = object(get(metrics, &name));
        assert_eq!(text(get(m, "unit")), unit, "unit of {name}");
        assert!(
            matches!(get(m, "value"), Value::Int(_) | Value::Float(_)),
            "value of {name}"
        );
    }
    // The report names every end-to-end metric, and when traced every
    // per-layer one, including those only some workloads have.
    for (name, _) in declared("end_to_end") {
        assert!(stdout.contains(&name), "the report lacks {name}");
    }
}

#[test]
fn steady() {
    smoke("steady", false);
    smoke("steady", true);
}

#[test]
fn contested() {
    smoke("contested", false);
    smoke("contested", true);
}

#[test]
fn churn() {
    smoke("churn", false);
    smoke("churn", true);
}

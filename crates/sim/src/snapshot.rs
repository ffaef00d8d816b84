//! Versioned snapshot files for the online engine.
//!
//! A snapshot is the serving state of an [`OnlineEngine`] and nothing
//! derived from it, wrapped in a versioned JSON envelope:
//!
//! ```json
//! { "version": 2, "engine": { ... } }
//! ```
//!
//! The file holds the trained pipeline (LDA `φ`, the per-worker topic
//! distributions, willingness, entropy, and the RRR sets with their
//! epochs, stream base and epoch counter), the social network's forward
//! graph as CSR `offsets` and `targets`, and every report-affecting
//! counter of the engine. What a restore can compute from that is left
//! out and rebuilt by the code that builds it at training time: each
//! RRR set's root and the pool's worker → sets index (as a cold start
//! indexes its sets), the pool's byte accounting, the reverse graph, the
//! in-degrees and the `1/indeg` edge probabilities.
//!
//! Restore checks what it rebuilds from, and refuses with
//! [`SnapshotError::Parse`] rather than panicking later: CSR offsets
//! that do not rise from 0 to the target count or a target past the
//! population, an empty RRR set or one holding a worker past the
//! population, set epochs that do not match the sets, a pool whose
//! population differs from the network's, an LDA model with no topics
//! or a `φ` of any size but `n_topics × n_words`, and a worker topic
//! row of any length but 0 or `n_topics`.
//!
//! Version 1 files, which also carried each set's root, the membership
//! index, the pool's peak bytes, LDA's training `θ` and document count,
//! and the network's in-degrees, still restore: those keys are not
//! read. Nor is the `model` key that older files carry in the pool and
//! the RPO parameters, from when RRR sets had a choice of diffusion
//! model. Any other version is refused outright instead of guessing at
//! field layouts. Restored engines own their pipeline and network
//! handles and emit **bit-identical** [`RoundReport`]s to the
//! uninterrupted original at any thread count, and write the same
//! snapshot bytes at the end of the day — the round-trip tests in
//! `crates/sim/tests/snapshot_roundtrip.rs` and the CI serve-smoke job
//! pin this.
//!
//! [`RoundReport`]: crate::online::RoundReport

use crate::online::OnlineEngine;
use serde::json::Value;
use std::fmt;
use std::io::Write;
use std::path::{Path, PathBuf};

/// The snapshot format version this build writes.
pub const SNAPSHOT_VERSION: u64 = 2;

/// Every version this build restores (module docs).
const READABLE_VERSIONS: [u64; 2] = [1, SNAPSHOT_VERSION];

/// Why a snapshot could not be written or restored.
#[derive(Debug)]
pub enum SnapshotError {
    /// Filesystem failure (open, read, write).
    Io(std::io::Error),
    /// The file is not valid snapshot JSON.
    Parse(String),
    /// The envelope declares a version this build does not understand.
    Version(u64),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Io(e) => write!(f, "snapshot i/o error: {e}"),
            SnapshotError::Parse(msg) => write!(f, "snapshot parse error: {msg}"),
            SnapshotError::Version(v) => write!(
                f,
                "snapshot version {v} not supported (this build reads versions {READABLE_VERSIONS:?})"
            ),
        }
    }
}

impl std::error::Error for SnapshotError {}

impl From<std::io::Error> for SnapshotError {
    fn from(e: std::io::Error) -> Self {
        SnapshotError::Io(e)
    }
}

/// Serializes an engine into the versioned envelope string.
pub fn snapshot_to_string(engine: &OnlineEngine<'_>) -> Result<String, SnapshotError> {
    let envelope = Value::Object(vec![
        (
            "version".to_string(),
            serde::Serialize::to_value(&SNAPSHOT_VERSION),
        ),
        ("engine".to_string(), serde::Serialize::to_value(engine)),
    ]);
    Ok(envelope.to_json_string())
}

/// Restores an engine from a versioned envelope string.
pub fn snapshot_from_str(text: &str) -> Result<OnlineEngine<'static>, SnapshotError> {
    let envelope: Value = serde::json::parse(text).map_err(SnapshotError::Parse)?;
    let obj = envelope
        .as_object()
        .ok_or_else(|| SnapshotError::Parse("snapshot is not a JSON object".to_string()))?;
    let version: u64 =
        serde::get_field(obj, "version").map_err(|e| SnapshotError::Parse(e.to_string()))?;
    if !READABLE_VERSIONS.contains(&version) {
        return Err(SnapshotError::Version(version));
    }
    let engine = obj
        .iter()
        .find(|(k, _)| k == "engine")
        .map(|(_, v)| v)
        .ok_or_else(|| SnapshotError::Parse("snapshot has no `engine` field".to_string()))?;
    serde::Deserialize::from_value(engine).map_err(|e| SnapshotError::Parse(e.to_string()))
}

/// Writes an engine snapshot to `path` durably: the bytes go to a
/// sibling file, `path` with `.tmp` appended, which is flushed to disk
/// before it is renamed over `path`, and then the directory holding the
/// rename is flushed too. After a crash or power cut, `path` holds
/// either the previous snapshot or the whole new one, never a renamed
/// file whose data did not reach the disk.
pub fn save_snapshot(engine: &OnlineEngine<'_>, path: &Path) -> Result<(), SnapshotError> {
    let text = snapshot_to_string(engine)?;
    let tmp = temp_path(path);
    let mut file = std::fs::File::create(&tmp)?;
    file.write_all(text.as_bytes())?;
    file.sync_all()?;
    drop(file);
    std::fs::rename(&tmp, path)?;
    let dir = match path.parent() {
        Some(dir) if !dir.as_os_str().is_empty() => dir,
        _ => Path::new("."),
    };
    std::fs::File::open(dir)?.sync_all()?;
    Ok(())
}

/// `path` with `.tmp` appended to its file name: never `path` itself,
/// whatever extension `path` has.
fn temp_path(path: &Path) -> PathBuf {
    let mut name = path.as_os_str().to_owned();
    name.push(".tmp");
    PathBuf::from(name)
}

/// Restores an engine from a snapshot file written by [`save_snapshot`].
pub fn load_snapshot(path: &Path) -> Result<OnlineEngine<'static>, SnapshotError> {
    let text = std::fs::read_to_string(path)?;
    snapshot_from_str(&text)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_temp_file_is_never_the_snapshot() {
        for (target, temp) in [
            ("state.tmp", "state.tmp.tmp"),
            ("dir/snap", "dir/snap.tmp"),
            ("dir/snap.json", "dir/snap.json.tmp"),
        ] {
            assert_eq!(temp_path(Path::new(target)), Path::new(temp));
        }
    }

    #[test]
    fn unknown_version_is_rejected() {
        let err = snapshot_from_str("{\"version\": 99, \"engine\": {}}").unwrap_err();
        assert!(matches!(err, SnapshotError::Version(99)), "{err}");
        assert!(err.to_string().contains("99"));
        for version in [0, 3] {
            let text = format!("{{\"version\": {version}, \"engine\": {{}}}}");
            let err = snapshot_from_str(&text).unwrap_err();
            assert!(
                matches!(err, SnapshotError::Version(v) if v == version),
                "{err}"
            );
        }
    }

    #[test]
    fn malformed_text_is_a_parse_error() {
        assert!(matches!(
            snapshot_from_str("not json"),
            Err(SnapshotError::Parse(_))
        ));
        assert!(matches!(
            snapshot_from_str("[1, 2]"),
            Err(SnapshotError::Parse(_))
        ));
        assert!(matches!(
            snapshot_from_str("{\"version\": 1}"),
            Err(SnapshotError::Parse(_))
        ));
    }

    #[test]
    fn missing_file_is_io() {
        let err = load_snapshot(Path::new("/nonexistent/dita.snap")).unwrap_err();
        assert!(matches!(err, SnapshotError::Io(_)));
    }
}

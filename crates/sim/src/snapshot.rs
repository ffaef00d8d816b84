//! Versioned snapshot files for the online engine.
//!
//! A snapshot is the whole serving state of an [`OnlineEngine`] — the
//! trained pipeline (LDA, willingness, entropy, RRR pool with its
//! epoch window and stream base), the social network, and every
//! report-affecting counter — wrapped in a versioned JSON envelope:
//!
//! ```json
//! { "version": 1, "engine": { ... } }
//! ```
//!
//! The restore path rejects unknown versions outright instead of
//! guessing at field layouts. Restored engines own their pipeline and
//! network handles and emit **bit-identical** [`RoundReport`]s to the
//! uninterrupted original at any thread count — the round-trip test in
//! `crates/sim/tests/snapshot_roundtrip.rs` and the CI serve-smoke job
//! both pin this.
//!
//! [`RoundReport`]: crate::online::RoundReport

use crate::online::OnlineEngine;
use serde::json::Value;
use std::fmt;
use std::io::Write;
use std::path::Path;

/// The snapshot format version this build writes and accepts.
pub const SNAPSHOT_VERSION: u64 = 1;

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
                "snapshot version {v} not supported (this build reads version {SNAPSHOT_VERSION})"
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
    if version != SNAPSHOT_VERSION {
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
/// sibling `.tmp` file, which is flushed to disk before it is renamed
/// over `path`, and then the directory holding the rename is flushed
/// too. After a crash or power cut, `path` holds either the previous
/// snapshot or the whole new one, never a renamed file whose data did
/// not reach the disk.
pub fn save_snapshot(engine: &OnlineEngine<'_>, path: &Path) -> Result<(), SnapshotError> {
    let text = snapshot_to_string(engine)?;
    let tmp = path.with_extension("tmp");
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

/// Restores an engine from a snapshot file written by [`save_snapshot`].
pub fn load_snapshot(path: &Path) -> Result<OnlineEngine<'static>, SnapshotError> {
    let text = std::fs::read_to_string(path)?;
    snapshot_from_str(&text)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unknown_version_is_rejected() {
        let err = snapshot_from_str("{\"version\": 99, \"engine\": {}}").unwrap_err();
        assert!(matches!(err, SnapshotError::Version(99)), "{err}");
        assert!(err.to_string().contains("99"));
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

//! Training on the production path, pinned to the bit.
//!
//! `InfluenceModel::train` under `DitaConfig::default()` (the paper's
//! 50 topics, 60 Gibbs sweeps) on a 300-worker synthetic world. Every
//! worker's θ row, and the θ that `task_topics` infers through the
//! frozen φ for a task of each category, hash to recorded
//! fingerprints, every `f64` as its bits. A Gibbs sweep that moves one
//! draw, or a freeze that moves one last bit, fails here by name.

use dita::core::{DitaConfig, InfluenceModel};
use dita::datagen::{DatasetProfile, SyntheticDataset};
use dita::types::{CategoryId, Duration, Location, Task, TaskId, TimeInstant, WorkerId};

/// FNV-1a over little-endian bytes.
struct Fnv1a(u64);

impl Fnv1a {
    fn new() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }

    fn eat(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Hashes a row's length, then each value's bits.
    fn eat_row(&mut self, row: &[f64]) {
        self.eat(&(row.len() as u64).to_le_bytes());
        for p in row {
            self.eat(&p.to_bits().to_le_bytes());
        }
    }
}

#[test]
fn default_training_matches_the_recorded_fingerprints() {
    let profile = DatasetProfile::foursquare_small();
    assert!(profile.n_workers <= 300, "keep the debug suite fast");
    let data = SyntheticDataset::generate(&profile, 3);
    let model = InfluenceModel::train(&DitaConfig::default(), &data.social, &data.histories);
    assert_eq!(model.n_workers(), profile.n_workers);

    let mut theta = Fnv1a::new();
    for w in 0..model.n_workers() {
        theta.eat_row(model.worker_topics(WorkerId::from(w)));
    }
    let mut tasks = Fnv1a::new();
    for c in 0..profile.n_categories as u32 {
        let task = Task::new(
            TaskId::new(c),
            Location::new(0.0, 0.0),
            TimeInstant::from_seconds(0),
            Duration::hours(1),
            CategoryId::new(c),
        );
        tasks.eat_row(&model.task_topics(&task));
    }
    assert_eq!(theta.0, 0x5fcc_2a07_2692_9d12, "trained θ moved");
    assert_eq!(
        tasks.0, 0xa96b_f586_75c9_a615,
        "task θ inferred through φ moved"
    );
}

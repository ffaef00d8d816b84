//! Loading real check-in datasets.
//!
//! The paper's pipeline starts from exactly two relations — a social
//! edge list and a check-in log — which is what the Brightkite and
//! FourSquare dumps provide. [`LoadedDataset`] ingests those relations
//! (via the TSV formats of [`crate::io`], after projecting WGS84 to the
//! planar world with `sc_spatial::Projector`) and offers the same
//! per-day instance extraction as [`crate::SyntheticDataset`], so the
//! whole DITA pipeline runs unchanged on real data.

use crate::dataset::{DayInstance, InstanceOptions};
use crate::io::{read_checkins_tsv, read_edges_tsv};
use rand::rngs::SmallRng;
use rand::seq::index::sample as index_sample;
use rand::{RngExt, SeedableRng};
use sc_influence::SocialNetwork;
use sc_types::{
    Duration, HistoryStore, Instance, Location, ScError, Task, TaskId, TimeInstant, VenueId,
    Worker, WorkerId,
};
use std::collections::{BTreeMap, HashMap};
use std::path::Path;

/// A venue reconstructed from check-in records.
#[derive(Debug, Clone, PartialEq)]
pub struct LoadedVenue {
    /// Venue id as it appears in the check-in log.
    pub id: VenueId,
    /// Location of the venue (first observation wins).
    pub location: Location,
    /// Union of categories observed at the venue.
    pub categories: Vec<sc_types::CategoryId>,
    /// Day indices on which the venue was visited.
    pub active_days: Vec<i64>,
}

/// The training view of a trace: the population observed *before* a
/// replay day, with dense ids — what a platform actually knows when the
/// day opens.
///
/// Workers with no check-in before the cut are excluded (and re-enter
/// through the online engine's worker fold-in when they first appear
/// mid-replay); edges between excluded workers are dropped with them.
#[derive(Debug, Clone)]
pub struct TrainingSlice {
    /// The social network over the trained (dense-id) population.
    pub social: SocialNetwork,
    /// Histories truncated to the training window, dense ids.
    pub histories: HistoryStore,
    /// Trace id → dense trained id.
    pub to_dense: HashMap<WorkerId, WorkerId>,
    /// Dense trained id → trace id (index = dense id).
    pub from_dense: Vec<WorkerId>,
}

/// A dataset ingested from edge + check-in relations.
#[derive(Debug, Clone)]
pub struct LoadedDataset {
    /// The social network over the worker population.
    pub social: SocialNetwork,
    /// Check-in histories per worker.
    pub histories: HistoryStore,
    /// Venues reconstructed from the log, ordered by id.
    pub venues: Vec<LoadedVenue>,
    n_workers: usize,
    seed: u64,
}

impl LoadedDataset {
    /// Loads from the TSV formats written by [`crate::io`].
    /// `edges` are undirected friendships; locations in the check-in log
    /// must already be planar km (project WGS84 first).
    pub fn from_tsv(edges: &Path, checkins: &Path, seed: u64) -> sc_types::Result<Self> {
        let edge_list = read_edges_tsv(edges)?;
        let histories = read_checkins_tsv(checkins)?;
        Self::from_parts(edge_list, histories, seed)
    }

    /// Builds from already-parsed relations.
    pub fn from_parts(
        edges: Vec<(u32, u32)>,
        histories: HistoryStore,
        seed: u64,
    ) -> sc_types::Result<Self> {
        let max_edge_node = edges
            .iter()
            .flat_map(|&(u, v)| [u, v])
            .max()
            .map_or(0, |m| m as usize + 1);
        let n_workers = histories.n_workers().max(max_edge_node);
        if n_workers == 0 {
            return Err(ScError::data("dataset has no workers"));
        }
        let social = SocialNetwork::from_undirected_edges(n_workers, &edges);

        // Reconstruct venues: first-seen location, category union,
        // active-day set. Keyed by a BTreeMap so `into_values` below
        // yields venues in ascending id order with no explicit sort
        // (D001: iteration order must not depend on a hasher).
        let mut by_venue: BTreeMap<VenueId, LoadedVenue> = BTreeMap::new();
        for (_, history) in histories.iter() {
            for r in history.records() {
                let v = by_venue.entry(r.venue).or_insert_with(|| LoadedVenue {
                    id: r.venue,
                    location: r.location,
                    categories: Vec::new(),
                    active_days: Vec::new(),
                });
                for c in &r.categories {
                    if !v.categories.contains(c) {
                        v.categories.push(*c);
                    }
                }
                let day = r.arrived.day();
                if !v.active_days.contains(&day) {
                    v.active_days.push(day);
                }
            }
        }
        let venues: Vec<LoadedVenue> = by_venue.into_values().collect();
        if venues.is_empty() {
            return Err(ScError::data("check-in log contains no venues"));
        }

        Ok(LoadedDataset {
            social,
            histories,
            venues,
            n_workers,
            seed,
        })
    }

    /// Number of workers.
    pub fn n_workers(&self) -> usize {
        self.n_workers
    }

    /// Extracts the training view for a replay of `before_day`: workers
    /// with at least one check-in strictly before that day, their
    /// pre-cut histories, and the friendship edges among them, all
    /// remapped to dense ids in ascending trace-id order.
    ///
    /// This is the honest population split of trace-driven evaluation:
    /// the pipeline trains on what the platform had seen when the day
    /// opened, and workers whose first check-in falls *on* the replay
    /// day arrive as genuinely unseen (the replay driver folds them
    /// into the live model — see `sc_sim::replay`). Errors when no
    /// worker has any prior history.
    pub fn training_slice(&self, before_day: i64) -> sc_types::Result<TrainingSlice> {
        let mut from_dense = Vec::new();
        for (w, history) in self.histories.iter() {
            if history
                .records()
                .iter()
                .any(|r| r.arrived.day() < before_day)
            {
                from_dense.push(w);
            }
        }
        if from_dense.is_empty() {
            return Err(ScError::data(format!(
                "no check-ins before day {before_day}: nothing to train on"
            )));
        }
        let to_dense: HashMap<WorkerId, WorkerId> = from_dense
            .iter()
            .enumerate()
            .map(|(dense, &trace)| (trace, WorkerId::from(dense)))
            .collect();

        let mut histories = HistoryStore::with_workers(from_dense.len());
        for (dense, &trace) in from_dense.iter().enumerate() {
            for r in self.histories.history(trace).records() {
                if r.arrived.day() < before_day {
                    let mut rec = r.clone();
                    rec.worker = WorkerId::from(dense);
                    histories.push(rec);
                }
            }
        }

        let mut edges = Vec::new();
        for (u, v) in self.social.graph().edges() {
            // The trace graph holds both directions of each friendship;
            // keep one (u < v) and let the constructor mirror it.
            if u < v {
                if let (Some(du), Some(dv)) = (
                    to_dense.get(&WorkerId::new(u)),
                    to_dense.get(&WorkerId::new(v)),
                ) {
                    edges.push((du.raw(), dv.raw()));
                }
            }
        }
        let social = SocialNetwork::from_undirected_edges(from_dense.len(), &edges);

        Ok(TrainingSlice {
            social,
            histories,
            to_dense,
            from_dense,
        })
    }

    /// Extracts a per-day instance following the paper's protocol:
    /// tasks come from venues active on that day (falling back to all
    /// venues when the day is quiet), published at the earliest visit
    /// hour; workers are sampled from those with a history, placed at
    /// their last check-in.
    pub fn instance_for_day(
        &self,
        day: i64,
        n_tasks: usize,
        n_workers: usize,
        opts: InstanceOptions,
    ) -> DayInstance {
        let mut rng =
            SmallRng::seed_from_u64(self.seed ^ (day as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let now = TimeInstant::at(day, opts.now_hour);

        // Workers with any history, at their last check-in location.
        let candidates: Vec<WorkerId> = self
            .histories
            .iter()
            .filter(|(_, h)| !h.is_empty())
            .map(|(w, _)| w)
            .collect();
        let n_w = n_workers.min(candidates.len());
        let picked = index_sample(&mut rng, candidates.len(), n_w);
        let workers: Vec<Worker> = picked
            .into_iter()
            .map(|i| {
                let id = candidates[i];
                let loc = self
                    .histories
                    .history(id)
                    .last_location()
                    .expect("candidate has history");
                Worker::new(id, loc, opts.radius_km).with_speed(opts.draw_speed(&mut rng))
            })
            .collect();

        // Venues active on the day, else the full venue set.
        let active: Vec<usize> = self
            .venues
            .iter()
            .enumerate()
            .filter(|(_, v)| v.active_days.contains(&day))
            .map(|(i, _)| i)
            .collect();
        let source: Vec<usize> = if active.len() >= n_tasks.min(1) && !active.is_empty() {
            active
        } else {
            (0..self.venues.len()).collect()
        };
        let n_t = n_tasks.min(source.len());
        let picked = index_sample(&mut rng, source.len(), n_t);
        let mut tasks = Vec::with_capacity(n_t);
        let mut task_venues = Vec::with_capacity(n_t);
        for (ti, si) in picked.into_iter().enumerate() {
            let venue = &self.venues[source[si]];
            let published =
                TimeInstant::from_seconds(now.as_seconds() - rng.random_range(0..3_600i64));
            tasks.push(Task::with_categories(
                TaskId::from(ti),
                venue.location,
                published,
                Duration::hours_f64(opts.valid_hours),
                venue.categories.clone(),
            ));
            task_venues.push(venue.id);
        }

        DayInstance {
            instance: Instance::new(now, workers, tasks),
            task_venues,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::SyntheticDataset;
    use crate::io::{write_checkins_tsv, write_edges_tsv};
    use crate::profile::DatasetProfile;

    /// A temp path no other call in this process returns, so tests
    /// running on parallel threads never share a file.
    fn tmp(name: &str) -> std::path::PathBuf {
        use std::sync::atomic::{AtomicUsize, Ordering};
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let call = NEXT.fetch_add(1, Ordering::Relaxed);
        let mut p = std::env::temp_dir();
        p.push(format!("sc_loader_{}_{call}_{name}", std::process::id()));
        p
    }

    /// Round-trip a synthetic dataset through the TSV relations and load
    /// it back — the exact path a real Brightkite dump takes.
    fn roundtrip() -> LoadedDataset {
        let data = SyntheticDataset::generate(&DatasetProfile::brightkite_small(), 17);
        let e = tmp("edges.tsv");
        let c = tmp("checkins.tsv");
        write_edges_tsv(&e, &data.social_edges).unwrap();
        write_checkins_tsv(&c, &data.histories).unwrap();
        let loaded = LoadedDataset::from_tsv(&e, &c, 17).unwrap();
        std::fs::remove_file(&e).ok();
        std::fs::remove_file(&c).ok();
        loaded
    }

    #[test]
    fn loads_population_and_venues() {
        let loaded = roundtrip();
        let profile = DatasetProfile::brightkite_small();
        assert_eq!(loaded.n_workers(), profile.n_workers);
        assert!(!loaded.venues.is_empty());
        assert_eq!(loaded.social.n_workers(), profile.n_workers);
        // Venue ids are sorted and unique.
        for w in loaded.venues.windows(2) {
            assert!(w[0].id < w[1].id);
        }
    }

    #[test]
    fn instances_extract_like_synthetic() {
        let loaded = roundtrip();
        let day = loaded.instance_for_day(3, 60, 50, InstanceOptions::default());
        assert_eq!(day.instance.n_tasks(), 60);
        assert_eq!(day.instance.n_workers(), 50);
        assert_eq!(day.task_venues.len(), 60);
        for (task, vid) in day.instance.tasks.iter().zip(day.task_venues.iter()) {
            let venue = loaded.venues.iter().find(|v| v.id == *vid).unwrap();
            assert_eq!(task.location, venue.location);
        }
    }

    #[test]
    fn pipeline_trains_on_loaded_data() {
        use sc_core::{DitaBuilder, DitaConfig};
        let loaded = roundtrip();
        let pipeline = DitaBuilder::new()
            .config(DitaConfig {
                n_topics: 6,
                lda_sweeps: 10,
                infer_sweeps: 5,
                rpo: sc_influence::RpoParams {
                    max_sets: 3_000,
                    ..Default::default()
                },
                seed: 1,
                ..Default::default()
            })
            .build(&loaded.social, &loaded.histories)
            .unwrap();
        let day = loaded.instance_for_day(0, 40, 30, InstanceOptions::default());
        let (a, _) = pipeline.assign(
            &day.instance,
            Some(&day.task_venues),
            sc_assign::AlgorithmKind::Ia,
        );
        assert!(!a.is_empty());
    }

    #[test]
    fn empty_inputs_are_rejected() {
        let err = LoadedDataset::from_parts(vec![], HistoryStore::default(), 0);
        assert!(err.is_err());
    }

    #[test]
    fn instance_is_deterministic() {
        let loaded = roundtrip();
        let a = loaded.instance_for_day(1, 30, 20, InstanceOptions::default());
        let b = loaded.instance_for_day(1, 30, 20, InstanceOptions::default());
        assert_eq!(a.instance, b.instance);
    }

    /// A tiny hand-built trace: workers 0..=2 check in on days 0 and 1,
    /// worker 3 appears for the first time on day 1, and worker 4 exists
    /// only as a social-graph node (no check-ins at all).
    fn hand_trace() -> LoadedDataset {
        let mut store = HistoryStore::default();
        let mut push = |w: u32, v: u32, x: f64, day: i64, hour: i64| {
            store.push(sc_types::CheckIn::at(
                WorkerId::new(w),
                VenueId::new(v),
                Location::new(x, 0.0),
                TimeInstant::at(day, hour),
                vec![sc_types::CategoryId::new(v % 3)],
            ));
        };
        for day in 0..2i64 {
            push(0, 10, 0.0, day, 8);
            push(1, 10, 0.0, day, 9);
            push(2, 700, 7.0, day, 10); // sparse venue id far from the others
        }
        push(3, 10, 0.0, 1, 11); // mid-stream arrival
        let edges = vec![(0, 1), (1, 2), (2, 3), (3, 4)];
        LoadedDataset::from_parts(edges, store, 5).unwrap()
    }

    #[test]
    fn instance_for_empty_day_falls_back_to_all_venues() {
        let loaded = hand_trace();
        // Day 9 has no check-ins, so no venue is active: the extractor
        // falls back to the full venue set instead of panicking or
        // returning an empty instance.
        let day = loaded.instance_for_day(9, 2, 3, InstanceOptions::default());
        assert_eq!(day.instance.n_tasks(), 2);
        assert!(day.instance.n_workers() > 0);
        for vid in &day.task_venues {
            assert!(loaded.venues.iter().any(|v| v.id == *vid));
        }
    }

    #[test]
    fn sparse_venue_ids_and_historyless_workers_are_handled() {
        let loaded = hand_trace();
        // Venue 700 exists only through worker 2's check-ins; it is
        // reconstructed with its observed location and the venue list
        // stays sorted despite the id gap.
        assert!(loaded.venues.iter().any(|v| v.id == VenueId::new(700)));
        for w in loaded.venues.windows(2) {
            assert!(w[0].id < w[1].id);
        }
        // Worker 4 exists only as a graph node: counted in the
        // population, never sampled into an instance (no history).
        assert_eq!(loaded.n_workers(), 5);
        let day = loaded.instance_for_day(0, 3, 10, InstanceOptions::default());
        assert!(day
            .instance
            .workers
            .iter()
            .all(|w| w.id != WorkerId::new(4)));
    }

    #[test]
    fn training_slice_excludes_mid_stream_workers() {
        let loaded = hand_trace();
        let slice = loaded.training_slice(1).unwrap();
        // Workers 0..=2 trained; 3 (first check-in on day 1) and 4 (no
        // history) are unseen.
        assert_eq!(
            slice.from_dense,
            vec![WorkerId::new(0), WorkerId::new(1), WorkerId::new(2)]
        );
        assert!(!slice.to_dense.contains_key(&WorkerId::new(3)));
        assert_eq!(slice.social.n_workers(), 3);
        // Only the 0-1 and 1-2 friendships survive (both endpoints seen).
        assert_eq!(slice.social.n_edges(), 4);
        // Histories hold exactly the day-0 records, under dense ids.
        assert_eq!(slice.histories.n_workers(), 3);
        assert_eq!(slice.histories.total_checkins(), 3);
        for (w, h) in slice.histories.iter() {
            assert_eq!(h.len(), 1, "one day-0 check-in each");
            assert!(h
                .records()
                .iter()
                .all(|r| r.arrived.day() < 1 && r.worker == w));
        }
    }

    #[test]
    fn training_slice_remaps_ids_consistently() {
        let loaded = hand_trace();
        let slice = loaded.training_slice(1).unwrap();
        for (dense, &trace) in slice.from_dense.iter().enumerate() {
            assert_eq!(slice.to_dense[&trace], WorkerId::from(dense));
            // The dense worker's history is the trace worker's, re-keyed.
            let orig: Vec<_> = loaded
                .histories
                .history(trace)
                .records()
                .iter()
                .filter(|r| r.arrived.day() < 1)
                .map(|r| (r.venue, r.arrived))
                .collect();
            let sliced: Vec<_> = slice
                .histories
                .history(WorkerId::from(dense))
                .records()
                .iter()
                .map(|r| (r.venue, r.arrived))
                .collect();
            assert_eq!(orig, sliced);
        }
    }

    #[test]
    fn training_slice_with_no_prior_history_errors() {
        let loaded = hand_trace();
        let err = loaded.training_slice(0).unwrap_err();
        assert!(err.to_string().contains("before day 0"), "{err}");
    }

    #[test]
    fn pipeline_trains_on_a_training_slice() {
        use sc_core::{DitaBuilder, DitaConfig};
        let loaded = roundtrip();
        let slice = loaded.training_slice(3).unwrap();
        assert!(slice.social.n_workers() > 0);
        let pipeline = DitaBuilder::new()
            .config(DitaConfig {
                n_topics: 4,
                lda_sweeps: 5,
                infer_sweeps: 3,
                rpo: sc_influence::RpoParams {
                    max_sets: 1_000,
                    ..Default::default()
                },
                seed: 2,
                ..Default::default()
            })
            .build(&slice.social, &slice.histories)
            .unwrap();
        assert_eq!(pipeline.model().n_workers(), slice.social.n_workers());
    }
}

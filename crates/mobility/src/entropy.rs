//! Location entropy (paper Section IV-B).
//!
//! `s.e = −Σ_{w ∈ W_s} P_s(w) ln P_s(w)` where `P_s(w)` is the fraction
//! of all visits to the venue of task `s` made by worker `w`. Low entropy
//! means the venue is visited by few distinct workers, and EIA gives such
//! tasks priority (they are at risk of never being performed).

use sc_stats::entropy_from_counts;
use sc_types::{HistoryStore, VenueId};
use std::collections::HashMap;

/// Precomputed location entropy per venue.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LocationEntropy {
    per_venue: HashMap<VenueId, f64>,
}

impl LocationEntropy {
    /// Computes entropies for every venue appearing in the store.
    pub fn from_history(store: &HistoryStore) -> Self {
        // venue -> worker -> visit count
        let mut visits: HashMap<VenueId, HashMap<u32, u32>> = HashMap::new();
        for (worker, history) in store.iter() {
            for record in history.records() {
                *visits
                    .entry(record.venue)
                    .or_default()
                    .entry(worker.raw())
                    .or_insert(0) += 1;
            }
        }
        let per_venue = visits
            // lint:allow(D001, reason = "collected into a hash map again; each venue's counts are sorted before the float sum")
            .into_iter()
            .map(|(venue, by_worker)| {
                // Sorted, so the float sum runs in one order whatever
                // order the hash map yields the counts in.
                // lint:allow(D001, reason = "sorted on the next line, before the float sum")
                let mut counts: Vec<u32> = by_worker.values().copied().collect();
                counts.sort_unstable();
                (venue, entropy_from_counts(&counts))
            })
            .collect();
        LocationEntropy { per_venue }
    }

    /// Entropy of a venue; zero for venues never visited (the most
    /// restricted distribution possible).
    pub fn entropy_of(&self, venue: VenueId) -> f64 {
        self.per_venue.get(&venue).copied().unwrap_or(0.0)
    }

    /// Number of venues with a computed entropy.
    pub fn n_venues(&self) -> usize {
        self.per_venue.len()
    }
}

/// Snapshot serde: the venue map is written as a `(venue, entropy)`
/// list sorted by venue id, so identical tables always produce
/// identical bytes (hash-map iteration order never leaks into a
/// snapshot file).
impl serde::Serialize for LocationEntropy {
    fn to_value(&self) -> serde::json::Value {
        let mut entries: Vec<(u32, f64)> =
            // lint:allow(D001, reason = "sorted by venue id on the next line")
            self.per_venue.iter().map(|(v, &e)| (v.raw(), e)).collect();
        entries.sort_unstable_by_key(|&(v, _)| v);
        entries.to_value()
    }
}

impl serde::Deserialize for LocationEntropy {
    fn from_value(value: &serde::json::Value) -> Result<Self, serde::Error> {
        let entries: Vec<(u32, f64)> = serde::Deserialize::from_value(value)?;
        Ok(LocationEntropy {
            per_venue: entries
                .into_iter()
                .map(|(v, e)| (VenueId::new(v), e))
                .collect(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sc_types::{CheckIn, Location, TimeInstant, WorkerId};

    fn push(store: &mut HistoryStore, worker: u32, venue: u32, t: i64) {
        store.push(CheckIn::at(
            WorkerId::new(worker),
            VenueId::new(venue),
            Location::ORIGIN,
            TimeInstant::from_seconds(t),
            vec![],
        ));
    }

    #[test]
    fn single_visitor_venue_has_zero_entropy() {
        let mut store = HistoryStore::with_workers(2);
        push(&mut store, 0, 0, 1);
        push(&mut store, 0, 0, 2);
        let le = LocationEntropy::from_history(&store);
        assert_eq!(le.entropy_of(VenueId::new(0)), 0.0);
    }

    #[test]
    fn balanced_visitors_maximize_entropy() {
        let mut store = HistoryStore::with_workers(4);
        for w in 0..4 {
            push(&mut store, w, 7, w as i64);
        }
        let le = LocationEntropy::from_history(&store);
        assert!((le.entropy_of(VenueId::new(7)) - (4.0f64).ln()).abs() < 1e-12);
    }

    #[test]
    fn skew_lowers_entropy() {
        let mut balanced = HistoryStore::with_workers(2);
        push(&mut balanced, 0, 0, 1);
        push(&mut balanced, 1, 0, 2);
        let mut skewed = HistoryStore::with_workers(2);
        for t in 0..9 {
            push(&mut skewed, 0, 0, t);
        }
        push(&mut skewed, 1, 0, 10);
        let e_bal = LocationEntropy::from_history(&balanced).entropy_of(VenueId::new(0));
        let e_skew = LocationEntropy::from_history(&skewed).entropy_of(VenueId::new(0));
        assert!(e_bal > e_skew);
    }

    #[test]
    fn unknown_venue_defaults_to_zero() {
        let le = LocationEntropy::from_history(&HistoryStore::with_workers(0));
        assert_eq!(le.entropy_of(VenueId::new(99)), 0.0);
        assert_eq!(le.n_venues(), 0);
    }

    #[test]
    fn entropy_bits_do_not_depend_on_hash_order() {
        // Forty visitors with distinct visit counts: every table built
        // from the store holds the same bits, whatever order its hash
        // map yields the counts in.
        let mut store = HistoryStore::with_workers(40);
        for w in 0..40u32 {
            for t in 0..=w {
                push(&mut store, w, 0, i64::from(w * 100 + t));
            }
        }
        let first = LocationEntropy::from_history(&store).entropy_of(VenueId::new(0));
        for _ in 0..16 {
            let again = LocationEntropy::from_history(&store).entropy_of(VenueId::new(0));
            assert_eq!(again.to_bits(), first.to_bits());
        }
    }

    #[test]
    fn venues_are_independent() {
        let mut store = HistoryStore::with_workers(3);
        push(&mut store, 0, 0, 1); // venue 0: one visitor
        push(&mut store, 0, 1, 2); // venue 1: three visitors
        push(&mut store, 1, 1, 3);
        push(&mut store, 2, 1, 4);
        let le = LocationEntropy::from_history(&store);
        assert_eq!(le.entropy_of(VenueId::new(0)), 0.0);
        assert!((le.entropy_of(VenueId::new(1)) - (3.0f64).ln()).abs() < 1e-12);
        assert_eq!(le.n_venues(), 2);
    }
}

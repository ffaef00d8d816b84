// D001 positive fixture: distinct iteration shapes over hash
// containers. Loaded under a report-affecting path by the test driver;
// never compiled.
use std::collections::{HashMap, HashSet};

struct Index {
    by_worker: HashMap<u32, usize>,
}

fn venue_totals(pairs: &[(u32, f64)]) -> Vec<(u32, f64)> {
    let mut by_venue: HashMap<u32, f64> = HashMap::new();
    for (v, x) in pairs {
        *by_venue.entry(*v).or_insert(0.0) += *x;
    }
    by_venue.into_iter().collect() // line 15: .into_iter()
}

fn max_count(seen: &[u32]) -> usize {
    let mut counts = HashMap::new();
    for s in seen {
        *counts.entry(*s).or_insert(0usize) += 1;
    }
    counts.values().copied().max().unwrap_or(0) // line 23: .values()
}

fn drain_all(mut live: HashSet<u64>) -> Vec<u64> {
    let mut out = Vec::new();
    for id in &live {
        // line 28: for … in &set
        out.push(*id);
    }
    live.drain().collect() // line 32: .drain()
}

impl Index {
    fn report(&self) -> Vec<(u32, usize)> {
        let mut rows = Vec::new();
        for (w, i) in &self.by_worker {
            // line 38: for … in &self.field
            rows.push((*w, *i));
        }
        rows
    }
}

struct Cache {
    inner: Inner,
}

struct Inner {
    map: HashMap<u64, Vec<f64>>,
}

fn extend_all(cache: &mut Cache, x: f64) {
    let inner = &mut cache.inner;
    for (_, entry) in inner.map.iter_mut() {
        // line 56: .iter_mut() through a non-self field path
        entry.push(x);
    }
}

// A map of maps: the location-entropy bug, without the sort.
fn entropies(checkins: &[(u32, u32)]) -> Vec<(u32, f64)> {
    let mut visits: HashMap<u32, HashMap<u32, u32>> = HashMap::new();
    for &(venue, worker) in checkins {
        *visits.entry(venue).or_default().entry(worker).or_insert(0) += 1;
    }
    visits
        // lint:allow(D001, reason = "the outer order is not what this shape tests")
        .into_iter()
        .map(|(venue, by_worker)| {
            let counts: Vec<u32> = by_worker.values().copied().collect(); // line 72
            (venue, entropy_from_counts(&counts))
        })
        .collect()
}

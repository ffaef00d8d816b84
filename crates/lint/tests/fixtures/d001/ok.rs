// D001 negative fixture: hash containers used as pure lookup tables,
// ordered containers iterated freely, and an untracked Vec whose
// methods share names with map iteration.
use std::collections::{BTreeMap, HashMap, HashSet};

struct Cache {
    by_id: HashMap<u32, f64>,
}

fn lookups_are_fine(keys: &[u32]) -> f64 {
    let mut table: HashMap<u32, f64> = HashMap::new();
    for (i, k) in keys.iter().enumerate() {
        table.insert(*k, i as f64);
    }
    let mut seen: HashSet<u32> = HashSet::new();
    seen.insert(7);
    keys.iter()
        .filter(|k| seen.contains(k))
        .map(|k| table.get(k).copied().unwrap_or(0.0))
        .sum()
}

fn ordered_iteration_is_fine(rows: &[(u32, f64)]) -> Vec<(u32, f64)> {
    let mut by_key: BTreeMap<u32, f64> = BTreeMap::new();
    for (k, v) in rows {
        *by_key.entry(*k).or_insert(0.0) += *v;
    }
    by_key.into_iter().collect()
}

impl Cache {
    fn get(&self, id: u32) -> Option<f64> {
        self.by_id.get(&id).copied()
    }
}

// A method named like a hash field is a call, not the field.
fn sorted_ids(cache: &Cache) -> Vec<u32> {
    cache.by_id().iter().copied().collect()
}

//! The pool's worker → sets membership index, maintained in
//! O(rotation quantum) per round.
//!
//! A membership stores a set's **id**, not its live position: live set
//! `j` has id `base + j`, where `base` counts the sets evicted since
//! the index was last compacted. Eviction therefore renumbers nothing.
//! The index has two levels, each one run per worker:
//!
//! * `main` — the index as of the last compaction (or cold start, and
//!   fold-in runs);
//! * `tail` — the sets added since then.
//!
//! The index is never serialized: it is the transpose of the pool's
//! sets, so a restored pool builds it as a cold start does.
//!
//! A worker's ids ascend through its `main` run and on into its `tail`
//! run, so a read ([`MembershipIndex::run`]) sees at most two
//! ascending slices — the same ids, in the same order, as one
//! position-numbered run would hold.
//!
//! * **Evict** — the evicted sets are the oldest live ones, so each
//!   one is the first live id of every run that contains it. Eviction
//!   bumps a per-worker dead count (the dead ids are a prefix of the
//!   worker's `main ++ tail` sequence) and advances `base`:
//!   O(evicted memberships). The counts are allocated at the first
//!   eviction.
//! * **Extend** — the tail is rebuilt at its exact size: its live
//!   entries, then the new sets' memberships scatter-built in set
//!   order, through a counting pass and [`RunArena::with_layout`]:
//!   O(tail + delta). On a cold start the scatter-built arena *is*
//!   `main`.
//! * **Compact** — once dead plus tail memberships exceed a quarter of
//!   the live ones, the dead ids (exactly those below `base`) are
//!   dropped and the rest renumbered by [`RunArena::retain_shift`] in
//!   place, and `tail` is drained into `main` by
//!   [`RunArena::merge_zip`]. These are the two whole-index passes, run
//!   once every few rounds instead of every round; both keep their
//!   `live + O(segment)` transient bound. Renumbering also keeps ids
//!   below 2³² on a long-lived server.
//!
//! Between compactions the index holds at most a quarter of the live
//! memberships (plus one round's quantum) as dead entries and tail,
//! which `bench_scale`'s `live / 8` slack allowance covers: membership
//! is under half of a pool's bytes.

use crate::arena::RunArena;

/// Ids of the live sets containing one worker, as live positions in
/// ascending order ([`MembershipIndex::run`]). Reads at most two
/// slices of the index; iterating folds over each in turn, so a sum
/// over it adds the same terms in the same order as a loop over one
/// slice would.
#[derive(Debug, Clone, Default)]
pub struct SetIds<'a> {
    main: std::slice::Iter<'a, u32>,
    tail: std::slice::Iter<'a, u32>,
    base: u32,
}

impl SetIds<'_> {
    /// True when the worker is in no live set.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl Iterator for SetIds<'_> {
    type Item = u32;

    #[inline]
    fn next(&mut self) -> Option<u32> {
        let base = self.base;
        self.main
            .next()
            .or_else(|| self.tail.next())
            .map(|&id| id - base)
    }

    #[inline]
    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.main.len() + self.tail.len();
        (n, Some(n))
    }

    #[inline]
    fn fold<B, F: FnMut(B, u32) -> B>(self, init: B, mut f: F) -> B {
        let base = self.base;
        let acc = self.main.fold(init, |acc, &id| f(acc, id - base));
        self.tail.fold(acc, |acc, &id| f(acc, id - base))
    }
}

impl ExactSizeIterator for SetIds<'_> {}

/// The two-level worker → sets index (see the [module docs](self)).
#[derive(Debug, Clone, Default)]
pub struct MembershipIndex {
    /// Run `w`: ascending ids of the sets containing worker `w`, as of
    /// the last compaction. No runs until the first sets are indexed.
    main: RunArena,
    /// Run `w`: ascending ids of the sets added since the last
    /// compaction, all above worker `w`'s `main` ids. Either no runs or
    /// one per worker.
    tail: RunArena,
    /// Id of live set 0.
    base: u32,
    /// Per worker, the dead ids at the front of its `main ++ tail`
    /// sequence. Empty until the first eviction.
    dead: Vec<u32>,
    /// Sum of `dead`.
    n_dead: usize,
}

impl MembershipIndex {
    /// Workers indexed (0 until the first sets are indexed).
    #[inline]
    pub fn n_runs(&self) -> usize {
        self.main.n_runs()
    }

    /// Live memberships (dead entries awaiting compaction excluded).
    #[inline]
    pub fn len(&self) -> usize {
        self.main.len() + self.tail.len() - self.n_dead
    }

    /// True when no live membership is indexed.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// True when the index is one level with no dead entries: right
    /// after a cold start, a restore, or a compaction.
    pub fn is_compact(&self) -> bool {
        self.n_dead == 0 && self.tail.is_empty()
    }

    /// The live sets containing `worker`, ascending.
    ///
    /// # Panics
    /// When `worker` is not indexed.
    #[inline]
    pub fn run(&self, worker: usize) -> SetIds<'_> {
        let (main, tail) = self.live_parts(worker);
        SetIds {
            main: main.iter(),
            tail: tail.iter(),
            base: self.base,
        }
    }

    /// The live parts of `worker`'s `main` and `tail` runs.
    fn live_parts(&self, worker: usize) -> (&[u32], &[u32]) {
        let dead = self.dead.get(worker).map_or(0, |&d| d as usize);
        let main = self.main.run(worker);
        let cut = dead.min(main.len());
        let tail = if self.tail.is_empty() {
            &[][..]
        } else {
            &self.tail.run(worker)[dead - cut..]
        };
        (&main[cut..], tail)
    }

    /// Allocated bytes: both levels and the dead counts.
    pub(crate) fn capacity_bytes(&self) -> usize {
        4 * (self.main.capacity_elems() + self.tail.capacity_elems() + self.dead.capacity())
    }

    /// Indexes sets `[first_new, sets.n_runs())` of the set arena for
    /// `n_workers` workers, compacting first if due. Returns the
    /// index's peak allocated bytes during the call.
    pub(crate) fn extend(&mut self, sets: &RunArena, first_new: usize, n_workers: usize) -> usize {
        let compact_peak = self.compact_if_due();
        compact_peak.max(self.append(sets, first_new, n_workers))
    }

    /// [`MembershipIndex::extend`] without the compaction check: the
    /// scatter-built arena becomes `main` on a cold start and the
    /// rebuilt `tail` otherwise.
    fn append(&mut self, sets: &RunArena, first_new: usize, n_workers: usize) -> usize {
        let cold = self.main.is_empty();
        // Counting pass: each worker's live tail entries, then its new
        // memberships.
        let mut lens = vec![0u32; n_workers];
        if !cold && !self.tail.is_empty() {
            for (w, len) in lens.iter_mut().enumerate() {
                *len = self.live_parts(w).1.len() as u32;
            }
        }
        sets.for_each_run_from(first_new, |_, run| {
            for &w in run {
                lens[w as usize] += 1;
            }
        });
        let (mut built, mut cursors) = RunArena::with_layout(&lens);
        let scratch =
            4 * (built.capacity_elems() + lens.capacity()) + std::mem::size_of_val(&cursors[..]);
        drop(lens);
        if !cold && !self.tail.is_empty() {
            for (w, cursor) in cursors.iter_mut().enumerate() {
                for &id in self.live_parts(w).1 {
                    built.poke(cursor, id);
                }
            }
            // The rebuilt tail holds no dead entries: what stays dead
            // is each worker's dead `main` prefix.
            self.n_dead = 0;
            for (w, d) in self.dead.iter_mut().enumerate() {
                *d = (*d).min(self.main.run(w).len() as u32);
                self.n_dead += *d as usize;
            }
        }
        let base = self.base;
        sets.for_each_run_from(first_new, |j, run| {
            for &w in run {
                built.poke(&mut cursors[w as usize], base + j as u32);
            }
        });
        drop(cursors);
        let peak = self.capacity_bytes() + scratch;
        if cold {
            self.main = built;
        } else {
            self.tail = built;
        }
        peak.max(self.capacity_bytes())
    }

    /// Retires the oldest `k` live sets (`sets` still holds them),
    /// compacting if due. Returns the index's peak allocated bytes
    /// during the call.
    pub(crate) fn evict(&mut self, sets: &RunArena, k: usize) -> usize {
        self.retire(sets, k);
        self.capacity_bytes().max(self.compact_if_due())
    }

    /// Marks the memberships of the oldest `k` live sets dead and
    /// advances the base.
    fn retire(&mut self, sets: &RunArena, k: usize) {
        if self.dead.is_empty() {
            self.dead = vec![0; self.main.n_runs()];
        }
        for j in 0..k {
            let run = sets.run(j);
            for &w in run {
                self.dead[w as usize] += 1;
            }
            self.n_dead += run.len();
        }
        self.base += k as u32;
    }

    /// Adds the run of a folded-in worker (id `n_runs` once earlier
    /// workers are indexed): its `joined` live set positions, ascending,
    /// go into `main`, next to an empty `tail` run. A pool that never
    /// indexed any sets materializes the older workers' empty runs
    /// first, so run `w` stays worker `w`.
    pub(crate) fn push_worker(&mut self, worker: usize, joined: &[u32]) {
        for _ in self.main.n_runs()..worker {
            self.main.push_run(&[]);
        }
        let ids: Vec<u32> = joined.iter().map(|&j| self.base + j).collect();
        self.main.push_run(&ids);
        if !self.tail.is_empty() {
            self.tail.push_run(&[]);
        }
        if !self.dead.is_empty() {
            self.dead.push(0);
        }
    }

    /// Compacts when dead plus tail memberships exceed a quarter of the
    /// live ones (module docs). Returns the index's peak allocated
    /// bytes during the call.
    fn compact_if_due(&mut self) -> usize {
        if 4 * (self.n_dead + self.tail.len()) <= self.len() {
            return self.capacity_bytes();
        }
        if self.base > 0 {
            self.main.retain_shift(self.base);
            self.tail.retain_shift(self.base);
            self.base = 0;
        }
        self.dead.fill(0);
        self.n_dead = 0;
        if self.tail.is_empty() {
            return self.capacity_bytes();
        }
        let main = std::mem::take(&mut self.main);
        let tail = std::mem::take(&mut self.tail);
        let (merged, op_peak) = RunArena::merge_zip(main, tail);
        self.main = merged;
        4 * (op_peak + self.dead.capacity())
    }
}

/// Logical equality: the same live sets per worker, however the two
/// levels, `base` and the dead counts happen to split them.
impl PartialEq for MembershipIndex {
    fn eq(&self, other: &Self) -> bool {
        self.n_runs() == other.n_runs()
            && self.len() == other.len()
            && (0..self.n_runs()).all(|w| self.run(w).eq(other.run(w)))
    }
}

impl Eq for MembershipIndex {}

#[cfg(test)]
mod tests {
    use super::*;

    /// A set arena from explicit member lists.
    fn arena(sets: &[&[u32]]) -> RunArena {
        let mut a = RunArena::new();
        for set in sets {
            a.push_run(set);
        }
        a
    }

    /// Worker `w`'s live sets as positions, read off the set arena
    /// from position `from` on — the oracle every read must match.
    fn oracle(sets: &RunArena, from: usize, n_workers: usize) -> Vec<Vec<u32>> {
        let mut runs = vec![Vec::new(); n_workers];
        sets.for_each_run_from(from, |j, run| {
            for &w in run {
                runs[w as usize].push((j - from) as u32);
            }
        });
        runs
    }

    fn reads(index: &MembershipIndex) -> Vec<Vec<u32>> {
        (0..index.n_runs())
            .map(|w| index.run(w).collect())
            .collect()
    }

    /// Eight sets over four workers: four indexed at cold start into
    /// `main`, four more into `tail`.
    fn two_level_index() -> (RunArena, MembershipIndex) {
        let sets = arena(&[
            &[0, 1],
            &[1],
            &[2, 0],
            &[3],
            &[1, 3],
            &[0],
            &[2, 1, 3],
            &[3, 0],
        ]);
        let mut index = MembershipIndex::default();
        let cold = arena(&[&[0, 1], &[1], &[2, 0], &[3]]);
        index.extend(&cold, 0, 4);
        index.extend(&sets, 4, 4);
        assert_eq!((index.main.len(), index.tail.len()), (6, 8));
        assert_eq!(reads(&index), oracle(&sets, 0, 4));
        (sets, index)
    }

    #[test]
    fn eviction_across_the_main_tail_boundary() {
        let (sets, mut index) = two_level_index();
        // Sets 0..6: every main run is used up, and workers 0, 1 and 3
        // lose tail entries too.
        index.retire(&sets, 6);
        assert_eq!(index.base, 6);
        assert_eq!(index.dead, vec![3, 3, 1, 2]);
        assert_eq!(index.len(), 5);
        assert_eq!(reads(&index), oracle(&sets, 6, 4));
        // The tail rebuild (forced here: the check would compact
        // first) drops the dead tail entries and keeps the reads intact.
        // The set arena holds live sets only, as the pool's does after
        // its own eviction.
        let mut live = arena(&[]);
        sets.for_each_run_from(6, |_, r| live.push_run(r));
        live.push_run(&[2]);
        index.append(&live, 2, 4);
        assert_eq!(index.tail.len(), 6, "5 live tail entries, then 1 new");
        assert_eq!(index.dead, vec![2, 2, 1, 1]);
        assert_eq!(reads(&index), oracle(&live, 0, 4));
    }

    #[test]
    fn compaction_renumbers_to_live_positions() {
        let (sets, mut index) = two_level_index();
        index.retire(&sets, 3);
        assert!(!index.is_compact());
        let live_before = reads(&index);
        index.compact_if_due();
        assert!(index.is_compact(), "5 dead + 8 tail against 9 live is due");
        assert_eq!((index.base, index.n_dead), (0, 0));
        assert!(index.tail.is_empty());
        // Ids are live positions again, stored in one level.
        let stored: Vec<Vec<u32>> = (0..4).map(|w| index.main.run(w).to_vec()).collect();
        assert_eq!(stored, live_before);
        assert_eq!(reads(&index), oracle(&sets, 3, 4));
    }
}

//! Chunked arenas of `u32` runs — the pool's memory substrate.
//!
//! A [`RunArena`] stores a sequence of *runs* (variable-length `u32`
//! slices: one RRR set, or one worker's membership list) in
//! fixed-capacity **segments** instead of one contiguous `Vec`. Runs
//! never span segments, so `run(j)` still returns a plain `&[u32]`;
//! the price is one binary search over the segments.
//!
//! The segmented layout exists for exactly one reason: **bounded
//! transients**. Every way a million-worker pool changes shape is a
//! whole-segment operation that never holds two copies of the live
//! data:
//!
//! * **growth** — each block of freshly sampled sets is its own
//!   exactly-sized mini-`RunArena` (`RunArena::from_runs`) whose
//!   segments are [adopted](RunArena::absorb) zero-copy, so a cold
//!   start's splice costs `O(#segments)` pointer moves instead of a
//!   doubling-`Vec` copy of the whole arena;
//! * **prefix eviction** — [`RunArena::evict_front`] drops dead
//!   segments and advances a cursor inside the boundary segment
//!   (dead bytes are bounded by one segment, ~[`SEG_BYTES`]);
//! * **filtered compaction** — [`RunArena::retain_shift`] rewrites
//!   each segment in place through a write cursor (the membership
//!   re-index after eviction), allocating nothing;
//! * **merges** — [`RunArena::merge_zip`] and
//!   [`RunArena::append_one_to_runs`] drain their sources
//!   front-to-back, freeing each source segment as soon as its last
//!   run is consumed, so the instantaneous footprint is
//!   `live + O(segment)` rather than `2 × live`.
//!
//! Capacity accounting ([`RunArena::capacity_elems`]) is deterministic
//! (it sums requested `Vec` capacities, which do not depend on the
//! allocator), which is what lets `bench_scale` gate peak-memory
//! regressions with exact runtime assertions instead of flaky RSS
//! thresholds.

/// Elements (`u32`s) per segment: 1 Mi elements = 4 MiB. Large enough
/// that a million-worker membership index needs only tens of segments
/// (binary search stays shallow), small enough that per-segment slack
/// and eviction debris are noise against the live data.
pub const SEG_ELEMS: usize = 1 << 20;

/// Bytes per full segment (the transient-slack unit quoted in docs and
/// asserted in `bench_scale`).
pub const SEG_BYTES: usize = SEG_ELEMS * 4;

/// Cap on runs per segment, so an arena of mostly-empty runs (e.g. a
/// membership delta touching few workers) still seals segments and
/// keeps the per-segment `ends` vector bounded.
const MAX_RUNS_PER_SEG: usize = SEG_ELEMS;

/// One segment: a block of run data plus the local end offset of each
/// run it holds. Run `i` (local) spans `data[ends[i-1]..ends[i]]`
/// (`data[0..ends[0]]` for `i = 0`).
#[derive(Debug, Clone, Default)]
struct Segment {
    data: Vec<u32>,
    ends: Vec<u32>,
    /// Local index of the first *live* run: runs before it were
    /// evicted (their bytes are dead but their `ends` entries keep the
    /// live tail addressable).
    live_from: u32,
    /// Arena-global index of the first live run in this segment.
    first_run: usize,
}

impl Segment {
    #[inline]
    fn live_runs(&self) -> usize {
        self.ends.len() - self.live_from as usize
    }

    /// Start offset (into `data`) of the first live run.
    #[inline]
    fn live_start(&self) -> usize {
        if self.live_from == 0 {
            0
        } else {
            self.ends[self.live_from as usize - 1] as usize
        }
    }

    #[inline]
    fn run_bounds(&self, local: usize) -> (usize, usize) {
        let lo = if local == 0 {
            0
        } else {
            self.ends[local - 1] as usize
        };
        (lo, self.ends[local] as usize)
    }
}

/// A write cursor into a [`RunArena::with_layout`] arena: the next
/// element slot of one run, used by counting-sort scatter fills.
#[derive(Debug, Clone, Copy)]
pub struct RunCursor {
    seg: u32,
    off: u32,
}

/// A chunked arena of `u32` runs. See the [module docs](self).
#[derive(Debug, Clone, Default)]
pub struct RunArena {
    segs: Vec<Segment>,
    n_runs: usize,
    /// Live elements (dead eviction debris excluded).
    len: usize,
}

impl RunArena {
    /// An empty arena (allocates nothing).
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of live runs.
    #[inline]
    pub fn n_runs(&self) -> usize {
        self.n_runs
    }

    /// Total live elements across all runs.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the arena holds no runs.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.n_runs == 0
    }

    /// Sum of allocated capacities in elements (`data` + `ends` of
    /// every segment). Deterministic: `Vec` capacities depend only on
    /// the request sequence, never on the allocator.
    pub fn capacity_elems(&self) -> usize {
        self.segs
            .iter()
            .map(|s| s.data.capacity() + s.ends.capacity())
            .sum()
    }

    /// Allocated bytes (see [`RunArena::capacity_elems`]).
    #[inline]
    pub fn capacity_bytes(&self) -> usize {
        self.capacity_elems() * 4
    }

    /// Ensures the tail segment can hold `need` more elements plus one
    /// more run, sealing it and opening a new segment otherwise.
    fn reserve_run(&mut self, need: usize) {
        let open = match self.segs.last() {
            Some(s) => s.data.len() + need <= s.data.capacity() && s.ends.len() < MAX_RUNS_PER_SEG,
            None => false,
        };
        if !open {
            self.seal();
            self.segs.push(Segment {
                data: Vec::with_capacity(need.max(SEG_ELEMS)),
                ends: Vec::new(),
                live_from: 0,
                first_run: self.n_runs,
            });
        }
    }

    /// Shrinks the tail segment to its exact length. Called
    /// automatically when a segment fills, and once more by builders
    /// that are done pushing, so the arena carries no slack.
    pub fn seal(&mut self) {
        if let Some(s) = self.segs.last_mut() {
            s.data.shrink_to_fit();
            s.ends.shrink_to_fit();
        }
    }

    /// Appends one run.
    pub fn push_run(&mut self, run: &[u32]) {
        self.push_run_concat(run, &[]);
    }

    /// Appends one run formed by concatenating two slices (merges use
    /// this to join a base run and a delta run without a scratch
    /// buffer).
    pub fn push_run_concat(&mut self, head: &[u32], tail: &[u32]) {
        self.reserve_run(head.len() + tail.len());
        let seg = self.segs.last_mut().expect("reserve_run opened a segment");
        seg.data.extend_from_slice(head);
        seg.data.extend_from_slice(tail);
        seg.ends.push(seg.data.len() as u32);
        self.n_runs += 1;
        self.len += head.len() + tail.len();
    }

    /// Adopts every segment of `other` (zero-copy): shard outputs
    /// *become* arena segments. `other` must have no evicted prefix.
    pub fn absorb(&mut self, mut other: RunArena) {
        for s in &mut other.segs {
            debug_assert_eq!(s.live_from, 0, "absorb of an evicted arena");
            s.first_run += self.n_runs;
        }
        self.n_runs += other.n_runs;
        self.len += other.len;
        self.segs.append(&mut other.segs);
    }

    /// Segment index holding live run `j`. Panics when `j` is out of
    /// range (a silent wrong-segment read would corrupt every
    /// estimator).
    #[inline]
    fn seg_of(&self, j: usize) -> usize {
        assert!(j < self.n_runs, "run {j} out of range ({})", self.n_runs);
        self.segs.partition_point(|s| s.first_run <= j) - 1
    }

    /// Live run `j` as a slice.
    #[inline]
    pub fn run(&self, j: usize) -> &[u32] {
        let s = &self.segs[self.seg_of(j)];
        let local = s.live_from as usize + (j - s.first_run);
        let (lo, hi) = s.run_bounds(local);
        &s.data[lo..hi]
    }

    /// Calls `f(j, run_j)` for every live run in order.
    #[inline]
    pub fn for_each_run(&self, f: impl FnMut(usize, &[u32])) {
        self.for_each_run_from(0, f);
    }

    /// Calls `f(j, run_j)` for every live run `j >= from` in order —
    /// one binary search total, then sequential segment walks.
    pub fn for_each_run_from(&self, from: usize, mut f: impl FnMut(usize, &[u32])) {
        if from >= self.n_runs {
            return;
        }
        let mut j = from;
        for si in self.seg_of(from)..self.segs.len() {
            let s = &self.segs[si];
            let mut local = s.live_from as usize + (j - s.first_run);
            let mut lo = s.run_bounds(local).0;
            while local < s.ends.len() {
                let hi = s.ends[local] as usize;
                f(j, &s.data[lo..hi]);
                j += 1;
                local += 1;
                lo = hi;
            }
        }
        debug_assert_eq!(j, self.n_runs);
    }

    /// Drops the first `k` runs in place and renumbers the survivors
    /// down by `k`. Fully-dead segments are freed outright; the
    /// boundary segment keeps its dead prefix (bounded by one segment)
    /// behind an advanced `live_from` cursor. Returns the number of
    /// elements evicted. No allocation, no copying.
    pub fn evict_front(&mut self, k: usize) -> usize {
        assert!(k <= self.n_runs, "evicting {k} of {} runs", self.n_runs);
        if k == 0 {
            return 0;
        }
        let mut removed = 0usize;
        let mut rem = k;
        let mut drop_to = 0usize;
        for s in self.segs.iter_mut() {
            if rem == 0 {
                break;
            }
            let live = s.live_runs();
            let start = s.live_start();
            if live <= rem {
                removed += *s.ends.last().expect("segments hold >= 1 run") as usize - start;
                rem -= live;
                drop_to += 1;
            } else {
                let new_from = s.live_from as usize + rem;
                removed += s.ends[new_from - 1] as usize - start;
                s.live_from = new_from as u32;
                rem = 0;
            }
        }
        self.segs.drain(..drop_to);
        for s in &mut self.segs {
            s.first_run = s.first_run.saturating_sub(k);
        }
        self.n_runs -= k;
        self.len -= removed;
        removed
    }

    /// In-place filtered compaction: keeps only elements `>= cut` in
    /// every run, shifted down by `cut`. This is the membership
    /// re-index after a prefix eviction of `cut` sets (runs are sorted,
    /// so the dropped elements are each run's prefix); it rewrites each
    /// segment through a write cursor and **allocates nothing**.
    pub fn retain_shift(&mut self, cut: u32) {
        let mut removed = 0usize;
        for s in &mut self.segs {
            debug_assert_eq!(s.live_from, 0, "retain_shift on an evicted arena");
            let mut w = 0usize;
            let mut lo = 0usize;
            for i in 0..s.ends.len() {
                let hi = s.ends[i] as usize;
                for r in lo..hi {
                    let x = s.data[r];
                    if x >= cut {
                        s.data[w] = x - cut;
                        w += 1;
                    }
                }
                s.ends[i] = w as u32;
                lo = hi;
            }
            removed += s.data.len() - w;
            s.data.truncate(w);
        }
        self.len -= removed;
    }

    /// Builds an arena with the exact segment layout for runs of the
    /// given lengths — every `data` vector allocated at its final size
    /// (zero-filled), every `ends` vector exact — plus one write
    /// cursor per run for scatter fills via [`RunArena::poke`].
    pub fn with_layout(run_lens: &[u32]) -> (RunArena, Vec<RunCursor>) {
        let mut arena = RunArena::new();
        let mut cursors = Vec::with_capacity(run_lens.len());
        // Plan segment boundaries: greedy fill to SEG_ELEMS, run-count
        // capped; an oversized run gets a dedicated segment.
        let mut plans: Vec<(usize, usize, usize)> = Vec::new(); // (run_lo, run_hi, elems)
        let (mut lo, mut elems) = (0usize, 0usize);
        for (j, &l) in run_lens.iter().enumerate() {
            let l = l as usize;
            if j > lo && (elems + l > SEG_ELEMS || j - lo >= MAX_RUNS_PER_SEG) {
                plans.push((lo, j, elems));
                lo = j;
                elems = 0;
            }
            elems += l;
        }
        if run_lens.len() > lo {
            plans.push((lo, run_lens.len(), elems));
        }
        for (si, &(rlo, rhi, seg_elems)) in plans.iter().enumerate() {
            let mut ends = Vec::with_capacity(rhi - rlo);
            let mut off = 0u32;
            for &l in &run_lens[rlo..rhi] {
                cursors.push(RunCursor {
                    seg: si as u32,
                    off,
                });
                off += l;
                ends.push(off);
            }
            arena.segs.push(Segment {
                data: vec![0u32; seg_elems],
                ends,
                live_from: 0,
                first_run: rlo,
            });
            arena.len += seg_elems;
        }
        arena.n_runs = run_lens.len();
        (arena, cursors)
    }

    /// Copies runs stored back to back in `data` (run `j` holds
    /// `run_lens[j]` elements) into an exactly-sized arena segmented
    /// like [`RunArena::with_layout`]. Unlike [`RunArena::push_run`], it
    /// never reserves a whole segment, so a small batch of runs costs
    /// its own size.
    pub(crate) fn from_runs(data: &[u32], run_lens: &[u32]) -> RunArena {
        let (mut arena, _) = RunArena::with_layout(run_lens);
        let mut at = 0;
        for s in &mut arena.segs {
            let n = s.data.len();
            s.data.copy_from_slice(&data[at..at + n]);
            at += n;
        }
        debug_assert_eq!(at, data.len(), "run lengths do not cover the data");
        arena
    }

    /// Writes the next element of a [`RunArena::with_layout`] run and
    /// advances its cursor.
    #[inline]
    pub fn poke(&mut self, cursor: &mut RunCursor, value: u32) {
        self.segs[cursor.seg as usize].data[cursor.off as usize] = value;
        cursor.off += 1;
    }

    /// Frees the cursor's segment buffers once fully consumed,
    /// advancing to the next segment. Returns how many elements of
    /// capacity were released.
    fn free_consumed(&mut self, cur: &mut DrainCursor) -> usize {
        let mut freed = 0;
        while cur.seg < self.segs.len() && cur.run >= self.segs[cur.seg].ends.len() {
            let s = &mut self.segs[cur.seg];
            freed += s.data.capacity() + s.ends.capacity();
            s.data = Vec::new();
            s.ends = Vec::new();
            cur.seg += 1;
            cur.run = 0;
            cur.lo = 0;
        }
        freed
    }

    /// Zips two arenas with equal run counts into one: output run `j`
    /// is `a.run(j) ++ b.run(j)` (the membership merge: base ids then
    /// strictly-larger delta ids keeps runs sorted). Sources are
    /// **drained**: each source segment is freed the moment its last
    /// run is consumed, so the instantaneous capacity is
    /// `|a| + |b| + O(segment)` — never two live copies. Returns the
    /// merged arena and the peak capacity (elements) observed across
    /// all three arenas during the merge.
    pub fn merge_zip(a: RunArena, b: RunArena) -> (RunArena, usize) {
        assert_eq!(a.n_runs, b.n_runs, "merge_zip run-count mismatch");
        let (mut a, mut b) = (a, b);
        let n = a.n_runs;
        let mut out = RunArena::new();
        let mut cap = a.capacity_elems() + b.capacity_elems();
        let mut peak = cap;
        let mut out_segs = 0usize;
        let (mut ca, mut cb) = (DrainCursor::default(), DrainCursor::default());
        for _ in 0..n {
            let ra = ca.next(&a);
            let rb = cb.next(&b);
            out.push_run_concat(ra, rb);
            if out.segs.len() != out_segs {
                // A fresh output segment was allocated: re-gauge. Peaks
                // only move on allocation, so this checkpoint set is
                // exact up to intra-segment `ends` doubling.
                out_segs = out.segs.len();
                peak = peak.max(cap + out.capacity_elems());
            }
            cap -= a.free_consumed(&mut ca);
            cap -= b.free_consumed(&mut cb);
        }
        out.seal();
        (out, peak)
    }

    /// Rebuilds the arena appending `value` to each run whose index is
    /// in `at` (ascending) — the fold-in splice that pushes a new
    /// worker onto the tail of every set it joined. Drains `self`
    /// segment-by-segment like [`RunArena::merge_zip`]; returns the
    /// rebuilt arena and the peak capacity (elements) during the
    /// rebuild.
    pub fn append_one_to_runs(self, at: &[u32], value: u32) -> (RunArena, usize) {
        let mut src = self;
        let n = src.n_runs;
        let mut out = RunArena::new();
        let mut cap = src.capacity_elems();
        let mut peak = cap;
        let mut out_segs = 0usize;
        let mut cur = DrainCursor::default();
        let mut ai = 0usize;
        for j in 0..n {
            let r = cur.next(&src);
            if ai < at.len() && at[ai] as usize == j {
                out.push_run_concat(r, &[value]);
                ai += 1;
            } else {
                out.push_run(r);
            }
            if out.segs.len() != out_segs {
                out_segs = out.segs.len();
                peak = peak.max(cap + out.capacity_elems());
            }
            cap -= src.free_consumed(&mut cur);
        }
        debug_assert_eq!(ai, at.len(), "append index out of range");
        out.seal();
        (out, peak)
    }
}

/// Snapshot serde: like [`PartialEq`], the wire form is *logical* —
/// the flat element stream plus cumulative run ends, with no trace of
/// segmentation or eviction debris. A restored arena re-segments
/// through [`RunArena::push_run`], so it compares equal to (and reads
/// identically to) the original even though the segment layout may
/// differ.
impl serde::Serialize for RunArena {
    fn to_value(&self) -> serde::json::Value {
        let mut data: Vec<u32> = Vec::with_capacity(self.len);
        let mut ends: Vec<u32> = Vec::with_capacity(self.n_runs);
        self.for_each_run(|_, run| {
            data.extend_from_slice(run);
            ends.push(data.len() as u32);
        });
        serde::json::Value::Object(vec![
            ("data".to_string(), data.to_value()),
            ("ends".to_string(), ends.to_value()),
        ])
    }
}

impl serde::Deserialize for RunArena {
    fn from_value(value: &serde::json::Value) -> Result<Self, serde::Error> {
        let obj = value
            .as_object()
            .ok_or_else(|| serde::Error::expected("run-arena object", value))?;
        let data: Vec<u32> = serde::get_field(obj, "data")?;
        let ends: Vec<u32> = serde::get_field(obj, "ends")?;
        let mut arena = RunArena::new();
        let mut lo = 0usize;
        for &end in &ends {
            let hi = end as usize;
            if hi < lo || hi > data.len() {
                return Err(serde::Error::custom(format!(
                    "run-arena ends not monotone within data ({hi} after {lo}, len {})",
                    data.len()
                )));
            }
            arena.push_run(&data[lo..hi]);
            lo = hi;
        }
        if lo != data.len() {
            return Err(serde::Error::custom(format!(
                "run-arena data has {} trailing elements past the last run",
                data.len() - lo
            )));
        }
        arena.seal();
        Ok(arena)
    }
}

/// Logical equality: same run sequence, regardless of segment layout
/// (a grown arena and a from-scratch arena segment differently but
/// hold identical runs).
impl PartialEq for RunArena {
    fn eq(&self, other: &Self) -> bool {
        if self.n_runs != other.n_runs || self.len != other.len {
            return false;
        }
        let mut equal = true;
        self.for_each_run(|j, run| equal &= other.run(j) == run);
        equal
    }
}

impl Eq for RunArena {}

/// Front-to-back read cursor used by the draining merges.
#[derive(Debug, Default, Clone, Copy)]
struct DrainCursor {
    seg: usize,
    run: usize,
    lo: usize,
    started: bool,
}

impl DrainCursor {
    /// Next run in arena order. Caller must not read past the last run.
    fn next<'a>(&mut self, arena: &'a RunArena) -> &'a [u32] {
        if !self.started {
            // Only the head segment can carry an evicted (dead) prefix —
            // `evict_front` frees fully-dead segments outright — so the
            // cursor starts at its `live_from` position; every later
            // segment starts at 0.
            self.started = true;
            if let Some(s) = arena.segs.first() {
                self.run = s.live_from as usize;
                self.lo = s.live_start();
            }
        }
        while self.run >= arena.segs[self.seg].ends.len() {
            self.seg += 1;
            self.run = 0;
            self.lo = 0;
            debug_assert_eq!(
                arena.segs[self.seg].live_from, 0,
                "evicted prefix past the head segment"
            );
        }
        let s = &arena.segs[self.seg];
        let hi = s.ends[self.run] as usize;
        let r = &s.data[self.lo..hi];
        self.lo = hi;
        self.run += 1;
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn collect(a: &RunArena) -> Vec<Vec<u32>> {
        let mut out = Vec::new();
        a.for_each_run(|_, r| out.push(r.to_vec()));
        out
    }

    #[test]
    fn push_and_read_roundtrip() {
        let mut a = RunArena::new();
        a.push_run(&[1, 2, 3]);
        a.push_run(&[]);
        a.push_run(&[7]);
        assert_eq!(a.n_runs(), 3);
        assert_eq!(a.len(), 4);
        assert_eq!(a.run(0), &[1, 2, 3]);
        assert_eq!(a.run(1), &[] as &[u32]);
        assert_eq!(a.run(2), &[7]);
        assert_eq!(collect(&a), vec![vec![1, 2, 3], vec![], vec![7]]);
    }

    #[test]
    fn runs_never_span_segments() {
        // Runs of 600k elements: two can't share a 1M-element segment.
        let big: Vec<u32> = (0..600_000).collect();
        let mut a = RunArena::new();
        a.push_run(&big);
        a.push_run(&big);
        a.push_run(&[9]);
        assert_eq!(a.run(0), &big[..]);
        assert_eq!(a.run(1), &big[..]);
        assert_eq!(a.run(2), &[9]);
        assert_eq!(a.len(), 1_200_001);
    }

    #[test]
    fn oversized_run_gets_dedicated_segment() {
        let huge: Vec<u32> = (0..SEG_ELEMS as u32 + 17).collect();
        let mut a = RunArena::new();
        a.push_run(&[1]);
        a.push_run(&huge);
        a.push_run(&[2]);
        assert_eq!(a.run(1), &huge[..]);
        assert_eq!(a.run(2), &[2]);
    }

    #[test]
    fn absorb_adopts_segments_zero_copy() {
        let mut a = RunArena::new();
        a.push_run(&[1, 2]);
        let mut b = RunArena::new();
        b.push_run(&[3]);
        b.push_run(&[4, 5]);
        b.seal();
        a.absorb(b);
        assert_eq!(collect(&a), vec![vec![1, 2], vec![3], vec![4, 5]]);
        assert_eq!(a.len(), 5);
    }

    #[test]
    fn evict_front_drops_and_renumbers() {
        let mut a = RunArena::new();
        for j in 0..10u32 {
            a.push_run(&[j, j + 100]);
        }
        let removed = a.evict_front(4);
        assert_eq!(removed, 8);
        assert_eq!(a.n_runs(), 6);
        assert_eq!(a.len(), 12);
        assert_eq!(a.run(0), &[4, 104]);
        assert_eq!(a.run(5), &[9, 109]);
        // Evict across an absorb boundary too.
        let mut tail = RunArena::new();
        tail.push_run(&[42]);
        a.absorb(tail);
        a.evict_front(6);
        assert_eq!(a.n_runs(), 1);
        assert_eq!(a.run(0), &[42]);
        a.evict_front(1);
        assert!(a.is_empty());
        assert_eq!(a.len(), 0);
    }

    #[test]
    fn eviction_then_growth_keeps_addressing() {
        let mut a = RunArena::new();
        for j in 0..5u32 {
            a.push_run(&[j]);
        }
        a.evict_front(2);
        a.push_run(&[99]);
        assert_eq!(collect(&a), vec![vec![2], vec![3], vec![4], vec![99]]);
    }

    #[test]
    fn retain_shift_compacts_in_place() {
        let mut a = RunArena::new();
        a.push_run(&[0, 1, 5, 9]);
        a.push_run(&[2, 3]);
        a.push_run(&[]);
        a.push_run(&[7, 8]);
        let cap_before = a.capacity_elems();
        a.retain_shift(4);
        assert_eq!(
            collect(&a),
            vec![vec![1, 5], vec![], vec![], vec![3, 4]],
            "keeps >= 4, shifted down by 4"
        );
        assert_eq!(a.len(), 4);
        assert!(a.capacity_elems() <= cap_before, "no allocation");
    }

    #[test]
    fn merge_zip_concatenates_runs() {
        let mut a = RunArena::new();
        a.push_run(&[1, 2]);
        a.push_run(&[]);
        a.push_run(&[5]);
        let mut b = RunArena::new();
        b.push_run(&[10]);
        b.push_run(&[11, 12]);
        b.push_run(&[]);
        let (m, peak) = RunArena::merge_zip(a, b);
        assert_eq!(collect(&m), vec![vec![1, 2, 10], vec![11, 12], vec![5]]);
        assert!(peak > 0);
    }

    #[test]
    fn merge_zip_frees_sources_progressively() {
        // Many segments on each side: the peak must stay well below
        // source + full output (≈ 2× live), because consumed source
        // segments are freed as the output grows.
        let run: Vec<u32> = (0..1000).collect();
        let mut a = RunArena::new();
        let mut b = RunArena::new();
        for _ in 0..8_000 {
            a.push_run(&run);
            b.push_run(&run);
        }
        a.seal();
        b.seal();
        let live = a.len() + b.len();
        let (m, peak) = RunArena::merge_zip(a, b);
        assert_eq!(m.len(), live);
        // Non-draining would peak at 2 × live; draining stays within
        // live + a few segments of slack.
        assert!(
            peak < live + 4 * SEG_ELEMS,
            "merge peak {peak} vs live {live}"
        );
    }

    #[test]
    fn append_one_to_runs_splices() {
        let mut a = RunArena::new();
        a.push_run(&[1]);
        a.push_run(&[2, 3]);
        a.push_run(&[4]);
        let (out, _) = a.append_one_to_runs(&[0, 2], 77);
        assert_eq!(collect(&out), vec![vec![1, 77], vec![2, 3], vec![4, 77]]);
    }

    #[test]
    fn append_one_to_runs_tolerates_an_evicted_head_segment() {
        // Fold-in after a partial eviction: the sets arena's head
        // segment still carries a dead prefix behind `live_from`, and
        // the draining rebuild must start at the live cursor (the bug
        // this pins: the drain read the dead prefix as run data).
        let mut a = RunArena::new();
        for j in 0..10u32 {
            a.push_run(&[j, j + 100]);
        }
        let removed = a.evict_front(3);
        assert_eq!(removed, 6);
        let (out, _) = a.append_one_to_runs(&[0, 6], 999);
        assert_eq!(out.n_runs(), 7);
        assert_eq!(out.run(0), &[3, 103, 999]);
        assert_eq!(out.run(1), &[4, 104]);
        assert_eq!(out.run(6), &[9, 109, 999]);
    }

    #[test]
    fn merge_zip_tolerates_an_evicted_head_segment() {
        let mut a = RunArena::new();
        for j in 0..6u32 {
            a.push_run(&[j]);
        }
        a.evict_front(2);
        let mut b = RunArena::new();
        for j in 0..4u32 {
            b.push_run(&[j + 50]);
        }
        let (m, _) = RunArena::merge_zip(a, b);
        assert_eq!(
            collect(&m),
            vec![vec![2, 50], vec![3, 51], vec![4, 52], vec![5, 53]]
        );
    }

    #[test]
    fn with_layout_scatter_fill() {
        let (mut a, mut cur) = RunArena::with_layout(&[2, 0, 3]);
        assert_eq!(a.n_runs(), 3);
        assert_eq!(a.len(), 5);
        a.poke(&mut cur[2], 30);
        a.poke(&mut cur[0], 10);
        a.poke(&mut cur[2], 31);
        a.poke(&mut cur[0], 11);
        a.poke(&mut cur[2], 32);
        assert_eq!(collect(&a), vec![vec![10, 11], vec![], vec![30, 31, 32]]);
        // Exact allocation: capacity equals length.
        assert_eq!(a.capacity_elems(), a.len() + a.n_runs());
    }

    #[test]
    fn with_layout_splits_segments() {
        let lens = vec![SEG_ELEMS as u32 / 2 + 1; 4];
        let (a, mut cur) = RunArena::with_layout(&lens);
        assert_eq!(a.n_runs(), 4);
        // No two half-segment runs share a segment.
        let mut a = a;
        for c in cur.iter_mut() {
            for v in 0..3u32 {
                a.poke(c, v);
            }
        }
        assert_eq!(a.run(3)[..3], [0, 1, 2]);
    }

    #[test]
    fn from_runs_copies_into_an_exact_arena() {
        let a = RunArena::from_runs(&[1, 2, 3, 7], &[3, 0, 1]);
        assert_eq!(collect(&a), vec![vec![1, 2, 3], vec![], vec![7]]);
        assert_eq!(a.capacity_elems(), a.len() + a.n_runs(), "exact allocation");
    }

    #[test]
    fn logical_equality_ignores_segmentation() {
        let mut a = RunArena::new();
        a.push_run(&[1, 2]);
        a.push_run(&[3]);
        let mut b = RunArena::new();
        b.push_run(&[1, 2]);
        let mut tail = RunArena::new();
        tail.push_run(&[3]);
        tail.seal();
        b.absorb(tail);
        assert_eq!(a, b);
        let mut c = RunArena::new();
        c.push_run(&[1, 2]);
        c.push_run(&[4]);
        assert_ne!(a, c);
    }

    #[test]
    fn for_each_run_from_mid_arena() {
        let mut a = RunArena::new();
        for j in 0..100u32 {
            a.push_run(&[j]);
        }
        a.evict_front(10);
        let mut seen = Vec::new();
        a.for_each_run_from(5, |j, r| seen.push((j, r[0])));
        assert_eq!(seen.len(), 85);
        assert_eq!(seen[0], (5, 15));
        assert_eq!(*seen.last().unwrap(), (89, 99));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn run_out_of_range_panics() {
        let mut a = RunArena::new();
        a.push_run(&[1]);
        let _ = a.run(1);
    }
}

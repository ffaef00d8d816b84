//! The assignment algorithms (paper Section IV + evaluation baselines).

use crate::eligibility::EligibilityMatrix;
use crate::oracle::InfluenceOracle;
use sc_graph::{HopcroftKarp, MinCostMaxFlow};
use sc_types::{Assignment, AssignmentPair, Instance};
use std::fmt;
use std::str::FromStr;

/// Which algorithm to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AlgorithmKind {
    /// Maximum Task Assignment: influence-agnostic maximum matching
    /// (baseline).
    Mta,
    /// Influence-aware Assignment: MCMF with cost `1/(if+1)`.
    Ia,
    /// Entropy-based IA: cost `(s.e+1)/(if+1)`.
    Eia,
    /// Distance-based IA: cost `1/(F·if+1)` with
    /// `F = 1 − min(1, d/w.r)`.
    Dia,
    /// Maximum Influence: two-step greedy maximizing total influence.
    Mi,
    /// Nearest-worker greedy (the running-example strawman).
    GreedyNearest,
}

impl AlgorithmKind {
    /// All algorithms the comparison figures sweep.
    pub const COMPARISON: [AlgorithmKind; 5] = [
        AlgorithmKind::Mta,
        AlgorithmKind::Ia,
        AlgorithmKind::Eia,
        AlgorithmKind::Dia,
        AlgorithmKind::Mi,
    ];

    /// Every algorithm: the comparison set and the greedy strawman.
    const ALL: [AlgorithmKind; 6] = [
        AlgorithmKind::Mta,
        AlgorithmKind::Ia,
        AlgorithmKind::Eia,
        AlgorithmKind::Dia,
        AlgorithmKind::Mi,
        AlgorithmKind::GreedyNearest,
    ];
}

/// Parses an algorithm's [`Display`](fmt::Display) label (`MTA`, `IA`,
/// `EIA`, `DIA`, `MI`, `Greedy`) in any letter case, as the `dita` CLI
/// and the serving front read it. The error reads
/// `unknown algorithm '<name>'`.
impl FromStr for AlgorithmKind {
    type Err = String;

    fn from_str(name: &str) -> Result<Self, String> {
        AlgorithmKind::ALL
            .into_iter()
            .find(|kind| kind.to_string().eq_ignore_ascii_case(name))
            .ok_or_else(|| format!("unknown algorithm '{name}'"))
    }
}

impl fmt::Display for AlgorithmKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            AlgorithmKind::Mta => "MTA",
            AlgorithmKind::Ia => "IA",
            AlgorithmKind::Eia => "EIA",
            AlgorithmKind::Dia => "DIA",
            AlgorithmKind::Mi => "MI",
            AlgorithmKind::GreedyNearest => "Greedy",
        };
        f.write_str(name)
    }
}

/// Everything an algorithm needs to run on one instance.
pub struct AssignInput<'a> {
    /// The instance snapshot.
    pub instance: &'a Instance,
    /// The influence oracle (`if(w, s)` per candidate pair).
    pub influence: &'a dyn InfluenceOracle,
    /// Per-task location entropy `s.e`, aligned with `instance.tasks`.
    /// Required by [`AlgorithmKind::Eia`]; treated as all-zero otherwise
    /// when absent.
    pub task_entropy: Option<&'a [f64]>,
    /// Thread budget for the per-pair influence scan
    /// ([`score_pairs`]); the solve runs on one thread. Results are
    /// bit-identical at any value — shards are contiguous index ranges
    /// merged in order — so this trades wall time only. Defaults to 1.
    pub threads: usize,
}

impl<'a> AssignInput<'a> {
    /// Creates an input without entropy data, scoring on one thread.
    pub fn new(instance: &'a Instance, influence: &'a dyn InfluenceOracle) -> Self {
        AssignInput {
            instance,
            influence,
            task_entropy: None,
            threads: 1,
        }
    }

    /// Attaches per-task entropies (enables EIA).
    #[must_use]
    pub fn with_entropy(mut self, entropy: &'a [f64]) -> Self {
        assert_eq!(
            entropy.len(),
            self.instance.tasks.len(),
            "entropy must align with tasks"
        );
        self.task_entropy = Some(entropy);
        self
    }

    /// Sets the scoring thread budget (clamped to at least 1). Results
    /// are bit-identical at any budget.
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }
}

/// Solver-phase telemetry from one [`run_scored`] call. Zero for the
/// non-flow algorithms (MI, greedy) and for MTA (its matching does not
/// count passes or augmentations). Deterministic facts of the
/// instance, identical at every thread budget; round drivers keep them
/// in their perf split, beside the phase timings, not in the round
/// report.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SolveStats {
    /// Shortest-path search passes the MCMF solve ran.
    pub passes: usize,
    /// Augmenting paths the MCMF solve committed.
    pub augmentations: usize,
}

/// Runs `kind` on pre-scored pairs: `influences[i]` must be the oracle
/// value of `matrix.pairs()[i]` (what [`score_pairs`] returns). Returns
/// the assignment and the solver-phase telemetry. Scoring and solving
/// are separate calls so round drivers can time them apart, and so one
/// scoring scan can feed several solves (scores are
/// algorithm-independent).
pub fn run_scored(
    kind: AlgorithmKind,
    input: &AssignInput<'_>,
    matrix: &EligibilityMatrix,
    influences: &[f64],
) -> (Assignment, SolveStats) {
    debug_assert_eq!(influences.len(), matrix.n_pairs());
    match kind {
        AlgorithmKind::Mta => (mta(input, matrix, influences), SolveStats::default()),
        AlgorithmKind::Ia => mcmf_assign(input, matrix, influences, CostModel::Influence),
        AlgorithmKind::Eia => mcmf_assign(input, matrix, influences, CostModel::EntropyInfluence),
        AlgorithmKind::Dia => mcmf_assign(input, matrix, influences, CostModel::DistanceInfluence),
        AlgorithmKind::Mi => (mi(input, matrix, influences), SolveStats::default()),
        AlgorithmKind::GreedyNearest => (
            greedy_nearest(input, matrix, influences),
            SolveStats::default(),
        ),
    }
}

enum CostModel {
    Influence,
    EntropyInfluence,
    DistanceInfluence,
}

/// Precomputes `if(w, s)` for every available pair: the oracle's
/// whole-matrix scan ([`InfluenceOracle::influence_matrix`]) under
/// [`AssignInput::threads`]. Every score is a pure read of the (already
/// warm or content-deterministic) oracle, so the vector is identical
/// at any thread count. Feed the result to [`run_scored`].
pub fn score_pairs(input: &AssignInput<'_>, matrix: &EligibilityMatrix) -> Vec<f64> {
    let scores = input
        .influence
        .influence_matrix(input.instance, matrix, input.threads);
    debug_assert_eq!(scores.len(), matrix.n_pairs());
    debug_assert!(
        scores.iter().all(|v| v.is_finite() && *v >= 0.0),
        "influence must be finite and >= 0"
    );
    scores
}

/// Builds the assignment from the chosen pair indices (into
/// [`EligibilityMatrix::pairs`]), in the order given.
fn to_assignment(
    input: &AssignInput<'_>,
    matrix: &EligibilityMatrix,
    influences: &[f64],
    chosen: &[usize],
) -> Assignment {
    let mut assignment = Assignment::new();
    for &pi in chosen {
        let pair = matrix.pairs()[pi];
        let ok = assignment.push(AssignmentPair {
            task: input.instance.tasks[pair.task_idx as usize].id,
            worker: input.instance.workers[pair.worker_idx as usize].id,
            influence: influences[pi],
            distance_km: pair.distance_km,
        });
        debug_assert!(ok, "flow solution produced a clash");
    }
    assignment
}

/// Lattice quantum of the tie-break jitter: `2⁻³⁷ ≈ 7.3e-12`. Every
/// jitter is an integer multiple of this, so any two *distinct* path
/// or matching costs built from plateau edges differ by at least one
/// quantum — two orders of magnitude above the solver tolerances
/// (`1e-13`) and four above accumulated `f64` path-sum rounding.
const JITTER_QUANTUM: f64 = 1.0 / (1u64 << 37) as f64;

/// Deterministic per-pair tie-break jitter: a bijective 18-bit scramble
/// of the pair index placed on a dyadic lattice, `2⁻³⁷ · [2¹⁸, 2¹⁹)`
/// (≈ `1.9e-6 ..= 3.8e-6`).
///
/// The influence cost models produce *exact* ties (every zero-influence
/// pair costs exactly `1.0`), and on a tied plateau several optimal
/// assignments exist; which one a solve returns would then hang on
/// the solver's tie-breaking. Adding a unique sub-`1e-5` perturbation
/// per pair makes the min-cost optimum unique, so the assignment
/// depends only on the instance, and every scoring thread budget
/// returns it byte for byte (the solver determinism suite pins this;
/// the solve itself runs on one thread). Three properties make the
/// separation real rather than wishful:
///
/// * **Lattice-quantized.** Jitters are exact dyadic multiples of
///   [`JITTER_QUANTUM`], so on a plateau (equal bases, which are the
///   only pairs the jitter must separate) distinct path costs differ
///   by ≥ one quantum — far above accumulated `f64` rounding. Dijkstra's
///   strict comparisons and the flow certificate's `1e-13` tolerance
///   therefore see one unique optimum. A full-granularity random jitter
///   fails here: two near-optimal matchings can land within rounding of
///   each other, so which one the solve returns hangs on rounding
///   rather than on the instance.
/// * **Bijective.** The scramble is a 4-round Feistel permutation of
///   the low 18 bits of the pair index, so any two pairs (below `2¹⁸`)
///   get *provably distinct* offsets — no birthday collisions.
/// * **Hashed, not linear.** Offsets linear in the index cancel on
///   crossing squares (`δ·a + δ·(b+1) = δ·(a+1) + δ·b`), leaving the
///   tie unbroken; the Feistel rounds destroy that structure.
///
/// The magnitude cap (`< 4e-6` per pair) keeps the jitter far below
/// any real cost gap (costs live in `(0, 1]` quantized no finer than
/// ~`1e-4` by the influence estimates), so it never reorders genuinely
/// different pairs.
fn tie_jitter(pi: usize) -> f64 {
    // 4-round Feistel over 9-bit halves: a bijection on [0, 2^18).
    let x = (pi as u32) & 0x3_FFFF;
    let (mut l, mut r) = (x >> 9, x & 0x1FF);
    for round in 1..=4u32 {
        let mut f = r
            .wrapping_add(round.wrapping_mul(0x9E37_79B9))
            .wrapping_mul(0x85EB_CA6B);
        f ^= f >> 13;
        let next = l ^ (f & 0x1FF);
        l = r;
        r = next;
    }
    let k = (1u32 << 18) | (l << 9) | r;
    JITTER_QUANTUM * f64::from(k)
}

/// IA / EIA / DIA: one min-cost max-flow solve over the task-assignment
/// graph of paper Figure 4. Nodes: source `N_s`, one node per worker,
/// one per task, sink `N_d`. Edges: `N_s → wᵢ` (cap 1, cost 0),
/// `wᵢ → sⱼ` for each available pair (cap 1, cost from `model`),
/// `sⱼ → N_d` (cap 1, cost 0). Maximum flow = maximum number of
/// assignments; minimum cost among maximum flows encodes the influence
/// objective. [`MinCostMaxFlow`] is this network with the source and
/// sink implicit, so only the worker → task edges are entered — one per
/// pair, in pair order, so an edge id is a pair index.
fn mcmf_assign(
    input: &AssignInput<'_>,
    matrix: &EligibilityMatrix,
    influences: &[f64],
    model: CostModel,
) -> (Assignment, SolveStats) {
    let zeros;
    let entropy: &[f64] = match (&model, input.task_entropy) {
        (CostModel::EntropyInfluence, Some(e)) => e,
        (CostModel::EntropyInfluence, None) => {
            zeros = vec![0.0; input.instance.tasks.len()];
            &zeros
        }
        _ => &[],
    };

    let mut flow = MinCostMaxFlow::new(matrix.n_workers(), matrix.n_tasks());
    for (pi, p) in matrix.pairs().iter().enumerate() {
        let inf = influences[pi];
        let base = match model {
            CostModel::Influence => 1.0 / (inf + 1.0),
            CostModel::EntropyInfluence => (entropy[p.task_idx as usize] + 1.0) / (inf + 1.0),
            CostModel::DistanceInfluence => {
                let worker = &input.instance.workers[p.worker_idx as usize];
                let f = 1.0 - (p.distance_km / worker.radius_km).min(1.0);
                1.0 / (f * inf + 1.0)
            }
        };
        flow.add_edge(
            p.worker_idx as usize,
            p.task_idx as usize,
            base + tie_jitter(pi),
        );
    }
    let result = flow.run();
    let stats = SolveStats {
        passes: result.passes,
        augmentations: result.augmentations,
    };
    (
        to_assignment(input, matrix, influences, &flow.matched_edges()),
        stats,
    )
}

/// MTA: a maximum bipartite matching (the unit-capacity network's
/// maximum flow), ignoring influence for the choice but still reporting
/// the influence of whatever it picked (the evaluation metrics need
/// it). Edges enter [`HopcroftKarp`] in pair order, so of several
/// maximum matchings it deterministically returns the one its first
/// augmenting paths reach.
fn mta(input: &AssignInput<'_>, matrix: &EligibilityMatrix, influences: &[f64]) -> Assignment {
    let mut hk = HopcroftKarp::new(matrix.n_workers(), matrix.n_tasks());
    for p in matrix.pairs() {
        hk.add_edge(p.worker_idx as usize, p.task_idx as usize);
    }
    let (_, task_of) = hk.solve();

    // Rows are laid out worker after worker, so walking them in order
    // maps each matched task back to its pair index, ascending.
    let mut chosen = Vec::new();
    let mut row_start = 0;
    for (wi, task) in task_of.into_iter().enumerate() {
        let row = matrix.of_worker(wi);
        if let Some(ti) = task {
            let k = row.iter().position(|p| p.task_idx == ti);
            chosen.push(row_start + k.expect("a matched edge is an eligible pair"));
        }
        row_start += row.len();
    }
    to_assignment(input, matrix, influences, &chosen)
}

/// MI: step 1 collects the candidate workers of every task (the
/// eligibility matrix); step 2 walks candidate pairs in descending
/// influence, assigning greedily — maximizing total influence with no
/// regard for cardinality.
fn mi(input: &AssignInput<'_>, matrix: &EligibilityMatrix, influences: &[f64]) -> Assignment {
    let mut order: Vec<usize> = (0..matrix.n_pairs()).collect();
    order.sort_by(|&a, &b| influences[b].total_cmp(&influences[a]));

    let mut worker_used = vec![false; matrix.n_workers()];
    let mut task_used = vec![false; matrix.n_tasks()];
    let mut chosen = Vec::new();
    for pi in order {
        let p = &matrix.pairs()[pi];
        if worker_used[p.worker_idx as usize] || task_used[p.task_idx as usize] {
            continue;
        }
        // A zero-influence pair adds nothing to total influence; MI
        // leaves it unassigned (this is what makes |A| small for MI).
        if influences[pi] <= 0.0 {
            continue;
        }
        worker_used[p.worker_idx as usize] = true;
        task_used[p.task_idx as usize] = true;
        chosen.push(pi);
    }
    to_assignment(input, matrix, influences, &chosen)
}

/// Nearest-worker greedy from the running example: tasks in id order,
/// each grabs its closest free eligible worker.
fn greedy_nearest(
    input: &AssignInput<'_>,
    matrix: &EligibilityMatrix,
    influences: &[f64],
) -> Assignment {
    // Group pairs per task.
    let mut per_task: Vec<Vec<usize>> = vec![Vec::new(); matrix.n_tasks()];
    for (pi, p) in matrix.pairs().iter().enumerate() {
        per_task[p.task_idx as usize].push(pi);
    }
    let mut worker_used = vec![false; matrix.n_workers()];
    let mut chosen = Vec::new();
    for candidates in &per_task {
        let best = candidates
            .iter()
            .filter(|&&pi| !worker_used[matrix.pairs()[pi].worker_idx as usize])
            .min_by(|&&a, &&b| {
                matrix.pairs()[a]
                    .distance_km
                    .total_cmp(&matrix.pairs()[b].distance_km)
            });
        if let Some(&pi) = best {
            worker_used[matrix.pairs()[pi].worker_idx as usize] = true;
            chosen.push(pi);
        }
    }
    to_assignment(input, matrix, influences, &chosen)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::{InfluenceFn, ZeroInfluence};
    use sc_types::{CategoryId, Duration, Location, Task, TaskId, TimeInstant, Worker, WorkerId};

    #[test]
    fn every_label_parses_back_in_any_case() {
        for kind in AlgorithmKind::ALL {
            let label = kind.to_string();
            let mixed: String = label
                .chars()
                .enumerate()
                .map(|(i, c)| {
                    if i % 2 == 0 {
                        c.to_ascii_lowercase()
                    } else {
                        c.to_ascii_uppercase()
                    }
                })
                .collect();
            for name in [label.to_lowercase(), label.to_uppercase(), mixed] {
                assert_eq!(name.parse::<AlgorithmKind>(), Ok(kind), "{name}");
            }
        }
        for name in ["", "IAX", "greedy-nearest", "Dinic"] {
            assert_eq!(
                name.parse::<AlgorithmKind>(),
                Err(format!("unknown algorithm '{name}'"))
            );
        }
    }

    /// Eligibility, scoring and the solve, in order.
    fn run(kind: AlgorithmKind, input: &AssignInput<'_>) -> Assignment {
        let matrix = EligibilityMatrix::build(input.instance);
        run_scored(kind, input, &matrix, &score_pairs(input, &matrix)).0
    }

    fn worker(id: u32, x: f64, r: f64) -> Worker {
        Worker::new(WorkerId::new(id), Location::new(x, 0.0), r)
    }

    fn task(id: u32, x: f64) -> Task {
        Task::new(
            TaskId::new(id),
            Location::new(x, 0.0),
            TimeInstant::at(0, 0),
            Duration::hours(100),
            CategoryId::new(0),
        )
    }

    /// Two workers, two tasks, all reachable. Influence table:
    ///   (w0,t0)=4, (w0,t1)=1, (w1,t0)=3, (w1,t1)=0.1
    fn square() -> (Instance, impl Fn(WorkerId, &Task) -> f64) {
        let inst = Instance::new(
            TimeInstant::at(0, 0),
            vec![worker(0, 0.0, 100.0), worker(1, 1.0, 100.0)],
            vec![task(0, 0.4), task(1, 0.6)],
        );
        let table = |w: WorkerId, t: &Task| match (w.raw(), t.id.raw()) {
            (0, 0) => 4.0,
            (0, 1) => 1.0,
            (1, 0) => 3.0,
            (1, 1) => 0.1,
            _ => 0.0,
        };
        (inst, table)
    }

    #[test]
    fn ia_minimizes_reciprocal_cost_at_full_cardinality() {
        let (inst, table) = square();
        let oracle = InfluenceFn(table);
        let a = run(AlgorithmKind::Ia, &AssignInput::new(&inst, &oracle));
        assert_eq!(a.len(), 2);
        // The paper's IA minimizes Σ 1/(if+1), which is *not* the same as
        // maximizing Σ if. Costs: (w0,t0)=0.2, (w0,t1)=0.5, (w1,t0)=0.25,
        // (w1,t1)=0.909 — the crossed pairing (0.5+0.25=0.75) beats the
        // straight one (0.2+0.909=1.109), even though its total influence
        // (4.0) is slightly below 4.1. This pins the exact semantics.
        assert_eq!(a.worker_of(TaskId::new(0)), Some(WorkerId::new(1)));
        assert_eq!(a.worker_of(TaskId::new(1)), Some(WorkerId::new(0)));
        assert!((a.total_influence() - 4.0).abs() < 1e-9);
    }

    #[test]
    fn mta_matches_cardinality_but_ignores_influence() {
        let (inst, table) = square();
        let oracle = InfluenceFn(table);
        let a = run(AlgorithmKind::Mta, &AssignInput::new(&inst, &oracle));
        assert_eq!(a.len(), 2, "same cardinality as IA");
        // Influence is reported but may be the inferior pairing.
        assert!(a.total_influence() > 0.0);
    }

    #[test]
    fn ia_beats_mta_when_one_task_is_contested() {
        // One task, two workers: MTA grabs the first augmenting path
        // (w0); IA must route the flow through the influential w1.
        let inst = Instance::new(
            TimeInstant::at(0, 0),
            vec![worker(0, 1.0, 100.0), worker(1, 2.0, 100.0)],
            vec![task(0, 0.0)],
        );
        let oracle = InfluenceFn(|w: WorkerId, _t: &Task| if w.raw() == 1 { 5.0 } else { 0.1 });
        let ia = run(AlgorithmKind::Ia, &AssignInput::new(&inst, &oracle));
        let mta = run(AlgorithmKind::Mta, &AssignInput::new(&inst, &oracle));
        assert_eq!(ia.len(), 1);
        assert_eq!(mta.len(), 1);
        assert_eq!(ia.worker_of(TaskId::new(0)), Some(WorkerId::new(1)));
        assert!(ia.total_influence() >= mta.total_influence());
        assert!((ia.total_influence() - 5.0).abs() < 1e-9);
    }

    #[test]
    fn mta_tie_break_takes_first_augmenting_path() {
        // Pins the matching's augmenting order documented above: with
        // both workers eligible for the one task, MTA deterministically
        // assigns w0 (the first augmenting path in pair order). The
        // MCMF engine rewrite must not disturb the max-flow baseline's
        // output — replay traces and figure sweeps depend on it.
        let inst = Instance::new(
            TimeInstant::at(0, 0),
            vec![worker(0, 1.0, 100.0), worker(1, 2.0, 100.0)],
            vec![task(0, 0.0)],
        );
        let oracle = InfluenceFn(|w: WorkerId, _t: &Task| if w.raw() == 1 { 5.0 } else { 0.1 });
        let mta = run(AlgorithmKind::Mta, &AssignInput::new(&inst, &oracle));
        assert_eq!(mta.len(), 1);
        assert_eq!(mta.worker_of(TaskId::new(0)), Some(WorkerId::new(0)));
        assert!((mta.total_influence() - 0.1).abs() < 1e-9);
    }

    #[test]
    fn mi_maximizes_average_influence_not_cardinality() {
        // One worker reaches both tasks; another reaches none.
        let inst = Instance::new(
            TimeInstant::at(0, 0),
            vec![worker(0, 0.0, 100.0)],
            vec![task(0, 0.4), task(1, 0.6)],
        );
        let oracle = InfluenceFn(
            |_w: WorkerId, t: &Task| {
                if t.id.raw() == 0 {
                    5.0
                } else {
                    1.0
                }
            },
        );
        let mi = run(AlgorithmKind::Mi, &AssignInput::new(&inst, &oracle));
        assert_eq!(mi.len(), 1);
        assert_eq!(mi.worker_of(TaskId::new(0)), Some(WorkerId::new(0)));
        assert!((mi.average_influence() - 5.0).abs() < 1e-9);
    }

    #[test]
    fn mi_skips_zero_influence_pairs() {
        let (inst, _) = square();
        let a = run(AlgorithmKind::Mi, &AssignInput::new(&inst, &ZeroInfluence));
        assert_eq!(a.len(), 0);
        // IA still assigns everything with zero influence.
        let ia = run(AlgorithmKind::Ia, &AssignInput::new(&inst, &ZeroInfluence));
        assert_eq!(ia.len(), 2);
    }

    #[test]
    fn dia_prefers_closer_workers() {
        // Both workers have equal influence on the task; DIA must pick
        // the closer one, IA is indifferent (ties broken by search order).
        let inst = Instance::new(
            TimeInstant::at(0, 0),
            vec![worker(0, 10.0, 100.0), worker(1, 1.0, 100.0)],
            vec![task(0, 0.0)],
        );
        let oracle = InfluenceFn(|_, _: &Task| 2.0);
        let dia = run(AlgorithmKind::Dia, &AssignInput::new(&inst, &oracle));
        assert_eq!(dia.len(), 1);
        assert_eq!(dia.worker_of(TaskId::new(0)), Some(WorkerId::new(1)));
        assert!((dia.average_travel_km() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn eia_prioritizes_low_entropy_tasks() {
        // One worker, two tasks with equal influence; the low-entropy
        // task (restricted visitor set) must win the worker.
        let inst = Instance::new(
            TimeInstant::at(0, 0),
            vec![worker(0, 0.0, 100.0)],
            vec![task(0, 0.4), task(1, 0.5)],
        );
        let oracle = InfluenceFn(|_, _: &Task| 1.0);
        let entropy = [2.0, 0.0]; // task 1 has low entropy
        let input = AssignInput::new(&inst, &oracle).with_entropy(&entropy);
        let a = run(AlgorithmKind::Eia, &input);
        assert_eq!(a.len(), 1);
        assert_eq!(a.worker_of(TaskId::new(1)), Some(WorkerId::new(0)));
    }

    #[test]
    fn greedy_nearest_takes_closest() {
        let inst = Instance::new(
            TimeInstant::at(0, 0),
            vec![worker(0, 5.0, 100.0), worker(1, 1.0, 100.0)],
            vec![task(0, 0.0)],
        );
        let a = run(
            AlgorithmKind::GreedyNearest,
            &AssignInput::new(&inst, &ZeroInfluence),
        );
        assert_eq!(a.worker_of(TaskId::new(0)), Some(WorkerId::new(1)));
    }

    #[test]
    fn greedy_can_be_suboptimal_in_cardinality() {
        // t0 grabs the only worker that could serve t1.
        let inst = Instance::new(
            TimeInstant::at(0, 0),
            vec![worker(0, 0.0, 100.0), worker(1, 3.0, 0.5)],
            vec![task(0, 0.1), task(1, 10.0)],
        );
        let greedy = run(
            AlgorithmKind::GreedyNearest,
            &AssignInput::new(&inst, &ZeroInfluence),
        );
        let mta = run(AlgorithmKind::Mta, &AssignInput::new(&inst, &ZeroInfluence));
        assert_eq!(greedy.len(), 1, "greedy strands task 1");
        assert_eq!(mta.len(), 1, "worker 1 reaches nothing; max is still 1");
        // Now give worker 1 enough radius for t0 only.
        let inst2 = Instance::new(
            TimeInstant::at(0, 0),
            vec![worker(0, 0.0, 100.0), worker(1, 0.4, 0.5)],
            vec![task(0, 0.1), task(1, 10.0)],
        );
        let greedy2 = run(
            AlgorithmKind::GreedyNearest,
            &AssignInput::new(&inst2, &ZeroInfluence),
        );
        let mta2 = run(
            AlgorithmKind::Mta,
            &AssignInput::new(&inst2, &ZeroInfluence),
        );
        assert_eq!(mta2.len(), 2, "flow reroutes w0 to t1");
        assert!(greedy2.len() <= mta2.len());
    }

    #[test]
    fn running_example_shape() {
        // Figure 1: greedy assigns nearest (low influence), IA assigns
        // the influential worker despite distance.
        let inst = Instance::new(
            TimeInstant::at(0, 0),
            vec![worker(3, 0.2, 50.0), worker(4, 2.0, 50.0)],
            vec![task(4, 0.0)],
        );
        let oracle = InfluenceFn(|w: WorkerId, _t: &Task| match w.raw() {
            3 => 1.67,
            4 => 4.25,
            _ => 0.0,
        });
        let greedy = run(
            AlgorithmKind::GreedyNearest,
            &AssignInput::new(&inst, &oracle),
        );
        let ia = run(AlgorithmKind::Ia, &AssignInput::new(&inst, &oracle));
        assert_eq!(greedy.worker_of(TaskId::new(4)), Some(WorkerId::new(3)));
        assert_eq!(ia.worker_of(TaskId::new(4)), Some(WorkerId::new(4)));
        assert!(ia.total_influence() > greedy.total_influence());
    }

    #[test]
    fn all_algorithms_respect_at_most_once() {
        let (inst, table) = square();
        let oracle = InfluenceFn(table);
        let entropy = vec![0.5, 1.0];
        for kind in [
            AlgorithmKind::Mta,
            AlgorithmKind::Ia,
            AlgorithmKind::Eia,
            AlgorithmKind::Dia,
            AlgorithmKind::Mi,
            AlgorithmKind::GreedyNearest,
        ] {
            let input = AssignInput::new(&inst, &oracle).with_entropy(&entropy);
            let a = run(kind, &input);
            let mut workers: Vec<_> = a.pairs().iter().map(|p| p.worker).collect();
            let mut tasks: Vec<_> = a.pairs().iter().map(|p| p.task).collect();
            workers.sort();
            workers.dedup();
            tasks.sort();
            tasks.dedup();
            assert_eq!(workers.len(), a.len(), "{kind}: duplicate worker");
            assert_eq!(tasks.len(), a.len(), "{kind}: duplicate task");
        }
    }

    #[test]
    fn empty_instance_yields_empty_assignment() {
        let inst = Instance::new(TimeInstant::EPOCH, vec![], vec![]);
        for kind in AlgorithmKind::COMPARISON {
            let a = run(kind, &AssignInput::new(&inst, &ZeroInfluence));
            assert!(a.is_empty(), "{kind}");
        }
    }

    #[test]
    fn display_names() {
        assert_eq!(AlgorithmKind::Mta.to_string(), "MTA");
        assert_eq!(AlgorithmKind::Eia.to_string(), "EIA");
        assert_eq!(AlgorithmKind::GreedyNearest.to_string(), "Greedy");
    }
}

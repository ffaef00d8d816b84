//! Cold-start at scale under a memory budget → `BENCH_scale.json`.
//!
//! Drives the full million-worker-capable cold-start path on the
//! [`ScaleProfile`] generator — streaming CSR network build, chunked
//! [`RrrPool`] generation at several thread counts, growth/eviction
//! rotation, and corpus-free [`StreamingLda`] training — and records
//! peak memory (both the deterministic arena-capacity accounting and
//! the OS's `VmHWM` view) plus cold-start wall time per phase. The
//! trained `θ` is digested into `lda_fingerprint`, which, like the
//! pool `fingerprint`, depends on neither the host nor the clock.
//!
//! ```text
//! cargo run --release -p sc-bench --bin bench_scale            # 10⁵ workers
//! cargo run --release -p sc-bench --bin bench_scale -- --smoke # 10⁴ workers (CI)
//! DITA_SCALE_WORKERS=1000000 cargo run --release -p sc-bench --bin bench_scale
//! ```
//!
//! The run *asserts* its budget, it does not merely report it:
//!
//! * pools built and rotated at 1 and N threads must be bit-identical:
//!   equal fingerprints and equal byte accounting ([`PoolMemStats`]);
//! * the pool's peak accounting must stay **additive** — live bytes
//!   plus O(delta) + O(workers) + a bounded number of arena segments —
//!   after cold start and after rotation;
//! * on Linux, whole-run peak RSS must stay under a ceiling
//!   (elsewhere the probe honestly records `null` and the ceiling is
//!   skipped).

#![forbid(unsafe_code)]

use rand::rngs::SmallRng;
use rand::SeedableRng;
use sc_bench::{env_or, host_threads, write_artifact};
use sc_datagen::ScaleProfile;
use sc_influence::{arena::SEG_BYTES, PoolMemStats, RrrPool};
use sc_stats::{peak_rss_bytes, reset_peak_rss};
use sc_topics::{LdaParams, StreamingLda};
use std::time::Instant;

/// One measured phase: wall time plus the kernel's per-phase RSS peak
/// (watermark reset before the phase; `None` off-Linux).
struct Phase {
    name: &'static str,
    wall_ms: f64,
    rss_peak: Option<u64>,
}

fn timed<T>(name: &'static str, phases: &mut Vec<Phase>, f: impl FnOnce() -> T) -> T {
    reset_peak_rss();
    let t0 = Instant::now();
    let out = f();
    let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
    let rss_peak = peak_rss_bytes();
    let rss = rss_peak
        .map(|b| format!("{:.0} MB peak RSS", b as f64 / (1 << 20) as f64))
        .unwrap_or_else(|| "RSS unavailable".into());
    eprintln!("[bench_scale] {name}: {wall_ms:.0} ms, {rss}");
    phases.push(Phase {
        name,
        wall_ms,
        rss_peak,
    });
    out
}

/// Additive-transient allowance for the chunked pool: the membership
/// delta index (≤ live/8 — a quarter of the sets is rotated per round,
/// and membership is about half the live bytes), the per-worker scatter
/// scratch (count + cursor vectors, 12 B each), and a handful of arena
/// segments in flight. Everything here is O(delta) + O(workers) +
/// O(segments), never a second copy of the live bytes.
fn additive_slack(live_bytes: usize, n_workers: usize) -> usize {
    live_bytes / 8 + 12 * n_workers + 8 * SEG_BYTES
}

/// FNV-1a over every `θ` row: its length, then each value's bits, so
/// a Gibbs sweep that moves one draw changes the digest.
fn theta_fingerprint(theta: &[Vec<f64>]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |v: u64| {
        h ^= v;
        h = h.wrapping_mul(0x100_0000_01b3);
    };
    for row in theta {
        eat(row.len() as u64);
        for p in row {
            eat(p.to_bits());
        }
    }
    h
}

fn json_opt(v: Option<u64>) -> String {
    v.map_or("null".into(), |b| b.to_string())
}

fn mem_json(m: &PoolMemStats) -> String {
    format!(
        "{{\"live_bytes\": {}, \"capacity_bytes\": {}, \"peak_bytes\": {}}}",
        m.live_bytes, m.capacity_bytes, m.peak_bytes
    )
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let n_workers = env_or("DITA_SCALE_WORKERS", if smoke { 10_000 } else { 100_000 });
    let n_sets = n_workers * 2;
    let n_topics: usize = 16;
    let sweeps: usize = 3;
    // Generous by design: the ceiling catches budget *regressions*
    // (forgotten copies, doubling growth), not normal variance.
    let ceiling_mb = 512 + 2 * n_workers / 1_000;
    let master_seed = 0xD17A_5CA1u64;
    let max_threads = host_threads().min(4);

    let profile = ScaleProfile::with_workers(n_workers);
    eprintln!(
        "[bench_scale] profile {}: {n_workers} workers, target {} directed edges, {n_sets} sets",
        profile.name,
        profile.target_directed_edges()
    );

    let mut phases: Vec<Phase> = Vec::new();
    let whole_run_t0 = Instant::now();

    // Phase 1 — streaming network build (generator → CsrBuilder → CSR).
    let net = timed("network_build", &mut phases, || {
        profile.social_network(master_seed)
    });
    assert!(
        net.n_edges() > profile.target_directed_edges() * 9 / 10,
        "generator fell far short of the target edge count: {}",
        net.n_edges()
    );

    // Phase 2 — chunked cold start at 1 and N threads, bit-identical.
    let mut pool1 = timed("cold_start_chunked_t1", &mut phases, || {
        RrrPool::generate_sharded(&net, n_sets, master_seed, 1)
    });
    let mut pool = timed("cold_start_chunked_tn", &mut phases, || {
        RrrPool::generate_sharded(&net, n_sets, master_seed, max_threads)
    });
    let fingerprint = pool.fingerprint();
    assert_eq!(
        pool1.fingerprint(),
        fingerprint,
        "chunked pool diverged between 1 and {max_threads} threads"
    );
    assert_eq!(
        pool1.mem_stats(),
        pool.mem_stats(),
        "deterministic byte accounting diverged across thread counts"
    );
    let cold = pool.mem_stats();
    assert!(
        cold.peak_bytes <= cold.live_bytes + additive_slack(cold.live_bytes, n_workers),
        "chunked cold start transients not additive: peak {} vs live {}",
        cold.peak_bytes,
        cold.live_bytes
    );

    // Phase 3 — growth + eviction rotation: the maintained pool must
    // keep its transients additive while sets rotate through it. The
    // 1-thread pool takes the same rotations untimed, and must end with
    // the same sets and the same bytes.
    let rotate = |pool: &mut RrrPool, threads: usize| {
        for _ in 0..3 {
            let epoch = pool.advance_epoch();
            pool.evict_before_epoch(epoch, n_sets / 4);
            pool.extend_to(&net, n_sets, threads);
        }
        pool.mem_stats()
    };
    let rotated = timed("rotation", &mut phases, || rotate(&mut pool, max_threads));
    assert_eq!(
        rotate(&mut pool1, 1),
        rotated,
        "rotated byte accounting diverged between 1 and {max_threads} threads"
    );
    assert_eq!(pool1.fingerprint(), pool.fingerprint());
    drop(pool1);
    assert!(
        rotated.peak_bytes <= rotated.live_bytes + additive_slack(rotated.live_bytes, n_workers),
        "rotation transients not additive: peak {} vs live {}",
        rotated.peak_bytes,
        rotated.live_bytes
    );

    // Phase 4 — streaming LDA over per-worker documents, no corpus.
    let docs = profile.documents(master_seed);
    let (n_tokens, theta) = timed("streaming_lda", &mut phases, || {
        let params = LdaParams::with_topics(n_topics).sweeps(sweeps);
        let mut rng = SmallRng::seed_from_u64(master_seed);
        let mut lda = StreamingLda::new(params, docs.n_words());
        let mut tokens = 0usize;
        for w in 0..n_workers as u32 {
            let doc = docs.document(w);
            tokens += doc.len();
            lda.feed_doc(doc, &mut rng);
        }
        let (_, theta) = lda.finish(&mut rng);
        assert_eq!(theta.len(), n_workers);
        (tokens, theta)
    });
    let lda_fingerprint = theta_fingerprint(&theta);

    let total_wall_ms = whole_run_t0.elapsed().as_secs_f64() * 1e3;
    let rss_whole = peak_rss_bytes();
    let rss_ceiling_ok = match rss_whole {
        // clear_refs resets the watermark per phase, so the whole-run
        // peak is the max over phase peaks.
        Some(_) => {
            let peak = phases
                .iter()
                .filter_map(|p| p.rss_peak)
                .max()
                .unwrap_or_default();
            assert!(
                peak <= (ceiling_mb as u64) << 20,
                "peak RSS {:.0} MB exceeds the {ceiling_mb} MB ceiling",
                peak as f64 / (1 << 20) as f64
            );
            true
        }
        None => false,
    };

    let phase_rows: Vec<String> = phases
        .iter()
        .map(|p| {
            format!(
                "    {{\"phase\": \"{}\", \"wall_ms\": {:.3}, \"rss_peak_bytes\": {}}}",
                p.name,
                p.wall_ms,
                json_opt(p.rss_peak)
            )
        })
        .collect();
    let host_threads = host_threads();
    let json = format!(
        "{{\n  \"bench\": \"scale_cold_start\",\n  \"profile\": \"{}\",\n  \"n_workers\": {n_workers},\n  \"n_edges\": {},\n  \"n_sets\": {n_sets},\n  \"n_topics\": {n_topics},\n  \"lda_sweeps\": {sweeps},\n  \"lda_tokens\": {n_tokens},\n  \"host_threads\": {host_threads},\n  \"bench_threads\": {max_threads},\n  \"master_seed\": {master_seed},\n  \"fingerprint\": \"{fingerprint:#018x}\",\n  \"lda_fingerprint\": \"{lda_fingerprint:#018x}\",\n  \"identical_across_threads\": true,\n  \"pool_chunked\": {},\n  \"pool_rotated\": {},\n  \"rss_ceiling_mb\": {ceiling_mb},\n  \"rss_ceiling_checked\": {rss_ceiling_ok},\n  \"rss_whole_run_bytes\": {},\n  \"total_wall_ms\": {total_wall_ms:.3},\n  \"phases\": [\n{}\n  ]\n}}\n",
        profile.name,
        net.n_edges(),
        mem_json(&cold),
        mem_json(&rotated),
        json_opt(rss_whole),
        phase_rows.join(",\n")
    );

    write_artifact("scale", &json);
}

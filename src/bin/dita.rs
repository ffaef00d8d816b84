//! `dita` — command-line driver for the DITA reproduction.
//!
//! ```text
//! dita generate   --profile bk-small --seed 42 --out data/
//! dita assign     --profile bk-small --tasks 150 --workers 120 --algorithm IA
//! dita comparison --profile bk-small --axis tasks --threads 4
//! dita ablation   --profile fs-small --axis radius
//! dita simulate   --profile bk-small --day 0 --algorithm EIA --verbose
//! dita online     --profile bk-small --days 3 --growth-cap 1024 --horizon 24
//! ```
//!
//! Flags are `--key value` pairs (`--verbose` may stand alone); every
//! command accepts `--seed`, and the training commands accept
//! `--threads N` (0 = one shard per core) governing **all** thread
//! budgets of the run — RRR-pool sampling, sweep-point evaluation, and
//! online pool maintenance — with bit-identical results at any count.
//! Argument parsing is deliberately dependency-free.

#![forbid(unsafe_code)]

use dita::core::{AlgorithmKind, DitaBuilder, DitaConfig, DitaPipeline, OnlineConfig};
use dita::datagen::{
    io as dio, DatasetProfile, InstanceOptions, LoadedDataset, ReplayOptions, ReplayStream,
    SyntheticDataset,
};
use dita::influence::{Parallelism, RpoParams};
use dita::serve::{client, ServeConfig, Server};
use dita::sim::platform::{simulate_day, DayConfig};
use dita::sim::{
    load_snapshot, render_table, replay_day, scripted_event, EngineBuilder, EventKind,
    ExperimentRunner, NetworkMode, OnlineEngine, PipelineMode, ReplayTranslator, SweepAxis,
    SweepValues,
};
use dita::types::TimeInstant;
use serde::json::Value;
use serde::Serialize as _;
use std::collections::HashMap;
use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = parse(&args).and_then(|(command, flags)| match command.as_str() {
        "generate" => cmd_generate(&flags),
        "assign" => cmd_assign(&flags),
        "comparison" => cmd_sweep(&flags, false),
        "ablation" => cmd_sweep(&flags, true),
        "simulate" => cmd_simulate(&flags),
        "online" => cmd_online(&flags),
        "replay" => cmd_replay(&flags),
        "serve" => cmd_serve(&flags),
        "post-replay" => cmd_post_replay(&flags),
        "help" | "--help" | "-h" => {
            println!("{USAGE}");
            Ok(())
        }
        other => Err(format!("unknown command '{other}'\n{USAGE}")),
    });
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "\
dita — influence-aware task assignment (ICDE 2022 reproduction)

USAGE: dita <mode> [--flag value ...]   (bare flags are booleans)

MODES
  generate     write a synthetic dataset (edges.tsv, checkins.tsv, profile.json)
  assign       train once, assign one instance, print metrics
  comparison   sweep one Table II axis over MTA / IA / EIA / DIA / MI
  ablation     sweep one axis over the IA variants (IA / IA-WP / IA-AP / IA-AW)
  simulate     one day of hourly rounds on a frozen pipeline
  online       multi-day streaming rounds with bounded RRR-pool rotation
  replay       train on a trace's past, stream one day of its check-ins
               through the online engine (workers first seen mid-day are
               folded into the live influence network)
  serve        long-running HTTP serving process around the online engine:
               POST /events (batched, 429 on a full queue), POST /round,
               GET /report, GET /healthz, POST /snapshot; start from
               training (--profile or --edges/--checkins/--day) or from a
               snapshot file (--restore)
  post-replay  HTTP client driver: translate one trace day into wire
               events and POST it round by round to a running dita serve
  help         print this text

FLAGS                 applies to            meaning (default)
  --profile P         all                   bk | fs | bk-small | fs-small (bk-small)
  --seed N            all                   master seed; every random phase
                                            derives from it (42)
  --threads N         all but generate      thread budget for the WHOLE run:
                                            RRR sampling during training,
                                            per-instance scoring (eligibility,
                                            cache warming, pair scan), sweep
                                            points, and online maintenance;
                                            0 = one per core; results are
                                            bit-identical at any count (0)
  --verbose           all but generate      print RPO diagnostics
  --out DIR           generate              output directory (data/)
  --day D             assign, simulate      simulated day index (0)
  --tasks S           assign                tasks per instance (150)
  --workers W         assign                workers per instance (120)
                      online                worker cohort per morning (100)
  --algorithm A       assign, simulate,     MTA | IA | EIA | DIA | MI | GREEDY
                      online                (IA)
  --phi H             assign, online        task valid time in hours (5 / 3)
  --radius KM         assign                reachable radius (25)
  --axis X            comparison, ablation  tasks | workers | phi | radius (tasks)
  --days D            online                days of rounds, 08:00-20:00 (2)
  --tasks-per-round T online                tasks published per round (20)
  --round-hours H     online                hours between rounds (1)
  --growth-cap G      online                rotation quantum: max RRR sets
                                            evicted AND sampled per round
                                            (1024; 0 = frozen pool)
  --horizon R         online                rounds before a set becomes
                                            eviction-eligible (24; 0 = never)
  --target-sets N     online                live-set target (0 = trained size)
  --no-incremental    online, replay        score through a cold cache every
                                            round instead of the persistent
                                            one (A/B baseline; reports are
                                            identical either way)
  --edges PATH        replay                social edge TSV (src\\tdst per line)
  --checkins PATH     replay                check-in TSV (the dita generate /
                                            io::write_checkins_tsv format)
  --day D             replay                trace day to replay; training uses
                                            every check-in before it (1)
  --rounds N          replay                cap on replayed rounds (0 = all)
  --task-every K      replay                every K-th check-in posts a task at
                                            its venue (2; 0 = no tasks)
  --linger H          replay                hours after a worker's last
                                            check-in before departure (4;
                                            0 = never)
  --phi H             replay                task valid time in hours (3)
  --radius KM         replay                worker reachable radius (25)
  --round-hours H     replay                hours between replay rounds (1)
  --growth-cap G      replay                as in online (1024)
  --horizon R         replay                as in online (24)
  --addr A            serve, post-replay    bind / target address
                                            (127.0.0.1:7117)
  --queue-cap N       serve                 bound on queued-but-unapplied
                                            events; full ⇒ 429 (4096)
  --http-threads N    serve                 HTTP worker threads (2)
  --snapshot PATH     serve                 where POST /snapshot writes
  --restore PATH      serve                 start from a snapshot instead
                                            of training; other training
                                            flags are ignored
  --edges PATH        serve, post-replay    as in replay (serve: train on
  --checkins PATH                           days before --day)
  --day D             serve, post-replay    trace day the server opens on /
                                            the client posts (1)
  --skip-rounds K     post-replay           translate but do not post the
                                            first K rounds — resume a day
                                            against a restored server (0)
                                            (--rounds, --task-every, --phi,
                                            --radius, --linger and
                                            --round-hours apply as in
                                            replay and must match the
                                            server's training run)

ENVIRONMENT
  DITA_SCALE=paper|small   sweep scale for the sc-bench figure binaries
  DITA_THREADS=N           thread budget for the sc-bench perf binaries";

/// Splits `args` into the mode and its `--flag value` pairs. Only the
/// flags `USAGE` lists are accepted, so a misspelt or retired flag is
/// an error rather than silently ignored.
fn parse(args: &[String]) -> Result<(String, HashMap<String, String>), String> {
    let command = args
        .first()
        .ok_or_else(|| format!("no mode given\n{USAGE}"))?
        .clone();
    let mut flags = HashMap::new();
    let mut i = 1;
    while i < args.len() {
        let key = args[i]
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument '{}'\n{USAGE}", args[i]))?;
        if !is_listed_flag(key) {
            return Err(format!("unknown flag --{key} (see dita help)"));
        }
        // A flag followed by another flag (or nothing) is boolean.
        match args.get(i + 1) {
            Some(v) if !v.starts_with("--") => {
                flags.insert(key.to_string(), v.clone());
                i += 2;
            }
            _ => {
                flags.insert(key.to_string(), "true".to_string());
                i += 1;
            }
        }
    }
    Ok((command, flags))
}

/// Whether `USAGE` has a flag line (`  --name ...`) for `name`.
fn is_listed_flag(name: &str) -> bool {
    USAGE
        .lines()
        .filter_map(|line| line.strip_prefix("  --"))
        .any(|line| line.split_whitespace().next() == Some(name))
}

fn threads_of(flags: &HashMap<String, String>) -> Result<Parallelism, String> {
    match num::<usize>(flags, "threads", 0)? {
        0 => Ok(Parallelism::Auto),
        n => Ok(Parallelism::Fixed(n)),
    }
}

fn verbose_of(flags: &HashMap<String, String>) -> bool {
    matches!(flags.get("verbose").map(String::as_str), Some("true" | "1"))
}

/// `--no-incremental` opts a streaming run out of the persistent
/// scorer cache: every round scores through a cold cache. Reports are
/// bit-identical either way; this is the A/B baseline the benches
/// compare against.
fn incremental_of(flags: &HashMap<String, String>) -> bool {
    !matches!(
        flags.get("no-incremental").map(String::as_str),
        Some("true" | "1")
    )
}

fn profile_of(flags: &HashMap<String, String>) -> Result<DatasetProfile, String> {
    match flags
        .get("profile")
        .map(String::as_str)
        .unwrap_or("bk-small")
    {
        "bk" => Ok(DatasetProfile::brightkite()),
        "fs" => Ok(DatasetProfile::foursquare()),
        "bk-small" => Ok(DatasetProfile::brightkite_small()),
        "fs-small" => Ok(DatasetProfile::foursquare_small()),
        other => Err(format!("unknown profile '{other}'")),
    }
}

fn num<T: std::str::FromStr>(
    flags: &HashMap<String, String>,
    key: &str,
    default: T,
) -> Result<T, String> {
    match flags.get(key) {
        None => Ok(default),
        Some(v) => v.parse().map_err(|_| format!("bad --{key} value '{v}'")),
    }
}

fn algorithm_of(flags: &HashMap<String, String>) -> Result<AlgorithmKind, String> {
    match flags
        .get("algorithm")
        .map(|s| s.to_uppercase())
        .as_deref()
        .unwrap_or("IA")
    {
        "MTA" => Ok(AlgorithmKind::Mta),
        "IA" => Ok(AlgorithmKind::Ia),
        "EIA" => Ok(AlgorithmKind::Eia),
        "DIA" => Ok(AlgorithmKind::Dia),
        "MI" => Ok(AlgorithmKind::Mi),
        "GREEDY" => Ok(AlgorithmKind::GreedyNearest),
        other => Err(format!("unknown algorithm '{other}'")),
    }
}

fn cli_config(n_workers: usize, seed: u64, threads: Parallelism) -> DitaConfig {
    // Scale the model budget with the dataset so `bk`/`fs` stay usable
    // from the command line.
    let small = n_workers <= 1_000;
    DitaConfig {
        n_topics: if small { 12 } else { 50 },
        lda_sweeps: if small { 25 } else { 60 },
        infer_sweeps: 10,
        rpo: RpoParams {
            max_sets: if small { 30_000 } else { 400_000 },
            threads,
            ..Default::default()
        },
        seed,
        ..Default::default()
    }
}

fn train(
    profile: &DatasetProfile,
    seed: u64,
    threads: Parallelism,
    verbose: bool,
) -> (SyntheticDataset, DitaPipeline) {
    eprintln!(
        "training DITA on '{}' ({} workers, {} sampling thread(s))…",
        profile.name, profile.n_workers, threads
    );
    let data = SyntheticDataset::generate(profile, seed);
    let pipeline = DitaBuilder::new()
        .config(cli_config(profile.n_workers, seed, threads))
        .build(&data.social, &data.histories)
        .expect("training");
    if verbose {
        print_rpo_stats(&pipeline);
    }
    (data, pipeline)
}

fn print_rpo_stats(pipeline: &DitaPipeline) {
    let s = pipeline.model().rpo_stats();
    eprintln!(
        "RPO: {} sets sampled ({} in pool), {} halving round(s), k = {:.1}, \
         threshold test {}, σ_lb = {:.2}, N'_R = {:.0}, capped = {}",
        s.sets_sampled,
        s.n_sets,
        s.rounds,
        s.k_final,
        if s.test_passed { "passed" } else { "exhausted" },
        s.sigma_lower_bound,
        s.nr_prime,
        s.capped
    );
    eprintln!(
        "RPO wall time: search {:.1} ms, top-up {:.1} ms (thread budget {})",
        s.search_ms, s.topup_ms, s.threads
    );
}

fn cmd_generate(flags: &HashMap<String, String>) -> Result<(), String> {
    let profile = profile_of(flags)?;
    let seed: u64 = num(flags, "seed", 42)?;
    let out = PathBuf::from(flags.get("out").cloned().unwrap_or_else(|| "data".into()));
    std::fs::create_dir_all(&out).map_err(|e| e.to_string())?;
    let data = SyntheticDataset::generate(&profile, seed);
    dio::write_edges_tsv(&out.join("edges.tsv"), &data.social_edges).map_err(|e| e.to_string())?;
    dio::write_checkins_tsv(&out.join("checkins.tsv"), &data.histories)
        .map_err(|e| e.to_string())?;
    let profile_json = serde_json::to_string_pretty(&data.profile).map_err(|e| e.to_string())?;
    std::fs::write(out.join("profile.json"), profile_json).map_err(|e| e.to_string())?;
    println!(
        "wrote {} edges and {} check-ins to {}",
        data.social_edges.len(),
        data.histories.total_checkins(),
        out.display()
    );
    Ok(())
}

fn cmd_assign(flags: &HashMap<String, String>) -> Result<(), String> {
    let profile = profile_of(flags)?;
    let seed: u64 = num(flags, "seed", 42)?;
    let day: usize = num(flags, "day", 0)?;
    let n_tasks: usize = num(flags, "tasks", 150)?;
    let n_workers: usize = num(flags, "workers", 120)?;
    let algorithm = algorithm_of(flags)?;
    let opts = InstanceOptions {
        valid_hours: num(flags, "phi", 5.0)?,
        radius_km: num(flags, "radius", 25.0)?,
        ..Default::default()
    };

    let (data, pipeline) = train(&profile, seed, threads_of(flags)?, verbose_of(flags));
    let inst = data.instance_for_day(day, n_tasks, n_workers, opts);
    let start = std::time::Instant::now();
    let a = pipeline.assign_with_venues(&inst.instance, &inst.task_venues, algorithm);
    let elapsed = start.elapsed();
    println!(
        "{algorithm} on day {day}: |S|={}, |W|={}, φ={}h, r={}km",
        inst.instance.n_tasks(),
        inst.instance.n_workers(),
        opts.valid_hours,
        opts.radius_km
    );
    let rows = vec![vec![
        format!("{}", a.len()),
        format!("{:.4}", a.average_influence()),
        format!("{:.4}", pipeline.average_propagation(&a)),
        format!("{:.2}", a.average_travel_km()),
        format!("{:.1}", elapsed.as_secs_f64() * 1e3),
    ]];
    print!(
        "{}",
        render_table(&["assigned", "AI", "AP", "travel km", "cpu ms"], &rows)
    );
    Ok(())
}

fn axis_of(flags: &HashMap<String, String>, profile: &DatasetProfile) -> Result<SweepAxis, String> {
    let small = profile.n_workers <= 1_000;
    let scale = |v: usize| if small { v / 10 } else { v };
    match flags.get("axis").map(String::as_str).unwrap_or("tasks") {
        "tasks" => Ok(SweepAxis::Tasks(
            [500, 1000, 1500, 2000, 2500].map(scale).to_vec(),
        )),
        "workers" => Ok(SweepAxis::Workers(
            [400, 800, 1200, 1600, 2000].map(scale).to_vec(),
        )),
        "phi" => Ok(SweepAxis::ValidHours(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0])),
        "radius" => Ok(SweepAxis::RadiusKm(vec![5.0, 10.0, 15.0, 20.0, 25.0])),
        other => Err(format!("unknown axis '{other}'")),
    }
}

fn cmd_sweep(flags: &HashMap<String, String>, ablation: bool) -> Result<(), String> {
    let profile = profile_of(flags)?;
    let seed: u64 = num(flags, "seed", 42)?;
    let axis = axis_of(flags, &profile)?;
    let small = profile.n_workers <= 1_000;
    let defaults = if small {
        SweepValues::small_defaults()
    } else {
        SweepValues::paper_defaults()
    };
    let threads = threads_of(flags)?;
    let config = cli_config(profile.n_workers, seed, threads);
    // One knob for the whole run: `threads` governs RRR sampling during
    // training (inside `config.rpo`) *and* sweep-point evaluation below.
    let runner = ExperimentRunner::with_threads(&profile, seed, config, threads).days(4);
    if verbose_of(flags) {
        print_rpo_stats(runner.pipeline());
    }

    if ablation {
        let points = runner.run_ablation(&axis, &defaults);
        let mut headers = vec![axis.name().to_string()];
        headers.extend(points[0].ai.iter().map(|(l, _)| l.clone()));
        let headers_ref: Vec<&str> = headers.iter().map(String::as_str).collect();
        let rows: Vec<Vec<String>> = points
            .iter()
            .map(|p| {
                let mut row = vec![format!("{}", p.x)];
                row.extend(p.ai.iter().map(|(_, ai)| format!("{ai:.4}")));
                row
            })
            .collect();
        print!("{}", render_table(&headers_ref, &rows));
    } else {
        let points = runner.run_comparison(&axis, &defaults);
        let mut headers = vec![axis.name().to_string()];
        headers.extend(points[0].rows.iter().map(|r| r.algorithm.clone()));
        let headers_ref: Vec<&str> = headers.iter().map(String::as_str).collect();
        println!("Average Influence (AI):");
        let rows: Vec<Vec<String>> = points
            .iter()
            .map(|p| {
                let mut row = vec![format!("{}", p.x)];
                row.extend(p.rows.iter().map(|r| format!("{:.4}", r.ai)));
                row
            })
            .collect();
        print!("{}", render_table(&headers_ref, &rows));
        println!("\nassigned tasks:");
        let rows: Vec<Vec<String>> = points
            .iter()
            .map(|p| {
                let mut row = vec![format!("{}", p.x)];
                row.extend(p.rows.iter().map(|r| format!("{:.1}", r.assigned)));
                row
            })
            .collect();
        print!("{}", render_table(&headers_ref, &rows));
    }
    Ok(())
}

/// `dita online` — multi-day streaming run on the online engine:
/// hourly assignment rounds with bounded RRR-pool rotation instead of
/// retraining, reported per round.
fn cmd_online(flags: &HashMap<String, String>) -> Result<(), String> {
    let profile = profile_of(flags)?;
    let seed: u64 = num(flags, "seed", 42)?;
    let days: usize = num(flags, "days", 2)?;
    let n_workers: usize = num(flags, "workers", 100)?;
    let tasks_per_round: usize = num(flags, "tasks-per-round", 20)?;
    let phi: f64 = num(flags, "phi", 3.0)?;
    let algorithm = algorithm_of(flags)?;
    let threads = threads_of(flags)?;
    let round_hours: i64 = num(flags, "round-hours", 1)?;
    if round_hours < 1 {
        return Err("--round-hours must be at least 1".into());
    }
    let online = OnlineConfig {
        round_hours,
        growth_cap: num(flags, "growth-cap", 1_024)?,
        eviction_horizon: num(flags, "horizon", 24)?,
        target_sets: num(flags, "target-sets", 0)?,
        incremental: incremental_of(flags),
    };

    eprintln!(
        "training DITA on '{}' ({} workers, {} sampling thread(s))…",
        profile.name, profile.n_workers, threads
    );
    let data = SyntheticDataset::generate(&profile, seed);
    let pipeline = DitaBuilder::new()
        .config(cli_config(profile.n_workers, seed, threads))
        .online(online)
        .build(&data.social, &data.histories)
        .expect("training");
    if verbose_of(flags) {
        print_rpo_stats(&pipeline);
    }
    let trained_sets = pipeline.model().pool().n_sets();

    let mut engine = EngineBuilder::new()
        .pipeline(PipelineMode::Owned(Box::new(pipeline)))
        .network(NetworkMode::Fixed(&data.social))
        .build();
    let opts = InstanceOptions {
        valid_hours: phi,
        ..Default::default()
    };
    println!("round  time    open  online  assigned      AI    pool  +new  -old  maint ms");
    let mut next_task_id = 0u32;
    for day in 0..days {
        let cohort = data.instance_for_day(day, 0, n_workers, opts);
        for worker in cohort.instance.workers {
            engine.ingest(EventKind::WorkerArrival { worker });
        }
        // Rounds run every `round_hours` across the operating window.
        for hour in (8..20i64).step_by(online.round_hours as usize) {
            let now = TimeInstant::at(day as i64, hour);
            for _ in 0..tasks_per_round {
                engine.ingest(scripted_event(&data, seed, next_task_id, now, phi));
                next_task_id += 1;
            }
            let r = engine.run_round(now, algorithm);
            println!(
                "{:>5}  d{}:{:02}  {:>4}  {:>6}  {:>8}  {:>6.4}  {:>6}  {:>4}  {:>4}  {:>8.2}",
                r.round,
                day,
                hour,
                r.available_tasks,
                r.online_workers,
                r.assigned,
                r.ai,
                r.pool_sets,
                r.sets_added,
                r.sets_evicted,
                r.maintenance_ms
            );
        }
    }
    let s = engine.summary();
    let pool = engine.pipeline().model().pool();
    println!(
        "published {}, assigned {} ({:.0}%), expired {}, open {}; AI {:.4}",
        s.published,
        s.assigned,
        s.assignment_rate() * 100.0,
        s.expired,
        s.still_open,
        s.average_influence
    );
    println!(
        "pool: trained {}, live {}, stream window [{}, {}); maintenance sampled {} / evicted {} sets in {:.1} ms over {} rounds (zero full retrains)",
        trained_sets,
        pool.n_sets(),
        pool.stream_base(),
        pool.stream_base() + pool.n_sets(),
        s.sets_added,
        s.sets_evicted,
        s.maintenance_ms,
        s.rounds
    );
    Ok(())
}

/// `dita replay` — dataset-backed streaming replay: train the pipeline
/// on every check-in *before* `--day`, then stream that day's check-ins
/// through an adaptive online engine round by round. Workers first seen
/// mid-day are folded into the live influence network (non-zero
/// influence, no retrain); per-round reports and a fold-in summary are
/// printed.
fn cmd_replay(flags: &HashMap<String, String>) -> Result<(), String> {
    let edges = flags
        .get("edges")
        .ok_or("replay needs --edges <path> (TSV: src\\tdst per line)")?;
    let checkins = flags
        .get("checkins")
        .ok_or("replay needs --checkins <path> (the io::write_checkins_tsv format)")?;
    let day: i64 = num(flags, "day", 1)?;
    let seed: u64 = num(flags, "seed", 42)?;
    let threads = threads_of(flags)?;
    let algorithm = algorithm_of(flags)?;
    let round_hours: i64 = num(flags, "round-hours", 1)?;
    if round_hours < 1 {
        return Err("--round-hours must be at least 1".into());
    }
    let opts = ReplayOptions {
        round_hours,
        task_every: num(flags, "task-every", 2)?,
        valid_hours: num(flags, "phi", 3.0)?,
        radius_km: num(flags, "radius", 25.0)?,
        linger_hours: num(flags, "linger", 4)?,
        max_rounds: num(flags, "rounds", 0)?,
        ..Default::default()
    };
    let online = OnlineConfig {
        round_hours,
        growth_cap: num(flags, "growth-cap", 1_024)?,
        eviction_horizon: num(flags, "horizon", 24)?,
        target_sets: num(flags, "target-sets", 0)?,
        incremental: incremental_of(flags),
    };

    let data = LoadedDataset::from_tsv(
        std::path::Path::new(edges),
        std::path::Path::new(checkins),
        seed,
    )
    .map_err(|e| e.to_string())?;
    eprintln!(
        "loaded trace: {} workers, {} venues, {} check-ins; training on days < {day} \
         ({} sampling thread(s))…",
        data.n_workers(),
        data.venues.len(),
        data.histories.total_checkins(),
        threads
    );
    // Size the model budget from the trained-population count without
    // building the full training slice twice (replay_day builds it):
    // one scan for "has any pre-day check-in" is enough here.
    let slice_size = data
        .histories
        .iter()
        .filter(|(_, h)| h.records().iter().any(|r| r.arrived.day() < day))
        .count();
    let mut config = cli_config(slice_size, seed, threads);
    config.online = online;
    let run = replay_day(&data, day, config, &opts, algorithm).map_err(|e| e.to_string())?;
    let report = &run.report;
    if verbose_of(flags) {
        print_rpo_stats(run.engine.pipeline());
    }

    println!("round  time    in  +fold  open  online  assigned      AI    pool  +new  -old");
    for r in &report.rounds {
        println!(
            "{:>5}  {}  {:>4}  {:>5}  {:>4}  {:>6}  {:>8}  {:>6.4}  {:>6}  {:>4}  {:>4}",
            r.report.round,
            r.report.now,
            r.checkins,
            r.fold_ins,
            r.report.available_tasks,
            r.report.online_workers,
            r.report.assigned,
            r.report.ai,
            r.report.pool_sets,
            r.report.sets_added,
            r.report.sets_evicted,
        );
    }
    let s = &report.summary;
    println!(
        "replayed day {day}: {} rounds, {} check-ins, {} tasks posted",
        report.rounds.len(),
        report.checkins,
        s.published
    );
    println!(
        "population: trained {}, folded in {} late arrival(s) \
         ({} rejected), final {}",
        report.trained_workers,
        report.fold_ins(),
        report.rounds.iter().map(|r| r.rejected).sum::<usize>(),
        run.engine.pipeline().model().n_workers()
    );
    println!(
        "published {}, assigned {} ({:.0}%), expired {}, open {}; AI {:.4}",
        s.published,
        s.assigned,
        s.assignment_rate() * 100.0,
        s.expired,
        s.still_open,
        s.average_influence
    );
    let pool = run.engine.pipeline().model().pool();
    println!(
        "pool: {} live sets, stream window [{}, {}); maintenance sampled {} / evicted {} \
         sets over {} rounds (zero full retrains)",
        pool.n_sets(),
        pool.stream_base(),
        pool.stream_base() + pool.n_sets(),
        s.sets_added,
        s.sets_evicted,
        s.rounds
    );
    Ok(())
}

/// Builds the serving engine: restored from a snapshot (`--restore`),
/// trained on a trace's past (`--edges`/`--checkins`/`--day`), or
/// trained on a synthetic profile (`--profile`, the default). Trained
/// engines are adaptive: previously-unseen workers arriving over the
/// wire as `worker_new` events are folded into the live network.
fn serve_engine(flags: &HashMap<String, String>) -> Result<OnlineEngine<'static>, String> {
    if let Some(path) = flags.get("restore") {
        eprintln!("restoring engine from {path}…");
        return load_snapshot(std::path::Path::new(path)).map_err(|e| e.to_string());
    }
    let seed: u64 = num(flags, "seed", 42)?;
    let threads = threads_of(flags)?;
    let online = OnlineConfig {
        round_hours: num(flags, "round-hours", 1)?,
        growth_cap: num(flags, "growth-cap", 1_024)?,
        eviction_horizon: num(flags, "horizon", 24)?,
        target_sets: num(flags, "target-sets", 0)?,
        incremental: incremental_of(flags),
    };
    let (pipeline, social) = if let Some(edges) = flags.get("edges") {
        let checkins = flags
            .get("checkins")
            .ok_or("serve with --edges needs --checkins")?;
        let day: i64 = num(flags, "day", 1)?;
        let data = LoadedDataset::from_tsv(
            std::path::Path::new(edges),
            std::path::Path::new(checkins),
            seed,
        )
        .map_err(|e| e.to_string())?;
        let slice = data.training_slice(day).map_err(|e| e.to_string())?;
        eprintln!(
            "training on trace days < {day}: {} workers, {} check-ins \
             ({} sampling thread(s))…",
            slice.social.n_workers(),
            slice.histories.total_checkins(),
            threads
        );
        let pipeline = DitaBuilder::new()
            .config(cli_config(slice.social.n_workers(), seed, threads))
            .online(online)
            .build(&slice.social, &slice.histories)
            .map_err(|e| e.to_string())?;
        (pipeline, slice.social)
    } else {
        let profile = profile_of(flags)?;
        eprintln!(
            "training DITA on '{}' ({} workers, {} sampling thread(s))…",
            profile.name, profile.n_workers, threads
        );
        let data = SyntheticDataset::generate(&profile, seed);
        let pipeline = DitaBuilder::new()
            .config(cli_config(profile.n_workers, seed, threads))
            .online(online)
            .build(&data.social, &data.histories)
            .map_err(|e| e.to_string())?;
        (pipeline, data.social)
    };
    if verbose_of(flags) {
        print_rpo_stats(&pipeline);
    }
    Ok(EngineBuilder::new()
        .pipeline(PipelineMode::Owned(Box::new(pipeline)))
        .network(NetworkMode::Adaptive(Box::new(social)))
        .build())
}

/// `dita serve` — the long-running online-serving process: a bounded
/// event queue behind `POST /events`, rounds on `POST /round`, state
/// capture on `POST /snapshot`. Runs until killed; restartable from
/// the last snapshot with `--restore`.
fn cmd_serve(flags: &HashMap<String, String>) -> Result<(), String> {
    let config = ServeConfig {
        addr: flags
            .get("addr")
            .cloned()
            .unwrap_or_else(|| "127.0.0.1:7117".to_string()),
        queue_cap: num(flags, "queue-cap", 4_096)?,
        http_threads: num(flags, "http-threads", 2)?,
        algorithm: algorithm_of(flags)?,
        snapshot_path: flags.get("snapshot").map(PathBuf::from),
    };
    let engine = serve_engine(flags)?;
    let server = Server::start(engine, config).map_err(|e| e.to_string())?;
    println!("dita serve listening on http://{}", server.local_addr());
    println!(
        "  POST /events    ingest a JSON event batch (202, or 429 when the queue is full)\n\
         \x20 POST /round     drain the queue and close a round ({{\"day\",\"hour\"}} or {{\"at\"}})\n\
         \x20 GET  /report    rounds served, lifetime summary, last round\n\
         \x20 POST /snapshot  fold queued events in and write the snapshot file\n\
         \x20 GET  /healthz   liveness and queue depth"
    );
    loop {
        std::thread::park();
    }
}

/// `dita post-replay` — the wire twin of `dita replay`: translates one
/// trace day into `EventKind` batches with the same
/// [`ReplayTranslator`] `dita replay` ingests from, and drives a
/// running `dita serve` with them, one `POST /events` + `POST /round`
/// per replay round. Any server-side rejections are surfaced in the
/// per-round counts.
fn cmd_post_replay(flags: &HashMap<String, String>) -> Result<(), String> {
    let addr = flags
        .get("addr")
        .cloned()
        .unwrap_or_else(|| "127.0.0.1:7117".to_string());
    let edges = flags.get("edges").ok_or("post-replay needs --edges")?;
    let checkins = flags
        .get("checkins")
        .ok_or("post-replay needs --checkins")?;
    let day: i64 = num(flags, "day", 1)?;
    let seed: u64 = num(flags, "seed", 42)?;
    let opts = ReplayOptions {
        round_hours: num(flags, "round-hours", 1)?,
        task_every: num(flags, "task-every", 2)?,
        valid_hours: num(flags, "phi", 3.0)?,
        radius_km: num(flags, "radius", 25.0)?,
        linger_hours: num(flags, "linger", 4)?,
        max_rounds: num(flags, "rounds", 0)?,
        ..Default::default()
    };
    // Rounds before `--skip-rounds` are translated (the dense-id
    // mapping must advance through their fold-ins) but not posted —
    // the tool that resumes a day against a snapshot-restored server.
    let skip: usize = num(flags, "skip-rounds", 0)?;
    let data = LoadedDataset::from_tsv(
        std::path::Path::new(edges),
        std::path::Path::new(checkins),
        seed,
    )
    .map_err(|e| e.to_string())?;
    let slice = data.training_slice(day).map_err(|e| e.to_string())?;
    let stream = ReplayStream::from_dataset(&data, day, &opts).map_err(|e| e.to_string())?;

    let mut translator = ReplayTranslator::new(&data, &opts, slice.to_dense);
    let mut posted = 0usize;
    let mut rejected_total = 0usize;
    for (round_idx, round) in stream.rounds().iter().enumerate() {
        let batch: Vec<Value> = round
            .events
            .iter()
            .filter_map(|e| translator.translate(e))
            .map(|kind| kind.to_value())
            .collect();
        if round_idx < skip {
            continue;
        }
        let n_events = batch.len();
        if n_events > 0 {
            let body = Value::Array(batch).to_json_string();
            let (status, reply) =
                client::request(&addr, "POST", "/events", &body).map_err(|e| e.to_string())?;
            if status != 202 {
                return Err(format!("POST /events failed ({status}): {reply}"));
            }
        }
        let (status, reply) = client::request(
            &addr,
            "POST",
            "/round",
            &format!("{{\"at\": {}}}", round.now.as_seconds()),
        )
        .map_err(|e| e.to_string())?;
        if status != 200 {
            return Err(format!("POST /round failed ({status}): {reply}"));
        }
        let (applied, rejected) = round_counts(&reply)?;
        rejected_total += rejected;
        posted += 1;
        println!(
            "round at {}: {n_events} posted, {applied} applied, {rejected} rejected",
            round.now
        );
    }
    let (status, report) =
        client::request(&addr, "GET", "/report", "").map_err(|e| e.to_string())?;
    if status != 200 {
        return Err(format!("GET /report failed ({status}): {report}"));
    }
    println!(
        "posted {posted} round(s) ({} events rejected server-side); final report:",
        rejected_total
    );
    println!("{report}");
    Ok(())
}

/// Pulls `(applied, rejected)` out of a `POST /round` reply.
fn round_counts(reply: &str) -> Result<(usize, usize), String> {
    let value = serde::json::parse(reply).map_err(|e| format!("bad /round reply: {e}"))?;
    let obj = value.as_object().ok_or("bad /round reply: not an object")?;
    let applied: usize = serde::get_field(obj, "applied").map_err(|e| e.to_string())?;
    let rejected: usize = serde::get_field(obj, "rejected").map_err(|e| e.to_string())?;
    Ok((applied, rejected))
}

fn cmd_simulate(flags: &HashMap<String, String>) -> Result<(), String> {
    let profile = profile_of(flags)?;
    let seed: u64 = num(flags, "seed", 42)?;
    let day: usize = num(flags, "day", 0)?;
    let algorithm = algorithm_of(flags)?;
    let (data, pipeline) = train(&profile, seed, threads_of(flags)?, verbose_of(flags));
    let config = DayConfig::default();
    let report = simulate_day(&data, &pipeline, day, &config, algorithm);
    println!("hour  open  online  assigned      AI");
    for h in &report.hours {
        println!(
            "{:>4}  {:>4}  {:>6}  {:>8}  {:>6.4}",
            format!("{:02}", h.hour),
            h.available_tasks,
            h.online_workers,
            h.assigned,
            h.ai
        );
    }
    println!(
        "published {}, assigned {} ({:.0}%), expired {}, open {}",
        report.published,
        report.assigned,
        report.assignment_rate() * 100.0,
        report.expired,
        report.still_open
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> Vec<String> {
        line.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn unlisted_flags_are_refused_by_name() {
        for (line, flag) in [
            ("assign --solver spfa", "--solver"),
            ("assign --thread 4", "--thread"),
            ("serve --verbose --no-such-flag", "--no-such-flag"),
        ] {
            let err = parse(&args(line)).expect_err(line);
            assert!(err.contains(flag), "{line}: {err}");
        }
    }

    #[test]
    fn ci_smoke_command_lines_parse() {
        let fixture = "--edges tests/fixtures/replay_edges.tsv \
                       --checkins tests/fixtures/replay_checkins.tsv --day 1";
        for line in [
            format!("replay {fixture}"),
            format!("serve {fixture} --threads 1 --addr 127.0.0.1:7311 --snapshot snap.json"),
            format!("post-replay --addr 127.0.0.1:7311 {fixture} --rounds 3"),
            format!("post-replay --addr 127.0.0.1:7311 {fixture} --skip-rounds 3"),
            "serve --restore snap.json --addr 127.0.0.1:7312".to_string(),
        ] {
            let (_, flags) = parse(&args(&line)).unwrap_or_else(|e| panic!("{line}: {e}"));
            assert!(!flags.is_empty(), "{line}");
        }
        let (command, flags) = parse(&args("online --no-incremental --verbose")).unwrap();
        assert_eq!(command, "online");
        assert_eq!(flags["no-incremental"], "true");
        assert_eq!(flags["verbose"], "true");
    }
}

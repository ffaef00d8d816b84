//! `servebench` — the serving benchmark of the DITA reproduction.
//!
//! It starts the serving front `dita serve` runs (`sc_serve::Server`)
//! on a loopback port and drives it only over sockets with one of three
//! workloads, then replays the same wire bodies in-process:
//!
//! * `steady` — 2,000 BK-profile workers, 300 venues; a 1,500-worker
//!   cohort re-logs in every hourly round (5 km) and 250 tasks (φ = 3 h)
//!   are posted, in 200-event bodies. Reuse is at its best; decode is on
//!   the ingest path.
//! * `contested` — the same population: 600 workers against 500 tasks
//!   per round within 30 km. The solve phase dominates every round and
//!   `GET /report` waits on the lock `POST /round` holds.
//! * `churn` — a trace whose every fifth worker signs up after the
//!   training window; consecutive days replayed as `dita post-replay`
//!   does, one event per request, with fold-ins, departures, and a
//!   snapshot restored into a fresh server.
//!
//! ```text
//! cargo --config servebench/cargo-config.toml run --release --offline \
//!     --manifest-path servebench/Cargo.toml -- \
//!     --workload steady --seed 1 --seconds 12 --trace 0
//! ```
//!
//! `--workload all` runs the three in turn. `--trace 0` serves the
//! stream untraced and prints the end-to-end metrics; `--trace 1` also
//! runs a traced in-process replay of the same bodies and prints the
//! per-layer metrics. Either way every served `/round` reply and the
//! final `/report` must equal the replay's byte for byte (on `churn`,
//! the restored server must answer like the original), or the run prints
//! no metrics and exits non-zero. The report names every metric; the
//! last line of standard output is one JSON object (`correct`,
//! `attempted`, `failed`, `metrics`) carrying those `BENCHMARK.json`
//! lists. `--smoke` shrinks every workload for a quick end-to-end check.
//!
//! A run is fixed work: `--seconds` sets the number of rounds through
//! each workload's nominal rate on a 2-core host (at least 101, so a p90
//! has ten samples beyond it), so both sides of a comparison replay the
//! same stream and the outputs depend on the seed alone.

mod replay;
mod report;
mod served;
mod stats;
mod sys;
mod workload;

use std::path::Path;
use workload::{Kind, Size};

/// Where snapshots and span files go, relative to the working directory.
const OUT_DIR: &str = ".servebench-out";

struct Args {
    kinds: Vec<Kind>,
    seed: u64,
    seconds: u64,
    trace: bool,
    smoke: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut kinds, mut seed, mut seconds, mut trace, mut smoke) = (None, 1, 12, false, false);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                kinds = Some(match name.as_str() {
                    "all" => vec![Kind::Steady, Kind::Contested, Kind::Churn],
                    _ => vec![Kind::parse(&name).ok_or(format!("unknown workload '{name}'"))?],
                });
            }
            "--seed" => seed = value()?.parse().map_err(|_| "bad --seed")?,
            "--seconds" => seconds = value()?.parse().map_err(|_| "bad --seconds")?,
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--smoke" => smoke = true,
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    Ok(Args {
        kinds: kinds.ok_or("--workload steady|contested|churn|all is required")?,
        seed,
        seconds,
        trace,
        smoke,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("servebench: {e}");
            std::process::exit(2);
        }
    };
    let out_dir = Path::new(OUT_DIR);
    std::fs::create_dir_all(out_dir).expect("create the output directory");
    for &kind in &args.kinds {
        run(kind, &args, out_dir);
    }
}

/// Runs one workload: generates it, serves it, replays it, checks the
/// answers, and prints the report and the result line. Exits non-zero,
/// printing no metrics, when a check fails.
fn run(kind: Kind, args: &Args, out_dir: &Path) {
    let size = Size::for_seconds(kind, args.seconds, args.smoke);
    let workload = workload::generate(kind, args.seed, size);
    let (served, reference) = served::run(&workload, out_dir);
    let engine_threads = reference.pipeline().scoring_threads();
    let replay = replay::replay(reference, &workload, args.trace, out_dir);

    let failures = report::check(&workload, &served, &replay);
    if !failures.is_empty() {
        for f in &failures {
            eprintln!("servebench: {} check failed: {f}", kind.name());
        }
        std::process::exit(1);
    }
    let run = report::Run {
        workload: &workload,
        served: &served,
        replay: &replay,
        seed: args.seed,
        seconds: args.seconds,
        engine_threads,
    };
    run.print(args.trace);
    if args.trace {
        let path = out_dir.join(format!("spans-{}.jsonl", kind.name()));
        run.write_spans(&path).expect("write the span file");
        println!("spans written to {}", path.display());
    }
    let (attempted, failed) = run.attempted_failed();
    println!(
        "{}",
        stats::result_line(attempted, failed, &run.result_metrics(args.trace))
    );
}

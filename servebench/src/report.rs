//! Output checks, metrics, and the human-readable report.

use crate::replay::{Replay, Span};
use crate::served::{Served, Tally, POLL_HZ, SETUPS};
use crate::stats::{mean, median, metric, quantile, ratio, Metric};
use crate::workload::Workload;
use sc_sim::RoundReport;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

/// Compares the served run's answers with the replay's; one message per
/// failed check.
pub fn check(workload: &Workload, served: &Served, replay: &Replay) -> Vec<String> {
    let mut failures = Vec::new();
    for (i, (got, want)) in served
        .round_replies
        .iter()
        .zip(&replay.round_replies)
        .enumerate()
    {
        if got != want {
            failures.push(format!(
                "round {i}: served /round reply differs from the replay\n  served: {got}\n  replay: {want}"
            ));
        }
    }
    if served.round_replies.len() != workload.rounds.len() {
        failures.push("the served run closed fewer rounds than the stream has".into());
    }
    if served.final_report != replay.final_report {
        failures.push(format!(
            "final /report differs from the replay\n  served: {}\n  replay: {}",
            served.final_report, replay.final_report
        ));
    }
    for (who, restored) in [
        ("served", &served.restored_report),
        ("replayed", &replay.restored_report),
    ] {
        if let Some(restored) = restored {
            if *restored != replay.final_report {
                failures.push(format!(
                    "{who} restore: /report after the replayed rounds differs from the original\n  restored: {restored}\n  original: {}",
                    replay.final_report
                ));
            }
        }
    }
    if let Some(at) = workload.snapshot_at {
        if served.restored_report.is_none() {
            failures.push("the served run did not restore its snapshot".into());
        }
        if served.restored_replies[..] != served.round_replies[at..] {
            failures.push("the restored server's /round replies differ from the original's".into());
        }
    }
    failures
}

/// Everything a run produced, for metrics and printing.
pub struct Run<'a> {
    /// The generated workload.
    pub workload: &'a Workload,
    /// The served run.
    pub served: &'a Served,
    /// The replay (traced or not).
    pub replay: &'a Replay,
    /// The seed the workload was generated from.
    pub seed: u64,
    /// `--seconds`.
    pub seconds: u64,
    /// The engine's scoring thread budget.
    pub engine_threads: usize,
}

/// A metric printed in the report, and whether the result line carries
/// it or only the report does. The result line carries what every
/// workload measures and what stays steady from run to run on a shared
/// 2-vCPU VM: there, CPU time the hypervisor steals for other guests
/// swings between runs (1-30 %) and moves wall-clock latencies and
/// throughput by up to a third, while the process's own CPU time per
/// event and per round, as medians over the rounds of a run, moves far
/// less.
struct Row {
    metric: Metric,
    result: bool,
}

fn row(name: &str, unit: &'static str, value: f64) -> Row {
    Row {
        metric: metric(name, unit, value),
        result: true,
    }
}

fn report_only(name: &str, unit: &'static str, value: f64) -> Row {
    Row {
        metric: metric(name, unit, value),
        result: false,
    }
}

fn summary_field(report: &str, name: &str) -> f64 {
    let value = serde::json::parse(report).expect("/report is JSON");
    let summary = value
        .as_object()
        .and_then(|o| o.iter().find(|(k, _)| k == "summary"))
        .expect("/report has a summary");
    serde::get_field(summary.1.as_object().expect("summary object"), name).expect("summary field")
}

impl Run<'_> {
    fn total(&self) -> Tally {
        let mut total = Tally::default();
        for t in self.served.tallies.values() {
            total.sent += t.sent;
            total.ok += t.ok;
        }
        total
    }

    /// Requests sent and requests without a 2xx reply.
    pub fn attempted_failed(&self) -> (u64, u64) {
        let t = self.total();
        (t.sent, t.failed())
    }

    fn end_to_end(&self) -> Vec<Row> {
        let s = self.served;
        let warm = &s.round_ms[1.min(s.round_ms.len())..];
        let published = summary_field(&s.final_report, "published");
        let total = self.total();
        let mut rows = vec![
            row(
                "setup_s",
                "s",
                median(&s.setups.iter().map(|x| x.cpu_s).collect::<Vec<_>>()),
            ),
            report_only(
                "setup_wall_s",
                "s",
                median(&s.setups.iter().map(|x| x.total_s).collect::<Vec<_>>()),
            ),
            report_only("round_p50_ms", "ms", quantile(warm, 0.5)),
            report_only("round_p90_ms", "ms", quantile(warm, 0.9)),
            report_only("events_p50_ms", "ms", quantile(&s.events_ms, 0.5)),
            report_only("events_p90_ms", "ms", quantile(&s.events_ms, 0.9)),
            report_only(
                "events_per_s",
                "events/s",
                s.events_ingested as f64 / s.stream_s,
            ),
            row(
                "assigned_share",
                "ratio",
                ratio(summary_field(&s.final_report, "assigned"), published),
            ),
            row(
                "avg_influence",
                "score",
                summary_field(&s.final_report, "average_influence"),
            ),
            row(
                "ok_share",
                "ratio",
                ratio(total.ok as f64, total.sent as f64),
            ),
            report_only(
                "failed_share",
                "ratio",
                ratio(total.failed() as f64, total.sent as f64),
            ),
            row("events_cpu_us", "us", median(&s.events_cpu_us)),
            row(
                "round_cpu_ms",
                "ms",
                median(&s.round_cpu_ms[1.min(s.round_cpu_ms.len())..]),
            ),
            row("peak_rss_mb", "MB", s.peak_rss_mb),
            report_only("snapshot_s", "s", median(&s.snapshot_s)),
            row("snapshot_mb", "MB", s.snapshot_bytes as f64 / 1e6),
        ];
        if !s.report_ms.is_empty() {
            rows.push(report_only(
                "report_p50_ms",
                "ms",
                quantile(&s.report_ms, 0.5),
            ));
            rows.push(report_only(
                "report_p90_ms",
                "ms",
                quantile(&s.report_ms, 0.9),
            ));
        }
        if let Some(restore_s) = s.restore_s {
            rows.push(report_only("restore_s", "s", restore_s));
        }
        rows
    }

    fn span_ms(&self, name: &str) -> Vec<f64> {
        self.replay
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::ms)
            .collect()
    }

    fn per_layer(&self) -> Vec<Row> {
        let s = self.served;
        let reports = &self.replay.reports;
        let warm: &[RoundReport] = &reports[1.min(reports.len())..];
        let warm_mean = |f: fn(&RoundReport) -> f64| mean(&warm.iter().map(f).collect::<Vec<_>>());
        let sum = |f: fn(&RoundReport) -> usize| reports.iter().map(f).sum::<usize>() as f64;

        let events: usize = self.workload.rounds.iter().map(|r| r.events.len()).sum();
        let decode = self.span_ms("serve.decode");
        // Drain + run_round of each warm round: what POST /round does
        // inside the server besides HTTP and JSON.
        let mut per_round = vec![0.0; reports.len()];
        let mut run_round = vec![0.0; reports.len()];
        for span in &self.replay.spans {
            if let (Some(r), "sim.drain" | "sim.run_round") = (span.round, span.name) {
                per_round[r] += span.ms();
                if span.name == "sim.run_round" {
                    run_round[r] = span.ms();
                }
            }
        }
        let round_self: Vec<f64> = warm
            .iter()
            .zip(&run_round[1.min(run_round.len())..])
            .map(|(r, total)| {
                total - r.maintenance_ms - r.eligibility_ms - r.warm_ms - r.score_ms - r.solve_ms
            })
            .collect();
        let served_warm = &s.round_ms[1.min(s.round_ms.len())..];
        let ingest_us = |kind: &str| mean(&self.span_ms(&format!("sim.ingest.{kind}"))) * 1e3;
        let (hits, misses) = warm
            .iter()
            .fold((0, 0), |(h, m), r| (h + r.cache_hits, m + r.cache_misses));
        let (carried, rebuilt) = warm.iter().fold((0, 0), |(c, b), r| {
            (c + r.elig_rows_carried, b + r.elig_rows_rebuilt)
        });
        let setup = |f: fn(&crate::served::Setup) -> f64| {
            median(&s.setups.iter().map(f).collect::<Vec<_>>())
        };

        let mut rows = vec![
            row(
                "serve.decode_us_per_event",
                "us",
                decode.iter().sum::<f64>() * 1e3 / events.max(1) as f64,
            ),
            row(
                "serve.events_overhead_ms",
                "ms",
                quantile(&s.events_ms, 0.5) - median(&decode),
            ),
            row(
                "serve.round_overhead_ms",
                "ms",
                quantile(served_warm, 0.5) - median(&per_round[1.min(per_round.len())..]),
            ),
            row("serve.queue_peak", "count", s.queue_peak as f64),
            row(
                "sim.ingest_us.task_arrival",
                "us",
                ingest_us("task_arrival"),
            ),
            row(
                "sim.ingest_us.worker_arrival",
                "us",
                ingest_us("worker_arrival"),
            ),
            report_only(
                "sim.ingest_us.worker_departure",
                "us",
                ingest_us("worker_departure"),
            ),
            report_only("sim.ingest_us.worker_new", "us", ingest_us("worker_new")),
            row(
                "sim.run_round_p50_ms",
                "ms",
                quantile(&run_round[1.min(run_round.len())..], 0.5),
            ),
            row(
                "sim.run_round_p90_ms",
                "ms",
                quantile(&run_round[1.min(run_round.len())..], 0.9),
            ),
            row("sim.round_self_ms", "ms", median(&round_self)),
            row(
                "sim.snapshot_serialize_s",
                "s",
                median(&self.span_ms("sim.snapshot_serialize")) / 1e3,
            ),
            row(
                "sim.snapshot_write_s",
                "s",
                median(&self.span_ms("sim.snapshot_write")) / 1e3,
            ),
        ];
        if self.workload.snapshot_at.is_some() {
            rows.push(report_only(
                "sim.restore_parse_s",
                "s",
                median(&self.span_ms("sim.restore_parse")) / 1e3,
            ));
            rows.push(report_only(
                "sim.restore_build_s",
                "s",
                median(&self.span_ms("sim.restore_build")) / 1e3,
            ));
        }
        for outcome in OUTCOMES {
            let n = self.replay.outcomes.get(*outcome).copied().unwrap_or(0);
            rows.push(row(&format!("sim.outcome.{outcome}"), "count", n as f64));
        }
        rows.extend([
            row(
                "influence.maintain_ms",
                "ms",
                warm_mean(|r| r.maintenance_ms),
            ),
            row("influence.sets_added", "count", sum(|r| r.sets_added)),
            row("influence.sets_evicted", "count", sum(|r| r.sets_evicted)),
            row("core.warm_ms", "ms", warm_mean(|r| r.warm_ms)),
            row(
                "core.cache_hit_rate",
                "ratio",
                ratio(hits as f64, (hits + misses) as f64),
            ),
            row(
                "assign.eligibility_ms",
                "ms",
                warm_mean(|r| r.eligibility_ms),
            ),
            row(
                "assign.rows_carried_share",
                "ratio",
                ratio(carried as f64, (carried + rebuilt) as f64),
            ),
            row(
                "assign.full_rebuilds",
                "count",
                sum(|r| r.elig_full_rebuild as usize),
            ),
            row("assign.score_ms", "ms", warm_mean(|r| r.score_ms)),
            row("graph.solve_ms", "ms", warm_mean(|r| r.solve_ms)),
            row("graph.passes", "count", sum(|r| r.solve_passes)),
            row(
                "graph.augmentations",
                "count",
                sum(|r| r.solve_augmentations),
            ),
            row("setup.train_s", "s", setup(|x| x.train.train_s)),
            row("setup.server_start_s", "s", setup(|x| x.server_start_s)),
            row("setup.rpo_sets", "count", s.setups[0].train.rpo_sets as f64),
        ]);
        if self.workload.snapshot_at.is_some() {
            rows.push(report_only(
                "setup.slice_s",
                "s",
                setup(|x| x.train.slice_s),
            ));
        }
        rows
    }

    /// The metrics of the result line: end to end untraced, per layer
    /// traced.
    pub fn result_metrics(&self, trace: bool) -> Vec<Metric> {
        let rows = if trace {
            self.per_layer()
        } else {
            self.end_to_end()
        };
        rows.into_iter()
            .filter(|r| r.result)
            .map(|r| r.metric)
            .collect()
    }

    /// Prints the human-readable report: provenance, requests, every
    /// end-to-end metric and, when traced, every per-layer metric and
    /// the span table beside the served totals.
    pub fn print(&self, trace: bool) {
        let mut out = String::new();
        let s = self.served;
        let w = self.workload;
        let bodies: usize = w.rounds.iter().map(|r| r.bodies.len()).sum();
        let events: usize = w.rounds.iter().map(|r| r.events.len()).sum();
        let _ = writeln!(
            out,
            "servebench {}: seed {}, --seconds {}, {} rounds ({} warm), {events} events in {bodies} bodies",
            w.kind.name(),
            self.seed,
            self.seconds,
            w.rounds.len(),
            w.rounds.len().saturating_sub(1),
        );
        let _ = writeln!(
            out,
            "host: nproc {}, cpu \"{}\", rev {}; engine threads {}, http threads {}, {SETUPS} set-ups; CPU steal during the stream {}",
            std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu_model(),
            git_rev(),
            self.engine_threads,
            sc_serve::ServeConfig::default().http_threads,
            s.steal_share
                .map_or("unknown".to_string(), |x| format!("{:.1}%", x * 100.0)),
        );
        if !s.report_ms.is_empty() {
            let _ = writeln!(
                out,
                "poller: {POLL_HZ}/s open loop, {} polls, late behind schedule p50 {:.3} ms, p90 {:.3} ms, max {:.3} ms",
                s.report_ms.len(),
                quantile(&s.poll_late_ms, 0.5),
                quantile(&s.poll_late_ms, 0.9),
                quantile(&s.poll_late_ms, 1.0),
            );
        }
        let _ = writeln!(
            out,
            "checks passed: {} /round replies and the final /report equal the replay byte for byte{}",
            s.round_replies.len(),
            if w.snapshot_at.is_some() {
                "; the restored server's /report equals the original's"
            } else {
                ""
            }
        );
        let _ = writeln!(out, "requests      sent      2xx   429  other  transport");
        for (path, t) in &s.tallies {
            let _ = writeln!(
                out,
                "  {path:<9} {:>7} {:>8} {:>5} {:>6} {:>10}",
                t.sent, t.ok, t.too_many, t.other, t.transport
            );
        }
        let mut rejected = BTreeMap::new();
        for (label, n) in &self.replay.outcomes {
            if let Some(reason) = label.strip_prefix("rejected.") {
                rejected.insert(reason, *n);
            }
        }
        let _ = writeln!(
            out,
            "engine rejections (results, not failures): {rejected:?}"
        );
        print_rows(
            &mut out,
            "end to end (served, untraced)",
            &self.end_to_end(),
        );
        if trace {
            print_rows(&mut out, "per layer (traced replay)", &self.per_layer());
            self.print_spans(&mut out);
        }
        print!("{out}");
    }

    fn print_spans(&self, out: &mut String) {
        let spans = &self.replay.spans;
        let mut child_ms = vec![0.0; spans.len()];
        for span in spans {
            if let Some(p) = span.parent {
                child_ms[p] += span.ms();
            }
        }
        // Aggregate by name; print as a tree in first-seen order.
        let mut order: Vec<&'static str> = Vec::new();
        let mut parent_of: BTreeMap<&'static str, Option<&'static str>> = BTreeMap::new();
        let mut agg: BTreeMap<&'static str, (u64, f64, f64)> = BTreeMap::new();
        for (i, span) in spans.iter().enumerate() {
            let entry = agg.entry(span.name).or_insert_with(|| {
                order.push(span.name);
                parent_of.insert(span.name, span.parent.map(|p| spans[p].name));
                (0, 0.0, 0.0)
            });
            entry.0 += 1;
            entry.1 += span.ms();
            entry.2 += span.ms() - child_ms[i];
        }
        let _ = writeln!(
            out,
            "spans (traced replay)             count     total_ms      self_ms"
        );
        let mut stack: Vec<(&'static str, usize)> = order
            .iter()
            .rev()
            .filter(|n| parent_of[*n].is_none())
            .map(|n| (*n, 0))
            .collect();
        while let Some((name, depth)) = stack.pop() {
            let (count, total, own) = agg[name];
            let label = format!("{}{name}", "  ".repeat(depth + 1));
            let _ = writeln!(out, "{label:<32} {count:>7} {total:>12.3} {own:>12.3}");
            for child in order.iter().rev().filter(|c| parent_of[*c] == Some(name)) {
                stack.push((child, depth + 1));
            }
        }
        let reports = &self.replay.reports;
        let phase = |f: fn(&RoundReport) -> f64| reports.iter().map(f).sum::<f64>();
        let _ = writeln!(
            out,
            "  run_round phases (from RoundReport), total ms: maintain {:.3}, eligibility {:.3}, warm {:.3}, score {:.3}, solve {:.3}",
            phase(|r| r.maintenance_ms),
            phase(|r| r.eligibility_ms),
            phase(|r| r.warm_ms),
            phase(|r| r.score_ms),
            phase(|r| r.solve_ms),
        );
        let s = self.served;
        let events_total = s.events_ms.iter().sum::<f64>();
        let round_total = s.round_ms.iter().sum::<f64>();
        let _ = writeln!(
            out,
            "served run                        count     total_ms\n  POST /events                   {:>7} {events_total:>12.3}\n  POST /round                    {:>7} {round_total:>12.3}",
            s.events_ms.len(),
            s.round_ms.len(),
        );
        let decode_total = self.span_ms("serve.decode").iter().sum::<f64>();
        let engine_total = self.span_ms("sim.drain").iter().sum::<f64>()
            + self.span_ms("sim.run_round").iter().sum::<f64>();
        let _ = writeln!(
            out,
            "serve layer = served - traced, total ms: /events {events_total:.3} - decode {decode_total:.3} = {:.3}; /round {round_total:.3} - (drain + run_round) {engine_total:.3} = {:.3}",
            events_total - decode_total,
            round_total - engine_total,
        );
    }

    /// Writes every span as one JSON line, after a provenance line.
    pub fn write_spans(&self, path: &Path) -> std::io::Result<()> {
        let mut text = format!(
            "{{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"rev\": \"{}\", \"nproc\": {}}}\n",
            self.workload.kind.name(),
            self.seed,
            self.seconds,
            git_rev(),
            std::thread::available_parallelism().map_or(1, |n| n.get()),
        );
        for span in &self.replay.spans {
            let _ = writeln!(
                text,
                "{{\"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {}, \"round\": {}}}",
                span.name,
                span.start_ns,
                span.end_ns,
                span.parent.map_or("null".into(), |p| p.to_string()),
                span.round.map_or("null".into(), |r| r.to_string()),
            );
        }
        std::fs::write(path, text)
    }
}

/// Every `ingest` outcome, by the label the replay counts it under.
const OUTCOMES: &[&str] = &[
    "task_published",
    "task_refreshed",
    "worker_joined",
    "worker_refreshed",
    "worker_folded_in",
    "worker_departed",
    "rejected.unknown_worker",
    "rejected.cannot_fold_in",
    "rejected.non_dense_id",
    "rejected.no_usable_friends",
    "rejected.not_online",
    "rejected.round_mismatch",
    "rejected.out_of_order",
];

fn print_rows(out: &mut String, title: &str, rows: &[Row]) {
    let _ = writeln!(out, "{title}:");
    for r in rows {
        let _ = writeln!(
            out,
            "  {:<34} {:>16.6} {:<9}{}",
            r.metric.name,
            r.metric.value,
            r.metric.unit,
            if r.result { "" } else { "(report only)" }
        );
    }
}

/// The CPU model from `/proc/cpuinfo`, or `unknown`.
fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// The checked-out commit, read from `.git` in the working directory,
/// or `unknown` (a plain source checkout has no `.git`).
fn git_rev() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unknown".into(),
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    if let Ok(rev) = std::fs::read_to_string(Path::new(".git").join(reference)) {
        return rev.trim().to_string();
    }
    std::fs::read_to_string(".git/packed-refs")
        .ok()
        .and_then(|packed| {
            packed
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next())
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".into())
}

//! The in-process replay of a workload, with spans when traced.
//!
//! Untraced, it ingests the generated events and produces the wire
//! bodies a correct server must answer with — the reference the served
//! run is checked against. Traced, it first decodes each exact wire body
//! as the server does, and records a span around every call into a
//! layer: the decode, each `OnlineEngine::ingest` (by event kind), each
//! `run_round`, and, for snapshots and restores, each of their steps.
//! The phase split inside a round comes from the fields `run_round`
//! returns; spans inside the program are not this benchmark's to add.

use crate::workload::Workload;
use sc_core::AlgorithmKind;
use sc_sim::{snapshot_to_string, EventKind, OnlineEngine, Outcome, RoundReport};
use serde::json::Value;
use serde::{Deserialize as _, Serialize as _};
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

/// End-of-stream snapshots per run; the median time is reported.
pub const SNAPSHOTS: usize = 3;

/// One timed call.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer and call, e.g. `sim.run_round`.
    pub name: &'static str,
    /// Start, nanoseconds since the replay began.
    pub start_ns: u64,
    /// End, nanoseconds since the replay began.
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// The round the span belongs to.
    pub round: Option<usize>,
}

impl Span {
    /// Duration in milliseconds.
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

/// Spans held in memory until the run ends; a no-op when off.
struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn begin(&mut self, name: &'static str, parent: Option<usize>, round: Option<usize>) -> usize {
        if !self.on {
            return usize::MAX;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            round,
        });
        self.spans.len() - 1
    }

    fn end(&mut self, id: usize) {
        if self.on {
            self.spans[id].end_ns = self.now_ns();
        }
    }
}

/// What a replay produced.
pub struct Replay {
    /// The `POST /round` reply a correct server gives for each round.
    pub round_replies: Vec<String>,
    /// The final `GET /report` body.
    pub final_report: String,
    /// Every round's report (telemetry fields included).
    pub reports: Vec<RoundReport>,
    /// Count of every `ingest` outcome, by label (`rejected.<reason>`).
    pub outcomes: BTreeMap<String, u64>,
    /// Recorded spans (empty when untraced).
    pub spans: Vec<Span>,
    /// `churn`, traced: `/report` of the restored engine after it
    /// replayed the rounds that followed its snapshot.
    pub restored_report: Option<String>,
}

/// The body of a `POST /round` reply, as `sc_serve` writes it.
pub fn round_reply(applied: usize, rejected: usize, report: &RoundReport) -> String {
    Value::Object(vec![
        ("applied".to_string(), applied.to_value()),
        ("rejected".to_string(), rejected.to_value()),
        ("report".to_string(), report.to_value()),
    ])
    .to_json_string()
}

/// The body of a `GET /report` reply, as `sc_serve` writes it.
pub fn report_body(engine: &OnlineEngine<'_>, last: Option<&RoundReport>) -> String {
    let (round, _) = engine.next_stamp();
    Value::Object(vec![
        ("rounds".to_string(), round.to_value()),
        ("summary".to_string(), engine.summary().to_value()),
        (
            "last_round".to_string(),
            last.map(|r| r.to_value()).unwrap_or(Value::Null),
        ),
    ])
    .to_json_string()
}

/// Decodes one `POST /events` body exactly as the server does.
fn decode(body: &str) -> Vec<EventKind> {
    let value = serde::json::parse(body).expect("generated bodies are JSON");
    let items: Vec<&Value> = match &value {
        Value::Array(items) => items.iter().collect(),
        _ => vec![&value],
    };
    items
        .into_iter()
        .map(|item| EventKind::from_value(item).expect("generated events decode"))
        .collect()
}

fn ingest_span(kind: &EventKind) -> &'static str {
    match kind {
        EventKind::TaskArrival { .. } => "sim.ingest.task_arrival",
        EventKind::WorkerArrival { .. } => "sim.ingest.worker_arrival",
        EventKind::WorkerNew { .. } => "sim.ingest.worker_new",
        EventKind::WorkerDeparture { .. } => "sim.ingest.worker_departure",
    }
}

fn outcome_label(outcome: Outcome) -> String {
    match outcome.rejected_reason() {
        Some(reason) => format!("rejected.{}", reason.label()),
        None => outcome.label().to_string(),
    }
}

/// Ingests `events` and closes the round; returns the wire reply.
fn play_round(
    engine: &mut OnlineEngine<'static>,
    tracer: &mut Tracer,
    parent: Option<usize>,
    round: Option<usize>,
    events: Vec<EventKind>,
    now: sc_types::TimeInstant,
    outcomes: &mut BTreeMap<String, u64>,
) -> (String, RoundReport) {
    let drain = tracer.begin("sim.drain", parent, round);
    let (mut applied, mut rejected) = (0usize, 0usize);
    for kind in events {
        let span = tracer.begin(ingest_span(&kind), Some(drain), round);
        let outcome = engine.ingest(kind);
        tracer.end(span);
        if outcome.is_rejected() {
            rejected += 1;
        } else {
            applied += 1;
        }
        *outcomes.entry(outcome_label(outcome)).or_insert(0) += 1;
    }
    tracer.end(drain);
    let span = tracer.begin("sim.run_round", parent, round);
    let report = engine.run_round(now, AlgorithmKind::Ia);
    tracer.end(span);
    (round_reply(applied, rejected, &report), report)
}

/// `save_snapshot`, split into its two steps.
fn snapshot(engine: &OnlineEngine<'_>, tracer: &mut Tracer, path: &Path) {
    let top = tracer.begin("sim.snapshot", None, None);
    let span = tracer.begin("sim.snapshot_serialize", Some(top), None);
    let text = snapshot_to_string(engine).expect("engines serialize");
    tracer.end(span);
    let span = tracer.begin("sim.snapshot_write", Some(top), None);
    let tmp = path.with_extension("tmp");
    std::fs::write(&tmp, text.as_bytes()).expect("write snapshot");
    std::fs::rename(&tmp, path).expect("rename snapshot");
    tracer.end(span);
    tracer.end(top);
}

/// `load_snapshot`, split into reading, parsing, and building the engine.
fn restore(tracer: &mut Tracer, path: &Path) -> OnlineEngine<'static> {
    let top = tracer.begin("sim.restore", None, None);
    let span = tracer.begin("sim.restore_read", Some(top), None);
    let text = std::fs::read_to_string(path).expect("read snapshot");
    tracer.end(span);
    let span = tracer.begin("sim.restore_parse", Some(top), None);
    let envelope = serde::json::parse(&text).expect("snapshot is JSON");
    tracer.end(span);
    let span = tracer.begin("sim.restore_build", Some(top), None);
    let obj = envelope.as_object().expect("snapshot envelope");
    let version: u64 = serde::get_field(obj, "version").expect("snapshot version");
    assert_eq!(version, sc_sim::SNAPSHOT_VERSION, "snapshot version");
    let engine_value = &obj
        .iter()
        .find(|(k, _)| k == "engine")
        .expect("snapshot engine")
        .1;
    let engine = OnlineEngine::from_value(engine_value).expect("snapshot restores");
    tracer.end(span);
    tracer.end(top);
    engine
}

/// Replays `workload` into `engine`. Traced replays decode the wire
/// bodies, record spans, take the end-of-stream snapshots and, on
/// `churn`, snapshot mid-stream, restore, and replay the rest there.
pub fn replay(
    mut engine: OnlineEngine<'static>,
    workload: &Workload,
    trace: bool,
    out_dir: &Path,
) -> Replay {
    let mut tracer = Tracer {
        on: trace,
        epoch: Instant::now(),
        spans: Vec::new(),
    };
    let mut outcomes = BTreeMap::new();
    let mut round_replies = Vec::with_capacity(workload.rounds.len());
    let mut reports: Vec<RoundReport> = Vec::with_capacity(workload.rounds.len());
    let mid_path = out_dir.join(format!("replay-{}.mid.json", std::process::id()));

    for (i, round) in workload.rounds.iter().enumerate() {
        if trace && workload.snapshot_at == Some(i) {
            snapshot(&engine, &mut tracer, &mid_path);
        }
        let top = tracer.begin("round", None, Some(i));
        let events = if trace {
            let mut events = Vec::with_capacity(round.events.len());
            for body in &round.bodies {
                let span = tracer.begin("serve.decode", Some(top), Some(i));
                let decoded = decode(body);
                tracer.end(span);
                events.extend(decoded);
            }
            assert!(
                events == round.events,
                "round {i}: wire bodies decode losslessly"
            );
            events
        } else {
            round.events.clone()
        };
        let (reply, report) = play_round(
            &mut engine,
            &mut tracer,
            Some(top),
            Some(i),
            events,
            round.now,
            &mut outcomes,
        );
        tracer.end(top);
        round_replies.push(reply);
        reports.push(report);
    }
    let final_report = report_body(&engine, reports.last());

    let mut restored_report = None;
    if trace {
        let end_path = out_dir.join(format!("replay-{}.end.json", std::process::id()));
        for _ in 0..SNAPSHOTS {
            snapshot(&engine, &mut tracer, &end_path);
        }
        let _ = std::fs::remove_file(&end_path);
        if let Some(at) = workload.snapshot_at {
            let mut restored = restore(&mut tracer, &mid_path);
            let _ = std::fs::remove_file(&mid_path);
            // The rounds after the snapshot are a check, not a measurement.
            tracer.on = false;
            let mut last = None;
            for round in &workload.rounds[at..] {
                let (_, report) = play_round(
                    &mut restored,
                    &mut tracer,
                    None,
                    None,
                    round.events.clone(),
                    round.now,
                    &mut BTreeMap::new(),
                );
                last = Some(report);
            }
            restored_report = Some(report_body(&restored, last.as_ref()));
        }
    }

    Replay {
        round_replies,
        final_report,
        reports,
        outcomes,
        spans: tracer.spans,
        restored_report,
    }
}

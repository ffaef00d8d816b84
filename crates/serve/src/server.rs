//! The `dita serve` process: a bounded event queue in front of a
//! mutex-held [`OnlineEngine`], served by a small thread pool.
//!
//! # Ingestion and ordering
//!
//! `POST /events` only takes the queue lock: batches append atomically
//! (all events of one request are adjacent) and the call returns
//! before any engine work happens. The queue is bounded —
//! [`ServeConfig::queue_cap`] — and a batch that would overflow it is
//! refused whole with `429`, which is the backpressure contract: the
//! client retries after the next round drains the queue.
//!
//! `POST /round` drains the queue **in arrival order** into
//! [`OnlineEngine::ingest`] and then closes the round. Because every
//! queued event is stamped at apply time by the single drain loop, the
//! engine observes one total `(round, seq)` order no matter how many
//! HTTP threads accepted the uploads — which is what makes a served
//! stream replayable and snapshot/restorable bit-for-bit.
//!
//! # Snapshot lifecycle
//!
//! `POST /snapshot` folds any queued events into the engine first (a
//! snapshot must not silently drop accepted uploads), then writes the
//! versioned envelope of [`sc_sim::snapshot`] atomically. A process
//! restarted with `--restore` serves `GET /report` responses
//! byte-identical to the uninterrupted original — the serve smoke job
//! in CI diffs exactly that.

use crate::http::{read_request, write_response, Request};
use sc_assign::AlgorithmKind;
use sc_sim::{save_snapshot, EventKind, OnlineEngine, RoundReport};
use sc_types::TimeInstant;
use serde::json::Value;
use serde::Serialize as _;
use std::collections::VecDeque;
use std::io::{ErrorKind, Read};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Deadline for reading a whole request, and for each write of its
/// response. Each HTTP worker serves one connection at a time, so
/// without it a client that connects and then stalls — or trickles a
/// byte every few seconds — would hold a worker indefinitely.
const IO_TIMEOUT: Duration = Duration::from_secs(5);

/// Configuration of a serving process.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address, e.g. `127.0.0.1:7117` (`:0` picks a free port).
    pub addr: String,
    /// Bound on queued-but-unapplied events; `POST /events` batches
    /// that would overflow it are refused with `429`.
    pub queue_cap: usize,
    /// HTTP worker threads (each serves one connection at a time).
    pub http_threads: usize,
    /// Assignment algorithm for rounds that don't name one.
    pub algorithm: AlgorithmKind,
    /// Where `POST /snapshot` writes (a request body may override).
    pub snapshot_path: Option<PathBuf>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            queue_cap: 4_096,
            http_threads: 2,
            algorithm: AlgorithmKind::Ia,
            snapshot_path: None,
        }
    }
}

/// State shared between the HTTP workers.
struct Shared {
    engine: Mutex<EngineState>,
    queue: Mutex<VecDeque<EventKind>>,
    queue_cap: usize,
    algorithm: AlgorithmKind,
    snapshot_path: Option<PathBuf>,
    shutdown: AtomicBool,
}

/// The engine and the report of the last round it closed, behind one
/// lock: `/report` reads the round count, the summary and the last
/// round together, so it never pairs one round's count with another
/// round's report.
struct EngineState {
    engine: OnlineEngine<'static>,
    last_round: Option<RoundReport>,
}

/// A running serving process; dropping it without
/// [`Server::shutdown`] leaves its threads detached.
pub struct Server {
    addr: SocketAddr,
    shared: Arc<Shared>,
    handles: Vec<JoinHandle<()>>,
}

impl Server {
    /// Binds, spawns the acceptor and worker threads, and returns.
    /// The engine must own its handles (`OnlineEngine<'static>`, as
    /// built by an owned/adaptive [`sc_sim::EngineBuilder`] or
    /// restored by [`sc_sim::load_snapshot`]).
    pub fn start(engine: OnlineEngine<'static>, config: ServeConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            engine: Mutex::new(EngineState {
                engine,
                last_round: None,
            }),
            queue: Mutex::new(VecDeque::new()),
            queue_cap: config.queue_cap.max(1),
            algorithm: config.algorithm,
            snapshot_path: config.snapshot_path,
            shutdown: AtomicBool::new(false),
        });

        let (tx, rx) = mpsc::channel::<TcpStream>();
        let rx = Arc::new(Mutex::new(rx));
        let mut handles = Vec::new();
        for _ in 0..config.http_threads.max(1) {
            let rx = Arc::clone(&rx);
            let shared = Arc::clone(&shared);
            handles.push(std::thread::spawn(move || loop {
                let next = rx.lock().expect("rx lock").recv();
                match next {
                    Ok(mut stream) => handle_connection(&shared, &mut stream),
                    Err(_) => break, // acceptor gone: drain and exit
                }
            }));
        }
        {
            let shared = Arc::clone(&shared);
            handles.push(std::thread::spawn(move || {
                for stream in listener.incoming() {
                    if shared.shutdown.load(Ordering::SeqCst) {
                        break;
                    }
                    match stream {
                        Ok(s) => {
                            if tx.send(s).is_err() {
                                break;
                            }
                        }
                        Err(_) => continue,
                    }
                }
                // tx drops here; workers drain the channel and exit.
            }));
        }
        Ok(Server {
            addr,
            shared,
            handles,
        })
    }

    /// The bound address (useful with `:0`).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Events accepted but not yet applied by a round.
    pub fn queued_events(&self) -> usize {
        self.shared.queue.lock().expect("queue lock").len()
    }

    /// Stops accepting, joins every thread, and returns the engine —
    /// so a caller can snapshot the final state after the front closes.
    pub fn shutdown(mut self) -> OnlineEngine<'static> {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        // Wake the blocking accept with a no-op connection.
        let _ = TcpStream::connect(self.addr);
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
        Arc::try_unwrap(self.shared)
            .map(|s| s.engine.into_inner().expect("engine lock").engine)
            .unwrap_or_else(|_| panic!("serve threads still hold the engine"))
    }
}

/// A connection's read side held to one deadline for the whole
/// request: before every read it sets the socket's read timeout to the
/// time left, so a client cannot stretch a request by trickling bytes.
struct Deadline<'a> {
    stream: &'a TcpStream,
    until: Instant,
}

impl Read for Deadline<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let left = self.until.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return Err(ErrorKind::TimedOut.into());
        }
        self.stream.set_read_timeout(Some(left))?;
        self.stream.read(buf)
    }
}

/// Serves one connection: one request, one response, close. A request
/// that has not arrived whole within [`IO_TIMEOUT`] gets a best-effort
/// `408`.
fn handle_connection(shared: &Shared, stream: &mut TcpStream) {
    if stream.set_write_timeout(Some(IO_TIMEOUT)).is_err() {
        return;
    }
    let mut reader = Deadline {
        stream,
        until: Instant::now() + IO_TIMEOUT,
    };
    let request = match read_request(&mut reader) {
        Ok(Some(r)) => r,
        Ok(None) => return,
        Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
            let _ = write_response(stream, 408, &error_body("request timed out"));
            return;
        }
        Err(e) => {
            let body = error_body(&e.to_string());
            let _ = write_response(stream, 400, &body);
            return;
        }
    };
    let (status, body) = route(shared, &request);
    let _ = write_response(stream, status, &body);
}

fn error_body(msg: &str) -> String {
    Value::Object(vec![("error".to_string(), Value::Str(msg.to_string()))]).to_json_string()
}

/// Dispatches one request to its endpoint handler.
fn route(shared: &Shared, request: &Request) -> (u16, String) {
    match (request.method.as_str(), request.path.as_str()) {
        ("GET", "/healthz") => healthz(shared),
        ("POST", "/events") => post_events(shared, &request.body),
        ("POST", "/round") => post_round(shared, &request.body),
        ("GET", "/report") => get_report(shared),
        ("POST", "/snapshot") => post_snapshot(shared, &request.body),
        ("GET", "/events" | "/round" | "/snapshot") | ("POST", "/healthz" | "/report") => {
            (405, error_body("method not allowed"))
        }
        _ => (404, error_body("no such endpoint")),
    }
}

fn healthz(shared: &Shared) -> (u16, String) {
    let queued = shared.queue.lock().expect("queue lock").len();
    let body = Value::Object(vec![
        ("ok".to_string(), Value::Bool(true)),
        ("queued".to_string(), queued.to_value()),
    ]);
    (200, body.to_json_string())
}

/// `POST /events` — body is one event object or an array of them
/// (each the JSON form of [`EventKind`]). The whole batch is accepted
/// or refused: partial enqueues would make `429` retries ambiguous.
fn post_events(shared: &Shared, body: &str) -> (u16, String) {
    let value = match serde::json::parse(body) {
        Ok(v) => v,
        Err(e) => return (400, error_body(&format!("bad JSON: {e}"))),
    };
    let items: Vec<&Value> = match &value {
        Value::Array(items) => items.iter().collect(),
        Value::Object(_) => vec![&value],
        other => {
            return (
                400,
                error_body(&format!("expected event or array, got {}", other.kind())),
            )
        }
    };
    let mut events = Vec::with_capacity(items.len());
    for (i, item) in items.iter().enumerate() {
        match <EventKind as serde::Deserialize>::from_value(item) {
            Ok(e) => events.push(e),
            Err(e) => return (400, error_body(&format!("event {i}: {e}"))),
        }
    }

    let mut queue = shared.queue.lock().expect("queue lock");
    if queue.len() + events.len() > shared.queue_cap {
        let body = Value::Object(vec![
            ("error".to_string(), Value::Str("queue full".to_string())),
            ("queued".to_string(), queue.len().to_value()),
            ("capacity".to_string(), shared.queue_cap.to_value()),
        ]);
        return (429, body.to_json_string());
    }
    let accepted = events.len();
    queue.extend(events);
    let body = Value::Object(vec![
        ("accepted".to_string(), accepted.to_value()),
        ("queued".to_string(), queue.len().to_value()),
    ]);
    (202, body.to_json_string())
}

/// Pulls every queued event into the engine, in arrival order.
/// Returns `(applied, rejected)` counts.
fn drain_queue(shared: &Shared, engine: &mut OnlineEngine<'static>) -> (usize, usize) {
    let drained: Vec<EventKind> = {
        let mut queue = shared.queue.lock().expect("queue lock");
        queue.drain(..).collect()
    };
    let mut applied = 0usize;
    let mut rejected = 0usize;
    for kind in drained {
        if engine.ingest(kind).is_rejected() {
            rejected += 1;
        } else {
            applied += 1;
        }
    }
    (applied, rejected)
}

/// `POST /round` — body `{"day": D, "hour": H}` (or a raw second
/// stamp `{"at": S}`, which replay ticks off the hour grid need) with
/// an optional `"algorithm"` override. Drains the queue, closes the
/// round, and returns the [`RoundReport`].
fn post_round(shared: &Shared, body: &str) -> (u16, String) {
    let value = match serde::json::parse(body) {
        Ok(v) => v,
        Err(e) => return (400, error_body(&format!("bad JSON: {e}"))),
    };
    let Some(obj) = value.as_object() else {
        return (400, error_body("round body must be an object"));
    };
    let now = if obj.iter().any(|(k, _)| k == "at") {
        match serde::get_field::<i64>(obj, "at") {
            Ok(s) => TimeInstant::from_seconds(s),
            Err(e) => return (400, error_body(&e.to_string())),
        }
    } else {
        let day: i64 = match serde::get_field(obj, "day") {
            Ok(d) => d,
            Err(e) => return (400, error_body(&e.to_string())),
        };
        let hour: i64 = match serde::get_field(obj, "hour") {
            Ok(h) => h,
            Err(e) => return (400, error_body(&e.to_string())),
        };
        match TimeInstant::checked_at(day, hour) {
            Some(t) => t,
            None => {
                let msg = format!("day {day} hour {hour} is past the range of time");
                return (400, error_body(&msg));
            }
        }
    };
    let algorithm = match obj.iter().find(|(k, _)| k == "algorithm") {
        None => shared.algorithm,
        Some((_, Value::Str(name))) => match parse_algorithm(name) {
            Some(a) => a,
            None => return (400, error_body(&format!("unknown algorithm '{name}'"))),
        },
        Some((_, other)) => {
            return (
                400,
                error_body(&format!("algorithm must be a string, got {}", other.kind())),
            )
        }
    };

    let mut state = shared.engine.lock().expect("engine lock");
    let (applied, rejected) = drain_queue(shared, &mut state.engine);
    let report = state.engine.run_round(now, algorithm);
    state.last_round = Some(report.clone());
    drop(state);
    let body = Value::Object(vec![
        ("applied".to_string(), applied.to_value()),
        ("rejected".to_string(), rejected.to_value()),
        ("report".to_string(), report.to_value()),
    ]);
    (200, body.to_json_string())
}

/// `GET /report` — rounds served, lifetime summary, last round. Only
/// deterministic fields travel (the wire forms of [`RoundReport`] and
/// [`sc_sim::OnlineSummary`] exclude wall-clock and telemetry), so two
/// engines that served the same event stream — e.g. an original and
/// its restored snapshot — answer with byte-identical bodies.
fn get_report(shared: &Shared) -> (u16, String) {
    let state = shared.engine.lock().expect("engine lock");
    let (round, _) = state.engine.next_stamp();
    let summary = state.engine.summary();
    let last = state.last_round.clone();
    drop(state);
    let body = Value::Object(vec![
        ("rounds".to_string(), round.to_value()),
        ("summary".to_string(), summary.to_value()),
        (
            "last_round".to_string(),
            last.map_or(Value::Null, |r| r.to_value()),
        ),
    ]);
    (200, body.to_json_string())
}

/// `POST /snapshot` — optional body `{"path": "..."}` overriding the
/// configured path. Queued events are folded in first; the reply
/// reports how many.
fn post_snapshot(shared: &Shared, body: &str) -> (u16, String) {
    let override_path = if body.trim().is_empty() {
        None
    } else {
        match serde::json::parse(body) {
            Ok(v) => match v.as_object() {
                Some(obj) => match serde::get_field::<String>(obj, "path") {
                    Ok(p) => Some(PathBuf::from(p)),
                    Err(e) => return (400, error_body(&e.to_string())),
                },
                None => return (400, error_body("snapshot body must be an object")),
            },
            Err(e) => return (400, error_body(&format!("bad JSON: {e}"))),
        }
    };
    let Some(path) = override_path.or_else(|| shared.snapshot_path.clone()) else {
        return (
            400,
            error_body("no snapshot path (configure --snapshot or send {\"path\": ...})"),
        );
    };

    let mut state = shared.engine.lock().expect("engine lock");
    let (applied, rejected) = drain_queue(shared, &mut state.engine);
    let result = save_snapshot(&state.engine, &path);
    drop(state);
    match result {
        Ok(()) => {
            let body = Value::Object(vec![
                ("path".to_string(), Value::Str(path.display().to_string())),
                ("events_folded".to_string(), applied.to_value()),
                ("events_rejected".to_string(), rejected.to_value()),
            ]);
            (200, body.to_json_string())
        }
        Err(e) => (500, error_body(&e.to_string())),
    }
}

/// Parses the wire name of an assignment algorithm.
pub fn parse_algorithm(name: &str) -> Option<AlgorithmKind> {
    match name.to_uppercase().as_str() {
        "MTA" => Some(AlgorithmKind::Mta),
        "IA" => Some(AlgorithmKind::Ia),
        "EIA" => Some(AlgorithmKind::Eia),
        "DIA" => Some(AlgorithmKind::Dia),
        "MI" => Some(AlgorithmKind::Mi),
        "GREEDY" => Some(AlgorithmKind::GreedyNearest),
        _ => None,
    }
}

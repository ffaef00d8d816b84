//! The `dita serve` process: a bounded event queue in front of a
//! mutex-held [`OnlineEngine`], served by a small thread pool.
//!
//! # Ingestion and ordering
//!
//! `POST /events` decodes its body on the HTTP thread, outside every
//! lock, straight from the text into events ([`decode_events`]; no
//! `Value` tree is built). A body that reader refuses is decoded once
//! more through the tree ([`decode_events_via_tree`]), whose error is
//! the text of the `400`, so a refusal reads as it always has. Then the
//! handler only takes the queue lock: batches append atomically (all
//! events of one request are adjacent) and the call returns before any
//! engine work happens. The queue is bounded —
//! [`ServeConfig::queue_cap`] — and a batch that would overflow it is
//! refused whole with `429`, which is the backpressure contract: the
//! client retries after the next round drains the queue. A batch
//! larger than the whole queue could never fit, so it is refused with
//! `413` instead.
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
//! versioned envelope of [`sc_sim::snapshot`] atomically, to the
//! configured path or to a file the body names in that path's
//! directory. A process restarted with `--restore` serves `GET /report`
//! responses byte-identical to the uninterrupted original and ends the
//! day with the same snapshot bytes — the serve smoke job in CI diffs
//! exactly that.
//!
//! # Connections
//!
//! Each HTTP worker serves one connection at a time and answers its
//! requests in order, keeping it open between them (HTTP/1.1
//! keep-alive) until the client closes it, asks for `Connection:
//! close`, or sends nothing for 5 s (`IO_TIMEOUT`). While a kept-alive
//! connection waits for its next request it is *idle*: the worker
//! parks a handle to it with the acceptor, and when a new connection
//! finds no worker waiting, the acceptor shuts one idle connection
//! down so its worker takes the new one. [`Server::shutdown`] closes
//! every idle connection the same way. A worker takes its connection
//! back, under the same lock, before it reads any byte of the next
//! request, so a connection is only ever closed this way between
//! requests.
//!
//! The server answers every request it has read — a panic in a
//! handler is answered `500`, and an engine a panic left poisoned
//! answers `503` — so a client that got no byte of a response on a
//! reused connection knows its request was never read and may send it
//! again on a fresh one.

use crate::http::{read_request, write_response, Request};
use sc_assign::AlgorithmKind;
use sc_sim::{save_snapshot, EventKind, OnlineEngine, RoundReport};
use sc_types::TimeInstant;
use serde::json::{Reader, Value};
use serde::{Deserialize as _, Serialize as _};
use std::collections::VecDeque;
use std::io::{BufReader, ErrorKind, Read};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Deadline for reading a whole request, for each write of its
/// response, and for a kept-alive connection's next request to start.
/// Each HTTP worker serves one connection at a time, so without it a
/// client that connects and then stalls — or trickles a byte every few
/// seconds — would hold a worker indefinitely.
const IO_TIMEOUT: Duration = Duration::from_secs(5);

/// The error `/events`, `/round`, `/report` and `/snapshot` answer
/// with `503` once a panic under the engine lock has poisoned it: the
/// engine may be half-updated, so no request may read or change it.
const DEGRADED: &str = "engine degraded by an earlier panic; restart from a snapshot";

/// Configuration of a serving process.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address, e.g. `127.0.0.1:7117` (`:0` picks a free port).
    pub addr: String,
    /// Bound on queued-but-unapplied events; `POST /events` batches
    /// that would overflow it are refused with `429`, and batches
    /// larger than it with `413`.
    pub queue_cap: usize,
    /// HTTP worker threads (each serves one connection at a time).
    pub http_threads: usize,
    /// Assignment algorithm for rounds that don't name one.
    pub algorithm: AlgorithmKind,
    /// Where `POST /snapshot` writes. A request body may name another
    /// file directly inside this file's directory, and nowhere else;
    /// without a path, `POST /snapshot` is refused, overrides included.
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

/// State shared between the acceptor and the HTTP workers.
struct Shared {
    engine: Mutex<EngineState>,
    queue: Mutex<VecDeque<EventKind>>,
    queue_cap: usize,
    algorithm: AlgorithmKind,
    snapshot_path: Option<PathBuf>,
    connections: Mutex<Connections>,
    /// Signalled when a connection is handed over, and at shutdown.
    handed_over: Condvar,
}

impl Shared {
    fn new(engine: OnlineEngine<'static>, config: &ServeConfig) -> Shared {
        Shared {
            engine: Mutex::new(EngineState {
                engine,
                last_round: None,
            }),
            queue: Mutex::new(VecDeque::new()),
            queue_cap: config.queue_cap.max(1),
            algorithm: config.algorithm,
            snapshot_path: config.snapshot_path.clone(),
            connections: Mutex::new(Connections {
                pending: VecDeque::new(),
                waiting: 0,
                idle: (0..config.http_threads.max(1)).map(|_| None).collect(),
                closed: false,
            }),
            handed_over: Condvar::new(),
        }
    }

    fn connections(&self) -> MutexGuard<'_, Connections> {
        self.connections.lock().expect("connections lock")
    }
}

/// Which worker holds which connection, behind one lock.
struct Connections {
    /// Accepted connections no worker has taken yet.
    pending: VecDeque<TcpStream>,
    /// Workers blocked waiting for a connection.
    waiting: usize,
    /// Per worker, a handle to its kept-alive connection while that
    /// connection is idle between requests.
    idle: Vec<Option<TcpStream>>,
    /// Set by [`Server::shutdown`]: the acceptor stops, and workers
    /// exit once `pending` is empty.
    closed: bool,
}

impl Connections {
    /// Whether a pending connection has no waiting worker to take it.
    fn starved(&self) -> bool {
        self.pending.len() > self.waiting
    }

    /// Shuts idle connections down — at most `limit` of them — which
    /// wakes their workers.
    fn close_idle(&mut self, limit: usize) {
        for stream in self.idle.iter_mut().filter_map(Option::take).take(limit) {
            let _ = stream.shutdown(Shutdown::Both);
        }
    }
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
        let shared = Arc::new(Shared::new(engine, &config));
        let mut handles = Vec::new();
        for worker in 0..config.http_threads.max(1) {
            let shared = Arc::clone(&shared);
            handles.push(std::thread::spawn(move || {
                while let Some(stream) = next_connection(&shared) {
                    serve_connection(&shared, worker, stream);
                }
            }));
        }
        {
            let shared = Arc::clone(&shared);
            handles.push(std::thread::spawn(move || {
                for stream in listener.incoming() {
                    let Ok(stream) = stream else { continue };
                    let mut connections = shared.connections();
                    if connections.closed {
                        break;
                    }
                    connections.pending.push_back(stream);
                    if connections.starved() {
                        connections.close_idle(1);
                    }
                    drop(connections);
                    shared.handed_over.notify_one();
                }
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

    /// Stops accepting, closes every idle kept-alive connection,
    /// lets the workers finish the requests they are serving, joins
    /// every thread, and returns the engine — so a caller can snapshot
    /// the final state after the front closes.
    pub fn shutdown(mut self) -> OnlineEngine<'static> {
        {
            let mut connections = self.shared.connections();
            connections.closed = true;
            connections.close_idle(usize::MAX);
        }
        self.shared.handed_over.notify_all();
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

/// Blocks until the acceptor hands over a connection; `None` once the
/// server is shutting down and none is left.
fn next_connection(shared: &Shared) -> Option<TcpStream> {
    let mut connections = shared.connections();
    loop {
        if let Some(stream) = connections.pending.pop_front() {
            return Some(stream);
        }
        if connections.closed {
            return None;
        }
        connections.waiting += 1;
        connections = shared
            .handed_over
            .wait(connections)
            .expect("connections lock");
        connections.waiting -= 1;
    }
}

/// A connection's read side held to one deadline per request: before
/// every read it sets the socket's read timeout to the time left, so a
/// client cannot stretch a request by trickling bytes.
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

/// Serves one connection's requests in order until it closes. The
/// first request must arrive whole within [`IO_TIMEOUT`] of the worker
/// taking the connection, and each later one within [`IO_TIMEOUT`] of
/// its first byte, or it gets a best-effort `408`. A request whose
/// `Content-Length` is over [`crate::http::MAX_BODY_BYTES`] gets a
/// `413`, and any other request that cannot be read a `400`; either way
/// the connection then closes, since what follows is not known to start
/// a request.
fn serve_connection(shared: &Shared, worker: usize, stream: TcpStream) {
    let Ok(mut handle) = stream.try_clone() else {
        return;
    };
    if stream.set_nodelay(true).is_err() || stream.set_write_timeout(Some(IO_TIMEOUT)).is_err() {
        return;
    }
    let mut reader = BufReader::new(Deadline {
        stream: &stream,
        until: Instant::now() + IO_TIMEOUT,
    });
    loop {
        let request = match read_request(&mut reader) {
            Ok(Some(r)) => r,
            Ok(None) => return,
            Err(e) => {
                let (status, msg) = match e.kind() {
                    ErrorKind::WouldBlock | ErrorKind::TimedOut => {
                        (408, "request timed out".into())
                    }
                    ErrorKind::FileTooLarge => (413, e.to_string()),
                    _ => (400, e.to_string()),
                };
                let _ = write_response(&mut &stream, status, &error_body(&msg), false);
                return;
            }
        };
        let (status, body) = respond(shared, &request);
        let written = write_response(&mut &stream, status, &body, request.keep_alive);
        if written.is_err() || !request.keep_alive {
            return;
        }
        // A pipelined request already in the buffer has been read in
        // part, so the connection is never idle before it.
        if reader.buffer().is_empty() {
            match await_next_request(shared, worker, &stream, handle) {
                Some(h) => handle = h,
                None => return,
            }
        }
        reader.get_mut().until = Instant::now() + IO_TIMEOUT;
    }
}

/// Parks an idle kept-alive connection until the first byte of its
/// next request arrives, without reading it, and returns the handle
/// once the worker has taken the connection back. `None` closes the
/// connection: the server is shutting down, a pending connection needs
/// this worker, the acceptor or shutdown closed it while idle, the
/// client closed it, or no byte came within [`IO_TIMEOUT`].
fn await_next_request(
    shared: &Shared,
    worker: usize,
    stream: &TcpStream,
    handle: TcpStream,
) -> Option<TcpStream> {
    {
        let mut connections = shared.connections();
        if connections.closed || connections.starved() {
            return None;
        }
        connections.idle[worker] = Some(handle);
    }
    let arrived = stream.set_read_timeout(Some(IO_TIMEOUT)).is_ok()
        && matches!(stream.peek(&mut [0u8]), Ok(n) if n > 0);
    let handle = shared.connections().idle[worker].take();
    handle.filter(|_| arrived)
}

/// Routes one request. A panic in a handler is answered `500` instead
/// of killing the worker with the request unanswered; a panic under
/// the engine lock leaves it poisoned, which later requests answer
/// with `503`.
fn respond(shared: &Shared, request: &Request) -> (u16, String) {
    std::panic::catch_unwind(|| route(shared, request))
        .unwrap_or_else(|_| (500, error_body("the request handler panicked")))
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

/// Locks the engine, or answers `503` when a panic has poisoned it.
fn lock_engine(shared: &Shared) -> Result<MutexGuard<'_, EngineState>, (u16, String)> {
    shared
        .engine
        .lock()
        .map_err(|_| (503, error_body(DEGRADED)))
}

/// `GET /healthz` — `200` with `"ok": true`, or `503` with
/// `"ok": false` once the engine is degraded.
fn healthz(shared: &Shared) -> (u16, String) {
    let queued = shared.queue.lock().expect("queue lock").len();
    let ok = !shared.engine.is_poisoned();
    let body = Value::Object(vec![
        ("ok".to_string(), Value::Bool(ok)),
        ("queued".to_string(), queued.to_value()),
    ]);
    (if ok { 200 } else { 503 }, body.to_json_string())
}

/// Decodes a `POST /events` body: one event object or an array of
/// them, each the JSON form of [`EventKind`]. It reads the text with a
/// [`Reader`] and builds no [`Value`] tree, and accepts, refuses and
/// decodes exactly as [`decode_events_via_tree`] does.
pub fn decode_events(body: &str) -> Result<Vec<EventKind>, serde::Error> {
    let mut reader = Reader::new(body);
    let events = if reader.peek() == Some(b'[') {
        Vec::from_json(&mut reader)?
    } else {
        vec![EventKind::from_json(&mut reader)?]
    };
    reader.finish()?;
    Ok(events)
}

/// [`decode_events`] through a [`Value`] tree: [`serde::json::parse`],
/// then [`EventKind`]'s `from_value` on each event. It is the reference
/// the reader is tested against, and its error is the text of the
/// `400` that `POST /events` answers.
pub fn decode_events_via_tree(body: &str) -> Result<Vec<EventKind>, String> {
    let value = serde::json::parse(body).map_err(|e| format!("bad JSON: {e}"))?;
    let items: Vec<&Value> = match &value {
        Value::Array(items) => items.iter().collect(),
        Value::Object(_) => vec![&value],
        other => return Err(format!("expected event or array, got {}", other.kind())),
    };
    items
        .iter()
        .enumerate()
        .map(|(i, item)| EventKind::from_value(item).map_err(|e| format!("event {i}: {e}")))
        .collect()
}

/// `POST /events` — body is one event object or an array of them
/// (each the JSON form of [`EventKind`]). The whole batch is accepted
/// or refused: partial enqueues would make `429` retries ambiguous.
/// A batch larger than the whole queue could never fit, so it is
/// refused with `413`, not told to retry.
fn post_events(shared: &Shared, body: &str) -> (u16, String) {
    if shared.engine.is_poisoned() {
        return (503, error_body(DEGRADED));
    }
    // A body the reader refuses is decoded again through the tree, so
    // the refusal keeps its words.
    let events = match decode_events(body).or_else(|_| decode_events_via_tree(body)) {
        Ok(events) => events,
        Err(e) => return (400, error_body(&e)),
    };
    if events.len() > shared.queue_cap {
        let body = Value::Object(vec![
            (
                "error".to_string(),
                Value::Str("batch larger than the queue".to_string()),
            ),
            ("events".to_string(), events.len().to_value()),
            ("capacity".to_string(), shared.queue_cap.to_value()),
        ]);
        return (413, body.to_json_string());
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
        Some((_, Value::Str(name))) => match name.parse::<AlgorithmKind>() {
            Ok(a) => a,
            Err(msg) => return (400, error_body(&msg)),
        },
        Some((_, other)) => {
            return (
                400,
                error_body(&format!("algorithm must be a string, got {}", other.kind())),
            )
        }
    };

    let mut state = match lock_engine(shared) {
        Ok(state) => state,
        Err(reply) => return reply,
    };
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
    let state = match lock_engine(shared) {
        Ok(state) => state,
        Err(reply) => return reply,
    };
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

/// `POST /snapshot` — optional body `{"path": "..."}` naming another
/// file in the configured snapshot's directory ([`snapshot_target`]).
/// Queued events are folded in first; the reply reports how many.
fn post_snapshot(shared: &Shared, body: &str) -> (u16, String) {
    let requested = if body.trim().is_empty() {
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
    let path = match snapshot_target(shared.snapshot_path.as_deref(), requested) {
        Ok(path) => path,
        Err(msg) => return (400, error_body(&msg)),
    };

    let mut state = match lock_engine(shared) {
        Ok(state) => state,
        Err(reply) => return reply,
    };
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

/// The file a `POST /snapshot` writes: the configured `--snapshot`
/// path, or a file a client names directly inside that path's
/// directory. Without a configured path there is nowhere to write and
/// every override is refused, so a client never chooses the directory
/// the server writes into.
fn snapshot_target(
    configured: Option<&Path>,
    requested: Option<PathBuf>,
) -> Result<PathBuf, String> {
    let Some(configured) = configured else {
        return Err("no snapshot path: the server was started without --snapshot".to_string());
    };
    let Some(requested) = requested else {
        return Ok(configured.to_path_buf());
    };
    // The directory part of a path, `.` for a bare file name.
    let dir = |path: &Path| match path.parent() {
        Some(dir) if !dir.as_os_str().is_empty() => dir.to_path_buf(),
        _ => PathBuf::from("."),
    };
    // A file name must end the path as written: a path ending in `..`,
    // `/` or `/.` names a directory.
    let plain = requested
        .file_name()
        .is_some_and(|name| requested.parent().map(|p| p.join(name)) == Some(requested.clone()));
    let same_dir = plain
        && matches!(
            (std::fs::canonicalize(dir(&requested)), std::fs::canonicalize(dir(configured))),
            (Ok(a), Ok(b)) if a == b
        );
    if same_dir {
        Ok(requested)
    } else {
        Err(format!(
            "snapshot path {} is not a file in {}, the directory of --snapshot",
            requested.display(),
            dir(configured).display()
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sc_core::{DitaBuilder, DitaConfig, OnlineConfig, Parallelism};
    use sc_datagen::{DatasetProfile, SyntheticDataset};
    use sc_influence::RpoParams;
    use sc_sim::{scripted_event, EngineBuilder, NetworkMode, PipelineMode};

    fn shared(snapshot_path: PathBuf) -> Shared {
        let mut profile = DatasetProfile::brightkite_small();
        profile.n_workers = 30;
        profile.n_venues = 30;
        profile.checkins_per_worker = 6;
        let data = SyntheticDataset::generate(&profile, 3);
        let pipeline = DitaBuilder::new()
            .config(DitaConfig {
                n_topics: 3,
                lda_sweeps: 4,
                infer_sweeps: 2,
                rpo: RpoParams {
                    max_sets: 500,
                    threads: Parallelism::Single,
                    ..Default::default()
                },
                online: OnlineConfig::default(),
                seed: 3,
            })
            .build(&data.social, &data.histories)
            .unwrap();
        let engine = EngineBuilder::new()
            .pipeline(PipelineMode::Owned(Box::new(pipeline)))
            .network(NetworkMode::Adaptive(Box::new(data.social.clone())))
            .build();
        let config = ServeConfig {
            snapshot_path: Some(snapshot_path),
            ..Default::default()
        };
        let shared = Shared::new(engine, &config);
        let event = scripted_event(&data, 13, 0, TimeInstant::at(0, 9), 2.0);
        shared.queue.lock().unwrap().push_back(event);
        shared
    }

    fn request(method: &str, path: &str, body: &str) -> Request {
        Request {
            method: method.to_string(),
            path: path.to_string(),
            body: body.to_string(),
            keep_alive: true,
        }
    }

    #[test]
    fn a_poisoned_engine_answers_503_and_never_panics() {
        let snapshot = std::env::temp_dir().join(format!("dita-degraded-{}", std::process::id()));
        let shared = Arc::new(shared(snapshot.clone()));
        let poisoner = Arc::clone(&shared);
        let panicked = std::thread::spawn(move || {
            let _state = poisoner.engine.lock().unwrap();
            panic!("a round panics under the engine lock");
        })
        .join();
        assert!(panicked.is_err() && shared.engine.is_poisoned());

        let event = shared.queue.lock().unwrap()[0].to_value().to_json_string();
        for (method, path, body) in [
            ("POST", "/events", event.as_str()),
            ("POST", "/round", r#"{"day":0,"hour":9}"#),
            ("GET", "/report", ""),
            ("POST", "/snapshot", ""),
        ] {
            let (status, reply) = respond(&shared, &request(method, path, body));
            assert_eq!(status, 503, "{method} {path}: {reply}");
            assert!(reply.contains(DEGRADED), "{method} {path}: {reply}");
        }
        let (status, reply) = respond(&shared, &request("GET", "/healthz", ""));
        assert_eq!(status, 503, "{reply}");
        assert!(reply.contains("\"ok\":false"), "{reply}");
        // The queue is left as it was, and nothing was written.
        assert_eq!(shared.queue.lock().unwrap().len(), 1);
        assert!(!snapshot.exists());
    }

    #[test]
    fn a_panicking_handler_is_answered_500() {
        let shared = Arc::new(shared(std::env::temp_dir().join("dita-unwritten")));
        let poisoner = Arc::clone(&shared);
        let _ = std::thread::spawn(move || {
            let _queue = poisoner.queue.lock().unwrap();
            panic!("a panic under the queue lock");
        })
        .join();
        // `/healthz` panics on the poisoned queue lock; this thread,
        // standing in for an HTTP worker, gets a `500` and carries on.
        for _ in 0..2 {
            let (status, reply) = respond(&shared, &request("GET", "/healthz", ""));
            assert_eq!(status, 500, "{reply}");
        }
    }
}

//! End-to-end smoke of the serving surface over real sockets: every
//! endpoint, queue backpressure, slow and trickling clients, numbers
//! refused at the door, the snapshot/restore contract — a restored
//! process must answer `GET /report` byte-for-byte like the
//! uninterrupted original after serving the same remaining stream —
//! trace replay over the wire matching the in-process replay,
//! persistent connections (reuse, pipelining, `Connection: close`,
//! idle connections yielding to new clients and to shutdown, framing
//! refusals), and the `/events`, `/round` and `/snapshot` bodies
//! fuzzed with random bytes and mangled values.

use proptest::prelude::*;
use sc_assign::AlgorithmKind;
use sc_core::{DitaBuilder, DitaConfig, OnlineConfig, Parallelism};
use sc_datagen::{
    DatasetProfile, InstanceOptions, LoadedDataset, ReplayOptions, ReplayStream, SyntheticDataset,
};
use sc_influence::RpoParams;
use sc_serve::{ServeConfig, Server};
use sc_sim::{
    load_snapshot, replay_day, scripted_event, EngineBuilder, EventKind, NetworkMode, OnlineEngine,
    PipelineMode, ReplayTranslator,
};
use sc_types::{
    CategoryId, CheckIn, History, HistoryStore, Location, TimeInstant, VenueId, Worker, WorkerId,
};
use serde::json::Value;
use serde::Serialize as _;
use std::io::{BufRead, BufReader, ErrorKind, Read as _, Write as _};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::{mpsc, OnceLock};
use std::time::{Duration, Instant};

fn dataset() -> SyntheticDataset {
    let mut profile = DatasetProfile::brightkite_small();
    profile.n_workers = 60;
    profile.n_venues = 60;
    profile.checkins_per_worker = 8;
    SyntheticDataset::generate(&profile, 41)
}

fn engine(data: &SyntheticDataset) -> OnlineEngine<'static> {
    let pipeline = DitaBuilder::new()
        .config(DitaConfig {
            n_topics: 4,
            lda_sweeps: 8,
            infer_sweeps: 4,
            rpo: RpoParams {
                max_sets: 2_000,
                threads: Parallelism::Single,
                ..Default::default()
            },
            online: OnlineConfig {
                round_hours: 1,
                growth_cap: 256,
                eviction_horizon: 3,
                target_sets: 0,
                incremental: true,
            },
            seed: 5,
        })
        .build(&data.social, &data.histories)
        .unwrap();
    EngineBuilder::new()
        .pipeline(PipelineMode::Owned(Box::new(pipeline)))
        .network(NetworkMode::Adaptive(Box::new(data.social.clone())))
        .build()
}

/// One request through `sc_serve::client`; returns `(status, body)`.
fn request(addr: SocketAddr, method: &str, path: &str, body: &str) -> (u16, String) {
    sc_serve::client::request(addr, method, path, body).expect("request")
}

fn events_json(events: &[EventKind]) -> String {
    Value::Array(events.iter().map(|e| e.to_value()).collect()).to_json_string()
}

fn cohort_events(data: &SyntheticDataset, day: usize) -> Vec<EventKind> {
    data.instance_for_day(day, 0, 25, InstanceOptions::default())
        .instance
        .workers
        .into_iter()
        .map(|worker| EventKind::WorkerArrival { worker })
        .collect()
}

#[test]
fn endpoints_answer_and_backpressure_bites() {
    let data = dataset();
    let server = Server::start(
        engine(&data),
        ServeConfig {
            queue_cap: 8,
            http_threads: 3,
            ..Default::default()
        },
    )
    .unwrap();
    let addr = server.local_addr();

    let (status, body) = request(addr, "GET", "/healthz", "");
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"ok\":true"), "{body}");

    // A batch of five fits under the cap of eight…
    let now = TimeInstant::at(0, 9);
    let batch: Vec<EventKind> = (0..5u32)
        .map(|i| scripted_event(&data, 13, i, now, 2.0))
        .collect();
    let (status, body) = request(addr, "POST", "/events", &events_json(&batch));
    assert_eq!(status, 202, "{body}");
    assert!(body.contains("\"accepted\":5"), "{body}");

    // …a second batch of five would overflow it: refused whole.
    let (status, body) = request(addr, "POST", "/events", &events_json(&batch));
    assert_eq!(status, 429, "{body}");
    assert!(body.contains("queue full"), "{body}");
    assert_eq!(server.queued_events(), 5, "refused batch must not enqueue");

    // A single bare event object (not an array) is accepted too.
    let solo = scripted_event(&data, 13, 90, now, 2.0);
    let (status, body) = request(addr, "POST", "/events", &solo.to_value().to_json_string());
    assert_eq!(status, 202, "{body}");

    let (status, body) = request(addr, "POST", "/round", "{\"day\": 0, \"hour\": 9}");
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"applied\":6"), "{body}");
    assert!(body.contains("\"report\":"), "{body}");
    assert_eq!(server.queued_events(), 0, "round must drain the queue");

    // A batch of nine could not fit even the empty queue, so retrying
    // it would never help: refused whole with `413`, not `429`.
    let nine: Vec<EventKind> = (0..9u32)
        .map(|i| scripted_event(&data, 13, 20 + i, now, 2.0))
        .collect();
    let (status, body) = request(addr, "POST", "/events", &events_json(&nine));
    assert_eq!(status, 413, "{body}");
    assert!(body.contains("batch larger than the queue"), "{body}");
    assert_eq!(server.queued_events(), 0, "refused batch must not enqueue");

    let (status, body) = request(addr, "GET", "/report", "");
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"rounds\":1"), "{body}");
    assert!(body.contains("\"summary\":"), "{body}");

    // Error surface: wrong method, unknown path, malformed bodies.
    assert_eq!(request(addr, "GET", "/events", "").0, 405);
    assert_eq!(request(addr, "POST", "/healthz", "").0, 405);
    assert_eq!(request(addr, "GET", "/nope", "").0, 404);
    assert_eq!(request(addr, "POST", "/events", "not json").0, 400);
    assert_eq!(request(addr, "POST", "/round", "{\"day\": 0}").0, 400);
    assert_eq!(
        request(
            addr,
            "POST",
            "/round",
            "{\"day\":0,\"hour\":9,\"algorithm\":\"nope\"}"
        )
        .0,
        400
    );
    let (status, body) = request(addr, "POST", "/snapshot", "");
    assert_eq!(
        status, 400,
        "unconfigured snapshot path must refuse: {body}"
    );

    server.shutdown();
}

#[test]
fn snapshot_overrides_stay_in_the_configured_directory() {
    let data = dataset();
    let root = std::env::temp_dir().join(format!("dita-serve-override-{}", std::process::id()));
    let (a, b) = (root.join("a"), root.join("b"));
    std::fs::create_dir_all(&a).unwrap();
    std::fs::create_dir_all(&b).unwrap();
    let notes = b.join("notes.txt");
    std::fs::write(&notes, "not a snapshot").unwrap();

    let server = Server::start(
        engine(&data),
        ServeConfig {
            snapshot_path: Some(a.join("snap.json")),
            ..Default::default()
        },
    )
    .unwrap();
    let addr = server.local_addr();
    let body = |path: &std::path::Path| format!("{{\"path\": {:?}}}", path.display().to_string());

    // Another directory, reached directly or through `..`, and a path
    // that names the configured directory itself: refused, untouched.
    for path in [notes.clone(), a.join("..").join("b").join("notes.txt")] {
        let (status, reply) = request(addr, "POST", "/snapshot", &body(&path));
        assert_eq!(status, 400, "{reply}");
        assert!(reply.contains("the directory of --snapshot"), "{reply}");
    }
    assert_eq!(
        request(addr, "POST", "/snapshot", &body(&a.join("."))).0,
        400
    );
    assert_eq!(std::fs::read(&notes).unwrap(), b"not a snapshot");
    assert!(!b.join("notes.txt.tmp").exists());

    // A file beside the configured one: written.
    let other = a.join("other.json");
    let (status, reply) = request(addr, "POST", "/snapshot", &body(&other));
    assert_eq!(status, 200, "{reply}");
    assert!(load_snapshot(&other).is_ok());
    assert!(!a.join("snap.json").exists());

    server.shutdown();
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn body_over_the_cap_gets_413_and_the_server_keeps_serving() {
    let data = dataset();
    let server = Server::start(engine(&data), ServeConfig::default()).unwrap();
    let raw = "POST /events HTTP/1.1\r\ncontent-length: 20000000\r\n\r\n";
    let replies = replies_until_close(server.local_addr(), raw.as_bytes());
    assert_eq!(replies.len(), 1, "{replies:?}");
    assert!(replies[0].0.starts_with("HTTP/1.1 413"), "{replies:?}");
    assert!(replies[0].0.contains("connection: close"), "{replies:?}");
    assert!(replies[0].1.contains("body too large"), "{replies:?}");
    assert_eq!(request(server.local_addr(), "GET", "/healthz", "").0, 200);
    server.shutdown();
}

#[test]
fn deeply_nested_body_is_refused_and_the_server_keeps_serving() {
    let data = dataset();
    let server = Server::start(engine(&data), ServeConfig::default()).unwrap();
    let addr = server.local_addr();

    // 100 KB of `[` nests far past the parser's cap. Unbounded, the
    // recursion would overflow an HTTP thread's stack and abort the
    // whole process.
    let (status, body) = request(addr, "POST", "/events", &"[".repeat(100_000));
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("nesting deeper than"), "{body}");

    let (status, body) = request(addr, "GET", "/healthz", "");
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"queued\":0"), "{body}");

    server.shutdown();
}

#[test]
fn restored_server_reports_byte_identically() {
    let data = dataset();
    let dir = std::env::temp_dir().join(format!("dita-serve-smoke-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let snap = dir.join("engine.snapshot.json");

    let server = Server::start(
        engine(&data),
        ServeConfig {
            snapshot_path: Some(snap.clone()),
            ..Default::default()
        },
    )
    .unwrap();
    let addr = server.local_addr();

    // Day 0: a worker cohort plus scripted tasks, one served round.
    let mut day0 = cohort_events(&data, 0);
    day0.extend((0..6u32).map(|i| scripted_event(&data, 13, i, TimeInstant::at(0, 9), 2.0)));
    let (status, _) = request(addr, "POST", "/events", &events_json(&day0));
    assert_eq!(status, 202);
    let (status, _) = request(addr, "POST", "/round", "{\"day\": 0, \"hour\": 9}");
    assert_eq!(status, 200);

    // Queue more events, then snapshot mid-stream: the queued events
    // must be folded into the engine before the file is written.
    let tail: Vec<EventKind> = (6..9u32)
        .map(|i| scripted_event(&data, 13, i, TimeInstant::at(0, 10), 2.0))
        .collect();
    let (status, _) = request(addr, "POST", "/events", &events_json(&tail));
    assert_eq!(status, 202);
    let (status, body) = request(addr, "POST", "/snapshot", "");
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"events_folded\":3"), "{body}");

    // The original keeps serving: one more round, then its report.
    let (status, _) = request(addr, "POST", "/round", "{\"day\": 0, \"hour\": 10}");
    assert_eq!(status, 200);
    let (_, original_report) = request(addr, "GET", "/report", "");
    server.shutdown();

    // A new process restores the snapshot (different thread count on
    // purpose) and serves the same remaining stream.
    let restored = load_snapshot(&snap).expect("restore snapshot");
    let server = Server::start(
        restored,
        ServeConfig {
            http_threads: 4,
            ..Default::default()
        },
    )
    .unwrap();
    let addr = server.local_addr();
    let (status, _) = request(addr, "POST", "/round", "{\"day\": 0, \"hour\": 10}");
    assert_eq!(status, 200);
    let (_, restored_report) = request(addr, "GET", "/report", "");
    server.shutdown();

    assert_eq!(
        original_report, restored_report,
        "restored serve process must report byte-for-byte like the original"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn idle_connection_does_not_starve_other_clients() {
    let data = dataset();
    let server = Server::start(
        engine(&data),
        ServeConfig {
            http_threads: 1,
            ..Default::default()
        },
    )
    .unwrap();
    let addr = server.local_addr();

    // A client that connects and sends nothing takes the only HTTP
    // worker first.
    let mut idle = TcpStream::connect(addr).unwrap();
    let (tx, rx) = mpsc::channel();
    let poll = std::thread::spawn(move || {
        let _ = tx.send(sc_serve::client::request(addr, "GET", "/healthz", ""));
    });
    let (status, body) = rx
        .recv_timeout(Duration::from_secs(30))
        .expect("GET /healthz starved by an idle connection")
        .expect("request");
    assert_eq!(status, 200, "{body}");
    poll.join().unwrap();

    // The idle connection was answered with a 408 and closed.
    idle.set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let mut raw = String::new();
    idle.read_to_string(&mut raw).unwrap();
    assert!(raw.starts_with("HTTP/1.1 408"), "{raw}");

    server.shutdown();
}

#[test]
fn trickling_client_is_cut_off_at_the_request_deadline() {
    let data = dataset();
    let server = Server::start(
        engine(&data),
        ServeConfig {
            http_threads: 1,
            ..Default::default()
        },
    )
    .unwrap();
    let addr = server.local_addr();

    // A client that sends a valid request one byte a second connects
    // first, so it takes the only HTTP worker first. Every byte comes
    // well within a per-read timeout; only a deadline on the whole
    // request frees the worker before the ~25 s the request would take.
    let mut slow = TcpStream::connect(addr).unwrap();
    let trickle = std::thread::spawn(move || {
        for &byte in b"GET /healthz HTTP/1.1\r\n\r\n" {
            if slow.write_all(&[byte]).is_err() {
                return; // cut off
            }
            std::thread::sleep(Duration::from_secs(1));
        }
    });
    let (tx, rx) = mpsc::channel();
    let poll = std::thread::spawn(move || {
        let _ = tx.send(sc_serve::client::request(addr, "GET", "/healthz", ""));
    });
    // The 5 s request deadline, plus slack.
    let (status, body) = rx
        .recv_timeout(Duration::from_secs(5 + 3))
        .expect("GET /healthz starved by a trickling client")
        .expect("request");
    assert_eq!(status, 200, "{body}");
    poll.join().unwrap();

    server.shutdown();
    // The closed connection fails the trickler's next writes.
    trickle.join().unwrap();
}

/// Reads one response: its head and its body, read by its
/// `content-length`. `None` when the server closed the connection (a
/// reset counts: a server that closes with request bytes unread resets
/// the connection).
fn read_reply(reader: &mut impl BufRead) -> Option<(String, String)> {
    let mut head = String::new();
    loop {
        let mut line = String::new();
        match reader.read_line(&mut line) {
            Ok(0) => {
                assert!(head.is_empty(), "closed inside a head: {head:?}");
                return None;
            }
            Ok(_) if line == "\r\n" => break,
            Ok(_) => head.push_str(&line),
            Err(e) if e.kind() == ErrorKind::ConnectionReset && head.is_empty() => return None,
            Err(e) => panic!("reading a reply: {e} (after {head:?})"),
        }
    }
    let length = head
        .lines()
        .find_map(|l| l.strip_prefix("content-length: "))
        .expect("a content-length")
        .parse()
        .unwrap();
    let mut body = vec![0; length];
    reader.read_exact(&mut body).unwrap();
    Some((head, String::from_utf8(body).unwrap()))
}

/// Sends `raw` on a new connection and reads every reply until the
/// server closes it, which it must do within 2 s — well before the
/// 5 s a kept-alive connection may stay idle.
fn replies_until_close(addr: SocketAddr, raw: &[u8]) -> Vec<(String, String)> {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream.write_all(raw).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(2)))
        .unwrap();
    let mut reader = BufReader::new(stream);
    std::iter::from_fn(|| read_reply(&mut reader)).collect()
}

#[test]
fn two_requests_share_one_connection() {
    let data = dataset();
    let server = Server::start(engine(&data), ServeConfig::default()).unwrap();
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    for _ in 0..2 {
        stream.write_all(b"GET /healthz HTTP/1.1\r\n\r\n").unwrap();
        let (head, body) = read_reply(&mut reader).expect("a reply on the same connection");
        assert!(head.starts_with("HTTP/1.1 200"), "{head}");
        assert!(head.contains("connection: keep-alive"), "{head}");
        assert!(body.contains("\"ok\":true"), "{body}");
    }
    drop((stream, reader));
    server.shutdown();
}

#[test]
fn pipelined_requests_are_answered_in_order() {
    let data = dataset();
    let server = Server::start(engine(&data), ServeConfig::default()).unwrap();
    let event = scripted_event(&data, 13, 0, TimeInstant::at(0, 9), 2.0)
        .to_value()
        .to_json_string();
    let raw = format!(
        "POST /events HTTP/1.1\r\ncontent-length: {}\r\n\r\n{event}\
         GET /healthz HTTP/1.1\r\nconnection: close\r\n\r\n",
        event.len()
    );
    let replies = replies_until_close(server.local_addr(), raw.as_bytes());
    assert_eq!(replies.len(), 2, "{replies:?}");
    assert!(replies[0].0.starts_with("HTTP/1.1 202"), "{replies:?}");
    assert!(replies[0].1.contains("\"accepted\":1"), "{replies:?}");
    assert!(replies[1].0.starts_with("HTTP/1.1 200"), "{replies:?}");
    assert!(replies[1].1.contains("\"queued\":1"), "{replies:?}");
    server.shutdown();
}

#[test]
fn client_reuses_its_connection() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let (tx, rx) = mpsc::channel();
    let client = std::thread::spawn(move || {
        for _ in 0..2 {
            let reply = sc_serve::client::request(addr, "GET", "/healthz", "");
            if tx.send(reply).is_err() {
                return;
            }
        }
    });
    // One connection, two requests, each answered with a framed body
    // and the connection left open.
    let (stream, _) = listener.accept().unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    for i in 0..2 {
        let request = sc_serve::read_request(&mut reader)
            .unwrap()
            .expect("a second request on the same connection");
        assert_eq!(request.path, "/healthz");
        let body = format!("{{\"n\":{i}}}");
        let reply = format!(
            "HTTP/1.1 200 OK\r\ncontent-length: {}\r\n\r\n{body}",
            body.len()
        );
        (&stream).write_all(reply.as_bytes()).unwrap();
        let (status, got) = rx
            .recv_timeout(Duration::from_secs(10))
            .expect("the client reads the body by its content-length")
            .expect("request");
        assert_eq!((status, got), (200, body));
    }
    client.join().unwrap();
    listener.set_nonblocking(true).unwrap();
    let second = listener.accept().map(|_| ()).unwrap_err();
    assert_eq!(second.kind(), ErrorKind::WouldBlock, "a second connection");
}

#[test]
fn connection_close_is_honoured() {
    let data = dataset();
    let server = Server::start(engine(&data), ServeConfig::default()).unwrap();
    for raw in [
        "GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n",
        "GET /healthz HTTP/1.0\r\n\r\n",
    ] {
        let replies = replies_until_close(server.local_addr(), raw.as_bytes());
        assert_eq!(replies.len(), 1, "{raw:?}: {replies:?}");
        assert!(replies[0].0.starts_with("HTTP/1.1 200"), "{replies:?}");
        assert!(replies[0].0.contains("connection: close"), "{replies:?}");
    }
    server.shutdown();
}

#[test]
fn idle_keepalive_connection_yields_to_a_new_client() {
    let data = dataset();
    let server = Server::start(
        engine(&data),
        ServeConfig {
            http_threads: 1,
            ..Default::default()
        },
    )
    .unwrap();
    let addr = server.local_addr();

    // This thread's connection stays open, idle, on the only worker.
    assert_eq!(request(addr, "GET", "/healthz", "").0, 200);

    // A new client is answered well before that connection's 5 s idle
    // limit would free the worker.
    let (tx, rx) = mpsc::channel();
    let other = std::thread::spawn(move || {
        let _ = tx.send(sc_serve::client::request(addr, "GET", "/healthz", ""));
    });
    let (status, body) = rx
        .recv_timeout(Duration::from_secs(2))
        .expect("GET /healthz waited on an idle kept-alive connection")
        .expect("request");
    assert_eq!(status, 200, "{body}");
    other.join().unwrap();

    // The server closed this thread's connection to free the worker;
    // the client finds out on its next request and sends it again on a
    // new connection, and the event is applied exactly once.
    let before = server.queued_events();
    let event = scripted_event(&data, 13, 0, TimeInstant::at(0, 9), 2.0);
    let (status, body) = request(addr, "POST", "/events", &event.to_value().to_json_string());
    assert_eq!(status, 202, "{body}");
    assert_eq!(server.queued_events(), before + 1);

    server.shutdown();
}

#[test]
fn shutdown_does_not_wait_for_idle_connections() {
    let data = dataset();
    let server = Server::start(engine(&data), ServeConfig::default()).unwrap();
    assert_eq!(request(server.local_addr(), "GET", "/healthz", "").0, 200);
    // This thread still holds its kept-alive connection.
    let t = Instant::now();
    server.shutdown();
    assert!(t.elapsed() < Duration::from_secs(1), "{:?}", t.elapsed());
}

#[test]
fn chunked_and_repeated_length_requests_are_refused_and_closed() {
    let data = dataset();
    let server = Server::start(engine(&data), ServeConfig::default()).unwrap();
    let smuggled = "GET /healthz HTTP/1.1\r\n\r\n";
    let chunked = format!(
        "POST /events HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n{:x}\r\n{smuggled}\r\n0\r\n\r\n",
        smuggled.len()
    );
    let repeated = format!(
        "POST /events HTTP/1.1\r\nContent-Length: 0\r\nContent-Length: {}\r\n\r\n{smuggled}",
        smuggled.len()
    );
    for raw in [chunked, repeated] {
        let replies = replies_until_close(server.local_addr(), raw.as_bytes());
        assert_eq!(replies.len(), 1, "{raw:?}: {replies:?}");
        assert!(replies[0].0.starts_with("HTTP/1.1 400"), "{replies:?}");
        assert!(replies[0].0.contains("connection: close"), "{replies:?}");
    }
    assert_eq!(server.queued_events(), 0);
    server.shutdown();
}

#[test]
fn numbers_no_round_can_use_are_refused_at_the_door() {
    let data = dataset();
    let server = Server::start(engine(&data), ServeConfig::default()).unwrap();
    let addr = server.local_addr();

    let worker = Worker::new(WorkerId::new(3), Location::new(1.25, 2.0), 6.5).with_speed(7.5);
    let arrival = EventKind::WorkerArrival { worker }
        .to_value()
        .to_json_string();
    let (status, body) = request(addr, "POST", "/events", &arrival);
    assert_eq!(status, 202, "{body}");

    // A task whose deadline, `published + valid_for` (1 h), is one
    // second past the range of time.
    let late = TimeInstant::from_seconds(i64::MAX - 3_599);
    let overflowing_task = scripted_event(&data, 13, 0, late, 1.0)
        .to_value()
        .to_json_string();
    let refused = [
        arrival.replace("7.5", "0"),
        arrival.replace("7.5", "-5"),
        arrival.replace("6.5", "1e999"),
        overflowing_task,
        // One bad event refuses its whole batch.
        format!("[{arrival},{}]", arrival.replace("7.5", "0")),
    ];
    for bad in &refused {
        let (status, body) = request(addr, "POST", "/events", bad);
        assert_eq!(status, 400, "{bad}: {body}");
        assert_eq!(
            server.queued_events(),
            1,
            "{bad}: the queue must not change"
        );
    }
    let (status, body) = request(addr, "POST", "/events", &refused[4]);
    assert!(body.contains("event 1:"), "{status}: {body}");

    // A round past the range of time is refused before it drains.
    let round = "{\"day\": 106751991167301, \"hour\": 0}";
    let (status, body) = request(addr, "POST", "/round", round);
    assert_eq!(status, 400, "{body}");
    assert_eq!(server.queued_events(), 1);

    // Valid input still goes through.
    let (status, body) = request(addr, "POST", "/events", &format!("[{arrival}]"));
    assert_eq!(status, 202, "{body}");
    assert_eq!(server.queued_events(), 2);
    let (status, body) = request(addr, "POST", "/round", "{\"day\": 0, \"hour\": 9}");
    assert_eq!(status, 200, "{body}");

    server.shutdown();
}

/// One server shared by every fuzz case: the cases only decode and
/// enqueue. The queue is large, so most batches are accepted (a full
/// queue's `429` is an allowed answer too). Dropping the handle leaves
/// the server serving for the rest of the test run.
fn fuzz_server() -> SocketAddr {
    static ADDR: OnceLock<SocketAddr> = OnceLock::new();
    *ADDR.get_or_init(|| {
        let config = ServeConfig {
            queue_cap: 1 << 20,
            ..Default::default()
        };
        Server::start(engine(&dataset()), config)
            .unwrap()
            .local_addr()
    })
}

/// A `POST` with a raw (possibly non-UTF-8) body; returns the status.
/// It reads to end of stream, so it asks the server to close.
fn post_raw(addr: SocketAddr, path: &str, body: &[u8]) -> u16 {
    let mut stream = TcpStream::connect(addr).unwrap();
    let head = format!(
        "POST {path} HTTP/1.1\r\ncontent-length: {}\r\nconnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes()).unwrap();
    stream.write_all(body).unwrap();
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).unwrap();
    let raw = String::from_utf8_lossy(&raw);
    raw.split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("malformed response: {raw:?}"))
}

/// Asserts the answer is one the endpoint may give and the process
/// still serves.
fn assert_served(addr: SocketAddr, status: u16, allowed: &[u16]) {
    assert!(allowed.contains(&status), "status {status}");
    assert_eq!(request(addr, "GET", "/healthz", "").0, 200);
}

/// The answers `POST /events` may give a fuzz case.
const EVENTS_ANSWERS: &[u16] = &[202, 400, 429];

/// A valid event of every kind, as wire values: the templates the
/// mangled events start from.
fn event_templates(data: &SyntheticDataset) -> Vec<Value> {
    let now = TimeInstant::at(0, 9);
    let mut history = History::new();
    history.push(CheckIn::at(
        WorkerId::new(60),
        VenueId::new(2),
        Location::new(2.0, 0.0),
        now,
        vec![CategoryId::new(1)],
    ));
    let mut kinds = cohort_events(data, 0);
    kinds.truncate(1);
    kinds.push(scripted_event(data, 13, 0, now, 2.0));
    kinds.push(EventKind::WorkerNew {
        worker: Worker::new(WorkerId::new(60), Location::new(1.0, 1.0), 5.0),
        friends: vec![WorkerId::new(1), WorkerId::new(2)],
        history,
    });
    kinds.push(EventKind::WorkerDeparture {
        worker: WorkerId::new(3),
    });
    kinds.iter().map(|k| k.to_value()).collect()
}

/// Every object field in `v`, as a path of child positions.
fn field_paths(v: &Value, path: &mut Vec<usize>, out: &mut Vec<Vec<usize>>) {
    let (children, object): (Vec<&Value>, bool) = match v {
        Value::Object(fields) => (fields.iter().map(|(_, c)| c).collect(), true),
        Value::Array(items) => (items.iter().collect(), false),
        _ => return,
    };
    for (i, child) in children.into_iter().enumerate() {
        path.push(i);
        if object {
            out.push(path.clone());
        }
        field_paths(child, path, out);
        path.pop();
    }
}

/// Stand-ins for the infinities, which JSON can only spell as an
/// overflowing literal: replaced by `1e999` / `-1e999` in the body.
const INF: &str = "@inf@";
const NEG_INF: &str = "@-inf@";

/// How many values [`replacement`] knows; from `REPLACEMENTS` on, the
/// field is removed.
const REPLACEMENTS: usize = 20;

/// What mutation `k` puts in a field: a wrong type (`"x"` is also an
/// unknown algorithm name), an extreme integer or float, an infinity,
/// or nothing (`None`: the field is removed).
fn replacement(k: usize) -> Option<Value> {
    let values: [Value; REPLACEMENTS] = [
        Value::Null,
        Value::Bool(true),
        Value::Str("x".to_string()),
        Value::Array(vec![Value::Int(1)]),
        Value::Object(vec![]),
        Value::Int(-1),
        Value::Int(i128::from(u32::MAX) + 1),
        Value::Int(i128::from(i64::MAX) + 1),
        Value::Int(i128::from(i64::MIN) - 1),
        Value::Int(i64::MAX.into()),
        Value::Int(i64::MIN.into()),
        Value::Int(i128::MAX),
        Value::Int(i128::MIN),
        Value::Float(1e308),
        Value::Float(-1e308),
        Value::Float(5e-324),
        Value::Float(-0.0),
        Value::Float(0.5),
        Value::Str(INF.to_string()),
        Value::Str(NEG_INF.to_string()),
    ];
    values.get(k).cloned()
}

/// A body with the infinity stand-ins spelled as overflowing literals.
fn spell_infinities(body: &str) -> String {
    body.replace(&format!("\"{INF}\""), "1e999")
        .replace(&format!("\"{NEG_INF}\""), "-1e999")
}

/// How many event rewrites [`mangled_event_body`] knows past
/// [`replacement`]'s values and the removal. The wire form writes none
/// of them, and a decoder must read each as the tree does:
/// 1. the field's object with its keys in reverse order (an event's
///    `type` last);
/// 2. a second copy of the field's key, holding garbage;
/// 3. an unknown key after the field, holding nested arrays and
///    objects;
/// 4. the field's key written with a `\u` escape (`"ty\u0070e"`);
/// 5. whitespace between every two tokens.
const REWRITES: usize = 5;

/// The events a mangled body starts from.
fn templates() -> &'static [Value] {
    static TEMPLATES: OnceLock<Vec<Value>> = OnceLock::new();
    TEMPLATES.get_or_init(|| event_templates(&dataset()))
}

/// Template `template` mangled at its `field`-th field (modulo the
/// count) by `action`: a [`replacement`] value, the field's removal, or
/// one of the [`REWRITES`]. With `batch`, the body is an array whose
/// first event is the valid template 0.
fn mangled_event_body(template: usize, field: usize, action: usize, batch: bool) -> String {
    let mut event = templates()[template].clone();
    let mut paths = Vec::new();
    field_paths(&event, &mut Vec::new(), &mut paths);
    let (last, parents) = paths[field % paths.len()].split_last().unwrap();
    let mut parent = &mut event;
    for &i in parents {
        parent = match parent {
            Value::Object(fields) => &mut fields[i].1,
            Value::Array(items) => &mut items[i],
            _ => unreachable!("paths only descend containers"),
        };
    }
    let Value::Object(fields) = parent else {
        unreachable!("paths end at object fields");
    };
    let key = fields[*last].0.clone();
    let nested = || serde::json::parse(r#"[{"a":[1,{}],"type":{"b":null}},[]]"#).unwrap();
    match action.checked_sub(REPLACEMENTS) {
        None => fields[*last].1 = replacement(action).expect("a replacement value"),
        Some(0) => {
            fields.remove(*last);
        }
        Some(1) => fields.reverse(),
        Some(2) => fields.insert(*last + 1, (key.clone(), nested())),
        Some(3) => fields.insert(*last + 1, ("extra".to_string(), nested())),
        _ => {}
    }
    let mut body = event.to_json_string();
    match action.checked_sub(REPLACEMENTS) {
        Some(4) => {
            let mid = key.len() / 2;
            let escaped = format!(
                "{}\\u{:04x}{}",
                &key[..mid],
                key.as_bytes()[mid],
                &key[mid + 1..]
            );
            body = body.replace(&format!("\"{key}\":"), &format!("\"{escaped}\":"));
        }
        Some(5) => {
            body = event
                .to_json_string_pretty()
                .replace(',', " \t,")
                .replace(':', "\r\n:");
        }
        _ => {}
    }
    if batch {
        body = format!("[{},{body}]", templates()[0].to_json_string());
    }
    spell_infinities(&body)
}

/// Asserts that `sc_serve::decode_events` reads `body` as the tree
/// path does: both refuse it, or both decode events whose JSON is
/// byte-identical.
fn assert_decodes_alike(body: &str) {
    match (
        sc_serve::decode_events(body),
        sc_serve::decode_events_via_tree(body),
    ) {
        (Ok(direct), Ok(tree)) => assert_eq!(events_json(&direct), events_json(&tree), "{body}"),
        (Err(_), Err(_)) => {}
        (direct, tree) => panic!("{body}\nreader: {direct:?}\ntree: {tree:?}"),
    }
}

/// Every field of every template under every action, alone and in a
/// batch: the reader decodes each body as the tree does. Of the bodies,
/// both accept some and refuse others.
#[test]
fn decode_events_reads_every_mangled_event_as_the_tree_does() {
    let (mut accepted, mut refused) = (0, 0);
    for template in 0..templates().len() {
        let mut paths = Vec::new();
        field_paths(&templates()[template], &mut Vec::new(), &mut paths);
        for field in 0..paths.len() {
            for action in 0..=REPLACEMENTS + REWRITES {
                for batch in [false, true] {
                    let body = mangled_event_body(template, field, action, batch);
                    assert_decodes_alike(&body);
                    match sc_serve::decode_events_via_tree(&body) {
                        Ok(_) => accepted += 1,
                        Err(_) => refused += 1,
                    }
                }
            }
        }
    }
    assert!(
        accepted > 100 && refused > 100,
        "{accepted} accepted, {refused} refused"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Random bytes as a `/events` body get an answer, the process
    /// keeps serving, and the reader refuses or decodes them as the
    /// tree does.
    #[test]
    fn events_body_of_random_bytes_gets_an_answer(
        bytes in prop::collection::vec(0u8..=255, 0..=2048),
    ) {
        let addr = fuzz_server();
        assert_served(addr, post_raw(addr, "/events", &bytes), EVENTS_ANSWERS);
        if let Ok(body) = std::str::from_utf8(&bytes) {
            assert_decodes_alike(body);
        }
    }

    /// Event-shaped JSON with one field missing, of the wrong type,
    /// holding an extreme number, or rewritten in a way the wire form
    /// never writes — alone or after a valid event in a batch — gets an
    /// answer, the process keeps serving, and the reader decodes it as
    /// the tree does.
    #[test]
    fn mangled_events_get_an_answer(
        template in 0usize..4,
        field in 0usize..1_000,
        action in 0usize..=REPLACEMENTS + REWRITES,
        batch in 0u8..2,
    ) {
        let body = mangled_event_body(template, field, action, batch == 1);
        assert_decodes_alike(&body);
        let addr = fuzz_server();
        let (status, _) = request(addr, "POST", "/events", &body);
        assert_served(addr, status, EVENTS_ANSWERS);
    }

    /// Random bytes as a `/round` body get a `200` or a `400`, and as a
    /// `/snapshot` body a `400` (the fuzz server has no snapshot path),
    /// and the process keeps serving.
    #[test]
    fn round_and_snapshot_bodies_of_random_bytes_get_an_answer(
        bytes in prop::collection::vec(0u8..=255, 0..=512),
        snapshot in 0u8..2,
    ) {
        let addr = fuzz_server();
        if snapshot == 1 {
            assert_served(addr, post_raw(addr, "/snapshot", &bytes), &[400]);
        } else {
            assert_served(addr, post_raw(addr, "/round", &bytes), &[200, 400]);
        }
    }

    /// A valid `/round` body with one field dropped or replaced gets a
    /// `200` or a `400`, and the process keeps serving.
    #[test]
    fn mangled_round_bodies_get_an_answer(
        form in 0usize..4,
        field in 0usize..3,
        action in 0usize..=REPLACEMENTS,
    ) {
        let forms = [
            r#"{"day":0,"hour":9}"#,
            r#"{"at":32400}"#,
            r#"{"day":0,"hour":9,"algorithm":"IA"}"#,
            r#"{"at":32400,"algorithm":"GREEDY"}"#,
        ];
        let Ok(Value::Object(mut fields)) = serde::json::parse(forms[form]) else {
            unreachable!("the forms are objects");
        };
        let field = field % fields.len();
        match replacement(action) {
            Some(v) => fields[field].1 = v,
            None => {
                fields.remove(field);
            }
        }
        let body = spell_infinities(&Value::Object(fields).to_json_string());
        let addr = fuzz_server();
        let (status, _) = request(addr, "POST", "/round", &body);
        assert_served(addr, status, &[200, 400]);
    }

    /// A `/snapshot` body whose `path` is missing, not a string, or a
    /// string (the fuzz server has no snapshot path, so it takes none)
    /// gets a `400`, and the process keeps serving.
    #[test]
    fn mangled_snapshot_bodies_get_an_answer(action in 0usize..=REPLACEMENTS) {
        let fields = Vec::from_iter(replacement(action).map(|v| ("path".to_string(), v)));
        let body = spell_infinities(&Value::Object(fields).to_json_string());
        let addr = fuzz_server();
        let (status, _) = request(addr, "POST", "/snapshot", &body);
        assert_served(addr, status, &[400]);
    }
}

/// A 12-worker, two-day trace. Workers 0..=9 are active on both days;
/// workers 10 and 11 first check in on day 1. Worker 10's only friend
/// is worker 11, who first checks in two hours after worker 10 does,
/// so worker 10's first sighting has no known friend.
fn friendless_first_sighting_trace() -> LoadedDataset {
    let mut store = HistoryStore::default();
    let mut push = |w: u32, v: u32, day: i64, hour: i64| {
        store.push(CheckIn::at(
            WorkerId::new(w),
            VenueId::new(v),
            Location::new(v as f64, 0.0),
            TimeInstant::at(day, hour),
            vec![CategoryId::new(v % 4)],
        ));
    };
    for w in 0..10u32 {
        for day in 0..2i64 {
            for k in 0..3i64 {
                push(w, w % 5, day, 8 + k * 3 + (w as i64 % 3));
            }
        }
    }
    push(10, 2, 1, 10);
    push(11, 4, 1, 12);
    push(10, 3, 1, 14);
    let mut edges: Vec<(u32, u32)> = (0..9).map(|i| (i, i + 1)).collect();
    edges.push((10, 11));
    edges.push((2, 11));
    LoadedDataset::from_parts(edges, store, 3).unwrap()
}

#[test]
fn wire_replay_matches_in_process_replay() {
    let data = friendless_first_sighting_trace();
    let day = 1;
    let opts = ReplayOptions::default();
    let config = DitaConfig {
        n_topics: 4,
        lda_sweeps: 8,
        infer_sweeps: 4,
        rpo: RpoParams {
            max_sets: 3_000,
            threads: Parallelism::Single,
            ..Default::default()
        },
        online: OnlineConfig {
            round_hours: 1,
            growth_cap: 256,
            eviction_horizon: 4,
            target_sets: 0,
            incremental: true,
        },
        seed: 9,
    };
    let in_process = replay_day(&data, day, config, &opts, AlgorithmKind::Ia).unwrap();

    let slice = data.training_slice(day).unwrap();
    let pipeline = DitaBuilder::new()
        .config(config)
        .build(&slice.social, &slice.histories)
        .unwrap();
    let engine = EngineBuilder::new()
        .pipeline(PipelineMode::Owned(Box::new(pipeline)))
        .network(NetworkMode::Adaptive(Box::new(slice.social)))
        .build();
    let server = Server::start(engine, ServeConfig::default()).unwrap();
    let addr = server.local_addr();
    let mut translator = ReplayTranslator::new(&data, &opts, slice.to_dense);
    let stream = ReplayStream::from_dataset(&data, day, &opts).unwrap();
    for round in stream.rounds() {
        let events: Vec<EventKind> = round
            .events
            .iter()
            .filter_map(|e| translator.translate(e))
            .collect();
        if !events.is_empty() {
            let (status, body) = request(addr, "POST", "/events", &events_json(&events));
            assert_eq!(status, 202, "{body}");
        }
        let close = format!("{{\"at\": {}}}", round.now.as_seconds());
        let (status, body) = request(addr, "POST", "/round", &close);
        assert_eq!(status, 200, "{body}");
    }
    let served = server.shutdown();

    assert_eq!(served.summary(), in_process.report.summary);
    assert_eq!(served.pipeline().model().n_workers(), 12);
}

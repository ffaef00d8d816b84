//! End-to-end smoke of the serving surface over real sockets: every
//! endpoint, queue backpressure, slow clients, the snapshot/restore
//! contract — a restored process must answer `GET /report`
//! byte-for-byte like the uninterrupted original after serving the same
//! remaining stream — and trace replay over the wire matching the
//! in-process replay.

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
use sc_types::{CategoryId, CheckIn, HistoryStore, Location, TimeInstant, VenueId, WorkerId};
use serde::json::Value;
use serde::Serialize as _;
use std::io::Read as _;
use std::net::{SocketAddr, TcpStream};
use std::sync::mpsc;
use std::time::Duration;

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

/// One request over a fresh connection; returns `(status, body)`.
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

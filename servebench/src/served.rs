//! The served run: `sc_serve::Server` on a loopback port, driven only
//! over sockets.
//!
//! One closed-loop writer sends each round's bodies in order and then
//! `POST /round`: the server stamps events in queue order, so a single
//! ordered writer keeps the reports deterministic and checkable. On
//! `contested` a second client polls `GET /report` open-loop at a fixed
//! rate and times each poll from its scheduled send time. At most two
//! threads and two connections at a time.
//!
//! The writer reads the process CPU clock around each round's
//! `/events` requests and around its `/round`, once the server's threads
//! have settled; on `churn` it keeps itself and the server's threads on
//! one CPU for the `/events` requests ([`Kind::pins_ingest`]).

use crate::replay::SNAPSHOTS;
use crate::sys::{cpu_times, process_cpu_s, steal_share, Pin};
use crate::workload::{Kind, TrainTimes, Workload};
use sc_serve::{client, ServeConfig, Server};
use sc_sim::OnlineEngine;
use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Set-ups per run; the median is reported.
pub const SETUPS: usize = 3;

/// `GET /report` polls per second.
pub const POLL_HZ: f64 = 20.0;

/// How long the writer idles before it reads the CPU clock.
const SETTLE: Duration = Duration::from_millis(1);

/// Requests sent to one endpoint, by how they ended.
#[derive(Debug, Clone, Copy, Default)]
pub struct Tally {
    /// Requests sent.
    pub sent: u64,
    /// Answered 2xx.
    pub ok: u64,
    /// Answered 429 (queue full).
    pub too_many: u64,
    /// Answered with another status.
    pub other: u64,
    /// Failed in transport (connect, write, read).
    pub transport: u64,
}

impl Tally {
    fn add(&mut self, other: &Tally) {
        self.sent += other.sent;
        self.ok += other.ok;
        self.too_many += other.too_many;
        self.other += other.other;
        self.transport += other.transport;
    }

    /// Requests without a 2xx reply.
    pub fn failed(&self) -> u64 {
        self.sent - self.ok
    }
}

/// One client's view of the server.
struct Client {
    addr: SocketAddr,
    tallies: BTreeMap<&'static str, Tally>,
}

impl Client {
    /// Sends one request; the body of a 2xx reply, else `None`.
    fn call(&mut self, method: &str, path: &'static str, body: &str) -> Option<String> {
        let tally = self.tallies.entry(path).or_default();
        tally.sent += 1;
        match client::request(self.addr, method, path, body) {
            Ok((status, reply)) if (200..300).contains(&status) => {
                tally.ok += 1;
                Some(reply)
            }
            Ok((429, _)) => {
                tally.too_many += 1;
                None
            }
            Ok(_) => {
                tally.other += 1;
                None
            }
            Err(_) => {
                tally.transport += 1;
                None
            }
        }
    }

    /// Polls `GET /healthz` until it answers 200.
    fn wait_healthy(&mut self) {
        let deadline = Instant::now() + Duration::from_secs(30);
        while self.call("GET", "/healthz", "").is_none() {
            assert!(Instant::now() < deadline, "server never became healthy");
            std::thread::sleep(Duration::from_millis(1));
        }
    }
}

/// One set-up: inputs in memory → trained engine → `Server::start` →
/// first 200 from `GET /healthz`.
#[derive(Debug, Clone, Copy)]
pub struct Setup {
    /// Wall time of the whole set-up.
    pub total_s: f64,
    /// CPU time the process spent on the whole set-up. Time the
    /// hypervisor stole does not count, so it swings less between runs
    /// than wall time.
    pub cpu_s: f64,
    /// Slice and training.
    pub train: TrainTimes,
    /// `Server::start` → first 200 from `/healthz`.
    pub server_start_s: f64,
}

/// What the served run measured and answered.
pub struct Served {
    /// Every set-up.
    pub setups: Vec<Setup>,
    /// `POST /events` latencies, ms.
    pub events_ms: Vec<f64>,
    /// `POST /round` latencies, ms, in round order (the first is cold).
    pub round_ms: Vec<f64>,
    /// `GET /report` poll latencies from the scheduled send time, ms.
    pub report_ms: Vec<f64>,
    /// How late each poll was sent behind its schedule, ms.
    pub poll_late_ms: Vec<f64>,
    /// Every `POST /round` reply body (empty when the request failed).
    pub round_replies: Vec<String>,
    /// The final `GET /report` body.
    pub final_report: String,
    /// Events the rounds applied or rejected.
    pub events_ingested: usize,
    /// Wall time of the stream: every round's `/events` and `/round`.
    pub stream_s: f64,
    /// Largest `queued` in the `/events` replies.
    pub queue_peak: usize,
    /// End-of-stream `POST /snapshot` latencies, s.
    pub snapshot_s: Vec<f64>,
    /// Size of the end-of-stream snapshot file.
    pub snapshot_bytes: u64,
    /// `churn`: `load_snapshot` + `Server::start` → first 200, s.
    pub restore_s: Option<f64>,
    /// `churn`: the restored server's `/round` replies for the rounds
    /// after the snapshot.
    pub restored_replies: Vec<String>,
    /// `churn`: the restored server's `/report` after those rounds.
    pub restored_report: Option<String>,
    /// Requests by endpoint.
    pub tallies: BTreeMap<&'static str, Tally>,
    /// Peak RSS during the stream, MB (the peak is reset after set-up).
    pub peak_rss_mb: f64,
    /// Share of the host's CPU time the hypervisor gave to other guests
    /// during the stream (`steal` in `/proc/stat`): the main source of
    /// run-to-run noise on a shared VM.
    pub steal_share: Option<f64>,
    /// CPU time the process (server and clients) spent inside each
    /// round's `POST /events` requests, per event, µs; rounds without
    /// events are left out.
    pub events_cpu_us: Vec<f64>,
    /// CPU time the process spent inside each `POST /round` request, ms,
    /// in round order (the first is cold).
    pub round_cpu_ms: Vec<f64>,
}

/// Lets the server's threads finish the reply they just sent and block
/// before the process CPU clock is read. The kernel books a running
/// thread's time when it is switched out or at a timer tick (every 4 ms
/// at 250 Hz), and the process clock leaves out what other threads ran
/// since then, so a reading taken while the server still closes a
/// connection would shift its time into the next interval.
fn settled_cpu_s() -> f64 {
    std::thread::sleep(SETTLE);
    process_cpu_s()
}

fn config(snapshot_path: &Path) -> ServeConfig {
    ServeConfig {
        snapshot_path: Some(snapshot_path.to_path_buf()),
        ..ServeConfig::default()
    }
}

fn field(reply: &str, name: &str) -> usize {
    let value = serde::json::parse(reply).expect("replies are JSON");
    serde::get_field(value.as_object().expect("replies are objects"), name).expect("reply field")
}

/// Sends one round's `POST /events` bodies in order.
fn send_events(
    client: &mut Client,
    round: &crate::workload::Round,
    events_ms: &mut Vec<f64>,
    queue_peak: &mut usize,
) {
    for body in &round.bodies {
        let t = Instant::now();
        let reply = client.call("POST", "/events", body);
        events_ms.push(t.elapsed().as_secs_f64() * 1e3);
        if let Some(reply) = reply {
            *queue_peak = (*queue_peak).max(field(&reply, "queued"));
        }
    }
}

/// Closes one round; returns the `/round` reply and its latency in ms.
fn close_round(client: &mut Client, round: &crate::workload::Round) -> (Option<String>, f64) {
    let t = Instant::now();
    let reply = client.call("POST", "/round", &round.close);
    (reply, t.elapsed().as_secs_f64() * 1e3)
}

/// Polls `GET /report` every `1 / POLL_HZ` s until `stop`; returns
/// latencies from each scheduled send time and how late each was sent.
fn poll(addr: SocketAddr, stop: &AtomicBool) -> (Vec<f64>, Vec<f64>, Tally) {
    let mut client = Client {
        addr,
        tallies: BTreeMap::new(),
    };
    let period = Duration::from_secs_f64(1.0 / POLL_HZ);
    let (mut latency, mut late) = (Vec::new(), Vec::new());
    let start = Instant::now();
    for k in 0u32.. {
        let due = start + period * k;
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        if stop.load(Ordering::SeqCst) {
            break;
        }
        late.push(due.elapsed().as_secs_f64() * 1e3);
        client.call("GET", "/report", "");
        latency.push(due.elapsed().as_secs_f64() * 1e3);
    }
    (
        latency,
        late,
        client.tallies.remove("/report").unwrap_or_default(),
    )
}

/// Sets up `SETUPS` times, serves the stream from the last set-up, and
/// takes the end-of-stream snapshots; on `churn` also restores the
/// mid-stream snapshot into a fresh server and replays the rest there.
/// Also returns the engine of the first set-up: bit-identical to the
/// one served and never sent an event, the replay's starting point.
pub fn run(workload: &Workload, out_dir: &Path) -> (Served, OnlineEngine<'static>) {
    let pid = std::process::id();
    let mid_path: PathBuf = out_dir.join(format!("served-{pid}.mid.json"));
    let end_path: PathBuf = out_dir.join(format!("served-{pid}.end.json"));
    let mut tallies: BTreeMap<&'static str, Tally> = BTreeMap::new();
    let mut setups = Vec::with_capacity(SETUPS);
    let mut reference = None;
    let mut server = None;
    for i in 0..SETUPS {
        let cpu = process_cpu_s();
        let t = Instant::now();
        let (engine, train) = workload.inputs.train();
        let started = Instant::now();
        let s = Server::start(engine, config(&mid_path)).expect("bind a loopback port");
        let mut client = Client {
            addr: s.local_addr(),
            tallies: BTreeMap::new(),
        };
        client.wait_healthy();
        let (total_s, server_start_s) = (t.elapsed(), started.elapsed());
        setups.push(Setup {
            total_s: total_s.as_secs_f64(),
            cpu_s: settled_cpu_s() - cpu,
            train,
            server_start_s: server_start_s.as_secs_f64(),
        });
        for (path, tally) in &client.tallies {
            tallies.entry(path).or_default().add(tally);
        }
        if i == 0 {
            reference = Some(s.shutdown());
        } else if i + 1 < SETUPS {
            drop(s.shutdown());
        } else {
            server = Some(s);
        }
    }
    let server = server.expect("at least two set-ups");
    let mut client = Client {
        addr: server.local_addr(),
        tallies,
    };

    // The writer and the server's threads, taken before the poller starts.
    let pin = workload.kind.pins_ingest().then(Pin::current_threads);
    sc_stats::rss::reset_peak_rss();
    let cpu_before = cpu_times();
    let stop = AtomicBool::new(false);
    let (mut events_ms, mut events_cpu_us) = (Vec::new(), Vec::new());
    let mut round_ms = Vec::with_capacity(workload.rounds.len());
    let mut round_cpu_ms = Vec::with_capacity(workload.rounds.len());
    let mut round_replies = Vec::with_capacity(workload.rounds.len());
    let mut queue_peak = 0;
    let mut stream_s = 0.0;
    let (addr, stop) = (client.addr, &stop);
    let (report_ms, poll_late_ms) = std::thread::scope(|scope| {
        // Reads beside long writes are `contested`'s question; the other
        // workloads run the writer alone.
        let poller =
            (workload.kind == Kind::Contested).then(|| scope.spawn(move || poll(addr, stop)));
        for (i, round) in workload.rounds.iter().enumerate() {
            if workload.snapshot_at == Some(i) {
                client.call("POST", "/snapshot", "");
                std::thread::sleep(SETTLE);
            }
            if let Some(pin) = &pin {
                pin.one();
            }
            let cpu = process_cpu_s();
            let t = Instant::now();
            send_events(&mut client, round, &mut events_ms, &mut queue_peak);
            stream_s += t.elapsed().as_secs_f64();
            let between = settled_cpu_s();
            if !round.events.is_empty() {
                events_cpu_us.push((between - cpu) * 1e6 / round.events.len() as f64);
            }
            if let Some(pin) = &pin {
                pin.all();
            }
            let cpu = process_cpu_s();
            let (reply, ms) = close_round(&mut client, round);
            stream_s += ms / 1e3;
            round_cpu_ms.push((settled_cpu_s() - cpu) * 1e3);
            round_ms.push(ms);
            round_replies.push(reply.unwrap_or_default());
        }
        stop.store(true, Ordering::SeqCst);
        let Some(poller) = poller else {
            return (Vec::new(), Vec::new());
        };
        let (latency, late, tally) = poller.join().expect("poller thread");
        client.tallies.entry("/report").or_default().add(&tally);
        (latency, late)
    });
    let steal_share = steal_share(cpu_before, cpu_times());
    let peak_rss_mb = sc_stats::rss::peak_rss_bytes().unwrap_or(0) as f64 / 1e6;
    let events_ingested = round_replies
        .iter()
        .filter(|r| !r.is_empty())
        .map(|r| field(r, "applied") + field(r, "rejected"))
        .sum();
    let final_report = client.call("GET", "/report", "").unwrap_or_default();

    let end_body = format!("{{\"path\": {:?}}}", end_path.display().to_string());
    // Spaced apart, so a burst of host noise slows one snapshot, not all.
    let snapshot_s = (0..SNAPSHOTS)
        .map(|_| {
            std::thread::sleep(Duration::from_millis(100));
            let t = Instant::now();
            client.call("POST", "/snapshot", &end_body);
            t.elapsed().as_secs_f64()
        })
        .collect();
    let snapshot_bytes = std::fs::metadata(&end_path).map_or(0, |m| m.len());
    let _ = std::fs::remove_file(&end_path);
    drop(server.shutdown());

    let (mut restore_s, mut restored_replies, mut restored_report) = (None, Vec::new(), None);
    if let Some(at) = workload.snapshot_at {
        let t = Instant::now();
        let engine = sc_sim::load_snapshot(&mid_path).expect("restore the mid-stream snapshot");
        let restored = Server::start(engine, config(&mid_path)).expect("bind a loopback port");
        let mut fresh = Client {
            addr: restored.local_addr(),
            tallies: std::mem::take(&mut client.tallies),
        };
        fresh.wait_healthy();
        restore_s = Some(t.elapsed().as_secs_f64());
        for round in &workload.rounds[at..] {
            send_events(&mut fresh, round, &mut Vec::new(), &mut 0);
            restored_replies.push(close_round(&mut fresh, round).0.unwrap_or_default());
        }
        restored_report = Some(fresh.call("GET", "/report", "").unwrap_or_default());
        drop(restored.shutdown());
        client.tallies = fresh.tallies;
    }
    let _ = std::fs::remove_file(&mid_path);

    let served = Served {
        setups,
        events_ms,
        round_ms,
        report_ms,
        poll_late_ms,
        round_replies,
        final_report,
        events_ingested,
        stream_s,
        queue_peak,
        snapshot_s,
        snapshot_bytes,
        restore_s,
        restored_replies,
        restored_report,
        tallies: client.tallies,
        peak_rss_mb,
        steal_share,
        events_cpu_us,
        round_cpu_ms,
    };
    (served, reference.expect("first set-up"))
}

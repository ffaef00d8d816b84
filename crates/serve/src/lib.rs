//! `sc-serve` — the online-serving front of the DITA reproduction.
//!
//! This crate turns the [`sc_sim::OnlineEngine`] into a long-lived
//! process (`dita serve`) with a unified event-ingestion API:
//!
//! | Method | Path        | Purpose                                            |
//! |--------|-------------|----------------------------------------------------|
//! | `GET`  | `/healthz`  | Liveness + queue depth (never touches the engine)  |
//! | `POST` | `/events`   | Enqueue a batch of [`sc_sim::EventKind`]s (429/413)|
//! | `POST` | `/round`    | Drain the queue, close the round, return the report|
//! | `GET`  | `/report`   | Rounds served, lifetime summary, last round        |
//! | `POST` | `/snapshot` | Fold queued events in, write the versioned snapshot|
//!
//! Everything is hand-rolled over [`std::net`] — the workspace builds
//! offline, so [`http`] implements the needed HTTP/1.1 slice,
//! [`server`] the bounded-queue/thread-pool process around it, and
//! [`client`] the persistent-connection client that talks to it. The
//! determinism contract carries over the wire: events are applied in
//! one total `(round, seq)` order regardless of how many HTTP threads
//! accepted them, so a snapshot-restored process reports byte-for-byte
//! what the uninterrupted one would.

#![forbid(unsafe_code)]

pub mod client;
pub mod http;
pub mod server;

pub use http::{read_request, write_response, Request, MAX_BODY_BYTES};
pub use server::{decode_events, decode_events_via_tree, ServeConfig, Server};

//! The unified event-ingestion surface of the online engine.
//!
//! Every mutation of an [`crate::OnlineEngine`]'s streaming state —
//! task postings, worker logins, mid-stream fold-ins, departures — is
//! one [`Event`]: a typed [`EventKind`] payload stamped with the
//! `(round, seq)` pair that totally orders it within the engine's
//! lifetime. [`crate::OnlineEngine::apply`] is the single entry point
//! ([`crate::OnlineEngine::ingest`] stamps and applies in one call).
//!
//! Events are serde-able, so the same type is the wire format of the
//! `dita serve` HTTP front (`sc-serve`), the replay driver's internal
//! currency, and the payload of scripted benchmark streams — one code
//! path for all three, which is what keeps the determinism contract
//! ("same event sequence ⇒ bit-identical [`crate::RoundReport`]s at
//! any thread count") enforceable.
//!
//! Every application returns an [`Outcome`]; rejections carry a
//! [`RejectReason`], so no event is dropped silently.

use sc_types::{History, Task, VenueId, Worker, WorkerId};
use serde::{json::Value, Deserialize, Error, Serialize};

/// A totally ordered ingestion event: `kind` applied as the `seq`-th
/// event of round `round`.
///
/// [`crate::OnlineEngine::apply`] rejects an event whose `round` is not
/// the engine's current round ([`RejectReason::RoundMismatch`]) or
/// whose `seq` is not monotone within the round
/// ([`RejectReason::OutOfOrder`]) — replays and restores therefore
/// cannot silently reorder a stream. Drivers that generate events
/// in-process use [`crate::OnlineEngine::ingest`], which stamps the
/// pair automatically.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// The engine round this event belongs to.
    pub round: u64,
    /// Position within the round (strictly increasing).
    pub seq: u64,
    /// The payload.
    pub kind: EventKind,
}

/// The typed payload of an [`Event`] — the four mutations the online
/// platform knows.
#[derive(Debug, Clone, PartialEq)]
pub enum EventKind {
    /// A task is posted at a venue (offered from the next round on,
    /// unless already expired at that round's instant).
    TaskArrival {
        /// The posted task.
        task: Task,
        /// The venue the task is anchored at (propagation site).
        venue: VenueId,
    },
    /// A trained worker comes online (or refreshes their state).
    WorkerArrival {
        /// The arriving worker.
        worker: Worker,
    },
    /// A worker the trained model has never seen arrives with social
    /// evidence, to be folded into the live influence network.
    WorkerNew {
        /// The arriving worker (id must be the next dense id).
        worker: Worker,
        /// Trained worker ids the arrival is befriended with.
        friends: Vec<WorkerId>,
        /// Check-in evidence observed so far.
        history: History,
    },
    /// An online worker logs off.
    WorkerDeparture {
        /// The departing worker's id.
        worker: WorkerId,
    },
}

impl EventKind {
    /// The wire tag of this kind (the `"type"` field of the JSON form).
    pub fn tag(&self) -> &'static str {
        match self {
            EventKind::TaskArrival { .. } => "task_arrival",
            EventKind::WorkerArrival { .. } => "worker_arrival",
            EventKind::WorkerNew { .. } => "worker_new",
            EventKind::WorkerDeparture { .. } => "worker_departure",
        }
    }

    /// The payload fields of the JSON form, in wire order, without the
    /// `"type"` tag (shared by the [`Event`] envelope).
    fn payload_fields(&self) -> Vec<(String, Value)> {
        let mut f = vec![("type".to_string(), Value::Str(self.tag().to_string()))];
        match self {
            EventKind::TaskArrival { task, venue } => {
                f.push(("task".to_string(), task.to_value()));
                f.push(("venue".to_string(), venue.to_value()));
            }
            EventKind::WorkerArrival { worker } => {
                f.push(("worker".to_string(), worker.to_value()));
            }
            EventKind::WorkerNew {
                worker,
                friends,
                history,
            } => {
                f.push(("worker".to_string(), worker.to_value()));
                f.push(("friends".to_string(), friends.to_value()));
                f.push(("history".to_string(), history.to_value()));
            }
            EventKind::WorkerDeparture { worker } => {
                f.push(("worker".to_string(), worker.to_value()));
            }
        }
        f
    }

    fn from_fields(obj: &[(String, Value)]) -> Result<Self, Error> {
        let tag: String = serde::get_field(obj, "type")?;
        match tag.as_str() {
            "task_arrival" => Ok(EventKind::TaskArrival {
                task: serde::get_field(obj, "task")?,
                venue: serde::get_field(obj, "venue")?,
            }),
            "worker_arrival" => Ok(EventKind::WorkerArrival {
                worker: serde::get_field(obj, "worker")?,
            }),
            "worker_new" => Ok(EventKind::WorkerNew {
                worker: serde::get_field(obj, "worker")?,
                friends: serde::get_field(obj, "friends")?,
                history: serde::get_field(obj, "history")?,
            }),
            "worker_departure" => Ok(EventKind::WorkerDeparture {
                worker: serde::get_field(obj, "worker")?,
            }),
            other => Err(Error::custom(format!("unknown event type `{other}`"))),
        }
    }
}

impl Serialize for EventKind {
    fn to_value(&self) -> Value {
        Value::Object(self.payload_fields())
    }
}

impl Deserialize for EventKind {
    fn from_value(value: &Value) -> Result<Self, Error> {
        let obj = value
            .as_object()
            .ok_or_else(|| Error::expected("event object", value))?;
        EventKind::from_fields(obj)
    }
}

impl Serialize for Event {
    fn to_value(&self) -> Value {
        let mut fields = vec![
            ("round".to_string(), self.round.to_value()),
            ("seq".to_string(), self.seq.to_value()),
        ];
        fields.extend(self.kind.payload_fields());
        Value::Object(fields)
    }
}

impl Deserialize for Event {
    fn from_value(value: &Value) -> Result<Self, Error> {
        let obj = value
            .as_object()
            .ok_or_else(|| Error::expected("event object", value))?;
        Ok(Event {
            round: serde::get_field(obj, "round")?,
            seq: serde::get_field(obj, "seq")?,
            kind: EventKind::from_fields(obj)?,
        })
    }
}

/// What applying one [`Event`] did. Nothing is dropped silently:
/// every refused event names its [`RejectReason`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// A new task is open (offered from the next round on).
    TaskPublished,
    /// A re-arriving open task id was refreshed in place (published
    /// once; a duplicate would corrupt the conservation invariant).
    TaskRefreshed,
    /// A trained worker is newly online.
    WorkerJoined,
    /// An already-online worker's state was refreshed in place.
    WorkerRefreshed,
    /// A previously-unseen worker was folded into the live influence
    /// network — non-zero influence from the next round on, no retrain.
    WorkerFoldedIn,
    /// An online worker left the platform.
    WorkerDeparted,
    /// The event was refused; nothing changed.
    Rejected(RejectReason),
}

impl Outcome {
    /// The reason an event was refused, if it was.
    pub fn rejected_reason(self) -> Option<RejectReason> {
        match self {
            Outcome::Rejected(reason) => Some(reason),
            _ => None,
        }
    }

    /// Whether the event was refused.
    pub fn is_rejected(self) -> bool {
        matches!(self, Outcome::Rejected(_))
    }

    /// For worker events: whether the worker is online after the call.
    pub fn is_online(self) -> bool {
        matches!(
            self,
            Outcome::WorkerJoined | Outcome::WorkerRefreshed | Outcome::WorkerFoldedIn
        )
    }

    /// Whether the event added something that was not there before (a
    /// new open task or a newly online worker).
    pub fn is_new(self) -> bool {
        matches!(
            self,
            Outcome::TaskPublished | Outcome::WorkerJoined | Outcome::WorkerFoldedIn
        )
    }

    /// The wire label of this outcome.
    pub fn label(self) -> &'static str {
        match self {
            Outcome::TaskPublished => "task_published",
            Outcome::TaskRefreshed => "task_refreshed",
            Outcome::WorkerJoined => "worker_joined",
            Outcome::WorkerRefreshed => "worker_refreshed",
            Outcome::WorkerFoldedIn => "worker_folded_in",
            Outcome::WorkerDeparted => "worker_departed",
            Outcome::Rejected(_) => "rejected",
        }
    }
}

impl Serialize for Outcome {
    fn to_value(&self) -> Value {
        match self {
            Outcome::Rejected(reason) => Value::Object(vec![(
                "rejected".to_string(),
                Value::Str(reason.label().to_string()),
            )]),
            other => Value::Str(other.label().to_string()),
        }
    }
}

/// Why an [`Event`] was refused. Every reason is a contract the engine
/// enforces instead of degrading silently.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RejectReason {
    /// A plain arrival of a worker outside the trained population: the
    /// model cannot score them, so admitting them could only ever
    /// produce zero-influence assignments. Late arrivals with social
    /// evidence go through [`EventKind::WorkerNew`] instead.
    UnknownWorker,
    /// A [`EventKind::WorkerNew`] on an engine that borrows its
    /// pipeline or network (frozen / fixed-population modes, or a
    /// builder that disabled fold-in): the live model cannot grow.
    CannotFoldIn,
    /// A [`EventKind::WorkerNew`] whose id is not the next dense id —
    /// fold-ins assign dense ids in arrival order; a gap means the
    /// caller skipped an arrival.
    NonDenseId,
    /// A [`EventKind::WorkerNew`] with no usable friendships (none of
    /// the named friends is in the current population): with zero
    /// social edges the fold-in could never join an RRR set. The worker
    /// can re-arrive once a friend of theirs has been folded in.
    NoUsableFriends,
    /// A [`EventKind::WorkerDeparture`] for a worker that is not
    /// online.
    NotOnline,
    /// The event's `round` stamp is not the engine's current round.
    RoundMismatch,
    /// The event's `seq` stamp is not monotone within its round.
    OutOfOrder,
}

impl RejectReason {
    /// The wire label of this reason.
    pub fn label(self) -> &'static str {
        match self {
            RejectReason::UnknownWorker => "unknown_worker",
            RejectReason::CannotFoldIn => "cannot_fold_in",
            RejectReason::NonDenseId => "non_dense_id",
            RejectReason::NoUsableFriends => "no_usable_friends",
            RejectReason::NotOnline => "not_online",
            RejectReason::RoundMismatch => "round_mismatch",
            RejectReason::OutOfOrder => "out_of_order",
        }
    }
}

impl Serialize for RejectReason {
    fn to_value(&self) -> Value {
        Value::Str(self.label().to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sc_types::{CategoryId, Duration, Location, TaskId, TimeInstant};

    fn sample_task() -> Task {
        Task::with_categories(
            TaskId::new(7),
            Location::new(1.5, -2.0),
            TimeInstant::at(0, 9),
            Duration::hours(3),
            vec![CategoryId::new(1), CategoryId::new(4)],
        )
    }

    #[test]
    fn event_roundtrips_through_json() {
        let events = vec![
            Event {
                round: 3,
                seq: 0,
                kind: EventKind::TaskArrival {
                    task: sample_task(),
                    venue: VenueId::new(12),
                },
            },
            Event {
                round: 3,
                seq: 1,
                kind: EventKind::WorkerArrival {
                    worker: Worker::new(WorkerId::new(4), Location::new(0.25, 0.5), 25.0),
                },
            },
            Event {
                round: 3,
                seq: 2,
                kind: EventKind::WorkerNew {
                    worker: Worker::new(WorkerId::new(100), Location::ORIGIN, 10.0),
                    friends: vec![WorkerId::new(1), WorkerId::new(2)],
                    history: History::new(),
                },
            },
            Event {
                round: 3,
                seq: 3,
                kind: EventKind::WorkerDeparture {
                    worker: WorkerId::new(4),
                },
            },
        ];
        for event in events {
            let json = serde_json::to_string(&event).unwrap();
            let back: Event = serde_json::from_str(&json).unwrap();
            assert_eq!(back, event, "wire round-trip must be lossless: {json}");
        }
    }

    #[test]
    fn array_body_of_200_kinds_roundtrips() {
        // The shape of a batched `POST /events` body: every kind, with
        // fractional coordinates and non-empty friend lists and histories.
        use sc_types::CheckIn;
        let at = |i: u32| Location::new(f64::from(i) * 0.137 - 11.0, 1.0 / f64::from(i + 3));
        let kinds: Vec<EventKind> = (0..200u32)
            .map(|i| match i % 4 {
                0 => EventKind::TaskArrival {
                    task: Task::with_categories(
                        TaskId::new(i),
                        at(i),
                        TimeInstant::at(i64::from(i / 24), i64::from(i % 24)),
                        Duration::hours(3),
                        vec![CategoryId::new(i % 7), CategoryId::new(i % 11 + 7)],
                    ),
                    venue: VenueId::new(i * 3),
                },
                1 => EventKind::WorkerArrival {
                    worker: Worker::new(WorkerId::new(i), at(i), 5.0 + f64::from(i) / 7.0),
                },
                2 => {
                    let mut history = History::new();
                    for k in 0..i % 5 {
                        history.push(CheckIn::at(
                            WorkerId::new(i),
                            VenueId::new(k),
                            at(k),
                            TimeInstant::at(0, i64::from(k)),
                            vec![CategoryId::new(k)],
                        ));
                    }
                    EventKind::WorkerNew {
                        worker: Worker::new(WorkerId::new(1_000 + i), at(i), 10.0),
                        friends: (0..i % 6).map(WorkerId::new).collect(),
                        history,
                    }
                }
                _ => EventKind::WorkerDeparture {
                    worker: WorkerId::new(i),
                },
            })
            .collect();
        let body = Value::Array(kinds.iter().map(Serialize::to_value).collect()).to_json_string();
        let Value::Array(items) = serde::json::parse(&body).unwrap() else {
            panic!("a body of events parses to an array");
        };
        let back: Vec<EventKind> = items
            .iter()
            .map(|item| <EventKind as serde::Deserialize>::from_value(item).unwrap())
            .collect();
        assert_eq!(back, kinds);
    }

    #[test]
    fn bare_kind_parses_without_ordering_stamp() {
        // The HTTP front accepts bare kinds and stamps (round, seq) at
        // the queue, so `EventKind` must parse standalone.
        let json = serde_json::to_string(&EventKind::WorkerDeparture {
            worker: WorkerId::new(9),
        })
        .unwrap();
        let back: EventKind = serde_json::from_str(&json).unwrap();
        assert_eq!(
            back,
            EventKind::WorkerDeparture {
                worker: WorkerId::new(9)
            }
        );
    }

    #[test]
    fn unknown_event_type_is_an_error() {
        assert!(serde_json::from_str::<EventKind>(r#"{"type":"mystery"}"#).is_err());
    }

    #[test]
    fn outcome_helpers_classify() {
        assert!(Outcome::WorkerFoldedIn.is_online());
        assert!(Outcome::WorkerFoldedIn.is_new());
        assert!(!Outcome::WorkerRefreshed.is_new());
        assert!(Outcome::TaskPublished.is_new());
        assert!(!Outcome::TaskPublished.is_online());
        let r = Outcome::Rejected(RejectReason::NoUsableFriends);
        assert!(r.is_rejected() && !r.is_online() && !r.is_new());
        assert_eq!(r.rejected_reason(), Some(RejectReason::NoUsableFriends));
        assert_eq!(Outcome::WorkerDeparted.rejected_reason(), None);
        assert_eq!(
            serde_json::to_string(&r).unwrap(),
            r#"{"rejected":"no_usable_friends"}"#
        );
    }
}

//! The crawl's typed event stream (§3.7 monitoring, made programmatic).
//!
//! The paper monitors a running crawl through an applet fed by ad-hoc SQL;
//! this module is the push-side complement: workers emit [`CrawlEvent`]s
//! as pages are classified, failures absorbed, distillations triggered,
//! and control commands applied. Events flow to two sinks at once — any
//! registered [`CrawlObserver`]s (synchronous callbacks, useful for live
//! dashboards) and a **bounded** channel drained through [`EventStream`].
//! The crawl never blocks on a slow consumer: when the channel is full the
//! event is dropped and counted, so `dropped()` tells the consumer how
//! much of the firehose it missed.

use focus_types::{ClassId, Oid, ServerId};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, SyncSender, TrySendError};
use std::sync::Arc;

/// One observation from a running crawl.
///
/// Marked `non_exhaustive`: monitoring consumers must tolerate new event
/// kinds appearing as the control surface grows.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum CrawlEvent {
    /// A page was fetched and classified. `relevance` is linear `R(d)`.
    PageClassified {
        /// Page identity.
        oid: Oid,
        /// Fetch-attempt index at completion (the harvest-series x-axis).
        attempt: u64,
        /// Linear relevance `R(d)` under the current good marking.
        relevance: f64,
        /// Best leaf under best-first descent.
        best_leaf: ClassId,
    },
    /// A fetch attempt failed.
    FetchFailed {
        /// Page identity.
        oid: Oid,
        /// Fetch-attempt index.
        attempt: u64,
        /// Timeouts requeue (until `max_tries` / the retry budget);
        /// hard 404s do not.
        retriable: bool,
        /// What kind of failure it was.
        error: FetchErrorKind,
        /// What happened to the page: retried, parked behind a
        /// quarantined server, or declared dead.
        outcome: FailureOutcome,
    },
    /// A previously failed page was claimed for another attempt (its
    /// backoff expired).
    FetchRetried {
        /// Page identity.
        oid: Oid,
        /// Fetch-attempt index this retry was claimed at.
        attempt: u64,
        /// Failed attempts the page had already absorbed.
        numtries: i64,
        /// The page's server.
        server: ServerId,
    },
    /// A server's circuit breaker opened: consecutive failures crossed
    /// the threshold (or a half-open probe failed) and the server's
    /// frontier entries are parked until the quarantine expires.
    ServerQuarantined {
        /// The quarantined server.
        server: ServerId,
        /// Consecutive failures at opening.
        failures: u32,
        /// Crawl tick at which the breaker goes half-open.
        until: i64,
    },
    /// A half-open probe succeeded: the server's breaker closed and its
    /// parked entries compete normally again.
    ServerRecovered {
        /// The recovered server.
        server: ServerId,
    },
    /// A distillation pass finished and `HUBS`/`AUTH` were republished.
    DistillCompleted {
        /// 1-based distillation counter.
        distillation: u64,
        /// Best hub, if any.
        top_hub: Option<Oid>,
        /// Best authority, if any.
        top_auth: Option<Oid>,
    },
    /// The frontier drained with nothing in flight: the crawl stagnated
    /// (or genuinely finished its reachable neighborhood).
    FrontierStagnated {
        /// Attempts made when stagnation was detected.
        attempts: u64,
    },
    /// The fetch budget is spent; workers are winding down.
    BudgetExhausted {
        /// Attempts made (equals the budget).
        attempts: u64,
    },
    /// `pause()` took effect.
    Paused,
    /// `resume()` took effect.
    Resumed,
    /// `stop()` took effect; workers are winding down.
    Stopped {
        /// Attempts made when stopped.
        attempts: u64,
    },
    /// `add_seeds()` injected new frontier entries mid-crawl.
    SeedsAdded {
        /// How many seeds were upserted.
        count: usize,
    },
    /// `add_budget()` raised the fetch budget mid-crawl.
    BudgetAdded {
        /// The increment.
        extra: u64,
        /// The new total budget.
        budget: u64,
    },
    /// `set_policy()` switched the link-expansion policy mid-crawl.
    PolicyChanged {
        /// Human-readable policy name (`Debug` form of [`crate::CrawlPolicy`]).
        policy: &'static str,
    },
    /// `mark_topic()` changed the good set (§3.7: "one update statement
    /// marking the ancestor good fixed this stagnation problem").
    TopicMarked {
        /// The re-marked class.
        class: ClassId,
        /// Marked good (`true`) or unmarked (`false`).
        good: bool,
        /// Whether the taxonomy accepted the change (nested-good
        /// violations are rejected, §1.1).
        applied: bool,
    },
    /// After a good-mark change, frontier priorities were recomputed.
    FrontierResteered {
        /// The class whose marking changed.
        class: ClassId,
        /// Unvisited pages whose priority was raised.
        boosted: usize,
    },
    /// A worker thread panicked. The run will report an error from
    /// `join()`; remaining workers wind down.
    WorkerFailed {
        /// Worker index within the pool.
        worker: usize,
        /// Panic payload rendered as text.
        message: String,
    },
}

/// The failure taxonomy carried on [`CrawlEvent::FetchFailed`]: the
/// fetcher's two failures, [`focus_webgraph::FetchError`] without the
/// redundant oid. First visits and hub revisits fail the same way.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FetchErrorKind {
    /// Dead link / 404. Not retriable, says nothing about the server.
    NotFound,
    /// The server did not answer. Retriable; counts against the
    /// server's health (backoff, circuit breaker).
    Timeout,
}

impl From<&focus_webgraph::FetchError> for FetchErrorKind {
    fn from(e: &focus_webgraph::FetchError) -> FetchErrorKind {
        match e {
            focus_webgraph::FetchError::NotFound(_) => FetchErrorKind::NotFound,
            focus_webgraph::FetchError::Timeout(_) => FetchErrorKind::Timeout,
        }
    }
}

/// What a failed fetch did to the page, carried on
/// [`CrawlEvent::FetchFailed`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailureOutcome {
    /// Requeued for another attempt, poppable at `not_before`.
    Retried {
        /// Backoff expiry tick.
        not_before: i64,
    },
    /// Requeued, but its server is quarantined: the row sits parked
    /// until the breaker's next probe verdict.
    Parked {
        /// Quarantine expiry tick.
        not_before: i64,
    },
    /// Declared dead: non-retriable, out of retry budget, or
    /// `max_tries` reached.
    Dead,
}

/// Synchronous event callback, invoked inline by worker threads.
///
/// Implementations must be fast and must not call back into the run's
/// control surface (workers hold no locks while notifying, but a slow
/// observer stalls the crawl — that is the point of observers versus the
/// non-blocking channel: observers see *every* event).
pub trait CrawlObserver: Send + Sync {
    /// Called once per event, in emission order per worker.
    fn on_event(&self, event: &CrawlEvent);
}

impl<F: Fn(&CrawlEvent) + Send + Sync> CrawlObserver for F {
    fn on_event(&self, event: &CrawlEvent) {
        self(event)
    }
}

/// Worker-side fan-out point: observers plus the bounded channel.
pub(crate) struct EventSink {
    tx: Option<SyncSender<CrawlEvent>>,
    observers: Vec<Arc<dyn CrawlObserver>>,
    dropped: Arc<AtomicU64>,
}

impl EventSink {
    pub(crate) fn new(
        tx: Option<SyncSender<CrawlEvent>>,
        observers: Vec<Arc<dyn CrawlObserver>>,
        dropped: Arc<AtomicU64>,
    ) -> EventSink {
        EventSink {
            tx,
            observers,
            dropped,
        }
    }

    pub(crate) fn emit(&self, event: CrawlEvent) {
        for obs in &self.observers {
            obs.on_event(&event);
        }
        if let Some(tx) = &self.tx {
            match tx.try_send(event) {
                Ok(()) => {}
                // Receiver gone or buffer full: the crawl must not block.
                Err(TrySendError::Full(_)) | Err(TrySendError::Disconnected(_)) => {
                    self.dropped.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
    }
}

/// Consumer end of a run's bounded event channel.
///
/// Iterating blocks until the next event and ends when the run finishes
/// (all workers exited and the handle was joined or dropped). Non-blocking
/// access goes through [`EventStream::try_next`] / [`EventStream::drain`].
pub struct EventStream {
    rx: Receiver<CrawlEvent>,
    dropped: Arc<AtomicU64>,
}

impl EventStream {
    pub(crate) fn new(rx: Receiver<CrawlEvent>, dropped: Arc<AtomicU64>) -> EventStream {
        EventStream { rx, dropped }
    }

    /// Next event if one is already buffered.
    pub fn try_next(&self) -> Option<CrawlEvent> {
        self.rx.try_recv().ok()
    }

    /// Everything currently buffered, without blocking.
    pub fn drain(&self) -> Vec<CrawlEvent> {
        std::iter::from_fn(|| self.try_next()).collect()
    }

    /// Events dropped because the bounded buffer was full (or the stream
    /// lagged behind a finished run).
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }
}

impl Iterator for EventStream {
    type Item = CrawlEvent;

    fn next(&mut self) -> Option<CrawlEvent> {
        self.rx.recv().ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc::sync_channel;
    use std::sync::Mutex;

    #[test]
    fn sink_fans_out_to_observer_and_channel() {
        let (tx, rx) = sync_channel(8);
        let seen: Arc<Mutex<Vec<CrawlEvent>>> = Arc::new(Mutex::new(Vec::new()));
        let seen2 = Arc::clone(&seen);
        let obs: Arc<dyn CrawlObserver> =
            Arc::new(move |ev: &CrawlEvent| seen2.lock().unwrap().push(ev.clone()));
        let dropped = Arc::new(AtomicU64::new(0));
        let sink = EventSink::new(Some(tx), vec![obs], Arc::clone(&dropped));
        sink.emit(CrawlEvent::Paused);
        sink.emit(CrawlEvent::Resumed);
        drop(sink);
        let stream = EventStream::new(rx, dropped);
        assert_eq!(
            stream.drain(),
            vec![CrawlEvent::Paused, CrawlEvent::Resumed]
        );
        assert_eq!(seen.lock().unwrap().len(), 2);
        assert_eq!(stream.dropped(), 0);
    }

    #[test]
    fn full_channel_drops_instead_of_blocking() {
        let (tx, rx) = sync_channel(1);
        let dropped = Arc::new(AtomicU64::new(0));
        let sink = EventSink::new(Some(tx), Vec::new(), Arc::clone(&dropped));
        sink.emit(CrawlEvent::Paused);
        sink.emit(CrawlEvent::Resumed); // buffer full -> dropped
        assert_eq!(sink.dropped.load(Ordering::Relaxed), 1);
        let stream = EventStream::new(rx, dropped);
        assert_eq!(stream.drain().len(), 1);
        assert_eq!(stream.dropped(), 1);
    }

    #[test]
    fn stream_iteration_ends_when_sink_drops() {
        let (tx, rx) = sync_channel(8);
        let dropped = Arc::new(AtomicU64::new(0));
        let sink = EventSink::new(Some(tx), Vec::new(), Arc::clone(&dropped));
        sink.emit(CrawlEvent::Stopped { attempts: 3 });
        drop(sink);
        let stream = EventStream::new(rx, dropped);
        let all: Vec<CrawlEvent> = stream.collect();
        assert_eq!(all, vec![CrawlEvent::Stopped { attempts: 3 }]);
    }
}

//! The worker loop: claiming work, driving the fetch executor, and
//! landing completions.
//!
//! There is exactly one loop ([`CrawlSession::worker`]). Each turn it
//! drains steering commands and its shard's exchange inbox, asks its
//! [`PoolHandle`] how many claims it has room for and claims that many
//! in one critical section ([`CrawlSession::next_tick`]), then takes one
//! completion — classify outside every lock, land under the store
//! write lock, at once if the lock is free and with its neighbours if
//! it is not. Whether a fetch runs on this thread or on a pool thread
//! is the executor's business ([`crate::fetch_pool`]); the loop never
//! asks. Nor does it ask whether a claim is a first visit or a hub
//! revisit: crawl maintenance only requeues `CRAWL` rows
//! ([`CrawlSession::maintenance_pass`]), so a revisit is numbered,
//! budgeted, admitted, fetched, failed and landed here like any claim —
//! this loop is the crate's only caller of the fetcher and of
//! `HealthMap::admit` (`tests/guardrails.rs` counts both).
//!
//! Contracts the loop upholds for both executors:
//!
//! * the in-flight gauges fall only *after* a page's outputs are in the
//!   frontier (or routed), under the store write lock — so an idle
//!   verdict read under that lock is race-free; a page that trips the
//!   distillation trigger keeps them up across the (unlocked) pass,
//!   until its hub boosts are in the frontier too;
//! * every admitted claim releases its politeness slot exactly once
//!   (in `process`, `process_failures`, or `release_unfetched`);
//! * a lane's completions land in completion order; consecutive
//!   failures in *one* `process_failures` batch — before the next
//!   success lands, and at every commit point; a busy lock defers the
//!   landing while the lane has a page to fetch, up to `batch_size`
//!   completions: a worker only *blocks* on the store lock when it has
//!   nothing else to do, and whichever acquisition succeeds lands the
//!   whole buffer under that one guard ([`CrawlSession::land_buffered`]);
//! * a commit point (everything unlanded lands, then a WAL commit) is
//!   cut after `batch` completions, when the executor runs dry or a
//!   turn is quiet, before parking for a pause, and at wind-down — so
//!   nothing stays buffered across any point where the loop waits;
//! * pause and stop act within one *fetch*: queued-but-unfetched claims
//!   are pulled back out of the executor (held for resume with their
//!   attempt numbers, or handed back to the frontier) and only fetches
//!   already on the wire are waited out — no `CLAIMED` row outlives a
//!   run.

use super::*;
use crate::frontier::{Admission, ClaimOutcome};
use crate::metrics::{Stage, StageClock};
use std::collections::VecDeque;
use std::time::Duration;

/// Posterior probabilities below this are not cached per page (the saved
/// posteriors back mid-crawl re-marking; the tail adds nothing).
const SAVED_PROB_FLOOR: f64 = 1e-4;

/// How long a worker sleeps between polls when it has nothing to do
/// (empty frontier with peers in flight, or parked for a pause).
const IDLE_POLL: Duration = Duration::from_micros(200);

/// What a worker decided to do with one scheduling tick.
enum Tick {
    /// A claimed batch: up to `batch_size` frontier entries checked out
    /// in one critical section. `first_attempt` is the attempt index of
    /// the first claim (claims are numbered at claim time).
    Work {
        claims: Vec<Claim>,
        first_attempt: u64,
    },
    /// The frontier had nothing poppable. `idle` and `attempts` are
    /// read inside the same critical section as the empty claim —
    /// `in_flight` only falls *after* a page's outlinks are flushed,
    /// under that same lock — so `idle` is a race-free verdict that no
    /// in-flight work of this shard can still repopulate the frontier,
    /// carrying the exchange epoch it was recorded at
    /// ([`crate::cluster::ShardExchange::mark_idle`]). Parked rows
    /// (backoffs, quarantines) are future work: they keep `idle` `None`,
    /// and each empty poll advances the tick clock so their cooldowns
    /// actually expire.
    EmptyFrontier {
        idle: Option<u64>,
        attempts: u64,
    },
    Exit,
}

/// One entry of a lane's buffer of unlanded completions.
enum Unlanded {
    /// A run of consecutive failed fetches: one `process_failures` batch.
    Failures(Vec<(Claim, FetchErrorKind, u64)>),
    /// A fetched page, classified and ready to land.
    Page(Classified),
}

/// One worker's private state: its end of the fetch executor, what it
/// has fetched but not yet landed or committed, and its stage clock.
struct Lane<'a> {
    exec: PoolHandle,
    /// Completions not yet landed, in completion order: failures (which
    /// always wait for the next success or commit point) and successes
    /// that found the store lock busy. Each still holds its claim in
    /// flight (gauge and row) until it lands. Never more than `batch`
    /// completions, and empty wherever the loop waits.
    unlanded: VecDeque<Unlanded>,
    /// Completions taken since the last commit point, landed or not.
    since_commit: usize,
    /// Per-worker inference buffers: warmed up on the first page, zero
    /// allocations per page after that. Never shared (the `Scratch`
    /// contract), so no lock guards it.
    scratch: Scratch,
    /// Charges each part of the loop to its [`Stage`].
    clock: StageClock<'a>,
}

impl CrawlSession {
    /// The worker loop (see the module docs). `exec` is this worker's
    /// handle on the run's fetch executor; `worker` numbers its stage
    /// clock's slot.
    pub(crate) fn worker(&self, worker: usize, exec: PoolHandle, sink: &EventSink) {
        let mut lane = Lane {
            exec,
            unlanded: VecDeque::new(),
            since_commit: 0,
            scratch: Scratch::default(),
            clock: self.counters.metrics.clock(worker),
        };
        let batch = self.cfg.batch_size.max(1);
        let workers = self.cfg.threads.max(1);
        loop {
            self.apply_commands(sink);
            self.drain_exchange();
            lane.clock.lap(Stage::Drain);
            if self.stop_requested() {
                break;
            }
            // A peer worker, or a peer shard's, proved the crawl idle;
            // nothing can repopulate any frontier. Our own outstanding
            // jobs hold the exchange's in-flight gauge up, so
            // `finished` can only be true with an empty executor.
            if self.shard.exchange.finished() {
                break;
            }
            if self.control.run_state() == RunState::Paused {
                self.park_while_paused(&mut lane, sink);
                continue;
            }
            let room = lane.exec.room(batch, workers);
            if room > 0 {
                let tick = self.next_tick(sink, room, &lane.clock);
                lane.clock.lap(Stage::Claim);
                match tick {
                    // Budget spent (or a fatal claim error): stop
                    // feeding the executor. Whatever is already on the
                    // wire still completes and flushes below.
                    Tick::Exit if lane.exec.outstanding() == 0 => break,
                    Tick::Exit => {}
                    // An empty frontier with jobs outstanding is merely
                    // empty *now* — their completions are about to
                    // repopulate it; fall through to the drain.
                    Tick::EmptyFrontier { idle, attempts } if lane.exec.outstanding() == 0 => {
                        // `idle` says nothing was in flight on this
                        // shard either (judged inside the claim's
                        // critical section). A peer may still be
                        // mid-fetch and about to enqueue links, so wait
                        // rather than exit while work is in flight.
                        // Locally idle is not idle everywhere — a peer
                        // shard may still route entries here — so the
                        // verdict escalates to the exchange, with the
                        // epoch `next_tick` read when it recorded the
                        // local verdict *inside* the claim's critical
                        // section: only the all-shards-drained verdict
                        // at that epoch ends the crawl.
                        if idle.is_some_and(|epoch| self.shard.exchange.try_finish(epoch)) {
                            if !self
                                .control
                                .stagnation_reported
                                .swap(true, Ordering::AcqRel)
                            {
                                sink.emit(CrawlEvent::FrontierStagnated { attempts });
                            }
                            break;
                        }
                        std::thread::sleep(IDLE_POLL);
                        lane.clock.lap(Stage::Idle);
                    }
                    Tick::EmptyFrontier { .. } => {}
                    Tick::Work {
                        claims,
                        first_attempt,
                    } => lane.exec.submit(claims, first_attempt),
                }
            }
            lane.clock.lap(Stage::Room);
            // Take one completion per turn, so commands and the
            // exchange drain at every page boundary; with fetcher
            // threads the short timeout keeps the loop responsive.
            let done = lane.exec.next_completion(Duration::from_millis(1));
            lane.clock.lap(Stage::FetchWait);
            if let Some(done) = done {
                if self.land_completion(&mut lane, done, sink) {
                    break;
                }
                if lane.since_commit < batch && lane.exec.outstanding() > 0 {
                    continue;
                }
            }
            // `batch` completions taken, the executor ran dry, or the
            // turn was quiet.
            if self.commit_point(&mut lane, sink) {
                break;
            }
        }
        // Unwind on any exit: queued-but-unfetched jobs go back to the
        // frontier, fetches already on the wire are landed (those
        // claims burned attempts and cannot be handed back), then a
        // final commit point.
        let unstarted = lane.exec.cancel_unstarted();
        self.release_unfetched(unstarted);
        lane.clock.lap(Stage::Claim);
        self.drain_on_the_wire(&mut lane, sink);
        self.commit_point(&mut lane, sink);
        lane.clock.finish();
    }

    /// Abort (a peer failed, storage broke) or stop: either way the
    /// worker winds down at this page boundary.
    fn stop_requested(&self) -> bool {
        self.control.abort.load(Ordering::Acquire) || self.control.run_state() == RunState::Stopping
    }

    /// Take one completion: classify outside every lock, then land it —
    /// and anything buffered before it — in one short critical section
    /// ([`CrawlSession::land_buffered`]). A failure takes no lock at
    /// all: it joins the buffer and lands with the next success or at
    /// the next commit point. A success asks for the lock without
    /// blocking while this lane still has a claimed page to fetch and
    /// fewer than `batch` completions since the last commit point: if
    /// the store is busy the page stays buffered and the worker goes on
    /// to its next fetch instead of to sleep. Returns `true` when the
    /// worker should wind down (a storage error was recorded). A
    /// completion carrying a panic caught on a fetcher thread is
    /// re-raised here, on the worker, so it surfaces through the
    /// worker-panic machinery exactly as an on-thread fetch panic does.
    fn land_completion(&self, lane: &mut Lane, done: Completion, sink: &EventSink) -> bool {
        let Completion {
            claim,
            attempt,
            outcome,
        } = done;
        lane.since_commit += 1;
        let page = match outcome {
            Ok(Ok(page)) => page,
            Ok(Err(e)) => {
                let failed = (claim, FetchErrorKind::from(&e), attempt);
                match lane.unlanded.back_mut() {
                    Some(Unlanded::Failures(run)) => run.push(failed),
                    _ => lane.unlanded.push_back(Unlanded::Failures(vec![failed])),
                }
                lane.clock.lap(Stage::LandCompletion);
                return false;
            }
            Err(msg) => panic!("fetch pool: {msg}"),
        };
        // Classify without holding *any* lock: clone the compiled
        // engine's Arc (a refcount bump under a momentary read lock),
        // drop the lock, then run zero-alloc inference in this worker's
        // scratch. A concurrent retrain swaps the Arc without waiting
        // for us; this page finishes under the model it started with.
        let compiled = Arc::clone(&self.compiled.read());
        let summary = compiled.evaluate_into(&page.terms, &mut lane.scratch);
        // Saved posteriors back §3.7 re-marking; the tail below the
        // floor adds nothing. The `LANDING` row is built here, outside
        // the store lock.
        let probs = lane.scratch.class_probs().iter().copied();
        let posterior = tables::encode_posterior(probs.filter(|&(_, p)| p > SAVED_PROB_FLOOR));
        let landing = tables::landing_row(attempt, page.oid, summary.relevance, posterior);
        let with_sid = |(dst, url): (Oid, String)| (dst, host_server_id(&url), url);
        lane.unlanded.push_back(Unlanded::Page(Classified {
            // A round trip like the fetch, so asked here, outside every lock.
            citers: self.citers(page.oid, summary.relevance),
            claim,
            attempt,
            oid: page.oid,
            sid: host_server_id(&page.url),
            url: page.url,
            outlinks: page.outlinks.into_iter().map(with_sid).collect(),
            summary,
            landing,
            deferred: false,
        }));
        lane.clock.lap(Stage::LandCompletion);
        let block = lane.exec.outstanding() == 0 || lane.since_commit >= self.cfg.batch_size;
        self.land_buffered(lane, block, sink)
    }

    /// Land the lane's whole buffer, in completion order, under the
    /// store write lock — waited for if `block`, else taken only if it
    /// is free right now (this crate's one `try_write`). A group
    /// landing is exactly the sequence of single landings it replaces
    /// minus the unlock/lock between them, so uncontended (the buffer
    /// then never holds more than the completion being landed) and
    /// contended streams are the same stream. Returns `true` when a
    /// storage error was recorded; the rest of the buffer still lands,
    /// so every claim's gauge and row are accounted for.
    ///
    /// A page that trips the distillation trigger *ends the guard*: the
    /// pass runs here, on this worker, with the lock dropped, and the
    /// page's gauges stay up until the pass's boosts are in the
    /// frontier — boosts can *create* rows, so letting the gauges fall
    /// first would let a peer (or a peer shard) reach an idle verdict
    /// with work still to come. Then the lock is re-taken for the rest.
    fn land_buffered(&self, lane: &mut Lane, block: bool, sink: &EventSink) -> bool {
        let stage = if block {
            Stage::LandBlocking
        } else {
            Stage::LandTry
        };
        let mut failed = false;
        while !lane.unlanded.is_empty() {
            let guard = match block {
                true => Some(self.store.write()),
                false => self.store.try_write(),
            };
            let Some(mut g) = guard else {
                // Busy, and this lane has a page to fetch meanwhile:
                // the page just classified waits for a later guard.
                if let Some(Unlanded::Page(page)) = lane.unlanded.back_mut() {
                    page.deferred = true;
                }
                lane.clock.lap(stage);
                break;
            };
            let reads = g.db.io_stats().logical_reads;
            let mut landed = self.land_under(&mut g, lane, sink);
            lane.clock
                .charge_reads(stage, g.db.io_stats().logical_reads - reads);
            drop(g);
            lane.clock.lap(stage);
            if let Ok(true) = landed {
                let pass = self.distill_pass(false, Some(sink), &mut lane.clock);
                lane.clock.lap(Stage::DistillGuard2);
                landed = pass.map(|()| false);
                self.release_in_flight(1);
            }
            if let Err(e) = landed {
                self.record_error(e);
                failed = true;
            }
        }
        failed
    }

    /// Land buffered completions under the caller's guard until the
    /// buffer is empty or a page trips the distillation trigger
    /// (`Ok(true)`, that page's gauges still up). Every other gauge
    /// falls only after its own page's outlinks are in the frontier,
    /// still under the write lock: a peer observing `in_flight == 0`
    /// with an empty frontier can trust it. The same applies to the
    /// exchange's gauge — `process` routed the page's remote outlinks
    /// *before* the decrement, so a peer shard observing zero in-flight
    /// on the exchange is guaranteed to see them in `queued`. The
    /// gauges fall on error too: the run is aborting, and
    /// `reset_run_diagnostics` treats lingering in-flight as stale.
    fn land_under(&self, g: &mut StoreState, lane: &mut Lane, sink: &EventSink) -> DbResult<bool> {
        while let Some(next) = lane.unlanded.pop_front() {
            let (claims, res) = match next {
                Unlanded::Failures(run) => {
                    let res = self.process_failures(g, &run, sink);
                    (run.len(), res.map(|()| false))
                }
                Unlanded::Page(page) => (1, self.process(g, page, sink)),
            };
            if let Ok(true) = res {
                return res;
            }
            self.release_in_flight(claims);
            res?;
        }
        Ok(false)
    }

    /// Let `n` landed (or handed-back) claims fall out of the in-flight
    /// gauges, the session's and the exchange's.
    pub(super) fn release_in_flight(&self, n: usize) {
        self.counters.in_flight.fetch_sub(n, Ordering::AcqRel);
        self.shard.exchange.sub_in_flight(n);
    }

    /// Cut a commit point, unless nothing completed since the last one:
    /// land whatever the lane still buffers (blocking — nothing stays
    /// unlanded past here), then commit to the WAL so everything landed
    /// so far is recoverable (the group-commit quota requests an fsync
    /// that the log's syncer thread runs, so the store guard never waits
    /// it out; the run's wind-down forces the last sync). An in-memory
    /// session has nothing to commit and takes no lock to find that
    /// out. Returns `true` when a storage error was recorded.
    fn commit_point(&self, lane: &mut Lane, sink: &EventSink) -> bool {
        if lane.since_commit == 0 && lane.unlanded.is_empty() {
            return false;
        }
        lane.since_commit = 0;
        let failed = self.land_buffered(lane, true, sink);
        if failed || matches!(self.cfg.durability, Durability::None) {
            return failed;
        }
        let mut g = self.store.write();
        let reads = g.db.io_stats().logical_reads;
        let res = self.commit_state(&mut g);
        let read = g.db.io_stats().logical_reads - reads;
        drop(g);
        lane.clock.charge_reads(Stage::CommitPoint, read);
        lane.clock.lap(Stage::CommitPoint);
        res.map_err(|e| self.record_error(e)).is_err()
    }

    /// Wait out and land the fetches already on the wire (nothing, for
    /// the on-thread executor once its queue is cancelled). On a
    /// storage error the run is already aborting and `record_error`
    /// keeps the first error; keep draining so every claim's gauge and
    /// row are accounted for and no completion is abandoned.
    fn drain_on_the_wire(&self, lane: &mut Lane, sink: &EventSink) {
        while lane.exec.outstanding() > 0 {
            let done = lane.exec.next_completion(Duration::from_millis(5));
            lane.clock.lap(Stage::FetchWait);
            if let Some(done) = done {
                let _ = self.land_completion(lane, done, sink);
            }
        }
    }

    /// The park point. Pull the queued-but-unfetched jobs back out of
    /// the executor (no further fetches issue; the claims keep their
    /// attempt numbers, so `attempts` stays flat exactly as the pause
    /// contract promises), land what is already on the wire, cut a
    /// commit point, then spin — commands still apply and routed
    /// entries still land while parked, so pause-then-checkpoint
    /// captures cross-shard work instead of leaving it in inboxes no
    /// snapshot covers. On resume the held jobs are resubmitted (their
    /// chaos ordinals are unchanged by the round-trip); on
    /// stop-while-paused they are handed back to the frontier instead.
    fn park_while_paused(&self, lane: &mut Lane, sink: &EventSink) {
        let held = lane.exec.cancel_unstarted();
        self.drain_on_the_wire(lane, sink);
        self.commit_point(lane, sink);
        while self.control.run_state() == RunState::Paused
            && !self.control.abort.load(Ordering::Acquire)
        {
            std::thread::sleep(IDLE_POLL);
            self.apply_commands(sink);
            self.drain_exchange();
        }
        lane.clock.lap(Stage::Park);
        if self.stop_requested() {
            self.release_unfetched(held);
        } else {
            lane.exec.resubmit(held);
        }
    }

    /// Hand claims that will not be fetched back to the frontier
    /// (stop or abort with jobs still queued): release the in-flight
    /// gauge and flip the rows back to poppable, so the work survives
    /// for checkpoints and the next run instead of leaking as stuck
    /// `CLAIMED` rows. `attempts` stays as counted (it is monotone by
    /// contract).
    fn release_unfetched(&self, jobs: Vec<(Claim, u64)>) {
        if jobs.is_empty() {
            return;
        }
        let rest: Vec<Claim> = jobs.into_iter().map(|(c, _)| c).collect();
        let mut g = self.store.write();
        self.release_in_flight(rest.len());
        // Every admitted claim charged a per-server politeness slot at
        // `HealthMap::admit` (and one of them may be a half-open probe);
        // hand those back too, keyed exactly as the admission was (the
        // claim's URL, not any fetched page's).
        let now = self.counters.clock.load(Ordering::Acquire) as i64;
        for c in &rest {
            g.health.hand_back(host_server_id(&c.url), now);
        }
        if let Err(e) = frontier::unclaim_batch(&mut g.db, &rest) {
            drop(g);
            // `record_error` keeps the first error, so this cannot mask
            // the failure that aborted the run.
            self.record_error(e);
        }
    }

    /// Claim the next batch of work, or decide why there is none. The
    /// batch is clamped to the remaining budget so attempts never exceed
    /// it; each claim is numbered at claim time (the harvest x-axis).
    ///
    /// `attempts` is only ever advanced here, under the store *write*
    /// lock, so the budget check and the increment are atomic against
    /// every other claimer; a concurrent `add_budget` can only widen the
    /// window between the check and the claim, never shrink it. The
    /// claim's buffer-pool reads are charged to `clock`.
    fn next_tick(&self, sink: &EventSink, batch_size: usize, clock: &StageClock<'_>) -> Tick {
        let budget_spent = || {
            let attempts = self.counters.attempts.load(Ordering::Acquire);
            let budget = self.counters.budget.load(Ordering::Acquire);
            (attempts >= budget).then_some(attempts)
        };
        // Cheap pre-check without the store lock.
        if let Some(attempts) = budget_spent() {
            if !self.control.budget_reported.swap(true, Ordering::AcqRel) {
                sink.emit(CrawlEvent::BudgetExhausted { attempts });
            }
            return Tick::Exit;
        }
        let mut g = self.store.write();
        // Re-check under the lock: a peer may have claimed the remainder
        // while this worker waited.
        if let Some(attempts) = budget_spent() {
            drop(g);
            if !self.control.budget_reported.swap(true, Ordering::AcqRel) {
                sink.emit(CrawlEvent::BudgetExhausted { attempts });
            }
            return Tick::Exit;
        }
        let attempts = self.counters.attempts.load(Ordering::Acquire);
        let budget = self.counters.budget.load(Ordering::Acquire);
        let remaining = (budget - attempts) as usize;
        let want = batch_size.max(1).min(remaining);
        let reads = g.db.io_stats().logical_reads;
        let claimed = self.claim_admitted(&mut g, want);
        clock.charge_reads(Stage::Claim, g.db.io_stats().logical_reads - reads);
        match claimed {
            Ok(out) if out.claims.is_empty() => {
                // Advance the clock on the empty poll so parked rows
                // march toward their due ticks even when nothing is
                // claimable (the all-quarantined crawl must eventually
                // probe, not spin forever).
                self.counters.clock.fetch_add(1, Ordering::AcqRel);
                // Verdict under the same lock as the empty claim: any
                // flush that completed before it contributed its
                // outlinks to this claim, and any still-running flush
                // holds the gauge up (it falls under this lock, after
                // the flush). Parked rows are future work, so they veto
                // idleness exactly like in-flight claims do.
                let waiting = out.parked + out.deferred;
                let idle = waiting == 0 && self.counters.in_flight.load(Ordering::Acquire) == 0;
                // Record the idle verdict, and read the epoch, while
                // still holding the store lock. Every local frontier
                // insertion lowers the flag inside its own store
                // critical section, so the lock serializes verdict
                // against repopulation: an upsert before this claim
                // makes the frontier non-empty (no verdict), an upsert
                // after it lowers the flag after we raise it and bumps
                // the epoch. Recording the flag outside the lock would
                // let a stale verdict overwrite a landing's lowering
                // and end the crawl with poppable work.
                let idle = idle.then(|| self.shard.exchange.mark_idle(self.shard.shard));
                Tick::EmptyFrontier { idle, attempts }
            }
            Ok(ClaimOutcome { claims, .. }) => {
                let first_attempt = attempts + 1;
                self.counters
                    .attempts
                    .fetch_add(claims.len() as u64, Ordering::AcqRel);
                self.counters
                    .clock
                    .fetch_add(claims.len() as u64, Ordering::AcqRel);
                self.counters
                    .in_flight
                    .fetch_add(claims.len(), Ordering::AcqRel);
                self.shard.exchange.add_in_flight(claims.len());
                // Surface retries now that the claims are numbered: a
                // nonzero `numtries` means this page failed before and
                // its backoff just expired.
                for (k, c) in claims.iter().enumerate() {
                    if c.numtries > 0 {
                        sink.emit(CrawlEvent::FetchRetried {
                            oid: c.oid,
                            attempt: first_attempt + k as u64,
                            numtries: c.numtries,
                            server: host_server_id(&c.url),
                        });
                    }
                }
                Tick::Work {
                    claims,
                    first_attempt,
                }
            }
            Err(e) => {
                drop(g);
                self.record_error(e);
                Tick::Exit
            }
        }
    }

    /// Claim up to `want` due frontier entries in one pass
    /// ([`frontier::claim_batch_where`]), each judged once by the health
    /// map *inside the claim critical section*, which sees every
    /// admission made before it in the pass. A server at its politeness
    /// cap defers the row: it stays due in place, never popped, and
    /// vetoes the idle verdict like a parked row. Politeness is asked
    /// before the breaker, so a deferral never takes the Open→Probing
    /// transition. The breaker then admits the row or parks it until the
    /// tick it names, so an open breaker never starves the healthy work
    /// behind it in priority order. A parked or deferred row is never
    /// counted as an attempt or held in flight, so the budget and gauges
    /// stay exact.
    fn claim_admitted(&self, g: &mut StoreState, want: usize) -> DbResult<ClaimOutcome> {
        let now = self.counters.clock.load(Ordering::Acquire) as i64;
        let StoreState { db, health, .. } = g;
        frontier::claim_batch_where(db, want, now, |c| {
            let server = host_server_id(&c.url);
            if health.politeness_deferred(server, now) {
                return Admission::Defer;
            }
            match health.admit(server, now) {
                ClaimGate::Fetch | ClaimGate::Probe => Admission::Claim,
                ClaimGate::Parked { until } => Admission::Park { until },
            }
        })
    }
}

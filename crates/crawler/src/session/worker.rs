//! The worker loop: claiming work, driving the fetch executor, and
//! landing completions.

use super::*;

/// Posterior probabilities below this are not cached per page (the saved
/// posteriors back mid-crawl re-marking; the tail adds nothing).
const SAVED_PROB_FLOOR: f64 = 1e-4;

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
    /// under that same lock — so `idle == true` is a race-free verdict
    /// that no in-flight work can still repopulate the frontier.
    /// Parked rows (backoffs, quarantines) are future work: they keep
    /// `idle` false, and each empty poll advances the tick clock so
    /// their cooldowns actually expire.
    EmptyFrontier {
        idle: bool,
        attempts: u64,
    },
    Exit,
}

impl CrawlSession {
    /// Hand claims that will not be fetched back to the frontier
    /// (stop or abort mid-batch): release the in-flight gauge and flip
    /// the rows back to poppable, so the work survives for checkpoints
    /// and the next run instead of leaking as stuck `CLAIMED` rows.
    fn release_unfetched(&self, rest: &[Claim]) {
        if rest.is_empty() {
            return;
        }
        let mut g = self.store.write();
        self.counters
            .in_flight
            .fetch_sub(rest.len(), Ordering::AcqRel);
        if let Some(ctx) = &self.shard {
            ctx.exchange.sub_in_flight(rest.len());
        }
        // Every admitted claim charged a per-server politeness slot at
        // `HealthMap::admit`; hand those back too, keyed exactly as the
        // admission was (the claim's URL, not any fetched page's).
        for c in rest {
            g.health.release(host_server_id(&c.url));
        }
        if let Err(e) = frontier::unclaim_batch(&mut g.db, rest) {
            drop(g);
            // `record_error` keeps the first error, so this cannot mask
            // the failure that aborted the run.
            self.record_error(e);
        }
    }

    /// The worker loop. With a fetch pool armed for this run the worker
    /// runs the pipelined submit/drain loop ([`worker_pooled`]);
    /// otherwise it fetches inline, one page at a time
    /// ([`worker_inline`]).
    ///
    /// [`worker_pooled`]: CrawlSession::worker_pooled
    /// [`worker_inline`]: CrawlSession::worker_inline
    pub(crate) fn worker(&self, sink: &EventSink, batch_size: usize) {
        let pool = self.run_pool.lock().clone();
        match pool {
            Some(pool) => self.worker_pooled(&pool, sink, batch_size),
            None => self.worker_inline(sink, batch_size),
        }
    }

    /// The inline worker loop: drain control commands, honor
    /// pause/stop, claim a small batch in one critical section, then
    /// for each claimed page fetch (lock released), classify (lock
    /// released), and flush the page's accumulated writes in one short
    /// critical section at the page boundary (where steering commands
    /// also drain).
    fn worker_inline(&self, sink: &EventSink, batch_size: usize) {
        // Per-worker inference buffers: warmed up on the first page,
        // zero allocations per page after that. Never shared (the
        // `Scratch` contract), so no lock guards it.
        let mut scratch = Scratch::default();
        loop {
            self.control.drain(|cmd| self.apply_command(cmd, sink));
            self.drain_exchange();
            if self.control.abort.load(Ordering::Acquire) {
                break;
            }
            if let Some(ctx) = &self.shard {
                // A peer shard proved the whole cluster idle; nothing
                // can repopulate any frontier, so exit.
                if ctx.exchange.finished() {
                    break;
                }
            }
            match self.control.run_state() {
                RunState::Stopping => break,
                RunState::Paused => {
                    std::thread::sleep(std::time::Duration::from_micros(200));
                    continue;
                }
                _ => {}
            }
            match self.next_tick(sink, batch_size) {
                Tick::Exit => break,
                Tick::EmptyFrontier { idle, attempts } => {
                    // Empty frontier: if nothing was in flight either
                    // (judged inside the claim's critical section), the
                    // crawl has stagnated or finished. A peer may still
                    // be mid-fetch and about to enqueue links, so wait
                    // rather than exit while work is in flight. In
                    // cluster mode, locally idle is not cluster idle —
                    // a peer shard may still route entries here — so the
                    // verdict escalates to the exchange (the local idle
                    // flag was already recorded by `next_tick` *inside*
                    // the claim's critical section; recording it here
                    // would let a concurrent landing be overwritten by
                    // a stale verdict), and only the global
                    // all-shards-drained verdict ends the crawl.
                    let stagnated = idle
                        && self
                            .shard
                            .as_ref()
                            .is_none_or(|ctx| ctx.exchange.try_finish());
                    if stagnated {
                        if !self
                            .control
                            .stagnation_reported
                            .swap(true, Ordering::AcqRel)
                        {
                            sink.emit(CrawlEvent::FrontierStagnated { attempts });
                        }
                        break;
                    }
                    std::thread::sleep(std::time::Duration::from_micros(200));
                }
                Tick::Work {
                    claims,
                    first_attempt,
                } => {
                    if self.process_batch(&claims, first_attempt, sink, &mut scratch) {
                        break;
                    }
                }
            }
        }
    }

    /// The pipelined worker loop over the run's fetch pool: keep
    /// topping the submission queue up toward an in-flight target
    /// (claims still numbered and gated through [`next_tick`], the same
    /// budget/health critical section the inline path uses), and drain
    /// one completion per turn through the classify/flush path — so
    /// fetch latency overlaps this worker's CPU work instead of
    /// serializing with it.
    ///
    /// Control latency stays one *page*: commands drain every turn, a
    /// pause cancels the queued-but-unfetched jobs immediately and only
    /// waits out fetches already on the wire, and stop/abort unwinds
    /// the same way ([`wind_down_pooled`]).
    ///
    /// [`next_tick`]: CrawlSession::next_tick
    /// [`wind_down_pooled`]: CrawlSession::wind_down_pooled
    fn worker_pooled(&self, pool: &Arc<FetchPool>, sink: &EventSink, batch_size: usize) {
        let mut scratch = Scratch::default();
        let mut handle = pool.handle();
        // Failed fetches accumulate here and flush in one critical
        // section, exactly as in the inline batch path.
        let mut pending: Vec<(Claim, FetchErrorKind, u64)> = Vec::new();
        // Completions landed since the last commit point; the commit
        // cadence below mirrors the inline path's batch boundary.
        let mut since_commit = 0usize;
        let batch = batch_size.max(1);
        // Split the pool's capacity across this run's workers, keeping
        // ~2 jobs per pool thread in flight so a completing thread
        // always finds its next job queued; never below one batch, or
        // a tiny pool would defeat batching.
        let workers = self.cfg.threads.max(1);
        let target = batch.max((pool.size() * 2).div_ceil(workers));
        loop {
            self.control.drain(|cmd| self.apply_command(cmd, sink));
            self.drain_exchange();
            if self.control.abort.load(Ordering::Acquire)
                || self.control.run_state() == RunState::Stopping
            {
                break;
            }
            if let Some(ctx) = &self.shard {
                // A peer shard proved the whole cluster idle. Our own
                // outstanding jobs hold the global in-flight gauge up,
                // so `finished` can only be true with an empty pipeline.
                if ctx.exchange.finished() {
                    break;
                }
            }
            if self.control.run_state() == RunState::Paused {
                self.pause_pooled(&mut handle, &mut pending, sink, &mut scratch);
                continue;
            }
            // Top up the pipeline toward the in-flight target.
            if handle.outstanding() < target {
                match self.next_tick(sink, (target - handle.outstanding()).min(batch)) {
                    Tick::Exit => {
                        // Budget spent (or a fatal claim error): stop
                        // feeding the queue. Whatever is already on the
                        // wire still completes and flushes below.
                        if handle.outstanding() == 0 && pending.is_empty() {
                            break;
                        }
                    }
                    Tick::EmptyFrontier { idle, attempts } => {
                        if handle.outstanding() == 0 {
                            // Land trailing failures before judging
                            // idleness: they hold the in-flight gauge up
                            // (vetoing the verdict) and may requeue rows.
                            if !pending.is_empty() {
                                self.flush_failures_standalone(&mut pending, sink);
                                continue;
                            }
                            let stagnated = idle
                                && self
                                    .shard
                                    .as_ref()
                                    .is_none_or(|ctx| ctx.exchange.try_finish());
                            if stagnated {
                                if !self
                                    .control
                                    .stagnation_reported
                                    .swap(true, Ordering::AcqRel)
                                {
                                    sink.emit(CrawlEvent::FrontierStagnated { attempts });
                                }
                                break;
                            }
                            std::thread::sleep(std::time::Duration::from_micros(200));
                        }
                        // Otherwise the frontier is merely empty *now*;
                        // outstanding completions are about to
                        // repopulate it — fall through to the drain.
                    }
                    Tick::Work {
                        claims,
                        first_attempt,
                    } => handle.submit(claims, first_attempt),
                }
            }
            // Drain one completion per turn; the short timeout keeps
            // the loop responsive to commands and the submit half.
            match handle.next_completion(std::time::Duration::from_millis(1)) {
                Some(done) => {
                    since_commit += 1;
                    if self.process_completion(done, &mut pending, sink, &mut scratch) {
                        break;
                    }
                    if since_commit < batch {
                        continue;
                    }
                    // Fall through to the commit point below.
                }
                None if since_commit == 0 && pending.is_empty() => continue,
                None => {}
            }
            // Batch-boundary analogue: a quiet turn (or `batch`
            // completions since the last point) lands trailing failures
            // and cuts a WAL commit point, the same cadence the inline
            // path gets for free at its batch boundary.
            since_commit = 0;
            let mut g = self.store.write();
            let res = self
                .flush_failures(&mut g, &mut pending, sink)
                .and_then(|()| Self::commit_if_durable(&mut g.db));
            if let Err(e) = res {
                drop(g);
                self.record_error(e);
                break;
            }
        }
        self.wind_down_pooled(&mut handle, &mut pending, sink, &mut scratch);
    }

    /// Land one pool completion through the same classify/flush path
    /// the inline loop uses. Returns `true` when the worker should wind
    /// down (a storage error was recorded). A completion carrying a
    /// fetcher panic is re-raised here, on the worker thread, so it
    /// surfaces through the existing worker-panic machinery exactly as
    /// an inline fetch panic would.
    fn process_completion(
        &self,
        done: Completion,
        pending: &mut Vec<(Claim, FetchErrorKind, u64)>,
        sink: &EventSink,
        scratch: &mut Scratch,
    ) -> bool {
        let Completion {
            claim,
            attempt,
            outcome,
        } = done;
        let result = match outcome {
            Ok(r) => r,
            Err(msg) => panic!("fetch pool: {msg}"),
        };
        // Classify outside every lock — same engine-Arc discipline as
        // the inline path (`process_batch` documents it).
        let eval = result.as_ref().ok().map(|page| {
            let compiled = Arc::clone(&self.compiled.read());
            let summary = compiled.evaluate_into(&page.terms, scratch);
            let saved: Vec<(ClassId, f64)> = scratch
                .class_probs()
                .iter()
                .copied()
                .filter(|&(_, p)| p > SAVED_PROB_FLOOR)
                .collect();
            (summary, saved)
        });
        match result {
            Err(e) => {
                // Failures join the pending flush; the claim stays in
                // flight (gauge and row) until the flush lands it.
                pending.push((claim, FetchErrorKind::from(&e), attempt));
                false
            }
            Ok(page) => {
                let mut g = self.store.write();
                let res = self
                    .flush_failures(&mut g, pending, sink)
                    .and_then(|()| self.process(&mut g, &claim, Ok(page), eval, attempt, sink));
                // Gauge discipline identical to the inline path: the
                // decrement happens under the write lock, after the
                // page's outlinks are in the frontier (local or routed).
                self.counters.in_flight.fetch_sub(1, Ordering::AcqRel);
                if let Some(ctx) = &self.shard {
                    ctx.exchange.sub_in_flight(1);
                }
                if let Err(e) = res {
                    drop(g);
                    self.record_error(e);
                    return true;
                }
                false
            }
        }
    }

    /// Park the pooled pipeline for a pause: pull the
    /// queued-but-unfetched jobs back out of the submission queue (no
    /// further fetches issue; the claims keep their attempt numbers, so
    /// `attempts` stays flat exactly as the pause contract promises),
    /// drain the fetches already on the wire and land them normally,
    /// then spin at the park point — commands still apply and routed
    /// entries still land, so pause-then-checkpoint captures
    /// cross-shard work. On resume the held jobs are resubmitted with
    /// their original attempt numbers (their chaos ordinals are
    /// unchanged by the round-trip); on stop-while-paused they are
    /// handed back to the frontier instead.
    fn pause_pooled(
        &self,
        handle: &mut PoolHandle,
        pending: &mut Vec<(Claim, FetchErrorKind, u64)>,
        sink: &EventSink,
        scratch: &mut Scratch,
    ) {
        let held = handle.cancel_unstarted();
        while handle.outstanding() > 0 {
            if let Some(done) = handle.next_completion(std::time::Duration::from_millis(5)) {
                // On a storage error the run is already aborting; keep
                // draining so no completion is abandoned in the mailbox.
                let _ = self.process_completion(done, pending, sink, scratch);
            }
        }
        self.flush_failures_standalone(pending, sink);
        while self.control.run_state() == RunState::Paused
            && !self.control.abort.load(Ordering::Acquire)
        {
            std::thread::sleep(std::time::Duration::from_micros(200));
            self.control.drain(|cmd| self.apply_command(cmd, sink));
            self.drain_exchange();
        }
        if self.control.abort.load(Ordering::Acquire)
            || self.control.run_state() == RunState::Stopping
        {
            let claims: Vec<Claim> = held.into_iter().map(|(c, _)| c).collect();
            self.release_unfetched(&claims);
            return;
        }
        handle.resubmit(held);
    }

    /// Unwind the pooled pipeline on any worker exit: unclaim the
    /// queued-but-unfetched jobs (they go back to the frontier, the
    /// same contract as the inline path's unfetched batch remainder),
    /// drain the fetches already on the wire and land them
    /// (completed-then-flushed — those claims burned attempts and
    /// cannot be handed back), then flush trailing failures and cut a
    /// final commit point.
    fn wind_down_pooled(
        &self,
        handle: &mut PoolHandle,
        pending: &mut Vec<(Claim, FetchErrorKind, u64)>,
        sink: &EventSink,
        scratch: &mut Scratch,
    ) {
        let unstarted = handle.cancel_unstarted();
        let claims: Vec<Claim> = unstarted.into_iter().map(|(c, _)| c).collect();
        self.release_unfetched(&claims);
        while handle.outstanding() > 0 {
            if let Some(done) = handle.next_completion(std::time::Duration::from_millis(5)) {
                // `record_error` keeps the first error; keep draining so
                // every claim's gauge and row are accounted for.
                let _ = self.process_completion(done, pending, sink, scratch);
            }
        }
        self.flush_failures_standalone(pending, sink);
        let mut g = self.store.write();
        if let Err(e) = Self::commit_if_durable(&mut g.db) {
            drop(g);
            self.record_error(e);
        }
    }

    /// Process one claimed batch: fetch + classify each page outside the
    /// lock, flush its writes in one short critical section, and honor
    /// control at every *page* boundary — pause parks here (claims held,
    /// no further fetches), stop hands the unfetched remainder back to
    /// the frontier via [`frontier::unclaim_batch`], so pause/stop
    /// latency stays one page, not one batch. Returns `true` when the
    /// worker should exit its loop.
    fn process_batch(
        &self,
        claims: &[Claim],
        first_attempt: u64,
        sink: &EventSink,
        scratch: &mut Scratch,
    ) -> bool {
        // Failed fetches accumulate here and flush in *one* critical
        // section — before the next success lands, at stop/abort, and
        // at the batch boundary — so an error storm from a down server
        // costs one B+tree pass, not one per page.
        let mut pending: Vec<(Claim, FetchErrorKind, u64)> = Vec::new();
        let mut i = 0usize;
        while i < claims.len() {
            let claim = &claims[i];
            let attempt = first_attempt + i as u64;
            // Fetch without holding the lock (network latency). The
            // submission ordinal is the claim's attempt number minus
            // one — assigned under the store lock at claim time, so
            // chaos schedules keyed on it replay identically whether
            // the fetch runs inline here or on a pool thread.
            let result = self.fetcher.fetch_with_ordinal(claim.oid, attempt - 1);
            // Classify without holding *any* lock: clone the compiled
            // engine's Arc (a refcount bump under a momentary read
            // lock), drop the lock, then run zero-alloc inference in
            // this worker's scratch. A concurrent retrain swaps the Arc
            // without waiting for us; this page finishes under the
            // model it started with.
            let eval = result.as_ref().ok().map(|page| {
                let compiled = Arc::clone(&self.compiled.read());
                let summary = compiled.evaluate_into(&page.terms, scratch);
                // Saved posteriors back §3.7 re-marking; the tail below
                // the floor adds nothing. Filtered here, outside the
                // store lock.
                let saved: Vec<(ClassId, f64)> = scratch
                    .class_probs()
                    .iter()
                    .copied()
                    .filter(|&(_, p)| p > SAVED_PROB_FLOOR)
                    .collect();
                (summary, saved)
            });
            match result {
                Err(e) => {
                    // No lock taken for a failure: it joins the pending
                    // flush. The claim stays in flight (gauge and row
                    // both) until the flush lands it.
                    pending.push((claim.clone(), FetchErrorKind::from(&e), attempt));
                }
                Ok(page) => {
                    let mut g = self.store.write();
                    let res = self
                        .flush_failures(&mut g, &mut pending, sink)
                        .and_then(|()| self.process(&mut g, claim, Ok(page), eval, attempt, sink));
                    // The gauge falls only after the page's outlinks are
                    // in the frontier (still under the write lock): a
                    // peer observing `in_flight == 0` with an empty
                    // frontier can trust it. In cluster mode the same
                    // applies to the global gauge — `process` routed
                    // this page's remote outlinks *before* this
                    // decrement, so a peer shard observing zero global
                    // in-flight is guaranteed to see them in `queued`.
                    self.counters.in_flight.fetch_sub(1, Ordering::AcqRel);
                    if let Some(ctx) = &self.shard {
                        ctx.exchange.sub_in_flight(1);
                    }
                    if let Err(e) = res {
                        drop(g);
                        self.record_error(e);
                        self.release_unfetched(&claims[i + 1..]);
                        return true;
                    }
                    drop(g);
                }
            }
            i += 1;
            // Page boundary inside the batch: steering commands take
            // effect between pages, not only between batches — and
            // cross-shard entries land here with the same latency.
            self.control.drain(|cmd| self.apply_command(cmd, sink));
            self.drain_exchange();
            // A pause parks right here, with the batch remainder checked
            // out but no further fetches issued (attempts stay flat, as
            // the pause contract promises). Commands still apply and
            // routed entries still land while parked — a paused cluster
            // drains its exchange, so pause-then-checkpoint captures
            // cross-shard work instead of leaving it in inboxes no
            // snapshot covers.
            while self.control.run_state() == RunState::Paused
                && !self.control.abort.load(Ordering::Acquire)
            {
                std::thread::sleep(std::time::Duration::from_micros(200));
                self.control.drain(|cmd| self.apply_command(cmd, sink));
                self.drain_exchange();
            }
            // Abort (a peer failed) and stop both end the batch at this
            // page boundary; either way the unfetched remainder goes
            // back to the frontier. `attempts` stays as counted (it is
            // monotone by contract); only the in-flight gauge is
            // released.
            if self.control.abort.load(Ordering::Acquire)
                || self.control.run_state() == RunState::Stopping
            {
                // The fetched-and-failed prefix must still land — those
                // claims were *used* (they burned attempts) and cannot
                // be handed back as unfetched.
                self.flush_failures_standalone(&mut pending, sink);
                self.release_unfetched(&claims[i..]);
                return true;
            }
        }
        // Batch boundary: land any trailing failures, then cut a WAL
        // commit point so the batch's pages are recoverable (fsync
        // cadence follows the group-commit quota; the wind-down commit
        // forces the last sync). Write-ahead discipline means the pages
        // themselves may already be in the log — this just makes them
        // part of the committed prefix.
        {
            let mut g = self.store.write();
            let res = self
                .flush_failures(&mut g, &mut pending, sink)
                .and_then(|()| Self::commit_if_durable(&mut g.db));
            if let Err(e) = res {
                drop(g);
                self.record_error(e);
                return true;
            }
        }
        false
    }

    /// Claim the next batch of work, or decide why there is none. The
    /// batch is clamped to the remaining budget so attempts never exceed
    /// it; each claim is numbered at claim time (the harvest x-axis).
    ///
    /// `attempts` is only ever advanced here, under the store *write*
    /// lock, so the budget check and the increment are atomic against
    /// every other claimer; a concurrent `add_budget` can only widen the
    /// window between the check and the claim, never shrink it.
    fn next_tick(&self, sink: &EventSink, batch_size: usize) -> Tick {
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
        match self.claim_admitted(&mut g, want) {
            Ok((claims, parked)) if claims.is_empty() => {
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
                let idle = parked == 0 && self.counters.in_flight.load(Ordering::Acquire) == 0;
                // Record the cluster-idle verdict while still holding
                // the store lock. Every local frontier insertion clears
                // the flag inside its own store critical section, so
                // the lock serializes verdict against repopulation: an
                // upsert before this claim makes the frontier non-empty
                // (no verdict), an upsert after it clears the flag
                // after we set it. Recording the flag outside the lock
                // would let a stale verdict overwrite a landing's
                // clear and terminate the cluster with poppable work.
                if idle {
                    if let Some(ctx) = &self.shard {
                        ctx.exchange.mark_idle(ctx.shard);
                    }
                }
                Tick::EmptyFrontier { idle, attempts }
            }
            Ok((claims, _)) => {
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
                if let Some(ctx) = &self.shard {
                    ctx.exchange.add_in_flight(claims.len());
                }
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

    /// Claim up to `want` due frontier entries, gating every pop
    /// through the per-server breaker *inside the claim critical
    /// section*. Claims for quarantined servers are parked back
    /// ([`frontier::park_batch`]) and the pop retried, so an open
    /// breaker never starves the healthy work behind it in priority
    /// order — and a parked claim is never counted as an attempt or
    /// held in flight, so the budget and gauges stay exact.
    ///
    /// Returns the admitted claims plus a count of parked-or-deferred
    /// rows encountered. The count can double-count rows parked by
    /// this very call and re-seen by a later pop round; only its
    /// zero/non-zero distinction is load-bearing (the idle verdict),
    /// and that is exact.
    ///
    /// Politeness-saturated servers are filtered *in-scan* by a
    /// [`frontier::claim_batch_where`] predicate, so a server at its
    /// per-server cap never has its rows popped and parked (no B+tree
    /// churn); the rows are merely skipped and counted as `deferred`,
    /// which vetoes the idle verdict exactly like parked rows do.
    /// `HealthMap::admit` stays authoritative behind the predicate:
    /// the scan's view of `in_flight` is stale for claims admitted in
    /// the same batch, so the re-check parks any overshoot.
    fn claim_admitted(&self, g: &mut StoreState, want: usize) -> DbResult<(Vec<Claim>, usize)> {
        let now = self.counters.clock.load(Ordering::Acquire) as i64;
        let mut admitted: Vec<Claim> = Vec::with_capacity(want);
        let mut parks: Vec<(Oid, i64)> = Vec::new();
        let mut parked_rows = 0usize;
        loop {
            // Borrow-split the guard: the scan predicate reads health
            // while the claim scan holds `db` mutably.
            let StoreState { db, health, .. } = &mut *g;
            let outcome = frontier::claim_batch_where(db, want - admitted.len(), now, |c| {
                !health.politeness_deferred(host_server_id(&c.url), now)
            })?;
            parked_rows = parked_rows.max(outcome.parked + outcome.deferred);
            if outcome.claims.is_empty() {
                break;
            }
            let mut parked_this_round = false;
            for c in outcome.claims {
                match g.health.admit(host_server_id(&c.url), now) {
                    ClaimGate::Fetch | ClaimGate::Probe => admitted.push(c),
                    ClaimGate::Parked { until } => {
                        // Clamp into the future: a degenerate zero
                        // cooldown must not hand the row straight back
                        // to the next pop round (infinite loop).
                        parks.push((c.oid, until.max(now + 1)));
                        parked_this_round = true;
                    }
                }
            }
            if admitted.len() >= want || !parked_this_round {
                break;
            }
            // Park before re-popping, or the same rows come straight
            // back from the index.
            frontier::park_batch(&mut g.db, &parks)?;
            parked_rows += parks.len();
            parks.clear();
        }
        if !parks.is_empty() {
            parked_rows += parks.len();
            frontier::park_batch(&mut g.db, &parks)?;
        }
        Ok((admitted, parked_rows))
    }
}

//! The flush side: landing fetched pages and failures in the store —
//! first visits and hub revisits through the same two functions,
//! [`CrawlSession::process`] and `process_failures`, each called from
//! one place (the worker's `land_under`, once per buffered completion
//! or failure run, under whichever guard lands the lane's buffer) —
//! routing frontier entries to their owning shards, and distillation
//! (snapshot under the lock, iterate outside it, publish under it).

use super::*;
use crate::metrics::{Stage, StageClock};

/// A fetched page with everything computed outside the store lock,
/// waiting in its worker's lane to land.
pub(super) struct Classified {
    pub claim: Claim,
    pub attempt: u64,
    /// What landing needs of the fetched page (its terms are spent on
    /// classification): oid, URL, and outlinks. The page's server id
    /// and each outlink's are hashed before the store lock is taken.
    pub oid: Oid,
    pub url: String,
    pub sid: ServerId,
    pub outlinks: Vec<(Oid, ServerId, String)>,
    pub summary: EvalSummary,
    /// The page's `LANDING` row, with the posterior worth saving for
    /// §3.7 re-marking; numbered when it lands.
    pub landing: Vec<Value>,
    /// The page's citers ([`CrawlSession::citers`]), looked up before
    /// the store lock is taken.
    pub citers: Option<Vec<(Oid, String)>>,
    /// The store was busy when the page was classified and its worker
    /// went on fetching: it lands under a later guard
    /// ([`CrawlStats::deferred_landings`]).
    pub deferred: bool,
}

/// A breaker transition one fetch outcome caused: what `server_health`
/// mirrors and the event stream announces.
#[derive(Debug, Clone, Copy)]
enum BreakerChange {
    /// The failure opened (or re-opened) the server's breaker.
    Quarantined { failures: u32, until: i64 },
    /// The answer closed it.
    Recovered,
}

/// Charge one failed fetch to its server's health — the one place a
/// failure kind becomes [`HealthMap`] calls. Only timeouts count
/// against the *server*. A 404 is a dead page on a live host:
/// health-neutral, but exactly what a half-open probe was sent to hear
/// (a hub the evolving web deleted must not strand its server in
/// `Probing`). Returns the tick a requeued row must wait for, and the
/// breaker transition if this failure caused one.
fn charge_failure(
    health: &mut HealthMap,
    sid: ServerId,
    kind: FetchErrorKind,
    now: i64,
) -> (i64, Option<BreakerChange>) {
    if kind != FetchErrorKind::Timeout {
        let recovered = health.record_answered(sid);
        return (0, recovered.then_some(BreakerChange::Recovered));
    }
    match health.record_failure(sid, now) {
        FailureVerdict::Backoff { not_before } => (not_before, None),
        FailureVerdict::Quarantined { until, failures } => {
            (until, Some(BreakerChange::Quarantined { failures, until }))
        }
    }
}

impl CrawlSession {
    /// Seed the frontier with the start set `D(C*)` at top priority.
    ///
    /// URLs are resolved through [`Fetcher::url_of`] (outside the lock)
    /// so seeded rows — and the claims, checkpoints, and events cut from
    /// them — carry real URLs rather than `""`. A fetcher that cannot
    /// resolve metadata leaves the row oid-keyed with an empty URL; the
    /// URL is then filled in when the page is fetched.
    pub fn seed(&self, seeds: &[Oid]) -> DbResult<()> {
        let entries: Vec<FrontierEntry> = seeds
            .iter()
            .map(|&oid| FrontierEntry {
                oid,
                url: self.fetcher.url_of(oid).unwrap_or_default(),
                log_relevance: 0.0,
                serverload: 0,
            })
            .collect();
        self.seed_entries(entries)
    }

    /// Seed resolved frontier entries. Entries whose host belongs to
    /// another shard are handed to the exchange (drained by the owner's
    /// workers at page boundaries); a seed with no resolvable URL falls
    /// back to `oid % n_shards`.
    pub(crate) fn seed_entries(&self, entries: Vec<FrontierEntry>) -> DbResult<()> {
        let n_shards = self.shard.n_shards;
        let routed = entries
            .into_iter()
            .map(|e| (crate::cluster::seed_owner(&e.url, e.oid, n_shards), e))
            .collect();
        let mut g = self.store.write();
        self.upsert_routed(&mut g, routed)?;
        // Seeds are acknowledged work: a durable session must not lose
        // them to a crash before the first batch commit. The commit is
        // cut under the guard; the sync it requested at the group-commit
        // quota is waited for after the guard is dropped.
        self.commit_state(&mut g)?;
        let wal = g.db.wal();
        drop(g);
        wal.map_or(Ok(()), |wal| wal.wait_requested())
    }

    /// A priority boost for a known-but-unfetched link target, paired
    /// with its owning shard. The link graph remembers the target's
    /// server id, not its URL; the frontier row already has one (or
    /// gets it at fetch time).
    pub(super) fn boost_entry(
        &self,
        dst: Oid,
        sid_dst: u32,
        log_relevance: f64,
    ) -> (usize, FrontierEntry) {
        let entry = FrontierEntry {
            oid: dst,
            url: String::new(),
            log_relevance,
            serverload: 0,
        };
        (self.shard.owner_of(ServerId(sid_dst)), entry)
    }

    /// Put frontier entries where they belong — the one place the
    /// partition is applied to new frontier work. Each entry comes
    /// paired with its owning shard ([`ShardCtx::owner_of`], or
    /// [`crate::cluster::seed_owner`] for seeds; the `% n_shards`
    /// partition keeps a server's pages on one shard, so the §2.2
    /// nepotism filter and per-server load accounting stay local
    /// facts): this shard's entries are upserted into the local frontier
    /// in one batch, the rest are handed to their owners through the
    /// exchange. Returns the local upsert's outcome.
    ///
    /// A local entry for a page the link graph holds a relevance for is
    /// dropped before the upsert, because the upsert could not change
    /// its row. The graph holds a relevance exactly for the pages whose
    /// row has `kcid ≥ 0` — the fetched ones: [`StoreState::load`]
    /// derives it from those rows and [`CrawlSession::process`] sets it
    /// under the guard that marks the row done. Such a row is `DONE`,
    /// `CLAIMED`, `DEAD`, or a requeued revisit at the top priority
    /// (`TOP_NEGREL`), and `frontier::upsert_batch` leaves every one of
    /// those unchanged (`upsert_never_changes_a_fetched_row`).
    ///
    /// The caller holds the store write lock (`g` is the guarded
    /// state). The shard's idle flag is lowered **before** the insert:
    /// paths with no claim in flight (seeds, re-steer and distiller
    /// boosts, maintenance) can insert at any time, the lock orders the
    /// lowering against `next_tick`'s verdict, and lower-*before*-insert
    /// upholds the coverage invariant
    /// [`crate::cluster::ShardExchange::try_finish`] rests on — at no
    /// instant does poppable work exist on a shard whose idle flag
    /// reads true. Routing happens still under the lock, i.e. before a
    /// claimed page's in-flight gauge falls, so a peer shard that
    /// observes the crawl as idle can never miss the routed entries.
    /// Nothing is allocated for remote entries until there is one.
    pub(super) fn upsert_routed(
        &self,
        g: &mut StoreState,
        entries: Vec<(usize, FrontierEntry)>,
    ) -> DbResult<frontier::BatchUpsert> {
        let ShardCtx {
            shard,
            n_shards,
            exchange,
        } = &self.shard;
        let mut local = Vec::with_capacity(entries.len());
        let mut remote: Vec<Vec<FrontierEntry>> = Vec::new();
        for (owner, entry) in entries {
            if owner != *shard {
                remote.resize_with(*n_shards, Vec::new);
                remote[owner].push(entry);
            } else if g.graph.relevance(entry.oid).is_none() {
                local.push(entry);
            }
        }
        exchange.clear_idle(*shard);
        let upserted = frontier::upsert_batch(&mut g.db, &local)?;
        for (owner, batch) in remote.into_iter().enumerate() {
            exchange.route(owner, batch);
        }
        Ok(upserted)
    }

    /// Land cross-shard frontier entries routed to this shard: pop the
    /// inbox, drop the entries for pages this shard has fetched (as
    /// [`CrawlSession::upsert_routed`] drops local ones), fill in the
    /// local server-load accounting (the classifying shard does not
    /// track our servers), and upsert in one batch. Called wherever the
    /// command queue drains — page boundaries, the top of the worker
    /// loop, and the pause park — so exchange latency matches steering
    /// latency; the cluster checkpoint also calls it so no routed entry
    /// is left in an inbox a snapshot cannot see. With nothing queued
    /// for this shard it returns after one atomic load.
    pub(crate) fn drain_exchange(&self) {
        let ShardCtx {
            shard, exchange, ..
        } = &self.shard;
        if exchange.queued(*shard) == 0 {
            return;
        }
        let batch = exchange.take(*shard);
        if batch.is_empty() {
            return;
        }
        let n = batch.len();
        let mut g = self.store.write();
        let entries: Vec<FrontierEntry> = batch
            .into_iter()
            .filter(|e| g.graph.relevance(e.oid).is_none())
            .map(|mut e| {
                if !e.url.is_empty() {
                    let sid = host_server_id(&e.url);
                    e.serverload = g.server_counts.get(&sid).copied().unwrap_or(0);
                }
                e
            })
            .collect();
        // Lower-before-insert under the store lock (see
        // `upsert_routed`); the queued-gauge release follows outside
        // the lock, after the upsert, so the entries stay covered
        // throughout.
        exchange.clear_idle(*shard);
        let res = frontier::upsert_batch(&mut g.db, &entries);
        drop(g);
        // `take` left these counted in the shard's `queued` gauge so no
        // verdict could fire while they were in neither an inbox nor a
        // frontier; release them now that they landed (the dropped ones
        // too: their pages need nothing more). On error the run is
        // aborting anyway — still release, or termination would wedge
        // on entries nobody will land.
        exchange.landed(*shard, n);
        if let Err(e) = res {
            self.record_error(e);
        }
    }

    /// Land one fetched, classified page under the store write lock:
    /// mark it done, record its links, and expand the frontier (locally
    /// or through the exchange). Returns whether the periodic
    /// distillation trigger is due — the pass itself runs outside the
    /// lock, so the caller starts it after dropping its guard.
    ///
    /// First visits and revisits ([`CrawlSession::maintenance_pass`])
    /// land here alike. A revisit is a page the link graph already holds
    /// a relevance for — the one fact consulted, which
    /// [`StoreState::load`] derives from the rows a fetch has marked
    /// (`kcid ≥ 0`), whatever state a requeue left them in. It differs
    /// in two places only: its server is not counted again, and of its
    /// outlinks only those `LINK` does not hold yet are recorded, with
    /// a fresh `discovered` stamp.
    pub(super) fn process(
        &self,
        g: &mut StoreState,
        landing: Classified,
        sink: &EventSink,
    ) -> DbResult<bool> {
        let Classified {
            claim,
            attempt,
            oid,
            url,
            sid: sid_src,
            outlinks,
            summary,
            mut landing,
            citers,
            deferred,
        } = landing;
        let now = self.start.elapsed().as_secs() as i64;
        g.db.set_current_timestamp(now);
        // The fetch is over: hand back the per-server politeness slot
        // charged at admission. Keyed by the *claim's* URL (the
        // admission key) — the page's `url` can differ (or the claim's
        // can be empty for raw seeds), and releasing a different server
        // would leak the slot forever.
        g.health.release(host_server_id(&claim.url));
        let r = summary.relevance;
        let log_r = log_clamped(r);
        frontier::mark_done(
            &mut g.db,
            oid,
            &url,
            log_r,
            summary.best_leaf.raw() as i64,
            now,
        )?;
        let seq = {
            // Tallies lock nests inside the store write lock (module
            // lock order), held just for the tallies, so `LANDING` is
            // numbered and summed in landing order.
            let mut t = self.counters.tallies.lock();
            t.successes += 1;
            t.deferred_landings += u64::from(deferred);
            t.harvest_sum += r;
            t.successes
        };
        landing[0] = Value::Int(seq as i64);
        g.db.insert(g.landing_tid, landing)?;
        let revisit = g.graph.relevance(oid).is_some();
        // The graph holds what `CRAWL` stores, as a reopened store
        // derives it.
        g.graph.set_relevance(oid, log_r.exp());
        let src_id = g.graph.node_id(oid, sid_src.raw());
        // What `LINK` already holds for this source; a first visit has
        // nothing to read.
        let mut known = Vec::new();
        if revisit {
            let src = [Value::Int(oid.raw() as i64)];
            let rs =
                g.db.query_with("select oid_dst from link where oid_src = ?", &src)?;
            known.extend(rs.rows.iter().filter_map(|row| row[0].as_i64()));
            known.sort_unstable();
        } else {
            *g.server_counts.entry(sid_src).or_insert(0) += 1;
        }
        // A success closes the server's breaker (the half-open probe
        // came back) and resets its failure streak.
        if g.health.record_success(sid_src) {
            Self::publish_breaker(g, sid_src, BreakerChange::Recovered, sink)?;
        }

        // Record links and expand the frontier. The whole page's LINK
        // rows land through one batch insert and its outlink
        // endorsements through one `upsert_batch` pass — one ordered
        // index traversal each, instead of a full B+tree descent per
        // outlink. An outlink whose server another shard owns carries
        // its endorsement (the saved priority from *this* shard's
        // classification) through the exchange; the LINK row stays
        // local — the edge was discovered here, and the distiller is
        // per-shard.
        let expansion = g.policy.decide_eval(&summary);
        let link_tid = g.db.table_id("link")?;
        let (mut link_rows, mut new_links) = (std::mem::take(&mut g.link_rows), 0);
        let mut expansions = Vec::new();
        for (dst, sid_dst, dst_url) in outlinks {
            if known.binary_search(&(dst.raw() as i64)).is_err() {
                g.graph.add_link(src_id, dst, sid_dst.raw());
                if new_links == link_rows.len() {
                    link_rows.push(Row::new());
                }
                let row = &mut link_rows[new_links];
                tables::link_row_into(row, oid, sid_src.raw(), dst, sid_dst.raw(), now);
                new_links += 1;
            }
            if expansion.expand {
                let prio = expansion.child_log_relevance;
                expansions.push(self.endorsement(g, sid_dst, dst, dst_url, prio));
            }
        }
        let linked = g.db.insert_rows(link_tid, &mut link_rows[..new_links]);
        g.link_rows = link_rows;
        linked?;
        self.upsert_routed(g, expansions)?;

        // Backward expansion: a highly relevant page's *citers* are hub
        // candidates (radius-2), looked up before the lock was taken.
        if let Some(citers) = citers {
            let prio = log_clamped(r * 0.8);
            let backlinks = citers
                .into_iter()
                .map(|(src, src_url)| {
                    self.endorsement(g, host_server_id(&src_url), src, src_url, prio)
                })
                .collect();
            self.upsert_routed(g, backlinks)?;
        }

        sink.emit(CrawlEvent::PageClassified {
            oid,
            attempt,
            relevance: r,
            best_leaf: summary.best_leaf,
        });

        // Distillation trigger (§3.1: "triggers to recompute relevance
        // and centrality scores when the neighborhood of a page changed
        // significantly"). While a pass is running a second trigger just
        // keeps counting: the page that lands after it finishes trips.
        g.distill.since += 1;
        let every = self.cfg.distill_every.unwrap_or(usize::MAX);
        Ok(g.distill.since >= every && g.distill.running == 0)
    }

    /// §3.2's backward device: the citers of a page whose relevance is
    /// above [`CrawlConfig::backlink_expansion_above`], when its server
    /// exposes backlink metadata. Asking is a round trip like a fetch —
    /// the `BACKLINKS` blocking point — so the caller holds no lock and
    /// [`CrawlSession::process`] only upserts the answer.
    pub(super) fn citers(&self, page: Oid, relevance: f64) -> Option<Vec<(Oid, String)>> {
        let threshold = self.cfg.backlink_expansion_above?;
        if relevance > threshold {
            lockcheck::blocking(&rank::BACKLINKS);
            return self.fetcher.backlinks(page);
        }
        None
    }

    /// A frontier entry for a page on server `sid`, paired with its
    /// owning shard. A local entry carries this shard's server-load
    /// accounting; a remote one leaves it for the owner to fill in at
    /// landing time ([`CrawlSession::drain_exchange`]).
    fn endorsement(
        &self,
        g: &StoreState,
        sid: ServerId,
        oid: Oid,
        url: String,
        log_relevance: f64,
    ) -> (usize, FrontierEntry) {
        let owner = self.shard.owner_of(sid);
        let serverload = if owner == self.shard.shard {
            g.server_counts.get(&sid).copied().unwrap_or(0)
        } else {
            0
        };
        let entry = FrontierEntry {
            oid,
            url,
            log_relevance,
            serverload,
        };
        (owner, entry)
    }

    /// Record a batch of failed fetches in one critical section: route
    /// server-attributable failures through the health map (backoff,
    /// breaker, retry budget), write every row via one
    /// [`frontier::mark_failed_batch`] pass, mirror breaker transitions
    /// into `server_health`, and emit the enriched
    /// [`CrawlEvent::FetchFailed`] events. The caller lets the claims
    /// leave the in-flight gauge afterwards, under the same guard.
    pub(super) fn process_failures(
        &self,
        g: &mut StoreState,
        failures: &[(Claim, FetchErrorKind, u64)],
        sink: &EventSink,
    ) -> DbResult<()> {
        if failures.is_empty() {
            return Ok(());
        }
        g.db.set_current_timestamp(self.start.elapsed().as_secs() as i64);
        self.counters.tallies.lock().failures += failures.len() as u64;
        let now = g.clock;
        let mut updates = Vec::with_capacity(failures.len());
        // Per item: (server, breaker transition this failure caused,
        // row is behind an open breaker) — computed in the first pass,
        // consumed when events are cut after the rows land.
        let mut verdicts = Vec::with_capacity(failures.len());
        for (claim, kind, _) in failures {
            // Every admitted claim charged exactly one politeness slot,
            // whatever the failure kind; release it before the breaker
            // bookkeeping, keyed as the admission was (the claim URL).
            let sid = host_server_id(&claim.url);
            g.health.release(sid);
            let (not_before, change) = charge_failure(&mut g.health, sid, *kind, now);
            // Only a timeout leaves its row waiting on the server.
            let behind_breaker = *kind == FetchErrorKind::Timeout
                && (g.health.get(sid)).is_some_and(|h| h.breaker != Breaker::Closed);
            // Retriable failures spend the retry budget — but only when
            // the page would actually requeue. With the budget dry the
            // failure is terminal, so retries can never starve
            // first-visit fetches out of the remaining fetch budget.
            let mut retriable = *kind != FetchErrorKind::NotFound;
            if retriable && claim.numtries + 1 < self.cfg.max_tries {
                match g.retry_budget.checked_sub(1) {
                    Some(left) => g.retry_budget = left,
                    None => retriable = false,
                }
            }
            updates.push(frontier::FailureUpdate {
                oid: claim.oid,
                retriable,
                not_before,
            });
            verdicts.push((sid, change, behind_breaker));
        }
        let dispositions = frontier::mark_failed_batch(&mut g.db, &updates, self.cfg.max_tries)?;
        for (i, (claim, kind, attempt)) in failures.iter().enumerate() {
            let (sid, change, behind_breaker) = verdicts[i];
            let outcome = match dispositions[i] {
                frontier::FailDisposition::Dead => FailureOutcome::Dead,
                frontier::FailDisposition::Retried { not_before } if behind_breaker => {
                    FailureOutcome::Parked { not_before }
                }
                frontier::FailDisposition::Retried { not_before } => {
                    FailureOutcome::Retried { not_before }
                }
            };
            sink.emit(CrawlEvent::FetchFailed {
                oid: claim.oid,
                attempt: *attempt,
                retriable: *kind != FetchErrorKind::NotFound,
                error: *kind,
                outcome,
            });
            if let Some(change) = change {
                Self::publish_breaker(g, sid, change, sink)?;
            }
        }
        Ok(())
    }

    /// Mirror a breaker transition into `server_health` and announce
    /// it — after the event of the fetch that caused it.
    fn publish_breaker(
        g: &mut StoreState,
        sid: ServerId,
        change: BreakerChange,
        sink: &EventSink,
    ) -> DbResult<()> {
        Self::write_server_health(&mut g.db, sid, g.health.get(sid))?;
        sink.emit(match change {
            BreakerChange::Recovered => CrawlEvent::ServerRecovered { server: sid },
            BreakerChange::Quarantined { failures, until } => CrawlEvent::ServerQuarantined {
                server: sid,
                failures,
                until,
            },
        });
        Ok(())
    }

    /// Mirror one server's breaker record into the `server_health`
    /// table. Written on state *transitions* only (quarantine opened,
    /// server recovered) so the §3.7 monitoring view stays off the hot
    /// path; the rows ride the WAL, so replicas serve the view too.
    pub(super) fn write_server_health(
        db: &mut Database,
        sid: ServerId,
        health: Option<&ServerHealth>,
    ) -> DbResult<()> {
        db.execute_with(
            "delete from server_health where sid = ?",
            &[Value::Int(sid.raw() as i64)],
        )?;
        let Some(h) = health else { return Ok(()) };
        let (state, until) = match h.breaker {
            Breaker::Closed => ("closed", 0),
            Breaker::Open { until } => ("open", until),
            Breaker::Probing => ("probing", 0),
        };
        let tid = db.table_id("server_health")?;
        db.insert(
            tid,
            vec![
                Value::Int(sid.raw() as i64),
                Value::Str(state.to_owned()),
                Value::Int(h.consec_failures as i64),
                Value::Int(until),
                Value::Int(h.quarantines as i64),
            ],
        )?;
        Ok(())
    }

    /// Run one distillation pass — the one place a pass starts, for
    /// the periodic trigger (`forced = false`) and for
    /// [`Command::Distill`] / [`CrawlSession::distill_now`] alike. The
    /// caller holds **no** lock. Three steps:
    ///
    /// 1. under the store write lock, cut an owned snapshot of the link
    ///    graph (a memcpy of its flat columns), number it, and restart
    ///    the periodic count — every pass does, so a forced pass is not
    ///    followed by a periodic one a page later;
    /// 2. with no lock held, iterate on the snapshot — workers keep
    ///    landing pages and monitors keep querying meanwhile; what lands
    ///    now is seen by the next pass;
    /// 3. under the store write lock again, republish `HUBS`/`AUTH`
    ///    (delete + insert under this one guard, so a monitor sees the
    ///    old tables or the new, never a mix), apply the hub boosts, and
    ///    emit [`CrawlEvent::DistillCompleted`].
    ///
    /// At most one *periodic* pass runs at a time: a trigger that finds
    /// one running returns at once and the count keeps growing. Forced
    /// passes always run, so two can overlap; a result is published only
    /// if no newer snapshot's has been, and an overtaken pass ends
    /// silently.
    ///
    /// The pass charges steps 1 and 2 to `clock`, a worker's stage clock
    /// (the worker charges step 3's time when the pass returns; its reads
    /// are charged here), or one over a scratch slot where no worker runs
    /// it.
    pub(super) fn distill_pass(
        &self,
        forced: bool,
        sink: Option<&EventSink>,
        clock: &mut StageClock<'_>,
    ) -> DbResult<()> {
        let (snapshot, number) = {
            let mut g = self.store.write();
            if !forced && g.distill.running > 0 {
                return Ok(());
            }
            let reads = g.db.io_stats().logical_reads;
            g.distill.since = 0;
            g.distill.running += 1;
            g.distill.cut += 1;
            let snapshot = g.graph.snapshot();
            let read = g.db.io_stats().logical_reads - reads;
            clock.charge_reads(Stage::DistillGuard1, read);
            (snapshot, g.distill.cut)
        };
        clock.lap(Stage::DistillGuard1);
        lockcheck::blocking(&rank::DISTILL_PASS);
        let Distilled { result, endorsed } =
            snapshot.distill(&self.cfg.distill, self.cfg.hub_boost_top_k);
        clock.lap(Stage::DistillKernel);
        let mut g = self.store.write();
        let reads = g.db.io_stats().logical_reads;
        g.distill.running -= 1;
        if number <= g.distill.published {
            return Ok(());
        }
        g.distill.published = number;
        let distillation = {
            let mut t = self.counters.tallies.lock();
            t.distillations += 1;
            t.distillations
        };
        // Persist HUBS/AUTH so ad-hoc monitoring SQL sees live scores.
        for (table, top) in [
            ("hubs", result.top_hubs(200)),
            ("auth", result.top_auths(200)),
        ] {
            g.db.execute(&format!("delete from {table}"))?;
            let tid = g.db.table_id(table)?;
            let rows = top
                .iter()
                .map(|&(o, s)| vec![Value::Int(o.raw() as i64), Value::Float(s)]);
            g.db.insert_many(tid, rows.collect())?;
        }
        // Hub-boost trigger: raise priority of unvisited pages cited by
        // the best hubs. The snapshot saw them unvisited; a page that
        // was fetched while the pass ran needs no boost, so visited-ness
        // is re-read from the live graph (dense ids are stable). Targets
        // another shard owns route through the exchange (distillation is
        // per-shard, but its boosts still respect the partition).
        let targets = endorsed
            .into_iter()
            .map(|id| g.graph.node(id))
            .filter(|n| n.relevance.is_none())
            .map(|n| self.boost_entry(n.oid, n.sid, log_clamped(0.9)))
            .collect();
        self.upsert_routed(&mut g, targets)?;
        if let Some(sink) = sink {
            sink.emit(CrawlEvent::DistillCompleted {
                distillation,
                top_hub: result.top_hubs(1).first().map(|&(o, _)| o),
                top_auth: result.top_auths(1).first().map(|&(o, _)| o),
            });
        }
        g.last_distill = Some(result);
        let read = g.db.io_stats().logical_reads - reads;
        clock.charge_reads(Stage::DistillGuard2, read);
        Ok(())
    }

    /// Force a distillation now (used at end-of-crawl by Figure 7) and
    /// return the latest published result — this pass's, unless a
    /// concurrent pass on a newer snapshot overtook it. An empty link
    /// graph distills to an empty [`DistillResult`] — never a panic — so
    /// end-of-crawl reporting works on sessions that fetched nothing.
    pub fn distill_now(&self) -> DbResult<DistillResult> {
        self.distill_pass(true, None, &mut Metrics::new(1).clock(0))?;
        Ok(self.last_distill().unwrap_or_default())
    }

    /// Latest distillation result, if any.
    pub fn last_distill(&self) -> Option<DistillResult> {
        self.store.read().last_distill.clone()
    }
}

//! Steering: control commands applied at page boundaries, live topic
//! re-marking, and the crawl-maintenance pass.

use super::*;

/// Below this linear relevance, a re-marked topic does not re-prioritize
/// a visited page's outlinks (§3.7 re-steering; keeps the boost targeted
/// at pages the new marking actually endorses).
const RESTEER_MIN_RELEVANCE: f64 = 0.2;

impl CrawlSession {
    /// Apply one steering command at a page boundary.
    pub(crate) fn apply_command(&self, cmd: Command, sink: &EventSink) {
        match cmd {
            Command::Pause => {
                if self.control.run_state() == RunState::Running {
                    self.control.set_state(RunState::Paused);
                    sink.emit(CrawlEvent::Paused);
                }
            }
            Command::Resume => {
                if self.control.run_state() == RunState::Paused {
                    self.control.set_state(RunState::Running);
                    sink.emit(CrawlEvent::Resumed);
                }
            }
            Command::Stop => {
                self.control.set_state(RunState::Stopping);
                if self.control.stop_reported_once() {
                    let attempts = self.counters.attempts.load(Ordering::Acquire);
                    sink.emit(CrawlEvent::Stopped { attempts });
                }
            }
            Command::AddSeeds(seeds) => {
                let res = self.seed(&seeds);
                self.control
                    .stagnation_reported
                    .store(false, Ordering::Release);
                match res {
                    Ok(()) => sink.emit(CrawlEvent::SeedsAdded { count: seeds.len() }),
                    Err(e) => self.record_error(e),
                }
            }
            Command::AddBudget(extra) => {
                let budget = self.counters.budget.fetch_add(extra, Ordering::AcqRel) + extra;
                self.control.budget_reported.store(false, Ordering::Release);
                sink.emit(CrawlEvent::BudgetAdded { extra, budget });
            }
            Command::SetPolicy(policy) => {
                self.store.write().policy = policy;
                sink.emit(CrawlEvent::PolicyChanged {
                    policy: policy_name(policy),
                });
            }
            Command::MarkTopic { class, good } => {
                self.apply_mark_topic(class, good, sink);
            }
            Command::Distill => {
                if let Err(e) = self.distill_pass(true, Some(sink)) {
                    self.record_error(e);
                }
            }
        }
    }

    /// §3.7 live re-steering: change the good marking, recompute visited
    /// pages' relevance from their saved posteriors, and re-prioritize
    /// the frontier entries those pages point to.
    fn apply_mark_topic(&self, class: ClassId, good: bool, sink: &EventSink) {
        let applied = {
            let mut model = self.model.write();
            let res = if good {
                model.taxonomy.mark_good(class)
            } else {
                model.taxonomy.unmark_good(class)
            };
            res.is_ok()
        };
        sink.emit(CrawlEvent::TopicMarked {
            class,
            good,
            applied,
        });
        if !applied {
            return;
        }
        let model = self.model.read();
        // Recompile against the new marking and swap the Arc in. Workers
        // cloned their Arc before evaluating, so nothing waits on this;
        // pages classified from here on see the new good set. Lock order
        // model → compiled per the module docs.
        *self.compiled.write() = Arc::new(CompiledModel::compile(&model));
        match self.resteer(&model.taxonomy) {
            Ok(boosted) => {
                self.control
                    .stagnation_reported
                    .store(false, Ordering::Release);
                sink.emit(CrawlEvent::FrontierResteered { class, boosted });
            }
            Err(e) => self.record_error(e),
        }
    }

    /// Bring the store in line with `taxonomy`'s (just changed) marking,
    /// under one store write guard: `TAXONOMY.type`, visited pages'
    /// relevance, and the priority of what they point to. Returns how
    /// many frontier entries were boosted.
    fn resteer(&self, taxonomy: &focus_types::Taxonomy) -> DbResult<usize> {
        let goods = taxonomy.good_set();
        let mut g = self.store.write();
        // The §3.7 console reads the marking from `TAXONOMY`: it shows
        // the one in force, not the one the crawl started with.
        tables::fill_taxonomy_dim(&mut g.db, taxonomy)?;
        // Recompute R(d) for every visited page under the new marking.
        // A good class that was never evaluated (it sat below the old
        // path nodes) borrows its deepest evaluated ancestor's
        // probability — an upper bound, which is the right bias for
        // discovery: over-approximating sends the crawler to look.
        let mut recomputed: Vec<(Oid, f64)> = g
            .class_probs
            .iter()
            .map(|(&oid, probs)| {
                let r: f64 = goods
                    .iter()
                    .map(|&gc| lookup_prob(taxonomy, probs, gc))
                    .sum();
                (oid, r.min(1.0))
            })
            .collect();
        // The graph keeps R, `CRAWL` stores log R: one keyed batch
        // rewrite for the table, not an index descent per visited page
        // under this lock.
        for (oid, r) in &mut recomputed {
            g.graph.set_relevance(*oid, *r);
            *r = log_clamped(*r);
        }
        frontier::set_visited_relevance(&mut g.db, &recomputed)?;
        // Re-prioritize: unvisited targets of now-relevant pages inherit
        // the new relevance, exactly the soft-focus rule applied
        // retroactively. The link graph carries the target's server id,
        // so boosts for pages another shard owns route through the
        // exchange (a `mark_topic` broadcast re-steers *every* shard's
        // frontier, each from its own link evidence).
        let endorsed = (g.graph.pending_links()).filter(|&(_, r)| r > RESTEER_MIN_RELEVANCE);
        let boosts = endorsed
            .map(|(dst, r)| self.boost_entry(dst.oid, dst.sid, log_clamped(r)))
            .collect();
        Ok(self.upsert_routed(&mut g.db, boosts)?.changed())
    }

    /// Crawl-maintenance pass (§3.2): revisit the best hubs in
    /// `(lastvisited asc, hubs.score desc)` spirit, looking for *new*
    /// resource links the evolving web added since they were first
    /// fetched. New edges are recorded in `LINK` with a fresh `discovered`
    /// timestamp, and their targets enter the frontier at high priority.
    /// Returns `(hubs revisited, new links found)`.
    ///
    /// Revisit fetches go through the same per-server admission path as
    /// crawl fetches: a quarantined or politeness-saturated server is
    /// *skipped* (never probed past its breaker), and a failed revisit
    /// charges the server's health instead of being swallowed. Use
    /// [`maintenance_pass_with`] to observe the skip/failure events.
    ///
    /// [`maintenance_pass_with`]: CrawlSession::maintenance_pass_with
    pub fn maintenance_pass(&self, top_k_hubs: usize) -> DbResult<(usize, usize)> {
        self.maintenance_pass_with(top_k_hubs, Vec::new())
    }

    /// [`maintenance_pass`](CrawlSession::maintenance_pass) with
    /// observers: skips surface as [`CrawlEvent::HubRevisitSkipped`],
    /// failures as [`CrawlEvent::HubRevisitFailed`], and breaker
    /// transitions as the usual quarantine/recovery events.
    pub fn maintenance_pass_with(
        &self,
        top_k_hubs: usize,
        observers: Vec<Arc<dyn CrawlObserver>>,
    ) -> DbResult<(usize, usize)> {
        let sink = EventSink::new(None, observers, Arc::new(AtomicU64::new(0)));
        let distill = match self.last_distill() {
            Some(d) => d,
            None => self.distill_now()?,
        };
        let hubs: Vec<Oid> = distill
            .top_hubs(top_k_hubs)
            .iter()
            .map(|&(o, _)| o)
            .collect();
        let mut revisited = 0;
        let mut new_links = 0;
        for hub in hubs {
            // Resolve the hub's server the same way crawl claims do:
            // by URL. A fetcher without URL metadata resolves to the
            // same default server id empty-URL claims use.
            let url = self.fetcher.url_of(hub).unwrap_or_default();
            let sid = host_server_id(&url);
            let tick = self.counters.clock.load(Ordering::Acquire) as i64;
            // Admission under the store lock, exactly like a claim: a
            // parked verdict means the breaker is open or the server is
            // politeness-saturated — skip, never probe past it.
            let admitted = {
                let mut g = self.store.write();
                match g.health.admit(sid, tick) {
                    ClaimGate::Fetch | ClaimGate::Probe => true,
                    ClaimGate::Parked { until } => {
                        sink.emit(CrawlEvent::HubRevisitSkipped {
                            oid: hub,
                            server: sid,
                            until,
                        });
                        false
                    }
                }
            };
            if !admitted {
                continue;
            }
            // Maintenance traffic sits outside the crawl's attempt
            // numbering, so it takes the legacy serialized-tick fetch
            // (no submission ordinal to pass).
            let result = self.fetcher.fetch(hub);
            let page = match result {
                Err(ref e) => {
                    // The same health bookkeeping a failed crawl fetch
                    // gets: any answer resolves a half-open probe, not
                    // just a page (a hub the evolving web deleted must
                    // not strand its server in `Probing`).
                    let kind = FetchErrorKind::from(e);
                    let mut g = self.store.write();
                    g.health.release(sid);
                    let (_, change) = flush::charge_failure(&mut g.health, sid, kind, tick);
                    sink.emit(CrawlEvent::HubRevisitFailed {
                        oid: hub,
                        server: sid,
                        error: kind,
                    });
                    if let Some(change) = change {
                        Self::publish_breaker(&mut g, sid, change, &sink)?;
                    }
                    continue;
                }
                Ok(page) => page,
            };
            revisited += 1;
            let mut g = self.store.write();
            g.health.release(sid);
            if g.health.record_success(sid) {
                Self::publish_breaker(&mut g, sid, flush::BreakerChange::Recovered, &sink)?;
            }
            let now = self.start.elapsed().as_secs() as i64;
            // Known outlinks of this hub.
            let known: Vec<i64> = {
                let rs = g.db.query_with(
                    "select oid_dst from link where oid_src = ?",
                    &[Value::Int(hub.raw() as i64)],
                )?;
                rs.rows.iter().filter_map(|r| r[0].as_i64()).collect()
            };
            let sid_src = host_server_id(&page.url);
            let hub_id = g.graph.node_id(hub, sid_src.raw());
            let link_tid = g.db.table_id("link")?;
            let boost = log_clamped(0.95);
            let mut link_rows = Vec::new();
            let mut enqueues = Vec::new();
            for (dst, dst_url) in &page.outlinks {
                if known.contains(&(dst.raw() as i64)) {
                    continue;
                }
                new_links += 1;
                let sid_dst = host_server_id(dst_url);
                g.graph.add_link(hub_id, *dst, sid_dst.raw());
                let row = tables::link_row(hub, sid_src.raw(), *dst, sid_dst.raw(), now);
                link_rows.push(row);
                let entry = FrontierEntry {
                    oid: *dst,
                    url: dst_url.clone(),
                    log_relevance: boost,
                    serverload: 0,
                };
                enqueues.push((self.owner_shard(sid_dst), entry));
            }
            g.db.insert_many(link_tid, link_rows)?;
            // New targets respect the partition like any other frontier
            // work: another shard's pages go through the exchange.
            self.upsert_routed(&mut g.db, enqueues)?;
            frontier::touch_visited(&mut g.db, hub, now)?;
        }
        Ok((revisited, new_links))
    }
}

/// `Pr[c|d]` from a saved posterior, falling back to the deepest
/// evaluated ancestor (an upper bound) when `c` itself sat below the
/// evaluated path nodes at fetch time.
fn lookup_prob(taxonomy: &focus_types::Taxonomy, probs: &[(ClassId, f64)], class: ClassId) -> f64 {
    let direct = |c: ClassId| probs.iter().find(|&&(pc, _)| pc == c).map(|&(_, p)| p);
    if let Some(p) = direct(class) {
        return p;
    }
    for anc in taxonomy.ancestors(class) {
        if let Some(p) = direct(anc) {
            return p;
        }
    }
    0.0
}

fn policy_name(p: CrawlPolicy) -> &'static str {
    match p {
        CrawlPolicy::Unfocused => "Unfocused",
        CrawlPolicy::HardFocus => "HardFocus",
        CrawlPolicy::SoftFocus => "SoftFocus",
    }
}

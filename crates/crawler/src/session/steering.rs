//! Steering: control commands applied at page boundaries, live topic
//! re-marking, and crawl maintenance — which fetches nothing: a hub
//! revisit is a `CRAWL` row requeued for the one worker loop.

use super::*;

/// Below this linear relevance, a re-marked topic does not re-prioritize
/// a visited page's outlinks (§3.7 re-steering; keeps the boost targeted
/// at pages the new marking actually endorses).
const RESTEER_MIN_RELEVANCE: f64 = 0.2;

impl CrawlSession {
    /// Apply every queued steering command at a page boundary, in queue
    /// order — all but the forced distillation passes
    /// ([`Command::Distill`]): the drain holds `ctrl_apply` throughout
    /// and the HITS kernel may run under no lock, so each requested pass
    /// runs after the drain has released it. Commands queued behind a
    /// `Distill` thus apply before its pass, which sees their effects;
    /// every `Distill` still runs its own pass, until one fails.
    pub(crate) fn apply_commands(&self, sink: &EventSink) {
        let mut forced = 0;
        self.control
            .drain(|cmd| forced += usize::from(self.apply_command(cmd, sink)));
        if let Err(e) = (0..forced).try_for_each(|_| self.distill_pass(true, Some(sink))) {
            self.record_error(e);
        }
    }

    /// Apply one steering command; `true` asks the caller for a forced
    /// distillation pass once it holds no lock.
    pub(super) fn apply_command(&self, cmd: Command, sink: &EventSink) -> bool {
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
            Command::Distill => return true,
        }
        false
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
        Ok(self.upsert_routed(&mut g, boosts)?.changed())
    }

    /// Crawl maintenance (§2.2 "good hubs should be checked frequently
    /// for new resource links"; §3.2): put the `top_k_hubs` best hubs of
    /// the latest distillation back in the frontier at top priority
    /// ([`frontier::requeue_done`]) and return how many rows that
    /// requeued. Nothing is fetched here. The next run — or the live
    /// one — claims the rows like any others, so a revisit is a
    /// numbered attempt that spends budget, waits behind the politeness
    /// cap and an open breaker, fails through the one failure path and
    /// lands through the one landing (`CrawlSession::process`), which
    /// records only the links `LINK` does not hold yet.
    ///
    /// Requeued work is acknowledged work, exactly like seeds: the
    /// shard's idle flag is cleared before the rewrite (see
    /// `CrawlSession::upsert_routed`) and a durable session commits
    /// before returning.
    pub fn maintenance_pass(&self, top_k_hubs: usize) -> DbResult<usize> {
        let distill = match self.last_distill() {
            Some(d) => d,
            None => self.distill_now()?,
        };
        let hubs: Vec<Oid> = distill
            .top_hubs(top_k_hubs)
            .iter()
            .map(|&(o, _)| o)
            .collect();
        let mut g = self.store.write();
        self.shard.exchange.clear_idle(self.shard.shard);
        let requeued = frontier::requeue_done(&mut g.db, &hubs)?;
        Self::commit_if_durable(&mut g.db)?;
        Ok(requeued)
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

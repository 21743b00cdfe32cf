//! The traced *stage replay*: one thread driving a crawl through the same
//! public calls, in the same order, that `session.rs` makes for a page —
//! claim (gated by the health map) → fetch → classify → `mark_done` →
//! LINK `insert_many` → outlink `upsert_batch` → batched failures → per
//! batch a WAL commit (file-backed only) → every 500 successes a
//! distillation with its hub boosts — with a span around every call.
//!
//! It is the session's crawl without the session: no locks, no events,
//! no in-memory posterior cache. Given the same world it claims the same
//! pages as a 1-worker session, which the traced run checks, so what the
//! session spends per page beyond the replay's stages is what the spans
//! cannot yet attribute.

use crate::trace::{Recorder, SpanId, Stage, NO_PARENT};
use crate::world::World;
use focus_classifier::compiled::{EvalSummary, Scratch};
use focus_crawler::events::FetchErrorKind;
use focus_crawler::frontier::{self, Claim, FailureUpdate, FrontierEntry};
use focus_crawler::health::{Breaker, ClaimGate, FailureVerdict, HealthMap, ServerHealth};
use focus_crawler::policy::log_clamped;
use focus_crawler::session::CrawlConfig;
use focus_crawler::tables::{self, host_server_id};
use focus_distiller::memory::{edges_from_links, WeightedHits};
use focus_types::hash::FxHashMap;
use focus_types::{ClassId, Oid, ServerId};
use focus_webgraph::{FetchedPage, Fetcher, SimFetcher};
use minirel::{Database, DbResult, IoStats, Value};
use std::collections::VecDeque;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// Posteriors below this are not kept per page (`session.rs`'s floor).
const SAVED_PROB_FLOOR: f64 = 1e-4;

/// What the replay varies to mirror a workload.
pub struct ReplayPlan {
    /// The session configuration being mirrored; `max_fetches` is the
    /// replay's length.
    pub cfg: CrawlConfig,
    /// Claims kept checked out ahead of processing. `None` replays the
    /// inline worker (claim a batch, finish it, claim again); `Some(n)`
    /// replays the pooled pipeline with `n` fetches in flight, which is
    /// what saturates per-server politeness on `crawl-wan`.
    pub in_flight: Option<usize>,
    /// Data file of a file-backed replay (WAL beside it).
    pub file: Option<PathBuf>,
}

/// Counts taken at the same boundaries as the spans.
#[derive(Debug, Default, Clone)]
pub struct Counts {
    /// Buffer-pool traffic per stage, indexed by `Stage as usize`.
    pub io: [IoStats; Stage::COUNT],
    pub attempts: u64,
    pub successes: u64,
    pub failures: u64,
    pub harvest_sum: f64,
    pub upsert_offered: u64,
    pub upsert_changed: u64,
    /// Due rows the politeness predicate skipped during claim scans.
    pub claim_deferred: u64,
    pub terms: u64,
    pub link_rows: u64,
    pub commits: u64,
    /// `(edges, HITS iterations)` of every distillation.
    pub distills: Vec<(u64, u64)>,
}

/// A finished replay: its store (for the drives that follow), counts and
/// wall time.
pub struct Replayed {
    pub db: Database,
    pub counts: Counts,
    pub wall_s: f64,
}

struct Replay<'a, R: Recorder> {
    rec: &'a mut R,
    root: SpanId,
    cfg: &'a CrawlConfig,
    fetcher: SimFetcher,
    world: &'a World,
    db: Database,
    health: HealthMap,
    relevance: FxHashMap<Oid, f64>,
    links: Vec<(Oid, u32, Oid, u32)>,
    server_counts: FxHashMap<ServerId, i64>,
    scratch: Scratch,
    since_distill: usize,
    clock: u64,
    retry_budget: u64,
    started: Instant,
    counts: Counts,
}

impl<R: Recorder> Replay<'_, R> {
    /// Run `work` inside a span, charging it the pool traffic it caused.
    fn staged<T>(
        &mut self,
        stage: Stage,
        parent: SpanId,
        page: u64,
        work: impl FnOnce(&mut Self) -> T,
    ) -> T {
        let before = R::ON.then(|| self.db.io_stats());
        let id = self.rec.begin(stage, parent, page);
        let out = work(self);
        self.rec.end(id);
        if let Some(before) = before {
            let d = self.db.io_stats().since(&before);
            let io = &mut self.counts.io[stage as usize];
            io.logical_reads += d.logical_reads;
            io.physical_reads += d.physical_reads;
            io.physical_writes += d.physical_writes;
            io.evictions += d.evictions;
        }
        out
    }

    /// `session.rs::claim_admitted`: pop due rows whose server is under
    /// its politeness cap, gate each through the breaker, park what it
    /// refuses and pop again. Returns the claims and whether any parked
    /// or deferred row was seen.
    fn claim_admitted(&mut self, want: usize) -> DbResult<(Vec<Claim>, bool)> {
        let now = self.clock as i64;
        let mut admitted = Vec::with_capacity(want);
        let mut parks: Vec<(Oid, i64)> = Vec::new();
        let mut waiting = false;
        loop {
            let health = &self.health;
            let outcome =
                frontier::claim_batch_where(&mut self.db, want - admitted.len(), now, |c| {
                    !health.politeness_deferred(host_server_id(&c.url), now)
                })?;
            waiting |= outcome.parked + outcome.deferred > 0;
            self.counts.claim_deferred += outcome.deferred as u64;
            if outcome.claims.is_empty() {
                break;
            }
            let mut parked_this_round = false;
            for c in outcome.claims {
                match self.health.admit(host_server_id(&c.url), now) {
                    ClaimGate::Fetch | ClaimGate::Probe => admitted.push(c),
                    ClaimGate::Parked { until } => {
                        parks.push((c.oid, until.max(now + 1)));
                        parked_this_round = true;
                    }
                }
            }
            if admitted.len() >= want || !parked_this_round {
                break;
            }
            frontier::park_batch(&mut self.db, &parks)?;
            waiting = true;
            parks.clear();
        }
        if !parks.is_empty() {
            waiting = true;
            frontier::park_batch(&mut self.db, &parks)?;
        }
        Ok((admitted, waiting))
    }

    /// `session.rs::write_server_health`.
    fn write_server_health(&mut self, sid: ServerId) -> DbResult<()> {
        let health: Option<ServerHealth> = self.health.get(sid).copied();
        self.db.execute(&format!(
            "delete from server_health where sid = {}",
            sid.raw() as i64
        ))?;
        let Some(h) = health else { return Ok(()) };
        let (state, until) = match h.breaker {
            Breaker::Closed => ("closed", 0),
            Breaker::Open { until } => ("open", until),
            Breaker::Probing => ("probing", 0),
        };
        let tid = self.db.table_id("server_health")?;
        self.db.insert(
            tid,
            vec![
                Value::Int(sid.raw() as i64),
                Value::Str(state.to_owned()),
                Value::Int(h.consec_failures as i64),
                Value::Int(until),
                Value::Int(h.quarantines as i64),
            ],
        )
    }

    /// `session.rs::process_failures` for the failures accumulated since
    /// the last success or batch boundary.
    fn flush_failures(&mut self, pending: &mut Vec<(Claim, FetchErrorKind)>) -> DbResult<()> {
        if pending.is_empty() {
            return Ok(());
        }
        let now = self.clock as i64;
        let mut updates = Vec::with_capacity(pending.len());
        let mut quarantined = Vec::new();
        for (claim, kind) in pending.iter() {
            let sid = host_server_id(&claim.url);
            self.health.release(sid);
            let mut not_before = 0;
            if *kind == FetchErrorKind::Timeout {
                let verdict = self.health.record_failure(sid, now);
                not_before = verdict.not_before();
                if matches!(verdict, FailureVerdict::Quarantined { .. }) {
                    quarantined.push(sid);
                }
            }
            let mut retriable = *kind != FetchErrorKind::NotFound;
            if retriable && claim.numtries + 1 < self.cfg.max_tries {
                match self.retry_budget.checked_sub(1) {
                    Some(left) => self.retry_budget = left,
                    None => retriable = false,
                }
            }
            updates.push(FailureUpdate {
                oid: claim.oid,
                retriable,
                not_before,
            });
        }
        self.counts.failures += pending.len() as u64;
        pending.clear();
        let max_tries = self.cfg.max_tries;
        self.staged(Stage::MarkFailed, self.root, 0, |s| {
            frontier::mark_failed_batch(&mut s.db, &updates, max_tries)
        })?;
        for sid in quarantined {
            self.write_server_health(sid)?;
        }
        Ok(())
    }

    /// `session.rs::distill_locked`.
    fn distill(&mut self, parent: SpanId, page: u64) -> DbResult<()> {
        let edges = self.staged(Stage::DistillEdges, parent, page, |s| {
            edges_from_links(&s.links, &s.relevance)
        });
        let result = self.staged(Stage::DistillHits, parent, page, |s| {
            WeightedHits::new(&edges, &s.relevance, s.cfg.distill.clone()).run()
        });
        self.counts
            .distills
            .push((edges.len() as u64, self.cfg.distill.iterations as u64));
        self.staged(Stage::DistillPersist, parent, page, |s| {
            s.db.execute("delete from hubs")?;
            s.db.execute("delete from auth")?;
            let hubs_tid = s.db.table_id("hubs")?;
            for &(o, score) in result.top_hubs(200) {
                s.db.insert(
                    hubs_tid,
                    vec![Value::Int(o.raw() as i64), Value::Float(score)],
                )?;
            }
            let auth_tid = s.db.table_id("auth")?;
            for &(o, score) in result.top_auths(200) {
                s.db.insert(
                    auth_tid,
                    vec![Value::Int(o.raw() as i64), Value::Float(score)],
                )?;
            }
            if s.cfg.hub_boost_top_k == 0 {
                return Ok(());
            }
            let top: Vec<Oid> = result
                .top_hubs(s.cfg.hub_boost_top_k)
                .iter()
                .map(|&(o, _)| o)
                .collect();
            let boost = log_clamped(0.9);
            let targets: Vec<FrontierEntry> = s
                .links
                .iter()
                .filter(|(src, ss, dst, sd)| {
                    top.contains(src) && ss != sd && !s.relevance.contains_key(dst)
                })
                .map(|&(_, _, dst, _)| FrontierEntry {
                    oid: dst,
                    url: String::new(),
                    log_relevance: boost,
                    serverload: 0,
                })
                .collect();
            frontier::upsert_batch(&mut s.db, &targets).map(|_| ())
        })
    }

    /// `session.rs::process` for a fetched, classified page.
    fn process(
        &mut self,
        claim: &Claim,
        page: FetchedPage,
        summary: EvalSummary,
        span: SpanId,
        attempt: u64,
    ) -> DbResult<()> {
        let now = self.started.elapsed().as_secs() as i64;
        self.db.set_current_timestamp(now);
        self.health.release(host_server_id(&claim.url));
        let r = summary.relevance;
        self.staged(Stage::MarkDone, span, attempt, |s| {
            frontier::mark_done(
                &mut s.db,
                page.oid,
                &page.url,
                log_clamped(r),
                summary.best_leaf.raw() as i64,
                now,
            )
        })?;
        self.counts.successes += 1;
        self.counts.harvest_sum += r;
        self.relevance.insert(page.oid, r);
        let sid_src = host_server_id(&page.url);
        *self.server_counts.entry(sid_src).or_insert(0) += 1;
        if self.health.record_success(sid_src) {
            self.write_server_health(sid_src)?;
        }

        let expansion = self.cfg.policy.decide_eval(&summary);
        let mut link_rows = Vec::with_capacity(page.outlinks.len());
        let mut expansions = Vec::new();
        for (dst, dst_url) in &page.outlinks {
            let sid_dst = host_server_id(dst_url);
            self.links
                .push((page.oid, sid_src.raw(), *dst, sid_dst.raw()));
            link_rows.push(vec![
                Value::Int(page.oid.raw() as i64),
                Value::Int(sid_src.raw() as i64),
                Value::Int(dst.raw() as i64),
                Value::Int(sid_dst.raw() as i64),
                Value::Int(now),
            ]);
            if expansion.expand {
                expansions.push(FrontierEntry {
                    oid: *dst,
                    url: dst_url.clone(),
                    log_relevance: expansion.child_log_relevance,
                    serverload: self.server_counts.get(&sid_dst).copied().unwrap_or(0),
                });
            }
        }
        self.counts.link_rows += link_rows.len() as u64;
        self.staged(Stage::LinkInsert, span, attempt, |s| {
            let tid = s.db.table_id("link")?;
            s.db.insert_many(tid, link_rows)
        })?;
        let upsert = self.staged(Stage::Upsert, span, attempt, |s| {
            frontier::upsert_batch(&mut s.db, &expansions)
        })?;
        self.counts.upsert_offered += expansions.len() as u64;
        self.counts.upsert_changed += upsert.changed() as u64;

        self.since_distill += 1;
        if self
            .cfg
            .distill_every
            .is_some_and(|every| self.since_distill >= every)
        {
            self.since_distill = 0;
            self.distill(span, attempt)?;
        }
        Ok(())
    }

    /// Fetch, classify and land one claim (`process_batch`'s loop body /
    /// `process_completion`).
    fn page(
        &mut self,
        claim: &Claim,
        attempt: u64,
        pending: &mut Vec<(Claim, FetchErrorKind)>,
    ) -> DbResult<()> {
        let span = self.rec.begin(Stage::Page, self.root, attempt);
        let fetched = self.staged(Stage::Fetch, span, attempt, |s| {
            s.fetcher.fetch_with_ordinal(claim.oid, attempt - 1)
        });
        let result = match fetched {
            Err(e) => {
                pending.push((claim.clone(), FetchErrorKind::from(&e)));
                Ok(())
            }
            Ok(page) => {
                let summary = self.staged(Stage::Classify, span, attempt, |s| {
                    let summary = s.world.compiled.evaluate_into(&page.terms, &mut s.scratch);
                    // The session keeps these for §3.7 re-marking; the
                    // filter is part of what classifying a page costs.
                    let saved: Vec<(ClassId, f64)> = s
                        .scratch
                        .class_probs()
                        .iter()
                        .copied()
                        .filter(|&(_, p)| p > SAVED_PROB_FLOOR)
                        .collect();
                    std::hint::black_box(saved);
                    summary
                });
                self.counts.terms += page.terms.num_terms() as u64;
                self.flush_failures(pending)
                    .and_then(|()| self.process(claim, page, summary, span, attempt))
            }
        };
        self.rec.end(span);
        result
    }

    /// The batch boundary: land trailing failures, cut a commit point.
    fn batch_boundary(&mut self, pending: &mut Vec<(Claim, FetchErrorKind)>) -> DbResult<()> {
        self.flush_failures(pending)?;
        if self.db.wal().is_some() {
            self.counts.commits += 1;
            self.staged(Stage::Commit, self.root, 0, |s| s.db.commit())?;
        }
        Ok(())
    }

    fn run(&mut self, in_flight: Option<usize>) -> DbResult<()> {
        let budget = self.cfg.max_fetches;
        let batch = self.cfg.batch_size.max(1);
        let mut queue: VecDeque<(Claim, u64)> = VecDeque::new();
        let mut pending = Vec::new();
        let mut since_commit = 0;
        loop {
            let room = match in_flight {
                None if queue.is_empty() => batch,
                None => 0,
                Some(target) => target.saturating_sub(queue.len()).min(batch),
            };
            let want = room.min((budget - self.counts.attempts) as usize);
            if want > 0 {
                let first = self.counts.attempts + 1;
                let (claims, waiting) =
                    self.staged(Stage::Claim, self.root, first, |s| s.claim_admitted(want))?;
                if claims.is_empty() {
                    // An empty poll ticks the clock so parked rows come
                    // due; with nothing waiting, in flight or pending the
                    // frontier has stagnated.
                    self.clock += 1;
                    if queue.is_empty() {
                        // Trailing failures may requeue rows: land them
                        // and poll again before judging.
                        if !pending.is_empty() {
                            self.flush_failures(&mut pending)?;
                            continue;
                        }
                        if !waiting {
                            break;
                        }
                    }
                } else {
                    self.clock += claims.len() as u64;
                    self.counts.attempts += claims.len() as u64;
                    queue.extend(claims.into_iter().zip(first..));
                }
            }
            let Some((claim, attempt)) = queue.pop_front() else {
                if self.counts.attempts >= budget {
                    break;
                }
                continue;
            };
            self.page(&claim, attempt, &mut pending)?;
            since_commit += 1;
            let boundary = match in_flight {
                None => queue.is_empty(),
                Some(_) => since_commit >= batch,
            };
            if boundary {
                since_commit = 0;
                self.batch_boundary(&mut pending)?;
            }
        }
        self.batch_boundary(&mut pending)
    }
}

/// `CrawlSession::new`'s store: the crawl tables, the taxonomy dimension
/// and the HUBS/AUTH tables, committed at once when durable.
fn create_store(world: &World, cfg: &CrawlConfig, file: Option<&Path>) -> DbResult<Database> {
    let mut db = match file {
        Some(path) => Database::open_with(path, cfg.db_frames, minirel::DEFAULT_GROUP_COMMIT)?,
        None => Database::in_memory_with_frames(cfg.db_frames),
    };
    tables::create_tables(&mut db)?;
    tables::create_taxonomy_dim(&mut db, &world.model.taxonomy)?;
    db.execute("create table hubs (oid int, score float)")?;
    db.execute("create index hubs_oid on hubs (oid)")?;
    db.execute("create table auth (oid int, score float)")?;
    db.execute("create index auth_oid on auth (oid)")?;
    if db.wal().is_some() {
        db.commit()?;
    }
    Ok(db)
}

/// Replay `plan` over `world`, recording into `rec`.
pub fn replay<R: Recorder>(world: &World, plan: &ReplayPlan, rec: &mut R) -> DbResult<Replayed> {
    let cfg = &plan.cfg;
    let fetcher = SimFetcher::new(Arc::clone(&world.graph), None);
    let mut db = create_store(world, cfg, plan.file.as_deref())?;
    let seeds: Vec<FrontierEntry> = world
        .seeds
        .iter()
        .map(|&oid| FrontierEntry {
            oid,
            url: fetcher.url_of(oid).unwrap_or_default(),
            log_relevance: 0.0,
            serverload: 0,
        })
        .collect();
    frontier::upsert_batch(&mut db, &seeds)?;
    if db.wal().is_some() {
        db.commit()?;
    }
    db.reset_io_stats();

    let started = Instant::now();
    let root = rec.begin(Stage::Replay, NO_PARENT, 0);
    let mut state = Replay {
        rec,
        root,
        cfg,
        fetcher,
        world,
        db,
        health: HealthMap::new(cfg.backoff, cfg.breaker, cfg.politeness),
        relevance: FxHashMap::default(),
        links: Vec::new(),
        server_counts: FxHashMap::default(),
        scratch: Scratch::default(),
        since_distill: 0,
        clock: 0,
        retry_budget: cfg.retry_budget,
        started,
        counts: Counts::default(),
    };
    let result = state.run(plan.in_flight);
    state.rec.end(root);
    let wall_s = started.elapsed().as_secs_f64();
    result?;
    let total = state.db.io_stats();
    state.counts.io[Stage::Replay as usize] = total;
    Ok(Replayed {
        db: state.db,
        counts: state.counts,
        wall_s,
    })
}

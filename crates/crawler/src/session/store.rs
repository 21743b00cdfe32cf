//! The session store: [`StoreState`], the one way into it, and the
//! snapshots out of it (`checkpoint`, commits, replicas).
//!
//! The paper keeps every piece of crawl state in relational tables, so
//! a crawler is something that *reconnects* to them; memory is only a
//! cache (§3.1). Here that is one opener and one loader:
//!
//! * [`CrawlSession::build`] opens or creates the database for an
//!   [`Origin`] — `Fresh`, `Checkpoint(&ckpt)` or `File` — brings the
//!   origin's rows into its tables, calls the loader, and overlays only
//!   what tables do not hold. `new`, `restore`, `recover` and every
//!   cluster shard are this function with a different origin.
//! * [`StoreState::load`] is the only place in-memory state is derived
//!   from tables, so "restore ≡ recover" is one function, not something
//!   two test files hope for. Its derivation ([`derive`]) is also what
//!   [`CrawlSession::check_invariants`] holds live memory to: debug
//!   builds check it right after `build` loads, and at every `join`.
//!
//! What stays in memory beside the tables, and why (ROADMAP item 3's
//! audit): the link graph (PR 16: the distiller's input, snapshotted by
//! memcpy); `class_probs`, which mirrors **no** table — saved posteriors
//! exist nowhere else, a checkpoint carries them and a file does not;
//! and `server_counts`, a tally only the loader derives, because it is
//! read once per outlink at flush time, where a `count(*)` per link is
//! the "measurably too slow" case.

use super::*;

/// Bookkeeping of distillation passes, which run *outside* the store
/// lock (see [`CrawlSession::distill_pass`]).
#[derive(Default)]
pub(super) struct DistillGate {
    /// Successes landed since the latest snapshot was cut — what the
    /// periodic trigger counts against `distill_every`.
    pub(super) since: usize,
    /// Snapshots cut so far; a pass carries the number of its own.
    pub(super) cut: u64,
    /// Passes whose snapshot is cut and whose result has not come back.
    pub(super) running: usize,
    /// Number of the newest snapshot whose result has been published.
    pub(super) published: u64,
}

/// The relational store and its in-memory caches.
pub(super) struct StoreState {
    pub(super) db: Database,
    /// The link graph and the linear `R` of visited pages: what the
    /// distiller snapshots, what re-steering and hub boosts walk, and
    /// the answer to "has this page been fetched?".
    pub(super) graph: LinkGraph,
    /// Saved per-page posteriors (classes above the worker's floor),
    /// kept so a mid-crawl `mark_topic` can recompute relevance without
    /// refetching (§3.7).
    pub(super) class_probs: FxHashMap<Oid, Vec<(ClassId, f64)>>,
    pub(super) server_counts: FxHashMap<ServerId, i64>,
    /// Live link-expansion policy (starts at `cfg.policy`).
    pub(super) policy: CrawlPolicy,
    pub(super) distill: DistillGate,
    pub(super) last_distill: Option<DistillResult>,
    /// Per-server backoff/breaker state (see module docs: no new lock —
    /// claim gating and failure recording already hold the store write
    /// lock).
    pub(super) health: HealthMap,
}

/// Every `LINK` row in table (= discovery) order, as [`decode_link`] reads it.
const LINK_ROWS: &str = "select oid_src, sid_src, oid_dst, sid_dst, discovered from link";

/// Strictly decode one [`LINK_ROWS`] row.
fn decode_link(row: &[Value]) -> DbResult<(Oid, u32, Oid, u32, i64)> {
    Ok((
        Oid(frontier::col_i64(row, 0, "link.oid_src")? as u64),
        frontier::col_i64(row, 1, "link.sid_src")? as u32,
        Oid(frontier::col_i64(row, 2, "link.oid_dst")? as u64),
        frontier::col_i64(row, 3, "link.sid_dst")? as u32,
        frontier::col_i64(row, 4, "link.discovered")?,
    ))
}

/// Per-server health restarted over `db`: a fresh [`HealthMap`] and an
/// emptied `server_health`. The table mirrors the map's breakers, so the
/// one place that creates a map over a store also clears the mirror —
/// no monitor, here or on a replica, is shown a quarantine that no map
/// is enforcing.
fn fresh_health(
    db: &mut Database,
    backoff: BackoffConfig,
    breaker: BreakerConfig,
    politeness: PolitenessConfig,
) -> DbResult<HealthMap> {
    db.execute("delete from server_health")?;
    Ok(HealthMap::new(backoff, breaker, politeness))
}

/// Where the stored state a session is built over comes from.
pub(crate) enum Origin<'a> {
    /// Nowhere: fresh, empty tables.
    Fresh,
    /// A [`CrawlCheckpoint`]: fresh tables filled with its rows.
    Checkpoint(&'a CrawlCheckpoint),
    /// The [`Durability::File`] store an earlier session left behind.
    File,
}

/// Hand every `CLAIMED` row back to the frontier, poppable again: claims
/// no run will land — the store was reopened, or the worker holding
/// them panicked.
pub(super) fn demote_claims(db: &mut Database) -> DbResult<()> {
    let states = [Value::Int(visited::FRONTIER), Value::Int(visited::CLAIMED)];
    db.execute_with("update crawl set visited = ? where visited = ?", &states)?;
    Ok(())
}

/// What memory holds of the tables, derived from them: the link graph
/// and the per-server tallies. Linear relevance and the tallies come
/// from the rows a fetch has marked (`kcid ≥ 0`), the links from `LINK`
/// in table order. Those rows are every `DONE` one, and every hub a
/// maintenance pass requeued (or whose revisit then failed): its row
/// kept `kcid` and its own log R, so a store reopened before the revisit
/// lands still knows the page — the fact `CrawlSession::process` tells
/// a revisit by. [`StoreState::load`] starts from this, and
/// `CrawlSession::check_invariants` holds live memory to it.
pub(super) fn derive(db: &Database) -> DbResult<(LinkGraph, FxHashMap<ServerId, i64>)> {
    let mut graph = LinkGraph::new();
    let mut server_counts = FxHashMap::default();
    let fetched = "select oid, relevance, url from crawl where kcid >= 0";
    for row in &db.query(fetched)?.rows {
        let oid = Oid(frontier::col_i64(row, 0, "oid")? as u64);
        graph.set_relevance(oid, frontier::col_f64(row, 1, "relevance")?.exp());
        let url = frontier::col_str(row, 2, "url")?;
        if !url.is_empty() {
            *server_counts.entry(host_server_id(url)).or_insert(0) += 1;
        }
    }
    for row in &db.query(LINK_ROWS)?.rows {
        let (src, sid_src, dst, sid_dst, _) = decode_link(row)?;
        let src = graph.node_id(src, sid_src);
        graph.add_link(src, dst, sid_dst);
    }
    Ok((graph, server_counts))
}

impl StoreState {
    /// The one place in-memory state is derived from tables: `new` (over
    /// empty ones), `restore` (over a checkpoint's rows) and `recover`
    /// (over a reopened file) all come through here, so they cannot
    /// disagree. Also returns the latest `not_before` of a frontier row.
    ///
    /// * Claims in flight when the tables were last written never
    ///   landed: they are demoted back to the frontier, poppable again.
    /// * The link graph and the per-server tallies are [`derive`]d.
    /// * Server health starts over ([`fresh_health`]): breakers are
    ///   re-learned from live evidence, not trusted across a restart.
    fn load(mut db: Database, cfg: &CrawlConfig) -> DbResult<(StoreState, u64)> {
        demote_claims(&mut db)?;
        let (graph, server_counts) = derive(&db)?;
        let parked = "select max(not_before) from crawl where visited = ?";
        let latest_park = db.query_with(parked, &[Value::Int(visited::FRONTIER)])?;
        let health = fresh_health(&mut db, cfg.backoff, cfg.breaker, cfg.politeness)?;
        let store = StoreState {
            db,
            graph,
            class_probs: FxHashMap::default(),
            server_counts,
            policy: cfg.policy,
            distill: DistillGate::default(),
            last_distill: None,
            health,
        };
        Ok((store, latest_park.scalar_i64().unwrap_or(0).max(0) as u64))
    }
}

/// Replace `taxonomy`'s good marking with a checkpoint's, wholesale:
/// live `mark_topic` calls may have both added and *removed* good topics
/// since the caller's model was built, so clear first.
fn adopt_marking(taxonomy: &mut focus_types::Taxonomy, good_topics: &[String]) -> DbResult<()> {
    let restore = |e| DbError::Eval(format!("restore: {e}"));
    for c in taxonomy.good_set() {
        taxonomy.unmark_good(c).map_err(restore)?;
    }
    for name in good_topics {
        let c = taxonomy.find(name).ok_or_else(|| {
            DbError::Eval(format!("restore: checkpoint marks unknown topic {name:?}"))
        })?;
        taxonomy.mark_good(c).map_err(restore)?;
    }
    Ok(())
}

impl CrawlSession {
    /// Build a session: creates the `CRAWL`/`LINK`/`HUBS`/`AUTH`/`TAXONOMY`
    /// tables in a fresh database.
    pub fn new(
        fetcher: Arc<dyn Fetcher>,
        model: TrainedModel,
        cfg: CrawlConfig,
    ) -> DbResult<CrawlSession> {
        Self::build(fetcher, model, cfg, Origin::Fresh, None)
    }

    /// Rebuild a session from a [`CrawlCheckpoint`], so a crawl can be
    /// resumed in a fresh process with its frontier, relevance state,
    /// link graph, stats, remaining budget, and good marking intact.
    pub fn restore(
        fetcher: Arc<dyn Fetcher>,
        model: TrainedModel,
        cfg: CrawlConfig,
        ckpt: &CrawlCheckpoint,
    ) -> DbResult<CrawlSession> {
        Self::build(fetcher, model, cfg, Origin::Checkpoint(ckpt), None)
    }

    /// Reopen a crashed (or cleanly stopped) file-backed session from
    /// its data file and WAL: the log is replayed to the last committed
    /// batch and the session is loaded from the recovered tables exactly
    /// as [`CrawlSession::restore`] loads a checkpoint's.
    ///
    /// Requires `cfg.durability = Durability::File` pointing at the
    /// files the crashed session used. What no table holds is not
    /// recovered: saved per-page posteriors (a re-mark after recovery
    /// falls back to refetching), the fetch and retry budgets (they
    /// restart at `cfg`'s) and the tick clock — it restarts at the
    /// *latest* park expiry, so every surviving parked row is due at
    /// once and breakers re-quarantine servers that are still sick,
    /// rather than honoring cooldowns against a clock that is gone.
    pub fn recover(
        fetcher: Arc<dyn Fetcher>,
        model: TrainedModel,
        cfg: CrawlConfig,
    ) -> DbResult<CrawlSession> {
        Self::build(fetcher, model, cfg, Origin::File, None)
    }

    /// The one way into a session, alone or (`shard`) as one shard of a
    /// [`crate::cluster`]: open or create the database, bring `origin`'s
    /// rows into its tables, [`StoreState::load`] them, and overlay only
    /// what tables do not hold.
    pub(crate) fn build(
        fetcher: Arc<dyn Fetcher>,
        mut model: TrainedModel,
        cfg: CrawlConfig,
        origin: Origin<'_>,
        shard: Option<ShardCtx>,
    ) -> DbResult<CrawlSession> {
        let stored = matches!(origin, Origin::File);
        let mut db = match &cfg.durability {
            Durability::File { path, group_commit } => {
                let db = Database::open_with(path, cfg.db_frames, *group_commit)?;
                if !stored && db.table_id("crawl").is_ok() {
                    // Re-creating tables over a stored crawl would
                    // corrupt it.
                    return Err(DbError::Eval(format!(
                        "database at {} already holds a crawl — resume it with \
                         CrawlSession::recover",
                        path.display()
                    )));
                }
                db
            }
            _ if stored => {
                return Err(DbError::Eval(
                    "CrawlSession::recover requires CrawlConfig.durability = Durability::File"
                        .into(),
                ));
            }
            Durability::Wal { group_commit } => {
                Database::in_memory_durable(cfg.db_frames, *group_commit)
            }
            Durability::None => Database::in_memory_with_frames(cfg.db_frames),
        };
        if stored {
            // A recovered file must actually hold a crawl. Its `TAXONOMY`
            // follows the model it is recovered under.
            db.table_id("crawl")?;
            tables::fill_taxonomy_dim(&mut db, &model.taxonomy)?;
        } else {
            if let Origin::Checkpoint(ckpt) = origin {
                // Before the tables and the one compile, so both already
                // reflect the restored marking.
                adopt_marking(&mut model.taxonomy, &ckpt.good_topics)?;
            }
            tables::create_tables(&mut db)?;
            tables::create_taxonomy_dim(&mut db, &model.taxonomy)?;
            db.execute("create table hubs (oid int, score float)")?;
            db.execute("create index hubs_oid on hubs (oid)")?;
            db.execute("create table auth (oid int, score float)")?;
            db.execute("create index auth_oid on auth (oid)")?;
        }
        if let Origin::Checkpoint(ckpt) = origin {
            let pages = ckpt.pages.iter().map(|p| {
                let mut r = tables::frontier_row(p.oid, &p.url, p.log_relevance, p.serverload);
                r[crawl_col::KCID] = Value::Int(p.kcid);
                r[crawl_col::NUMTRIES] = Value::Int(p.numtries);
                r[crawl_col::LASTVISITED] = Value::Int(p.lastvisited);
                r[crawl_col::VISITED] = Value::Int(p.state);
                r[crawl_col::NOT_BEFORE] = Value::Int(p.not_before);
                if p.kcid >= 0 && p.state != visited::DONE {
                    // A requeued revisit: `relevance` is the page's own
                    // log R, the priority is the top one.
                    r[crawl_col::NEGREL] = Value::Float(frontier::TOP_NEGREL);
                }
                r
            });
            db.insert_many(db.table_id("crawl")?, pages.collect())?;
            let links = ckpt
                .links
                .iter()
                .map(|&(src, sid_src, dst, sid_dst, discovered)| {
                    tables::link_row(src, sid_src, dst, sid_dst, discovered)
                });
            db.insert_many(db.table_id("link")?, links.collect())?;
        }
        let (mut store, latest_park) = StoreState::load(db, &cfg)?;
        // From here on the store holds a crawl that can be resumed (and
        // `new` on the same path will refuse to re-initialize it). What
        // recovery itself changed — the demotions — is synced before the
        // session is handed out: a crash right after must not resurrect
        // `CLAIMED` rows.
        if stored {
            store.db.commit_durable()?;
        } else {
            Self::commit_if_durable(&mut store.db)?;
        }
        let session = Self::assemble(fetcher, model, cfg, store, latest_park, shard);
        if let Origin::Checkpoint(ckpt) = origin {
            session.overlay(ckpt);
        }
        debug_check(|| session.check_invariants());
        Ok(session)
    }

    /// What a checkpoint carries that tables do not hold: the exact
    /// linear relevance (`CRAWL` stores its log), saved posteriors, the
    /// live policy, the counters, and the tick clock — resumed where the
    /// checkpoint cut it, so parked rows (backoffs, quarantines) keep
    /// their remaining cooldowns instead of re-serving them from zero or
    /// being sprung early.
    fn overlay(&self, ckpt: &CrawlCheckpoint) {
        let mut g = self.store.write();
        for &(oid, r) in &ckpt.relevance {
            g.graph.set_relevance(oid, r);
        }
        g.class_probs = ckpt.class_probs.iter().cloned().collect();
        g.policy = ckpt.policy;
        drop(g);
        let (stats, counters) = (&ckpt.stats, &self.counters);
        *counters.tallies.lock() = stats.clone();
        counters.attempts.store(stats.attempts, Ordering::Release);
        let budget = stats.attempts + ckpt.budget_remaining;
        counters.budget.store(budget, Ordering::Release);
        counters.clock.store(ckpt.clock, Ordering::Release);
    }

    /// The one place a [`CrawlSession`] value is put together: fresh
    /// counters against `cfg`'s budgets, the tick clock at `clock`, and
    /// the classifier compiled from `model`'s current marking.
    fn assemble(
        fetcher: Arc<dyn Fetcher>,
        model: TrainedModel,
        cfg: CrawlConfig,
        store: StoreState,
        clock: u64,
        shard: Option<ShardCtx>,
    ) -> CrawlSession {
        let compiled = Arc::new(CompiledModel::compile(&model));
        CrawlSession {
            fetcher,
            model: OrderedRwLock::new(rank::MODEL, model),
            compiled: OrderedRwLock::new(rank::COMPILED, compiled),
            store: OrderedRwLock::new(rank::STORE, store),
            counters: CounterState {
                attempts: AtomicU64::new(0),
                budget: AtomicU64::new(cfg.max_fetches),
                in_flight: AtomicUsize::new(0),
                clock: AtomicU64::new(clock),
                retry_budget: AtomicU64::new(cfg.retry_budget),
                tallies: OrderedMutex::new(rank::TALLIES, CrawlStats::default()),
            },
            cfg,
            diag: OrderedMutex::new(rank::DIAG, RunDiag::default()),
            control: ControlState::new(),
            start: Instant::now(),
            shard,
        }
    }

    /// Spawn a WAL-shipping read replica of the session store: a
    /// read-only [`minirel::Replica`] that tails this session's log on
    /// its own thread and serves the whole monitor suite
    /// ([`crate::monitor`], via [`minirel::Replica::with_db`]) without
    /// ever touching the store lock again — monitors pointed at a
    /// replica contend with the crawl exactly once, here at spawn.
    /// Requires a durable session ([`Durability::Wal`] or
    /// [`Durability::File`]); the replica lags the leader by at most
    /// one batch commit ([`minirel::Replica::applied_lsn`] /
    /// [`minirel::Replica::wait_for_lsn`] expose the staleness).
    pub fn replica(&self) -> DbResult<minirel::Replica> {
        let mut g = self.store.write();
        minirel::Replica::spawn(&mut g.db)
    }

    /// Commit the store's dirty pages to the WAL (group-commit cadence)
    /// when this session is durable; a no-op otherwise. Callers hold
    /// the store write lock.
    pub(super) fn commit_if_durable(db: &mut Database) -> DbResult<()> {
        if db.wal().is_some() {
            db.commit()?;
        }
        Ok(())
    }

    /// Final wind-down commit: everything the run wrote becomes durable
    /// (fsynced past group-commit batching) before `join()` returns.
    /// No-op for non-durable sessions; a failure surfaces through
    /// [`CrawlSession::run_outcome`] like any storage error.
    pub(crate) fn final_durable_commit(&self) {
        let mut g = self.store.write();
        if g.db.wal().is_none() {
            return;
        }
        if let Err(e) = g.db.commit_durable() {
            drop(g);
            self.record_error(e);
        }
    }

    /// Capture everything needed to resume this crawl in a fresh session:
    /// the full `CRAWL` table (in-flight claims demoted back to the
    /// frontier), the link graph with discovery timestamps, relevance
    /// state, saved posteriors, stats, remaining budget, live policy, and
    /// the good marking.
    pub fn checkpoint(&self) -> DbResult<CrawlCheckpoint> {
        // Read lock: a checkpoint is SELECTs + cache clones, so it runs
        // concurrently with monitors and only briefly excludes writers.
        let g = self.store.read();
        let rs = g.db.query(
            "select oid, url, kcid, numtries, relevance, serverload, lastvisited, \
             visited, not_before from crawl",
        )?;
        // Strict decodes throughout: a torn row surfaces as
        // `DbError::Corrupt` instead of silently resurrecting an
        // `Oid(0)`/empty-URL page into the restored session (the same
        // treatment `frontier.rs` gives claims).
        let pages = rs
            .rows
            .iter()
            .map(|row| {
                let state = match frontier::col_i64(row, 7, "visited")? {
                    // A claim in flight at checkpoint time will not land
                    // in the restored session: re-fetch it.
                    visited::CLAIMED => visited::FRONTIER,
                    s => s,
                };
                Ok(CheckpointPage {
                    oid: Oid(frontier::col_i64(row, 0, "oid")? as u64),
                    url: frontier::col_str(row, 1, "url")?.to_owned(),
                    kcid: frontier::col_i64(row, 2, "kcid")?,
                    numtries: frontier::col_i64(row, 3, "numtries")?,
                    log_relevance: frontier::col_f64(row, 4, "relevance")?,
                    serverload: frontier::col_i64(row, 5, "serverload")?,
                    lastvisited: frontier::col_i64(row, 6, "lastvisited")?,
                    state,
                    not_before: frontier::col_i64(row, 8, "not_before")?,
                })
            })
            .collect::<DbResult<Vec<CheckpointPage>>>()?;
        let link_rs = g.db.query(LINK_ROWS)?;
        let links = link_rs
            .rows
            .iter()
            .map(|row| decode_link(row))
            .collect::<DbResult<Vec<_>>>()?;
        let stats = self.stats();
        let budget_remaining = self
            .counters
            .budget
            .load(Ordering::Acquire)
            .saturating_sub(stats.attempts);
        let relevance: Vec<(Oid, f64)> = g.graph.visited().collect();
        let class_probs: Vec<(Oid, Vec<(ClassId, f64)>)> =
            g.class_probs.iter().map(|(&o, v)| (o, v.clone())).collect();
        let policy = g.policy;
        drop(g);
        let good_topics = {
            let model = self.model.read();
            model
                .taxonomy
                .good_set()
                .into_iter()
                .map(|c| model.taxonomy.name(c).to_owned())
                .collect()
        };
        Ok(CrawlCheckpoint {
            pages,
            links,
            relevance,
            class_probs,
            stats,
            budget_remaining,
            policy,
            good_topics,
            clock: self.counters.clock.load(Ordering::Acquire),
        })
    }
}

/// One `CRAWL` row captured by [`CrawlSession::checkpoint`].
#[derive(Debug, Clone)]
pub struct CheckpointPage {
    /// Page identity.
    pub oid: Oid,
    /// URL text (may be empty for seeds discovered without one).
    pub url: String,
    /// Best-leaf class (−1 before fetch).
    pub kcid: i64,
    /// Fetch attempts so far.
    pub numtries: i64,
    /// Stored log R.
    pub log_relevance: f64,
    /// Server-load column at insert time.
    pub serverload: i64,
    /// Seconds-since-start of the last visit.
    pub lastvisited: i64,
    /// Lifecycle state ([`crate::tables::visited`] constants).
    pub state: i64,
    /// Earliest tick the row may be claimed again (backoff/quarantine
    /// parking; 0 = immediately poppable).
    pub not_before: i64,
}

/// Frontier + relevance state of a crawl, sufficient to resume the run in
/// a fresh session ([`CrawlSession::restore`]) — the paper's long-lived
/// crawls survive administrative restarts this way.
#[derive(Debug, Clone)]
pub struct CrawlCheckpoint {
    /// Every `CRAWL` row (frontier, visited, dead; claims demoted).
    pub pages: Vec<CheckpointPage>,
    /// Every `LINK` row `(src, sid_src, dst, sid_dst, discovered)`.
    pub links: Vec<(Oid, u32, Oid, u32, i64)>,
    /// Linear relevance of visited pages.
    pub relevance: Vec<(Oid, f64)>,
    /// Saved per-page posteriors (for post-resume re-marking).
    pub class_probs: Vec<(Oid, Vec<(ClassId, f64)>)>,
    /// Counters and harvest series at checkpoint time.
    pub stats: CrawlStats,
    /// Fetch attempts left in the budget.
    pub budget_remaining: u64,
    /// Live link-expansion policy.
    pub policy: CrawlPolicy,
    /// Names of the good topics at checkpoint time.
    pub good_topics: Vec<String>,
    /// The tick clock at checkpoint time — restored verbatim so parked
    /// rows serve out exactly their remaining cooldowns.
    pub clock: u64,
}

impl CrawlCheckpoint {
    /// Frontier entries captured (poppable work after restore).
    pub fn frontier_len(&self) -> usize {
        self.pages
            .iter()
            .filter(|p| p.state == visited::FRONTIER)
            .count()
    }

    /// Visited pages captured.
    pub fn visited_len(&self) -> usize {
        self.pages
            .iter()
            .filter(|p| p.state == visited::DONE)
            .count()
    }
}

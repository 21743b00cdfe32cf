//! The session store: [`StoreState`] and everything that builds,
//! rebuilds, or snapshots it — `new`, `restore`, `recover`, commits,
//! and `checkpoint`.

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

/// Every `LINK` row in table (= discovery) order, as [`link_row`] reads it.
const LINK_ROWS: &str = "select oid_src, sid_src, oid_dst, sid_dst, discovered from link";

/// Strictly decode one [`LINK_ROWS`] row.
fn link_row(row: &[Value]) -> DbResult<(Oid, u32, Oid, u32, i64)> {
    Ok((
        Oid(frontier::col_i64(row, 0, "link.oid_src")? as u64),
        frontier::col_i64(row, 1, "link.sid_src")? as u32,
        Oid(frontier::col_i64(row, 2, "link.oid_dst")? as u64),
        frontier::col_i64(row, 3, "link.sid_dst")? as u32,
        frontier::col_i64(row, 4, "link.discovered")?,
    ))
}

impl StoreState {
    /// An empty-cached store over `db`, under `cfg`'s policies.
    fn new(db: Database, cfg: &CrawlConfig) -> StoreState {
        StoreState {
            db,
            graph: LinkGraph::new(),
            class_probs: FxHashMap::default(),
            server_counts: FxHashMap::default(),
            policy: cfg.policy,
            distill: DistillGate::default(),
            last_distill: None,
            health: HealthMap::new(cfg.backoff, cfg.breaker, cfg.politeness),
        }
    }
}

impl CrawlSession {
    /// Build a session: creates the `CRAWL`/`LINK`/`HUBS`/`AUTH`/`TAXONOMY`
    /// tables in a fresh database.
    pub fn new(
        fetcher: Arc<dyn Fetcher>,
        model: TrainedModel,
        cfg: CrawlConfig,
    ) -> DbResult<CrawlSession> {
        Self::new_inner(fetcher, model, cfg, None)
    }

    /// [`CrawlSession::new`] as one shard of a cluster (see
    /// [`crate::cluster`]): same session, plus the routing context.
    pub(crate) fn new_sharded(
        fetcher: Arc<dyn Fetcher>,
        model: TrainedModel,
        cfg: CrawlConfig,
        shard: ShardCtx,
    ) -> DbResult<CrawlSession> {
        Self::new_inner(fetcher, model, cfg, Some(shard))
    }

    fn new_inner(
        fetcher: Arc<dyn Fetcher>,
        model: TrainedModel,
        cfg: CrawlConfig,
        shard: Option<ShardCtx>,
    ) -> DbResult<CrawlSession> {
        let mut db = match &cfg.durability {
            Durability::None => Database::in_memory_with_frames(cfg.db_frames),
            Durability::Wal { group_commit } => {
                Database::in_memory_durable(cfg.db_frames, *group_commit)
            }
            Durability::File { path, group_commit } => {
                let db = Database::open_with(path, cfg.db_frames, *group_commit)?;
                if db.table_id("crawl").is_ok() {
                    // `new` builds fresh sessions; silently re-creating
                    // tables over a recovered crawl would corrupt it.
                    return Err(DbError::Eval(format!(
                        "database at {} already holds a crawl — resume it with \
                         CrawlSession::recover",
                        path.display()
                    )));
                }
                db
            }
        };
        tables::create_tables(&mut db)?;
        tables::create_taxonomy_dim(&mut db, &model.taxonomy)?;
        db.execute("create table hubs (oid int, score float)")?;
        db.execute("create index hubs_oid on hubs (oid)")?;
        db.execute("create table auth (oid int, score float)")?;
        db.execute("create index auth_oid on auth (oid)")?;
        // A durable session commits its schema immediately: from here
        // on the file holds a recoverable crawl (and `new` on the same
        // path will refuse to re-initialize it).
        Self::commit_if_durable(&mut db)?;
        let store = StoreState::new(db, &cfg);
        Ok(Self::assemble(fetcher, model, cfg, store, 0, shard))
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

    /// Rebuild a session from a [`CrawlCheckpoint`], so a crawl can be
    /// resumed in a fresh process with its frontier, relevance state,
    /// link graph, stats, remaining budget, and good marking intact.
    pub fn restore(
        fetcher: Arc<dyn Fetcher>,
        model: TrainedModel,
        cfg: CrawlConfig,
        ckpt: &CrawlCheckpoint,
    ) -> DbResult<CrawlSession> {
        Self::restore_inner(fetcher, model, cfg, ckpt, None)
    }

    /// [`CrawlSession::restore`] as one shard of a cluster.
    pub(crate) fn restore_sharded(
        fetcher: Arc<dyn Fetcher>,
        model: TrainedModel,
        cfg: CrawlConfig,
        ckpt: &CrawlCheckpoint,
        shard: ShardCtx,
    ) -> DbResult<CrawlSession> {
        Self::restore_inner(fetcher, model, cfg, ckpt, Some(shard))
    }

    fn restore_inner(
        fetcher: Arc<dyn Fetcher>,
        mut model: TrainedModel,
        cfg: CrawlConfig,
        ckpt: &CrawlCheckpoint,
        shard: Option<ShardCtx>,
    ) -> DbResult<CrawlSession> {
        // The checkpoint's marking replaces the caller's wholesale:
        // live `mark_topic` calls may have both added and *removed*
        // good topics since the model was built, so clear first. Doing
        // this *before* construction means the one construction-time
        // compile — and the `TAXONOMY` dim table — already reflect the
        // restored marking.
        for c in model.taxonomy.good_set() {
            model
                .taxonomy
                .unmark_good(c)
                .map_err(|e| minirel::DbError::Eval(format!("restore: {e}")))?;
        }
        for name in &ckpt.good_topics {
            let c = model.taxonomy.find(name).ok_or_else(|| {
                minirel::DbError::Eval(format!("restore: checkpoint marks unknown topic {name:?}"))
            })?;
            model
                .taxonomy
                .mark_good(c)
                .map_err(|e| minirel::DbError::Eval(format!("restore: {e}")))?;
        }
        let session = CrawlSession::new_inner(fetcher, model, cfg, shard)?;
        let mut g = session.store.write();
        let crawl_tid = g.db.table_id("crawl")?;
        let mut crawl_rows = Vec::with_capacity(ckpt.pages.len());
        for row in &ckpt.pages {
            let mut r = tables::frontier_row(row.oid, &row.url, row.log_relevance, row.serverload);
            r[crawl_col::KCID] = Value::Int(row.kcid);
            r[crawl_col::NUMTRIES] = Value::Int(row.numtries);
            r[crawl_col::LASTVISITED] = Value::Int(row.lastvisited);
            r[crawl_col::VISITED] = Value::Int(row.state);
            r[crawl_col::NOT_BEFORE] = Value::Int(row.not_before);
            crawl_rows.push(r);
            if row.state == visited::DONE && !row.url.is_empty() {
                *g.server_counts.entry(host_server_id(&row.url)).or_insert(0) += 1;
            }
        }
        g.db.insert_many(crawl_tid, crawl_rows)?;
        let link_tid = g.db.table_id("link")?;
        let mut link_rows = Vec::with_capacity(ckpt.links.len());
        for &(src, sid_src, dst, sid_dst, discovered) in &ckpt.links {
            let src_id = g.graph.node_id(src, sid_src);
            g.graph.add_link(src_id, dst, sid_dst);
            link_rows.push(vec![
                Value::Int(src.raw() as i64),
                Value::Int(sid_src as i64),
                Value::Int(dst.raw() as i64),
                Value::Int(sid_dst as i64),
                Value::Int(discovered),
            ]);
        }
        g.db.insert_many(link_tid, link_rows)?;
        for &(oid, r) in &ckpt.relevance {
            g.graph.set_relevance(oid, r);
        }
        g.class_probs = ckpt
            .class_probs
            .iter()
            .map(|(o, v)| (*o, v.clone()))
            .collect();
        g.policy = ckpt.policy;
        drop(g);
        *session.counters.tallies.lock() = ckpt.stats.clone();
        session
            .counters
            .attempts
            .store(ckpt.stats.attempts, Ordering::Release);
        session.counters.budget.store(
            ckpt.stats.attempts + ckpt.budget_remaining,
            Ordering::Release,
        );
        // Resume the tick clock where the checkpoint cut it, so parked
        // rows (backoffs, quarantines) keep their remaining cooldowns
        // instead of re-serving them from zero — or being sprung early.
        session.counters.clock.store(ckpt.clock, Ordering::Release);
        Ok(session)
    }

    /// Reopen a crashed (or cleanly stopped) file-backed session from
    /// its data file and WAL: the log is replayed to the last committed
    /// batch, claims that were in flight at crash time are demoted back
    /// to the frontier (they never landed, so they must be poppable
    /// again — the same rule the checkpoint path applies), and the
    /// in-memory caches are rebuilt from the recovered tables.
    ///
    /// Requires `cfg.durability = Durability::File` pointing at the
    /// files the crashed session used. Saved per-page posteriors (the
    /// §3.7 re-marking cache) live only in memory and are not recovered;
    /// a re-mark after recovery falls back to refetching. The fetch
    /// budget restarts at `cfg.max_fetches`, and so do the retry budget
    /// and every circuit breaker — server health is re-learned from
    /// live evidence, not trusted across a crash.
    pub fn recover(
        fetcher: Arc<dyn Fetcher>,
        model: TrainedModel,
        cfg: CrawlConfig,
    ) -> DbResult<CrawlSession> {
        let Durability::File { path, group_commit } = &cfg.durability else {
            return Err(DbError::Eval(
                "CrawlSession::recover requires CrawlConfig.durability = Durability::File".into(),
            ));
        };
        let mut db = Database::open_with(path, cfg.db_frames, *group_commit)?;
        // A recovered file must actually hold a crawl.
        db.table_id("crawl")?;
        db.execute_with(
            "update crawl set visited = ? where visited = ?",
            &[Value::Int(visited::FRONTIER), Value::Int(visited::CLAIMED)],
        )?;
        // Rebuild the caches the tables back: linear relevance and
        // server tallies from visited rows, the link graph from `LINK`.
        let mut store = StoreState::new(db, &cfg);
        let rs = store.db.query(&format!(
            "select oid, relevance, url from crawl where visited = {}",
            visited::DONE
        ))?;
        for row in &rs.rows {
            let oid = Oid(frontier::col_i64(row, 0, "oid")? as u64);
            let r = frontier::col_f64(row, 1, "relevance")?.exp();
            store.graph.set_relevance(oid, r);
            let url = frontier::col_str(row, 2, "url")?;
            if !url.is_empty() {
                *store.server_counts.entry(host_server_id(url)).or_insert(0) += 1;
            }
        }
        for row in &store.db.query(LINK_ROWS)?.rows {
            let (src, sid_src, dst, sid_dst, _) = link_row(row)?;
            let src = store.graph.node_id(src, sid_src);
            store.graph.add_link(src, dst, sid_dst);
        }
        // The tick clock did not survive the crash, but parked rows
        // (`not_before`) did. Restart the clock at the *latest* park
        // expiry so every surviving row is immediately due: breakers
        // restart closed and re-quarantine servers that are still sick,
        // rather than honoring stale cooldowns against a clock that no
        // longer means anything.
        let mut clock = 0i64;
        let parked_rs = store.db.query(&format!(
            "select not_before from crawl where visited = {}",
            visited::FRONTIER
        ))?;
        for row in &parked_rs.rows {
            clock = clock.max(frontier::col_i64(row, 0, "not_before")?);
        }
        // Make the demotion itself durable before handing the session
        // out: a crash right after recovery must not resurrect CLAIMED
        // rows.
        store.db.commit_durable()?;
        Ok(Self::assemble(
            fetcher,
            model,
            cfg,
            store,
            clock.max(0) as u64,
            None,
        ))
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
            .map(|row| link_row(row))
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

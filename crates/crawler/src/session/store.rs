//! The session store: [`StoreState`], the one way into it, and the
//! copies out of it (`checkpoint`, commits, replicas).
//!
//! The paper keeps every piece of crawl state in relational tables, so
//! a crawler is something that *reconnects* to them; memory is only a
//! cache (§3.1). Here that is one opener and one loader:
//!
//! * [`CrawlSession::build`] opens or creates the database for an
//!   [`Origin`] — `Fresh`, `Checkpoint(&ckpt)` or `File` — calls the
//!   loader, and overlays only what tables do not hold. A fresh store
//!   gets empty tables. A checkpoint holds a copy of a store's pages
//!   ([`minirel::Snapshot`]); an empty database adopts it and from there
//!   on it loads exactly as a reopened file does. `new`, `restore`,
//!   `recover` and every cluster shard are this function with a
//!   different origin.
//! * [`StoreState::load`] is the only place in-memory state is derived
//!   from tables, so "restore ≡ recover" is one function over one kind
//!   of store, not something two test files hope for. Its derivation
//!   ([`derive`]) is also what [`CrawlSession::check_invariants`] holds
//!   live memory to: debug builds check it right after `build` loads,
//!   and at every `join`.
//!
//! What stays in memory beside the tables, and why (ROADMAP item 3's
//! audit): the link graph (the distiller's input, snapshotted by
//! memcpy); `class_probs`, which mirrors **no** table — saved posteriors
//! exist nowhere else, so a checkpoint carries them beside its copy of
//! the store and a file does not; and `server_counts`, a tally only the
//! loader derives, because it is read once per outlink at flush time,
//! where a `count(*)` per link is the "measurably too slow" case.

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

/// Per-server health restarted over `db`: a fresh [`HealthMap`] and an
/// emptied `server_health`. The table mirrors the map's breakers, so the
/// one place that creates a map over a store also clears the mirror —
/// no monitor, here or on a replica, is shown a quarantine that no map
/// is enforcing.
fn fresh_health(db: &mut Database, cfg: &CrawlConfig) -> DbResult<HealthMap> {
    db.execute("delete from server_health")?;
    Ok(HealthMap::new(cfg.backoff, cfg.breaker, cfg.politeness))
}

/// Where the stored state a session is built over comes from.
pub(crate) enum Origin<'a> {
    /// Nowhere: fresh, empty tables.
    Fresh,
    /// A [`CrawlCheckpoint`]: an empty database adopts its copy of the
    /// store, then loads like a file.
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
    let links = "select oid_src, sid_src, oid_dst, sid_dst from link";
    for row in &db.query(links)?.rows {
        let col = |i, what| frontier::col_i64(row, i, what);
        let (src, dst) = (col(0, "link.oid_src")?, col(2, "link.oid_dst")?);
        let src = graph.node_id(Oid(src as u64), col(1, "link.sid_src")? as u32);
        graph.add_link(src, Oid(dst as u64), col(3, "link.sid_dst")? as u32);
    }
    Ok((graph, server_counts))
}

impl StoreState {
    /// The one place in-memory state is derived from tables: `new` (over
    /// empty ones), `restore` (over an adopted copy of a store) and
    /// `recover` (over a reopened file) all come through here, so they
    /// cannot disagree. Also returns the latest `not_before` of a frontier row.
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
        let health = fresh_health(&mut db, cfg)?;
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
        Self::build(fetcher, model, cfg, Origin::Fresh, ShardCtx::alone())
    }

    /// Rebuild a session from a [`CrawlCheckpoint`], so a crawl can be
    /// resumed in a fresh process with every table, its relevance state,
    /// stats, remaining budget, and good marking intact. The database
    /// `cfg.durability` names adopts the checkpoint's copy of the store,
    /// which then loads as [`CrawlSession::recover`] loads a file: claims
    /// in flight at the checkpoint go back to the frontier.
    pub fn restore(
        fetcher: Arc<dyn Fetcher>,
        model: TrainedModel,
        cfg: CrawlConfig,
        ckpt: &CrawlCheckpoint,
    ) -> DbResult<CrawlSession> {
        Self::build(
            fetcher,
            model,
            cfg,
            Origin::Checkpoint(ckpt),
            ShardCtx::alone(),
        )
    }

    /// Reopen a crashed (or cleanly stopped) file-backed session from
    /// its data file and WAL: the log is replayed to the last committed
    /// batch and the session is loaded from the recovered tables exactly
    /// as [`CrawlSession::restore`] loads a checkpoint's copy.
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
        Self::build(fetcher, model, cfg, Origin::File, ShardCtx::alone())
    }

    /// The one way into a session, as `shard` of its exchange — shard 0
    /// of its own ([`ShardCtx::alone`]) or one shard of a
    /// [`crate::cluster`]: open or create the database, give it
    /// `origin`'s tables (fresh ones, a checkpoint's copy, or the file's
    /// own), [`StoreState::load`] them, and overlay only what tables do
    /// not hold.
    pub(crate) fn build(
        fetcher: Arc<dyn Fetcher>,
        mut model: TrainedModel,
        cfg: CrawlConfig,
        origin: Origin<'_>,
        shard: ShardCtx,
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
        match origin {
            Origin::Fresh => {
                tables::create_tables(&mut db)?;
                tables::create_taxonomy_dim(&mut db, &model.taxonomy)?;
                db.execute("create table hubs (oid int, score float)")?;
                db.execute("create index hubs_oid on hubs (oid)")?;
                db.execute("create table auth (oid int, score float)")?;
                db.execute("create index auth_oid on auth (oid)")?;
            }
            Origin::Checkpoint(ckpt) => {
                // Before `TAXONOMY` is refilled and the one compile, so
                // both reflect the restored marking.
                adopt_marking(&mut model.taxonomy, &ckpt.good_topics)?;
                db.adopt(&ckpt.store)?;
            }
            // A recovered file must actually hold a crawl.
            Origin::File => {
                db.table_id("crawl")?;
            }
        }
        if !matches!(origin, Origin::Fresh) {
            // Stored tables follow the model they are loaded under.
            tables::fill_taxonomy_dim(&mut db, &model.taxonomy)?;
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
        shard: ShardCtx,
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
    /// (fsynced past group-commit batching) before `join()` returns. The
    /// commit is cut under the store guard and the sync waited for after
    /// dropping it. No-op for non-durable sessions; a failure surfaces
    /// through [`CrawlSession::run_outcome`] like any storage error.
    pub(crate) fn final_durable_commit(&self) {
        let mut g = self.store.write();
        let Some(wal) = g.db.wal() else {
            return;
        };
        let committed = g.db.commit();
        drop(g);
        if let Err(e) = committed.and_then(|_| wal.sync()) {
            self.record_error(e);
        }
    }

    /// Capture everything needed to resume this crawl in a fresh session:
    /// a copy of the store — every table, claims in flight included
    /// ([`CrawlSession::restore`] demotes them as `recover` does) — and
    /// what no table holds: relevance state, saved posteriors, stats,
    /// remaining budget, live policy, the good marking and the clock.
    pub fn checkpoint(&self) -> DbResult<CrawlCheckpoint> {
        // Read lock: a checkpoint is page reads + cache clones, so it runs
        // concurrently with monitors and only briefly excludes writers.
        let g = self.store.read();
        let store = g.db.take_snapshot()?;
        let count = |sql: &str| {
            g.db.query(sql)
                .map(|rs| rs.scalar_i64().unwrap_or(0) as usize)
        };
        let frontier_len = count("select count(*) from crawl where visited = 0 or visited = 2")?;
        let visited_len = count("select count(*) from crawl where visited = 1")?;
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
            store,
            frontier_len,
            visited_len,
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

/// A crawl, sufficient to resume it in a fresh session
/// ([`CrawlSession::restore`]) — the paper's long-lived crawls survive
/// administrative restarts this way: a copy of the store plus what no
/// table holds.
#[derive(Debug, Clone)]
pub struct CrawlCheckpoint {
    /// Every table's pages, the catalog and the database clock, as
    /// [`minirel::Database::take_snapshot`] copied them.
    pub store: minirel::Snapshot,
    frontier_len: usize,
    visited_len: usize,
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
    /// Frontier entries captured, claims in flight included (poppable
    /// work after restore).
    pub fn frontier_len(&self) -> usize {
        self.frontier_len
    }

    /// Visited pages captured.
    pub fn visited_len(&self) -> usize {
        self.visited_len
    }
}

//! The session store: [`StoreState`], the one way into it, and the
//! copies out of it (`checkpoint`, commits, replicas).
//!
//! The paper keeps every piece of crawl state in relational tables, so
//! a crawler is something that *reconnects* to them; memory is only a
//! cache (§3.1). Here that is one opener and one loader:
//!
//! * [`CrawlSession::build`] opens or creates the database for an
//!   [`Origin`] — `Fresh`, `Checkpoint(&ckpt)` or `File` — and calls the
//!   loader. A fresh store gets empty tables. A checkpoint is a copy of a
//!   store's pages ([`minirel::Snapshot`]); an empty database adopts it
//!   and from there on it is a reopened file. `new`, `restore`, `recover`
//!   and every cluster shard are this function with a different origin.
//! * [`StoreState::load`] is the only place in-memory state is derived
//!   from tables, so "restore ≡ recover" is one function over one kind
//!   of store, not something two test files hope for. Its derivation
//!   ([`derive`], [`landed`]) is also what
//!   [`CrawlSession::check_invariants`] holds live memory to: debug
//!   builds check it right after `build` loads, and at every `join`.
//!
//! Every piece of crawl state is a table: the pages (`CRAWL`), links
//! (`LINK`), landings and their saved posteriors (`LANDING`), the
//! marking (`TAXONOMY.type`), and the counters, budget, policy and tick
//! clock (`CRAWL_STATE`, written by [`CrawlSession::commit_state`] at
//! every commit and checkpoint). What stays in memory is a cache of
//! them, and why: the link graph (the distiller's input, snapshotted by
//! memcpy, holding `exp(CRAWL.relevance)`); the counters (atomics, read
//! without a lock); the tick clock, a field read under the store guard;
//! and `server_counts`, a tally only the loader
//! derives, because it is read once per outlink at flush time, where a
//! `count(*)` per link is the "measurably too slow" case.

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
    pub(super) server_counts: FxHashMap<ServerId, i64>,
    /// `LANDING`'s table id, resolved once at load: every success
    /// appends a row under the store guard.
    pub(super) landing_tid: TableId,
    /// Live link-expansion policy (`CRAWL_STATE.policy` at load).
    pub(super) policy: CrawlPolicy,
    pub(super) distill: DistillGate,
    pub(super) last_distill: Option<DistillResult>,
    /// Per-server backoff/breaker state (see module docs: no new lock —
    /// claim gating and failure recording already hold the store write
    /// lock).
    pub(super) health: HealthMap,
    /// The crawl tick clock backoffs and quarantines are measured in
    /// (`CRAWL_STATE.clock` at load): advanced by the number of claims
    /// issued, and by one per empty poll — so parked rows make progress
    /// toward their due ticks even when nothing is claimable, and
    /// single-threaded crawls stay deterministic.
    pub(super) clock: i64,
    /// Retries left ([`CrawlConfig::retry_budget`] at load); spent when
    /// a retriable failure decides to requeue. At zero, retriable
    /// failures become terminal.
    pub(super) retry_budget: u64,
    /// The `LINK` rows of the page landing, refilled page after page.
    pub(super) link_rows: Vec<Row>,
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

/// `LANDING`'s count and the sum of its relevance, summed in `seq`
/// order as the crawl summed them: what `successes` and `harvest_sum`
/// are.
pub(super) fn landed(db: &Database) -> DbResult<(u64, f64)> {
    let rs = db.query("select relevance from landing order by seq")?;
    let mut sum = 0.0;
    for row in &rs.rows {
        sum += frontier::col_f64(row, 0, "landing.relevance")?;
    }
    Ok((rs.rows.len() as u64, sum))
}

/// The `CRAWL_STATE` row: the counters [`landed`] does not derive, the
/// budget, the tick clock and the live policy, as of the last commit
/// or checkpoint.
struct CrawlState {
    attempts: u64,
    failures: u64,
    distillations: u64,
    deferred_landings: u64,
    budget: u64,
    clock: i64,
    policy: CrawlPolicy,
}

impl CrawlState {
    /// Read the row back.
    fn read(db: &Database) -> DbResult<CrawlState> {
        let rs = db.query("select * from crawl_state")?;
        let [row] = rs.rows.as_slice() else {
            let n = rs.rows.len();
            return Err(DbError::Eval(format!("crawl_state holds {n} rows, not 1")));
        };
        let int = |i| frontier::col_i64(row, i, "crawl_state").map(|v| v as u64);
        let name = frontier::col_str(row, 6, "crawl_state.policy")?;
        let policy = CrawlPolicy::from_name(name)
            .ok_or_else(|| DbError::Eval(format!("crawl_state: unknown policy {name:?}")))?;
        Ok(CrawlState {
            attempts: int(0)?,
            failures: int(1)?,
            distillations: int(2)?,
            deferred_landings: int(3)?,
            budget: int(4)?,
            clock: frontier::col_i64(row, 5, "crawl_state.clock")?,
            policy,
        })
    }

    /// The tallies this row and `LANDING` ([`landed`]) hold.
    fn tallies(&self, db: &Database) -> DbResult<CrawlStats> {
        let (successes, harvest_sum) = landed(db)?;
        Ok(CrawlStats {
            attempts: self.attempts,
            successes,
            failures: self.failures,
            harvest_sum,
            distillations: self.distillations,
            deferred_landings: self.deferred_landings,
            ..CrawlStats::default()
        })
    }
}

impl StoreState {
    /// The one place in-memory state is derived from tables: `new` (over
    /// empty ones), `restore` (over an adopted copy of a store) and
    /// `recover` (over a reopened file) all come through here, so they
    /// cannot disagree. Also returns the `CRAWL_STATE` row.
    ///
    /// * Claims in flight when the tables were last written never
    ///   landed: they are demoted back to the frontier, poppable again.
    /// * The link graph and the per-server tallies are [`derive`]d.
    /// * Server health starts over ([`fresh_health`]): breakers are
    ///   re-learned from live evidence, not trusted across a restart.
    ///   Parked rows keep their `not_before`, against the stored clock.
    fn load(mut db: Database, cfg: &CrawlConfig) -> DbResult<(StoreState, CrawlState)> {
        demote_claims(&mut db)?;
        let (graph, server_counts) = derive(&db)?;
        let state = CrawlState::read(&db)?;
        let health = fresh_health(&mut db, cfg)?;
        let store = StoreState {
            landing_tid: db.table_id("landing")?,
            db,
            graph,
            server_counts,
            policy: state.policy,
            distill: DistillGate::default(),
            last_distill: None,
            health,
            clock: state.clock,
            retry_budget: cfg.retry_budget,
            link_rows: Vec::new(),
        };
        Ok((store, state))
    }
}

/// Adopt the marking a stored crawl's `TAXONOMY.type` holds into
/// `taxonomy`, wholesale: live `mark_topic` calls may have both added
/// and *removed* good topics since the caller's model was built. A store
/// whose `(kcid, name)` pairs are not the model's is refused.
fn adopt_stored_marking(db: &Database, taxonomy: &mut focus_types::Taxonomy) -> DbResult<()> {
    let rs = db.query("select kcid, name, type from taxonomy order by kcid")?;
    let stored = rs.rows.iter().map(|r| (r[0].as_i64(), r[1].as_str()));
    let t = &*taxonomy;
    if !stored.eq(t.all().map(|c| (Some(c.raw() as i64), Some(t.name(c))))) {
        return Err(DbError::Eval(
            "the stored crawl's TAXONOMY classes are not the model's".into(),
        ));
    }
    let refused = |e| DbError::Eval(format!("stored marking: {e}"));
    for c in taxonomy.good_set() {
        taxonomy.unmark_good(c).map_err(refused)?;
    }
    for row in rs.rows.iter().filter(|r| r[2].as_str() == Some("good")) {
        let kcid = frontier::col_i64(row, 0, "taxonomy.kcid")?;
        taxonomy.mark_good(ClassId(kcid as u16)).map_err(refused)?;
    }
    Ok(())
}

impl CrawlSession {
    /// Build a session: creates the crawl's tables (`CRAWL`, `LINK`,
    /// `LANDING`, `CRAWL_STATE`, `HUBS`, `AUTH`, `TAXONOMY`,
    /// `server_health`) in a fresh database.
    pub fn new(
        fetcher: Arc<dyn Fetcher>,
        model: TrainedModel,
        cfg: CrawlConfig,
    ) -> DbResult<CrawlSession> {
        Self::build(fetcher, model, cfg, Origin::Fresh, ShardCtx::alone())
    }

    /// Rebuild a session from a [`CrawlCheckpoint`], so a crawl can be
    /// resumed in a fresh process. The database `cfg.durability` names
    /// adopts the checkpoint's copy of the store, which then loads as
    /// [`CrawlSession::recover`] loads a file: every table, the
    /// counters, budget, policy, tick clock and good marking come back,
    /// and claims in flight at the checkpoint go back to the frontier.
    pub fn restore(
        fetcher: Arc<dyn Fetcher>,
        model: TrainedModel,
        cfg: CrawlConfig,
        ckpt: &CrawlCheckpoint,
    ) -> DbResult<CrawlSession> {
        let origin = Origin::Checkpoint(ckpt);
        Self::build(fetcher, model, cfg, origin, ShardCtx::alone())
    }

    /// Reopen a crashed (or cleanly stopped) file-backed session from
    /// its data file and WAL: the log is replayed to the last committed
    /// batch and the session is loaded from the recovered tables exactly
    /// as [`CrawlSession::restore`] loads a checkpoint's copy — the same
    /// counters, budget, policy, clock, marking and saved posteriors, as
    /// of that commit. The model's classes must be the stored ones; its
    /// marking gives way to the stored marking.
    ///
    /// Requires `cfg.durability = Durability::File` pointing at the
    /// files the crashed session used.
    pub fn recover(
        fetcher: Arc<dyn Fetcher>,
        model: TrainedModel,
        cfg: CrawlConfig,
    ) -> DbResult<CrawlSession> {
        Self::build(fetcher, model, cfg, Origin::File, ShardCtx::alone())
    }

    /// The one way into a session, as `shard` of its exchange — shard 0
    /// of its own ([`ShardCtx::alone`]) or one shard of a
    /// [`crate::cluster`]: refuse a config that cannot progress, open or
    /// create the database, give it
    /// `origin`'s tables (fresh ones, a checkpoint's copy, or the file's
    /// own), adopt a stored crawl's marking into `model`, and
    /// [`StoreState::load`] the tables.
    pub(crate) fn build(
        fetcher: Arc<dyn Fetcher>,
        mut model: TrainedModel,
        cfg: CrawlConfig,
        origin: Origin<'_>,
        shard: ShardCtx,
    ) -> DbResult<CrawlSession> {
        if cfg.politeness.max_in_flight == 0 {
            // No claim is ever admitted, and the deferred rows veto the
            // idle verdict forever: the crawl neither progresses nor ends.
            let refused =
                "CrawlConfig.politeness.max_in_flight = 0 admits no claim (use at least 1)";
            return Err(DbError::Eval(refused.into()));
        }
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
        if let Origin::Fresh = origin {
            tables::create_tables(&mut db)?;
            tables::create_state_tables(&mut db, cfg.max_fetches, cfg.policy)?;
            tables::create_taxonomy_dim(&mut db, &model.taxonomy)?;
            db.execute("create table hubs (oid int, score float)")?;
            db.execute("create index hubs_oid on hubs (oid)")?;
            db.execute("create table auth (oid int, score float)")?;
            db.execute("create index auth_oid on auth (oid)")?;
        } else {
            // A checkpoint is a copy of a store: adopted, it is a file.
            if let Origin::Checkpoint(ckpt) = origin {
                db.adopt(&ckpt.store)?;
            }
            // The stored marking is the crawl's, adopted before the one
            // compile.
            adopt_stored_marking(&db, &mut model.taxonomy)?;
        }
        let (mut store, state) = StoreState::load(db, &cfg)?;
        let tallies = state.tallies(&store.db)?;
        // From here on the store holds a crawl that can be resumed (and
        // `new` on the same path will refuse to re-initialize it). What
        // recovery itself changed — the demotions — is synced before the
        // session is handed out: a crash right after must not resurrect
        // `CLAIMED` rows.
        if stored {
            store.db.commit_durable()?;
        } else if store.db.wal().is_some() {
            store.db.commit()?;
        }
        let session = Self::assemble(fetcher, model, cfg, store, state, tallies, shard);
        debug_check(|| session.check_invariants());
        Ok(session)
    }

    /// The one place a [`CrawlSession`] value is put together: counters
    /// from the loaded `state` and its `tallies`, and the classifier
    /// compiled from `model`'s current marking.
    fn assemble(
        fetcher: Arc<dyn Fetcher>,
        model: TrainedModel,
        cfg: CrawlConfig,
        store: StoreState,
        state: CrawlState,
        tallies: CrawlStats,
        shard: ShardCtx,
    ) -> CrawlSession {
        let compiled = Arc::new(CompiledModel::compile(&model));
        CrawlSession {
            fetcher,
            model: OrderedRwLock::new(rank::MODEL, model),
            compiled: OrderedRwLock::new(rank::COMPILED, compiled),
            store: OrderedRwLock::new(rank::STORE, store),
            counters: CounterState {
                attempts: AtomicU64::new(state.attempts),
                budget: AtomicU64::new(state.budget),
                tallies: OrderedMutex::new(rank::TALLIES, tallies),
                metrics: Metrics::new(cfg.threads),
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
        // Spawning commits: with the state row, like every commit.
        self.commit_state(&mut g)?;
        minirel::Replica::spawn(&mut g.db)
    }

    /// The one writer of `CRAWL_STATE`: the counters, budget, clock and
    /// live policy as they stand, then — when this session is durable —
    /// a commit of the store's dirty pages to the WAL (group-commit
    /// cadence). The caller holds the store write guard `g`, under which
    /// the counters this reads only move (claims, landings, failures and
    /// passes all count under it), so the row agrees with every other
    /// table in the commit or copy it rides in. The row has a fixed size
    /// (six ints and a nine-letter policy name), so the update rewrites
    /// its record in place: the table stays one page however often it
    /// is written.
    pub(super) fn commit_state(&self, g: &mut StoreState) -> DbResult<()> {
        let c = &self.counters;
        let load = |a: &AtomicU64| Value::Int(a.load(Ordering::Acquire) as i64);
        let int = |v: u64| Value::Int(v as i64);
        let row = {
            let t = c.tallies.lock();
            [
                load(&c.attempts),
                int(t.failures),
                int(t.distillations),
                int(t.deferred_landings),
                load(&c.budget),
                Value::Int(g.clock),
                Value::Str(g.policy.name().to_owned()),
            ]
        };
        let sql = "update crawl_state set attempts = ?, failures = ?, distillations = ?, \
                   deferred = ?, budget = ?, clock = ?, policy = ?";
        g.db.execute_with(sql, &row)?;
        if g.db.wal().is_some() {
            g.db.commit()?;
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
        let committed = self.commit_state(&mut g);
        drop(g);
        if let Err(e) = committed.and_then(|_| wal.sync()) {
            self.record_error(e);
        }
    }

    /// Capture everything needed to resume this crawl in a fresh session:
    /// a copy of the store, `CRAWL_STATE` brought up to date (and, on a
    /// durable session, committed) first — every table, claims in
    /// flight included ([`CrawlSession::restore`] demotes them as
    /// `recover` does). Takes the store write guard for that one row;
    /// the copy itself is page reads.
    pub fn checkpoint(&self) -> DbResult<CrawlCheckpoint> {
        let mut g = self.store.write();
        self.commit_state(&mut g)?;
        let store = g.db.take_snapshot()?;
        let count = |sql: &str| {
            g.db.query(sql)
                .map(|rs| rs.scalar_i64().unwrap_or(0) as usize)
        };
        Ok(CrawlCheckpoint {
            store,
            frontier_len: count("select count(*) from crawl where visited = 0 or visited = 2")?,
            visited_len: count("select count(*) from crawl where visited = 1")?,
        })
    }
}

/// A crawl, sufficient to resume it in a fresh session
/// ([`CrawlSession::restore`]) — the paper's long-lived crawls survive
/// administrative restarts this way: a copy of the store, whose tables
/// hold every piece of crawl state, and two counts read off it.
#[derive(Debug, Clone)]
pub struct CrawlCheckpoint {
    /// Every table's pages, the catalog and the database clock, as
    /// [`minirel::Database::take_snapshot`] copied them.
    pub store: minirel::Snapshot,
    frontier_len: usize,
    visited_len: usize,
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

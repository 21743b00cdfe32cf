//! The crawl session: workers, classification, link expansion, and the
//! distillation trigger, all around the shared relational state.
//!
//! The paper's crawler (§3.1) is one loop — claim, fetch, classify,
//! flush — run by many threads against one database and steered at
//! page boundaries (§3.7). So is this one. The session is split by
//! role across this directory:
//!
//! * `mod.rs` — configuration, counters, the [`CrawlSession`] struct
//!   and its accessors (stats, SQL, snapshots of the caches);
//! * `store.rs` — `StoreState` (the relational store and its
//!   in-memory caches), the one opener (`build`) and the one loader
//!   (`StoreState::load`) behind `new`, `restore` and `recover`, and
//!   what snapshots the store: commits, `checkpoint`, replicas;
//! * `worker.rs` — **the** worker loop: claim admission
//!   (`next_tick`), the fetch executor glue, commit points, pause and
//!   wind-down;
//! * `flush.rs` — landing a classified page or a batch of failures in
//!   the store, routing frontier entries to their owning shards, and
//!   the distillation pass;
//! * `steering.rs` — control commands, live topic re-marking, and
//!   crawl maintenance, which requeues hubs as frontier rows for the
//!   loop above and fetches nothing itself;
//! * `check.rs` — the session's invariants, checked in one function
//!   ([`CrawlSession::check_invariants`]) that debug builds run after
//!   every load and every `join`.
//!
//! **One loop, one variation point.** A worker claims a batch of
//! frontier entries under the store lock, hands them to its
//! [`crate::fetch_pool::PoolHandle`], and takes the completions one at
//! a time: classify (pure, no lock), then reacquire the lock to record
//! the page and update `CRAWL`/`LINK` — or, when the lock is busy and
//! the worker still has a claimed page to fetch, leave the page in its
//! lane and land it, in completion order, under the next guard it gets
//! (`worker.rs`). *Where* the blocking fetch runs
//! — on the worker's own thread ([`CrawlConfig::fetch_pool`] = 0) or on
//! one of `n` dedicated fetcher threads that keep hundreds of fetches
//! on the wire — is decided inside [`crate::fetch_pool`] and nowhere
//! else; `fetch_pool` is a size, not a code path. Crashing pages
//! (malformed content, dead links, timeouts) are routine, not
//! exceptional: they adjust `numtries` and the frontier, never
//! corrupting table/index consistency.
//!
//! Shared state is split by **lock kind**, so observing a crawl never
//! stops it:
//!
//! * `StoreState` — the relational store and what lives beside it
//!   under the same lock: the link graph
//!   ([`focus_distiller::graph::LinkGraph`] — the one in-memory copy of
//!   the crawl's links and of visited pages' relevance), per-server
//!   tallies and health, the live policy, and the distillation
//!   bookkeeping — behind a
//!   `RwLock`: monitors ([`CrawlSession::sql`],
//!   [`CrawlSession::with_db_read`], [`CrawlSession::landings`],
//!   [`CrawlSession::visited`]) take **read** locks, concurrent with
//!   each other; workers take the **write** lock only for the short
//!   claim and page-flush critical sections, and *wait* for it only
//!   when they have nothing left to fetch (a busy lock defers the
//!   landing, not the worker — [`CrawlStats::deferred_landings`]);
//! * counters (`CounterState`) — budget, attempt tally and in-flight
//!   gauge as atomics (readable without any lock), success/failure
//!   tallies and the harvest sum behind their own small mutex, and the
//!   per-worker stage clock ([`crate::metrics`]) in atomics of its own;
//! * diagnostics (`RunDiag`) — first storage error and worker panics,
//!   another small mutex;
//! * control (`ControlState` in [`crate::run`]) — the command queue and
//!   lifecycle flags, deliberately *outside* every data lock so steering
//!   a crawl never contends with page processing.
//!
//! Lock order (always acquire left before right, release before going
//! back left): `model → compiled → store → wal → counters/diag`. The
//! session's locks are rank-carrying [`lockcheck`] wrappers, so this
//! order is not just documentation: debug builds panic on any
//! out-of-order interleaving, and on any lock held into a blocking call
//! (a fetch, a backlink lookup, the distillation kernel, an fsync) that
//! the call's blocking point in `lockcheck::rank` does not allow; none
//! allows a session lock. A durable commit only requests its fsync,
//! which the log's syncer thread runs holding nothing; the seeding and
//! wind-down commits wait for it after dropping the store guard.
//! Monitors touch only `store` (read) or the counter mutex, so they can
//! never deadlock with workers. The `wal` position is the WAL latch of
//! a durable session database ([`Durability`]): minirel acquires it
//! inside store operations (page eviction, batch commits) and it is a
//! leaf with respect to every crawler lock — no callback ever runs
//! under it, so holding the store write lock across a commit is safe.
//! The fetch executor's queue and mailboxes are leaves *outside* that
//! chain: never taken while a session lock is held, and no session
//! lock is ever taken under them.
//!
//! **Classification never holds a lock.** The crawl hot path evaluates
//! the classifier through an [`Arc<CompiledModel>`] swapped behind its
//! own `RwLock`: a worker clones the `Arc` (a refcount bump under a
//! momentary read lock) and drops the lock *before* inference, so a
//! `mark_topic` retrain — which compiles a fresh model and swaps the
//! `Arc` in — never contends with in-flight classification, and
//! in-flight pages finish under the model they started with. Each
//! worker owns a [`Scratch`] (never shared) so steady-state inference
//! performs zero heap allocations.
//!
//! **Distillation never holds a lock either.** Weighted HITS over the
//! whole link graph is milliseconds of work, so it is done the way
//! classification is: `CrawlSession::distill_pass` takes the store
//! write lock only to copy the graph's flat columns into an owned
//! snapshot, iterates with *no* lock held on the worker that tripped
//! the trigger (peers keep landing pages, monitors keep querying), and
//! takes the write lock once more to republish `HUBS`/`AUTH`, apply the
//! hub boosts and emit `DistillCompleted` — two short guards around an
//! unlocked pass. The kernel call is the `DISTILL_PASS` blocking point,
//! whose allow list is empty — `ctrl_apply` included, so a forced pass
//! (`run.distill()`) runs after the command drain, not inside it. The
//! tripping page's in-flight gauges fall only after the
//! pass's boosts are in the frontier (boosts can create rows), at most
//! one periodic pass runs at a time, and pages that land during a pass
//! are seen by the next one.
//!
//! Workers drain the command queue between page fetches, so every
//! control mutation (pause, new seeds, re-marked topics, policy swaps)
//! lands at a page boundary with the tables consistent.
//!
//! **Per-server health adds no lock.** The backoff/breaker/politeness
//! map ([`crate::health::HealthMap`]) lives inside `StoreState`,
//! because all of its touch points — gating a popped claim, recording
//! a failure, charging and releasing politeness slots — already run
//! inside store write critical sections. The crawl *ticks* that
//! backoffs and quarantines are measured in come from a counter
//! advanced under that same lock: by the number of claims issued, and
//! by one per empty poll, so an all-parked frontier (every server
//! quarantined) still marches toward cooldown expiry without
//! wall-clock sleeps — and without ever wedging termination.

mod check;
mod flush;
mod steering;
mod store;
mod worker;

pub use check::Violation;
pub(crate) use check::{debug_check, expect};
use flush::Classified;
pub use store::CrawlCheckpoint;
pub(crate) use store::Origin;
use store::StoreState;

use crate::cluster::ShardCtx;
use crate::events::{CrawlEvent, EventSink, FailureOutcome, FetchErrorKind};
use crate::fetch_pool::{Completion, PoolHandle};
use crate::frontier::{self, Claim, FrontierEntry};
use crate::health::{
    BackoffConfig, Breaker, BreakerConfig, ClaimGate, FailureVerdict, HealthMap, PolitenessConfig,
    ServerHealth,
};
use crate::metrics::{Metrics, MetricsSnapshot};
use crate::policy::{log_clamped, CrawlPolicy};
use crate::run::{
    spawn_thread, Command, ControlState, CrawlError, CrawlRun, RunState, StartOptions,
};
use crate::tables::{self, host_server_id, visited};
use focus_classifier::compiled::{CompiledModel, EvalSummary, Scratch};
use focus_classifier::model::TrainedModel;
use focus_distiller::graph::{Distilled, LinkGraph};
use focus_distiller::{DistillConfig, DistillResult};
use focus_types::hash::FxHashMap;
use focus_types::{ClassId, Oid, ServerId};
use focus_webgraph::Fetcher;
use lockcheck::{rank, OrderedMutex, OrderedRwLock};
use minirel::{Database, DbError, DbResult, ResultSet, TableId, Value};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Durability of the session store (default: none — the in-memory,
/// crash-simple database the access-path experiments sweep).
///
/// With a WAL attached, each worker cuts a commit point every
/// `batch_size` landed pages (and whenever its fetch executor runs
/// dry), [`CrawlRun::join`] issues a final fsynced commit, and [`CrawlSession::replica`] can ship the log
/// to a read-only follower. File-backed sessions additionally survive a
/// process crash: [`CrawlSession::recover`] reopens the files, replays
/// the log, and demotes claims that were in flight at crash time back
/// to the frontier — exactly the treatment [`CrawlSession::checkpoint`]
/// gives them.
#[derive(Debug, Clone, Default)]
pub enum Durability {
    /// Plain in-memory database, no WAL. Commits and replicas are
    /// unavailable; nothing survives the process.
    #[default]
    None,
    /// [`Durability::File`]'s database over a fresh memory file system
    /// ([`minirel::Database::in_memory_durable`]): the same open,
    /// recovery, rotation and syncer, so commit points and
    /// [`CrawlSession::replica`] work, and nothing survives the
    /// process. For tests and the live-steering example.
    Wal {
        /// Commits per forced sync ([`minirel::DEFAULT_GROUP_COMMIT`]
        /// is the production default; 1 syncs every commit).
        group_commit: usize,
    },
    /// File-backed pages and an on-disk WAL beside them
    /// ([`minirel::wal_path_for`]): every committed batch is
    /// recoverable via [`CrawlSession::recover`].
    File {
        /// The data-file path; the WAL lives at `<path>.wal`.
        path: PathBuf,
        /// Commits per fsync (group commit; 1 = sync every batch).
        group_commit: usize,
    },
}

/// Session parameters.
#[derive(Debug, Clone)]
pub struct CrawlConfig {
    /// Initial link-expansion policy (switchable live via
    /// [`CrawlRun::set_policy`]).
    pub policy: CrawlPolicy,
    /// Fetcher threads ("about thirty" in the paper; tests use 1 for
    /// determinism).
    pub threads: usize,
    /// Fetch-attempt budget (the x-axis of Figures 5–6).
    pub max_fetches: u64,
    /// Attempts before a timing-out URL is declared dead.
    pub max_tries: i64,
    /// Re-distill after this many successful fetches (None = never).
    pub distill_every: Option<usize>,
    /// Distillation parameters.
    pub distill: DistillConfig,
    /// After distilling, boost unvisited pages cited by this many top
    /// hubs (0 disables the trigger).
    pub hub_boost_top_k: usize,
    /// Backward expansion (§3.2): when a page scores above this relevance
    /// and the fetcher serves backlink metadata, enqueue the pages that
    /// *point to* it — candidate hubs by the radius-2 rule. `None`
    /// disables.
    pub backlink_expansion_above: Option<f64>,
    /// Buffer-pool frames for the session database.
    pub db_frames: usize,
    /// Frontier entries a worker claims per critical section (§3.1's
    /// batch-oriented access paths). Each claimed page is still fetched
    /// and classified outside the lock and flushed at its own page
    /// boundary; the batch only amortizes the B+tree descents of
    /// claiming. 1 restores strict claim-per-page behavior.
    pub batch_size: usize,
    /// Durability of the session store (WAL, crash recovery, replicas).
    pub durability: Durability,
    /// Exponential-backoff schedule for retriable failures (crawl
    /// ticks).
    pub backoff: BackoffConfig,
    /// Per-server circuit breaker: consecutive timeouts past the
    /// threshold quarantine the server (its frontier rows park).
    pub breaker: BreakerConfig,
    /// Total retries the run may spend. A retriable failure only
    /// requeues while budget remains; after that it is terminal — so a
    /// pathological all-timeout world can never starve first-visit
    /// fetches out of the fetch budget.
    pub retry_budget: u64,
    /// Size of a run's fetch executor ([`crate::fetch_pool`]): `0` (the
    /// default) runs each fetch on the worker that claimed it; `n > 0`
    /// spawns `n` dedicated fetcher threads per run and keeps up to
    /// ~2n fetches in flight, so network latency overlaps classify and
    /// flush instead of serializing with them. Only a size — the worker
    /// loop is the same either way.
    pub fetch_pool: usize,
    /// Per-server politeness (max in-flight, min inter-admission
    /// delay), enforced at claim admission.
    pub politeness: PolitenessConfig,
}

impl Default for CrawlConfig {
    fn default() -> Self {
        CrawlConfig {
            policy: CrawlPolicy::SoftFocus,
            threads: 4,
            max_fetches: 2000,
            max_tries: 3,
            distill_every: Some(500),
            distill: DistillConfig::default(),
            hub_boost_top_k: 10,
            backlink_expansion_above: None,
            db_frames: 512,
            batch_size: 8,
            durability: Durability::None,
            backoff: BackoffConfig::default(),
            breaker: BreakerConfig::default(),
            retry_budget: 1000,
            fetch_pool: 0,
            politeness: PolitenessConfig::default(),
        }
    }
}

/// Outcome counters. The per-page series behind them is `LANDING`
/// ([`CrawlSession::landings`]).
#[derive(Debug, Clone, Default)]
pub struct CrawlStats {
    /// Fetch attempts.
    pub attempts: u64,
    /// Successful fetch+classify cycles.
    pub successes: u64,
    /// Failed attempts.
    pub failures: u64,
    /// Linear R summed over the successes in landing order: the
    /// numerator of [`CrawlStats::mean_harvest`].
    pub harvest_sum: f64,
    /// Distillations run.
    pub distillations: u64,
    /// Successes whose landing waited in their worker's lane because
    /// the store lock was busy when they were classified (the worker
    /// went on to its next fetch and landed them, in order, under a
    /// later guard). Exactly 0 for an unwatched one-worker crawl; with
    /// peers or monitors on the store, the share of `successes` that
    /// did not cost their worker a sleep on the lock.
    pub deferred_landings: u64,
    /// The stage clock: where the workers' time went.
    pub metrics: MetricsSnapshot,
}

impl CrawlStats {
    /// Mean relevance over all fetched pages.
    pub fn mean_harvest(&self) -> f64 {
        if self.successes == 0 {
            0.0
        } else {
            self.harvest_sum / self.successes as f64
        }
    }
}

/// One landed page: a row of `LANDING`, read by
/// [`CrawlSession::landings`]. Figure 5 plots `(attempt, relevance)`;
/// Figure 6 replays the oids against a reference crawl.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Landing {
    /// The attempt the fetch was (a merged series renumbers it densely).
    pub attempt: u64,
    /// The page.
    pub oid: Oid,
    /// Its linear R when it landed.
    pub relevance: f64,
}

/// Budget and outcome counters. The hot gauges are atomics so
/// [`CrawlSession::stats`] and the worker idle checks never touch the
/// store lock; the tallies live behind their own mutex, locked at page
/// completions and snapshots.
struct CounterState {
    /// Fetch attempts claimed so far. Incremented only under the store
    /// *write* lock (claims serialize there), so `attempts ≤ budget`
    /// holds exactly; read anywhere without a lock.
    attempts: AtomicU64,
    /// Fetch-attempt budget; raised live by [`CrawlRun::add_budget`]
    /// (monotonically increasing while a run is live).
    budget: AtomicU64,
    /// Claims checked out and not yet flushed (pool-wide gauge).
    in_flight: AtomicUsize,
    /// The crawl tick clock backoffs and quarantines are measured in.
    /// Advanced only under the store write lock: by the number of
    /// claims issued, and by one per empty poll — so parked rows make
    /// progress toward their due ticks even when nothing is claimable,
    /// and single-threaded crawls stay deterministic.
    clock: AtomicU64,
    /// Retries left ([`CrawlConfig::retry_budget`]); decremented when a
    /// retriable failure decides to requeue. At zero, retriable
    /// failures become terminal.
    retry_budget: AtomicU64,
    /// Success/failure tallies and the harvest sum. `attempts` inside is
    /// refreshed from the atomic at snapshot time.
    tallies: OrderedMutex<CrawlStats>,
    /// Per-worker stage clocks, summed by [`CrawlSession::stats`].
    metrics: Metrics,
}

/// First storage error and worker-panic messages of the current run.
#[derive(Default)]
struct RunDiag {
    error: Option<DbError>,
    /// Rendered panic messages, one per failed worker.
    worker_failures: Vec<String>,
}

/// A goal-directed crawl over any [`Fetcher`].
///
/// Wrap in an [`Arc`] and call [`CrawlSession::start`] for a live,
/// steerable run, or [`CrawlSession::run`] for the blocking convenience
/// path.
pub struct CrawlSession {
    fetcher: Arc<dyn Fetcher>,
    /// The trained parameters — the *source of truth* for markings.
    /// Behind a rwlock so `mark_topic` can change the good set while
    /// workers classify (§3.7 administration against a live crawl).
    model: OrderedRwLock<TrainedModel>,
    /// The compiled inference engine the hot path runs. Workers clone
    /// the `Arc` and release the lock before evaluating; topic re-marks
    /// compile a fresh model and swap the `Arc` in (see module docs).
    compiled: OrderedRwLock<Arc<CompiledModel>>,
    cfg: CrawlConfig,
    /// The relational store: readers share, writers exclude (see the
    /// module docs for the lock order).
    store: OrderedRwLock<StoreState>,
    counters: CounterState,
    diag: OrderedMutex<RunDiag>,
    control: ControlState,
    start: Instant,
    /// Which shard of which exchange this session is: one shard of a
    /// [`crate::cluster::CrawlCluster`], or shard 0 of a one-shard
    /// exchange of its own. Pages whose server hashes to another shard
    /// are routed through the exchange instead of entering the local
    /// frontier, and stagnation is the exchange's verdict.
    pub(crate) shard: ShardCtx,
}

impl CrawlSession {
    /// Spawn the worker pool in the background and return the steering
    /// handle. The session stays usable for ad-hoc SQL while running.
    pub fn start(self: &Arc<Self>) -> Result<CrawlRun, CrawlError> {
        self.start_with(StartOptions::default())
    }

    /// [`CrawlSession::start`] with an explicit event-channel capacity
    /// and observers. A cluster's start launches its shards through the
    /// same sequence, so a shard started on its own re-arms the
    /// exchange's verdict just as its cluster's start would.
    pub fn start_with(self: &Arc<Self>, opts: StartOptions) -> Result<CrawlRun, CrawlError> {
        crate::cluster::launch(std::slice::from_ref(self), opts, &mut spawn_thread)
    }

    /// Run workers until the fetch budget is spent or the frontier
    /// stagnates, blocking the caller; the historical entry point, now a
    /// thin wrapper over [`CrawlSession::start`] + [`CrawlRun::join`].
    pub fn run(self: &Arc<Self>) -> Result<CrawlStats, CrawlError> {
        self.start()?.join()
    }

    pub(crate) fn control(&self) -> &ControlState {
        &self.control
    }

    /// The fetcher every run's executor fetches through.
    pub(crate) fn fetcher(&self) -> &Arc<dyn Fetcher> {
        &self.fetcher
    }

    /// Clear the previous run's verdict so a fresh `start()` is judged on
    /// its own work. The tables themselves are left as-is: commands and
    /// page processing only mutate them at page boundaries, so even an
    /// aborted run leaves a frontier a new pool can continue from.
    pub(crate) fn reset_run_diagnostics(&self) {
        let mut d = self.diag.lock();
        let panicked = !d.worker_failures.is_empty();
        d.error = None;
        d.worker_failures.clear();
        drop(d);
        // A panicking worker can die holding claims it never released;
        // zero the gauge so the stale count cannot convince the next
        // run's idle check that phantom work is still in flight (which
        // would spin its workers forever once the frontier drains). No
        // workers are alive here: `ControlState::activate` guarantees
        // one run at a time.
        self.counters.in_flight.store(0, Ordering::Release);
        // Same reasoning for the politeness gauges and a probe it held:
        // a dead worker's admitted-but-never-flushed claims would
        // otherwise hold their servers' slots, or park them behind
        // `Probing`, forever. Its claims' rows go back to the frontier.
        let mut g = self.store.write();
        g.health
            .reset_in_flight(self.counters.clock.load(Ordering::Acquire) as i64);
        let demoted = panicked.then(|| store::demote_claims(&mut g.db));
        drop(g);
        if let Some(Err(e)) = demoted {
            self.record_error(e);
        }
    }

    /// Record the first storage error of the run and wind the pool down.
    /// Callers must not hold the store lock (the diag mutex is ordered
    /// after it, but keeping this lock-free of the store also means an
    /// error can be recorded while another worker is mid-flush).
    fn record_error(&self, e: DbError) {
        let mut d = self.diag.lock();
        if d.error.is_none() {
            d.error = Some(e);
        }
        drop(d);
        self.control.abort.store(true, Ordering::Release);
    }

    /// Record a worker panic: surface it as an event and an error from
    /// `join()`, and wind the whole pool down (partial stats must never
    /// masquerade as success).
    pub(crate) fn note_worker_panic(
        &self,
        worker: usize,
        payload: &(dyn std::any::Any + Send),
        sink: &EventSink,
    ) {
        let message = payload
            .downcast_ref::<&str>()
            .map(|s| (*s).to_owned())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "opaque panic payload".to_owned());
        self.diag
            .lock()
            .worker_failures
            .push(format!("worker {worker}: {message}"));
        self.control.abort.store(true, Ordering::Release);
        self.control.set_state(RunState::Stopping);
        sink.emit(CrawlEvent::WorkerFailed { worker, message });
    }

    /// Record a failed `thread::Builder::spawn`: same surfacing contract
    /// as a worker panic (a `WorkerFailed` event now, `CrawlError::Worker`
    /// from `join()`), and the pool aborts so the workers that *did*
    /// spawn hand their claims back at the next page boundary.
    pub(crate) fn note_spawn_failure(&self, worker: usize, err: &std::io::Error, sink: &EventSink) {
        let message = format!("failed to spawn: {err}");
        self.diag
            .lock()
            .worker_failures
            .push(format!("worker {worker}: {message}"));
        self.control.abort.store(true, Ordering::Release);
        self.control.set_state(RunState::Stopping);
        sink.emit(CrawlEvent::WorkerFailed { worker, message });
    }

    /// Register this run's whole worker pool with the exchange *before*
    /// any worker runs: a peer shard must never observe this shard as
    /// dead mid-spawn.
    pub(crate) fn note_workers_arming(&self, workers: usize) {
        self.shard
            .exchange
            .workers_arming(self.shard.shard, workers);
    }

    /// Retire one worker registration (called as each worker exits, and
    /// for slots whose spawn failed). When the last registration of this
    /// shard retires, any in-flight count a panicking worker leaked is
    /// subtracted from the exchange's gauge. The shard's inbox stays:
    /// its next start, or a checkpoint, drains it.
    pub(crate) fn note_worker_exit(&self) {
        let ShardCtx {
            shard, exchange, ..
        } = &self.shard;
        if exchange.worker_exited(*shard) {
            exchange.sub_in_flight(self.counters.in_flight.load(Ordering::Acquire));
        }
    }

    /// Final verdict of a run: worker panics and storage errors win over
    /// the happy path, which debug builds first hold to the session's
    /// invariants ([`CrawlSession::check_invariants`]).
    pub(crate) fn run_outcome(&self) -> Result<CrawlStats, CrawlError> {
        let d = self.diag.lock();
        if !d.worker_failures.is_empty() {
            return Err(CrawlError::Worker(d.worker_failures.join("; ")));
        }
        if let Some(e) = &d.error {
            return Err(CrawlError::Db(e.clone()));
        }
        drop(d);
        debug_check(|| self.check_invariants());
        Ok(self.stats())
    }

    /// Raise the fetch budget directly (between runs; a *live* run takes
    /// [`CrawlRun::add_budget`], which also re-arms the exhaustion
    /// event).
    pub fn add_budget(&self, extra: u64) {
        self.counters.budget.fetch_add(extra, Ordering::AcqRel);
        self.control.budget_reported.store(false, Ordering::Release);
    }

    /// Stats snapshot, O(1). Touches only the counter state — never the
    /// store lock — so it completes in bounded time even while workers
    /// are mid-flush.
    pub fn stats(&self) -> CrawlStats {
        let mut stats = self.counters.tallies.lock().clone();
        stats.attempts = self.counters.attempts.load(Ordering::Acquire);
        stats.metrics = self.counters.metrics.read();
        stats
    }

    /// The live link-expansion policy.
    pub fn policy(&self) -> CrawlPolicy {
        self.store.read().policy
    }

    /// The crawl configuration the session was built with. `policy` may
    /// have been changed live since; see [`CrawlSession::policy`].
    pub fn config(&self) -> &CrawlConfig {
        &self.cfg
    }

    /// Resolve a topic name against the (live) taxonomy.
    pub fn find_topic(&self, name: &str) -> Option<ClassId> {
        self.model.read().taxonomy.find(name)
    }

    /// Run a closure against the trained model (live good marking).
    pub fn with_model<R>(&self, f: impl FnOnce(&TrainedModel) -> R) -> R {
        f(&self.model.read())
    }

    /// The compiled inference engine currently serving the crawl hot
    /// path. The returned `Arc` is a consistent snapshot: a concurrent
    /// `mark_topic` swaps the session's copy but never mutates this one.
    /// Pair with a per-thread [`Scratch`] to classify ad hoc documents
    /// exactly as the crawl does.
    pub fn compiled(&self) -> Arc<CompiledModel> {
        Arc::clone(&self.compiled.read())
    }

    /// All visited pages as `(oid, linear R, server)`. Read-locked:
    /// concurrent with other monitors.
    pub fn visited(&self) -> Vec<(Oid, f64, ServerId)> {
        let g = self.store.read();
        let rs =
            g.db.query("select oid, relevance, url from crawl where visited = 1")
                .expect("crawl table exists");
        rs.rows
            .into_iter()
            .map(|row| {
                let oid = Oid(row[0].as_i64().unwrap_or(0) as u64);
                let log_r = row[1].as_f64().unwrap_or(f64::NEG_INFINITY);
                let server = host_server_id(row[2].as_str().unwrap_or(""));
                (oid, log_r.exp(), server)
            })
            .collect()
    }

    /// Run a closure against the session database with **exclusive**
    /// access (ad-hoc DDL/DML, or multi-statement reads that need a
    /// stable view). Blocks workers for the duration — prefer
    /// [`CrawlSession::sql`] or [`CrawlSession::with_db_read`] for
    /// monitoring.
    pub fn with_db<R>(&self, f: impl FnOnce(&mut Database) -> R) -> R {
        let mut g = self.store.write();
        f(&mut g.db)
    }

    /// Run a closure against the session database under the **read**
    /// lock, concurrent with other monitors and with `stats()`. The
    /// closure gets `&Database`, so only `query()` and other `&self`
    /// accessors are available — exactly the §3.7 monitoring surface.
    pub fn with_db_read<R>(&self, f: impl FnOnce(&Database) -> R) -> R {
        let g = self.store.read();
        f(&g.db)
    }

    /// Ad-hoc SQL against the live session (§3.7). SELECT statements run
    /// under the store's *read* lock — many monitors can query at once,
    /// and the crawl only pauses them for its short page-flush critical
    /// sections. Anything else (DDL/DML steering surgery) escalates to
    /// the write lock and runs exclusively at the next page boundary —
    /// through the same planner, so an `UPDATE`/`DELETE` probes the
    /// table's indexes like the equivalent SELECT would.
    pub fn sql(&self, sql: &str) -> DbResult<ResultSet> {
        self.sql_with(sql, &[])
    }

    /// [`CrawlSession::sql`] with positional `?` parameter bindings, for
    /// every statement kind. SELECTs plan through the database's
    /// prepared-statement cache, so a monitor polling the same query text
    /// pays binding + execution only; DML/DDL is planned per call on the
    /// exclusive path ([`Database::execute_with`]).
    pub fn sql_with(&self, sql: &str, params: &[Value]) -> DbResult<ResultSet> {
        {
            let g = self.store.read();
            match g.db.query_with(sql, params) {
                // Not a SELECT: fall through to the exclusive path.
                Err(DbError::ReadOnly(_)) => {}
                other => return other,
            }
        }
        self.store.write().db.execute_with(sql, params)
    }

    /// Every link the session has recorded, `(src, sid_src, dst,
    /// sid_dst)` in discovery order — served from the link graph.
    pub fn links(&self) -> Vec<(Oid, u32, Oid, u32)> {
        let g = self.store.read();
        let rows = g.graph.links().map(|(s, d)| (s.oid, s.sid, d.oid, d.sid));
        rows.collect()
    }

    /// Linear relevance map of visited pages.
    pub fn relevance_map(&self) -> FxHashMap<Oid, f64> {
        self.store.read().graph.visited().collect()
    }

    /// Every landing in landing order, from `LANDING`. Read-locked.
    pub fn landings(&self) -> DbResult<Vec<Landing>> {
        let sql = "select attempt, oid, relevance from landing order by seq";
        let rs = self.store.read().db.query(sql)?;
        let landing = |row: &Vec<Value>| {
            Ok(Landing {
                attempt: frontier::col_i64(row, 0, "landing.attempt")? as u64,
                oid: Oid(frontier::col_i64(row, 1, "landing.oid")? as u64),
                relevance: frontier::col_f64(row, 2, "landing.relevance")?,
            })
        };
        rs.rows.iter().map(landing).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::events::CrawlObserver;
    use crate::metrics::Stage;
    use crate::tables::crawl_col;
    use focus_classifier::train::{train, TrainConfig};
    use focus_types::ClassId;
    use focus_webgraph::{FetchError, FetchedPage, SimFetcher, WebConfig, WebGraph};
    use std::sync::Mutex as StdMutex;

    fn trained_model(graph: &Arc<WebGraph>, good: &str) -> TrainedModel {
        let mut taxonomy = graph.taxonomy().clone();
        let topic = taxonomy.find(good).unwrap();
        taxonomy.mark_good(topic).unwrap();
        let mut examples = Vec::new();
        for c in taxonomy.all() {
            if c == ClassId::ROOT {
                continue;
            }
            for d in graph.example_docs(c, 6, 99) {
                examples.push((c, d));
            }
        }
        train(&taxonomy, &examples, &TrainConfig::default())
    }

    fn setup(policy: CrawlPolicy, max_fetches: u64) -> (Arc<WebGraph>, Arc<CrawlSession>) {
        setup_with(CrawlConfig {
            policy,
            max_fetches,
            ..CrawlConfig::default()
        })
    }

    /// `cfg` with this module's usual pool and distillation settings.
    fn setup_with(cfg: CrawlConfig) -> (Arc<WebGraph>, Arc<CrawlSession>) {
        let graph = Arc::new(WebGraph::generate(WebConfig::tiny(13)));
        let model = trained_model(&graph, "recreation/cycling");
        let fetcher = Arc::new(SimFetcher::new(Arc::clone(&graph), None));
        let cfg = CrawlConfig {
            threads: 2,
            distill_every: Some(150),
            hub_boost_top_k: 5,
            ..cfg
        };
        let session = Arc::new(CrawlSession::new(fetcher, model, cfg).unwrap());
        (graph, session)
    }

    #[test]
    fn focused_crawl_harvests_relevant_pages() {
        // Budget stays under the tiny world's cycling-cluster size (~63
        // pages): sustained harvest is only meaningful when the topic is
        // not exhausted, as in the paper's Web-scale crawls.
        let (graph, session) = setup(CrawlPolicy::SoftFocus, 160);
        let cycling = graph.taxonomy().find("recreation/cycling").unwrap();
        let seeds = focus_webgraph::search::topic_start_set(&graph, cycling, 15);
        session.seed(&seeds).unwrap();
        let stats = session.run().unwrap();
        assert!(stats.successes > 80, "only {} successes", stats.successes);
        assert!(
            stats.mean_harvest() > 0.25,
            "harvest too low: {}",
            stats.mean_harvest()
        );
        assert!(stats.distillations > 0, "distillation trigger never fired");
    }

    #[test]
    fn stage_clock_names_the_workers_time() {
        let (graph, session) = setup(CrawlPolicy::SoftFocus, 120);
        let cycling = graph.taxonomy().find("recreation/cycling").unwrap();
        let seeds = focus_webgraph::search::topic_start_set(&graph, cycling, 10);
        session.seed(&seeds).unwrap();
        let stats = session.run().unwrap();
        let m = &stats.metrics;
        assert!(
            m.covered() >= 0.95,
            "{:.3} of worker time named",
            m.covered()
        );
        for stage in [Stage::Claim, Stage::FetchWait, Stage::LandCompletion] {
            assert!(m.stage(stage).count > 0, "{} never ran", stage.name());
        }
        let landed = m.stage(Stage::LandBlocking).count + m.stage(Stage::LandTry).count;
        assert!(landed > 0, "{m:?}");
    }

    /// `CRAWL_STATE` is rewritten at every commit point, so a write must
    /// reuse its record: a delete + insert would leave a dead record per
    /// commit, and the table (and every scan of it) would grow with the
    /// number of commits.
    #[test]
    fn crawl_state_stays_one_page_across_commits() {
        let (graph, session) = setup_with(CrawlConfig {
            max_fetches: 120,
            durability: Durability::Wal { group_commit: 8 },
            ..CrawlConfig::default()
        });
        let cycling = graph.taxonomy().find("recreation/cycling").unwrap();
        let seeds = focus_webgraph::search::topic_start_set(&graph, cycling, 10);
        session.seed(&seeds).unwrap();
        session.run().unwrap();
        for _ in 0..500 {
            session.commit_state(&mut session.store.write()).unwrap();
        }
        session.with_db(|db| {
            let (_, catalog) = db.parts();
            let heap = &catalog.table(catalog.table_id("crawl_state").unwrap()).heap;
            assert_eq!((heap.len(), heap.num_pages()), (1, 1));
        });
        let row = session
            .sql("select attempts, budget from crawl_state")
            .unwrap();
        let attempts = session.stats().attempts as i64;
        assert_eq!(row.rows[0][..2], [Value::Int(attempts), Value::Int(120)]);
    }

    #[test]
    fn focused_beats_unfocused() {
        let run = |policy| {
            let (graph, session) = setup(policy, 350);
            let cycling = graph.taxonomy().find("recreation/cycling").unwrap();
            let seeds = focus_webgraph::search::topic_start_set(&graph, cycling, 15);
            session.seed(&seeds).unwrap();
            session.run().unwrap();
            // Harvest of the *tail* (after the start set's immediate
            // neighborhood is exhausted).
            let landings = session.landings().unwrap();
            let tail: Vec<f64> = (landings.iter().skip(landings.len() / 2))
                .map(|l| l.relevance)
                .collect();
            tail.iter().sum::<f64>() / tail.len().max(1) as f64
        };
        let soft = run(CrawlPolicy::SoftFocus);
        let unfocused = run(CrawlPolicy::Unfocused);
        assert!(
            soft > unfocused * 2.0,
            "soft focus tail harvest {soft} should dominate unfocused {unfocused}"
        );
    }

    #[test]
    fn crawl_survives_failures_and_counts_them() {
        let (graph, session) = setup(CrawlPolicy::SoftFocus, 500);
        let cycling = graph.taxonomy().find("recreation/cycling").unwrap();
        let seeds = focus_webgraph::search::topic_start_set(&graph, cycling, 15);
        session.seed(&seeds).unwrap();
        let stats = session.run().unwrap();
        // The tiny web has ~5% failing pages; a 500-attempt crawl should
        // hit some and keep going.
        assert!(stats.failures > 0, "no failures encountered");
        assert_eq!(
            stats.attempts,
            stats.successes + stats.failures,
            "attempts must equal successes + failures"
        );
    }

    #[test]
    fn visited_and_links_are_recorded() {
        let (graph, session) = setup(CrawlPolicy::SoftFocus, 150);
        let cycling = graph.taxonomy().find("recreation/cycling").unwrap();
        let seeds = focus_webgraph::search::topic_start_set(&graph, cycling, 10);
        session.seed(&seeds).unwrap();
        session.run().unwrap();
        let visited = session.visited();
        assert!(!visited.is_empty());
        for (_, r, _) in &visited {
            assert!((0.0..=1.0 + 1e-9).contains(r), "relevance {r} out of range");
        }
        assert!(!session.links().is_empty());
        // CRAWL/LINK queryable via SQL.
        let n = session.with_db(|db| {
            db.execute("select count(*) from link")
                .unwrap()
                .scalar_i64()
                .unwrap()
        });
        assert!(n > 0);
    }

    #[test]
    fn single_thread_is_deterministic() {
        let run_once = || {
            let graph = Arc::new(WebGraph::generate(WebConfig::tiny(13)));
            let cycling = graph.taxonomy().find("recreation/cycling").unwrap();
            let seeds = focus_webgraph::search::topic_start_set(&graph, cycling, 10);
            let model = trained_model(&graph, "recreation/cycling");
            let fetcher = Arc::new(SimFetcher::new(Arc::clone(&graph), None));
            let session = Arc::new(
                CrawlSession::new(
                    fetcher,
                    model,
                    CrawlConfig {
                        threads: 1,
                        max_fetches: 200,
                        distill_every: None,
                        ..CrawlConfig::default()
                    },
                )
                .unwrap(),
            );
            session.seed(&seeds).unwrap();
            session.run().unwrap();
            session.landings().unwrap()
        };
        assert_eq!(run_once(), run_once());
    }

    /// Observer that records every event, for sequence assertions.
    struct Recorder(StdMutex<Vec<CrawlEvent>>);

    impl CrawlObserver for Arc<Recorder> {
        fn on_event(&self, event: &CrawlEvent) {
            self.0.lock().unwrap().push(event.clone());
        }
    }

    fn position_of(events: &[CrawlEvent], pred: impl Fn(&CrawlEvent) -> bool) -> usize {
        events
            .iter()
            .position(pred)
            .unwrap_or_else(|| panic!("event not found in {events:?}"))
    }

    #[test]
    fn pause_resume_stop_events_are_ordered() {
        for fetch_pool in [0, 4] {
            pause_resume_stop_events_are_ordered_at(fetch_pool);
        }
    }

    fn pause_resume_stop_events_are_ordered_at(fetch_pool: usize) {
        let (graph, session) = setup_with(CrawlConfig {
            max_fetches: 100_000,
            fetch_pool,
            ..CrawlConfig::default()
        });
        let cycling = graph.taxonomy().find("recreation/cycling").unwrap();
        session
            .seed(&focus_webgraph::search::topic_start_set(
                &graph, cycling, 10,
            ))
            .unwrap();
        let recorder = Arc::new(Recorder(StdMutex::new(Vec::new())));
        let run = session
            .start_with(StartOptions {
                observers: vec![Arc::new(Arc::clone(&recorder))],
                ..StartOptions::default()
            })
            .unwrap();
        // Let some pages land, then pause -> resume -> stop.
        while run.stats().successes < 5 {
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        run.pause();
        while run.state() != RunState::Paused {
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        // `Paused` is set by whichever worker drained the command; a
        // peer already past its own pause check may still finish the
        // one claim it was making. Give it its page boundary.
        std::thread::sleep(std::time::Duration::from_millis(20));
        let paused_attempts = run.stats().attempts;
        // A paused crawl stops claiming; attempts stay flat.
        std::thread::sleep(std::time::Duration::from_millis(20));
        assert_eq!(
            run.stats().attempts,
            paused_attempts,
            "claimed while paused"
        );
        run.resume();
        // Wait until pages claimed *after* the resume have landed.
        // Attempts are counted when a batch is claimed, so "five more
        // attempts" can be one claim whose pages `stop()` overtakes, and
        // "five more successes" can be the jobs the paused workers held
        // and resubmitted. Landings beyond the attempts counted so far
        // can only be of new claims.
        let claimed = run.stats().attempts;
        let landed = |s: CrawlStats| s.successes + s.failures;
        while landed(run.stats()) < claimed + 5 {
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        run.stop();
        let stats = run.join().unwrap();
        assert!(stats.attempts > paused_attempts, "no progress after resume");
        let events = recorder.0.lock().unwrap().clone();
        let paused = position_of(&events, |e| matches!(e, CrawlEvent::Paused));
        let resumed = position_of(&events, |e| matches!(e, CrawlEvent::Resumed));
        let stopped = position_of(&events, |e| matches!(e, CrawlEvent::Stopped { .. }));
        assert!(paused < resumed, "Paused at {paused}, Resumed at {resumed}");
        assert!(
            resumed < stopped,
            "Resumed at {resumed}, Stopped at {stopped}"
        );
        // Classification resumed between Resumed and Stopped.
        assert!(
            events[resumed..stopped]
                .iter()
                .any(|e| matches!(e, CrawlEvent::PageClassified { .. })),
            "no pages classified between resume and stop: {events:?}"
        );
    }

    #[test]
    fn budget_exhaustion_is_announced_once() {
        let (graph, session) = setup(CrawlPolicy::SoftFocus, 40);
        let cycling = graph.taxonomy().find("recreation/cycling").unwrap();
        session
            .seed(&focus_webgraph::search::topic_start_set(
                &graph, cycling, 10,
            ))
            .unwrap();
        let mut run = session.start().unwrap();
        let events = run.take_events().unwrap();
        let stats = run.join().unwrap();
        assert_eq!(stats.attempts, 40);
        let all: Vec<CrawlEvent> = events.collect();
        let exhausted = all
            .iter()
            .filter(|e| matches!(e, CrawlEvent::BudgetExhausted { .. }))
            .count();
        assert_eq!(
            exhausted, 1,
            "expected exactly one BudgetExhausted: {all:?}"
        );
        let classified = all
            .iter()
            .filter(|e| matches!(e, CrawlEvent::PageClassified { .. }))
            .count() as u64;
        assert_eq!(classified, stats.successes, "one event per success");
    }

    /// A fetcher whose pages panic the worker after `ok_before` fetches.
    struct PanickingFetcher {
        inner: Arc<SimFetcher>,
        ok_before: u64,
        served: std::sync::atomic::AtomicU64,
    }

    impl Fetcher for PanickingFetcher {
        fn fetch(&self, oid: Oid) -> Result<FetchedPage, FetchError> {
            let n = self.served.fetch_add(1, Ordering::Relaxed);
            if n >= self.ok_before {
                panic!("fetcher exploded on purpose (fetch #{n})");
            }
            self.inner.fetch(oid)
        }

        fn fetch_count(&self) -> u64 {
            self.served.load(Ordering::Relaxed)
        }

        fn backlinks(&self, oid: Oid) -> Option<Vec<(Oid, String)>> {
            self.inner.backlinks(oid)
        }
    }

    #[test]
    fn worker_panic_surfaces_as_event_and_error() {
        let graph = Arc::new(WebGraph::generate(WebConfig::tiny(13)));
        let model = trained_model(&graph, "recreation/cycling");
        let fetcher = Arc::new(PanickingFetcher {
            inner: Arc::new(SimFetcher::new(Arc::clone(&graph), None)),
            ok_before: 10,
            served: std::sync::atomic::AtomicU64::new(0),
        });
        let session = Arc::new(
            CrawlSession::new(
                fetcher,
                model,
                CrawlConfig {
                    threads: 2,
                    max_fetches: 500,
                    distill_every: None,
                    ..CrawlConfig::default()
                },
            )
            .unwrap(),
        );
        let cycling = graph.taxonomy().find("recreation/cycling").unwrap();
        session
            .seed(&focus_webgraph::search::topic_start_set(
                &graph, cycling, 10,
            ))
            .unwrap();
        // Silence the worker's panic backtrace; it is expected here.
        let prev_hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let mut run = session.start().unwrap();
        let events = run.take_events().unwrap();
        let outcome = run.join();
        std::panic::set_hook(prev_hook);
        let err = outcome.expect_err("worker panic must fail the run");
        assert!(
            matches!(&err, CrawlError::Worker(m) if m.contains("exploded")),
            "unexpected outcome: {err:?}"
        );
        let all: Vec<CrawlEvent> = events.collect();
        assert!(
            all.iter()
                .any(|e| matches!(e, CrawlEvent::WorkerFailed { .. })),
            "no WorkerFailed event: {all:?}"
        );
    }

    /// A fetcher that panics while `explode` is set.
    struct TogglePanicFetcher {
        inner: Arc<SimFetcher>,
        explode: std::sync::atomic::AtomicBool,
    }

    impl Fetcher for TogglePanicFetcher {
        fn fetch(&self, oid: Oid) -> Result<FetchedPage, FetchError> {
            if self.explode.load(Ordering::Relaxed) {
                panic!("toggled failure");
            }
            self.inner.fetch(oid)
        }

        fn fetch_count(&self) -> u64 {
            self.inner.fetch_count()
        }
    }

    #[test]
    fn session_is_reusable_after_a_failed_run() {
        let graph = Arc::new(WebGraph::generate(WebConfig::tiny(13)));
        let model = trained_model(&graph, "recreation/cycling");
        let fetcher = Arc::new(TogglePanicFetcher {
            inner: Arc::new(SimFetcher::new(Arc::clone(&graph), None)),
            explode: std::sync::atomic::AtomicBool::new(true),
        });
        let session = Arc::new(
            CrawlSession::new(
                Arc::clone(&fetcher) as Arc<dyn Fetcher>,
                model,
                CrawlConfig {
                    // One worker, deterministically: with two, both can
                    // claim before the first panic aborts the pool,
                    // leaking *every* seed as CLAIMED — the healed rerun
                    // then (correctly) stagnates with zero successes,
                    // which is not the property under test. One worker
                    // claims one batch (8 of the 10 seeds), panics, and
                    // provably leaves poppable work behind.
                    threads: 1,
                    max_fetches: 100,
                    distill_every: None,
                    ..CrawlConfig::default()
                },
            )
            .unwrap(),
        );
        let cycling = graph.taxonomy().find("recreation/cycling").unwrap();
        session
            .seed(&focus_webgraph::search::topic_start_set(
                &graph, cycling, 10,
            ))
            .unwrap();
        let prev_hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let failed = session.run();
        std::panic::set_hook(prev_hook);
        assert!(matches!(failed, Err(CrawlError::Worker(_))), "{failed:?}");
        // Heal the fetcher; a command pushed to the dead run must not
        // leak into the next one, and the next run must be judged on its
        // own work, not the stale panic.
        fetcher.explode.store(false, Ordering::Relaxed);
        let stats = session.run().expect("healthy rerun succeeds");
        assert!(stats.successes > 0, "no progress after restart");
    }

    /// A fetcher whose very first fetch panics (unwinding out of the
    /// worker with claims checked out and the in-flight gauge raised),
    /// and which serves hard 404s ever after.
    struct PanicThenDeadFetcher {
        served: std::sync::atomic::AtomicU64,
    }

    impl Fetcher for PanicThenDeadFetcher {
        fn fetch(&self, oid: Oid) -> Result<FetchedPage, FetchError> {
            if self.served.fetch_add(1, Ordering::Relaxed) == 0 {
                panic!("first fetch dies with the batch checked out");
            }
            Err(FetchError::NotFound(oid))
        }

        fn fetch_count(&self) -> u64 {
            self.served.load(Ordering::Relaxed)
        }
    }

    #[test]
    fn in_flight_leaked_by_a_panicked_run_does_not_wedge_the_next() {
        // The panic unwinds with several claims never released: the
        // in-flight gauge stays raised and the rows stay CLAIMED. The
        // next run must still be able to detect stagnation — if the
        // stale gauge leaked across runs, its workers would wait for
        // phantom in-flight work forever and this test would hang.
        let graph = Arc::new(WebGraph::generate(WebConfig::tiny(13)));
        let model = trained_model(&graph, "recreation/cycling");
        let session = Arc::new(
            CrawlSession::new(
                Arc::new(PanicThenDeadFetcher {
                    served: std::sync::atomic::AtomicU64::new(0),
                }),
                model,
                CrawlConfig {
                    threads: 2,
                    max_fetches: 1000,
                    max_tries: 3,
                    distill_every: None,
                    batch_size: 8,
                    ..CrawlConfig::default()
                },
            )
            .unwrap(),
        );
        session.seed(&[Oid(1), Oid(2), Oid(3)]).unwrap();
        let prev_hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let failed = session.run();
        std::panic::set_hook(prev_hook);
        assert!(matches!(failed, Err(CrawlError::Worker(_))), "{failed:?}");

        // Fresh frontier, everything 404s: the rerun must stagnate and
        // return rather than spin on the leaked gauge.
        session.seed(&[Oid(4), Oid(5), Oid(6)]).unwrap();
        let stats = session.run().expect("rerun must terminate");
        assert!(stats.failures > 0, "rerun made no attempts: {stats:?}");
    }

    #[test]
    fn checkpoint_restores_into_fresh_session() {
        let (graph, session) = setup(CrawlPolicy::SoftFocus, 80);
        let cycling = graph.taxonomy().find("recreation/cycling").unwrap();
        session
            .seed(&focus_webgraph::search::topic_start_set(
                &graph, cycling, 10,
            ))
            .unwrap();
        session.run().unwrap();
        // The maintenance pass distills (filling HUBS/AUTH) and requeues
        // the top hubs, whose rows keep their own log R and take the top
        // priority; and a table the crawl knows nothing of rides along.
        assert!(session.maintenance_pass(3).unwrap() > 0);
        session.with_db(|db| {
            db.execute("create table notes (k int)").unwrap();
            db.execute("insert into notes values (7), (11)").unwrap();
        });
        let ckpt = session.checkpoint().unwrap();
        let tables = |s: &CrawlSession| {
            let all =
                |db: &Database, t: &str| db.query(&format!("select * from {t}")).unwrap().rows;
            let names = ["crawl", "link", "hubs", "auth", "notes"];
            s.with_db_read(|db| names.map(|t| all(db, t)))
        };
        let mut stored = tables(&session);
        let revisit = |r: &Vec<Value>| {
            let (log_r, negrel) = (&r[crawl_col::RELEVANCE], &r[crawl_col::NEGREL]);
            r[crawl_col::KCID].as_i64() >= Some(0) && negrel.as_f64() != log_r.as_f64().map(|x| -x)
        };
        assert!(stored[0].iter().any(revisit), "no requeued revisit");
        assert!(
            stored[2..].iter().all(|t| !t.is_empty()),
            "empty HUBS/AUTH/notes"
        );
        for row in &mut stored[0] {
            if row[crawl_col::VISITED] == Value::Int(visited::CLAIMED) {
                row[crawl_col::VISITED] = Value::Int(visited::FRONTIER);
            }
        }
        let distilled = session.distill_now().unwrap();
        assert!(!distilled.hubs.is_empty() && !distilled.auths.is_empty());
        assert!(ckpt.visited_len() > 0);
        assert!(
            ckpt.frontier_len() > 0,
            "budget-bounded crawl leaves a frontier"
        );
        let (checkpointed, landed) = (session.stats(), session.landings().unwrap());
        assert_eq!(checkpointed.attempts, 80);

        // Resume in a brand-new session against the same web.
        let model = trained_model(&graph, "recreation/cycling");
        let fetcher = Arc::new(SimFetcher::new(Arc::clone(&graph), None));
        let restored = Arc::new(
            CrawlSession::restore(
                fetcher,
                model,
                CrawlConfig {
                    threads: 2,
                    max_fetches: 80,
                    distill_every: Some(150),
                    ..CrawlConfig::default()
                },
                &ckpt,
            )
            .unwrap(),
        );
        // Every table comes back as it was, heap order included; only a
        // claim in flight goes back to the frontier.
        assert_eq!(tables(&restored), stored, "CRAWL, LINK, HUBS, AUTH, notes");
        // So does the same copy restored into a file, dropped, and
        // recovered from it.
        let path = std::env::temp_dir().join(format!("crawl-ckpt-{}.db", std::process::id()));
        let cleanup = || {
            let _ = std::fs::remove_file(&path);
            let _ = std::fs::remove_file(minirel::wal_path_for(&path));
        };
        cleanup();
        let file = CrawlConfig {
            durability: Durability::File {
                path: path.clone(),
                group_commit: 8,
            },
            ..CrawlConfig::default()
        };
        let model = || trained_model(&graph, "recreation/cycling");
        let sim = || Arc::new(SimFetcher::new(Arc::clone(&graph), None));
        drop(CrawlSession::restore(sim(), model(), file.clone(), &ckpt).unwrap());
        let recovered = CrawlSession::recover(sim(), model(), file).unwrap();
        assert_eq!(tables(&recovered), stored, "through a file");
        drop(recovered);
        cleanup();
        assert_eq!(restored.stats().attempts, 80, "stats carried over");
        let budget = restored.counters.budget.load(Ordering::Acquire);
        assert_eq!(budget, 80, "and the budget, spent");
        let good = restored.with_model(|m| m.taxonomy.good_set());
        assert_eq!(good, vec![cycling], "and the marking");
        assert_eq!(restored.visited().len(), ckpt.visited_len());
        // The link graph was rebuilt from the checkpoint: same links in
        // the same order, and a pass over it finds what the original's
        // did (dense ids differ, so normalization sums round apart).
        assert_eq!(restored.links(), session.links());
        assert_eq!(restored.relevance_map(), session.relevance_map());
        let again = restored.distill_now().unwrap();
        for (want, got) in [
            (&distilled.hubs, &again.hubs),
            (&distilled.auths, &again.auths),
        ] {
            assert_eq!(want.len(), got.len());
            let got: FxHashMap<Oid, f64> = got.iter().copied().collect();
            for (o, s) in want {
                assert!(
                    got.get(o).is_some_and(|g| (g - s).abs() < 1e-9),
                    "{o:?} scored {s} originally, {:?} after restore",
                    got.get(o)
                );
            }
        }
        restored.add_budget(60);
        let stats = restored.run().unwrap();
        assert_eq!(
            stats.attempts, 140,
            "run continued against the old frontier"
        );
        assert!(
            stats.successes > checkpointed.successes,
            "no new pages after restore"
        );
        // The harvest series is continuous: early entries are the
        // checkpointed ones.
        assert_eq!(
            restored.landings().unwrap()[..landed.len()],
            landed[..],
            "restored harvest prefix diverged"
        );
    }

    #[test]
    fn seeds_carry_real_urls() {
        // Satellite of the empty-URL bug: `seed()` must resolve URLs via
        // the fetcher's metadata so claims, checkpoints, and monitoring
        // SQL never see "" for seeds.
        let (graph, session) = setup(CrawlPolicy::SoftFocus, 50);
        let cycling = graph.taxonomy().find("recreation/cycling").unwrap();
        let seeds = focus_webgraph::search::topic_start_set(&graph, cycling, 10);
        session.seed(&seeds).unwrap();
        let empty = session.with_db(|db| {
            db.execute("select count(*) from crawl where url = ''")
                .unwrap()
                .scalar_i64()
                .unwrap()
        });
        assert_eq!(empty, 0, "seeded frontier rows must carry real URLs");
        let mut g = session.store.write();
        let claim = frontier::claim_next(&mut g.db).unwrap().unwrap();
        assert!(!claim.url.is_empty(), "claims of seeds carry the URL");
        drop(g);
        let restored = restore_tiny(&graph, &session.checkpoint().unwrap()).unwrap();
        let rows = |sql| restored.sql(sql).unwrap().scalar_i64().unwrap();
        assert!(rows("select count(*) from crawl") > 0);
        assert_eq!(
            rows("select count(*) from crawl where url = ''"),
            0,
            "checkpointed seeds must carry URLs"
        );
    }

    /// A fetcher that always times out (everything is retriable, nothing
    /// ever lands).
    struct AllTimeoutFetcher;

    impl Fetcher for AllTimeoutFetcher {
        fn fetch(&self, oid: Oid) -> Result<FetchedPage, FetchError> {
            Err(FetchError::Timeout(oid))
        }

        fn fetch_count(&self) -> u64 {
            0
        }
    }

    /// Two and four workers on one store land in groups (a busy lock
    /// defers the landing, `tests/deferred_landing.rs`); each claim's
    /// gauges still fall exactly once, under the guard that lands it.
    #[test]
    fn contended_group_landings_return_every_gauge_to_zero() {
        for threads in [2, 4] {
            let graph = Arc::new(WebGraph::generate(WebConfig::tiny(13)));
            let cfg = CrawlConfig {
                threads,
                max_fetches: 400,
                distill_every: Some(40),
                ..CrawlConfig::default()
            };
            let fetcher = Arc::new(SimFetcher::new(Arc::clone(&graph), None));
            let model = trained_model(&graph, "recreation/cycling");
            let session = Arc::new(CrawlSession::new(fetcher, model, cfg).unwrap());
            let cycling = graph.taxonomy().find("recreation/cycling").unwrap();
            let seeds = focus_webgraph::search::topic_start_set(&graph, cycling, 3);
            session.seed(&seeds).unwrap();
            let stats = session.run().unwrap();
            assert_eq!(stats.attempts, 400);
            assert_eq!(stats.attempts, stats.successes + stats.failures);
            session.check_invariants().unwrap();
        }
    }

    #[test]
    fn in_flight_drains_on_failure_paths() {
        // Every attempt fails; if any error path forgot to decrement
        // `in_flight`, the EmptyFrontier branch would see phantom work
        // forever and the run would never stagnate (this test would
        // hang).
        let graph = Arc::new(WebGraph::generate(WebConfig::tiny(13)));
        let model = trained_model(&graph, "recreation/cycling");
        let session = Arc::new(
            CrawlSession::new(
                Arc::new(AllTimeoutFetcher),
                model,
                CrawlConfig {
                    threads: 3,
                    max_fetches: 1000,
                    max_tries: 2,
                    distill_every: None,
                    ..CrawlConfig::default()
                },
            )
            .unwrap(),
        );
        session.seed(&[Oid(1), Oid(2), Oid(3)]).unwrap();
        let recorder = Arc::new(Recorder(StdMutex::new(Vec::new())));
        let run = session
            .start_with(StartOptions {
                observers: vec![Arc::new(Arc::clone(&recorder))],
                ..StartOptions::default()
            })
            .unwrap();
        let stats = run.join().unwrap();
        // 3 seeds × 2 tries each, then all dead.
        assert_eq!(stats.attempts, 6);
        assert_eq!(stats.failures, 6);
        assert_eq!(stats.successes, 0);
        let events = recorder.0.lock().unwrap().clone();
        let stagnated = events
            .iter()
            .filter(|e| matches!(e, CrawlEvent::FrontierStagnated { .. }))
            .count();
        assert_eq!(
            stagnated, 1,
            "stagnation announced exactly once: {events:?}"
        );
    }

    /// A fetcher that holds every fetch for a fixed delay, widening the
    /// window in which a peer worker sees an empty frontier while work
    /// is in flight.
    struct SlowFetcher {
        inner: Arc<SimFetcher>,
        delay: std::time::Duration,
    }

    impl Fetcher for SlowFetcher {
        fn fetch(&self, oid: Oid) -> Result<FetchedPage, FetchError> {
            std::thread::sleep(self.delay);
            self.inner.fetch(oid)
        }

        fn fetch_count(&self) -> u64 {
            self.inner.fetch_count()
        }

        fn url_of(&self, oid: Oid) -> Option<String> {
            self.inner.url_of(oid)
        }
    }

    #[test]
    fn workers_wait_for_in_flight_peers_instead_of_finishing() {
        // One seed, several workers: all but one worker see an empty
        // frontier immediately while the fetch is in flight. They must
        // idle-wait — not emit FrontierStagnated or exit — because the
        // in-flight page is about to enqueue its outlinks.
        let graph = Arc::new(WebGraph::generate(WebConfig::tiny(13)));
        let cycling = graph.taxonomy().find("recreation/cycling").unwrap();
        let seeds = focus_webgraph::search::topic_start_set(&graph, cycling, 1);
        let model = trained_model(&graph, "recreation/cycling");
        let fetcher = Arc::new(SlowFetcher {
            inner: Arc::new(SimFetcher::new(Arc::clone(&graph), None)),
            delay: std::time::Duration::from_millis(3),
        });
        let budget = 25;
        let session = Arc::new(
            CrawlSession::new(
                fetcher,
                model,
                CrawlConfig {
                    threads: 4,
                    max_fetches: budget,
                    distill_every: None,
                    // claim-per-page: maximizes empty-frontier windows
                    batch_size: 1,
                    ..CrawlConfig::default()
                },
            )
            .unwrap(),
        );
        session.seed(&seeds).unwrap();
        let recorder = Arc::new(Recorder(StdMutex::new(Vec::new())));
        let run = session
            .start_with(StartOptions {
                observers: vec![Arc::new(Arc::clone(&recorder))],
                ..StartOptions::default()
            })
            .unwrap();
        let stats = run.join().unwrap();
        assert!(
            stats.attempts > 1,
            "peers must survive the single-seed start: {stats:?}"
        );
        let events = recorder.0.lock().unwrap().clone();
        for e in &events {
            if let CrawlEvent::FrontierStagnated { attempts } = e {
                assert!(
                    *attempts > 1,
                    "premature stagnation with a peer in flight: {events:?}"
                );
            }
        }
    }

    #[test]
    fn stop_mid_batch_returns_unfetched_claims_within_one_page() {
        for fetch_pool in [0, 4] {
            stop_mid_batch_returns_unfetched_claims_at(fetch_pool);
        }
    }

    fn stop_mid_batch_returns_unfetched_claims_at(fetch_pool: usize) {
        // A stop (here: pause → stop while parked) must end the batch at
        // the next page boundary and hand the unfetched remainder back
        // to the frontier — not fetch out the whole batch first.
        let graph = Arc::new(WebGraph::generate(WebConfig::tiny(13)));
        let cycling = graph.taxonomy().find("recreation/cycling").unwrap();
        let seeds = focus_webgraph::search::topic_start_set(&graph, cycling, 10);
        let model = trained_model(&graph, "recreation/cycling");
        let fetcher = Arc::new(SlowFetcher {
            inner: Arc::new(SimFetcher::new(Arc::clone(&graph), None)),
            delay: std::time::Duration::from_millis(10),
        });
        let session = Arc::new(
            CrawlSession::new(
                fetcher,
                model,
                CrawlConfig {
                    threads: 1,
                    max_fetches: 100_000,
                    distill_every: None,
                    batch_size: 16,
                    fetch_pool,
                    ..CrawlConfig::default()
                },
            )
            .unwrap(),
        );
        session.seed(&seeds).unwrap();
        let run = session.start().unwrap();
        while run.stats().successes < 1 {
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        run.pause();
        while run.state() != RunState::Paused && !run.is_finished() {
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        run.stop();
        let stats = run.join().unwrap();
        // The worker paused mid-batch after a page or two of its
        // 16-claim batch; the rest must have been returned, not fetched.
        assert!(
            stats.successes + stats.failures < stats.attempts,
            "stop processed the whole batch: {stats:?}"
        );
        // Nothing may be left stuck in the CLAIMED state.
        session.check_invariants().unwrap();
        // The returned work is poppable again.
        let mut g = session.store.write();
        assert!(
            frontier::claim_next(&mut g.db).unwrap().is_some(),
            "returned claims must be poppable"
        );
    }

    #[test]
    fn batch_size_override_applies_per_run() {
        let (graph, session) = setup_with(CrawlConfig {
            max_fetches: 62,
            batch_size: 4,
            ..CrawlConfig::default()
        });
        let cycling = graph.taxonomy().find("recreation/cycling").unwrap();
        session
            .seed(&focus_webgraph::search::topic_start_set(
                &graph, cycling, 10,
            ))
            .unwrap();
        let stats = session.run().unwrap();
        // The budget is honored exactly even when it is not a multiple
        // of the batch size (claims are clamped to the remainder).
        assert_eq!(stats.attempts, 62);
        assert!(stats.successes > 0);
    }

    #[test]
    fn distill_now_on_a_fresh_session_returns_empty_not_panic() {
        // Regression for the `.expect("just distilled")` panic path: an
        // empty link graph distills to an empty result.
        let (_graph, session) = setup(CrawlPolicy::SoftFocus, 10);
        let result = session
            .distill_now()
            .expect("empty-graph distillation succeeds");
        assert!(result.hubs.is_empty(), "no edges, no hubs");
        assert!(result.auths.is_empty(), "no edges, no authorities");
        assert!(session.last_distill().is_some(), "result recorded");
        assert_eq!(session.stats().distillations, 1);
        // maintenance_pass rides on the same path: no hubs, no requeues.
        assert_eq!(session.maintenance_pass(5).unwrap(), 0);
    }

    /// `graph`'s tiny web, restored from `ckpt` with the usual model.
    fn restore_tiny(graph: &Arc<WebGraph>, ckpt: &CrawlCheckpoint) -> DbResult<CrawlSession> {
        let model = trained_model(graph, "recreation/cycling");
        let fetcher = Arc::new(SimFetcher::new(Arc::clone(graph), None));
        CrawlSession::restore(fetcher, model, CrawlConfig::default(), ckpt)
    }

    #[test]
    fn checkpoint_surfaces_corrupt_crawl_rows() {
        // Regression for the silent unwrap_or decodes: a torn CRAWL row
        // must fail loudly, not resurrect an Oid(0)/empty-URL page. The
        // checkpoint copies the row as it is; the restored run fails at
        // the claim that reads it.
        let (graph, session) = setup(CrawlPolicy::SoftFocus, 10);
        session.with_db(|db| {
            let tid = db.table_id("crawl").unwrap();
            let mut row = tables::frontier_row(Oid(7), "u7", -0.5, 0);
            row[crawl_col::URL] = Value::Null;
            db.insert(tid, row).unwrap();
        });
        let restored = Arc::new(restore_tiny(&graph, &session.checkpoint().unwrap()).unwrap());
        let err = restored.run().unwrap_err();
        assert!(
            matches!(err, CrawlError::Db(DbError::Corrupt(ref m)) if m.contains("url")),
            "expected Corrupt(url), got {err:?}"
        );
    }

    #[test]
    fn checkpoint_surfaces_corrupt_link_rows() {
        let (graph, session) = setup(CrawlPolicy::SoftFocus, 10);
        session.with_db(|db| {
            let tid = db.table_id("link").unwrap();
            db.insert(
                tid,
                vec![
                    Value::Int(1),
                    Value::Int(2),
                    Value::Null, // torn oid_dst
                    Value::Int(4),
                    Value::Int(5),
                ],
            )
            .unwrap();
        });
        let restored = restore_tiny(&graph, &session.checkpoint().unwrap());
        let err = restored
            .err()
            .expect("a torn LINK row must fail the restore");
        assert!(
            matches!(err, DbError::Corrupt(ref m) if m.contains("oid_dst")),
            "expected Corrupt(link.oid_dst), got {err:?}"
        );
    }

    #[test]
    fn set_policy_switches_live() {
        let (graph, session) = setup(CrawlPolicy::SoftFocus, 10_000);
        let cycling = graph.taxonomy().find("recreation/cycling").unwrap();
        session
            .seed(&focus_webgraph::search::topic_start_set(
                &graph, cycling, 10,
            ))
            .unwrap();
        let run = session.start().unwrap();
        run.set_policy(CrawlPolicy::Unfocused);
        while session.policy() != CrawlPolicy::Unfocused && !run.is_finished() {
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        assert_eq!(session.policy(), CrawlPolicy::Unfocused);
        run.stop();
        run.join().unwrap();
    }

    #[test]
    fn fetch_failed_events_carry_kind_and_outcome() {
        // Satellite of the enriched-event contract: every failure names
        // its error kind and actual disposition, and each requeue is
        // announced (FetchRetried) before the retry's own verdict.
        let graph = Arc::new(WebGraph::generate(WebConfig::tiny(13)));
        let model = trained_model(&graph, "recreation/cycling");
        let session = Arc::new(
            CrawlSession::new(
                Arc::new(AllTimeoutFetcher),
                model,
                CrawlConfig {
                    threads: 1,
                    max_fetches: 100,
                    max_tries: 3,
                    distill_every: None,
                    backoff: BackoffConfig { base: 2, max: 4 },
                    ..CrawlConfig::default()
                },
            )
            .unwrap(),
        );
        session.seed(&[Oid(1)]).unwrap();
        let recorder = Arc::new(Recorder(StdMutex::new(Vec::new())));
        let run = session
            .start_with(StartOptions {
                observers: vec![Arc::new(Arc::clone(&recorder))],
                ..StartOptions::default()
            })
            .unwrap();
        let stats = run.join().unwrap();
        assert_eq!(stats.attempts, 3);
        assert_eq!(stats.failures, 3);
        let events = recorder.0.lock().unwrap().clone();
        let fail_pos: Vec<usize> = events
            .iter()
            .enumerate()
            .filter(|(_, e)| matches!(e, CrawlEvent::FetchFailed { .. }))
            .map(|(i, _)| i)
            .collect();
        assert_eq!(fail_pos.len(), 3, "{events:?}");
        for (k, &i) in fail_pos.iter().enumerate() {
            let CrawlEvent::FetchFailed {
                oid,
                retriable,
                error,
                outcome,
                ..
            } = &events[i]
            else {
                unreachable!()
            };
            assert_eq!(*oid, Oid(1));
            assert_eq!(*error, FetchErrorKind::Timeout);
            assert!(*retriable, "timeouts are kind-retriable");
            if k < 2 {
                // Default breaker threshold (5) never trips here, so
                // the page backs off rather than parks.
                assert!(
                    matches!(outcome, FailureOutcome::Retried { not_before } if *not_before > 0),
                    "attempt {k} outcome: {outcome:?}"
                );
            } else {
                assert_eq!(*outcome, FailureOutcome::Dead, "max_tries reached");
            }
        }
        // Each backoff expiry is announced between the failure that
        // caused it and the retry's own failure.
        let r1 = position_of(&events, |e| {
            matches!(e, CrawlEvent::FetchRetried { numtries: 1, .. })
        });
        let r2 = position_of(&events, |e| {
            matches!(e, CrawlEvent::FetchRetried { numtries: 2, .. })
        });
        assert!(
            fail_pos[0] < r1 && r1 < fail_pos[1],
            "first retry at {r1}, failures at {fail_pos:?}"
        );
        assert!(
            fail_pos[1] < r2 && r2 < fail_pos[2],
            "second retry at {r2}, failures at {fail_pos:?}"
        );
    }

    #[test]
    fn dry_retry_budget_never_starves_first_visits() {
        // Satellite regression for retry starvation: with every fetch
        // timing out and only two retries in the budget, every seed must
        // still get its first visit, hopeless retries must stop the
        // moment the budget dries (terminal Dead, not endless requeues),
        // and the run must terminate with fetch budget to spare.
        let graph = Arc::new(WebGraph::generate(WebConfig::tiny(13)));
        let model = trained_model(&graph, "recreation/cycling");
        let session = Arc::new(
            CrawlSession::new(
                Arc::new(AllTimeoutFetcher),
                model,
                CrawlConfig {
                    threads: 1,
                    max_fetches: 1000,
                    max_tries: 5,
                    distill_every: None,
                    backoff: BackoffConfig { base: 2, max: 4 },
                    // Never trip the breaker: this test isolates the
                    // retry budget.
                    breaker: BreakerConfig {
                        threshold: u32::MAX,
                        cooldown: 4,
                        max_cooldown: 8,
                    },
                    retry_budget: 2,
                    ..CrawlConfig::default()
                },
            )
            .unwrap(),
        );
        let seeds: Vec<Oid> = (1..=6).map(Oid).collect();
        session.seed(&seeds).unwrap();
        let recorder = Arc::new(Recorder(StdMutex::new(Vec::new())));
        let run = session
            .start_with(StartOptions {
                observers: vec![Arc::new(Arc::clone(&recorder))],
                ..StartOptions::default()
            })
            .unwrap();
        let stats = run.join().unwrap();
        // 6 first visits + exactly the 2 budgeted retries.
        assert_eq!(stats.attempts, 8, "{stats:?}");
        assert_eq!(stats.failures, 8);
        assert!(
            stats.attempts < 1000,
            "fetch budget must survive a dry retry budget"
        );
        let events = recorder.0.lock().unwrap().clone();
        let mut seen = std::collections::HashSet::new();
        let (mut requeued, mut dead) = (0, 0);
        for e in &events {
            if let CrawlEvent::FetchFailed { oid, outcome, .. } = e {
                seen.insert(*oid);
                match outcome {
                    FailureOutcome::Retried { .. } | FailureOutcome::Parked { .. } => {
                        requeued += 1;
                    }
                    FailureOutcome::Dead => dead += 1,
                }
            }
        }
        assert_eq!(seen.len(), 6, "every seed got its first visit");
        assert_eq!(requeued, 2, "exactly the budgeted retries requeued");
        assert_eq!(dead, 6, "everything else died promptly");
    }

    #[test]
    fn parked_rows_survive_checkpoint_and_restore() {
        // Satellite of the parking/durability coupling: a parked row
        // keeps its `not_before` through checkpoint/restore, and the
        // tick clock rides along, so the row serves out exactly its
        // remaining cooldown in the restored session.
        let (graph, session) = setup(CrawlPolicy::SoftFocus, 80);
        let cycling = graph.taxonomy().find("recreation/cycling").unwrap();
        let seeds = focus_webgraph::search::topic_start_set(&graph, cycling, 5);
        session.seed(&seeds).unwrap();
        let parked_oid = {
            let mut g = session.store.write();
            let claim = frontier::claim_next(&mut g.db).unwrap().unwrap();
            frontier::park_batch(&mut g.db, &[(claim.oid, 42)]).unwrap();
            claim.oid
        };
        session.counters.clock.store(7, Ordering::Release);
        let ckpt = session.checkpoint().unwrap();
        let clock = session.sql("select clock from crawl_state").unwrap();
        assert_eq!(clock.scalar_i64(), Some(7), "tick clock checkpointed");

        let model = trained_model(&graph, "recreation/cycling");
        let restored = CrawlSession::restore(
            Arc::new(SimFetcher::new(Arc::clone(&graph), None)),
            model,
            CrawlConfig {
                threads: 1,
                max_fetches: 80,
                distill_every: None,
                ..CrawlConfig::default()
            },
            &ckpt,
        )
        .unwrap();
        assert_eq!(
            restored.counters.clock.load(Ordering::Acquire),
            7,
            "clock restored verbatim"
        );
        let parked = restored
            .sql_with(
                "select visited, not_before from crawl where oid = ?",
                &[Value::Int(parked_oid.raw() as i64)],
            )
            .unwrap();
        let (state, not_before) = (&parked.rows[0][0], &parked.rows[0][1]);
        assert_eq!(
            state,
            &Value::Int(visited::FRONTIER),
            "parked rows are frontier"
        );
        assert_eq!(
            not_before,
            &Value::Int(42),
            "cooldown survives the checkpoint"
        );
        let mut g = restored.store.write();
        // Before its tick the row hides from claims without losing its
        // place...
        let early = frontier::claim_batch(&mut g.db, 16, 7).unwrap();
        assert!(
            early.claims.iter().all(|c| c.oid != parked_oid),
            "parked row popped early: {early:?}"
        );
        assert_eq!(early.parked, 1, "parked row visible to the idle verdict");
        // ...and pops the moment the clock reaches it.
        let due = frontier::claim_batch(&mut g.db, 16, 42).unwrap();
        assert!(
            due.claims.iter().any(|c| c.oid == parked_oid),
            "parked row must be due at its tick: {due:?}"
        );
    }

    /// The tiny web, except that the page named in `gone` answers 404:
    /// a hub the evolving web deleted.
    struct DeletedHub {
        inner: SimFetcher,
        gone: StdMutex<Option<Oid>>,
    }

    impl Fetcher for DeletedHub {
        fn fetch(&self, oid: Oid) -> Result<FetchedPage, FetchError> {
            if *self.gone.lock().unwrap() == Some(oid) {
                return Err(FetchError::NotFound(oid));
            }
            self.inner.fetch(oid)
        }
        fn fetch_count(&self) -> u64 {
            self.inner.fetch_count()
        }
        fn url_of(&self, oid: Oid) -> Option<String> {
            self.inner.url_of(oid)
        }
    }

    #[test]
    fn a_revisit_that_probes_a_deleted_hub_still_recovers_the_server() {
        // Breaker liveness for revisits: the requeued hub is claimed as
        // the half-open probe of a quarantined server and turns out to
        // be gone. The server *answered*, so the breaker must close —
        // left in `Probing`, every later claim for that server would
        // re-park for ever.
        let graph = Arc::new(WebGraph::generate(WebConfig::tiny(13)));
        let model = trained_model(&graph, "recreation/cycling");
        let fetcher = Arc::new(DeletedHub {
            inner: SimFetcher::new(Arc::clone(&graph), None),
            gone: StdMutex::new(None),
        });
        let cfg = CrawlConfig {
            threads: 1,
            max_fetches: 60,
            distill_every: None,
            ..CrawlConfig::default()
        };
        let session = Arc::new(CrawlSession::new(Arc::clone(&fetcher) as _, model, cfg).unwrap());
        let cycling = graph.taxonomy().find("recreation/cycling").unwrap();
        session
            .seed(&focus_webgraph::search::topic_start_set(&graph, cycling, 5))
            .unwrap();
        session.run().unwrap();
        let hub = session.distill_now().unwrap().top_hubs(1)[0].0;
        let sid = host_server_id(&fetcher.url_of(hub).unwrap());
        // The hub's revisit is to be the only poppable row, so it and
        // nothing else is the probe.
        session.sql("delete from crawl where visited = 0").unwrap();

        // A burst of timeouts opens the server's breaker...
        let until = {
            let mut g = session.store.write();
            let g = &mut *g;
            let tick = session.counters.clock.load(Ordering::Acquire) as i64;
            let verdict = (0..session.cfg.breaker.threshold)
                .map(|_| g.health.record_failure(sid, tick))
                .last()
                .unwrap();
            let FailureVerdict::Quarantined { until, .. } = verdict else {
                panic!("threshold failures must quarantine: {verdict:?}");
            };
            CrawlSession::write_server_health(&mut g.db, sid, g.health.get(sid)).unwrap();
            until
        };
        let health_row = || {
            session
                .sql_with(
                    "select state from server_health where sid = ?",
                    &[Value::Int(sid.raw() as i64)],
                )
                .unwrap()
                .rows
        };
        assert_eq!(health_row(), vec![vec![Value::Str("open".into())]]);
        // ...the cooldown lapses, and the web deletes the hub.
        session
            .counters
            .clock
            .store(until as u64, Ordering::Release);
        *fetcher.gone.lock().unwrap() = Some(hub);

        assert_eq!(session.maintenance_pass(1).unwrap(), 1, "the hub requeues");
        session.add_budget(1);
        let recorder = Arc::new(Recorder(StdMutex::new(Vec::new())));
        let run = session
            .start_with(StartOptions {
                observers: vec![Arc::new(Arc::clone(&recorder))],
                ..StartOptions::default()
            })
            .unwrap();
        let before = run.join().unwrap();
        let events = recorder.0.lock().unwrap().clone();
        assert!(
            matches!(
                events[..2],
                [
                    CrawlEvent::FetchFailed {
                        oid,
                        error: FetchErrorKind::NotFound,
                        outcome: FailureOutcome::Dead,
                        ..
                    },
                    CrawlEvent::ServerRecovered { server }
                ] if oid == hub && server == sid
            ),
            "a failed revisit, then exactly one recovery: {events:?}"
        );
        let breaker = session.store.read().health.get(sid).unwrap().breaker;
        assert_eq!(breaker, Breaker::Closed, "any answer resolves the probe");
        assert_eq!(health_row(), vec![vec![Value::Str("closed".into())]]);

        // With nothing but that server's pages left to fetch, the next
        // run fetches them and terminates instead of re-parking them
        // behind a probe nobody will ever answer.
        *fetcher.gone.lock().unwrap() = None;
        let on_server: Vec<Oid> = (graph.pages().iter())
            .filter(|p| host_server_id(&p.url) == sid)
            .map(|p| p.oid)
            .collect();
        session.seed(&on_server).unwrap();
        session.add_budget(10);
        let stats = session.run().unwrap();
        assert!(
            stats.successes > before.successes,
            "the recovered server's pages are fetched again: {stats:?}"
        );
    }

    #[test]
    fn taxonomy_type_follows_live_marking() {
        // The §3.7 console reads the marking from `TAXONOMY.type`; it
        // must show the one in force, not the one the crawl began with.
        let (_graph, session) = setup(CrawlPolicy::SoftFocus, 10);
        let sink = EventSink::new(None, Vec::new(), Arc::new(AtomicU64::new(0)));
        let in_table = |ty: &str| -> std::collections::BTreeSet<String> {
            let rs = session.sql_with(
                "select name from taxonomy where type = ?",
                &[Value::Str(ty.into())],
            );
            let names = rs.unwrap().rows.into_iter();
            names.map(|r| r[0].as_str().unwrap().to_owned()).collect()
        };
        let in_model = |mark: focus_types::Mark| -> std::collections::BTreeSet<String> {
            session.with_model(|m| {
                let t = &m.taxonomy;
                let marked = t.all().filter(|&c| t.mark(c) == mark);
                marked.map(|c| t.name(c).to_owned()).collect()
            })
        };
        let agree = |when: &str| {
            use focus_types::Mark::{Good, Null, Path, Subsumed};
            for (ty, mark) in [
                ("good", Good),
                ("path", Path),
                ("subsumed", Subsumed),
                ("null", Null),
            ] {
                assert_eq!(in_table(ty), in_model(mark), "type = '{ty}' {when}");
            }
        };
        agree("at construction");
        assert_eq!(in_table("good"), ["recreation/cycling".to_owned()].into());
        for (name, good) in [("recreation/cycling", false), ("recreation", true)] {
            let class = session.find_topic(name).unwrap();
            session.apply_command(Command::MarkTopic { class, good }, &sink);
            agree(&format!("after mark_topic({name}, {good})"));
        }
        let good_set: std::collections::BTreeSet<String> = session.with_model(|m| {
            let good = m.taxonomy.good_set().into_iter();
            good.map(|c| m.taxonomy.name(c).to_owned()).collect()
        });
        assert_eq!(good_set, ["recreation".to_owned()].into());
        assert_eq!(in_table("good"), good_set);
        assert!(
            in_table("subsumed").contains("recreation/cycling"),
            "a good topic's children are subsumed: {:?}",
            in_table("subsumed")
        );
    }

    /// The tiny web with one server unplugged: every page on `down`
    /// times out.
    struct DownServer {
        inner: SimFetcher,
        down: ServerId,
    }

    impl Fetcher for DownServer {
        fn fetch(&self, oid: Oid) -> Result<FetchedPage, FetchError> {
            match self.url_of(oid) {
                Some(url) if host_server_id(&url) == self.down => Err(FetchError::Timeout(oid)),
                _ => self.inner.fetch(oid),
            }
        }
        fn fetch_count(&self) -> u64 {
            self.inner.fetch_count()
        }
        fn url_of(&self, oid: Oid) -> Option<String> {
            self.inner.url_of(oid)
        }
    }

    #[test]
    fn restore_and_recover_load_the_same_state() {
        // One crawl, stored two ways — a checkpoint and its own files —
        // and read back two ways. Both go through `StoreState::load`, so
        // they must agree on everything tables hold, which is everything:
        // a recovered crawl is a restored crawl.
        let path = std::env::temp_dir().join(format!("crawl-load-{}.db", std::process::id()));
        let cleanup = || {
            let _ = std::fs::remove_file(&path);
            let _ = std::fs::remove_file(minirel::wal_path_for(&path));
        };
        cleanup();
        let graph = Arc::new(WebGraph::generate(WebConfig::tiny(13)));
        let sim = || SimFetcher::new(Arc::clone(&graph), None);
        let cycling = graph.taxonomy().find("recreation/cycling").unwrap();
        // Unplug the server with the most cycling pages; start elsewhere.
        let mut weight: FxHashMap<ServerId, usize> = FxHashMap::default();
        for p in graph.pages().iter().filter(|p| p.topic == cycling) {
            *weight.entry(host_server_id(&p.url)).or_default() += 1;
        }
        let down = *weight.iter().max_by_key(|&(s, n)| (*n, s.raw())).unwrap().0;
        let seeds: Vec<Oid> = focus_webgraph::search::topic_start_set(&graph, cycling, 12)
            .into_iter()
            .filter(|&o| host_server_id(&sim().url_of(o).unwrap()) != down)
            .collect();
        assert!(seeds.len() >= 2, "need seeds off the dead server");
        let cfg = CrawlConfig {
            threads: 1,
            max_fetches: 150,
            distill_every: Some(60),
            durability: Durability::File {
                path: path.clone(),
                group_commit: 4,
            },
            ..CrawlConfig::default()
        };
        let live;
        let ckpt = {
            let fetcher = Arc::new(DownServer { inner: sim(), down });
            let model = trained_model(&graph, "recreation/cycling");
            let session = Arc::new(CrawlSession::new(fetcher, model, cfg.clone()).unwrap());
            session.seed(&seeds).unwrap();
            let stats = session.run().unwrap();
            assert!(stats.successes > 50 && stats.failures > 0, "{stats:?}");
            let count = |sql: &str| session.sql(sql).unwrap().scalar_i64().unwrap();
            assert!(
                count("select count(*) from server_health where state = 'open'") > 0,
                "the dead server must have been quarantined"
            );
            assert!(
                count("select count(*) from crawl where visited = 0 and not_before > 0") > 0,
                "the run must leave parked rows"
            );
            // Hubs revisited, and hubs requeued but not yet refetched:
            // both must read back as the fetched pages they are.
            assert!(session.maintenance_pass(3).unwrap() > 0);
            session.add_budget(20);
            session.run().unwrap();
            // A live policy switch is crawl state too; the maintenance
            // pass's commit carries it to the file.
            let sink = EventSink::new(None, Vec::new(), Arc::new(AtomicU64::new(0)));
            session.apply_command(Command::SetPolicy(CrawlPolicy::HardFocus), &sink);
            assert!(session.maintenance_pass(6).unwrap() > 0);
            live = (
                session.links(),
                session.store.read().server_counts.clone(),
                (session.landings().unwrap(), session.relevance_map()),
            );
            session.checkpoint().unwrap()
        }; // the file-backed session is gone; its files and `ckpt` remain
        let model = || trained_model(&graph, "recreation/cycling");
        let in_memory = CrawlConfig {
            durability: Durability::None,
            ..cfg.clone()
        };
        let restored = CrawlSession::restore(Arc::new(sim()), model(), in_memory, &ckpt).unwrap();
        let recovered = CrawlSession::recover(Arc::new(sim()), model(), cfg).unwrap();

        assert!(!restored.links().is_empty());
        assert_eq!(restored.links(), recovered.links(), "links, in order");
        assert_eq!(restored.links(), live.0, "and what the live graph held");
        let mut pairs = std::collections::HashSet::new();
        for (src, _, dst, _) in &live.0 {
            assert!(
                pairs.insert((src, dst)),
                "{src:?} -> {dst:?} recorded twice"
            );
        }
        let sorted = |mut v: Vec<(Oid, f64, ServerId)>| {
            v.sort_by_key(|&(o, _, _)| o);
            v
        };
        assert_eq!(sorted(restored.visited()), sorted(recovered.visited()));
        // One R: the live graph, the restored and the recovered one all
        // hold exp(CRAWL.relevance), bit for bit.
        assert_eq!(restored.relevance_map(), recovered.relevance_map());
        assert_eq!(restored.relevance_map(), live.2 .1);
        // The counters, budget, policy, clock and landings are tables too.
        let state = |s: &CrawlSession| {
            let st = s.stats();
            let c = &s.counters;
            let counters = (st.attempts, st.successes, st.failures, st.distillations);
            let series = (st.harvest_sum.to_bits(), st.deferred_landings);
            let (budget, clock) = (
                c.budget.load(Ordering::Acquire),
                c.clock.load(Ordering::Acquire),
            );
            (
                counters,
                series,
                budget,
                s.policy(),
                clock,
                s.landings().unwrap(),
            )
        };
        let (a, b) = (state(&restored), state(&recovered));
        assert_eq!(a, b, "restored vs recovered");
        assert_eq!(a.0 .0, 170, "every attempt counted");
        assert_eq!((a.2, a.3), (170, CrawlPolicy::HardFocus));
        assert!(a.4 >= 170, "the clock advanced past every claim: {}", a.4);
        assert_eq!(a.5, live.2 .0, "and the landings are the live crawl's");
        assert_eq!(a.0 .1, a.5.len() as u64);
        let rows = |s: &CrawlSession, table: &str, key: &str| {
            let sql = format!("select * from {table} order by {key}");
            s.sql(&sql).unwrap().rows
        };
        assert_eq!(
            rows(&restored, "crawl", "oid"),
            rows(&recovered, "crawl", "oid")
        );
        for (name, s) in [("restored", &restored), ("recovered", &recovered)] {
            let g = s.store.read();
            assert!(!g.server_counts.is_empty());
            assert_eq!(g.health.servers().count(), 0, "{name}: breakers start over");
            drop(g);
            // This is the assertion the parent of this change fails, for
            // the recovered side: it rebuilt the map and kept the table.
            assert!(
                rows(s, "server_health", "sid").is_empty(),
                "{name}: `server_health` mirrors the (fresh) breakers"
            );
        }
        assert_eq!(
            restored.store.read().server_counts,
            recovered.store.read().server_counts
        );
        assert_eq!(restored.store.read().server_counts, live.1);
        let (a, b) = (
            restored.distill_now().unwrap(),
            recovered.distill_now().unwrap(),
        );
        assert!(!a.hubs.is_empty() && !a.auths.is_empty());
        for (want, got) in [(&a.hubs, &b.hubs), (&a.auths, &b.auths)] {
            assert_eq!(want.len(), got.len());
            let got: FxHashMap<Oid, f64> = got.iter().copied().collect();
            for (o, s) in want {
                assert!(
                    got.get(o).is_some_and(|g| (g - s).abs() < 1e-9),
                    "{o:?} scores {s} restored, {:?} recovered",
                    got.get(o)
                );
            }
        }
        // §3.7 after a restart: the same re-mark on each side re-scores
        // the same pages from the same saved posteriors.
        let before = restored.relevance_map();
        let sink = EventSink::new(None, Vec::new(), Arc::new(AtomicU64::new(0)));
        let running = graph.taxonomy().find("recreation/running").unwrap();
        for s in [&restored, &recovered] {
            s.apply_command(
                Command::MarkTopic {
                    class: running,
                    good: true,
                },
                &sink,
            );
        }
        let after = restored.relevance_map();
        assert_eq!(after, recovered.relevance_map(), "re-marked relevance");
        assert_ne!(after, before, "the re-mark re-scored nothing");
        assert_eq!(
            rows(&restored, "crawl", "oid"),
            rows(&recovered, "crawl", "oid"),
            "re-marked CRAWL rows"
        );
        for s in [&restored, &recovered] {
            s.check_invariants().unwrap();
        }
        cleanup();
    }

    #[test]
    fn claims_committed_in_flight_come_back_poppable() {
        // A store whose last commit caught claims checked out — a crash
        // mid-run — reopens with them back on the frontier: the load's
        // demotion, which the build-time check holds to "no CLAIMED row".
        let path = std::env::temp_dir().join(format!("crawl-claims-{}.db", std::process::id()));
        let cleanup = || {
            let _ = std::fs::remove_file(&path);
            let _ = std::fs::remove_file(minirel::wal_path_for(&path));
        };
        cleanup();
        let graph = Arc::new(WebGraph::generate(WebConfig::tiny(13)));
        let cfg = CrawlConfig {
            durability: Durability::File {
                path: path.clone(),
                group_commit: 1,
            },
            ..CrawlConfig::default()
        };
        let sim = || Arc::new(SimFetcher::new(Arc::clone(&graph), None));
        let model = || trained_model(&graph, "recreation/cycling");
        let session = CrawlSession::new(sim(), model(), cfg.clone()).unwrap();
        session.seed(&[Oid(1), Oid(2), Oid(3)]).unwrap();
        session.with_db(|db| {
            assert_eq!(frontier::claim_batch(db, 2, 0).unwrap().claims.len(), 2);
            db.commit_durable().unwrap();
        });
        drop(session);
        let recovered = CrawlSession::recover(sim(), model(), cfg).unwrap();
        recovered.check_invariants().unwrap();
        let poppable = recovered.sql("select count(*) from crawl where visited = 0");
        assert_eq!(poppable.unwrap().scalar_i64(), Some(3));
        cleanup();
    }

    /// Holds every fetch until `open` is set; counts the fetches begun.
    struct GateFetcher {
        inner: SimFetcher,
        open: std::sync::atomic::AtomicBool,
        begun: AtomicU64,
    }

    impl Fetcher for GateFetcher {
        fn fetch(&self, oid: Oid) -> Result<FetchedPage, FetchError> {
            self.begun.fetch_add(1, Ordering::SeqCst);
            while !self.open.load(Ordering::SeqCst) {
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
            self.inner.fetch(oid)
        }
        fn fetch_count(&self) -> u64 {
            self.inner.fetch_count()
        }
        fn url_of(&self, oid: Oid) -> Option<String> {
            self.inner.url_of(oid)
        }
    }

    #[test]
    fn a_probe_handed_back_by_a_stop_is_sent_again() {
        // Found by the "no Probing breaker" invariant: a stop with the
        // half-open probe still queued handed its claim back but left
        // the breaker `Probing`, so every later claim for the server
        // parked behind a verdict that never came, for the rest of the
        // session.
        let graph = Arc::new(WebGraph::generate(WebConfig::tiny(13)));
        let fetcher = Arc::new(GateFetcher {
            inner: SimFetcher::new(Arc::clone(&graph), None),
            open: Default::default(),
            begun: AtomicU64::new(0),
        });
        let cfg = CrawlConfig {
            threads: 1,
            max_fetches: 2,
            batch_size: 2,
            distill_every: None,
            ..CrawlConfig::default()
        };
        let model = trained_model(&graph, "recreation/cycling");
        let session = Arc::new(CrawlSession::new(Arc::clone(&fetcher) as _, model, cfg).unwrap());
        let url = |oid| fetcher.url_of(oid).unwrap();
        let mut pages =
            (graph.pages().iter().map(|p| p.oid)).filter(|&o| fetcher.inner.fetch(o).is_ok());
        let probe = pages.next().unwrap();
        let sid = host_server_id(&url(probe));
        let first = pages.find(|&o| host_server_id(&url(o)) != sid).unwrap();
        {
            // `first` is claimed ahead of `probe`, whose server was just
            // quarantined with the cooldown already spent: the claim of
            // `probe` is the half-open probe.
            let mut g = session.store.write();
            let g = &mut *g;
            let entry = |oid, log_relevance| FrontierEntry {
                oid,
                url: url(oid),
                log_relevance,
                serverload: 0,
            };
            let entries = [entry(first, 0.0), entry(probe, -1.0)];
            frontier::upsert_batch(&mut g.db, &entries).unwrap();
            let breaker = session.cfg.breaker;
            for _ in 0..breaker.threshold {
                g.health.record_failure(sid, -breaker.cooldown);
            }
            CrawlSession::write_server_health(&mut g.db, sid, g.health.get(sid)).unwrap();
        }
        let run = session.start().unwrap();
        while fetcher.begun.load(Ordering::SeqCst) == 0 {
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        // `first` is on the wire, the probe queued behind it.
        run.stop();
        fetcher.open.store(true, Ordering::SeqCst);
        let stats = run.join().unwrap();
        assert_eq!(
            (stats.attempts, stats.successes),
            (2, 1),
            "the probe went back unfetched"
        );

        // Restart with the probe's page the only work, and budget for it.
        let others = "delete from crawl where visited = 0 and oid <> ?";
        session
            .sql_with(others, &[Value::Int(probe.raw() as i64)])
            .unwrap();
        session.add_budget(1);
        let run = session.start().unwrap();
        let t0 = Instant::now();
        while !run.is_finished() && t0.elapsed() < std::time::Duration::from_secs(5) {
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        run.stop();
        run.join().unwrap();
        assert!(
            session.visited().iter().any(|v| v.0 == probe),
            "the quarantined server was never probed again"
        );
        let breaker = session.store.read().health.get(sid).unwrap().breaker;
        assert_eq!(breaker, Breaker::Closed, "the probe's answer closed it");
    }

    /// Each invariant family, broken on purpose through the tables (SQL,
    /// `with_db`) or the memory beside them, is reported by name.
    #[test]
    fn check_invariants_names_what_broke() {
        let (graph, session) = setup(CrawlPolicy::SoftFocus, 80);
        let cycling = graph.taxonomy().find("recreation/cycling").unwrap();
        let seeds = focus_webgraph::search::topic_start_set(&graph, cycling, 10);
        session.seed(&seeds).unwrap();
        session.run().unwrap();
        session.check_invariants().unwrap();
        let ckpt = session.checkpoint().unwrap();
        type Corrupt = Box<dyn Fn(&CrawlSession)>;
        let sql = |sql: &'static str| -> Corrupt { Box::new(move |s| drop(s.sql(sql).unwrap())) };
        let breaker = session.cfg.breaker;
        let cases: Vec<(&str, Corrupt)> = vec![
            (
                "landed <= attempts <= budget",
                Box::new(|s| s.counters.budget.store(0, Ordering::Release)),
            ),
            (
                "LANDING = successes",
                sql("update landing set relevance = relevance + 1 where seq = 1"),
            ),
            (
                "in-flight gauge is zero",
                Box::new(|s| {
                    s.counters.in_flight.fetch_add(1, Ordering::AcqRel);
                }),
            ),
            (
                "no CLAIMED row",
                sql("update crawl set visited = 2 where visited = 0"),
            ),
            (
                "politeness slots released",
                Box::new(|s| {
                    s.store.write().health.admit(ServerId(7), 0);
                }),
            ),
            (
                "no Probing breaker",
                Box::new(move |s| {
                    let mut g = s.store.write();
                    for t in 0..breaker.threshold {
                        g.health.record_failure(ServerId(7), t as i64);
                    }
                    g.health.admit(ServerId(7), 1 << 20);
                }),
            ),
            (
                "server_health = breakers",
                sql("insert into server_health values (7, 'open', 5, 99, 1)"),
            ),
            (
                "heap/index agreement",
                Box::new(|s| {
                    s.with_db(|db| {
                        let (pool, catalog) = db.parts();
                        let link = catalog.table(catalog.table_id("link").unwrap());
                        let root = link.indexes[0].btree.root();
                        pool.with_page_mut(root, |b| b.fill(0)).unwrap();
                    })
                }),
            ),
            (
                "link graph = LINK",
                sql("insert into link values (1, 2, 3, 4, 0)"),
            ),
            (
                "relevance = CRAWL",
                sql("update crawl set relevance = relevance - 1 where visited = 1"),
            ),
            (
                "server counts = CRAWL",
                sql("update crawl set url = 'http://elsewhere.example/' where visited = 1"),
            ),
            (
                "posteriors of fetched pages",
                sql("insert into landing values (999, 1, 7, 0.5, '')"),
            ),
            (
                "TAXONOMY.type = marking",
                sql("update taxonomy set type = 'good'"),
            ),
        ];
        for (invariant, corrupt) in cases {
            let fetcher = Arc::new(SimFetcher::new(Arc::clone(&graph), None));
            let model = trained_model(&graph, "recreation/cycling");
            let s = CrawlSession::restore(fetcher, model, session.cfg.clone(), &ckpt).unwrap();
            corrupt(&s);
            let broken = s.check_invariants().expect_err(invariant);
            assert!(
                broken.iter().any(|v| v.invariant == invariant),
                "{invariant} not among {broken:#?}"
            );
        }
    }

    /// The cluster's own invariants, broken on purpose, by name.
    #[test]
    fn cluster_check_names_what_broke() {
        let graph = Arc::new(WebGraph::generate(WebConfig::tiny(13)));
        let fetcher = Arc::new(SimFetcher::new(Arc::clone(&graph), None));
        let model = trained_model(&graph, "recreation/cycling");
        let cfg = CrawlConfig {
            threads: 2,
            max_fetches: 120,
            distill_every: None,
            ..CrawlConfig::default()
        };
        let cluster = crate::cluster::CrawlCluster::new(2, fetcher, model, cfg).unwrap();
        let cycling = graph.taxonomy().find("recreation/cycling").unwrap();
        let seeds = focus_webgraph::search::topic_start_set(&graph, cycling, 10);
        cluster.seed(&seeds).unwrap();
        cluster.run().unwrap();
        cluster.check_invariants().unwrap();
        let [zero, one] = cluster.shards() else {
            unreachable!("two shards")
        };
        // Shard 0 records a page shard 1 fetched as visited, and a
        // same-server link from it.
        let (oid, _, sid) = one.visited()[0];
        let url = &graph.page(oid).unwrap().url;
        zero.with_db(|db| {
            let mut row = tables::frontier_row(oid, url, 0.0, 0);
            row[crawl_col::VISITED] = Value::Int(visited::DONE);
            db.insert(db.table_id("crawl").unwrap(), row).unwrap();
            let link = tables::link_row(oid, sid.raw(), Oid(2), sid.raw(), 0);
            db.insert(db.table_id("link").unwrap(), link).unwrap();
        });
        one.shard.exchange.add_in_flight(1);
        let broken = cluster.check_invariants().unwrap_err();
        for invariant in [
            "page on its owner shard",
            "one shard per visited page",
            "same-server link on its shard",
            "exchange drained",
        ] {
            assert!(
                broken.iter().any(|v| v.invariant == invariant),
                "{invariant} not among {broken:#?}"
            );
        }
    }
}

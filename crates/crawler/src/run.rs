//! A live, steerable crawl: the [`CrawlRun`] handle.
//!
//! The paper's workflow (§1.1, §3.7) is interactive — an administrator
//! watches the harvest rate, marks topics good or bad, injects seeds, and
//! re-prioritizes the frontier of a *running* crawl. [`CrawlRun`] is that
//! console, for a crawl of one shard or of many: [`CrawlSession::start`]
//! and [`crate::CrawlCluster::start`] both launch their shards' worker
//! pools in the background (one launch sequence, in [`crate::cluster`])
//! and return one handle carrying
//!
//! * the typed **event stream** ([`crate::events`]), one bounded channel
//!   every shard emits into,
//! * **control commands** (`pause`/`resume`/`stop`, `add_seeds`,
//!   `add_budget`, `set_policy`, `mark_topic`), delivered through each
//!   shard's command queue, which its workers drain between page
//!   fetches so every mutation happens at a page boundary with tables
//!   consistent, and
//! * a **stats** snapshot, merged over the shards (one shard's stats
//!   are its own).
//!
//! What only the store owner knows — checkpoints, topic names, ad-hoc
//! SQL — is asked of the [`CrawlSession`] or the cluster, not the run.
//!
//! `join()` waits for the pools and returns final stats, surfacing worker
//! panics as [`CrawlError::Worker`] instead of silently reporting partial
//! stats as success.

use crate::cluster::{check_cluster, even_split, merge_landings, merge_stats, seed_owner};
use crate::events::{CrawlObserver, EventSink, EventStream};
use crate::fetch_pool::FetchPool;
use crate::policy::CrawlPolicy;
use crate::session::{debug_check, CrawlSession, CrawlStats, Landing};
use focus_types::{ClassId, Oid};
use lockcheck::{rank, OrderedMutex};
use minirel::{DbError, DbResult};
use std::collections::VecDeque;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

/// Why a crawl run could not complete normally.
#[derive(Debug, Clone)]
pub enum CrawlError {
    /// The storage layer failed; the run aborted at a page boundary.
    Db(DbError),
    /// One or more worker threads panicked (messages joined with `; `).
    Worker(String),
    /// `start()` was called while another run's workers are still alive.
    AlreadyRunning,
}

impl fmt::Display for CrawlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CrawlError::Db(e) => write!(f, "crawl storage error: {e}"),
            CrawlError::Worker(m) => write!(f, "crawl worker panicked: {m}"),
            CrawlError::AlreadyRunning => {
                write!(f, "a run is already active on this session")
            }
        }
    }
}

impl std::error::Error for CrawlError {}

impl From<DbError> for CrawlError {
    fn from(e: DbError) -> CrawlError {
        CrawlError::Db(e)
    }
}

impl From<CrawlError> for focus_types::FocusError {
    fn from(e: CrawlError) -> focus_types::FocusError {
        match e {
            CrawlError::Db(e) => focus_types::FocusError::from(e),
            CrawlError::Worker(m) => focus_types::FocusError::Worker(m),
            CrawlError::AlreadyRunning => focus_types::FocusError::Config(
                "a discovery run is already active on this session".to_owned(),
            ),
        }
    }
}

/// Control commands, applied by workers between page fetches.
#[derive(Debug, Clone)]
pub enum Command {
    /// Hold workers after their in-flight pages land.
    Pause,
    /// Release paused workers.
    Resume,
    /// Wind the run down; `join()` then returns current stats.
    Stop,
    /// Inject frontier entries at top priority (`D(C*)` grows live).
    AddSeeds(Vec<Oid>),
    /// Raise the fetch budget.
    AddBudget(u64),
    /// Switch the link-expansion policy for subsequently fetched pages.
    SetPolicy(CrawlPolicy),
    /// Change the good-set marking and re-prioritize the frontier (§3.7).
    MarkTopic {
        /// The class to (un)mark.
        class: ClassId,
        /// Mark good (`true`) or remove the mark (`false`).
        good: bool,
    },
    /// Force a distillation pass now.
    Distill,
}

/// Lifecycle of a run as seen from the handle, in the order a run
/// advances through it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum RunState {
    /// Workers are fetching.
    Running,
    /// Workers hold at the pause barrier; commands still apply.
    Paused,
    /// Stop requested; workers are winding down.
    Stopping,
    /// All workers exited.
    Finished,
}

const STATE_RUNNING: u8 = 0;
const STATE_PAUSED: u8 = 1;
const STATE_STOPPING: u8 = 2;

/// Shared control half of a session: the command queue and run-lifecycle
/// flags. Lives outside the session's big data mutex so steering never
/// contends with page processing.
pub(crate) struct ControlState {
    queue: OrderedMutex<VecDeque<Command>>,
    /// Serializes command *application* (not submission): drainers hold
    /// this — never `queue` — while running handlers, so a slow command
    /// (e.g. a `mark_topic` re-prioritization sweep) cannot block
    /// [`ControlState::push`] from the control thread.
    applying: OrderedMutex<()>,
    state: AtomicU8,
    /// A run's workers are alive (guards against double `start()`).
    active: AtomicBool,
    /// A worker panicked or storage failed: everyone winds down.
    pub(crate) abort: AtomicBool,
    /// One-shot latches so pool-wide conditions are announced once.
    pub(crate) budget_reported: AtomicBool,
    pub(crate) stagnation_reported: AtomicBool,
    stop_reported: AtomicBool,
}

impl ControlState {
    pub(crate) fn new() -> ControlState {
        ControlState {
            queue: OrderedMutex::new(rank::CTRL_QUEUE, VecDeque::new()),
            applying: OrderedMutex::new(rank::CTRL_APPLY, ()),
            state: AtomicU8::new(STATE_RUNNING),
            active: AtomicBool::new(false),
            abort: AtomicBool::new(false),
            budget_reported: AtomicBool::new(false),
            stagnation_reported: AtomicBool::new(false),
            stop_reported: AtomicBool::new(false),
        }
    }

    pub(crate) fn push(&self, cmd: Command) {
        self.queue.lock().push_back(cmd);
    }

    /// Apply every queued command in order. The `applying` mutex (held
    /// for the whole drain) keeps two workers from interleaving their
    /// application; the `queue` lock is taken only for the instant of
    /// each pop, so `push()` from the control thread never waits on a
    /// slow command handler. Commands pushed *during* application are
    /// picked up by the same drain — the loop re-pops until the queue is
    /// observed empty — preserving the old in-order guarantee. `apply`
    /// runs under `applying`, so it must not block
    /// (`CrawlSession::apply_commands` defers forced passes past it).
    pub(crate) fn drain(&self, mut apply: impl FnMut(Command)) {
        // Fast path: nothing queued, don't touch the apply lock.
        if self.queue.lock().is_empty() {
            return;
        }
        let _serialize = self.applying.lock();
        loop {
            let cmd = self.queue.lock().pop_front();
            match cmd {
                Some(cmd) => apply(cmd),
                None => break,
            }
        }
    }

    pub(crate) fn run_state(&self) -> RunState {
        match self.state.load(Ordering::Acquire) {
            STATE_PAUSED => RunState::Paused,
            STATE_STOPPING => RunState::Stopping,
            _ => RunState::Running,
        }
    }

    pub(crate) fn set_state(&self, s: RunState) {
        let v = match s {
            RunState::Paused => STATE_PAUSED,
            RunState::Stopping => STATE_STOPPING,
            _ => STATE_RUNNING,
        };
        self.state.store(v, Ordering::Release);
    }

    pub(crate) fn stop_reported_once(&self) -> bool {
        !self.stop_reported.swap(true, Ordering::AcqRel)
    }

    /// Arm a fresh run; fails if one is already active.
    pub(crate) fn activate(&self) -> Result<(), CrawlError> {
        if self.active.swap(true, Ordering::AcqRel) {
            return Err(CrawlError::AlreadyRunning);
        }
        // Commands addressed to a previous run (e.g. the Stop a dropped
        // handle pushes) must not steer this one.
        self.queue.lock().clear();
        self.set_state(RunState::Running);
        self.abort.store(false, Ordering::Release);
        self.budget_reported.store(false, Ordering::Release);
        self.stagnation_reported.store(false, Ordering::Release);
        self.stop_reported.store(false, Ordering::Release);
        Ok(())
    }

    pub(crate) fn deactivate(&self) {
        self.active.store(false, Ordering::Release);
    }
}

/// Options for [`CrawlSession::start_with`] and
/// [`crate::CrawlCluster::start_with`].
pub struct StartOptions {
    /// Bounded event-channel capacity; overflow is dropped and counted.
    pub event_capacity: usize,
    /// Observers notified synchronously of every event.
    pub observers: Vec<Arc<dyn CrawlObserver>>,
}

impl Default for StartOptions {
    fn default() -> StartOptions {
        StartOptions {
            event_capacity: 4096,
            observers: Vec::new(),
        }
    }
}

/// Handle to a crawl executing in background worker threads: one launch
/// of one shard (a [`CrawlSession`]) or of every shard of a
/// [`crate::CrawlCluster`]. Commands go to every shard, except seeds
/// (to their owner) and budget (split over the live shards); all shards
/// emit into one event channel.
pub struct CrawlRun {
    pub(crate) shards: Vec<ShardRun>,
    pub(crate) events: Option<EventStream>,
    pub(crate) dropped: Arc<AtomicU64>,
    /// Observer-only sink for commands drained after the pools exited.
    /// Deliberately holds no channel sender: a sender stored in the
    /// handle would keep [`EventStream`] iteration from terminating
    /// while the handle is alive.
    pub(crate) tail_sink: EventSink,
}

/// One shard of a run: its session and that session's worker pool.
pub(crate) struct ShardRun {
    session: Arc<CrawlSession>,
    workers: Vec<JoinHandle<()>>,
    /// This shard's fetch executor ([`crate::fetch_pool`]). The workers
    /// hold handles on it; the shard owns it, so its fetcher threads (if
    /// any) are joined when the run is dropped — after `wind_down` has
    /// joined the workers, whose wind-down contract guarantees they
    /// cancelled or drained every job first.
    _pool: Arc<FetchPool>,
}

/// How worker bodies become OS threads. Injectable so tests can make
/// `spawn` fail deterministically (a real `thread::Builder::spawn`
/// failure needs OS-level resource exhaustion).
pub(crate) type WorkerSpawner =
    dyn FnMut(usize, Box<dyn FnOnce() + Send + 'static>) -> std::io::Result<JoinHandle<()>>;

/// The [`WorkerSpawner`] every run uses outside tests.
pub(crate) fn spawn_thread(
    i: usize,
    body: Box<dyn FnOnce() + Send + 'static>,
) -> std::io::Result<JoinHandle<()>> {
    std::thread::Builder::new()
        .name(format!("crawl-worker-{i}"))
        .spawn(body)
}

impl ShardRun {
    /// Activate `session` and spawn its worker pool, emitting into
    /// `sink`. A spawn failure does **not** panic the launching thread:
    /// the failed slot is recorded like a worker panic
    /// (`CrawlEvent::WorkerFailed`, then `CrawlError::Worker` from
    /// `join()`), the pool is aborted so the already-spawned workers
    /// wind down and hand their claims back at the next page boundary,
    /// and the partial pool is returned for the run to `join()` — the
    /// same surfacing contract a mid-crawl panic has.
    pub(crate) fn spawn(
        session: Arc<CrawlSession>,
        sink: &Arc<EventSink>,
        spawn: &mut WorkerSpawner,
    ) -> Result<ShardRun, CrawlError> {
        session.control().activate()?;
        // A previous run's verdict (worker panic, storage error) was
        // delivered by its join(); it must not fail this run too.
        session.reset_run_diagnostics();
        let threads = session.config().threads.max(1);
        // Exchange bookkeeping: the whole pool is registered before any
        // worker runs, so a sibling shard can never observe this shard
        // as dead while its workers are still being spawned.
        session.note_workers_arming(threads);
        let pool = Arc::new(FetchPool::new(
            Arc::clone(session.fetcher()),
            session.config().fetch_pool,
        ));
        let mut workers = Vec::with_capacity(threads);
        for i in 0..threads {
            let s = Arc::clone(&session);
            let worker_sink = Arc::clone(sink);
            let exec = pool.handle();
            let body = Box::new(move || {
                let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    s.worker(i, exec, &worker_sink)
                }));
                if let Err(payload) = caught {
                    let message = (payload.downcast_ref::<&str>().map(|m| (*m).to_owned()))
                        .or_else(|| payload.downcast_ref::<String>().cloned())
                        .unwrap_or_else(|| "opaque panic payload".to_owned());
                    s.note_worker_failure(i, message, &worker_sink);
                }
                s.note_worker_exit();
            });
            match spawn(i, body) {
                Ok(handle) => workers.push(handle),
                Err(e) => {
                    session.note_worker_failure(i, format!("failed to spawn: {e}"), sink);
                    // The failed slot and every slot after it never ran:
                    // retire their registrations so shard-liveness
                    // accounting (and any peer shard waiting on it)
                    // sees them as exited.
                    for _ in i..threads {
                        session.note_worker_exit();
                    }
                    break;
                }
            }
        }
        Ok(ShardRun {
            session,
            workers,
            _pool: pool,
        })
    }

    fn push(&self, cmd: Command) {
        self.session.control().push(cmd);
    }

    fn is_finished(&self) -> bool {
        self.workers.iter().all(|h| h.is_finished())
    }

    /// Join the pool, then apply any commands the workers never got to
    /// (pushed after the last worker exited): budget raises, seeds, and
    /// marks land in session state for the next run instead of vanishing.
    fn wind_down(&mut self, tail_sink: &EventSink) {
        for h in self.workers.drain(..) {
            // Workers catch their own panics; a join error would mean the
            // catch itself unwound, which AssertUnwindSafe precludes.
            let _ = h.join();
        }
        self.session.apply_commands(tail_sink);
        // Everything the run wrote — including commands applied just
        // above, after the last worker's batch commit — becomes durable
        // before `join()` acknowledges the run. No-op without a WAL.
        self.session.final_durable_commit();
        self.session.control().deactivate();
    }
}

impl CrawlRun {
    /// Take ownership of the event stream (callable once; typically moved
    /// into a monitoring thread). Subsequent calls return `None`.
    pub fn take_events(&mut self) -> Option<EventStream> {
        self.events.take()
    }

    /// Borrow the event stream, if not yet taken.
    pub fn events(&self) -> Option<&EventStream> {
        self.events.as_ref()
    }

    /// Events dropped on the floor because the channel was full.
    pub fn events_dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    fn broadcast(&self, cmd: Command) {
        for shard in &self.shards {
            shard.push(cmd.clone());
        }
    }

    /// Hold workers after their in-flight fetches land. Commands (seeds,
    /// marks, budget) still apply while paused. Latency is one page per
    /// shard.
    pub fn pause(&self) {
        self.broadcast(Command::Pause);
    }

    /// Release paused workers.
    pub fn resume(&self) {
        self.broadcast(Command::Resume);
    }

    /// Wind the run down; `join()` then returns the stats so far.
    pub fn stop(&self) {
        self.broadcast(Command::Stop);
    }

    /// Inject seeds into the live frontier at top priority, each on the
    /// shard that owns it. A seed owned by a shard outside this run goes
    /// to the run's first shard, whose seeding routes it on through the
    /// exchange.
    pub fn add_seeds(&self, seeds: &[Oid]) {
        let first = &self.shards[0].session;
        let mut groups = vec![Vec::new(); self.shards.len()];
        for &oid in seeds {
            let url = first.fetcher().url_of(oid).unwrap_or_default();
            let owner = seed_owner(&url, oid, first.shard.n_shards);
            let at = (self.shards.iter()).position(|s| s.session.shard.shard == owner);
            groups[at.unwrap_or(0)].push(oid);
        }
        for (shard, group) in self.shards.iter().zip(groups) {
            if !group.is_empty() {
                shard.push(Command::AddSeeds(group));
            }
        }
    }

    /// Raise the fetch budget, split evenly over the shards whose
    /// workers are still alive — a share handed to an exited shard would
    /// sit in a command queue nobody drains until the next `start()`,
    /// silently shrinking the raise while live shards starve. With no
    /// shard live it is split over all of them and funds the next
    /// `start()` (via the `join()`-time drain), as does a raise that
    /// loses the race with budget exhaustion. To extend a run that is
    /// close to its budget reliably, `pause()` first.
    pub fn add_budget(&self, extra: u64) {
        let live: Vec<&ShardRun> = self.shards.iter().filter(|s| !s.is_finished()).collect();
        let targets = match live.is_empty() {
            true => self.shards.iter().collect(),
            false => live,
        };
        let n = targets.len() as u64;
        for (i, shard) in targets.into_iter().enumerate() {
            let share = even_split(extra, n, i as u64);
            if share > 0 {
                shard.push(Command::AddBudget(share));
            }
        }
    }

    /// Switch the link-expansion policy for pages fetched from now on.
    pub fn set_policy(&self, policy: CrawlPolicy) {
        self.broadcast(Command::SetPolicy(policy));
    }

    /// Re-mark a topic and re-prioritize the frontier mid-crawl (§3.7):
    /// each shard recompiles its classifier and re-steers its own
    /// frontier.
    pub fn mark_topic(&self, class: ClassId, good: bool) {
        self.broadcast(Command::MarkTopic { class, good });
    }

    /// Force a distillation pass at the next page boundary, after the
    /// commands queued with it have applied.
    pub fn distill(&self) {
        self.broadcast(Command::Distill);
    }

    /// Stats snapshot of the live run ([`merge_stats`] over its shards).
    pub fn stats(&self) -> CrawlStats {
        merge_stats(self.shards.iter().map(|s| s.session.stats()))
    }

    /// The run's landings so far ([`merge_landings`] over its shards).
    pub fn landings(&self) -> DbResult<Vec<Landing>> {
        let per_shard = self.shards.iter().map(|s| s.session.landings());
        Ok(merge_landings(per_shard.collect::<DbResult<Vec<_>>>()?))
    }

    /// Lifecycle as seen from the handle: the least advanced state of
    /// the shards whose workers are alive, so `Paused` means every live
    /// shard has parked.
    pub fn state(&self) -> RunState {
        let live = self.shards.iter().filter(|s| !s.is_finished());
        let states = live.map(|s| s.session.control().run_state());
        states.min().unwrap_or(RunState::Finished)
    }

    /// Have all workers exited?
    pub fn is_finished(&self) -> bool {
        self.shards.iter().all(|s| s.is_finished())
    }

    /// Wait for every shard's pool and return the merged stats. Worker
    /// panics and storage failures surface as errors here rather than as
    /// silently partial stats: a lone failure as it is, several as one
    /// [`CrawlError::Worker`] naming each shard. Debug builds check each
    /// session's invariants ([`CrawlSession::check_invariants`]) and the
    /// shards together ([`crate::CrawlCluster::check_invariants`])
    /// before returning `Ok`.
    pub fn join(mut self) -> Result<CrawlStats, CrawlError> {
        let mut shards = std::mem::take(&mut self.shards);
        let (mut stats, mut errs) = (Vec::new(), Vec::new());
        for shard in &mut shards {
            shard.wind_down(&self.tail_sink);
            match shard.session.run_outcome() {
                Ok(s) => stats.push(s),
                Err(e) => errs.push((shard.session.shard.shard, e)),
            }
        }
        if errs.len() > 1 {
            let each = errs.iter().map(|(i, e)| format!("shard {i}: {e}"));
            return Err(CrawlError::Worker(each.collect::<Vec<_>>().join("; ")));
        }
        if let Some((_, e)) = errs.pop() {
            return Err(e);
        }
        let sessions: Vec<&CrawlSession> = shards.iter().map(|s| &*s.session).collect();
        debug_check(|| check_cluster(&sessions, Vec::new()));
        Ok(merge_stats(stats))
    }
}

impl Drop for CrawlRun {
    /// A dropped (un-joined) handle stops the run and waits for the
    /// pools, so no orphan workers keep crawling with nobody steering.
    fn drop(&mut self) {
        if !self.is_finished() {
            self.stop();
        }
        for shard in &mut self.shards {
            shard.wind_down(&self.tail_sink);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::events::CrawlEvent;
    use focus_classifier::train::{train, TrainConfig};
    use focus_types::ClassId;
    use focus_webgraph::{SimFetcher, WebConfig, WebGraph};

    fn test_session(threads: usize) -> (Arc<WebGraph>, Arc<CrawlSession>) {
        let graph = Arc::new(WebGraph::generate(WebConfig::tiny(13)));
        let mut taxonomy = graph.taxonomy().clone();
        let topic = taxonomy.find("recreation/cycling").unwrap();
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
        let model = train(&taxonomy, &examples, &TrainConfig::default());
        let fetcher = Arc::new(SimFetcher::new(Arc::clone(&graph), None));
        let session = Arc::new(
            CrawlSession::new(
                fetcher,
                model,
                crate::session::CrawlConfig {
                    threads,
                    max_fetches: 200,
                    distill_every: None,
                    ..crate::session::CrawlConfig::default()
                },
            )
            .unwrap(),
        );
        (graph, session)
    }

    #[test]
    fn spawn_failure_surfaces_like_a_worker_panic() {
        // Regression for the `.expect("spawn crawl worker")` panic: a
        // failed `thread::Builder::spawn` must not panic the launching
        // thread. It surfaces as WorkerFailed + CrawlError::Worker, the
        // spawned subset winds down releasing its claims, and the
        // session stays usable.
        let (graph, session) = test_session(3);
        let cycling = graph.taxonomy().find("recreation/cycling").unwrap();
        session
            .seed(&focus_webgraph::search::topic_start_set(
                &graph, cycling, 10,
            ))
            .unwrap();
        let mut run = crate::cluster::launch(
            std::slice::from_ref(&session),
            StartOptions::default(),
            &mut |i, body| {
                if i >= 1 {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::WouldBlock,
                        "Resource temporarily unavailable (injected)",
                    ));
                }
                std::thread::Builder::new()
                    .name(format!("crawl-worker-{i}"))
                    .spawn(body)
            },
        )
        .expect("a partial pool is returned, not a panic");
        let events = run.take_events().unwrap();
        let err = run.join().expect_err("spawn failure must fail the run");
        assert!(
            matches!(&err, CrawlError::Worker(m) if m.contains("spawn")),
            "unexpected outcome: {err:?}"
        );
        let all: Vec<CrawlEvent> = events.collect();
        assert!(
            all.iter()
                .any(|e| matches!(e, CrawlEvent::WorkerFailed { worker: 1, .. })),
            "no WorkerFailed for the unspawnable slot: {all:?}"
        );
        // The aborting pool handed its claims back: nothing stuck.
        session.check_invariants().unwrap();
        // The session heals: a fully-spawned rerun crawls.
        let stats = session.run().expect("healthy rerun succeeds");
        assert!(stats.successes > 0, "no progress after failed launch");
    }

    #[test]
    fn spawn_failure_of_the_whole_pool_still_reports() {
        // Even worker 0 failing to spawn (an empty pool) must produce a
        // joinable run with a Worker error, not a panic or a hang.
        let (graph, session) = test_session(1);
        let cycling = graph.taxonomy().find("recreation/cycling").unwrap();
        session
            .seed(&focus_webgraph::search::topic_start_set(&graph, cycling, 5))
            .unwrap();
        let run = crate::cluster::launch(
            std::slice::from_ref(&session),
            StartOptions::default(),
            &mut |_, _| {
                Err(std::io::Error::new(
                    std::io::ErrorKind::WouldBlock,
                    "injected",
                ))
            },
        )
        .expect("launch returns the empty run");
        assert!(run.is_finished(), "an empty pool is finished");
        let err = run.join().expect_err("must fail");
        assert!(matches!(&err, CrawlError::Worker(m) if m.contains("spawn")));
    }
}

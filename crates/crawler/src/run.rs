//! A live, steerable crawl: the [`CrawlRun`] handle.
//!
//! The paper's workflow (§1.1, §3.7) is interactive — an administrator
//! watches the harvest rate, marks topics good or bad, injects seeds, and
//! re-prioritizes the frontier of a *running* crawl. [`CrawlRun`] is that
//! console: [`crate::CrawlSession::start`] spawns the worker pool in the
//! background and returns a handle carrying
//!
//! * the typed **event stream** ([`crate::events`]),
//! * **control commands** (`pause`/`resume`/`stop`, `add_seeds`,
//!   `add_budget`, `set_policy`, `mark_topic`), delivered through a
//!   command queue the workers drain between page fetches so every
//!   mutation happens at a page boundary with tables consistent, and
//! * **snapshots** (`stats`, `checkpoint`) for monitoring and resumption.
//!
//! `join()` waits for the pool and returns final stats, surfacing worker
//! panics as [`CrawlError::Worker`] instead of silently reporting partial
//! stats as success.

use crate::events::{CrawlObserver, EventSink, EventStream};
use crate::fetch_pool::FetchPool;
use crate::policy::CrawlPolicy;
use crate::session::{CrawlSession, CrawlStats};
use focus_types::{ClassId, Oid};
use lockcheck::{rank, OrderedMutex};
use minirel::DbError;
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

/// Lifecycle of a run as seen from the handle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
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

/// Options for [`CrawlSession::start_with`].
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

/// Handle to a crawl executing in background worker threads.
pub struct CrawlRun {
    session: Arc<CrawlSession>,
    workers: Vec<JoinHandle<()>>,
    /// This run's fetch executor ([`crate::fetch_pool`]). The workers
    /// hold handles on it; the run owns it, so its fetcher threads (if
    /// any) are joined when the run is dropped — after `wind_down` has
    /// joined the workers, whose wind-down contract guarantees they
    /// cancelled or drained every job first.
    _pool: Arc<FetchPool>,
    events: Option<EventStream>,
    dropped: Arc<AtomicU64>,
    /// Observer-only sink for commands drained after the pool exited.
    /// Deliberately holds no channel sender: a sender stored in the
    /// handle would keep [`EventStream`] iteration from terminating
    /// while the handle is alive.
    tail_sink: EventSink,
}

/// How worker bodies become OS threads. Injectable so tests can make
/// `spawn` fail deterministically (a real `thread::Builder::spawn`
/// failure needs OS-level resource exhaustion).
pub(crate) type WorkerSpawner =
    dyn FnMut(usize, Box<dyn FnOnce() + Send + 'static>) -> std::io::Result<JoinHandle<()>>;

impl CrawlRun {
    pub(crate) fn launch(
        session: Arc<CrawlSession>,
        opts: StartOptions,
    ) -> Result<CrawlRun, CrawlError> {
        Self::launch_with_spawner(session, opts, &mut |i, body| {
            std::thread::Builder::new()
                .name(format!("crawl-worker-{i}"))
                .spawn(body)
        })
    }

    /// [`CrawlRun::launch`] with an explicit thread spawner. A spawn
    /// failure does **not** panic the launching thread: the failed slot
    /// is recorded like a worker panic (`CrawlEvent::WorkerFailed`, then
    /// `CrawlError::Worker` from `join()`), the pool is aborted so the
    /// already-spawned workers wind down and hand their claims back at
    /// the next page boundary, and the partially-spawned run is returned
    /// for the caller to `join()` — the same surfacing contract a
    /// mid-crawl panic has.
    pub(crate) fn launch_with_spawner(
        session: Arc<CrawlSession>,
        opts: StartOptions,
        spawn: &mut WorkerSpawner,
    ) -> Result<CrawlRun, CrawlError> {
        session.control().activate()?;
        // A previous run's verdict (worker panic, storage error) was
        // delivered by its join(); it must not fail this run too.
        session.reset_run_diagnostics();
        let dropped = Arc::new(AtomicU64::new(0));
        let (tx, rx) = std::sync::mpsc::sync_channel(opts.event_capacity.max(1));
        let tail_sink = EventSink::new(None, opts.observers.clone(), Arc::clone(&dropped));
        let sink = Arc::new(EventSink::new(
            Some(tx),
            opts.observers,
            Arc::clone(&dropped),
        ));
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
            let worker_sink = Arc::clone(&sink);
            let exec = pool.handle();
            let body = Box::new(move || {
                let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    s.worker(exec, &worker_sink)
                }));
                if let Err(payload) = caught {
                    // `as_ref` reaches the panic payload itself; a
                    // plain `&payload` would unsize the Box and make
                    // the downcasts below see `Box<dyn Any>`.
                    s.note_worker_panic(i, payload.as_ref(), &worker_sink);
                }
                s.note_worker_exit();
            });
            match spawn(i, body) {
                Ok(handle) => workers.push(handle),
                Err(e) => {
                    session.note_spawn_failure(i, &e, &sink);
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
        Ok(CrawlRun {
            session,
            workers,
            _pool: pool,
            events: Some(EventStream::new(rx, dropped.clone())),
            dropped,
            tail_sink,
        })
    }

    /// The session this run executes over (ad-hoc SQL, snapshots).
    pub fn session(&self) -> &Arc<CrawlSession> {
        &self.session
    }

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

    /// Hold workers after their in-flight fetches land. Commands (seeds,
    /// marks, budget) still apply while paused.
    pub fn pause(&self) {
        self.session.control().push(Command::Pause);
    }

    /// Release paused workers.
    pub fn resume(&self) {
        self.session.control().push(Command::Resume);
    }

    /// Wind the run down; `join()` then returns the stats so far.
    pub fn stop(&self) {
        self.session.control().push(Command::Stop);
    }

    /// Inject seeds into the live frontier at top priority.
    pub fn add_seeds(&self, seeds: &[Oid]) {
        self.session
            .control()
            .push(Command::AddSeeds(seeds.to_vec()));
    }

    /// Raise the fetch budget. Applied at the next page boundary while
    /// the pool is alive; a raise that loses the race with budget
    /// exhaustion still lands in the session (via the `join()`-time
    /// drain) and funds the next `start()`. To extend a run that is
    /// close to its budget reliably, `pause()` first.
    pub fn add_budget(&self, extra: u64) {
        self.session.control().push(Command::AddBudget(extra));
    }

    /// Switch the link-expansion policy for pages fetched from now on.
    pub fn set_policy(&self, policy: CrawlPolicy) {
        self.session.control().push(Command::SetPolicy(policy));
    }

    /// Re-mark a topic and re-prioritize the frontier mid-crawl (§3.7).
    pub fn mark_topic(&self, class: ClassId, good: bool) {
        self.session
            .control()
            .push(Command::MarkTopic { class, good });
    }

    /// Resolve a topic by name (for `mark_topic` from a console).
    pub fn find_topic(&self, name: &str) -> Option<ClassId> {
        self.session.find_topic(name)
    }

    /// Force a distillation pass at the next page boundary, after the
    /// commands queued with it have applied.
    pub fn distill(&self) {
        self.session.control().push(Command::Distill);
    }

    /// Stats snapshot of the live run.
    pub fn stats(&self) -> CrawlStats {
        self.session.stats()
    }

    /// Lifecycle as seen from the handle.
    pub fn state(&self) -> RunState {
        if self.is_finished() {
            RunState::Finished
        } else {
            self.session.control().run_state()
        }
    }

    /// Have all workers exited?
    pub fn is_finished(&self) -> bool {
        self.workers.iter().all(|h| h.is_finished())
    }

    /// Copy the store and what no table holds, for resumption in a fresh
    /// session ([`CrawlSession::restore`]). Taken at a page boundary
    /// (under the session lock), so tables are consistent; pausing first
    /// makes the snapshot stable against the run advancing.
    pub fn checkpoint(&self) -> Result<crate::session::CrawlCheckpoint, CrawlError> {
        Ok(self.session.checkpoint()?)
    }

    /// Wait for the worker pool and return final stats. Worker panics and
    /// storage failures surface as errors here rather than as silently
    /// partial stats. Debug builds check the session's invariants
    /// before returning `Ok` ([`CrawlSession::check_invariants`]).
    pub fn join(mut self) -> Result<CrawlStats, CrawlError> {
        self.wind_down();
        self.session.run_outcome()
    }

    /// Join the pool, then apply any commands the workers never got to
    /// (pushed after the last worker exited): budget raises, seeds, and
    /// marks land in session state for the next run instead of vanishing.
    fn wind_down(&mut self) {
        for h in self.workers.drain(..) {
            // Workers catch their own panics; a join error would mean the
            // catch itself unwound, which AssertUnwindSafe precludes.
            let _ = h.join();
        }
        self.session.apply_commands(&self.tail_sink);
        // Everything the run wrote — including commands applied just
        // above, after the last worker's batch commit — becomes durable
        // before `join()` acknowledges the run. No-op without a WAL.
        self.session.final_durable_commit();
        self.session.control().deactivate();
    }
}

impl Drop for CrawlRun {
    /// A dropped (un-joined) handle stops the run and waits for the pool,
    /// so no orphan workers keep crawling with nobody steering.
    fn drop(&mut self) {
        if self.workers.is_empty() {
            return;
        }
        if !self.is_finished() {
            self.stop();
        }
        self.wind_down();
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
        let mut run = CrawlRun::launch_with_spawner(
            Arc::clone(&session),
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
        let run = CrawlRun::launch_with_spawner(
            Arc::clone(&session),
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

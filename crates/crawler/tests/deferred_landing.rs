//! Deferred landing: a busy store lock defers the landing, not the
//! worker. A classified page whose `try_write` loses waits in its lane
//! and lands — in completion order, with its neighbours — under the
//! next guard the worker gets; the worker only *blocks* on the lock
//! when it has nothing left to fetch, at a commit point, before a
//! pause and at wind-down.
//!
//! Contention is made deterministic, not timed: a test thread holds
//! `with_db_read` open on a channel (a read guard makes `try_write`
//! fail), and a gating fetcher holds chosen fetches until the test has
//! looked. While the reader is held the tests read only what takes no
//! store lock — `stats()`, `fetch_count()` — because a writer queued on
//! the lock makes later readers wait behind it.

mod support;

use focus_crawler::session::{CrawlConfig, CrawlSession};
use focus_crawler::{CrawlPolicy, CrawlStats, Landing, RunState, StartOptions};
use focus_types::{Oid, ServerId};
use focus_webgraph::{
    ChaosFetcher, ChaosSchedule, FaultProfile, FetchError, FetchedPage, Fetcher, SimFetcher,
    WebConfig, WebGraph,
};
use minirel::Value;
use std::collections::{BTreeSet, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};
use support::{trained_model, Recorder};

const BATCH: u64 = 8;
/// Per-fetch failure probability on every server: at this chaos seed a
/// failure falls inside the first batch, between successes.
const FLAKY: f64 = 0.3;

/// Poll `done` (which must take no store lock) for up to 30 s.
fn wait_until(what: &str, done: impl Fn() -> bool) {
    let t0 = Instant::now();
    while !done() {
        assert!(t0.elapsed() < Duration::from_secs(30), "never: {what}");
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// Every server `Flaky { p }` (seeded, keyed on submission ordinals)
/// over the simulated web, behind a gate: fetch calls are counted on
/// entry, successful serves per page, and the calls whose 1-based
/// number is in `hold` wait until the test releases them.
struct Gate {
    inner: ChaosFetcher,
    calls: AtomicU64,
    served: Mutex<HashMap<Oid, u32>>,
    hold: Mutex<BTreeSet<u64>>,
    /// The call now waiting at the gate (0 = none).
    holding: AtomicU64,
}

impl Gate {
    fn new(graph: &Arc<WebGraph>, flaky_p: f64, hold: &[u64]) -> Arc<Gate> {
        let mut schedule = ChaosSchedule::new(0x601d);
        let servers: BTreeSet<u32> = graph.pages().iter().map(|p| p.server.raw()).collect();
        for s in servers {
            schedule = schedule.with_profile(ServerId(s), FaultProfile::Flaky { p: flaky_p });
        }
        let sim = Arc::new(SimFetcher::new(Arc::clone(graph), None));
        Arc::new(Gate {
            inner: ChaosFetcher::new(sim, schedule),
            calls: AtomicU64::new(0),
            served: Mutex::new(HashMap::new()),
            hold: Mutex::new(hold.iter().copied().collect()),
            holding: AtomicU64::new(0),
        })
    }

    fn wait_holding(&self, call: u64) {
        wait_until("the held fetch", || {
            self.holding.load(Ordering::SeqCst) == call
        });
    }

    fn release(&self, call: u64) {
        assert!(self.hold.lock().unwrap().remove(&call), "{call} not held");
    }
}

impl Fetcher for Gate {
    fn fetch(&self, oid: Oid) -> Result<FetchedPage, FetchError> {
        self.fetch_with_ordinal(oid, 0)
    }

    fn fetch_with_ordinal(&self, oid: Oid, ordinal: u64) -> Result<FetchedPage, FetchError> {
        let call = self.calls.fetch_add(1, Ordering::SeqCst) + 1;
        if self.hold.lock().unwrap().contains(&call) {
            self.holding.store(call, Ordering::SeqCst);
            wait_until("the gate opening", || {
                !self.hold.lock().unwrap().contains(&call)
            });
            self.holding.store(0, Ordering::SeqCst);
        }
        let page = self.inner.fetch_with_ordinal(oid, ordinal)?;
        *self.served.lock().unwrap().entry(oid).or_insert(0) += 1;
        Ok(page)
    }

    fn fetch_count(&self) -> u64 {
        self.calls.load(Ordering::SeqCst)
    }

    fn url_of(&self, oid: Oid) -> Option<String> {
        self.inner.url_of(oid)
    }

    fn server_of(&self, oid: Oid) -> Option<ServerId> {
        self.inner.server_of(oid)
    }
}

/// A test thread inside `with_db_read` until released: while it lives,
/// every `try_write` on the store fails.
struct Reader {
    release: mpsc::Sender<()>,
    thread: std::thread::JoinHandle<()>,
}

impl Reader {
    fn hold(session: &Arc<CrawlSession>) -> Reader {
        let (held_tx, held_rx) = mpsc::channel();
        let (release, released) = mpsc::channel::<()>();
        let session = Arc::clone(session);
        let thread = std::thread::spawn(move || {
            session.with_db_read(|_| {
                held_tx.send(()).unwrap();
                let _ = released.recv_timeout(Duration::from_secs(30));
            })
        });
        held_rx.recv().expect("the reader has the store");
        Reader { release, thread }
    }

    fn release(self) {
        drop(self.release);
        self.thread.join().unwrap();
    }
}

fn config(threads: usize, budget: u64, distill_every: Option<usize>) -> CrawlConfig {
    CrawlConfig {
        policy: CrawlPolicy::SoftFocus,
        threads,
        fetch_pool: 0,
        max_fetches: budget,
        batch_size: BATCH as usize,
        distill_every,
        hub_boost_top_k: 5,
        ..CrawlConfig::default()
    }
}

fn session_over(
    graph: &Arc<WebGraph>,
    gate: &Arc<Gate>,
    cfg: CrawlConfig,
    n_seeds: usize,
) -> Arc<CrawlSession> {
    let session = Arc::new(
        CrawlSession::new(
            Arc::clone(gate) as _,
            trained_model(graph, "recreation/cycling"),
            cfg,
        )
        .unwrap(),
    );
    let cycling = graph.taxonomy().find("recreation/cycling").unwrap();
    let seeds = focus_webgraph::search::topic_start_set(graph, cycling, n_seeds);
    session.seed(&seeds).unwrap();
    session
}

type Row = Vec<Value>;

fn rows(session: &CrawlSession, sql: &str) -> Vec<Row> {
    session.sql(sql).unwrap().rows
}

const FRONTIER: &str =
    "select oid, relevance, numtries, not_before from crawl where visited = 0 order by oid";
const HUBS: &str = "select oid, score from hubs order by oid";
const CLAIMED: &str = "select oid from crawl where visited = 2 order by oid";

/// What one finished single-worker crawl left behind, for comparison.
#[derive(Debug, PartialEq)]
struct Outcome {
    events: Vec<String>,
    landings: Vec<Landing>,
    failures: u64,
    distillations: u64,
    visited: Vec<String>,
    frontier: Vec<Row>,
    hubs: Vec<Row>,
}

fn outcome(session: &CrawlSession, stats: &CrawlStats, rec: &Recorder) -> Outcome {
    let debug = |v: &dyn std::fmt::Debug| format!("{v:?}");
    Outcome {
        events: rec.events().iter().map(|e| debug(e)).collect(),
        landings: session.landings().unwrap(),
        failures: stats.failures,
        distillations: stats.distillations,
        visited: session.visited().iter().map(|r| debug(r)).collect(),
        frontier: rows(session, FRONTIER),
        hubs: rows(session, HUBS),
    }
}

/// One worker crawls to `budget` over a flaky web. With `watched`, a
/// reader takes the store after the first claim and keeps it until the
/// worker has fetched its whole first batch ahead and blocked.
fn first_batch_crawl(
    budget: u64,
    distill_every: Option<usize>,
    watched: bool,
) -> (Outcome, CrawlStats) {
    let graph = Arc::new(WebGraph::generate(WebConfig::tiny(13)));
    // The claim itself needs the write lock, so the reader comes after
    // it: hold the first fetch until the reader is in.
    let gate = Gate::new(&graph, FLAKY, if watched { &[1] } else { &[] });
    let session = session_over(&graph, &gate, config(1, budget, distill_every), 10);
    let rec = Recorder::new();
    let run = session
        .start_with(StartOptions {
            observers: vec![Arc::clone(&rec) as _],
            ..StartOptions::default()
        })
        .unwrap();
    if watched {
        gate.wait_holding(1);
        let reader = Reader::hold(&session);
        gate.release(1);
        // The worker fetches its batch ahead, every `try_write` losing,
        // and only then blocks: it lands nothing and claims no second
        // batch (the claim would need the lock too).
        wait_until("the batch fetched ahead", || gate.fetch_count() == BATCH);
        std::thread::sleep(Duration::from_millis(50));
        assert_eq!(gate.fetch_count(), BATCH, "fetched past its batch");
        let stats = run.stats();
        assert_eq!(stats.attempts, BATCH, "claimed a second batch");
        assert_eq!(stats.successes + stats.failures, 0, "landed under a reader");
        reader.release();
    }
    let stats = run.join().unwrap();
    assert_eq!(stats.attempts, budget);
    assert_eq!(stats.attempts, stats.successes + stats.failures);
    assert_eq!(gate.fetch_count(), budget);
    session.check_invariants().unwrap();
    (outcome(&session, &stats, &rec), stats)
}

/// (a) Order is preserved, failures included: the watched crawl's
/// events, completion order, harvest and tables are the unwatched
/// crawl's, and only the watched one deferred anything.
#[test]
fn a_batch_fetched_ahead_under_a_reader_lands_in_completion_order() {
    let (plain, plain_stats) = first_batch_crawl(150, None, false);
    let (watched, watched_stats) = first_batch_crawl(150, None, true);
    assert!(plain.failures > 0, "the web must be flaky for this test");
    assert_eq!(
        plain_stats.deferred_landings, 0,
        "uncontended is today's path"
    );
    // Every success of the first batch lost its `try_write`, except a
    // success completing the batch: that one blocks, like today.
    let first_batch = |last: u64| {
        let early = plain.landings.iter().filter(|l| l.attempt <= last);
        early.count() as u64
    };
    assert_eq!(watched_stats.deferred_landings, first_batch(BATCH - 1));
    assert!(first_batch(BATCH) < BATCH, "a failure waited among them");
    assert!(watched_stats.deferred_landings >= 3);
    assert_eq!(watched, plain);
}

/// (b) The distillation trigger ends the guard mid-group: with a pass
/// due every 3 successes and a whole batch landing at once, the passes,
/// `HUBS` and the hub-boosted frontier are the unwatched crawl's.
#[test]
fn a_trigger_inside_a_group_distills_where_it_would_have() {
    let (plain, plain_stats) = first_batch_crawl(60, Some(3), false);
    let (watched, watched_stats) = first_batch_crawl(60, Some(3), true);
    assert!(plain.distillations >= 10 && !plain.hubs.is_empty());
    assert_eq!(plain_stats.deferred_landings, 0);
    assert!(watched_stats.deferred_landings >= 3, "no group to end");
    assert_eq!(watched.distillations, plain.distillations);
    assert_eq!(watched.hubs, plain.hubs);
    assert_eq!(watched.frontier, plain.frontier);
    assert_eq!(watched, plain);
}

/// How (c) steers the crawl while pages are buffered.
#[derive(Clone, Copy, PartialEq)]
enum Steer {
    PauseThenResume,
    PauseThenStop,
    Stop,
}

/// (c) `pause()` / `stop()` / `checkpoint()` with pages buffered: four
/// pages wait in the lane (a reader holds the store) and the worker is
/// inside its fifth fetch when the command arrives. It acts within that
/// one fetch, and every buffered page still lands.
fn steer_with_pages_buffered(steer: Steer) {
    let graph = Arc::new(WebGraph::generate(WebConfig::tiny(13)));
    let gate = Gate::new(&graph, FLAKY, &[1, 5]);
    let budget = 5 * BATCH;
    let session = session_over(&graph, &gate, config(1, budget, Some(3)), 10);
    let run = session.start().unwrap();
    gate.wait_holding(1);
    let reader = Reader::hold(&session);
    gate.release(1);
    gate.wait_holding(5);
    // No writer is queued (the worker is inside a fetch), so reads are
    // still served: the whole batch is checked out, nothing has landed.
    assert_eq!(run.stats().successes + run.stats().failures, 0);
    let claimed = rows(&session, CLAIMED);
    assert_eq!(claimed.len() as u64, BATCH);
    // A checkpoint takes the store write guard (for the `crawl_state`
    // row): cut it between two readers, while the worker is inside its
    // fifth fetch with four pages buffered, holding no lock.
    reader.release();
    let ckpt = session.checkpoint().unwrap();
    let reader = Reader::hold(&session);
    assert_eq!(run.stats().successes + run.stats().failures, 0);
    match steer {
        Steer::Stop => run.stop(),
        _ => run.pause(),
    }
    gate.release(5);
    // The fifth page is buffered too; the worker then blocks before
    // parking (or unwinding) instead of fetching a sixth.
    wait_until("the fifth fetch", || gate.fetch_count() == 5);
    std::thread::sleep(Duration::from_millis(50));
    assert_eq!(gate.fetch_count(), 5, "fetched after the command");
    assert_eq!(run.stats().successes + run.stats().failures, 0);
    reader.release();
    let landed = |s: CrawlStats| s.successes + s.failures;
    wait_until("the buffered pages landing", || landed(run.stats()) == 5);

    if steer != Steer::Stop {
        wait_until("the pause", || run.state() == RunState::Paused);
        std::thread::sleep(Duration::from_millis(20));
        assert_eq!(run.stats().attempts, BATCH, "claimed while paused");
        assert_eq!(gate.fetch_count(), 5, "fetched while paused");
        // Parked with nothing buffered: the three held claims are all
        // that is checked out.
        assert_eq!(rows(&session, CLAIMED).len(), 3);
    }
    match steer {
        Steer::PauseThenResume => run.resume(),
        Steer::PauseThenStop => run.stop(),
        Steer::Stop => {}
    }
    let stats = run.join().unwrap();
    session.check_invariants().unwrap();
    assert_eq!(gate.fetch_count(), stats.successes + stats.failures);
    if steer == Steer::PauseThenResume {
        assert_eq!(stats.attempts, budget);
        assert_eq!(gate.fetch_count(), stats.attempts);
    } else {
        // The three unfetched claims went back to the frontier;
        // `attempts` is monotone and stays as counted.
        assert_eq!((stats.attempts, gate.fetch_count()), (BATCH, 5));
    }
    let visited: BTreeSet<Oid> = session.visited().iter().map(|v| v.0).collect();
    assert_eq!(visited.len() as u64, stats.successes);
    for landing in session.landings().unwrap() {
        let oid = landing.oid;
        assert!(visited.contains(&oid), "{oid:?} landed nowhere");
    }
    for (oid, served) in gate.served.lock().unwrap().iter() {
        assert_eq!(*served, 1, "{oid:?} fetched twice");
        assert!(visited.contains(oid), "fetched page {oid:?} was dropped");
    }

    // The checkpoint cut with pages buffered: fetched or not, they are
    // in-flight claims like any other, poppable again after a restore.
    let restored = CrawlSession::restore(
        Arc::new(SimFetcher::new(Arc::clone(&graph), None)),
        trained_model(&graph, "recreation/cycling"),
        config(1, budget, Some(3)),
        &ckpt,
    )
    .unwrap();
    assert_eq!(restored.stats().attempts, BATCH);
    assert!(rows(&restored, CLAIMED).is_empty());
    for row in &claimed {
        let oid = row[0].as_i64().unwrap();
        let state = rows(
            &restored,
            &format!("select visited from crawl where oid = {oid}"),
        );
        assert_eq!(state[0][0].as_i64(), Some(0), "claim {oid} not poppable");
    }
}

#[test]
fn pause_with_pages_buffered_lands_them_then_resumes_to_budget() {
    steer_with_pages_buffered(Steer::PauseThenResume);
}

#[test]
fn stop_while_paused_with_pages_buffered_leaks_no_claim() {
    steer_with_pages_buffered(Steer::PauseThenStop);
}

#[test]
fn stop_with_pages_buffered_lands_them_and_hands_the_rest_back() {
    steer_with_pages_buffered(Steer::Stop);
}

/// (d) Real contention, no script: 2 and 4 workers on one store from 3
/// seeds. Whatever the interleaving, the budget is spent exactly, every
/// visited page was fetched exactly once, and the session's invariants
/// hold (no claim left checked out, every gauge back at zero, heaps and
/// indexes agreeing).
#[test]
fn workers_sharing_a_store_keep_every_invariant() {
    for threads in [2, 4] {
        let graph = Arc::new(WebGraph::generate(WebConfig::tiny(13)));
        let gate = Gate::new(&graph, 0.1, &[]);
        let budget = 600;
        let session = session_over(&graph, &gate, config(threads, budget, Some(40)), 3);
        let stats = session.run().unwrap();
        assert_eq!(stats.attempts, budget, "{threads} workers");
        assert_eq!(stats.attempts, stats.successes + stats.failures);
        assert_eq!(gate.fetch_count(), budget);
        assert!(stats.deferred_landings <= stats.successes);
        session.check_invariants().unwrap();
        let visited = session.visited();
        assert_eq!(visited.len() as u64, stats.successes);
        let served = gate.served.lock().unwrap();
        for (oid, _, _) in &visited {
            assert_eq!(
                served.get(oid),
                Some(&1),
                "{oid:?} not fetched exactly once"
            );
        }
        assert_eq!(served.len(), visited.len(), "a fetched page was dropped");
    }
}

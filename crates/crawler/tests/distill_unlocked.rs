//! Distillation outside the store lock: the pass runs on a snapshot
//! while peers keep landing pages and monitors keep querying, and the
//! orderings that make that safe hold under real interleavings —
//! budget spent exactly, no claim left checked out, no page fetched
//! twice, the cluster terminates, passes publish in order, and a
//! monitor never sees two republishes of `HUBS` interleaved. These run
//! in the release-mode stress step of CI as well.
//!
//! Plus the regression for the forced-pass bug: `run.distill()` and
//! `distill_now()` used to leave the periodic counter alone, so a
//! forced pass at success 499 was followed by a periodic one a page
//! later.

mod support;

use focus_crawler::cluster::CrawlCluster;
use focus_crawler::session::{CrawlConfig, CrawlSession};
use focus_crawler::{CrawlEvent, CrawlPolicy, StartOptions};
use focus_types::Oid;
use focus_webgraph::{FetchError, FetchedPage, Fetcher, SimFetcher, WebConfig, WebGraph};
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};
use support::{trained_model, Recorder};

const EVERY: usize = 20;

/// Counts successful fetches per page, and can hold one fetch (the
/// `hold_at`-th, 1-based; 0 = never) until the test releases it.
struct Probe {
    inner: SimFetcher,
    served: Mutex<HashMap<Oid, u32>>,
    calls: AtomicU64,
    hold_at: u64,
    holding: AtomicBool,
    released: AtomicBool,
}

impl Probe {
    fn new(graph: &Arc<WebGraph>, hold_at: u64) -> Arc<Probe> {
        Arc::new(Probe {
            inner: SimFetcher::new(Arc::clone(graph), None),
            served: Mutex::new(HashMap::new()),
            calls: AtomicU64::new(0),
            hold_at,
            holding: AtomicBool::new(false),
            released: AtomicBool::new(false),
        })
    }
}

impl Fetcher for Probe {
    fn fetch(&self, oid: Oid) -> Result<FetchedPage, FetchError> {
        if self.calls.fetch_add(1, Ordering::SeqCst) + 1 == self.hold_at {
            self.holding.store(true, Ordering::SeqCst);
            let t0 = Instant::now();
            while !self.released.load(Ordering::SeqCst) {
                assert!(t0.elapsed() < Duration::from_secs(30), "never released");
                std::thread::sleep(Duration::from_millis(1));
            }
        }
        let page = self.inner.fetch(oid)?;
        *self.served.lock().unwrap().entry(oid).or_insert(0) += 1;
        Ok(page)
    }

    fn fetch_count(&self) -> u64 {
        self.inner.fetch_count()
    }

    fn url_of(&self, oid: Oid) -> Option<String> {
        self.inner.url_of(oid)
    }
}

/// Successes seen before each `DistillCompleted`, and its number.
fn passes(events: &[CrawlEvent]) -> Vec<(usize, u64)> {
    let mut successes = 0;
    let mut out = Vec::new();
    for e in events {
        match e {
            CrawlEvent::PageClassified { .. } => successes += 1,
            CrawlEvent::DistillCompleted { distillation, .. } => {
                out.push((successes, *distillation));
            }
            _ => {}
        }
    }
    out
}

fn one_worker(fetcher: Arc<dyn Fetcher>, graph: &Arc<WebGraph>, budget: u64) -> Arc<CrawlSession> {
    let session = Arc::new(
        CrawlSession::new(
            fetcher,
            trained_model(graph, "recreation/cycling"),
            CrawlConfig {
                policy: CrawlPolicy::SoftFocus,
                threads: 1,
                fetch_pool: 0,
                max_fetches: budget,
                distill_every: Some(50),
                ..CrawlConfig::default()
            },
        )
        .unwrap(),
    );
    let cycling = graph.taxonomy().find("recreation/cycling").unwrap();
    session
        .seed(&focus_webgraph::search::topic_start_set(graph, cycling, 10))
        .unwrap();
    session
}

/// `run.distill()` in the middle of a periodic interval: the forced
/// pass restarts the count, so the next periodic pass comes a full
/// interval after it — not at the next multiple of the interval.
#[test]
fn forced_pass_mid_interval_restarts_the_periodic_count() {
    let graph = Arc::new(WebGraph::generate(WebConfig::tiny(13)));
    // The worker blocks in its 31st fetch with 30 attempts landed; the
    // command queued meanwhile applies at the next page boundary.
    let probe = Probe::new(&graph, 31);
    let session = one_worker(Arc::clone(&probe) as _, &graph, 200);
    let rec = Recorder::new();
    let run = session
        .start_with(StartOptions {
            observers: vec![Arc::clone(&rec) as _],
            ..StartOptions::default()
        })
        .unwrap();
    let t0 = Instant::now();
    while !probe.holding.load(Ordering::SeqCst) {
        assert!(
            t0.elapsed() < Duration::from_secs(30),
            "fetch 31 never came"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    run.distill();
    probe.released.store(true, Ordering::SeqCst);
    let stats = run.join().unwrap();

    let events = rec.events();
    let passes = passes(&events);
    let (forced_at, _) = passes[0];
    assert!(
        forced_at > 0 && forced_at < 50,
        "the forced pass should land mid-interval, landed at {forced_at}"
    );
    let mut at = forced_at;
    for &(next, _) in &passes[1..] {
        assert_eq!(
            next - at,
            50,
            "a pass at success {at} was followed by one at {next}: every pass \
             restarts the periodic count"
        );
        at = next;
    }
    assert_eq!(
        passes.len(),
        1 + (stats.successes as usize - forced_at) / 50,
        "one pass per full interval after the forced one: {passes:?}"
    );
}

/// The same through `distill_now()` between two runs of one session.
#[test]
fn distill_now_between_runs_restarts_the_periodic_count() {
    let graph = Arc::new(WebGraph::generate(WebConfig::tiny(13)));
    let session = one_worker(
        Arc::new(SimFetcher::new(Arc::clone(&graph), None)),
        &graph,
        30,
    );
    let first = session.run().unwrap();
    assert!(first.successes > 0 && first.successes < 50);
    assert_eq!(first.distillations, 0, "no periodic pass in 30 attempts");
    session.distill_now().unwrap();

    session.add_budget(80);
    let rec = Recorder::new();
    let stats = session
        .start_with(StartOptions {
            observers: vec![Arc::clone(&rec) as _],
            ..StartOptions::default()
        })
        .unwrap()
        .join()
        .unwrap();
    let second_leg = (stats.successes - first.successes) as usize;
    assert!(second_leg >= 50, "second leg too short: {second_leg}");
    let events = rec.events();
    assert_eq!(
        passes(&events)
            .iter()
            .map(|&(at, _)| at)
            .collect::<Vec<_>>(),
        vec![50],
        "the second leg's one periodic pass comes 50 successes after distill_now()"
    );
}

/// Every page `session` visited was fetched exactly once: evidence only
/// the fetcher's side has.
fn fetched_once(session: &CrawlSession, probe: &Probe) {
    let served = probe.served.lock().unwrap();
    for (oid, _, _) in session.visited() {
        assert_eq!(
            served.get(&oid).copied(),
            Some(1),
            "visited page {oid:?} was not fetched exactly once"
        );
    }
}

/// Poll `HUBS` until told to stop: a republish is delete + insert under
/// one guard, so no read ever sees more than the 200 published rows or
/// the same page twice.
fn watch_hubs(session: Arc<CrawlSession>, done: Arc<AtomicBool>) -> std::thread::JoinHandle<u64> {
    std::thread::spawn(move || {
        let mut polls = 0;
        while !done.load(Ordering::SeqCst) {
            let count = session
                .sql("select count(*) from hubs")
                .unwrap()
                .scalar_i64()
                .unwrap();
            assert!(
                count <= 200,
                "HUBS held {count} rows: two passes interleaved"
            );
            let rows = session.sql("select oid from hubs").unwrap().rows;
            let distinct: HashSet<i64> = rows.iter().map(|r| r[0].as_i64().unwrap()).collect();
            assert_eq!(distinct.len(), rows.len(), "a hub is listed twice");
            polls += 1;
        }
        polls
    })
}

/// Run `f` on its own thread and fail (rather than hang the suite) if
/// it has not finished in a minute.
fn within_a_minute<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(f());
    });
    rx.recv_timeout(Duration::from_secs(60))
        .expect("the crawl did not terminate")
}

fn two_workers(fetch_pool: usize) {
    let graph = Arc::new(WebGraph::generate(WebConfig::tiny(13)));
    let probe = Probe::new(&graph, 0);
    let budget = 500;
    let session = Arc::new(
        CrawlSession::new(
            Arc::clone(&probe) as _,
            trained_model(&graph, "recreation/cycling"),
            CrawlConfig {
                policy: CrawlPolicy::SoftFocus,
                threads: 2,
                fetch_pool,
                max_fetches: budget,
                distill_every: Some(EVERY),
                ..CrawlConfig::default()
            },
        )
        .unwrap(),
    );
    let cycling = graph.taxonomy().find("recreation/cycling").unwrap();
    session
        .seed(&focus_webgraph::search::topic_start_set(
            &graph, cycling, 12,
        ))
        .unwrap();
    let rec = Recorder::new();
    let done = Arc::new(AtomicBool::new(false));
    let monitor = watch_hubs(Arc::clone(&session), Arc::clone(&done));
    let run = session
        .start_with(StartOptions {
            observers: vec![Arc::clone(&rec) as _],
            ..StartOptions::default()
        })
        .unwrap();
    let stats = within_a_minute(move || run.join().unwrap());
    done.store(true, Ordering::SeqCst);
    assert!(
        monitor.join().unwrap() > 0,
        "the monitor never got a read in"
    );

    assert_eq!(stats.attempts, budget, "the budget is spent exactly");
    session.check_invariants().unwrap();
    fetched_once(&session, &probe);
    let events = rec.events();
    let numbers: Vec<u64> = passes(&events).iter().map(|&(_, n)| n).collect();
    assert!(
        numbers.len() >= stats.successes as usize / (2 * EVERY),
        "{} successes produced only {} passes",
        stats.successes,
        numbers.len()
    );
    assert!(
        numbers.windows(2).all(|w| w[0] < w[1]),
        "DistillCompleted numbers must strictly increase: {numbers:?}"
    );
    assert_eq!(stats.distillations, *numbers.last().unwrap());
}

#[test]
fn two_workers_distill_every_20_inline() {
    two_workers(0);
}

#[test]
fn two_workers_distill_every_20_pooled() {
    two_workers(8);
}

fn two_shards(fetch_pool: usize) {
    let graph = Arc::new(WebGraph::generate(WebConfig::tiny(13)));
    let probe = Probe::new(&graph, 0);
    let budget = 500;
    let cluster = CrawlCluster::new(
        2,
        Arc::clone(&probe) as _,
        trained_model(&graph, "recreation/cycling"),
        CrawlConfig {
            policy: CrawlPolicy::SoftFocus,
            threads: 2,
            fetch_pool,
            max_fetches: budget,
            distill_every: Some(EVERY),
            ..CrawlConfig::default()
        },
    )
    .unwrap();
    let cycling = graph.taxonomy().find("recreation/cycling").unwrap();
    cluster
        .seed(&focus_webgraph::search::topic_start_set(
            &graph, cycling, 12,
        ))
        .unwrap();
    let done = Arc::new(AtomicBool::new(false));
    let monitors: Vec<_> = cluster
        .shards()
        .iter()
        .map(|s| watch_hubs(Arc::clone(s), Arc::clone(&done)))
        .collect();
    let mut run = cluster
        .start_with(StartOptions {
            // Roomy enough that no event of a 500-attempt run is dropped.
            event_capacity: 1 << 16,
            ..StartOptions::default()
        })
        .unwrap();
    let streams: Vec<_> = (0..2).map(|i| run.take_events(i).unwrap()).collect();
    let stats = within_a_minute(move || run.join().unwrap());
    done.store(true, Ordering::SeqCst);
    for m in monitors {
        assert!(m.join().unwrap() > 0, "a monitor never got a read in");
    }

    assert_eq!(stats.attempts, budget, "the split budget is spent exactly");
    cluster.check_invariants().unwrap();
    for (shard, stream) in cluster.shards().iter().zip(&streams) {
        fetched_once(shard, &probe);
        assert_eq!(stream.dropped(), 0);
        let numbers: Vec<u64> = passes(&stream.drain()).iter().map(|&(_, n)| n).collect();
        assert!(!numbers.is_empty(), "a shard never distilled");
        assert!(
            numbers.windows(2).all(|w| w[0] < w[1]),
            "a shard's DistillCompleted numbers must strictly increase: {numbers:?}"
        );
    }
}

#[test]
fn two_shard_cluster_distill_every_20_inline() {
    two_shards(0);
}

#[test]
fn two_shard_cluster_distill_every_20_pooled() {
    two_shards(8);
}

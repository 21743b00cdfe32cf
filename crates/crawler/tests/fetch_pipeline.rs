//! Stress tests of the async fetch pipeline's lifecycle contracts:
//! with hundreds of latency-laden fetches in flight, pause freezes the
//! attempt counter and stop/checkpoint leak no `CLAIMED` rows — every
//! queued-but-unfetched claim is handed back to the frontier, every
//! on-the-wire fetch is completed-then-flushed — and the per-server
//! politeness cap holds under full pooled concurrency.

mod support;

use focus_crawler::session::{CrawlConfig, CrawlSession};
use focus_crawler::{CrawlPolicy, PolitenessConfig};
use focus_types::Oid;
use focus_webgraph::{FetchError, FetchedPage, Fetcher, SimFetcher, WebConfig, WebGraph};
use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use support::trained_model;

/// A big-enough world that the crawl cannot finish under the test's
/// feet, with a fetch latency that keeps hundreds of jobs on the wire.
fn pipeline_session(
    latency: Duration,
    cfg_patch: impl FnOnce(&mut CrawlConfig),
) -> (Arc<CrawlSession>, Vec<Oid>) {
    let graph = Arc::new(WebGraph::generate(WebConfig::tiny(13)));
    let cycling = graph.taxonomy().find("recreation/cycling").unwrap();
    let seeds = focus_webgraph::search::topic_start_set(&graph, cycling, 12);
    let model = trained_model(&graph, "recreation/cycling");
    let fetcher = Arc::new(SimFetcher::new(Arc::clone(&graph), Some(latency)));
    let mut cfg = CrawlConfig {
        policy: CrawlPolicy::Unfocused,
        threads: 2,
        max_fetches: 100_000,
        distill_every: None,
        batch_size: 64,
        fetch_pool: 256,
        ..CrawlConfig::default()
    };
    cfg_patch(&mut cfg);
    let session = Arc::new(CrawlSession::new(fetcher, model, cfg).unwrap());
    session.seed(&seeds).unwrap();
    (session, seeds)
}

fn wait_for_attempts(session: &CrawlSession, at_least: u64) {
    let t0 = Instant::now();
    while session.stats().attempts < at_least {
        assert!(
            t0.elapsed() < Duration::from_secs(30),
            "pipeline never reached {at_least} attempts"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// Pause with hundreds of fetches in flight: the attempt counter
/// freezes (queued jobs are cancelled, not fetched; claims keep their
/// numbers for resume), and after resume + stop + join no `CLAIMED`
/// row survives.
#[test]
fn pause_freezes_attempts_with_hundreds_in_flight() {
    let (session, _) = pipeline_session(Duration::from_millis(20), |_| {});
    let run = session.start().unwrap();
    wait_for_attempts(&session, 300);

    run.pause();
    // Let the pause land: workers cancel their queued jobs and drain
    // the on-the-wire remainder (bounded by one fetch latency).
    std::thread::sleep(Duration::from_millis(300));
    let frozen = session.stats().attempts;
    std::thread::sleep(Duration::from_millis(300));
    assert_eq!(
        session.stats().attempts,
        frozen,
        "attempts advanced while paused: fetches were still being issued"
    );

    run.resume();
    wait_for_attempts(&session, frozen + 100);
    run.stop();
    let stats = run.join().unwrap();
    assert!(stats.attempts > frozen);
    session.check_invariants().unwrap();
}

/// Stop with the pipeline saturated: queued claims are unclaimed, in
/// flight ones complete-then-flush, and the session is immediately
/// reusable — a follow-up run crawls to its budget without wedging on
/// stale in-flight accounting.
#[test]
fn stop_mid_pipeline_leaks_nothing_and_session_is_reusable() {
    let (session, _) = pipeline_session(Duration::from_millis(20), |_| {});
    let run = session.start().unwrap();
    wait_for_attempts(&session, 300);
    run.stop();
    let stats = run.join().unwrap();
    // Accounting sanity: everything claimed was either flushed
    // (success/failure) or handed back to the frontier.
    session.check_invariants().unwrap();

    // The pipeline winds down clean enough to go straight back up.
    let run2 = session.start().unwrap();
    wait_for_attempts(&session, stats.attempts + 100);
    run2.stop();
    run2.join().unwrap();
    session.check_invariants().unwrap();
}

/// Checkpoint while paused with a saturated pipeline: the snapshot
/// carries the in-flight claims, and restoring it demotes every one back
/// to the frontier, so the restored session starts with zero `CLAIMED`
/// rows.
#[test]
fn checkpoint_under_load_demotes_in_flight_claims() {
    let (session, _) = pipeline_session(Duration::from_millis(20), |_| {});
    let run = session.start().unwrap();
    wait_for_attempts(&session, 300);
    run.pause();
    std::thread::sleep(Duration::from_millis(300));
    let ckpt = run.checkpoint().unwrap();
    // The live table still holds CLAIMED rows (the pause holds them
    // checked out) but the restored session must not.
    let graph = Arc::new(WebGraph::generate(WebConfig::tiny(13)));
    let restored = CrawlSession::restore(
        Arc::new(SimFetcher::new(Arc::clone(&graph), None)),
        trained_model(&graph, "recreation/cycling"),
        CrawlConfig::default(),
        &ckpt,
    )
    .unwrap();
    let claimed = restored.sql("select count(*) from crawl where visited = 2");
    assert_eq!(
        claimed.unwrap().scalar_i64(),
        Some(0),
        "restore carried CLAIMED rows"
    );
    run.stop();
    run.join().unwrap();
    session.check_invariants().unwrap();
}

/// Counts concurrent fetches, per server and overall, and keeps the
/// high-water marks.
struct Gauged {
    inner: Arc<SimFetcher>,
    /// `(in flight per server, in flight overall)`.
    cur: Mutex<(HashMap<u32, i64>, i64)>,
    max: Mutex<(HashMap<u32, i64>, i64)>,
}

impl Gauged {
    fn new(graph: &Arc<WebGraph>, latency: Duration) -> Arc<Gauged> {
        Arc::new(Gauged {
            inner: Arc::new(SimFetcher::new(Arc::clone(graph), Some(latency))),
            cur: Mutex::default(),
            max: Mutex::default(),
        })
    }
}

impl Fetcher for Gauged {
    fn fetch(&self, oid: Oid) -> Result<FetchedPage, FetchError> {
        let sid = self.inner.server_of(oid).map(|s| s.raw()).unwrap_or(0);
        {
            let mut cur = self.cur.lock().unwrap();
            let c = cur.0.entry(sid).or_insert(0);
            *c += 1;
            let c = *c;
            cur.1 += 1;
            let mut max = self.max.lock().unwrap();
            let m = max.0.entry(sid).or_insert(0);
            *m = (*m).max(c);
            max.1 = max.1.max(cur.1);
        }
        let out = self.inner.fetch(oid);
        let mut cur = self.cur.lock().unwrap();
        *cur.0.get_mut(&sid).unwrap() -= 1;
        cur.1 -= 1;
        out
    }
    fn fetch_count(&self) -> u64 {
        self.inner.fetch_count()
    }
    fn url_of(&self, oid: Oid) -> Option<String> {
        self.inner.url_of(oid)
    }
    fn server_of(&self, oid: Oid) -> Option<focus_types::ServerId> {
        self.inner.server_of(oid)
    }
}

/// Per-server politeness under pooled stress: an instrumented fetcher
/// counts concurrent fetches per server; with `max_in_flight = 2` and a
/// 64-thread pool hammering a small server set, the observed high-water
/// mark never exceeds the cap. (The politeness window spans admission
/// to flush, a superset of the fetch itself, so the cap bounds what the
/// fetcher can ever see.)
#[test]
fn politeness_cap_holds_under_pooled_stress() {
    let graph = Arc::new(WebGraph::generate(WebConfig::tiny(13)));
    let cycling = graph.taxonomy().find("recreation/cycling").unwrap();
    let seeds = focus_webgraph::search::topic_start_set(&graph, cycling, 12);
    let model = trained_model(&graph, "recreation/cycling");
    let fetcher = Gauged::new(&graph, Duration::from_millis(2));
    let session = Arc::new(
        CrawlSession::new(
            Arc::clone(&fetcher) as Arc<dyn Fetcher>,
            model,
            CrawlConfig {
                policy: CrawlPolicy::Unfocused,
                threads: 4,
                max_fetches: 2_000,
                distill_every: None,
                batch_size: 32,
                fetch_pool: 64,
                politeness: PolitenessConfig {
                    max_in_flight: 2,
                    min_delay: 0,
                },
                ..CrawlConfig::default()
            },
        )
        .unwrap(),
    );
    session.seed(&seeds).unwrap();
    let stats = session.start().unwrap().join().unwrap();
    assert!(stats.attempts > 100, "crawl barely ran: {}", stats.attempts);
    let max = fetcher.max.lock().unwrap();
    assert!(!max.0.is_empty());
    for (&sid, &peak) in max.0.iter() {
        assert!(
            peak <= 2,
            "server {sid} saw {peak} concurrent fetches; politeness cap is 2"
        );
    }
}

/// Hub revisits are claims like any others, so they inherit the
/// pipeline: requeued hubs on distinct servers are fetched
/// concurrently by the pool, and never two at once from one server
/// when the politeness cap is one.
#[test]
fn revisits_overlap_in_the_pool_under_the_per_server_cap() {
    let graph = Arc::new(WebGraph::generate(WebConfig::tiny(13)));
    let cycling = graph.taxonomy().find("recreation/cycling").unwrap();
    let fetcher = Gauged::new(&graph, Duration::from_millis(5));
    let session = Arc::new(
        CrawlSession::new(
            Arc::clone(&fetcher) as Arc<dyn Fetcher>,
            trained_model(&graph, "recreation/cycling"),
            CrawlConfig {
                threads: 1,
                max_fetches: 120,
                distill_every: None,
                // `distill_now()` below must not refill the frontier.
                hub_boost_top_k: 0,
                fetch_pool: 8,
                politeness: PolitenessConfig {
                    max_in_flight: 1,
                    min_delay: 0,
                },
                ..CrawlConfig::default()
            },
        )
        .unwrap(),
    );
    session
        .seed(&focus_webgraph::search::topic_start_set(
            &graph, cycling, 12,
        ))
        .unwrap();
    session.run().unwrap();
    // Leave nothing but revisits to fetch, and measure only them.
    session.sql("delete from crawl where visited = 0").unwrap();
    session.distill_now().unwrap();
    let requeued = session.maintenance_pass(24).unwrap();
    let hubs = session
        .sql("select oid, url from crawl where visited = 0")
        .unwrap();
    let servers: std::collections::HashSet<_> = (hubs.rows.iter())
        .map(|r| focus_crawler::host_server_id(r[1].as_str().unwrap()))
        .collect();
    assert_eq!(hubs.rows.len(), requeued);
    assert!(
        servers.len() > 1 && servers.len() < requeued,
        "{requeued} hubs on {} servers: the test needs both kinds of pair",
        servers.len()
    );
    *fetcher.max.lock().unwrap() = Default::default();
    // Budget is no bound here: while a hub waits for its server's one
    // slot the claim scan passes it over for the outlinks its peers
    // just landed. Stop once the last hub has.
    session.add_budget(100_000);
    let run = session.start().unwrap();
    let t0 = Instant::now();
    let waiting = "select count(*) from crawl where visited <> 1 and kcid >= 0";
    while session.sql(waiting).unwrap().scalar_i64() != Some(0) {
        assert!(
            t0.elapsed() < Duration::from_secs(30),
            "hubs left unvisited"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    run.stop();
    run.join().unwrap();
    let max = fetcher.max.lock().unwrap();
    assert!(max.1 > 1, "revisits never overlapped (peak {})", max.1);
    for (&sid, &peak) in max.0.iter() {
        assert!(peak <= 1, "server {sid} saw {peak} concurrent revisits");
    }
    session.check_invariants().unwrap();
}

//! Crawl-level durability: file-backed sessions recover their frontier
//! and visited set after a crash, claims in flight at checkpoint (or
//! crash) time come back poppable, and a WAL-shipping replica serves
//! the full §3.7 monitor suite while the leader crawls.

mod support;

use focus_crawler::session::{CrawlConfig, CrawlSession, Durability};
use focus_crawler::{host_server_id, monitor, CrawlEvent, CrawlPolicy};
use focus_types::{ClassId, Oid, ServerId};
use focus_webgraph::{FetchError, FetchedPage, Fetcher, SimFetcher, WebConfig, WebGraph};
use std::collections::BTreeSet;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use support::trained_model;

fn temp_db_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("crawl-durable-{tag}-{}.db", std::process::id()))
}

fn cleanup(path: &PathBuf) {
    let _ = std::fs::remove_file(path);
    let _ = std::fs::remove_file(minirel::wal_path_for(path));
}

/// Holds every fetch until the gate opens, so claims stay checked out
/// (CLAIMED rows in `CRAWL`) for as long as the test needs.
struct GatedFetcher {
    inner: Arc<SimFetcher>,
    gate_open: AtomicBool,
}

impl Fetcher for GatedFetcher {
    fn fetch(&self, oid: Oid) -> Result<FetchedPage, FetchError> {
        let t0 = Instant::now();
        while !self.gate_open.load(Ordering::Acquire) {
            assert!(t0.elapsed() < Duration::from_secs(30), "gate never opened");
            std::thread::sleep(Duration::from_millis(1));
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

/// Satellite regression for the checkpoint demotion rule (session.rs:
/// "A claim in flight at checkpoint time will not land in the restored
/// session: re-fetch it"): a checkpoint cut while claims are checked
/// out must carry them as poppable frontier entries, and the restored
/// session must actually fetch them.
#[test]
fn claim_in_flight_at_checkpoint_restores_poppable() {
    let graph = Arc::new(WebGraph::generate(WebConfig::tiny(11)));
    let cycling = graph.taxonomy().find("recreation/cycling").unwrap();
    let seeds = focus_webgraph::search::topic_start_set(&graph, cycling, 8);
    let fetcher = Arc::new(GatedFetcher {
        inner: Arc::new(SimFetcher::new(Arc::clone(&graph), None)),
        gate_open: AtomicBool::new(false),
    });
    let session = Arc::new(
        CrawlSession::new(
            Arc::clone(&fetcher) as Arc<dyn Fetcher>,
            trained_model(&graph, "recreation/cycling"),
            CrawlConfig {
                threads: 1,
                max_fetches: 50,
                batch_size: 4,
                distill_every: None,
                ..CrawlConfig::default()
            },
        )
        .unwrap(),
    );
    session.seed(&seeds).unwrap();
    let run = session.start().unwrap();

    // Wait until the worker has a batch checked out (blocked in fetch).
    let t0 = Instant::now();
    loop {
        let claimed = session
            .sql("select oid from crawl where visited = 2")
            .unwrap();
        if !claimed.rows.is_empty() {
            break;
        }
        assert!(t0.elapsed() < Duration::from_secs(20), "no claim appeared");
        std::thread::sleep(Duration::from_millis(1));
    }
    let claimed_oids: BTreeSet<i64> = session
        .sql("select oid from crawl where visited = 2")
        .unwrap()
        .rows
        .iter()
        .map(|r| r[0].as_i64().unwrap())
        .collect();
    assert!(!claimed_oids.is_empty());

    let ckpt = session.checkpoint().unwrap();

    // Restore into a fresh session: the demoted claims are poppable and
    // a run actually fetches them.
    let restored = Arc::new(
        CrawlSession::restore(
            Arc::new(SimFetcher::new(Arc::clone(&graph), None)),
            trained_model(&graph, "recreation/cycling"),
            CrawlConfig {
                threads: 1,
                max_fetches: 50,
                batch_size: 4,
                distill_every: None,
                ..CrawlConfig::default()
            },
            &ckpt,
        )
        .unwrap(),
    );
    // The restored session must not carry CLAIMED state...
    let claimed = restored.sql("select count(*) from crawl where visited = 2");
    assert_eq!(
        claimed.unwrap().scalar_i64(),
        Some(0),
        "restore leaked a CLAIMED row"
    );
    // ...and each in-flight claim must be a frontier entry in it.
    for &oid in &claimed_oids {
        let rs = restored
            .sql(&format!("select visited from crawl where oid = {oid}"))
            .unwrap();
        assert_eq!(rs.rows[0][0].as_i64(), Some(0), "oid {oid} not poppable");
    }
    restored.run().unwrap();
    for &oid in &claimed_oids {
        let rs = restored
            .sql(&format!("select visited from crawl where oid = {oid}"))
            .unwrap();
        let state = rs.rows[0][0].as_i64().unwrap();
        assert!(
            state == 1 || state == 3,
            "restored run never attempted demoted claim {oid} (state {state})"
        );
    }

    // Unblock and drain the original run.
    fetcher.gate_open.store(true, Ordering::Release);
    run.stop();
    run.join().unwrap();
}

/// File-backed crawl sessions survive the process: after a completed
/// (joined) run, `CrawlSession::recover` rebuilds the same visited set
/// and frontier from the data file + WAL — and work written *after*
/// the last commit (a crash would lose it) is correctly absent.
#[test]
fn file_backed_crawl_recovers() {
    let path = temp_db_path("recover");
    cleanup(&path);
    let graph = Arc::new(WebGraph::generate(WebConfig::tiny(17)));
    let cycling = graph.taxonomy().find("recreation/cycling").unwrap();
    let seeds = focus_webgraph::search::topic_start_set(&graph, cycling, 8);
    let cfg = CrawlConfig {
        policy: CrawlPolicy::SoftFocus,
        threads: 2,
        max_fetches: 120,
        distill_every: None,
        // `distill_now()` below must not touch the frontier this test
        // counts across the crash.
        hub_boost_top_k: 0,
        db_frames: 64,
        durability: Durability::File {
            path: path.clone(),
            group_commit: 4,
        },
        ..CrawlConfig::default()
    };
    let (visited_before, frontier_before, stats, distilled_before);
    {
        let session = Arc::new(
            CrawlSession::new(
                Arc::new(SimFetcher::new(Arc::clone(&graph), None)),
                trained_model(&graph, "recreation/cycling"),
                cfg.clone(),
            )
            .unwrap(),
        );
        session.seed(&seeds).unwrap();
        stats = session.run().unwrap();
        assert!(stats.successes > 0, "crawl fetched nothing");
        visited_before = session
            .sql("select oid from crawl where visited = 1")
            .unwrap()
            .rows
            .iter()
            .map(|r| r[0].as_i64().unwrap())
            .collect::<BTreeSet<i64>>();
        frontier_before = session
            .sql("select count(*) from crawl where visited = 0")
            .unwrap()
            .scalar_i64()
            .unwrap();
        distilled_before = session.distill_now().unwrap();
        assert!(!distilled_before.hubs.is_empty());
        // Uncommitted garbage past the joined run's durable commit: a
        // crash discards it, the committed crawl state stays.
        session
            .sql("insert into crawl values (999999, 'http://torn', -1, 0, 0.0, 0.0, 0, 0, 0, 0)")
            .unwrap();
    } // "crash": drop without committing the trailing insert

    let recovered = Arc::new(
        CrawlSession::recover(
            Arc::new(SimFetcher::new(Arc::clone(&graph), None)),
            trained_model(&graph, "recreation/cycling"),
            cfg.clone(),
        )
        .unwrap(),
    );
    let visited_after: BTreeSet<i64> = recovered
        .sql("select oid from crawl where visited = 1")
        .unwrap()
        .rows
        .iter()
        .map(|r| r[0].as_i64().unwrap())
        .collect();
    assert_eq!(visited_before, visited_after, "visited set changed");
    assert_eq!(
        recovered
            .sql("select count(*) from crawl where visited = 0")
            .unwrap()
            .scalar_i64()
            .unwrap(),
        frontier_before,
        "frontier size changed"
    );
    assert_eq!(
        recovered
            .sql("select count(*) from crawl where oid = 999999")
            .unwrap()
            .scalar_i64(),
        Some(0),
        "uncommitted insert survived the crash"
    );
    recovered.check_invariants().unwrap();
    // The link graph was rebuilt from the recovered `LINK` and `CRAWL`
    // tables: a pass over it finds what the crashed session's did
    // (relevance round-trips through the stored log, so not bit for bit).
    let distilled_after = recovered.distill_now().unwrap();
    for (want, got) in [
        (&distilled_before.hubs, &distilled_after.hubs),
        (&distilled_before.auths, &distilled_after.auths),
    ] {
        assert_eq!(want.len(), got.len());
        let got: std::collections::HashMap<Oid, f64> = got.iter().copied().collect();
        for (o, s) in want {
            assert!(
                got.get(o).is_some_and(|g| (g - s).abs() < 1e-9),
                "{o:?} scored {s} before the crash, {:?} after recovery",
                got.get(o)
            );
        }
    }
    // The monitor suite runs against the recovered store.
    recovered.with_db_read(|db| {
        monitor::census_by_class(db).unwrap();
        monitor::frontier_by_numtries(db).unwrap();
    });
    // And the recovered session keeps crawling.
    let more = recovered.run().unwrap();
    let final_visited = recovered
        .sql("select count(*) from crawl where visited = 1")
        .unwrap()
        .scalar_i64()
        .unwrap();
    assert!(
        final_visited as usize >= visited_after.len(),
        "recovered session lost pages while crawling (more stats: {more:?})"
    );
    cleanup(&path);
}

/// A live `add_seeds` on a file-backed session is synced before it is
/// acknowledged: the command drain (`ctrl_apply`) seeds under the store
/// write guard and commits there, and with `group_commit: 1` that commit
/// requests a sync of the log. The drain drops the store guard and waits
/// for the watermark under `ctrl_apply` alone, then emits `SeedsAdded`;
/// the fsync itself runs on the log's syncer thread, holding nothing.
/// Every fetch is held on the wire meanwhile, so no commit point can be
/// what synced.
#[test]
fn live_add_seeds_syncs_under_the_command_drain() {
    let path = temp_db_path("live-seeds");
    cleanup(&path);
    let graph = Arc::new(WebGraph::generate(WebConfig::tiny(7)));
    let cycling = graph.taxonomy().find("recreation/cycling").unwrap();
    let seeds = focus_webgraph::search::topic_start_set(&graph, cycling, 4);
    let extra: Vec<Oid> = (graph.pages().iter().map(|p| p.oid))
        .filter(|oid| !seeds.contains(oid))
        .take(3)
        .collect();
    let fetcher = Arc::new(GatedFetcher {
        inner: Arc::new(SimFetcher::new(Arc::clone(&graph), None)),
        gate_open: AtomicBool::new(false),
    });
    let cfg = CrawlConfig {
        threads: 1,
        fetch_pool: 2,
        max_fetches: 20,
        distill_every: None,
        durability: Durability::File {
            path: path.clone(),
            group_commit: 1,
        },
        ..CrawlConfig::default()
    };
    let session = Arc::new(
        CrawlSession::new(
            Arc::clone(&fetcher) as Arc<dyn Fetcher>,
            trained_model(&graph, "recreation/cycling"),
            cfg.clone(),
        )
        .unwrap(),
    );
    session.seed(&seeds).unwrap();
    let syncs = || session.with_db_read(|db| db.wal().expect("file-backed").stats().syncs);
    let seeded = |oid: Oid, s: &CrawlSession| {
        let oid = [minirel::Value::Int(oid.raw() as i64)];
        let rs = s.sql_with("select count(*) from crawl where oid = ?", &oid);
        rs.unwrap().scalar_i64() == Some(1)
    };
    let run = session.start().unwrap();
    let before = syncs();
    run.add_seeds(&extra);
    // The acknowledgement: the seeds are visible once the guard drops,
    // the event follows the wait for the watermark.
    let events = run.events().expect("a fresh run has its event stream");
    let t0 = Instant::now();
    while !matches!(events.try_next(), Some(CrawlEvent::SeedsAdded { .. })) {
        assert!(
            t0.elapsed() < Duration::from_secs(20),
            "add_seeds never applied"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    assert!(seeded(extra[0], &session));
    assert!(
        syncs() > before,
        "the live seeds were acknowledged before the log was synced"
    );
    fetcher.gate_open.store(true, Ordering::Release);
    run.join().unwrap();
    drop(session);

    let recovered = CrawlSession::recover(
        Arc::new(SimFetcher::new(Arc::clone(&graph), None)),
        trained_model(&graph, "recreation/cycling"),
        cfg,
    )
    .unwrap();
    assert!(extra.iter().all(|&oid| seeded(oid, &recovered)));
    drop(recovered);
    cleanup(&path);
}

/// A fetcher that always times out: every attempt is retriable and the
/// failure backoff parks every row (`not_before` in the future).
struct TimeoutFetcher;

impl Fetcher for TimeoutFetcher {
    fn fetch(&self, oid: Oid) -> Result<FetchedPage, FetchError> {
        Err(FetchError::Timeout(oid))
    }

    fn fetch_count(&self) -> u64 {
        0
    }
}

/// Rows parked by failure backoff survive a crash, and so does the tick
/// clock their cooldowns are measured against (`CRAWL_STATE.clock`): the
/// recovered session serves out what is left of each cooldown rather
/// than springing every parked row at once, then drives them all to a
/// terminal state instead of wedging on an all-parked frontier.
#[test]
fn recovered_parked_rows_keep_their_cooldowns() {
    let path = temp_db_path("parked");
    cleanup(&path);
    let graph = Arc::new(WebGraph::generate(WebConfig::tiny(5)));
    let cfg = CrawlConfig {
        threads: 1,
        max_fetches: 4,
        max_tries: 3,
        distill_every: None,
        durability: Durability::File {
            path: path.clone(),
            group_commit: 1,
        },
        ..CrawlConfig::default()
    };
    {
        let session = Arc::new(
            CrawlSession::new(
                Arc::new(TimeoutFetcher),
                trained_model(&graph, "recreation/cycling"),
                cfg.clone(),
            )
            .unwrap(),
        );
        session.seed(&[Oid(1), Oid(2), Oid(3)]).unwrap();
        // 3 first visits + 1 retry exhaust the budget, leaving every
        // seed in the frontier parked behind its backoff.
        let stats = session.run().unwrap();
        assert_eq!(stats.attempts, 4, "{stats:?}");
        let parked = session
            .sql("select count(*) from crawl where visited = 0 and not_before > 0")
            .unwrap()
            .scalar_i64()
            .unwrap();
        assert!(parked >= 1, "run left no parked rows to recover");
    } // crash

    let recovered = Arc::new(
        CrawlSession::recover(
            Arc::new(TimeoutFetcher),
            trained_model(&graph, "recreation/cycling"),
            cfg,
        )
        .unwrap(),
    );
    let int = |sql: &str| recovered.sql(sql).unwrap().scalar_i64().unwrap();
    // The parked state survived with its cooldowns intact, and so did
    // the counters and the clock: some row is still cooling down.
    let parked = int("select count(*) from crawl where visited = 0 and not_before > 0");
    assert!(parked >= 1, "parked rows lost in recovery");
    assert_eq!(recovered.stats().attempts, 4, "the attempts were lost");
    let clock = int("select clock from crawl_state");
    let latest = int("select max(not_before) from crawl where visited = 0");
    assert!(
        clock < latest,
        "clock {clock} sprang every cooldown (to {latest})"
    );
    // The recovered run re-attempts every one of them once it is due,
    // then terminates rather than wedging on an all-parked frontier.
    recovered.add_budget(20);
    let stats = recovered.run().unwrap();
    assert!(
        stats.attempts - 4 >= parked as u64,
        "recovered run never re-attempted the parked rows: {stats:?}"
    );
    assert_eq!(
        recovered
            .sql("select count(*) from crawl where visited = 0")
            .unwrap()
            .scalar_i64(),
        Some(0),
        "every parked row must be driven to a terminal state"
    );
    cleanup(&path);
}

/// The tiny web with one server that can be unplugged: while `down`,
/// every page on `server` times out.
struct UnpluggableServer {
    inner: SimFetcher,
    server: ServerId,
    down: AtomicBool,
}

impl Fetcher for UnpluggableServer {
    fn fetch(&self, oid: Oid) -> Result<FetchedPage, FetchError> {
        let on_server = || host_server_id(&self.inner.url_of(oid).unwrap()) == self.server;
        if self.down.load(Ordering::Acquire) && on_server() {
            return Err(FetchError::Timeout(oid));
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

/// A crawl of the tiny web whose cycling-heaviest server is unplugged:
/// seeded off that server, run until its breaker has opened. Returns
/// the session, the fetcher (to plug the server back in) and the server.
fn crawl_with_a_dead_server(
    graph: &Arc<WebGraph>,
    cfg: CrawlConfig,
) -> (Arc<CrawlSession>, Arc<UnpluggableServer>, ServerId) {
    let cycling = graph.taxonomy().find("recreation/cycling").unwrap();
    let mut weight: std::collections::HashMap<ServerId, usize> = Default::default();
    for p in graph.pages().iter().filter(|p| p.topic == cycling) {
        *weight.entry(host_server_id(&p.url)).or_default() += 1;
    }
    let server = *weight.iter().max_by_key(|&(s, n)| (*n, s.raw())).unwrap().0;
    let fetcher = Arc::new(UnpluggableServer {
        inner: SimFetcher::new(Arc::clone(graph), None),
        server,
        down: AtomicBool::new(true),
    });
    let seeds: Vec<Oid> = focus_webgraph::search::topic_start_set(graph, cycling, 12)
        .into_iter()
        .filter(|&o| host_server_id(&fetcher.url_of(o).unwrap()) != server)
        .collect();
    let model = trained_model(graph, "recreation/cycling");
    let session = Arc::new(CrawlSession::new(Arc::clone(&fetcher) as _, model, cfg).unwrap());
    session.seed(&seeds).unwrap();
    session.run().unwrap();
    assert_eq!(
        health_states(&session),
        vec![(server.raw() as i64, "open".to_owned())],
        "the run must end with exactly the dead server quarantined"
    );
    (session, fetcher, server)
}

/// `(sid, state)` of every `server_health` row.
fn health_states(session: &CrawlSession) -> Vec<(i64, String)> {
    let rs = session.sql("select sid, state from server_health order by sid");
    let rows = rs.unwrap().rows.into_iter();
    rows.map(|r| (r[0].as_i64().unwrap(), r[1].as_str().unwrap().to_owned()))
        .collect()
}

/// Pages of `server` the session has fetched.
fn fetched_on(session: &CrawlSession, server: ServerId) -> usize {
    let visited = session.visited();
    visited.iter().filter(|&&(_, _, s)| s == server).count()
}

/// `server_health` describes the breakers a session enforces, so it
/// cannot outlive them: `recover` starts every breaker over ("server
/// health is re-learned from live evidence") and must hand out an empty
/// table with them — on the leader and, through the WAL, on replicas —
/// not the quarantines of the session that crashed.
#[test]
fn recover_empties_server_health_with_the_breakers() {
    let path = temp_db_path("health");
    cleanup(&path);
    let graph = Arc::new(WebGraph::generate(WebConfig::tiny(13)));
    let cfg = CrawlConfig {
        threads: 1,
        max_fetches: 120,
        distill_every: None,
        durability: Durability::File {
            path: path.clone(),
            group_commit: 4,
        },
        ..CrawlConfig::default()
    };
    let (session, fetcher, server) = crawl_with_a_dead_server(&graph, cfg.clone());
    assert_eq!(fetched_on(&session, server), 0);
    drop(session); // crash

    fetcher.down.store(false, Ordering::Release); // the server is back
    let model = trained_model(&graph, "recreation/cycling");
    let recovered = Arc::new(CrawlSession::recover(fetcher, model, cfg).unwrap());
    assert_eq!(
        health_states(&recovered),
        vec![],
        "a recovered session holds no breaker open; its table must not say otherwise"
    );
    // And the server's first claim is admitted, not parked behind the
    // crashed session's quarantine: its pages get fetched.
    recovered.add_budget(60);
    recovered.run().unwrap();
    assert!(fetched_on(&recovered, server) > 0, "nothing fetched there");
    assert_eq!(health_states(&recovered), vec![], "and it stayed healthy");
    cleanup(&path);
}

/// Crawl maintenance is acknowledged work. A `maintenance_pass` commits
/// the rows it requeues as `seed` commits its seeds, and the revisits
/// land at the one loop's commit points, so a crash right after the
/// pass loses no hub and a crash after the next run loses no link the
/// revisits found. (The synchronous pass this replaced never reached a
/// commit point: a crash after it lost every `LINK` row it had written.)
#[test]
fn maintenance_requeues_and_revisits_survive_a_crash() {
    use focus_webgraph::{evolve, EvolutionConfig, EvolvingFetcher};
    let path = temp_db_path("maintenance");
    cleanup(&path);
    let base = Arc::new(WebGraph::generate(WebConfig::tiny(47)));
    let cycling = base.taxonomy().find("recreation/cycling").unwrap();
    let fetcher = Arc::new(EvolvingFetcher::new(Arc::clone(&base)));
    let cfg = CrawlConfig {
        threads: 1,
        max_fetches: 160,
        distill_every: Some(80),
        durability: Durability::File {
            path: path.clone(),
            group_commit: 4,
        },
        ..CrawlConfig::default()
    };
    let model = || trained_model(&base, "recreation/cycling");
    let ints = |s: &CrawlSession, sql: &str| -> Vec<Vec<i64>> {
        let rows = s.sql(sql).unwrap().rows.into_iter();
        rows.map(|r| r.iter().map(|v| v.as_i64().unwrap()).collect())
            .collect()
    };
    const REQUEUED: &str =
        "select oid from crawl where visited = 0 and kcid >= 0 and not_before = 0 order by oid";
    const LINKS: &str = "select oid_src, oid_dst from link";

    let session = Arc::new(CrawlSession::new(fetcher.clone(), model(), cfg.clone()).unwrap());
    session
        .seed(&focus_webgraph::search::topic_start_set(&base, cycling, 10))
        .unwrap();
    session.run().unwrap();
    let evolution = EvolutionConfig {
        new_pages_per_topic: 12,
        hub_update_fraction: 1.0,
        new_links_per_hub: 8,
        content_update_fraction: 0.6,
        seed: 5,
    };
    fetcher.swap(Arc::new(evolve(&base, 1, &evolution)));
    let requeued = session.maintenance_pass(10).unwrap();
    assert_eq!(requeued, 10);
    let hubs = ints(&session, REQUEUED);
    assert_eq!(hubs.len(), requeued);
    let links_before: BTreeSet<Vec<i64>> = ints(&session, LINKS).into_iter().collect();
    std::mem::forget(session); // crash right after the pass

    let recovered = Arc::new(CrawlSession::recover(fetcher.clone(), model(), cfg.clone()).unwrap());
    assert_eq!(ints(&recovered, REQUEUED), hubs, "requeued hubs are lost");
    let known = recovered.relevance_map();
    for hub in &hubs {
        assert!(
            known.contains_key(&Oid(hub[0] as u64)),
            "the reopened store forgot that {hub:?} was fetched"
        );
    }
    // The budget was spent, and it stays spent across the crash. Crawl
    // on with more: the hubs are revisited, and what they now link to is
    // recorded and enqueued.
    assert_eq!(recovered.stats().attempts, 160);
    recovered.add_budget(160);
    recovered.run().unwrap();
    assert_eq!(ints(&recovered, REQUEUED), Vec::<Vec<i64>>::new());
    let links_after = ints(&recovered, LINKS);
    let found: Vec<&Vec<i64>> = (links_after.iter())
        .filter(|l| hubs.contains(&vec![l[0]]) && !links_before.contains(*l))
        .collect();
    assert!(!found.is_empty(), "the revisits found no new link");
    std::mem::forget(recovered); // crash after the run

    let again = CrawlSession::recover(fetcher, model(), cfg).unwrap();
    assert_eq!(ints(&again, LINKS), links_after, "links are lost");
    let crawl: BTreeSet<i64> = (ints(&again, "select oid from crawl").iter())
        .map(|r| r[0])
        .collect();
    for link in found {
        assert!(crawl.contains(&link[1]), "target of {link:?} is lost");
    }
    let mut pairs = BTreeSet::new();
    for link in &links_after {
        assert!(pairs.insert(link), "{link:?} is in LINK twice");
    }
    again.check_invariants().unwrap();
    cleanup(&path);
}

/// The marking is crawl state: a file recovered under a differently
/// marked model keeps the marking it was written with (`TAXONOMY.type`
/// wins, and the session's model adopts it), and a live `mark_topic`
/// then re-marks the table and re-scores the stored pages. A model whose
/// classes are not the stored ones is refused.
#[test]
fn recovered_taxonomy_keeps_the_stored_marking() {
    let path = temp_db_path("remarked");
    cleanup(&path);
    let graph = Arc::new(WebGraph::generate(WebConfig::tiny(5)));
    let cfg = CrawlConfig {
        threads: 1,
        max_fetches: 60,
        distill_every: None,
        durability: Durability::File {
            path: path.clone(),
            group_commit: 1,
        },
        ..CrawlConfig::default()
    };
    let fetcher = || Arc::new(SimFetcher::new(Arc::clone(&graph), None));
    let good = |s: &CrawlSession| -> Vec<String> {
        let rs = s.sql("select name from taxonomy where type = 'good'");
        let names = rs.unwrap().rows.into_iter();
        names.map(|r| r[0].as_str().unwrap().to_owned()).collect()
    };
    let cycling = graph.taxonomy().find("recreation/cycling").unwrap();
    let model = trained_model(&graph, "recreation/cycling");
    let session = Arc::new(CrawlSession::new(fetcher(), model, cfg.clone()).unwrap());
    assert_eq!(good(&session), ["recreation/cycling"]);
    session
        .seed(&focus_webgraph::search::topic_start_set(&graph, cycling, 8))
        .unwrap();
    session.run().unwrap();
    let before = session.relevance_map();
    drop(session);

    let model = trained_model(&graph, "recreation");
    let recovered = Arc::new(CrawlSession::recover(fetcher(), model, cfg.clone()).unwrap());
    assert_eq!(good(&recovered), ["recreation/cycling"]);
    let marked = recovered.with_model(|m| m.taxonomy.good_set());
    assert_eq!(marked, vec![cycling], "the model adopts the stored marking");
    assert_eq!(recovered.relevance_map(), before);
    // Re-mark live: the table follows, and the stored posteriors re-score
    // the fetched pages without a refetch.
    let recreation = recovered.find_topic("recreation").unwrap();
    let run = recovered.start().unwrap();
    run.mark_topic(cycling, false);
    run.mark_topic(recreation, true);
    run.join().unwrap();
    assert_eq!(good(&recovered), ["recreation"]);
    let after = recovered.relevance_map();
    assert_eq!(after.len(), before.len());
    assert!(after != before, "re-marking re-scored nothing");
    drop(recovered);

    let mut other = WebGraph::generate(WebConfig::tiny(5)).taxonomy().clone();
    other.add_child(ClassId::ROOT, "elsewhere").unwrap();
    let mut model = trained_model(&graph, "recreation/cycling");
    model.taxonomy = other;
    let Err(err) = CrawlSession::recover(fetcher(), model, cfg) else {
        panic!("a model with other classes must be refused");
    };
    assert!(format!("{err}").contains("TAXONOMY"), "{err}");
    cleanup(&path);
}

/// A fresh `CrawlSession::new` refuses to silently re-initialize an
/// existing crawl file, and `recover` refuses a non-durable config.
#[test]
fn constructor_guards() {
    let path = temp_db_path("guards");
    cleanup(&path);
    let graph = Arc::new(WebGraph::generate(WebConfig::tiny(5)));
    let cfg = CrawlConfig {
        distill_every: None,
        durability: Durability::File {
            path: path.clone(),
            group_commit: 1,
        },
        ..CrawlConfig::default()
    };
    let fetcher = || Arc::new(SimFetcher::new(Arc::clone(&graph), None));
    let s = CrawlSession::new(
        fetcher(),
        trained_model(&graph, "recreation/cycling"),
        cfg.clone(),
    )
    .unwrap();
    drop(s);
    let Err(err) = CrawlSession::new(
        fetcher(),
        trained_model(&graph, "recreation/cycling"),
        cfg.clone(),
    ) else {
        panic!("re-initializing an existing crawl must fail");
    };
    assert!(format!("{err}").contains("recover"), "{err}");
    let Err(err) = CrawlSession::recover(
        fetcher(),
        trained_model(&graph, "recreation/cycling"),
        CrawlConfig {
            durability: Durability::None,
            ..cfg.clone()
        },
    ) else {
        panic!("recover without Durability::File must fail");
    };
    assert!(format!("{err}").contains("Durability::File"), "{err}");
    cleanup(&path);
}

/// The replica bar: a follower spawned from a durable session serves
/// the entire §3.7 monitor suite while the leader crawls, and converges
/// to the leader's final state after the run joins.
#[test]
fn replica_serves_monitor_suite_mid_crawl() {
    let graph = Arc::new(WebGraph::generate(WebConfig::tiny(13)));
    let cycling = graph.taxonomy().find("recreation/cycling").unwrap();
    let seeds = focus_webgraph::search::topic_start_set(&graph, cycling, 10);
    let session = Arc::new(
        CrawlSession::new(
            Arc::new(SimFetcher::new(
                Arc::clone(&graph),
                Some(Duration::from_millis(2)),
            )),
            trained_model(&graph, "recreation/cycling"),
            CrawlConfig {
                threads: 2,
                max_fetches: 300,
                distill_every: Some(100),
                durability: Durability::Wal { group_commit: 8 },
                ..CrawlConfig::default()
            },
        )
        .unwrap(),
    );
    session.seed(&seeds).unwrap();
    let replica = session.replica().unwrap();
    let run = session.start().unwrap();

    // The full monitor suite against the follower while the leader
    // crawls: never an error, never a torn read (counts monotone in
    // commit order is implied by whole-commit application; here we just
    // require every query to succeed against a consistent snapshot).
    let t0 = Instant::now();
    let mut monitored = 0u32;
    while !run.is_finished() && t0.elapsed() < Duration::from_secs(60) {
        replica.with_db(|db| {
            monitor::harvest_per_minute(db).unwrap();
            monitor::census_by_class(db).unwrap();
            monitor::missed_hub_neighbors(db, 0.5).unwrap();
            monitor::frontier_by_numtries(db).unwrap();
            monitor::community_evolution(db, 2, 3, 0).unwrap();
            monitor::cross_topic_citations(db, 3, 2, 2).unwrap();
        });
        monitored += 1;
        std::thread::sleep(Duration::from_millis(5));
    }
    run.join().unwrap();
    assert!(monitored > 0, "monitor loop never ran against the replica");

    // After the final durable commit, the replica converges on the
    // leader's exact visited count.
    let last_lsn = session.with_db_read(|db| db.wal().unwrap().last_commit_lsn());
    assert!(
        replica.wait_for_lsn(last_lsn, Duration::from_secs(10)),
        "replica stuck at {} (want {last_lsn}); err={:?}",
        replica.applied_lsn(),
        replica.error()
    );
    let leader_visited = session
        .sql("select count(*) from crawl where visited = 1")
        .unwrap()
        .scalar_i64()
        .unwrap();
    let replica_visited = replica
        .query("select count(*) from crawl where visited = 1")
        .unwrap()
        .scalar_i64()
        .unwrap();
    assert!(leader_visited > 0);
    assert_eq!(leader_visited, replica_visited, "replica diverged");
}

/// The log is counted, and it is small: a seeded one-worker crawl on a
/// file-backed store repeats exactly, so the `WalStats` it ends with are
/// pinned — most page records are deltas; a commit is one write of the
/// log, and the only other writes are the ones a 24-frame pool forces by
/// missing on a page it evicted since the last commit; an attempt costs
/// a fraction of the 35.9 KB of log that full images cost it. So are the
/// pool's reads, which every dirty eviction follows from: a landing
/// offers no endorsement of a page already fetched to the frontier, and
/// its keyed rewrites read each B+tree node once.
#[test]
fn wal_stats_of_a_seeded_file_backed_crawl_are_pinned() {
    let path = temp_db_path("walstats");
    cleanup(&path);
    let graph = Arc::new(WebGraph::generate(WebConfig {
        seed: 29,
        pages_per_topic: 120,
        ..WebConfig::default()
    }));
    let cycling = graph.taxonomy().find("recreation/cycling").unwrap();
    let seeds = focus_webgraph::search::topic_start_set(&graph, cycling, 8);
    let cfg = CrawlConfig {
        policy: CrawlPolicy::SoftFocus,
        threads: 1,
        max_fetches: 900,
        db_frames: 24,
        durability: Durability::File {
            path: path.clone(),
            group_commit: 8,
        },
        ..CrawlConfig::default()
    };
    let session = Arc::new(
        CrawlSession::new(
            Arc::new(SimFetcher::new(Arc::clone(&graph), None)),
            trained_model(&graph, "recreation/cycling"),
            cfg,
        )
        .unwrap(),
    );
    session.seed(&seeds).unwrap();
    let stats = session.run().unwrap();
    let (wal, io) = session.with_db_read(|db| {
        let wal = db.wal().expect("file-backed");
        (wal.stats(), db.io_stats())
    });
    let log = std::fs::read(minirel::wal_path_for(&path)).unwrap();
    let commits = minirel::wal::records(&log)
        .filter(|r| r.kind == minirel::wal::KIND_COMMIT)
        .count() as u64;
    assert_eq!(stats.attempts, 900);
    assert_eq!(stats.successes, 871);
    // ≈36.8 reads a landed page, ≈8.8 of them misses; `LANDING` and
    // `CRAWL_STATE` share the 24 frames with the rest.
    assert_eq!((io.logical_reads, io.physical_reads), (32_017, 7_696));
    assert_eq!((wal.images, wal.deltas), (711, 4962));
    // Every page the log was handed, at a commit or an eviction, is one
    // physical write of the pool.
    assert_eq!(io.physical_writes, wal.images + wal.deltas);
    assert_eq!(
        (commits, wal.writes),
        (117, commits + 133),
        "one write per commit, plus the forced ones"
    );
    assert_eq!(
        wal.sync_requests, 16,
        "the open, every eighth commit, the final one"
    );
    // One sync serves every request posted before it starts.
    assert!((1..=wal.sync_requests).contains(&wal.syncs), "{wal:?}");
    let per_kind = wal.image_bytes + wal.delta_bytes + wal.commit_bytes + wal.checkpoint_bytes;
    assert_eq!(per_kind, log.len() as u64);
    assert!(
        log.len() as u64 <= 10_000 * stats.attempts,
        "{} bytes of log for {} attempts",
        log.len(),
        stats.attempts
    );
    drop(session);
    cleanup(&path);
}

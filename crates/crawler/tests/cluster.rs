//! Cluster semantics: partition integrity, exactly-once routing,
//! nepotism locality, broadcast re-steering, pause/stop latency, and
//! checkpoint → restore fidelity. These run in the release-mode stress
//! step of CI as well — the cross-shard exchange and the distributed
//! termination verdict only interleave meaningfully with optimized
//! codegen.

mod support;

use focus_crawler::cluster::{merge_landings, CrawlCluster};
use focus_crawler::session::{CrawlConfig, CrawlSession};
use focus_crawler::{CrawlPolicy, RunState};
use focus_types::{ClassId, Mark, Oid};
use focus_webgraph::{
    evolve, EvolutionConfig, EvolvingFetcher, FetchError, FetchedPage, Fetcher, SimFetcher,
    WebConfig, WebGraph,
};
use std::collections::HashSet;
use std::sync::Arc;
use std::time::Duration;
use support::{trained_model, SlowFetcher};

fn cycling_cluster(
    n_shards: usize,
    seed: u64,
    cfg: CrawlConfig,
) -> (Arc<WebGraph>, CrawlCluster, ClassId) {
    let graph = Arc::new(WebGraph::generate(WebConfig::tiny(seed)));
    let cycling = graph.taxonomy().find("recreation/cycling").unwrap();
    let model = trained_model(&graph, "recreation/cycling");
    let fetcher = Arc::new(SimFetcher::new(Arc::clone(&graph), None));
    let cluster = CrawlCluster::new(n_shards, fetcher, model, cfg).unwrap();
    (graph, cluster, cycling)
}

#[test]
fn cluster_partitions_by_server_and_fetches_each_page_once() {
    // 4 shards over the standard tiny web, budget-bounded. Every
    // visited page must live on the shard its server hashes to, no page
    // may be fetched by two shards, and the cross-shard exchange must
    // not have dropped anything.
    let cfg = CrawlConfig {
        policy: CrawlPolicy::SoftFocus,
        threads: 4,
        max_fetches: 400,
        distill_every: Some(150),
        ..CrawlConfig::default()
    };
    let (graph, cluster, cycling) = cycling_cluster(4, 13, cfg.clone());
    let seeds = focus_webgraph::search::topic_start_set(&graph, cycling, 12);
    cluster.seed(&seeds).unwrap();
    let stats = cluster.run().unwrap();
    assert_eq!(stats.attempts, 400, "split budget spends exactly");
    assert!(stats.successes > 200, "only {} successes", stats.successes);
    // A shard that spends its budget share first keeps what its peers
    // route to it afterwards, queued for its next start: only overflow
    // drops, and nothing overflows here.
    assert_eq!(cluster.exchange_dropped(), 0, "exchange dropped entries");

    // Every visited page has its URL, sits on its owner and on no other;
    // each shard's harvest series carries its every success.
    cluster.check_invariants().unwrap();
    let with_pages = cluster.shards().iter().filter(|s| !s.visited().is_empty());
    let shards_with_pages = with_pages.count();
    assert!(
        shards_with_pages >= 3,
        "cross-shard routing reached only {shards_with_pages} shards"
    );

    // Harvest parity: the same web, seeds, budget, and total worker
    // count in ONE session. A partitioned frontier pops each shard's
    // local best instead of the global best, so small deltas either way
    // are expected — but sharding must not *degrade* precision beyond
    // noise.
    let model = trained_model(&graph, "recreation/cycling");
    let fetcher = Arc::new(SimFetcher::new(Arc::clone(&graph), None));
    let single = Arc::new(CrawlSession::new(fetcher, model, cfg).unwrap());
    single.seed(&seeds).unwrap();
    let single_stats = single.run().unwrap();
    assert!(
        stats.mean_harvest() > single_stats.mean_harvest() - 0.1,
        "sharding degraded harvest beyond noise: cluster {:.3} vs single {:.3}",
        stats.mean_harvest(),
        single_stats.mean_harvest()
    );
}

#[test]
fn cluster_terminates_by_global_stagnation() {
    // An effectively unlimited budget: the crawl must end via the
    // distributed idle verdict (every shard drained, nothing queued,
    // nothing in flight) — not hang on a locally-empty shard waiting
    // for peers forever.
    let (graph, cluster, cycling) = cycling_cluster(
        3,
        17,
        CrawlConfig {
            policy: CrawlPolicy::HardFocus,
            threads: 3,
            max_fetches: 100_000,
            distill_every: None,
            ..CrawlConfig::default()
        },
    );
    let seeds = focus_webgraph::search::topic_start_set(&graph, cycling, 8);
    cluster.seed(&seeds).unwrap();
    // HardFocus stagnates on the tiny web well before 100k fetches; if
    // the termination verdict has a hole this test hangs rather than
    // fails, which CI's timeout converts into a failure.
    let stats = cluster.run().unwrap();
    assert!(stats.attempts < 100_000, "crawl must stagnate, not exhaust");
    assert!(stats.successes > 0);
    // No shard died early (nobody exhausted a budget), so nothing may
    // have been dropped: at the stagnation verdict every routed entry
    // had landed.
    assert_eq!(cluster.exchange_dropped(), 0, "exchange dropped entries");
}

#[test]
fn a_shard_started_alone_after_its_cluster_stagnated_crawls() {
    // Run a cluster to stagnation, then seed one shard with a page it
    // owns and has never seen, and run that shard on its own. Its start
    // re-arms the exchange's verdict like a cluster start does, so its
    // workers claim the seed instead of reading the old verdict.
    let (graph, cluster, cycling) = cycling_cluster(
        2,
        17,
        CrawlConfig {
            policy: CrawlPolicy::HardFocus,
            threads: 2,
            max_fetches: 100_000,
            distill_every: None,
            ..CrawlConfig::default()
        },
    );
    let seeds = focus_webgraph::search::topic_start_set(&graph, cycling, 8);
    cluster.seed(&seeds).unwrap();
    let stats = cluster.run().unwrap();
    assert!(stats.attempts < 100_000, "crawl must stagnate, not exhaust");
    let shard = &cluster.shards()[0];
    let before = shard.stats().attempts;
    let known = |oid: Oid| {
        let sql = format!("select count(*) from crawl where oid = {}", oid.raw());
        shard.sql(&sql).unwrap().scalar_i64().unwrap() > 0
    };
    let fresh = (graph.pages().iter())
        .find(|p| cluster.owner_of(&p.url) == 0 && !known(p.oid))
        .expect("shard 0 owns a page it has never seen");
    shard.seed(&[fresh.oid]).unwrap();
    shard.run().unwrap();
    assert!(
        shard.stats().attempts > before,
        "the lone shard claimed nothing: {} attempts before and after",
        before
    );
    cluster.check_invariants().unwrap();
}

#[test]
fn nepotistic_edges_never_cross_shards() {
    // The partition keys on the server, so a same-server (nepotistic)
    // edge's endpoints always belong to one shard — the §2.2 filter
    // stays a local fact. Verify from the recorded LINK rows: every
    // same-server edge's target is owned by the shard that recorded it.
    let (graph, cluster, cycling) = cycling_cluster(
        4,
        19,
        CrawlConfig {
            policy: CrawlPolicy::SoftFocus,
            threads: 4,
            max_fetches: 300,
            distill_every: Some(100),
            ..CrawlConfig::default()
        },
    );
    let seeds = focus_webgraph::search::topic_start_set(&graph, cycling, 10);
    cluster.seed(&seeds).unwrap();
    cluster.run().unwrap();
    cluster.check_invariants().unwrap();
    let links = cluster.shards().iter().flat_map(|s| s.links());
    let nepotistic = links.filter(|&(_, sid_src, _, sid_dst)| sid_src == sid_dst);
    assert!(
        nepotistic.count() > 0,
        "web generated no same-server edges; test proves nothing"
    );
    // And each shard's distiller runs over local evidence only: forcing
    // a distillation on every shard succeeds independently.
    for shard in cluster.shards() {
        shard.distill_now().unwrap();
    }
}

#[test]
fn mark_topic_broadcast_resteers_every_shard() {
    let (graph, cluster, cycling) = cycling_cluster(
        3,
        23,
        CrawlConfig {
            policy: CrawlPolicy::SoftFocus,
            threads: 3,
            max_fetches: 100_000,
            distill_every: None,
            ..CrawlConfig::default()
        },
    );
    let seeds = focus_webgraph::search::topic_start_set(&graph, cycling, 10);
    cluster.seed(&seeds).unwrap();
    let run = cluster.start().unwrap();
    let gardening = cluster.find_topic("home/gardening").unwrap();
    for shard in cluster.shards() {
        assert_eq!(shard.compiled().taxonomy().mark(gardening), Mark::Null);
    }
    // Mark only once pages have landed: a re-steer re-prioritizes what
    // visited pages point to, so before the first landing it has nothing
    // to route. What each shard had visited *before* the mark was queued
    // is exactly what its re-steer saw.
    let deadline = std::time::Instant::now() + Duration::from_secs(20);
    while cluster.stats().successes < 150 {
        assert!(
            std::time::Instant::now() < deadline,
            "crawl never got going"
        );
        assert!(!run.is_finished(), "run ended before 150 successes");
        std::thread::sleep(Duration::from_millis(2));
    }
    let visited_before_mark: Vec<Vec<Oid>> = (cluster.shards().iter())
        .map(|s| s.landings().unwrap().iter().map(|l| l.oid).collect())
        .collect();
    run.mark_topic(gardening, true);
    // Every shard recompiles and Arc-swaps at its next page boundary.
    let deadline = std::time::Instant::now() + Duration::from_secs(20);
    'wait: loop {
        let all_marked = cluster
            .shards()
            .iter()
            .all(|s| s.compiled().taxonomy().mark(gardening) == Mark::Good);
        if all_marked {
            break 'wait;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "mark_topic broadcast never reached every shard"
        );
        assert!(!run.is_finished(), "run ended before the mark landed");
        std::thread::sleep(Duration::from_millis(2));
    }
    run.stop();
    run.join().unwrap();
    for shard in cluster.shards() {
        assert_eq!(
            shard.compiled().taxonomy().mark(gardening),
            Mark::Good,
            "a shard kept crawling under the old marking"
        );
        assert_eq!(shard.compiled().taxonomy().mark(cycling), Mark::Good);
    }
    // At least one boost crossed shards — the re-steer's routing under
    // the model read guard, `crawler.model → crawler.exchange_inbox`. A
    // page visited before the mark holds, after the run, the relevance
    // its re-steer recomputed (nothing is fetched twice here); every
    // page it links to on another shard is unvisited on this one, so
    // above the re-steer floor (0.2) each such link was routed.
    let n = cluster.n_shards();
    let crossed = (visited_before_mark.iter().enumerate()).any(|(s, visited)| {
        let shard = &cluster.shards()[s];
        let (relevance, links) = (shard.relevance_map(), shard.links());
        visited.iter().any(|src| {
            relevance[src] > 0.2
                && (links.iter()).any(|(o, _, _, sid_dst)| o == src && *sid_dst as usize % n != s)
        })
    });
    assert!(crossed, "no re-steer boost crossed shards");
}

#[test]
fn cluster_pause_and_stop_latency_is_one_page_per_shard() {
    let graph = Arc::new(WebGraph::generate(WebConfig::tiny(29)));
    let cycling = graph.taxonomy().find("recreation/cycling").unwrap();
    let model = trained_model(&graph, "recreation/cycling");
    let fetcher = Arc::new(SlowFetcher {
        inner: Arc::new(SimFetcher::new(Arc::clone(&graph), None)),
        delay: Duration::from_millis(5),
    });
    let n_shards = 2;
    let cluster = CrawlCluster::new(
        n_shards,
        fetcher,
        model,
        CrawlConfig {
            policy: CrawlPolicy::SoftFocus,
            threads: 2,
            max_fetches: 100_000,
            distill_every: None,
            batch_size: 16,
            ..CrawlConfig::default()
        },
    )
    .unwrap();
    cluster
        .seed(&focus_webgraph::search::topic_start_set(
            &graph, cycling, 12,
        ))
        .unwrap();
    let run = cluster.start().unwrap();
    while run.stats().successes < 2 {
        std::thread::sleep(Duration::from_millis(1));
    }
    run.pause();
    // Every shard parks at its next page boundary — not after finishing
    // its 16-claim batch.
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while !matches!(run.state(), RunState::Paused | RunState::Finished) {
        assert!(std::time::Instant::now() < deadline, "pause never landed");
        std::thread::sleep(Duration::from_millis(1));
    }
    let paused_attempts = run.stats().attempts;
    std::thread::sleep(Duration::from_millis(30));
    assert_eq!(
        run.stats().attempts,
        paused_attempts,
        "a shard kept claiming while paused"
    );
    run.stop();
    let stats = run.join().unwrap();
    // Stop mid-batch returns each shard's unfetched remainder: the
    // cluster processed fewer pages than it claimed…
    assert!(
        stats.successes + stats.failures < stats.attempts,
        "stop processed whole batches: {stats:?}"
    );
    // …and no shard leaked a CLAIMED row.
    cluster.check_invariants().unwrap();
}

#[test]
fn cluster_checkpoint_restore_resumes_with_identical_frontier() {
    let (graph, cluster, cycling) = cycling_cluster(
        3,
        31,
        CrawlConfig {
            policy: CrawlPolicy::SoftFocus,
            threads: 3,
            max_fetches: 150,
            distill_every: None,
            ..CrawlConfig::default()
        },
    );
    let seeds = focus_webgraph::search::topic_start_set(&graph, cycling, 10);
    cluster.seed(&seeds).unwrap();
    let stats = cluster.run().unwrap();
    assert_eq!(stats.attempts, 150);
    assert_eq!(cluster.exchange_dropped(), 0, "exchange dropped entries");
    let ckpt = cluster.checkpoint().unwrap();
    assert_eq!(ckpt.shards.len(), 3);
    assert!(ckpt.visited_len() > 0);
    assert!(ckpt.frontier_len() > 0, "budget-bounded crawl leaves work");

    // Restore into a fresh cluster over the same web.
    let model = trained_model(&graph, "recreation/cycling");
    let fetcher = Arc::new(SimFetcher::new(Arc::clone(&graph), None));
    let restored = CrawlCluster::restore(
        fetcher,
        model,
        CrawlConfig {
            policy: CrawlPolicy::SoftFocus,
            threads: 3,
            max_fetches: 150,
            distill_every: None,
            ..CrawlConfig::default()
        },
        &ckpt,
    )
    .unwrap();
    // Identical frontier contents, shard by shard.
    let dump = |c: &CrawlCluster, shard: usize| {
        c.shards()[shard]
            .sql(
                "select oid, url, numtries, relevance, visited from crawl \
                 where visited = 0 order by oid",
            )
            .unwrap()
            .rows
    };
    for shard in 0..3 {
        assert_eq!(
            dump(&cluster, shard),
            dump(&restored, shard),
            "shard {shard} frontier diverged after restore"
        );
    }
    assert_eq!(restored.stats().attempts, 150, "stats carried over");

    // The restored cluster continues the crawl from that frontier.
    for shard in restored.shards() {
        shard.add_budget(40);
    }
    let resumed = restored.run().unwrap();
    assert_eq!(resumed.attempts, 270, "150 checkpointed + 3×40 fresh");
    assert!(
        resumed.successes > stats.successes,
        "no new pages after restore"
    );
}

#[test]
fn single_shard_cluster_matches_session_semantics() {
    // n_shards = 1 must behave like a plain session: everything local,
    // the exchange never sees an entry, and the crawl completes.
    let (graph, cluster, cycling) = cycling_cluster(
        1,
        37,
        CrawlConfig {
            policy: CrawlPolicy::SoftFocus,
            threads: 2,
            max_fetches: 120,
            distill_every: Some(60),
            ..CrawlConfig::default()
        },
    );
    let seeds = focus_webgraph::search::topic_start_set(&graph, cycling, 10);
    cluster.seed(&seeds).unwrap();
    let stats = cluster.run().unwrap();
    assert_eq!(stats.attempts, 120);
    assert!(stats.successes > 0);
    assert_eq!(cluster.exchange_dropped(), 0);
    assert_eq!(
        stats.attempts,
        stats.successes + stats.failures,
        "attempts must reconcile"
    );
}

#[test]
fn a_one_shard_run_reports_its_sessions_harvest_series() {
    // Figure 5's x-axis is the attempt index: a one-shard run is the
    // session's crawl, so merging it must not renumber harvest points to
    // a dense success rank (they differ from the first failure on).
    let cfg = CrawlConfig {
        threads: 1,
        max_fetches: 300,
        ..CrawlConfig::default()
    };
    let (graph, cluster, cycling) = cycling_cluster(1, 13, cfg);
    cluster
        .seed(&focus_webgraph::search::topic_start_set(
            &graph, cycling, 10,
        ))
        .unwrap();
    let stats = cluster.run().unwrap();
    assert!(stats.failures > 0, "no failure: both numberings agree");
    let landings = merge_landings(cluster.shards().iter().map(|s| s.landings().unwrap()));
    assert_eq!(landings, cluster.shards()[0].landings().unwrap());
    assert_eq!(landings.last().unwrap().attempt, 300);
}

#[test]
fn a_file_backed_cluster_is_refused_before_any_file_exists() {
    // `split_config` hands every shard the same `Durability::File`
    // path. Shard 1 used to reopen (and rotate the log of) shard 0's
    // live files, then advise "resume it with CrawlSession::recover" —
    // for a crawl that never ran. The shard loop refuses up front, says
    // why, and leaves nothing behind.
    use focus_crawler::session::Durability;
    let path = std::env::temp_dir().join(format!("crawl-cluster-{}.db", std::process::id()));
    let wal = minirel::wal_path_for(&path);
    let _ = (std::fs::remove_file(&path), std::fs::remove_file(&wal));
    let graph = Arc::new(WebGraph::generate(WebConfig::tiny(5)));
    let model = trained_model(&graph, "recreation/cycling");
    let fetcher = || Arc::new(SimFetcher::new(Arc::clone(&graph), None));
    let cfg = CrawlConfig {
        durability: Durability::File {
            path: path.clone(),
            group_commit: 1,
        },
        ..CrawlConfig::default()
    };
    let Err(err) = CrawlCluster::new(2, fetcher(), model.clone(), cfg.clone()) else {
        panic!("two shards cannot share one store file");
    };
    let msg = err.to_string();
    assert!(
        msg.contains("one store file per shard is not supported"),
        "{msg}"
    );
    assert!(msg.contains(&path.display().to_string()), "{msg}");
    assert!(
        !msg.contains("recover"),
        "no crawl exists to recover: {msg}"
    );
    assert!(!path.exists() && !wal.exists(), "files were created");
    // One shard has the file to itself; that still works.
    let single = CrawlCluster::new(1, fetcher(), model, cfg).unwrap();
    assert_eq!(single.n_shards(), 1);
    assert!(path.exists() && wal.exists());
    drop(single);
    let _ = (std::fs::remove_file(&path), std::fs::remove_file(&wal));
}

#[test]
fn cluster_add_seeds_routes_to_owning_shards() {
    // Seeds injected mid-crawl land on their owning shards (via each
    // shard's command queue) and un-stagnate the cluster.
    let (graph, cluster, cycling) = cycling_cluster(
        2,
        41,
        CrawlConfig {
            policy: CrawlPolicy::SoftFocus,
            threads: 2,
            max_fetches: 100_000,
            distill_every: None,
            ..CrawlConfig::default()
        },
    );
    let seeds = focus_webgraph::search::topic_start_set(&graph, cycling, 6);
    cluster.seed(&seeds).unwrap();
    let run = cluster.start().unwrap();
    while run.stats().successes < 3 {
        std::thread::sleep(Duration::from_millis(1));
    }
    // Late seeds from a different topic.
    let gardening = graph.taxonomy().find("home/gardening").unwrap();
    let late = focus_webgraph::search::topic_start_set(&graph, gardening, 6);
    run.add_seeds(&late);
    run.stop();
    run.join().unwrap();
    // Every late seed is recorded on its owning shard (frontier or
    // visited — the crawl may or may not have reached it before stop).
    for &oid in &late {
        let url = graph.page(oid).map(|p| p.url.clone()).unwrap_or_default();
        if url.is_empty() {
            continue;
        }
        let owner = cluster.owner_of(&url);
        let n = cluster.shards()[owner]
            .sql(&format!(
                "select count(*) from crawl where oid = {}",
                oid.raw() as i64
            ))
            .unwrap()
            .scalar_i64()
            .unwrap();
        assert_eq!(n, 1, "late seed {url} missing from its owner shard");
    }
}

#[test]
fn a_fetcher_without_urls_passes_the_cluster_check() {
    // Without `url_of`, seeds are routed by `oid % n` and may be fetched
    // off their server's owner (and again on it, once discovered by
    // URL). That is the documented contract, so the check `join` runs in
    // debug builds must not call it broken.
    struct UrlLess(EvolvingFetcher);
    impl Fetcher for UrlLess {
        fn fetch(&self, oid: Oid) -> Result<FetchedPage, FetchError> {
            self.0.fetch(oid)
        }
        fn fetch_count(&self) -> u64 {
            self.0.fetch_count()
        }
    }
    let graph = Arc::new(WebGraph::generate(WebConfig::tiny(61)));
    let cycling = graph.taxonomy().find("recreation/cycling").unwrap();
    let model = trained_model(&graph, "recreation/cycling");
    let fetcher = Arc::new(UrlLess(EvolvingFetcher::new(Arc::clone(&graph))));
    let cfg = CrawlConfig {
        max_fetches: 120,
        ..CrawlConfig::default()
    };
    let cluster = CrawlCluster::new(2, fetcher, model, cfg).unwrap();
    let seeds = focus_webgraph::search::topic_start_set(&graph, cycling, 10);
    cluster.seed(&seeds).unwrap();
    cluster.run().unwrap();
    let owner = |oid: Oid| cluster.owner_of(&graph.page(oid).unwrap().url);
    let off = |(i, s): (usize, &Arc<CrawlSession>)| s.visited().iter().any(|v| owner(v.0) != i);
    let stray = cluster.shards().iter().enumerate().any(off);
    assert!(
        stray,
        "no page fetched off its owner: the test proves nothing"
    );
    cluster.check_invariants().unwrap();
}

#[test]
fn maintenance_pass_respects_the_partition() {
    // Regression: a per-shard maintenance pass used to upsert every new
    // hub outlink into the revisiting shard's *own* frontier, planting
    // pages of servers another shard owns. After the web evolves, each
    // shard of a 2-shard cluster requeues its hubs and the cluster
    // revisits them, every URL-bearing CRAWL row must still sit on the
    // shard that owns its server — and the cross-shard targets must
    // have reached that owner.
    let base = Arc::new(WebGraph::generate(WebConfig::tiny(61)));
    let cycling = base.taxonomy().find("recreation/cycling").unwrap();
    let model = trained_model(&base, "recreation/cycling");
    let fetcher = Arc::new(EvolvingFetcher::new(Arc::clone(&base)));
    let cluster = CrawlCluster::new(
        2,
        fetcher.clone(),
        model,
        CrawlConfig {
            policy: CrawlPolicy::SoftFocus,
            threads: 2,
            max_fetches: 160,
            distill_every: Some(40),
            ..CrawlConfig::default()
        },
    )
    .unwrap();
    cluster
        .seed(&focus_webgraph::search::topic_start_set(&base, cycling, 10))
        .unwrap();
    cluster.run().unwrap();

    fetcher.swap(Arc::new(evolve(
        &base,
        1,
        &EvolutionConfig {
            new_pages_per_topic: 12,
            // Every page picks up links to its topic's new pages, which
            // all share one host: any visited page whose own host hashes
            // to the other shard yields a cross-shard link, whatever
            // order the two shards happened to crawl in.
            hub_update_fraction: 1.0,
            new_links_per_hub: 8,
            content_update_fraction: 1.0,
            seed: 5,
        },
    )));

    // `(oid_src, oid_dst, sid_dst)` of every LINK row on one shard.
    let links_of = |shard: usize| -> HashSet<(i64, i64, i64)> {
        cluster.shards()[shard]
            .sql("select oid_src, oid_dst, sid_dst from link")
            .unwrap()
            .rows
            .iter()
            .map(|r| {
                (
                    r[0].as_i64().unwrap(),
                    r[1].as_i64().unwrap(),
                    r[2].as_i64().unwrap(),
                )
            })
            .collect()
    };
    // Requeue every link source each shard knows (not just a top-k
    // whose membership depends on crawl interleaving), with budget to
    // spare: a shard that ran dry would leave the entries its peers
    // route to it queued in its inbox rather than crawled.
    let before: Vec<_> = (0..cluster.n_shards()).map(links_of).collect();
    for shard in cluster.shards() {
        shard.distill_now().unwrap();
        assert!(shard.maintenance_pass(usize::MAX).unwrap() > 0);
        shard.add_budget(10_000);
    }
    cluster.run().unwrap();
    // Targets of new links that cross shards, with their owner.
    let mut crossing: Vec<(i64, usize)> = Vec::new();
    for (shard, before) in before.iter().enumerate() {
        for (_, dst, sid_dst) in links_of(shard).difference(before) {
            let owner = *sid_dst as usize % cluster.n_shards();
            if owner != shard {
                crossing.push((*dst, owner));
            }
        }
    }
    assert!(
        !crossing.is_empty(),
        "test web produced no cross-shard maintenance link"
    );

    // Land whatever is still in transit (a checkpoint drains every inbox).
    cluster.checkpoint().unwrap();
    for shard in 0..cluster.n_shards() {
        let rs = cluster.shards()[shard]
            .sql("select url from crawl where url <> ''")
            .unwrap();
        for row in &rs.rows {
            let url = row[0].as_str().unwrap();
            assert_eq!(
                cluster.owner_of(url),
                shard,
                "{url} sits in shard {shard}'s CRAWL table, owned elsewhere"
            );
        }
    }
    for (dst, owner) in crossing {
        let n = cluster.shards()[owner]
            .sql(&format!("select count(*) from crawl where oid = {dst}"))
            .unwrap()
            .scalar_i64()
            .unwrap();
        assert_eq!(n, 1, "cross-shard target {dst} never reached shard {owner}");
    }
}

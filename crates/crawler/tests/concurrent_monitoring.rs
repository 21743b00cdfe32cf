//! Monitors must never stall behind the crawl: `sql()` SELECTs and
//! `stats()` snapshots take the store's read lock / counter atomics, so
//! they complete in bounded time even while every worker is mid-batch
//! holding claims — the §3.7 "watch the crawl while it runs" contract
//! the session lock split exists to honor.

mod support;

use focus_crawler::session::{CrawlConfig, CrawlSession};
use focus_crawler::CrawlPolicy;
use focus_webgraph::{SimFetcher, WebConfig, WebGraph};
use std::sync::Arc;
use std::time::{Duration, Instant};
use support::{trained_model, SlowFetcher};

/// While workers are mid-batch behind slow fetches, `sql()` and
/// `stats()` must return promptly — bounded by lock hold times (page
/// flushes, microseconds-to-milliseconds), not by fetch latency or
/// crawl duration. The bound here is deliberately loose for noisy CI
/// boxes while still far below the ~100 ms fetch delay that would
/// dominate if monitors waited on workers.
#[test]
fn sql_and_stats_complete_while_workers_are_mid_batch() {
    let fetch_delay = Duration::from_millis(100);
    let graph = Arc::new(WebGraph::generate(WebConfig::tiny(13)));
    let cycling = graph.taxonomy().find("recreation/cycling").unwrap();
    let seeds = focus_webgraph::search::topic_start_set(&graph, cycling, 12);
    let model = trained_model(&graph, "recreation/cycling");
    let fetcher = Arc::new(SlowFetcher {
        inner: Arc::new(SimFetcher::new(Arc::clone(&graph), None)),
        delay: fetch_delay,
    });
    let session = Arc::new(
        CrawlSession::new(
            fetcher,
            model,
            CrawlConfig {
                policy: CrawlPolicy::SoftFocus,
                threads: 3,
                max_fetches: 100_000,
                distill_every: None,
                batch_size: 16,
                ..CrawlConfig::default()
            },
        )
        .unwrap(),
    );
    session.seed(&seeds).unwrap();
    let run = session.start().unwrap();

    // Wait until claims are checked out: workers are now mid-batch.
    let t0 = Instant::now();
    while session.stats().attempts == 0 {
        assert!(
            t0.elapsed() < Duration::from_secs(20),
            "crawl never started"
        );
        std::thread::sleep(Duration::from_millis(1));
    }

    // Monitors must land between page flushes, not at crawl end.
    let budget_per_call = Duration::from_secs(2);
    let mut worst = Duration::ZERO;
    for _ in 0..10 {
        let t = Instant::now();
        let rs = session
            .sql("select count(*) from crawl where visited = 1")
            .expect("monitor SELECT");
        let elapsed = t.elapsed();
        assert!(rs.rows.len() == 1);
        assert!(
            elapsed < budget_per_call,
            "sql() blocked for {elapsed:?} while workers were mid-batch"
        );
        worst = worst.max(elapsed);

        let t = Instant::now();
        let stats = session.stats();
        let elapsed = t.elapsed();
        assert!(
            elapsed < budget_per_call,
            "stats() blocked for {elapsed:?} while workers were mid-batch"
        );
        worst = worst.max(elapsed);
        assert!(stats.attempts > 0);
        std::thread::sleep(Duration::from_millis(5));
    }
    assert!(
        !run.is_finished(),
        "crawl finished during monitoring: the test never exercised mid-batch reads"
    );

    // Concurrent monitors: four threads querying at once must all make
    // progress (read locks are shared, so they cannot convoy each other).
    std::thread::scope(|s| {
        for _ in 0..4 {
            let session = Arc::clone(&session);
            s.spawn(move || {
                for _ in 0..5 {
                    let t = Instant::now();
                    session
                        .sql("select count(*) from crawl")
                        .expect("concurrent monitor SELECT");
                    assert!(
                        t.elapsed() < budget_per_call,
                        "concurrent monitor blocked {:?}",
                        t.elapsed()
                    );
                }
            });
        }
    });

    run.stop();
    let stats = run.join().unwrap();
    assert!(stats.attempts > 0);
    eprintln!("worst single monitor call: {worst:?}");
}

//! Crawl maintenance on an evolving web (§2.2 "good hubs should be
//! checked frequently for new resource links"; §3.2 crawl maintenance)
//! and the §1 community-evolution query over `LINK.discovered`.

use focus_crawler::monitor;
use focus_crawler::session::{CrawlConfig, CrawlSession};
use focus_crawler::CrawlPolicy;
use focus_eval::common::train_model;
use focus_eval::Scale;
use focus_webgraph::{evolve, EvolutionConfig, EvolvingFetcher, WebConfig, WebGraph};
use std::collections::HashSet;
use std::sync::Arc;

#[test]
fn maintenance_discovers_new_resources_after_evolution() {
    let base = Arc::new(WebGraph::generate(WebConfig::tiny(47)));
    let mut taxonomy = base.taxonomy().clone();
    let cycling = taxonomy.find("recreation/cycling").unwrap();
    taxonomy.mark_good(cycling).unwrap();
    let model = train_model(&base, &taxonomy, Scale::Tiny, 47);
    let fetcher = Arc::new(EvolvingFetcher::new(Arc::clone(&base)));

    let session = Arc::new(
        CrawlSession::new(
            Arc::clone(&fetcher) as Arc<dyn focus_webgraph::Fetcher>,
            model,
            CrawlConfig {
                policy: CrawlPolicy::SoftFocus,
                threads: 2,
                max_fetches: 160,
                distill_every: Some(80),
                ..CrawlConfig::default()
            },
        )
        .unwrap(),
    );
    session
        .seed(&focus_webgraph::search::topic_start_set(&base, cycling, 10))
        .unwrap();
    let stats1 = session.run().unwrap();
    assert!(stats1.successes > 50);
    let visited_before: HashSet<_> = session.visited().iter().map(|&(o, _, _)| o).collect();

    // The web evolves: new cycling resources appear and hubs list them.
    let gen1 = Arc::new(evolve(
        &base,
        1,
        &EvolutionConfig {
            new_pages_per_topic: 12,
            hub_update_fraction: 1.0,
            new_links_per_hub: 8,
            content_update_fraction: 0.6,
            seed: 5,
        },
    ));
    fetcher.swap(Arc::clone(&gen1));

    // Maintenance: the top hubs go back in the frontier. Resume
    // crawling: they are revisited, their new links are recorded, and
    // the new resources get fetched.
    let links_before: HashSet<_> = session.links().into_iter().collect();
    let requeued = session.maintenance_pass(10).unwrap();
    assert!(requeued > 0, "no hubs requeued");
    session.add_budget(80);
    let stats2 = session.run().unwrap();
    assert!(
        stats2.successes > stats1.successes,
        "no new fetches after maintenance"
    );
    let revisited = session.landings().unwrap()[stats1.successes as usize..]
        .iter()
        .filter(|l| visited_before.contains(&l.oid))
        .count();
    assert!(revisited > 0, "no hubs revisited");
    let new_links = (session.links().iter())
        .filter(|l| visited_before.contains(&l.0) && !links_before.contains(l))
        .count();
    assert!(new_links > 0, "maintenance found no new links");
    let newly_fetched: Vec<_> = session
        .visited()
        .iter()
        .filter(|&&(o, _, _)| !visited_before.contains(&o))
        .map(|&(o, _, _)| o)
        .collect();
    assert!(!newly_fetched.is_empty(), "nothing new was visited");
    // At least one genuinely *new-generation* page was discovered.
    let gen1_pages = newly_fetched
        .iter()
        .filter(|&&o| base.page(o).is_none() && gen1.page(o).is_some())
        .count();
    assert!(
        gen1_pages > 0,
        "no generation-1 page discovered via maintenance"
    );
}

#[test]
fn community_evolution_query_counts_new_cross_topic_links() {
    // Build a session whose LINK table carries `discovered` timestamps,
    // then count cross-topic links in time windows.
    let base = Arc::new(WebGraph::generate(WebConfig::tiny(61)));
    let mut taxonomy = base.taxonomy().clone();
    let cycling = taxonomy.find("recreation/cycling").unwrap();
    taxonomy.mark_good(cycling).unwrap();
    let model = train_model(&base, &taxonomy, Scale::Tiny, 61);
    let fetcher = Arc::new(EvolvingFetcher::new(Arc::clone(&base)));
    let session = Arc::new(
        CrawlSession::new(
            Arc::clone(&fetcher) as Arc<dyn focus_webgraph::Fetcher>,
            model,
            CrawlConfig {
                policy: CrawlPolicy::SoftFocus,
                threads: 1,
                max_fetches: 120,
                distill_every: Some(60),
                ..CrawlConfig::default()
            },
        )
        .unwrap(),
    );
    session
        .seed(&focus_webgraph::search::topic_start_set(&base, cycling, 8))
        .unwrap();
    session.run().unwrap();

    // The best-populated class pair: cycling pages to first-aid pages
    // (the affinity the generator builds in).
    let first_aid = base.taxonomy().find("health/first-aid").unwrap();
    let all_time = session.with_db_read(|db| {
        monitor::community_evolution(db, cycling.raw() as i64, first_aid.raw() as i64, 0).unwrap()
    });
    // Window starting "after the crawl" must contain no links.
    let future = session.with_db_read(|db| {
        monitor::community_evolution(
            db,
            cycling.raw() as i64,
            first_aid.raw() as i64,
            i64::MAX / 2,
        )
        .unwrap()
    });
    assert!(all_time > 0, "no cycling->first-aid links recorded at all");
    assert_eq!(future, 0);

    // The spam-filter query class also runs on live data.
    let rs = session.with_db_read(|db| {
        monitor::cross_topic_citations(db, first_aid.raw() as i64, cycling.raw() as i64, 1).unwrap()
    });
    assert!(
        !rs.rows.is_empty(),
        "expected at least one first-aid page cited by cycling pages"
    );
}

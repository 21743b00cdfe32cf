//! §3.7 re-enacted **live**: monitor a running crawl through its event
//! stream and ad-hoc SQL, diagnose the paper's stagnation anecdote, and
//! fix it *without stopping the run* — pause, mark a second topic good,
//! resume, and watch the harvest recover.
//!
//! ```sh
//! cargo run --release --example crawl_monitor
//! ```
//!
//! The paper's anecdote: a crawl on *mutual funds* dropped in relevance;
//! a census by class showed the neighborhood full of pages about
//! *investing in general*. "One update statement marking the ancestor
//! good fixed this stagnation problem." Here the update statement is
//! [`focus_crawler::CrawlRun::mark_topic`], applied to a paused live run
//! and followed by an automatic frontier re-prioritization.

use focus::prelude::*;
use focus::Durability;
use focus_crawler::monitor;
use focus_crawler::RunState;
use focus_eval::common::{train_model, Scale};
use std::sync::Arc;
use std::time::Duration;

const PHASE1_ATTEMPTS: u64 = 500;
const PHASE2_ATTEMPTS: u64 = 1000;

fn main() {
    let graph = Arc::new(WebGraph::generate(Scale::Small.web_config(99)));
    let mut taxonomy = graph.taxonomy().clone();
    let funds = taxonomy
        .find("business/investing/mutual-funds")
        .expect("topic");
    taxonomy.mark_good(funds).expect("markable");
    let model = train_model(&graph, &taxonomy, Scale::Small, 5);
    let fetcher = Arc::new(SimFetcher::new(Arc::clone(&graph), None));
    let session = Arc::new(
        focus::CrawlSession::new(
            fetcher,
            model,
            CrawlConfig {
                policy: CrawlPolicy::SoftFocus,
                threads: 4,
                // The run is steered and stopped by hand; the budget only
                // backstops a forgotten console.
                max_fetches: 100_000,
                distill_every: Some(250),
                // WAL-backed store: lets the monitoring queries below
                // run against a read replica instead of the
                // authoritative database the workers are writing.
                durability: Durability::Wal { group_commit: 8 },
                ..CrawlConfig::default()
            },
        )
        .expect("session"),
    );
    session
        .seed(&focus::search::topic_start_set(&graph, funds, 15))
        .expect("seed");
    // The §3.7 monitoring console reads a WAL-shipping follower: ad-hoc
    // SQL never touches the crawl's store lock (the paper's DBA would
    // point the applets at a DB2 read replica for the same reason).
    let replica = session.replica().expect("durable session has replicas");

    println!("=== phase 1: crawl good = {{business/investing/mutual-funds}} ===");
    let mut run = session.start().expect("no other run active");
    let events = run.take_events().expect("first take");

    // Live monitoring: drain events while the crawl runs, printing a
    // harvest tick every 100 classified pages.
    let relevance_cut = (-1.0f64).exp();
    let mut classified = 0u64;
    let mut relevant = 0u64;
    while run.stats().attempts < PHASE1_ATTEMPTS && !run.is_finished() {
        while let Some(ev) = events.try_next() {
            match ev {
                CrawlEvent::PageClassified { relevance, .. } => {
                    classified += 1;
                    if relevance > relevance_cut {
                        relevant += 1;
                    }
                    if classified.is_multiple_of(100) {
                        println!(
                            "  [live] {classified} pages, running harvest {:.3}",
                            relevant as f64 / classified as f64
                        );
                    }
                }
                CrawlEvent::DistillCompleted { distillation, .. } => {
                    println!("  [live] distillation #{distillation} republished HUBS/AUTH");
                }
                CrawlEvent::FrontierStagnated { attempts } => {
                    println!("  [live] frontier stagnated after {attempts} attempts");
                }
                _ => {}
            }
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    run.pause();
    while run.state() != RunState::Paused && !run.is_finished() {
        std::thread::sleep(Duration::from_millis(1));
    }
    let phase1 = run.stats();
    println!("phase-1 mean harvest: {:.3}\n", phase1.mean_harvest());

    // Catch the replica up to the leader's last commit so the paused
    // snapshot below is exact, then monitor the *follower*.
    session.with_db_read(|db| {
        let lsn = db.wal().expect("durable").last_commit_lsn();
        replica.wait_for_lsn(lsn, Duration::from_secs(5));
    });
    println!("-- monitoring query 1: harvest per minute (the live applet, on the replica) --");
    replica.with_db(|db| {
        let rs = monitor::harvest_per_minute(db).expect("query");
        print!("{}", rs.to_table());
    });

    println!("-- monitoring query 2: census by class (the diagnosis, on the replica) --");
    replica.with_db(|db| {
        let rs = monitor::census_by_class(db).expect("query");
        print!("{}", rs.to_table());
    });
    println!(
        "\nThe census shows the neighborhood dominated by broader investing/\
         business pages — the sibling/ancestor topics, the paper's diagnosis.\n"
    );

    println!("-- monitoring query 3: frontier health (on the replica) --");
    replica.with_db(|db| {
        let rs = monitor::frontier_by_numtries(db).expect("query");
        print!("{}", rs.to_table());
    });

    println!("\n=== phase 2: live re-steering of the *paused* run ===");
    println!("mark business/investing/stocks good -> re-prioritize -> resume");
    let stocks = session
        .find_topic("business/investing/stocks")
        .expect("sibling topic");
    run.mark_topic(stocks, true);
    run.add_seeds(&focus::search::topic_start_set(&graph, stocks, 5));
    run.resume();

    let mut steered_classified = 0u64;
    let mut steered_relevant = 0u64;
    loop {
        while let Some(ev) = events.try_next() {
            match ev {
                CrawlEvent::TopicMarked {
                    class,
                    good,
                    applied,
                } => {
                    println!("  [live] TopicMarked {class} good={good} applied={applied}");
                }
                CrawlEvent::FrontierResteered { boosted, .. } => {
                    println!("  [live] frontier re-prioritized: {boosted} entries boosted");
                }
                CrawlEvent::Paused => println!("  [live] paused"),
                CrawlEvent::Resumed => println!("  [live] resumed"),
                CrawlEvent::SeedsAdded { count } => {
                    println!("  [live] {count} stocks seeds injected");
                }
                CrawlEvent::PageClassified { relevance, .. } => {
                    steered_classified += 1;
                    if relevance > relevance_cut {
                        steered_relevant += 1;
                    }
                }
                _ => {}
            }
        }
        if run.stats().attempts >= PHASE2_ATTEMPTS || run.is_finished() {
            break;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    run.stop();
    let total = run.join().expect("run completes");

    let steered_harvest = if steered_classified > 0 {
        steered_relevant as f64 / steered_classified as f64
    } else {
        0.0
    };
    let phase1_harvest = if classified > 0 {
        relevant as f64 / classified as f64
    } else {
        0.0
    };
    println!(
        "\nphase-2 harvest (post-steering pages only): {steered_harvest:.3}  \
         (phase 1 was {phase1_harvest:.3})"
    );
    println!(
        "{}",
        if steered_harvest > phase1_harvest {
            "harvest recovered — one administrative command re-steered the live crawl."
        } else {
            "harvest did not improve at this scale; try --release / larger budget."
        }
    );

    println!("\n-- missed neighbors of great hubs (priority tweak query) --");
    session.with_db_read(|db| {
        let psi = db
            .query("select max(score) from hubs")
            .ok()
            .and_then(|rs| rs.scalar_f64())
            .unwrap_or(0.0)
            * 0.5;
        let rs = monitor::missed_hub_neighbors(db, psi).expect("query");
        println!(
            "{} unvisited pages cited by top hubs (showing 5):",
            rs.rows.len()
        );
        for row in rs.rows.iter().take(5) {
            println!("  {}", row[0]);
        }
    });

    // The planner's work is inspectable: EXPLAIN returns the plan tree
    // that runs, one row per line. The hub-revisit lookup probes the
    // link_src B+tree instead of scanning the link table.
    println!("\n-- explain: the hub-revisit lookup --");
    session.with_db_read(|db| {
        let rs = db
            .query("explain select oid_dst from link where oid_src = 42")
            .expect("explain");
        for row in &rs.rows {
            println!("  {}", row[0]);
        }
        let (hits, misses) = db.plan_cache_stats();
        println!("  (plan cache this session: {hits} hits, {misses} misses)");
    });

    println!(
        "\nfinal stats: {} attempts, {} successes, {} distillations",
        total.attempts, total.successes, total.distillations
    );
    // Why a crawl is (not) slow, from its own counters: a page whose
    // worker found the store lock busy waits in the worker's lane and
    // lands under a later guard instead of putting the worker to sleep.
    println!(
        "deferred landings: {} ({:.1}% of successes found the store busy)",
        total.deferred_landings,
        100.0 * total.deferred_landings as f64 / total.successes.max(1) as f64
    );
}

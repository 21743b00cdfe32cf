//! Golden single-worker crawls: the crawl loop's observable behaviour,
//! pinned as a digest.
//!
//! One worker over a seeded web with seeded chaos is fully
//! deterministic — claim order, attempt numbering, tick clock, event
//! order, and the heap order of `CRAWL` all replay exactly. Each test
//! hashes the `Debug` rendering of the whole event stream followed by
//! `visited()` in table order, and compares against a constant.
//!
//! The constants were recorded on the two-loop tree (commit 9e63b99,
//! `worker_inline`/`process_batch` still present; identical in debug
//! and `--release`) *before* the loops were unified, so they are what
//! "same behaviour" means for that refactor. **Re-record them only in
//! a PR that states which behaviour it changes and why** — a digest
//! that moved without such a statement is a bug in the PR, not in the
//! test.
//!
//! The same rule holds for the exact buffer-pool counts of
//! [`io_stats_of_a_seeded_in_memory_crawl_are_pinned`], its per-stage
//! reads included, and for the quarantine crawl's claim-stage reads
//! pinned beside its digest: they move only in a PR that says which
//! count moved, by how much, and why.

mod support;

use focus_crawler::metrics::Stage;
use focus_crawler::session::{CrawlConfig, CrawlSession};
use focus_crawler::{BackoffConfig, BreakerConfig, CrawlEvent, CrawlPolicy, StartOptions};
use focus_webgraph::{ChaosFetcher, ChaosSchedule, FaultProfile, SimFetcher, WebConfig, WebGraph};
use std::collections::BTreeSet;
use std::sync::Arc;
use support::{trained_model, Recorder};

/// FNV-1a over `text` plus a record separator, folded into `h`.
fn fold(mut h: u64, text: &str) -> u64 {
    for b in text.bytes().chain(std::iter::once(b'\n')) {
        h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Run one seeded single-worker crawl on the inline executor
/// (`fetch_pool = 0`) with every server `Flaky { p }`; returns the
/// events, the digest of events + `visited()`, and the buffer-pool reads
/// the claim stage made.
fn golden_crawl(cfg: CrawlConfig, flaky_p: f64, n_seeds: usize) -> (Vec<CrawlEvent>, u64, u64) {
    let graph = Arc::new(WebGraph::generate(WebConfig::tiny(13)));
    let cycling = graph.taxonomy().find("recreation/cycling").unwrap();
    let model = trained_model(&graph, "recreation/cycling");
    let servers: BTreeSet<u32> = graph.pages().iter().map(|p| p.server.raw()).collect();
    let mut schedule = ChaosSchedule::new(0x601d);
    for s in servers {
        schedule =
            schedule.with_profile(focus_types::ServerId(s), FaultProfile::Flaky { p: flaky_p });
    }
    let fetcher = Arc::new(ChaosFetcher::new(
        Arc::new(SimFetcher::new(Arc::clone(&graph), None)),
        schedule,
    ));
    let session = Arc::new(CrawlSession::new(fetcher, model, cfg).unwrap());
    session
        .seed(&focus_webgraph::search::topic_start_set(
            &graph, cycling, n_seeds,
        ))
        .unwrap();
    let rec = Recorder::new();
    let stats = session
        .start_with(StartOptions {
            observers: vec![Arc::clone(&rec) as _],
            ..StartOptions::default()
        })
        .unwrap()
        .join()
        .unwrap();
    // Nobody else touches the store, so no landing ever found it busy:
    // the digests below are of the path where every page lands at once.
    assert_eq!(session.stats().deferred_landings, 0);
    let events = rec.events();
    let mut h = 0xcbf2_9ce4_8422_2325;
    for e in &events {
        h = fold(h, &format!("{e:?}"));
    }
    for row in session.visited() {
        h = fold(h, &format!("{row:?}"));
    }
    (events, h, stats.metrics.stage(Stage::Claim).reads)
}

fn has(events: &[CrawlEvent], pred: impl Fn(&CrawlEvent) -> bool) -> bool {
    events.iter().any(pred)
}

/// Soft focus with periodic distillation, on a budget that is not a
/// multiple of the batch size: the last claim is clamped, so the run
/// ends on a short batch whose trailing failures must still land
/// before `BudgetExhausted` is the last word.
#[test]
fn soft_focus_budget_ending_on_a_clamped_batch() {
    let (events, digest, _) = golden_crawl(
        CrawlConfig {
            policy: CrawlPolicy::SoftFocus,
            threads: 1,
            fetch_pool: 0,
            max_fetches: 203,
            distill_every: Some(60),
            hub_boost_top_k: 5,
            ..CrawlConfig::default()
        },
        0.2,
        10,
    );
    assert!(has(&events, |e| matches!(
        e,
        CrawlEvent::BudgetExhausted { attempts: 203 }
    )));
    assert!(has(&events, |e| matches!(
        e,
        CrawlEvent::DistillCompleted { .. }
    )));
    assert!(has(&events, |e| matches!(
        e,
        CrawlEvent::FetchFailed { .. }
    )));
    assert_eq!(digest, SOFT_DIGEST, "soft-focus golden stream drifted");
}

/// Hard focus (the policy that stagnates) under heavy flakiness and a
/// hair-trigger breaker: the stream must contain retries, at least one
/// quarantine and one recovery, and end in stagnation — every health
/// and tick-clock path the loop drives. Its claims meet open breakers,
/// probes and politeness, so the claim stage's reads are pinned too.
#[test]
fn hard_focus_through_quarantine_recovery_and_stagnation() {
    let (events, digest, claim_reads) = golden_crawl(
        CrawlConfig {
            policy: CrawlPolicy::HardFocus,
            threads: 1,
            fetch_pool: 0,
            max_fetches: 5_000,
            max_tries: 4,
            distill_every: Some(80),
            backoff: BackoffConfig { base: 2, max: 8 },
            breaker: BreakerConfig {
                threshold: 2,
                cooldown: 6,
                max_cooldown: 24,
            },
            ..CrawlConfig::default()
        },
        0.35,
        6,
    );
    assert!(has(&events, |e| matches!(
        e,
        CrawlEvent::FetchRetried { .. }
    )));
    assert!(has(&events, |e| matches!(
        e,
        CrawlEvent::ServerQuarantined { .. }
    )));
    assert!(has(&events, |e| matches!(
        e,
        CrawlEvent::ServerRecovered { .. }
    )));
    assert!(has(&events, |e| matches!(
        e,
        CrawlEvent::FrontierStagnated { .. }
    )));
    assert_eq!(digest, HARD_DIGEST, "hard-focus golden stream drifted");
    assert_eq!(claim_reads, 1_292, "the quarantine crawl's claims read");
}

/// The in-memory twin of `durability::wal_stats_of_a_seeded_file_backed_crawl_are_pinned`:
/// a seeded one-worker crawl on the inline executor repeats exactly, so
/// the buffer pool's counts are pinned. Distilling every 150 pages, it
/// runs five passes; each runs `delete from hubs` and `delete from auth`,
/// and from the second on they delete the previous pass's rows, so the
/// counts include SQL `DELETE`'s writes.
#[test]
fn io_stats_of_a_seeded_in_memory_crawl_are_pinned() {
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
        fetch_pool: 0,
        max_fetches: 900,
        distill_every: Some(150),
        db_frames: 24,
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
    let io = session.with_db_read(|db| db.io_stats());
    let counts = (stats.attempts, stats.successes, stats.distillations);
    assert_eq!(counts, (900, 871, 5));
    assert_eq!(
        (io.logical_reads, io.physical_reads, io.physical_writes),
        (25_323, 6_912, 4_754)
    );
    // A change that only drops repeat visits of a page the pool holds
    // leaves what the pool had to evict as it was.
    assert_eq!(io.evictions, 7_225);
    // Where the reads were made: the stage clock charges each section
    // that holds the store write lock (the few left over are seeding's).
    let stages = Stage::ALL
        .iter()
        .map(|&s| (s.name(), stats.metrics.stage(s).reads));
    let stages: Vec<_> = stages.filter(|&(_, reads)| reads > 0).collect();
    assert_eq!(
        stages,
        [
            ("claim", 2_518),
            ("land_blocking", 2_843),
            ("land_try", 19_746),
            ("distill_guard2", 154)
        ]
    );
}

const SOFT_DIGEST: u64 = 11_481_721_691_773_225_275;
const HARD_DIGEST: u64 = 1_976_815_304_999_667_732;

//! The paper's §3.7 admin-in-the-loop scenario as an integration test:
//! a running crawl is paused, a sibling topic is marked good, the run
//! resumes, and the harvest series shows the crawler acquiring pages of
//! the newly-marked topic — without restarting anything.

use focus::prelude::*;
use focus::{ClassId, FocusSystem, Landing};
use std::sync::Arc;
use std::time::Duration;

fn cycling_system(graph: &Arc<WebGraph>) -> (FocusSystem, ClassId) {
    let fetcher = Arc::new(SimFetcher::new(Arc::clone(graph), None));
    let mut builder = FocusBuilder::new(graph.taxonomy().clone());
    let cycling = builder.mark_good_by_name("recreation/cycling").unwrap();
    for c in builder.taxonomy().all().collect::<Vec<_>>() {
        if c != ClassId::ROOT {
            builder.add_examples(c, graph.example_docs(c, 8, 11));
        }
    }
    let system = builder
        .crawl_config(CrawlConfig {
            policy: CrawlPolicy::SoftFocus,
            threads: 2,
            // Steered and stopped by hand; the budget is a backstop.
            max_fetches: 100_000,
            distill_every: Some(150),
            ..CrawlConfig::default()
        })
        .build(fetcher)
        .expect("system builds");
    (system, cycling)
}

fn wait_until(run: &focus::DiscoveryRun, pred: impl Fn(&focus::CrawlStats) -> bool) {
    let deadline = std::time::Instant::now() + Duration::from_secs(60);
    while !pred(&run.stats()) && !run.is_finished() {
        assert!(
            std::time::Instant::now() < deadline,
            "crawl made no progress"
        );
        std::thread::sleep(Duration::from_millis(2));
    }
}

#[test]
fn mid_crawl_resteering_reaches_newly_marked_topic() {
    let graph = Arc::new(WebGraph::generate(WebConfig::tiny(13)));
    let (system, cycling) = cycling_system(&graph);
    let running = graph.taxonomy().find("recreation/running").unwrap();

    // Phase 1: crawl toward cycling only.
    let seeds = focus::search::topic_start_set(&graph, cycling, 12);
    let mut run = system.start(&seeds).expect("starts");
    let events = run.take_events().expect("stream");
    wait_until(&run, |s| s.attempts >= 150);
    run.pause();
    while run.state() != RunState::Paused && !run.is_finished() {
        std::thread::sleep(Duration::from_millis(1));
    }
    let at_pause = run.stats();
    let landed_before = run.landings().unwrap();
    let fetched_before = landed_before.len();
    // Under good = {cycling}, no running-topic page can classify as
    // confidently relevant.
    let running_and_relevant =
        |l: &&Landing| graph.topic_of(l.oid) == Some(running) && l.relevance > 0.5;
    let confident_running_before = landed_before.iter().filter(running_and_relevant).count();
    assert_eq!(
        confident_running_before, 0,
        "running pages were already relevant before the re-mark"
    );

    // Phase 2: one administrative command against the *paused* run.
    let marked = run
        .mark_topic_by_name("recreation/running", true)
        .expect("sibling topic exists");
    assert_eq!(marked, running);
    run.resume();
    wait_until(&run, |s| s.attempts >= at_pause.attempts + 300);
    run.stop();
    run.join().expect("run completes");

    // The harvest series after the resume point contains pages of the
    // newly-marked topic, classified as relevant under the new marking.
    let confident_running_after = system.session().landings().unwrap()[fetched_before..]
        .iter()
        .filter(running_and_relevant)
        .count();
    assert!(
        confident_running_after >= 3,
        "expected the re-steered crawl to harvest running pages, got {confident_running_after}"
    );

    // The control trail is on the event stream, in causal order.
    let all: Vec<CrawlEvent> = events.collect();
    let pos = |pred: &dyn Fn(&CrawlEvent) -> bool| {
        all.iter()
            .position(pred)
            .unwrap_or_else(|| panic!("missing event in {all:?}"))
    };
    let paused = pos(&|e| matches!(e, CrawlEvent::Paused));
    let marked_ev = pos(
        &|e| matches!(e, CrawlEvent::TopicMarked { class, good: true, applied: true } if *class == running),
    );
    let resteered = pos(&|e| matches!(e, CrawlEvent::FrontierResteered { .. }));
    let resumed = pos(&|e| matches!(e, CrawlEvent::Resumed));
    let stopped = pos(&|e| matches!(e, CrawlEvent::Stopped { .. }));
    assert!(paused < marked_ev, "mark arrived before pause: {all:?}");
    assert!(marked_ev < resteered, "resteer must follow the mark");
    assert!(resteered < resumed, "resume must follow the resteer");
    assert!(resumed < stopped, "stop is last");
}

#[test]
fn observer_sees_every_classification() {
    use std::sync::Mutex;

    struct Counter(Mutex<u64>);
    impl CrawlObserver for Counter {
        fn on_event(&self, event: &CrawlEvent) {
            if matches!(event, CrawlEvent::PageClassified { .. }) {
                *self.0.lock().unwrap() += 1;
            }
        }
    }

    let graph = Arc::new(WebGraph::generate(WebConfig::tiny(57)));
    let (system, cycling) = cycling_system(&graph);
    let seeds = focus::search::topic_start_set(&graph, cycling, 10);
    let counter = Arc::new(Counter(Mutex::new(0)));
    let run = system
        .start_with(
            &seeds,
            StartOptions {
                observers: vec![counter.clone()],
                ..Default::default()
            },
        )
        .expect("starts");
    wait_until(&run, |s| s.attempts >= 120);
    run.stop();
    let outcome = run.join().expect("completes");
    // Observers are synchronous: no classification is ever dropped, even
    // if the bounded channel overflows.
    assert_eq!(*counter.0.lock().unwrap(), outcome.stats.successes);
}

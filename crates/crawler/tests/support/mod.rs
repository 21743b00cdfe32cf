//! What the crawler's test files share: the classifier they crawl with,
//! an observer that keeps every event, and a slow web. Each file uses
//! its own part.
#![allow(dead_code)]

use focus_classifier::model::TrainedModel;
use focus_classifier::train::{train, TrainConfig};
use focus_crawler::{CrawlEvent, CrawlObserver};
use focus_types::{ClassId, Oid};
use focus_webgraph::{FetchError, FetchedPage, Fetcher, SimFetcher, WebGraph};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// A classifier trained on six example documents of every topic of
/// `graph`, with `good` marked good.
pub fn trained_model(graph: &Arc<WebGraph>, good: &str) -> TrainedModel {
    let mut taxonomy = graph.taxonomy().clone();
    let topic = taxonomy.find(good).unwrap();
    taxonomy.mark_good(topic).unwrap();
    let mut examples = Vec::new();
    for c in taxonomy.all() {
        if c != ClassId::ROOT {
            examples.extend(graph.example_docs(c, 6, 99).into_iter().map(|d| (c, d)));
        }
    }
    train(&taxonomy, &examples, &TrainConfig::default())
}

/// Records every event it is shown, in order.
#[derive(Default)]
pub struct Recorder(pub Mutex<Vec<CrawlEvent>>);

impl Recorder {
    /// A fresh recorder, ready to hand to `StartOptions::observers`.
    pub fn new() -> Arc<Recorder> {
        Arc::default()
    }

    /// The events recorded so far.
    pub fn events(&self) -> Vec<CrawlEvent> {
        self.0.lock().unwrap().clone()
    }
}

impl CrawlObserver for Recorder {
    fn on_event(&self, event: &CrawlEvent) {
        self.0.lock().unwrap().push(event.clone());
    }
}

/// The simulated web, holding every fetch for `delay`: workers spend
/// most of their time mid-batch with claims checked out, which widens
/// every window a test wants to hit.
pub struct SlowFetcher {
    pub inner: Arc<SimFetcher>,
    pub delay: Duration,
}

impl Fetcher for SlowFetcher {
    fn fetch(&self, oid: Oid) -> Result<FetchedPage, FetchError> {
        std::thread::sleep(self.delay);
        self.inner.fetch(oid)
    }

    fn fetch_count(&self) -> u64 {
        self.inner.fetch_count()
    }

    fn url_of(&self, oid: Oid) -> Option<String> {
        self.inner.url_of(oid)
    }
}

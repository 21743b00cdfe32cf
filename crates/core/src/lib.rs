//! # focus
//!
//! Public facade of the **Focus** resource-discovery system — a Rust
//! reproduction of *"Distributed Hypertext Resource Discovery Through
//! Examples"* (Chakrabarti, van den Berg, Dom; VLDB 1999).
//!
//! The system discovers topic-specific web subgraphs by example: the user
//! marks *good* topics in a taxonomy and supplies example documents; a
//! hierarchical Bayesian **classifier** steers a multi-threaded
//! **crawler** (radius-1 rule), while a relevance-weighted HITS
//! **distiller** identifies hubs to revisit and boost (radius-2 rule).
//! All crawl state lives in **minirel**, a small relational engine, so
//! ad-hoc SQL can monitor and re-steer a live crawl.
//!
//! ```
//! use focus::prelude::*;
//! use std::sync::Arc;
//!
//! // A tiny synthetic web (the paper crawled the 1999 Web).
//! let graph = Arc::new(WebGraph::generate(WebConfig::tiny(7)));
//! let fetcher = Arc::new(SimFetcher::new(Arc::clone(&graph), None));
//!
//! // Administration: mark "recreation/cycling" good, give examples.
//! let mut builder = FocusBuilder::new(graph.taxonomy().clone());
//! let cycling = builder.mark_good_by_name("recreation/cycling").unwrap();
//! for topic in builder.taxonomy().all().collect::<Vec<_>>() {
//!     if topic != focus::ClassId::ROOT {
//!         builder.add_examples(topic, graph.example_docs(topic, 4, 1));
//!     }
//! }
//!
//! // Train, then start a *controllable* crawl in the background.
//! let system = builder
//!     .crawl_config(CrawlConfig { max_fetches: 150, threads: 1, ..Default::default() })
//!     .build(fetcher)
//!     .unwrap();
//! let seeds = focus::search::topic_start_set(&graph, cycling, 10);
//! let mut run = system.start(&seeds).unwrap();
//!
//! // `run` derefs to the crawler's `CrawlRun` — the same handle a
//! // sharded `CrawlCluster` returns: watch it live (events), steer it
//! // (pause/mark_topic/add_seeds), read its stats — then take the
//! // classic outcome. Checkpoints come from `system.session()`.
//! let events = run.take_events().unwrap();
//! let outcome = run.join().unwrap();
//! assert!(outcome.stats.successes > 0);
//! let classified = events
//!     .filter(|e| matches!(e, CrawlEvent::PageClassified { .. }))
//!     .count() as u64;
//! assert_eq!(classified, outcome.stats.successes);
//! ```

#![forbid(unsafe_code)]

pub mod admin;
pub mod system;

pub use admin::FocusBuilder;
pub use system::{DiscoveryOutcome, DiscoveryRun, FocusSystem};

// Re-export the subsystem vocabulary so downstream users need one crate.
pub use focus_classifier::compiled::{CompiledModel, EvalSummary, Scratch};
pub use focus_classifier::model::{Posterior, TrainedModel};
pub use focus_classifier::train::TrainConfig;
pub use focus_crawler::cluster::{ClusterCheckpoint, CrawlCluster};
pub use focus_crawler::events::{CrawlEvent, CrawlObserver, EventStream};
pub use focus_crawler::run::{CrawlRun, RunState, StartOptions};
pub use focus_crawler::session::{
    CrawlCheckpoint, CrawlConfig, CrawlSession, CrawlStats, Durability, Landing,
};
pub use focus_crawler::CrawlPolicy;
pub use focus_distiller::{DistillConfig, DistillResult};
pub use focus_types::{
    ClassId, DocId, Document, FocusError, Oid, ServerId, Taxonomy, TermId, TermVec,
};
pub use focus_webgraph::search;
pub use focus_webgraph::{Fetcher, SimFetcher, WebConfig, WebGraph};
pub use minirel::{Database, Replica};

/// Everything a quickstart needs.
pub mod prelude {
    pub use crate::admin::FocusBuilder;
    pub use crate::system::{DiscoveryOutcome, DiscoveryRun, FocusSystem};
    pub use focus_crawler::events::{CrawlEvent, CrawlObserver};
    pub use focus_crawler::run::{RunState, StartOptions};
    pub use focus_crawler::session::CrawlConfig;
    pub use focus_crawler::CrawlPolicy;
    pub use focus_types::{ClassId, Taxonomy};
    pub use focus_webgraph::{SimFetcher, WebConfig, WebGraph};
}

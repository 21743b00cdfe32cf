//! # focus-crawler
//!
//! The goal-directed crawler of §3.2: a multi-threaded fetcher steered by
//! the classifier (radius-1 rule) and the distiller (radius-2 rule),
//! with its frontier stored in the relational `CRAWL` table and popped
//! through a B+tree index in the paper's *aggressive discovery* order:
//!
//! ```text
//! (numtries ascending, relevance descending, serverload ascending)
//! ```
//!
//! `relevance` is stored as **log R** (the paper's monitoring queries
//! compute `avg(exp(relevance))` and threshold on `log R(u) > −1`), and a
//! derived `negrel = −log R` column realizes the descending component in
//! an ascending composite index.
//!
//! Crawl policies (§2.1.2): [`policy::CrawlPolicy::SoftFocus`] (priority =
//! the source page's relevance), `HardFocus` (expand only pages whose best
//! leaf has a good ancestor — the rule that stagnates), and `Unfocused`
//! (the standard-crawler baseline of Figure 5(a); pages are still
//! *classified* so harvest can be measured, but relevance never steers).

pub mod cluster;
pub mod events;
pub mod fetch_pool;
pub mod frontier;
pub mod health;
pub mod metrics;
pub mod monitor;
pub mod policy;
pub mod run;
pub mod session;
pub mod tables;

pub use cluster::{ClusterCheckpoint, CrawlCluster};
pub use events::{CrawlEvent, CrawlObserver, EventStream, FailureOutcome, FetchErrorKind};
pub use fetch_pool::{FetchPool, PoolHandle};
pub use health::{BackoffConfig, Breaker, BreakerConfig, HealthMap, PolitenessConfig};
pub use metrics::{MetricsSnapshot, Stage};
pub use policy::CrawlPolicy;
pub use run::{Command, CrawlError, CrawlRun, RunState, StartOptions};
pub use session::{
    CrawlCheckpoint, CrawlConfig, CrawlSession, CrawlStats, Durability, Landing, Violation,
};
pub use tables::host_server_id;

//! Fetching pages from the (simulated) distributed web.
//!
//! §1.1: "there is a non-trivial cost for visiting any vertex". The
//! simulator charges that cost as an optional artificial latency and counts
//! every fetch, so experiments can use #fetches as the x-axis exactly like
//! the paper's figures. The fetcher is `Sync` — the paper's crawler runs
//! "about thirty threads" against it.

use crate::generator::WebGraph;
use crate::page::FailureMode;
use focus_types::{Oid, ServerId, TermVec};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Why a fetch failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FetchError {
    /// URL does not resolve (dead link / 404). Not retriable.
    NotFound(Oid),
    /// Server did not answer in time. Retriable.
    Timeout(Oid),
}

impl std::fmt::Display for FetchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FetchError::NotFound(o) => write!(f, "404 for {o}"),
            FetchError::Timeout(o) => write!(f, "timeout fetching {o}"),
        }
    }
}

impl std::error::Error for FetchError {}

/// A successfully fetched page as the crawler sees it (no ground truth!).
#[derive(Debug, Clone)]
pub struct FetchedPage {
    /// URL hash.
    pub oid: Oid,
    /// Full URL.
    pub url: String,
    /// Serving host.
    pub server: ServerId,
    /// Tokenized content.
    pub terms: TermVec,
    /// Outgoing hyperlinks as (oid, url) pairs.
    pub outlinks: Vec<(Oid, String)>,
}

/// Anything the crawler can pull pages from.
///
/// Implementations must be safe under *concurrent* fetches: the crawler
/// may run hundreds of calls in flight at once from a pool of fetcher
/// threads (see the crawler's fetch pool). In particular `fetch_count`
/// is a monotone attempts counter, not a serialization point.
pub trait Fetcher: Send + Sync {
    /// Fetch one URL by oid.
    fn fetch(&self, oid: Oid) -> Result<FetchedPage, FetchError>;
    /// Fetch one URL, carrying the caller-assigned *submission ordinal*
    /// — the position of this attempt in submission order, assigned
    /// before the fetch is handed to any thread. Deterministic fault
    /// injectors ([`crate::chaos::ChaosFetcher`]) key their decisions on
    /// this ordinal so that the injected-fault set is independent of
    /// completion interleaving. Plain fetchers ignore it.
    fn fetch_with_ordinal(&self, oid: Oid, _ordinal: u64) -> Result<FetchedPage, FetchError> {
        self.fetch(oid)
    }
    /// Total fetch attempts so far.
    fn fetch_count(&self) -> u64;
    /// Pages linking *to* `oid`, when the server exposes such metadata
    /// (§3.2: "If links could be traversed backward, e.g. using metadata
    /// at the server, the crawler may also fetch pages that point to the
    /// page being 'expanded'"). Default: unsupported.
    fn backlinks(&self, _oid: Oid) -> Option<Vec<(Oid, String)>> {
        None
    }
    /// Resolve the URL text behind an oid *without* charging a fetch —
    /// the metadata a crawl administrator has in hand when seeding by
    /// keyword search (§1.1's start set carries real URLs, so seeded
    /// frontier rows, claims, and checkpoints should too). Default:
    /// unknown.
    fn url_of(&self, _oid: Oid) -> Option<String> {
        None
    }
    /// Resolve the server behind an oid *without* charging a fetch —
    /// the DNS-level metadata a fault injector needs to key per-server
    /// fault profiles (see [`crate::chaos`]). Default: unknown.
    fn server_of(&self, _oid: Oid) -> Option<ServerId> {
        None
    }
}

/// Shared reverse-adjacency map (target → citers).
type ReverseAdjacency = Arc<focus_types::hash::FxHashMap<Oid, Vec<Oid>>>;

/// Fetcher over a generated [`WebGraph`].
///
/// Concurrency semantics (relied on by the crawler's fetch pool):
/// `fetches` and `failures` are relaxed atomics — counts are exact
/// under any interleaving, though `fetch_count` observed mid-storm may
/// trail in-flight calls. Per-oid timeout retry counting goes through a
/// mutex, so concurrent attempts at the *same* timed-out page each
/// consume one retry; the page still recovers after exactly
/// `timeout_retries` failures regardless of which threads raced.
pub struct SimFetcher {
    graph: Arc<WebGraph>,
    latency: Option<Duration>,
    fetches: AtomicU64,
    failures: AtomicU64,
    /// Timeout pages succeed on the k-th retry (k = 3), exercising
    /// `numtries` without making pages permanently unreachable.
    timeout_retries: u64,
    attempts: lockcheck::OrderedMutex<focus_types::hash::FxHashMap<Oid, u64>>,
    /// Lazily-built reverse adjacency (only when backlinks are served).
    reverse: lockcheck::OrderedMutex<Option<ReverseAdjacency>>,
    serve_backlinks: bool,
}

impl SimFetcher {
    /// Wrap a web graph; `latency` per fetch simulates network cost
    /// (`None` for benchmarks that only count fetches).
    pub fn new(graph: Arc<WebGraph>, latency: Option<Duration>) -> SimFetcher {
        SimFetcher {
            graph,
            latency,
            fetches: AtomicU64::new(0),
            failures: AtomicU64::new(0),
            timeout_retries: 3,
            attempts: lockcheck::OrderedMutex::new(
                lockcheck::rank::SIM_ATTEMPTS,
                focus_types::hash::FxHashMap::default(),
            ),
            reverse: lockcheck::OrderedMutex::new(lockcheck::rank::SIM_REVERSE, None),
            serve_backlinks: false,
        }
    }

    /// Enable the backlink metadata service (§3.2's "surfing backwards").
    pub fn with_backlinks(mut self) -> SimFetcher {
        self.serve_backlinks = true;
        self
    }

    fn reverse_adjacency(&self) -> ReverseAdjacency {
        let mut guard = self.reverse.lock();
        if let Some(r) = guard.as_ref() {
            return Arc::clone(r);
        }
        let mut rev: focus_types::hash::FxHashMap<Oid, Vec<Oid>> =
            focus_types::hash::FxHashMap::default();
        for p in self.graph.pages() {
            for &dst in &p.outlinks {
                rev.entry(dst).or_default().push(p.oid);
            }
        }
        let rev = Arc::new(rev);
        *guard = Some(Arc::clone(&rev));
        rev
    }

    /// The underlying graph (evaluation-side code may peek at ground truth;
    /// crawl-side code must only use [`Fetcher::fetch`]).
    pub fn graph(&self) -> &WebGraph {
        &self.graph
    }

    /// Failed fetch attempts so far.
    pub fn failure_count(&self) -> u64 {
        self.failures.load(Ordering::Relaxed)
    }
}

impl Fetcher for SimFetcher {
    fn fetch(&self, oid: Oid) -> Result<FetchedPage, FetchError> {
        self.fetches.fetch_add(1, Ordering::Relaxed);
        if let Some(l) = self.latency {
            std::thread::sleep(l);
        }
        let page = match self.graph.page(oid) {
            Some(p) => p,
            None => {
                self.failures.fetch_add(1, Ordering::Relaxed);
                return Err(FetchError::NotFound(oid));
            }
        };
        match page.failure {
            FailureMode::Dead => {
                self.failures.fetch_add(1, Ordering::Relaxed);
                Err(FetchError::NotFound(oid))
            }
            FailureMode::Timeout => {
                let mut attempts = self.attempts.lock();
                let n = attempts.entry(oid).or_insert(0);
                *n += 1;
                if *n <= self.timeout_retries {
                    self.failures.fetch_add(1, Ordering::Relaxed);
                    Err(FetchError::Timeout(oid))
                } else {
                    Ok(to_fetched(page, &self.graph))
                }
            }
            FailureMode::Malformed | FailureMode::None => Ok(to_fetched(page, &self.graph)),
        }
    }

    fn fetch_count(&self) -> u64 {
        self.fetches.load(Ordering::Relaxed)
    }

    fn url_of(&self, oid: Oid) -> Option<String> {
        self.graph.page(oid).map(|p| p.url.clone())
    }

    fn server_of(&self, oid: Oid) -> Option<ServerId> {
        self.graph.page(oid).map(|p| p.server)
    }

    fn backlinks(&self, oid: Oid) -> Option<Vec<(Oid, String)>> {
        if !self.serve_backlinks {
            return None;
        }
        let rev = self.reverse_adjacency();
        Some(
            rev.get(&oid)
                .map(|srcs| {
                    srcs.iter()
                        .map(|&s| {
                            (
                                s,
                                self.graph
                                    .page(s)
                                    .map(|p| p.url.clone())
                                    .unwrap_or_default(),
                            )
                        })
                        .collect()
                })
                .unwrap_or_default(),
        )
    }
}

fn to_fetched(page: &crate::page::SimPage, graph: &WebGraph) -> FetchedPage {
    FetchedPage {
        oid: page.oid,
        url: page.url.clone(),
        server: page.server,
        terms: page.terms.clone(),
        outlinks: page
            .outlinks
            .iter()
            .map(|&o| {
                let url = graph.page(o).map(|p| p.url.clone()).unwrap_or_default();
                (o, url)
            })
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::{WebConfig, WebGraph};
    use crate::page::FailureMode;

    fn fetcher() -> SimFetcher {
        SimFetcher::new(Arc::new(WebGraph::generate(WebConfig::tiny(3))), None)
    }

    #[test]
    fn fetch_ok_returns_content_and_links() {
        let f = fetcher();
        let p = f
            .graph()
            .pages()
            .iter()
            .find(|p| p.failure == FailureMode::None && !p.outlinks.is_empty())
            .expect("healthy page exists");
        let got = f.fetch(p.oid).unwrap();
        assert_eq!(got.oid, p.oid);
        assert_eq!(got.outlinks.len(), p.outlinks.len());
        assert!(!got.url.is_empty());
        assert_eq!(f.fetch_count(), 1);
    }

    #[test]
    fn dead_pages_404_forever() {
        let f = fetcher();
        if let Some(p) = f
            .graph()
            .pages()
            .iter()
            .find(|p| p.failure == FailureMode::Dead)
        {
            for _ in 0..5 {
                assert!(matches!(f.fetch(p.oid), Err(FetchError::NotFound(_))));
            }
            assert_eq!(f.failure_count(), 5);
        }
    }

    #[test]
    fn timeouts_recover_after_retries() {
        let f = fetcher();
        if let Some(p) = f
            .graph()
            .pages()
            .iter()
            .find(|p| p.failure == FailureMode::Timeout)
        {
            let mut failures = 0;
            let mut ok = false;
            for _ in 0..6 {
                match f.fetch(p.oid) {
                    Err(FetchError::Timeout(_)) => failures += 1,
                    Ok(_) => {
                        ok = true;
                        break;
                    }
                    Err(e) => panic!("unexpected error {e}"),
                }
            }
            assert_eq!(failures, 3);
            assert!(ok, "timeout page should recover");
        }
    }

    #[test]
    fn unknown_oid_is_not_found() {
        let f = fetcher();
        assert!(matches!(f.fetch(Oid(12345)), Err(FetchError::NotFound(_))));
    }

    #[test]
    fn concurrent_fetches() {
        let f = Arc::new(fetcher());
        let oids: Vec<Oid> = f.graph().pages().iter().take(64).map(|p| p.oid).collect();
        let mut handles = Vec::new();
        for chunk in oids.chunks(16) {
            let f = Arc::clone(&f);
            let chunk = chunk.to_vec();
            handles.push(std::thread::spawn(move || {
                for o in chunk {
                    let _ = f.fetch(o);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(f.fetch_count(), 64);
    }
}

#[cfg(test)]
mod backlink_tests {
    use super::*;
    use crate::generator::{WebConfig, WebGraph};

    #[test]
    fn backlinks_disabled_by_default() {
        let f = SimFetcher::new(Arc::new(WebGraph::generate(WebConfig::tiny(3))), None);
        let oid = f.graph().pages()[0].oid;
        assert!(f.backlinks(oid).is_none());
    }

    #[test]
    fn backlinks_match_forward_links() {
        let f = SimFetcher::new(Arc::new(WebGraph::generate(WebConfig::tiny(3))), None)
            .with_backlinks();
        // Pick a page with known in-links.
        let graph = f.graph();
        let target = graph
            .pages()
            .iter()
            .find(|p| graph.indegree(p.oid) > 2)
            .expect("popular page exists");
        let back = f.backlinks(target.oid).expect("service enabled");
        assert_eq!(back.len() as u32, graph.indegree(target.oid));
        // Every claimed citer really links to the target.
        for (src, url) in &back {
            let sp = graph.page(*src).expect("citer exists");
            assert!(
                sp.outlinks.contains(&target.oid),
                "{url} does not cite target"
            );
        }
    }
}

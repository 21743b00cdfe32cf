//! Web evolution: new resources appear and hubs list them.
//!
//! §2.2: "good hubs should be checked frequently for new resource links";
//! §1's community-evolution query ("the number of links from a page about
//! environmental protection to a page related to oil and natural gas over
//! the last year") needs a web that *changes between crawls*. This module
//! derives a new [`WebGraph`] generation from an old one: each topic gains
//! fresh content pages, existing hubs append links to them, and a few
//! fresh cross-affinity links appear.
//!
//! [`EvolvingFetcher`] wraps the generations behind the [`Fetcher`] trait
//! so a live crawl session observes the flip on its next fetch.

use crate::fetch::{FetchError, FetchedPage, Fetcher};
use crate::generator::{WebConfig, WebGraph};
use crate::lexicon::LexiconConfig;
use crate::page::{FailureMode, PageKind, SimPage};
use focus_types::{ClassId, Oid, ServerId};
use lockcheck::{rank, OrderedRwLock};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// How a generation grows.
#[derive(Debug, Clone)]
pub struct EvolutionConfig {
    /// New content pages per topic.
    pub new_pages_per_topic: usize,
    /// Fraction of existing hubs that pick up links to new pages.
    pub hub_update_fraction: f64,
    /// Links each updated hub adds.
    pub new_links_per_hub: usize,
    /// Fraction of existing *content* pages that add a link or two
    /// (ordinary pages also change between crawls, not just hubs).
    pub content_update_fraction: f64,
    /// RNG seed for this generation.
    pub seed: u64,
}

impl Default for EvolutionConfig {
    fn default() -> Self {
        EvolutionConfig {
            new_pages_per_topic: 10,
            hub_update_fraction: 0.6,
            new_links_per_hub: 5,
            content_update_fraction: 0.25,
            seed: 1,
        }
    }
}

/// Produce the next generation of `base`. The original pages keep their
/// oids and links; new pages carry a `gen{n}` URL component.
pub fn evolve(base: &WebGraph, generation: u32, cfg: &EvolutionConfig) -> WebGraph {
    let mut rng = SmallRng::seed_from_u64(cfg.seed ^ (generation as u64) << 17);
    let taxonomy = base.taxonomy().clone();
    let lexicon = base.lexicon().clone();
    let mut pages: Vec<SimPage> = base.pages().to_vec();

    // --- new content pages per topic ---
    let mut new_by_topic: Vec<(ClassId, Vec<Oid>)> = Vec::new();
    for topic in taxonomy
        .all()
        .filter(|&c| c != ClassId::ROOT)
        .collect::<Vec<_>>()
    {
        let tname = taxonomy.name(topic).replace('/', ".");
        let mut fresh = Vec::new();
        for i in 0..cfg.new_pages_per_topic {
            // Reuse a server already hosting this topic so nepotism and
            // serverload behave as for old pages.
            let server = pages
                .iter()
                .find(|p| p.topic == topic)
                .map(|p| p.server)
                .unwrap_or(focus_types::ServerId(1));
            let url = format!(
                "http://s{}.{}.example/gen{}-page-{}.html",
                server.raw(),
                tname,
                generation,
                i
            );
            let oid = Oid::of_url(&url);
            let len = base.config().doc_len.max(40);
            let terms = lexicon.generate_doc(&taxonomy, topic, len, &mut rng);
            // New pages link back into the old same-topic cluster.
            let old_targets: Vec<Oid> = base
                .pages_of_topic(topic)
                .iter()
                .filter(|_| rng.gen_bool(0.05))
                .copied()
                .take(6)
                .collect();
            pages.push(SimPage {
                oid,
                url,
                server,
                topic,
                terms,
                outlinks: old_targets,
                kind: PageKind::Content,
                failure: FailureMode::None,
            });
            fresh.push(oid);
        }
        new_by_topic.push((topic, fresh));
    }

    // --- existing pages pick up the new resources ---
    for p in pages.iter_mut() {
        let (update_p, n_links) = match p.kind {
            PageKind::Hub => (cfg.hub_update_fraction, cfg.new_links_per_hub),
            PageKind::Content => (cfg.content_update_fraction, 2),
            PageKind::Universal => (0.0, 0),
        };
        if update_p <= 0.0 || !rng.gen_bool(update_p.min(1.0)) {
            continue;
        }
        if let Some((_, fresh)) = new_by_topic.iter().find(|(t, _)| *t == p.topic) {
            for _ in 0..n_links {
                if fresh.is_empty() {
                    break;
                }
                let target = fresh[rng.gen_range(0..fresh.len())];
                if !p.outlinks.contains(&target) {
                    p.outlinks.push(target);
                }
            }
        }
    }

    WebGraph::from_pages(taxonomy, lexicon, base.config().clone(), pages)
}

/// A [`Fetcher`] whose underlying web can be swapped mid-crawl.
pub struct EvolvingFetcher {
    graph: OrderedRwLock<Arc<WebGraph>>,
    fetches: AtomicU64,
}

impl EvolvingFetcher {
    /// Start at generation 0.
    pub fn new(graph: Arc<WebGraph>) -> EvolvingFetcher {
        EvolvingFetcher {
            graph: OrderedRwLock::new(rank::EVOLVE_GRAPH, graph),
            fetches: AtomicU64::new(0),
        }
    }

    /// Replace the web (the next fetch sees the new generation).
    pub fn swap(&self, graph: Arc<WebGraph>) {
        *self.graph.write() = graph;
    }

    /// Current generation.
    pub fn current(&self) -> Arc<WebGraph> {
        Arc::clone(&self.graph.read())
    }
}

impl Fetcher for EvolvingFetcher {
    fn fetch(&self, oid: Oid) -> Result<FetchedPage, FetchError> {
        self.fetches.fetch_add(1, Ordering::Relaxed);
        let graph = self.current();
        let page = graph.page(oid).ok_or(FetchError::NotFound(oid))?;
        match page.failure {
            FailureMode::Dead => Err(FetchError::NotFound(oid)),
            // Evolution crawls don't model flaky timeouts; keep it simple.
            _ => Ok(FetchedPage {
                oid: page.oid,
                url: page.url.clone(),
                server: page.server,
                terms: page.terms.clone(),
                outlinks: page
                    .outlinks
                    .iter()
                    .map(|&o| (o, graph.page(o).map(|p| p.url.clone()).unwrap_or_default()))
                    .collect(),
            }),
        }
    }

    fn fetch_count(&self) -> u64 {
        self.fetches.load(Ordering::Relaxed)
    }

    fn url_of(&self, oid: Oid) -> Option<String> {
        self.current().page(oid).map(|p| p.url.clone())
    }

    fn server_of(&self, oid: Oid) -> Option<ServerId> {
        self.current().page(oid).map(|p| p.server)
    }
}

/// Re-export used by [`evolve`] to rebuild the derived indexes.
impl WebGraph {
    /// Rebuild a graph from an explicit page set (evolution support).
    pub fn from_pages(
        taxonomy: focus_types::Taxonomy,
        lexicon: crate::lexicon::Lexicon,
        cfg: WebConfig,
        pages: Vec<SimPage>,
    ) -> WebGraph {
        WebGraph::assemble(taxonomy, lexicon, cfg, pages)
    }
}

// LexiconConfig is referenced in doc position only; silence the unused
// import lint without hiding genuine mistakes.
#[allow(unused)]
fn _lexicon_cfg_marker(_: LexiconConfig) {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::WebConfig;

    #[test]
    fn evolution_adds_pages_and_hub_links() {
        let base = WebGraph::generate(WebConfig::tiny(3));
        let cfg = EvolutionConfig::default();
        let next = evolve(&base, 1, &cfg);
        let topics = base.taxonomy().len() - 1;
        assert_eq!(next.len(), base.len() + topics * cfg.new_pages_per_topic);
        // Old oids survive with old content.
        for p in base.pages().iter().take(20) {
            assert!(next.page(p.oid).is_some(), "old page lost");
        }
        // Some hub gained outlinks.
        let grew = base
            .pages()
            .iter()
            .filter(|p| p.kind == PageKind::Hub)
            .any(|p| {
                next.page(p.oid)
                    .map(|q| q.outdegree() > p.outdegree())
                    .unwrap_or(false)
            });
        assert!(grew, "no hub picked up new links");
    }

    #[test]
    fn evolution_is_deterministic() {
        let base = WebGraph::generate(WebConfig::tiny(3));
        let a = evolve(&base, 1, &EvolutionConfig::default());
        let b = evolve(&base, 1, &EvolutionConfig::default());
        assert_eq!(a.len(), b.len());
        for (pa, pb) in a.pages().iter().zip(b.pages()) {
            assert_eq!(pa.oid, pb.oid);
            assert_eq!(pa.outlinks, pb.outlinks);
        }
    }

    #[test]
    fn evolving_fetcher_swaps_mid_flight() {
        let base = Arc::new(WebGraph::generate(WebConfig::tiny(9)));
        let fetcher = EvolvingFetcher::new(Arc::clone(&base));
        let hub = base
            .pages()
            .iter()
            .find(|p| p.kind == PageKind::Hub && p.failure == FailureMode::None)
            .expect("hub exists");
        let before = fetcher.fetch(hub.oid).unwrap().outlinks.len();
        let next = Arc::new(evolve(
            &base,
            1,
            &EvolutionConfig {
                hub_update_fraction: 1.0,
                ..EvolutionConfig::default()
            },
        ));
        fetcher.swap(Arc::clone(&next));
        let after = fetcher.fetch(hub.oid).unwrap().outlinks.len();
        assert!(after >= before, "links must not vanish");
        assert_eq!(fetcher.fetch_count(), 2);
        // At least one hub in the whole graph grew (this one may not have).
        let grew = base
            .pages()
            .iter()
            .filter(|p| p.kind == PageKind::Hub)
            .any(|p| {
                next.page(p.oid)
                    .map(|q| q.outdegree() > p.outdegree())
                    .unwrap_or(false)
            });
        assert!(grew);
    }
}

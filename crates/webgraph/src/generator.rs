//! The web generator: topics → servers → pages → links.
//!
//! Link structure encodes the paper's two rules:
//!
//! * **radius-1**: a content page about topic `c` links same-topic with
//!   probability `p_same_topic`, to taxonomic relatives with
//!   `p_related`, to affine topics (cycling → first-aid) with
//!   `p_affinity`, to universal sites with `p_universal`, and uniformly at
//!   random otherwise;
//! * **radius-2**: hub pages carry `outdegree_hub` links of which
//!   `hub_same_topic` fraction hit their topic — so conditioned on one
//!   same-topic link, more follow.
//!
//! Targets within a category are drawn by Pareto popularity weights, giving
//! the power-law indegrees real webs show (and giving the distiller real
//! authorities to find).
//!
//! # One stream, two passes
//!
//! The whole web comes from one `SmallRng` stream seeded by
//! [`WebConfig::seed`], and equal configs give bit-identical webs on any
//! number of cores. Documents are most of the work (about 220 tokens a
//! page), so the page loop runs twice over the same stream:
//!
//! 1. **Locate**, sequentially: each page's draws in stream order (server,
//!    length, failure). For its document it saves the stream's state,
//!    advances the stream through the document's draws without mapping
//!    them to terms (`Lexicon::skip_doc`), and saves the state it ends in.
//! 2. **Realize**, on [`std::thread::available_parallelism`] scoped threads
//!    (inline on one core): each document's terms are drawn again from its
//!    saved start state (`Lexicon::realize_doc`), and its end state must
//!    equal the saved one.
//!
//! The popularity weights and links then draw on from where pass 1 left
//! the stream. Both passes consume the stream through the lexicon's one
//! token loop, so a document takes the same draws whether or not its terms
//! are wanted, and its terms do not depend on which thread draws them.

use crate::lexicon::{Lexicon, LexiconConfig};
use crate::page::{FailureMode, PageKind, SimPage};
use focus_types::hash::FxHashMap;
use focus_types::{ClassId, DocId, Document, Oid, ServerId, Taxonomy, TermVec};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;

/// Generator parameters.
#[derive(Debug, Clone)]
pub struct WebConfig {
    /// RNG seed; equal seeds give identical webs.
    pub seed: u64,
    /// Content pages per (non-root) topic.
    pub pages_per_topic: usize,
    /// Hub pages per topic.
    pub hubs_per_topic: usize,
    /// Servers per topic.
    pub servers_per_topic: usize,
    /// Topic-neutral universal sites.
    pub universal_sites: usize,
    /// Mean document length in tokens.
    pub doc_len: usize,
    /// Mean outdegree of content pages.
    pub outdegree_content: usize,
    /// Outdegree of hub pages.
    pub outdegree_hub: usize,
    /// P(link target shares the source topic) for content pages.
    pub p_same_topic: f64,
    /// P(target is parent/sibling/child topic).
    pub p_related: f64,
    /// P(target is an affine topic) when the source topic has one.
    pub p_affinity: f64,
    /// P(target is a universal site).
    pub p_universal: f64,
    /// Fraction of hub links on the hub's own topic.
    pub hub_same_topic: f64,
    /// Pareto shape for popularity (smaller = heavier tail).
    pub popularity_alpha: f64,
    /// Fraction of permanently dead pages.
    pub dead_rate: f64,
    /// Fraction of timeout-prone pages.
    pub timeout_rate: f64,
    /// Fraction of malformed pages.
    pub malformed_rate: f64,
    /// Cross-topic affinities by topic name, e.g. cycling → first-aid.
    pub affinities: Vec<(String, String)>,
}

impl Default for WebConfig {
    fn default() -> Self {
        WebConfig {
            seed: 42,
            pages_per_topic: 300,
            hubs_per_topic: 8,
            servers_per_topic: 12,
            universal_sites: 25,
            doc_len: 220,
            outdegree_content: 9,
            outdegree_hub: 45,
            p_same_topic: 0.50,
            p_related: 0.14,
            p_affinity: 0.08,
            p_universal: 0.12,
            hub_same_topic: 0.85,
            popularity_alpha: 1.6,
            dead_rate: 0.02,
            timeout_rate: 0.02,
            malformed_rate: 0.01,
            affinities: vec![("recreation/cycling".into(), "health/first-aid".into())],
        }
    }
}

impl WebConfig {
    /// A small config for unit tests and quick benches.
    pub fn tiny(seed: u64) -> WebConfig {
        WebConfig {
            seed,
            pages_per_topic: 60,
            hubs_per_topic: 3,
            servers_per_topic: 4,
            universal_sites: 6,
            doc_len: 120,
            ..WebConfig::default()
        }
    }
}

/// The Yahoo!-like default topic tree (27 topics + root), including every
/// topic the paper's experiments name: cycling, mutual funds, HIV,
/// gardening, plus first-aid for the citation-sociology example.
pub fn default_taxonomy() -> Taxonomy {
    let mut t = Taxonomy::new("root");
    for path in [
        "arts/music",
        "arts/photography",
        "business/investing/mutual-funds",
        "business/investing/stocks",
        "computers/databases",
        "computers/www",
        "health/hiv",
        "health/nutrition",
        "health/first-aid",
        "home/gardening",
        "home/cooking",
        "recreation/cycling",
        "recreation/running",
        "recreation/travel",
        "science/biology",
        "science/physics",
        "sports/soccer",
        "sports/basketball",
    ] {
        t.add_path(path).expect("static taxonomy paths are valid");
    }
    t
}

/// Popularity-weighted sampler over one topic's pages.
struct TopicPages {
    oids: Vec<Oid>,
    cdf: Vec<f64>,
}

impl TopicPages {
    fn sample(&self, rng: &mut SmallRng) -> Option<Oid> {
        if self.oids.is_empty() {
            return None;
        }
        let total = *self.cdf.last().expect("non-empty cdf");
        let u: f64 = rng.gen_range(0.0..total);
        let i = self.cdf.partition_point(|&c| c <= u);
        Some(self.oids[i.min(self.oids.len() - 1)])
    }
}

/// Where one page's document sits in the generator's stream.
struct DocDraws {
    topic: ClassId,
    /// Tokens; 0 for a malformed page.
    len: usize,
    /// The stream as the document's first draw finds it.
    start: SmallRng,
    /// The stream as the document's last draw leaves it.
    end: SmallRng,
}

/// Pass 2: each document's terms, drawn from its saved start state, on
/// `chunks` scoped threads over contiguous runs of `docs` (inline for
/// one). Every document is drawn from its own saved state, so the result
/// does not depend on `chunks`. Panics if a document's draws end anywhere
/// but where pass 1's skip left the stream.
fn realize(
    lexicon: &Lexicon,
    borrowed: &[Vec<ClassId>],
    docs: &[DocDraws],
    chunks: usize,
) -> Vec<TermVec> {
    let run = |docs: &[DocDraws]| -> Vec<TermVec> {
        let mut tally = lexicon.tally();
        docs.iter()
            .map(|d| {
                let mut rng = d.start.clone();
                let borrowed = &borrowed[d.topic.raw() as usize];
                let terms = lexicon.realize_doc(d.topic, borrowed, d.len, &mut rng, &mut tally);
                assert!(
                    rng == d.end,
                    "a document's terms took other draws than its skip"
                );
                terms
            })
            .collect()
    };
    if chunks <= 1 || docs.len() <= 1 {
        return run(docs);
    }
    std::thread::scope(|s| {
        let workers: Vec<_> = docs
            .chunks(docs.len().div_ceil(chunks))
            .map(|part| s.spawn(move || run(part)))
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("a realize thread panicked"))
            .collect()
    })
}

/// The generated web.
pub struct WebGraph {
    taxonomy: Taxonomy,
    lexicon: Lexicon,
    cfg: WebConfig,
    pages: Vec<SimPage>,
    by_oid: FxHashMap<Oid, usize>,
    by_topic: Vec<Vec<Oid>>,
    indegree: FxHashMap<Oid, u32>,
}

impl WebGraph {
    /// Generate a web over [`default_taxonomy`].
    pub fn generate(cfg: WebConfig) -> WebGraph {
        Self::generate_with(default_taxonomy(), LexiconConfig::default(), cfg)
    }

    /// Generate over a custom taxonomy and lexicon.
    pub fn generate_with(taxonomy: Taxonomy, lex_cfg: LexiconConfig, cfg: WebConfig) -> WebGraph {
        let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
        Self::generate_on(taxonomy, lex_cfg, cfg, threads)
    }

    /// [`WebGraph::generate_with`], drawing documents on `threads` threads.
    fn generate_on(
        taxonomy: Taxonomy,
        lex_cfg: LexiconConfig,
        cfg: WebConfig,
        threads: usize,
    ) -> WebGraph {
        let lexicon = Lexicon::new(&taxonomy, lex_cfg);
        let mut rng = SmallRng::seed_from_u64(cfg.seed);
        let topics: Vec<ClassId> = taxonomy.all().filter(|&c| c != ClassId::ROOT).collect();

        // Resolve affinities to class pairs.
        let affinity: FxHashMap<ClassId, ClassId> = cfg
            .affinities
            .iter()
            .filter_map(|(a, b)| Some((taxonomy.find(a)?, taxonomy.find(b)?)))
            .collect();

        // Pass 1 (see the module docs): every draw but the documents'
        // terms, in stream order; each document is only located.
        let borrowed: Vec<Vec<ClassId>> = taxonomy
            .all()
            .map(|c| Lexicon::borrowed_topics(&taxonomy, c))
            .collect();
        let locate = |topic: ClassId, len: usize, rng: &mut SmallRng| {
            let start = rng.clone();
            lexicon.skip_doc(topic, &borrowed[topic.raw() as usize], len, rng);
            DocDraws {
                topic,
                len,
                start,
                end: rng.clone(),
            }
        };
        let mut pages: Vec<SimPage> = Vec::new();
        let mut docs: Vec<DocDraws> = Vec::new();
        let mut next_server: u32 = 0;

        // --- content + hub pages per topic ---
        for &topic in &topics {
            let tname = taxonomy.name(topic).replace('/', ".");
            let servers: Vec<ServerId> = (0..cfg.servers_per_topic)
                .map(|_| {
                    next_server += 1;
                    ServerId(next_server)
                })
                .collect();
            let n = cfg.pages_per_topic + cfg.hubs_per_topic;
            for i in 0..n {
                let is_hub = i >= cfg.pages_per_topic;
                let server = servers[rng.gen_range(0..servers.len())];
                let url = if is_hub {
                    format!(
                        "http://s{}.{}.example/links-{}.html",
                        server.raw(),
                        tname,
                        i
                    )
                } else {
                    format!("http://s{}.{}.example/page-{}.html", server.raw(), tname, i)
                };
                let oid = Oid::of_url(&url);
                let len = (cfg.doc_len / 2 + rng.gen_range(0..cfg.doc_len)).max(20);
                let failure = {
                    let u: f64 = rng.gen();
                    if u < cfg.dead_rate {
                        FailureMode::Dead
                    } else if u < cfg.dead_rate + cfg.timeout_rate {
                        FailureMode::Timeout
                    } else if u < cfg.dead_rate + cfg.timeout_rate + cfg.malformed_rate {
                        FailureMode::Malformed
                    } else {
                        FailureMode::None
                    }
                };
                // A malformed page tokenizes to nothing: no draws.
                let len = if failure == FailureMode::Malformed {
                    0
                } else {
                    len
                };
                docs.push(locate(topic, len, &mut rng));
                pages.push(SimPage {
                    oid,
                    url,
                    server,
                    topic,
                    terms: TermVec::default(),
                    outlinks: Vec::new(),
                    kind: if is_hub {
                        PageKind::Hub
                    } else {
                        PageKind::Content
                    },
                    failure,
                });
            }
        }

        // --- universal sites ---
        for i in 0..cfg.universal_sites {
            next_server += 1;
            let server = ServerId(next_server);
            let url = format!("http://www.universal-{i}.example/index.html");
            let oid = Oid::of_url(&url);
            docs.push(locate(ClassId::ROOT, cfg.doc_len, &mut rng));
            pages.push(SimPage {
                oid,
                url,
                server,
                topic: ClassId::ROOT,
                terms: TermVec::default(),
                outlinks: Vec::new(),
                kind: PageKind::Universal,
                failure: FailureMode::None,
            });
        }

        // Pass 2: the documents' terms, from their saved states.
        for (p, terms) in pages
            .iter_mut()
            .zip(realize(&lexicon, &borrowed, &docs, threads))
        {
            p.terms = terms;
        }
        drop(docs);

        // --- popularity-weighted per-topic samplers ---
        let mut weights: FxHashMap<Oid, f64> = FxHashMap::default();
        for p in &pages {
            // Pareto(α): heavy-tailed popularity.
            let u: f64 = rng.gen_range(1e-9..1.0);
            let mut w = u.powf(-1.0 / cfg.popularity_alpha);
            if p.kind == PageKind::Universal {
                w *= 30.0; // everyone links Netscape
            }
            weights.insert(p.oid, w.min(1e6));
        }
        let num_classes = taxonomy.len();
        let mut by_topic: Vec<Vec<Oid>> = vec![Vec::new(); num_classes];
        for p in &pages {
            by_topic[p.topic.raw() as usize].push(p.oid);
        }
        let samplers: Vec<TopicPages> = by_topic
            .iter()
            .map(|oids| {
                let mut cdf = Vec::with_capacity(oids.len());
                let mut acc = 0.0;
                for o in oids {
                    acc += weights[o];
                    cdf.push(acc);
                }
                TopicPages {
                    oids: oids.clone(),
                    cdf,
                }
            })
            .collect();
        let universal: Vec<Oid> = pages
            .iter()
            .filter(|p| p.kind == PageKind::Universal)
            .map(|p| p.oid)
            .collect();
        let all_sampler = {
            let mut oids = Vec::with_capacity(pages.len());
            let mut cdf = Vec::with_capacity(pages.len());
            let mut acc = 0.0;
            for p in &pages {
                acc += weights[&p.oid];
                oids.push(p.oid);
                cdf.push(acc);
            }
            TopicPages { oids, cdf }
        };

        // --- related-topic pool: parent, siblings, children ---
        let related: Vec<Vec<ClassId>> = (0..num_classes)
            .map(|i| {
                let c = ClassId(i as u16);
                let mut pool = Vec::new();
                if let Some(p) = taxonomy.parent(c) {
                    if p != ClassId::ROOT {
                        pool.push(p);
                    }
                    for &s in taxonomy.children(p) {
                        if s != c {
                            pool.push(s);
                        }
                    }
                }
                pool.extend(taxonomy.children(c).iter().copied());
                pool
            })
            .collect();

        // --- links ---
        let page_meta: Vec<(Oid, ClassId, PageKind)> =
            pages.iter().map(|p| (p.oid, p.topic, p.kind)).collect();
        for (idx, &(oid, topic, kind)) in page_meta.iter().enumerate() {
            let outdeg = match kind {
                PageKind::Hub => cfg.outdegree_hub / 2 + rng.gen_range(0..cfg.outdegree_hub.max(1)),
                PageKind::Universal => rng.gen_range(2..6),
                PageKind::Content => {
                    cfg.outdegree_content / 2 + rng.gen_range(0..cfg.outdegree_content.max(1))
                }
            };
            let mut links = Vec::with_capacity(outdeg);
            for _ in 0..outdeg {
                let target = match kind {
                    PageKind::Universal => all_sampler.sample(&mut rng),
                    PageKind::Hub => {
                        let u: f64 = rng.gen();
                        if u < cfg.hub_same_topic {
                            samplers[topic.raw() as usize].sample(&mut rng)
                        } else if u < cfg.hub_same_topic + 0.08 && !universal.is_empty() {
                            Some(universal[rng.gen_range(0..universal.len())])
                        } else {
                            all_sampler.sample(&mut rng)
                        }
                    }
                    PageKind::Content => {
                        let u: f64 = rng.gen();
                        let aff = affinity.get(&topic).copied();
                        if u < cfg.p_same_topic {
                            samplers[topic.raw() as usize].sample(&mut rng)
                        } else if u < cfg.p_same_topic + cfg.p_related
                            && !related[topic.raw() as usize].is_empty()
                        {
                            let pool = &related[topic.raw() as usize];
                            let rt = pool[rng.gen_range(0..pool.len())];
                            samplers[rt.raw() as usize].sample(&mut rng)
                        } else if let Some(aff) =
                            aff.filter(|_| u < cfg.p_same_topic + cfg.p_related + cfg.p_affinity)
                        {
                            samplers[aff.raw() as usize].sample(&mut rng)
                        } else if u < cfg.p_same_topic
                            + cfg.p_related
                            + cfg.p_affinity
                            + cfg.p_universal
                            && !universal.is_empty()
                        {
                            Some(universal[rng.gen_range(0..universal.len())])
                        } else {
                            all_sampler.sample(&mut rng)
                        }
                    }
                };
                if let Some(t) = target {
                    if t != oid && !links.contains(&t) {
                        links.push(t);
                    }
                }
            }
            pages[idx].outlinks = links;
        }

        Self::assemble(taxonomy, lexicon, cfg, pages)
    }

    /// Build the derived indexes (oid map, per-topic lists, indegrees)
    /// from a final page set. Shared by generation and evolution.
    pub(crate) fn assemble(
        taxonomy: Taxonomy,
        lexicon: Lexicon,
        cfg: WebConfig,
        pages: Vec<SimPage>,
    ) -> WebGraph {
        let by_oid: FxHashMap<Oid, usize> =
            pages.iter().enumerate().map(|(i, p)| (p.oid, i)).collect();
        let mut by_topic: Vec<Vec<Oid>> = vec![Vec::new(); taxonomy.len()];
        for p in &pages {
            by_topic[p.topic.raw() as usize].push(p.oid);
        }
        let mut indegree: FxHashMap<Oid, u32> = FxHashMap::default();
        for p in &pages {
            for &t in &p.outlinks {
                *indegree.entry(t).or_insert(0) += 1;
            }
        }
        WebGraph {
            taxonomy,
            lexicon,
            cfg,
            pages,
            by_oid,
            by_topic,
            indegree,
        }
    }

    /// Number of pages.
    pub fn len(&self) -> usize {
        self.pages.len()
    }

    /// True when the web has no pages.
    pub fn is_empty(&self) -> bool {
        self.pages.is_empty()
    }

    /// All pages.
    pub fn pages(&self) -> &[SimPage] {
        &self.pages
    }

    /// Page by oid.
    pub fn page(&self, oid: Oid) -> Option<&SimPage> {
        self.by_oid.get(&oid).map(|&i| &self.pages[i])
    }

    /// Ground-truth topic of a page.
    pub fn topic_of(&self, oid: Oid) -> Option<ClassId> {
        self.page(oid).map(|p| p.topic)
    }

    /// Pages of one topic.
    pub fn pages_of_topic(&self, topic: ClassId) -> &[Oid] {
        &self.by_topic[topic.raw() as usize]
    }

    /// Indegree of a page.
    pub fn indegree(&self, oid: Oid) -> u32 {
        self.indegree.get(&oid).copied().unwrap_or(0)
    }

    /// The taxonomy.
    pub fn taxonomy(&self) -> &Taxonomy {
        &self.taxonomy
    }

    /// The term model.
    pub fn lexicon(&self) -> &Lexicon {
        &self.lexicon
    }

    /// Generator config.
    pub fn config(&self) -> &WebConfig {
        &self.cfg
    }

    /// Training examples `D(c)`: freshly generated documents per topic —
    /// the "example pages provided manually" of §1.1. Generated (not
    /// sampled from the crawlable web) so train and test never share pages.
    pub fn example_docs(&self, topic: ClassId, n: usize, seed: u64) -> Vec<Document> {
        let mut rng = SmallRng::seed_from_u64(seed ^ (topic.raw() as u64) << 32);
        let borrowed = Lexicon::borrowed_topics(&self.taxonomy, topic);
        let mut tally = self.lexicon.tally();
        let len = self.cfg.doc_len.max(40);
        (0..n)
            .map(|i| {
                let terms = self
                    .lexicon
                    .realize_doc(topic, &borrowed, len, &mut rng, &mut tally);
                Document::new(DocId((topic.raw() as u64) << 32 | i as u64), terms)
            })
            .collect()
    }

    /// BFS shortest link distance from `sources` to every reachable page
    /// (Figure 7 measures distance from the start set to top authorities).
    pub fn shortest_distances(&self, sources: &[Oid]) -> FxHashMap<Oid, u32> {
        let mut dist: FxHashMap<Oid, u32> = FxHashMap::default();
        let mut q = VecDeque::new();
        for &s in sources {
            if self.by_oid.contains_key(&s) && !dist.contains_key(&s) {
                dist.insert(s, 0);
                q.push_back(s);
            }
        }
        while let Some(u) = q.pop_front() {
            let d = dist[&u];
            if let Some(p) = self.page(u) {
                for &v in &p.outlinks {
                    if let std::collections::hash_map::Entry::Vacant(e) = dist.entry(v) {
                        e.insert(d + 1);
                        q.push_back(v);
                    }
                }
            }
        }
        dist
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> WebGraph {
        WebGraph::generate(WebConfig::tiny(7))
    }

    #[test]
    fn generation_is_deterministic() {
        let a = WebGraph::generate(WebConfig::tiny(9));
        let b = WebGraph::generate(WebConfig::tiny(9));
        assert_eq!(a.len(), b.len());
        for (pa, pb) in a.pages().iter().zip(b.pages()) {
            assert_eq!(pa.oid, pb.oid);
            assert_eq!(pa.outlinks, pb.outlinks);
        }
        let c = WebGraph::generate(WebConfig::tiny(10));
        assert_ne!(
            a.pages().iter().map(|p| p.outlinks.len()).sum::<usize>(),
            c.pages().iter().map(|p| p.outlinks.len()).sum::<usize>()
        );
    }

    #[test]
    fn documents_are_the_same_on_any_number_of_threads() {
        let on = |threads| {
            let cfg = WebConfig::tiny(9);
            WebGraph::generate_on(default_taxonomy(), LexiconConfig::default(), cfg, threads)
        };
        let one = on(1);
        for threads in [2, 3, 7] {
            let many = on(threads);
            assert_eq!(one.len(), many.len());
            for (a, b) in one.pages().iter().zip(many.pages()) {
                assert_eq!(
                    (a.oid, &a.url, a.server, a.topic, a.kind, a.failure),
                    (b.oid, &b.url, b.server, b.topic, b.kind, b.failure)
                );
                assert_eq!(a.terms, b.terms, "{} on {threads} threads", a.url);
                assert_eq!(a.outlinks, b.outlinks);
            }
        }
    }

    #[test]
    fn page_counts_match_config() {
        let g = tiny();
        let cfg = g.config();
        let topics = g.taxonomy().len() - 1; // non-root
        let expected = topics * (cfg.pages_per_topic + cfg.hubs_per_topic) + cfg.universal_sites;
        assert_eq!(g.len(), expected);
        // Every topic has pages.
        for c in g.taxonomy().all() {
            if c != ClassId::ROOT {
                assert!(!g.pages_of_topic(c).is_empty(), "topic {c} has no pages");
            }
        }
    }

    #[test]
    fn page_terms_are_canonical_at_construction() {
        // The classifier's compiled merge-join (and the reference path's
        // sorted iteration) rely on page term vectors being canonical —
        // strictly ascending term ids, duplicates merged — *once*, at
        // construction, not re-sorted per node. The generator funnels
        // every page through `TermVec::from_counts`, which guarantees it.
        let g = tiny();
        for p in g.pages() {
            let entries = p.terms.as_slice();
            assert!(
                entries.windows(2).all(|w| w[0].0 < w[1].0),
                "unsorted/duplicated terms in {}",
                p.url
            );
            assert!(
                entries.iter().all(|&(_, c)| c > 0),
                "zero-frequency term survived in {}",
                p.url
            );
        }
    }

    #[test]
    fn oids_unique_and_resolvable() {
        let g = tiny();
        let mut seen = std::collections::HashSet::new();
        for p in g.pages() {
            assert!(seen.insert(p.oid), "duplicate oid for {}", p.url);
            assert_eq!(g.page(p.oid).expect("resolvable").url, p.url);
        }
    }

    #[test]
    fn hubs_concentrate_on_topic() {
        let g = tiny();
        for p in g.pages().iter().filter(|p| p.kind == PageKind::Hub) {
            if p.outlinks.len() < 10 {
                continue;
            }
            let same = p
                .outlinks
                .iter()
                .filter(|&&t| g.topic_of(t) == Some(p.topic))
                .count();
            let frac = same as f64 / p.outlinks.len() as f64;
            assert!(frac > 0.5, "hub {} only {frac:.2} same-topic", p.url);
        }
    }

    #[test]
    fn universal_sites_have_high_indegree() {
        let g = tiny();
        let mut uni: Vec<u32> = g
            .pages()
            .iter()
            .filter(|p| p.kind == PageKind::Universal)
            .map(|p| g.indegree(p.oid))
            .collect();
        uni.sort_unstable();
        let med_uni = uni[uni.len() / 2];
        let mut content: Vec<u32> = g
            .pages()
            .iter()
            .filter(|p| p.kind == PageKind::Content)
            .map(|p| g.indegree(p.oid))
            .collect();
        content.sort_unstable();
        let med_content = content[content.len() / 2];
        assert!(
            med_uni > med_content * 3,
            "universal median {med_uni} vs content {med_content}"
        );
    }

    #[test]
    fn bfs_distances() {
        let g = tiny();
        let start = vec![g.pages()[0].oid];
        let d = g.shortest_distances(&start);
        assert_eq!(d[&start[0]], 0);
        assert!(
            d.len() > 10,
            "web should be well-connected, reached {}",
            d.len()
        );
        // Triangle inequality spot check: all neighbors at distance <= 1.
        for &n in &g.pages()[0].outlinks {
            assert!(d[&n] <= 1);
        }
    }

    #[test]
    fn example_docs_are_topical_and_deterministic() {
        let g = tiny();
        let cycling = g.taxonomy().find("recreation/cycling").unwrap();
        let d1 = g.example_docs(cycling, 5, 3);
        let d2 = g.example_docs(cycling, 5, 3);
        assert_eq!(d1.len(), 5);
        assert_eq!(d1[0].terms, d2[0].terms);
        // Docs contain cycling signature terms.
        let lex = g.lexicon();
        let hits = d1[0]
            .terms
            .iter()
            .filter(|(t, _)| lex.topic_of_term(*t) == Some(cycling))
            .count();
        assert!(hits > 0);
    }

    #[test]
    fn failure_modes_present_but_rare() {
        let g = WebGraph::generate(WebConfig::default());
        let dead = g
            .pages()
            .iter()
            .filter(|p| p.failure == FailureMode::Dead)
            .count();
        let frac = dead as f64 / g.len() as f64;
        assert!(frac > 0.005 && frac < 0.05, "dead fraction {frac}");
    }

    #[test]
    fn default_taxonomy_has_named_topics() {
        let t = default_taxonomy();
        for name in [
            "recreation/cycling",
            "business/investing/mutual-funds",
            "health/hiv",
            "home/gardening",
            "health/first-aid",
        ] {
            assert!(t.find(name).is_some(), "missing {name}");
        }
        t.validate().unwrap();
    }
}

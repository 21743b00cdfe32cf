//! Per-topic multinomial term models (the generative model of §2.1.1,
//! used in reverse: we *generate* documents from θ(c, t)).
//!
//! The vocabulary is split into a Zipf-distributed **background** shared by
//! all topics (stopwords, boilerplate) and per-topic **signature** ranges.
//! A page about topic `c` draws each term from its own signature with
//! probability `sig_weight`, from an ancestor's signature with probability
//! `anc_weight` (topical hierarchy: a mountain-biking page also uses
//! general cycling vocabulary), and from the background otherwise.

use focus_types::{ClassId, Taxonomy, TermId, TermVec};
use rand::rngs::SmallRng;
use rand::Rng;

/// Term-model parameters.
#[derive(Debug, Clone)]
pub struct LexiconConfig {
    /// Background vocabulary size.
    pub background_terms: u32,
    /// Zipf exponent for the background.
    pub zipf_s: f64,
    /// Signature terms per topic.
    pub signature_terms: u32,
    /// Probability a token comes from the topic's own signature.
    pub sig_weight: f64,
    /// Probability a token comes from an ancestor topic's signature.
    pub anc_weight: f64,
}

impl Default for LexiconConfig {
    fn default() -> Self {
        LexiconConfig {
            background_terms: 20_000,
            zipf_s: 1.07,
            signature_terms: 120,
            sig_weight: 0.35,
            anc_weight: 0.12,
        }
    }
}

/// Buckets of the guide table over the background CDF: bucket `k`
/// covers the uniforms in `[k, k + 1) / GUIDE_BUCKETS`.
const GUIDE_BUCKETS: usize = 1 << 14;

/// The term model for one taxonomy.
#[derive(Debug, Clone)]
pub struct Lexicon {
    cfg: LexiconConfig,
    /// Cumulative Zipf distribution over background terms.
    background_cdf: Vec<f64>,
    /// `guide[k]` = the first CDF entry not below `k / GUIDE_BUCKETS`;
    /// `GUIDE_BUCKETS + 1` entries.
    guide: Vec<u32>,
    num_topics: u16,
}

/// One token's draws, before they are mapped to a term id.
#[derive(Clone, Copy)]
enum Draw {
    /// The uniform that picks a background (Zipf) rank.
    Background(f64),
    /// The topic whose signature the token uses, and the uniform that
    /// picks the term within it.
    Signature(ClassId, f64),
}

impl Lexicon {
    /// Build the model for `taxonomy`.
    pub fn new(taxonomy: &Taxonomy, cfg: LexiconConfig) -> Lexicon {
        let n = cfg.background_terms as usize;
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for i in 1..=n {
            acc += 1.0 / (i as f64).powf(cfg.zipf_s);
            cdf.push(acc);
        }
        let total = acc;
        for c in &mut cdf {
            *c /= total;
        }
        let guide = (0..=GUIDE_BUCKETS)
            .map(|k| cdf.partition_point(|&c| c < k as f64 / GUIDE_BUCKETS as f64) as u32)
            .collect();
        Lexicon {
            cfg,
            background_cdf: cdf,
            guide,
            num_topics: taxonomy.len() as u16,
        }
    }

    /// The `j`-th signature term of `topic`. Signature ranges are disjoint
    /// from the background and from each other.
    pub fn signature_term(&self, topic: ClassId, j: u32) -> TermId {
        debug_assert!(j < self.cfg.signature_terms);
        debug_assert!(topic.raw() < self.num_topics);
        TermId(self.cfg.background_terms + topic.raw() as u32 * self.cfg.signature_terms + j)
    }

    /// Which topic (if any) owns `term` as a signature term.
    pub fn topic_of_term(&self, term: TermId) -> Option<ClassId> {
        let t = term.raw();
        if t < self.cfg.background_terms {
            return None;
        }
        let idx = (t - self.cfg.background_terms) / self.cfg.signature_terms;
        if idx < self.num_topics as u32 {
            Some(ClassId(idx as u16))
        } else {
            None
        }
    }

    /// The first few signature terms double as the topic's "name keywords"
    /// (what a user would type into AltaVista: `cycl* bicycl* bike`).
    pub fn keyword_terms(&self, topic: ClassId, k: usize) -> Vec<TermId> {
        (0..k.min(self.cfg.signature_terms as usize) as u32)
            .map(|j| self.signature_term(topic, j))
            .collect()
    }

    /// The Zipf rank a uniform `u ∈ [0, 1)` picks: exactly
    /// `background_cdf.partition_point(|c| c < u)`, found by a binary
    /// search over the one guide bucket `u` falls in. `u * GUIDE_BUCKETS`
    /// scales by a power of two, so it is exact and the bucket's bounds
    /// bracket `u` exactly.
    fn background_rank(&self, u: f64) -> usize {
        let k = (u * GUIDE_BUCKETS as f64) as usize;
        let (lo, hi) = (self.guide[k] as usize, self.guide[k + 1] as usize);
        lo + self.background_cdf[lo..hi].partition_point(|&c| c < u)
    }

    /// The term a token's draw maps to.
    fn term(&self, draw: Draw) -> u32 {
        match draw {
            Draw::Background(u) => {
                self.background_rank(u).min(self.background_cdf.len() - 1) as u32
            }
            Draw::Signature(topic, u) => {
                // Within a signature, weight terms geometrically so some
                // signature terms are much more frequent than others (like
                // real topic words): j = floor(-ln(1-u) * m / 4), clamped.
                let m = self.cfg.signature_terms;
                let j = ((-(1.0 - u).ln()) * m as f64 / 4.0) as u32;
                self.signature_term(topic, j.min(m - 1)).raw()
            }
        }
    }

    /// The one token loop: draws `len` tokens of a document about `topic`
    /// from `rng` and hands each token's draw to `emit`. Every document
    /// consumes the stream here, whether its terms are wanted
    /// ([`Lexicon::realize_doc`]) or only its draws ([`Lexicon::skip_doc`]),
    /// so the two cannot disagree on how many draws a document takes.
    /// `borrowed` is [`Lexicon::borrowed_topics`] of `topic`.
    fn draw_tokens(
        &self,
        topic: ClassId,
        borrowed: &[ClassId],
        len: usize,
        rng: &mut SmallRng,
        mut emit: impl FnMut(Draw),
    ) {
        let own = topic != ClassId::ROOT;
        let sig = self.cfg.sig_weight;
        let sig_or_anc = self.cfg.sig_weight + self.cfg.anc_weight;
        for _ in 0..len {
            let u: f64 = rng.gen();
            let draw = if u < sig && own {
                Draw::Signature(topic, rng.gen())
            } else if u < sig_or_anc && !borrowed.is_empty() {
                let anc = borrowed[rng.gen_range(0..borrowed.len())];
                Draw::Signature(anc, rng.gen())
            } else {
                Draw::Background(rng.gen())
            };
            emit(draw);
        }
    }

    /// The topics whose signatures a document about `topic` borrows from:
    /// its ancestors other than the root.
    pub(crate) fn borrowed_topics(taxonomy: &Taxonomy, topic: ClassId) -> Vec<ClassId> {
        let mut anc = taxonomy.ancestors(topic);
        anc.retain(|&a| a != ClassId::ROOT);
        anc
    }

    /// Advance `rng` past a document's draws without mapping them to terms.
    pub(crate) fn skip_doc(
        &self,
        topic: ClassId,
        borrowed: &[ClassId],
        len: usize,
        rng: &mut SmallRng,
    ) {
        self.draw_tokens(topic, borrowed, len, rng, |_| {});
    }

    /// Scratch for [`Lexicon::realize_doc`], sized to this vocabulary.
    pub(crate) fn tally(&self) -> Tally {
        let vocab = self.cfg.background_terms as usize
            + self.num_topics as usize * self.cfg.signature_terms as usize;
        Tally {
            counts: vec![0; vocab],
            seen: vec![0; vocab.div_ceil(64)],
        }
    }

    /// Draw a document and count its terms.
    pub(crate) fn realize_doc(
        &self,
        topic: ClassId,
        borrowed: &[ClassId],
        len: usize,
        rng: &mut SmallRng,
        tally: &mut Tally,
    ) -> TermVec {
        self.draw_tokens(topic, borrowed, len, rng, |d| tally.count(self.term(d)));
        tally.drain()
    }

    /// Generate a document of length `len` about `topic` (the Bernoulli /
    /// multinomial model: each term drawn i.i.d. from θ(topic, ·)).
    pub fn generate_doc(
        &self,
        taxonomy: &Taxonomy,
        topic: ClassId,
        len: usize,
        rng: &mut SmallRng,
    ) -> TermVec {
        let borrowed = Self::borrowed_topics(taxonomy, topic);
        self.realize_doc(topic, &borrowed, len, rng, &mut self.tally())
    }

    /// Configuration in use.
    pub fn config(&self) -> &LexiconConfig {
        &self.cfg
    }
}

/// Counts one document's term ids at a time: a count per vocabulary id,
/// and a bitmap of the ids counted, which [`Tally::drain`] walks to emit
/// them in ascending order. Kept across documents, so a document costs
/// no sort and no allocation but its `TermVec`.
pub(crate) struct Tally {
    counts: Vec<u32>,
    seen: Vec<u64>,
}

impl Tally {
    #[inline]
    fn count(&mut self, id: u32) {
        let id = id as usize;
        self.seen[id / 64] |= 1 << (id % 64);
        self.counts[id] += 1;
    }

    /// The counted terms as a canonical `TermVec`, allocated to fit (the
    /// generated web's terms are most of its memory); leaves the tally
    /// empty.
    fn drain(&mut self) -> TermVec {
        let distinct = self.seen.iter().map(|w| w.count_ones() as usize).sum();
        let mut entries = Vec::with_capacity(distinct);
        for (w, word) in self.seen.iter_mut().enumerate() {
            let mut bits = std::mem::take(word);
            while bits != 0 {
                let id = w * 64 + bits.trailing_zeros() as usize;
                entries.push((TermId(id as u32), std::mem::take(&mut self.counts[id])));
                bits &= bits - 1;
            }
        }
        TermVec::from_counts(entries)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use focus_types::Taxonomy;
    use rand::SeedableRng;

    fn setup() -> (Taxonomy, Lexicon) {
        let mut t = Taxonomy::new("root");
        let rec = t.add_child(ClassId::ROOT, "recreation").unwrap();
        t.add_child(rec, "recreation/cycling").unwrap();
        t.add_child(ClassId::ROOT, "business").unwrap();
        let lex = Lexicon::new(&t, LexiconConfig::default());
        (t, lex)
    }

    #[test]
    fn signature_ranges_are_disjoint() {
        let (_t, lex) = setup();
        let a = lex.signature_term(ClassId(1), 0);
        let b = lex.signature_term(ClassId(2), 0);
        assert_ne!(a, b);
        assert_eq!(lex.topic_of_term(a), Some(ClassId(1)));
        assert_eq!(lex.topic_of_term(b), Some(ClassId(2)));
        assert_eq!(lex.topic_of_term(TermId(5)), None, "background term");
    }

    #[test]
    fn documents_prefer_their_topic_signature() {
        let (t, lex) = setup();
        let mut rng = SmallRng::seed_from_u64(7);
        let cycling = ClassId(2);
        let business = ClassId(3);
        let doc = lex.generate_doc(&t, cycling, 400, &mut rng);
        let count_for = |topic: ClassId| -> u64 {
            doc.iter()
                .filter(|(term, _)| lex.topic_of_term(*term) == Some(topic))
                .map(|(_, c)| c as u64)
                .sum()
        };
        let own = count_for(cycling);
        let other = count_for(business);
        assert!(own > 50, "own-signature mass too low: {own}");
        assert_eq!(other, 0, "no business terms in a cycling doc");
        // Ancestor (recreation) terms present but rarer than own.
        let anc = count_for(ClassId(1));
        assert!(anc > 0 && anc < own, "ancestor mass {anc} vs own {own}");
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let (t, lex) = setup();
        let d1 = lex.generate_doc(&t, ClassId(2), 100, &mut SmallRng::seed_from_u64(5));
        let d2 = lex.generate_doc(&t, ClassId(2), 100, &mut SmallRng::seed_from_u64(5));
        let d3 = lex.generate_doc(&t, ClassId(2), 100, &mut SmallRng::seed_from_u64(6));
        assert_eq!(d1, d2);
        assert_ne!(d1, d3);
    }

    #[test]
    fn background_is_zipfian() {
        let (t, lex) = setup();
        let mut rng = SmallRng::seed_from_u64(11);
        // Generate root-topic docs: pure background.
        let doc = lex.generate_doc(&t, ClassId::ROOT, 20_000, &mut rng);
        // The most frequent background term should dominate the tail.
        let max = doc.iter().map(|(_, c)| c).max().unwrap();
        assert!(max > 100, "head of Zipf too flat: {max}");
        assert!(
            doc.num_terms() > 1000,
            "tail too short: {}",
            doc.num_terms()
        );
    }

    #[test]
    fn the_guide_table_finds_what_a_plain_binary_search_finds() {
        let (_t, lex) = setup();
        let cdf = &lex.background_cdf;
        let mut us = vec![0.0, 1.0f64.next_down()];
        // Every CDF entry and its neighbouring doubles, where `c < u`
        // flips; every bucket bound and its neighbours, where the guide's
        // lookup changes bucket.
        let bounds = (0..=GUIDE_BUCKETS).map(|k| k as f64 / GUIDE_BUCKETS as f64);
        for c in cdf.iter().copied().chain(bounds) {
            us.extend([c.next_down(), c, c.next_up()]);
        }
        let mut rng = SmallRng::seed_from_u64(17);
        us.extend((0..200_000).map(|_| rng.gen::<f64>()));
        for u in us.into_iter().filter(|u| (0.0..1.0).contains(u)) {
            assert_eq!(
                lex.background_rank(u),
                cdf.partition_point(|&c| c < u),
                "u = {u:e}"
            );
        }
    }

    #[test]
    fn keyword_terms_prefix_of_signature() {
        let (_t, lex) = setup();
        let kw = lex.keyword_terms(ClassId(2), 3);
        assert_eq!(kw.len(), 3);
        assert_eq!(kw[0], lex.signature_term(ClassId(2), 0));
    }
}

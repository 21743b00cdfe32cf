//! Training: the "setup stage" of §2.1.1.
//!
//! Three steps per internal node `c0`, exactly as the paper lays out:
//!
//! 1. **Feature selection** — pick `F(c0)`, the terms that best
//!    discriminate among `c0`'s subtrees (we score by a per-term
//!    KL-divergence contribution between each child's term rate and the
//!    pooled rate; the paper defers to [Chakrabarti et al., VLDB J. 1998]);
//! 2. **Parameter estimation** — Eq. (1) with Laplace smoothing, keeping
//!    only non-zero counts so sparseness is preserved;
//! 3. **Index construction** — for the in-database exhibits only, done by
//!    `focus_eval::tables`.

use crate::model::{NodeModel, TrainedModel};
use focus_types::hash::FxHashMap;
use focus_types::{ClassId, Document, Taxonomy, TermId};

/// Training knobs.
#[derive(Debug, Clone)]
pub struct TrainConfig {
    /// Maximum |F(c0)| per internal node.
    pub max_features: usize,
    /// Drop terms seen fewer than this many times under `c0`.
    pub min_term_count: u64,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            max_features: 4000,
            min_term_count: 2,
        }
    }
}

/// Train a hierarchical model from `(topic, document)` examples.
/// A document with topic `c` is a training example for every ancestor
/// node's decision (it belongs to the child subtree containing `c`).
pub fn train(
    taxonomy: &Taxonomy,
    examples: &[(ClassId, Document)],
    cfg: &TrainConfig,
) -> TrainedModel {
    let mut nodes: FxHashMap<ClassId, NodeModel> = FxHashMap::default();
    for c0 in taxonomy.internal_nodes() {
        if let Some(node) = train_node(taxonomy, examples, c0, cfg) {
            nodes.insert(c0, node);
        }
    }
    TrainedModel {
        taxonomy: taxonomy.clone(),
        nodes,
    }
}

/// Which child subtree of `c0` contains `topic` (None if outside `c0`).
fn child_subtree_of(taxonomy: &Taxonomy, c0: ClassId, topic: ClassId) -> Option<ClassId> {
    let mut cur = topic;
    loop {
        let parent = taxonomy.parent(cur)?;
        if parent == c0 {
            return Some(cur);
        }
        cur = parent;
    }
}

fn train_node(
    taxonomy: &Taxonomy,
    examples: &[(ClassId, Document)],
    c0: ClassId,
    cfg: &TrainConfig,
) -> Option<NodeModel> {
    let kids = taxonomy.children(c0);
    if kids.is_empty() {
        return None;
    }
    // Aggregate per-child term counts over subtree documents.
    let mut counts: FxHashMap<ClassId, FxHashMap<TermId, u64>> = FxHashMap::default();
    let mut tokens: FxHashMap<ClassId, u64> = FxHashMap::default();
    let mut docs: FxHashMap<ClassId, u64> = FxHashMap::default();
    let mut vocab: std::collections::HashSet<TermId> = std::collections::HashSet::new();
    let mut total_docs = 0u64;
    for (topic, doc) in examples {
        let Some(ci) = child_subtree_of(taxonomy, c0, *topic) else {
            continue;
        };
        total_docs += 1;
        *docs.entry(ci).or_insert(0) += 1;
        let ctr = counts.entry(ci).or_default();
        let tok = tokens.entry(ci).or_insert(0);
        for (t, f) in doc.terms.iter() {
            *ctr.entry(t).or_insert(0) += f as u64;
            *tok += f as u64;
            vocab.insert(t);
        }
    }
    if total_docs == 0 {
        return None;
    }

    // ---- feature selection ----
    // Pooled and per-child rates; score(t) = Σ_ci P(ci)·p_ci(t)·ln(p_ci/p̄).
    let grand_tokens: u64 = tokens.values().sum();
    let mut term_totals: FxHashMap<TermId, u64> = FxHashMap::default();
    for ctr in counts.values() {
        for (&t, &n) in ctr {
            *term_totals.entry(t).or_insert(0) += n;
        }
    }
    let mut scored: Vec<(f64, TermId)> = Vec::with_capacity(term_totals.len());
    for (&t, &total) in &term_totals {
        if total < cfg.min_term_count {
            continue;
        }
        let p_bar = total as f64 / grand_tokens.max(1) as f64;
        let mut score = 0.0;
        for &ci in kids {
            let n_ci = counts
                .get(&ci)
                .and_then(|c| c.get(&t))
                .copied()
                .unwrap_or(0);
            let tok_ci = tokens.get(&ci).copied().unwrap_or(0);
            if n_ci == 0 || tok_ci == 0 {
                continue;
            }
            let p_ci = n_ci as f64 / tok_ci as f64;
            let w = docs.get(&ci).copied().unwrap_or(0) as f64 / total_docs as f64;
            score += w * p_ci * (p_ci / p_bar).ln();
        }
        if score.is_finite() && score > 0.0 {
            scored.push((score, t));
        }
    }
    scored.sort_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));
    scored.truncate(cfg.max_features);

    // ---- parameter estimation (Eq. 1) ----
    // denom(ci) = |vocab(c0)| + Σ_d Σ_t n(d,t) over D(ci).
    let vocab_size = vocab.len() as f64;
    let mut child_logdenom = FxHashMap::default();
    let mut child_logprior = FxHashMap::default();
    for &ci in kids {
        let denom = vocab_size + tokens.get(&ci).copied().unwrap_or(0) as f64;
        child_logdenom.insert(ci, denom.ln());
        // Smoothed prior so childless topics never hit -inf.
        let prior = (docs.get(&ci).copied().unwrap_or(0) as f64 + 0.5)
            / (total_docs as f64 + 0.5 * kids.len() as f64);
        child_logprior.insert(ci, prior.ln());
    }
    let mut features: FxHashMap<TermId, Vec<(ClassId, f64)>> = FxHashMap::default();
    // In `scored` order, so the model — and the `STAT` rows loaded from
    // it — come out the same on every build.
    for &(_, t) in &scored {
        let mut recs = Vec::new();
        for &ci in kids {
            let n = counts
                .get(&ci)
                .and_then(|c| c.get(&t))
                .copied()
                .unwrap_or(0);
            if n > 0 {
                let logtheta = (1.0 + n as f64).ln() - child_logdenom[&ci];
                recs.push((ci, logtheta));
            }
        }
        if !recs.is_empty() {
            features.insert(t, recs);
        }
    }
    Some(NodeModel {
        c0,
        features,
        child_logdenom,
        child_logprior,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use focus_types::{DocId, TermVec};

    /// root → {sport, finance}; sport → {cycling, soccer}.
    fn taxonomy() -> Taxonomy {
        let mut t = Taxonomy::new("root");
        let sport = t.add_child(ClassId::ROOT, "sport").unwrap();
        t.add_child(sport, "sport/cycling").unwrap();
        t.add_child(sport, "sport/soccer").unwrap();
        t.add_child(ClassId::ROOT, "finance").unwrap();
        t
    }

    fn doc(id: u64, terms: &[(u32, u32)]) -> Document {
        Document::new(
            DocId(id),
            TermVec::from_counts(terms.iter().map(|&(t, f)| (TermId(t), f))),
        )
    }

    fn examples() -> Vec<(ClassId, Document)> {
        // cycling(2): term 10; soccer(3): term 20; finance(4): term 30.
        // Shared background term 1 everywhere.
        let mut out = Vec::new();
        for i in 0..10u64 {
            out.push((ClassId(2), doc(i, &[(10, 5), (1, 3)])));
            out.push((ClassId(3), doc(100 + i, &[(20, 5), (1, 3)])));
            out.push((ClassId(4), doc(200 + i, &[(30, 5), (1, 3)])));
        }
        out
    }

    #[test]
    fn trains_every_internal_node() {
        let t = taxonomy();
        let m = train(&t, &examples(), &TrainConfig::default());
        assert!(m.nodes.contains_key(&ClassId::ROOT));
        assert!(m.nodes.contains_key(&ClassId(1)), "sport is internal");
        assert_eq!(m.num_nodes(), 2);
    }

    #[test]
    fn classification_recovers_topics() {
        let t = taxonomy();
        let m = train(&t, &examples(), &TrainConfig::default());
        let (leaf, p) = m.classify_leaf(&TermVec::from_counts([(TermId(10), 4)]));
        assert_eq!(leaf, ClassId(2), "cycling");
        assert!(p > 0.5, "confidence {p}");
        let (leaf, _) = m.classify_leaf(&TermVec::from_counts([(TermId(30), 4)]));
        assert_eq!(leaf, ClassId(4), "finance");
    }

    #[test]
    fn hierarchical_evaluation_and_soft_relevance() {
        let mut t = taxonomy();
        t.mark_good(ClassId(2)).unwrap(); // cycling good
        let m = train(&t, &examples(), &TrainConfig::default());
        let r_cyc = m
            .evaluate(&TermVec::from_counts([(TermId(10), 4)]))
            .relevance;
        let r_soc = m
            .evaluate(&TermVec::from_counts([(TermId(20), 4)]))
            .relevance;
        let r_fin = m
            .evaluate(&TermVec::from_counts([(TermId(30), 4)]))
            .relevance;
        assert!(r_cyc > 0.8, "cycling doc R = {r_cyc}");
        assert!(r_soc < 0.3, "soccer doc R = {r_soc}");
        assert!(r_fin < 0.2, "finance doc R = {r_fin}");
        // Soccer is *closer* (shares the sport parent's path) than finance
        // in the soft-focus sense? Not necessarily in R, but Pr[sport|d]
        // should be high for both sporty docs.
    }

    #[test]
    fn background_terms_not_selected_as_features() {
        let t = taxonomy();
        let m = train(
            &t,
            &examples(),
            &TrainConfig {
                max_features: 2,
                min_term_count: 1,
            },
        );
        let root = &m.nodes[&ClassId::ROOT];
        // With max 2 features, the uniform background term 1 must lose to
        // the discriminative ones.
        assert!(
            !root.features.contains_key(&TermId(1)),
            "background term selected"
        );
    }

    #[test]
    fn sparseness_preserved() {
        let t = taxonomy();
        let m = train(&t, &examples(), &TrainConfig::default());
        let root = &m.nodes[&ClassId::ROOT];
        // Term 10 (cycling) recorded only under the sport subtree child.
        if let Some(recs) = root.features.get(&TermId(10)) {
            assert_eq!(recs.len(), 1);
            assert_eq!(recs[0].0, ClassId(1), "recorded under 'sport'");
        } else {
            panic!("term 10 should be a root feature");
        }
    }

    #[test]
    fn empty_training_set_gives_empty_model() {
        let t = taxonomy();
        let m = train(&t, &[], &TrainConfig::default());
        assert_eq!(m.num_nodes(), 0);
        // Inference still works: returns root with prob 1.
        let (leaf, p) = m.classify_leaf(&TermVec::from_counts([(TermId(10), 1)]));
        assert_eq!(leaf, ClassId::ROOT);
        assert_eq!(p, 1.0);
    }

    #[test]
    fn priors_reflect_class_balance() {
        let t = taxonomy();
        let mut ex = examples();
        // Add many more finance docs.
        for i in 0..30u64 {
            ex.push((ClassId(4), doc(300 + i, &[(30, 5)])));
        }
        let m = train(&t, &ex, &TrainConfig::default());
        let root = &m.nodes[&ClassId::ROOT];
        let p_fin = root.child_logprior[&ClassId(4)];
        let p_sport = root.child_logprior[&ClassId(1)];
        assert!(
            p_fin > p_sport,
            "finance {p_fin} should outweigh sport {p_sport}"
        );
    }
}

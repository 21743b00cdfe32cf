//! Equivalence proptests: the compiled inference engine must agree with
//! the reference `TrainedModel` path on every observable — per-node
//! posteriors, best-leaf choice, hard-focus acceptance, soft-focus
//! relevance, and the bulk batch paths — across random taxonomies,
//! skewed term distributions, empty documents, and documents of only
//! unknown terms.
//!
//! The compiled path is written to be operation-for-operation identical
//! to the reference (same accumulation order, shared `normalize_log`),
//! so the 1e-9 tolerance here has plenty of slack; any layout bug (CSR
//! offsets, child slots, posting order, interning) shows up as a gross
//! mismatch, not a borderline one.

use focus_classifier::compiled::CompiledModel;
use focus_classifier::train::{train, TrainConfig};
use focus_types::{ClassId, DocId, Document, Taxonomy, TermId, TermVec};
use proptest::prelude::*;

/// Random tree + marks + skew salts + raw doc descriptors.
///
/// Each node's parent is a uniformly random earlier node, so the tree is
/// always valid; marks may legitimately fail (nested goods) and are
/// applied best-effort. Term frequencies come from the sampled salt
/// bytes, giving heavily skewed (1..=64×) per-class distributions.
#[allow(clippy::type_complexity)]
fn world_strategy() -> impl Strategy<
    Value = (
        Taxonomy,
        Vec<u16>,             // good-mark attempts
        Vec<u32>,             // frequency salts for training examples
        Vec<Vec<(u32, u32)>>, // raw test docs: (term selector, freq)
    ),
> {
    (2usize..14).prop_flat_map(|n| {
        let parents = proptest::collection::vec(0u16..(n as u16), n - 1);
        let marks = proptest::collection::vec(0u16..(n as u16), 1..4);
        let salts = proptest::collection::vec(1u32..65, 24);
        let docs = proptest::collection::vec(
            proptest::collection::vec((0u32..2000, 1u32..40), 0..12),
            1..6,
        );
        (parents, marks, salts, docs).prop_map(move |(parents, marks, salts, docs)| {
            let mut t = Taxonomy::new("root");
            for (i, p) in parents.iter().enumerate() {
                let parent = ClassId(*p % (i as u16 + 1));
                t.add_child(parent, format!("n{}", i + 1)).expect("valid");
            }
            (t, marks, salts, docs)
        })
    })
}

/// Deterministic per-class signature terms: class `c` owns term ids
/// `c*8 .. c*8+4`, so sibling subtrees share nothing and ancestors see
/// separable children — plus a background term every class emits.
fn signature_terms(c: ClassId) -> [TermId; 4] {
    let base = c.raw() as u32 * 8;
    [
        TermId(base),
        TermId(base + 1),
        TermId(base + 2),
        TermId(base + 3),
    ]
}

const BACKGROUND: TermId = TermId(1_000_000);

fn build_examples(t: &Taxonomy, salts: &[u32]) -> Vec<(ClassId, Document)> {
    let mut out = Vec::new();
    let mut did = 0u64;
    for c in t.all() {
        if c == ClassId::ROOT {
            continue;
        }
        for rep in 0..3u64 {
            let salt = salts[(c.raw() as usize * 3 + rep as usize) % salts.len()];
            let sig = signature_terms(c);
            let mut counts: Vec<(TermId, u32)> = sig
                .iter()
                .enumerate()
                // Skew: the first signature term dominates by the salt
                // factor; tails stay small.
                .map(|(k, &tid)| (tid, if k == 0 { salt } else { 1 + (salt % 3) }))
                .collect();
            counts.push((BACKGROUND, 2));
            out.push((c, Document::new(DocId(did), TermVec::from_counts(counts))));
            did += 1;
        }
    }
    out
}

/// Map a raw `(selector, freq)` doc descriptor onto the world's term
/// space: mostly known signature terms, some unknown ids.
fn build_doc(t: &Taxonomy, raw: &[(u32, u32)]) -> TermVec {
    let n = t.len() as u32;
    TermVec::from_counts(raw.iter().map(|&(sel, freq)| {
        let tid = if sel % 5 == 4 {
            // Unknown term: far outside every signature range.
            TermId(2_000_000 + sel)
        } else {
            let class = ClassId((sel % n) as u16);
            signature_terms(class)[(sel % 4) as usize]
        };
        (tid, freq)
    }))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn compiled_agrees_with_reference((mut t, marks, salts, raw_docs) in world_strategy()) {
        for m in marks {
            // Nested-good attempts legitimately fail; ignore them.
            let _ = t.mark_good(ClassId(m));
        }
        let examples = build_examples(&t, &salts);
        let model = train(&t, &examples, &TrainConfig::default());
        let compiled = CompiledModel::compile(&model);
        let mut scratch = compiled.scratch();

        let mut docs: Vec<TermVec> = raw_docs.iter().map(|r| build_doc(&t, r)).collect();
        // Always exercise the degenerate shapes.
        docs.push(TermVec::default());
        docs.push(TermVec::from_counts([
            (TermId(3_000_000), 7),
            (TermId(3_000_001), 1),
        ]));

        for doc in &docs {
            // Full evaluation: posteriors, relevance, best leaf.
            let want = model.evaluate(doc);
            let got = compiled.evaluate_into(doc, &mut scratch);
            prop_assert_eq!(want.best_leaf, got.best_leaf);
            prop_assert!((want.best_leaf_prob - got.best_leaf_prob).abs() < 1e-9,
                "best_leaf_prob {} vs {}", want.best_leaf_prob, got.best_leaf_prob);
            prop_assert!((want.relevance - got.relevance).abs() < 1e-9,
                "relevance {} vs {}", want.relevance, got.relevance);
            let got_probs = scratch.class_probs().to_vec();
            prop_assert_eq!(want.class_probs.len(), got_probs.len());
            for (&(wc, wp), &(gc, gp)) in want.class_probs.iter().zip(&got_probs) {
                prop_assert_eq!(wc, gc);
                prop_assert!((wp - gp).abs() < 1e-9, "class {}: {} vs {}", wc, wp, gp);
            }

            // Hard-focus radius rule.
            prop_assert_eq!(
                model.hard_focus_accepts(doc),
                compiled.evaluate_into(doc, &mut scratch).hard_accepts
            );

            // Per-node posteriors at every trained internal node.
            for c0 in t.internal_nodes() {
                let Some(nm) = model.node(c0) else { continue };
                let want = nm.posterior(&model.taxonomy, doc);
                let got = compiled.posterior(c0, doc, &mut scratch).to_vec();
                prop_assert_eq!(want.len(), got.len());
                for (&(wc, wp), &(gc, gp)) in want.iter().zip(&got) {
                    prop_assert_eq!(wc, gc);
                    prop_assert!((wp - gp).abs() < 1e-9,
                        "node {} class {}: {} vs {}", c0, wc, wp, gp);
                }
            }
        }
    }
}

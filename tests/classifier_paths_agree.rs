//! Property tests pinning the classifier's four evaluation paths to the
//! same probabilities: in-memory, SingleProbe(SQL), SingleProbe(BLOB),
//! BulkProbe(direct) — and the verbatim Figure 3 SQL.

use focus_classifier::train::{train, TrainConfig};
use focus_eval::bulk_probe::{bulk_posterior, bulk_posterior_sql, bulk_relevance};
use focus_eval::single_probe::{SingleProbeBlob, SingleProbeSql};
use focus_eval::tables::ClassifierTables;
use focus_types::{ClassId, DocId, Document, Taxonomy, TermId, TermVec};
use minirel::Database;
use proptest::prelude::*;

/// A 3-level taxonomy with 2+2 leaves.
fn taxonomy() -> Taxonomy {
    let mut t = Taxonomy::new("root");
    let a = t.add_child(ClassId::ROOT, "a").unwrap();
    t.add_child(a, "a/x").unwrap();
    t.add_child(a, "a/y").unwrap();
    let b = t.add_child(ClassId::ROOT, "b").unwrap();
    t.add_child(b, "b/u").unwrap();
    t.add_child(b, "b/v").unwrap();
    t.mark_good(ClassId(2)).unwrap(); // a/x good
    t
}

/// Training set with distinct signature terms per leaf (10,20,30,40) and
/// shared noise term 1.
fn trained() -> focus_classifier::TrainedModel {
    let t = taxonomy();
    let mut ex = Vec::new();
    for (leaf, term) in [(2u16, 10u32), (3, 20), (5, 30), (6, 40)] {
        for i in 0..8u64 {
            ex.push((
                ClassId(leaf),
                Document::new(
                    DocId(leaf as u64 * 100 + i),
                    TermVec::from_counts([(TermId(term), 4 + (i % 3) as u32), (TermId(1), 2)]),
                ),
            ));
        }
    }
    train(&t, &ex, &TrainConfig::default())
}

fn doc_strategy() -> impl Strategy<Value = TermVec> {
    // Random docs over the known vocabulary plus unknown terms.
    proptest::collection::vec(
        (
            prop_oneof![
                Just(1u32),
                Just(10),
                Just(20),
                Just(30),
                Just(40),
                50..60u32
            ],
            1..6u32,
        ),
        0..8,
    )
    .prop_map(|pairs| TermVec::from_counts(pairs.into_iter().map(|(t, f)| (TermId(t), f))))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn all_paths_agree_on_relevance(docs in proptest::collection::vec(doc_strategy(), 1..5)) {
        let model = trained();
        let mut db = Database::in_memory();
        let tables = ClassifierTables::create_and_load(&mut db, &model).unwrap();
        let batch: Vec<Document> = docs
            .iter()
            .enumerate()
            .map(|(i, terms)| Document::new(DocId(1000 + i as u64), terms.clone()))
            .collect();
        tables.load_documents(&mut db, &batch).unwrap();

        let bulk = bulk_relevance(&mut db, &tables).unwrap();
        let sql = SingleProbeSql { tables: &tables };
        let blob = SingleProbeBlob { tables: &tables };
        for d in &batch {
            let mem = model.evaluate(&d.terms).relevance;
            let s = sql.evaluate(&mut db, &d.terms).unwrap().relevance;
            let b = blob.evaluate(&mut db, &d.terms).unwrap().relevance;
            let k = bulk[&d.id];
            prop_assert!((mem - s).abs() < 1e-9, "mem {mem} vs sql {s}");
            prop_assert!((mem - b).abs() < 1e-9, "mem {mem} vs blob {b}");
            prop_assert!((mem - k).abs() < 1e-9, "mem {mem} vs bulk {k}");
            prop_assert!((0.0..=1.0 + 1e-9).contains(&mem));
        }
    }

    #[test]
    fn figure3_sql_matches_direct_plan(docs in proptest::collection::vec(doc_strategy(), 1..4)) {
        let model = trained();
        let mut db = Database::in_memory();
        let tables = ClassifierTables::create_and_load(&mut db, &model).unwrap();
        let batch: Vec<Document> = docs
            .iter()
            .enumerate()
            .map(|(i, terms)| Document::new(DocId(2000 + i as u64), terms.clone()))
            .collect();
        tables.load_documents(&mut db, &batch).unwrap();
        for c0 in [ClassId::ROOT, ClassId(1), ClassId(4)] {
            let direct = bulk_posterior(&mut db, &tables, c0).unwrap();
            let via_sql = bulk_posterior_sql(&mut db, &tables, c0).unwrap();
            prop_assert_eq!(direct.len(), via_sql.len());
            for (did, ci, p) in &direct {
                let q = via_sql
                    .iter()
                    .find(|(d, c, _)| d == did && c == ci)
                    .map(|(_, _, q)| *q)
                    .expect("row present in SQL result");
                prop_assert!((p - q).abs() < 1e-9, "{did:?}/{ci}: {p} vs {q}");
            }
        }
    }

    #[test]
    fn posteriors_sum_to_one(doc in doc_strategy()) {
        let model = trained();
        for (c0, node) in &model.nodes {
            let post = node.posterior(&model.taxonomy, &doc);
            let sum: f64 = post.iter().map(|&(_, p)| p).sum();
            prop_assert!((sum - 1.0).abs() < 1e-9, "node {c0}: sum {sum}");
            for (_, p) in post {
                prop_assert!((0.0..=1.0 + 1e-12).contains(&p));
            }
        }
    }
}

#[test]
fn relevance_monotone_in_good_set() {
    // Adding a good topic can only increase R(d) (it is a sum of
    // disjoint-class probabilities).
    let mut t = taxonomy();
    let model1 = trained();
    let doc = TermVec::from_counts([(TermId(20), 3), (TermId(1), 1)]);
    let r1 = model1.evaluate(&doc).relevance;
    t.mark_good(ClassId(3)).unwrap(); // also mark a/y good
    let mut model2 = model1.clone();
    model2.taxonomy = t;
    let r2 = model2.evaluate(&doc).relevance;
    assert!(r2 >= r1 - 1e-12, "R must not decrease: {r1} -> {r2}");
    assert!(
        r2 > r1 + 0.1,
        "doc about a/y should gain a lot: {r1} -> {r2}"
    );
}

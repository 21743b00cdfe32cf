//! Batch classification — the Figure 3 `BulkProbe` rewrite.
//!
//! "The whole expression is best rewritten (after some trial and error)
//! using one inner and one left outer join":
//!
//! ```text
//! Σ_{t∈d∩F(c0)∩ci} freq(d,t)(logtheta(ci,t) + logdenom(ci))
//!   − logdenom(ci) · Σ_{t∈d∩F(c0)} freq(d,t)
//! ```
//!
//! Two implementations:
//! * [`bulk_posterior`] — direct operator composition: two external
//!   sorts, then one [`merge_join`] pass that folds the inner join
//!   (PARTIAL) and the feature-term sum (DOCLEN) as it goes, so no joined
//!   row is built; the paper's ODBC/CLI routine, and the fast "CLI" bar
//!   of Figure 8(a);
//! * [`bulk_posterior_sql`] — the Figure 3 SQL text run through the SQL
//!   front-end (fidelity path; tests pin both to equal probabilities).

use crate::tables::ClassifierTables;
use focus_classifier::model::normalize_log;
use focus_types::hash::FxHashMap;
use focus_types::{ClassId, DocId};
use minirel::exec::{external_sort, merge_join, SortKey};
use minirel::{Database, DbResult};

/// `Pr[ci | c0, d]` for every document in the `DOCUMENT` table at once.
/// Returns `(did, ci, prob)` triples, normalized per document.
pub fn bulk_posterior(
    db: &mut Database,
    tables: &ClassifierTables,
    c0: ClassId,
) -> DbResult<Vec<(DocId, ClassId, f64)>> {
    let kids: Vec<ClassId> = tables.taxonomy.children(c0).to_vec();
    if kids.is_empty() {
        return Ok(Vec::new());
    }
    let Some(stat_name) = tables.stat_tables.get(&c0) else {
        return Ok(Vec::new());
    };
    let stat_name = stat_name.clone();
    let budget = db.sort_budget_rows();
    let doc_tid = db.table_id("document")?;
    let stat_tid = db.table_id(&stat_name)?;
    let (pool, catalog) = db.parts_mut();

    // Scan both relations (sequential page reads through the pool) and
    // sort them by tid: DOCUMENT(did, tid, freq) and STAT(kcid, tid,
    // logtheta), both on col 1.
    let docs = catalog.scan_rows(pool, doc_tid, None)?;
    let stats = catalog.scan_rows(pool, stat_tid, None)?;
    let docs = external_sort(pool, docs, &[SortKey::asc(1)], budget)?;
    let stats = external_sort(pool, stats, &[SortKey::asc(1)], budget)?;

    // One merge of DOCUMENT with STAT on tid folds both sums. PARTIAL:
    // freq·(logtheta + logdenom) by (did, kcid), over each run. DOCLEN:
    // Σ freq per did over feature terms, which are exactly the tids with
    // a STAT run.
    let mut lpr1: FxHashMap<(i64, u16), f64> = FxHashMap::default();
    let mut doclen: FxHashMap<i64, f64> = FxHashMap::default();
    let mut dids: Vec<i64> = Vec::new();
    merge_join(&docs, &stats, &[1], &[1], |doc, run| {
        let did = doc[0].as_i64().unwrap_or(0);
        let freq = doc[2].as_i64().unwrap_or(0) as f64;
        let len = doclen.entry(did).or_insert_with(|| {
            dids.push(did);
            0.0
        });
        if !run.is_empty() {
            *len += freq;
        }
        for stat in run {
            let kcid = stat[0].as_i64().unwrap_or(0) as u16;
            let lt = stat[2].as_f64().unwrap_or(0.0);
            let ld = tables.logdenom.get(&ClassId(kcid)).copied().unwrap_or(0.0);
            *lpr1.entry((did, kcid)).or_insert(0.0) += freq * (lt + ld);
        }
    })?;

    // COMPLETE ⟕ PARTIAL: logprior + lpr1 − len·logdenom, then normalize
    // per document.
    let mut out = Vec::with_capacity(dids.len() * kids.len());
    for &did in &dids {
        let len = doclen.get(&did).copied().unwrap_or(0.0);
        let mut logs: Vec<(ClassId, f64)> = kids
            .iter()
            .map(|&ci| {
                let lp = tables
                    .logprior
                    .get(&ci)
                    .copied()
                    .unwrap_or(f64::NEG_INFINITY);
                let ld = tables.logdenom.get(&ci).copied().unwrap_or(0.0);
                let l1 = lpr1.get(&(did, ci.raw())).copied().unwrap_or(0.0);
                (ci, lp + l1 - len * ld)
            })
            .collect();
        normalize_log(&mut logs);
        for (ci, p) in logs {
            out.push((DocId(did as u64), ci, p));
        }
    }
    Ok(out)
}

/// The Figure 3 SQL text, instantiated for `c0` and executed through the
/// SQL front-end. Returns the same `(did, ci, prob)` triples (priors added
/// and normalized on the client, as the paper's caption notes priors and
/// normalization are handled outside the query).
pub fn bulk_posterior_sql(
    db: &mut Database,
    tables: &ClassifierTables,
    c0: ClassId,
) -> DbResult<Vec<(DocId, ClassId, f64)>> {
    let kids: Vec<ClassId> = tables.taxonomy.children(c0).to_vec();
    if kids.is_empty() {
        return Ok(Vec::new());
    }
    let Some(stat) = tables.stat_tables.get(&c0) else {
        return Ok(Vec::new());
    };
    let pcid = c0.raw();
    let sql = format!(
        "with
         partial(did, kcid, lpr1) as
          (select did, taxonomy.kcid, sum(freq * (logtheta + logdenom))
           from {stat}, document, taxonomy
           where taxonomy.pcid = {pcid}
             and {stat}.tid = document.tid
             and {stat}.kcid = taxonomy.kcid
           group by did, taxonomy.kcid),
         doclen(did, len) as
          (select did, sum(freq) from document
           where tid in (select tid from {stat})
           group by did),
         complete(did, kcid, lpr2) as
          (select did, kcid, - len * logdenom
           from doclen, taxonomy where pcid = {pcid})
         select c.did, c.kcid, lpr2 + coalesce(lpr1, 0)
         from complete as c left outer join partial as p
           on c.did = p.did and c.kcid = p.kcid"
    );
    let rs = db.execute(&sql)?;
    // Group rows per did, add priors, normalize.
    let mut per_doc: FxHashMap<i64, Vec<(ClassId, f64)>> = FxHashMap::default();
    let mut order: Vec<i64> = Vec::new();
    // Documents with no feature terms at all produce no DOCLEN/COMPLETE
    // rows; they still get prior-only posteriors (the direct path and the
    // paper's client code handle this outside the query).
    let all_dids = db.execute("select distinct did from document")?;
    for row in &all_dids.rows {
        if let Some(did) = row[0].as_i64() {
            per_doc.entry(did).or_insert_with(|| {
                order.push(did);
                Vec::new()
            });
        }
    }
    for row in &rs.rows {
        let did = row[0].as_i64().unwrap_or(0);
        let kcid = ClassId(row[1].as_i64().unwrap_or(0) as u16);
        let l = row[2].as_f64().unwrap_or(f64::NEG_INFINITY);
        let lp = tables
            .logprior
            .get(&kcid)
            .copied()
            .unwrap_or(f64::NEG_INFINITY);
        per_doc.entry(did).or_default().push((kcid, l + lp));
    }
    let mut out = Vec::new();
    for did in order {
        let mut logs = per_doc.remove(&did).expect("inserted above");
        // Children with no COMPLETE row (no features at all in the doc
        // batch) get prior-only mass.
        for &ci in &kids {
            if !logs.iter().any(|(c, _)| *c == ci) {
                logs.push((
                    ci,
                    tables
                        .logprior
                        .get(&ci)
                        .copied()
                        .unwrap_or(f64::NEG_INFINITY),
                ));
            }
        }
        normalize_log(&mut logs);
        for (ci, p) in logs {
            out.push((DocId(did as u64), ci, p));
        }
    }
    Ok(out)
}

/// Evaluate soft-focus relevance (Eq. 3) for every document in `DOCUMENT`:
/// runs `BulkProbe` at all path nodes in topological order and chains the
/// conditionals. Returns `did → R(d)`.
pub fn bulk_relevance(
    db: &mut Database,
    tables: &ClassifierTables,
) -> DbResult<FxHashMap<DocId, f64>> {
    // abs[(did, class)] = Pr[class | d]
    let mut abs: FxHashMap<(DocId, ClassId), f64> = FxHashMap::default();
    let mut dids: Vec<DocId> = Vec::new();
    for c0 in tables.path_nodes() {
        let post = bulk_posterior(db, tables, c0)?;
        for (did, ci, p) in post {
            let parent = if c0 == ClassId::ROOT {
                if !abs.iter().any(|((d, _), _)| *d == did) && !dids.contains(&did) {
                    dids.push(did);
                }
                1.0
            } else {
                abs.get(&(did, c0)).copied().unwrap_or(0.0)
            };
            abs.insert((did, ci), parent * p);
        }
    }
    let goods = tables.taxonomy.good_set();
    let mut out = FxHashMap::default();
    for did in dids {
        let r = goods
            .iter()
            .map(|&g| abs.get(&(did, g)).copied().unwrap_or(0.0))
            .sum();
        out.insert(did, r);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::single_probe::SingleProbeSql;
    use focus_classifier::train::{train, TrainConfig};
    use focus_types::{Document, Taxonomy, TermId, TermVec};

    fn setup() -> (
        Database,
        ClassifierTables,
        focus_classifier::model::TrainedModel,
        Vec<Document>,
    ) {
        let mut t = Taxonomy::new("root");
        let sport = t.add_child(ClassId::ROOT, "sport").unwrap();
        let cyc = t.add_child(sport, "cycling").unwrap();
        t.add_child(sport, "soccer").unwrap();
        t.add_child(ClassId::ROOT, "finance").unwrap();
        t.mark_good(cyc).unwrap();
        let mut ex = Vec::new();
        for i in 0..10u64 {
            ex.push((
                ClassId(2),
                Document::new(
                    DocId(i),
                    TermVec::from_counts([(TermId(10), 5), (TermId(11), 2), (TermId(2), 2)]),
                ),
            ));
            ex.push((
                ClassId(3),
                Document::new(
                    DocId(50 + i),
                    TermVec::from_counts([(TermId(20), 5), (TermId(2), 2)]),
                ),
            ));
            ex.push((
                ClassId(4),
                Document::new(
                    DocId(100 + i),
                    TermVec::from_counts([(TermId(30), 5), (TermId(2), 2)]),
                ),
            ));
        }
        let model = train(&t, &ex, &TrainConfig::default());
        let mut db = Database::in_memory();
        let tables = ClassifierTables::create_and_load(&mut db, &model).unwrap();
        let batch = vec![
            Document::new(
                DocId(1000),
                TermVec::from_counts([(TermId(10), 3), (TermId(2), 1)]),
            ),
            Document::new(DocId(1001), TermVec::from_counts([(TermId(20), 4)])),
            Document::new(DocId(1002), TermVec::from_counts([(TermId(30), 2)])),
            Document::new(DocId(1003), TermVec::from_counts([(TermId(999), 7)])),
        ];
        tables.load_documents(&mut db, &batch).unwrap();
        (db, tables, model, batch)
    }

    #[test]
    fn direct_bulk_matches_in_memory_model() {
        let (mut db, tables, model, batch) = setup();
        let post = bulk_posterior(&mut db, &tables, ClassId::ROOT).unwrap();
        for doc in &batch {
            let mem = model.nodes[&ClassId::ROOT].posterior(&model.taxonomy, &doc.terms);
            for (mc, mp) in mem {
                let bp = post
                    .iter()
                    .find(|(d, c, _)| *d == doc.id && *c == mc)
                    .map(|(_, _, p)| *p)
                    .expect("bulk row exists");
                assert!(
                    (mp - bp).abs() < 1e-9,
                    "doc {:?} class {mc}: mem {mp} vs bulk {bp}",
                    doc.id
                );
            }
        }
    }

    #[test]
    fn sql_bulk_matches_direct_bulk() {
        let (mut db, tables, _, _) = setup();
        let direct = bulk_posterior(&mut db, &tables, ClassId::ROOT).unwrap();
        let sql = bulk_posterior_sql(&mut db, &tables, ClassId::ROOT).unwrap();
        assert_eq!(direct.len(), sql.len());
        for (did, ci, p) in &direct {
            let q = sql
                .iter()
                .find(|(d, c, _)| d == did && c == ci)
                .map(|(_, _, q)| *q)
                .expect("sql row exists");
            assert!((p - q).abs() < 1e-9, "did {did:?} ci {ci}: {p} vs {q}");
        }
    }

    #[test]
    fn bulk_relevance_matches_single_probe() {
        let (mut db, tables, _, batch) = setup();
        let bulk = bulk_relevance(&mut db, &tables).unwrap();
        let sp = SingleProbeSql { tables: &tables };
        for doc in &batch {
            let single = sp.evaluate(&mut db, &doc.terms).unwrap().relevance;
            let b = bulk[&doc.id];
            assert!(
                (single - b).abs() < 1e-9,
                "doc {:?}: single {single} vs bulk {b}",
                doc.id
            );
        }
    }

    #[test]
    fn relevant_docs_score_high() {
        let (mut db, tables, _, _) = setup();
        let r = bulk_relevance(&mut db, &tables).unwrap();
        assert!(r[&DocId(1000)] > 0.7, "cycling doc: {}", r[&DocId(1000)]);
        assert!(r[&DocId(1001)] < 0.4, "soccer doc: {}", r[&DocId(1001)]);
        assert!(r[&DocId(1002)] < 0.2, "finance doc: {}", r[&DocId(1002)]);
    }

    #[test]
    fn empty_document_table() {
        let (mut db, tables, _, _) = setup();
        db.execute("delete from document").unwrap();
        let post = bulk_posterior(&mut db, &tables, ClassId::ROOT).unwrap();
        assert!(post.is_empty());
        let rel = bulk_relevance(&mut db, &tables).unwrap();
        assert!(rel.is_empty());
    }

    #[test]
    fn bulk_output_is_pinned_bit_for_bit() {
        // FNV-1a over every `(did, ci, prob.to_bits())` at the root, on
        // Figure 8(a)'s `tiny` setup. Agreement to 1e-9 (the other tests)
        // cannot see a float sum taken in another order; this digest can.
        let (mut db, tables, _) = crate::fig8a_classifier::setup(crate::common::Scale::Tiny, 64);
        let post = bulk_posterior(&mut db, &tables, ClassId::ROOT).unwrap();
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for (did, ci, p) in &post {
            let words = [did.0, ci.raw() as u64, p.to_bits()];
            for b in words.iter().flat_map(|w| w.to_le_bytes()) {
                h = (h ^ b as u64).wrapping_mul(0x0100_0000_01b3);
            }
        }
        assert_eq!((post.len(), h), (320, 0xe862_7978_8790_f3ba), "{h:x}");
    }

    #[test]
    fn bulk_runtime_scales_with_output_size_not_probe_count() {
        // Smoke test for the Figure 8(c) claim: output |kids| × |docs|.
        let (mut db, tables, _, _) = setup();
        let post = bulk_posterior(&mut db, &tables, ClassId::ROOT).unwrap();
        // 4 docs × 2 root children.
        assert_eq!(post.len(), 8);
    }
}

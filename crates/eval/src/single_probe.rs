//! Document-at-a-time classification: the `SingleProbe` pseudocode of
//! Figure 2, in its two storage variants.
//!
//! For each term of the test document an index probe retrieves the
//! statistics records. The paper's diagnosis, which Figure 8(a/b)
//! quantifies and we reproduce: *"Even with caching, there is little
//! locality of access … A lot of random I/O results, making the classifier
//! disk-bound."*

use crate::tables::{decode_blob, ClassifierTables};
use focus_classifier::model::{normalize_log, Posterior};
use focus_types::hash::FxHashMap;
use focus_types::{ClassId, TermVec};
use minirel::value::encode_composite_key;
use minirel::{Database, DbError, DbResult, Value};

/// Row-store variant: probes `STAT_<c0>`'s `tid` index; each child's
/// record is a separate row fetch (the "SQL" bar of Figure 8a).
pub struct SingleProbeSql<'t> {
    /// Table handles + cached dimension data.
    pub tables: &'t ClassifierTables,
}

/// Packed variant: probes `BLOB (pcid, tid)`; one row fetch returns every
/// child's record (the "BLOB" bar).
pub struct SingleProbeBlob<'t> {
    /// Table handles + cached dimension data.
    pub tables: &'t ClassifierTables,
}

/// Retrieve `(kcid, logtheta)` records for `(c0, t)` — the PROBE step.
trait ProbeSource {
    fn probe(&self, db: &mut Database, c0: ClassId, t: u32) -> DbResult<Vec<(ClassId, f64)>>;
    fn tables(&self) -> &ClassifierTables;
}

impl ProbeSource for SingleProbeSql<'_> {
    fn probe(&self, db: &mut Database, c0: ClassId, t: u32) -> DbResult<Vec<(ClassId, f64)>> {
        let Some(tname) = self.tables.stat_tables.get(&c0) else {
            return Ok(Vec::new());
        };
        let tid = db.table_id(tname)?;
        let (pool, catalog) = db.parts_mut();
        let idx = catalog
            .find_index(tid, &[1]) // column 1 = tid
            .ok_or_else(|| DbError::Catalog(format!("{tname} lacks tid index")))?;
        let key = encode_composite_key(&[Value::Int(t as i64)]);
        let rids = catalog.table(tid).indexes[idx].btree.lookup(pool, &key)?;
        let mut out = Vec::with_capacity(rids.len());
        for rid in rids {
            let row = catalog.get_row(pool, tid, rid)?;
            let kcid = row[0]
                .as_i64()
                .ok_or_else(|| DbError::Eval("bad kcid".into()))?;
            let lt = row[2]
                .as_f64()
                .ok_or_else(|| DbError::Eval("bad logtheta".into()))?;
            out.push((ClassId(kcid as u16), lt));
        }
        Ok(out)
    }

    fn tables(&self) -> &ClassifierTables {
        self.tables
    }
}

impl ProbeSource for SingleProbeBlob<'_> {
    fn probe(&self, db: &mut Database, c0: ClassId, t: u32) -> DbResult<Vec<(ClassId, f64)>> {
        let tid = db.table_id("blob")?;
        let (pool, catalog) = db.parts_mut();
        let idx = catalog
            .find_index(tid, &[0, 1])
            .ok_or_else(|| DbError::Catalog("blob lacks (pcid, tid) index".into()))?;
        let key = encode_composite_key(&[Value::Int(c0.raw() as i64), Value::Int(t as i64)]);
        let rids = catalog.table(tid).indexes[idx].btree.lookup(pool, &key)?;
        match rids.first() {
            Some(&rid) => {
                let row = catalog.get_row(pool, tid, rid)?;
                let s = row[2]
                    .as_str()
                    .ok_or_else(|| DbError::Eval("blob payload not a string".into()))?;
                Ok(decode_blob(s))
            }
            None => Ok(Vec::new()),
        }
    }

    fn tables(&self) -> &ClassifierTables {
        self.tables
    }
}

/// `Pr[ci | c0, d]` via per-term probes (Figure 2, both variants).
fn posterior_at<P: ProbeSource>(
    src: &P,
    db: &mut Database,
    c0: ClassId,
    doc: &TermVec,
) -> DbResult<Vec<(ClassId, f64)>> {
    let tables = src.tables();
    let kids = tables.taxonomy.children(c0).to_vec();
    if kids.is_empty() {
        return Ok(Vec::new());
    }
    let mut partial: FxHashMap<ClassId, f64> = FxHashMap::default();
    let mut len_f = 0.0f64;
    for (t, freq) in doc.iter() {
        let recs = src.probe(db, c0, t.raw())?;
        if recs.is_empty() {
            continue; // t ∉ F(c0): "skip t"
        }
        len_f += freq as f64;
        for (ci, logtheta) in recs {
            let ld = tables.logdenom.get(&ci).copied().unwrap_or(0.0);
            *partial.entry(ci).or_insert(0.0) += freq as f64 * (logtheta + ld);
        }
    }
    let mut logs: Vec<(ClassId, f64)> = kids
        .iter()
        .map(|&ci| {
            let lp = tables
                .logprior
                .get(&ci)
                .copied()
                .unwrap_or(f64::NEG_INFINITY);
            let ld = tables.logdenom.get(&ci).copied().unwrap_or(0.0);
            (
                ci,
                lp + partial.get(&ci).copied().unwrap_or(0.0) - len_f * ld,
            )
        })
        .collect();
    normalize_log(&mut logs);
    Ok(logs)
}

/// Full evaluation (path nodes chained top-down + best-first leaf descent),
/// shared by both variants.
fn evaluate_with<P: ProbeSource>(src: &P, db: &mut Database, doc: &TermVec) -> DbResult<Posterior> {
    let tables = src.tables();
    let mut abs: FxHashMap<ClassId, f64> = FxHashMap::default();
    abs.insert(ClassId::ROOT, 1.0);
    let mut class_probs = Vec::new();
    for c0 in tables.path_nodes() {
        let parent = abs.get(&c0).copied().unwrap_or(0.0);
        for (ci, p) in posterior_at(src, db, c0, doc)? {
            abs.insert(ci, parent * p);
            class_probs.push((ci, parent * p));
        }
    }
    let relevance = tables
        .taxonomy
        .good_set()
        .iter()
        .map(|c| abs.get(c).copied().unwrap_or(0.0))
        .sum();
    // Best-first descent.
    let mut cur = ClassId::ROOT;
    let mut prob = 1.0;
    loop {
        let post = posterior_at(src, db, cur, doc)?;
        match post.into_iter().max_by(|a, b| a.1.total_cmp(&b.1)) {
            Some((ci, p)) => {
                cur = ci;
                prob *= p;
            }
            None => break,
        }
    }
    Ok(Posterior {
        best_leaf: cur,
        best_leaf_prob: prob,
        relevance,
        class_probs,
    })
}

impl SingleProbeSql<'_> {
    /// `Pr[ci|c0,d]` for the children of `c0`.
    pub fn posterior(
        &self,
        db: &mut Database,
        c0: ClassId,
        doc: &TermVec,
    ) -> DbResult<Vec<(ClassId, f64)>> {
        posterior_at(self, db, c0, doc)
    }

    /// Full hierarchical evaluation of one document.
    pub fn evaluate(&self, db: &mut Database, doc: &TermVec) -> DbResult<Posterior> {
        evaluate_with(self, db, doc)
    }
}

impl SingleProbeBlob<'_> {
    /// `Pr[ci|c0,d]` for the children of `c0`.
    pub fn posterior(
        &self,
        db: &mut Database,
        c0: ClassId,
        doc: &TermVec,
    ) -> DbResult<Vec<(ClassId, f64)>> {
        posterior_at(self, db, c0, doc)
    }

    /// Full hierarchical evaluation of one document.
    pub fn evaluate(&self, db: &mut Database, doc: &TermVec) -> DbResult<Posterior> {
        evaluate_with(self, db, doc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use focus_classifier::train::{train, TrainConfig};
    use focus_types::{DocId, Document, Taxonomy, TermId};

    fn setup() -> (
        Database,
        ClassifierTables,
        focus_classifier::model::TrainedModel,
    ) {
        let mut t = Taxonomy::new("root");
        let sport = t.add_child(ClassId::ROOT, "sport").unwrap();
        let cyc = t.add_child(sport, "cycling").unwrap();
        t.add_child(sport, "soccer").unwrap();
        t.add_child(ClassId::ROOT, "finance").unwrap();
        t.mark_good(cyc).unwrap();
        let mut ex = Vec::new();
        for i in 0..8u64 {
            ex.push((
                ClassId(2),
                Document::new(
                    DocId(i),
                    TermVec::from_counts([(TermId(10), 5), (TermId(2), 2)]),
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
        (db, tables, model)
    }

    #[test]
    fn sql_and_blob_agree_with_in_memory_model() {
        let (mut db, tables, model) = setup();
        let docs = [
            TermVec::from_counts([(TermId(10), 3), (TermId(2), 1)]),
            TermVec::from_counts([(TermId(20), 3)]),
            TermVec::from_counts([(TermId(30), 2), (TermId(2), 2)]),
            TermVec::from_counts([(TermId(999), 4)]), // unknown terms
        ];
        let sql = SingleProbeSql { tables: &tables };
        let blob = SingleProbeBlob { tables: &tables };
        for doc in &docs {
            let mem = model.evaluate(doc);
            let ps = sql.evaluate(&mut db, doc).unwrap();
            let pb = blob.evaluate(&mut db, doc).unwrap();
            assert_eq!(mem.best_leaf, ps.best_leaf);
            assert_eq!(mem.best_leaf, pb.best_leaf);
            assert!(
                (mem.relevance - ps.relevance).abs() < 1e-9,
                "mem {} vs sql {}",
                mem.relevance,
                ps.relevance
            );
            assert!((mem.relevance - pb.relevance).abs() < 1e-9);
        }
    }

    #[test]
    fn classification_is_correct() {
        let (mut db, tables, _) = setup();
        let sql = SingleProbeSql { tables: &tables };
        let p = sql
            .evaluate(&mut db, &TermVec::from_counts([(TermId(10), 4)]))
            .unwrap();
        assert_eq!(p.best_leaf, ClassId(2), "cycling");
        assert!(p.relevance > 0.7);
        let p = sql
            .evaluate(&mut db, &TermVec::from_counts([(TermId(30), 4)]))
            .unwrap();
        assert_eq!(p.best_leaf, ClassId(4), "finance");
        assert!(p.relevance < 0.3);
    }

    #[test]
    fn blob_probe_is_one_lookup_per_term() {
        let (mut db, tables, _) = setup();
        let doc = TermVec::from_counts([(TermId(10), 1), (TermId(20), 1), (TermId(30), 1)]);
        db.reset_io_stats();
        let blob = SingleProbeBlob { tables: &tables };
        blob.posterior(&mut db, ClassId::ROOT, &doc).unwrap();
        let blob_reads = db.io_stats().logical_reads;
        db.reset_io_stats();
        let sql = SingleProbeSql { tables: &tables };
        sql.posterior(&mut db, ClassId::ROOT, &doc).unwrap();
        let sql_reads = db.io_stats().logical_reads;
        assert!(
            sql_reads >= blob_reads,
            "row-store path should touch at least as many pages: sql {sql_reads} vs blob {blob_reads}"
        );
    }

    #[test]
    fn missing_stat_table_is_benign() {
        let (mut db, tables, _) = setup();
        let sql = SingleProbeSql { tables: &tables };
        // A leaf has no stat table; posterior at a leaf is empty.
        let post = sql
            .posterior(
                &mut db,
                ClassId(2),
                &TermVec::from_counts([(TermId(10), 1)]),
            )
            .unwrap();
        assert!(post.is_empty());
    }
}

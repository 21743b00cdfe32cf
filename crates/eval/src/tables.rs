//! Relational persistence of the trained classifier — Figure 1's tables.
//!
//! * `TAXONOMY(pcid, kcid, logprior, logdenom, type, name)`
//! * `STAT_<c0>(kcid, tid, logtheta)` — one table per internal node, B+tree
//!   indexed on `tid` (the row-store statistics the "SQL" classifier path
//!   probes);
//! * `BLOB(pcid, tid, recs)` — the packed map from `(c0, t)` to the set of
//!   `(kcid, logtheta)` records, indexed on `(pcid, tid)` (one probe per
//!   term — the "BLOB" path);
//! * `DOCUMENT(did, tid, freq)` — the test batch (populated at crawl time;
//!   "part of standard keyword indexing anyway").

use focus_classifier::model::TrainedModel;
use focus_types::hash::FxHashMap;
use focus_types::{ClassId, Document, Mark, Taxonomy};
use minirel::{Database, DbResult, Value};

/// Handle to the classifier's tables inside a [`Database`], plus cached
/// small dimension data (the paper keeps TAXONOMY in memory too — it is
/// tiny next to the statistics).
#[derive(Debug, Clone)]
pub struct ClassifierTables {
    /// The topic tree with markings (cached copy).
    pub taxonomy: Taxonomy,
    /// `stat_<c0>` table name per internal node.
    pub stat_tables: FxHashMap<ClassId, String>,
    /// Cached `logprior(ci)`.
    pub logprior: FxHashMap<ClassId, f64>,
    /// Cached `logdenom(ci)`.
    pub logdenom: FxHashMap<ClassId, f64>,
}

/// Encode the packed BLOB payload for one `(c0, t)` key.
fn encode_blob(recs: &[(ClassId, f64)]) -> String {
    let mut s = String::with_capacity(recs.len() * 24);
    for (c, lt) in recs {
        s.push_str(&format!("{}:{:e};", c.raw(), lt));
    }
    s
}

/// Decode a packed BLOB payload.
pub fn decode_blob(s: &str) -> Vec<(ClassId, f64)> {
    s.split(';')
        .filter(|part| !part.is_empty())
        .filter_map(|part| {
            let (c, lt) = part.split_once(':')?;
            Some((ClassId(c.parse().ok()?), lt.parse().ok()?))
        })
        .collect()
}

impl ClassifierTables {
    /// Create all tables and indexes and load `model` into them.
    pub fn create_and_load(db: &mut Database, model: &TrainedModel) -> DbResult<ClassifierTables> {
        let tax = &model.taxonomy;
        db.execute(
            "create table taxonomy (pcid int, kcid int, logprior float, logdenom float, \
             type text, name text)",
        )?;
        db.execute("create index taxonomy_pcid on taxonomy (pcid)")?;
        db.execute("create table blob (pcid int, tid int, recs text)")?;
        db.execute("create index blob_key on blob (pcid, tid)")?;
        db.execute("create table document (did int, tid int, freq int)")?;

        let mut stat_tables = FxHashMap::default();
        let mut logprior = FxHashMap::default();
        let mut logdenom = FxHashMap::default();

        let tax_tid = db.table_id("taxonomy")?;
        let blob_tid = db.table_id("blob")?;

        for (c0, node) in &model.nodes {
            // TAXONOMY rows for this parent's children.
            for &ci in tax.children(*c0) {
                let lp = node
                    .child_logprior
                    .get(&ci)
                    .copied()
                    .unwrap_or(f64::NEG_INFINITY);
                let ld = node.child_logdenom.get(&ci).copied().unwrap_or(0.0);
                logprior.insert(ci, lp);
                logdenom.insert(ci, ld);
                let mark = match tax.mark(ci) {
                    Mark::Good => "good",
                    Mark::Path => "path",
                    Mark::Subsumed => "subsumed",
                    Mark::Null => "null",
                };
                db.insert(
                    tax_tid,
                    vec![
                        Value::Int(c0.raw() as i64),
                        Value::Int(ci.raw() as i64),
                        Value::Float(lp),
                        Value::Float(ld),
                        Value::Str(mark.to_owned()),
                        Value::Str(tax.name(ci).to_owned()),
                    ],
                )?;
            }
            // STAT_<c0> table.
            let tname = format!("stat_{}", c0.raw());
            db.execute(&format!(
                "create table {tname} (kcid int, tid int, logtheta float)"
            ))?;
            db.execute(&format!("create index {tname}_tid on {tname} (tid)"))?;
            let stat_tid = db.table_id(&tname)?;
            for (t, recs) in &node.features {
                for &(ci, lt) in recs {
                    db.insert(
                        stat_tid,
                        vec![
                            Value::Int(ci.raw() as i64),
                            Value::Int(t.raw() as i64),
                            Value::Float(lt),
                        ],
                    )?;
                }
                // BLOB row packs the same records.
                db.insert(
                    blob_tid,
                    vec![
                        Value::Int(c0.raw() as i64),
                        Value::Int(t.raw() as i64),
                        Value::Str(encode_blob(recs)),
                    ],
                )?;
            }
            stat_tables.insert(*c0, tname);
        }
        Ok(ClassifierTables {
            taxonomy: tax.clone(),
            stat_tables,
            logprior,
            logdenom,
        })
    }

    /// Replace the `DOCUMENT` table contents with `docs`. Empty documents
    /// (malformed pages tokenize to nothing) get a sentinel `(did, -1, 0)`
    /// row so every batch member is classifiable — term id -1 can never
    /// match a feature, so such documents receive prior-only posteriors,
    /// identical to the per-document probe paths.
    pub fn load_documents(&self, db: &mut Database, docs: &[Document]) -> DbResult<()> {
        db.execute("delete from document")?;
        let tid = db.table_id("document")?;
        for d in docs {
            if d.terms.is_empty() {
                db.insert(
                    tid,
                    vec![Value::Int(d.id.raw() as i64), Value::Int(-1), Value::Int(0)],
                )?;
                continue;
            }
            for (t, f) in d.terms.iter() {
                db.insert(
                    tid,
                    vec![
                        Value::Int(d.id.raw() as i64),
                        Value::Int(t.raw() as i64),
                        Value::Int(f as i64),
                    ],
                )?;
            }
        }
        Ok(())
    }

    /// Internal nodes that carry statistics.
    pub fn internal_nodes(&self) -> Vec<ClassId> {
        let mut v: Vec<ClassId> = self.stat_tables.keys().copied().collect();
        v.sort_unstable();
        v
    }

    /// Path nodes in topological order (the `BulkProbe` evaluation order).
    pub fn path_nodes(&self) -> Vec<ClassId> {
        self.taxonomy.path_nodes_topological()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use focus_classifier::train::{train, TrainConfig};
    use focus_types::{DocId, TermId, TermVec};

    fn model() -> TrainedModel {
        let mut t = Taxonomy::new("root");
        let a = t.add_child(ClassId::ROOT, "a").unwrap();
        let b = t.add_child(ClassId::ROOT, "b").unwrap();
        t.mark_good(a).unwrap();
        let _ = b;
        let mut ex = Vec::new();
        for i in 0..6u64 {
            ex.push((
                ClassId(1),
                Document::new(
                    DocId(i),
                    TermVec::from_counts([(TermId(10), 4), (TermId(1), 1)]),
                ),
            ));
            ex.push((
                ClassId(2),
                Document::new(
                    DocId(100 + i),
                    TermVec::from_counts([(TermId(20), 4), (TermId(1), 1)]),
                ),
            ));
        }
        train(&t, &ex, &TrainConfig::default())
    }

    #[test]
    fn blob_codec_round_trips() {
        let recs = vec![(ClassId(3), -1.5), (ClassId(9), -0.25)];
        let decoded = decode_blob(&encode_blob(&recs));
        assert_eq!(decoded.len(), 2);
        assert_eq!(decoded[0].0, ClassId(3));
        assert!((decoded[0].1 - -1.5).abs() < 1e-12);
        assert!((decoded[1].1 - -0.25).abs() < 1e-12);
        assert!(decode_blob("").is_empty());
    }

    #[test]
    fn create_and_load_builds_all_tables() {
        let mut db = Database::in_memory();
        let m = model();
        let tables = ClassifierTables::create_and_load(&mut db, &m).unwrap();
        assert_eq!(tables.stat_tables.len(), 1);
        // TAXONOMY has 2 child rows.
        assert_eq!(db.table_len("taxonomy").unwrap(), 2);
        // STAT and BLOB rows exist.
        let stat = &tables.stat_tables[&ClassId::ROOT];
        assert!(db.table_len(stat).unwrap() > 0);
        assert!(db.table_len("blob").unwrap() > 0);
        // Blob rows = distinct feature terms; stat rows >= blob rows.
        assert!(db.table_len(stat).unwrap() >= db.table_len("blob").unwrap());
        // Marks persisted.
        let rs = db
            .execute("select kcid from taxonomy where type = 'good'")
            .unwrap();
        assert_eq!(rs.rows.len(), 1);
        assert_eq!(rs.rows[0][0], Value::Int(1));
    }

    #[test]
    fn document_loading_replaces_contents() {
        let mut db = Database::in_memory();
        let m = model();
        let tables = ClassifierTables::create_and_load(&mut db, &m).unwrap();
        let docs = vec![
            Document::new(DocId(1), TermVec::from_counts([(TermId(10), 2)])),
            Document::new(
                DocId(2),
                TermVec::from_counts([(TermId(20), 1), (TermId(1), 1)]),
            ),
        ];
        tables.load_documents(&mut db, &docs).unwrap();
        assert_eq!(db.table_len("document").unwrap(), 3);
        tables.load_documents(&mut db, &docs[..1]).unwrap();
        assert_eq!(db.table_len("document").unwrap(), 1);
    }

    #[test]
    fn cached_priors_match_model() {
        let mut db = Database::in_memory();
        let m = model();
        let tables = ClassifierTables::create_and_load(&mut db, &m).unwrap();
        let node = &m.nodes[&ClassId::ROOT];
        for (&ci, &lp) in &node.child_logprior {
            assert!((tables.logprior[&ci] - lp).abs() < 1e-12);
        }
    }
}

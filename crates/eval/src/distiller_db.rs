//! Distillation inside the database: the `LINK`, `HUBS`, `AUTH` tables and
//! the two access paths Figure 8(d) compares.
//!
//! The join path is the verbatim Figure 4 SQL (including the
//! `sid_src <> sid_dst` nepotism predicate, the `relevance > ρ` filter
//! against `CRAWL`, and the scalar-subquery normalization). The naive path
//! replays the pre-relational plan against the same tables: sequential
//! edge scan, per-edge index lookups, per-edge score updates — and is
//! instrumented so the harness can report the paper's scan/lookup/update
//! breakdown.

use focus_distiller::{DistillConfig, DistillResult, LinkEdge};
use focus_types::hash::FxHashMap;
use focus_types::Oid;
use minirel::value::encode_composite_key;
use minirel::{Database, DbError, DbResult, Value};
use std::time::{Duration, Instant};

/// Wall-clock breakdown of one naive iteration (Figure 8(d)'s stacked bar).
#[derive(Debug, Clone, Copy, Default)]
pub struct NaiveTiming {
    /// Sequential `LINK` scan.
    pub scan: Duration,
    /// Index lookups on `HUBS`/`AUTH`/`CRAWL`.
    pub lookup: Duration,
    /// Score read-modify-writes.
    pub update: Duration,
}

impl NaiveTiming {
    /// Total time.
    pub fn total(&self) -> Duration {
        self.scan + self.lookup + self.update
    }
}

/// Oids are stored in `int` columns by reinterpreting the u64 bits as i64
/// (lossless round trip).
fn oid_to_i64(o: Oid) -> i64 {
    o.raw() as i64
}

fn i64_to_oid(v: i64) -> Oid {
    Oid(v as u64)
}

/// Create `LINK`, `HUBS`, `AUTH` (+ oid indexes).
pub fn create_tables(db: &mut Database) -> DbResult<()> {
    db.execute(
        "create table link (oid_src int, sid_src int, oid_dst int, sid_dst int, \
         wgt_fwd float, wgt_rev float)",
    )?;
    db.execute("create table hubs (oid int, score float)")?;
    db.execute("create index hubs_oid on hubs (oid)")?;
    db.execute("create table auth (oid int, score float)")?;
    db.execute("create index auth_oid on auth (oid)")?;
    Ok(())
}

/// Replace the `LINK` table contents.
pub fn load_links(db: &mut Database, edges: &[LinkEdge]) -> DbResult<()> {
    db.execute("delete from link")?;
    let tid = db.table_id("link")?;
    for e in edges {
        db.insert(
            tid,
            vec![
                Value::Int(oid_to_i64(e.src)),
                Value::Int(e.sid_src as i64),
                Value::Int(oid_to_i64(e.dst)),
                Value::Int(e.sid_dst as i64),
                Value::Float(e.wgt_fwd),
                Value::Float(e.wgt_rev),
            ],
        )?;
    }
    Ok(())
}

/// Minimal `CRAWL` stand-in for standalone distillation (the full system's
/// crawler owns the real `CRAWL`; the distiller only touches its `oid` and
/// `relevance` columns).
pub fn create_crawl_stub(db: &mut Database, relevance: &FxHashMap<Oid, f64>) -> DbResult<()> {
    db.execute("create table crawl (oid int, relevance float)")?;
    db.execute("create index crawl_oid on crawl (oid)")?;
    let tid = db.table_id("crawl")?;
    for (&o, &r) in relevance {
        db.insert(tid, vec![Value::Int(oid_to_i64(o)), Value::Float(r)])?;
    }
    Ok(())
}

/// Initialize `AUTH` with uniform scores over distinct link targets.
pub fn init_auth_uniform(db: &mut Database) -> DbResult<()> {
    db.execute("delete from auth")?;
    let rs = db.execute("select distinct oid_dst from link")?;
    let n = rs.rows.len().max(1) as f64;
    let tid = db.table_id("auth")?;
    for row in rs.rows {
        let oid = row[0]
            .as_i64()
            .ok_or_else(|| DbError::Eval("bad oid_dst".into()))?;
        db.insert(tid, vec![Value::Int(oid), Value::Float(1.0 / n)])?;
    }
    Ok(())
}

/// One iteration via the Figure 4 SQL (UpdateHubs then UpdateAuth).
pub fn join_iteration(db: &mut Database, cfg: &DistillConfig) -> DbResult<()> {
    let nepotism = if cfg.nepotism_filter {
        "sid_src <> sid_dst and"
    } else {
        ""
    };
    let (fwd, rev) = if cfg.weighted_edges {
        ("score * wgt_fwd", "score * wgt_rev")
    } else {
        ("score", "score")
    };
    db.execute("delete from hubs")?;
    db.execute(&format!(
        "insert into hubs(oid, score)
           (select oid_src, sum({rev})
            from auth, link
            where {nepotism} oid = oid_dst
            group by oid_src)"
    ))?;
    db.execute("update hubs set (score) = score / (select sum(score) from hubs)")?;
    db.execute("delete from auth")?;
    db.execute(&format!(
        "insert into auth(oid, score)
           (select oid_dst, sum({fwd})
            from hubs, link, crawl
            where {nepotism} hubs.oid = oid_src
              and oid_dst = crawl.oid
              and relevance > {rho}
            group by oid_dst)",
        rho = cfg.rho
    ))?;
    db.execute("update auth set (score) = score / (select sum(score) from auth)")?;
    Ok(())
}

/// Index lookup of a score row by oid; returns (rid, score).
fn lookup_score(db: &mut Database, table: &str, oid: i64) -> DbResult<Option<(minirel::Rid, f64)>> {
    let tid = db.table_id(table)?;
    let (pool, catalog) = db.parts_mut();
    let idx = catalog
        .find_index(tid, &[0])
        .ok_or_else(|| DbError::Catalog(format!("{table} lacks oid index")))?;
    let key = encode_composite_key(&[Value::Int(oid)]);
    let rids = catalog.table(tid).indexes[idx].btree.lookup(pool, &key)?;
    match rids.first() {
        Some(&rid) => {
            let row = catalog.get_row(pool, tid, rid)?;
            Ok(Some((rid, row[1].as_f64().unwrap_or(0.0))))
        }
        None => Ok(None),
    }
}

/// One iteration via the naive per-edge plan, instrumented.
pub fn naive_iteration(db: &mut Database, cfg: &DistillConfig) -> DbResult<NaiveTiming> {
    let mut timing = NaiveTiming::default();

    // ---- UpdateHubs ----
    db.execute("delete from hubs")?;
    let t0 = Instant::now();
    let link_tid = db.table_id("link")?;
    let links: Vec<Vec<Value>> = {
        let (pool, catalog) = db.parts_mut();
        catalog.scan_rows(pool, link_tid, None)?
    };
    timing.scan += t0.elapsed();

    let hubs_tid = db.table_id("hubs")?;
    for row in &links {
        let sid_src = row[1].as_i64().unwrap_or(0);
        let sid_dst = row[3].as_i64().unwrap_or(0);
        if cfg.nepotism_filter && sid_src == sid_dst {
            continue;
        }
        let oid_src = row[0].as_i64().unwrap_or(0);
        let oid_dst = row[2].as_i64().unwrap_or(0);
        let wgt_rev = if cfg.weighted_edges {
            row[5].as_f64().unwrap_or(0.0)
        } else {
            1.0
        };
        let t1 = Instant::now();
        let a = lookup_score(db, "auth", oid_dst)?;
        timing.lookup += t1.elapsed();
        let Some((_, a_score)) = a else { continue };
        let t2 = Instant::now();
        let existing = lookup_score(db, "hubs", oid_src)?;
        match existing {
            Some((rid, h)) => {
                let (pool, catalog) = db.parts_mut();
                catalog.update_row(
                    pool,
                    hubs_tid,
                    rid,
                    vec![Value::Int(oid_src), Value::Float(h + a_score * wgt_rev)],
                )?;
            }
            None => {
                db.insert(
                    hubs_tid,
                    vec![Value::Int(oid_src), Value::Float(a_score * wgt_rev)],
                )?;
            }
        }
        timing.update += t2.elapsed();
    }
    let t3 = Instant::now();
    db.execute("update hubs set (score) = score / (select sum(score) from hubs)")?;
    timing.update += t3.elapsed();

    // ---- UpdateAuth ----
    db.execute("delete from auth")?;
    let auth_tid = db.table_id("auth")?;
    for row in &links {
        let sid_src = row[1].as_i64().unwrap_or(0);
        let sid_dst = row[3].as_i64().unwrap_or(0);
        if cfg.nepotism_filter && sid_src == sid_dst {
            continue;
        }
        let oid_src = row[0].as_i64().unwrap_or(0);
        let oid_dst = row[2].as_i64().unwrap_or(0);
        let wgt_fwd = if cfg.weighted_edges {
            row[4].as_f64().unwrap_or(0.0)
        } else {
            1.0
        };
        let t1 = Instant::now();
        let rel = lookup_score(db, "crawl", oid_dst)?;
        timing.lookup += t1.elapsed();
        let rel_v = rel.map_or(0.0, |(_, r)| r);
        if rel_v <= cfg.rho {
            continue;
        }
        let t1 = Instant::now();
        let h = lookup_score(db, "hubs", oid_src)?;
        timing.lookup += t1.elapsed();
        let Some((_, h_score)) = h else { continue };
        let t2 = Instant::now();
        match lookup_score(db, "auth", oid_dst)? {
            Some((rid, a)) => {
                let (pool, catalog) = db.parts_mut();
                catalog.update_row(
                    pool,
                    auth_tid,
                    rid,
                    vec![Value::Int(oid_dst), Value::Float(a + h_score * wgt_fwd)],
                )?;
            }
            None => {
                db.insert(
                    auth_tid,
                    vec![Value::Int(oid_dst), Value::Float(h_score * wgt_fwd)],
                )?;
            }
        }
        timing.update += t2.elapsed();
    }
    let t3 = Instant::now();
    db.execute("update auth set (score) = score / (select sum(score) from auth)")?;
    timing.update += t3.elapsed();
    Ok(timing)
}

/// Full distillation via the join path; returns sorted scores.
pub fn run(db: &mut Database, cfg: &DistillConfig) -> DbResult<DistillResult> {
    init_auth_uniform(db)?;
    for _ in 0..cfg.iterations {
        join_iteration(db, cfg)?;
    }
    read_result(db)
}

/// Full distillation via the naive path (same semantics, different plan).
pub fn run_naive(db: &mut Database, cfg: &DistillConfig) -> DbResult<(DistillResult, NaiveTiming)> {
    init_auth_uniform(db)?;
    let mut total = NaiveTiming::default();
    for _ in 0..cfg.iterations {
        let t = naive_iteration(db, cfg)?;
        total.scan += t.scan;
        total.lookup += t.lookup;
        total.update += t.update;
    }
    Ok((read_result(db)?, total))
}

/// Read back `HUBS`/`AUTH` sorted by score descending.
pub fn read_result(db: &mut Database) -> DbResult<DistillResult> {
    let to_vec = |rs: minirel::ResultSet| -> Vec<(Oid, f64)> {
        rs.rows
            .into_iter()
            .map(|r| {
                (
                    i64_to_oid(r[0].as_i64().unwrap_or(0)),
                    r[1].as_f64().unwrap_or(0.0),
                )
            })
            .collect()
    };
    let hubs = to_vec(db.execute("select oid, score from hubs order by score desc, oid")?);
    let auths = to_vec(db.execute("select oid, score from auth order by score desc, oid")?);
    Ok(DistillResult { hubs, auths })
}

#[cfg(test)]
mod tests {
    use super::*;
    use focus_distiller::memory::{edges_from_links, WeightedHits};

    fn fixture() -> (Vec<LinkEdge>, FxHashMap<Oid, f64>) {
        let mut rel: FxHashMap<Oid, f64> = FxHashMap::default();
        for (o, r) in [
            (1u64, 0.8),
            (2, 0.7),
            (3, 0.6),
            (10, 0.9),
            (11, 0.85),
            (20, 0.01),
            (30, 0.9),
            (31, 0.9),
        ] {
            rel.insert(Oid(o), r);
        }
        let links = vec![
            (Oid(1), 100, Oid(10), 200),
            (Oid(1), 100, Oid(11), 201),
            (Oid(2), 101, Oid(10), 200),
            (Oid(2), 101, Oid(11), 201),
            (Oid(3), 102, Oid(20), 202),
            (Oid(30), 300, Oid(31), 300),
        ];
        (edges_from_links(&links, &rel), rel)
    }

    fn setup(edges: &[LinkEdge], rel: &FxHashMap<Oid, f64>) -> Database {
        let mut db = Database::in_memory();
        create_tables(&mut db).unwrap();
        create_crawl_stub(&mut db, rel).unwrap();
        load_links(&mut db, edges).unwrap();
        db
    }

    fn assert_scores_match(a: &DistillResult, b: &DistillResult, what: &str) {
        assert_eq!(a.hubs.len(), b.hubs.len(), "{what}: hub count");
        assert_eq!(a.auths.len(), b.auths.len(), "{what}: auth count");
        for (oid, s) in &a.hubs {
            let t = b.hub_score(*oid);
            assert!((s - t).abs() < 1e-9, "{what}: hub {oid} {s} vs {t}");
        }
        for (oid, s) in &a.auths {
            let t = b
                .auths
                .iter()
                .find(|(o, _)| o == oid)
                .map(|(_, x)| *x)
                .unwrap_or(0.0);
            assert!((s - t).abs() < 1e-9, "{what}: auth {oid} {s} vs {t}");
        }
    }

    #[test]
    fn join_path_matches_memory_path() {
        let (edges, rel) = fixture();
        let cfg = DistillConfig {
            iterations: 4,
            ..DistillConfig::default()
        };
        let mem = WeightedHits::new(&edges, &rel, cfg.clone()).run();
        let mut db = setup(&edges, &rel);
        let sql = run(&mut db, &cfg).unwrap();
        assert_scores_match(&mem, &sql, "join vs memory");
    }

    #[test]
    fn naive_path_matches_join_path() {
        let (edges, rel) = fixture();
        let cfg = DistillConfig {
            iterations: 3,
            ..DistillConfig::default()
        };
        let mut db1 = setup(&edges, &rel);
        let sql = run(&mut db1, &cfg).unwrap();
        let mut db2 = setup(&edges, &rel);
        let (naive, timing) = run_naive(&mut db2, &cfg).unwrap();
        assert_scores_match(&sql, &naive, "naive vs join");
        assert!(timing.total() > Duration::ZERO);
    }

    #[test]
    fn unweighted_ablation_flows_through_sql() {
        let (edges, rel) = fixture();
        let cfg = DistillConfig {
            iterations: 2,
            weighted_edges: false,
            ..DistillConfig::default()
        };
        let mem = WeightedHits::new(&edges, &rel, cfg.clone()).run();
        let mut db = setup(&edges, &rel);
        let sql = run(&mut db, &cfg).unwrap();
        assert_scores_match(&mem, &sql, "unweighted join vs memory");
    }

    #[test]
    fn naive_timing_breakdown_is_populated() {
        let (edges, rel) = fixture();
        let mut db = setup(&edges, &rel);
        init_auth_uniform(&mut db).unwrap();
        let t = naive_iteration(&mut db, &DistillConfig::default()).unwrap();
        assert!(t.lookup > Duration::ZERO, "lookups must be measured");
        assert!(t.update > Duration::ZERO, "updates must be measured");
    }

    #[test]
    fn empty_link_table_is_benign() {
        let rel = FxHashMap::default();
        let mut db = Database::in_memory();
        create_tables(&mut db).unwrap();
        create_crawl_stub(&mut db, &rel).unwrap();
        let r = run(&mut db, &DistillConfig::default()).unwrap();
        assert!(r.hubs.is_empty());
        assert!(r.auths.is_empty());
    }
}

//! Planner equivalence: the staged pipeline (bind → plan → execute)
//! against the reference interpreter, row-multiset for
//! row-multiset, over a hand-written corpus and randomized
//! schemas/predicates/joins — plus plan-shape regression tests pinned
//! with `EXPLAIN`. INSERT/UPDATE/DELETE ride the same suite: the planner
//! runs them, the interpreter's SELECTs say what the table must hold
//! afterwards.
//!
//! Comparison contract: both engines `Ok` → equal multisets of rows
//! (a hash join builds on its smaller input and the planner picks
//! key-ordered index-only scans, so row order is only compared where SQL
//! pins it); both `Err` → pass; one `Ok`, one `Err` → fail.

#[path = "support/reference.rs"]
mod reference;

use minirel::sql::{parse_statement, Statement};
use minirel::value::Row;
use minirel::{Database, DbResult, Value};
use proptest::prelude::*;
use reference::{run_select, SqlCtx};

/// Run `sql` through the reference interpreter.
fn reference_select(db: &Database, sql: &str) -> DbResult<Vec<Row>> {
    let stmt = parse_statement(sql)?;
    let Statement::Select(q) = &stmt else {
        panic!("corpus entry is not a SELECT: {sql}");
    };
    // The session clock, read through the engine under test's own SQL.
    let now = db.query("select current timestamp").unwrap().scalar_i64();
    let (pool, catalog) = db.parts();
    let mut ctx = SqlCtx::new(pool, catalog, now.unwrap(), db.sort_budget_rows());
    Ok(run_select(&mut ctx, q)?.rows)
}

/// Multiset fingerprint: Debug text of each row, sorted.
fn multiset(rows: &[Row]) -> Vec<String> {
    let mut keys: Vec<String> = rows.iter().map(|r| format!("{r:?}")).collect();
    keys.sort();
    keys
}

/// Assert the two engines agree on `sql`. Returns the planner's rows for
/// follow-up assertions.
fn assert_equiv(db: &Database, sql: &str) -> Option<Vec<Row>> {
    let planned = db.query(sql).map(|rs| rs.rows);
    let interpreted = reference_select(db, sql);
    match (planned, interpreted) {
        (Ok(p), Ok(i)) => {
            assert_eq!(
                multiset(&p),
                multiset(&i),
                "engines disagree on: {sql}\nplan:\n{}",
                db.query(&format!("explain {sql}"))
                    .map(|rs| rs
                        .rows
                        .iter()
                        .filter_map(|r| r[0].as_str().map(str::to_owned))
                        .collect::<Vec<_>>()
                        .join("\n"))
                    .unwrap_or_default()
            );
            Some(p)
        }
        (Err(_), Err(_)) => None,
        (Ok(p), Err(e)) => panic!(
            "planner Ok ({} rows), interpreter Err ({e}) on: {sql}",
            p.len()
        ),
        (Err(e), Ok(i)) => panic!(
            "planner Err ({e}), interpreter Ok ({} rows) on: {sql}",
            i.len()
        ),
    }
}

/// `t(a int, b float, c str)` and `u(a int, d int)`, optionally indexed,
/// populated with `n` deterministic pseudo-random rows including NULLs
/// and duplicates.
fn build_db(n: i64, idx_ta: bool, idx_uad: bool, idx_tc: bool) -> Database {
    let mut db = Database::in_memory();
    db.execute("create table t (a int, b float, c str)")
        .unwrap();
    db.execute("create table u (a int, d int)").unwrap();
    if idx_ta {
        db.execute("create index t_a on t (a)").unwrap();
    }
    if idx_uad {
        db.execute("create index u_ad on u (a, d)").unwrap();
    }
    if idx_tc {
        db.execute("create index t_c on t (c)").unwrap();
    }
    let tid = db.table_id("t").unwrap();
    let uid = db.table_id("u").unwrap();
    let mut state = 0x9e3779b9u64;
    let mut rng = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 33) as i64
    };
    for _ in 0..n {
        let a = rng() % 12;
        let b = if rng() % 7 == 0 {
            Value::Null
        } else {
            Value::Float((rng() % 40) as f64 / 4.0)
        };
        let c = match rng() % 5 {
            0 => Value::Null,
            1 => Value::Str("x".into()),
            2 => Value::Str("y".into()),
            3 => Value::Str(String::new()),
            _ => Value::Str(format!("s{}", rng() % 6)),
        };
        db.insert(tid, vec![Value::Int(a), b, c]).unwrap();
    }
    for _ in 0..n {
        let a = if rng() % 9 == 0 {
            Value::Null
        } else {
            Value::Int(rng() % 12)
        };
        db.insert(uid, vec![a, Value::Int(rng() % 8)]).unwrap();
    }
    db.set_current_timestamp(1000);
    db
}

/// Hand-written corpus: every operator and probe shape, with and without
/// indexes, with row order asserted wherever ORDER BY pins it.
const CORPUS: &[&str] = &[
    // Scans, pushdown, pruning.
    "select * from t",
    "select a from t",
    "select a, c from t where b > 3.5",
    "select a from t where a = 5",
    "select a, b from t where a = 5 and b >= 2.0",
    "select c from t where c = 'x'",
    "select a from t where a > 3 and a <= 8",
    "select a from t where a >= 200",
    "select a from t where 5 = a",
    "select a from t where 3 < a and 8 >= a",
    "select a from t where a = 5.0",
    "select a from t where a = 4.5",
    "select a from t where a > 2.5",
    "select b from t where b = 3",
    "select a from t where a in (1, 3, 5, 99)",
    "select a from t where a not in (1, 3, 5)",
    "select a from t where a in (select d from u)",
    "select a from t where a not in (select d from u)",
    "select c from t where c is null",
    "select c from t where c is not null",
    "select a from t where not (a = 3 or b < 1.0)",
    "select a from t where null = a",
    // Expressions and functions.
    "select a + 1, b * 2.0 from t where a < 4",
    "select coalesce(c, 'none') from t",
    "select abs(a - 6) from t where b is not null",
    // Scalar subqueries.
    "select a from t where b > (select avg(b) from t)",
    "select a, (select max(d) from u) from t where a = 1",
    "select a from t where a = (select min(a) from u where d > 3)",
    // Joins.
    "select t.a, d from t, u where t.a = u.a",
    "select t.a, d from t join u on t.a = u.a where b > 2.0",
    "select t.a, u.d from t left outer join u on t.a = u.a",
    "select t.a, u.d from t left outer join u on t.a = u.a where u.d is null",
    "select count(*) from t, u",
    "select count(*) from t, u where t.a < u.d",
    "select count(*) from t t1, t t2, u where t1.a = t2.a and t2.a = u.a",
    "select count(*) from t join u on t.a = u.a and b > 1.5",
    // Aggregates.
    "select count(*) from t",
    "select count(*), sum(b), min(c), max(a) from t where a > 2",
    "select a, count(*) from t group by a order by a",
    "select a, avg(b) from t where b is not null group by a order by a",
    "select c, count(*) from t group by c order by count(*) desc, c",
    "select a, count(*) from t group by a order by a limit 3",
    "select count(*) from t where a = 100",
    "select sum(a) from t where a = 100",
    // Order/limit/distinct (order pinned by unique-ish full key).
    "select a, b, c from t order by a, b, c",
    "select a, b, c from t order by b desc, a, c limit 5",
    "select distinct a from t order by a",
    "select distinct c from t",
    "select distinct t.a from t, u where t.a = u.a order by t.a",
    // CTEs.
    "with big(a, n) as (select a, count(*) from t group by a) \
     select a, n from big where n > 1 order by a",
    "with big(a, n) as (select a, count(*) from t group by a) \
     select t.c, big.n from t, big where t.a = big.a order by t.c, big.n",
    // current timestamp.
    "select a from t where a + 1000 > current timestamp",
    // Errors must error in both engines.
    "select zz from t",
    "select a from t where q.a = 1",
    "select a, count(*) from t",
    "select a from t group by a order by b",
    "select unknownfn(a) from t",
    "select a from t where a in (select a, d from u)",
    "select a from t where a = (select a, d from u)",
    "select a from t join u",
];

#[test]
fn corpus_matches_reference_all_index_combinations() {
    for &(idx_ta, idx_uad, idx_tc) in &[
        (false, false, false),
        (true, false, false),
        (true, true, false),
        (true, true, true),
    ] {
        let db = build_db(60, idx_ta, idx_uad, idx_tc);
        for sql in CORPUS {
            assert_equiv(&db, sql);
        }
    }
}

#[test]
fn corpus_matches_reference_on_empty_tables() {
    let db = build_db(0, true, true, false);
    for sql in CORPUS {
        assert_equiv(&db, sql);
    }
}

#[test]
fn ordered_queries_agree_on_row_order() {
    // Where ORDER BY totally orders the output, the engines must agree
    // on exact row order, not just the multiset.
    let db = build_db(60, true, true, false);
    for sql in [
        "select a, b, c from t order by a, b, c",
        "select a, b, c from t where a > 2 order by a desc, b, c",
        "select a, count(*) from t group by a order by a",
    ] {
        let planned = db.query(sql).unwrap().rows;
        let interpreted = reference_select(&db, sql).unwrap();
        assert_eq!(planned, interpreted, "row order differs on: {sql}");
    }
}

// ------------------------------------------------------------------ DML

/// One INSERT/UPDATE/DELETE, checked **by state** against the SELECT
/// oracle: after the planned statement ran, `target`'s row multiset must
/// equal its pre-state minus the oracle's `removed` rows plus the
/// oracle's `added` rows. Every oracle query runs on the pre-state and
/// spells `?` bindings out as literals (the interpreter takes none).
struct DmlCase {
    dml: &'static str,
    params: Vec<Value>,
    target: &'static str,
    removed: Option<&'static str>,
    added: Vec<&'static str>,
}

fn dml_corpus() -> Vec<DmlCase> {
    let case = |dml, target, removed, added: &[&'static str]| DmlCase {
        dml,
        params: Vec::new(),
        target,
        removed,
        added: added.to_vec(),
    };
    let with = |params: &[Value], c: DmlCase| DmlCase {
        params: params.to_vec(),
        ..c
    };
    let delete = |dml, target, removed| case(dml, target, Some(removed), &[]);
    let update = |dml, target, removed, added| case(dml, target, Some(removed), &[added]);
    let insert = |dml, target, added: &[&'static str]| case(dml, target, None, added);
    vec![
        // DELETE: every probe shape the SELECT corpus has.
        delete("delete from t", "t", "select * from t"),
        delete("delete from t where a = 5", "t", "select * from t where a = 5"),
        delete("delete from t where a = 100", "t", "select * from t where a = 100"),
        delete(
            "delete from t where a > 3 and a <= 8 and c = 'x'",
            "t",
            "select * from t where a > 3 and a <= 8 and c = 'x'",
        ),
        delete(
            "delete from t where a in (1, 3, 99) or b is null",
            "t",
            "select * from t where a in (1, 3, 99) or b is null",
        ),
        delete(
            "delete from t where a in (select d from u)",
            "t",
            "select * from t where a in (select d from u)",
        ),
        delete(
            "delete from t where a not in (select d from u where d > 2)",
            "t",
            "select * from t where a not in (select d from u where d > 2)",
        ),
        // A subquery over the table being deleted from sees all of it.
        delete(
            "delete from t where b > (select avg(b) from t)",
            "t",
            "select * from t where b > (select avg(b) from t)",
        ),
        delete(
            "delete from u where a = 3 and d > 2",
            "u",
            "select * from u where a = 3 and d > 2",
        ),
        delete(
            "delete from t where a + 1000 > current timestamp",
            "t",
            "select * from t where a + 1000 > current timestamp",
        ),
        with(
            &[Value::Int(5), Value::Float(2.0)],
            delete(
                "delete from t where a = ? and b >= ?",
                "t",
                "select * from t where a = 5 and b >= 2.0",
            ),
        ),
        // UPDATE. The first three probe an index on the very column they
        // rewrite; `a + 1 where a >= 3` would chase its own output if the
        // read phase were not finished before the first write.
        update(
            "update t set a = a + 100 where a = 5",
            "t",
            "select * from t where a = 5",
            "select a + 100, b, c from t where a = 5",
        ),
        update(
            "update t set a = a + 1 where a >= 3",
            "t",
            "select * from t where a >= 3",
            "select a + 1, b, c from t where a >= 3",
        ),
        update(
            "update t set c = 'y' where c = 'x'",
            "t",
            "select * from t where c = 'x'",
            "select a, b, 'y' from t where c = 'x'",
        ),
        // Figure 4's normalization: the SET subquery reads the table
        // being updated and must see its pre-update state for every row.
        update(
            "update t set (b) = b / (select sum(b) from t)",
            "t",
            "select * from t",
            "select a, b / (select sum(b) from t), c from t",
        ),
        update(
            "update t set b = null, a = (select max(d) from u) where a in (select d from u)",
            "t",
            "select * from t where a in (select d from u)",
            "select (select max(d) from u), null, c from t where a in (select d from u)",
        ),
        // Rows that outgrow their page move to a new rid; every index
        // must follow them.
        update(
            "update t set c = coalesce(c, 'null') + '-a-suffix-long-enough-that-sixty-grown-rows-no-longer-fit-the-page-they-started-on'",
            "t",
            "select * from t",
            "select a, b, coalesce(c, 'null') + '-a-suffix-long-enough-that-sixty-grown-rows-no-longer-fit-the-page-they-started-on' from t",
        ),
        update(
            "update u set d = d + 1 where a = 3",
            "u",
            "select * from u where a = 3",
            "select a, d + 1 from u where a = 3",
        ),
        with(
            &[Value::Int(-7), Value::Int(5)],
            update(
                "update t set a = ? where a = ?",
                "t",
                "select * from t where a = 5",
                "select -7, b, c from t where a = 5",
            ),
        ),
        // INSERT: the source runs through the planner like any SELECT.
        insert(
            "insert into t (select * from t where a < 3)",
            "t",
            &["select * from t where a < 3"],
        ),
        insert(
            "insert into t (c, a) (select 'u', d from u where d > 5)",
            "t",
            &["select d, null, 'u' from u where d > 5"],
        ),
        insert(
            "insert into u (select a, count(*) from t group by a)",
            "u",
            &["select a, count(*) from t group by a"],
        ),
        insert(
            "insert into u (a, d) (select t.a, u.d from t, u where t.a = u.a and b > 2.0)",
            "u",
            &["select t.a, u.d from t, u where t.a = u.a and b > 2.0"],
        ),
        with(
            &[Value::Int(7), Value::Str("w".into())],
            insert(
                "insert into t values (1, 2.5, 'v'), (?, (select min(b) from t), ?)",
                "t",
                &["select 1, 2.5, 'v'", "select 7, (select min(b) from t), 'w'"],
            ),
        ),
    ]
}

/// Every index of `table` must answer like the heap: as many entries as
/// rows, a valid tree, and — for every value the indexed column holds —
/// the same rows from the index-eligible predicate as from a spelling of
/// it no index can serve.
fn assert_indexes_match_heap(db: &Database, table: &str, ctx: &str) {
    let (_, catalog) = db.parts();
    let t = catalog.table(catalog.table_id(table).unwrap());
    db.check_integrity()
        .unwrap_or_else(|e| panic!("{e} after: {ctx}"));
    for idx in &t.indexes {
        let col = &t.schema.columns[idx.cols[0]].name;
        let values = reference_select(db, &format!("select distinct {col} from {table}")).unwrap();
        for v in values.iter().map(|r| &r[0]).filter(|v| !v.is_null()) {
            let (lit, opaque) = match v {
                Value::Str(s) => (format!("'{s}'"), format!("{col} + ''")),
                other => (other.to_string(), format!("{col} + 0")),
            };
            let probed = db
                .query(&format!("select * from {table} where {col} = {lit}"))
                .unwrap();
            let scanned = db
                .query(&format!("select * from {table} where {opaque} = {lit}"))
                .unwrap();
            assert!(
                !probed.rows.is_empty(),
                "{} lost {lit} after: {ctx}",
                idx.name
            );
            assert_eq!(
                multiset(&probed.rows),
                multiset(&scanned.rows),
                "{} disagrees with the heap on {lit} after: {ctx}",
                idx.name
            );
        }
    }
}

fn assert_dml(db: &mut Database, case: &DmlCase) {
    let all = format!("select * from {}", case.target);
    let oracle = |db: &Database, sql: &str| multiset(&reference_select(db, sql).unwrap());
    let mut expected = oracle(db, &all);
    let removed = case.removed.map(|q| oracle(db, q)).unwrap_or_default();
    let added: Vec<String> = case.added.iter().flat_map(|q| oracle(db, q)).collect();
    for row in &removed {
        let at = expected
            .iter()
            .position(|r| r == row)
            .expect("oracle removes a row the table has");
        expected.swap_remove(at);
    }
    expected.extend(added.iter().cloned());
    expected.sort();

    let rs = db.execute_with(case.dml, &case.params).unwrap();
    assert_eq!(
        rs.affected as usize,
        removed.len().max(added.len()),
        "affected count of: {}",
        case.dml
    );
    assert_eq!(oracle(db, &all), expected, "state after: {}", case.dml);
    assert_indexes_match_heap(db, "t", case.dml);
    assert_indexes_match_heap(db, "u", case.dml);
}

#[test]
fn dml_matches_reference_by_state_all_index_combinations() {
    for &(n, idx_ta, idx_uad, idx_tc) in &[
        (60, false, false, false),
        (60, true, false, false),
        (60, true, true, false),
        (60, true, true, true),
        // Empty tables: every read phase is empty, INSERT … VALUES is not.
        (0, true, true, true),
    ] {
        for case in dml_corpus() {
            let mut db = build_db(n, idx_ta, idx_uad, idx_tc);
            assert_dml(&mut db, &case);
        }
        // And in sequence on one database, so each statement meets the
        // heap holes, moved rows and index churn the earlier ones left.
        let mut db = build_db(n, idx_ta, idx_uad, idx_tc);
        for case in dml_corpus() {
            assert_dml(&mut db, &case);
        }
    }
}

#[test]
fn indexed_dml_reads_a_fraction_of_the_unindexed_twin() {
    // Deterministic work proxy: logical page reads of one keyed DELETE
    // and one keyed UPDATE on a 20k-row table, with and without the index
    // the planner can probe.
    let build = |indexed: bool| {
        let mut db = Database::in_memory();
        db.execute("create table w (k int, v int, pad str)")
            .unwrap();
        if indexed {
            db.execute("create index w_k on w (k)").unwrap();
        }
        let tid = db.table_id("w").unwrap();
        let rows = (0..20_000i64)
            .map(|i| {
                vec![
                    Value::Int(i % 5000),
                    Value::Int(i),
                    Value::Str("p".repeat(80)),
                ]
            })
            .collect();
        db.insert_many(tid, rows).unwrap();
        db
    };
    let reads = |db: &mut Database, sql: &str, k: i64| {
        db.reset_io_stats();
        let rs = db.execute_with(sql, &[Value::Int(k)]).unwrap();
        assert_eq!(rs.affected, 4, "{sql}");
        db.io_stats().logical_reads
    };
    let (mut indexed, mut plain) = (build(true), build(false));
    for (sql, k) in [
        ("update w set v = v + 1 where k = ?", 1234),
        ("delete from w where k = ?", 4321),
    ] {
        let (probe, scan) = (reads(&mut indexed, sql, k), reads(&mut plain, sql, k));
        assert!(
            probe * 4 < scan,
            "{sql}: {probe} logical reads indexed vs {scan} unindexed"
        );
    }
}

// ------------------------------------------------------------- proptest

/// Random predicate over columns `a`/`b`/`c`/`d`, grown from a seed: the
/// vendored proptest has no recursive combinators, so recursion is
/// explicit. `d` only exists on `u` — single-table queries that draw it
/// must error identically in both engines, which is itself a case worth
/// generating.
fn gen_pred(state: &mut u64, depth: u32) -> String {
    fn next(state: &mut u64) -> u64 {
        *state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        *state >> 33
    }
    let n_choices = if depth == 0 { 8 } else { 11 };
    match next(state) % n_choices {
        0 => {
            let col = ["a", "b", "c", "d"][(next(state) % 4) as usize];
            let op = ["=", "<>", "<", "<=", ">", ">="][(next(state) % 6) as usize];
            let k = (next(state) % 20) as i64 - 5;
            format!("{col} {op} {k}")
        }
        1 => {
            let k = (next(state) % 20) as i64 - 5;
            format!("a in ({k}, {}, {})", k + 1, k + 3)
        }
        2 => format!("b > {}.25", next(state) % 10),
        3 => format!("c = 's{}'", next(state) % 6),
        4 => {
            let col = ["a", "b", "c", "d"][(next(state) % 4) as usize];
            format!("{col} is null")
        }
        5 => "a in (select d from u)".to_owned(),
        6 => "b < (select avg(b) from t)".to_owned(),
        7 => {
            let k = (next(state) % 20) as i64 - 5;
            format!("a not in ({k}, {})", k + 2)
        }
        8 => format!(
            "({} and {})",
            gen_pred(state, depth - 1),
            gen_pred(state, depth - 1)
        ),
        9 => format!(
            "({} or {})",
            gen_pred(state, depth - 1),
            gen_pred(state, depth - 1)
        ),
        _ => format!("not ({})", gen_pred(state, depth - 1)),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random schema (row count, index combination) × random predicate,
    /// single-table query shapes.
    #[test]
    fn random_single_table(
        n in 0i64..80,
        idx_ta in any::<bool>(),
        idx_tc in any::<bool>(),
        pred_seed in any::<u64>(),
        shape in 0usize..5,
    ) {
        let mut seed = pred_seed;
        let pred = gen_pred(&mut seed, 3);
        let db = build_db(n, idx_ta, false, idx_tc);
        let sql = match shape {
            0 => format!("select a, b, c from t where {pred}"),
            1 => format!("select a from t where {pred} order by a, b, c limit 7"),
            2 => format!("select count(*), min(a), max(a) from t where {pred}"),
            3 => format!("select a, count(*) from t where {pred} group by a order by a"),
            _ => format!("select distinct c from t where {pred}"),
        };
        assert_equiv(&db, &sql);
    }

    /// Random joins: both engines join in the same textual greedy order,
    /// the planner with hash joins and index probes, the interpreter with
    /// merge joins — the multisets must still match.
    #[test]
    fn random_joins(
        n in 0i64..50,
        idx_ta in any::<bool>(),
        idx_uad in any::<bool>(),
        pred_seed in any::<u64>(),
        outer in any::<bool>(),
        extra_table in any::<bool>(),
    ) {
        let mut seed = pred_seed;
        let pred = gen_pred(&mut seed, 3);
        let db = build_db(n, idx_ta, idx_uad, false);
        let join = if outer {
            "t left outer join u on t.a = u.a"
        } else {
            "t join u on t.a = u.a"
        };
        let sql = if extra_table {
            format!("select count(*) from {join} join u u2 on u.d = u2.d where {pred}")
        } else {
            format!("select count(*) from {join} where {pred}")
        };
        assert_equiv(&db, &sql);
    }
}

// ------------------------------------------------------- plan shape

/// The rendered EXPLAIN text for `sql` as one string.
fn explain(db: &Database, sql: &str) -> String {
    let rs = db.query(&format!("explain {sql}")).unwrap();
    assert_eq!(rs.columns, vec!["plan".to_owned()]);
    rs.rows
        .iter()
        .filter_map(|r| r[0].as_str().map(str::to_owned))
        .collect::<Vec<_>>()
        .join("\n")
}

#[test]
fn explain_prints_the_executed_tree_once() {
    let db = build_db(200, true, true, false);
    let text = explain(
        &db,
        "with per_a(a, n) as (select a, count(*) from t group by a) \
         select per_a.n, u.d from per_a, u \
         where per_a.a = u.a and u.d > (select min(d) from u)",
    );
    assert!(!text.contains("== logical =="), "{text}");
    assert!(!text.contains("== physical =="), "{text}");
    assert_eq!(text.matches("cte per_a:").count(), 1, "{text}");
    assert_eq!(text.matches("subquery 0 (scalar):").count(), 1, "{text}");
    assert!(text.contains("Join"), "{text}");
    // Every base-table scan (t in the CTE, u twice) says how many of its
    // columns it decodes.
    let scans: Vec<&str> = text
        .lines()
        .filter(|l| l.contains("SeqScan ") || l.contains("IndexScan "))
        .collect();
    assert_eq!(scans.len(), 3, "{text}");
    assert!(scans.iter().all(|l| l.contains(" cols=")), "{text}");
}

#[test]
fn eq_predicate_on_indexed_column_uses_index_scan() {
    let db = build_db(200, true, true, false);
    let text = explain(&db, "select b from t where a = 3");
    assert!(text.contains("IndexScan t via t_a [eq=1]"), "{text}");
    // Same query without the index: sequential scan with the filter pushed.
    let db2 = build_db(200, false, false, false);
    let text2 = explain(&db2, "select b from t where a = 3");
    assert!(text2.contains("SeqScan t [filters=1"), "{text2}");
}

#[test]
fn range_predicate_extends_the_eq_prefix() {
    let db = build_db(200, false, true, false);
    let text = explain(&db, "select a, d from u where u.a = 3 and d > 2");
    assert!(text.contains("IndexScan u via u_ad [eq=1 range"), "{text}");
}

#[test]
fn in_list_probes_single_column_index() {
    let db = build_db(200, true, false, false);
    let text = explain(&db, "select b from t where a in (1, 5, 9)");
    assert!(text.contains("in-probe"), "{text}");
}

#[test]
fn covering_index_scan_is_index_only() {
    let db = build_db(200, false, true, false);
    let text = explain(&db, "select a, d from u where u.a = 3");
    assert!(text.contains("index-only"), "{text}");
}

#[test]
fn pushdown_lands_filters_on_the_scan() {
    let db = build_db(200, false, false, false);
    let text = explain(
        &db,
        "select t.a from t, u where t.a = u.a and b > 1.0 and d = 2",
    );
    // Both single-source conjuncts pushed below the join.
    assert!(text.contains("SeqScan t [filters=1"), "{text}");
    assert!(text.contains("SeqScan u [filters=1"), "{text}");
    assert!(text.contains("HashJoin [keys=1]"), "{text}");
}

#[test]
fn tiny_input_equi_join_lowers_to_hash_join() {
    let mut db = Database::in_memory();
    db.execute("create table small (a int)").unwrap();
    db.execute("create table big (a int, x int)").unwrap();
    db.execute("insert into small values (1)").unwrap();
    let big = db.table_id("big").unwrap();
    for i in 0..200 {
        db.insert(big, vec![Value::Int(i % 5), Value::Int(i)])
            .unwrap();
    }
    let text = explain(&db, "select small.a from small, big where small.a = big.a");
    assert!(text.contains("HashJoin"), "{text}");
    let text2 = explain(&db, "select b1.a from big b1, big b2 where b1.x = b2.x");
    assert!(text2.contains("HashJoin"), "{text2}");
}

#[test]
fn a_left_outer_nested_loop_pads_when_the_right_input_is_empty() {
    // The pad width comes from the plan, not from a right row: with no
    // right rows every left row still comes out, NULL-padded. (Both
    // engines erred here while the width was read off the first right
    // row, which `assert_equiv` alone counts as agreement.)
    let mut db = Database::in_memory();
    db.execute("create table a (x int)").unwrap();
    db.execute("create table b (y int)").unwrap();
    db.execute("insert into a values (1), (2)").unwrap();
    let sql = "select a.x, b.y from a left outer join b on a.x < b.y";
    let got = assert_equiv(&db, sql).expect("both engines answer");
    assert_eq!(
        multiset(&got),
        multiset(&[
            vec![Value::Int(1), Value::Null],
            vec![Value::Int(2), Value::Null]
        ])
    );
}

#[test]
fn a_join_planned_on_empty_tables_stays_a_hash_join() {
    // The crawler's `community_evolution`, prepared (and cached) while
    // its tables are empty, then run once they have grown.
    let mut db = Database::in_memory();
    db.execute("create table crawl (oid int, kcid int)")
        .unwrap();
    db.execute("create index crawl_oid on crawl (oid)").unwrap();
    db.execute("create table link (oid_src int, oid_dst int, discovered int)")
        .unwrap();
    let sql = "select count(*) from link, crawl c1, crawl c2 \
               where oid_src = c1.oid and oid_dst = c2.oid \
                 and c1.kcid = ? and c2.kcid = ? and discovered >= ?";
    let params = [Value::Int(1), Value::Int(2), Value::Int(500)];
    let explain = |db: &Database| {
        let rs = db.query_with(&format!("explain {sql}"), &params).unwrap();
        rs.rows
            .iter()
            .map(|r| format!("{}\n", r[0]))
            .collect::<String>()
    };
    let cached = db.prepare(sql).unwrap();
    let stale_text = explain(&db);
    let (crawl, link) = (db.table_id("crawl").unwrap(), db.table_id("link").unwrap());
    for oid in 0..300i64 {
        db.insert(crawl, vec![Value::Int(oid), Value::Int(oid % 3)])
            .unwrap();
    }
    for i in 0..3000i64 {
        let row = vec![
            Value::Int(i % 300),
            Value::Int((i * 7 + 1) % 300),
            Value::Int(i),
        ];
        db.insert(link, row).unwrap();
    }
    assert_eq!(explain(&db), stale_text, "EXPLAIN comes from the cache");
    assert_eq!(stale_text.matches("HashJoin").count(), 2, "{stale_text}");
    assert!(!stale_text.contains("NlJoin"), "{stale_text}");
    let stale = db.query_prepared(&cached, &params).unwrap().rows;
    let fresh = db.execute_with(sql, &params).unwrap().rows;
    assert_eq!(stale, fresh);
    assert!(stale[0][0].as_i64().unwrap() > 0, "{stale:?}");
}

#[test]
fn monitor_shaped_query_switches_to_index_scan() {
    // The crawler's hub-revisit lookup: `link` indexed on oid_src, as in
    // crawler tables. The planner must probe, not scan.
    let mut db = Database::in_memory();
    db.execute(
        "create table link (oid_src int, sid_src int, oid_dst int, sid_dst int, discovered int)",
    )
    .unwrap();
    db.execute("create index link_src on link (oid_src)")
        .unwrap();
    let tid = db.table_id("link").unwrap();
    for i in 0..4000i64 {
        db.insert(
            tid,
            vec![
                Value::Int(i % 400),
                Value::Int(1),
                Value::Int(i),
                Value::Int(2),
                Value::Int(i),
            ],
        )
        .unwrap();
    }
    let text = explain(&db, "select oid_dst from link where oid_src = 7");
    assert!(
        text.contains("IndexScan link via link_src [eq=1]"),
        "{text}"
    );
    // And the probe answers like the scan.
    assert_equiv(&db, "select oid_dst from link where oid_src = 7");
    // Fewer logical reads than a full scan: the acceptance bar's unit
    // check (the bench measures the full monitor suite).
    db.reset_io_stats();
    db.query("select oid_dst from link where oid_src = 7")
        .unwrap();
    let probe_reads = db.io_stats().logical_reads;
    let db2 = {
        let mut d = Database::in_memory();
        d.execute("create table link (oid_src int, sid_src int, oid_dst int, sid_dst int, discovered int)").unwrap();
        let t2 = d.table_id("link").unwrap();
        for i in 0..4000i64 {
            d.insert(
                t2,
                vec![
                    Value::Int(i % 400),
                    Value::Int(1),
                    Value::Int(i),
                    Value::Int(2),
                    Value::Int(i),
                ],
            )
            .unwrap();
        }
        d
    };
    db2.reset_io_stats();
    db2.query("select oid_dst from link where oid_src = 7")
        .unwrap();
    let scan_reads = db2.io_stats().logical_reads;
    assert!(
        probe_reads * 2 <= scan_reads,
        "index probe should halve logical reads: probe={probe_reads} scan={scan_reads}"
    );
}

// ------------------------------------------------- prepared statements

#[test]
fn prepared_plans_are_cached_and_parameterized() {
    let db = build_db(60, true, false, false);
    let (h0, m0) = db.plan_cache_stats();
    let sql = "select b from t where a = ?";
    let p1 = db.prepare(sql).unwrap();
    let p2 = db.prepare(sql).unwrap();
    let (h1, m1) = db.plan_cache_stats();
    assert_eq!(h1 - h0, 1, "second prepare must hit");
    assert_eq!(m1 - m0, 1, "first prepare must miss");
    assert!(
        std::sync::Arc::ptr_eq(&p1, &p2),
        "hit returns the cached plan"
    );
    // Same plan, different bindings.
    for k in [1i64, 5, 100] {
        let via_plan = db.query_prepared(&p1, &[Value::Int(k)]).unwrap().rows;
        let via_text = db
            .query(&format!("select b from t where a = {k}"))
            .unwrap()
            .rows;
        assert_eq!(multiset(&via_plan), multiset(&via_text), "a = {k}");
    }
    // Wrong arity is an error, not a silent misbind.
    assert!(db.query_prepared(&p1, &[]).is_err());
    assert!(db
        .query_prepared(&p1, &[Value::Int(1), Value::Int(2)])
        .is_err());
}

#[test]
fn ddl_invalidates_cached_plans() {
    let mut db = build_db(20, false, false, false);
    db.query("select a from t where a = 1").unwrap();
    db.query("select a from t where a = 1").unwrap();
    let (h, _) = db.plan_cache_stats();
    assert_eq!(h, 1);
    // New index: the cached SeqScan plan must be dropped so the next
    // query can probe it.
    db.execute("create index t_a on t (a)").unwrap();
    let (_, m) = db.plan_cache_stats();
    db.query("select a from t where a = 1").unwrap();
    // 20 rows / few pages: either access path is legal, but it must be
    // the *new* plan object, not the pre-DDL one — verified by cache
    // stats:
    let (_, m_after) = db.plan_cache_stats();
    assert_eq!(m_after, m + 1, "DDL must force a re-plan");
    let rendered = explain(&db, "select a from t where a = 1");
    assert!(
        rendered.contains("IndexScan") || rendered.contains("SeqScan"),
        "{rendered}"
    );
    // Only `explain <select>` renders plan text.
    let plan = db.prepare("select a from t where a = 1").unwrap();
    assert!(plan.explain.is_none());
}

#[test]
fn prepared_scalar_subquery_reevaluates_per_execution() {
    // Regression: a cached plan must re-run uncorrelated subqueries on
    // every execution, not bake in the first result.
    let mut db = Database::in_memory();
    db.execute("create table s (v int)").unwrap();
    db.execute("create table w (x int)").unwrap();
    db.execute("insert into s values (10)").unwrap();
    for x in [5i64, 15, 25] {
        db.execute(&format!("insert into w values ({x})")).unwrap();
    }
    let plan = db
        .prepare("select x from w where x > (select max(v) from s)")
        .unwrap();
    let before = db.query_prepared(&plan, &[]).unwrap();
    assert_eq!(multiset(&before.rows), vec!["[Int(15)]", "[Int(25)]"]);
    // Mutate the subquery's source; the same plan must see it.
    db.execute("insert into s values (20)").unwrap();
    let after = db.query_prepared(&plan, &[]).unwrap();
    assert_eq!(multiset(&after.rows), vec!["[Int(25)]"]);
    // The clock is also per-execution.
    let tplan = db
        .prepare("select x from w where x > current timestamp")
        .unwrap();
    db.set_current_timestamp(0);
    assert_eq!(db.query_prepared(&tplan, &[]).unwrap().rows.len(), 3);
    db.set_current_timestamp(20);
    assert_eq!(db.query_prepared(&tplan, &[]).unwrap().rows.len(), 1);
}

#[test]
fn query_rejects_non_select_and_dml_still_runs() {
    let mut db = build_db(5, false, false, false);
    let err = db.query("insert into t values (1, 2.0, 'z')").unwrap_err();
    assert!(
        err.to_string().contains("query() accepts SELECT only"),
        "{err}"
    );
    // DML through execute still works and is visible to cached plans.
    let plan = db.prepare("select count(*) from t").unwrap();
    let n0 = db.query_prepared(&plan, &[]).unwrap().scalar_i64().unwrap();
    db.execute("insert into t values (1, 2.0, 'z')").unwrap();
    let n1 = db.query_prepared(&plan, &[]).unwrap().scalar_i64().unwrap();
    assert_eq!(n1, n0 + 1);
}

// ------------------------------------------------ key-list probes

/// `p(id int, g int, v str)` (`n` rows, `id` unique, indexed `p_id`),
/// `q(pid int, w int)` (`3n` rows over `id`s and a few NULLs, indexed
/// `q_pid`), and `r(pid int, z int)` (`n` rows, no index) — or, with
/// `indexed` false, the same tables without any index.
fn build_join_db(n: i64, indexed: bool) -> Database {
    let mut db = Database::in_memory();
    db.execute("create table p (id int, g int, v str)").unwrap();
    db.execute("create table q (pid int, w int)").unwrap();
    db.execute("create table r (pid int, z int)").unwrap();
    if indexed {
        db.execute("create index p_id on p (id)").unwrap();
        db.execute("create index q_pid on q (pid)").unwrap();
    }
    let (p, q, r) = (
        db.table_id("p").unwrap(),
        db.table_id("q").unwrap(),
        db.table_id("r").unwrap(),
    );
    let rows = (0..n).map(|i| {
        let v = format!("v{i}-{}", "x".repeat(40));
        vec![Value::Int(i), Value::Int(i % 7), Value::Str(v)]
    });
    db.insert_many(p, rows.collect()).unwrap();
    let rows = (0..3 * n).map(|i| {
        let pid = match i % 11 {
            0 => Value::Null,
            _ => Value::Int((i * 7) % (n + 5)),
        };
        vec![pid, Value::Int(i % 13)]
    });
    db.insert_many(q, rows.collect()).unwrap();
    let rows = (0..n).map(|i| vec![Value::Int((i * 3) % n), Value::Int(i % 50)]);
    db.insert_many(r, rows.collect()).unwrap();
    db
}

/// Logical reads `sql` costs on `db`.
fn reads_of(db: &Database, sql: &str) -> u64 {
    db.reset_io_stats();
    db.query(sql).unwrap();
    db.io_stats().logical_reads
}

#[test]
fn semijoin_reduction_marks_and_matches_the_reference() {
    // New with semijoin reduction: the EXPLAIN tags, and the reduced
    // reads, fail before it; the multisets held before too.
    let db = build_join_db(2000, true);
    let plain = build_join_db(2000, false);
    // One side reducible: `r` has no index, `p` is probed with the `pid`s
    // of the few `r` rows that pass its filters.
    let one = "select p.v, r.z from p, r where p.id = r.pid and z = 7 and r.pid < 600";
    let text = explain(&db, one);
    assert!(
        text.contains("HashJoin [keys=1] [reduce left via p_id]"),
        "{text}"
    );
    assert_equiv(&db, one);
    let (reduced, scanned) = (reads_of(&db, one), reads_of(&plain, one));
    assert!(
        3 * reduced < 2 * scanned,
        "reduced {reduced} vs scanned {scanned}"
    );
    // Both sides reducible: the larger table (`q`) is probed with the
    // keys of the `p` rows that pass `g = 2`.
    let both = "select p.v, q.w from p, q where p.id = q.pid and g = 2 and v > 'v5'";
    let text = explain(&db, both);
    assert!(
        text.contains("[reduce left via p_id, right via q_pid]"),
        "{text}"
    );
    assert_equiv(&db, both);
    // Neither: `r` twice, no index.
    let neither = "select count(*) from r, r r2 where r.pid = r2.pid and r.z = 3";
    assert!(!explain(&db, neither).contains("reduce"));
    assert_equiv(&db, neither);
    // A left outer join is never reduced, on either side.
    for outer in [
        "select p.id, q.w from p left outer join q on p.id = q.pid where g = 1",
        "select q.w, p.v from q left outer join p on q.pid = p.id",
    ] {
        let text = explain(&db, outer);
        assert!(
            text.contains("left-outer]") && !text.contains("reduce"),
            "{text}"
        );
        assert_equiv(&db, outer);
    }
    // A key list covering most of the table falls back to the scan: every
    // `q.pid` against `p` — and the answer is the same.
    let most = "select count(*), sum(w) from q, p where q.pid = p.id";
    assert!(explain(&db, most).contains("reduce"));
    assert_equiv(&db, most);
    let (fell_back, scanned) = (reads_of(&db, most), reads_of(&plain, most));
    assert_eq!(fell_back, scanned, "the fallback reads what the scans read");
    // Composite keys, NULL keys, an empty key list and index-only rows.
    for sql in [
        "select count(*) from p, q where p.id = q.pid and p.g = q.w and w = 3",
        "select q.pid from q, r where q.pid = r.pid and z = 49",
        "select p.v from p, r where p.id = r.pid and z > 100",
        "select count(*), min(q.pid) from q, r where q.pid = r.pid and z = 5",
    ] {
        assert_equiv(&db, sql);
    }
}

#[test]
fn in_subquery_probes_its_index_when_the_list_is_short() {
    // The `missed_hub_neighbors` shape: an eq prefix that matches most of
    // the table, and an `IN (subquery)` on a column with its own index.
    // (Fails before the IN-probe was tried ahead of the eq probe.)
    let mut db = Database::in_memory();
    db.execute("create table c (oid int, visited int, tries int, url str)")
        .unwrap();
    db.execute("create index c_oid on c (oid)").unwrap();
    db.execute("create index c_frontier on c (visited, tries)")
        .unwrap();
    db.execute("create table h (oid int)").unwrap();
    let c = db.table_id("c").unwrap();
    let rows = (0..4000i64).map(|i| {
        let visited = i64::from(i % 10 == 0);
        vec![
            Value::Int(i),
            Value::Int(visited),
            Value::Int(0),
            Value::Str(format!("u{i}")),
        ]
    });
    db.insert_many(c, rows.collect()).unwrap();
    db.execute("insert into h values (3), (17), (250), (999), (null)")
        .unwrap();
    let sql = "select url from c where oid in (select oid from h) and tries = 0 and visited = 0";
    let text = explain(&db, sql);
    assert!(
        text.contains("IndexScan c via c_oid [in-probe] or via c_frontier [eq=2]"),
        "{text}"
    );
    let rows = assert_equiv(&db, sql).unwrap();
    assert_eq!(rows.len(), 3, "250 is visited");
    let probe = reads_of(&db, sql);
    let eq_only = reads_of(&db, "select url from c where tries = 0 and visited = 0");
    assert!(
        probe * 4 < eq_only,
        "in-probe {probe} vs eq probe {eq_only}"
    );
    // A long list sends the same plan back to its eq probe, same answer.
    db.execute("insert into h select oid from c where oid < 3000")
        .unwrap();
    assert_equiv(&db, sql);
    assert!(reads_of(&db, sql) >= eq_only);
}

#[test]
fn a_plan_prepared_on_an_empty_store_takes_the_in_probe_once_grown() {
    // Prepared while both tables are empty, where no probe pays, the
    // cached plan still decides at execution: once the table has grown
    // and the subquery's list is short, it probes. (This first case
    // passed before too: with no eq prefix, that plan probed whatever its
    // list; it pins the adaptive choice.)
    let mut db = Database::in_memory();
    db.execute("create table big (a int, x int)").unwrap();
    db.execute("create index big_a on big (a)").unwrap();
    db.execute("create table keys (k int)").unwrap();
    let sql = "select x from big where a in (select k from keys) and x >= 0";
    let cached = db.prepare(sql).unwrap();
    assert!(db.query_prepared(&cached, &[]).unwrap().rows.is_empty());
    let big = db.table_id("big").unwrap();
    let rows = (0..4000i64).map(|i| vec![Value::Int(i), Value::Int(i % 9)]);
    db.insert_many(big, rows.collect()).unwrap();
    db.execute("insert into keys values (5), (1234), (3999)")
        .unwrap();
    db.reset_io_stats();
    let got = db.query_prepared(&cached, &[]).unwrap().rows;
    let probed = db.io_stats().logical_reads;
    let scan = reads_of(&db, "select x from big where x >= 0");
    assert_eq!(multiset(&got), multiset(&assert_equiv(&db, sql).unwrap()));
    assert_eq!(got.len(), 3);
    assert!(probed * 2 < scan, "probed {probed} vs scan {scan}");

    // An eq prefix (the crawl's hub drill-down) and an eq prefix with a
    // range, each prepared on an empty table: once the table has grown,
    // the cached plan reads exactly what a fresh plan reads. (Both fail
    // while the planner admitted probes from the row counts it saw: the
    // cached plans scanned the heap.)
    db.execute("create table link (oid_src int, oid_dst int, discovered int)")
        .unwrap();
    db.execute("create index link_src on link (oid_src)")
        .unwrap();
    db.execute("create index link_seen on link (oid_src, discovered)")
        .unwrap();
    let cases = [
        (
            "select oid_dst from link where oid_src = ?",
            vec![Value::Int(7)],
        ),
        (
            "select oid_dst from link where oid_src = ? and discovered >= ?",
            vec![Value::Int(7), Value::Int(2000)],
        ),
    ];
    let cached: Vec<_> = cases
        .iter()
        .map(|(sql, _)| db.prepare(sql).unwrap())
        .collect();
    let link = db.table_id("link").unwrap();
    let rows = (0..4000i64).map(|i| vec![Value::Int(i % 400), Value::Int(i), Value::Int(i)]);
    db.insert_many(link, rows.collect()).unwrap();
    for ((sql, params), plan) in cases.iter().zip(&cached) {
        db.reset_io_stats();
        let stale = db.query_prepared(plan, params).unwrap().rows;
        let stale_reads = db.io_stats().logical_reads;
        db.reset_io_stats();
        let fresh = db.execute_with(sql, params).unwrap().rows;
        assert!(!fresh.is_empty(), "{sql}");
        assert_eq!(stale, fresh, "{sql}");
        assert_eq!(stale_reads, db.io_stats().logical_reads, "{sql}");
    }
    // A 3-way comma join, prepared while its tables are empty: the join
    // order comes from the statement alone, so once one table has grown
    // the cached plan is the plan a fresh statement gets. (Fails while
    // comma joins were ordered by row-count estimates: all three tied on
    // empty tables, and the grown `lnk` then sorted after `cls`.)
    db.execute("create table hub (h int, c int)").unwrap();
    db.execute("create table lnk (src int, dst int)").unwrap();
    db.execute("create index lnk_src on lnk (src)").unwrap();
    db.execute("create table cls (c int, n int)").unwrap();
    let sql = "select hub.h, lnk.dst, cls.n from hub, lnk, cls \
               where hub.h = lnk.src and hub.c = cls.c";
    let cached_text = db.prepare(&format!("explain {sql}")).unwrap();
    let cached = db.prepare(sql).unwrap();
    let [hub, lnk, cls] = ["hub", "lnk", "cls"].map(|t| db.table_id(t).unwrap());
    let rows = (0..50i64).map(|h| vec![Value::Int(h), Value::Int(h % 5)]);
    db.insert_many(hub, rows.collect()).unwrap();
    let rows = (0..5i64).map(|c| vec![Value::Int(c), Value::Int(c * 10)]);
    db.insert_many(cls, rows.collect()).unwrap();
    let rows = (0..4000i64).map(|i| vec![Value::Int(i % 400), Value::Int(i)]);
    db.insert_many(lnk, rows.collect()).unwrap();
    let text = |rows: Vec<Row>| {
        rows.iter()
            .map(|r| format!("{}\n", r[0]))
            .collect::<String>()
    };
    let stale_text = text(db.query_prepared(&cached_text, &[]).unwrap().rows);
    let fresh_text = text(db.execute(&format!("explain {sql}")).unwrap().rows);
    assert_eq!(stale_text, fresh_text);
    db.reset_io_stats();
    let stale = db.query_prepared(&cached, &[]).unwrap().rows;
    let stale_reads = db.io_stats().logical_reads;
    db.reset_io_stats();
    let fresh = db.execute(sql).unwrap().rows;
    assert_eq!(stale_reads, db.io_stats().logical_reads);
    assert_eq!(multiset(&stale), multiset(&fresh));
    assert_eq!(multiset(&stale), multiset(&assert_equiv(&db, sql).unwrap()));
    assert_eq!(stale.len(), 500);
}

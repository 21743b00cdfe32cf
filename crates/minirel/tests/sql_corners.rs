//! SQL corner cases beyond the paper's queries: alias resolution, NULL
//! propagation through aggregates and outer joins, error surfacing.

use minirel::{Database, Value};

fn db() -> Database {
    let mut db = Database::in_memory();
    db.execute("create table t (a int, b float, s text)")
        .unwrap();
    db.execute("insert into t values (1, 0.5, 'x'), (2, 1.5, 'y'), (3, 2.5, 'x'), (4, null, null)")
        .unwrap();
    db
}

#[test]
fn order_by_output_alias() {
    let mut d = db();
    let rs = d
        .execute("select s, count(*) cnt from t where s is not null group by s order by cnt desc")
        .unwrap();
    assert_eq!(rs.columns, vec!["s", "cnt"]);
    assert_eq!(rs.rows[0][0], Value::Str("x".into()));
    assert_eq!(rs.rows[0][1], Value::Int(2));
}

#[test]
fn aggregates_skip_nulls() {
    let mut d = db();
    let rs = d
        .execute("select count(*), count(b), sum(b), avg(b), min(b), max(b) from t")
        .unwrap();
    let row = &rs.rows[0];
    assert_eq!(row[0], Value::Int(4));
    assert_eq!(row[1], Value::Int(3));
    assert_eq!(row[2], Value::Float(4.5));
    assert_eq!(row[3], Value::Float(1.5));
    assert_eq!(row[4], Value::Float(0.5));
    assert_eq!(row[5], Value::Float(2.5));
}

#[test]
fn scalar_subquery_on_empty_result_is_null() {
    let mut d = db();
    let rs = d
        .execute("select (select a from t where a > 100) from t where a = 1")
        .unwrap();
    assert!(rs.rows[0][0].is_null());
}

#[test]
fn insert_with_column_mapping_defaults_missing_to_null() {
    let mut d = db();
    d.execute("insert into t (s, a) values ('z', 9)").unwrap();
    let rs = d.execute("select a, b, s from t where a = 9").unwrap();
    assert_eq!(rs.rows[0][0], Value::Int(9));
    assert!(rs.rows[0][1].is_null());
    assert_eq!(rs.rows[0][2], Value::Str("z".into()));
}

#[test]
fn insert_from_select() {
    let mut d = db();
    d.execute("create table t2 (a int, s text)").unwrap();
    let rs = d
        .execute("insert into t2 (a, s) (select a, s from t where s = 'x')")
        .unwrap();
    assert_eq!(rs.affected, 2);
    assert_eq!(
        d.execute("select count(*) from t2").unwrap().scalar_i64(),
        Some(2)
    );
}

#[test]
fn division_by_zero_is_an_error_not_a_crash() {
    let mut d = db();
    let e = d.execute("select a / 0 from t").unwrap_err();
    assert!(e.to_string().contains("division by zero"));
    // The table is untouched afterwards.
    assert_eq!(
        d.execute("select count(*) from t").unwrap().scalar_i64(),
        Some(4)
    );
}

#[test]
fn where_on_aggregate_is_rejected() {
    let mut d = db();
    assert!(d.execute("select a from t where sum(b) > 1").is_err());
}

#[test]
fn group_by_with_null_group_key() {
    let mut d = db();
    let rs = d
        .execute("select s, count(*) from t group by s order by s")
        .unwrap();
    // NULL forms its own group and sorts first.
    assert_eq!(rs.rows.len(), 3);
    assert!(rs.rows[0][0].is_null());
    assert_eq!(rs.rows[0][1], Value::Int(1));
}

#[test]
fn three_way_join_with_mixed_predicates() {
    let mut d = Database::in_memory();
    d.execute("create table a (k int, v int)").unwrap();
    d.execute("create table b (k int, w int)").unwrap();
    d.execute("create table c (w int, name text)").unwrap();
    d.execute("insert into a values (1, 10), (2, 20)").unwrap();
    d.execute("insert into b values (1, 100), (2, 200)")
        .unwrap();
    d.execute("insert into c values (100, 'hundred'), (300, 'threehundred')")
        .unwrap();
    let rs = d
        .execute(
            "select name from a, b, c \
             where a.k = b.k and b.w = c.w and v < 15",
        )
        .unwrap();
    assert_eq!(rs.rows.len(), 1);
    assert_eq!(rs.rows[0][0], Value::Str("hundred".into()));
}

#[test]
fn update_on_indexed_column_keeps_index_usable() {
    let mut d = db();
    d.execute("create index t_a on t (a)").unwrap();
    d.execute("update t set a = a + 100 where a <= 2").unwrap();
    let rs = d.execute("select count(*) from t where a = 101").unwrap();
    assert_eq!(rs.scalar_i64(), Some(1));
    let rs = d.execute("select count(*) from t where a = 1").unwrap();
    assert_eq!(rs.scalar_i64(), Some(0));
}

#[test]
fn string_comparison_and_concat() {
    let mut d = db();
    let rs = d
        .execute("select s + '!' from t where s > 'x' order by s")
        .unwrap();
    assert_eq!(rs.rows.len(), 1);
    assert_eq!(rs.rows[0][0], Value::Str("y!".into()));
}

#[test]
fn select_without_from() {
    let mut d = Database::in_memory();
    let rs = d.execute("select 1 + 2, 'hi'").unwrap();
    assert_eq!(rs.rows, vec![vec![Value::Int(3), Value::Str("hi".into())]]);
}

#[test]
fn cte_shadowing_is_scoped() {
    let mut d = db();
    // A CTE named `t` shadows the base table inside the query only.
    let rs = d
        .execute("with t(a) as (select 42) select a from t")
        .unwrap();
    assert_eq!(rs.rows, vec![vec![Value::Int(42)]]);
    // Outside, the base table is intact.
    assert_eq!(
        d.execute("select count(*) from t").unwrap().scalar_i64(),
        Some(4)
    );
}

#[test]
fn not_in_with_nulls_in_probe() {
    let mut d = db();
    // a = 4 row: `s` is NULL; NULL NOT IN (...) is false (not an error).
    let rs = d.execute("select a from t where s not in ('x')").unwrap();
    let got: Vec<i64> = rs.rows.iter().map(|r| r[0].as_i64().unwrap()).collect();
    assert_eq!(got, vec![2]);
}

#[test]
fn rejected_dml_changes_nothing() {
    // Every statement here is refused, some only at its second row; none
    // may leave the rows before the bad one behind.
    let mut d = db();
    d.execute("create index t_a on t (a)").unwrap();
    let snapshot = |d: &mut Database| {
        (
            d.execute("select count(*) from t").unwrap().scalar_i64(),
            d.execute("select a, b, s from t order by a").unwrap().rows,
            d.execute("select count(*) from t where a = 1")
                .unwrap()
                .scalar_i64(),
        )
    };
    let before = snapshot(&mut d);
    for sql in [
        // Arity is checked against the column list for every VALUES row
        // and for the source query's output.
        "insert into t (a) values (10), (11, 12)",
        "insert into t values (10, 1.0, 'p'), (11, 1.0)",
        "insert into t (a, b) (select a from t)",
        // Type is checked for the whole batch before the first write.
        "insert into t (a) values (10), ('x')",
        "update t set a = 'x' where a >= 2",
        "update t set s = a where a >= 2",
        // A column named twice is an error, not "last one wins".
        "insert into t (a, a) values (10, 11)",
        "update t set a = 10, a = 11",
        // Unknown targets.
        "insert into t (nope) values (1)",
        "update t set nope = 1",
        "delete from t where nope = 1",
        "delete from t where sum(a) > 1",
    ] {
        assert!(d.execute(sql).is_err(), "must be rejected: {sql}");
        assert_eq!(snapshot(&mut d), before, "state moved after: {sql}");
    }
    // The error variants callers match on did not move with the engine.
    assert!(matches!(
        d.execute("delete from missing"),
        Err(minirel::DbError::Catalog(_))
    ));
    assert!(matches!(
        d.execute("insert into t (a) values (1, 2)"),
        Err(minirel::DbError::Schema(_))
    ));
    assert!(matches!(
        d.execute("update t set nope = 1"),
        Err(minirel::DbError::Binding(_))
    ));
}

#[test]
fn dml_takes_parameters_and_the_session_clock() {
    let mut d = db();
    d.set_current_timestamp(77);
    let rs = d
        .execute_with(
            "insert into t (a, b, s) values (?, ? * 2, ?), (current timestamp, 0.0, 'now')",
            &[Value::Int(9), Value::Float(1.25), Value::Str("p".into())],
        )
        .unwrap();
    assert_eq!(rs.affected, 2);
    let rs = d
        .execute_with(
            "update t set b = b + ? where a = ? or a = current timestamp",
            &[Value::Float(10.0), Value::Int(9)],
        )
        .unwrap();
    assert_eq!(rs.affected, 2);
    let rows = d
        .execute("select a, b from t where b >= 10.0 order by a")
        .unwrap()
        .rows;
    assert_eq!(
        rows,
        vec![
            vec![Value::Int(9), Value::Float(12.5)],
            vec![Value::Int(77), Value::Float(10.0)],
        ]
    );
    let rs = d
        .execute_with(
            "delete from t where a in (?, ?)",
            &[Value::Int(9), Value::Int(77)],
        )
        .unwrap();
    assert_eq!(rs.affected, 2);
    // Too few or too many bindings is an error before anything runs.
    assert!(d.execute("delete from t where a = ?").is_err());
    assert!(d.execute_with("delete from t", &[Value::Int(1)]).is_err());
    assert_eq!(
        d.execute("select count(*) from t").unwrap().scalar_i64(),
        Some(4)
    );
}

#[test]
fn a_read_query_never_grows_the_store() {
    // A join and an ORDER BY, each over more rows than the bulk probe's
    // sort budget for this pool, run on a committed durable store: the
    // read allocates no page and logs nothing.
    let mut db = Database::in_memory_durable(16, 1);
    db.execute("create table a (k int, v int)").unwrap();
    db.execute("create table b (k int, w int)").unwrap();
    let rows = 3 * db.sort_budget_rows() as i64;
    for (name, m) in [("a", 7), ("b", 11)] {
        let tid = db.table_id(name).unwrap();
        let batch = (0..rows).map(|i| vec![Value::Int(i % 500), Value::Int(i * m)]);
        db.insert_many(tid, batch.collect()).unwrap();
    }
    db.commit_durable().unwrap();
    let wal = db.wal().unwrap();
    let (pages, logged) = (db.num_pages(), wal.len_bytes());
    let rs = db
        .query("select a.v, b.w from a, b where a.k = b.k and b.w < 30000 order by a.v desc")
        .unwrap();
    assert!(rs.rows.len() as i64 > rows, "{} rows", rs.rows.len());
    assert!(rs.rows.windows(2).all(|w| w[0][0] >= w[1][0]));
    assert_eq!(db.num_pages(), pages, "the read allocated pages");
    assert_eq!(wal.len_bytes(), logged, "the read logged pages");
}

#[test]
fn order_by_sorts_ints_and_floats_by_value() {
    // `coalesce(b, 0)` is Float where `b` is set and Int(0) where it is
    // NULL; ORDER BY must interleave them numerically, not put every Int
    // before every Float. (Fails on the sort key that led with a type
    // tag.)
    let mut d = Database::in_memory();
    d.execute("create table m (id int, b float)").unwrap();
    d.execute("insert into m values (1, 2.5), (2, null), (3, -1.5), (4, 0.5), (5, -0.25)")
        .unwrap();
    let rs = d
        .execute("select id, coalesce(b, 0) from m order by coalesce(b, 0)")
        .unwrap();
    let ids: Vec<i64> = rs.rows.iter().map(|r| r[0].as_i64().unwrap()).collect();
    assert_eq!(ids, vec![3, 5, 2, 4, 1], "{:?}", rs.rows);
    let rs = d
        .execute("select id from m order by coalesce(b, 0) desc, id")
        .unwrap();
    let ids: Vec<i64> = rs.rows.iter().map(|r| r[0].as_i64().unwrap()).collect();
    assert_eq!(ids, vec![1, 4, 2, 5, 3]);
    // Ints past 2^53 that round to one f64 still sort exactly.
    let big = 1i64 << 53;
    d.execute("create table n (v float, w int)").unwrap();
    let n = d.table_id("n").unwrap();
    for (v, w) in [
        (Value::Null, big + 1),
        (Value::Null, big),
        (Value::Null, big - 1),
    ] {
        d.insert(n, vec![v, Value::Int(w)]).unwrap();
    }
    d.insert(n, vec![Value::Float(big as f64 + 2.0), Value::Null])
        .unwrap();
    let rs = d
        .execute("select coalesce(v, w) from n order by coalesce(v, w)")
        .unwrap();
    let got: Vec<Value> = rs.rows.into_iter().map(|mut r| r.remove(0)).collect();
    let want = [
        Value::Int(big - 1),
        Value::Int(big),
        Value::Int(big + 1),
        Value::Float(big as f64 + 2.0),
    ];
    assert_eq!(format!("{got:?}"), format!("{want:?}"));
}

#[test]
fn fused_filters_report_the_conjunct_at_a_time_error() {
    // Row 1 passes the first conjunct and fails the second; row 2 fails
    // the first. Applying one conjunct to every row before the next
    // meets row 2's `ln` error first, and so must a scan that tests each
    // row against all its conjuncts in one pass. (Passes before the scan
    // fused its filters too: it pins that error.)
    let mut d = Database::in_memory();
    d.execute("create table e (a int, b int)").unwrap();
    d.execute("insert into e values (1, -1), (-5, 1)").unwrap();
    for sql in [
        "select a from e where ln(a) > -100 and sqrt(b) > -1",
        // Residual conjuncts over a join's rows, on a filter node.
        "select count(*) from e, e e2 where e.a = e2.a \
         and ln(e.a + 0 * e2.a) > -100 and sqrt(e.b + 0 * e2.b) > -1",
    ] {
        let err = d.execute(sql).unwrap_err().to_string();
        assert!(err.contains("ln of non-positive value -5"), "{sql}: {err}");
    }
    // Swapped, the first conjunct's failure is row 1's `sqrt`.
    let err = d
        .execute("select a from e where sqrt(b) > -1 and ln(a) > -100")
        .unwrap_err()
        .to_string();
    assert!(err.contains("sqrt of negative value -1"), "{err}");
}

#[test]
fn a_producers_error_wins_over_its_consumers_earlier_one() {
    // Row 1 passes the filter and fails its consumer (`ln(-1)`); row 2
    // fails the filter. Run to completion, the filter fails before its
    // consumer sees a row, so a pushed row must not let the consumer's
    // error on row 1 win over the filter's on row 2.
    let mut d = Database::in_memory();
    d.execute("create table e (a int, b int)").unwrap();
    d.execute("insert into e values (1, -1), (-5, 1)").unwrap();
    for sql in [
        // A scan's pushed filter, under a projection.
        "select ln(b) from e where ln(a) > -100",
        // Under an aggregate.
        "select sum(ln(b)) from e where ln(a) > -100",
        // A filter node over a join's rows, under a projection.
        "select ln(e.b) from e, e e2 where e.a = e2.a and ln(e.a + 0 * e2.a) > -100",
    ] {
        let err = d.execute(sql).unwrap_err().to_string();
        assert!(err.contains("ln of non-positive value -5"), "{sql}: {err}");
    }
}

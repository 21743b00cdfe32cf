//! Join operators: hash, sort-merge, and nested-loop.
//!
//! The SQL planner runs every equi-join as a [`hash_join`], which neither
//! sorts nor touches the buffer pool, and a join with no equi key as a
//! [`nested_loop_join`]. [`merge_join`] is the paper's Figure 3 rewrite,
//! which turns the classifier's per-term probe loop into "one inner and
//! one left outer join" over inputs the bulk probe sorts itself (§3.1
//! credits sort-merge plans for an order-of-magnitude discovery-rate
//! increase). It produces no rows: it hands each left row its run of
//! matching right rows, so the bulk probe folds both joins into one pass.
//! The test oracle collects rows over it, so the planner is checked
//! against a second algorithm.

use crate::error::{DbError, DbResult};
use crate::exec::expr::Expr;
use crate::exec::Feed;
use crate::value::{Row, Value};
use std::cmp::Ordering;
use std::collections::hash_map::RandomState;
use std::hash::{BuildHasher, Hash, Hasher};

/// Merge join (equi): one pass over two inputs already sorted ascending
/// on their key columns. Calls `f(left_row, run)` once per left row, in
/// order, where `run` is the slice of right rows whose key equals that
/// row's key — empty when nothing matches or the key holds a NULL
/// (SQL: NULL joins with nothing). Keys are compared in place; nothing
/// is allocated per row.
pub fn merge_join(
    left: &[Row],
    right: &[Row],
    lkeys: &[usize],
    rkeys: &[usize],
    mut f: impl FnMut(&Row, &[Row]),
) -> DbResult<()> {
    assert_eq!(lkeys.len(), rkeys.len(), "join key arity mismatch");
    // Also the bounds check: the comparison below indexes unchecked.
    let has_null = |row: &Row, cols: &[usize]| -> DbResult<bool> {
        for &c in cols {
            let v = row
                .get(c)
                .ok_or_else(|| DbError::Eval(format!("join key column {c} out of bounds")))?;
            if v.is_null() {
                return Ok(true);
            }
        }
        Ok(false)
    };
    // The right row's key against the left row's.
    let cmp = |l: &Row, r: &Row| {
        let cols = lkeys.iter().zip(rkeys);
        cols.map(|(&a, &b)| r[b].cmp(&l[a]))
            .find(|o| o.is_ne())
            .unwrap_or(Ordering::Equal)
    };
    let mut ri = 0;
    for l in left {
        if has_null(l, lkeys)? {
            f(l, &[]);
            continue;
        }
        while ri < right.len() && (has_null(&right[ri], rkeys)? || cmp(l, &right[ri]).is_lt()) {
            ri += 1;
        }
        // `ri` stays at the run's start: the next left row may share its key.
        let mut end = ri;
        while end < right.len() && !has_null(&right[end], rkeys)? && cmp(l, &right[end]).is_eq() {
            end += 1;
        }
        f(l, &right[ri..end]);
    }
    Ok(())
}

/// Hash join on equi keys: every pair of rows whose key columns are
/// pairwise equal under [`Value`]'s `Eq` (so `Int(1)` meets `Float(1.0)`),
/// handed to `sink` as `left ++ right` rows, built one at a time in one
/// reused row. A NULL in a key column matches nothing. `outer = Some(n)`
/// makes it a left outer join: a left row with no match comes out once,
/// padded with `n` NULLs. After `sink`'s first error it is handed nothing
/// more; that error is returned unless the join fails itself (see
/// [`crate::exec::Feed`]).
///
/// An inner join builds its table on the smaller input and probes it
/// with the other; a left outer join builds on `right`. Rows come out in
/// probe-input order, each probe row's matches in build-input order.
/// Keys are hashed in place (no per-row key is allocated), and a probe
/// compares its key with every build row of equal hash, so the result
/// is the nested-loop result even where `Value` equality is not
/// transitive: `Float(2⁵³)` equals both `Int(2⁵³)` and `Int(2⁵³ + 1)`
/// and joins with both, while those two ints do not join with each
/// other.
pub fn hash_join(
    left: &[Row],
    right: &[Row],
    lkeys: &[usize],
    rkeys: &[usize],
    outer: Option<usize>,
    sink: impl FnMut(&mut Row) -> DbResult<()>,
) -> DbResult<()> {
    const NIL: usize = usize::MAX;
    assert_eq!(lkeys.len(), rkeys.len(), "join key arity mismatch");
    let build_left = outer.is_none() && left.len() < right.len();
    let (build, bkeys, probe, pkeys) = if build_left {
        (left, lkeys, right, rkeys)
    } else {
        (right, rkeys, left, lkeys)
    };
    let state = RandomState::new();
    let hash = |row: &Row, cols: &[usize]| -> DbResult<Option<u64>> {
        let mut h = state.build_hasher();
        for &c in cols {
            let v = row
                .get(c)
                .ok_or_else(|| DbError::Eval(format!("join key column {c} out of bounds")))?;
            if v.is_null() {
                return Ok(None);
            }
            v.hash(&mut h);
        }
        Ok(Some(h.finish()))
    };
    // Chained table: `heads[bucket]` is the first build row of the
    // bucket, `chain[i]` row i's hash and the next row; chains ascend.
    let mask = build.len().next_power_of_two() - 1;
    let mut heads = vec![NIL; mask + 1];
    let mut chain = vec![(0, NIL); build.len()];
    for (i, row) in build.iter().enumerate().rev() {
        if let Some(h) = hash(row, bkeys)? {
            let bucket = h as usize & mask;
            chain[i] = (h, heads[bucket]);
            heads[bucket] = i;
        }
    }
    let (mut out, mut row) = (Feed::new(sink), Row::new());
    for p in probe {
        let mut matched = false;
        if let Some(h) = hash(p, pkeys)? {
            let mut i = heads[h as usize & mask];
            while i != NIL {
                let (hi, next) = chain[i];
                let b = &build[i];
                if hi == h && bkeys.iter().zip(pkeys).all(|(&x, &y)| b[x] == p[y]) {
                    matched = true;
                    if out.open() {
                        let (l, r) = if build_left { (b, p) } else { (p, b) };
                        row.clear();
                        row.reserve(l.len() + r.len());
                        row.extend_from_slice(l);
                        row.extend_from_slice(r);
                        out.push(&mut row);
                    }
                }
                i = next;
            }
        }
        if let (false, Some(pad), true) = (matched, outer, out.open()) {
            row.clear();
            row.reserve(p.len() + pad);
            row.extend_from_slice(p);
            row.extend(std::iter::repeat_n(Value::Null, pad));
            out.push(&mut row);
        }
    }
    out.finish(Ok(()))
}

/// Nested-loop join with an arbitrary predicate over the concatenated row.
/// `outer = Some(n)` makes it a left outer join: a left row with no match
/// comes out once, padded with `n` NULLs (even when `right` is empty).
pub fn nested_loop_join(
    left: &[Row],
    right: &[Row],
    pred: &Expr,
    outer: Option<usize>,
) -> DbResult<Vec<Row>> {
    let mut out = Vec::new();
    let mut scratch: Row = Vec::new();
    for l in left {
        let mut matched = false;
        for r in right {
            scratch.clear();
            scratch.extend(l.iter().cloned());
            scratch.extend(r.iter().cloned());
            if pred.eval(&scratch)?.is_truthy() {
                matched = true;
                out.push(scratch.clone());
            }
        }
        if let (false, Some(pad)) = (matched, outer) {
            let mut row = l.clone();
            row.extend(std::iter::repeat_n(Value::Null, pad));
            out.push(row);
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::expr::BinOp;
    use crate::exec::sort::{sort_rows, SortKey};

    fn l_rows() -> Vec<Row> {
        vec![
            vec![Value::Int(1), Value::Str("a".into())],
            vec![Value::Int(2), Value::Str("b".into())],
            vec![Value::Int(2), Value::Str("b2".into())],
            vec![Value::Int(4), Value::Str("d".into())],
            vec![Value::Null, Value::Str("n".into())],
        ]
    }

    fn r_rows() -> Vec<Row> {
        vec![
            vec![Value::Int(2), Value::Float(0.2)],
            vec![Value::Int(2), Value::Float(0.25)],
            vec![Value::Int(3), Value::Float(0.3)],
            vec![Value::Int(4), Value::Float(0.4)],
        ]
    }

    /// [`merge_join`]'s rows in [`hash_join`]'s shape: `left ++ right` per
    /// match, and with `outer = Some(n)` a left row whose run is empty,
    /// padded with `n` NULLs.
    fn merged(
        left: &[Row],
        right: &[Row],
        lk: &[usize],
        rk: &[usize],
        outer: Option<usize>,
    ) -> Vec<Row> {
        let mut out = Vec::new();
        merge_join(left, right, lk, rk, |l, run| {
            out.extend(run.iter().map(|r| [l.as_slice(), r].concat()));
            if let (true, Some(pad)) = (run.is_empty(), outer) {
                let mut row = l.clone();
                row.extend(std::iter::repeat_n(Value::Null, pad));
                out.push(row);
            }
        })
        .unwrap();
        out
    }

    /// [`hash_join`]'s rows, collected.
    fn hash_join_rows(
        left: &[Row],
        right: &[Row],
        lk: &[usize],
        rk: &[usize],
        outer: Option<usize>,
    ) -> DbResult<Vec<Row>> {
        let mut out = Vec::new();
        hash_join(left, right, lk, rk, outer, |row| {
            out.push(std::mem::take(row));
            Ok(())
        })?;
        Ok(out)
    }

    fn sorted(rows: Vec<Row>, col: usize) -> Vec<Row> {
        sort_rows(rows, &[SortKey::asc(col)]).unwrap()
    }

    #[test]
    fn merge_inner_matches_hash_inner() {
        let l = sorted(l_rows(), 0);
        let r = sorted(r_rows(), 0);
        let mut m = merged(&l, &r, &[0], &[0], None);
        let mut h = hash_join_rows(&l, &r, &[0], &[0], None).unwrap();
        m.sort_by(|a, b| format!("{a:?}").cmp(&format!("{b:?}")));
        h.sort_by(|a, b| format!("{a:?}").cmp(&format!("{b:?}")));
        assert_eq!(m, h);
        // 2 left rows with key 2 × 2 right rows + key-4 pair = 5 rows.
        assert_eq!(m.len(), 5);
    }

    #[test]
    fn left_outer_pads_unmatched() {
        let l = sorted(l_rows(), 0);
        let r = sorted(r_rows(), 0);
        let m = merged(&l, &r, &[0], &[0], Some(2));
        // 5 matches + unmatched keys {1, NULL} = 7 rows.
        assert_eq!(m.len(), 7);
        let unmatched: Vec<&Row> = m.iter().filter(|r| r[2].is_null()).collect();
        assert_eq!(unmatched.len(), 2);
        for u in unmatched {
            assert_eq!(u.len(), 4);
            assert!(u[3].is_null());
        }
        // Hash left-outer agrees on multiset.
        let mut h = hash_join_rows(&l, &r, &[0], &[0], Some(2)).unwrap();
        let mut m2 = m.clone();
        h.sort_by(|a, b| format!("{a:?}").cmp(&format!("{b:?}")));
        m2.sort_by(|a, b| format!("{a:?}").cmp(&format!("{b:?}")));
        assert_eq!(h, m2);
    }

    #[test]
    fn null_keys_never_match() {
        let l = vec![vec![Value::Null], vec![Value::Int(1)]];
        let r = vec![vec![Value::Null], vec![Value::Int(1)]];
        let out = hash_join_rows(&l, &r, &[0], &[0], None).unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0][0], Value::Int(1));
    }

    #[test]
    fn nested_loop_arbitrary_predicate() {
        let l = vec![vec![Value::Int(1)], vec![Value::Int(5)]];
        let r = vec![vec![Value::Int(3)], vec![Value::Int(4)]];
        // join on l.c0 < r.c0 (concatenated row: col0 = left, col1 = right)
        let pred = Expr::bin(BinOp::Lt, Expr::Col(0), Expr::Col(1));
        let out = nested_loop_join(&l, &r, &pred, None).unwrap();
        assert_eq!(out.len(), 2); // (1,3), (1,4)
        let outer = nested_loop_join(&l, &r, &pred, Some(1)).unwrap();
        assert_eq!(outer.len(), 3); // + (5, NULL)
        assert!(outer[2][1].is_null());
    }

    #[test]
    fn empty_inputs() {
        let e: Vec<Row> = vec![];
        let r = r_rows();
        assert!(merged(&e, &r, &[0], &[0], None).is_empty());
        assert!(hash_join_rows(&e, &r, &[0], &[0], None).unwrap().is_empty());
        let l = l_rows();
        let out = merged(&l, &e, &[0], &[0], Some(2));
        assert_eq!(out.len(), l.len(), "all left rows padded");
        assert_eq!(hash_join_rows(&l, &e, &[0], &[0], Some(2)).unwrap(), out);
    }

    #[test]
    fn hash_join_is_pairwise_where_equality_is_not_transitive() {
        // `Float(2⁵³)` equals both ints; the ints differ from each other.
        let big = 1i64 << 53;
        let l = vec![
            vec![Value::Float(big as f64)],
            vec![Value::Int(big)],
            vec![Value::Int(big + 1)],
        ];
        let pairs = |out: Vec<Row>| -> Vec<(Value, Value)> {
            out.into_iter()
                .map(|r| (r[0].clone(), r[1].clone()))
                .collect()
        };
        let out = pairs(hash_join_rows(&l, &l, &[0], &[0], None).unwrap());
        let mut expect = Vec::new();
        for a in &l {
            for b in &l {
                if a[0] == b[0] {
                    expect.push((a[0].clone(), b[0].clone()));
                }
            }
        }
        assert_eq!(out, expect, "the nested-loop pairs, in probe order");
        assert_eq!(out.len(), 7, "float×3, int×2 (float, itself) each");
    }

    #[test]
    fn composite_keys() {
        let l = vec![
            vec![Value::Int(1), Value::Int(10), Value::Str("x".into())],
            vec![Value::Int(1), Value::Int(11), Value::Str("y".into())],
        ];
        let r = vec![vec![Value::Int(1), Value::Int(11), Value::Float(0.5)]];
        let out = hash_join_rows(&l, &r, &[0, 1], &[0, 1], None).unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0][2], Value::Str("y".into()));
        let m = merged(&l, &r, &[0, 1], &[0, 1], None);
        assert_eq!(m, out);
    }

    #[test]
    fn merge_join_repeated_left_keys_rescan_right_group() {
        // Regression: ri must not advance past a group consumed by an
        // earlier equal left key.
        let l = vec![
            vec![Value::Int(2)],
            vec![Value::Int(2)],
            vec![Value::Int(2)],
        ];
        let r = vec![vec![Value::Int(2)], vec![Value::Int(2)]];
        let out = merged(&l, &r, &[0], &[0], None);
        assert_eq!(out.len(), 6);
    }
}

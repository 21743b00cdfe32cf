//! Join operators: hash, sort-merge (inner and left outer), and
//! nested-loop.
//!
//! The SQL planner runs every equi-join as a [`hash_join`], which neither
//! sorts nor touches the buffer pool, and a join with no equi key as a
//! [`nested_loop_join`]. The merge joins implement the paper's Figure 3
//! rewrite, which turns the classifier's per-term probe loop into "one
//! inner and one left outer join" over inputs the bulk probe sorts
//! itself (§3.1 credits sort-merge plans for an order-of-magnitude
//! discovery-rate increase); the test oracle joins with them too, so the
//! planner is checked against a second algorithm.

use crate::error::{DbError, DbResult};
use crate::exec::expr::Expr;
use crate::value::{Row, Value};
use std::collections::hash_map::RandomState;
use std::hash::{BuildHasher, Hash, Hasher};

fn key_of(row: &Row, cols: &[usize]) -> DbResult<Option<Vec<Value>>> {
    let mut key = Vec::with_capacity(cols.len());
    for &c in cols {
        let v = row
            .get(c)
            .ok_or_else(|| DbError::Eval(format!("join key column {c} out of bounds")))?;
        if v.is_null() {
            return Ok(None); // SQL: NULL joins with nothing
        }
        key.push(v.clone());
    }
    Ok(Some(key))
}

/// Merge join (inner, equi). Both inputs must already be sorted ascending
/// on their key columns.
pub fn merge_join_inner(
    left: &[Row],
    right: &[Row],
    lkeys: &[usize],
    rkeys: &[usize],
) -> DbResult<Vec<Row>> {
    merge_join(left, right, lkeys, rkeys, false, 0)
}

/// Left outer merge join: unmatched left rows are padded with
/// `right_arity` NULLs. Inputs sorted ascending on key columns.
pub fn merge_join_left_outer(
    left: &[Row],
    right: &[Row],
    lkeys: &[usize],
    rkeys: &[usize],
    right_arity: usize,
) -> DbResult<Vec<Row>> {
    merge_join(left, right, lkeys, rkeys, true, right_arity)
}

fn merge_join(
    left: &[Row],
    right: &[Row],
    lkeys: &[usize],
    rkeys: &[usize],
    outer: bool,
    right_arity: usize,
) -> DbResult<Vec<Row>> {
    assert_eq!(lkeys.len(), rkeys.len(), "join key arity mismatch");
    let mut out = Vec::new();
    let mut li = 0;
    let mut ri = 0;
    let emit_unmatched = |row: &Row, out: &mut Vec<Row>| {
        if outer {
            let mut r = row.clone();
            r.extend(std::iter::repeat_n(Value::Null, right_arity));
            out.push(r);
        }
    };
    while li < left.len() {
        let lk = match key_of(&left[li], lkeys)? {
            Some(k) => k,
            None => {
                emit_unmatched(&left[li], &mut out);
                li += 1;
                continue;
            }
        };
        // Advance right until >= lk.
        while ri < right.len() {
            match key_of(&right[ri], rkeys)? {
                Some(rk) if rk.as_slice() < lk.as_slice() => ri += 1,
                Some(_) => break,
                None => ri += 1,
            }
        }
        // Check match group.
        let group_start = ri;
        let mut matched = false;
        let mut rj = group_start;
        while rj < right.len() {
            match key_of(&right[rj], rkeys)? {
                Some(rk) if rk == lk => {
                    matched = true;
                    let mut r = left[li].clone();
                    r.extend(right[rj].iter().cloned());
                    out.push(r);
                    rj += 1;
                }
                _ => break,
            }
        }
        if !matched {
            emit_unmatched(&left[li], &mut out);
        }
        li += 1;
        // Do not advance ri past the group: the next left row may share lk.
    }
    Ok(out)
}

/// Hash join on equi keys: every pair of rows whose key columns are
/// pairwise equal under [`Value`]'s `Eq` (so `Int(1)` meets `Float(1.0)`),
/// as `left ++ right` rows. A NULL in a key column matches nothing.
/// `outer = Some(n)` makes it a left outer join: a left row with no match
/// comes out once, padded with `n` NULLs.
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
) -> DbResult<Vec<Row>> {
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
    let mut out = Vec::with_capacity(probe.len());
    for p in probe {
        let mut matched = false;
        if let Some(h) = hash(p, pkeys)? {
            let mut i = heads[h as usize & mask];
            while i != NIL {
                let (hi, next) = chain[i];
                let b = &build[i];
                if hi == h && bkeys.iter().zip(pkeys).all(|(&x, &y)| b[x] == p[y]) {
                    matched = true;
                    let (l, r) = if build_left { (b, p) } else { (p, b) };
                    let mut row = Vec::with_capacity(l.len() + r.len());
                    row.extend_from_slice(l);
                    row.extend_from_slice(r);
                    out.push(row);
                }
                i = next;
            }
        }
        if let (false, Some(pad)) = (matched, outer) {
            let mut row = p.clone();
            row.extend(std::iter::repeat_n(Value::Null, pad));
            out.push(row);
        }
    }
    Ok(out)
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

    fn sorted(rows: Vec<Row>, col: usize) -> Vec<Row> {
        sort_rows(rows, &[SortKey::asc(col)]).unwrap()
    }

    #[test]
    fn merge_inner_matches_hash_inner() {
        let l = sorted(l_rows(), 0);
        let r = sorted(r_rows(), 0);
        let mut m = merge_join_inner(&l, &r, &[0], &[0]).unwrap();
        let mut h = hash_join(&l, &r, &[0], &[0], None).unwrap();
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
        let m = merge_join_left_outer(&l, &r, &[0], &[0], 2).unwrap();
        // 5 matches + unmatched keys {1, NULL} = 7 rows.
        assert_eq!(m.len(), 7);
        let unmatched: Vec<&Row> = m.iter().filter(|r| r[2].is_null()).collect();
        assert_eq!(unmatched.len(), 2);
        for u in unmatched {
            assert_eq!(u.len(), 4);
            assert!(u[3].is_null());
        }
        // Hash left-outer agrees on multiset.
        let mut h = hash_join(&l, &r, &[0], &[0], Some(2)).unwrap();
        let mut m2 = m.clone();
        h.sort_by(|a, b| format!("{a:?}").cmp(&format!("{b:?}")));
        m2.sort_by(|a, b| format!("{a:?}").cmp(&format!("{b:?}")));
        assert_eq!(h, m2);
    }

    #[test]
    fn null_keys_never_match() {
        let l = vec![vec![Value::Null], vec![Value::Int(1)]];
        let r = vec![vec![Value::Null], vec![Value::Int(1)]];
        let out = hash_join(&l, &r, &[0], &[0], None).unwrap();
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
        assert!(merge_join_inner(&e, &r, &[0], &[0]).unwrap().is_empty());
        assert!(hash_join(&e, &r, &[0], &[0], None).unwrap().is_empty());
        let l = l_rows();
        let out = merge_join_left_outer(&l, &e, &[0], &[0], 2).unwrap();
        assert_eq!(out.len(), l.len(), "all left rows padded");
        assert_eq!(hash_join(&l, &e, &[0], &[0], Some(2)).unwrap(), out);
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
        let out = pairs(hash_join(&l, &l, &[0], &[0], None).unwrap());
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
        let out = hash_join(&l, &r, &[0, 1], &[0, 1], None).unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0][2], Value::Str("y".into()));
        let m = merge_join_inner(&l, &r, &[0, 1], &[0, 1]).unwrap();
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
        let out = merge_join_inner(&l, &r, &[0], &[0]).unwrap();
        assert_eq!(out.len(), 6);
    }
}

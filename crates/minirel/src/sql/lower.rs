//! Preparation and execution: planned tree → rows.
//!
//! [`prepare_plan`] turns a parsed SELECT, INSERT, UPDATE or DELETE into
//! an [`ExecPlan`]: the planner's immutable, `Send + Sync` operator tree
//! (access paths and join algorithms already chosen, see
//! [`crate::sql::plan`]) that can be cached and re-executed with
//! different parameter bindings, plus — for DML — the write step its
//! rows feed. [`execute_plan`] runs the tree through shared borrows;
//! [`execute_write`] then applies a DML plan's rows through
//! `Catalog::{insert_many, update_many, delete_row}`, the only place SQL
//! reaches them. EXPLAIN renders the same tree.
//!
//! **Execution contract.** Plans keep parameters (`?`), `current
//! timestamp`, and subquery results symbolic. [`execute_plan`]
//! *specializes* each operator's expressions — substituting
//! [`Expr::Param`]/[`Expr::Now`]/[`Expr::SubScalar`]/[`Expr::InSub`]
//! leaves with literals — and then runs the operator kernels of
//! [`crate::exec`] ([`hash_join`], [`sort_rows`], [`aggregate`]), all in
//! memory: a read phase allocates no store pages.
//! Uncorrelated subqueries and CTEs are (re-)executed
//! on every call, so a cached plan observes source-table mutations,
//! fresh parameters, and clock updates.
//!
//! **Row-order contract.** Index probes collect rids, sort them, and
//! fetch page-grouped ([`crate::heap::HeapFile::get_many`]), so eq/range/
//! IN probes return rows in heap order — byte-identical to what a
//! sequential scan produces, and the order a DML write step applies its
//! rows in, whichever access path found them. The single accepted
//! divergence is the index-only scan, which returns rows in key order
//! (DML read phases never use it).

use crate::buffer::BufferPool;
use crate::catalog::{Catalog, TableId};
use crate::error::{DbError, DbResult};
use crate::exec::agg::{aggregate, AggCall};
use crate::exec::expr::Expr;
use crate::exec::join::{hash_join, nested_loop_join};
use crate::exec::sort::{sort_rows, SortKey};
use crate::heap::Rid;
use crate::schema::ColumnType;
use crate::sql::ast::Statement;
use crate::sql::plan::{
    arity, plan_statement, InSrc, IndexProbe, Node, SelectPlan, SubKind, Write,
};
use crate::value::{
    decode_composite_key, decode_row, decode_row_pruned, encode_composite_key, Row, Value,
};
use std::ops::Bound;
use std::rc::Rc;

/// A prepared, executable plan.
#[derive(Debug)]
pub struct ExecPlan {
    /// Number of `?` parameters the statement takes.
    pub param_count: usize,
    /// Number of CTE materialization slots across the whole statement.
    pub num_slots: usize,
    /// The operator tree (plus its CTE and subquery plans).
    pub root: SelectPlan,
    /// Output column names.
    pub columns: Vec<String>,
    /// `EXPLAIN <select>`: the rendered plan, which executing returns
    /// instead of the rows. Rendered for that statement only.
    pub explain: Option<Vec<String>>,
    /// DML: what [`execute_write`] does with the rows `root` produces.
    pub write: Option<Write>,
}

/// Plan a SELECT, INSERT, UPDATE or DELETE. For `EXPLAIN <select>` the
/// plan is built (and cached) identically but executing it returns the
/// rendered plan text.
pub fn prepare_plan(catalog: &Catalog, stmt: &Statement) -> DbResult<ExecPlan> {
    let (root, write, num_slots, param_count) = plan_statement(catalog, stmt)?;
    let columns = root.out_cols.iter().map(|c| c.name.clone()).collect();
    let explain = matches!(stmt, Statement::Explain(_)).then(|| {
        let mut text = Vec::new();
        render_select(&root, 0, &mut text);
        text
    });
    Ok(ExecPlan {
        param_count,
        num_slots,
        root,
        columns,
        explain,
        write,
    })
}

// ---------------------------------------------------------------- specialize

/// Per-execution result of an uncorrelated subquery.
#[derive(Debug, Clone)]
pub enum SubResult {
    /// Scalar value (`NULL` when the subquery produced no rows).
    Scalar(Value),
    /// First-column value list.
    List(Vec<Value>),
}

/// Substitute execution-time leaves — parameters, the session clock, and
/// subquery results — turning a cached plan expression into one the
/// shared operator kernels can evaluate directly.
pub fn specialize(e: &Expr, params: &[Value], now: i64, subs: &[SubResult]) -> DbResult<Expr> {
    Ok(match e {
        Expr::Col(_) | Expr::Lit(_) => e.clone(),
        Expr::Param(i) => {
            Expr::Lit(params.get(*i).cloned().ok_or_else(|| {
                DbError::Binding(format!("no value bound for parameter ?{}", i + 1))
            })?)
        }
        Expr::Now => Expr::Lit(Value::Int(now)),
        Expr::SubScalar(i) => match subs.get(*i) {
            Some(SubResult::Scalar(v)) => Expr::Lit(v.clone()),
            _ => return Err(DbError::Eval("scalar subquery slot out of range".into())),
        },
        Expr::InSub(probe, i, negated) => {
            let list = match subs.get(*i) {
                Some(SubResult::List(vs)) => vs.clone(),
                _ => {
                    return Err(DbError::Eval("IN subquery slot out of range".into()));
                }
            };
            Expr::InList(
                Box::new(specialize(probe, params, now, subs)?),
                list,
                *negated,
            )
        }
        Expr::Bin(op, l, r) => Expr::bin(
            *op,
            specialize(l, params, now, subs)?,
            specialize(r, params, now, subs)?,
        ),
        Expr::Un(op, x) => Expr::Un(*op, Box::new(specialize(x, params, now, subs)?)),
        Expr::IsNull(x, n) => Expr::IsNull(Box::new(specialize(x, params, now, subs)?), *n),
        Expr::InList(x, vals, n) => Expr::InList(
            Box::new(specialize(x, params, now, subs)?),
            vals.clone(),
            *n,
        ),
        Expr::Call(f, args) => Expr::Call(
            *f,
            args.iter()
                .map(|a| specialize(a, params, now, subs))
                .collect::<DbResult<_>>()?,
        ),
    })
}

// ---------------------------------------------------------------- executor

struct Env<'a> {
    pool: &'a BufferPool,
    catalog: &'a Catalog,
    params: &'a [Value],
    now: i64,
    slots: Vec<Option<Rc<Vec<Row>>>>,
}

/// Execute a prepared plan. `params` must match the plan's declared
/// parameter count. For `EXPLAIN` plans the rendered plan text is
/// returned as one single-column row per line.
pub fn execute_plan(
    pool: &BufferPool,
    catalog: &Catalog,
    plan: &ExecPlan,
    params: &[Value],
    now: i64,
) -> DbResult<Vec<Row>> {
    if params.len() != plan.param_count {
        return Err(DbError::Binding(format!(
            "statement takes {} parameter(s), got {}",
            plan.param_count,
            params.len()
        )));
    }
    if let Some(text) = &plan.explain {
        return Ok(text.iter().map(|l| vec![Value::Str(l.clone())]).collect());
    }
    let mut env = Env {
        pool,
        catalog,
        params,
        now,
        slots: vec![None; plan.num_slots],
    };
    exec_select(&mut env, &plan.root)
}

/// The write step of a DML plan: apply the rows its read phase produced
/// (all of them, so the statement has read everything it will read) and
/// return the affected count. Inserts and updates go through the batch
/// catalog paths, which validate and encode every row before the first
/// heap write — a rejected statement changes nothing.
pub fn execute_write(
    pool: &BufferPool,
    catalog: &mut Catalog,
    write: &Write,
    rows: Vec<Row>,
) -> DbResult<u64> {
    let affected = rows.len() as u64;
    let (Write::Insert { tid, .. } | Write::Update { tid, .. } | Write::Delete { tid }) = write;
    let arity = catalog.table(*tid).schema.arity();
    match write {
        Write::Insert { positions, .. } => {
            let full = rows.into_iter().map(|src| {
                let mut row = vec![Value::Null; arity];
                for (v, &p) in src.into_iter().zip(positions) {
                    row[p] = v;
                }
                row
            });
            catalog.insert_many(pool, *tid, full.collect())?;
        }
        Write::Update { sets, .. } => {
            let mut updates = Vec::with_capacity(rows.len());
            for mut old in rows {
                let values = old.split_off(arity + 1);
                let rid = value_rid(&old[arity]);
                old.truncate(arity);
                let mut new = old.clone();
                for (&p, v) in sets.iter().zip(values) {
                    new[p] = v;
                }
                updates.push((rid, old, new));
            }
            catalog.update_many(pool, *tid, updates)?;
        }
        Write::Delete { .. } => {
            for row in &rows {
                catalog.delete_row(pool, *tid, value_rid(&row[arity]))?;
            }
        }
    }
    Ok(affected)
}

fn exec_select(env: &mut Env<'_>, plan: &SelectPlan) -> DbResult<Vec<Row>> {
    for c in &plan.ctes {
        let rows = exec_select(env, &c.plan)?;
        env.slots[c.slot] = Some(Rc::new(rows));
    }
    // Subqueries re-run on every execution: a prepared plan must observe
    // mutations to the subquery's source tables between executions.
    let mut subvals = Vec::with_capacity(plan.subs.len());
    for s in &plan.subs {
        let rows = exec_select(env, &s.plan)?;
        subvals.push(match s.kind {
            SubKind::Scalar => {
                if rows.len() > 1 {
                    return Err(DbError::Binding(format!(
                        "scalar subquery produced {} rows",
                        rows.len()
                    )));
                }
                SubResult::Scalar(rows.into_iter().next().map_or(Value::Null, |mut r| {
                    if r.is_empty() {
                        Value::Null
                    } else {
                        r.remove(0)
                    }
                }))
            }
            SubKind::List => SubResult::List(rows.into_iter().map(|mut r| r.remove(0)).collect()),
        });
    }
    exec_node(env, &plan.root, &subvals)
}

fn apply_filters(
    env: &Env<'_>,
    mut rows: Vec<Row>,
    filters: &[Expr],
    subs: &[SubResult],
) -> DbResult<Vec<Row>> {
    // One conjunct at a time, in order: the first failing conjunct's
    // evaluation error surfaces (the order the test-side oracle pins).
    for f in filters {
        let f = specialize(f, env.params, env.now, subs)?;
        let mut kept = Vec::with_capacity(rows.len());
        for row in rows {
            if f.eval(&row)?.is_truthy() {
                kept.push(row);
            }
        }
        rows = kept;
    }
    Ok(rows)
}

/// A rid as the trailing value a `with_rid` scan appends to its rows.
fn rid_value(rid: Rid) -> Value {
    Value::Int(i64::from(rid.page) << 16 | i64::from(rid.slot))
}

/// Inverse of [`rid_value`], for the write step.
fn value_rid(v: &Value) -> Rid {
    let i = v.as_i64().expect("a with_rid scan appends an Int");
    Rid {
        page: (i >> 16) as u32,
        slot: i as u16,
    }
}

fn seq_scan(
    env: &Env<'_>,
    tid: TableId,
    keep: &Option<Vec<bool>>,
    with_rid: bool,
) -> DbResult<Vec<Row>> {
    if with_rid {
        // DML read phase: every column (the write step takes the old
        // row), the rid last. Heap order is rid order.
        let rows = env.catalog.scan_table(env.pool, tid)?;
        return Ok(rows
            .into_iter()
            .map(|(rid, mut row)| {
                row.push(rid_value(rid));
                row
            })
            .collect());
    }
    match keep {
        Some(mask) => env.catalog.scan_rows_pruned(env.pool, tid, mask),
        None => Ok(env
            .catalog
            .scan_table(env.pool, tid)?
            .into_iter()
            .map(|(_, r)| r)
            .collect()),
    }
}

fn exec_node(env: &mut Env<'_>, node: &Node, subs: &[SubResult]) -> DbResult<Vec<Row>> {
    match node {
        Node::Scan { index: Some(_), .. } => exec_index_scan(env, node, subs),
        Node::Scan {
            tid,
            keep,
            filters,
            with_rid,
            ..
        } => {
            let rows = seq_scan(env, *tid, keep, *with_rid)?;
            apply_filters(env, rows, filters, subs)
        }
        Node::Values(rows) => {
            let empty: Row = Vec::new();
            let mut out = Vec::with_capacity(rows.len());
            for exprs in rows {
                let mut row = Vec::with_capacity(exprs.len());
                for e in exprs {
                    row.push(specialize(e, env.params, env.now, subs)?.eval(&empty)?);
                }
                out.push(row);
            }
            Ok(out)
        }
        Node::CteScan { slot, filters, .. } => {
            let rows = env.slots[*slot]
                .as_ref()
                .ok_or_else(|| DbError::Eval(format!("CTE slot {slot} not materialized")))?
                .as_ref()
                .clone();
            apply_filters(env, rows, filters, subs)
        }
        Node::HashJoin {
            left,
            right,
            lk,
            rk,
            outer,
        } => {
            let l = exec_node(env, left, subs)?;
            let r = exec_node(env, right, subs)?;
            hash_join(&l, &r, lk, rk, outer.then(|| arity(right)))
        }
        Node::NlJoin {
            left,
            right,
            pred,
            outer,
        } => {
            let l = exec_node(env, left, subs)?;
            let r = exec_node(env, right, subs)?;
            let p = specialize(pred, env.params, env.now, subs)?;
            nested_loop_join(&l, &r, &p, *outer)
        }
        Node::Permute { input, map } => {
            let rows = exec_node(env, input, subs)?;
            Ok(rows
                .into_iter()
                .map(|row| map.iter().map(|&i| row[i].clone()).collect())
                .collect())
        }
        Node::Filter { input, preds } => {
            let rows = exec_node(env, input, subs)?;
            apply_filters(env, rows, preds, subs)
        }
        Node::Agg { input, group, aggs } => {
            let rows = exec_node(env, input, subs)?;
            let g: Vec<Expr> = group
                .iter()
                .map(|e| specialize(e, env.params, env.now, subs))
                .collect::<DbResult<_>>()?;
            let a: Vec<AggCall> = aggs
                .iter()
                .map(|c| {
                    Ok(AggCall {
                        kind: c.kind,
                        arg: specialize(&c.arg, env.params, env.now, subs)?,
                    })
                })
                .collect::<DbResult<_>>()?;
            aggregate(&rows, &g, &a)
        }
        Node::Sort { input, keys } => {
            let rows = exec_node(env, input, subs)?;
            let sk: Vec<SortKey> = keys
                .iter()
                .map(|(e, desc)| {
                    Ok(SortKey {
                        expr: specialize(e, env.params, env.now, subs)?,
                        desc: *desc,
                    })
                })
                .collect::<DbResult<_>>()?;
            sort_rows(rows, &sk)
        }
        Node::Limit { input, n } => {
            let mut rows = exec_node(env, input, subs)?;
            rows.truncate(*n as usize);
            Ok(rows)
        }
        Node::Project { input, exprs } => {
            let rows = exec_node(env, input, subs)?;
            let es: Vec<Expr> = exprs
                .iter()
                .map(|e| specialize(e, env.params, env.now, subs))
                .collect::<DbResult<_>>()?;
            let mut out = Vec::with_capacity(rows.len());
            for row in &rows {
                let mut o = Vec::with_capacity(es.len());
                for e in &es {
                    o.push(e.eval(row)?);
                }
                out.push(o);
            }
            Ok(out)
        }
        Node::Distinct { input } => {
            let mut rows = exec_node(env, input, subs)?;
            let mut seen = std::collections::HashSet::new();
            rows.retain(|r| seen.insert(r.clone()));
            Ok(rows)
        }
    }
}

// -------------------------------------------------------- index-scan exec

/// Result of coercing an eq-probe value to the indexed column's type.
enum EqCoerce {
    /// Probe with this value.
    Val(Value),
    /// The predicate can never match (cross-class / fractional / NULL).
    NoMatch,
    /// Encoded-key equality would diverge from eval semantics — fall
    /// back to a sequential scan.
    Fallback,
}

/// Largest f64 below which every integral float maps to exactly one i64
/// (`2^53`; above it, distinct i64s collapse onto one f64).
const F64_EXACT: f64 = 9_007_199_254_740_992.0;

fn coerce_eq(v: Value, ty: ColumnType) -> EqCoerce {
    match (ty, v) {
        (_, Value::Null) => EqCoerce::NoMatch, // `= NULL` is false
        (ColumnType::Int, Value::Int(i)) => EqCoerce::Val(Value::Int(i)),
        (ColumnType::Int, Value::Float(f)) => {
            if f.is_nan() || f.fract() != 0.0 {
                EqCoerce::NoMatch
            } else if f.abs() < F64_EXACT {
                EqCoerce::Val(Value::Int(f as i64))
            } else {
                // Above 2^53, (huge_int as f64) == f can hold for ints
                // whose encoded keys differ from enc(f as i64).
                EqCoerce::Fallback
            }
        }
        // total_cmp compares Int-vs-Float through (i as f64), so probing
        // a float column with the widened int IS the eval semantics.
        (ColumnType::Float, Value::Int(i)) => EqCoerce::Val(Value::Float(i as f64)),
        (ColumnType::Float, Value::Float(f)) => EqCoerce::Val(Value::Float(f)),
        (ColumnType::Str, Value::Str(s)) => EqCoerce::Val(Value::Str(s)),
        _ => EqCoerce::NoMatch, // cross-class comparisons never equal
    }
}

/// Result of coercing a range bound.
enum RangeCoerce {
    /// Bound with this value.
    Val(Value),
    /// The range is empty (NULL bound).
    Empty,
    /// Drop this bound (always safe: full filters re-run as residuals).
    Open,
}

fn coerce_range(v: Value, ty: ColumnType, is_lo: bool) -> RangeCoerce {
    match (ty, v) {
        (_, Value::Null) => RangeCoerce::Empty, // comparisons with NULL are false
        (ColumnType::Int, Value::Int(i)) => RangeCoerce::Val(Value::Int(i)),
        (ColumnType::Int, Value::Float(f)) => {
            if f.is_nan() || f.abs() >= F64_EXACT {
                RangeCoerce::Open
            } else {
                // Round outward; the residual filter trims the overscan.
                let r = if is_lo { f.floor() } else { f.ceil() };
                RangeCoerce::Val(Value::Int(r as i64))
            }
        }
        (ColumnType::Float, Value::Int(i)) => RangeCoerce::Val(Value::Float(i as f64)),
        (ColumnType::Float, Value::Float(f)) => {
            if f.is_nan() {
                RangeCoerce::Open
            } else {
                RangeCoerce::Val(Value::Float(f))
            }
        }
        (ColumnType::Str, Value::Str(s)) => RangeCoerce::Val(Value::Str(s)),
        _ => RangeCoerce::Open,
    }
}

fn exec_index_scan(env: &mut Env<'_>, node: &Node, subs: &[SubResult]) -> DbResult<Vec<Row>> {
    let Node::Scan {
        tid,
        arity,
        keep,
        filters,
        with_rid,
        index: Some(probe),
        ..
    } = node
    else {
        unreachable!("exec_index_scan on a scan without a probe");
    };
    let IndexProbe {
        index_no,
        eq,
        range,
        in_probe,
        index_only,
        index_cols,
        col_types,
        ..
    } = probe;
    let t = env.catalog.table(*tid);
    let idx = &t.indexes[*index_no];
    let empty: Row = Vec::new();

    let fallback = |env: &Env<'_>| -> DbResult<Vec<Row>> {
        let rows = seq_scan(env, *tid, keep, *with_rid)?;
        apply_filters(env, rows, filters, subs)
    };

    // Eq-prefix key values.
    let mut prefix_vals = Vec::with_capacity(eq.len());
    for (j, e) in eq.iter().enumerate() {
        let v = specialize(e, env.params, env.now, subs)?.eval(&empty)?;
        match coerce_eq(v, col_types[index_cols[j]]) {
            EqCoerce::Val(v) => prefix_vals.push(v),
            EqCoerce::NoMatch => return Ok(Vec::new()),
            EqCoerce::Fallback => return fallback(env),
        }
    }
    let prefix = encode_composite_key(&prefix_vals);

    let mut rids: Vec<Rid> = Vec::new();
    let mut found_keys: Vec<Vec<u8>> = Vec::new();
    let decode_key_row = |k: &[u8]| -> DbResult<Row> {
        let vals = decode_composite_key(k)?;
        let mut row = vec![Value::Null; *arity];
        for (j, &c) in index_cols.iter().enumerate() {
            if let Some(v) = vals.get(j) {
                row[c] = v.clone();
            }
        }
        Ok(row)
    };

    if let Some(src) = in_probe {
        let list: Vec<Value> = match src {
            InSrc::List(vs) => vs.clone(),
            InSrc::Sub(i) => match subs.get(*i) {
                Some(SubResult::List(vs)) => vs.clone(),
                _ => {
                    return Err(DbError::Eval("IN subquery slot out of range".into()));
                }
            },
        };
        let mut keys: Vec<Vec<u8>> = Vec::with_capacity(list.len());
        for v in list {
            match coerce_eq(v, col_types[index_cols[0]]) {
                EqCoerce::Val(v) => keys.push(encode_composite_key(&[v])),
                EqCoerce::NoMatch => {}
                EqCoerce::Fallback => return fallback(env),
            }
        }
        keys.sort_unstable();
        keys.dedup();
        // More probe keys than rows: the scan is cheaper than the descents.
        if keys.len() as u64 > t.heap.len() {
            return fallback(env);
        }
        if *index_only {
            // Each hit contributes one row per matching entry; the key
            // itself is the row content.
            for (key, hits) in keys.iter().zip(idx.btree.lookup_many(env.pool, &keys)?) {
                for _ in hits {
                    found_keys.push(key.clone());
                }
            }
        } else {
            for hits in idx.btree.lookup_many(env.pool, &keys)? {
                rids.extend(hits);
            }
        }
    } else if let Some(r) = range {
        let range_ty = col_types[index_cols[eq.len()]];
        let mut lo_bytes = prefix.clone();
        let mut hi_bytes: Option<Vec<u8>> = None;
        if let Some((e, _)) = &r.lo {
            let v = specialize(e, env.params, env.now, subs)?.eval(&empty)?;
            match coerce_range(v, range_ty, true) {
                RangeCoerce::Val(v) => v.encode_key(&mut lo_bytes),
                RangeCoerce::Empty => return Ok(Vec::new()),
                RangeCoerce::Open => {}
            }
        }
        if let Some((e, _)) = &r.hi {
            let v = specialize(e, env.params, env.now, subs)?.eval(&empty)?;
            match coerce_range(v, range_ty, false) {
                RangeCoerce::Val(v) => {
                    let mut hb = prefix.clone();
                    v.encode_key(&mut hb);
                    hi_bytes = Some(hb);
                }
                RangeCoerce::Empty => return Ok(Vec::new()),
                RangeCoerce::Open => {}
            }
        }
        let stop = |k: &[u8]| -> bool {
            match &hi_bytes {
                // Keys sharing the hi value as a prefix may carry suffix
                // columns; include them (residuals trim strict bounds).
                Some(hb) => k > hb.as_slice() && !k.starts_with(hb),
                None => !k.starts_with(&prefix),
            }
        };
        idx.btree.scan_range(
            env.pool,
            Bound::Included(lo_bytes.as_slice()),
            Bound::Unbounded,
            |k, rid| {
                if stop(k) {
                    return false;
                }
                if *index_only {
                    found_keys.push(k.to_vec());
                } else {
                    rids.push(rid);
                }
                true
            },
        )?;
    } else {
        // Pure eq-prefix probe.
        idx.btree.scan_range(
            env.pool,
            Bound::Included(prefix.as_slice()),
            Bound::Unbounded,
            |k, rid| {
                if !k.starts_with(&prefix) {
                    return false;
                }
                if *index_only {
                    found_keys.push(k.to_vec());
                } else {
                    rids.push(rid);
                }
                true
            },
        )?;
    }

    let rows = if *index_only {
        let mut out = Vec::with_capacity(found_keys.len());
        for k in &found_keys {
            out.push(decode_key_row(k)?);
        }
        out
    } else {
        // Heap order: matches the row order a sequential scan produces.
        rids.sort_unstable();
        let recs = t.heap.get_many(env.pool, &rids)?;
        let mut out = Vec::with_capacity(recs.len());
        for bytes in &recs {
            out.push(match keep {
                Some(mask) => decode_row_pruned(bytes, mask)?,
                None => decode_row(bytes)?,
            });
        }
        if *with_rid {
            for (row, &rid) in out.iter_mut().zip(&rids) {
                row.push(rid_value(rid));
            }
        }
        out
    };
    apply_filters(env, rows, filters, subs)
}

// ---------------------------------------------------------------- explain

fn render_select(plan: &SelectPlan, depth: usize, out: &mut Vec<String>) {
    for c in &plan.ctes {
        out.push(format!("{}cte {}:", "  ".repeat(depth), c.name));
        render_select(&c.plan, depth + 1, out);
    }
    for (i, s) in plan.subs.iter().enumerate() {
        let kind = match s.kind {
            SubKind::Scalar => "scalar",
            SubKind::List => "list",
        };
        out.push(format!("{}subquery {i} ({kind}):", "  ".repeat(depth)));
        render_select(&s.plan, depth + 1, out);
    }
    render(&plan.root, depth, out);
}

fn render(node: &Node, depth: usize, out: &mut Vec<String>) {
    let pad = "  ".repeat(depth);
    match node {
        Node::Values(rows) => out.push(format!("{pad}Values [rows={}]", rows.len())),
        Node::Scan {
            table,
            arity,
            keep,
            filters,
            index,
            ..
        } => {
            let kept = keep
                .as_ref()
                .map_or(*arity, |m| m.iter().filter(|&&b| b).count());
            let tail = format!("[filters={} cols={kept}/{arity}]", filters.len());
            out.push(match index {
                None => format!("{pad}SeqScan {table} {tail}"),
                Some(p) => {
                    let mut probe = Vec::new();
                    if !p.eq.is_empty() {
                        probe.push(format!("eq={}", p.eq.len()));
                    }
                    if p.range.is_some() {
                        probe.push("range".to_owned());
                    }
                    if p.in_probe.is_some() {
                        probe.push("in-probe".to_owned());
                    }
                    if p.index_only {
                        probe.push("index-only".to_owned());
                    }
                    let via = &p.index_name;
                    format!(
                        "{pad}IndexScan {table} via {via} [{}] {tail}",
                        probe.join(" ")
                    )
                }
            });
        }
        Node::CteScan { name, filters, .. } => {
            out.push(format!("{pad}CteScan {name} [filters={}]", filters.len()))
        }
        Node::HashJoin {
            left,
            right,
            lk,
            outer,
            ..
        } => {
            out.push(format!(
                "{pad}HashJoin [keys={}{}]",
                lk.len(),
                if *outer { ", left-outer" } else { "" }
            ));
            render(left, depth + 1, out);
            render(right, depth + 1, out);
        }
        Node::NlJoin {
            left,
            right,
            pred,
            outer,
        } => {
            let name = if matches!(pred, Expr::Lit(Value::Int(1))) {
                "CrossJoin"
            } else {
                "NlJoin"
            };
            out.push(format!(
                "{pad}{name}{}",
                if *outer { " [left-outer]" } else { "" }
            ));
            render(left, depth + 1, out);
            render(right, depth + 1, out);
        }
        Node::Permute { input, map } => {
            out.push(format!("{pad}Permute [{}]", map.len()));
            render(input, depth + 1, out);
        }
        Node::Filter { input, preds } => {
            out.push(format!("{pad}Filter [preds={}]", preds.len()));
            render(input, depth + 1, out);
        }
        Node::Agg { input, group, aggs } => {
            out.push(format!(
                "{pad}Agg [groups={}, aggs={}]",
                group.len(),
                aggs.len()
            ));
            render(input, depth + 1, out);
        }
        Node::Sort { input, keys } => {
            out.push(format!("{pad}Sort [keys={}]", keys.len()));
            render(input, depth + 1, out);
        }
        Node::Limit { input, n } => {
            out.push(format!("{pad}Limit {n}"));
            render(input, depth + 1, out);
        }
        Node::Project { input, exprs } => {
            out.push(format!("{pad}Project [exprs={}]", exprs.len()));
            render(input, depth + 1, out);
        }
        Node::Distinct { input } => {
            out.push(format!("{pad}Distinct"));
            render(input, depth + 1, out);
        }
    }
}

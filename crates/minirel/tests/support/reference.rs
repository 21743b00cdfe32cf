//! The reference interpreter: bind-and-evaluate execution of parsed
//! SELECTs.
//!
//! Statements run through the planner (`minirel::sql::plan`, whose one
//! tree `minirel::sql::lower` executes), the only engine the crate
//! ships; this is the original one-pass engine, kept on the test side as
//! the **oracle**:
//! `planner_equivalence.rs` runs every generated query
//! (and the read phase of every generated INSERT/UPDATE/DELETE) through
//! both and compares row multisets, so this interpreter is the
//! executable spec the planner is tested against. Keep it verbatim — its
//! pushdown, sort-merge and error-order choices are what "same answer"
//! means.
//!
//! Its planning is deliberately simple but covers the shapes the paper's
//! SQL needs: CTEs materialize in order (Figure 3); equi-joins run as
//! sort-merge through the external sorter; single-relation predicates
//! are pushed below joins; uncorrelated IN subqueries materialize to
//! value lists; uncorrelated scalar subqueries evaluate once at bind
//! time; aggregation rewrites projections over GROUP BY outputs.
//!
//! Prepared-statement parameters (`?`) are *not* supported here — only
//! planned statements take parameters, so this engine reports a binding
//! error when it meets one.

use minirel::buffer::BufferPool;
use minirel::catalog::Catalog;
use minirel::error::{DbError, DbResult};
use minirel::exec::agg::{AggCall, AggKind, Aggregator};
use minirel::exec::expr::{Expr, Func, UnOp};
use minirel::exec::join::{merge_join, nested_loop_join};
use minirel::exec::sort::{external_sort, SortKey};
use minirel::sql::ast::*;
use minirel::sql::bind::{
    ast_eq_loose, bindable, dealias, equi_keys, gather_cols, output_name, resolve_col, BoundCol,
};
use minirel::value::{Row, Value};
use std::collections::HashMap;
use std::rc::Rc;

/// A materialized intermediate relation.
#[derive(Debug, Clone, Default)]
pub struct Relation {
    /// Output columns.
    pub cols: Vec<BoundCol>,
    /// Rows.
    pub rows: Vec<Row>,
}

/// Execution context for the **read-only** half of the engine: SELECT
/// binding, planning, and evaluation. Holds shared borrows only, so a
/// SELECT can run from `&Database` concurrently with other readers.
pub struct SqlCtx<'a> {
    /// Buffer pool (all I/O flows through it; interior-mutable, `&self`).
    pub pool: &'a BufferPool,
    /// Table catalog (shared: reads only).
    pub catalog: &'a Catalog,
    /// Session clock for `current timestamp` (seconds).
    pub current_timestamp: i64,
    /// External-sort memory budget in rows.
    pub sort_budget_rows: usize,
    /// In-scope CTE results.
    pub ctes: HashMap<String, Rc<Relation>>,
}

impl<'a> SqlCtx<'a> {
    /// A fresh context with an empty CTE scope.
    pub fn new(
        pool: &'a BufferPool,
        catalog: &'a Catalog,
        current_timestamp: i64,
        sort_budget_rows: usize,
    ) -> SqlCtx<'a> {
        SqlCtx {
            pool,
            catalog,
            current_timestamp,
            sort_budget_rows,
            ctes: HashMap::new(),
        }
    }
}

// ---------------------------------------------------------------- binding

fn bind(ctx: &mut SqlCtx<'_>, e: &AstExpr, cols: &[BoundCol]) -> DbResult<Expr> {
    match e {
        AstExpr::Column { qualifier, name } => {
            let i = resolve_col(cols, qualifier.as_deref(), name)?;
            Ok(Expr::Col(i))
        }
        AstExpr::Int(i) => Ok(Expr::Lit(Value::Int(*i))),
        AstExpr::Float(f) => Ok(Expr::Lit(Value::Float(*f))),
        AstExpr::Str(s) => Ok(Expr::Lit(Value::Str(s.clone()))),
        AstExpr::Null => Ok(Expr::Lit(Value::Null)),
        AstExpr::CurrentTimestamp => Ok(Expr::Lit(Value::Int(ctx.current_timestamp))),
        AstExpr::Bin(op, l, r) => Ok(Expr::bin(*op, bind(ctx, l, cols)?, bind(ctx, r, cols)?)),
        AstExpr::Neg(x) => Ok(Expr::Un(UnOp::Neg, Box::new(bind(ctx, x, cols)?))),
        AstExpr::Not(x) => Ok(Expr::Un(UnOp::Not, Box::new(bind(ctx, x, cols)?))),
        AstExpr::IsNull { expr, negated } => {
            Ok(Expr::IsNull(Box::new(bind(ctx, expr, cols)?), *negated))
        }
        AstExpr::InList {
            expr,
            list,
            negated,
        } => {
            let bound = bind(ctx, expr, cols)?;
            let mut vals = Vec::with_capacity(list.len());
            for item in list {
                let le = bind(ctx, item, &[])?;
                vals.push(le.eval(&vec![])?);
            }
            Ok(Expr::InList(Box::new(bound), vals.into(), *negated))
        }
        AstExpr::InSubquery {
            expr,
            query,
            negated,
        } => {
            let bound = bind(ctx, expr, cols)?;
            let rel = run_select(ctx, query)?;
            if rel.cols.len() != 1 {
                return Err(DbError::Binding(
                    "IN subquery must produce exactly one column".into(),
                ));
            }
            let vals: Vec<Value> = rel.rows.into_iter().map(|mut r| r.remove(0)).collect();
            Ok(Expr::InList(Box::new(bound), vals.into(), *negated))
        }
        AstExpr::ScalarSubquery(query) => {
            let rel = run_select(ctx, query)?;
            if rel.cols.len() != 1 {
                return Err(DbError::Binding(
                    "scalar subquery must produce exactly one column".into(),
                ));
            }
            let v = match rel.rows.len() {
                0 => Value::Null,
                1 => rel.rows[0][0].clone(),
                n => {
                    return Err(DbError::Binding(format!(
                        "scalar subquery produced {n} rows"
                    )))
                }
            };
            Ok(Expr::Lit(v))
        }
        AstExpr::Call { name, args, star } => {
            if *star || AggKind::parse(name).is_some() {
                return Err(DbError::Binding(format!(
                    "aggregate {name}() is not allowed in this context"
                )));
            }
            let f = Func::parse(name)
                .ok_or_else(|| DbError::Binding(format!("unknown function {name}()")))?;
            let bound: Vec<Expr> = args
                .iter()
                .map(|a| bind(ctx, a, cols))
                .collect::<DbResult<_>>()?;
            Ok(Expr::Call(f, bound))
        }
        AstExpr::Param(i) => Err(DbError::Binding(format!(
            "parameter ?{} requires a prepared statement (use query_with)",
            i + 1
        ))),
    }
}

// ---------------------------------------------------------------- select

/// Run a SELECT (CTE scope handled here).
pub fn run_select(ctx: &mut SqlCtx<'_>, sel: &SelectStmt) -> DbResult<Relation> {
    let saved = ctx.ctes.clone();
    let result = (|| {
        for cte in &sel.ctes {
            let mut rel = run_select(ctx, &cte.query)?;
            if !cte.cols.is_empty() {
                if cte.cols.len() != rel.cols.len() {
                    return Err(DbError::Binding(format!(
                        "CTE {} declares {} columns but query produces {}",
                        cte.name,
                        cte.cols.len(),
                        rel.cols.len()
                    )));
                }
                rel.cols = cte
                    .cols
                    .iter()
                    .map(|n| BoundCol {
                        qualifier: Some(cte.name.clone()),
                        name: n.clone(),
                    })
                    .collect();
            } else {
                for c in &mut rel.cols {
                    c.qualifier = Some(cte.name.clone());
                }
            }
            ctx.ctes.insert(cte.name.clone(), Rc::new(rel));
        }
        run_select_body(ctx, sel)
    })();
    ctx.ctes = saved;
    result
}

fn load_source(
    ctx: &mut SqlCtx<'_>,
    item: &FromItem,
    wanted: Option<&std::collections::HashSet<String>>,
) -> DbResult<Relation> {
    let binding = item.binding_name().to_ascii_lowercase();
    if let Some(rel) = ctx.ctes.get(&item.table) {
        let mut r = (**rel).clone();
        for c in &mut r.cols {
            c.qualifier = Some(binding.clone());
        }
        return Ok(r);
    }
    let tid = ctx.catalog.table_id(&item.table)?;
    let cols: Vec<BoundCol> = ctx
        .catalog
        .table(tid)
        .schema
        .columns
        .iter()
        .map(|c| BoundCol {
            qualifier: Some(binding.clone()),
            name: c.name.clone(),
        })
        .collect();
    // Column pruning: decode only the referenced columns of a base
    // table; the rest stay Null placeholders nothing will read.
    let keep: Option<Vec<bool>> =
        wanted.map(|names| cols.iter().map(|c| names.contains(&c.name)).collect());
    let rows = ctx.catalog.scan_rows(ctx.pool, tid, keep.as_deref())?;
    Ok(Relation { cols, rows })
}

fn join_relations(
    ctx: &mut SqlCtx<'_>,
    left: Relation,
    right: Relation,
    lk: &[usize],
    rk: &[usize],
    outer: bool,
) -> DbResult<Relation> {
    let cols: Vec<BoundCol> = left.cols.iter().chain(right.cols.iter()).cloned().collect();
    // Pad unmatched left rows to the right side's declared arity — taking
    // the width from the first right row mispads when the right side is
    // empty.
    let right_arity = right.cols.len();
    let budget = ctx.sort_budget_rows;
    let lkeys: Vec<SortKey> = lk.iter().map(|&i| SortKey::asc(i)).collect();
    let rkeys: Vec<SortKey> = rk.iter().map(|&i| SortKey::asc(i)).collect();
    let ls = external_sort(ctx.pool, left.rows, &lkeys, budget)?;
    let rs = external_sort(ctx.pool, right.rows, &rkeys, budget)?;
    // Inner rows are `left ++ right` per match; an outer join pads a
    // left row whose run is empty.
    let mut rows = Vec::new();
    merge_join(&ls, &rs, lk, rk, |l, run| {
        rows.extend(run.iter().map(|r| [l.as_slice(), r].concat()));
        if outer && run.is_empty() {
            let mut row = l.clone();
            row.extend(std::iter::repeat_n(Value::Null, right_arity));
            rows.push(row);
        }
    })?;
    Ok(Relation { cols, rows })
}

fn filter_rel(ctx: &mut SqlCtx<'_>, rel: &mut Relation, pred: &AstExpr) -> DbResult<()> {
    let e = bind(ctx, pred, &rel.cols)?;
    let mut kept = Vec::with_capacity(rel.rows.len());
    for row in rel.rows.drain(..) {
        if e.eval(&row)?.is_truthy() {
            kept.push(row);
        }
    }
    rel.rows = kept;
    Ok(())
}

fn run_select_body(ctx: &mut SqlCtx<'_>, sel: &SelectStmt) -> DbResult<Relation> {
    // ----- FROM + WHERE (join graph) -----
    let wanted = gather_cols(sel);
    let mut where_conjuncts: Vec<AstExpr> = sel
        .where_
        .clone()
        .map(AstExpr::conjuncts)
        .unwrap_or_default();
    let mut consumed = vec![false; where_conjuncts.len()];

    let mut acc: Relation = if sel.from.is_empty() {
        Relation {
            cols: vec![],
            rows: vec![vec![]],
        }
    } else {
        load_source(ctx, &sel.from[0].item, wanted.as_ref())?
    };

    // Pending comma-joined sources with single-source pushdown applied.
    let mut pending: Vec<Relation> = Vec::new();
    #[allow(clippy::type_complexity)]
    let apply_pushdown = |ctx: &mut SqlCtx<'_>,
                          rel: &mut Relation,
                          conjs: &mut Vec<AstExpr>,
                          consumed: &mut Vec<bool>|
     -> DbResult<()> {
        for (i, c) in conjs.iter().enumerate() {
            if !consumed[i] && bindable(c, &rel.cols) {
                consumed[i] = true;
                filter_rel(ctx, rel, c)?;
            }
        }
        Ok(())
    };
    apply_pushdown(ctx, &mut acc, &mut where_conjuncts, &mut consumed)?;

    for fc in sel.from.iter().skip(1) {
        match fc.kind {
            JoinKind::Cross => {
                let mut rel = load_source(ctx, &fc.item, wanted.as_ref())?;
                apply_pushdown(ctx, &mut rel, &mut where_conjuncts, &mut consumed)?;
                pending.push(rel);
            }
            JoinKind::Inner | JoinKind::LeftOuter => {
                let mut rel = load_source(ctx, &fc.item, wanted.as_ref())?;
                if fc.kind == JoinKind::Inner {
                    apply_pushdown(ctx, &mut rel, &mut where_conjuncts, &mut consumed)?;
                }
                let on = fc
                    .on
                    .clone()
                    .ok_or_else(|| DbError::Binding("JOIN requires an ON predicate".into()))?;
                let on_conj = on.clone().conjuncts();
                let (used, lk, rk) = equi_keys(&on_conj, &acc.cols, &rel.cols);
                if used.len() == on_conj.len() && !lk.is_empty() {
                    acc = join_relations(ctx, acc, rel, &lk, &rk, fc.kind == JoinKind::LeftOuter)?;
                } else {
                    // Non-equi ON: nested loop over the concatenation.
                    let cols: Vec<BoundCol> =
                        acc.cols.iter().chain(rel.cols.iter()).cloned().collect();
                    let pred = bind(ctx, &on, &cols)?;
                    let outer = (fc.kind == JoinKind::LeftOuter).then_some(rel.cols.len());
                    let rows = nested_loop_join(&acc.rows, &rel.rows, &pred, outer)?;
                    acc = Relation { cols, rows };
                }
            }
        }
    }

    // Greedily join pending comma sources using WHERE equi conjuncts.
    // (pending index, consumed conjunct ids, left keys, right keys)
    type JoinChoice = (usize, Vec<usize>, Vec<usize>, Vec<usize>);
    while !pending.is_empty() {
        let mut chosen: Option<JoinChoice> = None;
        let unconsumed: Vec<AstExpr> = where_conjuncts
            .iter()
            .enumerate()
            .filter(|(i, _)| !consumed[*i])
            .map(|(_, c)| c.clone())
            .collect();
        let unconsumed_idx: Vec<usize> = (0..where_conjuncts.len())
            .filter(|i| !consumed[*i])
            .collect();
        for (pi, rel) in pending.iter().enumerate() {
            let (used, lk, rk) = equi_keys(&unconsumed, &acc.cols, &rel.cols);
            if !lk.is_empty() {
                let global_used: Vec<usize> = used.iter().map(|&u| unconsumed_idx[u]).collect();
                chosen = Some((pi, global_used, lk, rk));
                break;
            }
        }
        match chosen {
            Some((pi, used, lk, rk)) => {
                let rel = pending.remove(pi);
                for u in used {
                    consumed[u] = true;
                }
                acc = join_relations(ctx, acc, rel, &lk, &rk, false)?;
            }
            None => {
                // True cartesian product (small dimension tables only, e.g.
                // DOCLEN × TAXONOMY in Figure 3).
                let rel = pending.remove(0);
                let cols: Vec<BoundCol> = acc.cols.iter().chain(rel.cols.iter()).cloned().collect();
                let pred = Expr::Lit(Value::Int(1));
                let rows = nested_loop_join(&acc.rows, &rel.rows, &pred, None)?;
                acc = Relation { cols, rows };
            }
        }
    }

    // Residual WHERE conjuncts.
    for i in 0..where_conjuncts.len() {
        if !consumed[i] {
            let c = where_conjuncts[i].clone();
            filter_rel(ctx, &mut acc, &c)?;
        }
    }

    // ----- aggregation or plain projection -----
    let has_agg = !sel.group_by.is_empty()
        || sel.projections.iter().any(|p| match p {
            Projection::Expr { expr, .. } => expr.has_aggregate(),
            Projection::Star => false,
        });

    let aliases: Vec<(Option<String>, AstExpr)> = sel
        .projections
        .iter()
        .filter_map(|p| match p {
            Projection::Expr { expr, alias } => Some((alias.clone(), expr.clone())),
            Projection::Star => None,
        })
        .collect();

    let (mut rows, proj_exprs, out_cols) = if has_agg {
        // Bind group exprs and collect aggregates from projections.
        let mut aggs: Vec<AggCall> = Vec::new();
        let group_bound: Vec<Expr> = sel
            .group_by
            .iter()
            .map(|g| bind(ctx, g, &acc.cols))
            .collect::<DbResult<_>>()?;
        let mut proj_exprs = Vec::new();
        let mut out_cols = Vec::new();
        for (i, p) in sel.projections.iter().enumerate() {
            match p {
                Projection::Star => {
                    return Err(DbError::Binding(
                        "SELECT * is not allowed with GROUP BY/aggregates".into(),
                    ))
                }
                Projection::Expr { expr, alias } => {
                    let e = rewrite_agg(ctx, expr, &sel.group_by, &acc.cols, &mut aggs)?;
                    proj_exprs.push(e);
                    out_cols.push(BoundCol {
                        qualifier: None,
                        name: output_name(expr, alias.as_ref(), i),
                    });
                }
            }
        }
        // ORDER BY binding in aggregate context.
        let order_keys: Vec<SortKey> = sel
            .order_by
            .iter()
            .map(|(e, desc)| {
                let target = dealias(e, &aliases);
                let bound = rewrite_agg(ctx, &target, &sel.group_by, &acc.cols, &mut aggs)?;
                Ok(SortKey {
                    expr: bound,
                    desc: *desc,
                })
            })
            .collect::<DbResult<_>>()?;
        let agg_rows = aggregate(&acc.rows, &group_bound, &aggs)?;
        let sorted = if order_keys.is_empty() {
            agg_rows
        } else {
            external_sort(ctx.pool, agg_rows, &order_keys, ctx.sort_budget_rows)?
        };
        (sorted, proj_exprs, out_cols)
    } else {
        // Plain projection; ORDER BY binds against the input (aliases
        // resolve to their defining expressions).
        let order_keys: Vec<SortKey> = sel
            .order_by
            .iter()
            .map(|(e, desc)| {
                let target = dealias(e, &aliases);
                Ok(SortKey {
                    expr: bind(ctx, &target, &acc.cols)?,
                    desc: *desc,
                })
            })
            .collect::<DbResult<_>>()?;
        let sorted = if order_keys.is_empty() {
            acc.rows
        } else {
            external_sort(ctx.pool, acc.rows, &order_keys, ctx.sort_budget_rows)?
        };
        let mut proj_exprs = Vec::new();
        let mut out_cols = Vec::new();
        for (i, p) in sel.projections.iter().enumerate() {
            match p {
                Projection::Star => {
                    for (j, c) in acc.cols.iter().enumerate() {
                        proj_exprs.push(Expr::Col(j));
                        out_cols.push(c.clone());
                    }
                }
                Projection::Expr { expr, alias } => {
                    proj_exprs.push(bind(ctx, expr, &acc.cols)?);
                    out_cols.push(BoundCol {
                        qualifier: None,
                        name: output_name(expr, alias.as_ref(), i),
                    });
                }
            }
        }
        (sorted, proj_exprs, out_cols)
    };

    if let Some(n) = sel.limit {
        rows.truncate(n as usize);
    }

    let mut out_rows = Vec::with_capacity(rows.len());
    for row in &rows {
        let mut out = Vec::with_capacity(proj_exprs.len());
        for e in &proj_exprs {
            out.push(e.eval(row)?);
        }
        out_rows.push(out);
    }

    if sel.distinct {
        let mut seen = std::collections::HashSet::new();
        out_rows.retain(|r| seen.insert(r.clone()));
    }

    Ok(Relation {
        cols: out_cols,
        rows: out_rows,
    })
}

/// The rows of aggregating `rows`, collected.
fn aggregate(rows: &[Row], group: &[Expr], aggs: &[AggCall]) -> DbResult<Vec<Row>> {
    let mut agg = Aggregator::new(group, aggs);
    for row in rows {
        agg.push(row)?;
    }
    let mut out = Vec::new();
    agg.finish(|row| {
        out.push(std::mem::take(row));
        Ok(())
    })?;
    Ok(out)
}

/// Rewrite a projection/order expression in aggregate context into an
/// expression over `[group values ++ aggregate results]`.
fn rewrite_agg(
    ctx: &mut SqlCtx<'_>,
    e: &AstExpr,
    group_by: &[AstExpr],
    input: &[BoundCol],
    aggs: &mut Vec<AggCall>,
) -> DbResult<Expr> {
    // Whole expression equals a group expression?
    for (i, g) in group_by.iter().enumerate() {
        if ast_eq_loose(e, g) {
            return Ok(Expr::Col(i));
        }
    }
    match e {
        AstExpr::Call { name, args, star } => {
            if let Some(kind) = AggKind::parse(name) {
                let kind = if *star { AggKind::CountStar } else { kind };
                let arg = if *star {
                    Expr::Lit(Value::Int(1))
                } else {
                    if args.len() != 1 {
                        return Err(DbError::Binding(format!(
                            "{name}() takes exactly one argument"
                        )));
                    }
                    bind(ctx, &args[0], input)?
                };
                let idx = group_by.len() + aggs.len();
                aggs.push(AggCall { kind, arg });
                return Ok(Expr::Col(idx));
            }
            let f = Func::parse(name)
                .ok_or_else(|| DbError::Binding(format!("unknown function {name}()")))?;
            let rewritten: Vec<Expr> = args
                .iter()
                .map(|a| rewrite_agg(ctx, a, group_by, input, aggs))
                .collect::<DbResult<_>>()?;
            Ok(Expr::Call(f, rewritten))
        }
        AstExpr::Bin(op, l, r) => Ok(Expr::bin(
            *op,
            rewrite_agg(ctx, l, group_by, input, aggs)?,
            rewrite_agg(ctx, r, group_by, input, aggs)?,
        )),
        AstExpr::Neg(x) => Ok(Expr::Un(
            UnOp::Neg,
            Box::new(rewrite_agg(ctx, x, group_by, input, aggs)?),
        )),
        AstExpr::Not(x) => Ok(Expr::Un(
            UnOp::Not,
            Box::new(rewrite_agg(ctx, x, group_by, input, aggs)?),
        )),
        AstExpr::Int(_)
        | AstExpr::Float(_)
        | AstExpr::Str(_)
        | AstExpr::Null
        | AstExpr::CurrentTimestamp
        | AstExpr::ScalarSubquery(_) => bind(ctx, e, &[]),
        AstExpr::Column { qualifier, name } => Err(DbError::Binding(format!(
            "column {}{name} must appear in GROUP BY or inside an aggregate",
            qualifier
                .as_deref()
                .map(|q| format!("{q}."))
                .unwrap_or_default()
        ))),
        other => Err(DbError::Binding(format!(
            "unsupported expression in aggregate context: {other:?}"
        ))),
    }
}

//! Lowering and execution: logical plan → physical plan → rows.
//!
//! [`prepare_plan`] turns a parsed SELECT, INSERT, UPDATE or DELETE into
//! an [`ExecPlan`]: an immutable, `Send + Sync` physical operator tree
//! that can be cached and re-executed with different parameter bindings,
//! plus — for DML — the write step its rows feed. [`execute_plan`] runs
//! the tree through shared borrows; [`execute_write`] then applies a DML
//! plan's rows through `Catalog::{insert_many, update_many, delete_row}`,
//! the only place SQL reaches them. Lowering is where
//! access paths are chosen — a [`Phys::SeqScan`] becomes a
//! [`Phys::IndexScan`] when a B+tree covers the pushed-down predicates
//! and the cost model (rows × selectivity vs. heap pages) says the probe
//! is cheaper than the scan — and where equi-joins pick between
//! sort-merge and nested-loop by estimated input cardinality.
//!
//! **Execution contract.** Plans keep parameters (`?`), `current
//! timestamp`, and subquery results symbolic. [`execute_plan`]
//! *specializes* each operator's expressions — substituting
//! [`Expr::Param`]/[`Expr::Now`]/[`Expr::SubScalar`]/[`Expr::InSub`]
//! leaves with literals — and then runs the operator kernels of
//! [`crate::exec`] ([`external_sort`], the merge joins, [`aggregate`]).
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
use crate::exec::expr::{BinOp, Expr};
use crate::exec::join::{merge_join_inner, merge_join_left_outer, nested_loop_join};
use crate::exec::sort::{external_sort, SortKey};
use crate::heap::Rid;
use crate::schema::ColumnType;
use crate::sql::ast::Statement;
use crate::sql::plan::{arity, plan_statement, Logical, SelectPlan, SubKind, Write};
use crate::value::{
    decode_composite_key, decode_row, decode_row_pruned, encode_composite_key, Row, Value,
};
use std::ops::Bound;
use std::rc::Rc;

/// A prepared, executable physical plan.
#[derive(Debug)]
pub struct ExecPlan {
    /// Number of `?` parameters the statement takes.
    pub param_count: usize,
    /// Number of CTE materialization slots across the whole statement.
    pub num_slots: usize,
    /// The physical tree (plus its CTE and subquery plans).
    pub root: PhysSelect,
    /// Output column names.
    pub columns: Vec<String>,
    /// `EXPLAIN <select>`: the rendered plan (logical + physical
    /// sections), which executing returns instead of the rows. Rendered
    /// for that statement only.
    pub explain: Option<Vec<String>>,
    /// DML: what [`execute_write`] does with the rows `root` produces.
    pub write: Option<Write>,
}

/// A physical select: CTE plans, uncorrelated subquery plans, and the
/// operator tree that consumes them.
#[derive(Debug)]
pub struct PhysSelect {
    /// `(slot, name, plan)` in definition order.
    pub ctes: Vec<(usize, String, PhysSelect)>,
    /// Subquery plans in [`Expr::SubScalar`]/[`Expr::InSub`] slot order.
    pub subs: Vec<(SubKind, PhysSelect)>,
    /// The operator tree.
    pub node: Phys,
}

/// Source of an index IN-probe's key list.
#[derive(Debug)]
pub enum InSrc {
    /// Literal list (from `IN (v, v, …)`).
    List(Vec<Value>),
    /// Subquery slot (from `IN (select …)`).
    Sub(usize),
}

/// Range bound pair on the index column after the eq prefix.
#[derive(Debug)]
pub struct RangeProbe {
    /// Lower bound expression (row-free), and whether it is exclusive.
    pub lo: Option<(Expr, bool)>,
    /// Upper bound expression (row-free), and whether it is exclusive.
    pub hi: Option<(Expr, bool)>,
}

/// Physical operators.
///
/// `IndexScan` dwarfs the other variants, but plan nodes are built once
/// per prepared statement and traversed by reference — boxing the probe
/// metadata would buy nothing at execution time.
#[allow(clippy::large_enum_variant)]
#[derive(Debug)]
pub enum Phys {
    /// Full heap scan with pruned decode and residual filters.
    SeqScan {
        /// Catalog id.
        tid: TableId,
        /// Table name (for EXPLAIN).
        table: String,
        /// Columns to decode (`None` = all).
        keep: Option<Vec<bool>>,
        /// Filters applied in order.
        filters: Vec<Expr>,
        /// Append each row's rid (DML read phases only).
        with_rid: bool,
    },
    /// Literal rows of row-free expressions: `INSERT … VALUES`, and one
    /// empty row for a SELECT without FROM.
    Values(Vec<Vec<Expr>>),
    /// B+tree probe: eq-prefix and/or range scan, or single-column IN.
    IndexScan {
        /// Catalog id.
        tid: TableId,
        /// Table name (for EXPLAIN).
        table: String,
        /// Position in the table's index list.
        index_no: usize,
        /// Index name (for EXPLAIN).
        index_name: String,
        /// Row-free expressions producing the eq-prefix key values, in
        /// index column order.
        eq: Vec<Expr>,
        /// Optional range on index column `eq.len()`.
        range: Option<RangeProbe>,
        /// Single-column IN probe (mutually exclusive with eq/range).
        in_probe: Option<InSrc>,
        /// Columns to decode on heap fetch (`None` = all).
        keep: Option<Vec<bool>>,
        /// Full original pushed-down filters — always re-applied, which
        /// makes lossy probe bounds (dropped range ends, overscans)
        /// harmless.
        filters: Vec<Expr>,
        /// Serve rows from decoded index keys without heap fetches.
        index_only: bool,
        /// The index's key columns.
        index_cols: Vec<usize>,
        /// Declared column types (drives probe-value coercion).
        col_types: Vec<ColumnType>,
        /// Table arity.
        arity: usize,
        /// Append each row's rid (DML read phases only; never
        /// `index_only`).
        with_rid: bool,
    },
    /// Scan of a materialized CTE slot.
    CteScan {
        /// CTE name (for EXPLAIN).
        name: String,
        /// Materialization slot.
        slot: usize,
        /// Filters applied in order.
        filters: Vec<Expr>,
    },
    /// Sort-merge equi-join (sorts both inputs).
    MergeJoin {
        /// Left input.
        left: Box<Phys>,
        /// Right input.
        right: Box<Phys>,
        /// Left key columns.
        lk: Vec<usize>,
        /// Right key columns.
        rk: Vec<usize>,
        /// LEFT OUTER?
        outer: bool,
        /// Right arity (NULL padding width for outer).
        right_arity: usize,
    },
    /// Nested-loop join (`Lit(1)` predicate = cartesian product).
    NlJoin {
        /// Left input.
        left: Box<Phys>,
        /// Right input.
        right: Box<Phys>,
        /// Predicate over the concatenated row.
        pred: Expr,
        /// LEFT OUTER?
        outer: bool,
    },
    /// Column permutation (canonical order restoration).
    Permute {
        /// Input.
        input: Box<Phys>,
        /// Output position → input position.
        map: Vec<usize>,
    },
    /// Residual filter.
    Filter {
        /// Input.
        input: Box<Phys>,
        /// Predicates applied in order.
        preds: Vec<Expr>,
    },
    /// Hash aggregation.
    Agg {
        /// Input.
        input: Box<Phys>,
        /// Group-by expressions.
        group: Vec<Expr>,
        /// Aggregate calls.
        aggs: Vec<AggCall>,
    },
    /// External sort.
    Sort {
        /// Input.
        input: Box<Phys>,
        /// `(key, descending)` pairs.
        keys: Vec<(Expr, bool)>,
    },
    /// LIMIT.
    Limit {
        /// Input.
        input: Box<Phys>,
        /// Max rows.
        n: u64,
    },
    /// Projection.
    Project {
        /// Input.
        input: Box<Phys>,
        /// Output expressions.
        exprs: Vec<Expr>,
    },
    /// DISTINCT.
    Distinct {
        /// Input.
        input: Box<Phys>,
    },
}

/// Plan and lower a SELECT, INSERT, UPDATE or DELETE. For `EXPLAIN
/// <select>` the plan is built (and cached) identically but executing it
/// returns the rendered plan text.
pub fn prepare_plan(catalog: &Catalog, stmt: &Statement) -> DbResult<ExecPlan> {
    let (plan, write, num_slots, param_count) = plan_statement(catalog, stmt)?;
    let columns = plan.out_cols.iter().map(|c| c.name.clone()).collect();
    let root = lower_select(catalog, &plan)?;
    let explain = matches!(stmt, Statement::Explain(_)).then(|| {
        let mut text = vec!["== logical ==".to_owned()];
        render_sel_logical(&plan, 0, &mut text);
        text.push("== physical ==".to_owned());
        render_sel_phys(&root, 0, &mut text);
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

// ---------------------------------------------------------------- lowering

/// Selectivity assumed for one eq key column / one range bound.
const SEL_EQ: f64 = 0.05;
const SEL_RANGE: f64 = 0.3;
/// Below this estimated input size a nested-loop equi-join beats paying
/// two sorts.
const NL_JOIN_EST: f64 = 4.0;
/// Tables with fewer rows than this are never worth a B+tree descent —
/// the whole heap is a page or two.
const MIN_PROBE_ROWS: f64 = 16.0;

fn lower_select(catalog: &Catalog, plan: &SelectPlan) -> DbResult<PhysSelect> {
    let mut ctes = Vec::with_capacity(plan.ctes.len());
    for c in &plan.ctes {
        ctes.push((c.slot, c.name.clone(), lower_select(catalog, &c.plan)?));
    }
    let mut subs = Vec::with_capacity(plan.subs.len());
    for s in &plan.subs {
        subs.push((s.kind, lower_select(catalog, &s.plan)?));
    }
    let node = lower_node(catalog, &plan.root)?;
    Ok(PhysSelect { ctes, subs, node })
}

/// Is this expression free of row references (usable as a probe key)?
fn row_free(e: &Expr) -> bool {
    match e {
        Expr::Col(_) => false,
        Expr::Lit(_) | Expr::Param(_) | Expr::SubScalar(_) | Expr::Now => true,
        Expr::Bin(_, l, r) => row_free(l) && row_free(r),
        Expr::Un(_, x) | Expr::IsNull(x, _) => row_free(x),
        Expr::InList(x, _, _) | Expr::InSub(x, _, _) => row_free(x),
        Expr::Call(_, args) => args.iter().all(row_free),
    }
}

fn lower_node(catalog: &Catalog, node: &Logical) -> DbResult<Phys> {
    Ok(match node {
        Logical::Values(rows) => Phys::Values(rows.clone()),
        Logical::CteScan {
            name,
            slot,
            filters,
            ..
        } => Phys::CteScan {
            name: name.clone(),
            slot: *slot,
            filters: filters.clone(),
        },
        Logical::Scan {
            table,
            tid,
            arity,
            keep,
            filters,
            with_rid,
        } => lower_scan(catalog, table, *tid, *arity, keep, filters, *with_rid),
        Logical::Join {
            left,
            right,
            lk,
            rk,
            outer,
            lest,
            rest,
        } => {
            let left_arity = arity(left);
            let right_arity = arity(right);
            let l = Box::new(lower_node(catalog, left)?);
            let r = Box::new(lower_node(catalog, right)?);
            if !outer && lest.min(*rest) <= NL_JOIN_EST {
                // One side is tiny: probe it with a nested loop instead
                // of sorting both inputs.
                let mut pred = Expr::Lit(Value::Int(1));
                for (i, (&a, &b)) in lk.iter().zip(rk).enumerate() {
                    let eq = Expr::bin(BinOp::Eq, Expr::Col(a), Expr::Col(left_arity + b));
                    pred = if i == 0 {
                        eq
                    } else {
                        Expr::bin(BinOp::And, pred, eq)
                    };
                }
                Phys::NlJoin {
                    left: l,
                    right: r,
                    pred,
                    outer: false,
                }
            } else {
                Phys::MergeJoin {
                    left: l,
                    right: r,
                    lk: lk.clone(),
                    rk: rk.clone(),
                    outer: *outer,
                    right_arity,
                }
            }
        }
        Logical::NlJoin {
            left,
            right,
            pred,
            outer,
        } => Phys::NlJoin {
            left: Box::new(lower_node(catalog, left)?),
            right: Box::new(lower_node(catalog, right)?),
            pred: pred.clone(),
            outer: *outer,
        },
        Logical::Permute { input, map } => Phys::Permute {
            input: Box::new(lower_node(catalog, input)?),
            map: map.clone(),
        },
        Logical::Filter { input, preds } => Phys::Filter {
            input: Box::new(lower_node(catalog, input)?),
            preds: preds.clone(),
        },
        Logical::Agg { input, group, aggs } => Phys::Agg {
            input: Box::new(lower_node(catalog, input)?),
            group: group.clone(),
            aggs: aggs.clone(),
        },
        Logical::Sort { input, keys } => Phys::Sort {
            input: Box::new(lower_node(catalog, input)?),
            keys: keys.clone(),
        },
        Logical::Limit { input, n } => Phys::Limit {
            input: Box::new(lower_node(catalog, input)?),
            n: *n,
        },
        Logical::Project { input, exprs } => Phys::Project {
            input: Box::new(lower_node(catalog, input)?),
            exprs: exprs.clone(),
        },
        Logical::Distinct { input } => Phys::Distinct {
            input: Box::new(lower_node(catalog, input)?),
        },
    })
}

/// Access-path selection for a base-table scan.
fn lower_scan(
    catalog: &Catalog,
    table: &str,
    tid: TableId,
    table_arity: usize,
    keep: &Option<Vec<bool>>,
    filters: &[Expr],
    with_rid: bool,
) -> Phys {
    let t = catalog.table(tid);
    let (n_rows, n_pages) = catalog.table_stats(tid);
    let n = n_rows as f64;
    let pages = n_pages.max(1) as f64;
    let col_types: Vec<ColumnType> = t.schema.columns.iter().map(|c| c.ty).collect();

    // Probe-able predicates, keyed by column.
    let mut eq_on: Vec<Option<&Expr>> = vec![None; table_arity];
    let mut lo_on: Vec<Option<(&Expr, bool)>> = vec![None; table_arity];
    let mut hi_on: Vec<Option<(&Expr, bool)>> = vec![None; table_arity];
    let mut in_on: Vec<Option<InSrc>> = (0..table_arity).map(|_| None).collect();
    for f in filters {
        match f {
            Expr::Bin(op, l, r) => {
                let (col, rhs, op) = match (l.as_ref(), r.as_ref()) {
                    (Expr::Col(c), rhs) if row_free(rhs) => (*c, rhs, *op),
                    (lhs, Expr::Col(c)) if row_free(lhs) => {
                        // Mirror the comparison so the column is on the left.
                        let flipped = match op {
                            BinOp::Lt => BinOp::Gt,
                            BinOp::Le => BinOp::Ge,
                            BinOp::Gt => BinOp::Lt,
                            BinOp::Ge => BinOp::Le,
                            other => *other,
                        };
                        (*c, lhs, flipped)
                    }
                    _ => continue,
                };
                match op {
                    BinOp::Eq if eq_on[col].is_none() => {
                        eq_on[col] = Some(rhs);
                    }
                    BinOp::Gt | BinOp::Ge if lo_on[col].is_none() => {
                        lo_on[col] = Some((rhs, op == BinOp::Gt));
                    }
                    BinOp::Lt | BinOp::Le if hi_on[col].is_none() => {
                        hi_on[col] = Some((rhs, op == BinOp::Lt));
                    }
                    _ => {}
                }
            }
            Expr::InList(probe, vals, false) => {
                if let Expr::Col(c) = probe.as_ref() {
                    if in_on[*c].is_none() {
                        in_on[*c] = Some(InSrc::List(vals.clone()));
                    }
                }
            }
            Expr::InSub(probe, slot, false) => {
                if let Expr::Col(c) = probe.as_ref() {
                    if in_on[*c].is_none() {
                        in_on[*c] = Some(InSrc::Sub(*slot));
                    }
                }
            }
            _ => {}
        }
    }

    // Best eq/range candidate across indexes. Admission: an eq-prefix
    // probe is taken whenever the table is big enough to matter — with
    // no value statistics the flat SEL_EQ overestimates hit counts on
    // high-cardinality columns (the common probe: `oid = ?`), and a
    // wrongly-taken probe only costs the tree descent since the full
    // filter set re-runs as residuals. A range-only probe keeps the
    // conservative est-vs-pages gate: its 30% selectivity guess is
    // usually honest and a 30% range scan reads most heap pages anyway.
    // Among admitted candidates, lowest estimate (longest eq prefix,
    // then range) wins.
    let mut best: Option<(usize, usize, bool, f64)> = None; // (index_no, eq_len, has_range, est)
    for (i, idx) in t.indexes.iter().enumerate() {
        let mut k = 0;
        while k < idx.cols.len() && eq_on[idx.cols[k]].is_some() {
            k += 1;
        }
        let has_range =
            k < idx.cols.len() && (lo_on[idx.cols[k]].is_some() || hi_on[idx.cols[k]].is_some());
        if k == 0 && !has_range {
            continue;
        }
        let mut est = n * SEL_EQ.powi(k as i32);
        if has_range {
            est *= SEL_RANGE;
        }
        let est = est.max(1.0);
        let admitted = if k > 0 {
            n >= MIN_PROBE_ROWS
        } else {
            est < pages
        };
        if admitted && best.as_ref().is_none_or(|b| est < b.3) {
            best = Some((i, k, has_range, est));
        }
    }

    let index_only = |idx_cols: &[usize]| -> bool {
        // An index entry has no old row for the write step to replace.
        !with_rid
            && match keep {
                Some(mask) => mask
                    .iter()
                    .enumerate()
                    .all(|(c, &needed)| !needed || idx_cols.contains(&c)),
                None => (0..table_arity).all(|c| idx_cols.contains(&c)),
            }
    };

    if let Some((index_no, k, has_range, _)) = best {
        let idx = &t.indexes[index_no];
        let eq: Vec<Expr> = idx.cols[..k]
            .iter()
            .map(|&c| eq_on[c].unwrap().clone())
            .collect();
        let range = if has_range {
            let rc = idx.cols[k];
            Some(RangeProbe {
                lo: lo_on[rc].map(|(e, x)| (e.clone(), x)),
                hi: hi_on[rc].map(|(e, x)| (e.clone(), x)),
            })
        } else {
            None
        };
        return Phys::IndexScan {
            tid,
            table: table.to_owned(),
            index_no,
            index_name: idx.name.clone(),
            eq,
            range,
            in_probe: None,
            keep: keep.clone(),
            filters: filters.to_vec(),
            index_only: index_only(&idx.cols),
            index_cols: idx.cols.clone(),
            col_types,
            arity: table_arity,
            with_rid,
        };
    }

    // IN probe: only on a single-column index (composite keys cannot be
    // equality-matched by a one-value prefix via lookup_many).
    for (i, idx) in t.indexes.iter().enumerate() {
        if idx.cols.len() != 1 {
            continue;
        }
        if let Some(src) = in_on[idx.cols[0]].take() {
            return Phys::IndexScan {
                tid,
                table: table.to_owned(),
                index_no: i,
                index_name: idx.name.clone(),
                eq: Vec::new(),
                range: None,
                in_probe: Some(src),
                keep: keep.clone(),
                filters: filters.to_vec(),
                index_only: index_only(&idx.cols),
                index_cols: idx.cols.clone(),
                col_types,
                arity: table_arity,
                with_rid,
            };
        }
    }

    Phys::SeqScan {
        tid,
        table: table.to_owned(),
        keep: keep.clone(),
        filters: filters.to_vec(),
        with_rid,
    }
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
    budget: usize,
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
    sort_budget: usize,
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
        budget: sort_budget,
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

fn exec_select(env: &mut Env<'_>, ps: &PhysSelect) -> DbResult<Vec<Row>> {
    for (slot, _, plan) in &ps.ctes {
        let rows = exec_select(env, plan)?;
        env.slots[*slot] = Some(Rc::new(rows));
    }
    // Subqueries re-run on every execution: a prepared plan must observe
    // mutations to the subquery's source tables between executions.
    let mut subvals = Vec::with_capacity(ps.subs.len());
    for (kind, plan) in &ps.subs {
        let rows = exec_select(env, plan)?;
        subvals.push(match kind {
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
    exec_node(env, &ps.node, &subvals)
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

fn exec_node(env: &mut Env<'_>, node: &Phys, subs: &[SubResult]) -> DbResult<Vec<Row>> {
    match node {
        Phys::SeqScan {
            tid,
            keep,
            filters,
            with_rid,
            ..
        } => {
            let rows = seq_scan(env, *tid, keep, *with_rid)?;
            apply_filters(env, rows, filters, subs)
        }
        Phys::Values(rows) => {
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
        Phys::CteScan { slot, filters, .. } => {
            let rows = env.slots[*slot]
                .as_ref()
                .ok_or_else(|| DbError::Eval(format!("CTE slot {slot} not materialized")))?
                .as_ref()
                .clone();
            apply_filters(env, rows, filters, subs)
        }
        Phys::IndexScan { .. } => exec_index_scan(env, node, subs),
        Phys::MergeJoin {
            left,
            right,
            lk,
            rk,
            outer,
            right_arity,
        } => {
            let l = exec_node(env, left, subs)?;
            let r = exec_node(env, right, subs)?;
            let lkeys: Vec<SortKey> = lk.iter().map(|&c| SortKey::asc(c)).collect();
            let rkeys: Vec<SortKey> = rk.iter().map(|&c| SortKey::asc(c)).collect();
            let ls = external_sort(env.pool, l, &lkeys, env.budget)?;
            let rs = external_sort(env.pool, r, &rkeys, env.budget)?;
            if *outer {
                merge_join_left_outer(&ls, &rs, lk, rk, *right_arity)
            } else {
                merge_join_inner(&ls, &rs, lk, rk)
            }
        }
        Phys::NlJoin {
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
        Phys::Permute { input, map } => {
            let rows = exec_node(env, input, subs)?;
            Ok(rows
                .into_iter()
                .map(|row| map.iter().map(|&i| row[i].clone()).collect())
                .collect())
        }
        Phys::Filter { input, preds } => {
            let rows = exec_node(env, input, subs)?;
            apply_filters(env, rows, preds, subs)
        }
        Phys::Agg { input, group, aggs } => {
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
        Phys::Sort { input, keys } => {
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
            external_sort(env.pool, rows, &sk, env.budget)
        }
        Phys::Limit { input, n } => {
            let mut rows = exec_node(env, input, subs)?;
            rows.truncate(*n as usize);
            Ok(rows)
        }
        Phys::Project { input, exprs } => {
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
        Phys::Distinct { input } => {
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

fn exec_index_scan(env: &mut Env<'_>, node: &Phys, subs: &[SubResult]) -> DbResult<Vec<Row>> {
    let Phys::IndexScan {
        tid,
        index_no,
        eq,
        range,
        in_probe,
        keep,
        filters,
        index_only,
        index_cols,
        col_types,
        arity,
        with_rid,
        ..
    } = node
    else {
        unreachable!("exec_index_scan on non-IndexScan");
    };
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

fn fmt_cols(keep: &Option<Vec<bool>>, arity: usize) -> String {
    let kept = keep
        .as_ref()
        .map_or(arity, |m| m.iter().filter(|&&b| b).count());
    format!("cols={kept}/{arity}")
}

fn render_sel_logical(plan: &SelectPlan, depth: usize, out: &mut Vec<String>) {
    for c in &plan.ctes {
        out.push(format!("{}cte {}:", "  ".repeat(depth), c.name));
        render_sel_logical(&c.plan, depth + 1, out);
    }
    for (i, s) in plan.subs.iter().enumerate() {
        let kind = match s.kind {
            SubKind::Scalar => "scalar",
            SubKind::List => "list",
        };
        out.push(format!("{}subquery {i} ({kind}):", "  ".repeat(depth)));
        render_sel_logical(&s.plan, depth + 1, out);
    }
    render_logical(&plan.root, depth, out);
}

fn render_logical(node: &Logical, depth: usize, out: &mut Vec<String>) {
    let pad = "  ".repeat(depth);
    match node {
        Logical::Values(rows) => out.push(format!("{pad}values [rows={}]", rows.len())),
        Logical::Scan {
            table,
            arity,
            keep,
            filters,
            ..
        } => out.push(format!(
            "{pad}scan {table} [filters={} {}]",
            filters.len(),
            fmt_cols(keep, *arity)
        )),
        Logical::CteScan { name, filters, .. } => {
            out.push(format!("{pad}cte-scan {name} [filters={}]", filters.len()))
        }
        Logical::Join {
            left,
            right,
            lk,
            outer,
            ..
        } => {
            out.push(format!(
                "{pad}join [keys={}{}]",
                lk.len(),
                if *outer { ", left-outer" } else { "" }
            ));
            render_logical(left, depth + 1, out);
            render_logical(right, depth + 1, out);
        }
        Logical::NlJoin {
            left,
            right,
            pred,
            outer,
        } => {
            let name = if matches!(pred, Expr::Lit(Value::Int(1))) {
                "cross-join"
            } else {
                "nl-join"
            };
            out.push(format!(
                "{pad}{name}{}",
                if *outer { " [left-outer]" } else { "" }
            ));
            render_logical(left, depth + 1, out);
            render_logical(right, depth + 1, out);
        }
        Logical::Permute { input, map } => {
            out.push(format!("{pad}permute [{}]", map.len()));
            render_logical(input, depth + 1, out);
        }
        Logical::Filter { input, preds } => {
            out.push(format!("{pad}filter [preds={}]", preds.len()));
            render_logical(input, depth + 1, out);
        }
        Logical::Agg { input, group, aggs } => {
            out.push(format!(
                "{pad}agg [groups={}, aggs={}]",
                group.len(),
                aggs.len()
            ));
            render_logical(input, depth + 1, out);
        }
        Logical::Sort { input, keys } => {
            out.push(format!("{pad}sort [keys={}]", keys.len()));
            render_logical(input, depth + 1, out);
        }
        Logical::Limit { input, n } => {
            out.push(format!("{pad}limit {n}"));
            render_logical(input, depth + 1, out);
        }
        Logical::Project { input, exprs } => {
            out.push(format!("{pad}project [exprs={}]", exprs.len()));
            render_logical(input, depth + 1, out);
        }
        Logical::Distinct { input } => {
            out.push(format!("{pad}distinct"));
            render_logical(input, depth + 1, out);
        }
    }
}

fn render_sel_phys(ps: &PhysSelect, depth: usize, out: &mut Vec<String>) {
    for (_, name, plan) in &ps.ctes {
        out.push(format!("{}cte {name}:", "  ".repeat(depth)));
        render_sel_phys(plan, depth + 1, out);
    }
    for (i, (kind, plan)) in ps.subs.iter().enumerate() {
        let kind = match kind {
            SubKind::Scalar => "scalar",
            SubKind::List => "list",
        };
        out.push(format!("{}subquery {i} ({kind}):", "  ".repeat(depth)));
        render_sel_phys(plan, depth + 1, out);
    }
    render_phys(&ps.node, depth, out);
}

fn render_phys(node: &Phys, depth: usize, out: &mut Vec<String>) {
    let pad = "  ".repeat(depth);
    match node {
        Phys::Values(rows) => out.push(format!("{pad}Values [rows={}]", rows.len())),
        Phys::SeqScan {
            table,
            keep,
            filters,
            ..
        } => {
            let arity = keep.as_ref().map_or(0, Vec::len);
            let cols = if keep.is_some() {
                format!(" {}", fmt_cols(keep, arity))
            } else {
                String::new()
            };
            out.push(format!(
                "{pad}SeqScan {table} [filters={}{cols}]",
                filters.len()
            ));
        }
        Phys::IndexScan {
            table,
            index_name,
            eq,
            range,
            in_probe,
            filters,
            index_only,
            ..
        } => {
            let mut probe = Vec::new();
            if !eq.is_empty() {
                probe.push(format!("eq={}", eq.len()));
            }
            if range.is_some() {
                probe.push("range".to_owned());
            }
            if in_probe.is_some() {
                probe.push("in-probe".to_owned());
            }
            if *index_only {
                probe.push("index-only".to_owned());
            }
            out.push(format!(
                "{pad}IndexScan {table} via {index_name} [{}] [filters={}]",
                probe.join(" "),
                filters.len()
            ));
        }
        Phys::CteScan { name, filters, .. } => {
            out.push(format!("{pad}CteScan {name} [filters={}]", filters.len()))
        }
        Phys::MergeJoin {
            left,
            right,
            lk,
            outer,
            ..
        } => {
            out.push(format!(
                "{pad}MergeJoin [keys={}{}]",
                lk.len(),
                if *outer { ", left-outer" } else { "" }
            ));
            render_phys(left, depth + 1, out);
            render_phys(right, depth + 1, out);
        }
        Phys::NlJoin {
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
            render_phys(left, depth + 1, out);
            render_phys(right, depth + 1, out);
        }
        Phys::Permute { input, map } => {
            out.push(format!("{pad}Permute [{}]", map.len()));
            render_phys(input, depth + 1, out);
        }
        Phys::Filter { input, preds } => {
            out.push(format!("{pad}Filter [preds={}]", preds.len()));
            render_phys(input, depth + 1, out);
        }
        Phys::Agg { input, group, aggs } => {
            out.push(format!(
                "{pad}Agg [groups={}, aggs={}]",
                group.len(),
                aggs.len()
            ));
            render_phys(input, depth + 1, out);
        }
        Phys::Sort { input, keys } => {
            out.push(format!("{pad}Sort [keys={}]", keys.len()));
            render_phys(input, depth + 1, out);
        }
        Phys::Limit { input, n } => {
            out.push(format!("{pad}Limit {n}"));
            render_phys(input, depth + 1, out);
        }
        Phys::Project { input, exprs } => {
            out.push(format!("{pad}Project [exprs={}]", exprs.len()));
            render_phys(input, depth + 1, out);
        }
        Phys::Distinct { input } => {
            out.push(format!("{pad}Distinct"));
            render_phys(input, depth + 1, out);
        }
    }
}

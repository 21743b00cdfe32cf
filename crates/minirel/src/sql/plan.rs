//! Planning: bound statement → the operator tree that runs.
//!
//! [`plan_statement`] turns a parsed SELECT, INSERT, UPDATE or DELETE
//! into a [`SelectPlan`] — a tree of [`Node`] operators plus the
//! subsidiary plans it depends on (CTEs and uncorrelated subqueries) —
//! and, for DML, the [`Write`] step that plan's rows feed. The tree is
//! the one the executor runs and EXPLAIN prints. Every statement is a
//! read phase first: `DELETE FROM t WHERE p` reads `select *, rid from
//! t where p`, `UPDATE` reads the same plus its SET values, `INSERT`
//! reads its source query or VALUES rows. The target
//! table is an ordinary [`Node::Scan`] (flagged to carry rids), so
//! DML gets index selection, `?` parameters, `current timestamp` and
//! subqueries from the code SELECT uses. Planning performs its rewrites
//! as explicit, inspectable structure:
//!
//! * **Predicate pushdown** — WHERE conjuncts that bind against a single
//!   source move into that source's scan node.
//! * **Projection pruning** — the set of referenced column names is
//!   computed once and recorded on each scan as a keep-mask.
//! * **Join order** — comma-joined sources join in textual greedy
//!   order: next is the first pending source with an equi key against
//!   what has been joined so far, else the first pending source as a
//!   cross product (the order the test-side oracle joins in). The order
//!   depends on the statement alone; the executor adapts to live sizes
//!   (the hash join builds on its smaller input).
//! * **Join algorithms** — every equi-join, inner or left outer, is a
//!   [`Node::HashJoin`]. A nested loop runs a join with no equi key, and
//!   a `JOIN … ON` whose condition is not all equi keys. The algorithm
//!   is chosen without reading an estimate, so a plan cached on empty
//!   tables still hashes once they have grown.
//! * **Access paths** — once planning is done and every scan's filters
//!   are final, one walk lists each base-table scan's [`Probe`]
//!   candidates by shape, in the order the executor tries them: an `IN`
//!   filter on a column with a single-column index of its own, then one
//!   eq/range probe per index its filters bind, then — for an inner
//!   hash-join input — a single-column index on a join key, probed with
//!   the other input's keys (a semijoin reduction). The walk reads no row
//!   counts: which candidate pays, if any, is decided at every execution
//!   from the table as it is then, so a plan cached on an empty store
//!   probes once the table has grown.
//!
//! Parameters (`?`), `current timestamp`, and uncorrelated subqueries
//! stay **symbolic** in the plan ([`Expr::Param`], [`Expr::Now`],
//! [`Expr::SubScalar`], [`Expr::InSub`]); the executor substitutes them
//! per execution, which is what makes cached prepared plans see fresh
//! parameter values, clocks, and subquery source tables.
//!
//! No I/O happens here, and nothing is read from the catalog but schemas
//! and index definitions: all page traffic belongs to [`super::lower`].

use crate::catalog::{Catalog, TableId};
use crate::error::{DbError, DbResult};
use crate::exec::agg::{AggCall, AggKind};
use crate::exec::expr::{BinOp, Expr, Func, UnOp};
use crate::sql::ast::*;
use crate::sql::bind::{
    ast_eq_loose, bindable, dealias, equi_keys, gather_cols, output_name, resolve_col, BoundCol,
};
use crate::value::{Value, ValueSet};
use std::collections::HashMap;

/// A planned SELECT: its CTEs, its uncorrelated subqueries, and the
/// operator tree over them.
#[derive(Debug)]
pub struct SelectPlan {
    /// CTE plans in definition order; each fills its slot before the body
    /// runs.
    pub ctes: Vec<CtePlan>,
    /// Uncorrelated subquery plans, executed (in order) before the body's
    /// expressions are specialized.
    pub subs: Vec<SubPlan>,
    /// The operator tree.
    pub root: Node,
    /// Output column names.
    pub out_cols: Vec<BoundCol>,
}

/// One CTE: a plan whose result is materialized into `slot`.
#[derive(Debug)]
pub struct CtePlan {
    /// CTE name (for EXPLAIN).
    pub name: String,
    /// Global materialization slot (unique across the whole statement).
    pub slot: usize,
    /// Defining query.
    pub plan: SelectPlan,
}

/// What an uncorrelated subquery's result is used as.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubKind {
    /// Scalar value ([`Expr::SubScalar`]); 0 rows → NULL, >1 rows → error.
    Scalar,
    /// Value list for `IN` ([`Expr::InSub`]).
    List,
}

/// One uncorrelated subquery of a select body.
#[derive(Debug)]
pub struct SubPlan {
    /// How the body consumes the result.
    pub kind: SubKind,
    /// The subquery's plan.
    pub plan: SelectPlan,
}

/// The operators a plan is built from and run as. Expressions are bound
/// (positional); every node's output arity is recoverable via [`arity`].
#[derive(Debug)]
pub enum Node {
    /// Base-table scan with pushed-down filters and a keep-mask for
    /// projection pruning (`None` = all columns needed): a sequential
    /// heap scan, or the first of its `probes` that pays at execution.
    Scan {
        /// Table name (for EXPLAIN).
        table: String,
        /// Catalog id.
        tid: TableId,
        /// Schema arity (rows keep full width; pruned columns are NULL).
        arity: usize,
        /// Which columns must actually be decoded.
        keep: Option<Vec<bool>>,
        /// Pushed-down predicates, in consumption order. A probe
        /// re-applies all of them, which makes lossy probe bounds
        /// (dropped range ends, overscans) harmless.
        filters: Vec<Expr>,
        /// Append each row's rid as one trailing value (position
        /// `arity`). Set only on the target scan of an UPDATE/DELETE
        /// read phase; filters still bind positions `< arity`.
        with_rid: bool,
        /// The B+tree candidates, in the order the executor tries them:
        /// empty until planning ends, then filled by
        /// `choose_access_paths`.
        probes: Vec<Probe>,
    },
    /// Literal rows of row-free expressions: `INSERT … VALUES`, and one
    /// empty row for a SELECT without FROM.
    Values(Vec<Vec<Expr>>),
    /// Scan of a materialized CTE slot.
    CteScan {
        /// CTE name (for EXPLAIN).
        name: String,
        /// Materialization slot.
        slot: usize,
        /// Output arity.
        arity: usize,
        /// Pushed-down predicates.
        filters: Vec<Expr>,
    },
    /// Hash equi-join (see [`crate::exec::hash_join`]).
    HashJoin {
        /// Left input.
        left: Box<Node>,
        /// Right input.
        right: Box<Node>,
        /// Left key columns.
        lk: Vec<usize>,
        /// Right key columns.
        rk: Vec<usize>,
        /// LEFT OUTER?
        outer: bool,
    },
    /// Nested-loop join with an arbitrary predicate over the
    /// concatenated row (`Lit(1)` = cartesian product).
    NlJoin {
        /// Left input.
        left: Box<Node>,
        /// Right input.
        right: Box<Node>,
        /// Join predicate over `left ++ right`.
        pred: Expr,
        /// LEFT OUTER?
        outer: bool,
    },
    /// Residual predicates, applied in order.
    Filter {
        /// Input.
        input: Box<Node>,
        /// Predicates; a row must pass all, evaluated left to right.
        preds: Vec<Expr>,
    },
    /// Hash aggregation; output columns are `group values ++ aggregates`.
    Agg {
        /// Input.
        input: Box<Node>,
        /// Group-by expressions.
        group: Vec<Expr>,
        /// Aggregate calls.
        aggs: Vec<AggCall>,
    },
    /// In-memory sort.
    Sort {
        /// Input.
        input: Box<Node>,
        /// `(key expr, descending)` pairs.
        keys: Vec<(Expr, bool)>,
    },
    /// LIMIT (applied before projection, as the dialect specifies).
    Limit {
        /// Input.
        input: Box<Node>,
        /// Max rows.
        n: u64,
    },
    /// Projection.
    Project {
        /// Input.
        input: Box<Node>,
        /// Output expressions.
        exprs: Vec<Expr>,
    },
    /// DISTINCT over projected rows.
    Distinct {
        /// Input.
        input: Box<Node>,
    },
}

/// One way a [`Node::Scan`] can reach its rows through a B+tree. The
/// planner lists a scan's candidates by shape alone, in the order the
/// executor tries them; which one runs, if any, is decided at execution
/// from the table's live size and the key list met there (see
/// [`super::lower`]).
#[derive(Debug)]
pub struct Probe {
    /// Position in the table's index list.
    pub index_no: usize,
    /// Index name (for EXPLAIN).
    pub index_name: String,
    /// The index's key columns.
    pub index_cols: Vec<usize>,
    /// Serve rows from decoded index keys without heap fetches.
    pub index_only: bool,
    /// Where the probe's keys come from.
    pub keys: Keys,
}

/// The key source of a [`Probe`]. Every source but `Prefix` is a key
/// list known only at execution, probed through a single-column index.
#[derive(Debug)]
pub enum Keys {
    /// Row-free expressions giving an eq prefix of the index's columns,
    /// in index column order, and an optional range on the next one.
    Prefix(Vec<Expr>, Option<RangeProbe>),
    /// `IN (v, v, …)`.
    List(ValueSet),
    /// `IN (select …)`: the subquery's slot.
    Sub(usize),
    /// An inner hash join's other input: the distinct values of its key
    /// at this position of the join's key lists (a semijoin reduction).
    Join(usize),
}

/// Range bound pair on the index column after the eq prefix.
#[derive(Debug)]
pub struct RangeProbe {
    /// Lower bound expression (row-free), and whether it is exclusive.
    pub lo: Option<(Expr, bool)>,
    /// Upper bound expression (row-free), and whether it is exclusive.
    pub hi: Option<(Expr, bool)>,
}

/// Output arity of a node.
pub fn arity(node: &Node) -> usize {
    match node {
        Node::Scan {
            arity, with_rid, ..
        } => arity + usize::from(*with_rid),
        Node::Values(rows) => rows.first().map_or(0, Vec::len),
        Node::CteScan { arity, .. } => *arity,
        Node::HashJoin { left, right, .. } | Node::NlJoin { left, right, .. } => {
            arity(left) + arity(right)
        }
        Node::Filter { input, .. }
        | Node::Sort { input, .. }
        | Node::Limit { input, .. }
        | Node::Distinct { input } => arity(input),
        Node::Agg { group, aggs, .. } => group.len() + aggs.len(),
        Node::Project { exprs, .. } => exprs.len(),
    }
}

/// The write step a DML plan ends in. It consumes the rows of the
/// statement's read phase — which is an ordinary [`SelectPlan`] and has
/// finished before the first write, so `SET`/`WHERE` subqueries over the
/// target see pre-statement state and a probe on the column being
/// rewritten never meets its own output.
#[derive(Debug, Clone)]
pub enum Write {
    /// Read rows hold one value per entry of `positions` (schema
    /// positions, in column-list order); other columns are NULL.
    Insert {
        /// Target table.
        tid: TableId,
        /// Schema position each read column lands in.
        positions: Vec<usize>,
    },
    /// Read rows are `old row ++ [rid] ++ SET values`, in heap order.
    Update {
        /// Target table.
        tid: TableId,
        /// Schema position each SET value replaces.
        sets: Vec<usize>,
    },
    /// Read rows are `old row ++ [rid]`, in heap order.
    Delete {
        /// Target table.
        tid: TableId,
    },
}

/// Plan a SELECT, `EXPLAIN <select>`, INSERT, UPDATE or DELETE. Returns
/// the read-phase plan, the write step (DML only), the number of CTE
/// slots the whole statement needs, and the number of `?` parameters it
/// takes. DDL has no plan.
pub fn plan_statement(
    catalog: &Catalog,
    stmt: &Statement,
) -> DbResult<(SelectPlan, Option<Write>, usize, usize)> {
    let mut p = Planner {
        catalog,
        scope: HashMap::new(),
        next_slot: 0,
        max_param: None,
    };
    let (mut read, write) = p.plan_stmt(stmt)?;
    choose_access_paths(catalog, &mut read);
    Ok((read, write, p.next_slot, p.max_param.map_or(0, |m| m + 1)))
}

/// An in-scope CTE: its slot and output shape.
#[derive(Clone)]
struct CteInfo {
    slot: usize,
    cols: Vec<BoundCol>,
}

/// One FROM source before joins: its columns and its (filter-bearing)
/// scan node.
struct Src {
    cols: Vec<BoundCol>,
    node: Node,
}

struct Planner<'a> {
    catalog: &'a Catalog,
    /// Lexical CTE scope (saved/restored around each SELECT).
    scope: HashMap<String, CteInfo>,
    /// Next global CTE slot.
    next_slot: usize,
    /// Highest `?` index seen.
    max_param: Option<usize>,
}

impl<'a> Planner<'a> {
    fn plan_select(&mut self, sel: &SelectStmt) -> DbResult<SelectPlan> {
        let saved = self.scope.clone();
        let result = self.plan_select_inner(sel);
        self.scope = saved;
        result
    }

    fn plan_select_inner(&mut self, sel: &SelectStmt) -> DbResult<SelectPlan> {
        let mut ctes = Vec::new();
        for cte in &sel.ctes {
            let plan = self.plan_select(&cte.query)?;
            let cols: Vec<BoundCol> = if !cte.cols.is_empty() {
                if cte.cols.len() != plan.out_cols.len() {
                    return Err(DbError::Binding(format!(
                        "CTE {} declares {} columns but query produces {}",
                        cte.name,
                        cte.cols.len(),
                        plan.out_cols.len()
                    )));
                }
                cte.cols
                    .iter()
                    .map(|n| BoundCol {
                        qualifier: Some(cte.name.clone()),
                        name: n.clone(),
                    })
                    .collect()
            } else {
                plan.out_cols
                    .iter()
                    .map(|c| BoundCol {
                        qualifier: Some(cte.name.clone()),
                        name: c.name.clone(),
                    })
                    .collect()
            };
            let slot = self.next_slot;
            self.next_slot += 1;
            self.scope.insert(cte.name.clone(), CteInfo { slot, cols });
            ctes.push(CtePlan {
                name: cte.name.clone(),
                slot,
                plan,
            });
        }
        let mut subs = Vec::new();
        let (root, out_cols) = self.plan_body(sel, &mut subs)?;
        Ok(SelectPlan {
            ctes,
            subs,
            root,
            out_cols,
        })
    }

    // ------------------------------------------------------------ binding

    /// Bind an AST expression against `cols`, planning any subqueries it
    /// contains into `subs`.
    fn bind_expr(
        &mut self,
        e: &AstExpr,
        cols: &[BoundCol],
        subs: &mut Vec<SubPlan>,
    ) -> DbResult<Expr> {
        match e {
            AstExpr::Column { qualifier, name } => {
                let i = resolve_col(cols, qualifier.as_deref(), name)?;
                Ok(Expr::Col(i))
            }
            AstExpr::Int(i) => Ok(Expr::Lit(Value::Int(*i))),
            AstExpr::Float(f) => Ok(Expr::Lit(Value::Float(*f))),
            AstExpr::Str(s) => Ok(Expr::Lit(Value::Str(s.clone()))),
            AstExpr::Null => Ok(Expr::Lit(Value::Null)),
            AstExpr::CurrentTimestamp => Ok(Expr::Now),
            AstExpr::Param(i) => {
                self.max_param = Some(self.max_param.map_or(*i, |m| m.max(*i)));
                Ok(Expr::Param(*i))
            }
            AstExpr::Bin(op, l, r) => Ok(Expr::bin(
                *op,
                self.bind_expr(l, cols, subs)?,
                self.bind_expr(r, cols, subs)?,
            )),
            AstExpr::Neg(x) => Ok(Expr::Un(
                UnOp::Neg,
                Box::new(self.bind_expr(x, cols, subs)?),
            )),
            AstExpr::Not(x) => Ok(Expr::Un(
                UnOp::Not,
                Box::new(self.bind_expr(x, cols, subs)?),
            )),
            AstExpr::IsNull { expr, negated } => Ok(Expr::IsNull(
                Box::new(self.bind_expr(expr, cols, subs)?),
                *negated,
            )),
            AstExpr::InList {
                expr,
                list,
                negated,
            } => {
                let bound = self.bind_expr(expr, cols, subs)?;
                // List items are row-free. Fold constant items to values;
                // items holding deferred leaves (params, subqueries, the
                // clock) force a desugared comparison chain instead.
                let items: Vec<Expr> = list
                    .iter()
                    .map(|item| self.bind_expr(item, &[], subs))
                    .collect::<DbResult<_>>()?;
                if items.iter().all(|it| !has_deferred(it)) {
                    let empty: crate::value::Row = Vec::new();
                    let mut vals = Vec::with_capacity(items.len());
                    for it in &items {
                        vals.push(it.eval(&empty)?);
                    }
                    return Ok(Expr::InList(Box::new(bound), vals.into(), *negated));
                }
                // v IN (a, b) → v = a OR v = b (NULL probe yields false on
                // its own); v NOT IN (a, b) needs an explicit NULL-probe
                // guard to keep the engine's "NULL NOT IN → false" rule.
                let mut chain = Expr::Lit(Value::Int(0));
                for (i, it) in items.into_iter().enumerate() {
                    let eq = Expr::bin(BinOp::Eq, bound.clone(), it);
                    chain = if i == 0 {
                        eq
                    } else {
                        Expr::bin(BinOp::Or, chain, eq)
                    };
                }
                if *negated {
                    Ok(Expr::bin(
                        BinOp::And,
                        Expr::Un(UnOp::Not, Box::new(Expr::IsNull(Box::new(bound), false))),
                        Expr::Un(UnOp::Not, Box::new(chain)),
                    ))
                } else {
                    Ok(chain)
                }
            }
            AstExpr::InSubquery {
                expr,
                query,
                negated,
            } => {
                let bound = self.bind_expr(expr, cols, subs)?;
                let plan = self.plan_select(query)?;
                if plan.out_cols.len() != 1 {
                    return Err(DbError::Binding(
                        "IN subquery must produce exactly one column".into(),
                    ));
                }
                let idx = subs.len();
                subs.push(SubPlan {
                    kind: SubKind::List,
                    plan,
                });
                Ok(Expr::InSub(Box::new(bound), idx, *negated))
            }
            AstExpr::ScalarSubquery(query) => {
                let plan = self.plan_select(query)?;
                if plan.out_cols.len() != 1 {
                    return Err(DbError::Binding(
                        "scalar subquery must produce exactly one column".into(),
                    ));
                }
                let idx = subs.len();
                subs.push(SubPlan {
                    kind: SubKind::Scalar,
                    plan,
                });
                Ok(Expr::SubScalar(idx))
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
                    .map(|a| self.bind_expr(a, cols, subs))
                    .collect::<DbResult<_>>()?;
                Ok(Expr::Call(f, bound))
            }
        }
    }

    /// The aggregate-context rewrite: projection/order expressions
    /// become expressions over
    /// `[group values ++ aggregate results]`.
    fn rewrite_agg(
        &mut self,
        e: &AstExpr,
        group_by: &[AstExpr],
        input: &[BoundCol],
        aggs: &mut Vec<AggCall>,
        subs: &mut Vec<SubPlan>,
    ) -> DbResult<Expr> {
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
                        self.bind_expr(&args[0], input, subs)?
                    };
                    let idx = group_by.len() + aggs.len();
                    aggs.push(AggCall { kind, arg });
                    return Ok(Expr::Col(idx));
                }
                let f = Func::parse(name)
                    .ok_or_else(|| DbError::Binding(format!("unknown function {name}()")))?;
                let rewritten: Vec<Expr> = args
                    .iter()
                    .map(|a| self.rewrite_agg(a, group_by, input, aggs, subs))
                    .collect::<DbResult<_>>()?;
                Ok(Expr::Call(f, rewritten))
            }
            AstExpr::Bin(op, l, r) => Ok(Expr::bin(
                *op,
                self.rewrite_agg(l, group_by, input, aggs, subs)?,
                self.rewrite_agg(r, group_by, input, aggs, subs)?,
            )),
            AstExpr::Neg(x) => Ok(Expr::Un(
                UnOp::Neg,
                Box::new(self.rewrite_agg(x, group_by, input, aggs, subs)?),
            )),
            AstExpr::Not(x) => Ok(Expr::Un(
                UnOp::Not,
                Box::new(self.rewrite_agg(x, group_by, input, aggs, subs)?),
            )),
            AstExpr::Int(_)
            | AstExpr::Float(_)
            | AstExpr::Str(_)
            | AstExpr::Null
            | AstExpr::CurrentTimestamp
            | AstExpr::Param(_)
            | AstExpr::ScalarSubquery(_) => self.bind_expr(e, &[], subs),
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

    // ------------------------------------------------------------ sources

    fn load_src(
        &mut self,
        item: &FromItem,
        wanted: Option<&std::collections::HashSet<String>>,
    ) -> DbResult<Src> {
        let binding = item.binding_name().to_ascii_lowercase();
        if let Some(info) = self.scope.get(&item.table) {
            let cols: Vec<BoundCol> = info
                .cols
                .iter()
                .map(|c| BoundCol {
                    qualifier: Some(binding.clone()),
                    name: c.name.clone(),
                })
                .collect();
            let arity = cols.len();
            return Ok(Src {
                cols,
                node: Node::CteScan {
                    name: item.table.clone(),
                    slot: info.slot,
                    arity,
                    filters: vec![],
                },
            });
        }
        let tid = self.catalog.table_id(&item.table)?;
        let t = self.catalog.table(tid);
        let cols: Vec<BoundCol> = t
            .schema
            .columns
            .iter()
            .map(|c| BoundCol {
                qualifier: Some(binding.clone()),
                name: c.name.clone(),
            })
            .collect();
        let keep = wanted.map(|names| {
            cols.iter()
                .map(|c| names.contains(&c.name))
                .collect::<Vec<_>>()
        });
        let arity = cols.len();
        Ok(Src {
            cols,
            node: Node::Scan {
                table: item.table.clone(),
                tid,
                arity,
                keep,
                filters: vec![],
                with_rid: false,
                probes: Vec::new(),
            },
        })
    }

    /// Push every still-unconsumed conjunct that binds against this
    /// source alone into its scan node.
    fn apply_pushdown(
        &mut self,
        src: &mut Src,
        conjs: &[AstExpr],
        consumed: &mut [bool],
        subs: &mut Vec<SubPlan>,
    ) -> DbResult<()> {
        for (i, c) in conjs.iter().enumerate() {
            if !consumed[i] && bindable(c, &src.cols) {
                consumed[i] = true;
                let e = self.bind_expr(c, &src.cols, subs)?;
                add_filter(&mut src.node, e);
            }
        }
        Ok(())
    }

    // ------------------------------------------------------------ DML

    /// Every statement is a read phase; DML adds the write step that
    /// phase's rows feed. `DELETE … WHERE p` reads `select *, rid from t
    /// where p`, `UPDATE` reads the same plus its SET values, `INSERT`
    /// reads its source query (or its VALUES rows).
    fn plan_stmt(&mut self, stmt: &Statement) -> DbResult<(SelectPlan, Option<Write>)> {
        let mut subs = Vec::new();
        let (root, write) = match stmt {
            Statement::Select(q) | Statement::Explain(q) => {
                return Ok((self.plan_select(q)?, None));
            }
            Statement::Insert {
                table,
                cols,
                source,
            } => {
                let tid = self.catalog.table_id(table)?;
                let positions = if cols.is_empty() {
                    (0..self.catalog.table(tid).schema.arity()).collect()
                } else {
                    self.target_positions(tid, table, cols.iter())?
                };
                let check_arity = |n: usize| match n == positions.len() {
                    true => Ok(()),
                    false => Err(DbError::Schema(format!(
                        "INSERT provides {n} values for {} columns",
                        positions.len()
                    ))),
                };
                match source {
                    InsertSource::Select(q) => {
                        let read = self.plan_select(q)?;
                        check_arity(read.out_cols.len())?;
                        return Ok((read, Some(Write::Insert { tid, positions })));
                    }
                    InsertSource::Values(rows) => {
                        let mut bound = Vec::with_capacity(rows.len());
                        for row in rows {
                            check_arity(row.len())?;
                            bound.push(
                                row.iter()
                                    .map(|e| self.bind_expr(e, &[], &mut subs))
                                    .collect::<DbResult<_>>()?,
                            );
                        }
                        (Node::Values(bound), Write::Insert { tid, positions })
                    }
                }
            }
            Statement::Update {
                table,
                sets,
                where_,
            } => {
                let (tid, src) = self.plan_target(table, where_.as_ref(), &mut subs)?;
                let mut exprs: Vec<Expr> = (0..=src.cols.len()).map(Expr::Col).collect();
                for (_, e) in sets {
                    exprs.push(self.bind_expr(e, &src.cols, &mut subs)?);
                }
                let sets = self.target_positions(tid, table, sets.iter().map(|(c, _)| c))?;
                let input = Box::new(src.node);
                let root = Node::Project { input, exprs };
                (root, Write::Update { tid, sets })
            }
            Statement::Delete { table, where_ } => {
                let (tid, src) = self.plan_target(table, where_.as_ref(), &mut subs)?;
                (src.node, Write::Delete { tid })
            }
            ddl => return Err(DbError::Binding(format!("no plan for DDL: {ddl:?}"))),
        };
        // No CTEs of its own and no output names: the rows feed the
        // write step, not a result set.
        let read = SelectPlan {
            ctes: Vec::new(),
            subs,
            root,
            out_cols: Vec::new(),
        };
        Ok((read, Some(write)))
    }

    /// The source of an UPDATE/DELETE read phase: the target table's scan
    /// with every column kept, each row's rid appended, and the whole
    /// WHERE pushed into it — so it gets its access path exactly as a
    /// SELECT's scan does.
    fn plan_target(
        &mut self,
        table: &str,
        where_: Option<&AstExpr>,
        subs: &mut Vec<SubPlan>,
    ) -> DbResult<(TableId, Src)> {
        let item = FromItem {
            table: table.to_owned(),
            alias: None,
        };
        let mut src = self.load_src(&item, None)?;
        let Node::Scan { tid, with_rid, .. } = &mut src.node else {
            unreachable!("UPDATE/DELETE have no WITH clause, so no CTE can shadow the target");
        };
        *with_rid = true;
        let tid = *tid;
        // One source: every conjunct binds against it or is an error.
        for c in where_.cloned().map(AstExpr::conjuncts).unwrap_or_default() {
            let e = self.bind_expr(&c, &src.cols, subs)?;
            add_filter(&mut src.node, e);
        }
        Ok((tid, src))
    }

    /// Schema positions of the columns an INSERT column list or a SET
    /// list names; an unknown column or one named twice is an error.
    fn target_positions<'n>(
        &self,
        tid: TableId,
        table: &str,
        names: impl Iterator<Item = &'n String>,
    ) -> DbResult<Vec<usize>> {
        let schema = &self.catalog.table(tid).schema;
        let mut positions = Vec::new();
        for c in names {
            let p = schema
                .index_of(c)
                .ok_or_else(|| DbError::Binding(format!("no column {c} in {table}")))?;
            if positions.contains(&p) {
                return Err(DbError::Binding(format!(
                    "column {c} is assigned twice in {table}"
                )));
            }
            positions.push(p);
        }
        Ok(positions)
    }

    // ------------------------------------------------------------ body

    fn plan_body(
        &mut self,
        sel: &SelectStmt,
        subs: &mut Vec<SubPlan>,
    ) -> DbResult<(Node, Vec<BoundCol>)> {
        let wanted = gather_cols(sel);
        let where_conjuncts: Vec<AstExpr> = sel
            .where_
            .clone()
            .map(AstExpr::conjuncts)
            .unwrap_or_default();
        let mut consumed = vec![false; where_conjuncts.len()];

        let mut acc: Src = if sel.from.is_empty() {
            Src {
                cols: vec![],
                node: Node::Values(vec![vec![]]),
            }
        } else {
            self.load_src(&sel.from[0].item, wanted.as_ref())?
        };
        self.apply_pushdown(&mut acc, &where_conjuncts, &mut consumed, subs)?;

        // Explicit JOIN ... ON items fold into `acc` in textual order;
        // comma items wait for the greedy order below.
        let mut pending: Vec<Src> = Vec::new();
        for fc in sel.from.iter().skip(1) {
            match fc.kind {
                JoinKind::Cross => {
                    let mut s = self.load_src(&fc.item, wanted.as_ref())?;
                    self.apply_pushdown(&mut s, &where_conjuncts, &mut consumed, subs)?;
                    pending.push(s);
                }
                JoinKind::Inner | JoinKind::LeftOuter => {
                    let mut rel = self.load_src(&fc.item, wanted.as_ref())?;
                    if fc.kind == JoinKind::Inner {
                        self.apply_pushdown(&mut rel, &where_conjuncts, &mut consumed, subs)?;
                    }
                    let on = fc
                        .on
                        .clone()
                        .ok_or_else(|| DbError::Binding("JOIN requires an ON predicate".into()))?;
                    let on_conj = on.clone().conjuncts();
                    let (used, lk, rk) = equi_keys(&on_conj, &acc.cols, &rel.cols);
                    let outer = fc.kind == JoinKind::LeftOuter;
                    if used.len() == on_conj.len() && !lk.is_empty() {
                        acc = join_src(acc, rel, lk, rk, outer);
                    } else {
                        let cols: Vec<BoundCol> =
                            acc.cols.iter().chain(rel.cols.iter()).cloned().collect();
                        let pred = self.bind_expr(&on, &cols, subs)?;
                        acc = nl_src(acc, rel, pred, outer);
                    }
                }
            }
        }

        // Comma sources join in textual greedy order: next is the first
        // pending source with an equi key (an unconsumed WHERE conjunct)
        // against `acc`, else the first pending source as a cross product.
        while !pending.is_empty() {
            let unconsumed_idx: Vec<usize> = (0..where_conjuncts.len())
                .filter(|&i| !consumed[i])
                .collect();
            let unconsumed: Vec<AstExpr> = unconsumed_idx
                .iter()
                .map(|&i| where_conjuncts[i].clone())
                .collect();
            let keyed = pending.iter().enumerate().find_map(|(pi, s)| {
                let (used, lk, rk) = equi_keys(&unconsumed, &acc.cols, &s.cols);
                (!lk.is_empty()).then_some((pi, used, lk, rk))
            });
            acc = match keyed {
                Some((pi, used, lk, rk)) => {
                    for u in used {
                        consumed[unconsumed_idx[u]] = true;
                    }
                    join_src(acc, pending.remove(pi), lk, rk, false)
                }
                None => nl_src(acc, pending.remove(0), Expr::Lit(Value::Int(1)), false),
            };
        }
        let Src { cols, mut node } = acc;

        // Residual WHERE conjuncts (everything not consumed by pushdown
        // or join keys).
        let residuals: Vec<Expr> = where_conjuncts
            .iter()
            .enumerate()
            .filter(|(i, _)| !consumed[*i])
            .map(|(_, c)| self.bind_expr(c, &cols, subs))
            .collect::<DbResult<_>>()?;
        if !residuals.is_empty() {
            node = Node::Filter {
                input: Box::new(node),
                preds: residuals,
            };
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

        let (proj_exprs, out_cols) = if has_agg {
            let mut aggs: Vec<AggCall> = Vec::new();
            let group_bound: Vec<Expr> = sel
                .group_by
                .iter()
                .map(|g| self.bind_expr(g, &cols, subs))
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
                        let e = self.rewrite_agg(expr, &sel.group_by, &cols, &mut aggs, subs)?;
                        proj_exprs.push(e);
                        out_cols.push(BoundCol {
                            qualifier: None,
                            name: output_name(expr, alias.as_ref(), i),
                        });
                    }
                }
            }
            let order_keys: Vec<(Expr, bool)> = sel
                .order_by
                .iter()
                .map(|(e, desc)| {
                    let target = dealias(e, &aliases);
                    let bound = self.rewrite_agg(&target, &sel.group_by, &cols, &mut aggs, subs)?;
                    Ok((bound, *desc))
                })
                .collect::<DbResult<_>>()?;
            node = Node::Agg {
                input: Box::new(node),
                group: group_bound,
                aggs,
            };
            if !order_keys.is_empty() {
                node = Node::Sort {
                    input: Box::new(node),
                    keys: order_keys,
                };
            }
            (proj_exprs, out_cols)
        } else {
            let order_keys: Vec<(Expr, bool)> = sel
                .order_by
                .iter()
                .map(|(e, desc)| {
                    let target = dealias(e, &aliases);
                    Ok((self.bind_expr(&target, &cols, subs)?, *desc))
                })
                .collect::<DbResult<_>>()?;
            if !order_keys.is_empty() {
                node = Node::Sort {
                    input: Box::new(node),
                    keys: order_keys,
                };
            }
            let mut proj_exprs = Vec::new();
            let mut out_cols = Vec::new();
            for (i, p) in sel.projections.iter().enumerate() {
                match p {
                    Projection::Star => {
                        for (j, c) in cols.iter().enumerate() {
                            proj_exprs.push(Expr::Col(j));
                            out_cols.push(c.clone());
                        }
                    }
                    Projection::Expr { expr, alias } => {
                        proj_exprs.push(self.bind_expr(expr, &cols, subs)?);
                        out_cols.push(BoundCol {
                            qualifier: None,
                            name: output_name(expr, alias.as_ref(), i),
                        });
                    }
                }
            }
            (proj_exprs, out_cols)
        };

        if let Some(n) = sel.limit {
            node = Node::Limit {
                input: Box::new(node),
                n,
            };
        }
        node = Node::Project {
            input: Box::new(node),
            exprs: proj_exprs,
        };
        if sel.distinct {
            node = Node::Distinct {
                input: Box::new(node),
            };
        }
        Ok((node, out_cols))
    }
}

/// Does this bound expression hold an execution-time leaf (parameter,
/// subquery slot, or the session clock)?
fn has_deferred(e: &Expr) -> bool {
    match e {
        Expr::Param(_) | Expr::SubScalar(_) | Expr::InSub(..) | Expr::Now => true,
        Expr::Col(_) | Expr::Lit(_) => false,
        Expr::Bin(_, l, r) => has_deferred(l) || has_deferred(r),
        Expr::Un(_, x) | Expr::IsNull(x, _) => has_deferred(x),
        Expr::InList(x, _, _) => has_deferred(x),
        Expr::Call(_, args) => args.iter().any(has_deferred),
    }
}

/// Attach a pushed-down predicate to a source node.
fn add_filter(node: &mut Node, e: Expr) {
    match node {
        Node::Scan { filters, .. } | Node::CteScan { filters, .. } => filters.push(e),
        Node::Filter { preds, .. } => preds.push(e),
        other => {
            let input = std::mem::replace(other, Node::Values(Vec::new()));
            *other = Node::Filter {
                input: Box::new(input),
                preds: vec![e],
            };
        }
    }
}

/// Combine two sources with a hash equi-join.
fn join_src(left: Src, right: Src, lk: Vec<usize>, rk: Vec<usize>, outer: bool) -> Src {
    let cols: Vec<BoundCol> = left.cols.iter().chain(right.cols.iter()).cloned().collect();
    let node = Node::HashJoin {
        left: Box::new(left.node),
        right: Box::new(right.node),
        lk,
        rk,
        outer,
    };
    Src { cols, node }
}

/// Combine two sources with a nested-loop join on `pred` (`Lit(1)` for a
/// cross product).
fn nl_src(left: Src, right: Src, pred: Expr, outer: bool) -> Src {
    let cols: Vec<BoundCol> = left.cols.iter().chain(right.cols.iter()).cloned().collect();
    let node = Node::NlJoin {
        left: Box::new(left.node),
        right: Box::new(right.node),
        pred,
        outer,
    };
    Src { cols, node }
}

// ------------------------------------------------------------ access paths

/// List every base-table scan's B+tree candidates and every inner hash
/// join input's join-key candidate. Runs once, when planning is done and
/// every scan's filters are final, and reads no row counts: whether a
/// candidate pays is decided at execution.
fn choose_access_paths(catalog: &Catalog, plan: &mut SelectPlan) {
    for c in &mut plan.ctes {
        choose_access_paths(catalog, &mut c.plan);
    }
    for s in &mut plan.subs {
        choose_access_paths(catalog, &mut s.plan);
    }
    node_paths(catalog, &mut plan.root);
}

fn node_paths(catalog: &Catalog, node: &mut Node) {
    match node {
        Node::Scan {
            tid,
            arity,
            keep,
            filters,
            with_rid,
            probes,
            ..
        } => *probes = candidates(catalog, *tid, *arity, keep, filters, *with_rid),
        Node::Values(_) | Node::CteScan { .. } => {}
        Node::HashJoin {
            left,
            right,
            lk,
            rk,
            outer,
        } => {
            node_paths(catalog, left);
            node_paths(catalog, right);
            if !*outer {
                add_join_probe(catalog, left, lk);
                add_join_probe(catalog, right, rk);
            }
        }
        Node::NlJoin { left, right, .. } => {
            node_paths(catalog, left);
            node_paths(catalog, right);
        }
        Node::Filter { input, .. }
        | Node::Agg { input, .. }
        | Node::Sort { input, .. }
        | Node::Limit { input, .. }
        | Node::Project { input, .. }
        | Node::Distinct { input } => node_paths(catalog, input),
    }
}

/// Give an inner hash join's input a last candidate when it is a scan
/// with no `IN` key list of its own and one of its join key columns has
/// a single-column index (the first such key is the one probed).
fn add_join_probe(catalog: &Catalog, input: &mut Node, keys: &[usize]) {
    let Node::Scan {
        tid,
        arity,
        keep,
        with_rid: false,
        probes,
        ..
    } = input
    else {
        return;
    };
    if probes
        .iter()
        .any(|p| matches!(p.keys, Keys::List(_) | Keys::Sub(_)))
    {
        return;
    }
    let join = keys.iter().enumerate().find_map(|(key, &col)| {
        key_probe(catalog, *tid, col, *arity, keep, false, Keys::Join(key))
    });
    probes.extend(join);
}

/// Does index `cols` hold every column the scan must produce? An index
/// entry has no old row for a DML write step to replace, so a DML read
/// phase never serves rows from keys.
fn covers(cols: &[usize], keep: &Option<Vec<bool>>, table_arity: usize, with_rid: bool) -> bool {
    !with_rid
        && match keep {
            Some(mask) => mask
                .iter()
                .enumerate()
                .all(|(c, &need)| !need || cols.contains(&c)),
            None => (0..table_arity).all(|c| cols.contains(&c)),
        }
}

/// A key-list probe of `col` through the table's first single-column
/// index on it, if any.
fn key_probe(
    catalog: &Catalog,
    tid: TableId,
    col: usize,
    table_arity: usize,
    keep: &Option<Vec<bool>>,
    with_rid: bool,
    keys: Keys,
) -> Option<Probe> {
    let (index_no, idx) = catalog
        .table(tid)
        .indexes
        .iter()
        .enumerate()
        .find(|(_, idx)| idx.cols == [col])?;
    Some(Probe {
        index_no,
        index_name: idx.name.clone(),
        index_cols: idx.cols.clone(),
        index_only: covers(&idx.cols, keep, table_arity, with_rid),
        keys,
    })
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

/// A base-table scan's B+tree candidates, by shape: the first `IN`
/// filter whose column has a single-column index of its own, then one
/// eq/range probe per index its filters bind, fewest expected rows first
/// (longest eq prefix, then with a range; ties in index order).
fn candidates(
    catalog: &Catalog,
    tid: TableId,
    table_arity: usize,
    keep: &Option<Vec<bool>>,
    filters: &[Expr],
    with_rid: bool,
) -> Vec<Probe> {
    // Probe-able predicates, keyed by column.
    let mut eq_on: Vec<Option<&Expr>> = vec![None; table_arity];
    let mut lo_on: Vec<Option<(&Expr, bool)>> = vec![None; table_arity];
    let mut hi_on: Vec<Option<(&Expr, bool)>> = vec![None; table_arity];
    let mut probes = Vec::new();
    let in_probe = |probe: &Expr, keys| match probe {
        Expr::Col(c) => key_probe(catalog, tid, *c, table_arity, keep, with_rid, keys),
        _ => None,
    };
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
            Expr::InList(probe, vals, false) if probes.is_empty() => {
                probes.extend(in_probe(probe, Keys::List(vals.clone())));
            }
            Expr::InSub(probe, slot, false) if probes.is_empty() => {
                probes.extend(in_probe(probe, Keys::Sub(*slot)));
            }
            _ => {}
        }
    }

    let t = catalog.table(tid);
    let mut shapes: Vec<(usize, usize, bool)> = Vec::new(); // (index_no, eq_len, has_range)
    for (i, idx) in t.indexes.iter().enumerate() {
        let cols = &idx.cols;
        let k = cols.iter().take_while(|&&c| eq_on[c].is_some()).count();
        let has_range = k < cols.len() && (lo_on[cols[k]].is_some() || hi_on[cols[k]].is_some());
        if k > 0 || has_range {
            shapes.push((i, k, has_range));
        }
    }
    shapes.sort_by_key(|&(_, k, has_range)| std::cmp::Reverse((k, has_range)));
    probes.extend(shapes.into_iter().map(|(index_no, k, has_range)| {
        let idx = &t.indexes[index_no];
        let cols = &idx.cols;
        let eq = cols[..k]
            .iter()
            .map(|&c| eq_on[c].expect("the eq prefix is bound").clone());
        let range = has_range.then(|| RangeProbe {
            lo: lo_on[cols[k]].map(|(e, x)| (e.clone(), x)),
            hi: hi_on[cols[k]].map(|(e, x)| (e.clone(), x)),
        });
        Probe {
            index_no,
            index_name: idx.name.clone(),
            index_cols: cols.clone(),
            index_only: covers(cols, keep, table_arity, with_rid),
            keys: Keys::Prefix(eq.collect(), range),
        }
    }));
    probes
}

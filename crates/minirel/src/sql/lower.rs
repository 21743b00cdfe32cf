//! Preparation and execution: planned tree → rows.
//!
//! [`prepare_plan`] turns a parsed SELECT, INSERT, UPDATE or DELETE into
//! an [`ExecPlan`]: the planner's immutable, `Send + Sync` operator tree
//! (access paths and join algorithms already chosen, see
//! [`crate::sql::plan`]) that can be cached and re-executed with
//! different parameter bindings, plus — for DML — the write step its
//! rows feed. [`execute_plan`] runs the tree through shared borrows;
//! [`execute_write`] then applies a DML plan's rows as one
//! [`crate::RowBatch`] (through `Catalog::{insert_many, update_many}`
//! for inserts and updates), the only place SQL writes rows. EXPLAIN
//! renders the same tree.
//!
//! **Execution contract.** Plans keep parameters (`?`), `current
//! timestamp`, and subquery results symbolic. [`execute_plan`]
//! *specializes* each operator's expressions — substituting
//! [`Expr::Param`]/[`Expr::Now`]/[`Expr::SubScalar`]/[`Expr::InSub`]
//! leaves with literals — and then runs the operators, all in memory: a
//! read phase allocates no store pages. Uncorrelated subqueries and CTEs
//! are (re-)executed on every call, so a cached plan observes
//! source-table mutations, fresh parameters, and clock updates.
//!
//! Rows are pushed: each operator hands its rows to its consumer's
//! [`Sink`], one reused row at a time, and a consumer takes a row only if
//! it keeps it. Scans, filters, projections, LIMIT, VALUES and CTE scans
//! stream; a CTE scan reads its slot by reference and clones only the
//! rows that pass. A hash join holds its two inputs (the semijoin
//! reduction and the build-side choice need them) and streams its output
//! ([`hash_join`]). An aggregate holds its groups ([`Aggregator`]), a sort
//! and a nested-loop join collect and then push, and DISTINCT holds its
//! seen-set, cloning only rows it has not seen. A CTE slot, a subquery's
//! result and the statement's result are collected.
//!
//! Errors come out as if each operator ran to completion before its
//! consumer started: a producer's own error wins over its consumer's. A
//! consumer's first error is kept ([`Feed`]); the producer hands it
//! nothing more but still runs to its end, and returns its own error if it
//! meets one.
//!
//! **Scans.** Every access path — heap scan, eq/range probe, key-list
//! probe, index-only probe — decodes each record or index key into one
//! reused row, in place ([`decode_row_into`], [`decode_key_into`]; a
//! string decoded over a string reuses its buffer), applies the scan's
//! pushed filters to it and pushes the rows that pass. None builds the
//! table's rows first, and an index-only probe decodes each key inside
//! the index walk. Fusing the conjuncts into one pass changes no error: a
//! failure reports what conjunct-at-a-time filtering reports.
//!
//! **One admission function.** The planner lists a scan's candidate
//! probes by shape (see [`crate::sql::plan::Probe`]); `admit` picks one at
//! every execution, from the table's live rows and pages and the key list
//! met there: the first candidate that pays, or the heap scan. So a plan
//! cached on an empty store probes once the table has grown, and a plan
//! prepared and run on the same store picks what a fresh one picks. An
//! eq prefix pays from `PREFIX_ROWS` rows; a range alone when its
//! expected rows are fewer than the heap's pages; a key list — an
//! `IN (list)`, an `IN (subquery)`, or an inner hash join's other input
//! (a semijoin reduction) — while its distinct keys number at most the
//! table's rows over `KEY_SHARE`. A key list is bounded whichever way it
//! guesses: the keys are sorted and served by one
//! [`crate::btree::BTree::lookup_many`] pass, which reads the index nodes
//! on their paths about once each, and the sorted rids fetch each heap
//! page at most once, so a probe costs at most about one read of the
//! index more than the scan it replaces; past the threshold no index is
//! read at all. Below it the probe decodes only the rows its keys name. A
//! key whose encoding cannot reproduce `=` (a float past 2⁵³ against an
//! int column) sends the scan to its next candidate.
//!
//! **Row-order contract.** Index probes collect rids, sort them, and
//! fetch page-grouped ([`crate::heap::HeapFile::get_each`]), so eq/range/
//! IN probes return rows in heap order — byte-identical to what a
//! sequential scan produces, and the order a DML write step applies its
//! rows in, whichever access path found them. The single accepted
//! divergence is the index-only scan, which returns rows in key order
//! (DML read phases never use it). A reduced join input is its scan's
//! rows minus those no key of the other input names, which join with
//! nothing: the join's rows are the unreduced join's rows. Their order is
//! the hash join's (probe-input order), with the build side chosen on the
//! reduced input's size, so it may differ from the unreduced join's, as
//! it already differs with the inputs' sizes; SQL fixes no row order
//! without ORDER BY, and an UPDATE or DELETE reads one table's scan, never
//! a join. A reduced input evaluates its filters only on the rows the
//! probe fetches, as every index probe does.

use crate::btree::Hits;
use crate::buffer::BufferPool;
use crate::catalog::{Catalog, TableInfo};
use crate::error::{DbError, DbResult};
use crate::exec::agg::{AggCall, Aggregator};
use crate::exec::expr::Expr;
use crate::exec::join::{hash_join, nested_loop_join};
use crate::exec::sort::{sort_rows, SortKey};
use crate::exec::{Feed, Sink};
use crate::heap::Rid;
use crate::schema::ColumnType;
use crate::sql::ast::Statement;
use crate::sql::plan::{arity, plan_statement, Keys, Node, Probe, SelectPlan, SubKind, Write};
use crate::value::{decode_key_into, decode_row_into, encode_composite_key, Row, Value, ValueSet};
use std::collections::HashSet;

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
    List(ValueSet),
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
    slots: Vec<Option<Vec<Row>>>,
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
/// (all of them, so the statement has read everything it will read) as
/// one [`crate::RowBatch`], and return the affected count. The batch
/// validates and encodes every row before the first heap write, so a
/// rejected statement changes nothing. A delete stages each row the read
/// phase kept whole, with its rid: the write reads no row again and
/// passes over each index once.
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
            let mut batch = catalog.batch(pool, *tid);
            for row in &rows {
                batch.delete(value_rid(&row[arity]), row);
            }
            batch.write()?;
        }
    }
    Ok(affected)
}

fn exec_select(env: &mut Env<'_>, plan: &SelectPlan) -> DbResult<Vec<Row>> {
    for c in &plan.ctes {
        let rows = exec_select(env, &c.plan)?;
        env.slots[c.slot] = Some(rows);
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
            SubKind::List => SubResult::List(ValueSet::new(
                rows.into_iter().map(|mut r| r.remove(0)).collect(),
            )),
        });
    }
    rows_of(env, &plan.root, &subvals)
}

/// The rows `run` hands its sink, kept.
fn collect(run: impl FnOnce(Sink<'_>) -> DbResult<()>) -> DbResult<Vec<Row>> {
    let mut rows = Vec::new();
    run(&mut |row: &mut Row| {
        rows.push(std::mem::take(row));
        Ok(())
    })?;
    Ok(rows)
}

/// The rows of `node`, kept.
fn rows_of(env: &Env<'_>, node: &Node, subs: &[SubResult]) -> DbResult<Vec<Row>> {
    collect(|sink| exec_node(env, node, subs, sink))
}

/// Hand `rows` to `sink`, stopping at its first error: what an operator
/// that holds its rows does once it has no error of its own left to find.
fn push_all(rows: Vec<Row>, sink: Sink<'_>) -> DbResult<()> {
    rows.into_iter().try_for_each(|mut row| sink(&mut row))
}

/// A node's pushed-down or residual conjuncts, specialized once per
/// execution and applied to one row at a time. The error they report is
/// the one conjunct-at-a-time filtering reports (the order the test-side
/// oracle pins): the first failing row's error on the earliest conjunct
/// any row fails. A failure at conjunct `j` keeps only conjuncts `< j`
/// live, since only those can still fail earlier; from then on no row
/// passes.
struct Filters {
    /// The conjuncts before the earliest failure so far.
    preds: Vec<Expr>,
    /// The earliest conjunct's first error.
    err: Option<DbError>,
}

impl Filters {
    fn new(env: &Env<'_>, preds: &[Expr], subs: &[SubResult]) -> Filters {
        let mut f = Filters {
            preds: Vec::with_capacity(preds.len()),
            err: None,
        };
        for p in preds {
            match specialize(p, env.params, env.now, subs) {
                Ok(p) => f.preds.push(p),
                Err(e) => {
                    f.err = Some(e);
                    break;
                }
            }
        }
        f
    }

    /// Does `row` pass every conjunct?
    fn pass(&mut self, row: &Row) -> bool {
        for (j, p) in self.preds.iter().enumerate() {
            match p.eval(row) {
                Ok(v) if v.is_truthy() => {}
                Ok(_) => return false,
                Err(e) => {
                    self.err = Some(e);
                    self.preds.truncate(j);
                    return false;
                }
            }
        }
        self.err.is_none()
    }

    fn finish(self) -> DbResult<()> {
        self.err.map_or(Ok(()), Err)
    }
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

/// Where a base-table scan's rows go: every record or index key is
/// decoded into one reused row, in place, the scan's filters test it, and
/// a row that passes goes to the scan's sink. No access path builds the
/// table's rows first.
struct ScanOut<'a, 's> {
    /// Columns to decode (`None` = all).
    keep: Option<&'a [bool]>,
    /// Append the rid (DML read phases).
    with_rid: bool,
    /// The table's columns.
    arity: usize,
    filters: Filters,
    row: Row,
    out: Feed<Sink<'s>>,
}

impl ScanOut<'_, '_> {
    /// A heap record.
    fn record(&mut self, rid: Rid, bytes: &[u8]) -> DbResult<()> {
        if self.with_rid {
            self.row.truncate(self.arity);
        }
        decode_row_into(bytes, self.keep, &mut self.row)?;
        if self.with_rid {
            self.row.push(rid_value(rid));
        }
        self.offer();
        Ok(())
    }

    /// An index key over `cols`, standing for a row (index-only). A row a
    /// sink leaves keeps its NULLs outside `cols`.
    fn key(&mut self, key: &[u8], cols: &[usize]) -> DbResult<()> {
        if self.row.len() != self.arity {
            self.row.clear();
            self.row.resize(self.arity, Value::Null);
        }
        decode_key_into(key, cols, &mut self.row)?;
        self.offer();
        Ok(())
    }

    fn offer(&mut self) {
        if self.filters.pass(&self.row) {
            self.out.push(&mut self.row);
        }
    }

    /// The rows at `rids`, fetched in heap order: the row order a
    /// sequential scan produces.
    fn fetch(&mut self, env: &Env<'_>, t: &TableInfo, mut rids: Vec<Rid>) -> DbResult<()> {
        rids.sort_unstable();
        t.heap
            .get_each(env.pool, &rids, |rid, rec| self.record(rid, rec))
    }

    /// The scan's result: the walk's error, the filters', then the sink's.
    fn finish(self, walked: DbResult<()>) -> DbResult<()> {
        let filters = self.filters;
        self.out.finish(walked.and_then(|()| filters.finish()))
    }
}

/// Runs a hash join's other input when a scan's join-key candidate asks
/// for its keys, and returns the values at that position of the other
/// input's key list — or `None` when that input failed, and the scan
/// takes its next path.
type JoinKeys<'a> = &'a mut dyn FnMut(usize) -> Option<Vec<Value>>;

/// Rows of a base-table scan, through the access path [`admit`] picks.
/// `join` supplies the keys of a join-key candidate; without it, that
/// candidate is passed over.
fn exec_scan(
    env: &Env<'_>,
    node: &Node,
    subs: &[SubResult],
    join: Option<JoinKeys<'_>>,
    sink: Sink<'_>,
) -> DbResult<()> {
    let Node::Scan {
        tid,
        arity,
        keep,
        filters,
        with_rid,
        probes,
        ..
    } = node
    else {
        unreachable!("exec_scan on a non-scan node");
    };
    let t = env.catalog.table(*tid);
    let path = admit(t, probes, subs, join)?;
    let mut out = ScanOut {
        keep: keep.as_deref(),
        with_rid: *with_rid,
        arity: *arity,
        filters: Filters::new(env, filters, subs),
        row: Vec::new(),
        out: Feed::new(sink),
    };
    let walked = match path {
        Path::Heap => t.heap.scan(env.pool, |rid, rec| out.record(rid, rec)),
        Path::KeyList(p, keys) => {
            let mut found = Hits::default();
            (t.indexes[p.index_no].btree).lookup_many(env.pool, &keys, &mut found)?;
            match p.index_only {
                // One row per entry, in key order.
                true => keys.iter().zip(found.iter()).try_for_each(|(key, rids)| {
                    rids.iter().try_for_each(|_| out.key(key, &p.index_cols))
                }),
                false => out.fetch(env, t, found.into_all()),
            }
        }
        Path::Prefix(p) => range_scan(env, t, p, subs, &mut out),
    };
    out.finish(walked)
}

/// An eq prefix probes tables from this many rows: below it, the whole
/// heap is a page or two and a B+tree descent buys nothing.
const PREFIX_ROWS: u64 = 16;

/// The share of a table a range-only probe is expected to return (the
/// classic System R guess for one range conjunct).
const SEL_RANGE: f64 = 0.3;

/// A key list probes an index only while its distinct keys number at
/// most `1 / KEY_SHARE` of the table's rows (see the module docs).
const KEY_SHARE: u64 = 4;

/// The access path a scan takes on one execution.
enum Path<'p> {
    Heap,
    /// An eq/range probe.
    Prefix(&'p Probe),
    /// A key-list probe, with its sorted distinct keys.
    KeyList(&'p Probe, Vec<Vec<u8>>),
}

/// The admission of a scan's access path, made at every execution from
/// the table as it is now: the first candidate that pays, or the heap
/// scan. An eq prefix pays from `PREFIX_ROWS` rows; a range alone pays
/// when its expected rows (`SEL_RANGE` of the table) are fewer than the
/// heap's pages; a key list pays while [`probe_keys`] admits it.
fn admit<'p>(
    t: &TableInfo,
    probes: &'p [Probe],
    subs: &[SubResult],
    mut join: Option<JoinKeys<'_>>,
) -> DbResult<Path<'p>> {
    let rows = t.heap.len();
    let pages = t.heap.num_pages().max(1) as f64;
    for p in probes {
        let ty = t.schema.columns[p.index_cols[0]].ty;
        let keys = match &p.keys {
            Keys::Prefix(eq, _) if !eq.is_empty() => match rows >= PREFIX_ROWS {
                true => return Ok(Path::Prefix(p)),
                false => continue,
            },
            Keys::Prefix(..) => match (rows as f64 * SEL_RANGE).max(1.0) < pages {
                true => return Ok(Path::Prefix(p)),
                false => continue,
            },
            Keys::List(vs) => probe_keys(vs.values(), ty, rows),
            Keys::Sub(slot) => probe_keys(sub_list(subs, *slot)?, ty, rows),
            Keys::Join(key) => match join.as_mut().and_then(|keys_of| keys_of(*key)) {
                Some(vals) => probe_keys(&vals, ty, rows),
                None => None,
            },
        };
        if let Some(keys) = keys {
            return Ok(Path::KeyList(p, keys));
        }
    }
    Ok(Path::Heap)
}

/// An IN subquery's value list for this execution.
fn sub_list(subs: &[SubResult], i: usize) -> DbResult<&[Value]> {
    match subs.get(i) {
        Some(SubResult::List(vs)) => Ok(vs.values()),
        _ => Err(DbError::Eval("IN subquery slot out of range".into())),
    }
}

/// The distinct index keys of `vals`, coerced to the indexed column's
/// type and sorted for one `lookup_many` pass — or `None`, and the scan
/// takes its next path, when a value's key cannot reproduce `=` or the
/// keys pass `KEY_SHARE`. NULLs and values of another class match
/// nothing and are dropped. Coerced keys share one type, on which
/// `Value`'s `Eq` is exact, so the set drops only true duplicates.
fn probe_keys<'v>(
    vals: impl IntoIterator<Item = &'v Value>,
    ty: ColumnType,
    n_rows: u64,
) -> Option<Vec<Vec<u8>>> {
    let limit = n_rows / KEY_SHARE;
    let mut distinct = HashSet::new();
    for v in vals {
        match coerce_eq(v.clone(), ty) {
            EqCoerce::Val(k) => {
                distinct.insert(k);
                if distinct.len() as u64 > limit {
                    return None;
                }
            }
            EqCoerce::NoMatch => {}
            EqCoerce::Fallback => return None,
        }
    }
    let mut keys: Vec<Vec<u8>> = distinct
        .iter()
        .map(|k| encode_composite_key(std::slice::from_ref(k)))
        .collect();
    keys.sort_unstable();
    Some(keys)
}

/// The hash join's input whose scan lists a join-key candidate, if any.
fn join_probe(input: &Node) -> Option<&Probe> {
    let Node::Scan { probes, .. } = input else {
        return None;
    };
    probes.iter().find(|p| matches!(p.keys, Keys::Join(_)))
}

/// Run a hash join's inputs, reducing one whose scan admits its join-key
/// candidate. That scan runs first; when its admission reaches the
/// candidate, the other input runs and its distinct non-NULL keys become
/// the probe — or, past `KEY_SHARE`, the scan reads the heap. With both
/// inputs listing one, the larger table's scan goes first, and if it
/// takes another path, the other input may be reduced with its keys.
/// Errors keep the unreduced order: the left input's error wins, and
/// whenever the right one fails before the left has run, the left runs
/// in full to see whether it fails too.
fn join_inputs(
    env: &Env<'_>,
    subs: &[SubResult],
    inputs: [&Node; 2],
    keys: [&[usize]; 2],
) -> DbResult<[Vec<Row>; 2]> {
    let table_rows = |n: &Node| match n {
        Node::Scan { tid, .. } => env.catalog.table(*tid).heap.len(),
        _ => 0,
    };
    let red = match inputs.map(join_probe) {
        [None, None] => {
            return Ok([
                rows_of(env, inputs[0], subs)?,
                rows_of(env, inputs[1], subs)?,
            ])
        }
        [Some(_), Some(_)] => usize::from(table_rows(inputs[1]) > table_rows(inputs[0])),
        [Some(_), None] => 0,
        [None, Some(_)] => 1,
    };
    let other = 1 - red;
    let column = |rows: &[Row], c: usize| -> Vec<Value> {
        rows.iter().filter_map(|r| r.get(c).cloned()).collect()
    };
    let mut ran = None;
    let mut run_other = |key: usize| {
        let rows = ran.insert(rows_of(env, inputs[other], subs));
        Some(column(rows.as_deref().ok()?, keys[other][key]))
    };
    let reduced = collect(|sink| exec_scan(env, inputs[red], subs, Some(&mut run_other), sink));
    let other_rows = match (ran, &reduced) {
        (Some(rows), _) => rows,
        (None, Ok(rows)) if join_probe(inputs[other]).is_some() => {
            let mut given = |key: usize| Some(column(rows, keys[red][key]));
            collect(|sink| exec_scan(env, inputs[other], subs, Some(&mut given), sink))
        }
        (None, _) => rows_of(env, inputs[other], subs),
    };
    let [l, r] = match red {
        0 => [reduced, other_rows],
        _ => [other_rows, reduced],
    };
    Ok([l?, r?])
}

/// Run `node`, handing its rows to `sink` (see the module docs).
fn exec_node(env: &Env<'_>, node: &Node, subs: &[SubResult], sink: Sink<'_>) -> DbResult<()> {
    let spec = |e: &Expr| specialize(e, env.params, env.now, subs);
    match node {
        Node::Scan { .. } => exec_scan(env, node, subs, None, sink),
        Node::Values(rows) => {
            let (empty, mut row, mut out) = (Row::new(), Row::new(), Feed::new(sink));
            for exprs in rows {
                row.clear();
                for e in exprs {
                    row.push(spec(e)?.eval(&empty)?);
                }
                out.push(&mut row);
            }
            out.finish(Ok(()))
        }
        Node::CteScan { slot, filters, .. } => {
            let rows = env.slots[*slot]
                .as_ref()
                .ok_or_else(|| DbError::Eval(format!("CTE slot {slot} not materialized")))?;
            let mut f = Filters::new(env, filters, subs);
            let (mut row, mut out) = (Row::new(), Feed::new(sink));
            for r in rows {
                if f.pass(r) {
                    row.clone_from(r);
                    out.push(&mut row);
                }
            }
            out.finish(f.finish())
        }
        Node::HashJoin {
            left,
            right,
            lk,
            rk,
            outer,
        } => {
            let [l, r] = join_inputs(env, subs, [left, right], [lk, rk])?;
            hash_join(&l, &r, lk, rk, outer.then(|| arity(right)), sink)
        }
        Node::NlJoin {
            left,
            right,
            pred,
            outer,
        } => {
            let l = rows_of(env, left, subs)?;
            let r = rows_of(env, right, subs)?;
            let rows = nested_loop_join(&l, &r, &spec(pred)?, outer.then(|| arity(right)))?;
            push_all(rows, sink)
        }
        Node::Filter { input, preds } => {
            let mut f = Filters::new(env, preds, subs);
            let mut out = Feed::new(sink);
            let fed = exec_node(env, input, subs, &mut |row| {
                if f.pass(row) {
                    out.push(row);
                }
                Ok(())
            });
            out.finish(fed.and_then(|()| f.finish()))
        }
        Node::Agg { input, group, aggs } => {
            let g: Vec<Expr> = group.iter().map(spec).collect::<DbResult<_>>()?;
            let a: Vec<AggCall> = aggs
                .iter()
                .map(|c| {
                    Ok(AggCall {
                        kind: c.kind,
                        arg: spec(&c.arg)?,
                    })
                })
                .collect::<DbResult<_>>()?;
            let mut agg = Aggregator::new(&g, &a);
            exec_node(env, input, subs, &mut |row| agg.push(row))?;
            agg.finish(sink)
        }
        Node::Sort { input, keys } => {
            let rows = rows_of(env, input, subs)?;
            let sk: Vec<SortKey> = keys
                .iter()
                .map(|(e, desc)| {
                    Ok(SortKey {
                        expr: spec(e)?,
                        desc: *desc,
                    })
                })
                .collect::<DbResult<_>>()?;
            push_all(sort_rows(rows, &sk)?, sink)
        }
        Node::Limit { input, n } => {
            let mut left = *n;
            exec_node(env, input, subs, &mut |row| match left {
                0 => Ok(()),
                _ => {
                    left -= 1;
                    sink(row)
                }
            })
        }
        Node::Project { input, exprs } => {
            let es: Vec<Expr> = exprs.iter().map(spec).collect::<DbResult<_>>()?;
            let (mut o, mut out) = (Row::new(), Feed::new(sink));
            let fed = exec_node(env, input, subs, &mut |row| {
                o.clear();
                o.reserve(es.len());
                for e in &es {
                    o.push(e.eval(row)?);
                }
                out.push(&mut o);
                Ok(())
            });
            out.finish(fed)
        }
        Node::Distinct { input } => {
            let mut seen = HashSet::new();
            exec_node(env, input, subs, &mut |row| {
                if seen.contains(row.as_slice()) {
                    return Ok(());
                }
                seen.insert(row.clone());
                sink(row)
            })
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

/// The rows an eq/range probe finds, or the heap scan's when an eq
/// value's encoded key would diverge from `=` and the heap must decide
/// instead. An index-only probe decodes each key into the scan's row
/// inside the index walk.
fn range_scan(
    env: &Env<'_>,
    t: &TableInfo,
    probe: &Probe,
    subs: &[SubResult],
    out: &mut ScanOut<'_, '_>,
) -> DbResult<()> {
    let Probe {
        index_no,
        index_only,
        index_cols,
        keys: Keys::Prefix(eq, range),
        ..
    } = probe
    else {
        unreachable!("admission hands range_scan an eq/range probe");
    };
    // Declared column types drive probe-value coercion.
    let col_ty = |c: usize| t.schema.columns[c].ty;
    let idx = &t.indexes[*index_no];
    let empty: Row = Vec::new();

    // Eq-prefix key values.
    let mut prefix_vals = Vec::with_capacity(eq.len());
    for (j, e) in eq.iter().enumerate() {
        let v = specialize(e, env.params, env.now, subs)?.eval(&empty)?;
        match coerce_eq(v, col_ty(index_cols[j])) {
            EqCoerce::Val(v) => prefix_vals.push(v),
            EqCoerce::NoMatch => return Ok(()),
            EqCoerce::Fallback => return t.heap.scan(env.pool, |rid, rec| out.record(rid, rec)),
        }
    }
    let prefix = encode_composite_key(&prefix_vals);

    let mut lo_bytes = prefix.clone();
    let mut hi_bytes: Option<Vec<u8>> = None;
    if let Some(r) = range {
        let range_ty = col_ty(index_cols[eq.len()]);
        if let Some((e, _)) = &r.lo {
            let v = specialize(e, env.params, env.now, subs)?.eval(&empty)?;
            match coerce_range(v, range_ty, true) {
                RangeCoerce::Val(v) => v.encode_key(&mut lo_bytes),
                RangeCoerce::Empty => return Ok(()),
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
                RangeCoerce::Empty => return Ok(()),
                RangeCoerce::Open => {}
            }
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
    let (mut rids, mut decoded) = (Vec::new(), Ok(()));
    idx.btree.scan_from(env.pool, &lo_bytes, |k, rid| {
        if stop(k) {
            return false;
        }
        if *index_only {
            decoded = out.key(k, index_cols);
            return decoded.is_ok();
        }
        rids.push(rid);
        true
    })?;
    decoded?;
    out.fetch(env, t, rids)
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
            probes,
            ..
        } => {
            let kept = keep
                .as_ref()
                .map_or(*arity, |m| m.iter().filter(|&&b| b).count());
            let tail = format!("[filters={} cols={kept}/{arity}]", filters.len());
            // The join's key list is the join's to show.
            let vias: Vec<String> = probes
                .iter()
                .filter_map(|p| {
                    let mut tags = match &p.keys {
                        Keys::Prefix(eq, range) => {
                            let eq = (!eq.is_empty()).then(|| format!("eq={}", eq.len()));
                            eq.into_iter()
                                .chain(range.as_ref().map(|_| "range".to_owned()))
                                .collect()
                        }
                        Keys::List(_) | Keys::Sub(_) => vec!["in-probe".to_owned()],
                        Keys::Join(_) => return None,
                    };
                    if p.index_only {
                        tags.push("index-only".to_owned());
                    }
                    Some(format!("via {} [{}]", p.index_name, tags.join(" ")))
                })
                .collect();
            out.push(match vias.is_empty() {
                true => format!("{pad}SeqScan {table} {tail}"),
                false => format!("{pad}IndexScan {table} {} {tail}", vias.join(" or ")),
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
            let sides = ["left", "right"].iter().zip([left, right]);
            let reducible: Vec<String> = sides
                .filter_map(|(side, n)| Some(format!("{side} via {}", join_probe(n)?.index_name)))
                .collect();
            let reduce = match reducible.is_empty() {
                true => String::new(),
                false => format!(" [reduce {}]", reducible.join(", ")),
            };
            out.push(format!(
                "{pad}HashJoin [keys={}{}]{reduce}",
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

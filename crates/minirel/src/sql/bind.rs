//! Name resolution: SQL identifiers → positional references.
//!
//! This is the layer the planner ([`super::plan`]) shares with its
//! test-side oracle (the reference interpreter under `tests/support/`):
//! both must resolve `[qualifier.]name` to the same column index, agree
//! on which conjuncts are pushable into a single source, and prune the
//! same columns from base table scans — otherwise the planner-equivalence
//! suite could not compare them row for row. Everything here is pure: no
//! I/O, no catalog access, no subquery evaluation.
//!
//! **Contract.** A relation's shape is a `Vec<BoundCol>`; [`resolve_col`]
//! is the single source of truth for name lookup (first match wins on
//! same-named self-join columns). [`bindable`] answers "could this
//! expression be bound against exactly these columns" without side
//! effects, which is what predicate pushdown keys off. [`gather_cols`]
//! over-approximates the set of referenced column names for scan pruning
//! (`None` = a `*` somewhere needs everything). [`equi_keys`] extracts
//! equi-join key pairs, rejecting columns that resolve ambiguously on
//! both sides.

use crate::error::{DbError, DbResult};
use crate::exec::agg::AggKind;
use crate::exec::expr::BinOp;
use crate::sql::ast::*;
use std::collections::HashSet;

/// A named output column of an intermediate relation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BoundCol {
    /// Binding qualifier (table alias / CTE name); `None` for computed.
    pub qualifier: Option<String>,
    /// Column name (lower-cased).
    pub name: String,
}

/// Resolve `[qualifier.]name` against `cols`.
pub fn resolve_col(cols: &[BoundCol], qualifier: Option<&str>, name: &str) -> DbResult<usize> {
    let hits: Vec<usize> = cols
        .iter()
        .enumerate()
        .filter(|(_, c)| {
            c.name == name
                && match qualifier {
                    Some(q) => c.qualifier.as_deref() == Some(q),
                    None => true,
                }
        })
        .map(|(i, _)| i)
        .collect();
    match hits.as_slice() {
        [i] => Ok(*i),
        [] => Err(DbError::Binding(format!(
            "unknown column {}{name} (available: {})",
            qualifier.map(|q| format!("{q}.")).unwrap_or_default(),
            cols.iter()
                .map(|c| match &c.qualifier {
                    Some(q) => format!("{q}.{}", c.name),
                    None => c.name.clone(),
                })
                .collect::<Vec<_>>()
                .join(", ")
        ))),
        // Same-named columns from a self-join: first match wins, like the
        // paper's DB2 queries that rely on unambiguous names.
        many => Ok(many[0]),
    }
}

/// Can `e` be fully bound against `cols`? (No side effects.)
pub fn bindable(e: &AstExpr, cols: &[BoundCol]) -> bool {
    match e {
        AstExpr::Column { qualifier, name } => {
            resolve_col(cols, qualifier.as_deref(), name).is_ok()
        }
        AstExpr::Int(_)
        | AstExpr::Float(_)
        | AstExpr::Str(_)
        | AstExpr::Null
        | AstExpr::CurrentTimestamp
        | AstExpr::Param(_) => true,
        AstExpr::Bin(_, l, r) => bindable(l, cols) && bindable(r, cols),
        AstExpr::Neg(x) | AstExpr::Not(x) => bindable(x, cols),
        AstExpr::IsNull { expr, .. } => bindable(expr, cols),
        AstExpr::InList { expr, .. } => bindable(expr, cols),
        AstExpr::InSubquery { expr, .. } => bindable(expr, cols),
        AstExpr::ScalarSubquery(_) => true,
        AstExpr::Call { name, args, .. } => {
            AggKind::parse(name).is_none() && args.iter().all(|a| bindable(a, cols))
        }
    }
}

/// Column names referenced anywhere in a statement, for scan pruning.
/// `None` means "needs every column" (a `*` projection somewhere).
/// Over-approximates freely — names are collected unqualified and
/// across subqueries — because pruning an extra column is a correctness
/// bug while keeping one is only a few wasted nanoseconds.
pub fn gather_cols(sel: &SelectStmt) -> Option<HashSet<String>> {
    fn walk_expr(e: &AstExpr, out: &mut HashSet<String>) -> bool {
        match e {
            AstExpr::Column { name, .. } => {
                out.insert(name.clone());
                true
            }
            AstExpr::Int(_)
            | AstExpr::Float(_)
            | AstExpr::Str(_)
            | AstExpr::Null
            | AstExpr::CurrentTimestamp
            | AstExpr::Param(_) => true,
            AstExpr::Bin(_, l, r) => walk_expr(l, out) && walk_expr(r, out),
            AstExpr::Neg(x) | AstExpr::Not(x) => walk_expr(x, out),
            AstExpr::IsNull { expr, .. } => walk_expr(expr, out),
            AstExpr::InList { expr, list, .. } => {
                walk_expr(expr, out) && list.iter().all(|x| walk_expr(x, out))
            }
            AstExpr::InSubquery { expr, query, .. } => walk_expr(expr, out) && walk_sel(query, out),
            AstExpr::ScalarSubquery(q) => walk_sel(q, out),
            AstExpr::Call { args, .. } => args.iter().all(|a| walk_expr(a, out)),
        }
    }
    fn walk_sel(sel: &SelectStmt, out: &mut HashSet<String>) -> bool {
        for cte in &sel.ctes {
            if !walk_sel(&cte.query, out) {
                return false;
            }
        }
        for p in &sel.projections {
            match p {
                Projection::Star => return false,
                Projection::Expr { expr, .. } => {
                    if !walk_expr(expr, out) {
                        return false;
                    }
                }
            }
        }
        for fc in &sel.from {
            if let Some(on) = &fc.on {
                if !walk_expr(on, out) {
                    return false;
                }
            }
        }
        if let Some(w) = &sel.where_ {
            if !walk_expr(w, out) {
                return false;
            }
        }
        for g in &sel.group_by {
            if !walk_expr(g, out) {
                return false;
            }
        }
        for (e, _) in &sel.order_by {
            if !walk_expr(e, out) {
                return false;
            }
        }
        true
    }
    let mut out = HashSet::new();
    walk_sel(sel, &mut out).then_some(out)
}

/// Extract equi-join key pairs from `conjuncts` connecting `left` and
/// `right` bindings. Returns (used conjunct indexes, left cols, right cols).
pub fn equi_keys(
    conjuncts: &[AstExpr],
    left: &[BoundCol],
    right: &[BoundCol],
) -> (Vec<usize>, Vec<usize>, Vec<usize>) {
    let mut used = Vec::new();
    let mut lk = Vec::new();
    let mut rk = Vec::new();
    for (i, c) in conjuncts.iter().enumerate() {
        if let AstExpr::Bin(BinOp::Eq, a, b) = c {
            let try_pair = |x: &AstExpr, y: &AstExpr| -> Option<(usize, usize)> {
                let (xq, xn) = match x {
                    AstExpr::Column { qualifier, name } => (qualifier.as_deref(), name),
                    _ => return None,
                };
                let (yq, yn) = match y {
                    AstExpr::Column { qualifier, name } => (qualifier.as_deref(), name),
                    _ => return None,
                };
                let li = resolve_col(left, xq, xn).ok()?;
                // x must NOT be resolvable on the right under its qualifier,
                // unless it is qualified and clearly belongs to the left.
                let rj = resolve_col(right, yq, yn).ok()?;
                if resolve_col(right, xq, xn).is_ok() && xq.is_none() {
                    return None; // ambiguous side
                }
                if resolve_col(left, yq, yn).is_ok() && yq.is_none() {
                    return None;
                }
                Some((li, rj))
            };
            if let Some((li, rj)) = try_pair(a, b).or_else(|| try_pair(b, a)) {
                used.push(i);
                lk.push(li);
                rk.push(rj);
            }
        }
    }
    (used, lk, rk)
}

/// Replace a bare column that names a projection alias with the projection's
/// defining expression (ORDER BY `cnt` where `cnt` aliases `count(oid)`).
pub fn dealias(e: &AstExpr, aliases: &[(Option<String>, AstExpr)]) -> AstExpr {
    if let AstExpr::Column {
        qualifier: None,
        name,
    } = e
    {
        for (alias, def) in aliases {
            if alias.as_deref() == Some(name.as_str()) {
                return def.clone();
            }
        }
    }
    e.clone()
}

/// Output column name of a projection: alias, else source name, else `colN`.
pub fn output_name(expr: &AstExpr, alias: Option<&String>, i: usize) -> String {
    if let Some(a) = alias {
        return a.clone();
    }
    match expr {
        AstExpr::Column { name, .. } => name.clone(),
        AstExpr::Call { name, .. } => name.clone(),
        _ => format!("col{i}"),
    }
}

/// Loose structural equality used to match projections against GROUP BY
/// expressions: qualifiers may be omitted on one side.
pub fn ast_eq_loose(a: &AstExpr, b: &AstExpr) -> bool {
    match (a, b) {
        (
            AstExpr::Column {
                qualifier: qa,
                name: na,
            },
            AstExpr::Column {
                qualifier: qb,
                name: nb,
            },
        ) => na == nb && (qa == qb || qa.is_none() || qb.is_none()),
        (AstExpr::Bin(oa, la, ra), AstExpr::Bin(ob, lb, rb)) => {
            oa == ob && ast_eq_loose(la, lb) && ast_eq_loose(ra, rb)
        }
        (AstExpr::Neg(xa), AstExpr::Neg(xb)) | (AstExpr::Not(xa), AstExpr::Not(xb)) => {
            ast_eq_loose(xa, xb)
        }
        (
            AstExpr::Call {
                name: na,
                args: aa,
                star: sa,
            },
            AstExpr::Call {
                name: nb,
                args: ab,
                star: sb,
            },
        ) => {
            na == nb
                && sa == sb
                && aa.len() == ab.len()
                && aa.iter().zip(ab).all(|(x, y)| ast_eq_loose(x, y))
        }
        _ => a == b,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cols(specs: &[(&str, &str)]) -> Vec<BoundCol> {
        specs
            .iter()
            .map(|(q, n)| BoundCol {
                qualifier: (!q.is_empty()).then(|| (*q).to_owned()),
                name: (*n).to_owned(),
            })
            .collect()
    }

    #[test]
    fn resolve_prefers_first_match_and_honors_qualifier() {
        let cs = cols(&[("a", "x"), ("b", "x"), ("b", "y")]);
        assert_eq!(resolve_col(&cs, None, "x").unwrap(), 0);
        assert_eq!(resolve_col(&cs, Some("b"), "x").unwrap(), 1);
        assert_eq!(resolve_col(&cs, None, "y").unwrap(), 2);
        assert!(resolve_col(&cs, Some("c"), "x").is_err());
    }

    #[test]
    fn params_are_bindable_anywhere() {
        let e = AstExpr::Bin(
            BinOp::Eq,
            Box::new(AstExpr::Column {
                qualifier: None,
                name: "x".into(),
            }),
            Box::new(AstExpr::Param(0)),
        );
        assert!(bindable(&e, &cols(&[("t", "x")])));
        assert!(!bindable(&e, &cols(&[("t", "y")])));
    }

    #[test]
    fn gather_cols_sees_through_params() {
        let stmt =
            crate::sql::parser::parse_statement("select a from t where b = ? and c > 1").unwrap();
        let Statement::Select(sel) = stmt else {
            panic!("expected select")
        };
        let names = gather_cols(&sel).unwrap();
        assert!(names.contains("a") && names.contains("b") && names.contains("c"));
    }
}

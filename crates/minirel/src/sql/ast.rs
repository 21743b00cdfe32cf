//! SQL abstract syntax.
//!
//! The dialect covers every statement printed in the paper: the Figure 3
//! `BulkProbe` CTE query, the Figure 4 distillation DML, and the §3.7
//! monitoring queries (including `minute(...)`, `current timestamp`, and
//! interval literals like `1 hour`).

use crate::exec::expr::BinOp;
use crate::schema::ColumnType;

/// A parsed statement.
#[derive(Debug, Clone, PartialEq)]
pub enum Statement {
    /// `SELECT …` (possibly with a `WITH` prologue).
    Select(Box<SelectStmt>),
    /// `INSERT INTO t [(cols)] VALUES …` or `INSERT INTO t [(cols)] (SELECT …)`.
    Insert {
        /// Target table.
        table: String,
        /// Explicit column list (empty = schema order).
        cols: Vec<String>,
        /// Row source.
        source: InsertSource,
    },
    /// `UPDATE t SET c = e, … [WHERE p]`.
    Update {
        /// Target table.
        table: String,
        /// Assignments.
        sets: Vec<(String, AstExpr)>,
        /// Row filter.
        where_: Option<AstExpr>,
    },
    /// `DELETE FROM t [WHERE p]`.
    Delete {
        /// Target table.
        table: String,
        /// Row filter.
        where_: Option<AstExpr>,
    },
    /// `CREATE TABLE t (c ty, …)`.
    CreateTable {
        /// New table name.
        name: String,
        /// Column definitions.
        cols: Vec<(String, ColumnType)>,
    },
    /// `CREATE INDEX i ON t (c, …)`.
    CreateIndex {
        /// Index name.
        name: String,
        /// Indexed table.
        table: String,
        /// Key columns.
        cols: Vec<String>,
    },
    /// `DROP TABLE t`.
    DropTable {
        /// Table to drop.
        name: String,
    },
    /// `EXPLAIN <select>` — plan the query and return the plan tree, one
    /// row per line, instead of executing it.
    Explain(Box<SelectStmt>),
}

/// Row source of an INSERT.
#[derive(Debug, Clone, PartialEq)]
pub enum InsertSource {
    /// Literal rows.
    Values(Vec<Vec<AstExpr>>),
    /// Rows produced by a query.
    Select(Box<SelectStmt>),
}

/// A (sub)query.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SelectStmt {
    /// `WITH name(cols) AS (query), …` — visible to later CTEs and the body.
    pub ctes: Vec<Cte>,
    /// Projection list.
    pub projections: Vec<Projection>,
    /// FROM items in textual order; the first entry's `kind` is `Cross`.
    pub from: Vec<FromClause>,
    /// WHERE predicate.
    pub where_: Option<AstExpr>,
    /// GROUP BY expressions.
    pub group_by: Vec<AstExpr>,
    /// ORDER BY (expr, descending?).
    pub order_by: Vec<(AstExpr, bool)>,
    /// LIMIT row count.
    pub limit: Option<u64>,
    /// DISTINCT?
    pub distinct: bool,
}

/// A common table expression.
#[derive(Debug, Clone, PartialEq)]
pub struct Cte {
    /// Name the body refers to.
    pub name: String,
    /// Output column names (empty = inherit from the query).
    pub cols: Vec<String>,
    /// Defining query.
    pub query: SelectStmt,
}

/// One projection.
#[derive(Debug, Clone, PartialEq)]
pub enum Projection {
    /// `*`
    Star,
    /// `expr [AS alias]`
    Expr {
        /// Projected expression.
        expr: AstExpr,
        /// Output name.
        alias: Option<String>,
    },
}

/// How a FROM item combines with what precedes it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinKind {
    /// Comma join: predicate lives in WHERE.
    Cross,
    /// `[INNER] JOIN … ON`.
    Inner,
    /// `LEFT [OUTER] JOIN … ON`.
    LeftOuter,
}

/// One FROM item.
#[derive(Debug, Clone, PartialEq)]
pub struct FromClause {
    /// Join kind with respect to the accumulated left side.
    pub kind: JoinKind,
    /// The relation.
    pub item: FromItem,
    /// ON predicate for Inner/LeftOuter.
    pub on: Option<AstExpr>,
}

/// A named relation reference (base table or CTE), optionally aliased.
#[derive(Debug, Clone, PartialEq)]
pub struct FromItem {
    /// Table or CTE name.
    pub table: String,
    /// Alias (`FROM complete as C`).
    pub alias: Option<String>,
}

impl FromItem {
    /// The name this item binds columns under.
    pub fn binding_name(&self) -> &str {
        self.alias.as_deref().unwrap_or(&self.table)
    }
}

/// An unbound expression.
#[derive(Debug, Clone, PartialEq)]
pub enum AstExpr {
    /// `[qualifier.]name`
    Column {
        /// Table/alias qualifier.
        qualifier: Option<String>,
        /// Column name.
        name: String,
    },
    /// Integer literal.
    Int(i64),
    /// Float literal.
    Float(f64),
    /// String literal.
    Str(String),
    /// `NULL`.
    Null,
    /// Binary operation (reuses the executor's operator set).
    Bin(BinOp, Box<AstExpr>, Box<AstExpr>),
    /// Unary minus.
    Neg(Box<AstExpr>),
    /// `NOT e`.
    Not(Box<AstExpr>),
    /// Function or aggregate call; `star` marks `count(*)`.
    Call {
        /// Function name (resolved at bind time).
        name: String,
        /// Arguments.
        args: Vec<AstExpr>,
        /// `count(*)`?
        star: bool,
    },
    /// `e [NOT] IN (subquery)`.
    InSubquery {
        /// Tested expression.
        expr: Box<AstExpr>,
        /// Subquery producing the candidate set (first column).
        query: Box<SelectStmt>,
        /// Negated?
        negated: bool,
    },
    /// `e [NOT] IN (v, v, …)`.
    InList {
        /// Tested expression.
        expr: Box<AstExpr>,
        /// Candidate expressions.
        list: Vec<AstExpr>,
        /// Negated?
        negated: bool,
    },
    /// `(SELECT single-value)` as an expression.
    ScalarSubquery(Box<SelectStmt>),
    /// `e IS [NOT] NULL`.
    IsNull {
        /// Tested expression.
        expr: Box<AstExpr>,
        /// `IS NOT NULL`?
        negated: bool,
    },
    /// `current timestamp` — bound to the session clock.
    CurrentTimestamp,
    /// `?` placeholder, numbered left to right from 0 across the
    /// statement. Bound to a caller-supplied value at execution time.
    Param(usize),
}

impl AstExpr {
    /// Split a conjunction into its AND-ed conjuncts.
    pub fn conjuncts(self) -> Vec<AstExpr> {
        match self {
            AstExpr::Bin(BinOp::And, l, r) => {
                let mut out = l.conjuncts();
                out.extend(r.conjuncts());
                out
            }
            other => vec![other],
        }
    }

    /// Does this expression contain an aggregate call?
    pub fn has_aggregate(&self) -> bool {
        match self {
            AstExpr::Call { name, args, .. } => {
                crate::exec::agg::AggKind::parse(name).is_some()
                    || args.iter().any(AstExpr::has_aggregate)
            }
            AstExpr::Bin(_, l, r) => l.has_aggregate() || r.has_aggregate(),
            AstExpr::Neg(e) | AstExpr::Not(e) => e.has_aggregate(),
            AstExpr::InList { expr, list, .. } => {
                expr.has_aggregate() || list.iter().any(AstExpr::has_aggregate)
            }
            AstExpr::InSubquery { expr, .. } => expr.has_aggregate(),
            AstExpr::IsNull { expr, .. } => expr.has_aggregate(),
            _ => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conjunct_splitting() {
        let e = AstExpr::Bin(
            BinOp::And,
            Box::new(AstExpr::Bin(
                BinOp::And,
                Box::new(AstExpr::Int(1)),
                Box::new(AstExpr::Int(2)),
            )),
            Box::new(AstExpr::Int(3)),
        );
        assert_eq!(
            e.conjuncts(),
            vec![AstExpr::Int(1), AstExpr::Int(2), AstExpr::Int(3)]
        );
        assert_eq!(AstExpr::Int(5).conjuncts(), vec![AstExpr::Int(5)]);
    }

    #[test]
    fn aggregate_detection() {
        let agg = AstExpr::Call {
            name: "sum".into(),
            args: vec![AstExpr::Int(1)],
            star: false,
        };
        assert!(agg.has_aggregate());
        let wrapped = AstExpr::Bin(
            BinOp::Div,
            Box::new(agg),
            Box::new(AstExpr::Call {
                name: "count".into(),
                args: vec![],
                star: true,
            }),
        );
        assert!(wrapped.has_aggregate());
        let plain = AstExpr::Call {
            name: "exp".into(),
            args: vec![AstExpr::Column {
                qualifier: None,
                name: "x".into(),
            }],
            star: false,
        };
        assert!(!plain.has_aggregate());
    }

    #[test]
    fn binding_name_prefers_alias() {
        let f = FromItem {
            table: "complete".into(),
            alias: Some("c".into()),
        };
        assert_eq!(f.binding_name(), "c");
        let g = FromItem {
            table: "crawl".into(),
            alias: None,
        };
        assert_eq!(g.binding_name(), "crawl");
    }
}

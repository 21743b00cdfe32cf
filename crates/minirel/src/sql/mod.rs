//! SQL front-end: lexer → parser → binder → planner → executor.
//!
//! The dialect is sized to the paper: every statement printed in Figures
//! 3–4 and §3.7 parses and runs (see `sql::parser` tests for the verbatim
//! texts).
//!
//! This is the only engine: every SELECT, INSERT, UPDATE and DELETE runs
//! parse → [`bind`] → [`plan`] → execute. The planner pushes predicates
//! into scans, prunes columns, joins comma sources in textual greedy
//! order, picks join algorithms and lists B+tree access paths, all in the
//! one tree it builds from the statement and the schema alone;
//! [`lower`] wraps that tree into cacheable [`lower::ExecPlan`]s for
//! prepared statements, runs it, and renders it for EXPLAIN. A DML plan
//! is a read phase (an ordinary SELECT plan whose target scan carries
//! rids) ending in one write step. DDL needs no plan — `Database` makes
//! three direct catalog calls.
//!
//! The original bind-and-evaluate interpreter survives only under
//! `crates/minirel/tests/support/` as the oracle the planner-equivalence
//! suite compares against; the workspace's `tests/guardrails.rs` keeps
//! it (and a second AST → `Expr` binder) out of `src/`.

pub mod ast;
pub mod bind;
pub mod lexer;
pub mod lower;
pub mod parser;
pub mod plan;

pub use ast::{AstExpr, InsertSource, SelectStmt, Statement};
pub use bind::BoundCol;
pub use lower::{execute_plan, execute_write, prepare_plan, ExecPlan};
pub use parser::parse_statement;

//! Physical operators.
//!
//! Execution is materialized dataflow: operators consume `Vec<Row>`, and
//! all but one produce it. [`merge_join`] produces nothing: it hands each
//! left row its run of matching right rows, and its caller folds them.
//! What makes the I/O experiments honest is that the *inputs* stream
//! from heap pages and B+trees through the buffer pool, and the bulk
//! probe's [`external_sort`] spills runs back through the pool when its
//! memory budget is exceeded — so a small pool hurts `BulkProbe` exactly
//! the way Figure 8(b) shows for DB2. SQL statements join and sort in
//! memory.

pub mod agg;
pub mod expr;
pub mod join;
pub mod sort;

pub use agg::{aggregate, AggCall, AggKind};
pub use expr::{BinOp, Expr, Func, UnOp};
pub use join::{hash_join, merge_join, nested_loop_join};
pub use sort::{external_sort, sort_rows, SortKey};

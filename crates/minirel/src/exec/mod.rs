//! Physical operators.
//!
//! SQL execution pushes rows: a producer hands each row to its consumer's
//! [`Sink`], one reused row at a time, and the consumer reads it or takes
//! it. Only what must hold rows keeps them: a join's two inputs, an
//! aggregate's groups ([`Aggregator`]), a sort, a CTE slot and DISTINCT's
//! seen-set. [`hash_join`] pushes its rows into a sink, and
//! [`merge_join`] hands each left row its run of matching right rows for
//! its caller to fold. What makes the I/O experiments honest is that the
//! *inputs* stream from heap pages and B+trees through the buffer pool,
//! and the bulk probe's [`external_sort`] spills runs back through the
//! pool when its memory budget is exceeded — so a small pool hurts
//! `BulkProbe` exactly the way Figure 8(b) shows for DB2. SQL statements
//! join and sort in memory.
//!
//! **Errors.** A producer's own error wins over its consumer's, as when
//! the producer finishes before the consumer starts. A consumer's first
//! error is kept ([`Feed`]) and the producer hands it nothing more, but
//! runs on to its end; an error of its own, if any, is returned instead.

pub mod agg;
pub mod expr;
pub mod join;
pub mod sort;

pub use agg::{AggCall, AggKind, Aggregator};
pub use expr::{BinOp, Expr, Func, UnOp};
pub use join::{hash_join, merge_join, nested_loop_join};
pub use sort::{external_sort, sort_rows, SortKey};

use crate::error::{DbError, DbResult};
use crate::value::Row;

/// A consumer of rows. It is handed each row in a buffer its producer
/// reuses, and keeps a row by taking it whole (`std::mem::take`); it does
/// not edit a row it leaves. A sink never touches the buffer pool: a scan
/// feeds it from inside a page access.
pub type Sink<'s> = &'s mut dyn FnMut(&mut Row) -> DbResult<()>;

/// A producer's end of its consumer: rows go to `sink` until it first
/// fails, and that error waits for the producer's own result.
pub struct Feed<S> {
    sink: S,
    err: Option<DbError>,
}

impl<S: FnMut(&mut Row) -> DbResult<()>> Feed<S> {
    /// Feed `sink`.
    pub fn new(sink: S) -> Feed<S> {
        Feed { sink, err: None }
    }

    /// Does the sink still take rows?
    pub fn open(&self) -> bool {
        self.err.is_none()
    }

    /// Hand `row` to the sink, unless it has failed.
    pub fn push(&mut self, row: &mut Row) {
        if self.err.is_none() {
            self.err = (self.sink)(row).err();
        }
    }

    /// The producer's result `own`, then the sink's first error.
    pub fn finish(self, own: DbResult<()>) -> DbResult<()> {
        own?;
        self.err.map_or(Ok(()), Err)
    }
}

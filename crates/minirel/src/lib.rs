//! # minirel
//!
//! A small, from-scratch relational engine standing in for the IBM DB2 UDB
//! instance of the paper ("Distributed Hypertext Resource Discovery Through
//! Examples", VLDB 1999). It provides exactly the machinery the paper's
//! I/O-efficiency arguments rest on:
//!
//! * slotted-page **heap files** over a 4 KB paged file,
//! * a **buffer pool** with a configurable frame count, LRU/clock eviction
//!   and physical/logical I/O counters (the paper's Figure 8(b) sweeps the
//!   DB2 buffer pool; we sweep this one),
//! * **B+tree** secondary indexes (the `PROBE` path of `SingleProbe`),
//! * relational operators: scans, filters, **external sort**, sort-merge /
//!   hash / nested-loop joins, **left outer merge join** (the one-inner-one-
//!   outer-join rewrite of Figure 3), and group-by aggregation; SQL runs
//!   every equi-join as a hash join and sorts in memory,
//! * a **SQL subset** (lexer → parser → planner → executor) large enough to
//!   run every statement printed in the paper: the `BulkProbe` CTE query of
//!   Figure 3, the distillation statements of Figure 4, and the ad-hoc
//!   monitoring queries of §3.7.
//!
//! * a **write-ahead log** ([`wal`]) with redo-on-open crash recovery
//!   ([`recovery`]), group commit, incremental checkpoints, and
//!   WAL-shipping read [`Replica`]s — the durability the paper gets for
//!   free from DB2, reproduced so a days-long crawl survives a crash and
//!   monitors can read a follower instead of the authoritative store.
//!
//! Durability is opt-in per database, and there is one durable open:
//! [`Database::open`] recovers, rotates the log and syncs the directory
//! over any [`Fs`] — [`Database::open_with`] is that open over the
//! operating system's files ([`OsFs`]), [`Database::in_memory_durable`]
//! over a fresh [`MemFs`]. The page file ([`disk`]), the log ([`wal`])
//! and recovery are written once against the [`Storage`] trait
//! ([`storage`]), so memory and disk differ only in the files beneath
//! them. The plain in-memory constructors (no log) stay crash-simple
//! for the access-path experiments. All page traffic flows through the
//! buffer pool so that physical-read counters are meaningful and
//! machine-independent.
//!
//! ## Quick start
//!
//! ```
//! use minirel::{Database, Value};
//!
//! let mut db = Database::in_memory();
//! db.execute("create table crawl (oid int, relevance float, numtries int)").unwrap();
//! db.execute("insert into crawl (oid, relevance, numtries) values (1, 0.9, 0)").unwrap();
//! db.execute("insert into crawl (oid, relevance, numtries) values (2, 0.1, 3)").unwrap();
//! let rs = db.execute("select oid from crawl where relevance > 0.5").unwrap();
//! assert_eq!(rs.rows.len(), 1);
//! assert_eq!(rs.rows[0][0], Value::Int(1));
//! ```

pub mod btree;
pub mod buffer;
pub mod catalog;
pub mod db;
pub mod disk;
pub mod error;
pub mod exec;
pub mod heap;
pub mod page;
pub mod recovery;
pub mod schema;
pub mod sql;
pub mod storage;
pub mod value;
pub mod wal;

pub use buffer::{unobserved, BufferPool, EvictionPolicy, IoStats};
pub use catalog::{Catalog, IndexInfo, RowBatch, TableId, TableInfo};
pub use db::{wal_path_for, Database, Prepared, ResultSet, Snapshot};
pub use error::{DbError, DbResult};
pub use heap::Rid;
pub use recovery::Replica;
pub use schema::{Column, ColumnType, Schema};
pub use sql::ExecPlan;
pub use storage::{Fs, MemFs, OsFs, Storage};
pub use value::Value;
pub use wal::{Wal, DEFAULT_GROUP_COMMIT};

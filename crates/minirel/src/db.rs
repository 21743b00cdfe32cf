//! The database facade: buffer pool + catalog + SQL session.
//!
//! This is the "DB2 connection" the Focus system's modules (crawler,
//! classifier, distiller, monitor) share. It exposes both the SQL path and
//! direct storage handles — the paper's hot loops are ODBC/CLI routines,
//! ours call the catalog/B+tree APIs directly through
//! [`Database::parts_mut`] (writers) and [`Database::parts`] (readers).
//!
//! # What `&self` vs `&mut self` promises
//!
//! The receiver type is the concurrency contract:
//!
//! * `&self` methods ([`Database::query`], [`Database::io_stats`],
//!   [`Database::parts`], …) never change logical
//!   database state and are safe to call from many threads at once —
//!   page traffic goes through the interior-mutable, lock-striped
//!   [`BufferPool`], which serializes frame access per shard.
//! * `&mut self` methods ([`Database::execute`], [`Database::insert`],
//!   …) may rewrite heap pages and B+tree nodes; Rust's aliasing rules
//!   make them exclusive against every reader.
//!
//! Both sides run the same SQL pipeline (parse → bind → plan →
//! execute): `query`/`prepare` accept SELECT only and answer anything
//! else with [`DbError::ReadOnly`], `execute` plans every statement —
//! a DML plan is a read phase that finishes through shared borrows
//! before its write step takes the catalog — and hands DDL straight to
//! the catalog.
//!
//! Share a `Database` behind an `RwLock` (as the crawler's session does)
//! and SELECT-only monitoring runs under the read lock, concurrent with
//! other monitors, while mutations take the write lock.

use crate::buffer::{BufferPool, EvictionPolicy, IoStats};
use crate::catalog::{Catalog, TableId};
use crate::disk::DiskManager;
use crate::error::{DbError, DbResult};
use crate::page::{PageId, PAGE_SIZE};
use crate::recovery;
use crate::schema::Schema;
use crate::sql::lower::{execute_plan, execute_write, prepare_plan, ExecPlan};
use crate::sql::{parse_statement, Statement};
use crate::storage::{Fs, MemFs, OsFs};
use crate::value::{Row, Value};
use crate::wal::{PageDelta, Wal};
use lockcheck::{rank, OrderedRwLock};
use std::collections::HashMap;
use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A reusable prepared statement: an immutable, `Send + Sync` physical
/// plan. Cheap to clone (it is an [`Arc`]) and executable from many
/// threads at once through [`Database::query_prepared`].
pub type Prepared = Arc<ExecPlan>;

/// Cache of prepared plans keyed by normalized (trimmed) SQL text.
/// Interior-mutable so the read-only query path can populate it through
/// `&self`; invalidated wholesale on any catalog change.
struct PlanCache {
    plans: OrderedRwLock<HashMap<String, Prepared>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl Default for PlanCache {
    fn default() -> PlanCache {
        PlanCache {
            plans: OrderedRwLock::new(rank::PLAN_CACHE, HashMap::new()),
            hits: AtomicU64::default(),
            misses: AtomicU64::default(),
        }
    }
}

/// The WAL file that pairs with a data file at `data`: same path with
/// `.wal` appended (`crawl.db` → `crawl.db.wal`).
pub fn wal_path_for(data: &Path) -> PathBuf {
    let mut os = data.as_os_str().to_owned();
    os.push(".wal");
    PathBuf::from(os)
}

/// Rows + column names returned by a query.
#[derive(Debug, Clone, Default)]
pub struct ResultSet {
    /// Output column names.
    pub columns: Vec<String>,
    /// Output rows.
    pub rows: Vec<Row>,
    /// Rows affected, for DML.
    pub affected: u64,
}

impl ResultSet {
    /// First row, first column as i64 (convenience for `select count(*)`).
    pub fn scalar_i64(&self) -> Option<i64> {
        self.rows.first()?.first()?.as_i64()
    }

    /// First row, first column as f64.
    pub fn scalar_f64(&self) -> Option<f64> {
        self.rows.first()?.first()?.as_f64()
    }

    /// Render as an aligned text table (for examples and monitors).
    pub fn to_table(&self) -> String {
        let mut widths: Vec<usize> = self.columns.iter().map(String::len).collect();
        let cells: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|r| {
                r.iter()
                    .enumerate()
                    .map(|(i, v)| {
                        let s = match v {
                            Value::Float(f) => format!("{f:.4}"),
                            other => other.to_string(),
                        };
                        if i < widths.len() {
                            widths[i] = widths[i].max(s.len());
                        }
                        s
                    })
                    .collect()
            })
            .collect();
        let mut out = String::new();
        let header: Vec<String> = self
            .columns
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{c:>w$}", w = widths[i]))
            .collect();
        out.push_str(&header.join("  "));
        out.push('\n');
        for row in &cells {
            let line: Vec<String> = row
                .iter()
                .enumerate()
                .map(|(i, s)| format!("{s:>w$}", w = widths.get(i).copied().unwrap_or(0)))
                .collect();
            out.push_str(&line.join("  "));
            out.push('\n');
        }
        out
    }
}

/// A copy of a [`Database`] taken by [`Database::take_snapshot`] and loaded
/// by [`Database::adopt`]: the one page copy behind a replica's base
/// and a crawl checkpoint.
#[derive(Clone)]
pub struct Snapshot {
    pages: Vec<[u8; PAGE_SIZE]>,
    catalog: Vec<u8>,
    timestamp: i64,
}

impl fmt::Debug for Snapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Snapshot({} pages)", self.pages.len())
    }
}

/// An embedded minirel database.
pub struct Database {
    pool: BufferPool,
    catalog: Catalog,
    current_timestamp: i64,
    plan_cache: PlanCache,
}

impl Database {
    /// In-memory database with a default 256-frame (1 MB) buffer pool.
    pub fn in_memory() -> Database {
        Self::with_pool(DiskManager::in_memory(), 256, EvictionPolicy::Lru)
    }

    /// In-memory backing with an explicit pool size/policy (benchmarks).
    pub fn in_memory_with_frames(frames: usize) -> Database {
        Self::with_pool(DiskManager::in_memory(), frames, EvictionPolicy::Lru)
    }

    /// Full control over backing and eviction policy.
    pub fn with_pool(disk: DiskManager, frames: usize, policy: EvictionPolicy) -> Database {
        Self::from_parts(BufferPool::new(disk, frames, policy), Catalog::new())
    }

    /// The one place a `Database` value is put together.
    fn from_parts(pool: BufferPool, catalog: Catalog) -> Database {
        Database {
            pool,
            catalog,
            current_timestamp: 0,
            plan_cache: PlanCache::default(),
        }
    }

    /// [`Database::open`] over a fresh [`MemFs`]: durable *semantics* —
    /// commit points, replication stream, group commit, the same open
    /// and rotation as a file — with nothing surviving the process.
    /// What the crawler uses when it wants a replica but not crash
    /// persistence.
    pub fn in_memory_durable(frames: usize, group_commit: usize) -> Database {
        let fs = MemFs::default();
        Self::open(&fs, Path::new("memory.db"), frames, group_commit).expect("a fresh MemFs opens")
    }

    /// [`Database::open`] over the operating system's files ([`OsFs`]).
    pub fn open_with(path: &Path, frames: usize, group_commit: usize) -> DbResult<Database> {
        Self::open(&OsFs, path, frames, group_commit)
    }

    /// Open (or create) a durable database at `path` in `fs`, with its
    /// WAL at `path + ".wal"` and `group_commit` commits per sync (1 =
    /// every commit is durable immediately). An existing pair is
    /// **recovered**: the log's valid prefix is replayed into the data
    /// file up to the last commit (redo-on-open; a torn tail is
    /// truncated by checksum), the catalog comes from that commit, and
    /// the log is rotated — the fresh log is written and synced beside
    /// the old one and renamed over it, so a crash mid-rotation still
    /// leaves one valid log. The directory is synced before `open`
    /// returns, so the rename, and a data file or log this open
    /// created, survive a power cut.
    ///
    /// A data file with no WAL beside it is refused as corrupt rather
    /// than silently wiped or trusted: without a log there is no way to
    /// know what state the file is in (and no catalog to read it with).
    pub fn open(
        fs: &dyn Fs,
        path: &Path,
        frames: usize,
        group_commit: usize,
    ) -> DbResult<Database> {
        let wal_path = wal_path_for(path);
        let logged = fs.exists(&wal_path);
        if fs.exists(path) && !logged {
            return Err(DbError::Corrupt(format!(
                "data file {} exists without its wal {} — cannot establish a committed state",
                path.display(),
                wal_path.display()
            )));
        }
        let mut disk = DiskManager::open(fs, path)?;
        let recovered = if logged {
            recovery::replay_into(&mut disk, &*fs.open(&wal_path)?)?
        } else {
            None
        };
        let (catalog, next_lsn) = match recovered {
            Some(rec) => {
                disk.sync_all()?;
                (rec.catalog, rec.last_lsn + 1)
            }
            None => (Catalog::new(), 1),
        };
        // Rotate: fresh log seeded with one commit carrying the
        // recovered catalog, written at a temp path then renamed.
        let tmp = {
            let mut os = wal_path.as_os_str().to_owned();
            os.push(".tmp");
            PathBuf::from(os)
        };
        let wal = Wal::create(fs, &tmp, group_commit, next_lsn)?;
        wal.commit(&recovery::encode_catalog(&catalog), disk.num_pages())?;
        wal.sync()?;
        fs.rename(&tmp, &wal_path)?;
        let dir = path.parent().filter(|d| !d.as_os_str().is_empty());
        fs.sync_dir(dir.unwrap_or(Path::new(".")))?;
        let mut pool = BufferPool::new(disk, frames, EvictionPolicy::Lru);
        pool.attach_wal(Arc::new(wal));
        Ok(Self::from_parts(pool, catalog))
    }

    /// The attached WAL handle, when this database is durable.
    pub fn wal(&self) -> Option<Arc<Wal>> {
        self.pool.wal()
    }

    /// Commit: log every dirty page image plus the catalog, append a
    /// Commit record, and publish to replicas. The group-commit quota
    /// requests an fsync from the log's syncer thread without waiting
    /// for it ([`Database::commit_durable`] forces one and waits).
    /// Returns the commit's LSN.
    pub fn commit(&mut self) -> DbResult<u64> {
        let wal = self.pool.wal().ok_or_else(|| {
            DbError::ReadOnly(
                "commit() requires a durable database (open/in_memory_durable)".into(),
            )
        })?;
        self.pool.flush_all()?;
        wal.commit(
            &recovery::encode_catalog(&self.catalog),
            self.pool.num_pages(),
        )
    }

    /// [`Database::commit`] plus a forced WAL fsync, waited for outside
    /// the WAL latch — the point after which the commit survives a
    /// crash.
    pub fn commit_durable(&mut self) -> DbResult<u64> {
        let lsn = self.commit()?;
        self.pool.wal().expect("commit() verified the wal").sync()?;
        Ok(lsn)
    }

    /// Incremental checkpoint: commit, then copy every page image the
    /// log is carrying into the data file and mark the log with a
    /// checkpoint record. Rides the page images already logged by the
    /// ordinary flush path — nothing is re-serialized from the catalog
    /// up. Afterwards pool misses read the data file again.
    pub fn checkpoint(&mut self) -> DbResult<()> {
        let wal = self
            .pool
            .wal()
            .ok_or_else(|| DbError::ReadOnly("checkpoint() requires a durable database".into()))?;
        self.commit()?;
        wal.sync()?;
        let mut buf = [0u8; PAGE_SIZE];
        for pid in wal.indexed_pages() {
            if wal.read_page_into(pid, &mut buf)? {
                self.pool.write_data_direct(pid, &buf)?;
            }
        }
        self.pool.sync_data()?;
        wal.checkpoint_done(self.pool.num_pages())
    }

    /// Total pages in the backing store.
    pub fn num_pages(&self) -> u32 {
        self.pool.num_pages()
    }

    /// Copy of page `pid`'s current bytes, read through the pool (what
    /// [`Database::take_snapshot`] copies).
    pub fn page_snapshot(&self, pid: PageId) -> DbResult<[u8; PAGE_SIZE]> {
        self.pool.with_page(pid, |b| {
            let mut out = [0u8; PAGE_SIZE];
            out.copy_from_slice(b);
            out
        })
    }

    /// Install a committed page image (replica apply path; see
    /// [`BufferPool::install_page`]).
    pub fn install_page(&self, pid: PageId, buf: &[u8; PAGE_SIZE]) -> DbResult<()> {
        self.pool.install_page(pid, buf)
    }

    /// Apply a committed page delta (replica apply path; see
    /// [`BufferPool::install_delta`]).
    pub fn install_delta(&self, delta: &PageDelta<'_>) -> DbResult<()> {
        self.pool.install_delta(delta)
    }

    /// Swap in a catalog decoded from a WAL commit (replica apply path).
    pub fn replace_catalog(&mut self, catalog: Catalog) {
        self.catalog = catalog;
        self.invalidate_plans();
    }

    /// Copy this database through shared borrows: every page as the
    /// pool reads it, the catalog image and the session clock. A caller
    /// that holds off writers (as a read lock does) gets one state;
    /// [`Database::adopt`] makes another database that state.
    pub fn take_snapshot(&self) -> DbResult<Snapshot> {
        let pages = (0..self.num_pages()).map(|pid| self.page_snapshot(pid));
        Ok(Snapshot {
            pages: pages.collect::<DbResult<_>>()?,
            catalog: recovery::encode_catalog(&self.catalog),
            timestamp: self.current_timestamp,
        })
    }

    /// Make this empty database a copy of `snap`: the same pages under
    /// the same ids, the same catalog and clock. The pages enter the
    /// pool dirty and leave it as every dirty page does — into the log
    /// of a durable database, where its next commit covers them, and
    /// into the store otherwise.
    pub fn adopt(&mut self, snap: &Snapshot) -> DbResult<()> {
        if self.num_pages() != 0 {
            return Err(DbError::Eval("adopt: the target is not empty".into()));
        }
        for img in &snap.pages {
            let pid = self.pool.allocate()?;
            self.pool.with_page_mut(pid, |b| b.copy_from_slice(img))?;
        }
        self.pool.flush_all()?;
        self.replace_catalog(recovery::decode_catalog(&snap.catalog)?);
        self.current_timestamp = snap.timestamp;
        Ok(())
    }

    /// Execute one SQL statement.
    pub fn execute(&mut self, sql: &str) -> DbResult<ResultSet> {
        self.execute_with(sql, &[])
    }

    /// [`Database::execute`] with positional `?` parameter bindings —
    /// the exclusive twin of [`Database::query_with`], for any statement
    /// kind. Planned per call (no plan cache: DML runs per distillation
    /// or breaker transition, never at a rate where planning shows).
    pub fn execute_with(&mut self, sql: &str, params: &[Value]) -> DbResult<ResultSet> {
        let stmt = parse_statement(sql)?;
        self.run(&stmt, params)
    }

    /// Execute a **SELECT** (or `EXPLAIN <select>`) through shared
    /// borrows only — the read path monitors use so observing a crawl
    /// never blocks it. Plans through the staged pipeline and caches the
    /// plan; equivalent to `query_with(sql, &[])`. Returns
    /// [`DbError::ReadOnly`] for any other statement kind; route DDL/DML
    /// through [`Database::execute`], which is exclusive.
    pub fn query(&self, sql: &str) -> DbResult<ResultSet> {
        self.query_with(sql, &[])
    }

    /// [`Database::query`] with positional `?` parameter bindings.
    /// The plan is prepared (or fetched from the cache) and executed with
    /// `params` substituted — no SQL string formatting, no re-planning on
    /// repeat queries.
    pub fn query_with(&self, sql: &str, params: &[Value]) -> DbResult<ResultSet> {
        let plan = self.prepare(sql)?;
        self.query_prepared(&plan, params)
    }

    /// Prepare a SELECT / `EXPLAIN <select>` into a cached, reusable
    /// plan. Cache hits are allocation-free: a read-lock, a map probe on
    /// the trimmed SQL text, and an [`Arc`] bump. The cache is
    /// invalidated by DDL and replica catalog swaps, never by DML —
    /// plans read table data at execution time.
    pub fn prepare(&self, sql: &str) -> DbResult<Prepared> {
        let key = sql.trim();
        if let Some(p) = self.plan_cache.plans.read().get(key) {
            self.plan_cache.hits.fetch_add(1, Ordering::Relaxed);
            return Ok(Arc::clone(p));
        }
        self.plan_cache.misses.fetch_add(1, Ordering::Relaxed);
        let stmt = parse_statement(sql)?;
        if !matches!(stmt, Statement::Select(_) | Statement::Explain(_)) {
            return Err(DbError::ReadOnly(format!(
                "query() accepts SELECT only (got {})",
                sql.split_whitespace().next().unwrap_or("")
            )));
        }
        let plan = Arc::new(prepare_plan(&self.catalog, &stmt)?);
        self.plan_cache
            .plans
            .write()
            .insert(key.to_owned(), Arc::clone(&plan));
        Ok(plan)
    }

    /// Execute a prepared plan with `params` bound to its `?`
    /// placeholders. Shared-borrow: runs concurrently with other readers.
    pub fn query_prepared(&self, plan: &ExecPlan, params: &[Value]) -> DbResult<ResultSet> {
        let rows = execute_plan(
            &self.pool,
            &self.catalog,
            plan,
            params,
            self.current_timestamp,
        )?;
        Ok(Self::plan_result(plan, rows))
    }

    /// `(hits, misses)` of the prepared-plan cache.
    pub fn plan_cache_stats(&self) -> (u64, u64) {
        (
            self.plan_cache.hits.load(Ordering::Relaxed),
            self.plan_cache.misses.load(Ordering::Relaxed),
        )
    }

    fn invalidate_plans(&self) {
        self.plan_cache.plans.write().clear();
    }

    fn plan_result(plan: &ExecPlan, rows: Vec<Row>) -> ResultSet {
        ResultSet {
            columns: if plan.explain.is_some() {
                vec!["plan".to_owned()]
            } else {
                plan.columns.clone()
            },
            rows,
            affected: 0,
        }
    }

    /// One path for every statement. DDL is three direct catalog calls;
    /// everything else is planned: parse → bind → plan, the read phase
    /// runs to completion through shared borrows, and only then does a
    /// DML plan's write step touch the catalog.
    fn run(&mut self, stmt: &Statement, params: &[Value]) -> DbResult<ResultSet> {
        match stmt {
            Statement::CreateTable { name, cols } => {
                let schema = Schema::new(cols.iter().map(|(n, t)| (n.clone(), *t)));
                self.catalog.create_table(&self.pool, name, schema)?;
            }
            Statement::CreateIndex { name, table, cols } => {
                let refs: Vec<&str> = cols.iter().map(String::as_str).collect();
                self.catalog.create_index(&self.pool, name, table, &refs)?;
            }
            Statement::DropTable { name } => self.catalog.drop_table(name)?,
            // Uncached: `execute` is the one-shot path; repeat SELECTs
            // belong on `query`.
            planned => {
                let plan = prepare_plan(&self.catalog, planned)?;
                let read = self.query_prepared(&plan, params)?;
                let Some(write) = &plan.write else {
                    return Ok(read);
                };
                let affected = execute_write(&self.pool, &mut self.catalog, write, read.rows)?;
                return Ok(ResultSet {
                    affected,
                    ..Default::default()
                });
            }
        }
        // DDL changed the catalog out from under any cached plans.
        self.invalidate_plans();
        Ok(ResultSet::default())
    }

    /// Set the session clock used by `current timestamp` (seconds).
    pub fn set_current_timestamp(&mut self, secs: i64) {
        self.current_timestamp = secs;
    }

    /// External-sort memory budget (rows): proportional to the buffer
    /// pool, so that shrinking the pool also shrinks sort memory — the
    /// coupling the Figure 8(b) sweep depends on.
    pub fn sort_budget_rows(&self) -> usize {
        (self.pool.capacity() * PAGE_SIZE / 48).max(64)
    }

    /// I/O counters of the buffer pool (atomic; callable concurrently
    /// with readers and writers).
    pub fn io_stats(&self) -> IoStats {
        self.pool.stats()
    }

    /// Zero the I/O counters.
    pub fn reset_io_stats(&self) {
        self.pool.reset_stats();
    }

    /// Table id by name.
    pub fn table_id(&self, name: &str) -> DbResult<TableId> {
        self.catalog.table_id(name)
    }

    /// Row count of a table.
    pub fn table_len(&self, name: &str) -> DbResult<u64> {
        Ok(self.catalog.table(self.catalog.table_id(name)?).heap.len())
    }

    /// Split borrows for direct-operator code paths (classifier/distiller
    /// hot loops; the paper's CLI routines). The pool comes back shared —
    /// it is interior-mutable — while the catalog borrow is exclusive,
    /// so heap/index mutations stay single-writer.
    pub fn parts_mut(&mut self) -> (&BufferPool, &mut Catalog) {
        (&self.pool, &mut self.catalog)
    }

    /// Shared split borrows for read-only operator paths (index probes,
    /// scans) that can run concurrently with other readers.
    pub fn parts(&self) -> (&BufferPool, &Catalog) {
        (&self.pool, &self.catalog)
    }

    /// Heap/index agreement, checked table by table: every index is a
    /// sound tree ([`crate::btree::BTree::validate`]) with one entry per
    /// heap row — the row's key, mapped to the row's rid. Reads
    /// [`crate::buffer::unobserved`]: checking moves no counter.
    pub fn check_integrity(&self) -> DbResult<()> {
        crate::buffer::unobserved(|| self.catalog.check_integrity(&self.pool))
    }

    /// Insert a row through the typed API (faster than SQL for bulk loads).
    pub fn insert(&mut self, table: TableId, row: Row) -> DbResult<()> {
        self.catalog.insert_row(&self.pool, table, row)?;
        Ok(())
    }

    /// Insert many rows in one batch: each secondary index is
    /// maintained with a single sorted pass instead of one descent per
    /// row (the §3.1 batch-oriented access path, write side).
    pub fn insert_many(&mut self, table: TableId, rows: Vec<Row>) -> DbResult<()> {
        self.catalog.insert_many(&self.pool, table, rows)?;
        Ok(())
    }

    /// [`Database::insert_many`] of rows the caller keeps and refills:
    /// each is checked and widened in place, and the batch allocates
    /// only when it outgrows every earlier one.
    pub fn insert_rows(&mut self, table: TableId, rows: &mut [Row]) -> DbResult<()> {
        self.catalog.insert_rows(&self.pool, table, rows)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn db() -> Database {
        Database::in_memory()
    }

    #[test]
    fn end_to_end_create_insert_select() {
        let mut db = db();
        db.execute("create table crawl (oid int, url text, relevance float, numtries int)")
            .unwrap();
        db.execute(
            "insert into crawl values (1, 'http://a', 0.9, 0), (2, 'http://b', 0.2, 3), (3, 'http://c', 0.7, 0)",
        )
        .unwrap();
        let rs = db
            .execute(
                "select url, relevance from crawl where relevance > 0.5 order by relevance desc",
            )
            .unwrap();
        assert_eq!(rs.columns, vec!["url", "relevance"]);
        assert_eq!(rs.rows.len(), 2);
        assert_eq!(rs.rows[0][0], Value::Str("http://a".into()));
        assert_eq!(rs.rows[1][0], Value::Str("http://c".into()));
    }

    #[test]
    fn group_by_having_shape_of_monitoring_query() {
        let mut db = db();
        db.execute("create table crawl (oid int, relevance float, lastvisited int)")
            .unwrap();
        for i in 0..120 {
            db.execute(&format!(
                "insert into crawl values ({i}, {}, {})",
                if i % 2 == 0 { "0.0" } else { "-2.0" },
                i * 30 // two rows per minute
            ))
            .unwrap();
        }
        db.set_current_timestamp(3600);
        let rs = db
            .execute(
                "select minute(lastvisited), avg(exp(relevance)) from crawl \
                 where lastvisited + 1 hour > current timestamp \
                 group by minute(lastvisited) order by minute(lastvisited)",
            )
            .unwrap();
        // lastvisited ranges 0..3570; cutoff lastvisited > 0 → 119 rows,
        // 60 minutes worth of groups.
        assert_eq!(rs.rows.len(), 60);
        // avg(exp(0)) and avg(exp(-2)) mix: strictly between exp(-2) and 1.
        for row in &rs.rows {
            let v = row[1].as_f64().unwrap();
            assert!(v > 0.13 && v <= 1.0);
        }
    }

    #[test]
    fn update_with_scalar_subquery_normalizes() {
        let mut db = db();
        db.execute("create table hubs (oid int, score float)")
            .unwrap();
        db.execute("insert into hubs values (1, 2.0), (2, 6.0)")
            .unwrap();
        db.execute("update hubs set (score) = score / (select sum(score) from hubs)")
            .unwrap();
        let rs = db.execute("select sum(score) from hubs").unwrap();
        assert!((rs.scalar_f64().unwrap() - 1.0).abs() < 1e-12);
        let rs = db.execute("select score from hubs where oid = 2").unwrap();
        assert!((rs.scalar_f64().unwrap() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn figure4_hub_update_runs() {
        let mut db = db();
        db.execute("create table auth (oid int, score float)")
            .unwrap();
        db.execute("create table hubs (oid int, score float)")
            .unwrap();
        db.execute(
            "create table link (oid_src int, sid_src int, oid_dst int, sid_dst int, wgt_fwd float, wgt_rev float)",
        )
        .unwrap();
        // Two servers; a nepotistic self-server edge must be ignored.
        db.execute("insert into auth values (10, 0.5), (11, 0.5)")
            .unwrap();
        db.execute(
            "insert into link values \
             (1, 100, 10, 200, 1.0, 0.8), \
             (1, 100, 11, 200, 1.0, 0.6), \
             (2, 100, 10, 100, 1.0, 0.9)", // same server: filtered
        )
        .unwrap();
        db.execute(
            "insert into hubs(oid, score) \
             (select oid_src, sum(score * wgt_rev) from auth, link \
              where sid_src <> sid_dst and oid = oid_dst group by oid_src)",
        )
        .unwrap();
        let rs = db
            .execute("select oid, score from hubs order by oid")
            .unwrap();
        assert_eq!(rs.rows.len(), 1); // only hub 1 (hub 2's edge was nepotistic)
        assert_eq!(rs.rows[0][0], Value::Int(1));
        assert!((rs.rows[0][1].as_f64().unwrap() - (0.5 * 0.8 + 0.5 * 0.6)).abs() < 1e-12);
    }

    #[test]
    fn figure3_bulkprobe_shape_runs() {
        let mut db = db();
        db.execute("create table stat_c0 (kcid int, tid int, logtheta float)")
            .unwrap();
        db.execute("create table document (did int, tid int, freq int)")
            .unwrap();
        db.execute("create table taxonomy (pcid int, kcid int, logprior float, logdenom float)")
            .unwrap();
        // Taxonomy: parent 0 with kids 1, 2.
        db.execute("insert into taxonomy values (0, 1, -0.69, -3.0), (0, 2, -0.69, -2.0)")
            .unwrap();
        // Features: term 7 known to both kids; term 8 only kid 1.
        db.execute("insert into stat_c0 values (1, 7, -1.0), (2, 7, -2.0), (1, 8, -1.5)")
            .unwrap();
        // Document 100 mentions term 7 twice and unknown term 9 once.
        db.execute("insert into document values (100, 7, 2), (100, 9, 1)")
            .unwrap();
        let rs = db
            .execute(
                "with
                 partial(did, kcid, lpr1) as
                  (select did, taxonomy.kcid, sum(freq * (logtheta + logdenom))
                   from stat_c0, document, taxonomy
                   where taxonomy.pcid = 0
                     and stat_c0.tid = document.tid
                     and stat_c0.kcid = taxonomy.kcid
                   group by did, taxonomy.kcid),
                 doclen(did, len) as
                  (select did, sum(freq) from document
                   where tid in (select tid from stat_c0) group by did),
                 complete(did, kcid, lpr2) as
                  (select did, kcid, - len * logdenom
                   from doclen, taxonomy where pcid = 0)
                 select c.did, c.kcid, lpr2 + coalesce(lpr1, 0)
                 from complete as c left outer join partial as p
                   on c.did = p.did and c.kcid = p.kcid
                 order by c.kcid",
            )
            .unwrap();
        assert_eq!(rs.rows.len(), 2);
        // Only term 7 is a feature present in the doc: len = 2.
        // kid 1: lpr2 = -2*(-3) = 6; lpr1 = 2*(-1 + -3) = -8; total -2.
        // kid 2: lpr2 = -2*(-2) = 4; lpr1 = 2*(-2 + -2) = -8; total -4.
        assert_eq!(rs.rows[0][1], Value::Int(1));
        assert!((rs.rows[0][2].as_f64().unwrap() - -2.0).abs() < 1e-9);
        assert_eq!(rs.rows[1][1], Value::Int(2));
        assert!((rs.rows[1][2].as_f64().unwrap() - -4.0).abs() < 1e-9);
    }

    #[test]
    fn census_query_with_cte_and_join() {
        let mut db = db();
        db.execute("create table crawl (oid int, kcid int)")
            .unwrap();
        db.execute("create table taxonomy (kcid int, name text)")
            .unwrap();
        db.execute("insert into taxonomy values (1, 'cycling'), (2, 'investing')")
            .unwrap();
        for i in 0..10 {
            db.execute(&format!(
                "insert into crawl values ({i}, {})",
                if i < 7 { 1 } else { 2 }
            ))
            .unwrap();
        }
        let rs = db
            .execute(
                "with census(kcid, cnt) as
                   (select kcid, count(oid) from crawl group by kcid)
                 select census.kcid, cnt, name from census, taxonomy
                 where census.kcid = taxonomy.kcid order by cnt",
            )
            .unwrap();
        assert_eq!(rs.rows.len(), 2);
        assert_eq!(rs.rows[0][2], Value::Str("investing".into()));
        assert_eq!(rs.rows[0][1], Value::Int(3));
        assert_eq!(rs.rows[1][1], Value::Int(7));
    }

    #[test]
    fn nested_in_subqueries() {
        let mut db = db();
        db.execute("create table crawl (oid int, url text, relevance float, numtries int)")
            .unwrap();
        db.execute("create table hubs (oid int, score float)")
            .unwrap();
        db.execute("create table link (oid_src int, sid_src int, oid_dst int, sid_dst int)")
            .unwrap();
        db.execute("insert into hubs values (1, 0.9), (2, 0.001)")
            .unwrap();
        db.execute("insert into link values (1, 10, 5, 20), (2, 10, 6, 20), (1, 10, 7, 10)")
            .unwrap();
        db.execute(
            "insert into crawl values (5, 'u5', 0.0, 0), (6, 'u6', 0.0, 0), (7, 'u7', 0.0, 0)",
        )
        .unwrap();
        let rs = db
            .execute(
                "select url, relevance from crawl where oid in
                   (select oid_dst from link
                    where oid_src in (select oid from hubs where score > 0.5)
                      and sid_src <> sid_dst)
                 and numtries = 0",
            )
            .unwrap();
        // Hub 1 → dst 5 (cross-server) and dst 7 (same server, filtered).
        assert_eq!(rs.rows.len(), 1);
        assert_eq!(rs.rows[0][0], Value::Str("u5".into()));
    }

    #[test]
    fn delete_and_affected_counts() {
        let mut db = db();
        db.execute("create table t (a int)").unwrap();
        let rs = db.execute("insert into t values (1), (2), (3)").unwrap();
        assert_eq!(rs.affected, 3);
        let rs = db.execute("delete from t where a >= 2").unwrap();
        assert_eq!(rs.affected, 2);
        let rs = db.execute("select count(*) from t").unwrap();
        assert_eq!(rs.scalar_i64(), Some(1));
        let rs = db.execute("delete from t").unwrap();
        assert_eq!(rs.affected, 1);
    }

    #[test]
    fn delete_reads_each_row_once_and_each_index_in_one_pass() {
        let mut db = db();
        db.execute("create table t (a int, b text)").unwrap();
        db.execute("create index t_a on t (a)").unwrap();
        db.execute("create index t_b on t (b)").unwrap();
        let tid = db.table_id("t").unwrap();
        let rows = (0..2000).map(|i| vec![Value::Int(i), Value::Str(format!("row-{i:05}"))]);
        db.insert_many(tid, rows.collect()).unwrap();
        db.reset_io_stats();
        let rs = db
            .execute("delete from t where a >= 500 and a < 1500")
            .unwrap();
        assert_eq!(rs.affected, 1000);
        // One page visit per deleted row, and 51 for the read phase and
        // one sorted pass over each index: no row is read twice and no
        // index is descended once per row.
        assert_eq!(db.io_stats().logical_reads, 1_051);
        db.check_integrity().unwrap();
        let rs = db.execute("select count(*) from t").unwrap();
        assert_eq!(rs.scalar_i64(), Some(1000));
    }

    #[test]
    fn distinct_and_limit() {
        let mut db = db();
        db.execute("create table t (a int)").unwrap();
        db.execute("insert into t values (1), (1), (2), (2), (3)")
            .unwrap();
        let rs = db.execute("select distinct a from t order by a").unwrap();
        assert_eq!(rs.rows.len(), 3);
        let rs = db
            .execute("select a from t order by a desc limit 2")
            .unwrap();
        assert_eq!(rs.rows.len(), 2);
        assert_eq!(rs.rows[0][0], Value::Int(3));
    }

    #[test]
    fn select_star_and_qualified_star_join() {
        let mut db = db();
        db.execute("create table a (x int)").unwrap();
        db.execute("create table b (x int, y int)").unwrap();
        db.execute("insert into a values (1), (2)").unwrap();
        db.execute("insert into b values (1, 10), (3, 30)").unwrap();
        let rs = db.execute("select * from a join b on a.x = b.x").unwrap();
        assert_eq!(rs.rows.len(), 1);
        assert_eq!(
            rs.rows[0],
            vec![Value::Int(1), Value::Int(1), Value::Int(10)]
        );
        let rs = db
            .execute("select a.x, b.y from a left outer join b on a.x = b.x order by a.x")
            .unwrap();
        assert_eq!(rs.rows.len(), 2);
        assert!(rs.rows[1][1].is_null());
    }

    #[test]
    fn binding_errors_are_descriptive() {
        let mut db = db();
        db.execute("create table t (a int)").unwrap();
        let e = db.execute("select nope from t").unwrap_err();
        assert!(e.to_string().contains("nope"));
        assert!(e.to_string().contains("t.a"), "{e}");
        assert!(db.execute("select * from missing").is_err());
        assert!(db.execute("select sum(a), a from t").is_err()); // a not grouped
    }

    #[test]
    fn io_stats_move_under_sql() {
        let mut db = Database::in_memory_with_frames(4);
        db.execute("create table t (a int, b text)").unwrap();
        for i in 0..5000 {
            db.insert(
                db.table_id("t").unwrap(),
                vec![Value::Int(i), Value::Str(format!("row-{i}"))],
            )
            .unwrap();
        }
        db.reset_io_stats();
        db.execute("select count(*) from t").unwrap();
        let s = db.io_stats();
        assert!(s.logical_reads > 0);
        assert!(
            s.physical_reads > 0,
            "4-frame pool must miss on a multi-page scan"
        );
    }

    #[test]
    fn check_integrity_finds_an_index_that_disagrees_with_its_heap() {
        let mut db = db();
        db.execute("create table t (a int, b text)").unwrap();
        db.execute("create index t_a on t (a)").unwrap();
        db.execute("insert into t values (1, 'x'), (2, 'y'), (3, 'z')")
            .unwrap();
        db.check_integrity().unwrap();
        // Repoint key 2's entry at key 3's row through a second handle
        // on the same tree: still a sound tree of three entries, but no
        // longer a map of the heap.
        let (pool, catalog) = db.parts();
        let idx = &catalog.table(catalog.table_id("t").unwrap()).indexes[0];
        let entries = idx.btree.lookup_prefix(pool, &[]).unwrap();
        let mut alias = crate::btree::BTree::from_parts(idx.btree.root(), idx.btree.len());
        let stale: crate::btree::Entries = [(&entries[1].0, entries[1].1)].into_iter().collect();
        alias.delete_many(pool, &stale).unwrap();
        alias.insert(pool, &entries[1].0, entries[2].1).unwrap();
        idx.btree.validate(pool).unwrap();
        let err = db.check_integrity().unwrap_err();
        assert!(
            matches!(&err, DbError::Corrupt(m) if m.contains("t.t_a")),
            "{err}"
        );
    }

    #[test]
    fn result_set_table_rendering() {
        let mut db = db();
        db.execute("create table t (name text, score float)")
            .unwrap();
        db.execute("insert into t values ('alpha', 0.5)").unwrap();
        let rs = db.execute("select name, score from t").unwrap();
        let table = rs.to_table();
        assert!(table.contains("name"));
        assert!(table.contains("alpha"));
        assert!(table.contains("0.5000"));
    }
}

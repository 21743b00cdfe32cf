//! Crash recovery (redo-on-open) and WAL-shipping read replicas.
//!
//! # Recovery
//!
//! The data file holds only *checkpointed* state; everything since lives
//! in the WAL as page images and page deltas, and each
//! [`crate::wal::KIND_COMMIT`] record carries a full **catalog image**
//! (schemas, heap page lists, B+tree roots — metadata that is otherwise
//! in-memory only). Recovery ([`replay_into`]) reads the log file (a
//! [`Storage`], by offset) once, front to back, [`REPLAY_CHUNK`] bytes at
//! a time, through the one log reader
//! ([`crate::wal::records`]); a record the chunk's end cuts is carried
//! into the next chunk. The page records of the commit group being read
//! are held back — an image by the offset of its page bytes, a delta as
//! a copy of its payload — until the group's commit record is read, and
//! only then folded into a page index: per page, the offset of its last
//! image and the deltas after it, the same `wal::Chain` the log keeps
//! for pool misses. At the end each page is built once, in page order,
//! from one read of its image plus its deltas, written once, and the
//! last commit's catalog is adopted. What recovery holds is one chunk,
//! one commit group and the index — never the log.
//!
//! Records past the last commit — a torn tail, an unfinished batch — are
//! discarded, and the scan stops at the first corrupt record. Replaying
//! is **idempotent**: a page is rebuilt from a whole image forward by
//! deltas that set absolute bytes, and the writer starts every delta
//! chain at an image inside the same log ([`crate::wal`], "The chain
//! rule"), so running recovery twice — or over a data file a crash tore
//! — lands on the same bytes. A delta with no image before it in the log
//! is refused as corrupt.
//!
//! # Replication
//!
//! A [`Replica`] is a read-only follower `Database` fed from the
//! leader's WAL. [`Replica::spawn`] copies the leader's committed state
//! with the one page copy ([`Database::take_snapshot`], then
//! [`Database::adopt`]), then a thread appends the chunks the leader
//! publishes at each commit to a buffer and *feeds* the buffer to the
//! same reader recovery uses. The page records of the group being read
//! stay borrowed from the buffer; at each commit record the group — an
//! image replaces the follower's page, a delta patches it, in log order
//! — and the commit's catalog are installed under one hold of the
//! follower's write lock, so readers always see a consistent commit
//! boundary. Whatever follows the last commit fed (images whose commit
//! has not arrived, half a record) stays buffered for the next round.
//!
//! **Staleness contract**: a replica lags the leader by at most the
//! in-flight commit chunk; [`Replica::applied_lsn`] /
//! [`Replica::wait_for_lsn`] let callers line a read up with a known
//! commit.

use crate::btree::BTree;
use crate::catalog::{Catalog, IndexInfo, TableInfo};
use crate::db::{Database, ResultSet};
use crate::disk::DiskManager;
use crate::error::{DbError, DbResult};
use crate::heap::HeapFile;
use crate::page::{PageId, PAGE_SIZE};
use crate::schema::{Column, ColumnType, Schema};
use crate::storage::Storage;
use crate::wal::{
    self, Chain, PageDelta, RecordRef, KIND_COMMIT, KIND_PAGE_DELTA, KIND_PAGE_IMAGE,
};
use lockcheck::{rank, OrderedMutex, OrderedRwLock};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

// ---------------------------------------------------------------------------
// Catalog image codec
// ---------------------------------------------------------------------------

fn put_str(out: &mut Vec<u8>, s: &str) {
    out.extend_from_slice(&(s.len() as u32).to_le_bytes());
    out.extend_from_slice(s.as_bytes());
}

struct Reader<'a> {
    buf: &'a [u8],
    off: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> DbResult<&'a [u8]> {
        if self.off + n > self.buf.len() {
            return Err(DbError::Corrupt(format!(
                "catalog image truncated at byte {} (wanted {} more)",
                self.off, n
            )));
        }
        let s = &self.buf[self.off..self.off + n];
        self.off += n;
        Ok(s)
    }

    fn u8(&mut self) -> DbResult<u8> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> DbResult<u16> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().expect("2")))
    }

    fn u32(&mut self) -> DbResult<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4")))
    }

    fn u64(&mut self) -> DbResult<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8")))
    }

    fn str(&mut self) -> DbResult<String> {
        let n = self.u32()? as usize;
        let bytes = self.take(n)?;
        let name = std::str::from_utf8(bytes)
            .map_err(|_| DbError::Corrupt("catalog image holds non-utf8 name".into()))?;
        Ok(name.to_owned())
    }
}

fn ty_tag(ty: ColumnType) -> u8 {
    match ty {
        ColumnType::Int => 0,
        ColumnType::Float => 1,
        ColumnType::Str => 2,
    }
}

fn tag_ty(tag: u8) -> DbResult<ColumnType> {
    match tag {
        0 => Ok(ColumnType::Int),
        1 => Ok(ColumnType::Float),
        2 => Ok(ColumnType::Str),
        t => Err(DbError::Corrupt(format!(
            "catalog image holds unknown column type tag {t}"
        ))),
    }
}

/// Serialize the whole catalog — every table slot in id order, dropped
/// slots included so `TableId`s survive recovery unchanged.
pub fn encode_catalog(cat: &Catalog) -> Vec<u8> {
    let slots = cat.slots();
    let mut out = Vec::with_capacity(256);
    out.extend_from_slice(&(slots.len() as u32).to_le_bytes());
    for t in slots {
        put_str(&mut out, &t.name);
        out.extend_from_slice(&(t.schema.columns.len() as u32).to_le_bytes());
        for c in &t.schema.columns {
            put_str(&mut out, &c.name);
            out.push(ty_tag(c.ty));
        }
        let (pages, hints, live) = t.heap.snapshot_parts();
        out.extend_from_slice(&(pages.len() as u32).to_le_bytes());
        for &p in pages {
            out.extend_from_slice(&p.to_le_bytes());
        }
        for &h in hints {
            out.extend_from_slice(&h.to_le_bytes());
        }
        out.extend_from_slice(&live.to_le_bytes());
        out.extend_from_slice(&(t.indexes.len() as u32).to_le_bytes());
        for idx in &t.indexes {
            put_str(&mut out, &idx.name);
            out.extend_from_slice(&(idx.cols.len() as u32).to_le_bytes());
            for &c in &idx.cols {
                out.extend_from_slice(&(c as u32).to_le_bytes());
            }
            out.extend_from_slice(&idx.btree.root().to_le_bytes());
            out.extend_from_slice(&idx.btree.len().to_le_bytes());
            out.push(idx.btree.height());
        }
    }
    out
}

/// Decode a catalog image (strict: any truncation or bad tag is
/// [`DbError::Corrupt`], never a silently partial catalog).
pub fn decode_catalog(bytes: &[u8]) -> DbResult<Catalog> {
    let mut r = Reader { buf: bytes, off: 0 };
    let n_tables = r.u32()? as usize;
    let mut tables = Vec::with_capacity(n_tables);
    for _ in 0..n_tables {
        let name = r.str()?;
        let n_cols = r.u32()? as usize;
        let mut columns = Vec::with_capacity(n_cols);
        for _ in 0..n_cols {
            let cname = r.str()?;
            let ty = tag_ty(r.u8()?)?;
            columns.push(Column::new(cname, ty));
        }
        let n_pages = r.u32()? as usize;
        let mut pages = Vec::with_capacity(n_pages);
        for _ in 0..n_pages {
            pages.push(r.u32()?);
        }
        let mut hints = Vec::with_capacity(n_pages);
        for _ in 0..n_pages {
            hints.push(r.u16()?);
        }
        let live = r.u64()?;
        let n_idx = r.u32()? as usize;
        let mut indexes = Vec::with_capacity(n_idx);
        for _ in 0..n_idx {
            let iname = r.str()?;
            let n_cols = r.u32()? as usize;
            let mut cols = Vec::with_capacity(n_cols);
            for _ in 0..n_cols {
                cols.push(r.u32()? as usize);
            }
            let root = r.u32()?;
            let (len, height) = (r.u64()?, r.u8()?);
            indexes.push(IndexInfo {
                name: iname,
                cols,
                btree: BTree::from_parts(root, len, height),
            });
        }
        tables.push(TableInfo {
            name,
            schema: Schema { columns },
            heap: HeapFile::from_parts(pages, hints, live),
            indexes,
        });
    }
    if r.off != bytes.len() {
        return Err(DbError::Corrupt(format!(
            "catalog image has {} trailing bytes",
            bytes.len() - r.off
        )));
    }
    Ok(Catalog::from_slots(tables))
}

// ---------------------------------------------------------------------------
// Replay
// ---------------------------------------------------------------------------

/// What a successful replay recovered.
pub struct Recovered {
    /// Catalog of the last committed state.
    pub catalog: Catalog,
    /// LSN of the last applied commit.
    pub last_lsn: u64,
    /// Data-file page count at that commit.
    pub num_pages: u32,
}

fn parse_page_image(payload: &[u8]) -> DbResult<(PageId, &[u8; PAGE_SIZE])> {
    let Some((pid, img)) = payload.split_first_chunk::<4>() else {
        return Err(DbError::Corrupt(
            "page-image payload shorter than 4 bytes".into(),
        ));
    };
    let img = img.try_into().map_err(|_| {
        DbError::Corrupt(format!(
            "page-image payload of {} bytes (want {})",
            payload.len(),
            4 + PAGE_SIZE
        ))
    })?;
    Ok((u32::from_le_bytes(*pid), img))
}

fn parse_commit(payload: &[u8]) -> DbResult<(u32, &[u8])> {
    let Some((num_pages, cat)) = payload.split_first_chunk::<4>() else {
        return Err(DbError::Corrupt(
            "commit payload shorter than 4 bytes".into(),
        ));
    };
    Ok((u32::from_le_bytes(*num_pages), cat))
}

/// Bytes of log [`replay_into`] reads at a time.
pub const REPLAY_CHUNK: usize = 1 << 20;

/// A page record of the commit group being read.
enum Pending {
    /// An image, by the log offset of its page bytes.
    Image(u64),
    /// A delta, by the length of its payload; the group's payloads sit
    /// back to back in [`Fold::group_deltas`], in log order.
    Delta(usize),
}

/// What the scan keeps of the log: the page index of its committed
/// prefix, the page records of the group since, and the last commit.
#[derive(Default)]
struct Fold {
    index: BTreeMap<PageId, Chain>,
    group: Vec<(PageId, Pending)>,
    group_deltas: Vec<u8>,
    last_lsn: Option<u64>,
    /// The last commit's payload (`num_pages` + catalog image).
    commit: Vec<u8>,
}

impl Fold {
    /// Take in one record whose payload starts at log offset `at`.
    fn record(&mut self, rec: RecordRef<'_>, at: u64) -> DbResult<()> {
        match rec.kind {
            KIND_PAGE_IMAGE => {
                let (pid, _) = parse_page_image(rec.payload)?;
                // Page bytes start after the pid.
                self.group.push((pid, Pending::Image(at + 4)));
            }
            KIND_PAGE_DELTA => {
                let pid = PageDelta::parse(rec.payload)?.pid;
                self.group_deltas.extend_from_slice(rec.payload);
                self.group.push((pid, Pending::Delta(rec.payload.len())));
            }
            KIND_COMMIT => {
                let mut deltas = &self.group_deltas[..];
                for (pid, page) in self.group.drain(..) {
                    match page {
                        Pending::Image(image) => self.index.entry(pid).or_default().restart(image),
                        Pending::Delta(len) => {
                            let (payload, rest) = deltas.split_at(len);
                            deltas = rest;
                            // The writer starts every chain at an image in this log.
                            let chain = self.index.get_mut(&pid).ok_or_else(|| {
                                DbError::Corrupt(format!(
                                    "wal commit {} covers a delta for page {pid} with no image \
                                     before it",
                                    rec.lsn
                                ))
                            })?;
                            chain.push(payload);
                        }
                    }
                }
                self.group_deltas.clear();
                self.last_lsn = Some(rec.lsn);
                self.commit.clear();
                self.commit.extend_from_slice(rec.payload);
            }
            _ => {}
        }
        Ok(())
    }
}

/// Redo the log in file `log` onto `disk`: write every
/// committed page as its last record leaves it and return the last
/// commit's catalog. `Ok(None)` when the log holds no commit at all
/// (fresh database). Idempotent — a second call over the same inputs
/// rewrites identical bytes.
///
/// One pass of the reader over [`REPLAY_CHUNK`]-byte chunks folds the
/// committed records by page, then each page is built once from a read
/// of its image plus its deltas and written once, in page order (module
/// docs).
pub fn replay_into(disk: &mut DiskManager, log: &dyn Storage) -> DbResult<Option<Recovered>> {
    let end = log.len()?;
    let mut fold = Fold::default();
    let mut buf = Vec::with_capacity(REPLAY_CHUNK);
    // Log offset of `buf[0]`.
    let mut base = 0u64;
    loop {
        // Top the buffer up to a whole number of chunks: one, unless a
        // record longer than that is being carried.
        let want = REPLAY_CHUNK - buf.len() % REPLAY_CHUNK;
        let (at, read) = (buf.len(), base + buf.len() as u64);
        let got = want.min((end - read) as usize);
        buf.resize(at + got, 0);
        log.read_at(read, &mut buf[at..])?;
        let mut recs = wal::records(&buf);
        while let Some(rec) = recs.next() {
            let at = base + (recs.valid_len() - rec.payload.len()) as u64;
            fold.record(rec, at)?;
        }
        if got < want || recs.corrupt() {
            break;
        }
        let used = recs.valid_len();
        buf.drain(..used);
        base += used as u64;
    }
    let Some(last_lsn) = fold.last_lsn else {
        return Ok(None);
    };
    let (num_pages, cat_bytes) = parse_commit(&fold.commit)?;
    let catalog = decode_catalog(cat_bytes)?;
    let mut page = [0u8; PAGE_SIZE];
    for (&pid, chain) in &fold.index {
        log.read_at(chain.image, &mut page)?;
        chain.patch(&mut page)?;
        disk.write_ensure(pid, &page)?;
    }
    // The commit may reference pages the crash kept the data file from
    // ever growing to (e.g. allocated, logged, never checkpointed).
    let zero = [0u8; PAGE_SIZE];
    while disk.num_pages() < num_pages {
        disk.write_ensure(disk.num_pages(), &zero)?;
    }
    Ok(Some(Recovered {
        catalog,
        last_lsn,
        num_pages,
    }))
}

// ---------------------------------------------------------------------------
// Replica
// ---------------------------------------------------------------------------

/// Shared follower state the apply thread and readers both touch.
struct ReplicaShared {
    db: OrderedRwLock<Database>,
    applied_lsn: AtomicU64,
    stop: AtomicBool,
    error: OrderedMutex<Option<String>>,
}

/// A read-only replica `Database` kept fresh from the leader's WAL.
///
/// Reads ([`Replica::query`], [`Replica::with_db`]) take the follower's
/// read lock, so the whole monitor suite runs here without touching the
/// leader's store lock at all. Dropping the replica stops and joins the
/// apply thread.
pub struct Replica {
    shared: Arc<ReplicaShared>,
    handle: Option<std::thread::JoinHandle<()>>,
}

/// One page record of a commit group, borrowed from the fed bytes.
enum PageRecord<'a> {
    Image(PageId, &'a [u8; PAGE_SIZE]),
    Delta(PageDelta<'a>),
}

impl ReplicaShared {
    /// Apply the whole commit groups at the front of `bytes` and return
    /// how many bytes they span. The page records of a group stay
    /// borrowed from `bytes` until the commit that covers them is read,
    /// then install under one write-lock hold together with its catalog:
    /// a reader must never see new page bytes through the old catalog.
    /// Records whose commit has not arrived are not consumed — the
    /// caller feeds them again, with what follows.
    fn feed(&self, bytes: &[u8]) -> DbResult<usize> {
        let mut log = wal::records(bytes);
        let mut group = Vec::new();
        let mut consumed = 0;
        while let Some(rec) = log.next() {
            match rec.kind {
                KIND_PAGE_IMAGE => {
                    let (pid, img) = parse_page_image(rec.payload)?;
                    group.push(PageRecord::Image(pid, img));
                }
                KIND_PAGE_DELTA => group.push(PageRecord::Delta(PageDelta::parse(rec.payload)?)),
                KIND_COMMIT => {
                    let (_num_pages, cat) = parse_commit(rec.payload)?;
                    let catalog = decode_catalog(cat)?;
                    let mut db = self.db.write();
                    // In log order: a delta patches the bytes the
                    // follower holds, which the records before it made
                    // equal to the leader's.
                    for page in group.drain(..) {
                        match page {
                            PageRecord::Image(pid, img) => db.install_page(pid, img)?,
                            PageRecord::Delta(delta) => db.install_delta(&delta)?,
                        }
                    }
                    db.replace_catalog(catalog);
                    drop(db);
                    self.applied_lsn.store(rec.lsn, Ordering::Release);
                    consumed = log.valid_len();
                }
                // A checkpoint marker changes nothing a follower holds;
                // the next commit carries `consumed` past it.
                _ => {}
            }
        }
        Ok(consumed)
    }
}

impl Replica {
    /// In-process replica of `leader`: commit, copy the committed state
    /// into an in-memory follower ([`Database::take_snapshot`] +
    /// [`Database::adopt`]), then follow the WAL broadcast on a thread that
    /// appends each shipped chunk to its buffer and feeds the buffer to
    /// the log reader, keeping what no commit covers yet for the next
    /// round. Requires the leader to be durable
    /// ([`Database::open`], over files or memory).
    ///
    /// Taking `&mut Database` is what makes the snapshot/subscribe pair
    /// race-free: no other writer can slip a commit between them.
    pub fn spawn(leader: &mut Database) -> DbResult<Replica> {
        let wal = leader.wal().ok_or_else(|| {
            DbError::ReadOnly(
                "replica requires a WAL-backed leader (Database::open, open_with or \
                 in_memory_durable)"
                    .into(),
            )
        })?;
        let base_lsn = leader.commit()?;
        let rx = wal.subscribe();
        let mut follower = Database::in_memory_with_frames(leader.parts().0.capacity());
        follower.adopt(&leader.take_snapshot()?)?;
        let shared = Arc::new(ReplicaShared {
            db: OrderedRwLock::new(rank::REPLICA_DB, follower),
            applied_lsn: AtomicU64::new(base_lsn),
            stop: AtomicBool::new(false),
            error: OrderedMutex::new(rank::REPLICA_ERR, None),
        });
        let thread_shared = Arc::clone(&shared);
        let body = move || {
            let mut buf = Vec::new();
            while !thread_shared.stop.load(Ordering::Relaxed) {
                match rx.recv_timeout(Duration::from_millis(25)) {
                    Ok(chunk) => buf.extend_from_slice(&chunk),
                    Err(mpsc::RecvTimeoutError::Timeout) => continue,
                    Err(mpsc::RecvTimeoutError::Disconnected) => return,
                }
                match thread_shared.feed(&buf) {
                    Ok(used) => {
                        buf.drain(..used);
                    }
                    Err(e) => {
                        *thread_shared.error.lock() = Some(e.to_string());
                        return;
                    }
                }
            }
        };
        let handle = std::thread::Builder::new()
            .name("minirel-replica".into())
            .spawn(body);
        Ok(Replica {
            shared,
            handle: Some(handle.expect("spawn replica thread")),
        })
    }

    /// Run a SELECT on the replica (read lock; never touches the leader).
    pub fn query(&self, sql: &str) -> DbResult<ResultSet> {
        self.shared.db.read().query(sql)
    }

    /// Run `f` over the follower database under the read lock.
    pub fn with_db<R>(&self, f: impl FnOnce(&Database) -> R) -> R {
        f(&self.shared.db.read())
    }

    /// LSN of the last commit the replica has applied.
    pub fn applied_lsn(&self) -> u64 {
        self.shared.applied_lsn.load(Ordering::Acquire)
    }

    /// Block until the replica has applied `lsn` (or `timeout` passes).
    /// Returns whether the target was reached.
    pub fn wait_for_lsn(&self, lsn: u64, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        while self.applied_lsn() < lsn {
            if Instant::now() >= deadline || self.error().is_some() {
                return self.applied_lsn() >= lsn;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        true
    }

    /// The apply thread's fatal error, if it hit one.
    pub fn error(&self) -> Option<String> {
        self.shared.error.lock().clone()
    }
}

impl Drop for Replica {
    fn drop(&mut self) {
        self.shared.stop.store(true, Ordering::Relaxed);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Value;

    fn sample_db() -> Database {
        let mut db = Database::in_memory();
        db.execute("create table crawl (oid int, url text, relevance float)")
            .unwrap();
        db.execute("create index crawl_oid on crawl (oid)").unwrap();
        db.execute("insert into crawl values (1, 'http://a', 0.9), (2, 'http://b', 0.4)")
            .unwrap();
        db
    }

    #[test]
    fn catalog_image_roundtrip() {
        let db = sample_db();
        let (_, catalog) = db.parts();
        let cat = decode_catalog(&encode_catalog(catalog)).unwrap();
        let tid = cat.table_id("crawl").unwrap();
        assert_eq!(tid, catalog.table_id("crawl").unwrap());
        let t = cat.table(tid);
        assert_eq!(t.schema.columns.len(), 3);
        assert_eq!(t.heap.len(), 2);
        assert_eq!(t.indexes.len(), 1);
        assert_eq!(t.indexes[0].name, "crawl_oid");
        assert_eq!(
            t.indexes[0].btree.root(),
            catalog.table(tid).indexes[0].btree.root()
        );
    }

    #[test]
    fn catalog_image_preserves_dropped_slots() {
        let mut db = Database::in_memory();
        db.execute("create table a (x int)").unwrap();
        db.execute("create table b (y int)").unwrap();
        let b_id = db.table_id("b").unwrap();
        db.execute("drop table a").unwrap();
        let cat = decode_catalog(&encode_catalog(db.parts().1)).unwrap();
        assert_eq!(cat.table_id("b").unwrap(), b_id, "TableIds must be stable");
        assert!(cat.table_id("a").is_err());
    }

    #[test]
    fn catalog_image_truncation_is_corrupt() {
        let db = sample_db();
        let img = encode_catalog(db.parts().1);
        for cut in 1..img.len() {
            match decode_catalog(&img[..cut]) {
                Err(DbError::Corrupt(_)) => {}
                Ok(_) => panic!("cut at {cut} decoded"),
                Err(e) => panic!("cut at {cut}: unexpected error {e}"),
            }
        }
    }

    #[test]
    fn replica_follows_in_memory_leader() {
        let mut leader = Database::in_memory_durable(64, 1);
        leader
            .execute("create table crawl (oid int, relevance float)")
            .unwrap();
        leader.execute("insert into crawl values (1, 0.9)").unwrap();
        let replica = Replica::spawn(&mut leader).unwrap();
        // Base snapshot state is visible immediately.
        let rs = replica.query("select count(*) from crawl").unwrap();
        assert_eq!(rs.scalar_i64(), Some(1));
        // New committed writes flow through.
        leader
            .execute("insert into crawl values (2, 0.4), (3, 0.8)")
            .unwrap();
        let lsn = leader.commit().unwrap();
        assert!(replica.wait_for_lsn(lsn, Duration::from_secs(5)));
        let rs = replica.query("select count(*) from crawl").unwrap();
        assert_eq!(rs.scalar_i64(), Some(3), "err={:?}", replica.error());
        // The base copy still fits the follower's pool: the delta that
        // shipped patched the page its store holds.
        let rows = "select oid, relevance from crawl";
        assert_eq!(
            replica.query(rows).unwrap().rows,
            leader.query(rows).unwrap().rows
        );
        // The replica is read-only by construction (query() is SELECT-only).
        assert!(replica.with_db(|db| db.query("delete from crawl").is_err()));
        // DDL replicates too.
        leader
            .execute("create table hubs (oid int, score float)")
            .unwrap();
        leader.execute("insert into hubs values (7, 1.0)").unwrap();
        let lsn = leader.commit().unwrap();
        assert!(replica.wait_for_lsn(lsn, Duration::from_secs(5)));
        let rs = replica.query("select oid from hubs").unwrap();
        assert_eq!(rs.rows[0][0], Value::Int(7));
    }
}

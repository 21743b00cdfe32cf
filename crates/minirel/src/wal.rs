//! Write-ahead log: the durability layer under the buffer pool.
//!
//! minirel runs a **no-steal, page-image redo log** in the style of
//! SQLite's WAL mode: the data file is written *only* at checkpoints,
//! never by ordinary page traffic. A dirty page leaving the buffer pool
//! (eviction, `flush_all`, commit) appends a checksummed [`PageImage`]
//! record here instead, and an in-memory page index (pid → log offset)
//! makes the newest image readable again on a pool miss. A [`Commit`]
//! record carries the full catalog image plus the data-file page count,
//! marking everything before it as the recoverable state; records after
//! the last valid commit are discarded on recovery (torn-tail
//! truncation via checksum).
//!
//! ## Record format
//!
//! ```text
//! | lsn u64 | kind u8 | len u32 | crc u64 | payload (len bytes) |
//! ```
//!
//! all little-endian; `crc` covers `lsn | kind | len | payload`.
//! Payloads: `PageImage` = `pid u32` + 4096 page bytes; `Commit` =
//! `num_pages u32` + catalog image ([`crate::recovery`] codec);
//! `Checkpoint` = `num_pages u32` (a marker: every committed image
//! before it has been written to the data file).
//!
//! ## Reading the log back
//!
//! There is one reader: [`records`] iterates the valid prefix of a byte
//! buffer as [`RecordRef`]s *borrowed* from it — every header, length,
//! kind and checksum verified, nothing copied — and stops at the first
//! truncated or corrupt record ([`Records::valid_len`] says where).
//! Recovery, checkpoint-marker counting and both kinds of replica
//! ([`crate::recovery`]) consume exactly this. [`Record`],
//! [`decode_record`] and [`scan_records`] are owned conveniences for
//! the format tests, built on the same reader.
//!
//! ## Group commit
//!
//! [`Wal::commit`] appends and publishes but only fsyncs every
//! `group_every`-th commit, amortizing the sync over the crawler's
//! page-boundary flushes; [`Wal::sync`] forces one (the "durable" ack
//! point — a commit is acknowledged as crash-safe only once synced).
//!
//! ## Latch order
//!
//! The WAL mutex is a **leaf** lock: it may be taken while holding a
//! buffer-pool shard latch (eviction logs under the shard lock), and it
//! never takes any other engine lock itself. System-wide the order is
//! `shard → {disk, wal}`.
//!
//! ## Crash injection
//!
//! For the crash-matrix harness: when `MINIREL_CRASH_SYNCS=<n>` is set,
//! the process aborts at the `n`-th WAL sync *before* making it
//! durable, simulating power loss at a randomized commit boundary.

use crate::error::{DbError, DbResult};
use crate::page::{PageId, PAGE_SIZE};
use lockcheck::{rank, OrderedMutex};
use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc};

/// Record kind: full 4 KB page image (`pid u32` + page bytes).
pub const KIND_PAGE_IMAGE: u8 = 1;
/// Record kind: commit point (`num_pages u32` + catalog image).
pub const KIND_COMMIT: u8 = 2;
/// Record kind: checkpoint marker (`num_pages u32`).
pub const KIND_CHECKPOINT: u8 = 3;

/// Fixed header bytes per record.
pub const RECORD_HEADER: usize = 8 + 1 + 4 + 8;

/// Upper bound on a record payload; anything larger fails the scan as
/// corrupt instead of attempting a giant allocation.
pub const MAX_PAYLOAD: usize = 1 << 26;

/// Default commits-per-fsync for group commit.
pub const DEFAULT_GROUP_COMMIT: usize = 8;

/// One decoded WAL record, owning its payload (the convenience the
/// format tests use; every consumer in the crate reads [`RecordRef`]s).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Record {
    /// Log sequence number (monotonic across the log).
    pub lsn: u64,
    /// One of the `KIND_*` constants.
    pub kind: u8,
    /// Kind-specific payload.
    pub payload: Vec<u8>,
}

/// One WAL record borrowed from the log bytes it was read from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecordRef<'a> {
    /// Log sequence number (monotonic across the log).
    pub lsn: u64,
    /// One of the `KIND_*` constants.
    pub kind: u8,
    /// Kind-specific payload.
    pub payload: &'a [u8],
}

impl RecordRef<'_> {
    fn to_record(self) -> Record {
        Record {
            lsn: self.lsn,
            kind: self.kind,
            payload: self.payload.to_vec(),
        }
    }
}

/// Word-folding checksum over the given byte slices (treated as one
/// stream). FNV-style but folding 8 bytes per multiply, so a 4 KB page
/// image costs ~512 multiplies — cheap enough for the per-batch hot
/// path the crawler drives.
pub fn checksum(parts: &[&[u8]]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for part in parts {
        let mut chunks = part.chunks_exact(8);
        for chunk in &mut chunks {
            let w = u64::from_le_bytes(chunk.try_into().expect("8-byte chunk"));
            h = (h ^ w).wrapping_mul(0x0000_0100_0000_01b3).rotate_left(31);
        }
        let rem = chunks.remainder();
        if !rem.is_empty() {
            let mut w = [0u8; 8];
            w[..rem.len()].copy_from_slice(rem);
            // Tag the tail with its length so "ab" and "ab\0" differ.
            w[7] = rem.len() as u8;
            h = (h ^ u64::from_le_bytes(w))
                .wrapping_mul(0x0000_0100_0000_01b3)
                .rotate_left(31);
        }
    }
    h
}

/// Encode one record (header + payload) into fresh bytes.
pub fn encode_record(lsn: u64, kind: u8, payload: &[u8]) -> Vec<u8> {
    let len = payload.len() as u32;
    let mut out = Vec::with_capacity(RECORD_HEADER + payload.len());
    out.extend_from_slice(&lsn.to_le_bytes());
    out.push(kind);
    out.extend_from_slice(&len.to_le_bytes());
    let crc = checksum(&[&lsn.to_le_bytes(), &[kind], &len.to_le_bytes(), payload]);
    out.extend_from_slice(&crc.to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// Decode the record at the front of `buf` without copying it.
///
/// * `Ok(Some(record))` — a whole, checksum-valid record; it occupies
///   `RECORD_HEADER + record.payload.len()` bytes.
/// * `Ok(None)` — `buf` is empty or holds only a truncated tail (fewer
///   bytes than the header + declared payload): the clean end of a log.
/// * `Err(DbError::Corrupt)` — a record-shaped region whose checksum,
///   kind, or length is wrong: bit rot or a torn overwrite.
fn decode_ref(buf: &[u8]) -> DbResult<Option<RecordRef<'_>>> {
    if buf.len() < RECORD_HEADER {
        return Ok(None);
    }
    let lsn = u64::from_le_bytes(buf[0..8].try_into().expect("8 bytes"));
    let kind = buf[8];
    let len = u32::from_le_bytes(buf[9..13].try_into().expect("4 bytes")) as usize;
    if len > MAX_PAYLOAD {
        return Err(DbError::Corrupt(format!(
            "wal record at lsn {lsn} declares absurd payload of {len} bytes"
        )));
    }
    if buf.len() < RECORD_HEADER + len {
        return Ok(None);
    }
    let crc = u64::from_le_bytes(buf[13..21].try_into().expect("8 bytes"));
    let payload = &buf[RECORD_HEADER..RECORD_HEADER + len];
    let want = checksum(&[&buf[0..8], &[kind], &buf[9..13], payload]);
    if crc != want {
        return Err(DbError::Corrupt(format!(
            "wal record at lsn {lsn} fails checksum (stored {crc:#x}, computed {want:#x})"
        )));
    }
    if !matches!(kind, KIND_PAGE_IMAGE | KIND_COMMIT | KIND_CHECKPOINT) {
        return Err(DbError::Corrupt(format!(
            "wal record at lsn {lsn} has unknown kind {kind}"
        )));
    }
    Ok(Some(RecordRef { lsn, kind, payload }))
}

/// [`decode_ref`] into an owned [`Record`] plus the bytes it occupied.
pub fn decode_record(buf: &[u8]) -> DbResult<Option<(Record, usize)>> {
    Ok(decode_ref(buf)?.map(|r| (r.to_record(), RECORD_HEADER + r.payload.len())))
}

/// The one log reader: the records of `buf`'s valid prefix, borrowed.
/// Iteration ends at the first truncated or corrupt region;
/// [`Records::valid_len`] is then the byte length of the valid prefix —
/// recovery truncates the log there — and, mid-iteration, the offset
/// just past the record last yielded.
pub fn records(buf: &[u8]) -> Records<'_> {
    Records { buf, off: 0 }
}

/// Iterator returned by [`records`].
pub struct Records<'a> {
    buf: &'a [u8],
    off: usize,
}

impl Records<'_> {
    /// Bytes of `buf` consumed so far (always a whole-record boundary).
    pub fn valid_len(&self) -> usize {
        self.off
    }
}

impl<'a> Iterator for Records<'a> {
    type Item = RecordRef<'a>;

    fn next(&mut self) -> Option<RecordRef<'a>> {
        let rec = decode_ref(&self.buf[self.off..]).ok()??;
        self.off += RECORD_HEADER + rec.payload.len();
        Some(rec)
    }
}

/// [`records`] collected into owned [`Record`]s, with the valid length.
pub fn scan_records(buf: &[u8]) -> (Vec<Record>, usize) {
    let mut reader = records(buf);
    let out = reader.by_ref().map(RecordRef::to_record).collect();
    (out, reader.valid_len())
}

/// Crash-injection hook: aborts the process at the configured sync
/// ordinal (env `MINIREL_CRASH_SYNCS`), *before* the sync happens.
fn crash_hook_before_sync() {
    use std::sync::OnceLock;
    static LIMIT: OnceLock<Option<u64>> = OnceLock::new();
    static COUNT: AtomicU64 = AtomicU64::new(0);
    let limit = LIMIT.get_or_init(|| {
        std::env::var("MINIREL_CRASH_SYNCS")
            .ok()
            .and_then(|s| s.parse().ok())
    });
    if let Some(n) = *limit {
        if COUNT.fetch_add(1, Ordering::Relaxed) + 1 >= n {
            std::process::abort();
        }
    }
}

enum WalStore {
    /// Log bytes in memory. `base` is the logical offset of `buf[0]`:
    /// a checkpoint can drop already-checkpointed bytes while keeping
    /// logical offsets stable for the page index and subscribers.
    Memory {
        buf: Vec<u8>,
        base: u64,
    },
    File {
        file: File,
        path: PathBuf,
        len: u64,
    },
}

impl WalStore {
    fn end(&self) -> u64 {
        match self {
            WalStore::Memory { buf, base } => base + buf.len() as u64,
            WalStore::File { len, .. } => *len,
        }
    }

    fn append(&mut self, bytes: &[u8]) -> DbResult<u64> {
        let at = self.end();
        match self {
            WalStore::Memory { buf, .. } => buf.extend_from_slice(bytes),
            WalStore::File { file, path, len } => {
                file.seek(SeekFrom::Start(*len))
                    .map_err(|e| DbError::io("seek", &path, e))?;
                file.write_all(bytes)
                    .map_err(|e| DbError::io("append", &path, e))?;
                *len += bytes.len() as u64;
            }
        }
        Ok(at)
    }

    fn read_at(&mut self, off: u64, out: &mut [u8]) -> DbResult<()> {
        match self {
            WalStore::Memory { buf, base } => {
                let start = off
                    .checked_sub(*base)
                    .ok_or_else(|| DbError::Corrupt("wal offset before retained base".into()))?
                    as usize;
                let end = start + out.len();
                if end > buf.len() {
                    return Err(DbError::Corrupt("wal offset past end".into()));
                }
                out.copy_from_slice(&buf[start..end]);
                Ok(())
            }
            WalStore::File { file, path, .. } => {
                file.seek(SeekFrom::Start(off))
                    .map_err(|e| DbError::io("seek", &path, e))?;
                file.read_exact(out)
                    .map_err(|e| DbError::io("read", &path, e))?;
                Ok(())
            }
        }
    }

    fn sync(&mut self) -> DbResult<()> {
        crash_hook_before_sync();
        match self {
            WalStore::Memory { .. } => Ok(()),
            WalStore::File { file, path, .. } => {
                file.sync_all().map_err(|e| DbError::io("sync", &path, e))
            }
        }
    }
}

struct WalInner {
    store: WalStore,
    next_lsn: u64,
    /// LSN of the last Commit record (0 = none yet).
    last_commit_lsn: u64,
    /// LSN of the last *synced* Commit record.
    durable_commit_lsn: u64,
    /// pid → logical offset of its newest page image's page bytes.
    page_index: HashMap<PageId, u64>,
    commits_since_sync: usize,
    group_every: usize,
    /// Replication: committed chunks are broadcast here.
    subscribers: Vec<mpsc::Sender<Arc<Vec<u8>>>>,
    /// Bytes of not-yet-published records (Memory store slices the
    /// buffer; the File store can't cheaply read back, so both stage
    /// pending publish bytes here).
    publish_buf: Vec<u8>,
}

/// The write-ahead log. Interior-mutable (`&self` everywhere) behind a
/// single leaf mutex; share via `Arc`.
pub struct Wal {
    inner: OrderedMutex<WalInner>,
}

impl Wal {
    fn with_store(store: WalStore, group_every: usize, next_lsn: u64) -> Wal {
        Wal {
            inner: OrderedMutex::new(
                rank::WAL,
                WalInner {
                    store,
                    next_lsn,
                    last_commit_lsn: 0,
                    durable_commit_lsn: 0,
                    page_index: HashMap::new(),
                    commits_since_sync: 0,
                    group_every: group_every.max(1),
                    subscribers: Vec::new(),
                    publish_buf: Vec::new(),
                },
            ),
        }
    }

    /// In-memory log (hermetic tests; replication without files).
    pub fn in_memory(group_every: usize) -> Wal {
        Self::with_store(
            WalStore::Memory {
                buf: Vec::new(),
                base: 0,
            },
            group_every,
            1,
        )
    }

    /// Create (truncate) a log file at `path`, starting at `next_lsn`.
    pub fn create_file(path: &Path, group_every: usize, next_lsn: u64) -> DbResult<Wal> {
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)
            .map_err(|e| DbError::io("create", path, e))?;
        Ok(Self::with_store(
            WalStore::File {
                file,
                path: path.to_owned(),
                len: 0,
            },
            group_every,
            next_lsn,
        ))
    }

    /// Atomically rename the backing file (WAL rotation: recovery writes
    /// the fresh log at a temp path, syncs, then renames it over the old
    /// one so a crash mid-rotation leaves one valid log, never half of
    /// each). The open descriptor stays valid across the rename.
    pub fn rename_to(&self, dst: &Path) -> DbResult<()> {
        let mut g = self.inner.lock();
        g.store.sync()?;
        match &mut g.store {
            WalStore::Memory { .. } => {
                Err(DbError::Corrupt("cannot rename an in-memory wal".into()))
            }
            WalStore::File { path, .. } => {
                std::fs::rename(&*path, dst).map_err(|e| DbError::io("rename", dst, e))?;
                *path = dst.to_owned();
                Ok(())
            }
        }
    }

    fn append_locked(g: &mut WalInner, kind: u8, payload: &[u8]) -> DbResult<(u64, u64)> {
        let lsn = g.next_lsn;
        g.next_lsn += 1;
        let bytes = encode_record(lsn, kind, payload);
        let at = g.store.append(&bytes)?;
        g.publish_buf.extend_from_slice(&bytes);
        Ok((lsn, at))
    }

    /// Append a page image (write-ahead: called when a dirty page leaves
    /// the buffer pool). Does not sync — durability is commit-scoped.
    pub fn log_page(&self, pid: PageId, data: &[u8; PAGE_SIZE]) -> DbResult<()> {
        let mut g = self.inner.lock();
        let mut payload = Vec::with_capacity(4 + PAGE_SIZE);
        payload.extend_from_slice(&pid.to_le_bytes());
        payload.extend_from_slice(data);
        let (_lsn, at) = Self::append_locked(&mut g, KIND_PAGE_IMAGE, &payload)?;
        // Page bytes start after the header and the pid.
        g.page_index.insert(pid, at + RECORD_HEADER as u64 + 4);
        Ok(())
    }

    /// Append a Commit record (catalog image + data-file page count),
    /// publish the newly committed byte range to subscribers, and fsync
    /// if the group-commit quota is due. Returns the commit's LSN.
    pub fn commit(&self, catalog_image: &[u8], num_pages: u32) -> DbResult<u64> {
        let mut g = self.inner.lock();
        let mut payload = Vec::with_capacity(4 + catalog_image.len());
        payload.extend_from_slice(&num_pages.to_le_bytes());
        payload.extend_from_slice(catalog_image);
        let (lsn, _) = Self::append_locked(&mut g, KIND_COMMIT, &payload)?;
        g.last_commit_lsn = lsn;
        g.commits_since_sync += 1;
        Self::publish_locked(&mut g);
        if g.commits_since_sync >= g.group_every {
            Self::sync_locked(&mut g)?;
        }
        Ok(lsn)
    }

    /// Append a Checkpoint marker and forget the page index: every
    /// committed image is now in the data file, so future pool misses
    /// read there. The in-memory store also drops its retained bytes
    /// (they are published and checkpointed — nobody can need them).
    pub fn checkpoint_done(&self, num_pages: u32) -> DbResult<()> {
        let mut g = self.inner.lock();
        Self::append_locked(&mut g, KIND_CHECKPOINT, &num_pages.to_le_bytes())?;
        Self::publish_locked(&mut g);
        Self::sync_locked(&mut g)?;
        g.page_index.clear();
        if let WalStore::Memory { buf, base } = &mut g.store {
            *base += buf.len() as u64;
            buf.clear();
            buf.shrink_to(64 * 1024);
        }
        Ok(())
    }

    fn publish_locked(g: &mut WalInner) {
        if g.publish_buf.is_empty() {
            return;
        }
        if g.subscribers.is_empty() {
            g.publish_buf.clear();
            return;
        }
        let chunk = Arc::new(std::mem::take(&mut g.publish_buf));
        g.subscribers
            .retain(|tx| tx.send(Arc::clone(&chunk)).is_ok());
    }

    fn sync_locked(g: &mut WalInner) -> DbResult<()> {
        g.store.sync()?;
        g.durable_commit_lsn = g.last_commit_lsn;
        g.commits_since_sync = 0;
        Ok(())
    }

    /// Force an fsync (the durable ack point).
    pub fn sync(&self) -> DbResult<()> {
        Self::sync_locked(&mut self.inner.lock())
    }

    /// Read the newest logged image of `pid` into `out`. Returns `false`
    /// when the log holds no image (the data file is authoritative).
    pub fn read_page_into(&self, pid: PageId, out: &mut [u8; PAGE_SIZE]) -> DbResult<bool> {
        let mut g = self.inner.lock();
        let Some(&off) = g.page_index.get(&pid) else {
            return Ok(false);
        };
        g.store.read_at(off, out)?;
        Ok(true)
    }

    /// Pages with a logged image newer than the data file.
    pub fn indexed_pages(&self) -> Vec<PageId> {
        self.inner.lock().page_index.keys().copied().collect()
    }

    /// Subscribe to committed record chunks. The caller must hold the
    /// single-writer role (no concurrent `commit`) while pairing this
    /// with its base snapshot, so no commit falls between the two.
    pub fn subscribe(&self) -> mpsc::Receiver<Arc<Vec<u8>>> {
        let (tx, rx) = mpsc::channel();
        self.inner.lock().subscribers.push(tx);
        rx
    }

    /// LSN of the last commit (not necessarily synced).
    pub fn last_commit_lsn(&self) -> u64 {
        self.inner.lock().last_commit_lsn
    }

    /// LSN of the last commit covered by an fsync.
    pub fn durable_commit_lsn(&self) -> u64 {
        self.inner.lock().durable_commit_lsn
    }

    /// Logical length of the log in bytes.
    pub fn len_bytes(&self) -> u64 {
        self.inner.lock().store.end()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_roundtrip() {
        let payload = b"frontier page bytes".to_vec();
        let bytes = encode_record(42, KIND_PAGE_IMAGE, &payload);
        let (rec, used) = decode_record(&bytes).unwrap().unwrap();
        assert_eq!(used, bytes.len());
        assert_eq!(rec.lsn, 42);
        assert_eq!(rec.kind, KIND_PAGE_IMAGE);
        assert_eq!(rec.payload, payload);
    }

    #[test]
    fn truncated_tail_is_clean_none() {
        let bytes = encode_record(1, KIND_COMMIT, b"catalog");
        for cut in 0..bytes.len() {
            let r = decode_record(&bytes[..cut]).unwrap();
            assert!(r.is_none(), "cut at {cut} must read as truncation");
        }
    }

    #[test]
    fn corrupt_byte_rejected() {
        let bytes = encode_record(7, KIND_COMMIT, b"catalog image");
        for i in 0..bytes.len() {
            let mut b = bytes.clone();
            b[i] ^= 0xFF;
            match decode_record(&b) {
                Err(DbError::Corrupt(_)) => {}
                Ok(None) => {} // a flipped length byte can present as truncation
                other => panic!("flip at {i}: expected corruption, got {other:?}"),
            }
        }
    }

    #[test]
    fn scan_stops_at_garbage() {
        let mut log = encode_record(1, KIND_COMMIT, b"a");
        log.extend_from_slice(&encode_record(2, KIND_COMMIT, b"b"));
        let good_len = log.len();
        log.extend_from_slice(&[0xDE, 0xAD, 0xBE, 0xEF]);
        let (recs, valid) = scan_records(&log);
        assert_eq!(recs.len(), 2);
        assert_eq!(valid, good_len);
    }

    #[test]
    fn checksum_distinguishes_tails() {
        assert_ne!(checksum(&[b"ab"]), checksum(&[b"ab\0"]));
        assert_ne!(checksum(&[b""]), checksum(&[b"\0"]));
    }

    #[test]
    fn log_page_and_read_back() {
        let wal = Wal::in_memory(4);
        let mut page = [0u8; PAGE_SIZE];
        page[0] = 11;
        wal.log_page(3, &page).unwrap();
        page[0] = 22;
        wal.log_page(3, &page).unwrap(); // newer image wins
        let mut out = [0u8; PAGE_SIZE];
        assert!(wal.read_page_into(3, &mut out).unwrap());
        assert_eq!(out[0], 22);
        assert!(!wal.read_page_into(99, &mut out).unwrap());
    }

    #[test]
    fn group_commit_counts_syncs() {
        let wal = Wal::in_memory(3);
        assert_eq!(wal.commit(b"", 0).unwrap(), 1);
        assert_eq!(wal.durable_commit_lsn(), 0, "not yet at the group quota");
        wal.commit(b"", 0).unwrap();
        wal.commit(b"", 0).unwrap();
        assert_eq!(wal.durable_commit_lsn(), 3, "third commit syncs the group");
    }

    #[test]
    fn subscriber_sees_committed_chunks() {
        let wal = Wal::in_memory(1);
        let rx = wal.subscribe();
        let mut page = [0u8; PAGE_SIZE];
        page[9] = 9;
        wal.log_page(5, &page).unwrap();
        wal.commit(b"cat", 7).unwrap();
        let chunk = rx.try_recv().expect("commit publishes");
        let (recs, _) = scan_records(&chunk);
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[0].kind, KIND_PAGE_IMAGE);
        assert_eq!(recs[1].kind, KIND_COMMIT);
        assert!(rx.try_recv().is_err(), "nothing published before a commit");
    }

    #[test]
    fn memory_checkpoint_reclaims_bytes() {
        let wal = Wal::in_memory(1);
        let page = [7u8; PAGE_SIZE];
        for pid in 0..16 {
            wal.log_page(pid, &page).unwrap();
        }
        wal.commit(b"", 16).unwrap();
        let before = wal.len_bytes();
        wal.checkpoint_done(16).unwrap();
        assert!(wal.indexed_pages().is_empty());
        // Logical length still grows (offsets stay stable)…
        assert!(wal.len_bytes() > before);
        // …but the next image starts a fresh retained buffer.
        wal.log_page(0, &page).unwrap();
        let mut out = [0u8; PAGE_SIZE];
        assert!(wal.read_page_into(0, &mut out).unwrap());
        assert_eq!(out[0], 7);
    }
}

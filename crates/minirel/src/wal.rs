//! Write-ahead log: the durability layer under the buffer pool.
//!
//! minirel runs a **no-steal redo log** in the style of SQLite's WAL
//! mode: the data file is written *only* at checkpoints, never by
//! ordinary page traffic. A dirty page leaving the buffer pool
//! (eviction, `flush_all`, commit) appends a checksummed page record
//! here instead — a full image, or the byte ranges that changed since
//! the log's previous record for that page — and an in-memory page
//! index (pid → offset of its last image + the deltas logged since)
//! makes the newest bytes readable again on a pool miss. A `Commit`
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
//! Payloads by kind:
//!
//! 1. `PageImage` = `pid u32` + 4096 page bytes;
//! 2. `Commit` = `num_pages u32` + catalog image ([`crate::recovery`]
//!    codec);
//! 3. `Checkpoint` = `num_pages u32` (a marker: every committed page
//!    before it has been written to the data file);
//! 4. `PageDelta` = `pid u32 | n u16 | n × (off u16, len u16) | bytes`:
//!    `n` byte ranges of the page, ascending and disjoint, and then
//!    their new contents back to back ([`PageDelta`] parses and applies
//!    one).
//!
//! Kinds 1–3 are what every earlier version of this log wrote; such a
//! log still opens.
//!
//! ## The chain rule
//!
//! A slotted-page insert changes one cell, a short run of the slot
//! array and a header — a few hundred bytes of 4096. [`Wal::log_page`]
//! is handed the page's bytes *as the log last saw them* beside its new
//! ones, diffs the two in 8-byte words (changed words closer than 16
//! bytes become one range) and decides, per record, between a delta and
//! a full image. It writes a delta only when
//!
//! * the page index holds a full image of the page — one logged since
//!   the last checkpoint or rotation, both of which empty the index, so
//!   **every chain starts at an image inside the same log**;
//! * the page's chain stays within [`MAX_CHAIN_DELTAS`] deltas and
//!   [`MAX_CHAIN_BYTES`] of delta payload since that image; and
//! * the delta encodes in under half a page.
//!
//! Otherwise it writes an image and the chain starts over. There is no
//! mode beside this rule.
//!
//! The index keeps a chain's delta payloads themselves, not their
//! offsets: [`Wal::read_page_into`] is one read of the log (the image)
//! and a patch from memory, as it was when every record was an image.
//! Reading the deltas back one by one cost a pool miss six reads where
//! it had cost one — on a store whose every page is in the log, twice
//! the time of a table scan. The two bounds are what that costs:
//! at most 4 KB beside an indexed page, about a third of that in a
//! crawl, until a checkpoint empties the index.
//!
//! **Redo stays idempotent** because a delta sets absolute bytes at
//! absolute offsets, and the image its chain starts from precedes it in
//! the same log: replaying a log — once, twice, or over a data file
//! some of whose pages a crash tore — rebuilds each page from its last
//! image forward and lands on the same bytes.
//!
//! ## Staging and the one write
//!
//! Records are encoded straight into one staging buffer (no per-record
//! allocation) and the staged bytes reach the store in **one `write`
//! per commit** — earlier only when [`Wal::read_page_into`] needs a
//! record that is still staged, or when 1 MB is waiting. The same buffer is what a commit publishes to subscribers.
//! Offsets in the page index are *logical* (position in the log,
//! written or not), so staging is invisible to them.
//!
//! ## Reading the log back
//!
//! There is one reader: [`records`] iterates the valid prefix of a byte
//! buffer as [`RecordRef`]s *borrowed* from it — every header, length,
//! kind and checksum verified, nothing copied — and stops at the first
//! truncated or corrupt record ([`Records::valid_len`] says where,
//! [`Records::corrupt`] which). Recovery and the replica
//! ([`crate::recovery`]) consume exactly this: recovery over one chunk
//! of the log file at a time, carrying a record cut by the chunk's end
//! into the next, the replica over the chunks a commit publishes.
//! [`encode_record`] is the owned encoder the format tests forge logs
//! with, built on the same codec.
//!
//! ## Group commit
//!
//! Every log has one **syncer thread**. It shares the handle on the
//! log's [`Storage`] file, syncs it up to the offset it was asked for,
//! and then publishes that offset as the durable **watermark**.
//! [`Wal::commit`] writes and publishes its group, and every
//! `group_every`-th commit only *requests* a sync and returns: the
//! fsync runs while the writer goes on appending. [`Wal::sync`] requests everything written and
//! then waits for the watermark — the one place durability is
//! acknowledged (a commit is crash-safe only once synced). It returns at
//! once when nothing was appended since the last request, so a forced
//! sync right after a commit that already synced costs nothing.
//! [`Wal::wait_requested`] waits for the syncs already requested and
//! requests none.
//!
//! The write of a group stays on the caller, under the latch: it is a
//! page-cache copy, and keeping it there leaves pool misses
//! ([`Wal::read_page_into`]) and replicas reading only written bytes.
//! A log in a [`crate::storage::MemFs`] runs the same thread, whose
//! sync is a no-op. A failed fsync is **sticky**: every later commit,
//! sync or wait returns it, since a retried fsync may report clean over
//! pages the kernel already dropped. Dropping the log finishes any
//! requested sync and joins the thread.
//!
//! [`WalStats`] splits the time: `write_ns` on the writer, `sync_ns` on
//! the syncer, `sync_wait_ns` of callers blocked on the watermark. It
//! counts both ends: `sync_requests` where they are posted, which
//! repeats run to run, and `syncs` where the syncer serves them, which
//! can be fewer, since one sync serves every request posted before it
//! starts.
//!
//! ## Latch order
//!
//! The WAL mutex is a **leaf** lock: it may be taken while holding a
//! buffer-pool shard latch (eviction logs under the shard lock), and the
//! only lock it takes itself is the watermark's, ranked just above it
//! (a commit posts its request there). System-wide the order is
//! `shard → {disk, wal → wal_synced}`. Nobody holds either across an
//! fsync: the syncer drops the watermark's mutex before it syncs, and a
//! caller waits on the watermark's condvar after dropping the WAL latch.
//! A memory file's lock (`minirel.mem_fs`) is a leaf ranked above all
//! of them, taken for one read or write.

use crate::error::{DbError, DbResult};
use crate::page::{PageId, PAGE_SIZE};
use crate::storage::{Fs, Storage};
use lockcheck::{rank, OrderedCondvar, OrderedMutex};
use std::collections::HashMap;
use std::path::Path;
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::Instant;

/// Record kind: full 4 KB page image (`pid u32` + page bytes).
pub const KIND_PAGE_IMAGE: u8 = 1;
/// Record kind: commit point (`num_pages u32` + catalog image).
pub const KIND_COMMIT: u8 = 2;
/// Record kind: checkpoint marker (`num_pages u32`).
pub const KIND_CHECKPOINT: u8 = 3;
/// Record kind: the byte ranges of a page that changed since the log's
/// previous record for it (`pid u32 | n u16 | n × (off u16, len u16) |
/// bytes`).
pub const KIND_PAGE_DELTA: u8 = 4;

/// Fixed header bytes per record.
pub const RECORD_HEADER: usize = 8 + 1 + 4 + 8;

/// Upper bound on a record payload; anything larger fails the scan as
/// corrupt instead of attempting a giant allocation.
pub const MAX_PAYLOAD: usize = 1 << 26;

/// Default commits-per-fsync for group commit.
pub const DEFAULT_GROUP_COMMIT: usize = 8;

/// Chain rule: the most deltas a page may collect on top of its last
/// full image before the next record for it is an image again.
pub const MAX_CHAIN_DELTAS: usize = 16;

/// Chain rule: the most delta payload a page may collect on top of its
/// last full image — a pool miss never reads more than two pages' worth.
pub const MAX_CHAIN_BYTES: usize = PAGE_SIZE;

/// A diff whose payload would reach half a page is logged as an image.
const MAX_DELTA_PAYLOAD: usize = PAGE_SIZE / 2;

/// Changed 8-byte words at most this many bytes apart share one range
/// (a range costs 4 bytes of table, and slot shifts leave short gaps).
const DELTA_MERGE_GAP: usize = 16;

/// Staged bytes are written out ahead of the commit once this many are
/// waiting (a tiny pool evicting through a long uncommitted batch).
const STAGE_FLUSH_BYTES: usize = 1 << 20;

// Ranges are `u16` offsets and lengths over whole words.
const _: () = assert!(PAGE_SIZE.is_multiple_of(8) && PAGE_SIZE <= u16::MAX as usize);

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

/// The one encoder: append a record to `out`, its payload written in
/// place by `fill`; length and checksum are patched in behind it.
fn put_record(out: &mut Vec<u8>, lsn: u64, kind: u8, fill: impl FnOnce(&mut Vec<u8>)) {
    let at = out.len();
    out.extend_from_slice(&lsn.to_le_bytes());
    out.push(kind);
    out.extend_from_slice(&[0u8; 4 + 8]);
    fill(out);
    let len = (out.len() - at - RECORD_HEADER) as u32;
    out[at + 9..at + 13].copy_from_slice(&len.to_le_bytes());
    let rec = &out[at..];
    let crc = checksum(&[&rec[0..8], &[kind], &rec[9..13], &rec[RECORD_HEADER..]]);
    out[at + 13..at + RECORD_HEADER].copy_from_slice(&crc.to_le_bytes());
}

/// Encode one record (header + payload) into fresh bytes.
pub fn encode_record(lsn: u64, kind: u8, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(RECORD_HEADER + payload.len());
    put_record(&mut out, lsn, kind, |out| out.extend_from_slice(payload));
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
    if !matches!(
        kind,
        KIND_PAGE_IMAGE | KIND_COMMIT | KIND_CHECKPOINT | KIND_PAGE_DELTA
    ) {
        return Err(DbError::Corrupt(format!(
            "wal record at lsn {lsn} has unknown kind {kind}"
        )));
    }
    Ok(Some(RecordRef { lsn, kind, payload }))
}

/// The one log reader: the records of `buf`'s valid prefix, borrowed.
/// Iteration ends at the first truncated or corrupt region;
/// [`Records::valid_len`] is then the byte length of the valid prefix —
/// recovery truncates the log there — and, mid-iteration, the offset
/// just past the record last yielded. [`Records::corrupt`] says which of
/// the two ended it: a caller reading a log piece by piece appends more
/// bytes after a truncation and stops at corruption.
pub fn records(buf: &[u8]) -> Records<'_> {
    Records {
        buf,
        off: 0,
        corrupt: false,
    }
}

/// Iterator returned by [`records`].
pub struct Records<'a> {
    buf: &'a [u8],
    off: usize,
    corrupt: bool,
}

impl Records<'_> {
    /// Bytes of `buf` consumed so far (always a whole-record boundary).
    pub fn valid_len(&self) -> usize {
        self.off
    }

    /// Whether iteration stopped at a corrupt record (a bad checksum,
    /// kind or length) rather than at the end of the bytes or a
    /// truncated record.
    pub fn corrupt(&self) -> bool {
        self.corrupt
    }
}

impl<'a> Iterator for Records<'a> {
    type Item = RecordRef<'a>;

    fn next(&mut self) -> Option<RecordRef<'a>> {
        let rec = decode_ref(&self.buf[self.off..])
            .inspect_err(|_| self.corrupt = true)
            .ok()??;
        self.off += RECORD_HEADER + rec.payload.len();
        Some(rec)
    }
}

/// The byte ranges where `data` differs from `base`, as ascending
/// `(off, len)` pairs in `out` (cleared first): compared in 8-byte
/// words, neighbours merged over gaps of at most [`DELTA_MERGE_GAP`].
/// Returns the bytes the ranges cover.
fn diff_ranges(base: &[u8; PAGE_SIZE], data: &[u8; PAGE_SIZE], out: &mut Vec<(u16, u16)>) -> usize {
    out.clear();
    let mut covered = 0;
    let blocks = base.chunks_exact(64).zip(data.chunks_exact(64));
    for (b, (old, new)) in blocks.enumerate() {
        // Most of a page is unchanged: skip it 64 bytes at a time.
        if old == new {
            continue;
        }
        let words = old.chunks_exact(8).zip(new.chunks_exact(8));
        for (w, _) in words.enumerate().filter(|(_, (old, new))| old != new) {
            let off = b * 64 + w * 8;
            match out.last_mut() {
                Some((o, l)) if off - (*o as usize + *l as usize) <= DELTA_MERGE_GAP => {
                    covered += off + 8 - (*o as usize + *l as usize);
                    *l = (off + 8 - *o as usize) as u16;
                }
                _ => {
                    covered += 8;
                    out.push((off as u16, 8));
                }
            }
        }
    }
    covered
}

/// A `KIND_PAGE_DELTA` payload borrowed from the log bytes it was read
/// from, every range checked against the page and the byte count.
#[derive(Debug, Clone, Copy)]
pub struct PageDelta<'a> {
    /// The page the ranges belong to.
    pub pid: PageId,
    ranges: &'a [u8],
    bytes: &'a [u8],
}

impl<'a> PageDelta<'a> {
    /// Decode and validate a delta payload ([`DbError::Corrupt`] when a
    /// range leaves the page or the bytes do not match the ranges).
    pub fn parse(payload: &'a [u8]) -> DbResult<PageDelta<'a>> {
        let corrupt = |why: &str| DbError::Corrupt(format!("page-delta payload {why}"));
        let (pid, rest) = payload
            .split_first_chunk::<4>()
            .ok_or_else(|| corrupt("is shorter than its page id"))?;
        let (n, rest) = rest
            .split_first_chunk::<2>()
            .ok_or_else(|| corrupt("is shorter than its range count"))?;
        let (ranges, bytes) = rest
            .split_at_checked(4 * u16::from_le_bytes(*n) as usize)
            .ok_or_else(|| corrupt("is shorter than its range table"))?;
        let delta = PageDelta {
            pid: u32::from_le_bytes(*pid),
            ranges,
            bytes,
        };
        let mut total = 0;
        for (off, len) in delta.ranges() {
            if off + len > PAGE_SIZE {
                return Err(corrupt("holds a range past the end of the page"));
            }
            total += len;
        }
        if total != bytes.len() {
            return Err(corrupt("carries a byte count its ranges do not add up to"));
        }
        Ok(delta)
    }

    fn ranges(&self) -> impl Iterator<Item = (usize, usize)> + 'a {
        let u16_at = |r: &[u8], i: usize| u16::from_le_bytes([r[i], r[i + 1]]) as usize;
        self.ranges
            .chunks_exact(4)
            .map(move |r| (u16_at(r, 0), u16_at(r, 2)))
    }

    /// Set the delta's ranges in `page` to its bytes.
    pub fn apply(&self, page: &mut [u8; PAGE_SIZE]) {
        let mut src = self.bytes;
        for (off, len) in self.ranges() {
            let (new, rest) = src.split_at(len);
            page[off..off + len].copy_from_slice(new);
            src = rest;
        }
    }
}

/// The durable watermark: how far a sync has been asked for, how far
/// the log is synced, and the sync counters. The log's syncer thread
/// advances it.
struct Watermark {
    state: OrderedMutex<Durable>,
    /// Signalled on a request (to the syncer) and on a sync or a
    /// failure (to the waiters).
    changed: OrderedCondvar,
}

#[derive(Default)]
struct Durable {
    /// Log offset a sync has been asked to reach.
    requested: u64,
    /// Log offset the last sync reached: every byte before it is durable.
    synced: u64,
    /// The first failed fsync, returned by every later request and wait.
    failed: Option<DbError>,
    /// The log is being dropped: the syncer finishes what was requested
    /// and exits.
    closing: bool,
    sync_requests: u64,
    syncs: u64,
    sync_ns: u64,
    sync_wait_ns: u64,
}

impl Durable {
    /// The sticky error of a failed sync, if one failed.
    fn check(&self) -> DbResult<()> {
        self.failed.clone().map_or(Ok(()), Err)
    }
}

impl Watermark {
    /// Ask for the log to be synced up to `end`.
    fn request(&self, end: u64) -> DbResult<()> {
        let mut d = self.state.lock();
        d.check()?;
        if end > d.requested {
            d.requested = end;
            d.sync_requests += 1;
            self.changed.notify_all();
        }
        Ok(())
    }

    /// Block until the log is synced up to `end` (or up to what was
    /// requested, with `None`).
    fn wait(&self, end: Option<u64>) -> DbResult<()> {
        let t0 = Instant::now();
        let mut d = self.state.lock();
        let end = end.unwrap_or(d.requested);
        while d.synced < end && d.failed.is_none() {
            d = self.changed.wait(d);
        }
        d.sync_wait_ns += t0.elapsed().as_nanos() as u64;
        d.check()
    }

    /// The syncer thread: sync `file` up to each requested offset and
    /// publish it, holding nothing while it syncs, until the log is
    /// dropped and nothing requested is left. After a failure it syncs
    /// no more.
    fn run_syncer(&self, file: &dyn Storage) {
        let mut d = self.state.lock();
        loop {
            if d.failed.is_none() && d.requested > d.synced {
                let target = d.requested;
                drop(d);
                lockcheck::blocking(&rank::FSYNC_WAL);
                let t0 = Instant::now();
                let synced = file.sync();
                let ns = t0.elapsed().as_nanos() as u64;
                d = self.state.lock();
                match synced {
                    Ok(()) => {
                        d.synced = target;
                        d.syncs += 1;
                        d.sync_ns += ns;
                    }
                    Err(e) => d.failed = Some(e),
                }
                self.changed.notify_all();
            } else if d.closing {
                return;
            } else {
                d = self.changed.wait(d);
            }
        }
    }
}

/// Where the log holds a page: its newest full image, by offset, and
/// the deltas logged on top of it since — kept here, so that a pool
/// miss costs one read of the log however long the chain. The log's
/// page index and recovery's ([`crate::recovery::replay_into`]) are
/// maps of these.
#[derive(Default)]
pub(crate) struct Chain {
    /// Logical offset of the image's page bytes.
    pub(crate) image: u64,
    /// The chain's delta payloads back to back, in log order (at most
    /// [`MAX_CHAIN_BYTES`] when the writer obeys the chain rule), and
    /// the length of each.
    deltas: Vec<u8>,
    lens: Vec<u32>,
}

impl Chain {
    /// Start the chain over at the image whose page bytes are at `image`.
    pub(crate) fn restart(&mut self, image: u64) {
        self.image = image;
        self.deltas.clear();
        self.lens.clear();
    }

    /// Append a delta payload to the chain.
    pub(crate) fn push(&mut self, payload: &[u8]) {
        self.deltas.extend_from_slice(payload);
        self.lens.push(payload.len() as u32);
    }

    /// Patch `page`, which holds the chain's image, with its deltas in
    /// log order.
    pub(crate) fn patch(&self, page: &mut [u8; PAGE_SIZE]) -> DbResult<()> {
        let mut deltas = &self.deltas[..];
        for &len in &self.lens {
            let (payload, rest) = deltas.split_at(len as usize);
            PageDelta::parse(payload)?.apply(page);
            deltas = rest;
        }
        Ok(())
    }
}

/// What the log has written, by record kind (`*_bytes` count whole
/// records, header included, so the four add up to
/// [`Wal::len_bytes`]), and how: `writes` to the store, `syncs` of it,
/// and the time each took.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WalStats {
    /// Full page images logged.
    pub images: u64,
    /// Page deltas logged.
    pub deltas: u64,
    /// Bytes of page-image records.
    pub image_bytes: u64,
    /// Bytes of page-delta records.
    pub delta_bytes: u64,
    /// Bytes of commit records (the catalog images).
    pub commit_bytes: u64,
    /// Bytes of checkpoint markers.
    pub checkpoint_bytes: u64,
    /// Writes of staged bytes to the store: one per commit, plus the
    /// forced ones (a staged record read back, a full stage).
    pub writes: u64,
    /// Syncs requested of the syncer, counted where they are posted
    /// (a group commit's quota, a forced sync, a checkpoint): a count
    /// that repeats run to run.
    pub sync_requests: u64,
    /// Syncs of the store, counted on the syncer thread: between 1 and
    /// `sync_requests` once one was requested and waited for, since a
    /// sync serves every request posted before it starts.
    pub syncs: u64,
    /// Nanoseconds the `writes` took, on the writer under the latch.
    pub write_ns: u64,
    /// Nanoseconds the `syncs` took, on the syncer thread.
    pub sync_ns: u64,
    /// Nanoseconds callers spent blocked on the durable watermark
    /// ([`Wal::sync`], [`Wal::wait_requested`]).
    pub sync_wait_ns: u64,
}

struct WalInner {
    file: Arc<dyn Storage>,
    /// Bytes written to `file`.
    len: u64,
    next_lsn: u64,
    /// LSN of the last Commit record (0 = none yet).
    last_commit_lsn: u64,
    /// pid → where the log holds the page's newest bytes.
    page_index: HashMap<PageId, Chain>,
    commits_since_sync: usize,
    group_every: usize,
    /// Replication: committed chunks are broadcast here.
    subscribers: Vec<mpsc::Sender<Arc<Vec<u8>>>>,
    /// Every record since the last commit, encoded in place: what the
    /// next commit publishes, and — past `written` — what the store has
    /// yet to be handed.
    stage: Vec<u8>,
    /// Bytes at the front of `stage` already written to the store.
    written: usize,
    /// Scratch for [`diff_ranges`].
    ranges: Vec<(u16, u16)>,
    stats: WalStats,
}

impl WalInner {
    /// Logical length of the log: what the store holds plus what is
    /// staged for it.
    fn end(&self) -> u64 {
        self.len + (self.stage.len() - self.written) as u64
    }

    /// Stage one record. Returns its LSN and the logical offset of its
    /// payload.
    fn put(&mut self, kind: u8, fill: impl FnOnce(&mut Vec<u8>)) -> (u64, u64) {
        let lsn = self.next_lsn;
        self.next_lsn += 1;
        let at = self.end();
        let before = self.stage.len();
        put_record(&mut self.stage, lsn, kind, fill);
        let bytes = (self.stage.len() - before) as u64;
        let stats = &mut self.stats;
        match kind {
            KIND_PAGE_IMAGE => {
                stats.images += 1;
                stats.image_bytes += bytes;
            }
            KIND_PAGE_DELTA => {
                stats.deltas += 1;
                stats.delta_bytes += bytes;
            }
            KIND_COMMIT => stats.commit_bytes += bytes,
            _ => stats.checkpoint_bytes += bytes,
        }
        (lsn, at + RECORD_HEADER as u64)
    }

    /// Hand the store everything staged for it, in one write.
    fn flush_stage(&mut self) -> DbResult<()> {
        if self.written < self.stage.len() {
            let t0 = Instant::now();
            let bytes = &self.stage[self.written..];
            self.file.write_at(self.len, bytes)?;
            self.len += bytes.len() as u64;
            self.stats.write_ns += t0.elapsed().as_nanos() as u64;
            self.written = self.stage.len();
            self.stats.writes += 1;
        }
        Ok(())
    }

    /// Broadcast the (fully written) stage to subscribers and empty it.
    fn publish(&mut self) {
        debug_assert_eq!(self.written, self.stage.len());
        self.written = 0;
        if self.subscribers.is_empty() {
            self.stage.clear();
            return;
        }
        let chunk = Arc::new(std::mem::take(&mut self.stage));
        self.subscribers
            .retain(|tx| tx.send(Arc::clone(&chunk)).is_ok());
    }

    /// Write what is staged and ask `mark` for a sync of all of it.
    /// Returns the offset the sync reaches.
    fn request_sync(&mut self, mark: &Watermark) -> DbResult<u64> {
        self.flush_stage()?;
        self.commits_since_sync = 0;
        mark.request(self.len)?;
        Ok(self.len)
    }
}

/// The write-ahead log. Interior-mutable (`&self` everywhere) behind a
/// single leaf mutex; share via `Arc`. Its syncer thread lives as long
/// as the log.
pub struct Wal {
    inner: OrderedMutex<WalInner>,
    mark: Arc<Watermark>,
    syncer: Option<JoinHandle<()>>,
}

impl Wal {
    /// Create (truncate) a log file at `path` in `fs`, starting at
    /// `next_lsn`, and start its syncer thread.
    pub fn create(fs: &dyn Fs, path: &Path, group_every: usize, next_lsn: u64) -> DbResult<Wal> {
        let file = fs.create(path)?;
        let mark = Arc::new(Watermark {
            state: OrderedMutex::new(rank::WAL_SYNCED, Durable::default()),
            changed: OrderedCondvar::new(),
        });
        let syncer = {
            let (mark, file) = (Arc::clone(&mark), Arc::clone(&file));
            std::thread::Builder::new()
                .name("wal-syncer".into())
                .spawn(move || mark.run_syncer(&*file))
                .map_err(|e| DbError::io("spawn syncer for", path, e))?
        };
        Ok(Wal {
            mark,
            syncer: Some(syncer),
            inner: OrderedMutex::new(
                rank::WAL,
                WalInner {
                    file,
                    len: 0,
                    next_lsn,
                    last_commit_lsn: 0,
                    page_index: HashMap::new(),
                    commits_since_sync: 0,
                    group_every: group_every.max(1),
                    subscribers: Vec::new(),
                    stage: Vec::new(),
                    written: 0,
                    ranges: Vec::new(),
                    stats: WalStats::default(),
                },
            ),
        })
    }

    /// Log page `pid`'s bytes (write-ahead: called when a dirty page
    /// leaves the buffer pool or a commit cleans it). `base` is the page
    /// as the log last saw it — what the index's chain for `pid`
    /// reconstructs — when the caller knows it; the record is a delta
    /// against it when the chain rule (module docs) allows, a full image
    /// otherwise. Does not sync — durability is commit-scoped.
    pub fn log_page(
        &self,
        pid: PageId,
        data: &[u8; PAGE_SIZE],
        base: Option<&[u8; PAGE_SIZE]>,
    ) -> DbResult<()> {
        let mut guard = self.inner.lock();
        let g = &mut *guard;
        let delta_len = match (g.page_index.get(&pid), base) {
            (Some(chain), Some(base)) if chain.lens.len() < MAX_CHAIN_DELTAS => {
                let len = 4 + 2 + diff_ranges(base, data, &mut g.ranges) + 4 * g.ranges.len();
                (len < MAX_DELTA_PAYLOAD && chain.deltas.len() + len <= MAX_CHAIN_BYTES)
                    .then_some(len)
            }
            _ => None,
        };
        if let Some(len) = delta_len {
            let ranges = std::mem::take(&mut g.ranges);
            g.put(KIND_PAGE_DELTA, |out| {
                out.extend_from_slice(&pid.to_le_bytes());
                out.extend_from_slice(&(ranges.len() as u16).to_le_bytes());
                for (off, len) in &ranges {
                    out.extend_from_slice(&off.to_le_bytes());
                    out.extend_from_slice(&len.to_le_bytes());
                }
                for &(off, len) in &ranges {
                    out.extend_from_slice(&data[off as usize..][..len as usize]);
                }
            });
            g.ranges = ranges;
            let chain = g.page_index.get_mut(&pid).expect("matched above");
            chain.push(&g.stage[g.stage.len() - len..]);
        } else {
            let (_lsn, at) = g.put(KIND_PAGE_IMAGE, |out| {
                out.extend_from_slice(&pid.to_le_bytes());
                out.extend_from_slice(data);
            });
            // Page bytes start after the pid.
            g.page_index.entry(pid).or_default().restart(at + 4);
        }
        if g.stage.len() - g.written >= STAGE_FLUSH_BYTES {
            g.flush_stage()?;
        }
        Ok(())
    }

    /// Append a Commit record (catalog image + data-file page count),
    /// write everything staged since the last commit to the store in one
    /// piece, publish it to subscribers, and request a sync if the
    /// group-commit quota is due — without waiting for it. Returns the
    /// commit's LSN, or the sticky error of a failed sync.
    pub fn commit(&self, catalog_image: &[u8], num_pages: u32) -> DbResult<u64> {
        let mut g = self.inner.lock();
        let (lsn, _) = g.put(KIND_COMMIT, |out| {
            out.extend_from_slice(&num_pages.to_le_bytes());
            out.extend_from_slice(catalog_image);
        });
        g.last_commit_lsn = lsn;
        g.commits_since_sync += 1;
        g.flush_stage()?;
        g.publish();
        if g.commits_since_sync >= g.group_every {
            g.request_sync(&self.mark)?;
        } else {
            self.mark.state.lock().check()?;
        }
        Ok(lsn)
    }

    /// Append a Checkpoint marker and forget the page index: every
    /// committed page is now in the data file, so future pool misses
    /// read there and the next record for any page is a full image.
    pub fn checkpoint_done(&self, num_pages: u32) -> DbResult<()> {
        let mut g = self.inner.lock();
        g.put(KIND_CHECKPOINT, |out| {
            out.extend_from_slice(&num_pages.to_le_bytes())
        });
        let end = g.request_sync(&self.mark)?;
        g.publish();
        g.page_index.clear();
        drop(g);
        self.mark.wait(Some(end))
    }

    /// Force a sync of everything logged and wait for it, outside the
    /// latch (the durable ack point). Returns at once when the log has
    /// not grown since the last request.
    pub fn sync(&self) -> DbResult<()> {
        let end = self.inner.lock().request_sync(&self.mark)?;
        self.mark.wait(Some(end))
    }

    /// Wait until every sync already requested — a group commit's — is
    /// durable, requesting none: how a caller that committed under a
    /// lock acknowledges the commit after dropping it.
    pub fn wait_requested(&self) -> DbResult<()> {
        self.mark.wait(None)
    }

    /// Read the newest logged bytes of `pid` into `out`: its last full
    /// image, then the chain's deltas in order. Returns `false` when the
    /// log holds nothing for the page (the data file is authoritative).
    pub fn read_page_into(&self, pid: PageId, out: &mut [u8; PAGE_SIZE]) -> DbResult<bool> {
        let mut guard = self.inner.lock();
        let g = &mut *guard;
        let Some(image) = g.page_index.get(&pid).map(|chain| chain.image) else {
            return Ok(false);
        };
        if image + PAGE_SIZE as u64 > g.len {
            g.flush_stage()?;
        }
        g.file.read_at(image, out)?;
        g.page_index[&pid].patch(out)?;
        Ok(true)
    }

    /// Pages the log holds bytes for that are newer than the data file.
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

    /// Logical length of the log in bytes (staged records included).
    pub fn len_bytes(&self) -> u64 {
        self.inner.lock().end()
    }

    /// Counters since the log was created.
    pub fn stats(&self) -> WalStats {
        let mut st = self.inner.lock().stats;
        let d = self.mark.state.lock();
        st.sync_requests = d.sync_requests;
        st.syncs = d.syncs;
        st.sync_ns = d.sync_ns;
        st.sync_wait_ns = d.sync_wait_ns;
        st
    }
}

impl Drop for Wal {
    /// Finish any requested sync, then join the syncer.
    fn drop(&mut self) {
        if let Some(syncer) = self.syncer.take() {
            self.mark.state.lock().closing = true;
            self.mark.changed.notify_all();
            // A syncer that panicked has nothing left to sync; a drop
            // has nowhere to report it.
            let _ = syncer.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storage::{MemFs, OsFs};
    use std::path::PathBuf;

    /// A log in a fresh memory file system.
    fn mem_wal(group_every: usize) -> Wal {
        Wal::create(&MemFs::default(), Path::new("log"), group_every, 1).unwrap()
    }

    #[test]
    fn record_roundtrip() {
        let payload = b"frontier page bytes".to_vec();
        let bytes = encode_record(42, KIND_PAGE_IMAGE, &payload);
        let rec = decode_ref(&bytes).unwrap().unwrap();
        assert_eq!(RECORD_HEADER + rec.payload.len(), bytes.len());
        assert_eq!(rec.lsn, 42);
        assert_eq!(rec.kind, KIND_PAGE_IMAGE);
        assert_eq!(rec.payload, payload);
    }

    #[test]
    fn truncated_tail_is_clean_none() {
        let bytes = encode_record(1, KIND_COMMIT, b"catalog");
        for cut in 0..bytes.len() {
            let r = decode_ref(&bytes[..cut]).unwrap();
            assert!(r.is_none(), "cut at {cut} must read as truncation");
        }
    }

    #[test]
    fn corrupt_byte_rejected() {
        let bytes = encode_record(7, KIND_COMMIT, b"catalog image");
        for i in 0..bytes.len() {
            let mut b = bytes.clone();
            b[i] ^= 0xFF;
            match decode_ref(&b) {
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
        let mut reader = records(&log);
        assert_eq!(reader.by_ref().count(), 2);
        assert_eq!(reader.valid_len(), good_len);
        assert!(!reader.corrupt(), "four bytes are a truncated header");
        // A whole record that fails its checksum is corruption.
        log.truncate(good_len);
        log[good_len - 1] ^= 1;
        let mut reader = records(&log);
        assert_eq!(reader.by_ref().count(), 1);
        assert!(reader.corrupt());
    }

    #[test]
    fn checksum_distinguishes_tails() {
        assert_ne!(checksum(&[b"ab"]), checksum(&[b"ab\0"]));
        assert_ne!(checksum(&[b""]), checksum(&[b"\0"]));
    }

    #[test]
    fn log_page_and_read_back() {
        let wal = mem_wal(4);
        let mut page = [0u8; PAGE_SIZE];
        page[0] = 11;
        wal.log_page(3, &page, None).unwrap();
        page[0] = 22;
        wal.log_page(3, &page, None).unwrap(); // newer image wins
        let mut out = [0u8; PAGE_SIZE];
        assert!(wal.read_page_into(3, &mut out).unwrap());
        assert_eq!(out[0], 22);
        assert!(!wal.read_page_into(99, &mut out).unwrap());
    }

    #[test]
    fn diff_merges_near_words_and_splits_far_ones() {
        let base = [0u8; PAGE_SIZE];
        let mut data = base;
        data[3] = 1; // word 0
        data[20] = 1; // word 2: 8 bytes on, merged
        data[100] = 1; // word 12: 72 bytes on, its own range
        data[PAGE_SIZE - 1] = 1; // the last word
        let mut ranges = Vec::new();
        assert_eq!(diff_ranges(&base, &data, &mut ranges), 24 + 8 + 8);
        assert_eq!(ranges, [(0, 24), (96, 8), (PAGE_SIZE as u16 - 8, 8)]);
        assert_eq!(diff_ranges(&data, &data, &mut ranges), 0);
        assert!(ranges.is_empty());
    }

    #[test]
    fn small_changes_log_deltas_until_the_chain_is_full() {
        let wal = mem_wal(4);
        let mut page = [0u8; PAGE_SIZE];
        wal.log_page(7, &page, None).unwrap();
        let mut out = [0u8; PAGE_SIZE];
        for round in 1..=MAX_CHAIN_DELTAS + 1 {
            let base = page;
            page[round * 40] = round as u8;
            page[PAGE_SIZE - round] = round as u8;
            wal.log_page(7, &page, Some(&base)).unwrap();
            assert!(wal.read_page_into(7, &mut out).unwrap());
            assert_eq!(out, page, "round {round}");
            let st = wal.stats();
            // The chain fills, and the record after that is an image.
            assert_eq!(st.deltas as usize, round.min(MAX_CHAIN_DELTAS));
            assert_eq!(st.images as usize, 1 + round / (MAX_CHAIN_DELTAS + 1));
        }
        assert!(wal.stats().delta_bytes < 2 * PAGE_SIZE as u64 / 3);
    }

    #[test]
    fn a_delta_needs_an_image_a_base_and_a_small_diff() {
        let wal = mem_wal(4);
        let base = [1u8; PAGE_SIZE];
        let mut page = base;
        page[0] = 2;
        // No image of the page in the log yet: an image, base or not.
        wal.log_page(1, &page, Some(&base)).unwrap();
        // An image, but the caller does not know what the log saw.
        wal.log_page(1, &page, None).unwrap();
        assert_eq!((wal.stats().images, wal.stats().deltas), (2, 0));
        // Half the page changed: an image is cheaper than its diff.
        let before = page;
        page[..PAGE_SIZE / 2].fill(3);
        wal.log_page(1, &page, Some(&before)).unwrap();
        assert_eq!((wal.stats().images, wal.stats().deltas), (3, 0));
        // Changes that are small one at a time stop at the byte bound.
        let mut deltas = 0;
        for round in 0..MAX_CHAIN_DELTAS {
            let before = page;
            page[round * 200..][..400].fill(round as u8 + 4);
            wal.log_page(1, &page, Some(&before)).unwrap();
            deltas = wal.stats().deltas;
            if wal.stats().images == 4 {
                break;
            }
        }
        assert_eq!(wal.stats().images, 4, "the chain hit MAX_CHAIN_BYTES");
        // Each is one range: pid + count + (off, len) + 400 bytes.
        assert_eq!(deltas as usize, MAX_CHAIN_BYTES / (4 + 2 + 4 + 400));
        let mut out = [0u8; PAGE_SIZE];
        assert!(wal.read_page_into(1, &mut out).unwrap());
        assert_eq!(out, page);
        // A checkpoint empties the index: images again.
        wal.commit(b"", 2).unwrap();
        wal.checkpoint_done(2).unwrap();
        let before = page;
        page[9] = 9;
        wal.log_page(1, &page, Some(&before)).unwrap();
        assert_eq!(wal.stats().images, 5);
    }

    #[test]
    fn staged_records_are_written_once_and_read_back_when_needed() {
        let wal = mem_wal(1);
        let page = [5u8; PAGE_SIZE];
        for pid in 0..4 {
            wal.log_page(pid, &page, None).unwrap();
        }
        assert_eq!(wal.stats().writes, 0, "nothing written before the commit");
        assert_eq!(wal.len_bytes(), 4 * (RECORD_HEADER + 4 + PAGE_SIZE) as u64);
        // A pool miss on a staged image forces the stage out.
        let mut out = [0u8; PAGE_SIZE];
        assert!(wal.read_page_into(2, &mut out).unwrap());
        assert_eq!((out, wal.stats().writes), (page, 1));
        wal.log_page(4, &page, None).unwrap();
        wal.commit(b"", 5).unwrap();
        assert_eq!(
            wal.stats().writes,
            2,
            "the commit writes what was staged since"
        );
        // A full stage goes out without waiting for the commit.
        for pid in 0..(STAGE_FLUSH_BYTES / PAGE_SIZE) as u32 {
            wal.log_page(pid, &page, None).unwrap();
        }
        assert_eq!(wal.stats().writes, 3);
        assert_eq!(
            wal.stats().sync_requests,
            1,
            "group_commit = 1: the one commit"
        );
    }

    #[test]
    fn group_commit_counts_syncs() {
        let wal = mem_wal(3);
        assert_eq!(wal.commit(b"", 0).unwrap(), 1);
        let st = wal.stats();
        assert_eq!(
            (st.sync_requests, st.syncs),
            (0, 0),
            "not yet at the group quota"
        );
        wal.commit(b"", 0).unwrap();
        wal.commit(b"", 0).unwrap();
        wal.wait_requested().unwrap();
        let st = wal.stats();
        assert_eq!(st.sync_requests, 1, "third commit syncs the group");
        assert!((1..=st.sync_requests).contains(&st.syncs), "{st:?}");
    }

    fn temp_log(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("minirel-wal-{tag}-{}.log", std::process::id()))
    }

    #[test]
    fn group_commits_sync_on_the_syncer_and_reopen_whole() {
        let path = temp_log("group");
        let wal = Wal::create(&OsFs, &path, DEFAULT_GROUP_COMMIT, 1).unwrap();
        let page = [3u8; PAGE_SIZE];
        let k = 3 * DEFAULT_GROUP_COMMIT + 2;
        for i in 0..k as u32 {
            wal.log_page(i, &page, None).unwrap();
            wal.commit(b"catalog", i + 1).unwrap();
        }
        wal.sync().unwrap();
        let st = wal.stats();
        // Three quota requests and the forced one, some perhaps served
        // by one fsync.
        assert!((1..=4).contains(&st.syncs), "{st:?}");
        assert!(st.sync_ns > 0 && st.write_ns > 0, "{st:?}");
        drop(wal);
        let log = std::fs::read(&path).unwrap();
        let mut reader = records(&log);
        let commits = reader.by_ref().filter(|r| r.kind == KIND_COMMIT).count();
        assert_eq!((commits, reader.valid_len()), (k, log.len()));
        std::fs::remove_file(&path).unwrap();
    }

    /// Syncer threads alive in this process (`/proc/self/task/*/comm`).
    fn syncer_threads() -> usize {
        let tasks = std::fs::read_dir("/proc/self/task").unwrap();
        tasks
            .filter_map(|t| std::fs::read_to_string(t.ok()?.path().join("comm")).ok())
            .filter(|comm| comm.trim_end() == "wal-syncer")
            .count()
    }

    #[test]
    fn no_syncer_outlives_its_log() {
        // A new thread names itself, and a joined one may linger in the
        // task list for a moment: poll both ways.
        let settle = |done: &dyn Fn(usize) -> bool, why: &str| {
            let t0 = Instant::now();
            while !done(syncer_threads()) {
                assert!(t0.elapsed().as_secs() < 10, "{why}");
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
        };
        let path = temp_log("cycles");
        let start = syncer_threads();
        for i in 0..50 {
            let wal = Wal::create(&OsFs, &path, 1, 1).unwrap();
            if i == 0 {
                settle(&|n| n > 0, "a file log runs no syncer");
            }
            // Requests a sync the drop must finish before it joins.
            wal.commit(b"", i).unwrap();
            drop(wal);
        }
        // A concurrent test's log may hold a syncer of its own for a
        // while, so the count must come back down, not stay level.
        settle(&|n| n <= start, "a syncer outlived its log");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn subscriber_sees_committed_chunks() {
        let wal = mem_wal(1);
        let rx = wal.subscribe();
        let mut page = [0u8; PAGE_SIZE];
        page[9] = 9;
        wal.log_page(5, &page, None).unwrap();
        wal.commit(b"cat", 7).unwrap();
        let chunk = rx.try_recv().expect("commit publishes");
        let kinds: Vec<u8> = records(&chunk).map(|r| r.kind).collect();
        assert_eq!(kinds, [KIND_PAGE_IMAGE, KIND_COMMIT]);
        assert!(rx.try_recv().is_err(), "nothing published before a commit");
    }
}

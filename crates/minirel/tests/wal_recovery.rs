//! WAL format and crash-recovery tests: record codec round trips
//! (proptest), torn-tail truncation at every byte offset, checksum
//! rejection of corrupted records, reopen round trips through
//! `Database::open_with`, recovery idempotence, and checkpoint
//! behaviour — all read through the one borrowing reader
//! (`wal::records`) every consumer of the log goes through. The second
//! half is the page-delta record kind: a model test through evictions,
//! checkpoints and reopens, the chain rule read back from the log's own
//! bytes, the torn-tail and corruption sweeps over a log that holds a
//! delta, a kinds-1–3 log written by hand, and the follower page for
//! page. Recovery reads the log a chunk at a time: a log of several
//! chunks is cut at each chunk edge and corrupted inside the first.

use minirel::recovery::{self, Replica};
use minirel::wal::{
    self, checksum, encode_record, PageDelta, Wal, KIND_CHECKPOINT, KIND_COMMIT, KIND_PAGE_DELTA,
    KIND_PAGE_IMAGE,
};
use minirel::{Database, DbError, Value, DEFAULT_GROUP_COMMIT};
use proptest::prelude::*;
use std::collections::{BTreeMap, HashMap};
use std::io::{Cursor, Read, Seek, SeekFrom};
use std::path::PathBuf;
use std::time::Duration;

fn temp_db_path(tag: &str) -> PathBuf {
    use std::sync::atomic::{AtomicU64, Ordering};
    static N: AtomicU64 = AtomicU64::new(0);
    std::env::temp_dir().join(format!(
        "minirel-walrec-{tag}-{}-{}.db",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ))
}

fn cleanup(path: &PathBuf) {
    let _ = std::fs::remove_file(path);
    let _ = std::fs::remove_file(minirel::wal_path_for(path));
}

/// How many whole records `log` starts with, and the bytes they span.
fn scan(log: &[u8]) -> (usize, usize) {
    let mut reader = wal::records(log);
    (reader.by_ref().count(), reader.valid_len())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any (lsn, kind, payload) encodes and decodes back to itself.
    #[test]
    fn record_roundtrip(
        lsn in any::<u64>(),
        kind in prop_oneof![Just(1u8), Just(2u8), Just(3u8), Just(4u8)],
        payload in proptest::collection::vec(any::<u8>(), 0..5000),
    ) {
        let bytes = encode_record(lsn, kind, &payload);
        let mut reader = wal::records(&bytes);
        let rec = reader.next().expect("whole record");
        prop_assert_eq!(reader.valid_len(), bytes.len());
        prop_assert_eq!(rec.lsn, lsn);
        prop_assert_eq!(rec.kind, kind);
        prop_assert_eq!(rec.payload, &payload[..]);
    }

    /// A multi-record log scans back losslessly; appending garbage does
    /// not extend the valid prefix.
    #[test]
    fn scan_roundtrip_with_garbage_tail(
        payloads in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 0..200), 1..20),
        garbage in proptest::collection::vec(any::<u8>(), 0..40),
    ) {
        let mut log = Vec::new();
        for (i, p) in payloads.iter().enumerate() {
            log.extend_from_slice(&encode_record(i as u64 + 1, KIND_COMMIT, p));
        }
        let good_len = log.len();
        let recs: Vec<_> = wal::records(&log).map(|r| (r.lsn, r.payload.to_vec())).collect();
        prop_assert_eq!(scan(&log), (payloads.len(), good_len));
        // Garbage after the valid prefix never yields extra records and
        // never extends the prefix past a whole-record boundary.
        log.extend_from_slice(&garbage);
        let (n2, valid2) = scan(&log);
        prop_assert!(n2 >= payloads.len());
        prop_assert!(valid2 >= good_len);
        for (a, b) in recs.iter().zip(wal::records(&log)) {
            prop_assert_eq!((a.0, &a.1[..]), (b.lsn, b.payload));
        }
    }
}

/// What the one reader must yield for `log` — an encoding of `payloads`
/// that is intact up to byte `intact` — by the format's definition: the
/// records that lie wholly inside the intact prefix, and the offset the
/// last of them ends at.
fn assert_reader_matches_model(log: &[u8], payloads: &[(u8, Vec<u8>)], intact: usize, what: &str) {
    let mut end = 0;
    let whole = payloads.iter().take_while(|(_, p)| {
        let fits = end + wal::RECORD_HEADER + p.len() <= intact;
        end += if fits {
            wal::RECORD_HEADER + p.len()
        } else {
            0
        };
        fits
    });
    let want: Vec<(u64, u8, &[u8])> = whole
        .enumerate()
        .map(|(i, (kind, p))| (i as u64 + 1, *kind, p.as_slice()))
        .collect();
    let mut reader = wal::records(log);
    let got: Vec<(u64, u8, &[u8])> = reader
        .by_ref()
        .map(|r| (r.lsn, r.kind, r.payload))
        .collect();
    assert_eq!(got, want, "{what}: records");
    assert_eq!(reader.valid_len(), end, "{what}: valid length");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The borrowing reader against the format, for random record
    /// sequences: cut the log at *every* byte and it yields exactly the
    /// records that survive whole; flip *every* byte and it yields
    /// exactly the records before the damaged one — never a phantom
    /// record, never a byte of valid prefix too many.
    #[test]
    fn reader_yields_exactly_the_intact_prefix(
        payloads in proptest::collection::vec(
            (prop_oneof![Just(1u8), Just(2u8), Just(3u8), Just(4u8)],
             proptest::collection::vec(any::<u8>(), 0..90)), 1..8),
        flip in prop_oneof![Just(0x01u8), Just(0x80u8), Just(0xFFu8)],
    ) {
        let mut log = Vec::new();
        let mut starts = Vec::new();
        for (i, (kind, p)) in payloads.iter().enumerate() {
            starts.push(log.len());
            log.extend_from_slice(&encode_record(i as u64 + 1, *kind, p));
        }
        for cut in 0..=log.len() {
            assert_reader_matches_model(&log[..cut], &payloads, cut, &format!("cut at {cut}"));
        }
        for i in 0..log.len() {
            let mut damaged = log.clone();
            damaged[i] ^= flip;
            // Everything from the start of the record holding byte `i` is lost.
            let intact = *starts.iter().rev().find(|&&s| s <= i).expect("starts[0] = 0");
            assert_reader_matches_model(&damaged, &payloads, intact, &format!("flip at {i}"));
        }
    }
}

/// Torn-tail truncation: cutting a two-record log at *every* byte
/// offset recovers exactly the records whose bytes fully survive —
/// never a panic, never a phantom record.
#[test]
fn torn_tail_at_every_offset() {
    let r1 = encode_record(1, KIND_PAGE_IMAGE, &[7u8; 100]);
    let r2 = encode_record(2, KIND_COMMIT, b"catalog image bytes");
    let mut log = r1.clone();
    log.extend_from_slice(&r2);
    for cut in 0..=log.len() {
        let want = if cut < r1.len() {
            (0, 0)
        } else if cut < log.len() {
            (1, r1.len())
        } else {
            (2, log.len())
        };
        assert_eq!(scan(&log[..cut]), want, "cut {cut}");
    }
}

/// Every single-byte corruption of a record is rejected (checksum,
/// structural check, or a length that now reads as truncation) — never
/// silently decoded into different content.
#[test]
fn corruption_is_rejected_at_every_byte() {
    let bytes = encode_record(99, KIND_COMMIT, b"the catalog");
    for i in 0..bytes.len() {
        for flip in [0x01u8, 0xFF] {
            let mut b = bytes.clone();
            b[i] ^= flip;
            if let Some(rec) = wal::records(&b).next() {
                panic!(
                    "flip {flip:#x} at byte {i} decoded as lsn={} kind={}",
                    rec.lsn, rec.kind
                );
            }
        }
    }
}

#[test]
fn checksum_is_order_and_boundary_sensitive() {
    assert_ne!(checksum(&[b"abcdef"]), checksum(&[b"abcdfe"]));
    assert_ne!(checksum(&[b"abc", b"def"]), checksum(&[b"def", b"abc"]));
    // Zero-padding a short tail changes the sum (the tail is length-tagged).
    assert_ne!(checksum(&[b"abc"]), checksum(&[b"abc\0"]));
    assert_eq!(checksum(&[b"abc"]), checksum(&[b"abc"]));
}

/// The satellite fix end to end: a durable database reopened from disk
/// sees its tables, rows, and indexes.
#[test]
fn reopen_roundtrip() {
    let path = temp_db_path("reopen");
    cleanup(&path);
    {
        let mut db = Database::open_with(&path, 32, DEFAULT_GROUP_COMMIT).unwrap();
        db.execute("create table crawl (oid int, url text, relevance float)")
            .unwrap();
        db.execute("create index crawl_oid on crawl (oid)").unwrap();
        for i in 0..500i64 {
            db.insert(
                db.table_id("crawl").unwrap(),
                vec![
                    Value::Int(i),
                    Value::Str(format!("http://host/{i}")),
                    Value::Float(i as f64 / 500.0),
                ],
            )
            .unwrap();
        }
        db.commit_durable().unwrap();
    }
    {
        let mut db = Database::open_with(&path, 32, DEFAULT_GROUP_COMMIT).unwrap();
        db.check_integrity().unwrap();
        let rs = db.query("select count(*) from crawl").unwrap();
        assert_eq!(rs.scalar_i64(), Some(500));
        // Index probe path (PROBE uses the B+tree root from the catalog image).
        let rs = db.query("select url from crawl where oid = 123").unwrap();
        assert_eq!(rs.rows[0][0], Value::Str("http://host/123".into()));
        // Keep writing after recovery.
        db.execute("insert into crawl values (1000, 'http://new', 0.5)")
            .unwrap();
        db.commit_durable().unwrap();
    }
    {
        let db = Database::open_with(&path, 32, DEFAULT_GROUP_COMMIT).unwrap();
        db.check_integrity().unwrap();
        assert_eq!(
            db.query("select count(*) from crawl").unwrap().scalar_i64(),
            Some(501)
        );
    }
    cleanup(&path);
}

/// Uncommitted work is discarded on reopen: the log's tail past the
/// last commit never reaches the recovered state.
#[test]
fn uncommitted_tail_is_discarded() {
    let path = temp_db_path("tail");
    cleanup(&path);
    {
        let mut db = Database::open_with(&path, 8, DEFAULT_GROUP_COMMIT).unwrap();
        db.execute("create table t (a int)").unwrap();
        db.execute("insert into t values (1), (2)").unwrap();
        db.commit_durable().unwrap();
        // Uncommitted: dirty pages may even reach the WAL via eviction
        // (8-frame pool), but no commit record covers them.
        db.execute("insert into t values (3), (4), (5)").unwrap();
        db.parts().0.flush_all().unwrap();
    }
    let db = Database::open_with(&path, 8, DEFAULT_GROUP_COMMIT).unwrap();
    assert_eq!(
        db.query("select count(*) from t").unwrap().scalar_i64(),
        Some(2),
        "only the committed rows survive"
    );
    cleanup(&path);
}

/// Recovery is idempotent: replaying the same log twice into the same
/// data file yields byte-identical state, and a recovered database
/// recovered *again* (no new writes) is unchanged.
#[test]
fn recovery_is_idempotent() {
    let path = temp_db_path("idem");
    cleanup(&path);
    {
        let mut db = Database::open_with(&path, 16, DEFAULT_GROUP_COMMIT).unwrap();
        db.execute("create table t (a int, b text)").unwrap();
        for i in 0..200 {
            db.execute(&format!("insert into t values ({i}, 'x{i}')"))
                .unwrap();
        }
        db.commit_durable().unwrap();
    }
    let wal_bytes = std::fs::read(minirel::wal_path_for(&path)).unwrap();
    // Replay the same log twice into one disk: second pass must change
    // nothing.
    let mut disk = minirel::disk::DiskManager::at_path(&path).unwrap();
    recovery::replay_into(&mut disk, Cursor::new(&wal_bytes)).unwrap();
    drop(disk);
    let after_once = std::fs::read(&path).unwrap();
    let mut disk = minirel::disk::DiskManager::at_path(&path).unwrap();
    recovery::replay_into(&mut disk, Cursor::new(&wal_bytes)).unwrap();
    drop(disk);
    let after_twice = std::fs::read(&path).unwrap();
    assert_eq!(after_once, after_twice, "replay must be idempotent");
    // And opening twice in a row sees the same rows.
    for _ in 0..2 {
        let db = Database::open_with(&path, 16, DEFAULT_GROUP_COMMIT).unwrap();
        assert_eq!(
            db.query("select count(*) from t").unwrap().scalar_i64(),
            Some(200)
        );
    }
    cleanup(&path);
}

/// Checkpoints move committed images into the data file; recovery after
/// a checkpoint plus further commits lands on the latest commit.
#[test]
fn checkpoint_then_more_commits_recovers_latest() {
    let path = temp_db_path("ckpt");
    cleanup(&path);
    {
        let mut db = Database::open_with(&path, 16, DEFAULT_GROUP_COMMIT).unwrap();
        db.execute("create table t (a int)").unwrap();
        db.execute("insert into t values (1)").unwrap();
        db.checkpoint().unwrap();
        db.execute("insert into t values (2)").unwrap();
        db.commit_durable().unwrap();
        db.execute("insert into t values (3)").unwrap();
        // no commit for row 3
    }
    let db = Database::open_with(&path, 16, DEFAULT_GROUP_COMMIT).unwrap();
    assert_eq!(
        db.query("select count(*) from t").unwrap().scalar_i64(),
        Some(2)
    );
    cleanup(&path);
}

/// A data file with no WAL is refused, not wiped or trusted.
#[test]
fn data_without_wal_is_corrupt() {
    let path = temp_db_path("nowal");
    cleanup(&path);
    std::fs::write(&path, vec![0u8; 4096]).unwrap();
    match Database::open_with(&path, 8, DEFAULT_GROUP_COMMIT) {
        Err(DbError::Corrupt(msg)) => assert!(msg.contains("wal"), "{msg}"),
        other => panic!("expected Corrupt, got {other:?}", other = other.err()),
    }
    cleanup(&path);
}

/// Eviction pressure with a WAL attached: a pool far smaller than the
/// working set keeps every committed row readable (images round-trip
/// through the log, not the data file).
#[test]
fn tiny_pool_evictions_roundtrip_through_wal() {
    let mut db = Database::in_memory_durable(4, wal::DEFAULT_GROUP_COMMIT);
    db.execute("create table t (a int, pad text)").unwrap();
    let tid = db.table_id("t").unwrap();
    for i in 0..2000i64 {
        db.insert(tid, vec![Value::Int(i), Value::Str(format!("pad-{i:06}"))])
            .unwrap();
    }
    db.commit().unwrap();
    assert_eq!(
        db.query("select count(*) from t").unwrap().scalar_i64(),
        Some(2000)
    );
    assert_eq!(
        db.query("select sum(a) from t").unwrap().scalar_i64(),
        Some((0..2000).sum())
    );
}

// ------------------------------------------------------------ page deltas

/// `N × commit_durable` is `N` syncs, and an open is one: `Wal::sync`
/// right behind a commit that already synced has nothing to do. (Each
/// used to be two, so the crash matrix's sync ordinals landed on every
/// other commit.)
#[test]
fn a_durable_commit_syncs_once() {
    let mut db = Database::in_memory_durable(16, 1);
    db.execute("create table t (a int)").unwrap();
    let wal = db.wal().unwrap();
    let before = wal.stats().syncs;
    for i in 0..7 {
        db.execute(&format!("insert into t values ({i})")).unwrap();
        db.commit_durable().unwrap();
    }
    assert_eq!(wal.stats().syncs - before, 7);
    // Nothing appended since: a forced sync is free.
    wal.sync().unwrap();
    assert_eq!(wal.stats().syncs - before, 7);

    for group_commit in [1, 8] {
        let path = temp_db_path("onesync");
        cleanup(&path);
        let db = Database::open_with(&path, 8, group_commit).unwrap();
        let wal = db.wal().unwrap();
        assert_eq!(wal.stats().syncs, 1, "open at group_commit {group_commit}");
        drop(db);
        cleanup(&path);
    }
}

/// The log is counted: every page a commit or an eviction logs is one
/// `physical_writes` (a commit's pages used to go uncounted), the
/// per-kind bytes add up to the log, and a commit is one write.
#[test]
fn wal_stats_count_what_the_log_holds() {
    let mut db = Database::in_memory_durable(8, 4);
    db.execute("create table t (a int, pad text)").unwrap();
    db.execute("create index t_a on t (a)").unwrap();
    let tid = db.table_id("t").unwrap();
    let wal = db.wal().unwrap();
    for round in 0..6i64 {
        for i in 0..150 {
            let a = round * 150 + i;
            db.insert(tid, vec![Value::Int(a), Value::Str(format!("pad-{a:06}"))])
                .unwrap();
        }
        db.commit().unwrap();
    }
    let st = wal.stats();
    assert!(st.images > 0 && st.deltas > 0, "{st:?}");
    assert_eq!(db.io_stats().physical_writes, st.images + st.deltas);
    assert_eq!(
        st.image_bytes + st.delta_bytes + st.commit_bytes + st.checkpoint_bytes,
        wal.len_bytes()
    );
    assert_eq!(
        st.image_bytes,
        st.images * (wal::RECORD_HEADER + 4 + 4096) as u64
    );
    // Six commits, and an 8-frame pool re-reading pages it evicted since
    // the last one forces a few writes in between; never one per record.
    assert!(
        st.writes >= 6 && st.writes < (st.images + st.deltas) / 4,
        "{st:?}"
    );
    db.checkpoint().unwrap();
    let after = wal.stats();
    assert_eq!(after.checkpoint_bytes, (wal::RECORD_HEADER + 4) as u64);
    assert_eq!(after.syncs, st.syncs + 2, "the commit's, then the marker's");
}

#[test]
fn a_delta_payload_is_checked_against_the_page() {
    let payload = |ranges: &[(u16, u16)], bytes: usize| {
        let mut p = 9u32.to_le_bytes().to_vec();
        p.extend_from_slice(&(ranges.len() as u16).to_le_bytes());
        for (off, len) in ranges {
            p.extend_from_slice(&off.to_le_bytes());
            p.extend_from_slice(&len.to_le_bytes());
        }
        p.extend(std::iter::repeat_n(0xAB, bytes));
        p
    };
    let good = payload(&[(8, 16), (4088, 8)], 24);
    let delta = PageDelta::parse(&good).unwrap();
    assert_eq!(delta.pid, 9);
    let mut page = [0u8; 4096];
    delta.apply(&mut page);
    assert_eq!(page.iter().filter(|&&b| b == 0xAB).count(), 24);
    assert!(page[8..24].iter().chain(&page[4088..]).all(|&b| b == 0xAB));
    for (what, bad) in [
        ("range past the page", payload(&[(4090, 8)], 8)),
        ("fewer bytes than the ranges", payload(&[(0, 16)], 8)),
        ("more bytes than the ranges", payload(&[(0, 8)], 16)),
        ("a cut range table", good[..9].to_vec()),
        ("no range count", good[..5].to_vec()),
        ("no page id", good[..3].to_vec()),
    ] {
        match PageDelta::parse(&bad) {
            Err(DbError::Corrupt(_)) => {}
            other => panic!("{what}: {other:?}"),
        }
    }
}

/// An image, a delta on top of it and their commit, as a real `Wal`
/// encodes them; with the page before and after the delta.
fn log_with_a_delta() -> (Vec<u8>, [u8; 4096], [u8; 4096]) {
    let wal = Wal::in_memory(1);
    let chunks = wal.subscribe();
    let mut before = [0u8; 4096];
    before[..8].copy_from_slice(b"slotted!");
    let mut after = before;
    after[40..52].copy_from_slice(b"a new cell.."); // one range…
    after[4000] = 7; // …and another
    wal.log_page(3, &before, None).unwrap();
    wal.log_page(3, &after, Some(&before)).unwrap();
    let no_tables = recovery::encode_catalog(&minirel::Catalog::new());
    wal.commit(&no_tables, 4).unwrap();
    let log = chunks.try_recv().unwrap().to_vec();
    let kinds: Vec<u8> = wal::records(&log).map(|r| r.kind).collect();
    assert_eq!(kinds, [KIND_PAGE_IMAGE, KIND_PAGE_DELTA, KIND_COMMIT]);
    assert_eq!(wal.stats().writes, 1, "three records, one write");
    let mut read = [0u8; 4096];
    assert!(wal.read_page_into(3, &mut read).unwrap());
    assert_eq!(read, after);
    (log, before, after)
}

/// `torn_tail_at_every_offset` over a log with a delta in it, through
/// recovery: cut anywhere, replay installs the image *and* the delta or
/// nothing at all — a delta is never applied without its commit.
#[test]
fn torn_tail_at_every_offset_of_a_log_with_a_delta() {
    let (log, _before, after) = log_with_a_delta();
    let bounds: Vec<usize> = {
        let mut reader = wal::records(&log);
        let mut ends = Vec::new();
        while reader.next().is_some() {
            ends.push(reader.valid_len());
        }
        ends
    };
    assert!(
        bounds[1] - bounds[0] < 100,
        "the delta is small: {bounds:?}"
    );
    for cut in 0..=log.len() {
        let whole = bounds.iter().take_while(|&&end| end <= cut).count();
        let valid = if whole == 0 { 0 } else { bounds[whole - 1] };
        assert_eq!(scan(&log[..cut]), (whole, valid), "cut {cut}");
        let mut disk = minirel::disk::DiskManager::in_memory();
        let recovered = recovery::replay_into(&mut disk, Cursor::new(&log[..cut])).unwrap();
        if cut < log.len() {
            assert!(recovered.is_none(), "cut {cut}: no commit survives");
            assert_eq!(disk.num_pages(), 0, "cut {cut}: nothing may be written");
        } else {
            assert_eq!(recovered.unwrap().num_pages, 4);
            let mut page = [0u8; 4096];
            disk.read(3, &mut page).unwrap();
            assert_eq!(page, after);
        }
    }
}

/// `corruption_is_rejected_at_every_byte` for the delta record, and
/// for recovery as a whole: a flipped byte anywhere in the log loses
/// that record and everything after it, so the commit, and nothing is
/// installed.
#[test]
fn corruption_is_rejected_at_every_byte_of_a_delta() {
    let (log, _, _) = log_with_a_delta();
    let image_len = wal::RECORD_HEADER + 4 + 4096;
    let delta_len = {
        let mut reader = wal::records(&log[image_len..]);
        assert_eq!(reader.next().unwrap().kind, KIND_PAGE_DELTA);
        reader.valid_len()
    };
    for i in image_len..image_len + delta_len {
        for flip in [0x01u8, 0xFF] {
            let mut damaged = log.clone();
            damaged[i] ^= flip;
            let read = wal::records(&damaged[image_len..]).next();
            assert!(read.is_none(), "flip {flip:#x} at byte {i}: {read:?}");
            let mut disk = minirel::disk::DiskManager::in_memory();
            let recovered = recovery::replay_into(&mut disk, Cursor::new(&damaged));
            assert!(recovered.unwrap().is_none());
            assert_eq!(disk.num_pages(), 0);
        }
    }
    // A well-formed record whose delta has no image before it in the
    // log is corruption too, not a patch of whatever the file holds.
    let orphan = &log[image_len..];
    let mut disk = minirel::disk::DiskManager::in_memory();
    match recovery::replay_into(&mut disk, Cursor::new(orphan)) {
        Err(DbError::Corrupt(msg)) => assert!(msg.contains("no image"), "{msg}"),
        other => panic!("{:?}", other.map(|r| r.map(|r| r.last_lsn))),
    }
}

const PAGES: usize = 24;

/// Step `i` of a fixed write sequence over [`PAGES`] pages: a short run
/// of one page changes, and every ninth step rewrites a whole page.
/// Returns the page written.
fn chunk_edge_step(pages: &mut [[u8; 4096]], i: usize) -> u32 {
    let pid = (i * 7 + i / 5) % PAGES;
    match i % 9 {
        0 => pages[pid].fill(i as u8),
        _ => pages[pid][(i * 37) % 4000..][..12].fill(i as u8 | 1),
    }
    pid as u32
}

/// The pages after the first `steps` steps.
fn pages_after(steps: usize) -> Vec<[u8; 4096]> {
    let mut pages = vec![[0u8; 4096]; PAGES];
    for i in 0..steps {
        chunk_edge_step(&mut pages, i);
    }
    pages
}

/// A log of more than three read chunks, written by a real `Wal`:
/// images and deltas of [`PAGES`] pages with a commit every five steps.
/// Returns it and each commit's (end offset, lsn, steps before it).
fn log_over_chunk_edges() -> (Vec<u8>, Vec<(usize, u64, usize)>) {
    let wal = Wal::in_memory(1);
    let chunks = wal.subscribe();
    let no_tables = recovery::encode_catalog(&minirel::Catalog::new());
    let mut pages = pages_after(0);
    let (mut log, mut commits) = (Vec::new(), Vec::new());
    let mut steps = 0;
    while log.len() <= 3 * recovery::REPLAY_CHUNK + 8192 {
        let before = pages.clone();
        let pid = chunk_edge_step(&mut pages, steps) as usize;
        wal.log_page(pid as u32, &pages[pid], Some(&before[pid]))
            .unwrap();
        steps += 1;
        if steps % 5 == 0 {
            let lsn = wal.commit(&no_tables, PAGES as u32).unwrap();
            log.extend_from_slice(&chunks.try_recv().unwrap());
            commits.push((log.len(), lsn, steps));
        }
    }
    let st = wal.stats();
    assert!(st.images > 600 && st.deltas > 2 * st.images, "{st:?}");
    (log, commits)
}

/// Replay `log` into a fresh in-memory disk and hold every page to the
/// state the last commit ending at or before `valid` leaves.
fn assert_recovers_commit_before(
    log: impl Read + Seek,
    commits: &[(usize, u64, usize)],
    valid: usize,
    what: &str,
) {
    let mut disk = minirel::disk::DiskManager::in_memory();
    let recovered = recovery::replay_into(&mut disk, log).unwrap();
    let Some(&(_, lsn, steps)) = commits.iter().rev().find(|c| c.0 <= valid) else {
        assert!(recovered.is_none(), "{what}: no commit survives");
        return;
    };
    assert_eq!(recovered.expect(what).last_lsn, lsn, "{what}");
    assert_eq!(disk.num_pages(), PAGES as u32, "{what}");
    let mut page = [0u8; 4096];
    for (pid, want) in pages_after(steps).iter().enumerate() {
        disk.read(pid as u32, &mut page).unwrap();
        assert!(page == *want, "{what}: page {pid} differs");
    }
}

/// Counts the bytes read through it.
struct Counted<R> {
    inner: R,
    read: usize,
}

impl<R: Read> Read for Counted<R> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = self.inner.read(buf)?;
        self.read += n;
        Ok(n)
    }
}

impl<R: Seek> Seek for Counted<R> {
    fn seek(&mut self, pos: SeekFrom) -> std::io::Result<u64> {
        self.inner.seek(pos)
    }
}

/// Recovery reads the log a chunk at a time: a log cut one byte before,
/// at and one byte after each chunk edge — each edge inside a record —
/// recovers the last commit before the cut, page for page; a record
/// corrupted inside the first chunk ends recovery at the commit before
/// it, and the scan reads no further than that chunk.
#[test]
fn recovery_reads_across_chunk_edges_and_stops_at_corruption() {
    let (log, commits) = log_over_chunk_edges();
    let mut starts = vec![0];
    let mut reader = wal::records(&log);
    while reader.next().is_some() {
        starts.push(reader.valid_len());
    }
    assert_eq!(*starts.last().unwrap(), log.len(), "the whole log is valid");
    for edge in (1..=3).map(|n| n * recovery::REPLAY_CHUNK) {
        assert!(!starts.contains(&edge), "a record straddles {edge}");
        for cut in [edge - 1, edge, edge + 1] {
            let what = format!("cut at {cut}");
            assert_recovers_commit_before(Cursor::new(&log[..cut]), &commits, cut, &what);
        }
    }
    let (i, &start) = starts
        .iter()
        .enumerate()
        .find(|(_, &s)| s > recovery::REPLAY_CHUNK / 2)
        .unwrap();
    assert!(
        starts[i + 1] < recovery::REPLAY_CHUNK,
        "inside the first chunk"
    );
    let mut damaged = log.clone();
    damaged[start + wal::RECORD_HEADER + 2] ^= 0x40;
    let mut counted = Counted {
        inner: Cursor::new(&damaged),
        read: 0,
    };
    let what = format!("record at {start} corrupted");
    assert_recovers_commit_before(&mut counted, &commits, start, &what);
    // The first chunk, then one image read per page.
    assert!(
        counted.read <= recovery::REPLAY_CHUNK + PAGES * 4096,
        "{what}: read {} bytes of a {}-byte log",
        counted.read,
        log.len()
    );
}

/// Walk a log's records and hold it to the chain rule: a page's first
/// record — in the log, and after every checkpoint marker — is an
/// image, and between images it collects at most `MAX_CHAIN_DELTAS`
/// deltas of at most `MAX_CHAIN_BYTES` payload. Returns (images,
/// deltas) seen.
fn assert_chain_rule(log: &[u8]) -> (u64, u64) {
    let mut chains: HashMap<u32, (usize, usize)> = HashMap::new();
    let (mut images, mut deltas) = (0, 0);
    let mut reader = wal::records(log);
    for rec in reader.by_ref() {
        let pid = || u32::from_le_bytes(rec.payload[..4].try_into().unwrap());
        match rec.kind {
            KIND_PAGE_IMAGE => {
                images += 1;
                chains.insert(pid(), (0, 0));
            }
            KIND_PAGE_DELTA => {
                deltas += 1;
                PageDelta::parse(rec.payload).unwrap();
                let chain = chains.get_mut(&pid()).unwrap_or_else(|| {
                    panic!("lsn {}: delta for page {} with no image", rec.lsn, pid())
                });
                chain.0 += 1;
                chain.1 += rec.payload.len();
                assert!(
                    chain.0 <= wal::MAX_CHAIN_DELTAS,
                    "page {}: {chain:?}",
                    pid()
                );
                assert!(chain.1 <= wal::MAX_CHAIN_BYTES, "page {}: {chain:?}", pid());
                assert!(rec.payload.len() < 4096 / 2, "lsn {}", rec.lsn);
            }
            KIND_CHECKPOINT => chains.clear(),
            _ => {}
        }
    }
    assert_eq!(reader.valid_len(), log.len(), "the whole log is valid");
    (images, deltas)
}

/// What the log holds for every page it indexes is what the pool holds.
fn assert_log_matches_pool(db: &Database, step: usize) {
    let wal = db.wal().unwrap();
    let mut logged = [0u8; 4096];
    for pid in wal.indexed_pages() {
        assert!(wal.read_page_into(pid, &mut logged).unwrap());
        let pooled = db.page_snapshot(pid).unwrap();
        assert!(logged == pooled, "step {step}: page {pid} differs");
    }
}

type Model = [BTreeMap<i64, (i64, String)>; 2];

fn assert_tables_equal_model(db: &Database, model: &Model, what: &str) {
    db.check_integrity().unwrap();
    for (name, rows) in ["t0", "t1"].iter().zip(model) {
        let rs = db
            .query(&format!("select k, v, pad from {name} order by k"))
            .unwrap();
        let got: Vec<(i64, i64, String)> = rs
            .rows
            .iter()
            .map(|r| match (&r[0], &r[1], &r[2]) {
                (Value::Int(k), Value::Int(v), Value::Str(p)) => (*k, *v, p.clone()),
                other => panic!("{what}: row {other:?}"),
            })
            .collect();
        let want: Vec<(i64, i64, String)> =
            rows.iter().map(|(k, (v, p))| (*k, *v, p.clone())).collect();
        assert_eq!(got, want, "{what}: table {name}");
    }
}

/// Random inserts, updates and deletes over two indexed tables against
/// a `BTreeMap` model, with commits, checkpoints and reopens at random
/// steps. At 4 frames nearly every record is logged by an eviction —
/// uncommitted deltas on uncommitted images — at 48 by the commit.
/// After every commit the log reconstructs every page to the pool's
/// bytes; after every reopen the tables equal the model as of the last
/// commit and every index validates; the file's log obeys the chain
/// rule throughout.
fn run_model(frames: usize, seed: u64, steps: usize) -> (u64, u64) {
    let path = temp_db_path(&format!("model-{frames}-{seed}"));
    cleanup(&path);
    let mut rng = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let mut next = move |bound: u64| {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        rng % bound
    };
    let mut db = Database::open_with(&path, frames, 2).unwrap();
    for t in ["t0", "t1"] {
        db.execute(&format!("create table {t} (k int, v int, pad text)"))
            .unwrap();
        db.execute(&format!("create index {t}_k on {t} (k)"))
            .unwrap();
    }
    db.commit().unwrap();
    let mut model: Model = Default::default();
    let mut committed = model.clone();
    let (mut images, mut deltas) = (0, 0);
    for step in 0..steps {
        let t = next(2) as usize;
        let name = ["t0", "t1"][t];
        let k = next(400) as i64;
        let exists = model[t].contains_key(&k);
        match next(10) {
            0..=4 if !exists => {
                let row = (
                    next(1000) as i64,
                    format!("pad-{:0w$}", k, w = next(40) as usize),
                );
                let values = vec![Value::Int(k), Value::Int(row.0), Value::Str(row.1.clone())];
                db.insert(db.table_id(name).unwrap(), values).unwrap();
                model[t].insert(k, row);
            }
            0..=7 if exists => {
                // Same-size and growing updates: in place, and moved.
                let v = next(1000) as i64;
                let pad = format!("upd-{:0w$}", step, w = next(60) as usize);
                let sql = format!("update {name} set v = ?, pad = ? where k = ?");
                let params = [Value::Int(v), Value::Str(pad.clone()), Value::Int(k)];
                assert_eq!(db.execute_with(&sql, &params).unwrap().affected, 1);
                model[t].insert(k, (v, pad));
            }
            8 | 9 if exists => {
                let sql = format!("delete from {name} where k = ?");
                assert_eq!(db.execute_with(&sql, &[Value::Int(k)]).unwrap().affected, 1);
                model[t].remove(&k);
            }
            _ => {}
        }
        match next(60) {
            0..=5 => {
                db.commit().unwrap();
                committed = model.clone();
                assert_log_matches_pool(&db, step);
            }
            6 => {
                db.checkpoint().unwrap();
                committed = model.clone();
                assert!(db.wal().unwrap().indexed_pages().is_empty());
            }
            7 => {
                // Whatever is uncommitted is lost with the process.
                drop(db);
                let log = std::fs::read(minirel::wal_path_for(&path)).unwrap();
                let seen = assert_chain_rule(&log);
                (images, deltas) = (images + seen.0, deltas + seen.1);
                db = Database::open_with(&path, frames, 2).unwrap();
                model = committed.clone();
                assert_tables_equal_model(&db, &model, &format!("reopen at step {step}"));
            }
            _ => {}
        }
    }
    db.commit_durable().unwrap();
    assert_tables_equal_model(&db, &model, "end of run");
    drop(db);
    let log = std::fs::read(minirel::wal_path_for(&path)).unwrap();
    let seen = assert_chain_rule(&log);
    // Reopen twice: same tables, and recovery leaves the same bytes.
    let db = Database::open_with(&path, frames, 2).unwrap();
    assert_tables_equal_model(&db, &model, "first reopen");
    drop(db);
    let once = std::fs::read(&path).unwrap();
    let db = Database::open_with(&path, frames, 2).unwrap();
    assert_tables_equal_model(&db, &model, "second reopen");
    drop(db);
    assert!(
        once == std::fs::read(&path).unwrap(),
        "reopen is idempotent"
    );
    cleanup(&path);
    (images + seen.0, deltas + seen.1)
}

#[test]
fn model_run_through_evictions_checkpoints_and_reopens() {
    for (frames, seed) in [(4, 1), (4, 2), (4, 3), (48, 4), (48, 5)] {
        let (images, deltas) = run_model(frames, seed, 2500);
        assert!(
            deltas > images / 4,
            "frames {frames}, seed {seed}: a run that exercises deltas, not {deltas} of them \
             beside {images} images"
        );
    }
}

/// A log as every earlier version wrote it — page images, commits and
/// a checkpoint marker, encoded here by hand — opens to the same
/// tables.
#[test]
fn a_log_of_kinds_1_to_3_still_opens() {
    let mut src = Database::in_memory();
    src.execute("create table crawl (oid int, url text)")
        .unwrap();
    src.execute("create index crawl_oid on crawl (oid)")
        .unwrap();
    let tid = src.table_id("crawl").unwrap();
    let url = |i: i64| Value::Str(format!("http://host/{i}"));
    let rows = (0..800i64).map(|i| vec![Value::Int(i), url(i)]);
    src.insert_many(tid, rows.collect()).unwrap();
    let mut log = Vec::new();
    let mut lsn = 0;
    let mut put = |kind: u8, payload: &[u8]| {
        lsn += 1;
        log.extend_from_slice(&encode_record(lsn, kind, payload));
    };
    let n = src.num_pages();
    // A first commit of stale (zero) pages, a marker, then the real ones.
    for pid in 0..n.min(3) {
        put(
            KIND_PAGE_IMAGE,
            &[&pid.to_le_bytes()[..], &[0u8; 4096]].concat(),
        );
    }
    let empty = recovery::encode_catalog(&minirel::Catalog::new());
    put(KIND_COMMIT, &[&n.to_le_bytes()[..], &empty].concat());
    put(KIND_CHECKPOINT, &n.to_le_bytes());
    for pid in 0..n {
        let page = src.page_snapshot(pid).unwrap();
        put(KIND_PAGE_IMAGE, &[&pid.to_le_bytes()[..], &page].concat());
    }
    let catalog = recovery::encode_catalog(src.parts().1);
    put(KIND_COMMIT, &[&n.to_le_bytes()[..], &catalog].concat());
    let path = temp_db_path("kinds123");
    cleanup(&path);
    std::fs::write(minirel::wal_path_for(&path), &log).unwrap();
    let db = Database::open_with(&path, 16, DEFAULT_GROUP_COMMIT).unwrap();
    db.check_integrity().unwrap();
    let all = "select oid, url from crawl order by oid";
    assert_eq!(db.query(all).unwrap().rows, src.query(all).unwrap().rows);
    let probe = db.query("select url from crawl where oid = 777").unwrap();
    assert_eq!(probe.rows, [[url(777)]]);
    drop(db);
    cleanup(&path);
}

/// After `checkpoint()` the index is empty, so the next record for any
/// page — however small its change — is a full image again.
#[test]
fn after_a_checkpoint_the_next_record_for_a_page_is_an_image() {
    let path = temp_db_path("ckpt-image");
    cleanup(&path);
    let mut db = Database::open_with(&path, 32, 1).unwrap();
    db.execute("create table t (a int, b int)").unwrap();
    db.execute("create index t_a on t (a)").unwrap();
    db.execute("insert into t values (1, 1), (2, 2), (3, 3)")
        .unwrap();
    db.commit().unwrap();
    db.execute("update t set b = 20 where a = 2").unwrap();
    db.commit().unwrap();
    let deltas_before = db.wal().unwrap().stats().deltas;
    assert!(deltas_before > 0, "a one-row update is a delta");
    db.checkpoint().unwrap();
    db.execute("update t set b = 30 where a = 3").unwrap();
    db.commit().unwrap();
    let st = db.wal().unwrap().stats();
    assert_eq!(st.deltas, deltas_before, "no delta right after the marker");
    db.execute("update t set b = 31 where a = 3").unwrap();
    db.commit_durable().unwrap();
    assert!(
        db.wal().unwrap().stats().deltas > deltas_before,
        "then deltas again"
    );
    drop(db);
    let log = std::fs::read(minirel::wal_path_for(&path)).unwrap();
    assert_chain_rule(&log);
    let db = Database::open_with(&path, 32, DEFAULT_GROUP_COMMIT).unwrap();
    let rs = db.query("select b from t order by a").unwrap();
    assert_eq!(
        rs.rows,
        [[Value::Int(1)], [Value::Int(20)], [Value::Int(31)]]
    );
    drop(db);
    cleanup(&path);
}

/// The follower is page-for-page equal to the leader after a run whose
/// commits are mostly deltas (one-row updates scattered over tables that
/// already exist), with a checkpoint in the middle.
#[test]
fn the_follower_equals_the_leader_page_for_page_after_a_delta_heavy_run() {
    let path = temp_db_path("followers");
    cleanup(&path);
    let mut leader = Database::open_with(&path, 24, 1).unwrap();
    leader
        .execute("create table t (k int, v int, pad text)")
        .unwrap();
    leader.execute("create index t_k on t (k)").unwrap();
    let tid = leader.table_id("t").unwrap();
    let pad = |i: i64| Value::Str(format!("pad-{i:030}"));
    let rows = (0..3000i64).map(|i| vec![Value::Int(i), Value::Int(0), pad(i)]);
    leader.insert_many(tid, rows.collect()).unwrap();
    leader.commit_durable().unwrap();
    let follower = Replica::spawn(&mut leader).unwrap();
    let before = leader.wal().unwrap().stats();
    let mut lsn = 0;
    for round in 0..40i64 {
        for j in 0..12 {
            let k = (round * 977 + j * 251) % 3000;
            let params = [Value::Int(round), Value::Int(k)];
            leader
                .execute_with("update t set v = ? where k = ?", &params)
                .unwrap();
        }
        leader
            .insert(
                tid,
                vec![Value::Int(3000 + round), Value::Int(-1), pad(round)],
            )
            .unwrap();
        lsn = if round == 20 {
            leader.checkpoint().unwrap();
            leader.wal().unwrap().last_commit_lsn()
        } else {
            leader.commit_durable().unwrap()
        };
    }
    let st = leader.wal().unwrap().stats();
    let (images, deltas) = (st.images - before.images, st.deltas - before.deltas);
    assert!(
        deltas > 2 * images,
        "a delta-heavy run, not {deltas} deltas and {images} images"
    );
    assert!(
        follower.wait_for_lsn(lsn, Duration::from_secs(20)),
        "follower stuck at lsn {} (want {lsn}); err={:?}",
        follower.applied_lsn(),
        follower.error()
    );
    follower.with_db(|db| {
        assert_eq!(db.num_pages(), leader.num_pages());
        for pid in 0..leader.num_pages() {
            let (ours, theirs) = (db.page_snapshot(pid), leader.page_snapshot(pid));
            assert!(ours.unwrap() == theirs.unwrap(), "page {pid} differs");
        }
        db.check_integrity().unwrap();
    });
    assert!(follower.error().is_none(), "{:?}", follower.error());
    drop((follower, leader));
    cleanup(&path);
}

// ------------------------------------------------------------ snapshots

/// Every row of every table, in heap order.
fn dump(db: &Database, tables: &[&str]) -> Vec<Vec<Vec<Value>>> {
    let all = |t: &&str| db.query(&format!("select * from {t}")).unwrap().rows;
    tables.iter().map(all).collect()
}

/// A copy of a database bigger than its pool — so taking the snapshot
/// evicts mid-copy, and so does adopting it — is the database: adopted
/// in memory, and adopted into a durable file whose commit, once
/// reopened, recovers the same tables.
#[test]
fn a_snapshot_bigger_than_the_pool_adopts_in_memory_and_into_a_file() {
    let frames = 8;
    let mut src = Database::in_memory_with_frames(frames);
    src.execute("create table t (k int, pad text)").unwrap();
    src.execute("create index t_k on t (k)").unwrap();
    src.execute("create table u (a float)").unwrap();
    let tid = src.table_id("t").unwrap();
    let rows = (0..3000i64).map(|i| vec![Value::Int(i % 977), Value::Str(format!("pad-{i:030}"))]);
    src.insert_many(tid, rows.collect()).unwrap();
    src.execute("insert into u values (0.5), (-1.25)").unwrap();
    src.execute("delete from t where k < 100").unwrap();
    src.set_current_timestamp(77);
    let tables = ["t", "u"];
    let want = dump(&src, &tables);
    let snap = src.take_snapshot().unwrap();
    assert!(src.num_pages() as usize > 4 * frames, "the copy must evict");

    let mut copy = Database::in_memory_with_frames(frames);
    copy.adopt(&snap).unwrap();
    assert_eq!(copy.num_pages(), src.num_pages());
    assert_eq!(dump(&copy, &tables), want);
    let now = "select count(*) from u where current timestamp = 77";
    assert_eq!(copy.query(now).unwrap().scalar_i64(), Some(2), "the clock");
    copy.check_integrity().unwrap();
    assert!(copy.adopt(&snap).is_err(), "only an empty database adopts");

    let path = temp_db_path("adopt");
    cleanup(&path);
    let mut file = Database::open_with(&path, frames, 4).unwrap();
    file.adopt(&snap).unwrap();
    file.commit_durable().unwrap();
    drop(file);
    let reopened = Database::open_with(&path, frames, 4).unwrap();
    assert_eq!(dump(&reopened, &tables), want);
    reopened.check_integrity().unwrap();
    drop(reopened);
    cleanup(&path);
}

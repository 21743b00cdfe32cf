//! WAL format and crash-recovery tests: record codec round trips
//! (proptest), torn-tail truncation at every byte offset, checksum
//! rejection of corrupted records, reopen round trips through
//! `Database::open`, recovery idempotence, and checkpoint behaviour —
//! plus the properties of the one borrowing reader (`wal::records`)
//! every consumer of the log now goes through, and of the file tailer
//! built on it.

use minirel::recovery::{self, Replica};
use minirel::wal::{
    self, checksum, decode_record, encode_record, scan_records, KIND_COMMIT, KIND_PAGE_IMAGE,
};
use minirel::{Database, DbError, Value};
use proptest::prelude::*;
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any (lsn, kind, payload) encodes and decodes back to itself.
    #[test]
    fn record_roundtrip(
        lsn in any::<u64>(),
        kind in prop_oneof![Just(1u8), Just(2u8), Just(3u8)],
        payload in proptest::collection::vec(any::<u8>(), 0..5000),
    ) {
        let bytes = encode_record(lsn, kind, &payload);
        let (rec, used) = decode_record(&bytes).unwrap().expect("whole record");
        prop_assert_eq!(used, bytes.len());
        prop_assert_eq!(rec.lsn, lsn);
        prop_assert_eq!(rec.kind, kind);
        prop_assert_eq!(rec.payload, payload);
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
        let (recs, valid) = scan_records(&log);
        prop_assert_eq!(recs.len(), payloads.len());
        prop_assert_eq!(valid, good_len);
        // Garbage after the valid prefix never yields extra records and
        // never extends the prefix past a whole-record boundary.
        log.extend_from_slice(&garbage);
        let (recs2, valid2) = scan_records(&log);
        prop_assert!(recs2.len() >= payloads.len());
        prop_assert!(valid2 >= good_len);
        for (a, b) in recs.iter().zip(&recs2) {
            prop_assert_eq!(a, b);
        }
    }
}

/// What the one reader must yield for `log` — an encoding of `payloads`
/// that is intact up to byte `intact` — by the format's definition: the
/// records that lie wholly inside the intact prefix, and the offset the
/// last of them ends at. (`scan_records` is built on the reader now, so
/// the oracle here is the model, not a second scan.)
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
    // The owned convenience is the same reader, copied out.
    let (owned, valid) = scan_records(log);
    assert_eq!(valid, end, "{what}: scan_records' valid length");
    assert_eq!(owned.len(), got.len(), "{what}");
    for (o, g) in owned.iter().zip(&got) {
        assert_eq!((o.lsn, o.kind, o.payload.as_slice()), *g, "{what}");
    }
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
            (prop_oneof![Just(1u8), Just(2u8), Just(3u8)],
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
        let (recs, valid) = scan_records(&log[..cut]);
        if cut < r1.len() {
            assert_eq!(recs.len(), 0, "cut {cut}");
            assert_eq!(valid, 0, "cut {cut}");
        } else if cut < log.len() {
            assert_eq!(recs.len(), 1, "cut {cut}");
            assert_eq!(valid, r1.len(), "cut {cut}");
        } else {
            assert_eq!(recs.len(), 2);
            assert_eq!(valid, log.len());
        }
    }
}

/// Every single-byte corruption of a record is rejected (checksum or
/// structural check) — never silently decoded into different content.
#[test]
fn corruption_is_rejected_at_every_byte() {
    let bytes = encode_record(99, KIND_COMMIT, b"the catalog");
    for i in 0..bytes.len() {
        for flip in [0x01u8, 0xFF] {
            let mut b = bytes.clone();
            b[i] ^= flip;
            match decode_record(&b) {
                Err(DbError::Corrupt(_)) => {}
                // Corrupting the length field can make the record look
                // truncated — that's still a rejection.
                Ok(None) => {}
                Ok(Some((rec, _))) => panic!(
                    "flip {flip:#x} at byte {i} decoded as lsn={} kind={}",
                    rec.lsn, rec.kind
                ),
                Err(other) => panic!("flip {flip:#x} at byte {i}: unexpected {other}"),
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

/// Every index in the catalog is a structurally sound tree whose
/// entry count matches its table.
fn validate_indexes(db: &Database) {
    let (pool, catalog) = db.parts();
    for name in catalog.table_names() {
        let t = catalog.table(catalog.table_id(name).unwrap());
        for idx in &t.indexes {
            (idx.btree.validate(pool)).unwrap_or_else(|e| panic!("index {}: {e}", idx.name));
            assert_eq!(idx.btree.len(), t.heap.len(), "index {}", idx.name);
        }
    }
}

/// The satellite fix end to end: a durable database reopened from disk
/// sees its tables, rows, and indexes.
#[test]
fn reopen_roundtrip() {
    let path = temp_db_path("reopen");
    cleanup(&path);
    {
        let mut db = Database::open(&path, 32).unwrap();
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
        let mut db = Database::open(&path, 32).unwrap();
        validate_indexes(&db);
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
        let db = Database::open(&path, 32).unwrap();
        validate_indexes(&db);
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
        let mut db = Database::open(&path, 8).unwrap();
        db.execute("create table t (a int)").unwrap();
        db.execute("insert into t values (1), (2)").unwrap();
        db.commit_durable().unwrap();
        // Uncommitted: dirty pages may even reach the WAL via eviction
        // (8-frame pool), but no commit record covers them.
        db.execute("insert into t values (3), (4), (5)").unwrap();
        db.parts().0.flush_all().unwrap();
    }
    let db = Database::open(&path, 8).unwrap();
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
        let mut db = Database::open(&path, 16).unwrap();
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
    recovery::replay_into(&mut disk, &wal_bytes).unwrap();
    drop(disk);
    let after_once = std::fs::read(&path).unwrap();
    let mut disk = minirel::disk::DiskManager::at_path(&path).unwrap();
    recovery::replay_into(&mut disk, &wal_bytes).unwrap();
    drop(disk);
    let after_twice = std::fs::read(&path).unwrap();
    assert_eq!(after_once, after_twice, "replay must be idempotent");
    // And opening twice in a row sees the same rows.
    for _ in 0..2 {
        let db = Database::open(&path, 16).unwrap();
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
        let mut db = Database::open(&path, 16).unwrap();
        db.execute("create table t (a int)").unwrap();
        db.execute("insert into t values (1)").unwrap();
        db.checkpoint().unwrap();
        db.execute("insert into t values (2)").unwrap();
        db.commit_durable().unwrap();
        db.execute("insert into t values (3)").unwrap();
        // no commit for row 3
    }
    let db = Database::open(&path, 16).unwrap();
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
    match Database::open(&path, 8) {
        Err(DbError::Corrupt(msg)) => assert!(msg.contains("wal"), "{msg}"),
        other => panic!("expected Corrupt, got {other:?}", other = other.err()),
    }
    cleanup(&path);
}

/// File-tailing replica: a second "process view" built purely from the
/// leader's files follows new commits.
#[test]
fn file_tailing_replica_follows() {
    let path = temp_db_path("tailrep");
    cleanup(&path);
    let mut leader = Database::open_with(&path, 32, 1).unwrap();
    leader.execute("create table t (a int)").unwrap();
    leader.execute("insert into t values (1), (2)").unwrap();
    leader.commit_durable().unwrap();
    let replica = Replica::tail_file(&path, 32, Duration::from_millis(5)).unwrap();
    assert_eq!(
        replica
            .query("select count(*) from t")
            .unwrap()
            .scalar_i64(),
        Some(2)
    );
    leader.execute("insert into t values (3)").unwrap();
    let lsn = leader.commit_durable().unwrap();
    assert!(
        replica.wait_for_lsn(lsn, Duration::from_secs(10)),
        "tail replica stuck at lsn {} (want {lsn}); err={:?}",
        replica.applied_lsn(),
        replica.error()
    );
    assert_eq!(
        replica
            .query("select count(*) from t")
            .unwrap()
            .scalar_i64(),
        Some(3)
    );
    // A checkpoint mid-stream must not derail the tailer.
    leader.execute("insert into t values (4)").unwrap();
    leader.checkpoint().unwrap();
    leader.execute("insert into t values (5)").unwrap();
    let lsn = leader.commit_durable().unwrap();
    assert!(replica.wait_for_lsn(lsn, Duration::from_secs(10)));
    assert_eq!(
        replica
            .query("select count(*) from t")
            .unwrap()
            .scalar_i64(),
        Some(5)
    );
    drop(replica);
    drop(leader);
    cleanup(&path);
}

/// A file tailer over a log that reaches it in pieces — a group's images
/// one poll, their commit a poll later, records cut mid-way — applies
/// whole commits only: a reader never sees a state the leader did not
/// commit, and at the end the follower equals the leader.
#[test]
fn file_tailer_applies_whole_commits_from_a_log_that_grows_in_pieces() {
    use std::io::Write;
    let (src, dst) = (temp_db_path("pieces-src"), temp_db_path("pieces-dst"));
    cleanup(&src);
    cleanup(&dst);
    // A real leader writes three commits; its log is then replayed to
    // the tailer's files piece by piece.
    let mut leader = Database::open_with(&src, 8, 1).unwrap();
    leader.execute("create table t (a int, pad text)").unwrap();
    let tid = leader.table_id("t").unwrap();
    let mut counts = Vec::new();
    for rows in [200i64, 400, 1500] {
        let pad = |i: i64| Value::Str(format!("pad-{i:040}"));
        let batch = (0..rows).map(|i| vec![Value::Int(i), pad(i)]).collect();
        leader.insert_many(tid, batch).unwrap();
        leader.commit_durable().unwrap();
        counts.push(leader.table_len("t").unwrap() as i64);
    }
    let log = std::fs::read(minirel::wal_path_for(&src)).unwrap();
    // (start, end, lsn) of every commit record in the leader's log: the
    // rotation's seed commit, then the three above.
    let mut reader = wal::records(&log);
    let mut commits = Vec::new();
    let mut start = 0;
    while let Some(rec) = reader.next() {
        if rec.kind == KIND_COMMIT {
            commits.push((start, reader.valid_len(), rec.lsn));
        }
        start = reader.valid_len();
    }
    assert_eq!(reader.valid_len(), log.len());
    assert_eq!(commits.len(), 4, "seed commit + three batches");
    for pair in commits.windows(2) {
        let images = pair[1].0 - pair[0].1;
        assert!(
            images > 2 * 4096,
            "a group of several images, not {images} bytes"
        );
    }
    let [_, (_, end1, lsn1), (start2, end2, lsn2), (_, _, lsn3)] = commits[..] else {
        unreachable!("length checked");
    };

    // The tailer's files: the leader's (never checkpointed, so empty)
    // data file, and the log through its first real commit.
    std::fs::copy(&src, &dst).unwrap();
    let wal_dst = minirel::wal_path_for(&dst);
    std::fs::write(&wal_dst, &log[..end1]).unwrap();
    let replica = Replica::tail_file(&dst, 32, Duration::from_millis(2)).unwrap();
    let count = || {
        let rs = replica.query("select count(*) from t").unwrap();
        rs.scalar_i64().unwrap()
    };
    assert_eq!((replica.applied_lsn(), count()), (lsn1, counts[0]));
    let append = |from: usize, upto: usize| {
        let mut f = std::fs::OpenOptions::new().append(true).open(&wal_dst);
        f.as_mut().unwrap().write_all(&log[from..upto]).unwrap();
    };
    let settle = || std::thread::sleep(Duration::from_millis(40));

    // Group 2: every image, then half of the commit record, then the rest.
    let half = start2 + (end2 - start2) / 2;
    append(end1, start2);
    settle();
    assert_eq!(
        (replica.applied_lsn(), count()),
        (lsn1, counts[0]),
        "images without their commit must not be applied"
    );
    append(start2, half);
    settle();
    assert_eq!((replica.applied_lsn(), count()), (lsn1, counts[0]));
    append(half, end2);
    assert!(replica.wait_for_lsn(lsn2, Duration::from_secs(10)));
    assert_eq!(count(), counts[1]);

    // Group 3: in 1,000-byte pieces, cutting records anywhere. A reader
    // sees the second commit's rows or the third's, nothing in between.
    for from in (end2..log.len()).step_by(1000) {
        append(from, (from + 1000).min(log.len()));
        std::thread::sleep(Duration::from_millis(3));
        let seen = count();
        assert!(
            seen == counts[1] || seen == counts[2],
            "torn state: {seen} rows"
        );
    }
    assert!(
        replica.wait_for_lsn(lsn3, Duration::from_secs(10)),
        "tailer stuck at lsn {}; err={:?}",
        replica.applied_lsn(),
        replica.error()
    );
    assert_eq!(count(), counts[2]);
    let all = "select a, pad from t order by a";
    assert_eq!(
        replica.query(all).unwrap().rows,
        leader.query(all).unwrap().rows,
        "the follower ends equal to the leader"
    );
    assert!(replica.error().is_none(), "{:?}", replica.error());
    drop(replica);
    drop(leader);
    cleanup(&src);
    cleanup(&dst);
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

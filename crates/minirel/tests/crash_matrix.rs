//! Crash matrix: kill the process at randomized WAL-sync boundaries
//! (`MINIREL_CRASH_SYNCS=<n>` aborts before the nth sync), reopen, and
//! assert that recovery lands on a whole-commit state that contains
//! every acknowledged batch.
//!
//! The parent test re-executes its own test binary to run a child in a
//! subprocess with the crash env set; the child appends fixed-size
//! batches — and in each re-stamps the first row of every earlier batch,
//! so its commits carry page deltas to old pages beside the images of
//! new ones — and prints `ACK <batch>` once a durable commit covering
//! the batch returns. The parent then reopens the files the dead child
//! left behind. Two children:
//!
//! * `child_crash_writer` opens at `group_commit = 1` and calls
//!   [`Database::commit_durable`] after every batch, so every crash
//!   ordinal lands on a batch boundary;
//! * `child_group_writer` opens at [`DEFAULT_GROUP_COMMIT`] and calls a
//!   plain [`Database::commit`] per batch and `commit_durable` every
//!   [`DURABLE_EVERY`] batches, so the crash ordinal also fires on the
//!   log's syncer thread for a group commit's sync, while the writer is
//!   still appending the next batches.

use minirel::{Database, Value, DEFAULT_GROUP_COMMIT};
use std::io::Write as _;
use std::path::PathBuf;
use std::process::Command;
use std::time::Duration;

const BATCH: i64 = 25;
const MAX_BATCHES: i64 = 12;
/// `child_group_writer`'s batches per run and per durable commit: more
/// than a group between two durable commits, so the quota's sync runs
/// in the background first.
const GROUP_BATCHES: i64 = 20;
const DURABLE_EVERY: i64 = DEFAULT_GROUP_COMMIT as i64 + 2;

fn temp_db_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("minirel-crash-{tag}-{}.db", std::process::id()))
}

fn cleanup(path: &PathBuf) {
    let _ = std::fs::remove_file(path);
    let _ = std::fs::remove_file(minirel::wal_path_for(path));
    let mut tmp = minirel::wal_path_for(path).into_os_string();
    tmp.push(".tmp");
    let _ = std::fs::remove_file(tmp);
}

/// Subprocess body — only meaningful with `MINIREL_CRASH_DB` set, so a
/// plain `cargo test -- --ignored` run is a no-op.
#[test]
#[ignore = "subprocess body for the crash matrix; driven by crash_matrix_recovers"]
fn child_crash_writer() {
    let Ok(path) = std::env::var("MINIREL_CRASH_DB") else {
        return;
    };
    let path = PathBuf::from(path);
    // group_commit = 1: the open is one sync and every commit_durable
    // exactly one more, so crash ordinal n dies inside batch n - 1's
    // commit and the sweep lands on every batch boundary.
    let mut db = Database::open_with(&path, 32, 1).expect("child open");
    let start = first_batch(&db);
    for batch in start..start + MAX_BATCHES {
        write_batch(&mut db, batch);
        db.commit_durable().unwrap();
        ack(batch);
    }
}

/// Subprocess body of the group-commit sweep; a no-op without
/// `MINIREL_CRASH_DB`, like `child_crash_writer`.
#[test]
#[ignore = "subprocess body for the crash matrix; driven by crash_matrix_recovers_group_commits"]
fn child_group_writer() {
    let Ok(path) = std::env::var("MINIREL_CRASH_DB") else {
        return;
    };
    // The open is sync 1; then the quota's sync in the background after
    // the eighth batch, the forced one after the tenth, and so on.
    let mut db =
        Database::open_with(&PathBuf::from(path), 32, DEFAULT_GROUP_COMMIT).expect("child open");
    let start = first_batch(&db);
    for batch in start..start + GROUP_BATCHES {
        write_batch(&mut db, batch);
        if (batch - start + 1) % DURABLE_EVERY == 0 {
            db.commit_durable().unwrap();
            ack(batch);
        } else {
            db.commit().unwrap();
        }
    }
}

/// The batch a child resumes at: the recovered rows are whole batches.
fn first_batch(db: &Database) -> i64 {
    let rows = db.query("select count(*) from log").unwrap().scalar_i64();
    rows.unwrap() / BATCH
}

/// Append batch `batch` and stamp the first row of every earlier one.
fn write_batch(db: &mut Database, batch: i64) {
    let tid = db.table_id("log").expect("seeded table");
    for j in 0..BATCH {
        let seq = batch * BATCH + j;
        db.insert(
            tid,
            vec![
                Value::Int(seq),
                Value::Int(batch),
                Value::Str(format!("payload-{seq:08}")),
            ],
        )
        .unwrap();
    }
    // Small changes to old pages: what a commit logs as deltas.
    for earlier in 0..batch {
        let params = [Value::Str(stamp(batch)), Value::Int(earlier * BATCH)];
        let done = db.execute_with("update log set pad = ? where seq = ?", &params);
        assert_eq!(done.unwrap().affected, 1);
    }
}

/// A durable commit covering `batch` returned, so the parent may hold
/// the child to it. Flush — abort() drops buffered stdout.
fn ack(batch: i64) {
    println!("ACK {batch}");
    std::io::stdout().flush().unwrap();
}

/// What batch `batch` writes over the first row of each earlier batch
/// (as wide as the `payload-…` it replaces: the row stays in place).
fn stamp(batch: i64) -> String {
    format!("stamped-{batch:08}")
}

fn run_child(child: &str, path: &PathBuf, crash_syncs: u64) -> i64 {
    let exe = std::env::current_exe().expect("test binary path");
    let out = Command::new(exe)
        .args([child, "--exact", "--ignored", "--nocapture"])
        .env("MINIREL_CRASH_DB", path)
        .env("MINIREL_CRASH_SYNCS", crash_syncs.to_string())
        .output()
        .expect("spawn child");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let mut last_ack = -1i64;
    for line in stdout.lines() {
        if let Some(rest) = line.strip_prefix("ACK ") {
            if let Ok(b) = rest.trim().parse::<i64>() {
                last_ack = last_ack.max(b);
            }
        }
    }
    last_ack
}

#[test]
fn crash_matrix_recovers() {
    // Sync ordinal 1 hits the child's own open/rotation; ordinal n the
    // commit of the child's (n - 1)th batch.
    sweep("matrix", "child_crash_writer", 12);
}

#[test]
fn crash_matrix_recovers_group_commits() {
    // Per run: the open, then per ten batches the quota's background
    // sync and the forced one — five syncs, and a sixth ordinal that
    // lets a run finish.
    sweep("group", "child_group_writer", 6);
}

/// Run `child` once per crash ordinal `1..=ordinals` against one store,
/// and after each kill reopen it and check it holds whole batches only,
/// every acknowledged one among them.
fn sweep(tag: &str, child: &str, ordinals: u64) {
    let path = temp_db_path(tag);
    cleanup(&path);
    // Seed without crash injection so the WAL exists before any child
    // can die mid-rotation.
    {
        let mut db = Database::open_with(&path, 32, DEFAULT_GROUP_COMMIT).unwrap();
        db.execute("create table log (seq int, batch int, pad text)")
            .unwrap();
        db.execute("create index log_seq on log (seq)").unwrap();
        db.commit_durable().unwrap();
    }
    let mut total_acked = -1i64;
    for crash_syncs in 1..=ordinals {
        let last_ack = run_child(child, &path, crash_syncs);
        total_acked = total_acked.max(last_ack);

        // Reopen twice: recovery must be idempotent.
        let mut counts = Vec::new();
        for _ in 0..2 {
            let db = Database::open_with(&path, 32, DEFAULT_GROUP_COMMIT)
                .unwrap_or_else(|e| panic!("reopen after crash_syncs={crash_syncs} failed: {e}"));
            db.check_integrity().unwrap();
            let n = db
                .query("select count(*) from log")
                .unwrap()
                .scalar_i64()
                .unwrap();
            counts.push(n);

            // Whole batches only: a commit covers a full batch, so no
            // recovered state may expose a partial one.
            assert_eq!(
                n % BATCH,
                0,
                "crash_syncs={crash_syncs}: {n} rows is a torn batch"
            );
            // No acknowledged commit may be lost.
            assert!(
                n >= (total_acked + 1) * BATCH,
                "crash_syncs={crash_syncs}: acked batch {total_acked} lost ({n} rows)"
            );
            if n > 0 {
                // Heap and index agree: the highest row is reachable
                // through the B+tree probe path too.
                let max_seq = db
                    .query("select max(seq) from log")
                    .unwrap()
                    .scalar_i64()
                    .unwrap();
                assert_eq!(max_seq, n - 1, "crash_syncs={crash_syncs}: seq gap");
                let probed = db
                    .query(&format!("select count(*) from log where seq = {max_seq}"))
                    .unwrap()
                    .scalar_i64()
                    .unwrap();
                assert_eq!(probed, 1, "crash_syncs={crash_syncs}: index missing row");
                // A commit's deltas land with its images or not at
                // all: the first row of every batch before the last
                // recovered one carries that batch's stamp, the last
                // one's is untouched.
                let last = n / BATCH - 1;
                let firsts = db
                    .query("select batch, pad from log where seq = batch * 25 order by batch")
                    .unwrap();
                let want: Vec<Vec<Value>> = (0..=last)
                    .map(|b| {
                        let pad = if b < last {
                            stamp(last)
                        } else {
                            format!("payload-{:08}", b * BATCH)
                        };
                        vec![Value::Int(b), Value::Str(pad)]
                    })
                    .collect();
                assert_eq!(firsts.rows, want, "crash_syncs={crash_syncs}: torn stamps");
            }
        }
        assert_eq!(
            counts[0], counts[1],
            "crash_syncs={crash_syncs}: recovery not idempotent"
        );
    }
    assert!(
        total_acked >= 0,
        "no child ever acknowledged a batch — crash points all landed before the first commit"
    );
    cleanup(&path);
}

/// The in-process flavor of the same bar: a replica spawned from a
/// durable leader keeps serving the committed prefix even while the
/// leader keeps writing, and never reads a torn batch.
#[test]
fn replica_serves_committed_prefix_under_writes() {
    let mut leader = Database::in_memory_durable(64, 1);
    leader
        .execute("create table log (seq int, batch int)")
        .unwrap();
    let tid = leader.table_id("log").unwrap();
    let replica = minirel::Replica::spawn(&mut leader).unwrap();
    for batch in 0..20i64 {
        for j in 0..BATCH {
            leader
                .insert(tid, vec![Value::Int(batch * BATCH + j), Value::Int(batch)])
                .unwrap();
        }
        let lsn = leader.commit().unwrap();
        assert!(replica.wait_for_lsn(lsn, Duration::from_secs(10)));
        let n = replica
            .query("select count(*) from log")
            .unwrap()
            .scalar_i64()
            .unwrap();
        assert_eq!(n % BATCH, 0, "replica saw a torn batch: {n}");
        assert!(n >= (batch + 1) * BATCH);
    }
}

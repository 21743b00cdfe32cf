//! Multi-threaded stress tests for the reader-parallel storage layer.
//!
//! The contract under test (see `buffer.rs` / `db.rs` docs): `&self`
//! methods are safe from many threads at once — the lock-striped buffer
//! pool serializes frame access per shard and counts I/O atomically —
//! while `&mut self` mutations are exclusive. Readers here hammer
//! B+tree probes, heap scans, and full SQL SELECTs in parallel with a
//! writer that forces leaf and root splits, and assert that nothing is
//! ever torn and no counter increment is lost.

use minirel::btree::BTree;
use minirel::buffer::{BufferPool, EvictionPolicy};
use minirel::disk::DiskManager;
use minirel::value::{encode_composite_key, Value};
use minirel::{Database, Rid};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, RwLock};

fn key_i(i: i64) -> Vec<u8> {
    encode_composite_key(&[Value::Int(i)])
}

fn rid(i: u32) -> Rid {
    Rid {
        page: i,
        slot: (i % 7) as u16,
    }
}

/// Many reader threads sharing one pool and one B+tree — no outer lock
/// at all, exercising the `&self` read paths across shards — must all
/// see every entry, and the atomic I/O counters must account for every
/// logical read exactly.
#[test]
fn parallel_btree_readers_see_consistent_tree() {
    let pool = Arc::new(BufferPool::new(
        DiskManager::in_memory(),
        64,
        EvictionPolicy::Lru,
    ));
    let mut bt = BTree::create(&pool).unwrap();
    let n: i64 = 20_000; // multi-level tree: forces internal nodes
    for i in 0..n {
        bt.insert(&pool, &key_i(i), rid(i as u32)).unwrap();
    }
    bt.validate(&pool).unwrap();
    let bt = Arc::new(bt);

    pool.reset_stats();
    let before = pool.stats();
    let threads = 8;
    let probes_per_thread: i64 = 2_000;
    std::thread::scope(|s| {
        for t in 0..threads {
            let bt = Arc::clone(&bt);
            let pool = Arc::clone(&pool);
            s.spawn(move || {
                for j in 0..probes_per_thread {
                    let i = (j * 7919 + t * 13) % n;
                    let hits = bt.lookup(&pool, &key_i(i)).unwrap();
                    assert_eq!(hits, vec![rid(i as u32)], "torn read for key {i}");
                }
            });
        }
    });
    let delta = pool.stats().since(&before);
    assert!(
        delta.logical_reads >= (threads * probes_per_thread) as u64,
        "counters lost increments: {} logical reads for {} probes",
        delta.logical_reads,
        threads * probes_per_thread
    );
    // Reads never dirty pages: physical writes must not move at all.
    assert_eq!(delta.physical_writes, 0, "a reader wrote to disk");
}

/// Readers running `Database::query` under a shared `RwLock` read lock
/// while a writer inserts batches (forcing B+tree splits) under the
/// write lock: the crawler's exact sharing pattern. Every observed
/// count must be one the writer actually committed — never a torn
/// in-between — and must be monotone per reader.
#[test]
fn sql_readers_run_against_live_inserts() {
    let db = Arc::new(RwLock::new(Database::in_memory_with_frames(128)));
    {
        let mut g = db.write().unwrap();
        g.execute("create table t (a int, b text, c float)")
            .unwrap();
        g.execute("create index t_a on t (a)").unwrap();
    }
    const BATCH: i64 = 100;
    const BATCHES: i64 = 60;
    const READERS: usize = 4;
    let done = Arc::new(AtomicBool::new(false));
    let checked_in = Arc::new(AtomicUsize::new(0));

    let writer = {
        let db = Arc::clone(&db);
        let done = Arc::clone(&done);
        let checked_in = Arc::clone(&checked_in);
        std::thread::spawn(move || {
            for b in 0..BATCHES {
                // Every reader gets a query in before the last batch, so
                // a fast writer cannot finish before a reader starts.
                while b == BATCHES - 1 && checked_in.load(Ordering::Acquire) < READERS {
                    std::thread::yield_now();
                }
                let mut g = db.write().unwrap();
                let tid = g.table_id("t").unwrap();
                let rows = (0..BATCH)
                    .map(|i| {
                        let v = b * BATCH + i;
                        vec![
                            Value::Int(v),
                            Value::Str(format!("row-{v}-{}", "x".repeat((v % 23) as usize))),
                            Value::Float(v as f64 / 7.0),
                        ]
                    })
                    .collect();
                g.insert_many(tid, rows).unwrap();
            }
            done.store(true, Ordering::Release);
        })
    };

    let mut readers = Vec::new();
    for r in 0..READERS {
        let db = Arc::clone(&db);
        let done = Arc::clone(&done);
        let mut check_in = CheckIn(Some(Arc::clone(&checked_in)));
        readers.push(std::thread::spawn(move || {
            let mut last = 0i64;
            let mut observations = 0u64;
            while !done.load(Ordering::Acquire) {
                let g = db.read().unwrap();
                let rs = g.query("select count(*) from t").unwrap();
                let n = rs.scalar_i64().unwrap();
                drop(g);
                assert!(
                    n % BATCH == 0,
                    "reader {r} saw a torn batch: {n} rows (not a multiple of {BATCH})"
                );
                assert!(
                    n >= last,
                    "reader {r} saw count go backwards: {last} -> {n}"
                );
                last = n;
                observations += 1;
                check_in.once();
                // A scan query too: decodes every row, so a torn page
                // or a half-maintained index would explode here.
                let rs = g_scan(&db, r);
                assert!(rs % BATCH == 0, "reader {r} torn scan: {rs}");
            }
            observations
        }));
    }

    writer.join().unwrap();
    for h in readers {
        let obs = h.join().unwrap();
        assert!(obs > 0, "reader never got a single query in");
    }
    let g = db.read().unwrap();
    assert_eq!(
        g.query("select count(*) from t").unwrap().scalar_i64(),
        Some(BATCH * BATCHES)
    );
    // Index agrees with the heap after all the concurrent churn.
    let rs = g
        .query("select count(*) from t where a >= 0")
        .unwrap()
        .scalar_i64();
    assert_eq!(rs, Some(BATCH * BATCHES));
}

/// Counts a reader in with the writer once: at its first observation, or
/// when it ends without one (a failed assertion unwinds through the
/// drop), so the writer never waits on a reader that is gone.
struct CheckIn(Option<Arc<AtomicUsize>>);

impl CheckIn {
    fn once(&mut self) {
        if let Some(n) = self.0.take() {
            n.fetch_add(1, Ordering::Release);
        }
    }
}

impl Drop for CheckIn {
    fn drop(&mut self) {
        self.once();
    }
}

/// A row-decoding scan under the read lock (helper for the stress test:
/// exercises string columns, not just the count aggregate).
fn g_scan(db: &Arc<RwLock<Database>>, seed: usize) -> i64 {
    let g = db.read().unwrap();
    let rs = g
        .query(&format!(
            "select count(*) from t where a >= {}",
            (seed * 997) % 50
        ))
        .unwrap();
    let base = g
        .query(&format!(
            "select count(*) from t where a < {}",
            (seed * 997) % 50
        ))
        .unwrap();
    rs.scalar_i64().unwrap() + base.scalar_i64().unwrap()
}

/// The atomic I/O counters must not lose increments under parallel SQL:
/// the same scan done N times serially and N times from 4 threads must
/// land the exact same logical-read total.
#[test]
fn io_stats_are_exact_under_parallel_queries() {
    let mut db = Database::in_memory_with_frames(256);
    db.execute("create table t (a int, b text)").unwrap();
    let tid = db.table_id("t").unwrap();
    let rows = (0..4000i64)
        .map(|i| vec![Value::Int(i), Value::Str(format!("r{i}"))])
        .collect();
    db.insert_many(tid, rows).unwrap();
    let db = Arc::new(db);

    let reads_of = |db: &Database, n: usize| {
        db.reset_io_stats();
        for _ in 0..n {
            db.query("select count(*) from t").unwrap();
        }
        db.io_stats().logical_reads
    };
    let serial = reads_of(&db, 12);

    db.reset_io_stats();
    std::thread::scope(|s| {
        for _ in 0..4 {
            let db = Arc::clone(&db);
            s.spawn(move || {
                for _ in 0..3 {
                    db.query("select count(*) from t").unwrap();
                }
            });
        }
    });
    assert_eq!(
        db.io_stats().logical_reads,
        serial,
        "12 parallel scans must cost exactly what 12 serial scans cost"
    );
}

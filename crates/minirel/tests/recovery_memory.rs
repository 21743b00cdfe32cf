//! Recovery's memory is bounded by a chunk, a commit group and the page
//! index, not by the log.
//!
//! A counting global allocator tracks live and peak heap bytes; the one
//! test writes a file-backed log of several read chunks — first images,
//! deltas, re-images and many commits — then measures the peak of
//! `Database::open_with` over the heap it started with. This file holds
//! exactly one test so no concurrent test in the same binary can
//! allocate under the counter.

use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};

use minirel::{Database, Value};

struct CountingAlloc;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grew(layout.size());
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        grew(new_size);
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        grew(layout.size());
        unsafe { System.alloc_zeroed(layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

const LOG_BYTES: u64 = 16 << 20;

#[test]
fn open_with_holds_a_fraction_of_the_log() {
    let path = std::env::temp_dir().join(format!("minirel-recmem-{}.db", std::process::id()));
    let wal_path = minirel::wal_path_for(&path);
    let cleanup = || {
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(&wal_path);
    };
    cleanup();
    // Rounds of appended rows (first images) and updates of earlier ones
    // (deltas, and a re-image whenever a chain fills), a commit each.
    let mut model: BTreeMap<i64, (i64, String)> = BTreeMap::new();
    let mut db = Database::open_with(&path, 16, 8).unwrap();
    db.execute("create table t (k int, v int, pad text)")
        .unwrap();
    db.execute("create index t_k on t (k)").unwrap();
    let tid = db.table_id("t").unwrap();
    let mut round = 0i64;
    while db.wal().unwrap().len_bytes() < LOG_BYTES {
        for j in 0..40 {
            let k = round * 40 + j;
            let pad = format!("pad-{k:0>90}");
            db.insert(
                tid,
                vec![Value::Int(k), Value::Int(0), Value::Str(pad.clone())],
            )
            .unwrap();
            model.insert(k, (0, pad));
        }
        for j in 0..20 {
            let k = (round * 977 + j * 131) % (round * 40 + 40);
            let params = [Value::Int(round), Value::Int(k)];
            db.execute_with("update t set v = ? where k = ?", &params)
                .unwrap();
            model.get_mut(&k).unwrap().0 = round;
        }
        db.commit().unwrap();
        round += 1;
    }
    db.commit_durable().unwrap();
    let stats = db.wal().unwrap().stats();
    assert!(
        stats.images > 1000 && stats.deltas > stats.images,
        "{stats:?}"
    );
    drop(db);
    let log_bytes = std::fs::metadata(&wal_path).unwrap().len() as usize;
    assert!(
        log_bytes >= LOG_BYTES as usize,
        "a log of {log_bytes} bytes"
    );

    let start = LIVE.load(Ordering::SeqCst);
    PEAK.store(start, Ordering::SeqCst);
    let db = Database::open_with(&path, 16, 8).unwrap();
    let peak = PEAK.load(Ordering::SeqCst) - start;
    println!(
        "open_with over a {:.1} MB log ({round} commits): peak heap {:.2} MB above its start",
        log_bytes as f64 / 1e6,
        peak as f64 / 1e6
    );
    assert!(
        peak < log_bytes / 4,
        "recovery's peak heap of {peak} bytes is not under a quarter of the {log_bytes}-byte log"
    );

    db.check_integrity().unwrap();
    let rs = db.query("select k, v, pad from t order by k").unwrap();
    let got: Vec<(i64, i64, String)> = rs
        .rows
        .iter()
        .map(|r| match (&r[0], &r[1], &r[2]) {
            (Value::Int(k), Value::Int(v), Value::Str(p)) => (*k, *v, p.clone()),
            other => panic!("row {other:?}"),
        })
        .collect();
    let want: Vec<(i64, i64, String)> = model.into_iter().map(|(k, (v, p))| (k, v, p)).collect();
    assert!(
        got == want,
        "the reopened table differs from what was written"
    );
    drop(db);
    cleanup();
}

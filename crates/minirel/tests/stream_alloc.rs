//! A SELECT allocates per group, not per row.
//!
//! Every access path decodes into one reused row and pushes it to its
//! consumer, and a group-by evaluates each row's key into one reused
//! buffer, so the allocations of running a statement do not grow with
//! the rows it reads. This file holds exactly one test so no concurrent
//! test in the same binary can allocate under the counter.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use minirel::{Database, Value};

struct CountingAlloc;

static ALLOCS: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// `t(a, b, c)` of `n` rows `(i % 2, i % 4, i)`, indexed on `(a, b)`.
fn table(n: i64) -> Database {
    let mut db = Database::in_memory();
    db.execute("create table t (a int, b int, c float)")
        .unwrap();
    db.execute("create index t_ab on t (a, b)").unwrap();
    let tid = db.table_id("t").unwrap();
    let rows = (0..n).map(|i| vec![Value::Int(i % 2), Value::Int(i % 4), Value::Float(i as f64)]);
    db.insert_many(tid, rows.collect()).unwrap();
    db
}

/// Allocations of one run of `sql`, after a first run has cached its plan.
fn allocs(db: &mut Database, sql: &str) -> usize {
    db.execute(sql).unwrap();
    let before = ALLOCS.load(Ordering::SeqCst);
    let rs = db.execute(sql).unwrap();
    let after = ALLOCS.load(Ordering::SeqCst);
    drop(rs);
    after - before
}

#[test]
fn a_select_allocates_per_group_not_per_row() {
    let (mut small, mut large) = (table(1_000), table(8_000));
    for sql in [
        // A heap scan into a group-by.
        "select b, count(*), avg(c) from t group by b",
        // An index-only scan into a group-by.
        "select b, count(*) from t where a = 0 group by b",
        // A filtered heap scan into a global aggregate.
        "select count(*) from t where c >= 0",
    ] {
        let (at_1k, at_8k) = (allocs(&mut small, sql), allocs(&mut large, sql));
        println!("{sql}: {at_1k} allocations at 1,000 rows, {at_8k} at 8,000");
        assert_eq!(at_1k, at_8k, "{sql}: allocations grow with the rows read");
    }
    // The answers, so the counts are of statements that ran.
    let rs = large
        .execute("select b, count(*) from t where a = 0 group by b")
        .unwrap();
    assert_eq!(
        rs.rows,
        vec![
            vec![Value::Int(0), Value::Int(2_000)],
            vec![Value::Int(2), Value::Int(2_000)],
        ]
    );
}

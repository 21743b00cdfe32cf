//! A claim and a landing allocate what their callers keep, not per row.
//!
//! The frontier's write paths and the `LINK` insert decode rows into,
//! and stage keys and records in, buffers the catalog keeps. Once a
//! batch as large has run, a batch allocates the same count whatever
//! its size, apart from what its caller keeps: a `Claim`'s URL. The
//! tables are sized so that no batch here splits a B+tree node or grows
//! a heap file (both allocate, and both are rare on a crawl's path).
//! This file holds exactly one test so no concurrent test in the same
//! binary can allocate under the counter.

use std::alloc::{GlobalAlloc, Layout, System};
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};

use focus_crawler::frontier::{self, FailureUpdate, FrontierEntry};
use focus_crawler::tables::{create_tables, link_row_into};
use focus_types::Oid;
use minirel::Database;

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

/// Allocations made while `f` runs, and what it returned.
fn allocs<R>(f: impl FnOnce() -> R) -> (usize, R) {
    let before = ALLOCS.load(Ordering::SeqCst);
    let out = f();
    (ALLOCS.load(Ordering::SeqCst) - before, out)
}

/// Batch sizes: the warm-up runs the larger, then each is measured.
const SMALL: u64 = 4;
const LARGE: u64 = 16;

/// Fresh frontier entries for `oids`, each with a URL of its own.
fn entries(oids: Range<u64>) -> Vec<FrontierEntry> {
    let entry = |oid| FrontierEntry {
        oid: Oid(oid),
        url: format!("u{oid}"),
        log_relevance: -(oid as f64) / 100.0,
        serverload: 0,
    };
    oids.map(entry).collect()
}

fn failures(oids: Range<u64>) -> Vec<FailureUpdate> {
    let failure = |oid| FailureUpdate {
        oid: Oid(oid),
        retriable: true,
        not_before: 0,
    };
    oids.map(failure).collect()
}

#[test]
fn a_claim_and_a_landing_allocate_what_their_callers_keep() {
    let mut db = Database::in_memory();
    create_tables(&mut db).unwrap();
    // Three oid ranges: one warm-up batch, then the two measured.
    let ranges = [100..100 + LARGE, 200..200 + SMALL, 300..300 + LARGE];
    let [warm, small, large] = ranges.clone();

    // An upsert of fresh entries.
    frontier::upsert_batch(&mut db, &entries(warm.clone())).unwrap();
    let (small_items, large_items) = (entries(small.clone()), entries(large.clone()));
    let (at_small, done) = allocs(|| frontier::upsert_batch(&mut db, &small_items).unwrap());
    assert_eq!(done.created, SMALL as usize);
    let (at_large, done) = allocs(|| frontier::upsert_batch(&mut db, &large_items).unwrap());
    assert_eq!(done.created, LARGE as usize);
    println!(
        "upsert_batch: {at_small} allocations at {SMALL} fresh entries, {at_large} at {LARGE}"
    );
    assert_eq!(at_small, at_large, "upsert_batch allocates per entry");

    // A claim, less the one URL each `Claim` keeps.
    let claim = |db: &mut Database, n: u64| {
        let (count, out) = allocs(|| frontier::claim_batch_where(db, n as usize, 0, |_| true));
        assert_eq!(out.unwrap().claims.len(), n as usize);
        count - n as usize
    };
    claim(&mut db, LARGE);
    let (at_small, at_large) = (claim(&mut db, SMALL), claim(&mut db, LARGE));
    println!("claim_batch_where: {at_small} allocations at {SMALL} claims, {at_large} at {LARGE}");
    assert_eq!(at_small, at_large, "claim_batch_where allocates per claim");

    // `mark_done` of every claimed page, one page a call.
    let mark_done = |db: &mut Database, oid: u64| {
        let url = format!("u{oid}");
        allocs(|| frontier::mark_done(db, Oid(oid), &url, -0.5, 1, 7).unwrap()).0
    };
    for oid in warm.clone() {
        mark_done(&mut db, oid);
    }
    let per_page: Vec<usize> = (small.clone().chain(large.clone()))
        .map(|oid| mark_done(&mut db, oid))
        .collect();
    println!("mark_done: {per_page:?} allocations");
    assert!(per_page.windows(2).all(|w| w[0] == w[1]), "{per_page:?}");

    // A failure batch (its dispositions are the caller's).
    frontier::mark_failed_batch(&mut db, &failures(warm.clone()), 3).unwrap();
    let (small_items, large_items) = (failures(small.clone()), failures(large.clone()));
    let (at_small, _) = allocs(|| frontier::mark_failed_batch(&mut db, &small_items, 3).unwrap());
    let (at_large, _) = allocs(|| frontier::mark_failed_batch(&mut db, &large_items, 3).unwrap());
    println!(
        "mark_failed_batch: {at_small} allocations at {SMALL} failures, {at_large} at {LARGE}"
    );
    assert_eq!(
        at_small, at_large,
        "mark_failed_batch allocates per failure"
    );

    // `LINK` rows: handed over, and refilled in place.
    let link = db.table_id("link").unwrap();
    let rows = |oids: Range<u64>| -> Vec<_> {
        let row = |oid| {
            let mut row = Vec::new();
            link_row_into(&mut row, Oid(1), 7, Oid(oid), 9, 3);
            row
        };
        oids.map(row).collect()
    };
    db.insert_many(link, rows(warm.clone())).unwrap();
    let (small_rows, large_rows) = (rows(small.clone()), rows(large.clone()));
    let (at_small, ()) = allocs(|| db.insert_many(link, small_rows).unwrap());
    let (at_large, ()) = allocs(|| db.insert_many(link, large_rows).unwrap());
    println!("LINK insert_many: {at_small} allocations at {SMALL} rows, {at_large} at {LARGE}");
    assert_eq!(at_small, at_large, "insert_many allocates per row");
    let mut kept = rows(0..LARGE);
    let (at_large, ()) = allocs(|| db.insert_rows(link, &mut kept).unwrap());
    let (at_small, ()) = allocs(|| db.insert_rows(link, &mut kept[..SMALL as usize]).unwrap());
    println!("LINK insert_rows: {at_small} allocations at {SMALL} rows, {at_large} at {LARGE}");
    assert_eq!((at_small, at_large), (0, 0), "insert_rows allocates");

    // The counts are of batches that landed.
    db.check_integrity().unwrap();
    let batches = LARGE + SMALL + LARGE;
    assert_eq!(db.table_len("crawl").unwrap(), batches);
    assert_eq!(db.table_len("link").unwrap(), batches + LARGE + SMALL);
}

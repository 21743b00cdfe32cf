//! The checker under debug assertions: inversions and holds across a
//! blocking point panic with both sites, the shared-mode exception
//! admits reentrant reads, and the held table is per-thread. Compiled
//! away (empty test binary) in release, where the wrappers are
//! passthroughs.
#![cfg(debug_assertions)]

use lockcheck::rank::{self, Rank};
use lockcheck::{blocking, held_ranks, BlockingPoint, OrderedCondvar, OrderedMutex, OrderedRwLock};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

const LOW: Rank = Rank::new(10, "test.low");
const HIGH: Rank = Rank::new(20, "test.high");

#[test]
fn ascending_acquisition_is_clean() {
    let low = OrderedMutex::new(LOW, 1u32);
    let high = OrderedMutex::new(HIGH, 2u32);
    let l = low.lock();
    let h = high.lock();
    assert_eq!(*l + *h, 3);
    assert_eq!(held_ranks(), vec![10, 20]);
    drop(l); // out-of-declaration-order drop retires by token, not pop
    assert_eq!(held_ranks(), vec![20]);
    drop(h);
    assert!(held_ranks().is_empty());
}

#[test]
fn inversion_panics_with_both_sites() {
    let low = OrderedMutex::new(LOW, ());
    let high = OrderedMutex::new(HIGH, ());
    let err = catch_unwind(AssertUnwindSafe(|| {
        let _h = high.lock();
        let _l = low.lock();
    }))
    .expect_err("descending acquisition must panic");
    let msg = err
        .downcast_ref::<String>()
        .expect("panic carries a message");
    assert!(msg.contains("lock order violation"), "{msg}");
    assert!(
        msg.contains("test.low") && msg.contains("test.high"),
        "names both locks: {msg}"
    );
    assert!(
        msg.matches("runtime_checker.rs").count() == 2,
        "cites both acquisition sites: {msg}"
    );
    // The table is clean after unwinding — guards dropped during it.
    assert!(held_ranks().is_empty());
}

#[test]
fn same_rank_exclusive_panics() {
    // Two sibling locks of one rank model the buffer pool's shards:
    // one-shard-at-a-time is the rule the tie check enforces.
    let a = OrderedMutex::new(rank::BUFFER_SHARD, ());
    let b = OrderedMutex::new(rank::BUFFER_SHARD, ());
    let err = catch_unwind(AssertUnwindSafe(|| {
        let _ga = a.lock();
        let _gb = b.lock();
    }))
    .expect_err("same-rank exclusive must panic");
    let msg = err.downcast_ref::<String>().expect("message");
    assert!(msg.contains("minirel.buffer_shard"), "{msg}");
}

#[test]
fn reentrant_reads_are_allowed() {
    let lock = OrderedRwLock::new(LOW, 7u32);
    let r1 = lock.read();
    let r2 = lock.read();
    assert_eq!(*r1 + *r2, 14);
    assert_eq!(held_ranks(), vec![10, 10]);
    drop((r1, r2));
}

#[test]
fn write_after_read_same_rank_panics() {
    let a = OrderedRwLock::new(LOW, ());
    let b = OrderedRwLock::new(LOW, ());
    let err = catch_unwind(AssertUnwindSafe(|| {
        let _r = a.read();
        let _w = b.write();
    }))
    .expect_err("a writer may not join a same-rank read");
    assert!(err
        .downcast_ref::<String>()
        .expect("message")
        .contains("lock order violation"));
}

#[test]
fn try_lock_is_rank_checked_too() {
    let low = OrderedMutex::new(LOW, ());
    let high = OrderedMutex::new(HIGH, ());
    let err = catch_unwind(AssertUnwindSafe(|| {
        let _h = high.lock();
        let _ = low.try_lock();
    }))
    .expect_err("try_lock out of order is a latent deadlock");
    assert!(err
        .downcast_ref::<String>()
        .expect("message")
        .contains("lock order violation"));
}

#[test]
fn try_write_is_rank_checked_too() {
    let low = OrderedRwLock::new(LOW, 3u32);
    let high = OrderedMutex::new(HIGH, ());
    let err = catch_unwind(AssertUnwindSafe(|| {
        let _h = high.lock();
        let _ = low.try_write();
    }))
    .expect_err("try_write out of order is a latent deadlock");
    assert!(err
        .downcast_ref::<String>()
        .expect("message")
        .contains("lock order violation"));
    // In order it is a plain try: refused (and its rank retired) while
    // another thread reads, granted as an exclusive hold after.
    let (held_tx, held_rx) = std::sync::mpsc::channel();
    let (release_tx, release_rx) = std::sync::mpsc::channel::<()>();
    std::thread::scope(|s| {
        let low = &low;
        s.spawn(move || {
            let _r = low.read();
            held_tx.send(()).expect("main thread waits");
            let _ = release_rx.recv();
        });
        held_rx.recv().expect("reader holds the lock");
        assert!(low.try_write().is_none());
        assert!(held_ranks().is_empty());
        drop(release_tx);
    });
    let mut w = low.try_write().expect("uncontended");
    *w += 1;
    assert_eq!(held_ranks(), vec![10]);
    drop(w);
    assert_eq!(*low.read(), 4);
}

#[test]
fn held_table_is_per_thread() {
    // This thread parks on HIGH; a spawned thread may still start its
    // own chain at LOW — ranks constrain an acquisition *path*, and
    // paths are per-thread.
    let high = OrderedMutex::new(HIGH, ());
    let _g = high.lock();
    std::thread::spawn(|| {
        let low = OrderedMutex::new(LOW, 5u32);
        assert!(held_ranks().is_empty());
        assert_eq!(*low.lock(), 5);
    })
    .join()
    .expect("spawned thread is unconstrained by this thread's holds");
    assert_eq!(held_ranks(), vec![20]);
}

#[test]
fn condvar_wait_keeps_the_rank_held() {
    struct Shared {
        slot: OrderedMutex<Option<u32>>,
        ready: OrderedCondvar,
    }
    let shared = Arc::new(Shared {
        slot: OrderedMutex::new(LOW, None),
        ready: OrderedCondvar::new(),
    });
    let waiter = {
        let shared = Arc::clone(&shared);
        std::thread::spawn(move || {
            let mut g = shared.slot.lock();
            while g.is_none() {
                g = shared.ready.wait(g);
            }
            // Reacquired after the wait: rank still (again) held.
            assert_eq!(held_ranks(), vec![10]);
            g.take().expect("value set by notifier")
        })
    };
    *shared.slot.lock() = Some(42);
    shared.ready.notify_one();
    assert_eq!(waiter.join().expect("waiter"), 42);
}

/// A blocking point that allows `HIGH` and nothing else.
const SYNC_UNDER_HIGH: BlockingPoint = BlockingPoint {
    name: "test.sync",
    allow: &[HIGH],
};

#[test]
fn blocking_point_outside_allow_list_panics_with_both_sites() {
    let low = OrderedMutex::new(LOW, ());
    let err = catch_unwind(AssertUnwindSafe(|| {
        let _l = low.lock();
        blocking(&SYNC_UNDER_HIGH);
    }))
    .expect_err("holding a rank the point does not allow must panic");
    let msg = err.downcast_ref::<String>().expect("message");
    assert!(msg.contains("blocking point violation"), "{msg}");
    assert!(
        msg.contains("`test.sync`") && msg.contains("`test.low`"),
        "names the point and the held lock: {msg}"
    );
    assert!(
        msg.matches("runtime_checker.rs").count() == 2,
        "cites the blocking call and the acquisition: {msg}"
    );
    assert!(held_ranks().is_empty());
}

#[test]
fn blocking_point_inside_allow_list_is_clean() {
    let high = OrderedMutex::new(HIGH, ());
    let _h = high.lock();
    blocking(&SYNC_UNDER_HIGH);
    // Nothing held is fine for any point, and checking retires nothing.
    assert_eq!(held_ranks(), vec![20]);
    std::thread::spawn(|| blocking(&rank::FETCH))
        .join()
        .expect("an empty table passes every point");
    assert_eq!(held_ranks(), vec![20]);
}

#[test]
fn wait_timeout_returns_guard_and_flag() {
    let slot = OrderedMutex::new(LOW, 0u32);
    let cv = OrderedCondvar::new();
    let g = slot.lock();
    let (g, res) = cv.wait_timeout(g, std::time::Duration::from_millis(1));
    assert!(res.timed_out());
    assert_eq!(*g, 0);
    assert_eq!(held_ranks(), vec![10]);
}

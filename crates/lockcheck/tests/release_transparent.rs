//! Release-build zero-cost claim, checked where it applies: without
//! debug assertions the wrappers carry no rank field and add no size
//! over the raw `std::sync` primitives, and blocking points are empty
//! calls. (`cargo test --release`; the
//! CI `release-dbg` profile keeps debug assertions on and so skips
//! this file by design.)
#![cfg(not(debug_assertions))]

use lockcheck::{OrderedMutex, OrderedRwLock};
use std::mem::size_of;

#[test]
fn wrappers_add_no_size_in_release() {
    assert_eq!(
        size_of::<OrderedMutex<u64>>(),
        size_of::<std::sync::Mutex<u64>>()
    );
    assert_eq!(
        size_of::<OrderedRwLock<u64>>(),
        size_of::<std::sync::RwLock<u64>>()
    );
    assert_eq!(
        size_of::<OrderedMutex<Vec<u8>>>(),
        size_of::<std::sync::Mutex<Vec<u8>>>()
    );
}

#[test]
fn held_token_is_zero_sized_and_table_is_inert() {
    let m = OrderedMutex::new(lockcheck::rank::WAL, 9u32);
    let g = m.lock();
    // Release builds track nothing: no thread-local table is populated.
    assert!(lockcheck::held_ranks().is_empty());
    assert_eq!(*g, 9);
}

#[test]
fn blocking_points_check_nothing_in_release() {
    let m = OrderedMutex::new(lockcheck::rank::STORE, ());
    let _g = m.lock();
    // A debug build would panic here: `FETCH` allows no lock held.
    lockcheck::blocking(&lockcheck::rank::FETCH);
}

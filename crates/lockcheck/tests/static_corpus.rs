//! The seeded-violation corpus (`tests/fixtures/`), executed: each
//! fixture is a compiled module over the stub [`Fetcher`] and [`Graph`]
//! below, whose `fetch` and `distill` are the registry's blocking
//! points. Every planted defect must panic the runtime checker naming
//! the right locks and sites, and its "drop the guard first" twin and
//! the `clean` control must run clean. Debug builds only, like the
//! checker itself. The raw lock in `unwrapped`, which the checker cannot
//! see, is the paste-back of the workspace's raw-lock rule in
//! `tests/guardrails.rs`, with `clean` as its control.
#![cfg(debug_assertions)]

use lockcheck::held_ranks;
use lockcheck::rank::{self, Rank};
use std::panic::{catch_unwind, AssertUnwindSafe};

#[path = "fixtures/clean.rs"]
mod clean;
#[path = "fixtures/held_across_distill.rs"]
mod held_across_distill;
#[path = "fixtures/held_across_fetch.rs"]
mod held_across_fetch;
#[path = "fixtures/inversion.rs"]
mod inversion;
#[path = "fixtures/transitive.rs"]
mod transitive;
#[path = "fixtures/try_write_inversion.rs"]
mod try_write_inversion;

/// The fixtures' two-rank lattice.
const LOW: Rank = Rank::new(10, "fix.low");
const HIGH: Rank = Rank::new(20, "fix.high");

/// Stub fetcher: a fetch is the registry's `FETCH` blocking point.
pub struct Fetcher;

impl Fetcher {
    #[track_caller]
    pub fn fetch(&self, _page: u32) {
        lockcheck::blocking(&rank::FETCH);
    }
}

/// Stub link graph: its snapshot's kernel is the `DISTILL_PASS` point.
pub struct Graph;

pub struct Snapshot;

impl Graph {
    pub fn snapshot(&self) -> Snapshot {
        Snapshot
    }
}

impl Snapshot {
    #[track_caller]
    pub fn distill(&self, _iterations: u32) {
        lockcheck::blocking(&rank::DISTILL_PASS);
    }
}

/// The message `f` panics with; it must panic, and leave no rank held.
fn panic_of(f: impl FnOnce()) -> String {
    let err = catch_unwind(AssertUnwindSafe(f)).expect_err("the planted defect must panic");
    assert!(held_ranks().is_empty(), "guards retire while unwinding");
    err.downcast_ref::<String>()
        .expect("panic carries a message")
        .clone()
}

#[test]
fn seeded_inversion_is_flagged() {
    let msg = panic_of(|| {
        inversion::Pair::new().backwards();
    });
    assert!(msg.contains("lock order violation"), "{msg}");
    assert!(
        msg.contains("`fix.low`") && msg.contains("`fix.high`"),
        "inversion names both locks: {msg}"
    );
    assert!(
        msg.contains("fixtures/inversion.rs:16") && msg.contains("fixtures/inversion.rs:15"),
        "cites both acquisition sites: {msg}"
    );
}

#[test]
fn try_write_inversion_is_flagged_once() {
    let pair = try_write_inversion::Pair::new();
    let msg = panic_of(|| {
        pair.backwards_when_it_can();
    });
    assert!(
        msg.contains("`fix.low`") && msg.contains("`fix.high`"),
        "inversion names both locks: {msg}"
    );
    assert!(
        msg.contains("fixtures/try_write_inversion.rs:19"),
        "flagged at the `low.lock()` under the try_write guard: {msg}"
    );
    // Each `try_write` guard dies with its block, so taking `low` after
    // both is clean.
    assert_eq!(pair.one_after_the_other(), 3 + 3 + 1);
    assert!(held_ranks().is_empty());
}

#[test]
fn guard_held_across_fetch_is_flagged() {
    let crawler = held_across_fetch::Crawler::new();
    let msg = panic_of(|| crawler.fetch_under_lock());
    assert!(
        msg.contains("blocking point violation: `fetch`"),
        "names the rule: {msg}"
    );
    assert!(msg.contains("`fix.low`"), "names the held lock: {msg}");
    assert!(
        msg.contains("fixtures/held_across_fetch.rs:16")
            && msg.contains("fixtures/held_across_fetch.rs:15"),
        "cites the fetch and the acquisition: {msg}"
    );
    crawler.fetch_after_unlock();
}

#[test]
fn guard_held_across_distill_pass_is_flagged() {
    let session = held_across_distill::Session::new();
    let msg = panic_of(|| session.distill_under_lock());
    assert!(
        msg.contains("`distill-pass`") && msg.contains("`fix.low`"),
        "names the rule and the held lock: {msg}"
    );
    assert!(
        msg.contains("fixtures/held_across_distill.rs:17"),
        "flagged at the kernel call: {msg}"
    );
    // Dropping the guard first is the shape the crawler uses.
    session.distill_on_a_snapshot();
}

#[test]
fn transitive_inversion_through_call_edge_is_flagged() {
    let msg = panic_of(|| transitive::Deep::new().outer());
    assert!(
        msg.contains("`fix.low`") && msg.contains("`fix.high`"),
        "holding high across a call that locks low is an inversion: {msg}"
    );
    assert!(
        msg.contains("fixtures/transitive.rs:22") && msg.contains("fixtures/transitive.rs:16"),
        "cites the callee's acquisition and the caller's: {msg}"
    );
}

#[test]
fn clean_fixture_has_no_findings() {
    let fine = clean::Fine::new();
    assert_eq!(fine.forwards(), 3);
    fine.fetch_unlocked();
    assert!(held_ranks().is_empty());
}

//! Lock-order lattice enforcement for the workspace (ISSUE 10).
//!
//! Two halves, one lattice:
//!
//! - **Runtime** ([`ordered`]): [`OrderedMutex`] / [`OrderedRwLock`] /
//!   [`OrderedCondvar`] wrap the `std::sync` primitives with a
//!   [`rank::Rank`]. Debug builds keep a per-thread table of held ranks
//!   and panic — showing both acquisition sites — the moment any code
//!   path acquires out of order. Release builds are `#[repr(transparent)]`
//!   zero-cost passthroughs.
//! - **Static** ([`analyze`] + [`manifest`] + [`lexer`]): `cargo run -p
//!   lockcheck` lexes every workspace source file, tracks acquisitions
//!   per function body, propagates held-lock sets across intra-crate
//!   call edges, and diffs the observed acquisition graph against the
//!   lattice declared in `LOCK_ORDER.toml` — reporting inversions,
//!   undeclared locks, and guards held across declared-blocking calls
//!   (`Fetcher::fetch`, fsync).
//!
//! The rank table lives in [`rank`] and nowhere else: `LOCK_ORDER.toml`
//! binds source acquisitions to lock *names*, and the static half looks
//! each name's rank up in the table.

pub mod analyze;
pub mod lexer;
pub mod manifest;
pub mod ordered;
pub mod rank;

pub use ordered::{
    held_ranks, OrderedCondvar, OrderedMutex, OrderedMutexGuard, OrderedRwLock,
    OrderedRwLockReadGuard, OrderedRwLockWriteGuard,
};
pub use rank::Rank;

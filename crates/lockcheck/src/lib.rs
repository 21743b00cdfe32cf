//! Lock-order lattice enforcement for the workspace: one registry, one
//! checker.
//!
//! - **Registry** ([`rank`]): every lock's [`rank::Rank`] and every
//!   blocking call's [`rank::BlockingPoint`] (a name plus the ranks a
//!   thread may hold across it), written down once, as data.
//! - **Checker** ([`ordered`]): [`OrderedMutex`] / [`OrderedRwLock`] /
//!   [`OrderedCondvar`] wrap the `std::sync` primitives with a rank.
//!   Debug builds keep a per-thread table of held ranks and panic —
//!   showing both sites — the moment any code path acquires out of
//!   order, or reaches a [`blocking`] point holding a rank outside its
//!   allow list. Release builds are `#[repr(transparent)]` zero-cost
//!   passthroughs, and [`blocking`] compiles to nothing.
//!
//! The checker sees the paths that run. A path no test executes is
//! checked by nobody; the workspace's stress and crash suites are what
//! walk the lattice (see the README's lock-order section).

pub mod ordered;
pub mod rank;

pub use ordered::{
    blocking, held_ranks, OrderedCondvar, OrderedMutex, OrderedMutexGuard, OrderedRwLock,
    OrderedRwLockReadGuard, OrderedRwLockWriteGuard,
};
pub use rank::{BlockingPoint, Rank};

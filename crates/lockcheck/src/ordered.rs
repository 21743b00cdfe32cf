//! Rank-ordered lock wrappers over `std::sync`, and blocking points.
//!
//! Debug builds keep a per-thread table of held ranks: every acquisition
//! checks that its rank is strictly above everything already held (with a
//! shared-mode exception for reentrant reads) and panics with *both*
//! acquisition sites on an inversion; every [`blocking`] call checks the
//! table against the point's allow list the same way. Release builds
//! compile to plain `std::sync` locks: the rank is not stored, the held
//! token is zero-sized and dropless, the lock structs are
//! `#[repr(transparent)]` over their `std::sync` counterparts, and
//! [`blocking`] is empty.
//!
//! Acquisition cannot fail: a lock poisoned by a thread that panicked
//! while holding it is recovered, not propagated. The crawler handles
//! worker panics explicitly (a failed run is reported, its session
//! stays usable), so every update under these locks leaves the data
//! valid at each step.

use crate::rank::{BlockingPoint, Rank};
use std::fmt;
use std::ops::{Deref, DerefMut};
use std::sync::{self, LockResult, PoisonError, TryLockError};

/// The guard (or value) behind a lock result, poisoned or not.
fn recover<G>(result: LockResult<G>) -> G {
    result.unwrap_or_else(PoisonError::into_inner)
}

#[cfg(debug_assertions)]
mod held {
    use super::{BlockingPoint, Rank};
    use std::cell::{Cell, RefCell};
    use std::panic::Location;

    /// How an acquisition holds its lock; shared acquisitions of the same
    /// rank may stack (reentrant reads), exclusive ones may not.
    #[derive(Clone, Copy, PartialEq, Eq, Debug)]
    pub(super) enum Mode {
        Exclusive,
        Shared,
    }

    struct Held {
        id: u64,
        rank: Rank,
        mode: Mode,
        site: &'static Location<'static>,
    }

    thread_local! {
        // A Vec, not a strict stack: guards may drop out of declaration
        // order, so retirement is by token id rather than pop.
        static HELD: RefCell<Vec<Held>> = const { RefCell::new(Vec::new()) };
        static NEXT_ID: Cell<u64> = const { Cell::new(0) };
    }

    /// Debug-build receipt for one acquisition; dropping it retires the
    /// rank from the per-thread table.
    pub struct HeldToken {
        id: u64,
    }

    impl Drop for HeldToken {
        fn drop(&mut self) {
            HELD.with(|h| {
                let mut h = h.borrow_mut();
                if let Some(pos) = h.iter().position(|e| e.id == self.id) {
                    h.remove(pos);
                }
            });
        }
    }

    pub(super) fn acquire(rank: Rank, mode: Mode, site: &'static Location<'static>) -> HeldToken {
        HELD.with(|h| {
            let mut h = h.borrow_mut();
            for e in h.iter() {
                let ok = e.rank.value < rank.value
                    || (e.rank.value == rank.value
                        && mode == Mode::Shared
                        && e.mode == Mode::Shared);
                if !ok {
                    panic!(
                        "lock order violation: acquiring `{}` (rank {}) at {} while holding \
                         `{}` (rank {}) acquired at {}; ranks must strictly ascend \
                         (see crates/lockcheck/src/rank.rs)",
                        rank.name, rank.value, site, e.rank.name, e.rank.value, e.site,
                    );
                }
            }
            let id = NEXT_ID.with(|n| {
                let id = n.get();
                n.set(id + 1);
                id
            });
            h.push(Held {
                id,
                rank,
                mode,
                site,
            });
            HeldToken { id }
        })
    }

    pub(super) fn blocking(point: &BlockingPoint, site: &'static Location<'static>) {
        HELD.with(|h| {
            if let Some(e) = h.borrow().iter().find(|e| !point.allow.contains(&e.rank)) {
                panic!(
                    "blocking point violation: `{}` at {} while holding `{}` (rank {}) \
                     acquired at {}; its allow list in crates/lockcheck/src/rank.rs \
                     does not include that rank",
                    point.name, site, e.rank.name, e.rank.value, e.site,
                );
            }
        })
    }

    /// Rank values currently held by this thread, in acquisition order.
    /// Debug-only introspection for tests; release builds return empty.
    pub fn held_ranks() -> Vec<u16> {
        HELD.with(|h| h.borrow().iter().map(|e| e.rank.value).collect())
    }
}

#[cfg(not(debug_assertions))]
mod held {
    /// Zero-sized, dropless stand-in: release builds do not track ranks.
    pub struct HeldToken;

    /// Release builds track nothing; always empty.
    pub fn held_ranks() -> Vec<u16> {
        Vec::new()
    }
}

pub use held::{held_ranks, HeldToken};

#[cfg(debug_assertions)]
#[track_caller]
fn acquire(rank: Rank, exclusive: bool) -> HeldToken {
    let mode = if exclusive {
        held::Mode::Exclusive
    } else {
        held::Mode::Shared
    };
    held::acquire(rank, mode, std::panic::Location::caller())
}

#[cfg(not(debug_assertions))]
#[inline(always)]
fn acquire(_rank: Rank, _exclusive: bool) -> HeldToken {
    HeldToken
}

/// Announce a blocking call at `point`: debug builds panic — citing this
/// call site and the held lock's acquisition site — if the thread holds
/// any rank outside `point.allow`. Release builds compile it to nothing.
#[cfg(debug_assertions)]
#[track_caller]
pub fn blocking(point: &BlockingPoint) {
    held::blocking(point, std::panic::Location::caller());
}

/// Release builds track nothing, so there is nothing to check.
#[cfg(not(debug_assertions))]
#[inline(always)]
pub fn blocking(_point: &BlockingPoint) {}

/// A [`std::sync::Mutex`] that carries a [`Rank`] and participates in
/// the debug-build order check. `#[repr(transparent)]` in release.
#[cfg_attr(not(debug_assertions), repr(transparent))]
pub struct OrderedMutex<T: ?Sized> {
    #[cfg(debug_assertions)]
    rank: Rank,
    inner: sync::Mutex<T>,
}

impl<T> OrderedMutex<T> {
    /// Create an unlocked mutex holding `value` at `rank`.
    pub const fn new(rank: Rank, value: T) -> OrderedMutex<T> {
        #[cfg(not(debug_assertions))]
        let _ = rank;
        OrderedMutex {
            #[cfg(debug_assertions)]
            rank,
            inner: sync::Mutex::new(value),
        }
    }

    /// Consume the mutex, returning the inner value.
    pub fn into_inner(self) -> T {
        recover(self.inner.into_inner())
    }
}

impl<T: ?Sized> OrderedMutex<T> {
    #[cfg(debug_assertions)]
    fn rank(&self) -> Rank {
        self.rank
    }

    #[cfg(not(debug_assertions))]
    fn rank(&self) -> Rank {
        Rank::new(0, "")
    }

    /// Acquire the lock, panicking in debug builds if any held lock has a
    /// rank at or above this one.
    #[track_caller]
    #[inline]
    pub fn lock(&self) -> OrderedMutexGuard<'_, T> {
        let token = acquire(self.rank(), true);
        OrderedMutexGuard {
            inner: recover(self.inner.lock()),
            _token: token,
        }
    }

    /// Try to acquire without blocking. The order check still applies:
    /// `try_lock` out of rank order is a latent deadlock once someone
    /// converts it to `lock`, so debug builds reject it the same way.
    #[track_caller]
    #[inline]
    pub fn try_lock(&self) -> Option<OrderedMutexGuard<'_, T>> {
        let token = acquire(self.rank(), true);
        let inner = match self.inner.try_lock() {
            Ok(guard) => guard,
            Err(TryLockError::Poisoned(poisoned)) => poisoned.into_inner(),
            Err(TryLockError::WouldBlock) => return None,
        };
        Some(OrderedMutexGuard {
            inner,
            _token: token,
        })
    }

    /// Mutable access without locking (requires exclusive borrow); no
    /// rank check because nothing is acquired.
    pub fn get_mut(&mut self) -> &mut T {
        recover(self.inner.get_mut())
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for OrderedMutex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.inner.fmt(f)
    }
}

/// RAII guard for [`OrderedMutex`]; retires its rank on drop.
pub struct OrderedMutexGuard<'a, T: ?Sized> {
    // Declaration order is drop order: release the lock first, then
    // retire the rank from the per-thread table.
    inner: sync::MutexGuard<'a, T>,
    _token: HeldToken,
}

impl<T: ?Sized> Deref for OrderedMutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T: ?Sized> DerefMut for OrderedMutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

/// A [`std::sync::RwLock`] that carries a [`Rank`] and participates in
/// the debug-build order check. Same-rank read-read re-acquisition is
/// allowed (reentrant reads); anything involving a writer is not.
#[cfg_attr(not(debug_assertions), repr(transparent))]
pub struct OrderedRwLock<T: ?Sized> {
    #[cfg(debug_assertions)]
    rank: Rank,
    inner: sync::RwLock<T>,
}

impl<T> OrderedRwLock<T> {
    /// Create an unlocked rwlock holding `value` at `rank`.
    pub const fn new(rank: Rank, value: T) -> OrderedRwLock<T> {
        #[cfg(not(debug_assertions))]
        let _ = rank;
        OrderedRwLock {
            #[cfg(debug_assertions)]
            rank,
            inner: sync::RwLock::new(value),
        }
    }

    /// Consume the lock, returning the inner value.
    pub fn into_inner(self) -> T {
        recover(self.inner.into_inner())
    }
}

impl<T: ?Sized> OrderedRwLock<T> {
    #[cfg(debug_assertions)]
    fn rank(&self) -> Rank {
        self.rank
    }

    #[cfg(not(debug_assertions))]
    fn rank(&self) -> Rank {
        Rank::new(0, "")
    }

    /// Acquire shared read access; counts as a shared hold of the rank.
    #[track_caller]
    #[inline]
    pub fn read(&self) -> OrderedRwLockReadGuard<'_, T> {
        let token = acquire(self.rank(), false);
        OrderedRwLockReadGuard {
            inner: recover(self.inner.read()),
            _token: token,
        }
    }

    /// Acquire exclusive write access; counts as an exclusive hold.
    #[track_caller]
    #[inline]
    pub fn write(&self) -> OrderedRwLockWriteGuard<'_, T> {
        let token = acquire(self.rank(), true);
        OrderedRwLockWriteGuard {
            inner: recover(self.inner.write()),
            _token: token,
        }
    }

    /// Try for exclusive write access without blocking; `None` while
    /// any reader or writer holds the lock. Rank-checked like
    /// [`OrderedMutex::try_lock`], for the same reason.
    #[track_caller]
    #[inline]
    pub fn try_write(&self) -> Option<OrderedRwLockWriteGuard<'_, T>> {
        let token = acquire(self.rank(), true);
        let inner = match self.inner.try_write() {
            Ok(guard) => guard,
            Err(TryLockError::Poisoned(poisoned)) => poisoned.into_inner(),
            Err(TryLockError::WouldBlock) => return None,
        };
        Some(OrderedRwLockWriteGuard {
            inner,
            _token: token,
        })
    }

    /// Mutable access without locking (requires exclusive borrow).
    pub fn get_mut(&mut self) -> &mut T {
        recover(self.inner.get_mut())
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for OrderedRwLock<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.inner.fmt(f)
    }
}

/// Shared-read guard for [`OrderedRwLock`].
pub struct OrderedRwLockReadGuard<'a, T: ?Sized> {
    inner: sync::RwLockReadGuard<'a, T>,
    _token: HeldToken,
}

impl<T: ?Sized> Deref for OrderedRwLockReadGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

/// Exclusive-write guard for [`OrderedRwLock`].
pub struct OrderedRwLockWriteGuard<'a, T: ?Sized> {
    inner: sync::RwLockWriteGuard<'a, T>,
    _token: HeldToken,
}

impl<T: ?Sized> Deref for OrderedRwLockWriteGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T: ?Sized> DerefMut for OrderedRwLockWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

/// A condition variable paired with [`OrderedMutex`]: it consumes and
/// returns the `std::sync::MutexGuard` inside the ordered guard. The
/// rank token is kept across the wait: the waiting thread runs no code
/// while parked, so its held table staying populated is harmless, and
/// the lock is reacquired before `wait` returns so the table is
/// accurate again on wake.
#[derive(Default)]
pub struct OrderedCondvar(sync::Condvar);

impl OrderedCondvar {
    /// Create a condition variable.
    pub const fn new() -> OrderedCondvar {
        OrderedCondvar(sync::Condvar::new())
    }

    /// Wake one waiter.
    pub fn notify_one(&self) {
        self.0.notify_one();
    }

    /// Wake all waiters.
    pub fn notify_all(&self) {
        self.0.notify_all();
    }

    /// Atomically release `guard` and park until notified; never poisons.
    pub fn wait<'a, T>(&self, guard: OrderedMutexGuard<'a, T>) -> OrderedMutexGuard<'a, T> {
        let OrderedMutexGuard { inner, _token } = guard;
        let inner = recover(self.0.wait(inner));
        OrderedMutexGuard { inner, _token }
    }

    /// Like [`wait`](Self::wait) with a timeout; the flag reports whether
    /// the wait timed out.
    pub fn wait_timeout<'a, T>(
        &self,
        guard: OrderedMutexGuard<'a, T>,
        timeout: std::time::Duration,
    ) -> (OrderedMutexGuard<'a, T>, sync::WaitTimeoutResult) {
        let OrderedMutexGuard { inner, _token } = guard;
        let (inner, timed_out) = recover(self.0.wait_timeout(inner, timeout));
        (OrderedMutexGuard { inner, _token }, timed_out)
    }
}

impl fmt::Debug for OrderedCondvar {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("OrderedCondvar")
    }
}

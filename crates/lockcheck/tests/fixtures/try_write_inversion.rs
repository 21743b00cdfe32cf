//! Seeded violation: `high` (rank 20) is taken with `try_write()` and
//! `low` (rank 10) under it. A `try_*` that descends is a latent
//! deadlock once someone converts it, so the checker must panic on that
//! `low.lock()` line — and only there: a guard bound by `if let` (or
//! held by a `match` scrutinee) dies with its block, so taking `low`
//! after one is clean.

use super::{HIGH, LOW};
use lockcheck::{OrderedMutex, OrderedRwLock};

pub struct Pair {
    low: OrderedMutex<u32>,
    high: OrderedRwLock<u32>,
}

impl Pair {
    pub fn backwards_when_it_can(&self) -> u32 {
        if let Some(h) = self.high.try_write() {
            let l = self.low.lock();
            return *h + *l;
        }
        0
    }

    pub fn one_after_the_other(&self) -> u32 {
        let mut sum = 0;
        if let Some(mut h) = self.high.try_write() {
            *h += 1;
            sum += *h;
        }
        match self.high.try_write() {
            Some(h) => sum += *h,
            None => sum += 1,
        }
        sum + *self.low.lock()
    }

    pub fn new() -> Pair {
        Pair {
            low: OrderedMutex::new(LOW, 1),
            high: OrderedRwLock::new(HIGH, 2),
        }
    }
}

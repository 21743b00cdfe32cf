//! Seeded violation: `high` (rank 20) is taken with `try_write()` and
//! `low` (rank 10) under it. A `try_*` that descends is a latent
//! deadlock once someone converts it, so the static pass must report an
//! inversion on that `low.lock()` line — and only there: a guard bound
//! by `if let` (or held by a `match` scrutinee) dies with its block, so
//! taking `low` after one is clean.

pub struct Pair {
    low: lockcheck::OrderedMutex<u32>,
    high: lockcheck::OrderedRwLock<u32>,
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
}

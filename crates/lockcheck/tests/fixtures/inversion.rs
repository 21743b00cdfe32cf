//! Seeded violation: `high` (rank 20) is acquired before `low` (rank
//! 10), so the second acquisition descends. The checker must panic on
//! the `low.lock()` line, citing the `high.lock()` line too.

use super::{HIGH, LOW};
use lockcheck::OrderedMutex;

pub struct Pair {
    low: OrderedMutex<u32>,
    high: OrderedMutex<u32>,
}

impl Pair {
    pub fn backwards(&self) -> u32 {
        let h = self.high.lock();
        let l = self.low.lock();
        *h + *l
    }

    pub fn new() -> Pair {
        Pair {
            low: OrderedMutex::new(LOW, 1),
            high: OrderedMutex::new(HIGH, 2),
        }
    }
}

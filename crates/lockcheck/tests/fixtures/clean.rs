//! Control fixture: acquisitions ascend (`low` rank 10, then `high`
//! rank 20), the fetch happens with no guard live, and every lock is a
//! ranked wrapper. The checker must stay silent and the raw-lock scan
//! must find nothing.

use super::{Fetcher, HIGH, LOW};
use lockcheck::OrderedMutex;

pub struct Fine {
    low: OrderedMutex<u32>,
    high: OrderedMutex<u32>,
    fetcher: Fetcher,
}

impl Fine {
    pub fn new() -> Fine {
        Fine {
            low: OrderedMutex::new(LOW, 1),
            high: OrderedMutex::new(HIGH, 2),
            fetcher: Fetcher,
        }
    }

    pub fn forwards(&self) -> u32 {
        let l = self.low.lock();
        let h = self.high.lock();
        *l + *h
    }

    pub fn fetch_unlocked(&self) {
        let n = { *self.low.lock() };
        self.fetcher.fetch(n);
    }
}

//! Seeded violation: the `low` guard is still live when the blocking
//! `fetcher.fetch` call runs. The checker must panic at the fetch, and
//! must not once the guard is dropped first.

use super::{Fetcher, LOW};
use lockcheck::OrderedMutex;

pub struct Crawler {
    low: OrderedMutex<u32>,
    fetcher: Fetcher,
}

impl Crawler {
    pub fn fetch_under_lock(&self) {
        let g = self.low.lock();
        self.fetcher.fetch(*g);
    }

    pub fn fetch_after_unlock(&self) {
        let n = *self.low.lock();
        self.fetcher.fetch(n);
    }

    pub fn new() -> Crawler {
        Crawler {
            low: OrderedMutex::new(LOW, 7),
            fetcher: Fetcher,
        }
    }
}

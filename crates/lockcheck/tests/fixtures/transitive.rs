//! Seeded violation, one call deep: `outer` holds `high` (rank 20)
//! while calling `helper`, which acquires `low` (rank 10). The edge only
//! exists across the call — the checker sees it because the held table
//! is per thread, not per function.

use super::{HIGH, LOW};
use lockcheck::OrderedMutex;

pub struct Deep {
    low: OrderedMutex<u32>,
    high: OrderedMutex<u32>,
}

impl Deep {
    pub fn outer(&self) {
        let g = self.high.lock();
        self.helper();
        drop(g);
    }

    fn helper(&self) {
        let _g = self.low.lock();
    }

    pub fn new() -> Deep {
        Deep {
            low: OrderedMutex::new(LOW, 1),
            high: OrderedMutex::new(HIGH, 2),
        }
    }
}

//! Seeded violation: the snapshot is cut under the `low` guard — fine —
//! but the guard is still live when the pass iterates on it. The
//! checker must panic at the kernel call, and must not once the guard
//! is dropped first.

use super::{Graph, LOW};
use lockcheck::OrderedMutex;

pub struct Session {
    low: OrderedMutex<Graph>,
}

impl Session {
    pub fn distill_under_lock(&self) {
        let g = self.low.lock();
        let snapshot = g.snapshot();
        snapshot.distill(10);
    }

    pub fn distill_on_a_snapshot(&self) {
        let g = self.low.lock();
        let snapshot = g.snapshot();
        drop(g);
        snapshot.distill(10);
    }

    pub fn new() -> Session {
        Session {
            low: OrderedMutex::new(LOW, Graph),
        }
    }
}

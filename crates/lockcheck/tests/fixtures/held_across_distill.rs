//! Seeded violation: the snapshot is cut under the `low` guard — fine —
//! but the guard is still live when the pass iterates on it. The static
//! pass must report held-across-blocking, and must not once the guard
//! is dropped first.

pub struct Session {
    low: lockcheck::OrderedMutex<Graph>,
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
}

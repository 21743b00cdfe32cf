//! Seeded violation: a raw `std::sync::Mutex` bypasses the rank
//! wrappers entirely, so the runtime checker never sees it. The
//! raw-lock scan in `tests/guardrails.rs` must report it — both the
//! import and the field.

use std::sync::Mutex;

pub struct Naked {
    naked: Mutex<Vec<u8>>,
}

impl Naked {
    pub fn push(&self, b: u8) {
        self.naked.lock().unwrap().push(b);
    }
}

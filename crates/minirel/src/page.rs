//! Fixed-size pages and the slotted-page layout.
//!
//! Every on-disk structure (heap files, B+trees, external-sort runs) is
//! built from 4 KB pages — the same unit DB2's buffer pool manages — so
//! that buffer-pool frame counts and physical I/O counters are comparable
//! with the paper's Figure 8(b).
//!
//! Slotted layout:
//!
//! ```text
//! +-------------+-------------+---------+----------------------+
//! | n_slots u16 | free_end u16| slots.. |  ...gap...  records  |
//! +-------------+-------------+---------+----------------------+
//! ```
//!
//! Slots grow forward from the 4-byte header, record bodies grow backward
//! from the end of the page. A slot is `(offset u16, len u16)`; a deleted
//! slot has `offset == 0` and may be reused by later inserts.

use crate::error::{DbError, DbResult};

/// Page size in bytes (DB2 default page size of the era).
pub const PAGE_SIZE: usize = 4096;

/// Page identifier within one paged file.
pub type PageId = u32;

/// Sentinel "no page".
pub const INVALID_PAGE: PageId = u32::MAX;

const HEADER: usize = 4;
const SLOT: usize = 4;

/// Read-only view over a slotted page.
pub struct SlottedRef<'a>(pub &'a [u8]);

/// Mutable view over a slotted page.
pub struct SlottedMut<'a>(pub &'a mut [u8]);

#[inline]
pub(crate) fn get_u16(b: &[u8], off: usize) -> u16 {
    u16::from_le_bytes([b[off], b[off + 1]])
}

#[inline]
pub(crate) fn put_u16(b: &mut [u8], off: usize, v: u16) {
    b[off..off + 2].copy_from_slice(&v.to_le_bytes());
}

impl<'a> SlottedRef<'a> {
    /// Number of slots ever allocated on this page (including deleted).
    pub fn slot_count(&self) -> u16 {
        get_u16(self.0, 0)
    }

    /// Record bytes for `slot`, or `None` if the slot is deleted/out of range.
    pub fn record(&self, slot: u16) -> Option<&'a [u8]> {
        if slot >= self.slot_count() {
            return None;
        }
        let base = HEADER + slot as usize * SLOT;
        let off = get_u16(self.0, base) as usize;
        let len = get_u16(self.0, base + 2) as usize;
        if off == 0 {
            return None;
        }
        Some(&self.0[off..off + len])
    }

    /// Iterate `(slot, record)` over live records.
    pub fn records(&self) -> impl Iterator<Item = (u16, &'a [u8])> + '_ {
        let n = self.slot_count();
        (0..n).filter_map(move |s| self.record(s).map(|r| (s, r)))
    }

    /// Contiguous free bytes available for one more record (incl. its slot).
    pub fn free_space(&self) -> usize {
        let n = self.slot_count() as usize;
        let free_end = get_u16(self.0, 2) as usize;
        let slots_end = HEADER + n * SLOT;
        free_end.saturating_sub(slots_end)
    }
}

impl<'a> SlottedMut<'a> {
    /// Initialize an empty slotted page.
    pub fn init(&mut self) {
        put_u16(self.0, 0, 0);
        put_u16(self.0, 2, PAGE_SIZE as u16);
    }

    fn as_ref(&self) -> SlottedRef<'_> {
        SlottedRef(self.0)
    }

    /// Insert a record; returns its slot. Fails when the page is full.
    pub fn insert(&mut self, rec: &[u8]) -> DbResult<u16> {
        if rec.len() + HEADER + SLOT > PAGE_SIZE {
            return Err(DbError::RecordTooLarge(rec.len()));
        }
        let n = get_u16(self.0, 0);
        // Reuse a deleted slot when possible (keeps slot ids dense-ish).
        let mut slot = n;
        for s in 0..n {
            if get_u16(self.0, HEADER + s as usize * SLOT) == 0 {
                slot = s;
                break;
            }
        }
        let new_slot = slot == n;
        let needed = rec.len() + if new_slot { SLOT } else { 0 };
        if self.as_ref().free_space() < needed {
            return Err(DbError::Page("page full".into()));
        }
        let free_end = get_u16(self.0, 2) as usize;
        let off = free_end - rec.len();
        self.0[off..free_end].copy_from_slice(rec);
        put_u16(self.0, 2, off as u16);
        let base = HEADER + slot as usize * SLOT;
        put_u16(self.0, base, off as u16);
        put_u16(self.0, base + 2, rec.len() as u16);
        if new_slot {
            put_u16(self.0, 0, n + 1);
        }
        Ok(slot)
    }

    /// Delete the record in `slot` (tombstones the slot; space within the
    /// body region is not compacted — heap files trade space for simplicity,
    /// matching the era's storage managers between reorgs).
    pub fn delete(&mut self, slot: u16) -> DbResult<()> {
        let n = get_u16(self.0, 0);
        if slot >= n {
            return Err(DbError::Page(format!("slot {slot} out of range")));
        }
        let base = HEADER + slot as usize * SLOT;
        if get_u16(self.0, base) == 0 {
            return Err(DbError::Page(format!("slot {slot} already deleted")));
        }
        put_u16(self.0, base, 0);
        put_u16(self.0, base + 2, 0);
        Ok(())
    }

    /// Overwrite `slot` in place when the new record is no longer than the
    /// old one; returns `false` when it does not fit (caller relocates).
    pub fn update_in_place(&mut self, slot: u16, rec: &[u8]) -> DbResult<bool> {
        let n = get_u16(self.0, 0);
        if slot >= n {
            return Err(DbError::Page(format!("slot {slot} out of range")));
        }
        let base = HEADER + slot as usize * SLOT;
        let off = get_u16(self.0, base) as usize;
        let len = get_u16(self.0, base + 2) as usize;
        if off == 0 {
            return Err(DbError::Page(format!("slot {slot} deleted")));
        }
        if rec.len() > len {
            return Ok(false);
        }
        self.0[off..off + rec.len()].copy_from_slice(rec);
        put_u16(self.0, base + 2, rec.len() as u16);
        Ok(true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fresh() -> Vec<u8> {
        let mut buf = vec![0u8; PAGE_SIZE];
        SlottedMut(&mut buf).init();
        buf
    }

    #[test]
    fn insert_read_delete_cycle() {
        let mut buf = fresh();
        let s0 = SlottedMut(&mut buf).insert(b"hello").unwrap();
        let s1 = SlottedMut(&mut buf).insert(b"world!").unwrap();
        assert_ne!(s0, s1);
        assert_eq!(SlottedRef(&buf).record(s0).unwrap(), b"hello");
        assert_eq!(SlottedRef(&buf).record(s1).unwrap(), b"world!");
        SlottedMut(&mut buf).delete(s0).unwrap();
        assert!(SlottedRef(&buf).record(s0).is_none());
        assert_eq!(SlottedRef(&buf).records().count(), 1);
        // Deleted slot is reused.
        let s2 = SlottedMut(&mut buf).insert(b"xy").unwrap();
        assert_eq!(s2, s0);
    }

    #[test]
    fn fills_up_and_reports_full() {
        let mut buf = fresh();
        let rec = [7u8; 100];
        let mut inserted = 0;
        while SlottedMut(&mut buf).insert(&rec).is_ok() {
            inserted += 1;
        }
        // 4096 / (100 + 4 slot) ≈ 39
        assert!(inserted >= 35, "only {inserted} records fit");
        assert!(SlottedMut(&mut buf).insert(&rec).is_err());
        // All still readable.
        assert_eq!(SlottedRef(&buf).records().count(), inserted);
    }

    #[test]
    fn oversized_record_rejected() {
        let mut buf = fresh();
        let too_big = vec![0u8; PAGE_SIZE];
        assert!(matches!(
            SlottedMut(&mut buf).insert(&too_big),
            Err(DbError::RecordTooLarge(_))
        ));
    }

    #[test]
    fn update_in_place_only_when_fits() {
        let mut buf = fresh();
        let s = SlottedMut(&mut buf).insert(b"0123456789").unwrap();
        assert!(SlottedMut(&mut buf).update_in_place(s, b"abc").unwrap());
        assert_eq!(SlottedRef(&buf).record(s).unwrap(), b"abc");
        assert!(!SlottedMut(&mut buf)
            .update_in_place(s, b"longer than before")
            .unwrap());
        // Unchanged after failed grow.
        assert_eq!(SlottedRef(&buf).record(s).unwrap(), b"abc");
    }

    #[test]
    fn delete_errors() {
        let mut buf = fresh();
        assert!(SlottedMut(&mut buf).delete(0).is_err());
        let s = SlottedMut(&mut buf).insert(b"x").unwrap();
        SlottedMut(&mut buf).delete(s).unwrap();
        assert!(SlottedMut(&mut buf).delete(s).is_err());
    }
}

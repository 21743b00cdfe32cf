//! Heap files: unordered collections of records over slotted pages.
//!
//! Each table's base data lives in one heap file. The page directory and
//! free-space hints are kept in memory (the catalog owns them); record
//! bytes flow through the buffer pool so scans and random `get`s are
//! charged to the I/O counters.

use crate::buffer::BufferPool;
use crate::error::{DbError, DbResult};
use crate::page::{PageId, SlottedMut, SlottedRef, PAGE_SIZE};

/// Record id: physical address of a record.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Rid {
    /// Page within the database file.
    pub page: PageId,
    /// Slot within that page.
    pub slot: u16,
}

/// A heap file. Cheap to clone would be wrong — the catalog owns exactly
/// one per table.
#[derive(Debug)]
pub struct HeapFile {
    pages: Vec<PageId>,
    /// Free-byte hints per page (same order as `pages`); refreshed on write.
    free_hints: Vec<u16>,
    live_records: u64,
}

impl HeapFile {
    /// Create a heap file with one empty page.
    pub fn create(pool: &BufferPool) -> DbResult<HeapFile> {
        let pid = pool.allocate()?;
        pool.with_page_mut(pid, |b| SlottedMut(b).init())?;
        Ok(HeapFile {
            pages: vec![pid],
            free_hints: vec![PAGE_SIZE as u16 - 4],
            live_records: 0,
        })
    }

    /// Number of live records. (No `is_empty`: nothing asks.)
    #[allow(clippy::len_without_is_empty)]
    pub fn len(&self) -> u64 {
        self.live_records
    }

    /// Number of pages owned by this file.
    pub fn num_pages(&self) -> usize {
        self.pages.len()
    }

    /// The page ids backing this file, in file order (used by streaming
    /// run readers in the external sort).
    pub fn pages(&self) -> &[PageId] {
        &self.pages
    }

    /// Where `page` sits in this file's page list, if it is one of its
    /// pages. The list strictly ascends — a file only ever appends a page
    /// fresh from [`BufferPool::allocate`], whose ids only grow — so this
    /// is a binary search ([`crate::Database::check_integrity`] checks
    /// the order).
    fn page_index(&self, page: PageId) -> Option<usize> {
        self.pages.binary_search(&page).ok()
    }

    /// Snapshot of the in-memory metadata, for the WAL catalog image:
    /// (pages, free-space hints, live record count).
    pub(crate) fn snapshot_parts(&self) -> (&[PageId], &[u16], u64) {
        (&self.pages, &self.free_hints, self.live_records)
    }

    /// Rebuild from a catalog image decoded at recovery. The caller
    /// vouches that the parts came from [`HeapFile::snapshot_parts`] of
    /// a committed state (pages exist, hints match their content).
    pub(crate) fn from_parts(
        pages: Vec<PageId>,
        free_hints: Vec<u16>,
        live_records: u64,
    ) -> HeapFile {
        HeapFile {
            pages,
            free_hints,
            live_records,
        }
    }

    /// Insert a record, returning its address.
    pub fn insert(&mut self, pool: &BufferPool, rec: &[u8]) -> DbResult<Rid> {
        if rec.len() + 8 > PAGE_SIZE {
            return Err(DbError::RecordTooLarge(rec.len()));
        }
        let idx = self.place(pool, rec.len())?;
        let pid = self.pages[idx];
        let (slot, free) = pool.with_page_mut(pid, |b| {
            let slot = SlottedMut(b).insert(rec);
            let free = SlottedRef(b).free_space() as u16;
            (slot, free)
        })?;
        self.free_hints[idx] = free;
        let slot = slot?;
        self.live_records += 1;
        Ok(Rid { page: pid, slot })
    }

    /// The placement policy, the one both inserts share: the index of
    /// the page a record of `len` bytes goes to — the last page
    /// (append-mostly workloads), else the first page whose hint says it
    /// fits, else a page the file grows by.
    fn place(&mut self, pool: &BufferPool, len: usize) -> DbResult<usize> {
        let needed = (len + 4) as u16;
        let last = self.pages.len() - 1;
        if self.free_hints[last] >= needed {
            return Ok(last);
        }
        if let Some(i) = self.free_hints.iter().position(|&f| f >= needed) {
            return Ok(i);
        }
        let pid = pool.allocate()?;
        pool.with_page_mut(pid, |b| SlottedMut(b).init())?;
        self.pages.push(pid);
        self.free_hints.push(PAGE_SIZE as u16 - 4);
        Ok(self.pages.len() - 1)
    }

    /// Insert a batch of records, appending their addresses to `rids`
    /// in input order. Consecutive records landing on the same page
    /// share one page access instead of paying one per record — the
    /// heap half of the batch write path (the B+tree half is
    /// [`crate::btree::BTree::insert_many`]).
    pub fn insert_many<'r>(
        &mut self,
        pool: &BufferPool,
        recs: impl Iterator<Item = &'r [u8]> + Clone,
        rids: &mut Vec<Rid>,
    ) -> DbResult<()> {
        // Validate the whole batch before touching any page: a mid-batch
        // failure must not leave a prefix of the records inserted (the
        // caller's index maintenance runs only after all heap appends).
        if let Some(rec) = recs.clone().find(|rec| rec.len() + 8 > PAGE_SIZE) {
            return Err(DbError::RecordTooLarge(rec.len()));
        }
        let mut recs = recs.peekable();
        while let Some(&first) = recs.peek() {
            let idx = self.place(pool, first.len())?;
            let pid = self.pages[idx];
            // Pack as many of the remaining records as fit into this
            // page under a single page access.
            let before = rids.len();
            let free = pool.with_page_mut(pid, |b| {
                while let Some(rec) = recs.peek() {
                    if SlottedRef(b).free_space() < rec.len() + 4 {
                        break;
                    }
                    match SlottedMut(b).insert(rec) {
                        Ok(slot) => rids.push(Rid { page: pid, slot }),
                        Err(_) => break,
                    }
                    recs.next();
                }
                SlottedRef(b).free_space() as u16
            })?;
            self.free_hints[idx] = free;
            self.live_records += (rids.len() - before) as u64;
            if rids.len() == before {
                // Hint said it fits but the page disagreed; fall back to
                // the single-record path to surface the real error.
                rids.push(self.insert(pool, first)?);
                recs.next();
            }
        }
        Ok(())
    }

    /// Fetch the record at `rid`.
    pub fn get(&self, pool: &BufferPool, rid: Rid) -> DbResult<Vec<u8>> {
        self.own(rid)?;
        pool.with_page(rid.page, |b| {
            SlottedRef(b).record(rid.slot).map(<[u8]>::to_vec)
        })?
        .ok_or(DbError::BadRid {
            page: rid.page,
            slot: rid.slot,
        })
    }

    /// Visit many records, one page access per *run* of same-page rids.
    /// Callers that sort their rid lists (the index-scan path) therefore
    /// pay one logical read per distinct page instead of one per record.
    /// Records are visited in input order, borrowed from the page, as
    /// [`HeapFile::scan`] visits them; the first error `f` returns stops
    /// the walk and is returned.
    pub fn get_each(
        &self,
        pool: &BufferPool,
        rids: &[Rid],
        mut f: impl FnMut(Rid, &[u8]) -> DbResult<()>,
    ) -> DbResult<()> {
        for run in rids.chunk_by(|a, b| a.page == b.page) {
            self.own(run[0])?;
            pool.with_page(run[0].page, |b| {
                let s = SlottedRef(b);
                run.iter().try_for_each(|&r| {
                    let rec = s.record(r.slot).ok_or(DbError::BadRid {
                        page: r.page,
                        slot: r.slot,
                    })?;
                    f(r, rec)
                })
            })??;
        }
        Ok(())
    }

    /// Where `rid`'s page sits in this file's page list; a page of
    /// another file is a [`DbError::BadRid`].
    fn own(&self, rid: Rid) -> DbResult<usize> {
        self.page_index(rid.page).ok_or(DbError::BadRid {
            page: rid.page,
            slot: rid.slot,
        })
    }

    /// Delete the records at `rids`, sorted by page: one page access
    /// and one free-space hint update per run of same-page rids, as
    /// [`HeapFile::get_each`] reads them. The first rid that names no
    /// live record stops the deletes with [`DbError::BadRid`] or
    /// [`DbError::Page`]; those before it stay deleted.
    pub fn delete(&mut self, pool: &BufferPool, rids: &[Rid]) -> DbResult<()> {
        for run in rids.chunk_by(|a, b| a.page == b.page) {
            let idx = self.own(run[0])?;
            let mut deleted = 0;
            let (res, free) = pool.with_page_mut(run[0].page, |b| {
                let res = run.iter().try_for_each(|r| {
                    SlottedMut(b).delete(r.slot)?;
                    deleted += 1;
                    Ok::<(), DbError>(())
                });
                (res, SlottedRef(b).free_space() as u16)
            })?;
            self.free_hints[idx] = free;
            self.live_records -= deleted;
            res?;
        }
        Ok(())
    }

    /// Update in place when possible; otherwise delete + reinsert.
    /// Returns the (possibly new) rid.
    pub fn update(&mut self, pool: &BufferPool, rid: Rid, rec: &[u8]) -> DbResult<Rid> {
        self.own(rid)?;
        let fit =
            pool.with_page_mut(rid.page, |b| SlottedMut(b).update_in_place(rid.slot, rec))??;
        if fit {
            return Ok(rid);
        }
        self.delete(pool, &[rid])?;
        self.insert(pool, rec)
    }

    /// Visit every live record in file order. The callback may not touch
    /// the pool (we hold it); collect rids if you need random access after.
    /// The first error the callback returns stops the scan and is returned.
    pub fn scan(
        &self,
        pool: &BufferPool,
        mut f: impl FnMut(Rid, &[u8]) -> DbResult<()>,
    ) -> DbResult<()> {
        for &pid in &self.pages {
            pool.with_page(pid, |b| {
                SlottedRef(b)
                    .records()
                    .try_for_each(|(slot, rec)| f(Rid { page: pid, slot }, rec))
            })??;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buffer::EvictionPolicy;
    use crate::disk::DiskManager;

    fn pool() -> BufferPool {
        BufferPool::new(DiskManager::in_memory(), 8, EvictionPolicy::Lru)
    }

    #[test]
    fn insert_get_roundtrip_many_pages() {
        let bp = pool();
        let mut hf = HeapFile::create(&bp).unwrap();
        let mut rids = Vec::new();
        for i in 0..500u32 {
            let rec = format!("record-{i}-{}", "x".repeat(i as usize % 60));
            rids.push((hf.insert(&bp, rec.as_bytes()).unwrap(), rec));
        }
        assert!(hf.num_pages() > 1, "should have spilled to multiple pages");
        assert_eq!(hf.len(), 500);
        for (rid, rec) in &rids {
            assert_eq!(hf.get(&bp, *rid).unwrap(), rec.as_bytes());
        }
    }

    #[test]
    fn scan_sees_exactly_live_records() {
        let bp = pool();
        let mut hf = HeapFile::create(&bp).unwrap();
        let mut rids = Vec::new();
        for i in 0..50u32 {
            rids.push(hf.insert(&bp, &i.to_le_bytes()).unwrap());
        }
        for rid in rids.iter().step_by(2) {
            hf.delete(&bp, &[*rid]).unwrap();
        }
        let mut seen = Vec::new();
        hf.scan(&bp, |_, rec| {
            seen.push(u32::from_le_bytes(rec.try_into().unwrap()));
            Ok(())
        })
        .unwrap();
        seen.sort_unstable();
        let expect: Vec<u32> = (0..50).filter(|i| i % 2 == 1).collect();
        assert_eq!(seen, expect);
        assert_eq!(hf.len(), 25);
    }

    #[test]
    fn update_in_place_and_relocating() {
        let bp = pool();
        let mut hf = HeapFile::create(&bp).unwrap();
        let rid = hf.insert(&bp, b"0123456789").unwrap();
        // Shrinking update stays put.
        let same = hf.update(&bp, rid, b"abc").unwrap();
        assert_eq!(same, rid);
        assert_eq!(hf.get(&bp, rid).unwrap(), b"abc");
        // Fill the page so a growing update must relocate.
        let filler = vec![b'z'; 300];
        while hf.num_pages() == 1 {
            hf.insert(&bp, &filler).unwrap();
        }
        let grown = vec![b'g'; 900];
        let moved = hf.update(&bp, rid, &grown).unwrap();
        assert_eq!(hf.get(&bp, moved).unwrap(), grown);
        if moved != rid {
            assert!(hf.get(&bp, rid).is_err(), "old rid must be dead");
        }
    }

    #[test]
    fn insert_many_matches_singular_inserts_with_fewer_page_touches() {
        let bp = pool();
        let mut hf = HeapFile::create(&bp).unwrap();
        let recs: Vec<Vec<u8>> = (0..500u32)
            .map(|i| format!("record-{i}-{}", "x".repeat((i % 40) as usize)).into_bytes())
            .collect();
        let refs: Vec<&[u8]> = recs.iter().map(Vec::as_slice).collect();
        bp.reset_stats();
        let mut rids = Vec::new();
        hf.insert_many(&bp, refs.iter().copied(), &mut rids)
            .unwrap();
        let batched_reads = bp.stats().logical_reads;
        assert_eq!(rids.len(), 500);
        assert_eq!(hf.len(), 500);
        for (rec, rid) in recs.iter().zip(&rids) {
            assert_eq!(&hf.get(&bp, *rid).unwrap(), rec);
        }
        // Same workload through the singular path touches far more pages.
        let bp2 = pool();
        let mut hf2 = HeapFile::create(&bp2).unwrap();
        bp2.reset_stats();
        for rec in &refs {
            hf2.insert(&bp2, rec).unwrap();
        }
        assert!(
            batched_reads * 2 <= bp2.stats().logical_reads,
            "batched {batched_reads} vs singular {}",
            bp2.stats().logical_reads
        );
        // Oversized records still error.
        let huge = vec![0u8; PAGE_SIZE];
        assert!(matches!(
            hf.insert_many(&bp, [huge.as_slice()].into_iter(), &mut rids),
            Err(DbError::RecordTooLarge(_))
        ));
    }

    #[test]
    fn deleted_rid_is_dangling() {
        let bp = pool();
        let mut hf = HeapFile::create(&bp).unwrap();
        let rid = hf.insert(&bp, b"x").unwrap();
        hf.delete(&bp, &[rid]).unwrap();
        assert!(matches!(hf.get(&bp, rid), Err(DbError::BadRid { .. })));
        assert!(hf.delete(&bp, &[rid]).is_err());
    }

    #[test]
    fn foreign_rid_rejected() {
        let bp = pool();
        let hf = HeapFile::create(&bp).unwrap();
        let bad = Rid {
            page: 9999,
            slot: 0,
        };
        assert!(matches!(hf.get(&bp, bad), Err(DbError::BadRid { .. })));
    }

    #[test]
    fn record_too_large() {
        let bp = pool();
        let mut hf = HeapFile::create(&bp).unwrap();
        let huge = vec![0u8; PAGE_SIZE];
        assert!(matches!(
            hf.insert(&bp, &huge),
            Err(DbError::RecordTooLarge(_))
        ));
    }
}

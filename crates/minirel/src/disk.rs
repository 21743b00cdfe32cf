//! The backing store for pages: a real file or an in-memory vector.
//!
//! The buffer pool talks to this and *only* this; its physical-read /
//! physical-write counters count calls into `DiskManager`. The in-memory
//! backend exists so tests and CI are hermetic, while the file backend is
//! used by benchmarks that want OS-level I/O too. Counter behaviour is
//! identical for both.
//!
//! File-backed managers are **durable-safe**: opening an existing file
//! never truncates it (`num_pages` is recovered from the file length),
//! and every I/O error surfaces as a [`DbError::Io`] carrying the
//! operation and path, so a failed `sync` is never silently swallowed.

use crate::error::{DbError, DbResult};
use crate::page::{PageId, PAGE_SIZE};
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

enum Backend {
    Memory(Vec<Box<[u8; PAGE_SIZE]>>),
    File {
        file: File,
        path: PathBuf,
        num_pages: u32,
    },
}

/// Allocates, reads and writes fixed-size pages.
pub struct DiskManager {
    backend: Backend,
}

impl DiskManager {
    /// Pages live in process memory (hermetic tests, CI).
    pub fn in_memory() -> Self {
        DiskManager {
            backend: Backend::Memory(Vec::new()),
        }
    }

    /// Pages live in the file at `path`, **created if absent, reopened if
    /// present** — an existing file's pages survive and `num_pages` is
    /// recovered from the file length. A trailing partial page (torn
    /// final write) is cut off rather than read as garbage — or left
    /// where [`DiskManager::allocate`] would grow the file over it.
    pub fn at_path(path: &Path) -> DbResult<Self> {
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)
            .map_err(|e| DbError::io("open", path, e))?;
        let len = file
            .metadata()
            .map_err(|e| DbError::io("stat", path, e))?
            .len();
        let num_pages = (len / PAGE_SIZE as u64) as u32;
        if len % PAGE_SIZE as u64 != 0 {
            file.set_len(u64::from(num_pages) * PAGE_SIZE as u64)
                .map_err(|e| DbError::io("truncate torn tail of", path, e))?;
        }
        Ok(DiskManager {
            backend: Backend::File {
                file,
                path: path.to_owned(),
                num_pages,
            },
        })
    }

    /// Number of allocated pages.
    pub fn num_pages(&self) -> u32 {
        match &self.backend {
            Backend::Memory(v) => v.len() as u32,
            Backend::File { num_pages, .. } => *num_pages,
        }
    }

    /// Allocate a fresh zeroed page and return its id.
    pub fn allocate(&mut self) -> DbResult<PageId> {
        match &mut self.backend {
            Backend::Memory(v) => {
                v.push(Box::new([0u8; PAGE_SIZE]));
                Ok((v.len() - 1) as PageId)
            }
            Backend::File {
                file,
                path,
                num_pages,
                ..
            } => {
                // Growing a file with `set_len` reads back as zeros: no
                // page of zeros is written for a page whose first real
                // bytes arrive with a checkpoint or a replay.
                let id = *num_pages;
                file.set_len((u64::from(id) + 1) * PAGE_SIZE as u64)
                    .map_err(|e| DbError::io("extend", &path, e))?;
                *num_pages += 1;
                Ok(id)
            }
        }
    }

    /// Read page `id` into `buf`.
    pub fn read(&mut self, id: PageId, buf: &mut [u8; PAGE_SIZE]) -> DbResult<()> {
        match &mut self.backend {
            Backend::Memory(v) => {
                let page = v
                    .get(id as usize)
                    .ok_or_else(|| DbError::Page(format!("page {id} not allocated")))?;
                buf.copy_from_slice(&page[..]);
                Ok(())
            }
            Backend::File {
                file,
                path,
                num_pages,
                ..
            } => {
                if id >= *num_pages {
                    return Err(DbError::Page(format!("page {id} not allocated")));
                }
                file.seek(SeekFrom::Start(id as u64 * PAGE_SIZE as u64))
                    .map_err(|e| DbError::io("seek", &path, e))?;
                file.read_exact(buf)
                    .map_err(|e| DbError::io("read", &path, e))?;
                Ok(())
            }
        }
    }

    /// Write `buf` to page `id`.
    pub fn write(&mut self, id: PageId, buf: &[u8; PAGE_SIZE]) -> DbResult<()> {
        match &mut self.backend {
            Backend::Memory(v) => {
                let page = v
                    .get_mut(id as usize)
                    .ok_or_else(|| DbError::Page(format!("page {id} not allocated")))?;
                page.copy_from_slice(buf);
                Ok(())
            }
            Backend::File {
                file,
                path,
                num_pages,
                ..
            } => {
                if id >= *num_pages {
                    return Err(DbError::Page(format!("page {id} not allocated")));
                }
                file.seek(SeekFrom::Start(id as u64 * PAGE_SIZE as u64))
                    .map_err(|e| DbError::io("seek", &path, e))?;
                file.write_all(buf)
                    .map_err(|e| DbError::io("write", &path, e))?;
                Ok(())
            }
        }
    }

    /// Write `buf` to page `id`, zero-extending the store first if `id`
    /// lies beyond the current allocation. The WAL-replay entry point:
    /// recovery installs committed page images into a data file that may
    /// be shorter than the log's view of it (the crash beat the
    /// extension write).
    pub fn write_ensure(&mut self, id: PageId, buf: &[u8; PAGE_SIZE]) -> DbResult<()> {
        while self.num_pages() <= id {
            self.allocate()?;
        }
        self.write(id, buf)
    }

    /// Flush OS buffers to stable storage. A no-op for the memory
    /// backend; for files, a failed `fsync` surfaces as [`DbError::Io`]
    /// instead of being dropped.
    pub fn sync_all(&mut self) -> DbResult<()> {
        lockcheck::blocking(&lockcheck::rank::FSYNC_DATA);
        match &mut self.backend {
            Backend::Memory(_) => Ok(()),
            Backend::File { file, path, .. } => {
                file.sync_all().map_err(|e| DbError::io("sync", &path, e))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exercise(mut dm: DiskManager) {
        let a = dm.allocate().unwrap();
        let b = dm.allocate().unwrap();
        assert_ne!(a, b);
        assert_eq!(dm.num_pages(), 2);
        let mut wbuf = [0u8; PAGE_SIZE];
        wbuf[0] = 0xAB;
        wbuf[PAGE_SIZE - 1] = 0xCD;
        dm.write(b, &wbuf).unwrap();
        let mut rbuf = [0u8; PAGE_SIZE];
        dm.read(b, &mut rbuf).unwrap();
        assert_eq!(rbuf[0], 0xAB);
        assert_eq!(rbuf[PAGE_SIZE - 1], 0xCD);
        dm.read(a, &mut rbuf).unwrap();
        assert!(rbuf.iter().all(|&x| x == 0), "fresh page must be zeroed");
        assert!(dm.read(99, &mut rbuf).is_err());
        assert!(dm.write(99, &wbuf).is_err());
        dm.sync_all().unwrap();
    }

    #[test]
    fn memory_backend() {
        exercise(DiskManager::in_memory());
    }

    #[test]
    fn file_backend_and_cleanup() {
        let path = std::env::temp_dir().join(format!("minirel-file-{}.db", std::process::id()));
        let _ = std::fs::remove_file(&path);
        exercise(DiskManager::at_path(&path).unwrap());
        assert_eq!(
            std::fs::metadata(&path).unwrap().len(),
            2 * PAGE_SIZE as u64
        );
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn reopen_preserves_pages() {
        let dir = std::env::temp_dir();
        let path = dir.join(format!("minirel-reopen-{}.db", std::process::id()));
        let _ = std::fs::remove_file(&path);
        {
            let mut dm = DiskManager::at_path(&path).unwrap();
            assert_eq!(dm.num_pages(), 0, "fresh file starts empty");
            let p0 = dm.allocate().unwrap();
            let p1 = dm.allocate().unwrap();
            let mut buf = [0u8; PAGE_SIZE];
            buf[17] = 0x5A;
            dm.write(p0, &buf).unwrap();
            buf[17] = 0xA5;
            dm.write(p1, &buf).unwrap();
            dm.sync_all().unwrap();
        }
        {
            // Reopen: pages and their bytes must survive.
            let mut dm = DiskManager::at_path(&path).unwrap();
            assert_eq!(dm.num_pages(), 2, "reopen must recover the page count");
            let mut buf = [0u8; PAGE_SIZE];
            dm.read(0, &mut buf).unwrap();
            assert_eq!(buf[17], 0x5A);
            dm.read(1, &mut buf).unwrap();
            assert_eq!(buf[17], 0xA5);
            // And keep growing from where it left off.
            assert_eq!(dm.allocate().unwrap(), 2);
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn trailing_partial_page_is_not_counted() {
        let dir = std::env::temp_dir();
        let path = dir.join(format!("minirel-torn-{}.db", std::process::id()));
        let _ = std::fs::remove_file(&path);
        std::fs::write(&path, vec![7u8; PAGE_SIZE + 100]).unwrap();
        let mut dm = DiskManager::at_path(&path).unwrap();
        assert_eq!(dm.num_pages(), 1, "torn tail must not count as a page");
        // …and must not show through the page allocated over it.
        let mut buf = [1u8; PAGE_SIZE];
        let fresh = dm.allocate().unwrap();
        dm.read(fresh, &mut buf).unwrap();
        assert!(buf.iter().all(|&x| x == 0), "fresh page must be zeroed");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn write_ensure_extends() {
        let mut dm = DiskManager::in_memory();
        let buf = [9u8; PAGE_SIZE];
        dm.write_ensure(4, &buf).unwrap();
        assert_eq!(dm.num_pages(), 5);
        let mut rbuf = [0u8; PAGE_SIZE];
        dm.read(4, &mut rbuf).unwrap();
        assert_eq!(rbuf[0], 9);
        dm.read(0, &mut rbuf).unwrap();
        assert!(rbuf.iter().all(|&x| x == 0));
    }
}

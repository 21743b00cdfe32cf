//! Storage: the one file interface under the page file and the log.
//!
//! [`Storage`] is a file with positional I/O through `&self` — read and
//! write at an offset, length, truncate or extend, sync — and [`Fs`] is
//! the namespace files are opened, created, renamed and made durable
//! in. [`crate::disk::DiskManager`], [`crate::wal::Wal`] and recovery
//! ([`crate::recovery::replay_into`]) are written once against these,
//! and the choice between a real disk and memory is the `Fs` a database
//! is opened over ([`crate::Database::open`]):
//!
//! * [`OsFs`]: files in the operating system's file system, through
//!   `std::os::unix::fs::FileExt` (no seek, no cloned descriptor: a
//!   shared handle reads and writes at offsets). `sync` is `fsync`, and
//!   [`Fs::sync_dir`] fsyncs a directory, which is what makes a rename
//!   or a new file's name durable;
//! * [`MemFs`]: files in process memory, one boxed page-sized block per
//!   4 KiB of file, so a page file grows a page at a time without
//!   copying what it holds. Its syncs are no-ops.
//!
//! A handle is an `Arc<dyn Storage>`: cheap to clone, so a log and its
//! syncer thread share one. Errors are [`DbError::Io`] carrying the
//! operation and the path the file was opened at.

use crate::error::{DbError, DbResult};
use crate::page::PAGE_SIZE;
use lockcheck::{rank, OrderedMutex};
use std::collections::HashMap;
use std::fs::OpenOptions;
use std::io::ErrorKind;
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// A file: positional reads and writes through a shared reference.
// Nothing asks whether a file is empty; `len` is a byte count to read to.
#[allow(clippy::len_without_is_empty)]
pub trait Storage: Send + Sync {
    /// Fill `buf` from the bytes at `off`; reading past the end fails.
    fn read_at(&self, off: u64, buf: &mut [u8]) -> DbResult<()>;
    /// Write `buf` at `off`, extending the file (with zeros before `off`
    /// if it lies past the end).
    fn write_at(&self, off: u64, buf: &[u8]) -> DbResult<()>;
    /// The file's length in bytes.
    fn len(&self) -> DbResult<u64>;
    /// Truncate or zero-extend the file to `len` bytes.
    fn set_len(&self, len: u64) -> DbResult<()>;
    /// Make every byte written so far durable.
    fn sync(&self) -> DbResult<()>;
}

/// A namespace of files.
pub trait Fs: Send + Sync {
    /// Open the file at `path` for reading and writing, creating it
    /// empty if absent; an existing file is never truncated.
    fn open(&self, path: &Path) -> DbResult<Arc<dyn Storage>>;
    /// Create the file at `path`, truncating it if it exists.
    fn create(&self, path: &Path) -> DbResult<Arc<dyn Storage>>;
    /// Whether a file exists at `path`.
    fn exists(&self, path: &Path) -> bool;
    /// Atomically move the file at `from` to `to`, replacing `to`.
    fn rename(&self, from: &Path, to: &Path) -> DbResult<()>;
    /// Make the names in directory `dir` durable: files created in it
    /// and renames into it.
    fn sync_dir(&self, dir: &Path) -> DbResult<()>;
}

/// The operating system's file system.
#[derive(Clone, Copy, Debug, Default)]
pub struct OsFs;

struct OsFile {
    file: std::fs::File,
    path: PathBuf,
}

impl OsFile {
    fn err<'a>(&'a self, op: &'a str) -> impl FnOnce(std::io::Error) -> DbError + 'a {
        move |e| DbError::io(op, &self.path, e)
    }
}

impl Storage for OsFile {
    fn read_at(&self, off: u64, buf: &mut [u8]) -> DbResult<()> {
        self.file.read_exact_at(buf, off).map_err(self.err("read"))
    }

    fn write_at(&self, off: u64, buf: &[u8]) -> DbResult<()> {
        self.file.write_all_at(buf, off).map_err(self.err("write"))
    }

    fn len(&self) -> DbResult<u64> {
        let meta = self.file.metadata().map_err(self.err("stat"))?;
        Ok(meta.len())
    }

    fn set_len(&self, len: u64) -> DbResult<()> {
        self.file.set_len(len).map_err(self.err("resize"))
    }

    fn sync(&self) -> DbResult<()> {
        self.file.sync_all().map_err(self.err("sync"))
    }
}

impl OsFs {
    fn open_file(path: &Path, truncate: bool) -> DbResult<Arc<dyn Storage>> {
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(truncate)
            .open(path)
            .map_err(|e| DbError::io(if truncate { "create" } else { "open" }, path, e))?;
        Ok(Arc::new(OsFile {
            file,
            path: path.to_owned(),
        }))
    }
}

impl Fs for OsFs {
    fn open(&self, path: &Path) -> DbResult<Arc<dyn Storage>> {
        Self::open_file(path, false)
    }

    fn create(&self, path: &Path) -> DbResult<Arc<dyn Storage>> {
        Self::open_file(path, true)
    }

    fn exists(&self, path: &Path) -> bool {
        path.exists()
    }

    fn rename(&self, from: &Path, to: &Path) -> DbResult<()> {
        std::fs::rename(from, to).map_err(|e| DbError::io("rename", to, e))
    }

    fn sync_dir(&self, dir: &Path) -> DbResult<()> {
        let sync = std::fs::File::open(dir).and_then(|d| d.sync_all());
        sync.map_err(|e| DbError::io("sync directory", dir, e))
    }
}

/// Files in process memory. Clones share the namespace.
#[derive(Clone)]
pub struct MemFs {
    files: Arc<OrderedMutex<HashMap<PathBuf, Arc<MemFile>>>>,
}

impl Default for MemFs {
    fn default() -> MemFs {
        MemFs {
            files: Arc::new(OrderedMutex::new(rank::MEM_FS, HashMap::new())),
        }
    }
}

/// A memory file.
struct MemFile {
    bytes: OrderedMutex<Blocks>,
}

/// A memory file's `len` bytes in page-sized blocks; every byte of the
/// last block past `len` is zero.
struct Blocks {
    blocks: Vec<Box<[u8; PAGE_SIZE]>>,
    len: u64,
}

/// The per-block pieces of `n` bytes at file offset `off`, as `(block,
/// offset in the block, offset in the n bytes, length)`.
fn spans(off: u64, n: usize) -> impl Iterator<Item = (usize, usize, usize, usize)> {
    let off = off as usize;
    let mut i = 0;
    std::iter::from_fn(move || {
        (i < n).then(|| {
            let at = (off + i) % PAGE_SIZE;
            let len = (PAGE_SIZE - at).min(n - i);
            let piece = ((off + i) / PAGE_SIZE, at, i, len);
            i += len;
            piece
        })
    })
}

impl Blocks {
    fn resize(&mut self, len: u64) {
        let tail = len as usize % PAGE_SIZE;
        if len < self.len && tail > 0 {
            // Zero what the last kept block holds past the new end.
            self.blocks[len as usize / PAGE_SIZE][tail..].fill(0);
        }
        let blocks = (len as usize).div_ceil(PAGE_SIZE);
        self.blocks
            .resize_with(blocks, || Box::new([0u8; PAGE_SIZE]));
        self.len = len;
    }
}

impl Storage for MemFile {
    fn read_at(&self, off: u64, buf: &mut [u8]) -> DbResult<()> {
        let file = self.bytes.lock();
        if off + buf.len() as u64 > file.len {
            let eof = std::io::Error::from(ErrorKind::UnexpectedEof);
            return Err(DbError::io("read", "<memory>", eof));
        }
        for (b, at, i, n) in spans(off, buf.len()) {
            buf[i..i + n].copy_from_slice(&file.blocks[b][at..at + n]);
        }
        Ok(())
    }

    fn write_at(&self, off: u64, buf: &[u8]) -> DbResult<()> {
        let mut file = self.bytes.lock();
        let end = off + buf.len() as u64;
        if end > file.len {
            file.resize(end);
        }
        for (b, at, i, n) in spans(off, buf.len()) {
            file.blocks[b][at..at + n].copy_from_slice(&buf[i..i + n]);
        }
        Ok(())
    }

    fn len(&self) -> DbResult<u64> {
        Ok(self.bytes.lock().len)
    }

    fn set_len(&self, len: u64) -> DbResult<()> {
        self.bytes.lock().resize(len);
        Ok(())
    }

    fn sync(&self) -> DbResult<()> {
        Ok(())
    }
}

impl Fs for MemFs {
    fn open(&self, path: &Path) -> DbResult<Arc<dyn Storage>> {
        let mut files = self.files.lock();
        let file = files.entry(path.to_owned()).or_insert_with(|| {
            let bytes = Blocks {
                blocks: Vec::new(),
                len: 0,
            };
            Arc::new(MemFile {
                bytes: OrderedMutex::new(rank::MEM_FS, bytes),
            })
        });
        Ok(Arc::clone(file) as Arc<dyn Storage>)
    }

    fn create(&self, path: &Path) -> DbResult<Arc<dyn Storage>> {
        let file = self.open(path)?;
        file.set_len(0)?;
        Ok(file)
    }

    fn exists(&self, path: &Path) -> bool {
        self.files.lock().contains_key(path)
    }

    fn rename(&self, from: &Path, to: &Path) -> DbResult<()> {
        let mut files = self.files.lock();
        let file = files.remove(from).ok_or_else(|| {
            DbError::io("rename", from, std::io::Error::from(ErrorKind::NotFound))
        })?;
        files.insert(to.to_owned(), file);
        Ok(())
    }

    fn sync_dir(&self, _dir: &Path) -> DbResult<()> {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The same operations over both file systems read back the same.
    fn exercise(fs: &dyn Fs, dir: &Path) {
        let (a, b) = (dir.join("a"), dir.join("b"));
        assert!(!fs.exists(&a));
        let f = fs.open(&a).unwrap();
        assert!(fs.exists(&a));
        assert_eq!(f.len().unwrap(), 0);
        // A write across a block edge, past the end: zeros before it.
        let bytes: Vec<u8> = (0..300u32).map(|i| i as u8).collect();
        f.write_at(PAGE_SIZE as u64 - 100, &bytes).unwrap();
        assert_eq!(f.len().unwrap(), PAGE_SIZE as u64 + 200);
        let mut back = vec![0u8; 300];
        f.read_at(PAGE_SIZE as u64 - 100, &mut back).unwrap();
        assert_eq!(back, bytes);
        f.read_at(0, &mut back).unwrap();
        assert!(back.iter().all(|&x| x == 0));
        assert!(
            f.read_at(PAGE_SIZE as u64, &mut back).is_err(),
            "past the end"
        );
        // Cut inside a block, grow again: the cut bytes come back zero.
        f.set_len(PAGE_SIZE as u64 + 10).unwrap();
        f.set_len(2 * PAGE_SIZE as u64).unwrap();
        let mut tail = [1u8; 20];
        f.read_at(PAGE_SIZE as u64, &mut tail).unwrap();
        assert_eq!(tail[..10], bytes[100..110]);
        assert!(tail[10..].iter().all(|&x| x == 0));
        f.sync().unwrap();
        // Open never truncates; create does; a handle sees both.
        assert_eq!(fs.open(&a).unwrap().len().unwrap(), 2 * PAGE_SIZE as u64);
        fs.rename(&a, &b).unwrap();
        assert!(!fs.exists(&a) && fs.exists(&b));
        assert_eq!(f.len().unwrap(), 2 * PAGE_SIZE as u64, "the handle follows");
        fs.create(&b).unwrap();
        assert_eq!(f.len().unwrap(), 0);
        fs.sync_dir(dir).unwrap();
    }

    #[test]
    fn memory_and_os_files_agree() {
        exercise(&MemFs::default(), Path::new("/mem"));
        let dir = std::env::temp_dir().join(format!("minirel-storage-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        exercise(&OsFs, &dir);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_memory_page_file_is_one_block_a_page() {
        let fs = MemFs::default();
        let f = fs.open(Path::new("pages")).unwrap();
        for pages in 1..=3u64 {
            f.set_len(pages * PAGE_SIZE as u64).unwrap();
        }
        let file = Arc::clone(&fs.files.lock()[Path::new("pages")]);
        assert_eq!(file.bytes.lock().blocks.len(), 3);
    }
}

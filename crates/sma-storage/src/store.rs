//! Page stores: where raw page images live.
//!
//! Two backends implement [`PageStore`]:
//!
//! * [`MemStore`] — pages in a `Vec`, for tests and deterministic benches;
//! * [`FileStore`] — pages in a real file via positioned reads/writes, so
//!   benchmark runs exercise genuine sequential vs. skipping I/O patterns
//!   (the paper's cold numbers come from disk-resident LINEITEM).

use std::fmt;
use std::fs::{File, OpenOptions};
use std::io;
use std::path::{Path, PathBuf};

use crate::page::PAGE_SIZE;

/// Index of a page within a store.
pub type PageNo = u32;

/// Error from a page store.
#[derive(Debug)]
pub enum StoreError {
    /// Requested page does not exist.
    OutOfRange {
        /// Requested page number.
        page: PageNo,
        /// Pages in the store.
        count: PageNo,
    },
    /// A page image failed its checksum — torn write or bit rot. The page
    /// number makes the damage locatable (and rebuildable for derived
    /// data like SMA-files).
    Corrupt {
        /// The page that failed verification.
        page: PageNo,
        /// What exactly mismatched.
        detail: String,
    },
    /// A read or write failed for a reason expected to clear on its own —
    /// a dropped connection, a momentary device hiccup, a kernel `EAGAIN`.
    /// The buffer pool retries these under its
    /// [`RetryPolicy`](crate::pool::RetryPolicy); only after the budget is
    /// exhausted does the fault propagate, still tagged `Transient` so
    /// callers can distinguish "the disk blinked" from "the data is gone".
    Transient {
        /// The page whose I/O blinked.
        page: PageNo,
        /// What the device reported.
        detail: String,
    },
    /// Underlying I/O failed.
    Io(io::Error),
}

impl StoreError {
    /// Whether retrying the same operation could plausibly succeed.
    ///
    /// Only [`StoreError::Transient`] qualifies: out-of-range is a logic
    /// error, corruption is permanent until rebuilt, and a plain
    /// [`StoreError::Io`] is unclassified (a fault injector or device
    /// driver that *knows* the failure is momentary says so explicitly).
    pub fn is_transient(&self) -> bool {
        matches!(self, StoreError::Transient { .. })
    }
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::OutOfRange { page, count } => {
                write!(f, "page {page} out of range (store has {count} pages)")
            }
            StoreError::Corrupt { page, detail } => {
                write!(f, "page {page} corrupt: {detail}")
            }
            StoreError::Transient { page, detail } => {
                write!(f, "transient I/O fault on page {page}: {detail}")
            }
            StoreError::Io(e) => write!(f, "store I/O error: {e}"),
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for StoreError {
    fn from(e: io::Error) -> StoreError {
        StoreError::Io(e)
    }
}

/// Abstract storage for fixed-size page images.
pub trait PageStore: Send + Sync {
    /// Number of allocated pages.
    fn page_count(&self) -> PageNo;
    /// Reads page `no` into `buf` (must be `PAGE_SIZE` long).
    fn read_page(&self, no: PageNo, buf: &mut [u8]) -> Result<(), StoreError>;
    /// Writes page `no` from `buf` (must be `PAGE_SIZE` long).
    fn write_page(&mut self, no: PageNo, buf: &[u8]) -> Result<(), StoreError>;
    /// Appends a zeroed page, returning its number.
    fn allocate(&mut self) -> Result<PageNo, StoreError>;
    /// Flushes buffered writes to durable storage (no-op for memory).
    fn sync(&mut self) -> Result<(), StoreError> {
        Ok(())
    }
}

/// In-memory page store.
#[derive(Default, Clone)]
pub struct MemStore {
    pages: Vec<Box<[u8; PAGE_SIZE]>>,
}

impl MemStore {
    /// Creates an empty store.
    pub fn new() -> MemStore {
        MemStore::default()
    }

    /// Total bytes currently stored (pages × page size).
    pub(crate) fn len_bytes(&self) -> u64 {
        self.pages.len() as u64 * PAGE_SIZE as u64
    }

    /// Keeps only the first `offset` bytes of the linear page image, as if
    /// the kernel persisted a prefix before a crash: trailing whole pages
    /// disappear and the page containing `offset` is torn — its tail reads
    /// back as zeroes.
    pub(crate) fn retain_prefix(&mut self, offset: u64) {
        let full = (offset / PAGE_SIZE as u64) as usize;
        let torn = (offset % PAGE_SIZE as u64) as usize;
        self.pages.truncate(if torn > 0 { full + 1 } else { full });
        if torn > 0 {
            if let Some(last) = self.pages.last_mut() {
                last[torn..].fill(0);
            }
        }
    }
}

impl PageStore for MemStore {
    fn page_count(&self) -> PageNo {
        self.pages.len() as PageNo
    }

    fn read_page(&self, no: PageNo, buf: &mut [u8]) -> Result<(), StoreError> {
        let page = self.pages.get(no as usize).ok_or(StoreError::OutOfRange {
            page: no,
            count: self.page_count(),
        })?;
        buf.copy_from_slice(&page[..]);
        Ok(())
    }

    fn write_page(&mut self, no: PageNo, buf: &[u8]) -> Result<(), StoreError> {
        let count = self.page_count();
        let page = self
            .pages
            .get_mut(no as usize)
            .ok_or(StoreError::OutOfRange { page: no, count })?;
        page.copy_from_slice(buf);
        Ok(())
    }

    fn allocate(&mut self) -> Result<PageNo, StoreError> {
        self.pages.push(Box::new([0u8; PAGE_SIZE]));
        Ok(self.pages.len() as PageNo - 1)
    }
}

/// File-backed page store using positioned I/O.
pub struct FileStore {
    file: File,
    path: PathBuf,
    pages: PageNo,
}

impl FileStore {
    /// Creates (truncating) a page file at `path`.
    pub fn create(path: impl AsRef<Path>) -> Result<FileStore, StoreError> {
        let path = path.as_ref().to_path_buf();
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(&path)?;
        Ok(FileStore {
            file,
            path,
            pages: 0,
        })
    }

    /// Opens an existing page file; its length must be a page multiple.
    pub fn open(path: impl AsRef<Path>) -> Result<FileStore, StoreError> {
        let path = path.as_ref().to_path_buf();
        let file = OpenOptions::new().read(true).write(true).open(&path)?;
        let len = file.metadata()?.len();
        if len % PAGE_SIZE as u64 != 0 {
            return Err(StoreError::Io(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("file length {len} is not a multiple of {PAGE_SIZE}"),
            )));
        }
        Ok(FileStore {
            file,
            path,
            pages: (len / PAGE_SIZE as u64) as PageNo,
        })
    }

    /// Path of the backing file.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl PageStore for FileStore {
    fn page_count(&self) -> PageNo {
        self.pages
    }

    fn read_page(&self, no: PageNo, buf: &mut [u8]) -> Result<(), StoreError> {
        if no >= self.pages {
            return Err(StoreError::OutOfRange {
                page: no,
                count: self.pages,
            });
        }
        use std::os::unix::fs::FileExt;
        self.file.read_exact_at(buf, no as u64 * PAGE_SIZE as u64)?;
        Ok(())
    }

    fn write_page(&mut self, no: PageNo, buf: &[u8]) -> Result<(), StoreError> {
        if no >= self.pages {
            return Err(StoreError::OutOfRange {
                page: no,
                count: self.pages,
            });
        }
        use std::os::unix::fs::FileExt;
        self.file.write_all_at(buf, no as u64 * PAGE_SIZE as u64)?;
        Ok(())
    }

    fn allocate(&mut self) -> Result<PageNo, StoreError> {
        let no = self.pages;
        self.file
            .set_len((self.pages as u64 + 1) * PAGE_SIZE as u64)?;
        self.pages += 1;
        Ok(no)
    }

    fn sync(&mut self) -> Result<(), StoreError> {
        // sync_all, not sync_data: `allocate` grows the file, and the new
        // length (metadata) must be durable before anything that records
        // page numbers (an SMA location, the warehouse catalog) commits.
        self.file.sync_all()?;
        Ok(())
    }
}

/// Fsyncs a directory so a preceding `rename` into it is durable.
///
/// The classic crash-atomicity recipe (write temp → fsync file → rename →
/// fsync directory) needs this last step on POSIX systems: the rename
/// itself lives in the directory inode.
pub fn sync_dir(dir: impl AsRef<Path>) -> io::Result<()> {
    File::open(dir.as_ref())?.sync_all()
}

/// Atomically replaces `path` with `bytes`.
///
/// Writes to `<path>.tmp`, fsyncs, renames over `path`, then fsyncs the
/// parent directory. A crash at any point leaves either the old complete
/// file or the new complete file — never a torn mixture (the `.tmp` may
/// leak, which is harmless).
pub fn atomic_write_file(path: impl AsRef<Path>, bytes: &[u8]) -> io::Result<()> {
    let path = path.as_ref();
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = PathBuf::from(tmp);
    {
        let mut f = File::create(&tmp)?;
        io::Write::write_all(&mut f, bytes)?;
        f.sync_all()?;
    }
    std::fs::rename(&tmp, path)?;
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            sync_dir(parent)?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_util::scratch_path;

    fn exercise(store: &mut dyn PageStore) {
        assert_eq!(store.page_count(), 0);
        let p0 = store.allocate().unwrap();
        let p1 = store.allocate().unwrap();
        assert_eq!((p0, p1), (0, 1));
        let mut img = [0u8; PAGE_SIZE];
        img[0] = 0xAB;
        img[PAGE_SIZE - 1] = 0xCD;
        store.write_page(1, &img).unwrap();
        let mut back = [0xFFu8; PAGE_SIZE];
        store.read_page(1, &mut back).unwrap();
        assert_eq!(back[0], 0xAB);
        assert_eq!(back[PAGE_SIZE - 1], 0xCD);
        store.read_page(0, &mut back).unwrap();
        assert!(back.iter().all(|&b| b == 0), "fresh page is zeroed");
        assert!(matches!(
            store.read_page(7, &mut back),
            Err(StoreError::OutOfRange { page: 7, count: 2 })
        ));
        assert!(store.write_page(7, &img).is_err());
        store.sync().unwrap();
    }

    #[test]
    fn mem_store_basics() {
        exercise(&mut MemStore::new());
    }

    #[test]
    fn file_store_basics() {
        let path = scratch_path("filestore_basics");
        exercise(&mut FileStore::create(&path).unwrap());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn file_store_reopen() {
        let path = scratch_path("filestore_reopen");
        {
            let mut s = FileStore::create(&path).unwrap();
            s.allocate().unwrap();
            let mut img = [0u8; PAGE_SIZE];
            img[10] = 42;
            s.write_page(0, &img).unwrap();
            s.sync().unwrap();
        }
        let s = FileStore::open(&path).unwrap();
        assert_eq!(s.page_count(), 1);
        let mut back = [0u8; PAGE_SIZE];
        s.read_page(0, &mut back).unwrap();
        assert_eq!(back[10], 42);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn atomic_write_replaces_whole_file() {
        let path = scratch_path("atomic_write");
        atomic_write_file(&path, b"first version").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"first version");
        atomic_write_file(&path, b"second").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"second");
        // The temp file does not linger after a successful commit.
        let mut tmp = path.as_os_str().to_owned();
        tmp.push(".tmp");
        assert!(!PathBuf::from(tmp).exists());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn corrupt_error_carries_page_number() {
        let e = StoreError::Corrupt {
            page: 42,
            detail: "checksum mismatch".into(),
        };
        let msg = e.to_string();
        assert!(
            msg.contains("42") && msg.contains("checksum mismatch"),
            "{msg}"
        );
    }

    #[test]
    fn transient_is_the_only_retryable_class() {
        let t = StoreError::Transient {
            page: 9,
            detail: "device momentarily unavailable".into(),
        };
        assert!(t.is_transient());
        assert!(t.to_string().contains("page 9"), "{t}");
        for e in [
            StoreError::OutOfRange { page: 1, count: 0 },
            StoreError::Corrupt {
                page: 1,
                detail: "x".into(),
            },
            StoreError::Io(io::Error::other("unclassified")),
        ] {
            assert!(!e.is_transient(), "{e}");
        }
    }

    #[test]
    fn io_errors_chain_through_source() {
        use std::error::Error;
        let e = StoreError::Io(io::Error::other("disk on fire"));
        let src = e.source().expect("Io wraps a source");
        assert!(src.to_string().contains("disk on fire"));
        assert!(StoreError::Transient {
            page: 0,
            detail: String::new()
        }
        .source()
        .is_none());
    }

    #[test]
    fn file_store_rejects_ragged_file() {
        let path = scratch_path("filestore_ragged");
        std::fs::write(&path, [0u8; 100]).unwrap();
        assert!(FileStore::open(&path).is_err());
        std::fs::remove_file(&path).ok();
    }
}

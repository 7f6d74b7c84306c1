//! Paged storage engine for the SMA reproduction.
//!
//! Layers, bottom-up:
//!
//! * [`page`] — slotted 4 KiB pages,
//! * [`store`] — page stores ([`MemStore`], [`FileStore`]),
//! * [`pool`] — LRU buffer pool with I/O accounting (cold vs. warm),
//! * [`segment`] — layered read-only segments + copy-on-write overlay for
//!   incrementally-flushed tables,
//! * [`table`] — heap tables with positional *buckets*, the SMA granularity,
//! * [`cost`] — deterministic pricing of observed I/O patterns,
//! * [`wal`] / [`memtable`] — the durable streaming-ingest pair: an
//!   append-only CRC32-framed log and the volatile buffer it protects.
//!
//! The paper (§2.1) requires buckets to be "sets of consecutive tuples on
//! disk"; [`Table`] enforces this by appending strictly in physical order
//! and keeping updates on their page.
//!
//! Durability: every page carries a CRC32 + write-counter footer
//! ([`page::stamp_page`] / [`page::verify_page`]) maintained by the buffer
//! pool, so torn writes and bit flips surface as [`StoreError::Corrupt`];
//! [`store::atomic_write_file`] provides the write-temp → fsync → rename →
//! fsync-dir commit recipe used by SMA and catalog persistence.

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::todo,
    clippy::unimplemented,
    clippy::print_stdout,
    clippy::print_stderr,
    clippy::dbg_macro,
    clippy::allow_attributes,
    clippy::allow_attributes_without_reason
)]

pub mod budget;
pub mod checksum;
pub mod cost;
pub mod memtable;
pub mod page;
pub mod pool;
pub mod segment;
pub mod store;
pub mod table;
pub mod test_util;
pub mod wal;

pub use budget::{BudgetExceeded, QueryBudget};
pub use checksum::crc32;
pub use cost::{CostModel, Stopwatch};
pub use memtable::{MemRow, Memtable};
pub use page::{SlotId, SlottedPage, MAX_TUPLE_BYTES, PAGE_FOOTER_LEN, PAGE_SIZE};
pub use pool::{BufferPool, IoStats, PrivateFrame, RetryPolicy};
pub use segment::SegmentedStore;
pub use store::{atomic_write_file, sync_dir, FileStore, MemStore, PageNo, PageStore, StoreError};
pub use table::{BucketNo, PageVerification, Table, TableError, TupleId};
pub use test_util::{FaultConfig, FaultPlan};
pub use wal::{make_wal_record, Wal, WalReplay};

//! Tables: a schema plus a heap of slotted pages, grouped into buckets.
//!
//! A *bucket* is a fixed number of consecutive pages (§2.1: "examples of
//! buckets are single pages or consecutive sequences of pages"). Buckets
//! are the SMA granularity: SMA entry *i* summarizes bucket *i*, and the
//! correspondence is purely positional — which is why tables are
//! append-oriented and updates stay within their page.

use std::fmt;
use std::ops::Range;

use sma_types::row::{decode, encode};
use sma_types::{SchemaRef, Tuple};

use crate::page::{SlotId, SlottedPage, MAX_TUPLE_BYTES, PAGE_SIZE};
use crate::pool::{BufferPool, IoStats, PrivateFrame};
use crate::store::{MemStore, PageNo, PageStore, StoreError};

/// Physical address of a tuple.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TupleId {
    /// Page holding the tuple.
    pub page: PageNo,
    /// Slot within the page.
    pub slot: SlotId,
}

/// Index of a bucket within a table.
pub type BucketNo = u32;

/// Errors from table operations.
#[derive(Debug)]
pub enum TableError {
    /// Underlying store failed.
    Store(StoreError),
    /// Tuple violates the table schema.
    Schema(sma_types::SchemaError),
    /// Tuple image failed to decode (corruption).
    Codec(sma_types::CodecError),
    /// Page image failed validation (corruption).
    Page(crate::page::PageError),
    /// Tuple too large for an empty page.
    TupleTooLarge {
        /// Encoded size of the offending tuple.
        bytes: usize,
    },
    /// In-place update could not keep the tuple on its page.
    UpdateWouldMove(TupleId),
    /// No live tuple at this id.
    NotFound(TupleId),
}

impl fmt::Display for TableError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TableError::Store(e) => write!(f, "{e}"),
            TableError::Schema(e) => write!(f, "{e}"),
            TableError::Codec(e) => write!(f, "{e}"),
            TableError::Page(e) => write!(f, "{e}"),
            TableError::TupleTooLarge { bytes } => {
                write!(f, "tuple of {bytes} bytes exceeds page capacity")
            }
            TableError::UpdateWouldMove(tid) => {
                write!(f, "update of {tid:?} does not fit on its page")
            }
            TableError::NotFound(tid) => write!(f, "no live tuple at {tid:?}"),
        }
    }
}

impl std::error::Error for TableError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TableError::Store(e) => Some(e),
            TableError::Schema(e) => Some(e),
            TableError::Codec(e) => Some(e),
            TableError::Page(e) => Some(e),
            _ => None,
        }
    }
}

impl From<StoreError> for TableError {
    fn from(e: StoreError) -> TableError {
        TableError::Store(e)
    }
}

impl From<sma_types::SchemaError> for TableError {
    fn from(e: sma_types::SchemaError) -> TableError {
        TableError::Schema(e)
    }
}

impl From<sma_types::CodecError> for TableError {
    fn from(e: sma_types::CodecError) -> TableError {
        TableError::Codec(e)
    }
}

impl From<crate::page::PageError> for TableError {
    fn from(e: crate::page::PageError) -> TableError {
        TableError::Page(e)
    }
}

/// A heap table with positional buckets.
pub struct Table {
    name: String,
    schema: SchemaRef,
    pool: BufferPool,
    bucket_pages: u32,
    live_tuples: u64,
    /// Lowest page mutated since the last [`Table::seal`] — the start of
    /// the range an incremental flush must export. `None` means sealed:
    /// every page is covered by the committed segment set.
    min_dirty: Option<PageNo>,
}

impl fmt::Debug for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Table")
            .field("name", &self.name)
            .field("pages", &self.page_count())
            .field("buckets", &self.bucket_count())
            .field("bucket_pages", &self.bucket_pages)
            .field("live_tuples", &self.live_tuples)
            .finish()
    }
}

impl Table {
    /// Creates a table over an arbitrary page store.
    ///
    /// `bucket_pages` is the SMA granularity (§4 discusses the trade-off);
    /// `pool_capacity` is the buffer size in pages.
    pub fn new(
        name: impl Into<String>,
        schema: SchemaRef,
        store: Box<dyn PageStore>,
        pool_capacity: usize,
        bucket_pages: u32,
    ) -> Table {
        assert!(bucket_pages > 0, "bucket must span at least one page");
        Table {
            name: name.into(),
            schema,
            pool: BufferPool::new(store, pool_capacity),
            bucket_pages,
            live_tuples: 0,
            min_dirty: None,
        }
    }

    /// Creates an in-memory table with a generous pool (tests, examples).
    pub fn in_memory(name: impl Into<String>, schema: SchemaRef, bucket_pages: u32) -> Table {
        Table::new(
            name,
            schema,
            Box::new(MemStore::new()),
            1 << 16,
            bucket_pages,
        )
    }

    /// Table name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Table schema.
    pub fn schema(&self) -> &SchemaRef {
        &self.schema
    }

    /// Pages allocated.
    pub fn page_count(&self) -> PageNo {
        self.pool.page_count()
    }

    /// Pages per bucket.
    pub fn bucket_pages(&self) -> u32 {
        self.bucket_pages
    }

    /// Number of (possibly partial) buckets.
    pub fn bucket_count(&self) -> BucketNo {
        self.page_count().div_ceil(self.bucket_pages)
    }

    /// Live tuples in the table.
    pub fn live_tuples(&self) -> u64 {
        self.live_tuples
    }

    /// The page range covered by bucket `b`.
    pub fn bucket_range(&self, b: BucketNo) -> Range<PageNo> {
        let start = b * self.bucket_pages;
        let end = ((b + 1) * self.bucket_pages).min(self.page_count());
        start..end
    }

    /// The bucket containing page `page`.
    pub fn bucket_of_page(&self, page: PageNo) -> BucketNo {
        page / self.bucket_pages
    }

    /// Appends a tuple, returning its id. Appends always go to the last
    /// page, preserving the physical order the SMA files mirror.
    pub fn append(&mut self, tuple: &Tuple) -> Result<TupleId, TableError> {
        self.schema.validate(tuple)?;
        let mut image = Vec::new();
        encode(&self.schema, tuple, &mut image)?;
        if image.len() > MAX_TUPLE_BYTES {
            return Err(TableError::TupleTooLarge { bytes: image.len() });
        }
        let pages = self.page_count();
        if pages > 0 {
            let last = pages - 1;
            let slot = self.pool.with_page_mut(last, |buf| {
                let mut page = SlottedPage::from_bytes(buf)?;
                let slot = page.insert(&image);
                if slot.is_some() {
                    buf.copy_from_slice(&page.as_bytes()[..]);
                }
                Ok::<_, TableError>(slot)
            })??;
            if let Some(slot) = slot {
                self.live_tuples += 1;
                self.note_dirty(last);
                return Ok(TupleId { page: last, slot });
            }
        }
        let no = self.pool.allocate()?;
        self.note_dirty(no);
        let slot = self.pool.with_page_mut(no, |buf| {
            let mut page = SlottedPage::new();
            let slot = page.insert(&image);
            if slot.is_some() {
                buf.copy_from_slice(&page.as_bytes()[..]);
            }
            slot
        })?;
        // `insert` on an empty page only refuses images that are empty or
        // larger than MAX_TUPLE_BYTES (checked above) — but report rather
        // than assume.
        let slot = slot.ok_or(TableError::TupleTooLarge { bytes: image.len() })?;
        self.live_tuples += 1;
        Ok(TupleId { page: no, slot })
    }

    /// Reads the tuple at `tid`, or `None` if deleted/absent.
    pub fn get(&self, tid: TupleId) -> Result<Option<Tuple>, TableError> {
        if tid.page >= self.page_count() {
            return Ok(None);
        }
        let image = self.pool.with_page(tid.page, |buf| {
            let page = SlottedPage::from_bytes(buf)?;
            Ok::<_, TableError>(page.get(tid.slot).map(<[u8]>::to_vec))
        })??;
        match image {
            Some(img) => Ok(Some(decode(&self.schema, &img)?)),
            None => Ok(None),
        }
    }

    /// Deletes the tuple at `tid`.
    pub fn delete(&mut self, tid: TupleId) -> Result<(), TableError> {
        if tid.page >= self.page_count() {
            return Err(TableError::NotFound(tid));
        }
        let removed = self.pool.with_page_mut(tid.page, |buf| {
            let mut page = SlottedPage::from_bytes(buf)?;
            let removed = page.delete(tid.slot);
            if removed {
                buf.copy_from_slice(&page.as_bytes()[..]);
            }
            Ok::<_, TableError>(removed)
        })??;
        if !removed {
            return Err(TableError::NotFound(tid));
        }
        self.live_tuples -= 1;
        self.note_dirty(tid.page);
        Ok(())
    }

    /// Updates the tuple at `tid` in place. The tuple must stay on its page
    /// (the paper's "at most one additional page access" maintenance
    /// guarantee); otherwise [`TableError::UpdateWouldMove`] is returned and
    /// the table is unchanged.
    pub fn update(&mut self, tid: TupleId, tuple: &Tuple) -> Result<TupleId, TableError> {
        self.schema.validate(tuple)?;
        if tid.page >= self.page_count() {
            return Err(TableError::NotFound(tid));
        }
        let mut image = Vec::new();
        encode(&self.schema, tuple, &mut image)?;
        let result = self.pool.with_page_mut(tid.page, |buf| {
            let mut page = SlottedPage::from_bytes(buf)?;
            if page.get(tid.slot).is_none() {
                return Err(TableError::NotFound(tid));
            }
            match page.update(tid.slot, &image) {
                Some(slot) => {
                    buf.copy_from_slice(&page.as_bytes()[..]);
                    Ok(TupleId {
                        page: tid.page,
                        slot,
                    })
                }
                None => Err(TableError::UpdateWouldMove(tid)),
            }
        })?;
        if result.is_ok() {
            self.note_dirty(tid.page);
        }
        result
    }

    fn note_dirty(&mut self, page: PageNo) {
        self.min_dirty = Some(match self.min_dirty {
            Some(p) => p.min(page),
            None => page,
        });
    }

    /// The first page not covered by the last [`Table::seal`] — the start
    /// of the range an incremental flush must export. Equals
    /// [`Table::page_count`] when nothing changed since sealing.
    pub fn unsealed_from(&self) -> PageNo {
        self.min_dirty.unwrap_or_else(|| self.page_count())
    }

    /// Marks every current page as covered by the committed segment set.
    /// Called by the flush path *after* its manifest commit succeeds —
    /// sealing earlier would let a failed flush silently drop the pages a
    /// retry still needs to export.
    pub fn seal(&mut self) {
        self.min_dirty = None;
    }

    /// Visits every live tuple image on `page_no` in slot order, borrowed
    /// straight from the pinned page frame — zero per-tuple image copies.
    ///
    /// Without a frame the closure runs under the page's buffer-pool
    /// shard lock, so it must not touch this table's pool again
    /// (per-tuple decode/predicate work is fine; that is what it is for);
    /// with one it runs unlocked, on the frame. The error type is generic so
    /// executor layers can thread their own error out of the closure.
    /// `frame` is as for [`Table::for_each_in_bucket`].
    pub fn for_each_on_page<E, F>(
        &self,
        page_no: PageNo,
        frame: Option<&mut PrivateFrame>,
        mut f: F,
    ) -> Result<(), E>
    where
        E: From<TableError>,
        F: FnMut(TupleId, &[u8]) -> Result<(), E>,
    {
        let visited = self
            .read_page(page_no, frame, |buf| {
                crate::page::for_each_image::<VisitError<E>, _>(buf, |slot, img| {
                    f(
                        TupleId {
                            page: page_no,
                            slot,
                        },
                        img,
                    )
                    .map_err(VisitError::Caller)
                })
            })
            .map_err(|e| E::from(TableError::Store(e)))?;
        visited.map_err(|e| match e {
            VisitError::Page(p) => E::from(TableError::Page(p)),
            VisitError::Caller(c) => c,
        })
    }

    /// Visits every live tuple image in bucket `b`, page by page in
    /// physical order — the lending-scan counterpart of
    /// [`Table::scan_bucket`]. I/O accounting is identical to the
    /// materialized scan: each page is fetched exactly once, in the same
    /// order.
    ///
    /// With a `frame`, pages are read by
    /// [`BufferPool::with_page_private`]: a miss on a full pool shard goes
    /// into the frame and evicts nothing, a resident page is copied into
    /// it, and `f` runs with no pool lock held. A scan larger than the
    /// pool passes one; every other reader passes `None` and shares the
    /// pool.
    pub fn for_each_in_bucket<E, F>(
        &self,
        b: BucketNo,
        mut frame: Option<&mut PrivateFrame>,
        mut f: F,
    ) -> Result<(), E>
    where
        E: From<TableError>,
        F: FnMut(TupleId, &[u8]) -> Result<(), E>,
    {
        for page_no in self.bucket_range(b) {
            self.for_each_on_page(page_no, frame.as_deref_mut(), &mut f)?;
        }
        Ok(())
    }

    /// Runs `f` over page `no`: through `frame` past a full pool when one
    /// is given, through the shared pool otherwise.
    fn read_page<R>(
        &self,
        no: PageNo,
        frame: Option<&mut PrivateFrame>,
        f: impl FnOnce(&[u8; PAGE_SIZE]) -> R,
    ) -> Result<R, StoreError> {
        match frame {
            Some(frame) => self.pool.with_page_private(no, frame, f),
            None => self.pool.with_page(no, f),
        }
    }

    /// Decodes all live tuples in bucket `b`, in physical order. Thin
    /// materializing wrapper over [`Table::for_each_in_bucket`].
    pub fn scan_bucket(&self, b: BucketNo) -> Result<Vec<(TupleId, Tuple)>, TableError> {
        let mut out = Vec::new();
        for page_no in self.bucket_range(b) {
            self.scan_page_into(page_no, &mut out)?;
        }
        Ok(out)
    }

    /// Decodes all live tuples on page `page_no`, appending to `out`.
    pub fn scan_page_into(
        &self,
        page_no: PageNo,
        out: &mut Vec<(TupleId, Tuple)>,
    ) -> Result<(), TableError> {
        self.for_each_on_page::<TableError, _>(page_no, None, |tid, img| {
            out.push((tid, decode(&self.schema, img)?));
            Ok(())
        })
    }

    /// Full sequential scan: every live tuple in physical order.
    pub fn scan(&self) -> Result<Vec<(TupleId, Tuple)>, TableError> {
        let mut out = Vec::new();
        for page_no in 0..self.page_count() {
            self.scan_page_into(page_no, &mut out)?;
        }
        Ok(out)
    }

    /// Buffer-pool capacity in pages.
    pub fn pool_capacity(&self) -> usize {
        self.pool.capacity()
    }

    /// Buffer-pool traffic counters.
    pub fn io_stats(&self) -> IoStats {
        self.pool.stats()
    }

    /// Zeroes the traffic counters.
    pub fn reset_io_stats(&self) {
        self.pool.reset_stats()
    }

    /// Replaces the buffer pool's transient-fault retry policy.
    pub fn set_retry_policy(&self, policy: crate::pool::RetryPolicy) {
        self.pool.set_retry_policy(policy)
    }

    /// The buffer pool's current transient-fault retry policy.
    pub fn retry_policy(&self) -> crate::pool::RetryPolicy {
        self.pool.retry_policy()
    }

    /// Flushes dirty pages and empties the cache: the next scan is cold.
    pub fn make_cold(&self) -> Result<(), TableError> {
        self.pool.clear_cache()?;
        Ok(())
    }

    /// Flushes dirty pages to the store.
    pub fn flush(&self) -> Result<(), TableError> {
        self.pool.flush_all()?;
        Ok(())
    }

    /// Copies every page image into `dest` (which must start empty).
    ///
    /// The source store is never written: dirty pool frames are read in
    /// place and each exported image is re-stamped with its checksum
    /// footer before it leaves. Exporting used to flush the pool first,
    /// which silently mutated the table's *own* backing file — for a
    /// table reopened from a committed generation that rewrote committed
    /// state before the next commit point, breaking crash atomicity.
    pub fn export_to_store(&self, dest: &mut dyn PageStore) -> Result<(), TableError> {
        self.export_page_range(dest, 0)
    }

    /// Copies pages `from..page_count` into `dest`, renumbered from zero
    /// (page `from + i` of this table becomes page `i` of `dest`) — the
    /// delta-segment export for incremental flushes. `dest` must start
    /// empty; the source store is never written (see
    /// [`Table::export_to_store`]).
    pub fn export_page_range(
        &self,
        dest: &mut dyn PageStore,
        from: PageNo,
    ) -> Result<(), TableError> {
        for no in from..self.page_count() {
            let mut image = self.pool.with_page(no, |buf| *buf)?;
            crate::page::stamp_page(&mut image);
            let local = no - from;
            while dest.page_count() <= local {
                dest.allocate()?;
            }
            dest.write_page(local, &image[..])?;
        }
        dest.sync()?;
        Ok(())
    }

    /// Reads every page through the pool, verifying checksum footers and
    /// slotted-page structure. Corrupt pages are collected (not fatal);
    /// other store errors propagate. Also recounts `live_tuples` from the
    /// readable pages — the restart path uses this to restore the counter.
    pub fn verify_pages(&mut self) -> Result<PageVerification, TableError> {
        let mut report = PageVerification {
            scanned: 0,
            corrupt: Vec::new(),
        };
        let mut live = 0u64;
        for no in 0..self.page_count() {
            report.scanned += 1;
            match self.pool.with_page(no, |buf| {
                SlottedPage::from_bytes(buf).map(|p| p.live_count() as u64)
            }) {
                Ok(Ok(n)) => live += n,
                Ok(Err(_)) | Err(StoreError::Corrupt { .. }) => report.corrupt.push(no),
                Err(e) => return Err(e.into()),
            }
        }
        self.live_tuples = live;
        Ok(report)
    }
}

/// Internal error split for the lending visitors: page validation
/// failures raised by the walker vs. errors returned by the caller's
/// closure, re-merged into the caller's error type after the page lock
/// is released.
enum VisitError<E> {
    Page(crate::page::PageError),
    Caller(E),
}

impl<E> From<crate::page::PageError> for VisitError<E> {
    fn from(e: crate::page::PageError) -> VisitError<E> {
        VisitError::Page(e)
    }
}

/// Outcome of [`Table::verify_pages`].
#[derive(Debug, Clone, Default)]
pub struct PageVerification {
    /// Pages examined.
    pub scanned: u32,
    /// Pages whose checksum or structure failed verification.
    pub corrupt: Vec<PageNo>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use sma_types::{Column, DataType, Schema, Value};
    use std::sync::Arc;

    fn schema() -> SchemaRef {
        Arc::new(Schema::new(vec![
            Column::new("K", DataType::Int),
            Column::new("S", DataType::Str),
        ]))
    }

    fn tuple(k: i64, s: &str) -> Tuple {
        vec![Value::Int(k), Value::Str(s.into())]
    }

    #[test]
    fn append_get_roundtrip() {
        let mut t = Table::in_memory("t", schema(), 1);
        let id = t.append(&tuple(7, "seven")).unwrap();
        assert_eq!(t.get(id).unwrap(), Some(tuple(7, "seven")));
        assert_eq!(t.live_tuples(), 1);
    }

    #[test]
    fn append_spills_to_new_pages_in_order() {
        let mut t = Table::in_memory("t", schema(), 1);
        let long = "x".repeat(1000);
        let mut ids = Vec::new();
        for k in 0..20 {
            ids.push(t.append(&tuple(k, &long)).unwrap());
        }
        assert!(t.page_count() > 1);
        // Physical order == append order.
        let scanned = t.scan().unwrap();
        let keys: Vec<i64> = scanned
            .iter()
            .map(|(_, tu)| tu[0].as_int().unwrap())
            .collect();
        assert_eq!(keys, (0..20).collect::<Vec<_>>());
        // Page numbers are non-decreasing.
        assert!(ids.windows(2).all(|w| w[0].page <= w[1].page));
    }

    #[test]
    fn bucket_ranges() {
        let mut t = Table::in_memory("t", schema(), 2);
        let long = "x".repeat(1500);
        for k in 0..15 {
            t.append(&tuple(k, &long)).unwrap();
        }
        let pages = t.page_count();
        assert!(pages >= 5, "need several pages, got {pages}");
        assert_eq!(t.bucket_count(), pages.div_ceil(2));
        assert_eq!(t.bucket_range(0), 0..2);
        assert_eq!(t.bucket_of_page(0), 0);
        assert_eq!(t.bucket_of_page(3), 1);
        // Last bucket may be partial.
        let last = t.bucket_count() - 1;
        assert_eq!(t.bucket_range(last).end, pages);
        // Every tuple appears in exactly one bucket scan.
        let mut total = 0;
        for b in 0..t.bucket_count() {
            total += t.scan_bucket(b).unwrap().len();
        }
        assert_eq!(total, 15);
    }

    #[test]
    fn delete_and_update() {
        let mut t = Table::in_memory("t", schema(), 1);
        let a = t.append(&tuple(1, "a")).unwrap();
        let b = t.append(&tuple(2, "b")).unwrap();
        t.delete(a).unwrap();
        assert_eq!(t.get(a).unwrap(), None);
        assert_eq!(t.live_tuples(), 1);
        assert!(matches!(t.delete(a), Err(TableError::NotFound(_))));

        let b2 = t.update(b, &tuple(2, "B")).unwrap();
        assert_eq!(b2, b, "same-length update keeps its slot");
        assert_eq!(t.get(b).unwrap(), Some(tuple(2, "B")));

        let b3 = t.update(b, &tuple(2, "Bee!")).unwrap();
        assert_eq!(b3.page, b.page, "update stays on its page");
        assert_eq!(t.get(b3).unwrap(), Some(tuple(2, "Bee!")));
    }

    #[test]
    fn update_that_cannot_stay_on_page_fails_cleanly() {
        let mut t = Table::in_memory("t", schema(), 1);
        let filler = "x".repeat(1300);
        let a = t.append(&tuple(0, &filler)).unwrap();
        t.append(&tuple(1, &filler)).unwrap();
        t.append(&tuple(2, &filler)).unwrap();
        // Growing tuple `a` beyond the page's free space must fail without
        // moving it to another bucket.
        let err = t.update(a, &tuple(0, &"y".repeat(2000))).unwrap_err();
        assert!(matches!(err, TableError::UpdateWouldMove(_)));
        assert_eq!(t.get(a).unwrap(), Some(tuple(0, &filler)));
    }

    #[test]
    fn rejects_wrong_schema() {
        let mut t = Table::in_memory("t", schema(), 1);
        assert!(t.append(&vec![Value::Int(1)]).is_err());
        assert!(t
            .append(&vec![Value::Str("no".into()), Value::Str("x".into())])
            .is_err());
    }

    #[test]
    fn rejects_oversized_tuple() {
        let mut t = Table::in_memory("t", schema(), 1);
        let err = t.append(&tuple(1, &"z".repeat(5000))).unwrap_err();
        assert!(matches!(err, TableError::TupleTooLarge { .. }));
    }

    #[test]
    fn lending_visitor_matches_materialized_scan_and_io() {
        let mut t = Table::in_memory("t", schema(), 2);
        let long = "x".repeat(700);
        for k in 0..40 {
            t.append(&tuple(k, &long)).unwrap();
        }
        let deleted = t.scan().unwrap()[5].0;
        t.delete(deleted).unwrap();
        let mut frame = PrivateFrame::new();
        for b in 0..t.bucket_count() {
            t.reset_io_stats();
            let owned = t.scan_bucket(b).unwrap();
            let owned_io = t.io_stats();
            // A private frame changes nothing while the pool has room.
            for private in [false, true] {
                t.reset_io_stats();
                let mut visited = Vec::new();
                let frame = private.then_some(&mut frame);
                t.for_each_in_bucket::<TableError, _>(b, frame, |tid, img| {
                    visited.push((tid, sma_types::row::decode(t.schema(), img)?));
                    Ok(())
                })
                .unwrap();
                assert_eq!(visited, owned, "bucket {b}, private {private}");
                assert_eq!(t.io_stats(), owned_io, "bucket {b}: identical I/O trace");
            }
        }
    }

    #[test]
    fn visitor_propagates_closure_errors() {
        let mut t = Table::in_memory("t", schema(), 1);
        for k in 0..3 {
            t.append(&tuple(k, "x")).unwrap();
        }
        let mut seen = 0;
        let err = t
            .for_each_in_bucket::<TableError, _>(0, None, |tid, _| {
                seen += 1;
                Err(TableError::NotFound(tid))
            })
            .unwrap_err();
        assert!(matches!(err, TableError::NotFound(_)));
        assert_eq!(seen, 1);
    }

    #[test]
    fn oversized_string_surfaces_as_codec_error() {
        let mut t = Table::in_memory("t", schema(), 1);
        let too_long = "x".repeat(u16::MAX as usize + 1);
        let err = t.append(&tuple(1, &too_long)).unwrap_err();
        assert!(matches!(err, TableError::Codec(_)), "got {err:?}");
        assert_eq!(t.live_tuples(), 0, "failed append leaves the table clean");
        let id = t.append(&tuple(1, "ok")).unwrap();
        let err = t.update(id, &tuple(1, &too_long)).unwrap_err();
        assert!(matches!(err, TableError::Codec(_)), "got {err:?}");
        assert_eq!(t.get(id).unwrap(), Some(tuple(1, "ok")));
    }

    #[test]
    fn cold_scan_counts_physical_reads() {
        let mut t = Table::in_memory("t", schema(), 1);
        let long = "x".repeat(800);
        for k in 0..50 {
            t.append(&tuple(k, &long)).unwrap();
        }
        let pages = t.page_count() as u64;
        t.make_cold().unwrap();
        t.reset_io_stats();
        t.scan().unwrap();
        let s = t.io_stats();
        assert_eq!(s.physical_reads, pages);
        assert_eq!(s.sequential_reads, pages - 1, "scan is sequential");
        t.reset_io_stats();
        t.scan().unwrap();
        assert_eq!(t.io_stats().physical_reads, 0, "warm scan hits the pool");
    }

    #[test]
    fn export_and_verify_roundtrip() {
        use crate::store::FileStore;
        use crate::test_util::scratch_path;
        let mut t = Table::in_memory("t", schema(), 1);
        let long = "x".repeat(900);
        for k in 0..30 {
            t.append(&tuple(k, &long)).unwrap();
        }
        let path = scratch_path("table_export");
        {
            let mut dest = FileStore::create(&path).unwrap();
            t.export_to_store(&mut dest).unwrap();
            assert_eq!(dest.page_count(), t.page_count());
        }
        let store = FileStore::open(&path).unwrap();
        let mut back = Table::new("t", schema(), Box::new(store), 64, 1);
        let v = back.verify_pages().unwrap();
        assert_eq!(v.scanned, t.page_count());
        assert!(v.corrupt.is_empty(), "clean export: {:?}", v.corrupt);
        assert_eq!(back.live_tuples(), 30, "verify restores the live count");
        assert_eq!(back.scan().unwrap().len(), 30);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn verify_pages_flags_bit_flips() {
        use crate::store::FileStore;
        use crate::test_util::{flip_bit_in_file, scratch_path};
        let mut t = Table::in_memory("t", schema(), 1);
        let long = "x".repeat(900);
        for k in 0..30 {
            t.append(&tuple(k, &long)).unwrap();
        }
        let path = scratch_path("table_verify_flip");
        {
            let mut dest = FileStore::create(&path).unwrap();
            t.export_to_store(&mut dest).unwrap();
        }
        // Flip one bit in the middle of page 2.
        flip_bit_in_file(&path, 2 * crate::page::PAGE_SIZE as u64 + 1000, 3).unwrap();
        let store = FileStore::open(&path).unwrap();
        let mut back = Table::new("t", schema(), Box::new(store), 64, 1);
        let v = back.verify_pages().unwrap();
        assert_eq!(v.corrupt, vec![2], "exactly the flipped page is corrupt");
        // Reads of the damaged page error; they never return wrong rows.
        let err = back.scan().unwrap_err();
        assert!(matches!(
            err,
            TableError::Store(StoreError::Corrupt { page: 2, .. })
        ));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn file_backed_table_survives_flush() {
        use crate::store::FileStore;
        use crate::test_util::scratch_path;
        let path = scratch_path("table_file");
        {
            let store = FileStore::create(&path).unwrap();
            let mut t = Table::new("t", schema(), Box::new(store), 4, 1);
            for k in 0..10 {
                t.append(&tuple(k, "payload")).unwrap();
            }
            t.flush().unwrap();
        }
        {
            let store = FileStore::open(&path).unwrap();
            let t = Table::new("t", schema(), Box::new(store), 4, 1);
            let rows = t.scan().unwrap();
            assert_eq!(rows.len(), 10);
            assert_eq!(rows[9].1[0], Value::Int(9));
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn seal_and_range_export_reassemble_through_segments() {
        use crate::segment::SegmentedStore;
        let mut t = Table::in_memory("t", schema(), 1);
        let long = "x".repeat(900);
        for k in 0..12 {
            t.append(&tuple(k, &long)).unwrap();
        }
        assert_eq!(t.unsealed_from(), 0, "never sealed: everything is dirty");
        // Export the full base, seal, then append more rows.
        let mut base = MemStore::new();
        t.export_to_store(&mut base).unwrap();
        let sealed_pages = t.page_count();
        t.seal();
        assert_eq!(
            t.unsealed_from(),
            sealed_pages,
            "sealed table has no dirty range"
        );
        for k in 12..20 {
            t.append(&tuple(k, &long)).unwrap();
        }
        let from = t.unsealed_from();
        assert!(from < t.page_count());
        assert!(
            from + 1 >= sealed_pages,
            "delta starts at the sealed boundary page, not earlier"
        );
        let mut delta = MemStore::new();
        t.export_page_range(&mut delta, from).unwrap();
        assert_eq!(delta.page_count(), t.page_count() - from);
        // Reassemble: base shadowed by the delta reproduces the table.
        let delta_pages = t.page_count() - from;
        let store = SegmentedStore::new(vec![
            (Box::new(base) as Box<dyn PageStore>, 0, sealed_pages),
            (Box::new(delta), from, delta_pages),
        ])
        .unwrap();
        let back = Table::new("t", schema(), Box::new(store), 64, 1);
        let keys: Vec<i64> = back
            .scan()
            .unwrap()
            .iter()
            .map(|(_, tu)| tu[0].as_int().unwrap())
            .collect();
        assert_eq!(keys, (0..20).collect::<Vec<_>>());
    }

    #[test]
    fn export_never_writes_the_source_store() {
        let mut t = Table::in_memory("t", schema(), 1);
        let long = "x".repeat(900);
        for k in 0..12 {
            t.append(&tuple(k, &long)).unwrap();
        }
        t.reset_io_stats();
        let mut dest = MemStore::new();
        t.export_to_store(&mut dest).unwrap();
        assert_eq!(
            t.io_stats().physical_writes,
            0,
            "export must copy pages without flushing them into the source"
        );
    }
}

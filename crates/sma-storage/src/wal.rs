//! Append-only write-ahead log over any [`PageStore`].
//!
//! The WAL makes streamed inserts durable before they are acknowledged:
//! a record is appended and fsynced *before* the memtable absorbs the
//! tuple, so an acknowledged insert survives any crash, and an
//! unacknowledged one leaves at worst a torn tail that replay discards.
//!
//! # Layout
//!
//! Page 0 is the header, rewritten only by [`Wal::create`] and
//! [`Wal::truncate`]:
//!
//! ```text
//! "SWAL" | epoch u64 | crc32(bytes 0..12) u32 | zero padding
//! ```
//!
//! Records start at page 1 and form a byte stream chunked into pages
//! (no slot directories, no per-page footers — integrity is per-record).
//! Each record is framed as:
//!
//! ```text
//! payload_len u32 | crc32(payload) u32 | payload
//! ```
//!
//! where the payload is an [`sma_types::WalRecord`] image carrying the
//! log epoch and a monotonically increasing sequence number.
//!
//! # Replay and truncation
//!
//! [`Wal::open`] replays frames in order and stops at the first frame
//! that is zeroed (clean end), structurally invalid or checksum-mismatched
//! (torn tail — the bytes a crash cut mid-append), from a different epoch
//! (stale bytes left over from before a truncation; the record area is
//! never zeroed), or out of sequence order. Everything before the stop is
//! returned; everything after is logically truncated, and a torn tail is
//! also physically zeroed so the cut is explicit on disk.
//!
//! # Failed appends and syncs
//!
//! The log remembers where its last successful [`Wal::sync`] ended. When
//! an append or a sync fails, every frame since that point is discarded:
//! the tail moves back to it and the frame header there is zeroed, so
//! replay ends at the last good sync and the next append overwrites the
//! discarded frames. A failed insert therefore stays failed once a later
//! sync succeeds. Only a crash between the failed call and the next good
//! sync may still recover the discarded frames, because the device state
//! is unknown there. When the next frames are shorter than the discarded
//! ones, the bytes left past them read as a torn tail: replay stops there
//! and zeroes it, and a discarded frame that happens to stay whole stops
//! replay too, because its sequence number is below the new frames'.
//!
//! [`Wal::truncate`] rewrites only the header with a new epoch. Old
//! record bytes stay in place but can never replay again: their epoch no
//! longer matches. A truncation whose header write or sync fails still
//! switches the log to the new epoch, and each later sync writes the
//! header again until one succeeds: no frame is ever appended under an
//! epoch other than the one the next good sync leaves in the header.
//! Truncation is only legal *after* the warehouse manifest naming a
//! watermark ≥ every logged sequence number has committed, so even a torn
//! header write loses nothing — a WAL whose header fails its checksum is
//! by protocol an empty one, and [`Wal::open`] reinitializes it
//! (reporting the reset) rather than failing recovery.

use sma_types::walrec::{decode_wal_record, encode_wal_record, WalRecord};
use sma_types::{bytes, Tuple};

use crate::checksum::crc32;
use crate::store::{PageStore, StoreError};
use crate::PAGE_SIZE;

const MAGIC: &[u8; 4] = b"SWAL";

/// Header bytes covered by the header checksum: magic + epoch.
const HEADER_BODY: usize = 12;

/// Bytes before a frame's payload: length + checksum.
const FRAME_HEADER: u64 = 8;

/// Upper bound on one record's payload — far beyond any real tuple
/// (tuples fit a 4 KiB page), small enough that a garbage length field
/// can never drive replay into a multi-gigabyte read.
pub const MAX_WAL_PAYLOAD: u32 = 1 << 24;

/// An open write-ahead log.
pub struct Wal<S: PageStore> {
    store: S,
    epoch: u64,
    /// Byte offset one past the last valid frame, relative to the start
    /// of the record area (page 1, offset 0).
    tail: u64,
    /// `tail` as of the last successful sync. A failed append or sync
    /// moves `tail` back here.
    synced: u64,
    /// The header on the device may not carry `epoch` yet: a truncation
    /// has not synced. Every sync writes the header again first until one
    /// succeeds.
    header_owed: bool,
}

/// What [`Wal::open`] found while replaying.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WalReplay {
    /// Records replayed, in append order.
    pub records: Vec<WalRecord>,
    /// A frame was cut mid-write (length ran past the store, checksum
    /// mismatched, or the payload failed to decode); the tail was
    /// truncated there. The torn record was never acknowledged.
    pub torn_tail: bool,
    /// The header was missing or failed its checksum, and the log was
    /// reinitialized empty at the caller's fallback epoch. Per the
    /// truncation protocol this only happens when the log was logically
    /// empty, so nothing acknowledged is lost.
    pub header_reset: bool,
}

impl<S: PageStore> Wal<S> {
    /// Initializes a fresh log on `store` at `epoch`, overwriting any
    /// header already present. Syncs before returning.
    pub fn create(mut store: S, epoch: u64) -> Result<Wal<S>, StoreError> {
        write_header(&mut store, epoch)?;
        store.sync()?;
        Ok(Wal {
            store,
            epoch,
            tail: 0,
            synced: 0,
            header_owed: false,
        })
    }

    /// Opens an existing log, replaying every record of the current
    /// epoch. A missing or checksum-failed header reinitializes the log
    /// at `fallback_epoch` (see [`WalReplay::header_reset`]). Hard I/O
    /// errors propagate; torn frames do not — they end the replay.
    pub fn open(mut store: S, fallback_epoch: u64) -> Result<(Wal<S>, WalReplay), StoreError> {
        let epoch = match read_header(&store)? {
            Some(e) => e,
            None => {
                write_header(&mut store, fallback_epoch)?;
                store.sync()?;
                let wal = Wal {
                    store,
                    epoch: fallback_epoch,
                    tail: 0,
                    synced: 0,
                    header_owed: false,
                };
                return Ok((
                    wal,
                    WalReplay {
                        header_reset: true,
                        ..WalReplay::default()
                    },
                ));
            }
        };
        let mut wal = Wal {
            store,
            epoch,
            tail: 0,
            synced: 0,
            header_owed: false,
        };
        let mut replay = WalReplay::default();
        let mut off = 0u64;
        let mut last_seq: Option<u64> = None;
        loop {
            let mut head = [0u8; 8];
            match wal.read_bytes(off, &mut head) {
                Ok(()) => {}
                // Ran off the allocated pages: clean end of the log.
                Err(StoreError::OutOfRange { .. }) => break,
                // Anything else is a real device fault, not the shape of
                // the log — swallowing it would silently truncate every
                // acknowledged record behind the bad page.
                Err(e) => return Err(e),
            }
            let len = bytes::get_u32_le(&head, 0).unwrap_or(0);
            let want_crc = bytes::get_u32_le(&head, 4).unwrap_or(0);
            if len == 0 {
                break; // zeroed frame header: clean end
            }
            if len > MAX_WAL_PAYLOAD {
                replay.torn_tail = true;
                break;
            }
            let mut payload = vec![0u8; len as usize];
            match wal.read_bytes(off + FRAME_HEADER, &mut payload) {
                Ok(()) => {}
                // The length field promised more bytes than the store
                // holds: the frame was cut mid-append.
                Err(StoreError::OutOfRange { .. }) => {
                    replay.torn_tail = true;
                    break;
                }
                // A hard I/O error mid-frame proves nothing about the
                // frame; propagating it keeps the acknowledged record
                // intact instead of zeroing its header below.
                Err(e) => return Err(e),
            }
            if crc32(&payload) != want_crc {
                replay.torn_tail = true;
                break;
            }
            let rec = match decode_wal_record(&payload) {
                Ok(r) => r,
                // sma-lint: allow(A3-error-swallowing) -- an undecodable record after a valid CRC is a torn tail by design: replay stops and reports it
                Err(_) => {
                    replay.torn_tail = true;
                    break;
                }
            };
            if rec.epoch != epoch {
                break; // stale bytes from before a truncation: clean end
            }
            if last_seq.is_some_and(|s| rec.seq <= s) {
                break; // out of order: stale or damaged, stop trusting
            }
            last_seq = Some(rec.seq);
            off += FRAME_HEADER + len as u64;
            replay.records.push(rec);
        }
        wal.tail = off;
        wal.synced = off;
        if replay.torn_tail {
            // Make the cut explicit: zero the torn frame's header so the
            // garbage past it can never be probed again.
            wal.write_bytes(off, &[0u8; 8])?;
            wal.store.sync()?;
        }
        Ok((wal, replay))
    }

    /// The epoch in the header — every appended record is tagged with it.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Bytes of valid frames currently in the record area.
    pub fn tail_bytes(&self) -> u64 {
        self.tail
    }

    /// The underlying store (tests inspect or clone it to simulate
    /// crashes at arbitrary persisted prefixes).
    pub fn store(&self) -> &S {
        &self.store
    }

    /// Consumes the log, returning the store.
    pub fn into_store(self) -> S {
        self.store
    }

    /// Appends one record. The record's epoch must match the log's. The
    /// append is **not** durable until [`Wal::sync`] returns `Ok` — only
    /// then may the insert be acknowledged. On an error every frame
    /// appended since the last good sync is discarded, this one included.
    pub fn append(&mut self, rec: &WalRecord) -> Result<(), StoreError> {
        self.append_frame(rec).map_err(|e| self.discard_unsynced(e))
    }

    fn append_frame(&mut self, rec: &WalRecord) -> Result<(), StoreError> {
        if rec.epoch != self.epoch {
            return Err(StoreError::Corrupt {
                page: 0,
                detail: format!(
                    "wal record epoch {} does not match log epoch {}",
                    rec.epoch, self.epoch
                ),
            });
        }
        let payload = encode_wal_record(rec);
        let len = u32::try_from(payload.len()).unwrap_or(u32::MAX);
        if len > MAX_WAL_PAYLOAD {
            return Err(StoreError::Corrupt {
                page: 0,
                detail: format!(
                    "wal record of {} bytes exceeds the frame cap",
                    payload.len()
                ),
            });
        }
        let mut frame = Vec::with_capacity(FRAME_HEADER as usize + payload.len());
        bytes::put_u32_le(&mut frame, len);
        bytes::put_u32_le(&mut frame, crc32(&payload));
        frame.extend_from_slice(&payload);
        self.write_bytes(self.tail, &frame)?;
        self.tail += frame.len() as u64;
        Ok(())
    }

    /// Makes every append so far durable. On an error every frame
    /// appended since the last good sync is discarded: none of them
    /// replays once a later sync succeeds.
    pub fn sync(&mut self) -> Result<(), StoreError> {
        let synced = if self.header_owed {
            write_header(&mut self.store, self.epoch).and_then(|()| self.store.sync())
        } else {
            self.store.sync()
        };
        match synced {
            Ok(()) => {
                self.header_owed = false;
                self.synced = self.tail;
                Ok(())
            }
            Err(e) => Err(self.discard_unsynced(e)),
        }
    }

    /// Moves the tail back to the last good sync and zeroes the frame
    /// header there, so replay ends at that sync; returns `err`.
    fn discard_unsynced(&mut self, err: StoreError) -> StoreError {
        self.tail = self.synced;
        // sma-lint: allow(A3-error-swallowing) -- the caller must see the original fault; if this zeroing fails too, the next append still overwrites the discarded frames, and only a crash before the next good sync may recover them
        let _ = self.write_bytes(self.synced, &[0u8; FRAME_HEADER as usize]);
        err
    }

    /// Logically empties the log under `new_epoch` by rewriting the
    /// header and syncing it. Old record bytes remain but fail the epoch
    /// check on replay. Call only after the manifest whose watermark
    /// covers every logged record has committed.
    ///
    /// The log adopts `new_epoch` before any I/O, even if the truncation
    /// then fails: the new header may reach the device anyway, and a later
    /// good sync would make it durable over frames of the old epoch,
    /// where replay stops. So every later frame carries `new_epoch`, and
    /// the sync that makes one durable writes the new header first.
    pub fn truncate(&mut self, new_epoch: u64) -> Result<(), StoreError> {
        self.epoch = new_epoch;
        self.tail = 0;
        self.synced = 0;
        self.header_owed = true;
        self.sync()
    }

    /// Reads `buf.len()` bytes at record-area offset `off`. Fails with
    /// `OutOfRange` past the allocated pages (replay treats that as the
    /// end of the log).
    fn read_bytes(&self, off: u64, buf: &mut [u8]) -> Result<(), StoreError> {
        let mut page_img = [0u8; PAGE_SIZE];
        let mut done = 0usize;
        while done < buf.len() {
            let abs = off + done as u64;
            let page = 1 + bytes::lo32(abs / PAGE_SIZE as u64);
            let in_page = (abs % PAGE_SIZE as u64) as usize;
            let n = (PAGE_SIZE - in_page).min(buf.len() - done);
            self.store.read_page(page, &mut page_img)?;
            buf[done..done + n].copy_from_slice(&page_img[in_page..in_page + n]);
            done += n;
        }
        Ok(())
    }

    /// Writes `buf` at record-area offset `off`, allocating pages as
    /// needed and read-modify-writing partial pages.
    fn write_bytes(&mut self, off: u64, buf: &[u8]) -> Result<(), StoreError> {
        let mut page_img = [0u8; PAGE_SIZE];
        let mut done = 0usize;
        while done < buf.len() {
            let abs = off + done as u64;
            let page = 1 + bytes::lo32(abs / PAGE_SIZE as u64);
            let in_page = (abs % PAGE_SIZE as u64) as usize;
            let n = (PAGE_SIZE - in_page).min(buf.len() - done);
            while self.store.page_count() <= page {
                self.store.allocate()?;
            }
            if in_page == 0 && n == PAGE_SIZE {
                page_img.copy_from_slice(&buf[done..done + n]);
            } else {
                self.store.read_page(page, &mut page_img)?;
                page_img[in_page..in_page + n].copy_from_slice(&buf[done..done + n]);
            }
            self.store.write_page(page, &page_img)?;
            done += n;
        }
        Ok(())
    }
}

/// Builds a [`WalRecord`] for one insert: the tuple is encoded with the
/// relation's row codec (schema mismatches surface before anything is
/// logged).
pub fn make_wal_record(
    epoch: u64,
    seq: u64,
    relation: &str,
    schema: &sma_types::Schema,
    tuple: &Tuple,
) -> Result<WalRecord, sma_types::CodecError> {
    if let Err(e) = schema.validate(tuple) {
        return Err(sma_types::CodecError(format!(
            "tuple does not fit relation {relation}: {e}"
        )));
    }
    let mut row = Vec::new();
    sma_types::row::encode(schema, tuple, &mut row)?;
    Ok(WalRecord {
        epoch,
        seq,
        relation: relation.to_string(),
        row,
    })
}

fn write_header(store: &mut dyn PageStore, epoch: u64) -> Result<(), StoreError> {
    let mut body = Vec::with_capacity(HEADER_BODY + 4);
    body.extend_from_slice(MAGIC);
    bytes::put_u64_le(&mut body, epoch);
    let sum = crc32(&body);
    bytes::put_u32_le(&mut body, sum);
    let mut page = [0u8; PAGE_SIZE];
    page[..body.len()].copy_from_slice(&body);
    if store.page_count() == 0 {
        store.allocate()?;
    }
    store.write_page(0, &page)
}

/// Reads and verifies the header page. `Ok(None)` means missing or
/// corrupt (the caller reinitializes); hard I/O errors propagate.
fn read_header(store: &dyn PageStore) -> Result<Option<u64>, StoreError> {
    if store.page_count() == 0 {
        return Ok(None);
    }
    let mut page = [0u8; PAGE_SIZE];
    store.read_page(0, &mut page)?;
    if &page[..4] != MAGIC {
        return Ok(None);
    }
    let want = match bytes::get_u32_le(&page, HEADER_BODY) {
        Some(w) => w,
        None => return Ok(None),
    };
    if crc32(&page[..HEADER_BODY]) != want {
        return Ok(None);
    }
    Ok(bytes::get_u64_le(&page, 4))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::{MemStore, PageNo};

    fn rec(epoch: u64, seq: u64) -> WalRecord {
        WalRecord {
            epoch,
            seq,
            relation: "T".into(),
            row: vec![seq as u8; 100],
        }
    }

    #[test]
    fn append_sync_replay_roundtrip() {
        let mut wal = Wal::create(MemStore::new(), 1).unwrap();
        for seq in 1..=50u64 {
            wal.append(&rec(1, seq)).unwrap();
            wal.sync().unwrap();
        }
        let (wal2, replay) = Wal::open(wal.into_store(), 99).unwrap();
        assert!(!replay.torn_tail && !replay.header_reset);
        assert_eq!(replay.records.len(), 50);
        assert_eq!(replay.records[49], rec(1, 50));
        assert_eq!(wal2.epoch(), 1);
    }

    #[test]
    fn truncate_empties_and_stale_frames_never_replay() {
        let mut wal = Wal::create(MemStore::new(), 1).unwrap();
        for seq in 1..=20u64 {
            wal.append(&rec(1, seq)).unwrap();
        }
        wal.sync().unwrap();
        wal.truncate(2).unwrap();
        assert_eq!(wal.tail_bytes(), 0);
        // A couple of new-epoch records overwrite the start of the old
        // ones; replay must yield exactly the new records.
        wal.append(&rec(2, 21)).unwrap();
        wal.append(&rec(2, 22)).unwrap();
        wal.sync().unwrap();
        let (_, replay) = Wal::open(wal.into_store(), 99).unwrap();
        assert_eq!(
            replay.records.iter().map(|r| r.seq).collect::<Vec<_>>(),
            vec![21, 22]
        );
    }

    #[test]
    fn empty_log_replays_empty() {
        let wal = Wal::create(MemStore::new(), 7).unwrap();
        let (wal2, replay) = Wal::open(wal.into_store(), 99).unwrap();
        assert_eq!(replay, WalReplay::default());
        assert_eq!(wal2.epoch(), 7);
    }

    #[test]
    fn missing_header_resets_to_fallback_epoch() {
        let (wal, replay) = Wal::open(MemStore::new(), 5).unwrap();
        assert!(replay.header_reset);
        assert!(replay.records.is_empty());
        assert_eq!(wal.epoch(), 5);
    }

    #[test]
    fn corrupt_header_resets() {
        let wal = Wal::create(MemStore::new(), 3).unwrap();
        let mut store = wal.into_store();
        crate::test_util::flip_bit(&mut store, 0, 40).unwrap();
        let (wal2, replay) = Wal::open(store, 8).unwrap();
        assert!(replay.header_reset);
        assert_eq!(wal2.epoch(), 8);
    }

    #[test]
    fn epoch_mismatched_append_is_rejected() {
        let mut wal = Wal::create(MemStore::new(), 1).unwrap();
        assert!(wal.append(&rec(2, 1)).is_err());
    }

    #[test]
    fn torn_frame_ends_replay_and_is_zeroed() {
        let mut wal = Wal::create(MemStore::new(), 1).unwrap();
        for seq in 1..=3u64 {
            wal.append(&rec(1, seq)).unwrap();
        }
        wal.sync().unwrap();
        let keep = wal.tail_bytes();
        wal.append(&rec(1, 4)).unwrap(); // will be torn below
        let mut store = wal.into_store();
        // Corrupt one payload byte of the fourth frame.
        let abs = PAGE_SIZE as u64 + keep + FRAME_HEADER + 3;
        let page = (abs / PAGE_SIZE as u64) as PageNo;
        let bit = ((abs % PAGE_SIZE as u64) * 8) as u32;
        crate::test_util::flip_bit(&mut store, page, bit).unwrap();
        let (wal2, replay) = Wal::open(store, 99).unwrap();
        assert!(replay.torn_tail);
        assert_eq!(replay.records.len(), 3);
        assert_eq!(wal2.tail_bytes(), keep);
        // Reopening after the zeroing sees a clean end, not a torn one.
        let (_, replay2) = Wal::open(wal2.into_store(), 99).unwrap();
        assert!(!replay2.torn_tail);
        assert_eq!(replay2.records.len(), 3);
    }

    #[test]
    fn failed_sync_discards_every_frame_since_the_last_good_one() {
        use crate::test_util::{FaultConfig, FaultPlan};
        // A schedule whose syncs go: create ok, ok, FAIL, ok.
        let config = (0..)
            .map(|seed| FaultConfig::seeded(seed).with_sync_faults(50))
            .find(|c| {
                let p = FaultPlan::new(MemStore::new(), *c);
                (0..4)
                    .map(|i| p.sync_fails_at(i))
                    .eq([false, false, true, false])
            })
            .unwrap();
        let mut wal = Wal::create(FaultPlan::new(MemStore::new(), config), 1).unwrap();
        wal.append(&rec(1, 1)).unwrap();
        wal.sync().unwrap();
        let synced = wal.tail_bytes();
        wal.append(&rec(1, 2)).unwrap();
        wal.append(&rec(1, 3)).unwrap();
        assert!(wal.sync().is_err());
        assert_eq!(
            wal.tail_bytes(),
            synced,
            "the tail is back at the good sync"
        );
        let seqs = |wal: &Wal<FaultPlan<MemStore>>| {
            let (_, replay) = Wal::open(wal.store().inner().clone(), 99).unwrap();
            replay.records.iter().map(|r| r.seq).collect::<Vec<_>>()
        };
        assert_eq!(seqs(&wal), vec![1], "replay ends at the good sync");
        wal.append(&rec(1, 4)).unwrap();
        wal.sync().unwrap();
        assert_eq!(seqs(&wal), vec![1, 4], "the discarded frames never replay");
    }

    /// Regression: a truncation whose sync fails must not leave the log
    /// on its old epoch. The new header may already be in the file; the
    /// next good sync makes it durable, and an old-epoch frame behind it
    /// ends replay, losing the row that sync acknowledged.
    #[test]
    fn failed_truncate_switches_epoch_and_the_next_sync_writes_the_header() {
        use crate::test_util::{FaultConfig, FaultPlan};
        // A schedule whose syncs go: create ok, ok, FAIL (the truncation),
        // ok.
        let config = (0..)
            .map(|seed| FaultConfig::seeded(seed).with_sync_faults(50))
            .find(|c| {
                let p = FaultPlan::new(MemStore::new(), *c);
                (0..4)
                    .map(|i| p.sync_fails_at(i))
                    .eq([false, false, true, false])
            })
            .unwrap();
        let mut wal = Wal::create(FaultPlan::new(MemStore::new(), config), 1).unwrap();
        wal.append(&rec(1, 1)).unwrap();
        wal.sync().unwrap();
        assert!(wal.truncate(2).is_err());
        assert_eq!(wal.epoch(), 2, "later frames carry the new epoch");
        assert_eq!(wal.tail_bytes(), 0);
        wal.append(&rec(2, 2)).unwrap();
        wal.sync().unwrap();
        let (wal2, replay) = Wal::open(wal.store().inner().clone(), 99).unwrap();
        assert!(!replay.header_reset);
        assert_eq!(wal2.epoch(), 2);
        assert_eq!(replay.records, vec![rec(2, 2)], "the acked frame replays");
    }

    #[test]
    fn hard_read_error_mid_log_propagates_instead_of_truncating() {
        use crate::test_util::{FlakyStore, READ_FAILURE};
        use std::sync::atomic::Ordering;
        // Budget 2: header page + first frame header read fine, then the
        // device dies mid-payload. Budget 3: the device dies on the second
        // frame's header read. Both are hard faults over perfectly valid
        // acknowledged frames — treating them as end-of-log (or worse,
        // zeroing the "torn" frame) would silently destroy the log's tail.
        for budget in [2u64, 3] {
            let mut wal = Wal::create(FlakyStore::new(u64::MAX), 1).unwrap();
            for seq in 1..=40u64 {
                wal.append(&rec(1, seq)).unwrap();
            }
            wal.sync().unwrap();
            let store = wal.into_store();
            store.budget_handle().store(budget, Ordering::Relaxed);
            match Wal::open(store, 1) {
                Ok(_) => panic!("budget {budget}: the device fault was swallowed"),
                Err(e) => assert!(e.to_string().contains(READ_FAILURE), "budget {budget}: {e}"),
            }
        }
    }

    #[test]
    fn make_record_rejects_schema_mismatch() {
        use sma_types::{Column, DataType, Schema, Value};
        let schema = Schema::new(vec![Column::new("A", DataType::Int)]);
        assert!(make_wal_record(1, 1, "T", &schema, &vec![Value::Char(b'x')]).is_err());
        let rec = make_wal_record(1, 1, "T", &schema, &vec![Value::Int(5)]).unwrap();
        assert_eq!(rec.relation, "T");
        assert!(!rec.row.is_empty());
    }
}

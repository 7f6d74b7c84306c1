//! Slotted 4 KiB pages.
//!
//! The paper assumes "a bucket corresponds to a 4K-page" in its space
//! arithmetic (§2.1), so pages here are fixed at [`PAGE_SIZE`] bytes with a
//! classic slotted layout:
//!
//! ```text
//! +--------+-----------------+ .... +----------------+
//! | header | slot directory →|      |← tuple images  |
//! +--------+-----------------+ .... +----------------+
//! ```
//!
//! The slot directory grows upward from the header, tuple images grow
//! downward from the end of the *payload region*. Deleting a tuple leaves a
//! tombstone slot (`len == 0`), so slot ids stay stable — SMA maintenance
//! relies on tuples not moving between buckets.
//!
//! The last [`PAGE_FOOTER_LEN`] bytes of every page are reserved for a
//! durability footer the buffer pool maintains on write-back:
//!
//! ```text
//! | write counter: u32 | crc32 over bytes [0, PAGE_SIZE-4): u32 |
//! ```
//!
//! The write counter is an LSN-style generation number (bumped on every
//! write-back); the CRC covers the payload *and* the counter, so a bit flip
//! anywhere in the page is detected on the next read ([`verify_page`]). A
//! page whose footer is all zeroes has never been stamped (freshly
//! allocated) and verifies trivially.

#![deny(clippy::indexing_slicing, clippy::cast_possible_truncation)]

use std::fmt;

use crate::checksum::crc32;
use sma_types::bytes;

/// Narrows a page offset/length to the `u16` the slotted header stores.
/// Every caller passes a value `< PAGE_SIZE` (4096), so this is lossless;
/// the saturation is a defensive bound, never a wrap.
fn off16(n: usize) -> u16 {
    u16::try_from(n).unwrap_or(u16::MAX)
}

/// Page size in bytes (fixed, as in the paper's space accounting).
pub const PAGE_SIZE: usize = 4096;

/// Bytes reserved at the end of every page for the checksum footer.
pub const PAGE_FOOTER_LEN: usize = 8;

/// End of the slotted payload region (tuple images live below this).
pub(crate) const PAYLOAD_END: usize = PAGE_SIZE - PAGE_FOOTER_LEN;

const HEADER_LEN: usize = 4; // n_slots: u16, free_end: u16
const SLOT_LEN: usize = 4; // offset: u16, len: u16

/// Largest tuple image an empty page can hold (payload minus header and
/// one slot entry).
pub const MAX_TUPLE_BYTES: usize = PAYLOAD_END - HEADER_LEN - SLOT_LEN;

const COUNTER_OFF: usize = PAGE_SIZE - 8;
const CRC_OFF: usize = PAGE_SIZE - 4;

/// The footer's write counter (0 = never stamped).
pub fn page_write_counter(buf: &[u8; PAGE_SIZE]) -> u32 {
    // COUNTER_OFF + 4 == PAGE_SIZE - 4, always in bounds for a full page.
    bytes::get_u32_le(buf.as_slice(), COUNTER_OFF).unwrap_or(0)
}

/// Bumps the write counter and recomputes the footer CRC. Called by the
/// buffer pool on every write-back so on-store images are self-verifying.
pub fn stamp_page(buf: &mut [u8; PAGE_SIZE]) {
    let counter = page_write_counter(buf).wrapping_add(1).max(1);
    buf[COUNTER_OFF..CRC_OFF].copy_from_slice(&counter.to_le_bytes());
    let crc = crc32(&buf[..CRC_OFF]);
    buf[CRC_OFF..].copy_from_slice(&crc.to_le_bytes());
}

/// Checks the footer CRC of a page image read from a store.
///
/// Returns `Err(detail)` on a mismatch. An all-zero footer means the page
/// was never written back through the pool (e.g. freshly allocated) and
/// passes: there is nothing durable to protect yet.
pub fn verify_page(buf: &[u8; PAGE_SIZE]) -> Result<(), String> {
    let counter = page_write_counter(buf);
    let stored = bytes::get_u32_le(buf.as_slice(), CRC_OFF).unwrap_or(0);
    if counter == 0 && stored == 0 {
        return Ok(());
    }
    let computed = crc32(&buf[..CRC_OFF]);
    if computed != stored {
        return Err(format!(
            "checksum mismatch: stored {stored:#010x}, computed {computed:#010x} \
             (write counter {counter})"
        ));
    }
    Ok(())
}

/// Index of a slot within a page.
pub type SlotId = u16;

/// A fixed-size slotted page.
///
/// The page owns its bytes; the buffer pool hands out copies or closures
/// over these. All offsets are validated on access so a corrupted image
/// surfaces as a panic in debug and an error in [`SlottedPage::from_bytes`].
#[derive(Clone)]
pub struct SlottedPage {
    data: Box<[u8; PAGE_SIZE]>,
}

impl fmt::Debug for SlottedPage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SlottedPage")
            .field("slots", &self.slot_count())
            .field("live", &self.live_count())
            .field("free", &self.free_space())
            .finish()
    }
}

impl Default for SlottedPage {
    fn default() -> Self {
        Self::new()
    }
}

impl SlottedPage {
    /// Creates an empty page.
    #[expect(
        clippy::indexing_slicing,
        reason = "data is a PAGE_SIZE array, so the constant header range 2..4 is in bounds"
    )]
    pub fn new() -> SlottedPage {
        let mut data = Box::new([0u8; PAGE_SIZE]);
        // free_end starts at the payload end (the footer is reserved).
        data[2..4].copy_from_slice(&off16(PAYLOAD_END).to_le_bytes());
        SlottedPage { data }
    }

    /// Wraps a raw page image, validating the header and slot directory.
    pub fn from_bytes(bytes: &[u8]) -> Result<SlottedPage, PageError> {
        if bytes.len() != PAGE_SIZE {
            return Err(PageError(format!("page image is {} bytes", bytes.len())));
        }
        let mut data = Box::new([0u8; PAGE_SIZE]);
        data.copy_from_slice(bytes);
        let page = SlottedPage { data };
        let n = page.slot_count();
        let free_end = page.free_end() as usize;
        if HEADER_LEN + usize::from(n) * SLOT_LEN > free_end || free_end > PAYLOAD_END {
            return Err(PageError(format!(
                "corrupt header: {n} slots, free_end {free_end}"
            )));
        }
        for s in 0..n {
            let (off, len) = page.slot(s);
            if len > 0 && (off as usize) < free_end {
                return Err(PageError(format!(
                    "slot {s} points into free space (off {off}, free_end {free_end})"
                )));
            }
            if off as usize + len as usize > PAYLOAD_END {
                return Err(PageError(format!("slot {s} overruns payload region")));
            }
        }
        Ok(page)
    }

    /// The raw page image.
    pub fn as_bytes(&self) -> &[u8; PAGE_SIZE] {
        &self.data
    }

    fn slot_count(&self) -> u16 {
        bytes::get_u16_le(self.data.as_slice(), 0).unwrap_or(0)
    }

    fn free_end(&self) -> u16 {
        bytes::get_u16_le(self.data.as_slice(), 2).unwrap_or(0)
    }

    #[expect(
        clippy::indexing_slicing,
        reason = "data is a PAGE_SIZE array, so the constant header range 0..2 is in bounds"
    )]
    fn set_slot_count(&mut self, n: u16) {
        self.data[0..2].copy_from_slice(&n.to_le_bytes());
    }

    #[expect(
        clippy::indexing_slicing,
        reason = "data is a PAGE_SIZE array, so the constant header range 2..4 is in bounds"
    )]
    fn set_free_end(&mut self, e: u16) {
        self.data[2..4].copy_from_slice(&e.to_le_bytes());
    }

    #[expect(
        clippy::indexing_slicing,
        reason = "callers pass id < slot_count(), and the header check HEADER_LEN + slot_count * SLOT_LEN <= free_end <= PAYLOAD_END bounds every slot entry"
    )]
    fn slot(&self, id: SlotId) -> (u16, u16) {
        let base = HEADER_LEN + id as usize * SLOT_LEN;
        (
            u16::from_le_bytes([self.data[base], self.data[base + 1]]),
            u16::from_le_bytes([self.data[base + 2], self.data[base + 3]]),
        )
    }

    #[expect(
        clippy::indexing_slicing,
        reason = "callers pass id < slot_count(), or id == slot_count() after insert's free_space() check reserved SLOT_LEN bytes for the new entry"
    )]
    fn set_slot(&mut self, id: SlotId, off: u16, len: u16) {
        let base = HEADER_LEN + id as usize * SLOT_LEN;
        self.data[base..base + 2].copy_from_slice(&off.to_le_bytes());
        self.data[base + 2..base + 4].copy_from_slice(&len.to_le_bytes());
    }

    /// Number of slots ever allocated (including tombstones).
    pub fn slots(&self) -> u16 {
        self.slot_count()
    }

    /// Number of live (non-deleted) tuples.
    pub fn live_count(&self) -> usize {
        (0..self.slot_count())
            .filter(|&s| self.slot(s).1 > 0)
            .count()
    }

    /// Bytes available for one more insert (accounting for its slot entry).
    pub fn free_space(&self) -> usize {
        let used_top = HEADER_LEN + self.slot_count() as usize * SLOT_LEN;
        (self.free_end() as usize)
            .saturating_sub(used_top)
            .saturating_sub(SLOT_LEN)
    }

    /// Inserts a tuple image, returning its slot, or `None` if it does not fit.
    #[expect(
        clippy::indexing_slicing,
        reason = "the image.len() > free_space() check keeps new_end..new_end + len inside [free_end - len, free_end), and free_end <= PAYLOAD_END"
    )]
    pub fn insert(&mut self, image: &[u8]) -> Option<SlotId> {
        if image.len() > self.free_space() || image.is_empty() {
            return None;
        }
        let id = self.slot_count();
        let new_end = self.free_end() as usize - image.len();
        self.data[new_end..new_end + image.len()].copy_from_slice(image);
        self.set_slot(id, off16(new_end), off16(image.len()));
        self.set_slot_count(id + 1);
        self.set_free_end(off16(new_end));
        self.debug_validate("insert");
        Some(id)
    }

    /// Returns the tuple image in `slot`, or `None` for tombstones and
    /// out-of-range slots.
    #[expect(
        clippy::indexing_slicing,
        reason = "the slot >= slot_count() check, and from_bytes' off + len <= PAYLOAD_END check on every slot, bound the image range"
    )]
    pub fn get(&self, slot: SlotId) -> Option<&[u8]> {
        if slot >= self.slot_count() {
            return None;
        }
        let (off, len) = self.slot(slot);
        if len == 0 {
            return None;
        }
        Some(&self.data[off as usize..(off + len) as usize])
    }

    /// Deletes the tuple in `slot` (tombstoning it). Returns whether a live
    /// tuple was removed. Space is not reclaimed until page rewrite —
    /// matching the append-mostly warehouse workload the paper targets.
    pub fn delete(&mut self, slot: SlotId) -> bool {
        if slot >= self.slot_count() || self.slot(slot).1 == 0 {
            return false;
        }
        let (off, _) = self.slot(slot);
        self.set_slot(slot, off, 0);
        true
    }

    /// Overwrites the tuple in `slot` if the new image has the same length
    /// (the common case for our fixed-width-heavy schema); otherwise
    /// tombstones and re-inserts, returning the new slot.
    #[expect(
        clippy::indexing_slicing,
        reason = "the slot >= slot_count() check and len == image.len() make the range the slot's own image, which ends at or before PAYLOAD_END"
    )]
    pub fn update(&mut self, slot: SlotId, image: &[u8]) -> Option<SlotId> {
        if slot >= self.slot_count() {
            return None;
        }
        let (off, len) = self.slot(slot);
        if len == 0 {
            return None;
        }
        if len as usize == image.len() {
            self.data[off as usize..off as usize + image.len()].copy_from_slice(image);
            self.debug_validate("update");
            return Some(slot);
        }
        self.delete(slot);
        self.insert(image)
    }

    /// Iterates over `(slot, image)` for live tuples, in slot order.
    pub fn iter(&self) -> impl Iterator<Item = (SlotId, &[u8])> + '_ {
        (0..self.slot_count()).filter_map(move |s| self.get(s).map(|img| (s, img)))
    }

    /// Bytes currently wasted by tombstoned tuples (reclaimable by
    /// [`SlottedPage::compact`]).
    pub fn dead_space(&self) -> usize {
        let live: usize = self.iter().map(|(_, img)| img.len()).sum();
        PAYLOAD_END - self.free_end() as usize - live
    }

    /// Rewrites the page in place, squeezing out tombstoned tuples' data
    /// while keeping every live tuple in its slot (slot ids are stable —
    /// SMA maintenance depends on that). Returns the bytes reclaimed.
    #[expect(
        clippy::indexing_slicing,
        reason = "end starts at PAYLOAD_END and drops by the live image lengths, whose sum is PAYLOAD_END - free_end - dead_space(), so end never passes free_end"
    )]
    pub fn compact(&mut self) -> usize {
        let reclaimed = self.dead_space();
        if reclaimed == 0 {
            return 0;
        }
        let n = self.slot_count();
        let mut images: Vec<Option<Vec<u8>>> =
            (0..n).map(|s| self.get(s).map(<[u8]>::to_vec)).collect();
        let mut end = PAYLOAD_END;
        for (s, img) in (0..n).zip(images.drain(..)) {
            match img {
                Some(img) => {
                    end -= img.len();
                    self.data[end..end + img.len()].copy_from_slice(&img);
                    self.set_slot(s, off16(end), off16(img.len()));
                }
                None => self.set_slot(s, 0, 0),
            }
        }
        self.set_free_end(off16(end));
        self.debug_validate("compact");
        reclaimed
    }

    /// Verifies the slot directory's structural invariants: the header is
    /// in range, every live slot's image lies inside the used payload
    /// region, and no two live images overlap. [`SlottedPage::from_bytes`]
    /// runs a subset of this on entry; this full check is the debug-build
    /// postcondition of every mutation ([`SlottedPage::insert`],
    /// [`SlottedPage::update`], [`SlottedPage::compact`]).
    pub fn check_invariants(&self) -> Result<(), PageError> {
        let n = self.slot_count() as usize;
        let free_end = self.free_end() as usize;
        if HEADER_LEN + n * SLOT_LEN > free_end || free_end > PAYLOAD_END {
            return Err(PageError(format!(
                "corrupt header: {n} slots, free_end {free_end}"
            )));
        }
        let mut live: Vec<(usize, usize)> = Vec::new();
        for s in 0..self.slot_count() {
            let (off, len) = self.slot(s);
            let (off, len) = (off as usize, len as usize);
            if len == 0 {
                continue;
            }
            if off < free_end || off + len > PAYLOAD_END {
                return Err(PageError(format!(
                    "slot {s} image [{off}, {}) escapes the used region [{free_end}, {PAYLOAD_END})",
                    off + len
                )));
            }
            live.push((off, len));
        }
        live.sort_unstable();
        for pair in live.windows(2) {
            let &[(a_off, a_len), (b_off, _)] = pair else {
                continue;
            };
            if a_off + a_len > b_off {
                return Err(PageError(format!(
                    "overlapping tuple images at offsets {a_off} and {b_off}"
                )));
            }
        }
        Ok(())
    }

    /// Debug-build hook: asserts [`SlottedPage::check_invariants`] after a
    /// mutation. Compiles to nothing in release builds.
    fn debug_validate(&self, op: &str) {
        if cfg!(debug_assertions) {
            if let Err(e) = self.check_invariants() {
                debug_assert!(false, "slot directory corrupt after {op}: {e}");
            }
        }
    }
}

/// Visits every live tuple image of a raw page image in slot order,
/// **without** copying the page into an owned [`SlottedPage`] first.
///
/// Runs the same header and slot-directory validation as
/// [`SlottedPage::from_bytes`] before visiting, then calls
/// `f(slot, image)` with images borrowed straight from `buf` — this is
/// the zero-copy primitive behind the table layer's lending bucket
/// visitors. The error type is generic so callers can thread their own
/// error through the closure (`E: From<PageError>` covers the
/// validation failures raised here).
#[expect(
    clippy::indexing_slicing,
    reason = "the HEADER_LEN + n * SLOT_LEN > free_end || free_end > PAYLOAD_END check bounds every slot entry, and the off + len > PAYLOAD_END check bounds every image"
)]
pub fn for_each_image<E, F>(buf: &[u8; PAGE_SIZE], mut f: F) -> Result<(), E>
where
    E: From<PageError>,
    F: FnMut(SlotId, &[u8]) -> Result<(), E>,
{
    let n = bytes::get_u16_le(buf.as_slice(), 0).unwrap_or(0);
    let free_end = usize::from(bytes::get_u16_le(buf.as_slice(), 2).unwrap_or(0));
    if HEADER_LEN + usize::from(n) * SLOT_LEN > free_end || free_end > PAYLOAD_END {
        return Err(PageError(format!("corrupt header: {n} slots, free_end {free_end}")).into());
    }
    let slot = |s: SlotId| {
        let base = HEADER_LEN + usize::from(s) * SLOT_LEN;
        (
            u16::from_le_bytes([buf[base], buf[base + 1]]) as usize,
            u16::from_le_bytes([buf[base + 2], buf[base + 3]]) as usize,
        )
    };
    for s in 0..n {
        let (off, len) = slot(s);
        if len > 0 && off < free_end {
            return Err(PageError(format!(
                "slot {s} points into free space (off {off}, free_end {free_end})"
            ))
            .into());
        }
        if off + len > PAYLOAD_END {
            return Err(PageError(format!("slot {s} overruns payload region")).into());
        }
    }
    for s in 0..n {
        let (off, len) = slot(s);
        if len > 0 {
            f(s, &buf[off..off + len])?;
        }
    }
    Ok(())
}

impl SlottedPage {
    /// Visits every live tuple image in slot order — the owned-page
    /// counterpart of the free function [`for_each_image`].
    pub fn for_each_image<E, F>(&self, f: F) -> Result<(), E>
    where
        E: From<PageError>,
        F: FnMut(SlotId, &[u8]) -> Result<(), E>,
    {
        for_each_image(&self.data, f)
    }
}

/// Error produced when validating a raw page image.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PageError(pub String);

impl fmt::Display for PageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "page error: {}", self.0)
    }
}

impl std::error::Error for PageError {}

#[cfg(test)]
mod tests {
    use super::*;
    use sma_types::StdRng;

    #[test]
    fn insert_and_get() {
        let mut p = SlottedPage::new();
        let a = p.insert(b"hello").unwrap();
        let b = p.insert(b"world!").unwrap();
        assert_eq!(p.get(a), Some(&b"hello"[..]));
        assert_eq!(p.get(b), Some(&b"world!"[..]));
        assert_eq!(p.live_count(), 2);
    }

    #[test]
    fn fills_up_and_rejects() {
        let mut p = SlottedPage::new();
        let image = [7u8; 100];
        let mut n = 0;
        while p.insert(&image).is_some() {
            n += 1;
        }
        // 100 bytes payload + 4 bytes slot ≈ 39 tuples in 4084 usable bytes.
        assert!((38..=40).contains(&n), "unexpected fill count {n}");
        assert!(p.insert(&image).is_none());
        assert!(
            p.insert(&[1u8; 1]).is_some(),
            "small tuple should still fit"
        );
    }

    #[test]
    fn rejects_empty_and_oversized() {
        let mut p = SlottedPage::new();
        assert!(p.insert(&[]).is_none());
        assert!(p.insert(&[0u8; PAGE_SIZE]).is_none());
    }

    #[test]
    fn delete_tombstones() {
        let mut p = SlottedPage::new();
        let a = p.insert(b"abc").unwrap();
        let b = p.insert(b"def").unwrap();
        assert!(p.delete(a));
        assert!(!p.delete(a), "double delete is a no-op");
        assert_eq!(p.get(a), None);
        assert_eq!(p.get(b), Some(&b"def"[..]), "other slots unaffected");
        assert_eq!(p.live_count(), 1);
        assert_eq!(p.iter().count(), 1);
    }

    #[test]
    fn update_same_len_in_place() {
        let mut p = SlottedPage::new();
        let a = p.insert(b"abc").unwrap();
        assert_eq!(p.update(a, b"xyz"), Some(a));
        assert_eq!(p.get(a), Some(&b"xyz"[..]));
    }

    #[test]
    fn update_different_len_moves() {
        let mut p = SlottedPage::new();
        let a = p.insert(b"abc").unwrap();
        let b = p.update(a, b"longer image").unwrap();
        assert_ne!(a, b);
        assert_eq!(p.get(a), None);
        assert_eq!(p.get(b), Some(&b"longer image"[..]));
    }

    #[test]
    fn update_missing_slot() {
        let mut p = SlottedPage::new();
        assert_eq!(p.update(0, b"x"), None);
        let a = p.insert(b"abc").unwrap();
        p.delete(a);
        assert_eq!(p.update(a, b"x"), None, "tombstone not updatable");
    }

    #[test]
    fn from_bytes_roundtrip() {
        let mut p = SlottedPage::new();
        p.insert(b"abc");
        p.insert(b"defgh");
        let q = SlottedPage::from_bytes(p.as_bytes()).unwrap();
        assert_eq!(q.get(0), Some(&b"abc"[..]));
        assert_eq!(q.get(1), Some(&b"defgh"[..]));
    }

    #[test]
    fn from_bytes_rejects_garbage() {
        assert!(SlottedPage::from_bytes(&[0u8; 17]).is_err());
        let mut garbage = [0xFFu8; PAGE_SIZE];
        garbage[0] = 200; // huge slot count with tiny free_end
        assert!(SlottedPage::from_bytes(&garbage).is_err());
    }

    #[test]
    fn compact_reclaims_dead_space() {
        let mut p = SlottedPage::new();
        let a = p.insert(&[1u8; 500]).unwrap();
        let b = p.insert(&[2u8; 500]).unwrap();
        let c = p.insert(&[3u8; 500]).unwrap();
        p.delete(b);
        assert_eq!(p.dead_space(), 500);
        let before_free = p.free_space();
        assert_eq!(p.compact(), 500);
        assert_eq!(p.dead_space(), 0);
        assert_eq!(p.free_space(), before_free + 500);
        // Live tuples keep their slots and contents.
        assert_eq!(p.get(a), Some(&[1u8; 500][..]));
        assert_eq!(p.get(b), None);
        assert_eq!(p.get(c), Some(&[3u8; 500][..]));
        // Reclaimed space is usable.
        assert!(p.insert(&[4u8; 900]).is_some());
        // Compacting a clean page is a no-op.
        assert_eq!(p.compact(), 0);
    }

    #[test]
    fn footer_stamp_and_verify() {
        let mut p = SlottedPage::new();
        p.insert(b"hello footer").unwrap();
        let mut img = *p.as_bytes();
        // Unstamped pages verify trivially.
        assert_eq!(page_write_counter(&img), 0);
        verify_page(&img).unwrap();
        stamp_page(&mut img);
        assert_eq!(page_write_counter(&img), 1);
        verify_page(&img).unwrap();
        stamp_page(&mut img);
        assert_eq!(page_write_counter(&img), 2, "counter is monotone");
        verify_page(&img).unwrap();
        // The stamped image still parses and the footer never collides
        // with tuple data.
        let q = SlottedPage::from_bytes(&img).unwrap();
        assert_eq!(q.get(0), Some(&b"hello footer"[..]));
    }

    #[test]
    fn footer_detects_any_single_bit_flip() {
        let mut p = SlottedPage::new();
        p.insert(&[0xA5u8; 64]).unwrap();
        let mut img = *p.as_bytes();
        stamp_page(&mut img);
        // Payload, header, counter, and crc flips are all caught.
        for bit in [
            3usize,
            8 * 2 + 1,
            8 * 4000,
            8 * (PAGE_SIZE - 8),
            8 * (PAGE_SIZE - 1) + 7,
        ] {
            img[bit / 8] ^= 1 << (bit % 8);
            assert!(verify_page(&img).is_err(), "bit {bit} flip undetected");
            img[bit / 8] ^= 1 << (bit % 8);
        }
        verify_page(&img).unwrap();
    }

    #[test]
    fn max_tuple_fits_exactly() {
        let mut p = SlottedPage::new();
        assert_eq!(p.free_space(), MAX_TUPLE_BYTES);
        assert!(p.insert(&[7u8; MAX_TUPLE_BYTES]).is_some());
        assert_eq!(p.free_space(), 0);
    }

    /// One random insert-or-delete op; inserts carry payloads up to
    /// `max_len` bytes of random content.
    fn random_op(rng: &mut StdRng, max_len: usize) -> Op {
        if rng.random_range(0u32..2) == 0 {
            let len = rng.random_range(1usize..max_len);
            Op::Insert((0..len).map(|_| rng.random_range(0u8..=u8::MAX)).collect())
        } else {
            Op::Delete(rng.random_range(0u16..64))
        }
    }

    #[test]
    fn compact_preserves_live_tuples() {
        let mut rng = StdRng::seed_from_u64(0x9A6E1);
        for _ in 0..128 {
            let mut page = SlottedPage::new();
            for _ in 0..rng.random_range(0usize..80) {
                match random_op(&mut rng, 150) {
                    Op::Insert(img) => {
                        page.insert(&img);
                    }
                    Op::Delete(s) => {
                        page.delete(s);
                    }
                }
            }
            let before: Vec<(u16, Vec<u8>)> =
                page.iter().map(|(s, img)| (s, img.to_vec())).collect();
            page.compact();
            let after: Vec<(u16, Vec<u8>)> =
                page.iter().map(|(s, img)| (s, img.to_vec())).collect();
            assert_eq!(before, after);
            assert_eq!(page.dead_space(), 0);
            // Survives serialization.
            SlottedPage::from_bytes(page.as_bytes()).unwrap();
        }
    }

    #[test]
    fn model_check() {
        let mut rng = StdRng::seed_from_u64(0x9A6E2);
        for _ in 0..128 {
            let mut page = SlottedPage::new();
            let mut model: Vec<Option<Vec<u8>>> = Vec::new();
            for _ in 0..rng.random_range(0usize..120) {
                match random_op(&mut rng, 200) {
                    Op::Insert(img) => {
                        if let Some(slot) = page.insert(&img) {
                            assert_eq!(slot as usize, model.len());
                            model.push(Some(img));
                        }
                    }
                    Op::Delete(s) => {
                        let expect = (s as usize) < model.len() && model[s as usize].is_some();
                        assert_eq!(page.delete(s), expect);
                        if expect {
                            model[s as usize] = None;
                        }
                    }
                }
            }
            for (i, m) in model.iter().enumerate() {
                assert_eq!(page.get(u16::try_from(i).unwrap()), m.as_deref());
            }
            assert_eq!(page.live_count(), model.iter().flatten().count());
            // Image survives serialization.
            let reread = SlottedPage::from_bytes(page.as_bytes()).unwrap();
            for (i, m) in model.iter().enumerate() {
                assert_eq!(reread.get(u16::try_from(i).unwrap()), m.as_deref());
            }
        }
    }

    #[test]
    fn for_each_image_matches_iter() {
        let mut rng = StdRng::seed_from_u64(0x9A6E3);
        for _ in 0..64 {
            let mut page = SlottedPage::new();
            for _ in 0..rng.random_range(0usize..80) {
                match random_op(&mut rng, 150) {
                    Op::Insert(img) => {
                        page.insert(&img);
                    }
                    Op::Delete(s) => {
                        page.delete(s);
                    }
                }
            }
            let owned: Vec<(u16, Vec<u8>)> =
                page.iter().map(|(s, img)| (s, img.to_vec())).collect();
            let mut visited = Vec::new();
            for_each_image::<PageError, _>(page.as_bytes(), |s, img| {
                visited.push((s, img.to_vec()));
                Ok(())
            })
            .unwrap();
            assert_eq!(visited, owned);
            let mut via_method = Vec::new();
            page.for_each_image::<PageError, _>(|s, img| {
                via_method.push((s, img.to_vec()));
                Ok(())
            })
            .unwrap();
            assert_eq!(via_method, owned);
        }
    }

    #[test]
    fn for_each_image_rejects_garbage_and_propagates_errors() {
        let mut garbage = [0xFFu8; PAGE_SIZE];
        garbage[0] = 200; // huge slot count with tiny free_end
        assert!(for_each_image::<PageError, _>(&garbage, |_, _| Ok(())).is_err());
        let mut p = SlottedPage::new();
        p.insert(b"abc");
        p.insert(b"def");
        let mut seen = 0;
        let r: Result<(), PageError> = for_each_image(p.as_bytes(), |_, _| {
            seen += 1;
            Err(PageError("stop".into()))
        });
        assert!(r.is_err());
        assert_eq!(seen, 1, "visit stops at the first closure error");
    }

    #[derive(Debug, Clone)]
    enum Op {
        Insert(Vec<u8>),
        Delete(u16),
    }
}

//! Page chunking for columnar buckets.
//!
//! A converted bucket stores one [`sma_types::ColumnarBucket`] blob spread
//! across *all* pages of the bucket's existing page range, so the bucket
//! keeps its physical extent (SMA files stay positionally aligned, I/O
//! accounting charges the same page counts) while the payload becomes
//! column-major. Every chunk page keeps the standard CRC32 + counter
//! footer — the buffer pool stamps and verifies chunk pages exactly like
//! slotted pages.
//!
//! Chunk page layout (within the `PAYLOAD_END`-byte checksummed region):
//!
//! ```text
//! [0]     0xFF   marker — parses as an impossible slotted header
//! [1]     0xC0   marker
//! [2..4]  chunk_len  u16 LE, bytes of blob payload on this page
//! [4..8]  blob_total u32 LE, total blob length (repeated on every chunk)
//! [8..]   payload (chunk_len bytes), zero padding after
//! ```
//!
//! The marker bytes decode as a slotted page with `0xC0FF` = 49407 slots,
//! whose slot directory alone would overrun the page — so any legacy code
//! path that feeds a chunk page to `SlottedPage::from_bytes` or
//! `page::for_each_image` fails loudly instead of misreading tuples.
//! The last page of a table is never converted (appends land there), so
//! the row-store write paths never see a chunk page.

#![deny(clippy::indexing_slicing, clippy::cast_possible_truncation)]

use crate::page::{PAGE_SIZE, PAYLOAD_END};
use crate::store::PageNo;
use sma_types::bytes::{get_u16_le, get_u32_le, lo16, lo32, write_u16_le, write_u32_le};
use std::fmt;

/// First marker byte of a chunk page.
pub const COLUMNAR_MARKER0: u8 = 0xFF;
/// Second marker byte of a chunk page.
pub const COLUMNAR_MARKER1: u8 = 0xC0;

const CHUNK_HEADER: usize = 8;

/// Blob bytes one chunk page can carry.
pub const CHUNK_CAPACITY: usize = PAYLOAD_END - CHUNK_HEADER;

/// Error from assembling or splitting a columnar bucket's chunk pages.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ColumnarError(pub String);

impl fmt::Display for ColumnarError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "columnar pages: {}", self.0)
    }
}

impl std::error::Error for ColumnarError {}

/// Whether `buf` starts with the columnar chunk marker. Only meaningful
/// for buffers that already passed the pool's CRC check.
pub fn is_columnar_page(buf: &[u8]) -> bool {
    matches!(
        (buf.first(), buf.get(1)),
        (Some(&COLUMNAR_MARKER0), Some(&COLUMNAR_MARKER1))
    )
}

/// Splits `blob` into exactly `n_pages` chunk pages. Every page of the
/// bucket becomes a chunk (trailing ones possibly empty) so readers and
/// recovery can classify the whole range from its page images. Fails if
/// the blob does not fit.
pub fn chunk_pages(blob: &[u8], n_pages: usize) -> Result<Vec<[u8; PAGE_SIZE]>, ColumnarError> {
    let capacity = n_pages.saturating_mul(CHUNK_CAPACITY);
    if blob.len() > capacity {
        return Err(ColumnarError(format!(
            "blob of {} bytes exceeds {} pages x {} bytes",
            blob.len(),
            n_pages,
            CHUNK_CAPACITY
        )));
    }
    let total = u32::try_from(blob.len())
        .map_err(|_| ColumnarError("blob exceeds u32 bytes".to_string()))?;
    let mut pages = Vec::with_capacity(n_pages);
    let mut chunks = blob.chunks(CHUNK_CAPACITY);
    for _ in 0..n_pages {
        let chunk = chunks.next().unwrap_or(&[]);
        let mut page = [0u8; PAGE_SIZE];
        if let Some(b) = page.first_mut() {
            *b = COLUMNAR_MARKER0;
        }
        if let Some(b) = page.get_mut(1) {
            *b = COLUMNAR_MARKER1;
        }
        write_u16_le(&mut page, 2, lo16(lo32(chunk.len() as u64)));
        write_u32_le(&mut page, 4, total);
        if let Some(dst) = page.get_mut(CHUNK_HEADER..CHUNK_HEADER + chunk.len()) {
            dst.copy_from_slice(chunk);
        }
        pages.push(page);
    }
    Ok(pages)
}

/// Reads one chunk page: returns the declared blob total and this page's
/// payload slice.
pub fn read_chunk(buf: &[u8]) -> Result<(u32, &[u8]), ColumnarError> {
    if !is_columnar_page(buf) {
        return Err(ColumnarError("missing chunk marker".to_string()));
    }
    let chunk_len = get_u16_le(buf, 2).ok_or_else(|| ColumnarError("short header".to_string()))?;
    let total = get_u32_le(buf, 4).ok_or_else(|| ColumnarError("short header".to_string()))?;
    if chunk_len as usize > CHUNK_CAPACITY {
        return Err(ColumnarError(format!(
            "chunk length {chunk_len} exceeds page capacity"
        )));
    }
    let payload = buf
        .get(CHUNK_HEADER..CHUNK_HEADER + chunk_len as usize)
        .ok_or_else(|| ColumnarError("chunk payload past payload end".to_string()))?;
    Ok((total, payload))
}

/// Reassembles a blob from the chunk pages of one bucket, in page order.
/// `read` supplies each page image; errors from it pass through.
pub fn assemble_blob<E, F>(pages: impl Iterator<Item = PageNo>, mut read: F) -> Result<Vec<u8>, E>
where
    E: From<ColumnarError>,
    F: FnMut(PageNo, &mut dyn FnMut(&[u8]) -> Result<(), E>) -> Result<(), E>,
{
    let mut blob = Vec::new();
    let mut declared: Option<u32> = None;
    for no in pages {
        read(no, &mut |buf| {
            let (total, payload) = read_chunk(buf).map_err(E::from)?;
            match declared {
                None => declared = Some(total),
                Some(t) if t != total => {
                    return Err(E::from(ColumnarError(format!(
                        "page {no}: blob total {total} disagrees with {t}"
                    ))))
                }
                Some(_) => {}
            }
            blob.extend_from_slice(payload);
            Ok(())
        })?;
    }
    let declared = declared.unwrap_or(0) as usize;
    if blob.len() != declared {
        return Err(E::from(ColumnarError(format!(
            "assembled {} bytes, chunks declared {declared}",
            blob.len()
        ))));
    }
    Ok(blob)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::page::SlottedPage;

    #[test]
    fn chunk_roundtrip_multi_page() {
        let blob: Vec<u8> = (0..10_000u32)
            .map(|i| u8::try_from(i % 256).unwrap())
            .collect();
        let pages = chunk_pages(&blob, 4).unwrap();
        assert_eq!(pages.len(), 4);
        for page in &pages {
            assert!(is_columnar_page(page));
        }
        let images: Vec<[u8; PAGE_SIZE]> = pages.clone();
        let back: Vec<u8> =
            assemble_blob::<ColumnarError, _>(0..4u32, |no, visit| visit(&images[no as usize]))
                .unwrap();
        assert_eq!(back, blob);
    }

    #[test]
    fn empty_trailing_chunks_are_written() {
        let blob = vec![42u8; 10];
        let pages = chunk_pages(&blob, 3).unwrap();
        assert_eq!(pages.len(), 3);
        let (total, payload) = read_chunk(&pages[1]).unwrap();
        assert_eq!(total, 10);
        assert!(payload.is_empty());
    }

    #[test]
    fn oversized_blob_is_rejected() {
        let blob = vec![0u8; CHUNK_CAPACITY * 2 + 1];
        assert!(chunk_pages(&blob, 2).is_err());
        assert!(chunk_pages(&blob, 3).is_ok());
    }

    #[test]
    fn chunk_pages_fail_slotted_parse() {
        let pages = chunk_pages(&[1, 2, 3], 1).unwrap();
        assert!(
            SlottedPage::from_bytes(&pages[0]).is_err(),
            "marker must be an impossible slotted header"
        );
    }

    #[test]
    fn mismatched_totals_are_detected() {
        let a = chunk_pages(&[1u8; 100], 1).unwrap();
        let b = chunk_pages(&[2u8; 200], 1).unwrap();
        let images = [a[0], b[0]];
        let out: Result<Vec<u8>, ColumnarError> =
            assemble_blob(0..2u32, |no, visit| visit(&images[no as usize]));
        assert!(out.is_err());
    }

    #[test]
    fn truncated_assembly_is_detected() {
        let pages = chunk_pages(&vec![7u8; CHUNK_CAPACITY + 5], 2).unwrap();
        let out: Result<Vec<u8>, ColumnarError> =
            assemble_blob(0..1u32, |no, visit| visit(&pages[no as usize]));
        assert!(out.is_err(), "missing second chunk must not pass");
    }
}

//! CRC32 (IEEE 802.3, reflected polynomial `0xEDB88320`) — the checksum
//! guarding page footers and SMA persistence streams.
//!
//! Implemented from scratch so the storage crate stays dependency-free.
//! The algorithm matches zlib's `crc32()`, so images written here can be
//! cross-checked with any standard tool.
//!
//! Every buffer-pool miss verifies a 4,092-byte page body, so the loop is
//! slicing-by-16: sixteen 256-entry tables, built at compile time, fold a
//! whole 16-byte block into the running CRC with sixteen independent
//! lookups instead of sixteen dependent byte steps. The result is
//! bit-identical to the byte-at-a-time loop; only the speed differs.

#![deny(clippy::indexing_slicing, clippy::cast_possible_truncation)]

/// The reflected IEEE polynomial.
const POLY: u32 = 0xEDB8_8320;

/// `TABLES[k][b]` is the CRC contribution of byte `b` followed by `k`
/// zero bytes. `TABLES[0]` is the classic byte-at-a-time table.
const TABLES: [[u32; 256]; 16] = build_tables();

#[expect(
    clippy::indexing_slicing,
    reason = "the loop guards byte < 256, i < 256 and k < 16 and the mask c & 0xFF are the lengths of the 256-entry tables and the 16-table array"
)]
const fn build_tables() -> [[u32; 256]; 16] {
    let mut base = [0u32; 256];
    let mut byte = 0u32;
    while byte < 256 {
        let mut c = byte;
        let mut bit = 0;
        while bit < 8 {
            c = if c & 1 != 0 { POLY ^ (c >> 1) } else { c >> 1 };
            bit += 1;
        }
        base[byte as usize] = c;
        byte += 1;
    }
    // Each further table appends one zero byte to the previous one.
    let mut t = [[0u32; 256]; 16];
    let mut i = 0;
    while i < 256 {
        let mut c = base[i];
        let mut k = 0;
        while k < 16 {
            t[k][i] = c;
            c = (c >> 8) ^ base[(c & 0xFF) as usize];
            k += 1;
        }
        i += 1;
    }
    t
}

/// CRC32 of `data` (IEEE, zlib-compatible).
#[expect(
    clippy::indexing_slicing,
    reason = "both lookups are masked with & 0xFF, within the 256 entries of every table"
)]
pub fn crc32(data: &[u8]) -> u32 {
    let [byte_table, ..] = &TABLES;
    let blocks = data.chunks_exact(16);
    let tail = blocks.remainder();
    let crc = blocks.fold(!0u32, |crc, block| {
        // The running CRC folds into the block's first four bytes; byte
        // `j` then sits `15 - j` bytes before the block's end.
        let mut head = crc;
        block
            .iter()
            .zip(TABLES.iter().rev())
            .fold(0, |acc, (&b, table)| {
                let idx = (head ^ u32::from(b)) & 0xFF;
                head >>= 8;
                acc ^ table[idx as usize]
            })
    });
    !tail.iter().fold(crc, |crc, &b| {
        byte_table[((crc ^ u32::from(b)) & 0xFF) as usize] ^ (crc >> 8)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::page::{stamp_page, verify_page, PAGE_SIZE};

    /// The byte-at-a-time reference the slicing loop must match.
    fn crc32_bytewise(data: &[u8]) -> u32 {
        let mut c = 0xFFFF_FFFFu32;
        for &b in data {
            c ^= u32::from(b);
            for _ in 0..8 {
                c = if c & 1 != 0 { POLY ^ (c >> 1) } else { c >> 1 };
            }
        }
        !c
    }

    /// Deterministic page-sized bytes (xorshift32, top byte of each step).
    fn noise(len: usize) -> Vec<u8> {
        let mut x: u32 = 0x9E37_79B9;
        (0..len)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 17;
                x ^= x << 5;
                x.to_be_bytes()[0]
            })
            .collect()
    }

    #[test]
    fn known_vectors() {
        // Reference values from zlib's crc32().
        assert_eq!(crc32(b""), 0x0000_0000);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn matches_bytewise_reference_at_every_length_and_alignment() {
        let data = noise(PAGE_SIZE);
        for len in 0..=64 {
            assert_eq!(
                crc32(&data[..len]),
                crc32_bytewise(&data[..len]),
                "len {len}"
            );
        }
        let body = &data[..PAGE_SIZE - 4];
        assert_eq!(crc32(body), crc32_bytewise(body), "4,092-byte page body");
        for offset in 1..16 {
            let sub = &data[offset..PAGE_SIZE - 4];
            assert_eq!(crc32(sub), crc32_bytewise(sub), "offset {offset}");
            let short = &data[offset..offset + 37];
            assert_eq!(
                crc32(short),
                crc32_bytewise(short),
                "offset {offset}, 37 bytes"
            );
        }
    }

    /// A page whose footer was stamped by the byte-at-a-time CRC before
    /// the slicing loop replaced it: the on-disk format must not move.
    #[test]
    fn golden_page_footer_still_verifies() {
        const GOLDEN_FOOTER: [u8; 8] = [0x03, 0x00, 0x00, 0x00, 0xD6, 0x96, 0xE0, 0x10];
        let mut page = [0u8; PAGE_SIZE];
        let (body, footer) = page.split_at_mut(PAGE_SIZE - 8);
        body.copy_from_slice(&noise(PAGE_SIZE - 8));
        footer.copy_from_slice(&GOLDEN_FOOTER);
        assert_eq!(verify_page(&page), Ok(()));
        // Restamping the same body from write counter 2 rewrites the
        // golden footer byte for byte.
        let mut restamped = page;
        restamped[PAGE_SIZE - 8..].copy_from_slice(&[2, 0, 0, 0, 0, 0, 0, 0]);
        stamp_page(&mut restamped);
        assert_eq!(restamped, page);
        // And a single flipped body bit is still caught.
        page[1234] ^= 0x10;
        assert!(verify_page(&page).is_err());
    }

    #[test]
    fn sensitive_to_single_bit_flips() {
        let mut data = vec![0u8; 4096];
        data[17] = 0xA5;
        let clean = crc32(&data);
        for bit in [0usize, 1, 8 * 17 + 3, 8 * 4095 + 7] {
            data[bit / 8] ^= 1 << (bit % 8);
            assert_ne!(crc32(&data), clean, "flip of bit {bit} must change the crc");
            data[bit / 8] ^= 1 << (bit % 8);
        }
        assert_eq!(crc32(&data), clean);
    }
}

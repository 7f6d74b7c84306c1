//! CRC32 (IEEE 802.3, reflected polynomial `0xEDB88320`) — the checksum
//! guarding page footers and SMA persistence streams.
//!
//! Implemented from scratch so the storage crate stays dependency-free.
//! The algorithm matches zlib's `crc32()`, so images written here can be
//! cross-checked with any standard tool.
//!
//! Every buffer-pool miss verifies a 4,092-byte page body, so the loop
//! works in blocks of exactly that size. Each block is three interleaved
//! slicing-by-8 streams of 1,364 bytes: the three CRC registers do not
//! depend on each other, so their table lookups overlap instead of
//! waiting on one another. At the end of the block the first register is
//! advanced over 2,728 zero bytes and the second over 1,364 (each a
//! multiplication by a fixed power of `x` modulo the polynomial, read from
//! a shift table), and the three XOR into the block's CRC. What is left
//! after the last whole block runs through a slicing-by-16 loop: sixteen
//! 256-entry tables fold a 16-byte run into the CRC with sixteen
//! independent lookups. Every table is built at compile time. The result
//! is bit-identical to the byte-at-a-time loop; only the speed differs.

#![deny(clippy::indexing_slicing, clippy::cast_possible_truncation)]

/// The reflected IEEE polynomial.
const POLY: u32 = 0xEDB8_8320;

/// `TABLES[k][b]` is the CRC contribution of byte `b` followed by `k`
/// zero bytes. `TABLES[0]` is the classic byte-at-a-time table.
const TABLES: [[u32; 256]; 16] = build_tables();

/// Bytes in one of a block's three streams.
const STREAM: usize = 1_364;

/// Bytes in one three-stream block: a page body (`PAGE_SIZE - 4`).
const BLOCK: usize = 3 * STREAM;

// The three streams split a page body exactly.
const _: () = assert!(BLOCK == crate::page::PAGE_SIZE - 4);

/// Advance a CRC register over `STREAM` zero bytes.
const SHIFT_1: [[u32; 256]; 4] = shift_tables(STREAM as u64);

/// Advance a CRC register over `2 * STREAM` zero bytes.
const SHIFT_2: [[u32; 256]; 4] = shift_tables(2 * STREAM as u64);

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

/// `a · b mod P` over GF(2), both in the reflected representation the
/// register uses (bit 31 is the coefficient of `x^0`).
const fn mul_mod_p(a: u32, mut b: u32) -> u32 {
    let mut product = 0;
    let mut bit = 1u32 << 31;
    while bit != 0 {
        if a & bit != 0 {
            product ^= b;
        }
        b = if b & 1 != 0 { POLY ^ (b >> 1) } else { b >> 1 };
        bit >>= 1;
    }
    product
}

/// `x^(8·n) mod P` by square-and-multiply: feeding `n` zero bytes through
/// a register multiplies it by this.
const fn x_pow_8n_mod_p(mut n: u64) -> u32 {
    let mut result = 1u32 << 31; // x^0
    let mut square = 1u32 << 23; // x^8
    while n != 0 {
        if n & 1 != 0 {
            result = mul_mod_p(square, result);
        }
        square = mul_mod_p(square, square);
        n >>= 1;
    }
    result
}

/// `t[k][b]` is register byte `k` holding `b` advanced over `n` zero
/// bytes. The advance is linear, so a register's is the XOR of its four
/// bytes' entries.
#[expect(
    clippy::indexing_slicing,
    reason = "the loops guard k < 4 and b < 256, the lengths of the table array and of each table"
)]
const fn shift_tables(n: u64) -> [[u32; 256]; 4] {
    let factor = x_pow_8n_mod_p(n);
    let mut t = [[0u32; 256]; 4];
    let mut k = 0u32;
    while k < 4 {
        let mut b = 0u32;
        while b < 256 {
            t[k as usize][b as usize] = mul_mod_p(factor, b << (8 * k));
            b += 1;
        }
        k += 1;
    }
    t
}

/// CRC32 of `data` (IEEE, zlib-compatible).
pub fn crc32(data: &[u8]) -> u32 {
    let blocks = data.chunks_exact(BLOCK);
    let tail = blocks.remainder();
    !slicing_by_16(blocks.fold(!0u32, three_streams), tail)
}

/// Folds one `BLOCK`-byte block into the register `crc`: the first
/// stream continues from `crc`, the other two start from zero, and the
/// shift tables move each register to the end of the block. The register
/// is linear in its starting value, which is why the XOR is exact.
fn three_streams(crc: u32, block: &[u8]) -> u32 {
    let (a, rest) = block.split_at(STREAM);
    let (b, c) = rest.split_at(STREAM);
    let (a8, b8, c8) = (a.chunks_exact(8), b.chunks_exact(8), c.chunks_exact(8));
    let tails = (a8.remainder(), b8.remainder(), c8.remainder());
    let (ra, rb, rc) = a8
        .zip(b8)
        .zip(c8)
        .fold((crc, 0, 0), |(ra, rb, rc), ((x, y), z)| {
            (slice_by_8(ra, x), slice_by_8(rb, y), slice_by_8(rc, z))
        });
    let (ra, rb, rc) = (
        bytewise(ra, tails.0),
        bytewise(rb, tails.1),
        bytewise(rc, tails.2),
    );
    shift(&SHIFT_2, ra) ^ shift(&SHIFT_1, rb) ^ rc
}

/// Folds 8 bytes into the register `crc` with eight independent lookups.
#[inline]
#[expect(
    clippy::indexing_slicing,
    reason = "every index is a u8, within the 256 entries of every table"
)]
fn slice_by_8(crc: u32, chunk: &[u8]) -> u32 {
    let mut word = [0u8; 8];
    word.copy_from_slice(chunk);
    let [b0, b1, b2, b3, b4, b5, b6, b7] = word;
    let [x0, x1, x2, x3] = (crc ^ u32::from_le_bytes([b0, b1, b2, b3])).to_le_bytes();
    let [t0, t1, t2, t3, t4, t5, t6, t7, ..] = &TABLES;
    t7[usize::from(x0)]
        ^ t6[usize::from(x1)]
        ^ t5[usize::from(x2)]
        ^ t4[usize::from(x3)]
        ^ t3[usize::from(b4)]
        ^ t2[usize::from(b5)]
        ^ t1[usize::from(b6)]
        ^ t0[usize::from(b7)]
}

/// The register `crc` advanced over the zero bytes `table` stands for.
#[inline]
#[expect(
    clippy::indexing_slicing,
    reason = "every index is a u8, within the 256 entries of every table"
)]
fn shift(table: &[[u32; 256]; 4], crc: u32) -> u32 {
    let [t0, t1, t2, t3] = table;
    let [x0, x1, x2, x3] = crc.to_le_bytes();
    t0[usize::from(x0)] ^ t1[usize::from(x1)] ^ t2[usize::from(x2)] ^ t3[usize::from(x3)]
}

/// Folds `data` into the register `crc` one byte at a time.
#[expect(
    clippy::indexing_slicing,
    reason = "the lookup is masked with & 0xFF, within the table's 256 entries"
)]
fn bytewise(crc: u32, data: &[u8]) -> u32 {
    let [byte_table, ..] = &TABLES;
    data.iter().fold(crc, |crc, &b| {
        byte_table[((crc ^ u32::from(b)) & 0xFF) as usize] ^ (crc >> 8)
    })
}

/// Folds `data` into the register `crc` sixteen bytes at a time, then the
/// last `data.len() % 16` bytes one at a time.
#[expect(
    clippy::indexing_slicing,
    reason = "the lookup is masked with & 0xFF, within the 256 entries of every table"
)]
fn slicing_by_16(crc: u32, data: &[u8]) -> u32 {
    let blocks = data.chunks_exact(16);
    let tail = blocks.remainder();
    let crc = blocks.fold(crc, |crc, block| {
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
    bytewise(crc, tail)
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

    /// Every length from 0 to two blocks and 66 bytes, at every start
    /// offset 0..16: whole blocks, the slicing-by-16 tail and every
    /// split between them. The reference runs once per offset, one
    /// register per prefix length.
    #[test]
    fn matches_bytewise_reference_at_every_length_and_alignment() {
        const MAX_LEN: usize = 8_250;
        let data = noise(MAX_LEN + 16);
        for offset in 0..16 {
            let mut reference = !0u32;
            for len in 0..=MAX_LEN {
                let sub = &data[offset..offset + len];
                assert_eq!(crc32(sub), !reference, "offset {offset}, len {len}");
                if len < MAX_LEN {
                    reference = bytewise_step(reference, data[offset + len]);
                }
            }
            assert_eq!(!reference, crc32_bytewise(&data[offset..offset + MAX_LEN]));
        }
    }

    /// One byte through the bit-at-a-time register.
    fn bytewise_step(mut c: u32, b: u8) -> u32 {
        c ^= u32::from(b);
        for _ in 0..8 {
            c = if c & 1 != 0 { POLY ^ (c >> 1) } else { c >> 1 };
        }
        c
    }

    /// The shift tables are what feeding zero bytes one at a time does.
    #[test]
    fn shift_tables_advance_over_zero_bytes() {
        for crc in [1u32, 0x8000_0000, 0xDEAD_BEEF, !0] {
            let mut fed = crc;
            for _ in 0..STREAM {
                fed = bytewise_step(fed, 0);
            }
            assert_eq!(shift(&SHIFT_1, crc), fed, "{crc:#x}");
            for _ in 0..STREAM {
                fed = bytewise_step(fed, 0);
            }
            assert_eq!(shift(&SHIFT_2, crc), fed, "{crc:#x}");
        }
    }

    /// Flipping any single bit of a stamped page body fails verification.
    #[test]
    fn every_single_bit_flip_of_a_page_body_fails_verification() {
        let mut page = [0u8; PAGE_SIZE];
        page[..PAGE_SIZE - 8].copy_from_slice(&noise(PAGE_SIZE - 8));
        stamp_page(&mut page);
        assert_eq!(verify_page(&page), Ok(()));
        for bit in 0..8 * (PAGE_SIZE - 4) {
            page[bit / 8] ^= 1 << (bit % 8);
            assert!(verify_page(&page).is_err(), "flip of bit {bit} verified");
            page[bit / 8] ^= 1 << (bit % 8);
        }
        assert_eq!(verify_page(&page), Ok(()));
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

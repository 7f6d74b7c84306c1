//! Checked little-endian byte helpers — the blessed home for raw codec
//! byte access.
//!
//! Every reader returns `Option` (out-of-bounds reads are `None`, never a
//! panic) and every truncation is explicit, so modules that decode
//! untrusted bytes (`row`, `view`, the page codec, SMA images, the
//! warehouse manifest) never index by literal, never `as`-narrow, and
//! never `unwrap`. The `sma-lint` rule `L2-codec-bytes` and the codec
//! modules' clippy denies (`indexing_slicing`, `cast_possible_truncation`)
//! push all such code here.

#![deny(clippy::indexing_slicing, clippy::cast_possible_truncation)]

/// Reads a `u16` at byte offset `off`; `None` if out of bounds.
pub fn get_u16_le(b: &[u8], off: usize) -> Option<u16> {
    let s = b.get(off..off.checked_add(2)?)?;
    Some(u16::from_le_bytes(s.try_into().ok()?))
}

/// Reads a `u32` at byte offset `off`; `None` if out of bounds.
pub fn get_u32_le(b: &[u8], off: usize) -> Option<u32> {
    let s = b.get(off..off.checked_add(4)?)?;
    Some(u32::from_le_bytes(s.try_into().ok()?))
}

/// Reads an `i32` at byte offset `off`; `None` if out of bounds.
#[inline]
pub fn get_i32_le(b: &[u8], off: usize) -> Option<i32> {
    let s = b.get(off..off.checked_add(4)?)?;
    Some(i32::from_le_bytes(s.try_into().ok()?))
}

/// Reads a `u64` at byte offset `off`; `None` if out of bounds.
pub fn get_u64_le(b: &[u8], off: usize) -> Option<u64> {
    let s = b.get(off..off.checked_add(8)?)?;
    Some(u64::from_le_bytes(s.try_into().ok()?))
}

/// Reads an `i64` at byte offset `off`; `None` if out of bounds.
#[inline]
pub fn get_i64_le(b: &[u8], off: usize) -> Option<i64> {
    let s = b.get(off..off.checked_add(8)?)?;
    Some(i64::from_le_bytes(s.try_into().ok()?))
}

/// Appends a `u16` in little-endian order.
pub fn put_u16_le(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends a `u32` in little-endian order.
pub fn put_u32_le(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends an `i64` in little-endian order.
pub fn put_i64_le(out: &mut Vec<u8>, v: i64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends a `u64` in little-endian order.
pub fn put_u64_le(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Writes a `u16` into `b` at `off`. Returns `false` (writing nothing)
/// if the destination range is out of bounds.
pub fn write_u16_le(b: &mut [u8], off: usize, v: u16) -> bool {
    let Some(end) = off.checked_add(2) else {
        return false;
    };
    match b.get_mut(off..end) {
        Some(dst) => {
            dst.copy_from_slice(&v.to_le_bytes());
            true
        }
        None => false,
    }
}

/// Writes a `u32` into `b` at `off`. Returns `false` (writing nothing)
/// if the destination range is out of bounds.
pub fn write_u32_le(b: &mut [u8], off: usize, v: u32) -> bool {
    let Some(end) = off.checked_add(4) else {
        return false;
    };
    match b.get_mut(off..end) {
        Some(dst) => {
            dst.copy_from_slice(&v.to_le_bytes());
            true
        }
        None => false,
    }
}

/// Reinterprets an `i32` as its two's-complement bit pattern.
pub fn u32_bits(v: i32) -> u32 {
    u32::from_le_bytes(v.to_le_bytes())
}

/// Inverse of [`u32_bits`].
pub fn i32_bits(v: u32) -> i32 {
    i32::from_le_bytes(v.to_le_bytes())
}

/// Reinterprets an `i64` as its two's-complement bit pattern.
pub fn u64_bits(v: i64) -> u64 {
    u64::from_le_bytes(v.to_le_bytes())
}

/// Inverse of [`u64_bits`].
pub fn i64_bits(v: u64) -> i64 {
    i64::from_le_bytes(v.to_le_bytes())
}

/// The low byte of `v` — explicit, checked truncation (no `as` cast).
pub fn lo8(v: u32) -> u8 {
    v.to_le_bytes().first().copied().unwrap_or(0)
}

/// The low 16 bits of `v` — explicit, checked truncation.
pub fn lo16(v: u32) -> u16 {
    get_u16_le(&v.to_le_bytes(), 0).unwrap_or(0)
}

/// The low 32 bits of `v` — explicit, checked truncation.
pub fn lo32(v: u64) -> u32 {
    get_u32_le(&v.to_le_bytes(), 0).unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn readers_roundtrip_and_bounds_check() {
        let mut buf = Vec::new();
        put_u16_le(&mut buf, 0xBEEF);
        put_u32_le(&mut buf, 0xDEAD_BEEF);
        put_i64_le(&mut buf, -42);
        assert_eq!(get_u16_le(&buf, 0), Some(0xBEEF));
        assert_eq!(get_u32_le(&buf, 2), Some(0xDEAD_BEEF));
        assert_eq!(get_i64_le(&buf, 6), Some(-42));
        // Out of bounds is None, not a panic.
        assert_eq!(get_u16_le(&buf, buf.len() - 1), None);
        assert_eq!(get_u32_le(&buf, usize::MAX - 1), None);
        assert_eq!(get_i64_le(&[], 0), None);
        assert_eq!(
            get_u64_le(&buf, 6),
            Some(get_i64_le(&buf, 6).unwrap() as u64)
        );
        assert_eq!(
            get_i32_le(&buf, 2),
            Some(i32::from_le_bytes(0xDEAD_BEEFu32.to_le_bytes()))
        );
    }

    #[test]
    fn writers_bounds_check() {
        let mut b = [0u8; 4];
        assert!(write_u16_le(&mut b, 2, 0x0102));
        assert_eq!(b, [0, 0, 2, 1]);
        assert!(!write_u16_le(&mut b, 3, 7));
        assert!(write_u32_le(&mut b, 0, u32::MAX));
        assert!(!write_u32_le(&mut b, 1, 7));
        assert!(!write_u32_le(&mut b, usize::MAX, 7));
    }

    #[test]
    fn truncations_take_low_bits() {
        assert_eq!(lo8(0x1234_56AB), 0xAB);
        assert_eq!(lo16(0x1234_56AB), 0x56AB);
        assert_eq!(lo32(0x1_0000_0002), 2);
    }
}

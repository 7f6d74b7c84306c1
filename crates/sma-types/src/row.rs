//! Binary tuple codec.
//!
//! Layout per tuple:
//!
//! ```text
//! [ null bitmap: ceil(ncols/8) bytes ]
//! [ fixed section: one fixed-width slot per column, schema order ]
//! [ var section: string payloads, schema order ]
//! ```
//!
//! Fixed slots are little-endian: `Int`/`Decimal` 8 bytes, `Date` 4 bytes,
//! `Char` 1 byte; a `Str` slot holds the payload length as `u16`. Null
//! columns keep a zeroed slot so offsets stay schema-computable.

#![deny(clippy::indexing_slicing, clippy::cast_possible_truncation)]

use crate::bytes;
use crate::date::Date;
use crate::decimal::Decimal;
use crate::schema::{DataType, Schema};
use crate::value::Value;
use crate::view::null_bit;
use std::fmt;

/// A materialized tuple: one [`Value`] per schema column.
pub type Tuple = Vec<Value>;

/// Error produced when decoding a malformed tuple image.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CodecError(pub String);

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "tuple codec error: {}", self.0)
    }
}

impl std::error::Error for CodecError {}

/// Number of bytes `tuple` occupies when encoded under `schema`.
pub fn encoded_len(schema: &Schema, tuple: &[Value]) -> usize {
    let bitmap = schema.len().div_ceil(8);
    let fixed: usize = schema.columns().iter().map(|c| c.ty.fixed_width()).sum();
    let var: usize = tuple.iter().filter_map(|v| v.as_str().map(str::len)).sum();
    bitmap + fixed + var
}

/// Encodes `tuple` (which must validate against `schema`) into `out`.
///
/// Fails — leaving `out` untouched — when a string payload exceeds the
/// `u16` length slot of the fixed section.
#[expect(
    clippy::indexing_slicing,
    reason = "out was just resized to bitmap_start + bitmap_len and i < schema.len(), so null_bit(i)'s byte i / 8 < bitmap_len"
)]
pub fn encode(schema: &Schema, tuple: &[Value], out: &mut Vec<u8>) -> Result<(), CodecError> {
    debug_assert!(schema.validate(tuple).is_ok());
    for (v, c) in tuple.iter().zip(schema.columns()) {
        if let Value::Str(s) = v {
            if s.len() > u16::MAX as usize {
                return Err(CodecError(format!(
                    "string column {:?} is {} bytes, exceeding the u16 length slot",
                    c.name,
                    s.len()
                )));
            }
        }
    }
    let bitmap_len = schema.len().div_ceil(8);
    let bitmap_start = out.len();
    out.resize(bitmap_start + bitmap_len, 0);
    for (i, v) in tuple.iter().enumerate() {
        if v.is_null() {
            let (byte, mask) = null_bit(i);
            out[bitmap_start + byte] |= mask;
        }
    }
    let mut strings: Vec<&str> = Vec::new();
    for (v, c) in tuple.iter().zip(schema.columns()) {
        match (c.ty, v) {
            (DataType::Int, Value::Int(n)) => out.extend_from_slice(&n.to_le_bytes()),
            (DataType::Decimal, Value::Decimal(d)) => {
                out.extend_from_slice(&d.cents().to_le_bytes())
            }
            (DataType::Date, Value::Date(d)) => out.extend_from_slice(&d.days().to_le_bytes()),
            (DataType::Char, Value::Char(ch)) => out.push(*ch),
            (DataType::Str, Value::Str(s)) => {
                // Re-checked here so the narrowing stays locally provable
                // (the loop above already rejected oversized payloads).
                let len = u16::try_from(s.len()).map_err(|_| {
                    CodecError(format!(
                        "string column {:?} exceeds u16 length slot",
                        c.name
                    ))
                })?;
                out.extend_from_slice(&len.to_le_bytes());
                strings.push(s);
            }
            (ty, Value::Null) => out.extend_from_slice(&vec![0u8; ty.fixed_width()]),
            (ty, v) => unreachable!("validated tuple: column {ty} vs value {v}"),
        }
    }
    for s in strings {
        out.extend_from_slice(s.as_bytes());
    }
    Ok(())
}

/// Decodes one tuple image produced by [`encode`].
#[expect(
    clippy::indexing_slicing,
    reason = "the buf.len() < bitmap_len + fixed_len check bounds the bitmap and every fixed slot; the end > buf.len() check bounds each string"
)]
pub fn decode(schema: &Schema, buf: &[u8]) -> Result<Tuple, CodecError> {
    let bitmap_len = schema.len().div_ceil(8);
    let fixed_len: usize = schema.columns().iter().map(|c| c.ty.fixed_width()).sum();
    if buf.len() < bitmap_len + fixed_len {
        return Err(CodecError(format!(
            "image too short: {} bytes, need at least {}",
            buf.len(),
            bitmap_len + fixed_len
        )));
    }
    let bitmap = &buf[..bitmap_len];
    let mut pos = bitmap_len;
    let mut var_pos = bitmap_len + fixed_len;
    let mut tuple = Vec::with_capacity(schema.len());
    for (i, c) in schema.columns().iter().enumerate() {
        let (byte, mask) = null_bit(i);
        let null = bitmap[byte] & mask != 0;
        let width = c.ty.fixed_width();
        let slot = &buf[pos..pos + width];
        pos += width;
        if null {
            // Strings still consumed their length slot (zeroed), nothing in var section.
            tuple.push(Value::Null);
            continue;
        }
        let short = || CodecError(format!("column {:?} slot out of bounds", c.name));
        let v = match c.ty {
            DataType::Int => Value::Int(bytes::get_i64_le(slot, 0).ok_or_else(short)?),
            DataType::Decimal => Value::Decimal(Decimal::from_cents(
                bytes::get_i64_le(slot, 0).ok_or_else(short)?,
            )),
            DataType::Date => Value::Date(Date::from_days(
                bytes::get_i32_le(slot, 0).ok_or_else(short)?,
            )),
            DataType::Char => Value::Char(slot.first().copied().ok_or_else(short)?),
            DataType::Str => {
                let len = usize::from(bytes::get_u16_le(slot, 0).ok_or_else(short)?);
                let end = var_pos + len;
                if end > buf.len() {
                    return Err(CodecError(format!(
                        "string column {:?} overruns image ({} > {})",
                        c.name,
                        end,
                        buf.len()
                    )));
                }
                let s = std::str::from_utf8(&buf[var_pos..end])
                    .map_err(|e| CodecError(format!("invalid utf-8 in {:?}: {e}", c.name)))?;
                var_pos = end;
                Value::Str(s.to_string())
            }
        };
        tuple.push(v);
    }
    Ok(tuple)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::StdRng;
    use crate::schema::Column;

    fn schema() -> Schema {
        Schema::new(vec![
            Column::new("K", DataType::Int),
            Column::new("P", DataType::Decimal),
            Column::new("D", DataType::Date),
            Column::new("F", DataType::Char),
            Column::new("S", DataType::Str),
            Column::new("T", DataType::Str),
        ])
    }

    fn tuple() -> Tuple {
        vec![
            Value::Int(-42),
            Value::Decimal(Decimal::from_cents(123456)),
            Value::Date(Date::parse("1997-04-30").unwrap()),
            Value::Char(b'N'),
            Value::Str("hello".into()),
            Value::Str("".into()),
        ]
    }

    #[test]
    fn roundtrip() {
        let s = schema();
        let t = tuple();
        let mut buf = Vec::new();
        encode(&s, &t, &mut buf).unwrap();
        assert_eq!(buf.len(), encoded_len(&s, &t));
        assert_eq!(decode(&s, &buf).unwrap(), t);
    }

    #[test]
    fn roundtrip_with_nulls() {
        let s = schema();
        let t = vec![
            Value::Null,
            Value::Null,
            Value::Null,
            Value::Null,
            Value::Null,
            Value::Str("tail".into()),
        ];
        let mut buf = Vec::new();
        encode(&s, &t, &mut buf).unwrap();
        assert_eq!(decode(&s, &buf).unwrap(), t);
    }

    #[test]
    fn rejects_truncated() {
        let s = schema();
        let mut buf = Vec::new();
        encode(&s, &tuple(), &mut buf).unwrap();
        assert!(decode(&s, &buf[..buf.len() - 3]).is_err());
        assert!(decode(&s, &[]).is_err());
    }

    #[test]
    fn appended_encodings_share_buffer() {
        let s = schema();
        let t = tuple();
        let mut buf = Vec::new();
        encode(&s, &t, &mut buf).unwrap();
        let first_len = buf.len();
        encode(&s, &t, &mut buf).unwrap();
        assert_eq!(decode(&s, &buf[..first_len]).unwrap(), t);
        assert_eq!(decode(&s, &buf[first_len..]).unwrap(), t);
    }

    #[test]
    fn oversized_string_is_an_error_not_a_panic() {
        let s = schema();
        let mut t = tuple();
        t[4] = Value::Str("x".repeat(u16::MAX as usize + 1));
        let mut buf = Vec::new();
        let err = encode(&s, &t, &mut buf).unwrap_err();
        assert!(err.0.contains("u16"), "{err}");
        assert!(buf.is_empty(), "failed encode must leave the buffer clean");
        // One byte under the limit still round-trips.
        t[4] = Value::Str("x".repeat(u16::MAX as usize));
        encode(&s, &t, &mut buf).unwrap();
        assert_eq!(decode(&s, &buf).unwrap(), t);
    }

    /// A random value of `ty`, `Null` with probability 1/10 — mirrors the
    /// distribution the old property test used.
    fn random_value(rng: &mut StdRng, ty: DataType) -> Value {
        if rng.random_range(0u32..10) == 0 {
            return Value::Null;
        }
        const CHARSET: &[u8] = b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789 ";
        match ty {
            DataType::Int => Value::Int(rng.random_range(i64::MIN..=i64::MAX)),
            DataType::Decimal => {
                Value::Decimal(Decimal::from_cents(rng.random_range(i64::MIN..=i64::MAX)))
            }
            DataType::Date => Value::Date(Date::from_days(rng.random_range(-100_000i32..100_000))),
            DataType::Char => Value::Char(rng.random_range(0u8..=u8::MAX)),
            DataType::Str => {
                let len = rng.random_range(0usize..=40);
                let s: String = (0..len)
                    .map(|_| CHARSET[rng.random_range(0usize..CHARSET.len())] as char)
                    .collect();
                Value::Str(s)
            }
        }
    }

    #[test]
    fn codec_roundtrip_any_tuple() {
        let mut rng = StdRng::seed_from_u64(0xC0DEC);
        let s = schema();
        for _ in 0..512 {
            let t: Tuple = s
                .columns()
                .iter()
                .map(|c| random_value(&mut rng, c.ty))
                .collect();
            let mut buf = Vec::new();
            encode(&s, &t, &mut buf).unwrap();
            assert_eq!(buf.len(), encoded_len(&s, &t));
            assert_eq!(decode(&s, &buf).unwrap(), t);
        }
    }
}

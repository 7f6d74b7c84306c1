//! Columnar (PAX) bucket blocks — the sealed-data layout.
//!
//! A [`ColumnarBucket`] holds every live tuple of one table bucket with
//! the values rearranged column-by-column: fixed-width columns become
//! contiguous typed arrays, `Str` columns become an offset array plus a
//! byte heap, and every column carries a validity bitmap for `Null`s.
//! The paper computes per-bucket `min`/`max` columnwise (§2.4); this is
//! the storage layout that makes the scan side columnwise too.
//!
//! The block is a *logical* unit: `sma-storage` chunks the encoded blob
//! across the bucket's existing page range (each chunk page CRC-footered
//! like any other page), so buckets keep their physical extent and SMA
//! files keep their positional alignment. Blocks are immutable — the
//! row store handles ingest, and the flush/compaction paths convert
//! sealed buckets (see `Table::convert_bucket_to_columnar`).
//!
//! Wire format (all little-endian, self-describing, CRC covered by the
//! page footers of the chunks that carry it):
//!
//! ```text
//! "SMCB" | version u8 | n_cols u16 | n_rows u32
//! then per column:
//!   dtype tag u8
//!   validity bitmap  ceil(n_rows / 8) bytes (bit i set = row i non-null)
//!   data:
//!     Int / Decimal   n_rows x i64   (decimal = scaled cents)
//!     Date            n_rows x i32   (days)
//!     Char            n_rows x u8
//!     Str             offset-width u8 (2 or 4), then (n_rows + 1)
//!                     offsets of that width, then the UTF-8 heap
//! ```
//!
//! `Str` offsets shrink to `u16` whenever the column's heap fits — on
//! narrow-string schemas that is the difference between a bucket's block
//! fitting its own page range and not converting at all.
//!
//! Null slots store zero in the data array (and zero-length heap slices),
//! so encoding is deterministic: equal blocks encode to equal bytes.

#![deny(clippy::indexing_slicing, clippy::cast_possible_truncation)]

use std::fmt;

use crate::bytes::{get_u16_le, get_u32_le, lo16, lo32, u32_bits};
use crate::date::Date;
use crate::decimal::Decimal;
use crate::schema::{DataType, Schema};
use crate::value::Value;
use crate::Tuple;

/// Magic prefix of an encoded columnar block.
pub const COLBLOCK_MAGIC: [u8; 4] = *b"SMCB";

/// Current wire-format version.
pub const COLBLOCK_VERSION: u8 = 1;

/// Error from encoding or decoding a columnar block.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ColBlockError(pub String);

impl fmt::Display for ColBlockError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "columnar block: {}", self.0)
    }
}

impl std::error::Error for ColBlockError {}

/// Whether bit `i` of a validity bitmap is set (row `i` is non-null).
/// Out-of-range bits read as unset (null) — decode checks lengths, so
/// this is belt-and-braces, not a load-bearing default.
pub fn validity_bit(valid: &[u8], i: usize) -> bool {
    match valid.get(i / 8) {
        Some(byte) => (byte >> (i % 8)) & 1 == 1,
        None => false,
    }
}

fn set_validity_bit(valid: &mut [u8], i: usize) {
    if let Some(byte) = valid.get_mut(i / 8) {
        *byte |= match i % 8 {
            0 => 1,
            1 => 2,
            2 => 4,
            3 => 8,
            4 => 16,
            5 => 32,
            6 => 64,
            _ => 128,
        };
    }
}

fn bitmap_len(n_rows: usize) -> usize {
    n_rows.div_ceil(8)
}

/// One column of a block: a validity bitmap plus the typed value array.
#[derive(Debug, Clone, PartialEq)]
pub enum ColumnArray {
    /// `Int` column: two's-complement `i64`s.
    Int {
        /// Validity bitmap (bit set = non-null).
        valid: Vec<u8>,
        /// Raw values; null slots hold `0`.
        data: Vec<i64>,
    },
    /// `Decimal` column: scaled cents.
    Decimal {
        /// Validity bitmap (bit set = non-null).
        valid: Vec<u8>,
        /// Raw cents; null slots hold `0`.
        data: Vec<i64>,
    },
    /// `Date` column: days since the epoch.
    Date {
        /// Validity bitmap (bit set = non-null).
        valid: Vec<u8>,
        /// Raw day counts; null slots hold `0`.
        data: Vec<i32>,
    },
    /// `Char` column: single bytes.
    Char {
        /// Validity bitmap (bit set = non-null).
        valid: Vec<u8>,
        /// Raw bytes; null slots hold `0`.
        data: Vec<u8>,
    },
    /// `Str` column: offsets into a shared UTF-8 heap.
    Str {
        /// Validity bitmap (bit set = non-null).
        valid: Vec<u8>,
        /// `n_rows + 1` byte offsets; row `i` spans `offsets[i]..offsets[i+1]`.
        offsets: Vec<u32>,
        /// Concatenated UTF-8 payloads.
        heap: Vec<u8>,
    },
}

impl ColumnArray {
    /// The data type this array materializes.
    pub fn data_type(&self) -> DataType {
        match self {
            ColumnArray::Int { .. } => DataType::Int,
            ColumnArray::Decimal { .. } => DataType::Decimal,
            ColumnArray::Date { .. } => DataType::Date,
            ColumnArray::Char { .. } => DataType::Char,
            ColumnArray::Str { .. } => DataType::Str,
        }
    }

    /// The validity bitmap.
    pub fn validity(&self) -> &[u8] {
        match self {
            ColumnArray::Int { valid, .. }
            | ColumnArray::Decimal { valid, .. }
            | ColumnArray::Date { valid, .. }
            | ColumnArray::Char { valid, .. }
            | ColumnArray::Str { valid, .. } => valid,
        }
    }

    /// Whether row `i` is non-null.
    pub fn is_valid(&self, i: usize) -> bool {
        validity_bit(self.validity(), i)
    }

    /// The string payload of row `i`, `None` for nulls, non-`Str` columns
    /// and out-of-range rows.
    pub fn str_at(&self, i: usize) -> Option<&str> {
        let ColumnArray::Str {
            valid,
            offsets,
            heap,
        } = self
        else {
            return None;
        };
        if !validity_bit(valid, i) {
            return None;
        }
        let start = *offsets.get(i)? as usize;
        let end = *offsets.get(i.checked_add(1)?)? as usize;
        std::str::from_utf8(heap.get(start..end)?).ok()
    }

    /// The value of row `i`, or `None` if the row is out of range.
    pub fn value(&self, i: usize, n_rows: usize) -> Option<Value> {
        if i >= n_rows {
            return None;
        }
        if !self.is_valid(i) {
            return Some(Value::Null);
        }
        match self {
            ColumnArray::Int { data, .. } => data.get(i).map(|v| Value::Int(*v)),
            ColumnArray::Decimal { data, .. } => {
                data.get(i).map(|v| Value::Decimal(Decimal::from_cents(*v)))
            }
            ColumnArray::Date { data, .. } => data.get(i).map(|v| Value::Date(Date::from_days(*v))),
            ColumnArray::Char { data, .. } => data.get(i).map(|v| Value::Char(*v)),
            ColumnArray::Str { .. } => self.str_at(i).map(|s| Value::Str(s.to_string())),
        }
    }
}

fn dtype_tag(ty: DataType) -> u8 {
    match ty {
        DataType::Int => 0,
        DataType::Decimal => 1,
        DataType::Date => 2,
        DataType::Char => 3,
        DataType::Str => 4,
    }
}

fn tag_dtype(tag: u8) -> Option<DataType> {
    match tag {
        0 => Some(DataType::Int),
        1 => Some(DataType::Decimal),
        2 => Some(DataType::Date),
        3 => Some(DataType::Char),
        4 => Some(DataType::Str),
        _ => None,
    }
}

/// All live tuples of one bucket, column-major.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnarBucket {
    n_rows: usize,
    cols: Vec<ColumnArray>,
}

impl ColumnarBucket {
    /// Builds a block from row-major tuples (the bucket's live rows in
    /// physical order). Values must match `schema` — the converter feeds
    /// this from tuples that already passed schema validation, and any
    /// mismatch is reported, never mis-encoded.
    pub fn from_rows(schema: &Schema, rows: &[Tuple]) -> Result<ColumnarBucket, ColBlockError> {
        let n = rows.len();
        if u32::try_from(n).is_err() {
            return Err(ColBlockError(format!("{n} rows exceed the u32 row limit")));
        }
        let bm = bitmap_len(n);
        let mut cols = Vec::with_capacity(schema.len());
        for (c, column) in schema.columns().iter().enumerate() {
            let mut valid = vec![0u8; bm];
            let array = match column.ty {
                DataType::Int => {
                    let mut data = vec![0i64; n];
                    for (i, row) in rows.iter().enumerate() {
                        match row.get(c) {
                            Some(Value::Int(v)) => {
                                set_validity_bit(&mut valid, i);
                                if let Some(slot) = data.get_mut(i) {
                                    *slot = *v;
                                }
                            }
                            Some(Value::Null) => {}
                            other => return Err(type_mismatch(c, column.ty, other)),
                        }
                    }
                    ColumnArray::Int { valid, data }
                }
                DataType::Decimal => {
                    let mut data = vec![0i64; n];
                    for (i, row) in rows.iter().enumerate() {
                        match row.get(c) {
                            Some(Value::Decimal(v)) => {
                                set_validity_bit(&mut valid, i);
                                if let Some(slot) = data.get_mut(i) {
                                    *slot = v.cents();
                                }
                            }
                            Some(Value::Null) => {}
                            other => return Err(type_mismatch(c, column.ty, other)),
                        }
                    }
                    ColumnArray::Decimal { valid, data }
                }
                DataType::Date => {
                    let mut data = vec![0i32; n];
                    for (i, row) in rows.iter().enumerate() {
                        match row.get(c) {
                            Some(Value::Date(v)) => {
                                set_validity_bit(&mut valid, i);
                                if let Some(slot) = data.get_mut(i) {
                                    *slot = v.days();
                                }
                            }
                            Some(Value::Null) => {}
                            other => return Err(type_mismatch(c, column.ty, other)),
                        }
                    }
                    ColumnArray::Date { valid, data }
                }
                DataType::Char => {
                    let mut data = vec![0u8; n];
                    for (i, row) in rows.iter().enumerate() {
                        match row.get(c) {
                            Some(Value::Char(v)) => {
                                set_validity_bit(&mut valid, i);
                                if let Some(slot) = data.get_mut(i) {
                                    *slot = *v;
                                }
                            }
                            Some(Value::Null) => {}
                            other => return Err(type_mismatch(c, column.ty, other)),
                        }
                    }
                    ColumnArray::Char { valid, data }
                }
                DataType::Str => {
                    let mut offsets = Vec::with_capacity(n.saturating_add(1));
                    let mut heap = Vec::new();
                    offsets.push(0u32);
                    for (i, row) in rows.iter().enumerate() {
                        match row.get(c) {
                            Some(Value::Str(s)) => {
                                set_validity_bit(&mut valid, i);
                                heap.extend_from_slice(s.as_bytes());
                            }
                            Some(Value::Null) => {}
                            other => return Err(type_mismatch(c, column.ty, other)),
                        }
                        let end = u32::try_from(heap.len()).map_err(|_| {
                            ColBlockError(format!("column {c}: string heap exceeds u32 bytes"))
                        })?;
                        offsets.push(end);
                    }
                    ColumnArray::Str {
                        valid,
                        offsets,
                        heap,
                    }
                }
            };
            cols.push(array);
        }
        Ok(ColumnarBucket { n_rows: n, cols })
    }

    /// Rows in the block.
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// Columns in the block.
    pub fn n_cols(&self) -> usize {
        self.cols.len()
    }

    /// The array for column `c`.
    pub fn col(&self, c: usize) -> Option<&ColumnArray> {
        self.cols.get(c)
    }

    /// The value at (`c`, `row`); `None` only when out of range.
    pub fn value(&self, c: usize, row: usize) -> Option<Value> {
        self.cols.get(c)?.value(row, self.n_rows)
    }

    /// Materializes row `row` as an owned tuple, `None` if out of range.
    pub fn row(&self, row: usize) -> Option<Tuple> {
        if row >= self.n_rows {
            return None;
        }
        let mut out = Vec::with_capacity(self.cols.len());
        for col in &self.cols {
            out.push(col.value(row, self.n_rows)?);
        }
        Some(out)
    }

    /// Serializes the block (see the module docs for the layout).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(&COLBLOCK_MAGIC);
        out.push(COLBLOCK_VERSION);
        crate::bytes::put_u16_le(&mut out, lo16(lo32(self.cols.len() as u64)));
        crate::bytes::put_u32_le(&mut out, lo32(self.n_rows as u64));
        for col in &self.cols {
            out.push(dtype_tag(col.data_type()));
            out.extend_from_slice(col.validity());
            match col {
                ColumnArray::Int { data, .. } | ColumnArray::Decimal { data, .. } => {
                    for v in data {
                        crate::bytes::put_i64_le(&mut out, *v);
                    }
                }
                ColumnArray::Date { data, .. } => {
                    for v in data {
                        crate::bytes::put_u32_le(&mut out, u32_bits(*v));
                    }
                }
                ColumnArray::Char { data, .. } => out.extend_from_slice(data),
                ColumnArray::Str { offsets, heap, .. } => {
                    // Offsets never exceed the heap length, so the heap
                    // length alone decides whether `u16` offsets suffice.
                    if heap.len() <= u16::MAX as usize {
                        out.push(2);
                        for v in offsets {
                            crate::bytes::put_u16_le(&mut out, lo16(*v));
                        }
                    } else {
                        out.push(4);
                        for v in offsets {
                            crate::bytes::put_u32_le(&mut out, *v);
                        }
                    }
                    out.extend_from_slice(heap);
                }
            }
        }
        out
    }

    /// Decodes a block, cross-checking the column count and types against
    /// `schema`. Any structural lie — short buffer, bad tag, offsets out
    /// of order, trailing bytes — is an error, never a partial block.
    pub fn decode(schema: &Schema, buf: &[u8]) -> Result<ColumnarBucket, ColBlockError> {
        let mut pos = 0usize;
        let magic = buf
            .get(pos..pos + COLBLOCK_MAGIC.len())
            .ok_or_else(|| ColBlockError("short header".into()))?;
        if magic != COLBLOCK_MAGIC {
            return Err(ColBlockError("bad magic".into()));
        }
        pos += COLBLOCK_MAGIC.len();
        let version = buf
            .get(pos)
            .copied()
            .ok_or_else(|| ColBlockError("short header".into()))?;
        if version != COLBLOCK_VERSION {
            return Err(ColBlockError(format!("unsupported version {version}")));
        }
        pos += 1;
        let n_cols = get_u16_le(buf, pos).ok_or_else(|| ColBlockError("short header".into()))?;
        pos += 2;
        let n_rows = get_u32_le(buf, pos).ok_or_else(|| ColBlockError("short header".into()))?;
        pos += 4;
        let n = n_rows as usize;
        if n_cols as usize != schema.len() {
            return Err(ColBlockError(format!(
                "block has {n_cols} columns, schema expects {}",
                schema.len()
            )));
        }
        let bm = bitmap_len(n);
        let mut cols = Vec::with_capacity(n_cols as usize);
        for (c, column) in schema.columns().iter().enumerate() {
            let tag = buf
                .get(pos)
                .copied()
                .ok_or_else(|| ColBlockError(format!("column {c}: short tag")))?;
            pos += 1;
            let ty = tag_dtype(tag)
                .ok_or_else(|| ColBlockError(format!("column {c}: bad tag {tag}")))?;
            if ty != column.ty {
                return Err(ColBlockError(format!(
                    "column {c}: block says {ty}, schema says {}",
                    column.ty
                )));
            }
            let valid = buf
                .get(pos..pos + bm)
                .ok_or_else(|| ColBlockError(format!("column {c}: short bitmap")))?
                .to_vec();
            pos += bm;
            let short = |what: &str| ColBlockError(format!("column {c}: short {what}"));
            let array = match ty {
                DataType::Int | DataType::Decimal => {
                    // Bulk-convert the whole array slice: one bounds check
                    // up front, then branch-free 8-byte chunks.
                    let bytes = buf
                        .get(pos..pos.saturating_add(8 * n))
                        .ok_or_else(|| short("i64 array"))?;
                    let mut data = Vec::with_capacity(n);
                    data.extend(
                        bytes
                            .chunks_exact(8)
                            .filter_map(|c| c.try_into().ok().map(i64::from_le_bytes)),
                    );
                    if data.len() != n {
                        return Err(short("i64 array"));
                    }
                    pos += 8 * n;
                    if ty == DataType::Int {
                        ColumnArray::Int { valid, data }
                    } else {
                        ColumnArray::Decimal { valid, data }
                    }
                }
                DataType::Date => {
                    let bytes = buf
                        .get(pos..pos.saturating_add(4 * n))
                        .ok_or_else(|| short("i32 array"))?;
                    let mut data = Vec::with_capacity(n);
                    data.extend(
                        bytes
                            .chunks_exact(4)
                            .filter_map(|c| c.try_into().ok().map(i32::from_le_bytes)),
                    );
                    if data.len() != n {
                        return Err(short("i32 array"));
                    }
                    pos += 4 * n;
                    ColumnArray::Date { valid, data }
                }
                DataType::Char => {
                    let data = buf
                        .get(pos..pos + n)
                        .ok_or_else(|| short("byte array"))?
                        .to_vec();
                    pos += n;
                    ColumnArray::Char { valid, data }
                }
                DataType::Str => {
                    let width = buf.get(pos).copied().ok_or_else(|| short("offset width"))?;
                    pos += 1;
                    if width != 2 && width != 4 {
                        return Err(ColBlockError(format!(
                            "column {c}: bad offset width {width}"
                        )));
                    }
                    let n_offsets = n.saturating_add(1);
                    let bytes = buf
                        .get(pos..pos.saturating_add(usize::from(width) * n_offsets))
                        .ok_or_else(|| short("offsets"))?;
                    let mut offsets = Vec::with_capacity(n_offsets);
                    if width == 2 {
                        offsets.extend(bytes.chunks_exact(2).filter_map(|c| {
                            c.try_into().ok().map(|a| u32::from(u16::from_le_bytes(a)))
                        }));
                    } else {
                        offsets.extend(
                            bytes
                                .chunks_exact(4)
                                .filter_map(|c| c.try_into().ok().map(u32::from_le_bytes)),
                        );
                    }
                    if offsets.len() != n_offsets {
                        return Err(short("offsets"));
                    }
                    pos += usize::from(width) * n_offsets;
                    if offsets.first().copied().unwrap_or(1) != 0 {
                        return Err(ColBlockError(format!(
                            "column {c}: offsets do not start at 0"
                        )));
                    }
                    if offsets.windows(2).any(|w| match w {
                        [a, b] => a > b,
                        _ => false,
                    }) {
                        return Err(ColBlockError(format!("column {c}: offsets out of order")));
                    }
                    let heap_len = offsets.last().copied().unwrap_or(0) as usize;
                    let heap = buf
                        .get(pos..pos + heap_len)
                        .ok_or_else(|| short("heap"))?
                        .to_vec();
                    pos += heap_len;
                    if std::str::from_utf8(&heap).is_err() {
                        return Err(ColBlockError(format!("column {c}: heap is not UTF-8")));
                    }
                    ColumnArray::Str {
                        valid,
                        offsets,
                        heap,
                    }
                }
            };
            cols.push(array);
        }
        if pos != buf.len() {
            return Err(ColBlockError(format!(
                "{} trailing bytes after the last column",
                buf.len().saturating_sub(pos)
            )));
        }
        Ok(ColumnarBucket { n_rows: n, cols })
    }
}

fn type_mismatch(c: usize, want: DataType, got: Option<&Value>) -> ColBlockError {
    ColBlockError(format!(
        "column {c}: expected {want}, row holds {}",
        got.map(|v| v.to_string())
            .unwrap_or_else(|| "nothing".into())
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Column;

    fn schema() -> Schema {
        Schema::new(vec![
            Column::new("I", DataType::Int),
            Column::new("D", DataType::Decimal),
            Column::new("T", DataType::Date),
            Column::new("C", DataType::Char),
            Column::new("S", DataType::Str),
        ])
    }

    fn rows() -> Vec<Tuple> {
        vec![
            vec![
                Value::Int(7),
                Value::Decimal(Decimal::from_cents(125)),
                Value::Date(Date::from_days(10_000)),
                Value::Char(b'A'),
                Value::Str("hello".into()),
            ],
            vec![
                Value::Null,
                Value::Null,
                Value::Null,
                Value::Null,
                Value::Null,
            ],
            vec![
                Value::Int(-9),
                Value::Decimal(Decimal::from_cents(-50)),
                Value::Date(Date::from_days(3)),
                Value::Char(b'z'),
                Value::Str("".into()),
            ],
        ]
    }

    #[test]
    fn roundtrip_preserves_every_value() {
        let s = schema();
        let rows = rows();
        let block = ColumnarBucket::from_rows(&s, &rows).unwrap();
        assert_eq!(block.n_rows(), 3);
        for (i, row) in rows.iter().enumerate() {
            assert_eq!(block.row(i).as_ref(), Some(row), "row {i}");
            for (c, v) in row.iter().enumerate() {
                assert_eq!(block.value(c, i).as_ref(), Some(v), "col {c} row {i}");
            }
        }
        assert_eq!(block.row(3), None);
        let bytes = block.encode();
        let back = ColumnarBucket::decode(&s, &bytes).unwrap();
        assert_eq!(back, block);
        assert_eq!(back.encode(), bytes, "deterministic re-encode");
    }

    #[test]
    fn empty_block_roundtrips() {
        let s = schema();
        let block = ColumnarBucket::from_rows(&s, &[]).unwrap();
        assert_eq!(block.n_rows(), 0);
        let back = ColumnarBucket::decode(&s, &block.encode()).unwrap();
        assert_eq!(back, block);
    }

    #[test]
    fn str_access_without_allocation() {
        let s = schema();
        let block = ColumnarBucket::from_rows(&s, &rows()).unwrap();
        let col = block.col(4).unwrap();
        assert_eq!(col.str_at(0), Some("hello"));
        assert_eq!(col.str_at(1), None, "null row");
        assert_eq!(col.str_at(2), Some(""));
        assert_eq!(col.str_at(3), None, "out of range");
    }

    #[test]
    fn type_mismatch_is_reported() {
        let s = schema();
        let bad = vec![vec![
            Value::Str("not an int".into()),
            Value::Null,
            Value::Null,
            Value::Null,
            Value::Null,
        ]];
        assert!(ColumnarBucket::from_rows(&s, &bad).is_err());
    }

    #[test]
    fn decode_rejects_structural_lies() {
        let s = schema();
        let good = ColumnarBucket::from_rows(&s, &rows()).unwrap().encode();
        assert!(ColumnarBucket::decode(&s, &[]).is_err(), "empty");
        let mut bad_magic = good.clone();
        if let Some(b) = bad_magic.first_mut() {
            *b = b'X';
        }
        assert!(ColumnarBucket::decode(&s, &bad_magic).is_err());
        let mut truncated = good.clone();
        truncated.pop();
        assert!(ColumnarBucket::decode(&s, &truncated).is_err());
        let mut trailing = good.clone();
        trailing.push(0);
        assert!(ColumnarBucket::decode(&s, &trailing).is_err());
        // Wrong schema arity.
        let short_schema = Schema::new(vec![Column::new("I", DataType::Int)]);
        assert!(ColumnarBucket::decode(&short_schema, &good).is_err());
    }

    #[test]
    fn wide_heaps_use_u32_offsets_and_roundtrip() {
        let s = Schema::new(vec![Column::new("S", DataType::Str)]);
        let rows: Vec<Tuple> = (0..2)
            .map(|i| vec![Value::Str("x".repeat(40_000 + i))])
            .collect();
        let block = ColumnarBucket::from_rows(&s, &rows).unwrap();
        let bytes = block.encode();
        // Header (11) + tag + bitmap + width byte, then 4-byte offsets.
        assert_eq!(bytes[11 + 1 + 1], 4, "heap past u16::MAX needs u32 offsets");
        let back = ColumnarBucket::decode(&s, &bytes).unwrap();
        assert_eq!(back, block);
        assert_eq!(back.encode(), bytes, "deterministic re-encode");
    }

    #[test]
    fn validity_bits() {
        let mut v = vec![0u8; 2];
        for i in [0usize, 3, 7, 8, 12] {
            set_validity_bit(&mut v, i);
        }
        for i in 0..16 {
            assert_eq!(
                validity_bit(&v, i),
                matches!(i, 0 | 3 | 7 | 8 | 12),
                "bit {i}"
            );
        }
        assert!(!validity_bit(&v, 99), "out of range reads unset");
    }
}

//! Zero-copy tuple views and projection pushdown.
//!
//! A [`RowView`] reads individual columns straight out of an encoded
//! tuple image (the [`crate::row`] layout) without materializing a
//! [`crate::Tuple`]: fixed-width slots are read at offsets computed once
//! per schema by [`RowLayout`], and string payloads are borrowed from the
//! var section of the image. A [`Projection`] names the column subset an
//! operator actually needs, so scan kernels can prove up front that a hot
//! loop touches only fixed-width slots and therefore never allocates.
//!
//! Borrowing rules: a `RowView` borrows both its layout and the page
//! frame holding the image, so it lives only inside the storage layer's
//! lending visitors (`Table::for_each_in_bucket`). Anything that must
//! outlive the visit is materialized into an owned `Tuple` via
//! [`RowView::materialize`].

#![deny(clippy::indexing_slicing, clippy::cast_possible_truncation)]

use std::cmp::Ordering;

use crate::bytes;
use crate::date::Date;
use crate::decimal::Decimal;
use crate::row::CodecError;
use crate::schema::{DataType, Schema};
use crate::value::Value;

/// The codec's null-bitmap rule: column `col`'s null flag is bit
/// `col % 8` of bitmap byte `col / 8`. The encoder, the decoder and
/// [`RowLayout`] all take the bit from here.
pub(crate) fn null_bit(col: usize) -> (usize, u8) {
    (col / 8, 1u8 << (col % 8))
}

/// Where one column lives in every image of a [`RowLayout`]: its bit in
/// the null bitmap and its fixed slot (byte offset, and a width given by
/// the type). [`RowLayout::new`] is the one place the codec's slot rule
/// is turned into positions; [`RowView`]'s typed accessors read through
/// a `Slot`, and compiled scan kernels hold `Slot`s, so no other module
/// recomputes the rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Slot {
    ty: DataType,
    null_byte: usize,
    null_mask: u8,
    offset: usize,
}

impl Slot {
    /// The column's declared type.
    pub fn data_type(self) -> DataType {
        self.ty
    }
}

/// Schema-derived byte offsets of the row codec, computed once per scan
/// and shared by every [`RowView`] of that scan.
#[derive(Debug, Clone)]
pub struct RowLayout {
    /// Bytes of null bitmap at the head of the image.
    bitmap_len: usize,
    /// Per column: its null bit and fixed slot.
    slots: Vec<Slot>,
    /// Offset of the var section (= bitmap + all fixed slots).
    var_start: usize,
}

impl RowLayout {
    /// Computes the layout of tuples encoded under `schema`.
    pub fn new(schema: &Schema) -> RowLayout {
        let bitmap_len = schema.len().div_ceil(8);
        let mut offset = bitmap_len;
        let slots = schema
            .columns()
            .iter()
            .enumerate()
            .map(|(col, c)| {
                let (null_byte, null_mask) = null_bit(col);
                let slot = Slot {
                    ty: c.ty,
                    null_byte,
                    null_mask,
                    offset,
                };
                offset += c.ty.fixed_width();
                slot
            })
            .collect();
        RowLayout {
            bitmap_len,
            slots,
            var_start: offset,
        }
    }

    /// Number of columns in the underlying schema.
    pub fn columns(&self) -> usize {
        self.slots.len()
    }

    /// Bytes of null bitmap at the head of every image.
    pub fn bitmap_len(&self) -> usize {
        self.bitmap_len
    }

    /// Byte offset of the var section (bitmap plus all fixed slots) —
    /// also the minimum valid image length.
    pub fn var_start(&self) -> usize {
        self.var_start
    }

    /// The null bit and fixed slot of column `col`; `None` when `col` is
    /// out of range.
    pub fn slot(&self, col: usize) -> Option<Slot> {
        self.slots.get(col).copied()
    }

    /// The declared type of column `col`.
    #[expect(
        clippy::indexing_slicing,
        reason = "callers pass col < columns(), which is slots.len()"
    )]
    pub fn data_type(&self, col: usize) -> DataType {
        self.slots[col].ty
    }

    /// Wraps `image` in a view. Errors if the image is shorter than the
    /// bitmap plus fixed sections (the same bound [`crate::row::decode`]
    /// enforces); var-section bounds are checked lazily on access.
    #[inline]
    pub fn view<'a>(&'a self, image: &'a [u8]) -> Result<RowView<'a>, CodecError> {
        if image.len() < self.var_start {
            return Err(CodecError(format!(
                "image too short: {} bytes, need at least {}",
                image.len(),
                self.var_start
            )));
        }
        Ok(RowView {
            layout: self,
            image,
        })
    }
}

/// A borrowed, column-at-a-time view of one encoded tuple image.
///
/// Every accessor is allocation-free except [`RowView::get`] on a `Str`
/// column (which must produce an owned [`Value::Str`]).
///
/// The slot readers ([`RowView::i64_at`], [`RowView::i32_at`],
/// [`RowView::u8_at`]) take a [`Slot`] of this view's layout and are
/// `#[inline]`, so a scan kernel in another crate that resolved its
/// slots once runs them without a call per row.
#[derive(Clone, Copy)]
pub struct RowView<'a> {
    layout: &'a RowLayout,
    image: &'a [u8],
}

impl<'a> RowView<'a> {
    /// Number of columns.
    pub fn columns(&self) -> usize {
        self.layout.columns()
    }

    /// Whether the column at `slot` is SQL `NULL` (its null-bitmap bit is
    /// set).
    #[inline]
    fn is_null_at(&self, slot: Slot) -> bool {
        // view() rejects images shorter than var_start, which covers the
        // whole bitmap; a missing byte would read as null.
        self.image
            .get(slot.null_byte)
            .is_none_or(|b| b & slot.null_mask != 0)
    }

    /// The raw `i64` of an `Int` slot, or a `Decimal` slot's cents;
    /// `None` when null.
    #[inline]
    pub fn i64_at(&self, slot: Slot) -> Option<i64> {
        debug_assert!(matches!(slot.ty, DataType::Int | DataType::Decimal));
        if self.is_null_at(slot) {
            return None;
        }
        bytes::get_i64_le(self.image, slot.offset)
    }

    /// The raw day count of a `Date` slot; `None` when null.
    #[inline]
    pub fn i32_at(&self, slot: Slot) -> Option<i32> {
        debug_assert_eq!(slot.ty, DataType::Date);
        if self.is_null_at(slot) {
            return None;
        }
        bytes::get_i32_le(self.image, slot.offset)
    }

    /// The flag byte of a `Char` slot; `None` when null.
    #[inline]
    pub fn u8_at(&self, slot: Slot) -> Option<u8> {
        debug_assert_eq!(slot.ty, DataType::Char);
        if self.is_null_at(slot) {
            return None;
        }
        self.image.get(slot.offset).copied()
    }

    /// Whether column `col` is SQL `NULL` (null-bitmap bit set); an
    /// out-of-range column reads as null.
    pub fn is_null(&self, col: usize) -> bool {
        self.layout.slot(col).is_none_or(|s| self.is_null_at(s))
    }

    /// The `i64` at an `Int` column; `None` when null.
    pub fn int_at(&self, col: usize) -> Option<i64> {
        debug_assert_eq!(self.layout.data_type(col), DataType::Int);
        self.i64_at(self.layout.slot(col)?)
    }

    /// The [`Decimal`] at a `Decimal` column; `None` when null.
    pub fn decimal_at(&self, col: usize) -> Option<Decimal> {
        debug_assert_eq!(self.layout.data_type(col), DataType::Decimal);
        self.i64_at(self.layout.slot(col)?).map(Decimal::from_cents)
    }

    /// The [`Date`] at a `Date` column; `None` when null.
    pub fn date_at(&self, col: usize) -> Option<Date> {
        debug_assert_eq!(self.layout.data_type(col), DataType::Date);
        self.i32_at(self.layout.slot(col)?).map(Date::from_days)
    }

    /// The flag byte at a `Char` column; `None` when null.
    pub fn char_at(&self, col: usize) -> Option<u8> {
        debug_assert_eq!(self.layout.data_type(col), DataType::Char);
        self.u8_at(self.layout.slot(col)?)
    }

    /// The borrowed payload of a `Str` column; `Ok(None)` when null.
    ///
    /// Walks the length slots of the preceding non-null `Str` columns to
    /// locate the payload, exactly mirroring [`crate::row::decode`]'s var
    /// cursor (null strings contribute no var bytes).
    #[expect(
        clippy::indexing_slicing,
        reason = "the end > self.image.len() check bounds the payload slice, and var_pos starts at var_start, which view() checked"
    )]
    pub fn str_at(&self, col: usize) -> Result<Option<&'a str>, CodecError> {
        debug_assert_eq!(self.layout.data_type(col), DataType::Str);
        if self.is_null(col) {
            return Ok(None);
        }
        let too_short = |what: &str| CodecError(format!("string column {what} slot out of bounds"));
        let mut var_pos = self.layout.var_start;
        for &slot in self.layout.slots.get(..col).unwrap_or(&[]) {
            if slot.ty == DataType::Str && !self.is_null_at(slot) {
                let len = bytes::get_u16_le(self.image, slot.offset)
                    .ok_or_else(|| too_short("length"))?;
                var_pos += usize::from(len);
            }
        }
        let offset = self
            .layout
            .slot(col)
            .ok_or_else(|| too_short("payload"))?
            .offset;
        let len =
            usize::from(bytes::get_u16_le(self.image, offset).ok_or_else(|| too_short("payload"))?);
        let end = var_pos + len;
        if end > self.image.len() {
            return Err(CodecError(format!(
                "string column {col} overruns image ({} > {})",
                end,
                self.image.len()
            )));
        }
        std::str::from_utf8(&self.image[var_pos..end])
            .map(Some)
            .map_err(|e| CodecError(format!("invalid utf-8 in column {col}: {e}")))
    }

    /// The column as an owned [`Value`] — allocates only for `Str`.
    pub fn get(&self, col: usize) -> Result<Value, CodecError> {
        if self.is_null(col) {
            return Ok(Value::Null);
        }
        // The accessors return `None` only for null columns, which the
        // check above already routed to `Value::Null`; mapping a residual
        // `None` back to `Null` keeps every path total without a panic.
        Ok(match self.layout.data_type(col) {
            DataType::Int => self.int_at(col).map(Value::Int).unwrap_or(Value::Null),
            DataType::Decimal => self
                .decimal_at(col)
                .map(Value::Decimal)
                .unwrap_or(Value::Null),
            DataType::Date => self.date_at(col).map(Value::Date).unwrap_or(Value::Null),
            DataType::Char => self.char_at(col).map(Value::Char).unwrap_or(Value::Null),
            DataType::Str => self
                .str_at(col)?
                .map(|s| Value::Str(s.to_string()))
                .unwrap_or(Value::Null),
        })
    }

    /// Compares column `col` against a constant with the semantics of
    /// [`Value::partial_cmp_typed`]: `None` when the column is null, the
    /// constant is `Null`, the types differ, or `col` is out of range.
    /// No allocation for any type (strings compare borrowed).
    pub fn cmp_value(&self, col: usize, other: &Value) -> Result<Option<Ordering>, CodecError> {
        if col >= self.columns() || self.is_null(col) {
            return Ok(None);
        }
        Ok(match (self.layout.data_type(col), other) {
            (DataType::Int, Value::Int(b)) => self.int_at(col).map(|v| v.cmp(b)),
            (DataType::Decimal, Value::Decimal(b)) => self.decimal_at(col).map(|v| v.cmp(b)),
            (DataType::Date, Value::Date(b)) => self.date_at(col).map(|v| v.cmp(b)),
            (DataType::Char, Value::Char(b)) => self.char_at(col).map(|v| v.cmp(b)),
            (DataType::Str, Value::Str(b)) => self.str_at(col)?.map(|v| v.cmp(b.as_str())),
            _ => None,
        })
    }

    /// Compares two columns of this row under the same typed semantics.
    pub fn cmp_cols(&self, left: usize, right: usize) -> Result<Option<Ordering>, CodecError> {
        if left >= self.columns() || right >= self.columns() {
            return Ok(None);
        }
        if self.is_null(left) || self.is_null(right) {
            return Ok(None);
        }
        fn both<T: Ord>(a: Option<T>, b: Option<T>) -> Option<Ordering> {
            match (a, b) {
                (Some(a), Some(b)) => Some(a.cmp(&b)),
                _ => None,
            }
        }
        Ok(
            match (self.layout.data_type(left), self.layout.data_type(right)) {
                (DataType::Int, DataType::Int) => both(self.int_at(left), self.int_at(right)),
                (DataType::Decimal, DataType::Decimal) => {
                    both(self.decimal_at(left), self.decimal_at(right))
                }
                (DataType::Date, DataType::Date) => both(self.date_at(left), self.date_at(right)),
                (DataType::Char, DataType::Char) => both(self.char_at(left), self.char_at(right)),
                (DataType::Str, DataType::Str) => both(self.str_at(left)?, self.str_at(right)?),
                _ => None,
            },
        )
    }

    /// Decodes the full row into an owned tuple (the operator-boundary
    /// materialization). Equivalent to [`crate::row::decode`].
    pub fn materialize(&self) -> Result<Vec<Value>, CodecError> {
        (0..self.columns()).map(|c| self.get(c)).collect()
    }
}

/// The set of columns an operator needs from each tuple, in ascending
/// order without duplicates — the unit of projection pushdown.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Projection {
    cols: Vec<usize>,
}

impl Projection {
    /// A projection over exactly `cols` (sorted, deduplicated here).
    pub fn new(mut cols: Vec<usize>) -> Projection {
        cols.sort_unstable();
        cols.dedup();
        Projection { cols }
    }

    /// Every column of `schema`.
    pub fn all(schema: &Schema) -> Projection {
        Projection {
            cols: (0..schema.len()).collect(),
        }
    }

    /// The projected column indexes, ascending.
    pub fn columns(&self) -> &[usize] {
        &self.cols
    }

    /// Whether `col` is projected.
    pub fn contains(&self, col: usize) -> bool {
        self.cols.binary_search(&col).is_ok()
    }

    /// True when every projected column of `schema` has a fixed-width
    /// type — the precondition for a fully allocation-free scan kernel
    /// (no `Str` payloads, so no owned `String` ever needs to exist).
    pub fn is_fixed_width_only(&self, schema: &Schema) -> bool {
        self.cols
            .iter()
            .all(|&c| c < schema.len() && schema.column(c).ty != DataType::Str)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::row::encode;
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

    #[test]
    fn typed_accessors_read_the_encoded_values() {
        let s = schema();
        let t = vec![
            Value::Int(-42),
            Value::Decimal(Decimal::from_cents(123456)),
            Value::Date(Date::parse("1997-04-30").unwrap()),
            Value::Char(b'N'),
            Value::Str("hello".into()),
            Value::Str("".into()),
        ];
        let mut buf = Vec::new();
        encode(&s, &t, &mut buf).unwrap();
        let layout = RowLayout::new(&s);
        let row = layout.view(&buf).unwrap();
        assert_eq!(row.int_at(0), Some(-42));
        assert_eq!(row.decimal_at(1), Some(Decimal::from_cents(123456)));
        assert_eq!(row.date_at(2), Some(Date::parse("1997-04-30").unwrap()));
        assert_eq!(row.char_at(3), Some(b'N'));
        assert_eq!(row.str_at(4).unwrap(), Some("hello"));
        assert_eq!(row.str_at(5).unwrap(), Some(""));
        assert_eq!(row.materialize().unwrap(), t);
    }

    #[test]
    fn null_str_columns_shift_no_var_bytes() {
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
        let layout = RowLayout::new(&s);
        let row = layout.view(&buf).unwrap();
        assert!(row.is_null(0) && row.is_null(4));
        assert_eq!(row.str_at(4).unwrap(), None);
        assert_eq!(row.str_at(5).unwrap(), Some("tail"));
        assert_eq!(row.int_at(0), None);
    }

    #[test]
    fn short_images_are_rejected() {
        let s = schema();
        let layout = RowLayout::new(&s);
        assert!(layout.view(&[]).is_err());
        let mut buf = Vec::new();
        encode(
            &s,
            &[
                Value::Int(1),
                Value::Null,
                Value::Null,
                Value::Null,
                Value::Null,
                Value::Null,
            ],
            &mut buf,
        )
        .unwrap();
        assert!(layout.view(&buf[..buf.len() - 1]).is_err());
        // Truncating only the var section passes construction but fails
        // the lazy bounds check on access.
        let t = vec![
            Value::Null,
            Value::Null,
            Value::Null,
            Value::Null,
            Value::Str("long enough".into()),
            Value::Null,
        ];
        let mut buf = Vec::new();
        encode(&s, &t, &mut buf).unwrap();
        let short = &buf[..buf.len() - 3];
        let row = layout.view(short).unwrap();
        assert!(row.str_at(4).is_err());
        assert!(row.get(4).is_err());
        assert!(row.materialize().is_err());
    }

    #[test]
    fn cmp_value_mirrors_partial_cmp_typed() {
        let s = schema();
        let t = vec![
            Value::Int(7),
            Value::Decimal(Decimal::from_cents(250)),
            Value::Null,
            Value::Char(b'A'),
            Value::Str("mm".into()),
            Value::Null,
        ];
        let mut buf = Vec::new();
        encode(&s, &t, &mut buf).unwrap();
        let layout = RowLayout::new(&s);
        let row = layout.view(&buf).unwrap();
        for (col, probe) in [
            (0, Value::Int(8)),
            (0, Value::Decimal(Decimal::from_cents(8))), // type mismatch
            (1, Value::Decimal(Decimal::from_cents(250))),
            (2, Value::Date(Date::from_days(0))), // null column
            (3, Value::Char(b'A')),
            (4, Value::Str("zz".into())),
            (4, Value::Null),
        ] {
            assert_eq!(
                row.cmp_value(col, &probe).unwrap(),
                t[col].partial_cmp_typed(&probe),
                "col {col} vs {probe:?}"
            );
        }
        // Out of range is None, matching `tuple.get(col)` semantics.
        assert_eq!(row.cmp_value(99, &Value::Int(1)).unwrap(), None);
        assert_eq!(row.cmp_cols(0, 99).unwrap(), None);
        assert_eq!(row.cmp_cols(0, 1).unwrap(), None); // Int vs Decimal
        assert_eq!(row.cmp_cols(4, 4).unwrap(), Some(Ordering::Equal));
    }

    #[test]
    fn projection_normalizes_and_classifies() {
        let s = schema();
        let p = Projection::new(vec![3, 0, 3, 2]);
        assert_eq!(p.columns(), &[0, 2, 3]);
        assert!(p.contains(2) && !p.contains(1));
        assert!(p.is_fixed_width_only(&s));
        assert!(!Projection::new(vec![0, 4]).is_fixed_width_only(&s));
        assert_eq!(Projection::all(&s).columns().len(), s.len());
        assert!(!Projection::all(&s).is_fixed_width_only(&s));
    }
}

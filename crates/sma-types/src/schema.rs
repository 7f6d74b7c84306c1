//! Relation schemas: ordered, named, typed columns.

use std::fmt;
use std::sync::Arc;

use crate::value::Value;

/// The storable data types.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataType {
    /// 64-bit signed integer.
    Int,
    /// Fixed-point decimal, two fractional digits, 8 bytes.
    Decimal,
    /// Calendar date, 4 bytes (the paper's "32 bits for a date field").
    Date,
    /// Single byte character flag.
    Char,
    /// Variable-length UTF-8 string.
    Str,
}

impl DataType {
    /// On-disk width of the fixed-size portion, in bytes. `Str` stores a
    /// 2-byte length prefix inline and the bytes after the fixed section.
    pub fn fixed_width(self) -> usize {
        match self {
            DataType::Int | DataType::Decimal => 8,
            DataType::Date => 4,
            DataType::Char => 1,
            DataType::Str => 2,
        }
    }

    /// The one-byte tag the on-disk formats (columnar blocks and the
    /// warehouse manifest) store for this type.
    pub fn tag(self) -> u8 {
        match self {
            DataType::Int => 0,
            DataType::Decimal => 1,
            DataType::Date => 2,
            DataType::Char => 3,
            DataType::Str => 4,
        }
    }

    /// The type a stored [`DataType::tag`] names; `None` for an unknown
    /// tag.
    pub fn from_tag(tag: u8) -> Option<DataType> {
        match tag {
            0 => Some(DataType::Int),
            1 => Some(DataType::Decimal),
            2 => Some(DataType::Date),
            3 => Some(DataType::Char),
            4 => Some(DataType::Str),
            _ => None,
        }
    }
}

impl fmt::Display for DataType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DataType::Int => "INT",
            DataType::Decimal => "DECIMAL",
            DataType::Date => "DATE",
            DataType::Char => "CHAR",
            DataType::Str => "STR",
        };
        f.write_str(s)
    }
}

/// A named, typed column.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Column {
    /// Column name (upper-case by TPC-D convention, e.g. `L_SHIPDATE`).
    pub name: String,
    /// Column type.
    pub ty: DataType,
}

impl Column {
    /// Convenience constructor.
    pub fn new(name: impl Into<String>, ty: DataType) -> Column {
        Column {
            name: name.into(),
            ty,
        }
    }
}

/// An ordered list of columns describing a relation.
///
/// Schemas are shared (`Arc`) between heap files, SMA definitions and
/// operators; cloning a [`SchemaRef`] is cheap.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schema {
    columns: Vec<Column>,
}

/// Shared handle to a schema.
pub type SchemaRef = Arc<Schema>;

impl Schema {
    /// Builds a schema from columns. Panics on duplicate column names —
    /// schemas are static program data, so this is a programming error.
    pub fn new(columns: Vec<Column>) -> Schema {
        for (i, c) in columns.iter().enumerate() {
            assert!(
                !columns[..i].iter().any(|d| d.name == c.name),
                "duplicate column name {:?}",
                c.name
            );
        }
        Schema { columns }
    }

    /// The columns, in order.
    pub fn columns(&self) -> &[Column] {
        &self.columns
    }

    /// Number of columns.
    pub fn len(&self) -> usize {
        self.columns.len()
    }

    /// True iff the schema has no columns.
    pub fn is_empty(&self) -> bool {
        self.columns.is_empty()
    }

    /// Index of the column named `name`, if any.
    pub fn index_of(&self, name: &str) -> Option<usize> {
        self.columns.iter().position(|c| c.name == name)
    }

    /// The column at `idx`.
    pub fn column(&self, idx: usize) -> &Column {
        &self.columns[idx]
    }

    /// Checks a tuple against this schema: arity and per-column types
    /// (`Null` is accepted for any type).
    pub fn validate(&self, tuple: &[Value]) -> Result<(), SchemaError> {
        if tuple.len() != self.columns.len() {
            return Err(SchemaError(format!(
                "arity mismatch: tuple has {} values, schema has {} columns",
                tuple.len(),
                self.columns.len()
            )));
        }
        for (v, c) in tuple.iter().zip(&self.columns) {
            if let Some(ty) = v.data_type() {
                if ty != c.ty {
                    return Err(SchemaError(format!(
                        "type mismatch in column {:?}: expected {}, got {}",
                        c.name, c.ty, ty
                    )));
                }
            }
        }
        Ok(())
    }
}

/// Error produced by schema validation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SchemaError(pub String);

impl fmt::Display for SchemaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "schema error: {}", self.0)
    }
}

impl std::error::Error for SchemaError {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decimal::Decimal;

    fn sample() -> Schema {
        Schema::new(vec![
            Column::new("ID", DataType::Int),
            Column::new("PRICE", DataType::Decimal),
            Column::new("NAME", DataType::Str),
        ])
    }

    #[test]
    fn lookup_by_name() {
        let s = sample();
        assert_eq!(s.index_of("PRICE"), Some(1));
        assert_eq!(s.index_of("MISSING"), None);
        assert_eq!(s.column(0).name, "ID");
        assert_eq!(s.len(), 3);
        assert!(!s.is_empty());
    }

    #[test]
    fn type_tags_are_the_stored_bytes_and_round_trip() {
        let all = [
            DataType::Int,
            DataType::Decimal,
            DataType::Date,
            DataType::Char,
            DataType::Str,
        ];
        // Columnar blocks and the warehouse manifest store these bytes.
        let tags: Vec<u8> = all.iter().map(|ty| ty.tag()).collect();
        assert_eq!(tags, vec![0, 1, 2, 3, 4]);
        for ty in all {
            assert_eq!(DataType::from_tag(ty.tag()), Some(ty));
        }
        assert_eq!(DataType::from_tag(5), None);
    }

    #[test]
    #[should_panic(expected = "duplicate column name")]
    fn rejects_duplicates() {
        Schema::new(vec![
            Column::new("A", DataType::Int),
            Column::new("A", DataType::Date),
        ]);
    }

    #[test]
    fn validate_accepts_well_typed() {
        let s = sample();
        let t = vec![
            Value::Int(1),
            Value::Decimal(Decimal::from_int(2)),
            Value::Str("x".into()),
        ];
        assert!(s.validate(&t).is_ok());
    }

    #[test]
    fn validate_accepts_null_anywhere() {
        let s = sample();
        let t = vec![Value::Null, Value::Null, Value::Null];
        assert!(s.validate(&t).is_ok());
    }

    #[test]
    fn validate_rejects_arity_and_type() {
        let s = sample();
        assert!(s.validate(&[Value::Int(1)]).is_err());
        let t = vec![Value::Int(1), Value::Int(2), Value::Str("x".into())];
        assert!(s.validate(&t).is_err());
    }

    #[test]
    fn fixed_widths() {
        assert_eq!(DataType::Int.fixed_width(), 8);
        assert_eq!(DataType::Decimal.fixed_width(), 8);
        assert_eq!(DataType::Date.fixed_width(), 4);
        assert_eq!(DataType::Char.fixed_width(), 1);
        assert_eq!(DataType::Str.fixed_width(), 2);
    }
}

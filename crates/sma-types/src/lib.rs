//! Type system for the SMA data warehouse reproduction.
//!
//! This crate provides the primitives every other layer builds on:
//!
//! * [`Date`] — calendar dates as 4-byte day counts (proleptic Gregorian),
//! * [`Decimal`] — exact fixed-point money with two fractional digits,
//! * [`Value`] — the dynamically-typed value flowing through operators,
//! * [`Schema`] / [`DataType`] — relation schemas,
//! * [`row`] — the binary tuple codec used by slotted pages.
//!
//! Widths deliberately match the paper's accounting (§2.4): dates and
//! counts take 4 bytes, all other aggregate values 8 bytes.

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::todo,
    clippy::unimplemented,
    clippy::print_stdout,
    clippy::print_stderr,
    clippy::dbg_macro,
    clippy::allow_attributes,
    clippy::allow_attributes_without_reason
)]

pub mod bytes;
pub mod date;
pub mod decimal;
pub mod rng;
pub mod row;
pub mod schema;
pub mod value;
pub mod view;
pub mod walrec;

pub use date::{Date, DateError};
pub use decimal::{Decimal, DecimalError};
pub use rng::StdRng;
pub use row::{CodecError, Tuple};
pub use schema::{Column, DataType, Schema, SchemaError, SchemaRef};
pub use value::Value;
pub use view::{Projection, RowLayout, RowView, Slot};
pub use walrec::{decode_wal_record, encode_wal_record, WalRecord};

//! Small Materialized Aggregates — the paper's primary contribution.
//!
//! A SMA materializes one aggregate (`min`, `max`, `sum`, `count(*)`),
//! optionally per group, for every *bucket* of a physically ordered
//! relation, in a plain sequential file. SMAs serve two purposes (§2.2):
//!
//! 1. **Selection**: grade buckets as qualifying / disqualifying /
//!    ambivalent without touching the data ([`grade`]), so scans skip
//!    disqualified buckets and take qualified buckets' aggregates straight
//!    from the SMA;
//! 2. **Aggregation**: answer grouped aggregate queries from per-bucket
//!    aggregates, reading only ambivalent buckets ([`set`], used by
//!    `sma-exec`'s `SmaGAggr`).
//!
//! Module map: [`def`] (the `define sma` statement) → [`sma`]
//! (bulkload + maintenance) → [`mod@file`] (the sequential SMA-files) →
//! [`set`] (SMA sets, grading provider) → [`grade`] (§3.1 algebra) →
//! [`level2`] / [`join_sma`] (§4 extensions) → [`parse`] /
//! [`catalog`] (the declarative front end) → [`persist`] (page-store
//! serialization) → [`projection`] (the structure SMAs generalize).
//! [`expr`] and [`agg`] are the shared scalar-expression and accumulator
//! plumbing; [`compiled`] compiles a selection predicate against the row
//! layout for the scan kernels' per-tuple filter.
//!
//! # Example
//!
//! ```
//! use sma_core::{SmaDefinition, SmaSet, AggFn, BucketPred, CmpOp, Grade, col};
//! use sma_storage::Table;
//! use sma_types::{Column, DataType, Schema, Value};
//! use std::sync::Arc;
//!
//! let schema = Arc::new(Schema::new(vec![Column::new("K", DataType::Int)]));
//! let mut table = Table::in_memory("R", schema, 1);
//! for k in 0..100 { table.append(&vec![Value::Int(k)]).unwrap(); }
//!
//! let smas = SmaSet::build(&table, vec![
//!     SmaDefinition::new("min", AggFn::Min, col(0)),
//!     SmaDefinition::new("max", AggFn::Max, col(0)),
//! ]).unwrap();
//!
//! // All 100 tuples fit one page/bucket here, so the lone bucket grades
//! // ambivalent for a predicate splitting it and exactly otherwise:
//! assert_eq!(BucketPred::cmp(0, CmpOp::Le, 50i64).grade(0, &smas), Grade::Ambivalent);
//! assert_eq!(BucketPred::cmp(0, CmpOp::Ge, 0i64).grade(0, &smas), Grade::Qualifies);
//! assert_eq!(BucketPred::cmp(0, CmpOp::Gt, 99i64).grade(0, &smas), Grade::Disqualifies);
//! ```

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

pub mod agg;
pub mod catalog;
pub mod compiled;
pub mod def;
pub mod expr;
pub mod file;
pub mod grade;
pub mod join_sma;
pub mod level2;
pub mod parse;
pub mod persist;
pub mod projection;
pub mod set;
pub mod sma;
pub mod validate;

pub use agg::{Accumulator, AggFn, RetractError};
pub use catalog::{CatalogError, SmaCatalog};
pub use compiled::CompiledPred;
pub use def::{DefError, SmaDefinition};
pub use expr::{col, dec_lit, lit, ExprError, ScalarExpr};
pub use file::SmaFile;
pub use grade::{BucketPred, Classification, CmpOp, Grade, NoStats, StatsProvider};
pub use join_sma::{semijoin_prune, MinimaxOf};
pub use level2::{Level2Col, SuperFlags, FANOUT as LEVEL2_FANOUT};
pub use parse::{parse_define_sma, ParseError};
pub use persist::{
    decode_definition, decode_sma_stream, encode_definition, encode_sma_stream, load_sma,
    load_sma_file, save_sma, save_sma_file,
};
pub use projection::ProjectionIndex;
pub use set::{merge_bucket_into_group, SmaSet};
pub use sma::{build_many, build_many_parallel, GroupKey, Sma, SmaError};
pub use validate::{check_level2, check_set, check_sma, debug_check_sma, Violation};

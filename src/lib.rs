//! `smadb` — a reproduction of *Small Materialized Aggregates: A Light
//! Weight Index Structure for Data Warehousing* (G. Moerkotte, VLDB 1998).
//!
//! This umbrella crate re-exports the workspace crates so examples and
//! downstream users can depend on a single name:
//!
//! * [`types`] — dates, decimals, values, schemas, row codec,
//! * [`storage`] — slotted pages, heap files, buckets, buffer pool,
//! * [`tpcd`] — TPC-D generator with clustering models,
//! * [`sma`] — the paper's contribution: SMA files, build/maintain, grading,
//! * [`exec`] — physical operators (`SmaScan`, `SmaGAggr`) and planner,
//! * [`cube`] — the comparators (materialized data cube, B+ tree).
//!
//! The umbrella crate itself contributes the durability layer:
//! [`warehouse`] (named tables + SMAs + crash-safe persistence),
//! [`ingest`] (WAL + memtable streaming ingest through one all-or-nothing
//! batch insert, and crash-recoverable incremental flush), and
//! [`compact`] (background segment compaction).
//!
//! # Quickstart
//!
//! See `examples/quickstart.rs`; in short:
//!
//! ```
//! use smadb::tpcd::{GenConfig, Clustering, generate_lineitem_table};
//! use smadb::sma::{SmaDefinition, AggFn, SmaSet};
//! use smadb::exec::{run_query1, Query1Config};
//!
//! let table = generate_lineitem_table(&GenConfig::tiny(Clustering::SortedByShipdate));
//! let smas = SmaSet::build_query1_set(&table).unwrap();
//! let with = run_query1(&table, Some(&smas), &Query1Config::default()).unwrap();
//! let without = run_query1(&table, None, &Query1Config::default()).unwrap();
//! assert_eq!(with.rows, without.rows);
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

pub mod compact;
pub mod ingest;
pub mod warehouse;

pub use compact::{CompactStage, CompactionPolicy, CompactionReport};
pub use ingest::{FlushStage, IngestError, IngestRecoveryReport, StreamingWarehouse, WAL_FILE};
pub use sma_core as sma;
pub use sma_cube as cube;
pub use sma_exec as exec;
pub use sma_storage as storage;
pub use sma_tpcd as tpcd;
pub use sma_types as types;
pub use warehouse::{
    CommitMeta, QueryResult, RecoveryReport, Warehouse, WarehouseError, MANIFEST_FILE,
};

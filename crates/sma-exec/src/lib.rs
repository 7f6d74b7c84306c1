//! Physical query algebra exploiting SMAs (§3 of the paper).
//!
//! * [`op`] — the iterator-model operator interface,
//! * [`basic`] — `SeqScan`, `Filter`, `Project` (the SMA-less baselines),
//! * [`scan`] — `SmaScan` (Fig. 6),
//! * [`gaggr`] — Dayal-style grouping/aggregation (`HashGAggr`),
//! * [`sma_gaggr`] — `SmaGAggr` (Fig. 7), whose bucket loop every
//!   aggregate plan but the SMA scan runs,
//! * [`parallel`] — the bucket-parallelism knob and morsel partitioning,
//! * [`degrade`] — degradation accounting: buckets demoted to base scans
//!   when SMA entries cannot be trusted, and retries spent underneath,
//! * [`semijoin`] — semi-joins with SMA input reduction (§4),
//! * [`planner`] — cost-based plan choice with the Fig. 5 breakeven,
//! * [`query1`] — end-to-end TPC-D Query 1 runs.

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

pub mod basic;
pub mod degrade;
pub mod gaggr;
pub mod op;
pub mod parallel;
pub mod planner;
pub mod query1;
pub mod query3;
pub mod query4;
pub mod query6;
pub mod scan;
pub mod semijoin;
pub mod sma_gaggr;
pub mod sort;

pub use basic::{Filter, Project, SeqScan};
pub use degrade::DegradationReport;
pub use gaggr::{AggSpec, HashGAggr};
pub use op::{collect, ExecError, PhysicalOp};
pub use parallel::{morsels, Parallelism};
pub use planner::{plan, AggregateQuery, Estimate, Plan, PlanKind, PlannerConfig};
pub use query1::{cutoff, query1_query, run_query1, Q1Execution, Query1Config};
pub use query3::{query3_sma_definitions, run_query3, Q3Execution, Q3Params};
pub use query4::{run_query4, Q4Execution, Q4Params};
pub use query6::{query6_query, query6_sma_definitions, run_query6, Q6Execution, Q6Params};
pub use scan::{ScanCounters, SmaScan};
pub use semijoin::SemiJoin;
pub use sma_gaggr::SmaGAggr;
pub use sort::{Limit, Sort, SortOrder};

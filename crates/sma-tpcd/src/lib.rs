//! TPC-D data generation for the SMA reproduction.
//!
//! The paper evaluates SMAs on the TPC-D benchmark (the predecessor of
//! TPC-H). This crate provides:
//!
//! * [`schema`] — the LINEITEM and ORDERS schemas,
//! * [`generator`] — a dbgen-style seeded generator,
//! * [`clustering`] — physical-order regimes, including the paper's
//!   *diagonal data distribution* (Fig. 2),
//! * [`query1`] — a reference implementation of Query 1 used as the
//!   correctness oracle for SMA-accelerated plans.

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

pub mod clustering;
pub mod customer;
pub mod generator;
pub mod query1;
pub mod query3;
pub mod query4;
pub mod query6;
pub mod schema;

pub use clustering::Clustering;
pub use customer::{customer_schema, generate_customers, load_customers, Customer, MKTSEGMENTS};
pub use generator::{
    current_date, end_date, generate, generate_lineitem_table, load_lineitem, load_orders,
    start_date, GenConfig, LineItem, Order,
};
pub use query1::{
    format_q1, q1_cutoff, q1_reference_items, q1_reference_table, q1_selectivity, Q1Row,
};
pub use query3::{q3_reference, Q3Params, Q3Row};
pub use query4::{q4_reference, Q4Params, Q4Row};
pub use query6::{q6_reference_items, q6_reference_table, Q6Params};
pub use schema::{lineitem_schema, orders_schema};

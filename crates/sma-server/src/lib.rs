//! Concurrent TCP query server over one shared [`smadb`] warehouse.
//!
//! The robustness contract, bottom-up:
//!
//! * [`proto`] — length-prefixed frames with a hard size bound, a status
//!   byte per response (`Ok`/`Degraded`/`Busy`/`Error`/`ShuttingDown`),
//!   and a deterministic payload (epoch + plan + rows) so replies can be
//!   compared byte-for-byte across runs.
//! * [`statement`] — a tiny text statement language (`create table`,
//!   `define sma`, `insert`, `select` aggregates, `ping`/`epoch`/
//!   `flush`/`shutdown`). Parse errors are responses, never panics.
//! * [`admission`] — a fixed-capacity counting gate. Load past the limit
//!   is *shed* with an explicit `Busy` response; nothing ever queues
//!   unboundedly.
//! * [`server`] — the session loop: per-query budgets (deadline +
//!   logical-page cap via [`sma_storage::QueryBudget`]) cut heavy scans
//!   off with a structured error so they cannot starve point
//!   aggregates; queries run under a read lock against one catalog
//!   epoch (flush/compaction takes the write lock, so a query never
//!   observes a half-installed SMA generation); graceful shutdown
//!   drains in-flight requests, flushes, and refuses new connections.
//! * [`client`] — a minimal blocking client for tests, benches, and the
//!   README quickstart.
//!
//! Everything is `std`-only: threads + nonblocking accept + short read
//! timeouts, no async runtime.

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

pub mod admission;
pub mod client;
pub mod proto;
pub mod server;
pub mod statement;

pub use admission::{Admission, Permit};
pub use client::Client;
pub use proto::{Response, Status, MAX_FRAME_BYTES};
pub use server::{Server, ServerConfig, ServerError, ServerHandle};
pub use statement::Statement;

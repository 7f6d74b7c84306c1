//! The physical-operator interface.
//!
//! Operators implement the iterator concept the paper cites (\[7\], Graefe):
//! `open` / `next` / `close`. Tuples are materialized [`Tuple`]s — fine
//! for a system whose interesting costs are page I/O, not copies.

use std::fmt;

use sma_core::{ExprError, SmaError};
use sma_storage::{BudgetExceeded, TableError};
use sma_types::Tuple;

/// Errors surfaced by query execution.
#[derive(Debug)]
pub enum ExecError {
    /// Storage layer failed.
    Table(TableError),
    /// SMA layer failed.
    Sma(SmaError),
    /// Expression evaluation failed.
    Expr(ExprError),
    /// A plan needed a SMA the set does not contain.
    MissingSma(String),
    /// Operator protocol misuse or invalid plan shape.
    Plan(String),
    /// The query's [`sma_storage::QueryBudget`] was exhausted (deadline or
    /// page cap) or cancelled. A cooperative cut-off, not a failure of the
    /// data: re-running with a bigger budget would succeed.
    Budget(BudgetExceeded),
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::Table(e) => write!(f, "{e}"),
            ExecError::Sma(e) => write!(f, "{e}"),
            ExecError::Expr(e) => write!(f, "{e}"),
            ExecError::MissingSma(what) => write!(f, "missing SMA: {what}"),
            ExecError::Plan(what) => write!(f, "plan error: {what}"),
            ExecError::Budget(e) => write!(f, "query budget: {e}"),
        }
    }
}

impl std::error::Error for ExecError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ExecError::Table(e) => Some(e),
            ExecError::Sma(e) => Some(e),
            ExecError::Expr(e) => Some(e),
            ExecError::MissingSma(_) | ExecError::Plan(_) => None,
            ExecError::Budget(e) => Some(e),
        }
    }
}

impl From<TableError> for ExecError {
    fn from(e: TableError) -> ExecError {
        ExecError::Table(e)
    }
}

impl From<sma_types::CodecError> for ExecError {
    fn from(e: sma_types::CodecError) -> ExecError {
        ExecError::Table(TableError::from(e))
    }
}

impl From<SmaError> for ExecError {
    fn from(e: SmaError) -> ExecError {
        ExecError::Sma(e)
    }
}

impl From<ExprError> for ExecError {
    fn from(e: ExprError) -> ExecError {
        ExecError::Expr(e)
    }
}

impl From<BudgetExceeded> for ExecError {
    fn from(e: BudgetExceeded) -> ExecError {
        ExecError::Budget(e)
    }
}

/// A physical operator in the iterator model.
pub trait PhysicalOp {
    /// Prepares the operator. Pipeline breakers (the GAggr variants) do
    /// their whole computation here (§3.3: "within its init function, the
    /// result is computed").
    fn open(&mut self) -> Result<(), ExecError>;

    /// Produces the next tuple, or `None` when exhausted.
    fn next(&mut self) -> Result<Option<Tuple>, ExecError>;

    /// Releases resources; the operator may be re-`open`ed afterwards.
    fn close(&mut self);

    /// One-line description for EXPLAIN output.
    fn describe(&self) -> String;
}

/// Drains an operator into a vector (convenience for tests and examples).
pub fn collect(op: &mut dyn PhysicalOp) -> Result<Vec<Tuple>, ExecError> {
    op.open()?;
    let mut out = Vec::new();
    while let Some(t) = op.next()? {
        out.push(t);
    }
    op.close();
    Ok(out)
}

//! Comparators from the paper's evaluation (§2.4).
//!
//! * [`model`] — the data-cube storage formula (479.25 KB → 2985.95 GB),
//! * [`cube`] — a *working* one-date-dimension Query 1 cube with prefix
//!   sums: the lookup speed the cube buys, at the rigidity the paper
//!   criticizes,
//! * [`btree`] — a from-scratch B+ tree (insert, bulkload, range) standing
//!   in for the traditional index that is "of no use for Query 1",
//! * [`bitmap`] — a value-list bitmap index, the other related-work index
//!   family (\[15\]), for the per-tuple vs per-bucket comparison.

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

pub mod bitmap;
pub mod btree;
pub mod cube;
pub mod model;

pub use bitmap::BitmapIndex;
pub use btree::BPlusTree;
pub use cube::{CubeCell, Query1Cube};
pub use model::CubeModel;

/// The node order that fills one 4 KiB page given fixed key/value widths —
/// used to express a B+ tree's footprint in pages for the §2.4 comparison.
pub fn page_sized_order(key_bytes: usize, val_bytes: usize) -> usize {
    // Per entry: key + value; per node: ~16 bytes header.
    ((sma_storage::PAGE_SIZE - 16) / (key_bytes + val_bytes)).max(3)
}

#[cfg(test)]
mod tests {
    #[test]
    fn page_sized_order_for_date_index() {
        // 4-byte date key + 8-byte rid: ~340 entries per 4 KiB node.
        let order = super::page_sized_order(4, 8);
        assert!((300..=360).contains(&order), "{order}");
    }
}

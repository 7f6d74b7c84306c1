//! The CUSTOMER relation: schema and generator.
//!
//! Needed by Query 3 (shipping priority), which restricts on
//! `C_MKTSEGMENT` and joins through `O_CUSTKEY`. Value domains follow the
//! TPC-D spec: five market segments, 150 000 customers at SF 1.

use std::sync::Arc;

use sma_types::StdRng;

use sma_storage::Table;
use sma_types::{Column, DataType, Decimal, Schema, SchemaRef, Tuple, Value};

/// Column indexes of the CUSTOMER relation, in schema order.
pub mod columns {
    /// C_CUSTKEY
    pub const CUSTKEY: usize = 0;
    /// C_NAME
    pub const NAME: usize = 1;
    /// C_NATIONKEY
    pub const NATIONKEY: usize = 2;
    /// C_ACCTBAL
    pub const ACCTBAL: usize = 3;
    /// C_MKTSEGMENT
    pub const MKTSEGMENT: usize = 4;
    /// C_COMMENT
    pub const COMMENT: usize = 5;
}

/// The five TPC-D market segments.
pub const MKTSEGMENTS: [&str; 5] = [
    "AUTOMOBILE",
    "BUILDING",
    "FURNITURE",
    "HOUSEHOLD",
    "MACHINERY",
];

/// The CUSTOMER schema (the columns the benchmark queries touch).
pub fn customer_schema() -> SchemaRef {
    Arc::new(Schema::new(vec![
        Column::new("C_CUSTKEY", DataType::Int),
        Column::new("C_NAME", DataType::Str),
        Column::new("C_NATIONKEY", DataType::Int),
        Column::new("C_ACCTBAL", DataType::Decimal),
        Column::new("C_MKTSEGMENT", DataType::Str),
        Column::new("C_COMMENT", DataType::Str),
    ]))
}

/// One generated CUSTOMER row.
#[derive(Debug, Clone, PartialEq)]
pub struct Customer {
    /// C_CUSTKEY
    pub custkey: i64,
    /// C_NATIONKEY
    pub nationkey: i64,
    /// C_ACCTBAL
    pub acctbal: Decimal,
    /// C_MKTSEGMENT
    pub mktsegment: &'static str,
}

impl Customer {
    /// Converts to a storage tuple in CUSTOMER schema order.
    pub fn to_tuple(&self) -> Tuple {
        vec![
            Value::Int(self.custkey),
            Value::Str(format!("Customer#{:09}", self.custkey)),
            Value::Int(self.nationkey),
            Value::Decimal(self.acctbal),
            Value::Str(self.mktsegment.to_string()),
            Value::Str("generated".to_string()),
        ]
    }
}

/// Generates `n` customers with keys `1..=n`, seeded.
pub fn generate_customers(n: usize, seed: u64) -> Vec<Customer> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xC057);
    (1..=n as i64)
        .map(|custkey| Customer {
            custkey,
            nationkey: rng.random_range(0..25),
            acctbal: Decimal::from_cents(rng.random_range(-99_999..=999_999)),
            mktsegment: MKTSEGMENTS[rng.random_range(0..MKTSEGMENTS.len())],
        })
        .collect()
}

/// Loads customers into an in-memory bucketed table.
pub fn load_customers(customers: &[Customer], bucket_pages: u32, pool_pages: usize) -> Table {
    let mut table = Table::new(
        "CUSTOMER",
        customer_schema(),
        Box::new(sma_storage::MemStore::new()),
        pool_pages,
        bucket_pages,
    );
    for c in customers {
        #[expect(
            clippy::expect_used,
            reason = "loader over self-generated schema-valid tuples; failure means a misconfigured harness"
        )]
        table.append(&c.to_tuple()).expect("generated tuple fits");
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic_and_in_domain() {
        let a = generate_customers(500, 42);
        let b = generate_customers(500, 42);
        assert_eq!(a, b);
        assert_ne!(a, generate_customers(500, 43));
        for (i, c) in a.iter().enumerate() {
            assert_eq!(c.custkey, i as i64 + 1);
            assert!((0..25).contains(&c.nationkey));
            assert!(MKTSEGMENTS.contains(&c.mktsegment));
            assert!(c.acctbal.cents() >= -99_999 && c.acctbal.cents() <= 999_999);
        }
        // All five segments appear in a 500-customer sample.
        for seg in MKTSEGMENTS {
            assert!(a.iter().any(|c| c.mktsegment == seg), "{seg} missing");
        }
    }

    #[test]
    fn loads_into_table() {
        let customers = generate_customers(200, 7);
        let t = load_customers(&customers, 1, 1 << 12);
        assert_eq!(t.live_tuples(), 200);
        let rows = t.scan().unwrap();
        assert_eq!(rows[0].1[columns::CUSTKEY], Value::Int(1));
        assert_eq!(
            rows[0].1[columns::MKTSEGMENT],
            Value::Str(customers[0].mktsegment.to_string())
        );
    }

    #[test]
    fn schema_lines_up() {
        let s = customer_schema();
        assert_eq!(s.index_of("C_CUSTKEY"), Some(columns::CUSTKEY));
        assert_eq!(s.index_of("C_MKTSEGMENT"), Some(columns::MKTSEGMENT));
    }
}

//! Two-level SMAs — the §4 tuning measure, as the planner grades with it.
//!
//! Every SMA carries a second level: one entry per super-bucket of
//! [`LEVEL2_FANOUT`] buckets. `Classification::classify` grades each
//! super-bucket from it and reads level-1 entries only where level 2
//! leaves the grade open. This example builds min/max SMAs over a sorted
//! integer table and sweeps the predicate selectivity to show how many
//! level-1 entries the second level lets grading skip.
//!
//! Run with: `cargo run --release --example hierarchical_smas`

use std::sync::Arc;

use smadb::sma::{
    col, AggFn, BucketPred, Classification, CmpOp, SmaDefinition, SmaSet, LEVEL2_FANOUT,
};
use smadb::storage::Table;
use smadb::types::{Column, DataType, Schema, Value};

fn main() {
    // A sorted fact table: 4096 tuples, 2 per page, 2048 buckets.
    let schema = Arc::new(Schema::new(vec![
        Column::new("K", DataType::Int),
        Column::new("PAD", DataType::Str),
    ]));
    let mut t = Table::in_memory("FACTS", schema, 1);
    let pad = "p".repeat(1800);
    let n = 4096i64;
    for k in 0..n {
        t.append(&vec![Value::Int(k), Value::Str(pad.clone())])
            .unwrap();
    }
    let set = SmaSet::build(
        &t,
        vec![
            SmaDefinition::new("min", AggFn::Min, col(0)),
            SmaDefinition::new("max", AggFn::Max, col(0)),
        ],
    )
    .unwrap();
    let (min, max) = (set.min_sma_for(0).unwrap(), set.max_sma_for(0).unwrap());
    println!(
        "table: {} buckets; level 1: {} entries per SMA; level 2: {} (fanout {LEVEL2_FANOUT})",
        t.bucket_count(),
        min.n_buckets(),
        min.super_bucket_count()
    );
    println!(
        "\n  {:>12} {:>16} {:>14} {:>10}",
        "selectivity", "l2 decided", "l1 graded", "saving"
    );
    for sel_pct in [1u32, 5, 25, 50, 95, 99] {
        let cutoff = (n * sel_pct as i64) / 100;
        let pred = BucketPred::cmp(0, CmpOp::Le, cutoff);
        // `K <= c` is decided for a whole super-bucket when its level-2
        // bounds lie on one side of `c`.
        let decided = (0..min.super_bucket_count())
            .filter(|&sb| {
                let (lo, hi) = (
                    min.super_value_across_groups(sb),
                    max.super_value_across_groups(sb),
                );
                CmpOp::Le.eval(&hi, &Value::Int(cutoff)) || CmpOp::Gt.eval(&lo, &Value::Int(cutoff))
            })
            .count() as u32;
        let graded = t.bucket_count() - decided * LEVEL2_FANOUT;
        let c = Classification::classify(&pred, t.bucket_count(), &set);
        let flat: Vec<_> = (0..t.bucket_count()).map(|b| pred.grade(b, &set)).collect();
        assert_eq!(c.grades, flat, "level 2 never changes a grade");
        println!(
            "  {:>11}% {:>10} of {:>3} {:>14} {:>9.1}%",
            sel_pct,
            decided,
            min.super_bucket_count(),
            graded,
            100.0 * f64::from(t.bucket_count() - graded) / f64::from(t.bucket_count())
        );
    }
    println!("\nreading: on clustered data almost every level-2 entry decides its whole");
    println!("super-bucket, so grading barely touches the level-1 SMA-file — the saving");
    println!("the paper predicts for \"rather high and rather low selectivities\".");
}

//! A2 — ablation: two-level SMAs, §4.
//!
//! Compares grading every level-1 entry against the planner's two-level
//! grading (`Classification::classify`), over clustered data where level
//! 2 decides most super-buckets without touching level 1.

use sma_bench::harness::Criterion;
use sma_bench::{criterion_group, criterion_main};

use sma_bench::bench_table;
use sma_core::{col, AggFn, BucketPred, Classification, CmpOp, Grade, SmaDefinition, SmaSet};
use sma_exec::cutoff;
use sma_tpcd::{schema::lineitem as li, Clustering};
use sma_types::Value;

fn bench_hierarchical(c: &mut Criterion) {
    let table = bench_table(Clustering::SortedByShipdate, 1);
    let set = SmaSet::build(
        &table,
        vec![
            SmaDefinition::new("min", AggFn::Min, col(li::SHIPDATE)),
            SmaDefinition::new("max", AggFn::Max, col(li::SHIPDATE)),
        ],
    )
    .expect("build");
    let pred = BucketPred::cmp(li::SHIPDATE, CmpOp::Le, Value::Date(cutoff(90)));
    let n = table.bucket_count();

    let mut group = c.benchmark_group("a2_level2");
    group.bench_function("flat_grading", |b| {
        b.iter(|| (0..n).map(|b| pred.grade(b, &set)).collect::<Vec<Grade>>())
    });
    group.bench_function("two_level", |b| {
        b.iter(|| Classification::classify(&pred, n, &set))
    });
    group.finish();
}

criterion_group!(benches, bench_hierarchical);
criterion_main!(benches);

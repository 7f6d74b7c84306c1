//! E4 — Figure 5: Query 1 runtime as a function of the percentage of
//! buckets that must be investigated.
//!
//! The ambivalent fraction is dialed synthetically (one out-of-range ship
//! date per chosen bucket), the SMA plan is forced, and its runtime is
//! compared against the full scan at each point. The criterion report's
//! series is the figure; `paper_tables e4` prints the modeled-cost version
//! with the interpolated breakeven (~25 %).

use sma_bench::harness::{BenchmarkId, Criterion};
use sma_bench::{criterion_group, criterion_main};

use sma_bench::{bench_table, dial_ambivalence, q1_smas};
use sma_exec::{cutoff, run_query1, PlanKind, PlannerConfig, Query1Config};
use sma_storage::CostModel;
use sma_tpcd::Clustering;

fn bench_ambivalence(c: &mut Criterion) {
    let mut group = c.benchmark_group("e4_figure5");
    group.sample_size(15);
    // A cost model that always prefers the SMA plan, so we measure the SMA
    // side of the figure even past breakeven.
    let force_sma = Query1Config {
        planner: PlannerConfig {
            cost_model: CostModel::uniform(1.0),
        },
        ..Default::default()
    };
    for pct in [0u32, 10, 20, 25, 30, 40] {
        let mut table = bench_table(Clustering::SortedByShipdate, 1);
        dial_ambivalence(&mut table, cutoff(90), pct as f64 / 100.0);
        let smas = q1_smas(&table);
        group.bench_with_input(BenchmarkId::new("sma_plan", pct), &pct, |b, _| {
            b.iter(|| {
                let run = run_query1(&table, Some(&smas), &force_sma).expect("q1");
                debug_assert_eq!(run.plan_kind, PlanKind::SmaGAggr);
                run
            })
        });
        group.bench_with_input(BenchmarkId::new("full_scan", pct), &pct, |b, _| {
            b.iter(|| run_query1(&table, None, &Query1Config::default()).expect("q1"))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_ambivalence);
criterion_main!(benches);

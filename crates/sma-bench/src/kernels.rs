//! Materialized-vs-zero-copy scan-kernel comparison.
//!
//! One shared fixture drives both `benches/scan_kernels.rs` (interactive
//! `cargo bench` output) and `paper_tables e10` (which also emits the
//! machine-readable `BENCH_scan_kernels.json`), so the two always measure
//! the same kernels on the same data.
//!
//! The *materialized* kernels are the pre-view implementations, rebuilt
//! here from public APIs: `scan_bucket` decodes every tuple into an owned
//! `Vec<Value>` (copying string payloads) before the predicate or any
//! aggregate sees it. The *zero-copy* kernels are the production paths:
//! predicates and aggregate inputs evaluate on
//! [`RowView`](sma_types::RowView)s straight out of the pinned page
//! frames, and nothing is materialized unless it survives the filter.

use std::time::Instant;

use sma_core::{Grade, SmaSet};
use sma_exec::{
    collect, cutoff, filter_block, plan, query1_query, AggregateQuery, Filter, HashGAggr,
    PlannerConfig, SeqScan, SmaGAggr,
};
use sma_storage::{MemStore, Table, TableError};
use sma_tpcd::Clustering;
use sma_types::{ColumnarBucket, RowLayout, Tuple};

use crate::{bench_table, dial_ambivalence, q1_smas};

/// The shared measurement setup: a shipdate-sorted LINEITEM table dialed
/// so (nearly) every bucket is ambivalent for the Query 1 predicate — the
/// worst case for SMA plans and exactly where the per-tuple kernels pay.
pub struct ScanKernelFixture {
    /// The dialed table (4 pages per bucket, pool large enough to stay warm).
    pub table: Table,
    /// Fig. 4 SMA set rebuilt after dialing.
    pub smas: SmaSet,
    /// Query 1 at `delta = 90`.
    pub query: AggregateQuery,
    /// Row-codec offsets for the table's schema.
    pub layout: RowLayout,
    /// One bucket that grades ambivalent under the query predicate.
    pub ambivalent_bucket: u32,
    /// The same data re-sealed into the columnar (PAX) bucket layout —
    /// every bucket but the tail converts, so this is the mixed layout
    /// the converter actually produces.
    pub columnar: Table,
    /// Fig. 4 SMA set rebuilt over the columnar table (columnwise build).
    pub columnar_smas: SmaSet,
    /// The ambivalent bucket's decoded column arrays, so the filter
    /// kernel times the batch comparison loops themselves (the block
    /// decodes once per bucket per query, just as the row kernels run
    /// against a pre-warmed pool).
    pub ambivalent_block: ColumnarBucket,
}

/// Builds the fixture and warms the buffer pool, so the kernels measure
/// CPU work (decode vs. view), not device latency.
pub fn scan_kernel_fixture() -> ScanKernelFixture {
    let cut = cutoff(90);
    let mut table = bench_table(Clustering::SortedByShipdate, 4);
    dial_ambivalence(&mut table, cut, 1.0);
    let smas = q1_smas(&table);
    let query = query1_query(&table, cut).expect("LINEITEM-shaped table");
    let layout = RowLayout::new(table.schema());
    let ambivalent_bucket = (0..table.bucket_count())
        .find(|&b| query.pred.grade(b, &smas) == Grade::Ambivalent)
        .expect("dialed table has ambivalent buckets");
    for b in 0..table.bucket_count() {
        table.scan_bucket(b).expect("warms the pool");
    }
    let mut dest = MemStore::new();
    table.export_to_store(&mut dest).expect("export");
    let mut columnar = Table::new(
        format!("{}_columnar", table.name()),
        sma_tpcd::lineitem_schema(),
        Box::new(dest),
        1 << 16,
        table.bucket_pages(),
    );
    let converted = columnar.convert_buckets_from(0).expect("convert");
    assert!(
        converted.contains(&ambivalent_bucket),
        "the measured bucket must actually be columnar"
    );
    let columnar_smas = q1_smas(&columnar);
    let ambivalent_block = columnar
        .columnar_bucket(ambivalent_bucket)
        .expect("read block")
        .expect("bucket converted above");
    for b in 0..columnar.bucket_count() {
        columnar.scan_bucket(b).expect("warms the pool");
    }
    ScanKernelFixture {
        table,
        smas,
        query,
        layout,
        ambivalent_bucket,
        columnar,
        columnar_smas,
        ambivalent_block,
    }
}

impl ScanKernelFixture {
    /// Filter one ambivalent bucket the pre-view way: decode every tuple,
    /// then evaluate the predicate on the owned values.
    pub fn filter_bucket_materialized(&self) -> usize {
        let rows = self
            .table
            .scan_bucket(self.ambivalent_bucket)
            .expect("scan");
        rows.iter()
            .filter(|(_, t)| self.query.pred.eval_tuple(t))
            .count()
    }

    /// Filter the same bucket the production way: evaluate the predicate
    /// on zero-copy views, never materializing a tuple.
    pub fn filter_bucket_zero_copy(&self) -> usize {
        let mut n = 0usize;
        self.table
            .for_each_in_bucket::<TableError, _>(self.ambivalent_bucket, |_, image| {
                let row = self.layout.view(image)?;
                if self.query.pred.eval_view(&row).map_err(TableError::from)? {
                    n += 1;
                }
                Ok(())
            })
            .expect("scan");
        n
    }

    /// Query 1 through the pre-view operator chain: `SeqScan` decodes all
    /// tuples, `Filter` and `HashGAggr` work on the materialized rows.
    pub fn q1_materialized(&self) -> Vec<Tuple> {
        let mut op = HashGAggr::new(
            Box::new(Filter::new(
                Box::new(SeqScan::new(&self.table)),
                self.query.pred.clone(),
            )),
            self.query.group_by.clone(),
            self.query.specs.clone(),
        );
        collect(&mut op).expect("q1")
    }

    /// Query 1 through the production `SmaGAggr`: every dialed bucket is
    /// ambivalent, so this times the zero-copy aggregation inner loop
    /// (views + direct-indexed `RETURNFLAG × LINESTATUS` group table).
    pub fn q1_sma_ambivalent(&self) -> Vec<Tuple> {
        let mut op = SmaGAggr::new(
            &self.table,
            self.query.pred.clone(),
            self.query.group_by.clone(),
            self.query.specs.clone(),
            &self.smas,
        )
        .expect("plan");
        collect(&mut op).expect("q1")
    }

    /// Query 1 through the planner's SMA-less fallback: the fused
    /// view-based full scan.
    pub fn q1_full_scan_fused(&self) -> Vec<Tuple> {
        plan(
            &self.table,
            self.query.clone(),
            None,
            &PlannerConfig::default(),
        )
        .execute()
        .expect("q1")
    }

    /// Filter the same (now columnar) bucket with the batch kernel:
    /// typed comparison loops over the column arrays fill a selection
    /// vector per 1024-row batch, and only its length is read.
    pub fn filter_bucket_columnar(&self) -> usize {
        filter_block(&self.ambivalent_block, &self.query.pred)
            .rows()
            .len()
    }

    /// Query 1 through `SmaGAggr` over the columnar table: every
    /// ambivalent bucket decodes once and aggregates through the batch
    /// kernels (selection vector → columnwise fold).
    pub fn q1_sma_ambivalent_columnar(&self) -> Vec<Tuple> {
        let mut op = SmaGAggr::new(
            &self.columnar,
            self.query.pred.clone(),
            self.query.group_by.clone(),
            self.query.specs.clone(),
            &self.columnar_smas,
        )
        .expect("plan");
        collect(&mut op).expect("q1")
    }

    /// Query 1 through the fused full scan over the columnar table —
    /// bucket-at-a-time block decode, batch filter, columnwise fold.
    pub fn q1_full_scan_columnar(&self) -> Vec<Tuple> {
        plan(
            &self.columnar,
            self.query.clone(),
            None,
            &PlannerConfig::default(),
        )
        .execute()
        .expect("q1")
    }
}

/// One materialized-vs-zero-copy comparison, medians in nanoseconds.
#[derive(Debug, Clone)]
pub struct KernelTiming {
    /// What was measured.
    pub name: &'static str,
    /// Median wall-clock of the materializing kernel, ns.
    pub materialized_ns: u64,
    /// Median wall-clock of the zero-copy kernel, ns.
    pub zero_copy_ns: u64,
}

impl KernelTiming {
    /// Throughput ratio of the zero-copy kernel over the materialized one.
    pub fn speedup(&self) -> f64 {
        self.materialized_ns as f64 / self.zero_copy_ns.max(1) as f64
    }
}

fn median_ns(samples: usize, mut f: impl FnMut()) -> u64 {
    f(); // warmup
    let mut times: Vec<u64> = (0..samples.max(1))
        .map(|_| {
            let started = Instant::now();
            f();
            started.elapsed().as_nanos() as u64
        })
        .collect();
    times.sort_unstable();
    times[times.len() / 2]
}

/// Times every kernel pair over the shared fixture, asserting along the
/// way that each pair computes the same answer.
pub fn scan_kernel_timings(samples: usize) -> Vec<KernelTiming> {
    let fx = scan_kernel_fixture();
    assert_eq!(
        fx.filter_bucket_materialized(),
        fx.filter_bucket_zero_copy(),
        "kernels must agree before being compared"
    );
    assert_eq!(
        fx.filter_bucket_zero_copy(),
        fx.filter_bucket_columnar(),
        "row and columnar filter kernels must agree"
    );
    let expected = fx.q1_materialized();
    assert_eq!(expected, fx.q1_sma_ambivalent());
    assert_eq!(expected, fx.q1_full_scan_fused());
    assert_eq!(
        expected,
        fx.q1_sma_ambivalent_columnar(),
        "row and columnar aggregation must agree"
    );
    assert_eq!(
        expected,
        fx.q1_full_scan_columnar(),
        "row and columnar full scans must agree"
    );

    let mut out = Vec::new();
    let filter_zero_copy_ns = median_ns(samples * 10, || {
        std::hint::black_box(fx.filter_bucket_zero_copy());
    });
    out.push(KernelTiming {
        name: "ambivalent_bucket_filter",
        materialized_ns: median_ns(samples * 10, || {
            std::hint::black_box(fx.filter_bucket_materialized());
        }),
        zero_copy_ns: filter_zero_copy_ns,
    });
    // For the columnar entries the row zero-copy kernel is the baseline,
    // so `speedup()` reads as "columnar over the PR 4 production path".
    out.push(KernelTiming {
        name: "ambivalent_bucket_filter_columnar",
        materialized_ns: filter_zero_copy_ns,
        zero_copy_ns: median_ns(samples * 10, || {
            std::hint::black_box(fx.filter_bucket_columnar());
        }),
    });
    let q1_materialized_ns = median_ns(samples, || {
        std::hint::black_box(fx.q1_materialized());
    });
    let q1_sma_ns = median_ns(samples, || {
        std::hint::black_box(fx.q1_sma_ambivalent());
    });
    let q1_fused_ns = median_ns(samples, || {
        std::hint::black_box(fx.q1_full_scan_fused());
    });
    out.push(KernelTiming {
        name: "query1_ambivalent_aggregation",
        materialized_ns: q1_materialized_ns,
        zero_copy_ns: q1_sma_ns,
    });
    out.push(KernelTiming {
        name: "query1_full_scan",
        materialized_ns: q1_materialized_ns,
        zero_copy_ns: q1_fused_ns,
    });
    out.push(KernelTiming {
        name: "query1_ambivalent_aggregation_columnar",
        materialized_ns: q1_sma_ns,
        zero_copy_ns: median_ns(samples, || {
            std::hint::black_box(fx.q1_sma_ambivalent_columnar());
        }),
    });
    out.push(KernelTiming {
        name: "query1_full_scan_columnar",
        materialized_ns: q1_fused_ns,
        zero_copy_ns: median_ns(samples, || {
            std::hint::black_box(fx.q1_full_scan_columnar());
        }),
    });
    out
}

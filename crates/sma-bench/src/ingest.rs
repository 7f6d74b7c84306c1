//! Streaming-ingest throughput and query-interference measurement.
//!
//! One shared fixture drives both `benches/ingest.rs` (interactive
//! `cargo bench` output) and `paper_tables e11` (which also emits the
//! machine-readable `BENCH_ingest.json`), so the two always measure the
//! same paths on the same data.
//!
//! What is compared:
//!
//! * **Insert cost** — a WAL-fsynced [`StreamingWarehouse::insert`]
//!   against the no-durability bulk [`Warehouse::insert`]; the ratio is
//!   the price of the durability guarantee per acknowledged tuple.
//! * **Query latency** — the same Query-1-shaped aggregate with the whole
//!   load live in the memtable overlay versus fully flushed to sealed
//!   segments with SMAs; the ratio is the interference an unflushed tail
//!   imposes on readers.
//! * **Flush and recovery** — one flush of the full load (segment write,
//!   manifest commit, WAL truncation) and one cold recovery replaying the
//!   full WAL, the two bulk transitions of the ingest lifecycle.
//!
//! Every timed path is first asserted to produce the byte-identical
//! answer of a plain bulk load, so the numbers compare equals.

use std::path::{Path, PathBuf};
use std::time::Instant;

use smadb::compact::CompactionPolicy;
use smadb::exec::{AggSpec, AggregateQuery};
use smadb::ingest::StreamingWarehouse;
use smadb::sma::{col, BucketPred, CmpOp};
use smadb::storage::Table;
use smadb::tpcd::{generate_lineitem_table, lineitem_schema, Clustering, GenConfig};
use smadb::types::{Tuple, Value};
use smadb::Warehouse;

/// The SMA complement maintained online during ingest (min/max for bucket
/// grading plus two grouped aggregates), mirroring the Fig. 4 shape.
const DEFS: [&str; 4] = [
    "define sma li_min select min(L_SHIPDATE) from LINEITEM",
    "define sma li_max select max(L_SHIPDATE) from LINEITEM",
    "define sma li_cnt select count(*) from LINEITEM group by L_RETURNFLAG",
    "define sma li_qty select sum(L_QUANTITY) from LINEITEM group by L_RETURNFLAG",
];

/// The shared measurement setup: diagonally-clustered LINEITEM rows (the
/// arrival order a live warehouse would see) and a Query-1-shaped
/// aggregate whose cutoff splits the load in half.
pub struct IngestFixture {
    /// The rows every measured path ingests, in arrival order.
    pub rows: Vec<Tuple>,
    /// `count/sum/avg(L_QUANTITY) group by L_RETURNFLAG` below the cutoff.
    pub query: AggregateQuery,
    /// Pages per bucket for every warehouse built from this fixture.
    pub bucket_pages: u32,
    dir: PathBuf,
}

impl IngestFixture {
    /// Builds the fixture with `orders` TPC-D orders (~4 line items each)
    /// and a private scratch directory namespaced by `tag`.
    pub fn new(tag: &str, orders: usize) -> IngestFixture {
        let generated = generate_lineitem_table(&GenConfig {
            orders,
            ..GenConfig::tiny(Clustering::diagonal_default())
        });
        let rows: Vec<Tuple> = generated
            .scan()
            .expect("generated table scans")
            .into_iter()
            .map(|(_, t)| t)
            .collect();
        let schema = lineitem_schema();
        let shipdate = schema.index_of("L_SHIPDATE").expect("lineitem column");
        let flag = schema.index_of("L_RETURNFLAG").expect("lineitem column");
        let qty = schema.index_of("L_QUANTITY").expect("lineitem column");
        let mut dates: Vec<_> = rows
            .iter()
            .map(|t| match &t[shipdate] {
                Value::Date(d) => *d,
                other => panic!("L_SHIPDATE is a date, got {other:?}"),
            })
            .collect();
        dates.sort();
        let cutoff = dates[dates.len() / 2];
        let query = AggregateQuery {
            pred: BucketPred::cmp(shipdate, CmpOp::Le, Value::Date(cutoff)),
            group_by: vec![flag],
            specs: vec![
                AggSpec::CountStar,
                AggSpec::Sum(col(qty)),
                AggSpec::Avg(col(qty)),
            ],
        };
        let dir =
            std::env::temp_dir().join(format!("smadb-bench-ingest-{tag}-{}", std::process::id()));
        IngestFixture {
            rows,
            query,
            bucket_pages: generated.bucket_pages(),
            dir,
        }
    }

    /// An empty warehouse with the LINEITEM table and the online SMA set.
    pub fn fresh_warehouse(&self) -> Warehouse {
        let mut w = Warehouse::new();
        w.register(Table::in_memory(
            "LINEITEM",
            lineitem_schema(),
            self.bucket_pages,
        ))
        .expect("register");
        for stmt in DEFS {
            w.define_sma(stmt).expect("define");
        }
        w
    }

    /// The reference answer: every row bulk-loaded, no WAL in sight.
    pub fn bulk_answer(&self) -> Vec<Tuple> {
        let mut w = self.fresh_warehouse();
        for t in &self.rows {
            w.insert("LINEITEM", t).expect("insert");
        }
        w.query("LINEITEM", self.query.clone()).expect("query").rows
    }

    /// A scratch directory for one streamed warehouse, created fresh.
    pub fn sample_dir(&self, name: &str) -> PathBuf {
        let dir = self.dir.join(name);
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("scratch dir");
        dir
    }

    /// Streams every row through the WAL into `dir` (no auto-flush), so
    /// the whole load sits in the memtable overlay when this returns.
    pub fn stream_into(&self, dir: &Path) -> StreamingWarehouse {
        let mut sw = StreamingWarehouse::create(dir, self.fresh_warehouse(), 0).expect("create");
        for t in &self.rows {
            sw.insert("LINEITEM", t).expect("acked insert");
        }
        sw
    }
}

impl Drop for IngestFixture {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// Median timings over the ingest lifecycle, all in nanoseconds.
#[derive(Debug, Clone)]
pub struct IngestReport {
    /// How many line items every path ingested.
    pub rows: usize,
    /// Per-row cost of a WAL-fsynced acknowledged insert.
    pub streamed_insert_ns: u64,
    /// Per-row cost of the no-durability bulk insert baseline.
    pub bulk_insert_ns: u64,
    /// Query latency with the full load live in the memtable overlay.
    pub overlay_query_ns: u64,
    /// Query latency after the flush, on sealed segments with SMAs.
    pub flushed_query_ns: u64,
    /// One flush of the full load: apply, segments, manifest, truncate.
    pub flush_ns: u64,
    /// One cold recovery replaying the full WAL into the memtable.
    pub recovery_ns: u64,
}

impl IngestReport {
    /// Durability price: streamed insert cost over the bulk baseline.
    pub fn wal_overhead(&self) -> f64 {
        self.streamed_insert_ns as f64 / self.bulk_insert_ns.max(1) as f64
    }

    /// Reader interference: overlay latency over the flushed fast path.
    pub fn overlay_penalty(&self) -> f64 {
        self.overlay_query_ns as f64 / self.flushed_query_ns.max(1) as f64
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

/// Times the full ingest lifecycle over the shared fixture, asserting at
/// each transition that the answers stay byte-identical to a bulk load.
pub fn ingest_timings(samples: usize) -> IngestReport {
    let fx = IngestFixture::new("timings", 150);
    let n = fx.rows.len().max(1) as u64;
    let expected = fx.bulk_answer();

    // Per-row insert cost, streamed (WAL fsync per row) vs bulk.
    let dir = fx.sample_dir("stream");
    let streamed_insert_ns = median_ns(samples, || {
        std::hint::black_box(fx.stream_into(&dir));
    }) / n;
    let bulk_insert_ns = median_ns(samples, || {
        let mut w = fx.fresh_warehouse();
        for t in &fx.rows {
            w.insert("LINEITEM", t).expect("insert");
        }
        std::hint::black_box(&w);
    }) / n;

    // Query latency with the whole load buffered in the overlay.
    let overlay = fx.stream_into(&fx.sample_dir("overlay"));
    assert_eq!(
        overlay
            .query("LINEITEM", fx.query.clone())
            .expect("query")
            .rows,
        expected,
        "overlay answers must match the bulk load"
    );
    let overlay_query_ns = median_ns(samples * 10, || {
        std::hint::black_box(overlay.query("LINEITEM", fx.query.clone()).expect("query"));
    });

    // Cold recovery replaying the full WAL (the overlay warehouse above
    // never flushed, so its directory holds epoch 0 plus every record).
    // Recovery of an unflushed WAL is idempotent, so it can be sampled.
    let recovery_dir = overlay.dir().to_path_buf();
    drop(overlay); // the simulated crash
    let recovery_ns = median_ns(samples, || {
        let (sw, report) =
            StreamingWarehouse::open_with_recovery(&recovery_dir, 0).expect("recover");
        assert_eq!(report.replayed, fx.rows.len(), "every acked row replays");
        std::hint::black_box(sw.buffered());
    });

    // One flush of the full load, then the sealed-segment query path.
    let (mut flushed, _) =
        StreamingWarehouse::open_with_recovery(&recovery_dir, 0).expect("recover");
    let started = Instant::now();
    flushed.flush().expect("flush");
    let flush_ns = started.elapsed().as_nanos() as u64;
    assert_eq!(
        flushed
            .query("LINEITEM", fx.query.clone())
            .expect("query")
            .rows,
        expected,
        "flushed answers must match the bulk load"
    );
    let flushed_query_ns = median_ns(samples * 10, || {
        std::hint::black_box(flushed.query("LINEITEM", fx.query.clone()).expect("query"));
    });

    IngestReport {
        rows: fx.rows.len(),
        streamed_insert_ns,
        bulk_insert_ns,
        overlay_query_ns,
        flushed_query_ns,
        flush_ns,
        recovery_ns,
    }
}

/// One `insert_batch` size, measured for E12.
#[derive(Debug, Clone)]
pub struct BatchInsertPoint {
    /// Rows per [`StreamingWarehouse::insert_batch`] call; each call
    /// costs one fsync.
    pub batch_rows: usize,
    /// Per-row cost of a streamed acknowledged insert at that batch size
    /// (every row is durable and visible when the clock stops).
    pub streamed_insert_ns: u64,
    /// Durability price against the no-WAL bulk baseline.
    pub wal_overhead_factor: f64,
}

/// Times streamed ingest through `insert_batch` at each batch size
/// against the bulk baseline — the E12 claim that one fsync per batch
/// amortizes the durability price across the whole batch.
///
/// Before timing, each batch size is run once through the full machinery —
/// threshold flushes cutting delta segments and the automatic compactor
/// merging them — and asserted byte-identical to the bulk answer, so the
/// numbers describe a configuration whose correctness was just proved.
pub fn batch_insert_timings(samples: usize, batches: &[usize]) -> Vec<BatchInsertPoint> {
    let fx = IngestFixture::new("batch-insert", 150);
    let n = fx.rows.len().max(1) as u64;
    let expected = fx.bulk_answer();
    let bulk_insert_ns = median_ns(samples, || {
        let mut w = fx.fresh_warehouse();
        for t in &fx.rows {
            w.insert("LINEITEM", t).expect("insert");
        }
        std::hint::black_box(&w);
    }) / n;

    batches
        .iter()
        .map(|&batch| {
            // Correctness first: stream with threshold flushes and the
            // compactor running, and demand the bulk answer.
            let check_dir = fx.sample_dir(&format!("batch-{batch}-check"));
            let mut sw =
                StreamingWarehouse::create(&check_dir, fx.fresh_warehouse(), 64).expect("create");
            sw.set_compaction_policy(CompactionPolicy { max_segments: 4 });
            for chunk in fx.rows.chunks(batch) {
                sw.insert_batch("LINEITEM", chunk).expect("insert");
                assert!(sw.take_flush_error().is_none(), "threshold flush failed");
            }
            sw.flush().expect("final flush");
            assert_eq!(
                sw.query("LINEITEM", fx.query.clone()).expect("query").rows,
                expected,
                "batch {batch}: batched inserts + compaction must not change answers"
            );
            drop(sw);

            // Then the timed path: pure ingest, one fsync per batch.
            let dir = fx.sample_dir(&format!("batch-{batch}"));
            let streamed_insert_ns = median_ns(samples, || {
                let mut sw =
                    StreamingWarehouse::create(&dir, fx.fresh_warehouse(), 0).expect("create");
                for chunk in fx.rows.chunks(batch) {
                    sw.insert_batch("LINEITEM", chunk).expect("insert");
                }
                std::hint::black_box(&sw);
            }) / n;
            BatchInsertPoint {
                batch_rows: batch,
                streamed_insert_ns,
                wal_overhead_factor: streamed_insert_ns as f64 / bulk_insert_ns.max(1) as f64,
            }
        })
        .collect()
}

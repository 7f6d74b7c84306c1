//! Segment compaction: crash sweeps at every protocol stage and the
//! interactions that make compaction dangerous if gotten wrong.
//!
//! The contract under test, from the compaction design:
//!
//! * **Compaction is invisible to queries.** Merging a table's delta
//!   segments into one full segment changes file layout, never answers.
//! * **Compaction never touches the WAL.** The catalog epoch advances, the
//!   watermark and the WAL epoch do not — rows acknowledged after a
//!   compaction must still replay after a crash.
//! * **Crash anywhere, recover exactly.** The manifest rename is the only
//!   commit point; every [`CompactStage`] prefix recovers to a committed
//!   generation holding every acknowledged row exactly once.

use std::sync::Arc;

use smadb::compact::{CompactStage, CompactionPolicy};
use smadb::exec::{AggSpec, AggregateQuery};
use smadb::ingest::StreamingWarehouse;
use smadb::sma::{check_level2, col, BucketPred, Classification, CmpOp, Grade};
use smadb::storage::test_util::scratch_path;
use smadb::storage::Table;
use smadb::types::{Column, DataType, Schema, Tuple, Value};
use smadb::Warehouse;
use std::path::Path;

fn padded_schema() -> Arc<Schema> {
    Arc::new(Schema::new(vec![
        Column::new("G", DataType::Char),
        Column::new("X", DataType::Int),
        Column::new("PAD", DataType::Str),
    ]))
}

/// Wide tuples (~1.2 KB) so a handful of rows spans pages and every flush
/// crosses a page boundary — otherwise the delta segments would keep
/// shadowing each other completely and the segment list would never grow.
fn padded_tuple(i: i64) -> Tuple {
    vec![
        Value::Char(b'A' + (i % 3) as u8),
        Value::Int(i),
        Value::Str("x".repeat(1200)),
    ]
}

fn padded_warehouse() -> Warehouse {
    let mut w = Warehouse::new();
    w.register(Table::in_memory("S", padded_schema(), 1))
        .unwrap();
    for stmt in [
        "define sma s_min select min(X) from S",
        "define sma s_max select max(X) from S",
        "define sma s_cnt select count(*) from S group by G",
        "define sma s_sum select sum(X) from S group by G",
    ] {
        w.define_sma(stmt).unwrap();
    }
    w
}

/// Group by flag, count + sum + avg over the rows with `X <= hi`.
fn small_query(hi: i64) -> AggregateQuery {
    AggregateQuery {
        pred: BucketPred::cmp(1, CmpOp::Le, hi),
        group_by: vec![0],
        specs: vec![
            AggSpec::CountStar,
            AggSpec::Sum(col(1)),
            AggSpec::Avg(col(1)),
        ],
    }
}

/// The reference answer: the same tuples bulk-loaded in the same order.
fn bulk_reference(rows: &[Tuple], hi: i64) -> Vec<Tuple> {
    let mut w = padded_warehouse();
    for t in rows {
        w.insert("S", t).unwrap();
    }
    w.query("S", small_query(hi)).unwrap().rows
}

/// Streams `flushes * per_flush` rows through `flushes` separate flush
/// generations, leaving a fragmented (multi-segment) table behind.
fn fragmented(dir: &Path, flushes: usize, per_flush: usize) -> (StreamingWarehouse, Vec<Tuple>) {
    let mut sw = StreamingWarehouse::create(dir, padded_warehouse(), 0).unwrap();
    let mut rows = Vec::new();
    for f in 0..flushes {
        let generation: Vec<Tuple> = (0..per_flush)
            .map(|i| padded_tuple((f * per_flush + i) as i64))
            .collect();
        for batch in generation.chunks(16) {
            sw.insert_batch("S", batch).unwrap();
        }
        rows.extend(generation);
        sw.flush().unwrap();
    }
    (sw, rows)
}

/// Crash after every stage of the compaction protocol: recovery restores a
/// committed generation holding every acknowledged row exactly once, and a
/// query over it matches the bulk-loaded reference.
#[test]
fn compaction_crash_at_every_stage_preserves_every_row() {
    for stage in [
        CompactStage::SegmentsWritten,
        CompactStage::Committed,
        CompactStage::Complete,
    ] {
        let dir = scratch_path(&format!("compact-stage-{stage:?}"));
        std::fs::create_dir_all(&dir).unwrap();
        let (mut sw, rows) = fragmented(&dir, 4, 8);
        let expected = bulk_reference(&rows, i64::MAX);
        let expected_lo = bulk_reference(&rows, 13);
        assert!(
            sw.warehouse().segment_count("S") > 1,
            "{stage:?}: the table must be fragmented before compaction"
        );

        let report = sw.compact_until(stage).unwrap();
        assert!(
            report.segments_before > report.segments_after,
            "{stage:?}: {report}"
        );
        if stage >= CompactStage::Committed {
            assert_eq!(sw.warehouse().segment_count("S"), 1, "{stage:?}");
        }
        drop(sw); // the crash

        let (sw, report) = StreamingWarehouse::open_with_recovery(&dir, 0).unwrap();
        assert!(
            report.warehouse.is_clean(),
            "{stage:?}: sealed data must scrub clean: {}",
            report.warehouse
        );
        assert_eq!(
            report.replayed, 0,
            "{stage:?}: compaction never leaves rows in the WAL"
        );
        match stage {
            CompactStage::SegmentsWritten => {
                // Never committed: the old generation is live and the
                // merged segment is debris recovery must sweep.
                assert!(sw.warehouse().segment_count("S") > 1, "{stage:?}");
                assert!(!report.orphans_removed.is_empty(), "{stage:?}");
            }
            CompactStage::Committed => {
                // Committed: the merged generation is live; the
                // superseded delta files are the debris.
                assert_eq!(sw.warehouse().segment_count("S"), 1, "{stage:?}");
                assert!(!report.orphans_removed.is_empty(), "{stage:?}");
            }
            CompactStage::Complete => {
                assert_eq!(sw.warehouse().segment_count("S"), 1, "{stage:?}");
                assert!(
                    report.is_clean(),
                    "{stage:?}: a finished compaction is pristine"
                );
            }
        }
        let got = sw.query("S", small_query(i64::MAX)).unwrap();
        assert_eq!(got.rows, expected, "{stage:?}");
        let got = sw.query("S", small_query(13)).unwrap();
        assert_eq!(got.rows, expected_lo, "{stage:?}");

        // Recovery composes: compact again, restart, still exact.
        let mut sw = sw;
        sw.compact().unwrap();
        assert_eq!(sw.warehouse().segment_count("S"), 1, "{stage:?}");
        drop(sw);
        let (sw, report) = StreamingWarehouse::open_with_recovery(&dir, 0).unwrap();
        assert!(report.is_clean(), "{stage:?}: after re-compaction");
        let got = sw.query("S", small_query(i64::MAX)).unwrap();
        assert_eq!(got.rows, expected, "{stage:?}: after re-compaction");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

/// The epoch-split regression: a compaction advances the catalog epoch but
/// must NOT advance the WAL epoch — rows acknowledged after the compaction
/// carry the old WAL epoch, and filtering replay on the catalog epoch
/// would silently drop every one of them after a crash.
/// The same stage-prefix crash sweep with the columnar policy on:
/// compaction is the catch-all conversion point (`convert_buckets_from(0)`
/// over the merged table), so a committed columnar compaction must leave a
/// mixed row+columnar generation that recovery reclassifies from page
/// markers, while an uncommitted one must fall back to the row-major
/// generation — either way every acknowledged row answers exactly once.
#[test]
fn columnar_compaction_crash_at_every_stage_preserves_every_row() {
    for stage in [
        CompactStage::SegmentsWritten,
        CompactStage::Committed,
        CompactStage::Complete,
    ] {
        let dir = scratch_path(&format!("compact-columnar-stage-{stage:?}"));
        std::fs::create_dir_all(&dir).unwrap();
        let (mut sw, rows) = fragmented(&dir, 4, 8);
        let expected = bulk_reference(&rows, i64::MAX);
        sw.set_columnar(true);

        let report = sw.compact_until(stage).unwrap();
        assert!(report.segments_before > report.segments_after, "{stage:?}");
        if stage >= CompactStage::Committed {
            assert!(
                !sw.warehouse()
                    .table("S")
                    .unwrap()
                    .columnar_buckets()
                    .is_empty(),
                "{stage:?}: a committed columnar compaction converts buckets"
            );
        }
        drop(sw); // the crash

        let (sw, report) = StreamingWarehouse::open_with_recovery(&dir, 0).unwrap();
        assert!(
            report.warehouse.is_clean(),
            "{stage:?}: must scrub clean: {}",
            report.warehouse
        );
        let table = sw.warehouse().table("S").unwrap();
        if stage >= CompactStage::Committed {
            assert!(
                !table.columnar_buckets().is_empty(),
                "{stage:?}: recovery must rediscover the columnar buckets"
            );
            assert!(
                !table.is_columnar_bucket(table.bucket_count() - 1),
                "{stage:?}: the tail bucket must stay row-major"
            );
        } else {
            assert!(
                table.columnar_buckets().is_empty(),
                "{stage:?}: an uncommitted conversion must leave no trace"
            );
        }
        let got = sw.query("S", small_query(i64::MAX)).unwrap();
        assert_eq!(got.rows, expected, "{stage:?}");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

#[test]
fn rows_acknowledged_after_a_compaction_survive_a_crash() {
    let dir = scratch_path("compact-wal-epoch");
    std::fs::create_dir_all(&dir).unwrap();
    let (mut sw, mut rows) = fragmented(&dir, 3, 6);
    let epoch_before = sw.epoch();
    sw.compact().unwrap();
    assert!(sw.epoch() > epoch_before, "compaction commits a generation");

    // Nine rows acknowledged after the compaction, living only in the WAL.
    let nine: Vec<Tuple> = (18..27).map(padded_tuple).collect();
    sw.insert_batch("S", &nine).unwrap();
    rows.extend(nine);
    assert_eq!(sw.buffered(), 9);
    drop(sw); // the crash

    let (sw, report) = StreamingWarehouse::open_with_recovery(&dir, 0).unwrap();
    assert_eq!(
        report.replayed, 9,
        "rows acked after the compaction must replay: {report:?}"
    );
    assert_eq!(report.skipped, 0, "{report:?}");
    let got = sw.query("S", small_query(i64::MAX)).unwrap();
    assert_eq!(got.rows, bulk_reference(&rows, i64::MAX));
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Automatic compaction: threshold flushes fragment the table, the policy
/// merges it back, the segment list stays bounded, level-2 grades equal
/// flat grades, and answers never change — in-process and across a restart.
#[test]
fn compaction_policy_keeps_the_segment_list_bounded() {
    let dir = scratch_path("compact-policy");
    std::fs::create_dir_all(&dir).unwrap();
    let mut sw = StreamingWarehouse::create(&dir, padded_warehouse(), 4).unwrap();
    sw.set_compaction_policy(CompactionPolicy { max_segments: 2 });
    assert_eq!(sw.compaction_policy(), CompactionPolicy { max_segments: 2 });
    let all: Vec<Tuple> = (0..64).map(padded_tuple).collect();
    for t in &all {
        sw.insert("S", t).unwrap();
        assert!(sw.take_flush_error().is_none(), "no flush may fail here");
    }
    // 16 threshold flushes happened; without compaction the segment list
    // would be an order of magnitude longer.
    assert!(
        sw.warehouse().segment_count("S") <= 2,
        "got {} segments",
        sw.warehouse().segment_count("S")
    );
    // After compaction, level-2 grades equal flat grades.
    let table = sw.warehouse().table("S").unwrap();
    let smas = sw.warehouse().smas("S").unwrap();
    for sma in smas.smas() {
        assert_eq!(check_level2(sma), vec![], "{}", sma.def().name);
    }
    for cutoff in [-1i64, 5, 31, 63, 100] {
        let pred = BucketPred::cmp(1, CmpOp::Le, cutoff);
        let flat: Vec<Grade> = (0..table.bucket_count())
            .map(|b| pred.grade(b, smas))
            .collect();
        let graded = Classification::classify(&pred, table.bucket_count(), smas);
        assert_eq!(graded.grades, flat, "cutoff {cutoff}");
    }
    let got = sw.query("S", small_query(i64::MAX)).unwrap();
    assert_eq!(got.rows, bulk_reference(&all, i64::MAX));

    drop(sw);
    let (sw, report) = StreamingWarehouse::open_with_recovery(&dir, 0).unwrap();
    assert!(report.is_clean(), "{report:?}");
    let got = sw.query("S", small_query(i64::MAX)).unwrap();
    assert_eq!(got.rows, bulk_reference(&all, i64::MAX));
    std::fs::remove_dir_all(&dir).unwrap();
}

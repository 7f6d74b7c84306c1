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

/// The epoch-split regression: a compaction advances the catalog epoch but
/// must NOT advance the WAL epoch — rows acknowledged after the compaction
/// carry the old WAL epoch, and filtering replay on the catalog epoch
/// would silently drop every one of them after a crash.
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

/// `padded_warehouse` plus a second table `R` of the same shape.
fn two_table_warehouse() -> Warehouse {
    let mut w = padded_warehouse();
    w.register(Table::in_memory("R", padded_schema(), 1))
        .unwrap();
    for stmt in [
        "define sma r_min select min(X) from R",
        "define sma r_cnt select count(*) from R group by G",
        "define sma r_sum select sum(X) from R group by G",
    ] {
        w.define_sma(stmt).unwrap();
    }
    w
}

/// The answer of `small_query(i64::MAX)` on `relation` after bulk-loading
/// `rows` into a fresh two-table warehouse.
fn two_table_reference(relation: &str, rows: &[Tuple]) -> Vec<Tuple> {
    let mut w = two_table_warehouse();
    for t in rows {
        w.insert(relation, t).unwrap();
    }
    w.query(relation, small_query(i64::MAX)).unwrap().rows
}

/// Every compaction test above has one table; this one has two, each
/// fragmented by the same flushes. A crash after every stage must reopen
/// both tables exactly: the old generation of both before the commit,
/// the merged generation of both after it.
#[test]
fn two_table_compaction_crash_at_every_stage_reopens_exactly() {
    for stage in [
        CompactStage::SegmentsWritten,
        CompactStage::Committed,
        CompactStage::Complete,
    ] {
        let dir = scratch_path(&format!("compact-two-tables-{stage:?}"));
        std::fs::create_dir_all(&dir).unwrap();
        let mut sw = StreamingWarehouse::create(&dir, two_table_warehouse(), 0).unwrap();
        let (mut s_rows, mut r_rows) = (Vec::new(), Vec::new());
        for f in 0..4i64 {
            let s: Vec<Tuple> = (0..8).map(|i| padded_tuple(f * 8 + i)).collect();
            let r: Vec<Tuple> = (0..5).map(|i| padded_tuple(100 + f * 5 + i)).collect();
            sw.insert_batch("S", &s).unwrap();
            sw.insert_batch("R", &r).unwrap();
            s_rows.extend(s);
            r_rows.extend(r);
            sw.flush().unwrap();
        }
        for name in ["S", "R"] {
            assert!(sw.warehouse().segment_count(name) > 1, "{stage:?}: {name}");
        }

        let report = sw.compact_until(stage).unwrap();
        assert_eq!((report.tables, report.segments_after), (2, 2), "{report}");
        drop(sw); // the crash

        let (sw, report) = StreamingWarehouse::open_with_recovery(&dir, 0).unwrap();
        assert!(
            report.warehouse.is_clean(),
            "{stage:?}: {}",
            report.warehouse
        );
        assert_eq!(report.replayed, 0, "{stage:?}");
        let merged = stage >= CompactStage::Committed;
        for name in ["S", "R"] {
            let segments = sw.warehouse().segment_count(name);
            assert_eq!(segments == 1, merged, "{stage:?}: {name} has {segments}");
        }
        match stage {
            // Before the commit the merged segments are the debris; after
            // it the superseded deltas are.
            CompactStage::SegmentsWritten | CompactStage::Committed => {
                for name in ["S", "R"] {
                    assert!(
                        report
                            .orphans_removed
                            .iter()
                            .any(|f| f.starts_with(&format!("{name}.e"))),
                        "{stage:?}: {name}: {:?}",
                        report.orphans_removed
                    );
                }
            }
            CompactStage::Complete => assert!(report.is_clean(), "{stage:?}: {report:?}"),
        }
        for (name, rows) in [("S", &s_rows), ("R", &r_rows)] {
            let got = sw.query(name, small_query(i64::MAX)).unwrap();
            assert_eq!(
                got.rows,
                two_table_reference(name, rows),
                "{stage:?}: {name}"
            );
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

/// One writer exports every generation, so a compaction's merged segment
/// and `save_to_dir`'s whole-table file are the same bytes: after
/// threshold flushes and a compaction, saving into a second directory
/// writes a `S.tbl` identical to the compacted `S.e{N}.tbl`.
#[test]
fn save_to_dir_writes_the_compacted_segment_byte_for_byte() {
    let dir = scratch_path("compact-save-identical");
    let copy = scratch_path("compact-save-identical-copy");
    std::fs::create_dir_all(&dir).unwrap();
    let mut sw = StreamingWarehouse::create(&dir, padded_warehouse(), 4).unwrap();
    for i in 0..26 {
        sw.insert("S", &padded_tuple(i)).unwrap();
        assert!(sw.take_flush_error().is_none());
    }
    assert!(sw.warehouse().segment_count("S") > 1);
    let report = sw.compact().unwrap();
    sw.warehouse().save_to_dir(&copy).unwrap();

    let compacted = std::fs::read(dir.join(format!("S.e{}.tbl", report.epoch))).unwrap();
    let saved = std::fs::read(copy.join("S.tbl")).unwrap();
    assert!(!saved.is_empty());
    assert!(
        saved == compacted,
        "save_to_dir and compaction wrote different pages"
    );
    let (w, recovery) = Warehouse::open_with_recovery(&copy).unwrap();
    assert!(recovery.is_clean(), "{recovery}");
    let all: Vec<Tuple> = (0..26).map(padded_tuple).collect();
    let got = w.query("S", small_query(i64::MAX)).unwrap();
    assert_eq!(got.rows, bulk_reference(&all, i64::MAX));
    std::fs::remove_dir_all(&dir).unwrap();
    std::fs::remove_dir_all(&copy).unwrap();
}

/// Names of the `.tbl` files in `dir` that belong to table `name`.
fn tbl_files(dir: &Path, name: &str) -> Vec<(String, u64)> {
    let mut files: Vec<(String, u64)> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap())
        .map(|e| {
            let file = e.file_name().to_string_lossy().into_owned();
            (file, e.metadata().unwrap().len())
        })
        .filter(|(file, _)| file.starts_with(&format!("{name}.")) && file.ends_with(".tbl"))
        .collect();
    files.sort();
    files
}

/// An empty table is written whole by a seal and by a compaction — one
/// zero-page segment each — while a flush writes nothing for it: a table
/// registered empty on the live warehouse has no segment until the next
/// compaction.
#[test]
fn an_empty_table_gets_a_zero_page_segment_from_a_seal_and_a_compaction_only() {
    let dir = scratch_path("compact-empty-table");
    std::fs::create_dir_all(&dir).unwrap();
    let mut w = padded_warehouse();
    w.register(Table::in_memory("E", padded_schema(), 1))
        .unwrap();
    let mut sw = StreamingWarehouse::create(&dir, w, 0).unwrap();
    assert_eq!(sw.warehouse().segment_count("E"), 1, "the seal writes E");
    assert_eq!(tbl_files(&dir, "E"), vec![("E.tbl".to_string(), 0)]);

    sw.register(Table::in_memory("N", padded_schema(), 1))
        .unwrap();
    let rows: Vec<Tuple> = (0..6).map(padded_tuple).collect();
    sw.insert_batch("S", &rows).unwrap();
    sw.flush().unwrap();
    assert_eq!(sw.warehouse().segment_count("N"), 0, "a flush writes no N");
    assert_eq!(tbl_files(&dir, "N"), vec![]);
    assert_eq!(tbl_files(&dir, "E"), vec![("E.tbl".to_string(), 0)]);

    let epoch = sw.compact().unwrap().epoch;
    for name in ["E", "N"] {
        assert_eq!(sw.warehouse().segment_count(name), 1, "{name}");
        assert_eq!(
            tbl_files(&dir, name),
            vec![(format!("{name}.e{epoch}.tbl"), 0)],
            "a compaction writes a zero-page {name}"
        );
    }
    drop(sw);
    let (sw, report) = StreamingWarehouse::open_with_recovery(&dir, 0).unwrap();
    assert!(report.is_clean(), "{report:?}");
    let count = AggregateQuery {
        pred: BucketPred::And(Vec::new()),
        group_by: vec![],
        specs: vec![AggSpec::CountStar],
    };
    for name in ["E", "N"] {
        let got = sw.query(name, count.clone()).unwrap();
        assert_eq!(got.rows, vec![vec![Value::Int(0)]], "{name}");
    }
    let got = sw.query("S", small_query(i64::MAX)).unwrap();
    assert_eq!(got.rows, bulk_reference(&rows, i64::MAX));
    std::fs::remove_dir_all(&dir).unwrap();
}

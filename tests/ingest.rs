//! Durable streaming ingest: crash sweeps and streamed-vs-bulk equivalence.
//!
//! The contract under test, from the ingest design:
//!
//! * **No acknowledged tuple is ever lost.** A batch is acknowledged only
//!   after its WAL frames are written and fsynced; recovery replays every
//!   acknowledged record a crash left unflushed.
//! * **A failed batch stays failed.** None of its rows is visible, and
//!   none replays after a later sync succeeds.
//! * **No tuple is ever applied twice.** The committed watermark makes WAL
//!   replay idempotent — a crash between manifest commit and WAL
//!   truncation must not double-apply.
//! * **Streaming is invisible to queries.** Any interleaving of inserts
//!   and flushes answers every query byte-identically to one bulk load of
//!   the same tuples.
//!
//! The sweeps are exhaustive where the state space allows: every byte
//! offset of the WAL (simulated power cut mid-write) and every stage of
//! the flush protocol (via [`StreamingWarehouse::flush_until`]).

use std::sync::Arc;
use std::time::Duration;

use smadb::compact::CompactionPolicy;
use smadb::exec::{AggSpec, AggregateQuery};
use smadb::ingest::{FlushStage, IngestError, StreamingWarehouse, WAL_FILE};
use smadb::sma::{col, BucketPred, CmpOp};
use smadb::storage::test_util::{scratch_path, CrashStore, FaultConfig, FaultPlan};
use smadb::storage::{FileStore, Table, Wal, PAGE_SIZE};
use smadb::tpcd::{generate_lineitem_table, lineitem_schema, Clustering, GenConfig};
use smadb::types::{Column, DataType, Schema, StdRng, Tuple, Value, WalRecord};
use smadb::Warehouse;

/// The fixed seed sweep, extended by `CHAOS_SEED` when CI sets it.
fn seeds() -> Vec<u64> {
    let mut s = vec![0xC0FFEE, 17, 4242];
    if let Ok(v) = std::env::var("CHAOS_SEED") {
        if let Ok(n) = v.parse::<u64>() {
            if !s.contains(&n) {
                s.push(n);
            }
        }
    }
    s
}

fn small_schema() -> Arc<Schema> {
    Arc::new(Schema::new(vec![
        Column::new("G", DataType::Char),
        Column::new("X", DataType::Int),
    ]))
}

fn small_tuple(i: i64) -> Tuple {
    vec![Value::Char(b'A' + (i % 3) as u8), Value::Int(i)]
}

/// A warehouse over one empty table `S` with the full SMA complement, so
/// the fast path is in play and online maintenance is exercised.
fn small_warehouse() -> Warehouse {
    let mut w = Warehouse::new();
    w.register(Table::in_memory("S", small_schema(), 1))
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
    let mut w = small_warehouse();
    for t in rows {
        w.insert("S", t).unwrap();
    }
    w.query("S", small_query(hi)).unwrap().rows
}

// ----------------------------------------------------------------- close()

/// `close()` flushes, so acked rows that a plain drop would leave to WAL
/// replay become sealed rows — and the reopened warehouse has nothing to
/// replay.
#[test]
fn close_seals_every_acked_row() {
    let dir = scratch_path("ingest-close");
    std::fs::create_dir_all(&dir).unwrap();
    let mut sw = StreamingWarehouse::create(&dir, small_warehouse(), 0).unwrap();
    let seven: Vec<Tuple> = (0..7).map(small_tuple).collect();
    assert_eq!(sw.insert_batch("S", &seven).unwrap(), 1..8);
    assert_eq!(sw.buffered(), 7, "acked rows wait in the memtable");
    sw.close().unwrap();

    let (sw, report) = StreamingWarehouse::open_with_recovery(&dir, 0).unwrap();
    assert!(report.is_clean());
    assert_eq!(report.replayed, 0, "close sealed everything");
    assert_eq!(sw.buffered(), 0);
    assert_eq!(sw.watermark(), 7, "every acked row is sealed");
    let got = sw.query("S", small_query(i64::MAX)).unwrap();
    assert_eq!(got.rows, bulk_reference(&seven, i64::MAX));
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A streaming query under a generous budget answers identically to the
/// unbudgeted path (overlay included); an exhausted budget degrades into
/// a structured error instead of a wrong answer.
#[test]
fn streaming_query_respects_budgets() {
    use smadb::storage::QueryBudget;
    let dir = scratch_path("ingest-budget");
    std::fs::create_dir_all(&dir).unwrap();
    let mut sw = StreamingWarehouse::create(&dir, small_warehouse(), 0).unwrap();
    for i in 0..20 {
        sw.insert("S", &small_tuple(i)).unwrap();
    }
    sw.flush().unwrap();
    for i in 20..25 {
        sw.insert("S", &small_tuple(i)).unwrap(); // live overlay rows
    }

    let generous = QueryBudget::unbounded().with_page_cap(1_000_000);
    let budgeted = sw
        .query_with_budget("S", small_query(i64::MAX), &generous)
        .unwrap();
    let bare = sw.query("S", small_query(i64::MAX)).unwrap();
    assert_eq!(budgeted.rows, bare.rows);
    assert_eq!(budgeted.plan_kind, bare.plan_kind);

    let exhausted = QueryBudget::unbounded().with_deadline(Duration::ZERO);
    let err = sw
        .query_with_budget("S", small_query(i64::MAX), &exhausted)
        .unwrap_err();
    assert!(err.to_string().contains("deadline exceeded"), "{err}");
    sw.close().unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
}

// ---------------------------------------------------------------- WAL sweep

/// Power cut at EVERY byte offset of the WAL file: recovery yields exactly
/// the longest prefix of appended records that the persisted bytes fully
/// contain — never a torn record, never a reordering, never a phantom.
#[test]
fn wal_crash_at_every_byte_offset_recovers_the_exact_prefix() {
    let mut wal = Wal::create(CrashStore::new(), 7).unwrap();
    let mut appended = Vec::new();
    // Byte offset (absolute, including the header page) one past each
    // record's frame: the acknowledgement point of that record.
    let mut frame_ends = Vec::new();
    for seq in 1..=20u64 {
        let rec = WalRecord {
            epoch: 7,
            seq,
            relation: "S".into(),
            row: vec![seq as u8; 17 + (seq as usize * 13) % 400],
        };
        wal.append(&rec).unwrap();
        wal.sync().unwrap();
        frame_ends.push(PAGE_SIZE as u64 + wal.tail_bytes());
        appended.push(rec);
    }
    let full = wal.into_store();
    let total = full.len_bytes();
    assert!(total > PAGE_SIZE as u64, "records span pages");

    for cut in 0..=total {
        let mut crashed = full.clone();
        crashed.truncate_at(cut);
        let (wal, replay) = Wal::open(crashed, 7).expect("open never fails on a torn log");
        let expect = frame_ends.iter().take_while(|&&e| e <= cut).count();
        assert_eq!(
            replay.records,
            appended[..expect],
            "cut at byte {cut}: must recover exactly the {expect}-record prefix"
        );
        // The header CRC covers its first 12 bytes; any cut inside them
        // reinitializes the log instead of trusting garbage.
        if cut < 12 {
            assert!(replay.header_reset, "cut at byte {cut}");
        }
        assert_eq!(wal.epoch(), 7, "cut at byte {cut}");
    }
}

// ---------------------------------------------------------------- batches

/// Power cut at EVERY byte offset of a WAL written by `insert_batch` in
/// batches of 4: recovery yields exactly the longest frame prefix the
/// bytes contain, and — the ack rule — every batch whose fsync the cut
/// preserves is in that prefix. Each batch costs one fsync; an empty
/// batch costs none.
#[test]
fn group_commit_crash_at_every_wal_byte_offset() {
    let dir = scratch_path("ingest-group-sweep");
    std::fs::create_dir_all(&dir).unwrap();
    let mut sw =
        StreamingWarehouse::create_with_wal_store(&dir, small_warehouse(), 0, CrashStore::new())
            .unwrap();
    let rows: Vec<Tuple> = (0..22).map(small_tuple).collect();
    let mut appended_seqs = Vec::new();
    // (absolute byte offset the batch's fsync covered, seq it acked through)
    let mut batch_ends = Vec::new();
    for batch in rows.chunks(4) {
        let seqs = sw.insert_batch("S", batch).unwrap();
        assert_eq!(seqs.end - seqs.start, batch.len() as u64);
        appended_seqs.extend(seqs.clone());
        batch_ends.push((PAGE_SIZE as u64 + sw.wal_tail_bytes(), seqs.end - 1));
        assert_eq!(sw.insert_batch("S", &[]).unwrap(), seqs.end..seqs.end);
    }
    assert_eq!(
        batch_ends.len(),
        6,
        "22 rows at batch 4: five of 4, one of 2"
    );
    assert_eq!(sw.buffered(), 22);
    // Every batch is visible the moment it returns.
    let got = sw.query("S", small_query(i64::MAX)).unwrap();
    assert_eq!(got.rows, bulk_reference(&rows, i64::MAX));

    let full = sw.into_wal_store();
    assert_eq!(
        full.syncs_seen(),
        1 + 6,
        "the log's creation, then one per batch"
    );
    let total = full.len_bytes();
    for cut in 0..=total {
        let mut crashed = full.clone();
        crashed.truncate_at(cut);
        let (_, replay) = Wal::open(crashed, 0).unwrap();
        let seqs: Vec<u64> = replay.records.iter().map(|r| r.seq).collect();
        assert_eq!(
            seqs,
            appended_seqs[..seqs.len()],
            "cut at byte {cut}: an exact frame prefix, never torn or reordered"
        );
        let acked = batch_ends
            .iter()
            .filter(|&&(end, _)| end <= cut)
            .map(|&(_, s)| s)
            .max()
            .unwrap_or(0);
        assert!(
            seqs.len() as u64 >= acked,
            "cut at byte {cut}: acked through seq {acked}, only {} records survive",
            seqs.len()
        );
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The batch visibility contract end to end: a batch is acknowledged,
/// durable and visible when `insert_batch` returns; an empty batch takes
/// no sequence number and logs nothing; `flush` seals every acked batch;
/// a restart finds a pristine log.
#[test]
fn group_commit_acks_and_publishes_only_at_the_group_boundary() {
    let dir = scratch_path("ingest-group-basic");
    std::fs::create_dir_all(&dir).unwrap();
    let mut sw = StreamingWarehouse::create(&dir, small_warehouse(), 0).unwrap();
    let five: Vec<Tuple> = (0..5).map(small_tuple).collect();
    assert_eq!(sw.insert_batch("S", &five[..3]).unwrap(), 1..4);
    assert_eq!(sw.buffered(), 3, "an acked batch is in the memtable");
    let got = sw.query("S", small_query(i64::MAX)).unwrap();
    assert_eq!(got.rows, bulk_reference(&five[..3], i64::MAX));

    let tail = sw.wal_tail_bytes();
    assert_eq!(sw.insert_batch("S", &[]).unwrap(), 4..4);
    assert_eq!(sw.next_seq(), 4, "an empty batch burns nothing");
    assert_eq!(sw.wal_tail_bytes(), tail, "an empty batch logs nothing");

    assert_eq!(sw.insert_batch("S", &five[3..]).unwrap(), 4..6);
    sw.flush().unwrap();
    assert_eq!(sw.buffered(), 0);
    assert_eq!(sw.watermark(), 5, "the flush sealed both batches");
    let got = sw.query("S", small_query(i64::MAX)).unwrap();
    assert_eq!(got.rows, bulk_reference(&five, i64::MAX));

    drop(sw);
    let (sw, report) = StreamingWarehouse::open_with_recovery(&dir, 0).unwrap();
    assert!(report.is_clean());
    assert_eq!(
        report.replayed, 0,
        "everything was sealed before the restart"
    );
    let got = sw.query("S", small_query(i64::MAX)).unwrap();
    assert_eq!(got.rows, bulk_reference(&five, i64::MAX));
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A batch whose third row does not fit the schema writes nothing: no
/// sequence number is burned, no frame is logged, no row is buffered, and
/// no query or restart sees any row of it.
#[test]
fn batch_with_a_bad_row_writes_nothing() {
    let dir = scratch_path("ingest-bad-row");
    std::fs::create_dir_all(&dir).unwrap();
    let mut sw = StreamingWarehouse::create(&dir, small_warehouse(), 0).unwrap();
    sw.insert("S", &small_tuple(0)).unwrap();
    let (next_seq, tail, buffered) = (sw.next_seq(), sw.wal_tail_bytes(), sw.buffered());
    let batch = vec![
        small_tuple(1),
        small_tuple(2),
        vec![Value::Char(b'A')], // one column short
        small_tuple(4),
    ];
    let err = sw.insert_batch("S", &batch).unwrap_err();
    assert!(matches!(err, IngestError::Encode(_)), "{err}");
    assert_eq!(sw.next_seq(), next_seq);
    assert_eq!(sw.wal_tail_bytes(), tail);
    assert_eq!(sw.buffered(), buffered);
    let only_first = bulk_reference(&[small_tuple(0)], i64::MAX);
    let got = sw.query("S", small_query(i64::MAX)).unwrap();
    assert_eq!(got.rows, only_first);

    drop(sw);
    let (sw, report) = StreamingWarehouse::open_with_recovery(&dir, 0).unwrap();
    assert_eq!(report.replayed, 1);
    let got = sw.query("S", small_query(i64::MAX)).unwrap();
    assert_eq!(got.rows, only_first);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A failed batch fsync drops the WHOLE batch — none of its rows are
/// durable, visible or replayed — and burns every sequence number it
/// took, so the log replays every acknowledged record.
#[test]
fn failed_group_sync_drops_the_group_and_burns_its_seqs() {
    for seed in seeds() {
        let config = FaultConfig::seeded(seed).with_sync_faults(30);
        let dir = scratch_path(&format!("ingest-groupstorm-{seed}"));
        std::fs::create_dir_all(&dir).unwrap();
        let sw = StreamingWarehouse::create_with_wal_store(
            &dir,
            small_warehouse(),
            0,
            CrashStore::with_config(config),
        );
        let mut sw = match sw {
            Ok(sw) => sw,
            Err(_) => {
                // The device failed the WAL's very first fsync. Legal.
                std::fs::remove_dir_all(&dir).unwrap();
                continue;
            }
        };
        let epoch = sw.epoch();
        let rows: Vec<Tuple> = (0..60).map(small_tuple).collect();
        let mut acked: Vec<(u64, Tuple)> = Vec::new();
        let mut failed: Vec<u64> = Vec::new();
        for batch in rows.chunks(3) {
            let (first, buffered) = (sw.next_seq(), sw.buffered());
            match sw.insert_batch("S", batch) {
                Ok(seqs) => {
                    assert_eq!(seqs, first..first + 3, "seed {seed}");
                    acked.extend(seqs.zip(batch.iter().cloned()));
                }
                Err(_) => {
                    // The batch's one sync failed: all of it must be gone.
                    assert_eq!(sw.next_seq(), first + 3, "seed {seed}: seqs burned");
                    assert_eq!(sw.buffered(), buffered, "seed {seed}");
                    failed.extend(first..first + 3);
                }
            }
        }
        assert!(
            !failed.is_empty(),
            "seed {seed}: the storm must drop a batch"
        );
        assert!(!acked.is_empty(), "seed {seed}: some batches must land");

        // Queries see exactly the acknowledged batches, nothing dropped.
        let acked_tuples: Vec<Tuple> = acked.iter().map(|(_, t)| t.clone()).collect();
        let got = sw.query("S", small_query(i64::MAX)).unwrap();
        assert_eq!(
            got.rows,
            bulk_reference(&acked_tuples, i64::MAX),
            "seed {seed}"
        );

        // Replay the raw store: burned seqs keep the log strictly
        // increasing, so every acknowledged record survives the storm, and
        // no record of a dropped batch comes back.
        let (_, replay) = Wal::open(sw.into_wal_store(), epoch).unwrap();
        let seqs: Vec<u64> = replay.records.iter().map(|r| r.seq).collect();
        for w in seqs.windows(2) {
            assert!(w[0] < w[1], "seed {seed}: replay seqs strictly increase");
        }
        for (seq, _) in &acked {
            assert!(
                seqs.contains(seq),
                "seed {seed}: acked seq {seq} lost in replay (got {seqs:?})"
            );
        }
        for seq in &failed {
            assert!(
                !seqs.contains(seq),
                "seed {seed}: seq {seq} of a failed batch replayed (got {seqs:?})"
            );
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

// ------------------------------------------------------------- flush sweep

/// Crash after every stage of the flush protocol: recovery restores
/// exactly the acknowledged tuples — zero lost, zero duplicated — and a
/// query over the recovered warehouse matches the bulk-loaded reference.
#[test]
fn flush_crash_at_every_stage_loses_nothing_and_duplicates_nothing() {
    let sealed = 20i64; // tuples flushed into the starting generation
    let streamed = 25i64; // tuples acknowledged but unflushed at the crash
    let all: Vec<Tuple> = (0..sealed + streamed).map(small_tuple).collect();
    let expected = bulk_reference(&all, i64::MAX);
    let expected_lo = bulk_reference(&all, 11);

    for stage in [
        FlushStage::Applied,
        FlushStage::SegmentsWritten,
        FlushStage::Committed,
        FlushStage::Cleaned,
        FlushStage::Complete,
    ] {
        let dir = scratch_path(&format!("ingest-stage-{stage:?}"));
        std::fs::create_dir_all(&dir).unwrap();
        let mut sw = StreamingWarehouse::create(&dir, small_warehouse(), 0).unwrap();
        for t in &all[..sealed as usize] {
            sw.insert("S", t).unwrap();
        }
        sw.flush().unwrap();
        assert_eq!(sw.epoch(), 1, "first flush commits generation 1");
        for t in &all[sealed as usize..] {
            sw.insert("S", t).unwrap();
        }
        sw.flush_until(stage).unwrap();
        drop(sw); // the crash

        let (sw, report) = StreamingWarehouse::open_with_recovery(&dir, 0).unwrap();
        assert!(
            report.warehouse.is_clean(),
            "{stage:?}: sealed data must scrub clean: {}",
            report.warehouse
        );
        let committed = matches!(
            stage,
            FlushStage::Committed | FlushStage::Cleaned | FlushStage::Complete
        );
        if committed {
            // The generation committed before the crash: the WAL records
            // are all at or below the watermark and must NOT re-apply.
            assert_eq!(sw.epoch(), 2, "{stage:?}");
            assert_eq!(report.replayed, 0, "{stage:?}: nothing past the watermark");
            assert_eq!(sw.buffered(), 0, "{stage:?}");
        } else {
            // The generation never committed: every unflushed acked tuple
            // comes back through WAL replay.
            assert_eq!(sw.epoch(), 1, "{stage:?}");
            assert_eq!(report.replayed, streamed as usize, "{stage:?}");
            assert_eq!(report.skipped, 0, "{stage:?}");
            assert_eq!(sw.buffered(), streamed as usize, "{stage:?}");
        }
        if stage == FlushStage::Complete {
            assert!(report.is_clean(), "{stage:?}: a finished flush is pristine");
        }

        // Zero lost, zero duplicated, exact aggregates — overlay or not.
        let got = sw.query("S", small_query(i64::MAX)).unwrap();
        assert_eq!(got.rows, expected, "{stage:?}");
        let got = sw.query("S", small_query(11)).unwrap();
        assert_eq!(got.rows, expected_lo, "{stage:?}");

        // Recovery composes: finish the interrupted flush, crash again,
        // reopen — still exact, and now pristine.
        let mut sw = sw;
        sw.flush().unwrap();
        drop(sw);
        let (sw, report) = StreamingWarehouse::open_with_recovery(&dir, 0).unwrap();
        assert!(report.is_clean(), "{stage:?}: after completing the flush");
        let got = sw.query("S", small_query(i64::MAX)).unwrap();
        assert_eq!(got.rows, expected, "{stage:?} after re-flush");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

/// The flush-stage crash sweep over a *mixed row+columnar* generation:
/// with the columnar policy on, the first flush seals enough rows that
/// the conversion rewrites several buckets to the PAX layout while the
/// append tail stays row-major. Crashing at every stage of the next
/// flush must recover that mixed layout from the page markers alone
/// (the policy flag is runtime state and is NOT persisted), lose
/// nothing, duplicate nothing, and answer overlay queries exactly.
#[test]
fn columnar_flush_crash_at_every_stage_recovers_the_mixed_layout() {
    let sealed = 900i64; // enough pages that non-tail buckets convert
    let streamed = 25i64;
    let all: Vec<Tuple> = (0..sealed + streamed).map(small_tuple).collect();
    let expected = bulk_reference(&all, i64::MAX);
    let expected_lo = bulk_reference(&all, 450);

    for stage in [
        FlushStage::Applied,
        FlushStage::SegmentsWritten,
        FlushStage::Committed,
        FlushStage::Cleaned,
        FlushStage::Complete,
    ] {
        let dir = scratch_path(&format!("ingest-columnar-stage-{stage:?}"));
        std::fs::create_dir_all(&dir).unwrap();
        let mut sw = StreamingWarehouse::create(&dir, small_warehouse(), 0).unwrap();
        sw.set_columnar(true);
        for t in &all[..sealed as usize] {
            sw.insert("S", t).unwrap();
        }
        sw.flush().unwrap();
        let table = sw.warehouse().table("S").unwrap();
        assert!(
            !table.columnar_buckets().is_empty(),
            "{stage:?}: the sealed generation must hold columnar buckets"
        );
        assert!(
            !table.is_columnar_bucket(table.bucket_count() - 1),
            "{stage:?}: the append tail must stay row-major"
        );
        for t in &all[sealed as usize..] {
            sw.insert("S", t).unwrap();
        }
        sw.flush_until(stage).unwrap();
        drop(sw); // the crash

        let (sw, report) = StreamingWarehouse::open_with_recovery(&dir, 0).unwrap();
        assert!(
            report.warehouse.is_clean(),
            "{stage:?}: mixed-layout generation must scrub clean: {}",
            report.warehouse
        );
        let table = sw.warehouse().table("S").unwrap();
        assert!(
            !table.columnar_buckets().is_empty(),
            "{stage:?}: recovery must rediscover the columnar buckets"
        );
        assert!(
            !table.is_columnar_bucket(table.bucket_count() - 1),
            "{stage:?}: the recovered tail must be row-major"
        );
        let committed = matches!(
            stage,
            FlushStage::Committed | FlushStage::Cleaned | FlushStage::Complete
        );
        if committed {
            assert_eq!(report.replayed, 0, "{stage:?}");
        } else {
            assert_eq!(report.replayed, streamed as usize, "{stage:?}");
        }

        // Exact answers through the mixed layout, with and without the
        // replayed overlay in play.
        let got = sw.query("S", small_query(i64::MAX)).unwrap();
        assert_eq!(got.rows, expected, "{stage:?}");
        let got = sw.query("S", small_query(450)).unwrap();
        assert_eq!(got.rows, expected_lo, "{stage:?}");

        // Recovery composes: finish the interrupted flush (policy is off
        // again after reopen — already-converted buckets must stay
        // columnar), crash, reopen, still exact.
        let mut sw = sw;
        assert!(
            !sw.columnar(),
            "{stage:?}: the policy flag is not persisted"
        );
        sw.flush().unwrap();
        drop(sw);
        let (sw, report) = StreamingWarehouse::open_with_recovery(&dir, 0).unwrap();
        assert!(report.is_clean(), "{stage:?}: after completing the flush");
        let table = sw.warehouse().table("S").unwrap();
        assert!(
            !table.columnar_buckets().is_empty(),
            "{stage:?}: conversion survives a flush under the row policy"
        );
        let got = sw.query("S", small_query(i64::MAX)).unwrap();
        assert_eq!(got.rows, expected, "{stage:?} after re-flush");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

/// The satellite regression: replaying the same WAL twice (crash between
/// segment write and WAL truncation, then recover, crash again without
/// writing, recover again) yields identical warehouse state, identical
/// on-disk SMA images, and never a double-applied tuple.
#[test]
fn wal_replay_after_partial_flush_is_idempotent() {
    for stage in [FlushStage::SegmentsWritten, FlushStage::Committed] {
        let dir = scratch_path(&format!("ingest-idem-{stage:?}"));
        std::fs::create_dir_all(&dir).unwrap();
        let all: Vec<Tuple> = (0..30).map(small_tuple).collect();
        let expected = bulk_reference(&all, i64::MAX);

        let mut sw = StreamingWarehouse::create(&dir, small_warehouse(), 0).unwrap();
        for t in &all {
            sw.insert("S", t).unwrap();
        }
        sw.flush_until(stage).unwrap();
        drop(sw);

        let snapshot = |tag: &str| {
            let (sw, report) = StreamingWarehouse::open_with_recovery(&dir, 0).unwrap();
            let rows = sw.query("S", small_query(i64::MAX)).unwrap().rows;
            assert_eq!(rows, expected, "{stage:?} {tag}: exactly once");
            drop(sw); // crash again, having written nothing new
            let mut images: Vec<(String, Vec<u8>)> = std::fs::read_dir(&dir)
                .unwrap()
                .map(|e| e.unwrap().path())
                .filter(|p| p.extension().is_some_and(|e| e == "sma" || e == "tbl"))
                .map(|p| {
                    (
                        p.file_name().unwrap().to_string_lossy().into_owned(),
                        std::fs::read(&p).unwrap(),
                    )
                })
                .collect();
            images.sort();
            (report.replayed, images)
        };

        // (The second recovery may legitimately skip fewer records than
        // the first — recovering from a post-commit crash realigns the
        // WAL, so the already-covered records are gone, not re-skipped.)
        let (replayed1, images1) = snapshot("first recovery");
        let (replayed2, images2) = snapshot("second recovery");
        assert_eq!(replayed1, replayed2, "{stage:?}: replay count is stable");
        assert_eq!(
            images1.iter().map(|(n, _)| n).collect::<Vec<_>>(),
            images2.iter().map(|(n, _)| n).collect::<Vec<_>>(),
            "{stage:?}: recovery must not create or drop segment files"
        );
        for ((name, a), (_, b)) in images1.iter().zip(&images2) {
            assert_eq!(a, b, "{stage:?}: {name} changed across an idle recovery");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

/// Regression: an error (or early stop) AFTER the commit point used to
/// strand the post-commit cleanup until a restart — the memtable is empty,
/// so the next `flush()` early-returned and the superseded generation's
/// files plus the stale WAL tail survived indefinitely. The `pending`
/// checkpoint makes the next flush finish stages 4 and 5 in-process.
#[test]
fn interrupted_post_commit_cleanup_resumes_on_the_next_flush() {
    let dir = scratch_path("ingest-resume-cleanup");
    std::fs::create_dir_all(&dir).unwrap();
    let mut sw = StreamingWarehouse::create(&dir, small_warehouse(), 0).unwrap();
    for i in 0..12 {
        sw.insert("S", &small_tuple(i)).unwrap();
    }
    sw.flush().unwrap(); // generation 1: SMA images named *.e1.sma
    for i in 12..20 {
        sw.insert("S", &small_tuple(i)).unwrap();
    }
    // Stop right after the commit point: generation 2 is live, but the
    // superseded images and the now-covered WAL records are still there.
    sw.flush_until(FlushStage::Committed).unwrap();
    assert_eq!(sw.pending_stage(), Some(FlushStage::Committed));
    assert_eq!(sw.buffered(), 0, "nothing left to announce the debt");
    assert!(
        dir.join("S.s_min.e1.sma").exists(),
        "superseded image still on disk"
    );
    assert!(sw.wal_tail_bytes() > 0, "WAL not yet truncated");

    sw.flush().unwrap();
    assert_eq!(sw.pending_stage(), None);
    assert!(
        !dir.join("S.s_min.e1.sma").exists(),
        "cleanup resumed from the checkpoint"
    );
    assert_eq!(sw.wal_tail_bytes(), 0, "WAL truncated");

    // Nothing left for recovery to repair.
    drop(sw);
    let (sw, report) = StreamingWarehouse::open_with_recovery(&dir, 0).unwrap();
    assert!(report.is_clean(), "{report:?}");
    let all: Vec<Tuple> = (0..20).map(small_tuple).collect();
    let got = sw.query("S", small_query(i64::MAX)).unwrap();
    assert_eq!(got.rows, bulk_reference(&all, i64::MAX));
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Regression: `query` must not wrap an empty overlay around the plan — a
/// fully-flushed streaming warehouse must choose the same plan kind and
/// produce the same rows (including the Avg→Sum/Count rewrite) as a
/// bulk-loaded warehouse over the same tuples.
#[test]
fn fully_flushed_streaming_plans_identically_to_bulk() {
    let dir = scratch_path("ingest-plan-identity");
    std::fs::create_dir_all(&dir).unwrap();
    let all: Vec<Tuple> = (0..40).map(small_tuple).collect();
    let mut bulk = small_warehouse();
    for t in &all {
        bulk.insert("S", t).unwrap();
    }
    let mut sw = StreamingWarehouse::create(&dir, small_warehouse(), 0).unwrap();
    for t in &all {
        sw.insert("S", t).unwrap();
    }
    sw.flush().unwrap();
    assert_eq!(sw.buffered(), 0);
    for hi in [i64::MIN, 7, 19, i64::MAX] {
        let want = bulk.query("S", small_query(hi)).unwrap();
        let got = sw.query("S", small_query(hi)).unwrap();
        assert_eq!(
            got.plan_kind, want.plan_kind,
            "hi={hi}: an empty overlay must not change the plan"
        );
        assert_eq!(got.rows, want.rows, "hi={hi}");
        assert_eq!(
            format!("{}", got.degradation),
            format!("{}", want.degradation),
            "hi={hi}"
        );
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

// ----------------------------------------------------- streamed == bulk

/// Property test: streaming the TPC-D lineitem rows through the WAL with
/// flushes at seeded random thresholds answers Query-1-shaped aggregates
/// byte-identically to one bulk load — across all four clustering models,
/// both mid-stream (memtable overlay live) and after the final flush,
/// when the physical layout must match the bulk load bucket for bucket.
#[test]
fn streamed_inserts_match_bulk_load_across_clusterings() {
    let schema = lineitem_schema();
    let shipdate = schema.index_of("L_SHIPDATE").unwrap();
    let flag = schema.index_of("L_RETURNFLAG").unwrap();
    let qty = schema.index_of("L_QUANTITY").unwrap();
    let defs = [
        "define sma li_min select min(L_SHIPDATE) from LINEITEM",
        "define sma li_max select max(L_SHIPDATE) from LINEITEM",
        "define sma li_cnt select count(*) from LINEITEM group by L_RETURNFLAG",
        "define sma li_qty select sum(L_QUANTITY) from LINEITEM group by L_RETURNFLAG",
    ];
    for clustering in [
        Clustering::SortedByShipdate,
        Clustering::diagonal_default(),
        Clustering::Uniform,
        Clustering::Shuffled,
    ] {
        let generated = generate_lineitem_table(&GenConfig {
            orders: 60,
            ..GenConfig::tiny(clustering)
        });
        let rows: Vec<Tuple> = generated
            .scan()
            .unwrap()
            .into_iter()
            .map(|(_, t)| t)
            .collect();
        let cutoff = match &rows[rows.len() / 2][shipdate] {
            Value::Date(d) => *d,
            other => panic!("L_SHIPDATE is a date, got {other:?}"),
        };
        let query = AggregateQuery {
            pred: BucketPred::cmp(shipdate, CmpOp::Le, Value::Date(cutoff)),
            group_by: vec![flag],
            specs: vec![
                AggSpec::CountStar,
                AggSpec::Sum(col(qty)),
                AggSpec::Avg(col(qty)),
            ],
        };

        // Bulk reference: every row inserted into a sealed warehouse.
        let mut bulk = Warehouse::new();
        bulk.register(Table::in_memory(
            "LINEITEM",
            lineitem_schema(),
            generated.bucket_pages(),
        ))
        .unwrap();
        for stmt in defs {
            bulk.define_sma(stmt).unwrap();
        }
        for t in &rows {
            bulk.insert("LINEITEM", t).unwrap();
        }
        let want = bulk.query("LINEITEM", query.clone()).unwrap();

        for seed in seeds() {
            let mut rng = StdRng::seed_from_u64(seed ^ 0x1A7E57);
            let dir = scratch_path(&format!("ingest-prop-{seed}"));
            std::fs::create_dir_all(&dir).unwrap();
            let mut w = Warehouse::new();
            w.register(Table::in_memory(
                "LINEITEM",
                lineitem_schema(),
                generated.bucket_pages(),
            ))
            .unwrap();
            for stmt in defs {
                w.define_sma(stmt).unwrap();
            }
            let mut sw = StreamingWarehouse::create(&dir, w, 0).unwrap();
            // Batches of 4 and automatic compaction on: the equivalence
            // must hold with rows acknowledged in batches and the
            // compactor merging segments mid-stream.
            sw.set_compaction_policy(CompactionPolicy { max_segments: 2 });
            let mut checked_mid_stream = false;
            let mut streamed = 0;
            for batch in rows.chunks(4) {
                sw.insert_batch("LINEITEM", batch).unwrap();
                streamed += batch.len();
                // Seeded flush points: on average every ~40 inserts.
                if rng.next_u64().is_multiple_of(10) {
                    sw.flush().unwrap();
                }
                // One seeded mid-stream probe per run: the sealed segments
                // plus live memtable must answer like a bulk load of the
                // prefix streamed so far.
                if !checked_mid_stream
                    && streamed > rows.len() / 2
                    && rng.next_u64().is_multiple_of(2)
                {
                    let mut prefix = Warehouse::new();
                    prefix
                        .register(Table::in_memory(
                            "LINEITEM",
                            lineitem_schema(),
                            generated.bucket_pages(),
                        ))
                        .unwrap();
                    for stmt in defs {
                        prefix.define_sma(stmt).unwrap();
                    }
                    for t in &rows[..streamed] {
                        prefix.insert("LINEITEM", t).unwrap();
                    }
                    let want_prefix = prefix.query("LINEITEM", query.clone()).unwrap();
                    let got = sw.query("LINEITEM", query.clone()).unwrap();
                    assert_eq!(
                        got.rows, want_prefix.rows,
                        "{clustering:?} seed {seed}: mid-stream after {streamed} rows"
                    );
                    checked_mid_stream = true;
                }
            }
            sw.flush().unwrap();

            // Fully flushed: answers, plan choice, degradation, and the
            // physical layout all match the bulk load exactly.
            let got = sw.query("LINEITEM", query.clone()).unwrap();
            assert_eq!(got.rows, want.rows, "{clustering:?} seed {seed}");
            assert_eq!(got.plan_kind, want.plan_kind, "{clustering:?} seed {seed}");
            assert_eq!(
                format!("{}", got.degradation),
                format!("{}", want.degradation),
                "{clustering:?} seed {seed}"
            );
            assert!(
                sw.warehouse().segment_count("LINEITEM") <= 2,
                "{clustering:?} seed {seed}: the compaction policy bounds the segment list"
            );
            let streamed_table = sw.warehouse().table("LINEITEM").unwrap();
            let bulk_table = bulk.table("LINEITEM").unwrap();
            assert_eq!(
                streamed_table.page_count(),
                bulk_table.page_count(),
                "{clustering:?} seed {seed}: page-for-page identical layout"
            );
            assert_eq!(
                streamed_table.bucket_count(),
                bulk_table.bucket_count(),
                "{clustering:?} seed {seed}"
            );

            // And it all survives a restart.
            drop(sw);
            let (sw, report) = StreamingWarehouse::open_with_recovery(&dir, 0).unwrap();
            assert!(report.is_clean(), "{clustering:?} seed {seed}");
            let got = sw.query("LINEITEM", query.clone()).unwrap();
            assert_eq!(got.rows, want.rows, "{clustering:?} seed {seed}: reopened");
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }
}

// ------------------------------------------------------------ torn tail

/// A bit flip inside the last WAL frame (a torn final record) costs
/// exactly that record — which was never fsync-acknowledged in the torn
/// scenario — and nothing before it.
#[test]
fn torn_wal_tail_loses_only_the_final_record() {
    let dir = scratch_path("ingest-torn");
    std::fs::create_dir_all(&dir).unwrap();
    let mut sw = StreamingWarehouse::create(&dir, small_warehouse(), 0).unwrap();
    let mut last_start = 0;
    for i in 0..10 {
        last_start = sw.wal_tail_bytes();
        sw.insert("S", &small_tuple(i)).unwrap();
    }
    drop(sw);
    // Corrupt the last frame's payload, as a power cut mid-write would.
    smadb::storage::test_util::flip_bit_in_file(
        &dir.join(WAL_FILE),
        PAGE_SIZE as u64 + last_start + 9,
        3,
    )
    .unwrap();
    let (sw, report) = StreamingWarehouse::open_with_recovery(&dir, 0).unwrap();
    assert!(report.torn_tail, "the cut must be detected");
    assert_eq!(report.replayed, 9, "everything before the tear survives");
    let got = sw.query("S", small_query(i64::MAX)).unwrap();
    let expected: Vec<Tuple> =
        bulk_reference(&(0..9).map(small_tuple).collect::<Vec<_>>(), i64::MAX);
    assert_eq!(got.rows, expected);
    std::fs::remove_dir_all(&dir).unwrap();
}

// ---------------------------------------------------------- sync storms

/// Regression: an insert whose fsync fails must burn its sequence
/// number. The failed frame may still be durable if the process dies
/// before the next good sync, so a later insert reusing the seq could
/// write a duplicate frame — and replay stops at the first non-increasing
/// seq, silently cutting off every acknowledged record behind it. The
/// failed frame itself never replays once a later sync succeeds.
#[test]
fn failed_sync_burns_its_sequence_number() {
    for seed in seeds() {
        let config = FaultConfig::seeded(seed).with_sync_faults(30);
        let dir = scratch_path(&format!("ingest-syncstorm-{seed}"));
        std::fs::create_dir_all(&dir).unwrap();
        let sw = StreamingWarehouse::create_with_wal_store(
            &dir,
            small_warehouse(),
            0,
            CrashStore::with_config(config),
        );
        let mut sw = match sw {
            Ok(sw) => sw,
            Err(_) => {
                // The device failed the WAL's very first fsync: the log
                // was never born, nothing was ever acknowledged. Legal.
                std::fs::remove_dir_all(&dir).unwrap();
                continue;
            }
        };
        let epoch = sw.epoch();
        let mut acked: Vec<(u64, Tuple)> = Vec::new();
        let mut failed: Vec<u64> = Vec::new();
        for i in 0..60 {
            let seq = sw.next_seq();
            match sw.insert("S", &small_tuple(i)) {
                Ok(got) => {
                    assert_eq!(got, seq, "seed {seed}");
                    acked.push((seq, small_tuple(i)));
                }
                Err(_) => failed.push(seq),
            }
        }
        assert!(
            !failed.is_empty(),
            "seed {seed}: 30% over 60 draws must fire"
        );
        assert!(!acked.is_empty(), "seed {seed}: some syncs must land");

        // Despite the storm, queries see exactly the acknowledged tuples.
        let acked_tuples: Vec<Tuple> = acked.iter().map(|(_, t)| t.clone()).collect();
        let got = sw.query("S", small_query(i64::MAX)).unwrap();
        assert_eq!(
            got.rows,
            bulk_reference(&acked_tuples, i64::MAX),
            "seed {seed}"
        );

        // The crash: replay the raw WAL store. Every acknowledged record
        // must survive — a reused seq would end replay at the duplicate
        // frame and lose everything acknowledged after it.
        let (_, replay) = Wal::open(sw.into_wal_store(), epoch).unwrap();
        let seqs: Vec<u64> = replay.records.iter().map(|r| r.seq).collect();
        for (seq, _) in &acked {
            assert!(
                seqs.contains(seq),
                "seed {seed}: acked seq {seq} lost in replay (got {seqs:?})"
            );
        }
        for seq in &failed {
            assert!(
                !seqs.contains(seq),
                "seed {seed}: seq {seq} of a failed insert replayed (got {seqs:?})"
            );
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

fn count_star() -> AggregateQuery {
    AggregateQuery {
        pred: BucketPred::And(Vec::new()),
        group_by: vec![],
        specs: vec![AggSpec::CountStar],
    }
}

/// The same storm end to end through the real log file: the WAL lives on
/// a seeded sync-faulting wrapper over the `ingest.swal` file, the process
/// "dies" (drop), and `open_with_recovery` must hold exactly the acked
/// rows — a failed insert stays failed even though later syncs succeeded.
/// Threshold 0 never flushes; thresholds 2, 4 and 8 put flushes, and the
/// WAL truncations the storm also hits, between the inserts.
#[test]
fn failed_inserts_stay_gone_after_a_restart() {
    for threshold in [0, 2, 4, 8] {
        for seed in seeds() {
            let dir = scratch_path(&format!("ingest-syncstorm-restart-{threshold}-{seed}"));
            std::fs::create_dir_all(&dir).unwrap();
            let store = FaultPlan::new(
                FileStore::create(dir.join(WAL_FILE)).unwrap(),
                FaultConfig::seeded(seed).with_sync_faults(30),
            );
            let Ok(mut sw) = StreamingWarehouse::create_with_wal_store(
                &dir,
                small_warehouse(),
                threshold,
                store,
            ) else {
                // The device failed the WAL's very first fsync. Legal.
                std::fs::remove_dir_all(&dir).unwrap();
                continue;
            };
            let mut acked: Vec<Tuple> = Vec::new();
            let mut failed = 0usize;
            for i in 0..60 {
                match sw.insert("S", &small_tuple(i)) {
                    Ok(_) => acked.push(small_tuple(i)),
                    Err(_) => failed += 1,
                }
            }
            let tag = format!("threshold {threshold}, seed {seed}");
            assert!(failed > 0, "{tag}: 30% over 60 draws must fire");
            assert!(!acked.is_empty(), "{tag}: some syncs must land");
            drop(sw); // the crash

            let (sw, report) = StreamingWarehouse::open_with_recovery(&dir, 0).unwrap();
            if threshold == 0 {
                assert_eq!(report.replayed, acked.len(), "{tag}: {report:?}");
            }
            assert_eq!(
                sw.query("S", count_star()).unwrap().rows,
                vec![vec![Value::Int(acked.len() as i64)]],
                "{tag}: count(*) after the restart equals the acked rows"
            );
            let got = sw.query("S", small_query(i64::MAX)).unwrap();
            assert_eq!(got.rows, bulk_reference(&acked, i64::MAX), "{tag}");
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }
}

/// Regression: a flush whose WAL truncation fails its sync must not lose
/// the row acked next. The new-epoch header may already sit in the file,
/// and that insert's good sync makes it durable; a frame appended under
/// the old epoch behind it would end replay. The log's syncs go: create
/// ok, insert ok, the truncation FAILS, insert ok.
#[test]
fn a_failed_wal_truncation_loses_no_later_acked_row() {
    let config = (0..)
        .map(|seed| FaultConfig::seeded(seed).with_sync_faults(50))
        .find(|c| {
            let p = FaultPlan::new(CrashStore::new(), *c);
            (0..4)
                .map(|i| p.sync_fails_at(i))
                .eq([false, false, true, false])
        })
        .unwrap();
    let dir = scratch_path("ingest-failed-truncate");
    std::fs::create_dir_all(&dir).unwrap();
    let store = FaultPlan::new(FileStore::create(dir.join(WAL_FILE)).unwrap(), config);
    let mut sw =
        StreamingWarehouse::create_with_wal_store(&dir, small_warehouse(), 0, store).unwrap();
    assert_eq!(sw.insert("S", &small_tuple(0)).unwrap(), 1);
    let err = sw.flush().unwrap_err();
    assert!(matches!(err, IngestError::Wal(_)), "{err}");
    assert_eq!(sw.insert("S", &small_tuple(1)).unwrap(), 2);
    let two = vec![vec![Value::Int(2)]];
    assert_eq!(sw.query("S", count_star()).unwrap().rows, two);
    drop(sw); // the crash

    let (sw, report) = StreamingWarehouse::open_with_recovery(&dir, 0).unwrap();
    assert_eq!(
        report.replayed, 1,
        "the row acked after the failure: {report:?}"
    );
    assert_eq!(sw.query("S", count_star()).unwrap().rows, two);
    let both = [small_tuple(0), small_tuple(1)];
    let got = sw.query("S", small_query(i64::MAX)).unwrap();
    assert_eq!(got.rows, bulk_reference(&both, i64::MAX));
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Auto-flush by threshold: inserts trigger flushes on their own, epochs
/// advance, the WAL stays bounded, and answers never change.
#[test]
fn threshold_flushes_are_transparent() {
    let dir = scratch_path("ingest-thresh");
    std::fs::create_dir_all(&dir).unwrap();
    let mut sw = StreamingWarehouse::create(&dir, small_warehouse(), 8).unwrap();
    let all: Vec<Tuple> = (0..50).map(small_tuple).collect();
    for t in &all {
        sw.insert("S", t).unwrap();
    }
    assert!(sw.epoch() >= 5, "50 inserts at threshold 8 must flush");
    assert!(sw.buffered() < 8, "memtable stays under the threshold");
    let got = sw.query("S", small_query(i64::MAX)).unwrap();
    assert_eq!(got.rows, bulk_reference(&all, i64::MAX));
    std::fs::remove_dir_all(&dir).unwrap();
}

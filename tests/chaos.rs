//! Deterministic chaos harness: seeded fault schedules against the
//! self-healing execution path.
//!
//! The invariant under test, from the resilience design: for every seeded
//! [`FaultPlan`] that injects at most retry-budget transient faults or
//! damages only SMA state (never base-table pages), Query 1 / Query 6
//! answers are byte-identical to a fault-free run, the
//! [`DegradationReport`] is non-empty exactly when faults fired, and
//! `heal()` followed by a scrub reports zero remaining quarantined
//! buckets. Only base-table damage may fail a query, and then with the
//! transient/permanent cause preserved in the error source chain.
//!
//! Every schedule is a pure function of a seed (see `FaultConfig`), so a
//! failure reproduces exactly from the seed printed in the assert message.
//! CI sweeps extra seeds via the `CHAOS_SEED` environment variable.

use smadb::exec::{
    collect, cutoff, query1_query, query6_sma_definitions, run_query1, run_query6, AggSpec,
    Parallelism, PlanKind, PlannerConfig, Q6Params, Query1Config, SmaGAggr,
};
use smadb::sma::{col, BucketPred, CmpOp, SmaSet};
use smadb::storage::test_util::{scratch_path, CrashStore, FaultConfig, FaultPlan, SYNC_FAILURE};
use smadb::storage::{MemStore, RetryPolicy, StoreError, Table, Wal, PAGE_SIZE};
use smadb::tpcd::{generate_lineitem_table, lineitem_schema, Clustering, GenConfig};
use smadb::types::{StdRng, Value, WalRecord};
use smadb::Warehouse;

/// The fixed seed sweep, extended by `CHAOS_SEED` when CI sets it.
fn seeds() -> Vec<u64> {
    let mut s = vec![0xC0FFEE, 17, 4242, 0x5EED_0BAD];
    if let Ok(v) = std::env::var("CHAOS_SEED") {
        if let Ok(n) = v.parse::<u64>() {
            if !s.contains(&n) {
                s.push(n);
            }
        }
    }
    s
}

/// All four clustering models of the generator.
fn clusterings() -> [Clustering; 4] {
    [
        Clustering::SortedByShipdate,
        Clustering::diagonal_default(),
        Clustering::Uniform,
        Clustering::Shuffled,
    ]
}

/// An instant-retry policy so chaos sweeps never sleep in backoff.
fn fast_retries(max_retries: u32) -> RetryPolicy {
    RetryPolicy {
        max_retries,
        base_backoff_us: 0,
        ..RetryPolicy::default()
    }
}

/// Copies `clean`'s pages into a fresh [`MemStore`] behind a [`FaultPlan`]
/// and opens a table over it with an empty (cold) buffer pool, so every
/// first read during execution goes through the fault schedule.
fn faulty_clone(clean: &Table, config: FaultConfig, max_retries: u32) -> Table {
    let mut dest = MemStore::new();
    clean
        .export_to_store(&mut dest)
        .expect("export clean pages");
    let table = Table::new(
        clean.name().to_string(),
        lineitem_schema(),
        Box::new(FaultPlan::new(dest, config)),
        2048,
        clean.bucket_pages(),
    );
    table.set_retry_policy(fast_retries(max_retries));
    table
}

/// Seeded choice of `1..=3` distinct bucket numbers below `bucket_count`.
fn pick_buckets(seed: u64, bucket_count: u32) -> Vec<u32> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xB0C7);
    let k = 1 + (rng.next_u64() % 3) as usize;
    let mut picked: Vec<u32> = (0..k)
        .map(|_| (rng.next_u64() % bucket_count.max(1) as u64) as u32)
        .collect();
    picked.sort_unstable();
    picked.dedup();
    picked
}

/// Whether the error chain (via `std::error::Error::source`) reaches a
/// transient [`StoreError`] — proves both the classification and the
/// satellite `source()` plumbing at once.
fn transient_in_chain(err: &(dyn std::error::Error + 'static)) -> bool {
    let mut cur: Option<&(dyn std::error::Error + 'static)> = Some(err);
    while let Some(e) = cur {
        if e.downcast_ref::<StoreError>()
            .is_some_and(StoreError::is_transient)
        {
            return true;
        }
        cur = e.source();
    }
    false
}

/// Transient faults within the retry budget are invisible: answers match
/// the fault-free run bit for bit, nothing is demoted, and the pool's
/// retry counters say faults fired iff the schedule planned any.
#[test]
fn transient_faults_within_the_retry_budget_are_invisible() {
    for clustering in clusterings() {
        let clean = generate_lineitem_table(&GenConfig::tiny(clustering));
        let smas = SmaSet::build_query1_set(&clean).unwrap();
        let baseline = run_query1(&clean, None, &Query1Config::default()).unwrap();
        for seed in seeds() {
            let config = FaultConfig::seeded(seed).with_transient(40, 3);
            let probe = FaultPlan::new(MemStore::new(), config);
            let planned = probe.any_fault_planned(clean.page_count());

            // Full scan reads every page, so it meets every planned fault.
            let faulty = faulty_clone(&clean, config, 3);
            let run = run_query1(&faulty, None, &Query1Config::default()).unwrap();
            assert_eq!(run.rows, baseline.rows, "{clustering:?} seed {seed}");
            assert_eq!(run.io.gaveup_reads, 0, "{clustering:?} seed {seed}");
            assert_eq!(
                run.io.retried_reads > 0,
                planned,
                "{clustering:?} seed {seed}: retries fired iff planned"
            );

            // SMA plans over the same faulty device: still exact, no bucket
            // demoted, and the spent retries land in the report.
            let faulty = faulty_clone(&clean, config, 3);
            let run = run_query1(&faulty, Some(&smas), &Query1Config::default()).unwrap();
            assert_eq!(run.rows, baseline.rows, "{clustering:?} seed {seed}");
            assert_eq!(run.io.gaveup_reads, 0);
            assert!(
                run.degradation.demoted_buckets.is_empty(),
                "{clustering:?} seed {seed}: transient faults must not demote: {}",
                run.degradation
            );
            if run.plan_kind != PlanKind::FullScan {
                assert_eq!(
                    run.degradation.retries_spent, run.io.retried_reads,
                    "{clustering:?} seed {seed}: report accounts the pool's retries"
                );
            }
        }
    }
}

/// Damage confined to SMA state (seeded bucket quarantine) degrades the
/// plan but never the answer, for Query 1 and Query 6 across all four
/// clustering models.
#[test]
fn sma_only_damage_degrades_but_never_changes_answers() {
    let q6 = Q6Params::default();
    let planner = PlannerConfig::default();
    for clustering in clusterings() {
        let table = generate_lineitem_table(&GenConfig::tiny(clustering));
        for seed in seeds() {
            let picked = pick_buckets(seed, table.bucket_count());

            let mut smas = SmaSet::build_query1_set(&table).unwrap();
            let healthy = run_query1(&table, Some(&smas), &Query1Config::default()).unwrap();
            assert!(healthy.degradation.is_empty(), "{}", healthy.degradation);
            for &b in &picked {
                smas.quarantine_bucket(b);
            }
            let degraded = run_query1(&table, Some(&smas), &Query1Config::default()).unwrap();
            assert_eq!(
                degraded.rows, healthy.rows,
                "{clustering:?} seed {seed}: Q1 answer changed under quarantine"
            );
            if degraded.plan_kind != PlanKind::FullScan {
                assert_eq!(
                    degraded.degradation.quarantined_buckets, picked,
                    "{clustering:?} seed {seed}: every damaged bucket is reported"
                );
                assert_eq!(
                    degraded.degradation.demoted_buckets, picked,
                    "{clustering:?} seed {seed}"
                );
            }

            let mut smas = SmaSet::build(&table, query6_sma_definitions(&table).unwrap()).unwrap();
            let healthy = run_query6(&table, Some(&smas), &q6, &planner).unwrap();
            for &b in &picked {
                smas.quarantine_bucket(b);
            }
            let degraded = run_query6(&table, Some(&smas), &q6, &planner).unwrap();
            assert_eq!(
                degraded.revenue, healthy.revenue,
                "{clustering:?} seed {seed}: Q6 revenue changed under quarantine"
            );
            if degraded.plan_kind != PlanKind::FullScan {
                assert_eq!(degraded.degradation.quarantined_buckets, picked);
            }
        }
    }
}

/// Bursts longer than the retry budget must fail the query — degradation
/// never hides base-table damage — and the error's `source()` chain
/// preserves the transient cause through table and executor layers.
#[test]
fn retry_exhaustion_fails_loudly_with_the_transient_cause() {
    let clean = generate_lineitem_table(&GenConfig::tiny(Clustering::SortedByShipdate));
    let config = FaultConfig::seeded(0xBAD5EED).with_transient(100, 4);

    // Budget ≥ worst burst: the same schedule is fully absorbed.
    let absorbed = faulty_clone(&clean, config, 4);
    absorbed.scan().expect("budget covers every burst");
    let stats = absorbed.io_stats();
    assert!(stats.retried_reads > 0);
    assert_eq!(stats.gaveup_reads, 0);

    // No retries allowed: the very first faulted page read gives up.
    let exhausted = faulty_clone(&clean, config, 0);
    let err = exhausted.scan().unwrap_err();
    assert!(
        transient_in_chain(&err),
        "table error chain lost the transient cause: {err}"
    );
    assert!(exhausted.io_stats().gaveup_reads >= 1);

    // Same through the full query stack: ExecError -> TableError ->
    // StoreError::Transient.
    let exhausted = faulty_clone(&clean, config, 0);
    let err = run_query1(&exhausted, None, &Query1Config::default()).unwrap_err();
    assert!(
        transient_in_chain(&err),
        "query error chain lost the transient cause: {err}"
    );
}

/// Degraded execution is deterministic under parallelism: rows, counters,
/// and the degradation report are identical at 1, 2, 4, and 8 workers.
#[test]
fn degraded_execution_is_identical_at_every_parallelism() {
    let table = generate_lineitem_table(&GenConfig::tiny(Clustering::SortedByShipdate));
    for seed in seeds() {
        let mut smas = SmaSet::build_query1_set(&table).unwrap();
        for b in pick_buckets(seed, table.bucket_count()) {
            smas.quarantine_bucket(b);
        }
        let query = query1_query(&table, cutoff(90)).unwrap();
        let mut reference: Option<(Vec<_>, _)> = None;
        for threads in [1, 2, 4, 8] {
            let mut op = SmaGAggr::new(
                &table,
                query.pred.clone(),
                query.group_by.clone(),
                query.specs.clone(),
                &smas,
            )
            .unwrap()
            .with_parallelism(Parallelism::new(threads));
            let rows = collect(&mut op).unwrap();
            let counters = op.counters();
            assert!(
                !counters.degradation.is_empty(),
                "seed {seed}: quarantine must surface in the report"
            );
            match &reference {
                None => reference = Some((rows, counters)),
                Some((r_rows, r_counters)) => {
                    assert_eq!(&rows, r_rows, "seed {seed} at {threads} threads");
                    assert_eq!(
                        &counters, r_counters,
                        "seed {seed} at {threads} threads: counters/report diverged"
                    );
                }
            }
        }
    }
}

/// Warehouse end to end: seeded quarantine degrades queries (exactly),
/// the scrub counts the damage, `heal()` rebuilds exactly the damaged
/// buckets, and the post-heal scrub is clean again.
#[test]
fn quarantine_heal_scrub_roundtrip_is_exact() {
    for seed in seeds() {
        let mut w = Warehouse::new();
        w.register(generate_lineitem_table(&GenConfig::tiny(
            Clustering::SortedByShipdate,
        )))
        .unwrap();
        for stmt in [
            "define sma chaos_min_ship select min(L_SHIPDATE) from LINEITEM",
            "define sma chaos_max_ship select max(L_SHIPDATE) from LINEITEM",
            "define sma chaos_cnt select count(*) from LINEITEM group by L_RETURNFLAG",
            "define sma chaos_qty select sum(L_QUANTITY) from LINEITEM group by L_RETURNFLAG",
        ] {
            w.define_sma(stmt).unwrap();
        }
        let schema = lineitem_schema();
        let query = smadb::exec::AggregateQuery {
            pred: BucketPred::cmp(
                schema.index_of("L_SHIPDATE").unwrap(),
                CmpOp::Le,
                Value::Date(cutoff(90)),
            ),
            group_by: vec![schema.index_of("L_RETURNFLAG").unwrap()],
            specs: vec![
                AggSpec::CountStar,
                AggSpec::Sum(col(schema.index_of("L_QUANTITY").unwrap())),
            ],
        };
        let healthy = w.query("LINEITEM", query.clone()).unwrap();
        assert_ne!(
            healthy.plan_kind,
            PlanKind::FullScan,
            "seed {seed}: harness rot — the SMA fast path must be in play"
        );
        assert!(healthy.degradation.is_empty());

        let dir = scratch_path(&format!("chaos-wh-{seed}"));
        std::fs::create_dir_all(&dir).unwrap();
        w.save_to_dir(&dir).unwrap();

        let picked = pick_buckets(seed, w.table("LINEITEM").unwrap().bucket_count());
        w.quarantine_sma_buckets("LINEITEM", &picked).unwrap();
        assert_eq!(w.quarantined_sma_buckets("LINEITEM"), picked);

        let degraded = w.query("LINEITEM", query.clone()).unwrap();
        assert_eq!(degraded.rows, healthy.rows, "seed {seed}");
        assert_eq!(degraded.degradation.quarantined_buckets, picked);

        let report = w.scrub(&dir).unwrap();
        assert!(!report.is_clean(), "seed {seed}: {report}");
        assert_eq!(report.buckets_quarantined, picked.len() as u64);

        let healed = w.heal("LINEITEM").unwrap();
        assert_eq!(healed, picked.len(), "seed {seed}: heal is surgical");
        assert!(w.quarantined_sma_buckets("LINEITEM").is_empty());
        let report = w.scrub(&dir).unwrap();
        assert!(
            report.is_clean(),
            "seed {seed}: post-heal scrub not clean: {report}"
        );
        assert_eq!(report.buckets_quarantined, 0);

        let after = w.query("LINEITEM", query.clone()).unwrap();
        assert_eq!(after.rows, healthy.rows, "seed {seed}");
        assert!(after.degradation.is_empty(), "{}", after.degradation);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

/// The streaming-ingest WAL under a seeded storm of fsync failures, then
/// a crash at every legal byte offset: an insert counts as acknowledged
/// only when append *and* sync both succeeded, and for every crash point
/// at or past the last good sync, replay returns exactly the acknowledged
/// records — zero lost, zero double-applied, zero resurrected.
///
/// A failed sync discards every frame appended since the last good one,
/// so those frames never replay. On this device model, which persists a
/// byte prefix of what was written, that holds at every cut: the frame
/// header the discard zeroed at the last good sync lies inside every
/// prefix that keeps the acknowledged bytes.
#[test]
fn ingest_wal_survives_sync_fault_storms_and_crashes_at_every_offset() {
    for seed in seeds() {
        let config = FaultConfig::seeded(seed).with_sync_faults(30);
        let wal = match Wal::create(CrashStore::with_config(config), 1) {
            Ok(w) => w,
            Err(e) => {
                // The device failed the very first fsync: the log was
                // never born, nothing was ever acknowledged. Legal.
                assert!(e.to_string().contains(SYNC_FAILURE), "seed {seed}: {e}");
                continue;
            }
        };
        let mut wal = wal;
        // A successful fsync acknowledges the record it follows; a failed
        // one discards every record appended since the last good fsync.
        let mut acked = Vec::new();
        let mut failed = Vec::new();
        // No acked byte may be cut: fsync success means durability.
        let mut durable_end = PAGE_SIZE as u64;
        for seq in 1..=60u64 {
            let rec = WalRecord {
                epoch: 1,
                seq,
                relation: "S".into(),
                row: vec![seq as u8; 11 + (seq as usize * 7) % 90],
            };
            wal.append(&rec).expect("no write faults in this schedule");
            match wal.sync() {
                Ok(()) => {
                    acked.push(rec);
                    durable_end = PAGE_SIZE as u64 + wal.tail_bytes();
                }
                Err(e) => {
                    assert!(e.to_string().contains(SYNC_FAILURE), "seed {seed}: {e}");
                    failed.push(seq);
                }
            }
        }
        assert!(
            !acked.is_empty(),
            "seed {seed}: 30% faults cannot kill every sync"
        );
        assert!(
            !failed.is_empty(),
            "seed {seed}: 30% over 60 draws must fire"
        );

        let full = wal.into_store();
        for cut in durable_end..=full.len_bytes() {
            let mut crashed = full.clone();
            crashed.truncate_at(cut);
            let (_, replay) = match Wal::open(crashed, 1) {
                Ok(ok) => ok,
                Err(e) => {
                    // Truncating the torn tail needs a sync of its own,
                    // which the storm may also fail; recovery reports the
                    // fault instead of trusting the device.
                    assert!(e.to_string().contains(SYNC_FAILURE), "seed {seed}: {e}");
                    continue;
                }
            };
            for rec in &replay.records {
                assert!(
                    !failed.contains(&rec.seq),
                    "seed {seed} cut {cut}: seq {} was discarded by a failed sync \
                     and must never replay",
                    rec.seq
                );
            }
            assert_eq!(
                replay.records, acked,
                "seed {seed} cut {cut}: recovered set must be exactly the \
                 acknowledged records (none lost, no dups, no phantoms)"
            );
        }
    }
}

/// Persistent SMA damage: seeded bit flips across saved `.sma` images are
/// caught on reopen, exactly the flipped images are rebuilt from the base
/// table, and answers never change.
#[test]
fn flipped_sma_files_rebuild_on_reopen_with_identical_answers() {
    for seed in seeds() {
        let mut w = Warehouse::new();
        w.register(generate_lineitem_table(&GenConfig::tiny(
            Clustering::diagonal_default(),
        )))
        .unwrap();
        for stmt in [
            "define sma chaos_min_ship select min(L_SHIPDATE) from LINEITEM",
            "define sma chaos_max_ship select max(L_SHIPDATE) from LINEITEM",
            "define sma chaos_cnt select count(*) from LINEITEM group by L_RETURNFLAG",
        ] {
            w.define_sma(stmt).unwrap();
        }
        let schema = lineitem_schema();
        let query = smadb::exec::AggregateQuery {
            pred: BucketPred::cmp(
                schema.index_of("L_SHIPDATE").unwrap(),
                CmpOp::Le,
                Value::Date(cutoff(90)),
            ),
            group_by: vec![schema.index_of("L_RETURNFLAG").unwrap()],
            specs: vec![AggSpec::CountStar],
        };
        let expected = w.query("LINEITEM", query.clone()).unwrap();

        let dir = scratch_path(&format!("chaos-flip-{seed}"));
        std::fs::create_dir_all(&dir).unwrap();
        w.save_to_dir(&dir).unwrap();

        // Seeded single-bit flips in a seeded, non-empty subset of the
        // saved SMA images; base-table pages stay untouched.
        let mut sma_files: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .filter(|p| p.extension().is_some_and(|e| e == "sma"))
            .collect();
        sma_files.sort();
        assert_eq!(sma_files.len(), 3);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xF11B);
        let mut flipped = Vec::new();
        for path in &sma_files {
            if !flipped.is_empty() && rng.next_u64().is_multiple_of(2) {
                continue;
            }
            let len = std::fs::metadata(path).unwrap().len();
            let offset = rng.next_u64() % len;
            let bit = (rng.next_u64() % 8) as u8;
            smadb::storage::test_util::flip_bit_in_file(path, offset, bit).unwrap();
            flipped.push(path.file_stem().unwrap().to_string_lossy().into_owned());
        }
        assert!(!flipped.is_empty());

        let (reopened, report) = Warehouse::open_with_recovery(&dir).unwrap();
        let mut rebuilt = report.smas_rebuilt.clone();
        rebuilt.sort();
        flipped.sort();
        assert_eq!(
            rebuilt, flipped,
            "seed {seed}: exactly the flipped images are rebuilt"
        );
        assert!(report.pages_corrupt.is_empty(), "seed {seed}");
        let got = reopened.query("LINEITEM", query.clone()).unwrap();
        assert_eq!(got.rows, expected.rows, "seed {seed}");
        assert!(got.degradation.is_empty(), "{}", got.degradation);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

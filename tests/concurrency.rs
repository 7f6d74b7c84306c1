//! Concurrency: the sharded buffer pool and tables are shared-read safe,
//! so SMA builds and queries can run from many threads at once — and the
//! bucket-parallel operators produce byte-identical results at any thread
//! count.

use std::sync::atomic::{AtomicUsize, Ordering};

use smadb::exec::AggSpec;
use smadb::exec::{collect, run_query1, Parallelism, Query1Config, SmaGAggr};
use smadb::sma::{build_many_parallel, col, BucketPred, CmpOp, SmaSet, LEVEL2_FANOUT};
use smadb::storage::{BufferPool, MemStore, PAGE_FOOTER_LEN, PAGE_SIZE};
use smadb::tpcd::{generate_lineitem_table, q1_cutoff, q1_reference_table, Clustering, GenConfig};

#[test]
fn concurrent_queries_on_one_table() {
    let table = generate_lineitem_table(&GenConfig::tiny(Clustering::diagonal_default()));
    let smas = SmaSet::build_query1_set(&table).unwrap();
    let oracle = q1_reference_table(&table, q1_cutoff(90)).unwrap();
    let failures = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for worker in 0..8 {
            let table = &table;
            let smas = &smas;
            let oracle = &oracle;
            let failures = &failures;
            scope.spawn(move || {
                for round in 0..10 {
                    // Alternate SMA and full-scan plans across threads.
                    let use_smas = (worker + round) % 2 == 0;
                    let run = run_query1(
                        table,
                        if use_smas { Some(smas) } else { None },
                        &Query1Config::default(),
                    )
                    .expect("query");
                    if run.rows.len() != oracle.len() {
                        failures.fetch_add(1, Ordering::Relaxed);
                    }
                    let counts: Vec<i64> = run
                        .rows
                        .iter()
                        .map(|r| r[9].as_int().expect("count column"))
                        .collect();
                    let expected: Vec<i64> = oracle.iter().map(|r| r.count_order).collect();
                    if counts != expected {
                        failures.fetch_add(1, Ordering::Relaxed);
                    }
                }
            });
        }
    });
    assert_eq!(failures.load(Ordering::Relaxed), 0);
}

#[test]
fn concurrent_build_and_read() {
    // One thread repeatedly rebuilds SMA sets (pure reads of the table)
    // while others query through a fixed set — all sharing the pool.
    let table = generate_lineitem_table(&GenConfig::tiny(Clustering::SortedByShipdate));
    let smas = SmaSet::build_query1_set(&table).unwrap();
    std::thread::scope(|scope| {
        let t = &table;
        scope.spawn(move || {
            for _ in 0..5 {
                let rebuilt = SmaSet::build_query1_set(t).expect("rebuild");
                assert_eq!(rebuilt.file_count(), 26);
            }
        });
        for _ in 0..4 {
            let t = &table;
            let smas = &smas;
            scope.spawn(move || {
                for _ in 0..10 {
                    let run = run_query1(t, Some(smas), &Query1Config::default()).expect("query");
                    assert_eq!(run.rows.len(), 4);
                }
            });
        }
    });
}

#[test]
fn parallel_bulkload_with_many_threads_is_stable() {
    let table = generate_lineitem_table(&GenConfig::tiny(Clustering::Uniform));
    let defs = SmaSet::query1_definitions(&table).unwrap();
    let serial = SmaSet::build(&table, defs.clone()).unwrap();
    for threads in [2, 3, 8, 16] {
        let parallel = build_many_parallel(&table, defs.clone(), threads).unwrap();
        for (s, p) in serial.smas().iter().zip(&parallel) {
            assert_eq!(s.n_buckets(), p.n_buckets(), "threads={threads}");
            for (key, file) in s.groups() {
                for b in 0..s.n_buckets() {
                    assert_eq!(p.entry(key, b), file.get(b), "threads={threads}");
                }
            }
        }
    }
}

/// Eight threads hammer a sharded pool — reads, dirty writes, evictions —
/// and every byte, checksum, and I/O counter must come out exact.
#[test]
fn sharded_pool_stress_under_eviction() {
    const THREADS: u32 = 8;
    const PAGES_PER_THREAD: u32 = 32;
    const ROUNDS: u32 = 25;
    let n_pages = THREADS * PAGES_PER_THREAD;
    // Capacity of half the working set forces steady eviction + write-back
    // traffic, and is large enough (≥ 64 per shard) to use several shards.
    let pool = BufferPool::new(Box::new(MemStore::new()), n_pages as usize / 2);
    assert!(pool.shard_count() > 1, "stress test should cover sharding");
    for _ in 0..n_pages {
        pool.allocate().unwrap();
    }
    pool.flush_all().unwrap();
    pool.reset_stats();

    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let pool = &pool;
            scope.spawn(move || {
                // Each thread owns a disjoint page stripe, so final page
                // contents are deterministic even under interleaving.
                let base = t * PAGES_PER_THREAD;
                for round in 0..ROUNDS {
                    for i in 0..PAGES_PER_THREAD {
                        let no = base + i;
                        pool.with_page_mut(no, |data| {
                            data[0] = t as u8;
                            data[1] = round as u8;
                            data[2] = i as u8;
                        })
                        .expect("write");
                        let (a, b) = pool.with_page(no, |data| (data[0], data[2])).expect("read");
                        assert_eq!((a, b), (t as u8, i as u8));
                    }
                }
            });
        }
    });

    // Every access was counted exactly once, and every physical read was
    // classified as either sequential or random — no drops, no doubles.
    let stats = pool.stats();
    let accesses = (THREADS * PAGES_PER_THREAD * ROUNDS * 2) as u64;
    assert_eq!(stats.logical_reads, accesses);
    assert_eq!(
        stats.sequential_reads + stats.random_reads,
        stats.physical_reads
    );
    assert!(stats.physical_reads <= stats.logical_reads);

    // Flush, drop the cache, and re-read through checksum verification:
    // all final images survived eviction and write-back intact.
    pool.flush_all().unwrap();
    pool.clear_cache().unwrap();
    for t in 0..THREADS {
        for i in 0..PAGES_PER_THREAD {
            let no = t * PAGES_PER_THREAD + i;
            pool.with_page(no, |data| {
                assert_eq!(data[0], t as u8, "page {no}");
                assert_eq!(data[1], (ROUNDS - 1) as u8, "page {no}");
                assert_eq!(data[2], i as u8, "page {no}");
                assert!(
                    data[3..PAGE_SIZE - PAGE_FOOTER_LEN].iter().all(|&b| b == 0),
                    "page {no} body untouched"
                );
            })
            .unwrap();
        }
    }
}

/// The bucket-parallel `SmaGAggr` and bulkload produce byte-identical
/// results at every thread count, on every clustering model — including
/// `Diagonal`, whose smeared buckets exercise the ambivalent scan path.
#[test]
fn parallel_execution_is_deterministic_across_clusterings() {
    let clusterings = [
        Clustering::SortedByShipdate,
        Clustering::diagonal_default(),
        Clustering::Uniform,
        Clustering::Shuffled,
    ];
    for clustering in clusterings {
        let table = generate_lineitem_table(&GenConfig::tiny(clustering));
        let defs = SmaSet::query1_definitions(&table).unwrap();
        let serial_set = SmaSet::build(&table, defs.clone()).unwrap();

        // Bulkload: any worker count reproduces the serial SMA files.
        let par_smas = build_many_parallel(&table, defs.clone(), 4).unwrap();
        for (s, p) in serial_set.smas().iter().zip(&par_smas) {
            for (key, file) in s.groups() {
                for b in 0..s.n_buckets() {
                    assert_eq!(p.entry(key, b), file.get(b), "{clustering:?}");
                }
            }
        }

        // SmaGAggr: grade/merge/scan in parallel, identical rows+counters.
        let shipdate = 10; // L_SHIPDATE column in the generated LINEITEM
        let pred = BucketPred::cmp(shipdate, CmpOp::Le, q1_cutoff(90));
        let specs = vec![
            AggSpec::CountStar,
            AggSpec::Sum(col(4)),
            AggSpec::Avg(col(4)),
        ];
        let group_by = vec![8usize, 9];
        // The table spans at least four super-buckets, so at 2 and 8
        // threads morsel boundaries fall inside super-buckets. A second
        // input quarantines bucket 1 of the `qty` SMA: on the sorted
        // clustering it sits in an all-Qualifies super-bucket, which then
        // takes the per-bucket path.
        assert!(table.bucket_count() >= 4 * LEVEL2_FANOUT, "{clustering:?}");
        let mut quarantined = SmaSet::new();
        for sma in serial_set.smas() {
            let mut sma = sma.clone();
            if sma.def().name == "qty" {
                sma.quarantine_bucket(1);
            }
            quarantined.push(sma);
        }
        let run = |set: &SmaSet, threads: usize| {
            let mut op = SmaGAggr::new(&table, pred.clone(), group_by.clone(), specs.clone(), set)
                .unwrap()
                .with_parallelism(Parallelism::new(threads));
            (collect(&mut op).unwrap(), op.counters())
        };
        let (expected, expected_counters) = run(&serial_set, 1);
        for (name, set) in [("healthy", &serial_set), ("quarantined", &quarantined)] {
            let (rows, counters) = run(set, 1);
            assert_eq!(rows, expected, "{clustering:?} {name}");
            if name == "healthy" {
                assert_eq!(counters, expected_counters);
            } else if clustering == Clustering::SortedByShipdate {
                assert_eq!(counters.degradation.quarantined_buckets, vec![1]);
            }
            for threads in [2, 4, 8] {
                let ctx = format!("{clustering:?} {name} with {threads} threads");
                let (par_rows, par_counters) = run(set, threads);
                assert_eq!(par_rows, rows, "{ctx}");
                assert_eq!(par_counters, counters, "{ctx}");
            }
        }
    }
}

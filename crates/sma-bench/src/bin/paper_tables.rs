//! Regenerates every table and figure of the paper's evaluation.
//!
//! ```text
//! paper_tables [e1|e2|e3|e4|e5|e6|a1|a2|a3|e8|e9|e10|e11|all]
//! ```
//!
//! * `e1` — SMA creation times & sizes (§2.4 table)
//! * `e2` — data-cube vs SMA storage (§2.4 bullets)
//! * `e3` — Query 1 with/without SMAs, cold & warm (§2.4 table)
//! * `e4` — Figure 5: runtime vs % ambivalent buckets, breakeven
//! * `e5` — Figure 2: diagonal data distribution
//! * `e6` — Figure 1 / §2.2 selection example
//! * `a1` — ablation: bucket size trade-off (§4)
//! * `a2` — ablation: two-level SMAs in the planner (§4)
//! * `a3` — ablation: join SMAs / semi-join reduction (§4)
//! * `e8` — thread scaling: bucket-parallel bulkload and `SmaGAggr`
//! * `e9` — degraded-path overhead: quarantined buckets & transient retries
//! * `e10` — zero-copy scan kernels vs their materializing predecessors
//!   (also writes `BENCH_scan_kernels.json` at the repo root)
//! * `e11` — durable streaming ingest: WAL overhead per acked insert and
//!   memtable-overlay query interference, plus the E12 `insert_batch`
//!   size sweep (appends a run to `BENCH_ingest.json`)
//!
//! Scale with `SMA_SF` (default 0.002). Shapes, not absolute numbers, are
//! the reproduction target: the paper ran on 1997 SCSI disks at SF 1.

use std::time::Instant;

use sma_bench::harness::{black_box, fmt_ns};
use sma_bench::{
    append_run, bench_scale_factor, bench_table, command_line, dial_ambivalence, git_revision, q1,
    q1_smas,
};
use sma_core::{
    col, AggFn, BucketPred, Classification, CmpOp, Grade, Sma, SmaDefinition, SmaSet, LEVEL2_FANOUT,
};
use sma_cube::CubeModel;
use sma_exec::{collect, cutoff, plan, PlannerConfig, SemiJoin};
use sma_storage::{CostModel, Table, PAGE_SIZE};
use sma_tpcd::{generate, schema::lineitem as li, schema::orders as o, Clustering, GenConfig};
use sma_types::{Date, Decimal, Value};

fn main() {
    let which = std::env::args().nth(1).unwrap_or_else(|| "all".into());
    println!(
        "== SMA paper tables (SF {} ~ {} line items) ==\n",
        bench_scale_factor(),
        (6_000_000.0 * bench_scale_factor()) as u64
    );
    let all = which == "all";
    if all || which == "e0" {
        e0_scaling();
    }
    if all || which == "e1" {
        e1_creation();
    }
    if all || which == "e2" {
        e2_cube_storage();
    }
    if all || which == "e3" {
        e3_query1();
    }
    if all || which == "e4" {
        e4_figure5();
    }
    if all || which == "e5" {
        e5_figure2();
    }
    if all || which == "e6" {
        e6_figure1();
    }
    if all || which == "a1" {
        a1_bucket_size();
    }
    if all || which == "a2" {
        a2_level2();
    }
    if all || which == "a3" {
        a3_join_sma();
    }
    if all || which == "e8" {
        e8_thread_scaling();
    }
    if all || which == "e9" {
        e9_degradation();
    }
    if all || which == "e10" {
        e10_scan_kernels();
    }
    if all || which == "e11" {
        e11_ingest();
    }
}

/// E11 — durable streaming ingest (not in the paper): the per-insert
/// price of the WAL fsync against the no-durability bulk load, query
/// latency with the load live in the memtable overlay against sealed
/// segments with SMAs, plus the flush and cold-recovery transitions.
/// Every timed path is asserted byte-identical to a bulk load first;
/// medians are *appended* as a dated run to `BENCH_ingest.json` at the
/// repo root, as E10 does.
fn e11_ingest() {
    println!("--- E11: streaming ingest — WAL overhead & overlay interference ---");
    let r = sma_bench::ingest::ingest_timings(9);
    println!("{} line items per load", r.rows);
    println!("{:>32} {:>14}", "measurement", "median");
    let rows = [
        ("insert, streamed (WAL fsync)", r.streamed_insert_ns, "/row"),
        ("insert, bulk (no WAL)", r.bulk_insert_ns, "/row"),
        ("query, memtable overlay", r.overlay_query_ns, ""),
        ("query, flushed segments", r.flushed_query_ns, ""),
        ("flush (segments+manifest+WAL)", r.flush_ns, ""),
        ("recovery (full WAL replay)", r.recovery_ns, ""),
    ];
    for (name, ns, unit) in rows {
        println!(
            "{:>32} {:>12}{}",
            name,
            sma_bench::harness::fmt_ns(ns as f64),
            unit
        );
    }
    println!(
        "durability overhead: {:.2}x per insert; overlay penalty: {:.2}x per query",
        r.wal_overhead(),
        r.overlay_penalty()
    );

    println!("\n--- E12: insert_batch — the fsync amortized over the batch ---");
    let points = sma_bench::ingest::batch_insert_timings(9, &[1, 8, 64]);
    println!(
        "{:>12} {:>18} {:>14}",
        "batch_rows", "insert (median)", "wal overhead"
    );
    let mut e12_entries = String::new();
    for p in &points {
        println!(
            "{:>12} {:>14}/row {:>13.2}x",
            p.batch_rows,
            sma_bench::harness::fmt_ns(p.streamed_insert_ns as f64),
            p.wal_overhead_factor
        );
        if !e12_entries.is_empty() {
            e12_entries.push_str(",\n");
        }
        e12_entries.push_str(&format!(
            "        {{\"batch_rows\": {}, \"streamed_insert_ns_per_row\": {}, \"wal_overhead_factor\": {:.3}}}",
            p.batch_rows, p.streamed_insert_ns, p.wal_overhead_factor
        ));
    }

    let run = format!(
        "    {{\n      \"date\": \"{}\",\n      \"git\": \"{}\",\n      \"rows\": {},\n      \
         \"streamed_insert_ns_per_row\": {},\n      \"bulk_insert_ns_per_row\": {},\n      \
         \"wal_overhead_factor\": {:.3},\n      \"overlay_query_ns\": {},\n      \
         \"flushed_query_ns\": {},\n      \"overlay_penalty_factor\": {:.3},\n      \
         \"flush_ns\": {},\n      \"recovery_replay_ns\": {},\n      \
         \"e12_group_commit\": [\n{}\n      ]\n    }}",
        command_line("date", &["+%F"]),
        git_revision(),
        r.rows,
        r.streamed_insert_ns,
        r.bulk_insert_ns,
        r.wal_overhead(),
        r.overlay_query_ns,
        r.flushed_query_ns,
        r.overlay_penalty(),
        r.flush_ns,
        r.recovery_ns,
        e12_entries
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_ingest.json");
    append_or_exit(path, "ingest", &run);
    println!();
}

/// Appends `run` to the history at `path`, or exits non-zero: a run that
/// did not reach its history must not pass for one that did.
fn append_or_exit(path: &str, experiment: &str, run: &str) {
    match append_run(path, experiment, run) {
        Ok(()) => println!("  appended run to {path}"),
        Err(e) => {
            eprintln!("  could not write {path}: {e}");
            std::process::exit(1);
        }
    }
}

/// E10 — scan-kernel comparison (not in the paper): the zero-copy view
/// kernels against their materializing predecessors, on a table dialed to
/// all-ambivalent for Query 1 — the case where per-tuple costs dominate.
/// Each pair is asserted to compute the identical answer before being
/// timed; medians are *appended* as a run to `BENCH_scan_kernels.json` at
/// the repo root, tagged with the date, the git revision and the host's
/// core count, so the optimization trajectory stays on record (see
/// `PERF_HISTORY.md`). A failed append exits non-zero.
fn e10_scan_kernels() {
    println!("--- E10: scan kernels — materialized vs zero-copy ---");
    let timings = sma_bench::kernels::scan_kernel_timings(15);
    println!(
        "{:>38} {:>14} {:>14} {:>9}",
        "kernel", "baseline", "kernel", "speedup"
    );
    let mut entries = String::new();
    for t in &timings {
        println!(
            "{:>38} {:>12}ns {:>12}ns {:>8.2}x",
            t.name,
            t.materialized_ns,
            t.zero_copy_ns,
            t.speedup()
        );
        if !entries.is_empty() {
            entries.push_str(",\n");
        }
        entries.push_str(&format!(
            "        {{\"name\": \"{}\", \"materialized_ns\": {}, \"zero_copy_ns\": {}, \"speedup\": {:.3}}}",
            t.name,
            t.materialized_ns,
            t.zero_copy_ns,
            t.speedup()
        ));
    }
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let run = format!(
        "    {{\n      \"date\": \"{}\",\n      \"git\": \"{}\",\n      \"nproc\": {nproc},\n      \"scale_factor\": {},\n      \"kernels\": [\n{}\n      ]\n    }}",
        command_line("date", &["+%F"]),
        git_revision(),
        bench_scale_factor(),
        entries
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_scan_kernels.json");
    append_or_exit(path, "scan_kernels", &run);
}

/// E9 — degraded-path overhead (not in the paper): Query 1 through
/// `SmaGAggr` with a growing fraction of buckets quarantined, so demoted
/// to base-table scans, and a transient-fault run where the buffer pool
/// rides the faults out by retrying. Answers are asserted identical to
/// the healthy run throughout — degradation may only cost time.
fn e9_degradation() {
    println!("--- E9: degraded-path overhead (quarantine demotion & retries) ---");
    let table = bench_table(Clustering::diagonal_default(), 1);
    let defs = SmaSet::query1_definitions(&table).expect("defs");
    let pred = BucketPred::cmp(li::SHIPDATE, CmpOp::Le, Value::Date(cutoff(90)));
    let group_by = vec![li::RETURNFLAG, li::LINESTATUS];
    let specs = vec![
        sma_exec::AggSpec::CountStar,
        sma_exec::AggSpec::Sum(col(li::QUANTITY)),
        sma_exec::AggSpec::Avg(col(li::QUANTITY)),
    ];
    let run = |smas: &SmaSet, t: &Table| {
        let mut op =
            sma_exec::SmaGAggr::new(t, pred.clone(), group_by.clone(), specs.clone(), smas)
                .expect("plan");
        let started = Instant::now();
        let rows = collect(&mut op).expect("run");
        (rows, op.counters(), started.elapsed().as_secs_f64())
    };
    let healthy = SmaSet::build(&table, defs.clone()).expect("build");
    let _ = run(&healthy, &table); // warm the pool so the baseline is steady
    let (expected, _, base_s) = run(&healthy, &table);
    println!(
        "{:>12} {:>9} {:>12} {:>10}",
        "quarantined", "demoted", "runtime", "vs healthy"
    );
    for pct in [0u64, 5, 25, 50, 100] {
        let mut smas = SmaSet::build(&table, defs.clone()).expect("build");
        for b in 0..table.bucket_count() {
            // Evenly spread pct% of buckets (floor-fraction stride).
            if (b as u64 * pct) / 100 != ((b as u64 + 1) * pct) / 100 {
                smas.quarantine_bucket(b);
            }
        }
        let (rows, counters, secs) = run(&smas, &table);
        assert_eq!(rows, expected, "degraded answers must stay exact");
        println!(
            "{:>11}% {:>9} {:>10.2}ms {:>9.2}x",
            pct,
            counters.degradation.demoted_buckets.len(),
            secs * 1e3,
            secs / base_s
        );
    }
    // Transient read faults on 40% of pages, bursts ≤ 3, absorbed by the
    // pool's retry budget against a cold store.
    let mut dest = sma_storage::MemStore::new();
    table.export_to_store(&mut dest).expect("export");
    let faulty = Table::new(
        table.name().to_string(),
        sma_tpcd::lineitem_schema(),
        Box::new(sma_storage::FaultPlan::new(
            dest,
            sma_storage::FaultConfig::seeded(9).with_transient(40, 3),
        )),
        1 << 16,
        table.bucket_pages(),
    );
    faulty.set_retry_policy(sma_storage::RetryPolicy {
        max_retries: 3,
        base_backoff_us: 0,
        ..sma_storage::RetryPolicy::default()
    });
    let (rows, counters, secs) = run(&healthy, &faulty);
    assert_eq!(rows, expected, "retried answers must stay exact");
    println!(
        "transient chaos: {} retries spent, {:.2}ms ({:.2}x healthy)\n",
        counters.degradation.retries_spent,
        secs * 1e3,
        secs / base_s
    );
}

/// E8 — what a worker costs, and thread scaling (not in the paper; the
/// bucket loops of Figs. 6/7 and the bulkload are embarrassingly
/// parallel). It runs at SF 0.02, the scale of perfbench's `olap_scan`,
/// whatever `SMA_SF` says. First what the bucket loop's worker rule is
/// built from: the start and join of an empty two-worker `run_morsels`,
/// one worker's time per page read and per SMA entry merge, the crossover
/// those give, and the one a sweep of loop sizes measures. Then Query 1
/// and a full-scan-shaped loop as the rule sizes them on a host of
/// 1/2/4/8 cores, and Query 1 at 1/2/4/8 workers whatever its work, after
/// asserting that every count answers alike; and the bulkload.
fn e8_thread_scaling() {
    use sma_exec::parallel::{run_morsels, workers_for, CROSSOVER_NS};
    use sma_exec::sma_gaggr::{MERGE_NS, PAGE_NS};
    use sma_exec::{query1_query, AggSpec, Parallelism, SmaGAggr};
    println!("--- E8: what a worker costs, and thread scaling (SF 0.02) ---");
    let cores = Parallelism::available().get();
    println!("host cores: {cores}");
    let mut cfg = GenConfig::scale_factor(0.02, Clustering::diagonal_default());
    cfg.pool_pages = 1 << 16; // every page resident after the first run
    let table = sma_tpcd::generate_lineitem_table(&cfg);
    let defs = SmaSet::query1_definitions(&table).expect("defs");
    let smas = SmaSet::build(&table, defs.clone()).expect("build");
    let median_ns = |reps: usize, f: &mut dyn FnMut()| {
        let mut samples: Vec<u128> = (0..reps)
            .map(|_| {
                let t = Instant::now();
                f();
                t.elapsed().as_nanos()
            })
            .collect();
        samples.sort_unstable();
        samples[samples.len() / 2] as f64
    };
    let loop_of = |pred: BucketPred, group_by: Vec<usize>, specs: Vec<AggSpec>| {
        SmaGAggr::new(&table, pred, group_by, specs, &smas).expect("plan")
    };
    let q1 = query1_query(&table, cutoff(90)).expect("Query 1");
    let q1_loop = |pred: BucketPred| loop_of(pred, q1.group_by.clone(), q1.specs.clone());
    let shipdate = |op: CmpOp, d: Date| BucketPred::cmp(li::SHIPDATE, op, Value::Date(d));
    // No SMA grades L_TAX, so every bucket the rest of `pred` leaves is
    // ambivalent and read.
    let taxed = |pred: Option<BucketPred>| {
        let tax = BucketPred::cmp(li::TAX, CmpOp::Le, Decimal::from_cents(4));
        loop_of(
            pred.map_or(tax.clone(), |p| BucketPred::And(vec![p, tax])),
            Vec::new(),
            vec![AggSpec::CountStar, AggSpec::Sum(col(li::QUANTITY))],
        )
    };
    // Median over runs that alternate between the operators, each warmed.
    let alternate = |ops: &mut [SmaGAggr<'_>], reps: usize| {
        let mut samples = vec![Vec::new(); ops.len()];
        for op in ops.iter_mut() {
            collect(op).expect("run");
        }
        for _ in 0..reps {
            for (op, times) in ops.iter_mut().zip(&mut samples) {
                let t = Instant::now();
                collect(op).expect("run");
                times.push(t.elapsed().as_nanos() as f64);
            }
        }
        samples
            .into_iter()
            .map(|mut t| {
                t.sort_by(|a, b| a.total_cmp(b));
                t[t.len() / 2]
            })
            .collect::<Vec<f64>>()
    };
    fn serial(op: SmaGAggr<'_>) -> SmaGAggr<'_> {
        op.with_parallelism(Parallelism::serial())
    }

    let start_ns = median_ns(2_001, &mut || {
        run_morsels(2, 2, || (), |_, _| Ok(())).expect("empty loop");
    });
    // Per page on a loop about the crossover's size, which is where the
    // figure decides anything: the buckets before 1994 on this table.
    let first_day = Date::from_ymd(1992, 1, 1).expect("date");
    let before = |days: i32| Some(shipdate(CmpOp::Le, first_day.add_days(days)));
    let planned_pages = taxed(before(768)).planned_ns().expect("plan") / PAGE_NS;
    let page_ns = alternate(&mut [serial(taxed(before(768)))], 31)[0] / planned_pages as f64;
    // Every bucket qualifies: one merge per whole super-bucket and one per
    // bucket of the partial last one. Every bucket disqualifies: the same
    // walk over the grades with nothing merged.
    let n = table.bucket_count();
    let merges = u64::from(n / LEVEL2_FANOUT + n % LEVEL2_FANOUT);
    let all_none = alternate(
        &mut [
            serial(q1_loop(shipdate(
                CmpOp::Le,
                Date::from_ymd(2000, 1, 1).expect("date"),
            ))),
            serial(q1_loop(shipdate(
                CmpOp::Lt,
                Date::from_ymd(1900, 1, 1).expect("date"),
            ))),
        ],
        201,
    );
    let merge_ns = (all_none[0] - all_none[1]).max(0.0) / merges as f64;
    println!("{:>38} {:>12} {:>12}", "", "measured", "constant");
    println!(
        "{:>38} {:>10.1}µs",
        "start + join, empty 2-worker loop",
        start_ns / 1e3
    );
    println!(
        "{:>38} {:>10.0}ns {:>10}ns",
        "one worker, per page read", page_ns, PAGE_NS
    );
    println!(
        "{:>38} {:>10.0}ns {:>10}ns   ({merges} merges)",
        "one worker, per Query 1 merge", merge_ns, MERGE_NS
    );
    println!(
        "{:>38} {:>10.1}µs {:>10.1}µs   (= {:.0} pages at the constant)",
        "crossover: start + W/2 < W at W =",
        2.0 * start_ns / 1e3,
        CROSSOVER_NS as f64 / 1e3,
        CROSSOVER_NS as f64 / PAGE_NS as f64
    );
    println!();

    // Where two workers do beat one: loops that read the buckets a
    // ship-date range leaves, planned from a few pages to every page.
    println!(
        "{:>14} {:>12} {:>12} {:>12} {:>8}",
        "planned pages", "planned", "1 worker", "2 workers", "2 / 1"
    );
    for days in [32, 96, 192, 384, 768, 1536] {
        let pred = || before(days);
        let planned = taxed(pred()).planned_ns().expect("plan");
        let t = alternate(
            &mut [
                serial(taxed(pred())),
                taxed(pred()).with_parallelism(Parallelism::new(2)),
            ],
            31,
        );
        println!(
            "{:>14} {:>10.1}µs {:>10.1}µs {:>10.1}µs {:>8.2}",
            planned / PAGE_NS,
            planned as f64 / 1e3,
            t[0] / 1e3,
            t[1] / 1e3,
            t[1] / t[0]
        );
    }
    println!();

    // Query 1, and the full scan `olap_scan`'s `L_TAX` select runs.
    let shape = |query1: bool| {
        if query1 {
            q1_loop(q1.pred.clone())
        } else {
            taxed(None)
        }
    };
    let counts = [1usize, 2, 4, 8];
    let mut rows = Vec::new();
    for (name, query1) in [("Query 1", true), ("full-scan shape", false)] {
        // Every worker count, and the rule's, answers alike before
        // anything is timed.
        let answer = |mut op: SmaGAggr<'_>| (collect(&mut op).expect("run"), op.counters());
        let expected = answer(serial(shape(query1)));
        for threads in counts {
            let got = answer(shape(query1).with_parallelism(Parallelism::new(threads)));
            assert_eq!(
                got, expected,
                "{name} at {threads} workers answered differently"
            );
        }
        assert_eq!(
            answer(shape(query1)),
            expected,
            "{name} as the rule sizes it"
        );
        let planned = shape(query1).planned_ns().expect("plan");
        println!(
            "{name}: planned {:.1}µs of one worker's time; the rule starts {} of {cores}",
            planned as f64 / 1e3,
            workers_for(planned, cores)
        );
        rows.push((name, query1, counts.map(|n| workers_for(planned, n))));
        if query1 {
            rows.push(("Query 1, forced", true, counts));
        }
    }
    // A row per loop: its time on a host of 1/2/4/8 cores, with the
    // workers the rule starts there in parentheses; the forced row starts
    // that many whatever the work.
    println!(
        "{:>16} {:>15} {:>15} {:>15} {:>15}",
        "cores", "1", "2", "4", "8"
    );
    for (name, query1, workers) in rows {
        let mut ops: Vec<SmaGAggr<'_>> = workers
            .iter()
            .map(|&w| shape(query1).with_parallelism(Parallelism::new(w)))
            .collect();
        let mut row = format!("{name:>16}");
        for (ns, w) in alternate(&mut ops, 31).into_iter().zip(workers) {
            row.push_str(&format!(" {:>9.1}µs ({w})", ns / 1e3));
        }
        println!("{row}");
    }
    println!();

    println!("{:>8} {:>14} {:>10}", "threads", "bulkload", "speedup");
    let mut base = None;
    for threads in counts {
        let ns = median_ns(3, &mut || {
            sma_core::build_many_parallel(&table, defs.clone(), threads).expect("build");
        });
        let b0 = *base.get_or_insert(ns);
        println!("{:>8} {:>12.2}ms {:>9.2}x", threads, ns / 1e6, b0 / ns);
    }
    println!();
}

/// E0 — §2.4's scaling argument: "SMA-file sizes are linear in the number
/// of buckets … creation and query processing times are also linear", so
/// one sufficiently large database suffices. We verify the linearity.
fn e0_scaling() {
    println!("--- E0: linear scaling in the number of buckets (§2.4) ---");
    println!(
        "{:>8} {:>9} {:>10} {:>12} {:>14} {:>14}",
        "sf mult", "buckets", "sma pages", "build", "q1 sma warm", "q1 full warm"
    );
    let base_sf = bench_scale_factor();
    let mut prev: Option<(f64, f64)> = None;
    let mut ratios = Vec::new();
    for mult in [1u32, 2, 4] {
        let mut cfg =
            sma_tpcd::GenConfig::scale_factor(base_sf * mult as f64, Clustering::SortedByShipdate);
        cfg.pool_pages = 1 << 16;
        let table = sma_tpcd::generate_lineitem_table(&cfg);
        let started = Instant::now();
        let smas = SmaSet::build_query1_set(&table).expect("build");
        let build = started.elapsed();
        let with = q1(&table, Some(&smas), false);
        let without = q1(&table, None, false);
        println!(
            "{:>7}x {:>9} {:>10} {:>12.2?} {:>14.2?} {:>14.2?}",
            mult,
            table.bucket_count(),
            smas.total_pages(),
            build,
            with.elapsed,
            without.elapsed,
        );
        let buckets = table.bucket_count() as f64;
        if let Some((pb, pt)) = prev {
            ratios.push((buckets / pb, build.as_secs_f64() / pt));
        }
        prev = Some((buckets, build.as_secs_f64()));
    }
    for (b_ratio, t_ratio) in &ratios {
        println!(
            "  buckets x{:.2} -> build time x{:.2} (linear would be x{:.2})",
            b_ratio, t_ratio, b_ratio
        );
    }
    println!();
}

/// E1 — §2.4 creation-time & size table for the eight Query 1 SMAs.
fn e1_creation() {
    println!("--- E1: SMA creation time and size (paper §2.4 table) ---");
    println!("paper @SF1: count 117s/736p, max 116s/184p, min 103s/184p, qty 104s/1468p,");
    println!("            dis 100s/1468p, ext 101s/1468p, extdis 95s/1468p, extdistax 99s/1468p");
    println!("            total 8444 pages = 33.776 MB ≈ 4% of LINEITEM\n");
    let table = bench_table(Clustering::SortedByShipdate, 1);
    let defs = SmaSet::query1_definitions(&table).expect("definitions");
    println!(
        "{:<12} {:>12} {:>8} {:>8} {:>10}",
        "sma", "creation", "files", "pages", "bytes"
    );
    let mut total_pages = 0;
    for def in &defs {
        let started = Instant::now();
        let sma = Sma::build(&table, def.clone()).expect("build");
        let took = started.elapsed();
        total_pages += sma.total_pages();
        println!(
            "{:<12} {:>12.2?} {:>8} {:>8} {:>10}",
            def.name,
            took,
            sma.file_count(),
            sma.total_pages(),
            sma.total_bytes()
        );
    }
    let data_pages = table.page_count() as usize;
    println!(
        "total: {} pages = {:.3} MB vs LINEITEM {} pages ({:.2}% overhead)",
        total_pages,
        (total_pages * PAGE_SIZE) as f64 / (1024.0 * 1024.0),
        data_pages,
        100.0 * total_pages as f64 / data_pages as f64
    );
    // The B+ tree comparison point.
    let rows = table.scan().expect("scan");
    let mut pairs: Vec<(i32, u64)> = rows
        .iter()
        .map(|(tid, t)| {
            (
                t[li::SHIPDATE].as_date().expect("typed").days(),
                (tid.page as u64) << 16 | tid.slot as u64,
            )
        })
        .collect();
    pairs.sort_by_key(|&(k, _)| k);
    let started = Instant::now();
    let tree = sma_cube::BPlusTree::bulk_load(sma_cube::page_sized_order(4, 8), pairs);
    println!(
        "B+ tree on L_SHIPDATE (paper: 230 MB, built far beyond 15 min): \
         {} pages, bulk-loaded in {:.2?}\n",
        tree.node_count(),
        started.elapsed()
    );
}

/// E2 — §2.4 data-cube storage comparison.
fn e2_cube_storage() {
    println!("--- E2: data cube vs SMA storage (paper §2.4) ---");
    println!("{:<34} {:>16} {:>16}", "configuration", "paper", "model");
    let rows = [(1u32, "479.25 KB"), (2, "1196.25 MB"), (3, "2985.95 GB")];
    for (dims, paper) in rows {
        let m = CubeModel::query1(dims);
        let ours = match dims {
            1 => format!("{:.2} KB", m.size_kb()),
            2 => format!("{:.2} MB", m.size_mb()),
            _ => format!("{:.2} GB", m.size_gb()),
        };
        println!(
            "{:<34} {:>16} {:>16}",
            format!("cube, {dims} date dim(s) x 4 flags"),
            paper,
            ours
        );
    }
    let table = bench_table(Clustering::SortedByShipdate, 1);
    let smas = q1_smas(&table);
    // Paper: SMAs for Query 1 = 33.776 MB; +2 more dates = 51.12 MB.
    let q1_mb = (smas.total_pages() * PAGE_SIZE) as f64 / (1024.0 * 1024.0);
    // Adding min/max SMAs for the two other dates costs 4 more date files.
    let extra = {
        let defs = vec![
            SmaDefinition::new("min_commit", AggFn::Min, col(li::COMMITDATE)),
            SmaDefinition::new("max_commit", AggFn::Max, col(li::COMMITDATE)),
            SmaDefinition::new("min_receipt", AggFn::Min, col(li::RECEIPTDATE)),
            SmaDefinition::new("max_receipt", AggFn::Max, col(li::RECEIPTDATE)),
        ];
        let set = SmaSet::build(&table, defs).expect("build");
        (set.total_pages() * PAGE_SIZE) as f64 / (1024.0 * 1024.0)
    };
    println!(
        "{:<34} {:>16} {:>13.3} MB",
        "all Q1 SMAs (paper 33.776 MB @SF1)", "33.776 MB", q1_mb
    );
    println!(
        "{:<34} {:>16} {:>13.3} MB",
        "+ SMAs for 2 more dates (paper 51.12)",
        "51.12 MB",
        q1_mb + extra
    );
    println!("(our SF is smaller; the *ratios* — MBs vs the cube's GBs — are the result)\n");
}

/// E3 — §2.4 Query 1 response times.
fn e3_query1() {
    println!("--- E3: Query 1 response time (paper §2.4) ---");
    println!("paper @SF1, sorted on shipdate:  without SMAs 128s (cold&warm);");
    println!("                                 with SMAs 4.9s cold / 1.9s warm\n");
    let table = bench_table(Clustering::SortedByShipdate, 1);
    let smas = q1_smas(&table);
    let cm = CostModel::default();
    println!(
        "{:<22} {:>10} {:>12} {:>12} {:>14}",
        "run", "plan", "elapsed", "pages read", "modeled cold"
    );
    let mut rows = Vec::new();
    let without_cold = q1(&table, None, true);
    rows.push(("without SMAs (cold)", false, without_cold));
    let without_warm = q1(&table, None, false);
    rows.push(("without SMAs (warm)", false, without_warm));
    let with_cold = q1(&table, Some(&smas), true);
    rows.push(("with SMAs (cold)", true, with_cold));
    let with_warm = q1(&table, Some(&smas), false);
    rows.push(("with SMAs (warm)", true, with_warm));
    for (name, uses_smas, run) in &rows {
        // SMA plans additionally stream the SMA-files themselves (charged
        // sequentially; they are cached and free when warm on AODB too,
        // but we price the cold case).
        let sma_pages_ms = if *uses_smas {
            smas.total_pages() as f64 * cm.seq_read_ms
        } else {
            0.0
        };
        println!(
            "{:<22} {:>10} {:>12.2?} {:>12} {:>11.1} ms",
            name,
            format!("{:?}", run.plan_kind),
            run.elapsed,
            run.io.logical_reads,
            cm.cost_ms(&run.io) + sma_pages_ms,
        );
    }
    let speedup = rows[1].2.elapsed.as_secs_f64() / rows[3].2.elapsed.as_secs_f64().max(1e-9);
    println!(
        "warm speedup: {speedup:.0}x (paper: ~67x warm, ~26x cold — two orders of magnitude)\n"
    );
}

/// E4 — Figure 5: runtime vs percentage of ambivalent buckets.
fn e4_figure5() {
    println!("--- E4: Figure 5 — runtime vs % of buckets to be investigated ---");
    println!("paper: SMA runtime grows linearly, crossing the full-scan line at ~25%;");
    println!("       a uselessly-applied SMA plan costs < 2% extra\n");
    let cut = cutoff(90);
    let cm = CostModel::default();
    println!(
        "{:>8} {:>14} {:>14} {:>16} {:>16}",
        "ambiv%", "sma warm", "full warm", "sma cold model", "full cold model"
    );
    // With SMA_CSV set, the series is also written for plotting.
    let mut csv = String::from(
        "ambivalent_fraction,sma_warm_s,full_warm_s,sma_cold_model_ms,full_cold_model_ms\n",
    );
    let mut crossover: Option<f64> = None;
    let mut prev: Option<(f64, f64, f64)> = None;
    for pct in [0.0, 0.05, 0.10, 0.15, 0.20, 0.25, 0.30, 0.35, 0.40] {
        let mut table = bench_table(Clustering::SortedByShipdate, 1);
        dial_ambivalence(&mut table, cut, pct);
        let smas = q1_smas(&table);
        // Force both plans regardless of what the optimizer would pick.
        let query = sma_exec::query1_query(&table, cut).expect("query");
        let p = plan(&table, query, Some(&smas), &PlannerConfig::default());
        let est = p.estimate.expect("smas present");
        // Warm wall-clock of each forced plan.
        let sma_warm = time_forced(&table, Some(&smas), true);
        let full_warm = time_forced(&table, None, false);
        println!(
            "{:>7.0}% {:>14.2?} {:>14.2?} {:>13.1} ms {:>13.1} ms",
            est.ambivalent_fraction * 100.0,
            sma_warm,
            full_warm,
            est.sma_gaggr_cost_ms.unwrap_or(f64::NAN),
            est.full_scan_cost_ms,
        );
        csv.push_str(&format!(
            "{},{},{},{},{}\n",
            est.ambivalent_fraction,
            sma_warm.as_secs_f64(),
            full_warm.as_secs_f64(),
            est.sma_gaggr_cost_ms.unwrap_or(f64::NAN),
            est.full_scan_cost_ms
        ));
        let (s, f) = (
            est.sma_gaggr_cost_ms.unwrap_or(f64::MAX),
            est.full_scan_cost_ms,
        );
        if crossover.is_none() {
            if let Some((ppct, ps, pf)) = prev {
                if ps <= pf && s > f {
                    // Linear interpolation of the crossing point.
                    let t = (pf - ps) / ((s - f) - (ps - pf));
                    crossover = Some(ppct + t * (est.ambivalent_fraction - ppct));
                }
            }
            prev = Some((est.ambivalent_fraction, s, f));
        }
        let _ = cm;
    }
    match crossover {
        Some(x) => println!(
            "modeled breakeven at ~{:.0}% ambivalent buckets (paper: ~25%)\n",
            x * 100.0
        ),
        None => println!("no crossover within the sweep (disk model favors skipping)\n"),
    }
    if let Ok(dir) = std::env::var("SMA_CSV") {
        let path = std::path::Path::new(&dir).join("figure5.csv");
        if std::fs::write(&path, csv).is_ok() {
            println!("(series written to {})\n", path.display());
        }
    }
}

fn time_forced(table: &Table, smas: Option<&SmaSet>, force_sma: bool) -> std::time::Duration {
    use sma_exec::{PlanKind, Q1Execution};
    // Run via the planner but coerce the kind through a private rebuild:
    // simplest is to run both and pick by kind; we re-plan with settings
    // that force the desired side.
    let cfg = if force_sma {
        // Cost model that makes bucket skipping irresistible.
        sma_exec::Query1Config {
            planner: PlannerConfig {
                cost_model: CostModel {
                    seq_read_ms: 1.0,
                    rand_read_ms: 1.0,
                    write_ms: 0.0,
                    failed_read_ms: 0.0,
                },
            },
            ..Default::default()
        }
    } else {
        sma_exec::Query1Config::default()
    };
    let run: Q1Execution = sma_exec::run_query1(table, smas, &cfg).expect("q1");
    if force_sma {
        debug_assert_eq!(run.plan_kind, PlanKind::SmaGAggr);
    }
    run.elapsed
}

/// E5 — Figure 2: the diagonal data distribution.
fn e5_figure2() {
    println!("--- E5: Figure 2 — diagonal data distribution ---");
    println!("paper: order dates cluster around the diagonal of introduction time\n");
    let cfg = GenConfig {
        orders: 2_000,
        clustering: Clustering::diagonal_default(),
        seed: 42,
        bucket_pages: 1,
        pool_pages: 1 << 14,
    };
    let (_, items) = generate(&cfg);
    // Position in the file = introduction order; plot shipdate percentile
    // per file decile as a text sketch of Fig. 2.
    let n = items.len();
    println!(
        "{:>10} {:>14} {:>14} {:>14}",
        "file decile", "min ship", "median ship", "max ship"
    );
    for d in 0..10 {
        let slice = &items[d * n / 10..(d + 1) * n / 10];
        let mut dates: Vec<Date> = slice.iter().map(|it| it.shipdate).collect();
        dates.sort();
        println!(
            "{:>10} {:>14} {:>14} {:>14}",
            d,
            dates[0],
            dates[dates.len() / 2],
            dates[dates.len() - 1]
        );
    }
    // Quantify the clustering: per-bucket shipdate spread.
    let table = sma_tpcd::load_lineitem(&items, Box::new(sma_storage::MemStore::new()), 1, 1 << 14);
    let min = Sma::build(
        &table,
        SmaDefinition::new("min", AggFn::Min, col(li::SHIPDATE)),
    )
    .expect("build");
    let max = Sma::build(
        &table,
        SmaDefinition::new("max", AggFn::Max, col(li::SHIPDATE)),
    )
    .expect("build");
    let spreads: Vec<i32> = (0..table.bucket_count())
        .filter_map(|b| {
            let lo = min.bucket_value_across_groups(b).as_date()?;
            let hi = max.bucket_value_across_groups(b).as_date()?;
            Some(hi.days_between(lo))
        })
        .collect();
    let avg = spreads.iter().sum::<i32>() as f64 / spreads.len() as f64;
    println!(
        "\nper-bucket shipdate spread: avg {avg:.1} days over a {}-day domain — the\n\
         clustering SMAs exploit (uniform data would spread ~the whole domain)\n",
        Date::parse("1998-12-31")
            .unwrap()
            .days_between(Date::parse("1992-01-01").unwrap())
    );
}

/// E6 — Figure 1 / §2.2: the three-bucket selection example.
fn e6_figure1() {
    println!("--- E6: Figure 1 / §2.2 selection example ---");
    use std::sync::Arc;
    let schema = Arc::new(sma_types::Schema::new(vec![
        sma_types::Column::new("L_SHIPDATE", sma_types::DataType::Date),
        sma_types::Column::new("PAD", sma_types::DataType::Str),
    ]));
    let mut t = Table::in_memory("LINEITEM", schema, 1);
    let dates = [
        "1997-03-11",
        "1997-04-22",
        "1997-02-02",
        "1997-04-01",
        "1997-05-07",
        "1997-04-28",
        "1997-05-02",
        "1997-05-20",
        "1997-06-03",
    ];
    let pad = "x".repeat(1200);
    for d in dates {
        t.append(&vec![
            Value::Date(Date::parse(d).expect("valid")),
            Value::Str(pad.clone()),
        ])
        .expect("append");
    }
    let smas = SmaSet::build(
        &t,
        vec![
            SmaDefinition::new("min", AggFn::Min, col(0)),
            SmaDefinition::new("max", AggFn::Max, col(0)),
            SmaDefinition::count("count"),
        ],
    )
    .expect("build");
    let pred = BucketPred::cmp(
        0,
        CmpOp::Lt,
        Value::Date(Date::parse("1997-04-30").unwrap()),
    );
    for b in 0..t.bucket_count() {
        println!("  bucket {}: {:?}", b + 1, pred.grade(b, &smas));
    }
    t.reset_io_stats();
    let mut op =
        sma_exec::SmaGAggr::new(&t, pred, vec![], vec![sma_exec::AggSpec::CountStar], &smas)
            .expect("op");
    let rows = collect(&mut op).expect("collect");
    println!(
        "  count(*) where L_SHIPDATE < 97-04-30 = {} reading {} of {} pages\n",
        rows[0][0],
        t.io_stats().logical_reads,
        t.page_count()
    );
}

/// A1 — §4 bucket-size trade-off ablation.
fn a1_bucket_size() {
    println!("--- A1: bucket size trade-off (§4) ---");
    println!("paper: small buckets -> large SMA-files; large buckets -> many ambivalent\n");
    let cut = cutoff(90);
    println!(
        "{:>12} {:>10} {:>10} {:>9} {:>12} {:>12}",
        "bucket pages", "buckets", "sma pages", "ambiv%", "sma warm", "modeled"
    );
    for bucket_pages in [1u32, 2, 4, 8, 16, 32] {
        let table = bench_table(Clustering::diagonal_default(), bucket_pages);
        let smas = q1_smas(&table);
        let query = sma_exec::query1_query(&table, cut).expect("query");
        let p = plan(&table, query, Some(&smas), &PlannerConfig::default());
        let est = p.estimate.expect("smas");
        let run = q1(&table, Some(&smas), false);
        println!(
            "{:>12} {:>10} {:>10} {:>8.1}% {:>12.2?} {:>9.1} ms",
            bucket_pages,
            table.bucket_count(),
            smas.total_pages(),
            est.ambivalent_fraction * 100.0,
            run.elapsed,
            est.sma_gaggr_cost_ms.unwrap_or(f64::NAN),
        );
    }
    println!();
}

/// A2 — §4 two-level SMAs, as the planner grades with them: over each
/// clustering and `olap_scan`'s three predicate shapes, level-2 grading
/// (`Classification::classify`) against grading every bucket on its own.
/// Every grade is asserted equal to the flat grade before anything
/// prints. A super-bucket whose buckets all qualify is one `SmaGAggr`
/// merges from level 2.
fn a2_level2() {
    println!("--- A2: two-level SMAs in the planner (§4) ---");
    println!("paper: if a 2nd-level bucket (dis)qualifies, the 1st-level file is skipped\n");
    let cents = |c: i64| Value::Decimal(Decimal::from_cents(c));
    let date = |y: i32| Value::Date(Date::from_ymd(y, 1, 1).expect("valid date"));
    let shapes = [
        (
            "Q1",
            BucketPred::cmp(li::SHIPDATE, CmpOp::Le, Value::Date(cutoff(90))),
        ),
        (
            "Q6",
            BucketPred::And(vec![
                BucketPred::cmp(li::SHIPDATE, CmpOp::Ge, date(1994)),
                BucketPred::cmp(li::SHIPDATE, CmpOp::Lt, date(1995)),
                BucketPred::cmp(li::DISCOUNT, CmpOp::Ge, cents(5)),
                BucketPred::cmp(li::DISCOUNT, CmpOp::Le, cents(7)),
                BucketPred::cmp(li::QUANTITY, CmpOp::Lt, cents(2_400)),
            ]),
        ),
        (
            "L_TAX",
            BucketPred::And(vec![
                BucketPred::cmp(li::SHIPDATE, CmpOp::Ge, date(1992)),
                BucketPred::cmp(li::TAX, CmpOp::Le, cents(4)),
            ]),
        ),
    ];
    // Medians of 101 alternating runs of the two sides, so drift on a
    // shared host hits both alike.
    let medians_ns = |flat: &mut dyn FnMut(), level2: &mut dyn FnMut()| {
        let time = |f: &mut dyn FnMut()| {
            let t = Instant::now();
            f();
            t.elapsed().as_nanos()
        };
        let (mut a, mut b): (Vec<u128>, Vec<u128>) =
            (0..101).map(|_| (time(flat), time(level2))).unzip();
        a.sort_unstable();
        b.sort_unstable();
        (a[a.len() / 2], b[b.len() / 2])
    };
    let mut lines = Vec::new();
    for (name, clustering) in [
        ("sorted", Clustering::SortedByShipdate),
        ("diagonal", Clustering::diagonal_default()),
        ("uniform", Clustering::Uniform),
        ("shuffled", Clustering::Shuffled),
    ] {
        let table = bench_table(clustering, 1);
        let smas = q1_smas(&table);
        let n = table.bucket_count();
        for (shape, pred) in &shapes {
            let flat: Vec<Grade> = (0..n).map(|b| pred.grade(b, &smas)).collect();
            let two_level = Classification::classify(pred, n, &smas);
            assert_eq!(
                two_level.grades, flat,
                "A2: level-2 grades differ from flat grades ({name}, {shape})"
            );
            let whole = |g: Grade| {
                flat.chunks_exact(LEVEL2_FANOUT as usize)
                    .filter(|c| c.iter().all(|&x| x == g))
                    .count()
            };
            let (flat_ns, level2_ns) = medians_ns(
                &mut || {
                    black_box((0..n).map(|b| pred.grade(b, &smas)).collect::<Vec<Grade>>());
                },
                &mut || {
                    black_box(Classification::classify(pred, n, &smas));
                },
            );
            lines.push(format!(
                "{:>10} {:>6} {:>8} {:>6} {:>6} {:>6} {:>10} {:>10} {:>7.1}x",
                name,
                shape,
                n,
                n.div_ceil(LEVEL2_FANOUT),
                whole(Grade::Qualifies),
                whole(Grade::Disqualifies),
                fmt_ns(flat_ns as f64),
                fmt_ns(level2_ns as f64),
                flat_ns as f64 / level2_ns.max(1) as f64,
            ));
        }
    }
    println!("level-2 grades equal flat grades on every clustering and shape");
    println!(
        "{:>10} {:>6} {:>8} {:>6} {:>6} {:>6} {:>10} {:>10} {:>8}",
        "clustering", "shape", "buckets", "super", "all-Q", "all-D", "flat", "level 2", "speedup"
    );
    for line in lines {
        println!("{line}");
    }
    println!();
}

/// A3 — §4 join-SMA / semi-join ablation.
fn a3_join_sma() {
    println!("--- A3: join SMAs — semi-join input reduction (§4) ---");
    let cfg = GenConfig::scale_factor(bench_scale_factor(), Clustering::SortedByShipdate);
    let (orders, _) = generate(&cfg);
    let lineitem = bench_table(Clustering::SortedByShipdate, 1);
    let early: Vec<_> = orders
        .iter()
        .filter(|ord| ord.orderdate <= sma_tpcd::start_date().add_days(90))
        .cloned()
        .collect();
    let orders_table = sma_tpcd::load_orders(&early, 1, 1 << 14);
    let smas = SmaSet::build(
        &lineitem,
        vec![
            SmaDefinition::new("min", AggFn::Min, col(li::SHIPDATE)),
            SmaDefinition::new("max", AggFn::Max, col(li::SHIPDATE)),
        ],
    )
    .expect("build");
    println!(
        "LINEITEM ⋉ ORDERS on L_SHIPDATE <= O_ORDERDATE, |O-early| = {}",
        early.len()
    );
    for (name, set) in [("naive", None), ("sma-reduced", Some(&smas))] {
        lineitem.reset_io_stats();
        let started = Instant::now();
        let mut j = SemiJoin::new(
            &lineitem,
            li::SHIPDATE,
            CmpOp::Le,
            &orders_table,
            o::ORDERDATE,
            set,
        );
        let rows = collect(&mut j).expect("join");
        let c = j.counters();
        println!(
            "  {:<12} |result|={:<7} elapsed={:<10.2?} R-pages={:<6} skipped {}/{} buckets",
            name,
            rows.len(),
            started.elapsed(),
            lineitem.io_stats().logical_reads,
            c.disqualified,
            c.total(),
        );
    }
    println!();
}

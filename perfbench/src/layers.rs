//! The traced run's per-layer numbers. Each workload's seeded stream is
//! replayed single-threaded and in-process, with a span around each of
//! the benchmark's calls into a module's public functions; the wire
//! client is timed the same way.

use std::net::SocketAddr;
use std::time::Instant;

use sma_server::Statement;
use smadb::exec::{plan, PlanKind, PlannerConfig};
use smadb::ingest::StreamingWarehouse;
use smadb::sma::{Classification, Grade};
use smadb::storage::{IoStats, QueryBudget};
use smadb::types::Tuple;

use crate::stats::{median, Metric};
use crate::trace::Tracer;
use crate::wire::Conn;
use crate::workload::{Check, Dataset, Query, FLUSH_ROWS, MAX_SEGMENTS};

const SELECT: Option<&str> = Some("replay.select");

fn render(rows: &[Tuple]) -> Vec<Vec<String>> {
    rows.iter()
        .map(|r| r.iter().map(ToString::to_string).collect())
        .collect()
}

fn median_of(tracer: &Tracer, name: &str) -> f64 {
    median(&mut tracer.durations(name))
}

/// The exact-answer queries of the stream, cycled to `n`.
pub fn replay_queries(queries: &[Query], n: usize) -> Vec<&Query> {
    queries
        .iter()
        .filter(|q| matches!(q.check, Check::Exact(_)))
        .cycle()
        .take(n)
        .collect()
}

/// Replays `queries` through parse, grade, plan and execute, and through
/// the warehouse's own query entry point, checking every answer. Returns
/// the statement, grade, planner, executor and pool metrics.
pub fn replay_selects(
    sw: &StreamingWarehouse,
    ds: &Dataset,
    queries: &[&Query],
    tracer: &mut Tracer,
) -> Result<Vec<Metric>, String> {
    let wh = sw.warehouse();
    let table = wh.table(ds.relation).ok_or("relation missing")?;
    let smas = wh.smas(ds.relation);
    let cfg = PlannerConfig::default();
    let budget = QueryBudget::unbounded();
    let (mut q_, mut d_, mut a_, mut buckets) = (0usize, 0usize, 0usize, 0usize);
    let mut kinds = [0u64; 3];
    let mut io = IoStats::default();
    for (i, query) in queries.iter().enumerate() {
        let trace = i as u64;
        let Check::Exact(expect) = &query.check else {
            continue;
        };
        let start = Instant::now();
        tracer
            .time(trace, SELECT, "statement.parse", || {
                Statement::parse(&query.text)
            })
            .map_err(|e| format!("parse `{}`: {e}", query.text))?;
        let bound = query.spec.bind();
        if let Some(set) = smas {
            let grades = tracer.time(trace, SELECT, "grade.classify", || {
                Classification::classify(&bound.pred, table.bucket_count(), set)
            });
            q_ += grades.count(Grade::Qualifies);
            d_ += grades.count(Grade::Disqualifies);
            a_ += grades.count(Grade::Ambivalent);
            buckets += grades.grades.len();
        }
        let chosen = tracer.time(trace, SELECT, "planner.plan", || {
            plan(table, bound.clone(), smas, &cfg)
        });
        kinds[match chosen.kind {
            PlanKind::SmaGAggr => 0,
            PlanKind::SmaScanGAggr => 1,
            PlanKind::FullScan => 2,
        }] += 1;
        let before = table.io_stats();
        let (rows, _) = tracer
            .time(trace, SELECT, "exec.execute", || {
                chosen.execute_with_report()
            })
            .map_err(|e| format!("execute `{}`: {e}", query.text))?;
        let after = table.io_stats();
        tracer.record(trace, None, "replay.select", start, Instant::now());
        io.logical_reads += after.logical_reads - before.logical_reads;
        io.physical_reads += after.physical_reads - before.physical_reads;
        io.retried_reads += after.retried_reads - before.retried_reads;
        if render(&rows) != *expect {
            return Err(format!("in-process `{}` answered wrongly", query.text));
        }
        let result = tracer
            .time(trace, None, "smadb.query", || {
                sw.query_with_budget(ds.relation, bound, &budget)
            })
            .map_err(|e| format!("query `{}`: {e}", query.text))?;
        if render(&result.rows) != *expect {
            return Err(format!("warehouse `{}` answered wrongly", query.text));
        }
    }
    let n = queries.len().max(1) as f64;
    let exec_ns: u64 = tracer.durations("exec.execute").iter().sum();
    let note = format!("{} queries replayed in-process", queries.len());
    Ok(vec![
        Metric::new(
            "statement.parse_ns",
            median_of(tracer, "statement.parse"),
            "ns",
            "median",
        ),
        Metric::new(
            "grade.classify_ns",
            median_of(tracer, "grade.classify"),
            "ns",
            "median",
        ),
        Metric::new(
            "grade.qualifies",
            q_ as f64 / n,
            "buckets",
            "mean per query",
        ),
        Metric::new(
            "grade.disqualifies",
            d_ as f64 / n,
            "buckets",
            "mean per query",
        ),
        Metric::new(
            "grade.ambivalent",
            a_ as f64 / n,
            "buckets",
            "mean per query",
        ),
        Metric::new(
            "grade.skip_ratio",
            (q_ + d_) as f64 / buckets.max(1) as f64,
            "ratio",
            "(Q+D)/buckets",
        ),
        Metric::new(
            "planner.plan_ns",
            median_of(tracer, "planner.plan"),
            "ns",
            "median",
        ),
        Metric::new("planner.kind.sma_gaggr", kinds[0] as f64, "count", &note),
        Metric::new("planner.kind.sma_scan", kinds[1] as f64, "count", &note),
        Metric::new("planner.kind.full_scan", kinds[2] as f64, "count", &note),
        Metric::new(
            "exec.execute_ns",
            median_of(tracer, "exec.execute"),
            "ns",
            "median",
        ),
        Metric::new(
            "exec.pages_per_query",
            io.logical_reads as f64 / n,
            "pages",
            "mean logical reads",
        ),
        Metric::new(
            "exec.ns_per_page",
            exec_ns as f64 / io.logical_reads.max(1) as f64,
            "ns",
            "execute time over logical reads",
        ),
        Metric::new(
            "pool.hit_ratio",
            1.0 - io.physical_reads as f64 / io.logical_reads.max(1) as f64,
            "ratio",
            "1 - physical/logical reads",
        ),
        Metric::new(
            "pool.physical_reads",
            io.physical_reads as f64,
            "count",
            &note,
        ),
        Metric::new(
            "pool.retried_reads",
            io.retried_reads as f64,
            "count",
            &note,
        ),
    ])
}

/// Times `queries` over one wire connection, then `pings` pings, and
/// reports the ping time and the wire time left after subtracting the
/// in-process `query_with_budget` median already in `tracer`.
pub fn wire_probe(
    addr: SocketAddr,
    queries: &[&Query],
    pings: usize,
    tracer: &mut Tracer,
) -> Result<Vec<Metric>, String> {
    let mut conn = Conn::new(addr);
    for (i, q) in queries.iter().enumerate() {
        let resp = tracer.time(i as u64, None, "wire.select1", || conn.request(&q.text))?;
        if !matches!(&q.check, Check::Exact(rows) if *rows == resp.rows) {
            return Err(format!("wire `{}` answered {:?}", q.text, resp.rows));
        }
    }
    for i in 0..pings {
        tracer.time(i as u64, None, "wire.ping", || conn.request("ping"))?;
    }
    let residual = median_of(tracer, "wire.select1") - median_of(tracer, "smadb.query");
    Ok(vec![
        Metric::new(
            "server.ping_us",
            median_of(tracer, "wire.ping") / 1e3,
            "us",
            format!("median of {pings}"),
        ),
        Metric::new(
            "server.residual_us",
            residual / 1e3,
            "us",
            "median wire select (1 client) - median in-process query_with_budget",
        ),
    ])
}

/// Replays `rows` (`ingest_mixed` only has any) as single-threaded inserts
/// into the reopened warehouse, flushing and compacting where its policy
/// would, with one of `selects` after each insert.
pub fn replay_ingest(
    sw: &mut StreamingWarehouse,
    ds: &Dataset,
    rows: &[Tuple],
    selects: &[&Query],
    tracer: &mut Tracer,
) -> Result<Vec<Metric>, String> {
    let budget = QueryBudget::unbounded();
    let (mut wal_bytes, mut wal_rows) = (0u64, 0u64);
    let (mut flushes, mut compactions, mut merged) = (0u64, 0u64, 0u64);
    let mut overlay = 0u64;
    for (i, row) in rows.iter().enumerate() {
        let trace = i as u64;
        let (tail, buffered) = (sw.wal_tail_bytes(), sw.buffered());
        tracer
            .time(trace, None, "ingest.insert", || sw.insert(ds.relation, row))
            .map_err(|e| format!("insert: {e}"))?;
        if sw.buffered() == buffered + 1 {
            wal_bytes += sw.wal_tail_bytes() - tail;
            wal_rows += 1;
        }
        if sw.buffered() >= FLUSH_ROWS {
            tracer
                .time(trace, None, "ingest.flush", || sw.flush())
                .map_err(|e| format!("flush: {e}"))?;
            flushes += 1;
            if sw.warehouse().max_segment_count() > MAX_SEGMENTS {
                let report = tracer
                    .time(trace, None, "compact.compact", || sw.compact())
                    .map_err(|e| format!("compact: {e}"))?;
                compactions += 1;
                merged += (report.segments_before - report.segments_after) as u64;
            }
        }
        if let Some(q) = selects.get(i) {
            overlay += sw.buffered() as u64;
            let result = tracer
                .time(trace, None, "ingest.query", || {
                    sw.query_with_budget(ds.relation, q.spec.bind(), &budget)
                })
                .map_err(|e| format!("query: {e}"))?;
            if !matches!(&q.check, Check::Exact(e) if *e == render(&result.rows)) {
                return Err(format!("`{}` answered wrongly during ingest", q.text));
            }
        }
    }
    let note = format!("{} inserts replayed in-process", rows.len());
    let queries = rows.len().min(selects.len());
    Ok(vec![
        Metric::new(
            "ingest.query_ns",
            median_of(tracer, "ingest.query"),
            "ns",
            "median",
        ),
        Metric::new(
            "ingest.overlay_rows",
            overlay as f64 / queries.max(1) as f64,
            "rows",
            "mean memtable rows unioned per select",
        ),
        Metric::new(
            "ingest.insert_ns",
            median_of(tracer, "ingest.insert"),
            "ns",
            "median",
        ),
        Metric::new(
            "ingest.wal_bytes_per_row",
            wal_bytes as f64 / wal_rows.max(1) as f64,
            "bytes",
            "WAL growth per insert",
        ),
        Metric::new(
            "ingest.flush_ns",
            median_of(tracer, "ingest.flush"),
            "ns",
            "median",
        ),
        Metric::new("ingest.flushes", flushes as f64, "count", &note),
        Metric::new(
            "compact.compact_ns",
            median_of(tracer, "compact.compact"),
            "ns",
            "median",
        ),
        Metric::new("compact.compactions", compactions as f64, "count", &note),
        Metric::new("compact.segments_merged", merged as f64, "count", &note),
    ])
}

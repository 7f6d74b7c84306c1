//! Server throughput/latency bench + overload-degradation experiment.
//!
//! ```text
//! server_bench
//! ```
//!
//! Two experiments over one warehouse served by the in-process TCP
//! server, appending one dated run (date, git revision, core count) to
//! `BENCH_server.json` at the repo root:
//!
//! * **Latency matrix** — closed-loop clients at 1/8/64 connections,
//!   each issuing the same SMA-prunable point aggregate; reports QPS
//!   and p50/p99 per level.
//! * **Overload** — the server restarted over the same directory with a
//!   page budget that a full-table scan must exceed. Four clients loop
//!   the heavy scan (each attempt refused with a structured budget
//!   error) while one client measures point-aggregate latency; the
//!   point p99 must stay bounded because budget enforcement cuts the
//!   scans off at the cap instead of letting them monopolize the
//!   read lock.
//!
//! Shapes, not absolute numbers, are the target: the interesting
//! outputs are the p99-vs-baseline ratio under overload and the count
//! of heavy scans refused by the budget.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

use sma_bench::{append_run, command_line, git_revision};
use sma_server::proto::Status;
use sma_server::{Client, Server, ServerConfig, ServerHandle};
use smadb::ingest::StreamingWarehouse;
use smadb::storage::test_util::scratch_path;
use smadb::storage::Table;
use smadb::types::{Column, DataType, Schema, Value};
use smadb::Warehouse;

const ROWS: i64 = 12_000;
const PAD: usize = 80;

const POINT_QUERY: &str = "select count(*), min(V), max(V) from L where K >= 6000 and K <= 6200";
// V is pseudo-random per row, so every bucket's [min, max] straddles
// the threshold: no bucket can be answered from its SMA alone and the
// scan must touch every page — which is what the budget then refuses.
const HEAVY_QUERY: &str = "select sum(V), count(*) from L where V <= 5000";

fn load_warehouse(dir: &std::path::Path) -> StreamingWarehouse {
    let schema = std::sync::Arc::new(Schema::new(vec![
        Column::new("K", DataType::Int),
        Column::new("V", DataType::Int),
        Column::new("PAD", DataType::Str),
    ]));
    let mut sw = StreamingWarehouse::create(dir, Warehouse::new(), 0).unwrap();
    // Four pages per bucket: enough buckets that the K-sma prunes the
    // point query down to a handful of pages while the V predicate
    // (pseudo-random, so min/max never excludes a bucket) forces the
    // heavy query through every page.
    sw.register(Table::in_memory("L", schema, 4)).unwrap();
    for stmt in [
        "define sma l_cnt select count(*) from L",
        "define sma l_kmin select min(K) from L",
        "define sma l_kmax select max(K) from L",
        "define sma l_vmin select min(V) from L",
        "define sma l_vmax select max(V) from L",
        "define sma l_vsum select sum(V) from L",
    ] {
        sw.define_sma(stmt).unwrap();
    }
    let rows: Vec<_> = (0..ROWS)
        .map(|i| {
            vec![
                Value::Int(i),
                Value::Int((i * 7919) % 10_000),
                Value::Str("p".repeat(PAD)),
            ]
        })
        .collect();
    // One fsync per 4,096 rows.
    for batch in rows.chunks(4096) {
        sw.insert_batch("L", batch).unwrap();
    }
    sw.flush().unwrap();
    sw
}

fn client(handle: &ServerHandle) -> Client {
    let mut c = Client::connect(handle.addr()).unwrap();
    c.set_timeout(Some(Duration::from_secs(60))).unwrap();
    c
}

/// Runs `per_client` point queries on each of `clients` connections and
/// returns (elapsed, all latencies in ns).
fn closed_loop(handle: &ServerHandle, clients: usize, per_client: usize) -> (Duration, Vec<u64>) {
    let t0 = Instant::now();
    let mut lats: Vec<u64> = Vec::with_capacity(clients * per_client);
    std::thread::scope(|s| {
        let mut joins = Vec::new();
        for _ in 0..clients {
            joins.push(s.spawn(|| {
                let mut c = client(handle);
                let mut mine = Vec::with_capacity(per_client);
                for _ in 0..per_client {
                    let t = Instant::now();
                    let r = c.request(POINT_QUERY).unwrap();
                    mine.push(t.elapsed().as_nanos() as u64);
                    assert!(
                        matches!(r.status, Status::Ok | Status::Degraded),
                        "point query refused: {:?} {}",
                        r.status,
                        r.info
                    );
                }
                mine
            }));
        }
        for j in joins {
            lats.extend(j.join().unwrap());
        }
    });
    (t0.elapsed(), lats)
}

fn percentile(sorted_ns: &[u64], q: f64) -> u64 {
    let idx = ((sorted_ns.len() - 1) as f64 * q).round() as usize;
    sorted_ns[idx]
}

struct Level {
    clients: usize,
    requests: usize,
    qps: f64,
    p50_us: f64,
    p99_us: f64,
}

fn measure_level(handle: &ServerHandle, clients: usize, per_client: usize) -> Level {
    let (elapsed, mut lats) = closed_loop(handle, clients, per_client);
    lats.sort_unstable();
    Level {
        clients,
        requests: lats.len(),
        qps: lats.len() as f64 / elapsed.as_secs_f64(),
        p50_us: percentile(&lats, 0.50) as f64 / 1_000.0,
        p99_us: percentile(&lats, 0.99) as f64 / 1_000.0,
    }
}

fn main() {
    let dir = scratch_path("server-bench");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();

    println!("== server bench: {ROWS} rows, point query `{POINT_QUERY}` ==\n");
    let sw = load_warehouse(&dir);

    // --- Latency matrix: unbudgeted server, generous admission. ---
    let handle = Server::spawn(
        ServerConfig {
            max_sessions: 128,
            max_inflight: 128,
            ..ServerConfig::default()
        },
        sw,
    )
    .unwrap();

    println!(
        "{:>8} {:>10} {:>12} {:>12} {:>12}",
        "clients", "requests", "qps", "p50", "p99"
    );
    let mut matrix = Vec::new();
    for &(clients, per_client) in &[(1usize, 512usize), (8, 128), (64, 30)] {
        let l = measure_level(&handle, clients, per_client);
        println!(
            "{:>8} {:>10} {:>12.0} {:>10.0} µs {:>10.0} µs",
            l.clients, l.requests, l.qps, l.p50_us, l.p99_us
        );
        matrix.push(l);
    }
    handle.shutdown().unwrap();

    // --- Overload: budget-capped server over the same directory. ---
    // The heavy scan touches every page (~ROWS * row_bytes / 4 KiB); a
    // 64-page budget refuses it early. The point query prunes to a few
    // pages via the K sma and sails under the cap.
    let page_budget = 64u64;
    let (sw, report) = StreamingWarehouse::open_with_recovery(&dir, 0).unwrap();
    assert_eq!(report.replayed, 0, "graceful shutdown left WAL work");
    let handle = Server::spawn(
        ServerConfig {
            max_sessions: 32,
            max_inflight: 32,
            deadline: Some(Duration::from_secs(10)),
            page_budget: Some(page_budget),
            ..ServerConfig::default()
        },
        sw,
    )
    .unwrap();

    println!("\n== overload: page budget {page_budget}, 4 heavy-scan clients ==");
    let (_, mut base) = closed_loop(&handle, 1, 400);
    base.sort_unstable();
    let baseline_p99_us = percentile(&base, 0.99) as f64 / 1_000.0;

    let stop = AtomicBool::new(false);
    let heavy_refused = AtomicU64::new(0);
    let heavy_served = AtomicU64::new(0);
    let mut contended: Vec<u64> = Vec::new();
    std::thread::scope(|s| {
        for _ in 0..4 {
            s.spawn(|| {
                let mut c = client(&handle);
                while !stop.load(Ordering::Relaxed) {
                    let r = c.request(HEAVY_QUERY).unwrap();
                    match r.status {
                        Status::Error if r.info.contains("page budget") => {
                            heavy_refused.fetch_add(1, Ordering::Relaxed);
                        }
                        Status::Ok | Status::Degraded => {
                            heavy_served.fetch_add(1, Ordering::Relaxed);
                        }
                        Status::Busy => {}
                        other => panic!("heavy scan: {other:?} {}", r.info),
                    }
                }
            });
        }
        let (_, lats) = closed_loop(&handle, 1, 400);
        contended = lats;
        stop.store(true, Ordering::Relaxed);
    });
    contended.sort_unstable();
    let contended_p99_us = percentile(&contended, 0.99) as f64 / 1_000.0;
    let refused = heavy_refused.load(Ordering::Relaxed);
    let served = heavy_served.load(Ordering::Relaxed);
    let ratio = contended_p99_us / baseline_p99_us.max(0.001);

    println!("point p99 baseline:  {baseline_p99_us:>8.0} µs");
    println!("point p99 contended: {contended_p99_us:>8.0} µs  ({ratio:.2}x)");
    println!("heavy scans refused by budget: {refused} (served: {served})");
    assert!(
        refused > 0,
        "the page budget never cut a heavy scan off — cap too high?"
    );

    handle.shutdown().unwrap();
    let _ = std::fs::remove_dir_all(&dir);

    // --- JSON artifact of record: one more run in the history. ---
    let mut rows_json = String::new();
    for l in &matrix {
        if !rows_json.is_empty() {
            rows_json.push_str(",\n");
        }
        rows_json.push_str(&format!(
            "        {{\"clients\": {}, \"requests\": {}, \"qps\": {:.0}, \
             \"p50_us\": {:.1}, \"p99_us\": {:.1}}}",
            l.clients, l.requests, l.qps, l.p50_us, l.p99_us
        ));
    }
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let run = format!(
        "    {{\n      \"date\": \"{}\",\n      \"git\": \"{}\",\n      \
         \"nproc\": {nproc},\n      \"rows\": {ROWS},\n      \
         \"point_query\": \"{POINT_QUERY}\",\n      \
         \"latency_matrix\": [\n{rows_json}\n      ],\n      \
         \"overload\": {{\n        \"page_budget\": {page_budget},\n        \
         \"baseline_point_p99_us\": {baseline_p99_us:.1},\n        \
         \"contended_point_p99_us\": {contended_p99_us:.1},\n        \
         \"p99_ratio\": {ratio:.2},\n        \
         \"heavy_scans_refused\": {refused},\n        \
         \"heavy_scans_served\": {served}\n      }}\n    }}",
        command_line("date", &["+%F"]),
        git_revision(),
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_server.json");
    match append_run(path, "server", &run) {
        Ok(()) => println!("\nappended run to {path}"),
        Err(e) => println!("\ncould not write {path}: {e}"),
    }
}

//! The concurrent query server under load, overload, and chaos.
//!
//! The robustness contract under test:
//!
//! * **Structured refusal, never a hang.** Admission rejection is an
//!   explicit `Busy`; deadline/page-budget exhaustion is an `Error`
//!   carrying the structured budget message. Every client runs with a
//!   request timeout, so a hang fails the test rather than wedging it.
//! * **Graceful drain.** `shutdown` commits the open WAL group and
//!   flushes; reopening the directory finds every acknowledged row with
//!   nothing left to replay.
//! * **Chaos.** With seeded transient faults injected under the shared
//!   table and 8 concurrent clients, every response is `Ok`/`Degraded`/
//!   `Busy`, and the payload (epoch + plan + rows) of every successful
//!   response is byte-identical to a single-client replay — concurrency
//!   and fault recovery may change *status*, never *answers*.

use std::sync::Arc;
use std::time::Duration;

use sma_server::proto::Status;
use sma_server::{Client, Server, ServerConfig};
use smadb::ingest::StreamingWarehouse;
use smadb::storage::test_util::{scratch_path, FaultConfig, FaultPlan};
use smadb::storage::{MemStore, RetryPolicy, Table};
use smadb::types::{Column, DataType, Schema, Value};
use smadb::Warehouse;

/// The fixed seed sweep, extended by `CHAOS_SEED` when CI sets it.
fn seeds() -> Vec<u64> {
    let mut s = vec![0xC0FFEE, 4242];
    if let Ok(v) = std::env::var("CHAOS_SEED") {
        if let Ok(n) = v.parse::<u64>() {
            if !s.contains(&n) {
                s.push(n);
            }
        }
    }
    s
}

fn chaos_schema() -> Arc<Schema> {
    Arc::new(Schema::new(vec![
        Column::new("G", DataType::Char),
        Column::new("X", DataType::Int),
        Column::new("PAD", DataType::Str),
    ]))
}

fn chaos_tuple(i: i64) -> Vec<Value> {
    vec![
        Value::Char(b'A' + (i % 3) as u8),
        Value::Int((i * 17 + 5) % 400),
        Value::Str("p".repeat(500)),
    ]
}

/// A populated table whose pages live behind a seeded [`FaultPlan`] and a
/// pool too small to cache them — so queries keep hitting the store and
/// keep absorbing transient faults via (jittered) retries.
fn faulty_table(seed: u64) -> Table {
    let mut clean = Table::in_memory("S", chaos_schema(), 1);
    for i in 0..400 {
        clean.append(&chaos_tuple(i)).unwrap();
    }
    let mut dest = MemStore::new();
    clean.export_to_store(&mut dest).unwrap();
    let config = FaultConfig::seeded(seed).with_transient(25, 3);
    let table = Table::new(
        "S".to_string(),
        chaos_schema(),
        Box::new(FaultPlan::new(dest, config)),
        16,
        clean.bucket_pages(),
    );
    table.set_retry_policy(RetryPolicy {
        max_retries: 4,
        base_backoff_us: 1,
        max_backoff_us: 8,
        jitter_seed: seed,
    });
    table
}

fn spawn_server(tag: &str, config: ServerConfig) -> (sma_server::ServerHandle, std::path::PathBuf) {
    let dir = scratch_path(tag);
    std::fs::create_dir_all(&dir).unwrap();
    let sw = StreamingWarehouse::create(&dir, Warehouse::new(), 0).unwrap();
    let handle = Server::spawn(config, sw).unwrap();
    (handle, dir)
}

fn client(handle: &sma_server::ServerHandle) -> Client {
    let mut c = Client::connect(handle.addr()).unwrap();
    c.set_timeout(Some(Duration::from_secs(30))).unwrap();
    c
}

// ------------------------------------------------------------- round trip

#[test]
fn round_trip_ddl_insert_query_shutdown() {
    let (handle, dir) = spawn_server("server-roundtrip", ServerConfig::default());
    let mut c = client(&handle);

    let pong = c.request("ping").unwrap();
    assert_eq!(pong.status, Status::Ok);
    assert_eq!(pong.info, "pong");

    let r = c.request("create table S (G char, X int)").unwrap();
    assert_eq!(r.status, Status::Ok, "{}", r.info);
    let r = c.request("define sma s_min select min(X) from S").unwrap();
    assert_eq!(r.status, Status::Ok, "{}", r.info);
    let r = c
        .request("define sma s_cnt select count(*) from S group by G")
        .unwrap();
    assert_eq!(r.status, Status::Ok, "{}", r.info);

    for i in 0..30i64 {
        let stmt = format!(
            "insert into S values ('{}', {})",
            (b'A' + (i % 2) as u8) as char,
            i
        );
        let r = c.request(&stmt).unwrap();
        assert_eq!(r.status, Status::Ok, "{}", r.info);
        assert!(r.info.starts_with("acked seq "), "{}", r.info);
    }

    let r = c
        .request("select count(*), sum(X) from S where X <= 9 group by G")
        .unwrap();
    assert_eq!(r.status, Status::Ok, "{}", r.info);
    // X <= 9: G=A holds 0,2,4,6,8 (sum 20); G=B holds 1,3,5,7,9 (sum 25).
    assert_eq!(
        r.rows,
        vec![
            vec!["A".to_string(), "5".to_string(), "20".to_string()],
            vec!["B".to_string(), "5".to_string(), "25".to_string()],
        ]
    );

    let r = c.request("select min(X), max(X) from S").unwrap();
    assert_eq!(r.status, Status::Ok);
    assert_eq!(r.rows, vec![vec!["0".to_string(), "29".to_string()]]);

    // Unknown relations and parse errors are structured, not hangs.
    let r = c.request("select count(*) from NOPE").unwrap();
    assert_eq!(r.status, Status::Error);
    assert!(r.info.contains("unknown relation"), "{}", r.info);
    let r = c.request("explode the database").unwrap();
    assert_eq!(r.status, Status::Error);
    assert!(r.info.contains("parse error"), "{}", r.info);

    let r = c.request("shutdown").unwrap();
    assert_eq!(r.status, Status::Ok);
    handle.wait().unwrap();

    // Everything acknowledged survived the drain with nothing to replay.
    let (sw, report) = StreamingWarehouse::open_with_recovery(&dir, 0).unwrap();
    assert!(report.is_clean());
    assert_eq!(report.replayed, 0, "shutdown flushed everything");
    drop(sw);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// SQL's answer to an ungrouped aggregate over no rows is one row: `0`
/// for `count(*)`, NULL for every other aggregate. A grouped one answers
/// no rows.
#[test]
fn ungrouped_aggregate_over_no_rows_answers_one_row() {
    let (handle, dir) = spawn_server("server-empty-aggregate", ServerConfig::default());
    let mut c = client(&handle);
    let r = c.request("create table S (G char, X int)").unwrap();
    assert_eq!(r.status, Status::Ok, "{}", r.info);
    let r = c.request("select count(*), min(X) from S").unwrap();
    assert_eq!(r.status, Status::Ok, "{}", r.info);
    assert_eq!(r.rows, vec![vec!["0".to_string(), "NULL".to_string()]]);
    for i in 0..10i64 {
        let r = c
            .request(&format!("insert into S values ('A', {i})"))
            .unwrap();
        assert_eq!(r.status, Status::Ok, "{}", r.info);
    }
    let r = c
        .request("select count(*), sum(X), avg(X), max(X) from S where X > 100")
        .unwrap();
    assert_eq!(r.status, Status::Ok, "{}", r.info);
    let null = || "NULL".to_string();
    assert_eq!(r.rows, vec![vec!["0".to_string(), null(), null(), null()]]);
    let r = c
        .request("select count(*), sum(X) from S where X > 100 group by G")
        .unwrap();
    assert_eq!(r.status, Status::Ok, "{}", r.info);
    assert!(r.rows.is_empty(), "{:?}", r.rows);
    let r = c.request("shutdown").unwrap();
    assert_eq!(r.status, Status::Ok);
    handle.wait().unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
}

// ------------------------------------------------- admission and budgets

#[test]
fn admission_limit_sheds_queries_with_busy() {
    let config = ServerConfig {
        max_inflight: 0, // admit no query at all — deterministic Busy
        ..ServerConfig::default()
    };
    let (handle, dir) = spawn_server("server-busy", config);
    let mut c = client(&handle);
    c.request("create table S (X int)").unwrap();
    let r = c.request("select count(*) from S").unwrap();
    assert_eq!(r.status, Status::Busy);
    assert!(r.info.contains("admission"), "{}", r.info);
    // Control statements are not query-gated: the server stays reachable.
    assert_eq!(c.request("ping").unwrap().status, Status::Ok);
    handle.shutdown().unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn session_limit_sheds_connections_with_busy() {
    let config = ServerConfig {
        max_sessions: 1,
        ..ServerConfig::default()
    };
    let (handle, dir) = spawn_server("server-sessions", config);
    let mut first = client(&handle);
    assert_eq!(first.request("ping").unwrap().status, Status::Ok);
    // The second connection is shed at the door with an explicit Busy.
    let mut second = client(&handle);
    let r = second.request("ping").unwrap();
    assert_eq!(r.status, Status::Busy);
    assert!(r.info.contains("session"), "{}", r.info);
    // So is every later one, though each sends its request before it
    // reads: closing a refused socket with that request still unread
    // would reset the connection, and the peer would read the reset
    // instead of Busy.
    for i in 0..3_000 {
        let mut refused = client(&handle);
        let r = refused
            .request("ping")
            .unwrap_or_else(|e| panic!("refusal {i}: {e}"));
        assert_eq!(r.status, Status::Busy, "refusal {i}");
    }
    assert_eq!(first.request("ping").unwrap().status, Status::Ok);
    handle.shutdown().unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn expired_deadline_is_a_structured_error() {
    let config = ServerConfig {
        deadline: Some(Duration::ZERO),
        ..ServerConfig::default()
    };
    let (handle, dir) = spawn_server("server-deadline", config);
    let mut c = client(&handle);
    c.request("create table S (X int)").unwrap();
    for i in 0..5 {
        c.request(&format!("insert into S values ({i})")).unwrap();
    }
    let r = c.request("select count(*) from S").unwrap();
    assert_eq!(r.status, Status::Error);
    assert!(r.info.contains("deadline exceeded"), "{}", r.info);
    handle.shutdown().unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn exhausted_page_budget_is_a_structured_error() {
    let config = ServerConfig {
        page_budget: Some(0),
        ..ServerConfig::default()
    };
    let (handle, dir) = spawn_server("server-pagecap", config);
    let mut c = client(&handle);
    c.request("create table S (X int)").unwrap();
    for i in 0..5 {
        c.request(&format!("insert into S values ({i})")).unwrap();
    }
    // Seal the rows into pages: an overlay-only query reads no page and
    // a zero page cap would (correctly) not trip.
    assert_eq!(c.request("flush").unwrap().status, Status::Ok);
    let r = c.request("select count(*) from S").unwrap();
    assert_eq!(r.status, Status::Error);
    assert!(r.info.contains("page budget exceeded"), "{}", r.info);
    handle.shutdown().unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
}

// --------------------------------------------------------- graceful drain

/// Every insert acked before `shutdown` arrives is sealed by the drain's
/// flush — reopening finds all of them and replays nothing.
#[test]
fn shutdown_seals_every_acked_row() {
    let dir = scratch_path("server-drain");
    std::fs::create_dir_all(&dir).unwrap();
    let sw = StreamingWarehouse::create(&dir, Warehouse::new(), 0).unwrap();
    let handle = Server::spawn(ServerConfig::default(), sw).unwrap();
    let mut c = client(&handle);
    c.request("create table S (X int)").unwrap();
    for i in 0..25 {
        let r = c.request(&format!("insert into S values ({i})")).unwrap();
        assert_eq!(r.status, Status::Ok, "{}", r.info);
    }
    assert_eq!(c.request("shutdown").unwrap().status, Status::Ok);
    handle.wait().unwrap();

    let (sw, report) = StreamingWarehouse::open_with_recovery(&dir, 0).unwrap();
    assert!(report.is_clean());
    assert_eq!(report.replayed, 0, "the drain sealed every acked row");
    let q = smadb::exec::AggregateQuery {
        pred: smadb::sma::BucketPred::And(Vec::new()),
        group_by: vec![],
        specs: vec![smadb::exec::AggSpec::CountStar],
    };
    assert_eq!(sw.query("S", q).unwrap().rows, vec![vec![Value::Int(25)]]);
    drop(sw);
    std::fs::remove_dir_all(&dir).unwrap();
}

// ------------------------------------------------------------------ chaos

/// 8 concurrent clients × seeded transient faults under the shared
/// table: every response is `Ok`/`Degraded`/`Busy`, nothing hangs, and
/// every successful payload is byte-identical to a single-client replay.
#[test]
fn concurrent_clients_under_chaos_answer_identically() {
    for seed in seeds() {
        let dir = scratch_path(&format!("server-chaos-{seed}"));
        std::fs::create_dir_all(&dir).unwrap();
        let mut warehouse = Warehouse::new();
        warehouse.register(faulty_table(seed)).unwrap();
        for stmt in [
            "define sma s_min select min(X) from S",
            "define sma s_max select max(X) from S",
            "define sma s_cnt select count(*) from S group by G",
            "define sma s_sum select sum(X) from S group by G",
        ] {
            warehouse.define_sma(stmt).unwrap();
        }
        let sw = StreamingWarehouse::create(&dir, warehouse, 0).unwrap();
        let config = ServerConfig {
            max_sessions: 16,
            max_inflight: 16,
            deadline: Some(Duration::from_secs(30)),
            page_budget: Some(1_000_000),
            ..ServerConfig::default()
        };
        let handle = Server::spawn(config, sw).unwrap();

        let queries: Vec<String> = vec![
            "select count(*), sum(X) from S where X <= 100 group by G".into(),
            "select min(X), max(X) from S".into(),
            "select count(*) from S where X >= 50 and X <= 150".into(),
            "select avg(X) from S group by G".into(),
            "select count(*), sum(X) from S where X <= 399 group by G".into(),
        ];

        // Concurrent phase: 8 clients, each runs the list 4 times.
        type Observation = (usize, Status, u64, String, Vec<Vec<String>>);
        let collected: Vec<Vec<Observation>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..8)
                .map(|_| {
                    let queries = &queries;
                    let handle = &handle;
                    s.spawn(move || {
                        let mut c = client(handle);
                        let mut out = Vec::new();
                        for round in 0..4 {
                            for (qi, q) in queries.iter().enumerate() {
                                let r = c
                                    .request(q)
                                    .unwrap_or_else(|e| panic!("round {round} query {qi}: {e}"));
                                out.push((qi, r.status, r.epoch, r.info, r.rows));
                            }
                        }
                        out
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });

        // Single-client replay: the reference payloads.
        let mut reference = Vec::new();
        {
            let mut c = client(&handle);
            for q in &queries {
                let r = c.request(q).unwrap();
                assert!(
                    matches!(r.status, Status::Ok | Status::Degraded),
                    "replay: {:?} {}",
                    r.status,
                    r.info
                );
                reference.push((r.epoch, r.info, r.rows));
            }
        }

        let mut degraded = 0usize;
        let mut busy = 0usize;
        for per_client in &collected {
            assert_eq!(per_client.len(), 4 * queries.len(), "no response dropped");
            for (qi, status, epoch, info, rows) in per_client {
                match status {
                    Status::Ok => {}
                    Status::Degraded => degraded += 1,
                    Status::Busy => {
                        busy += 1;
                        continue; // shed, not answered — no payload contract
                    }
                    other => panic!("query {qi}: unexpected status {other:?} ({info})"),
                }
                let (ref_epoch, ref_info, ref_rows) = &reference[*qi];
                assert_eq!(epoch, ref_epoch, "query {qi}: epoch drifted");
                assert_eq!(info, ref_info, "query {qi}: plan drifted");
                assert_eq!(rows, ref_rows, "query {qi}: answers drifted");
            }
        }
        // The gates were generous: nothing should have been shed, and the
        // fault plan guarantees at least some degraded responses absorb
        // transient faults (seeded, so deterministic per seed).
        assert_eq!(busy, 0, "no Busy expected under max_inflight=16");
        let _ = degraded; // any count (incl. 0) is legal: faults may all
                          // land on cache-warm reads

        handle.shutdown().unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

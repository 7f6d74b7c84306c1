//! smadb's benchmark. One command runs one named workload against an
//! in-process `sma_server::Server` over a `StreamingWarehouse` built
//! through public APIs, checks every answer against a naive oracle, and
//! prints each metric with its name and unit:
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload point_select --seed 1 --seconds 20 --trace 0
//! ```
//!
//! Each workload times one closed-loop select client for `--seconds`, as
//! full passes through a seeded query stream:
//!
//! * `point_select`: seeded 200-key `count/min/max` windows over the
//!   K-sorted `L(K, V, PAD)` relation. The K SMA prunes each to a few
//!   buckets, so the fixed per-query cost dominates: wire, parse, plan,
//!   grading and the scan's set-up.
//! * `olap_scan`: a seeded mix of Q1-shaped, Q6-shaped and unindexed
//!   aggregates over diagonally clustered TPC-D LINEITEM at SF 0.02, twice
//!   the buffer pool: bucket I/O, decode, filter and aggregation dominate.
//! * `ingest_mixed`: first an open-loop inserter (one fsync per insert)
//!   beside one point-select reader, with a flush threshold and a
//!   compaction policy that complete several cycles; then point selects
//!   over the delta segments and memtable overlay the inserts left. A
//!   reopen must then hold every acked insert.
//!
//! `--trace 0` reports the end-to-end metrics; `--trace 1` is a separate
//! traced run reporting the per-layer metrics (see `layers`) and its own
//! wire results beside them. The last line of standard output is one JSON
//! object; a tagged record of every run is appended to `out/runs.jsonl`
//! beside this package's manifest, and a traced run's spans go to
//! `out/spans-<workload>.tsv`.

mod layers;
mod stats;
mod trace;
mod wire;
mod workload;

use std::fs;
use std::io::Write as _;
use std::net::SocketAddr;
use std::path::Path;
use std::process::ExitCode;
use std::sync::atomic::Ordering::SeqCst;
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

use sma_server::{Server, ServerConfig};
use smadb::ingest::StreamingWarehouse;
use smadb::types::Date;
use smadb::{CompactionPolicy, Warehouse};

use stats::{json_str, median, metrics_json, percentile_metric, Metric};
use trace::Tracer;
use wire::{Progress, Recorded};
use workload::{user_bytes, Dataset, Workload};

/// The seed runs use when none is given. Seed 9001 is held out: tune on
/// this one, and confirm a claimed gain on that one too.
const DEFAULT_SEED: u64 = 1;
/// Inserts per second sent by the open-loop inserter, well below the
/// one-fsync-per-insert capacity even when the shared disk is slow.
const INSERT_RATE: f64 = 200.0;
/// `ingest_mixed` inserts for the window divided by this before it times
/// its selects.
const INSERT_SHARE: u32 = 3;
/// Selects and inserts the traced run replays in-process.
const REPLAY_POINT: usize = 2_000;
const REPLAY_OLAP: usize = 96;
const REPLAY_INSERTS: usize = 2_000;
const PINGS: usize = 500;
/// The end-to-end metrics BENCHMARK.json bounds.
const END_TO_END: [&str; 6] = [
    "setup_s",
    "select_qps",
    "select_p50_us",
    "select_cpu_us",
    "peak_rss_mb",
    "disk_bytes_per_user_byte",
];
/// Closed-loop select clients in the timed window. One client keeps the
/// load on fewer threads than the host has cores: more would measure the
/// scheduler.
const CLIENTS: usize = 1;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

impl Args {
    fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, DEFAULT_SEED, 20, false);
        while let Some(flag) = it.next() {
            let value = it.next().ok_or(format!("{flag} needs a value"))?;
            let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
            match flag.as_str() {
                "--workload" => {
                    workload =
                        Some(Workload::parse(&value).ok_or(format!("unknown workload `{value}`"))?)
                }
                "--seed" => seed = value.parse().map_err(|e| bad(&e))?,
                "--seconds" => seconds = value.parse().map_err(|e| bad(&e))?,
                "--trace" => trace = value == "1",
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        if seconds == 0 {
            return Err("--seconds must be at least 1".into());
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed,
            seconds,
            trace,
        })
    }
}

/// The outcome of one run.
struct Report {
    /// The metrics of the final JSON line.
    metrics: Vec<Metric>,
    /// Printed and recorded, but not in the JSON line.
    printed: Vec<Metric>,
    attempted: u64,
    failed: u64,
    lines: Vec<String>,
    params: Vec<(&'static str, String)>,
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!(
                "{e}\nusage: perfbench --workload <point_select|olap_scan|ingest_mixed> \
                 [--seed N] [--seconds S] [--trace 0|1]"
            );
            return ExitCode::from(2);
        }
    };
    let out = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let work = out.join(format!("work-{}", std::process::id()));
    let result = fs::create_dir_all(&work)
        .map_err(|e| format!("create {}: {e}", work.display()))
        .and_then(|()| run(&args, &work, &out));
    let _ = fs::remove_dir_all(&work);
    let report = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("benchmark failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let correct = report.failed == 0;
    let (date, git, nproc) = (now_utc(), git_revision(), nproc());
    println!(
        "perfbench {} seed={} seconds={} trace={} date={date} git={git} nproc={nproc}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    for m in report.metrics.iter().chain(&report.printed) {
        println!(
            "  {:<28} {:>14.4} {:<6} {}",
            m.name, m.value, m.unit, m.note
        );
    }
    for line in &report.lines {
        println!("{line}");
    }
    let summary = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        report.attempted,
        report.failed,
        metrics_json(&report.metrics)
    );
    let params: Vec<String> = report
        .params
        .iter()
        .map(|(k, v)| format!("{}: {}", json_str(k), json_str(v)))
        .collect();
    let notes: Vec<String> = report
        .metrics
        .iter()
        .chain(&report.printed)
        .map(|m| format!("{}: {}", json_str(&m.name), json_str(&m.note)))
        .collect();
    let record = format!(
        "{{\"date\": {}, \"git\": {}, \"nproc\": {nproc}, \"workload\": {}, \"seed\": {}, \
         \"seconds\": {}, \"trace\": {}, \"params\": {{{}}}, \"printed\": {}, \"notes\": {{{}}}, \"result\": {summary}}}",
        json_str(&date),
        json_str(&git),
        json_str(args.workload.name()),
        args.seed,
        args.seconds,
        args.trace,
        params.join(", "),
        metrics_json(&report.printed),
        notes.join(", "),
    );
    if let Err(e) = append_line(&out.join("runs.jsonl"), &record) {
        eprintln!("could not append the run record: {e}");
    }
    println!("{summary}");
    ExitCode::SUCCESS
}

fn run(args: &Args, work: &Path, out: &Path) -> Result<Report, String> {
    let w = args.workload;
    let window = Duration::from_secs(args.seconds);
    let mut metrics = Vec::new();
    let mut tracer = Tracer::new(Instant::now());

    // Set-up: generate, load, define SMAs, seal, spawn. An untraced run
    // repeats it and keeps the last; a traced run replays the select
    // stream in-process before the server takes the warehouse over.
    let reps = if args.trace { 1 } else { w.setup_reps() };
    let mut setup_ns = Vec::new();
    let set_up = |rep: usize| -> Result<_, String> {
        let dir = work.join(format!("warehouse-{rep}"));
        let start = Instant::now();
        let ds = Dataset::generate(w, args.seed);
        let sw = build(&ds, &dir)?;
        Ok((ds, dir, sw, start.elapsed()))
    };
    let spawn = |sw| Server::spawn(ServerConfig::default(), sw).map_err(|e| e.to_string());
    for rep in 1..reps {
        let (_, dir, sw, built) = set_up(rep)?;
        let start = Instant::now();
        let handle = spawn(sw)?;
        setup_ns.push((built + start.elapsed()).as_nanos() as u64);
        handle.shutdown().map_err(|e| e.to_string())?;
        fs::remove_dir_all(&dir).map_err(|e| e.to_string())?;
    }
    // The earlier set-ups' garbage stays out of the peak: it covers the
    // served set-up and the run, as if that set-up were the only one.
    reset_peak_rss().map_err(|e| format!("reset VmHWM: {e}"))?;
    let (ds, dir, sw, built) = set_up(0)?;
    let queries = ds.queries(args.seed);
    let replay = layers::replay_queries(&queries, replay_len(w));
    if args.trace {
        metrics.extend(layers::replay_selects(&sw, &ds, &replay, &mut tracer)?);
    }
    let start = Instant::now();
    let handle = spawn(sw)?;
    setup_ns.push((built + start.elapsed()).as_nanos() as u64);
    let addr = handle.addr();
    if args.trace {
        metrics.extend(layers::wire_probe(addr, &replay, PINGS, &mut tracer)?);
    }

    // Only `ingest_mixed` inserts: for a third of the window, then the rows a
    // traced run replays in-process.
    let n_rows = match w {
        Workload::IngestMixed => {
            (INSERT_RATE * (window / INSERT_SHARE).as_secs_f64()).ceil() as usize
                + REPLAY_INSERTS
                + 64
        }
        _ => 0,
    };
    let rows = ds.inserts(args.seed, n_rows);
    let stmts: Vec<String> = rows.iter().map(|r| ds.insert_text(r)).collect();
    let progress = Progress::new(&rows, ds.sum_col);
    let Loaded {
        sel,
        steal,
        ins,
        mixed,
    } = load(addr, w, &queries, &stmts, window, &progress, args.trace);
    handle.shutdown().map_err(|e| e.to_string())?;
    let acked = progress.acked.load(SeqCst) as usize;

    // Durability: after the graceful shutdown a reopen must hold exactly
    // the generated rows plus every acked insert.
    let disk = dir_bytes(&dir).map_err(|e| format!("size {}: {e}", dir.display()))?;
    let user: u64 = ds.rows.iter().chain(&rows[..acked]).map(user_bytes).sum();
    let (mut reopened, _) =
        StreamingWarehouse::open_with_recovery(&dir, 0).map_err(|e| format!("reopen: {e}"))?;
    let totals = ds.totals_spec();
    let expect = totals.answer(ds.rows.iter().chain(&rows[..acked]));
    let got: Vec<Vec<String>> = reopened
        .query(ds.relation, totals.bind())
        .map_err(|e| format!("query after reopen: {e}"))?
        .rows
        .iter()
        .map(|r| r.iter().map(ToString::to_string).collect())
        .collect();
    let durable = got == expect;

    let all = [&sel, &ins, &mixed];
    let attempted = all.iter().map(|r| r.attempted).sum::<u64>() + 1;
    let answered_wrongly = all.iter().map(|r| r.failed).sum::<u64>();
    let failed = answered_wrongly + u64::from(!durable);
    let mut printed = vec![
        Metric::new(
            "error_rate",
            failed as f64 / attempted as f64,
            "ratio",
            format!("{failed} of {attempted} failed: Busy, Error, timeout or wrong answer"),
        ),
        Metric::new(
            "host.steal_pct",
            100.0 * steal,
            "%",
            "CPU time the hypervisor took from this host during the timed window",
        ),
    ];
    let mut lines = vec![
        format!(
            "oracle: {} ({} select and {} insert answers checked)",
            verdict(answered_wrongly == 0),
            sel.attempted + mixed.attempted,
            ins.attempted
        ),
        format!(
            "durability: {} (reopened count(*), sum({}) = {got:?}, expected {expect:?} \
             from {} rows + {acked} acked inserts)",
            verdict(durable),
            ds.schema.column(ds.sum_col).name,
            ds.rows.len()
        ),
    ];
    lines.extend(
        all.iter()
            .flat_map(|r| &r.failures)
            .map(|f| format!("failure: {f}")),
    );
    if ins.attempted > 0 {
        printed.push(percentile_metric(
            "mixed.select_p50_us",
            &mixed.samples,
            0.50,
        ));
        printed.push(percentile_metric(
            "mixed.select_p99_us",
            &mixed.samples,
            0.99,
        ));
    }

    if args.trace {
        let replayed = &rows[acked.min(rows.len())..(acked + REPLAY_INSERTS).min(rows.len())];
        metrics.extend(layers::replay_ingest(
            &mut reopened,
            &ds,
            replayed,
            &replay,
            &mut tracer,
        )?);
        metrics.extend(select_metrics("traced.", &sel)?);
        metrics.extend(insert_metrics("traced.", &ins));
        metrics.push(Metric::new(
            "server.busy",
            all.iter().map(|r| r.busy).sum::<u64>() as f64,
            "count",
            "Busy answers in the traced wire run",
        ));
        metrics.push(Metric::new(
            "server.errors",
            all.iter().map(|r| r.errors).sum::<u64>() as f64,
            "count",
            "Error answers in the traced wire run",
        ));
        metrics.push(Metric::new(
            "loadgen.late_ms",
            ins.late_max_ns as f64 / 1e6,
            "ms",
            "most the open-loop inserter fell behind its schedule",
        ));
        for rec in [sel, ins, mixed] {
            if let Some(t) = rec.tracer {
                tracer.absorb(t);
            }
        }
        let spans = out.join(format!("spans-{}.tsv", w.name()));
        tracer
            .write_tsv(&spans)
            .map_err(|e| format!("write {}: {e}", spans.display()))?;
        lines.push(format!(
            "spans: {} written to {}",
            tracer.spans.len(),
            spans.display()
        ));
    } else {
        let each: Vec<String> = setup_ns
            .iter()
            .map(|ns| format!("{:.4}", *ns as f64 / 1e9))
            .collect();
        metrics.push(Metric::new(
            "setup_s",
            median(&mut setup_ns) / 1e9,
            "s",
            format!("median of {reps} set-ups: {}", each.join(" ")),
        ));
        metrics.extend(select_metrics("", &sel)?);
        metrics.push(Metric::new(
            "peak_rss_mb",
            peak_rss_kb()? as f64 / 1024.0,
            "MB",
            "VmHWM of the whole process from the served set-up on",
        ));
        metrics.push(Metric::new(
            "disk_bytes_per_user_byte",
            disk as f64 / user as f64,
            "ratio",
            format!("{disk} bytes on disk after shutdown / {user} user bytes"),
        ));
        if ins.attempted > 0 {
            printed.extend(insert_metrics("", &ins));
            printed.push(Metric::new(
                "loadgen.late_ms",
                ins.late_max_ns as f64 / 1e6,
                "ms",
                "most the open-loop inserter fell behind its schedule",
            ));
        }
    }

    // An untraced run's JSON holds exactly the bounded end-to-end metrics;
    // the rest, such as the select p99 that host interference moves by
    // several times, is printed and recorded.
    if !args.trace {
        let (bounded, rest) = metrics
            .into_iter()
            .partition(|m| END_TO_END.contains(&m.name.as_str()));
        metrics = bounded;
        printed.splice(0..0, rest);
    }
    let (flush_rows, max_segments) = w.ingest_policy();
    Ok(Report {
        metrics,
        printed,
        attempted,
        failed,
        lines,
        params: vec![
            ("relation", ds.relation.to_string()),
            ("rows", ds.rows.len().to_string()),
            ("clients", CLIENTS.to_string()),
            ("insert_rate_per_s", INSERT_RATE.to_string()),
            ("stream_len", queries.len().to_string()),
            ("flush_rows", flush_rows.to_string()),
            ("max_segments", max_segments.to_string()),
            ("setup_reps", reps.to_string()),
            ("acked_inserts", acked.to_string()),
        ],
    })
}

fn verdict(ok: bool) -> &'static str {
    if ok {
        "PASS"
    } else {
        "FAIL"
    }
}

fn replay_len(w: Workload) -> usize {
    match w {
        Workload::OlapScan => REPLAY_OLAP,
        _ => REPLAY_POINT,
    }
}

/// Loads the generated rows into a warehouse, defines the SMAs and seals
/// it into `dir` under the workload's flush and compaction policy.
fn build(ds: &Dataset, dir: &Path) -> Result<StreamingWarehouse, String> {
    let mut wh = Warehouse::new();
    wh.register(ds.load()).map_err(|e| e.to_string())?;
    for stmt in &ds.smas {
        wh.define_sma(stmt).map_err(|e| format!("{stmt}: {e}"))?;
    }
    let (flush_rows, max_segments) = ds.workload.ingest_policy();
    let mut sw = StreamingWarehouse::create(dir, wh, flush_rows).map_err(|e| e.to_string())?;
    sw.set_compaction_policy(CompactionPolicy { max_segments });
    Ok(sw)
}

/// What the load generators saw.
struct Loaded {
    /// The timed select window behind the end-to-end metrics.
    sel: Recorded,
    /// The host's steal share over that window.
    steal: f64,
    /// `ingest_mixed` only: the inserter, and the reader beside it.
    ins: Recorded,
    mixed: Recorded,
}

/// Runs the workload's load generators against the server. `ingest_mixed`
/// first sends its inserts beside one reader for a third of the window, then
/// times its selects like the other workloads, over the delta segments
/// and memtable overlay the inserts left. The timed window comes after the
/// inserts stop because a select waits out any insert's fsync under the
/// write lock, and fsync latency on a shared disk swings by an order of
/// magnitude from minute to minute; the mixed phase is printed instead.
fn load(
    addr: SocketAddr,
    w: Workload,
    queries: &[workload::Query],
    stmts: &[String],
    window: Duration,
    progress: &Progress,
    trace: bool,
) -> Loaded {
    let ingest = w == Workload::IngestMixed;
    let (mixed, ins) = if ingest {
        std::thread::scope(|s| {
            let reader = s.spawn(|| {
                wire::selects(
                    addr,
                    queries,
                    false,
                    window / INSERT_SHARE,
                    Some(progress),
                    trace,
                )
            });
            let ins = wire::inserts(
                addr,
                stmts,
                INSERT_RATE,
                window / INSERT_SHARE,
                progress,
                trace,
            );
            (reader.join().expect("reader panicked"), ins)
        })
    } else {
        (Recorded::default(), Recorded::default())
    };
    let host = host_ticks();
    let sel = wire::selects(
        addr,
        queries,
        true,
        window,
        ingest.then_some(progress),
        trace,
    );
    let (all, steal) = match (host, host_ticks()) {
        (Some((t0, s0)), Some((t1, s1))) if t1 > t0 => (t1 - t0, s1 - s0),
        _ => (1, 0),
    };
    Loaded {
        sel,
        steal: steal as f64 / all as f64,
        ins,
        mixed,
    }
}

/// `select_qps`, `select_p50_us`, `select_cpu_us` (process CPU time per
/// select) and the window's select p99, named with `prefix`.
///
/// The client goes round the same stream pass after pass, so each select
/// of the stream is timed once a pass; its cost is taken as its median over
/// the passes. Other tenants of the host stall a few selects of a pass by
/// milliseconds: a median per select leaves those stalls out, where a sum
/// over the pass would carry them. `select_qps` is the stream's length
/// over the sum of those medians, `select_p50_us` their median and
/// `select_cpu_us` their mean CPU time. The p99 keeps the stalls.
fn select_metrics(prefix: &str, sel: &Recorded) -> Result<Vec<Metric>, String> {
    let passes = sel.by_query.iter().map(Vec::len).min().unwrap_or(0);
    if passes == 0 {
        return Err(format!(
            "{:.1} s held no full pass through the query stream; give the run more --seconds",
            sel.window.as_secs_f64()
        ));
    }
    let per_select = |f: fn(&(u64, u64)) -> u64| -> Vec<u64> {
        sel.by_query
            .iter()
            .map(|timed| median(&mut timed.iter().map(f).collect::<Vec<_>>()) as u64)
            .collect()
    };
    let mut wall = per_select(|t| t.0);
    let cpu = per_select(|t| t.1);
    let n = sel.by_query.len();
    let wall_ns = wall.iter().sum::<u64>() as f64;
    let note = format!(
        "medians per select over {passes}+ passes of a {n}-select stream, n={}",
        sel.samples.len()
    );
    let out = vec![
        Metric::new(
            "select_qps",
            n as f64 * 1e9 / wall_ns,
            "1/s",
            format!("{note} in {:.1} s", sel.window.as_secs_f64()),
        ),
        Metric::new(
            "select_p50_us",
            median(&mut wall) / 1e3,
            "us",
            format!("median of the {note}"),
        ),
        percentile_metric("select_p99_us", &sel.samples, 0.99),
        Metric::new(
            "select_cpu_us",
            cpu.iter().sum::<u64>() as f64 / 1e3 / n as f64,
            "us",
            format!("mean of the {note}"),
        ),
    ];
    Ok(renamed(prefix, out))
}

/// The insert latency percentiles and acked inserts per second, named
/// with `prefix`; zeros for a workload that sends no inserts.
fn insert_metrics(prefix: &str, ins: &Recorded) -> Vec<Metric> {
    let mut out = if ins.samples.is_empty() {
        ["insert_p50_us", "insert_p99_us"]
            .iter()
            .map(|n| Metric::new(n, 0.0, "us", "no inserts in this workload"))
            .collect()
    } else {
        vec![
            percentile_metric("insert_p50_us", &ins.samples, 0.50),
            percentile_metric("insert_p99_us", &ins.samples, 0.99),
        ]
    };
    let secs = ins.window.as_secs_f64();
    out.push(Metric::new(
        "insert_acked_per_s",
        if secs > 0.0 {
            ins.samples.len() as f64 / secs
        } else {
            0.0
        },
        "1/s",
        format!("{} acked in {secs:.3} s", ins.samples.len()),
    ));
    renamed(prefix, out)
}

fn renamed(prefix: &str, mut metrics: Vec<Metric>) -> Vec<Metric> {
    for m in &mut metrics {
        m.name = format!("{prefix}{}", m.name);
    }
    metrics
}

fn dir_bytes(dir: &Path) -> std::io::Result<u64> {
    let mut total = 0;
    for entry in fs::read_dir(dir)? {
        let meta = entry?.metadata()?;
        total += meta.len();
    }
    Ok(total)
}

fn peak_rss_kb() -> Result<u64, String> {
    let status = fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or_else(|| "no VmHWM in /proc/self/status".into())
}

/// Resets the process's VmHWM to its current resident set.
fn reset_peak_rss() -> std::io::Result<()> {
    fs::write("/proc/self/clear_refs", "5")
}

/// CPU time of every thread of this process so far, in ns.
pub fn process_cpu_ns() -> u64 {
    #[repr(C)]
    struct Timespec {
        sec: std::os::raw::c_long,
        nsec: std::os::raw::c_long,
    }
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a valid, writable `struct timespec` for the call.
    if unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) } != 0 {
        return 0;
    }
    ts.sec as u64 * 1_000_000_000 + ts.nsec as u64
}

/// All CPU ticks of the host and the stolen ones, from /proc/stat.
fn host_ticks() -> Option<(u64, u64)> {
    let stat = fs::read_to_string("/proc/stat").ok()?;
    let ticks: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .filter_map(|t| t.parse().ok())
        .collect();
    Some((ticks.iter().take(8).sum(), *ticks.get(7)?))
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn now_utc() -> String {
    let secs = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    let day = Date::from_ymd(1970, 1, 1)
        .expect("valid date")
        .add_days((secs / 86_400) as i32);
    let s = secs % 86_400;
    format!("{day}T{:02}:{:02}:{:02}Z", s / 3600, s / 60 % 60, s % 60)
}

/// The checkout's git revision, or `unknown` outside a git work tree.
/// The search for `.git` stops at the checkout root.
fn git_revision() -> String {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .unwrap_or(Path::new("."));
    let ceiling = root.parent().unwrap_or(root);
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .current_dir(root)
        .env("GIT_CEILING_DIRECTORIES", ceiling)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

fn append_line(path: &Path, line: &str) -> std::io::Result<()> {
    let mut f = fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?;
    writeln!(f, "{line}")
}

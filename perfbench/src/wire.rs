//! The load generators: one closed-loop select client and one open-loop
//! inserter, each on its own connection to the served warehouse. Every
//! answer is checked as it arrives.

use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering::SeqCst};
use std::thread;
use std::time::{Duration, Instant};

use sma_server::{Client, Response, Status};
use smadb::types::{Tuple, Value};

use crate::process_cpu_ns;
use crate::trace::Tracer;
use crate::workload::{Check, Query};

/// A request without a reply after this long counts as failed.
const TIMEOUT: Duration = Duration::from_secs(30);
/// Failure messages kept for the report.
const KEEP_FAILURES: usize = 5;

/// Shared by the inserter and a reader that checks tail queries.
pub struct Progress {
    pub sent: AtomicU64,
    pub acked: AtomicU64,
    /// `prefix[n]`: sum of `V` over the first `n` rows of the insert stream.
    prefix: Vec<i64>,
}

impl Progress {
    /// No insert sent yet; `prefix` sums column `sum_col` of `rows`.
    pub fn new(rows: &[Tuple], sum_col: usize) -> Progress {
        let mut prefix = vec![0i64];
        for row in rows {
            let v = match row[sum_col] {
                Value::Int(v) => v,
                _ => 0,
            };
            prefix.push(prefix[prefix.len() - 1] + v);
        }
        Progress {
            sent: AtomicU64::new(0),
            acked: AtomicU64::new(0),
            prefix,
        }
    }
}

enum Fail {
    Busy(String),
    Error(String),
    Transport(String),
    Wrong(String),
}

/// What one load generator saw.
#[derive(Default)]
pub struct Recorded {
    /// Latency in ns of each success in the measured window.
    pub samples: Vec<u64>,
    /// `by_query[i]`: `(latency, cpu)` in ns of each timed success of the
    /// stream's `i`-th select, one per pass. `cpu` is the CPU time of the
    /// whole process, server threads included, while it was in flight.
    pub by_query: Vec<Vec<(u64, u64)>>,
    pub attempted: u64,
    pub failed: u64,
    pub busy: u64,
    pub errors: u64,
    pub failures: Vec<String>,
    /// How far the open-loop inserter fell behind its schedule, in ns.
    pub late_max_ns: u64,
    /// From the start of the measured window to the last reply in it.
    pub window: Duration,
    pub tracer: Option<Tracer>,
}

impl Recorded {
    fn new(trace: bool, origin: Instant) -> Recorded {
        Recorded {
            tracer: trace.then(|| Tracer::new(origin)),
            ..Recorded::default()
        }
    }

    fn note(
        &mut self,
        outcome: Result<(), Fail>,
        name: &'static str,
        from: Instant,
        done: Instant,
        timed: bool,
    ) {
        self.attempted += 1;
        let msg = match outcome {
            Ok(()) => {
                if timed {
                    self.samples.push((done - from).as_nanos() as u64);
                }
                if let Some(t) = &mut self.tracer {
                    t.record(self.attempted, None, name, from, done);
                }
                return;
            }
            Err(Fail::Busy(m)) => {
                self.busy += 1;
                m
            }
            Err(Fail::Error(m)) => {
                self.errors += 1;
                m
            }
            Err(Fail::Transport(m) | Fail::Wrong(m)) => m,
        };
        self.failed += 1;
        if self.failures.len() < KEEP_FAILURES {
            self.failures.push(format!("{name}: {msg}"));
        }
    }
}

/// A connection that reconnects after a transport error.
pub struct Conn {
    addr: SocketAddr,
    client: Option<Client>,
}

impl Conn {
    pub fn new(addr: SocketAddr) -> Conn {
        Conn { addr, client: None }
    }

    pub fn request(&mut self, text: &str) -> Result<Response, String> {
        let client = match &mut self.client {
            Some(c) => c,
            None => {
                let mut c = Client::connect(self.addr).map_err(|e| format!("connect: {e}"))?;
                c.set_timeout(Some(TIMEOUT))
                    .map_err(|e| format!("set timeout: {e}"))?;
                self.client.insert(c)
            }
        };
        client.request(text).map_err(|e| {
            self.client = None;
            format!("transport: {e}")
        })
    }
}

fn status_ok(resp: &Response) -> Result<(), Fail> {
    match resp.status {
        Status::Ok | Status::Degraded => Ok(()),
        Status::Busy => Err(Fail::Busy(resp.info.clone())),
        other => Err(Fail::Error(format!("{other}: {}", resp.info))),
    }
}

/// Checks a select's answer. `acked_before` was read before it was sent.
fn check_select(
    resp: &Response,
    query: &Query,
    acked_before: u64,
    progress: Option<&Progress>,
) -> Result<(), Fail> {
    status_ok(resp)?;
    match &query.check {
        Check::Exact(rows) if resp.rows == *rows => Ok(()),
        Check::Exact(rows) => Err(Fail::Wrong(format!(
            "`{}` answered {:?}, expected {rows:?}",
            query.text, resp.rows
        ))),
        Check::Tail => {
            let p = progress.expect("tail queries run beside the inserter");
            let sent_after = p.sent.load(SeqCst);
            // An aggregate over no visible row may come back as no row.
            let (count, sum) = match resp.rows.first() {
                None => (0, 0),
                Some(row) => {
                    let field = |i: usize| match row.get(i).map(String::as_str) {
                        Some("NULL") => Some(0),
                        Some(v) => v.parse::<i64>().ok(),
                        None => None,
                    };
                    field(0)
                        .and_then(|c| u64::try_from(c).ok())
                        .zip(field(1))
                        .ok_or_else(|| Fail::Wrong(format!("unparsable tail answer {row:?}")))?
                }
            };
            let prefix_ok = p.prefix.get(count as usize) == Some(&sum);
            if count < acked_before || count > sent_after || !prefix_ok {
                return Err(Fail::Wrong(format!(
                    "tail answered count {count} sum {sum}; acked before {acked_before}, \
                     sent after {sent_after}"
                )));
            }
            Ok(())
        }
    }
}

/// One closed-loop select client cycling through `queries` from the start.
/// With `warm_up`, a first full pass goes untimed. Then, for `window`,
/// every select is timed, both in wall-clock and in process CPU time.
/// Every answer is checked.
pub fn selects(
    addr: SocketAddr,
    queries: &[Query],
    warm_up: bool,
    window: Duration,
    progress: Option<&Progress>,
    trace: bool,
) -> Recorded {
    let mut conn = Conn::new(addr);
    let mut ask = |query: &Query| {
        let acked_before = progress.map_or(0, |p| p.acked.load(SeqCst));
        let (from, cpu) = (Instant::now(), process_cpu_ns());
        let outcome = conn
            .request(&query.text)
            .map_err(Fail::Transport)
            .and_then(|r| check_select(&r, query, acked_before, progress));
        (outcome, from, Instant::now(), process_cpu_ns() - cpu)
    };
    let mut rec = Recorded::new(trace, Instant::now());
    if warm_up {
        for query in queries {
            let (outcome, from, done, _) = ask(query);
            rec.note(outcome, "wire.select", from, done, false);
        }
    }
    rec.by_query = vec![Vec::new(); queries.len()];
    let start = Instant::now();
    for (i, query) in queries.iter().enumerate().cycle() {
        if Instant::now() >= start + window {
            break;
        }
        let (outcome, from, done, cpu) = ask(query);
        if outcome.is_ok() {
            rec.by_query[i].push(((done - from).as_nanos() as u64, cpu));
        }
        rec.note(outcome, "wire.select", from, done, true);
        rec.window = done - start;
    }
    rec
}

/// Sleeps, then yields, until `due`: the last stretch is not left to the
/// scheduler's timer slack.
fn wait_until(due: Instant) {
    loop {
        let now = Instant::now();
        if now >= due {
            return;
        }
        let left = due - now;
        if left > Duration::from_micros(300) {
            thread::sleep(left - Duration::from_micros(200));
        } else {
            thread::yield_now();
        }
    }
}

/// One open-loop inserter sending `stmts` at `rate` per second for
/// `window`. Each insert is timed from when it was due until its ack.
pub fn inserts(
    addr: SocketAddr,
    stmts: &[String],
    rate: f64,
    window: Duration,
    progress: &Progress,
    trace: bool,
) -> Recorded {
    let start = Instant::now();
    let mut rec = Recorded::new(trace, start);
    let mut conn = Conn::new(addr);
    let mut last_done = start;
    for (i, stmt) in stmts.iter().enumerate() {
        let due = start + Duration::from_secs_f64(i as f64 / rate);
        if due >= start + window {
            break;
        }
        wait_until(due);
        let late = Instant::now() - due;
        rec.late_max_ns = rec.late_max_ns.max(late.as_nanos() as u64);
        progress.sent.fetch_add(1, SeqCst);
        let outcome = conn.request(stmt).map_err(Fail::Transport).and_then(|r| {
            status_ok(&r)?;
            if r.info.starts_with("acked seq") {
                Ok(())
            } else {
                Err(Fail::Wrong(format!("insert answered `{}`", r.info)))
            }
        });
        if outcome.is_ok() {
            progress.acked.fetch_add(1, SeqCst);
        }
        last_done = Instant::now();
        rec.note(outcome, "wire.insert", due, last_done, true);
    }
    rec.window = last_done - start;
    rec
}

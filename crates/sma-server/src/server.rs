//! The server proper: accept loop, session threads, request execution.
//!
//! One [`smadb::ingest::StreamingWarehouse`] sits behind an `RwLock`.
//! Queries run under the read lock, so any number execute concurrently
//! against one catalog epoch — a flush or compaction (write lock) can
//! never swap the SMA generation out from under an in-flight query, and
//! the epoch each response carries names the snapshot it observed.
//! Writes (insert/DDL/flush) take the write lock and serialize.
//!
//! Robustness decisions, and where they live:
//!
//! * **Admission** ([`crate::admission`]): a session gate bounds live
//!   connections, an inflight gate bounds concurrently executing
//!   queries. Both shed with `Busy` — there is no queue to grow.
//! * **Budgets**: every query gets a [`QueryBudget`] built from
//!   [`ServerConfig`] (deadline + logical-page cap). The executor
//!   checks it at bucket/page boundaries, so a runaway scan ends in a
//!   structured `Error` response, not a hung session or a starved
//!   neighbour.
//! * **Shutdown**: the `shutdown` statement (or
//!   [`ServerHandle::shutdown`]) flips one flag and wakes the accept
//!   loop, which blocks in `accept` while it has nothing else to do, with
//!   a loopback connection. The accept loop stops
//!   accepting, sessions finish the request they are on and close, and
//!   the accept thread then flushes the memtable — the drain is
//!   complete before [`ServerHandle::shutdown`] returns. Every insert
//!   acked before that is already durable: an ack is the return of
//!   `StreamingWarehouse::insert`, which syncs the WAL first.
//! * **No request left hanging**: session reads use a short timeout
//!   purely to poll the shutdown flag; a complete request frame is
//!   always answered (with `Busy`/`Error` in the worst case) before the
//!   connection closes.

use std::io::{self, Read};
use std::net::{Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, RwLock};
use std::thread::{self, JoinHandle};
use std::time::Duration;

use sma_core::{col, BucketPred};
use sma_exec::{AggSpec, AggregateQuery};
use sma_storage::{QueryBudget, Stopwatch, Table};
use sma_types::{Column, DataType, Date, Decimal, Schema, Value};
use smadb::ingest::{IngestError, StreamingWarehouse};

use crate::admission::Admission;
use crate::proto::{take_frame, write_frame, ProtoError, Response, Status};
use crate::statement::{AggAst, PredAst, Statement};

/// How long a session blocks in `read` before re-checking the shutdown
/// flag. Short enough that drain latency is invisible, long enough that
/// an idle session costs ~20 wakeups a second.
const POLL_READ_TIMEOUT: Duration = Duration::from_millis(50);

/// Accept-loop poll interval while refused connections are held and no
/// connection is pending. With none held, the loop blocks in `accept`.
const ACCEPT_POLL: Duration = Duration::from_millis(1);

/// How long starting a shutdown waits for its wake-up connection to the
/// accept loop.
const WAKE_TIMEOUT: Duration = Duration::from_secs(1);

/// How long a connection refused with `Busy` stays open for its peer to
/// read the reply and close first.
const REFUSED_LINGER: Duration = Duration::from_secs(1);

/// Refused connections held open at once; past it, the oldest closes.
const MAX_REFUSED: usize = 64;

/// Server tuning knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Address to bind (`127.0.0.1:0` picks an ephemeral port).
    pub addr: String,
    /// Maximum live sessions; connections past it get `Busy` and close.
    pub max_sessions: usize,
    /// Maximum queries executing at once; past it, `Busy`.
    pub max_inflight: usize,
    /// Per-query wall-clock deadline (`None` = unlimited).
    pub deadline: Option<Duration>,
    /// Per-query logical-page budget (`None` = unlimited).
    pub page_budget: Option<u64>,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            max_sessions: 64,
            max_inflight: 16,
            deadline: None,
            page_budget: None,
        }
    }
}

/// Server-side failure (distinct from per-request errors, which become
/// `Error` responses).
#[derive(Debug)]
pub enum ServerError {
    /// Binding or accepting failed.
    Io(io::Error),
    /// The final drain (the flush) failed.
    Ingest(IngestError),
    /// The accept thread panicked.
    AcceptThreadPanicked,
}

impl std::fmt::Display for ServerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServerError::Io(e) => write!(f, "server i/o: {e}"),
            ServerError::Ingest(e) => write!(f, "shutdown drain: {e}"),
            ServerError::AcceptThreadPanicked => write!(f, "accept thread panicked"),
        }
    }
}

impl std::error::Error for ServerError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServerError::Io(e) => Some(e),
            ServerError::Ingest(e) => Some(e),
            ServerError::AcceptThreadPanicked => None,
        }
    }
}

impl From<io::Error> for ServerError {
    fn from(e: io::Error) -> ServerError {
        ServerError::Io(e)
    }
}

/// State shared by the accept loop and every session thread.
struct Shared {
    warehouse: RwLock<StreamingWarehouse>,
    sessions: Arc<Admission>,
    inflight: Arc<Admission>,
    shutdown: AtomicBool,
    /// Where a shutdown connects to wake an accept loop blocked in
    /// `accept`: the listener's address, on loopback.
    wake: SocketAddr,
    deadline: Option<Duration>,
    page_budget: Option<u64>,
}

impl Shared {
    fn read_warehouse(&self) -> std::sync::RwLockReadGuard<'_, StreamingWarehouse> {
        self.warehouse.read().unwrap_or_else(|e| e.into_inner())
    }

    fn write_warehouse(&self) -> std::sync::RwLockWriteGuard<'_, StreamingWarehouse> {
        self.warehouse.write().unwrap_or_else(|e| e.into_inner())
    }

    fn shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::Acquire)
    }

    /// Flips the shutdown flag, then wakes the accept loop with a
    /// loopback connection it accepts and drops: while it holds no
    /// refused connection the loop blocks in `accept`, so it would not
    /// look at the flag again until some client connected.
    fn begin_shutdown(&self) {
        self.shutdown.store(true, Ordering::Release);
        // A failed connect means the loop has already returned and closed
        // the listener, or its backlog is full and it is not blocked.
        let _ = TcpStream::connect_timeout(&self.wake, WAKE_TIMEOUT);
    }
}

/// The server entry point; see [`Server::spawn`].
pub struct Server;

/// A handle to a running server.
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept: Option<JoinHandle<Result<(), ServerError>>>,
}

impl Server {
    /// Binds `config.addr`, takes ownership of `warehouse`, and spawns
    /// the accept thread. Returns once the listener is live.
    pub fn spawn(
        config: ServerConfig,
        warehouse: StreamingWarehouse,
    ) -> Result<ServerHandle, ServerError> {
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        let mut wake = addr;
        if wake.ip().is_unspecified() {
            wake.set_ip(match addr {
                SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
                SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
            });
        }
        let shared = Arc::new(Shared {
            warehouse: RwLock::new(warehouse),
            sessions: Admission::new(config.max_sessions),
            inflight: Admission::new(config.max_inflight),
            shutdown: AtomicBool::new(false),
            wake,
            deadline: config.deadline,
            page_budget: config.page_budget,
        });
        let accept_shared = Arc::clone(&shared);
        let accept = thread::spawn(move || accept_loop(listener, accept_shared));
        Ok(ServerHandle {
            addr,
            shared,
            accept: Some(accept),
        })
    }
}

impl ServerHandle {
    /// The bound address (resolves `:0` to the actual port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Whether shutdown has been initiated (by this handle or by a
    /// client's `shutdown` statement).
    pub fn is_shutting_down(&self) -> bool {
        self.shared.shutting_down()
    }

    /// Initiates graceful shutdown and blocks until the drain finishes:
    /// sessions complete their in-flight request, the memtable is
    /// flushed, and the listener is closed.
    pub fn shutdown(mut self) -> Result<(), ServerError> {
        self.shared.begin_shutdown();
        self.join_accept()
    }

    /// Blocks until the server stops on its own (a client sends
    /// `shutdown`), without initiating anything.
    pub fn wait(mut self) -> Result<(), ServerError> {
        self.join_accept()
    }

    fn join_accept(&mut self) -> Result<(), ServerError> {
        match self.accept.take() {
            Some(h) => h.join().map_err(|_| ServerError::AcceptThreadPanicked)?,
            None => Ok(()),
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        // A dropped handle still shuts the server down (best effort) so
        // tests and callers cannot leak the accept thread.
        if self.accept.is_some() {
            self.shared.begin_shutdown();
        }
        // sma-lint: allow(A3-error-swallowing) -- Drop cannot propagate; explicit shutdown() reports the join error
        let _ = self.join_accept();
    }
}

// ------------------------------------------------------------ accept loop

fn accept_loop(listener: TcpListener, shared: Arc<Shared>) -> Result<(), ServerError> {
    let mut sessions: Vec<JoinHandle<()>> = Vec::new();
    let mut refused: Vec<Refused> = Vec::new();
    let mut scratch = [0u8; 1024];
    // The listener blocks in `accept` while no refused connection is
    // held; while some are, it polls, so that they drain and close.
    let mut polling = false;
    while !shared.shutting_down() {
        refused.retain_mut(|r| r.drain(&mut scratch));
        let poll = !refused.is_empty();
        if poll != polling && listener.set_nonblocking(poll).is_ok() {
            polling = poll;
        }
        match listener.accept() {
            Ok((stream, _peer)) => {
                if shared.shutting_down() {
                    // The wake-up from `begin_shutdown`, or a client that
                    // came too late: it closes unanswered.
                    break;
                }
                sessions.retain(|h| !h.is_finished());
                let Some(permit) = shared.sessions.try_acquire() else {
                    // Session cap: answer Busy — never queue — and hold the
                    // socket until the peer closes (see `Refused`). A reply
                    // that cannot be written means the peer is already
                    // gone, and its socket just closes.
                    if let Ok(r) = Refused::reply(stream, "session limit reached") {
                        if refused.len() == MAX_REFUSED {
                            refused.remove(0);
                        }
                        refused.push(r);
                    }
                    continue;
                };
                let shared = Arc::clone(&shared);
                sessions.push(thread::spawn(move || {
                    let _permit = permit; // released when the session ends
                    session_loop(stream, &shared);
                }));
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => thread::sleep(ACCEPT_POLL),
            // sma-lint: allow(A3-error-swallowing) -- transient accept errors (EMFILE, ECONNABORTED) must not kill the accept loop; back off and retry
            Err(_) => thread::sleep(ACCEPT_POLL),
        }
    }
    // Refuse new connections from here on (listener drops at return),
    // drain the sessions, then seal the warehouse.
    drop(listener);
    for h in sessions {
        let _ = h.join();
    }
    let mut sw = shared.write_warehouse();
    sw.flush().map_err(ServerError::Ingest)?;
    if let Some(e) = sw.take_flush_error() {
        return Err(ServerError::Ingest(e));
    }
    Ok(())
}

/// A connection refused with `Busy`, held open until its peer closes or
/// [`REFUSED_LINGER`] passes. Closing at once loses the reply when the
/// peer's request already sits unread in the receive buffer: the close
/// then sends a reset, and the peer reads `ECONNRESET` instead of `Busy`.
/// So the accept loop reads each held socket dry without blocking, and
/// closes it once the peer has closed, with nothing left unread.
struct Refused {
    stream: TcpStream,
    held: Stopwatch,
}

impl Refused {
    /// Writes the `Busy` reply, ends the write side so the peer reads
    /// end-of-stream after it, and makes the socket non-blocking.
    fn reply(mut stream: TcpStream, info: &str) -> Result<Refused, ProtoError> {
        let resp = Response::status_only(Status::Busy, 0, info);
        write_frame(&mut stream, &resp.encode())?;
        stream.shutdown(Shutdown::Write).map_err(ProtoError::Io)?;
        stream.set_nonblocking(true).map_err(ProtoError::Io)?;
        Ok(Refused {
            stream,
            held: Stopwatch::start(),
        })
    }

    /// Discards whatever the peer sent, without blocking. Returns whether
    /// to keep holding the socket: `false` once the peer has closed, the
    /// socket failed, or the linger time is over.
    fn drain(&mut self, scratch: &mut [u8]) -> bool {
        if self.held.elapsed() >= REFUSED_LINGER {
            return false;
        }
        loop {
            match self.stream.read(scratch) {
                Ok(0) => return false,
                Ok(_) => {}
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return true,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                // sma-lint: allow(A3-error-swallowing) -- a failed refused socket is closed; its peer already has the reply or is gone
                Err(_) => return false,
            }
        }
    }
}

// ----------------------------------------------------------- session loop

fn session_loop(mut stream: TcpStream, shared: &Shared) {
    if stream.set_read_timeout(Some(POLL_READ_TIMEOUT)).is_err() {
        return;
    }
    // Responses are single small writes on a request/response socket:
    // without this, Nagle against the peer's delayed ACK stalls every
    // round trip by ~40 ms.
    let _ = stream.set_nodelay(true);
    let mut buf: Vec<u8> = Vec::new();
    let mut chunk = [0u8; 4096];
    loop {
        // Answer every complete frame already buffered.
        loop {
            match take_frame(&mut buf) {
                Ok(Some(frame)) => {
                    let text = String::from_utf8_lossy(&frame).into_owned();
                    let (resp, action) = handle_statement(shared, &text);
                    if write_frame(&mut stream, &resp.encode()).is_err() {
                        return;
                    }
                    match action {
                        Action::None => {}
                        Action::Shutdown => {
                            shared.begin_shutdown();
                            return;
                        }
                        Action::Close => return,
                    }
                }
                Ok(None) => break,
                Err(e) => {
                    // Oversized frame: structured refusal, then close —
                    // the stream offset is unrecoverable.
                    let resp = Response::error(0, format!("protocol: {e}"));
                    // sma-lint: allow(A3-error-swallowing) -- best-effort refusal on a connection being torn down
                    let _ = write_frame(&mut stream, &resp.encode());
                    return;
                }
            }
        }
        if shared.shutting_down() {
            // Drain point: nothing in flight, nothing buffered.
            return;
        }
        match stream.read(&mut chunk) {
            Ok(0) => return,
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut => {
            }
            // sma-lint: allow(A3-error-swallowing) -- peer I/O failure ends the session; there is nobody left to report to
            Err(_) => return,
        }
    }
}

enum Action {
    None,
    Shutdown,
    Close,
}

// ------------------------------------------------------ request execution

fn handle_statement(shared: &Shared, text: &str) -> (Response, Action) {
    if shared.shutting_down() {
        return (
            Response::status_only(Status::ShuttingDown, 0, "server is draining"),
            Action::Close,
        );
    }
    let stmt = match Statement::parse(text) {
        Ok(s) => s,
        Err(e) => {
            return (
                Response::error(0, format!("parse error: {e}")),
                Action::None,
            )
        }
    };
    match stmt {
        Statement::Ping => {
            let epoch = shared.read_warehouse().epoch();
            (
                Response::status_only(Status::Ok, epoch, "pong"),
                Action::None,
            )
        }
        Statement::Epoch => {
            let epoch = shared.read_warehouse().epoch();
            (Response::status_only(Status::Ok, epoch, ""), Action::None)
        }
        Statement::Flush => {
            let mut sw = shared.write_warehouse();
            match sw.flush() {
                Ok(()) => (
                    Response::status_only(Status::Ok, sw.epoch(), "flushed"),
                    Action::None,
                ),
                Err(e) => (
                    Response::error(sw.epoch(), format!("flush: {e}")),
                    Action::None,
                ),
            }
        }
        Statement::Shutdown => {
            let epoch = shared.read_warehouse().epoch();
            (
                Response::status_only(Status::Ok, epoch, "shutting down"),
                Action::Shutdown,
            )
        }
        Statement::CreateTable { name, columns } => {
            let schema = Arc::new(Schema::new(
                columns
                    .into_iter()
                    .map(|(n, ty)| Column::new(n, ty))
                    .collect(),
            ));
            let mut sw = shared.write_warehouse();
            match sw.register(Table::in_memory(name.clone(), schema, 1)) {
                Ok(()) => (
                    Response::status_only(Status::Ok, sw.epoch(), format!("created {name}")),
                    Action::None,
                ),
                Err(e) => (
                    Response::error(sw.epoch(), format!("create table: {e}")),
                    Action::None,
                ),
            }
        }
        Statement::DefineSma { raw } => {
            let mut sw = shared.write_warehouse();
            match sw.define_sma(&raw) {
                Ok(()) => (
                    Response::status_only(Status::Ok, sw.epoch(), "sma defined"),
                    Action::None,
                ),
                Err(e) => (
                    Response::error(sw.epoch(), format!("define sma: {e}")),
                    Action::None,
                ),
            }
        }
        Statement::Insert { relation, values } => {
            let mut sw = shared.write_warehouse();
            let epoch = sw.epoch();
            let tuple = {
                let Some(table) = sw.warehouse().table(&relation) else {
                    return (
                        Response::error(epoch, format!("unknown relation `{relation}`")),
                        Action::None,
                    );
                };
                match bind_tuple(table.schema(), &values) {
                    Ok(t) => t,
                    Err(e) => return (Response::error(epoch, e), Action::None),
                }
            };
            match sw.insert(&relation, &tuple) {
                Ok(seq) => (
                    Response::status_only(Status::Ok, epoch, format!("acked seq {seq}")),
                    Action::None,
                ),
                Err(e) => (Response::error(epoch, format!("insert: {e}")), Action::None),
            }
        }
        Statement::Select {
            aggs,
            relation,
            predicates,
            group_by,
        } => {
            // Admission: bounded concurrent execution, shed with Busy.
            let Some(_permit) = shared.inflight.try_acquire() else {
                return (
                    Response::status_only(Status::Busy, 0, "query admission limit reached"),
                    Action::None,
                );
            };
            let mut budget = QueryBudget::unbounded();
            if let Some(d) = shared.deadline {
                budget = budget.with_deadline(d);
            }
            if let Some(p) = shared.page_budget {
                budget = budget.with_page_cap(p);
            }
            let sw = shared.read_warehouse();
            let epoch = sw.epoch();
            let query = {
                let Some(table) = sw.warehouse().table(&relation) else {
                    return (
                        Response::error(epoch, format!("unknown relation `{relation}`")),
                        Action::None,
                    );
                };
                match bind_query(table.schema(), &aggs, &predicates, &group_by) {
                    Ok(q) => q,
                    Err(e) => return (Response::error(epoch, e), Action::None),
                }
            };
            match sw.query_with_budget(&relation, query, &budget) {
                Ok(result) => {
                    let status = if result.degradation.is_empty() {
                        Status::Ok
                    } else {
                        Status::Degraded
                    };
                    let rows = result
                        .rows
                        .iter()
                        .map(|row| row.iter().map(|v| v.to_string()).collect())
                        .collect();
                    (
                        Response {
                            status,
                            epoch,
                            info: format!("{:?}", result.plan_kind),
                            rows,
                        },
                        Action::None,
                    )
                }
                Err(e) => (Response::error(epoch, format!("query: {e}")), Action::None),
            }
        }
    }
}

/// Binds raw literal texts to a tuple, typed by the relation's schema.
fn bind_tuple(schema: &Arc<Schema>, values: &[String]) -> Result<Vec<Value>, String> {
    if values.len() != schema.len() {
        return Err(format!(
            "expected {} values, got {}",
            schema.len(),
            values.len()
        ));
    }
    values
        .iter()
        .zip(schema.columns())
        .map(|(raw, c)| bind_value(raw, c.ty, &c.name))
        .collect()
}

fn bind_value(raw: &str, ty: DataType, col_name: &str) -> Result<Value, String> {
    match ty {
        DataType::Int => raw
            .parse::<i64>()
            .map(Value::Int)
            .map_err(|_| format!("`{raw}` is not an int (column {col_name})")),
        DataType::Decimal => Decimal::parse(raw)
            .map(Value::Decimal)
            .map_err(|e| format!("`{raw}` is not a decimal (column {col_name}): {e}")),
        DataType::Date => Date::parse(raw)
            .map(Value::Date)
            .map_err(|e| format!("`{raw}` is not a date (column {col_name}): {e}")),
        DataType::Char => {
            let mut bytes = raw.bytes();
            match (bytes.next(), bytes.next()) {
                (Some(b), None) => Ok(Value::Char(b)),
                _ => Err(format!(
                    "`{raw}` is not a single-byte char (column {col_name})"
                )),
            }
        }
        DataType::Str => Ok(Value::Str(raw.to_string())),
    }
}

/// Binds a parsed `select` to an executable [`AggregateQuery`].
fn bind_query(
    schema: &Arc<Schema>,
    aggs: &[AggAst],
    predicates: &[PredAst],
    group_by: &[String],
) -> Result<AggregateQuery, String> {
    let col_idx = |name: &str| -> Result<usize, String> {
        schema
            .index_of(name)
            .ok_or_else(|| format!("unknown column `{name}`"))
    };
    let specs = aggs
        .iter()
        .map(|a| {
            Ok(match a {
                AggAst::CountStar => AggSpec::CountStar,
                AggAst::Min(c) => AggSpec::Min(col(col_idx(c)?)),
                AggAst::Max(c) => AggSpec::Max(col(col_idx(c)?)),
                AggAst::Sum(c) => AggSpec::Sum(col(col_idx(c)?)),
                AggAst::Avg(c) => AggSpec::Avg(col(col_idx(c)?)),
            })
        })
        .collect::<Result<Vec<_>, String>>()?;
    let mut atoms = Vec::new();
    for p in predicates {
        let idx = col_idx(&p.column)?;
        let ty = schema.column(idx).ty;
        let value = bind_value(&p.literal, ty, &p.column)?;
        atoms.push(BucketPred::Cmp {
            col: idx,
            op: p.op,
            value,
        });
    }
    let pred = match atoms.len() {
        0 => BucketPred::And(Vec::new()), // vacuously true
        1 => atoms.swap_remove(0),
        _ => BucketPred::And(atoms),
    };
    let group_by = group_by
        .iter()
        .map(|c| col_idx(c))
        .collect::<Result<Vec<_>, String>>()?;
    Ok(AggregateQuery {
        pred,
        group_by,
        specs,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Client;
    use sma_storage::test_util::scratch_path;
    use smadb::Warehouse;
    use std::time::Instant;

    /// An idle server accepts at once: 200 sequential connect + `ping` +
    /// close cycles take well under the 200 accept polls that a loop
    /// sleeping `ACCEPT_POLL` after every empty look would add. Best of
    /// three rounds, so one stall of a busy host does not decide it.
    #[test]
    fn an_idle_server_accepts_without_polling() {
        const CYCLES: u32 = 200;
        let dir = scratch_path("server-accept");
        std::fs::create_dir_all(&dir).unwrap();
        let sw = StreamingWarehouse::create(&dir, Warehouse::new(), 0).unwrap();
        let handle = Server::spawn(ServerConfig::default(), sw).unwrap();
        let fastest = (0..3)
            .map(|_| {
                let start = Instant::now();
                for i in 0..CYCLES {
                    let mut c = Client::connect(handle.addr()).unwrap();
                    c.set_timeout(Some(Duration::from_secs(30))).unwrap();
                    let r = c.request("ping").unwrap();
                    assert_eq!(r.status, Status::Ok, "cycle {i}");
                }
                start.elapsed()
            })
            .min()
            .unwrap();
        assert!(
            fastest < ACCEPT_POLL * CYCLES / 2,
            "{CYCLES} cycles took {fastest:?}"
        );
        handle.shutdown().unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

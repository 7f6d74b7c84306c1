//! The `sma-server` binary: open (or create) a streaming warehouse in
//! `--dir`, serve it over TCP, run until a client sends `shutdown`.
//!
//! ```text
//! sma-server --dir /var/lib/smadb [--addr 127.0.0.1:4480]
//!            [--max-sessions 64] [--max-inflight 16]
//!            [--deadline-ms N] [--page-budget N]
//!            [--flush-threshold ROWS]
//! ```
//!
//! Prints `listening <addr>` on stdout once the socket is live (tests
//! use this to discover the ephemeral port), and recovery statistics to
//! stderr when the directory held a previous incarnation's state.

use std::path::Path;
use std::process::ExitCode;
use std::time::Duration;

use sma_server::{Server, ServerConfig};
use smadb::ingest::StreamingWarehouse;
use smadb::warehouse::MANIFEST_FILE;
use smadb::Warehouse;

struct Args {
    dir: String,
    config: ServerConfig,
    flush_threshold: usize,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        dir: String::new(),
        config: ServerConfig::default(),
        flush_threshold: 10_000,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} requires a value"));
        match flag.as_str() {
            "--dir" => args.dir = value("--dir")?,
            "--addr" => args.config.addr = value("--addr")?,
            "--max-sessions" => args.config.max_sessions = parse_num(&value("--max-sessions")?)?,
            "--max-inflight" => args.config.max_inflight = parse_num(&value("--max-inflight")?)?,
            "--deadline-ms" => {
                args.config.deadline =
                    Some(Duration::from_millis(parse_num(&value("--deadline-ms")?)?))
            }
            "--page-budget" => args.config.page_budget = Some(parse_num(&value("--page-budget")?)?),
            "--flush-threshold" => args.flush_threshold = parse_num(&value("--flush-threshold")?)?,
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    if args.dir.is_empty() {
        return Err("--dir is required".into());
    }
    Ok(args)
}

fn parse_num<T: std::str::FromStr>(s: &str) -> Result<T, String> {
    s.parse().map_err(|_| format!("`{s}` is not a number"))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("sma-server: {e}");
            return ExitCode::FAILURE;
        }
    };

    let dir = Path::new(&args.dir);
    if let Err(e) = std::fs::create_dir_all(dir) {
        eprintln!("sma-server: cannot create {}: {e}", dir.display());
        return ExitCode::FAILURE;
    }
    let warehouse = if dir.join(MANIFEST_FILE).exists() {
        match StreamingWarehouse::open_with_recovery(dir, args.flush_threshold) {
            Ok((sw, report)) => {
                eprintln!(
                    "recovered: {} replayed, {} skipped, torn_tail={}",
                    report.replayed, report.skipped, report.torn_tail
                );
                sw
            }
            Err(e) => {
                eprintln!("sma-server: recovery failed: {e}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        match StreamingWarehouse::create(dir, Warehouse::new(), args.flush_threshold) {
            Ok(sw) => sw,
            Err(e) => {
                eprintln!("sma-server: cannot create warehouse: {e}");
                return ExitCode::FAILURE;
            }
        }
    };
    let handle = match Server::spawn(args.config, warehouse) {
        Ok(h) => h,
        Err(e) => {
            eprintln!("sma-server: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!("listening {}", handle.addr());
    match handle.wait() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("sma-server: {e}");
            ExitCode::FAILURE
        }
    }
}

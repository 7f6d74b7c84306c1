//! `kill -9` the server mid-ingest; restart; count the survivors.
//!
//! The acceptance bar: **zero acked-row loss**. Every insert the client
//! saw an `Ok` for must be present after an uncoordinated process kill
//! and a recovery restart — the WAL ack contract, end to end through
//! the real binary, the real socket, and the real filesystem.

use std::io::{BufRead, BufReader};
use std::process::{Child, Command, Stdio};
use std::time::Duration;

use sma_server::proto::Status;
use sma_server::Client;

struct ServerProc {
    child: Child,
    addr: String,
}

impl ServerProc {
    /// Spawns the real binary on an ephemeral port and waits for its
    /// `listening <addr>` line.
    fn spawn(dir: &std::path::Path) -> ServerProc {
        let mut child = Command::new(env!("CARGO_BIN_EXE_sma-server"))
            .args(["--dir", dir.to_str().unwrap(), "--addr", "127.0.0.1:0"])
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn sma-server");
        let stdout = child.stdout.take().expect("piped stdout");
        let mut line = String::new();
        BufReader::new(stdout)
            .read_line(&mut line)
            .expect("read listening line");
        let addr = line
            .strip_prefix("listening ")
            .unwrap_or_else(|| panic!("unexpected banner: {line:?}"))
            .trim()
            .to_string();
        ServerProc { child, addr }
    }

    fn client(&self) -> Client {
        let mut c = Client::connect(self.addr.as_str()).expect("connect");
        c.set_timeout(Some(Duration::from_secs(30))).unwrap();
        c
    }

    fn kill9(mut self) {
        self.child.kill().expect("kill -9");
        self.child.wait().expect("reap");
    }

    fn wait(mut self) {
        let status = self.child.wait().expect("reap");
        assert!(status.success(), "server exited with {status}");
    }
}

#[test]
fn kill_nine_mid_ingest_loses_no_acked_row() {
    let dir = std::env::temp_dir().join(format!("sma-server-kill9-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();

    // First incarnation: create a relation, ack 40 rows, die hard.
    let server = ServerProc::spawn(&dir);
    let mut c = server.client();
    let r = c.request("create table T (X int)").unwrap();
    assert_eq!(r.status, Status::Ok, "{}", r.info);
    let r = c
        .request("define sma t_cnt select count(*) from T")
        .unwrap();
    assert_eq!(r.status, Status::Ok, "{}", r.info);
    let acked = 40i64;
    for i in 0..acked {
        let r = c.request(&format!("insert into T values ({i})")).unwrap();
        assert_eq!(r.status, Status::Ok, "insert {i}: {}", r.info);
    }
    server.kill9();

    // Second incarnation over the same directory: recovery must
    // resurrect every acknowledged row — and stay fully operational.
    let server = ServerProc::spawn(&dir);
    let mut c = server.client();
    let r = c.request("select count(*), min(X), max(X) from T").unwrap();
    assert!(
        matches!(r.status, Status::Ok | Status::Degraded),
        "{:?} {}",
        r.status,
        r.info
    );
    assert_eq!(
        r.rows,
        vec![vec![
            acked.to_string(),
            "0".to_string(),
            (acked - 1).to_string()
        ]],
        "acked rows lost across kill -9"
    );
    // Still writable after recovery.
    let r = c
        .request(&format!("insert into T values ({acked})"))
        .unwrap();
    assert_eq!(r.status, Status::Ok, "{}", r.info);
    let r = c.request("select count(*) from T").unwrap();
    assert_eq!(r.rows, vec![vec![(acked + 1).to_string()]]);

    // Graceful exit this time.
    assert_eq!(c.request("shutdown").unwrap().status, Status::Ok);
    server.wait();

    // Third incarnation: the graceful drain left nothing to replay and
    // the post-recovery insert survived too.
    let server = ServerProc::spawn(&dir);
    let mut c = server.client();
    let r = c.request("select count(*) from T").unwrap();
    assert_eq!(r.rows, vec![vec![(acked + 1).to_string()]]);
    assert_eq!(c.request("shutdown").unwrap().status, Status::Ok);
    server.wait();

    std::fs::remove_dir_all(&dir).unwrap();
}

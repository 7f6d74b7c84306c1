//! Shared harness for the experiments that regenerate the paper's tables
//! and figures. See `DESIGN.md` §2 for the experiment index and
//! `EXPERIMENTS.md` for paper-vs-measured results.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod harness;
pub mod ingest;
pub mod kernels;

use sma_core::SmaSet;
use sma_exec::{run_query1, Q1Execution, Query1Config};
use sma_storage::Table;
use sma_tpcd::{generate_lineitem_table, schema::lineitem as li, Clustering, GenConfig};
use sma_types::{Date, Value};

/// Scale factor the benchmarks run at, overridable with `SMA_SF`.
/// Default 0.002 (~12 k line items) keeps `cargo bench` minutes-fast;
/// results are linear in the number of buckets (§2.4), so shapes hold.
pub fn bench_scale_factor() -> f64 {
    std::env::var("SMA_SF")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0.002)
}

/// The standard benchmark dataset: LINEITEM at [`bench_scale_factor`],
/// with the requested clustering and bucket size.
pub fn bench_table(clustering: Clustering, bucket_pages: u32) -> Table {
    let mut cfg = GenConfig::scale_factor(bench_scale_factor(), clustering);
    cfg.bucket_pages = bucket_pages;
    cfg.pool_pages = 1 << 16; // everything warm unless a bench goes cold
    generate_lineitem_table(&cfg)
}

/// Builds the Fig. 4 SMA set over `table`.
pub fn q1_smas(table: &Table) -> SmaSet {
    SmaSet::build_query1_set(table).expect("LINEITEM-shaped table")
}

/// One line of a helper command's stdout, or `"unknown"` when the
/// command is unavailable or fails — bench runs must not depend on the
/// host having `git` or `date`.
pub fn command_line(cmd: &str, args: &[&str]) -> String {
    std::process::Command::new(cmd)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

/// The checkout's `git describe --always --dirty`, which tags each
/// appended run.
pub fn git_revision() -> String {
    command_line(
        "git",
        &[
            "-C",
            concat!(env!("CARGO_MANIFEST_DIR"), "/../.."),
            "describe",
            "--always",
            "--dirty",
        ],
    )
}

/// Appends `run` to the `runs` array of the benchmark file at `path`,
/// preserving every earlier run. A missing file (or one in a format
/// without a `runs` array) starts a fresh history with this run only.
pub fn append_run(path: &str, experiment: &str, run: &str) -> std::io::Result<()> {
    const TAIL: &str = "\n  ]\n}";
    let existing = std::fs::read_to_string(path).unwrap_or_default();
    let json = match existing.rfind(TAIL) {
        Some(cut) if existing.contains("\"runs\": [") => {
            format!("{},\n{}{}\n", &existing[..cut], run, TAIL)
        }
        _ => format!("{{\n  \"experiment\": \"{experiment}\",\n  \"runs\": [\n{run}{TAIL}\n"),
    };
    std::fs::write(path, json)
}

/// Runs Query 1 with the given SMA set (or none) at `delta = 90`.
pub fn q1(table: &Table, smas: Option<&SmaSet>, cold: bool) -> Q1Execution {
    run_query1(
        table,
        smas,
        &Query1Config {
            cold,
            ..Query1Config::default()
        },
    )
    .expect("query 1 runs")
}

/// Forces approximately `fraction` of the buckets of a shipdate-sorted
/// LINEITEM table to become *ambivalent* for the Query 1 predicate, by
/// overwriting one tuple's ship date per chosen bucket with a value past
/// the cutoff (in place — dates are fixed-width, so the tuple stays put).
///
/// This is the Figure 5 dial: the x-axis "percentage of buckets that have
/// to be investigated". Returns the number of buckets perturbed. Rebuild
/// the SMAs afterwards.
pub fn dial_ambivalence(table: &mut Table, cutoff: Date, fraction: f64) -> usize {
    assert!((0.0..=1.0).contains(&fraction));
    let n = table.bucket_count();
    // Only buckets currently at-or-below the cutoff can be flipped.
    let beyond = Value::Date(cutoff.add_days(30));
    let target = (n as f64 * fraction).round() as u32;
    let mut flipped: u32 = 0;
    if target == 0 {
        return 0;
    }
    let step = (n / target).max(1);
    let mut b = 0;
    while b < n && flipped < target {
        let rows = table.scan_bucket(b).expect("bucket scans");
        // Flip only buckets that are entirely within the cutoff, so each
        // flip creates exactly one new ambivalent bucket.
        let all_within = rows
            .iter()
            .all(|(_, t)| t[li::SHIPDATE].as_date().expect("typed") <= cutoff);
        if all_within && !rows.is_empty() {
            let (tid, mut tuple) = rows[0].clone();
            tuple[li::SHIPDATE] = beyond.clone();
            table
                .update(tid, &tuple)
                .expect("fixed-width in-place update");
            flipped += 1;
        }
        b += step;
    }
    flipped as usize
}

/// Converts a `Q1Execution`'s rows into the typed [`sma_tpcd::Q1Row`]s.
pub fn to_q1_rows(run: &Q1Execution) -> Vec<sma_tpcd::Q1Row> {
    run.rows
        .iter()
        .map(|r| sma_tpcd::Q1Row {
            returnflag: r[0].as_char().expect("flag"),
            linestatus: r[1].as_char().expect("status"),
            sum_qty: r[2].as_decimal().expect("decimal"),
            sum_base_price: r[3].as_decimal().expect("decimal"),
            sum_disc_price: r[4].as_decimal().expect("decimal"),
            sum_charge: r[5].as_decimal().expect("decimal"),
            avg_qty: r[6].as_decimal().expect("decimal"),
            avg_price: r[7].as_decimal().expect("decimal"),
            avg_disc: r[8].as_decimal().expect("decimal"),
            count_order: r[9].as_int().expect("count"),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use sma_core::{BucketPred, Classification, CmpOp};
    use sma_exec::cutoff;

    /// A history file keeps every run: each append adds one after the
    /// last, nested arrays inside a run included; a file without a `runs`
    /// array starts a fresh history.
    #[test]
    fn append_run_keeps_every_earlier_run() {
        let path = sma_storage::test_util::scratch_path("append_run");
        let path = path.to_str().expect("utf-8 scratch path");
        std::fs::write(path, "{\"experiment\": \"x\", \"old\": 1}\n").expect("write");
        let run = |n: u32| {
            format!("    {{\n      \"n\": {n},\n      \"xs\": [\n        {n}\n      ]\n    }}")
        };
        for n in 0..3 {
            append_run(path, "x", &run(n)).expect("append");
        }
        let json = std::fs::read_to_string(path).expect("read");
        std::fs::remove_file(path).ok();
        let expected = format!(
            "{{\n  \"experiment\": \"x\",\n  \"runs\": [\n{},\n{},\n{}\n  ]\n}}\n",
            run(0),
            run(1),
            run(2)
        );
        assert_eq!(json, expected);
    }

    #[test]
    fn dial_hits_the_requested_fraction() {
        let mut table = bench_table(Clustering::SortedByShipdate, 1);
        let cut = cutoff(90);
        for fraction in [0.0, 0.1, 0.25, 0.4] {
            let flipped = dial_ambivalence(&mut table, cut, fraction);
            let smas = q1_smas(&table);
            let pred = BucketPred::cmp(li::SHIPDATE, CmpOp::Le, Value::Date(cut));
            let c = Classification::classify(&pred, table.bucket_count(), &smas);
            let ambiv = c.ambivalent_fraction();
            assert!(
                ambiv + 0.05 >= fraction,
                "asked {fraction}, got {ambiv} ({flipped} flipped)"
            );
        }
    }

    #[test]
    fn dialed_table_still_answers_correctly() {
        let mut table = bench_table(Clustering::SortedByShipdate, 1);
        dial_ambivalence(&mut table, cutoff(90), 0.2);
        let smas = q1_smas(&table);
        let with = q1(&table, Some(&smas), false);
        let without = q1(&table, None, false);
        assert_eq!(with.rows, without.rows);
    }
}

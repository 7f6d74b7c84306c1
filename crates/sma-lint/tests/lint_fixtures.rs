//! One known-bad fixture per per-file rule (the confinement table and the
//! lint-header check), asserting the exact findings (rule, file, line)
//! each produces, plus the inline-allow contract: a justified directive
//! downgrades, a bare or unused one is itself an error.

use sma_lint::{classify, lint_sources, AnalyzeConfig, Finding, Report, Severity, Target};

/// Lints `src` as if it lived at `rel`.
fn report(rel: &str, src: &str) -> Report {
    lint_sources(
        &[(rel.to_string(), src.to_string())],
        &AnalyzeConfig::default(),
    )
}

/// Lints `src` as if it lived at `rel` and returns `(rule, line)` pairs.
fn fire(rel: &str, src: &str) -> Vec<(&'static str, u32)> {
    report(rel, src)
        .findings
        .into_iter()
        .map(|f: Finding| {
            assert_eq!(f.file, rel, "finding carries the linted path");
            (f.rule, f.line)
        })
        .collect()
}

// --- L1: page discipline -------------------------------------------------

#[test]
fn l1_raw_page_access_outside_storage() {
    let src = "//! docs\n\
               use sma_storage::page::SlottedPage;\n\
               pub fn peek(buf: &[u8]) {\n\
               \tlet _ = SlottedPage::from_bytes(buf);\n\
               }\n";
    let got = fire("crates/sma-core/src/rogue.rs", src);
    assert_eq!(
        got,
        vec![("L1-page-discipline", 2), ("L1-page-discipline", 4)]
    );
}

#[test]
fn l1_silent_inside_sma_storage() {
    let src = "pub fn peek(buf: &[u8]) { let _ = SlottedPage::from_bytes(buf); }\n";
    assert!(fire("crates/sma-storage/src/page_util.rs", src).is_empty());
}

// --- L2: codec byte fiddling ---------------------------------------------

#[test]
fn l2_le_bytes_outside_codec_home() {
    let src = "pub fn decode(b: [u8; 4]) -> u32 { u32::from_le_bytes(b) }\n";
    let got = fire("crates/sma-exec/src/rogue.rs", src);
    assert_eq!(got, vec![("L2-codec-bytes", 1)]);
}

#[test]
fn l2_silent_inside_codec_home() {
    let src = "pub fn decode(b: [u8; 4]) -> u32 { u32::from_le_bytes(b) }\n";
    assert!(fire("crates/sma-types/src/bytes.rs", src)
        .iter()
        .all(|(rule, _)| *rule != "L2-codec-bytes"));
}

// --- D1: wall clock --------------------------------------------------------

#[test]
fn d1_instant_outside_cost_module() {
    let src = "use std::time::Instant;\npub fn now() -> Instant { Instant::now() }\n";
    let got = fire("crates/sma-exec/src/rogue.rs", src);
    assert_eq!(
        got,
        vec![
            ("D1-wall-clock", 1),
            ("D1-wall-clock", 2),
            ("D1-wall-clock", 2)
        ]
    );
}

#[test]
fn d1_silent_in_cost_module_and_test_support() {
    let src = "use std::time::Instant;\npub fn now() -> Instant { Instant::now() }\n";
    assert!(fire("crates/sma-storage/src/cost.rs", src).is_empty());
    assert!(fire("crates/sma-storage/src/test_util.rs", src).is_empty());
}

// --- D2: hash-ordered iteration -------------------------------------------

#[test]
fn d2_hashmap_in_exec_path() {
    let src = "use std::collections::HashMap;\n\
               pub fn group() -> HashMap<u8, u8> { HashMap::new() }\n";
    let got = fire("crates/sma-exec/src/rogue.rs", src);
    assert_eq!(
        got,
        vec![
            ("D2-ordered-iteration", 1),
            ("D2-ordered-iteration", 2),
            ("D2-ordered-iteration", 2)
        ]
    );
}

#[test]
fn d2_not_enforced_outside_exec_core() {
    let src = "use std::collections::HashMap;\npub fn g() -> HashMap<u8, u8> { HashMap::new() }\n";
    assert!(fire("crates/sma-tpcd/src/rogue.rs", src).is_empty());
}

// --- N1: socket confinement ----------------------------------------------

#[test]
fn n1_socket_outside_sma_server() {
    let src = "use std::net::TcpStream;\n\
               pub fn dial(addr: &str) {\n\
               \tlet _ = TcpStream::connect(addr);\n\
               }\n";
    let got = fire("crates/sma-storage/src/rogue.rs", src);
    assert_eq!(
        got,
        vec![("N1-socket-confinement", 1), ("N1-socket-confinement", 3)]
    );
}

#[test]
fn n1_listener_in_core_bin_target() {
    let src = "fn main() { let _ = std::net::TcpListener::bind(\"x\"); }\n";
    let got = fire("crates/sma-core/src/bin/rogue.rs", src);
    assert_eq!(got, vec![("N1-socket-confinement", 1)]);
}

#[test]
fn n1_silent_inside_sma_server_and_tests() {
    let src = "pub fn serve() { let _ = std::net::TcpListener::bind(\"x\"); }\n";
    assert!(fire("crates/sma-server/src/server.rs", src).is_empty());
    let test_src =
        "#[cfg(test)]\nmod tests {\n\tfn t() { let _ = std::net::TcpStream::connect(\"x\"); }\n}\n";
    assert!(fire("crates/sma-storage/src/x.rs", test_src)
        .iter()
        .all(|(rule, _)| *rule != "N1-socket-confinement"));
}

// --- N2: unbounded queues in the server ----------------------------------

#[test]
fn n2_unbounded_queue_in_sma_server() {
    let src = "use std::collections::VecDeque;\n\
               use std::sync::mpsc::channel;\n\
               pub fn q() { let _: VecDeque<u8> = VecDeque::new(); }\n";
    let got = fire("crates/sma-server/src/rogue.rs", src);
    assert_eq!(
        got,
        vec![
            ("N2-unbounded-queue", 1),
            ("N2-unbounded-queue", 2),
            ("N2-unbounded-queue", 3),
            ("N2-unbounded-queue", 3),
        ]
    );
}

#[test]
fn n2_sync_channel_and_other_crates_are_fine() {
    let src = "use std::sync::mpsc::sync_channel;\n\
               pub fn q() { let _ = sync_channel::<u8>(4); }\n";
    assert!(fire("crates/sma-server/src/bounded.rs", src).is_empty());
    let elsewhere = "pub fn q() { let _: std::collections::VecDeque<u8> = Default::default(); }\n";
    assert!(fire("crates/sma-core/src/queue.rs", elsewhere).is_empty());
}

// --- U1: lint headers --------------------------------------------------------

const PRODUCT_HEADER: &str = "#![forbid(unsafe_code)]\n\
     #![deny(missing_docs)]\n\
     #![deny(\n\
     \tclippy::unwrap_used,\n\
     \tclippy::expect_used,\n\
     \tclippy::panic,\n\
     \tclippy::todo,\n\
     \tclippy::unimplemented,\n\
     \tclippy::print_stdout,\n\
     \tclippy::print_stderr,\n\
     \tclippy::dbg_macro,\n\
     \tclippy::allow_attributes,\n\
     \tclippy::allow_attributes_without_reason\n\
     )]\n";

#[test]
fn u1_missing_crate_headers() {
    let src = "//! A crate.\npub fn f() {}\n";
    let findings = report("crates/sma-core/src/lib.rs", src).findings;
    let msgs: Vec<(&str, &str)> = findings
        .iter()
        .map(|f| (f.rule, f.message.as_str()))
        .collect();
    assert_eq!(msgs.len(), 3, "{msgs:?}");
    assert!(msgs.iter().all(|(rule, _)| *rule == "U1-crate-header"));
    assert!(msgs[0].1.contains("#![forbid(unsafe_code)]"));
    assert!(msgs[1].1.contains("#![deny(missing_docs)]"));
    assert!(msgs[2]
        .1
        .contains("clippy::unwrap_used, clippy::expect_used"));
}

#[test]
fn u1_satisfied_by_the_product_header() {
    let src = format!("//! A crate.\n{PRODUCT_HEADER}pub fn f() {{}}\n");
    assert!(fire("crates/sma-core/src/lib.rs", &src).is_empty());
    assert!(fire("src/lib.rs", &src).is_empty());
}

#[test]
fn u1_names_only_the_missing_clippy_lints() {
    let src = PRODUCT_HEADER.replace("\tclippy::panic,\n", "");
    let findings = report("crates/sma-server/src/lib.rs", &src).findings;
    assert_eq!(findings.len(), 1, "{findings:?}");
    assert_eq!(
        findings[0].message,
        "missing `#![deny(clippy::panic)]` header"
    );
}

#[test]
fn u1_harness_lib_roots_need_only_the_two_base_headers() {
    let src = "//! A harness.\n#![forbid(unsafe_code)]\n#![deny(missing_docs)]\npub fn f() {}\n";
    assert!(fire("crates/sma-bench/src/lib.rs", src).is_empty());
}

#[test]
fn u1_codec_modules_deny_indexing_and_truncating_casts() {
    let src = "//! A codec.\npub fn f() {}\n";
    for rel in [
        "crates/sma-types/src/row.rs",
        "crates/sma-storage/src/checksum.rs",
        "crates/sma-core/src/persist.rs",
    ] {
        let findings = report(rel, src).findings;
        assert_eq!(findings.len(), 1, "{rel}: {findings:?}");
        assert_eq!(
            findings[0].message,
            "missing `#![deny(clippy::indexing_slicing, clippy::cast_possible_truncation)]` header"
        );
    }
    let ok = "//! A codec.\n#![deny(clippy::indexing_slicing, clippy::cast_possible_truncation)]\n";
    assert!(fire("crates/sma-storage/src/page.rs", ok).is_empty());
    // Other modules need no codec header.
    assert!(fire("crates/sma-storage/src/pool.rs", src).is_empty());
}

#[test]
fn u1_ignores_headers_of_nested_modules() {
    let src = "//! A codec.\nmod inner {\n\
               \t#![deny(clippy::indexing_slicing, clippy::cast_possible_truncation)]\n\
               }\n";
    assert_eq!(
        fire("crates/sma-types/src/row.rs", src),
        vec![("U1-crate-header", 1)]
    );
}

// --- Allow directives --------------------------------------------------------

#[test]
fn justified_allow_downgrades_same_and_next_line() {
    let src = "pub fn f(b: [u8; 4]) -> u32 {\n\
               \t// sma-lint: allow(L2-codec-bytes) -- fixture exercises the suppression path\n\
               \tu32::from_le_bytes(b)\n\
               }\n";
    // Allowed findings stay in the report: downgraded to Warn, carrying
    // the justification, never failing the run.
    let findings = report("crates/sma-exec/src/rogue.rs", src).findings;
    assert_eq!(findings.len(), 1);
    assert_eq!(findings[0].rule, "L2-codec-bytes");
    assert_eq!(findings[0].severity, Severity::Warn);
    assert_eq!(
        findings[0].allow_reason.as_deref(),
        Some("fixture exercises the suppression path")
    );
}

#[test]
fn justified_allow_does_not_reach_two_lines_down() {
    // The directive is out of range, so the finding still fires AND the
    // allow itself is flagged stale — it suppresses nothing.
    let src = "pub fn f(b: [u8; 4]) -> u32 {\n\
               \t// sma-lint: allow(L2-codec-bytes) -- too far away to matter\n\
               \tlet c = b;\n\
               \tu32::from_le_bytes(c)\n\
               }\n";
    let got = fire("crates/sma-exec/src/rogue.rs", src);
    assert_eq!(got, vec![("W2-stale-allow", 2), ("L2-codec-bytes", 4)]);
}

#[test]
fn allow_only_suppresses_the_named_rule() {
    let src = "pub fn f(b: [u8; 4]) -> u32 {\n\
               \t// sma-lint: allow(D2-ordered-iteration) -- names the wrong rule\n\
               \tu32::from_le_bytes(b)\n\
               }\n";
    let got = fire("crates/sma-exec/src/rogue.rs", src);
    assert_eq!(got, vec![("W2-stale-allow", 2), ("L2-codec-bytes", 3)]);
}

#[test]
fn w1_bare_allow_is_rejected_and_suppresses_nothing() {
    let src = "pub fn f(b: [u8; 4]) -> u32 {\n\
               \t// sma-lint: allow(L2-codec-bytes)\n\
               \tu32::from_le_bytes(b)\n\
               }\n";
    let got = fire("crates/sma-exec/src/rogue.rs", src);
    assert_eq!(got, vec![("W1-bare-allow", 2), ("L2-codec-bytes", 3)]);
}

#[test]
fn w2_stale_justified_allow_is_an_error() {
    let src = "pub fn f(b: u32) -> u32 {\n\
               \t// sma-lint: allow(L2-codec-bytes) -- the decode below was removed\n\
               \tb\n\
               }\n";
    let got = fire("crates/sma-exec/src/rogue.rs", src);
    assert_eq!(got, vec![("W2-stale-allow", 2)]);
}

#[test]
fn one_policy_covers_analysis_rules_and_retired_rule_names() {
    // A directive naming an analysis rule or a rule that moved to clippy
    // is held to the same contract: if it suppresses nothing, it is stale.
    let src = "pub fn f() {\n\
               \t// sma-lint: allow(A3-error-swallowing) -- nothing is swallowed here\n\
               \tlet x = 1;\n\
               \t// sma-lint: allow(P2-expect) -- moved to clippy::expect_used\n\
               \tlet y = 2;\n\
               }\n";
    let got = fire("crates/sma-core/src/rogue.rs", src);
    assert_eq!(got, vec![("W2-stale-allow", 2), ("W2-stale-allow", 4)]);
}

// --- Lexer soundness: strings and comments are not code ----------------------

#[test]
fn strings_and_comments_never_fire_rules() {
    let src = "pub fn f() -> &'static str {\n\
               \t// read_page(0) in a comment\n\
               \t/* HashMap::new() */\n\
               \t\"SlottedPage and to_le_bytes in a string\"\n\
               }\n";
    assert!(fire("crates/sma-core/src/rogue.rs", src).is_empty());
}

// --- JSON report and baseline ---------------------------------------------------

#[test]
fn json_report_counts_errors() {
    let src = "pub fn f(b: [u8; 4]) -> u32 { u32::from_le_bytes(b) }\n";
    let json = sma_lint::json_report(&report("crates/sma-exec/src/rogue.rs", src));
    assert!(json.contains("\"clean\": false"));
    assert!(json.contains("\"errors\": 1"));
    assert!(json.contains("\"total\": 1"));
    let clean = sma_lint::json_report(&Report::default());
    assert!(clean.contains("\"clean\": true"));
    assert!(clean.contains("\"elapsed_ms\": 0"));
}

#[test]
fn json_report_snapshot_normalized_schema() {
    // Findings serialize as {rule, severity, file, line, func, msg} plus
    // allow_reason when an allow downgraded the finding — the exact shape
    // CI and external tooling consume. Full-output snapshot so schema
    // drift is a deliberate, reviewed change.
    let src = "pub fn f(b: [u8; 4]) -> u32 { u32::from_le_bytes(b) }\n\
               pub fn g(b: [u8; 4]) -> u32 {\n\
               \t// sma-lint: allow(L2-codec-bytes) -- snapshot exercises the allow_reason key\n\
               \tu32::from_le_bytes(b)\n\
               }\n";
    let json = sma_lint::json_report(&report("crates/sma-exec/src/rogue.rs", src));
    let msg = "`from_le_bytes` outside the codec modules — use sma_types::bytes helpers";
    let expected = format!(
        "{{\n\
         \x20 \"clean\": false,\n\
         \x20 \"errors\": 1,\n\
         \x20 \"total\": 2,\n\
         \x20 \"stats\": {{\"files\": 1, \"functions\": 2, \"edges\": 0, \"elapsed_ms\": 0}},\n\
         \x20 \"findings\": [\n\
         \x20   {{\"rule\": \"L2-codec-bytes\", \"severity\": \"error\", \"file\": \"crates/sma-exec/src/rogue.rs\", \"line\": 1, \"func\": \"\", \"msg\": \"{msg}\"}},\n\
         \x20   {{\"rule\": \"L2-codec-bytes\", \"severity\": \"warn\", \"file\": \"crates/sma-exec/src/rogue.rs\", \"line\": 4, \"func\": \"\", \"msg\": \"{msg}\", \"allow_reason\": \"snapshot exercises the allow_reason key\"}}\n\
         \x20 ]\n\
         }}\n"
    );
    assert_eq!(json, expected);
}

#[test]
fn baseline_roundtrip() {
    let f = Finding {
        func: "Pool::flush".into(),
        ..Finding::error("A1-lock-order", "crates/x/src/lib.rs", 3, "m".into())
    };
    let text = sma_lint::baseline_json(std::slice::from_ref(&f));
    let keys = sma_lint::parse_baseline(&text);
    assert!(keys.contains(&sma_lint::finding_key(&f)));
    assert_eq!(keys.len(), 1);
    assert!(sma_lint::parse_baseline("{\n  \"findings\": []\n}\n").is_empty());
}

// --- File classification ---------------------------------------------------

#[test]
fn classify_perfbench_as_a_harness_not_product_code() {
    let bench = classify("perfbench/src/wire.rs");
    assert_eq!(bench.crate_name, "perfbench");
    assert_eq!(bench.target, Target::Lib);
    assert!(!bench.product);
    assert_eq!(classify("perfbench/src/main.rs").target, Target::Bin);
    // The walls it is exempt from still hold for product code.
    let src = "use std::time::Instant;\npub fn f() -> Instant { Instant::now() }\n";
    assert!(fire("perfbench/src/trace.rs", src).is_empty());
    assert_eq!(
        fire("src/rogue.rs", src),
        vec![
            ("D1-wall-clock", 1),
            ("D1-wall-clock", 2),
            ("D1-wall-clock", 2)
        ]
    );
}

#[test]
fn classify_product_paths_keep_their_crates() {
    let lib = classify("crates/sma-exec/src/sma_gaggr.rs");
    assert_eq!(lib.crate_name, "sma-exec");
    assert_eq!(lib.target, Target::Lib);
    assert!(lib.product && lib.analyzed());
    let root = classify("src/warehouse.rs");
    assert_eq!(root.crate_name, "smadb");
    assert!(root.product);
    assert_eq!(classify("tests/chaos.rs").target, Target::Test);
    let support = classify("crates/sma-storage/src/test_util.rs");
    assert_eq!(support.target, Target::TestSupport);
    assert!(!support.analyzed());
    let harness = classify("crates/sma-bench/src/bin/paper_tables.rs");
    assert_eq!((harness.target, harness.product), (Target::Bin, false));
}

//! One known-bad fixture per rule ID, asserting the exact diagnostic
//! (rule, file, line) each produces, plus the allowlist contract:
//! a justified directive suppresses, a bare one is itself a violation.

use sma_lint::{classify, lint_source, Diagnostic};

/// Lints `src` as if it lived at `rel` and returns `(rule, line)` pairs.
fn fire(rel: &str, src: &str) -> Vec<(&'static str, u32)> {
    lint_source(rel, src)
        .into_iter()
        .map(|d: Diagnostic| {
            assert_eq!(d.file, rel, "diagnostic carries the linted path");
            (d.rule, d.line)
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

// --- L3: sma-types upward dependencies -----------------------------------

#[test]
fn l3_types_naming_upper_layer() {
    let src = "//! docs\npub fn touch(t: &sma_storage::Table) { let _ = t; }\n";
    let got = fire("crates/sma-types/src/rogue.rs", src);
    assert_eq!(got, vec![("L3-type-deps", 2)]);
}

// --- P1 / P2 / P3: panic freedom -----------------------------------------

#[test]
fn p1_unwrap_in_library_code() {
    let src = "pub fn f(x: Option<u8>) -> u8 {\n\tx.unwrap()\n}\n";
    let got = fire("crates/sma-core/src/rogue.rs", src);
    assert_eq!(got, vec![("P1-unwrap", 2)]);
}

#[test]
fn p2_expect_in_library_code() {
    let src = "pub fn f(x: Option<u8>) -> u8 {\n\tx.expect(\"present\")\n}\n";
    let got = fire("crates/sma-core/src/rogue.rs", src);
    assert_eq!(got, vec![("P2-expect", 2)]);
}

#[test]
fn p3_panic_macro_in_library_code() {
    let src = "pub fn f() {\n\tpanic!(\"boom\");\n}\npub fn g() {\n\ttodo!()\n}\n";
    let got = fire("crates/sma-core/src/rogue.rs", src);
    assert_eq!(got, vec![("P3-panic", 2), ("P3-panic", 5)]);
}

#[test]
fn panic_rules_exempt_test_modules() {
    let src = "pub fn f() {}\n\
               #[cfg(test)]\n\
               mod tests {\n\
               \t#[test]\n\
               \tfn t() { Some(1).unwrap(); panic!(\"fine in tests\"); }\n\
               }\n";
    assert!(fire("crates/sma-core/src/rogue.rs", src).is_empty());
}

#[test]
fn panic_rules_exempt_bench_and_bin_targets() {
    let src = "fn main() { Some(1).unwrap(); }\n";
    assert!(fire("crates/sma-bench/src/bin/tool.rs", src).is_empty());
    assert!(fire("benches/scan.rs", src).is_empty());
}

// --- P4: literal indexing in codec modules --------------------------------

#[test]
fn p4_literal_index_in_codec_module() {
    let src = "pub fn first(buf: &[u8]) -> u8 {\n\tbuf[0]\n}\n";
    let got = fire("crates/sma-storage/src/page.rs", src);
    assert_eq!(got, vec![("P4-literal-index", 2)]);
}

#[test]
fn p4_variable_index_is_fine() {
    let src = "pub fn at(buf: &[u8], base: usize) -> u8 {\n\tbuf[base + 1]\n}\n";
    assert!(fire("crates/sma-storage/src/page.rs", src).is_empty());
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
fn d1_silent_in_cost_module() {
    let src = "use std::time::Instant;\npub fn now() -> Instant { Instant::now() }\n";
    assert!(fire("crates/sma-storage/src/cost.rs", src).is_empty());
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

// --- fsync confinement moved to the analysis pass --------------------------

#[test]
fn fsync_confinement_is_no_longer_a_token_rule() {
    // Token rule D3 (file-path fsync confinement) was replaced by
    // A4-fsync-confinement, a call-graph proof in `--analyze`: the lexical
    // pass no longer fires on raw sync tokens anywhere.
    let src = "pub fn persist(f: &std::fs::File) -> std::io::Result<()> {\n\
               \tf.sync_all()\n\
               }\n";
    assert!(fire("src/warehouse.rs", src).is_empty());
    assert!(fire("crates/sma-storage/src/wal.rs", src).is_empty());
    assert!(sma_lint::RULES
        .iter()
        .all(|r| r.id != "D3-fsync-confinement"));
    assert!(sma_lint::RULES
        .iter()
        .any(|r| r.id == "A4-fsync-confinement"));
}

// --- U1: crate headers ------------------------------------------------------

#[test]
fn u1_missing_crate_headers() {
    let src = "//! A crate.\npub fn f() {}\n";
    let got = fire("crates/sma-core/src/lib.rs", src);
    assert_eq!(got, vec![("U1-crate-header", 1), ("U1-crate-header", 1)]);
}

#[test]
fn u1_satisfied_by_both_headers() {
    let src = "//! A crate.\n#![forbid(unsafe_code)]\n#![deny(missing_docs)]\npub fn f() {}\n";
    assert!(fire("crates/sma-core/src/lib.rs", src).is_empty());
}

// --- U2: debug output -------------------------------------------------------

#[test]
fn u2_println_in_library_code() {
    let src = "pub fn f() {\n\tprintln!(\"dbg\");\n\tdbg!(42);\n}\n";
    let got = fire("crates/sma-core/src/rogue.rs", src);
    assert_eq!(got, vec![("U2-debug-output", 2), ("U2-debug-output", 3)]);
}

// --- U3: narrowing casts in codec modules -----------------------------------

#[test]
fn u3_narrowing_cast_in_codec_module() {
    let src = "pub fn off(n: usize) -> u16 {\n\tn as u16\n}\n";
    let got = fire("crates/sma-storage/src/page.rs", src);
    assert_eq!(got, vec![("U3-narrowing-cast", 2)]);
}

#[test]
fn u3_cast_to_wide_or_alias_is_fine() {
    let src = "pub fn wide(n: u16) -> u64 {\n\tn as u64\n}\n\
               pub fn alias(n: usize) -> SlotId {\n\tn as SlotId\n}\n";
    assert!(fire("crates/sma-storage/src/page.rs", src).is_empty());
}

// --- Allow directives --------------------------------------------------------

#[test]
fn justified_allow_suppresses_same_and_next_line() {
    let src = "pub fn f(x: Option<u8>) -> u8 {\n\
               \t// sma-lint: allow(P1-unwrap) -- fixture exercises the suppression path\n\
               \tx.unwrap()\n\
               }\n";
    // Suppressed findings stay in the report: downgraded to Warn,
    // carrying the justification, never failing the run.
    let diags = lint_source("crates/sma-core/src/rogue.rs", src);
    assert_eq!(diags.len(), 1);
    assert_eq!(diags[0].rule, "P1-unwrap");
    assert_eq!(diags[0].severity, sma_lint::Severity::Warn);
    assert_eq!(
        diags[0].allow_reason.as_deref(),
        Some("fixture exercises the suppression path")
    );
}

#[test]
fn justified_allow_does_not_reach_two_lines_down() {
    // The directive is out of range, so the unwrap still fires AND the
    // allow itself is flagged stale — it suppresses nothing.
    let src = "pub fn f(x: Option<u8>) -> u8 {\n\
               \t// sma-lint: allow(P1-unwrap) -- too far away to matter\n\
               \tlet y = x;\n\
               \ty.unwrap()\n\
               }\n";
    let got = fire("crates/sma-core/src/rogue.rs", src);
    assert_eq!(got, vec![("W2-stale-allow", 2), ("P1-unwrap", 4)]);
}

#[test]
fn allow_only_suppresses_the_named_rule() {
    let src = "pub fn f(x: Option<u8>) -> u8 {\n\
               \t// sma-lint: allow(P2-expect) -- names the wrong rule\n\
               \tx.unwrap()\n\
               }\n";
    let got = fire("crates/sma-core/src/rogue.rs", src);
    assert_eq!(got, vec![("W2-stale-allow", 2), ("P1-unwrap", 3)]);
}

#[test]
fn w1_bare_allow_is_rejected_and_suppresses_nothing() {
    let src = "pub fn f(x: Option<u8>) -> u8 {\n\
               \t// sma-lint: allow(P1-unwrap)\n\
               \tx.unwrap()\n\
               }\n";
    let got = fire("crates/sma-core/src/rogue.rs", src);
    assert_eq!(got, vec![("W1-bare-allow", 2), ("P1-unwrap", 3)]);
}

#[test]
fn w2_stale_justified_allow_is_an_error() {
    let src = "pub fn f(x: Option<u8>) -> Option<u8> {\n\
               \t// sma-lint: allow(P1-unwrap) -- the unwrap below was removed\n\
               \tx\n\
               }\n";
    let got = fire("crates/sma-core/src/rogue.rs", src);
    assert_eq!(got, vec![("W2-stale-allow", 2)]);
}

#[test]
fn allows_naming_analysis_rules_are_not_lint_stale() {
    // Directives naming A1..A4 are validated by `--analyze` (which owns
    // those findings), not by the token pass.
    let src = "pub fn f() {\n\
               \t// sma-lint: allow(A3-error-swallowing) -- analyze owns this\n\
               \tlet _ = 1;\n\
               }\n";
    assert!(fire("crates/sma-core/src/rogue.rs", src).is_empty());
}

// --- Lexer soundness: strings and comments are not code ----------------------

#[test]
fn strings_and_comments_never_fire_rules() {
    let src = "pub fn f() -> &'static str {\n\
               \t// x.unwrap() in a comment\n\
               \t/* panic!(\"nope\") */\n\
               \t\"x.unwrap() and panic! in a string\"\n\
               }\n";
    assert!(fire("crates/sma-core/src/rogue.rs", src).is_empty());
}

// --- JSON report --------------------------------------------------------------

#[test]
fn json_report_counts_by_rule() {
    let src = "pub fn f(x: Option<u8>) -> u8 { x.unwrap() }\n";
    let diags = lint_source("crates/sma-core/src/rogue.rs", src);
    let json = sma_lint::json_report(&diags);
    assert!(json.contains("\"clean\": false"));
    assert!(json.contains("\"total\": 1"));
    assert!(json.contains("\"P1-unwrap\": 1"));
    let clean = sma_lint::json_report(&[]);
    assert!(clean.contains("\"clean\": true"));
}

#[test]
fn json_report_snapshot_normalized_schema() {
    // Diagnostics serialize as {rule, severity, file, line, msg} plus
    // allow_reason when an inline allow downgraded the finding — the
    // exact shape CI and external tooling consume. Full-output snapshot so
    // schema drift is a deliberate, reviewed change.
    let src = "pub fn f(x: Option<u8>) -> u8 { x.unwrap() }\n\
               pub fn g(x: Option<u8>) -> u8 {\n\
               \t// sma-lint: allow(P1-unwrap) -- snapshot exercises the allow_reason key\n\
               \tx.unwrap()\n\
               }\n";
    let diags = lint_source("crates/sma-core/src/rogue.rs", src);
    let json = sma_lint::json_report(&diags);
    let expected = "{\n\
         \x20 \"clean\": false,\n\
         \x20 \"errors\": 1,\n\
         \x20 \"total\": 2,\n\
         \x20 \"counts\": {\n\
         \x20   \"P1-unwrap\": 2\n\
         \x20 },\n\
         \x20 \"diagnostics\": [\n\
         \x20   {\"rule\": \"P1-unwrap\", \"severity\": \"error\", \"file\": \"crates/sma-core/src/rogue.rs\", \"line\": 1, \"msg\": \"`.unwrap()` in library non-test code — convert to the crate's error enum\"},\n\
         \x20   {\"rule\": \"P1-unwrap\", \"severity\": \"warn\", \"file\": \"crates/sma-core/src/rogue.rs\", \"line\": 4, \"msg\": \"`.unwrap()` in library non-test code — convert to the crate's error enum\", \"allow_reason\": \"snapshot exercises the allow_reason key\"}\n\
         \x20 ]\n\
         }\n";
    assert_eq!(json, expected);
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

// --- C1: columnar codec confinement ---------------------------------------

#[test]
fn c1_chunk_primitives_outside_the_codec_trio() {
    let src = "//! docs\n\
               use sma_storage::columnar::{is_columnar_page, read_chunk};\n\
               pub fn sniff(buf: &[u8]) -> bool {\n\
               \tis_columnar_page(buf)\n\
               }\n";
    let got = fire("crates/sma-exec/src/rogue.rs", src);
    assert_eq!(
        got,
        vec![
            ("C1-columnar-confinement", 2),
            ("C1-columnar-confinement", 2),
            ("C1-columnar-confinement", 4),
        ]
    );
}

#[test]
fn c1_marker_bytes_count_as_primitives() {
    let src = "pub fn looks_columnar(b: &[u8]) -> bool {\n\
               \tb.first() == Some(&COLUMNAR_MARKER0)\n\
               }\n";
    let got = fire("src/rogue.rs", src);
    assert_eq!(got, vec![("C1-columnar-confinement", 2)]);
}

#[test]
fn c1_silent_inside_the_codec_trio_and_tests() {
    let src = "pub fn go(buf: &[u8]) -> bool { is_columnar_page(buf) }\n";
    assert!(fire("crates/sma-storage/src/columnar.rs", src).is_empty());
    assert!(fire("crates/sma-storage/src/table.rs", src).is_empty());
    assert!(fire("crates/sma-types/src/colblock.rs", src).is_empty());
    // Tests and benches probe layouts freely.
    assert!(fire("crates/sma-storage/tests/probe.rs", src).is_empty());
    let in_test = "#[cfg(test)]\nmod tests {\n\
                   \tfn go(b: &[u8]) -> bool { super::is_columnar_page(b) }\n\
                   }\n";
    assert!(fire("crates/sma-exec/src/rogue.rs", in_test).is_empty());
}

#[test]
fn c1_columnar_codec_is_in_the_strict_index_scope() {
    // colblock.rs and columnar.rs joined CODEC_STRICT: literal indexing
    // and narrowing casts are the dangerous class there too.
    let src = "pub fn b0(buf: &[u8]) -> u8 { buf[0] }\n";
    let got = fire("crates/sma-types/src/colblock.rs", src);
    assert_eq!(got, vec![("P4-literal-index", 1)]);
    let src = "pub fn lo(v: u64) -> u16 { v as u16 }\n";
    let got = fire("crates/sma-storage/src/columnar.rs", src);
    assert_eq!(got, vec![("U3-narrowing-cast", 1)]);
}

// --- File classification ---------------------------------------------------

#[test]
fn classify_perfbench_as_a_harness_not_product_code() {
    use sma_lint::rules::Target;
    let bench = classify("perfbench/src/wire.rs");
    assert_eq!(bench.crate_name, "perfbench");
    assert_eq!(bench.target, Target::Lib);
    assert!(!bench.product);
    assert_eq!(classify("perfbench/src/main.rs").target, Target::Bin);
    // The walls it is exempt from still hold for product code.
    let src = "use std::time::Instant;\npub fn f() { println!(\"{:?}\", Instant::now()); }\n";
    assert!(fire("perfbench/src/trace.rs", src).is_empty());
    assert_eq!(
        fire("src/rogue.rs", src),
        vec![
            ("D1-wall-clock", 1),
            ("D1-wall-clock", 2),
            ("U2-debug-output", 2)
        ]
    );
}

#[test]
fn classify_product_paths_keep_their_crates() {
    use sma_lint::rules::Target;
    let lib = classify("crates/sma-exec/src/sma_gaggr.rs");
    assert_eq!(lib.crate_name, "sma-exec");
    assert_eq!(lib.target, Target::Lib);
    assert!(lib.product);
    let root = classify("src/warehouse.rs");
    assert_eq!(root.crate_name, "smadb");
    assert!(root.product);
    assert_eq!(classify("tests/chaos.rs").target, Target::Test);
    let harness = classify("crates/sma-bench/src/bin/paper_tables.rs");
    assert_eq!((harness.target, harness.product), (Target::Bin, false));
}

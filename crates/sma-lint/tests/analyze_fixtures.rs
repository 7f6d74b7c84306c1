//! Integration fixtures for the analysis passes (A1–A4): one positive and
//! one negative fixture per rule, run through [`lint_sources`] with small
//! synthetic configs the way a workspace run uses the real one. The
//! passes see product library files only, so fixtures live at paths in
//! product crates.

use sma_lint::{lint_sources, Allow, AnalyzeConfig, Finding, Severity};

fn run(cfg: &AnalyzeConfig, srcs: &[(&str, &str)]) -> Vec<Finding> {
    let sources: Vec<(String, String)> = srcs
        .iter()
        .map(|(p, s)| (p.to_string(), s.to_string()))
        .collect();
    lint_sources(&sources, cfg).findings
}

// ------------------------------------------------------------------- A1

/// A buffer-pool shaped fixture: shard guards held across a store fsync.
const A1_FSYNC_UNDER_GUARD: &str = r#"
    trait PageStore { fn sync(&mut self) -> Result<(), Error>; }
    struct FileStore { file: File }
    impl PageStore for FileStore {
        fn sync(&mut self) -> Result<(), Error> { self.file.sync_all() }
    }
    struct Shard;
    fn lock_shard(m: &Mutex<Shard>) -> MutexGuard<'_, Shard> { m.lock() }
    struct Pool { shards: Vec<Mutex<Shard>>, store: RwLock<Box<dyn PageStore>> }
    impl Pool {
        fn write_store(&self) -> RwLockWriteGuard<'_, Box<dyn PageStore>> {
            self.store.write()
        }
        pub fn flush_all(&self) -> Result<(), Error> {
            let mut guards: Vec<_> = self.shards.iter().map(lock_shard).collect();
            self.write_store().sync()
        }
    }
"#;

#[test]
fn a1_fsync_while_guard_live_fires() {
    let cfg = AnalyzeConfig::default();
    let findings = run(
        &cfg,
        &[("crates/sma-storage/src/pool.rs", A1_FSYNC_UNDER_GUARD)],
    );
    let a1: Vec<_> = findings
        .iter()
        .filter(|f| f.rule == "A1-lock-order")
        .collect();
    assert!(
        a1.iter()
            .any(|f| f.func == "Pool::flush_all" && f.message.contains("fsync")),
        "expected fsync-under-guard in Pool::flush_all, got {findings:?}"
    );
}

#[test]
fn a1_fsync_after_guard_dropped_is_clean() {
    let src = r#"
        trait PageStore { fn sync(&mut self) -> Result<(), Error>; }
        struct FileStore { file: File }
        impl PageStore for FileStore {
            fn sync(&mut self) -> Result<(), Error> { self.file.sync_all() }
        }
        struct Shard;
        fn lock_shard(m: &Mutex<Shard>) -> MutexGuard<'_, Shard> { m.lock() }
        struct Pool { shards: Vec<Mutex<Shard>>, store: RwLock<Box<dyn PageStore>> }
        impl Pool {
            fn write_store(&self) -> RwLockWriteGuard<'_, Box<dyn PageStore>> {
                self.store.write()
            }
            pub fn flush_all(&self) -> Result<(), Error> {
                {
                    let mut guards: Vec<_> = self.shards.iter().map(lock_shard).collect();
                    write_back(&mut guards);
                }
                self.write_store().sync()
            }
        }
        fn write_back(gs: &mut Vec<MutexGuard<'_, Shard>>) {}
    "#;
    let cfg = AnalyzeConfig::default();
    let findings = run(&cfg, &[("crates/sma-storage/src/pool.rs", src)]);
    assert!(
        findings.iter().all(|f| f.rule != "A1-lock-order"),
        "guard scope ends before the sync: {findings:?}"
    );
}

#[test]
fn a1_lock_order_inversion_fires_and_consistent_order_does_not() {
    let inverted = r#"
        struct A; struct B;
        struct S { a: Mutex<A>, b: Mutex<B> }
        impl S {
            fn ab(&self) { let ga = self.a.lock(); let gb = self.b.lock(); }
            fn ba(&self) { let gb = self.b.lock(); let ga = self.a.lock(); }
        }
    "#;
    let cfg = AnalyzeConfig::default();
    let findings = run(&cfg, &[("crates/sma-storage/src/locks.rs", inverted)]);
    assert!(
        findings
            .iter()
            .any(|f| f.rule == "A1-lock-order" && f.message.contains("inconsistent lock order")),
        "expected an inversion: {findings:?}"
    );

    let consistent = r#"
        struct A; struct B;
        struct S { a: Mutex<A>, b: Mutex<B> }
        impl S {
            fn ab(&self) { let ga = self.a.lock(); let gb = self.b.lock(); }
            fn ab_again(&self) { let ga = self.a.lock(); let gb = self.b.lock(); }
        }
    "#;
    let findings = run(&cfg, &[("crates/sma-storage/src/locks.rs", consistent)]);
    assert!(
        findings.iter().all(|f| f.rule != "A1-lock-order"),
        "consistent order must be clean: {findings:?}"
    );
}

#[test]
fn a1_transitive_inversion_through_calls_fires() {
    // The inner acquisition happens in a callee — only the call graph
    // sees the (A, B) vs (B, A) conflict.
    let src = r#"
        struct A; struct B;
        struct S { a: Mutex<A>, b: Mutex<B> }
        impl S {
            fn take_b(&self) { let gb = self.b.lock(); }
            fn ab(&self) { let ga = self.a.lock(); self.take_b(); }
            fn take_a(&self) { let ga = self.a.lock(); }
            fn ba(&self) { let gb = self.b.lock(); self.take_a(); }
        }
    "#;
    let cfg = AnalyzeConfig::default();
    let findings = run(&cfg, &[("crates/sma-storage/src/locks.rs", src)]);
    assert!(
        findings
            .iter()
            .any(|f| f.rule == "A1-lock-order" && f.message.contains("inconsistent lock order")),
        "expected a transitive inversion: {findings:?}"
    );
}

// ------------------------------------------------------------------- A2

fn a2_cfg() -> AnalyzeConfig {
    AnalyzeConfig {
        page_read_primitives: vec!["read_page"],
        a2_scope_crates: vec!["sma-exec"],
        ..AnalyzeConfig::default()
    }
}

const A2_UNBUDGETED: &str = r#"
    pub fn read_page(no: u32) -> Vec<u8> { Vec::new() }
    pub struct Scan;
    impl Scan {
        pub fn next(&mut self) -> Option<Vec<u8>> { Some(read_page(0)) }
    }
"#;

#[test]
fn a2_unbudgeted_page_read_fires() {
    let findings = run(&a2_cfg(), &[("crates/sma-exec/src/scan.rs", A2_UNBUDGETED)]);
    assert!(
        findings
            .iter()
            .any(|f| f.rule == "A2-budget-charging" && f.func == "Scan::next"),
        "expected A2 on Scan::next: {findings:?}"
    );
}

#[test]
fn a2_budget_field_param_and_allowlist_are_clean() {
    // A budget-typed field, a budget parameter, and an allowlisted
    // recovery function all satisfy the obligation.
    let src = r#"
        pub struct QueryBudget;
        pub fn read_page(no: u32) -> Vec<u8> { Vec::new() }
        pub struct Scan { budget: Option<QueryBudget> }
        impl Scan {
            pub fn next(&mut self) -> Option<Vec<u8>> { Some(read_page(0)) }
        }
        pub fn run(b: &QueryBudget) -> Vec<u8> { read_page(1) }
        pub fn recover() { read_page(2); }
    "#;
    let cfg = AnalyzeConfig {
        page_read_primitives: vec!["read_page"],
        a2_scope_crates: vec!["sma-exec"],
        a2_allow: vec![Allow {
            func: "recover",
            reason: "recovery rebuilds state before queries are admitted",
        }],
        ..AnalyzeConfig::default()
    };
    let findings = run(&cfg, &[("crates/sma-exec/src/scan.rs", src)]);
    let errors: Vec<_> = findings
        .iter()
        .filter(|f| f.rule == "A2-budget-charging" && f.allow_reason.is_none())
        .collect();
    assert!(errors.is_empty(), "all three forms satisfy A2: {errors:?}");
    // The allowlisted function is still reported, as a warn with reason.
    assert!(
        findings
            .iter()
            .any(|f| f.func == "recover" && f.allow_reason.is_some()),
        "allowlisted finding stays auditable: {findings:?}"
    );
}

#[test]
fn a2_combinator_over_budgeted_leaf_is_clean() {
    // An operator that only composes a budgeted leaf has no obligation of
    // its own: reachability is cut at the budgeted function.
    let src = r#"
        pub struct QueryBudget;
        pub fn read_page(no: u32) -> Vec<u8> { Vec::new() }
        pub struct Scan { budget: Option<QueryBudget> }
        impl Scan {
            pub fn next(&mut self) -> Option<Vec<u8>> { Some(read_page(0)) }
        }
        pub struct Filter { child: Scan }
        impl Filter {
            pub fn next(&mut self) -> Option<Vec<u8>> { self.child.next() }
        }
    "#;
    let findings = run(&a2_cfg(), &[("crates/sma-exec/src/scan.rs", src)]);
    assert!(
        findings.iter().all(|f| f.func != "Filter::next"),
        "combinators over budgeted leaves are clean: {findings:?}"
    );
}

// ------------------------------------------------------------------- A3

#[test]
fn a3_sinks_fire_and_inline_allow_downgrades() {
    let src = r#"
        pub fn save() -> Result<(), Error> { Ok(()) }
        pub fn caller() {
            let _ = save();
        }
        pub fn matcher() -> bool {
            match save() {
                Ok(()) => true,
                Err(_) => false,
            }
        }
        pub fn allowed() {
            // sma-lint: allow(A3-error-swallowing) -- best-effort teardown
            let _ = save();
        }
    "#;
    let findings = run(
        &AnalyzeConfig::default(),
        &[("crates/sma-core/src/sink.rs", src)],
    );
    let a3: Vec<_> = findings
        .iter()
        .filter(|f| f.rule == "A3-error-swallowing")
        .collect();
    assert!(
        a3.iter()
            .any(|f| f.func == "caller" && f.allow_reason.is_none()),
        "let _ = over a Result fires: {a3:?}"
    );
    assert!(
        a3.iter()
            .any(|f| f.func == "matcher" && f.allow_reason.is_none()),
        "Err(_) => fires: {a3:?}"
    );
    assert!(
        a3.iter()
            .any(|f| f.func == "allowed"
                && f.allow_reason.as_deref() == Some("best-effort teardown")),
        "inline allow downgrades with its reason: {a3:?}"
    );
}

#[test]
fn a3_bound_error_payloads_are_clean() {
    let src = r#"
        pub fn save() -> Result<(), Error> { Ok(()) }
        pub fn caller() -> Result<(), Error> {
            save()?;
            Ok(())
        }
        pub fn matcher() -> u32 {
            match save() {
                Ok(()) => 0,
                Err(e) => log(e),
            }
        }
        fn log(e: Error) -> u32 { 1 }
    "#;
    let findings = run(
        &AnalyzeConfig::default(),
        &[("crates/sma-core/src/sink.rs", src)],
    );
    assert!(
        findings.iter().all(|f| f.rule != "A3-error-swallowing"),
        "propagated and bound errors are clean: {findings:?}"
    );
}

// ------------------------------------------------------------------- A4

fn a4_cfg() -> AnalyzeConfig {
    AnalyzeConfig {
        a4_wrappers: vec!["sync_file"],
        a4_commit_points: vec!["commit"],
        ..AnalyzeConfig::default()
    }
}

#[test]
fn a4_raw_sync_outside_wrapper_fires() {
    let src = r#"
        pub fn sneaky(f: &File) { f.sync_all(); }
    "#;
    let findings = run(&a4_cfg(), &[("crates/sma-core/src/sink.rs", src)]);
    assert!(
        findings
            .iter()
            .any(|f| f.rule == "A4-fsync-confinement" && f.func == "sneaky"),
        "raw sync outside the approved wrappers fires: {findings:?}"
    );
}

#[test]
fn a4_wrapper_reached_only_through_commit_point_is_clean() {
    let src = r#"
        pub fn sync_file(f: &File) { f.sync_all(); }
        pub fn commit(f: &File) { sync_file(f); }
        pub fn ingest(f: &File) { commit(f); }
    "#;
    let findings = run(&a4_cfg(), &[("crates/sma-core/src/sink.rs", src)]);
    assert!(
        findings.iter().all(|f| f.rule != "A4-fsync-confinement"),
        "every path goes through the commit point: {findings:?}"
    );
}

#[test]
fn a4_wrapper_reached_around_commit_point_fires() {
    let src = r#"
        pub fn sync_file(f: &File) { f.sync_all(); }
        pub fn commit(f: &File) { sync_file(f); }
        pub fn rogue(f: &File) { sync_file(f); }
    "#;
    let findings = run(&a4_cfg(), &[("crates/sma-core/src/sink.rs", src)]);
    assert!(
        findings
            .iter()
            .any(|f| f.rule == "A4-fsync-confinement" && f.func == "rogue"),
        "a path that bypasses every commit point fires: {findings:?}"
    );
}

// ----------------------------------------------------------------- graph

#[test]
fn trait_object_dispatch_and_cross_crate_edges_feed_findings() {
    // A4 across crates: the fsync sits behind a trait object in crate `a`,
    // the rogue caller lives in crate `b` — only worst-case dispatch plus
    // cross-crate symbols connect them.
    let a = r#"
        pub trait Store { fn persist(&mut self); }
        pub struct FileStore { file: File }
        impl Store for FileStore {
            fn persist(&mut self) { sync_file(&self.file); }
        }
        pub fn sync_file(f: &File) { f.sync_all(); }
        pub fn commit(s: &mut Box<dyn Store>) { s.persist(); }
    "#;
    let b = r#"
        pub struct Engine { store: Box<dyn Store> }
        impl Engine {
            pub fn rogue(&mut self) { self.store.persist(); }
        }
    "#;
    let cfg = AnalyzeConfig {
        a4_wrappers: vec!["sync_file"],
        a4_commit_points: vec!["commit"],
        ..AnalyzeConfig::default()
    };
    let findings = run(
        &cfg,
        &[
            ("crates/sma-storage/src/store.rs", a),
            ("crates/sma-exec/src/engine.rs", b),
        ],
    );
    assert!(
        findings
            .iter()
            .any(|f| f.rule == "A4-fsync-confinement" && f.func == "Engine::rogue"),
        "cross-crate dyn dispatch must reach the wrapper: {findings:?}"
    );
}

#[test]
fn analysis_sees_product_library_files_only() {
    // The same rogue fsync in a test, a bench harness and a binary is not
    // part of the call graph.
    let src = "pub fn sneaky(f: &File) { f.sync_all(); }";
    for rel in [
        "tests/sync.rs",
        "crates/sma-bench/src/sync.rs",
        "crates/sma-server/src/main.rs",
        "crates/sma-storage/src/test_util.rs",
    ] {
        let findings = run(&a4_cfg(), &[(rel, src)]);
        assert!(findings.is_empty(), "{rel}: {findings:?}");
    }
}

#[test]
fn stale_config_allow_fires_w2() {
    let cfg = AnalyzeConfig {
        a1_allow: vec![Allow {
            func: "Ghost::gone",
            reason: "excuses nothing",
        }],
        ..AnalyzeConfig::default()
    };
    let findings = run(&cfg, &[("crates/sma-core/src/live.rs", "fn live() {}")]);
    let w2: Vec<_> = findings
        .iter()
        .filter(|f| f.rule == "W2-stale-allow" && f.severity == Severity::Error)
        .collect();
    assert_eq!(w2.len(), 1);
    assert_eq!(w2[0].file, "(analyze-config)");
    assert!(w2[0].message.contains("Ghost::gone"));
}

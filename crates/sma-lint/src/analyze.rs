//! Call-graph + dataflow analysis passes (A1–A4).
//!
//! Four rule classes run over the [`crate::graph`] call graph — properties
//! a token-level lexer cannot see because they are facts about *who calls
//! whom while holding what*:
//!
//! - **A1-lock-order** — derives each function's lock acquisitions
//!   (RwLock/Mutex/shard locks, see [`crate::graph`]), propagates them
//!   through the call graph, and rejects (a) inconsistent acquisition
//!   orders between two lock classes anywhere in the workspace and
//!   (b) any fsync or blocking socket I/O reachable while a lock guard
//!   is live.
//! - **A2-budget-charging** — every query-serving function that reaches a
//!   page-read primitive must thread a `QueryBudget` (parameter, field on
//!   its type, or constructing one) or sit on the explicit
//!   ingest/recovery allowlist. Reachability is cut at budgeted and
//!   allowlisted functions, so the obligation lands on the outermost
//!   function that drops the budget, not its whole call chain.
//! - **A3-error-swallowing** — `let _ =` over a `Result`-returning call,
//!   `Err(_) =>` match arms discarding error payloads, and `.ok();`
//!   without a consumer. Intentional sinks carry an inline
//!   `// sma-lint: allow(A3-error-swallowing) -- reason` directive (the
//!   crate-wide inline-allow policy); the reason is surfaced as
//!   `allow_reason` in the report.
//! - **A4-fsync-confinement** — replaces token rule D3 with a call-graph
//!   proof: raw `sync_all`/`sync_data` may appear only inside the
//!   approved primitive wrappers, and in the residual graph (commit
//!   points removed) no function may reach a wrapper — i.e. every
//!   durability barrier goes through a WAL/flush/compaction commit point.
//!
//! Plus **W2-stale-allow**: config allowlist entries that no longer match
//! anything are themselves errors, so the allowlist can only shrink
//! toward live code.
//!
//! The allowlist policy: every entry is `(function, reason)`; an
//! allowlisted finding is still reported (severity `warn`, with
//! `allow_reason`) so the exemption stays auditable, but does not fail
//! the run or enter the baseline diff.

use std::collections::{BTreeMap, BTreeSet};

use crate::graph::{effects, Effects, Graph};
use crate::lexer::Tok;
use crate::parse::ParsedFile;
use crate::rules::classify;
use crate::{Finding, Severity};

/// An allowlist entry: a qualified function name plus the reason the
/// exemption is sound. Reasonless entries cannot be constructed — the
/// type makes the policy structural.
#[derive(Debug, Clone)]
pub struct Allow {
    /// Qualified function (`Owner::name` or bare name).
    pub func: &'static str,
    /// Why the exemption is sound (surfaced as `allow_reason`).
    pub reason: &'static str,
}

/// Configuration for the analysis passes. Injectable so fixtures can run
/// tiny synthetic workspaces; [`AnalyzeConfig::workspace`] is the real
/// one.
#[derive(Debug, Clone, Default)]
pub struct AnalyzeConfig {
    /// Page-read primitive names (bare): a call to one of these is a
    /// direct page read for A2.
    pub page_read_primitives: Vec<&'static str>,
    /// Crates whose library code is query-serving (A2 scope).
    pub a2_scope_crates: Vec<&'static str>,
    /// A2 exemptions: ingest/recovery/DDL paths that legitimately read
    /// pages without a budget.
    pub a2_allow: Vec<Allow>,
    /// A1 exemptions: functions that deliberately hold a guard across
    /// fsync/socket I/O (each must say why that cannot deadlock/stall).
    pub a1_allow: Vec<Allow>,
    /// A4: the only functions allowed to contain raw `sync_all`/
    /// `sync_data` tokens (the durability primitive wrappers).
    pub a4_wrappers: Vec<&'static str>,
    /// A4: blessed commit points — cut from the residual graph; every
    /// legitimate path to a wrapper goes through one of these.
    pub a4_commit_points: Vec<&'static str>,
    /// A4 exemptions (rare; prefer adding a commit point).
    pub a4_allow: Vec<Allow>,
}

impl AnalyzeConfig {
    /// The workspace configuration: primitives, scopes, commit points,
    /// and the audited exemption list for the SMA codebase.
    pub fn workspace() -> AnalyzeConfig {
        AnalyzeConfig {
            page_read_primitives: vec![
                "read_page",
                "for_each_on_page",
                "scan_page_into",
                "scan_bucket",
                "with_page",
            ],
            a2_scope_crates: vec!["sma-exec", "sma-server", "smadb"],
            a2_allow: vec![
                Allow {
                    func: "Warehouse::scrub",
                    reason: "recovery scrub verifies every page by design; runs at open, never on the query path",
                },
                Allow {
                    func: "Warehouse::open_with_recovery",
                    reason: "recovery path: page reads rebuild committed state before any query is admitted",
                },
                Allow {
                    func: "Warehouse::save_to_dir",
                    reason: "bulk persistence exports every page once; DDL-time operation, not query-serving",
                },
                Allow {
                    func: "Warehouse::query",
                    reason: "documented unbudgeted convenience API for embedded use; the server path uses query_with_budget",
                },
                Allow {
                    func: "StreamingWarehouse::query",
                    reason: "documented unbudgeted convenience API; the server path uses query_with_budget",
                },
                Allow {
                    func: "StreamingWarehouse::create",
                    reason: "one-time warehouse creation seals the initial generation; runs before any query is admitted",
                },
                Allow {
                    func: "StreamingWarehouse::create_with_wal_store",
                    reason: "one-time warehouse creation seals the initial generation; runs before any query is admitted",
                },
                Allow {
                    func: "StreamingWarehouse::open_with_recovery",
                    reason: "recovery path: WAL replay and segment verification read pages to rebuild committed state before queries start",
                },
                Allow {
                    func: "seal_initial_generation",
                    reason: "create-time helper: exports the empty base generation exactly once",
                },
                Allow {
                    func: "StreamingWarehouse::define_sma",
                    reason: "DDL: building a new SMA scans the sealed segments once; administrative, not query-serving",
                },
                Allow {
                    func: "Warehouse::define_sma",
                    reason: "DDL: building a new SMA scans the table once; administrative, not query-serving",
                },
                Allow {
                    func: "Warehouse::insert",
                    reason: "ingest: appending re-reads the tail page to pack tuples and refreshes the tail SMA entry; write-path cost, not query-serving",
                },
                Allow {
                    func: "Warehouse::delete",
                    reason: "ingest: deletion locates the victim tuple and refreshes affected SMA entries; write-path cost, not query-serving",
                },
                Allow {
                    func: "Warehouse::refresh_smas",
                    reason: "maintenance: recomputing stale SMA entries rescans dirty buckets by design (the paper's §5 update discussion)",
                },
                Allow {
                    func: "Warehouse::heal",
                    reason: "maintenance: healing a damaged SMA entry rescans its bucket; administrative repair, not query-serving",
                },
                Allow {
                    func: "Warehouse::heal_all",
                    reason: "maintenance: full-set repair over heal(); administrative, not query-serving",
                },
                Allow {
                    func: "Warehouse::write_generation",
                    reason: "the one generation writer (seal, save_to_dir, flush, compaction): exporting a segment reads its page range once; checkpoint-time operation, bounded by memtable size or CompactionPolicy cadence",
                },
                Allow {
                    func: "recover_sma",
                    reason: "recovery helper: rebuilds an SMA from table pages when its image fails CRC; runs under open_with_recovery",
                },
            ],
            a1_allow: vec![],
            a4_wrappers: vec!["FileStore::sync", "sync_dir", "atomic_write_file"],
            a4_commit_points: vec![
                // WAL durability points: append-group fsync, header init,
                // post-truncate sync.
                "Wal::sync",
                "Wal::create",
                "Wal::open",
                "Wal::truncate",
                // Buffer-pool write-back barriers: flush_all and its
                // cache-dropping sibling both end in a store sync.
                "BufferPool::flush_all",
                "BufferPool::clear_cache",
                // Segment export: pages are copied into the export store
                // and synced before the manifest ever names the segment.
                "Table::export_page_range",
                // SMA image write: allocate → write pages → sync, with a
                // stream-level CRC; the sync is the image's commit.
                "save_sma",
                // Manifest-last generation commits.
                "commit_manifest",
                "Warehouse::save_to_dir",
                // The atomic SMA-image write (tmp + rename + dir sync) is
                // itself the per-file commit protocol.
                "save_sma_file",
            ],
            a4_allow: vec![],
        }
    }
}

/// Runs A1–A4 and the config-allowlist staleness check over the call
/// graph `g` built from `files`.
pub(crate) fn run(g: &Graph, files: &[ParsedFile], cfg: &AnalyzeConfig) -> Vec<Finding> {
    let mut findings = Vec::new();
    let full = effects(g, &BTreeSet::new());
    let mut used_allows: BTreeSet<&'static str> = BTreeSet::new();
    pass_a1(g, files, cfg, &full, &mut findings, &mut used_allows);
    pass_a2(g, files, cfg, &mut findings, &mut used_allows);
    pass_a3(g, files, &mut findings);
    pass_a4(g, files, cfg, &mut findings, &mut used_allows);
    stale_config_allows(cfg, &used_allows, &mut findings);
    findings
}

/// Looks up an allowlist entry for `func`, marking it used.
fn allow_for(
    allows: &[Allow],
    func: &str,
    used: &mut BTreeSet<&'static str>,
) -> Option<&'static str> {
    for a in allows {
        if a.func == func {
            used.insert(a.func);
            return Some(a.reason);
        }
    }
    None
}

/// A1: lock-order inversions and fsync/socket I/O under a live guard.
fn pass_a1(
    g: &Graph,
    files: &[ParsedFile],
    cfg: &AnalyzeConfig,
    full: &Effects,
    findings: &mut Vec<Finding>,
    used_allows: &mut BTreeSet<&'static str>,
) {
    // (outer class, inner class) → first (file, line, func) observed.
    let mut pairs: BTreeMap<(String, String), (String, u32, String)> = BTreeMap::new();

    for f in &g.fns {
        let rel = &files[f.file].rel;
        let func = f.qualified();
        let allow = allow_for(&cfg.a1_allow, &func, used_allows);
        // Deduplicate per (class, kind) within one function.
        let mut reported: BTreeSet<(String, &'static str)> = BTreeSet::new();
        for a in &f.acquires {
            // Raw fsync tokens inside the guard span.
            let toks = &files[f.file].tokens;
            for (ti, t) in toks.iter().enumerate().take(a.live_end).skip(a.tok + 1) {
                if let Tok::Ident(n) = &t.tok {
                    if (n == "sync_all" || n == "sync_data")
                        && reported.insert((a.class.clone(), "raw-fsync"))
                    {
                        let _ = ti;
                        push_a1(
                            findings,
                            rel,
                            t.line,
                            &func,
                            format!(
                                "raw fsync while the `{}` lock guard ({}) is live — write back first, drop the guard, then sync",
                                a.class, a.via
                            ),
                            allow,
                        );
                    }
                }
            }
            for c in &f.calls {
                if c.tok <= a.tok || c.tok >= a.live_end {
                    continue;
                }
                // A method invoked *on* this guard operates on the
                // synchronized object under its own lock — inherent to a
                // synchronized type, not I/O under an unrelated guard.
                if c.recv_guard.as_deref() == Some(a.class.as_str()) {
                    continue;
                }
                let reaches_fsync = c.targets.iter().any(|&t| full.reaches_fsync[t]);
                let reaches_socket = c.targets.iter().any(|&t| full.reaches_socket[t]);
                if reaches_fsync && reported.insert((a.class.clone(), "fsync")) {
                    push_a1(
                        findings,
                        rel,
                        c.line,
                        &func,
                        format!(
                            "call to `{}` reaches fsync while the `{}` lock guard ({}) is live",
                            c.name, a.class, a.via
                        ),
                        allow,
                    );
                }
                if reaches_socket && reported.insert((a.class.clone(), "socket")) {
                    push_a1(
                        findings,
                        rel,
                        c.line,
                        &func,
                        format!(
                            "call to `{}` reaches blocking socket I/O while the `{}` lock guard ({}) is live",
                            c.name, a.class, a.via
                        ),
                        allow,
                    );
                }
                // Lock-order pairs: classes acquired transitively by the
                // callee while `a` is live.
                for &t in &c.targets {
                    for inner in &full.acquires[t] {
                        if *inner != a.class {
                            pairs
                                .entry((a.class.clone(), inner.clone()))
                                .or_insert_with(|| (rel.clone(), c.line, func.clone()));
                        }
                    }
                }
            }
            // Direct nested acquisitions in the same body.
            for b in &f.acquires {
                if b.tok > a.tok && b.tok < a.live_end && b.class != a.class {
                    pairs
                        .entry((a.class.clone(), b.class.clone()))
                        .or_insert_with(|| (rel.clone(), b.line, func.clone()));
                }
            }
        }
    }

    // Inversions: both (A,B) and (B,A) observed.
    let keys: Vec<(String, String)> = pairs.keys().cloned().collect();
    let mut seen: BTreeSet<(String, String)> = BTreeSet::new();
    for (a, b) in keys {
        let rev = (b.clone(), a.clone());
        if pairs.contains_key(&rev) {
            let canon = if a < b {
                (a.clone(), b.clone())
            } else {
                rev.clone()
            };
            if !seen.insert(canon) {
                continue;
            }
            let (f1, l1, fn1) = &pairs[&(a.clone(), b.clone())];
            let (f2, l2, fn2) = &pairs[&rev];
            findings.push(Finding {
                rule: "A1-lock-order",
                severity: Severity::Error,
                file: f1.clone(),
                line: *l1,
                func: fn1.clone(),
                message: format!(
                    "inconsistent lock order: `{a}` then `{b}` here, but `{b}` then `{a}` at {f2}:{l2} (in {fn2}) — pick one order workspace-wide"
                ),
                allow_reason: None,
            });
        }
    }
}

fn push_a1(
    findings: &mut Vec<Finding>,
    file: &str,
    line: u32,
    func: &str,
    message: String,
    allow: Option<&'static str>,
) {
    findings.push(Finding {
        rule: "A1-lock-order",
        severity: if allow.is_some() {
            Severity::Warn
        } else {
            Severity::Error
        },
        file: file.to_string(),
        line,
        func: func.to_string(),
        message,
        allow_reason: allow.map(str::to_string),
    });
}

/// A2: budget-charging completeness.
fn pass_a2(
    g: &Graph,
    files: &[ParsedFile],
    cfg: &AnalyzeConfig,
    findings: &mut Vec<Finding>,
    used_allows: &mut BTreeSet<&'static str>,
) {
    let n = g.fns.len();
    let budgeted: Vec<bool> = g
        .fns
        .iter()
        .map(|f| {
            f.budget_param
                || f.budget_in_body
                || f.item
                    .owner
                    .as_deref()
                    .is_some_and(|o| g.owner_has_budget_field(o))
        })
        .collect();
    let allowed: Vec<Option<&'static str>> = g
        .fns
        .iter()
        .map(|f| allow_for(&cfg.a2_allow, &f.qualified(), used_allows))
        .collect();
    // Direct page-read call sites (by primitive name).
    let mut direct: Vec<Option<(String, u32)>> = vec![None; n];
    for (i, f) in g.fns.iter().enumerate() {
        // The primitives themselves (and their same-named overloads)
        // don't charge themselves.
        if cfg.page_read_primitives.contains(&f.item.name.as_str()) {
            continue;
        }
        for c in &f.calls {
            if cfg.page_read_primitives.contains(&c.name.as_str()) {
                direct[i] = Some((c.name.clone(), c.line));
                break;
            }
        }
    }
    // Fixpoint: unbudgeted reach, cut at budgeted/allowlisted functions.
    let mut reach: Vec<Option<(String, u32)>> = direct.clone();
    let mut changed = true;
    while changed {
        changed = false;
        for i in 0..n {
            if reach[i].is_some() {
                continue;
            }
            let mut hit: Option<(String, u32)> = None;
            for c in &g.fns[i].calls {
                for &t in &c.targets {
                    if t == i {
                        continue;
                    }
                    if reach[t].is_some() && !budgeted[t] && allowed[t].is_none() {
                        hit = Some((c.name.clone(), c.line));
                        break;
                    }
                }
                if hit.is_some() {
                    break;
                }
            }
            if hit.is_some() {
                reach[i] = hit;
                changed = true;
            }
        }
    }
    for (i, f) in g.fns.iter().enumerate() {
        let rel = &files[f.file].rel;
        let crate_name = classify(rel).crate_name;
        if !cfg.a2_scope_crates.contains(&crate_name.as_str()) {
            continue;
        }
        let Some((via, line)) = &reach[i] else {
            continue;
        };
        if budgeted[i] {
            continue;
        }
        let func = f.qualified();
        let allow = allowed[i];
        findings.push(Finding {
            rule: "A2-budget-charging",
            severity: if allow.is_some() {
                Severity::Warn
            } else {
                Severity::Error
            },
            file: rel.clone(),
            line: *line,
            func: func.clone(),
            message: format!(
                "`{func}` reaches a page-read primitive (via `{via}`) without threading a QueryBudget — add a budget parameter/field or an ingest/recovery allowlist entry"
            ),
            allow_reason: allow.map(str::to_string),
        });
    }
}

/// A3: error swallowing. Intentional sinks carry an inline allow, which
/// the crate-wide policy turns into a `Warn` with the reason attached.
fn pass_a3(g: &Graph, files: &[ParsedFile], findings: &mut Vec<Finding>) {
    // Function-name → returns-Result lookup (any candidate counts).
    let returns_result = |name: &str| -> bool {
        g.by_name(name)
            .iter()
            .any(|&i| crate::parse::ty_contains(&g.fns[i].item.ret, "Result"))
    };
    for f in &g.fns {
        let Some((start, end)) = f.item.body else {
            continue;
        };
        let rel = &files[f.file].rel;
        let toks = &files[f.file].tokens;
        let func = f.qualified();
        let mut emit = |line: u32, message: String| {
            findings.push(Finding {
                func: func.clone(),
                ..Finding::error("A3-error-swallowing", rel, line, message)
            });
        };
        let mut i = start;
        while i < end {
            match &toks[i].tok {
                // `let _ = <expr calling a Result-returning fn>;`
                Tok::Ident(k) if k == "let" => {
                    if matches!(toks.get(i + 1).map(|t| &t.tok), Some(Tok::Ident(u)) if u == "_")
                        && matches!(toks.get(i + 2).map(|t| &t.tok), Some(Tok::Punct('=')))
                    {
                        // Scan the RHS to `;` for a call to a known
                        // Result-returning function.
                        let mut j = i + 3;
                        let mut culprit: Option<String> = None;
                        while j < end && !matches!(toks[j].tok, Tok::Punct(';')) {
                            if let Tok::Ident(n) = &toks[j].tok {
                                if matches!(toks.get(j + 1).map(|t| &t.tok), Some(Tok::Punct('(')))
                                    && returns_result(n)
                                {
                                    culprit = Some(n.clone());
                                    break;
                                }
                            }
                            j += 1;
                        }
                        if let Some(n) = culprit {
                            emit(
                                toks[i].line,
                                format!(
                                    "`let _ =` discards the Result of `{n}` — handle it, propagate it, or allowlist the sink with a reason"
                                ),
                            );
                        }
                    }
                    i += 1;
                }
                // `Err(_) =>` — wildcard arm discarding the payload.
                Tok::Ident(k) if k == "Err" => {
                    if matches!(toks.get(i + 1).map(|t| &t.tok), Some(Tok::Punct('(')))
                        && matches!(toks.get(i + 2).map(|t| &t.tok), Some(Tok::Ident(u)) if u == "_")
                        && matches!(toks.get(i + 3).map(|t| &t.tok), Some(Tok::Punct(')')))
                        && matches!(toks.get(i + 4).map(|t| &t.tok), Some(Tok::Punct('=')))
                        && matches!(toks.get(i + 5).map(|t| &t.tok), Some(Tok::Punct('>')))
                    {
                        emit(
                            toks[i].line,
                            "`Err(_) =>` discards the error payload — bind it (log, wrap, or count it) or allowlist the sink with a reason"
                                .to_string(),
                        );
                    }
                    i += 1;
                }
                // `.ok();` — Result converted to Option and dropped.
                Tok::Ident(k) if k == "ok" => {
                    if i > start
                        && matches!(toks[i - 1].tok, Tok::Punct('.'))
                        && matches!(toks.get(i + 1).map(|t| &t.tok), Some(Tok::Punct('(')))
                        && matches!(toks.get(i + 2).map(|t| &t.tok), Some(Tok::Punct(')')))
                        && matches!(toks.get(i + 3).map(|t| &t.tok), Some(Tok::Punct(';')))
                    {
                        emit(
                            toks[i].line,
                            "`.ok();` silences a Result with no consumer — handle the error or allowlist the sink with a reason"
                                .to_string(),
                        );
                    }
                    i += 1;
                }
                _ => i += 1,
            }
        }
    }
}

/// A4: fsync confinement v2.
fn pass_a4(
    g: &Graph,
    files: &[ParsedFile],
    cfg: &AnalyzeConfig,
    findings: &mut Vec<Finding>,
    used_allows: &mut BTreeSet<&'static str>,
) {
    let is_wrapper = |func: &str| -> bool { cfg.a4_wrappers.contains(&func) };
    let is_commit = |func: &str| -> bool { cfg.a4_commit_points.contains(&func) };

    // Part 1: raw sync tokens only inside approved wrappers.
    for f in &g.fns {
        let func = f.qualified();
        if f.raw_sync_lines.is_empty() || is_wrapper(&func) {
            continue;
        }
        let rel = &files[f.file].rel;
        for &line in &f.raw_sync_lines {
            findings.push(Finding {
                rule: "A4-fsync-confinement",
                severity: Severity::Error,
                file: rel.clone(),
                line,
                func: func.clone(),
                message: format!(
                    "raw sync_all/sync_data in `{func}` — only the approved wrappers ({}) may fsync directly",
                    cfg.a4_wrappers.join(", ")
                ),
                allow_reason: None,
            });
        }
    }

    // Part 2: in the residual graph (commit points cut), nothing may
    // reach a wrapper.
    let n = g.fns.len();
    let wrapper_idx: Vec<bool> = g.fns.iter().map(|f| is_wrapper(&f.qualified())).collect();
    let commit_idx: Vec<bool> = g.fns.iter().map(|f| is_commit(&f.qualified())).collect();
    let mut reach: Vec<Option<(String, u32)>> = vec![None; n];
    let mut changed = true;
    while changed {
        changed = false;
        for i in 0..n {
            if reach[i].is_some() || commit_idx[i] {
                continue;
            }
            let mut hit: Option<(String, u32)> = None;
            for c in &g.fns[i].calls {
                for &t in &c.targets {
                    if t == i {
                        continue;
                    }
                    if commit_idx[t] {
                        continue; // path is blessed past this point
                    }
                    if wrapper_idx[t] || reach[t].is_some() {
                        hit = Some((c.name.clone(), c.line));
                        break;
                    }
                }
                if hit.is_some() {
                    break;
                }
            }
            if hit.is_some() {
                reach[i] = hit;
                changed = true;
            }
        }
    }
    for (i, f) in g.fns.iter().enumerate() {
        let func = f.qualified();
        if wrapper_idx[i] || commit_idx[i] {
            continue;
        }
        let Some((via, line)) = &reach[i] else {
            continue;
        };
        let allow = allow_for(&cfg.a4_allow, &func, used_allows);
        let rel = &files[f.file].rel;
        findings.push(Finding {
            rule: "A4-fsync-confinement",
            severity: if allow.is_some() {
                Severity::Warn
            } else {
                Severity::Error
            },
            file: rel.clone(),
            line: *line,
            func: func.clone(),
            message: format!(
                "`{func}` can reach a raw-fsync wrapper (via `{via}`) without passing a WAL/flush/compaction commit point — route the barrier through one"
            ),
            allow_reason: allow.map(str::to_string),
        });
    }
}

/// W2: config allowlist entries that matched no finding are stale.
fn stale_config_allows(
    cfg: &AnalyzeConfig,
    used: &BTreeSet<&'static str>,
    findings: &mut Vec<Finding>,
) {
    for (list, rule) in [
        (&cfg.a1_allow, "A1"),
        (&cfg.a2_allow, "A2"),
        (&cfg.a4_allow, "A4"),
    ] {
        for a in list {
            if !used.contains(a.func) {
                findings.push(Finding {
                    rule: "W2-stale-allow",
                    severity: Severity::Error,
                    file: "(analyze-config)".to_string(),
                    line: 0,
                    func: a.func.to_string(),
                    message: format!(
                        "{rule} allowlist entry for `{}` matches no finding — the code it excused is gone; drop the entry",
                        a.func
                    ),
                    allow_reason: None,
                });
            }
        }
    }
}

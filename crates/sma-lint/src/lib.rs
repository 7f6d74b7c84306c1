//! `sma-lint` — the architectural lint wall for the SMA workspace.
//!
//! Generic hygiene is clippy's: every product library root denies the
//! panic, debug-output and reasonless-allow lints, and every codec module
//! denies `indexing_slicing` and `cast_possible_truncation`. This std-only
//! crate checks what clippy cannot, in one pass over the workspace:
//!
//! - the lint headers themselves (`U1-crate-header`), so no crate or
//!   codec module can opt out of those clippy lints ([`rules`]);
//! - the confinement table: identifiers allowed only in some crates or
//!   files ([`rules::CONFINEMENT`]);
//! - the call-graph passes A1–A4 ([`analyze`], built on the item parser
//!   [`parse`] and the approximate call graph [`graph`]): lock order,
//!   QueryBudget threading, error swallowing and fsync confinement.
//!
//! See DESIGN.md §9 and §13 for the rules and the engine.
//!
//! Run it as `cargo run -p sma-lint [-- --json] [--baseline FILE] [root]`.
//! Exit codes: `0` no error outside the baseline, `1` new errors, `2`
//! internal error.
//!
//! Findings are suppressed only by an inline
//! `// sma-lint: allow(rule-id) -- justification` directive on the
//! finding's line or the line above; the finding then stays in the report
//! as a `warn` carrying the justification. A bare directive is itself an
//! error (`W1-bare-allow`), and so is one that suppresses nothing
//! (`W2-stale-allow`).

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod analyze;
pub mod graph;
pub mod lexer;
pub mod parse;
pub mod rules;

use std::collections::BTreeSet;
use std::fs;
use std::path::{Path, PathBuf};

pub use analyze::{Allow, AnalyzeConfig};
pub use rules::{classify, Target};

use graph::Graph;
use parse::{parse_file, ParsedFile};

/// Finding severity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Severity {
    /// Fails the run unless the finding is in the baseline.
    Error,
    /// An allowed finding: reported with its reason, never failing.
    Warn,
}

impl Severity {
    /// Lowercase label used in human and JSON output.
    pub fn label(self) -> &'static str {
        match self {
            Severity::Error => "error",
            Severity::Warn => "warn",
        }
    }
}

/// One finding at a file and line.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Stable rule ID, e.g. `L1-page-discipline`.
    pub rule: &'static str,
    /// `Error` unless an allow downgraded it to `Warn`.
    pub severity: Severity,
    /// Workspace-relative path (`(analyze-config)` for allowlist entries).
    pub file: String,
    /// 1-based line (0 for allowlist entries).
    pub line: u32,
    /// Qualified function the finding is about; empty for per-file rules.
    pub func: String,
    /// Human-readable explanation with the expected remedy.
    pub message: String,
    /// The justification when an allow downgraded the finding.
    pub allow_reason: Option<String>,
}

impl Finding {
    /// An error-severity finding outside any function.
    pub fn error(rule: &'static str, file: &str, line: u32, message: String) -> Finding {
        Finding {
            rule,
            severity: Severity::Error,
            file: file.to_string(),
            line,
            func: String::new(),
            message,
            allow_reason: None,
        }
    }
}

/// Size and wall time of one run.
#[derive(Debug, Clone, Default)]
pub struct Stats {
    /// Files checked.
    pub files: usize,
    /// Functions in the call graph.
    pub functions: usize,
    /// Call edges (deduplicated name pairs).
    pub edges: usize,
    /// Wall time of the whole run, in milliseconds.
    pub elapsed_ms: u128,
}

/// Everything one run found.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Findings sorted by file, line and rule.
    pub findings: Vec<Finding>,
    /// Run statistics.
    pub stats: Stats,
}

/// Directories never descended into.
const SKIP_DIRS: &[&str] = &[
    "target",
    ".git",
    ".github",
    // The linter's own sources and fixtures contain deliberate rule
    // violations (fixtures assert each rule fires) — linting them would
    // make the workspace permanently dirty.
    "crates/sma-lint",
];

/// Runs every check over `(workspace-relative path, source)` pairs: the
/// per-file rules on each file, A1–A4 on the product library files, then
/// the inline-allow policy.
pub fn lint_sources(sources: &[(String, String)], cfg: &AnalyzeConfig) -> Report {
    let mut findings = Vec::new();
    let mut analyzed: Vec<ParsedFile> = Vec::new();
    let mut others: Vec<ParsedFile> = Vec::new();
    for (rel, src) in sources {
        let class = classify(rel);
        let pf = parse_file(rel, src);
        findings.extend(rules::check_file(&pf, &class));
        if class.analyzed() {
            analyzed.push(pf);
        } else {
            others.push(pf);
        }
    }
    let g = Graph::build(&analyzed);
    findings.extend(analyze::run(&g, &analyzed, cfg));
    apply_allows(&mut findings, analyzed.iter().chain(&others));
    findings.sort_by(|a, b| {
        a.file
            .cmp(&b.file)
            .then(a.line.cmp(&b.line))
            .then(a.rule.cmp(b.rule))
    });
    Report {
        findings,
        stats: Stats {
            files: sources.len(),
            functions: g.fns.len(),
            edges: g.edge_names().len(),
            elapsed_ms: 0,
        },
    }
}

/// Walks `root` once and runs [`lint_sources`] over every `.rs` file
/// with the workspace configuration.
pub fn lint_workspace(root: &Path) -> Result<Report, String> {
    let started = std::time::Instant::now();
    let mut paths: Vec<PathBuf> = Vec::new();
    collect_rs(root, root, &mut paths)?;
    paths.sort();
    let mut sources: Vec<(String, String)> = Vec::new();
    for p in &paths {
        let rel = p
            .strip_prefix(root)
            .map_err(|e| format!("{}: {e}", p.display()))?
            .to_string_lossy()
            .replace('\\', "/");
        let src = fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display()))?;
        sources.push((rel, src));
    }
    let mut report = lint_sources(&sources, &AnalyzeConfig::workspace());
    report.stats.elapsed_ms = started.elapsed().as_millis();
    Ok(report)
}

/// The one inline-allow policy: a justified directive on a finding's line
/// or the line above, naming its rule, downgrades it to `Warn` with the
/// justification attached. A bare directive suppresses nothing and is
/// `W1-bare-allow`; a justified rule name that suppresses nothing is
/// `W2-stale-allow`.
fn apply_allows<'a>(findings: &mut Vec<Finding>, files: impl Iterator<Item = &'a ParsedFile>) {
    let mut extra = Vec::new();
    for pf in files {
        for a in &pf.allows {
            if !a.justified {
                extra.push(Finding::error(
                    "W1-bare-allow",
                    &pf.rel,
                    a.line,
                    format!(
                        "allow({}) without `-- justification` — bare allows are rejected and suppress nothing",
                        a.rules.join(", ")
                    ),
                ));
                continue;
            }
            for rule in &a.rules {
                let mut used = false;
                for f in findings.iter_mut().filter(|f| {
                    f.rule == rule && f.file == pf.rel && (f.line == a.line || f.line == a.line + 1)
                }) {
                    used = true;
                    f.severity = Severity::Warn;
                    f.allow_reason.get_or_insert_with(|| a.reason.clone());
                }
                if !used {
                    extra.push(Finding::error(
                        "W2-stale-allow",
                        &pf.rel,
                        a.line,
                        format!(
                            "allow({rule}) suppresses nothing — the finding it excused is gone; drop the directive"
                        ),
                    ));
                }
            }
        }
    }
    findings.extend(extra);
}

fn collect_rs(root: &Path, dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), String> {
    let rel = dir
        .strip_prefix(root)
        .map(|p| p.to_string_lossy().replace('\\', "/"))
        .unwrap_or_default();
    if SKIP_DIRS.iter().any(|s| rel == *s) {
        return Ok(());
    }
    let entries = fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| format!("{}: {e}", dir.display()))?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if name.starts_with('.') {
            continue;
        }
        let ty = entry
            .file_type()
            .map_err(|e| format!("{}: {e}", path.display()))?;
        if ty.is_dir() {
            collect_rs(root, &path, out)?;
        } else if ty.is_file() && name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Finds the workspace root: ascends from `start` until a `Cargo.toml`
/// containing `[workspace]` is found.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut cur = Some(start.to_path_buf());
    while let Some(dir) = cur {
        let manifest = dir.join("Cargo.toml");
        if let Ok(text) = fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(dir);
            }
        }
        cur = dir.parent().map(Path::to_path_buf);
    }
    None
}

/// Renders the report as JSON:
/// `{"clean","errors","total","stats":{files,functions,edges,elapsed_ms},"findings":[…]}`.
///
/// Every finding is `{rule, severity, file, line, func, msg}` plus an
/// `allow_reason` key when an allow downgraded it. `clean` means no
/// error-severity finding (allowed findings stay visible at `warn`).
///
/// Hand-rolled (std-only crate); all emitted strings are escaped.
pub fn json_report(report: &Report) -> String {
    let errors = count_errors(&report.findings);
    let st = &report.stats;
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str(&format!("  \"clean\": {},\n", errors == 0));
    s.push_str(&format!("  \"errors\": {errors},\n"));
    s.push_str(&format!("  \"total\": {},\n", report.findings.len()));
    s.push_str(&format!(
        "  \"stats\": {{\"files\": {}, \"functions\": {}, \"edges\": {}, \"elapsed_ms\": {}}},\n",
        st.files, st.functions, st.edges, st.elapsed_ms
    ));
    s.push_str("  \"findings\": [");
    for (i, f) in report.findings.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&format!(
            "\n    {{\"rule\": \"{}\", \"severity\": \"{}\", \"file\": \"{}\", \"line\": {}, \"func\": \"{}\", \"msg\": \"{}\"",
            json_escape(f.rule),
            f.severity.label(),
            json_escape(&f.file),
            f.line,
            json_escape(&f.func),
            json_escape(&f.message),
        ));
        if let Some(r) = &f.allow_reason {
            s.push_str(&format!(", \"allow_reason\": \"{}\"", json_escape(r)));
        }
        s.push('}');
    }
    if !report.findings.is_empty() {
        s.push_str("\n  ");
    }
    s.push_str("]\n}\n");
    s
}

/// Number of error-severity findings.
pub fn count_errors(findings: &[Finding]) -> usize {
    findings
        .iter()
        .filter(|f| f.severity == Severity::Error)
        .count()
}

/// Stable identity of a finding for baseline comparison: line numbers
/// churn with unrelated edits, so the key is `rule|file|func`.
pub fn finding_key(f: &Finding) -> String {
    format!("{}|{}|{}", f.rule, f.file, f.func)
}

/// Renders the committed-baseline file: the keys of every error-severity
/// finding, sorted.
pub fn baseline_json(findings: &[Finding]) -> String {
    let keys: BTreeSet<String> = findings
        .iter()
        .filter(|f| f.severity == Severity::Error)
        .map(finding_key)
        .collect();
    let mut s = String::from("{\n  \"findings\": [");
    for (i, k) in keys.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&format!("\n    \"{}\"", json_escape(k)));
    }
    if !keys.is_empty() {
        s.push_str("\n  ");
    }
    s.push_str("]\n}\n");
    s
}

/// Parses a baseline file (the exact format [`baseline_json`] writes —
/// a JSON object with a `findings` array of strings).
pub fn parse_baseline(text: &str) -> BTreeSet<String> {
    // Tolerant extraction: every quoted string that contains two `|`
    // separators is a key; the format has no other such strings.
    text.split('"')
        .skip(1)
        .step_by(2)
        .filter(|s| s.matches('|').count() == 2)
        .map(str::to_string)
        .collect()
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

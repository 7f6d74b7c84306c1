//! CLI entry point for `sma-lint`.
//!
//! Usage: `cargo run -p sma-lint [-- --json] [--baseline FILE] [root]`
//!
//! Exit codes: `0` no error outside the baseline, `1` new errors, `2`
//! internal error (bad arguments, unreadable workspace or baseline).

use std::path::PathBuf;
use std::process::ExitCode;

use sma_lint::{
    baseline_json, count_errors, find_workspace_root, finding_key, json_report, lint_workspace,
    parse_baseline, Severity,
};

fn main() -> ExitCode {
    match run() {
        Ok(code) => code,
        Err(e) => {
            eprintln!("sma-lint: {e}");
            ExitCode::from(2)
        }
    }
}

fn run() -> Result<ExitCode, String> {
    let mut json = false;
    let mut baseline: Option<PathBuf> = None;
    let mut root: Option<PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--json" => json = true,
            "--baseline" => {
                baseline = Some(PathBuf::from(
                    args.next().ok_or("--baseline requires a path")?,
                ));
            }
            "--help" | "-h" => {
                print_help();
                return Ok(ExitCode::SUCCESS);
            }
            other if other.starts_with('-') => {
                return Err(format!("unknown flag `{other}` (try --help)"));
            }
            path => root = Some(PathBuf::from(path)),
        }
    }
    let root = match root {
        Some(p) => p,
        None => {
            let cwd = std::env::current_dir()
                .map_err(|e| format!("cannot determine current dir: {e}"))?;
            find_workspace_root(&cwd)
                .ok_or_else(|| format!("no workspace root found above {}", cwd.display()))?
        }
    };
    let known = match &baseline {
        Some(p) => parse_baseline(
            &std::fs::read_to_string(p)
                .map_err(|e| format!("cannot read baseline {}: {e}", p.display()))?,
        ),
        None => Default::default(),
    };

    let report = lint_workspace(&root)?;
    let findings = &report.findings;
    let new_errors = findings
        .iter()
        .filter(|f| f.severity == Severity::Error && !known.contains(&finding_key(f)))
        .count();

    if json {
        print!("{}", json_report(&report));
    } else {
        for f in findings {
            let loc = if f.line == 0 {
                f.file.clone()
            } else {
                format!("{}:{}", f.file, f.line)
            };
            let reason = f
                .allow_reason
                .as_deref()
                .map(|r| format!(" (allowed: {r})"))
                .unwrap_or_default();
            println!(
                "{}[{}] {loc}: {}{reason}",
                f.severity.label(),
                f.rule,
                f.message
            );
        }
        let errors = count_errors(findings);
        let st = &report.stats;
        println!(
            "sma-lint: {} file(s), {} fn(s), {} edge(s) in {} ms — {} finding(s), {errors} error(s), {new_errors} new vs baseline",
            st.files,
            st.functions,
            st.edges,
            st.elapsed_ms,
            findings.len(),
        );
        if errors > 0 && new_errors == 0 {
            println!("sma-lint: all errors are in the baseline; to regenerate it:");
            print!("{}", baseline_json(findings));
        }
    }

    Ok(if new_errors == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}

fn print_help() {
    println!(
        "sma-lint: architectural lint wall for the SMA workspace\n\
         \n\
         USAGE: sma-lint [--json] [--baseline FILE] [root]\n\
         \n\
         --json             emit a machine-readable JSON report\n\
         --baseline FILE    tolerate error findings whose rule|file|func key is in FILE\n\
         root               workspace root (default: nearest [workspace] above cwd)\n\
         \n\
         Exit codes: 0 no error outside the baseline, 1 new errors, 2 internal error.\n\
         Suppress a finding with `// sma-lint: allow(rule-id) -- justification`."
    );
}

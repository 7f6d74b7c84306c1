//! The per-file rules: file classification, the confinement table, and
//! the lint-header check.
//!
//! Generic hygiene (panic-freedom, debug output, literal indexing,
//! narrowing casts, reasonless allows) is clippy's job; the header check
//! (`U1-crate-header`) only makes sure no crate or codec module can opt
//! out of those clippy lints. What clippy cannot express — "this
//! identifier may appear only in these crates or files" — is the
//! [`CONFINEMENT`] table, read by one loop in `check_file`. DESIGN.md §9
//! carries the rationale for each row.

use std::collections::BTreeSet;

use crate::lexer::Tok;
use crate::parse::ParsedFile;
use crate::Finding;

/// Which cargo target a file belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Target {
    /// Part of a `[lib]` target.
    Lib,
    /// A designated test-support module inside a library (`test_util.rs`):
    /// layered like library code, but outside the analysis passes.
    TestSupport,
    /// `src/bin/**` or `src/main.rs`.
    Bin,
    /// `tests/**`.
    Test,
    /// `benches/**`.
    Bench,
    /// `examples/**`.
    Example,
}

/// Classification of one workspace source file.
#[derive(Debug, Clone)]
pub struct FileClass {
    /// Crate the file belongs to (`sma-core`, or `smadb` for the root).
    pub crate_name: String,
    /// Which target kind the path maps to.
    pub target: Target,
    /// Whether the crate is one of the product crates (vs. the bench
    /// harnesses or the linter itself).
    pub product: bool,
}

impl FileClass {
    /// Product library code: the file set the call graph is built from.
    pub fn analyzed(&self) -> bool {
        self.product && self.target == Target::Lib
    }
}

/// Product crates: the ones the walls apply to in full.
const PRODUCT_CRATES: &[&str] = &[
    "smadb",
    "sma-types",
    "sma-storage",
    "sma-core",
    "sma-exec",
    "sma-tpcd",
    "sma-cube",
    "sma-server",
];

/// Code that ships (library, test support, binaries), as opposed to tests,
/// benches and examples.
const SHIPPED: &[Target] = &[Target::Lib, Target::TestSupport, Target::Bin];

/// One confinement rule: identifiers that may appear only in some places.
#[derive(Debug, Clone, Copy)]
pub struct Confinement {
    /// Stable rule ID, used in findings and allow directives.
    pub id: &'static str,
    /// The banned identifiers (functions, types, constants).
    pub banned: &'static [&'static str],
    /// Crates the rule applies to.
    pub crates: &'static [&'static str],
    /// Targets the rule applies to inside those crates.
    pub targets: &'static [Target],
    /// Path prefixes where the identifiers are at home (exempt).
    pub homes: &'static [&'static str],
    /// Why the identifier is banned here and what to use instead; the
    /// finding's message is `` `ident` `` followed by this text.
    pub why: &'static str,
}

/// The confinement rules. Test code (`#[cfg(test)]` and test targets) is
/// always exempt.
pub const CONFINEMENT: &[Confinement] = &[
    Confinement {
        id: "L1-page-discipline",
        banned: &[
            "read_page",
            "write_page",
            "SlottedPage",
            "stamp_page",
            "verify_page",
            "page_write_counter",
        ],
        crates: PRODUCT_CRATES,
        targets: SHIPPED,
        homes: &["crates/sma-storage/"],
        why: "outside sma-storage — all page access goes through the buffer pool or Table",
    },
    Confinement {
        id: "L2-codec-bytes",
        banned: &["from_le_bytes", "to_le_bytes", "from_be_bytes", "to_be_bytes"],
        crates: PRODUCT_CRATES,
        targets: SHIPPED,
        homes: &[
            "crates/sma-types/",
            "crates/sma-storage/src/page.rs",
            "crates/sma-storage/src/checksum.rs",
            "crates/sma-core/src/persist.rs",
        ],
        why: "outside the codec modules — use sma_types::bytes helpers",
    },
    Confinement {
        id: "D1-wall-clock",
        banned: &["Instant", "SystemTime"],
        crates: PRODUCT_CRATES,
        targets: &[Target::Lib],
        homes: &["crates/sma-storage/src/cost.rs"],
        why: "outside cost.rs/bench harness — use sma_storage::cost::Stopwatch",
    },
    Confinement {
        id: "D2-ordered-iteration",
        banned: &["HashMap", "HashSet"],
        crates: &["sma-exec", "sma-core"],
        targets: &[Target::Lib, Target::TestSupport],
        homes: &[],
        why: "in a deterministic exec path — use BTreeMap/BTreeSet or sort before emitting",
    },
    Confinement {
        id: "N1-socket-confinement",
        banned: &[
            "TcpListener",
            "TcpStream",
            "UdpSocket",
            "UnixListener",
            "UnixStream",
        ],
        crates: PRODUCT_CRATES,
        targets: SHIPPED,
        homes: &["crates/sma-server/"],
        why: "outside sma-server — network transport is confined to the server crate",
    },
    Confinement {
        id: "N2-unbounded-queue",
        banned: &["channel", "VecDeque", "LinkedList"],
        crates: &["sma-server"],
        targets: SHIPPED,
        homes: &[],
        why: "in sma-server — overload must shed (Busy), not queue; use a bounded structure or sync_channel",
    },
];

/// The clippy lints every product library root must deny.
const PRODUCT_LINTS: &[&str] = &[
    "clippy::unwrap_used",
    "clippy::expect_used",
    "clippy::panic",
    "clippy::todo",
    "clippy::unimplemented",
    "clippy::print_stdout",
    "clippy::print_stderr",
    "clippy::dbg_macro",
    "clippy::allow_attributes",
    "clippy::allow_attributes_without_reason",
];

/// The clippy lints every codec-strict module must deny.
const CODEC_LINTS: &[&str] = &[
    "clippy::indexing_slicing",
    "clippy::cast_possible_truncation",
];

/// Modules that decode untrusted bytes, where indexing and narrowing
/// casts are the dangerous class.
const CODEC_STRICT: &[&str] = &[
    "crates/sma-types/src/row.rs",
    "crates/sma-types/src/view.rs",
    "crates/sma-types/src/value.rs",
    "crates/sma-types/src/bytes.rs",
    "crates/sma-storage/src/page.rs",
    "crates/sma-storage/src/checksum.rs",
    "crates/sma-core/src/persist.rs",
];

/// Classifies a workspace-relative path (`crates/sma-core/src/sma.rs`).
/// Paths under `crates/<name>/` belong to that crate, and paths under
/// `perfbench/` to the benchmark package, which has a `[workspace]` of
/// its own. Like `sma-bench` it is not a product crate: it times with
/// `Instant`, prints its results and stops on a broken set-up. Every
/// other path belongs to the root crate, `smadb`.
pub fn classify(rel: &str) -> FileClass {
    let (crate_name, in_crate) = match rel.split_once('/') {
        Some(("crates", rest)) => rest.split_once('/').unwrap_or((rest, rel)),
        Some(("perfbench", inner)) => ("perfbench", inner),
        _ => ("smadb", rel),
    };
    let target = if in_crate.starts_with("tests/") {
        Target::Test
    } else if in_crate.starts_with("benches/") {
        Target::Bench
    } else if in_crate.starts_with("examples/") {
        Target::Example
    } else if in_crate.starts_with("src/bin/") || in_crate == "src/main.rs" {
        Target::Bin
    } else if rel.ends_with("test_util.rs") {
        Target::TestSupport
    } else {
        Target::Lib
    };
    FileClass {
        crate_name: crate_name.to_string(),
        target,
        product: PRODUCT_CRATES.contains(&crate_name),
    }
}

/// Runs the confinement table and the header check over one file.
pub(crate) fn check_file(pf: &ParsedFile, class: &FileClass) -> Vec<Finding> {
    let rel = pf.rel.as_str();
    let rows: Vec<&Confinement> = CONFINEMENT
        .iter()
        .filter(|r| {
            r.crates.contains(&class.crate_name.as_str())
                && r.targets.contains(&class.target)
                && !r.homes.iter().any(|h| rel.starts_with(h))
        })
        .collect();
    let mut findings = Vec::new();
    for (t, in_test) in pf.tokens.iter().zip(&pf.in_test) {
        let Tok::Ident(name) = &t.tok else { continue };
        if *in_test {
            continue;
        }
        for r in rows.iter().filter(|r| r.banned.contains(&name.as_str())) {
            findings.push(Finding::error(
                r.id,
                rel,
                t.line,
                format!("`{name}` {}", r.why),
            ));
        }
    }
    findings.extend(check_header(pf, class));
    findings
}

/// U1: lib roots forbid `unsafe_code` and deny `missing_docs`; product
/// lib roots also deny [`PRODUCT_LINTS`], and codec-strict modules deny
/// [`CODEC_LINTS`]. One finding per incomplete attribute, naming what is
/// missing.
fn check_header(pf: &ParsedFile, class: &FileClass) -> Vec<Finding> {
    let rel = pf.rel.as_str();
    let lib_root =
        rel == "src/lib.rs" || (rel.starts_with("crates/") && rel.ends_with("/src/lib.rs"));
    let mut required: Vec<(&str, &[&str])> = Vec::new();
    if lib_root {
        required.push(("forbid", &["unsafe_code"]));
        required.push(("deny", &["missing_docs"]));
        if class.product {
            required.push(("deny", PRODUCT_LINTS));
        }
    }
    if CODEC_STRICT.contains(&rel) {
        required.push(("deny", CODEC_LINTS));
    }
    if required.is_empty() {
        return Vec::new();
    }
    let have = inner_lint_attrs(pf);
    let mut findings = Vec::new();
    for (level, lints) in required {
        let missing: Vec<&str> = lints
            .iter()
            .copied()
            .filter(|l| !have.contains(&(level.to_string(), l.to_string())))
            .collect();
        if !missing.is_empty() {
            findings.push(Finding::error(
                "U1-crate-header",
                rel,
                1,
                format!("missing `#![{level}({})]` header", missing.join(", ")),
            ));
        }
    }
    findings
}

/// The `(level, lint path)` pairs of the file's top-level inner lint
/// attributes (`#![deny(clippy::panic, missing_docs)]`). Attributes
/// inside nested modules do not count.
fn inner_lint_attrs(pf: &ParsedFile) -> BTreeSet<(String, String)> {
    let toks = &pf.tokens;
    let punct =
        |i: usize, c: char| matches!(toks.get(i).map(|t| &t.tok), Some(Tok::Punct(p)) if *p == c);
    let mut out = BTreeSet::new();
    let mut depth = 0i32;
    for (i, t) in toks.iter().enumerate() {
        match &t.tok {
            Tok::Punct('{') => depth += 1,
            Tok::Punct('}') => depth -= 1,
            Tok::Punct('#') if depth == 0 && punct(i + 1, '!') && punct(i + 2, '[') => {
                let Some(Tok::Ident(level)) = toks.get(i + 3).map(|t| &t.tok) else {
                    continue;
                };
                if !punct(i + 4, '(') {
                    continue;
                }
                // Lint paths are `ident(::ident)*`, comma separated.
                let mut path = String::new();
                for t in toks.iter().skip(i + 5) {
                    match &t.tok {
                        Tok::Ident(s) => path.push_str(s),
                        Tok::Punct(':') => path.push(':'),
                        Tok::Punct(',') | Tok::Punct(')') => {
                            out.insert((level.clone(), std::mem::take(&mut path)));
                            if matches!(t.tok, Tok::Punct(')')) {
                                break;
                            }
                        }
                        _ => break,
                    }
                }
            }
            _ => {}
        }
    }
    out
}

//! A lightweight item-level parser on top of the lexer.
//!
//! [`parse_file`] walks one file's token stream and extracts the items the
//! analysis passes ([`crate::analyze`]) need: function signatures (name,
//! owning `impl`/`trait` type, parameter and return types, body token
//! span) and struct fields (for deriving lock classes and receiver types).
//! It is *not* a Rust parser — it never builds expressions — but it is
//! exact about the things it does track: brace matching, generic-angle
//! matching, `where` clauses, and `#[cfg(test)]` exclusion all follow the
//! token stream, so a function body span is a real brace-balanced region
//! and a parameter type is the real token sequence between `:` and the
//! next top-level `,`.
//!
//! Types are stored as normalized strings with single spaces between
//! tokens (`"RwLock < StreamingWarehouse >"`); helpers like
//! [`type_head`] and [`ty_contains`] match on those word lists, so
//! `Vec<Mutex<Shard>>` and `& Mutex < Shard >` both report a `Mutex`
//! wrapper with inner class `Shard`.

use crate::lexer::{lex, AllowDirective, Tok, Token};

/// One function parameter: binding name (best effort) and its type.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Param {
    /// The binding identifier (`buf` in `buf: &mut Vec<u8>`); empty for
    /// pattern bindings the parser does not decompose.
    pub name: String,
    /// Normalized type text (space-separated tokens).
    pub ty: String,
}

/// What kind of container an item was declared in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OwnerKind {
    /// Free item at module scope.
    Free,
    /// Inside an `impl Type` or `impl Trait for Type` block — the owner
    /// is the *type*.
    Impl,
    /// Inside a `trait Name` block — the owner is the trait, and calls
    /// dispatched through it must be treated as worst-case dyn dispatch.
    Trait,
}

/// A parsed `fn` item.
#[derive(Debug, Clone)]
pub struct FnItem {
    /// Bare function name.
    pub name: String,
    /// Owning type or trait name, if declared inside an impl/trait block.
    pub owner: Option<String>,
    /// Whether the owner is a trait (dyn-dispatch approximation point).
    pub owner_kind: OwnerKind,
    /// For fns inside `impl Trait for Type`: the trait being implemented.
    /// Lets the call graph restrict dyn-dispatch fan-out to actual
    /// implementors instead of every same-named method.
    pub trait_impl: Option<String>,
    /// Parameters, excluding any `self` receiver.
    pub params: Vec<Param>,
    /// Whether the function takes a `self` receiver.
    pub has_self: bool,
    /// Normalized return type text (empty when `()` / omitted).
    pub ret: String,
    /// Token index range `[start, end)` of the body, *inside* the braces.
    /// `None` for bodyless trait declarations.
    pub body: Option<(usize, usize)>,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// Whether the item sits inside `#[cfg(test)]`-gated code.
    pub in_test: bool,
}

impl FnItem {
    /// `Owner::name` or bare `name` — the display form used in findings.
    pub fn qualified(&self) -> String {
        match &self.owner {
            Some(o) => format!("{o}::{}", self.name),
            None => self.name.clone(),
        }
    }
}

/// A parsed struct field (named-field structs only).
#[derive(Debug, Clone)]
pub struct FieldItem {
    /// The struct the field belongs to.
    pub owner: String,
    /// Field name.
    pub name: String,
    /// Normalized type text.
    pub ty: String,
}

/// Everything the analysis passes need from one source file.
#[derive(Debug)]
pub struct ParsedFile {
    /// Workspace-relative path.
    pub rel: String,
    /// The full token stream (body spans index into this).
    pub tokens: Vec<Token>,
    /// For every token, whether it lies inside `#[cfg(test)]`-gated code.
    pub in_test: Vec<bool>,
    /// Allow directives harvested from comments.
    pub allows: Vec<AllowDirective>,
    /// Functions found (including `#[cfg(test)]` ones, flagged).
    pub fns: Vec<FnItem>,
    /// Named struct fields found.
    pub fields: Vec<FieldItem>,
}

/// Parses one source file into items. Total: unparseable regions are
/// skipped, never reported — the compiler owns syntax errors.
pub fn parse_file(rel: &str, src: &str) -> ParsedFile {
    let lexed = lex(src);
    let toks = lexed.tokens;
    let in_test = test_spans(&toks);

    let mut fns: Vec<FnItem> = Vec::new();
    let mut fields: Vec<FieldItem> = Vec::new();

    // Container stack: (owner name, trait being implemented, kind, brace
    // depth its `{` opened at).
    let mut containers: Vec<(String, Option<String>, OwnerKind, i32)> = Vec::new();
    let mut depth: i32 = 0;
    let mut i = 0usize;

    while i < toks.len() {
        match &toks[i].tok {
            Tok::Punct('{') => {
                depth += 1;
                i += 1;
            }
            Tok::Punct('}') => {
                depth -= 1;
                while matches!(containers.last(), Some(&(_, _, _, d)) if depth < d) {
                    containers.pop();
                }
                i += 1;
            }
            Tok::Ident(kw) if kw == "impl" || kw == "trait" => {
                let kind = if kw == "impl" {
                    OwnerKind::Impl
                } else {
                    OwnerKind::Trait
                };
                if let Some((owner, trait_impl, open)) = parse_container_header(&toks, i + 1, kind)
                {
                    containers.push((owner, trait_impl, kind, depth + 1));
                    depth += 1;
                    i = open + 1;
                } else {
                    i += 1;
                }
            }
            Tok::Ident(kw) if kw == "struct" => {
                let next = parse_struct(&toks, i, &mut fields);
                // `parse_struct` consumes up to (not including) the token
                // after the item, leaving brace tracking to us: it only
                // advances past `;`-terminated forms or a balanced body.
                i = next;
            }
            Tok::Ident(kw) if kw == "fn" => {
                // `fn(` with no name is a function-pointer type.
                let name = match toks.get(i + 1).map(|t| &t.tok) {
                    Some(Tok::Ident(n)) => n.clone(),
                    _ => {
                        i += 1;
                        continue;
                    }
                };
                let line = toks[i].line;
                // `parse_fn` consumes a balanced body (or the `;`), so the
                // net brace-depth change is zero — no tracking update.
                let (item, next) = parse_fn(&toks, i, name, line, containers.last(), &in_test);
                if let Some(item) = item {
                    fns.push(item);
                }
                i = next;
            }
            _ => i += 1,
        }
    }

    ParsedFile {
        rel: rel.to_string(),
        tokens: toks,
        in_test,
        allows: lexed.allows,
        fns,
        fields,
    }
}

/// Parses an impl/trait header starting just after the keyword. Returns
/// the owner name, the trait implemented (for `impl Trait for Type`
/// blocks), and the index of the opening `{`.
fn parse_container_header(
    toks: &[Token],
    mut i: usize,
    kind: OwnerKind,
) -> Option<(String, Option<String>, usize)> {
    // Skip leading generics `<...>`.
    if matches!(toks.get(i).map(|t| &t.tok), Some(Tok::Punct('<'))) {
        i = skip_angles(toks, i);
    }
    // Collect path idents until `{`, restarting after `for`
    // (impl Trait for Type) and stopping at `where`.
    let mut current: Vec<String> = Vec::new();
    while let Some(t) = toks.get(i) {
        match &t.tok {
            Tok::Punct('{') => {
                let owner = current.last()?.clone();
                return Some((owner, None, i));
            }
            Tok::Punct(';') => return None, // e.g. `impl Trait for Type;` — not real Rust, bail
            Tok::Punct('<') => {
                i = skip_angles(toks, i);
                continue;
            }
            Tok::Ident(s) if s == "for" && kind == OwnerKind::Impl => {
                // `impl Trait for Type`: everything collected so far was
                // the trait; the self type follows.
                let trait_name = current.last().cloned();
                i += 1;
                let mut ty: Vec<String> = Vec::new();
                while let Some(t2) = toks.get(i) {
                    match &t2.tok {
                        Tok::Punct('{') => {
                            let owner = ty.last()?.clone();
                            return Some((owner, trait_name, i));
                        }
                        Tok::Punct('<') => {
                            i = skip_angles(toks, i);
                            continue;
                        }
                        Tok::Ident(s2) if s2 == "where" => {
                            let owner = ty.last()?.clone();
                            // Find the `{` ending the where clause.
                            let open = find_open_brace(toks, i)?;
                            return Some((owner, trait_name, open));
                        }
                        Tok::Ident(s2) => ty.push(s2.clone()),
                        _ => {}
                    }
                    i += 1;
                }
                return None;
            }
            Tok::Ident(s) if s == "where" => {
                let owner = current.last()?.clone();
                let open = find_open_brace(toks, i)?;
                return Some((owner, None, open));
            }
            Tok::Punct(':') if kind == OwnerKind::Trait => {
                // `trait Name: Super + Sync {` — the name is already
                // collected; everything after the colon is supertrait
                // bounds, not the owner.
                let owner = current.last()?.clone();
                let open = find_open_brace(toks, i)?;
                return Some((owner, None, open));
            }
            Tok::Ident(s) => {
                current.push(s.clone());
                i += 1;
            }
            _ => i += 1,
        }
    }
    None
}

/// Finds the next `{` at angle-depth 0 from `i`.
fn find_open_brace(toks: &[Token], mut i: usize) -> Option<usize> {
    while let Some(t) = toks.get(i) {
        match t.tok {
            Tok::Punct('{') => return Some(i),
            Tok::Punct('<') => {
                i = skip_angles(toks, i);
                continue;
            }
            _ => i += 1,
        }
    }
    None
}

/// Skips a balanced `<...>` region starting at the `<` at `i`. Returns the
/// index one past the matching `>`. Tolerates `->` inside (skips the `-`'s
/// `>` pairing by never seeing `-` as an opener) and gives up at `{`/`;`.
fn skip_angles(toks: &[Token], i: usize) -> usize {
    let mut depth = 0i32;
    let mut j = i;
    while let Some(t) = toks.get(j) {
        match t.tok {
            Tok::Punct('<') => depth += 1,
            Tok::Punct('>') => {
                // `->` arrows: the `-` precedes; don't count its `>`.
                let arrow = j > 0 && matches!(toks[j - 1].tok, Tok::Punct('-'));
                if !arrow {
                    depth -= 1;
                    if depth == 0 {
                        return j + 1;
                    }
                }
            }
            Tok::Punct('{') | Tok::Punct(';') => return j, // malformed; bail
            _ => {}
        }
        j += 1;
    }
    j
}

/// Parses a `struct` item starting at the `struct` keyword; pushes named
/// fields. Returns the index to resume scanning at (past `;` for unit and
/// tuple structs, past the closing `}` for named-field structs).
fn parse_struct(toks: &[Token], kw: usize, fields: &mut Vec<FieldItem>) -> usize {
    let name = match toks.get(kw + 1).map(|t| &t.tok) {
        Some(Tok::Ident(n)) => n.clone(),
        _ => return kw + 1,
    };
    let mut i = kw + 2;
    if matches!(toks.get(i).map(|t| &t.tok), Some(Tok::Punct('<'))) {
        i = skip_angles(toks, i);
    }
    // `where` clause before the body.
    while let Some(t) = toks.get(i) {
        match &t.tok {
            Tok::Punct('{') => break,
            Tok::Punct(';') => return i + 1, // unit struct
            Tok::Punct('(') => {
                // Tuple struct: skip to the `;` after the balanced parens.
                let close = skip_parens(toks, i);
                let mut j = close;
                while let Some(t2) = toks.get(j) {
                    if matches!(t2.tok, Tok::Punct(';')) {
                        return j + 1;
                    }
                    j += 1;
                }
                return j;
            }
            Tok::Punct('<') => {
                i = skip_angles(toks, i);
            }
            _ => i += 1,
        }
    }
    let open = i; // at `{`
    let close = match_brace(toks, open);
    // Fields: `name : <type until top-level , or }>` at depth 1.
    let mut j = open + 1;
    while j < close {
        // Skip attributes `#[...]`.
        if matches!(toks[j].tok, Tok::Punct('#')) {
            j = skip_attr(toks, j);
            continue;
        }
        // Skip visibility `pub` / `pub(crate)`.
        if matches!(&toks[j].tok, Tok::Ident(s) if s == "pub") {
            j += 1;
            if matches!(toks.get(j).map(|t| &t.tok), Some(Tok::Punct('('))) {
                j = skip_parens(toks, j);
            }
            continue;
        }
        let Some(Tok::Ident(fname)) = toks.get(j).map(|t| &t.tok) else {
            j += 1;
            continue;
        };
        if !matches!(toks.get(j + 1).map(|t| &t.tok), Some(Tok::Punct(':'))) {
            j += 1;
            continue;
        }
        let fname = fname.clone();
        let (ty, next) = collect_type(toks, j + 2, close);
        fields.push(FieldItem {
            owner: name.clone(),
            name: fname,
            ty,
        });
        j = next;
    }
    close + 1
}

/// Collects a type's tokens from `i` until a `,` at bracket-depth 0 or
/// `end`. Returns the normalized type text and the index past the `,`.
fn collect_type(toks: &[Token], mut i: usize, end: usize) -> (String, usize) {
    let mut words: Vec<String> = Vec::new();
    let mut angle = 0i32;
    let mut paren = 0i32;
    let mut bracket = 0i32;
    while i < end {
        match &toks[i].tok {
            Tok::Punct(',') if angle == 0 && paren == 0 && bracket == 0 => {
                return (words.join(" "), i + 1);
            }
            Tok::Punct('<') => {
                angle += 1;
                words.push("<".into());
            }
            Tok::Punct('>') => {
                let arrow = i > 0 && matches!(toks[i - 1].tok, Tok::Punct('-'));
                if !arrow {
                    angle -= 1;
                }
                words.push(">".into());
            }
            Tok::Punct('(') => {
                paren += 1;
                words.push("(".into());
            }
            Tok::Punct(')') => {
                paren -= 1;
                words.push(")".into());
            }
            Tok::Punct('[') => {
                bracket += 1;
                words.push("[".into());
            }
            Tok::Punct(']') => {
                bracket -= 1;
                words.push("]".into());
            }
            Tok::Ident(s) => words.push(s.clone()),
            Tok::Punct(c) => words.push(c.to_string()),
            Tok::Int(s) | Tok::Float(s) => words.push(s.clone()),
            Tok::Lifetime => {} // drop lifetimes from type text
            Tok::Literal => {}
        }
        i += 1;
    }
    (words.join(" "), end)
}

/// Parses a `fn` item starting at the `fn` keyword. Returns the item (if
/// parseable) and the resume index.
fn parse_fn(
    toks: &[Token],
    kw: usize,
    name: String,
    line: u32,
    container: Option<&(String, Option<String>, OwnerKind, i32)>,
    in_test: &[bool],
) -> (Option<FnItem>, usize) {
    let mut i = kw + 2; // past `fn name`
    if matches!(toks.get(i).map(|t| &t.tok), Some(Tok::Punct('<'))) {
        i = skip_angles(toks, i);
    }
    if !matches!(toks.get(i).map(|t| &t.tok), Some(Tok::Punct('('))) {
        return (None, kw + 1);
    }
    let params_open = i;
    let params_close = skip_parens(toks, params_open) - 1; // index of `)`
    let (params, has_self) = parse_params(toks, params_open + 1, params_close);
    i = params_close + 1;

    // Return type: `-> ...` until `{`, `;`, or `where`.
    let mut ret_words: Vec<String> = Vec::new();
    if matches!(toks.get(i).map(|t| &t.tok), Some(Tok::Punct('-')))
        && matches!(toks.get(i + 1).map(|t| &t.tok), Some(Tok::Punct('>')))
    {
        i += 2;
        let mut angle = 0i32;
        while let Some(t) = toks.get(i) {
            match &t.tok {
                Tok::Punct('{') | Tok::Punct(';') if angle == 0 => break,
                Tok::Ident(s) if s == "where" && angle == 0 => break,
                Tok::Punct('<') => {
                    angle += 1;
                    ret_words.push("<".into());
                    i += 1;
                }
                Tok::Punct('>') => {
                    let arrow = matches!(
                        toks.get(i.wrapping_sub(1)).map(|t| &t.tok),
                        Some(Tok::Punct('-'))
                    );
                    if !arrow {
                        angle -= 1;
                    }
                    ret_words.push(">".into());
                    i += 1;
                }
                Tok::Ident(s) => {
                    ret_words.push(s.clone());
                    i += 1;
                }
                Tok::Lifetime => i += 1,
                Tok::Punct(c) => {
                    ret_words.push(c.to_string());
                    i += 1;
                }
                _ => i += 1,
            }
        }
    }
    // Skip a `where` clause.
    while let Some(t) = toks.get(i) {
        match t.tok {
            Tok::Punct('{') | Tok::Punct(';') => break,
            Tok::Punct('<') => i = skip_angles(toks, i),
            _ => i += 1,
        }
    }
    let (body, next) = match toks.get(i).map(|t| &t.tok) {
        Some(Tok::Punct('{')) => {
            let close = match_brace(toks, i);
            (Some((i + 1, close)), close + 1)
        }
        _ => (None, i + 1),
    };
    let (owner, trait_impl, owner_kind) = match container {
        Some((o, t, k, _)) => (Some(o.clone()), t.clone(), *k),
        None => (None, None, OwnerKind::Free),
    };
    let item = FnItem {
        name,
        owner,
        owner_kind,
        trait_impl,
        params,
        has_self,
        ret: ret_words.join(" "),
        body,
        line,
        in_test: in_test.get(kw).copied().unwrap_or(false),
    };
    (Some(item), next)
}

/// Parses a parameter list between `open+1` and `close` (exclusive).
fn parse_params(toks: &[Token], start: usize, close: usize) -> (Vec<Param>, bool) {
    let mut params = Vec::new();
    let mut has_self = false;
    let mut i = start;
    while i < close {
        // Split one parameter: up to `,` at depth 0.
        let mut angle = 0i32;
        let mut paren = 0i32;
        let mut j = i;
        while j < close {
            match toks[j].tok {
                Tok::Punct(',') if angle == 0 && paren == 0 => break,
                Tok::Punct('<') => angle += 1,
                Tok::Punct('>') if !matches!(toks[j - 1].tok, Tok::Punct('-')) => angle -= 1,
                Tok::Punct('(') => paren += 1,
                Tok::Punct(')') => paren -= 1,
                _ => {}
            }
            j += 1;
        }
        // Analyze tokens i..j as one parameter.
        let mut colon: Option<usize> = None;
        let mut d = 0i32;
        for k in i..j {
            match toks[k].tok {
                Tok::Punct('<') => d += 1,
                Tok::Punct('>') => d -= 1,
                Tok::Punct(':') if d == 0 => {
                    // `::` path separators come as two `:` puncts.
                    let double = matches!(toks.get(k + 1).map(|t| &t.tok), Some(Tok::Punct(':')))
                        || (k > i && matches!(toks[k - 1].tok, Tok::Punct(':')));
                    if !double {
                        colon = Some(k);
                        break;
                    }
                }
                _ => {}
            }
        }
        match colon {
            Some(c) => {
                // Name: last ident before the colon.
                let name = (i..c)
                    .rev()
                    .find_map(|k| match &toks[k].tok {
                        Tok::Ident(s) if s != "mut" => Some(s.clone()),
                        _ => None,
                    })
                    .unwrap_or_default();
                if name == "self" {
                    has_self = true;
                } else {
                    let (ty, _) = collect_type(toks, c + 1, j);
                    params.push(Param { name, ty });
                }
            }
            None => {
                // Receiver form: `self`, `&self`, `&mut self`, `&'a self`.
                if (i..j).any(|k| matches!(&toks[k].tok, Tok::Ident(s) if s == "self")) {
                    has_self = true;
                }
            }
        }
        i = j + 1;
    }
    (params, has_self)
}

/// Skips a balanced `(...)` starting at the `(` at `i`; returns the index
/// one past the matching `)`.
fn skip_parens(toks: &[Token], i: usize) -> usize {
    let mut depth = 0i32;
    let mut j = i;
    while let Some(t) = toks.get(j) {
        match t.tok {
            Tok::Punct('(') => depth += 1,
            Tok::Punct(')') => {
                depth -= 1;
                if depth == 0 {
                    return j + 1;
                }
            }
            _ => {}
        }
        j += 1;
    }
    j
}

/// Skips an attribute `#[...]` or `#![...]` starting at the `#` at `i`.
fn skip_attr(toks: &[Token], i: usize) -> usize {
    let mut j = i + 1;
    if matches!(toks.get(j).map(|t| &t.tok), Some(Tok::Punct('!'))) {
        j += 1;
    }
    if !matches!(toks.get(j).map(|t| &t.tok), Some(Tok::Punct('['))) {
        return i + 1;
    }
    let mut depth = 0i32;
    while let Some(t) = toks.get(j) {
        match t.tok {
            Tok::Punct('[') => depth += 1,
            Tok::Punct(']') => {
                depth -= 1;
                if depth == 0 {
                    return j + 1;
                }
            }
            _ => {}
        }
        j += 1;
    }
    j
}

/// Returns the index of the `}` matching the `{` at `open`.
pub(crate) fn match_brace(toks: &[Token], open: usize) -> usize {
    let mut depth = 0i32;
    let mut j = open;
    while let Some(t) = toks.get(j) {
        match t.tok {
            Tok::Punct('{') => depth += 1,
            Tok::Punct('}') => {
                depth -= 1;
                if depth == 0 {
                    return j;
                }
            }
            _ => {}
        }
        j += 1;
    }
    toks.len().saturating_sub(1)
}

/// The first "head" identifier of a normalized type string, skipping
/// reference/pointer/wrapper noise: `& mut Vec < Mutex < Shard > >` →
/// `Vec`; `Box < dyn PageStore >` → `Box`.
pub fn type_head(ty: &str) -> Option<String> {
    ty.split_whitespace()
        .find(|w| {
            w.chars()
                .next()
                .is_some_and(|c| c.is_alphabetic() || c == '_')
                && *w != "mut"
                && *w != "dyn"
                && *w != "const"
                && *w != "impl"
        })
        .map(str::to_string)
}

/// Whether a normalized type string names `word` as a whole token.
pub fn ty_contains(ty: &str, word: &str) -> bool {
    ty.split_whitespace().any(|w| w == word)
}

/// Extracts the "class" a lock type protects: the first concrete type
/// identifier inside the outermost `RwLock<...>` / `Mutex<...>`, skipping
/// transparent wrappers (`Box`, `Arc`, `Vec`, `Option`, `dyn`, refs). E.g.
/// `Vec < Mutex < Shard > >` → `Shard`; `RwLock < Box < dyn PageStore > >`
/// → `PageStore`. Returns `None` when `ty` holds no lock.
pub fn lock_class(ty: &str) -> Option<String> {
    let words: Vec<&str> = ty.split_whitespace().collect();
    let lock_at = words.iter().position(|w| *w == "RwLock" || *w == "Mutex")?;
    const TRANSPARENT: &[&str] = &[
        "Box", "Arc", "Rc", "Vec", "Option", "dyn", "mut", "&", "<", ">", ",",
    ];
    words
        .iter()
        .skip(lock_at + 1)
        .find(|w| {
            !TRANSPARENT.contains(*w)
                && w.chars()
                    .next()
                    .is_some_and(|c| c.is_alphabetic() || c == '_')
        })
        .map(|w| w.to_string())
}

/// Extracts the guarded class from a guard-returning type:
/// `RwLockReadGuard < StreamingWarehouse >` → `StreamingWarehouse` (the
/// first concrete type after the guard head). Returns `None` for
/// non-guard types.
pub fn guard_class(ret: &str) -> Option<String> {
    let words: Vec<&str> = ret.split_whitespace().collect();
    let at = words
        .iter()
        .position(|w| *w == "RwLockReadGuard" || *w == "RwLockWriteGuard" || *w == "MutexGuard")?;
    const TRANSPARENT: &[&str] = &[
        "Box", "Arc", "Rc", "Vec", "Option", "dyn", "mut", "&", "<", ">", ",",
    ];
    words
        .iter()
        .skip(at + 1)
        .find(|w| {
            !TRANSPARENT.contains(*w)
                && w.chars()
                    .next()
                    .is_some_and(|c| c.is_alphabetic() || c == '_')
        })
        .map(|w| w.to_string())
}

/// Computes, for every token index, whether it lies inside `#[cfg(test)]`
/// gated code (the attribute's item, brace-matched) — also covers
/// `#[cfg(any(test, ...))]`. The per-file rules and the analysis passes
/// share it, so both see the same test-code boundary.
fn test_spans(toks: &[Token]) -> Vec<bool> {
    let mut in_test = vec![false; toks.len()];
    let mut i = 0usize;
    while i < toks.len() {
        if is_cfg_test_attr(toks, i) {
            // Skip to end of the attribute `]`.
            let mut j = i + 1; // at `[`
            let mut depth = 0i32;
            while let Some(t) = toks.get(j) {
                match t.tok {
                    Tok::Punct('[') => depth += 1,
                    Tok::Punct(']') => {
                        depth -= 1;
                        if depth == 0 {
                            j += 1;
                            break;
                        }
                    }
                    _ => {}
                }
                j += 1;
            }
            // Skip any further attributes.
            while matches!(toks.get(j).map(|t| &t.tok), Some(Tok::Punct('#'))) {
                let mut depth = 0i32;
                let mut k = j + 1;
                while let Some(t) = toks.get(k) {
                    match t.tok {
                        Tok::Punct('[') => depth += 1,
                        Tok::Punct(']') => {
                            depth -= 1;
                            if depth == 0 {
                                k += 1;
                                break;
                            }
                        }
                        _ => {}
                    }
                    k += 1;
                }
                j = k;
            }
            // Mark the gated item: to the matching `}` of its first brace
            // block, or to the first `;` at brace depth 0.
            let start = j;
            let mut depth = 0i32;
            let mut opened = false;
            while let Some(t) = toks.get(j) {
                match t.tok {
                    Tok::Punct('{') => {
                        depth += 1;
                        opened = true;
                    }
                    Tok::Punct('}') => {
                        depth -= 1;
                        if opened && depth == 0 {
                            j += 1;
                            break;
                        }
                    }
                    Tok::Punct(';') if !opened && depth == 0 => {
                        j += 1;
                        break;
                    }
                    _ => {}
                }
                j += 1;
            }
            for flag in in_test.iter_mut().take(j).skip(start) {
                *flag = true;
            }
            // Also mark the attribute tokens themselves.
            for flag in in_test.iter_mut().take(start).skip(i) {
                *flag = true;
            }
            i = j;
            continue;
        }
        i += 1;
    }
    in_test
}

/// Does `#[cfg(...)]` start at token `i`, with `test` appearing among the
/// cfg predicate identifiers?
fn is_cfg_test_attr(toks: &[Token], i: usize) -> bool {
    if !matches!(toks.get(i).map(|t| &t.tok), Some(Tok::Punct('#'))) {
        return false;
    }
    if !matches!(toks.get(i + 1).map(|t| &t.tok), Some(Tok::Punct('['))) {
        return false;
    }
    if !matches!(toks.get(i + 2).map(|t| &t.tok), Some(Tok::Ident(s)) if s == "cfg") {
        return false;
    }
    // Scan the attribute body up to the matching `]` for an ident `test`.
    let mut depth = 0i32;
    let mut j = i + 1;
    while let Some(t) = toks.get(j) {
        match &t.tok {
            Tok::Punct('[') => depth += 1,
            Tok::Punct(']') => {
                depth -= 1;
                if depth == 0 {
                    return false;
                }
            }
            Tok::Ident(s) if s == "test" => return true,
            _ => {}
        }
        j += 1;
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_free_and_impl_fns() {
        let src = r#"
            fn free_one(a: u32, b: &str) -> Result<(), Error> { a; }
            struct Holder { pool: Mutex<Inner>, n: usize }
            impl Holder {
                pub fn method(&self, x: Option<&QueryBudget>) -> bool { true }
            }
            trait Store {
                fn sync(&mut self) -> Result<(), Error>;
                fn provided(&self) -> usize { 0 }
            }
        "#;
        let p = parse_file("crates/x/src/lib.rs", src);
        let names: Vec<String> = p.fns.iter().map(|f| f.qualified()).collect();
        assert_eq!(
            names,
            vec![
                "free_one",
                "Holder::method",
                "Store::sync",
                "Store::provided"
            ]
        );
        let free = &p.fns[0];
        assert_eq!(free.params.len(), 2);
        assert_eq!(free.params[0].name, "a");
        assert_eq!(free.params[1].ty, "& str");
        assert!(free.ret.starts_with("Result"));
        assert!(free.body.is_some());
        let method = &p.fns[1];
        assert!(method.has_self);
        assert_eq!(method.params[0].ty, "Option < & QueryBudget >");
        let sync = &p.fns[2];
        assert!(sync.body.is_none());
        assert_eq!(sync.owner_kind, OwnerKind::Trait);
        assert_eq!(p.fields.len(), 2);
        assert_eq!(p.fields[0].ty, "Mutex < Inner >");
    }

    #[test]
    fn impl_trait_for_type_owner_is_the_type() {
        let src = "impl fmt::Display for Report { fn fmt(&self) -> bool { true } }\n\
                   impl<S: Store> Engine<S> { fn run(&self) {} }";
        let p = parse_file("x.rs", src);
        let names: Vec<String> = p.fns.iter().map(|f| f.qualified()).collect();
        assert_eq!(names, vec!["Report::fmt", "Engine::run"]);
    }

    #[test]
    fn cfg_test_fns_are_flagged() {
        let src = "fn prod() {}\n#[cfg(test)]\nmod tests { fn helper() {} }";
        let p = parse_file("x.rs", src);
        assert!(!p.fns[0].in_test);
        assert!(p.fns[1].in_test);
    }

    #[test]
    fn lock_and_guard_classes() {
        assert_eq!(lock_class("Vec < Mutex < Shard > >"), Some("Shard".into()));
        assert_eq!(
            lock_class("RwLock < Box < dyn PageStore > >"),
            Some("PageStore".into())
        );
        assert_eq!(
            lock_class("RwLock < StreamingWarehouse >"),
            Some("StreamingWarehouse".into())
        );
        assert_eq!(lock_class("usize"), None);
        assert_eq!(
            guard_class("RwLockWriteGuard < Box < dyn PageStore > >"),
            Some("PageStore".into())
        );
        assert_eq!(guard_class("Result < ( ) , Error >"), None);
    }

    #[test]
    fn where_clauses_and_tuple_structs_do_not_derail() {
        let src = "struct T(u32, String);\n\
                   struct W<S> where S: Clone { inner: S }\n\
                   fn g<T>(x: T) -> T where T: Clone { x }\n\
                   fn after() {}";
        let p = parse_file("x.rs", src);
        let names: Vec<String> = p.fns.iter().map(|f| f.qualified()).collect();
        assert_eq!(names, vec!["g", "after"]);
        assert_eq!(p.fields.len(), 1);
        assert_eq!(p.fields[0].owner, "W");
    }
}

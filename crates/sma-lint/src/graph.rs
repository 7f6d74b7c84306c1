//! Workspace symbol table and approximate call graph.
//!
//! [`Graph::build`] flattens every parsed file's functions into one symbol
//! table, then extracts call sites and lock/fsync/budget facts from each
//! body. Resolution is deliberately approximate and *conservative in the
//! direction each rule needs*:
//!
//! - `free_fn(...)` resolves to every free function of that name (usually
//!   exactly one across the workspace).
//! - `Type::method(...)` resolves to that type's method when known.
//! - `recv.method(...)` resolves through the receiver when it is `self`,
//!   `self.field` (struct-field type registry), a typed parameter, or the
//!   result of a guard-returning lock wrapper. When the receiver class is
//!   a trait — or the class is unknown — the call fans out to **every**
//!   function of that name: dyn dispatch and generics are treated as
//!   worst case, so "does anything reachable fsync?" errs toward yes.
//! - A bare identifier in argument position naming a known function
//!   (`.map(lock_shard)`) adds an edge too — higher-order acquisition
//!   sites like `shards.iter().map(lock_shard)` must not disappear.
//!
//! Lock acquisitions are recognized three ways: `.read()`/`.write()`/
//! `.lock()` on a receiver whose field/param type holds a `RwLock`/
//! `Mutex` (the lock class is the protected type, see
//! [`crate::parse::lock_class`]), calls to *lock-wrapper* functions whose
//! return type is a guard ([`crate::parse::guard_class`]), and bare
//! references to such wrappers in argument position. Each acquisition
//! carries a liveness span: to the end of the enclosing block for
//! let-bound guards (shortened by an explicit `drop(name)`), to the end
//! of the statement for temporaries.

use std::collections::{BTreeMap, BTreeSet};

use crate::lexer::Tok;
use crate::parse::{guard_class, lock_class, FnItem, OwnerKind, Param, ParsedFile};

/// A call site inside a function body.
#[derive(Debug, Clone)]
pub struct Call {
    /// Candidate callee indexes into [`Graph::fns`] (worst-case set).
    pub targets: Vec<usize>,
    /// The callee name as written.
    pub name: String,
    /// Token index of the callee name (into the owning file's stream).
    pub tok: usize,
    /// 1-based source line.
    pub line: u32,
    /// When the receiver is a lock *guard*, the guarded class: the call is
    /// an operation on the synchronized object under its own lock, which
    /// A1 treats as inherent rather than as I/O under an unrelated guard.
    pub recv_guard: Option<String>,
}

/// One lock acquisition inside a function body.
#[derive(Debug, Clone)]
pub struct Acquire {
    /// The lock class (protected type name), e.g. `Shard`.
    pub class: String,
    /// Token index of the acquisition site.
    pub tok: usize,
    /// Token index one past the guard's liveness (end of statement for
    /// temporaries, end of enclosing block or `drop(..)` for let-bound).
    pub live_end: usize,
    /// 1-based source line.
    pub line: u32,
    /// How the guard is held (for diagnostics): `let <name>` or `temp`.
    pub via: String,
}

/// One function in the graph, with extracted facts.
#[derive(Debug)]
pub struct FnNode {
    /// Index of the owning file in the input slice.
    pub file: usize,
    /// The parsed item (signature, body span).
    pub item: FnItem,
    /// Call sites found in the body.
    pub calls: Vec<Call>,
    /// Lock acquisitions found in the body.
    pub acquires: Vec<Acquire>,
    /// Lines of raw `sync_all` / `sync_data` tokens in the body.
    pub raw_sync_lines: Vec<u32>,
    /// Whether a parameter is a socket type (`TcpStream`, ...): the
    /// function performs blocking socket I/O by construction.
    pub socket_primitive: bool,
    /// Lock class this function hands out, when its return type is a
    /// guard (`read_warehouse` → `StreamingWarehouse`).
    pub lock_wrapper: Option<String>,
    /// Whether a parameter type names `QueryBudget`.
    pub budget_param: bool,
    /// Whether the body names `QueryBudget` (constructs or forwards one).
    pub budget_in_body: bool,
}

impl FnNode {
    /// `Owner::name` or bare `name`.
    pub fn qualified(&self) -> String {
        self.item.qualified()
    }
}

/// The workspace-wide approximate call graph.
#[derive(Debug)]
pub struct Graph {
    /// All non-test functions, in file order.
    pub fns: Vec<FnNode>,
    /// name → fn indexes (methods and free functions alike).
    by_name: BTreeMap<String, Vec<usize>>,
    /// (owner, name) → fn indexes.
    by_qual: BTreeMap<(String, String), Vec<usize>>,
    /// (trait, method name) → fn indexes of the implementing methods
    /// (from `impl Trait for Type` blocks).
    by_trait_impl: BTreeMap<(String, String), Vec<usize>>,
    /// (struct, field) → normalized type text.
    field_ty: BTreeMap<(String, String), String>,
    /// Every type name that owns a method or field in the workspace.
    owners: BTreeSet<String>,
    /// Struct/trait names with a `QueryBudget`-typed field (their methods
    /// count as budget-threading).
    budget_owners: BTreeSet<String>,
}

/// Socket parameter types that make a function a blocking-I/O primitive.
const SOCKET_TYPES: &[&str] = &[
    "TcpStream",
    "TcpListener",
    "UdpSocket",
    "UnixStream",
    "UnixListener",
];

/// Identifiers that look like calls but never are.
const NOT_CALLS: &[&str] = &[
    "if", "while", "match", "for", "loop", "return", "fn", "let", "in", "as", "move", "else",
    "Some", "None", "Ok", "Err", "Box", "Vec", "String", "Arc", "Rc", "Cell", "RefCell",
];

/// Ubiquitous std method names. A method call on an *unresolved* receiver
/// with one of these names is overwhelmingly a std-library call
/// (collections, iterators, options, I/O), so worst-casing it onto every
/// same-named workspace method would drown the graph in false edges.
/// These calls are dropped instead — a documented approximation limit
/// (DESIGN.md §13): a workspace method sharing a std name is only linked
/// when its receiver resolves (self, typed field/param, or lock-wrapper
/// result).
const STD_METHODS: &[&str] = &[
    "len",
    "is_empty",
    "get",
    "get_mut",
    "clone",
    "fmt",
    "next",
    "collect",
    "iter",
    "iter_mut",
    "into_iter",
    "push",
    "pop",
    "insert",
    "remove",
    "contains",
    "contains_key",
    "entry",
    "keys",
    "values",
    "map",
    "and_then",
    "or_else",
    "unwrap_or",
    "unwrap_or_else",
    "unwrap_or_default",
    "ok_or",
    "ok_or_else",
    "filter",
    "filter_map",
    "find",
    "position",
    "any",
    "all",
    "fold",
    "for_each",
    "count",
    "sum",
    "min",
    "max",
    "rev",
    "zip",
    "enumerate",
    "chain",
    "flat_map",
    "flatten",
    "take",
    "skip",
    "take_while",
    "skip_while",
    "last",
    "first",
    "sort",
    "sort_by",
    "sort_by_key",
    "sort_unstable",
    "dedup",
    "extend",
    "drain",
    "clear",
    "retain",
    "truncate",
    "resize",
    "reserve",
    "split",
    "split_at",
    "join",
    "concat",
    "trim",
    "starts_with",
    "ends_with",
    "replace",
    "parse",
    "to_string",
    "to_owned",
    "to_vec",
    "as_ref",
    "as_mut",
    "as_str",
    "as_bytes",
    "as_slice",
    "into",
    "cmp",
    "partial_cmp",
    "eq",
    "ne",
    "hash",
    "min_by",
    "max_by",
    "min_by_key",
    "max_by_key",
    "windows",
    "chunks",
    "copy_from_slice",
    "swap",
    "binary_search",
    "binary_search_by",
    "abs",
    "pow",
    "saturating_add",
    "saturating_sub",
    "checked_add",
    "checked_sub",
    "checked_mul",
    "wrapping_add",
    "is_some",
    "is_none",
    "is_ok",
    "is_err",
    "ok",
    "err",
    "expect",
    "unwrap",
    "display",
    "path",
    "file_name",
    "extension",
    "exists",
    "read",
    "write",
    "flush",
    "read_exact",
    "write_all",
    "read_to_string",
    "read_to_end",
    "seek",
    "lines",
    "bytes",
    "chars",
    "strip_prefix",
    "strip_suffix",
    "to_lowercase",
    "to_uppercase",
    "get_or_insert_with",
    "or_insert",
    "or_insert_with",
    "or_default",
    "push_str",
    "step_by",
    "peekable",
    "peek",
    "max_key",
    "contains_key",
    "splitn",
    "repeat",
    "chunks_exact",
    "to_le_bytes",
    "from_le_bytes",
    "spawn",
    "update",
];

impl Graph {
    /// Builds the graph over parsed files. Test-gated functions are
    /// excluded from the symbol table and get no nodes.
    pub fn build(files: &[ParsedFile]) -> Graph {
        let mut g = Graph {
            fns: Vec::new(),
            by_name: BTreeMap::new(),
            by_qual: BTreeMap::new(),
            by_trait_impl: BTreeMap::new(),
            field_ty: BTreeMap::new(),
            owners: BTreeSet::new(),
            budget_owners: BTreeSet::new(),
        };
        for (fi, pf) in files.iter().enumerate() {
            for field in &pf.fields {
                g.owners.insert(field.owner.clone());
                g.field_ty
                    .insert((field.owner.clone(), field.name.clone()), field.ty.clone());
                if crate::parse::ty_contains(&field.ty, "QueryBudget") {
                    g.budget_owners.insert(field.owner.clone());
                }
            }
            for item in &pf.fns {
                if item.in_test {
                    continue;
                }
                let idx = g.fns.len();
                g.by_name.entry(item.name.clone()).or_default().push(idx);
                if let Some(o) = &item.owner {
                    g.owners.insert(o.clone());
                    g.by_qual
                        .entry((o.clone(), item.name.clone()))
                        .or_default()
                        .push(idx);
                }
                if let Some(t) = &item.trait_impl {
                    g.by_trait_impl
                        .entry((t.clone(), item.name.clone()))
                        .or_default()
                        .push(idx);
                }
                let socket_primitive = item.params.iter().any(|p| {
                    SOCKET_TYPES
                        .iter()
                        .any(|s| crate::parse::ty_contains(&p.ty, s))
                });
                let budget_param = item
                    .params
                    .iter()
                    .any(|p| crate::parse::ty_contains(&p.ty, "QueryBudget"));
                g.fns.push(FnNode {
                    file: fi,
                    item: item.clone(),
                    calls: Vec::new(),
                    acquires: Vec::new(),
                    raw_sync_lines: Vec::new(),
                    socket_primitive,
                    lock_wrapper: guard_class(&item.ret),
                    budget_param,
                    budget_in_body: false,
                });
            }
        }
        // Second pass: extract calls and lock facts from each body.
        for idx in 0..g.fns.len() {
            g.extract_body_facts(idx, files);
        }
        g
    }

    /// All function indexes with the given bare name.
    pub fn by_name(&self, name: &str) -> &[usize] {
        self.by_name.get(name).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Function indexes for `Owner::name`.
    pub fn by_qual(&self, owner: &str, name: &str) -> &[usize] {
        self.by_qual
            .get(&(owner.to_string(), name.to_string()))
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// Whether `owner` has a `QueryBudget`-typed field.
    pub fn owner_has_budget_field(&self, owner: &str) -> bool {
        self.budget_owners.contains(owner)
    }

    /// All qualified symbol names, sorted (fixture assertions).
    pub fn symbol_names(&self) -> Vec<String> {
        let mut v: Vec<String> = self.fns.iter().map(|f| f.qualified()).collect();
        v.sort();
        v
    }

    /// All edges as (caller, callee) qualified-name pairs, sorted and
    /// deduplicated (fixture assertions).
    pub fn edge_names(&self) -> Vec<(String, String)> {
        let mut v: Vec<(String, String)> = Vec::new();
        for f in &self.fns {
            for c in &f.calls {
                for &t in &c.targets {
                    v.push((f.qualified(), self.fns[t].qualified()));
                }
            }
        }
        v.sort();
        v.dedup();
        v
    }

    /// Resolves a method call on a receiver class per the worst-case
    /// policy: concrete struct class → its method only (if present);
    /// trait class → every function with the name (dyn dispatch);
    /// known class with no workspace method → a std method, no edge;
    /// unknown receiver → every same-named method, unless the name is a
    /// ubiquitous std method ([`STD_METHODS`]).
    fn resolve_method(&self, class: Option<&str>, name: &str) -> Vec<usize> {
        if let Some(c) = class {
            let exact = self.by_qual(c, name);
            if !exact.is_empty() {
                let is_trait = exact
                    .iter()
                    .any(|&i| self.fns[i].item.owner_kind == OwnerKind::Trait);
                if !is_trait {
                    return exact.to_vec();
                }
                // Trait method: worst-case dyn dispatch — the trait's
                // declaration/default plus every *implementor's* method
                // (fan-out restricted to `impl Trait for Type` blocks; an
                // unrelated same-named method is not a dispatch target).
                let mut all: Vec<usize> = exact.to_vec();
                if let Some(impls) = self.by_trait_impl.get(&(c.to_string(), name.to_string())) {
                    all.extend(impls.iter().copied());
                }
                all.sort_unstable();
                all.dedup();
                return all;
            }
            // The receiver type is known and the workspace defines no such
            // method on it: a std-library call (Vec::push, BTreeMap::get).
            return Vec::new();
        }
        if STD_METHODS.contains(&name) {
            return Vec::new();
        }
        self.by_name(name).to_vec()
    }

    /// Extracts calls, acquisitions, and raw-sync facts for `fns[idx]`.
    fn extract_body_facts(&mut self, idx: usize, files: &[ParsedFile]) {
        let (file_idx, body, owner, params) = {
            let f = &self.fns[idx];
            let Some(body) = f.item.body else { return };
            (f.file, body, f.item.owner.clone(), f.item.params.clone())
        };
        let toks = &files[file_idx].tokens;
        let (start, end) = body;
        let locals = collect_locals(self, toks, start, end, owner.as_deref(), &params);
        let mut calls: Vec<Call> = Vec::new();
        let mut acquires: Vec<Acquire> = Vec::new();
        let mut raw_sync_lines: Vec<u32> = Vec::new();
        let mut budget_in_body = false;

        let mut i = start;
        while i < end {
            let Tok::Ident(name) = &toks[i].tok else {
                i += 1;
                continue;
            };
            let line = toks[i].line;
            if name == "QueryBudget" {
                budget_in_body = true;
            }
            if name == "sync_all" || name == "sync_data" {
                raw_sync_lines.push(line);
            }
            let next_open = matches!(toks.get(i + 1).map(|t| &t.tok), Some(Tok::Punct('(')));
            let prev_dot = i > start && matches!(toks[i - 1].tok, Tok::Punct('.'));
            let prev_colons = i >= start + 2
                && matches!(toks[i - 1].tok, Tok::Punct(':'))
                && matches!(toks[i - 2].tok, Tok::Punct(':'));

            if next_open && prev_dot {
                // Method call `recv.name(...)`.
                let recv = receiver_class(
                    self,
                    toks,
                    start,
                    i - 1,
                    owner.as_deref(),
                    &params,
                    &locals,
                    0,
                );
                // Lock acquisition via `.read()/.write()/.lock()` on a
                // lock-typed receiver.
                if matches!(name.as_str(), "read" | "write" | "lock") {
                    if let ReceiverClass::Lock(class) = &recv {
                        acquires.push(make_acquire(toks, start, end, i, class.clone(), line));
                        i += 1;
                        continue;
                    }
                }
                let class = match &recv {
                    ReceiverClass::Known(c) | ReceiverClass::Guard(c) => Some(c.as_str()),
                    _ => None,
                };
                let recv_guard = match &recv {
                    ReceiverClass::Guard(c) => Some(c.clone()),
                    _ => None,
                };
                let targets = self.resolve_method(class, name);
                if !targets.is_empty() {
                    // Calls to lock wrappers are acquisition sites too.
                    push_wrapper_acquires(self, &targets, toks, start, end, i, line, &mut acquires);
                    calls.push(Call {
                        targets,
                        name: name.clone(),
                        tok: i,
                        line,
                        recv_guard,
                    });
                }
            } else if next_open && prev_colons {
                // Qualified call `Path::name(...)`: the segment before
                // `::` narrows the owner.
                let qual = match toks.get(i.wrapping_sub(3)).map(|t| &t.tok) {
                    Some(Tok::Ident(q)) => Some(q.clone()),
                    _ => None,
                };
                let targets = match &qual {
                    Some(q) if q == "Self" => match &owner {
                        Some(o) => self.by_qual(o, name).to_vec(),
                        None => Vec::new(),
                    },
                    Some(q) => {
                        let exact = self.by_qual(q, name);
                        if exact.is_empty() {
                            // A module path (`ingest::flush(..)`) resolves
                            // to the free function; a std type path
                            // (`File::create`) matches nothing and gets no
                            // edge — falling back to same-named *methods*
                            // here would invent edges from std calls.
                            self.by_name(name)
                                .iter()
                                .copied()
                                .filter(|&t| self.fns[t].item.owner.is_none())
                                .collect()
                        } else {
                            exact.to_vec()
                        }
                    }
                    None => Vec::new(),
                };
                if !targets.is_empty() {
                    push_wrapper_acquires(self, &targets, toks, start, end, i, line, &mut acquires);
                    calls.push(Call {
                        targets,
                        name: name.clone(),
                        tok: i,
                        line,
                        recv_guard: None,
                    });
                }
            } else if next_open {
                // Bare call `name(...)` — free functions, or an inherent
                // method called without `self.` does not exist in Rust, so
                // restrict to free fns; fall back to same-owner method
                // (macro-expanded style) when no free fn matches.
                if !NOT_CALLS.contains(&name.as_str()) {
                    let free: Vec<usize> = self
                        .by_name(name)
                        .iter()
                        .copied()
                        .filter(|&t| self.fns[t].item.owner.is_none())
                        .collect();
                    let targets = if free.is_empty() {
                        match &owner {
                            Some(o) => self.by_qual(o, name).to_vec(),
                            None => Vec::new(),
                        }
                    } else {
                        free
                    };
                    if !targets.is_empty() {
                        push_wrapper_acquires(
                            self,
                            &targets,
                            toks,
                            start,
                            end,
                            i,
                            line,
                            &mut acquires,
                        );
                        calls.push(Call {
                            targets,
                            name: name.clone(),
                            tok: i,
                            line,
                            recv_guard: None,
                        });
                    }
                }
            } else if !next_open && !prev_dot && !prev_colons {
                // Bare identifier in argument position naming a known
                // free function: a higher-order reference (`map(f)`).
                let arg_pos = i > start
                    && matches!(toks[i - 1].tok, Tok::Punct('(') | Tok::Punct(','))
                    && matches!(
                        toks.get(i + 1).map(|t| &t.tok),
                        Some(Tok::Punct(')') | Tok::Punct(','))
                    );
                if arg_pos && !NOT_CALLS.contains(&name.as_str()) {
                    let free: Vec<usize> = self
                        .by_name(name)
                        .iter()
                        .copied()
                        .filter(|&t| self.fns[t].item.owner.is_none())
                        .collect();
                    if !free.is_empty() {
                        push_wrapper_acquires(
                            self,
                            &free,
                            toks,
                            start,
                            end,
                            i,
                            line,
                            &mut acquires,
                        );
                        calls.push(Call {
                            targets: free,
                            name: name.clone(),
                            tok: i,
                            line,
                            recv_guard: None,
                        });
                    }
                }
            }
            i += 1;
        }

        let f = &mut self.fns[idx];
        f.calls = calls;
        f.acquires = acquires;
        f.raw_sync_lines = raw_sync_lines;
        f.budget_in_body = budget_in_body;
    }
}

/// Scans a body for `let [mut] name = <expr>;` / `let name: Ty = ...`
/// statements and records each binding's class when it resolves: via the
/// ascribed type, a struct literal (`= Shape { .. }`), or by typing the
/// right-hand-side expression with [`receiver_class`] (constructor calls,
/// lock-wrapper calls, guard-returning `.write()` chains). Sequential, so
/// later bindings can reference earlier ones. Flow-insensitive: one class
/// per name, last recorded wins.
fn collect_locals(
    g: &Graph,
    toks: &[crate::lexer::Token],
    start: usize,
    end: usize,
    owner: Option<&str>,
    params: &[Param],
) -> Locals {
    let mut locals: Locals = BTreeMap::new();
    let mut k = start;
    while k < end {
        if !matches!(&toks[k].tok, Tok::Ident(w) if w == "let") {
            k += 1;
            continue;
        }
        let mut m = k + 1;
        if matches!(toks.get(m).map(|t| &t.tok), Some(Tok::Ident(w)) if w == "mut") {
            m += 1;
        }
        let name = match toks.get(m).map(|t| &t.tok) {
            Some(Tok::Ident(n)) => n.clone(),
            _ => {
                k += 1;
                continue;
            }
        };
        // Type ascription: `let name : TYPE =` — the declared type wins.
        let mut eq = m + 1;
        if matches!(toks.get(eq).map(|t| &t.tok), Some(Tok::Punct(':'))) {
            let ty_start = eq + 1;
            let mut d = 0i32;
            let mut p = ty_start;
            while p < end {
                match &toks[p].tok {
                    Tok::Punct('<') => d += 1,
                    Tok::Punct('>') => d -= 1,
                    Tok::Punct('=') if d <= 0 => break,
                    Tok::Punct(';') => break,
                    _ => {}
                }
                p += 1;
            }
            if p < end && matches!(toks[p].tok, Tok::Punct('=')) {
                let ty_text = tokens_text(&toks[ty_start..p]);
                if let c @ (ReceiverClass::Known(_)
                | ReceiverClass::Guard(_)
                | ReceiverClass::Lock(_)) = class_of_type(&ty_text)
                {
                    locals.insert(name.clone(), c);
                }
                eq = p;
            } else {
                k = m + 1;
                continue;
            }
        } else if !matches!(toks.get(eq).map(|t| &t.tok), Some(Tok::Punct('='))) {
            // `if let Some(x) = ...` patterns, `for` desugars, etc.
            k = m + 1;
            continue;
        }
        // Struct literal `= Shape { .. }`.
        let rhs = eq + 1;
        if let (Some(Tok::Ident(t)), Some(Tok::Punct('{'))) = (
            toks.get(rhs).map(|t| &t.tok),
            toks.get(rhs + 1).map(|t| &t.tok),
        ) {
            if t.chars().next().is_some_and(char::is_uppercase) {
                locals.insert(name.clone(), ReceiverClass::Known(t.clone()));
                k = m + 1;
                continue;
            }
        }
        // General RHS: find the statement's `;` at bracket depth 0 and
        // type the expression ending there.
        let mut d = 0i32;
        let mut p = rhs;
        let mut semi = None;
        while p < end {
            match &toks[p].tok {
                Tok::Punct('(') | Tok::Punct('[') | Tok::Punct('{') => d += 1,
                Tok::Punct(')') | Tok::Punct(']') | Tok::Punct('}') => {
                    d -= 1;
                    if d < 0 {
                        break;
                    }
                }
                Tok::Punct(';') if d == 0 => {
                    semi = Some(p);
                    break;
                }
                _ => {}
            }
            p += 1;
        }
        if !locals.contains_key(&name) {
            if let Some(s) = semi {
                if let c @ (ReceiverClass::Known(_)
                | ReceiverClass::Guard(_)
                | ReceiverClass::Lock(_)) =
                    receiver_class(g, toks, start, s, owner, params, &locals, 0)
                {
                    locals.insert(name, c);
                }
            }
        }
        k = m + 1;
    }
    locals
}

/// Rebuilds source-ish text from a token slice (space-separated), matching
/// the normalized type format [`crate::parse`] stores for fields/params.
fn tokens_text(toks: &[crate::lexer::Token]) -> String {
    let mut s = String::new();
    for t in toks {
        if !s.is_empty() {
            s.push(' ');
        }
        match &t.tok {
            Tok::Ident(w) | Tok::Int(w) => s.push_str(w),
            Tok::Punct(c) => s.push(*c),
            _ => {}
        }
    }
    s
}

/// What the receiver of a method call resolved to.
#[derive(Clone)]
enum ReceiverClass {
    /// A concrete type or trait name.
    Known(String),
    /// A lock *guard* over this class: dispatch works like [`Known`], but
    /// calls through it are operations under the object's own lock
    /// (recorded in [`Call::recv_guard`]).
    Guard(String),
    /// A field/param whose type holds a lock — `.read()/.write()/.lock()`
    /// on it is an acquisition of this class.
    Lock(String),
    /// Could not resolve (call chains, literals).
    Unknown,
}

/// Method names that return (a view of) their receiver: resolution sees
/// through them to the inner expression's class
/// (`self.warehouse.write().unwrap()` types as the lock's guard).
const TRANSPARENT_METHODS: &[&str] = &[
    "unwrap",
    "expect",
    "as_ref",
    "as_mut",
    "as_deref",
    "as_deref_mut",
    "borrow",
    "borrow_mut",
];

/// Typed local bindings collected from `let` statements, name → class.
type Locals = BTreeMap<String, ReceiverClass>;

/// Resolves the receiver expression ending just before `dot`: walks back
/// over `ident`, `self`, balanced `(...)`/`[...]` groups, `?`, and `.`
/// separators. `dot` may also point at a statement terminator (`;`) — the
/// same walk then types the whole right-hand-side expression, which is how
/// let-bound locals get their classes.
#[allow(clippy::too_many_arguments)] // internal walker; the args are one lexical context
fn receiver_class(
    g: &Graph,
    toks: &[crate::lexer::Token],
    start: usize,
    dot: usize,
    owner: Option<&str>,
    params: &[Param],
    locals: &Locals,
    depth: u32,
) -> ReceiverClass {
    if depth > 8 || dot <= start {
        return ReceiverClass::Unknown;
    }
    let mut j = dot - 1; // last token of the receiver expression
    loop {
        match &toks[j].tok {
            Tok::Punct('?') => {
                if j == start {
                    return ReceiverClass::Unknown;
                }
                j -= 1;
            }
            Tok::Punct(']') => {
                // Index group — transparent (`shards[i].lock()` dispatches
                // on the element, which the field's type already names).
                let mut d = 0i32;
                loop {
                    match &toks[j].tok {
                        Tok::Punct(']') => d += 1,
                        Tok::Punct('[') => {
                            d -= 1;
                            if d == 0 {
                                break;
                            }
                        }
                        _ => {}
                    }
                    if j == start {
                        return ReceiverClass::Unknown;
                    }
                    j -= 1;
                }
                if j == start {
                    return ReceiverClass::Unknown;
                }
                j -= 1;
            }
            Tok::Punct(')') => {
                let mut d = 0i32;
                loop {
                    match &toks[j].tok {
                        Tok::Punct(')') => d += 1,
                        Tok::Punct('(') => {
                            d -= 1;
                            if d == 0 {
                                break;
                            }
                        }
                        _ => {}
                    }
                    if j == start {
                        return ReceiverClass::Unknown;
                    }
                    j -= 1;
                }
                if j == start {
                    return ReceiverClass::Unknown;
                }
                // A call group: the ident before `(` names the callee.
                let Some(Tok::Ident(m)) = toks.get(j - 1).map(|t| &t.tok) else {
                    return ReceiverClass::Unknown;
                };
                let m = m.clone();
                let m_idx = j - 1;
                let after_dot = m_idx > start && matches!(toks[m_idx - 1].tok, Tok::Punct('.'));
                if after_dot && TRANSPARENT_METHODS.contains(&m.as_str()) {
                    if m_idx < start + 2 {
                        return ReceiverClass::Unknown;
                    }
                    j = m_idx - 2; // keep walking the inner expression
                    continue;
                }
                return call_result_class(g, toks, start, m_idx, &m, owner, params, locals, depth);
            }
            _ => break,
        }
    }
    // Now at the last token of a name chain `a.b.c` — collect it.
    let mut chain: Vec<String> = Vec::new();
    while let Tok::Ident(s) = &toks[j].tok {
        chain.push(s.clone());
        if j < start + 2 || !matches!(toks[j - 1].tok, Tok::Punct('.')) {
            break;
        }
        j -= 2;
    }
    chain.reverse();
    match chain.as_slice() {
        [one] if one == "self" => match owner {
            Some(o) => ReceiverClass::Known(o.to_string()),
            None => ReceiverClass::Unknown,
        },
        [one] => {
            // A parameter with a known type, else a typed local binding.
            match params
                .iter()
                .find(|p| &p.name == one)
                .map(|p| p.ty.as_str())
            {
                Some(ty) => class_of_type(ty),
                None => locals
                    .get(one.as_str())
                    .cloned()
                    .unwrap_or(ReceiverClass::Unknown),
            }
        }
        [maybe_self, field] if maybe_self == "self" => {
            let Some(o) = owner else {
                return ReceiverClass::Unknown;
            };
            match field_type(g, o, field) {
                Some(ty) => class_of_type(&ty),
                None => ReceiverClass::Unknown,
            }
        }
        _ => ReceiverClass::Unknown,
    }
}

/// Types the result of a call whose callee name token sits at `m_idx`:
/// lock wrappers yield their guard's class; `.read()/.write()/.lock()` on
/// a lock-typed receiver yields the protected class; everything else uses
/// the callee's declared return type ([`ret_class`]).
#[allow(clippy::too_many_arguments)]
fn call_result_class(
    g: &Graph,
    toks: &[crate::lexer::Token],
    start: usize,
    m_idx: usize,
    m: &str,
    owner: Option<&str>,
    params: &[Param],
    locals: &Locals,
    depth: u32,
) -> ReceiverClass {
    let after_dot = m_idx > start && matches!(toks[m_idx - 1].tok, Tok::Punct('.'));
    let after_colons = m_idx >= start + 2
        && matches!(toks[m_idx - 1].tok, Tok::Punct(':'))
        && matches!(toks[m_idx - 2].tok, Tok::Punct(':'));
    let cands: Vec<usize> = if after_dot {
        // `recv.m(...)` — type the inner receiver first.
        match receiver_class(g, toks, start, m_idx - 1, owner, params, locals, depth + 1) {
            ReceiverClass::Lock(c) => {
                if matches!(m, "read" | "write" | "lock") {
                    return ReceiverClass::Guard(c);
                }
                Vec::new()
            }
            ReceiverClass::Known(c) | ReceiverClass::Guard(c) => g.by_qual(&c, m).to_vec(),
            ReceiverClass::Unknown => {
                if STD_METHODS.contains(&m) {
                    Vec::new()
                } else {
                    match owner {
                        Some(o) if !g.by_qual(o, m).is_empty() => g.by_qual(o, m).to_vec(),
                        _ => g.by_name(m).to_vec(),
                    }
                }
            }
        }
    } else if after_colons {
        // `T::m(...)` — a constructor or associated call.
        let t = match toks.get(m_idx.wrapping_sub(3)).map(|t| &t.tok) {
            Some(Tok::Ident(q)) => Some(q.clone()),
            _ => None,
        };
        let Some(q) = t else {
            return ReceiverClass::Unknown;
        };
        let qn = if q == "Self" {
            match owner {
                Some(o) => o.to_string(),
                None => return ReceiverClass::Unknown,
            }
        } else {
            q
        };
        let exact = g.by_qual(&qn, m);
        if exact.is_empty() {
            // A derived/std constructor on a workspace type
            // (`Params::default()`) still yields that type.
            if g.owners.contains(&qn) {
                return ReceiverClass::Known(qn);
            }
            return ReceiverClass::Unknown;
        }
        exact.to_vec()
    } else {
        // Bare `m(...)`: free functions only.
        g.by_name(m)
            .iter()
            .copied()
            .filter(|&t| g.fns[t].item.owner.is_none())
            .collect()
    };
    for &c in &cands {
        if let Some(class) = &g.fns[c].lock_wrapper {
            return ReceiverClass::Guard(class.clone());
        }
    }
    for &c in &cands {
        if let Some(class) = ret_class(g, c) {
            return ReceiverClass::Known(class);
        }
    }
    ReceiverClass::Unknown
}

/// The class a function's return type names, unwrapping `Result`/`Option`
/// (Ok type), smart pointers, references, and `Self`.
fn ret_class(g: &Graph, idx: usize) -> Option<String> {
    let f = &g.fns[idx];
    type_result_class(&f.item.ret, f.item.owner.as_deref())
}

/// First concrete type head of `ty` after seeing through wrappers:
/// `io::Result<SmaScan>` → `SmaScan`, `Self` → the owner, `&mut T` → `T`.
fn type_result_class(ty: &str, owner: Option<&str>) -> Option<String> {
    let mut words: Vec<String> = Vec::new();
    let mut cur = String::new();
    for ch in ty.chars() {
        if ch.is_alphanumeric() || ch == '_' {
            cur.push(ch);
        } else {
            if !cur.is_empty() {
                words.push(std::mem::take(&mut cur));
            }
            if !ch.is_whitespace() {
                words.push(ch.to_string());
            }
        }
    }
    if !cur.is_empty() {
        words.push(cur);
    }
    class_from_words(&words, owner)
}

fn class_from_words(words: &[String], owner: Option<&str>) -> Option<String> {
    let mut i = 0;
    while i < words.len() {
        match words[i].as_str() {
            "&" | "mut" | "dyn" | "const" | "impl" => i += 1,
            "'" => i += 2, // lifetime: tick + name
            "Result" | "Option" | "Box" | "Arc" | "Rc" => {
                // Unwrap to the first generic argument.
                if words.get(i + 1).map(String::as_str) != Some("<") {
                    return Some(words[i].clone());
                }
                let mut d = 1i32;
                let s = i + 2;
                let mut k = s;
                while k < words.len() {
                    match words[k].as_str() {
                        "<" => d += 1,
                        ">" => {
                            d -= 1;
                            if d == 0 {
                                break;
                            }
                        }
                        "," if d == 1 => break,
                        _ => {}
                    }
                    k += 1;
                }
                return class_from_words(&words[s..k], owner);
            }
            "Self" => return owner.map(str::to_string),
            w if w
                .chars()
                .next()
                .is_some_and(|c| c.is_alphabetic() || c == '_') =>
            {
                // `module :: Type` path: skip lowercase segments.
                if w.chars().next().is_some_and(char::is_lowercase)
                    && words.get(i + 1).map(String::as_str) == Some(":")
                {
                    i += 3;
                    continue;
                }
                return Some(w.to_string());
            }
            _ => return None, // tuples, slices, fn pointers, numbers
        }
    }
    None
}

/// Classifies a receiver's declared type: a lock type is an acquisition
/// target; otherwise method dispatch sees through the deref-transparent
/// smart pointers (`Box<dyn Store>` dispatches on `Store`, not `Box`).
fn class_of_type(ty: &str) -> ReceiverClass {
    if let Some(class) = lock_class(ty) {
        return ReceiverClass::Lock(class);
    }
    if let Some(class) = guard_class(ty) {
        return ReceiverClass::Guard(class);
    }
    let head = ty
        .split_whitespace()
        .filter(|w| !w.is_empty() && w.chars().all(|c| c.is_alphanumeric() || c == '_'))
        .find(|w| !matches!(*w, "mut" | "dyn" | "const" | "impl" | "Box" | "Arc" | "Rc"));
    match head {
        Some(h) => ReceiverClass::Known(h.to_string()),
        None => ReceiverClass::Unknown,
    }
}

/// Looks up a struct field's type.
fn field_type(g: &Graph, owner: &str, field: &str) -> Option<String> {
    g.field_ty
        .get(&(owner.to_string(), field.to_string()))
        .cloned()
}

/// If any call target is a lock-wrapper function, records an acquisition
/// at the call site.
#[allow(clippy::too_many_arguments)]
fn push_wrapper_acquires(
    g: &Graph,
    targets: &[usize],
    toks: &[crate::lexer::Token],
    start: usize,
    end: usize,
    site: usize,
    line: u32,
    out: &mut Vec<Acquire>,
) {
    let mut classes: BTreeSet<String> = BTreeSet::new();
    for &t in targets {
        if let Some(c) = &g.fns[t].lock_wrapper {
            classes.insert(c.clone());
        }
    }
    for class in classes {
        out.push(make_acquire(toks, start, end, site, class, line));
    }
}

/// Builds an [`Acquire`] with its liveness span: let-bound guards live to
/// the end of the enclosing block (or an explicit `drop(name)`);
/// temporaries live to the end of the statement.
fn make_acquire(
    toks: &[crate::lexer::Token],
    start: usize,
    end: usize,
    site: usize,
    class: String,
    line: u32,
) -> Acquire {
    // Scan back to the statement start: the token after the previous
    // `;`, `{`, or `}` — then look for `let <name>`.
    let mut s = site;
    while s > start {
        match toks[s - 1].tok {
            Tok::Punct(';') | Tok::Punct('{') | Tok::Punct('}') => break,
            _ => s -= 1,
        }
    }
    let mut bound: Option<String> = None;
    if matches!(&toks[s].tok, Tok::Ident(k) if k == "let") {
        // `let [mut] name` — also covers `let (a, b)` poorly (first ident).
        for t in toks.iter().take(site).skip(s + 1) {
            match &t.tok {
                Tok::Ident(k) if k == "mut" => continue,
                Tok::Ident(n) => {
                    bound = Some(n.clone());
                    break;
                }
                _ => break,
            }
        }
    }
    // The binding holds the guard only when the acquisition call is the
    // outermost postfix of the right-hand side. In
    // `let no = self.write_store().allocate()?;` the binding holds
    // `allocate`'s result — the guard is a temporary that dies at the `;`.
    if bound.is_some() && matches!(toks.get(site + 1).map(|t| &t.tok), Some(Tok::Punct('('))) {
        let mut d = 0i32;
        let mut k = site + 1;
        while k < end {
            match &toks[k].tok {
                Tok::Punct('(') => d += 1,
                Tok::Punct(')') => {
                    d -= 1;
                    if d == 0 {
                        break;
                    }
                }
                _ => {}
            }
            k += 1;
        }
        let mut after = k + 1;
        while matches!(toks.get(after).map(|t| &t.tok), Some(Tok::Punct('?'))) {
            after += 1;
        }
        if matches!(toks.get(after).map(|t| &t.tok), Some(Tok::Punct('.'))) {
            bound = None;
        }
    }
    let live_end = match &bound {
        Some(name) => {
            // End of enclosing block: first `}` that drops brace depth
            // below zero relative to the site; shortened by `drop(name)`.
            let mut depth = 0i32;
            let mut j = site;
            let mut stop = end;
            while j < end {
                match &toks[j].tok {
                    Tok::Punct('{') => depth += 1,
                    Tok::Punct('}') => {
                        depth -= 1;
                        if depth < 0 {
                            stop = j;
                            break;
                        }
                    }
                    Tok::Ident(d)
                        if d == "drop"
                            && depth >= 0
                            && matches!(toks.get(j + 1).map(|t| &t.tok), Some(Tok::Punct('(')))
                            && matches!(
                                toks.get(j + 2).map(|t| &t.tok),
                                Some(Tok::Ident(n)) if n == name
                            ) =>
                    {
                        stop = j;
                        break;
                    }
                    _ => {}
                }
                j += 1;
            }
            stop
        }
        None => {
            // Temporary: end of statement (`;` at relative depth 0, or
            // enclosing block end).
            let mut depth = 0i32;
            let mut j = site;
            let mut stop = end;
            while j < end {
                match &toks[j].tok {
                    Tok::Punct('{') | Tok::Punct('(') | Tok::Punct('[') => depth += 1,
                    Tok::Punct(')') | Tok::Punct(']') => depth -= 1,
                    Tok::Punct('}') => {
                        depth -= 1;
                        if depth < 0 {
                            stop = j;
                            break;
                        }
                    }
                    Tok::Punct(';') if depth <= 0 => {
                        stop = j;
                        break;
                    }
                    _ => {}
                }
                j += 1;
            }
            stop
        }
    };
    Acquire {
        class,
        tok: site,
        live_end,
        line,
        via: bound
            .map(|n| format!("let {n}"))
            .unwrap_or_else(|| "temp".into()),
    }
}

/// Transitive effects computed over the graph by fixpoint.
#[derive(Debug)]
pub struct Effects {
    /// Reaches a raw `sync_all`/`sync_data` (full graph, no cuts).
    pub reaches_fsync: Vec<bool>,
    /// Reaches blocking socket I/O.
    pub reaches_socket: Vec<bool>,
    /// Lock classes transitively acquired (direct + callees).
    pub acquires: Vec<BTreeSet<String>>,
}

/// Computes transitive effects. `cut` names functions (qualified) whose
/// outgoing edges are ignored — used by A4's residual-graph check; pass
/// an empty set for the full graph.
pub fn effects(g: &Graph, cut: &BTreeSet<String>) -> Effects {
    let n = g.fns.len();
    let mut reaches_fsync: Vec<bool> = g.fns.iter().map(|f| !f.raw_sync_lines.is_empty()).collect();
    let mut reaches_socket: Vec<bool> = g.fns.iter().map(|f| f.socket_primitive).collect();
    let mut acquires: Vec<BTreeSet<String>> = g
        .fns
        .iter()
        .map(|f| f.acquires.iter().map(|a| a.class.clone()).collect())
        .collect();
    let is_cut: Vec<bool> = g.fns.iter().map(|f| cut.contains(&f.qualified())).collect();
    let mut changed = true;
    while changed {
        changed = false;
        for i in 0..n {
            if is_cut[i] {
                continue;
            }
            for c in &g.fns[i].calls {
                for &t in &c.targets {
                    if reaches_fsync[t] && !reaches_fsync[i] {
                        reaches_fsync[i] = true;
                        changed = true;
                    }
                    if reaches_socket[t] && !reaches_socket[i] {
                        reaches_socket[i] = true;
                        changed = true;
                    }
                    if !acquires[t].is_empty() {
                        let extra: Vec<String> = acquires[t]
                            .iter()
                            .filter(|c| !acquires[i].contains(*c))
                            .cloned()
                            .collect();
                        if !extra.is_empty() {
                            acquires[i].extend(extra);
                            changed = true;
                        }
                    }
                }
            }
        }
    }
    Effects {
        reaches_fsync,
        reaches_socket,
        acquires,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse_file;

    fn graph_of(srcs: &[(&str, &str)]) -> (Vec<ParsedFile>, Graph) {
        let files: Vec<ParsedFile> = srcs.iter().map(|(p, s)| parse_file(p, s)).collect();
        let g = Graph::build(&files);
        (files, g)
    }

    #[test]
    fn diamond_call_graph_exact_edges() {
        let src = r#"
            fn a() { b(); c(); }
            fn b() { d(); }
            fn c() { d(); }
            fn d() {}
        "#;
        let (_f, g) = graph_of(&[("crates/x/src/lib.rs", src)]);
        assert_eq!(g.symbol_names(), vec!["a", "b", "c", "d"]);
        assert_eq!(
            g.edge_names(),
            vec![
                ("a".to_string(), "b".to_string()),
                ("a".to_string(), "c".to_string()),
                ("b".to_string(), "d".to_string()),
                ("c".to_string(), "d".to_string()),
            ]
        );
    }

    #[test]
    fn trait_object_dispatch_is_worst_case() {
        let src = r#"
            trait Store { fn sync(&mut self); }
            struct FileStore;
            impl Store for FileStore { fn sync(&mut self) { sync_all(); } }
            struct MemStore;
            impl Store for MemStore { fn sync(&mut self) {} }
            struct Pool { store: Box<dyn Store> }
            impl Pool { fn flush(&mut self) { self.store.sync(); } }
            fn sync_all() {}
        "#;
        let (_f, g) = graph_of(&[("crates/x/src/lib.rs", src)]);
        let edges = g.edge_names();
        // Pool::flush must fan out to every `sync` — the trait decl and
        // both impls — because dyn dispatch is approximated worst-case.
        assert!(edges.contains(&("Pool::flush".into(), "Store::sync".into())));
        assert!(edges.contains(&("Pool::flush".into(), "FileStore::sync".into())));
        assert!(edges.contains(&("Pool::flush".into(), "MemStore::sync".into())));
    }

    #[test]
    fn cross_crate_edges_resolve() {
        let a = "pub fn read_page(n: usize) -> usize { n }";
        let b = r#"
            fn scan() { read_page(0); }
        "#;
        let (_f, g) = graph_of(&[("crates/a/src/lib.rs", a), ("crates/b/src/lib.rs", b)]);
        assert_eq!(
            g.edge_names(),
            vec![("scan".to_string(), "read_page".to_string())]
        );
    }

    #[test]
    fn field_narrowing_beats_name_collision() {
        let src = r#"
            struct Wal;
            impl Wal { fn sync(&mut self) {} }
            struct FileStore;
            impl FileStore { fn sync(&mut self) {} }
            struct Ingest { wal: Wal }
            impl Ingest { fn commit(&mut self) { self.wal.sync(); } }
        "#;
        let (_f, g) = graph_of(&[("crates/x/src/lib.rs", src)]);
        let edges = g.edge_names();
        assert!(edges.contains(&("Ingest::commit".into(), "Wal::sync".into())));
        assert!(!edges.contains(&("Ingest::commit".into(), "FileStore::sync".into())));
    }

    #[test]
    fn lock_acquisitions_and_liveness() {
        let src = r#"
            struct Shard;
            struct Pool { shards: Vec<Mutex<Shard>>, store: RwLock<Store> }
            struct Store;
            impl Pool {
                fn scoped(&self) {
                    let g = self.shards[0].lock();
                    use_it(&g);
                    drop(g);
                    after();
                }
                fn temp(&self) {
                    self.store.read().do_thing();
                    after();
                }
            }
            fn use_it(x: &u32) {}
            fn after() {}
        "#;
        let (_f, g) = graph_of(&[("crates/x/src/lib.rs", src)]);
        let scoped = &g.fns[g.by_qual("Pool", "scoped")[0]];
        assert_eq!(scoped.acquires.len(), 1);
        assert_eq!(scoped.acquires[0].class, "Shard");
        assert!(scoped.acquires[0].via.contains("let g"));
        let temp = &g.fns[g.by_qual("Pool", "temp")[0]];
        assert_eq!(temp.acquires.len(), 1);
        assert_eq!(temp.acquires[0].class, "Store");
        assert_eq!(temp.acquires[0].via, "temp");
    }

    #[test]
    fn lock_wrapper_fn_and_higher_order_reference() {
        let src = r#"
            struct W;
            struct Shared { inner: RwLock<W> }
            impl Shared {
                fn read_w(&self) -> RwLockReadGuard<W> { self.inner.read() }
                fn user(&self) { let w = self.read_w(); touch(&w); }
            }
            struct Shard;
            fn lock_shard(m: &Mutex<Shard>) -> MutexGuard<Shard> { m.lock() }
            struct Pool { shards: Vec<Mutex<Shard>> }
            impl Pool {
                fn all(&self) { let guards = self.shards.iter().map(lock_shard); }
            }
            fn touch(w: &W) {}
        "#;
        let (_f, g) = graph_of(&[("crates/x/src/lib.rs", src)]);
        let read_w = &g.fns[g.by_qual("Shared", "read_w")[0]];
        assert_eq!(read_w.lock_wrapper.as_deref(), Some("W"));
        let user = &g.fns[g.by_qual("Shared", "user")[0]];
        assert!(user.acquires.iter().any(|a| a.class == "W"));
        let all = &g.fns[g.by_qual("Pool", "all")[0]];
        assert!(
            all.acquires.iter().any(|a| a.class == "Shard"),
            "{:?}",
            all.acquires
        );
        let wrapper = &g.fns[g.by_name("lock_shard")[0]];
        assert_eq!(wrapper.lock_wrapper.as_deref(), Some("Shard"));
    }

    #[test]
    fn effects_propagate_and_cuts_stop_them() {
        let src = r#"
            fn leaf() { file.sync_all(); }
            fn blessed() { leaf(); }
            fn caller() { blessed(); }
        "#;
        let (_f, g) = graph_of(&[("crates/x/src/lib.rs", src)]);
        let full = effects(&g, &BTreeSet::new());
        let li = g.by_name("leaf")[0];
        let ci = g.by_name("caller")[0];
        assert!(full.reaches_fsync[li]);
        assert!(full.reaches_fsync[ci]);
        let mut cut = BTreeSet::new();
        cut.insert("blessed".to_string());
        let resid = effects(&g, &cut);
        assert!(resid.reaches_fsync[li]);
        assert!(!resid.reaches_fsync[ci]);
    }
}

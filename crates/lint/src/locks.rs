//! Lock-acquisition-order analysis.
//!
//! Per function, the analyzer extracts every `*.lock()` / `*.read()` /
//! `*.write()` call (empty argument list only, so `io::Read::read(&mut
//! buf)` never matches), determines how long the returned guard plausibly
//! lives, and records an edge `A → B` whenever lock `B` is acquired while
//! a guard for lock `A` is still live. The union of those edges over
//! every crate is the cross-crate acquisition graph; any non-trivial
//! strongly connected component is a potential deadlock and is reported
//! under the `lock-order` rule.
//!
//! Lock identity is lexical: a `self.field.lock()` receiver is keyed as
//! `crate::ImplType.field`, any other receiver as `crate::name`. That is
//! deliberately coarse — two locks that *could* be the same object must
//! be assumed to be — so the graph over-approximates, never misses an
//! edge it can see. Guard liveness is also over-approximated: `let`-bound
//! guards live to the end of their block (or an explicit `drop(var)`),
//! un-bound (temporary) guards to the end of their statement, and `match`
//! scrutinee temporaries to the end of the match — mirroring the
//! language's actual temporary-lifetime rules closely enough for a lint.
//! The one exception is a closure passed to a `spawn(…)` call: its body
//! runs on another thread, so it holds none of the guards live where it
//! is spawned. Every other closure is assumed to run under them, as
//! `iter().for_each(|x| dev.write(x))` does.

use crate::lexer::{SourceFile, Token};
use std::collections::{BTreeMap, BTreeSet};

/// One lock-acquisition site.
#[derive(Clone, Debug)]
pub struct Acquire {
    /// Canonical lock key (`crate::Type.field` or `crate::name`).
    pub lock: String,
    /// `lock`, `read`, or `write`.
    pub method: String,
    /// 1-based line of the call.
    pub line: usize,
}

/// One nesting edge: `inner` acquired while `outer` held.
#[derive(Clone, Debug)]
pub struct Edge {
    /// The already-held lock.
    pub outer: Acquire,
    /// The lock acquired under it.
    pub inner: Acquire,
    /// Workspace-relative file of the inner acquisition (for a transitive
    /// edge: the file of the call site that starts the chain).
    pub file: String,
    /// Function containing the nesting.
    pub func: String,
    /// For transitive edges: the call chain from the holding function to
    /// the acquiring function, outermost call first. Empty for direct
    /// (same-function) edges.
    pub chain: Vec<String>,
}

/// How a call site names its callee — drives resolution in the call
/// graph pass.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CallQual {
    /// `self.foo()` or `Self::foo()` — resolve within the caller's impl.
    SelfRecv,
    /// `path::foo()` / `Type::foo()` — resolve by crate or impl type.
    Qualified(String),
    /// `foo()` — resolve same-file, then same-crate, then unique global.
    Bare,
    /// `recv.foo()` on a non-self receiver — resolve only when the name
    /// uniquely identifies one workspace method.
    Method,
    /// `self.field.foo()` where the struct declares `field` with a
    /// concrete type (behind `Arc`/`Box`/`Rc`): resolves like
    /// [`CallQual::Method`], but a trait call only dispatches to that
    /// type's method. A `dyn`, `impl` or generic field stays `Method`.
    Typed(String),
}

impl CallQual {
    /// Serialized form for the facts table.
    pub fn encode(&self) -> String {
        match self {
            CallQual::SelfRecv => "self".into(),
            CallQual::Qualified(q) => format!("q:{q}"),
            CallQual::Bare => "bare".into(),
            CallQual::Method => "method".into(),
            CallQual::Typed(t) => format!("t:{t}"),
        }
    }

    /// Inverse of [`CallQual::encode`].
    pub fn decode(s: &str) -> CallQual {
        match s {
            "self" => CallQual::SelfRecv,
            "bare" => CallQual::Bare,
            "method" => CallQual::Method,
            q => match q.strip_prefix("t:") {
                Some(t) => CallQual::Typed(t.to_string()),
                None => CallQual::Qualified(q.strip_prefix("q:").unwrap_or(q).to_string()),
            },
        }
    }
}

/// A call site observed during the guard-liveness walk, with the locks
/// held at the moment of the call.
#[derive(Clone, Debug)]
pub struct CallSite {
    /// Callee identifier as written (last path segment).
    pub callee: String,
    /// How the callee was named.
    pub qual: CallQual,
    /// 1-based line of the call.
    pub line: usize,
    /// Guards live at the call, deduplicated by lock key.
    pub held: Vec<Acquire>,
}

/// Keywords and std-ish names that look like `ident(` but are never
/// workspace function calls worth graphing.
const CALL_KEYWORDS: [&str; 28] = [
    "if", "else", "while", "for", "loop", "match", "return", "fn", "let", "in", "as", "move",
    "ref", "mut", "unsafe", "where", "impl", "trait", "use", "pub", "mod", "struct", "enum",
    "type", "const", "static", "dyn", "await",
];

/// Everything the guard-liveness walk learns about one file.
#[derive(Default)]
pub struct FileWalk {
    /// Direct lock-nesting edges.
    pub edges: Vec<Edge>,
    /// Every call site with its held-lock set.
    pub calls: Vec<CallSite>,
    /// Every lock-acquisition site (nested or not).
    pub acquires: Vec<Acquire>,
}

/// Extract nesting edges from one file. `tokens` must come from
/// [`SourceFile::scan`]. Test regions are skipped.
pub fn extract_edges(file: &SourceFile) -> Vec<Edge> {
    analyze_file(file).edges
}

/// `(struct, field) -> type` for every named struct field in the file
/// whose declared type is concrete: `Arc<MemFcb>` and `PageFile` name a
/// type, while `Arc<dyn Fcb>`, `impl Fcb` and a struct's own generic
/// parameters do not and are left out.
fn field_types(toks: &[Token]) -> BTreeMap<(String, String), String> {
    let mut out = BTreeMap::new();
    let mut i = 0;
    while i + 1 < toks.len() {
        if toks[i].text != "struct" || !ident_like(&toks[i + 1]) {
            i += 1;
            continue;
        }
        let name = toks[i + 1].text.clone();
        // Generic parameters and their bounds, up to the body.
        let mut generics: BTreeSet<&str> = BTreeSet::new();
        let mut j = i + 2;
        while j < toks.len() && !matches!(toks[j].text.as_str(), "{" | "(" | ";") {
            generics.insert(toks[j].text.as_str());
            j += 1;
        }
        if toks.get(j).map(|t| t.text.as_str()) != Some("{") {
            i = j;
            continue;
        }
        // Fields: `[pub[(..)]] name : type ,` at nesting depth 0.
        let mut k = j + 1;
        while k < toks.len() && toks[k].text != "}" {
            let start = k;
            let mut depth = 0i32;
            while k < toks.len() {
                match toks[k].text.as_str() {
                    "<" | "(" | "[" => depth += 1,
                    ">" | ")" | "]" => depth -= 1,
                    "," | "}" if depth <= 0 => break,
                    _ => {}
                }
                k += 1;
            }
            let field = &toks[start..k];
            if let Some(colon) = field.iter().position(|t| t.text == ":") {
                let ty = &field[colon + 1..];
                if let (Some(f), Some(t)) = (field[..colon].last(), concrete_type(ty, &generics)) {
                    out.insert((name.clone(), f.text.clone()), t);
                }
            }
            if toks.get(k).map(|t| t.text.as_str()) == Some(",") {
                k += 1;
            }
        }
        i = k;
    }
    out
}

/// The type a field's method calls go to: the head of `ty` once smart
/// pointers and references are peeled, if it is a concrete type.
fn concrete_type(ty: &[Token], generics: &BTreeSet<&str>) -> Option<String> {
    let mut rest = ty;
    loop {
        let head = rest.first()?;
        match head.text.as_str() {
            "&" | "mut" | "'" => rest = &rest[1..],
            "Arc" | "Box" | "Rc" if rest.get(1).is_some_and(|t| t.text == "<") => rest = &rest[2..],
            "dyn" | "impl" => return None,
            _ if head.text.starts_with(|c: char| c.is_ascii_uppercase())
                && !generics.contains(head.text.as_str()) =>
            {
                return Some(head.text.clone())
            }
            _ if ident_like(head) && rest.get(1).is_some_and(|t| t.text == ":") => {
                rest = &rest[1..] // path segment: `std::sync::Arc<..>`
            }
            ":" => rest = &rest[1..],
            _ => return None,
        }
    }
}

/// Classify the token at `i` as a call site, if it is one. `fields`
/// types a `self.field.foo()` receiver (see [`field_types`]).
fn call_at(
    file: &SourceFile,
    fields: &BTreeMap<(String, String), String>,
    i: usize,
) -> Option<(String, CallQual)> {
    let toks = &file.tokens;
    let t = &toks[i];
    if !ident_like(t) {
        return None;
    }
    let c0 = t.text.chars().next()?;
    // Uppercase idents are tuple-struct/variant constructors or types;
    // workspace fn names are snake_case.
    if c0.is_ascii_digit() || c0.is_ascii_uppercase() {
        return None;
    }
    if CALL_KEYWORDS.contains(&t.text.as_str()) || t.text == "drop" {
        return None;
    }
    if toks.get(i + 1).map(|t| t.text.as_str()) != Some("(") {
        return None;
    }
    if i > 0 && toks[i - 1].text == "fn" {
        return None; // definition, not a call
    }
    if i >= 2 && toks[i - 1].text == "[" && toks[i - 2].text == "#" {
        return None; // attribute like #[inline(always)]
    }
    let qual = if i >= 1 && toks[i - 1].text == "." {
        let self_field = i >= 4
            && toks[i - 3].text == "."
            && toks[i - 4].text == "self"
            && (i < 5 || toks[i - 5].text != ".");
        if i >= 2 && toks[i - 2].text == "self" && (i < 3 || toks[i - 3].text != ".") {
            CallQual::SelfRecv
        } else if let Some(ty) = self_field
            .then(|| file.enclosing_fn(t.line).and_then(|f| f.impl_type.clone()))
            .flatten()
            .and_then(|owner| fields.get(&(owner, toks[i - 2].text.clone())))
        {
            CallQual::Typed(ty.clone())
        } else {
            CallQual::Method
        }
    } else if i >= 2 && toks[i - 1].text == ":" && toks[i - 2].text == ":" {
        if i >= 3 && ident_like(&toks[i - 3]) {
            let q = toks[i - 3].text.clone();
            if q == "Self" || q == "self" {
                CallQual::SelfRecv
            } else {
                CallQual::Qualified(q)
            }
        } else {
            CallQual::Bare
        }
    } else {
        CallQual::Bare
    };
    Some((t.text.clone(), qual))
}

/// Walk one file: lock-nesting edges plus every call site with its
/// held-lock set. Test regions are skipped.
pub fn analyze_file(file: &SourceFile) -> FileWalk {
    let mut edges = Vec::new();
    let mut calls: Vec<CallSite> = Vec::new();
    let mut acquires: Vec<Acquire> = Vec::new();
    let toks = &file.tokens;
    struct Guard {
        acq: Acquire,
        /// Brace depth at acquisition; dies when depth drops below this.
        depth: i32,
        /// `let`-bound variable name, if any (killed by `drop(var)`).
        var: Option<String>,
        /// Token index of the acquire.
        at: usize,
        /// For temporaries: statement index bound — dies at the next `;`
        /// at or below `depth` (or block end for `match` scrutinees,
        /// handled via `depth` of the match block).
        temp: bool,
    }
    let fields = field_types(toks);
    let mut depth = 0i32;
    let mut live: Vec<Guard> = Vec::new();
    // Token ranges of closure bodies passed to `spawn(…)`.
    let mut spawned: Vec<(usize, usize)> = Vec::new();
    // Statement-start token index at the current depth, for `let` lookback.
    let mut stmt_start = 0usize;
    let mut i = 0usize;
    while i < toks.len() {
        let t = &toks[i];
        if file.is_test.get(t.line - 1).copied().unwrap_or(false) {
            i += 1;
            continue;
        }
        match t.text.as_str() {
            "{" => {
                depth += 1;
                stmt_start = i + 1;
            }
            "}" => {
                depth -= 1;
                // Block exit kills guards scoped inside it, and also ends
                // the statement a temporary scrutinee guard belongs to
                // (`if let`/`match` headers): a temp at the now-current
                // depth dies with its attached block.
                live.retain(|g| g.depth <= depth && !(g.temp && g.depth == depth));
                stmt_start = i + 1;
            }
            ";" => {
                live.retain(|g| !(g.temp && g.depth >= depth));
                stmt_start = i + 1;
            }
            // `drop(var)` explicitly releases a bound guard.
            "drop" if toks.get(i + 1).map(|t| t.text.as_str()) == Some("(") => {
                if let Some(v) = toks.get(i + 2) {
                    live.retain(|g| g.var.as_deref() != Some(v.text.as_str()));
                }
            }
            "lock" | "read" | "write" => {
                let is_call = i >= 1
                    && toks[i - 1].text == "."
                    && toks.get(i + 1).map(|t| t.text.as_str()) == Some("(")
                    && toks.get(i + 2).map(|t| t.text.as_str()) == Some(")");
                if is_call {
                    if let Some(lock) = receiver_key(file, toks, i - 1) {
                        let acq = Acquire { lock, method: t.text.clone(), line: t.line };
                        acquires.push(acq.clone());
                        let floor = spawn_floor(&spawned, i);
                        for g in live.iter().filter(|g| g.at >= floor) {
                            if g.acq.lock != acq.lock
                                || !(g.acq.method == "read" && acq.method == "read")
                            {
                                edges.push(Edge {
                                    outer: g.acq.clone(),
                                    inner: acq.clone(),
                                    file: file.rel.clone(),
                                    func: file
                                        .enclosing_fn(t.line)
                                        .map(|f| f.name.clone())
                                        .unwrap_or_else(|| "<top>".into()),
                                    chain: Vec::new(),
                                });
                            }
                        }
                        // Liveness classification from the statement shape.
                        let stmt = &toks[stmt_start..=i];
                        let let_var = stmt_let_binding(stmt, toks.get(i + 3));
                        let bound = let_var.is_some();
                        live.push(Guard { acq, depth, var: let_var, at: i, temp: !bound });
                        i += 3; // skip `( )`
                        continue;
                    }
                }
            }
            _ => {}
        }
        if let Some((callee, qual)) = call_at(file, &fields, i) {
            if callee == "spawn" {
                spawned.extend(spawned_closures(toks, i + 1));
            }
            let mut held: Vec<Acquire> = Vec::new();
            let floor = spawn_floor(&spawned, i);
            for g in live.iter().filter(|g| g.at >= floor) {
                if !held.iter().any(|h| h.lock == g.acq.lock) {
                    held.push(g.acq.clone());
                }
            }
            calls.push(CallSite { callee, qual, line: t.line, held });
        }
        i += 1;
    }
    FileWalk { edges, calls, acquires }
}

/// The first token a guard must be acquired at to be held at token `i`:
/// the start of the innermost spawned closure body around `i`, else 0.
fn spawn_floor(spawned: &[(usize, usize)], i: usize) -> usize {
    spawned
        .iter()
        .filter(|(start, end)| (*start..*end).contains(&i))
        .map(|s| s.0)
        .max()
        .unwrap_or(0)
}

/// The token ranges of the closure bodies among the arguments of the call
/// whose `(` is at `open`: an argument that starts `[move] |params|` runs
/// from after the second `|` to the next top-level `,` or the `)`.
fn spawned_closures(toks: &[Token], open: usize) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    let mut depth = 0i32;
    let mut arg_start = open + 1;
    let mut i = open;
    while i < toks.len() {
        match toks[i].text.as_str() {
            "(" | "[" | "{" => depth += 1,
            ")" | "]" | "}" | "," if depth <= 1 => {
                let mut p = arg_start;
                if toks.get(p).is_some_and(|t| t.text == "move") {
                    p += 1;
                }
                if toks.get(p).is_some_and(|t| t.text == "|") {
                    if let Some(q) = (p + 1..i).find(|&q| toks[q].text == "|") {
                        out.push((q + 1, i));
                    }
                }
                if toks[i].text != "," {
                    break;
                }
                arg_start = i + 1;
            }
            ")" | "]" | "}" => depth -= 1,
            _ => {}
        }
        i += 1;
    }
    out
}

/// Walk backwards from the `.` before the method to build the receiver
/// key. Returns `None` for receivers that are clearly not lock fields
/// (e.g. call results we cannot name).
fn receiver_key(file: &SourceFile, toks: &[Token], dot_idx: usize) -> Option<String> {
    // Collect `ident (. ident)*` right-to-left, allowing tuple indices.
    let mut segs: Vec<String> = Vec::new();
    let mut j = dot_idx; // points at `.`
    loop {
        if j == 0 {
            break;
        }
        let prev = &toks[j - 1];
        if prev.text == ")" {
            // `self.shard(i).lock()` — name the producing call instead.
            let mut pdepth = 0i32;
            let mut k = j - 1;
            loop {
                match toks[k].text.as_str() {
                    ")" => pdepth += 1,
                    "(" => {
                        pdepth -= 1;
                        if pdepth == 0 {
                            break;
                        }
                    }
                    _ => {}
                }
                if k == 0 {
                    return None;
                }
                k -= 1;
            }
            if k >= 1 && ident_like(&toks[k - 1]) {
                segs.push(toks[k - 1].text.clone());
            }
            break;
        }
        if !ident_like(prev) {
            break;
        }
        segs.push(prev.text.clone());
        if j >= 2 && toks[j - 2].text == "." {
            j -= 2;
        } else {
            break;
        }
    }
    segs.reverse();
    let last = segs.last()?.clone();
    if last == "self" {
        return None;
    }
    let key = if segs.first().map(String::as_str) == Some("self") {
        let line = toks[dot_idx].line;
        let ty = file
            .enclosing_fn(line)
            .and_then(|f| f.impl_type.clone())
            .unwrap_or_else(|| "Self".into());
        format!("{}::{}.{}", file.crate_name, ty, last)
    } else {
        format!("{}::{}", file.crate_name, last)
    };
    Some(key)
}

fn ident_like(t: &Token) -> bool {
    t.text.chars().next().is_some_and(|c| c.is_alphanumeric() || c == '_')
}

/// Find the `let [mut] name =` binding that holds the guard acquired at
/// the end of `stmt`; `after` is the token following the acquire's `( )`.
/// The guard is bound only when those parens end the initializer, or when
/// the initializer starts with `&` (temporary lifetime extension). In
/// `let n = m.lock().len();` it is a temporary dropped at the `;`, and
/// `if let` / `while let` scrutinee guards are temporaries dropped when the
/// attached block ends.
fn stmt_let_binding(stmt: &[Token], after: Option<&Token>) -> Option<String> {
    let pos = stmt.iter().position(|t| t.text == "let")?;
    if pos > 0 && matches!(stmt[pos - 1].text.as_str(), "if" | "while") {
        return None;
    }
    let rest = &stmt[pos + 1..];
    let name = rest.iter().find(|t| t.text != "mut").filter(|t| ident_like(t))?;
    let borrowed = rest
        .iter()
        .position(|t| t.text == "=")
        .and_then(|eq| rest.get(eq + 1))
        .is_some_and(|t| t.text == "&");
    (borrowed || after.is_some_and(|t| t.text == ";")).then(|| name.text.clone())
}

/// A strongly connected component with more than one lock (or a self
/// edge): a potential deadlock.
#[derive(Clone, Debug)]
pub struct Cycle {
    /// The locks participating, sorted.
    pub locks: Vec<String>,
    /// One representative edge per ordered pair observed, for reporting
    /// and suppression lookup.
    pub edges: Vec<Edge>,
}

/// Build the cross-crate graph from `edges` and return its non-trivial
/// SCCs (Tarjan) plus self-edges.
pub fn find_cycles(edges: &[Edge]) -> Vec<Cycle> {
    let mut nodes: BTreeSet<&str> = BTreeSet::new();
    for e in edges {
        nodes.insert(&e.outer.lock);
        nodes.insert(&e.inner.lock);
    }
    let index: BTreeMap<&str, usize> = nodes.iter().enumerate().map(|(i, n)| (*n, i)).collect();
    let names: Vec<&str> = nodes.into_iter().collect();
    let mut adj: Vec<BTreeSet<usize>> = vec![BTreeSet::new(); names.len()];
    for e in edges {
        adj[index[e.outer.lock.as_str()]].insert(index[e.inner.lock.as_str()]);
    }

    // Iterative Tarjan.
    #[derive(Clone, Copy)]
    struct NodeState {
        idx: i64,
        low: i64,
        on_stack: bool,
    }
    let n = names.len();
    let mut st = vec![NodeState { idx: -1, low: 0, on_stack: false }; n];
    let mut stack: Vec<usize> = Vec::new();
    let mut counter = 0i64;
    let mut sccs: Vec<Vec<usize>> = Vec::new();
    for root in 0..n {
        if st[root].idx != -1 {
            continue;
        }
        // (node, iterator position)
        let mut call: Vec<(usize, Vec<usize>, usize)> = Vec::new();
        call.push((root, adj[root].iter().copied().collect(), 0));
        st[root].idx = counter;
        st[root].low = counter;
        counter += 1;
        st[root].on_stack = true;
        stack.push(root);
        while let Some((v, succs, pos)) = call.last_mut() {
            if *pos < succs.len() {
                let w = succs[*pos];
                *pos += 1;
                if st[w].idx == -1 {
                    st[w].idx = counter;
                    st[w].low = counter;
                    counter += 1;
                    st[w].on_stack = true;
                    stack.push(w);
                    call.push((w, adj[w].iter().copied().collect(), 0));
                } else if st[w].on_stack {
                    let v = *v;
                    st[v].low = st[v].low.min(st[w].idx);
                }
            } else {
                let v = *v;
                call.pop();
                if let Some((p, _, _)) = call.last() {
                    let p = *p;
                    st[p].low = st[p].low.min(st[v].low);
                }
                if st[v].low == st[v].idx {
                    let mut comp = Vec::new();
                    while let Some(w) = stack.pop() {
                        st[w].on_stack = false;
                        comp.push(w);
                        if w == v {
                            break;
                        }
                    }
                    sccs.push(comp);
                }
            }
        }
    }

    let mut cycles = Vec::new();
    for comp in sccs {
        let in_comp: BTreeSet<usize> = comp.iter().copied().collect();
        let self_loop = comp.len() == 1 && adj[comp[0]].contains(&comp[0]);
        if comp.len() < 2 && !self_loop {
            continue;
        }
        let mut locks: Vec<String> = comp.iter().map(|&i| names[i].to_string()).collect();
        locks.sort();
        let comp_edges: Vec<Edge> = edges
            .iter()
            .filter(|e| {
                in_comp.contains(&index[e.outer.lock.as_str()])
                    && in_comp.contains(&index[e.inner.lock.as_str()])
            })
            .cloned()
            .collect();
        cycles.push(Cycle { locks, edges: comp_edges });
    }
    cycles.sort_by(|a, b| a.locks.cmp(&b.locks));
    cycles
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::SourceFile;
    use std::path::PathBuf;

    fn scan(src: &str) -> SourceFile {
        SourceFile::scan("t.rs".into(), PathBuf::from("t.rs"), "t".into(), src)
    }

    #[test]
    fn nested_bound_guards_make_an_edge() {
        let f = scan("impl S { fn f(&self) {\n let a = self.alpha.lock();\n let b = self.beta.lock();\n} }\n");
        let e = extract_edges(&f);
        assert_eq!(e.len(), 1);
        assert_eq!(e[0].outer.lock, "t::S.alpha");
        assert_eq!(e[0].inner.lock, "t::S.beta");
    }

    #[test]
    fn temporary_guard_dies_at_statement_end() {
        let f = scan(
            "impl S { fn f(&self) {\n self.alpha.lock().touch();\n let b = self.beta.lock();\n} }\n",
        );
        assert!(extract_edges(&f).is_empty());
    }

    #[test]
    fn a_let_whose_initializer_continues_past_the_guard_drops_it() {
        let f = scan(
            "impl S { fn f(&self) {\n let s = self.alpha.read().get(k).cloned()?;\n let b = self.beta.lock();\n} }\n",
        );
        assert!(extract_edges(&f).is_empty());
        let f =
            scan("impl S { fn f(&self) {\n let n = self.alpha.lock().len();\n sleep_on(n);\n} }\n");
        let calls = analyze_file(&f).calls;
        let sleep = calls.iter().find(|c| c.callee == "sleep_on").expect("sleep_on call");
        assert!(sleep.held.is_empty(), "the guard died at the `;`");
    }

    #[test]
    fn a_let_that_ends_at_the_guard_or_borrows_it_binds_it() {
        for stmt in ["let a = self.alpha.lock();", "let a = &self.alpha.read().field;"] {
            let f = scan(&format!(
                "impl S {{ fn f(&self) {{\n {stmt}\n let b = self.beta.lock();\n}} }}\n"
            ));
            let e = extract_edges(&f);
            assert_eq!(e.len(), 1, "{stmt}");
            assert_eq!(e[0].outer.lock, "t::S.alpha");
        }
    }

    #[test]
    fn drop_releases_bound_guard() {
        let f = scan(
            "impl S { fn f(&self) {\n let a = self.alpha.lock();\n drop(a);\n let b = self.beta.lock();\n} }\n",
        );
        assert!(extract_edges(&f).is_empty());
    }

    #[test]
    fn read_read_same_lock_is_not_an_edge_but_write_is() {
        let f = scan(
            "impl S { fn f(&self) {\n let a = self.m.read();\n let b = self.m.read();\n let c = self.m.write();\n} }\n",
        );
        let e = extract_edges(&f);
        // read->write and read->write (from both reads); no read->read.
        assert_eq!(e.len(), 2);
        assert!(e.iter().all(|e| e.inner.method == "write"));
    }

    #[test]
    fn match_scrutinee_guard_lives_through_the_match() {
        let f = scan(
            "impl S { fn f(&self) {\n match self.alpha.lock().kind {\n K::A => { let b = self.beta.lock(); }\n _ => {}\n }\n} }\n",
        );
        let e = extract_edges(&f);
        assert_eq!(e.len(), 1);
        assert_eq!(e[0].outer.lock, "t::S.alpha");
    }

    #[test]
    fn call_sites_carry_held_locks() {
        let f = scan(
            "impl S { fn f(&self) {\n let a = self.alpha.lock();\n self.helper();\n other::go();\n drop(a);\n free();\n} }\n",
        );
        let calls = analyze_file(&f).calls;
        let helper = calls.iter().find(|c| c.callee == "helper").expect("helper call");
        assert_eq!(helper.qual, CallQual::SelfRecv);
        assert_eq!(helper.held.len(), 1);
        assert_eq!(helper.held[0].lock, "t::S.alpha");
        let go = calls.iter().find(|c| c.callee == "go").expect("go call");
        assert_eq!(go.qual, CallQual::Qualified("other".into()));
        let free = calls.iter().find(|c| c.callee == "free").expect("free call");
        assert_eq!(free.qual, CallQual::Bare);
        assert!(free.held.is_empty(), "drop(a) released the guard");
    }

    #[test]
    fn a_closure_passed_to_spawn_holds_none_of_the_spawners_locks() {
        let f = scan(
            "impl S { fn f(self: &Arc<Self>) {\n let me = Arc::clone(self);\n *self.handle.lock() = Some(\n  thread::Builder::new()\n   .spawn(move || me.seed_loop())\n   .expect(\"spawn\"),\n );\n let g = self.alpha.lock();\n std::thread::spawn(|| { let b = self.beta.lock(); wait_here(); });\n} }\n",
        );
        let walk = analyze_file(&f);
        let held = |callee: &str| -> Vec<String> {
            let call = walk.calls.iter().find(|c| c.callee == callee).expect(callee);
            call.held.iter().map(|h| h.lock.clone()).collect()
        };
        assert!(held("seed_loop").is_empty(), "the spawned closure runs on its own thread");
        assert_eq!(held("expect"), ["t::S.handle"], "the spawning statement holds the guard");
        assert_eq!(held("wait_here"), ["t::S.beta"], "only the closure's own guard");
        assert!(walk.edges.is_empty(), "alpha is not held where beta is taken: {:?}", walk.edges);
    }

    #[test]
    fn any_other_closure_runs_under_the_guard() {
        let f = scan(
            "impl S { fn f(&self) {\n let g = self.alpha.lock();\n pages.iter().for_each(|p| dev.write_page(p));\n} }\n",
        );
        let calls = analyze_file(&f).calls;
        let write = calls.iter().find(|c| c.callee == "write_page").expect("write_page call");
        assert_eq!(write.held.len(), 1);
        assert_eq!(write.held[0].lock, "t::S.alpha");
    }

    #[test]
    fn self_field_calls_carry_a_concrete_field_type() {
        let f = scan(
            "struct S<F: Dev> {\n pub meta: Arc<MemFcb>,\n dev: Arc<dyn Dev>,\n pages: PageFile,\n inner: F,\n}\nimpl<F: Dev> S<F> {\n fn f(&self) {\n  self.meta.write_at();\n  self.dev.write_at();\n  self.pages.write_page();\n  self.inner.write_at();\n  other.meta.write_at();\n }\n}\n",
        );
        let quals: Vec<CallQual> = analyze_file(&f).calls.into_iter().map(|c| c.qual).collect();
        assert_eq!(
            quals,
            [
                CallQual::Typed("MemFcb".into()),
                CallQual::Method,
                CallQual::Typed("PageFile".into()),
                CallQual::Method,
                CallQual::Method,
            ]
        );
        assert_eq!(CallQual::decode(&CallQual::Typed("MemFcb".into()).encode()), quals[0]);
    }

    #[test]
    fn macros_and_definitions_are_not_calls() {
        let f = scan("fn f() {\n println!(\"x\");\n #[inline(always)]\n fn g() {}\n g();\n}\n");
        let calls = analyze_file(&f).calls;
        assert!(calls.iter().all(|c| c.callee != "println"));
        assert!(calls.iter().all(|c| c.callee != "inline"));
        assert_eq!(calls.iter().filter(|c| c.callee == "g").count(), 1);
    }

    #[test]
    fn cycle_detection_finds_ab_ba() {
        let f1 = scan("impl S { fn f(&self) {\n let a = self.alpha.lock();\n let b = self.beta.lock();\n} }\n");
        let f2 = scan("impl S { fn g(&self) {\n let b = self.beta.lock();\n let a = self.alpha.lock();\n} }\n");
        let mut edges = extract_edges(&f1);
        edges.extend(extract_edges(&f2));
        let cycles = find_cycles(&edges);
        assert_eq!(cycles.len(), 1);
        assert_eq!(cycles[0].locks, vec!["t::S.alpha".to_string(), "t::S.beta".to_string()]);
    }

    #[test]
    fn acyclic_graph_reports_nothing() {
        let f = scan("impl S { fn f(&self) {\n let a = self.alpha.lock();\n let b = self.beta.lock();\n let c = self.gamma.lock();\n} }\n");
        assert!(find_cycles(&extract_edges(&f)).is_empty());
    }

    #[test]
    fn same_lock_nesting_is_a_self_cycle() {
        let f =
            scan("impl S { fn f(&self) {\n let a = self.m.lock();\n let b = self.m.lock();\n} }\n");
        let cycles = find_cycles(&extract_edges(&f));
        assert_eq!(cycles.len(), 1);
        assert_eq!(cycles[0].locks, vec!["t::S.m".to_string()]);
    }
}

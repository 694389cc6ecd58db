//! Pass 2a: call-graph construction and the interprocedural rules.
//!
//! Works entirely off the facts table — no source access. Call sites are
//! resolved to workspace functions with a deliberately conservative
//! policy: a call that cannot be pinned to exactly one plausible target
//! is dropped (and counted in `calls_ambiguous`) rather than guessed.
//! The graph therefore under-approximates reachability; every edge it
//! does contain is one the lexer actually saw, so findings built on it
//! come with a concrete witness chain.

use crate::facts::{FnFacts, WorkspaceFacts};
use crate::locks::{Acquire, CallQual, Edge};
use crate::report::{Finding, Rule};
use crate::rules::Allows;
use std::collections::BTreeMap;

/// Call-chain depth cap for the transitive walks. Deep chains stop
/// adding signal (the witness is unreadable) and risk blowup on
/// pathological graphs.
const DEPTH_CAP: usize = 6;

/// Method names too generic to resolve by uniqueness: a `recv.foo()`
/// call whose `foo` happens to be defined once in the workspace must
/// still not resolve if `foo` is a name std types use everywhere —
/// the receiver is far more likely a Vec/Map/iterator than ours.
const METHOD_BLOCKLIST: [&str; 49] = [
    "all",
    "any",
    "as_mut",
    "as_ref",
    "clear",
    "clone",
    "cloned",
    "collect",
    "contains",
    "contains_key",
    "count",
    "drain",
    "entry",
    "extend",
    "filter",
    "filter_map",
    "find",
    "first",
    "flush",
    "fold",
    "get",
    "get_mut",
    "insert",
    "into_iter",
    "iter",
    "iter_mut",
    "join",
    "last",
    "len",
    "map",
    "max",
    "min",
    "next",
    "parse",
    "position",
    "pop",
    "push",
    "recv",
    "remove",
    "retain",
    "rev",
    "send",
    "sort",
    "splice",
    "split",
    "take",
    "wait",
    "wait_for",
    "zip",
];

/// Locks a function transitively acquires, each with the call chain
/// below the function that reaches it.
type AcquireChains = Vec<(Acquire, Vec<String>)>;
/// A hot-path offense description and the call chain that reaches it.
type HotWitness = Option<(String, Vec<String>)>;
/// The call chain from a function down to a device wait, if it reaches one.
type WaitWitness = Option<Vec<String>>;

/// One indexed function.
struct Node {
    /// Index into `WorkspaceFacts::files`.
    file: usize,
    /// Index into that file's `fns`.
    func: usize,
}

/// The resolved call graph.
pub struct CallGraph<'a> {
    ws: &'a WorkspaceFacts,
    nodes: Vec<Node>,
    by_name: BTreeMap<&'a str, Vec<usize>>,
    /// Per node: resolved `(target node, call line)` pairs.
    resolved_calls: Vec<Vec<(usize, usize)>>,
    /// Per node: `(candidate node, call line)` for every method call too
    /// ambiguous to resolve, one pair per method it may dispatch to (see
    /// `dispatch_targets`). Only `lock-across-io` follows these edges.
    dispatch_calls: Vec<Vec<(usize, usize)>>,
    /// Call sites resolved to a workspace function.
    pub resolved: usize,
    /// Call sites dropped as unresolvable or ambiguous.
    pub ambiguous: usize,
}

impl<'a> CallGraph<'a> {
    /// Index every non-aux function and resolve every call site.
    pub fn build(ws: &'a WorkspaceFacts) -> CallGraph<'a> {
        let mut nodes = Vec::new();
        let mut by_name: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        for (fi, file) in ws.files.iter().enumerate() {
            for (ni, f) in file.fns.iter().enumerate() {
                if f.test {
                    continue;
                }
                by_name.entry(f.name.as_str()).or_default().push(nodes.len());
                nodes.push(Node { file: fi, func: ni });
            }
        }
        let mut g = CallGraph {
            ws,
            nodes,
            by_name,
            resolved_calls: Vec::new(),
            dispatch_calls: Vec::new(),
            resolved: 0,
            ambiguous: 0,
        };
        for id in 0..g.nodes.len() {
            let (mut out, mut dispatch) = (Vec::new(), Vec::new());
            let caller = g.fn_facts(id);
            for c in &caller.calls {
                match g.resolve(id, &c.callee, &c.qual) {
                    Some(target) => {
                        g.resolved += 1;
                        out.push((target, c.line));
                    }
                    None => {
                        g.ambiguous += 1;
                        dispatch
                            .extend(g.dispatch_targets(&c.callee, &c.qual).map(|t| (t, c.line)));
                    }
                }
            }
            g.resolved_calls.push(out);
            g.dispatch_calls.push(dispatch);
        }
        g
    }

    /// The methods an unresolved `recv.name()` call may dispatch to: the
    /// receiver field's own type's, when it declares one, else every
    /// trait impl's method called `name` — unless the name is too generic
    /// to guess at. (An inherent method needs a concrete receiver, and the
    /// graph cannot tell which one a local variable holds.)
    fn dispatch_targets<'q>(
        &'q self,
        callee: &str,
        qual: &'q CallQual,
    ) -> impl Iterator<Item = usize> + 'q {
        let candidates = match qual {
            CallQual::Method | CallQual::Typed(_) if !METHOD_BLOCKLIST.contains(&callee) => {
                self.by_name.get(callee)
            }
            _ => None,
        };
        candidates.into_iter().flatten().copied().filter(move |&id| {
            let f = self.fn_facts(id);
            match qual {
                CallQual::Typed(t) => f.impl_type.as_deref() == Some(t.as_str()),
                _ => f.impl_trait.is_some(),
            }
        })
    }

    /// Number of functions indexed.
    pub fn fns_indexed(&self) -> usize {
        self.nodes.len()
    }

    fn fn_facts(&self, id: usize) -> &'a FnFacts {
        let n = &self.nodes[id];
        &self.ws.files[n.file].fns[n.func]
    }

    fn file_of(&self, id: usize) -> &'a crate::facts::FileFacts {
        &self.ws.files[self.nodes[id].file]
    }

    /// Resolve one call site to at most one workspace function.
    fn resolve(&self, caller: usize, callee: &str, qual: &CallQual) -> Option<usize> {
        let candidates = self.by_name.get(callee)?;
        let caller_file = self.file_of(caller);
        let caller_impl = &self.fn_facts(caller).impl_type;
        let unique = |set: &[usize]| if set.len() == 1 { Some(set[0]) } else { None };
        // Prefer same-crate candidates when the filtered set is still
        // plural — sibling crates routinely reuse method names.
        let crate_pref = |set: Vec<usize>| -> Option<usize> {
            if set.len() == 1 {
                return Some(set[0]);
            }
            let same: Vec<usize> = set
                .iter()
                .copied()
                .filter(|&id| self.file_of(id).crate_name == caller_file.crate_name)
                .collect();
            unique(&same)
        };
        match qual {
            CallQual::SelfRecv => {
                let set: Vec<usize> = candidates
                    .iter()
                    .copied()
                    .filter(|&id| {
                        self.fn_facts(id).impl_type.is_some()
                            && self.fn_facts(id).impl_type == *caller_impl
                    })
                    .collect();
                crate_pref(set)
            }
            CallQual::Qualified(q) if q.chars().next().is_some_and(|c| c.is_ascii_uppercase()) => {
                let set: Vec<usize> = candidates
                    .iter()
                    .copied()
                    .filter(|&id| self.fn_facts(id).impl_type.as_deref() == Some(q.as_str()))
                    .collect();
                crate_pref(set)
            }
            CallQual::Qualified(q) => {
                let qn = norm(q);
                let by_crate: Vec<usize> = candidates
                    .iter()
                    .copied()
                    .filter(|&id| {
                        let cn = norm(&self.file_of(id).crate_name);
                        qn == cn || qn.ends_with(&format!("_{cn}"))
                    })
                    .collect();
                if !by_crate.is_empty() {
                    return unique(&by_crate);
                }
                // `q` was a module path segment, not a crate; fall back to
                // a globally unique name.
                unique(candidates)
            }
            CallQual::Bare => {
                let same_file: Vec<usize> = candidates
                    .iter()
                    .copied()
                    .filter(|&id| self.file_of(id).rel == caller_file.rel)
                    .collect();
                if !same_file.is_empty() {
                    return unique(&same_file);
                }
                let same_crate: Vec<usize> = candidates
                    .iter()
                    .copied()
                    .filter(|&id| self.file_of(id).crate_name == caller_file.crate_name)
                    .collect();
                if !same_crate.is_empty() {
                    return unique(&same_crate);
                }
                unique(candidates)
            }
            CallQual::Method | CallQual::Typed(_) => {
                if METHOD_BLOCKLIST.contains(&callee) {
                    return None;
                }
                unique(candidates)
            }
        }
    }

    /// Rendered resolved edges (`crate::caller -> crate::callee
    /// (file:line)`), for `--edges` and the JSON artifact.
    pub fn rendered_edges(&self) -> Vec<String> {
        let mut out = Vec::new();
        for (id, calls) in self.resolved_calls.iter().enumerate() {
            for (target, line) in calls {
                out.push(format!(
                    "{}::{} -> {}::{} ({}:{})",
                    self.file_of(id).crate_name,
                    self.fn_facts(id).name,
                    self.file_of(*target).crate_name,
                    self.fn_facts(*target).name,
                    self.file_of(id).rel,
                    line
                ));
            }
        }
        out
    }

    /// Lock-order edges only the call graph can see: for every call made
    /// while holding a lock, every lock the callee transitively acquires
    /// becomes an `outer -> inner` edge, with the call chain as witness.
    /// The edge's inner line is the call site in the holder's file, so a
    /// `soclint-allow` there suppresses the cycle.
    pub fn transitive_lock_edges(&self) -> Vec<Edge> {
        let mut memo: Vec<Option<AcquireChains>> = vec![None; self.nodes.len()];
        let mut out = Vec::new();
        for id in 0..self.nodes.len() {
            let caller = self.fn_facts(id);
            for c in &caller.calls {
                if c.held.is_empty() {
                    continue;
                }
                let Some(&(target, line)) = self.resolved_calls[id]
                    .iter()
                    .find(|(t, l)| *l == c.line && self.fn_facts(*t).name == c.callee)
                else {
                    continue;
                };
                let file = self.file_of(id);
                for (acq, chain) in self.transitive_acquires(target, &mut memo) {
                    let step = format!("{}@{}:{}", self.fn_facts(target).name, file.rel, line);
                    let mut full_chain = vec![step];
                    full_chain.extend(chain.iter().cloned());
                    for held in &c.held {
                        if held.lock == acq.lock && held.method == "read" && acq.method == "read" {
                            continue;
                        }
                        out.push(Edge {
                            outer: held.clone(),
                            inner: Acquire {
                                lock: acq.lock.clone(),
                                method: acq.method.clone(),
                                line,
                            },
                            file: file.rel.clone(),
                            func: caller.name.clone(),
                            chain: full_chain.clone(),
                        });
                    }
                }
            }
        }
        out
    }

    /// Every lock a function (transitively) acquires, with the relative
    /// call chain below it. Memoized; cycles in the call graph are cut by
    /// the memo-in-progress marker (a function being computed contributes
    /// nothing to its own descendants — sound for cycle *detection*
    /// because its direct acquisitions are already in the result set).
    fn transitive_acquires(
        &self,
        id: usize,
        memo: &mut Vec<Option<AcquireChains>>,
    ) -> AcquireChains {
        if let Some(cached) = &memo[id] {
            return cached.clone();
        }
        // In-progress marker: recursion into `id` sees an empty set.
        memo[id] = Some(Vec::new());
        let mut acc: Vec<(Acquire, Vec<String>)> = Vec::new();
        for a in &self.fn_facts(id).acquires {
            acc.push((a.clone(), Vec::new()));
        }
        let calls = self.resolved_calls[id].clone();
        for (target, line) in calls {
            for (a, ch) in self.transitive_acquires(target, memo) {
                if ch.len() + 1 >= DEPTH_CAP {
                    continue;
                }
                let step =
                    format!("{}@{}:{}", self.fn_facts(target).name, self.file_of(id).rel, line);
                let mut chain = vec![step];
                chain.extend(ch);
                acc.push((a, chain));
            }
        }
        // Keep one witness per (lock, method), shortest chain wins.
        acc.sort_by_key(|(a, ch)| (a.lock.clone(), a.method.clone(), ch.len()));
        acc.dedup_by(|b, a| a.0.lock == b.0.lock && a.0.method == b.0.method);
        acc.truncate(32);
        memo[id] = Some(acc.clone());
        acc
    }

    /// Rule `lock-across-io`: a call made while a lock is held whose
    /// callee reaches a modelled device wait — `precise_sleep` or
    /// `LatencyInjector::{read_delay, write_delay}` — through resolved
    /// calls or the method calls a trait object may dispatch
    /// (`Fcb::write_at` reaches `LatencyFcb::write_at`). Every thread that
    /// wants the lock then waits out the device as well. The message
    /// names functions, not lines, so a baseline key survives edits.
    pub fn check_lock_across_io(&self, out: &mut Vec<Finding>) {
        let mut memo: Vec<Option<WaitWitness>> = vec![None; self.nodes.len()];
        for id in 0..self.nodes.len() {
            let file = self.file_of(id);
            let caller = self.fn_facts(id);
            for c in caller.calls.iter().filter(|c| !c.held.is_empty()) {
                let Some(chain) = self.resolved_calls[id]
                    .iter()
                    .chain(&self.dispatch_calls[id])
                    .filter(|&&(t, line)| line == c.line && self.fn_facts(t).name == c.callee)
                    .find_map(|&(t, _)| self.reach_wait(t, &mut memo))
                else {
                    continue;
                };
                let held: Vec<String> = c.held.iter().map(|h| format!("`{}`", h.lock)).collect();
                out.push(Finding {
                    rule: Rule::LockAcrossIo,
                    file: file.rel.clone(),
                    line: c.line,
                    message: format!(
                        "`{}` holds {} across a call that waits on a device: {} — release \
                         the lock before the wait, or justify with soclint-allow",
                        caller.name,
                        held.join(", "),
                        chain.join(" -> ")
                    ),
                    suppressed: Allows::from_map(&file.allows).covers(Rule::LockAcrossIo, c.line),
                    baselined: false,
                });
            }
        }
    }

    /// The chain of functions from `id` down to a device wait, `id` first.
    fn reach_wait(&self, id: usize, memo: &mut Vec<Option<WaitWitness>>) -> WaitWitness {
        if let Some(cached) = &memo[id] {
            return cached.clone();
        }
        memo[id] = Some(None); // in-progress: cycles read as no wait
        let f = self.fn_facts(id);
        let step = match &f.impl_type {
            Some(ty) => format!("{ty}::{}", f.name),
            None => f.name.clone(),
        };
        let is_wait = f.name == "precise_sleep"
            || (f.impl_type.as_deref() == Some("LatencyInjector")
                && matches!(f.name.as_str(), "read_delay" | "write_delay"));
        let result = if is_wait {
            Some(vec![step])
        } else {
            self.resolved_calls[id].iter().chain(&self.dispatch_calls[id]).find_map(|&(t, _)| {
                let below = self.reach_wait(t, memo).filter(|ch| ch.len() + 1 < DEPTH_CAP)?;
                Some(std::iter::once(step.clone()).chain(below).collect())
            })
        };
        memo[id] = Some(result.clone());
        result
    }

    /// Rule `hot-path-transitive`: a function in a `soclint:hot` file
    /// calls (through any resolved chain of *non-hot* functions) code
    /// that panics, allocates, reads the clock, or takes a lock. Hot
    /// files' own internals are the lexical `hot-path` rule's job; this
    /// rule guards the hot→cold boundary.
    pub fn check_hot_transitive(&self, out: &mut Vec<Finding>) {
        let allow_index: Vec<Allows> =
            self.ws.files.iter().map(|f| Allows::from_map(&f.allows)).collect();
        let mut memo: Vec<Option<HotWitness>> = vec![None; self.nodes.len()];
        for id in 0..self.nodes.len() {
            let file_idx = self.nodes[id].file;
            let file = &self.ws.files[file_idx];
            if !file.hot {
                continue;
            }
            let caller = self.fn_facts(id);
            for &(target, line) in &self.resolved_calls[id] {
                if self.file_of(target).hot {
                    continue;
                }
                let Some((leaf, chain)) = self.reach_bad(target, &allow_index, &mut memo) else {
                    continue;
                };
                let step = format!("{}@{}:{}", self.fn_facts(target).name, file.rel, line);
                let mut full = vec![step];
                full.extend(chain.iter().cloned());
                // A hot-path allow at the call site also covers the transitive
                // rule: "this call is control-plane" exempts the whole
                // hygiene invariant, not just the lexical half.
                let suppressed = allow_index[file_idx].covers(Rule::HotPathTransitive, line)
                    || allow_index[file_idx].covers(Rule::HotPath, line);
                out.push(Finding {
                    rule: Rule::HotPathTransitive,
                    file: file.rel.clone(),
                    line,
                    message: format!(
                        "`{}` is in a soclint:hot module but reaches {} via {} — keep the \
                         hot→cold boundary allocation- and panic-free, or justify with \
                         soclint-allow",
                        caller.name,
                        leaf,
                        full.join(" -> ")
                    ),
                    suppressed,
                    baselined: false,
                });
            }
        }
    }

    /// Whether `id` (a non-hot function) panics/allocates/locks itself or
    /// reaches a function that does. Returns the offense description and
    /// the relative chain below `id`.
    fn reach_bad(
        &self,
        id: usize,
        allow_index: &[Allows],
        memo: &mut Vec<Option<HotWitness>>,
    ) -> HotWitness {
        if let Some(cached) = &memo[id] {
            return cached.clone();
        }
        memo[id] = Some(None); // in-progress: cycles read as clean
        let file_idx = self.nodes[id].file;
        let file = &self.ws.files[file_idx];
        let allows = &allow_index[file_idx];
        let f = self.fn_facts(id);
        let mut result: Option<(String, Vec<String>)> = None;
        for (line, tok) in &f.bad {
            if allows.covers(Rule::HotPath, *line) || allows.covers(Rule::HotPathTransitive, *line)
            {
                continue;
            }
            result =
                Some((format!("`{}` in `{}` ({}:{})", tok, f.name, file.rel, line), Vec::new()));
            break;
        }
        if result.is_none() {
            for a in &f.acquires {
                if allows.covers(Rule::HotPath, a.line)
                    || allows.covers(Rule::HotPathTransitive, a.line)
                {
                    continue;
                }
                result = Some((
                    format!(
                        "a `{}()` of {} in `{}` ({}:{})",
                        a.method, a.lock, f.name, file.rel, a.line
                    ),
                    Vec::new(),
                ));
                break;
            }
        }
        if result.is_none() {
            let calls = self.resolved_calls[id].clone();
            for (target, line) in calls {
                if self.file_of(target).hot {
                    continue;
                }
                if let Some((leaf, ch)) = self.reach_bad(target, allow_index, memo) {
                    if ch.len() + 1 >= DEPTH_CAP {
                        continue;
                    }
                    let step = format!("{}@{}:{}", self.fn_facts(target).name, file.rel, line);
                    let mut chain = vec![step];
                    chain.extend(ch);
                    result = Some((leaf, chain));
                    break;
                }
            }
        }
        memo[id] = Some(result.clone());
        result
    }
}

/// Crate-name normalization for path-vs-package comparisons
/// (`soclint-fixture-b` ≡ `soclint_fixture_b`).
fn norm(s: &str) -> String {
    s.replace('-', "_")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::facts::{extract_file, WorkspaceFacts};
    use crate::lexer::SourceFile;
    use std::path::PathBuf;

    fn file(rel: &str, crate_name: &str, src: &str) -> crate::facts::FileFacts {
        let f = SourceFile::scan(rel.into(), PathBuf::from(rel), crate_name.into(), src);
        extract_file(&f, false).0
    }

    fn ws(files: Vec<crate::facts::FileFacts>) -> WorkspaceFacts {
        WorkspaceFacts { files, ..WorkspaceFacts::default() }
    }

    #[test]
    fn resolves_bare_self_and_qualified_calls() {
        let a = file(
            "crates/a/src/lib.rs",
            "a",
            "impl S {\n fn top(&self) {\n  self.mid();\n  helper();\n  b_crate::leaf();\n }\n fn mid(&self) {}\n}\nfn helper() {}\n",
        );
        let b = file("crates/b-crate/src/lib.rs", "b-crate", "pub fn leaf() {}\n");
        let w = ws(vec![a, b]);
        let g = CallGraph::build(&w);
        assert_eq!(g.resolved, 3, "ambiguous={}", g.ambiguous);
        let edges = g.rendered_edges();
        assert!(edges.iter().any(|e| e.contains("a::top -> a::mid")), "{edges:?}");
        assert!(edges.iter().any(|e| e.contains("a::top -> a::helper")), "{edges:?}");
        assert!(edges.iter().any(|e| e.contains("a::top -> b-crate::leaf")), "{edges:?}");
    }

    #[test]
    fn generic_method_names_do_not_resolve() {
        let a = file(
            "crates/a/src/lib.rs",
            "a",
            "fn caller(v: &Thing) {\n v.get(k);\n v.special_sauce();\n}\nfn get() {}\nfn special_sauce() {}\n",
        );
        let w = ws(vec![a]);
        let g = CallGraph::build(&w);
        let edges = g.rendered_edges();
        assert!(!edges.iter().any(|e| e.contains("-> a::get")), "{edges:?}");
        assert!(edges.iter().any(|e| e.contains("-> a::special_sauce")), "{edges:?}");
    }

    #[test]
    fn transitive_lock_edge_carries_chain() {
        let a = file(
            "crates/a/src/lib.rs",
            "a",
            "impl S {\n fn entry(&self) {\n  let g = self.alpha.lock();\n  self.step();\n }\n fn step(&self) {\n  self.deep();\n }\n fn deep(&self) {\n  let d = self.delta.lock();\n }\n}\n",
        );
        let w = ws(vec![a]);
        let g = CallGraph::build(&w);
        let edges = g.transitive_lock_edges();
        let e = edges
            .iter()
            .find(|e| e.outer.lock == "a::S.alpha" && e.inner.lock == "a::S.delta")
            .expect("transitive edge");
        assert_eq!(e.chain.len(), 2, "{:?}", e.chain);
        assert!(e.chain[0].starts_with("step@"), "{:?}", e.chain);
        assert!(e.chain[1].starts_with("deep@"), "{:?}", e.chain);
        assert_eq!(e.inner.line, 4, "anchored at the call site under the held lock");
    }

    #[test]
    fn call_graph_cycles_terminate() {
        let a = file(
            "crates/a/src/lib.rs",
            "a",
            "fn ping() {\n pong();\n}\nfn pong() {\n ping();\n let g = lk.lock();\n}\n",
        );
        let w = ws(vec![a]);
        let g = CallGraph::build(&w);
        let edges = g.transitive_lock_edges();
        // No held locks at either call, so no transitive edges — the test
        // is that the recursion terminates.
        assert!(edges.is_empty(), "{edges:?}");
    }

    fn lock_across_io(files: Vec<crate::facts::FileFacts>) -> Vec<Finding> {
        let w = ws(files);
        let mut out = Vec::new();
        CallGraph::build(&w).check_lock_across_io(&mut out);
        out
    }

    /// A device trait with one waiting and one instant impl, plus the
    /// injector whose `write_delay` is a device wait.
    const DEVICES: &str = "trait Dev {\n fn write_at(&self);\n}\nimpl Dev for Slow {\n fn write_at(&self) {\n  self.inj.write_delay();\n }\n}\nimpl Dev for Ram {\n fn write_at(&self) {}\n}\nimpl LatencyInjector {\n fn write_delay(&self) {}\n}\n";

    #[test]
    fn lock_across_io_follows_a_dyn_call_into_the_impl_that_waits() {
        let a = file(
            "crates/a/src/lib.rs",
            "a",
            "struct C {\n dev: Arc<dyn Dev>,\n}\nimpl C {\n fn put(&self) {\n  let g = self.dir.lock();\n  self.dev.write_at();\n }\n fn probe(&self) {\n  self.dev.write_at();\n }\n}\n",
        );
        let out = lock_across_io(vec![a, file("crates/a/src/dev.rs", "a", DEVICES)]);
        assert_eq!(out.len(), 1, "{out:?}");
        assert_eq!((out[0].rule, out[0].line), (Rule::LockAcrossIo, 7));
        assert!(
            out[0].message.contains("Slow::write_at -> LatencyInjector::write_delay"),
            "{}",
            out[0].message
        );
        assert!(!out[0].message.contains('@'), "no line numbers: {}", out[0].message);
    }

    #[test]
    fn lock_across_io_trusts_a_concrete_field_type() {
        let a = file(
            "crates/a/src/lib.rs",
            "a",
            "struct C {\n journal: Arc<Ram>,\n}\nimpl C {\n fn put(&self) {\n  let g = self.dir.lock();\n  self.journal.write_at();\n }\n}\n",
        );
        let out = lock_across_io(vec![a, file("crates/a/src/dev.rs", "a", DEVICES)]);
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn hot_transitive_flags_cold_panic_reached_from_hot() {
        let hot = file(
            "crates/a/src/hot.rs",
            "a",
            "#![doc = \"soclint:hot\"]\nfn serve() {\n cold_helper();\n}\n",
        );
        let cold = file(
            "crates/a/src/lib.rs",
            "a",
            "pub fn cold_helper() {\n deeper();\n}\nfn deeper() {\n x.unwrap();\n}\n",
        );
        let w = ws(vec![hot, cold]);
        let g = CallGraph::build(&w);
        let mut out = Vec::new();
        g.check_hot_transitive(&mut out);
        assert_eq!(out.len(), 1, "{out:?}");
        assert_eq!(out[0].rule, Rule::HotPathTransitive);
        assert_eq!(out[0].file, "crates/a/src/hot.rs");
        assert!(out[0].message.contains("unwrap"), "{}", out[0].message);
        assert!(out[0].message.contains("cold_helper@"), "{}", out[0].message);
    }

    #[test]
    fn hot_to_hot_calls_are_not_flagged() {
        let hot = file(
            "crates/a/src/hot.rs",
            "a",
            "#![doc = \"soclint:hot\"]\nfn serve() {\n stage();\n}\nfn stage() {\n fast();\n}\nfn fast() {}\n",
        );
        let w = ws(vec![hot]);
        let g = CallGraph::build(&w);
        let mut out = Vec::new();
        g.check_hot_transitive(&mut out);
        assert!(out.is_empty(), "{out:?}");
    }
}

//! Pass 1: the workspace facts table.
//!
//! soclint v2 is a two-pass analyzer. This module is the first pass: it
//! reduces every source file to a serializable symbol model — function
//! extents, call sites with held-lock sets, lock acquisitions, direct
//! nesting edges, hot-path badness tokens, fault-site/metric/SLO/config
//! string facts, suppression spans, and the per-file findings of the
//! lexical rules. The second pass ([`crate::callgraph`] and
//! [`crate::contracts`]) runs entirely off this table, which is what
//! makes the table cacheable: CI extracts once, serializes it with a
//! content fingerprint, and later jobs re-run only pass 2.
//!
//! The table is versioned and fingerprinted (FNV-1a over every scanned
//! file's path and bytes). A loaded table whose fingerprint does not
//! match the current tree is silently discarded and re-extracted —
//! stale facts must never produce a clean gate.

use crate::contracts;
use crate::json::{self, Json};
use crate::lexer::SourceFile;
use crate::locks::{self, Acquire, CallQual, Edge};
use crate::report::{Finding, Rule};
use crate::rules::{self, Allows, SiteCatalog};
use std::collections::{BTreeMap, BTreeSet};

/// Facts-table format version; bumped whenever the schema or the
/// extraction semantics change.
pub const FACTS_VERSION: u64 = 2;

/// A string fact: a literal (or a value derived from one) at a location,
/// with a flag for `#[cfg(test)]` provenance.
#[derive(Clone, Debug, PartialEq)]
pub struct StrFact {
    pub value: String,
    pub line: usize,
    pub test: bool,
}

/// One call site inside a function.
#[derive(Clone, Debug)]
pub struct CallFact {
    /// Callee identifier (last path segment, as written).
    pub callee: String,
    /// How the callee was named.
    pub qual: CallQual,
    /// 1-based line of the call.
    pub line: usize,
    /// Locks held at the call.
    pub held: Vec<Acquire>,
}

/// One function's extracted facts.
#[derive(Clone, Debug, Default)]
pub struct FnFacts {
    pub name: String,
    pub impl_type: Option<String>,
    /// The trait, for a method of an `impl Trait for Type`.
    pub impl_trait: Option<String>,
    pub start: usize,
    pub end: usize,
    pub test: bool,
    pub calls: Vec<CallFact>,
    pub acquires: Vec<Acquire>,
    /// Hot-path badness tokens in the body: (line, token).
    pub bad: Vec<(usize, String)>,
}

/// One file's extracted facts.
#[derive(Clone, Debug, Default)]
pub struct FileFacts {
    pub rel: String,
    pub crate_name: String,
    pub hot: bool,
    /// Reference-only file (tests/, examples/): contributes contract
    /// surfaces and allows, but no functions, edges, or lexical findings.
    pub aux: bool,
    pub has_sites_mod: bool,
    pub fns: Vec<FnFacts>,
    pub edges: Vec<Edge>,
    pub allows: BTreeMap<String, Vec<usize>>,
    pub findings: Vec<Finding>,
    /// Site catalog consts declared here: (name, value, line).
    pub site_consts: Vec<(String, String, usize)>,
    pub site_listed: Vec<String>,
    pub site_refs: Vec<String>,
    /// String literals on `check`/`check_at` lines.
    pub checked: Vec<StrFact>,
    /// Fault-site names extracted from chaos-spec-shaped literals.
    pub specs: Vec<StrFact>,
    /// Metric names registered into the hub.
    pub metric_regs: Vec<StrFact>,
    /// Metric names consulted by string lookup (`snapshot().get("…")`).
    pub metric_refs: Vec<StrFact>,
    /// Metric names referenced by SLO-spec-shaped literals.
    pub slo_refs: Vec<StrFact>,
    /// `SocratesConfig` field names declared here.
    pub knobs: Vec<StrFact>,
}

/// An SLO metric reference found in docs or CI config.
#[derive(Clone, Debug, PartialEq)]
pub struct DocRef {
    pub file: String,
    pub line: usize,
    pub metric: String,
}

/// The whole workspace, reduced to facts.
#[derive(Clone, Debug, Default)]
pub struct WorkspaceFacts {
    pub fingerprint: u64,
    pub files_scanned: usize,
    pub ordering_sites: usize,
    /// `SocratesConfig` field names that README.md/DESIGN.md mention.
    pub documented_knobs: BTreeSet<String>,
    /// SLO metric references from docs and CI workflow files.
    pub doc_slo_refs: Vec<DocRef>,
    pub files: Vec<FileFacts>,
}

/// FNV-1a over `bytes`, continuing from `h` (seed with [`FNV_SEED`]).
pub fn fnv1a(bytes: &[u8], mut h: u64) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

/// FNV-1a offset basis.
pub const FNV_SEED: u64 = 0xcbf2_9ce4_8422_2325;

/// Extract one file's facts. Returns the facts plus the number of
/// atomic-ordering sites inspected (0 for aux files).
pub fn extract_file(file: &SourceFile, aux: bool) -> (FileFacts, usize) {
    let allows = Allows::collect(file);
    let mut findings = Vec::new();
    let mut ordering_sites = 0usize;
    let mut fns = Vec::new();
    let mut edges = Vec::new();
    let mut site_consts = Vec::new();
    let mut site_listed = Vec::new();
    let mut has_sites_mod = false;

    if !aux {
        ordering_sites = rules::check_orderings(file, &allows, &mut findings);
        rules::check_hot_path(file, &allows, &mut findings);
        rules::check_std_sync(file, &allows, &mut findings);
        rules::check_metric_names(file, &allows, &mut findings);
        rules::check_span_pairing(file, &allows, &mut findings);
        let mut catalog = SiteCatalog::default();
        rules::parse_site_catalog(file, &allows, &mut catalog, &mut findings);
        has_sites_mod = catalog.found;
        site_consts = catalog.consts.into_iter().map(|(n, (v, _, l))| (n, v, l)).collect();
        site_listed = catalog.listed.into_iter().collect();
        // Shims implement the lock primitives themselves; their internals
        // are out of scope for the acquisition graph, and keeping their
        // fns out of the call graph stops `lock()`-shaped helpers from
        // becoming resolution targets.
        if !file.rel.starts_with("shims/") {
            let walk = locks::analyze_file(file);
            edges = walk.edges;
            fns = attach_to_fns(file, walk.calls, walk.acquires);
        }
    }

    let mut site_refs: BTreeSet<String> = BTreeSet::new();
    rules::collect_site_refs(file, &mut site_refs);

    let is_test =
        |line: usize| !aux && file.is_test.get(line.saturating_sub(1)).copied().unwrap_or(false);

    // Literals on `check`/`check_at` lines.
    let mut checked = Vec::new();
    let toks = &file.tokens;
    for i in 0..toks.len() {
        if matches!(toks[i].text.as_str(), "check" | "check_at")
            && toks.get(i + 1).map(|t| t.text.as_str()) == Some("(")
        {
            let line = toks[i].line;
            for lit in file.strings.iter().filter(|s| s.line == line) {
                checked.push(StrFact { value: lit.value.clone(), line, test: is_test(line) });
            }
        }
    }

    // Chaos-spec and SLO-spec shaped literals. A spec whose site segment
    // is a format placeholder (`format!("{}@always=…", sites::X)`) covers
    // the const interpolated on the same line; those are recorded as
    // `const:X` so the coverage check can credit them.
    let mut specs = Vec::new();
    let mut slo_refs = Vec::new();
    for lit in &file.strings {
        for site in contracts::parse_spec_sites(&lit.value) {
            specs.push(StrFact { value: site, line: lit.line, test: is_test(lit.line) });
        }
        if lit.value.starts_with("{}@") && lit.value.contains('=') {
            for i in 0..toks.len().saturating_sub(3) {
                if toks[i].line == lit.line
                    && toks[i].text == "sites"
                    && toks[i + 1].text == ":"
                    && toks[i + 2].text == ":"
                    && toks[i + 3].text.chars().next().is_some_and(|c| c.is_ascii_uppercase())
                {
                    specs.push(StrFact {
                        value: format!("const:{}", toks[i + 3].text),
                        line: lit.line,
                        test: is_test(lit.line),
                    });
                }
            }
        }
        for metric in contracts::parse_slo_metrics(&lit.value) {
            slo_refs.push(StrFact { value: metric, line: lit.line, test: is_test(lit.line) });
        }
    }

    // Metric registrations (the literal sits on the call line or, after
    // rustfmt wrapping, the next one). Services that batch-register
    // through a local `counter!("name", field)`-style macro are covered
    // by the macro-invocation arm: the literal appears at the invocation.
    let mut metric_regs = Vec::new();
    for i in 0..toks.len() {
        let direct = rules::REGISTER.contains(&toks[i].text.as_str())
            && toks.get(i + 1).map(|t| t.text.as_str()) == Some("(");
        let via_macro = matches!(toks[i].text.as_str(), "counter" | "gauge" | "histogram")
            && toks.get(i + 1).map(|t| t.text.as_str()) == Some("!")
            && toks.get(i + 2).map(|t| t.text.as_str()) == Some("(");
        if !(direct || via_macro) {
            continue;
        }
        let line = toks[i].line;
        if is_test(line) {
            continue;
        }
        // rustfmt may put each argument on its own line (`register_x(\n
        // node,\n "name",`), so take the first literal within a few lines
        // of the call.
        if let Some(lit) = file.strings.iter().find(|s| s.line >= line && s.line <= line + 3) {
            metric_regs.push(StrFact { value: lit.value.clone(), line, test: false });
        }
    }

    // By-name metric lookups: `<snapshot>.get("name")`. The receiver gate
    // (an ident starting with `snap`, or a `snapshot()`/`NodeId` mention
    // on the line) keeps ordinary string-keyed map lookups out.
    let mut metric_refs = Vec::new();
    for i in 0..toks.len() {
        if toks[i].text != "get"
            || i == 0
            || toks[i - 1].text != "."
            || toks.get(i + 1).map(|t| t.text.as_str()) != Some("(")
        {
            continue;
        }
        let line = toks[i].line;
        let recv_snap = i >= 2 && toks[i - 2].text.starts_with("snap") && toks[i - 2].text != "(";
        let line_code = file.code.get(line - 1).map(String::as_str).unwrap_or("");
        if !(recv_snap || line_code.contains("snapshot") || line_code.contains("NodeId")) {
            continue;
        }
        // The hub signature is `get(NodeId, &str)`: a by-reference first
        // argument (`db.get(&snapshot, "table", …)`) is some other
        // string-keyed lookup that happens to mention a snapshot.
        if toks.get(i + 2).map(|t| t.text.as_str()) == Some("&") {
            continue;
        }
        if let Some(lit) = file.strings.iter().find(|s| s.line == line) {
            // A literal that is entirely a format placeholder (`"{sid}"`)
            // carries no static name to check.
            if lit.value.starts_with('{') {
                continue;
            }
            metric_refs.push(StrFact { value: lit.value.clone(), line, test: is_test(line) });
        }
    }

    // `SocratesConfig` field declarations.
    let mut knobs = Vec::new();
    for i in 0..toks.len() {
        if toks[i].text != "struct"
            || toks.get(i + 1).map(|t| t.text.as_str()) != Some("SocratesConfig")
        {
            continue;
        }
        let mut j = i + 2;
        while j < toks.len() && toks[j].text != "{" {
            j += 1;
        }
        let mut depth = 0i32;
        while j < toks.len() {
            match toks[j].text.as_str() {
                "{" => depth += 1,
                "}" => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                "pub" if depth == 1 => {
                    if let (Some(name), Some(colon)) = (toks.get(j + 1), toks.get(j + 2)) {
                        let is_field = colon.text == ":"
                            && toks.get(j + 3).map(|t| t.text.as_str()) != Some(":")
                            && name.text.chars().next().is_some_and(|c| c.is_ascii_lowercase());
                        if is_field {
                            knobs.push(StrFact {
                                value: name.text.clone(),
                                line: name.line,
                                test: false,
                            });
                        }
                    }
                }
                _ => {}
            }
            j += 1;
        }
        break;
    }

    let facts = FileFacts {
        rel: file.rel.clone(),
        crate_name: file.crate_name.clone(),
        hot: file.hot,
        aux,
        has_sites_mod,
        fns,
        edges,
        allows: allows.to_map(),
        findings,
        site_consts,
        site_listed,
        site_refs: site_refs.into_iter().collect(),
        checked,
        specs,
        metric_regs,
        metric_refs,
        slo_refs,
        knobs,
    };
    (facts, ordering_sites)
}

/// Group the walk results by innermost enclosing function, and collect
/// hot-path badness tokens per function.
fn attach_to_fns(
    file: &SourceFile,
    calls: Vec<locks::CallSite>,
    acquires: Vec<Acquire>,
) -> Vec<FnFacts> {
    let mut fns: Vec<FnFacts> = file
        .fns
        .iter()
        .map(|f| FnFacts {
            name: f.name.clone(),
            impl_type: f.impl_type.clone(),
            impl_trait: f.impl_trait.clone(),
            start: f.header_line,
            end: f.end_line,
            test: file.is_test.get(f.header_line - 1).copied().unwrap_or(false),
            ..FnFacts::default()
        })
        .collect();
    let slot = |line: usize, fns: &[FnFacts]| -> Option<usize> {
        fns.iter()
            .enumerate()
            .filter(|(_, f)| f.start <= line && line <= f.end)
            .min_by_key(|(_, f)| f.end - f.start)
            .map(|(i, _)| i)
    };
    for c in calls {
        if let Some(i) = slot(c.line, &fns) {
            fns[i].calls.push(CallFact {
                callee: c.callee,
                qual: c.qual,
                line: c.line,
                held: c.held,
            });
        }
    }
    for a in acquires {
        if let Some(i) = slot(a.line, &fns) {
            fns[i].acquires.push(a);
        }
    }
    for (idx, code) in file.code.iter().enumerate() {
        let line = idx + 1;
        if file.is_test.get(idx).copied().unwrap_or(false)
            || code.trim_start().starts_with("debug_assert")
        {
            continue;
        }
        for pat in rules::HOT_FORBIDDEN {
            if code.contains(pat) {
                if let Some(i) = slot(line, &fns) {
                    fns[i].bad.push((line, pat.trim_matches(|c| c == '(' || c == '[').to_string()));
                }
            }
        }
    }
    fns
}

// ---------------------------------------------------------------------------
// Serialization
// ---------------------------------------------------------------------------

fn acquire_json(a: &Acquire) -> String {
    format!(
        "{{\"k\":\"{}\",\"m\":\"{}\",\"l\":{}}}",
        json::escape(&a.lock),
        json::escape(&a.method),
        a.line
    )
}

fn strfact_json(s: &StrFact) -> String {
    format!("{{\"v\":\"{}\",\"l\":{},\"t\":{}}}", json::escape(&s.value), s.line, s.test)
}

impl WorkspaceFacts {
    /// Serialize the table.
    pub fn render(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str(&format!("\"version\": {},\n", FACTS_VERSION));
        out.push_str(&format!("\"fingerprint\": \"{:016x}\",\n", self.fingerprint));
        out.push_str(&format!("\"files_scanned\": {},\n", self.files_scanned));
        out.push_str(&format!("\"ordering_sites\": {},\n", self.ordering_sites));
        out.push_str(&format!(
            "\"documented_knobs\": {},\n",
            json::str_arr(self.documented_knobs.iter())
        ));
        out.push_str("\"doc_slo_refs\": [");
        for (i, d) in self.doc_slo_refs.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            out.push_str(&format!(
                "{sep}{{\"file\":\"{}\",\"line\":{},\"metric\":\"{}\"}}",
                json::escape(&d.file),
                d.line,
                json::escape(&d.metric)
            ));
        }
        out.push_str("],\n\"files\": [\n");
        for (i, f) in self.files.iter().enumerate() {
            let sep = if i + 1 == self.files.len() { "" } else { "," };
            out.push_str(&render_file(f));
            out.push_str(sep);
            out.push('\n');
        }
        out.push_str("]\n}\n");
        out
    }

    /// Parse a serialized table. Returns `None` on syntax errors, a
    /// version mismatch, or a malformed document.
    pub fn parse(text: &str) -> Option<WorkspaceFacts> {
        let v = json::parse(text)?;
        if v.u64_field("version") != Some(FACTS_VERSION) {
            return None;
        }
        let fingerprint = u64::from_str_radix(v.str_field("fingerprint")?.as_str(), 16).ok()?;
        let mut ws = WorkspaceFacts {
            fingerprint,
            files_scanned: v.u64_field("files_scanned")? as usize,
            ordering_sites: v.u64_field("ordering_sites")? as usize,
            ..WorkspaceFacts::default()
        };
        for k in v.get("documented_knobs")?.as_arr()? {
            ws.documented_knobs.insert(k.as_str()?.to_string());
        }
        for d in v.get("doc_slo_refs")?.as_arr()? {
            ws.doc_slo_refs.push(DocRef {
                file: d.str_field("file")?,
                line: d.u64_field("line")? as usize,
                metric: d.str_field("metric")?,
            });
        }
        for f in v.get("files")?.as_arr()? {
            ws.files.push(parse_file(f)?);
        }
        Some(ws)
    }
}

fn render_file(f: &FileFacts) -> String {
    let mut out = String::from("{");
    out.push_str(&format!("\"rel\":\"{}\",", json::escape(&f.rel)));
    out.push_str(&format!("\"crate\":\"{}\",", json::escape(&f.crate_name)));
    out.push_str(&format!(
        "\"hot\":{},\"aux\":{},\"sites_mod\":{},",
        f.hot, f.aux, f.has_sites_mod
    ));
    out.push_str("\"fns\":[");
    for (i, func) in f.fns.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("\n {");
        out.push_str(&format!("\"name\":\"{}\",", json::escape(&func.name)));
        match &func.impl_type {
            Some(t) => out.push_str(&format!("\"impl\":\"{}\",", json::escape(t))),
            None => out.push_str("\"impl\":null,"),
        }
        match &func.impl_trait {
            Some(t) => out.push_str(&format!("\"trait\":\"{}\",", json::escape(t))),
            None => out.push_str("\"trait\":null,"),
        }
        out.push_str(&format!(
            "\"start\":{},\"end\":{},\"test\":{},",
            func.start, func.end, func.test
        ));
        out.push_str("\"calls\":[");
        for (j, c) in func.calls.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            let held: Vec<String> = c.held.iter().map(acquire_json).collect();
            out.push_str(&format!(
                "{{\"c\":\"{}\",\"q\":\"{}\",\"l\":{},\"held\":[{}]}}",
                json::escape(&c.callee),
                json::escape(&c.qual.encode()),
                c.line,
                held.join(",")
            ));
        }
        out.push_str("],\"acq\":[");
        for (j, a) in func.acquires.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            out.push_str(&acquire_json(a));
        }
        out.push_str("],\"bad\":[");
        for (j, (l, t)) in func.bad.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            out.push_str(&format!("{{\"l\":{},\"t\":\"{}\"}}", l, json::escape(t)));
        }
        out.push_str("]}");
    }
    out.push_str("],\"edges\":[");
    for (i, e) in f.edges.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"ol\":\"{}\",\"om\":\"{}\",\"oln\":{},\"il\":\"{}\",\"im\":\"{}\",\"iln\":{},\"fn\":\"{}\"}}",
            json::escape(&e.outer.lock),
            json::escape(&e.outer.method),
            e.outer.line,
            json::escape(&e.inner.lock),
            json::escape(&e.inner.method),
            e.inner.line,
            json::escape(&e.func)
        ));
    }
    out.push_str("],\"allows\":{");
    for (i, (rule, lines)) in f.allows.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\"{}\":{}",
            json::escape(rule),
            json::num_arr(lines.iter().copied())
        ));
    }
    out.push_str("},\"findings\":[");
    for (i, fi) in f.findings.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"r\":\"{}\",\"l\":{},\"m\":\"{}\",\"s\":{}}}",
            fi.rule.id(),
            fi.line,
            json::escape(&fi.message),
            fi.suppressed
        ));
    }
    out.push_str("],\"site_consts\":[");
    for (i, (n, v, l)) in f.site_consts.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"n\":\"{}\",\"v\":\"{}\",\"l\":{}}}",
            json::escape(n),
            json::escape(v),
            l
        ));
    }
    out.push_str(&format!("],\"site_listed\":{},", json::str_arr(f.site_listed.iter())));
    out.push_str(&format!("\"site_refs\":{},", json::str_arr(f.site_refs.iter())));
    for (key, list) in [
        ("checked", &f.checked),
        ("specs", &f.specs),
        ("metric_regs", &f.metric_regs),
        ("metric_refs", &f.metric_refs),
        ("slo_refs", &f.slo_refs),
        ("knobs", &f.knobs),
    ] {
        let items: Vec<String> = list.iter().map(strfact_json).collect();
        out.push_str(&format!("\"{}\":[{}],", key, items.join(",")));
    }
    out.pop(); // trailing comma from the loop above
    out.push('}');
    out
}

fn parse_acquire(v: &Json) -> Option<Acquire> {
    Some(Acquire {
        lock: v.str_field("k")?,
        method: v.str_field("m")?,
        line: v.u64_field("l")? as usize,
    })
}

fn parse_strfacts(v: &Json, key: &str) -> Option<Vec<StrFact>> {
    let mut out = Vec::new();
    for s in v.get(key)?.as_arr()? {
        out.push(StrFact {
            value: s.str_field("v")?,
            line: s.u64_field("l")? as usize,
            test: s.get("t")?.as_bool()?,
        });
    }
    Some(out)
}

fn parse_file(v: &Json) -> Option<FileFacts> {
    let mut f = FileFacts {
        rel: v.str_field("rel")?,
        crate_name: v.str_field("crate")?,
        hot: v.get("hot")?.as_bool()?,
        aux: v.get("aux")?.as_bool()?,
        has_sites_mod: v.get("sites_mod")?.as_bool()?,
        ..FileFacts::default()
    };
    for fv in v.get("fns")?.as_arr()? {
        let mut func = FnFacts {
            name: fv.str_field("name")?,
            impl_type: fv.get("impl").and_then(|t| t.as_str()).map(str::to_string),
            impl_trait: fv.get("trait").and_then(|t| t.as_str()).map(str::to_string),
            start: fv.u64_field("start")? as usize,
            end: fv.u64_field("end")? as usize,
            test: fv.get("test")?.as_bool()?,
            ..FnFacts::default()
        };
        for cv in fv.get("calls")?.as_arr()? {
            let mut held = Vec::new();
            for hv in cv.get("held")?.as_arr()? {
                held.push(parse_acquire(hv)?);
            }
            func.calls.push(CallFact {
                callee: cv.str_field("c")?,
                qual: CallQual::decode(&cv.str_field("q")?),
                line: cv.u64_field("l")? as usize,
                held,
            });
        }
        for av in fv.get("acq")?.as_arr()? {
            func.acquires.push(parse_acquire(av)?);
        }
        for bv in fv.get("bad")?.as_arr()? {
            func.bad.push((bv.u64_field("l")? as usize, bv.str_field("t")?));
        }
        f.fns.push(func);
    }
    for ev in v.get("edges")?.as_arr()? {
        f.edges.push(Edge {
            outer: Acquire {
                lock: ev.str_field("ol")?,
                method: ev.str_field("om")?,
                line: ev.u64_field("oln")? as usize,
            },
            inner: Acquire {
                lock: ev.str_field("il")?,
                method: ev.str_field("im")?,
                line: ev.u64_field("iln")? as usize,
            },
            file: f.rel.clone(),
            func: ev.str_field("fn")?,
            chain: Vec::new(),
        });
    }
    if let Some(Json::Obj(m)) = v.get("allows") {
        for (rule, lines) in m {
            let lines: Vec<usize> =
                lines.as_arr()?.iter().filter_map(|l| l.as_u64()).map(|l| l as usize).collect();
            f.allows.insert(rule.clone(), lines);
        }
    }
    for fv in v.get("findings")?.as_arr()? {
        f.findings.push(Finding {
            rule: Rule::from_id(&fv.str_field("r")?)?,
            file: f.rel.clone(),
            line: fv.u64_field("l")? as usize,
            message: fv.str_field("m")?,
            suppressed: fv.get("s")?.as_bool()?,
            baselined: false,
        });
    }
    for sv in v.get("site_consts")?.as_arr()? {
        f.site_consts.push((sv.str_field("n")?, sv.str_field("v")?, sv.u64_field("l")? as usize));
    }
    for s in v.get("site_listed")?.as_arr()? {
        f.site_listed.push(s.as_str()?.to_string());
    }
    for s in v.get("site_refs")?.as_arr()? {
        f.site_refs.push(s.as_str()?.to_string());
    }
    f.checked = parse_strfacts(v, "checked")?;
    f.specs = parse_strfacts(v, "specs")?;
    f.metric_regs = parse_strfacts(v, "metric_regs")?;
    f.metric_refs = parse_strfacts(v, "metric_refs")?;
    f.slo_refs = parse_strfacts(v, "slo_refs")?;
    f.knobs = parse_strfacts(v, "knobs")?;
    Some(f)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn scan(rel: &str, src: &str) -> SourceFile {
        SourceFile::scan(rel.into(), PathBuf::from(rel), "t".into(), src)
    }

    #[test]
    fn extracts_fns_calls_and_contract_surfaces() {
        let src = "impl S {\n fn f(&self) {\n  let g = self.alpha.lock();\n  self.helper();\n }\n}\npub struct SocratesConfig {\n pub knob_a: u64,\n pub knob_b: bool,\n}\nfn reg(h: &Hub) {\n h.register_counter(n, \"a.b_total\", c);\n}\nconst SPEC: &str = \"x.y@always=drop\";\nconst SLO: &str = \"primary.0.lag_bytes.p99 < 10 over 60s\";\n";
        let f = scan("crates/t/src/lib.rs", src);
        let (facts, _) = extract_file(&f, false);
        let f_facts = facts.fns.iter().find(|x| x.name == "f").expect("fn f");
        let call = f_facts.calls.iter().find(|c| c.callee == "helper").expect("call");
        assert_eq!(call.held.len(), 1);
        assert_eq!(f_facts.acquires.len(), 1);
        assert_eq!(
            facts.knobs.iter().map(|k| k.value.as_str()).collect::<Vec<_>>(),
            vec!["knob_a", "knob_b"]
        );
        assert_eq!(facts.metric_regs[0].value, "a.b_total");
        assert_eq!(facts.specs[0].value, "x.y");
        assert_eq!(facts.slo_refs[0].value, "lag_bytes");
    }

    #[test]
    fn facts_table_round_trips() {
        let src = "#![doc = \"soclint:hot\"]\nimpl S {\n fn f(&self) {\n  let g = self.alpha.lock();\n  let h = self.beta.lock();\n  self.helper();\n  x.unwrap();\n }\n}\n// soclint-allow: hot-path test reason\nfn cold() { y.expect(\"m\"); }\n";
        let f = scan("crates/t/src/lib.rs", src);
        let (facts, sites) = extract_file(&f, false);
        let ws = WorkspaceFacts {
            fingerprint: 0xdead_beef_0042_1234,
            files_scanned: 1,
            ordering_sites: sites,
            documented_knobs: ["a".to_string()].into_iter().collect(),
            doc_slo_refs: vec![DocRef { file: "README.md".into(), line: 9, metric: "m".into() }],
            files: vec![facts],
        };
        let text = ws.render();
        let back = WorkspaceFacts::parse(&text).expect("parses");
        assert_eq!(back.fingerprint, ws.fingerprint);
        assert_eq!(back.files.len(), 1);
        let (a, b) = (&ws.files[0], &back.files[0]);
        assert_eq!(a.rel, b.rel);
        assert_eq!(a.hot, b.hot);
        assert_eq!(a.fns.len(), b.fns.len());
        assert_eq!(a.edges.len(), b.edges.len());
        assert_eq!(b.edges[0].outer.lock, "t::S.alpha");
        assert_eq!(a.findings.len(), b.findings.len());
        assert_eq!(a.allows, b.allows);
        let fa = a.fns.iter().find(|x| x.name == "f").unwrap();
        let fb = b.fns.iter().find(|x| x.name == "f").unwrap();
        assert_eq!(fa.calls.len(), fb.calls.len());
        assert_eq!(fa.bad, fb.bad);
        assert_eq!(back.doc_slo_refs, ws.doc_slo_refs);
    }

    #[test]
    fn version_mismatch_is_rejected() {
        let doc = "{\"version\": 1, \"fingerprint\": \"0\", \"files_scanned\": 0, \"ordering_sites\": 0, \"documented_knobs\": [], \"doc_slo_refs\": [], \"files\": []}";
        assert!(WorkspaceFacts::parse(doc).is_none());
    }

    #[test]
    fn fnv_is_stable() {
        let h = fnv1a(b"soclint", FNV_SEED);
        assert_eq!(h, fnv1a(b"soclint", FNV_SEED));
        assert_ne!(h, fnv1a(b"soclint2", FNV_SEED));
    }
}

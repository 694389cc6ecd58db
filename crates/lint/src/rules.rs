//! The per-file rule implementations and the suppression machinery.

use crate::lexer::SourceFile;
use crate::report::{Finding, Rule};
use std::collections::{BTreeMap, BTreeSet};

/// The atomic-ordering variants the justification rule tracks.
const ORDERINGS: [&str; 5] = ["Relaxed", "Acquire", "Release", "AcqRel", "SeqCst"];

/// Tokens that betray panics, clocks, or allocation on a hot path.
/// (`debug_assert!` is exempt: it vanishes in release builds.)
pub const HOT_FORBIDDEN: [&str; 17] = [
    ".unwrap()",
    ".expect(",
    "Instant::now()",
    "panic!(",
    "format!(",
    "vec![",
    "Vec::new()",
    "Vec::with_capacity(",
    "Box::new(",
    "String::new()",
    "String::from(",
    ".to_string()",
    ".to_owned()",
    ".to_vec()",
    ".collect()",
    "HashMap::new()",
    "BTreeMap::new()",
];

/// Per-file suppression index: rule → lines covered by an allow comment.
#[derive(Default)]
pub struct Allows {
    covered: BTreeMap<Rule, BTreeSet<usize>>,
}

impl Allows {
    /// Collect `// soclint-allow: <rule> <reason>` comments. The reason may
    /// wrap onto following pure-comment lines; the allow covers the whole
    /// comment block plus the line after it. If a `fn` header starts on a
    /// covered line, the whole function body is covered for that rule.
    pub fn collect(file: &SourceFile) -> Allows {
        let mut allows = Allows::default();
        for (idx, c) in file.comment.iter().enumerate() {
            let Some(pos) = c.find("soclint-allow:") else { continue };
            let rest = &c[pos + "soclint-allow:".len()..];
            let mut words = rest.split_whitespace();
            let Some(rule) = words.next().and_then(Rule::from_id) else { continue };
            // Wrapped reasons: the block ends at the last consecutive line
            // that is comment-only (no code), so a trailing allow on a code
            // line still covers only itself plus the next line.
            let mut last = idx;
            while last + 1 < file.comment.len()
                && !file.comment[last + 1].is_empty()
                && file.code[last + 1].trim().is_empty()
            {
                last += 1;
            }
            let first_line = idx + 1;
            let next_line = last + 2; // first line after the comment block
            let set = allows.covered.entry(rule).or_default();
            for l in first_line..=next_line {
                set.insert(l);
            }
            for f in &file.fns {
                if f.header_line >= first_line && f.header_line <= next_line {
                    for l in f.header_line..=f.end_line {
                        set.insert(l);
                    }
                }
            }
        }
        allows
    }

    /// Whether `rule` findings on `line` are suppressed.
    pub fn covers(&self, rule: Rule, line: usize) -> bool {
        self.covered.get(&rule).is_some_and(|s| s.contains(&line))
    }

    /// Serialize to the facts-table shape (rule id → covered lines).
    pub fn to_map(&self) -> BTreeMap<String, Vec<usize>> {
        self.covered
            .iter()
            .map(|(r, lines)| (r.id().to_string(), lines.iter().copied().collect()))
            .collect()
    }

    /// Rebuild from the facts-table shape. Unknown rule ids are dropped.
    pub fn from_map(map: &BTreeMap<String, Vec<usize>>) -> Allows {
        let mut allows = Allows::default();
        for (id, lines) in map {
            if let Some(rule) = Rule::from_id(id) {
                allows.covered.entry(rule).or_default().extend(lines.iter().copied());
            }
        }
        allows
    }
}

/// Rule `ordering-comment` + `seqcst-default`. Returns the findings and
/// the number of sites inspected.
pub fn check_orderings(file: &SourceFile, allows: &Allows, out: &mut Vec<Finding>) -> usize {
    let mut sites = 0usize;
    for (idx, code) in file.code.iter().enumerate() {
        let line = idx + 1;
        if file.is_test[idx] {
            continue;
        }
        let mut search = 0usize;
        while let Some(rel_pos) = code[search..].find("Ordering::") {
            let pos = search + rel_pos;
            let after = &code[pos + "Ordering::".len()..];
            search = pos + "Ordering::".len();
            let Some(variant) = ORDERINGS.iter().find(|v| {
                after.starts_with(**v)
                    && !after[v.len()..]
                        .chars()
                        .next()
                        .is_some_and(|c| c.is_alphanumeric() || c == '_')
            }) else {
                continue; // e.g. `cmp::Ordering::Less`
            };
            sites += 1;
            let comments = file.adjacent_comments(line);
            let justified = comments.contains("ordering:");
            if !justified {
                out.push(Finding {
                    rule: Rule::OrderingComment,
                    file: file.rel.clone(),
                    line,
                    message: format!(
                        "Ordering::{variant} without an adjacent `// ordering:` justification"
                    ),
                    suppressed: allows.covers(Rule::OrderingComment, line),
                    baselined: false,
                });
            }
            if *variant == "SeqCst" && !comments.to_lowercase().contains("seqcst") {
                out.push(Finding {
                    rule: Rule::SeqCstDefault,
                    file: file.rel.clone(),
                    line,
                    message: "Ordering::SeqCst without a justification arguing for SeqCst \
                              specifically — default-smell; use the weakest ordering that is \
                              correct, or say why sequential consistency is required"
                        .into(),
                    suppressed: allows.covers(Rule::SeqCstDefault, line),
                    baselined: false,
                });
            }
        }
    }
    sites
}

/// Rule `hot-path`: panic/clock/allocation tokens in `soclint:hot` files.
pub fn check_hot_path(file: &SourceFile, allows: &Allows, out: &mut Vec<Finding>) {
    if !file.hot {
        return;
    }
    for (idx, code) in file.code.iter().enumerate() {
        let line = idx + 1;
        if file.is_test[idx] {
            continue;
        }
        if code.trim_start().starts_with("debug_assert") {
            continue;
        }
        for pat in HOT_FORBIDDEN {
            if let Some(pos) = code.find(pat) {
                // `debug_assert!(..., format!(..))` style lines are rare;
                // the trim check above covers the common shape.
                let _ = pos;
                out.push(Finding {
                    rule: Rule::HotPath,
                    file: file.rel.clone(),
                    line,
                    message: format!(
                        "`{}` in a soclint:hot module — hot paths must not panic, read the \
                         clock, or allocate; move this to a cold function or justify with \
                         soclint-allow",
                        pat.trim_matches(|c| c == '(' || c == '[')
                    ),
                    suppressed: allows.covers(Rule::HotPath, line),
                    baselined: false,
                });
            }
        }
    }
}

/// Rule `std-sync`: `std::sync::{Mutex,RwLock,Condvar}` outside the shim.
pub fn check_std_sync(file: &SourceFile, allows: &Allows, out: &mut Vec<Finding>) {
    if file.rel.starts_with("shims/") {
        return;
    }
    let toks = &file.tokens;
    let mut i = 0usize;
    while i + 3 < toks.len() {
        if toks[i].text == "sync" && toks[i + 1].text == ":" && toks[i + 2].text == ":" {
            let flag = |line: usize, what: &str, out: &mut Vec<Finding>| {
                out.push(Finding {
                    rule: Rule::StdSync,
                    file: file.rel.clone(),
                    line,
                    message: format!(
                        "std::sync::{what} bypasses the parking_lot shim — the lock-rank \
                         tracker cannot see this lock; use the shimmed type"
                    ),
                    suppressed: allows.covers(Rule::StdSync, line),
                    baselined: false,
                });
            };
            let t = &toks[i + 3];
            match t.text.as_str() {
                "Mutex" | "RwLock" | "Condvar" => flag(t.line, &t.text.clone(), out),
                "{" => {
                    let mut j = i + 4;
                    while j < toks.len() && toks[j].text != "}" {
                        if matches!(toks[j].text.as_str(), "Mutex" | "RwLock" | "Condvar") {
                            let (line, what) = (toks[j].line, toks[j].text.clone());
                            flag(line, &what, out);
                        }
                        j += 1;
                    }
                }
                _ => {}
            }
        }
        i += 1;
    }
}

/// The fault-site catalog parsed out of `common::fault::sites`.
#[derive(Debug, Default)]
pub struct SiteCatalog {
    /// const name → (value, file, line).
    pub consts: BTreeMap<String, (String, String, usize)>,
    /// Names listed in `sites::ALL`.
    pub listed: BTreeSet<String>,
    /// Whether a catalog was found at all.
    pub found: bool,
}

/// Parse the `pub mod sites` catalog if `file` contains it, reporting
/// duplicate site strings as it goes.
pub fn parse_site_catalog(
    file: &SourceFile,
    allows: &Allows,
    catalog: &mut SiteCatalog,
    out: &mut Vec<Finding>,
) {
    let Some(mod_idx) = file.code.iter().position(|l| l.contains("pub mod sites")) else {
        return;
    };
    catalog.found = true;
    // Extent of the mod block.
    let mut depth = 0i32;
    let mut end = file.code.len();
    for (idx, l) in file.code.iter().enumerate().skip(mod_idx) {
        for c in l.chars() {
            match c {
                '{' => depth += 1,
                '}' => {
                    depth -= 1;
                    if depth == 0 {
                        end = idx;
                    }
                }
                _ => {}
            }
        }
        if end != file.code.len() {
            break;
        }
    }
    let mut seen_values: BTreeMap<String, usize> = BTreeMap::new();
    for idx in mod_idx..=end.min(file.code.len() - 1) {
        let code = &file.code[idx];
        let line = idx + 1;
        if let Some(pos) = code.find("const ") {
            let rest = &code[pos + "const ".len()..];
            let name: String =
                rest.chars().take_while(|c| c.is_alphanumeric() || *c == '_').collect();
            if name.is_empty() || name == "ALL" {
                continue;
            }
            let Some(lit) = file.strings.iter().find(|s| s.line == line) else { continue };
            if let Some(&first) = seen_values.get(&lit.value) {
                out.push(Finding {
                    rule: Rule::FaultSite,
                    file: file.rel.clone(),
                    line,
                    message: format!(
                        "duplicate fault-site string \"{}\" (first declared on line {first}) — \
                         site names must be unique",
                        lit.value
                    ),
                    suppressed: allows.covers(Rule::FaultSite, line),
                    baselined: false,
                });
            } else {
                seen_values.insert(lit.value.clone(), line);
            }
            catalog.consts.insert(name, (lit.value.clone(), file.rel.clone(), line));
        }
    }
    // Names listed in ALL: idents between `ALL` and the closing `]`.
    let toks = &file.tokens;
    for i in 0..toks.len() {
        if toks[i].text == "ALL" && toks[i].line > mod_idx && toks[i].line <= end + 1 {
            // Skip the type annotation: the member list starts after `=`.
            let mut j = i + 1;
            while j < toks.len() && toks[j].text != "=" {
                j += 1;
            }
            while j < toks.len() && toks[j].text != ";" {
                let t = &toks[j].text;
                if t.chars().next().is_some_and(|c| c.is_ascii_uppercase())
                    && t.chars().all(|c| c.is_ascii_uppercase() || c == '_' || c.is_ascii_digit())
                {
                    catalog.listed.insert(t.clone());
                }
                j += 1;
            }
            break;
        }
    }
}

/// Catalog-level checks run once all files are parsed: every declared
/// site must appear in `sites::ALL` and be consulted somewhere.
pub fn check_site_catalog(
    catalog: &SiteCatalog,
    references: &BTreeSet<String>,
    out: &mut Vec<Finding>,
) {
    if !catalog.found {
        return;
    }
    for (name, (value, file, line)) in &catalog.consts {
        if !catalog.listed.contains(name) {
            out.push(Finding {
                rule: Rule::FaultSite,
                file: file.clone(),
                line: *line,
                message: format!("fault site {name} (\"{value}\") is not listed in sites::ALL"),
                suppressed: false,
                baselined: false,
            });
        }
        if !references.contains(name) {
            out.push(Finding {
                rule: Rule::FaultSite,
                file: file.clone(),
                line: *line,
                message: format!("fault site {name} (\"{value}\") is declared but never consulted"),
                suppressed: false,
                baselined: false,
            });
        }
    }
}

/// Collect `sites::CONST` references in a file (any file, including test
/// sources — a site consulted only by tests still counts as wired).
pub fn collect_site_refs(file: &SourceFile, refs: &mut BTreeSet<String>) {
    let toks = &file.tokens;
    for i in 0..toks.len().saturating_sub(3) {
        if toks[i].text == "sites" && toks[i + 1].text == ":" && toks[i + 2].text == ":" {
            let name = &toks[i + 3].text;
            if name.chars().next().is_some_and(|c| c.is_ascii_uppercase()) && name != "ALL" {
                refs.insert(name.clone());
            }
        }
    }
}

/// Whether a string literal looks like a fault-site path (dotted
/// lowercase, the catalog's naming shape).
pub fn site_shaped(value: &str) -> bool {
    value.contains('.')
        && !value.is_empty()
        && value
            .chars()
            .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '.' || c == '_')
}

/// The hub registration methods whose first literal argument is a metric
/// name.
pub const REGISTER: [&str; 6] = [
    "register_counter",
    "register_gauge",
    "register_histogram",
    "register_counter_fn",
    "register_gauge_fn",
    "register_histogram_fn",
];

/// Rule `metric-name`: literal names registered into the hub must be
/// lowercase dotted snake_case (`tier.index.` is prefixed by the hub from
/// the NodeId; the registered name supplies the trailing segments).
pub fn check_metric_names(file: &SourceFile, allows: &Allows, out: &mut Vec<Finding>) {
    let toks = &file.tokens;
    for i in 0..toks.len() {
        if !REGISTER.contains(&toks[i].text.as_str()) {
            continue;
        }
        if toks.get(i + 1).map(|t| t.text.as_str()) != Some("(") {
            continue; // definition site or mention, not a call
        }
        let line = toks[i].line;
        if file.is_test.get(line - 1).copied().unwrap_or(false) {
            continue;
        }
        // The name literal sits on the call's line or the next (rustfmt
        // may wrap); dynamic names (format!/variables) are skipped.
        let Some(lit) = file.strings.iter().find(|s| s.line == line || s.line == line + 1) else {
            continue;
        };
        if lit.value.contains('{') {
            continue; // format! template — dynamic suffix, checked at runtime
        }
        let valid = !lit.value.is_empty()
            && lit.value.split('.').all(|seg| {
                !seg.is_empty()
                    && seg.chars().next().is_some_and(|c| c.is_ascii_lowercase())
                    && seg.chars().all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_')
            });
        if !valid {
            out.push(Finding {
                rule: Rule::MetricName,
                file: file.rel.clone(),
                line,
                message: format!(
                    "metric name \"{}\" violates the `tier.index.metric` convention: names \
                     must be dotted lowercase snake_case segments",
                    lit.value
                ),
                suppressed: allows.covers(Rule::MetricName, line),
                baselined: false,
            });
        }
    }
}

/// Rule `span-pairing`. The workspace's span idiom is not begin/end but
/// capture/record: a function captures a start timestamp
/// (`ring.now_ns()`, usually behind `span_sink(..).map(..)`) and later
/// feeds it to `record_root`/`record_child`. A `return` or `?` between
/// the capture and the record silently drops the span — the exact
/// error-path blind spot the observability story cannot afford. This
/// rule walks each function's lexical exits and flags captures that can
/// escape unrecorded. Functions that capture but never record anywhere
/// are begin-helpers (they hand the timestamp to their caller) and are
/// skipped.
pub fn check_span_pairing(file: &SourceFile, allows: &Allows, out: &mut Vec<Finding>) {
    let toks = &file.tokens;
    // Event streams: span begins, record calls, lexical exits.
    let mut begins: Vec<usize> = Vec::new();
    let mut records: Vec<usize> = Vec::new();
    let mut exits: Vec<usize> = Vec::new();
    for i in 0..toks.len() {
        let t = &toks[i];
        if file.is_test.get(t.line - 1).copied().unwrap_or(false) {
            continue;
        }
        match t.text.as_str() {
            "now_ns" => {
                let is_call = toks.get(i + 1).map(|t| t.text.as_str()) == Some("(")
                    && toks.get(i + 2).map(|t| t.text.as_str()) == Some(")");
                let is_def = i > 0 && toks[i - 1].text == "fn";
                if is_call && !is_def {
                    begins.push(t.line);
                }
            }
            "record_root" | "record_child"
                if toks.get(i + 1).map(|t| t.text.as_str()) == Some("(") =>
            {
                records.push(t.line);
            }
            "return" | "?" => exits.push(t.line),
            _ => {}
        }
    }
    if begins.is_empty() {
        return;
    }
    for f in &file.fns {
        // Attribute events to their innermost function.
        let innermost =
            |line: usize| file.enclosing_fn(line).is_some_and(|e| e.header_line == f.header_line);
        let fn_records: Vec<usize> = records.iter().copied().filter(|&l| innermost(l)).collect();
        if fn_records.is_empty() {
            continue; // begin-helper: the caller records
        }
        let fn_begins: Vec<usize> = begins.iter().copied().filter(|&l| innermost(l)).collect();
        for &b in &fn_begins {
            // An exit strictly after the begin is covered when some
            // record sits between the begin and the exit. The implicit
            // end-of-function exit is covered by any record after the
            // begin.
            let mut uncovered: Vec<usize> = exits
                .iter()
                .copied()
                .filter(|&e| innermost(e) && e > b)
                .filter(|&e| !fn_records.iter().any(|&r| b < r && r <= e))
                .collect();
            if !fn_records.iter().any(|&r| r > b) {
                uncovered.push(f.end_line);
            }
            uncovered.sort_unstable();
            uncovered.dedup();
            if let Some(&first) = uncovered.first() {
                let suppressed =
                    allows.covers(Rule::SpanPairing, first) || allows.covers(Rule::SpanPairing, b);
                out.push(Finding {
                    rule: Rule::SpanPairing,
                    file: file.rel.clone(),
                    line: first,
                    message: format!(
                        "span started on line {b} in `{}` can escape on {} return path(s) \
                         (first at line {first}) before record_root/record_child — record the \
                         span on every exit or drop the capture",
                        f.name,
                        uncovered.len()
                    ),
                    suppressed,
                    baselined: false,
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn scan(rel: &str, src: &str) -> SourceFile {
        SourceFile::scan(rel.into(), PathBuf::from(rel), "t".into(), src)
    }

    #[test]
    fn ordering_needs_adjacent_comment() {
        let f = scan(
            "a.rs",
            "fn f(x: &AtomicU64) {\n x.load(Ordering::Relaxed); // ordering: test counter\n x.store(1, Ordering::Release);\n}\n",
        );
        let allows = Allows::collect(&f);
        let mut out = Vec::new();
        let sites = check_orderings(&f, &allows, &mut out);
        assert_eq!(sites, 2);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].line, 3);
    }

    #[test]
    fn cmp_ordering_is_not_a_site() {
        let f = scan("a.rs", "fn f() { let _ = std::cmp::Ordering::Less; }\n");
        let mut out = Vec::new();
        assert_eq!(check_orderings(&f, &Allows::collect(&f), &mut out), 0);
        assert!(out.is_empty());
    }

    #[test]
    fn seqcst_needs_specific_justification() {
        let f = scan(
            "a.rs",
            "fn f(x: &AtomicU64) {\n // ordering: just because\n x.load(Ordering::SeqCst);\n // ordering: seqcst needed, total order across flags\n x.load(Ordering::SeqCst);\n}\n",
        );
        let mut out = Vec::new();
        check_orderings(&f, &Allows::collect(&f), &mut out);
        let seq: Vec<_> = out.iter().filter(|f| f.rule == Rule::SeqCstDefault).collect();
        assert_eq!(seq.len(), 1);
        assert_eq!(seq[0].line, 3);
    }

    #[test]
    fn allow_comment_suppresses_and_extends_over_fn() {
        let f = scan(
            "a.rs",
            "// soclint-allow: hot-path cold query path\nfn f(x: &Foo) {\n x.q.unwrap();\n}\n#![doc = \"x\"]\n",
        );
        let allows = Allows::collect(&f);
        assert!(allows.covers(Rule::HotPath, 3));
        assert!(!allows.covers(Rule::HotPath, 5));
    }

    #[test]
    fn hot_path_flags_only_hot_files() {
        let src = "#![doc = \"soclint:hot\"]\nfn f(v: Option<u32>) {\n v.unwrap();\n let t = Instant::now();\n}\n";
        let f = scan("a.rs", src);
        let mut out = Vec::new();
        check_hot_path(&f, &Allows::collect(&f), &mut out);
        assert_eq!(out.len(), 2);
        let cold = scan("b.rs", &src.replace("soclint:hot", "plain"));
        let mut out2 = Vec::new();
        check_hot_path(&cold, &Allows::collect(&cold), &mut out2);
        assert!(out2.is_empty());
    }

    #[test]
    fn std_sync_flagged_outside_shims() {
        let f = scan("crates/x/src/lib.rs", "use std::sync::{Arc, Mutex};\n");
        let mut out = Vec::new();
        check_std_sync(&f, &Allows::collect(&f), &mut out);
        assert_eq!(out.len(), 1);
        let shim = scan("shims/parking_lot/src/lib.rs", "use std::sync::Mutex;\n");
        let mut out2 = Vec::new();
        check_std_sync(&shim, &Allows::collect(&shim), &mut out2);
        assert!(out2.is_empty());
    }

    #[test]
    fn metric_name_convention() {
        let f = scan(
            "a.rs",
            "fn f(h: &Hub) {\n h.register_counter(n, \"Good_Name\", c);\n h.register_gauge(n, \"ok.lag_bytes\", g);\n}\n",
        );
        let mut out = Vec::new();
        check_metric_names(&f, &Allows::collect(&f), &mut out);
        assert_eq!(out.len(), 1);
        assert!(out[0].message.contains("Good_Name"));
    }

    #[test]
    fn site_catalog_duplicates_and_all_listing() {
        let src = "pub mod sites {\n pub const A: &str = \"a.b\";\n pub const B: &str = \"a.b\";\n pub const C: &str = \"c.d\";\n pub const ALL: &[&str] = &[A, B];\n}\n";
        let f = scan("crates/common/src/fault.rs", src);
        let allows = Allows::collect(&f);
        let mut catalog = SiteCatalog::default();
        let mut out = Vec::new();
        parse_site_catalog(&f, &allows, &mut catalog, &mut out);
        assert_eq!(out.len(), 1, "duplicate value flagged: {out:?}");
        let mut refs = BTreeSet::new();
        refs.insert("A".to_string());
        refs.insert("B".to_string());
        check_site_catalog(&catalog, &refs, &mut out);
        // C not in ALL + C never consulted.
        assert_eq!(out.len(), 3, "{out:?}");
    }

    #[test]
    fn site_shaped_matches_catalog_naming() {
        assert!(site_shaped("rbio.transport.recv"));
        assert!(site_shaped("lz.quorum_ack"));
        assert!(!site_shaped("plainword"));
        assert!(!site_shaped("Not.Lower"));
        assert!(!site_shaped(""));
    }

    #[test]
    fn span_capture_escaping_on_error_path_is_flagged() {
        let src = "fn serve(&self) -> Result<u64, E> {\n let t0 = ring.now_ns();\n let n = self.len()?;\n ring.record_child(t0);\n Ok(n)\n}\n";
        let f = scan("a.rs", src);
        let mut out = Vec::new();
        check_span_pairing(&f, &Allows::collect(&f), &mut out);
        assert_eq!(out.len(), 1, "{out:?}");
        assert_eq!(out[0].rule, Rule::SpanPairing);
        assert_eq!(out[0].line, 3, "the `?` exit before the record");
    }

    #[test]
    fn span_recorded_on_all_paths_is_clean() {
        let src = "fn serve(&self) -> Result<u64, E> {\n let t0 = ring.now_ns();\n let n = compute();\n ring.record_child(t0);\n Ok(n)\n}\n";
        let f = scan("a.rs", src);
        let mut out = Vec::new();
        check_span_pairing(&f, &Allows::collect(&f), &mut out);
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn span_begin_helper_is_skipped() {
        // Captures the timestamp and returns it — the caller records.
        let src = "fn start(&self) -> u64 {\n ring.now_ns()\n}\n";
        let f = scan("a.rs", src);
        let mut out = Vec::new();
        check_span_pairing(&f, &Allows::collect(&f), &mut out);
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn span_never_recorded_flags_the_implicit_exit() {
        let src = "fn serve(&self) {\n let t0 = ring.now_ns();\n if t0 > 0 {\n ring.record_child(t0);\n }\n}\nfn other(&self) {\n let t1 = ring.now_ns();\n work(t1);\n ring.record_root(t1);\n let t2 = ring.now_ns();\n work(t2);\n}\n";
        let f = scan("a.rs", src);
        let mut out = Vec::new();
        check_span_pairing(&f, &Allows::collect(&f), &mut out);
        // `serve` records on its only path; `other`'s second capture
        // reaches the end of the function unrecorded.
        assert_eq!(out.len(), 1, "{out:?}");
        assert!(out[0].message.contains("`other`"));
    }
}

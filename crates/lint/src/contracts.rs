//! Pass 2b: string-contract conformance.
//!
//! The workspace wires several subsystems together through string
//! literals: fault sites connect the catalog to chaos specs, metric
//! names connect registrations to SLO specs and by-name lookups, and
//! `SocratesConfig` field names connect the config surface to its
//! documentation. A typo in any of them fails silently at runtime — a
//! chaos test that never fires, an SLO that never evaluates, a knob
//! nobody can discover. These checks close the loop in both directions,
//! entirely off the facts table.

use crate::facts::WorkspaceFacts;
use crate::report::{Finding, Rule};
use crate::rules::{self, Allows, SiteCatalog};
use std::collections::{BTreeMap, BTreeSet};

/// Aggregation suffixes an SLO path may append to a metric name.
const SLO_AGGS: [&str; 9] = ["p50", "p90", "p95", "p99", "p999", "max", "mean", "rate", "value"];

/// Extract the fault-site names a chaos-spec-shaped string injects.
/// Grammar (from `common::fault`): `site@schedule=action`, `;`-separated.
/// A segment only parses when the site is catalog-shaped (lowercase
/// dotted path) and an `=` follows the schedule — ordinary prose or
/// e-mail-like strings do not match.
pub fn parse_spec_sites(s: &str) -> Vec<String> {
    let mut out = Vec::new();
    for seg in s.split(';') {
        let seg = seg.trim();
        let Some((site, rest)) = seg.split_once('@') else { continue };
        if site.is_empty()
            || !site
                .chars()
                .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '.' || c == '_')
        {
            continue;
        }
        if !rest.contains('=') {
            continue;
        }
        out.push(site.to_string());
    }
    out
}

/// Extract the metric names an SLO-spec-shaped string evaluates.
/// Grammar (from `common::obs::slo`):
/// `<tier>.<idx>.<metric>[.<agg>] <op> <threshold> over <window>`.
/// Matching slides a five-word window so multi-clause specs and
/// surrounding prose (docs, CI) both work.
pub fn parse_slo_metrics(s: &str) -> Vec<String> {
    let words: Vec<&str> =
        s.split_whitespace().map(|w| w.trim_matches(|c| c == ';' || c == ',')).collect();
    let mut out = Vec::new();
    for i in 0..words.len() {
        if i + 5 > words.len() {
            break;
        }
        let (path, op, threshold, over, window) =
            (words[i], words[i + 1], words[i + 2], words[i + 3], words[i + 4]);
        if !matches!(op, "<" | "<=" | ">" | ">=") || over != "over" {
            continue;
        }
        let starts_num = |w: &str| w.chars().next().is_some_and(|c| c.is_ascii_digit());
        if !starts_num(threshold) || !starts_num(window) {
            continue;
        }
        let segs: Vec<&str> = path.split('.').collect();
        if segs.len() < 3
            || segs.iter().any(|s| s.is_empty())
            || !segs[1].chars().all(|c| c.is_ascii_digit())
        {
            continue;
        }
        let mut metric = &segs[2..];
        if metric.len() > 1 && SLO_AGGS.contains(metric.last().unwrap()) {
            metric = &metric[..metric.len() - 1];
        }
        out.push(metric.join("."));
    }
    out
}

/// Whether a metric reference resolves against the registered-name set.
/// Both sides may carry a `format!` placeholder (dynamic suffix); the
/// static prefix must then match.
fn metric_resolves(reference: &str, regs: &BTreeSet<String>) -> bool {
    let rn = reference.split('{').next().unwrap_or(reference);
    regs.iter().any(|reg| {
        let gn = reg.split('{').next().unwrap_or(reg);
        gn == rn
            || (reg.contains('{') && !gn.is_empty() && reference.starts_with(gn))
            || (reference.contains('{') && !rn.is_empty() && reg.starts_with(rn))
    })
}

/// Run every contract check over the facts table.
pub fn check_contracts(ws: &WorkspaceFacts, out: &mut Vec<Finding>) {
    let allow_index: Vec<Allows> = ws.files.iter().map(|f| Allows::from_map(&f.allows)).collect();

    // Rebuild the fault-site catalog and reference set.
    let mut catalog = SiteCatalog::default();
    let mut refs: BTreeSet<String> = BTreeSet::new();
    for f in &ws.files {
        if f.has_sites_mod {
            catalog.found = true;
        }
        for (name, value, line) in &f.site_consts {
            catalog.consts.insert(name.clone(), (value.clone(), f.rel.clone(), *line));
        }
        for name in &f.site_listed {
            catalog.listed.insert(name.clone());
        }
        for name in &f.site_refs {
            refs.insert(name.clone());
        }
    }
    rules::check_site_catalog(&catalog, &refs, out);
    let declared: BTreeSet<&str> = catalog.consts.values().map(|(v, _, _)| v.as_str()).collect();

    // Literal sites passed to check/check_at must be declared (production
    // sources; chaos suites consult through `sites::` consts).
    for (fi, f) in ws.files.iter().enumerate() {
        if f.aux {
            continue;
        }
        if !catalog.found {
            break;
        }
        for c in &f.checked {
            if c.test || !rules::site_shaped(&c.value) || declared.contains(c.value.as_str()) {
                continue;
            }
            out.push(Finding {
                rule: Rule::FaultSite,
                file: f.rel.clone(),
                line: c.line,
                message: format!(
                    "fault-site literal \"{}\" is not declared in the sites catalog",
                    c.value
                ),
                suppressed: allow_index[fi].covers(Rule::FaultSite, c.line),
                baselined: false,
            });
        }
    }

    // fault-contract, direction 1: every cataloged site must have a chaos
    // spec somewhere (tests included) that injects it — a site no suite
    // ever fires is untested error handling.
    let spec_values: BTreeSet<&str> =
        ws.files.iter().flat_map(|f| f.specs.iter()).map(|s| s.value.as_str()).collect();
    let checked_values: BTreeSet<&str> =
        ws.files.iter().flat_map(|f| f.checked.iter()).map(|c| c.value.as_str()).collect();
    if catalog.found {
        let file_index: BTreeMap<&str, usize> =
            ws.files.iter().enumerate().map(|(i, f)| (f.rel.as_str(), i)).collect();
        for (name, (value, file, line)) in &catalog.consts {
            let covered = spec_values.contains(value.as_str())
                || spec_values.contains(format!("const:{name}").as_str());
            if covered {
                continue;
            }
            let suppressed = file_index
                .get(file.as_str())
                .is_some_and(|&fi| allow_index[fi].covers(Rule::FaultContract, *line));
            out.push(Finding {
                rule: Rule::FaultContract,
                file: file.clone(),
                line: *line,
                message: format!(
                    "fault site {name} (\"{value}\") has no chaos spec that injects it — \
                     no suite exercises this failure path; add a chaos test or justify \
                     with soclint-allow"
                ),
                suppressed,
                baselined: false,
            });
        }

        // fault-contract, direction 2: every spec must name a site that
        // exists (catalog or a checked literal). Unit-test regions are
        // exempt — the fault engine's own tests install deliberately fake
        // sites to probe the parser.
        for (fi, f) in ws.files.iter().enumerate() {
            for s in &f.specs {
                if s.test
                    || s.value.starts_with("const:")
                    || declared.contains(s.value.as_str())
                    || checked_values.contains(s.value.as_str())
                {
                    continue;
                }
                out.push(Finding {
                    rule: Rule::FaultContract,
                    file: f.rel.clone(),
                    line: s.line,
                    message: format!(
                        "chaos spec injects \"{}\", which is not a declared fault site — \
                         the spec can never fire",
                        s.value
                    ),
                    suppressed: allow_index[fi].covers(Rule::FaultContract, s.line),
                    baselined: false,
                });
            }
        }
    }

    // metric-contract: SLO specs and by-name lookups must resolve to a
    // registration. Unit-test regions are exempt (the SLO engine's tests
    // evaluate deliberately missing metrics); docs and CI are not.
    let regs: BTreeSet<String> =
        ws.files.iter().flat_map(|f| f.metric_regs.iter()).map(|r| r.value.clone()).collect();
    if !regs.is_empty() {
        for (fi, f) in ws.files.iter().enumerate() {
            for (kind, list) in [("SLO spec", &f.slo_refs), ("metric lookup", &f.metric_refs)] {
                for r in list.iter() {
                    if r.test || metric_resolves(&r.value, &regs) {
                        continue;
                    }
                    out.push(Finding {
                        rule: Rule::MetricContract,
                        file: f.rel.clone(),
                        line: r.line,
                        message: format!(
                            "{kind} references metric \"{}\", which no register_* call \
                             provides — it will never produce a value",
                            r.value
                        ),
                        suppressed: allow_index[fi].covers(Rule::MetricContract, r.line),
                        baselined: false,
                    });
                }
            }
        }
        for d in &ws.doc_slo_refs {
            if metric_resolves(&d.metric, &regs) {
                continue;
            }
            out.push(Finding {
                rule: Rule::MetricContract,
                file: d.file.clone(),
                line: d.line,
                message: format!(
                    "documented SLO references metric \"{}\", which no register_* call \
                     provides",
                    d.metric
                ),
                suppressed: false,
                baselined: false,
            });
        }
    }

    // config-doc: every SocratesConfig field must appear in README.md or
    // DESIGN.md — the config surface is the product's UI.
    for (fi, f) in ws.files.iter().enumerate() {
        for k in &f.knobs {
            if ws.documented_knobs.contains(&k.value) {
                continue;
            }
            out.push(Finding {
                rule: Rule::ConfigDoc,
                file: f.rel.clone(),
                line: k.line,
                message: format!(
                    "SocratesConfig field `{}` is not documented in README.md or DESIGN.md",
                    k.value
                ),
                suppressed: allow_index[fi].covers(Rule::ConfigDoc, k.line),
                baselined: false,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::facts::{extract_file, DocRef, WorkspaceFacts};
    use crate::lexer::SourceFile;
    use std::path::PathBuf;

    #[test]
    fn spec_site_grammar() {
        assert_eq!(
            parse_spec_sites("lz.write@nth:5=error:unavailable; rbio.transport.send@p:0.25=drop"),
            vec!["lz.write".to_string(), "rbio.transport.send".to_string()]
        );
        assert_eq!(
            parse_spec_sites("pageserver.serve@lsn:100..900=crash"),
            vec!["pageserver.serve".to_string()]
        );
        assert!(parse_spec_sites("{}@always=drop").is_empty(), "dynamic site");
        assert!(parse_spec_sites("user@example.com").is_empty(), "no action");
        assert!(parse_spec_sites("plain words here").is_empty());
    }

    #[test]
    fn slo_metric_grammar() {
        assert_eq!(
            parse_slo_metrics("primary.0.commit_latency.p99 < 5ms over 1m"),
            vec!["commit_latency".to_string()]
        );
        assert_eq!(parse_slo_metrics("xlog.0.lag < 100 over 1m"), vec!["lag".to_string()]);
        assert_eq!(
            parse_slo_metrics("primary.0.commit_stage_harden_us.p99 < 5ms over 10s"),
            vec!["commit_stage_harden_us".to_string()]
        );
        assert!(parse_slo_metrics("not a spec at all").is_empty());
        assert!(parse_slo_metrics("a.b.c < x over 1m").is_empty(), "non-numeric threshold");
    }

    #[test]
    fn metric_resolution_handles_dynamic_names() {
        let regs: BTreeSet<String> =
            ["commits".to_string(), "consumer_lag_{name}".to_string()].into_iter().collect();
        assert!(metric_resolves("commits", &regs));
        assert!(metric_resolves("consumer_lag_walreader", &regs));
        assert!(!metric_resolves("ghost", &regs));
    }

    fn file(rel: &str, crate_name: &str, src: &str) -> crate::facts::FileFacts {
        let f = SourceFile::scan(rel.into(), PathBuf::from(rel), crate_name.into(), src);
        extract_file(&f, false).0
    }

    #[test]
    fn contracts_flag_orphans_ghosts_and_undocumented_knobs() {
        let catalog = file(
            "crates/c/src/fault.rs",
            "c",
            "pub mod sites {\n pub const USED: &str = \"a.used\";\n pub const ORPHAN: &str = \"a.orphan\";\n pub const ALL: &[&str] = &[USED, ORPHAN];\n}\nfn wire(f: &F) {\n f.check(sites::USED);\n f.check(sites::ORPHAN);\n}\n",
        );
        let consumer = file(
            "crates/d/src/lib.rs",
            "d",
            "const SPEC: &str = \"a.used@always=drop\";\nconst BAD: &str = \"a.ghost@always=drop\";\nconst SLO: &str = \"d.0.present.p99 < 5 over 1m\";\nconst SLO2: &str = \"d.0.ghost_metric.p99 < 5 over 1m\";\nfn reg(h: &Hub, n: N) {\n h.register_counter_fn(n, \"present\", f);\n}\npub struct SocratesConfig {\n pub documented_knob: u64,\n pub ghost_knob: u64,\n}\n",
        );
        let mut ws = WorkspaceFacts { files: vec![catalog, consumer], ..WorkspaceFacts::default() };
        ws.documented_knobs.insert("documented_knob".to_string());
        ws.doc_slo_refs.push(DocRef {
            file: "README.md".into(),
            line: 7,
            metric: "doc_ghost".into(),
        });
        let mut out = Vec::new();
        check_contracts(&ws, &mut out);
        let by_rule = |r: Rule| out.iter().filter(|f| f.rule == r).collect::<Vec<_>>();
        let fc = by_rule(Rule::FaultContract);
        assert_eq!(fc.len(), 2, "{fc:?}");
        assert!(fc
            .iter()
            .any(|f| f.message.contains("a.orphan") && f.message.contains("no chaos spec")));
        assert!(fc
            .iter()
            .any(|f| f.message.contains("a.ghost") && f.message.contains("never fire")));
        let mc = by_rule(Rule::MetricContract);
        assert_eq!(mc.len(), 2, "{mc:?}");
        assert!(mc.iter().any(|f| f.message.contains("ghost_metric")));
        assert!(mc.iter().any(|f| f.message.contains("doc_ghost") && f.file == "README.md"));
        let cd = by_rule(Rule::ConfigDoc);
        assert_eq!(cd.len(), 1, "{cd:?}");
        assert!(cd[0].message.contains("ghost_knob"));
        assert!(by_rule(Rule::FaultSite).is_empty(), "catalog is fully wired: {out:?}");
    }

    #[test]
    fn dynamic_format_spec_covers_its_const() {
        let catalog = file(
            "crates/c/src/fault.rs",
            "c",
            "pub mod sites {\n pub const MERGE: &str = \"c.merge\";\n pub const ALL: &[&str] = &[MERGE];\n}\nfn wire(f: &F) {\n f.check(sites::MERGE);\n f.install(&format!(\"{}@always=crash\", sites::MERGE));\n}\n",
        );
        let ws = WorkspaceFacts { files: vec![catalog], ..WorkspaceFacts::default() };
        let mut out = Vec::new();
        check_contracts(&ws, &mut out);
        assert!(
            !out.iter().any(|f| f.rule == Rule::FaultContract),
            "format!-built spec covers the site: {out:?}"
        );
    }

    #[test]
    fn unit_test_regions_are_exempt_from_unknown_reference_checks() {
        let src = "pub mod sites {\n pub const S: &str = \"a.s\";\n pub const ALL: &[&str] = &[S];\n}\nfn wire(f: &F) {\n f.check(sites::S);\n f.install(\"a.s@always=drop\");\n}\nfn reg(h: &Hub, n: N) {\n h.register_counter_fn(n, \"real\", f);\n}\n#[cfg(test)]\nmod tests {\n fn t(f: &F) {\n  f.install(\"zz.fake@always=drop\");\n  let e = parse(\"x.0.missing.p99 < 5 over 1m\");\n }\n}\n";
        let catalog = file("crates/c/src/fault.rs", "c", src);
        let ws = WorkspaceFacts { files: vec![catalog], ..WorkspaceFacts::default() };
        let mut out = Vec::new();
        check_contracts(&ws, &mut out);
        assert!(
            !out.iter().any(|f| f.rule == Rule::FaultContract || f.rule == Rule::MetricContract),
            "{out:?}"
        );
    }
}

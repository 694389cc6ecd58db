//! soclint — static analysis for the workspace's concurrency invariants.
//!
//! The repo carries four tiers of hand-rolled concurrency: ~200 atomic
//! ordering sites, lock-free generation-counted rings in
//! `common::obs::{trace,span}`, condvar handshakes in `core::fabric`, and
//! chaos suites that race kill/restart against the commit path. The
//! availability argument only holds if the orderings, lock-acquisition
//! orders, and hot-path hygiene rules stay consistent — soclint is the
//! gate that proves they do on every change.
//!
//! v2 is a two-pass analyzer. **Pass 1** ([`extract`]) reduces every
//! source file to a serializable facts table ([`facts::WorkspaceFacts`]):
//! function extents, call sites with held-lock sets, lock acquisitions,
//! fault-site/metric/SLO/config string facts, and the per-file lexical
//! findings. **Pass 2** ([`analyze`]) builds the cross-crate call graph
//! from the table and runs the interprocedural rules — transitive
//! lock-order, transitive hot-path hygiene, and the string contracts.
//! The table is fingerprinted, so CI can cache it between jobs and replay
//! pass 2 without re-reading the tree (`--facts-out` / `--facts-in`).
//!
//! Rules (see [`report::Rule`]; full semantics in DESIGN.md §6):
//!
//! | rule | invariant |
//! |------|-----------|
//! | `ordering-comment` | every `Ordering::*` use carries an adjacent `// ordering:` justification |
//! | `seqcst-default`   | `SeqCst` must be argued for explicitly, not defaulted to |
//! | `lock-order`       | the cross-crate lock-acquisition graph is acyclic |
//! | `hot-path`         | `soclint:hot` modules never panic, read the clock, or allocate |
//! | `fault-site`       | fault sites are unique, listed in `sites::ALL`, declared before use |
//! | `metric-name`      | registered metric names follow `tier.index.metric` |
//! | `std-sync`         | locks come from the parking_lot shim (rank tracking) |
//! | `lock-order-transitive` | no lock cycle through the call graph (lock held across a call into code that locks) |
//! | `hot-path-transitive`   | hot functions never *reach* panicking/allocating/locking code |
//! | `span-pairing`     | every span capture is recorded on every return path |
//! | `fault-contract`   | fault sites ↔ chaos specs agree in both directions |
//! | `metric-contract`  | SLO specs and by-name lookups resolve to registered metrics |
//! | `config-doc`       | every `SocratesConfig` field is documented |
//! | `lock-across-io`   | no lock is held across a call that waits on a modelled device |
//!
//! Findings are suppressed with `// soclint-allow: <rule> <reason>` on
//! the offending line, the line above, or a `fn` header (which extends
//! the suppression over the whole function body). Suppressed findings
//! still appear in the JSON artifact. Historical debt can also be
//! accepted wholesale via a `--baseline` file (see [`baseline`]).

pub mod baseline;
pub mod callgraph;
pub mod contracts;
pub mod facts;
pub mod json;
pub mod lexer;
pub mod locks;
pub mod report;
pub mod rules;

use facts::{DocRef, WorkspaceFacts, FNV_SEED};
use lexer::SourceFile;
use report::{Finding, Report, Rule};
use rules::Allows;
use std::path::{Path, PathBuf};

/// What to analyze.
pub struct Config {
    /// Workspace root (the directory holding the root `Cargo.toml`).
    pub root: PathBuf,
    /// Extra source roots to scan *instead of* the workspace defaults —
    /// used by the self-test to point soclint at fixture crates.
    pub scan_override: Option<Vec<PathBuf>>,
    /// Load the facts table from this file instead of extracting, when
    /// its fingerprint still matches the tree (`--facts-in`).
    pub facts_in: Option<PathBuf>,
}

impl Config {
    /// Analyze the workspace at `root`.
    pub fn workspace(root: impl Into<PathBuf>) -> Config {
        Config { root: root.into(), scan_override: None, facts_in: None }
    }
}

/// Run the analyzer: gather facts (cached or extracted), then analyze.
pub fn run(cfg: &Config) -> std::io::Result<Report> {
    let ws = gather_facts(cfg)?;
    Ok(analyze(&ws))
}

/// Load the facts table from `cfg.facts_in` if present and still valid
/// for the current tree; otherwise extract from source. A stale or
/// unreadable table is silently re-extracted — correctness never depends
/// on the cache.
pub fn gather_facts(cfg: &Config) -> std::io::Result<WorkspaceFacts> {
    if let Some(path) = &cfg.facts_in {
        if let Ok(text) = std::fs::read_to_string(path) {
            if let Some(ws) = WorkspaceFacts::parse(&text) {
                let (inputs, _) = scan_inputs(cfg)?;
                if ws.fingerprint == fingerprint(&inputs) {
                    return Ok(ws);
                }
            }
        }
    }
    extract(cfg)
}

/// One file pass 1 will read: workspace-relative path, absolute path,
/// and whether it is an aux (reference-only) source.
struct Input {
    rel: String,
    path: PathBuf,
    aux: bool,
}

/// `(relative path, bytes)` of every file the tree fingerprint covers.
type FingerprintInputs = Vec<(String, Vec<u8>)>;

/// Discover every input, sorted by relative path: production sources
/// from crates/*/src, shims/*/src, and the root src/ (or the
/// scan_override), aux sources from tests/ and examples/, plus the doc
/// files the contract rules read.
fn scan_inputs(cfg: &Config) -> std::io::Result<(FingerprintInputs, Vec<Input>)> {
    let scan_roots: Vec<PathBuf> = match &cfg.scan_override {
        Some(roots) => roots.clone(),
        None => {
            let mut roots = Vec::new();
            for group in ["crates", "shims"] {
                let dir = cfg.root.join(group);
                if let Ok(entries) = std::fs::read_dir(&dir) {
                    let mut members: Vec<PathBuf> =
                        entries.filter_map(|e| e.ok()).map(|e| e.path().join("src")).collect();
                    members.sort();
                    roots.extend(members.into_iter().filter(|p| p.is_dir()));
                }
            }
            let root_src = cfg.root.join("src");
            if root_src.is_dir() {
                roots.push(root_src);
            }
            roots
        }
    };

    let mut inputs: Vec<Input> = Vec::new();
    for root in &scan_roots {
        let mut paths = Vec::new();
        collect_rs(root, &mut paths)?;
        for p in paths {
            let rel = rel_path(&cfg.root, &p);
            if rel.contains("/fixtures/") {
                continue;
            }
            inputs.push(Input { rel, path: p, aux: false });
        }
    }
    // Integration tests and examples are aux inputs: the invariants
    // target production code, but contract surfaces (chaos specs, site
    // consults, SLO strings) in the suites must still be seen — a site
    // consulted only by the chaos suites is wired, and a suite spec with
    // a typo'd site is a bug.
    if cfg.scan_override.is_none() {
        for extra in ["tests", "examples"] {
            let dir = cfg.root.join(extra);
            if !dir.is_dir() {
                continue;
            }
            let mut paths = Vec::new();
            collect_rs(&dir, &mut paths)?;
            for p in paths {
                let rel = rel_path(&cfg.root, &p);
                inputs.push(Input { rel, path: p, aux: true });
            }
        }
    }
    inputs.sort_by(|a, b| a.rel.cmp(&b.rel));

    // Fingerprint inputs: every scanned source plus the doc/CI files the
    // contract rules read — a README edit must invalidate a cached table.
    let mut fp_inputs: FingerprintInputs = Vec::new();
    for i in &inputs {
        fp_inputs.push((i.rel.clone(), std::fs::read(&i.path)?));
    }
    for (rel, path) in doc_files(&cfg.root) {
        if let Ok(bytes) = std::fs::read(&path) {
            fp_inputs.push((rel, bytes));
        }
    }
    Ok((fp_inputs, inputs))
}

/// The doc and CI files the contract rules read, as (rel, abs) pairs.
fn doc_files(root: &Path) -> Vec<(String, PathBuf)> {
    let mut out = vec![
        ("README.md".to_string(), root.join("README.md")),
        ("DESIGN.md".to_string(), root.join("DESIGN.md")),
    ];
    let wf = root.join(".github/workflows");
    if let Ok(entries) = std::fs::read_dir(&wf) {
        let mut files: Vec<PathBuf> = entries
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .filter(|p| p.extension().is_some_and(|e| e == "yml" || e == "yaml"))
            .collect();
        files.sort();
        for p in files {
            out.push((rel_path(root, &p), p));
        }
    }
    out
}

/// FNV-1a over every input's path and content, order-independent by
/// construction (inputs are pre-sorted by rel path).
fn fingerprint(inputs: &[(String, Vec<u8>)]) -> u64 {
    let mut h = FNV_SEED;
    for (rel, bytes) in inputs {
        h = facts::fnv1a(rel.as_bytes(), h);
        h = facts::fnv1a(&[0], h);
        h = facts::fnv1a(bytes, h);
        h = facts::fnv1a(&[0xff], h);
    }
    h
}

/// Pass 1: extract the facts table from source.
pub fn extract(cfg: &Config) -> std::io::Result<WorkspaceFacts> {
    let (fp_inputs, inputs) = scan_inputs(cfg)?;
    let mut ws = WorkspaceFacts { fingerprint: fingerprint(&fp_inputs), ..Default::default() };
    for input in &inputs {
        let text = std::fs::read_to_string(&input.path)?;
        let crate_name = if input.aux { "tests".to_string() } else { crate_of(&input.rel) };
        let file = SourceFile::scan(input.rel.clone(), input.path.clone(), crate_name, &text);
        let (ff, sites) = facts::extract_file(&file, input.aux);
        if !input.aux {
            ws.files_scanned += 1;
            ws.ordering_sites += sites;
        }
        ws.files.push(ff);
    }

    // Doc scan: README/DESIGN define the documented-knob vocabulary;
    // README/DESIGN/CI workflows may also state SLOs that must resolve.
    for (rel, path) in doc_files(&cfg.root) {
        let Ok(text) = std::fs::read_to_string(&path) else { continue };
        let is_md = rel.ends_with(".md");
        if is_md {
            for word in text.split(|c: char| !(c.is_ascii_alphanumeric() || c == '_')) {
                if !word.is_empty() {
                    ws.documented_knobs.insert(word.to_string());
                }
            }
        }
        for (idx, line) in text.lines().enumerate() {
            for metric in contracts::parse_slo_metrics(line) {
                ws.doc_slo_refs.push(DocRef { file: rel.clone(), line: idx + 1, metric });
            }
        }
    }
    Ok(ws)
}

/// Pass 2: run the full analysis off the facts table. No source access —
/// a cached table replays identically.
pub fn analyze(ws: &WorkspaceFacts) -> Report {
    let mut report = Report {
        files_scanned: ws.files_scanned,
        ordering_sites: ws.ordering_sites,
        ..Report::default()
    };

    // Per-file lexical findings were computed in pass 1.
    for f in &ws.files {
        report.findings.extend(f.findings.iter().cloned());
    }

    // Call graph + interprocedural rules.
    let graph = callgraph::CallGraph::build(ws);
    report.fns_indexed = graph.fns_indexed();
    report.calls_resolved = graph.resolved;
    report.calls_ambiguous = graph.ambiguous;
    report.call_edges = graph.rendered_edges();
    graph.check_hot_transitive(&mut report.findings);
    graph.check_lock_across_io(&mut report.findings);

    // Lock-order: direct edges from pass 1, transitive edges from the
    // call graph, cycles over the union. A cycle containing at least one
    // transitive edge reports as `lock-order-transitive` (only the call
    // graph could see it); otherwise as plain `lock-order`.
    let mut all_edges: Vec<locks::Edge> = Vec::new();
    for f in &ws.files {
        all_edges.extend(f.edges.iter().cloned());
    }
    all_edges.extend(graph.transitive_lock_edges());
    report.lock_edges = all_edges.len();
    report.edges = all_edges
        .iter()
        .map(|e| {
            let via = if e.chain.is_empty() {
                String::new()
            } else {
                format!(" via {}", e.chain.join(" -> "))
            };
            format!(
                "{} -> {} ({}:{} in {}{})",
                e.outer.lock, e.inner.lock, e.file, e.inner.line, e.func, via
            )
        })
        .collect();
    let allow_index: Vec<(&str, Allows)> =
        ws.files.iter().map(|f| (f.rel.as_str(), Allows::from_map(&f.allows))).collect();
    for cycle in locks::find_cycles(&all_edges) {
        let transitive = cycle.edges.iter().any(|e| !e.chain.is_empty());
        let rule = if transitive { Rule::LockOrderTransitive } else { Rule::LockOrder };
        // An allow on any participating edge (under either lock-order id)
        // suppresses the cycle — reclassification must not break an
        // existing, reasoned suppression.
        let suppressed = cycle.edges.iter().any(|e| {
            allow_index.iter().find(|(r, _)| *r == e.file).is_some_and(|(_, a)| {
                a.covers(Rule::LockOrder, e.inner.line)
                    || a.covers(Rule::LockOrderTransitive, e.inner.line)
            })
        });
        let anchor = &cycle.edges[0];
        let mut path = String::new();
        for e in cycle.edges.iter().take(6) {
            let via = if e.chain.is_empty() {
                String::new()
            } else {
                format!(" via {}", e.chain.join(" -> "))
            };
            path.push_str(&format!(
                " {} -> {} ({}:{} in {}{});",
                e.outer.lock, e.inner.lock, e.file, e.inner.line, e.func, via
            ));
        }
        report.findings.push(Finding {
            rule,
            file: anchor.file.clone(),
            line: anchor.inner.line,
            message: format!(
                "potential deadlock: lock-acquisition cycle over {{{}}} —{}",
                cycle.locks.join(", "),
                path
            ),
            suppressed,
            baselined: false,
        });
    }

    // String contracts.
    contracts::check_contracts(ws, &mut report.findings);

    report.finalize();
    report
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let p = entry.path();
        if p.is_dir() {
            collect_rs(&p, out)?;
        } else if p.extension().is_some_and(|e| e == "rs") {
            out.push(p);
        }
    }
    Ok(())
}

fn rel_path(root: &Path, p: &Path) -> String {
    p.strip_prefix(root).unwrap_or(p).to_string_lossy().replace('\\', "/")
}

/// The crate a workspace-relative path belongs to (`crates/foo/...` →
/// `foo`), falling back to the first path segment.
fn crate_of(rel: &str) -> String {
    let mut parts = rel.split('/');
    match parts.next() {
        Some("crates") | Some("shims") => parts.next().unwrap_or("root").to_string(),
        Some(first) => first.to_string(),
        None => "root".to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crate_of_paths() {
        assert_eq!(crate_of("crates/common/src/fault.rs"), "common");
        assert_eq!(crate_of("shims/parking_lot/src/lib.rs"), "parking_lot");
        assert_eq!(crate_of("src/lib.rs"), "src");
    }

    #[test]
    fn fingerprint_tracks_content_and_paths() {
        let a = vec![("a.rs".to_string(), b"fn main() {}".to_vec())];
        let b = vec![("a.rs".to_string(), b"fn main() { }".to_vec())];
        let c = vec![("b.rs".to_string(), b"fn main() {}".to_vec())];
        assert_eq!(fingerprint(&a), fingerprint(&a));
        assert_ne!(fingerprint(&a), fingerprint(&b));
        assert_ne!(fingerprint(&a), fingerprint(&c));
    }
}

//! soclint self-test: run the full two-pass analyzer over the fixture
//! crates (`tests/fixtures/soclint-fixture` + `soclint-fixture-b`) and
//! assert every rule in the catalog fires exactly once, on the planted
//! file — and that nothing fires spuriously.
//!
//! The fixture is two crates on purpose: the transitive lock cycle and
//! the hot→panic chain each cross the crate boundary, so these tests
//! prove the call graph actually links crates rather than resolving
//! within one symbol table.

use socrates_lint::report::{Report, Rule};
use socrates_lint::{analyze, baseline, extract, run, Config};
use std::path::PathBuf;

fn fixture_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures")
}

fn fixture_config() -> Config {
    let root = fixture_root();
    Config {
        scan_override: Some(vec![
            root.join("soclint-fixture/src"),
            root.join("soclint-fixture-b/src"),
        ]),
        root,
        facts_in: None,
    }
}

fn fixture_report() -> Report {
    run(&fixture_config()).expect("fixture scan")
}

#[test]
fn every_rule_fires_exactly_once_on_the_fixture() {
    let report = fixture_report();
    for rule in Rule::ALL {
        let hits: Vec<_> = report.findings.iter().filter(|f| f.rule == rule).collect();
        assert_eq!(
            hits.len(),
            1,
            "rule `{}` should fire exactly once on the fixture, got {:#?}",
            rule.id(),
            hits
        );
    }
    assert_eq!(
        report.findings.len(),
        Rule::ALL.len(),
        "no spurious findings: {:#?}",
        report.findings
    );
}

#[test]
fn findings_land_on_the_planted_files() {
    let report = fixture_report();
    let planted = [
        (Rule::OrderingComment, "soclint-fixture/src/lib.rs"),
        (Rule::SeqCstDefault, "soclint-fixture/src/lib.rs"),
        (Rule::StdSync, "soclint-fixture/src/lib.rs"),
        (Rule::MetricName, "soclint-fixture/src/lib.rs"),
        (Rule::MetricContract, "soclint-fixture/src/lib.rs"),
        (Rule::ConfigDoc, "soclint-fixture/src/lib.rs"),
        (Rule::HotPath, "soclint-fixture/src/hot.rs"),
        (Rule::HotPathTransitive, "soclint-fixture/src/hot.rs"),
        (Rule::LockOrder, "soclint-fixture/src/locks.rs"),
        (Rule::LockAcrossIo, "soclint-fixture/src/locks.rs"),
        (Rule::LockOrderTransitive, "soclint-fixture/src/relay.rs"),
        (Rule::SpanPairing, "soclint-fixture/src/span.rs"),
        (Rule::FaultSite, "soclint-fixture/src/sites_catalog.rs"),
        (Rule::FaultContract, "soclint-fixture/src/sites_catalog.rs"),
    ];
    assert_eq!(planted.len(), Rule::ALL.len(), "one planted file per rule");
    for (rule, file) in planted {
        let f = report
            .findings
            .iter()
            .find(|f| f.rule == rule)
            .unwrap_or_else(|| panic!("rule `{}` missing", rule.id()));
        assert_eq!(f.file, file, "rule `{}` landed on the wrong file", rule.id());
    }
}

#[test]
fn interprocedural_findings_carry_witness_chains() {
    let report = fixture_report();
    let lock = report
        .findings
        .iter()
        .find(|f| f.rule == Rule::LockOrderTransitive)
        .expect("transitive lock cycle");
    assert!(lock.message.contains(" via "), "no witness chain: {}", lock.message);
    assert!(
        lock.message.contains("leaf@"),
        "chain should name the cross-crate acquirer: {}",
        lock.message
    );
    let io = report
        .findings
        .iter()
        .find(|f| f.rule == Rule::LockAcrossIo)
        .expect("lock held across a device wait");
    assert!(
        io.message.contains("Disk::persist -> precise_sleep") && !io.message.contains("Ram::"),
        "chain should follow the dyn call into the impl that waits: {}",
        io.message
    );
    let hot = report
        .findings
        .iter()
        .find(|f| f.rule == Rule::HotPathTransitive)
        .expect("hot-path escape");
    assert!(
        hot.message.contains("spicy@") && hot.message.contains(".unwrap()"),
        "witness should name the panicking callee: {}",
        hot.message
    );
}

#[test]
fn fixture_scan_counts_are_stable() {
    let report = fixture_report();
    assert_eq!(report.files_scanned, 7, "fixture source files");
    assert_eq!(report.ordering_sites, 2, "atomic sites in lib.rs");
    assert_eq!(
        report.lock_edges, 4,
        "alpha->beta, beta->alpha, delta->gamma, and the transitive gamma->delta: {:#?}",
        report.edges
    );
    assert!(report.fns_indexed >= 20, "fns_indexed={}", report.fns_indexed);
    assert!(report.calls_resolved >= 5, "calls_resolved={}", report.calls_resolved);
}

#[test]
fn edge_listings_are_deterministically_ordered() {
    let report = fixture_report();
    assert!(!report.edges.is_empty() && !report.call_edges.is_empty());
    assert!(
        report.edges.windows(2).all(|w| w[0] < w[1]),
        "lock edges must be sorted and deduped: {:#?}",
        report.edges
    );
    assert!(
        report.call_edges.windows(2).all(|w| w[0] < w[1]),
        "call edges must be sorted and deduped: {:#?}",
        report.call_edges
    );
    let cross: Vec<_> = report
        .call_edges
        .iter()
        .filter(|e| e.contains("soclint-fixture::") && e.contains("soclint-fixture-b::"))
        .collect();
    assert!(!cross.is_empty(), "cross-crate call edges resolved: {:#?}", report.call_edges);
}

#[test]
fn facts_table_replays_identically() {
    let cfg = fixture_config();
    let ws = extract(&cfg).expect("extract");
    let text = ws.render();
    let replayed = socrates_lint::facts::WorkspaceFacts::parse(&text)
        .expect("serialized facts table parses back");
    assert_eq!(ws.fingerprint, replayed.fingerprint);
    let direct = analyze(&ws);
    let cached = analyze(&replayed);
    assert_eq!(
        direct.render_json(),
        cached.render_json(),
        "pass 2 must be a pure function of the facts table"
    );
}

#[test]
fn baseline_accepts_every_fixture_finding() {
    let mut report = fixture_report();
    assert!(report.failing_count() > 0);
    let accepted = baseline::render(&report);
    let b = baseline::Baseline::parse(&accepted).expect("generated baseline parses");
    assert_eq!(b.len(), Rule::ALL.len());
    b.apply(&mut report);
    assert_eq!(report.failing_count(), 0, "baselined findings must not gate");
}

#[test]
fn scans_never_pick_up_fixture_files() {
    // Run over the real workspace root and make sure the fixture crates
    // (which plant violations on purpose) are filtered out of the scan.
    let workspace = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(|p| p.parent())
        .expect("workspace root")
        .to_path_buf();
    let ws = extract(&Config::workspace(workspace)).expect("workspace scan");
    assert!(
        ws.files.iter().all(|f| !f.rel.contains("fixtures")),
        "fixture files leaked into the workspace scan"
    );
}

//! Findings, suppression accounting, and report rendering (text + JSON).

use std::fmt;

/// The rule catalog. Every finding carries one of these identifiers, and
/// `// soclint-allow: <rule> <reason>` comments name them.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Rule {
    /// `Ordering::*` use without an adjacent `// ordering:` comment.
    OrderingComment,
    /// `Ordering::SeqCst` whose justification does not argue for SeqCst
    /// specifically — the "I didn't think about it" default.
    SeqCstDefault,
    /// Cycle (or same-lock nesting) in the lock-acquisition graph.
    LockOrder,
    /// Panic/clock/allocation in a `soclint:hot`-marked module.
    HotPath,
    /// Fault-site catalog violation (undeclared, duplicate, or unlisted).
    FaultSite,
    /// Metric name violating the `tier.index.metric` convention.
    MetricName,
    /// `std::sync` lock primitive outside the parking_lot shim.
    StdSync,
    /// Lock-acquisition cycle that only the call graph can see: at least
    /// one edge comes from a lock acquired *inside a callee* while the
    /// caller already holds another lock.
    LockOrderTransitive,
    /// A `soclint:hot` function *reaches* (through any call chain) a
    /// function that panics, allocates, reads the clock, or acquires a
    /// lock — even though the hot function is lexically clean.
    HotPathTransitive,
    /// A span begin (`now_ns()` start capture) escapes the function on a
    /// `return`/`?` path before any `record_root`/`record_child` call.
    SpanPairing,
    /// Fault-site ↔ chaos-spec conformance: a cataloged site no chaos
    /// spec ever injects, or a spec naming a site that does not exist.
    FaultContract,
    /// Metric-string conformance: an SLO spec or by-name metric lookup
    /// that resolves to no registered metric.
    MetricContract,
    /// A `SocratesConfig` field not documented in README.md or DESIGN.md.
    ConfigDoc,
    /// A call made under a held lock whose callee (transitively) waits on
    /// a modelled device: every thread wanting the lock waits it out too.
    LockAcrossIo,
}

impl Rule {
    /// Every rule, report order.
    pub const ALL: [Rule; 14] = [
        Rule::OrderingComment,
        Rule::SeqCstDefault,
        Rule::LockOrder,
        Rule::HotPath,
        Rule::FaultSite,
        Rule::MetricName,
        Rule::StdSync,
        Rule::LockOrderTransitive,
        Rule::HotPathTransitive,
        Rule::SpanPairing,
        Rule::FaultContract,
        Rule::MetricContract,
        Rule::ConfigDoc,
        Rule::LockAcrossIo,
    ];

    /// Stable kebab-case identifier (used in reports and allow comments).
    pub const fn id(self) -> &'static str {
        match self {
            Rule::OrderingComment => "ordering-comment",
            Rule::SeqCstDefault => "seqcst-default",
            Rule::LockOrder => "lock-order",
            Rule::HotPath => "hot-path",
            Rule::FaultSite => "fault-site",
            Rule::MetricName => "metric-name",
            Rule::StdSync => "std-sync",
            Rule::LockOrderTransitive => "lock-order-transitive",
            Rule::HotPathTransitive => "hot-path-transitive",
            Rule::SpanPairing => "span-pairing",
            Rule::FaultContract => "fault-contract",
            Rule::MetricContract => "metric-contract",
            Rule::ConfigDoc => "config-doc",
            Rule::LockAcrossIo => "lock-across-io",
        }
    }

    /// Parse an identifier as written in an allow comment.
    pub fn from_id(s: &str) -> Option<Rule> {
        Rule::ALL.into_iter().find(|r| r.id() == s)
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.id())
    }
}

/// One finding at a source location.
#[derive(Clone, Debug)]
pub struct Finding {
    /// The violated rule.
    pub rule: Rule,
    /// Workspace-relative file path.
    pub file: String,
    /// 1-based line.
    pub line: usize,
    /// Human-readable description.
    pub message: String,
    /// Suppressed by a `// soclint-allow:` comment (still reported in the
    /// JSON artifact, but does not fail the gate).
    pub suppressed: bool,
    /// Present in the `--baseline` file (accepted debt): reported, but
    /// does not fail the gate.
    pub baselined: bool,
}

/// The full analysis result.
#[derive(Clone, Debug, Default)]
pub struct Report {
    /// Every finding, suppressed or not, sorted by (file, line, rule).
    pub findings: Vec<Finding>,
    /// Number of files scanned (production sources; aux files excluded).
    pub files_scanned: usize,
    /// Number of `Ordering::` sites inspected (test code excluded).
    pub ordering_sites: usize,
    /// Number of lock-acquisition edges in the cross-crate graph
    /// (direct + transitive).
    pub lock_edges: usize,
    /// Rendered acquisition edges (`outer -> inner (file:line in fn)`),
    /// for `--edges` and the JSON artifact.
    pub edges: Vec<String>,
    /// Number of functions indexed by the call-graph pass.
    pub fns_indexed: usize,
    /// Call sites resolved to a workspace function.
    pub calls_resolved: usize,
    /// Call sites dropped as unresolvable or ambiguous.
    pub calls_ambiguous: usize,
    /// Rendered call-graph edges (`caller -> callee (file:line)`), for
    /// the JSON artifact.
    pub call_edges: Vec<String>,
}

impl Report {
    /// Findings that fail the gate.
    pub fn unsuppressed(&self) -> impl Iterator<Item = &Finding> {
        self.findings.iter().filter(|f| !f.suppressed)
    }

    /// Number of unsuppressed findings (ignores the baseline).
    pub fn unsuppressed_count(&self) -> usize {
        self.unsuppressed().count()
    }

    /// Number of gate-failing findings: neither suppressed nor accepted
    /// by the baseline.
    pub fn failing_count(&self) -> usize {
        self.findings.iter().filter(|f| !f.suppressed && !f.baselined).count()
    }

    /// Sort findings into the stable report order, and the edge lists
    /// into lexical order so artifact diffs are stable across runs.
    pub fn finalize(&mut self) {
        self.findings.sort_by(|a, b| {
            (&a.file, a.line, a.rule, &a.message).cmp(&(&b.file, b.line, b.rule, &b.message))
        });
        self.edges.sort();
        self.edges.dedup();
        self.call_edges.sort();
        self.call_edges.dedup();
    }

    /// Render the human-readable report.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for f in &self.findings {
            let tag = if f.suppressed {
                " (suppressed)"
            } else if f.baselined {
                " (baseline)"
            } else {
                ""
            };
            out.push_str(&format!(
                "{}:{}: [{}]{} {}\n",
                f.file,
                f.line,
                f.rule.id(),
                tag,
                f.message
            ));
        }
        let suppressed = self.findings.len() - self.unsuppressed_count();
        let baselined = self.unsuppressed_count() - self.failing_count();
        out.push_str(&format!(
            "soclint: {} file(s), {} fn(s), {} call edge(s), {} ordering site(s), {} lock edge(s); \
             {} finding(s), {} suppressed, {} baselined, {} failing\n",
            self.files_scanned,
            self.fns_indexed,
            self.call_edges.len(),
            self.ordering_sites,
            self.lock_edges,
            self.findings.len(),
            suppressed,
            baselined,
            self.failing_count()
        ));
        out
    }

    /// Render the machine-readable JSON artifact.
    pub fn render_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str(&format!("  \"files_scanned\": {},\n", self.files_scanned));
        out.push_str(&format!("  \"ordering_sites\": {},\n", self.ordering_sites));
        out.push_str(&format!("  \"lock_edges\": {},\n", self.lock_edges));
        out.push_str(&format!("  \"fns_indexed\": {},\n", self.fns_indexed));
        out.push_str(&format!("  \"calls_resolved\": {},\n", self.calls_resolved));
        out.push_str(&format!("  \"calls_ambiguous\": {},\n", self.calls_ambiguous));
        out.push_str(&format!("  \"failing\": {},\n", self.failing_count()));
        out.push_str("  \"findings\": [\n");
        for (i, f) in self.findings.iter().enumerate() {
            let sep = if i + 1 == self.findings.len() { "" } else { "," };
            out.push_str(&format!(
                "    {{\"rule\": \"{}\", \"file\": \"{}\", \"line\": {}, \"suppressed\": {}, \"baselined\": {}, \"message\": \"{}\"}}{}\n",
                f.rule.id(),
                json_escape(&f.file),
                f.line,
                f.suppressed,
                f.baselined,
                json_escape(&f.message),
                sep
            ));
        }
        out.push_str("  ],\n  \"lock_graph\": [\n");
        for (i, e) in self.edges.iter().enumerate() {
            let sep = if i + 1 == self.edges.len() { "" } else { "," };
            out.push_str(&format!("    \"{}\"{}\n", json_escape(e), sep));
        }
        out.push_str("  ],\n  \"call_graph\": [\n");
        for (i, e) in self.call_edges.iter().enumerate() {
            let sep = if i + 1 == self.call_edges.len() { "" } else { "," };
            out.push_str(&format!("    \"{}\"{}\n", json_escape(e), sep));
        }
        out.push_str("  ]\n}\n");
        out
    }
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rule_ids_round_trip() {
        for r in Rule::ALL {
            assert_eq!(Rule::from_id(r.id()), Some(r));
        }
        assert_eq!(Rule::from_id("nope"), None);
    }

    #[test]
    fn report_counts_and_json() {
        let mut r = Report::default();
        r.findings.push(Finding {
            rule: Rule::OrderingComment,
            file: "b.rs".into(),
            line: 2,
            message: "msg \"quoted\"".into(),
            suppressed: true,
            baselined: false,
        });
        r.findings.push(Finding {
            rule: Rule::HotPath,
            file: "a.rs".into(),
            line: 1,
            message: "m".into(),
            suppressed: false,
            baselined: false,
        });
        r.finalize();
        assert_eq!(r.findings[0].file, "a.rs");
        assert_eq!(r.unsuppressed_count(), 1);
        let json = r.render_json();
        assert!(json.contains("\\\"quoted\\\""));
        assert!(json.contains("\"failing\": 1"));
    }

    #[test]
    fn baselined_findings_do_not_fail_the_gate() {
        let mut r = Report::default();
        r.findings.push(Finding {
            rule: Rule::SpanPairing,
            file: "a.rs".into(),
            line: 3,
            message: "m".into(),
            suppressed: false,
            baselined: true,
        });
        assert_eq!(r.unsuppressed_count(), 1);
        assert_eq!(r.failing_count(), 0);
        assert!(r.render_text().contains("(baseline)"));
    }

    #[test]
    fn finalize_sorts_and_dedupes_edges() {
        let mut r = Report {
            edges: vec!["b -> c".into(), "a -> b".into(), "a -> b".into()],
            call_edges: vec!["z -> y".into(), "x -> y".into()],
            ..Report::default()
        };
        r.finalize();
        assert_eq!(r.edges, vec!["a -> b".to_string(), "b -> c".to_string()]);
        assert_eq!(r.call_edges, vec!["x -> y".to_string(), "z -> y".to_string()]);
    }
}

//! `socmon` — one-shot observability dashboard for a Socrates deployment.
//!
//! Launches a deployment, drives a short commit workload through it, lets
//! the LSN-lag watcher drain, then renders everything the observability
//! layer knows — the unified metrics hub, per-stage commit and read
//! latency included — in one of three formats:
//!
//! ```text
//! socmon                      # human-readable dashboard (default)
//! socmon --format prom        # Prometheus text exposition format
//! socmon --format json        # JSON (the hub snapshot)
//! socmon --commits 500        # size of the driven workload
//! socmon --secondaries 2      # read-only secondaries to launch
//! socmon --reads              # sample every GetPage, fail over and
//!                             # cold-read the table, then show each
//!                             # node's read-stage breakdown and the
//!                             # slowest sampled GetPage span trees
//! socmon --export-chrome [P]  # sample every commit/GetPage, write the
//!                             # causal cross-tier spans as a Chrome
//!                             # trace-event file (chrome://tracing)
//! socmon --slo "SPEC"         # evaluate SLOs over the run's time-series
//!                             # history; exit 3 if any is breaching
//! socmon --layers             # drive seals/checkpoint/compaction/GC and
//!                             # render the layered-store view: per-page-
//!                             # server layer counts, compaction backlog,
//!                             # and the GC horizon
//! socmon --watch N            # N live refreshes of the history view
//! socmon --plain              # line-oriented output (no headers/ANSI);
//!                             # auto-selected when stdout is not a TTY
//! ```

use socrates::config::{HUB_HISTORY_INTERVAL, WATCHER_INTERVAL};
use socrates::{Socrates, SocratesConfig};
use socrates_common::metrics::HistogramSnapshot;
use socrates_common::obs::ctx::{unpack_coalesce, HEDGE_LOST, HEDGE_WON};
use socrates_common::obs::{
    chrome_trace_json, json_snapshot, prometheus_text, slowest_spans, MetricSnapshot, MetricValue,
    SpanKind, Stage, StageSet,
};
use socrates_common::{Error, Lsn, NodeId, PageId};
use socrates_engine::value::{ColumnType, Schema};
use socrates_engine::Value;
use std::io::IsTerminal;
use std::time::Duration;

/// Exit code when any SLO is breaching at the end of the run.
const EXIT_SLO_BREACH: i32 = 3;

struct Options {
    format: String,
    commits: u64,
    secondaries: usize,
    reads: bool,
    /// Chrome trace-event output path (`--export-chrome`).
    chrome: Option<String>,
    /// SLO spec string (`--slo`); empty means no SLO evaluation.
    slo: String,
    /// Live-view refresh count (`--watch`).
    watch: u64,
    /// Line-oriented output, stable for scripts.
    plain: bool,
    /// Layered-store view (`--layers`): seal aggressively, checkpoint,
    /// compact and GC, then render the per-partition layer metrics.
    layers: bool,
}

/// The numeric operand of `flag` at `args[i]`, or exit 2: a typo must not
/// silently become the default.
fn number<T: std::str::FromStr>(args: &[String], i: usize, flag: &str) -> T {
    let operand = args.get(i).map(String::as_str).unwrap_or("");
    operand.parse().unwrap_or_else(|_| {
        eprintln!("socmon: {flag} requires a number, got {operand:?}");
        std::process::exit(2);
    })
}

fn parse_args() -> Options {
    let args: Vec<String> = std::env::args().collect();
    let mut opts = Options {
        format: "table".into(),
        commits: 200,
        secondaries: 1,
        reads: false,
        chrome: None,
        slo: String::new(),
        watch: 0,
        plain: !std::io::stdout().is_terminal(),
        layers: false,
    };
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--format" | "-f" => {
                i += 1;
                opts.format = args.get(i).cloned().unwrap_or_else(|| "table".into());
            }
            "--commits" | "-n" => {
                i += 1;
                opts.commits = number(&args, i, "--commits");
            }
            "--secondaries" | "-s" => {
                i += 1;
                opts.secondaries = number(&args, i, "--secondaries");
            }
            "--reads" | "-r" => {
                opts.reads = true;
            }
            "--export-chrome" => {
                // Optional path operand; defaults next to the cwd.
                match args.get(i + 1) {
                    Some(p) if !p.starts_with('-') => {
                        opts.chrome = Some(p.clone());
                        i += 1;
                    }
                    _ => opts.chrome = Some("chrome-trace.json".into()),
                }
            }
            "--slo" => {
                i += 1;
                match args.get(i) {
                    Some(spec) => opts.slo = spec.clone(),
                    None => {
                        eprintln!("socmon: --slo requires a spec string");
                        std::process::exit(2);
                    }
                }
            }
            "--watch" | "-w" => {
                i += 1;
                opts.watch = number(&args, i, "--watch");
            }
            "--plain" => opts.plain = true,
            "--layers" | "-L" => opts.layers = true,
            "--help" | "-h" => {
                println!(
                    "usage: socmon [--format table|prom|json] [--commits N] [--secondaries N] \
                     [--reads] [--layers] [--export-chrome [PATH]] [--slo SPEC] [--watch N] \
                     [--plain]"
                );
                std::process::exit(0);
            }
            other => {
                eprintln!("unknown argument: {other} (try --help)");
                std::process::exit(2);
            }
        }
        i += 1;
    }
    if !matches!(opts.format.as_str(), "table" | "prom" | "json") {
        eprintln!("unknown format: {} (want table|prom|json)", opts.format);
        std::process::exit(2);
    }
    opts
}

fn main() {
    let opts = parse_args();
    let sys = match run_workload(&opts) {
        Ok(sys) => sys,
        Err(e) => {
            eprintln!("socmon: workload failed: {e}");
            std::process::exit(1);
        }
    };

    if opts.watch > 0 {
        watch(&sys, &opts);
    }

    match opts.format.as_str() {
        "prom" => print!("{}", prometheus_text(&sys.hub().snapshot())),
        "json" => println!("{}", json_snapshot(&sys.hub().snapshot())),
        _ if opts.plain => {
            render_plain(&sys);
            if opts.reads {
                render_reads(&sys, true);
            }
            if opts.layers {
                render_layers(&sys, true);
            }
        }
        _ => {
            render_table(&sys);
            if opts.reads {
                render_reads(&sys, false);
            }
            if opts.layers {
                render_layers(&sys, false);
            }
        }
    }

    if let Some(path) = &opts.chrome {
        if let Err(e) = export_chrome(&sys, path) {
            eprintln!("socmon: chrome export failed: {e}");
            sys.shutdown();
            std::process::exit(1);
        }
    }

    let mut exit = 0;
    if !opts.slo.is_empty() && render_slo(&sys) {
        exit = EXIT_SLO_BREACH;
    }
    sys.shutdown();
    std::process::exit(exit);
}

/// Launch, create a table, push `commits` single-row transactions through
/// the full pipeline, then quiesce so every async stage completes.
fn run_workload(opts: &Options) -> socrates_common::Result<Socrates> {
    let mut config = SocratesConfig::fast_test();
    config.secondaries = opts.secondaries;
    if opts.chrome.is_some() || opts.reads {
        // Sample every commit/GetPage so even a tiny workload yields a
        // renderable flamegraph / a slowest-reads list.
        config.trace_sample = 1;
    }
    if !opts.slo.is_empty() || opts.watch > 0 {
        config = config.with_hub_history(1024);
    }
    if !opts.slo.is_empty() {
        config.slo_spec = opts.slo.clone();
    }
    if opts.layers {
        // Seal the open L0 every few KiB of per-page log so even a small
        // workload banks sealed layers, and keep a finite retention window
        // so the GC pass below has a horizon to act on.
        config = config.with_layer_knobs(4 << 10, usize::MAX >> 1).with_retention_window(64 << 10);
    }
    let sys = Socrates::launch(config)?;
    {
        let primary = sys.primary()?;
        let db = primary.db();
        db.create_table(
            "socmon",
            Schema::new(vec![("id".into(), ColumnType::Int), ("v".into(), ColumnType::Str)], 1),
        )?;
        for i in 0..opts.commits {
            let h = db.begin();
            db.insert(&h, "socmon", &[Value::Int(i as i64), Value::Str(format!("row-{i}"))])?;
            db.commit(h)?;
        }
        // Quiesce: page servers (and secondaries) catch up, the LT archive
        // absorbs the log, and the watcher completes the async trace stages.
        let frontier = primary.pipeline().hardened_lsn();
        sys.fabric().wait_applied(frontier, Duration::from_secs(30))?;
        sys.fabric().xlog.destage_all()?;
        std::thread::sleep(WATCHER_INTERVAL * 4);
    }
    if opts.layers {
        // Drive the layer machinery end to end so the view has something
        // to show: a checkpoint, an explicit compaction merging the
        // sealed L0s (imaging the pages whose delta chain grew deep), a GC
        // pass against the retention horizon, and a handful of
        // time-travel reads.
        sys.checkpoint()?;
        let fabric = sys.fabric();
        for pid in fabric.partition_ids() {
            let Some(handle) = fabric.partition(pid) else { continue };
            let ps = &handle.servers[0];
            ps.compact_blocking()?;
            ps.gc()?;
            let spec = fabric.partition_spec(pid);
            let frontier = ps.applied_lsn();
            let mid = Lsn::new((ps.gc_floor_lsn().offset() + frontier.offset()).div_ceil(2).max(1));
            for i in 0..8 {
                let page = PageId::new(spec.base_page + i);
                for lsn in [mid, frontier] {
                    match ps.get_page_at(page, lsn) {
                        Ok(_) | Err(Error::NotFound(_)) => {}
                        Err(e) => return Err(e),
                    }
                }
            }
        }
    }
    if opts.reads {
        // Fail over so the replacement primary starts with a cold cache:
        // re-reading the table forces every page over GetPage@LSN, and
        // each miss records its stages (and, sampled, its span tree).
        sys.kill_primary();
        let p = sys.failover()?;
        let r = p.db().begin();
        let rows = p.db().scan_range(
            &r,
            "socmon",
            &[Value::Int(0)],
            &[Value::Int(opts.commits as i64)],
            opts.commits as usize + 1,
        )?;
        if rows.len() as u64 != opts.commits {
            return Err(socrates_common::Error::InvalidState(format!(
                "cold re-read returned {} rows, expected {}",
                rows.len(),
                opts.commits
            )));
        }
    }
    Ok(sys)
}

/// Write the sampled causal spans as a Chrome trace-event file and report
/// what landed in it (span count, distinct traces, distinct tiers).
fn export_chrome(sys: &Socrates, path: &str) -> std::io::Result<()> {
    let spans = sys.fabric().spans.spans();
    let json = chrome_trace_json(&spans);
    std::fs::write(path, &json)?;
    let mut traces: Vec<u64> = spans.iter().map(|s| s.trace_id).collect();
    traces.sort_unstable();
    traces.dedup();
    let mut tiers: Vec<&str> = spans.iter().map(|s| s.node.kind.tier_name()).collect();
    tiers.sort_unstable();
    tiers.dedup();
    eprintln!(
        "wrote {path}: {} spans, {} traces, {} tiers ({})",
        spans.len(),
        traces.len(),
        tiers.len(),
        tiers.join(",")
    );
    Ok(())
}

/// Print SLO status lines; returns true when any objective is breaching.
fn render_slo(sys: &Socrates) -> bool {
    let statuses = sys.fabric().slo_statuses();
    if statuses.is_empty() {
        println!("slo: no objectives configured");
        return false;
    }
    let mut breaching = false;
    println!("\n== slo ==");
    for status in &statuses {
        println!("{}", status.render());
        breaching |= status.breaching;
    }
    breaching
}

/// The `--watch` live view: `n` refreshes of the time-series history at
/// the watcher cadence. In TTY mode each frame repaints the screen; in
/// plain mode frames append as stable `watch.*` lines.
fn watch(sys: &Socrates, opts: &Options) {
    let fabric = sys.fabric();
    let window = Duration::from_secs(1);
    for frame in 0..opts.watch {
        if !opts.plain {
            // ANSI clear + home; only ever emitted on a real terminal.
            print!("\x1b[2J\x1b[H");
        }
        let ticks = fabric.history.len();
        let rate = fabric
            .history
            .rate(socrates_common::NodeId::PRIMARY, "log_bytes_appended", window)
            .unwrap_or(0.0);
        println!(
            "watch.frame {frame} ticks {ticks} log_bytes_per_sec {rate:.0} spans {}",
            fabric.spans.spans_recorded()
        );
        for status in fabric.slo_statuses() {
            println!("{}", status.render());
        }
        std::thread::sleep(HUB_HISTORY_INTERVAL);
    }
}

/// `primary.commit_stage_<stage>_us`, as the hub holds it.
fn commit_stage(snapshot: &MetricSnapshot, stage: Stage) -> HistogramSnapshot {
    match snapshot.get(NodeId::PRIMARY, &format!("commit_stage_{}_us", stage.name())) {
        Some(MetricValue::Histogram(h)) => *h,
        _ => HistogramSnapshot::default(),
    }
}

/// The `--reads` view: the slowest sampled misses, each reassembled from
/// its `getpage` span tree (every compute node's always-on per-stage
/// histograms are already in its hub section).
fn render_reads(sys: &Socrates, plain: bool) {
    const STAGES: [&str; 6] = ["total", "probe", "queue", "net", "serve", "sink"];
    let spans = sys.fabric().spans.spans();
    let slow = slowest_spans(&spans, SpanKind::GetPage, 10);
    if plain {
        println!("reads_sampled {}", spans.iter().filter(|s| s.kind == SpanKind::GetPage).count());
    } else {
        println!("\n== slowest sampled reads (top {}, µs) ==", slow.len());
        print!("{:<12} {:<14}", "page", "node");
        STAGES.iter().for_each(|stage| print!(" {stage:>8}"));
        println!(" {:>6} {:>6} {:>5}", "width", "hedge", "fb");
    }
    for (rank, root) in slow.iter().enumerate() {
        // A stage's span under this root (a coalesced range's members
        // each record theirs: take the longest).
        let child = |kind: SpanKind| {
            spans
                .iter()
                .filter(|s| s.parent_id == root.span_id && s.kind == kind)
                .max_by_key(|s| s.dur_ns)
        };
        let us = |kind: SpanKind| child(kind).map_or(0, |s| s.dur_ns / 1_000);
        let stages = [
            root.dur_ns / 1_000,
            us(SpanKind::GetPageProbe),
            us(SpanKind::GetPageQueue),
            us(SpanKind::RbioNet).saturating_sub(us(SpanKind::PsServe)),
            us(SpanKind::PsServe),
            us(SpanKind::GetPageSink),
        ];
        let (width, fallback) = unpack_coalesce(child(SpanKind::GetPageQueue).map_or(0, |s| s.arg));
        let hedge = match child(SpanKind::RbioNet).map_or(0, |s| s.arg) {
            HEDGE_WON => "won",
            HEDGE_LOST => "lost",
            _ => "none",
        };
        if plain {
            print!("slow_read.{rank} page {} node {}", root.arg, root.node);
            STAGES.iter().zip(stages).for_each(|(stage, us)| print!(" {stage}_us {us}"));
            println!(" width {width} hedge {hedge} fallback {fallback}");
        } else {
            print!("{:<12} {:<14}", PageId::new(root.arg).to_string(), root.node.to_string());
            stages.iter().for_each(|us| print!(" {us:>8}"));
            println!(" {width:>6} {hedge:>6} {:>5}", if fallback { "yes" } else { "no" });
        }
    }
}

/// Plain mode: one `key value` line per datum, no headers, no alignment,
/// no ANSI — stable output for pipes, greps, and CI logs.
fn render_plain(sys: &Socrates) {
    let snapshot = sys.hub().snapshot();
    for stage in Stage::ALL {
        let s = commit_stage(&snapshot, *stage);
        let name = stage.name();
        println!("commit_stage.{name}.count {}", s.count);
        println!("commit_stage.{name}.mean_us {:.1}", s.mean_us);
        println!("commit_stage.{name}.p50_us {}", s.p50_us);
        println!("commit_stage.{name}.p99_us {}", s.p99_us);
    }
    println!("commits_traced {}", commit_stage(&snapshot, Stage::Engine).count);
    for sample in &snapshot.samples {
        match &sample.value {
            socrates_common::obs::MetricValue::Counter(v) => {
                println!("metric.{}.{} {v}", sample.node, sample.name);
            }
            socrates_common::obs::MetricValue::Gauge(v) => {
                println!("metric.{}.{} {v}", sample.node, sample.name);
            }
            socrates_common::obs::MetricValue::Histogram(h) => {
                println!(
                    "metric.{}.{} count {} mean_us {:.1} p50_us {} p99_us {}",
                    sample.node, sample.name, h.count, h.mean_us, h.p50_us, h.p99_us
                );
            }
        }
    }
}

/// The eleven layered-store counters and gauges every page server
/// registers, render order (the `replay_depth` histogram follows them).
const LAYER_METRICS: [&str; 11] = [
    "layer_l0_count",
    "layers_sealed",
    "layer_l1_images",
    "layer_merged_deltas",
    "layer_open_bytes",
    "compaction_backlog",
    "compactions_run",
    "image_pages_written",
    "gc_layers_dropped",
    "historical_reads",
    "gc_horizon_lsn",
];

/// The `--layers` view: the layered page-version store per page server —
/// layer counts and open-layer fill, compaction backlog, runs and the
/// pages they imaged, GC horizon and drops, how many reads took the
/// time-travel path, and how many deltas a served page replayed. All
/// numbers come from the metrics hub, so `--format prom|json` consumers
/// see the same series.
fn render_layers(sys: &Socrates, plain: bool) {
    let snapshot = sys.hub().snapshot();
    if !plain {
        println!("\n== layered store (per page server) ==");
        println!(
            "{:<16} {:>4} {:>7} {:>7} {:>7} {:>9} {:>8} {:>9} {:>8} {:>8} {:>8} {:>12} {:>9}",
            "node",
            "l0",
            "sealed",
            "images",
            "merged",
            "open_b",
            "backlog",
            "compacts",
            "img_pgs",
            "gc_drop",
            "hist_rd",
            "gc_horizon",
            "depth50/99"
        );
    }
    for node in snapshot.nodes() {
        let mut values = std::collections::HashMap::new();
        let mut depth = (0, 0);
        for sample in snapshot.for_node(node) {
            let v = match &sample.value {
                MetricValue::Counter(c) => (*c).min(i64::MAX as u64) as i64,
                MetricValue::Gauge(g) => *g,
                MetricValue::Histogram(h) => {
                    if sample.name == "replay_depth" {
                        depth = (h.p50_us, h.p99_us);
                    }
                    continue;
                }
            };
            values.insert(sample.name.as_str(), v);
        }
        // Only page servers (and their branches) register the layer gauges.
        if !values.contains_key("layer_l0_count") {
            continue;
        }
        let get = |name: &str| values.get(name).copied().unwrap_or(0);
        if plain {
            for name in LAYER_METRICS {
                println!("layers.{node}.{name} {}", get(name));
            }
            println!("layers.{node}.replay_depth_p50 {}", depth.0);
            println!("layers.{node}.replay_depth_p99 {}", depth.1);
        } else {
            println!(
                "{:<16} {:>4} {:>7} {:>7} {:>7} {:>9} {:>8} {:>9} {:>8} {:>8} {:>8} {:>12} {:>9}",
                node.to_string(),
                get("layer_l0_count"),
                get("layers_sealed"),
                get("layer_l1_images"),
                get("layer_merged_deltas"),
                get("layer_open_bytes"),
                get("compaction_backlog"),
                get("compactions_run"),
                get("image_pages_written"),
                get("gc_layers_dropped"),
                get("historical_reads"),
                get("gc_horizon_lsn"),
                format!("{}/{}", depth.0, depth.1),
            );
        }
    }
}

fn render_table(sys: &Socrates) {
    let snapshot = sys.hub().snapshot();

    println!("== commit path (per-stage latency, µs) ==");
    println!("{:<16} {:>8} {:>9} {:>9} {:>9} {:>9}", "stage", "count", "mean", "p50", "p99", "max");
    for stage in Stage::ALL {
        let s = commit_stage(&snapshot, *stage);
        println!(
            "{:<16} {:>8} {:>9.1} {:>9} {:>9} {:>9}",
            stage.name(),
            s.count,
            s.mean_us,
            s.p50_us,
            s.p99_us,
            s.max_us
        );
    }
    println!("commits traced: {}", commit_stage(&snapshot, Stage::Engine).count);

    for node in snapshot.nodes() {
        println!("\n== {node} ==");
        for sample in snapshot.for_node(node) {
            match &sample.value {
                socrates_common::obs::MetricValue::Counter(v) => {
                    println!("{:<36} {v}", sample.name);
                }
                socrates_common::obs::MetricValue::Gauge(v) => {
                    println!("{:<36} {v}", sample.name);
                }
                socrates_common::obs::MetricValue::Histogram(h) => {
                    println!(
                        "{:<36} n={} mean={:.1}µs p50={}µs p99={}µs",
                        sample.name, h.count, h.mean_us, h.p50_us, h.p99_us
                    );
                }
            }
        }
    }
}

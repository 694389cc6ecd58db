//! Turning what a run collected into named metrics: the end-to-end ones
//! (untraced pass), the per-layer ones (traced pass), the result line and
//! the trace file.

use crate::client::{Done, Samples};
use crate::deploy::{Drain, Lags, SetupTimes};
use crate::gen::Kind;
use crate::layers::{delta, Hub, Probes, Sampled};
use crate::spec::{Pacing, Workload, CLIENTS, PAD_LEN};
use crate::stats::{median, percentile, spread_pct, tail, us};
use crate::trace::{json_str, spans_json, NameStats, Tracer, ENGINE_EXEC, OP, WAL_COMMIT_CALL};
use crate::{procfs, Args};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Operations per client written to the trace file.
const TRACE_FILE_OPS: usize = 2_000;

/// One repetition of the measured phase.
pub struct Rep {
    /// First op to the end of the drain.
    pub elapsed_s: f64,
    pub cpu_s: f64,
    pub samples: Vec<Samples>,
    pub drain: Drain,
}

impl Rep {
    fn completed(&self) -> u64 {
        self.samples.iter().map(|s| s.done.len() as u64).sum()
    }
}

/// Sorted values of `f` over the completed ops that pass `keep`.
fn sorted(done: &[Done], keep: impl Fn(&Done) -> bool, f: impl Fn(&Done) -> u64) -> Vec<u64> {
    let mut v: Vec<u64> = done.iter().filter(|d| keep(d)).map(f).collect();
    v.sort_unstable();
    v
}

/// A named value with its unit and a note on how it was obtained.
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    /// `None`: the source no longer exists or the workload has no such work.
    pub value: Option<f64>,
    pub note: String,
}

fn metric(name: &str, unit: &'static str, value: Option<f64>, note: String) -> Metric {
    Metric { name: name.to_string(), unit, value, note }
}

/// Median of one figure per repetition; `None` if a repetition has none.
fn median_of(per_rep: &[Option<f64>]) -> (Option<f64>, String) {
    let values: Vec<f64> = per_rep.iter().flatten().copied().collect();
    if values.len() < per_rep.len() {
        return (None, "no samples".into());
    }
    let list: Vec<String> = values.iter().map(|v| format!("{v:.1}")).collect();
    (Some(median(&values)), format!("median of {} repetition(s): {}", values.len(), list.join(" ")))
}

/// Median over the repetitions of a per-repetition figure.
fn over_reps(reps: &[Rep], f: impl Fn(&Rep) -> Option<f64>) -> (Option<f64>, String) {
    median_of(&reps.iter().map(f).collect::<Vec<_>>())
}

pub fn end_to_end(setup_s: &[f64], reps: &[Rep]) -> Vec<Metric> {
    let mut out = Vec::new();
    let list: Vec<String> = setup_s.iter().map(|v| format!("{v:.3}")).collect();
    out.push(metric(
        "setup_s",
        "s",
        Some(median(setup_s)),
        format!("median of {} set-up(s), the last one measured: {}", setup_s.len(), list.join(" ")),
    ));
    let n: u64 = reps.iter().map(Rep::completed).sum();
    let (v, note) = over_reps(reps, |r| Some(r.completed() as f64 / r.elapsed_s));
    out.push(metric("ops_per_s", "1/s", v, format!("n={n} ops; {note}")));
    for c in 0..CLIENTS {
        let n: usize = reps.iter().map(|r| r.samples[c].done.len()).sum();
        let kinds: Vec<&str> = Kind::ALL
            .into_iter()
            .filter(|k| reps.iter().any(|r| r.samples[c].done.iter().any(|d| d.kind == *k)))
            .map(Kind::name)
            .collect();
        let lat: Vec<Vec<u64>> =
            reps.iter().map(|r| sorted(&r.samples[c].done, |_| true, |d| d.user_ns)).collect();
        for pct in [50, 95] {
            // The tail falls back to a lower percentile on short runs; all
            // repetitions then use the lowest one any of them needs.
            let used = match pct {
                50 => 50,
                _ => lat.iter().filter_map(|l| tail(l, pct)).map(|t| t.0).min().unwrap_or(50),
            };
            let values: Vec<Option<f64>> =
                lat.iter().map(|l| percentile(l, used).map(us)).collect();
            let (v, note) = median_of(&values);
            let short =
                if used == pct { String::new() } else { format!("p{used} (too few samples) ") };
            out.push(metric(
                &format!("client{c}_p{pct}_us"),
                "us",
                v,
                format!("{short}n={n} {} ops; {note}", kinds.join("+")),
            ));
        }
    }
    out.push(metric(
        "rss_mb",
        "MiB",
        Some(procfs::peak_rss_mib()),
        "VmHWM at end of workload".into(),
    ));
    out
}

/// Everything the traced pass collected beyond the client samples.
pub struct Traced {
    pub before: Hub,
    pub after: Hub,
    pub tracers: Vec<Tracer>,
    /// `summarize(&tracers)`.
    pub spans: BTreeMap<&'static str, NameStats>,
    pub sampled: Sampled,
    pub probes: Probes,
    pub xstore_written: f64,
    pub xstore_read: f64,
    pub failover_ms: f64,
    /// Resident memory when the measured phase began.
    pub rss_start_mb: f64,
}

fn ratio(a: Option<f64>, b: Option<f64>) -> Option<f64> {
    match (a, b) {
        (Some(a), Some(b)) if b != 0.0 => Some(a / b),
        _ => None,
    }
}

pub fn per_layer(w: &Workload, setup: &SetupTimes, reps: &[Rep], t: &Traced) -> Vec<Metric> {
    let spans = &t.spans;
    let mut out = Vec::new();
    let mut put = |name: &str, unit: &'static str, value: Option<f64>| {
        out.push(metric(name, unit, value, String::new()));
    };
    let all: Vec<Done> =
        reps.iter().flat_map(|r| r.samples.iter().flat_map(|s| s.done.clone())).collect();
    let count = |k: Kind| all.iter().filter(|d| d.kind == k).count() as f64;
    let ops = Some(all.len() as f64).filter(|n| *n > 0.0);
    let commits = Some(count(Kind::Update)).filter(|n| *n > 0.0);
    let wall_s: f64 = reps.iter().map(|r| r.elapsed_s).sum();
    let span_pct =
        |name: &str, pct: u32| spans.get(name).and_then(|s| percentile(&s.durations, pct)).map(us);
    let d = |tiers: &[&str], name: &str| delta(&t.before, &t.after, tiers, name);
    let compute = ["primary", "secondary"];
    let pct_of = |v: &[u64], pct: u32| percentile(v, pct).map(us);

    // engine
    put("engine.exec_us_p50", "us", span_pct(ENGINE_EXEC, 50));
    put("engine.get_hit_us_p50", "us", pct_of(&t.probes.get_hit_us, 50));
    let touched = match (d(&compute, "data_page_hits"), d(&compute, "data_page_misses")) {
        (Some(h), Some(m)) => Some(h + m),
        _ => None,
    };
    put("engine.pages_per_op", "count", ratio(touched, ops));
    // wal
    put("wal.commit_call_us_p50", "us", span_pct(WAL_COMMIT_CALL, 50));
    put("wal.commit_call_us_p99", "us", span_pct(WAL_COMMIT_CALL, 99));
    put(
        "wal.harden_us_p50",
        "us",
        t.after.hist("primary", "harden_latency_us").map(|h| h.1 as f64),
    );
    put("wal.commits_per_block", "count", ratio(commits, d(&["primary"], "log_blocks_hardened")));
    put("wal.hardened_bytes_per_op", "B", ratio(d(&["primary"], "log_bytes_hardened"), commits));
    put(
        "wal.block_framing_ratio",
        "ratio",
        ratio(d(&["primary"], "log_bytes_hardened"), d(&["primary"], "log_bytes_appended")),
    );
    put("wal.log_bytes_appended", "B", d(&["primary"], "log_bytes_appended"));
    put(
        "wal.append_backlog_bytes_max",
        "B",
        t.sampled.gauge_max.get("log_append_backlog_bytes").copied(),
    );
    // xlog
    let lag = |f: fn(&Lags) -> u64, pct: u32| {
        let mut v: Vec<u64> = t.sampled.lags.iter().map(f).collect();
        v.sort_unstable();
        percentile(&v, pct).map(|b| b as f64)
    };
    put("xlog.destage_lag_bytes_p50", "B", lag(|l| l.destage, 50));
    put("xlog.destage_lag_bytes_max", "B", lag(|l| l.destage, 100));
    put("xlog.destage_drain_ms", "ms", over_reps(reps, |r| Some(r.drain.destage_ms)).0);
    put("xlog.gap_fills", "count", d(&["xlog"], "gaps_filled_from_lz"));
    put("xlog.duplicates_dropped", "count", d(&["xlog"], "duplicates_dropped"));
    put("xlog.feed_dropped_blocks", "count", d(&["primary"], "feed_dropped_blocks"));
    let served: Vec<Option<f64>> =
        ["served_from_memory", "served_from_ssd", "served_from_lz", "served_from_lt"]
            .iter()
            .map(|n| d(&["xlog"], n))
            .collect();
    let served_all = served.iter().flatten().sum::<f64>();
    put("xlog.served_from_memory_ratio", "ratio", ratio(served[0], Some(served_all)));
    put("xlog.pull_mb_per_s", "MiB/s", t.probes.pull_mb_per_s);
    // pageserver
    let ps = ["pageserver"];
    put("pageserver.apply_busy_ratio", "ratio", ratio(d(&ps, "apply_busy_us"), Some(wall_s * 1e6)));
    put("pageserver.apply_lag_bytes_max", "B", lag(|l| l.apply, 100));
    put("pageserver.apply_drain_ms", "ms", over_reps(reps, |r| Some(r.drain.apply_ms)).0);
    put("pageserver.records_applied_per_s", "1/s", ratio(d(&ps, "records_applied"), Some(wall_s)));
    put("pageserver.get_page_us_p50", "us", pct_of(&t.probes.get_page_us, 50));
    put("pageserver.get_page_us_p99", "us", pct_of(&t.probes.get_page_us, 99));
    put("pageserver.get_page_at_us_p50", "us", pct_of(&t.probes.get_page_at_us, 50));
    put("pageserver.get_page_waits", "count", d(&ps, "get_page_waits"));
    let pages_served = match (d(&ps, "pages_served"), d(&ps, "range_pages_served")) {
        (Some(a), b) => Some(a + b.unwrap_or(0.0)),
        _ => None,
    };
    put("pageserver.pages_served_per_op", "count", ratio(pages_served, ops));
    put(
        "pageserver.range_pages_per_request",
        "count",
        ratio(d(&ps, "range_pages_served"), d(&ps, "range_requests")),
    );
    put("pageserver.layers_sealed", "count", d(&ps, "layers_sealed"));
    put("pageserver.compactions_run", "count", d(&ps, "compactions_run"));
    put("pageserver.l0_count_end", "count", t.after.sum(&ps, "layer_l0_count"));
    put("pageserver.pages_checkpointed", "count", d(&ps, "pages_checkpointed"));
    // storage (compute-side cache and read scheduler)
    let misses = d(&compute, "data_page_misses");
    put("storage.cache.local_hit_ratio", "ratio", ratio(d(&compute, "data_page_hits"), touched));
    put("storage.cache.misses_per_op", "count", ratio(misses, ops));
    put("storage.sched.submitted_per_op", "count", ratio(d(&compute, "sched_submitted"), ops));
    put(
        "storage.sched.joined_ratio",
        "ratio",
        ratio(d(&compute, "sched_joined"), d(&compute, "sched_submitted")),
    );
    put("storage.sched.coalesce_ratio_pct", "%", t.after.sum(&compute, "sched_coalesce_ratio_pct"));
    put(
        "storage.sched.range_pages_per_call",
        "count",
        ratio(d(&compute, "sched_range_pages"), d(&compute, "sched_range_calls")),
    );
    put("storage.sched.prefetch_dropped", "count", d(&compute, "sched_prefetch_dropped"));
    put(
        "storage.sched.queue_depth_max",
        "count",
        t.sampled.gauge_max.get("sched_queue_depth").copied(),
    );
    // rbio (the per-partition replica route)
    let route = t.after.hist("pageserver", "route_latency_us");
    put("rbio.route_us_p50", "us", route.map(|h| h.1 as f64));
    put("rbio.route_us_p99", "us", route.map(|h| h.2 as f64));
    put("rbio.hedge_fired", "count", d(&ps, "hedge_fired"));
    put("rbio.hedge_won", "count", d(&ps, "hedge_won"));
    put("rbio.degraded_reads", "count", d(&["primary"], "degraded_reads_total"));
    // xstore
    let user_bytes = commits.map(|c| c * (PAD_LEN + 16) as f64);
    put("xstore.bytes_written_per_user_byte", "ratio", ratio(Some(t.xstore_written), user_bytes));
    put("xstore.bytes_read", "B", Some(t.xstore_read));
    // core
    put("core.launch_ms", "ms", Some(setup.launch_ms));
    put("core.load_rows_per_s", "1/s", Some(setup.load_rows_per_s));
    let sec = w.has_secondary();
    put("core.secondary_lag_bytes_p50", "B", lag(|l| l.secondary, 50).filter(|_| sec));
    put("core.secondary_lag_bytes_max", "B", lag(|l| l.secondary, 100).filter(|_| sec));
    put("core.failover_ms", "ms", Some(t.failover_ms));
    // harness
    for kind in Kind::ALL {
        let lat = sorted(&all, |d| d.kind == kind, |d| d.user_ns);
        put(&format!("harness.{}_p50_us", kind.name()), "us", pct_of(&lat, 50));
        put(
            &format!("harness.{}_p99_us", kind.name()),
            "us",
            tail(&lat, 99).filter(|t| t.0 == 99).map(|t| us(t.1)),
        );
    }
    let late = sorted(&all, |_| true, |d| d.late_ns);
    let open = matches!(w.pacing, Pacing::Open { .. });
    put("harness.sched_lag_p99_us", "us", pct_of(&late, 99).filter(|_| open));
    let per_rep: Vec<f64> = reps.iter().map(|r| r.completed() as f64 / r.elapsed_s).collect();
    put("harness.rep_spread_pct", "%", Some(spread_pct(&per_rep)));
    let half = |traced: bool| pct_of(&sorted(&all, |d| d.traced == traced, |d| d.service_ns), 50);
    put(
        "harness.trace_overhead_pct",
        "%",
        ratio(half(true).zip(half(false)).map(|(t, u)| (t - u) * 100.0), half(false)),
    );
    // Not an end-to-end metric: on the device workloads most of it is the
    // tiers' polling, which follows wall time, not ops (NOISE.md).
    put(
        "harness.cpu_us_per_op",
        "us",
        over_reps(reps, |r| Some(r.cpu_s * 1e6 / r.completed().max(1) as f64)).0,
    );
    put("harness.rss_start_mb", "MiB", Some(t.rss_start_mb));
    put("harness.rss_peak_mb", "MiB", Some(procfs::peak_rss_mib()));
    let op = spans.get(OP);
    put(
        "harness.op_self_pct",
        "%",
        op.and_then(|s| ratio(Some(s.self_ns as f64 * 100.0), Some(s.total_ns as f64))),
    );
    out
}

pub fn write_trace_file(args: &Args, t: &Traced, metrics: &[Metric]) -> Result<String, String> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join(format!("trace-{}.json", args.workload.name));
    let mut s = String::new();
    let _ = write!(
        s,
        "{{\"workload\":{},\"seed\":{},\"seconds\":{},\"ops_per_client_kept\":{TRACE_FILE_OPS},\n\"summary\":[",
        json_str(args.workload.name),
        args.seed,
        args.seconds
    );
    for (i, (name, st)) in t.spans.iter().enumerate() {
        let _ = write!(
            s,
            "{}\n{{\"name\":{},\"count\":{},\"total_us\":{:.3},\"self_us\":{:.3},\"p50_us\":{:.3}}}",
            if i > 0 { "," } else { "" },
            json_str(name),
            st.count,
            st.total_ns as f64 / 1e3,
            st.self_ns as f64 / 1e3,
            percentile(&st.durations, 50).map_or(0.0, us)
        );
    }
    s.push_str("\n],\n\"counter_deltas\":{");
    let before: BTreeMap<&str, f64> = t.before.sums().collect();
    for (i, (name, after)) in t.after.sums().enumerate() {
        let d = after - before.get(name).copied().unwrap_or(0.0);
        let _ = write!(s, "{}\n{}:{d}", if i > 0 { "," } else { "" }, json_str(name));
    }
    s.push_str("\n},\n\"metrics\":");
    s.push_str(&metrics_json(metrics));
    s.push_str(",\n\"spans\":");
    s.push_str(&spans_json(&t.tracers, TRACE_FILE_OPS));
    s.push_str("\n}\n");
    std::fs::write(&path, s).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(path.display().to_string())
}

/// `{"name":{"value":v,"unit":"u"},...}`; an absent value is written as 0.
pub fn metrics_json(metrics: &[Metric]) -> String {
    let items: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                json_str(&m.name),
                m.value.filter(|v| v.is_finite()).unwrap_or(0.0),
                json_str(m.unit)
            )
        })
        .collect();
    format!("{{{}}}", items.join(","))
}

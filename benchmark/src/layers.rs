//! The traced pass's view into the layers: hub-counter deltas looked up
//! by name, sampled lags, and probes that call one layer directly. A hub
//! name that no longer exists yields `None` (printed as absent), never a
//! failure, so product refactors do not break the benchmark.

use crate::deploy::{lags, Lags};
use crate::gen::Rng;
use crate::spec::{SCAN_LEN, TABLE};
use crate::trace::Tracer;
use socrates::{PartitionHandle, Socrates};
use socrates_common::obs::MetricValue;
use socrates_common::{Error, Lsn, PageId};
use socrates_engine::Value;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Span names of the probes.
pub const PROBE_GET_PAGE: &str = "probe.pageserver.get_page";
pub const PROBE_GET_PAGE_AT: &str = "probe.pageserver.get_page_at";
pub const PROBE_PULL: &str = "probe.xlog.pull_blocks";
pub const PROBE_GET_HIT: &str = "probe.engine.get_hit";

/// Calls per probe.
const PROBE_CALLS: usize = 2_000;
/// Log bytes the pull probe reads at most.
const PULL_CAP: u64 = 64 << 20;

/// One hub snapshot, keyed by `tier.metric`; counters and gauges are
/// summed over the nodes of a tier, and of a histogram the node with the
/// most samples is kept.
pub struct Hub {
    sums: BTreeMap<String, i128>,
    hists: BTreeMap<String, (u64, u64, u64)>,
}

impl Hub {
    pub fn take(sys: &Socrates) -> Hub {
        let mut hub = Hub { sums: BTreeMap::new(), hists: BTreeMap::new() };
        for s in sys.hub().snapshot().samples {
            let full = s.full_name();
            let mut parts = full.splitn(3, '.');
            let (Some(tier), Some(_index), Some(name)) = (parts.next(), parts.next(), parts.next())
            else {
                continue;
            };
            let key = format!("{tier}.{name}");
            match s.value {
                MetricValue::Counter(v) => *hub.sums.entry(key).or_default() += v as i128,
                MetricValue::Gauge(v) => *hub.sums.entry(key).or_default() += v as i128,
                MetricValue::Histogram(h) => {
                    let e = hub.hists.entry(key).or_default();
                    if h.count >= e.0 {
                        *e = (h.count, h.p50_us, h.p99_us);
                    }
                }
            }
        }
        hub
    }

    /// Sum of a counter or gauge over the given tiers; `None` if no tier has it.
    pub fn sum(&self, tiers: &[&str], name: &str) -> Option<f64> {
        let found: Vec<i128> =
            tiers.iter().filter_map(|t| self.sums.get(&format!("{t}.{name}")).copied()).collect();
        (!found.is_empty()).then(|| found.iter().sum::<i128>() as f64)
    }

    /// `(count, p50_us, p99_us)` of a histogram over the process lifetime.
    pub fn hist(&self, tier: &str, name: &str) -> Option<(u64, u64, u64)> {
        self.hists.get(&format!("{tier}.{name}")).copied()
    }

    /// All summed values, for the trace file.
    pub fn sums(&self) -> impl Iterator<Item = (&str, f64)> + '_ {
        self.sums.iter().map(|(name, v)| (name.as_str(), *v as f64))
    }
}

/// Counter growth between two snapshots.
pub fn delta(before: &Hub, after: &Hub, tiers: &[&str], name: &str) -> Option<f64> {
    Some(after.sum(tiers, name)? - before.sum(tiers, name).unwrap_or(0.0))
}

/// What the sampler thread saw while the clients ran.
#[derive(Default)]
pub struct Sampled {
    pub lags: Vec<Lags>,
    /// Maxima of hub gauges, by name.
    pub gauge_max: BTreeMap<&'static str, f64>,
}

/// Gauges the sampler reads from the hub.
const SAMPLED_GAUGES: [(&[&str], &str); 2] =
    [(&["primary"], "log_append_backlog_bytes"), (&["primary", "secondary"], "sched_queue_depth")];

/// Sample lags every 2 ms and hub gauges every 50 ms until `stop` is set.
pub fn sample_until(sys: &Socrates, stop: &AtomicBool, out: &mut Sampled) {
    let mut tick = 0u32;
    // ordering: relaxed — a poll flag; the scope's join is the sync point
    while !stop.load(Ordering::Relaxed) {
        if let Ok(l) = lags(sys) {
            out.lags.push(l);
        }
        if tick.is_multiple_of(25) {
            let hub = Hub::take(sys);
            for (tiers, name) in SAMPLED_GAUGES {
                if let Some(v) = hub.sum(tiers, name) {
                    let e = out.gauge_max.entry(name).or_insert(v);
                    *e = e.max(v);
                }
            }
        }
        tick += 1;
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// The page servers of the deployment with the page range each owns,
/// found through `get_page` alone: a page outside a server's partition is
/// refused with `InvalidArgument`, which locates the partition width.
fn partitions(sys: &Socrates) -> Vec<(Arc<PartitionHandle>, u64, u64)> {
    let fabric = sys.fabric();
    let handles: Vec<_> = fabric
        .partition_ids()
        .into_iter()
        .filter_map(|p| fabric.partition(p).map(|h| (p.raw() as u64, h)))
        .collect();
    let Some((_, first)) = handles.iter().find(|(raw, _)| *raw == 0) else { return Vec::new() };
    let inside = |page: u64| {
        !matches!(
            first.servers[0].get_page(PageId::new(page), Lsn::ZERO),
            Err(Error::InvalidArgument(_))
        )
    };
    let mut hi = 1u64;
    while inside(hi) && hi < 1 << 32 {
        hi *= 2;
    }
    let mut lo = hi / 2; // inside (page 0 always is)
    while hi - lo > 1 {
        let mid = lo + (hi - lo) / 2;
        if inside(mid) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    let width = hi;
    handles.into_iter().map(|(raw, h)| (h, raw * width, width)).collect()
}

/// Results of the probes; `None` where a probe had nothing to measure.
#[derive(Default)]
pub struct Probes {
    pub get_page_us: Vec<u64>,
    pub get_page_at_us: Vec<u64>,
    pub pull_mb_per_s: Option<f64>,
    pub get_hit_us: Vec<u64>,
}

fn sorted_us(mut ns: Vec<u64>) -> Vec<u64> {
    ns.sort_unstable();
    ns
}

/// Call single layers directly, one span per call. `run_start` is the
/// hardened LSN at which the measured phase began.
pub fn probe(sys: &Socrates, seed: u64, run_start: Lsn, rows: u32, tracer: &mut Tracer) -> Probes {
    let mut rng = Rng::new(seed, 0xB0BE);
    let mut out = Probes::default();
    let parts = partitions(sys);

    // GetPage@LSN at the applied frontier and at the start of the run
    // (delta replay over the run's history), over random pages.
    let (mut latest, mut historic) = (Vec::new(), Vec::new());
    for _ in 0..if parts.is_empty() { 0 } else { PROBE_CALLS } {
        let (h, base, width) = &parts[rng.below(parts.len() as u32) as usize];
        let page = PageId::new(base + rng.below(*width as u32) as u64);
        let t = Instant::now();
        let got = tracer.time(PROBE_GET_PAGE, || h.servers[0].get_page(page, Lsn::ZERO));
        if got.is_ok() {
            latest.push(t.elapsed().as_nanos() as u64);
        }
        let t = Instant::now();
        let got = tracer.time(PROBE_GET_PAGE_AT, || h.servers[0].get_page_at(page, run_start));
        if got.is_ok() {
            historic.push(t.elapsed().as_nanos() as u64);
        }
    }
    out.get_page_us = sorted_us(latest);
    out.get_page_at_us = sorted_us(historic);

    // XLOG: pull the run's log range in 4 MiB requests.
    let xlog = &sys.fabric().xlog;
    let end = xlog.hardened_lsn();
    let (mut at, mut bytes) = (run_start, 0u64);
    let t = Instant::now();
    while at < end && bytes < PULL_CAP {
        let Ok(pull) = tracer.time(PROBE_PULL, || xlog.pull_blocks(at, 4 << 20, None)) else {
            break;
        };
        if pull.next_lsn <= at {
            break;
        }
        bytes += pull.next_lsn.offset() - at.offset();
        at = pull.next_lsn;
    }
    if bytes > 0 {
        out.pull_mb_per_s = Some(bytes as f64 / (1 << 20) as f64 / t.elapsed().as_secs_f64());
    }

    // Engine: point reads over a key set small enough to stay resident.
    if let Ok(primary) = sys.primary() {
        let db = primary.db();
        let h = db.begin();
        let keys: Vec<u32> = (0..64).map(|_| rng.below(rows - SCAN_LEN)).collect();
        let mut hits = Vec::new();
        for i in 0..PROBE_CALLS + keys.len() {
            let key = [Value::Int(keys[i % keys.len()] as i64)];
            let t = Instant::now();
            let got = tracer.time(PROBE_GET_HIT, || db.get(&h, TABLE, &key));
            // The first pass over the keys only brings their pages in.
            if i >= keys.len() && matches!(got, Ok(Some(_))) {
                hits.push(t.elapsed().as_nanos() as u64);
            }
        }
        let _ = db.commit(h);
        out.get_hit_us = sorted_us(hits);
    }
    out
}

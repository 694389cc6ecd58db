//! One function per table/figure of the paper's evaluation.

use crate::setup::{approx_cdb_pages, hadr_with_cdb, socrates_with_cdb, Effort};
use socrates::{Socrates, SocratesConfig};
use socrates_cdb::driver::{run, run_on_cores, DriverConfig, RunReport};
use socrates_cdb::schema::CdbScale;
use socrates_cdb::sut::{HadrSut, SocratesSut, TestSystem};
use socrates_cdb::tpce::TpceWorkload;
use socrates_cdb::workload::{CdbMix, CdbWorkload};
use socrates_common::latency::DeviceProfile;
use socrates_common::metrics::HistogramSnapshot;
use socrates_common::{Lsn, Result};
use socrates_engine::value::{ColumnType, Schema, Value};
use socrates_hadr::{Hadr, HadrConfig};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn driver(clients: usize, effort: Effort, seed: u64) -> DriverConfig {
    DriverConfig {
        clients,
        duration: Duration::from_millis(effort.window_ms()),
        warmup: Duration::from_millis(effort.window_ms() / 3),
        seed,
    }
}

// ---------------------------------------------------------------- Table 2

/// Table 2 — CDB default mix, Socrates vs HADR.
///
/// Shape: HADR wins by a small margin (the paper: ~5%) because every HADR
/// read hits the full local copy while Socrates pays remote I/O waits on
/// cache misses; both CPU%% are high, HADR's a touch higher.
#[derive(Debug)]
pub struct Table2 {
    /// HADR run.
    pub hadr: RunReport,
    /// Socrates run.
    pub socrates: RunReport,
}

/// Run Table 2.
pub fn table2_throughput(effort: Effort) -> Result<Table2> {
    let scale = CdbScale { scale_factor: effort.scale_factor(), padding: 400 };
    let clients = 16;

    let hadr = hadr_with_cdb(scale, 21)?;
    let hadr_sut = HadrSut::new(Arc::clone(&hadr));
    let workload = Arc::new(CdbWorkload::new(CdbMix::Default, scale.scale_factor));
    let hadr_report = run(&hadr_sut, workload, &driver(clients, effort, 1));
    drop(hadr_sut);
    drop(hadr);

    // Socrates' cache covers most of the working set — the paper's Table 2
    // ran with warm caches — so the architectures differ only in the few
    // percent of reads that go remote and the remote log write.
    let db_pages = approx_cdb_pages(scale);
    let sys = socrates_with_cdb(DeviceProfile::xio(), db_pages / 2, db_pages * 2, scale, 22)?;
    let sut = SocratesSut::new(&sys)?;
    let workload = Arc::new(CdbWorkload::new(CdbMix::Default, scale.scale_factor));
    let socrates_report = run(&sut, workload, &driver(clients, effort, 2));
    sys.shutdown();
    Ok(Table2 { hadr: hadr_report, socrates: socrates_report })
}

// ---------------------------------------------------------------- Table 3

/// Table 3 — Socrates local cache hit rate under the CDB default mix with
/// a cache a small fraction of the database.
///
/// Shape: a cache of ~15–20% of the data serves ~half the reads (the
/// paper: 52% with memory+SSD ≈ 22% of a 1 TB database).
#[derive(Debug)]
pub struct Table3 {
    /// Database size in pages.
    pub db_pages: usize,
    /// Memory cache pages.
    pub mem_pages: usize,
    /// RBPEX pages.
    pub rbpex_pages: usize,
    /// Measured local hit rate.
    pub hit_rate: f64,
}

/// Run Table 3.
pub fn table3_cache_hit(effort: Effort) -> Result<Table3> {
    let scale = CdbScale { scale_factor: effort.scale_factor() * 3, padding: 400 };
    let db_pages = approx_cdb_pages(scale);
    let mem_pages = ((db_pages * 5) / 100).max(16); // ~5% in memory (paper: 56GB/1TB)
    let rbpex_pages = ((db_pages * 16) / 100).max(32); // ~16% on SSD (paper: 168GB/1TB)
    let sys = socrates_with_cdb(DeviceProfile::xio(), mem_pages, rbpex_pages, scale, 31)?;
    let sut = SocratesSut::new(&sys)?;
    // CDB's default mix "randomly touches pages scattered across the
    // entire database" — no locality beyond what re-reads give.
    let workload =
        Arc::new(CdbWorkload::new(CdbMix::Default, scale.scale_factor).with_locality(0.0, 0.02));
    let _ = run(&sut, workload, &driver(8, effort, 3));
    let hit_rate = sut.local_hit_rate();
    sys.shutdown();
    Ok(Table3 { db_pages, mem_pages, rbpex_pages, hit_rate })
}

// ---------------------------------------------------------------- Table 4

/// Table 4 — cache hit rate under the TPC-E-like (Zipf) workload with a
/// cache ≈ 1–2% of the database.
///
/// Shape: even a ~1% cache serves ~30% of reads thanks to skew (paper:
/// 32% at 408 GB cache / 30 TB data).
#[derive(Debug)]
pub struct Table4 {
    /// Database size in pages.
    pub db_pages: usize,
    /// Total local cache pages.
    pub cache_pages: usize,
    /// Measured hit rate.
    pub hit_rate: f64,
}

/// Run Table 4.
pub fn table4_tpce_cache(effort: Effort) -> Result<Table4> {
    // The database must be large enough that a ~1.3% cache still exceeds
    // the B-tree's internal working set (true at any realistic scale; at
    // toy scales the internals would thrash the whole cache).
    let customers: u64 = match effort {
        Effort::Quick => 100_000,
        Effort::Full => 200_000,
    };
    let padding = 230usize;
    let db_pages = (customers as usize * (padding + 110)) / socrates_storage::page::PAGE_SIZE;
    let cache_pages = (db_pages / 75).max(24); // ≈1.3% of the database
    let mem = (cache_pages * 2) / 5;
    let ssd = cache_pages - mem;
    let config =
        SocratesConfig::realistic(41).with_secondaries(0).with_cache(mem.max(6), ssd.max(8));
    let sys = Socrates::launch(config)?;
    let primary = sys.primary()?;
    let workload = Arc::new(TpceWorkload::load(primary.db(), customers, padding, 4242)?);
    sys.fabric().wait_applied(primary.pipeline().hardened_lsn(), Duration::from_secs(180))?;
    let sut = SocratesSut::new(&sys)?;
    let _ = run(&sut, workload, &driver(8, effort, 4));
    let hit_rate = sut.local_hit_rate();
    sys.shutdown();
    Ok(Table4 { db_pages, cache_pages: mem.max(6) + ssd.max(8), hit_rate })
}

// ---------------------------------------------------------------- Table 5

/// Table 5 — log throughput under the MaxLog mix.
///
/// Shape: HADR's log rate is pinned near its compute-driven backup egress
/// budget; Socrates, whose backups are XStore snapshots, sustains
/// substantially more (paper: 89.8 vs 56.9 MB/s) at higher CPU.
#[derive(Debug)]
pub struct Table5 {
    /// HADR run.
    pub hadr: RunReport,
    /// Socrates run.
    pub socrates: RunReport,
}

/// Run Table 5.
pub fn table5_log_throughput(effort: Effort) -> Result<Table5> {
    let scale = CdbScale { scale_factor: effort.scale_factor(), padding: 400 };
    let clients = 32;
    let make_workload =
        || Arc::new(CdbWorkload::new(CdbMix::MaxLog, scale.scale_factor).with_update_padding(900));

    let hadr = hadr_with_cdb(scale, 51)?;
    let hadr_sut = HadrSut::new(Arc::clone(&hadr));
    // Table 5 models HADR's primary on 16 cores, twice the default.
    let hadr_report = run_on_cores(&hadr_sut, make_workload(), &driver(clients, effort, 5), 16);
    drop(hadr_sut);
    drop(hadr);

    let db_pages = approx_cdb_pages(scale);
    let sys = socrates_with_cdb(DeviceProfile::xio(), db_pages, db_pages, scale, 52)?;
    let sut = SocratesSut::new(&sys)?;
    let socrates_report = run(&sut, make_workload(), &driver(clients, effort, 6));
    sys.shutdown();
    Ok(Table5 { hadr: hadr_report, socrates: socrates_report })
}

// ------------------------------------------------- Tables 6/7 & Figure 4

/// One UpdateLite run against Socrates with a given landing-zone service.
pub fn updatelite_run(
    lz: DeviceProfile,
    clients: usize,
    effort: Effort,
    seed: u64,
) -> Result<RunReport> {
    let scale = CdbScale { scale_factor: 2000, padding: 120 };
    let db_pages = approx_cdb_pages(scale);
    // Fully cached compute (the Appendix A experiments isolate the LZ).
    let sys = socrates_with_cdb(lz, db_pages * 2, db_pages * 2, scale, seed)?;
    let sut = SocratesSut::new(&sys)?;
    let workload = Arc::new(CdbWorkload::new(CdbMix::UpdateLite, scale.scale_factor));
    let report = run(&sut, workload, &driver(clients, effort, seed));
    sys.shutdown();
    Ok(report)
}

/// Table 6 — single-client commit latency, XIO vs DirectDrive.
///
/// Shape: DirectDrive's min/median are ~4–5× lower; the max (tail spike)
/// is similar for both.
#[derive(Debug)]
pub struct Table6 {
    /// XIO commit latency stats.
    pub xio: HistogramSnapshot,
    /// DirectDrive commit latency stats.
    pub dd: HistogramSnapshot,
}

/// Run Table 6.
pub fn table6_commit_latency(effort: Effort) -> Result<Table6> {
    let xio = updatelite_run(DeviceProfile::xio(), 1, effort, 61)?;
    let dd = updatelite_run(DeviceProfile::direct_drive(), 1, effort, 62)?;
    Ok(Table6 { xio: xio.commit_latency, dd: dd.commit_latency })
}

/// Table 7 — CPU cost at (roughly) matched log throughput: XIO needs many
/// more client threads and burns several times the primary CPU compared
/// to DirectDrive (the paper: 128 vs 16 threads, ~3× CPU at 70 MB/s).
#[derive(Debug)]
pub struct Table7 {
    /// (threads, report) for XIO.
    pub xio: (usize, RunReport),
    /// (threads, report) for DirectDrive.
    pub dd: (usize, RunReport),
}

/// Run Table 7.
pub fn table7_lz_cpu(effort: Effort) -> Result<Table7> {
    let xio_threads = 64;
    let dd_threads = 8;
    let xio = updatelite_run(DeviceProfile::xio(), xio_threads, effort, 71)?;
    let dd = updatelite_run(DeviceProfile::direct_drive(), dd_threads, effort, 72)?;
    Ok(Table7 { xio: (xio_threads, xio), dd: (dd_threads, dd) })
}

/// Figure 4 — UpdateLite throughput vs client threads for both landing
/// zones.
///
/// Shape: DD dominates XIO at every thread count; both scale roughly
/// linearly while the LZ is the bottleneck, then flatten.
#[derive(Debug)]
pub struct Fig4 {
    /// (threads, XIO tps, DD tps) series.
    pub series: Vec<(usize, f64, f64)>,
}

/// Run Figure 4.
pub fn fig4_threads(effort: Effort) -> Result<Fig4> {
    let thread_counts: &[usize] = match effort {
        Effort::Quick => &[1, 4, 16],
        Effort::Full => &[1, 2, 4, 8, 16, 32, 64],
    };
    let mut series = Vec::new();
    for &threads in thread_counts {
        let xio = updatelite_run(DeviceProfile::xio(), threads, effort, 80 + threads as u64)?;
        let dd =
            updatelite_run(DeviceProfile::direct_drive(), threads, effort, 180 + threads as u64)?;
        series.push((threads, xio.total_tps, dd.total_tps));
    }
    Ok(Fig4 { series })
}

// ------------------------------------------------------- Cold-scan (sched)

/// One arm of the cold-scan A/B: time a full table scan on a
/// freshly-failed-over primary (cold compute cache), with the remote-read
/// I/O scheduler on or off.
#[derive(Debug)]
pub struct ColdScanArm {
    /// Pages the scanning node holds (allocator watermark — identical
    /// across arms, so pages/sec comparisons are apples-to-apples).
    pub pages: u64,
    /// Scan wall time in seconds.
    pub secs: f64,
    /// Pages per second (`pages / secs`).
    pub pages_per_sec: f64,
    /// GetPages requests the page servers saw during the scan.
    pub range_requests: u64,
    /// Prefetched pages installed into the compute cache.
    pub prefetch_installs: u64,
}

/// The cold-scan experiment: scheduler thread off (one-page demand misses
/// only) vs on (scan prefetch as range reads, and a free-frame reserve).
#[derive(Debug)]
pub struct ColdScan {
    /// Rows scanned.
    pub rows: usize,
    /// Scheduler disabled.
    pub off: ColdScanArm,
    /// Scheduler enabled.
    pub on: ColdScanArm,
    /// `on.pages_per_sec / off.pages_per_sec`.
    pub speedup: f64,
}

fn cold_scan_arm(enabled: bool, rows: usize, seed: u64) -> Result<ColdScanArm> {
    let schema =
        Schema::new(vec![("id".into(), ColumnType::Int), ("pad".into(), ColumnType::Str)], 1);
    let config = SocratesConfig::realistic(seed).with_secondaries(0).with_scheduler(enabled);
    let sys = Socrates::launch(config)?;
    {
        let p = sys.primary()?;
        p.db().create_table("scan", schema)?;
        let pad = "x".repeat(200);
        let h = p.db().begin();
        for i in 0..rows {
            p.db().insert(&h, "scan", &[Value::Int(i as i64), Value::Str(pad.clone())])?;
        }
        p.db().commit(h)?;
        sys.fabric().wait_applied(p.pipeline().hardened_lsn(), Duration::from_secs(120))?;
    }
    // A replacement primary starts with a cold cache: every page of the
    // scan must come over GetPage@LSN.
    sys.kill_primary();
    let p = sys.failover()?;
    let pages = p.io().next_page_id();
    let range_before: u64 = sys
        .fabric()
        .partition_ids()
        .iter()
        .filter_map(|pid| sys.fabric().partition(*pid))
        .flat_map(|h| {
            h.servers.iter().map(|s| s.metrics().range_requests.get()).collect::<Vec<_>>()
        })
        .sum();
    let t0 = Instant::now();
    let r = p.db().begin();
    let got =
        p.db().scan_range(&r, "scan", &[Value::Int(0)], &[Value::Int(rows as i64)], rows + 1)?;
    let secs = t0.elapsed().as_secs_f64();
    if got.len() != rows {
        return Err(socrates_common::Error::InvalidState(format!(
            "cold scan returned {} rows, expected {rows}",
            got.len()
        )));
    }
    let range_requests: u64 = sys
        .fabric()
        .partition_ids()
        .iter()
        .filter_map(|pid| sys.fabric().partition(*pid))
        .flat_map(|h| {
            h.servers.iter().map(|s| s.metrics().range_requests.get()).collect::<Vec<_>>()
        })
        .sum::<u64>()
        - range_before;
    let prefetch_installs = p.io().cache().stats().prefetch_installs.get();
    if std::env::var("COLDSCAN_DEBUG").is_ok() {
        let cs = p.io().cache().stats();
        eprintln!(
            "[arm enabled={enabled}] secs={secs:.3} mem_hits={} ssd_hits={} fetches={} installs={}",
            cs.mem_hits.get(),
            cs.ssd_hits.get(),
            cs.fetches.get(),
            prefetch_installs
        );
        let st = p.io().cache().scheduler().stats();
        eprintln!(
            "  sched submitted={} joined={} single={} range_calls={} range_pages={} hints={} dropped={}",
            st.submitted.get(),
            st.joined.get(),
            st.single_calls.get(),
            st.range_calls.get(),
            st.range_pages.get(),
            st.prefetch_hints.get(),
            st.prefetch_dropped.get(),
        );
        for pid in sys.fabric().partition_ids() {
            if let Some(h) = sys.fabric().partition(pid) {
                for (si, s) in h.servers.iter().enumerate() {
                    eprintln!(
                        "  ps {pid:?}[{si}] served={} ranges={} range_pages={} waits={}",
                        s.metrics().pages_served.get(),
                        s.metrics().range_requests.get(),
                        s.metrics().range_pages_served.get(),
                        s.metrics().get_page_waits.get()
                    );
                }
                eprintln!(
                    "  route hedges={} wins={} lat p50={}us p99={}us n={}",
                    h.route.hedges_fired().get(),
                    h.route.hedge_wins().get(),
                    h.route.latency_histogram().percentile(0.50),
                    h.route.latency_histogram().percentile(0.99),
                    h.route.latency_histogram().count()
                );
            }
        }
    }
    sys.shutdown();
    Ok(ColdScanArm {
        pages,
        secs,
        pages_per_sec: pages as f64 / secs.max(1e-9),
        range_requests,
        prefetch_installs,
    })
}

/// Run the cold-scan A/B.
pub fn cold_scan(effort: Effort) -> Result<ColdScan> {
    let rows = match effort {
        Effort::Quick => 4_000,
        Effort::Full => 12_000,
    };
    let off = cold_scan_arm(false, rows, 111)?;
    let on = cold_scan_arm(true, rows, 112)?;
    let speedup = on.pages_per_sec / off.pages_per_sec.max(1e-9);
    Ok(ColdScan { rows, off, on, speedup })
}

// ---------------------------------------------------------------- Table 1

/// Table 1 — the goals table: operational characteristics of both
/// architectures measured head to head.
#[derive(Debug)]
pub struct Table1 {
    /// (DB pages, HADR replica-seed seconds) at two sizes — O(data).
    pub hadr_seed: Vec<(u64, f64)>,
    /// (DB pages, Socrates add-page-server seconds) at two sizes — O(1).
    pub socrates_upsize: Vec<(u64, f64)>,
    /// (DB pages, HADR full-backup seconds) — O(data).
    pub hadr_backup: Vec<(u64, f64)>,
    /// (DB pages, Socrates snapshot-backup seconds) — O(1).
    pub socrates_backup: Vec<(u64, f64)>,
    /// (history records, HADR restart seconds incl. undo).
    pub hadr_recovery: Vec<(usize, f64)>,
    /// (history records, Socrates failover seconds — analysis only).
    pub socrates_recovery: Vec<(usize, f64)>,
    /// Storage copies of each page: (HADR, Socrates).
    pub storage_copies: (f64, f64),
    /// Median commit latency µs: (HADR, Socrates-on-DD).
    pub commit_latency_us: (u64, u64),
}

/// Run Table 1's measurable rows.
pub fn table1_goals(effort: Effort) -> Result<Table1> {
    let sizes: &[u64] = match effort {
        Effort::Quick => &[400, 1200],
        Effort::Full => &[500, 2500],
    };
    let mut hadr_seed = Vec::new();
    let mut socrates_upsize = Vec::new();
    let mut hadr_backup = Vec::new();
    let mut socrates_backup = Vec::new();

    for (i, &sf) in sizes.iter().enumerate() {
        let scale = CdbScale { scale_factor: sf, padding: 400 };

        // HADR: seeding a replica and a full backup copy the database.
        let hadr = Arc::new(Hadr::launch(HadrConfig::realistic(90 + i as u64))?);
        socrates_cdb::schema::load_cdb(hadr.db(), scale, 90)?;
        let pages = hadr.page_count();
        let t0 = Instant::now();
        let _ = hadr.seed_replica()?;
        hadr_seed.push((pages, t0.elapsed().as_secs_f64()));
        let t0 = Instant::now();
        hadr.full_backup(&format!("bench/full-{i}"))?;
        hadr_backup.push((pages, t0.elapsed().as_secs_f64()));
        drop(hadr);

        // Socrates: upsize = spin up a page server for a new partition;
        // backup = per-partition snapshots.
        let sys =
            socrates_with_cdb(DeviceProfile::direct_drive(), 4096, 8192, scale, 95 + i as u64)?;
        sys.checkpoint()?;
        let t0 = Instant::now();
        let next = sys.fabric().partition_ids().len() as u32 + 7;
        sys.fabric().ensure_partition(socrates_common::PartitionId::new(next), Lsn::ZERO)?;
        socrates_upsize.push((pages, t0.elapsed().as_secs_f64()));
        let t0 = Instant::now();
        let _ = sys.backup()?;
        socrates_backup.push((pages, t0.elapsed().as_secs_f64()));
        sys.shutdown();
    }

    // Recovery with an unfinished long-running transaction. Both systems
    // checkpoint periodically *while it runs* (as any production system
    // does). The contrast the paper's Table 1 makes: ADR recovery is
    // bounded by the checkpoint interval — it never revisits the long
    // transaction's history — while ARIES-style undo walks all of it.
    let histories: &[usize] = match effort {
        Effort::Quick => &[2_000, 10_000],
        Effort::Full => &[5_000, 40_000],
    };
    let checkpoint_every = 1_000usize;
    let mut hadr_recovery = Vec::new();
    let mut socrates_recovery = Vec::new();
    let schema =
        Schema::new(vec![("id".into(), ColumnType::Int), ("v".into(), ColumnType::Int)], 1);
    for &history in histories {
        // HADR restart with an unfinished transaction of `history` updates.
        let hadr = Arc::new(Hadr::launch(HadrConfig::fast_test())?);
        hadr.db().create_table("r", schema.clone())?;
        let h = hadr.db().begin();
        for i in 0..history.min(2_000) {
            hadr.db().upsert(&h, "r", &[Value::Int((i % 50) as i64), Value::Int(i as i64)])?;
        }
        hadr.db().commit(h)?;
        let long = hadr.db().begin();
        for i in 0..history {
            hadr.db().update(&long, "r", &[Value::Int((i % 50) as i64), Value::Int(-1)])?;
            if i % checkpoint_every == checkpoint_every - 1 {
                hadr.db().checkpoint(Lsn::ZERO)?;
            }
        }
        hadr.pipeline().flush()?;
        let t0 = Instant::now();
        let stats = hadr.recover_primary()?;
        assert!(stats.undo_records >= history, "undo skipped history");
        hadr_recovery.push((history, t0.elapsed().as_secs_f64()));

        // Socrates failover with the same unfinished history: analysis
        // from the last checkpoint only.
        let config = SocratesConfig::fast_test();
        let sys = Socrates::launch(config)?;
        {
            let p = sys.primary()?;
            p.db().create_table("r", schema.clone())?;
            let h = p.db().begin();
            for i in 0..history.min(2_000) {
                p.db().upsert(&h, "r", &[Value::Int((i % 50) as i64), Value::Int(i as i64)])?;
            }
            p.db().commit(h)?;
            let long = p.db().begin();
            for i in 0..history {
                p.db().update(&long, "r", &[Value::Int((i % 50) as i64), Value::Int(-1)])?;
                if i % checkpoint_every == checkpoint_every - 1 {
                    sys.checkpoint()?;
                }
            }
            p.pipeline().flush()?;
        }
        sys.kill_primary();
        let t0 = Instant::now();
        let _ = sys.failover()?;
        socrates_recovery.push((history, t0.elapsed().as_secs_f64()));
        sys.shutdown();
    }

    // Storage copies: HADR keeps a full copy on each of 4 nodes; Socrates
    // keeps one covering page-server copy plus the XStore checkpoint copy.
    let storage_copies = (4.0, 2.0);

    // Commit latency: HADR quorum vs Socrates on DirectDrive.
    let hadr = Arc::new(Hadr::launch(HadrConfig::realistic(101))?);
    socrates_cdb::schema::load_cdb(hadr.db(), CdbScale { scale_factor: 400, padding: 100 }, 7)?;
    let hadr_sut = HadrSut::new(Arc::clone(&hadr));
    let workload = Arc::new(CdbWorkload::new(CdbMix::UpdateLite, 400));
    let hadr_report = run(&hadr_sut, workload, &driver(1, effort, 9));
    drop(hadr_sut);
    drop(hadr);
    let dd = updatelite_run(DeviceProfile::direct_drive(), 1, effort, 102)?;
    let commit_latency_us = (hadr_report.commit_latency.p50_us, dd.commit_latency.p50_us);

    Ok(Table1 {
        hadr_seed,
        socrates_upsize,
        hadr_backup,
        socrates_backup,
        hadr_recovery,
        socrates_recovery,
        storage_copies,
        commit_latency_us,
    })
}

// --------------------------------------------- Failover under load (§3.2)

/// The failover-under-load experiment: kill every replica of the scanned
/// partition in the middle of a cold scan, keep scanning (reads degrade
/// to the XStore checkpoint), restart the partition from its blobs, and
/// finish the scan — availability through total replica loss.
#[derive(Debug)]
pub struct FailoverUnderLoad {
    /// Rows scanned (all of them, despite the outage).
    pub rows: usize,
    /// Chunks the scan was issued in.
    pub chunks: usize,
    /// Median chunk latency while the page servers were healthy (ms).
    pub healthy_chunk_p50_ms: f64,
    /// Median chunk latency during the outage — degraded reads (ms).
    pub degraded_chunk_p50_ms: f64,
    /// Worst chunk latency across the whole scan: the availability gap a
    /// reader actually experienced (ms).
    pub worst_chunk_ms: f64,
    /// Wall time to restart the partition from its XStore blobs (s).
    pub restart_secs: f64,
    /// Pages served from the checkpoint while the partition was down.
    pub degraded_reads: u64,
}

/// Run the failover-under-load scan.
pub fn failover_under_load(effort: Effort) -> Result<FailoverUnderLoad> {
    let rows = match effort {
        Effort::Quick => 4_000,
        Effort::Full => 12_000,
    };
    let chunks = 20usize;
    let chunk = rows / chunks;
    let schema =
        Schema::new(vec![("id".into(), ColumnType::Int), ("pad".into(), ColumnType::Str)], 1);
    // Scheduler off: no scan prefetch, so every chunk's pages are demand
    // misses and the outage window is actually exercised by the reads.
    let config = SocratesConfig::realistic(777).with_secondaries(0).with_scheduler(false);
    let sys = Socrates::launch(config)?;
    {
        let p = sys.primary()?;
        p.db().create_table("scan", schema)?;
        let pad = "x".repeat(200);
        let h = p.db().begin();
        for i in 0..rows {
            p.db().insert(&h, "scan", &[Value::Int(i as i64), Value::Str(pad.clone())])?;
        }
        p.db().commit(h)?;
        sys.fabric().wait_applied(p.pipeline().hardened_lsn(), Duration::from_secs(120))?;
    }
    // The checkpoint is what degraded reads will serve from.
    sys.checkpoint()?;
    sys.kill_primary();
    let p = sys.failover()?;

    let pids = sys.fabric().partition_ids();
    let kill_at = chunks / 4;
    let restart_at = 3 * chunks / 4;
    let mut restart_secs = 0.0;
    let mut healthy_ms = Vec::new();
    let mut degraded_ms = Vec::new();
    let mut worst_ms = 0.0f64;
    let r = p.db().begin();
    for c in 0..chunks {
        if c == kill_at {
            for pid in &pids {
                sys.fabric().kill_partition(*pid);
            }
        }
        if c == restart_at {
            let t0 = Instant::now();
            for pid in &pids {
                sys.fabric().restart_partition(*pid)?;
            }
            restart_secs = t0.elapsed().as_secs_f64();
        }
        let lo = (c * chunk) as i64;
        let hi = ((c + 1) * chunk) as i64;
        let t0 = Instant::now();
        let got = p.db().scan_range(&r, "scan", &[Value::Int(lo)], &[Value::Int(hi)], chunk)?;
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        if got.len() != chunk {
            return Err(socrates_common::Error::InvalidState(format!(
                "chunk {c} returned {} rows, expected {chunk}",
                got.len()
            )));
        }
        worst_ms = worst_ms.max(ms);
        if (kill_at..restart_at).contains(&c) {
            degraded_ms.push(ms);
        } else {
            healthy_ms.push(ms);
        }
    }
    let degraded_reads = sys.fabric().degraded_read_count();
    sys.shutdown();
    let p50 = |v: &mut Vec<f64>| {
        v.sort_by(|a, b| a.total_cmp(b));
        v[v.len() / 2]
    };
    Ok(FailoverUnderLoad {
        rows,
        chunks,
        healthy_chunk_p50_ms: p50(&mut healthy_ms),
        degraded_chunk_p50_ms: p50(&mut degraded_ms),
        worst_chunk_ms: worst_ms,
        restart_secs,
        degraded_reads,
    })
}

//! HADR — the baseline architecture Socrates replaced (paper §2, Fig. 1).
//!
//! HADR is a classic log-replicated state machine: one primary and N
//! (typically three) secondaries, **each holding a full local copy of the
//! database**. Commits harden by shipping the log to the secondaries and
//! waiting for a quorum of acknowledgements. Durability additionally
//! requires the primary to back the log up to XStore continuously and the
//! database up periodically — all driven from the compute tier, which is
//! what throttles HADR's log throughput in the paper's Table 5.
//!
//! The parts that make HADR lose to Socrates in the paper are implemented
//! faithfully so the benchmarks can measure them:
//!
//! * full local copies → database size bounded by one machine; four
//!   storage copies; `seed_replica`/`full_backup` are **O(size of data)**;
//! * log backup egress from the compute node throttles log production
//!   (`backup_bandwidth_mb_s`);
//! * quorum commit over the replication network (≈3 ms, Table 1);
//! * ARIES-style restart with an **undo pass** proportional to unfinished
//!   transactions' history (`recover_primary`) — versus ADR's
//!   analysis-only recovery. (The engine's MVCC makes physical undo
//!   logically unnecessary; the pass is executed to do cost-faithful work
//!   per undone record, which is what the recovery experiment measures.)

use parking_lot::Mutex;
use socrates_common::fault::FaultRegistry;
use socrates_common::latency::{DeviceProfile, LatencyInjector};
use socrates_common::lsn::AtomicLsn;
use socrates_common::metrics::{Counter, CpuAccountant, CpuRegistry};
use socrates_common::obs::SpanRing;
use socrates_common::rng::Rng;
use socrates_common::{Error, Lsn, NodeId, PageId, Result, TxnId};
use socrates_engine::recovery::find_last_checkpoint;
use socrates_engine::txn::TxnCheckpointMeta;
use socrates_engine::{Database, EvictedLsnMap, LoggedPageIo, PageAccess, PageMutator, TxnManager};
use socrates_storage::cache::{PageRef, PageSource, TieredCache};
use socrates_storage::page::{Page, PAGE_SIZE};
use socrates_storage::pageops::{apply_page_op, PageOp};
use socrates_wal::block::LogBlock;
use socrates_wal::pipeline::{BlockSink, LogPipeline, LogPipelineConfig, Submitted};
use socrates_wal::record::{LogPayload, SequencedRecord};
use socrates_xstore::{XStore, XStoreConfig};
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// HADR deployment configuration.
#[derive(Clone)]
pub struct HadrConfig {
    /// Number of secondaries (the classic deployment uses 3).
    pub replicas: usize,
    /// Secondary acks needed before a commit hardens.
    pub quorum_acks: usize,
    /// Primary's local log device.
    pub local_log_profile: DeviceProfile,
    /// Log-shipping path (network + remote flush).
    pub ship_profile: DeviceProfile,
    /// XStore (backup target) profile.
    pub xstore_profile: DeviceProfile,
    /// Log-backup egress budget from the compute node, MB/s. HADR must
    /// continuously back the log up to XStore; production cannot outrun
    /// this. `0.0` disables the throttle (unit tests).
    pub backup_bandwidth_mb_s: f64,
    /// Log pipeline tuning.
    pub pipeline: LogPipelineConfig,
    /// Deterministic seed.
    pub seed: u64,
}

impl HadrConfig {
    /// Instant and lossless: unit tests.
    pub fn fast_test() -> HadrConfig {
        HadrConfig {
            replicas: 3,
            quorum_acks: 2,
            local_log_profile: DeviceProfile::instant(),
            ship_profile: DeviceProfile::instant(),
            xstore_profile: DeviceProfile::instant(),
            backup_bandwidth_mb_s: 0.0,
            pipeline: LogPipelineConfig::default(),
            seed: 7,
        }
    }

    /// Calibrated to the paper's HADR: ~3 ms quorum commits, and log
    /// production bounded by backup egress. The egress budget is scaled
    /// ~1:20 with the database sizes (the paper's 1 TB × 57 MB/s becomes
    /// our megabyte-scale databases × 2.5 MB/s), preserving Table 5's
    /// binding constraint: HADR's log rate is capped by compute-driven
    /// backups at a point Socrates sails past.
    pub fn realistic(seed: u64) -> HadrConfig {
        HadrConfig {
            local_log_profile: DeviceProfile::local_ssd(),
            ship_profile: DeviceProfile::hadr_ship(),
            xstore_profile: DeviceProfile::xstore(),
            backup_bandwidth_mb_s: 2.5,
            seed,
            ..HadrConfig::fast_test()
        }
    }
}

/// A replica's full local copy of the database.
pub struct ReplicaStore {
    pages: Mutex<HashMap<PageId, PageRef>>,
}

impl ReplicaStore {
    fn new() -> ReplicaStore {
        ReplicaStore {
            pages: Mutex::with_rank(
                HashMap::new(),
                socrates_common::lock_rank::HADR_REPLICA_PAGES,
                "hadr.replica_pages",
            ),
        }
    }

    /// Number of pages (the full database).
    pub fn page_count(&self) -> usize {
        self.pages.lock().len()
    }

    fn apply(&self, page_id: PageId, op_bytes: &[u8], lsn: Lsn) -> Result<()> {
        let pref = {
            let mut pages = self.pages.lock();
            Arc::clone(pages.entry(page_id).or_insert_with(|| {
                Arc::new(parking_lot::RwLock::new(Page::new(
                    page_id,
                    socrates_storage::page::PageType::Free,
                )))
            }))
        };
        let mut page = pref.write();
        if page.page_lsn() >= lsn {
            return Ok(());
        }
        let (op, _) = PageOp::decode(op_bytes)?;
        apply_page_op(&mut page, &op, lsn)
    }
}

impl PageAccess for ReplicaStore {
    fn page(&self, id: PageId) -> Result<PageRef> {
        self.pages
            .lock()
            .get(&id)
            .cloned()
            .ok_or_else(|| Error::NotFound(format!("{id} not on this replica yet")))
    }
}

impl PageMutator for ReplicaStore {
    fn allocate(&self, _txn: TxnId) -> Result<PageId> {
        Err(Error::InvalidState("HADR secondaries are read-only".into()))
    }
    fn mutate(&self, _txn: TxnId, _page: &mut Page, _op: &PageOp) -> Result<Lsn> {
        Err(Error::InvalidState("HADR secondaries are read-only".into()))
    }
}

type Shipment = (LogBlock, crossbeam::channel::Sender<()>);

/// An HADR secondary: full copy + apply thread + read-only engine.
pub struct HadrReplica {
    store: Arc<ReplicaStore>,
    tm: Arc<TxnManager>,
    applied: AtomicLsn,
    tx: crossbeam::channel::Sender<Shipment>,
    stop: Arc<AtomicBool>,
    handle: Mutex<Option<std::thread::JoinHandle<()>>>,
}

impl HadrReplica {
    fn launch(index: u32) -> Arc<HadrReplica> {
        let (tx, rx) = crossbeam::channel::unbounded::<Shipment>();
        let replica = Arc::new(HadrReplica {
            store: Arc::new(ReplicaStore::new()),
            tm: Arc::new(TxnManager::with_base(1 << 62)),
            applied: AtomicLsn::new(Lsn::ZERO),
            tx,
            stop: Arc::new(AtomicBool::new(false)),
            handle: Mutex::with_rank(
                None,
                socrates_common::lock_rank::HADR_HANDLE,
                "hadr.replica_handle",
            ),
        });
        let me = Arc::clone(&replica);
        *replica.handle.lock() = Some(
            std::thread::Builder::new()
                .name(format!("hadr-replica-{index}"))
                .spawn(move || {
                    while let Ok((block, ack)) = rx.recv() {
                        // ordering: relaxed — shutdown poll; a late observation
                        // ships at most one extra block
                        if me.stop.load(Ordering::Relaxed) {
                            break;
                        }
                        let _ = me.apply_block(&block);
                        let _ = ack.send(());
                    }
                })
                .expect("spawn hadr replica"),
        );
        replica
    }

    fn apply_block(&self, block: &LogBlock) -> Result<()> {
        for rec in block.records()? {
            match &rec.record.payload {
                LogPayload::PageWrite { page_id, op } => self.store.apply(*page_id, op, rec.lsn)?,
                LogPayload::TxnBegin => self.tm.apply_begin(rec.record.txn),
                LogPayload::TxnCommit { commit_ts } => {
                    self.tm.apply_commit(rec.record.txn, *commit_ts)
                }
                LogPayload::TxnAbort => self.tm.apply_abort(rec.record.txn),
                _ => {}
            }
        }
        self.applied.advance_to(block.end_lsn());
        Ok(())
    }

    /// Log-apply watermark.
    pub fn applied_lsn(&self) -> Lsn {
        self.applied.load()
    }

    /// The replica's full copy (diagnostics: storage footprint).
    pub fn store(&self) -> &Arc<ReplicaStore> {
        &self.store
    }

    /// Read-only database over the replica (lazily opened once the catalog
    /// page has been replicated).
    pub fn db(&self) -> Result<Database> {
        // A Database is cheap to reconstruct; open fresh to pick up DDL.
        Database::open(Arc::clone(&self.store) as Arc<dyn PageMutator>, Arc::clone(&self.tm))
    }

    /// Wait until the replica has applied up to `lsn`.
    pub fn wait_applied(&self, lsn: Lsn, timeout: Duration) -> Result<()> {
        let deadline = Instant::now() + timeout;
        while self.applied.load() < lsn {
            if Instant::now() > deadline {
                return Err(Error::Timeout(format!(
                    "replica stuck at {} < {lsn}",
                    self.applied.load()
                )));
            }
            std::thread::sleep(Duration::from_micros(100));
        }
        Ok(())
    }

    fn shutdown(&self) {
        // ordering: relaxed — poll flag; the join below is the real sync point
        self.stop.store(true, Ordering::Relaxed);
    }
}

/// Replication/backup counters.
#[derive(Debug, Default)]
pub struct HadrMetrics {
    /// Log bytes shipped to secondaries (×N copies).
    pub bytes_shipped: Counter,
    /// Log bytes backed up to XStore.
    pub backup_bytes: Counter,
    /// Microseconds spent throttled behind backup egress.
    pub throttle_us: Counter,
}

/// The quorum log sink: local flush + ship to secondaries + backup egress
/// throttle.
pub struct HadrSink {
    replicas: Vec<Arc<HadrReplica>>,
    quorum_acks: usize,
    local_log: LatencyInjector,
    ship: LatencyInjector,
    throttle_bytes_per_us: f64,
    retained: Mutex<Vec<LogBlock>>,
    metrics: Arc<HadrMetrics>,
    primary_cpu: Arc<CpuAccountant>,
    rng: Mutex<Rng>,
}

impl BlockSink for HadrSink {
    /// Flush, ship and back up synchronously: HADR's log write is one
    /// serial quorum round trip, hardened before this returns.
    fn submit(&self, block: &LogBlock) -> Result<Submitted> {
        // 1. Local log flush.
        self.local_log.write_delay();
        self.primary_cpu.charge_us(self.local_log.cpu_cost_us(block.len()));
        // 2. Ship to all replicas in parallel; commit at quorum. The
        //    modelled wait is the quorum-th smallest shipping sample.
        if !self.replicas.is_empty() {
            let mut samples: Vec<Duration> = {
                let mut rng = self.rng.lock();
                (0..self.replicas.len())
                    .map(|_| self.ship.profile().write.sample(&mut rng))
                    .collect()
            };
            samples.sort_unstable();
            let idx = self.quorum_acks.min(samples.len()).saturating_sub(1);
            socrates_common::latency::precise_sleep(samples[idx]);
        }
        let (ack_tx, ack_rx) = crossbeam::channel::bounded(self.replicas.len());
        for r in &self.replicas {
            self.primary_cpu.charge_us(self.ship.cpu_cost_us(block.len()));
            self.metrics.bytes_shipped.add(block.len() as u64);
            let _ = r.tx.send((block.clone(), ack_tx.clone()));
        }
        drop(ack_tx);
        for _ in 0..self.quorum_acks.min(self.replicas.len()) {
            ack_rx
                .recv_timeout(Duration::from_secs(10))
                .map_err(|_| Error::Timeout("HADR quorum ack".into()))?;
        }
        // 3. Continuous log backup from the compute node: egress-limited.
        self.metrics.backup_bytes.add(block.len() as u64);
        self.primary_cpu.charge_us(18 + block.len() as u64 / 1024);
        if self.throttle_bytes_per_us > 0.0 {
            let us = (block.len() as f64 / self.throttle_bytes_per_us) as u64;
            self.metrics.throttle_us.add(us);
            socrates_common::latency::precise_sleep(Duration::from_micros(us));
        }
        self.retained.lock().push(block.clone());
        Ok(Submitted::Hardened)
    }
}

/// A full HADR deployment.
pub struct Hadr {
    db: Database,
    io: Arc<LoggedPageIo>,
    pipeline: Arc<LogPipeline>,
    replicas: Vec<Arc<HadrReplica>>,
    sink: Arc<HadrSink>,
    xstore: Arc<XStore>,
    cpu: CpuRegistry,
    metrics: Arc<HadrMetrics>,
}

/// A source that never serves: HADR nodes hold the whole database locally,
/// so a cache miss is a bug.
struct NoRemote;

impl PageSource for NoRemote {
    fn fetch_page(&self, id: PageId, _min_lsn: Lsn) -> Result<Page> {
        Err(Error::NotFound(format!(
            "{id} missed the full local copy (HADR nodes never fetch remotely)"
        )))
    }
}

impl Hadr {
    /// Launch a fresh HADR deployment: primary + N secondaries with full
    /// copies, quorum replication, XStore for backups.
    pub fn launch(config: HadrConfig) -> Result<Hadr> {
        let cpu = CpuRegistry::new();
        let primary_cpu = cpu.accountant(NodeId::PRIMARY);
        let metrics = Arc::new(HadrMetrics::default());
        let replicas: Vec<Arc<HadrReplica>> =
            (0..config.replicas).map(|i| HadrReplica::launch(i as u32)).collect();
        let xstore = Arc::new(XStore::new(
            XStoreConfig { profile: config.xstore_profile.clone(), seed: config.seed ^ 0xBAC },
            FaultRegistry::disabled(),
        ));
        let sink = Arc::new(HadrSink {
            replicas: replicas.clone(),
            quorum_acks: config.quorum_acks,
            local_log: LatencyInjector::new(config.local_log_profile.clone(), config.seed ^ 1),
            ship: LatencyInjector::new(config.ship_profile.clone(), config.seed ^ 2),
            throttle_bytes_per_us: config.backup_bandwidth_mb_s * 1e6 / 1e6, // MB/s == bytes/µs
            retained: Mutex::with_rank(
                Vec::new(),
                socrates_common::lock_rank::HADR_RETAINED,
                "hadr.retained",
            ),
            metrics: Arc::clone(&metrics),
            primary_cpu: Arc::clone(&primary_cpu),
            rng: Mutex::with_rank(
                Rng::new(config.seed ^ 3),
                socrates_common::lock_rank::HADR_RNG,
                "hadr.rng",
            ),
        });
        // The baseline runs unsampled, its stage histograms unregistered.
        let spans = (Arc::new(SpanRing::disabled()), NodeId::PRIMARY);
        let pipeline = Arc::new(LogPipeline::new(
            Arc::clone(&sink) as Arc<dyn BlockSink>,
            vec![], // replicas are shipped to by the sink itself
            Arc::new(|_p: PageId| socrates_common::PartitionId::new(0)),
            config.pipeline,
            Lsn::ZERO,
            spans.clone(),
        ));
        // The primary's "cache" is the full local copy: effectively
        // unbounded, misses are errors.
        let cache = Arc::new(TieredCache::with_defaults(usize::MAX / 2, None, Arc::new(NoRemote)));
        let io = Arc::new(LoggedPageIo::new(
            cache,
            Arc::clone(&pipeline),
            Arc::new(EvictedLsnMap::new(1)),
            0,
            Arc::default(),
            spans,
            Arc::new(|_| {}),
        ));
        let db = Database::create(io.clone() as Arc<dyn PageMutator>)?;
        Ok(Hadr { db, io, pipeline, replicas, sink, xstore, cpu, metrics })
    }

    /// The primary's database.
    pub fn db(&self) -> &Database {
        &self.db
    }

    /// The log pipeline (commit latency / log throughput metrics).
    pub fn pipeline(&self) -> &Arc<LogPipeline> {
        &self.pipeline
    }

    /// Replica `i`.
    pub fn replica(&self, i: usize) -> &Arc<HadrReplica> {
        &self.replicas[i]
    }

    /// Per-node CPU accounting.
    pub fn cpu(&self) -> &CpuRegistry {
        &self.cpu
    }

    /// Replication/backup counters.
    pub fn metrics(&self) -> &Arc<HadrMetrics> {
        &self.metrics
    }

    /// The primary's page I/O.
    pub fn io(&self) -> &Arc<LoggedPageIo> {
        &self.io
    }

    /// Register this deployment's metrics into a hub: the primary's
    /// pipeline/cache counters plus HADR-specific replication and backup
    /// costs, and each replica's apply watermark. HADR has no log or page
    /// tiers — everything hangs off compute nodes, which is the point.
    pub fn register_metrics(&self, hub: &socrates_common::obs::MetricsHub) {
        self.pipeline.register_metrics(hub, NodeId::PRIMARY);
        self.io.data_pages().register(hub, NodeId::PRIMARY);
        let m = Arc::clone(&self.metrics);
        hub.register_counter_fn(NodeId::PRIMARY, "hadr_bytes_shipped", move || {
            m.bytes_shipped.get()
        });
        let m = Arc::clone(&self.metrics);
        hub.register_counter_fn(NodeId::PRIMARY, "hadr_backup_bytes", move || m.backup_bytes.get());
        let m = Arc::clone(&self.metrics);
        hub.register_counter_fn(NodeId::PRIMARY, "hadr_throttle_us", move || m.throttle_us.get());
        for (i, r) in self.replicas.iter().enumerate() {
            let r = Arc::clone(r);
            hub.register_gauge_fn(NodeId::secondary(i as u32), "applied_lsn", move || {
                r.applied_lsn().offset() as i64
            });
        }
    }

    /// Total pages in the primary's full copy.
    pub fn page_count(&self) -> u64 {
        self.io.next_page_id()
    }

    /// Full database backup to XStore: **O(size of data)** — every page is
    /// read on the compute node and written to the storage service
    /// (contrast with Socrates' constant-time snapshot backups).
    pub fn full_backup(&self, name: &str) -> Result<u64> {
        let blob = self.xstore.create_blob(name)?;
        let mut bytes = 0u64;
        for pid in 0..self.io.next_page_id() {
            let page_ref = self.io.page(PageId::new(pid))?;
            let img = page_ref.read().to_io_bytes();
            self.xstore.write_at(blob, pid * PAGE_SIZE as u64, &img)?;
            self.cpu.accountant(NodeId::PRIMARY).charge_us(25);
            bytes += PAGE_SIZE as u64;
        }
        self.metrics.backup_bytes.add(bytes);
        Ok(bytes)
    }

    /// Seed a brand-new replica: copy the **entire database** over the
    /// replication network — the O(size-of-data) operation that bounds
    /// HADR's mean-time-to-recovery.
    pub fn seed_replica(&self) -> Result<Arc<HadrReplica>> {
        let replica = HadrReplica::launch(self.replicas.len() as u32);
        let mut copied = 0u64;
        for pid in 0..self.io.next_page_id() {
            let page_ref = self.io.page(PageId::new(pid))?;
            let img = page_ref.read().to_io_bytes();
            // Model the per-page transfer cost.
            self.sink.ship.read_delay();
            let mut page = Page::from_io_bytes(PageId::new(pid), &img)?;
            let lsn = page.page_lsn();
            page.set_page_lsn(lsn);
            replica
                .store
                .pages
                .lock()
                .insert(PageId::new(pid), Arc::new(parking_lot::RwLock::new(page)));
            copied += 1;
        }
        replica.applied.advance_to(self.pipeline.hardened_lsn());
        let _ = copied;
        Ok(replica)
    }

    /// ARIES-style restart of the primary: analysis + redo + **undo**.
    /// The undo pass walks the log backward doing per-record work for
    /// every update of each unfinished transaction — the unbounded phase
    /// ADR eliminates. Returns pass statistics for the recovery
    /// experiments.
    pub fn recover_primary(&self) -> Result<HadrRecoveryStats> {
        let t0 = Instant::now();
        let blocks = self.sink.retained.lock().clone();
        let mut records: Vec<SequencedRecord> = Vec::new();
        for b in &blocks {
            records.extend(b.records()?);
        }
        // Analysis.
        let (ckpt_idx, meta) = match find_last_checkpoint(&records)? {
            Some((lsn, _, meta)) => (records.iter().position(|r| r.lsn >= lsn).unwrap_or(0), meta),
            None => (0, TxnCheckpointMeta::default()),
        };
        let tm = TxnManager::new();
        tm.absorb_meta(&meta);
        let mut unfinished: HashSet<TxnId> = meta.active.iter().map(|t| TxnId::new(*t)).collect();
        let mut redo_count = 0usize;
        for rec in &records[ckpt_idx..] {
            match &rec.record.payload {
                LogPayload::TxnBegin => {
                    unfinished.insert(rec.record.txn);
                }
                LogPayload::TxnCommit { .. } | LogPayload::TxnAbort => {
                    unfinished.remove(&rec.record.txn);
                }
                LogPayload::PageWrite { page_id, op } => {
                    // Redo (pages are present; LSN check makes it cheap but
                    // every record is still examined, as in ARIES).
                    redo_count += 1;
                    if let Ok(pref) = self.io.page(*page_id) {
                        let mut page = pref.write();
                        if page.page_lsn() < rec.lsn {
                            let (decoded, _) = PageOp::decode(op)?;
                            apply_page_op(&mut page, &decoded, rec.lsn)?;
                        }
                    }
                }
                _ => {}
            }
        }
        // Undo: walk backward over the *whole* retained log doing work for
        // each unfinished transaction's update — O(their history).
        let mut undo_count = 0usize;
        if !unfinished.is_empty() {
            for rec in records.iter().rev() {
                if let LogPayload::PageWrite { page_id, op } = &rec.record.payload {
                    if unfinished.contains(&rec.record.txn) {
                        undo_count += 1;
                        // Cost-faithful undo work: fetch the page and
                        // decode the op (the MVCC engine's logical revert
                        // makes a physical inverse unnecessary).
                        if let Ok(pref) = self.io.page(*page_id) {
                            let _ = pref.read().page_lsn();
                        }
                        let _ = PageOp::decode(op)?;
                        self.cpu.accountant(NodeId::PRIMARY).charge_us(8);
                    }
                }
            }
            for t in &unfinished {
                tm.abort(*t);
            }
        }
        Ok(HadrRecoveryStats {
            analysis_records: records.len() - ckpt_idx,
            redo_records: redo_count,
            undo_records: undo_count,
            unfinished_txns: unfinished.len(),
            duration: t0.elapsed(),
        })
    }

    /// Stop replica threads.
    pub fn shutdown(&self) {
        for r in &self.replicas {
            r.shutdown();
        }
    }
}

impl Drop for Hadr {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Statistics from an ARIES-style restart.
#[derive(Clone, Copy, Debug)]
pub struct HadrRecoveryStats {
    /// Records scanned by analysis.
    pub analysis_records: usize,
    /// Records examined by redo.
    pub redo_records: usize,
    /// Records processed by the undo pass.
    pub undo_records: usize,
    /// Transactions rolled back.
    pub unfinished_txns: usize,
    /// Wall time of the whole restart.
    pub duration: Duration,
}

#[cfg(test)]
mod tests {
    use super::*;
    use socrates_engine::value::{ColumnType, Schema, Value};

    fn schema() -> Schema {
        Schema::new(vec![("id".into(), ColumnType::Int), ("v".into(), ColumnType::Int)], 1)
    }

    fn row(id: i64, v: i64) -> Vec<Value> {
        vec![Value::Int(id), Value::Int(v)]
    }

    #[test]
    fn commit_reaches_quorum_and_replicas_converge() {
        let hadr = Hadr::launch(HadrConfig::fast_test()).unwrap();
        let db = hadr.db();
        db.create_table("t", schema()).unwrap();
        let h = db.begin();
        for i in 0..50 {
            db.insert(&h, "t", &row(i, i * 2)).unwrap();
        }
        db.commit(h).unwrap();
        let lsn = hadr.pipeline().hardened_lsn();
        for i in 0..3 {
            hadr.replica(i).wait_applied(lsn, Duration::from_secs(5)).unwrap();
            let rdb = hadr.replica(i).db().unwrap();
            let r = rdb.begin();
            assert_eq!(rdb.get(&r, "t", &[Value::Int(7)]).unwrap(), Some(row(7, 14)));
            // Read-only.
            assert!(rdb.insert(&r, "t", &row(999, 0)).is_err());
        }
        assert!(hadr.metrics().bytes_shipped.get() > 0);
    }

    #[test]
    fn full_backup_is_size_of_data() {
        let hadr = Hadr::launch(HadrConfig::fast_test()).unwrap();
        let db = hadr.db();
        db.create_table("t", schema()).unwrap();
        let h = db.begin();
        for i in 0..500 {
            db.insert(&h, "t", &row(i, i)).unwrap();
        }
        db.commit(h).unwrap();
        let bytes = hadr.full_backup("hadr/full-1").unwrap();
        assert_eq!(bytes, hadr.page_count() * PAGE_SIZE as u64);
        assert!(hadr.page_count() >= 3, "database spans several pages");
    }

    #[test]
    fn seeding_copies_everything() {
        let hadr = Hadr::launch(HadrConfig::fast_test()).unwrap();
        let db = hadr.db();
        db.create_table("t", schema()).unwrap();
        let h = db.begin();
        for i in 0..200 {
            db.insert(&h, "t", &row(i, i)).unwrap();
        }
        db.commit(h).unwrap();
        let replica = hadr.seed_replica().unwrap();
        assert_eq!(replica.store().page_count() as u64, hadr.page_count());
        let rdb = replica.db().unwrap();
        let r = rdb.begin();
        assert_eq!(rdb.get(&r, "t", &[Value::Int(150)]).unwrap(), Some(row(150, 150)));
    }

    #[test]
    fn recovery_undo_scales_with_unfinished_history() {
        let hadr = Hadr::launch(HadrConfig::fast_test()).unwrap();
        let db = hadr.db();
        db.create_table("t", schema()).unwrap();
        let setup = db.begin();
        for i in 0..100 {
            db.insert(&setup, "t", &row(i, 0)).unwrap();
        }
        db.commit(setup).unwrap();
        db.checkpoint(Lsn::ZERO).unwrap();

        // A long-running transaction does lots of work and never commits.
        let long = db.begin();
        for i in 0..100 {
            db.update(&long, "t", &row(i, -1)).unwrap();
        }
        // Flush the tail so the retained log contains everything.
        hadr.pipeline().flush().unwrap();

        let stats = hadr.recover_primary().unwrap();
        assert_eq!(stats.unfinished_txns, 1);
        assert!(
            stats.undo_records >= 100,
            "undo must walk the long transaction's history ({} records)",
            stats.undo_records
        );

        // Contrast case: everything committed → no undo work.
        let hadr2 = Hadr::launch(HadrConfig::fast_test()).unwrap();
        let db2 = hadr2.db();
        db2.create_table("t", schema()).unwrap();
        let h = db2.begin();
        for i in 0..100 {
            db2.insert(&h, "t", &row(i, 0)).unwrap();
        }
        db2.commit(h).unwrap();
        hadr2.pipeline().flush().unwrap();
        let stats2 = hadr2.recover_primary().unwrap();
        assert_eq!(stats2.undo_records, 0);
        assert_eq!(stats2.unfinished_txns, 0);
    }

    #[test]
    fn snapshot_reads_on_replica_respect_visibility() {
        let hadr = Hadr::launch(HadrConfig::fast_test()).unwrap();
        let db = hadr.db();
        db.create_table("t", schema()).unwrap();
        let h = db.begin();
        db.insert(&h, "t", &row(1, 10)).unwrap();
        db.commit(h).unwrap();
        // An uncommitted write must not be visible on replicas.
        let open = db.begin();
        db.update(&open, "t", &row(1, 99)).unwrap();
        hadr.pipeline().flush().unwrap();
        let lsn = hadr.pipeline().hardened_lsn();
        hadr.replica(0).wait_applied(lsn, Duration::from_secs(5)).unwrap();
        let rdb = hadr.replica(0).db().unwrap();
        let r = rdb.begin();
        assert_eq!(rdb.get(&r, "t", &[Value::Int(1)]).unwrap(), Some(row(1, 10)));
    }
}

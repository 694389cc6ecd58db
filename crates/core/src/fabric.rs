//! The storage fabric: shared services plus the page-server fleet.
//!
//! `Fabric` owns everything below the compute tier — the landing zone,
//! XStore, the XLOG service, and the partition registry that maps page
//! ranges to running page servers (with their RBIO endpoints). Compute
//! nodes come and go (they are stateless); the fabric is the part of a
//! deployment whose lifetime is the database's.

use crate::config::SocratesConfig;
use parking_lot::{Mutex, RwLock};
use socrates_common::fault::FaultRegistry;
use socrates_common::ids::NodeKind;
use socrates_common::latency::LatencyInjector;
use socrates_common::lock_rank;
use socrates_common::lsn::AtomicLsn;
use socrates_common::metrics::{Counter, CpuAccountant, CpuRegistry};
use socrates_common::obs::ctx::{HEDGE_LOST, HEDGE_WON};
use socrates_common::obs::{
    BlackboxRecorder, BlackboxSources, HubHistory, MetricsHub, SloEngine, SloStatus, SpanEvent,
    SpanKind, SpanRing, Stage, StageHists, StageSet, TraceCtx, SPAN_CAPACITY,
};
use socrates_common::{BlobId, Error, Lsn, NodeId, PageId, PartitionId, Result};
use socrates_engine::PageAccess;
use socrates_pageserver::{
    CompactionWorker, PageServer, PageServerHandler, PageServerWiring, PartitionSpec,
};
use socrates_rbio::replica::{CallMeta, ReplicaSet};
use socrates_rbio::transport::{NetworkConfig, RbioServer};
use socrates_storage::cache::{
    EvictionListener, FetchMeta, PageRef, PageSource, TieredCache, WalFlushHook,
};
use socrates_storage::fcb::{Fcb, LatencyFcb, MemFcb};
use socrates_storage::page::{Page, PAGE_SIZE};
use socrates_storage::rbpex::{Rbpex, RbpexPolicy};
use socrates_storage::sched::RangedPageSource;
use socrates_wal::block::LogBlock;
use socrates_wal::landing_zone::{LandingZone, LandingZoneConfig};
use socrates_wal::quorum::{Acceptor, QuorumConfig, QuorumLog};
use socrates_wal::store::LogStore;
use socrates_xlog::XLogService;
use socrates_xstore::{XStore, XStoreConfig};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::Arc;

/// A running partition: its page server(s) and the RBIO route to them.
pub struct PartitionHandle {
    /// QoS-routed client over all replicas. Declared first so its client
    /// stubs drop before the endpoints they talk to.
    pub route: Arc<ReplicaSet>,
    /// RBIO server endpoints (kept alive with the handle).
    pub endpoints: Vec<Arc<RbioServer>>,
    /// The page servers (index 0 is the original, others are replicas).
    pub servers: Vec<Arc<PageServer>>,
    /// The observability node id of each server (parallel to `servers`);
    /// used to unregister its metrics when the partition is killed.
    pub nodes: Vec<NodeId>,
}

/// What survives a partition's death: its XStore blob ids and the apply
/// watermark its last shipped checkpoint is known to cover. Every page
/// write at or below `checkpoint_lsn` is reflected in the data blob.
#[derive(Clone, Copy)]
struct PartitionDurable {
    data_blob: BlobId,
    meta_blob: BlobId,
    checkpoint_lsn: Lsn,
}

/// One computed freshness index for [`Fabric::read_page_degraded`]: for
/// every page written after `from` (up to the released frontier at build
/// time), the LSN of its first such write — the point past which the
/// checkpoint image is provably stale for that page.
struct DegradedIndex {
    from: Lsn,
    released: Lsn,
    first_write_after: HashMap<PageId, Lsn>,
}

/// Where a page server started by [`Fabric::spawn_server`] gets its state.
pub enum ServerOrigin<'a> {
    /// A brand-new partition: empty, apply cursor at the given LSN.
    Fresh(Lsn),
    /// Existing XStore blobs (a replacement, a replica, a restore target).
    /// With `replay`, the archived blocks are applied up to the given LSN
    /// and checkpointed before the server starts — PITR's "log applied to
    /// bring the database to the requested time".
    Blobs { data: BlobId, meta: BlobId, replay: Option<(&'a [LogBlock], Lsn)> },
}

/// The shared storage fabric.
pub struct Fabric {
    /// Deployment configuration.
    pub config: SocratesConfig,
    /// The durable log store: the landing zone, or — when
    /// `config.quorum_acceptors >= 2` — the quorum WAL tier mounted in
    /// its place.
    pub lz: Arc<dyn LogStore>,
    /// The quorum tier, when mounted (acceptor kill/restart and the
    /// campaign path go through this handle; `None` in classic LZ mode).
    pub quorum: Option<Arc<QuorumLog>>,
    /// XStore.
    pub xstore: Arc<XStore>,
    /// The XLOG service.
    pub xlog: Arc<XLogService>,
    /// Per-node modelled CPU accounting.
    pub cpu: CpuRegistry,
    /// The deployment-wide metric registry: every tier registers its
    /// counters, gauges, and histograms here, keyed by node.
    pub hub: MetricsHub,
    /// The commit-stage histograms (`primary.commit_stage_*_us`), shared
    /// by every primary the deployment ever runs (failover replaces the
    /// primary, not its commit history) and by the lag watcher, which
    /// feeds the asynchronous stages.
    pub commit_stages: Arc<StageHists<Stage>>,
    /// The cross-tier causal span ring: every tier of the deployment
    /// records its leg of a sampled commit or GetPage here. Disabled
    /// (`trace_sample = 0`) it is one immutable-field compare per
    /// sampling site.
    pub spans: Arc<SpanRing>,
    /// Periodic hub snapshots (time-series telemetry; capacity 0 = off).
    pub history: Arc<HubHistory>,
    /// Declarative SLOs evaluated over `history` each [`Fabric::obs_tick`].
    pub slo: SloEngine,
    /// The blackbox flight recorder; armed deployments snapshot every ring
    /// on panic, chaos-invariant violation, or SLO breach.
    pub blackbox: Arc<BlackboxRecorder>,
    /// Whether any SLO was breaching at the last `obs_tick` (edge
    /// detection for the blackbox trigger; also `socmon`'s exit status).
    slo_breach: AtomicBool,
    /// The deployment-wide fault-injection registry. Every site — LZ
    /// writes, the lossy feed, RBIO legs, page-server serving, XStore ops
    /// — consults this one registry, so a single spec string describes a
    /// whole failure scenario. Disabled (one atomic load per site) unless
    /// `config.fault_spec` armed it or a test installs rules directly.
    pub faults: FaultRegistry,
    /// Background compaction worker shared by every page server: merges
    /// of sealed L0 delta layers into L1 images run here, one at a time.
    compaction: Arc<CompactionWorker>,
    /// Copy-on-write branches created by [`Fabric::branch_partition`],
    /// keyed by the server index baked into their name. Branches share
    /// their parent's immutable layers zero-copy and are stopped at
    /// shutdown alongside the partition fleet.
    branches: Mutex<HashMap<u32, Arc<PageServer>>>,
    partitions: RwLock<HashMap<PartitionId, Arc<PartitionHandle>>>,
    /// Last-known durable state of every partition that ever ran, kept
    /// across `kill_partition` so the fabric can restart a partition from
    /// XStore ([`Fabric::restart_partition`]) and serve degraded reads
    /// while no page server is up ([`Fabric::read_page_degraded`]).
    partition_blobs: RwLock<HashMap<PartitionId, PartitionDurable>>,
    /// Cache for the degraded read path: page → first post-watermark write
    /// LSN, valid for one (watermark, released-frontier) pair.
    degraded_index: Mutex<Option<DegradedIndex>>,
    /// Pages served straight from XStore checkpoints because every replica
    /// of the owning partition was down or unreachable.
    degraded_reads: Arc<Counter>,
    next_ps_index: AtomicU32,
    /// LSN of the most recent checkpoint record (what a recovering primary
    /// starts its analysis from; production keeps this in the boot page).
    pub last_checkpoint: AtomicLsn,
}

impl Fabric {
    /// Build the fabric: LZ replicas, XStore, XLOG (with its destager
    /// running), and no partitions yet.
    pub fn new(config: SocratesConfig) -> Result<Arc<Fabric>> {
        Self::build(config, Lsn::ZERO, None, "xlog/lt")
    }

    /// Build a fabric for a restored deployment: the log starts at
    /// `start` (the PITR target) and the existing XStore service is
    /// shared — untouched, so it keeps consulting the fault registry of
    /// the deployment that created it. `lt_name` must be unique per
    /// restore.
    pub fn new_restored(
        config: SocratesConfig,
        start: Lsn,
        xstore: Arc<XStore>,
        lt_name: &str,
    ) -> Result<Arc<Fabric>> {
        Self::build(config, start, Some(xstore), lt_name)
    }

    fn build(
        config: SocratesConfig,
        start: Lsn,
        shared_xstore: Option<Arc<XStore>>,
        lt_name: &str,
    ) -> Result<Arc<Fabric>> {
        let hub = MetricsHub::new();
        // One fault registry for the whole deployment: shared by the LZ,
        // XStore, every RBIO client, every page server and its handler,
        // and the primary's lossy feed. `fault_injected_total.<site>`
        // counters land under the dedicated fault node.
        let faults = FaultRegistry::new(config.fault_seed);
        faults.bind_hub(&hub, NodeId::FAULT);
        if !config.fault_spec.is_empty() {
            faults.install_spec(&config.fault_spec)?;
        }
        let xstore = shared_xstore.unwrap_or_else(|| {
            Arc::new(XStore::new(
                XStoreConfig {
                    profile: config.xstore_profile.clone(),
                    mode: config.latency_mode,
                    seed: config.seed ^ 0x5704E,
                },
                faults.clone(),
            ))
        });
        let cpu = CpuRegistry::new();
        let primary_cpu = cpu.accountant(NodeId::PRIMARY);
        // LZ replicas: each a memory device behind the configured landing
        // zone service profile; the device CPU cost lands on the primary
        // (it drives the writes — XIO's REST calls vs DD's syscalls,
        // Table 7).
        let (lz, quorum): (Arc<dyn LogStore>, Option<Arc<QuorumLog>>) = if config.quorum_acceptors
            >= 2
        {
            // Quorum WAL tier: one acceptor node per index, each with its
            // own seeded device latency stream (like the LZ replicas).
            let acceptors = (0..config.quorum_acceptors)
                .map(|i| {
                    Arc::new(Acceptor::new(
                        i,
                        start,
                        Some(LatencyInjector::new(
                            config.lz_profile.clone(),
                            config.latency_mode,
                            config.seed ^ (i as u64 + 1),
                        )),
                    ))
                })
                .collect();
            let q = Arc::new(QuorumLog::with_acceptors(
                acceptors,
                QuorumConfig {
                    acceptors: config.quorum_acceptors,
                    ack_required: config.quorum_ack_required,
                    capacity: config.lz_capacity,
                },
                faults.clone(),
            ));
            // Initial election (term 1) so the bootstrap primary may
            // append; later primaries campaign again via recover().
            q.campaign()?;
            (Arc::clone(&q) as Arc<dyn LogStore>, Some(q))
        } else {
            let lz_replicas: Vec<Arc<dyn Fcb>> = (0..config.lz_replicas)
                .map(|i| {
                    Arc::new(LatencyFcb::new(
                        MemFcb::new(format!("lz-{i}")),
                        LatencyInjector::new(
                            config.lz_profile.clone(),
                            config.latency_mode,
                            config.seed ^ (i as u64 + 1),
                        ),
                        Some(Arc::clone(&primary_cpu)),
                    )) as Arc<dyn Fcb>
                })
                .collect();
            let lz = Arc::new(LandingZone::with_start(
                lz_replicas,
                LandingZoneConfig { capacity: config.lz_capacity, write_quorum: config.lz_quorum },
                faults.clone(),
                start,
            ));
            (lz as Arc<dyn LogStore>, None)
        };
        let xlog_ssd: Arc<dyn Fcb> = Arc::new(LatencyFcb::new(
            MemFcb::new("xlog-ssd"),
            LatencyInjector::new(
                config.ssd_profile.clone(),
                config.latency_mode,
                config.seed ^ 0x55D,
            ),
            Some(cpu.accountant(NodeId::XLOG)),
        ));
        let xlog = XLogService::new(
            Arc::clone(&lz),
            xlog_ssd,
            Arc::clone(&xstore),
            config.xlog.clone(),
            start,
            lt_name,
        )?;
        xlog.start_destager();
        xlog.register_metrics(&hub, NodeId::XLOG);
        if let Some(q) = &quorum {
            // Per-acceptor flush/term/lag gauges plus quorum-wide commit
            // watermark and election counters. Registered under XLOG,
            // which (like the log itself) survives compute failover.
            q.register_metrics(&hub, NodeId::XLOG);
        }
        {
            let lz2 = Arc::clone(&lz);
            hub.register_gauge_fn(NodeId::XLOG, "lz_used_bytes", move || {
                (lz2.head().offset() as i64 - lz2.tail().offset() as i64).max(0)
            });
        }
        // Per-stage commit latency histograms, exported under the primary
        // (the node whose commits they describe).
        let commit_stages: Arc<StageHists<Stage>> = Arc::default();
        for (stage, hist) in commit_stages.iter() {
            hub.register_histogram(
                NodeId::PRIMARY,
                &format!("commit_stage_{}_us", stage.name()),
                Arc::clone(hist),
            );
        }
        let degraded_reads = Arc::new(Counter::new());
        hub.register_counter(NodeId::PRIMARY, "degraded_reads_total", Arc::clone(&degraded_reads));
        let spans = Arc::new(SpanRing::new(SPAN_CAPACITY, config.trace_sample));
        let history =
            Arc::new(HubHistory::new(config.hub_history_capacity, config.hub_history_interval));
        let slo = SloEngine::parse(&config.slo_spec)
            .map_err(|e| Error::InvalidArgument(format!("bad slo_spec: {e}")))?;
        let blackbox = if config.blackbox_enabled {
            Arc::new(BlackboxRecorder::new(
                BlackboxSources {
                    hub: hub.clone(),
                    spans: Some(Arc::clone(&spans)),
                    faults: Some(faults.clone()),
                },
                config.blackbox_dir.clone(),
                config.blackbox_last_n,
            ))
        } else {
            Arc::new(BlackboxRecorder::disabled())
        };
        Ok(Arc::new(Fabric {
            config,
            lz,
            quorum,
            xstore,
            xlog,
            cpu,
            hub,
            commit_stages,
            spans,
            history,
            slo,
            blackbox,
            slo_breach: AtomicBool::new(false),
            faults,
            compaction: CompactionWorker::start(),
            branches: Mutex::with_rank(
                HashMap::new(),
                lock_rank::CORE_FABRIC_BRANCHES,
                "fabric.branches",
            ),
            partitions: RwLock::with_rank(
                HashMap::new(),
                lock_rank::CORE_FABRIC_PARTITIONS,
                "fabric.partitions",
            ),
            partition_blobs: RwLock::with_rank(
                HashMap::new(),
                lock_rank::CORE_FABRIC_PARTITION_BLOBS,
                "fabric.partition_blobs",
            ),
            degraded_index: Mutex::with_rank(
                None,
                lock_rank::CORE_FABRIC_DEGRADED,
                "fabric.degraded_index",
            ),
            degraded_reads,
            next_ps_index: AtomicU32::new(0),
            last_checkpoint: AtomicLsn::new(start),
        }))
    }

    /// One observability heartbeat, driven by the LSN-lag watcher thread:
    /// append a history snapshot when the interval has elapsed, evaluate
    /// the SLOs over the refreshed window, and — on the ok→breach edge —
    /// trigger the blackbox flight recorder. Free when history is
    /// disabled (one branch).
    pub fn obs_tick(&self) {
        if !self.history.is_enabled() {
            return;
        }
        self.history.tick(&self.hub);
        if self.slo.is_empty() {
            return;
        }
        let breaching = self.slo.evaluate(&self.history).iter().any(|s| s.breaching);
        // ordering: relaxed — breach edge detection; the watcher is the
        // only writer and a lost race costs one duplicate/missed bundle
        let was = self.slo_breach.swap(breaching, Ordering::Relaxed);
        if breaching && !was {
            self.blackbox.trigger("slo-breach");
        }
    }

    /// Whether any SLO was breaching at the last [`Fabric::obs_tick`].
    pub fn slo_breaching(&self) -> bool {
        // ordering: relaxed — diagnostic read of the watcher's edge state
        self.slo_breach.load(Ordering::Relaxed)
    }

    /// Evaluate the configured SLOs right now (socmon, tests). Empty when
    /// no SLOs are configured.
    pub fn slo_statuses(&self) -> Vec<SloStatus> {
        self.slo.evaluate(&self.history)
    }

    /// The partition owning `page`.
    pub fn partition_of(&self, page: PageId) -> PartitionId {
        PartitionId::new((page.raw() / self.config.pages_per_partition) as u32)
    }

    /// The page-id range of `partition`.
    pub fn partition_spec(&self, partition: PartitionId) -> PartitionSpec {
        PartitionSpec {
            id: partition,
            base_page: partition.raw() as u64 * self.config.pages_per_partition,
            span: self.config.pages_per_partition,
        }
    }

    /// Currently running partitions, sorted.
    pub fn partition_ids(&self) -> Vec<PartitionId> {
        let mut v: Vec<PartitionId> = self.partitions.read().keys().copied().collect();
        v.sort();
        v
    }

    /// The handle for `partition`, if running.
    pub fn partition(&self, partition: PartitionId) -> Option<Arc<PartitionHandle>> {
        self.partitions.read().get(&partition).cloned()
    }

    /// Ensure a page server exists for `partition`, creating one with its
    /// apply cursor at `cursor` if not. This is the upsize path: cost is
    /// O(1) in database size — no data moves, a fresh partition starts
    /// empty.
    pub fn ensure_partition(
        &self,
        partition: PartitionId,
        cursor: Lsn,
    ) -> Result<Arc<PartitionHandle>> {
        if let Some(h) = self.partitions.read().get(&partition) {
            return Ok(Arc::clone(h));
        }
        let mut parts = self.partitions.write();
        if let Some(h) = parts.get(&partition) {
            return Ok(Arc::clone(h));
        }
        let server = self.spawn_server(partition, ServerOrigin::Fresh(cursor))?;
        let (data_blob, meta_blob) = server.1.blobs();
        self.partition_blobs.write().insert(
            partition,
            PartitionDurable { data_blob, meta_blob, checkpoint_lsn: Lsn::ZERO },
        );
        let handle = self.wrap_servers(vec![server])?;
        parts.insert(partition, Arc::clone(&handle));
        Ok(handle)
    }

    /// Add a hot replica of `partition`'s page server (the second
    /// availability lever of §6): it attaches to the same XStore blobs,
    /// seeds asynchronously, and joins the RBIO route.
    pub fn add_partition_replica(&self, partition: PartitionId) -> Result<()> {
        let existing = self
            .partition(partition)
            .ok_or_else(|| Error::NotFound(format!("{partition} has no page server")))?;
        let (data, meta) = existing.servers[0].blobs();
        // Replicas need a consistent XStore image to seed from.
        existing.servers[0].checkpoint()?;
        let mut servers: Vec<(NodeId, Arc<PageServer>)> =
            existing.nodes.iter().copied().zip(existing.servers.iter().cloned()).collect();
        servers
            .push(self.spawn_server(partition, ServerOrigin::Blobs { data, meta, replay: None })?);
        // The carried-over nodes (and the partition's route telemetry) are
        // about to re-register under the same names; free them first so
        // the hub's keep-first rule doesn't pin the old route's counters.
        for node in &existing.nodes {
            self.hub.unregister_node(*node);
        }
        let handle = self.wrap_servers(servers)?;
        self.partitions.write().insert(partition, handle);
        Ok(())
    }

    /// Start a page server for `partition` from `origin`: fresh node id and
    /// devices, the deployment's fault registry, span ring, compaction
    /// worker and apply signal handed to it at construction, apply loop
    /// running, registered as an XLOG consumer. The one place a page
    /// server comes to exist; route it with
    /// [`install_partition`](Self::install_partition).
    pub fn spawn_server(
        &self,
        partition: PartitionId,
        origin: ServerOrigin<'_>,
    ) -> Result<(NodeId, Arc<PageServer>)> {
        // ordering: relaxed — index uniqueness needs only RMW atomicity
        let idx = self.next_ps_index.fetch_add(1, Ordering::Relaxed);
        let node = NodeId::page_server(idx);
        let name = format!("ps-{}-{idx}", partition.raw());
        let spec = self.partition_spec(partition);
        let config = self.config.page_server.clone();
        let (ssd, ssd_meta) =
            (self.ps_device(&name, "ssd", idx), self.ps_device(&name, "meta", idx));
        let (xstore, xlog) = (Arc::clone(&self.xstore), Arc::clone(&self.xlog));
        let wiring = self.wiring(node);
        let ps = match origin {
            ServerOrigin::Fresh(cursor) => PageServer::create(
                &name, spec, config, ssd, ssd_meta, xstore, xlog, cursor, wiring,
            )?,
            ServerOrigin::Blobs { data, meta, replay } => {
                let ps = PageServer::attach(
                    &name, spec, config, ssd, ssd_meta, xstore, data, meta, xlog, wiring,
                )?;
                if let Some((blocks, upto)) = replay {
                    ps.apply_blocks(blocks, upto)?;
                    ps.checkpoint()?;
                }
                ps
            }
        };
        ps.start();
        self.xlog.register_consumer(&name, ps.applied_lsn());
        Ok((node, ps))
    }

    /// What every page server of this deployment is handed at construction.
    fn wiring(&self, node: NodeId) -> PageServerWiring {
        PageServerWiring {
            faults: self.faults.clone(),
            spans: Arc::clone(&self.spans),
            node,
            cpu: self.cpu.accountant(node),
            compactor: Some(Arc::clone(&self.compaction)),
        }
    }

    /// Replace a partition's server set with servers from
    /// [`spawn_server`](Self::spawn_server) (replacement, PITR).
    pub fn install_partition(
        &self,
        partition: PartitionId,
        servers: Vec<(NodeId, Arc<PageServer>)>,
    ) -> Result<()> {
        if let Some((_, first)) = servers.first() {
            let (data_blob, meta_blob) = first.blobs();
            self.partition_blobs.write().insert(
                partition,
                PartitionDurable { data_blob, meta_blob, checkpoint_lsn: first.checkpointed_lsn() },
            );
        }
        let handle = self.wrap_servers(servers)?;
        let replaced = self.partitions.write().insert(partition, Arc::clone(&handle));
        if let Some(old) = replaced {
            // Stop replaced servers (apply/checkpoint/seed threads) unless
            // the caller carried one over into the new set.
            for s in &old.servers {
                if !handle.servers.iter().any(|n| Arc::ptr_eq(n, s)) {
                    s.stop();
                }
            }
            for node in &old.nodes {
                self.hub.unregister_node(*node);
            }
        }
        Ok(())
    }

    /// Crash quorum acceptor `idx`: it stops answering votes, appends,
    /// and reads, but keeps its durable state — the counterpart of
    /// [`Fabric::kill_partition`] for the log tier. Errors in classic
    /// (single-LZ) mode.
    pub fn kill_acceptor(&self, idx: usize) -> Result<()> {
        let q = self
            .quorum
            .as_ref()
            .ok_or_else(|| Error::InvalidState("no quorum WAL tier mounted".into()))?;
        if idx >= q.acceptors().len() {
            return Err(Error::InvalidArgument(format!("no acceptor {idx}")));
        }
        q.kill_acceptor(idx);
        Ok(())
    }

    /// Restart a crashed acceptor and stream it forward to the current
    /// head from its surviving peers. Returns its flush LSN afterwards.
    pub fn restart_acceptor(&self, idx: usize) -> Result<Lsn> {
        let q = self
            .quorum
            .as_ref()
            .ok_or_else(|| Error::InvalidState("no quorum WAL tier mounted".into()))?;
        if idx >= q.acceptors().len() {
            return Err(Error::InvalidArgument(format!("no acceptor {idx}")));
        }
        q.reconnect_acceptor(idx)
    }

    /// Kill every server of a partition (availability experiments). The
    /// partition's data survives in XStore + log.
    /// Free the primary *process*'s metric names after a crash or failover
    /// so the successor's registrations are not dropped by the hub's
    /// keep-first rule. Deployment-lifetime metrics exported under the
    /// primary node id (the commit-stage histograms, the degraded-read
    /// counter) are spared: they live in the fabric and outlive any one
    /// primary. The read-stage histograms belong to the primary's cache
    /// and are retired with it.
    pub fn unregister_primary_process_metrics(&self) {
        self.hub.unregister_where(NodeId::PRIMARY, |name| {
            !(name.starts_with("commit_stage_") || name == "degraded_reads_total")
        });
    }

    pub fn kill_partition(&self, partition: PartitionId) -> Option<Arc<PartitionHandle>> {
        let removed = self.partitions.write().remove(&partition);
        if let Some(h) = &removed {
            // Remember how far the blob's checkpoint coverage got before
            // the servers die: degraded reads and restarts key off it.
            let wm = h.servers.iter().map(|s| s.checkpointed_lsn()).max().unwrap_or(Lsn::ZERO);
            if let Some(d) = self.partition_blobs.write().get_mut(&partition) {
                d.checkpoint_lsn = d.checkpoint_lsn.max(wm);
            }
            for s in &h.servers {
                s.stop();
            }
            for node in &h.nodes {
                self.hub.unregister_node(*node);
            }
        }
        removed
    }

    /// Restart a partition that was previously killed: attach a fresh page
    /// server to the partition's remembered XStore checkpoint blobs, start
    /// its apply loop, and install it as the new server set. This is the
    /// paper's page-server recovery story — state lives in XStore + log,
    /// so a replacement node only needs the blob ids and a log cursor.
    pub fn restart_partition(&self, partition: PartitionId) -> Result<()> {
        let PartitionDurable { data_blob: data, meta_blob: meta, .. } = self
            .partition_blobs
            .read()
            .get(&partition)
            .copied()
            .ok_or_else(|| Error::NotFound(format!("{partition} has never run")))?;
        let server =
            self.spawn_server(partition, ServerOrigin::Blobs { data, meta, replay: None })?;
        self.install_partition(partition, vec![server])
    }

    /// Degraded read: serve `id` straight from the partition's last XStore
    /// checkpoint, bypassing the page-server tier entirely. The GetPage@LSN
    /// freshness contract still holds: the image reflects every write up to
    /// the blob's checkpoint watermark, and for a floor beyond it the log
    /// is consulted — the image is served only if no write to this page
    /// exists in `(watermark, min_lsn]`. Used by [`RemotePageSource`] when
    /// every replica of a partition is down or unreachable.
    // soclint-allow: lock-order-transitive the partition_blobs read guard is a
    // statement-scoped temporary (`.read().get().copied()`), already dropped
    // when partition() is called; no blobs->partitions nesting actually occurs,
    // and the write-side order everywhere else is partitions->partition_blobs.
    pub fn read_page_degraded(&self, id: PageId, min_lsn: Lsn) -> Result<Page> {
        let partition = self.partition_of(id);
        let durable =
            self.partition_blobs.read().get(&partition).copied().ok_or_else(|| {
                Error::Unavailable(format!("{partition} has no checkpoint blobs"))
            })?;
        // A still-running (but unreachable) server keeps advancing the
        // blob's coverage; take the freshest watermark available.
        let live_wm = self
            .partition(partition)
            .and_then(|h| h.servers.iter().map(|s| s.checkpointed_lsn()).max());
        let covered = durable.checkpoint_lsn.max(live_wm.unwrap_or(Lsn::ZERO));
        if min_lsn > covered {
            if let Some(w) = self.first_page_write_after(covered, id)? {
                if min_lsn >= w {
                    return Err(Error::Unavailable(format!(
                        "degraded read of {id} would be stale: write at {w} past checkpoint \
                         coverage {covered}, floor {min_lsn}"
                    )));
                }
            }
        }
        let spec = self.partition_spec(partition);
        let off = (id.raw() - spec.base_page) * PAGE_SIZE as u64;
        let len = self.xstore.blob_len(durable.data_blob)?;
        if off + PAGE_SIZE as u64 > len {
            return Err(Error::NotFound(format!("{id} is beyond the checkpoint")));
        }
        let bytes = self.xstore.read_at(durable.data_blob, off, PAGE_SIZE)?;
        if bytes.iter().all(|&b| b == 0) {
            return Err(Error::NotFound(format!("{id} has never been checkpointed")));
        }
        let page = Page::from_io_bytes(id, &bytes)?;
        self.degraded_reads.incr();
        Ok(page)
    }

    /// First write to `id` strictly after `from` in the released log, if
    /// any. Backed by a one-shot index over the log tail, cached until
    /// either endpoint of the scanned window moves.
    fn first_page_write_after(&self, from: Lsn, id: PageId) -> Result<Option<Lsn>> {
        let released = self.xlog.released_lsn();
        let mut cache = self.degraded_index.lock();
        let valid = matches!(&*cache, Some(ix) if ix.from == from && ix.released == released);
        if !valid {
            let mut first_write_after: HashMap<PageId, Lsn> = HashMap::new();
            let pull = self.xlog.pull_blocks(from, usize::MAX, None)?;
            for block in &pull.blocks {
                for rec in block.records()? {
                    if rec.lsn <= from {
                        continue;
                    }
                    if let socrates_wal::record::LogPayload::PageWrite { page_id, .. } =
                        &rec.record.payload
                    {
                        first_write_after.entry(*page_id).or_insert(rec.lsn);
                    }
                }
            }
            *cache = Some(DegradedIndex { from, released, first_write_after });
        }
        Ok(cache.as_ref().expect("just built").first_write_after.get(&id).copied())
    }

    /// Pages served from XStore checkpoints while a partition had no
    /// reachable page server.
    pub fn degraded_read_count(&self) -> u64 {
        self.degraded_reads.get()
    }

    /// The minimum applied LSN across all page servers — the frontier the
    /// whole storage tier has caught up to (`None` with no partitions).
    pub fn min_applied_lsn(&self) -> Option<Lsn> {
        self.partitions
            .read()
            .values()
            .flat_map(|h| h.servers.iter())
            .map(|s| s.applied_lsn())
            .min()
    }

    /// The minimum checkpointed LSN across all page servers — the redo
    /// start point for checkpoint records.
    pub fn min_checkpointed_lsn(&self) -> Lsn {
        self.partitions
            .read()
            .values()
            .flat_map(|h| h.servers.iter())
            .map(|s| s.checkpointed_lsn())
            .min()
            .unwrap_or(Lsn::ZERO)
    }

    /// Wait until every page server has applied the log up to `lsn`:
    /// sleeps on each server's apply watermark in turn, which is exact
    /// because frontiers only move forward.
    pub fn wait_applied(&self, lsn: Lsn, timeout: std::time::Duration) -> Result<()> {
        let deadline = std::time::Instant::now() + timeout;
        let servers: Vec<Arc<PageServer>> =
            self.partitions.read().values().flat_map(|h| h.servers.iter().cloned()).collect();
        for s in servers {
            let left = deadline.saturating_duration_since(std::time::Instant::now());
            if s.wait_applied(lsn, left) < lsn {
                return Err(Error::Timeout(format!("page servers did not reach {lsn}")));
            }
        }
        Ok(())
    }

    /// Fork a copy-on-write branch of `partition` frozen at `at_lsn`
    /// (Socrates §4's "cheap copies" made literal): the branch shares the
    /// parent's immutable layer files and base image zero-copy and serves
    /// `GetPage(X, lsn ≤ at_lsn)` from them; writes applied to the branch
    /// via [`PageServer::ingest`] land in its own open L0 layers and are
    /// invisible to the parent. The branch is not wired into the XLOG
    /// feed or the RBIO route — it is a read/ingest handle.
    pub fn branch_partition(&self, partition: PartitionId, at_lsn: Lsn) -> Result<Arc<PageServer>> {
        let handle = self
            .partitions
            .read()
            .get(&partition)
            .cloned()
            .ok_or_else(|| Error::NotFound(format!("partition {partition} is not running")))?;
        // ordering: relaxed — index uniqueness needs only RMW atomicity
        let idx = self.next_ps_index.fetch_add(1, Ordering::Relaxed);
        let name = format!("branch-{}-{idx}", partition.raw());
        let node = NodeId::page_server(idx);
        let branch = PageServer::branch_from(&handle.servers[0], &name, at_lsn, self.wiring(node))?;
        branch.register_metrics(&self.hub, node);
        self.branches.lock().insert(idx, Arc::clone(&branch));
        Ok(branch)
    }

    /// Discard a branch created by
    /// [`branch_partition`](Self::branch_partition): stop its threads,
    /// drop it from the branch directory, and unregister its metrics node
    /// (whose gauge closures hold strong `Arc`s to the branch). Without
    /// this, every branch — and the parent layers it pins — would live
    /// for the fabric's lifetime. Returns `false` if `branch` is not a
    /// live branch of this fabric.
    pub fn drop_branch(&self, branch: &Arc<PageServer>) -> bool {
        let idx = {
            let mut branches = self.branches.lock();
            let Some(idx) = branches.iter().find_map(|(i, b)| Arc::ptr_eq(b, branch).then_some(*i))
            else {
                return false;
            };
            branches.remove(&idx);
            idx
        };
        branch.stop();
        self.hub.unregister_node(NodeId::page_server(idx));
        true
    }

    /// Shut down all page servers (branches included), the background
    /// compaction worker, and the XLOG destager.
    pub fn shutdown(&self) {
        for h in self.partitions.read().values() {
            for s in &h.servers {
                s.stop();
            }
        }
        for b in self.branches.lock().values() {
            b.stop();
        }
        self.compaction.stop();
        self.xlog.shutdown();
    }

    /// Assemble compute node `node`'s tiered cache: memory over (optional)
    /// RBPEX over GetPage@LSN, misses through the I/O scheduler when it is
    /// enabled, the deployment's span ring handed in, the cache's
    /// read-stage histograms and scheduler metrics registered under `node`.
    pub(crate) fn compute_cache(
        self: &Arc<Self>,
        node: NodeId,
        wal_flush: WalFlushHook,
        on_evict: EvictionListener,
    ) -> Result<Arc<TieredCache>> {
        let config = &self.config;
        let cpu = self.cpu.accountant(node);
        let rbpex = if config.rbpex_pages > 0 {
            // One latency stream per compute node's RBPEX device.
            let salt = match node.kind {
                NodeKind::Primary => 0x11,
                _ => 0x200 + node.index as u64,
            };
            let dev: Arc<dyn Fcb> = Arc::new(LatencyFcb::new(
                MemFcb::new(format!("{node}-rbpex")),
                LatencyInjector::new(
                    config.ssd_profile.clone(),
                    config.latency_mode,
                    config.seed ^ salt,
                ),
                Some(Arc::clone(&cpu)),
            ));
            let meta: Arc<dyn Fcb> = Arc::new(MemFcb::new(format!("{node}-rbpex-meta")));
            let policy = RbpexPolicy::Sparse { capacity_pages: config.rbpex_pages };
            Some(Arc::new(Rbpex::create(dev, meta, policy)?))
        } else {
            None
        };
        let source = Arc::new(RemotePageSource::new(Arc::clone(self), cpu, node));
        let spans = (Arc::clone(&self.spans), node);
        let cache = if config.sched.enabled {
            TieredCache::with_scheduler(
                config.mem_cache_pages,
                rbpex,
                source,
                wal_flush,
                on_evict,
                spans,
                config.sched.clone(),
            )
        } else {
            Arc::new(TieredCache::new(
                config.mem_cache_pages,
                rbpex,
                source,
                wal_flush,
                on_evict,
                spans,
            ))
        };
        for (stage, hist) in cache.read_stages().iter() {
            self.hub.register_histogram(
                node,
                &format!("read_stage_{}_us", stage.name()),
                Arc::clone(hist),
            );
        }
        if let Some(sched) = cache.scheduler() {
            sched.register_metrics(&self.hub, node);
        }
        Ok(cache)
    }

    fn ps_device(&self, name: &str, kind: &str, idx: u32) -> Arc<dyn Fcb> {
        Arc::new(LatencyFcb::new(
            MemFcb::new(format!("{name}-{kind}")),
            LatencyInjector::new(
                self.config.ssd_profile.clone(),
                self.config.latency_mode,
                self.config.seed ^ ((idx as u64) << 8) ^ kind.len() as u64,
            ),
            Some(self.cpu.accountant(NodeId::page_server(idx))),
        ))
    }

    fn wrap_servers(
        &self,
        servers: Vec<(NodeId, Arc<PageServer>)>,
    ) -> Result<Arc<PartitionHandle>> {
        let mut endpoints = Vec::with_capacity(servers.len());
        let mut clients = Vec::with_capacity(servers.len());
        for (i, (node, ps)) in servers.iter().enumerate() {
            ps.register_metrics(&self.hub, *node);
            let server = Arc::new(RbioServer::new(Arc::new(PageServerHandler::new(
                Arc::clone(ps),
                self.faults.clone(),
            ))));
            let net = NetworkConfig {
                profile: self.config.net_profile.clone(),
                mode: self.config.latency_mode,
                timeout: std::time::Duration::from_secs(15),
                retries: 2,
                seed: self.config.seed ^ (i as u64) ^ 0xBEEF,
                faults: self.faults.clone(),
                ..NetworkConfig::instant()
            };
            clients.push(server.connect(net));
            endpoints.push(server);
        }
        let (nodes, servers): (Vec<NodeId>, Vec<Arc<PageServer>>) = servers.into_iter().unzip();
        let route = Arc::new(ReplicaSet::with_hedging(
            clients,
            self.config.seed ^ 0x40Fu64,
            self.config.hedge.clone(),
        ));
        // Hedging telemetry lives under the partition's first server node.
        route.register_metrics(&self.hub, nodes[0]);
        Ok(Arc::new(PartitionHandle { route, endpoints, servers, nodes }))
    }
}

/// The compute tier's remote page source: GetPage@LSN over RBIO, routed to
/// the partition's best replica.
pub struct RemotePageSource {
    fabric: Arc<Fabric>,
    cpu: Arc<CpuAccountant>,
    /// The compute node the client-side `rbio.net` wire span is
    /// attributed to.
    node: NodeId,
}

impl RemotePageSource {
    /// A source for compute node `node`: its accountant pays the network
    /// driver cost and its wire spans are attributed to it.
    pub fn new(fabric: Arc<Fabric>, cpu: Arc<CpuAccountant>, node: NodeId) -> RemotePageSource {
        RemotePageSource { fabric, cpu, node }
    }

    fn route_for(&self, id: PageId) -> Result<Arc<PartitionHandle>> {
        let partition = self.fabric.partition_of(id);
        self.fabric
            .partition(partition)
            .ok_or_else(|| Error::Unavailable(format!("{partition} has no page server")))
    }

    /// Last-resort fallback after the RBIO path failed with `orig`: serve
    /// the page from the partition's XStore checkpoint (graceful
    /// degradation — availability survives total replica loss, at
    /// checkpoint freshness). If the checkpoint cannot satisfy the read
    /// either, the original — more diagnostic — error is returned.
    fn fetch_degraded(&self, id: PageId, min_lsn: Lsn, orig: Error) -> Result<(Page, FetchMeta)> {
        let t0 = std::time::Instant::now();
        match self.fabric.read_page_degraded(id, min_lsn) {
            Ok(page) => {
                let meta = FetchMeta {
                    net_ns: (t0.elapsed().as_nanos() as u64).max(1),
                    range_width: 1,
                    ..FetchMeta::default()
                };
                Ok((page, meta))
            }
            Err(_) => Err(orig),
        }
    }

    /// Degraded fill of a whole range segment, page by page. Any page the
    /// checkpoint cannot serve fails the segment with `orig`.
    fn fetch_segment_degraded(
        &self,
        cursor: u64,
        seg: u32,
        min_lsn: Lsn,
        pages: &mut Vec<Page>,
        orig: Error,
    ) -> Result<()> {
        for i in 0..seg as u64 {
            let id = PageId::new(cursor + i);
            match self.fabric.read_page_degraded(id, min_lsn) {
                Ok(p) => pages.push(p),
                Err(_) => return Err(orig),
            }
        }
        Ok(())
    }
}

impl RemotePageSource {
    /// Record the client-side `rbio.net` wire child for a sampled fetch
    /// that started at `start` (ring timebase); its `arg` is the call's
    /// hedge outcome.
    fn record_net_span(&self, ctx: TraceCtx, start: u64, call: &CallMeta) {
        let ring = &self.fabric.spans;
        ring.record(SpanEvent {
            trace_id: ctx.trace_id,
            span_id: ring.next_span_id(),
            parent_id: ctx.span_id,
            kind: SpanKind::RbioNet,
            node: self.node,
            start_ns: start,
            dur_ns: ring.now_ns().saturating_sub(start),
            arg: match (call.hedge_fired, call.hedge_won) {
                (_, true) => HEDGE_WON,
                (true, false) => HEDGE_LOST,
                (false, false) => 0,
            },
        });
    }

    /// The minting single-page fetch body: `ctx` is the GetPage root
    /// identity ([`TraceCtx::NONE`] when unsampled). The root span itself
    /// is closed by the *cache* (it sees the full miss duration) from the
    /// ids stamped into the returned meta.
    fn fetch_page_traced_ctx(
        &self,
        id: PageId,
        min_lsn: Lsn,
        ctx: TraceCtx,
    ) -> Result<(Page, FetchMeta)> {
        let handle = match self.route_for(id) {
            Ok(h) => h,
            // No partition handle at all (killed, not yet restarted):
            // degrade straight to the checkpoint.
            Err(e) => return self.fetch_degraded(id, min_lsn, e),
        };
        self.cpu.charge_us(8);
        let net_start = if ctx.sampled() { Some(self.fabric.spans.now_ns()) } else { None };
        let t0 = std::time::Instant::now();
        let (resp, call) = match handle.route.call_traced_ctx(
            socrates_rbio::proto::RbioRequest::GetPage { page_id: id, min_lsn },
            ctx,
        ) {
            Ok(v) => v,
            // Transient exhaustion (every replica timed out / refused):
            // degrade rather than fail the fetch chain. Hard errors
            // (NotFound, InvalidArgument, ...) propagate untouched.
            Err(e) if e.is_transient() => return self.fetch_degraded(id, min_lsn, e),
            Err(e) => return Err(e),
        };
        let elapsed_ns = t0.elapsed().as_nanos() as u64;
        if let Some(start) = net_start {
            self.record_net_span(ctx, start, &call);
        }
        match resp {
            socrates_rbio::proto::RbioResponse::Page { bytes, serve_us } => {
                let serve_ns = serve_us.saturating_mul(1_000);
                let meta = FetchMeta {
                    net_ns: elapsed_ns.saturating_sub(serve_ns).max(1),
                    serve_ns,
                    range_width: 1,
                    root: ctx,
                    ..FetchMeta::default()
                };
                Page::from_io_bytes(id, &bytes).map(|page| (page, meta))
            }
            other => Err(Error::Protocol(format!("unexpected GetPage response: {other:?}"))),
        }
    }
}

impl PageSource for RemotePageSource {
    fn fetch_page(&self, id: PageId, min_lsn: Lsn) -> Result<Page> {
        self.fetch_page_traced(id, min_lsn).map(|(page, _)| page)
    }

    fn fetch_page_traced(&self, id: PageId, min_lsn: Lsn) -> Result<(Page, FetchMeta)> {
        let ctx = self.fabric.spans.try_sample().unwrap_or(TraceCtx::NONE);
        self.fetch_page_traced_ctx(id, min_lsn, ctx)
    }
}

impl RangedPageSource for RemotePageSource {
    /// Batched GetPageRange, split at partition boundaries so each segment
    /// goes to the page server that owns it (the scheduler's coalescer does
    /// not know the partition map).
    fn fetch_page_range(&self, first: PageId, count: u32, min_lsn: Lsn) -> Result<Vec<Page>> {
        self.fetch_page_range_traced(first, count, min_lsn).map(|(pages, _)| pages)
    }

    fn fetch_page_range_traced(
        &self,
        first: PageId,
        count: u32,
        min_lsn: Lsn,
    ) -> Result<(Vec<Page>, FetchMeta)> {
        let mut pages = Vec::with_capacity(count as usize);
        // One meta covers the whole range: serve time sums over segments
        // and the caller charges wall-clock minus serve as the network
        // stage. One trace ctx likewise — the whole range is one GetPage
        // root, with an `rbio.net` child (carrying that call's hedge
        // outcome) per wire call.
        let ctx = self.fabric.spans.try_sample().unwrap_or(TraceCtx::NONE);
        let mut meta = FetchMeta { range_width: count, root: ctx, ..FetchMeta::default() };
        let t0 = std::time::Instant::now();
        let end = first.raw() + count as u64;
        let mut cursor = first.raw();
        while cursor < end {
            let span = self.fabric.config.pages_per_partition;
            let partition_end = (cursor / span + 1) * span;
            let seg = (end.min(partition_end) - cursor) as u32;
            self.cpu.charge_us(8 + seg as u64 / 4);
            if seg == 1 {
                // The single-page path degrades internally.
                let (page, one) = self.fetch_page_traced_ctx(PageId::new(cursor), min_lsn, ctx)?;
                meta.serve_ns += one.serve_ns;
                pages.push(page);
            } else {
                match self.route_for(PageId::new(cursor)) {
                    Err(e) if e.is_transient() => {
                        self.fetch_segment_degraded(cursor, seg, min_lsn, &mut pages, e)?;
                    }
                    Err(e) => return Err(e),
                    Ok(handle) => {
                        let req = socrates_rbio::proto::RbioRequest::GetPageRange {
                            first: PageId::new(cursor),
                            count: seg,
                            min_lsn,
                        };
                        let net_start =
                            if ctx.sampled() { Some(self.fabric.spans.now_ns()) } else { None };
                        match handle.route.call_traced_ctx(req, ctx) {
                            Err(e) if e.is_transient() => {
                                self.fetch_segment_degraded(cursor, seg, min_lsn, &mut pages, e)?;
                            }
                            Err(e) => return Err(e),
                            Ok((resp, call)) => {
                                if let Some(start) = net_start {
                                    self.record_net_span(ctx, start, &call);
                                }
                                match resp {
                                    socrates_rbio::proto::RbioResponse::PageRange {
                                        pages: raw,
                                        serve_us,
                                    } => {
                                        if raw.len() != seg as usize {
                                            return Err(Error::Protocol(format!(
                                                "GetPageRange returned {} pages, expected {seg}",
                                                raw.len()
                                            )));
                                        }
                                        meta.serve_ns += serve_us.saturating_mul(1_000);
                                        for (i, bytes) in raw.iter().enumerate() {
                                            pages.push(Page::from_io_bytes(
                                                PageId::new(cursor + i as u64),
                                                bytes,
                                            )?);
                                        }
                                    }
                                    other => {
                                        return Err(Error::Protocol(format!(
                                            "unexpected GetPageRange response: {other:?}"
                                        )))
                                    }
                                }
                            }
                        }
                    }
                }
            }
            cursor += seg as u64;
        }
        let elapsed_ns = t0.elapsed().as_nanos() as u64;
        meta.net_ns = elapsed_ns.saturating_sub(meta.serve_ns).max(1);
        Ok((pages, meta))
    }
}

/// Read-only page access over a [`RemotePageSource`]-backed cache, for
/// tools that inspect pages without an engine (diagnostics).
pub struct DirectFabricAccess {
    source: RemotePageSource,
}

impl DirectFabricAccess {
    /// Build one.
    pub fn new(fabric: Arc<Fabric>) -> DirectFabricAccess {
        let cpu = fabric.cpu.accountant(NodeId::client(0));
        DirectFabricAccess { source: RemotePageSource::new(fabric, cpu, NodeId::PRIMARY) }
    }
}

impl PageAccess for DirectFabricAccess {
    fn page(&self, id: PageId) -> Result<PageRef> {
        let page = self.source.fetch_page(id, Lsn::ZERO)?;
        Ok(Arc::new(parking_lot::RwLock::new(page)))
    }
}

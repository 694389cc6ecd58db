//! The workspace lock-rank table.
//!
//! Every long-lived lock is constructed with
//! `parking_lot::Mutex::with_rank` / `RwLock::with_rank` using a constant
//! from this module. In debug builds the shim panics when a thread's
//! blocking acquisitions do not strictly increase in rank — the runtime
//! enforcement of the acquisition order that `soclint`'s `lock-order`
//! rule checks statically (run `soclint --edges` for the live graph).
//!
//! Rank bands follow the **call graph by acquisition depth**: a tier may
//! call into any band with a *higher* rank while holding its own locks,
//! never the reverse. Note this is not the paper's tier order — it is
//! who-holds-while-calling-whom, measured by running the suites with the
//! checker on. The load-bearing chains:
//!
//! ```text
//! deployment → fabric → engine → wal flush → xlog → LZ/xstore
//! engine → rbpex.dir → evicted buckets   (an eviction's spill, no cache lock)
//! pageserver.open → layermap; checkpoint → xstore (seal, ship)
//! any of the above → watermark                  (advance / wait, a leaf)
//! ```
//!
//! | band | locks |
//! |------|------------------------------------------|
//! | 100s | core (deployment slots, fabric, secondaries) |
//! | 200s | engine (catalog, txn, io, version, btree)    |
//! | 300s | pageserver (apply, checkpoint, handles)      |
//! | 500s | storage (scheduler, cache, rbpex)            |
//! | 600s | wal pipeline, then hadr (660s, shipped to from the pipeline) |
//! | 700s | xlog (710s), then the landing zone (750s, written from xlog) |
//! | 800s | rbio (replication transport)                 |
//! | 900s | xstore (page store service)                  |
//! | 1000s| common leaves (fault registry, obs, watermark) |
//!
//! Fine-grained, dynamically created locks — per-page latches
//! (`PageRef`), per-fetch pendings, per-rule RNGs, per-blob FCBs — stay
//! *unranked* (rank 0, the `new()` default): they are never nested
//! against each other and ranking them would impose a global order on
//! objects whose population changes at runtime. The `MetricsHub`
//! registry lock is also deliberately unranked: `snapshot()` runs
//! caller-supplied sampling closures under its read guard, so its
//! effective position in the order depends on what those closures lock;
//! it is kept a leaf by review (closures must only read atomics).

// --- core (100s) ------------------------------------------------------
// Deployment-level slots are the *outermost* acquisitions (failover and
// restart paths hold them while driving the whole stack), so they sit at
// the bottom of the band.
/// `core::deployment::Socrates.primary` — the primary slot.
pub const CORE_DEPLOYMENT_PRIMARY: u32 = 101;
/// `core::deployment` secondary list (shared `SecondaryList`).
pub const CORE_DEPLOYMENT_SECONDARIES: u32 = 102;
/// `core::obs::LagWatcher.handle` — watcher join handle.
pub const CORE_LAG_WATCHER_HANDLE: u32 = 150;
/// `core::secondary` apply-loop join handle.
pub const CORE_SECONDARY_APPLY_HANDLE: u32 = 165;

// --- engine (200s) ----------------------------------------------------
/// `engine::db::Database.catalog` — table catalog. Held across table
/// create/open, which allocates pages (the allocate hook upcalls into the
/// fabric's 300s band).
pub const ENGINE_CATALOG: u32 = 205;
/// `engine::txn::TxnManager.prepare_mutex` — commit-prepare serializer.
pub const ENGINE_TXN_PREPARE: u32 = 210;
/// `engine::txn::TxnManager.table` — live transaction table.
pub const ENGINE_TXN_TABLE: u32 = 220;
/// `engine::txn::TxnManager.aborted_map` — aborted-txn set.
pub const ENGINE_TXN_ABORTED: u32 = 230;
/// `engine::btree::BTree.lock` — tree structure latch. Held across node
/// splits, which allocate pages (same upcall).
pub const ENGINE_BTREE: u32 = 235;
/// `engine::version::VersionStore.current` — current version slot. Held
/// across version-page allocation (same upcall).
pub const ENGINE_VERSION_CURRENT: u32 = 238;
/// `engine::io::MemIo.pages` — in-memory page store map.
pub const ENGINE_MEM_PAGES: u32 = 290;

// --- fabric partition directory (300s, below pageserver) --------------
// These live in `core` but are acquired *beneath* engine locks: the
// engine's allocate hook upcalls into `Fabric::ensure_partition` while
// the caller holds `db.catalog`. They stay below the pageserver band
// because ensure/kill/restart hold them while starting and stopping
// page servers.
/// `core::fabric::Fabric.partitions` — partition handle map.
pub const CORE_FABRIC_PARTITIONS: u32 = 300;
/// `core::fabric::Fabric.partition_blobs` — partition blob directory.
pub const CORE_FABRIC_PARTITION_BLOBS: u32 = 304;
/// `core::fabric::Fabric.degraded_index` — degraded-secondary marker.
pub const CORE_FABRIC_DEGRADED: u32 = 308;
/// `core::fabric::Fabric.branches` — copy-on-write branch directory.
pub const CORE_FABRIC_BRANCHES: u32 = 306;

// --- pageserver (300s) ------------------------------------------------
// Below storage and xstore: apply holds `open` while publishing a sealed
// layer into the layer map, and the checkpoint / compaction gates are held
// while materializing pages through the layer map and writing to XStore.
/// `pageserver::PageServer.checkpoint_lock` — single-checkpointer gate.
pub const PS_CHECKPOINT: u32 = 310;
/// `pageserver::PageServer.compact_lock` — single-compactor gate (held
/// while materializing pages through the layer map, hence below it).
pub const PS_COMPACT: u32 = 312;
/// `pageserver::PageServer.dirty` — dirty page → newest applied LSN.
pub const PS_DIRTY: u32 = 330;
/// `pageserver::PageServer.open` — the open (unsealed) L0 delta layer.
pub const PS_OPEN_LAYER: u32 = 335;
/// `pageserver::PageServer.apply_handle` — apply worker handle.
pub const PS_APPLY_HANDLE: u32 = 350;
/// `pageserver::PageServer.ckpt_handle` — checkpoint worker handle.
pub const PS_CKPT_HANDLE: u32 = 360;
/// `pageserver::PageServer.seed_handle` — seeding worker handle.
pub const PS_SEED_HANDLE: u32 = 370;
/// `pageserver::CompactionWorker.live` — task channel + worker handle
/// (a leaf: held only across a non-blocking channel send).
pub const PS_COMPACTOR: u32 = 380;

// --- secondary fetch dedup (400s, below storage) ----------------------
/// `core::secondary::PendingFetches.map` — in-flight page fetches.
/// Lives in `core` but is consulted on the secondary read path *under*
/// engine locks (btree descent → cache miss → fetch dedup), so it ranks
/// between the engine and storage bands.
pub const CORE_SECONDARY_PENDING: u32 = 450;

// --- storage (500s) ---------------------------------------------------
/// `storage::sched::IoScheduler.inflight` — pages on the wire. The
/// background thread holds it while it checks `cache.mem` for the pages of
/// a prefetch run.
pub const STORAGE_SCHED_INFLIGHT: u32 = 510;
/// `storage::sched::IoScheduler.q` — the background thread's hints and
/// wake-up flags.
pub const STORAGE_SCHED_QUEUE: u32 = 520;
/// `storage::layermap::LayerMap.inner` — the layer index (images + delta
/// layers). Held only to snapshot/swap `Arc`'d layers; all page I/O
/// against a layer's backing store happens after release, so it sits
/// above the pageserver band and below the rbpex directory.
pub const STORAGE_LAYERMAP: u32 = 545;
/// `storage::cache::TieredCache.mem` — memory-tier map, clock and frame
/// reservations. Held only to choose, re-check and remove a victim; the
/// spill between (RBPEX write, WAL flush, eviction listener) runs with it
/// released.
pub const STORAGE_CACHE_MEM: u32 = 550;
/// `storage::rbpex::Rbpex.dir` — the compute node's resilient-cache
/// directory.
pub const STORAGE_RBPEX_DIR: u32 = 570;
/// `engine::evicted::EvictedLsnMap.buckets` — eviction LSN buckets.
/// Lives in `engine` but is updated from the cache's eviction listener
/// *while `rbpex.dir` is held* (an RBPEX victim is noted before it leaves
/// the directory), so it ranks just above it.
pub const ENGINE_EVICTED_BUCKETS: u32 = 580;

// --- wal pipeline (600s) ----------------------------------------------
/// `wal::pipeline::LogPipeline.flush_lock` — single-flusher gate.
pub const WAL_FLUSH_LOCK: u32 = 605;
/// `wal::pipeline::LogPipeline.buf` — append buffer.
pub const WAL_BUF: u32 = 610;
/// `wal::pipeline::LogPipeline.window` — the in-flight window: blocks
/// submitted to the sink and not yet hardened, in LSN order. Held to
/// record a write's outcome and drain the completed prefix (the LZ's
/// in-order head advance and the `hardened` watermark happen under it),
/// never across a device wait.
pub const WAL_UNFLUSHED: u32 = 620;

// --- hadr (660s) ------------------------------------------------------
/// `hadr::Hadr.retained` — retained-page list for failback.
pub const HADR_RETAINED: u32 = 660;
/// `hadr::Replica.handle` — replica worker handle.
pub const HADR_HANDLE: u32 = 670;
/// `hadr::Hadr.rng` — failover jitter RNG.
pub const HADR_RNG: u32 = 680;
/// `hadr::ReplicaStore.pages` — replica page map.
pub const HADR_REPLICA_PAGES: u32 = 690;

// --- xlog (700s) ------------------------------------------------------
/// `xlog::service::XLogService.broker` — block broker state (held while
/// writing to the landing zone, hence below the LZ band).
pub const XLOG_BROKER: u32 = 710;
/// `xlog::service::XLogService.destager` — destager worker slot.
pub const XLOG_DESTAGER: u32 = 730;

// --- wal quorum log (740s) --------------------------------------------
// The quorum tier sits between xlog (700s, truncates it while holding
// the broker lock) and the landing zone band: the proposer's locks are
// taken on the pipeline's harden path and while campaigning, and the
// per-acceptor state lock is the innermost (taken by replication
// workers). Acceptor state locks are never nested against each other —
// catch-up reads the donor's block, releases, then appends to the
// laggard.
/// `wal::quorum::QuorumLog.write_gate` — single-writer append gate.
pub const WAL_QUORUM_WRITE: u32 = 740;
/// `wal::quorum::QuorumLog.state` — proposer term/history/head.
pub const WAL_QUORUM_STATE: u32 = 742;
/// `wal::quorum::QuorumLog.worker_handles` — replication worker handles.
pub const WAL_QUORUM_WORKERS: u32 = 744;
/// `wal::quorum::Acceptor.state` — per-acceptor log + term state.
pub const WAL_ACCEPTOR_STATE: u32 = 746;

// --- wal landing zone (750s) ------------------------------------------
/// `wal::landing_zone::LandingZone.state` — LZ head/tail watermarks.
pub const WAL_LZ_STATE: u32 = 760;

// --- rbio (800s) ------------------------------------------------------
/// `rbio::replica::ReplicaSet.states` — per-replica delivery states.
pub const RBIO_REPLICA_STATES: u32 = 850;
/// `rbio::transport::RbioClient.rng` — loss/delay decision RNG.
pub const RBIO_TRANSPORT_RNG: u32 = 860;

// --- xstore (900s) ----------------------------------------------------
/// `xstore::service::XStore.inner` — blob map + version index.
pub const XSTORE_INNER: u32 = 910;

// --- common leaves (1000s) --------------------------------------------
/// `common::fault::FaultRegistry.sites` — fault-site table (every tier
/// calls `check` under its own locks, so this must outrank them all).
pub const COMMON_FAULT_SITES: u32 = 1010;
/// `common::fault::FaultRegistry.hub` — bound metrics hub slot.
pub const COMMON_FAULT_HUB: u32 = 1020;
/// `common::fault::FaultRegistry.log` — injection log.
pub const COMMON_FAULT_LOG: u32 = 1030;
/// `common::obs::history::HubHistory.ring` — retained hub snapshots.
/// The hub snapshot itself runs *before* this lock is taken, so the
/// ring stays a leaf below every sampling closure's own locks.
pub const COMMON_OBS_HISTORY: u32 = 1060;
/// `common::lsn::Watermark.wakes` — the wake mutex of every LSN frontier
/// a thread can sleep on. The outermost leaf: frontiers are advanced
/// under their tier's own locks (`xlog.broker`, the pipeline flush lock)
/// and waited on under engine latches, and nothing is taken beneath it.
pub const COMMON_WATERMARK: u32 = 1090;

#[cfg(test)]
mod tests {
    #[test]
    fn ranks_are_unique() {
        let all: &[u32] = &[
            super::CORE_DEPLOYMENT_PRIMARY,
            super::CORE_DEPLOYMENT_SECONDARIES,
            super::CORE_FABRIC_PARTITIONS,
            super::CORE_FABRIC_PARTITION_BLOBS,
            super::CORE_FABRIC_DEGRADED,
            super::CORE_FABRIC_BRANCHES,
            super::CORE_LAG_WATCHER_HANDLE,
            super::CORE_SECONDARY_PENDING,
            super::CORE_SECONDARY_APPLY_HANDLE,
            super::ENGINE_CATALOG,
            super::ENGINE_TXN_PREPARE,
            super::ENGINE_TXN_TABLE,
            super::ENGINE_TXN_ABORTED,
            super::ENGINE_VERSION_CURRENT,
            super::ENGINE_BTREE,
            super::ENGINE_MEM_PAGES,
            super::ENGINE_EVICTED_BUCKETS,
            super::PS_CHECKPOINT,
            super::PS_COMPACT,
            super::PS_DIRTY,
            super::PS_OPEN_LAYER,
            super::PS_APPLY_HANDLE,
            super::PS_CKPT_HANDLE,
            super::PS_SEED_HANDLE,
            super::PS_COMPACTOR,
            super::STORAGE_SCHED_INFLIGHT,
            super::STORAGE_SCHED_QUEUE,
            super::STORAGE_LAYERMAP,
            super::STORAGE_CACHE_MEM,
            super::STORAGE_RBPEX_DIR,
            super::WAL_FLUSH_LOCK,
            super::WAL_BUF,
            super::WAL_UNFLUSHED,
            super::HADR_RETAINED,
            super::HADR_HANDLE,
            super::HADR_RNG,
            super::HADR_REPLICA_PAGES,
            super::XLOG_BROKER,
            super::XLOG_DESTAGER,
            super::WAL_LZ_STATE,
            super::RBIO_REPLICA_STATES,
            super::RBIO_TRANSPORT_RNG,
            super::XSTORE_INNER,
            super::COMMON_FAULT_SITES,
            super::COMMON_FAULT_HUB,
            super::COMMON_FAULT_LOG,
            super::COMMON_OBS_HISTORY,
            super::COMMON_WATERMARK,
        ];
        let mut sorted = all.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), all.len(), "duplicate rank constant");
        assert!(all.iter().all(|&r| r > 0), "rank 0 is reserved for unranked locks");
    }
}

//! Deployment orchestration: launch, failover, scaling, backup, PITR.
//!
//! These are the distributed workflows of the paper's §5–6 and §4.7,
//! built from the mini-services' autonomy: compute nodes and page servers
//! are stateless, so every workflow reduces to "spin up a node and point
//! it at the fabric" — nothing here moves data proportional to database
//! size except PITR's log replay, which is proportional to the log range
//! being recovered (as in the paper).

use crate::config::SocratesConfig;
use crate::fabric::{Fabric, ServerOrigin};
use crate::obs::{LagWatcher, SecondaryList};
use crate::primary::Primary;
use crate::secondary::Secondary;
use parking_lot::RwLock;
use socrates_common::lock_rank;
use socrates_common::obs::MetricsHub;
use socrates_common::{BlobId, Error, Lsn, PartitionId, Result};
use socrates_engine::recovery::Analyzer;
use socrates_engine::TxnManager;
use socrates_xlog::XLogService;
use socrates_xstore::SnapshotId;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// A point-in-time-restorable backup: one snapshot per partition plus the
/// location of the log archive.
#[derive(Clone, Debug)]
pub struct BackupDescriptor {
    /// Per-partition `(partition, snapshot, consistent-at LSN)`.
    pub partitions: Vec<(PartitionId, SnapshotId, Lsn)>,
    /// The long-term log archive this backup replays from.
    pub lt_blob: BlobId,
    /// First LSN in the archive.
    pub lt_base: Lsn,
    /// The log frontier when the backup was taken; restoring to this LSN
    /// reproduces the moment of the backup.
    pub backup_lsn: Lsn,
}

/// A running Socrates deployment.
pub struct Socrates {
    fabric: Arc<Fabric>,
    primary: RwLock<Option<Arc<Primary>>>,
    secondaries: SecondaryList,
    next_secondary: AtomicU32,
    restore_nonce: AtomicU32,
    watcher: LagWatcher,
}

impl Socrates {
    /// Launch a fresh deployment: fabric, a bootstrapped primary, and the
    /// configured number of secondaries.
    pub fn launch(config: SocratesConfig) -> Result<Socrates> {
        let n_secondaries = config.secondaries;
        let fabric = Fabric::new(config)?;
        let primary = Primary::bootstrap(Arc::clone(&fabric))?;
        let secondaries: SecondaryList = Arc::new(RwLock::with_rank(
            Vec::new(),
            lock_rank::CORE_DEPLOYMENT_SECONDARIES,
            "deployment.secondaries",
        ));
        let watcher = LagWatcher::start(Arc::clone(&fabric), Arc::clone(&secondaries));
        let deployment = Socrates {
            fabric,
            primary: RwLock::with_rank(
                Some(primary),
                lock_rank::CORE_DEPLOYMENT_PRIMARY,
                "deployment.primary",
            ),
            secondaries,
            next_secondary: AtomicU32::new(0),
            restore_nonce: AtomicU32::new(0),
            watcher,
        };
        for _ in 0..n_secondaries {
            deployment.add_secondary()?;
        }
        Ok(deployment)
    }

    /// The storage fabric (metrics, failure injection).
    pub fn fabric(&self) -> &Arc<Fabric> {
        &self.fabric
    }

    /// The deployment-wide metrics hub (every tier registers here).
    pub fn hub(&self) -> &MetricsHub {
        &self.fabric.hub
    }

    /// The current primary.
    pub fn primary(&self) -> Result<Arc<Primary>> {
        self.primary
            .read()
            .clone()
            .ok_or_else(|| Error::Unavailable("no primary (failed over?)".into()))
    }

    /// Secondary `i`.
    pub fn secondary(&self, i: usize) -> Result<Arc<Secondary>> {
        self.secondaries
            .read()
            .get(i)
            .cloned()
            .ok_or_else(|| Error::NotFound(format!("secondary {i}")))
    }

    /// Number of running secondaries.
    pub fn secondary_count(&self) -> usize {
        self.secondaries.read().len()
    }

    // ---- workflows ----

    /// Kill the primary (crash injection). No data is lost: compute is
    /// stateless. The dead node submits no more log; writes it left on the
    /// devices are fenced by the next [`failover`](Self::failover).
    pub fn kill_primary(&self) {
        if let Some(dead) = self.primary.write().take() {
            dead.pipeline().close();
        }
        // A dead node must not keep reporting: free its metric names so
        // the replacement primary's registrations are not dropped by the
        // hub's keep-first duplicate rule.
        self.fabric.unregister_primary_process_metrics();
    }

    /// Bring up a replacement primary (ADR analysis-only recovery). Any
    /// number of page servers keep serving throughout.
    pub fn failover(&self) -> Result<Arc<Primary>> {
        // Idempotent with kill_primary's unregister; covers a failover
        // issued while the old primary is still installed.
        self.fabric.unregister_primary_process_metrics();
        if let Some(old) = self.primary.write().take() {
            old.pipeline().close();
        }
        let new_primary = Primary::recover(Arc::clone(&self.fabric))?;
        *self.primary.write() = Some(Arc::clone(&new_primary));
        Ok(new_primary)
    }

    /// Add a read-only secondary (scale-out). O(1) in database size: the
    /// node starts with a cold cache and warms on demand.
    pub fn add_secondary(&self) -> Result<usize> {
        // ordering: relaxed — index uniqueness needs only RMW atomicity
        let index = self.next_secondary.fetch_add(1, Ordering::Relaxed);
        let start = self.fabric.xlog.released_lsn();
        let sec = Secondary::launch(Arc::clone(&self.fabric), index, start)?;
        let mut secs = self.secondaries.write();
        secs.push(sec);
        Ok(secs.len() - 1)
    }

    /// Remove secondary `i` (scale-in).
    pub fn remove_secondary(&self, i: usize) -> Result<()> {
        let mut secs = self.secondaries.write();
        if i >= secs.len() {
            return Err(Error::NotFound(format!("secondary {i}")));
        }
        let sec = secs.remove(i);
        sec.stop();
        Ok(())
    }

    /// Promote secondary `i` to primary (planned failover): stop its apply
    /// loop, then run the standard recovery path.
    pub fn promote_secondary(&self, i: usize) -> Result<Arc<Primary>> {
        {
            let mut secs = self.secondaries.write();
            if i >= secs.len() {
                return Err(Error::NotFound(format!("secondary {i}")));
            }
            let sec = secs.remove(i);
            sec.stop();
        }
        self.failover()
    }

    /// Checkpoint the whole deployment: page servers ship dirty pages,
    /// then the primary writes the checkpoint record.
    pub fn checkpoint(&self) -> Result<Lsn> {
        for p in self.fabric.partition_ids() {
            if let Some(h) = self.fabric.partition(p) {
                for s in &h.servers {
                    s.checkpoint()?;
                }
            }
        }
        self.primary()?.checkpoint()
    }

    /// Take a full backup: constant-time snapshots of every partition plus
    /// the log location. Runs no compute-tier I/O proportional to data.
    pub fn backup(&self) -> Result<BackupDescriptor> {
        let mut partitions = Vec::new();
        let mut backup_lsn = Lsn::ZERO;
        for p in self.fabric.partition_ids() {
            let h = self.fabric.partition(p).expect("listed partition");
            let (snap, lsn) = h.servers[0].backup()?;
            backup_lsn = backup_lsn.max(lsn);
            partitions.push((p, snap, lsn));
        }
        let (lt_blob, lt_base) = self.fabric.xlog.lt_location();
        Ok(BackupDescriptor { partitions, lt_blob, lt_base, backup_lsn })
    }

    /// Ensure the long-term archive covers the log up to `lsn` (PITR can
    /// only restore what has been destaged).
    pub fn wait_destaged(&self, lsn: Lsn, timeout: Duration) -> Result<()> {
        let destaged = self.fabric.xlog.wait_destaged(lsn, timeout);
        if destaged < lsn {
            return Err(Error::Timeout(format!("LT archive stuck at {destaged} < {lsn}")));
        }
        Ok(())
    }

    /// Point-in-time restore (paper §4.7): copy the backup's snapshots to
    /// new blobs (constant time), attach fresh page servers, replay the
    /// archived log to exactly `target_lsn`, and bring up a new primary.
    /// Returns a brand-new deployment sharing the same XStore service.
    pub fn restore_pitr(&self, backup: &BackupDescriptor, target_lsn: Lsn) -> Result<Socrates> {
        if target_lsn < backup.backup_lsn {
            return Err(Error::InvalidArgument(format!(
                "PITR target {target_lsn} predates the backup ({})",
                backup.backup_lsn
            )));
        }
        self.wait_destaged(target_lsn, Duration::from_secs(30))?;
        // ordering: relaxed — nonce uniqueness needs only RMW atomicity
        let nonce = self.restore_nonce.fetch_add(1, Ordering::Relaxed);
        let tag = format!("restore{nonce}");

        // The restored deployment: fresh LZ/XLOG starting at the target
        // LSN, sharing the existing XStore.
        let mut config = self.fabric.config.clone();
        config.secondaries = 0;
        let new_fabric = Fabric::new_restored(
            config,
            target_lsn,
            Arc::clone(&self.fabric.xstore),
            &format!("xlog/lt-{tag}"),
        )?;

        // Read the archived log once: the whole range needed for both
        // analysis (transaction table) and page replay.
        let blocks = XLogService::read_lt_range(
            &self.fabric.xstore,
            backup.lt_blob,
            backup.lt_base,
            backup.lt_base,
            target_lsn,
        )?;

        // Restore each partition: snapshot → new blob → attach → replay.
        for (pid, snap, part_lsn) in &backup.partitions {
            let data = self
                .fabric
                .xstore
                .restore_snapshot(*snap, &format!("data/{tag}-p{}", pid.raw()))?;
            let meta =
                self.fabric.xstore.create_blob(&format!("data/{tag}-p{}.meta", pid.raw()))?;
            self.fabric.xstore.write_at(meta, 0, &part_lsn.offset().to_le_bytes())?;
            let server = new_fabric.spawn_server(
                *pid,
                ServerOrigin::Blobs { data, meta, replay: Some((&blocks, target_lsn)) },
            )?;
            new_fabric.install_partition(*pid, vec![server])?;
        }

        // Analysis over the restored range for the new primary's
        // transaction table, folded block by block.
        let tm = Arc::new(TxnManager::new());
        let mut analyzer = Analyzer::new(&tm);
        for b in &blocks {
            for rec in b.records()? {
                if rec.lsn < target_lsn {
                    analyzer.feed(&rec)?;
                }
            }
        }
        let analysis = analyzer.into_analysis();
        let primary =
            Primary::with_state(Arc::clone(&new_fabric), tm, analysis.next_page_id, target_lsn)?;
        new_fabric.last_checkpoint.store(target_lsn);

        let secondaries: SecondaryList = Arc::new(RwLock::with_rank(
            Vec::new(),
            lock_rank::CORE_DEPLOYMENT_SECONDARIES,
            "deployment.secondaries",
        ));
        let watcher = LagWatcher::start(Arc::clone(&new_fabric), Arc::clone(&secondaries));
        Ok(Socrates {
            fabric: new_fabric,
            primary: RwLock::with_rank(
                Some(primary),
                lock_rank::CORE_DEPLOYMENT_PRIMARY,
                "deployment.primary",
            ),
            secondaries,
            next_secondary: AtomicU32::new(0),
            restore_nonce: AtomicU32::new(0),
            watcher,
        })
    }

    /// Stop every component. The watcher goes first so no sampler touches
    /// tiers that are being torn down.
    pub fn shutdown(&self) {
        self.watcher.stop();
        for s in self.secondaries.write().drain(..) {
            s.stop();
        }
        *self.primary.write() = None;
        self.fabric.shutdown();
    }
}

impl Drop for Socrates {
    fn drop(&mut self) {
        self.shutdown();
        // Hub closures hold components that hold the fabric; releasing
        // them lets the deployment's threads and memory go with it.
        self.fabric.hub.clear();
    }
}

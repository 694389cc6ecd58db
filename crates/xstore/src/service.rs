//! The XStore service: named blobs, snapshots, latency, and outages.

use crate::blob::{Blob, SnapshotId};
use parking_lot::RwLock;
use socrates_common::fault::{sites, FaultOutcome, FaultRegistry};
use socrates_common::latency::{DeviceProfile, LatencyInjector};
use socrates_common::metrics::Counter;
use socrates_common::{BlobId, Error, Result};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// Service configuration.
#[derive(Clone)]
pub struct XStoreConfig {
    /// Device latency profile (HDD-class by default), waited out in real
    /// time.
    pub profile: DeviceProfile,
    /// RNG seed for the latency model.
    pub seed: u64,
}

impl XStoreConfig {
    /// Zero-latency configuration for unit tests.
    pub fn instant() -> XStoreConfig {
        XStoreConfig { profile: DeviceProfile::instant(), seed: 0 }
    }

    /// The calibrated HDD-class profile, waited out in real time.
    pub fn realistic(seed: u64) -> XStoreConfig {
        XStoreConfig { profile: DeviceProfile::xstore(), seed }
    }
}

/// Operation counters.
#[derive(Debug, Default)]
pub struct XStoreMetrics {
    /// Bytes read from blobs.
    pub bytes_read: Counter,
    /// Bytes written to blobs.
    pub bytes_written: Counter,
    /// Snapshots taken.
    pub snapshots_taken: Counter,
    /// Snapshots restored into new blobs.
    pub snapshots_restored: Counter,
    /// Operations rejected because the service was offline.
    pub outage_rejections: Counter,
}

struct Inner {
    blobs: HashMap<BlobId, Blob>,
    names: HashMap<String, BlobId>,
    snapshots: HashMap<SnapshotId, Blob>,
}

/// The simulated Azure Storage service. One instance per deployment;
/// shared by page servers (checkpoints/backups) and XLOG (long-term log).
pub struct XStore {
    inner: RwLock<Inner>,
    next_blob: AtomicU64,
    next_snapshot: AtomicU64,
    available: AtomicBool,
    latency: LatencyInjector,
    metrics: XStoreMetrics,
    faults: FaultRegistry,
}

impl XStore {
    /// Create an empty store. Writes consult `faults` at `xstore.put`,
    /// reads at `xstore.get` — for as long as the store lives, whichever
    /// deployments come to share it.
    pub fn new(config: XStoreConfig, faults: FaultRegistry) -> XStore {
        XStore {
            inner: RwLock::with_rank(
                Inner { blobs: HashMap::new(), names: HashMap::new(), snapshots: HashMap::new() },
                socrates_common::lock_rank::XSTORE_INNER,
                "xstore.inner",
            ),
            next_blob: AtomicU64::new(1),
            next_snapshot: AtomicU64::new(1),
            available: AtomicBool::new(true),
            latency: LatencyInjector::new(config.profile, config.seed),
            metrics: XStoreMetrics::default(),
            faults,
        }
    }

    /// Consult a fault site. The store is a replicated service with no
    /// single node to crash, so drop/crash degrade to an outage-style
    /// transient failure callers already tolerate (checkpoints defer,
    /// destaging retries).
    fn check_fault(&self, site: &str) -> Result<()> {
        match self.faults.check(site) {
            Some(FaultOutcome::Err(e)) => Err(e),
            Some(FaultOutcome::Drop) | Some(FaultOutcome::Crash) => {
                Err(Error::Unavailable(format!("fault: xstore op dropped at {site}")))
            }
            None => Ok(()),
        }
    }

    /// Operation counters.
    pub fn metrics(&self) -> &XStoreMetrics {
        &self.metrics
    }

    /// Inject or clear an outage. While offline every operation fails with
    /// [`Error::Unavailable`]; page servers must keep serving from RBPEX
    /// and catch checkpointing up later (paper §4.6).
    pub fn set_available(&self, v: bool) {
        // ordering: seqcst — outage toggles are a test control plane: they must be
        // totally ordered with every worker's availability check or a chaos test
        // sees a nondeterministic outage window
        self.available.store(v, Ordering::SeqCst);
    }

    /// Whether the service is currently reachable.
    pub fn is_available(&self) -> bool {
        self.available.load(Ordering::SeqCst) // ordering: seqcst — pairs with set_available's seqcst store
    }

    fn check_available(&self) -> Result<()> {
        if !self.is_available() {
            self.metrics.outage_rejections.incr();
            return Err(Error::Unavailable("xstore outage".into()));
        }
        Ok(())
    }

    /// Create a blob under `name`. Fails if the name exists.
    pub fn create_blob(&self, name: &str) -> Result<BlobId> {
        self.check_available()?;
        let mut inner = self.inner.write();
        if inner.names.contains_key(name) {
            return Err(Error::InvalidArgument(format!("blob name '{name}' already exists")));
        }
        // ordering: relaxed — id uniqueness needs only RMW atomicity
        let id = BlobId::new(self.next_blob.fetch_add(1, Ordering::Relaxed));
        inner.blobs.insert(id, Blob::new());
        inner.names.insert(name.to_string(), id);
        Ok(id)
    }

    /// Look up a blob by name.
    pub fn open(&self, name: &str) -> Result<BlobId> {
        self.check_available()?;
        self.inner
            .read()
            .names
            .get(name)
            .copied()
            .ok_or_else(|| Error::NotFound(format!("blob '{name}'")))
    }

    /// Delete a blob (its name becomes reusable). Snapshots taken from it
    /// remain valid — they own their extent references.
    pub fn delete_blob(&self, id: BlobId) -> Result<()> {
        self.check_available()?;
        let mut inner = self.inner.write();
        if inner.blobs.remove(&id).is_none() {
            return Err(Error::NotFound(format!("{id}")));
        }
        inner.names.retain(|_, v| *v != id);
        Ok(())
    }

    /// Write `data` at `offset` (log-structured constraints; see
    /// [`Blob::write_at`]).
    pub fn write_at(&self, id: BlobId, offset: u64, data: &[u8]) -> Result<()> {
        self.check_available()?;
        self.check_fault(sites::XSTORE_PUT)?;
        self.latency.write_delay();
        let mut inner = self.inner.write();
        let blob = inner.blobs.get_mut(&id).ok_or_else(|| Error::NotFound(format!("{id}")))?;
        blob.write_at(offset, data)?;
        self.metrics.bytes_written.add(data.len() as u64);
        Ok(())
    }

    /// Write a batch of extents in one request — the write-aggregation
    /// path of paper §4.6 ("aggregate multiple I/Os being sent to XStore in
    /// a single large write operation"): one service round trip, many
    /// extent replacements.
    pub fn write_batch(&self, id: BlobId, writes: &[(u64, &[u8])]) -> Result<()> {
        self.check_available()?;
        self.check_fault(sites::XSTORE_PUT)?;
        self.latency.write_delay();
        let mut inner = self.inner.write();
        let blob = inner.blobs.get_mut(&id).ok_or_else(|| Error::NotFound(format!("{id}")))?;
        let mut bytes = 0u64;
        for (off, data) in writes {
            blob.write_at(*off, data)?;
            bytes += data.len() as u64;
        }
        self.metrics.bytes_written.add(bytes);
        Ok(())
    }

    /// Append `data` to the blob, returning the offset written.
    pub fn append(&self, id: BlobId, data: &[u8]) -> Result<u64> {
        self.check_available()?;
        self.check_fault(sites::XSTORE_PUT)?;
        self.latency.write_delay();
        let mut inner = self.inner.write();
        let blob = inner.blobs.get_mut(&id).ok_or_else(|| Error::NotFound(format!("{id}")))?;
        let off = blob.append(data)?;
        self.metrics.bytes_written.add(data.len() as u64);
        Ok(off)
    }

    /// Read `len` bytes at `offset`.
    pub fn read_at(&self, id: BlobId, offset: u64, len: usize) -> Result<Vec<u8>> {
        self.check_available()?;
        self.check_fault(sites::XSTORE_GET)?;
        self.latency.read_delay();
        let inner = self.inner.read();
        let blob = inner.blobs.get(&id).ok_or_else(|| Error::NotFound(format!("{id}")))?;
        let out = blob.read_at(offset, len)?;
        self.metrics.bytes_read.add(out.len() as u64);
        Ok(out)
    }

    /// The blob's logical length.
    pub fn blob_len(&self, id: BlobId) -> Result<u64> {
        self.check_available()?;
        let inner = self.inner.read();
        Ok(inner.blobs.get(&id).ok_or_else(|| Error::NotFound(format!("{id}")))?.len())
    }

    /// Take a constant-time snapshot of the blob's current state.
    ///
    /// Cost is O(extent metadata) — no data is copied, which is what makes
    /// Socrates backups O(1) in database size (paper §3.5).
    pub fn snapshot(&self, id: BlobId) -> Result<SnapshotId> {
        self.check_available()?;
        let mut inner = self.inner.write();
        let blob = inner.blobs.get(&id).ok_or_else(|| Error::NotFound(format!("{id}")))?.clone();
        // ordering: relaxed — id uniqueness needs only RMW atomicity
        let sid = SnapshotId(self.next_snapshot.fetch_add(1, Ordering::Relaxed));
        inner.snapshots.insert(sid, blob);
        self.metrics.snapshots_taken.incr();
        Ok(sid)
    }

    /// Materialise a snapshot as a new blob named `name` — the restore
    /// path's "snapshots are copied to new blobs" step, also O(metadata).
    pub fn restore_snapshot(&self, sid: SnapshotId, name: &str) -> Result<BlobId> {
        self.check_available()?;
        let mut inner = self.inner.write();
        let blob =
            inner.snapshots.get(&sid).ok_or_else(|| Error::NotFound(format!("{sid}")))?.clone();
        if inner.names.contains_key(name) {
            return Err(Error::InvalidArgument(format!("blob name '{name}' already exists")));
        }
        // ordering: relaxed — id uniqueness needs only RMW atomicity
        let id = BlobId::new(self.next_blob.fetch_add(1, Ordering::Relaxed));
        inner.blobs.insert(id, blob);
        inner.names.insert(name.to_string(), id);
        self.metrics.snapshots_restored.incr();
        Ok(id)
    }

    /// Drop a snapshot (lease expiry / retention cleanup).
    pub fn delete_snapshot(&self, sid: SnapshotId) -> Result<()> {
        self.check_available()?;
        let mut inner = self.inner.write();
        inner.snapshots.remove(&sid).map(|_| ()).ok_or_else(|| Error::NotFound(format!("{sid}")))
    }

    /// Number of retained snapshots (diagnostics).
    pub fn snapshot_count(&self) -> usize {
        self.inner.read().snapshots.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store() -> XStore {
        XStore::new(XStoreConfig::instant(), FaultRegistry::disabled())
    }

    #[test]
    fn blob_lifecycle() {
        let s = store();
        let id = s.create_blob("data/part-0").unwrap();
        assert_eq!(s.open("data/part-0").unwrap(), id);
        assert!(s.create_blob("data/part-0").is_err(), "duplicate name");
        s.append(id, b"hello").unwrap();
        assert_eq!(s.read_at(id, 0, 5).unwrap(), b"hello");
        assert_eq!(s.blob_len(id).unwrap(), 5);
        s.delete_blob(id).unwrap();
        assert!(s.open("data/part-0").is_err());
        assert!(s.read_at(id, 0, 1).is_err());
    }

    #[test]
    fn snapshot_isolated_from_later_writes() {
        let s = store();
        let id = s.create_blob("b").unwrap();
        s.write_at(id, 0, &[1u8; 16]).unwrap();
        let snap = s.snapshot(id).unwrap();
        s.write_at(id, 0, &[2u8; 16]).unwrap();
        s.append(id, &[3u8; 16]).unwrap();
        let restored = s.restore_snapshot(snap, "b-restored").unwrap();
        assert_eq!(s.read_at(restored, 0, 16).unwrap(), vec![1u8; 16]);
        assert_eq!(s.blob_len(restored).unwrap(), 16);
        // Original unaffected by the restore.
        assert_eq!(s.read_at(id, 0, 16).unwrap(), vec![2u8; 16]);
        assert_eq!(s.blob_len(id).unwrap(), 32);
    }

    #[test]
    fn snapshot_survives_source_deletion() {
        let s = store();
        let id = s.create_blob("b").unwrap();
        s.write_at(id, 0, b"precious").unwrap();
        let snap = s.snapshot(id).unwrap();
        s.delete_blob(id).unwrap();
        let restored = s.restore_snapshot(snap, "b2").unwrap();
        assert_eq!(s.read_at(restored, 0, 8).unwrap(), b"precious");
    }

    #[test]
    fn snapshot_time_independent_of_size() {
        // The constant-time claim: snapshotting a blob with many more bytes
        // but the same extent count costs the same order of metadata work.
        let s = store();
        let small = s.create_blob("small").unwrap();
        s.append(small, &[0u8; 64]).unwrap();
        let big = s.create_blob("big").unwrap();
        s.append(big, &vec![0u8; 8 << 20]).unwrap();
        // Both have one extent; snapshot both and restore both.
        let snap_small = s.snapshot(small).unwrap();
        let snap_big = s.snapshot(big).unwrap();
        s.restore_snapshot(snap_small, "rs").unwrap();
        s.restore_snapshot(snap_big, "rb").unwrap();
        assert_eq!(s.metrics().snapshots_taken.get(), 2);
        assert_eq!(s.metrics().snapshots_restored.get(), 2);
        // No data bytes were counted as written by snapshot/restore.
        assert_eq!(s.metrics().bytes_written.get(), 64 + (8 << 20));
    }

    #[test]
    fn outage_rejects_everything_then_recovers() {
        let s = store();
        let id = s.create_blob("b").unwrap();
        s.append(id, b"x").unwrap();
        s.set_available(false);
        assert!(s.read_at(id, 0, 1).unwrap_err().is_transient());
        assert!(s.append(id, b"y").unwrap_err().is_transient());
        assert!(s.snapshot(id).unwrap_err().is_transient());
        assert!(s.metrics().outage_rejections.get() >= 3);
        s.set_available(true);
        assert_eq!(s.read_at(id, 0, 1).unwrap(), b"x");
    }

    #[test]
    fn delete_snapshot_frees_it() {
        let s = store();
        let id = s.create_blob("b").unwrap();
        s.append(id, b"z").unwrap();
        let snap = s.snapshot(id).unwrap();
        assert_eq!(s.snapshot_count(), 1);
        s.delete_snapshot(snap).unwrap();
        assert_eq!(s.snapshot_count(), 0);
        assert!(s.restore_snapshot(snap, "nope").is_err());
        assert!(s.delete_snapshot(snap).is_err());
    }
}

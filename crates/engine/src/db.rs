//! The embedded database facade: transactions over versioned tables.
//!
//! `Database` ties the engine together — catalog, B-trees, the version
//! store, and the transaction manager — on top of an injected
//! [`PageMutator`]. It is the component the paper keeps "virtually
//! unchanged" across deployments (§4.1.6): a Socrates primary, an HADR
//! replica, and a unit test all use this same type with different I/O.
//!
//! Concurrency model: snapshot isolation with first-writer-wins conflicts.
//! Readers never block writers; writers on the same table serialise on the
//! table write lock for the conflict-check-then-write critical section;
//! readers that hit a preparing commit wait for its outcome (commit
//! dependency).

use crate::catalog::{Catalog, TableInfo};
use crate::io::PageMutator;
use crate::txn::{Resolved, TxnCheckpointMeta, TxnManager};
use crate::value::{decode_row, encode_key, encode_row, Row, Schema, Value};
use crate::version::{CurrentVersion, StoredVersion, VersionStore};
use parking_lot::RwLock;
use socrates_common::{Error, Lsn, Result, TxnId};
use std::sync::Arc;
use std::time::Instant;

/// An open transaction.
#[derive(Clone, Copy, Debug)]
pub struct TxnHandle {
    /// The transaction id.
    pub id: TxnId,
    /// Snapshot timestamp: this transaction sees commits with `cts <=
    /// read_ts`.
    pub read_ts: u64,
    /// When the transaction began; its commit reports begin → commit
    /// append as the commit pipeline's engine stage. Carried in the
    /// handle so a handle that is simply dropped leaves no state behind.
    begun: Instant,
}

enum WriteMode {
    Insert,
    Update,
    Upsert,
    Delete,
}

/// The embedded database.
pub struct Database {
    io: Arc<dyn PageMutator>,
    txns: Arc<TxnManager>,
    catalog: RwLock<Catalog>,
    vstore: VersionStore,
}

impl Database {
    /// Create a fresh database on `io` (bootstraps the catalog in page 0).
    pub fn create(io: Arc<dyn PageMutator>) -> Result<Database> {
        Catalog::bootstrap(&*io)?;
        Self::open(io, Arc::new(TxnManager::new()))
    }

    /// Open an existing database (catalog is loaded from page 0). The
    /// transaction manager is injected so apply loops and recovery can
    /// share it.
    pub fn open(io: Arc<dyn PageMutator>, txns: Arc<TxnManager>) -> Result<Database> {
        let catalog = Catalog::load(&*io)?;
        Ok(Database {
            io,
            txns,
            catalog: RwLock::with_rank(
                catalog,
                socrates_common::lock_rank::ENGINE_CATALOG,
                "db.catalog",
            ),
            vstore: VersionStore::new(),
        })
    }

    /// The transaction manager (shared with apply loops).
    pub fn txns(&self) -> &Arc<TxnManager> {
        &self.txns
    }

    /// The underlying page I/O.
    pub fn io(&self) -> &Arc<dyn PageMutator> {
        &self.io
    }

    /// Re-read the catalog from page 0 (secondaries call this after
    /// applying DDL).
    pub fn reload_catalog(&self) -> Result<()> {
        let fresh = Catalog::load(&*self.io)?;
        *self.catalog.write() = fresh;
        Ok(())
    }

    // ---- transaction lifecycle ----

    /// Begin a transaction.
    pub fn begin(&self) -> TxnHandle {
        let begun = Instant::now();
        let (id, read_ts) = self.txns.begin();
        self.io.log_txn_begin(id);
        TxnHandle { id, read_ts, begun }
    }

    /// Commit: allocate the commit timestamp, harden the commit record,
    /// publish visibility. On a durability failure the transaction aborts.
    pub fn commit(&self, h: TxnHandle) -> Result<()> {
        let cts = self.txns.start_commit(h.id)?;
        match self.io.log_txn_commit(h.id, cts, h.begun.elapsed()) {
            Ok(()) => {
                self.txns.finish_commit(h.id, cts);
                Ok(())
            }
            Err(e) => {
                self.txns.abort(h.id);
                self.io.log_txn_abort(h.id);
                Err(Error::TxnAborted(format!("commit durability failed: {e}")))
            }
        }
    }

    /// Abort: versions become permanently invisible; no page is touched
    /// (ADR-style logical revert).
    pub fn abort(&self, h: TxnHandle) {
        self.txns.abort(h.id);
        self.io.log_txn_abort(h.id);
    }

    // ---- DDL ----

    /// Create a table (auto-committed system operation).
    pub fn create_table(&self, name: &str, schema: Schema) -> Result<()> {
        let h = self.begin();
        let result = self.catalog.write().create_table(&*self.io, h.id, name, schema);
        match result {
            Ok(_) => self.commit(h),
            Err(e) => {
                self.abort(h);
                Err(e)
            }
        }
    }

    /// Look up a table.
    pub fn table(&self, name: &str) -> Result<Arc<TableInfo>> {
        self.catalog.read().get(name)
    }

    /// All table names.
    pub fn table_names(&self) -> Vec<String> {
        self.catalog.read().table_names()
    }

    // ---- DML ----

    /// Insert `row`; errors with `InvalidArgument` if the key is visible.
    pub fn insert(&self, h: &TxnHandle, table: &str, row: &[Value]) -> Result<()> {
        self.write_row(h, table, row, WriteMode::Insert).map(|_| ())
    }

    /// Insert or replace `row`.
    pub fn upsert(&self, h: &TxnHandle, table: &str, row: &[Value]) -> Result<()> {
        self.write_row(h, table, row, WriteMode::Upsert).map(|_| ())
    }

    /// Replace the row with `row`'s key; returns false if no visible row.
    pub fn update(&self, h: &TxnHandle, table: &str, row: &[Value]) -> Result<bool> {
        self.write_row(h, table, row, WriteMode::Update)
    }

    /// Delete by key; returns false if no visible row.
    pub fn delete(&self, h: &TxnHandle, table: &str, key: &[Value]) -> Result<bool> {
        let t = self.table(table)?;
        if key.len() != t.schema.key_columns {
            return Err(Error::InvalidArgument(format!(
                "key arity {} != {}",
                key.len(),
                t.schema.key_columns
            )));
        }
        self.write_encoded(h, &t, key, None, WriteMode::Delete)
    }

    /// Point read by primary key.
    pub fn get(&self, h: &TxnHandle, table: &str, key: &[Value]) -> Result<Option<Row>> {
        let t = self.table(table)?;
        let mut kbytes = Vec::new();
        encode_key(key, &mut kbytes);
        let Some(payload) = t.btree.get(&*self.io, &kbytes)? else { return Ok(None) };
        let cur = CurrentVersion::decode(&payload)?;
        match self.visible_row(h, &cur)? {
            Some(bytes) => Ok(Some(decode_row(&bytes)?)),
            None => Ok(None),
        }
    }

    /// Range scan on the primary key: `lo <= key < hi`, up to `limit`
    /// visible rows.
    pub fn scan_range(
        &self,
        h: &TxnHandle,
        table: &str,
        lo: &[Value],
        hi: &[Value],
        limit: usize,
    ) -> Result<Vec<Row>> {
        let t = self.table(table)?;
        let mut lo_b = Vec::new();
        encode_key(lo, &mut lo_b);
        let mut hi_b = Vec::new();
        encode_key(hi, &mut hi_b);
        // Over-fetch because some entries may be invisible to the snapshot.
        let entries =
            t.btree.range(&*self.io, &lo_b, &hi_b, limit.saturating_mul(2).saturating_add(64))?;
        let mut rows = Vec::new();
        for (_, payload) in entries {
            if rows.len() >= limit {
                break;
            }
            let cur = CurrentVersion::decode(&payload)?;
            if let Some(bytes) = self.visible_row(h, &cur)? {
                rows.push(decode_row(&bytes)?);
            }
        }
        Ok(rows)
    }

    /// Full-table scan (visible rows only), up to `limit`.
    pub fn scan_table(&self, h: &TxnHandle, table: &str, limit: usize) -> Result<Vec<Row>> {
        let t = self.table(table)?;
        let entries = t.btree.range(&*self.io, &[], &[0xFF; 64], usize::MAX)?;
        let mut rows = Vec::new();
        for (_, payload) in entries {
            if rows.len() >= limit {
                break;
            }
            let cur = CurrentVersion::decode(&payload)?;
            if let Some(bytes) = self.visible_row(h, &cur)? {
                rows.push(decode_row(&bytes)?);
            }
        }
        Ok(rows)
    }

    // ---- checkpoint ----

    /// Write a checkpoint record carrying the transaction table metadata.
    /// `redo_start` is the storage tier's durability frontier (in Socrates:
    /// the minimum checkpointed LSN across page servers). A caller that
    /// records a recovery cursor samples it *before* this call: the
    /// commits preparing at entry are waited out
    /// ([`TxnManager::await_prepared`]), so none whose record lies below
    /// the cursor is listed active.
    pub fn checkpoint(&self, redo_start: Lsn) -> Result<Lsn> {
        self.txns.await_prepared();
        let meta = self.txns.checkpoint_meta(self.io.allocator_watermark());
        self.io.log_checkpoint(redo_start, meta.encode())
    }

    /// The checkpoint metadata that would be written now (diagnostics).
    pub fn checkpoint_meta(&self) -> TxnCheckpointMeta {
        self.txns.checkpoint_meta(self.io.allocator_watermark())
    }

    // ---- maintenance ----

    /// ADR's background cleanup (paper §3.2): physically retire versions
    /// written by aborted transactions. Correctness never requires this —
    /// visibility rules already hide them — but retiring them lets the
    /// aborted-transaction map shrink and keeps leaf bytes tight. Returns
    /// the number of rows cleaned.
    ///
    /// For each current version whose creator aborted: if an older
    /// committed version exists, it is promoted back into the leaf; if
    /// not, the key is removed entirely.
    ///
    /// Like SQL Server's version cleaner, this must only process versions
    /// older than every open snapshot; this implementation takes the
    /// simple variant that requires *no* snapshots older than the aborted
    /// transactions to be open (run it between batches, after recovery,
    /// or from a maintenance window).
    // soclint-allow: lock-across-io a maintenance pass keeps the table's
    // writers out of its whole walk, page reads included
    pub fn cleanup_aborted(&self, table: &str) -> Result<usize> {
        let t = self.table(table)?;
        let sys = TxnId::new(0);
        let _wl = t.write_lock.lock();
        let entries = t.btree.range(&*self.io, &[], &[0xFF; 64], usize::MAX)?;
        let mut cleaned = 0usize;
        for (key, payload) in entries {
            let cur = CurrentVersion::decode(&payload)?;
            if !matches!(self.txns.resolve(cur.creator), Resolved::Aborted) {
                continue;
            }
            // The newest committed ancestor, if any: stored versions are
            // committed by construction, so the head of the chain is it.
            let replacement: Option<StoredVersion> = match cur.prev {
                Some(p) => Some(VersionStore::fetch(&*self.io, p)?.clone()),
                None => None,
            };
            match replacement {
                Some(v) if !v.tombstone => {
                    let promoted = CurrentVersion {
                        // "Committed long ago" relative to every live
                        // snapshot that could see it; its true cts is kept
                        // via the chain for older snapshots.
                        creator: TxnId::new(0),
                        prev: v.prev,
                        tombstone: false,
                        row: v.row,
                    };
                    t.btree.insert(&*self.io, sys, &key, &promoted.encode())?;
                }
                _ => {
                    // No committed ancestor (or it was a delete): the key
                    // never visibly existed.
                    t.btree.delete(&*self.io, sys, &key)?;
                }
            }
            cleaned += 1;
        }
        Ok(cleaned)
    }

    // ---- internals ----

    fn write_row(
        &self,
        h: &TxnHandle,
        table: &str,
        row: &[Value],
        mode: WriteMode,
    ) -> Result<bool> {
        let t = self.table(table)?;
        t.schema.validate(row)?;
        let key = t.schema.key_of(row);
        let mut row_bytes = Vec::new();
        encode_row(row, &mut row_bytes);
        self.write_encoded(h, &t, key, Some(row_bytes), mode)
    }

    /// The shared write path. `new_row = None` is a delete (tombstone).
    /// Returns whether a visible row existed before the write.
    fn write_encoded(
        &self,
        h: &TxnHandle,
        t: &TableInfo,
        key: &[Value],
        new_row: Option<Vec<u8>>,
        mode: WriteMode,
    ) -> Result<bool> {
        // Ensure the transaction is still live (e.g. not aborted by a
        // previous failed operation).
        match self.txns.resolve(h.id) {
            Resolved::InProgress => {}
            other => {
                return Err(Error::TxnAborted(format!("{} is {other:?}", h.id)));
            }
        }
        let mut kbytes = Vec::new();
        encode_key(key, &mut kbytes);
        let tombstone = new_row.is_none();
        let row = new_row.unwrap_or_default();

        // The check-then-write below must be atomic per key; the table
        // write lock provides that (writers on a table serialise).
        let _wl = t.write_lock.lock();

        let existing = t.btree.get(&*self.io, &kbytes)?;
        let (prev, visible_before) = match &existing {
            None => (None, false),
            Some(payload) => {
                let cur = CurrentVersion::decode(payload)?;
                let visible = self.visible_row(h, &cur)?.is_some();
                if cur.creator == h.id {
                    // Rewriting our own write: keep its prev chain.
                    (cur.prev, visible)
                } else {
                    match self.txns.resolve(cur.creator) {
                        Resolved::InProgress => {
                            return Err(Error::WriteConflict(format!(
                                "key is being written by {}",
                                cur.creator
                            )));
                        }
                        Resolved::Committed(cts) if cts > h.read_ts => {
                            return Err(Error::WriteConflict(format!(
                                "key was committed at ts {cts} after snapshot {}",
                                h.read_ts
                            )));
                        }
                        Resolved::Committed(cts) => {
                            // Move the committed version into the store.
                            let stored = StoredVersion {
                                commit_ts: cts,
                                prev: cur.prev,
                                tombstone: cur.tombstone,
                                row: cur.row.clone(),
                            };
                            let ptr = self.vstore.append(&*self.io, h.id, &stored)?;
                            (Some(ptr), visible)
                        }
                        Resolved::Aborted => {
                            // Skip the aborted version entirely (ADR
                            // logical revert: nobody ever undoes it, new
                            // writers just bypass it).
                            (cur.prev, visible)
                        }
                    }
                }
            }
        };

        match mode {
            WriteMode::Insert if visible_before => {
                return Err(Error::InvalidArgument("duplicate primary key".into()));
            }
            WriteMode::Update | WriteMode::Delete if !visible_before => {
                return Ok(false);
            }
            _ => {}
        }

        let newv = CurrentVersion { creator: h.id, prev, tombstone, row };
        t.btree.insert(&*self.io, h.id, &kbytes, &newv.encode())?;
        Ok(visible_before)
    }

    /// Resolve the row bytes visible to `h` starting from the current
    /// version, following the version chain as needed.
    fn visible_row(&self, h: &TxnHandle, cur: &CurrentVersion) -> Result<Option<Vec<u8>>> {
        // The current version first.
        let visible = if cur.creator == h.id {
            true
        } else {
            match self.txns.resolve(cur.creator) {
                Resolved::Committed(cts) => cts <= h.read_ts,
                Resolved::Aborted | Resolved::InProgress => false,
            }
        };
        if visible {
            return Ok(if cur.tombstone { None } else { Some(cur.row.clone()) });
        }
        // Walk older versions in the shared version store.
        let mut ptr = cur.prev;
        while let Some(p) = ptr {
            let v = VersionStore::fetch(&*self.io, p)?;
            if v.commit_ts <= h.read_ts {
                return Ok(if v.tombstone { None } else { Some(v.row) });
            }
            ptr = v.prev;
        }
        Ok(None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::io::MemIo;
    use crate::value::ColumnType;
    use socrates_wal::record::{LogPayload, LogRecord, SequencedRecord};

    fn db() -> Database {
        Database::create(Arc::new(MemIo::new(0))).unwrap()
    }

    fn accounts_schema() -> Schema {
        Schema::new(vec![("id".into(), ColumnType::Int), ("balance".into(), ColumnType::Int)], 1)
    }

    fn row(id: i64, bal: i64) -> Row {
        vec![Value::Int(id), Value::Int(bal)]
    }

    #[test]
    fn crud_within_one_txn() {
        let db = db();
        db.create_table("accounts", accounts_schema()).unwrap();
        let h = db.begin();
        db.insert(&h, "accounts", &row(1, 100)).unwrap();
        assert_eq!(db.get(&h, "accounts", &[Value::Int(1)]).unwrap(), Some(row(1, 100)));
        db.update(&h, "accounts", &row(1, 150)).unwrap();
        assert_eq!(db.get(&h, "accounts", &[Value::Int(1)]).unwrap(), Some(row(1, 150)));
        assert!(db.delete(&h, "accounts", &[Value::Int(1)]).unwrap());
        assert_eq!(db.get(&h, "accounts", &[Value::Int(1)]).unwrap(), None);
        db.commit(h).unwrap();
    }

    #[test]
    fn snapshot_isolation_reader_unaffected_by_later_commit() {
        let db = db();
        db.create_table("accounts", accounts_schema()).unwrap();
        let setup = db.begin();
        db.insert(&setup, "accounts", &row(1, 100)).unwrap();
        db.commit(setup).unwrap();

        let reader = db.begin(); // snapshot before the update
        let writer = db.begin();
        db.update(&writer, "accounts", &row(1, 999)).unwrap();
        db.commit(writer).unwrap();

        // The old reader still sees 100 (via the version store).
        assert_eq!(db.get(&reader, "accounts", &[Value::Int(1)]).unwrap(), Some(row(1, 100)));
        // A new reader sees 999.
        let fresh = db.begin();
        assert_eq!(db.get(&fresh, "accounts", &[Value::Int(1)]).unwrap(), Some(row(1, 999)));
    }

    #[test]
    fn uncommitted_writes_invisible_to_others() {
        let db = db();
        db.create_table("accounts", accounts_schema()).unwrap();
        let writer = db.begin();
        db.insert(&writer, "accounts", &row(1, 10)).unwrap();
        let reader = db.begin();
        assert_eq!(db.get(&reader, "accounts", &[Value::Int(1)]).unwrap(), None);
        db.commit(writer).unwrap();
        // Still invisible to the old snapshot...
        assert_eq!(db.get(&reader, "accounts", &[Value::Int(1)]).unwrap(), None);
        // ...visible to a new one.
        let fresh = db.begin();
        assert!(db.get(&fresh, "accounts", &[Value::Int(1)]).unwrap().is_some());
    }

    #[test]
    fn write_write_conflict_detected() {
        let db = db();
        db.create_table("accounts", accounts_schema()).unwrap();
        let setup = db.begin();
        db.insert(&setup, "accounts", &row(1, 100)).unwrap();
        db.commit(setup).unwrap();

        let t1 = db.begin();
        let t2 = db.begin();
        db.update(&t1, "accounts", &row(1, 111)).unwrap();
        // t2 hits t1's in-progress version.
        let err = db.update(&t2, "accounts", &row(1, 222)).unwrap_err();
        assert_eq!(err.kind(), "write_conflict");
        db.commit(t1).unwrap();
        // A snapshot-stale writer also conflicts.
        let err = db.update(&t2, "accounts", &row(1, 222)).unwrap_err();
        assert_eq!(err.kind(), "write_conflict");
        db.abort(t2);
    }

    #[test]
    fn aborted_writes_leave_no_trace() {
        let db = db();
        db.create_table("accounts", accounts_schema()).unwrap();
        let setup = db.begin();
        db.insert(&setup, "accounts", &row(1, 100)).unwrap();
        db.commit(setup).unwrap();

        let t = db.begin();
        db.update(&t, "accounts", &row(1, 666)).unwrap();
        db.abort(t);

        // Readers see the old value through the aborted version's chain —
        // no undo ran, visibility rules did all the work (ADR).
        let r = db.begin();
        assert_eq!(db.get(&r, "accounts", &[Value::Int(1)]).unwrap(), Some(row(1, 100)));
        // New writers skip the aborted version and build on the committed
        // chain.
        let w = db.begin();
        db.update(&w, "accounts", &row(1, 200)).unwrap();
        db.commit(w).unwrap();
        let r2 = db.begin();
        assert_eq!(db.get(&r2, "accounts", &[Value::Int(1)]).unwrap(), Some(row(1, 200)));
        // And the old reader still sees 100.
        assert_eq!(db.get(&r, "accounts", &[Value::Int(1)]).unwrap(), Some(row(1, 100)));
    }

    #[test]
    fn duplicate_key_and_missing_update() {
        let db = db();
        db.create_table("accounts", accounts_schema()).unwrap();
        let h = db.begin();
        db.insert(&h, "accounts", &row(1, 1)).unwrap();
        assert!(db.insert(&h, "accounts", &row(1, 2)).is_err());
        assert!(!db.update(&h, "accounts", &row(9, 9)).unwrap());
        assert!(!db.delete(&h, "accounts", &[Value::Int(9)]).unwrap());
        db.upsert(&h, "accounts", &row(1, 5)).unwrap();
        assert_eq!(db.get(&h, "accounts", &[Value::Int(1)]).unwrap(), Some(row(1, 5)));
        db.commit(h).unwrap();
    }

    #[test]
    fn reinsert_after_delete() {
        let db = db();
        db.create_table("accounts", accounts_schema()).unwrap();
        let h1 = db.begin();
        db.insert(&h1, "accounts", &row(1, 1)).unwrap();
        db.commit(h1).unwrap();
        let h2 = db.begin();
        db.delete(&h2, "accounts", &[Value::Int(1)]).unwrap();
        db.commit(h2).unwrap();
        let h3 = db.begin();
        db.insert(&h3, "accounts", &row(1, 42)).unwrap();
        db.commit(h3).unwrap();
        let r = db.begin();
        assert_eq!(db.get(&r, "accounts", &[Value::Int(1)]).unwrap(), Some(row(1, 42)));
    }

    #[test]
    fn scans_respect_visibility() {
        let db = db();
        db.create_table("accounts", accounts_schema()).unwrap();
        let setup = db.begin();
        for i in 0..50 {
            db.insert(&setup, "accounts", &row(i, i * 10)).unwrap();
        }
        db.commit(setup).unwrap();

        let snap = db.begin();
        // Concurrent txn deletes evens and adds new rows.
        let w = db.begin();
        for i in (0..50).step_by(2) {
            db.delete(&w, "accounts", &[Value::Int(i)]).unwrap();
        }
        db.insert(&w, "accounts", &row(100, 0)).unwrap();
        db.commit(w).unwrap();

        // The old snapshot sees all 50 original rows and not the new one.
        let rows =
            db.scan_range(&snap, "accounts", &[Value::Int(0)], &[Value::Int(1000)], 1000).unwrap();
        assert_eq!(rows.len(), 50);
        // A fresh snapshot sees 25 odds + the new row.
        let fresh = db.begin();
        let rows =
            db.scan_range(&fresh, "accounts", &[Value::Int(0)], &[Value::Int(1000)], 1000).unwrap();
        assert_eq!(rows.len(), 26);
        // Limit applies to visible rows.
        let rows =
            db.scan_range(&fresh, "accounts", &[Value::Int(0)], &[Value::Int(1000)], 5).unwrap();
        assert_eq!(rows.len(), 5);
    }

    #[test]
    fn cleanup_aborted_retires_versions() {
        let db = db();
        db.create_table("accounts", accounts_schema()).unwrap();
        let setup = db.begin();
        db.insert(&setup, "accounts", &row(1, 100)).unwrap();
        db.insert(&setup, "accounts", &row(2, 200)).unwrap();
        db.commit(setup).unwrap();
        // Txn A updates row 1 and inserts row 3, then aborts.
        let a = db.begin();
        db.update(&a, "accounts", &row(1, -1)).unwrap();
        db.insert(&a, "accounts", &row(3, -3)).unwrap();
        db.abort(a);

        let cleaned = db.cleanup_aborted("accounts").unwrap();
        assert_eq!(cleaned, 2);
        // Row 1 is physically back at its committed value; row 3 is gone.
        let r = db.begin();
        assert_eq!(db.get(&r, "accounts", &[Value::Int(1)]).unwrap(), Some(row(1, 100)));
        assert_eq!(db.get(&r, "accounts", &[Value::Int(2)]).unwrap(), Some(row(2, 200)));
        assert_eq!(db.get(&r, "accounts", &[Value::Int(3)]).unwrap(), None);
        // Idempotent: nothing left to clean.
        assert_eq!(db.cleanup_aborted("accounts").unwrap(), 0);
        // And the table remains fully writable afterwards.
        let w = db.begin();
        db.update(&w, "accounts", &row(1, 111)).unwrap();
        db.commit(w).unwrap();
        let r2 = db.begin();
        assert_eq!(db.get(&r2, "accounts", &[Value::Int(1)]).unwrap(), Some(row(1, 111)));
    }

    #[test]
    fn cleanup_after_aborted_delete() {
        let db = db();
        db.create_table("accounts", accounts_schema()).unwrap();
        let setup = db.begin();
        db.insert(&setup, "accounts", &row(7, 70)).unwrap();
        db.commit(setup).unwrap();
        let a = db.begin();
        db.delete(&a, "accounts", &[Value::Int(7)]).unwrap();
        db.abort(a);
        assert_eq!(db.cleanup_aborted("accounts").unwrap(), 1);
        let r = db.begin();
        assert_eq!(db.get(&r, "accounts", &[Value::Int(7)]).unwrap(), Some(row(7, 70)));
    }

    #[test]
    fn operations_on_aborted_txn_fail() {
        let db = db();
        db.create_table("accounts", accounts_schema()).unwrap();
        let h = db.begin();
        db.abort(h);
        assert_eq!(db.insert(&h, "accounts", &row(1, 1)).unwrap_err().kind(), "txn_aborted");
        assert!(db.commit(h).is_err());
    }

    #[test]
    fn many_versions_chain_reads() {
        let db = db();
        db.create_table("accounts", accounts_schema()).unwrap();
        let h0 = db.begin();
        db.insert(&h0, "accounts", &row(1, 0)).unwrap();
        db.commit(h0).unwrap();
        // Take snapshots between each of 20 updates.
        let mut snaps = Vec::new();
        for i in 1..=20 {
            snaps.push(db.begin());
            let w = db.begin();
            db.update(&w, "accounts", &row(1, i)).unwrap();
            db.commit(w).unwrap();
        }
        // Snapshot k sees value k (taken before update k+1 committed).
        for (k, snap) in snaps.iter().enumerate() {
            assert_eq!(
                db.get(snap, "accounts", &[Value::Int(1)]).unwrap(),
                Some(row(1, k as i64)),
                "snapshot {k}"
            );
        }
    }

    /// A `MemIo` that keeps the lifecycle records in an in-memory log and,
    /// once armed, parks the next commit between its record hardening and
    /// its return — the window in which the transaction is still
    /// `Preparing` although its commit record is durable.
    struct GatedLog {
        mem: MemIo,
        log: parking_lot::Mutex<Vec<SequencedRecord>>,
        /// (armed, parked, released)
        gate: parking_lot::Mutex<(bool, bool, bool)>,
        cv: parking_lot::Condvar,
    }

    impl GatedLog {
        fn append(&self, txn: TxnId, payload: LogPayload) -> Lsn {
            let mut log = self.log.lock();
            let lsn = Lsn::new(log.len() as u64);
            log.push(SequencedRecord { lsn, record: LogRecord { txn, payload } });
            lsn
        }

        /// The hardened frontier: every record appended so far is durable.
        fn end(&self) -> Lsn {
            Lsn::new(self.log.lock().len() as u64)
        }

        fn wait_gate(&self, until: impl Fn(&(bool, bool, bool)) -> bool) {
            let mut g = self.gate.lock();
            while !until(&g) {
                self.cv.wait(&mut g);
            }
        }

        fn set_gate(&self, f: impl FnOnce(&mut (bool, bool, bool))) {
            f(&mut self.gate.lock());
            self.cv.notify_all();
        }
    }

    impl crate::io::PageAccess for GatedLog {
        fn page(&self, id: socrates_common::PageId) -> Result<socrates_storage::PageRef> {
            self.mem.page(id)
        }
    }

    impl PageMutator for GatedLog {
        fn allocate(&self, txn: TxnId) -> Result<socrates_common::PageId> {
            self.mem.allocate(txn)
        }
        fn mutate(
            &self,
            txn: TxnId,
            page: &mut socrates_storage::Page,
            op: &socrates_storage::PageOp,
        ) -> Result<Lsn> {
            self.mem.mutate(txn, page, op)
        }
        fn log_txn_begin(&self, txn: TxnId) {
            self.append(txn, LogPayload::TxnBegin);
        }
        fn log_txn_commit(&self, txn: TxnId, commit_ts: u64, _: std::time::Duration) -> Result<()> {
            self.append(txn, LogPayload::TxnCommit { commit_ts });
            if self.gate.lock().0 {
                self.set_gate(|g| g.1 = true);
                self.wait_gate(|g| g.2);
            }
            Ok(())
        }
        fn log_checkpoint(&self, redo_start_lsn: Lsn, meta: Vec<u8>) -> Result<Lsn> {
            Ok(self.append(TxnId::new(0), LogPayload::Checkpoint { redo_start_lsn, meta }))
        }
    }

    #[test]
    fn a_checkpoint_waits_out_a_commit_hardened_below_its_recovery_cursor() {
        let io = Arc::new(GatedLog {
            mem: MemIo::new(0),
            log: parking_lot::Mutex::new(Vec::new()),
            gate: parking_lot::Mutex::new((false, false, false)),
            cv: parking_lot::Condvar::new(),
        });
        let db = Arc::new(Database::create(Arc::clone(&io) as Arc<dyn PageMutator>).unwrap());
        db.create_table("accounts", accounts_schema()).unwrap();
        let h = db.begin();
        db.insert(&h, "accounts", &row(1, 10)).unwrap();
        let txn = h.id;
        io.set_gate(|g| g.0 = true);
        let committer = {
            let db = Arc::clone(&db);
            std::thread::spawn(move || db.commit(h))
        };
        // The commit record is durable; the transaction is still preparing.
        io.wait_gate(|g| g.1);
        // A primary samples its recovery cursor here, then checkpoints.
        let cursor = io.end();
        let (tx, rx) = std::sync::mpsc::channel();
        let checkpointer = {
            let db = Arc::clone(&db);
            std::thread::spawn(move || tx.send(db.checkpoint(Lsn::ZERO).unwrap()).unwrap())
        };
        let returned_early = rx.recv_timeout(std::time::Duration::from_millis(200)).is_ok();
        io.set_gate(|g| g.2 = true);
        committer.join().unwrap().unwrap();
        checkpointer.join().unwrap();
        assert!(!returned_early, "the checkpoint read the table while a hardened commit prepared");
        // Recovery runs analysis from the cursor: the commit record lies
        // below it, so only the checkpoint's meta speaks for the txn.
        let tm = TxnManager::new();
        let mut analysis = crate::recovery::Analyzer::new(&tm);
        for rec in io.log.lock().iter().filter(|r| r.lsn >= cursor) {
            analysis.feed(rec).unwrap();
        }
        let died = analysis.into_analysis().died;
        assert!(!died.contains(&txn), "recovery aborted an acknowledged commit");
        assert_ne!(tm.resolve(txn), Resolved::Aborted);
    }
}

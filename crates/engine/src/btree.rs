//! Page-based B-trees.
//!
//! Every table (and secondary index) is a B-tree of 8 KiB slotted pages
//! keyed by memcomparable byte strings. All structural changes go through
//! [`PageMutator::mutate`], so every mutation is simultaneously a redo log
//! record — page servers and secondaries replay the identical ops and
//! converge to identical trees.
//!
//! Design notes:
//!
//! * **The root never moves.** A root split rewrites the root in place as
//!   an internal node over two freshly allocated children, so catalog
//!   entries hold a stable root page id.
//! * **Splits log what moved.** An insert past the last key of the tree's
//!   rightmost leaf that does not fit opens a fresh right sibling holding
//!   only the new record (`Format` + one `Insert`) and leaves the full
//!   page untouched, so an ascending load fills every page; the
//!   rightmost internal node grows the same way. Every other split is
//!   50/50 by bytes (a count cut can leave a half that overflows its
//!   page): each half is logged as one [`PageOp::Rebuild`] carrying the
//!   records it keeps, about one page of log in all. Root growth moves
//!   the root's records down the same way.
//! * **Concurrency** is tree-granular: a `RwLock` admits parallel readers
//!   and serialises writers. Socrates' write throughput is bounded by the
//!   log pipeline, not index concurrency, so this keeps the hot paths
//!   simple. Only the primary ever calls write operations.
//! * **No merge on delete.** Deletes leave pages sparse (as deferred
//!   compaction does in production engines); a background reorg is future
//!   work, matching the paper's bulk-operation offload plans.

use crate::io::{PageAccess, PageMutator};
use parking_lot::RwLock;
use socrates_common::{Error, Lsn, PageId, Result, TxnId};
use socrates_storage::page::{Page, PageType};
use socrates_storage::pageops::PageOp;
use socrates_storage::slotted::Slotted;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Maximum encoded entry (key + payload + framing) size admitted into the
/// tree; keeps fan-out reasonable.
pub const MAX_ENTRY: usize = 2048;

// ---- record codecs ----

fn leaf_record(key: &[u8], payload: &[u8]) -> Vec<u8> {
    let mut rec = Vec::with_capacity(2 + key.len() + payload.len());
    rec.extend_from_slice(&(key.len() as u16).to_le_bytes());
    rec.extend_from_slice(key);
    rec.extend_from_slice(payload);
    rec
}

fn split_leaf_record(rec: &[u8]) -> (&[u8], &[u8]) {
    let klen = u16::from_le_bytes(rec[0..2].try_into().unwrap()) as usize;
    (&rec[2..2 + klen], &rec[2 + klen..])
}

fn internal_record(key: &[u8], child: PageId) -> Vec<u8> {
    let mut rec = Vec::with_capacity(2 + key.len() + 8);
    rec.extend_from_slice(&(key.len() as u16).to_le_bytes());
    rec.extend_from_slice(key);
    rec.extend_from_slice(&child.raw().to_le_bytes());
    rec
}

fn split_internal_record(rec: &[u8]) -> (&[u8], PageId) {
    let klen = u16::from_le_bytes(rec[0..2].try_into().unwrap()) as usize;
    let key = &rec[2..2 + klen];
    let child = PageId::new(u64::from_le_bytes(rec[2 + klen..2 + klen + 8].try_into().unwrap()));
    (key, child)
}

/// Split the right half off a node's `records` (slot order, at least two)
/// so that each half fits on a page, checked before anything is logged.
/// The cut balances bytes, not counts: four `MAX_ENTRY` records overflow a
/// page, so three of them beside a few small ones cannot be halved by
/// count. The first record that takes the left half to half the bytes
/// stays on the left, so that half holds less than half a page plus one
/// record, and the right half at most half of the total.
fn split_off_right(records: &mut Vec<Vec<u8>>) -> Result<Vec<Vec<u8>>> {
    let total: usize = records.iter().map(|r| Slotted::footprint(r.len())).sum();
    let mut left = 0;
    let cut = records
        .iter()
        .position(|r| {
            left += Slotted::footprint(r.len());
            2 * left >= total
        })
        .map_or(records.len(), |i| i + 1)
        .clamp(1, records.len().saturating_sub(1).max(1));
    let right = records.split_off(cut);
    if right.is_empty() || !Slotted::fits(records) || !Slotted::fits(&right) {
        return Err(Error::InvalidState(format!(
            "no split of {} + {} records fits two pages",
            records.len(),
            right.len()
        )));
    }
    Ok(right)
}

/// Binary search the sorted leaf for `key`; `Ok(i)` exact, `Err(i)`
/// insertion point.
fn leaf_search(page: &Page, key: &[u8]) -> std::result::Result<usize, usize> {
    let n = Slotted::slot_count(page);
    let (mut lo, mut hi) = (0usize, n);
    while lo < hi {
        let mid = (lo + hi) / 2;
        let (k, _) = split_leaf_record(Slotted::get(page, mid).expect("slot in range"));
        match k.cmp(key) {
            std::cmp::Ordering::Less => lo = mid + 1,
            std::cmp::Ordering::Greater => hi = mid,
            std::cmp::Ordering::Equal => return Ok(mid),
        }
    }
    Err(lo)
}

/// The child slot to descend into: the last slot whose key is <= the
/// target (slot 0 is the leftmost child with an empty key, which routes
/// everything smaller than the first separator).
fn internal_child_slot(page: &Page, key: &[u8]) -> usize {
    let n = Slotted::slot_count(page);
    debug_assert!(n >= 1);
    let (mut lo, mut hi) = (1usize, n);
    // Find the first slot (>=1) whose key is > target; descend into the
    // slot before it.
    while lo < hi {
        let mid = (lo + hi) / 2;
        let (k, _) = split_internal_record(Slotted::get(page, mid).expect("slot in range"));
        if k <= key {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    lo - 1
}

/// Result of a recursive insert: did the child split, and if so what
/// separator/right-sibling must the parent adopt?
struct InsertOutcome {
    old: Option<Vec<u8>>,
    lsn: Lsn,
    split: Option<(Vec<u8>, PageId)>,
}

/// A B-tree handle. Cheap to clone; concurrency state is shared.
#[derive(Clone)]
pub struct BTree {
    root: PageId,
    lock: std::sync::Arc<RwLock<()>>,
    /// Entries on the last leaf a range walk read (0: none yet), which
    /// bounds how many children a limit-bound walk names for read-ahead.
    leaf_fill: std::sync::Arc<AtomicUsize>,
}

impl BTree {
    /// Create a new empty tree: allocates and formats the root leaf.
    pub fn create(io: &dyn PageMutator, txn: TxnId) -> Result<BTree> {
        let root = io.allocate(txn)?;
        let page_ref = io.page(root)?;
        let mut page = page_ref.write();
        io.mutate(txn, &mut page, &PageOp::Format { ptype: PageType::BTreeLeaf })?;
        drop(page);
        Ok(BTree::open(root))
    }

    /// Open an existing tree by root page id.
    pub fn open(root: PageId) -> BTree {
        BTree {
            root,
            lock: std::sync::Arc::new(RwLock::with_rank(
                (),
                socrates_common::lock_rank::ENGINE_BTREE,
                "btree.lock",
            )),
            leaf_fill: std::sync::Arc::default(),
        }
    }

    /// The root page id (stable for the tree's lifetime).
    pub fn root(&self) -> PageId {
        self.root
    }

    /// Point lookup.
    pub fn get(&self, io: &dyn PageAccess, key: &[u8]) -> Result<Option<Vec<u8>>> {
        let _g = self.lock.read();
        let (_, page_ref) = self.descend(io, key)?;
        let page = page_ref.read();
        match leaf_search(&page, key) {
            Ok(i) => {
                let (_, payload) = split_leaf_record(Slotted::get(&page, i)?);
                Ok(Some(payload.to_vec()))
            }
            Err(_) => Ok(None),
        }
    }

    /// Upsert; returns the previous payload if the key existed, and the LSN
    /// of the final mutation.
    pub fn insert(
        &self,
        io: &dyn PageMutator,
        txn: TxnId,
        key: &[u8],
        payload: &[u8],
    ) -> Result<(Option<Vec<u8>>, Lsn)> {
        if 2 + key.len() + payload.len() > MAX_ENTRY {
            return Err(Error::InvalidArgument(format!(
                "entry of {} bytes exceeds MAX_ENTRY {MAX_ENTRY}",
                2 + key.len() + payload.len()
            )));
        }
        let _g = self.lock.write();
        let outcome = self.insert_rec(io, txn, self.root, true, key, payload)?;
        if let Some((sep, right)) = outcome.split {
            self.grow_root(io, txn, sep, right)?;
        }
        Ok((outcome.old, outcome.lsn))
    }

    /// Upsert into the subtree at `at`. `rightmost`: `at` is on the tree's
    /// right edge (the root, or the last child of a node on it), so
    /// nothing in the tree sorts after it.
    // soclint-allow: lock-order-transitive every per-page latch shares the
    // lexical key `page_ref`, so the root->leaf descent reads as a self-cycle;
    // the latches are distinct per page, each read guard is a statement-scoped
    // temporary dropped before the recursive call, and descent order is
    // root->leaf by construction.
    fn insert_rec(
        &self,
        io: &dyn PageMutator,
        txn: TxnId,
        at: PageId,
        rightmost: bool,
        key: &[u8],
        payload: &[u8],
    ) -> Result<InsertOutcome> {
        let page_ref = io.page(at)?;
        let ptype = page_ref.read().page_type()?;
        match ptype {
            PageType::BTreeLeaf => self.leaf_upsert(io, txn, rightmost, &page_ref, key, payload),
            PageType::BTreeInternal => {
                let (child, last) = {
                    let page = page_ref.read();
                    let slot = internal_child_slot(&page, key);
                    let child = split_internal_record(Slotted::get(&page, slot)?).1;
                    (child, slot + 1 == Slotted::slot_count(&page))
                };
                let outcome = self.insert_rec(io, txn, child, rightmost && last, key, payload)?;
                let Some((sep, right)) = outcome.split else { return Ok(outcome) };
                let split = self.adopt_separator(io, txn, at, rightmost, &sep, right)?;
                Ok(InsertOutcome { old: outcome.old, lsn: outcome.lsn, split })
            }
            other => Err(Error::Corruption(format!("B-tree descent hit {other:?} at {at}"))),
        }
    }

    /// Insert/update `key` in the leaf behind `page_ref`, splitting it if
    /// needed.
    fn leaf_upsert(
        &self,
        io: &dyn PageMutator,
        txn: TxnId,
        rightmost: bool,
        page_ref: &socrates_storage::cache::PageRef,
        key: &[u8],
        payload: &[u8],
    ) -> Result<InsertOutcome> {
        let rec = leaf_record(key, payload);
        let mut page = page_ref.write();
        let at = page.page_id();
        match leaf_search(&page, key) {
            Ok(i) => {
                let cur = Slotted::get(&page, i)?;
                let (_, old) = split_leaf_record(cur);
                let old = Some(old.to_vec());
                let grow = rec.len().saturating_sub(cur.len());
                if grow == 0
                    || Slotted::contiguous_free(&page) + Slotted::fragmented_free(&page) >= grow
                {
                    let lsn =
                        io.mutate(txn, &mut page, &PageOp::Update { idx: i as u16, bytes: rec })?;
                    return Ok(InsertOutcome { old, lsn, split: None });
                }
                drop(page);
                self.leaf_split_upsert(io, txn, at, key, payload, old)
            }
            Err(i) => {
                if Slotted::can_insert(&page, rec.len()) {
                    let lsn =
                        io.mutate(txn, &mut page, &PageOp::Insert { idx: i as u16, bytes: rec })?;
                    return Ok(InsertOutcome { old: None, lsn, split: None });
                }
                let append = rightmost && i == Slotted::slot_count(&page);
                drop(page);
                if append {
                    let (right_id, lsn) = self.open_right(io, txn, PageType::BTreeLeaf, rec)?;
                    let split = Some((key.to_vec(), right_id));
                    return Ok(InsertOutcome { old: None, lsn, split });
                }
                self.leaf_split_upsert(io, txn, at, key, payload, None)
            }
        }
    }

    /// Split leaf `at` while applying the pending upsert to the in-memory
    /// record set, so the result is two pages holding half the bytes each
    /// and already containing the new entry.
    fn leaf_split_upsert(
        &self,
        io: &dyn PageMutator,
        txn: TxnId,
        at: PageId,
        key: &[u8],
        payload: &[u8],
        old: Option<Vec<u8>>,
    ) -> Result<InsertOutcome> {
        let mut records = self.records(io, at)?;
        match records.binary_search_by(|r| split_leaf_record(r).0.cmp(key)) {
            Ok(i) => records[i] = leaf_record(key, payload),
            Err(i) => records.insert(i, leaf_record(key, payload)),
        }
        let right = split_off_right(&mut records)?;
        let sep = split_leaf_record(&right[0]).0.to_vec();
        let right_id = io.allocate(txn)?;
        self.rebuild(io, txn, right_id, PageType::BTreeLeaf, right)?;
        let lsn = self.rebuild(io, txn, at, PageType::BTreeLeaf, records)?;
        Ok(InsertOutcome { old, lsn, split: Some((sep, right_id)) })
    }

    /// Insert a separator `(sep, right)` into internal node `at`, splitting
    /// it if needed. Returns the node's own split info when it overflows.
    fn adopt_separator(
        &self,
        io: &dyn PageMutator,
        txn: TxnId,
        at: PageId,
        rightmost: bool,
        sep: &[u8],
        right: PageId,
    ) -> Result<Option<(Vec<u8>, PageId)>> {
        let rec = internal_record(sep, right);
        let page_ref = io.page(at)?;
        let mut page = page_ref.write();
        let pos = internal_child_slot(&page, sep) + 1;
        if Slotted::can_insert(&page, rec.len()) {
            io.mutate(txn, &mut page, &PageOp::Insert { idx: pos as u16, bytes: rec })?;
            return Ok(None);
        }
        let append = rightmost && pos == Slotted::slot_count(&page);
        drop(page);
        if append {
            // The new right node routes everything from `sep` up to its
            // only child, `right`.
            let rec = internal_record(&[], right);
            let (right_id, _) = self.open_right(io, txn, PageType::BTreeInternal, rec)?;
            return Ok(Some((sep.to_vec(), right_id)));
        }
        let mut records = self.records(io, at)?;
        records.insert(pos, rec);
        let mut right_recs = split_off_right(&mut records)?;
        // The right node's first record becomes its leftmost child (key
        // stripped); its key moves up as the separator.
        let (sep_up, child) = split_internal_record(&right_recs[0]);
        let sep_up = sep_up.to_vec();
        right_recs[0] = internal_record(&[], child);
        let right_id = io.allocate(txn)?;
        self.rebuild(io, txn, right_id, PageType::BTreeInternal, right_recs)?;
        self.rebuild(io, txn, at, PageType::BTreeInternal, records)?;
        Ok(Some((sep_up, right_id)))
    }

    /// Root split: move the root's (already-split-off) content under a new
    /// left child and rewrite the root as an internal node over both.
    fn grow_root(
        &self,
        io: &dyn PageMutator,
        txn: TxnId,
        sep: Vec<u8>,
        right: PageId,
    ) -> Result<()> {
        let ptype = io.page(self.root)?.read().page_type()?;
        let records = self.records(io, self.root)?;
        let left_id = io.allocate(txn)?;
        self.rebuild(io, txn, left_id, ptype, records)?;
        let root_recs = vec![internal_record(&[], left_id), internal_record(&sep, right)];
        self.rebuild(io, txn, self.root, PageType::BTreeInternal, root_recs)?;
        Ok(())
    }

    /// A copy of page `id`'s records, in slot order.
    fn records(&self, io: &dyn PageMutator, id: PageId) -> Result<Vec<Vec<u8>>> {
        let page_ref = io.page(id)?;
        let page = page_ref.read();
        Ok(Slotted::iter(&page).map(|r| r.to_vec()).collect())
    }

    /// Log page `id` rebuilt as a `ptype` page holding `records`.
    fn rebuild(
        &self,
        io: &dyn PageMutator,
        txn: TxnId,
        id: PageId,
        ptype: PageType,
        records: Vec<Vec<u8>>,
    ) -> Result<Lsn> {
        let page_ref = io.page(id)?;
        let mut page = page_ref.write();
        io.mutate(txn, &mut page, &PageOp::Rebuild { ptype, records })
    }

    /// Right-edge split: allocate a fresh right sibling holding only
    /// `rec`. The full page it splits from is left as it is, so nothing is
    /// logged on it. Returns the new page and the LSN of its insert.
    fn open_right(
        &self,
        io: &dyn PageMutator,
        txn: TxnId,
        ptype: PageType,
        rec: Vec<u8>,
    ) -> Result<(PageId, Lsn)> {
        let id = io.allocate(txn)?;
        let page_ref = io.page(id)?;
        let mut page = page_ref.write();
        io.mutate(txn, &mut page, &PageOp::Format { ptype })?;
        let lsn = io.mutate(txn, &mut page, &PageOp::Insert { idx: 0, bytes: rec })?;
        Ok((id, lsn))
    }

    /// Remove `key`; returns its payload if present.
    pub fn delete(&self, io: &dyn PageMutator, txn: TxnId, key: &[u8]) -> Result<Option<Vec<u8>>> {
        let _g = self.lock.write();
        let (_, page_ref) = self.descend(io, key)?;
        let mut page = page_ref.write();
        match leaf_search(&page, key) {
            Ok(i) => {
                let (_, payload) = split_leaf_record(Slotted::get(&page, i)?);
                let payload = payload.to_vec();
                io.mutate(txn, &mut page, &PageOp::Delete { idx: i as u16 })?;
                Ok(Some(payload))
            }
            Err(_) => Ok(None),
        }
    }

    /// Collect entries with `lo <= key < hi`, up to `limit`.
    // soclint-allow: lock-across-io a walk holds the tree's read lock across
    // its page reads so that no split moves keys past it; the read-ahead
    // makes a scan's RBPEX reads one device wait instead of one per leaf
    pub fn range(
        &self,
        io: &dyn PageAccess,
        lo: &[u8],
        hi: &[u8],
        limit: usize,
    ) -> Result<Vec<(Vec<u8>, Vec<u8>)>> {
        let _g = self.lock.read();
        let mut out = Vec::new();
        self.range_walk(io, self.root, lo, hi, limit, &mut out)?;
        Ok(out)
    }

    fn range_walk(
        &self,
        io: &dyn PageAccess,
        at: PageId,
        lo: &[u8],
        hi: &[u8],
        limit: usize,
        out: &mut Vec<(Vec<u8>, Vec<u8>)>,
    ) -> Result<bool> {
        if out.len() >= limit {
            return Ok(false);
        }
        let page_ref = io.page(at)?;
        let page = page_ref.read();
        match page.page_type()? {
            PageType::BTreeLeaf => {
                let start = match leaf_search(&page, lo) {
                    Ok(i) | Err(i) => i,
                };
                let slots = Slotted::slot_count(&page);
                // ordering: relaxed — a read-ahead estimate; any recent value will do
                if self.leaf_fill.load(Ordering::Relaxed) != slots {
                    // ordering: relaxed — as the load above
                    self.leaf_fill.store(slots, Ordering::Relaxed);
                }
                for i in start..slots {
                    let (k, v) = split_leaf_record(Slotted::get(&page, i)?);
                    if k >= hi {
                        return Ok(false);
                    }
                    out.push((k.to_vec(), v.to_vec()));
                    if out.len() >= limit {
                        return Ok(false);
                    }
                }
                Ok(true) // keep walking right
            }
            PageType::BTreeInternal => {
                // The children holding keys in [lo, hi): from the one `lo`
                // falls in to the last whose lower separator is below `hi`.
                let n = Slotted::slot_count(&page);
                let first = internal_child_slot(&page, lo);
                let mut children = Vec::with_capacity(n - first);
                for i in first..n {
                    let (k, c) = split_internal_record(Slotted::get(&page, i)?);
                    if i > first && k >= hi {
                        break;
                    }
                    children.push(c);
                }
                drop(page);
                // Nothing right of this node is in range if `hi` cut it short.
                let past_hi = first + children.len() < n;
                // Scan read-ahead: we are about to visit these children in
                // order, so name them before descending. Point lookups and
                // tiny scans (`limit` nearly satisfied) skip it — read-ahead
                // for one page is pure overhead. A limit-bound walk names
                // only the children its limit can reach, taking the leaves
                // ahead to be at least half as full as the last one read,
                // plus the child it starts in part-way.
                let left = limit - out.len();
                if left >= 8 {
                    // ordering: relaxed — a read-ahead estimate; any recent value will do
                    let reach = match self.leaf_fill.load(Ordering::Relaxed) {
                        0 => children.len(),
                        fill => left.div_ceil(fill.div_ceil(2)).saturating_add(1),
                    };
                    io.read_ahead(&children[..children.len().min(reach)]);
                }
                for child in children {
                    if !self.range_walk(io, child, lo, hi, limit, out)? {
                        return Ok(false);
                    }
                }
                Ok(!past_hi)
            }
            other => Err(Error::Corruption(format!("range walk hit {other:?} at {at}"))),
        }
    }

    /// Number of entries (full scan; diagnostics and tests).
    pub fn len(&self, io: &dyn PageAccess) -> Result<usize> {
        Ok(self.range(io, &[], &[0xFF; 64], usize::MAX)?.len())
    }

    /// Whether the tree has no entries.
    pub fn is_empty(&self, io: &dyn PageAccess) -> Result<bool> {
        Ok(self.range(io, &[], &[0xFF; 64], 1)?.is_empty())
    }

    fn descend(
        &self,
        io: &dyn PageAccess,
        key: &[u8],
    ) -> Result<(PageId, socrates_storage::cache::PageRef)> {
        let mut at = self.root;
        loop {
            let page_ref = io.page(at)?;
            let next = {
                let page = page_ref.read();
                match page.page_type()? {
                    PageType::BTreeLeaf => None,
                    PageType::BTreeInternal => {
                        let slot = internal_child_slot(&page, key);
                        let (_, child) = split_internal_record(Slotted::get(&page, slot)?);
                        Some(child)
                    }
                    other => {
                        return Err(Error::Corruption(format!(
                            "B-tree descent hit a {other:?} page at {at}"
                        )))
                    }
                }
            };
            match next {
                None => return Ok((at, page_ref)),
                Some(child) => at = child,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::io::MemIo;
    use parking_lot::Mutex;
    use socrates_storage::cache::PageRef;
    use socrates_storage::page::PAGE_SIZE;
    use std::collections::BTreeMap;

    fn t(io: &dyn PageMutator) -> BTree {
        BTree::create(io, TxnId::new(1)).unwrap()
    }

    fn k(i: u64) -> Vec<u8> {
        i.to_be_bytes().to_vec()
    }

    /// A 200-byte key: wide keys shrink internal fan-out, so the internal
    /// levels split too.
    fn widen(i: u64) -> Vec<u8> {
        let mut key = vec![0u8; 200];
        key[..8].copy_from_slice(&i.to_be_bytes());
        key
    }

    /// A [`MemIo`] that also keeps every op it applies.
    struct Recording {
        mem: MemIo,
        ops: Mutex<Vec<PageOp>>,
    }

    impl Recording {
        fn new() -> Recording {
            Recording { mem: MemIo::new(1), ops: Mutex::new(Vec::new()) }
        }

        /// The ops applied since the last call.
        fn take(&self) -> Vec<PageOp> {
            std::mem::take(&mut *self.ops.lock())
        }
    }

    impl PageAccess for Recording {
        fn page(&self, id: PageId) -> Result<PageRef> {
            self.mem.page(id)
        }
    }

    impl PageMutator for Recording {
        fn allocate(&self, txn: TxnId) -> Result<PageId> {
            self.mem.allocate(txn)
        }

        fn mutate(&self, txn: TxnId, page: &mut Page, op: &PageOp) -> Result<Lsn> {
            self.ops.lock().push(op.clone());
            self.mem.mutate(txn, page, op)
        }
    }

    fn is_leaf_rebuild(op: &PageOp) -> bool {
        matches!(op, PageOp::Rebuild { ptype: PageType::BTreeLeaf, .. })
    }

    /// The tree's leaves, left to right.
    fn leaves(io: &dyn PageAccess, at: PageId, out: &mut Vec<PageId>) {
        let page_ref = io.page(at).unwrap();
        let page = page_ref.read();
        if page.page_type().unwrap() == PageType::BTreeLeaf {
            out.push(at);
            return;
        }
        let children: Vec<PageId> =
            Slotted::iter(&page).map(|r| split_internal_record(r).1).collect();
        drop(page);
        for child in children {
            leaves(io, child, out);
        }
    }

    /// A full scan returns exactly `want`, in order.
    fn assert_scan(tree: &BTree, io: &dyn PageAccess, want: &[(Vec<u8>, Vec<u8>)]) {
        let all = tree.range(io, &[], &[0xFF; 210], usize::MAX).unwrap();
        assert_eq!(all.len(), want.len());
        assert!(all == want, "full scan is not the sorted key set");
    }

    #[test]
    fn insert_get_update_delete() {
        let io = MemIo::new(1);
        let tree = t(&io);
        let txn = TxnId::new(1);
        assert_eq!(tree.get(&io, &k(5)).unwrap(), None);
        let (old, _) = tree.insert(&io, txn, &k(5), b"five").unwrap();
        assert_eq!(old, None);
        assert_eq!(tree.get(&io, &k(5)).unwrap(), Some(b"five".to_vec()));
        let (old, _) = tree.insert(&io, txn, &k(5), b"FIVE!").unwrap();
        assert_eq!(old, Some(b"five".to_vec()));
        assert_eq!(tree.get(&io, &k(5)).unwrap(), Some(b"FIVE!".to_vec()));
        assert_eq!(tree.delete(&io, txn, &k(5)).unwrap(), Some(b"FIVE!".to_vec()));
        assert_eq!(tree.get(&io, &k(5)).unwrap(), None);
        assert_eq!(tree.delete(&io, txn, &k(5)).unwrap(), None);
    }

    #[test]
    fn many_inserts_split_and_stay_sorted() {
        let io = MemIo::new(1);
        let tree = t(&io);
        let txn = TxnId::new(1);
        let n = 5000u64;
        // Insert in a scrambled order.
        let mut order: Vec<u64> = (0..n).collect();
        let mut rng = socrates_common::rng::Rng::new(9);
        for i in (1..order.len()).rev() {
            let j = rng.gen_range((i + 1) as u64) as usize;
            order.swap(i, j);
        }
        for &i in &order {
            tree.insert(&io, txn, &k(i), format!("val-{i}").as_bytes()).unwrap();
        }
        assert!(io.len() > 10, "tree must have split into many pages");
        // Every key readable.
        for i in 0..n {
            assert_eq!(
                tree.get(&io, &k(i)).unwrap(),
                Some(format!("val-{i}").into_bytes()),
                "key {i}"
            );
        }
        // Full scan is sorted and complete.
        let all = tree.range(&io, &[], &[0xFF; 9], usize::MAX).unwrap();
        assert_eq!(all.len(), n as usize);
        for (i, (key, _)) in all.iter().enumerate() {
            assert_eq!(key, &k(i as u64));
        }
    }

    #[test]
    fn range_bounds_and_limit() {
        let io = MemIo::new(1);
        let tree = t(&io);
        let txn = TxnId::new(1);
        for i in 0..100u64 {
            tree.insert(&io, txn, &k(i), b"x").unwrap();
        }
        let r = tree.range(&io, &k(10), &k(20), usize::MAX).unwrap();
        assert_eq!(r.len(), 10);
        assert_eq!(r[0].0, k(10));
        assert_eq!(r[9].0, k(19));
        let r = tree.range(&io, &k(10), &k(20), 3).unwrap();
        assert_eq!(r.len(), 3);
        let r = tree.range(&io, &k(95), &k(200), usize::MAX).unwrap();
        assert_eq!(r.len(), 5);
        let r = tree.range(&io, &k(200), &k(300), usize::MAX).unwrap();
        assert!(r.is_empty());
    }

    #[test]
    fn large_payloads_split_correctly() {
        let io = MemIo::new(1);
        let tree = t(&io);
        let txn = TxnId::new(1);
        let payload = vec![7u8; 1500];
        for i in 0..200u64 {
            tree.insert(&io, txn, &k(i), &payload).unwrap();
        }
        for i in 0..200u64 {
            assert_eq!(tree.get(&io, &k(i)).unwrap().unwrap().len(), 1500, "key {i}");
        }
        // Growing updates force splits too.
        let bigger = vec![8u8; 1900];
        for i in 0..200u64 {
            tree.insert(&io, txn, &k(i), &bigger).unwrap();
        }
        for i in 0..200u64 {
            assert_eq!(tree.get(&io, &k(i)).unwrap().unwrap(), bigger, "key {i}");
        }
        let want: Vec<_> = (0..200u64).map(|i| (k(i), bigger.clone())).collect();
        assert_scan(&tree, &io, &want);
    }

    #[test]
    fn oversized_entry_rejected() {
        let io = MemIo::new(1);
        let tree = t(&io);
        let err = tree.insert(&io, TxnId::new(1), &k(1), &vec![0u8; MAX_ENTRY]).unwrap_err();
        assert_eq!(err.kind(), "invalid_argument");
    }

    #[test]
    fn matches_model_under_mixed_ops() {
        let io = MemIo::new(1);
        let tree = t(&io);
        let txn = TxnId::new(1);
        let mut model: BTreeMap<Vec<u8>, Vec<u8>> = BTreeMap::new();
        let mut rng = socrates_common::rng::Rng::new(1234);
        for step in 0..20_000u64 {
            let key = k(rng.gen_range(500));
            match rng.gen_range(10) {
                0..=5 => {
                    let val = format!("v{step}").into_bytes();
                    tree.insert(&io, txn, &key, &val).unwrap();
                    model.insert(key, val);
                }
                6..=7 => {
                    let got = tree.delete(&io, txn, &key).unwrap();
                    assert_eq!(got, model.remove(&key));
                }
                _ => {
                    assert_eq!(tree.get(&io, &key).unwrap(), model.get(&key).cloned());
                }
            }
        }
        // Final full comparison.
        let all = tree.range(&io, &[], &[0xFF; 9], usize::MAX).unwrap();
        let expect: Vec<(Vec<u8>, Vec<u8>)> =
            model.iter().map(|(a, b)| (a.clone(), b.clone())).collect();
        assert_eq!(all, expect);
    }

    #[test]
    fn descending_key_inserts() {
        let io = MemIo::new(1);
        let tree = t(&io);
        let txn = TxnId::new(1);
        for i in (0..2000u64).rev() {
            tree.insert(&io, txn, &k(i), b"d").unwrap();
        }
        let want: Vec<_> = (0..2000u64).map(|i| (k(i), b"d".to_vec())).collect();
        assert_scan(&tree, &io, &want);
    }

    #[test]
    fn deep_tree_with_wide_keys_cascades_splits() {
        let io = MemIo::new(1);
        let tree = t(&io);
        let txn = TxnId::new(1);
        let n = 3000u64;
        for i in 0..n {
            tree.insert(&io, txn, &widen(i * 7919 % n), &vec![1u8; 900]).unwrap();
        }
        for i in 0..n {
            assert!(tree.get(&io, &widen(i)).unwrap().is_some(), "key {i}");
        }
        let all = tree.range(&io, &[], &[0xFF; 210], usize::MAX).unwrap();
        assert_eq!(all.len(), n as usize);
    }

    #[test]
    fn split_beside_max_size_entries_keeps_every_key() {
        // Three max-size entries, four small ones sorting after them, then
        // a max-size key between the two groups: halving the eight records
        // by count would put four max-size entries on the left page.
        let io = MemIo::new(1);
        let tree = t(&io);
        let txn = TxnId::new(1);
        let wide = vec![5u8; MAX_ENTRY - 2 - 8];
        let mut want = BTreeMap::new();
        for (i, payload) in
            [1, 2, 3, 10, 11, 12, 13, 4].map(|i| (i, if i < 10 { wide.clone() } else { vec![6] }))
        {
            tree.insert(&io, txn, &k(i), &payload).unwrap();
            want.insert(k(i), payload);
        }
        let want: Vec<_> = want.into_iter().collect();
        assert_scan(&tree, &io, &want);
    }

    #[test]
    fn random_mix_of_max_size_and_small_keys_stays_sorted() {
        // Max-size keys make max-size separators, so internal nodes split
        // beside them too.
        let io = MemIo::new(1);
        let tree = t(&io);
        let txn = TxnId::new(1);
        let mut rng = socrates_common::rng::Rng::new(41);
        let mut model = BTreeMap::new();
        for i in 0..1500u64 {
            let mut key = k(rng.gen_range(1 << 40));
            if rng.gen_range(3) == 0 {
                key.resize(MAX_ENTRY - 2, 0);
            }
            let payload = vec![i as u8; (MAX_ENTRY - 2 - key.len()).min(24)];
            tree.insert(&io, txn, &key, &payload).unwrap();
            model.insert(key, payload);
        }
        let want: Vec<_> = model.into_iter().collect();
        assert_scan(&tree, &io, &want);
    }

    #[test]
    fn ascending_load_fills_every_leaf_and_rebuilds_none() {
        let io = Recording::new();
        let tree = t(&io);
        let txn = TxnId::new(1);
        let payload = vec![3u8; 230];
        let n = 4000u64;
        for i in 0..n {
            tree.insert(&io, txn, &widen(i), &payload).unwrap();
        }
        let ops = io.take();
        // The only leaf ever rebuilt is the first root growth moving the
        // root leaf's records down a level.
        assert_eq!(ops.iter().filter(|op| is_leaf_rebuild(op)).count(), 1);
        // Every record is logged about once: the split overhead is a
        // `Format` and the separator, not page images.
        let rec_len = leaf_record(&widen(0), &payload).len();
        let logged: usize = ops.iter().map(PageOp::encoded_len).sum();
        assert!(logged < n as usize * rec_len * 5 / 4, "{logged} B of log for {n} records");
        let mut ids = Vec::new();
        leaves(&io, tree.root(), &mut ids);
        assert!(ids.len() > 100, "only {} leaves", ids.len());
        for id in &ids[..ids.len() - 1] {
            let page_ref = io.page(*id).unwrap();
            assert!(!Slotted::can_insert(&page_ref.read(), rec_len), "leaf {id} has room");
        }
        let want: Vec<_> = (0..n).map(|i| (widen(i), payload.clone())).collect();
        assert_scan(&tree, &io, &want);
    }

    #[test]
    fn mid_page_split_logs_less_than_a_page() {
        let io = Recording::new();
        let tree = t(&io);
        let txn = TxnId::new(1);
        // Even keys in a scrambled order, then the odd keys: an odd key
        // lands mid-page, so a full leaf splits 50/50.
        let mut order: Vec<u64> = (0..4000u64).map(|i| 2 * i).collect();
        let mut rng = socrates_common::rng::Rng::new(17);
        for i in (1..order.len()).rev() {
            let j = rng.gen_range((i + 1) as u64) as usize;
            order.swap(i, j);
        }
        for &i in &order {
            tree.insert(&io, txn, &k(i), format!("val-{i}").as_bytes()).unwrap();
        }
        io.take();
        let mut splits = 0;
        for i in (1..8000u64).step_by(2) {
            tree.insert(&io, txn, &k(i), format!("val-{i}").as_bytes()).unwrap();
            let halves: Vec<usize> = io
                .take()
                .iter()
                .filter(|op| is_leaf_rebuild(op))
                .map(PageOp::encoded_len)
                .collect();
            if halves.is_empty() {
                continue;
            }
            assert_eq!(halves.len(), 2, "a split rebuilds both halves");
            assert!(halves.iter().sum::<usize>() < PAGE_SIZE, "halves log {halves:?} B");
            splits += 1;
        }
        assert!(splits >= 10, "only {splits} splits");
        let want: Vec<_> = (0..8000u64).map(|i| (k(i), format!("val-{i}").into_bytes())).collect();
        assert_scan(&tree, &io, &want);
    }
}

//! Immutable layer files for the page server's versioned store.
//!
//! The layered design (after Neon's storage engine, grounded in Lomet &
//! Tzoumas's logical recovery) keeps page *history* instead of a single
//! mutable image per page:
//!
//! * [`OpenLayer`] — the mutable head: incoming WAL is sliced per page
//!   into an open L0 delta layer, sealed into an immutable
//!   [`DeltaLayer`] once it crosses a size threshold.
//! * [`DeltaLayer`] — an immutable set of per-page `(LSN, PageOp)`
//!   deltas covering a contiguous LSN range. Sealed L0s hold raw apply
//!   order; compaction merges a run of L0s into one sorted, deduplicated
//!   delta layer that retains the same history for PITR.
//! * [`ImageLayer`] — materialized page images as of one LSN, backed by
//!   a covering [`Rbpex`] on a local device (RBPEX demoted from "the
//!   cache" to the L1 on-disk representation).
//!
//! Any page version in the retained window is reconstructed as
//! `newest image ≤ lsn` + ordered replay of the deltas in
//! `(image.at_lsn, lsn]` — the resolution the
//! [`LayerMap`](crate::layermap::LayerMap) index performs.

use crate::fcb::Fcb;
use crate::page::Page;
use crate::rbpex::{Rbpex, RbpexPolicy};
use socrates_common::{Lsn, PageId, Result};
use std::collections::BTreeMap;
use std::sync::Arc;

/// One per-page delta: the LSN that produced it and the encoded
/// [`PageOp`](crate::pageops::PageOp) bytes straight off the log.
pub type Delta = (Lsn, Vec<u8>);

/// The `(data, meta)` device pair backing a new L1 image layer: plain
/// in-memory devices, keyed by a diagnostic name.
pub fn mem_layer_devices(name: &str) -> (Arc<dyn Fcb>, Arc<dyn Fcb>) {
    (
        Arc::new(crate::fcb::MemFcb::new(format!("{name}-data"))) as Arc<dyn Fcb>,
        Arc::new(crate::fcb::MemFcb::new(format!("{name}-meta"))) as Arc<dyn Fcb>,
    )
}

/// The mutable head of the delta stack: WAL records land here in apply
/// order until the layer is sealed. Not shared — lives under the page
/// server's `open` mutex.
#[derive(Debug, Default)]
pub struct OpenLayer {
    by_page: BTreeMap<PageId, Vec<Delta>>,
    start: Lsn,
    end: Lsn,
    bytes: u64,
}

impl OpenLayer {
    /// An empty open layer.
    pub fn new() -> OpenLayer {
        OpenLayer { by_page: BTreeMap::new(), start: Lsn::MAX, end: Lsn::ZERO, bytes: 0 }
    }

    /// Record one delta. Deltas arrive in apply order, so per-page lists
    /// stay LSN-ascending without sorting.
    pub fn push(&mut self, page: PageId, lsn: Lsn, op: &[u8]) {
        self.bytes += (op.len() + 16) as u64;
        self.start = self.start.min(lsn);
        self.end = self.end.max(lsn);
        self.by_page.entry(page).or_default().push((lsn, op.to_vec()));
    }

    /// Approximate retained bytes (op payloads + per-delta overhead).
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Whether any delta has been pushed since the last seal.
    pub fn is_empty(&self) -> bool {
        self.by_page.is_empty()
    }

    /// Append this layer's deltas for `page` in `(lo, hi]` onto `out`,
    /// in ascending LSN order.
    pub fn deltas_for(&self, page: PageId, lo: Lsn, hi: Lsn, out: &mut Vec<Delta>) {
        if let Some(ds) = self.by_page.get(&page) {
            for (lsn, op) in ds {
                if *lsn > lo && *lsn <= hi {
                    out.push((*lsn, op.clone()));
                }
            }
        }
    }

    /// Freeze the current contents into an immutable L0 [`DeltaLayer`]
    /// and reset the open layer. Returns `None` when nothing was pushed.
    pub fn seal(&mut self) -> Option<Arc<DeltaLayer>> {
        if self.by_page.is_empty() {
            return None;
        }
        let sealed = DeltaLayer {
            by_page: std::mem::take(&mut self.by_page),
            start: self.start,
            end: self.end,
            bytes: self.bytes,
            compacted: false,
        };
        self.start = Lsn::MAX;
        self.end = Lsn::ZERO;
        self.bytes = 0;
        Some(Arc::new(sealed))
    }
}

/// An immutable delta layer: per-page LSN-ascending deltas covering the
/// LSN range `[start, end]`. Shared by `Arc` — a branch holds the same
/// allocation as its parent.
#[derive(Debug)]
pub struct DeltaLayer {
    by_page: BTreeMap<PageId, Vec<Delta>>,
    start: Lsn,
    end: Lsn,
    bytes: u64,
    /// `false` for a sealed L0 (raw apply slice), `true` for a
    /// compaction-merged layer (sorted, one list per page, kept for PITR
    /// below the matching image).
    compacted: bool,
}

impl DeltaLayer {
    /// Smallest delta LSN in the layer.
    pub fn start(&self) -> Lsn {
        self.start
    }

    /// Largest delta LSN in the layer (inclusive).
    pub fn end(&self) -> Lsn {
        self.end
    }

    /// Approximate retained bytes.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Whether this layer came out of compaction (vs. a sealed L0).
    pub fn is_compacted(&self) -> bool {
        self.compacted
    }

    /// Number of distinct pages touched.
    pub fn page_count(&self) -> usize {
        self.by_page.len()
    }

    /// The pages touched by this layer.
    pub fn pages(&self) -> impl Iterator<Item = PageId> + '_ {
        self.by_page.keys().copied()
    }

    /// Append this layer's deltas for `page` in `(lo, hi]` onto `out`,
    /// in ascending LSN order.
    pub fn deltas_for(&self, page: PageId, lo: Lsn, hi: Lsn, out: &mut Vec<Delta>) {
        if let Some(ds) = self.by_page.get(&page) {
            for (lsn, op) in ds {
                if *lsn > lo && *lsn <= hi {
                    out.push((*lsn, op.clone()));
                }
            }
        }
    }

    /// Merge several layers (each clipped to its `cap`) into one sorted
    /// delta layer. The merged layer retains the complete clipped history
    /// — compaction keeps it so PITR below the new image keeps working
    /// until GC drops it.
    pub fn merge(inputs: &[(Arc<DeltaLayer>, Lsn)]) -> Option<Arc<DeltaLayer>> {
        let mut by_page: BTreeMap<PageId, Vec<Delta>> = BTreeMap::new();
        let mut bytes = 0u64;
        let mut start = Lsn::MAX;
        let mut end = Lsn::ZERO;
        for (layer, cap) in inputs {
            for (page, ds) in &layer.by_page {
                for (lsn, op) in ds {
                    if *lsn > *cap {
                        continue;
                    }
                    bytes += (op.len() + 16) as u64;
                    start = start.min(*lsn);
                    end = end.max(*lsn);
                    by_page.entry(*page).or_default().push((*lsn, op.clone()));
                }
            }
        }
        if by_page.is_empty() {
            return None;
        }
        for ds in by_page.values_mut() {
            ds.sort_by_key(|&(lsn, _)| lsn);
            ds.dedup_by_key(|&mut (lsn, _)| lsn);
        }
        Some(Arc::new(DeltaLayer { by_page, start, end, bytes, compacted: true }))
    }
}

/// An L1 image layer: every materialized page as of `at_lsn`, stored in a
/// covering [`Rbpex`] on a local device. Immutable in LSN terms — pages
/// are only *added* (compaction fills it before publication; the
/// attach-time base image is seeded asynchronously), never replaced by a
/// newer version.
pub struct ImageLayer {
    at_lsn: Lsn,
    store: Rbpex,
}

impl std::fmt::Debug for ImageLayer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ImageLayer")
            .field("at_lsn", &self.at_lsn)
            .field("pages", &self.store.len())
            .finish()
    }
}

impl ImageLayer {
    /// Create an empty image layer at `at_lsn` covering the page range
    /// `[base, base + span)` on the given devices.
    pub fn create(
        at_lsn: Lsn,
        data: Arc<dyn Fcb>,
        meta: Arc<dyn Fcb>,
        base: u64,
        span: u64,
    ) -> Result<Arc<ImageLayer>> {
        let store = Rbpex::create(data, meta, RbpexPolicy::Covering { base, span })?;
        Ok(Arc::new(ImageLayer { at_lsn, store }))
    }

    /// The LSN this image is consistent with.
    pub fn at_lsn(&self) -> Lsn {
        self.at_lsn
    }

    /// Read one page image, if materialized here.
    pub fn get(&self, page: PageId) -> Result<Option<Page>> {
        self.store.get(page)
    }

    /// One-device-I/O partial range read (see
    /// [`Rbpex::get_range_partial`]).
    pub fn get_range_partial(&self, ids: &[PageId]) -> Result<Vec<Option<Page>>> {
        self.store.get_range_partial(ids)
    }

    /// Whether `page` is materialized here (directory lookup, no I/O).
    pub fn contains(&self, page: PageId) -> bool {
        self.store.contains(page)
    }

    /// Materialize `page` into the image. The page's PageLSN must be at
    /// or below `at_lsn` — an image never holds a version newer than the
    /// LSN it claims.
    pub fn put(&self, page: &Page) -> Result<()> {
        debug_assert!(
            page.page_lsn() <= self.at_lsn,
            "image@{} fed page {} from the future ({})",
            self.at_lsn,
            page.page_id(),
            page.page_lsn()
        );
        self.store.put(page)?;
        Ok(())
    }

    /// Every page id materialized in this image.
    pub fn page_ids(&self) -> Vec<PageId> {
        self.store.cached_ids()
    }

    /// Number of pages materialized.
    pub fn page_count(&self) -> usize {
        self.store.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fcb::MemFcb;
    use crate::page::PageType;
    use crate::pageops::{apply_page_op, PageOp};

    fn op_bytes(op: &PageOp) -> Vec<u8> {
        let mut b = Vec::new();
        op.encode(&mut b);
        b
    }

    #[test]
    fn open_layer_push_and_seal() {
        let mut open = OpenLayer::new();
        assert!(open.is_empty());
        assert!(open.seal().is_none());
        let fmt = op_bytes(&PageOp::Format { ptype: PageType::BTreeLeaf });
        open.push(PageId::new(3), Lsn::new(10), &fmt);
        open.push(PageId::new(3), Lsn::new(20), &fmt);
        open.push(PageId::new(4), Lsn::new(15), &fmt);
        assert!(open.bytes() > 0);
        let mut out = Vec::new();
        open.deltas_for(PageId::new(3), Lsn::new(10), Lsn::new(25), &mut out);
        assert_eq!(out.len(), 1, "(lo, hi] excludes lsn 10, includes 20");
        assert_eq!(out[0].0, Lsn::new(20));

        let sealed = open.seal().expect("non-empty");
        assert!(open.is_empty());
        assert_eq!(open.bytes(), 0);
        assert_eq!(sealed.start(), Lsn::new(10));
        assert_eq!(sealed.end(), Lsn::new(20));
        assert!(!sealed.is_compacted());
        assert_eq!(sealed.page_count(), 2);
    }

    #[test]
    fn merge_clips_to_caps_and_sorts() {
        let fmt = op_bytes(&PageOp::Format { ptype: PageType::BTreeLeaf });
        let mut a = OpenLayer::new();
        a.push(PageId::new(1), Lsn::new(5), &fmt);
        a.push(PageId::new(1), Lsn::new(30), &fmt);
        let a = a.seal().unwrap();
        let mut b = OpenLayer::new();
        b.push(PageId::new(1), Lsn::new(12), &fmt);
        b.push(PageId::new(2), Lsn::new(14), &fmt);
        let b = b.seal().unwrap();
        // Cap layer `a` at 20: the lsn-30 delta is excluded.
        let merged = DeltaLayer::merge(&[(a, Lsn::new(20)), (b, Lsn::MAX)]).unwrap();
        assert!(merged.is_compacted());
        assert_eq!(merged.start(), Lsn::new(5));
        assert_eq!(merged.end(), Lsn::new(14));
        let mut out = Vec::new();
        merged.deltas_for(PageId::new(1), Lsn::ZERO, Lsn::MAX, &mut out);
        assert_eq!(out.iter().map(|&(l, _)| l).collect::<Vec<_>>(), [Lsn::new(5), Lsn::new(12)]);
        // Fully-clipped merges collapse to nothing.
        assert!(DeltaLayer::merge(&[]).is_none());
    }

    #[test]
    fn image_layer_materializes_pages() {
        let img = ImageLayer::create(
            Lsn::new(100),
            Arc::new(MemFcb::new("img-data")),
            Arc::new(MemFcb::new("img-meta")),
            0,
            64,
        )
        .unwrap();
        assert_eq!(img.at_lsn(), Lsn::new(100));
        assert!(img.get(PageId::new(7)).unwrap().is_none());
        let mut page = Page::new(PageId::new(7), PageType::Free);
        apply_page_op(&mut page, &PageOp::Format { ptype: PageType::BTreeLeaf }, Lsn::new(90))
            .unwrap();
        img.put(&page).unwrap();
        assert!(img.contains(PageId::new(7)));
        let got = img.get(PageId::new(7)).unwrap().unwrap();
        assert_eq!(got.page_lsn(), Lsn::new(90));
        assert_eq!(img.page_count(), 1);
        assert_eq!(img.page_ids(), [PageId::new(7)]);
    }
}

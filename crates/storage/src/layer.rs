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
//! * [`ImageLayer`] — page images as of one LSN. A *packed* image holds
//!   only the pages compaction or GC chose to materialize, in
//!   consecutive frames of a device sized for exactly those pages; the
//!   attach-time *base* image is a dense page file over the partition
//!   (frame = page − base) that seeding and blob-read adoption fill in.
//!
//! Any page version in the retained window is reconstructed as the
//! newest image at or below `lsn` holding the page + ordered replay of
//! the page's deltas in `(image.at_lsn, lsn]` — the resolution the
//! [`LayerMap`](crate::layermap::LayerMap) index performs.

use crate::fcb::{Fcb, MemFcb, PageFile};
use crate::page::{Page, PAGE_SIZE};
use socrates_common::{Error, Lsn, PageId, Result};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// One per-page delta: the LSN that produced it and the encoded
/// [`PageOp`](crate::pageops::PageOp) bytes straight off the log.
pub type Delta = (Lsn, Vec<u8>);

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

    /// How many of this layer's deltas for `page` lie in `(lo, hi]` —
    /// [`deltas_for`](Self::deltas_for) without copying any op bytes.
    pub fn count_in(&self, page: PageId, lo: Lsn, hi: Lsn) -> usize {
        self.by_page
            .get(&page)
            .map_or(0, |ds| ds.iter().filter(|(l, _)| *l > lo && *l <= hi).count())
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

/// An L1 image layer: page images as of `at_lsn`. Every page it holds
/// is that page's version at `at_lsn`, never a newer one.
pub struct ImageLayer {
    at_lsn: Lsn,
    store: ImageStore,
}

enum ImageStore {
    /// The attach-time base image, which seeding and blob-read adoption
    /// add pages to.
    Base(BaseStore),
    /// A compaction or GC output, immutable once built: `ids` ascending,
    /// page `ids[i]` in frame `i`.
    Packed { ids: Vec<PageId>, file: PageFile },
}

/// A dense page file over the page range `[base, base + span)`: page `p`
/// lives in frame `p − base`, so a run of pages is one device read. Its
/// only state beside the device is one presence bit per frame — no
/// directory, journal or lock. Nothing recovers it: a restarted page
/// server re-seeds from its blob.
struct BaseStore {
    file: PageFile,
    base: u64,
    span: u64,
    /// Bit `f % 64` of word `f / 64` is set once frame `f` holds its page.
    present: Box<[AtomicU64]>,
}

impl BaseStore {
    /// The frame of `page`, if it lies in the covered range.
    fn frame(&self, page: PageId) -> Option<u64> {
        page.raw().checked_sub(self.base).filter(|&f| f < self.span)
    }

    fn bit(frame: u64) -> (usize, u64) {
        ((frame / 64) as usize, 1 << (frame % 64))
    }

    /// The frame of `page` if it is held here.
    fn held(&self, page: PageId) -> Option<u64> {
        let frame = self.frame(page)?;
        let (word, mask) = BaseStore::bit(frame);
        // ordering: acquire — pairs with put's release: a set bit means the
        // frame's write is visible to the device read that follows
        (self.present[word].load(Ordering::Acquire) & mask != 0).then_some(frame)
    }

    fn get(&self, page: PageId) -> Result<Option<Page>> {
        let Some(frame) = self.held(page) else { return Ok(None) };
        match self.file.read_page(frame, page) {
            Ok(p) => Ok(Some(p)),
            Err(Error::Corruption(_)) => {
                // A torn frame reads as absent, and adoption may refill it.
                let (word, mask) = BaseStore::bit(frame);
                // ordering: relaxed — clearing publishes no frame contents
                self.present[word].fetch_and(!mask, Ordering::Relaxed);
                Ok(None)
            }
            Err(e) => Err(e),
        }
    }

    fn get_range_partial(&self, ids: &[PageId]) -> Result<(Vec<Option<Page>>, Instant)> {
        let flagged: Vec<(PageId, bool)> =
            ids.iter().map(|&id| (id, self.held(id).is_some())).collect();
        let mut pages = vec![None; ids.len()];
        // Read only [first held, last held]: frames past the last may lie
        // beyond the device's high-water mark, and frames before the first
        // are known absent. Presence is still reported over the whole run.
        let (Some(first), Some(last)) =
            (flagged.iter().position(|f| f.1), flagged.iter().rposition(|f| f.1))
        else {
            return Ok((pages, Instant::now()));
        };
        let first_frame = ids[first].raw() - self.base;
        let (window, done) =
            self.file.read_page_range_partial(first_frame, &flagged[first..=last])?;
        for (slot, page) in pages[first..=last].iter_mut().zip(window) {
            *slot = page;
        }
        Ok((pages, done))
    }

    fn put(&self, page: &Page) -> Result<()> {
        let id = page.page_id();
        let frame = self.frame(id).ok_or_else(|| {
            Error::InvalidArgument(format!(
                "{id} outside the base image [{}, {})",
                self.base,
                self.base + self.span
            ))
        })?;
        self.file.write_page(frame, page)?;
        let (word, mask) = BaseStore::bit(frame);
        // ordering: release — publishes the frame write to readers that
        // acquire the bit
        self.present[word].fetch_or(mask, Ordering::Release);
        Ok(())
    }

    fn len(&self) -> usize {
        // ordering: relaxed — a count, publishing nothing
        self.present.iter().map(|w| w.load(Ordering::Relaxed).count_ones() as usize).sum()
    }
}

impl std::fmt::Debug for ImageLayer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ImageLayer")
            .field("at_lsn", &self.at_lsn)
            .field("packed", &matches!(self.store, ImageStore::Packed { .. }))
            .field("pages", &self.page_count())
            .finish()
    }
}

impl ImageLayer {
    /// An empty base image at `at_lsn` over the page range
    /// `[base, base + span)`, stored on `device` — the attach-time base.
    pub fn base(at_lsn: Lsn, device: Arc<dyn Fcb>, base: u64, span: u64) -> Arc<ImageLayer> {
        let present = (0..span.div_ceil(64)).map(|_| AtomicU64::new(0)).collect();
        let store = BaseStore { file: PageFile::new(device), base, span, present };
        Arc::new(ImageLayer { at_lsn, store: ImageStore::Base(store) })
    }

    /// A packed image at `at` holding exactly `pages` (ascending ids, no
    /// PageLSN above `at`), written to consecutive frames of an in-memory
    /// device sized up front to `pages.len()` frames — a sparse image
    /// never pays for the partition around it.
    pub fn packed(at: Lsn, pages: &[Page]) -> Result<Arc<ImageLayer>> {
        debug_assert!(pages.windows(2).all(|w| w[0].page_id() < w[1].page_id()), "unsorted image");
        debug_assert!(
            pages.iter().all(|p| p.page_lsn() <= at),
            "image@{at} fed a page from the future"
        );
        let len = (pages.len() * PAGE_SIZE) as u64;
        let file = PageFile::new(Arc::new(MemFcb::with_len(format!("image@{at}"), len)));
        for (frame, page) in pages.iter().enumerate() {
            file.write_page(frame as u64, page)?;
        }
        let ids = pages.iter().map(Page::page_id).collect();
        Ok(Arc::new(ImageLayer { at_lsn: at, store: ImageStore::Packed { ids, file } }))
    }

    /// The LSN this image is consistent with.
    pub fn at_lsn(&self) -> Lsn {
        self.at_lsn
    }

    /// Read one page image, if held here.
    pub fn get(&self, page: PageId) -> Result<Option<Page>> {
        match &self.store {
            ImageStore::Base(store) => store.get(page),
            ImageStore::Packed { ids, file } => match ids.binary_search(&page) {
                Ok(frame) => file.read_page(frame as u64, page).map(Some),
                Err(_) => Ok(None),
            },
        }
    }

    /// Issue one device read for whichever pages of the contiguous run
    /// `ids` this image holds, and return them (absent pages as `None`)
    /// with the instant the read completes ([`Fcb::read_deadline`]): a
    /// caller reading several runs waits once, for the last. The pages a
    /// packed image holds inside a contiguous run sit in consecutive
    /// frames, so a packed read is one device read too.
    pub fn get_range_partial(&self, ids: &[PageId]) -> Result<(Vec<Option<Page>>, Instant)> {
        let (ImageStore::Packed { ids: held, file }, Some(first), Some(last)) =
            (&self.store, ids.first(), ids.last())
        else {
            return match &self.store {
                ImageStore::Base(store) => store.get_range_partial(ids),
                ImageStore::Packed { .. } => Ok((Vec::new(), Instant::now())),
            };
        };
        let lo = held.partition_point(|p| p < first);
        let hi = held.partition_point(|p| p <= last);
        let mut out = vec![None; ids.len()];
        if lo >= hi {
            return Ok((out, Instant::now()));
        }
        let (pages, done) = file.read_page_range(lo as u64, &held[lo..hi])?;
        for page in pages {
            let slot = (page.page_id().raw() - first.raw()) as usize;
            out[slot] = Some(page);
        }
        Ok((out, done))
    }

    /// Whether `page` is held here (no I/O).
    pub fn contains(&self, page: PageId) -> bool {
        match &self.store {
            ImageStore::Base(store) => store.held(page).is_some(),
            ImageStore::Packed { ids, .. } => ids.binary_search(&page).is_ok(),
        }
    }

    /// Add `page` to the base image (seeding and blob-read adoption). The page's PageLSN must be at or below `at_lsn` — an
    /// image never holds a version newer than the LSN it claims. A packed
    /// image is immutable and refuses.
    pub fn put(&self, page: &Page) -> Result<()> {
        debug_assert!(
            page.page_lsn() <= self.at_lsn,
            "image@{} fed page {} from the future ({})",
            self.at_lsn,
            page.page_id(),
            page.page_lsn()
        );
        match &self.store {
            ImageStore::Base(store) => store.put(page),
            ImageStore::Packed { .. } => {
                Err(Error::InvalidState(format!("image@{} is packed and immutable", self.at_lsn)))
            }
        }
    }

    /// The pages a packed image holds, ascending. Empty for the base
    /// image, whose page set grows while it seeds.
    pub fn packed_ids(&self) -> &[PageId] {
        match &self.store {
            ImageStore::Base(_) => &[],
            ImageStore::Packed { ids, .. } => ids,
        }
    }

    /// Number of pages held.
    pub fn page_count(&self) -> usize {
        match &self.store {
            ImageStore::Base(store) => store.len(),
            ImageStore::Packed { ids, .. } => ids.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fcb::CountingFcb;
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

    fn formatted(page: u64, lsn: u64) -> Page {
        let mut p = Page::new(PageId::new(page), PageType::Free);
        apply_page_op(&mut p, &PageOp::Format { ptype: PageType::BTreeLeaf }, Lsn::new(lsn))
            .unwrap();
        p
    }

    /// A device that counts the I/Os issued to it.
    fn counting() -> Arc<CountingFcb<MemFcb>> {
        Arc::new(CountingFcb::new(MemFcb::new("counting")))
    }

    fn filled(page: u64, lsn: u64, fill: u8) -> Page {
        let mut p = formatted(page, lsn);
        p.body_mut()[0] = fill;
        p
    }

    #[test]
    fn base_image_materializes_pages() {
        let img = ImageLayer::base(Lsn::new(100), Arc::new(MemFcb::new("img")), 0, 64);
        assert_eq!(img.at_lsn(), Lsn::new(100));
        assert!(img.get(PageId::new(7)).unwrap().is_none());
        img.put(&formatted(7, 90)).unwrap();
        assert!(img.contains(PageId::new(7)));
        let got = img.get(PageId::new(7)).unwrap().unwrap();
        assert_eq!(got.page_lsn(), Lsn::new(90));
        assert_eq!(img.page_count(), 1);
        assert!(img.packed_ids().is_empty(), "the base image's page set is not fixed");
    }

    #[test]
    fn adopting_a_page_into_the_base_image_is_one_device_write() {
        let dev = counting();
        let img = ImageLayer::base(Lsn::new(100), Arc::clone(&dev) as Arc<dyn Fcb>, 1000, 256);
        let n = 40u64;
        for p in 0..n {
            img.put(&formatted(1000 + p * 3, 50)).unwrap();
        }
        assert_eq!(dev.writes(), n, "one write per page, no journal");
        assert_eq!(img.page_count(), n as usize);
        // `contains` is a bit test, not an I/O.
        assert!(img.contains(PageId::new(1003)) && !img.contains(PageId::new(1004)));
        assert_eq!(dev.reads() + dev.deadline_reads(), 0);
    }

    #[test]
    fn base_image_stride_layout_and_range_read() {
        let dev = counting();
        let img = ImageLayer::base(Lsn::new(100), Arc::clone(&dev) as Arc<dyn Fcb>, 100, 16);
        for i in 0..8u64 {
            img.put(&filled(100 + i, i, i as u8)).unwrap();
        }
        // Stride layout: page 103 lives at frame 3.
        let direct = PageFile::new(Arc::clone(&dev) as Arc<dyn Fcb>);
        assert_eq!(direct.read_page(3, PageId::new(103)).unwrap().body()[0], 3);
        // A range of 4 held pages is one device read, issued without a wait.
        let reads = (dev.reads(), dev.deadline_reads());
        let ids: Vec<PageId> = (102..106).map(PageId::new).collect();
        let pages = img.get_range_partial(&ids).unwrap().0;
        assert_eq!((dev.reads(), dev.deadline_reads()), (reads.0, reads.1 + 1));
        let fills: Vec<u8> = pages.iter().map(|p| p.as_ref().unwrap().body()[0]).collect();
        assert_eq!(fills, [2, 3, 4, 5]);
        // A run past the seeded pages comes back absent.
        let ids2: Vec<PageId> = (108..112).map(PageId::new).collect();
        assert!(img.get_range_partial(&ids2).unwrap().0.iter().all(Option::is_none));
        // Pages outside the covered range are refused.
        assert!(img.put(&filled(99, 0, 0)).is_err());
        assert!(img.put(&filled(116, 0, 0)).is_err());
    }

    #[test]
    fn partial_range_straddling_the_held_pages_reports_presence() {
        let img = ImageLayer::base(Lsn::new(100), Arc::new(MemFcb::new("img")), 100, 16);
        // Hold only the middle of the span: pages 104..108.
        for i in 4..8u64 {
            img.put(&filled(100 + i, i, i as u8)).unwrap();
        }
        // A range straddling both ends: absent prefix (102, 103), held
        // middle (104..108), absent suffix (108, 109).
        let ids: Vec<PageId> = (102..110).map(PageId::new).collect();
        let pages = img.get_range_partial(&ids).unwrap().0;
        assert_eq!(pages.len(), 8);
        assert!(pages[0].is_none() && pages[1].is_none());
        for i in 2..6 {
            let p = pages[i].as_ref().expect("held page must be present");
            assert_eq!(p.body()[0], (i + 2) as u8);
            assert_eq!(p.page_id(), ids[i]);
        }
        assert!(pages[6].is_none() && pages[7].is_none());
        // A fully absent range past the device's high-water mark reads
        // nothing and reports every page absent.
        let ids2: Vec<PageId> = (110..114).map(PageId::new).collect();
        assert!(img.get_range_partial(&ids2).unwrap().0.iter().all(Option::is_none));
    }

    #[test]
    fn a_torn_base_frame_reads_as_absent_and_can_be_adopted_again() {
        let dev = Arc::new(MemFcb::new("img"));
        let img = ImageLayer::base(Lsn::new(100), Arc::clone(&dev) as Arc<dyn Fcb>, 0, 8);
        img.put(&filled(1, 10, 1)).unwrap();
        dev.write_at(PAGE_SIZE as u64 + 50, &[0xFF; 8]).unwrap();
        assert!(img.get(PageId::new(1)).unwrap().is_none());
        assert!(!img.contains(PageId::new(1)));
        img.put(&filled(1, 10, 9)).unwrap();
        assert_eq!(img.get(PageId::new(1)).unwrap().unwrap().body()[0], 9);
    }

    #[test]
    fn packed_image_holds_exactly_its_pages() {
        let pages: Vec<Page> = [3, 4, 9, 40].iter().map(|&p| formatted(p, 10 + p)).collect();
        let img = ImageLayer::packed(Lsn::new(100), &pages).unwrap();
        assert_eq!(img.page_count(), 4);
        assert_eq!(img.packed_ids(), [3, 4, 9, 40].map(PageId::new));
        assert!(img.contains(PageId::new(9)) && !img.contains(PageId::new(5)));
        assert_eq!(img.get(PageId::new(40)).unwrap().unwrap().page_lsn(), Lsn::new(50));
        assert!(img.get(PageId::new(41)).unwrap().is_none());
        // A contiguous run reads the held pages in one device read and
        // reports the rest absent.
        let run: Vec<PageId> = (2..11).map(PageId::new).collect();
        let got = img.get_range_partial(&run).unwrap().0;
        let held: Vec<u64> = got.iter().flatten().map(|p| p.page_id().raw()).collect();
        assert_eq!(held, [3, 4, 9]);
        assert!(got[0].is_none() && got[1].is_some() && got[7].is_some());
        assert!(img.get_range_partial(&[PageId::new(41)]).unwrap().0[0].is_none());
        // Packed images are immutable.
        assert!(img.put(&formatted(5, 20)).is_err());
        // An image with no pages is well-formed (and empty).
        assert_eq!(ImageLayer::packed(Lsn::new(1), &[]).unwrap().page_count(), 0);
    }
}

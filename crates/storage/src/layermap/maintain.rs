//! The layer map's control plane: construction, compaction and GC
//! commits, forks and snapshots. None of it runs on the serve path, so
//! unlike its parent module it is not `soclint:hot`.

use super::{
    entries_above, CappedDeltas, DeltaEntry, Inner, LayerMap, PageIndex, Shadows, STORAGE_LAYERMAP,
};
use crate::layer::{DeltaLayer, ImageLayer};
use parking_lot::Mutex;
use socrates_common::{Lsn, PageId};
use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;

/// What a GC pass at some horizon retires, and which pages it must image
/// first ([`LayerMap::gc_plan`]).
#[derive(Debug, Default)]
pub struct GcPlan {
    /// Delta layers wholly at or below the horizon.
    pub doomed: Vec<Arc<DeltaLayer>>,
    /// Pages with a delta in a doomed layer that no image in `[that
    /// layer's end, horizon]` holds: their version at the horizon must be
    /// imaged before the layers go.
    pub stragglers: Vec<PageId>,
}

fn key(image: &Arc<ImageLayer>) -> usize {
    Arc::as_ptr(image) as usize
}

impl Shadows {
    fn credit(&mut self, image: &Arc<ImageLayer>) {
        let n = self.count.entry(key(image)).or_default();
        *n += 1;
        if *n == image.page_count() {
            self.ready.push(Arc::clone(image));
        }
    }

    /// Extend `entry`'s shadowed prefix to every image older than its
    /// newest image at or below `horizon`.
    fn settle(&mut self, entry: &mut PageIndex, horizon: Lsn) {
        let target = entry.images.partition_point(|i| i.at_lsn() <= horizon).saturating_sub(1);
        for image in entry.images.get(entry.shadowed..target).unwrap_or_default() {
            self.credit(image);
        }
        entry.shadowed = entry.shadowed.max(target);
    }
}

impl Inner {
    /// A layer set with its index built from scratch (a fork's child, or
    /// the reference the tests check the incremental index against).
    fn build(
        base: Option<Arc<ImageLayer>>,
        images: Vec<Arc<ImageLayer>>,
        merged: Vec<DeltaEntry>,
        l0: Vec<DeltaEntry>,
        horizon: Lsn,
    ) -> Inner {
        let mut inner = Inner {
            base,
            images: Vec::new(),
            l0,
            merged,
            index: HashMap::new(),
            horizon,
            shadows: Shadows::default(),
        };
        let mut deltas: Vec<&DeltaEntry> = inner.merged.iter().chain(&inner.l0).collect();
        deltas.sort_by_key(|e| e.layer.start());
        for e in deltas {
            for page in e.layer.pages() {
                inner.index.entry(page).or_default().deltas.push(e.clone());
            }
        }
        for image in images {
            inner.insert_image(image);
        }
        inner
    }

    fn insert_image(&mut self, image: Arc<ImageLayer>) {
        let at = image.at_lsn();
        let pos = self.images.partition_point(|i| i.at_lsn() <= at);
        self.images.insert(pos, Arc::clone(&image));
        self.shadows.count.insert(key(&image), 0);
        for &page in image.packed_ids() {
            let entry = self.index.entry(page).or_default();
            let pos = entry.images.partition_point(|i| i.at_lsn() <= at);
            entry.images.insert(pos, Arc::clone(&image));
            if pos < entry.shadowed {
                // Older than an image already shadowing this page.
                entry.shadowed += 1;
                self.shadows.credit(&image);
            }
            self.shadows.settle(entry, self.horizon);
        }
    }

    /// Drop the index entry of `page` once nothing references it.
    fn prune(&mut self, page: PageId) {
        if self.index.get(&page).is_some_and(|e| e.images.is_empty() && e.deltas.is_empty()) {
            self.index.remove(&page);
        }
    }

    fn drop_image(&mut self, image: &Arc<ImageLayer>) {
        self.images.retain(|i| !Arc::ptr_eq(i, image));
        self.shadows.count.remove(&key(image));
        for &page in image.packed_ids() {
            if let Some(entry) = self.index.get_mut(&page) {
                if let Some(pos) = entry.images.iter().position(|i| Arc::ptr_eq(i, image)) {
                    entry.images.remove(pos);
                    entry.shadowed -= usize::from(pos < entry.shadowed);
                }
            }
            self.prune(page);
        }
    }
}

impl Default for LayerMap {
    fn default() -> Self {
        LayerMap::new()
    }
}

impl LayerMap {
    /// An empty layer set with no base image.
    pub fn new() -> LayerMap {
        LayerMap::empty(None)
    }

    /// An empty layer set over the attach-time `base` image.
    pub fn with_base(base: Arc<ImageLayer>) -> LayerMap {
        LayerMap::empty(Some(base))
    }

    fn empty(base: Option<Arc<ImageLayer>>) -> LayerMap {
        LayerMap::from_inner(Inner::build(base, Vec::new(), Vec::new(), Vec::new(), Lsn::ZERO))
    }

    fn from_inner(inner: Inner) -> LayerMap {
        LayerMap { inner: Mutex::with_rank(inner, STORAGE_LAYERMAP, "layermap.inner") }
    }

    /// The `pages` (ascending) whose chain of deltas above their newest
    /// image at or below `at` has reached `depth` — counted from the
    /// index, copying no op bytes.
    pub fn deep_pages(&self, pages: &[PageId], at: Lsn, depth: usize) -> Vec<PageId> {
        let inner = self.inner.lock();
        let deep = |page: PageId| {
            let (image, Some(entry)) = inner.resolve(page, at) else { return false };
            let floor = image.map_or(Lsn::ZERO, |i| i.at_lsn());
            let mut n = 0;
            for e in entries_above(entry, floor, at) {
                n += e.layer.count_in(page, floor, at.min(e.cap));
                if n >= depth {
                    return true;
                }
            }
            false
        };
        pages.iter().copied().filter(|&p| deep(p)).collect()
    }

    /// Snapshot the compaction input: every sealed L0 with its cap. The
    /// caller merges and images outside the lock and commits with
    /// [`apply_compaction`](Self::apply_compaction).
    pub fn compaction_input(&self) -> CappedDeltas {
        self.inner.lock().l0.iter().map(|e| (Arc::clone(&e.layer), e.cap)).collect()
    }

    /// Commit a compaction: drop the consumed L0s, retain their merged
    /// history, and publish the new image (if the pass built one). One
    /// atomic swap under the index lock — readers see either the old
    /// layer set or the new one.
    pub fn apply_compaction(
        &self,
        consumed: &[(Arc<DeltaLayer>, Lsn)],
        merged: Option<Arc<DeltaLayer>>,
        image: Option<Arc<ImageLayer>>,
    ) {
        let is_consumed = |e: &DeltaEntry| consumed.iter().any(|(c, _)| Arc::ptr_eq(c, &e.layer));
        let mut inner = self.inner.lock();
        inner.l0.retain(|e| !is_consumed(e));
        // The consumed L0s are the newest entries of each of their pages
        // bar L0s sealed since the snapshot, so only that tail is edited.
        if let Some(lo) = consumed.iter().map(|(l, _)| l.start()).min() {
            for page in consumed.iter().flat_map(|(l, _)| l.pages()) {
                let Some(entry) = inner.index.get_mut(&page) else { continue };
                let from = entry.deltas.partition_point(|d| d.layer.start() < lo);
                let tail = entry.deltas.split_off(from);
                entry.deltas.extend(tail.into_iter().filter(|d| !is_consumed(d)));
                inner.prune(page);
            }
        }
        if let Some(layer) = merged {
            let e = DeltaEntry { layer, cap: Lsn::MAX };
            for page in e.layer.pages() {
                let entry = inner.index.entry(page).or_default();
                let pos = entry.deltas.partition_point(|d| d.layer.start() < e.layer.start());
                entry.deltas.insert(pos, e.clone());
            }
            inner.merged.push(e);
        }
        if let Some(image) = image {
            inner.insert_image(image);
        }
    }

    /// Plan a retention GC pass at `horizon`: the delta layers wholly at
    /// or below it, and the pages that must be imaged at the horizon
    /// before they go. Work is proportional to the doomed layers' pages.
    pub fn gc_plan(&self, horizon: Lsn) -> GcPlan {
        let inner = self.inner.lock();
        let doomed: Vec<&DeltaEntry> =
            inner.merged.iter().chain(&inner.l0).filter(|e| e.effective_end() <= horizon).collect();
        let pages: BTreeSet<PageId> = doomed.iter().flat_map(|e| e.layer.pages()).collect();
        let straggler = |page: &PageId| {
            let Some(entry) = inner.index.get(page) else { return false };
            let last = entry.deltas.partition_point(|d| d.effective_end() <= horizon);
            let Some(newest_doomed) = last.checked_sub(1).map(|i| entry.deltas[i].effective_end())
            else {
                return false;
            };
            let imaged = entry.images.partition_point(|i| i.at_lsn() <= horizon);
            imaged.checked_sub(1).is_none_or(|i| entry.images[i].at_lsn() < newest_doomed)
        };
        GcPlan {
            doomed: doomed.iter().map(|e| Arc::clone(&e.layer)).collect(),
            stragglers: pages.into_iter().filter(straggler).collect(),
        }
    }

    /// Commit a GC pass at `horizon`: publish the stragglers' `image`,
    /// drop the `doomed` delta layers (from [`gc_plan`](Self::gc_plan)),
    /// and drop every packed image older than the horizon whose every
    /// page a newer image at or below the horizon holds. The base image
    /// is never dropped. Returns the number of layers dropped.
    pub fn apply_gc(
        &self,
        horizon: Lsn,
        doomed: &[Arc<DeltaLayer>],
        image: Option<Arc<ImageLayer>>,
    ) -> usize {
        let mut inner = self.inner.lock();
        let inner = &mut *inner;
        let prev = inner.horizon;
        inner.horizon = prev.max(horizon);
        if let Some(image) = image {
            inner.insert_image(image);
        }
        // Images that newly fall at or below the horizon shadow the older
        // images of their pages.
        let lo = inner.images.partition_point(|i| i.at_lsn() <= prev);
        let hi = inner.images.partition_point(|i| i.at_lsn() <= inner.horizon);
        for image in &inner.images[lo..hi] {
            for page in image.packed_ids() {
                if let Some(entry) = inner.index.get_mut(page) {
                    inner.shadows.settle(entry, inner.horizon);
                }
            }
        }
        let is_doomed = |e: &DeltaEntry| doomed.iter().any(|d| Arc::ptr_eq(d, &e.layer));
        let before = inner.l0.len() + inner.merged.len();
        inner.l0.retain(|e| !is_doomed(e));
        inner.merged.retain(|e| !is_doomed(e));
        let mut dropped = before - inner.l0.len() - inner.merged.len();
        for layer in doomed {
            for page in layer.pages() {
                if let Some(entry) = inner.index.get_mut(&page) {
                    if let Some(pos) =
                        entry.deltas.iter().position(|d| Arc::ptr_eq(&d.layer, layer))
                    {
                        entry.deltas.remove(pos);
                    }
                }
                inner.prune(page);
            }
        }
        for image in std::mem::take(&mut inner.shadows.ready) {
            inner.drop_image(&image);
            dropped += 1;
        }
        dropped
    }

    /// Fork this layer set at `at`: the child shares the base image and
    /// every packed image at or below `at`, and every delta layer with
    /// history at or below `at`, zero-copy (`Arc` clones), with caps
    /// clipped to the branch point. Only the snapshot is taken under the
    /// lock; the child's index is built outside it.
    pub fn fork_at(&self, at: Lsn) -> LayerMap {
        let clip = |e: &DeltaEntry| {
            (e.layer.start() <= at)
                .then(|| DeltaEntry { layer: Arc::clone(&e.layer), cap: e.cap.min(at) })
        };
        let (base, images, merged, l0) = {
            let inner = self.inner.lock();
            (
                inner.base.as_ref().filter(|b| b.at_lsn() <= at).map(Arc::clone),
                inner.images.iter().filter(|i| i.at_lsn() <= at).map(Arc::clone).collect(),
                inner.merged.iter().filter_map(clip).collect(),
                inner.l0.iter().filter_map(clip).collect(),
            )
        };
        LayerMap::from_inner(Inner::build(base, images, merged, l0, Lsn::ZERO))
    }

    /// Every delta layer currently held (tests assert zero-copy branch
    /// sharing with `Arc::ptr_eq` over this snapshot).
    pub fn delta_layers(&self) -> Vec<Arc<DeltaLayer>> {
        let inner = self.inner.lock();
        inner.l0.iter().chain(inner.merged.iter()).map(|e| Arc::clone(&e.layer)).collect()
    }

    /// Every image layer currently held: the base image (if any), then
    /// the packed images by ascending `at_lsn`.
    pub fn image_layers(&self) -> Vec<Arc<ImageLayer>> {
        let inner = self.inner.lock();
        inner.base.iter().chain(inner.images.iter()).map(Arc::clone).collect()
    }

    /// Panic unless the incrementally maintained index (and shadow
    /// credit) equals one rebuilt from scratch over the same layers.
    #[cfg(test)]
    pub(crate) fn assert_index_consistent(&self) {
        let inner = self.inner.lock();
        let mut fresh = Inner::build(
            inner.base.clone(),
            inner.images.clone(),
            inner.merged.clone(),
            inner.l0.clone(),
            inner.horizon,
        );
        // A from-scratch build credits nothing a GC has not yet retired.
        fresh.shadows.ready.clear();
        let mut pages: Vec<&PageId> = inner.index.keys().chain(fresh.index.keys()).collect();
        pages.sort();
        pages.dedup();
        for page in pages {
            let (got, want) = (inner.index.get(page), fresh.index.get(page));
            let (Some(got), Some(want)) = (got, want) else {
                panic!("{page}: indexed {} vs rebuilt {}", got.is_some(), want.is_some());
            };
            assert_eq!(got.shadowed, want.shadowed, "{page}: shadowed prefix");
            assert!(
                got.images.len() == want.images.len()
                    && got.images.iter().zip(&want.images).all(|(a, b)| Arc::ptr_eq(a, b)),
                "{page}: image lists differ"
            );
            assert!(
                got.deltas.len() == want.deltas.len()
                    && got
                        .deltas
                        .iter()
                        .zip(&want.deltas)
                        .all(|(a, b)| Arc::ptr_eq(&a.layer, &b.layer) && a.cap == b.cap),
                "{page}: delta lists differ"
            );
        }
        assert_eq!(inner.shadows.count, fresh.shadows.count, "shadow credit");
    }
}

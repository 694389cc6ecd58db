#![doc = "soclint:hot"]
//! The layer index: which layer files can answer `GetPage(X, lsn)`.
//!
//! A [`LayerMap`] holds one partition's layer set — L1 image layers
//! sorted by their consistent LSN, sealed L0 delta layers in seal order,
//! and compaction-merged delta layers — and plans the resolution of an
//! arbitrary historical read:
//!
//! 1. pick the **newest image with `at_lsn ≤ lsn`** (the base), and
//! 2. collect every delta in `(base.at_lsn, lsn]`, ascending.
//!
//! The page server replays the deltas over the base image (or over the
//! external base — XStore blob or an empty page — when no image covers
//! the page). Step 1 alone suffices because compaction maintains the
//! **superset-image invariant**: every compaction consumes the newest
//! image plus a prefix of the sealed L0s, so each image materializes the
//! prior image's pages ∪ all delta-touched pages — a page absent from
//! the chosen image has no history at or below that image's LSN.
//!
//! Branches share layers **zero-copy**: [`LayerMap::fork_at`] clones the
//! `Arc`s and clips each shared delta layer with a `cap` LSN so a parent
//! L0 straddling the branch point only replays its pre-branch prefix.
//!
//! This module is `soclint:hot`: the resolution planner runs on every
//! page-server serve-path miss, so it takes the index lock only to walk
//! in-memory directories and appends into a caller-owned scratch buffer.
//! All layer I/O (image-store reads) happens after the lock is released.

use crate::layer::{Delta, DeltaLayer, ImageLayer};
use parking_lot::Mutex;
use socrates_common::lock_rank::STORAGE_LAYERMAP;
use socrates_common::{Lsn, PageId};
use std::sync::Arc;

/// Sealed delta layers paired with their per-holder replay caps — the
/// shape [`LayerMap::compaction_input`] snapshots and
/// [`DeltaLayer::merge`] consumes.
pub type CappedDeltas = Vec<(Arc<DeltaLayer>, Lsn)>;

/// A delta layer as held by one `LayerMap`: the shared immutable layer
/// plus this holder's replay cap (`Lsn::MAX` for a layer the holder owns
/// outright; the branch point for a layer inherited from a parent).
#[derive(Clone, Debug)]
pub struct DeltaEntry {
    /// The shared layer file.
    pub layer: Arc<DeltaLayer>,
    /// Replay ceiling: deltas above this LSN belong to the parent's
    /// divergent future and are invisible to this holder.
    pub cap: Lsn,
}

impl DeltaEntry {
    /// The newest LSN this holder may replay from the layer.
    fn effective_end(&self) -> Lsn {
        self.layer.end().min(self.cap)
    }
}

/// Layer-set sizes, for gauges and compaction scheduling.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LayerCounts {
    /// Sealed, not-yet-compacted L0 delta layers.
    pub l0: usize,
    /// L1 image layers.
    pub images: usize,
    /// Compaction-merged delta layers retained for PITR.
    pub merged: usize,
}

struct Inner {
    /// Image layers, ascending `at_lsn`.
    images: Vec<Arc<ImageLayer>>,
    /// Sealed L0s in seal (LSN) order.
    l0: Vec<DeltaEntry>,
    /// Compaction outputs retained for history below their image.
    merged: Vec<DeltaEntry>,
}

/// The page-range × LSN-range index over one partition's layer files.
pub struct LayerMap {
    inner: Mutex<Inner>,
}

impl Default for LayerMap {
    fn default() -> Self {
        LayerMap::new()
    }
}

impl LayerMap {
    /// An empty layer set.
    pub fn new() -> LayerMap {
        LayerMap {
            inner: Mutex::with_rank(
                Inner { images: Vec::default(), l0: Vec::default(), merged: Vec::default() },
                STORAGE_LAYERMAP,
                "layermap.inner",
            ),
        }
    }

    /// Register an image layer (attach-time base, or a compaction that
    /// used [`apply_compaction`](Self::apply_compaction)'s slow path).
    pub fn add_image(&self, image: Arc<ImageLayer>) {
        let mut inner = self.inner.lock();
        let at = image.at_lsn();
        let pos = inner.images.partition_point(|i| i.at_lsn() <= at);
        inner.images.insert(pos, image);
    }

    /// Register a sealed L0 delta layer (called after every seal).
    pub fn add_sealed(&self, layer: Arc<DeltaLayer>) {
        self.inner.lock().l0.push(DeltaEntry { layer, cap: Lsn::MAX });
    }

    /// Plan the resolution of `(page, lsn)`: returns the base image (if
    /// any image at or below `lsn` exists) and its LSN, and appends every
    /// visible delta in `(base, lsn]` onto `out` in ascending LSN order.
    /// `out` is a caller-owned scratch buffer — this path allocates only
    /// when deltas are actually found.
    pub fn plan_into(
        &self,
        page: PageId,
        lsn: Lsn,
        out: &mut Vec<Delta>,
    ) -> (Option<Arc<ImageLayer>>, Lsn) {
        let inner = self.inner.lock();
        let pos = inner.images.partition_point(|i| i.at_lsn() <= lsn);
        let image = if pos > 0 { Some(Arc::clone(&inner.images[pos - 1])) } else { None };
        let base = image.as_ref().map(|i| i.at_lsn()).unwrap_or(Lsn::ZERO);
        for e in inner.l0.iter().chain(inner.merged.iter()) {
            if e.layer.start() > lsn || e.effective_end() <= base {
                continue;
            }
            e.layer.deltas_for(page, base, lsn.min(e.cap), out);
        }
        out.sort_unstable_by_key(|a| a.0);
        out.dedup_by(|a, b| a.0 == b.0);
        (image, base)
    }

    /// The newest image at or below `lsn`, if any.
    pub fn newest_image(&self, lsn: Lsn) -> Option<Arc<ImageLayer>> {
        let inner = self.inner.lock();
        let pos = inner.images.partition_point(|i| i.at_lsn() <= lsn);
        if pos > 0 {
            Some(Arc::clone(&inner.images[pos - 1]))
        } else {
            None
        }
    }

    /// Layer-set sizes.
    pub fn counts(&self) -> LayerCounts {
        let inner = self.inner.lock();
        LayerCounts { l0: inner.l0.len(), images: inner.images.len(), merged: inner.merged.len() }
    }

    /// Snapshot the compaction input: every sealed L0 (with its cap) and
    /// the newest image. The caller materializes outside the lock and
    /// commits with [`apply_compaction`](Self::apply_compaction).
    // soclint-allow: hot-path control-plane snapshot for the compactor, off the serve path
    pub fn compaction_input(&self) -> (CappedDeltas, Option<Arc<ImageLayer>>) {
        let inner = self.inner.lock();
        let l0: CappedDeltas = inner.l0.iter().map(|e| (Arc::clone(&e.layer), e.cap)).collect();
        let image = inner.images.last().map(Arc::clone);
        (l0, image)
    }

    /// Commit a compaction: drop the consumed L0s, retain their merged
    /// history, and publish the new image. One atomic swap under the
    /// index lock — readers see either the old layer set or the new one.
    pub fn apply_compaction(
        &self,
        consumed: &[(Arc<DeltaLayer>, Lsn)],
        merged: Option<Arc<DeltaLayer>>,
        image: Arc<ImageLayer>,
    ) {
        let mut inner = self.inner.lock();
        inner.l0.retain(|e| !consumed.iter().any(|(c, _)| Arc::ptr_eq(c, &e.layer)));
        if let Some(m) = merged {
            inner.merged.push(DeltaEntry { layer: m, cap: Lsn::MAX });
        }
        let at = image.at_lsn();
        let pos = inner.images.partition_point(|i| i.at_lsn() <= at);
        inner.images.insert(pos, image);
    }

    /// Retention GC: pick the newest image at or below `horizon` as the
    /// floor, drop every older image and every delta layer wholly at or
    /// below the floor (their history is subsumed by the floor image via
    /// the superset invariant). Returns the number of layers dropped and
    /// the floor LSN, or `None` when no image can serve as a floor.
    pub fn gc(&self, horizon: Lsn) -> Option<(usize, Lsn)> {
        let mut inner = self.inner.lock();
        let pos = inner.images.partition_point(|i| i.at_lsn() <= horizon);
        if pos == 0 {
            return None;
        }
        let floor = inner.images[pos - 1].at_lsn();
        let before = inner.images.len() + inner.l0.len() + inner.merged.len();
        inner.images.retain(|i| i.at_lsn() >= floor);
        inner.l0.retain(|e| e.effective_end() > floor);
        inner.merged.retain(|e| e.effective_end() > floor);
        let after = inner.images.len() + inner.l0.len() + inner.merged.len();
        Some((before - after, floor))
    }

    /// Fork this layer set at `at`: the child shares every image at or
    /// below `at` and every delta layer with history at or below `at`
    /// zero-copy (`Arc` clones), with caps clipped to the branch point.
    // soclint-allow: hot-path branch creation is a control-plane operation
    pub fn fork_at(&self, at: Lsn) -> LayerMap {
        let inner = self.inner.lock();
        let images: Vec<Arc<ImageLayer>> =
            inner.images.iter().filter(|i| i.at_lsn() <= at).map(Arc::clone).collect();
        let clip = |e: &DeltaEntry| {
            if e.layer.start() > at {
                None
            } else {
                Some(DeltaEntry { layer: Arc::clone(&e.layer), cap: e.cap.min(at) })
            }
        };
        let l0: Vec<DeltaEntry> = inner.l0.iter().filter_map(clip).collect();
        let merged: Vec<DeltaEntry> = inner.merged.iter().filter_map(clip).collect();
        LayerMap {
            inner: Mutex::with_rank(
                Inner { images, l0, merged },
                STORAGE_LAYERMAP,
                "layermap.inner",
            ),
        }
    }

    /// Every delta layer currently held (tests assert zero-copy branch
    /// sharing with `Arc::ptr_eq` over this snapshot).
    // soclint-allow: hot-path diagnostic snapshot, off the serve path
    pub fn delta_layers(&self) -> Vec<Arc<DeltaLayer>> {
        let inner = self.inner.lock();
        inner.l0.iter().chain(inner.merged.iter()).map(|e| Arc::clone(&e.layer)).collect()
    }

    /// Every image layer currently held, ascending `at_lsn`.
    // soclint-allow: hot-path diagnostic snapshot, off the serve path
    pub fn image_layers(&self) -> Vec<Arc<ImageLayer>> {
        let inner = self.inner.lock();
        inner.images.iter().map(Arc::clone).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fcb::MemFcb;
    use crate::layer::OpenLayer;
    use crate::page::{Page, PageType};
    use crate::pageops::{apply_page_op, PageOp};

    fn op_bytes(op: &PageOp) -> Vec<u8> {
        let mut b = Vec::new();
        op.encode(&mut b);
        b
    }

    fn sealed(deltas: &[(u64, u64)]) -> Arc<DeltaLayer> {
        let fmt = op_bytes(&PageOp::Format { ptype: PageType::BTreeLeaf });
        let mut open = OpenLayer::new();
        for &(page, lsn) in deltas {
            open.push(PageId::new(page), Lsn::new(lsn), &fmt);
        }
        open.seal().unwrap()
    }

    fn image(at: u64, pages: &[(u64, u64)]) -> Arc<ImageLayer> {
        let img = ImageLayer::create(
            Lsn::new(at),
            Arc::new(MemFcb::new(format!("img{at}-data"))),
            Arc::new(MemFcb::new(format!("img{at}-meta"))),
            0,
            256,
        )
        .unwrap();
        for &(page, lsn) in pages {
            let mut p = Page::new(PageId::new(page), PageType::Free);
            apply_page_op(&mut p, &PageOp::Format { ptype: PageType::BTreeLeaf }, Lsn::new(lsn))
                .unwrap();
            img.put(&p).unwrap();
        }
        img
    }

    #[test]
    fn plan_picks_newest_image_and_clips_deltas() {
        let map = LayerMap::new();
        map.add_image(image(10, &[(1, 5)]));
        map.add_image(image(30, &[(1, 25)]));
        map.add_sealed(sealed(&[(1, 15), (1, 25), (1, 40)]));
        let mut out = Vec::new();
        // lsn 20: base image@10, deltas in (10, 20] → only lsn 15.
        let (img, base) = map.plan_into(PageId::new(1), Lsn::new(20), &mut out);
        assert_eq!(base, Lsn::new(10));
        assert_eq!(img.unwrap().at_lsn(), Lsn::new(10));
        assert_eq!(out.iter().map(|d| d.0).collect::<Vec<_>>(), [Lsn::new(15)]);
        // lsn 40: base image@30, deltas in (30, 40].
        out.clear();
        let (img, base) = map.plan_into(PageId::new(1), Lsn::new(40), &mut out);
        assert_eq!(base, Lsn::new(30));
        assert_eq!(img.unwrap().at_lsn(), Lsn::new(30));
        assert_eq!(out.iter().map(|d| d.0).collect::<Vec<_>>(), [Lsn::new(40)]);
        // lsn 5: no image at or below → base ZERO, no image.
        out.clear();
        let (img, base) = map.plan_into(PageId::new(1), Lsn::new(5), &mut out);
        assert!(img.is_none());
        assert_eq!(base, Lsn::ZERO);
        assert!(out.is_empty());
    }

    #[test]
    fn compaction_swaps_l0s_for_merged_plus_image() {
        let map = LayerMap::new();
        map.add_sealed(sealed(&[(1, 5), (2, 7)]));
        map.add_sealed(sealed(&[(1, 12)]));
        assert_eq!(map.counts(), LayerCounts { l0: 2, images: 0, merged: 0 });
        let (input, img) = map.compaction_input();
        assert_eq!(input.len(), 2);
        assert!(img.is_none());
        let merged = DeltaLayer::merge(&input).unwrap();
        map.apply_compaction(&input, Some(merged), image(12, &[(1, 12), (2, 7)]));
        assert_eq!(map.counts(), LayerCounts { l0: 0, images: 1, merged: 1 });
        // History below the image still resolves through the merged layer.
        let mut out = Vec::new();
        let (img, base) = map.plan_into(PageId::new(1), Lsn::new(6), &mut out);
        assert!(img.is_none(), "no image at or below lsn 6");
        assert_eq!(base, Lsn::ZERO);
        assert_eq!(out.iter().map(|d| d.0).collect::<Vec<_>>(), [Lsn::new(5)]);
    }

    #[test]
    fn gc_drops_layers_below_the_floor_image() {
        let map = LayerMap::new();
        map.add_image(image(10, &[(1, 5)]));
        map.add_image(image(30, &[(1, 25)]));
        map.add_sealed(sealed(&[(1, 8)])); // wholly below floor 30
        map.add_sealed(sealed(&[(1, 35)])); // above
        assert!(map.gc(Lsn::new(5)).is_none(), "no image at or below 5");
        let (dropped, floor) = map.gc(Lsn::new(40)).unwrap();
        assert_eq!(floor, Lsn::new(30));
        assert_eq!(dropped, 2, "image@10 and the lsn-8 L0");
        assert_eq!(map.counts(), LayerCounts { l0: 1, images: 1, merged: 0 });
    }

    #[test]
    fn fork_shares_layers_zero_copy_with_caps() {
        let map = LayerMap::new();
        map.add_image(image(10, &[(1, 5)]));
        let straddling = sealed(&[(1, 15), (1, 40)]);
        map.add_sealed(Arc::clone(&straddling));
        let child = map.fork_at(Lsn::new(20));
        // Zero-copy: same allocations.
        let parent_layers = map.delta_layers();
        let child_layers = child.delta_layers();
        assert_eq!(child_layers.len(), 1);
        assert!(Arc::ptr_eq(&parent_layers[0], &child_layers[0]));
        assert!(Arc::ptr_eq(&map.image_layers()[0], &child.image_layers()[0]));
        // The cap hides the parent's post-branch delta (lsn 40)...
        let mut out = Vec::new();
        child.plan_into(PageId::new(1), Lsn::MAX, &mut out);
        assert_eq!(out.iter().map(|d| d.0).collect::<Vec<_>>(), [Lsn::new(15)]);
        // ...while the parent still sees it.
        out.clear();
        map.plan_into(PageId::new(1), Lsn::MAX, &mut out);
        assert_eq!(out.iter().map(|d| d.0).collect::<Vec<_>>(), [Lsn::new(15), Lsn::new(40)]);
        // Layers entirely past the branch point are not inherited.
        map.add_sealed(sealed(&[(1, 50)]));
        let child2 = map.fork_at(Lsn::new(20));
        assert_eq!(child2.delta_layers().len(), 1);
    }
}

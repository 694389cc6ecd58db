#![doc = "soclint:hot"]
//! The layer index: which layer files can answer `GetPage(X, lsn)`.
//!
//! A [`LayerMap`] holds one partition's layer set — the attach-time base
//! image, packed L1 images sorted by their consistent LSN, sealed L0
//! delta layers in seal order and compaction-merged delta layers — and a
//! **per-page index** over it: for each page, the packed images holding
//! it (ascending `at_lsn`) and the delta entries touching it (ascending
//! LSN). Resolving `(page, lsn)`:
//!
//! 1. pick the **newest image at or below `lsn` that holds the page**,
//!    falling back to the base image, and
//! 2. collect every delta in `(image.at_lsn, lsn]` from the page's delta
//!    entries above that image — found by binary search, since the
//!    entries below it are exactly a prefix of the page's list.
//!
//! The page server replays the deltas over the image's copy (or over the
//! external base — XStore blob or an empty page — when the base image
//! does not hold the page). Two invariants make that exact: every page in
//! an image is that page's version at the image's LSN, and every delta
//! above a page's newest image is reachable through the page's index
//! entry. Delta entries are disjoint and ascending in LSN, caps included,
//! which is what lets the walk stop at the image.
//!
//! Seal, compaction, GC and [`LayerMap::fork_at`] update the index only
//! for the pages of the layers they add or drop: no O(history) work runs
//! under the index lock. Retention GC ([`LayerMap::gc_plan`] +
//! [`LayerMap::apply_gc`]) drops delta layers wholly at or below its
//! horizon once their pages are imaged at or above them, and packed
//! images every page of which a newer image at or below the horizon
//! holds; the base image is never dropped.
//!
//! Branches share layers **zero-copy**: `fork_at` clones the `Arc`s and
//! clips each shared delta layer with a `cap` LSN so a parent L0
//! straddling the branch point only replays its pre-branch prefix.
//!
//! This module is `soclint:hot`: the resolution planner runs on every
//! page-server serve-path miss, so it takes the index lock only to walk
//! in-memory directories and appends into a caller-owned scratch buffer.
//! All layer I/O (image reads) happens after the lock is released. The
//! control plane — construction, compaction and GC commits, forks and
//! snapshots — lives in the `maintain` submodule, off the serve path.

use crate::layer::{Delta, DeltaLayer, ImageLayer};
use parking_lot::Mutex;
use socrates_common::lock_rank::STORAGE_LAYERMAP;
use socrates_common::{Lsn, PageId};
use std::collections::HashMap;
use std::sync::Arc;

mod maintain;
pub use maintain::GcPlan;

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
    /// L1 image layers: the packed images plus the base image.
    pub images: usize,
    /// Compaction-merged delta layers retained for PITR.
    pub merged: usize,
}

/// One page's index entry.
#[derive(Clone, Debug, Default)]
struct PageIndex {
    /// Packed images holding the page, ascending `at_lsn`.
    images: Vec<Arc<ImageLayer>>,
    /// `images[..shadowed]` are older than the page's newest image at or
    /// below the map's GC horizon, and credited as such in
    /// [`Shadows::count`].
    shadowed: usize,
    /// Delta entries touching the page, ascending (disjoint) LSN.
    deltas: Vec<DeltaEntry>,
}

/// Which packed images a newer image at or below the GC horizon holds
/// every page of — the ones GC may drop.
#[derive(Debug, Default)]
struct Shadows {
    /// Per packed image (keyed by its allocation's address, stable while
    /// the map holds it): how many of its pages are shadowed.
    count: HashMap<usize, usize>,
    /// Images whose every page is shadowed, awaiting the next GC.
    ready: Vec<Arc<ImageLayer>>,
}

struct Inner {
    /// The attach-time base image: the resolution of last resort.
    base: Option<Arc<ImageLayer>>,
    /// Packed images, ascending `at_lsn`.
    images: Vec<Arc<ImageLayer>>,
    /// Sealed L0s in seal (LSN) order.
    l0: Vec<DeltaEntry>,
    /// Compaction outputs retained for history below their images.
    merged: Vec<DeltaEntry>,
    /// The per-page index over `images`, `l0` and `merged`.
    index: HashMap<PageId, PageIndex>,
    /// The horizon of the newest GC pass.
    horizon: Lsn,
    shadows: Shadows,
}

impl Inner {
    /// The newest image at or below `lsn` holding `page`, else the base
    /// image when it is at or below `lsn`; and the page's index entry.
    fn resolve(&self, page: PageId, lsn: Lsn) -> (Option<&Arc<ImageLayer>>, Option<&PageIndex>) {
        let entry = self.index.get(&page);
        let packed = entry.and_then(|e| {
            let pos = e.images.partition_point(|i| i.at_lsn() <= lsn);
            pos.checked_sub(1).map(|p| &e.images[p])
        });
        let image = packed.or_else(|| self.base.as_ref().filter(|b| b.at_lsn() <= lsn));
        (image, entry)
    }
}

/// The delta entries of `entry` that may hold a delta in `(floor, lsn]`,
/// oldest first.
fn entries_above(entry: &PageIndex, floor: Lsn, lsn: Lsn) -> impl Iterator<Item = &DeltaEntry> {
    let from = entry.deltas.partition_point(|d| d.effective_end() <= floor);
    entry.deltas[from..].iter().take_while(move |d| d.layer.start() <= lsn)
}

/// The page-range × LSN-range index over one partition's layer files.
pub struct LayerMap {
    inner: Mutex<Inner>,
}

impl LayerMap {
    /// Register a sealed L0 delta layer (called after every seal).
    pub fn add_sealed(&self, layer: Arc<DeltaLayer>) {
        let entry = DeltaEntry { layer, cap: Lsn::MAX };
        let mut inner = self.inner.lock();
        for page in entry.layer.pages() {
            inner.index.entry(page).or_default().deltas.push(entry.clone());
        }
        inner.l0.push(entry);
    }

    /// Plan the resolution of `(page, lsn)`: returns the image to read the
    /// page from (if any image at or below `lsn` applies), and appends
    /// every visible delta above it up to `lsn` onto `out`, which it
    /// leaves sorted by LSN without duplicates. `out` is a caller-owned
    /// scratch buffer — this path allocates only when deltas are found.
    pub fn plan_into(
        &self,
        page: PageId,
        lsn: Lsn,
        out: &mut Vec<Delta>,
    ) -> Option<Arc<ImageLayer>> {
        let image = {
            let inner = self.inner.lock();
            let (image, entry) = inner.resolve(page, lsn);
            let floor = image.map_or(Lsn::ZERO, |i| i.at_lsn());
            for e in entry.into_iter().flat_map(|e| entries_above(e, floor, lsn)) {
                e.layer.deltas_for(page, floor, lsn.min(e.cap), out);
            }
            image.map(Arc::clone)
        };
        out.sort_unstable_by_key(|a| a.0);
        out.dedup_by(|a, b| a.0 == b.0);
        image
    }

    /// Layer-set sizes.
    pub fn counts(&self) -> LayerCounts {
        let inner = self.inner.lock();
        LayerCounts {
            l0: inner.l0.len(),
            images: inner.images.len() + usize::from(inner.base.is_some()),
            merged: inner.merged.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fcb::MemFcb;
    use crate::layer::OpenLayer;
    use crate::page::{Page, PageType};
    use crate::pageops::{apply_page_op, PageOp};
    use socrates_common::rng::Rng;

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

    fn page(page: u64, lsn: u64) -> Page {
        let mut p = Page::new(PageId::new(page), PageType::Free);
        apply_page_op(&mut p, &PageOp::Format { ptype: PageType::BTreeLeaf }, Lsn::new(lsn))
            .unwrap();
        p
    }

    /// A packed image at `at` holding `pages` (ascending `(page, lsn)`).
    fn image(at: u64, pages: &[(u64, u64)]) -> Arc<ImageLayer> {
        let pages: Vec<Page> = pages.iter().map(|&(p, l)| page(p, l)).collect();
        ImageLayer::packed(Lsn::new(at), &pages).unwrap()
    }

    fn base(at: u64) -> Arc<ImageLayer> {
        ImageLayer::base(Lsn::new(at), Arc::new(MemFcb::new("base")), 0, 256)
    }

    fn publish(map: &LayerMap, image: Arc<ImageLayer>) {
        map.apply_compaction(&[], None, Some(image));
    }

    fn lsns(out: &[Delta]) -> Vec<u64> {
        out.iter().map(|d| d.0.offset()).collect()
    }

    #[test]
    fn plan_picks_the_newest_holding_image_and_clips_deltas() {
        let map = LayerMap::new();
        publish(&map, image(10, &[(1, 5)]));
        publish(&map, image(30, &[(1, 25)]));
        map.add_sealed(sealed(&[(1, 15), (1, 25), (1, 40)]));
        let mut out = Vec::new();
        // lsn 20: image@10, deltas in (10, 20] → only lsn 15.
        let img = map.plan_into(PageId::new(1), Lsn::new(20), &mut out);
        assert_eq!(img.unwrap().at_lsn(), Lsn::new(10));
        assert_eq!(lsns(&out), [15]);
        // lsn 40: image@30, deltas in (30, 40].
        out.clear();
        let img = map.plan_into(PageId::new(1), Lsn::new(40), &mut out);
        assert_eq!(img.unwrap().at_lsn(), Lsn::new(30));
        assert_eq!(lsns(&out), [40]);
        // lsn 5: no image at or below → no image, no deltas.
        out.clear();
        assert!(map.plan_into(PageId::new(1), Lsn::new(5), &mut out).is_none());
        assert!(out.is_empty());
        map.assert_index_consistent();
    }

    #[test]
    fn a_page_only_an_older_image_holds_resolves_to_it_plus_its_deltas() {
        let map = LayerMap::with_base(base(0));
        map.add_sealed(sealed(&[(1, 5), (2, 6), (2, 8)]));
        publish(&map, image(10, &[(1, 5), (2, 8)]));
        map.add_sealed(sealed(&[(1, 12), (2, 14), (1, 18)]));
        // A newer image holds page 2 only.
        publish(&map, image(20, &[(2, 14)]));
        map.add_sealed(sealed(&[(1, 22), (2, 24), (3, 26)]));
        let mut out = Vec::new();
        let img = map.plan_into(PageId::new(1), Lsn::new(30), &mut out).unwrap();
        assert_eq!(img.at_lsn(), Lsn::new(10), "page 1's newest image is the older one");
        assert_eq!(lsns(&out), [12, 18, 22]);
        out.clear();
        let img = map.plan_into(PageId::new(2), Lsn::new(30), &mut out).unwrap();
        assert_eq!(img.at_lsn(), Lsn::new(20));
        assert_eq!(lsns(&out), [24]);
        // No packed image holds page 3: the base image is its image.
        out.clear();
        let img = map.plan_into(PageId::new(3), Lsn::new(30), &mut out).unwrap();
        assert_eq!(img.at_lsn(), Lsn::ZERO);
        assert_eq!(lsns(&out), [26]);
        map.assert_index_consistent();
    }

    #[test]
    fn deep_pages_counts_the_deltas_above_each_pages_image() {
        let map = LayerMap::new();
        map.add_sealed(sealed(&[(1, 1), (1, 2), (2, 3)]));
        publish(&map, image(2, &[(1, 2)]));
        map.add_sealed(sealed(&[(1, 4), (2, 5), (2, 6), (1, 7)]));
        let pages = [1, 2, 3].map(PageId::new);
        // Page 1 has 2 deltas above its image@2; page 2 has 3 from empty.
        assert_eq!(map.deep_pages(&pages, Lsn::new(10), 2), [1, 2].map(PageId::new));
        assert_eq!(map.deep_pages(&pages, Lsn::new(10), 3), [PageId::new(2)]);
        assert_eq!(map.deep_pages(&pages, Lsn::new(5), 2), [PageId::new(2)]);
    }

    #[test]
    fn compaction_swaps_l0s_for_merged_plus_image() {
        let map = LayerMap::new();
        map.add_sealed(sealed(&[(1, 5), (2, 7)]));
        map.add_sealed(sealed(&[(1, 12)]));
        assert_eq!(map.counts(), LayerCounts { l0: 2, images: 0, merged: 0 });
        let input = map.compaction_input();
        assert_eq!(input.len(), 2);
        let merged = DeltaLayer::merge(&input).unwrap();
        map.apply_compaction(&input, Some(merged), Some(image(12, &[(1, 12)])));
        assert_eq!(map.counts(), LayerCounts { l0: 0, images: 1, merged: 1 });
        map.assert_index_consistent();
        // History below the image still resolves through the merged layer.
        let mut out = Vec::new();
        assert!(map.plan_into(PageId::new(1), Lsn::new(6), &mut out).is_none());
        assert_eq!(lsns(&out), [5]);
        // Page 2 is in no image: it replays from empty.
        out.clear();
        assert!(map.plan_into(PageId::new(2), Lsn::new(20), &mut out).is_none());
        assert_eq!(lsns(&out), [7]);
    }

    #[test]
    fn gc_drops_layers_below_the_horizon_behind_images() {
        let map = LayerMap::with_base(base(0));
        map.add_sealed(sealed(&[(1, 5)]));
        publish(&map, image(10, &[(1, 5)]));
        map.add_sealed(sealed(&[(1, 25)]));
        publish(&map, image(30, &[(1, 25)]));
        map.add_sealed(sealed(&[(1, 45)])); // above every horizon below
                                            // Nothing is wholly at or below 4: a no-op.
        let plan = map.gc_plan(Lsn::new(4));
        assert!(plan.doomed.is_empty() && plan.stragglers.is_empty());
        assert_eq!(map.apply_gc(Lsn::new(4), &plan.doomed, None), 0);
        // At 40 the two old L0s go; page 1's image@30 covers them, so no
        // straggler, and it shadows image@10.
        let plan = map.gc_plan(Lsn::new(40));
        assert_eq!(plan.doomed.len(), 2);
        assert!(plan.stragglers.is_empty(), "image@30 holds page 1 above both doomed layers");
        assert_eq!(map.apply_gc(Lsn::new(40), &plan.doomed, None), 3, "two L0s and image@10");
        assert_eq!(map.counts(), LayerCounts { l0: 1, images: 2, merged: 0 });
        map.assert_index_consistent();
        let mut out = Vec::new();
        let img = map.plan_into(PageId::new(1), Lsn::new(50), &mut out).unwrap();
        assert_eq!(img.at_lsn(), Lsn::new(30));
        assert_eq!(lsns(&out), [45]);
    }

    #[test]
    fn gc_images_its_stragglers_drops_shadowed_images_and_keeps_the_base() {
        let map = LayerMap::with_base(base(0));
        let base_image = Arc::clone(&map.image_layers()[0]);
        map.add_sealed(sealed(&[(1, 5), (2, 6)]));
        publish(&map, image(10, &[(1, 5), (2, 6)]));
        map.add_sealed(sealed(&[(1, 12), (3, 14)]));
        map.add_sealed(sealed(&[(1, 30), (3, 31)]));
        let old = Arc::downgrade(&map.image_layers()[1]);
        // Horizon 20: the lsn-12/14 layer is doomed; pages 1 and 3 have no
        // image at or above it, the lsn-5/6 layer is covered by image@10.
        let plan = map.gc_plan(Lsn::new(20));
        assert_eq!(plan.doomed.len(), 2);
        assert_eq!(plan.stragglers, [1, 3].map(PageId::new));
        let stragglers = image(20, &[(1, 12), (3, 14)]);
        assert_eq!(map.apply_gc(Lsn::new(20), &plan.doomed, Some(stragglers)), 2);
        // image@10 still holds page 2, which nothing newer holds: kept.
        assert_eq!(map.counts(), LayerCounts { l0: 1, images: 3, merged: 0 });
        map.assert_index_consistent();
        let mut out = Vec::new();
        assert_eq!(
            map.plan_into(PageId::new(1), Lsn::new(40), &mut out).unwrap().at_lsn(),
            Lsn::new(20)
        );
        assert_eq!(lsns(&out), [30]);
        // Once a newer image at or below the horizon holds page 2 too,
        // image@10 goes — and its bytes with it.
        map.add_sealed(sealed(&[(2, 40)]));
        publish(&map, image(40, &[(2, 40)]));
        let plan = map.gc_plan(Lsn::new(45));
        assert_eq!(plan.stragglers, [1, 3].map(PageId::new));
        let stragglers = image(45, &[(1, 30), (3, 31)]);
        let dropped = map.apply_gc(Lsn::new(45), &plan.doomed, Some(stragglers));
        assert_eq!(dropped, 4, "two L0s, image@10 and image@20");
        map.assert_index_consistent();
        assert!(old.upgrade().is_none(), "a dropped image's bytes must be freed");
        let images = map.image_layers();
        assert!(Arc::ptr_eq(&images[0], &base_image), "GC never drops the base image");
        assert_eq!(images.iter().map(|i| i.at_lsn().offset()).collect::<Vec<_>>(), [0, 40, 45]);
    }

    #[test]
    fn an_image_published_behind_a_shadowing_one_is_credited_at_once() {
        let map = LayerMap::new();
        publish(&map, image(10, &[(1, 10), (2, 10)]));
        publish(&map, image(40, &[(1, 40)]));
        // image@40 shadows image@10 for page 1 only: nothing to drop.
        assert_eq!(map.apply_gc(Lsn::new(50), &[], None), 0);
        // An image of page 1 older than both is shadowed on arrival.
        publish(&map, image(5, &[(1, 5)]));
        map.assert_index_consistent();
        assert_eq!(map.apply_gc(Lsn::new(50), &[], None), 1, "only image@5 goes");
        map.assert_index_consistent();
        let mut out = Vec::new();
        let img = map.plan_into(PageId::new(2), Lsn::new(50), &mut out).unwrap();
        assert_eq!(img.at_lsn(), Lsn::new(10), "page 2 still needs image@10");
    }

    #[test]
    fn fork_shares_layers_zero_copy_with_caps() {
        let map = LayerMap::with_base(base(0));
        publish(&map, image(10, &[(1, 5)]));
        let straddling = sealed(&[(1, 15), (1, 40)]);
        map.add_sealed(Arc::clone(&straddling));
        let child = map.fork_at(Lsn::new(20));
        child.assert_index_consistent();
        // Zero-copy: same allocations.
        let parent_layers = map.delta_layers();
        let child_layers = child.delta_layers();
        assert_eq!(child_layers.len(), 1);
        assert!(Arc::ptr_eq(&parent_layers[0], &child_layers[0]));
        for (p, c) in map.image_layers().iter().zip(&child.image_layers()) {
            assert!(Arc::ptr_eq(p, c));
        }
        // The cap hides the parent's post-branch delta (lsn 40)...
        let mut out = Vec::new();
        child.plan_into(PageId::new(1), Lsn::MAX, &mut out);
        assert_eq!(lsns(&out), [15]);
        // ...while the parent still sees it.
        out.clear();
        map.plan_into(PageId::new(1), Lsn::MAX, &mut out);
        assert_eq!(lsns(&out), [15, 40]);
        // Layers entirely past the branch point are not inherited.
        map.add_sealed(sealed(&[(1, 50)]));
        let child2 = map.fork_at(Lsn::new(20));
        assert_eq!(child2.delta_layers().len(), 1);
    }

    /// Seal, compaction (imaging a random subset of the touched pages),
    /// GC and fork in a seeded random order: after every step the
    /// incrementally maintained index equals one rebuilt from scratch,
    /// and every page resolves through it as a plain scan of all layers
    /// would.
    #[test]
    fn the_incremental_index_equals_a_rebuilt_one() {
        for seed in [1, 7, 42] {
            let mut rng = Rng::new(seed);
            let mut maps = vec![LayerMap::with_base(base(0))];
            let mut lsn = 1u64;
            let mut horizon = 0u64;
            let mut dropped = 0;
            for _ in 0..300 {
                let which = rng.gen_range(maps.len() as u64) as usize;
                let map = &maps[which];
                match rng.gen_range(10) {
                    0..=5 => {
                        let mut deltas = Vec::new();
                        for _ in 0..1 + rng.gen_range(6) {
                            deltas.push((rng.gen_range(24), lsn));
                            lsn += 1;
                        }
                        map.add_sealed(sealed(&deltas));
                    }
                    6 | 7 => {
                        let input = map.compaction_input();
                        let Some(cutoff) = input.iter().map(|(l, c)| l.end().min(*c)).max() else {
                            continue;
                        };
                        let mut touched: Vec<PageId> =
                            input.iter().flat_map(|(l, _)| l.pages()).collect();
                        touched.sort();
                        touched.dedup();
                        let chosen: Vec<(u64, u64)> = touched
                            .iter()
                            .filter(|_| rng.gen_range(2) == 0)
                            .map(|p| (p.raw(), cutoff.offset()))
                            .collect();
                        let img = (!chosen.is_empty()).then(|| image(cutoff.offset(), &chosen));
                        map.apply_compaction(&input, DeltaLayer::merge(&input), img);
                    }
                    8 => {
                        horizon = horizon.max(lsn.saturating_sub(20 + rng.gen_range(20)));
                        let h = Lsn::new(horizon);
                        let plan = map.gc_plan(h);
                        let pages: Vec<(u64, u64)> =
                            plan.stragglers.iter().map(|p| (p.raw(), horizon)).collect();
                        let img = (!pages.is_empty()).then(|| image(horizon, &pages));
                        dropped += map.apply_gc(h, &plan.doomed, img);
                    }
                    _ => {
                        if maps.len() < 4 {
                            let child = map.fork_at(Lsn::new(lsn - 1));
                            maps.push(child);
                        }
                    }
                }
                for m in &maps {
                    m.assert_index_consistent();
                }
            }
            assert!(dropped > 0, "seed {seed}: GC never dropped a layer");
        }
    }
}

//! A secondary scan's read-ahead, counted at the RBPEX device.

use super::*;
use socrates_engine::{BTree, MemIo};
use socrates_storage::{CountingFcb, Fcb, MemFcb, PageSource, RangedPageSource, Rbpex};

/// A source that holds no page: these tests never fetch.
struct NoRemote;

impl PageSource for NoRemote {
    fn fetch_page(&self, id: PageId, _min_lsn: Lsn) -> Result<Page> {
        Err(Error::NotFound(format!("{id}")))
    }
}

impl RangedPageSource for NoRemote {
    fn fetch_pages(&self, ids: &[PageId], _min_lsn: Lsn) -> Result<Vec<Page>> {
        Err(Error::NotFound(format!("{ids:?}")))
    }
}

#[test]
fn a_scan_reads_its_rbpex_leaves_with_one_deadline_read_each() {
    // A tree of some ten leaves under one root, built in memory.
    let built = MemIo::new(1);
    let tree = BTree::create(&built, TxnId::new(1)).unwrap();
    for k in 0u32..40 {
        tree.insert(&built, TxnId::new(1), &k.to_be_bytes(), &[7; 1000]).unwrap();
    }
    // Every page of it in RBPEX only, on a counted device.
    let ssd = Arc::new(CountingFcb::new(MemFcb::new("ssd")));
    let meta = Arc::new(MemFcb::new("meta"));
    let rbpex = Rbpex::create(Arc::clone(&ssd) as Arc<dyn Fcb>, meta, 64).unwrap();
    for id in 1..=built.len() as u64 {
        rbpex.put(&built.page(PageId::new(id)).unwrap().read()).unwrap();
    }
    let cache = TieredCache::with_scheduler(
        64,
        Some(Arc::new(rbpex)),
        Arc::new(NoRemote),
        Arc::new(|_| {}),
        Arc::new(|_, _| {}),
        (Arc::new(socrates_common::obs::SpanRing::disabled()), NodeId::secondary(0)),
        false,
    );
    let io = SecondaryIo::new(
        cache,
        Arc::new(EvictedLsnMap::new(16)),
        Arc::new(Watermark::new(Lsn::ZERO)),
        Arc::default(),
    );
    let rows = BTree::open(tree.root())
        .range(&io, &4u32.to_be_bytes(), &20u32.to_be_bytes(), 100)
        .unwrap();
    assert_eq!(rows.len(), 16);
    // The root is read on demand; each leaf is one read issued by the
    // read-ahead, and every read counts once, as an SSD hit.
    let (reads, leaves) = (ssd.reads(), ssd.deadline_reads());
    assert_eq!(reads, 1, "only the root is waited out alone");
    assert!(leaves >= 3, "the scan read {leaves} leaves");
    assert_eq!(io.cache.stats().ssd_hits.get(), reads + leaves);
    assert_eq!(io.data_pages.hit_rate(), 1.0);
}

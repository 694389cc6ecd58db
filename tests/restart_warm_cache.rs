//! RBPEX recoverability (paper §3.3): after a short restart, a node
//! recovers its SSD cache and only replays the log records newer than each
//! cached page — instead of refetching its whole working set.

use socrates_common::fault::FaultRegistry;
use socrates_common::{Lsn, PageId, TxnId};
use socrates_storage::fcb::{Fcb, MemFcb};
use socrates_storage::page::{Page, PageType};
use socrates_storage::pageops::{apply_page_op, PageOp};
use socrates_storage::rbpex::Rbpex;
use socrates_wal::block::BlockBuilder;
use socrates_wal::record::{LogPayload, LogRecord};
use std::sync::Arc;

#[test]
fn restart_replays_only_the_delta() {
    // The SSD device and its metadata journal survive the "restart".
    let ssd: Arc<MemFcb> = Arc::new(MemFcb::new("ssd"));
    let meta: Arc<MemFcb> = Arc::new(MemFcb::new("meta"));
    let n_pages = 64u64;

    // Life 1: a cache with 64 pages, each updated a few times.
    let mut log: Vec<(PageId, Vec<u8>, Lsn)> = Vec::new();
    let mut next_lsn = 100u64;
    {
        let cache =
            Rbpex::create(Arc::clone(&ssd) as Arc<dyn Fcb>, Arc::clone(&meta), n_pages as usize)
                .unwrap();
        for pid in 0..n_pages {
            let mut page = Page::new(PageId::new(pid), PageType::BTreeLeaf);
            apply_page_op(
                &mut page,
                &PageOp::Format { ptype: PageType::BTreeLeaf },
                Lsn::new(next_lsn),
            )
            .unwrap();
            next_lsn += 1;
            for upd in 0..3 {
                let op = PageOp::Insert { idx: upd, bytes: format!("v{pid}-{upd}").into_bytes() };
                let mut bytes = Vec::new();
                op.encode(&mut bytes);
                apply_page_op(&mut page, &op, Lsn::new(next_lsn)).unwrap();
                log.push((PageId::new(pid), bytes, Lsn::new(next_lsn)));
                next_lsn += 1;
            }
            cache.put(&page).unwrap();
        }
    } // restart

    // While the node was down, 10 pages got 1 more update each (on the
    // primary, flowing through the log).
    let mut tail: Vec<(PageId, Vec<u8>, Lsn)> = Vec::new();
    for pid in 0..10u64 {
        let op = PageOp::Insert { idx: 3, bytes: format!("new-{pid}").into_bytes() };
        let mut bytes = Vec::new();
        op.encode(&mut bytes);
        tail.push((PageId::new(pid), bytes, Lsn::new(next_lsn)));
        next_lsn += 1;
    }

    // Life 2: recover the cache, then replay the tail with the standard
    // LSN-idempotence rule — count how many records actually apply.
    let cache =
        Rbpex::recover(Arc::clone(&ssd) as Arc<dyn Fcb>, Arc::clone(&meta), n_pages as usize)
            .unwrap();
    assert_eq!(cache.len(), n_pages as usize, "the whole cache survived the restart");

    let mut applied = 0usize;
    let mut skipped = 0usize;
    for (pid, op_bytes, lsn) in log.iter().chain(tail.iter()) {
        let mut page = cache.get(*pid).unwrap().expect("cached");
        if page.page_lsn() >= *lsn {
            skipped += 1;
            continue;
        }
        let (op, _) = PageOp::decode(op_bytes).unwrap();
        apply_page_op(&mut page, &op, *lsn).unwrap();
        cache.put(&page).unwrap();
        applied += 1;
    }
    assert_eq!(applied, 10, "only the 10 post-restart records needed replay");
    assert_eq!(skipped, log.len(), "all pre-restart records were already in the cache");

    // The recovered + caught-up pages are correct.
    let p = cache.get(PageId::new(3)).unwrap().unwrap();
    assert_eq!(socrates_storage::Slotted::slot_count(&p), 4);
    let p = cache.get(PageId::new(40)).unwrap().unwrap();
    assert_eq!(socrates_storage::Slotted::slot_count(&p), 3);
}

#[test]
fn log_blocks_roundtrip_through_landing_zone_after_restart() {
    // A smaller end-to-end restart: the LZ retains hardened blocks across
    // a consumer restart, and the consumer can rescan from its cursor.
    use socrates_wal::landing_zone::{LandingZone, LandingZoneConfig};
    let lz = LandingZone::new(
        vec![Arc::new(MemFcb::new("lz")) as Arc<dyn Fcb>],
        LandingZoneConfig { capacity: 1 << 20, write_quorum: 1 },
        FaultRegistry::disabled(),
    );
    let mut start = Lsn::ZERO;
    let mut block_starts = Vec::new();
    for i in 0..10u64 {
        let mut b = BlockBuilder::new(start, 1 << 16);
        b.append(
            &LogRecord {
                txn: TxnId::new(i),
                payload: LogPayload::PageWrite { page_id: PageId::new(i), op: vec![1; 32] },
            },
            None,
        );
        let block = b.seal();
        lz.write_block(&block).unwrap();
        block_starts.push(block.start_lsn());
        start = block.end_lsn();
    }
    // "Restart" from the 6th block's cursor.
    let mut seen = 0;
    lz.scan_from(block_starts[5], |b| {
        assert!(b.start_lsn() >= block_starts[5]);
        seen += 1;
        true
    })
    .unwrap();
    assert_eq!(seen, 5);
}

//! RBPEX's unit tests: puts and gets racing on the parked device, the
//! clean-put skip, eviction, recovery and the journal.

use super::*;
use crate::cache::tests::{eventually, within_5s, Gate};
use crate::fcb::FaultFcb;
use crate::page::PageType;
use crate::page::PAGE_SIZE;

fn page(id: u64, lsn: u64, fill: u8) -> Page {
    let mut p = Page::new(PageId::new(id), PageType::BTreeLeaf);
    p.set_page_lsn(Lsn::new(lsn));
    p.body_mut()[0] = fill;
    p
}

/// Put `p` with no eviction listener and say what the put did.
fn put(r: &Rbpex, p: &Page) -> Put {
    r.put_noting(p, &|_, _| {}).unwrap()
}

fn cache(cap: usize) -> (Rbpex, Arc<MemFcb>, Arc<MemFcb>) {
    let dev = Arc::new(MemFcb::new("ssd"));
    let meta = Arc::new(MemFcb::new("meta"));
    let r = Rbpex::create(Arc::clone(&dev) as Arc<dyn Fcb>, Arc::clone(&meta), cap).unwrap();
    (r, dev, meta)
}

/// Which device access of one frame waits at the gate.
#[derive(Clone, Copy)]
enum Park {
    Off,
    /// A write, before it lands.
    Write(u64),
    /// A write, after it has landed.
    Landed(u64),
    /// A read, before it reads.
    Read(u64),
}

/// An SSD that parks one frame's writes or reads at a gate, so a test
/// can act while a put or get is between its two directory sections.
struct ParkingDevice {
    inner: MemFcb,
    gate: Gate,
    park: Mutex<Park>,
}

impl ParkingDevice {
    fn new() -> Arc<ParkingDevice> {
        Arc::new(ParkingDevice {
            inner: MemFcb::new("ssd"),
            gate: Gate::default(),
            park: Mutex::new(Park::Off),
        })
    }

    /// Hold the gate for `park`'s accesses from now on.
    fn park(&self, park: Park) {
        *self.park.lock() = park;
        self.gate.hold();
    }
}

impl Fcb for ParkingDevice {
    fn read_at(&self, offset: u64, buf: &mut [u8]) -> Result<()> {
        if matches!(*self.park.lock(), Park::Read(f) if f * PAGE_SIZE as u64 == offset) {
            self.gate.pass();
        }
        self.inner.read_at(offset, buf)
    }
    fn write_at(&self, offset: u64, data: &[u8]) -> Result<()> {
        let park = *self.park.lock();
        if matches!(park, Park::Write(f) if f * PAGE_SIZE as u64 == offset) {
            self.gate.pass();
        }
        self.inner.write_at(offset, data)?;
        if matches!(park, Park::Landed(f) if f * PAGE_SIZE as u64 == offset) {
            self.gate.pass();
        }
        Ok(())
    }
    fn len(&self) -> Result<u64> {
        self.inner.len()
    }
    fn flush(&self) -> Result<()> {
        Ok(())
    }
    fn name(&self) -> &str {
        "parking-ssd"
    }
}

fn parked_cache(cap: usize) -> (Rbpex, Arc<ParkingDevice>, Arc<MemFcb>) {
    let dev = ParkingDevice::new();
    let meta = Arc::new(MemFcb::new("meta"));
    let r = Rbpex::create(Arc::clone(&dev) as Arc<dyn Fcb>, Arc::clone(&meta), cap).unwrap();
    (r, dev, meta)
}

#[test]
fn an_rbpex_write_holds_no_directory_lock() {
    let (r, dev, _) = parked_cache(4);
    r.put(&page(1, 10, 1)).unwrap(); // frame 0
    dev.park(Park::Write(1));
    std::thread::scope(|scope| {
        let writer = scope.spawn(|| r.put(&page(2, 20, 2)));
        let parked = dev.gate.reached(1);
        let probes = within_5s(scope, || {
            let hit = r.get(PageId::new(1)).unwrap().map(|p| p.page_lsn());
            let seen = (r.contains(PageId::new(1)), r.contains(PageId::new(2)), r.len());
            (hit, seen, r.put(&page(3, 30, 3)).unwrap())
        });
        dev.gate.release();
        assert!(parked, "page 2's write parks in the device");
        assert_eq!(
            probes,
            Some((Some(Lsn::new(10)), (true, false, 1), None)),
            "a probe or a put waited out another put's write"
        );
        assert_eq!(writer.join().unwrap().unwrap(), None);
    });
    assert_eq!(r.len(), 3);
    assert_eq!(r.get(PageId::new(2)).unwrap().unwrap().body()[0], 2);
}

#[test]
fn a_rewrite_is_never_served_mid_write_and_the_clock_skips_it() {
    let (r, dev, _) = parked_cache(2);
    r.put(&page(1, 10, 1)).unwrap(); // frame 0
    r.put(&page(2, 20, 2)).unwrap(); // frame 1
    dev.park(Park::Write(0));
    std::thread::scope(|scope| {
        let rewrite = scope.spawn(|| r.put(&page(1, 11, 9)));
        let parked = dev.gate.reached(1);
        let mid_write = within_5s(scope, || {
            let served = r.get(PageId::new(1)).unwrap().map(|p| p.page_lsn());
            (served, r.contains(PageId::new(1)), r.put(&page(3, 30, 3)).unwrap())
        });
        dev.gate.release();
        assert!(parked, "page 1's rewrite parks in the device");
        // Frame 0's ref bit is clear, but it is in flight: the clock
        // must sweep past it to page 2's frame.
        assert_eq!(mid_write, Some((None, false, Some((PageId::new(2), Lsn::new(20))))));
        assert_eq!(rewrite.join().unwrap().unwrap(), None);
    });
    let p = r.get(PageId::new(1)).unwrap().unwrap();
    assert_eq!((p.page_lsn(), p.body()[0]), (Lsn::new(11), 9));
    assert!(r.contains(PageId::new(3)) && !r.contains(PageId::new(2)));
    assert_eq!(r.len(), 2);
}

#[test]
fn an_abandoned_write_maps_nothing_after_recovery() {
    // Page 2's bytes are on the device, but its put never published
    // the mapping: a restart must not adopt the frame.
    let (r, dev, meta) = parked_cache(2);
    r.put(&page(1, 10, 1)).unwrap(); // frame 0
    dev.park(Park::Landed(1));
    std::thread::scope(|scope| {
        let writer = scope.spawn(|| r.put(&page(2, 20, 2)));
        let parked = dev.gate.reached(1);
        let restarted =
            Rbpex::recover(Arc::clone(&dev) as Arc<dyn Fcb>, Arc::clone(&meta), 2).unwrap();
        let adopted = (restarted.contains(PageId::new(1)), restarted.contains(PageId::new(2)));
        let frame_1 = restarted.dir.lock().frames[1];
        dev.gate.release();
        assert!(parked, "page 2's write lands and parks before it is published");
        assert_eq!(adopted, (true, false));
        assert_eq!(frame_1, FrameState::Free);
        writer.join().unwrap().unwrap();
    });
}

#[test]
fn a_failed_write_returns_its_frame_to_the_free_list() {
    let dev = Arc::new(FaultFcb::new(MemFcb::new("ssd")));
    let meta = Arc::new(MemFcb::new("meta"));
    let r = Rbpex::create(Arc::clone(&dev) as Arc<dyn Fcb>, Arc::clone(&meta), 1).unwrap();
    dev.fail_next_writes(1);
    assert!(r.put(&page(1, 10, 1)).is_err());
    assert!(r.is_empty());
    // The one frame is free again: the next put needs no victim.
    assert_eq!(r.put(&page(2, 20, 2)).unwrap(), None);
    // A failed rewrite unmaps the page and frees its frame too.
    dev.fail_next_writes(1);
    assert!(r.put(&page(2, 21, 3)).is_err());
    assert!(r.is_empty() && r.get(PageId::new(2)).unwrap().is_none());
    assert_eq!(r.dir.lock().free, [0]);
    let restarted = Rbpex::recover(dev as Arc<dyn Fcb>, meta, 1).unwrap();
    assert!(restarted.is_empty(), "recovery adopted a frame whose write failed");
}

#[test]
fn a_put_of_a_page_in_flight_waits_for_its_frame() {
    let (r, dev, _) = parked_cache(2);
    dev.park(Park::Write(0));
    std::thread::scope(|scope| {
        let first = scope.spawn(|| r.put(&page(1, 10, 1)));
        assert!(dev.gate.reached(1), "the first put parks in the device");
        let second = scope.spawn(|| r.put(&page(1, 20, 2)));
        let waited = eventually(|| r.dir.try_lock().is_some_and(|d| d.waiters == 1));
        dev.gate.release();
        assert!(waited, "the second put waits for the first one's write");
        assert_eq!(first.join().unwrap().unwrap(), None);
        assert_eq!(second.join().unwrap().unwrap(), None);
    });
    assert_eq!(dev.gate.entered(), 2, "both puts wrote frame 0");
    let p = r.get(PageId::new(1)).unwrap().unwrap();
    assert_eq!((p.page_lsn(), p.body()[0]), (Lsn::new(20), 2));
    // Frame 1 is still free.
    assert_eq!(r.put(&page(9, 90, 9)).unwrap(), None);
    assert_eq!(r.len(), 2);
}

#[test]
fn a_torn_read_keeps_a_mapping_made_since_the_lookup() {
    let (r, dev, _) = parked_cache(3);
    r.put(&page(1, 10, 1)).unwrap(); // frame 0
    dev.park(Park::Read(0));
    std::thread::scope(|scope| {
        let reader = scope.spawn(|| r.get(PageId::new(1)));
        assert!(dev.gate.reached(1), "the reader looked up frame 0 and parks in its read");
        // Page 1 moves to frame 1, and page 2 takes frame 0.
        r.remove(PageId::new(1)).unwrap();
        r.put(&page(2, 20, 2)).unwrap();
        r.put(&page(1, 11, 7)).unwrap();
        dev.gate.release();
        assert!(reader.join().unwrap().unwrap().is_none(), "frame 0 no longer holds page 1");
    });
    let p = r.get(PageId::new(1)).unwrap().expect("the newer mapping survives the torn read");
    assert_eq!((p.page_lsn(), p.body()[0]), (Lsn::new(11), 7));
    assert!(r.contains(PageId::new(2)));
}

#[test]
fn put_get_roundtrip() {
    let (r, _, _) = cache(4);
    r.put(&page(1, 10, 0xAA)).unwrap();
    let p = r.get(PageId::new(1)).unwrap().unwrap();
    assert_eq!(p.body()[0], 0xAA);
    assert_eq!(p.page_lsn(), Lsn::new(10));
    assert!(r.get(PageId::new(2)).unwrap().is_none());
    assert!(r.contains(PageId::new(1)) && !r.contains(PageId::new(2)));
}

#[test]
fn update_in_place_keeps_len() {
    let (r, _, _) = cache(2);
    r.put(&page(1, 10, 1)).unwrap();
    r.put(&page(1, 20, 2)).unwrap();
    assert_eq!(r.len(), 1);
    let p = r.get(PageId::new(1)).unwrap().unwrap();
    assert_eq!(p.body()[0], 2);
    assert_eq!(p.page_lsn(), Lsn::new(20));
}

#[test]
fn eviction_reports_victim_lsn() {
    let (r, _, _) = cache(2);
    assert!(r.put(&page(1, 10, 1)).unwrap().is_none());
    assert!(r.put(&page(2, 20, 2)).unwrap().is_none());
    let evicted = r.put(&page(3, 30, 3)).unwrap();
    let (vid, vlsn) = evicted.expect("someone must be evicted");
    assert!(vid == PageId::new(1) || vid == PageId::new(2));
    assert_eq!(vlsn, if vid == PageId::new(1) { Lsn::new(10) } else { Lsn::new(20) });
    assert_eq!(r.len(), 2);
    assert!(!r.contains(vid));
    assert!(r.contains(PageId::new(3)));
}

#[test]
fn clock_prefers_unreferenced() {
    let (r, _, _) = cache(3);
    r.put(&page(1, 1, 1)).unwrap();
    r.put(&page(2, 2, 2)).unwrap();
    r.put(&page(3, 3, 3)).unwrap();
    // Touch 1 and 2 so 3 is the coldest once ref bits are cleared.
    r.get(PageId::new(1)).unwrap();
    r.get(PageId::new(2)).unwrap();
    // All ref bits are set (put also sets them); first clock sweep
    // clears them, second evicts the first unreferenced frame. Touch
    // 1 and 2 again after a put cycle to bias eviction to 3.
    let (vid, _) = r.put(&page(4, 4, 4)).unwrap().unwrap();
    assert!(r.contains(PageId::new(4)));
    assert!(!r.contains(vid));
}

#[test]
fn torn_frame_treated_as_miss_and_dropped() {
    let (r, dev, _) = cache(4);
    r.put(&page(1, 10, 1)).unwrap();
    // Corrupt the frame on the device behind the cache's back.
    dev.write_at(50, &[0xFF; 8]).unwrap();
    assert!(r.get(PageId::new(1)).unwrap().is_none());
    assert!(!r.contains(PageId::new(1)));
    // Cache is usable again for that id.
    r.put(&page(1, 11, 9)).unwrap();
    assert_eq!(r.get(PageId::new(1)).unwrap().unwrap().body()[0], 9);
}

#[test]
fn a_deadline_read_is_one_device_read_and_heals_a_torn_frame() {
    let dev = Arc::new(crate::fcb::CountingFcb::new(MemFcb::new("ssd")));
    let meta = Arc::new(MemFcb::new("meta"));
    let r = Rbpex::create(Arc::clone(&dev) as Arc<dyn Fcb>, meta, 4).unwrap();
    r.put(&page(1, 10, 1)).unwrap();
    let (p, _) = r.get_deadline(PageId::new(1)).unwrap().unwrap();
    assert_eq!((p.page_lsn(), p.body()[0]), (Lsn::new(10), 1));
    assert_eq!((dev.reads(), dev.deadline_reads()), (0, 1));
    assert!(r.get_deadline(PageId::new(2)).unwrap().is_none(), "a miss reads nothing");
    // The copy read goes stale once RBPEX maps a newer PageLSN.
    assert!(r.maps_at(PageId::new(1), Lsn::new(10)));
    r.put(&page(1, 11, 2)).unwrap();
    assert!(!r.maps_at(PageId::new(1), Lsn::new(10)) && r.maps_at(PageId::new(1), Lsn::new(11)));
    // A torn frame reads as a miss and is dropped, as a `get` drops it.
    dev.write_at(50, &[0xFF; 8]).unwrap();
    assert!(r.get_deadline(PageId::new(1)).unwrap().is_none());
    assert!(!r.contains(PageId::new(1)));
}

#[test]
fn recovery_restores_contents() {
    let dev = Arc::new(MemFcb::new("ssd"));
    let meta = Arc::new(MemFcb::new("meta"));
    {
        let r = Rbpex::create(Arc::clone(&dev) as Arc<dyn Fcb>, Arc::clone(&meta), 8).unwrap();
        for i in 0..6u64 {
            r.put(&page(i, i * 10, i as u8)).unwrap();
        }
        // Putting each page again at its PageLSN journals nothing new.
        for i in 0..6u64 {
            assert_eq!(put(&r, &page(i, i * 10, i as u8)), Put::Clean);
        }
        r.remove(PageId::new(3)).unwrap();
    } // "restart"
    let r = Rbpex::recover(Arc::clone(&dev) as Arc<dyn Fcb>, Arc::clone(&meta), 8).unwrap();
    assert_eq!(r.len(), 5);
    assert!(!r.contains(PageId::new(3)));
    for i in [0u64, 1, 2, 4, 5] {
        let p = r.get(PageId::new(i)).unwrap().expect("page survived restart");
        assert_eq!(p.body()[0], i as u8);
        assert_eq!(p.page_lsn(), Lsn::new(i * 10));
    }
    // Recovered cache keeps working: inserts and evictions still behave.
    for i in 10..20u64 {
        r.put(&page(i, i, i as u8)).unwrap();
    }
    assert_eq!(r.len(), 8);
}

#[test]
fn recovery_drops_torn_frames() {
    let dev = Arc::new(MemFcb::new("ssd"));
    let meta = Arc::new(MemFcb::new("meta"));
    {
        let r = Rbpex::create(Arc::clone(&dev) as Arc<dyn Fcb>, Arc::clone(&meta), 4).unwrap();
        r.put(&page(1, 10, 1)).unwrap();
        r.put(&page(2, 20, 2)).unwrap();
    }
    // Tear page 2's frame (frame 1) mid-write.
    dev.write_at(PAGE_SIZE as u64 + 100, &[0xEE; 64]).unwrap();
    let r = Rbpex::recover(Arc::clone(&dev) as Arc<dyn Fcb>, Arc::clone(&meta), 4).unwrap();
    assert!(r.contains(PageId::new(1)));
    assert!(!r.contains(PageId::new(2)), "torn frame must be dropped");
    // The freed frame is reusable.
    r.put(&page(9, 90, 9)).unwrap();
    assert_eq!(r.get(PageId::new(9)).unwrap().unwrap().body()[0], 9);
}

#[test]
fn recovery_of_empty_cache() {
    let dev = Arc::new(MemFcb::new("ssd"));
    let meta = Arc::new(MemFcb::new("meta"));
    let r = Rbpex::recover(dev as Arc<dyn Fcb>, meta, 4).unwrap();
    assert!(r.is_empty());
    r.put(&page(1, 1, 1)).unwrap();
    assert_eq!(r.len(), 1);
}

#[test]
fn journal_compaction_bounds_meta_size() {
    let (r, _, meta) = cache(2);
    for i in 0..2000u64 {
        r.put(&page(i % 8, i, i as u8)).unwrap();
    }
    // Journal stays bounded (directory has ≤2 entries; threshold is
    // (len+64)*4 records).
    let len = meta.len().unwrap();
    assert!(len < 70 * 4 * JREC_LEN as u64 * 2, "journal grew unbounded: {len} bytes");
}

/// A device that counts, and never parks, the writes of frame `frame`.
fn counting_cache(cap: usize, frame: u64) -> (Rbpex, Arc<ParkingDevice>, Arc<MemFcb>) {
    let (r, dev, meta) = parked_cache(cap);
    dev.park(Park::Write(frame));
    dev.gate.release();
    (r, dev, meta)
}

#[test]
fn a_put_at_the_mapped_page_lsn_writes_nothing() {
    let (r, dev, _) = parked_cache(2);
    r.put(&page(1, 10, 1)).unwrap(); // frame 0
    let journal = {
        let mut dir = r.dir.lock();
        dir.ref_bits[0] = false;
        dir.journal_len
    };
    dev.park(Park::Write(0));
    std::thread::scope(|scope| {
        let again = within_5s(scope, || put(&r, &page(1, 10, 1)));
        dev.gate.release();
        assert_eq!(again, Some(Put::Clean), "the clean put wrote its page again");
    });
    assert_eq!(dev.gate.entered(), 0, "no device write");
    assert_eq!(r.dir.lock().journal_len, journal, "no journal record");
    // The skip references the frame, as a hit does: the clock passes it.
    assert!(r.dir.lock().ref_bits[0]);
    assert_eq!(r.get(PageId::new(1)).unwrap().unwrap().page_lsn(), Lsn::new(10));
}

#[test]
fn a_put_at_a_newer_lsn_rewrites() {
    let (r, dev, _) = counting_cache(2, 0);
    r.put(&page(1, 10, 1)).unwrap();
    assert_eq!(put(&r, &page(1, 11, 2)), Put::Written(None));
    assert_eq!(dev.gate.entered(), 2);
    let p = r.get(PageId::new(1)).unwrap().unwrap();
    assert_eq!((p.page_lsn(), p.body()[0]), (Lsn::new(11), 2));
}

#[test]
fn a_put_after_rbpex_evicted_its_copy_writes_again() {
    let (r, dev, _) = counting_cache(1, 0);
    r.put(&page(1, 10, 1)).unwrap();
    assert_eq!(r.put(&page(2, 20, 2)).unwrap(), Some((PageId::new(1), Lsn::new(10))));
    assert_eq!(put(&r, &page(1, 10, 1)), Put::Written(Some((PageId::new(2), Lsn::new(20)))));
    assert_eq!(dev.gate.entered(), 3, "each put wrote frame 0");
    assert_eq!(r.get(PageId::new(1)).unwrap().unwrap().body()[0], 1);
}

#[test]
fn a_put_that_waited_out_the_same_write_skips() {
    let (r, dev, _) = parked_cache(2);
    dev.park(Park::Write(0));
    std::thread::scope(|scope| {
        let first = scope.spawn(|| put(&r, &page(1, 10, 1)));
        assert!(dev.gate.reached(1), "the first put parks in the device");
        let second = scope.spawn(|| put(&r, &page(1, 10, 1)));
        let waited = eventually(|| r.dir.try_lock().is_some_and(|d| d.waiters == 1));
        dev.gate.release();
        assert!(waited, "the second put waits for the first one's write");
        assert_eq!(first.join().unwrap(), Put::Written(None));
        assert_eq!(second.join().unwrap(), Put::Clean);
    });
    assert_eq!(dev.gate.entered(), 1, "one write of frame 0");
    assert_eq!(r.len(), 1);
}

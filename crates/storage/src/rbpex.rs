//! RBPEX — the Resilient Buffer Pool Extension (paper §3.3).
//!
//! RBPEX spills the buffer pool to local SSD *recoverably*: after a short
//! outage (process restart, OS upgrade reboot) the node recovers its cache
//! contents and only replays the log records newer than each cached page,
//! instead of refetching its whole working set from remote servers. That
//! directly shortens mean-time-to-peak-performance and, per the paper,
//! availability.
//!
//! It is the compute node's cache: it holds the node's hottest pages, a
//! clock policy evicts, and evictions report `(page, PageLSN)` so the
//! primary can maintain its evicted-LSN map for GetPage@LSN. (A page
//! server's partition copy is not an RBPEX: nothing ever recovers it, so
//! it is a plain page file — see [`ImageLayer`](crate::layer::ImageLayer).)
//!
//! Resilience comes from a small metadata journal: mapping changes
//! (inserts/evictions) are journaled, and recovery replays the journal then
//! verifies each frame's checksum, dropping torn entries. The paper builds
//! this table in Hekaton, in memory; the journal is an in-memory store
//! ([`MemFcb`]) that outlives the cache, so appending to it under the
//! directory lock is a copy, never a device wait. The pages themselves are
//! written with no lock held: a frame being written is *in flight*, neither
//! free nor mapped, until its put publishes it.

use crate::fcb::{Fcb, MemFcb, PageFile};
use crate::page::Page;
use parking_lot::{Condvar, Mutex};
use socrates_common::checksum::crc32;
use socrates_common::{Error, Lsn, PageId, Result};
use std::collections::HashMap;
use std::sync::Arc;

const JOURNAL_MAGIC: u8 = 0xA5;
const J_PUT: u8 = 1;
const J_EVICT: u8 = 2;
const J_CLEAR: u8 = 3;
/// magic + tag + page_id + frame + crc
const JREC_LEN: usize = 1 + 1 + 8 + 8 + 4;

/// What one frame of the device holds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum FrameState {
    Free,
    /// A put is writing this page into the frame with no lock held: the
    /// frame is neither free, nor mapped, nor a clock candidate.
    Writing(PageId),
    Mapped(PageId),
}

struct Dir {
    /// page id -> (frame, last known PageLSN), for mapped frames only
    map: HashMap<PageId, (u64, Lsn)>,
    frames: Vec<FrameState>,
    /// clock ref bits, parallel to `frames`
    ref_bits: Vec<bool>,
    clock_hand: usize,
    free: Vec<u64>,
    /// Pages whose write is in flight, one per concurrent put.
    writing: Vec<PageId>,
    /// Puts waiting for an in-flight write of their own page.
    waiters: usize,
    journal_len: u64,
}

impl Dir {
    /// An empty directory over `nframes` frames, all free.
    fn new(nframes: usize) -> Dir {
        Dir {
            map: HashMap::new(),
            frames: vec![FrameState::Free; nframes],
            ref_bits: vec![false; nframes],
            clock_hand: 0,
            free: (0..nframes as u64).rev().collect(),
            writing: Vec::new(),
            waiters: 0,
            journal_len: 0,
        }
    }

    /// Sweep the clock to the first mapped frame whose ref bit is clear,
    /// clearing the bits it passes. Free and in-flight frames are skipped.
    fn clock_victim(&mut self) -> Result<(u64, PageId)> {
        let n = self.frames.len();
        for _ in 0..2 * n {
            let h = self.clock_hand;
            self.clock_hand = (h + 1) % n;
            if let FrameState::Mapped(id) = self.frames[h] {
                if !std::mem::take(&mut self.ref_bits[h]) {
                    return Ok((h as u64, id));
                }
            }
        }
        Err(Error::InvalidState("rbpex has no evictable frame".into()))
    }
}

/// The resilient SSD page cache.
///
/// No device I/O happens under `dir`. A put reserves its frame under the
/// lock, marks it in flight, writes the page with no lock held and then
/// publishes the mapping, so a probe never waits out another's write.
pub struct Rbpex {
    device: PageFile,
    meta: Arc<MemFcb>,
    dir: Mutex<Dir>,
    /// Signalled when a write some put waits on ends (`Dir::waiters`).
    written: Condvar,
}

impl Rbpex {
    fn with_dir(device: Arc<dyn Fcb>, meta: Arc<MemFcb>, dir: Dir) -> Rbpex {
        Rbpex {
            device: PageFile::new(device),
            meta,
            dir: Mutex::with_rank(dir, socrates_common::lock_rank::STORAGE_RBPEX_DIR, "rbpex.dir"),
            written: Condvar::new(),
        }
    }

    /// Create a fresh (empty) cache of `capacity_pages` frames on `device`
    /// with its metadata journal on `meta`.
    pub fn create(device: Arc<dyn Fcb>, meta: Arc<MemFcb>, capacity_pages: usize) -> Result<Rbpex> {
        let r = Rbpex::with_dir(device, meta, Dir::new(capacity_pages));
        // Terminate any stale journal from a previous life of the device.
        r.meta.write_at(0, &[0u8; JREC_LEN])?;
        Ok(r)
    }

    /// Recover a cache from an existing device + journal after a restart.
    ///
    /// Replays the metadata journal to rebuild the directory, then verifies
    /// every referenced frame's checksum and silently drops torn or corrupt
    /// entries — a recovered cache may be smaller than it was, never wrong.
    /// The directory is rebuilt before the cache is shared, so recovery
    /// reads the device with no lock held.
    pub fn recover(
        device: Arc<dyn Fcb>,
        meta: Arc<MemFcb>,
        capacity_pages: usize,
    ) -> Result<Rbpex> {
        let mapping = Self::scan_journal(&meta)?;
        let mut r = Rbpex::with_dir(device, meta, Dir::new(0));
        let mut dir = Dir::new(capacity_pages);
        for (page, frame) in mapping {
            if frame >= capacity_pages as u64 {
                continue; // capacity shrank across the restart; drop
            }
            // Verify the frame really holds this page; drop torn frames.
            if let Ok(p) = r.device.read_page(frame, page) {
                dir.map.insert(page, (frame, p.page_lsn()));
                dir.frames[frame as usize] = FrameState::Mapped(page);
            }
        }
        dir.free = (0..capacity_pages as u64)
            .rev()
            .filter(|f| dir.frames[*f as usize] == FrameState::Free)
            .collect();
        // Rewrite the journal to reflect exactly the adopted set.
        r.compact_journal(&mut dir)?;
        *r.dir.get_mut() = dir;
        Ok(r)
    }

    /// Parse the metadata journal into the page→frame mapping it encodes.
    fn scan_journal(meta: &MemFcb) -> Result<HashMap<PageId, u64>> {
        let mut mapping: HashMap<PageId, u64> = HashMap::new();
        let meta_len = meta.len()?;
        let mut off = 0u64;
        let mut buf = [0u8; JREC_LEN];
        while off + JREC_LEN as u64 <= meta_len {
            meta.read_at(off, &mut buf)?;
            if buf[0] != JOURNAL_MAGIC {
                break;
            }
            let stored = u32::from_le_bytes(buf[JREC_LEN - 4..].try_into().unwrap());
            if crc32(&buf[..JREC_LEN - 4]) != stored {
                break;
            }
            let tag = buf[1];
            let page = PageId::new(u64::from_le_bytes(buf[2..10].try_into().unwrap()));
            let frame = u64::from_le_bytes(buf[10..18].try_into().unwrap());
            match tag {
                J_PUT => {
                    mapping.insert(page, frame);
                }
                J_EVICT => {
                    mapping.remove(&page);
                }
                J_CLEAR => mapping.clear(),
                _ => break,
            }
            off += JREC_LEN as u64;
        }
        Ok(mapping)
    }

    fn journal_append(&self, dir: &mut Dir, tag: u8, page: PageId, frame: u64) -> Result<()> {
        let mut rec = [0u8; JREC_LEN];
        rec[0] = JOURNAL_MAGIC;
        rec[1] = tag;
        rec[2..10].copy_from_slice(&page.raw().to_le_bytes());
        rec[10..18].copy_from_slice(&frame.to_le_bytes());
        let c = crc32(&rec[..JREC_LEN - 4]);
        rec[JREC_LEN - 4..].copy_from_slice(&c.to_le_bytes());
        self.meta.write_at(dir.journal_len, &rec)?;
        dir.journal_len += JREC_LEN as u64;
        // Terminator so a stale tail from a previous compaction never parses.
        self.meta.write_at(dir.journal_len, &[0u8; JREC_LEN])?;
        // Compact once the journal is much larger than the directory.
        let threshold = (dir.map.len() + 64) as u64 * 4 * JREC_LEN as u64;
        if dir.journal_len > threshold {
            self.compact_journal(dir)?;
        }
        Ok(())
    }

    fn compact_journal(&self, dir: &mut Dir) -> Result<()> {
        let entries: Vec<(PageId, u64)> = dir.map.iter().map(|(p, (f, _))| (*p, *f)).collect();
        let mut buf = Vec::with_capacity((entries.len() + 2) * JREC_LEN);
        let push = |tag: u8, page: PageId, frame: u64, buf: &mut Vec<u8>| {
            let mut rec = [0u8; JREC_LEN];
            rec[0] = JOURNAL_MAGIC;
            rec[1] = tag;
            rec[2..10].copy_from_slice(&page.raw().to_le_bytes());
            rec[10..18].copy_from_slice(&frame.to_le_bytes());
            let c = crc32(&rec[..JREC_LEN - 4]);
            rec[JREC_LEN - 4..].copy_from_slice(&c.to_le_bytes());
            buf.extend_from_slice(&rec);
        };
        push(J_CLEAR, PageId::new(0), 0, &mut buf);
        for (p, f) in entries {
            push(J_PUT, p, f, &mut buf);
        }
        buf.extend_from_slice(&[0u8; JREC_LEN]); // terminator
        self.meta.write_at(0, &buf)?;
        dir.journal_len = (buf.len() - JREC_LEN) as u64;
        Ok(())
    }

    /// Number of cached pages.
    pub fn len(&self) -> usize {
        self.dir.lock().map.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether `id` is cached.
    pub fn contains(&self, id: PageId) -> bool {
        self.dir.lock().map.contains_key(&id)
    }

    /// Fetch `id` from the cache. Returns `None` on miss, and while a
    /// put of `id` is in flight. A frame that fails verification is
    /// treated as a miss and dropped (self-healing).
    pub fn get(&self, id: PageId) -> Result<Option<Page>> {
        let frame = {
            let mut dir = self.dir.lock();
            let Some(&(f, _)) = dir.map.get(&id) else {
                return Ok(None);
            };
            dir.ref_bits[f as usize] = true;
            f
        };
        match self.device.read_page(frame, id) {
            Ok(p) => Ok(Some(p)),
            Err(Error::Corruption(_)) => {
                // Torn frame (e.g. crash mid-write): drop the entry, unless
                // the page was put into another frame since the lookup.
                self.unmap(id, Some(frame))?;
                Ok(None)
            }
            Err(e) => Err(e),
        }
    }

    /// Insert or update `page`. Returns the `(page, PageLSN)` of a page that
    /// had to be evicted to make room, if any.
    pub fn put(&self, page: &Page) -> Result<Option<(PageId, Lsn)>> {
        self.put_noting(page, &|_, _| {})
    }

    /// [`Rbpex::put`], handing the evicted page to `note` under the
    /// directory lock *before* its mapping is removed: a reader that then
    /// misses both tiers for it must already find its eviction LSN
    /// wherever `note` records it.
    ///
    /// The page is written with no lock held, into a frame that is in
    /// flight meanwhile; the mapping is published once the write is done.
    /// A page already cached is unmapped for the rewrite (the caller keeps
    /// it resident above this tier until the put returns).
    pub fn put_noting(
        &self,
        page: &Page,
        note: &dyn Fn(PageId, Lsn),
    ) -> Result<Option<(PageId, Lsn)>> {
        let id = page.page_id();
        let (frame, evicted) = self.reserve(id, note)?;
        let written = self.device.write_page(frame, page);
        let mut dir = self.dir.lock();
        if let Err(e) = written {
            self.end_write(&mut dir, id, frame, None);
            return Err(e);
        }
        self.end_write(&mut dir, id, frame, Some(page.page_lsn()));
        self.journal_append(&mut dir, J_PUT, id, frame)?;
        Ok(evicted)
    }

    /// Under `dir`, take a frame for `id` and mark it in flight: the frame
    /// `id` is mapped to, else a free one, else the clock's victim, which
    /// is noted, unmapped and journaled first. Waits out an in-flight
    /// write of `id` itself, so a page never holds two frames.
    fn reserve(
        &self,
        id: PageId,
        note: &dyn Fn(PageId, Lsn),
    ) -> Result<(u64, Option<(PageId, Lsn)>)> {
        let mut dir = self.dir.lock();
        while dir.writing.contains(&id) {
            dir.waiters += 1;
            self.written.wait(&mut dir);
            dir.waiters -= 1;
        }
        let (frame, unmapped, evicted) = if let Some((f, _)) = dir.map.remove(&id) {
            (f, Some(id), None)
        } else if let Some(f) = dir.free.pop() {
            (f, None, None)
        } else {
            let (v, vid) = dir.clock_victim()?;
            let &(_, vlsn) = dir.map.get(&vid).ok_or_else(|| {
                Error::InvalidState(format!("rbpex frame {v} holds {vid}, which is not mapped"))
            })?;
            note(vid, vlsn);
            dir.map.remove(&vid);
            (v, Some(vid), Some((vid, vlsn)))
        };
        dir.frames[frame as usize] = FrameState::Writing(id);
        dir.ref_bits[frame as usize] = false;
        dir.writing.push(id);
        if let Some(old) = unmapped {
            if let Err(e) = self.journal_append(&mut dir, J_EVICT, old, frame) {
                self.end_write(&mut dir, id, frame, None);
                return Err(e);
            }
        }
        Ok((frame, evicted))
    }

    /// End the in-flight write of `id` into `frame`: map the frame to the
    /// page written at `written`, or return it to the free list if the
    /// write failed, and wake any put waiting on `id`.
    fn end_write(&self, dir: &mut Dir, id: PageId, frame: u64, written: Option<Lsn>) {
        if let Some(lsn) = written {
            dir.map.insert(id, (frame, lsn));
            dir.frames[frame as usize] = FrameState::Mapped(id);
            dir.ref_bits[frame as usize] = true;
        } else {
            dir.frames[frame as usize] = FrameState::Free;
            dir.free.push(frame);
        }
        dir.writing.retain(|w| *w != id);
        if dir.waiters > 0 {
            self.written.notify_all();
        }
    }

    /// Drop `id` from the cache if present. A put of `id` still in flight
    /// is ordered after the removal: it publishes its page when done.
    pub fn remove(&self, id: PageId) -> Result<()> {
        self.unmap(id, None)
    }

    /// Drop `id`'s mapping, if it has one (and, given `only`, if it maps
    /// that frame).
    fn unmap(&self, id: PageId, only: Option<u64>) -> Result<()> {
        let mut dir = self.dir.lock();
        let Some(&(f, _)) = dir.map.get(&id) else { return Ok(()) };
        if only.is_some_and(|frame| frame != f) {
            return Ok(());
        }
        dir.map.remove(&id);
        dir.frames[f as usize] = FrameState::Free;
        dir.ref_bits[f as usize] = false;
        dir.free.push(f);
        self.journal_append(&mut dir, J_EVICT, id, f)
    }
}

#[cfg(test)]
mod tests {
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
    fn recovery_restores_contents() {
        let dev = Arc::new(MemFcb::new("ssd"));
        let meta = Arc::new(MemFcb::new("meta"));
        {
            let r = Rbpex::create(Arc::clone(&dev) as Arc<dyn Fcb>, Arc::clone(&meta), 8).unwrap();
            for i in 0..6u64 {
                r.put(&page(i, i * 10, i as u8)).unwrap();
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
}

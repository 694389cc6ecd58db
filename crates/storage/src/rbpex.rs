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
//! Resilience comes from a small metadata journal on the same device class:
//! mapping changes (inserts/evictions) are journaled, and recovery replays
//! the journal then verifies each frame's checksum, dropping torn entries.
//! The paper builds this table in Hekaton; a journaled directory gives the
//! same recoverable-cache semantics.

use crate::fcb::{Fcb, PageFile};
use crate::page::Page;
use parking_lot::Mutex;
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

struct Dir {
    /// page id -> (frame, last known PageLSN)
    map: HashMap<PageId, (u64, Lsn)>,
    /// frame -> occupying page
    frames: Vec<Option<PageId>>,
    /// clock ref bits, parallel to `frames`
    ref_bits: Vec<bool>,
    clock_hand: usize,
    free: Vec<u64>,
    journal_len: u64,
}

impl Dir {
    /// An empty directory over `nframes` frames, all free.
    fn new(nframes: usize) -> Dir {
        Dir {
            map: HashMap::new(),
            frames: vec![None; nframes],
            ref_bits: vec![false; nframes],
            clock_hand: 0,
            free: (0..nframes as u64).rev().collect(),
            journal_len: 0,
        }
    }
}

/// The resilient SSD page cache.
pub struct Rbpex {
    device: PageFile,
    meta: Arc<dyn Fcb>,
    dir: Mutex<Dir>,
}

impl Rbpex {
    fn with_dir(device: Arc<dyn Fcb>, meta: Arc<dyn Fcb>, dir: Dir) -> Rbpex {
        Rbpex {
            device: PageFile::new(device),
            meta,
            dir: Mutex::with_rank(dir, socrates_common::lock_rank::STORAGE_RBPEX_DIR, "rbpex.dir"),
        }
    }

    /// Create a fresh (empty) cache of `capacity_pages` frames on `device`
    /// with its metadata journal on `meta`.
    pub fn create(
        device: Arc<dyn Fcb>,
        meta: Arc<dyn Fcb>,
        capacity_pages: usize,
    ) -> Result<Rbpex> {
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
    pub fn recover(
        device: Arc<dyn Fcb>,
        meta: Arc<dyn Fcb>,
        capacity_pages: usize,
    ) -> Result<Rbpex> {
        let mapping = Self::scan_journal(&*meta)?;
        let r = Rbpex::with_dir(device, meta, Dir::new(capacity_pages));
        {
            let mut dir = r.dir.lock();
            for (page, frame) in mapping {
                if frame >= capacity_pages as u64 {
                    continue; // capacity shrank across the restart; drop
                }
                // Verify the frame really holds this page; drop torn frames.
                if let Ok(p) = r.device.read_page(frame, page) {
                    dir.map.insert(page, (frame, p.page_lsn()));
                    dir.frames[frame as usize] = Some(page);
                }
            }
            dir.free = (0..capacity_pages as u64)
                .rev()
                .filter(|f| dir.frames[*f as usize].is_none())
                .collect();
            // Rewrite the journal to reflect exactly the adopted set.
            r.compact_journal(&mut dir)?;
        }
        Ok(r)
    }

    /// Parse the metadata journal into the page→frame mapping it encodes.
    fn scan_journal(meta: &dyn Fcb) -> Result<HashMap<PageId, u64>> {
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

    /// Fetch `id` from the cache. Returns `None` on miss. A frame that
    /// fails verification is treated as a miss and dropped (self-healing).
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
                // Torn frame (e.g. crash mid-write): drop the entry.
                self.remove(id)?;
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
    pub fn put_noting(
        &self,
        page: &Page,
        note: &dyn Fn(PageId, Lsn),
    ) -> Result<Option<(PageId, Lsn)>> {
        let id = page.page_id();
        let lsn = page.page_lsn();
        let mut dir = self.dir.lock();
        if let Some(&(frame, _)) = dir.map.get(&id) {
            // Content update; mapping unchanged, no journaling needed.
            self.device.write_page(frame, page)?;
            dir.map.insert(id, (frame, lsn));
            dir.ref_bits[frame as usize] = true;
            return Ok(None);
        }
        let (frame, evicted) = match dir.free.pop() {
            Some(f) => (f, None),
            None => {
                // Clock eviction.
                let n = dir.frames.len();
                let mut victim = None;
                for _ in 0..2 * n {
                    let h = dir.clock_hand;
                    dir.clock_hand = (h + 1) % n;
                    if dir.frames[h].is_none() {
                        continue;
                    }
                    if dir.ref_bits[h] {
                        dir.ref_bits[h] = false;
                    } else {
                        victim = Some(h as u64);
                        break;
                    }
                }
                let v = victim
                    .ok_or_else(|| Error::InvalidState("rbpex has no evictable frame".into()))?;
                let vid = dir.frames[v as usize].expect("victim occupied");
                let (_, vlsn) = *dir.map.get(&vid).expect("victim mapped");
                note(vid, vlsn);
                dir.map.remove(&vid);
                self.journal_append(&mut dir, J_EVICT, vid, v)?;
                (v, Some((vid, vlsn)))
            }
        };
        self.device.write_page(frame, page)?;
        dir.map.insert(id, (frame, lsn));
        dir.frames[frame as usize] = Some(id);
        dir.ref_bits[frame as usize] = true;
        self.journal_append(&mut dir, J_PUT, id, frame)?;
        Ok(evicted)
    }

    /// Drop `id` from the cache if present.
    pub fn remove(&self, id: PageId) -> Result<()> {
        let mut dir = self.dir.lock();
        if let Some((f, _)) = dir.map.remove(&id) {
            dir.frames[f as usize] = None;
            dir.ref_bits[f as usize] = false;
            dir.free.push(f);
            self.journal_append(&mut dir, J_EVICT, id, f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fcb::MemFcb;
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
        let r =
            Rbpex::create(Arc::clone(&dev) as Arc<dyn Fcb>, Arc::clone(&meta) as Arc<dyn Fcb>, cap)
                .unwrap();
        (r, dev, meta)
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
            let r = Rbpex::create(
                Arc::clone(&dev) as Arc<dyn Fcb>,
                Arc::clone(&meta) as Arc<dyn Fcb>,
                8,
            )
            .unwrap();
            for i in 0..6u64 {
                r.put(&page(i, i * 10, i as u8)).unwrap();
            }
            r.remove(PageId::new(3)).unwrap();
        } // "restart"
        let r =
            Rbpex::recover(Arc::clone(&dev) as Arc<dyn Fcb>, Arc::clone(&meta) as Arc<dyn Fcb>, 8)
                .unwrap();
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
            let r = Rbpex::create(
                Arc::clone(&dev) as Arc<dyn Fcb>,
                Arc::clone(&meta) as Arc<dyn Fcb>,
                4,
            )
            .unwrap();
            r.put(&page(1, 10, 1)).unwrap();
            r.put(&page(2, 20, 2)).unwrap();
        }
        // Tear page 2's frame (frame 1) mid-write.
        dev.write_at(PAGE_SIZE as u64 + 100, &[0xEE; 64]).unwrap();
        let r =
            Rbpex::recover(Arc::clone(&dev) as Arc<dyn Fcb>, Arc::clone(&meta) as Arc<dyn Fcb>, 4)
                .unwrap();
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
        let r = Rbpex::recover(dev as Arc<dyn Fcb>, meta as Arc<dyn Fcb>, 4).unwrap();
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

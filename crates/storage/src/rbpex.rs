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
use std::time::Instant;

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

/// A page pushed out of RBPEX, with its last PageLSN.
type Victim = (PageId, Lsn);

/// What [`Rbpex::put_noting`] did with its page.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Put {
    /// RBPEX already mapped the page at its PageLSN: nothing was written.
    Clean,
    /// The page was written, pushing out the `(page, PageLSN)` given, if any.
    Written(Option<(PageId, Lsn)>),
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

    /// Whether `id` is mapped at PageLSN `lsn`.
    pub fn maps_at(&self, id: PageId, lsn: Lsn) -> bool {
        self.dir.lock().map.get(&id).is_some_and(|&(_, mapped)| mapped == lsn)
    }

    /// Fetch `id` from the cache. Returns `None` on miss, and while a
    /// put of `id` is in flight. A frame that fails verification is
    /// treated as a miss and dropped (self-healing).
    pub fn get(&self, id: PageId) -> Result<Option<Page>> {
        self.read_with(id, |device, frame| device.read_page(frame, id))
    }

    /// [`Rbpex::get`] issued with [`Fcb::read_deadline`]: the page is read
    /// at once, and the modelled read completes at the returned instant.
    /// The bytes can go stale before the caller waits that out: whoever
    /// installs the page checks [`Rbpex::maps_at`] its PageLSN first.
    pub fn get_deadline(&self, id: PageId) -> Result<Option<(Page, Instant)>> {
        self.read_with(id, |device, frame| device.read_page_deadline(frame, id))
    }

    /// Look up `id`'s frame, reference it, and `read` it with no lock
    /// held; a torn frame is dropped and reads as a miss.
    fn read_with<T>(
        &self,
        id: PageId,
        read: impl FnOnce(&PageFile, u64) -> Result<T>,
    ) -> Result<Option<T>> {
        let frame = {
            let mut dir = self.dir.lock();
            let Some(&(f, _)) = dir.map.get(&id) else {
                return Ok(None);
            };
            dir.ref_bits[f as usize] = true;
            f
        };
        match read(&self.device, frame) {
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
        match self.put_noting(page, &|_, _| {})? {
            Put::Clean => Ok(None),
            Put::Written(evicted) => Ok(evicted),
        }
    }

    /// [`Rbpex::put`], handing the evicted page to `note` under the
    /// directory lock *before* its mapping is removed: a reader that then
    /// misses both tiers for it must already find its eviction LSN
    /// wherever `note` records it.
    ///
    /// A page already mapped at its PageLSN is not written again: its
    /// frame is referenced, as a hit is, and the put is [`Put::Clean`].
    /// That is sound because a page's bytes change only with its PageLSN,
    /// and a freed page is removed from RBPEX. Otherwise the page is
    /// written with no lock held, into a frame that is in flight
    /// meanwhile, and the mapping is published once the write is done. A
    /// page cached at an older LSN is unmapped for the rewrite (the caller
    /// keeps it resident above this tier until the put returns).
    pub fn put_noting(&self, page: &Page, note: &dyn Fn(PageId, Lsn)) -> Result<Put> {
        let id = page.page_id();
        let Some((frame, evicted)) = self.reserve(id, page.page_lsn(), note)? else {
            return Ok(Put::Clean);
        };
        let written = self.device.write_page(frame, page);
        let mut dir = self.dir.lock();
        if let Err(e) = written {
            self.end_write(&mut dir, id, frame, None);
            return Err(e);
        }
        self.end_write(&mut dir, id, frame, Some(page.page_lsn()));
        self.journal_append(&mut dir, J_PUT, id, frame)?;
        Ok(Put::Written(evicted))
    }

    /// Under `dir`, take a frame for `id` at `lsn` and mark it in flight:
    /// the frame `id` is mapped to, else a free one, else the clock's
    /// victim, which is noted, unmapped and journaled first. Waits out an
    /// in-flight write of `id` itself, so a page never holds two frames.
    /// Takes nothing, and returns `None`, if `id` is mapped at `lsn`.
    fn reserve(
        &self,
        id: PageId,
        lsn: Lsn,
        note: &dyn Fn(PageId, Lsn),
    ) -> Result<Option<(u64, Option<Victim>)>> {
        let mut dir = self.dir.lock();
        while dir.writing.contains(&id) {
            dir.waiters += 1;
            self.written.wait(&mut dir);
            dir.waiters -= 1;
        }
        if let Some(&(f, mapped)) = dir.map.get(&id) {
            if mapped == lsn {
                dir.ref_bits[f as usize] = true;
                return Ok(None);
            }
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
        Ok(Some((frame, evicted)))
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
mod tests;

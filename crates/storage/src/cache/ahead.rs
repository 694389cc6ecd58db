//! A scan's read-ahead of the pages RBPEX holds: one deadline read per
//! page, issued together, then one wait for the last and an install that
//! drops a copy gone stale meanwhile. It runs once per scan node, not per
//! page read, so unlike its parent module it is not `soclint:hot`.

use super::{admit, CacheTier, TieredCache};
use crate::page::Page;
use socrates_common::latency::precise_sleep;
use socrates_common::{PageId, Result};
use std::time::Instant;

impl TieredCache {
    /// The first pages of `ids` not in memory, up to
    /// [`TieredCache::max_batch`]: what a read-ahead reads.
    pub fn ahead_of_memory(&self, ids: &[PageId]) -> Vec<PageId> {
        let off = ids.iter().copied().filter(|&id| !self.in_memory(id));
        off.take(self.max_batch()).collect()
    }

    /// Issue a deadline read ([`Rbpex::get_deadline`]) for every page of
    /// `ids` that is in RBPEX but not in memory, without waiting: returns
    /// the pages and the instant the last read completes, for
    /// [`TieredCache::install_local`] to wait out.
    ///
    /// [`Rbpex::get_deadline`]: crate::rbpex::Rbpex::get_deadline
    pub fn read_local(&self, ids: &[PageId]) -> Result<(Vec<Page>, Instant)> {
        let (mut pages, mut done) = (Vec::new(), Instant::now());
        if let Some(rbpex) = &self.rbpex {
            for &id in ids.iter().filter(|&&id| !self.in_memory(id)) {
                if let Some((page, at)) = rbpex.get_deadline(id)? {
                    pages.push(page);
                    done = done.max(at);
                }
            }
        }
        Ok((pages, done))
    }

    /// Wait for `done`, the deadline [`TieredCache::read_local`] returned,
    /// then install each of `pages`; its first read counts as an SSD hit.
    /// Returns how many of them are in memory afterwards.
    ///
    /// Between a read and its install the page can be loaded, updated and
    /// spilled again, and admitting the old bytes would lose that update.
    /// So under `mem` an existing memory entry wins, and otherwise a page
    /// is admitted only if RBPEX still maps it at the PageLSN read; if not,
    /// it is dropped and the walk's demand read fetches the page again. A
    /// spill's victim stays in memory until RBPEX maps its new PageLSN, so
    /// under `mem` one of the two checks sees every newer copy.
    pub fn install_local(&self, pages: Vec<Page>, done: Instant) -> Result<usize> {
        precise_sleep(done.saturating_duration_since(Instant::now()));
        let mut resident = 0;
        for page in pages {
            let id = page.page_id();
            let mut mem = self.room(|mem| mem.map.contains_key(&id), true)?;
            if mem.map.contains_key(&id)
                || self.rbpex.as_ref().is_some_and(|r| r.maps_at(id, page.page_lsn()))
            {
                admit(&mut mem, page, Some(CacheTier::Ssd));
                self.unlock_taken(mem);
                resident += 1;
            }
        }
        Ok(resident)
    }
}

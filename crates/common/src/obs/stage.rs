//! Pipeline stages and their always-on latency aggregates.
//!
//! "Where did this commit / this read spend its time" has two halves.
//! The *aggregate* half lives here: one plain hub histogram per stage of
//! the commit pipeline ([`Stage`]) and of the remote-read pipeline
//! ([`ReadStage`]), fed on every commit and every cache miss — no ring,
//! no capacity, no enable flag. The *exemplar* half (what one sampled
//! request did) is the span tree in [`ctx`](super::ctx).
//!
//! The first two commit stages are measured on the commit path. The other
//! three complete asynchronously, when a watermark passes the commit's
//! LSN; the deployment's lag watcher times those with a [`MarkQueue`] per
//! stage: each tick it marks the newly hardened frontier with the current
//! instant, and pops (and records) every mark the stage's watermark has
//! reached — O(marks passed), with no commit-path participation.

use crate::lsn::Lsn;
use crate::metrics::Histogram;
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A pipeline's stage enum: indexes and names the histograms of a
/// [`StageHists`].
pub trait StageSet: Copy + 'static {
    /// All stages, pipeline order; a stage's position is its index.
    const ALL: &'static [Self];
    /// Stable lowercase name used in exports.
    fn name(self) -> &'static str;
    /// Position in [`StageSet::ALL`].
    fn index(self) -> usize;
}

macro_rules! stages {
    ($(#[$doc:meta])* $ty:ident { $($(#[$vdoc:meta])* $variant:ident => $name:literal,)* }) => {
        $(#[$doc])*
        #[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
        pub enum $ty { $($(#[$vdoc])* $variant,)* }

        impl StageSet for $ty {
            const ALL: &'static [$ty] = &[$($ty::$variant,)*];
            fn name(self) -> &'static str {
                match self { $($ty::$variant => $name,)* }
            }
            fn index(self) -> usize {
                self as usize
            }
        }
    };
}

stages! {
    /// One stage of the commit pipeline (`primary.commit_stage_<name>_us`).
    Stage {
        /// Transaction work on the primary, begin → commit record appended.
        Engine => "engine",
        /// Landing-zone harden wait (the paper's commit latency).
        Harden => "harden",
        /// Until XLOG has destaged the commit to the long-term archive.
        Destage => "destage",
        /// Until every page server has applied past the commit.
        PageApply => "page_apply",
        /// Until every secondary has applied past the commit.
        SecondaryApply => "secondary_apply",
    }
}

impl Stage {
    /// Stages completed asynchronously by the lag watcher's mark queues.
    pub const ASYNC: [Stage; 3] = [Stage::Destage, Stage::PageApply, Stage::SecondaryApply];
}

stages! {
    /// One stage of the remote-read (cache-miss GetPage@LSN) pipeline
    /// (`<compute node>.read_stage_<name>_us`).
    ReadStage {
        /// Probing the local tiers (memory, RBPEX) before going remote.
        CacheProbe => "cache_probe",
        /// Scheduler queue wait, enqueue → dispatch to a worker.
        SchedQueue => "sched_queue",
        /// RBIO round trip minus the server's serve time.
        NetRbio => "net_rbio",
        /// Server-side serve time (stamped on the response by the server).
        ServerServe => "server_serve",
        /// Installing the fetched page into the compute cache.
        Sink => "sink",
    }
}

/// One always-on latency histogram (µs) per stage of `S`.
pub struct StageHists<S: StageSet> {
    hists: Vec<Arc<Histogram>>,
    _stages: std::marker::PhantomData<S>,
}

impl<S: StageSet> Default for StageHists<S> {
    fn default() -> Self {
        StageHists {
            hists: S::ALL.iter().map(|_| Arc::new(Histogram::new())).collect(),
            _stages: std::marker::PhantomData,
        }
    }
}

impl<S: StageSet> StageHists<S> {
    /// The histogram behind `stage`.
    pub fn hist(&self, stage: S) -> &Arc<Histogram> {
        &self.hists[stage.index()]
    }

    /// Record one `stage` duration.
    pub fn record(&self, stage: S, d: Duration) {
        self.hist(stage).record_duration(d);
    }

    /// Every stage with its histogram, pipeline order (the owner registers
    /// them in the hub under its pinned names).
    pub fn iter(&self) -> impl Iterator<Item = (S, &Arc<Histogram>)> {
        S::ALL.iter().copied().zip(&self.hists)
    }
}

/// Marks a [`MarkQueue`] retains before it drops the oldest.
pub const MARK_CAPACITY: usize = 1024;

/// A bounded queue of `(hardened LSN, instant)` marks awaiting one
/// asynchronous watermark. Owned by a single thread (the lag watcher).
#[derive(Default)]
pub struct MarkQueue {
    marks: VecDeque<(Lsn, Instant)>,
}

impl MarkQueue {
    /// Note that the log was hardened up to `lsn` at `at`. A zero,
    /// repeated or regressing frontier is ignored; a full queue drops its
    /// oldest mark.
    pub fn push(&mut self, lsn: Lsn, at: Instant) {
        if lsn.is_zero() || self.marks.back().is_some_and(|(newest, _)| lsn <= *newest) {
            return;
        }
        if self.marks.len() == MARK_CAPACITY {
            self.marks.pop_front();
        }
        self.marks.push_back((lsn, at));
    }

    /// Pop every mark `frontier` has reached, oldest first, reporting how
    /// long each waited. Each mark completes exactly once.
    pub fn advance(&mut self, frontier: Lsn, now: Instant, mut done: impl FnMut(Lsn, Duration)) {
        while let Some(&(lsn, at)) = self.marks.front() {
            if lsn > frontier {
                break;
            }
            self.marks.pop_front();
            done(lsn, now.saturating_duration_since(at));
        }
    }

    /// Forget every pending mark (the stage has no consumer right now).
    pub fn clear(&mut self) {
        self.marks.clear();
    }

    /// Marks still waiting for their watermark.
    pub fn len(&self) -> usize {
        self.marks.len()
    }

    /// Whether no mark is pending.
    pub fn is_empty(&self) -> bool {
        self.marks.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stage_names_are_pinned_and_index_their_histograms() {
        let names: Vec<&str> = Stage::ALL.iter().map(|s| s.name()).collect();
        assert_eq!(names, ["engine", "harden", "destage", "page_apply", "secondary_apply"]);
        let names: Vec<&str> = ReadStage::ALL.iter().map(|s| s.name()).collect();
        assert_eq!(names, ["cache_probe", "sched_queue", "net_rbio", "server_serve", "sink"]);

        let reads = StageHists::<ReadStage>::default();
        reads.record(ReadStage::Sink, Duration::from_micros(40));
        let counts: Vec<u64> = reads.iter().map(|(_, h)| h.count()).collect();
        assert_eq!(counts, [0, 0, 0, 0, 1]);
        assert_eq!(reads.hist(ReadStage::Sink).snapshot().max_us, 40);
        for (i, (stage, _)) in reads.iter().enumerate() {
            assert_eq!(stage.index(), i);
        }
    }
}

//! The pure quorum-acceptance protocol core (no I/O, no threads, no clock).
//!
//! This module holds the *decision logic* of the safekeeper-style WAL
//! acceptance protocol — terms, vote grants, divergent-tail truncation,
//! and the append accept/duplicate/gap verdicts — as plain state machines
//! over `(term, history, entries)`. Both halves of the tier are built on
//! it:
//!
//! * the live [`crate::quorum::Acceptor`] wraps an [`AcceptorCore`] and
//!   mirrors accepted entries into real block storage;
//! * the deterministic simulator ([`crate::quorum::sim`]) drives the same
//!   cores through randomized message interleavings and checks the
//!   protocol invariants after every step.
//!
//! Keeping the decisions pure is what makes the simulator's coverage
//! meaningful: an interleaving the simulator proves safe is exercising
//! the identical accept/reject/truncate code the live tier runs.
//!
//! ## The protocol in five rules
//!
//! 1. **Terms.** A proposer campaigns with a term strictly greater than
//!    any it has seen; an acceptor grants a vote iff the requested term
//!    is strictly greater than its own (so two proposers can never both
//!    win the same term), and adopts the term when granting.
//! 2. **Commit rule.** The proposer appends each block to every acceptor
//!    and declares it committed once a write quorum of acceptors (a
//!    majority in the live tier) report it flushed. The committed
//!    watermark never regresses.
//! 3. **Election start.** A new proposer collects votes from a majority
//!    and picks the *donor*: the voter with the greatest
//!    `(last_log_term, flush)`. The donor's flush LSN becomes the new
//!    term's start position. Because the donor is drawn from a majority,
//!    quorum intersection guarantees `start >= ` every previously
//!    committed LSN.
//! 4. **Truncation.** Each acceptor keeps a [`TermHistory`] — which term
//!    owns which LSN range. On `ProposerElected` it compares its history
//!    with the proposer's, finds the divergence point, and truncates any
//!    flushed entries beyond it. Only uncommitted bytes can diverge
//!    (rule 3), so truncation never loses committed data.
//! 5. **Catch-up.** An acceptor whose flush trails the stream gap-rejects
//!    appends with its flush LSN; the proposer backfills the missing
//!    range from a peer that has it, tagging each entry with the term
//!    that originally wrote it (so histories stay accurate).

use socrates_common::Lsn;

/// A proposer term (the protocol's ballot/epoch number). Term 0 is
/// reserved for "never voted".
pub type Term = u64;

/// One term switch: `term` owns the log from `start` until the next
/// switch (or the end of the log).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TermSwitch {
    /// The term that owns the range.
    pub term: Term,
    /// First LSN the term wrote.
    pub start: Lsn,
}

/// Which term wrote which part of the log — the acceptor-side record
/// that makes divergent-tail truncation precise (rule 4 above).
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct TermHistory {
    switches: Vec<TermSwitch>,
}

impl TermHistory {
    /// An empty history (nothing flushed yet).
    pub fn new() -> TermHistory {
        TermHistory { switches: Vec::new() }
    }

    /// The recorded switches, in increasing `(term, start)` order.
    pub fn switches(&self) -> &[TermSwitch] {
        &self.switches
    }

    /// The term owning the log tail (0 when nothing was ever flushed).
    pub fn last_term(&self) -> Term {
        self.switches.last().map(|s| s.term).unwrap_or(0)
    }

    /// Record that `term` owns the log from `start` onward. Terms must
    /// arrive in increasing order; a repeat of the current term is a
    /// no-op.
    pub fn note(&mut self, term: Term, start: Lsn) {
        if let Some(last) = self.switches.last() {
            if term == last.term {
                return;
            }
            assert!(
                term > last.term && start >= last.start,
                "term history must be monotone: ({term},{start}) after ({},{})",
                last.term,
                last.start
            );
        }
        self.switches.push(TermSwitch { term, start });
    }

    /// Drop ownership records for `lsn` and beyond (the log was truncated
    /// back to `lsn`). The switch *covering* `lsn` survives.
    pub fn rewind_to(&mut self, lsn: Lsn) {
        self.switches.retain(|s| s.start < lsn);
    }

    /// A copy of this history with ownership beyond `lsn` dropped.
    pub fn up_to(&self, lsn: Lsn) -> TermHistory {
        let mut h = self.clone();
        h.rewind_to(lsn);
        h
    }

    /// A copy of this history extended with a new term starting at
    /// `start` — what a freshly elected proposer announces (rule 3).
    pub fn with_switch(&self, term: Term, start: Lsn) -> TermHistory {
        let mut h = self.up_to(start);
        h.note(term, start);
        h
    }

    /// The first LSN where `self` and `other` disagree about term
    /// ownership, or `None` when they agree everywhere both are defined.
    ///
    /// Log contents below the divergence point are guaranteed identical
    /// (same term wrote them, and a term has a single proposer writing a
    /// single sequence); contents at or beyond it may conflict and must
    /// be truncated by whichever side defers (rule 4).
    pub fn divergence_from(&self, other: &TermHistory) -> Option<Lsn> {
        let a = &self.switches;
        let b = &other.switches;
        let mut i = 0;
        while i < a.len() && i < b.len() && a[i] == b[i] {
            i += 1;
        }
        match (a.get(i), b.get(i)) {
            (None, None) => None,
            (Some(s), None) | (None, Some(s)) => Some(s.start),
            (Some(sa), Some(sb)) => Some(sa.start.min(sb.start)),
        }
    }
}

/// One flushed log entry as the protocol core sees it: an LSN range, the
/// term that wrote it, and an opaque payload fingerprint (the live tier
/// stores a block checksum; the simulator stores a unique record id so
/// invariant checks can detect conflicting contents).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Entry {
    /// First LSN of the entry.
    pub start: Lsn,
    /// One past the last LSN of the entry.
    pub end: Lsn,
    /// The term whose proposer originally wrote the entry.
    pub term: Term,
    /// Content fingerprint (checksum or simulator record id).
    pub payload: u64,
}

/// Outcome of an acceptor voting on a campaign (rule 1 + the donor
/// inputs for rule 3).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct VoteResp {
    /// The acceptor's term after processing the request.
    pub term: Term,
    /// Whether the vote was granted (requested term was newer).
    pub granted: bool,
    /// The acceptor's flush LSN (donor candidate position).
    pub flush: Lsn,
    /// Term owning the acceptor's log tail.
    pub last_log_term: Term,
    /// The acceptor's full term history (for divergence checks).
    pub history: TermHistory,
}

/// Outcome of delivering a `ProposerElected` announcement.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ElectedResp {
    /// The acceptor's term after processing.
    pub term: Term,
    /// Whether the announcement was accepted (term was current).
    pub accepted: bool,
    /// The acceptor's flush LSN after any divergent-tail truncation.
    pub flush: Lsn,
}

/// Outcome of offering one entry to an acceptor.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AppendVerdict {
    /// Accepted and flushed at the tail.
    Appended,
    /// Entirely at or below the flush LSN — already flushed, idempotent.
    Duplicate,
    /// The entry does not start at the flush LSN; the acceptor needs
    /// catch-up from `flush` (rule 5).
    Gap {
        /// The acceptor's flush LSN (where backfill must start).
        flush: Lsn,
    },
    /// The acceptor has not processed this term's `ProposerElected`
    /// announcement (it may hold an untruncated divergent tail), so it
    /// refuses the append until the proposer re-sends the announcement.
    NotElected,
    /// The proposing term is older than the acceptor's — the proposer
    /// has been superseded and must stop.
    Stale {
        /// The acceptor's (newer) term.
        term: Term,
    },
}

/// The pure per-acceptor protocol state: promised term, term history,
/// and the flushed entry sequence. Durable across crashes (a crashed
/// acceptor stops responding but does not forget).
#[derive(Clone, Debug)]
pub struct AcceptorCore {
    term: Term,
    /// The highest term whose `ProposerElected` this acceptor processed
    /// (the "epoch"). Appends are only accepted from that exact term:
    /// granting a vote adopts `term` but does *not* truncate divergence,
    /// so an acceptor must see the election announcement before it may
    /// extend its log for the new proposer.
    elected_term: Term,
    history: TermHistory,
    /// Flushed entries, contiguous: `entries[i].end == entries[i+1].start`.
    entries: Vec<Entry>,
    /// Oldest retained LSN (the truncate horizon). Entries below it have
    /// been destaged and dropped; `entries[0].start == base` when any
    /// entries remain.
    base: Lsn,
}

impl AcceptorCore {
    /// A fresh acceptor whose log starts at `base`.
    pub fn new(base: Lsn) -> AcceptorCore {
        AcceptorCore {
            term: 0,
            elected_term: 0,
            history: TermHistory::new(),
            entries: Vec::new(),
            base,
        }
    }

    /// The acceptor's promised term.
    pub fn term(&self) -> Term {
        self.term
    }

    /// The highest term whose election announcement was processed.
    pub fn elected_term(&self) -> Term {
        self.elected_term
    }

    /// The flush LSN: everything below it is durably held (or destaged).
    pub fn flush(&self) -> Lsn {
        self.entries.last().map(|e| e.end).unwrap_or(self.base)
    }

    /// The truncate horizon (oldest retained LSN).
    pub fn base(&self) -> Lsn {
        self.base
    }

    /// Term owning the log tail (0 for an empty log).
    pub fn last_log_term(&self) -> Term {
        self.history.last_term()
    }

    /// The acceptor's term-ownership record.
    pub fn history(&self) -> &TermHistory {
        &self.history
    }

    /// Retained flushed entries in LSN order.
    pub fn entries(&self) -> &[Entry] {
        &self.entries
    }

    /// The retained entry starting at exactly `lsn`, if present.
    pub fn entry_at(&self, lsn: Lsn) -> Option<&Entry> {
        self.entries.binary_search_by(|e| e.start.cmp(&lsn)).ok().map(|i| &self.entries[i])
    }

    /// Rule 1: grant iff the requested term is strictly newer, adopting
    /// it so no other proposer can win the same term from this acceptor.
    pub fn handle_vote(&mut self, req_term: Term) -> VoteResp {
        let granted = req_term > self.term;
        if granted {
            self.term = req_term;
        }
        VoteResp {
            term: self.term,
            granted,
            flush: self.flush(),
            last_log_term: self.last_log_term(),
            history: self.history.clone(),
        }
    }

    /// Rule 4: adopt the elected proposer's term and truncate any flushed
    /// tail that diverges from the announced term history.
    pub fn handle_elected(&mut self, req_term: Term, history: &TermHistory) -> ElectedResp {
        if req_term < self.term {
            return ElectedResp { term: self.term, accepted: false, flush: self.flush() };
        }
        self.term = req_term;
        self.elected_term = req_term;
        if let Some(d) = self.history.divergence_from(history) {
            if d < self.flush() {
                // Drop every entry extending past the divergence point.
                // `d` is always an entry boundary of the shared prefix
                // (term switches start on block boundaries), so no entry
                // straddles it; retain-by-end is exact. The ownership
                // record is rewound to the surviving flush LSN — no
                // switch may claim bytes that are no longer flushed.
                self.entries.retain(|e| e.end <= d);
                self.history.rewind_to(self.flush().max(self.base));
            }
        }
        ElectedResp { term: self.term, accepted: true, flush: self.flush() }
    }

    /// Rules 2/5: accept an entry at the flush LSN, treat fully-flushed
    /// ranges as idempotent duplicates, and gap-reject anything else with
    /// the flush LSN so the proposer can backfill.
    pub fn handle_append(&mut self, proposer_term: Term, entry: Entry) -> AppendVerdict {
        if proposer_term < self.term {
            return AppendVerdict::Stale { term: self.term };
        }
        if proposer_term != self.elected_term {
            // The proposer is current (or newer than anything we have
            // promised) but we have not processed its election: our tail
            // may diverge from its history, so appending would splice
            // onto garbage. Make it announce itself first.
            return AppendVerdict::NotElected;
        }
        let flush = self.flush();
        if entry.end <= flush {
            return AppendVerdict::Duplicate;
        }
        if entry.start != flush {
            return AppendVerdict::Gap { flush };
        }
        debug_assert!(
            entry.term >= self.history.last_term(),
            "entry term {} regresses below log tail term {}",
            entry.term,
            self.history.last_term()
        );
        self.history.note(entry.term, entry.start);
        self.entries.push(entry);
        AppendVerdict::Appended
    }

    /// Destage trim: drop retained entries wholly below `lsn` and raise
    /// the base. Never moves backward or past the flush LSN.
    pub fn truncate_base(&mut self, lsn: Lsn) {
        let new_base = lsn.min(self.flush()).max(self.base);
        self.entries.retain(|e| e.end > new_base);
        self.base = new_base;
    }

    /// Reseed an acceptor so far behind that its missing range was
    /// already destaged out of every peer: drop the stale log and restart
    /// at `to`, adopting the proposer's term history for the skipped
    /// range (the bytes below `to` are durable in long-term storage, not
    /// here).
    pub fn fast_forward(&mut self, to: Lsn, history: &TermHistory) {
        if to <= self.flush() {
            return;
        }
        self.entries.clear();
        self.base = to;
        self.history = history.up_to(to);
    }
}

/// Rule 3: pick the donor among granted votes — greatest
/// `(last_log_term, flush)` — returning an index into `votes`.
/// Panics if `votes` is empty.
pub fn choose_donor(votes: &[(usize, VoteResp)]) -> usize {
    assert!(!votes.is_empty(), "choose_donor needs at least one granted vote");
    let mut best = 0;
    for (i, (_, v)) in votes.iter().enumerate() {
        let b = &votes[best].1;
        if (v.last_log_term, v.flush) > (b.last_log_term, b.flush) {
            best = i;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lsn(v: u64) -> Lsn {
        Lsn::new(v)
    }

    fn entry(start: u64, end: u64, term: Term, payload: u64) -> Entry {
        Entry { start: lsn(start), end: lsn(end), term, payload }
    }

    #[test]
    fn votes_grant_strictly_newer_terms_once() {
        let mut a = AcceptorCore::new(Lsn::ZERO);
        assert!(a.handle_vote(1).granted);
        // Same term again: somebody else campaigning at 1 must lose.
        assert!(!a.handle_vote(1).granted);
        assert!(!a.handle_vote(0).granted);
        assert!(a.handle_vote(3).granted);
        assert_eq!(a.term(), 3);
    }

    #[test]
    fn appends_require_the_election_announcement() {
        let mut a = AcceptorCore::new(Lsn::ZERO);
        a.handle_vote(1);
        // Voting adopts the term but does not authorize appends: the
        // divergence check only happens in handle_elected.
        assert_eq!(a.handle_append(1, entry(0, 10, 1, 7)), AppendVerdict::NotElected);
        a.handle_elected(1, &TermHistory::new().with_switch(1, Lsn::ZERO));
        assert_eq!(a.handle_append(1, entry(0, 10, 1, 7)), AppendVerdict::Appended);
    }

    #[test]
    fn appends_advance_flush_and_history() {
        let mut a = AcceptorCore::new(Lsn::ZERO);
        a.handle_vote(1);
        a.handle_elected(1, &TermHistory::new().with_switch(1, Lsn::ZERO));
        assert_eq!(a.handle_append(1, entry(0, 10, 1, 7)), AppendVerdict::Appended);
        assert_eq!(a.handle_append(1, entry(10, 30, 1, 8)), AppendVerdict::Appended);
        assert_eq!(a.flush(), lsn(30));
        assert_eq!(a.last_log_term(), 1);
        assert_eq!(a.history().switches(), &[TermSwitch { term: 1, start: Lsn::ZERO }]);
        // Duplicate is idempotent; gap reports the flush LSN.
        assert_eq!(a.handle_append(1, entry(10, 30, 1, 8)), AppendVerdict::Duplicate);
        assert_eq!(a.handle_append(1, entry(50, 60, 1, 9)), AppendVerdict::Gap { flush: lsn(30) });
        // A deposed proposer is told the newer term.
        a.handle_vote(5);
        assert_eq!(a.handle_append(1, entry(30, 40, 1, 10)), AppendVerdict::Stale { term: 5 });
    }

    #[test]
    fn elected_truncates_divergent_tail_only() {
        // Acceptor flushed [0,10) in term 1 then a divergent [10,40) in
        // term 2 that never committed. The term-3 proposer's history says
        // term 2 never happened here: term 1 owned up to 10 and term 3
        // starts at 10.
        let mut a = AcceptorCore::new(Lsn::ZERO);
        a.handle_elected(1, &TermHistory::new().with_switch(1, Lsn::ZERO));
        a.handle_append(1, entry(0, 10, 1, 1));
        a.handle_elected(2, &a.history().clone().with_switch(2, lsn(10)));
        a.handle_append(2, entry(10, 40, 2, 2));
        assert_eq!(a.flush(), lsn(40));

        let mut theirs = TermHistory::new();
        theirs.note(1, Lsn::ZERO);
        let theirs = theirs.with_switch(3, lsn(10));
        let resp = a.handle_elected(3, &theirs);
        assert!(resp.accepted);
        assert_eq!(resp.flush, lsn(10), "divergent [10,40) must be dropped");
        assert_eq!(a.last_log_term(), 1);
        assert_eq!(a.term(), 3);
        // The shared prefix survives.
        assert_eq!(a.entries(), &[entry(0, 10, 1, 1)]);
    }

    #[test]
    fn elected_keeps_compatible_log_intact() {
        let mut a = AcceptorCore::new(Lsn::ZERO);
        a.handle_elected(1, &TermHistory::new().with_switch(1, Lsn::ZERO));
        a.handle_append(1, entry(0, 10, 1, 1));
        // Proposer elected at term 2 with start == our flush: we are the
        // donor; nothing is truncated.
        let theirs = a.history().with_switch(2, lsn(10));
        let resp = a.handle_elected(2, &theirs);
        assert_eq!(resp.flush, lsn(10));
        assert_eq!(a.entries().len(), 1);
        // Older-term announcements are rejected outright.
        let stale = a.history().with_switch(1, lsn(10));
        assert!(!a.handle_elected(1, &stale).accepted);
    }

    #[test]
    fn divergence_point_cases() {
        let mut a = TermHistory::new();
        a.note(1, lsn(0));
        a.note(3, lsn(20));
        let mut b = TermHistory::new();
        b.note(1, lsn(0));
        b.note(3, lsn(20));
        assert_eq!(a.divergence_from(&b), None);
        // b extends a with a later switch: divergence at that switch.
        b.note(5, lsn(50));
        assert_eq!(a.divergence_from(&b), Some(lsn(50)));
        assert_eq!(b.divergence_from(&a), Some(lsn(50)));
        // Different term at the same position: divergence at its start.
        let mut c = TermHistory::new();
        c.note(1, lsn(0));
        c.note(4, lsn(30));
        assert_eq!(a.divergence_from(&c), Some(lsn(20)));
    }

    #[test]
    fn truncate_base_and_fast_forward() {
        let mut a = AcceptorCore::new(Lsn::ZERO);
        a.handle_elected(1, &TermHistory::new().with_switch(1, Lsn::ZERO));
        a.handle_append(1, entry(0, 10, 1, 1));
        a.handle_append(1, entry(10, 30, 1, 2));
        a.truncate_base(lsn(10));
        assert_eq!(a.base(), lsn(10));
        assert_eq!(a.entries().len(), 1);
        assert!(a.entry_at(lsn(10)).is_some());
        // Fast-forward past a destaged range: log restarts at `to` with
        // the proposer's ownership record for what was skipped.
        let mut donor = TermHistory::new();
        donor.note(1, lsn(0));
        donor.note(4, lsn(100));
        a.fast_forward(lsn(120), &donor);
        assert_eq!(a.flush(), lsn(120));
        assert_eq!(a.base(), lsn(120));
        assert_eq!(a.last_log_term(), 4);
        assert!(a.entries().is_empty());
    }

    #[test]
    fn donor_is_max_by_term_then_flush() {
        let v = |llt, flush| VoteResp {
            term: 9,
            granted: true,
            flush: lsn(flush),
            last_log_term: llt,
            history: TermHistory::new(),
        };
        let votes = vec![(0, v(1, 100)), (1, v(2, 40)), (2, v(2, 60))];
        assert_eq!(choose_donor(&votes), 2, "higher term beats longer log");
    }
}

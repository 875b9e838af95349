//! Engine-internal state of the per-link stop-and-wait reliability
//! protocol.
//!
//! One [`RelLink`] per *touched* directed link carries both endpoint
//! roles: the sender side (sequence counter, the single unacknowledged
//! in-flight payload, and a backlog of payloads waiting for the link) and
//! the receiver side (the highest sequence delivered, for duplicate
//! suppression). Entries live in an insertion-ordered slab — iteration
//! order (used when a recovered node re-arms its timers) is therefore a
//! deterministic function of the execution history, independent of hash
//! table capacity, which keeps fresh and arena-recycled trials
//! byte-identical.
//!
//! The engine finds a directed link's entry once per payload, when it
//! hands the link that payload ([`RelState::touch`]): one read of a table
//! indexed by the port map's link id, with one slot per direction. The
//! returned `u32` slab index then rides in the payload's data, ack and
//! retransmission timer events, and every handler indexes the slab
//! directly. An index stays valid for the whole trial: the slab only
//! grows until [`RelState::reset`]. Each entry records its link id, so
//! the ack path reaches the reverse direction's floor and horizon
//! without a lookup.
//!
//! Reset clears the slab and keeps its capacity, so a recycled arena
//! holds one slab sized for its largest trial. Backlogs live in a table
//! beside the slab: a link gets one when a payload first has to wait, and
//! its entry holds the backlog's `u32` index, which keeps an entry at 64
//! bytes with a 16-byte message. Reset drops every backlog.

use std::collections::VecDeque;

use clique_model::ports::Port;

use super::{link_dir, link_entry};

/// The backlog index of a link that has had no payload waiting.
const NO_BACKLOG: u32 = u32::MAX;

/// The slab index of a direction no payload has used yet.
const UNTOUCHED: u32 = u32::MAX;

/// The single unacknowledged payload in flight on a directed link.
pub(crate) struct Outstanding<M> {
    /// Link-local sequence number (1-based).
    pub(crate) seq: u32,
    /// The receiver-side port the payload is addressed to.
    pub(crate) dst_port: Port,
    /// The payload, retained for retransmission.
    pub(crate) msg: M,
    /// Wire transmissions performed so far (1 after the initial send).
    pub(crate) attempts: u32,
}

/// Per-directed-link protocol state (both endpoint roles; see module
/// docs), addressed by its slab index.
pub(crate) struct RelLink<M> {
    /// The sending endpoint. Reliability events carry only the slab
    /// index and read both endpoints here.
    pub(crate) src: u32,
    /// The receiving endpoint.
    pub(crate) dst: u32,
    /// The port-map id of the link, shared with the reverse direction.
    pub(crate) link: u32,
    /// Sequence number most recently assigned by the sender (0 = none).
    pub(crate) next_seq: u32,
    /// The sender's unacknowledged in-flight payload.
    pub(crate) inflight: Option<Outstanding<M>>,
    /// The link's index in [`RelState`]'s backlog table, or `NO_BACKLOG`
    /// until a payload first has to wait for the link.
    backlog: u32,
    /// Highest sequence the receiver accepted on this link (duplicate
    /// suppression; gaps appear only when the sender abandoned a payload).
    pub(crate) delivered_hi: u32,
}

impl<M> RelLink<M> {
    fn new(src: u32, dst: u32, link: u32) -> Self {
        RelLink {
            src,
            dst,
            link,
            next_seq: 0,
            inflight: None,
            backlog: NO_BACKLOG,
            delivered_hi: 0,
        }
    }
}

/// All touched-link protocol state of one execution, with storage that
/// recycles across arena trials: the link index, the slab and the backlog
/// table keep their capacity (see module docs).
///
/// [`RelState::touch`] returns a link's `u32` slab index, and
/// `rel[index]` reads its [`RelLink`]; only `touch` consults the link
/// index.
pub(crate) struct RelState<M> {
    /// Per port-map link id and [`link_dir`], the slab index of the
    /// direction's entry (`UNTOUCHED` until first used).
    index: Vec<[u32; 2]>,
    /// Touched links in insertion order.
    slab: Vec<RelLink<M>>,
    /// Payloads waiting for a link (stop-and-wait admits one at a time),
    /// one queue per link that has had one waiting this trial.
    backlogs: Vec<VecDeque<(Port, M)>>,
}

impl<M> Default for RelState<M> {
    fn default() -> Self {
        RelState {
            index: Vec::new(),
            slab: Vec::new(),
            backlogs: Vec::new(),
        }
    }
}

impl<M> RelState<M> {
    /// Clears all protocol state for a new trial, keeping the link
    /// index's, the slab's and the backlog table's capacity (payloads and
    /// backlog buffers are dropped).
    pub(crate) fn reset(&mut self) {
        self.index.clear();
        self.slab.clear();
        self.backlogs.clear();
    }

    /// The slab index of direction `src → dst` of port-map link `link`,
    /// creating the direction's state on first touch.
    pub(crate) fn touch(&mut self, src: u32, dst: u32, link: u32) -> u32 {
        let slot = &mut link_entry(&mut self.index, link, UNTOUCHED)[link_dir(src, dst)];
        if *slot == UNTOUCHED {
            *slot = u32::try_from(self.slab.len())
                .ok()
                .filter(|&idx| idx != UNTOUCHED)
                .expect("fewer than 2³² − 1 touched links");
            self.slab.push(RelLink::new(src, dst, link));
        }
        *slot
    }

    /// Queues `payload` behind the payload in flight on link `link`.
    pub(crate) fn push_backlog(&mut self, link: u32, payload: (Port, M)) {
        let l = &mut self.slab[link as usize];
        if l.backlog == NO_BACKLOG {
            l.backlog = u32::try_from(self.backlogs.len())
                .ok()
                .filter(|&b| b != NO_BACKLOG)
                .expect("fewer than 2³² − 1 backlogs");
            self.backlogs.push(VecDeque::new());
        }
        self.backlogs[l.backlog as usize].push_back(payload);
    }

    /// Removes and returns the oldest payload waiting for link `link`.
    pub(crate) fn pop_backlog(&mut self, link: u32) -> Option<(Port, M)> {
        match self.slab[link as usize].backlog {
            NO_BACKLOG => None,
            b => self.backlogs[b as usize].pop_front(),
        }
    }

    /// Touched links in insertion order (deterministic; see module docs).
    pub(crate) fn iter(&self) -> impl Iterator<Item = &RelLink<M>> {
        self.slab.iter()
    }

    /// Estimated resident bytes of the protocol state: the link index,
    /// the slab, the backlog table and every backlog buffer.
    pub(crate) fn resident_bytes(&self) -> u64 {
        let index = self.index.capacity() * std::mem::size_of::<[u32; 2]>();
        let entries = self.slab.capacity() * std::mem::size_of::<RelLink<M>>();
        let backlogs = self.backlogs.capacity() * std::mem::size_of::<VecDeque<(Port, M)>>();
        let waiting: usize = self.backlogs.iter().map(VecDeque::capacity).sum();
        let buffers = waiting * std::mem::size_of::<(Port, M)>();
        (index + entries + backlogs + buffers) as u64
    }
}

impl<M> std::ops::Index<u32> for RelState<M> {
    type Output = RelLink<M>;

    #[inline]
    fn index(&self, link: u32) -> &RelLink<M> {
        &self.slab[link as usize]
    }
}

impl<M> std::ops::IndexMut<u32> for RelState<M> {
    #[inline]
    fn index_mut(&mut self, link: u32) -> &mut RelLink<M> {
        &mut self.slab[link as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn entries_are_created_once_and_keep_insertion_order() {
        let mut rel: RelState<u32> = RelState::default();
        let a = rel.touch(4, 2, 3);
        rel[a].next_seq = 7;
        let b = rel.touch(0, 7, 0);
        rel[b].next_seq = 1;
        // The reverse direction of link 3 is an entry of its own.
        let c = rel.touch(2, 4, 3);
        assert_eq!((a, b, c), (0, 1, 2));
        assert_eq!(rel.touch(4, 2, 3), a, "a touched link keeps its index");
        assert_eq!(rel[a].next_seq, 7);
        let ends: Vec<(u32, u32, u32)> = rel.iter().map(|l| (l.src, l.dst, l.link)).collect();
        assert_eq!(ends, vec![(4, 2, 3), (0, 7, 0), (2, 4, 3)]);
    }

    #[test]
    fn links_stay_64_bytes() {
        // A slab entry per touched link: indexing the backlog table keeps
        // an entry with a 16-byte message (as Algorithm 2's is) at 64
        // bytes; an inline `VecDeque` makes it 88.
        assert_eq!(std::mem::size_of::<RelLink<(u64, u64)>>(), 64);
    }

    #[test]
    fn reset_clears_entries_and_drops_backlogs() {
        let mut rel: RelState<u32> = RelState::default();
        for src in 0..4 {
            let link = rel.touch(src, 0, src);
            rel[link].next_seq = 5;
            rel[link].delivered_hi = 3;
            for j in 0..16 {
                rel.push_backlog(link, (Port(0), j));
            }
        }
        assert_eq!(rel.pop_backlog(2).map(|(_, m)| m), Some(0), "FIFO");
        let bytes_before = rel.resident_bytes();
        rel.reset();
        assert_eq!(rel.iter().count(), 0);
        // The backlogs are freed; the slab and link index keep their
        // capacity.
        assert!(rel.resident_bytes() < bytes_before);
        // New entries start scrubbed, numbered from 0 again.
        let link = rel.touch(2, 3, 2);
        assert_eq!(link, 0);
        let l = &rel[link];
        assert_eq!((l.src, l.dst, l.link), (2, 3, 2));
        assert_eq!(l.next_seq, 0);
        assert!(l.inflight.is_none());
        assert_eq!(l.backlog, NO_BACKLOG, "a new entry holds no backlog");
        assert_eq!(l.delivered_hi, 0);
        assert!(rel.pop_backlog(link).is_none());
    }
}

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
//! The engine hashes a link's `src·n + dst` key once per payload, when it
//! hands the link that payload ([`RelState::touch`]). The returned `u32`
//! slab index then rides in the payload's data, ack and retransmission
//! timer events, and every handler indexes the slab directly. An index
//! stays valid for the whole trial: the slab only grows until
//! [`RelState::reset`].

use std::collections::VecDeque;

use clique_model::ports::{OpenTable, Port};

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
    /// Sequence number most recently assigned by the sender (0 = none).
    pub(crate) next_seq: u32,
    /// The sender's unacknowledged in-flight payload.
    pub(crate) inflight: Option<Outstanding<M>>,
    /// Payloads waiting for the link (stop-and-wait admits one at a time).
    pub(crate) backlog: VecDeque<(Port, M)>,
    /// Highest sequence the receiver accepted on this link (duplicate
    /// suppression; gaps appear only when the sender abandoned a payload).
    pub(crate) delivered_hi: u32,
}

impl<M> RelLink<M> {
    fn new(src: u32, dst: u32) -> Self {
        RelLink {
            src,
            dst,
            next_seq: 0,
            inflight: None,
            backlog: VecDeque::new(),
            delivered_hi: 0,
        }
    }

    fn scrub(&mut self) {
        self.next_seq = 0;
        self.inflight = None;
        self.backlog.clear();
        self.delivered_hi = 0;
    }
}

/// All touched-link protocol state of one execution, with storage that
/// recycles across arena trials: cleared entries park in a pool and are
/// reissued (backlog allocations intact) instead of reallocated.
///
/// [`RelState::touch`] returns a link's `u32` slab index, and
/// `rel[index]` reads its [`RelLink`]; only `touch` consults the key
/// table.
pub(crate) struct RelState<M> {
    /// Directed-link key `src·n + dst` → index into `slab`.
    links: OpenTable<u32>,
    /// Touched links in insertion order.
    slab: Vec<RelLink<M>>,
    /// Scrubbed entries awaiting reuse by a later trial.
    pool: Vec<RelLink<M>>,
}

impl<M> Default for RelState<M> {
    fn default() -> Self {
        RelState {
            links: OpenTable::new(),
            slab: Vec::new(),
            pool: Vec::new(),
        }
    }
}

impl<M> RelState<M> {
    /// Clears all protocol state for a new trial, keeping the table,
    /// slab, and backlog allocations (payloads are dropped).
    pub(crate) fn reset(&mut self) {
        self.links.clear();
        self.links.end_trial();
        // drain() keeps the slab's capacity; scrubbed entries keep their
        // backlog capacity inside the pool.
        for mut link in self.slab.drain(..) {
            link.scrub();
            self.pool.push(link);
        }
    }

    /// The slab index of directed link `src → dst` in an `n`-node
    /// network, creating the link's state on first touch.
    pub(crate) fn touch(&mut self, src: u32, dst: u32, n: usize) -> u32 {
        let key = u64::from(src) * n as u64 + u64::from(dst);
        if let Some(idx) = self.links.get(key) {
            return idx;
        }
        let idx = u32::try_from(self.slab.len()).expect("fewer than 2³² touched links");
        self.links.insert(key, idx);
        let mut link = self.pool.pop().unwrap_or_else(|| RelLink::new(src, dst));
        (link.src, link.dst) = (src, dst);
        self.slab.push(link);
        idx
    }

    /// Touched links in insertion order (deterministic; see module docs).
    pub(crate) fn iter(&self) -> impl Iterator<Item = &RelLink<M>> {
        self.slab.iter()
    }

    /// Estimated resident bytes of the protocol state: the key table, the
    /// slab and pool entries, and every retained backlog buffer.
    pub(crate) fn resident_bytes(&self) -> u64 {
        let entry = std::mem::size_of::<RelLink<M>>() as u64;
        let backlog_slot = std::mem::size_of::<(Port, M)>() as u64;
        let backlogs: u64 = self
            .slab
            .iter()
            .chain(self.pool.iter())
            .map(|l| l.backlog.capacity() as u64 * backlog_slot)
            .sum();
        self.links.resident_bytes()
            + (self.slab.capacity() + self.pool.capacity()) as u64 * entry
            + backlogs
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
        let a = rel.touch(4, 2, 10);
        rel[a].next_seq = 7;
        let b = rel.touch(0, 7, 10);
        rel[b].next_seq = 1;
        assert_eq!((a, b), (0, 1));
        assert_eq!(rel.touch(4, 2, 10), a, "a touched link keeps its index");
        assert_eq!(rel[a].next_seq, 7);
        let ends: Vec<(u32, u32)> = rel.iter().map(|l| (l.src, l.dst)).collect();
        assert_eq!(ends, vec![(4, 2), (0, 7)]);
    }

    #[test]
    fn reset_pools_entries_and_keeps_backlog_capacity() {
        let mut rel: RelState<u32> = RelState::default();
        for src in 0..4 {
            let link = rel.touch(src, 0, 4);
            rel[link].backlog.extend((0..16).map(|j| (Port(0), j)));
        }
        let bytes_before = rel.resident_bytes();
        rel.reset();
        assert_eq!(rel.iter().count(), 0);
        // The pooled entries still hold their backlog buffers (the pool's
        // own spine may add a little on top).
        assert!(rel.resident_bytes() >= bytes_before);
        // Reissued entries come back scrubbed, numbered from 0 again.
        let link = rel.touch(2, 3, 4);
        assert_eq!(link, 0);
        let l = &rel[link];
        assert_eq!((l.src, l.dst), (2, 3));
        assert_eq!(l.next_seq, 0);
        assert!(l.inflight.is_none());
        assert!(l.backlog.is_empty());
        assert!(l.backlog.capacity() >= 16, "backlog buffer was reissued");
        assert_eq!(l.delivered_hi, 0);
    }
}

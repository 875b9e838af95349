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
//!
//! # The held slot
//!
//! Most of a reliable link's timers and acks change nothing: on a link
//! that carries one payload, the ack beats the timer, which then pops
//! stale, and the ack only clears the in-flight slot. So in a crash-free
//! run (an empty fault plan) each entry holds one event of its in-flight
//! payload in a [`Held`] slot instead of queuing it, under the queue `seq`
//! the engine reserved where it would have pushed it, and queues it only
//! when it can still change the execution. Every queued event then pops
//! in the same `(time, seq)` order as when all were queued.
//!
//! * **The retransmission timer.** A copy that lands by its deadline
//!   leaves its timer held; a dropped or late copy, or a slot that holds
//!   an ack, has it queued at once. The in-flight payload's next data pop
//!   settles a held timer: an ack that lands strictly before the deadline
//!   makes it stale, and it is dropped; a lost or late ack queues it. An
//!   earlier attempt's ack that moves the payload out of flight first
//!   drops it too, since it would pop stale.
//! * **The ack.** The in-flight payload's ack waits in a free slot when
//!   the link has no backlog. An ack for a payload that has left flight,
//!   or one trailing a held ack of the same payload, would pop as a no-op
//!   and is dropped. The next event that reads the entry (a data, ack or
//!   timer pop on the link, or a dispatch onto it) applies a held ack that
//!   pops before it, which clears the in-flight payload and does nothing
//!   else, since the backlog is empty; a dispatch queues a held ack that
//!   pops after it before the new payload joins the backlog.
//!
//! With crash faults every timer and ack is queued: whether an ack takes
//! effect, and so whether its timer pops stale, depends on a crash decided
//! after both are sent.
//!
//! A held event that is never queued is never popped: the engine's event
//! cap does not count it, and the reported time takes the latest ack that
//! was held or dropped, since every ack pop counts as effective (in a run
//! the cap halted, only up to the last popped event).

use std::collections::VecDeque;
use std::num::NonZeroU32;

use super::{link_dir, link_entry};

/// The backlog index of a link that has had no payload waiting.
const NO_BACKLOG: u32 = u32::MAX;

/// The slab index of a direction no payload has used yet.
const UNTOUCHED: u32 = u32::MAX;

/// The single unacknowledged payload in flight on a directed link. Its
/// link-local sequence number is its entry's `next_seq`.
pub(crate) struct Outstanding<M> {
    /// The receiver-side port the payload is addressed to.
    pub(crate) dst_port: u32,
    /// Wire transmissions so far, the one under way included. Never 0,
    /// which lets `Option<Outstanding>` take no room of its own.
    pub(crate) attempts: NonZeroU32,
    /// The payload, retained for retransmission.
    pub(crate) msg: M,
}

/// What a [`Held`] slot holds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum HeldKind {
    /// Nothing.
    Empty = 0,
    /// The in-flight payload's retransmission timer, armed after its
    /// latest attempt (crash-free runs only).
    Timer = 1,
    /// The in-flight payload's ack (crash-free runs only).
    Ack = 2,
}

/// An event a reliable link holds instead of queuing (see module docs):
/// its time, and one word packing the queue `seq` reserved for it above
/// the two bits of its [`HeldKind`], which keeps an entry at 64 bytes.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Held {
    time: f64,
    word: u64,
}

impl Held {
    /// The empty slot.
    pub(crate) const EMPTY: Held = Held { time: 0.0, word: 0 };

    /// A held event of `kind` at `time`, under the reserved queue `seq`.
    pub(crate) fn new(kind: HeldKind, time: f64, seq: u64) -> Held {
        debug_assert!(seq < 1 << 62, "a queue seq fits above the kind bits");
        Held {
            time,
            word: seq << 2 | kind as u64,
        }
    }

    /// What the slot holds.
    pub(crate) fn kind(self) -> HeldKind {
        match self.word & 3 {
            0 => HeldKind::Empty,
            1 => HeldKind::Timer,
            _ => HeldKind::Ack,
        }
    }

    /// The held event's time.
    pub(crate) fn time(self) -> f64 {
        self.time
    }

    /// The held event's reserved queue `seq`.
    pub(crate) fn seq(self) -> u64 {
        self.word >> 2
    }

    /// Whether the held event pops before the event at `(time, seq)`.
    pub(crate) fn precedes(self, time: f64, seq: u64) -> bool {
        self.time < time || (self.time == time && self.seq() < seq)
    }
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
    /// Sequence number most recently assigned by the sender (0 = none):
    /// the in-flight payload's, while there is one.
    pub(crate) next_seq: u32,
    /// The sender's unacknowledged in-flight payload.
    pub(crate) inflight: Option<Outstanding<M>>,
    /// The link's index in [`RelState`]'s backlog table, or `NO_BACKLOG`
    /// until a payload first has to wait for the link.
    backlog: u32,
    /// Highest sequence the receiver accepted on this link (duplicate
    /// suppression; gaps appear only when the sender abandoned a payload).
    pub(crate) delivered_hi: u32,
    /// The in-flight payload's timer or ack, held unqueued (see module
    /// docs); empty while no payload is in flight.
    pub(crate) held: Held,
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
            held: Held::EMPTY,
        }
    }

    /// Whether `data_seq` is the payload in flight.
    pub(crate) fn in_flight(&self, data_seq: u32) -> bool {
        self.inflight.is_some() && self.next_seq == data_seq
    }

    /// Puts the next payload in flight, before its first transmission.
    pub(crate) fn start(&mut self, dst_port: u32, msg: M) {
        self.next_seq += 1;
        self.inflight = Some(Outstanding {
            dst_port,
            attempts: NonZeroU32::MIN,
            msg,
        });
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
    /// as their receiver-side port and message, one queue per link that
    /// has had one waiting this trial.
    backlogs: Vec<VecDeque<(u32, M)>>,
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
    pub(crate) fn push_backlog(&mut self, link: u32, payload: (u32, M)) {
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
    pub(crate) fn pop_backlog(&mut self, link: u32) -> Option<(u32, M)> {
        match self.slab[link as usize].backlog {
            NO_BACKLOG => None,
            b => self.backlogs[b as usize].pop_front(),
        }
    }

    /// Whether no payload waits for link `link`.
    pub(crate) fn backlog_is_empty(&self, link: u32) -> bool {
        match self.slab[link as usize].backlog {
            NO_BACKLOG => true,
            b => self.backlogs[b as usize].is_empty(),
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
        let backlogs = self.backlogs.capacity() * std::mem::size_of::<VecDeque<(u32, M)>>();
        let waiting: usize = self.backlogs.iter().map(VecDeque::capacity).sum();
        let buffers = waiting * std::mem::size_of::<(u32, M)>();
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
    fn a_held_event_packs_its_seq_with_its_kind() {
        let timer = Held::new(HeldKind::Timer, 2.5, (1 << 62) - 1);
        assert_eq!(timer.kind(), HeldKind::Timer);
        assert_eq!((timer.time(), timer.seq()), (2.5, (1 << 62) - 1));
        let ack = Held::new(HeldKind::Ack, 1.0, 7);
        assert_eq!((ack.kind(), ack.seq()), (HeldKind::Ack, 7));
        assert_eq!(Held::EMPTY.kind(), HeldKind::Empty);
        // `(time, seq)` order, as the queue pops.
        assert!(ack.precedes(1.5, 0) && ack.precedes(1.0, 8));
        assert!(!ack.precedes(1.0, 7) && !ack.precedes(1.0, 6) && !ack.precedes(0.5, 9));
    }

    #[test]
    fn reset_clears_entries_and_drops_backlogs() {
        let mut rel: RelState<u32> = RelState::default();
        for src in 0..4 {
            let link = rel.touch(src, 0, src);
            rel[link].next_seq = 5;
            rel[link].delivered_hi = 3;
            for j in 0..16 {
                rel.push_backlog(link, (0, j));
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
        assert_eq!(l.held.kind(), HeldKind::Empty);
        assert!(rel.pop_backlog(link).is_none() && rel.backlog_is_empty(link));
    }
}

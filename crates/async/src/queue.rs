//! The asynchronous engine's event queue: a calendar queue that pops
//! events in exactly the `(time, seq)` order of one binary heap over all
//! of them.
//!
//! Time is cut into buckets of `1/256` time unit, event `t` lying in
//! bucket `⌊t · 256⌋`. The queue keeps four parts:
//!
//! * `run`, the events of the current bucket `cur` that were pending
//!   when it was reached, sorted once, latest first;
//! * `near`, a small heap holding every event pushed into a bucket
//!   already reached (`≤ cur`) after that;
//! * a ring of buckets over the next 8 time units
//!   (`cur < b < cur + 2048`), unordered within a bucket;
//! * `far`, a heap for anything later (late wake-ups, backed-off
//!   retransmission timers).
//!
//! A pop takes the earlier of `run`'s last event and `near`'s top. Once
//! both run dry, `cur` moves to the earliest non-empty ring bucket (or,
//! over an all-empty ring, to the earliest far event), that bucket and
//! the far events in it are copied into `run` and sorted, and the other
//! far events that came within the ring's span move into the ring. The
//! bucket map is monotone, so an earlier bucket always holds strictly
//! earlier times and equal times always share a bucket: merging `run`
//! and `near` by `(time, seq)` then reproduces the single heap's pop
//! order exactly. Most events are popped from `run`, for one sort per
//! bucket instead of a heap sift per event; `near` only takes pushes
//! behind the clock, such as a rushing adversary's, at O(log) each.
//! Every comparison reads one integer key, `((time + 0.0).to_bits(),
//! seq)`: for the non-negative, non-NaN times the queue admits, the bits
//! order like the values.
//!
//! An event can take its `seq` before it is pushed: [`EventQueue::reserve`]
//! hands out the next `seq`, and [`EventQueue::push_reserved`] queues an
//! event under it later, or never. A late push goes to `near`, the ring or
//! `far` by its time like any other, so it pops exactly where it would have
//! had it been pushed at once, and a `seq` never pushed is one no pop
//! returns. The engine reserves the `seq`s of a reliable link's
//! retransmission timer and ack where it would push them; in a crash-free
//! run it holds the events in the link's entry and queues them only when
//! they can still change the execution (see `network::reliability`). A
//! held event that is never queued is never popped, so the engine's event
//! cap does not count it.
//!
//! Both bucket constants come from the model, and neither is a tuning knob:
//! message delays lie in `(0, 1]`, so almost every event lands within 256
//! buckets of `cur`, and the 8-unit span also holds the default
//! retransmission timeouts `2.5` and `5` (`rto · 2^k`). 256 is a power of
//! two, so `t · 256` is exact and bucket edges fall exactly on `k/256`.
//!
//! A ring bucket stores its events in fixed chunks of [`CHUNK`] events,
//! linked newest first: pushes fill the first chunk, and a full one gets
//! a fresh chunk linked in front of it. All buckets share one free list of
//! empty chunks, which supplies those fresh chunks. Reaching a bucket
//! appends its chunks to `run` (the sort makes their order irrelevant) and
//! returns every one of them to the free list. A drained bucket holds no
//! storage, so the ring holds at most the events it held at once plus one
//! partly filled chunk per bucket, whichever buckets they fell in: a queue
//! recycled across trials keeps its largest trial's live state instead of
//! growing with every trial.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Buckets per time unit.
const BUCKETS_PER_UNIT: f64 = 256.0;
/// Buckets in the ring: the next 8 time units.
const RING: u64 = 8 * 256;
/// Events per ring chunk: 768 bytes at the engine's 48-byte events. A
/// chunk costs a 32-byte header in the chunk table (4 % at 16 events, 17 %
/// at 4) and one free-list step per 16 pushes. A bucket's partly filled
/// first chunk wastes at most `CHUNK − 1` slots, so the ring holds at most
/// `2048 · 15` events (1.4 MB) beyond its live ones, against the ~10 MB
/// the queue holds for a congested 1024-node trial; chunks of 64 would
/// allow 6 MB.
const CHUNK: usize = 16;
/// The end of a chunk list.
const NIL: u32 = u32::MAX;

/// The bucket of time `t`. The float-to-integer cast saturates: `+∞`, and
/// any time past `2⁶⁴/256`, maps to `u64::MAX`, so no bucket arithmetic
/// below can overflow. The map is non-decreasing in `t`.
#[inline]
fn bucket(t: f64) -> u64 {
    (t * BUCKETS_PER_UNIT) as u64
}

/// The ring slot of bucket `b`.
#[inline]
fn slot(b: u64) -> usize {
    (b % RING) as usize
}

/// A scheduled event. Ordered by `(time, seq)`; `seq` is the queue's push
/// counter (taken at the push, or reserved before it), which makes the pop
/// order fully deterministic and acts as the FIFO tie-break for
/// simultaneous events.
pub(crate) struct Event<K> {
    pub(crate) time: f64,
    pub(crate) seq: u64,
    pub(crate) kind: K,
}

impl<K> Event<K> {
    /// The event's place in the pop order, as one integer pair. Times are
    /// non-negative and never NaN ([`EventQueue::push_reserved`] checks),
    /// and the bits of such floats order like their values, `+∞` last;
    /// adding `0.0` folds `-0.0`, which a wake-up or crash time may be,
    /// onto `+0.0`, equal as the values are.
    #[inline]
    fn key(&self) -> (u64, u64) {
        ((self.time + 0.0).to_bits(), self.seq)
    }
}

impl<K> PartialEq for Event<K> {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}

impl<K> Eq for Event<K> {}

impl<K> PartialOrd for Event<K> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<K> Ord for Event<K> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we want the earliest event.
        other.key().cmp(&self.key())
    }
}

/// Up to [`CHUNK`] events of one ring bucket, or a free chunk.
struct Chunk<K> {
    /// The events, in push order; allocated once at capacity `CHUNK`.
    events: Vec<Event<K>>,
    /// The next chunk of the same bucket, or of the free list.
    next: u32,
}

/// The pending events of one execution, popped in `(time, seq)` order.
pub(crate) struct EventQueue<K> {
    /// The events of bucket `cur` pending when it was reached, sorted
    /// latest first, so the earliest is popped off the end.
    run: Vec<Event<K>>,
    /// Every event pushed into a bucket `≤ cur` since, heap-ordered.
    near: BinaryHeap<Event<K>>,
    /// Slot `slot(b)` is the newest chunk of bucket `b`, for
    /// `cur < b < cur + RING`, or `NIL` while the bucket is empty.
    ring: Vec<u32>,
    /// Every chunk ever allocated, in a bucket's list or the free list.
    chunks: Vec<Chunk<K>>,
    /// The first empty chunk, linked through `next`.
    free: u32,
    /// Events held in `ring`.
    ring_len: usize,
    /// Every event in a bucket `≥ cur + RING`, heap-ordered.
    far: BinaryHeap<Event<K>>,
    /// The latest bucket `near` was filled from.
    cur: u64,
    /// The next push's `seq`.
    seq: u64,
}

impl<K> Default for EventQueue<K> {
    fn default() -> Self {
        EventQueue {
            run: Vec::new(),
            near: BinaryHeap::new(),
            ring: vec![NIL; RING as usize],
            chunks: Vec::new(),
            free: NIL,
            ring_len: 0,
            far: BinaryHeap::new(),
            cur: 0,
            seq: 0,
        }
    }
}

impl<K> EventQueue<K> {
    /// Schedules `kind` at `time`, stamped with the next `seq`.
    pub(crate) fn push(&mut self, time: f64, kind: K) {
        let seq = self.reserve();
        self.push_reserved(time, seq, kind);
    }

    /// Takes the next `seq` for an event that may be pushed later, with
    /// [`EventQueue::push_reserved`], or never.
    pub(crate) fn reserve(&mut self) -> u64 {
        let seq = self.seq;
        self.seq += 1;
        seq
    }

    /// Schedules `kind` at `time` under a `seq` taken earlier by
    /// [`EventQueue::reserve`]. The event goes to `near`, the ring or `far`
    /// by its time alone, so it pops exactly where it would have, had it
    /// been pushed when its `seq` was reserved.
    ///
    /// # Panics
    ///
    /// Panics on a negative or NaN time, which the pop order's integer key
    /// cannot rank. The engine validates every delay and every wake-up and
    /// crash time before it schedules them.
    pub(crate) fn push_reserved(&mut self, time: f64, seq: u64, kind: K) {
        assert!(time >= 0.0, "event times are non-negative, got {time}");
        let ev = Event { time, seq, kind };
        let b = bucket(time);
        if b <= self.cur {
            self.near.push(ev);
        } else if b - self.cur < RING {
            self.push_ring(b, ev);
        } else {
            self.far.push(ev);
        }
    }

    /// Removes and returns the earliest event (ties by push order).
    pub(crate) fn pop(&mut self) -> Option<Event<K>> {
        if self.run.is_empty() && self.near.is_empty() && !self.advance() {
            return None;
        }
        // `Event`'s order is reversed: the greater event is the earlier.
        match (self.run.last(), self.near.peek()) {
            (Some(run), Some(near)) if near > run => self.near.pop(),
            (Some(_), _) => self.run.pop(),
            (None, _) => self.near.pop(),
        }
    }

    /// Pending events.
    pub(crate) fn len(&self) -> usize {
        self.run.len() + self.near.len() + self.ring_len + self.far.len()
    }

    /// Whether no event is pending.
    pub(crate) fn is_empty(&self) -> bool {
        self.run.is_empty() && self.near.is_empty() && self.ring_len == 0 && self.far.is_empty()
    }

    /// Bytes of event storage held, counting retained capacity: `run`,
    /// `near`, `far`, every chunk, and the spines of the ring and the
    /// chunk table.
    pub(crate) fn resident_bytes(&self) -> u64 {
        let chunked: usize = self.chunks.iter().map(|c| c.events.capacity()).sum();
        let events = self.run.capacity() + self.near.capacity() + self.far.capacity() + chunked;
        let spine = self.ring.capacity() * std::mem::size_of::<u32>()
            + self.chunks.capacity() * std::mem::size_of::<Chunk<K>>();
        (events * std::mem::size_of::<Event<K>>() + spine) as u64
    }

    /// Drops every pending event and restarts `seq` and the clock at 0,
    /// keeping all storage for the next execution, every chunk free.
    pub(crate) fn clear(&mut self) {
        self.run.clear();
        self.near.clear();
        // An empty ring has every chunk on the free list already.
        if self.ring_len > 0 {
            self.ring.fill(NIL);
            self.ring_len = 0;
            let mut free = NIL;
            for (c, chunk) in self.chunks.iter_mut().enumerate().rev() {
                chunk.events.clear();
                chunk.next = free;
                free = c as u32;
            }
            self.free = free;
        }
        self.far.clear();
        self.cur = 0;
        self.seq = 0;
    }

    /// Appends `ev` to ring bucket `b`'s first chunk, first linking a
    /// chunk from the free list (or a new one) in front when that chunk is
    /// full or absent.
    fn push_ring(&mut self, b: u64, ev: Event<K>) {
        let s = slot(b);
        let mut head = self.ring[s];
        if head == NIL || self.chunks[head as usize].events.len() == CHUNK {
            let fresh = if self.free == NIL {
                let c = u32::try_from(self.chunks.len())
                    .ok()
                    .filter(|&c| c != NIL)
                    .expect("fewer than 2³² − 1 ring chunks");
                self.chunks.push(Chunk {
                    events: Vec::with_capacity(CHUNK),
                    next: head,
                });
                c
            } else {
                let c = self.free;
                self.free = std::mem::replace(&mut self.chunks[c as usize].next, head);
                c
            };
            self.ring[s] = fresh;
            head = fresh;
        }
        self.chunks[head as usize].events.push(ev);
        self.ring_len += 1;
    }

    /// Moves `cur` to the earliest non-empty bucket after it and fills
    /// `run` from it; `false` if nothing is pending. Requires empty `run`
    /// and `near`.
    fn advance(&mut self) -> bool {
        let next = if self.ring_len > 0 {
            // Ring buckets all precede `cur + RING`, hence every far event.
            // A ring event's bucket exceeds `cur`, so `b` cannot overflow.
            let mut b = self.cur + 1;
            while self.ring[slot(b)] == NIL {
                b += 1;
            }
            b
        } else if let Some(ev) = self.far.peek() {
            bucket(ev.time)
        } else {
            return false;
        };
        self.cur = next;
        // Copy each chunk's events into `run` and hand the emptied chunk
        // to the free list.
        let mut c = std::mem::replace(&mut self.ring[slot(next)], NIL);
        while c != NIL {
            let chunk = &mut self.chunks[c as usize];
            self.ring_len -= chunk.events.len();
            self.run.append(&mut chunk.events);
            let rest = std::mem::replace(&mut chunk.next, self.free);
            self.free = c;
            c = rest;
        }
        // Far events never precede `cur` (they were at least `RING`
        // buckets past an earlier `cur`, or `cur` is the earliest of
        // them), so `b - cur` cannot underflow.
        while let Some(ev) = self.far.peek() {
            let b = bucket(ev.time);
            if b - self.cur >= RING {
                break;
            }
            let ev = self.far.pop().expect("peeked");
            if b == self.cur {
                self.run.push(ev);
            } else {
                self.push_ring(b, ev);
            }
        }
        // Ascending in the reversed order: the earliest event ends last.
        self.run.sort_unstable();
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clique_model::rng::rng_from_seed;
    use rand::rngs::SmallRng;
    use rand::Rng;

    /// The reference order: `(time, seq)` with times compared as floats
    /// (`-0.0 == +0.0`), reversed for the max-heap, independently of the
    /// queue's integer key.
    struct Ref {
        time: f64,
        seq: u64,
        kind: u64,
    }

    impl PartialEq for Ref {
        fn eq(&self, other: &Self) -> bool {
            self.cmp(other) == Ordering::Equal
        }
    }

    impl Eq for Ref {}

    impl PartialOrd for Ref {
        fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
            Some(self.cmp(other))
        }
    }

    impl Ord for Ref {
        fn cmp(&self, other: &Self) -> Ordering {
            other
                .time
                .partial_cmp(&self.time)
                .expect("test times are never NaN")
                .then_with(|| other.seq.cmp(&self.seq))
        }
    }

    /// Drives an [`EventQueue`] and a reference `BinaryHeap` through the
    /// same seeded interleaving of `ops` pushes and pops (`next_time` picks
    /// each push time from the last popped time), asserting the same
    /// `(time, seq, kind)` pop sequence and the same `len()` after every
    /// operation, then the same drain order. A fifth of the pushes reserve
    /// their `seq` and reach both heaps only at a later push, as a held
    /// event does; the rest take `push`. The queue is borrowed, so a test
    /// can hand in a cleared, previously used one.
    fn differential(
        queue: &mut EventQueue<u64>,
        seed: u64,
        ops: usize,
        mut next_time: impl FnMut(&mut SmallRng, f64) -> f64,
    ) {
        let mut rng = rng_from_seed(seed);
        let mut reference: BinaryHeap<Ref> = BinaryHeap::new();
        let mut held: Vec<(f64, u64)> = Vec::new();
        let mut seq = 0u64;
        let mut now = 0.0f64;
        let got = |e: Event<u64>| (e.time.to_bits(), e.seq, e.kind);
        let want = |e: Ref| (e.time.to_bits(), e.seq, e.kind);
        // The payload travels with the event: a second check that the
        // queue hands back the event it was given.
        let push_reserved = |queue: &mut EventQueue<u64>,
                             reference: &mut BinaryHeap<Ref>,
                             (time, seq): (f64, u64)| {
            queue.push_reserved(time, seq, seq ^ 0xA5A5);
            let kind = seq ^ 0xA5A5;
            reference.push(Ref { time, seq, kind });
        };
        for _ in 0..ops {
            if reference.is_empty() || rng.gen_bool(0.55) {
                let time = next_time(&mut rng, now);
                if held.len() < 4 && rng.gen_bool(0.2) {
                    assert_eq!(queue.reserve(), seq, "seed {seed}: reserve");
                    held.push((time, seq));
                } else {
                    queue.push(time, seq ^ 0xA5A5);
                    let kind = seq ^ 0xA5A5;
                    reference.push(Ref { time, seq, kind });
                }
                seq += 1;
                if !held.is_empty() && rng.gen_bool(0.3) {
                    let late = held.swap_remove(rng.gen_range(0..held.len()));
                    push_reserved(queue, &mut reference, late);
                }
            } else {
                let popped = queue.pop().map(got);
                let expected = reference.pop().map(want);
                assert_eq!(popped, expected, "seed {seed}: pop diverged");
                now = f64::from_bits(expected.expect("reference non-empty").0);
            }
            assert_eq!(queue.len(), reference.len(), "seed {seed}: len diverged");
            assert_eq!(queue.is_empty(), reference.is_empty());
        }
        for late in held {
            push_reserved(queue, &mut reference, late);
        }
        while let Some(expected) = reference.pop() {
            assert_eq!(
                queue.pop().map(got),
                Some(want(expected)),
                "seed {seed}: drain"
            );
        }
        assert!(queue.pop().is_none() && queue.is_empty());
        assert_eq!(queue.len(), 0);
    }

    /// Message-like traffic: a delay in `(0, 1]` from the last pop.
    fn delay(rng: &mut SmallRng, now: f64) -> f64 {
        now + (1.0 - rng.gen::<f64>())
    }

    #[test]
    fn matches_a_heap_on_message_traffic() {
        for seed in 0..20 {
            differential(&mut EventQueue::default(), seed, 4000, delay);
        }
    }

    #[test]
    fn matches_a_heap_on_equal_times_and_bucket_edges() {
        for seed in 0..20 {
            differential(&mut EventQueue::default(), seed, 4000, |rng, now| {
                match rng.gen_range(0..4u32) {
                    // Many events at one shared time.
                    0 => now.floor() + 0.5,
                    // Exactly on a bucket edge `k/256`, in this bucket,
                    // the next one, or across the ring.
                    1 => (bucket(now) + rng.gen_range(0..RING + 2)) as f64 / 256.0,
                    // Exactly on an edge just below the current time.
                    2 => (bucket(now).saturating_sub(1)) as f64 / 256.0,
                    _ => delay(rng, now),
                }
            });
        }
    }

    #[test]
    fn matches_a_heap_on_pushes_behind_the_current_bucket() {
        // `RushingAdversary` races messages at `f64::MIN_POSITIVE`, so a
        // push can land at the time just popped; a generic caller may even
        // push strictly earlier. Both belong in `near`.
        for seed in 0..20 {
            differential(&mut EventQueue::default(), seed, 4000, |rng, now| match rng
                .gen_range(0..4u32)
            {
                0 => now + f64::MIN_POSITIVE,
                1 => now,
                2 => (now - rng.gen::<f64>()).max(0.0),
                _ => delay(rng, now),
            });
        }
    }

    #[test]
    fn matches_a_heap_on_timers_past_the_ring_and_empty_ring_jumps() {
        // Backed-off retransmission timers `2.5 · 2^k` reach past the
        // 8-unit ring into `far`; sparse traffic leaves the ring empty, so
        // `advance` must jump straight to the earliest far event.
        for seed in 0..20 {
            differential(&mut EventQueue::default(), seed, 4000, |rng, now| match rng
                .gen_range(0..5u32)
            {
                0 => now + 2.5 * 2f64.powi(rng.gen_range(0..12)),
                1 => now + 8.0,
                2 => now + 8.0 - 1.0 / 256.0,
                3 => now + rng.gen_range(100.0..10_000.0),
                _ => delay(rng, now),
            });
        }
        // Only far events, each pop preceded by one push: every pop jumps
        // over an all-empty ring.
        differential(&mut EventQueue::default(), 99, 2000, |rng, now| {
            now + rng.gen_range(8.5..50.0)
        });
    }

    #[test]
    fn matches_a_heap_on_infinite_and_huge_times() {
        // `AsyncWakeSchedule::staged` accepts `+∞`, and `powi` overflows a
        // long backoff ladder to `+∞`; times past `2⁶⁴/256` saturate to the
        // last bucket together with `+∞`.
        for seed in 0..20 {
            differential(&mut EventQueue::default(), seed, 3000, |rng, now| match rng
                .gen_range(0..6u32)
            {
                0 => f64::INFINITY,
                1 => f64::MAX,
                2 => 1e300,
                3 => now + 2.5 * 2f64.powi(rng.gen_range(1000..1100)),
                4 => rng.gen_range(0.0..4.0),
                _ => delay(rng, now),
            });
        }
        // Pops at `+∞` set the clock to the last bucket; later pushes at
        // any time still pop in order.
        let mut q = EventQueue::default();
        q.push(f64::INFINITY, 0);
        q.push(3.0, 1);
        q.push(f64::INFINITY, 2);
        assert_eq!(q.pop().map(|e| e.kind), Some(1));
        assert_eq!(q.pop().map(|e| e.kind), Some(0));
        q.push(1.0, 3);
        q.push(f64::INFINITY, 4);
        let order: Vec<u64> = std::iter::from_fn(|| q.pop().map(|e| e.kind)).collect();
        assert_eq!(order, [3, 2, 4]);
    }

    #[test]
    fn matches_a_heap_on_signed_zero_ties() {
        // A wake-up or crash at `-0.0` ties with one at `+0.0` and pops in
        // push order, as the float comparison ranks them; their bits
        // differ, so the key must fold the sign.
        for seed in 0..20 {
            differential(&mut EventQueue::default(), seed, 3000, |rng, now| match rng
                .gen_range(0..4u32)
            {
                0 => -0.0,
                1 => 0.0,
                2 => now,
                _ => delay(rng, now),
            });
        }
    }

    #[test]
    #[should_panic(expected = "event times are non-negative")]
    fn a_nan_time_is_refused_at_the_push() {
        EventQueue::default().push(f64::NAN, 0u64);
    }

    #[test]
    fn recycled_storage_stays_within_the_live_events() {
        // Sixteen cycles on one queue, cleared between them as an arena
        // clears it between trials. Each cycle pushes a burst of 64 events
        // into each of 127 buckets, a different range of ring slots every
        // time, so together the bursts cover the whole ring; then it drains
        // the burst. Storage must stay within the peak live events (plus a
        // quarter for partly filled chunks and `run`) and 64 KiB of spine,
        // not grow to every slot's own high-water mark.
        const PER_BUCKET: u64 = 64;
        let mut q: EventQueue<u64> = EventQueue::default();
        let mut peak = 0;
        for cycle in 0..16u64 {
            q.clear();
            let first = cycle * 128 + 1;
            for i in 0..PER_BUCKET {
                for b in first..first + 127 {
                    q.push((b as f64 + 0.5) / 256.0, i);
                }
            }
            peak = peak.max(q.len());
            let mut last = 0.0;
            while let Some(ev) = q.pop() {
                assert!(ev.time >= last, "cycle {cycle}: popped out of order");
                last = ev.time;
            }
        }
        assert_eq!(peak, 127 * PER_BUCKET as usize);
        let live = peak * std::mem::size_of::<Event<u64>>();
        let bound = (live + live / 4 + 64 * 1024) as u64;
        assert!(
            q.resident_bytes() <= bound,
            "{} B held for {live} B of live events (bound {bound} B)",
            q.resident_bytes()
        );
    }

    #[test]
    fn clear_restarts_seq_and_clock_and_keeps_working() {
        let mut q = EventQueue::default();
        for seed in 0..6 {
            // Leave events behind in every part, then clear mid-flight.
            for i in 0..50u64 {
                q.push(i as f64 * 0.37, i);
            }
            q.push(f64::INFINITY, 99);
            assert!(q.pop().is_some());
            q.clear();
            assert!(q.is_empty() && q.pop().is_none());
            assert_eq!(q.len(), 0);
            // The reused queue stamps from seq 0 and starts at bucket 0.
            differential(&mut q, seed, 3000, |rng, now| {
                match rng.gen_range(0..3u32) {
                    0 => now + 2.5 * 2f64.powi(rng.gen_range(0..4)),
                    _ => delay(rng, now),
                }
            });
        }
    }
}

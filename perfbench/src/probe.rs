//! Layer probes: call counters with 1-in-K sampled timers, and thin
//! wrappers around the simulator's public traits (`SyncNode`,
//! `AsyncNode`, `PortResolver`, `Adversary`, `TraceSink`) that feed them.
//!
//! A node handler or a resolver choice costs about as much as reading the
//! clock, so timing every call would measure the clock. A [`Sampler`]
//! counts every call and times a pseudo-random one in [`SAMPLE_EVERY`];
//! a layer's total is the sampled mean, minus the cost of the clock
//! itself ([`clock_ns`]), times the call count.
//!
//! Every wrapper forwards each trait method unchanged and draws no
//! randomness of its own, so a wrapped execution is the same execution:
//! the benchmark checks that it yields the same outcome fingerprint.

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use clique_async::{Adversary, AsyncContext, AsyncNode, Capability, MessageClass, Observation};
use clique_model::ports::PortView;
use clique_model::trace::{TraceEvent, TraceSink};
use clique_model::{Decision, NodeIndex, Port, PortResolver, WakeCause};
use clique_sync::{Context, Received, SyncNode};
use rand::rngs::SmallRng;

/// Mean stride between timed calls.
pub const SAMPLE_EVERY: u64 = 64;

/// The cost, in ns, of timing an empty interval: the median of many
/// back-to-back `Instant::now()` pairs. Subtracted from every sample.
pub fn clock_ns() -> f64 {
    static CLOCK: OnceLock<f64> = OnceLock::new();
    *CLOCK.get_or_init(|| {
        let mut samples: Vec<f64> = (0..8192)
            .map(|_| {
                let t = Instant::now();
                t.elapsed().as_nanos() as f64
            })
            .collect();
        samples.sort_by(f64::total_cmp);
        samples[samples.len() / 2]
    })
}

/// Counted and sampled calls of one layer.
#[derive(Debug, Clone, Copy, Default)]
pub struct Tally {
    /// Every call.
    pub calls: u64,
    /// Calls that were timed.
    pub sampled: u64,
    /// Summed wall time of the timed calls, clock cost included.
    pub sampled_ns: f64,
}

impl Tally {
    /// Adds another tally into this one.
    pub fn add(&mut self, other: &Tally) {
        self.calls += other.calls;
        self.sampled += other.sampled;
        self.sampled_ns += other.sampled_ns;
    }

    /// Estimated ns per call, net of the clock's own cost.
    pub fn ns_per_call(&self) -> f64 {
        if self.sampled == 0 {
            return 0.0;
        }
        (self.sampled_ns / self.sampled as f64 - clock_ns()).max(0.0)
    }

    /// Estimated ns over all calls.
    pub fn total_ns(&self) -> f64 {
        self.calls as f64 * self.ns_per_call()
    }
}

/// Counts every call and times a pseudo-random one in [`SAMPLE_EVERY`].
///
/// The gap to the next timed call is uniform in `1..2K`, so sampling
/// cannot lock onto a periodic call pattern (node `u` of every round).
#[derive(Debug, Clone)]
pub struct Sampler {
    tally: Tally,
    next: u64,
    state: u64,
}

impl Sampler {
    /// A sampler whose gap sequence is seeded by `salt`.
    pub fn new(salt: u64) -> Sampler {
        Sampler {
            tally: Tally::default(),
            next: 1,
            state: salt | 1,
        }
    }

    /// Runs `f`, counting it and timing it if it is due.
    #[inline]
    pub fn time<R>(&mut self, f: impl FnOnce() -> R) -> R {
        self.tally.calls += 1;
        if self.tally.calls < self.next {
            return f();
        }
        let t0 = Instant::now();
        let r = f();
        let dt = t0.elapsed();
        self.tally.sampled += 1;
        self.tally.sampled_ns += dt.as_nanos() as f64;
        // xorshift64
        self.state ^= self.state << 13;
        self.state ^= self.state >> 7;
        self.state ^= self.state << 17;
        self.next = self.tally.calls + 1 + self.state % (2 * SAMPLE_EVERY - 1);
        r
    }

    /// The calls counted so far.
    pub fn tally(&self) -> Tally {
        self.tally
    }
}

/// Handler-layer state shared by every wrapped node of one election.
#[derive(Debug)]
pub struct NodeProbe {
    /// Handler calls (`on_wake`, `send_phase`, `receive_phase`,
    /// `on_message`).
    pub handlers: Sampler,
    /// Synchronous `receive_phase` calls with a non-empty inbox.
    pub mail_calls: u64,
}

impl NodeProbe {
    /// A fresh shared probe.
    pub fn shared() -> Rc<RefCell<NodeProbe>> {
        Rc::new(RefCell::new(NodeProbe {
            handlers: Sampler::new(0x9E37_79B9_7F4A_7C15),
            mail_calls: 0,
        }))
    }
}

/// A node whose handlers are counted and sampled.
pub struct Timed<N> {
    inner: N,
    probe: Rc<RefCell<NodeProbe>>,
}

impl<N> Timed<N> {
    /// Wraps `inner`, reporting into `probe`.
    pub fn new(inner: N, probe: Rc<RefCell<NodeProbe>>) -> Timed<N> {
        Timed { inner, probe }
    }
}

impl<N: SyncNode> SyncNode for Timed<N> {
    type Message = N::Message;

    fn on_wake(&mut self, ctx: &mut Context<'_, N::Message>, cause: WakeCause) {
        let inner = &mut self.inner;
        self.probe
            .borrow_mut()
            .handlers
            .time(|| inner.on_wake(ctx, cause));
    }

    fn send_phase(&mut self, ctx: &mut Context<'_, N::Message>) {
        let inner = &mut self.inner;
        self.probe
            .borrow_mut()
            .handlers
            .time(|| inner.send_phase(ctx));
    }

    fn receive_phase(&mut self, ctx: &mut Context<'_, N::Message>, inbox: &[Received<N::Message>]) {
        let mut probe = self.probe.borrow_mut();
        if !inbox.is_empty() {
            probe.mail_calls += 1;
        }
        let inner = &mut self.inner;
        probe.handlers.time(|| inner.receive_phase(ctx, inbox));
    }

    fn decision(&self) -> Decision {
        self.inner.decision()
    }

    fn is_terminated(&self) -> bool {
        self.inner.is_terminated()
    }
}

impl<N: AsyncNode> AsyncNode for Timed<N> {
    type Message = N::Message;

    fn on_wake(&mut self, ctx: &mut AsyncContext<'_, N::Message>, cause: WakeCause) {
        let inner = &mut self.inner;
        self.probe
            .borrow_mut()
            .handlers
            .time(|| inner.on_wake(ctx, cause));
    }

    fn on_message(
        &mut self,
        ctx: &mut AsyncContext<'_, N::Message>,
        m: clique_async::Received<N::Message>,
    ) {
        let inner = &mut self.inner;
        self.probe
            .borrow_mut()
            .handlers
            .time(|| inner.on_message(ctx, m));
    }

    fn decision(&self) -> Decision {
        self.inner.decision()
    }

    fn classify(msg: &N::Message) -> MessageClass {
        N::classify(msg)
    }

    fn is_terminated(&self) -> bool {
        self.inner.is_terminated()
    }
}

/// Resolver-layer state: sampled choice cost and every choice made, in
/// order (peer, then peer port, per fresh resolution).
#[derive(Debug)]
pub struct ResolverProbe {
    /// `choose_peer` and `choose_peer_port` calls.
    pub choose: Sampler,
    /// The choices, for replay.
    pub choices: Vec<u32>,
}

impl ResolverProbe {
    /// A fresh shared probe.
    pub fn shared() -> Rc<RefCell<ResolverProbe>> {
        Rc::new(RefCell::new(ResolverProbe {
            choose: Sampler::new(0xD1B5_4A32_D192_ED03),
            choices: Vec::new(),
        }))
    }
}

/// A resolver whose choices are counted, sampled and recorded.
pub struct TimedResolver<R> {
    inner: R,
    probe: Rc<RefCell<ResolverProbe>>,
}

impl<R> TimedResolver<R> {
    /// Wraps `inner`, reporting into `probe`.
    pub fn new(inner: R, probe: Rc<RefCell<ResolverProbe>>) -> TimedResolver<R> {
        TimedResolver { inner, probe }
    }
}

impl<R: PortResolver> PortResolver for TimedResolver<R> {
    fn choose_peer(
        &mut self,
        view: PortView<'_>,
        src: NodeIndex,
        src_port: Port,
        rng: &mut SmallRng,
    ) -> NodeIndex {
        let mut probe = self.probe.borrow_mut();
        let inner = &mut self.inner;
        let v = probe
            .choose
            .time(|| inner.choose_peer(view, src, src_port, rng));
        probe.choices.push(v.0 as u32);
        v
    }

    fn choose_peer_port(
        &mut self,
        view: PortView<'_>,
        src: NodeIndex,
        src_port: Port,
        peer: NodeIndex,
        rng: &mut SmallRng,
    ) -> Port {
        let mut probe = self.probe.borrow_mut();
        let inner = &mut self.inner;
        let p = probe
            .choose
            .time(|| inner.choose_peer_port(view, src, src_port, peer, rng));
        probe.choices.push(p.0 as u32);
        p
    }
}

/// Returns recorded choices in order. An exhausted record yields an
/// out-of-range peer, which `PortMap::resolve` rejects.
#[derive(Debug)]
pub struct ReplayResolver {
    choices: Vec<u32>,
    pos: usize,
}

impl ReplayResolver {
    /// Replays `choices`.
    pub fn new(choices: Vec<u32>) -> ReplayResolver {
        ReplayResolver { choices, pos: 0 }
    }

    /// Whether every recorded choice was used.
    pub fn exhausted(&self) -> bool {
        self.pos == self.choices.len()
    }

    fn next(&mut self) -> usize {
        let c = self
            .choices
            .get(self.pos)
            .map_or(usize::MAX, |&c| c as usize);
        self.pos += 1;
        c
    }
}

impl PortResolver for ReplayResolver {
    fn choose_peer(
        &mut self,
        _: PortView<'_>,
        _: NodeIndex,
        _: Port,
        _: &mut SmallRng,
    ) -> NodeIndex {
        NodeIndex(self.next())
    }

    fn choose_peer_port(
        &mut self,
        _: PortView<'_>,
        _: NodeIndex,
        _: Port,
        _: NodeIndex,
        _: &mut SmallRng,
    ) -> Port {
        Port(self.next())
    }
}

/// An adversary whose `delay` calls are counted and sampled.
pub struct TimedAdversary {
    inner: Box<dyn Adversary>,
    probe: Rc<RefCell<Sampler>>,
}

impl TimedAdversary {
    /// Wraps `inner`, reporting into `probe`.
    pub fn new(inner: Box<dyn Adversary>, probe: Rc<RefCell<Sampler>>) -> TimedAdversary {
        TimedAdversary { inner, probe }
    }
}

impl Adversary for TimedAdversary {
    fn delay(&mut self, obs: &Observation<'_>, rng: &mut SmallRng) -> f64 {
        let inner = &mut self.inner;
        self.probe.borrow_mut().time(|| inner.delay(obs, rng))
    }

    fn name(&self) -> String {
        self.inner.name()
    }

    fn capability(&self) -> Capability {
        self.inner.capability()
    }

    fn induces_loss(&mut self, obs: &Observation<'_>, rng: &mut SmallRng) -> bool {
        self.inner.induces_loss(obs, rng)
    }

    fn crash_directive(&mut self, obs: &Observation<'_>) -> Option<NodeIndex> {
        self.inner.crash_directive(obs)
    }
}

/// What a [`RecordingSink`] saw, published when the engine flushes it.
#[derive(Debug, Default)]
pub struct SinkReport {
    /// `event` calls, sampled around JSONL serialization.
    pub emit: Tally,
    /// Serialized JSONL bytes.
    pub bytes: u64,
    /// `(src, port)` of every send, in order, for the port replay.
    pub sends: Vec<(u32, u32)>,
    /// The whole JSONL trace, when it was asked to be kept.
    pub jsonl: Option<String>,
}

/// A trace sink that serializes every event to JSONL in memory and
/// records the send sequence. The engine owns the sink, so the report
/// leaves through a shared slot at `flush`.
pub struct RecordingSink {
    emit: Sampler,
    bytes: u64,
    line: String,
    sends: Vec<(u32, u32)>,
    jsonl: Option<String>,
    out: Arc<Mutex<Option<SinkReport>>>,
}

impl RecordingSink {
    /// A sink publishing into `out`; keeps the JSONL text if `keep`.
    pub fn new(keep: bool, out: Arc<Mutex<Option<SinkReport>>>) -> RecordingSink {
        RecordingSink {
            emit: Sampler::new(0x94D0_49BB_1331_11EB),
            bytes: 0,
            line: String::new(),
            sends: Vec::new(),
            jsonl: keep.then(String::new),
            out,
        }
    }
}

impl TraceSink for RecordingSink {
    fn event(&mut self, ev: &TraceEvent) {
        let (line, jsonl) = (&mut self.line, &mut self.jsonl);
        self.emit.time(|| {
            line.clear();
            ev.write_jsonl(line);
            if let Some(buf) = jsonl {
                buf.push_str(line);
            }
        });
        self.bytes += self.line.len() as u64;
        if let TraceEvent::Send { src, port, .. } = ev {
            self.sends.push((*src, *port));
        }
    }

    fn flush(&mut self) {
        let report = SinkReport {
            emit: self.emit.tally(),
            bytes: self.bytes,
            sends: std::mem::take(&mut self.sends),
            jsonl: self.jsonl.take(),
        };
        // A poisoned slot means another election's sink panicked; the
        // report is still whole.
        let mut slot = self.out.lock().unwrap_or_else(|e| e.into_inner());
        *slot = Some(report);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sampler_counts_every_call_and_times_about_one_in_k() {
        let mut s = Sampler::new(7);
        let mut sum = 0u64;
        for i in 0..64_000u64 {
            sum += s.time(|| i);
        }
        assert_eq!(sum, (0..64_000u64).sum::<u64>());
        let t = s.tally();
        assert_eq!(t.calls, 64_000);
        let expected = 64_000 / SAMPLE_EVERY;
        assert!(
            t.sampled > expected * 9 / 10 && t.sampled < expected * 11 / 10,
            "{} timed calls, expected about {expected}",
            t.sampled
        );
    }

    #[test]
    fn replay_resolver_reports_exhaustion() {
        let mut r = ReplayResolver::new(vec![3, 1]);
        assert!(!r.exhausted());
        assert_eq!(r.next(), 3);
        assert_eq!(r.next(), 1);
        assert!(r.exhausted());
        assert_eq!(r.next(), usize::MAX);
    }
}

//! The asynchronous event-driven engine.

use clique_model::ids::{Id, IdAssignment};
use clique_model::metrics::MessageStats;
use clique_model::ports::{Port, PortBackend, PortMap, PortResolver};
use clique_model::prof::{self, Phase};
use clique_model::rng::{coin, sample_distinct};
use clique_model::sim::{stream, ArenaCore, Core, Settings};
use clique_model::trace::{At, FaultKind, TraceEvent, TraceSink};
use clique_model::{ModelError, NodeIndex, Topology, WakeCause};
use rand::rngs::SmallRng;
use rand::Rng;

use crate::adversary::{
    Adversary, DelayStrategy, MessageClass, Oblivious, Observation, Transcript, UniformDelay,
};
use crate::network::reliability::{Held, HeldKind, RelState};
use crate::network::{link_dir, link_entry, NetworkConfig, Reliability};
use crate::node::{AsyncContext, AsyncNode, Received};
use crate::outcome::{AsyncHaltReason, AsyncOutcome};
use crate::queue::EventQueue;
use crate::wakeup::AsyncWakeSchedule;

/// The engine's own seed stream tags, below the shared ones
/// ([`clique_model::sim::STREAM_IDS`]), so every consumer of randomness
/// gets an independent deterministic stream.
const STREAM_DELAYS: u64 = u64::MAX - 2;
const STREAM_FAULTS: u64 = u64::MAX - 3;
const STREAM_ADV_FAULTS: u64 = u64::MAX - 4;

/// Bytes held by a link-indexed table (its capacity counts).
fn link_table_bytes(table: &Vec<[f64; 2]>) -> u64 {
    (table.capacity() * std::mem::size_of::<[f64; 2]>()) as u64
}

/// A node index as an event field. Lossless: the port stores and the
/// trace records already hold node indices as `u32`.
#[inline]
fn ix(u: NodeIndex) -> u32 {
    u.0 as u32
}

/// An event's node field as a node index.
#[inline]
fn node(u: u32) -> NodeIndex {
    NodeIndex(u as usize)
}

/// What happens at a scheduled point in time.
///
/// Node, port and link fields are `u32`. The three reliability events
/// carry their link's [`RelState`] slab index, and read the endpoints
/// from its [`RelLink`](crate::network::reliability::RelLink). So an
/// event with a 16-byte message takes 48 bytes, `(time, seq)` included.
enum EventKind<M> {
    /// The adversary wakes a node.
    Wake(u32),
    /// A message is delivered (any network without the reliability
    /// protocol).
    Deliver {
        src: u32,
        dst: u32,
        dst_port: u32,
        msg: M,
    },
    /// A sequence-numbered data copy of the reliability protocol arrives
    /// over reliable link `link`.
    DeliverData {
        link: u32,
        dst_port: u32,
        data_seq: u32,
        msg: M,
    },
    /// A delivery acknowledgement arrives back at the data sender of
    /// reliable link `link`.
    DeliverAck { link: u32, data_seq: u32 },
    /// A retransmission timer fires for the payload `data_seq` on
    /// reliable link `link`, armed after that payload's `attempt`-th
    /// transmission (stale once the attempt count moved on).
    Retry {
        link: u32,
        data_seq: u32,
        attempt: u32,
    },
    /// A scheduled crash fault fells a node.
    Crash(u32),
    /// A crashed node recovers (resuming its pre-crash state).
    Recover(u32),
}

/// Reusable simulation state for repeated asynchronous trials: the
/// [`PortMap`], the per-link FIFO floors and busy horizons, the event
/// queue's storage (its sorted run, its near and far heaps, each keeping
/// its capacity, and the fixed-size chunks its ring buckets share through
/// one free list), the outbox, and the reliability protocol's per-link
/// slab. Each store keeps what its largest trial held at once, so
/// recycled trials do not grow the arena.
///
/// Per-link state is indexed by the port map's link id
/// ([`PortMap::link_id`]), never hashed: the floors and horizons are one
/// `[f64; 2]` entry per link used, 16 bytes for both directions, on every
/// backend and topology. A trial addresses each reliable link by its
/// `u32` index in the reliability slab, which the link's data, ack and
/// timer events carry. Link ids and slab indices restart at 0 each trial,
/// in creation and first-touch order, so a recycled trial numbers its
/// links exactly as a fresh one does.
///
/// The asynchronous mirror of [`clique_sync::SyncArena`]: build through
/// [`AsyncSimBuilder::build_in`], finish with [`AsyncSim::run_reusing`],
/// and consecutive trials at the same `n` (and backend) skip the big
/// initializations (the map via [`PortMap::reset`] in O(touched-state),
/// the per-link tables via a clear that keeps their capacity), with
/// bit-identical outcomes. One arena serves any mix of algorithms and
/// sizes; typed buffers are recycled when the message type matches and
/// cheaply rebuilt when it does not; the map is rebuilt when the
/// requested backend changes.
///
/// [`clique_sync::SyncArena`]: ../clique_sync/struct.SyncArena.html
#[derive(Default)]
pub struct AsyncArena {
    /// The port map and the typed [`AsyncBuffers`].
    core: ArenaCore,
    /// Per-link FIFO floors, indexed by link id.
    fifo_front: Vec<[f64; 2]>,
    /// Per-link busy horizons of the capacity model (empty until a trial
    /// with a finite link rate runs).
    link_busy: Vec<[f64; 2]>,
    /// Resident-byte estimate of the typed reliability-protocol state
    /// stashed in `core`, captured at stash time (the type-erased box
    /// cannot be measured from here).
    rel_bytes: u64,
    /// Bytes held by the event queue and the outbox stashed in `core`,
    /// captured at stash time like `rel_bytes`.
    queue_bytes: u64,
}

impl AsyncArena {
    /// Creates an empty arena; the first trial populates it.
    pub fn new() -> Self {
        AsyncArena::default()
    }

    /// Drops all recycled state, releasing the port map's tables (`Θ(n²)`
    /// on the dense backend) immediately (useful between sweep cells at
    /// very large `n`).
    pub fn clear(&mut self) {
        *self = AsyncArena::default();
    }

    /// Backend-reported estimate of the bytes resident in the recycled
    /// engine tables: the port map, the FIFO floors, the event queue and
    /// the outbox, and — when a faulty network has run — the per-link
    /// busy horizons and the reliability protocol's queue/retransmit
    /// buffers (honest accounting: retained capacity counts). The sweep
    /// harness records this per cell so dense-vs-sparse footprints appear
    /// in every experiment CSV.
    pub fn resident_bytes(&self) -> u64 {
        self.core.resident_bytes() + self.link_bytes() + self.rel_bytes + self.queue_bytes
    }

    /// Bytes held by the per-link FIFO floors and busy horizons: 16 per
    /// link of the largest trial's capacity, whatever the backend.
    pub fn link_bytes(&self) -> u64 {
        link_table_bytes(&self.fifo_front) + link_table_bytes(&self.link_busy)
    }
}

impl std::fmt::Debug for AsyncArena {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AsyncArena")
            .field("core", &self.core)
            .field("fifo_bytes", &link_table_bytes(&self.fifo_front))
            .field("link_busy_bytes", &link_table_bytes(&self.link_busy))
            .field("rel_bytes", &self.rel_bytes)
            .field("queue_bytes", &self.queue_bytes)
            .finish()
    }
}

/// The message-typed recyclable buffers of an [`AsyncArena`] — the event
/// queue, the outbox and the reliability protocol's per-link state —
/// stored type-erased so one arena serves algorithms with different
/// message types.
struct AsyncBuffers<M> {
    queue: EventQueue<EventKind<M>>,
    outbox: Vec<(Port, M)>,
    rel: RelState<M>,
}

impl<M> Default for AsyncBuffers<M> {
    fn default() -> Self {
        AsyncBuffers {
            queue: EventQueue::default(),
            outbox: Vec::new(),
            rel: RelState::default(),
        }
    }
}

/// Configures and constructs an [`AsyncSim`].
///
/// All settings have defaults: master seed 0, quasilinear ID universe
/// (randomly assigned), a single adversarial wake-up of node 0 at time 0,
/// uniform random *oblivious* port resolution, an oblivious adversary
/// drawing uniform random delays over `(0, 1]`, and an event cap of
/// `64·n² + 4096`. The settings both engines share are documented on
/// [`Settings`].
pub struct AsyncSimBuilder {
    core: Settings,
    wake: Option<AsyncWakeSchedule>,
    adversary: Option<Box<dyn Adversary>>,
    max_events: Option<u64>,
    network: Option<NetworkConfig>,
}

impl std::fmt::Debug for AsyncSimBuilder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AsyncSimBuilder")
            .field("core", &self.core)
            .field("wake", &self.wake)
            .field("max_events", &self.max_events)
            .finish_non_exhaustive()
    }
}

impl AsyncSimBuilder {
    /// Starts configuring a simulation of an `n`-node asynchronous clique.
    pub fn new(n: usize) -> Self {
        AsyncSimBuilder {
            core: Settings::new(n),
            wake: None,
            adversary: None,
            max_events: None,
            network: None,
        }
    }

    /// Applies one of the shared settings.
    fn with(mut self, set: impl FnOnce(&mut Settings)) -> Self {
        set(&mut self.core);
        self
    }

    /// Sets the master seed ([`Settings::seed`]).
    pub fn seed(self, seed: u64) -> Self {
        self.with(|s| s.seed = seed)
    }

    /// Uses an explicit ID assignment instead of sampling one
    /// ([`Settings::ids`]).
    pub fn ids(self, ids: IdAssignment) -> Self {
        self.with(|s| s.ids = Some(ids))
    }

    /// Sets the adversarial wake-up schedule (default: node 0 at time 0).
    pub fn wake(mut self, wake: AsyncWakeSchedule) -> Self {
        self.wake = Some(wake);
        self
    }

    /// Sets the port resolution strategy ([`Settings::resolver`]).
    pub fn resolver(self, resolver: Box<dyn PortResolver>) -> Self {
        self.with(|s| s.resolver = Some(resolver))
    }

    /// Sets an *oblivious* message delay strategy (default:
    /// [`UniformDelay::full`]) — shorthand for wrapping it in the
    /// [`Oblivious`] adapter and calling [`AsyncSimBuilder::adversary`].
    pub fn delays(mut self, delays: Box<dyn DelayStrategy>) -> Self {
        self.adversary = Some(Box::new(Oblivious::new(delays)));
        self
    }

    /// Sets the message-scheduling adversary — any [`Capability`] tier,
    /// from oblivious delay distributions to adaptive class/transcript-
    /// aware schedulers (see [`crate::adversary`]).
    ///
    /// The adversary is consumed by this one simulation (recycled
    /// [`AsyncArena`] trials construct a fresh one per seed), so adaptive
    /// state can never leak between trials.
    ///
    /// [`Capability`]: crate::adversary::Capability
    pub fn adversary(mut self, adversary: Box<dyn Adversary>) -> Self {
        self.adversary = Some(adversary);
        self
    }

    /// Pins the port-map storage backend ([`Settings::backend`]).
    pub fn backend(self, backend: PortBackend) -> Self {
        self.with(|s| s.backend = Some(backend))
    }

    /// Pins the communication graph ([`Settings::topology`]).
    pub fn topology(self, topology: Topology) -> Self {
        self.with(|s| s.topology = Some(topology))
    }

    /// Sets the event cap guarding against non-terminating algorithms
    /// (default `64·n² + 4096`). The cap counts popped events. In a
    /// crash-free run a reliable link holds its in-flight payload's
    /// retransmission timer and ack, and queues them only when they can
    /// still change the execution; a held event that is never queued is
    /// never popped, so it is not counted. A capped run reports no time
    /// past its last popped event.
    pub fn max_events(mut self, max_events: u64) -> Self {
        self.max_events = Some(max_events);
        self
    }

    /// Sets the faulty-network configuration — link capacity, message
    /// loss, crash faults, and the reliability protocol (see
    /// [`NetworkConfig`]).
    ///
    /// Default: the transparent fault-free network
    /// ([`NetworkConfig::default`]). Every network takes the same wire
    /// path; on the transparent default each fault step is off, so
    /// executions reproduce pre-fault-layer runs byte-identically and the
    /// fault counters stay zero.
    pub fn network(mut self, network: NetworkConfig) -> Self {
        self.network = Some(network);
        self
    }

    /// Streams every trace event class into an explicit sink
    /// ([`Settings::trace`]).
    pub fn trace(self, sink: Box<dyn TraceSink>) -> Self {
        self.with(|s| s.trace = Some(sink))
    }

    /// Instantiates the simulation, creating one node per network position
    /// via `factory(id, n)`.
    ///
    /// # Errors
    ///
    /// As for [`AsyncSimBuilder::build_in`].
    pub fn build<N, F>(self, factory: F) -> Result<AsyncSim<N>, ModelError>
    where
        N: AsyncNode,
        N::Message: 'static,
        F: FnMut(Id, usize) -> N,
    {
        self.build_in(&mut AsyncArena::new(), factory)
    }

    /// Instantiates the simulation like [`AsyncSimBuilder::build`], but
    /// recycles the port map, the per-link tables, the event queue's
    /// heaps and bucket ring, and the reliability slab held by `arena`
    /// instead of allocating fresh ones. Pair with
    /// [`AsyncSim::run_reusing`] to return the state to the arena
    /// afterwards. The execution is identical to a freshly built one.
    ///
    /// # Errors
    ///
    /// The shared settings' errors ([`Settings::build`]), and
    /// [`ModelError::NodeOutOfRange`] if the wake schedule or a scheduled
    /// crash fault names a node outside the network.
    pub fn build_in<N, F>(
        self,
        arena: &mut AsyncArena,
        factory: F,
    ) -> Result<AsyncSim<N>, ModelError>
    where
        N: AsyncNode,
        N::Message: 'static,
        F: FnMut(Id, usize) -> N,
    {
        let _build = prof::span(Phase::Build);
        let (n, seed) = (self.core.n, self.core.seed);
        let wake = self
            .wake
            .unwrap_or_else(|| AsyncWakeSchedule::single(NodeIndex(0)));
        let net = self.network.unwrap_or_default();
        let woken = wake.entries().iter().map(|&(_, u)| u);
        let crashed = net.fault_plan().scheduled().iter().map(|cf| cf.node);
        let core = self
            .core
            .build(&mut arena.core, woken.chain(crashed), factory)?;
        // Both per-link tables start empty and grow with the links the
        // trial uses; the busy horizons only when the capacity model is on.
        let mut fifo_front = std::mem::take(&mut arena.fifo_front);
        fifo_front.clear();
        let mut link_busy = std::mem::take(&mut arena.link_busy);
        link_busy.clear();
        let net_active = net.is_active();
        let net_service = net.service();
        let mut bufs: AsyncBuffers<N::Message> = arena.core.take_buffers();
        bufs.queue.clear();
        bufs.outbox.clear();
        bufs.rel.reset();

        let mut queue = bufs.queue;
        let mut last_scheduled_wake = 0.0f64;
        for &(t, u) in wake.entries() {
            queue.push(t, EventKind::Wake(ix(u)));
            last_scheduled_wake = last_scheduled_wake.max(t);
        }

        let mut fault_rng = stream(seed, STREAM_FAULTS);
        if net_active {
            for cf in net.fault_plan().scheduled() {
                queue.push(cf.at, EventKind::Crash(ix(cf.node)));
                if let Some(back) = cf.recover_at {
                    queue.push(back, EventKind::Recover(ix(cf.node)));
                }
            }
            if let Some(rc) = net.fault_plan().random() {
                // Never crash everyone: cap victims at n - 1 so the
                // execution retains at least one live node.
                let k = ((rc.frac * n as f64).round() as usize).min(n.saturating_sub(1));
                let victims = sample_distinct(&mut fault_rng, n, k);
                for v in victims {
                    // Uniform over (0, window]: a crash at exactly 0 would
                    // be indistinguishable from never scheduling the node.
                    let t = rc.window * (1.0 - fault_rng.gen::<f64>());
                    queue.push(t, EventKind::Crash(v as u32));
                }
            }
        }

        Ok(AsyncSim {
            core,
            adversary: self
                .adversary
                .unwrap_or_else(|| Box::new(Oblivious::new(UniformDelay::full()))),
            delay_rng: stream(seed, STREAM_DELAYS),
            transcript: Transcript::new(n),
            queue,
            fifo_front,
            max_events: self
                .max_events
                .unwrap_or(64 * (n as u64) * (n as u64) + 4096),
            awake_count: 0,
            outbox: bufs.outbox,
            now: 0.0,
            event_seq: 0,
            busy_now: 0.0,
            ack_horizon: 0.0,
            wake_all_time: None,
            last_scheduled_wake,
            net_active,
            net_service,
            net_queue_cap: net.queue_capacity(),
            net_loss: net.loss_probability(),
            rel_cfg: net.reliability(),
            crash_free: net.fault_plan().is_empty(),
            adaptive_crashes: net.fault_plan().adaptive(),
            fault_rng,
            adv_fault_rng: stream(seed, STREAM_ADV_FAULTS),
            link_busy,
            rel: bufs.rel,
            crashed: vec![false; n],
            crashed_count: 0,
        })
    }
}

/// An asynchronous execution in progress.
///
/// Drive it with [`AsyncSim::run`] (to quiescence) or
/// [`AsyncSim::step`] (event by event).
pub struct AsyncSim<N: AsyncNode> {
    /// The state both engines share: IDs, nodes, ports, resolver, tracer,
    /// message counts, the awake set and decisions.
    core: Core<N>,
    adversary: Box<dyn Adversary>,
    delay_rng: SmallRng,
    /// Per-node sent/delivered counts, maintained for adaptive adversaries.
    transcript: Transcript,
    queue: EventQueue<EventKind<N::Message>>,
    /// Per link id and direction ([`link_dir`]): the latest delivery time
    /// already scheduled, enforcing FIFO order.
    fifo_front: Vec<[f64; 2]>,
    max_events: u64,
    /// Nodes woken so far (the `true` entries of `awake`).
    awake_count: usize,
    outbox: Vec<(Port, N::Message)>,
    now: f64,
    /// The queue `seq` of the event being processed: with `now`, its
    /// place in the pop order, which a reliable link's held ack is
    /// compared against.
    event_seq: u64,
    /// Time of the last *effective* event — everything except a stale
    /// retransmission-timer pop. With `ack_horizon`, this is the reported
    /// time complexity: an uncancellable timer whose payload was already
    /// acknowledged must not inflate it. Identical to `now` without the
    /// reliability protocol.
    busy_now: f64,
    /// The latest time of an ack that was held or dropped instead of
    /// queued. Every ack pop is effective, so the reported time takes the
    /// later of this, capped at `now` in a run the event cap halted, and
    /// `busy_now`.
    ack_horizon: f64,
    wake_all_time: Option<f64>,
    last_scheduled_wake: f64,
    /// Whether any fault/capacity feature is on; `false` keeps the fault
    /// counters at zero and never consults [`Adversary::induces_loss`].
    net_active: bool,
    /// Per-message link service time (`1/rate`; 0 = infinite capacity).
    net_service: f64,
    /// Bounded link queue length (`usize::MAX` = unbounded).
    net_queue_cap: usize,
    /// Probability a transmission is destroyed in transit.
    net_loss: f64,
    /// The reliability protocol's timers, if enabled.
    rel_cfg: Option<Reliability>,
    /// Whether the fault plan is empty, so no node ever crashes: reliable
    /// links' timers and acks are then held or dropped where they change
    /// nothing.
    crash_free: bool,
    /// Remaining adaptive crash budget ([`FaultPlan::adaptive_crashes`]).
    ///
    /// [`FaultPlan::adaptive_crashes`]: crate::network::FaultPlan::adaptive_crashes
    adaptive_crashes: u32,
    /// The dedicated fault stream (loss coins, random crash times),
    /// independent of delay/node/resolver randomness so enabling faults
    /// never perturbs the rest of the execution.
    fault_rng: SmallRng,
    /// The *adversary's* fault stream, fed to
    /// [`Adversary::induces_loss`]. Separate from `fault_rng` so a
    /// recorded trace replays exactly: replay consumes no adversary
    /// randomness, which must not shift the engine's own loss coins.
    adv_fault_rng: SmallRng,
    /// Per link id and direction: the busy horizon of the capacity model
    /// (empty when `net_service == 0`).
    link_busy: Vec<[f64; 2]>,
    /// Per-link stop-and-wait protocol state.
    rel: RelState<N::Message>,
    crashed: Vec<bool>,
    crashed_count: usize,
}

impl<N: AsyncNode> std::fmt::Debug for AsyncSim<N> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AsyncSim")
            .field("n", &self.core.n)
            .field("now", &self.now)
            .field("messages", &self.core.stats.total())
            .field("queued", &self.queue.len())
            .finish_non_exhaustive()
    }
}

impl<N: AsyncNode> AsyncSim<N> {
    /// The global time of the most recently processed event.
    pub fn now(&self) -> f64 {
        self.now
    }

    /// The ID assignment in use.
    pub fn ids(&self) -> &IdAssignment {
        &self.core.ids
    }

    /// Message statistics so far.
    pub fn stats(&self) -> &MessageStats {
        &self.core.stats
    }

    /// Immutable access to a node's algorithm state (for tests and
    /// experiment probes).
    pub fn node(&self, u: NodeIndex) -> &N {
        &self.core.nodes[u.0]
    }

    /// Whether `u` has woken up.
    pub fn is_awake(&self, u: NodeIndex) -> bool {
        self.core.awake[u.0]
    }

    /// The partial port mapping fixed so far.
    pub fn ports(&self) -> &PortMap {
        &self.core.ports
    }

    /// The running per-node sent/delivered transcript (what an adaptive
    /// adversary sees).
    pub fn transcript(&self) -> &Transcript {
        &self.transcript
    }

    /// Runs until the event queue drains (or the event cap fires).
    ///
    /// # Errors
    ///
    /// As for [`AsyncSim::step`].
    pub fn run(mut self) -> Result<AsyncOutcome, ModelError>
    where
        N::Message: 'static,
    {
        let halt = self.drive()?;
        Ok(self.into_outcome(halt))
    }

    /// The shared event loop of [`AsyncSim::run`] and
    /// [`AsyncSim::run_reusing`]: processes events until the queue drains
    /// or the event cap fires and reports which one halted the run.
    fn drive(&mut self) -> Result<AsyncHaltReason, ModelError> {
        let _run = prof::span(Phase::Run);
        let mut processed = 0u64;
        while !self.queue.is_empty() {
            if processed >= self.max_events {
                return Ok(AsyncHaltReason::MaxEvents);
            }
            self.step()?;
            processed += 1;
        }
        // Quiescence with permanently lost payloads (or a fully crashed
        // network) is a fault-induced livelock, not a clean drain. This is
        // checked only here — MaxEvents above always wins when the cap
        // fires first, so the two halts are never conflated.
        if self.core.stats.faults.lost_payloads > 0 || self.crashed_count == self.core.n {
            return Ok(AsyncHaltReason::FaultLivelock);
        }
        Ok(AsyncHaltReason::QueueDrained)
    }

    /// Runs until the event queue drains (or the event cap fires) like
    /// [`AsyncSim::run`], then returns the recyclable state — the port
    /// map, the per-link tables, the event queue's heaps and bucket ring,
    /// the outbox and the reliability slab — to `arena` for the next
    /// trial instead of dropping it. The outcome is identical to
    /// [`AsyncSim::run`]'s.
    ///
    /// # Errors
    ///
    /// As for [`AsyncSim::step`].
    pub fn run_reusing(mut self, arena: &mut AsyncArena) -> Result<AsyncOutcome, ModelError>
    where
        N::Message: 'static,
    {
        let halt = self.drive()?;
        Ok(self.into_outcome_reusing(halt, arena))
    }

    /// Processes the single earliest pending event; returns `false` if the
    /// queue was already empty.
    ///
    /// # Errors
    ///
    /// Propagates [`ModelError`] from port resolution (only possible with a
    /// faulty custom resolver), from an adversary returning a delay
    /// outside `(0, 1]`, or from a crash directive naming a node outside
    /// the network ([`ModelError::NodeOutOfRange`]). Returns
    /// [`ModelError::DecisionRevoked`] if a node changes a decision it has
    /// already made.
    pub fn step(&mut self) -> Result<bool, ModelError> {
        let Some(ev) = self.queue.pop() else {
            return Ok(false);
        };
        debug_assert!(ev.time >= self.now, "events must be processed in order");
        self.now = self.now.max(ev.time);
        self.event_seq = ev.seq;
        let mut effective = true;
        match ev.kind {
            EventKind::Wake(u) => {
                let u = node(u);
                if !self.core.awake[u.0] && !self.core.nodes[u.0].is_terminated() {
                    self.activate(u, Some(WakeCause::Adversary), None)?;
                }
            }
            EventKind::Deliver {
                src,
                dst,
                dst_port,
                msg,
            } => {
                let dst = node(dst);
                if self.crashed[dst.0] {
                    // A crashed node swallows the message silently; with
                    // no reliability layer the payload is gone for good.
                    self.core.stats.faults.crash_drops += 1;
                    self.core.stats.faults.lost_payloads += 1;
                    if self.core.tracer.enabled() {
                        self.core.tracer.emit(TraceEvent::Fault {
                            at: At::Time(self.now),
                            kind: FaultKind::CrashDrop,
                            src,
                            dst: ix(dst),
                        });
                    }
                } else {
                    self.hand_over(src, dst, dst_port, msg)?;
                }
            }
            EventKind::DeliverData {
                link,
                dst_port,
                data_seq,
                msg,
            } => {
                self.apply_held_ack(link);
                let l = &self.rel[link];
                let (src, dst) = (l.src, node(l.dst));
                let fresh = data_seq > l.delivered_hi;
                // A live receiver (re-)acknowledges every copy: a duplicate
                // means the previous ack was lost or late. Crashed
                // receivers neither deliver nor acknowledge; the sender's
                // retransmission timer keeps trying.
                let ack = if self.crashed[dst.0] {
                    None
                } else {
                    self.send_ack(link)?
                };
                self.settle_timer(link, data_seq, ack.map(|(t, _)| t));
                if let Some((t, seq)) = ack {
                    self.route_ack(link, data_seq, t, seq);
                }
                // Checked after the ack, whose crash directive can fell the
                // receiver. The ack has left, as the message under
                // transmission does when a burst is cut, but a felled node
                // takes nothing, and its copy stays undelivered for a
                // retransmission after recovery.
                if self.crashed[dst.0] {
                    self.core.stats.faults.crash_drops += 1;
                    if self.core.tracer.enabled() {
                        self.core.tracer.emit(TraceEvent::Fault {
                            at: At::Time(self.now),
                            kind: FaultKind::CrashDrop,
                            src,
                            dst: ix(dst),
                        });
                    }
                } else if !fresh {
                    self.core.stats.faults.duplicates += 1;
                } else {
                    self.rel[link].delivered_hi = data_seq;
                    self.hand_over(src, dst, dst_port, msg)?;
                }
            }
            EventKind::DeliverAck { link, data_seq } => {
                self.apply_held_ack(link);
                let l = &self.rel[link];
                if self.crashed[l.src as usize] {
                    self.core.stats.faults.crash_drops += 1;
                    if self.core.tracer.enabled() {
                        self.core.tracer.emit(TraceEvent::Fault {
                            at: At::Time(self.now),
                            kind: FaultKind::CrashDrop,
                            src: l.dst,
                            dst: l.src,
                        });
                    }
                } else if l.in_flight(data_seq) {
                    self.begin_next_payload(link)?;
                }
                // A stale ack (duplicate, or for an abandoned payload) is
                // ignored; it still consumed wire time.
            }
            EventKind::Retry {
                link,
                data_seq,
                attempt,
            } => {
                // A queued timer is live only if the exact (payload,
                // attempt) it was armed for is still in flight. Stale pops
                // are non-events and must not advance the reported time
                // complexity.
                self.apply_held_ack(link);
                let l = &self.rel[link];
                let (src, dst) = (l.src, l.dst);
                effective = !self.crashed[src as usize]
                    && l.inflight
                        .as_ref()
                        .is_some_and(|o| l.next_seq == data_seq && o.attempts.get() == attempt);
                if effective {
                    let budget = self.rel_cfg.as_ref().map_or(0, |r| r.budget);
                    if attempt > budget {
                        // Retry budget exhausted: abandon the payload and
                        // move on to the backlog.
                        self.core.stats.faults.abandoned += 1;
                        self.core.stats.faults.lost_payloads += 1;
                        if self.core.tracer.enabled() {
                            self.core.tracer.emit(TraceEvent::Fault {
                                at: At::Time(self.now),
                                kind: FaultKind::Abandon,
                                src,
                                dst,
                            });
                        }
                        self.begin_next_payload(link)?;
                    } else {
                        let o = self.rel[link].inflight.as_mut().expect("live timer");
                        o.attempts = o.attempts.saturating_add(1);
                        self.send_reliable_copy(link)?;
                    }
                }
            }
            EventKind::Crash(v) => {
                self.crash_now(node(v));
            }
            EventKind::Recover(v) => {
                self.recover_now(node(v));
            }
        }
        if effective {
            self.busy_now = self.now;
        }
        Ok(true)
    }

    /// Fells `v`: from now on it neither wakes, nor receives, nor sends
    /// (its retransmission timers are ignored while down).
    fn crash_now(&mut self, v: NodeIndex) {
        if !self.crashed[v.0] {
            self.crashed[v.0] = true;
            self.crashed_count += 1;
            if self.core.tracer.enabled() {
                self.core.tracer.emit(TraceEvent::Fault {
                    at: At::Time(self.now),
                    kind: FaultKind::Crash,
                    src: v.0 as u32,
                    dst: v.0 as u32,
                });
            }
        }
    }

    /// Revives `v` and re-arms a retransmission timer for every payload
    /// it still has in flight as a sender. Links are visited in
    /// [`RelState`] insertion order — a deterministic function of the
    /// execution history, so fresh and arena-recycled trials re-arm in
    /// the same order.
    fn recover_now(&mut self, v: NodeIndex) {
        if !self.crashed[v.0] {
            return;
        }
        self.crashed[v.0] = false;
        self.crashed_count -= 1;
        if self.core.tracer.enabled() {
            self.core.tracer.emit(TraceEvent::Fault {
                at: At::Time(self.now),
                kind: FaultKind::Recover,
                src: v.0 as u32,
                dst: v.0 as u32,
            });
        }
        let Some(rel_cfg) = self.rel_cfg else {
            return;
        };
        let src = ix(v);
        for (link, l) in (0u32..).zip(self.rel.iter()).filter(|(_, l)| l.src == src) {
            if let Some(o) = &l.inflight {
                let attempt = o.attempts.get();
                self.queue.push(
                    self.now + rel_cfg.timeout_after(attempt),
                    EventKind::Retry {
                        link,
                        data_seq: l.next_seq,
                        attempt,
                    },
                );
            }
        }
    }

    /// Hands a message that arrived from `src` on port `dst_port` to its
    /// receiver `dst`, which has not crashed: counts it as goodput on an
    /// active network, records and traces the delivery, then counts it
    /// against a terminated `dst` or activates `dst` with it.
    #[inline]
    fn hand_over(
        &mut self,
        src: u32,
        dst: NodeIndex,
        dst_port: u32,
        msg: N::Message,
    ) -> Result<(), ModelError> {
        if self.net_active {
            self.core.stats.faults.goodput += 1;
        }
        self.transcript.record_delivery(dst);
        if self.core.tracer.enabled() {
            self.core.tracer.emit(TraceEvent::Deliver {
                at: At::Time(self.now),
                src,
                dst: ix(dst),
                cls: Some(N::classify(&msg).name()),
            });
        }
        if self.core.nodes[dst.0].is_terminated() {
            self.core.messages_to_terminated += 1;
            return Ok(());
        }
        let wake = (!self.core.awake[dst.0]).then_some(WakeCause::Message);
        let port = Port(dst_port as usize);
        self.activate(dst, wake, Some(Received { port, msg }))
    }

    /// Runs a node's hooks and dispatches whatever it sent. This is the
    /// one gate of the crash contract: a crashed node is refused here, so
    /// it neither wakes nor receives, and a node felled mid-burst sends
    /// nothing more.
    fn activate(
        &mut self,
        u: NodeIndex,
        wake: Option<WakeCause>,
        msg: Option<Received<N::Message>>,
    ) -> Result<(), ModelError> {
        if self.crashed[u.0] {
            return Ok(());
        }
        if self.core.tracer.enabled() {
            if let Some(cause) = wake {
                self.core.tracer.emit(TraceEvent::Wake {
                    at: At::Time(self.now),
                    node: u.0 as u32,
                    cause,
                });
            }
        }
        let mut outbox = std::mem::take(&mut self.outbox);
        outbox.clear();
        {
            let mut ctx = AsyncContext {
                id: self.core.ids.id_of(u),
                n: self.core.n,
                ports: self.core.ports.ports_of(u),
                time: self.now,
                rng: &mut self.core.node_rngs[u.0],
                outbox: &mut outbox,
            };
            if let Some(cause) = wake {
                if !self.core.awake[u.0] {
                    self.core.awake[u.0] = true;
                    self.awake_count += 1;
                }
                self.core.nodes[u.0].on_wake(&mut ctx, cause);
                if self.awake_count == self.core.n && self.wake_all_time.is_none() {
                    self.wake_all_time = Some(self.now);
                }
            }
            if let Some(m) = msg {
                self.core.nodes[u.0].on_message(&mut ctx, m);
            }
        }
        for (port, m) in outbox.drain(..) {
            // An adaptive crash directive can fell `u` mid-burst; the rest
            // of its outbox is never sent.
            if self.crashed[u.0] {
                break;
            }
            self.dispatch(u, port, m)?;
        }
        self.outbox = outbox;

        let d = self.core.nodes[u.0].decision();
        self.core.decide(u, d, At::Time(self.now))?;
        Ok(())
    }

    /// Resolves the port and hands the message to the network. Under the
    /// reliability protocol the payload enters its link's stop-and-wait
    /// queue; otherwise it takes one wire attempt
    /// ([`AsyncSim::transmit_raw`]), and a dropped attempt is a
    /// permanently lost payload.
    fn dispatch(&mut self, src: NodeIndex, port: Port, msg: N::Message) -> Result<(), ModelError> {
        let dst = self.core.resolve(src, port)?;
        let link = self
            .core
            .ports
            .link_id(src, port)
            .expect("a resolved port has a link");
        let class = N::classify(&msg);
        if self.core.tracer.enabled() {
            self.core.tracer.emit(TraceEvent::Send {
                at: At::Time(self.now),
                src: src.0 as u32,
                port: port.0 as u32,
                dst: dst.node.0 as u32,
                cls: Some(class.name()),
            });
        }
        // The algorithm-facing histogram counts payloads; wire
        // retransmissions and acks are protocol overhead, counted only in
        // the fault counters (which stay zero on the transparent network).
        self.core.stats.record(self.now.floor() as usize + 1, src);
        if self.net_active {
            self.core.stats.faults.payloads += 1;
        }
        if self.rel_cfg.is_some() {
            // A payload counts from its dispatch, since it may wait in the
            // backlog: every attempt's observation sees it.
            self.transcript.record_send(src);
            let rel = self.rel.touch(ix(src), ix(dst.node), link);
            self.apply_held_ack(rel);
            let dst_port = dst.port.0 as u32;
            let l = &mut self.rel[rel];
            if l.inflight.is_some() {
                // Stop-and-wait: one unacknowledged payload per link; the
                // rest wait in the backlog. A held ack that pops after
                // this event will start the payload, so it is queued.
                if l.held.kind() == HeldKind::Ack {
                    self.queue_held(rel);
                }
                self.rel.push_backlog(rel, (dst_port, msg));
            } else {
                l.start(dst_port, msg);
                self.send_reliable_copy(rel)?;
            }
            return Ok(());
        }
        let at = self.transmit_raw(src, dst.node, link, class)?;
        self.transcript.record_send(src);
        match at {
            Some(t) => self.queue.push(
                t,
                EventKind::Deliver {
                    src: ix(src),
                    dst: ix(dst.node),
                    dst_port: dst.port.0 as u32,
                    msg,
                },
            ),
            None => self.core.stats.faults.lost_payloads += 1,
        }
        Ok(())
    }

    /// One wire transmission attempt from `src` to `dst` over port-map
    /// link `link`: link-queue admission, loss (configured and
    /// adversarial), the adversary's delay, the adaptive crash directive,
    /// and the FIFO floor. Returns the delivery time, or `None` for an
    /// attempt dropped on a full queue or in transit (counted and traced
    /// here). The consultation order is fixed — admission, loss coin,
    /// adversary loss, adversary delay, crash directive — so recorded
    /// fault traces replay exactly. On the transparent network every fault
    /// step is off, and the attempt is the adversary's delay held to the
    /// link's FIFO floor.
    fn transmit_raw(
        &mut self,
        src: NodeIndex,
        dst: NodeIndex,
        link: u32,
        class: MessageClass,
    ) -> Result<Option<f64>, ModelError> {
        let dir = link_dir(ix(src), ix(dst));
        // Capacity model: the message occupies the link for the service
        // time; a backlog beyond the queue capacity is drop-tail.
        let mut at = self.now;
        let mut dropped = None;
        if self.net_service > 0.0 {
            let busy = &mut link_entry(&mut self.link_busy, link, 0.0)[dir];
            let backlog = ((*busy - self.now).max(0.0) / self.net_service).ceil();
            if self.net_queue_cap != usize::MAX && backlog >= self.net_queue_cap as f64 {
                dropped = Some(FaultKind::Queue);
            } else {
                at = self.now.max(*busy) + self.net_service;
                *busy = at;
            }
        }
        let obs = Observation {
            src,
            dst,
            now: self.now,
            class,
            transcript: &self.transcript,
        };
        if dropped.is_none() {
            let lost = (self.net_loss > 0.0 && coin(&mut self.fault_rng, self.net_loss))
                || (self.net_active && self.adversary.induces_loss(&obs, &mut self.adv_fault_rng));
            if lost {
                dropped = Some(FaultKind::Loss);
            } else {
                let delay = self.adversary.delay(&obs, &mut self.delay_rng);
                // Enforced in every build profile: a NaN here would survive
                // any clamp, poison the delivery time and the FIFO floor,
                // and break the event queue's ordering (which requires
                // non-NaN times).
                if !(delay > 0.0 && delay <= 1.0) {
                    return Err(ModelError::InvalidDelay {
                        adversary: self.adversary.name(),
                        delay: format!("{delay}"),
                    });
                }
                at += delay;
            }
        }
        // Adaptive crash directive: consulted on every transmission
        // attempt while budget remains, after the loss/delay draws.
        if self.adaptive_crashes > 0 {
            if let Some(v) = self.adversary.crash_directive(&obs) {
                if v.0 >= self.core.n {
                    return Err(ModelError::NodeOutOfRange {
                        node: v,
                        n: self.core.n,
                    });
                }
                if !self.crashed[v.0] {
                    self.crash_now(v);
                    self.adaptive_crashes -= 1;
                }
            }
        }
        if let Some(kind) = dropped {
            if kind == FaultKind::Queue {
                self.core.stats.faults.queue_drops += 1;
            } else {
                self.core.stats.faults.loss_drops += 1;
            }
            if self.core.tracer.enabled() {
                self.core.tracer.emit(TraceEvent::Fault {
                    at: At::Time(self.now),
                    kind,
                    src: src.0 as u32,
                    dst: dst.0 as u32,
                });
            }
            return Ok(None);
        }
        let floor = &mut link_entry(&mut self.fifo_front, link, 0.0)[dir];
        at = at.max(*floor);
        *floor = at;
        Ok(Some(at))
    }

    /// Transmits the current in-flight payload of reliable link `link`
    /// (first attempt or retransmission) and arms its retransmission
    /// timer. The timer's `seq` is reserved right after the copy's push,
    /// as if it were pushed. In a crash-free run the timer is held when
    /// its copy lands by the deadline and the slot holds no ack; otherwise
    /// it is queued at once.
    fn send_reliable_copy(&mut self, link: u32) -> Result<(), ModelError> {
        let l = &self.rel[link];
        let (src, dst, link_id, data_seq) = (node(l.src), node(l.dst), l.link, l.next_seq);
        let o = l
            .inflight
            .as_ref()
            .expect("send_reliable_copy requires an in-flight payload");
        let (attempt, dst_port, msg) = (o.attempts.get(), o.dst_port, o.msg.clone());
        if attempt > 1 {
            self.core.stats.faults.retransmits += 1;
            if self.core.tracer.enabled() {
                self.core.tracer.emit(TraceEvent::Fault {
                    at: At::Time(self.now),
                    kind: FaultKind::Retransmit,
                    src: ix(src),
                    dst: ix(dst),
                });
            }
        }
        let class = N::classify(&msg);
        let copy = self.transmit_raw(src, dst, link_id, class)?;
        if let Some(t) = copy {
            self.queue.push(
                t,
                EventKind::DeliverData {
                    link,
                    dst_port,
                    data_seq,
                    msg,
                },
            );
        }
        // Arm the timer whether or not the copy survived the wire — the
        // sender cannot know.
        let rel_cfg = self.rel_cfg.expect("reliable send requires a config");
        let deadline = self.now + rel_cfg.timeout_after(attempt);
        let seq = self.queue.reserve();
        let l = &mut self.rel[link];
        debug_assert_ne!(l.held.kind(), HeldKind::Timer, "one timer per payload");
        if self.crash_free
            && l.held.kind() == HeldKind::Empty
            && copy.is_some_and(|t| t <= deadline)
        {
            l.held = Held::new(HeldKind::Timer, deadline, seq);
        } else {
            let timer = EventKind::Retry {
                link,
                data_seq,
                attempt,
            };
            self.queue.push_reserved(deadline, seq, timer);
        }
        Ok(())
    }

    /// Sends a delivery acknowledgement of the copy that just arrived back
    /// over reliable link `link`, from its receiver to its sender, and
    /// returns its arrival time and reserved queue `seq` unless the wire
    /// dropped it; the caller routes it ([`AsyncSim::route_ack`]). Acks
    /// are real wire messages: they occupy the reverse link, queue, and
    /// can be lost — but are never retransmitted themselves (a lost ack is
    /// repaired by the data retransmission provoking a fresh one).
    fn send_ack(&mut self, link: u32) -> Result<Option<(f64, u64)>, ModelError> {
        let l = &self.rel[link];
        let (from, to, link_id) = (node(l.dst), node(l.src), l.link);
        self.core.stats.faults.acks += 1;
        if self.core.tracer.enabled() {
            self.core.tracer.emit(TraceEvent::Fault {
                at: At::Time(self.now),
                kind: FaultKind::Ack,
                src: ix(from),
                dst: ix(to),
            });
        }
        let at = self.transmit_raw(from, to, link_id, MessageClass::Ack)?;
        Ok(at.map(|t| (t, self.queue.reserve())))
    }

    /// Queues, holds or drops the ack of payload `data_seq` on reliable
    /// link `link`, which lands at `t` under the reserved queue `seq`.
    /// With crash faults every ack is queued. In a crash-free run an ack
    /// for a payload that has left flight, or one trailing the held ack of
    /// its payload, would pop as a no-op and is dropped; the in-flight
    /// payload's ack waits in the free slot of a link with no backlog, and
    /// is queued otherwise. An ack that is not queued still counts toward
    /// the reported time.
    fn route_ack(&mut self, link: u32, data_seq: u32, t: f64, seq: u64) {
        let l = &self.rel[link];
        // Whether the ack can still clear its payload's flight.
        let live = l.in_flight(data_seq) && l.held.kind() != HeldKind::Ack;
        if !self.crash_free || (live && !self.rel.backlog_is_empty(link)) {
            let ack = EventKind::DeliverAck { link, data_seq };
            self.queue.push_reserved(t, seq, ack);
            return;
        }
        if live {
            let l = &mut self.rel[link];
            debug_assert_eq!(l.held.kind(), HeldKind::Empty, "the copy settled the timer");
            l.held = Held::new(HeldKind::Ack, t, seq);
        }
        self.ack_horizon = self.ack_horizon.max(t);
    }

    /// Applies reliable link `link`'s held ack if it pops before the event
    /// being processed: it clears the in-flight payload, and, the backlog
    /// being empty, does nothing else.
    fn apply_held_ack(&mut self, link: u32) {
        let l = &mut self.rel[link];
        if l.held.kind() == HeldKind::Ack && l.held.precedes(self.now, self.event_seq) {
            l.inflight = None;
            l.held = Held::EMPTY;
        }
    }

    /// Settles reliable link `link`'s held timer as a copy of payload
    /// `data_seq` arrives, acknowledged by an ack landing at `ack` (`None`:
    /// lost). Only the in-flight payload's copies settle it. An ack landing
    /// strictly before the deadline makes the timer stale, so it is
    /// dropped; otherwise the timer will fire and is queued.
    fn settle_timer(&mut self, link: u32, data_seq: u32, ack: Option<f64>) {
        let l = &mut self.rel[link];
        if l.held.kind() != HeldKind::Timer || !l.in_flight(data_seq) {
            return;
        }
        if ack.is_some_and(|t| t < l.held.time()) {
            l.held = Held::EMPTY;
        } else {
            self.queue_held(link);
        }
    }

    /// Queues reliable link `link`'s held timer or ack for the in-flight
    /// payload, under its reserved `seq`, and empties the slot.
    fn queue_held(&mut self, link: u32) {
        let l = &mut self.rel[link];
        let held = std::mem::replace(&mut l.held, Held::EMPTY);
        let data_seq = l.next_seq;
        let kind = match held.kind() {
            HeldKind::Empty => return,
            HeldKind::Timer => {
                let o = l.inflight.as_ref().expect("a held timer's payload");
                let attempt = o.attempts.get();
                EventKind::Retry {
                    link,
                    data_seq,
                    attempt,
                }
            }
            HeldKind::Ack => EventKind::DeliverAck { link, data_seq },
        };
        self.queue.push_reserved(held.time(), held.seq(), kind);
    }

    /// Clears reliable link `link`'s in-flight slot, with the timer or ack
    /// held for it, and starts the next backlog payload, if any.
    fn begin_next_payload(&mut self, link: u32) -> Result<(), ModelError> {
        let l = &mut self.rel[link];
        l.inflight = None;
        l.held = Held::EMPTY;
        if let Some((dst_port, msg)) = self.rel.pop_backlog(link) {
            self.rel[link].start(dst_port, msg);
            self.send_reliable_copy(link)?;
        }
        Ok(())
    }

    /// Consumes the simulation into its measurable [`AsyncOutcome`]:
    /// [`AsyncSim::into_outcome_reusing`] on a fresh arena.
    pub fn into_outcome(self, halt: AsyncHaltReason) -> AsyncOutcome
    where
        N::Message: 'static,
    {
        self.into_outcome_reusing(halt, &mut AsyncArena::new())
    }

    /// Closes the trace and consumes the simulation into its measurable
    /// [`AsyncOutcome`], stashing the recyclable state into `arena` on the
    /// way out.
    pub fn into_outcome_reusing(
        mut self,
        halt: AsyncHaltReason,
        arena: &mut AsyncArena,
    ) -> AsyncOutcome
    where
        N::Message: 'static,
    {
        let _reset = prof::span(Phase::Reset);
        let reason = match halt {
            AsyncHaltReason::QueueDrained => "drained",
            AsyncHaltReason::MaxEvents => "max_events",
            AsyncHaltReason::FaultLivelock => "livelock",
        };
        // An ack held or dropped instead of queued would have popped as an
        // effective event, but a capped run pops none past its last event.
        let acks = match halt {
            AsyncHaltReason::MaxEvents => self.ack_horizon.min(self.now),
            _ => self.ack_horizon,
        };
        let time = self.busy_now.max(acks);
        self.core.finish_trace(At::Time(time), reason);
        let AsyncSim {
            core,
            mut queue,
            fifo_front,
            link_busy,
            rel,
            mut outbox,
            wake_all_time,
            last_scheduled_wake,
            crashed,
            ..
        } = self;
        queue.clear();
        outbox.clear();
        arena.fifo_front = fifo_front;
        arena.link_busy = link_busy;
        arena.rel_bytes = rel.resident_bytes();
        arena.queue_bytes = queue.resident_bytes()
            + (outbox.capacity() * std::mem::size_of::<(Port, N::Message)>()) as u64;
        arena
            .core
            .stash(core.ports, AsyncBuffers { queue, outbox, rel });
        AsyncOutcome {
            n: core.n,
            time,
            last_adversarial_wake: last_scheduled_wake,
            wake_all_time,
            stats: core.stats,
            decisions: core.decisions,
            awake: core.awake,
            ids: core.ids,
            messages_to_terminated: core.messages_to_terminated,
            crashed,
            halt,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adversary::delay::{BimodalDelay, ConstDelay};
    use crate::node::Received;
    use clique_model::Decision;

    #[test]
    fn events_stay_48_bytes() {
        // Every delivery, ack and timer is moved through the calendar
        // queue's bucket chunks and heaps, so event size is paid per
        // event, several times over. `u32` node, port and link fields and
        // the reliability events' slab index keep an event with a 16-byte
        // message (Algorithm 2's is one) at 48 bytes; a `usize` or a
        // second endpoint pair regrows it to 64 and fails here.
        type Msg16 = (u64, u64);
        assert_eq!(std::mem::size_of::<Msg16>(), 16);
        assert_eq!(std::mem::size_of::<EventKind<Msg16>>(), 32);
        assert_eq!(
            std::mem::size_of::<crate::queue::Event<EventKind<Msg16>>>(),
            48
        );
    }

    #[test]
    fn arena_is_send() {
        // Sweep workers own recycled arenas; if a field regresses to a
        // non-Send type this fails to compile, not at runtime.
        fn assert_send<T: Send>() {}
        assert_send::<AsyncArena>();
    }

    /// Flood: on wake, send over every port once; elect the max ID after
    /// having heard from everyone (counting distinct ports).
    struct Flood {
        me: Id,
        best: Id,
        heard: usize,
        n: usize,
        sent: bool,
        decision: Decision,
    }

    impl Flood {
        fn new(me: Id, n: usize) -> Self {
            Flood {
                me,
                best: me,
                heard: 0,
                n,
                sent: false,
                decision: Decision::Undecided,
            }
        }
    }

    impl AsyncNode for Flood {
        type Message = Id;
        fn on_wake(&mut self, ctx: &mut AsyncContext<'_, Id>, _cause: WakeCause) {
            if !self.sent {
                self.sent = true;
                for p in ctx.all_ports() {
                    ctx.send(p, self.me);
                }
            }
        }
        fn on_message(&mut self, _ctx: &mut AsyncContext<'_, Id>, m: Received<Id>) {
            self.heard += 1;
            self.best = self.best.max(m.msg);
            if self.heard == self.n - 1 {
                self.decision = if self.best == self.me {
                    Decision::Leader
                } else {
                    Decision::non_leader_knowing(self.best)
                };
            }
        }
        fn decision(&self) -> Decision {
            self.decision
        }
    }

    #[test]
    fn flood_elects_max_everywhere() {
        let n = 12;
        let outcome = AsyncSimBuilder::new(n)
            .seed(5)
            .wake(AsyncWakeSchedule::single(NodeIndex(3)))
            .build(Flood::new)
            .unwrap()
            .run()
            .unwrap();
        outcome.validate_explicit().unwrap();
        assert_eq!(outcome.stats.total() as usize, n * (n - 1));
        assert_eq!(outcome.halt, AsyncHaltReason::QueueDrained);
        let leader = outcome.unique_leader().unwrap();
        assert_eq!(outcome.ids.id_of(leader), outcome.ids.max_id());
        assert!(outcome.all_awake());
        assert!(outcome.wake_all_time.is_some());
        // One wake-up hop plus one full exchange: at most 2 units.
        assert!(outcome.time <= 2.0, "time was {}", outcome.time);
    }

    #[test]
    fn a_revoked_decision_is_an_error() {
        /// Claims leadership on waking and gives it up when mail arrives.
        struct Fickle(Decision);
        impl AsyncNode for Fickle {
            type Message = ();
            fn on_wake(&mut self, ctx: &mut AsyncContext<'_, ()>, _cause: WakeCause) {
                self.0 = Decision::Leader;
                ctx.send(Port(0), ());
            }
            fn on_message(&mut self, _ctx: &mut AsyncContext<'_, ()>, _m: Received<()>) {
                self.0 = Decision::non_leader();
            }
            fn decision(&self) -> Decision {
                self.0
            }
        }
        // Node 1 wakes by node 0's mail and goes straight to non-leader;
        // its reply then makes node 0 revoke its leadership.
        let err = AsyncSimBuilder::new(2)
            .wake(AsyncWakeSchedule::single(NodeIndex(0)))
            .build(|_, _| Fickle(Decision::Undecided))
            .unwrap()
            .run()
            .unwrap_err();
        assert_eq!(
            err,
            ModelError::DecisionRevoked {
                node: NodeIndex(0),
                from: Decision::Leader,
                to: Decision::non_leader(),
            }
        );
    }

    #[test]
    fn executions_are_deterministic_per_seed() {
        let run = |seed| {
            let o = AsyncSimBuilder::new(9)
                .seed(seed)
                .wake(AsyncWakeSchedule::single(NodeIndex(0)))
                .build(Flood::new)
                .unwrap()
                .run()
                .unwrap();
            (o.time.to_bits(), o.stats.total(), o.unique_leader())
        };
        assert_eq!(run(11), run(11));
        assert_eq!(run(12), run(12));
    }

    #[test]
    fn constant_max_delay_gives_unit_lockstep() {
        // With delay exactly 1, the flood behaves like the synchronous
        // two-round schedule: wake-up spreads at time 1, everything is
        // delivered by time 2.
        let outcome = AsyncSimBuilder::new(8)
            .seed(2)
            .wake(AsyncWakeSchedule::single(NodeIndex(0)))
            .delays(Box::new(ConstDelay::max()))
            .build(Flood::new)
            .unwrap()
            .run()
            .unwrap();
        outcome.validate_explicit().unwrap();
        assert_eq!(outcome.time, 2.0);
        assert_eq!(outcome.wake_all_time, Some(1.0));
    }

    /// Sends three numbered messages over the same port; the receiver checks
    /// FIFO order.
    struct FifoProbe {
        is_sender: bool,
        received: Vec<u32>,
        decision: Decision,
    }

    impl AsyncNode for FifoProbe {
        type Message = u32;
        fn on_wake(&mut self, ctx: &mut AsyncContext<'_, u32>, cause: WakeCause) {
            if cause == WakeCause::Adversary {
                self.is_sender = true;
                ctx.send(Port(0), 1);
                ctx.send(Port(0), 2);
                ctx.send(Port(0), 3);
                self.decision = Decision::Leader;
            }
        }
        fn on_message(&mut self, _ctx: &mut AsyncContext<'_, u32>, m: Received<u32>) {
            self.received.push(m.msg);
            if self.received.len() == 3 {
                self.decision = Decision::non_leader();
            }
        }
        fn decision(&self) -> Decision {
            self.decision
        }
    }

    #[test]
    fn links_deliver_in_fifo_order() {
        // Bimodal delays would reorder without the FIFO floor: the first
        // message often draws the slow mode while later ones draw fast.
        for seed in 0..20 {
            let sim = AsyncSimBuilder::new(4)
                .seed(seed)
                .wake(AsyncWakeSchedule::single(NodeIndex(1)))
                .delays(Box::new(BimodalDelay::new(0.5, 0.05, 1.0)))
                .build(|_, _| FifoProbe {
                    is_sender: false,
                    received: Vec::new(),
                    decision: Decision::Undecided,
                })
                .unwrap();
            let outcome = sim.run().unwrap();
            assert_eq!(outcome.stats.total(), 3);
            assert_eq!(outcome.halt, AsyncHaltReason::QueueDrained);
        }
    }

    #[test]
    fn fifo_order_observed_by_receiver() {
        struct Check;
        impl AsyncNode for Check {
            type Message = u32;
            fn on_wake(&mut self, _: &mut AsyncContext<'_, u32>, _: WakeCause) {}
            fn on_message(&mut self, _: &mut AsyncContext<'_, u32>, _: Received<u32>) {}
            fn decision(&self) -> Decision {
                Decision::Undecided
            }
        }
        // Directly check the engine's bookkeeping: after a sender queues
        // three messages on one port, their delivery times must be
        // non-decreasing in send order. We run step-by-step and watch the
        // receiver's inbox order via FifoProbe above instead; here we only
        // assert the engine can be built with a custom cap.
        let sim = AsyncSimBuilder::new(3).max_events(10).build(|_, _| Check);
        assert!(sim.is_ok());
    }

    /// A node that replies forever: ping-pong without termination.
    struct PingPong {
        decision: Decision,
    }

    impl AsyncNode for PingPong {
        type Message = ();
        fn on_wake(&mut self, ctx: &mut AsyncContext<'_, ()>, cause: WakeCause) {
            if cause == WakeCause::Adversary {
                ctx.send(Port(0), ());
            }
        }
        fn on_message(&mut self, ctx: &mut AsyncContext<'_, ()>, m: Received<()>) {
            ctx.send(m.port, ());
        }
        fn decision(&self) -> Decision {
            self.decision
        }
    }

    #[test]
    fn event_cap_halts_infinite_chatter() {
        let outcome = AsyncSimBuilder::new(4)
            .seed(7)
            .max_events(100)
            .build(|_, _| PingPong {
                decision: Decision::Undecided,
            })
            .unwrap()
            .run()
            .unwrap();
        assert_eq!(outcome.halt, AsyncHaltReason::MaxEvents);
        assert!(outcome.stats.total() >= 99);
    }

    #[test]
    fn staged_wakeups_record_last_spontaneous_wake() {
        struct Sleepy;
        impl AsyncNode for Sleepy {
            type Message = ();
            fn on_wake(&mut self, _: &mut AsyncContext<'_, ()>, _: WakeCause) {}
            fn on_message(&mut self, _: &mut AsyncContext<'_, ()>, _: Received<()>) {}
            fn decision(&self) -> Decision {
                Decision::non_leader()
            }
        }
        let outcome = AsyncSimBuilder::new(3)
            .wake(AsyncWakeSchedule::staged(vec![
                (0.0, NodeIndex(0)),
                (2.5, NodeIndex(1)),
            ]))
            .build(|_, _| Sleepy)
            .unwrap()
            .run()
            .unwrap();
        assert_eq!(outcome.awake_count(), 2);
        assert_eq!(outcome.time, 2.5);
        assert!(!outcome.all_awake());
        assert!(outcome.wake_all_time.is_none());
    }

    #[test]
    fn builder_rejects_tiny_network() {
        struct Nop;
        impl AsyncNode for Nop {
            type Message = ();
            fn on_wake(&mut self, _: &mut AsyncContext<'_, ()>, _: WakeCause) {}
            fn on_message(&mut self, _: &mut AsyncContext<'_, ()>, _: Received<()>) {}
            fn decision(&self) -> Decision {
                Decision::Undecided
            }
        }
        assert!(matches!(
            AsyncSimBuilder::new(1).build(|_, _| Nop),
            Err(ModelError::NetworkTooSmall { n: 1 })
        ));
    }

    #[test]
    fn builder_rejects_a_wake_outside_the_network() {
        // Used to build, then index out of bounds in `step`.
        let built = AsyncSimBuilder::new(4)
            .wake(AsyncWakeSchedule::single(NodeIndex(7)))
            .build_in(&mut AsyncArena::new(), Flood::new);
        assert_eq!(
            built.err(),
            Some(ModelError::NodeOutOfRange {
                node: NodeIndex(7),
                n: 4
            })
        );
    }

    #[test]
    fn builder_rejects_a_crash_outside_the_network() {
        // Used to trip an `assert!` while scheduling the fault.
        let faults = crate::network::FaultPlan::new().crash(NodeIndex(4), 0.5);
        let built = AsyncSimBuilder::new(4)
            .network(NetworkConfig::new().faults(faults))
            .build_in(&mut AsyncArena::new(), Flood::new);
        assert_eq!(
            built.err(),
            Some(ModelError::NodeOutOfRange {
                node: NodeIndex(4),
                n: 4
            })
        );
    }

    #[test]
    fn arena_trials_match_fresh_trials() {
        let fingerprint = |o: &AsyncOutcome| {
            (
                o.time.to_bits(),
                o.stats.total(),
                o.stats.rounds().to_vec(),
                o.unique_leader(),
                o.decisions.clone(),
                o.awake.clone(),
                o.halt,
            )
        };
        let mut arena = AsyncArena::new();
        for seed in 0..10u64 {
            let fresh = AsyncSimBuilder::new(12)
                .seed(seed)
                .wake(AsyncWakeSchedule::single(NodeIndex(3)))
                .build(Flood::new)
                .unwrap()
                .run()
                .unwrap();
            let reused = AsyncSimBuilder::new(12)
                .seed(seed)
                .wake(AsyncWakeSchedule::single(NodeIndex(3)))
                .build_in(&mut arena, Flood::new)
                .unwrap()
                .run_reusing(&mut arena)
                .unwrap();
            assert_eq!(fingerprint(&fresh), fingerprint(&reused));
        }
    }

    #[test]
    fn arena_survives_size_and_message_type_changes() {
        let mut arena = AsyncArena::new();
        for &n in &[8usize, 12, 8] {
            let o = AsyncSimBuilder::new(n)
                .seed(2)
                .wake(AsyncWakeSchedule::single(NodeIndex(0)))
                .build_in(&mut arena, Flood::new)
                .unwrap()
                .run_reusing(&mut arena)
                .unwrap();
            assert_eq!(o.stats.total() as usize, n * (n - 1));
        }
        // Different message type: buffers rebuilt, port map recycled.
        let o = AsyncSimBuilder::new(8)
            .seed(3)
            .max_events(100)
            .build_in(&mut arena, |_, _| PingPong {
                decision: Decision::Undecided,
            })
            .unwrap()
            .run_reusing(&mut arena)
            .unwrap();
        assert_eq!(o.halt, AsyncHaltReason::MaxEvents);
        arena.clear();
    }

    #[test]
    fn sparse_backend_matches_dense_under_rng_free_resolution() {
        // Round-robin resolution consumes no randomness and the delay/node
        // RNG streams are backend-independent, so the whole asynchronous
        // execution must be identical on every storage backend.
        let run = |backend| {
            let o = AsyncSimBuilder::new(16)
                .seed(9)
                .backend(backend)
                .wake(AsyncWakeSchedule::single(NodeIndex(2)))
                .resolver(Box::new(clique_model::ports::RoundRobinResolver))
                .build(Flood::new)
                .unwrap()
                .run()
                .unwrap();
            (
                o.time.to_bits(),
                o.stats.total(),
                o.unique_leader(),
                o.decisions,
            )
        };
        assert_eq!(run(PortBackend::Dense), run(PortBackend::Sparse));
    }

    #[test]
    fn sparse_backend_arena_trials_match_fresh_sparse_trials() {
        let mut arena = AsyncArena::new();
        for seed in 0..6u64 {
            let fresh = AsyncSimBuilder::new(12)
                .seed(seed)
                .backend(PortBackend::Sparse)
                .wake(AsyncWakeSchedule::single(NodeIndex(1)))
                .build(Flood::new)
                .unwrap()
                .run()
                .unwrap();
            let reused = AsyncSimBuilder::new(12)
                .seed(seed)
                .backend(PortBackend::Sparse)
                .wake(AsyncWakeSchedule::single(NodeIndex(1)))
                .build_in(&mut arena, Flood::new)
                .unwrap()
                .run_reusing(&mut arena)
                .unwrap();
            assert_eq!(
                (
                    fresh.time.to_bits(),
                    fresh.stats.total(),
                    fresh.unique_leader()
                ),
                (
                    reused.time.to_bits(),
                    reused.stats.total(),
                    reused.unique_leader()
                ),
            );
        }
        // The sparse map and the link-indexed floors are accounted.
        assert!(arena.resident_bytes() > 0);
    }

    #[test]
    fn hostile_delay_strategies_are_rejected_in_all_profiles() {
        // Regression: a NaN used to pass `raw.clamp(f64::MIN_POSITIVE, 1.0)`
        // unchanged in release builds (clamp propagates NaN), poisoning the
        // delivery time, the FIFO floor, and the event queue's ordering. The
        // engine must now fail the run with a descriptive error — in release
        // builds too — for NaN and for every out-of-range value.
        struct Hostile(f64);
        impl crate::adversary::DelayStrategy for Hostile {
            fn delay(
                &mut self,
                _src: NodeIndex,
                _dst: NodeIndex,
                _now: f64,
                _rng: &mut SmallRng,
            ) -> f64 {
                self.0
            }
            fn name(&self) -> String {
                "hostile".into()
            }
        }
        for bad in [f64::NAN, 0.0, -0.25, 1.5, f64::INFINITY, f64::NEG_INFINITY] {
            let err = AsyncSimBuilder::new(4)
                .seed(1)
                .delays(Box::new(Hostile(bad)))
                .build(Flood::new)
                .unwrap()
                .run()
                .unwrap_err();
            match err {
                ModelError::InvalidDelay { adversary, delay } => {
                    assert_eq!(adversary, "hostile");
                    assert_eq!(delay, format!("{bad}"));
                }
                other => panic!("expected InvalidDelay for {bad}, got {other:?}"),
            }
        }
    }

    #[test]
    fn adaptive_adversary_sees_classes_and_transcript() {
        use crate::adversary::{Adversary, Capability, MessageClass, Observation};

        // An adversary that records what it observed; Flood never overrides
        // `classify`, so every message must arrive tagged with the default
        // Probe class, and the transcript must exclude the current message:
        // on the transparent network, and on an active one without the
        // reliability protocol (a fast link with no queue bound and no
        // loss, so nothing drops).
        struct Probe {
            first_transcript_total: std::rc::Rc<std::cell::Cell<u64>>,
            classes_ok: std::rc::Rc<std::cell::Cell<bool>>,
        }
        impl Adversary for Probe {
            fn delay(&mut self, obs: &Observation<'_>, _rng: &mut SmallRng) -> f64 {
                if obs.class != MessageClass::Probe {
                    self.classes_ok.set(false);
                }
                if self.first_transcript_total.get() == u64::MAX {
                    let total: u64 = (0..obs.transcript.n())
                        .map(|u| obs.transcript.sent(NodeIndex(u)))
                        .sum();
                    self.first_transcript_total.set(total);
                }
                0.5
            }
            fn name(&self) -> String {
                "probe".into()
            }
            fn capability(&self) -> Capability {
                Capability::Adaptive
            }
        }
        for net in [
            NetworkConfig::default(),
            NetworkConfig::new().link_rate(1e6),
        ] {
            let first = std::rc::Rc::new(std::cell::Cell::new(u64::MAX));
            let ok = std::rc::Rc::new(std::cell::Cell::new(true));
            let outcome = AsyncSimBuilder::new(6)
                .seed(3)
                .adversary(Box::new(Probe {
                    first_transcript_total: first.clone(),
                    classes_ok: ok.clone(),
                }))
                .network(net.clone())
                .build(Flood::new)
                .unwrap()
                .run()
                .unwrap();
            outcome.validate_explicit().unwrap();
            assert!(ok.get(), "default classify must tag everything Probe");
            assert_eq!(
                first.get(),
                0,
                "the very first observation must see an empty transcript on {net:?}"
            );
        }
    }

    #[test]
    fn transcript_accounting_matches_message_stats() {
        let sim = AsyncSimBuilder::new(8)
            .seed(2)
            .wake(AsyncWakeSchedule::single(NodeIndex(0)))
            .build(Flood::new)
            .unwrap();
        let mut sim = sim;
        while sim.step().unwrap() {}
        let sent_total: u64 = (0..8).map(|u| sim.transcript().sent(NodeIndex(u))).sum();
        let delivered_total: u64 = (0..8)
            .map(|u| sim.transcript().delivered(NodeIndex(u)))
            .sum();
        assert_eq!(sent_total, sim.stats().total());
        assert_eq!(delivered_total, sim.stats().total(), "queue drained");
    }

    #[test]
    fn terminated_nodes_swallow_messages() {
        /// Node 0 sends two messages to port 0; the receiver terminates on
        /// the first one, so the second is dropped and counted.
        struct OneShot {
            sender: bool,
            decision: Decision,
        }
        impl AsyncNode for OneShot {
            type Message = u8;
            fn on_wake(&mut self, ctx: &mut AsyncContext<'_, u8>, cause: WakeCause) {
                if cause == WakeCause::Adversary {
                    self.sender = true;
                    ctx.send(Port(0), 1);
                    ctx.send(Port(0), 2);
                    self.decision = Decision::Leader;
                }
            }
            fn on_message(&mut self, _ctx: &mut AsyncContext<'_, u8>, _m: Received<u8>) {
                self.decision = Decision::non_leader();
            }
            fn decision(&self) -> Decision {
                self.decision
            }
            fn is_terminated(&self) -> bool {
                self.decision.is_decided() && !self.sender
            }
        }
        let outcome = AsyncSimBuilder::new(3)
            .seed(4)
            .build(|_, _| OneShot {
                sender: false,
                decision: Decision::Undecided,
            })
            .unwrap()
            .run()
            .unwrap();
        assert_eq!(outcome.stats.total(), 2);
        assert_eq!(outcome.messages_to_terminated, 1);
    }

    // ----- faulty network layer -----

    use crate::network::{FaultPlan, NetworkConfig, Reliability};

    fn full_fingerprint(o: &AsyncOutcome) -> impl PartialEq + std::fmt::Debug {
        (
            o.time.to_bits(),
            o.stats.total(),
            o.stats.rounds().to_vec(),
            o.stats.faults,
            o.unique_leader(),
            o.decisions.clone(),
            o.awake.clone(),
            o.crashed.clone(),
            o.halt,
        )
    }

    #[test]
    fn transparent_network_is_byte_identical_to_legacy() {
        for seed in 0..8u64 {
            let legacy = AsyncSimBuilder::new(10)
                .seed(seed)
                .wake(AsyncWakeSchedule::single(NodeIndex(2)))
                .build(Flood::new)
                .unwrap()
                .run()
                .unwrap();
            let transparent = AsyncSimBuilder::new(10)
                .seed(seed)
                .wake(AsyncWakeSchedule::single(NodeIndex(2)))
                .network(NetworkConfig::default())
                .build(Flood::new)
                .unwrap()
                .run()
                .unwrap();
            assert_eq!(full_fingerprint(&legacy), full_fingerprint(&transparent));
            assert_eq!(legacy.stats.faults, Default::default());
        }
    }

    #[test]
    fn finite_link_rate_serializes_deliveries() {
        // FifoProbe sends 3 messages on one link at time 0. With rate 2
        // (service 0.5) and delay pinned to 1, the wire departures are
        // 0.5, 1.0, 1.5 and the deliveries land exactly at 1.5, 2.0, 2.5.
        let outcome = AsyncSimBuilder::new(4)
            .seed(1)
            .wake(AsyncWakeSchedule::single(NodeIndex(1)))
            .delays(Box::new(ConstDelay::max()))
            .network(NetworkConfig::new().link_rate(2.0))
            .build(|_, _| FifoProbe {
                is_sender: false,
                received: Vec::new(),
                decision: Decision::Undecided,
            })
            .unwrap()
            .run()
            .unwrap();
        assert_eq!(outcome.halt, AsyncHaltReason::QueueDrained);
        assert_eq!(outcome.time, 2.5);
        assert_eq!(outcome.stats.faults.payloads, 3);
        assert_eq!(outcome.stats.faults.goodput, 3);
        assert_eq!(outcome.stats.faults.drops(), 0);
    }

    #[test]
    fn bounded_queue_drops_the_tail_and_reports_livelock() {
        // Same burst, but the link admits one pending message at a time:
        // the second and third are dropped on the tail, and with no
        // reliability layer the quiesced run is a fault livelock.
        let outcome = AsyncSimBuilder::new(4)
            .seed(1)
            .wake(AsyncWakeSchedule::single(NodeIndex(1)))
            .delays(Box::new(ConstDelay::max()))
            .network(NetworkConfig::new().link_rate(1.0).queue_cap(1))
            .build(|_, _| FifoProbe {
                is_sender: false,
                received: Vec::new(),
                decision: Decision::Undecided,
            })
            .unwrap()
            .run()
            .unwrap();
        assert_eq!(outcome.halt, AsyncHaltReason::FaultLivelock);
        assert_eq!(outcome.stats.faults.queue_drops, 2);
        assert_eq!(outcome.stats.faults.lost_payloads, 2);
        assert_eq!(outcome.stats.faults.goodput, 1);
    }

    #[test]
    fn reliability_protocol_survives_heavy_loss() {
        // 40% of every wire transmission (payloads, retransmissions, and
        // acks alike) is destroyed, yet stop-and-wait must deliver every
        // payload exactly once and the election must stay correct.
        let outcome = AsyncSimBuilder::new(6)
            .seed(3)
            .network(
                NetworkConfig::new()
                    .loss(0.4)
                    .reliable(Reliability::default()),
            )
            .build(Flood::new)
            .unwrap()
            .run()
            .unwrap();
        outcome.validate_explicit().unwrap();
        assert_eq!(outcome.halt, AsyncHaltReason::QueueDrained);
        let f = &outcome.stats.faults;
        assert_eq!(f.goodput, f.payloads, "every payload delivered");
        assert_eq!(f.payloads, outcome.stats.total());
        assert!(f.loss_drops > 0, "the loss coin must have fired at 40%");
        assert!(f.retransmits > 0, "losses must have forced retransmission");
        assert_eq!(
            f.duplicates + f.goodput + f.abandoned,
            f.duplicates + f.payloads
        );
        assert_eq!(f.abandoned, 0);
    }

    #[test]
    fn unreliable_loss_is_permanent_and_livelocks() {
        let outcome = AsyncSimBuilder::new(6)
            .seed(3)
            .network(NetworkConfig::new().loss(0.5))
            .build(Flood::new)
            .unwrap()
            .run()
            .unwrap();
        assert_eq!(outcome.halt, AsyncHaltReason::FaultLivelock);
        let f = &outcome.stats.faults;
        assert!(f.lost_payloads > 0);
        assert_eq!(f.lost_payloads, f.loss_drops);
        assert_eq!(f.goodput + f.lost_payloads, f.payloads);
        assert_eq!(f.retransmits, 0, "no reliability layer, no retries");
    }

    #[test]
    fn fault_livelock_is_never_conflated_with_max_events() {
        // Satellite regression: the same faulty configuration must report
        // MaxEvents when the cap fires mid-flight and FaultLivelock only
        // at quiescence.
        let build = |cap: Option<u64>| {
            let mut b = AsyncSimBuilder::new(6)
                .seed(3)
                .network(NetworkConfig::new().loss(0.5));
            if let Some(c) = cap {
                b = b.max_events(c);
            }
            b.build(Flood::new).unwrap().run().unwrap()
        };
        assert_eq!(build(None).halt, AsyncHaltReason::FaultLivelock);
        let capped = build(Some(3));
        assert_eq!(capped.halt, AsyncHaltReason::MaxEvents);
    }

    #[test]
    fn crashed_node_swallows_traffic_until_recovery() {
        // Node 2 crashes before any message reaches it and recovers
        // shortly after; the reliability layer retransmits into the void
        // until then, so the election still completes cleanly.
        let recovered = AsyncSimBuilder::new(4)
            .seed(5)
            .network(
                NetworkConfig::new()
                    .reliable(Reliability::default())
                    .faults(FaultPlan::new().crash_recovering(NodeIndex(2), 0.05, 1.5)),
            )
            .build(Flood::new)
            .unwrap()
            .run()
            .unwrap();
        recovered.validate_explicit().unwrap();
        assert_eq!(recovered.halt, AsyncHaltReason::QueueDrained);
        assert_eq!(recovered.crashed_count(), 0);
        assert!(recovered.stats.faults.crash_drops > 0);
        assert!(recovered.stats.faults.retransmits > 0);

        // Without recovery the retry budget eventually runs dry: the
        // payloads to node 2 are abandoned and the run livelocks — but
        // the crash-aware success criterion still recognizes a clean
        // election among the survivors.
        let permanent = AsyncSimBuilder::new(4)
            .seed(5)
            .network(
                NetworkConfig::new()
                    .reliable(Reliability::default())
                    .faults(FaultPlan::new().crash(NodeIndex(2), 0.05)),
            )
            .build(Flood::new)
            .unwrap()
            .run()
            .unwrap();
        assert_eq!(permanent.halt, AsyncHaltReason::FaultLivelock);
        assert_eq!(permanent.crashed_count(), 1);
        assert!(permanent.crashed[2]);
        assert!(permanent.stats.faults.abandoned > 0);
    }

    #[test]
    fn random_crashes_never_fell_the_whole_network() {
        // frac 0.9 at n=4 rounds to 4 victims, but the engine caps at
        // n - 1 so at least one node survives.
        let outcome = AsyncSimBuilder::new(4)
            .seed(9)
            .network(NetworkConfig::new().faults(FaultPlan::new().random_crashes(0.9, 1.0)))
            .build(Flood::new)
            .unwrap()
            .run()
            .unwrap();
        assert_eq!(outcome.crashed_count(), 3);
        assert!(!outcome.crashed.iter().all(|&c| c));
    }

    #[test]
    fn adaptive_crash_budget_is_engine_enforced() {
        use crate::adversary::{CrashTopSender, Oblivious, UniformDelay};
        let run = |budget: u32| {
            AsyncSimBuilder::new(6)
                .seed(2)
                .adversary(Box::new(CrashTopSender::new(
                    Box::new(Oblivious::new(UniformDelay::full())),
                    1,
                )))
                .network(
                    NetworkConfig::new()
                        .reliable(Reliability::default())
                        .faults(FaultPlan::new().adaptive_crashes(budget)),
                )
                .build(Flood::new)
                .unwrap()
                .run()
                .unwrap()
        };
        // Without budget the directive is never even consulted.
        assert_eq!(run(0).crashed_count(), 0);
        // With one, the adversary fells the current top sender once.
        assert_eq!(run(1).crashed_count(), 1);
    }

    #[test]
    fn a_crashed_node_refuses_its_adversarial_wake() {
        // Node 3 crashes at time 0, before any message can reach it, and
        // the adversary wakes it at 0.5. The `Wake` arm has no crash test
        // of its own: `activate` must refuse the node.
        let wake = AsyncWakeSchedule::staged(vec![(0.0, NodeIndex(0)), (0.5, NodeIndex(3))]);
        let outcome = AsyncSimBuilder::new(4)
            .seed(2)
            .wake(wake)
            .network(NetworkConfig::new().faults(FaultPlan::new().crash(NodeIndex(3), 0.0)))
            .build(Flood::new)
            .unwrap()
            .run()
            .unwrap();
        assert!(outcome.crashed[3]);
        assert!(!outcome.awake[3], "a crashed node woke");
        assert_eq!(outcome.decisions[3], Decision::Undecided);
        assert_eq!(outcome.awake_count(), 3);
    }

    #[test]
    fn a_sender_felled_mid_burst_sends_nothing_more() {
        // The directive fells the sender of the first attempt it sees:
        // node 0, one message into its wake-up flood. The other four
        // messages of that burst must never be sent, with or without the
        // reliability protocol.
        use crate::adversary::{Adversary, Capability, Observation};
        struct CrashTheSender;
        impl Adversary for CrashTheSender {
            fn delay(&mut self, _obs: &Observation<'_>, _rng: &mut SmallRng) -> f64 {
                0.5
            }
            fn name(&self) -> String {
                "crash-the-sender".into()
            }
            fn capability(&self) -> Capability {
                Capability::Adaptive
            }
            fn crash_directive(&mut self, obs: &Observation<'_>) -> Option<NodeIndex> {
                Some(obs.src)
            }
        }
        let faults = FaultPlan::new().adaptive_crashes(1);
        for net in [
            NetworkConfig::new().faults(faults.clone()),
            NetworkConfig::new()
                .reliable(Reliability::default())
                .faults(faults.clone()),
        ] {
            let mut sim = AsyncSimBuilder::new(6)
                .seed(1)
                .adversary(Box::new(CrashTheSender))
                .network(net.clone())
                .build(Flood::new)
                .unwrap();
            assert!(sim.step().unwrap(), "node 0's wake-up");
            assert_eq!(sim.transcript().sent(NodeIndex(0)), 1, "{net:?}");
            assert_eq!(sim.stats().total(), 1, "{net:?}");
        }
    }

    #[test]
    fn a_receiver_felled_by_its_own_ack_takes_no_copy() {
        // The directive fells the sender of the first ack it sees: the
        // first receiver of node 0's flood, as it acknowledges the copy.
        // A felled node neither wakes nor receives, so that copy must
        // stay undelivered, and so must every later one.
        use crate::adversary::{Adversary, Capability, MessageClass, Observation};
        use std::cell::Cell;
        use std::rc::Rc;
        struct CrashTheFirstAcker(Rc<Cell<Option<NodeIndex>>>);
        impl Adversary for CrashTheFirstAcker {
            fn delay(&mut self, _obs: &Observation<'_>, _rng: &mut SmallRng) -> f64 {
                0.5
            }
            fn name(&self) -> String {
                "crash-the-first-acker".into()
            }
            fn capability(&self) -> Capability {
                Capability::Adaptive
            }
            fn crash_directive(&mut self, obs: &Observation<'_>) -> Option<NodeIndex> {
                if obs.class != MessageClass::Ack || self.0.get().is_some() {
                    return None;
                }
                self.0.set(Some(obs.src));
                Some(obs.src)
            }
        }
        let felled = Rc::new(Cell::new(None));
        let mut sim = AsyncSimBuilder::new(6)
            .seed(1)
            .adversary(Box::new(CrashTheFirstAcker(Rc::clone(&felled))))
            .network(
                NetworkConfig::new()
                    .reliable(Reliability::default())
                    .faults(FaultPlan::new().adaptive_crashes(1)),
            )
            .build(Flood::new)
            .unwrap();
        while sim.step().unwrap() {}
        let v = felled.get().expect("the flood's copies are acknowledged");
        assert!(!sim.is_awake(v), "{v} woke after its own ack felled it");
        assert_eq!(sim.transcript().delivered(v), 0, "{v} took a copy");
        assert!(sim.stats().faults.crash_drops > 0);
    }

    #[test]
    fn crash_directive_outside_the_network_is_a_typed_error() {
        // Used to trip an `assert!` inside the engine, so a custom or
        // replayed adversary could panic the library.
        use crate::adversary::{Adversary, Capability, Observation};
        struct CrashPastTheEnd;
        impl Adversary for CrashPastTheEnd {
            fn delay(&mut self, _obs: &Observation<'_>, _rng: &mut SmallRng) -> f64 {
                0.5
            }
            fn name(&self) -> String {
                "crash-past-the-end".into()
            }
            fn capability(&self) -> Capability {
                Capability::Adaptive
            }
            fn crash_directive(&mut self, obs: &Observation<'_>) -> Option<NodeIndex> {
                Some(NodeIndex(obs.transcript.n()))
            }
        }
        let err = AsyncSimBuilder::new(4)
            .seed(1)
            .adversary(Box::new(CrashPastTheEnd))
            .network(
                NetworkConfig::new()
                    .reliable(Reliability::default())
                    .faults(FaultPlan::new().adaptive_crashes(1)),
            )
            .build(Flood::new)
            .unwrap()
            .run()
            .unwrap_err();
        assert_eq!(
            err,
            ModelError::NodeOutOfRange {
                node: NodeIndex(4),
                n: 4
            }
        );
    }

    #[test]
    fn faulty_arena_trials_match_fresh_trials() {
        // The full gauntlet — loss + capacity + queue bound + crash with
        // recovery + reliability — must be byte-identical between fresh
        // and arena-recycled trials, including every fault counter.
        let cfg = || {
            NetworkConfig::new()
                .loss(0.2)
                .link_rate(16.0)
                .queue_cap(16)
                .reliable(Reliability::default())
                .faults(FaultPlan::new().crash_recovering(NodeIndex(1), 0.3, 2.0))
        };
        let mut arena = AsyncArena::new();
        for seed in 0..6u64 {
            let fresh = AsyncSimBuilder::new(8)
                .seed(seed)
                .network(cfg())
                .build(Flood::new)
                .unwrap()
                .run()
                .unwrap();
            let reused = AsyncSimBuilder::new(8)
                .seed(seed)
                .network(cfg())
                .build_in(&mut arena, Flood::new)
                .unwrap()
                .run_reusing(&mut arena)
                .unwrap();
            assert_eq!(full_fingerprint(&fresh), full_fingerprint(&reused));
        }
        // The stashed reliability state and busy horizons are accounted.
        assert!(arena.resident_bytes() > 0);
        let dbg = format!("{arena:?}");
        assert!(dbg.contains("rel_bytes"), "{dbg}");
    }

    #[test]
    fn resident_bytes_count_the_event_queue_and_outbox() {
        // A fault-free trial keeps no reliability state or busy horizons,
        // yet its recycled queue and outbox hold every event slot the
        // trial needed: they must show above the map and the FIFO floors.
        let n = 32;
        let mut arena = AsyncArena::new();
        AsyncSimBuilder::new(n)
            .seed(3)
            .backend(PortBackend::Dense)
            .build_in(&mut arena, Flood::new)
            .unwrap()
            .run_reusing(&mut arena)
            .unwrap();
        let map = arena.core.resident_bytes();
        let floors = arena.link_bytes();
        assert_eq!(arena.rel_bytes, 0);
        // 48 KiB: six times the ring's spine of 2048 `u32` links, so only
        // the trial's ring chunks (768 B each), `run` and the outbox can
        // clear it.
        let floor = 2048 * 24;
        assert!(
            arena.resident_bytes() > map + floors + floor,
            "{arena:?}: {} B",
            arena.resident_bytes()
        );
    }

    #[test]
    fn link_tables_hold_one_entry_per_link() {
        // The floors grow to one entry per link the trial fixed; the busy
        // horizons stay empty until the capacity model is on.
        let mut arena = AsyncArena::new();
        for rate in [None, Some(8.0)] {
            let net = rate.map_or_else(NetworkConfig::new, |r| NetworkConfig::new().link_rate(r));
            for backend in [PortBackend::Dense, PortBackend::Sparse] {
                AsyncSimBuilder::new(12)
                    .seed(1)
                    .backend(backend)
                    .network(net.clone())
                    .build_in(&mut arena, Flood::new)
                    .unwrap()
                    .run_reusing(&mut arena)
                    .unwrap();
                let links = arena.core.ports().map(PortMap::link_count);
                assert_eq!(links, Some(12 * 11 / 2), "the flood fixes every link");
                assert_eq!(Some(arena.fifo_front.len()), links);
                let busy = if rate.is_some() { links } else { Some(0) };
                assert_eq!(Some(arena.link_busy.len()), busy);
            }
        }
    }

    #[test]
    fn fault_buffers_recycle_without_reallocation() {
        // After a warm-up trial, recycled trials must not grow the
        // resident footprint: same n, same config, same touched links.
        let cfg = || {
            NetworkConfig::new()
                .loss(0.1)
                .link_rate(8.0)
                .queue_cap(8)
                .reliable(Reliability::default())
        };
        let mut arena = AsyncArena::new();
        let run = |arena: &mut AsyncArena| {
            AsyncSimBuilder::new(8)
                .seed(7)
                .network(cfg())
                .build_in(arena, Flood::new)
                .unwrap()
                .run_reusing(arena)
                .unwrap()
        };
        let first = run(&mut arena);
        // From the second trial on, every store is at the high-water of
        // identical trials: the footprint must be a fixed point.
        let warm = run(&mut arena);
        assert_eq!(full_fingerprint(&first), full_fingerprint(&warm));
        let settled = arena.resident_bytes();
        for _ in 0..3 {
            let again = run(&mut arena);
            assert_eq!(full_fingerprint(&first), full_fingerprint(&again));
            assert_eq!(
                arena.resident_bytes(),
                settled,
                "identical trials must reuse identical storage"
            );
        }
    }

    #[test]
    fn a_crash_free_reliable_run_pops_one_event_per_payload() {
        // Flood sends one payload over every directed link, and nothing is
        // lost: each ack beats its timer, which would pop stale, and no
        // later event reads the link, so neither is queued. The run pops
        // the wake-up and the 56 copies; with every timer and ack queued it
        // took three pops a payload (copy, ack, stale timer), 1 + 168.
        let mut sim = AsyncSimBuilder::new(8)
            .seed(4)
            .delays(Box::new(ConstDelay::max()))
            .network(NetworkConfig::new().reliable(Reliability::default()))
            .build(Flood::new)
            .unwrap();
        let mut steps = 0;
        while sim.step().unwrap() {
            steps += 1;
        }
        assert_eq!(sim.stats().faults.payloads, 56);
        assert_eq!(sim.stats().faults.acks, 56);
        assert_eq!(steps, 1 + 56);
        // The last copies land at 2 and their acks at 3: an ack that was
        // never queued still counts toward the reported time.
        assert_eq!(sim.now(), 2.0);
        let o = sim.into_outcome(AsyncHaltReason::QueueDrained);
        o.validate_explicit().unwrap();
        assert_eq!(o.time, 3.0);
    }

    #[test]
    fn a_capped_reliable_run_reports_no_time_past_its_last_pop() {
        // The cap of 8 pops the wake-up at 0 and the seven copies at 1. Their
        // acks, held for 2, lie past the cap and must not count toward the
        // reported time, as they never popped.
        let o = AsyncSimBuilder::new(8)
            .seed(4)
            .delays(Box::new(ConstDelay::max()))
            .network(NetworkConfig::new().reliable(Reliability::default()))
            .max_events(8)
            .build(Flood::new)
            .unwrap()
            .run()
            .unwrap();
        assert_eq!(o.halt, AsyncHaltReason::MaxEvents);
        assert_eq!(o.stats.faults.acks, 7);
        assert_eq!(o.time, 1.0);
    }

    #[test]
    fn an_ack_lost_to_a_crashed_sender_leaves_its_timer_live() {
        // n = 2, every delay 0.5. Node 0's copy lands at 0.5, and its ack,
        // which lands at 1.0 before the deadline 2.5, finds node 0 down
        // (crashed 0.75 to 1.5). A run with crash faults queues its
        // timers, so this one still fires at 2.5. Dropped as stale behind
        // the ack, the payload would wait for the timer recovery re-arms
        // at 4.0, and the run would end at 5.0 instead of 4.0.
        use clique_model::trace::SharedSink;
        let sink = SharedSink::new();
        let o = AsyncSimBuilder::new(2)
            .seed(1)
            .delays(Box::new(ConstDelay::new(0.5)))
            .network(
                NetworkConfig::new()
                    .reliable(Reliability::default())
                    .faults(FaultPlan::new().crash_recovering(NodeIndex(0), 0.75, 1.5)),
            )
            .trace(Box::new(sink.clone()))
            .build(Flood::new)
            .unwrap()
            .run()
            .unwrap();
        let retransmits: Vec<(f64, u32, u32)> = sink
            .take()
            .into_iter()
            .filter_map(|e| match e {
                TraceEvent::Fault {
                    at: At::Time(t),
                    kind: FaultKind::Retransmit,
                    src,
                    dst,
                } => Some((t, src, dst)),
                _ => None,
            })
            .collect();
        assert_eq!(retransmits, [(2.5, 0, 1), (3.0, 1, 0)]);
        assert_eq!(o.stats.faults.crash_drops, 2, "the ack and node 1's copy");
        assert_eq!(o.halt, AsyncHaltReason::QueueDrained);
        assert_eq!(o.time, 4.0);
        o.validate_explicit().unwrap();
    }

    #[test]
    fn stale_retry_timers_do_not_inflate_time() {
        // A clean reliable run still arms one timer per transmission; none
        // may count toward the reported time complexity, whether it pops
        // stale or is never queued.
        let reliable = AsyncSimBuilder::new(6)
            .seed(4)
            .network(NetworkConfig::new().reliable(Reliability::default()))
            .build(Flood::new)
            .unwrap()
            .run()
            .unwrap();
        let legacy = AsyncSimBuilder::new(6)
            .seed(4)
            .build(Flood::new)
            .unwrap()
            .run()
            .unwrap();
        reliable.validate_explicit().unwrap();
        assert_eq!(reliable.halt, AsyncHaltReason::QueueDrained);
        assert_eq!(reliable.stats.faults.retransmits, 0);
        // The fault-free RTO (2.5) exceeds the longest possible round
        // trip, so a loss-free reliable run matches the legacy time up to
        // the ack round trips — certainly far below the first timeout.
        assert!(
            reliable.time < legacy.time + 2.5,
            "stale timers leaked into the time complexity: {} vs {}",
            reliable.time,
            legacy.time
        );
    }
}

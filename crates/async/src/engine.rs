//! The asynchronous event-driven engine.

use std::any::Any;

use clique_model::ids::{Id, IdAssignment, IdSpace};
use clique_model::metrics::MessageStats;
use clique_model::ports::{Port, PortBackend, PortMap, PortResolver, RandomResolver};
use clique_model::prof::{self, Phase};
use clique_model::rng::{coin, derive_seed, rng_from_seed, sample_distinct};
use clique_model::trace::{At, FaultKind, TraceEvent, TraceSink, Tracer, ALL_CLASSES};
use clique_model::{Decision, ModelError, NodeIndex, Topology, WakeCause};
use rand::rngs::SmallRng;
use rand::Rng;

use crate::adversary::{
    Adversary, DelayStrategy, MessageClass, Oblivious, Observation, Transcript, UniformDelay,
};
use crate::network::reliability::{Outstanding, RelState};
use crate::network::{LinkTable, NetworkConfig, Reliability};
use crate::node::{AsyncContext, AsyncNode, Received};
use crate::outcome::{AsyncHaltReason, AsyncOutcome};
use crate::queue::EventQueue;
use crate::wakeup::AsyncWakeSchedule;

/// Seed stream tags (mirroring the synchronous engine), so every consumer of
/// randomness gets an independent deterministic stream.
const STREAM_RESOLVER: u64 = u64::MAX;
const STREAM_IDS: u64 = u64::MAX - 1;
const STREAM_DELAYS: u64 = u64::MAX - 2;
const STREAM_FAULTS: u64 = u64::MAX - 3;
const STREAM_ADV_FAULTS: u64 = u64::MAX - 4;
const STREAM_NODE_BASE: u64 = 0;

/// The flat index of directed link `src → dst`.
#[inline]
fn link_key(src: NodeIndex, dst: NodeIndex, n: usize) -> usize {
    src.0 * n + dst.0
}

/// What happens at a scheduled point in time.
enum EventKind<M> {
    /// The adversary wakes a node.
    Wake(NodeIndex),
    /// A message is delivered (fault-free engine, or an active network
    /// without the reliability protocol).
    Deliver {
        src: NodeIndex,
        dst: NodeIndex,
        dst_port: Port,
        msg: M,
    },
    /// A sequence-numbered data copy of the reliability protocol arrives.
    DeliverData {
        src: NodeIndex,
        dst: NodeIndex,
        dst_port: Port,
        data_seq: u32,
        msg: M,
    },
    /// A delivery acknowledgement arrives back at the data sender `to`.
    DeliverAck {
        to: NodeIndex,
        from: NodeIndex,
        data_seq: u32,
    },
    /// A retransmission timer fires for the payload `data_seq` on link
    /// `src → dst`, armed after that payload's `attempt`-th transmission
    /// (stale once the attempt count moved on).
    Retry {
        src: NodeIndex,
        dst: NodeIndex,
        data_seq: u32,
        attempt: u32,
    },
    /// A scheduled crash fault fells a node.
    Crash(NodeIndex),
    /// A crashed node recovers (resuming its pre-crash state).
    Recover(NodeIndex),
}

/// How a wire transmission attempt fared against the faulty network.
enum WireFate {
    /// Admitted and survived: delivery is scheduled for this time.
    At(f64),
    /// Dropped on the tail of a full link queue (never occupied the link).
    QueueDrop,
    /// Destroyed in transit (after occupying the link).
    Lost,
}

/// Reusable simulation state for repeated asynchronous trials: the
/// [`PortMap`], the per-link FIFO-floor storage (a flat `Θ(n²)` array on
/// the dense backend, a hashed touched-links map on the sparse one), the
/// event queue's storage (its near and far heaps and its per-bucket ring
/// vectors, each keeping its capacity), and the outbox.
///
/// The asynchronous mirror of [`clique_sync::SyncArena`]: build through
/// [`AsyncSimBuilder::build_in`], finish with [`AsyncSim::run_reusing`],
/// and consecutive trials at the same `n` (and backend) skip the big
/// initializations (the map via [`PortMap::reset`] in O(touched-state),
/// the FIFO floors via an in-place clear with no reallocation), with
/// bit-identical outcomes. One arena serves any mix of algorithms and
/// sizes; typed buffers are recycled when the message type matches and
/// cheaply rebuilt when it does not; the map is rebuilt when the
/// requested backend changes.
///
/// [`clique_sync::SyncArena`]: ../clique_sync/struct.SyncArena.html
#[derive(Default)]
pub struct AsyncArena {
    ports: Option<PortMap>,
    fifo_front: LinkTable,
    /// Per-link busy horizons of the capacity model (empty until a trial
    /// with a finite link rate runs).
    link_busy: LinkTable,
    /// Resident-byte estimate of the typed reliability-protocol state
    /// inside `buffers`, captured at stash time (the type-erased box
    /// cannot be measured from here).
    rel_bytes: u64,
    // `+ Send` keeps the whole arena `Send`, so sweep worker threads can
    // own recycled arenas (message types are `Send` by trait bound).
    buffers: Option<Box<dyn Any + Send>>,
}

impl AsyncArena {
    /// Creates an empty arena; the first trial populates it.
    pub fn new() -> Self {
        AsyncArena::default()
    }

    /// Drops all recycled state, releasing the `Θ(n²)` tables immediately
    /// (useful between sweep cells at very large `n`).
    pub fn clear(&mut self) {
        *self = AsyncArena::default();
    }

    /// Takes a map for a trial on `topo` and `backend`: the recycled one
    /// (reset in O(touched-state)) when both the topology fingerprint and
    /// the resolved backend match, a fresh one otherwise.
    fn take_ports(&mut self, topo: &Topology, backend: PortBackend) -> Result<PortMap, ModelError> {
        let backend = backend.resolve_for(topo.n(), topo.m());
        match self.ports.take() {
            Some(mut map)
                if map.topology_fingerprint() == topo.fingerprint() && map.backend() == backend =>
            {
                map.reset();
                Ok(map)
            }
            _ => PortMap::for_topology(topo, backend),
        }
    }

    /// Backend-reported estimate of the bytes resident in the recycled
    /// engine tables: the port map, the FIFO-floor storage, and — when a
    /// faulty network has run — the per-link busy horizons and the
    /// reliability protocol's queue/retransmit buffers (honest
    /// accounting: retained capacity counts). The sweep harness records
    /// this per cell so dense-vs-sparse footprints appear in every
    /// experiment CSV.
    pub fn resident_bytes(&self) -> u64 {
        self.ports.as_ref().map_or(0, PortMap::resident_bytes)
            + self.fifo_front.resident_bytes()
            + self.link_busy.resident_bytes()
            + self.rel_bytes
    }
}

impl std::fmt::Debug for AsyncArena {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AsyncArena")
            .field("ports", &self.ports.as_ref().map(|p| p.n()))
            .field("fifo_bytes", &self.fifo_front.resident_bytes())
            .field("link_busy_bytes", &self.link_busy.resident_bytes())
            .field("rel_bytes", &self.rel_bytes)
            .field("has_buffers", &self.buffers.is_some())
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
/// `64·n² + 4096`.
pub struct AsyncSimBuilder {
    n: usize,
    seed: u64,
    ids: Option<IdAssignment>,
    wake: Option<AsyncWakeSchedule>,
    resolver: Option<Box<dyn PortResolver>>,
    adversary: Option<Box<dyn Adversary>>,
    backend: Option<PortBackend>,
    topology: Option<Topology>,
    max_events: Option<u64>,
    network: Option<NetworkConfig>,
    trace: Option<Box<dyn TraceSink>>,
    lean_stats: bool,
}

impl std::fmt::Debug for AsyncSimBuilder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AsyncSimBuilder")
            .field("n", &self.n)
            .field("seed", &self.seed)
            .field("ids", &self.ids.as_ref().map(|a| a.len()))
            .field("wake", &self.wake)
            .field("max_events", &self.max_events)
            .finish_non_exhaustive()
    }
}

impl AsyncSimBuilder {
    /// Starts configuring a simulation of an `n`-node asynchronous clique.
    pub fn new(n: usize) -> Self {
        AsyncSimBuilder {
            n,
            seed: 0,
            ids: None,
            wake: None,
            resolver: None,
            adversary: None,
            backend: None,
            topology: None,
            max_events: None,
            network: None,
            trace: None,
            lean_stats: false,
        }
    }

    /// Sets the master seed; the whole execution is a deterministic function
    /// of it and the other settings.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Uses an explicit ID assignment instead of sampling one.
    pub fn ids(mut self, ids: IdAssignment) -> Self {
        self.ids = Some(ids);
        self
    }

    /// Sets the adversarial wake-up schedule (default: node 0 at time 0).
    pub fn wake(mut self, wake: AsyncWakeSchedule) -> Self {
        self.wake = Some(wake);
        self
    }

    /// Sets the port resolution strategy (default: [`RandomResolver`]).
    ///
    /// In the asynchronous model the adversary commits to the port mapping
    /// *obliviously* (Section 5); the default resolver draws from an RNG
    /// stream independent of all algorithm coins, which is distributionally
    /// equivalent.
    pub fn resolver(mut self, resolver: Box<dyn PortResolver>) -> Self {
        self.resolver = Some(resolver);
        self
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

    /// Pins the port-map storage backend (default: the `LE_BACKEND`
    /// environment selection, `auto` when unset; see [`PortBackend`]).
    /// The per-link FIFO-floor storage follows the same choice, so a
    /// sparse-backend asynchronous trial holds no `Θ(n²)` state at all.
    pub fn backend(mut self, backend: PortBackend) -> Self {
        self.backend = Some(backend);
        self
    }

    /// Pins the communication graph (default: the `LE_TOPOLOGY`
    /// environment selection, which is the clique when unset). The
    /// topology's node count must equal the builder's `n`; ports become
    /// degree-indexed (`0..deg(v)` per node) on any non-clique graph.
    pub fn topology(mut self, topology: Topology) -> Self {
        self.topology = Some(topology);
        self
    }

    /// Sets the event cap guarding against non-terminating algorithms
    /// (default `64·n² + 4096`).
    pub fn max_events(mut self, max_events: u64) -> Self {
        self.max_events = Some(max_events);
        self
    }

    /// Sets the faulty-network configuration — link capacity, message
    /// loss, crash faults, and the reliability protocol (see
    /// [`NetworkConfig`]).
    ///
    /// Default: the `LE_LOSS`/`LE_LINK_RATE`/`LE_QUEUE_CAP`/`LE_CRASH`
    /// environment selection, and the transparent fault-free network when
    /// all four are unset. The transparent default
    /// ([`NetworkConfig::default`]) routes dispatch through the exact
    /// fault-free code path, so executions reproduce pre-fault-layer runs
    /// byte-identically.
    pub fn network(mut self, network: NetworkConfig) -> Self {
        self.network = Some(network);
        self
    }

    /// Streams every trace event class into an explicit sink, overriding
    /// the `LE_TRACE` environment selection. The tracer observes without
    /// influencing: it draws no randomness and touches no schedule, so the
    /// execution is bit-identical to an untraced one.
    pub fn trace(mut self, sink: Box<dyn TraceSink>) -> Self {
        self.trace = Some(sink);
        self
    }

    /// Skips the `Θ(n)` per-node message histogram (see
    /// [`MessageStats::new_lean`]) — for sweeps at scales where per-trial
    /// collection cost matters more than per-node distribution shape.
    pub fn lean_stats(mut self, lean: bool) -> Self {
        self.lean_stats = lean;
        self
    }

    /// Instantiates the simulation, creating one node per network position
    /// via `factory(id, n)`.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError`] if `n < 2` or the default ID universe cannot
    /// cover `n` nodes.
    pub fn build<N, F>(self, factory: F) -> Result<AsyncSim<N>, ModelError>
    where
        N: AsyncNode,
        N::Message: 'static,
        F: FnMut(Id, usize) -> N,
    {
        self.build_in(&mut AsyncArena::new(), factory)
    }

    /// Instantiates the simulation like [`AsyncSimBuilder::build`], but
    /// recycles the `Θ(n²)` port map, the `Θ(n²)` FIFO-floor array, and
    /// the event queue's heaps and bucket ring held by `arena` instead of
    /// allocating fresh ones. Pair with [`AsyncSim::run_reusing`] to
    /// return the state to the arena afterwards. The execution is
    /// identical to a freshly built one.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError`] if `n < 2`, the default ID universe cannot
    /// cover `n` nodes, or the wake schedule or a scheduled crash fault
    /// names a node outside the network ([`ModelError::NodeOutOfRange`]).
    pub fn build_in<N, F>(
        self,
        arena: &mut AsyncArena,
        mut factory: F,
    ) -> Result<AsyncSim<N>, ModelError>
    where
        N: AsyncNode,
        N::Message: 'static,
        F: FnMut(Id, usize) -> N,
    {
        let _build = prof::span(Phase::Build);
        let n = self.n;
        if n < 2 {
            return Err(ModelError::NetworkTooSmall { n });
        }
        let wake = self
            .wake
            .unwrap_or_else(|| AsyncWakeSchedule::single(NodeIndex(0)));
        let net = self
            .network
            .or_else(NetworkConfig::from_env)
            .unwrap_or_default();
        let woken = wake.entries().iter().map(|&(_, u)| u);
        let crashed = net.fault_plan().scheduled().iter().map(|cf| cf.node);
        if let Some(node) = woken.chain(crashed).find(|u| u.0 >= n) {
            return Err(ModelError::NodeOutOfRange { node, n });
        }
        let ids = match self.ids {
            Some(ids) => ids,
            None => {
                let mut id_rng = rng_from_seed(derive_seed(self.seed, STREAM_IDS));
                IdSpace::quasilinear(n).assign(n, &mut id_rng)?
            }
        };
        if ids.len() != n {
            return Err(ModelError::NodeOutOfRange {
                node: NodeIndex(ids.len()),
                n,
            });
        }
        let topo = match self.topology {
            Some(t) => t,
            None => Topology::from_env(n),
        };
        if topo.n() != n {
            return Err(ModelError::InvalidTopology {
                reason: "topology node count does not match the builder's n",
            });
        }
        let backend = self
            .backend
            .unwrap_or_else(PortBackend::from_env)
            .resolve_for(n, topo.m());
        let ports = arena.take_ports(&topo, backend)?;
        let fifo_front = std::mem::take(&mut arena.fifo_front).recycle(backend, n);
        let net_active = net.is_active();
        let net_service = net.service();
        // The busy-horizon table is only materialized when the capacity
        // model is on — a fault-free (or capacity-free) dense trial must
        // not pay a second Θ(n²) allocation. A stale table from an
        // earlier capacity trial is carried through untouched (never read
        // while `net_service == 0`).
        let link_busy = if net_service > 0.0 {
            std::mem::take(&mut arena.link_busy).recycle(backend, n)
        } else {
            std::mem::take(&mut arena.link_busy)
        };
        let mut bufs: AsyncBuffers<N::Message> = arena
            .buffers
            .take()
            .and_then(|b| b.downcast::<AsyncBuffers<N::Message>>().ok())
            .map_or_else(AsyncBuffers::default, |b| *b);
        bufs.queue.clear();
        bufs.outbox.clear();
        bufs.rel.reset();
        let nodes: Vec<N> = ids.as_slice().iter().map(|&id| factory(id, n)).collect();
        let node_rngs: Vec<SmallRng> = (0..n)
            .map(|u| rng_from_seed(derive_seed(self.seed, STREAM_NODE_BASE + u as u64)))
            .collect();

        let mut queue = bufs.queue;
        let mut last_scheduled_wake = 0.0f64;
        for &(t, u) in wake.entries() {
            queue.push(t, EventKind::Wake(u));
            last_scheduled_wake = last_scheduled_wake.max(t);
        }

        let mut fault_rng = rng_from_seed(derive_seed(self.seed, STREAM_FAULTS));
        if net_active {
            for cf in net.fault_plan().scheduled() {
                queue.push(cf.at, EventKind::Crash(cf.node));
                if let Some(back) = cf.recover_at {
                    queue.push(back, EventKind::Recover(cf.node));
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
                    queue.push(t, EventKind::Crash(NodeIndex(v)));
                }
            }
        }

        let tracer = match self.trace {
            Some(sink) => Tracer::with_sink(sink, ALL_CLASSES),
            None => Tracer::from_env(),
        };
        let stats = if self.lean_stats {
            MessageStats::new_lean(n)
        } else {
            MessageStats::new(n)
        };
        Ok(AsyncSim {
            n,
            ids,
            nodes,
            node_rngs,
            ports,
            resolver: self.resolver.unwrap_or_else(|| Box::new(RandomResolver)),
            resolver_rng: rng_from_seed(derive_seed(self.seed, STREAM_RESOLVER)),
            adversary: self
                .adversary
                .unwrap_or_else(|| Box::new(Oblivious::new(UniformDelay::full()))),
            delay_rng: rng_from_seed(derive_seed(self.seed, STREAM_DELAYS)),
            transcript: Transcript::new(n),
            queue,
            fifo_front,
            max_events: self
                .max_events
                .unwrap_or(64 * (n as u64) * (n as u64) + 4096),
            awake: vec![false; n],
            awake_count: 0,
            stats,
            tracer,
            outbox: bufs.outbox,
            last_decisions: vec![Decision::Undecided; n],
            messages_to_terminated: 0,
            now: 0.0,
            busy_now: 0.0,
            wake_all_time: None,
            last_scheduled_wake,
            net_active,
            net_service,
            net_queue_cap: net.queue_capacity(),
            net_loss: net.loss_probability(),
            rel_cfg: net.reliability(),
            adaptive_crashes: net.fault_plan().adaptive(),
            fault_rng,
            adv_fault_rng: rng_from_seed(derive_seed(self.seed, STREAM_ADV_FAULTS)),
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
    n: usize,
    ids: IdAssignment,
    nodes: Vec<N>,
    node_rngs: Vec<SmallRng>,
    ports: PortMap,
    resolver: Box<dyn PortResolver>,
    resolver_rng: SmallRng,
    adversary: Box<dyn Adversary>,
    delay_rng: SmallRng,
    /// Per-node sent/delivered counts, maintained for adaptive adversaries.
    transcript: Transcript,
    queue: EventQueue<EventKind<N::Message>>,
    /// Per directed link `src·n + dst`: the latest delivery time already
    /// scheduled, enforcing FIFO order. Flat under the dense backend
    /// (this sits on the per-message dispatch path), hashed under the
    /// sparse backend (memory over raw speed at very large `n`).
    fifo_front: LinkTable,
    max_events: u64,
    awake: Vec<bool>,
    /// Nodes woken so far (the `true` entries of `awake`).
    awake_count: usize,
    stats: MessageStats,
    /// Structured event tracing (disabled path: one `bool` load per site).
    tracer: Tracer,
    outbox: Vec<(Port, N::Message)>,
    last_decisions: Vec<Decision>,
    messages_to_terminated: u64,
    now: f64,
    /// Time of the last *effective* event — everything except a stale
    /// retransmission-timer pop. This is the reported time complexity:
    /// an uncancellable timer whose payload was already acknowledged
    /// must not inflate it. Identical to `now` on the fault-free path.
    busy_now: f64,
    wake_all_time: Option<f64>,
    last_scheduled_wake: f64,
    /// Whether any fault/capacity feature is on; `false` routes dispatch
    /// through the exact legacy code path (byte-identical executions).
    net_active: bool,
    /// Per-message link service time (`1/rate`; 0 = infinite capacity).
    net_service: f64,
    /// Bounded link queue length (`usize::MAX` = unbounded).
    net_queue_cap: usize,
    /// Probability a transmission is destroyed in transit.
    net_loss: f64,
    /// The reliability protocol's timers, if enabled.
    rel_cfg: Option<Reliability>,
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
    /// Per-link busy horizons of the capacity model (unused storage when
    /// `net_service == 0`).
    link_busy: LinkTable,
    /// Per-link stop-and-wait protocol state.
    rel: RelState<N::Message>,
    crashed: Vec<bool>,
    crashed_count: usize,
}

impl<N: AsyncNode> std::fmt::Debug for AsyncSim<N> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AsyncSim")
            .field("n", &self.n)
            .field("now", &self.now)
            .field("messages", &self.stats.total())
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
        &self.ids
    }

    /// Message statistics so far.
    pub fn stats(&self) -> &MessageStats {
        &self.stats
    }

    /// Immutable access to a node's algorithm state (for tests and
    /// experiment probes).
    pub fn node(&self, u: NodeIndex) -> &N {
        &self.nodes[u.0]
    }

    /// Whether `u` has woken up.
    pub fn is_awake(&self, u: NodeIndex) -> bool {
        self.awake[u.0]
    }

    /// The partial port mapping fixed so far.
    pub fn ports(&self) -> &PortMap {
        &self.ports
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
    /// Propagates [`ModelError`] from port resolution (only possible with a
    /// faulty custom resolver) or from an adversary returning a delay
    /// outside `(0, 1]`.
    pub fn run(mut self) -> Result<AsyncOutcome, ModelError> {
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
        if self.net_active && (self.stats.faults.lost_payloads > 0 || self.crashed_count == self.n)
        {
            return Ok(AsyncHaltReason::FaultLivelock);
        }
        Ok(AsyncHaltReason::QueueDrained)
    }

    /// Runs until the event queue drains (or the event cap fires) like
    /// [`AsyncSim::run`], then returns the recyclable state — the port
    /// map, FIFO floors, the event queue's heaps and bucket ring, and the
    /// outbox — to `arena` for the next trial instead of dropping it. The
    /// outcome is identical to [`AsyncSim::run`]'s.
    ///
    /// # Errors
    ///
    /// Propagates [`ModelError`] from port resolution (only possible with a
    /// faulty custom resolver) or from an adversary returning a delay
    /// outside `(0, 1]`.
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
    /// Propagates [`ModelError`] from port resolution or from an adversary
    /// returning a delay outside `(0, 1]`.
    pub fn step(&mut self) -> Result<bool, ModelError> {
        let Some(ev) = self.queue.pop() else {
            return Ok(false);
        };
        debug_assert!(ev.time >= self.now, "events must be processed in order");
        self.now = self.now.max(ev.time);
        let mut effective = true;
        match ev.kind {
            EventKind::Wake(u) => {
                if !self.crashed[u.0] && !self.awake[u.0] && !self.nodes[u.0].is_terminated() {
                    self.activate(u, Some(WakeCause::Adversary), None)?;
                }
            }
            EventKind::Deliver {
                src,
                dst,
                dst_port,
                msg,
            } => {
                if self.net_active && self.crashed[dst.0] {
                    // A crashed node swallows the message silently; with
                    // no reliability layer the payload is gone for good.
                    self.stats.faults.crash_drops += 1;
                    self.stats.faults.lost_payloads += 1;
                    if self.tracer.enabled() {
                        self.tracer.emit(TraceEvent::Fault {
                            at: At::Time(self.now),
                            kind: FaultKind::CrashDrop,
                            src: src.0 as u32,
                            dst: dst.0 as u32,
                        });
                    }
                } else {
                    if self.net_active {
                        self.stats.faults.goodput += 1;
                    }
                    self.transcript.record_delivery(dst);
                    if self.tracer.enabled() {
                        self.tracer.emit(TraceEvent::Deliver {
                            at: At::Time(self.now),
                            src: src.0 as u32,
                            dst: dst.0 as u32,
                            cls: Some(N::classify(&msg).name()),
                        });
                    }
                    if self.nodes[dst.0].is_terminated() {
                        self.messages_to_terminated += 1;
                    } else {
                        let wake = if self.awake[dst.0] {
                            None
                        } else {
                            Some(WakeCause::Message)
                        };
                        self.activate(
                            dst,
                            wake,
                            Some(Received {
                                port: dst_port,
                                msg,
                            }),
                        )?;
                    }
                }
            }
            EventKind::DeliverData {
                src,
                dst,
                dst_port,
                data_seq,
                msg,
            } => {
                if self.crashed[dst.0] {
                    // Crashed receivers neither deliver nor acknowledge;
                    // the sender's retransmission timer keeps trying.
                    self.stats.faults.crash_drops += 1;
                    if self.tracer.enabled() {
                        self.tracer.emit(TraceEvent::Fault {
                            at: At::Time(self.now),
                            kind: FaultKind::CrashDrop,
                            src: src.0 as u32,
                            dst: dst.0 as u32,
                        });
                    }
                } else {
                    let key = link_key(src, dst, self.n) as u64;
                    let link = self.rel.entry(key);
                    let fresh = data_seq > link.delivered_hi;
                    if fresh {
                        link.delivered_hi = data_seq;
                    } else {
                        self.stats.faults.duplicates += 1;
                    }
                    // Always (re-)acknowledge: a duplicate means the
                    // previous ack was lost or late.
                    self.send_ack(dst, src, data_seq)?;
                    if fresh {
                        self.stats.faults.goodput += 1;
                        self.transcript.record_delivery(dst);
                        if self.tracer.enabled() {
                            self.tracer.emit(TraceEvent::Deliver {
                                at: At::Time(self.now),
                                src: src.0 as u32,
                                dst: dst.0 as u32,
                                cls: Some(N::classify(&msg).name()),
                            });
                        }
                        if self.nodes[dst.0].is_terminated() {
                            self.messages_to_terminated += 1;
                        } else {
                            let wake = if self.awake[dst.0] {
                                None
                            } else {
                                Some(WakeCause::Message)
                            };
                            self.activate(
                                dst,
                                wake,
                                Some(Received {
                                    port: dst_port,
                                    msg,
                                }),
                            )?;
                        }
                    }
                }
            }
            EventKind::DeliverAck { to, from, data_seq } => {
                if self.crashed[to.0] {
                    self.stats.faults.crash_drops += 1;
                } else {
                    let key = link_key(to, from, self.n) as u64;
                    let acked = self
                        .rel
                        .get_mut(key)
                        .and_then(|l| l.inflight.as_ref())
                        .is_some_and(|o| o.seq == data_seq);
                    if acked {
                        self.begin_next_payload(to, from)?;
                    }
                    // A stale ack (duplicate, or for an abandoned payload)
                    // is ignored; it still consumed wire time above.
                }
            }
            EventKind::Retry {
                src,
                dst,
                data_seq,
                attempt,
            } => {
                // Timers are uncancellable queue entries; one is live only
                // if the exact (payload, attempt) it was armed for is
                // still in flight. Stale pops are non-events and must not
                // advance the reported time complexity.
                effective = false;
                if !self.crashed[src.0] {
                    let key = link_key(src, dst, self.n) as u64;
                    let live = self
                        .rel
                        .get_mut(key)
                        .and_then(|l| l.inflight.as_ref())
                        .is_some_and(|o| o.seq == data_seq && o.attempts == attempt);
                    if live {
                        effective = true;
                        let budget = self.rel_cfg.as_ref().map_or(0, |r| r.budget);
                        if attempt > budget {
                            // Retry budget exhausted: abandon the payload
                            // and move on to the backlog.
                            self.stats.faults.abandoned += 1;
                            self.stats.faults.lost_payloads += 1;
                            if self.tracer.enabled() {
                                self.tracer.emit(TraceEvent::Fault {
                                    at: At::Time(self.now),
                                    kind: FaultKind::Abandon,
                                    src: src.0 as u32,
                                    dst: dst.0 as u32,
                                });
                            }
                            self.begin_next_payload(src, dst)?;
                        } else {
                            self.send_reliable_copy(src, dst)?;
                        }
                    }
                }
            }
            EventKind::Crash(v) => {
                self.crash_now(v);
            }
            EventKind::Recover(v) => {
                self.recover_now(v);
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
            if self.tracer.enabled() {
                self.tracer.emit(TraceEvent::Fault {
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
        if self.tracer.enabled() {
            self.tracer.emit(TraceEvent::Fault {
                at: At::Time(self.now),
                kind: FaultKind::Recover,
                src: v.0 as u32,
                dst: v.0 as u32,
            });
        }
        let Some(rel_cfg) = self.rel_cfg else {
            return;
        };
        let n = self.n as u64;
        let rearm: Vec<(NodeIndex, u32, u32)> = self
            .rel
            .iter()
            .filter(|l| l.key / n == v.0 as u64)
            .filter_map(|l| {
                l.inflight
                    .as_ref()
                    .map(|o| (NodeIndex((l.key % n) as usize), o.seq, o.attempts))
            })
            .collect();
        for (dst, data_seq, attempt) in rearm {
            self.queue.push(
                self.now + rel_cfg.timeout_after(attempt),
                EventKind::Retry {
                    src: v,
                    dst,
                    data_seq,
                    attempt,
                },
            );
        }
    }

    /// Runs a node's hooks and dispatches whatever it sent.
    fn activate(
        &mut self,
        u: NodeIndex,
        wake: Option<WakeCause>,
        msg: Option<Received<N::Message>>,
    ) -> Result<(), ModelError> {
        if self.tracer.enabled() {
            if let Some(cause) = wake {
                self.tracer.emit(TraceEvent::Wake {
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
                id: self.ids.id_of(u),
                n: self.n,
                ports: self.ports.ports_of(u),
                time: self.now,
                rng: &mut self.node_rngs[u.0],
                outbox: &mut outbox,
            };
            if let Some(cause) = wake {
                if !self.awake[u.0] {
                    self.awake[u.0] = true;
                    self.awake_count += 1;
                }
                self.nodes[u.0].on_wake(&mut ctx, cause);
                if self.awake_count == self.n && self.wake_all_time.is_none() {
                    self.wake_all_time = Some(self.now);
                }
            }
            if let Some(m) = msg {
                self.nodes[u.0].on_message(&mut ctx, m);
            }
        }
        for (port, m) in outbox.drain(..) {
            self.dispatch(u, port, m)?;
        }
        self.outbox = outbox;

        // Track decision changes (and enforce irrevocability).
        let d = self.nodes[u.0].decision();
        if d != self.last_decisions[u.0] {
            assert!(
                !self.last_decisions[u.0].is_decided(),
                "{u} revoked its decision ({:?} -> {d:?})",
                self.last_decisions[u.0]
            );
            self.last_decisions[u.0] = d;
            if self.tracer.enabled() {
                self.tracer.emit(TraceEvent::Decide {
                    at: At::Time(self.now),
                    node: u.0 as u32,
                    leader: d == Decision::Leader,
                });
            }
        }
        Ok(())
    }

    /// Resolves the port and hands the message to the network: on the
    /// fault-free path the adversary picks a delay and the delivery is
    /// enqueued directly (respecting per-link FIFO order); on the faulty
    /// path the message runs the capacity/loss/crash gauntlet, optionally
    /// under the reliability protocol.
    fn dispatch(&mut self, src: NodeIndex, port: Port, msg: N::Message) -> Result<(), ModelError> {
        let dst = self
            .ports
            .resolve(src, port, self.resolver.as_mut(), &mut self.resolver_rng)?;
        let class = N::classify(&msg);
        if self.tracer.enabled() {
            self.tracer.emit(TraceEvent::Send {
                at: At::Time(self.now),
                src: src.0 as u32,
                port: port.0 as u32,
                dst: dst.node.0 as u32,
                cls: Some(class.name()),
            });
        }
        if !self.net_active {
            // The pre-fault-layer dispatch path, verbatim: the transparent
            // default network must reproduce executions byte-identically.
            let obs = Observation {
                src,
                dst: dst.node,
                now: self.now,
                class,
                transcript: &self.transcript,
            };
            let delay = self.adversary.delay(&obs, &mut self.delay_rng);
            // Enforced in every build profile: a NaN here would survive any
            // clamp, poison `deliver_at` and the FIFO floor, and break the
            // event queue's ordering (which requires non-NaN times).
            if !(delay > 0.0 && delay <= 1.0) {
                return Err(ModelError::InvalidDelay {
                    adversary: self.adversary.name(),
                    delay: format!("{delay}"),
                });
            }
            self.transcript.record_send(src);
            let floor = self.fifo_front.slot_mut(link_key(src, dst.node, self.n));
            let deliver_at = (self.now + delay).max(*floor);
            *floor = deliver_at;
            self.stats.record(self.now.floor() as usize + 1, src);
            self.queue.push(
                deliver_at,
                EventKind::Deliver {
                    src,
                    dst: dst.node,
                    dst_port: dst.port,
                    msg,
                },
            );
            return Ok(());
        }

        // Faulty path. The algorithm-facing accounting (transcript,
        // MessageStats histogram) happens here, at payload level — wire
        // retransmissions and acks below are protocol overhead, counted
        // only in the fault counters.
        self.transcript.record_send(src);
        self.stats.record(self.now.floor() as usize + 1, src);
        self.stats.faults.payloads += 1;
        if self.rel_cfg.is_some() {
            let key = link_key(src, dst.node, self.n) as u64;
            let link = self.rel.entry(key);
            if link.inflight.is_some() {
                // Stop-and-wait: one unacknowledged payload per link; the
                // rest wait in the backlog.
                link.backlog.push_back((dst.port, msg));
            } else {
                link.next_seq += 1;
                link.inflight = Some(Outstanding {
                    seq: link.next_seq,
                    dst_port: dst.port,
                    msg,
                    attempts: 0,
                });
                self.send_reliable_copy(src, dst.node)?;
            }
        } else {
            // Unreliable: one shot on the wire; a drop is a permanently
            // lost payload.
            match self.transmit_raw(src, dst.node, class)? {
                WireFate::At(t) => {
                    self.queue.push(
                        t,
                        EventKind::Deliver {
                            src,
                            dst: dst.node,
                            dst_port: dst.port,
                            msg,
                        },
                    );
                }
                WireFate::QueueDrop | WireFate::Lost => {
                    self.stats.faults.lost_payloads += 1;
                }
            }
        }
        Ok(())
    }

    /// One wire transmission attempt on the faulty network: link-queue
    /// admission, loss (configured and adversarial), delay, the adaptive
    /// crash directive, and the FIFO floor. The consultation order is
    /// fixed — admission, loss coin, adversary loss, adversary delay,
    /// crash directive — so recorded fault traces replay exactly.
    fn transmit_raw(
        &mut self,
        src: NodeIndex,
        dst: NodeIndex,
        class: MessageClass,
    ) -> Result<WireFate, ModelError> {
        let key = link_key(src, dst, self.n);
        // Capacity model: the message occupies the link for the service
        // time; a backlog beyond the queue capacity is drop-tail.
        let mut depart = self.now;
        let mut queue_dropped = false;
        if self.net_service > 0.0 {
            let busy = self.link_busy.slot_mut(key);
            let backlog = ((*busy - self.now).max(0.0) / self.net_service).ceil();
            if self.net_queue_cap != usize::MAX && backlog >= self.net_queue_cap as f64 {
                queue_dropped = true;
            } else {
                depart = self.now.max(*busy) + self.net_service;
                *busy = depart;
            }
        }
        let fate = if queue_dropped {
            WireFate::QueueDrop
        } else {
            let obs = Observation {
                src,
                dst,
                now: self.now,
                class,
                transcript: &self.transcript,
            };
            let mut lost = self.net_loss > 0.0 && coin(&mut self.fault_rng, self.net_loss);
            if !lost {
                lost = self.adversary.induces_loss(&obs, &mut self.adv_fault_rng);
            }
            if lost {
                WireFate::Lost
            } else {
                let delay = self.adversary.delay(&obs, &mut self.delay_rng);
                if !(delay > 0.0 && delay <= 1.0) {
                    return Err(ModelError::InvalidDelay {
                        adversary: self.adversary.name(),
                        delay: format!("{delay}"),
                    });
                }
                WireFate::At(depart + delay)
            }
        };
        // Adaptive crash directive: consulted on every transmission
        // attempt while budget remains, after the loss/delay draws.
        if self.adaptive_crashes > 0 {
            let obs = Observation {
                src,
                dst,
                now: self.now,
                class,
                transcript: &self.transcript,
            };
            if let Some(v) = self.adversary.crash_directive(&obs) {
                assert!(
                    v.0 < self.n,
                    "crash directive targets {v} outside the {}-node network",
                    self.n
                );
                if !self.crashed[v.0] {
                    self.crash_now(v);
                    self.adaptive_crashes -= 1;
                }
            }
        }
        Ok(match fate {
            WireFate::At(t) => {
                let floor = self.fifo_front.slot_mut(key);
                let at = t.max(*floor);
                *floor = at;
                WireFate::At(at)
            }
            WireFate::QueueDrop => {
                self.stats.faults.queue_drops += 1;
                if self.tracer.enabled() {
                    self.tracer.emit(TraceEvent::Fault {
                        at: At::Time(self.now),
                        kind: FaultKind::Queue,
                        src: src.0 as u32,
                        dst: dst.0 as u32,
                    });
                }
                WireFate::QueueDrop
            }
            WireFate::Lost => {
                self.stats.faults.loss_drops += 1;
                if self.tracer.enabled() {
                    self.tracer.emit(TraceEvent::Fault {
                        at: At::Time(self.now),
                        kind: FaultKind::Loss,
                        src: src.0 as u32,
                        dst: dst.0 as u32,
                    });
                }
                WireFate::Lost
            }
        })
    }

    /// Transmits the current in-flight payload of link `src → dst` (first
    /// attempt or retransmission) and arms its retransmission timer.
    fn send_reliable_copy(&mut self, src: NodeIndex, dst: NodeIndex) -> Result<(), ModelError> {
        let key = link_key(src, dst, self.n) as u64;
        let (data_seq, attempts, dst_port, msg) = {
            let o = self
                .rel
                .get_mut(key)
                .and_then(|l| l.inflight.as_ref())
                .expect("send_reliable_copy requires an in-flight payload");
            (o.seq, o.attempts, o.dst_port, o.msg.clone())
        };
        if attempts > 0 {
            self.stats.faults.retransmits += 1;
            if self.tracer.enabled() {
                self.tracer.emit(TraceEvent::Fault {
                    at: At::Time(self.now),
                    kind: FaultKind::Retransmit,
                    src: src.0 as u32,
                    dst: dst.0 as u32,
                });
            }
        }
        let class = N::classify(&msg);
        if let WireFate::At(t) = self.transmit_raw(src, dst, class)? {
            self.queue.push(
                t,
                EventKind::DeliverData {
                    src,
                    dst,
                    dst_port,
                    data_seq,
                    msg,
                },
            );
        }
        // Count the attempt and arm the timer whether or not the copy
        // survived the wire — the sender cannot know.
        let o = self
            .rel
            .get_mut(key)
            .and_then(|l| l.inflight.as_mut())
            .expect("in-flight payload persists across its own transmission");
        o.attempts += 1;
        let attempt = o.attempts;
        let rel_cfg = self.rel_cfg.expect("reliable send requires a config");
        self.queue.push(
            self.now + rel_cfg.timeout_after(attempt),
            EventKind::Retry {
                src,
                dst,
                data_seq,
                attempt,
            },
        );
        Ok(())
    }

    /// Sends a delivery acknowledgement for `data_seq` from `from` back to
    /// `to` (the data sender). Acks are real wire messages: they occupy
    /// the reverse link, queue, and can be lost — but are never
    /// retransmitted themselves (a lost ack is repaired by the data
    /// retransmission provoking a fresh one).
    fn send_ack(
        &mut self,
        from: NodeIndex,
        to: NodeIndex,
        data_seq: u32,
    ) -> Result<(), ModelError> {
        self.stats.faults.acks += 1;
        if self.tracer.enabled() {
            self.tracer.emit(TraceEvent::Fault {
                at: At::Time(self.now),
                kind: FaultKind::Ack,
                src: from.0 as u32,
                dst: to.0 as u32,
            });
        }
        if let WireFate::At(t) = self.transmit_raw(from, to, MessageClass::Ack)? {
            self.queue
                .push(t, EventKind::DeliverAck { to, from, data_seq });
        }
        Ok(())
    }

    /// Clears link `src → dst`'s in-flight slot and starts the next
    /// backlog payload, if any.
    fn begin_next_payload(&mut self, src: NodeIndex, dst: NodeIndex) -> Result<(), ModelError> {
        let key = link_key(src, dst, self.n) as u64;
        let link = self
            .rel
            .get_mut(key)
            .expect("begin_next_payload requires a touched link");
        link.inflight = None;
        if let Some((dst_port, msg)) = link.backlog.pop_front() {
            link.next_seq += 1;
            link.inflight = Some(Outstanding {
                seq: link.next_seq,
                dst_port,
                msg,
                attempts: 0,
            });
            self.send_reliable_copy(src, dst)?;
        }
        Ok(())
    }

    /// Emits the end-of-run trace events — the topology metadata record,
    /// the backend counter snapshot, and the halt record — and finishes the
    /// tracer (flushing a boxed sink or
    /// submitting the buffered env-trace block to the collector).
    fn finish_trace(&mut self, halt: AsyncHaltReason) {
        if self.tracer.enabled() {
            let (generator, topo_n, m, maxdeg) = self.ports.topology_summary();
            self.tracer.emit(TraceEvent::Topology {
                generator,
                n: topo_n as u32,
                m,
                maxdeg: maxdeg as u32,
            });
            self.tracer.emit(TraceEvent::Backend {
                backend: self.ports.backend().name(),
                counters: self.ports.backend_counters(),
            });
            self.tracer.emit(TraceEvent::Halt {
                at: At::Time(self.busy_now),
                msgs: self.stats.total(),
                reason: match halt {
                    AsyncHaltReason::QueueDrained => "drained",
                    AsyncHaltReason::MaxEvents => "max_events",
                    AsyncHaltReason::FaultLivelock => "livelock",
                },
            });
        }
        self.tracer.finish();
    }

    /// Consumes the simulation into its measurable [`AsyncOutcome`].
    pub fn into_outcome(mut self, halt: AsyncHaltReason) -> AsyncOutcome {
        self.finish_trace(halt);
        AsyncOutcome {
            n: self.n,
            time: self.busy_now,
            last_adversarial_wake: self.last_scheduled_wake,
            wake_all_time: self.wake_all_time,
            stats: self.stats,
            decisions: self.last_decisions,
            awake: self.awake,
            ids: self.ids,
            messages_to_terminated: self.messages_to_terminated,
            crashed: self.crashed,
            halt,
        }
    }

    /// [`AsyncSim::into_outcome`], stashing the recyclable state into
    /// `arena` on the way out.
    pub fn into_outcome_reusing(
        mut self,
        halt: AsyncHaltReason,
        arena: &mut AsyncArena,
    ) -> AsyncOutcome
    where
        N::Message: 'static,
    {
        let _reset = prof::span(Phase::Reset);
        self.finish_trace(halt);
        let AsyncSim {
            n,
            ids,
            ports,
            mut queue,
            fifo_front,
            link_busy,
            rel,
            mut outbox,
            stats,
            last_decisions,
            awake,
            messages_to_terminated,
            busy_now,
            wake_all_time,
            last_scheduled_wake,
            crashed,
            ..
        } = self;
        queue.clear();
        outbox.clear();
        arena.ports = Some(ports);
        arena.fifo_front = fifo_front;
        arena.link_busy = link_busy;
        arena.rel_bytes = rel.resident_bytes();
        arena.buffers = Some(Box::new(AsyncBuffers { queue, outbox, rel }));
        AsyncOutcome {
            n,
            time: busy_now,
            last_adversarial_wake: last_scheduled_wake,
            wake_all_time,
            stats,
            decisions: last_decisions,
            awake,
            ids,
            messages_to_terminated,
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
        // Hashed floors + sparse map: far below the dense n² tables
        // even at this tiny n once both structures are hashed.
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
        // Probe class, and the transcript must exclude the current message.
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
        let first = std::rc::Rc::new(std::cell::Cell::new(u64::MAX));
        let ok = std::rc::Rc::new(std::cell::Cell::new(true));
        let outcome = AsyncSimBuilder::new(6)
            .seed(3)
            .adversary(Box::new(Probe {
                first_transcript_total: first.clone(),
                classes_ok: ok.clone(),
            }))
            .build(Flood::new)
            .unwrap()
            .run()
            .unwrap();
        outcome.validate_explicit().unwrap();
        assert!(ok.get(), "default classify must tag everything Probe");
        assert_eq!(
            first.get(),
            0,
            "the very first observation must see an empty transcript"
        );
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
        // The second trial's reset parks the first trial's entries in the
        // recycling pool, which gains its spine capacity exactly once;
        // from there the footprint must be a fixed point.
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
    fn stale_retry_timers_do_not_inflate_time() {
        // A clean reliable run still arms one timer per transmission; the
        // timers fire long after quiescence of useful work and must not
        // count toward the reported time complexity.
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

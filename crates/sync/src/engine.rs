//! The synchronous round engine.

use std::any::Any;

use clique_model::ids::{Id, IdAssignment, IdSpace};
use clique_model::metrics::MessageStats;
use clique_model::ports::{Endpoint, PortBackend, PortMap, PortResolver, RandomResolver};
use clique_model::prof::{self, Phase};
use clique_model::rng::{derive_seed, rng_from_seed};
use clique_model::trace::{At, TraceEvent, TraceSink, Tracer, ALL_CLASSES};
use clique_model::{Decision, ModelError, NodeIndex, Topology};
use rand::rngs::SmallRng;

use crate::node::{Context, Received, SyncNode, WakeCause};
use crate::observer::{NullObserver, Observer};
use crate::outcome::{HaltReason, Outcome};
use crate::wakeup::WakeSchedule;

/// Seed stream tags, so every consumer of randomness gets an independent
/// deterministic stream derived from the master seed.
const STREAM_RESOLVER: u64 = u64::MAX;
const STREAM_IDS: u64 = u64::MAX - 1;
const STREAM_NODE_BASE: u64 = 0;

/// Reusable simulation state for repeated trials: the `Θ(n²)` [`PortMap`],
/// the per-node arena inboxes, the flattened wake plan, the outbox, and
/// the engine's per-round worklists.
///
/// Constructing a `SyncSim` from scratch pays the dense `PortMap`
/// allocation and initialization every trial (~0.1–0.2 s at `n = 4096`),
/// which dominates Monte-Carlo sweeps that run hundreds of short trials.
/// Build through [`SyncSimBuilder::build_in`] and finish with
/// [`SyncSim::run_reusing`] instead, and consecutive trials at the same `n`
/// recycle the map via [`PortMap::reset`] (O(touched-state)) plus every
/// per-node buffer — with **bit-identical outcomes**: a reset map is
/// observationally equal to a fresh one, and node RNGs are re-seeded per
/// trial.
///
/// One arena serves any mix of algorithms and network sizes: the port map
/// is message-type-agnostic and survives algorithm changes; the typed
/// buffers are recycled whenever the message type matches the previous
/// trial and cheaply rebuilt (they are O(n)) when it does not. A size
/// change rebuilds the map.
///
/// ```
/// use clique_model::{Decision, Id};
/// use clique_sync::{Context, Received, SyncArena, SyncNode, SyncSimBuilder};
/// # struct Quiet { decision: Decision }
/// # impl SyncNode for Quiet {
/// #     type Message = ();
/// #     fn send_phase(&mut self, _ctx: &mut Context<'_, ()>) { self.decision = Decision::Leader; }
/// #     fn receive_phase(&mut self, _: &mut Context<'_, ()>, _: &[Received<()>]) {}
/// #     fn decision(&self) -> Decision { self.decision }
/// # }
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut arena = SyncArena::new();
/// for seed in 0..100 {
///     let outcome = SyncSimBuilder::new(64)
///         .seed(seed)
///         .build_in(&mut arena, |_, _| Quiet { decision: Decision::Undecided })?
///         .run_reusing(&mut arena)?;
///     assert_eq!(outcome.awake_count(), 64);
/// }
/// # Ok(())
/// # }
/// ```
#[derive(Default)]
pub struct SyncArena {
    ports: Option<PortMap>,
    wake_plan: Vec<(usize, Vec<NodeIndex>)>,
    work: Worklists,
    // `+ Send` keeps the whole arena `Send`, so sweep worker threads can
    // own recycled arenas (message types are `Send` by trait bound).
    buffers: Option<Box<dyn Any + Send>>,
}

impl SyncArena {
    /// Creates an empty arena; the first trial populates it.
    pub fn new() -> Self {
        SyncArena::default()
    }

    /// Drops all recycled state, releasing the `Θ(n²)` tables immediately
    /// (useful between sweep cells at very large `n`).
    pub fn clear(&mut self) {
        *self = SyncArena::default();
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
    /// engine tables (currently the port map — the only state whose size
    /// depends on the storage backend). The sweep harness records this per
    /// cell so dense-vs-sparse footprints appear in every experiment CSV.
    pub fn resident_bytes(&self) -> u64 {
        self.ports.as_ref().map_or(0, PortMap::resident_bytes)
    }
}

impl std::fmt::Debug for SyncArena {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SyncArena")
            .field("ports", &self.ports.as_ref().map(|p| p.n()))
            .field("has_buffers", &self.buffers.is_some())
            .finish()
    }
}

/// The message-typed recyclable buffers of a [`SyncArena`], stored
/// type-erased so one arena serves algorithms with different message types.
struct SyncBuffers<M> {
    pending: Vec<Vec<Received<M>>>,
    inbox: Vec<Received<M>>,
    outbox: Vec<(clique_model::ports::Port, M)>,
}

impl<M> Default for SyncBuffers<M> {
    fn default() -> Self {
        SyncBuffers {
            pending: Vec::new(),
            inbox: Vec::new(),
            outbox: Vec::new(),
        }
    }
}

/// The node indices a round visits. A round costs O(active nodes +
/// messages) because the engine walks these lists, never `0..n`, and
/// it walks each in ascending order, so inbox order (sender order) and
/// the order of observer and trace events are those of a full scan.
#[derive(Debug, Default)]
struct Worklists {
    /// Ascending: the nodes whose send phase runs this round. Between
    /// rounds it holds the awake, unterminated nodes that are not
    /// [`SyncNode::is_idle`]; the wake phase merges in its wake-ups.
    poll: Vec<usize>,
    /// Per node, the last round whose poll list held it (0: none).
    polled_in: Vec<usize>,
    /// This round's adversarial wake-ups.
    woken: Vec<usize>,
    /// This round's mail recipients that are not on the poll list, in
    /// order of first arrival.
    mail: Vec<usize>,
    /// Ascending: `poll` merged with `mail`, the nodes whose hooks may
    /// have run this round.
    active: Vec<usize>,
}

impl Worklists {
    /// Empties the lists and sizes the stamps for `n` fresh nodes.
    fn reset(&mut self, n: usize) {
        self.poll.clear();
        self.polled_in.clear();
        self.polled_in.resize(n, 0);
        self.woken.clear();
        self.mail.clear();
        self.active.clear();
    }
}

/// Writes the union of the disjoint ascending runs `a` and `b` into
/// `out`, ascending. Each element of the shorter run is placed by binary
/// search and the longer run is copied a slice at a time, so merging a
/// few nodes into a long poll list costs little more than a copy.
fn merge_ascending<'a>(mut a: &'a [usize], mut b: &'a [usize], out: &mut Vec<usize>) {
    if a.len() < b.len() {
        std::mem::swap(&mut a, &mut b);
    }
    out.clear();
    for &x in b {
        let cut = a.partition_point(|&y| y < x);
        out.extend_from_slice(&a[..cut]);
        a = &a[cut..];
        debug_assert_ne!(a.first(), Some(&x), "node {x} is on both runs");
        out.push(x);
    }
    out.extend_from_slice(a);
}

/// Configures and constructs a [`SyncSim`].
///
/// Obtained from [`SyncSimBuilder::new`]. All settings have defaults:
/// master seed 0, quasilinear ID universe (randomly assigned), simultaneous
/// wake-up, uniform random port resolution, and a round cap of `4n + 64`.
pub struct SyncSimBuilder {
    n: usize,
    seed: u64,
    ids: Option<IdAssignment>,
    wake: Option<WakeSchedule>,
    resolver: Option<Box<dyn PortResolver>>,
    backend: Option<PortBackend>,
    topology: Option<Topology>,
    max_rounds: Option<usize>,
    trace: Option<Box<dyn TraceSink>>,
    lean_stats: bool,
}

impl std::fmt::Debug for SyncSimBuilder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SyncSimBuilder")
            .field("n", &self.n)
            .field("seed", &self.seed)
            .field("ids", &self.ids.as_ref().map(|a| a.len()))
            .field("wake", &self.wake)
            .field("max_rounds", &self.max_rounds)
            .finish_non_exhaustive()
    }
}

impl SyncSimBuilder {
    /// Starts configuring a simulation of an `n`-node clique.
    pub fn new(n: usize) -> Self {
        SyncSimBuilder {
            n,
            seed: 0,
            ids: None,
            wake: None,
            resolver: None,
            backend: None,
            topology: None,
            max_rounds: None,
            trace: None,
            lean_stats: false,
        }
    }

    /// Sets the master seed; everything (IDs, port mapping, node coins) is a
    /// deterministic function of it and the other settings.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Uses an explicit ID assignment instead of sampling one.
    pub fn ids(mut self, ids: IdAssignment) -> Self {
        self.ids = Some(ids);
        self
    }

    /// Sets the wake-up schedule (default: simultaneous).
    pub fn wake(mut self, wake: WakeSchedule) -> Self {
        self.wake = Some(wake);
        self
    }

    /// Sets the port resolution strategy (default: [`RandomResolver`]).
    pub fn resolver(mut self, resolver: Box<dyn PortResolver>) -> Self {
        self.resolver = Some(resolver);
        self
    }

    /// Pins the port-map storage backend (default: the `LE_BACKEND`
    /// environment selection, which is `auto` when unset — dense tables
    /// while they fit the budget, sparse touched-state tables beyond; see
    /// [`PortBackend`]).
    ///
    /// RNG-free resolvers resolve identically on both backends; under
    /// [`RandomResolver`] the backends draw different, identically
    /// distributed mappings per seed.
    pub fn backend(mut self, backend: PortBackend) -> Self {
        self.backend = Some(backend);
        self
    }

    /// Pins the communication graph (default: the `LE_TOPOLOGY`
    /// environment selection, which is the clique when unset). The
    /// topology's node count must equal the builder's `n`.
    ///
    /// On the clique the port map keeps its dense or sparse tables; on
    /// any other topology ports are degree-indexed (`0..deg(v)` per
    /// node) and served by the graph store.
    pub fn topology(mut self, topology: Topology) -> Self {
        self.topology = Some(topology);
        self
    }

    /// Sets the round cap guarding against non-terminating algorithms
    /// (default `4n + 64`).
    pub fn max_rounds(mut self, max_rounds: usize) -> Self {
        self.max_rounds = Some(max_rounds);
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
    pub fn build<N, F>(self, factory: F) -> Result<SyncSim<N>, ModelError>
    where
        N: SyncNode,
        N::Message: 'static,
        F: FnMut(Id, usize) -> N,
    {
        self.build_in(&mut SyncArena::new(), factory)
    }

    /// Instantiates the simulation like [`SyncSimBuilder::build`], but
    /// recycles the `Θ(n²)` port map and all per-node buffers held by
    /// `arena` instead of allocating fresh ones, turning repeated trials
    /// from O(n²) into O(touched-state) each. Pair with
    /// [`SyncSim::run_reusing`] to return the state to the arena
    /// afterwards. The execution is identical to a freshly built one.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError`] if `n < 2`, the default ID universe cannot
    /// cover `n` nodes, or the wake schedule names a node outside the
    /// network ([`ModelError::NodeOutOfRange`]).
    pub fn build_in<N, F>(
        self,
        arena: &mut SyncArena,
        mut factory: F,
    ) -> Result<SyncSim<N>, ModelError>
    where
        N: SyncNode,
        N::Message: 'static,
        F: FnMut(Id, usize) -> N,
    {
        let _build = prof::span(Phase::Build);
        let n = self.n;
        if n < 2 {
            return Err(ModelError::NetworkTooSmall { n });
        }
        let stages = self.wake.iter().flat_map(|w| w.stages());
        if let Some(&node) = stages.flat_map(|(_, v)| v).find(|v| v.0 >= n) {
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
        let ports = arena.take_ports(&topo, self.backend.unwrap_or_else(PortBackend::from_env))?;
        let mut bufs: SyncBuffers<N::Message> = arena
            .buffers
            .take()
            .and_then(|b| b.downcast::<SyncBuffers<N::Message>>().ok())
            .map_or_else(SyncBuffers::default, |b| *b);
        for pending in &mut bufs.pending {
            pending.clear();
        }
        bufs.pending.truncate(n);
        let missing = n - bufs.pending.len();
        bufs.pending.extend((0..missing).map(|_| Vec::new()));
        bufs.inbox.clear();
        bufs.outbox.clear();
        bufs.outbox.reserve(n - 1);
        let nodes: Vec<N> = ids.as_slice().iter().map(|&id| factory(id, n)).collect();
        let node_rngs: Vec<SmallRng> = (0..n)
            .map(|u| rng_from_seed(derive_seed(self.seed, STREAM_NODE_BASE + u as u64)))
            .collect();
        // Flatten the wake schedule into a cursor-driven plan so the round
        // loop never performs a map lookup; the plan's buffers (outer and
        // inner) are recycled through the arena.
        let wake = self.wake.unwrap_or_else(|| WakeSchedule::simultaneous(n));
        let mut wake_plan = std::mem::take(&mut arena.wake_plan);
        let mut stages = 0;
        for (round, woken) in wake.stages() {
            if let Some(slot) = wake_plan.get_mut(stages) {
                slot.0 = round;
                slot.1.clear();
                slot.1.extend_from_slice(woken);
            } else {
                wake_plan.push((round, woken.to_vec()));
            }
            stages += 1;
        }
        wake_plan.truncate(stages);
        let mut work = std::mem::take(&mut arena.work);
        work.reset(n);
        let tracer = match self.trace {
            Some(sink) => Tracer::with_sink(sink, ALL_CLASSES),
            None => Tracer::from_env(),
        };
        let stats = if self.lean_stats {
            MessageStats::new_lean(n)
        } else {
            MessageStats::new(n)
        };
        Ok(SyncSim {
            n,
            round: 0,
            ids,
            nodes,
            node_rngs,
            ports,
            resolver: self.resolver.unwrap_or_else(|| Box::new(RandomResolver)),
            resolver_rng: rng_from_seed(derive_seed(self.seed, STREAM_RESOLVER)),
            wake_plan,
            wake_cursor: 0,
            max_rounds: self.max_rounds.unwrap_or(4 * n + 64),
            awake: vec![false; n],
            live: 0,
            work,
            stats,
            tracer,
            pending: bufs.pending,
            inbox: bufs.inbox,
            outbox: bufs.outbox,
            last_decisions: vec![Decision::Undecided; n],
            messages_to_terminated: 0,
            last_activity_round: 0,
        })
    }
}

/// A synchronous execution in progress.
///
/// Drive it with [`SyncSim::run`] (to quiescence) or [`SyncSim::step`]
/// (round by round, e.g. for lower-bound experiments that truncate
/// executions).
pub struct SyncSim<N: SyncNode> {
    n: usize,
    round: usize,
    ids: IdAssignment,
    nodes: Vec<N>,
    node_rngs: Vec<SmallRng>,
    ports: PortMap,
    resolver: Box<dyn PortResolver>,
    resolver_rng: SmallRng,
    /// Adversarial wake-ups, sorted by round, consumed by `wake_cursor`.
    wake_plan: Vec<(usize, Vec<NodeIndex>)>,
    wake_cursor: usize,
    max_rounds: usize,
    awake: Vec<bool>,
    /// Awake, unterminated nodes; the run is quiescent once this is zero
    /// and no wake-ups remain.
    live: usize,
    work: Worklists,
    stats: MessageStats,
    /// Structured event tracing (disabled path: one `bool` load per site).
    tracer: Tracer,
    /// Per-node arena inboxes, filled during the send phase. Allocated once
    /// at build; each buffer is recycled (cleared, never dropped) every
    /// round via a swap with `inbox`.
    pending: Vec<Vec<Received<N::Message>>>,
    /// The double buffer a node's pending inbox is swapped into while the
    /// receive phase borrows it alongside the node's mutable state.
    inbox: Vec<Received<N::Message>>,
    outbox: Vec<(clique_model::ports::Port, N::Message)>,
    last_decisions: Vec<Decision>,
    messages_to_terminated: u64,
    last_activity_round: usize,
}

impl<N: SyncNode> std::fmt::Debug for SyncSim<N> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SyncSim")
            .field("n", &self.n)
            .field("round", &self.round)
            .field("messages", &self.stats.total())
            .finish_non_exhaustive()
    }
}

impl<N: SyncNode> SyncSim<N> {
    /// The current round (0 before the first step).
    pub fn round(&self) -> usize {
        self.round
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

    /// Runs to quiescence (or the round cap) without observation.
    ///
    /// # Errors
    ///
    /// Propagates [`ModelError`] from port resolution (only possible with a
    /// faulty custom resolver).
    pub fn run(self) -> Result<Outcome, ModelError> {
        let mut obs = NullObserver;
        self.run_observed(&mut obs)
    }

    /// Runs to quiescence (or the round cap) reporting events to `observer`.
    ///
    /// # Errors
    ///
    /// Propagates [`ModelError`] from port resolution.
    pub fn run_observed(mut self, observer: &mut dyn Observer) -> Result<Outcome, ModelError> {
        let halt = self.drive(observer)?;
        Ok(self.into_outcome(halt))
    }

    /// The shared round loop of [`SyncSim::run_observed`] and
    /// [`SyncSim::run_observed_reusing`]: steps until quiescence or the
    /// round cap and reports which one halted the run.
    fn drive(&mut self, observer: &mut dyn Observer) -> Result<HaltReason, ModelError> {
        let _run = prof::span(Phase::Run);
        while self.round < self.max_rounds {
            if !self.step(observer)? {
                return Ok(HaltReason::Quiescent);
            }
        }
        Ok(HaltReason::MaxRounds)
    }

    /// Runs to quiescence (or the round cap) like [`SyncSim::run`], then
    /// returns the recyclable state — the port map, arena inboxes, outbox,
    /// wake plan and worklists — to `arena` for the next trial instead of
    /// dropping it. The outcome is identical to [`SyncSim::run`]'s.
    ///
    /// # Errors
    ///
    /// Propagates [`ModelError`] from port resolution (only possible with a
    /// faulty custom resolver).
    pub fn run_reusing(self, arena: &mut SyncArena) -> Result<Outcome, ModelError>
    where
        N::Message: 'static,
    {
        let mut obs = NullObserver;
        self.run_observed_reusing(&mut obs, arena)
    }

    /// [`SyncSim::run_observed`], recycling state through `arena` like
    /// [`SyncSim::run_reusing`].
    ///
    /// # Errors
    ///
    /// Propagates [`ModelError`] from port resolution.
    pub fn run_observed_reusing(
        mut self,
        observer: &mut dyn Observer,
        arena: &mut SyncArena,
    ) -> Result<Outcome, ModelError>
    where
        N::Message: 'static,
    {
        let halt = self.drive(observer)?;
        Ok(self.into_outcome_reusing(halt, arena))
    }

    /// Executes one full round; returns `false` once the execution is
    /// quiescent (no awake unterminated node remains and no wake-ups are
    /// pending).
    ///
    /// The round visits only the nodes on its worklists: this round's
    /// wake-ups, the nodes to poll, and this round's mail recipients. It
    /// costs O(active nodes + messages), not Θ(n); nodes that report
    /// [`SyncNode::is_idle`] and receive no mail are skipped.
    ///
    /// # Errors
    ///
    /// Propagates [`ModelError`] from port resolution.
    pub fn step(&mut self, observer: &mut dyn Observer) -> Result<bool, ModelError> {
        self.round += 1;
        let round = self.round;

        // Phase 1: adversarial wake-ups scheduled for this round. The plan
        // is sorted and rounds advance one at a time, so a single cursor
        // replaces the per-round schedule lookup.
        if self
            .wake_plan
            .get(self.wake_cursor)
            .is_some_and(|&(r, _)| r == round)
        {
            let (_, woken) = &self.wake_plan[self.wake_cursor];
            for &u in woken {
                if !self.awake[u.0] {
                    self.awake[u.0] = true;
                    self.live += 1;
                    self.work.woken.push(u.0);
                    self.work.polled_in[u.0] = round;
                    let mut outbox = std::mem::take(&mut self.outbox);
                    let mut ctx = Context {
                        id: self.ids.id_of(u),
                        n: self.n,
                        ports: self.ports.ports_of(u),
                        round,
                        rng: &mut self.node_rngs[u.0],
                        outbox: &mut outbox,
                        sends_allowed: false,
                    };
                    self.nodes[u.0].on_wake(&mut ctx, WakeCause::Adversary);
                    self.outbox = outbox;
                    observer.on_wake(round, u, WakeCause::Adversary);
                    if self.tracer.enabled() {
                        self.tracer.emit(TraceEvent::Wake {
                            at: At::Round(round as u32),
                            node: u.0 as u32,
                            cause: WakeCause::Adversary,
                        });
                    }
                    self.last_activity_round = round;
                }
            }
            self.wake_cursor += 1;
            // Freshly woken nodes send this round, idle or not.
            let work = &mut self.work;
            work.woken.sort_unstable();
            merge_ascending(&work.poll, &work.woken, &mut work.active);
            std::mem::swap(&mut work.poll, &mut work.active);
            work.woken.clear();
        }

        // Phase 2: send phase for the polled nodes, in ascending order.
        for i in 0..self.work.poll.len() {
            self.send_from(self.work.poll[i], round, observer)?;
        }

        // Every node whose hooks may run this round: the senders plus the
        // other mail recipients, ascending.
        let work = &mut self.work;
        if work.mail.is_empty() {
            std::mem::swap(&mut work.poll, &mut work.active);
        } else {
            work.mail.sort_unstable();
            merge_ascending(&work.poll, &work.mail, &mut work.active);
            work.mail.clear();
        }
        work.poll.clear();

        // Phase 3: receive phase; asleep nodes with mail wake up. Each
        // node's pending buffer is swapped into the `inbox` double buffer
        // for the duration of the call and swapped back cleared, so no
        // buffer is ever dropped or re-allocated. Every listed node runs
        // its receive phase, even one that turned idle in this round's
        // send phase: `is_idle` is consulted only at the end of a round.
        for &v in &self.work.active {
            if self.nodes[v].is_terminated() {
                // A node that terminated during this round's send phase may
                // still have mail queued from earlier senders; swallow it
                // (legacy behavior: the taken buffer was dropped).
                self.messages_to_terminated += self.pending[v].len() as u64;
                self.pending[v].clear();
                continue;
            }
            // Polled nodes are awake, so an asleep one is here for its mail.
            let woke_by_message = !self.awake[v];
            debug_assert!(!woke_by_message || !self.pending[v].is_empty());
            std::mem::swap(&mut self.pending[v], &mut self.inbox);
            let mut outbox = std::mem::take(&mut self.outbox);
            {
                let mut ctx = Context {
                    id: self.ids.id_of(NodeIndex(v)),
                    n: self.n,
                    ports: self.ports.ports_of(NodeIndex(v)),
                    round,
                    rng: &mut self.node_rngs[v],
                    outbox: &mut outbox,
                    sends_allowed: false,
                };
                if woke_by_message {
                    self.awake[v] = true;
                    self.live += 1;
                    self.nodes[v].on_wake(&mut ctx, WakeCause::Message);
                    observer.on_wake(round, NodeIndex(v), WakeCause::Message);
                    if self.tracer.enabled() {
                        self.tracer.emit(TraceEvent::Wake {
                            at: At::Round(round as u32),
                            node: v as u32,
                            cause: WakeCause::Message,
                        });
                    }
                    self.last_activity_round = round;
                }
                self.nodes[v].receive_phase(&mut ctx, &self.inbox);
            }
            self.outbox = outbox;
            self.inbox.clear();
            std::mem::swap(&mut self.pending[v], &mut self.inbox);
        }

        // Decisions and termination change only inside hooks, so the
        // active nodes are the only ones to check: track decision changes
        // (enforcing irrevocability), retire terminated nodes, and queue
        // next round's poll list. Every active node is awake by now.
        for &u in &self.work.active {
            let node = &self.nodes[u];
            let d = node.decision();
            if d != self.last_decisions[u] {
                assert!(
                    !self.last_decisions[u].is_decided(),
                    "node {u} revoked its decision ({:?} -> {d:?})",
                    self.last_decisions[u]
                );
                self.last_decisions[u] = d;
                observer.on_decision(round, NodeIndex(u), d);
                if self.tracer.enabled() {
                    self.tracer.emit(TraceEvent::Decide {
                        at: At::Round(round as u32),
                        node: u as u32,
                        leader: d == Decision::Leader,
                    });
                }
                self.last_activity_round = round;
            }
            if node.is_terminated() {
                self.live -= 1;
            } else if !node.is_idle() {
                self.work.poll.push(u);
                self.work.polled_in[u] = round + 1;
            }
        }

        observer.on_round_end(round);
        if self.tracer.enabled() {
            self.tracer.emit(TraceEvent::Round {
                round: round as u32,
                msgs: self.stats.total(),
            });
        }

        let pending_wakes = self.wake_cursor < self.wake_plan.len();
        Ok(pending_wakes || self.live > 0)
    }

    /// Runs `u`'s send phase, if it has not terminated, and routes its
    /// outbox: each message is resolved, counted, and queued in the
    /// recipient's pending inbox, or swallowed if the recipient has
    /// terminated. A recipient off the poll list goes on the mail list
    /// with its first message of the round.
    fn send_from(
        &mut self,
        u: usize,
        round: usize,
        observer: &mut dyn Observer,
    ) -> Result<(), ModelError> {
        if self.nodes[u].is_terminated() {
            return Ok(());
        }
        let mut outbox = std::mem::take(&mut self.outbox);
        outbox.clear();
        {
            let mut ctx = Context {
                id: self.ids.id_of(NodeIndex(u)),
                n: self.n,
                ports: self.ports.ports_of(NodeIndex(u)),
                round,
                rng: &mut self.node_rngs[u],
                outbox: &mut outbox,
                sends_allowed: true,
            };
            self.nodes[u].send_phase(&mut ctx);
        }
        for (port, msg) in outbox.drain(..) {
            let dst = self.ports.resolve(
                NodeIndex(u),
                port,
                self.resolver.as_mut(),
                &mut self.resolver_rng,
            )?;
            self.stats.record(round, NodeIndex(u));
            self.last_activity_round = round;
            observer.on_message(
                round,
                Endpoint {
                    node: NodeIndex(u),
                    port,
                },
                dst,
            );
            if self.tracer.enabled() {
                let at = At::Round(round as u32);
                self.tracer.emit(TraceEvent::Send {
                    at,
                    src: u as u32,
                    port: port.0 as u32,
                    dst: dst.node.0 as u32,
                    cls: None,
                });
                // Synchronous delivery lands in the same round; mail to
                // a terminated node is swallowed, not delivered.
                if !self.nodes[dst.node.0].is_terminated() {
                    self.tracer.emit(TraceEvent::Deliver {
                        at,
                        src: u as u32,
                        dst: dst.node.0 as u32,
                        cls: None,
                    });
                }
            }
            if self.nodes[dst.node.0].is_terminated() {
                self.messages_to_terminated += 1;
            } else {
                let pending = &mut self.pending[dst.node.0];
                if pending.is_empty() && self.work.polled_in[dst.node.0] != round {
                    self.work.mail.push(dst.node.0);
                }
                pending.push(Received {
                    port: dst.port,
                    msg,
                });
            }
        }
        self.outbox = outbox;
        Ok(())
    }

    /// Emits the end-of-run trace events — the topology metadata record,
    /// the backend counter snapshot, and the halt record — and finishes the
    /// tracer (flushing a boxed sink or
    /// submitting the buffered env-trace block to the collector).
    fn finish_trace(&mut self, halt: HaltReason) {
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
                at: At::Round(self.round as u32),
                msgs: self.stats.total(),
                reason: match halt {
                    HaltReason::Quiescent => "quiescent",
                    HaltReason::MaxRounds => "max_rounds",
                },
            });
        }
        self.tracer.finish();
    }

    /// Consumes the simulation into its measurable [`Outcome`].
    pub fn into_outcome(mut self, halt: HaltReason) -> Outcome {
        self.finish_trace(halt);
        Outcome {
            n: self.n,
            rounds: self.last_activity_round,
            stats: self.stats,
            decisions: self.last_decisions,
            awake: self.awake,
            ids: self.ids,
            messages_to_terminated: self.messages_to_terminated,
            halt,
        }
    }

    /// [`SyncSim::into_outcome`], stashing the recyclable state into
    /// `arena` on the way out.
    pub fn into_outcome_reusing(mut self, halt: HaltReason, arena: &mut SyncArena) -> Outcome
    where
        N::Message: 'static,
    {
        let _reset = prof::span(Phase::Reset);
        self.finish_trace(halt);
        let SyncSim {
            n,
            ids,
            ports,
            wake_plan,
            work,
            mut pending,
            mut inbox,
            mut outbox,
            stats,
            last_decisions,
            awake,
            messages_to_terminated,
            last_activity_round,
            ..
        } = self;
        for buf in &mut pending {
            buf.clear();
        }
        inbox.clear();
        outbox.clear();
        arena.ports = Some(ports);
        arena.wake_plan = wake_plan;
        arena.work = work;
        arena.buffers = Some(Box::new(SyncBuffers {
            pending,
            inbox,
            outbox,
        }));
        Outcome {
            n,
            rounds: last_activity_round,
            stats,
            decisions: last_decisions,
            awake,
            ids,
            messages_to_terminated,
            halt,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::Received;
    use crate::observer::RecordingObserver;
    use clique_model::ports::Port;

    #[test]
    fn arena_is_send() {
        // Sweep workers own recycled arenas; if a field regresses to a
        // non-Send type this fails to compile, not at runtime.
        fn assert_send<T: Send>() {}
        assert_send::<SyncArena>();
    }

    /// Elects the max ID by full broadcast in round 1.
    struct MaxBroadcast {
        me: Id,
        best: Id,
        decision: Decision,
    }

    impl SyncNode for MaxBroadcast {
        type Message = Id;
        fn send_phase(&mut self, ctx: &mut Context<'_, Id>) {
            if ctx.round() == 1 {
                for p in ctx.all_ports() {
                    ctx.send(p, self.me);
                }
            }
        }
        fn receive_phase(&mut self, ctx: &mut Context<'_, Id>, inbox: &[Received<Id>]) {
            for m in inbox {
                self.best = self.best.max(m.msg);
            }
            if ctx.round() == 1 {
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

    fn max_broadcast(id: Id, _n: usize) -> MaxBroadcast {
        MaxBroadcast {
            me: id,
            best: id,
            decision: Decision::Undecided,
        }
    }

    #[test]
    fn broadcast_elects_max_in_one_round() {
        let outcome = SyncSimBuilder::new(16)
            .seed(3)
            .build(max_broadcast)
            .unwrap()
            .run()
            .unwrap();
        outcome.validate_explicit().unwrap();
        assert_eq!(outcome.rounds, 1);
        assert_eq!(outcome.stats.total(), 16 * 15);
        let leader = outcome.unique_leader().unwrap();
        assert_eq!(outcome.ids.id_of(leader), outcome.ids.max_id());
        assert_eq!(outcome.halt, HaltReason::Quiescent);
    }

    #[test]
    fn executions_are_deterministic_per_seed() {
        let run = |seed| {
            let o = SyncSimBuilder::new(12)
                .seed(seed)
                .build(max_broadcast)
                .unwrap()
                .run()
                .unwrap();
            (o.rounds, o.stats.total(), o.unique_leader())
        };
        assert_eq!(run(5), run(5));
    }

    /// A node that wakes on a message and forwards one message over a fresh
    /// port (one past the port it received on) the next round, then halts.
    /// Used to test wake propagation.
    struct Relay {
        hops_left: u32,
        send_port: Port,
        should_forward: bool,
        decision: Decision,
    }

    impl SyncNode for Relay {
        type Message = u32;
        fn on_wake(&mut self, _ctx: &mut Context<'_, u32>, cause: WakeCause) {
            if cause == WakeCause::Adversary {
                self.should_forward = true;
                self.hops_left = 3;
                self.send_port = Port(0);
            }
        }
        fn send_phase(&mut self, ctx: &mut Context<'_, u32>) {
            if self.should_forward {
                if self.hops_left > 0 {
                    ctx.send(self.send_port, self.hops_left - 1);
                }
                self.should_forward = false;
                self.decision = Decision::Leader; // decide to halt (content irrelevant)
            }
        }
        fn receive_phase(&mut self, _ctx: &mut Context<'_, u32>, inbox: &[Received<u32>]) {
            for m in inbox {
                self.should_forward = true;
                self.hops_left = m.msg;
                // Forward over a port we have definitely not used: the one
                // after the port the message arrived on.
                self.send_port = Port(m.port.0 + 1);
            }
        }
        fn decision(&self) -> Decision {
            self.decision
        }
        fn is_terminated(&self) -> bool {
            self.decision.is_decided() && !self.should_forward
        }
    }

    #[test]
    fn message_wakeups_propagate_round_by_round() {
        let outcome = SyncSimBuilder::new(8)
            .seed(1)
            .wake(WakeSchedule::single(NodeIndex(0)))
            .resolver(Box::new(clique_model::ports::RoundRobinResolver))
            .build(|_, _| Relay {
                hops_left: 0,
                send_port: Port(0),
                should_forward: false,
                decision: Decision::Undecided,
            })
            .unwrap()
            .run()
            .unwrap();
        // Chain: adversary wakes node in round 1, it sends in round 1;
        // receiver wakes at end of round 1, sends in round 2; etc.
        // hops 3, 2, 1 then the last message carries 0 and stops.
        assert_eq!(outcome.stats.total(), 3);
        assert_eq!(outcome.awake_count(), 4); // origin + 3 woken by message
        assert_eq!(outcome.rounds, 4);
    }

    /// A node that never decides but also never sends — the engine must not
    /// spin forever.
    struct Stubborn;
    impl SyncNode for Stubborn {
        type Message = ();
        fn send_phase(&mut self, _ctx: &mut Context<'_, ()>) {}
        fn receive_phase(&mut self, _ctx: &mut Context<'_, ()>, _inbox: &[Received<()>]) {}
        fn decision(&self) -> Decision {
            Decision::Undecided
        }
    }

    #[test]
    fn round_cap_halts_stubborn_algorithms() {
        let outcome = SyncSimBuilder::new(4)
            .max_rounds(10)
            .build(|_, _| Stubborn)
            .unwrap()
            .run()
            .unwrap();
        assert_eq!(outcome.halt, HaltReason::MaxRounds);
        assert!(outcome.validate_implicit().is_err());
    }

    #[test]
    fn asleep_nodes_never_activate() {
        // Node 0 wakes and immediately terminates without sending: everyone
        // else must stay asleep, and the run is quiescent after round 1.
        struct Quit {
            decision: Decision,
        }
        impl SyncNode for Quit {
            type Message = ();
            fn send_phase(&mut self, _ctx: &mut Context<'_, ()>) {
                self.decision = Decision::Leader;
            }
            fn receive_phase(&mut self, _ctx: &mut Context<'_, ()>, _inbox: &[Received<()>]) {}
            fn decision(&self) -> Decision {
                self.decision
            }
        }
        let outcome = SyncSimBuilder::new(6)
            .wake(WakeSchedule::single(NodeIndex(2)))
            .build(|_, _| Quit {
                decision: Decision::Undecided,
            })
            .unwrap()
            .run()
            .unwrap();
        assert_eq!(outcome.awake_count(), 1);
        assert_eq!(outcome.stats.total(), 0);
        assert_eq!(outcome.halt, HaltReason::Quiescent);
        assert_eq!(outcome.rounds, 1);
    }

    #[test]
    fn staged_wakeups_fire_later() {
        let outcome = SyncSimBuilder::new(6)
            .wake(WakeSchedule::staged(vec![
                (1, vec![NodeIndex(0)]),
                (3, vec![NodeIndex(1)]),
            ]))
            .build(max_broadcast)
            .unwrap()
            .run()
            .unwrap();
        // Node 0 broadcasts in its round 1 and wakes everyone; node 1 is
        // already awake by message before its scheduled round-3 wake, which
        // must therefore be a no-op.
        assert!(outcome.awake_count() == 6);
    }

    #[test]
    fn builder_rejects_tiny_network() {
        assert!(matches!(
            SyncSimBuilder::new(1).build(max_broadcast),
            Err(ModelError::NetworkTooSmall { n: 1 })
        ));
        assert!(matches!(
            SyncSimBuilder::new(0).build_in(&mut SyncArena::new(), max_broadcast),
            Err(ModelError::NetworkTooSmall { n: 0 })
        ));
    }

    #[test]
    fn builder_rejects_a_wake_outside_the_network() {
        // Used to build, then index out of bounds in `step`.
        let late = WakeSchedule::staged(vec![(1, vec![NodeIndex(0)]), (3, vec![NodeIndex(7)])]);
        for (wake, node) in [(WakeSchedule::single(NodeIndex(4)), 4), (late, 7)] {
            let built = SyncSimBuilder::new(4)
                .wake(wake)
                .build_in(&mut SyncArena::new(), max_broadcast);
            assert_eq!(
                built.err(),
                Some(ModelError::NodeOutOfRange {
                    node: NodeIndex(node),
                    n: 4
                })
            );
        }
    }

    #[test]
    fn arena_trials_match_fresh_trials() {
        let fingerprint = |o: &Outcome| {
            (
                o.rounds,
                o.stats.total(),
                o.stats.rounds().to_vec(),
                o.unique_leader(),
                o.decisions.clone(),
                o.awake.clone(),
                o.halt,
            )
        };
        let mut arena = SyncArena::new();
        for seed in 0..12u64 {
            let fresh = SyncSimBuilder::new(16)
                .seed(seed)
                .build(max_broadcast)
                .unwrap()
                .run()
                .unwrap();
            let reused = SyncSimBuilder::new(16)
                .seed(seed)
                .build_in(&mut arena, max_broadcast)
                .unwrap()
                .run_reusing(&mut arena)
                .unwrap();
            assert_eq!(fingerprint(&fresh), fingerprint(&reused));
        }
    }

    #[test]
    fn arena_survives_size_and_message_type_changes() {
        let mut arena = SyncArena::new();
        for &n in &[8usize, 16, 8, 12] {
            let o = SyncSimBuilder::new(n)
                .seed(1)
                .build_in(&mut arena, max_broadcast)
                .unwrap()
                .run_reusing(&mut arena)
                .unwrap();
            assert_eq!(o.stats.total(), (n * (n - 1)) as u64);
        }
        // Different message type (Relay uses u32, MaxBroadcast uses Id):
        // the typed buffers are rebuilt, the port map is recycled.
        let o = SyncSimBuilder::new(12)
            .seed(1)
            .wake(WakeSchedule::single(NodeIndex(0)))
            .resolver(Box::new(clique_model::ports::RoundRobinResolver))
            .build_in(&mut arena, |_, _| Relay {
                hops_left: 0,
                send_port: Port(0),
                should_forward: false,
                decision: Decision::Undecided,
            })
            .unwrap()
            .run_reusing(&mut arena)
            .unwrap();
        assert_eq!(o.stats.total(), 3);
        arena.clear();
        let o = SyncSimBuilder::new(8)
            .seed(3)
            .build_in(&mut arena, max_broadcast)
            .unwrap()
            .run_reusing(&mut arena)
            .unwrap();
        assert_eq!(o.stats.total(), 8 * 7);
    }

    #[test]
    fn sparse_backend_matches_dense_under_rng_free_resolution() {
        // Round-robin resolution consumes no randomness, so the whole
        // execution — rounds, messages, decisions — must be identical on
        // both storage backends.
        let run = |backend| {
            let o = SyncSimBuilder::new(24)
                .seed(5)
                .backend(backend)
                .resolver(Box::new(clique_model::ports::RoundRobinResolver))
                .build(max_broadcast)
                .unwrap()
                .run()
                .unwrap();
            (
                o.rounds,
                o.stats.total(),
                o.unique_leader(),
                o.decisions,
                o.awake,
            )
        };
        assert_eq!(run(PortBackend::Dense), run(PortBackend::Sparse));
    }

    #[test]
    fn sparse_backend_arena_trials_match_fresh_sparse_trials() {
        let mut arena = SyncArena::new();
        for seed in 0..8u64 {
            let fresh = SyncSimBuilder::new(16)
                .seed(seed)
                .backend(PortBackend::Sparse)
                .build(max_broadcast)
                .unwrap()
                .run()
                .unwrap();
            let reused = SyncSimBuilder::new(16)
                .seed(seed)
                .backend(PortBackend::Sparse)
                .build_in(&mut arena, max_broadcast)
                .unwrap()
                .run_reusing(&mut arena)
                .unwrap();
            assert_eq!(
                (fresh.rounds, fresh.stats.total(), fresh.unique_leader()),
                (reused.rounds, reused.stats.total(), reused.unique_leader()),
            );
        }
        assert!(arena.resident_bytes() > 0);
    }

    #[test]
    fn arena_rebuilds_map_on_backend_change() {
        let mut arena = SyncArena::new();
        for backend in [
            PortBackend::Dense,
            PortBackend::Sparse,
            PortBackend::Dense,
            PortBackend::Auto, // resolves to Dense at this n — map recycled
        ] {
            let o = SyncSimBuilder::new(12)
                .seed(2)
                .backend(backend)
                .build_in(&mut arena, max_broadcast)
                .unwrap()
                .run_reusing(&mut arena)
                .unwrap();
            assert_eq!(o.stats.total(), 12 * 11);
        }
    }

    #[test]
    fn merge_interleaves_disjoint_runs_in_order() {
        let mut out = vec![99];
        merge_ascending(&[1, 4, 6, 9], &[0, 5, 10], &mut out);
        assert_eq!(out, vec![0, 1, 4, 5, 6, 9, 10]);
        merge_ascending(&[2, 3], &[], &mut out);
        assert_eq!(out, vec![2, 3]);
        merge_ascending(&[], &[5], &mut out);
        assert_eq!(out, vec![5]);
        merge_ascending(&[7], &[1, 2, 3], &mut out);
        assert_eq!(out, vec![1, 2, 3, 7]);
    }

    /// Hides `is_idle`, so the engine polls the wrapped node every round
    /// it is awake and unterminated.
    struct Polled<N>(N);

    impl<N: SyncNode> SyncNode for Polled<N> {
        type Message = N::Message;
        fn on_wake(&mut self, ctx: &mut Context<'_, N::Message>, cause: WakeCause) {
            self.0.on_wake(ctx, cause);
        }
        fn send_phase(&mut self, ctx: &mut Context<'_, N::Message>) {
            self.0.send_phase(ctx);
        }
        fn receive_phase(
            &mut self,
            ctx: &mut Context<'_, N::Message>,
            inbox: &[Received<N::Message>],
        ) {
            self.0.receive_phase(ctx, inbox);
        }
        fn decision(&self) -> Decision {
            self.0.decision()
        }
        fn is_terminated(&self) -> bool {
            self.0.is_terminated()
        }
    }

    /// Runs the simulation `builder` configures with `factory`'s nodes,
    /// and again with every node wrapped in [`Polled`]. Asserts that both
    /// runs produce the same outcome and the same observer events, and
    /// returns them.
    fn same_as_polled<N, F>(
        builder: impl Fn() -> SyncSimBuilder,
        factory: F,
    ) -> (Outcome, RecordingObserver)
    where
        N: SyncNode,
        N::Message: 'static,
        F: Fn(Id, usize) -> N + Copy,
    {
        let mut record = RecordingObserver::default();
        let outcome = builder()
            .build(factory)
            .unwrap()
            .run_observed(&mut record)
            .unwrap();
        let mut polled_record = RecordingObserver::default();
        let polled = builder()
            .build(|id, n| Polled(factory(id, n)))
            .unwrap()
            .run_observed(&mut polled_record)
            .unwrap();
        assert_eq!(format!("{outcome:?}"), format!("{polled:?}"));
        assert_eq!(format!("{record:?}"), format!("{polled_record:?}"));
        (outcome, record)
    }

    /// Passes hop-counted tokens around a ring: each token a node receives
    /// goes out over its other port next round until the count runs out.
    /// The node is idle whenever it holds no token, so between visits the
    /// engine skips it, and mail reaches it while it is awake and idle. It
    /// never decides.
    #[derive(Default)]
    struct Token {
        held: Vec<(Port, u32)>,
    }

    impl SyncNode for Token {
        type Message = u32;
        fn on_wake(&mut self, ctx: &mut Context<'_, u32>, cause: WakeCause) {
            if cause == WakeCause::Adversary {
                // Twice around the ring: 2n sends.
                self.held.push((Port(0), 2 * ctx.n() as u32 - 1));
            }
        }
        fn send_phase(&mut self, ctx: &mut Context<'_, u32>) {
            for (port, hops) in std::mem::take(&mut self.held) {
                ctx.send(port, hops);
            }
        }
        fn receive_phase(&mut self, _ctx: &mut Context<'_, u32>, inbox: &[Received<u32>]) {
            for m in inbox.iter().filter(|m| m.msg > 0) {
                self.held.push((Port(1 - m.port.0), m.msg - 1));
            }
        }
        fn decision(&self) -> Decision {
            Decision::Undecided
        }
        fn is_idle(&self) -> bool {
            self.held.is_empty()
        }
    }

    fn token_ring(n: usize) -> SyncSimBuilder {
        SyncSimBuilder::new(n)
            .topology(clique_model::Topology::ring(n).unwrap())
            .max_rounds(6 * n)
    }

    fn round_robin(n: usize) -> SyncSimBuilder {
        SyncSimBuilder::new(n).resolver(Box::new(clique_model::ports::RoundRobinResolver))
    }

    #[test]
    fn idle_nodes_wake_and_receive_by_message() {
        let (outcome, record) = same_as_polled(
            || token_ring(8).wake(WakeSchedule::single(NodeIndex(0))),
            |_, _| Token::default(),
        );
        // One hop a round. The first lap wakes the idle sleepers; the
        // second reaches them awake and idle.
        assert_eq!(outcome.stats.total(), 16);
        assert_eq!(outcome.rounds, 16);
        let message_wakes = record
            .wakes
            .iter()
            .filter(|w| w.2 == WakeCause::Message)
            .count();
        assert_eq!(message_wakes, 7);
        // Idle, undecided nodes keep the run alive to the cap.
        assert_eq!(outcome.halt, HaltReason::MaxRounds);
    }

    #[test]
    fn staged_wakeups_join_the_poll_list() {
        let (outcome, record) = same_as_polled(
            || {
                token_ring(8).wake(WakeSchedule::staged(vec![
                    (1, vec![NodeIndex(0)]),
                    (3, vec![NodeIndex(4)]),
                ]))
            },
            |_, _| Token::default(),
        );
        // Node 0's token has not reached node 4 when the adversary wakes
        // it in round 3; both tokens move in that round.
        assert!(record
            .wakes
            .contains(&(3, NodeIndex(4), WakeCause::Adversary)));
        assert_eq!(record.messages.iter().filter(|m| m.0 == 3).count(), 2);
        assert_eq!(outcome.stats.total(), 32);
        assert_eq!(outcome.halt, HaltReason::MaxRounds);
    }

    /// Sends on ports 3, 1 and 5 in the round the adversary wakes it and
    /// becomes leader; a node woken by mail becomes a non-leader.
    #[derive(Default)]
    struct Shout {
        shout: bool,
        decision: Decision,
    }

    impl SyncNode for Shout {
        type Message = ();
        fn on_wake(&mut self, _ctx: &mut Context<'_, ()>, cause: WakeCause) {
            self.shout = cause == WakeCause::Adversary;
        }
        fn send_phase(&mut self, ctx: &mut Context<'_, ()>) {
            if std::mem::take(&mut self.shout) {
                for p in [3, 1, 5] {
                    ctx.send(Port(p), ());
                }
                self.decision = Decision::Leader;
            }
        }
        fn receive_phase(&mut self, _ctx: &mut Context<'_, ()>, inbox: &[Received<()>]) {
            if !inbox.is_empty() && !self.decision.is_decided() {
                self.decision = Decision::NonLeader { leader: None };
            }
        }
        fn decision(&self) -> Decision {
            self.decision
        }
        fn is_idle(&self) -> bool {
            !self.shout
        }
    }

    #[test]
    fn events_come_in_node_order_not_arrival_order() {
        // Wake-ups listed out of order still send in node order...
        let (_, record) = same_as_polled(
            || round_robin(8).wake(WakeSchedule::subset(vec![NodeIndex(5), NodeIndex(2)])),
            |_, _| Shout::default(),
        );
        let senders: Vec<usize> = record.messages.iter().map(|m| m.1.node.0).collect();
        assert_eq!(senders, [2, 2, 2, 5, 5, 5]);
        // ...and mail that reaches nodes 3, 1, 5 in that order wakes them,
        // and reports their decisions, in node order.
        let (_, record) = same_as_polled(
            || round_robin(8).wake(WakeSchedule::single(NodeIndex(7))),
            |_, _| Shout::default(),
        );
        let recipients: Vec<usize> = record.messages.iter().map(|m| m.2.node.0).collect();
        assert_eq!(recipients, [3, 1, 5]);
        let woken: Vec<usize> = record.wakes.iter().map(|w| w.1 .0).collect();
        assert_eq!(woken, [7, 1, 3, 5]);
        let decided: Vec<usize> = record.decisions.iter().map(|d| d.1 .0).collect();
        assert_eq!(decided, [1, 3, 5, 7]);
    }

    #[test]
    fn mail_to_a_node_that_quits_in_its_own_send_phase_is_swallowed() {
        /// Broadcasts and decides in round 2's send phase: mail from
        /// lower-indexed senders is already queued for it by then.
        struct Quitter {
            decision: Decision,
        }
        impl SyncNode for Quitter {
            type Message = ();
            fn send_phase(&mut self, ctx: &mut Context<'_, ()>) {
                if ctx.round() == 2 {
                    for p in ctx.all_ports() {
                        ctx.send(p, ());
                    }
                    self.decision = Decision::Leader;
                }
            }
            fn receive_phase(&mut self, _ctx: &mut Context<'_, ()>, inbox: &[Received<()>]) {
                assert!(inbox.is_empty(), "every message goes to a quitter");
            }
            fn decision(&self) -> Decision {
                self.decision
            }
        }
        let (outcome, _) = same_as_polled(
            || SyncSimBuilder::new(5).seed(4),
            |_, _| Quitter {
                decision: Decision::Undecided,
            },
        );
        assert_eq!(outcome.stats.total(), 20);
        assert_eq!(outcome.messages_to_terminated, 20);
        assert_eq!(outcome.rounds, 2);
        assert_eq!(outcome.halt, HaltReason::Quiescent);
    }

    #[test]
    fn all_idle_silent_runs_still_hit_the_round_cap() {
        struct Idle;
        impl SyncNode for Idle {
            type Message = ();
            fn send_phase(&mut self, _ctx: &mut Context<'_, ()>) {}
            fn receive_phase(&mut self, _ctx: &mut Context<'_, ()>, _inbox: &[Received<()>]) {}
            fn decision(&self) -> Decision {
                Decision::Undecided
            }
            fn is_idle(&self) -> bool {
                true
            }
        }
        let (outcome, record) =
            same_as_polled(|| SyncSimBuilder::new(6).max_rounds(10), |_, _| Idle);
        assert_eq!(outcome.halt, HaltReason::MaxRounds);
        assert_eq!(outcome.rounds, 1);
        assert_eq!(outcome.awake_count(), 6);
        assert_eq!(record.rounds, (1..=10).collect::<Vec<_>>());
    }

    #[test]
    fn explicit_ids_are_used() {
        let ids = IdAssignment::new(vec![Id(10), Id(30), Id(20)]).unwrap();
        let outcome = SyncSimBuilder::new(3)
            .ids(ids)
            .build(max_broadcast)
            .unwrap()
            .run()
            .unwrap();
        assert_eq!(outcome.unique_leader(), Some(NodeIndex(1)));
    }
}

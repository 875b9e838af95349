//! The synchronous round engine.

use clique_model::ids::{Id, IdAssignment};
use clique_model::metrics::MessageStats;
use clique_model::ports::{Port, PortBackend, PortMap, PortResolver};
use clique_model::prof::{self, Phase};
use clique_model::sim::{ArenaCore, Core, Settings};
use clique_model::trace::{At, TraceEvent, TraceSink};
use clique_model::{ModelError, NodeIndex, Topology};

use crate::node::{Context, Received, SyncNode, WakeCause};
use crate::outcome::{HaltReason, Outcome};
use crate::wakeup::WakeSchedule;

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
    /// The port map and the typed [`SyncBuffers`].
    core: ArenaCore,
    wake_plan: Vec<(usize, Vec<NodeIndex>)>,
    work: Worklists,
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

    /// Backend-reported estimate of the bytes resident in the recycled
    /// engine tables (currently the port map — the only state whose size
    /// depends on the storage backend). The sweep harness records this per
    /// cell so dense-vs-sparse footprints appear in every experiment CSV.
    pub fn resident_bytes(&self) -> u64 {
        self.core.resident_bytes()
    }
}

impl std::fmt::Debug for SyncArena {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SyncArena")
            .field("core", &self.core)
            .finish_non_exhaustive()
    }
}

/// The message-typed recyclable buffers of a [`SyncArena`], stored
/// type-erased so one arena serves algorithms with different message types.
struct SyncBuffers<M> {
    pending: Vec<Vec<Received<M>>>,
    inbox: Vec<Received<M>>,
    outbox: Vec<(Port, M)>,
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
/// the order of trace events are those of a full scan.
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
/// The settings both engines share are documented on [`Settings`].
#[derive(Debug)]
pub struct SyncSimBuilder {
    core: Settings,
    wake: Option<WakeSchedule>,
    max_rounds: Option<usize>,
}

impl SyncSimBuilder {
    /// Starts configuring a simulation of an `n`-node clique.
    pub fn new(n: usize) -> Self {
        SyncSimBuilder {
            core: Settings::new(n),
            wake: None,
            max_rounds: None,
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

    /// Sets the wake-up schedule (default: simultaneous).
    pub fn wake(mut self, wake: WakeSchedule) -> Self {
        self.wake = Some(wake);
        self
    }

    /// Sets the port resolution strategy ([`Settings::resolver`]).
    pub fn resolver(self, resolver: Box<dyn PortResolver>) -> Self {
        self.with(|s| s.resolver = Some(resolver))
    }

    /// Pins the port-map storage backend ([`Settings::backend`]).
    pub fn backend(self, backend: PortBackend) -> Self {
        self.with(|s| s.backend = Some(backend))
    }

    /// Pins the communication graph ([`Settings::topology`]).
    pub fn topology(self, topology: Topology) -> Self {
        self.with(|s| s.topology = Some(topology))
    }

    /// Sets the round cap guarding against non-terminating algorithms
    /// (default `4n + 64`).
    pub fn max_rounds(mut self, max_rounds: usize) -> Self {
        self.max_rounds = Some(max_rounds);
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
    /// As for [`SyncSimBuilder::build_in`].
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
    /// The shared settings' errors ([`Settings::build`]), and
    /// [`ModelError::NodeOutOfRange`] if the wake schedule names a node
    /// outside the network.
    pub fn build_in<N, F>(self, arena: &mut SyncArena, factory: F) -> Result<SyncSim<N>, ModelError>
    where
        N: SyncNode,
        N::Message: 'static,
        F: FnMut(Id, usize) -> N,
    {
        let _build = prof::span(Phase::Build);
        let named = self
            .wake
            .iter()
            .flat_map(|w| w.stages())
            .flat_map(|(_, v)| v);
        let core = self.core.build(&mut arena.core, named.copied(), factory)?;
        let n = core.n;
        let mut bufs: SyncBuffers<N::Message> = arena.core.take_buffers();
        for pending in &mut bufs.pending {
            pending.clear();
        }
        bufs.pending.truncate(n);
        let missing = n - bufs.pending.len();
        bufs.pending.extend((0..missing).map(|_| Vec::new()));
        bufs.inbox.clear();
        bufs.outbox.clear();
        bufs.outbox.reserve(n - 1);
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
        Ok(SyncSim {
            core,
            round: 0,
            wake_plan,
            wake_cursor: 0,
            max_rounds: self.max_rounds.unwrap_or(4 * n + 64),
            live: 0,
            work,
            pending: bufs.pending,
            inbox: bufs.inbox,
            outbox: bufs.outbox,
            last_activity_round: 0,
        })
    }
}

/// The argument [`SyncSim::step`] takes. It carries nothing: the builder's
/// trace sink is the engine's only event channel.
#[doc(hidden)]
#[derive(Debug, Clone, Copy, Default)]
pub struct NullObserver;

/// A synchronous execution in progress.
///
/// Drive it with [`SyncSim::run`] (to quiescence) or [`SyncSim::step`]
/// (round by round, e.g. for lower-bound experiments that truncate
/// executions).
pub struct SyncSim<N: SyncNode> {
    /// The state both engines share: IDs, nodes, ports, resolver, tracer,
    /// message counts, the awake set and decisions.
    core: Core<N>,
    round: usize,
    /// Adversarial wake-ups, sorted by round, consumed by `wake_cursor`.
    wake_plan: Vec<(usize, Vec<NodeIndex>)>,
    wake_cursor: usize,
    max_rounds: usize,
    /// Awake, unterminated nodes; the run is quiescent once this is zero
    /// and no wake-ups remain.
    live: usize,
    work: Worklists,
    /// Per-node arena inboxes, filled during the send phase. Allocated once
    /// at build; each buffer is recycled (cleared, never dropped) every
    /// round via a swap with `inbox`.
    pending: Vec<Vec<Received<N::Message>>>,
    /// The double buffer a node's pending inbox is swapped into while the
    /// receive phase borrows it alongside the node's mutable state.
    inbox: Vec<Received<N::Message>>,
    outbox: Vec<(Port, N::Message)>,
    last_activity_round: usize,
}

impl<N: SyncNode> std::fmt::Debug for SyncSim<N> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SyncSim")
            .field("n", &self.core.n)
            .field("round", &self.round)
            .field("messages", &self.core.stats.total())
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

    /// Runs to quiescence (or the round cap). Its events go to the
    /// builder's trace sink, if any.
    ///
    /// # Errors
    ///
    /// As for [`SyncSim::step`].
    pub fn run(mut self) -> Result<Outcome, ModelError>
    where
        N::Message: 'static,
    {
        let halt = self.drive()?;
        Ok(self.into_outcome(halt))
    }

    /// The shared round loop of [`SyncSim::run`] and
    /// [`SyncSim::run_reusing`]: steps until quiescence or the round cap
    /// and reports which one halted the run.
    fn drive(&mut self) -> Result<HaltReason, ModelError> {
        let _run = prof::span(Phase::Run);
        while self.round < self.max_rounds {
            if !self.step(&mut NullObserver)? {
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
    /// As for [`SyncSim::step`].
    pub fn run_reusing(mut self, arena: &mut SyncArena) -> Result<Outcome, ModelError>
    where
        N::Message: 'static,
    {
        let halt = self.drive()?;
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
    /// The round's events go to the builder's trace sink, if any; to read
    /// them in process, pass a [`SharedSink`](clique_model::trace::SharedSink)
    /// to [`SyncSimBuilder::trace`] and drain it after each step. The
    /// argument carries nothing.
    ///
    /// # Errors
    ///
    /// Propagates [`ModelError`] from port resolution (only possible with a
    /// faulty custom resolver), and returns
    /// [`ModelError::DecisionRevoked`] if a node changes a decision it has
    /// already made.
    pub fn step(&mut self, _: &mut NullObserver) -> Result<bool, ModelError> {
        self.round += 1;
        let round = self.round;
        let core = &mut self.core;

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
                if !core.awake[u.0] {
                    core.awake[u.0] = true;
                    self.live += 1;
                    self.work.woken.push(u.0);
                    self.work.polled_in[u.0] = round;
                    let mut outbox = std::mem::take(&mut self.outbox);
                    let mut ctx = Context {
                        id: core.ids.id_of(u),
                        n: core.n,
                        ports: core.ports.ports_of(u),
                        round,
                        rng: &mut core.node_rngs[u.0],
                        outbox: &mut outbox,
                        sends_allowed: false,
                    };
                    core.nodes[u.0].on_wake(&mut ctx, WakeCause::Adversary);
                    self.outbox = outbox;
                    if core.tracer.enabled() {
                        core.tracer.emit(TraceEvent::Wake {
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
            self.send_from(self.work.poll[i], round)?;
        }
        let core = &mut self.core;

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
            if core.nodes[v].is_terminated() {
                // A node that terminated during this round's send phase may
                // still have mail queued from earlier senders; swallow it
                // (legacy behavior: the taken buffer was dropped).
                core.messages_to_terminated += self.pending[v].len() as u64;
                self.pending[v].clear();
                continue;
            }
            // Polled nodes are awake, so an asleep one is here for its mail.
            let woke_by_message = !core.awake[v];
            debug_assert!(!woke_by_message || !self.pending[v].is_empty());
            std::mem::swap(&mut self.pending[v], &mut self.inbox);
            let mut outbox = std::mem::take(&mut self.outbox);
            {
                let mut ctx = Context {
                    id: core.ids.id_of(NodeIndex(v)),
                    n: core.n,
                    ports: core.ports.ports_of(NodeIndex(v)),
                    round,
                    rng: &mut core.node_rngs[v],
                    outbox: &mut outbox,
                    sends_allowed: false,
                };
                if woke_by_message {
                    core.awake[v] = true;
                    self.live += 1;
                    core.nodes[v].on_wake(&mut ctx, WakeCause::Message);
                    if core.tracer.enabled() {
                        core.tracer.emit(TraceEvent::Wake {
                            at: At::Round(round as u32),
                            node: v as u32,
                            cause: WakeCause::Message,
                        });
                    }
                    self.last_activity_round = round;
                }
                core.nodes[v].receive_phase(&mut ctx, &self.inbox);
            }
            self.outbox = outbox;
            self.inbox.clear();
            std::mem::swap(&mut self.pending[v], &mut self.inbox);
        }

        // Decisions and termination change only inside hooks, so the
        // active nodes are the only ones to check: track decision changes
        // (rejecting a revoked one), retire terminated nodes, and queue
        // next round's poll list. Every active node is awake by now.
        for &u in &self.work.active {
            let d = core.nodes[u].decision();
            if core.decide(NodeIndex(u), d, At::Round(round as u32))? {
                self.last_activity_round = round;
            }
            let node = &core.nodes[u];
            if node.is_terminated() {
                self.live -= 1;
            } else if !node.is_idle() {
                self.work.poll.push(u);
                self.work.polled_in[u] = round + 1;
            }
        }

        if core.tracer.enabled() {
            core.tracer.emit(TraceEvent::Round {
                round: round as u32,
                msgs: core.stats.total(),
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
    fn send_from(&mut self, u: usize, round: usize) -> Result<(), ModelError> {
        let core = &mut self.core;
        if core.nodes[u].is_terminated() {
            return Ok(());
        }
        let mut outbox = std::mem::take(&mut self.outbox);
        outbox.clear();
        {
            let mut ctx = Context {
                id: core.ids.id_of(NodeIndex(u)),
                n: core.n,
                ports: core.ports.ports_of(NodeIndex(u)),
                round,
                rng: &mut core.node_rngs[u],
                outbox: &mut outbox,
                sends_allowed: true,
            };
            core.nodes[u].send_phase(&mut ctx);
        }
        for (port, msg) in outbox.drain(..) {
            let dst = core.resolve(NodeIndex(u), port)?;
            core.stats.record(round, NodeIndex(u));
            self.last_activity_round = round;
            if core.tracer.enabled() {
                let at = At::Round(round as u32);
                core.tracer.emit(TraceEvent::Send {
                    at,
                    src: u as u32,
                    port: port.0 as u32,
                    dst: dst.node.0 as u32,
                    cls: None,
                });
                // Synchronous delivery lands in the same round; mail to
                // a terminated node is swallowed, not delivered.
                if !core.nodes[dst.node.0].is_terminated() {
                    core.tracer.emit(TraceEvent::Deliver {
                        at,
                        src: u as u32,
                        dst: dst.node.0 as u32,
                        cls: None,
                    });
                }
            }
            if core.nodes[dst.node.0].is_terminated() {
                core.messages_to_terminated += 1;
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

    /// Consumes the simulation into its measurable [`Outcome`]:
    /// [`SyncSim::into_outcome_reusing`] on a fresh arena.
    pub fn into_outcome(self, halt: HaltReason) -> Outcome
    where
        N::Message: 'static,
    {
        self.into_outcome_reusing(halt, &mut SyncArena::new())
    }

    /// Closes the trace and consumes the simulation into its measurable
    /// [`Outcome`], stashing the recyclable state into `arena` on the way
    /// out.
    pub fn into_outcome_reusing(mut self, halt: HaltReason, arena: &mut SyncArena) -> Outcome
    where
        N::Message: 'static,
    {
        let _reset = prof::span(Phase::Reset);
        let reason = match halt {
            HaltReason::Quiescent => "quiescent",
            HaltReason::MaxRounds => "max_rounds",
        };
        self.core.finish_trace(At::Round(self.round as u32), reason);
        let SyncSim {
            core,
            wake_plan,
            work,
            mut pending,
            mut inbox,
            mut outbox,
            last_activity_round,
            ..
        } = self;
        for buf in &mut pending {
            buf.clear();
        }
        inbox.clear();
        outbox.clear();
        arena.wake_plan = wake_plan;
        arena.work = work;
        let bufs = SyncBuffers {
            pending,
            inbox,
            outbox,
        };
        arena.core.stash(core.ports, bufs);
        Outcome {
            n: core.n,
            rounds: last_activity_round,
            stats: core.stats,
            decisions: core.decisions,
            awake: core.awake,
            ids: core.ids,
            messages_to_terminated: core.messages_to_terminated,
            halt,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::Received;
    use clique_model::ports::Port;
    use clique_model::trace::SharedSink;
    use clique_model::Decision;

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
    /// runs produce the same outcome and the same trace events, and
    /// returns them.
    fn same_as_polled<N, F>(
        builder: impl Fn() -> SyncSimBuilder,
        factory: F,
    ) -> (Outcome, Vec<TraceEvent>)
    where
        N: SyncNode,
        N::Message: 'static,
        F: Fn(Id, usize) -> N + Copy,
    {
        let sink = SharedSink::new();
        let outcome = builder()
            .trace(Box::new(sink.clone()))
            .build(factory)
            .unwrap()
            .run()
            .unwrap();
        let events = sink.take();
        let polled = builder()
            .trace(Box::new(sink.clone()))
            .build(|id, n| Polled(factory(id, n)))
            .unwrap()
            .run()
            .unwrap();
        assert_eq!(format!("{outcome:?}"), format!("{polled:?}"));
        assert_eq!(events, sink.take());
        (outcome, events)
    }

    /// `(round, src, dst)` of each `send` event.
    fn sends(events: &[TraceEvent]) -> Vec<(u32, u32, u32)> {
        events
            .iter()
            .filter_map(|e| match *e {
                TraceEvent::Send {
                    at: At::Round(r),
                    src,
                    dst,
                    ..
                } => Some((r, src, dst)),
                _ => None,
            })
            .collect()
    }

    /// `(round, node, cause)` of each `wake` event.
    fn wakes(events: &[TraceEvent]) -> Vec<(u32, u32, WakeCause)> {
        events
            .iter()
            .filter_map(|e| match *e {
                TraceEvent::Wake {
                    at: At::Round(r),
                    node,
                    cause,
                } => Some((r, node, cause)),
                _ => None,
            })
            .collect()
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
        let (outcome, events) = same_as_polled(
            || token_ring(8).wake(WakeSchedule::single(NodeIndex(0))),
            |_, _| Token::default(),
        );
        // One hop a round. The first lap wakes the idle sleepers; the
        // second reaches them awake and idle.
        assert_eq!(outcome.stats.total(), 16);
        assert_eq!(outcome.rounds, 16);
        let message_wakes = wakes(&events)
            .iter()
            .filter(|w| w.2 == WakeCause::Message)
            .count();
        assert_eq!(message_wakes, 7);
        // Idle, undecided nodes keep the run alive to the cap.
        assert_eq!(outcome.halt, HaltReason::MaxRounds);
    }

    #[test]
    fn staged_wakeups_join_the_poll_list() {
        let (outcome, events) = same_as_polled(
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
        assert!(wakes(&events).contains(&(3, 4, WakeCause::Adversary)));
        assert_eq!(sends(&events).iter().filter(|m| m.0 == 3).count(), 2);
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
        let (_, events) = same_as_polled(
            || round_robin(8).wake(WakeSchedule::subset(vec![NodeIndex(5), NodeIndex(2)])),
            |_, _| Shout::default(),
        );
        let senders: Vec<u32> = sends(&events).iter().map(|m| m.1).collect();
        assert_eq!(senders, [2, 2, 2, 5, 5, 5]);
        // ...and mail that reaches nodes 3, 1, 5 in that order wakes them,
        // and reports their decisions, in node order.
        let (_, events) = same_as_polled(
            || round_robin(8).wake(WakeSchedule::single(NodeIndex(7))),
            |_, _| Shout::default(),
        );
        let recipients: Vec<u32> = sends(&events).iter().map(|m| m.2).collect();
        assert_eq!(recipients, [3, 1, 5]);
        let woken: Vec<u32> = wakes(&events).iter().map(|w| w.1).collect();
        assert_eq!(woken, [7, 1, 3, 5]);
        let decided: Vec<u32> = events
            .iter()
            .filter_map(|e| match *e {
                TraceEvent::Decide { node, .. } => Some(node),
                _ => None,
            })
            .collect();
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
    fn a_revoked_decision_is_an_error() {
        /// Claims leadership in round 1 and gives it up in round 2.
        struct Fickle {
            decision: Decision,
        }
        impl SyncNode for Fickle {
            type Message = ();
            fn send_phase(&mut self, ctx: &mut Context<'_, ()>) {
                self.decision = match ctx.round() {
                    1 => Decision::Leader,
                    _ => Decision::non_leader(),
                };
            }
            fn receive_phase(&mut self, _ctx: &mut Context<'_, ()>, _inbox: &[Received<()>]) {}
            fn decision(&self) -> Decision {
                self.decision
            }
            fn is_terminated(&self) -> bool {
                false
            }
        }
        let err = SyncSimBuilder::new(3)
            .build(|_, _| Fickle {
                decision: Decision::Undecided,
            })
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
        let (outcome, events) =
            same_as_polled(|| SyncSimBuilder::new(6).max_rounds(10), |_, _| Idle);
        assert_eq!(outcome.halt, HaltReason::MaxRounds);
        assert_eq!(outcome.rounds, 1);
        assert_eq!(outcome.awake_count(), 6);
        let rounds: Vec<u32> = events
            .iter()
            .filter_map(|e| match *e {
                TraceEvent::Round { round, .. } => Some(round),
                _ => None,
            })
            .collect();
        assert_eq!(rounds, (1..=10).collect::<Vec<_>>());
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

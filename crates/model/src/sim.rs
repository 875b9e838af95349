//! The engine core: what the synchronous and asynchronous engines share.
//!
//! Both engines simulate one model, the KT0 clique of Section 2, in
//! which a node learns who sits behind a port only by using it and
//! decides irrevocably. They differ only in timing: lock-step rounds
//! (`clique_sync`, Sections 3–4) or adversarially delayed events
//! (`clique_async`, Section 5). What does not depend on timing is
//! written here once:
//!
//! * [`Settings`] — the six settings both builders take (`seed`, `ids`,
//!   `resolver`, `backend`, `topology` and `trace`) and their defaults;
//! * [`Settings::build`] — the common build steps: the size and range
//!   checks, the ID assignment, the topology, the port map taken from
//!   the arena, the nodes and their coin streams, the resolver stream
//!   and the tracer;
//! * [`ArenaCore`] — the part of an arena both engines recycle: the port
//!   map and the engine's message-typed buffers;
//! * [`Core`] — the state both engines run on, with the per-message port
//!   resolution ([`Core::resolve`]), the decision tracker
//!   ([`Core::decide`]) and the end-of-run trace summary
//!   ([`Core::finish_trace`]).
//!
//! Each engine keeps what its timing needs. The synchronous engine keeps
//! its wake plan, worklists and round cap; the asynchronous engine keeps
//! its wake-ups, event queue, adversary, network and fault schedule.

use std::any::Any;

use rand::rngs::SmallRng;

use crate::ids::{Id, IdAssignment, IdSpace};
use crate::metrics::MessageStats;
use crate::ports::{Endpoint, Port, PortBackend, PortMap, PortResolver};
use crate::rng::{derive_seed, rng_from_seed};
use crate::trace::{At, TraceEvent, TraceSink, Tracer, ALL_CLASSES};
use crate::{Decision, ModelError, NodeIndex, Topology};

/// Seed stream of the port resolver. Every consumer of randomness draws
/// from its own stream derived from the master seed ([`stream`]), so
/// adding a consumer never perturbs the others. The engines' own streams
/// take further tags below [`STREAM_IDS`].
pub const STREAM_RESOLVER: u64 = u64::MAX;
/// Seed stream of the default ID assignment.
pub const STREAM_IDS: u64 = u64::MAX - 1;
/// Node `u`'s coins draw from seed stream `STREAM_NODE_BASE + u`.
pub const STREAM_NODE_BASE: u64 = 0;

/// The deterministic random stream `tag` of master seed `seed`.
pub fn stream(seed: u64, tag: u64) -> SmallRng {
    rng_from_seed(derive_seed(seed, tag))
}

/// The settings both engines' builders take, each with its default.
///
/// The builders forward their methods of the same names here.
pub struct Settings {
    /// Network size.
    pub n: usize,
    /// The master seed (default 0). The whole execution — IDs, port
    /// mapping, node coins and, in the asynchronous engine, delays and
    /// faults — is a deterministic function of it and the other settings.
    pub seed: u64,
    /// An explicit ID assignment, used instead of drawing one uniformly
    /// from the quasilinear ID universe.
    pub ids: Option<IdAssignment>,
    /// The port resolution strategy.
    ///
    /// Without one, a fresh port resolves by the default rule, a uniform
    /// unconnected peer and a uniform free port at it, which
    /// [`PortMap::resolve_uniform`] fixes at the positions it drew. An
    /// explicit resolver takes [`PortMap::resolve`]'s generic path, which
    /// reads its choices' positions back to validate them; passing
    /// [`RandomResolver`](crate::ports::RandomResolver), the trait form of
    /// the default rule, gives the same execution at that cost. The rule
    /// draws from a stream independent of all node coins, so it is also
    /// the *oblivious* mapping of the asynchronous model (Section 5).
    pub resolver: Option<Box<dyn PortResolver>>,
    /// The port-map storage backend (default: [`PortBackend::Auto`] —
    /// dense tables while they fit the budget, sparse touched-state tables
    /// beyond).
    ///
    /// RNG-free resolvers resolve identically on every backend; under the
    /// default uniform rule the backends draw different, identically
    /// distributed mappings per seed. The asynchronous engine indexes its
    /// per-link state by the map's link ids on every backend, so a
    /// sparse-backend trial holds no `Θ(n²)` state at all.
    pub backend: Option<PortBackend>,
    /// The communication graph (default: the clique, the paper's model).
    /// Its node count must equal `n`.
    ///
    /// On the clique the port map keeps its dense or sparse tables; on
    /// any other topology ports are degree-indexed (`0..deg(v)` per node)
    /// and served by the graph store.
    pub topology: Option<Topology>,
    /// A sink streaming every trace event class (default: no trace). The
    /// tracer observes without influencing: it draws no randomness and
    /// touches no schedule, so the execution is bit-identical to an
    /// untraced one.
    pub trace: Option<Box<dyn TraceSink>>,
}

impl std::fmt::Debug for Settings {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Settings")
            .field("n", &self.n)
            .field("seed", &self.seed)
            .field("ids", &self.ids.as_ref().map(|a| a.len()))
            .finish_non_exhaustive()
    }
}

impl Settings {
    /// The default settings of an `n`-node network.
    pub fn new(n: usize) -> Self {
        Settings {
            n,
            seed: 0,
            ids: None,
            resolver: None,
            backend: None,
            topology: None,
            trace: None,
        }
    }

    /// Runs the build steps both engines share and returns the core an
    /// engine runs on, with the port map recycled from `arena` when it
    /// fits. `named` lists the nodes the engine's own settings name
    /// (wake-ups, crash faults); `factory(id, n)` creates each node.
    ///
    /// # Errors
    ///
    /// In the order checked: [`ModelError::NetworkTooSmall`] if `n < 2`;
    /// [`ModelError::NodeOutOfRange`] for the first named node outside
    /// the network; the ID universe's error if it cannot cover `n` nodes;
    /// [`ModelError::NodeOutOfRange`] at node `ids.len()` for explicit
    /// IDs of another length; [`ModelError::InvalidTopology`] for a
    /// topology of another size; and the port map's error if its backend
    /// cannot hold the network.
    pub fn build<N>(
        self,
        arena: &mut ArenaCore,
        named: impl IntoIterator<Item = NodeIndex>,
        mut factory: impl FnMut(Id, usize) -> N,
    ) -> Result<Core<N>, ModelError> {
        let n = self.n;
        if n < 2 {
            return Err(ModelError::NetworkTooSmall { n });
        }
        if let Some(node) = named.into_iter().find(|v| v.0 >= n) {
            return Err(ModelError::NodeOutOfRange { node, n });
        }
        let ids = match self.ids {
            Some(ids) => ids,
            None => IdSpace::quasilinear(n).assign(n, &mut stream(self.seed, STREAM_IDS))?,
        };
        if ids.len() != n {
            let node = NodeIndex(ids.len());
            return Err(ModelError::NodeOutOfRange { node, n });
        }
        let topo = match self.topology {
            Some(topo) => topo,
            None => Topology::clique(n)?,
        };
        if topo.n() != n {
            return Err(ModelError::InvalidTopology {
                reason: "topology node count does not match the builder's n",
            });
        }
        let backend = self.backend.unwrap_or(PortBackend::Auto);
        let ports = arena.take_ports(&topo, backend.resolve_for(n, topo.m()))?;
        Ok(Core {
            n,
            nodes: ids.as_slice().iter().map(|&id| factory(id, n)).collect(),
            node_rngs: (0..n as u64)
                .map(|u| stream(self.seed, STREAM_NODE_BASE + u))
                .collect(),
            ids,
            ports,
            resolver: self.resolver,
            resolver_rng: stream(self.seed, STREAM_RESOLVER),
            tracer: match self.trace {
                Some(sink) => Tracer::with_sink(sink, ALL_CLASSES),
                None => Tracer::off(),
            },
            stats: MessageStats::new(n),
            awake: vec![false; n],
            decisions: vec![Decision::Undecided; n],
            messages_to_terminated: 0,
        })
    }
}

/// The part of an arena both engines recycle between trials: the port
/// map, and the engine's message-typed buffers, stored type-erased so one
/// arena serves algorithms with different message types.
#[derive(Default)]
pub struct ArenaCore {
    ports: Option<PortMap>,
    // `+ Send` keeps the whole arena `Send`, so sweep worker threads can
    // own recycled arenas (message types are `Send` by trait bound).
    buffers: Option<Box<dyn Any + Send>>,
}

impl std::fmt::Debug for ArenaCore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ArenaCore")
            .field("ports", &self.ports.as_ref().map(PortMap::n))
            .field("ports_bytes", &self.resident_bytes())
            .field("has_buffers", &self.buffers.is_some())
            .finish()
    }
}

impl ArenaCore {
    /// Takes a map for a trial on `topo` and the resolved `backend`: the
    /// recycled one (reset in O(touched-state)) when both the topology
    /// fingerprint and the backend match, a fresh one otherwise.
    fn take_ports(&mut self, topo: &Topology, backend: PortBackend) -> Result<PortMap, ModelError> {
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

    /// Takes the last trial's typed buffers if they are of type `B`, and
    /// fresh ones otherwise (the message type changed, or no trial ran).
    pub fn take_buffers<B: Default + 'static>(&mut self) -> B {
        let recycled = self.buffers.take().and_then(|b| b.downcast::<B>().ok());
        recycled.map_or_else(B::default, |b| *b)
    }

    /// Keeps a finished trial's port map and typed buffers for the next.
    pub fn stash<B: Send + 'static>(&mut self, ports: PortMap, buffers: B) {
        self.ports = Some(ports);
        self.buffers = Some(Box::new(buffers));
    }

    /// The recycled port map, once a trial has run.
    pub fn ports(&self) -> Option<&PortMap> {
        self.ports.as_ref()
    }

    /// The recycled port map's estimate of its resident bytes (0 before
    /// the first trial).
    pub fn resident_bytes(&self) -> u64 {
        self.ports.as_ref().map_or(0, PortMap::resident_bytes)
    }
}

/// The state both engines run on, built by [`Settings::build`].
///
/// An engine reads and writes the public fields directly, and goes
/// through the methods for the steps whose rules both engines share.
pub struct Core<N> {
    /// Network size.
    pub n: usize,
    /// The IDs the nodes run with.
    pub ids: IdAssignment,
    /// Each node's algorithm state.
    pub nodes: Vec<N>,
    /// Each node's coin stream.
    pub node_rngs: Vec<SmallRng>,
    /// The partial port mapping fixed so far.
    pub ports: PortMap,
    /// The explicit resolver; `None` resolves by the default rule in place
    /// ([`PortMap::resolve_uniform`]).
    resolver: Option<Box<dyn PortResolver>>,
    resolver_rng: SmallRng,
    /// Structured event tracing (disabled path: one `bool` load per site).
    pub tracer: Tracer,
    /// Message accounting.
    pub stats: MessageStats,
    /// Which nodes have woken up.
    pub awake: Vec<bool>,
    /// Each node's decision as [`Core::decide`] last recorded it. The
    /// engines write it only through `decide`, which keeps decisions
    /// irrevocable.
    pub decisions: Vec<Decision>,
    /// Messages swallowed because their destination had terminated.
    pub messages_to_terminated: u64,
}

impl<N> Core<N> {
    /// Resolves `src`'s port `port` to the endpoint behind it: by the
    /// explicit resolver if the settings named one, by the default rule
    /// otherwise.
    ///
    /// # Errors
    ///
    /// As for [`PortMap::resolve`] (an invalid resolution is possible only
    /// with a faulty custom resolver).
    #[inline]
    pub fn resolve(&mut self, src: NodeIndex, port: Port) -> Result<Endpoint, ModelError> {
        let rng = &mut self.resolver_rng;
        match self.resolver.as_deref_mut() {
            None => self.ports.resolve_uniform(src, port, rng),
            Some(resolver) => self.ports.resolve(src, port, resolver, rng),
        }
    }

    /// Records that node `u`'s decision is now `d`, tracing a change at
    /// `at`, and returns whether it changed.
    ///
    /// # Errors
    ///
    /// [`ModelError::DecisionRevoked`] if `u` had already decided
    /// otherwise: decisions are irrevocable.
    #[inline]
    pub fn decide(&mut self, u: NodeIndex, d: Decision, at: At) -> Result<bool, ModelError> {
        let from = self.decisions[u.0];
        if d == from {
            return Ok(false);
        }
        if from.is_decided() {
            return Err(ModelError::DecisionRevoked {
                node: u,
                from,
                to: d,
            });
        }
        self.decisions[u.0] = d;
        if self.tracer.enabled() {
            self.tracer.emit(TraceEvent::Decide {
                at,
                node: u.0 as u32,
                leader: d == Decision::Leader,
            });
        }
        Ok(true)
    }

    /// Emits the end-of-run trace records — the topology summary, the
    /// backend counter snapshot, and the halt record at `at` for `reason`
    /// — and finishes the tracer, flushing its sink.
    pub fn finish_trace(&mut self, at: At, reason: &'static str) {
        if self.tracer.enabled() {
            let (generator, n, m, maxdeg) = self.ports.topology_summary();
            self.tracer.emit(TraceEvent::Topology {
                generator,
                n: n as u32,
                m,
                maxdeg: maxdeg as u32,
            });
            self.tracer.emit(TraceEvent::Backend {
                backend: self.ports.backend().name(),
                counters: self.ports.backend_counters(),
            });
            self.tracer.emit(TraceEvent::Halt {
                at,
                msgs: self.stats.total(),
                reason,
            });
        }
        self.tracer.finish();
    }
}

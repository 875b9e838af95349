//! Lazily-resolved bijective port mappings (the KT0 "clean network" model).
//!
//! Formally (paper, Section 2) a port mapping `p` maps each pair `(u, i)` —
//! node `u`, port `i` — to some pair `(v, j)` with `p((v, j)) = (u, i)`:
//! a message sent by `u` over port `i` is received by `v` over port `j`.
//! Neither endpoint knows where a port leads until a message crosses it.
//!
//! # Lazy resolution
//!
//! [`PortMap`] keeps a *partial port mapping* (paper, Section 2) and extends
//! it on first use. The extension strategy is a [`PortResolver`]:
//!
//! * [`RandomResolver`] — each unused port leads to a uniformly random node
//!   among those the sender is not yet connected to. For randomized
//!   algorithms this is distributionally equivalent to the oblivious
//!   pre-committed uniform mapping the paper assumes (each fresh port is a
//!   uniform sample without replacement over peers, which is the only
//!   property the analyses of Theorems 4.1 and 5.1 use).
//! * [`RoundRobinResolver`] — a deterministic canonical mapping for tests.
//! * The adaptive adversary of the lower bounds (Lemma 3.3 / Lemma 3.9)
//!   lives in the `le-bounds` crate and implements the same trait: for
//!   deterministic algorithms the model explicitly allows choosing the
//!   mapping of unused ports adaptively.
//!
//! Both engines resolve by [`RandomResolver`]'s rule unless given a
//! resolver, and they apply it without the trait:
//! [`PortMap::resolve_uniform`] draws the two positions the rule draws and
//! fixes the link at them. [`PortMap::resolve`], the generic path, must
//! validate whatever a resolver returns, so it reads the chosen peer's and
//! port's positions back before fixing the link at them. Either way a new
//! link is fixed at positions its caller already holds; the store looks up
//! only the sender's position in the peer's row. Both paths consume the
//! same draws and fix the same links, with the same ids.
//!
//! # Storage backends
//!
//! The *representation* of the partial mapping is pluggable
//! ([`PortBackend`]); all backends maintain identical partial-bijection
//! invariants and identical partitioned-permutation structure (the first
//! `degree(u)` positions of each node's peer/port permutation are the
//! connected prefix, so a uniform fresh draw is one indexed lookup):
//!
//! * **Dense** (`dense` submodule) — four flat row-major `u16` tables
//!   (the permutations and their inverses, 8 bytes per ordered node pair)
//!   allocated once at construction, for `n ≤ 65536`; the connected
//!   prefixes double as the link table, and a zero-allocated `u32` table
//!   beside them holds each link's id at its prefix positions. Every
//!   operation is O(1) with no hashing. The right choice wherever the
//!   tables fit: `n = 4096` is 128 MB of permutations, `n = 16384` is
//!   2 GiB.
//! * **Sparse** (`sparse` submodule) — open-addressing tables
//!   ([`OpenTable`]) holding only *touched* state, with each node's
//!   untouched peer/port permutations represented implicitly by a keyed
//!   small-domain Feistel permutation evaluated on demand (and memoized in
//!   direct-mapped caches). Memory is O(n + links) instead of `Θ(n²)`,
//!   which reopens `n = 65536+` for the paper's sublinear-message regime;
//!   operations stay O(1) expected.
//!
//! Selection: [`PortMap::new`] takes `auto`, and [`PortMap::with_backend`]
//! / the engine builders' `.backend(…)` pin a choice (`dense`, `sparse`
//! or `auto`). `auto` picks dense while the budget's cost
//! model ([`PortBackend::dense_table_bytes`], 28 bytes per ordered pair)
//! fits 8 GiB, i.e. up to `n = 16384`, and sparse beyond.
//!
//! Every store numbers its links in creation order ([`PortMap::link_id`]),
//! so per-link state elsewhere — the asynchronous engine's FIFO floors,
//! for one — lives in flat tables indexed by link id on every backend.
//!
//! RNG-free resolvers (round-robin, circulant, the lower-bound
//! adversaries) resolve identically on both backends — enforced by
//! `tests/portmap_equivalence.rs`. RNG-driven resolvers draw through the
//! backend's enumeration order, which differs between dense and sparse,
//! so the per-seed mappings differ while their distributions coincide;
//! golden fingerprints are therefore *backend-scoped* (recorded on dense,
//! with a pinned sparse schedule beside them).
//!
//! # Trial recycling
//!
//! Construction cost is paid once per *map*, not once per *trial*:
//! [`PortMap::reset`] returns a used map to the exact state construction
//! produces, in time proportional to the state the previous trial actually
//! touched. A dirty-node list records which rows have links. The dense and
//! graph stores restore each dirty row by swapping its partitioned
//! permutations back to canonical order and clearing the row's link ids,
//! with no reallocation and no full-table sweep. The sparse store zeroes
//! the dirty degrees and clears its tables, since an empty override table
//! *is* the base permutation; its hashed tables shrink when a trial leaves
//! them ≥ 8× oversized, so the clear is O(touched) amortized. A reset map
//! is observationally identical to a fresh one: the same resolver draws
//! from the same RNG state produce the same mapping, with the same link
//! ids.

use rand::rngs::SmallRng;
use rand::Rng;

use crate::error::ModelError;
use crate::NodeIndex;

mod dense;
mod graph;
mod perm;
mod sparse;
mod table;

use dense::DenseStore;
use graph::GraphStore;
use sparse::SparseStore;

use crate::topology::Topology;

pub use table::OpenTable;

/// A port number local to one node: `0 .. n-1` on the clique of the
/// original model, `0 .. deg(node)` on an explicit [`Topology`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Port(pub usize);

impl Port {
    /// Returns the underlying port number.
    #[inline]
    pub fn index(self) -> usize {
        self.0
    }
}

impl std::fmt::Display for Port {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "p{}", self.0)
    }
}

/// One end of a link: a `(node, port)` pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Endpoint {
    /// The node owning the port.
    pub node: NodeIndex,
    /// The port local to `node`.
    pub port: Port,
}

impl std::fmt::Display for Endpoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}:{}", self.node, self.port)
    }
}

/// The uniform storage interface both backends implement.
///
/// [`PortMap`] validates every mutation it did not draw itself (bounds,
/// bijectivity, resolver sanity) and the range of every read before it
/// reaches the store, so implementations only maintain the
/// representation: the partitioned peer/port permutations whose first
/// `degree(u)` positions are the connected prefix, plus the link tables
/// the backend keeps beside them (dense a position-indexed link-id table,
/// sparse a forward table and a link-indexed endpoint table).
///
/// Every store numbers its links in creation order: the `i`-th
/// `insert_link` since construction or the last `reset` fixes link `i`,
/// and both of its endpoints report that id.
trait PortStore {
    /// Number of nodes.
    fn n(&self) -> usize;
    /// Size of `u`'s port space: `n − 1` on the implicit clique,
    /// `deg(u)` on an explicit topology.
    fn ports_of(&self, u: NodeIndex) -> usize;
    /// Whether `v` lies in `u`'s topology neighborhood (any `v ≠ u` on
    /// the implicit clique).
    fn topo_adjacent(&self, u: NodeIndex, v: NodeIndex) -> bool;
    /// Number of links fixed so far.
    fn link_count(&self) -> usize;
    /// Number of links incident to `u`.
    fn degree(&self, u: NodeIndex) -> usize;
    /// Whether `u` and `v` are connected by a fixed link.
    fn connected(&self, u: NodeIndex, v: NodeIndex) -> bool;
    /// What `u`'s port `p` holds: the far end of its link, or the port's
    /// position while it is free.
    fn port_state(&self, u: NodeIndex, p: Port) -> PortState;
    /// The position of `v` in `u`'s partitioned peer permutation, for a
    /// topology neighbor `v ≠ u`.
    fn peer_position(&self, u: NodeIndex, v: NodeIndex) -> usize;
    /// The port of `u` connecting to `v`, if such a link is fixed.
    fn port_to(&self, u: NodeIndex, v: NodeIndex) -> Option<Port>;
    /// The id of the link behind `u`'s port `p`, if assigned.
    fn link_id(&self, u: NodeIndex, p: Port) -> Option<u32>;
    /// The peer at position `k` of `u`'s partitioned peer permutation.
    fn peer_at_pos(&self, u: NodeIndex, k: usize) -> NodeIndex;
    /// The port at position `k` of `u`'s partitioned port permutation.
    fn port_at_pos(&self, u: NodeIndex, k: usize) -> Port;
    /// Fixes the (pre-validated) link `(u, pu) ↔ (v, pv)` at the
    /// positions its caller read or drew. The one position no caller
    /// holds, `u`'s in `v`'s peer permutation, the store looks up itself.
    fn insert_link(&mut self, u: NodeIndex, pu: Port, v: NodeIndex, pv: Port, at: LinkAt);
    /// Returns the store to its pristine state in O(touched state),
    /// amortized on sparse (which clears its tables).
    fn reset(&mut self);
    /// Exhaustively checks representation invariants (test helper).
    fn validate(&self) -> Result<(), ModelError>;
    /// Estimated bytes of resident storage currently held.
    fn resident_bytes(&self) -> u64;
    /// Backend-observability counter snapshot (all zero for dense, whose
    /// flat tables have no caches to hit nor tables to grow).
    fn counters(&self) -> crate::trace::BackendCounters {
        crate::trace::BackendCounters::default()
    }

    /// The default rule's one draw, written once for [`RandomResolver`],
    /// [`uniform_free_port`] and [`PortMap::resolve_uniform`]: a uniform
    /// position past `u`'s connected prefix. Free ports and unconnected
    /// peers are equinumerous, so the position indexes either permutation.
    #[inline]
    fn uniform_pos(&self, u: NodeIndex, rng: &mut SmallRng) -> usize {
        let (degree, ports) = (self.degree(u), self.ports_of(u));
        assert!(degree < ports, "node {u} has no free ports left");
        degree + rng.gen_range(0..ports - degree)
    }
}

/// What one port holds, as its store reads it.
#[derive(Debug, Clone, Copy)]
enum PortState {
    /// The port is assigned: the far end of its link.
    Linked(Endpoint),
    /// The port is free, at this position of its node's port permutation.
    Free(usize),
}

impl PortState {
    /// The far end of the port's link, if it is assigned.
    #[inline]
    fn linked(self) -> Option<Endpoint> {
        match self {
            PortState::Linked(e) => Some(e),
            PortState::Free(_) => None,
        }
    }
}

/// Where a new link `(u, pu) ↔ (v, pv)` enters the partitioned
/// permutations: the three positions its caller already read or drew.
#[derive(Debug, Clone, Copy)]
struct LinkAt {
    /// `v`'s position in `u`'s peer permutation.
    u_peer: usize,
    /// `pu`'s position in `u`'s port permutation.
    u_port: usize,
    /// `pv`'s position in `v`'s port permutation.
    v_port: usize,
}

/// Shared `validate` helper: the dirty list must hold exactly the nodes
/// with at least one link, each once (pushed only on the 0 → 1 degree
/// transition) — the discipline both backends' `reset` relies on.
fn validate_dirty_list(degree: &[u32], dirty_list: &[u32]) -> Result<(), &'static str> {
    let mut dirty = dirty_list.to_vec();
    dirty.sort_unstable();
    dirty.dedup();
    if dirty.len() != dirty_list.len() {
        return Err("duplicate dirty-list entry");
    }
    let with_links: Vec<u32> = (0..degree.len() as u32)
        .filter(|&u| degree[u as usize] > 0)
        .collect();
    if dirty != with_links {
        return Err("dirty list out of sync with degrees");
    }
    Ok(())
}

/// Monomorphic dispatch over the storage backends: the body is duplicated
/// per variant, so store methods inline with no virtual call on the
/// resolution hot path.
macro_rules! with_store {
    ($map:expr, $s:ident => $e:expr) => {
        match &$map.store {
            Store::Dense($s) => $e,
            Store::Sparse($s) => $e,
            Store::Graph($s) => $e,
        }
    };
}

macro_rules! with_store_mut {
    ($map:expr, $s:ident => $e:expr) => {
        match &mut $map.store {
            Store::Dense($s) => $e,
            Store::Sparse($s) => $e,
            Store::Graph($s) => $e,
        }
    };
}

/// Which storage backend a [`PortMap`] uses (or how to choose one).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PortBackend {
    /// Flat `Θ(n²)` `u16` tables: O(1) operations, no hashing, 8 bytes
    /// per ordered node pair, `n ≤ 65536`. The recorded golden
    /// fingerprints assume this backend.
    Dense,
    /// Hashed O(n + links) tables with implicit keyed permutations:
    /// O(1)-expected operations, memory proportional to touched state.
    Sparse,
    /// Resolve per size: dense while [`PortBackend::dense_table_bytes`]
    /// fits [`PortBackend::AUTO_DENSE_CAP_BYTES`] (up to `n = 16384`),
    /// sparse beyond. The default.
    #[default]
    Auto,
}

impl PortBackend {
    /// The name of a deleted store, kept only because `perfbench/` still
    /// spells it; it is [`PortBackend::Sparse`], which draws the same
    /// schedule that store drew.
    #[doc(hidden)]
    #[allow(non_upper_case_globals)]
    pub const Chunked: PortBackend = PortBackend::Sparse;

    /// The `auto` budget: dense is chosen while
    /// [`PortBackend::dense_table_bytes`] fits 8 GiB.
    ///
    /// The boundary sits between `n = 16384` (~7.5 GiB under the cost
    /// model, 2 GiB of actual dense tables — the largest size the
    /// pre-backend experiment grids ran dense, kept dense so those
    /// recorded numbers never re-roll) and `n = 32768` (~30 GiB under the
    /// model, 8 GiB actual), past which the quadratic tables crowd out
    /// everything else on a typical box. The budget is deliberately a
    /// *size* heuristic, not a workload one: at `n ≤ 16384` the grids include
    /// dense-traffic cells (full-clique `d = n` sweeps, full-wake-up
    /// `Θ(n^{3/2})` floods) where hashed touched-state storage loses on
    /// both speed and memory, while every `auto`-sparse size above it is
    /// only feasible for o(n)-per-node workloads in the first place.
    /// Pin `PortBackend::Sparse` explicitly to run a sublinear workload
    /// sparse at a small `n`.
    pub const AUTO_DENSE_CAP_BYTES: u64 = 8 * 1024 * 1024 * 1024;

    /// Resolves `Auto` against the network size: dense within the budget,
    /// sparse past it. Concrete backends return themselves, so the result
    /// is always a concrete backend.
    pub fn resolve(self, n: usize) -> PortBackend {
        match self {
            PortBackend::Auto => {
                if PortBackend::dense_table_bytes(n) <= PortBackend::AUTO_DENSE_CAP_BYTES {
                    PortBackend::Dense
                } else {
                    PortBackend::Sparse
                }
            }
            concrete => concrete,
        }
    }

    /// Resolves `Auto` against the *edge count* of an explicit topology:
    /// dense while [`PortBackend::edge_table_bytes`] fits the same
    /// 8 GiB budget, sparse beyond. On the clique
    /// (`m = n(n−1)/2`) the edge formula equals
    /// [`PortBackend::dense_table_bytes`] exactly, so this is a strict
    /// generalization of [`PortBackend::resolve`] — the clique boundary
    /// stays at `n = 16384` — while sparse graphs at large `n` stop
    /// being budgeted as if they carried the clique's implicit `n²`
    /// pairs.
    pub fn resolve_for(self, n: usize, m: u64) -> PortBackend {
        match self {
            PortBackend::Auto => {
                if PortBackend::edge_table_bytes(n, m) <= PortBackend::AUTO_DENSE_CAP_BYTES {
                    PortBackend::Dense
                } else {
                    PortBackend::Sparse
                }
            }
            concrete => concrete,
        }
    }

    /// The `auto` budget's cost model at `n` nodes and `m` undirected
    /// edges: `56m + 12n` bytes. Each of the `2m` directed slots costs one
    /// `u64` forward entry plus five `u32` peer/port permutation,
    /// position, and index entries (28 bytes per slot), plus one `u32`
    /// degree and two words of amortized row bookkeeping per node. Chosen
    /// so that at the clique's `m = n(n−1)/2` this is *exactly*
    /// [`PortBackend::dense_table_bytes`]`(n)` = `28n² − 16n`: one
    /// budget formula, parameterized by the real edge count.
    ///
    /// The graph store keeps a `u32` link id per slot too (32 bytes), and
    /// dense a link-id table, but the model charges 28 bytes per slot on
    /// purpose: charging the link ids would move the dense/sparse
    /// boundary, and with it which store `auto` picks and every draw
    /// recorded on either side of it.
    pub fn edge_table_bytes(n: usize, m: u64) -> u64 {
        let bytes = 56 * m as u128 + 12 * n as u128;
        u64::try_from(bytes).unwrap_or(u64::MAX)
    }

    /// The `auto` budget's cost model for an `n`-node clique: the flat
    /// layout at ~28 bytes per ordered node pair — one `u64` forward entry
    /// plus three `u32` permutation/position entries per port, two `u32`
    /// peer-indexed entries per ordered pair, one `u32` degree per node.
    ///
    /// This is the quantity the heuristic budgets, not what the dense
    /// store allocates: dense keeps only the four permutation tables, as
    /// `u16`, at 8 bytes per ordered pair (its real footprint is what
    /// [`PortMap::resident_bytes`] reports). The model keeps the flat
    /// layout's cost so the `auto` boundary, and every recorded number
    /// that depends on which backend `auto` picks, stay where they are.
    ///
    /// Computed in `u128` and saturated: at `n` near `u32::MAX` the `8n²`
    /// term alone overflows a `u64`, and a wrapped size would make `auto`
    /// pick dense for exactly the networks whose tables could never be
    /// allocated.
    pub fn dense_table_bytes(n: usize) -> u64 {
        let n = n as u128;
        let ports = n.saturating_sub(1);
        let bytes = 8 * n * ports + 12 * n * ports + 8 * n * n + 4 * n;
        u64::try_from(bytes).unwrap_or(u64::MAX)
    }
}

impl PortBackend {
    /// The backend's lowercase name (also its `LE_BACKEND` spelling and
    /// the `backend` trace event's tag).
    pub fn name(self) -> &'static str {
        match self {
            PortBackend::Dense => "dense",
            PortBackend::Sparse => "sparse",
            PortBackend::Auto => "auto",
        }
    }
}

impl std::fmt::Display for PortBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Read-only view of the partial port mapping handed to resolvers.
///
/// Exposes exactly what an adaptive adversary may condition on: the current
/// connectivity structure (which is determined by the execution so far), not
/// private node state.
#[derive(Debug)]
pub struct PortView<'a> {
    map: &'a PortMap,
}

impl<'a> PortView<'a> {
    /// Number of nodes in the network.
    pub fn n(&self) -> usize {
        self.map.n()
    }

    /// Whether a link between `u` and `v` has already been fixed (`false`
    /// when either node is out of range).
    pub fn is_connected(&self, u: NodeIndex, v: NodeIndex) -> bool {
        self.map.connected(u, v)
    }

    /// Number of already-fixed links incident to `u`.
    pub fn degree(&self, u: NodeIndex) -> usize {
        self.map.degree(u)
    }

    /// Whether port `p` of node `u` has already been mapped (`false` when
    /// `u` or `p` is out of range).
    pub fn is_port_assigned(&self, u: NodeIndex, p: Port) -> bool {
        self.map.peer(u, p).is_some()
    }

    /// Iterates over the peers already connected to `u`.
    pub fn peers_of(&self, u: NodeIndex) -> impl Iterator<Item = NodeIndex> + '_ {
        let map = self.map;
        (0..map.degree(u)).map(move |k| map.peer_at_pos(u, k))
    }

    /// Size of `u`'s port space (`n − 1` on the implicit clique,
    /// `deg(u)` on an explicit topology).
    pub fn ports_of(&self, u: NodeIndex) -> usize {
        self.map.ports_of(u)
    }

    /// Whether `{u, v}` is a topology edge — i.e. whether a link
    /// between them could ever be fixed (any `v ≠ u` on the clique).
    pub fn is_neighbor(&self, u: NodeIndex, v: NodeIndex) -> bool {
        self.map.topo_adjacent(u, v)
    }

    /// Number of `u`'s topology neighbors not yet connected to it.
    ///
    /// Equals the number of `u`'s free ports: every fixed link consumes
    /// exactly one port on each side.
    pub fn unconnected_count(&self, u: NodeIndex) -> usize {
        self.map.ports_of(u) - self.map.degree(u)
    }
}

/// Strategy deciding where an unused port leads when it is first used.
///
/// Implementations must return a peer `v ≠ u` that is not already connected
/// to `u`; [`PortMap::resolve`] validates this and errors otherwise.
///
/// The engines need no resolver for the default uniform rule: without one
/// they call [`PortMap::resolve_uniform`], which skips the validation
/// reads. A resolver passed to an engine, [`RandomResolver`] included,
/// takes the generic path.
pub trait PortResolver {
    /// Chooses the destination node for the first message sent by `src` over
    /// `src_port`.
    fn choose_peer(
        &mut self,
        view: PortView<'_>,
        src: NodeIndex,
        src_port: Port,
        rng: &mut SmallRng,
    ) -> NodeIndex;

    /// Chooses which of `peer`'s free ports receives the link.
    ///
    /// The default picks a uniformly random free port, which no algorithm in
    /// the KT0 model can distinguish from any other rule.
    fn choose_peer_port(
        &mut self,
        view: PortView<'_>,
        _src: NodeIndex,
        _src_port: Port,
        peer: NodeIndex,
        rng: &mut SmallRng,
    ) -> Port {
        uniform_free_port(&view, peer, rng)
    }
}

/// Picks a uniformly random unassigned port of `node` in O(1): one draw
/// into the node's free-port permutation.
pub fn uniform_free_port(view: &PortView<'_>, node: NodeIndex, rng: &mut SmallRng) -> Port {
    let map = view.map;
    map.port_at_pos(node, map.uniform_pos(node, rng))
}

/// Resolver drawing each fresh port's destination uniformly among the nodes
/// not yet connected to the sender — one O(1) indexed draw into the
/// sender's unconnected-peers permutation (partial Fisher–Yates), never
/// rejection sampling — and the peer's port by [`uniform_free_port`].
///
/// This is the trait form of the engines' default rule, which
/// [`PortMap::resolve_uniform`] applies in place: the same two draws from
/// the same RNG, so the same mapping. Passed explicitly, it takes
/// [`PortMap::resolve`]'s generic path, which reads the chosen peer's and
/// port's positions back to validate them.
#[derive(Debug, Clone, Copy, Default)]
pub struct RandomResolver;

impl PortResolver for RandomResolver {
    fn choose_peer(
        &mut self,
        view: PortView<'_>,
        src: NodeIndex,
        _src_port: Port,
        rng: &mut SmallRng,
    ) -> NodeIndex {
        let map = view.map;
        map.peer_at_pos(src, map.uniform_pos(src, rng))
    }
}

/// Deterministic canonical resolver: port `i` of node `u` prefers node
/// `(u + i + 1) mod n`, skipping forward over already-connected peers.
///
/// Useful for reproducible unit tests and as a "benign" mapping contrasting
/// with adversarial ones. Peer ports are assigned lowest-free-first.
/// Consumes no randomness, so its resolutions are identical on every
/// storage backend.
#[derive(Debug, Clone, Copy, Default)]
pub struct RoundRobinResolver;

impl PortResolver for RoundRobinResolver {
    fn choose_peer(
        &mut self,
        view: PortView<'_>,
        src: NodeIndex,
        src_port: Port,
        _rng: &mut SmallRng,
    ) -> NodeIndex {
        let n = view.n();
        let mut v = (src.0 + src_port.0 + 1) % n;
        for _ in 0..n {
            // On an explicit topology only neighbors qualify; on the
            // clique `is_neighbor` is just `v != src`, preserving the
            // canonical clique scan verbatim.
            if view.is_neighbor(src, NodeIndex(v)) && !view.is_connected(src, NodeIndex(v)) {
                return NodeIndex(v);
            }
            v = (v + 1) % n;
        }
        unreachable!("{src} is already connected to its whole neighborhood");
    }

    fn choose_peer_port(
        &mut self,
        view: PortView<'_>,
        _src: NodeIndex,
        _src_port: Port,
        peer: NodeIndex,
        _rng: &mut SmallRng,
    ) -> Port {
        (0..view.ports_of(peer))
            .map(Port)
            .find(|&p| !view.is_port_assigned(peer, p))
            .expect("peer has no free ports left")
    }
}

/// The closed-form circulant mapping: port `i` of node `u` connects to node
/// `(u + i + 1) mod n`, arriving on that node's port `n − i − 2`.
///
/// Unlike [`RandomResolver`] and [`RoundRobinResolver`], the outcome does
/// not depend on the *order* in which ports are resolved — the full mapping
/// is fixed in advance (an *oblivious* adversary). This makes it the right
/// mapping for experiments that must compare two executions that resolve
/// ports in different orders, such as the Lemma 3.12 single-send
/// simulation in `le-bounds`.
///
/// The mapping is a valid port mapping: symmetric
/// (`p(p(u, i)) = (u, i)`), self-loop-free (a self-loop would need
/// `i = n − 1`, which is not a port), and port-bijective.
///
/// Clique-only: the closed form assumes every node owns `n − 1` ports,
/// so on an explicit non-clique topology its resolutions fail
/// validation (use [`RoundRobinResolver`] for a deterministic mapping
/// there).
#[derive(Debug, Clone, Copy, Default)]
pub struct CirculantResolver;

impl PortResolver for CirculantResolver {
    fn choose_peer(
        &mut self,
        view: PortView<'_>,
        src: NodeIndex,
        src_port: Port,
        _rng: &mut SmallRng,
    ) -> NodeIndex {
        NodeIndex((src.0 + src_port.0 + 1) % view.n())
    }

    fn choose_peer_port(
        &mut self,
        view: PortView<'_>,
        _src: NodeIndex,
        src_port: Port,
        _peer: NodeIndex,
        _rng: &mut SmallRng,
    ) -> Port {
        Port(view.n() - src_port.0 - 2)
    }
}

/// The concrete stores behind a [`PortMap`].
#[derive(Debug, Clone, PartialEq, Eq)]
enum Store {
    /// Flat tables (see [`dense`]).
    Dense(DenseStore),
    /// Hashed touched-state tables (see [`sparse`]), boxed because the
    /// store is more than twice the size of the other two.
    Sparse(Box<SparseStore>),
    /// CSR-ragged flat tables over an explicit topology (see
    /// [`graph`]); serves every requested backend on non-clique
    /// topologies.
    Graph(GraphStore),
}

/// A partial, lazily-extended, bijective port mapping over `n` nodes.
///
/// Invariants maintained at all times (checked by [`PortMap::validate`]):
///
/// 1. **Symmetry**: `p((u, i)) = (v, j)` iff `p((v, j)) = (u, i)`.
/// 2. **Simplicity**: at most one link between any pair of nodes, never a
///    self-link.
/// 3. **Port-injectivity**: each port of each node is used by at most one
///    link.
///
/// Storage is pluggable — see the module docs and [`PortBackend`]. Two
/// maps compare equal only if they use the same backend *and* hold the
/// same mapping in the same internal state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PortMap {
    store: Store,
}

impl PortMap {
    /// Creates an empty partial mapping for an `n`-node clique on the
    /// `auto` backend (see [`PortBackend::resolve`]).
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::NetworkTooSmall`] if `n < 2`.
    pub fn new(n: usize) -> Result<Self, ModelError> {
        PortMap::with_backend(n, PortBackend::Auto)
    }

    /// Creates an empty partial mapping on an explicit backend (`Auto`
    /// resolves against `n`; an explicit backend is never overridden).
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::NetworkTooSmall`] if `n < 2`, and
    /// [`ModelError::NetworkTooLarge`] if the dense backend is asked for
    /// more nodes than its `u16` tables index (`n > 65536`).
    pub fn with_backend(n: usize, backend: PortBackend) -> Result<Self, ModelError> {
        if n < 2 {
            return Err(ModelError::NetworkTooSmall { n });
        }
        let store = match backend.resolve(n) {
            PortBackend::Dense => Store::Dense(DenseStore::new(n)?),
            PortBackend::Sparse => Store::Sparse(Box::new(SparseStore::new(n))),
            PortBackend::Auto => unreachable!("resolve() always returns a concrete backend"),
        };
        Ok(PortMap { store })
    }

    /// Creates an empty partial mapping over an explicit [`Topology`].
    ///
    /// The implicit clique routes to the existing clique backends
    /// verbatim (identical tables, identical draw schedules — nothing
    /// re-rolls), with `Auto` resolved through the edge-aware
    /// [`PortBackend::resolve_for`]. Every other topology uses the
    /// CSR-ragged graph store, whose per-node port space is
    /// `0..deg(v)`; the requested backend is resolved the same way and
    /// recorded for reporting, but the representation is shared — which
    /// is what makes draw schedules backend-independent on non-clique
    /// topologies.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::NetworkTooSmall`] if the topology has
    /// fewer than 2 nodes, and [`ModelError::NetworkTooLarge`] for a
    /// clique past the dense backend's range when dense is requested.
    pub fn for_topology(topo: &Topology, backend: PortBackend) -> Result<Self, ModelError> {
        if topo.is_clique() {
            return PortMap::with_backend(topo.n(), backend.resolve_for(topo.n(), topo.m()));
        }
        let stand_in = backend.resolve_for(topo.n(), topo.m());
        Ok(PortMap {
            store: Store::Graph(GraphStore::new(topo.clone(), stand_in)),
        })
    }

    /// The concrete backend this map stores its state in (never `Auto`).
    ///
    /// A topology map reports the backend it was asked to stand in for
    /// (its CSR representation is the same for both).
    pub fn backend(&self) -> PortBackend {
        match &self.store {
            Store::Dense(_) => PortBackend::Dense,
            Store::Sparse(_) => PortBackend::Sparse,
            Store::Graph(s) => s.stand_in(),
        }
    }

    /// The explicit topology behind this map, if any (`None` means the
    /// implicit clique of the original model).
    pub fn topology(&self) -> Option<&Topology> {
        match &self.store {
            Store::Graph(s) => Some(s.topology()),
            _ => None,
        }
    }

    /// The structural fingerprint of this map's topology — the key
    /// arenas compare when deciding whether a recycled map matches a
    /// request (the implicit clique hashes as `Topology::clique(n)`).
    pub fn topology_fingerprint(&self) -> u64 {
        match self.topology() {
            Some(t) => t.fingerprint(),
            None => Topology::clique(self.n())
                .expect("maps always have n >= 2")
                .fingerprint(),
        }
    }

    /// Graph metadata for the `topo` trace event: generator tag, `n`,
    /// undirected edge count, and maximum degree.
    pub fn topology_summary(&self) -> (&'static str, usize, u64, usize) {
        match self.topology() {
            Some(t) => (t.kind().name(), t.n(), t.m(), t.max_degree()),
            None => {
                let n = self.n();
                (
                    crate::topology::TopologyKind::Clique.name(),
                    n,
                    (n as u64) * (n as u64 - 1) / 2,
                    n - 1,
                )
            }
        }
    }

    /// Estimated bytes of storage currently resident for this map — the
    /// number the sweep harness reports per cell so dense-vs-sparse
    /// footprints are visible in every experiment CSV.
    pub fn resident_bytes(&self) -> u64 {
        with_store!(self, s => s.resident_bytes())
    }

    /// Backend storage milestone counters: Feistel memo hits/misses and
    /// open-table growths. All zero on the dense backend. The engines
    /// snapshot this into the [`backend`](crate::trace::TraceClass::Backend)
    /// trace event at the end of a run.
    pub fn backend_counters(&self) -> crate::trace::BackendCounters {
        with_store!(self, s => s.counters())
    }

    /// Number of nodes.
    pub fn n(&self) -> usize {
        with_store!(self, s => s.n())
    }

    /// The largest port space any node owns: `n − 1` on the implicit
    /// clique, the maximum degree on an explicit topology. Per-node
    /// bounds come from [`PortMap::ports_of`].
    pub fn ports_per_node(&self) -> usize {
        match self.topology() {
            Some(t) => t.max_degree(),
            None => self.n() - 1,
        }
    }

    /// Size of `u`'s port space: `u`'s ports are `0..ports_of(u)`.
    /// `n − 1` on the implicit clique, `deg(u)` on an explicit
    /// topology.
    #[inline]
    pub fn ports_of(&self, u: NodeIndex) -> usize {
        with_store!(self, s => s.ports_of(u))
    }

    /// Whether `{u, v}` is an edge of the underlying topology (any
    /// `v ≠ u` on the implicit clique) — i.e. whether a link between
    /// them *could* ever be fixed.
    #[inline]
    pub fn topo_adjacent(&self, u: NodeIndex, v: NodeIndex) -> bool {
        with_store!(self, s => s.topo_adjacent(u, v))
    }

    /// Number of links fixed so far.
    pub fn link_count(&self) -> usize {
        with_store!(self, s => s.link_count())
    }

    /// Number of links incident to `u`.
    #[inline]
    pub fn degree(&self, u: NodeIndex) -> usize {
        with_store!(self, s => s.degree(u))
    }

    /// Whether `u` and `v` are already connected by a fixed link (`false`
    /// when either node is out of range).
    #[inline]
    pub fn connected(&self, u: NodeIndex, v: NodeIndex) -> bool {
        let n = self.n();
        u.0 < n && v.0 < n && with_store!(self, s => s.connected(u, v))
    }

    /// The endpoint reached from `u`'s port `p`, if that port is assigned
    /// (`None` when `u` or `p` is out of range).
    #[inline]
    pub fn peer(&self, u: NodeIndex, p: Port) -> Option<Endpoint> {
        if u.0 >= self.n() || p.0 >= self.ports_of(u) {
            return None;
        }
        with_store!(self, s => s.port_state(u, p)).linked()
    }

    /// The port of `u` that connects to `v`, if such a link is fixed
    /// (`None` when either node is out of range).
    #[inline]
    pub fn port_to(&self, u: NodeIndex, v: NodeIndex) -> Option<Port> {
        let n = self.n();
        if u.0 >= n || v.0 >= n {
            return None;
        }
        with_store!(self, s => s.port_to(u, v))
    }

    /// The id of the link behind `u`'s port `p`, if that port is assigned
    /// (`None` when `u` or `p` is out of range, as for [`PortMap::peer`]).
    ///
    /// A link's id is its creation index, `0..link_count()`: the first
    /// link fixed since construction or the last [`PortMap::reset`] is 0.
    /// Both endpoints report the same id, and every backend gives the same
    /// ids for the same sequence of resolutions, so per-link state can
    /// live in a flat table indexed by id.
    #[inline]
    pub fn link_id(&self, u: NodeIndex, p: Port) -> Option<u32> {
        if u.0 >= self.n() || p.0 >= self.ports_of(u) {
            return None;
        }
        with_store!(self, s => s.link_id(u, p))
    }

    /// The peer at position `k` of `u`'s partitioned peer permutation
    /// (connected prefix first).
    #[inline]
    fn peer_at_pos(&self, u: NodeIndex, k: usize) -> NodeIndex {
        with_store!(self, s => s.peer_at_pos(u, k))
    }

    /// The port at position `k` of `u`'s partitioned port permutation.
    #[inline]
    fn port_at_pos(&self, u: NodeIndex, k: usize) -> Port {
        with_store!(self, s => s.port_at_pos(u, k))
    }

    /// The default rule's draw at `u` (see [`PortStore::uniform_pos`]).
    #[inline]
    fn uniform_pos(&self, u: NodeIndex, rng: &mut SmallRng) -> usize {
        with_store!(self, s => s.uniform_pos(u, rng))
    }

    /// The range checks both resolution paths share, then what `u`'s
    /// `port` holds.
    #[inline]
    fn checked_port_state(&self, u: NodeIndex, port: Port) -> Result<PortState, ModelError> {
        let n = self.n();
        if u.0 >= n {
            return Err(ModelError::NodeOutOfRange { node: u, n });
        }
        let ports_per_node = self.ports_of(u);
        if port.0 >= ports_per_node {
            return Err(ModelError::PortOutOfRange {
                node: u,
                port,
                ports_per_node,
            });
        }
        Ok(with_store!(self, s => s.port_state(u, port)))
    }

    /// Read-only view for resolvers and tests.
    pub fn view(&self) -> PortView<'_> {
        PortView { map: self }
    }

    /// Resolves `(u, port)`: returns the existing destination if the port is
    /// already mapped, otherwise asks `resolver` where it leads and fixes
    /// both directions.
    ///
    /// This is the generic path, for any resolver. Validating the choices
    /// reads the chosen peer's position in `u`'s peer permutation and the
    /// chosen port's in the peer's port permutation; the link is then fixed
    /// at those positions, so none is read twice. The engines' default rule
    /// skips the validation: see [`PortMap::resolve_uniform`].
    ///
    /// # Errors
    ///
    /// * [`ModelError::NodeOutOfRange`] / [`ModelError::PortOutOfRange`] on
    ///   invalid coordinates;
    /// * [`ModelError::InvalidResolution`] if the resolver picks the sender
    ///   itself, an already-connected peer, or a taken peer port.
    pub fn resolve(
        &mut self,
        u: NodeIndex,
        port: Port,
        resolver: &mut dyn PortResolver,
        rng: &mut SmallRng,
    ) -> Result<Endpoint, ModelError> {
        let u_port = match self.checked_port_state(u, port)? {
            PortState::Linked(dest) => return Ok(dest),
            PortState::Free(k) => k,
        };
        let invalid = |reason| ModelError::InvalidResolution {
            node: u,
            port,
            reason,
        };
        let v = resolver.choose_peer(self.view(), u, port, rng);
        if v.0 >= self.n() {
            return Err(invalid("resolver chose an out-of-range peer"));
        }
        if v == u {
            return Err(invalid("resolver chose the sender itself"));
        }
        if !self.topo_adjacent(u, v) {
            return Err(invalid("resolver chose a peer outside the topology"));
        }
        let u_peer = with_store!(self, s => s.peer_position(u, v));
        if u_peer < self.degree(u) {
            return Err(invalid("resolver chose an already-connected peer"));
        }
        let j = resolver.choose_peer_port(self.view(), u, port, v, rng);
        if j.0 >= self.ports_of(v) {
            return Err(invalid("resolver chose an out-of-range peer port"));
        }
        let PortState::Free(v_port) = with_store!(self, s => s.port_state(v, j)) else {
            return Err(invalid("resolver chose a taken peer port"));
        };
        let at = LinkAt {
            u_peer,
            u_port,
            v_port,
        };
        with_store_mut!(self, s => s.insert_link(u, port, v, j, at));
        Ok(Endpoint { node: v, port: j })
    }

    /// Resolves `(u, port)` by the engines' default rule, the rule
    /// [`RandomResolver`] states as a trait: a uniformly random unconnected
    /// peer, and a uniformly random free port at it.
    ///
    /// The range checks and an assigned port's answer are
    /// [`PortMap::resolve`]'s, and a fresh port consumes the same two
    /// `rng` draws in the same order, so both paths fix the same link with
    /// the same id. The draws are positions past the connected prefixes,
    /// and the link is fixed at the positions drawn: a draw lands on an
    /// unconnected peer and a free port by construction, so nothing is
    /// read back to validate it.
    ///
    /// # Errors
    ///
    /// [`ModelError::NodeOutOfRange`] / [`ModelError::PortOutOfRange`] on
    /// invalid coordinates.
    pub fn resolve_uniform(
        &mut self,
        u: NodeIndex,
        port: Port,
        rng: &mut SmallRng,
    ) -> Result<Endpoint, ModelError> {
        let u_port = match self.checked_port_state(u, port)? {
            PortState::Linked(dest) => return Ok(dest),
            PortState::Free(k) => k,
        };
        Ok(with_store_mut!(self, s => {
            let u_peer = s.uniform_pos(u, rng);
            let v = s.peer_at_pos(u, u_peer);
            let v_port = s.uniform_pos(v, rng);
            let j = s.port_at_pos(v, v_port);
            let at = LinkAt {
                u_peer,
                u_port,
                v_port,
            };
            s.insert_link(u, port, v, j, at);
            Endpoint { node: v, port: j }
        }))
    }

    /// Fixes a link explicitly (used by tests and by adversaries that
    /// pre-wire part of the network).
    ///
    /// # Errors
    ///
    /// Same conditions as [`PortMap::resolve`], plus
    /// [`ModelError::InvalidResolution`] if `(u, port)` is already assigned.
    pub fn connect(
        &mut self,
        u: NodeIndex,
        pu: Port,
        v: NodeIndex,
        pv: Port,
    ) -> Result<(), ModelError> {
        let n = self.n();
        if u.0 >= n || v.0 >= n {
            let node = if u.0 >= n { u } else { v };
            return Err(ModelError::NodeOutOfRange { node, n });
        }
        for (node, port) in [(u, pu), (v, pv)] {
            if port.0 >= self.ports_of(node) {
                return Err(ModelError::PortOutOfRange {
                    node,
                    port,
                    ports_per_node: self.ports_of(node),
                });
            }
        }
        let invalid = |reason| ModelError::InvalidResolution {
            node: u,
            port: pu,
            reason,
        };
        if u == v {
            return Err(invalid("cannot connect a node to itself"));
        }
        if !self.topo_adjacent(u, v) {
            return Err(invalid("cannot connect nodes outside the topology"));
        }
        let u_peer = with_store!(self, s => s.peer_position(u, v));
        if u_peer < self.degree(u) {
            return Err(invalid("nodes already connected"));
        }
        let states = with_store!(self, s => (s.port_state(u, pu), s.port_state(v, pv)));
        let (PortState::Free(u_port), PortState::Free(v_port)) = states else {
            return Err(invalid("endpoint port already taken"));
        };
        let at = LinkAt {
            u_peer,
            u_port,
            v_port,
        };
        with_store_mut!(self, s => s.insert_link(u, pu, v, pv, at));
        Ok(())
    }

    /// Un-connects everything, returning the map to the exact state
    /// construction produces.
    ///
    /// The cost is proportional to the state actually touched since
    /// construction (or the previous reset). The dense and graph stores
    /// visit only the rows of nodes with at least one link and restore
    /// each in O(degree) by chasing displacement cycles of the partitioned
    /// permutations, reallocating nothing; dense rewrites a row whole
    /// instead once its degree reaches a sixteenth of the row, which is
    /// still O(degree). The sparse store zeroes those nodes' degrees and
    /// clears its hashed tables, keeping each slab unless the trial left it
    /// ≥ 8× oversized, which makes the clear O(links) amortized. Repeated
    /// trials over one map therefore pay the construction cost once and
    /// O(links) per trial.
    ///
    /// Afterwards the map is observationally identical to a freshly
    /// constructed one: the same sequence of resolver choices (and RNG
    /// draws) yields the same mapping, which is what lets sweep harnesses
    /// recycle one map across seeds without changing any recorded number.
    pub fn reset(&mut self) {
        with_store_mut!(self, s => s.reset());
    }

    /// Exhaustively checks the bijectivity invariants *and* the internal
    /// consistency of the backend's tables; intended for tests (O(n²)).
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidResolution`] describing the first
    /// violated invariant.
    pub fn validate(&self) -> Result<(), ModelError> {
        with_store!(self, s => s.validate())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::rng_from_seed;

    /// A sparse-backend map for the mirror tests below.
    fn sparse_map(n: usize) -> PortMap {
        PortMap::with_backend(n, PortBackend::Sparse).unwrap()
    }

    /// The two concrete backends, for equivalence loops.
    const BACKENDS: [PortBackend; 2] = [PortBackend::Dense, PortBackend::Sparse];

    #[test]
    fn rejects_tiny_network() {
        assert!(matches!(
            PortMap::new(1),
            Err(ModelError::NetworkTooSmall { n: 1 })
        ));
        assert!(matches!(
            PortMap::with_backend(0, PortBackend::Sparse),
            Err(ModelError::NetworkTooSmall { n: 0 })
        ));
    }

    #[test]
    fn dense_past_its_u16_range_is_a_typed_error() {
        // The size check comes before any allocation (34 GB of tables at
        // n = 65537), so the error must come back at once.
        let started = std::time::Instant::now();
        let too_large = ModelError::NetworkTooLarge {
            backend: PortBackend::Dense,
            n: 65537,
            limit: 65536,
        };
        let err = PortMap::with_backend(65537, PortBackend::Dense).unwrap_err();
        assert_eq!(err, too_large);
        let clique = Topology::clique(65537).unwrap();
        let err = PortMap::for_topology(&clique, PortBackend::Dense).unwrap_err();
        assert_eq!(err, too_large);
        assert!(started.elapsed() < std::time::Duration::from_secs(1));
        // An explicit backend is still never overridden.
        assert_eq!(PortBackend::Dense.resolve(1 << 20), PortBackend::Dense);
    }

    #[test]
    fn auto_heuristic_switches_at_the_dense_budget() {
        assert_eq!(PortBackend::Auto.resolve(64), PortBackend::Dense);
        assert_eq!(PortBackend::Auto.resolve(4096), PortBackend::Dense);
        assert_eq!(PortBackend::Auto.resolve(8192), PortBackend::Dense);
        assert_eq!(PortBackend::Auto.resolve(16384), PortBackend::Dense);
        assert_eq!(PortBackend::Auto.resolve(32768), PortBackend::Sparse);
        assert_eq!(PortBackend::Auto.resolve(65536), PortBackend::Sparse);
        // Explicit choices are never overridden.
        assert_eq!(PortBackend::Dense.resolve(1 << 20), PortBackend::Dense);
        assert_eq!(PortBackend::Sparse.resolve(2), PortBackend::Sparse);
        // The budgeted quantity matches the documented ~28 bytes per pair.
        let n = 8192u64;
        let per_pair = PortBackend::dense_table_bytes(8192) / (n * n);
        assert_eq!(per_pair, 27, "dense bytes per ordered pair drifted");
    }

    #[test]
    fn dense_table_bytes_is_overflow_safe_at_huge_n() {
        // n = 2²⁰ is exact: 20n(n−1) + 8n² + 4n fits comfortably in u64.
        let n = 1u64 << 20;
        assert_eq!(
            PortBackend::dense_table_bytes(1 << 20),
            20 * n * (n - 1) + 8 * n * n + 4 * n
        );
        assert_eq!(PortBackend::Auto.resolve(1 << 20), PortBackend::Sparse);
        // Near the u32 ceiling the true size exceeds u64::MAX only with
        // the multiplications done in u128; a wrapped u64 computation
        // would come out tiny and flip auto back to dense. The saturated
        // value must stay above the budget.
        let huge = (u32::MAX - 1) as usize;
        assert!(PortBackend::dense_table_bytes(huge) > PortBackend::AUTO_DENSE_CAP_BYTES);
        assert_eq!(PortBackend::Auto.resolve(huge), PortBackend::Sparse);
        // Monotonicity across the whole supported range: a larger network
        // never reports smaller tables (the signature a wrap would leave).
        let mut prev = 0u64;
        for shift in 1..32 {
            let bytes = PortBackend::dense_table_bytes(1usize << shift);
            assert!(bytes >= prev, "dense_table_bytes wrapped at 2^{shift}");
            prev = bytes;
        }
    }

    #[test]
    fn backend_is_reported_and_part_of_equality() {
        let dense = PortMap::with_backend(16, PortBackend::Dense).unwrap();
        let sparse = sparse_map(16);
        assert_eq!(dense.backend(), PortBackend::Dense);
        assert_eq!(sparse.backend(), PortBackend::Sparse);
        assert_ne!(dense, sparse, "maps on different backends compare equal");
        // Θ(n²) against O(n + links): at n = 16 dense's ~2 KB sits below
        // sparse's minimum tables and caches, so compare where the
        // asymptotics show.
        let dense = PortMap::with_backend(256, PortBackend::Dense).unwrap();
        let sparse = sparse_map(256);
        assert!(dense.resident_bytes() > sparse.resident_bytes());
    }

    #[test]
    fn dense_resident_bytes_are_its_four_u16_tables() {
        // Three (n − 1)-wide rows and one n-wide row of u16 per node, one
        // (n − 1)-wide row of u32 link ids, and the u32 degree table:
        // 12n² − 6n bytes on a fresh map. The link ids are zero-allocated,
        // so their pages count here before they are resident.
        for (n, bytes) in [(2, 36), (16, 2976), (1024, 12_576_768)] {
            let map = PortMap::with_backend(n, PortBackend::Dense).unwrap();
            assert_eq!(map.resident_bytes(), bytes, "n = {n}");
        }
    }

    #[test]
    fn resolve_is_idempotent() {
        for mut map in [PortMap::new(8).unwrap(), sparse_map(8)] {
            let mut r = RandomResolver;
            let mut rng = rng_from_seed(1);
            let d1 = map
                .resolve(NodeIndex(0), Port(2), &mut r, &mut rng)
                .unwrap();
            let d2 = map
                .resolve(NodeIndex(0), Port(2), &mut r, &mut rng)
                .unwrap();
            assert_eq!(d1, d2);
            assert_eq!(map.link_count(), 1);
            map.validate().unwrap();
        }
    }

    #[test]
    fn reverse_direction_is_fixed() {
        for mut map in [PortMap::new(8).unwrap(), sparse_map(8)] {
            let mut r = RandomResolver;
            let mut rng = rng_from_seed(2);
            let d = map
                .resolve(NodeIndex(3), Port(0), &mut r, &mut rng)
                .unwrap();
            // Sending back over the destination port must reach (3, 0).
            let back = map.resolve(d.node, d.port, &mut r, &mut rng).unwrap();
            assert_eq!(
                back,
                Endpoint {
                    node: NodeIndex(3),
                    port: Port(0)
                }
            );
            assert_eq!(map.link_count(), 1);
        }
    }

    #[test]
    fn full_resolution_forms_clique() {
        let n = 10;
        for mut map in [PortMap::new(n).unwrap(), sparse_map(n)] {
            let mut r = RandomResolver;
            let mut rng = rng_from_seed(3);
            for u in 0..n {
                for p in 0..n - 1 {
                    map.resolve(NodeIndex(u), Port(p), &mut r, &mut rng)
                        .unwrap();
                }
            }
            assert_eq!(map.link_count(), n * (n - 1) / 2);
            map.validate().unwrap();
            for u in 0..n {
                for v in 0..n {
                    assert_eq!(map.connected(NodeIndex(u), NodeIndex(v)), u != v);
                }
            }
        }
    }

    #[test]
    fn round_robin_is_deterministic() {
        let build = |backend| {
            let mut map = PortMap::with_backend(6, backend).unwrap();
            let mut r = RoundRobinResolver;
            let mut rng = rng_from_seed(9);
            let mut dests = Vec::new();
            for p in 0..5 {
                dests.push(
                    map.resolve(NodeIndex(0), Port(p), &mut r, &mut rng)
                        .unwrap(),
                );
            }
            (map.link_count(), dests)
        };
        assert_eq!(build(PortBackend::Dense), build(PortBackend::Dense));
        // Round-robin resolution consumes no randomness, so the sparse
        // backend resolves identically to the dense one.
        assert_eq!(build(PortBackend::Dense), build(PortBackend::Sparse));
    }

    #[test]
    fn round_robin_prefers_offset_neighbor() {
        let mut map = PortMap::new(6).unwrap();
        let mut r = RoundRobinResolver;
        let mut rng = rng_from_seed(9);
        let d = map
            .resolve(NodeIndex(2), Port(1), &mut r, &mut rng)
            .unwrap();
        assert_eq!(d.node, NodeIndex(4)); // (2 + 1 + 1) mod 6
    }

    #[test]
    fn connect_rejects_conflicts() {
        for mut map in [PortMap::new(5).unwrap(), sparse_map(5)] {
            map.connect(NodeIndex(0), Port(0), NodeIndex(1), Port(0))
                .unwrap();
            // same pair again
            assert!(map
                .connect(NodeIndex(0), Port(1), NodeIndex(1), Port(1))
                .is_err());
            // taken port
            assert!(map
                .connect(NodeIndex(0), Port(0), NodeIndex(2), Port(0))
                .is_err());
            // self link
            assert!(map
                .connect(NodeIndex(3), Port(0), NodeIndex(3), Port(1))
                .is_err());
            map.validate().unwrap();
        }
    }

    #[test]
    fn port_to_finds_the_link() {
        for mut map in [PortMap::new(5).unwrap(), sparse_map(5)] {
            map.connect(NodeIndex(0), Port(3), NodeIndex(4), Port(1))
                .unwrap();
            assert_eq!(map.port_to(NodeIndex(0), NodeIndex(4)), Some(Port(3)));
            assert_eq!(map.port_to(NodeIndex(4), NodeIndex(0)), Some(Port(1)));
            assert_eq!(map.port_to(NodeIndex(0), NodeIndex(1)), None);
        }
    }

    #[test]
    fn random_resolver_is_roughly_uniform() {
        // Port 0 of node 0 should hit each of the other 9 nodes ~1/9 of the
        // time across many fresh maps — on either backend.
        let n = 10;
        let trials = 18_000;
        for backend in BACKENDS {
            let mut counts = vec![0usize; n];
            let mut rng = rng_from_seed(77);
            for _ in 0..trials {
                let mut map = PortMap::with_backend(n, backend).unwrap();
                let mut r = RandomResolver;
                let d = map
                    .resolve(NodeIndex(0), Port(0), &mut r, &mut rng)
                    .unwrap();
                counts[d.node.0] += 1;
            }
            assert_eq!(counts[0], 0);
            for &c in &counts[1..] {
                let freq = c as f64 / trials as f64;
                assert!(
                    (freq - 1.0 / 9.0).abs() < 0.02,
                    "{backend}: frequency {freq} too far from 1/9"
                );
            }
        }
    }

    #[test]
    fn uniform_free_port_is_roughly_uniform() {
        // After port 0 of node 1 is taken, the free-port draw must cover
        // the remaining ports ~uniformly — on either backend.
        let n = 6;
        let trials = 18_000;
        for backend in BACKENDS {
            let mut counts = vec![0usize; n - 1];
            let mut rng = rng_from_seed(41);
            for _ in 0..trials {
                let mut map = PortMap::with_backend(n, backend).unwrap();
                map.connect(NodeIndex(1), Port(0), NodeIndex(2), Port(0))
                    .unwrap();
                let p = uniform_free_port(&map.view(), NodeIndex(1), &mut rng);
                assert_ne!(p, Port(0), "taken port drawn");
                counts[p.0] += 1;
            }
            for &c in &counts[1..] {
                let freq = c as f64 / trials as f64;
                assert!(
                    (freq - 0.25).abs() < 0.02,
                    "{backend}: frequency {freq} too far from 1/4"
                );
            }
        }
    }

    #[test]
    fn partitioned_permutations_track_connectivity() {
        let n = 7;
        for mut map in [PortMap::new(n).unwrap(), sparse_map(n)] {
            map.connect(NodeIndex(0), Port(2), NodeIndex(4), Port(5))
                .unwrap();
            map.connect(NodeIndex(0), Port(0), NodeIndex(6), Port(3))
                .unwrap();
            let view = map.view();
            assert_eq!(view.unconnected_count(NodeIndex(0)), n - 3);
            let peers: Vec<NodeIndex> = view.peers_of(NodeIndex(0)).collect();
            assert_eq!(peers.len(), 2);
            assert!(peers.contains(&NodeIndex(4)) && peers.contains(&NodeIndex(6)));
            for k in map.degree(NodeIndex(0))..map.ports_of(NodeIndex(0)) {
                let v = map.peer_at_pos(NodeIndex(0), k);
                assert!(!view.is_connected(NodeIndex(0), v) && v != NodeIndex(0));
                let p = map.port_at_pos(NodeIndex(0), k);
                assert!(!view.is_port_assigned(NodeIndex(0), p));
            }
            map.validate().unwrap();
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// Past the connected prefix, each node's peer permutation holds
        /// exactly its unconnected neighbors and its port permutation
        /// exactly its free ports: the invariant the default rule's
        /// uniformity rests on, on the dense, sparse and graph stores.
        #[test]
        fn unconnected_enumeration_is_exact_complement(
            n in 2usize..24,
            seed in 0u64..1000,
            ops in proptest::collection::vec((0usize..24, 0usize..23), 1..60),
        ) {
            let ring = Topology::ring(n).ok();
            let graph = ring.map(|t| PortMap::for_topology(&t, PortBackend::Auto).unwrap());
            let clique = [PortMap::new(n).unwrap(), sparse_map(n)];
            for mut map in clique.into_iter().chain(graph) {
                let mut rng = rng_from_seed(seed);
                for &(u, p) in &ops {
                    let u = NodeIndex(u % n);
                    let p = Port(p % map.ports_of(u));
                    map.resolve(u, p, &mut RandomResolver, &mut rng).unwrap();
                }
                for u in (0..n).map(NodeIndex) {
                    let past = map.degree(u)..map.ports_of(u);
                    let mut peers: Vec<usize> =
                        past.clone().map(|k| map.peer_at_pos(u, k).0).collect();
                    peers.sort_unstable();
                    let unconnected: Vec<usize> = (0..n)
                        .map(NodeIndex)
                        .filter(|&v| map.topo_adjacent(u, v) && !map.connected(u, v))
                        .map(|v| v.0)
                        .collect();
                    assert_eq!(peers, unconnected);
                    let mut ports: Vec<usize> = past.map(|k| map.port_at_pos(u, k).0).collect();
                    ports.sort_unstable();
                    let free: Vec<usize> = (0..map.ports_of(u))
                        .filter(|&p| map.peer(u, Port(p)).is_none())
                        .collect();
                    assert_eq!(ports, free);
                }
            }
        }
    }

    #[test]
    fn circulant_mapping_is_order_independent_and_valid() {
        // Resolve in two very different orders; the mapping must coincide
        // and satisfy all invariants — on either backend.
        let n = 9;
        for backend in BACKENDS {
            let resolve_all = |order: &mut dyn Iterator<Item = (usize, usize)>| {
                let mut map = PortMap::with_backend(n, backend).unwrap();
                let mut r = CirculantResolver;
                let mut rng = rng_from_seed(0);
                for (u, p) in order {
                    map.resolve(NodeIndex(u), Port(p), &mut r, &mut rng)
                        .unwrap();
                }
                map.validate().unwrap();
                map
            };
            let forward = resolve_all(&mut (0..n).flat_map(|u| (0..n - 1).map(move |p| (u, p))));
            let backward = resolve_all(
                &mut (0..n)
                    .rev()
                    .flat_map(|u| (0..n - 1).rev().map(move |p| (u, p))),
            );
            for u in 0..n {
                for p in 0..n - 1 {
                    assert_eq!(
                        forward.peer(NodeIndex(u), Port(p)),
                        backward.peer(NodeIndex(u), Port(p))
                    );
                }
            }
            assert_eq!(forward.link_count(), n * (n - 1) / 2);
        }
    }

    #[test]
    fn circulant_mapping_is_symmetric() {
        let n = 6;
        let mut map = PortMap::new(n).unwrap();
        let mut r = CirculantResolver;
        let mut rng = rng_from_seed(0);
        let d = map
            .resolve(NodeIndex(1), Port(2), &mut r, &mut rng)
            .unwrap();
        assert_eq!(d.node, NodeIndex(4)); // (1 + 2 + 1) mod 6
        assert_eq!(d.port, Port(2)); // 6 - 2 - 2
        let back = map.resolve(d.node, d.port, &mut r, &mut rng).unwrap();
        assert_eq!(back.node, NodeIndex(1));
        assert_eq!(back.port, Port(2));
        assert_eq!(map.link_count(), 1);
    }

    #[test]
    fn reset_restores_pristine_state() {
        let n = 12;
        for backend in BACKENDS {
            let mut map = PortMap::with_backend(n, backend).unwrap();
            let mut r = RandomResolver;
            let mut rng = rng_from_seed(5);
            for u in 0..n {
                for p in 0..3 {
                    map.resolve(NodeIndex(u), Port(p), &mut r, &mut rng)
                        .unwrap();
                }
            }
            assert!(map.link_count() > 0);
            map.reset();
            map.validate().unwrap();
            assert_eq!(map, PortMap::with_backend(n, backend).unwrap());
        }
    }

    #[test]
    fn reset_after_full_clique_restores_pristine_state() {
        let n = 9;
        for backend in BACKENDS {
            let mut map = PortMap::with_backend(n, backend).unwrap();
            let mut r = RandomResolver;
            let mut rng = rng_from_seed(8);
            for u in 0..n {
                for p in 0..n - 1 {
                    map.resolve(NodeIndex(u), Port(p), &mut r, &mut rng)
                        .unwrap();
                }
            }
            map.reset();
            assert_eq!(map, PortMap::with_backend(n, backend).unwrap());
            assert_eq!(map.link_count(), 0);
        }
    }

    #[test]
    fn reset_preserves_draw_schedule() {
        // The same resolver draws from the same RNG state must produce the
        // same mapping on a reset map as on a fresh one — on either
        // backend.
        let n = 16;
        for backend in BACKENDS {
            let mut recycled = PortMap::with_backend(n, backend).unwrap();
            let mut r = RandomResolver;
            let mut warmup_rng = rng_from_seed(123);
            for u in 0..n {
                recycled
                    .resolve(NodeIndex(u), Port(0), &mut r, &mut warmup_rng)
                    .unwrap();
            }
            recycled.reset();
            let mut fresh = PortMap::with_backend(n, backend).unwrap();
            let mut rng_a = rng_from_seed(42);
            let mut rng_b = rng_from_seed(42);
            for u in 0..n {
                for p in 0..4 {
                    let da = recycled
                        .resolve(NodeIndex(u), Port(p), &mut r, &mut rng_a)
                        .unwrap();
                    let db = fresh
                        .resolve(NodeIndex(u), Port(p), &mut r, &mut rng_b)
                        .unwrap();
                    assert_eq!(da, db);
                }
            }
            assert_eq!(recycled, fresh);
        }
    }

    #[test]
    fn reset_is_reusable_across_many_trials() {
        let n = 10;
        for backend in BACKENDS {
            let mut map = PortMap::with_backend(n, backend).unwrap();
            let mut r = RandomResolver;
            for trial in 0..20u64 {
                let mut rng = rng_from_seed(trial);
                for u in 0..n {
                    map.resolve(NodeIndex(u), Port(0), &mut r, &mut rng)
                        .unwrap();
                }
                map.validate().unwrap();
                map.reset();
                map.validate().unwrap();
            }
            assert_eq!(map, PortMap::with_backend(n, backend).unwrap());
        }
    }

    #[test]
    fn sparse_memory_stays_proportional_to_touched_state() {
        // Resolve one port per node at n = 2048: the sparse footprint must
        // be far below the budget's dense cost model (~28 bytes per
        // ordered pair).
        let n = 2048;
        let mut map = sparse_map(n);
        let mut r = RandomResolver;
        let mut rng = rng_from_seed(11);
        for u in 0..n {
            map.resolve(NodeIndex(u), Port(0), &mut r, &mut rng)
                .unwrap();
        }
        let sparse_bytes = map.resident_bytes();
        let dense_bytes = PortBackend::dense_table_bytes(n);
        assert!(
            sparse_bytes * 20 < dense_bytes,
            "sparse resident {sparse_bytes} B is not sublinear in the dense \
             {dense_bytes} B"
        );
        // And reset keeps the map reusable without growing it.
        map.reset();
        assert_eq!(map, sparse_map(n));
    }

    #[test]
    fn sparse_random_resolver_sequence_is_pinned() {
        // The sparse backend's RandomResolver destinations are a function
        // of the keyed base permutations; pin one sequence so an
        // accidental change to the Feistel network or key derivation is
        // caught (an intentional change invalidates recorded sparse
        // experiment numbers and must re-record this, mirroring the dense
        // golden policy).
        let n = 17;
        let mut map = sparse_map(n);
        let mut resolver = RandomResolver;
        let mut rng = rng_from_seed(0);
        let seq: Vec<usize> = (0..8)
            .map(|p| {
                map.resolve(NodeIndex(0), Port(p), &mut resolver, &mut rng)
                    .unwrap()
                    .node
                    .0
            })
            .collect();
        map.validate().unwrap();
        // Recorded on the initial sparse backend (keyed 4-round Feistel,
        // splitmix64 key schedule), n = 17, seed 0.
        const EXPECTED: [usize; 8] = [15, 11, 9, 2, 7, 14, 6, 10];
        assert_eq!(seq, EXPECTED, "sparse RandomResolver schedule drifted");

        // The peers above read neither the port permutations nor the
        // skip-`u` mapping of any node but 0. Pin every endpoint, peer
        // *and* port, of four ports per node at n = 1031, over two trials
        // with a reset between them.
        let n = 1031;
        let mut map = sparse_map(n);
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        for trial in 0..2 {
            let mut rng = rng_from_seed(trial);
            for (u, p) in (0..n).flat_map(|u| (0..4).map(move |p| (u, p))) {
                let e = map
                    .resolve(NodeIndex(u), Port(p), &mut resolver, &mut rng)
                    .unwrap();
                let word = ((e.node.0 as u64) << 32) | e.port.0 as u64;
                hash = (hash ^ word).wrapping_mul(0x0000_0100_0000_01b3);
            }
            map.validate().unwrap();
            map.reset();
        }
        // Recorded on the six-table sparse store (cycle-chasing reset).
        assert_eq!(
            hash, 0x4efd_ee43_8acf_e108,
            "sparse RandomResolver endpoints drifted"
        );
    }

    #[test]
    fn chunked_random_resolver_matches_the_sparse_pin() {
        // `PortBackend::Chunked` names the deleted chunked store and is
        // kept as an alias of sparse, so callers that still spell it get
        // the *identical* schedule sparse draws: the pinned sequence,
        // fresh and again after a reset with the memo caches still warm.
        assert_eq!(PortBackend::Chunked, PortBackend::Sparse);
        let n = 17;
        let mut map = PortMap::with_backend(n, PortBackend::Chunked).unwrap();
        assert_eq!(map.backend(), PortBackend::Sparse);
        let mut resolver = RandomResolver;
        let mut rng = rng_from_seed(0);
        let seq: Vec<usize> = (0..8)
            .map(|p| {
                map.resolve(NodeIndex(0), Port(p), &mut resolver, &mut rng)
                    .unwrap()
                    .node
                    .0
            })
            .collect();
        map.validate().unwrap();
        const EXPECTED: [usize; 8] = [15, 11, 9, 2, 7, 14, 6, 10];
        assert_eq!(seq, EXPECTED, "chunked alias diverged from sparse");
        // And a reset map redraws it verbatim.
        map.reset();
        let mut rng = rng_from_seed(0);
        let again: Vec<usize> = (0..8)
            .map(|p| {
                map.resolve(NodeIndex(0), Port(p), &mut resolver, &mut rng)
                    .unwrap()
                    .node
                    .0
            })
            .collect();
        map.validate().unwrap();
        assert_eq!(again, EXPECTED, "recycled schedule drifted");
    }

    #[test]
    fn edge_table_bytes_matches_dense_on_the_clique() {
        // One budget formula: at m = n(n−1)/2 the edge-aware bytes must
        // equal the clique formula exactly, keeping the auto boundary
        // untouched for every clique size.
        for n in [2usize, 16, 64, 4096, 16384, 32768, 1 << 20] {
            let m = (n as u64) * (n as u64 - 1) / 2;
            assert_eq!(
                PortBackend::edge_table_bytes(n, m),
                PortBackend::dense_table_bytes(n),
                "edge formula diverged from dense at n = {n}"
            );
        }
    }

    #[test]
    fn auto_is_edge_aware_on_sparse_topologies() {
        // A ring at n = 10⁶ has a million edges — trivially inside the
        // budget — while the clique formula at the same n is ~28 TB.
        // The edge-aware resolution must stop over-provisioning.
        let n = 1_000_000;
        assert_eq!(PortBackend::Auto.resolve(n), PortBackend::Sparse);
        assert_eq!(
            PortBackend::Auto.resolve_for(n, n as u64),
            PortBackend::Dense,
            "auto must budget sparse graphs by their real edge count"
        );
        // And the clique boundary is unchanged via resolve_for.
        let m = |n: u64| n * (n - 1) / 2;
        assert_eq!(
            PortBackend::Auto.resolve_for(16384, m(16384)),
            PortBackend::Dense
        );
        assert_eq!(
            PortBackend::Auto.resolve_for(32768, m(32768)),
            PortBackend::Sparse
        );
        // Explicit backends are never overridden.
        assert_eq!(PortBackend::Sparse.resolve_for(64, 64), PortBackend::Sparse);
    }

    #[test]
    fn topology_map_routes_cliques_to_clique_backends() {
        let topo = crate::topology::Topology::clique(16).unwrap();
        let map = PortMap::for_topology(&topo, PortBackend::Dense).unwrap();
        assert_eq!(map.backend(), PortBackend::Dense);
        assert!(map.topology().is_none(), "clique adjacency stays implicit");
        // Identical to the pre-topology constructor: nothing re-rolls.
        assert_eq!(map, PortMap::with_backend(16, PortBackend::Dense).unwrap());
        assert_eq!(map.topology_summary(), ("clique", 16, 120, 15));
        assert_eq!(
            map.topology_fingerprint(),
            crate::topology::Topology::clique(16).unwrap().fingerprint()
        );
    }

    #[test]
    fn graph_map_exposes_degree_port_spaces() {
        let topo = crate::topology::Topology::ring(8).unwrap();
        for backend in BACKENDS {
            let map = PortMap::for_topology(&topo, backend).unwrap();
            assert_eq!(map.backend(), backend, "stand-in backend mislabeled");
            assert_eq!(map.n(), 8);
            assert_eq!(map.ports_per_node(), 2);
            for u in 0..8 {
                assert_eq!(map.ports_of(NodeIndex(u)), 2);
            }
            assert!(map.topo_adjacent(NodeIndex(0), NodeIndex(7)));
            assert!(!map.topo_adjacent(NodeIndex(0), NodeIndex(3)));
            assert_eq!(map.topology_summary(), ("ring", 8, 8, 2));
        }
    }

    #[test]
    fn graph_map_resolution_respects_the_topology() {
        let topo = crate::topology::Topology::ring(8).unwrap();
        let mut map = PortMap::for_topology(&topo, PortBackend::Auto).unwrap();
        let mut r = RandomResolver;
        let mut rng = rng_from_seed(3);
        for u in 0..8 {
            for p in 0..2 {
                let d = map
                    .resolve(NodeIndex(u), Port(p), &mut r, &mut rng)
                    .unwrap();
                assert!(
                    topo.has_edge(NodeIndex(u), d.node),
                    "resolved to non-neighbor {} from {u}",
                    d.node
                );
                assert!(d.port.0 < 2);
            }
        }
        assert_eq!(map.link_count(), 8, "ring fully resolved");
        map.validate().unwrap();
        // Out-of-space ports and non-edges are rejected.
        assert!(matches!(
            map.resolve(NodeIndex(0), Port(2), &mut r, &mut rng),
            Err(ModelError::PortOutOfRange { .. })
        ));
        map.reset();
        assert!(map
            .connect(NodeIndex(0), Port(0), NodeIndex(3), Port(0))
            .is_err());
        map.connect(NodeIndex(0), Port(1), NodeIndex(1), Port(0))
            .unwrap();
        map.validate().unwrap();
    }

    #[test]
    fn graph_map_draw_schedule_is_backend_independent() {
        // On non-clique topologies both backends share one store,
        // so RNG-driven schedules are identical by construction.
        let topo = crate::topology::Topology::random_regular(16, 4, 5).unwrap();
        let schedule = |backend| {
            let mut map = PortMap::for_topology(&topo, backend).unwrap();
            let mut r = RandomResolver;
            let mut rng = rng_from_seed(9);
            let mut out = Vec::new();
            for u in 0..16 {
                for p in 0..4 {
                    out.push(
                        map.resolve(NodeIndex(u), Port(p), &mut r, &mut rng)
                            .unwrap(),
                    );
                }
            }
            map.validate().unwrap();
            out
        };
        assert_eq!(schedule(PortBackend::Dense), schedule(PortBackend::Sparse));
    }

    #[test]
    fn graph_map_reset_preserves_draw_schedule() {
        let topo = crate::topology::Topology::torus(4, 4).unwrap();
        let mut recycled = PortMap::for_topology(&topo, PortBackend::Auto).unwrap();
        let mut r = RandomResolver;
        let mut warmup = rng_from_seed(77);
        for u in 0..16 {
            recycled
                .resolve(NodeIndex(u), Port(0), &mut r, &mut warmup)
                .unwrap();
        }
        recycled.reset();
        recycled.validate().unwrap();
        let mut fresh = PortMap::for_topology(&topo, PortBackend::Auto).unwrap();
        assert_eq!(recycled, fresh);
        let mut rng_a = rng_from_seed(42);
        let mut rng_b = rng_from_seed(42);
        for u in 0..16 {
            for p in 0..4 {
                let da = recycled
                    .resolve(NodeIndex(u), Port(p), &mut r, &mut rng_a)
                    .unwrap();
                let db = fresh
                    .resolve(NodeIndex(u), Port(p), &mut r, &mut rng_b)
                    .unwrap();
                assert_eq!(da, db);
            }
        }
        assert_eq!(recycled, fresh);
    }

    #[test]
    fn out_of_range_reads_are_false_or_none() {
        let ring = Topology::ring(8).unwrap();
        let maps = [
            PortMap::with_backend(8, PortBackend::Dense).unwrap(),
            sparse_map(8),
            PortMap::for_topology(&ring, PortBackend::Sparse).unwrap(),
        ];
        for mut map in maps {
            map.connect(NodeIndex(1), Port(0), NodeIndex(0), Port(0))
                .unwrap();
            let (u, past) = (NodeIndex(0), NodeIndex(8));
            let past_port = Port(map.ports_of(u));
            assert!(!map.connected(u, past) && !map.connected(past, u));
            assert_eq!(map.peer(u, past_port), None);
            assert_eq!(map.peer(past, Port(0)), None);
            assert_eq!(map.port_to(u, past), None);
            assert_eq!(map.port_to(past, u), None);
            let view = map.view();
            assert!(!view.is_connected(u, past));
            assert!(!view.is_port_assigned(u, past_port));
            assert!(!view.is_port_assigned(past, Port(0)));
            // In-range reads still see the link.
            assert!(view.is_connected(u, NodeIndex(1)));
            assert_eq!(map.port_to(u, NodeIndex(1)), Some(Port(0)));
        }
    }

    #[test]
    fn out_of_range_errors() {
        for mut map in [PortMap::new(4).unwrap(), sparse_map(4)] {
            let mut r = RandomResolver;
            let mut rng = rng_from_seed(0);
            assert!(matches!(
                map.resolve(NodeIndex(7), Port(0), &mut r, &mut rng),
                Err(ModelError::NodeOutOfRange { .. })
            ));
            assert!(matches!(
                map.resolve(NodeIndex(0), Port(3), &mut r, &mut rng),
                Err(ModelError::PortOutOfRange { .. })
            ));
        }
    }
}

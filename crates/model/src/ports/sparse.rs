//! The sparse backend: O(total links) memory instead of `Θ(n²)`.
//!
//! Every table the dense backend materializes is replaced by an
//! open-addressing hash table ([`OpenTable`]) holding only *touched*
//! state, and each node's untouched peer/port permutations are represented
//! implicitly by a keyed pseudo-random permutation ([`KeyedPerm`], a
//! small-domain Feistel network with cycle-walking) evaluated on demand:
//!
//! * the forward table and the peer→port index store one entry per fixed
//!   half-link;
//! * the partitioned permutations store only their *deviation* from the
//!   node's base permutation — a position→value override and its inverse,
//!   with entries removed the moment a slot returns to its base value, so
//!   "untouched" is always represented by *absence*.
//!
//! The partial-Fisher–Yates structure is identical to the dense backend's
//! (the first `degree(u)` positions of each permutation are the connected
//! prefix), so `RandomResolver` and `uniform_free_port` remain one uniform
//! indexed draw — O(1) expected per draw, with the base permutation
//! evaluated in O(1) expected time and at most O(degree) override entries
//! per node. Memory is O(n) fixed (the degree table) plus O(links) hashed
//! entries, which is what reopens `n = 65536+`: there the dense tables
//! would need 8 bytes per ordered node pair (32 GiB at `n = 65536`), and
//! past 65536 nodes their `u16` entries run out.
//!
//! # The warm path
//!
//! Two structures close the gap to the dense backend's flat reads on
//! recycled (warm) trials:
//!
//! * The six hashed tables are [`OpenTable`]s — one multiplicative hash,
//!   linear probing over adjacent key/value pairs, backward-shift deletion
//!   — instead of `std::HashMap`s, cutting the per-operation constant on
//!   the insert/remove churn every promote performs.
//! * Base-permutation evaluations are memoized in four direct-mapped
//!   caches ([`RowCaches`]). A base permutation is a *pure function* of
//!   `(n, node)`, so cached outputs are never invalidated — not by links,
//!   not by [`PortStore::reset`] — and repeated draws along a node's hot
//!   row skip the 4-round Feistel network entirely. The caches are
//!   interior-mutable (`Cell`) so hits stay `&self`, and are excluded from
//!   equality: they are a transparent view of pure computation, not state.
//!
//! The enumeration *order* of unconnected peers and free ports differs
//! from the dense backend (keyed pseudo-random versus ascending), so
//! RNG-driven resolvers draw different — identically distributed —
//! mappings. RNG-free resolvers (round-robin, circulant, the lower-bound
//! adversaries) observe identical resolutions on both backends; the
//! dense-vs-sparse equivalence suite pins exactly that.

use std::cell::Cell;

use super::perm::{mix64, KeyedPerm};
use super::table::OpenTable;
use super::{Endpoint, Port, PortStore};
use crate::error::ModelError;
use crate::NodeIndex;

/// Key-stream tweak separating the peer-permutation keys from the
/// port-permutation keys.
const PEER_STREAM: u64 = 0x7065_6572_7065_726d; // "peerperm"
/// Key-stream tweak for the port permutations.
const PORT_STREAM: u64 = 0x706f_7274_7065_726d; // "portperm"

/// Packs a `(node, index)` coordinate into one map key.
#[inline]
fn key(u: usize, x: usize) -> u64 {
    ((u as u64) << 32) | x as u64
}

/// Packs an endpoint into a forward-table value.
#[inline]
fn enc(v: usize, p: usize) -> u64 {
    ((v as u64) << 32) | p as u64
}

/// A direct-mapped memo cache for one base-permutation direction: slot
/// `hash(key)` holds the last `(key, output)` pair that landed there.
///
/// Collisions simply overwrite — the cache is pure memoization of a
/// deterministic function, so a stale-slot miss costs one recomputation
/// and nothing else.
#[derive(Debug, Clone)]
struct PermCache {
    slots: Vec<Cell<(u64, u32)>>,
    /// `64 − log2(slots.len())`, for Fibonacci indexing by high bits.
    shift: u32,
    /// Lifetime hits — a backend-observability counter (interior-mutable
    /// so hits stay `&self`, like the slots themselves).
    hits: Cell<u64>,
    /// Lifetime misses (including stale-slot overwrites).
    misses: Cell<u64>,
}

/// Unused-key marker: real keys pack a node index `< u32::MAX` in the
/// high half, so all-ones never occurs.
const NO_KEY: u64 = u64::MAX;

impl PermCache {
    fn new(slots: usize) -> Self {
        debug_assert!(slots.is_power_of_two());
        PermCache {
            slots: vec![Cell::new((NO_KEY, 0)); slots],
            shift: 64 - slots.trailing_zeros(),
            hits: Cell::new(0),
            misses: Cell::new(0),
        }
    }

    #[inline]
    fn get_or(&self, key: u64, compute: impl FnOnce() -> u32) -> u32 {
        let idx = (key.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> self.shift) as usize;
        let (k, v) = self.slots[idx].get();
        if k == key {
            self.hits.set(self.hits.get() + 1);
            return v;
        }
        self.misses.set(self.misses.get() + 1);
        let v = compute();
        self.slots[idx].set((key, v));
        v
    }

    fn resident_bytes(&self) -> u64 {
        (self.slots.len() * std::mem::size_of::<Cell<(u64, u32)>>()) as u64
    }
}

/// The four memo caches: forward and inverse, peer and port permutations.
#[derive(Debug, Clone)]
struct RowCaches {
    peer_fwd: PermCache,
    peer_inv: PermCache,
    port_fwd: PermCache,
    port_inv: PermCache,
}

impl RowCaches {
    fn new(n: usize) -> Self {
        // Scale with the network but stay bounded: ~4 slots per node keeps
        // the per-trial working set (promotes touch a handful of positions
        // per link) mostly resident, while the clamp caps the fixed
        // footprint at 2 MiB per direction even at n = 131072+ and keeps
        // tiny maps smaller than their dense twins.
        let slots = (4 * n).next_power_of_two().clamp(64, 1 << 17);
        RowCaches {
            peer_fwd: PermCache::new(slots),
            peer_inv: PermCache::new(slots),
            port_fwd: PermCache::new(slots),
            port_inv: PermCache::new(slots),
        }
    }

    fn resident_bytes(&self) -> u64 {
        self.peer_fwd.resident_bytes()
            + self.peer_inv.resident_bytes()
            + self.port_fwd.resident_bytes()
            + self.port_inv.resident_bytes()
    }

    /// Lifetime `(hits, misses)` summed over the four directions.
    fn counter_totals(&self) -> (u64, u64) {
        let caches = [
            &self.peer_fwd,
            &self.peer_inv,
            &self.port_fwd,
            &self.port_inv,
        ];
        (
            caches.iter().map(|c| c.hits.get()).sum(),
            caches.iter().map(|c| c.misses.get()).sum(),
        )
    }
}

/// The sparse storage backend (see the module docs).
#[derive(Debug, Clone)]
pub(super) struct SparseStore {
    n: usize,
    /// Precomputed Feistel half-width for the shared domain `n − 1`.
    half_bits: u32,
    /// Links incident to each node — the only Θ(n) table.
    degree: Vec<u32>,
    /// Total number of links fixed so far.
    links: usize,
    /// Nodes with at least one link (pushed on the 0 → 1 transition).
    dirty: Vec<u32>,
    /// `(u, i) → (v << 32) | j` for each assigned port `i` of `u`.
    fwd: OpenTable<u64>,
    /// `(u, v) → i` iff `u`'s port `i` connects to `v`.
    by_peer: OpenTable<u32>,
    /// Peer-permutation overrides: `(u, k) → v` where position `k` of
    /// `u`'s peer permutation deviates from the base permutation.
    peer_val: OpenTable<u32>,
    /// Inverse overrides: `(u, v) → k`.
    peer_pos: OpenTable<u32>,
    /// Port-permutation overrides: `(u, k) → p`.
    port_val: OpenTable<u32>,
    /// Inverse overrides: `(u, p) → k`.
    port_pos: OpenTable<u32>,
    /// Pure-function memo caches — excluded from equality and never
    /// invalidated (see the module docs).
    cache: RowCaches,
}

/// Everything but the memo caches: two stores are equal iff they hold the
/// same mapping in the same internal state. Cache contents are a view of
/// pure computation and must not affect equality (a warm recycled map
/// would otherwise never equal a fresh one).
impl PartialEq for SparseStore {
    fn eq(&self, other: &Self) -> bool {
        self.n == other.n
            && self.links == other.links
            && self.degree == other.degree
            && self.dirty == other.dirty
            && self.fwd == other.fwd
            && self.by_peer == other.by_peer
            && self.peer_val == other.peer_val
            && self.peer_pos == other.peer_pos
            && self.port_val == other.port_val
            && self.port_pos == other.port_pos
    }
}

impl Eq for SparseStore {}

impl SparseStore {
    /// Creates an empty sparse store for an `n`-node clique (`n ≥ 2`,
    /// validated by the facade). O(n) time and memory — no quadratic
    /// initialization to pay or amortize.
    pub(super) fn new(n: usize) -> Self {
        debug_assert!(n >= 2);
        debug_assert!(n < u32::MAX as usize, "node indices must fit in u32");
        SparseStore {
            n,
            half_bits: KeyedPerm::half_bits_for(n - 1),
            degree: vec![0; n],
            links: 0,
            dirty: Vec::new(),
            fwd: OpenTable::new(),
            by_peer: OpenTable::new(),
            peer_val: OpenTable::new(),
            peer_pos: OpenTable::new(),
            port_val: OpenTable::new(),
            port_pos: OpenTable::new(),
            cache: RowCaches::new(n),
        }
    }

    /// Node `u`'s keyed base permutation over peer *positions*.
    #[inline]
    fn peer_perm(&self, u: usize) -> KeyedPerm {
        KeyedPerm::with_half_bits(self.n - 1, self.half_bits, mix64(u as u64 ^ PEER_STREAM))
    }

    /// Node `u`'s keyed base permutation over port *positions*.
    #[inline]
    fn port_perm(&self, u: usize) -> KeyedPerm {
        KeyedPerm::with_half_bits(self.n - 1, self.half_bits, mix64(u as u64 ^ PORT_STREAM))
    }

    /// The base (untouched) peer at position `k` of `u`'s permutation: the
    /// keyed permutation composed with the skip-`u` enumeration of peers.
    /// Memoized — a pure function of `(n, u, k)`.
    #[inline]
    fn base_peer(&self, u: usize, k: usize) -> u32 {
        self.cache.peer_fwd.get_or(key(u, k), || {
            let v = self.peer_perm(u).apply(k);
            (v + usize::from(v >= u)) as u32
        })
    }

    /// The base position of peer `v` in `u`'s permutation. Memoized.
    #[inline]
    fn base_peer_pos(&self, u: usize, v: usize) -> u32 {
        self.cache.peer_inv.get_or(key(u, v), || {
            self.peer_perm(u).invert(v - usize::from(v > u)) as u32
        })
    }

    /// The base (untouched) port at position `k` of `u`'s permutation.
    /// Memoized.
    #[inline]
    fn base_port(&self, u: usize, k: usize) -> u32 {
        self.cache
            .port_fwd
            .get_or(key(u, k), || self.port_perm(u).apply(k) as u32)
    }

    /// The base position of port `p` in `u`'s permutation. Memoized.
    #[inline]
    fn base_port_pos(&self, u: usize, p: usize) -> u32 {
        self.cache
            .port_inv
            .get_or(key(u, p), || self.port_perm(u).invert(p) as u32)
    }

    /// The peer at position `k`: the override if the slot was displaced,
    /// the base permutation otherwise.
    #[inline]
    fn peer_at(&self, u: usize, k: usize) -> u32 {
        match self.peer_val.get(key(u, k)) {
            Some(v) => v,
            None => self.base_peer(u, k),
        }
    }

    /// The position of peer `v` in `u`'s permutation.
    #[inline]
    fn pos_of_peer(&self, u: usize, v: usize) -> u32 {
        match self.peer_pos.get(key(u, v)) {
            Some(k) => k,
            None => self.base_peer_pos(u, v),
        }
    }

    /// The port at position `k`.
    #[inline]
    fn port_at(&self, u: usize, k: usize) -> u32 {
        match self.port_val.get(key(u, k)) {
            Some(p) => p,
            None => self.base_port(u, k),
        }
    }

    /// The position of port `p` in `u`'s permutation.
    #[inline]
    fn pos_of_port(&self, u: usize, p: usize) -> u32 {
        match self.port_pos.get(key(u, p)) {
            Some(k) => k,
            None => self.base_port_pos(u, p),
        }
    }

    /// Writes position `k` of `u`'s peer permutation, removing the
    /// override when the slot returns to its base value so the maps hold
    /// only genuine deviations.
    #[inline]
    fn set_peer_at(&mut self, u: usize, k: usize, v: u32) {
        if self.base_peer(u, k) == v {
            self.peer_val.remove(key(u, k));
        } else {
            self.peer_val.insert(key(u, k), v);
        }
    }

    /// Inverse of [`SparseStore::set_peer_at`].
    #[inline]
    fn set_pos_of_peer(&mut self, u: usize, v: usize, k: u32) {
        if self.base_peer_pos(u, v) == k {
            self.peer_pos.remove(key(u, v));
        } else {
            self.peer_pos.insert(key(u, v), k);
        }
    }

    /// Writes position `k` of `u`'s port permutation.
    #[inline]
    fn set_port_at(&mut self, u: usize, k: usize, p: u32) {
        if self.base_port(u, k) == p {
            self.port_val.remove(key(u, k));
        } else {
            self.port_val.insert(key(u, k), p);
        }
    }

    /// Inverse of [`SparseStore::set_port_at`].
    #[inline]
    fn set_pos_of_port(&mut self, u: usize, p: usize, k: u32) {
        if self.base_port_pos(u, p) == k {
            self.port_pos.remove(key(u, p));
        } else {
            self.port_pos.insert(key(u, p), k);
        }
    }

    /// Swaps peer `v` and port `p` into the connected prefix of `u`'s
    /// partitioned permutations — the same two partial-Fisher–Yates steps
    /// as the dense backend, through the override maps.
    fn promote(&mut self, u: usize, v: usize, p: usize) {
        let d = self.degree[u] as usize;

        let k = self.pos_of_peer(u, v) as usize;
        debug_assert!(k >= d, "promoting an already-connected peer");
        let w = self.peer_at(u, d);
        self.set_peer_at(u, d, v as u32);
        self.set_peer_at(u, k, w);
        self.set_pos_of_peer(u, v, d as u32);
        self.set_pos_of_peer(u, w as usize, k as u32);

        let kp = self.pos_of_port(u, p) as usize;
        debug_assert!(kp >= d, "promoting an already-assigned port");
        let q = self.port_at(u, d);
        self.set_port_at(u, d, p as u32);
        self.set_port_at(u, kp, q);
        self.set_pos_of_port(u, p, d as u32);
        self.set_pos_of_port(u, q as usize, kp as u32);
    }
}

impl PortStore for SparseStore {
    #[inline]
    fn n(&self) -> usize {
        self.n
    }

    // The implicit clique's port space: every node owns `n − 1` ports
    // and any `v ≠ u` is a potential peer.
    #[inline]
    fn ports_of(&self, _u: NodeIndex) -> usize {
        self.n - 1
    }

    #[inline]
    fn topo_adjacent(&self, u: NodeIndex, v: NodeIndex) -> bool {
        u != v
    }

    #[inline]
    fn link_count(&self) -> usize {
        self.links
    }

    #[inline]
    fn degree(&self, u: NodeIndex) -> usize {
        self.degree[u.0] as usize
    }

    #[inline]
    fn connected(&self, u: NodeIndex, v: NodeIndex) -> bool {
        self.by_peer.contains_key(key(u.0, v.0))
    }

    #[inline]
    fn peer(&self, u: NodeIndex, p: Port) -> Option<Endpoint> {
        self.fwd.get(key(u.0, p.0)).map(|enc| Endpoint {
            node: NodeIndex((enc >> 32) as usize),
            port: Port((enc & 0xFFFF_FFFF) as usize),
        })
    }

    #[inline]
    fn port_to(&self, u: NodeIndex, v: NodeIndex) -> Option<Port> {
        self.by_peer.get(key(u.0, v.0)).map(|p| Port(p as usize))
    }

    #[inline]
    fn peer_at_pos(&self, u: NodeIndex, k: usize) -> NodeIndex {
        NodeIndex(self.peer_at(u.0, k) as usize)
    }

    #[inline]
    fn port_at_pos(&self, u: NodeIndex, k: usize) -> Port {
        Port(self.port_at(u.0, k) as usize)
    }

    fn insert_link(&mut self, u: NodeIndex, pu: Port, v: NodeIndex, pv: Port) {
        let (u, pu, v, pv) = (u.0, pu.0, v.0, pv.0);
        if self.degree[u] == 0 {
            self.dirty.push(u as u32);
        }
        if self.degree[v] == 0 {
            self.dirty.push(v as u32);
        }
        self.fwd.insert(key(u, pu), enc(v, pv));
        self.fwd.insert(key(v, pv), enc(u, pu));
        self.by_peer.insert(key(u, v), pu as u32);
        self.by_peer.insert(key(v, u), pv as u32);
        self.promote(u, v, pu);
        self.promote(v, u, pv);
        self.degree[u] += 1;
        self.degree[v] += 1;
        self.links += 1;
    }

    /// Un-connects everything in O(touched-state): only dirty rows are
    /// visited, each restored in O(degree) by the same cycle-chasing walk
    /// as the dense backend — every swap parks one entry at its *base*
    /// position, which removes its overrides, so a fully reset store holds
    /// no hashed entries at all and is `==` to a freshly constructed one.
    fn reset(&mut self) {
        for u in std::mem::take(&mut self.dirty) {
            let u = u as usize;
            let d = self.degree[u] as usize;
            // The connected peers and assigned ports are exactly the first
            // d entries of the partitioned permutations.
            for k in 0..d {
                let v = self.peer_at(u, k);
                self.by_peer.remove(key(u, v as usize));
                let p = self.port_at(u, k);
                self.fwd.remove(key(u, p as usize));
            }
            self.degree[u] = 0;
            // Chase displacement cycles from the prefix (see the dense
            // backend's `chase_row` for the argument that this restores
            // the whole row): each swap returns one value to its base slot,
            // shrinking the override maps until they are empty for u.
            for k in 0..d {
                loop {
                    let v = self.peer_at(u, k) as usize;
                    let home = self.base_peer_pos(u, v) as usize;
                    if home == k {
                        break;
                    }
                    let w = self.peer_at(u, home);
                    self.set_peer_at(u, k, w);
                    self.set_peer_at(u, home, v as u32);
                    self.set_pos_of_peer(u, v, home as u32);
                    self.set_pos_of_peer(u, w as usize, k as u32);
                }
                loop {
                    let p = self.port_at(u, k) as usize;
                    let home = self.base_port_pos(u, p) as usize;
                    if home == k {
                        break;
                    }
                    let q = self.port_at(u, home);
                    self.set_port_at(u, k, q);
                    self.set_port_at(u, home, p as u32);
                    self.set_pos_of_port(u, p, home as u32);
                    self.set_pos_of_port(u, q as usize, k as u32);
                }
            }
        }
        self.links = 0;
        // Apply the shrink-if-oversized policy to every (now empty) hashed
        // table. The memo caches are deliberately *not* touched: their
        // contents are pure function outputs that stay valid across
        // trials, which is where the recycled warm path gets its Feistel
        // hits from.
        self.fwd.end_trial();
        self.by_peer.end_trial();
        self.peer_val.end_trial();
        self.peer_pos.end_trial();
        self.port_val.end_trial();
        self.port_pos.end_trial();
    }

    fn validate(&self) -> Result<(), ModelError> {
        let fail = |u: usize, p: usize, reason: &'static str| {
            Err(ModelError::InvalidResolution {
                node: NodeIndex(u),
                port: Port(p),
                reason,
            })
        };
        let ports = self.n - 1;
        // Hashed-table bookkeeping: one entry per half-link in each table.
        if self.fwd.len() != 2 * self.links || self.by_peer.len() != 2 * self.links {
            return fail(0, 0, "link count out of sync");
        }
        for (k, e) in self.fwd.iter() {
            let (u, i) = ((k >> 32) as usize, (k & 0xFFFF_FFFF) as usize);
            let (v, j) = ((e >> 32) as usize, (e & 0xFFFF_FFFF) as usize);
            if u >= self.n || v >= self.n || i >= ports || j >= ports {
                return fail(u, i, "forward entry out of range");
            }
            if v == u {
                return fail(u, i, "self-link");
            }
            if self.fwd.get(key(v, j)) != Some(enc(u, i)) {
                return fail(u, i, "asymmetric link");
            }
            if self.by_peer.get(key(u, v)) != Some(i as u32) {
                return fail(u, i, "peer index out of sync");
            }
        }
        // Every override is a genuine deviation: the
        // remove-on-return-to-base discipline keeps "untouched" == absent.
        for (k, v) in self.peer_val.iter() {
            let (u, pos) = ((k >> 32) as usize, (k & 0xFFFF_FFFF) as usize);
            if self.base_peer(u, pos) == v {
                return fail(u, 0, "redundant peer override");
            }
        }
        for (k, pos) in self.peer_pos.iter() {
            let (u, v) = ((k >> 32) as usize, (k & 0xFFFF_FFFF) as usize);
            if self.base_peer_pos(u, v) == pos {
                return fail(u, 0, "redundant peer position override");
            }
        }
        for (k, p) in self.port_val.iter() {
            let (u, pos) = ((k >> 32) as usize, (k & 0xFFFF_FFFF) as usize);
            if self.base_port(u, pos) == p {
                return fail(u, 0, "redundant port override");
            }
        }
        for (k, pos) in self.port_pos.iter() {
            let (u, p) = ((k >> 32) as usize, (k & 0xFFFF_FFFF) as usize);
            if self.base_port_pos(u, p) == pos {
                return fail(u, 0, "redundant port position override");
            }
        }
        // Exhaustive per-node partition and inverse checks — mirrors the
        // dense validate (O(n²); intended for tests, like the facade docs
        // say).
        for u in 0..self.n {
            let d = self.degree[u] as usize;
            let mut assigned = 0usize;
            for i in 0..ports {
                if self.fwd.contains_key(key(u, i)) {
                    assigned += 1;
                }
            }
            if assigned != d {
                return fail(u, 0, "degree out of sync with forward table");
            }
            for k in 0..ports {
                let v = self.peer_at(u, k);
                if self.pos_of_peer(u, v as usize) != k as u32 {
                    return fail(u, 0, "peer permutation/position out of sync");
                }
                let connected = self.by_peer.contains_key(key(u, v as usize));
                if connected != (k < d) {
                    return fail(u, 0, "peer permutation partition broken");
                }
                let p = self.port_at(u, k);
                if self.pos_of_port(u, p as usize) != k as u32 {
                    return fail(u, 0, "port permutation/position out of sync");
                }
                let taken = self.fwd.contains_key(key(u, p as usize));
                if taken != (k < d) {
                    return fail(u, 0, "port permutation partition broken");
                }
            }
        }
        if let Err(reason) = super::validate_dirty_list(&self.degree, &self.dirty) {
            return fail(0, 0, reason);
        }
        Ok(())
    }

    fn resident_bytes(&self) -> u64 {
        // Each OpenTable reports its allocated slot slab exactly, so
        // recycled trials see *retained* capacity, not live entries. The
        // memo caches are real fixed allocations and count too.
        (self.degree.capacity() * 4 + self.dirty.capacity() * 4) as u64
            + self.fwd.resident_bytes()
            + self.by_peer.resident_bytes()
            + self.peer_val.resident_bytes()
            + self.peer_pos.resident_bytes()
            + self.port_val.resident_bytes()
            + self.port_pos.resident_bytes()
            + self.cache.resident_bytes()
    }

    fn counters(&self) -> crate::trace::BackendCounters {
        let (memo_hits, memo_misses) = self.cache.counter_totals();
        crate::trace::BackendCounters {
            memo_hits,
            memo_misses,
            table_grows: self.fwd.growth_count()
                + self.by_peer.growth_count()
                + self.peer_val.growth_count()
                + self.peer_pos.growth_count()
                + self.port_val.growth_count()
                + self.port_pos.growth_count(),
            rows_materialized: 0,
        }
    }
}

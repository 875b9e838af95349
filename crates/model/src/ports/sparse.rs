//! The sparse backend: O(total links) memory instead of `Θ(n²)`.
//!
//! Every table the dense backend materializes is replaced by an
//! open-addressing hash table ([`OpenTable`]) holding only *touched*
//! state, and each node's untouched peer/port permutations are represented
//! implicitly by a keyed pseudo-random permutation ([`KeyedPerm`], a
//! small-domain Feistel network with cycle-walking) evaluated on demand.
//! One type, [`SparsePerm`], holds a partitioned permutation for every
//! node; the store keeps one for peers and one for ports:
//!
//! * each stores only its *deviation* from the node's base permutation —
//!   a position→value override and its inverse, with entries removed the
//!   moment a slot returns to its base value, so "untouched" is always
//!   represented by *absence*;
//! * the peer permutation ranges over raw indices `0..n−1`, and the store
//!   maps raw index `r` to node `r + [r ≥ u]`, skipping `u` itself.
//!
//! The partial-Fisher–Yates structure is identical to the dense backend's
//! (the first `degree(u)` positions of each permutation are the connected
//! prefix, so `RandomResolver` and `uniform_free_port` remain one uniform
//! indexed draw — O(1) expected per draw, with the base permutation
//! evaluated in O(1) expected time and at most O(degree) override entries
//! per node). As in the dense backend, fixing a link moves the peer and
//! the local port to the same prefix position, so `connected` and
//! `port_to` read the link off the permutations. Each link's id is its
//! index in a flat `ends` table holding its two endpoints; the forward
//! table maps a port to that id, and `peer` reads the far endpoint there.
//! Memory is O(n) fixed (the degree table) plus O(links) hashed and flat
//! entries, which is what reopens
//! `n = 65536+`: there the dense tables would need 8 bytes per ordered
//! node pair (32 GiB at `n = 65536`), and past 65536 nodes their `u16`
//! entries run out.
//!
//! # The warm path
//!
//! * The five hashed tables (the forward table and the two override
//!   tables of each permutation) are [`OpenTable`]s — one multiplicative
//!   hash, linear probing over adjacent key/value pairs, backward-shift
//!   deletion — instead of `std::HashMap`s, cutting the per-operation
//!   constant on the insert/remove churn every promote performs.
//! * Base-permutation evaluations are memoized in two direct-mapped caches
//!   per permutation ([`PermCache`]). A base permutation is a *pure
//!   function* of `(n, node)`, so cached outputs are never invalidated —
//!   not by links, not by [`PortStore::reset`] — and repeated draws along
//!   a node's hot row skip the 4-round Feistel network entirely. The
//!   caches are interior-mutable (`Cell`) so hits stay `&self`, and are
//!   excluded from equality: they are a transparent view of pure
//!   computation, not state.
//! * Reset clears the tables: an empty override table *is* the base
//!   permutation, so a cleared store is a fresh one.
//!   [`OpenTable::end_trial`]'s shrink policy keeps the sequential clear
//!   O(touched) amortized.
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
use super::{Endpoint, LinkAt, Port, PortState, PortStore};
use crate::error::ModelError;
use crate::NodeIndex;

/// Key-stream tweak separating the peer-permutation keys from the
/// port-permutation keys.
const PEER_STREAM: u64 = 0x7065_6572_7065_726d; // "peerperm"
/// Key-stream tweak for the port permutations.
const PORT_STREAM: u64 = 0x706f_7274_7065_726d; // "portperm"

/// Packs a `(node, index)` coordinate into one map key (and an endpoint
/// into an `ends` entry).
#[inline]
fn key(u: usize, x: usize) -> u64 {
    ((u as u64) << 32) | x as u64
}

/// Splits a packed key back into its `(node, index)` halves.
#[inline]
fn unkey(k: u64) -> (usize, usize) {
    ((k >> 32) as usize, (k & 0xFFFF_FFFF) as usize)
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

/// One partitioned permutation of `0..m` per node, stored as its
/// deviation from the node's keyed base permutation (see the module
/// docs).
#[derive(Debug, Clone)]
struct SparsePerm {
    /// Domain size, `n − 1` for both the peer and the port permutations.
    m: usize,
    /// Precomputed Feistel half-width for the domain `m`.
    half_bits: u32,
    /// Tweak that keys this permutation family apart from the other.
    stream: u64,
    /// `(u, k) → x` where position `k` of `u`'s permutation deviates from
    /// the base permutation.
    val: OpenTable<u32>,
    /// Inverse overrides: `(u, x) → k`.
    pos: OpenTable<u32>,
    /// Memoized base permutation, forward and inverse — excluded from
    /// equality and never invalidated.
    fwd_memo: PermCache,
    inv_memo: PermCache,
}

/// Equal iff the overrides are: the memo caches are a view of pure
/// computation (a warm recycled map would otherwise never equal a fresh
/// one).
impl PartialEq for SparsePerm {
    fn eq(&self, other: &Self) -> bool {
        self.val == other.val && self.pos == other.pos
    }
}

impl Eq for SparsePerm {}

impl SparsePerm {
    /// The base permutations of `0..n−1` for `n` nodes, keyed by `stream`.
    fn new(n: usize, stream: u64) -> Self {
        // Scale with the network but stay bounded: ~4 slots per node keeps
        // the per-trial working set (promotes touch a handful of positions
        // per link) mostly resident, while the clamp caps the fixed
        // footprint at 2 MiB per direction even at n = 131072+ and keeps
        // tiny maps smaller than their dense twins.
        let slots = (4 * n).next_power_of_two().clamp(64, 1 << 17);
        SparsePerm {
            m: n - 1,
            half_bits: KeyedPerm::half_bits_for(n - 1),
            stream,
            val: OpenTable::new(),
            pos: OpenTable::new(),
            fwd_memo: PermCache::new(slots),
            inv_memo: PermCache::new(slots),
        }
    }

    /// Node `u`'s keyed base permutation.
    #[inline]
    fn base(&self, u: usize) -> KeyedPerm {
        KeyedPerm::with_half_bits(self.m, self.half_bits, mix64(u as u64 ^ self.stream))
    }

    /// The base value at position `k` of `u`'s permutation. Memoized — a
    /// pure function of `(m, u, k)`.
    #[inline]
    fn base_at(&self, u: usize, k: usize) -> u32 {
        self.fwd_memo
            .get_or(key(u, k), || self.base(u).apply(k) as u32)
    }

    /// The base position of value `x` in `u`'s permutation. Memoized.
    #[inline]
    fn base_pos(&self, u: usize, x: usize) -> u32 {
        self.inv_memo
            .get_or(key(u, x), || self.base(u).invert(x) as u32)
    }

    /// The value at position `k`: the override if the slot was displaced,
    /// the base permutation otherwise.
    #[inline]
    fn at(&self, u: usize, k: usize) -> u32 {
        match self.val.get(key(u, k)) {
            Some(x) => x,
            None => self.base_at(u, k),
        }
    }

    /// The position of value `x` in `u`'s permutation.
    #[inline]
    fn pos_of(&self, u: usize, x: usize) -> u32 {
        match self.pos.get(key(u, x)) {
            Some(k) => k,
            None => self.base_pos(u, x),
        }
    }

    /// Writes `table[key] = x`, removing the override instead when `x` is
    /// the base value, so the tables hold only genuine deviations.
    #[inline]
    fn put(table: &mut OpenTable<u32>, key: u64, x: u32, base: u32) {
        if x == base {
            table.remove(key);
        } else {
            table.insert(key, x);
        }
    }

    /// Swaps value `x`, at position `k`, into position `d` of `u`'s
    /// permutation: one partial-Fisher–Yates step, as the dense backend's,
    /// through the override tables.
    fn promote(&mut self, u: usize, x: usize, k: usize, d: usize) {
        debug_assert!(k >= d, "promoting a value already in the prefix");
        let y = self.at(u, d);
        let (base_d, base_k) = (self.base_at(u, d), self.base_at(u, k));
        Self::put(&mut self.val, key(u, d), x as u32, base_d);
        Self::put(&mut self.val, key(u, k), y, base_k);
        let (base_x, base_y) = (self.base_pos(u, x), self.base_pos(u, y as usize));
        Self::put(&mut self.pos, key(u, x), d as u32, base_x);
        Self::put(&mut self.pos, key(u, y as usize), k as u32, base_y);
    }

    /// Drops every override, returning each node to its base permutation,
    /// and applies the tables' shrink-if-oversized policy. The memo caches
    /// are deliberately *not* touched: their contents are pure function
    /// outputs that stay valid across trials, which is where the recycled
    /// warm path gets its Feistel hits from.
    fn clear(&mut self) {
        for table in [&mut self.val, &mut self.pos] {
            table.clear();
            table.end_trial();
        }
    }

    /// The first override that merely restates its base value.
    fn redundant_override(&self) -> Option<(usize, usize)> {
        let val = self.val.iter().filter(|&(k, x)| {
            let (u, i) = unkey(k);
            self.base_at(u, i) == x
        });
        let pos = self.pos.iter().filter(|&(k, x)| {
            let (u, i) = unkey(k);
            self.base_pos(u, i) == x
        });
        val.chain(pos).next().map(|(k, _)| unkey(k))
    }

    fn resident_bytes(&self) -> u64 {
        self.val.resident_bytes()
            + self.pos.resident_bytes()
            + self.fwd_memo.resident_bytes()
            + self.inv_memo.resident_bytes()
    }
}

/// The sparse storage backend (see the module docs).
#[derive(Debug, Clone, PartialEq, Eq)]
pub(super) struct SparseStore {
    n: usize,
    /// Links incident to each node — the only Θ(n) table.
    degree: Vec<u32>,
    /// Total number of links fixed so far.
    links: usize,
    /// Nodes with at least one link (pushed on the 0 → 1 transition).
    dirty: Vec<u32>,
    /// `(u, i) → id` for each assigned port `i` of `u`: the id of the link
    /// behind it. With `ends` this is the one record of each link besides
    /// the permutations. `peer` could read the link off them too, but that
    /// takes four dependent hashed probes a call: re-resolving 524 k
    /// already-fixed ports at `n = 65536` took 263–357 ms that way against
    /// 24–44 ms through a forward table (2-vCPU Linux VM).
    fwd: OpenTable<u32>,
    /// `ends[id]` = the packed `(node, port)` endpoints of link `id`, in
    /// creation order.
    ends: Vec<[u64; 2]>,
    /// Peer permutations over raw indices: raw `r` of node `u` is node
    /// `r + [r ≥ u]`.
    peers: SparsePerm,
    /// Port permutations.
    ports: SparsePerm,
}

impl SparseStore {
    /// Creates an empty sparse store for an `n`-node clique (`n ≥ 2`,
    /// validated by the facade). O(n) time and memory — no quadratic
    /// initialization to pay or amortize.
    pub(super) fn new(n: usize) -> Self {
        debug_assert!(n >= 2);
        debug_assert!(n < u32::MAX as usize, "node indices must fit in u32");
        SparseStore {
            n,
            degree: vec![0; n],
            links: 0,
            dirty: Vec::new(),
            fwd: OpenTable::new(),
            ends: Vec::new(),
            peers: SparsePerm::new(n, PEER_STREAM),
            ports: SparsePerm::new(n, PORT_STREAM),
        }
    }

    /// The position of peer `v ≠ u` in `u`'s peer permutation.
    #[inline]
    fn pos_of_peer(&self, u: usize, v: usize) -> usize {
        self.peers.pos_of(u, v - usize::from(v > u)) as usize
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
        u != v && self.pos_of_peer(u.0, v.0) < self.degree[u.0] as usize
    }

    #[inline]
    fn port_state(&self, u: NodeIndex, p: Port) -> PortState {
        let near = key(u.0, p.0);
        let Some(id) = self.fwd.get(near) else {
            return PortState::Free(self.ports.pos_of(u.0, p.0) as usize);
        };
        let [a, b] = self.ends[id as usize];
        let (v, j) = unkey(if a == near { b } else { a });
        PortState::Linked(Endpoint {
            node: NodeIndex(v),
            port: Port(j),
        })
    }

    #[inline]
    fn peer_position(&self, u: NodeIndex, v: NodeIndex) -> usize {
        self.pos_of_peer(u.0, v.0)
    }

    #[inline]
    fn link_id(&self, u: NodeIndex, p: Port) -> Option<u32> {
        self.fwd.get(key(u.0, p.0))
    }

    #[inline]
    fn port_to(&self, u: NodeIndex, v: NodeIndex) -> Option<Port> {
        if u == v {
            return None;
        }
        let k = self.pos_of_peer(u.0, v.0);
        (k < self.degree[u.0] as usize).then(|| self.port_at_pos(u, k))
    }

    #[inline]
    fn peer_at_pos(&self, u: NodeIndex, k: usize) -> NodeIndex {
        let r = self.peers.at(u.0, k) as usize;
        NodeIndex(r + usize::from(r >= u.0))
    }

    #[inline]
    fn port_at_pos(&self, u: NodeIndex, k: usize) -> Port {
        Port(self.ports.at(u.0, k) as usize)
    }

    fn insert_link(&mut self, u: NodeIndex, pu: Port, v: NodeIndex, pv: Port, at: LinkAt) {
        let (u, pu, v, pv) = (u.0, pu.0, v.0, pv.0);
        let id = self.links as u32;
        self.ends.push([key(u, pu), key(v, pv)]);
        let ends = [
            (u, pu, v, Some(at.u_peer), at.u_port),
            (v, pv, u, None, at.v_port),
        ];
        for (a, pa, b, peer_at, port_at) in ends {
            let d = self.degree[a] as usize;
            if d == 0 {
                self.dirty.push(a as u32);
            }
            self.fwd.insert(key(a, pa), id);
            let peer_at = peer_at.unwrap_or_else(|| self.pos_of_peer(a, b));
            self.peers.promote(a, b - usize::from(b > a), peer_at, d);
            self.ports.promote(a, pa, port_at, d);
            self.degree[a] += 1;
        }
        self.links += 1;
    }

    /// Un-connects everything: zeroes the dirty nodes' degrees and clears
    /// every table (see the module docs), which leaves the store `==` to a
    /// freshly constructed one.
    fn reset(&mut self) {
        for u in std::mem::take(&mut self.dirty) {
            self.degree[u as usize] = 0;
        }
        self.links = 0;
        self.fwd.clear();
        self.fwd.end_trial();
        self.ends.clear();
        self.peers.clear();
        self.ports.clear();
    }

    fn validate(&self) -> Result<(), ModelError> {
        let fail = |u: usize, p: usize, reason: &'static str| {
            Err(ModelError::InvalidResolution {
                node: NodeIndex(u),
                port: Port(p),
                reason,
            })
        };
        let (n, ports) = (self.n, self.n - 1);
        if self.fwd.len() != 2 * self.links || self.ends.len() != self.links {
            return fail(0, 0, "link count out of sync");
        }
        // Each forward entry names a link whose ends hold it, and that
        // link is in range, symmetric, and sits at one prefix position of
        // both permutations; with a degree equal to the node's entry
        // count, the prefix holds exactly the links. Keys are unique, so
        // 2·links entries over `links` ids with two ends each give every
        // id exactly its two endpoints.
        let mut entries = vec![0u32; n];
        for (k, id) in self.fwd.iter() {
            let (u, i) = unkey(k);
            let Some(&[a, b]) = self.ends.get(id as usize) else {
                return fail(u, i, "link id out of range");
            };
            if k != a && k != b {
                return fail(u, i, "link id and ends disagree");
            }
            let (v, j) = unkey(if k == a { b } else { a });
            if u >= n || v >= n || i >= ports || j >= ports {
                return fail(u, i, "forward entry out of range");
            }
            if v == u {
                return fail(u, i, "self-link");
            }
            if self.fwd.get(key(v, j)) != Some(id) {
                return fail(u, i, "asymmetric link");
            }
            if self.port_to(NodeIndex(u), NodeIndex(v)) != Some(Port(i)) {
                return fail(u, i, "forward entry and permutations disagree");
            }
            entries[u] += 1;
        }
        if let Some(u) = (0..n).find(|&u| entries[u] != self.degree[u]) {
            return fail(u, 0, "degree out of sync with forward table");
        }
        // Every override is a genuine deviation: the
        // remove-on-return-to-base discipline keeps "untouched" == absent.
        for perm in [&self.peers, &self.ports] {
            if let Some((u, x)) = perm.redundant_override() {
                return fail(u, x, "redundant override");
            }
        }
        // Exhaustive per-node inverse checks — mirrors the dense validate
        // (O(n²); intended for tests, like the facade docs say).
        for u in 0..n {
            for perm in [&self.peers, &self.ports] {
                for k in 0..ports {
                    let x = perm.at(u, k) as usize;
                    if x >= ports || perm.pos_of(u, x) as usize != k {
                        return fail(u, 0, "permutation/position out of sync");
                    }
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
        (self.degree.capacity() * 4 + self.dirty.capacity() * 4 + self.ends.capacity() * 16) as u64
            + self.fwd.resident_bytes()
            + self.peers.resident_bytes()
            + self.ports.resident_bytes()
    }

    fn counters(&self) -> crate::trace::BackendCounters {
        let perms = [&self.peers, &self.ports];
        let memos = perms.iter().flat_map(|p| [&p.fwd_memo, &p.inv_memo]);
        let tables = perms
            .iter()
            .flat_map(|p| [p.val.growth_count(), p.pos.growth_count()]);
        crate::trace::BackendCounters {
            memo_hits: memos.clone().map(|c| c.hits.get()).sum(),
            memo_misses: memos.map(|c| c.misses.get()).sum(),
            table_grows: self.fwd.growth_count() + tables.sum::<u64>(),
            rows_materialized: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ports::{PortBackend, PortMap, RandomResolver, Store};
    use crate::rng::rng_from_seed;

    /// A sparse store at `n = 12` with three random ports resolved per
    /// node.
    fn resolved_store() -> Box<SparseStore> {
        let n = 12;
        let mut map = PortMap::with_backend(n, PortBackend::Sparse).unwrap();
        let mut rng = rng_from_seed(7);
        for (u, p) in (0..n).flat_map(|u| (0..3).map(move |p| (u, p))) {
            map.resolve(NodeIndex(u), Port(p), &mut RandomResolver, &mut rng)
                .unwrap();
        }
        let Store::Sparse(s) = map.store else {
            unreachable!("the backend was pinned to sparse");
        };
        s.validate().unwrap();
        s
    }

    #[test]
    fn validate_rejects_each_corruption() {
        let corruptions = [
            "a crossed forward entry",
            "a broken pos inverse",
            "a redundant override",
            "a degree bumped by one",
            "a dirty-list entry dropped",
            "two links' ids swapped at one endpoint",
        ];
        for (case, what) in corruptions.into_iter().enumerate() {
            let mut s = resolved_store();
            let u = (0..s.n).find(|&u| s.degree[u] >= 2).unwrap();
            match case {
                0 => {
                    // Swap the links behind u's first two ports, ids and
                    // ends alike: the links stay symmetric but no longer
                    // match the permutations' prefix.
                    let (p, q) = (s.ports.at(u, 0) as usize, s.ports.at(u, 1) as usize);
                    let (a, b) = (s.fwd.get(key(u, p)).unwrap(), s.fwd.get(key(u, q)).unwrap());
                    s.fwd.insert(key(u, p), b);
                    s.fwd.insert(key(u, q), a);
                    for (id, end) in [(a, key(u, q)), (b, key(u, p))] {
                        let ends = &mut s.ends[id as usize];
                        let at = usize::from(unkey(ends[1]).0 == u);
                        ends[at] = end;
                    }
                }
                1 => {
                    // Misplace a free port, which no link check reads, off
                    // both its true and its base position.
                    let last = s.n - 2;
                    let x = s.ports.at(u, last) as usize;
                    let wrong = last - 1 - usize::from(s.ports.base_pos(u, x) as usize == last - 1);
                    s.ports.pos.insert(key(u, x), wrong as u32);
                }
                2 => {
                    let k = (0..s.n - 1)
                        .rfind(|&k| !s.ports.val.contains_key(key(u, k)))
                        .unwrap();
                    let base = s.ports.base_at(u, k);
                    s.ports.val.insert(key(u, k), base);
                }
                3 => s.degree[u] += 1,
                4 => drop(s.dirty.pop()),
                _ => {
                    let (p, q) = (s.ports.at(u, 0) as usize, s.ports.at(u, 1) as usize);
                    let (a, b) = (s.fwd.get(key(u, p)).unwrap(), s.fwd.get(key(u, q)).unwrap());
                    s.fwd.insert(key(u, p), b);
                    s.fwd.insert(key(u, q), a);
                }
            }
            assert!(s.validate().is_err(), "validate() accepted {what}");
        }
    }

    #[test]
    fn reset_empties_every_table_and_keeps_its_slab() {
        let tables = |s: &SparseStore| {
            let (peers, ports) = (&s.peers, &s.ports);
            [
                (s.fwd.len(), s.fwd.resident_bytes()),
                (peers.val.len(), peers.val.resident_bytes()),
                (peers.pos.len(), peers.pos.resident_bytes()),
                (ports.val.len(), ports.val.resident_bytes()),
                (ports.pos.len(), ports.pos.resident_bytes()),
            ]
        };
        let mut s = resolved_store();
        let before = tables(&s);
        assert!(before.iter().all(|&(len, _)| len > 0));
        s.reset();
        for ((len, bytes), (_, held)) in tables(&s).into_iter().zip(before) {
            assert_eq!(len, 0, "reset left entries behind");
            assert_eq!(bytes, held, "reset reallocated a slab its trial needed");
        }
        assert_eq!(*s, SparseStore::new(s.n));
    }
}

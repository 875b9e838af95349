//! The graph backend: flat per-slot tables, ragged over a CSR.
//!
//! When the topology is not the implicit clique, every node `u` owns
//! `deg(u)` ports and each port can only lead to one of `u`'s topology
//! neighbors. This store lays flat tables over that ragged port space:
//! one entry per *directed CSR slot* (`2m` total), with node `u`'s row
//! occupying the topology's slot range for `u`. Each slot holds a `u64`
//! forward entry, the `u32` id of the link behind the port, and five
//! `u32` permutation, position and peer-index entries: 32 bytes, of which
//! the `auto` budget's cost model ([`PortBackend::edge_table_bytes`])
//! charges 28 (its docs say why).
//! The partitioned-permutation discipline is identical — the first
//! `degree(u)` positions of `u`'s peer/port permutations are the
//! connected prefix, so a uniform fresh draw is one indexed lookup and
//! [`GraphStore::reset`] restores canonical order in O(touched) by
//! cycle-chasing — except that `u`'s peer permutation ranges over its
//! *topology neighbors* (canonically the sorted CSR row) rather than
//! over all `v ≠ u`.
//!
//! One store serves every requested backend: at O(links) ≤ O(m) words
//! the flat-over-CSR tables are already as compact as hashed
//! touched-state storage would be, so `dense` and `sparse` both map to
//! this representation on non-clique topologies (the store remembers
//! which backend it stands in for, purely for reporting).
//! Draw-schedule identity across backends on general graphs therefore
//! holds *by construction* — pinned by `tests/portmap_equivalence.rs`.

use super::{Endpoint, LinkAt, Port, PortBackend, PortState, PortStore};
use crate::error::ModelError;
use crate::topology::Topology;
use crate::NodeIndex;

/// Sentinel for "unassigned" entries of the flat tables.
const EMPTY_U32: u32 = u32::MAX;
/// Sentinel for unassigned forward-table entries.
const EMPTY_U64: u64 = u64::MAX;

/// The CSR-ragged flat-table backend for explicit topologies.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(super) struct GraphStore {
    /// The shared adjacency (row ranges, sorted neighbor rows).
    topo: Topology,
    /// The concrete backend this store stands in for (reporting only —
    /// the representation is the same for all three).
    stand_in: PortBackend,
    /// `forward[slot(u) + i] = (v << 32) | j` for each assigned port
    /// `i < deg(u)`, [`EMPTY_U64`] otherwise.
    forward: Vec<u64>,
    /// `link[slot(u) + i]` = the id of the link behind `u`'s port `i`
    /// while `forward` holds it, 0 otherwise.
    link: Vec<u32>,
    /// `port_of[slot(u) + idx(v)] = i` iff `u`'s port `i` connects to
    /// its CSR neighbor at row index `idx(v)`, [`EMPTY_U32`] otherwise.
    port_of: Vec<u32>,
    /// Row `u` is a permutation of `u`'s topology neighbors; the first
    /// `degree[u]` entries are the connected peers. Canonical order is
    /// the sorted CSR row itself.
    peer_perm: Vec<u32>,
    /// `peer_pos[slot(u) + idx(v)]` = position of `v` in row `u` of
    /// `peer_perm`.
    peer_pos: Vec<u32>,
    /// Row `u` is a permutation of `0..deg(u)`; first `degree[u]`
    /// entries are assigned ports.
    port_perm: Vec<u32>,
    /// `port_pos[slot(u) + p]` = position of port `p` in row `u`.
    port_pos: Vec<u32>,
    /// Links incident to each node (assigned ports of each node).
    degree: Vec<u32>,
    /// Total number of links fixed so far.
    links: usize,
    /// Nodes whose rows differ from pristine (0 → 1 degree transition).
    dirty: Vec<u32>,
}

impl GraphStore {
    /// Allocates the flat tables over the topology's `2m` directed
    /// slots, pristine rows in canonical (sorted CSR) order.
    pub(super) fn new(topo: Topology, stand_in: PortBackend) -> Self {
        debug_assert!(!topo.is_clique(), "clique maps use the clique backends");
        let n = topo.n();
        let slots = topo.slot_count();
        let mut peer_perm = vec![0u32; slots];
        let mut peer_pos = vec![0u32; slots];
        let mut port_perm = vec![0u32; slots];
        let mut port_pos = vec![0u32; slots];
        for u in 0..n {
            let range = topo.slot_range(NodeIndex(u));
            let row = topo.neighbors(NodeIndex(u));
            for (k, slot) in range.enumerate() {
                peer_perm[slot] = row[k];
                peer_pos[slot] = k as u32;
                port_perm[slot] = k as u32;
                port_pos[slot] = k as u32;
            }
        }
        GraphStore {
            forward: vec![EMPTY_U64; slots],
            link: vec![0; slots],
            port_of: vec![EMPTY_U32; slots],
            peer_perm,
            peer_pos,
            port_perm,
            port_pos,
            degree: vec![0; n],
            links: 0,
            dirty: Vec::new(),
            topo,
            stand_in,
        }
    }

    /// The topology behind this store.
    pub(super) fn topology(&self) -> &Topology {
        &self.topo
    }

    /// The backend this store reports as.
    pub(super) fn stand_in(&self) -> PortBackend {
        self.stand_in
    }

    #[inline]
    fn base(&self, u: usize) -> usize {
        self.topo.slot_range(NodeIndex(u)).start
    }

    /// CSR row index of neighbor `v` in `u`'s sorted row (the canonical
    /// "home" position), or `None` if `{u, v}` is not a topology edge.
    #[inline]
    fn idx(&self, u: usize, v: usize) -> Option<usize> {
        self.topo.neighbor_index(NodeIndex(u), NodeIndex(v))
    }

    /// Swaps peer `v`, whose CSR home is `iv`, at position `k`, and port
    /// `p`, at position `kp`, into the connected prefix of `u`'s
    /// partitioned permutations (two O(1) swaps plus an O(log deg) CSR
    /// home lookup for the displaced peer). The entries at `k` and `kp`
    /// are known, so only the boundary entries are read.
    fn promote(&mut self, u: usize, v: usize, iv: usize, k: usize, p: usize, kp: usize) {
        let d = self.degree[u] as usize;
        let base = self.base(u);

        debug_assert!(k >= d, "promoting an already-connected peer");
        debug_assert_eq!(k, self.peer_pos[base + iv] as usize);
        let w = self.peer_perm[base + d] as usize;
        let iw = self.idx(u, w).expect("permutation holds a non-neighbor");
        self.peer_perm[base + k] = w as u32;
        self.peer_perm[base + d] = v as u32;
        self.peer_pos[base + iv] = d as u32;
        self.peer_pos[base + iw] = k as u32;

        debug_assert!(kp >= d, "promoting an already-assigned port");
        debug_assert_eq!(kp, self.port_pos[base + p] as usize);
        let q = self.port_perm[base + d] as usize;
        self.port_perm[base + kp] = q as u32;
        self.port_perm[base + d] = p as u32;
        self.port_pos[base + p] = d as u32;
        self.port_pos[base + q] = kp as u32;
    }
}

impl PortStore for GraphStore {
    #[inline]
    fn n(&self) -> usize {
        self.topo.n()
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
    fn ports_of(&self, u: NodeIndex) -> usize {
        self.topo.degree(u)
    }

    #[inline]
    fn topo_adjacent(&self, u: NodeIndex, v: NodeIndex) -> bool {
        self.topo.has_edge(u, v)
    }

    #[inline]
    fn connected(&self, u: NodeIndex, v: NodeIndex) -> bool {
        match self.idx(u.0, v.0) {
            Some(iv) => self.port_of[self.base(u.0) + iv] != EMPTY_U32,
            None => false,
        }
    }

    #[inline]
    fn port_state(&self, u: NodeIndex, p: Port) -> PortState {
        let slot = self.base(u.0) + p.0;
        match self.forward[slot] {
            EMPTY_U64 => PortState::Free(self.port_pos[slot] as usize),
            enc => PortState::Linked(Endpoint {
                node: NodeIndex((enc >> 32) as usize),
                port: Port((enc & 0xFFFF_FFFF) as usize),
            }),
        }
    }

    #[inline]
    fn peer_position(&self, u: NodeIndex, v: NodeIndex) -> usize {
        let iv = self.idx(u.0, v.0).expect("a position of a non-neighbor");
        self.peer_pos[self.base(u.0) + iv] as usize
    }

    #[inline]
    fn link_id(&self, u: NodeIndex, p: Port) -> Option<u32> {
        let slot = self.base(u.0) + p.0;
        (self.forward[slot] != EMPTY_U64).then(|| self.link[slot])
    }

    #[inline]
    fn port_to(&self, u: NodeIndex, v: NodeIndex) -> Option<Port> {
        let iv = self.idx(u.0, v.0)?;
        let p = self.port_of[self.base(u.0) + iv];
        (p != EMPTY_U32).then_some(Port(p as usize))
    }

    #[inline]
    fn peer_at_pos(&self, u: NodeIndex, k: usize) -> NodeIndex {
        NodeIndex(self.peer_perm[self.base(u.0) + k] as usize)
    }

    #[inline]
    fn port_at_pos(&self, u: NodeIndex, k: usize) -> Port {
        Port(self.port_perm[self.base(u.0) + k] as usize)
    }

    fn insert_link(&mut self, u: NodeIndex, pu: Port, v: NodeIndex, pv: Port, at: LinkAt) {
        if self.degree[u.0] == 0 {
            self.dirty.push(u.0 as u32);
        }
        if self.degree[v.0] == 0 {
            self.dirty.push(v.0 as u32);
        }
        let (bu, bv) = (self.base(u.0), self.base(v.0));
        // `v`'s CSR home in `u`'s row, and `u`'s in `v`'s.
        let iu = self.idx(u.0, v.0).expect("linking a non-edge");
        let iv = self.idx(v.0, u.0).expect("linking a non-edge");
        self.forward[bu + pu.0] = ((v.0 as u64) << 32) | pv.0 as u64;
        self.forward[bv + pv.0] = ((u.0 as u64) << 32) | pu.0 as u64;
        self.link[bu + pu.0] = self.links as u32;
        self.link[bv + pv.0] = self.links as u32;
        self.port_of[bu + iu] = pu.0 as u32;
        self.port_of[bv + iv] = pv.0 as u32;
        self.promote(u.0, v.0, iu, at.u_peer, pu.0, at.u_port);
        let v_peer = self.peer_pos[bv + iv] as usize;
        self.promote(v.0, u.0, iv, v_peer, pv.0, at.v_port);
        self.degree[u.0] += 1;
        self.degree[v.0] += 1;
        self.links += 1;
    }

    /// Un-connects everything in O(touched): only dirty rows are
    /// visited, each restored to the sorted-CSR canonical order by the
    /// same displacement-cycle chase the dense store uses (homes are
    /// CSR row indices instead of `v − [v > u]`).
    fn reset(&mut self) {
        let dirty = std::mem::take(&mut self.dirty);
        for &u in &dirty {
            let u = u as usize;
            let d = self.degree[u] as usize;
            let base = self.base(u);
            for k in 0..d {
                let v = self.peer_perm[base + k] as usize;
                let iv = self.idx(u, v).expect("permutation holds a non-neighbor");
                self.port_of[base + iv] = EMPTY_U32;
                let p = self.port_perm[base + k] as usize;
                self.forward[base + p] = EMPTY_U64;
                self.link[base + p] = 0;
            }
            self.degree[u] = 0;
            for k in 0..d {
                loop {
                    let v = self.peer_perm[base + k] as usize;
                    let home = self.idx(u, v).expect("permutation holds a non-neighbor");
                    if home == k {
                        break;
                    }
                    let w = self.peer_perm[base + home] as usize;
                    let iw = self.idx(u, w).expect("permutation holds a non-neighbor");
                    self.peer_perm.swap(base + k, base + home);
                    // `peer_pos` is indexed by CSR home position, so `v`'s
                    // entry lives at `base + home` and `w`'s at `base + iw`.
                    self.peer_pos[base + home] = home as u32;
                    self.peer_pos[base + iw] = k as u32;
                }
                loop {
                    let p = self.port_perm[base + k] as usize;
                    if p == k {
                        break;
                    }
                    let q = self.port_perm[base + p] as usize;
                    self.port_perm.swap(base + k, base + p);
                    self.port_pos[base + p] = p as u32;
                    self.port_pos[base + q] = k as u32;
                }
            }
        }
        self.links = 0;
    }

    fn validate(&self) -> Result<(), ModelError> {
        let fail = |u: usize, p: usize, reason: &'static str| {
            Err(ModelError::InvalidResolution {
                node: NodeIndex(u),
                port: Port(p),
                reason,
            })
        };
        let n = self.topo.n();
        let mut counted = 0usize;
        // Endpoints holding each link id, at most two each; with 2·links
        // assigned ports in all, every id then has exactly two.
        let mut holders = vec![0u8; self.links];
        for u in 0..n {
            let base = self.base(u);
            let ports = self.topo.degree(NodeIndex(u));
            let mut assigned = 0usize;
            for i in 0..ports {
                let state = self.port_state(NodeIndex(u), Port(i));
                let Some(Endpoint { node: v, port: j }) = state.linked() else {
                    if self.link[base + i] != 0 {
                        return fail(u, i, "link id on an unassigned port");
                    }
                    continue;
                };
                counted += 1;
                assigned += 1;
                if v.0 == u {
                    return fail(u, i, "self-link");
                }
                if !self.topo.has_edge(NodeIndex(u), v) {
                    return fail(u, i, "link outside the topology");
                }
                let back = self.port_state(v, j).linked();
                if back
                    != Some(Endpoint {
                        node: NodeIndex(u),
                        port: Port(i),
                    })
                {
                    return fail(u, i, "asymmetric link");
                }
                let iv = self.idx(u, v.0).expect("checked edge above");
                if self.port_of[base + iv] != i as u32 {
                    return fail(u, i, "peer index out of sync");
                }
                let id = self.link[base + i];
                let Some(held) = holders.get_mut(id as usize) else {
                    return fail(u, i, "link id out of range");
                };
                *held += 1;
                if self.link[self.base(v.0) + j.0] != id || *held > 2 {
                    return fail(u, i, "link id not held by its two endpoints");
                }
            }
            if assigned != self.degree[u] as usize {
                return fail(u, 0, "degree out of sync with forward table");
            }
            let d = self.degree[u] as usize;
            let row = &self.peer_perm[base..base + ports];
            for (k, &v) in row.iter().enumerate() {
                let Some(iv) = self.idx(u, v as usize) else {
                    return fail(u, 0, "peer permutation holds a non-neighbor");
                };
                if self.peer_pos[base + iv] != k as u32 {
                    return fail(u, 0, "peer permutation/position out of sync");
                }
                let connected = self.port_of[base + iv] != EMPTY_U32;
                if connected != (k < d) {
                    return fail(u, 0, "peer permutation partition broken");
                }
            }
            let prow = &self.port_perm[base..base + ports];
            for (k, &p) in prow.iter().enumerate() {
                if p as usize >= ports {
                    return fail(u, 0, "port permutation out of range");
                }
                if self.port_pos[base + p as usize] != k as u32 {
                    return fail(u, 0, "port permutation/position out of sync");
                }
                let taken = self.forward[base + p as usize] != EMPTY_U64;
                if taken != (k < d) {
                    return fail(u, 0, "port permutation partition broken");
                }
            }
        }
        if counted != 2 * self.links {
            return fail(0, 0, "link count out of sync");
        }
        if let Err(reason) = super::validate_dirty_list(&self.degree, &self.dirty) {
            return fail(0, 0, reason);
        }
        Ok(())
    }

    fn resident_bytes(&self) -> u64 {
        // Store-owned tables only: the topology's CSR is shared (one
        // copy per process regardless of maps/arenas holding it).
        let u32s = self.link.capacity()
            + self.port_of.capacity()
            + self.peer_perm.capacity()
            + self.peer_pos.capacity()
            + self.port_perm.capacity()
            + self.port_pos.capacity()
            + self.degree.capacity()
            + self.dirty.capacity();
        (self.forward.capacity() * 8 + u32s * 4) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ports::{PortMap, RandomResolver, Store};
    use crate::rng::rng_from_seed;

    #[test]
    fn validate_rejects_each_corruption() {
        let corruptions = [
            "two links' ids swapped at one endpoint",
            "a link id on an unassigned port",
        ];
        let topo = Topology::ring(12).unwrap();
        for (case, what) in corruptions.into_iter().enumerate() {
            // Every port of nodes 0..6 resolved, so node 1 holds two links
            // and node 9 none.
            let mut map = PortMap::for_topology(&topo, PortBackend::Dense).unwrap();
            let mut rng = rng_from_seed(7);
            for (u, p) in (0..6).flat_map(|u| (0..2).map(move |p| (u, p))) {
                map.resolve(NodeIndex(u), Port(p), &mut RandomResolver, &mut rng)
                    .unwrap();
            }
            let Store::Graph(mut s) = map.store else {
                unreachable!("a ring maps to the graph store");
            };
            s.validate().unwrap();
            match case {
                0 => {
                    let base = s.base(1);
                    s.link.swap(base, base + 1);
                }
                _ => {
                    let base = s.base(9);
                    s.link[base] = 1;
                }
            }
            assert!(s.validate().is_err(), "validate() accepted {what}");
        }
    }
}

//! The dense backend: four flat `u16` tables, 8 bytes per ordered node
//! pair, and a `u32` link-id table beside them, for `n ≤ 65536`.
//!
//! Each node keeps a *partitioned permutation* over its peers and one over
//! its ports, each with its inverse, allocated once in [`DenseStore::new`].
//! The first `degree(u)` entries of `u`'s rows are its connected peers and
//! assigned ports, so a uniform fresh peer or free port is one indexed draw
//! (partial Fisher–Yates) and connecting a pair is two O(1) swaps.
//!
//! The permutations are also the link table. Fixing a link moves `u`'s
//! peer and its local port to the same position of `u`'s two rows, and
//! the connected prefix does not move again until [`DenseStore::reset`].
//! So `u`'s port to `v` is the port at `v`'s peer position, and the peer
//! behind port `p` is the peer at `p`'s port position. A fifth table,
//! indexed by position like the permutations, holds each link's id at
//! both of its prefix positions. It is zero-allocated and reset clears
//! only the connected prefixes, so only pages under prefixes that ever
//! held a link become resident. Every operation is O(1) with no hashing.

use super::{Endpoint, LinkAt, Port, PortBackend, PortState, PortStore};
use crate::error::ModelError;
use crate::NodeIndex;

/// The diagonal entry of `peer_pos`. No degree reaches it
/// (`degree ≤ n − 1 ≤ u16::MAX`), so a node is never its own peer.
const NOT_A_PEER: u16 = u16::MAX;

/// The flat-table storage backend (see the module docs).
#[derive(Debug, Clone, PartialEq, Eq)]
pub(super) struct DenseStore {
    n: usize,
    /// Row `u` is a permutation of all nodes `≠ u`; the first `degree[u]`
    /// entries are the connected peers, the rest the unconnected ones.
    peer_perm: Vec<u16>,
    /// `peer_pos[u·n + v]` = position of `v` in row `u` of `peer_perm`
    /// ([`NOT_A_PEER`] on the diagonal).
    peer_pos: Vec<u16>,
    /// Row `u` is a permutation of `u`'s ports; the port at position
    /// `k < degree[u]` links `u` to the peer at `peer_perm` position `k`.
    port_perm: Vec<u16>,
    /// `port_pos[u·(n−1) + p]` = position of port `p` in row `u`.
    port_pos: Vec<u16>,
    /// `link[u·(n−1) + k]` = the id of the link at position `k < degree[u]`
    /// of row `u`; 0 past the connected prefix.
    link: Vec<u32>,
    /// Links incident to each node (also: assigned ports of each node).
    degree: Vec<u32>,
    /// Total number of links fixed so far.
    links: usize,
    /// Nodes whose rows differ from the pristine state (pushed on the
    /// 0 → 1 degree transition); exactly the rows [`DenseStore::reset`]
    /// must restore.
    dirty: Vec<u32>,
}

impl DenseStore {
    /// The largest network whose node indices fit the `u16` entries.
    const MAX_N: usize = u16::MAX as usize + 1;

    /// Allocates and eagerly initializes the flat tables for an `n`-node
    /// clique (`n ≥ 2`, validated by the facade), or returns
    /// [`ModelError::NetworkTooLarge`] before allocating past `MAX_N`.
    pub(super) fn new(n: usize) -> Result<Self, ModelError> {
        if n > Self::MAX_N {
            let (backend, limit) = (PortBackend::Dense, Self::MAX_N);
            return Err(ModelError::NetworkTooLarge { backend, n, limit });
        }
        let ports = n - 1;
        let mut peer_perm = vec![0u16; n * ports];
        let mut peer_pos = vec![NOT_A_PEER; n * n];
        let mut port_perm = vec![0u16; n * ports];
        let mut port_pos = vec![0u16; n * ports];
        for u in 0..n {
            let row = u * ports;
            for k in 0..ports {
                // Row u enumerates 0..n skipping u, in ascending order.
                let v = k + usize::from(k >= u);
                peer_perm[row + k] = v as u16;
                peer_pos[u * n + v] = k as u16;
                port_perm[row + k] = k as u16;
                port_pos[row + k] = k as u16;
            }
        }
        Ok(DenseStore {
            n,
            peer_perm,
            peer_pos,
            port_perm,
            port_pos,
            link: vec![0; n * ports],
            degree: vec![0; n],
            links: 0,
            dirty: Vec::new(),
        })
    }

    /// Offset of row `u` in the `(n − 1)`-wide tables.
    #[inline]
    fn row(&self, u: usize) -> usize {
        u * (self.n - 1)
    }

    /// Position of `v` in row `u` of the peer permutation.
    #[inline]
    fn peer_pos(&self, u: usize, v: usize) -> usize {
        self.peer_pos[u * self.n + v] as usize
    }

    /// Swaps peer `v`, at position `k`, and port `p`, at position `kp`,
    /// into the connected prefix of `u`'s partitioned permutations (two
    /// O(1) partial-Fisher–Yates steps). The entries at `k` and `kp` are
    /// known, so only the boundary entries they trade places with are
    /// read.
    fn promote(&mut self, u: usize, v: usize, k: usize, p: usize, kp: usize) {
        let d = self.degree[u] as usize;
        let row = self.row(u);

        debug_assert!(k >= d, "promoting an already-connected peer");
        debug_assert_eq!(k, self.peer_pos(u, v));
        let w = self.peer_perm[row + d] as usize;
        self.peer_perm[row + k] = w as u16;
        self.peer_perm[row + d] = v as u16;
        self.peer_pos[u * self.n + v] = d as u16;
        self.peer_pos[u * self.n + w] = k as u16;

        debug_assert!(kp >= d, "promoting an already-assigned port");
        debug_assert_eq!(kp, self.port_pos[row + p] as usize);
        let q = self.port_perm[row + d] as usize;
        self.port_perm[row + kp] = q as u16;
        self.port_perm[row + d] = p as u16;
        self.port_pos[row + p] = d as u16;
        self.port_pos[row + q] = kp as u16;
    }

    /// Writes row `u` of all four tables back to the state
    /// [`DenseStore::new`] gives it: `8·n` bytes of sequential stores,
    /// whatever the row's degree.
    fn rewrite_row(&mut self, u: usize) {
        let (n, row) = (self.n, self.row(u));
        let ports = n - 1;
        for (k, v) in self.peer_perm[row..row + ports].iter_mut().enumerate() {
            *v = (k + usize::from(k >= u)) as u16;
        }
        for (v, k) in self.peer_pos[u * n..(u + 1) * n].iter_mut().enumerate() {
            *k = (v - usize::from(v > u)) as u16;
        }
        self.peer_pos[u * n + u] = NOT_A_PEER;
        let port_rows = self.port_perm[row..row + ports]
            .iter_mut()
            .zip(&mut self.port_pos[row..row + ports]);
        for (k, (p, q)) in port_rows.enumerate() {
            (*p, *q) = (k as u16, k as u16);
        }
    }

    /// Restores row `u`, which held `d` links, to canonical order in
    /// O(d) swaps. Every displacement cycle passes through the connected
    /// prefix `0..d` (each `promote` swapped the then-boundary position
    /// with a position at or beyond it), so chasing cycles from the
    /// prefix restores the whole row; every swap parks one entry in its
    /// home slot for good.
    fn chase_row(&mut self, u: usize, d: usize) {
        let row = self.row(u);
        for k in 0..d {
            loop {
                let v = self.peer_perm[row + k] as usize;
                let home = v - usize::from(v > u);
                if home == k {
                    break;
                }
                let w = self.peer_perm[row + home] as usize;
                self.peer_perm.swap(row + k, row + home);
                self.peer_pos[u * self.n + v] = home as u16;
                self.peer_pos[u * self.n + w] = k as u16;
            }
            loop {
                let p = self.port_perm[row + k] as usize;
                if p == k {
                    break;
                }
                let q = self.port_perm[row + p] as usize;
                self.port_perm.swap(row + k, row + p);
                self.port_pos[row + p] = p as u16;
                self.port_pos[row + q] = k as u16;
            }
        }
    }
}

impl PortStore for DenseStore {
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
        self.peer_pos(u.0, v.0) < self.degree[u.0] as usize
    }

    #[inline]
    fn port_state(&self, u: NodeIndex, p: Port) -> PortState {
        let k = self.port_pos[self.row(u.0) + p.0] as usize;
        if k >= self.degree[u.0] as usize {
            return PortState::Free(k);
        }
        let node = self.peer_at_pos(u, k);
        let port = self.port_at_pos(node, self.peer_pos(node.0, u.0));
        PortState::Linked(Endpoint { node, port })
    }

    #[inline]
    fn peer_position(&self, u: NodeIndex, v: NodeIndex) -> usize {
        self.peer_pos(u.0, v.0)
    }

    #[inline]
    fn port_to(&self, u: NodeIndex, v: NodeIndex) -> Option<Port> {
        let k = self.peer_pos(u.0, v.0);
        (k < self.degree[u.0] as usize).then(|| self.port_at_pos(u, k))
    }

    #[inline]
    fn peer_at_pos(&self, u: NodeIndex, k: usize) -> NodeIndex {
        NodeIndex(self.peer_perm[self.row(u.0) + k] as usize)
    }

    #[inline]
    fn port_at_pos(&self, u: NodeIndex, k: usize) -> Port {
        Port(self.port_perm[self.row(u.0) + k] as usize)
    }

    #[inline]
    fn link_id(&self, u: NodeIndex, p: Port) -> Option<u32> {
        let row = self.row(u.0);
        let k = self.port_pos[row + p.0] as usize;
        (k < self.degree[u.0] as usize).then(|| self.link[row + k])
    }

    fn insert_link(&mut self, u: NodeIndex, pu: Port, v: NodeIndex, pv: Port, at: LinkAt) {
        if self.degree[u.0] == 0 {
            self.dirty.push(u.0 as u32);
        }
        if self.degree[v.0] == 0 {
            self.dirty.push(v.0 as u32);
        }
        self.promote(u.0, v.0, at.u_peer, pu.0, at.u_port);
        let v_peer = self.peer_pos(v.0, u.0);
        self.promote(v.0, u.0, v_peer, pv.0, at.v_port);
        // Both promotes filled their row's boundary position.
        for w in [u.0, v.0] {
            let at = self.row(w) + self.degree[w] as usize;
            self.link[at] = self.links as u32;
        }
        self.degree[u.0] += 1;
        self.degree[v.0] += 1;
        self.links += 1;
    }

    /// Un-connects everything, returning the store to the exact state
    /// [`DenseStore::new`] produces without reallocating any table. Only
    /// the rows of nodes with a link are visited. A row whose degree `d`
    /// has `16·d ≥ n − 1` is rewritten whole in one sequential pass; a
    /// lighter row chases its displacement cycles back in O(d) swaps.
    /// A rewritten row has `n − 1 ≤ 16·d`, so either way a row costs O(d)
    /// and reset stays O(touched state). The link ids are cleared over
    /// the connected prefix only, the one part of the row they occupy.
    ///
    /// The rule comes from a cold-cache microbenchmark: a rewrite costs
    /// ~2.1 µs per row at `n = 1024` and ~8 µs at 4096 whatever the
    /// degree, while a chase grows from 0.75 to 5.1 µs (`d` = 3 → 183) at
    /// 1024 and from 1.0 to 7.5 µs (`d` = 3 → 189) at 4096.
    fn reset(&mut self) {
        let dirty = std::mem::take(&mut self.dirty);
        for &u in &dirty {
            let u = u as usize;
            // Links live only in the connected prefix: this unlinks them.
            let d = std::mem::take(&mut self.degree[u]) as usize;
            let row = self.row(u);
            self.link[row..row + d].fill(0);
            if 16 * d >= self.n - 1 {
                self.rewrite_row(u);
            } else {
                self.chase_row(u, d);
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
        let (n, ports) = (self.n, self.n - 1);
        let mut ends = 0usize;
        // Endpoints holding each link id, at most two each; with 2·links
        // prefix positions in all, every id then has exactly two.
        let mut holders = vec![0u8; self.links];
        for u in 0..n {
            let (row, d) = (self.row(u), self.degree[u] as usize);
            if d > ports {
                return fail(u, 0, "degree exceeds the port space");
            }
            if self.peer_pos[u * n + u] != NOT_A_PEER {
                return fail(u, 0, "node has a position in its own peer row");
            }
            // Both rows must be permutations inverted by the pos tables, and
            // each peer in u's connected prefix must have u in its own
            // (checked for every u, this covers both directions).
            for (k, &p) in self.port_perm[row..row + ports].iter().enumerate() {
                if p as usize >= ports || self.port_pos[row + p as usize] as usize != k {
                    return fail(u, 0, "port permutation/position out of sync");
                }
            }
            for (k, &v) in self.peer_perm[row..row + ports].iter().enumerate() {
                let (v, p) = (v as usize, self.port_perm[row + k] as usize);
                if v == u {
                    return fail(u, p, "self-link");
                }
                if v >= n || self.peer_pos(u, v) != k {
                    return fail(u, 0, "peer permutation/position out of sync");
                }
                if k < d && !self.connected(NodeIndex(v), NodeIndex(u)) {
                    return fail(u, p, "asymmetric link");
                }
            }
            // The prefix holds one id per link, the far end of the link
            // holds the same id, and nothing lies past the prefix.
            for (k, &id) in self.link[row..row + ports].iter().enumerate() {
                if k >= d {
                    if id != 0 {
                        return fail(u, 0, "link id past the connected prefix");
                    }
                    continue;
                }
                let (v, p) = (self.peer_perm[row + k] as usize, self.port_perm[row + k]);
                // Row v may not be checked yet, so read it without trusting it.
                let far = self.link.get(self.row(v) + self.peer_pos(v, u)).copied();
                let Some(held) = holders.get_mut(id as usize) else {
                    return fail(u, p as usize, "link id out of range");
                };
                *held += 1;
                if far != Some(id) || *held > 2 {
                    return fail(u, p as usize, "link id not held by its two endpoints");
                }
            }
            ends += d;
        }
        if ends != 2 * self.links {
            return fail(0, 0, "link count out of sync");
        }
        if let Err(reason) = super::validate_dirty_list(&self.degree, &self.dirty) {
            return fail(0, 0, reason);
        }
        Ok(())
    }

    fn resident_bytes(&self) -> u64 {
        let u16s = self.peer_perm.capacity()
            + self.peer_pos.capacity()
            + self.port_perm.capacity()
            + self.port_pos.capacity();
        let u32s = self.link.capacity() + self.degree.capacity() + self.dirty.capacity();
        (u16s * 2 + u32s * 4) as u64
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
            "two link ports crossed",
            "a broken peer_pos inverse",
            "a degree bumped by one",
            "a dirty-list entry dropped",
            "a node in its own peer row",
            "two links' ids swapped at one endpoint",
        ];
        let n = 12;
        for (case, what) in corruptions.into_iter().enumerate() {
            // Three random ports resolved per node, then one corruption
            // at a node with at least two links.
            let mut map = PortMap::with_backend(n, PortBackend::Dense).unwrap();
            let mut rng = rng_from_seed(7);
            for (u, p) in (0..n).flat_map(|u| (0..3).map(move |p| (u, p))) {
                map.resolve(NodeIndex(u), Port(p), &mut RandomResolver, &mut rng)
                    .unwrap();
            }
            let Store::Dense(mut s) = map.store else {
                unreachable!("the backend was pinned to dense");
            };
            s.validate().unwrap();
            let u = (0..n).find(|&u| s.degree[u] >= 2).unwrap();
            let row = s.row(u);
            match case {
                0 => s.port_perm.swap(row, row + 1),
                1 => s.peer_pos[u * n + s.peer_perm[row] as usize] = 1,
                2 => s.degree[u] += 1,
                3 => drop(s.dirty.pop()),
                4 => s.peer_perm[row] = u as u16,
                _ => s.link.swap(row, row + 1),
            }
            assert!(s.validate().is_err(), "validate() accepted {what}");
        }
    }

    #[test]
    fn reset_restores_rewritten_and_chased_rows() {
        // One node resolves n/8 ports and lands above the rewrite rule
        // (16·d ≥ n − 1); the others resolve 1–4 and stay below it, so
        // reset runs both paths.
        let n = 1024;
        let heavy = 5;
        let mut map = PortMap::with_backend(n, PortBackend::Dense).unwrap();
        let mut rng = rng_from_seed(11);
        let ports = |u: usize| if u == heavy { n / 8 } else { 1 + u % 4 };
        for u in 0..n {
            for p in 0..ports(u) {
                map.resolve(NodeIndex(u), Port(p), &mut RandomResolver, &mut rng)
                    .unwrap();
            }
        }
        let Store::Dense(s) = &map.store else {
            unreachable!("the backend was pinned to dense");
        };
        let rewritten = |d: u32| 16 * d as usize >= n - 1;
        assert!(rewritten(s.degree[heavy]));
        assert!(s.degree.iter().any(|&d| d > 0 && !rewritten(d)));

        map.reset();
        map.validate().unwrap();
        let mut fresh = PortMap::with_backend(n, PortBackend::Dense).unwrap();
        assert_eq!(map, fresh);

        // The reset map resolves exactly as a fresh one does.
        let (mut rng_reset, mut rng_fresh) = (rng_from_seed(12), rng_from_seed(12));
        for u in 0..n {
            for p in 0..ports(u) {
                let (u, p) = (NodeIndex(u), Port(p));
                assert_eq!(
                    map.resolve(u, p, &mut RandomResolver, &mut rng_reset),
                    fresh.resolve(u, p, &mut RandomResolver, &mut rng_fresh),
                );
            }
        }
        assert_eq!(map, fresh);
    }
}

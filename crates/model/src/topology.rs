//! General communication graphs: the topology layer.
//!
//! The source paper works on the complete graph, and until this module
//! existed every layer of the stack hard-coded that: each node owned
//! exactly `n − 1` ports and any peer was one resolution away. A
//! [`Topology`] generalizes the model to arbitrary simple connected
//! graphs while keeping the clique path byte-identical: the clique is
//! represented *implicitly* (no adjacency is materialized, the port
//! backends keep their flat/hashed tables verbatim), and every other
//! generator builds a CSR adjacency (sorted neighbor rows behind prefix
//! offsets) that the `ports::GraphStore` backend and both engines index
//! by *local port number* — node `v`'s port space becomes `0..deg(v)`
//! instead of `0..n−1`.
//!
//! # Generators
//!
//! All generators are seed-deterministic: the same parameters always
//! produce the same edge set, on every platform, so sweep cells remain
//! reproducible from their `(cell label, trial)` seeds alone.
//!
//! * [`Topology::clique`] — the paper's model; adjacency implicit.
//! * [`Topology::ring`] — the cycle `C_n`; the diameter-dominated
//!   worst case (`D = ⌊n/2⌋`) for the time bounds.
//! * [`Topology::torus`] — the `w × h` wrap-around grid (4-regular,
//!   `D = ⌊w/2⌋ + ⌊h/2⌋`).
//! * [`Topology::random_regular`] — a uniform-ish random `d`-regular
//!   simple connected graph: a circulant start mixed by
//!   degree-preserving double-edge swaps (dense `d ≥ n/2` requests
//!   generate the sparse complement and invert it); an expander with
//!   high probability — the regime of Kutten–Pandurangan–Peleg–
//!   Robinson–Trehan's sublinear bounds.
//! * [`Topology::from_edges`] — an arbitrary explicit edge list.
//!
//! # Selection
//!
//! The engines run on the clique unless a builder is given an explicit
//! `.topology(…)`, mirroring `.backend(…)`.
//!
//! Shared graph utilities used across crates live here too: a
//! union-find ([`Dsu`]) and the timed directed arc ([`TimedArc`]) that
//! `le_bounds`' communication graph records.

use std::sync::{Arc, OnceLock};

use crate::error::ModelError;
use crate::rng::{derive_seed, rng_from_seed, splitmix64};
use crate::NodeIndex;
use rand::Rng;

/// Which generator produced a [`Topology`] (and its parameters).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TopologyKind {
    /// The complete graph `K_n` — adjacency implicit, nothing stored.
    Clique,
    /// The cycle `C_n`.
    Ring,
    /// The `w × h` wrap-around grid.
    Torus {
        /// Grid width (≥ 3 so wrap edges stay simple).
        w: u32,
        /// Grid height (≥ 3).
        h: u32,
    },
    /// A seed-deterministic random `d`-regular connected simple graph.
    Regular {
        /// The uniform degree.
        d: u32,
        /// The generator seed (independent of trial seeds).
        seed: u64,
    },
    /// An explicit edge list ([`Topology::from_edges`]).
    Edges,
}

impl TopologyKind {
    /// The generator's lowercase tag — the `topo` trace event's `gen`
    /// field.
    pub fn name(self) -> &'static str {
        match self {
            TopologyKind::Clique => "clique",
            TopologyKind::Ring => "ring",
            TopologyKind::Torus { .. } => "torus",
            TopologyKind::Regular { .. } => "regular",
            TopologyKind::Edges => "edges",
        }
    }
}

/// Shared immutable graph data behind the cheaply-clonable handle.
#[derive(Debug)]
struct TopoInner {
    kind: TopologyKind,
    n: usize,
    /// Undirected edge count (`n(n−1)/2` for the implicit clique).
    m: u64,
    /// CSR prefix offsets, length `n + 1`; empty for the clique.
    offsets: Vec<usize>,
    /// CSR neighbor rows, each sorted ascending; empty for the clique.
    neighbors: Vec<u32>,
    max_degree: usize,
    /// Structural hash of `(kind, params, n)` — the arena-recycling key.
    fingerprint: u64,
    /// Lazily computed eccentricity maximum (all-pairs BFS) of the
    /// graphs without a closed form.
    diameter: OnceLock<usize>,
}

/// A simple connected communication graph over `n` nodes.
///
/// Cheap to clone (an [`Arc`] handle); the adjacency is immutable for
/// the lifetime of the topology, so engines, arenas, and sweep workers
/// can share one instance freely across trials and threads.
#[derive(Debug, Clone)]
pub struct Topology {
    inner: Arc<TopoInner>,
}

impl PartialEq for Topology {
    fn eq(&self, other: &Self) -> bool {
        self.inner.fingerprint == other.inner.fingerprint
            && self.inner.n == other.inner.n
            && self.inner.kind == other.inner.kind
    }
}

impl Eq for Topology {}

/// Chained structural hash (SplitMix64 over a running accumulator).
fn fp_mix(acc: u64, word: u64) -> u64 {
    splitmix64(acc ^ word.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

impl Topology {
    /// The complete graph `K_n` (`n ≥ 2`). Adjacency stays implicit:
    /// no CSR is materialized and the port backends keep their existing
    /// clique tables, so this constructor is O(1) and the clique path
    /// re-rolls nothing.
    ///
    /// # Errors
    ///
    /// [`ModelError::NetworkTooSmall`] if `n < 2`.
    pub fn clique(n: usize) -> Result<Topology, ModelError> {
        if n < 2 {
            return Err(ModelError::NetworkTooSmall { n });
        }
        let m = (n as u64) * (n as u64 - 1) / 2;
        Ok(Topology {
            inner: Arc::new(TopoInner {
                kind: TopologyKind::Clique,
                n,
                m,
                offsets: Vec::new(),
                neighbors: Vec::new(),
                max_degree: n - 1,
                fingerprint: fp_mix(fp_mix(0x636C_6971, n as u64), 0),
                diameter: OnceLock::new(),
            }),
        })
    }

    /// The cycle `C_n` (`n ≥ 3`): node `i` is adjacent to `i ± 1 mod n`.
    ///
    /// # Errors
    ///
    /// [`ModelError::InvalidTopology`] if `n < 3` (a 2-ring would be a
    /// multi-edge).
    pub fn ring(n: usize) -> Result<Topology, ModelError> {
        if n < 3 {
            return Err(ModelError::InvalidTopology {
                reason: "ring requires n >= 3",
            });
        }
        let edges: Vec<(u32, u32)> = (0..n as u32)
            .map(|i| (i, if i + 1 == n as u32 { 0 } else { i + 1 }))
            .collect();
        Ok(build_csr(
            TopologyKind::Ring,
            n,
            edges,
            fp_mix(fp_mix(0x7269_6E67, n as u64), 0),
        ))
    }

    /// The `w × h` wrap-around grid (`w, h ≥ 3`): node `y·w + x` is
    /// adjacent to its four grid neighbors with toroidal wrap. 4-regular,
    /// diameter `⌊w/2⌋ + ⌊h/2⌋`.
    ///
    /// # Errors
    ///
    /// [`ModelError::InvalidTopology`] if either dimension is below 3
    /// (wrap edges would duplicate the interior ones).
    pub fn torus(w: usize, h: usize) -> Result<Topology, ModelError> {
        if w < 3 || h < 3 {
            return Err(ModelError::InvalidTopology {
                reason: "torus requires both dimensions >= 3",
            });
        }
        let n = w * h;
        let at = |x: usize, y: usize| (y * w + x) as u32;
        let mut edges = Vec::with_capacity(2 * n);
        for y in 0..h {
            for x in 0..w {
                edges.push((at(x, y), at((x + 1) % w, y)));
                edges.push((at(x, y), at(x, (y + 1) % h)));
            }
        }
        let fp = fp_mix(fp_mix(fp_mix(0x746F_7275, w as u64), h as u64), 0);
        Ok(build_csr(
            TopologyKind::Torus {
                w: w as u32,
                h: h as u32,
            },
            n,
            edges,
            fp,
        ))
    }

    /// The square torus closest to the paper grids: requires `n` to be a
    /// perfect square `w²` and returns [`Topology::torus`]`(w, w)`.
    ///
    /// # Errors
    ///
    /// [`ModelError::InvalidTopology`] if `n` is not a perfect square of
    /// side ≥ 3.
    pub fn torus_square(n: usize) -> Result<Topology, ModelError> {
        let w = (n as f64).sqrt().round() as usize;
        if w * w != n {
            return Err(ModelError::InvalidTopology {
                reason: "square torus requires n to be a perfect square",
            });
        }
        Topology::torus(w, w)
    }

    /// A seed-deterministic random `d`-regular connected simple graph.
    ///
    /// Sparse side (`2d ≤ n − 1`): a circulant start randomized by
    /// degree-preserving double-edge swaps (matching/cycle permutations
    /// directly for `d ≤ 2`), re-mixed until connected — random regular
    /// graphs with `d ≥ 3` are connected (and expanders) with high
    /// probability, so the retry loop terminates after ~1 iteration.
    /// Dense side (`2d > n − 1`, so `d ≥ n/2`): the `(n−1−d)`-regular
    /// *complement* is generated instead and inverted — low-density
    /// generation never stalls, and min degree ≥ n/2 makes the result
    /// connected unconditionally. Complement inversion is `Θ(n²)`; fine
    /// at experiment sizes, and only dense requests pay it.
    ///
    /// # Errors
    ///
    /// [`ModelError::InvalidTopology`] unless `4 ≤ n`, `2 ≤ d < n`, and
    /// `n·d` is even (odd `d` additionally needs even `n`, as always
    /// for regular graphs).
    pub fn random_regular(n: usize, d: usize, seed: u64) -> Result<Topology, ModelError> {
        if n < 4 || d < 2 || d >= n {
            return Err(ModelError::InvalidTopology {
                reason: "random_regular requires 4 <= n and 2 <= d < n",
            });
        }
        if !(n * d).is_multiple_of(2) {
            return Err(ModelError::InvalidTopology {
                reason: "random_regular requires n*d even",
            });
        }
        let mut rng = rng_from_seed(derive_seed(seed, 0x544F_504F));
        let edges = if 2 * d > n - 1 {
            complement_edges(n, &regular_edges(n, n - 1 - d, &mut rng, false))
        } else {
            regular_edges(n, d, &mut rng, true)
        };
        let fp = fp_mix(fp_mix(fp_mix(0x7265_6775, n as u64), d as u64), seed);
        Ok(build_csr(
            TopologyKind::Regular { d: d as u32, seed },
            n,
            edges,
            fp,
        ))
    }

    /// A topology from an explicit undirected edge list (endpoints in
    /// `0..n`, either orientation, no duplicates, no self-loops).
    ///
    /// # Errors
    ///
    /// [`ModelError::InvalidTopology`] on out-of-range endpoints,
    /// self-loops, or duplicate edges; [`ModelError::NetworkTooSmall`]
    /// if `n < 2`.
    pub fn from_edges(n: usize, edges: &[(usize, usize)]) -> Result<Topology, ModelError> {
        if n < 2 {
            return Err(ModelError::NetworkTooSmall { n });
        }
        let mut seen = std::collections::HashSet::with_capacity(edges.len());
        let mut list = Vec::with_capacity(edges.len());
        let mut fp = fp_mix(0x6564_6765, n as u64);
        for &(a, b) in edges {
            if a >= n || b >= n {
                return Err(ModelError::InvalidTopology {
                    reason: "edge endpoint out of range",
                });
            }
            if a == b {
                return Err(ModelError::InvalidTopology {
                    reason: "self-loop in edge list",
                });
            }
            if !seen.insert(edge_key(a as u32, b as u32)) {
                return Err(ModelError::InvalidTopology {
                    reason: "duplicate edge in edge list",
                });
            }
            list.push((a as u32, b as u32));
        }
        // Hash the canonical sorted edge set so listing order is
        // irrelevant to the fingerprint.
        let mut keys: Vec<u64> = seen.into_iter().collect();
        keys.sort_unstable();
        for k in keys {
            fp = fp_mix(fp, k);
        }
        Ok(build_csr(TopologyKind::Edges, n, list, fp))
    }

    /// Number of nodes.
    #[inline]
    pub fn n(&self) -> usize {
        self.inner.n
    }

    /// Number of undirected edges (`n(n−1)/2` for the clique).
    #[inline]
    pub fn m(&self) -> u64 {
        self.inner.m
    }

    /// The generator that produced this topology.
    #[inline]
    pub fn kind(&self) -> TopologyKind {
        self.inner.kind
    }

    /// Whether this is the implicit complete graph — the path on which
    /// the port backends keep their existing clique tables verbatim.
    #[inline]
    pub fn is_clique(&self) -> bool {
        matches!(self.inner.kind, TopologyKind::Clique)
    }

    /// Degree of node `u` — also the size of `u`'s port space
    /// (`0..degree(u)`).
    #[inline]
    pub fn degree(&self, u: NodeIndex) -> usize {
        if self.is_clique() {
            self.inner.n - 1
        } else {
            self.inner.offsets[u.0 + 1] - self.inner.offsets[u.0]
        }
    }

    /// Maximum degree over all nodes.
    #[inline]
    pub fn max_degree(&self) -> usize {
        self.inner.max_degree
    }

    /// The sorted neighbor row of `u`.
    ///
    /// # Panics
    ///
    /// Panics on the implicit clique, whose adjacency is deliberately
    /// never materialized — clique callers already know every `v ≠ u`
    /// is a neighbor.
    #[inline]
    pub fn neighbors(&self, u: NodeIndex) -> &[u32] {
        assert!(
            !self.is_clique(),
            "clique adjacency is implicit; every v != u is a neighbor"
        );
        &self.inner.neighbors[self.inner.offsets[u.0]..self.inner.offsets[u.0 + 1]]
    }

    /// Whether `{u, v}` is a topology edge (`u ≠ v` suffices on the
    /// clique).
    #[inline]
    pub fn has_edge(&self, u: NodeIndex, v: NodeIndex) -> bool {
        if u == v {
            return false;
        }
        if self.is_clique() {
            return true;
        }
        self.neighbors(u).binary_search(&(v.0 as u32)).is_ok()
    }

    /// The CSR slot range of `u`'s neighbor row (crate-internal: the
    /// graph port store indexes its flat per-port tables by these global
    /// slots, giving it the dense store's layout with ragged rows).
    #[inline]
    pub(crate) fn slot_range(&self, u: NodeIndex) -> std::ops::Range<usize> {
        self.inner.offsets[u.0]..self.inner.offsets[u.0 + 1]
    }

    /// Total directed slot count (`2m`) of the CSR — the flat-table
    /// length the graph port store allocates.
    #[inline]
    pub(crate) fn slot_count(&self) -> usize {
        self.inner.neighbors.len()
    }

    /// The CSR position of `v` in `u`'s sorted neighbor row, if adjacent
    /// — the canonical "home" index the graph port store resets rows to.
    #[inline]
    pub fn neighbor_index(&self, u: NodeIndex, v: NodeIndex) -> Option<usize> {
        if self.is_clique() {
            if u == v || v.0 >= self.inner.n {
                return None;
            }
            // Canonical clique enumeration: ascending nodes skipping u.
            return Some(v.0 - usize::from(v.0 > u.0));
        }
        self.neighbors(u).binary_search(&(v.0 as u32)).ok()
    }

    /// Whether the graph is connected (always true for generators other
    /// than [`Topology::from_edges`], by construction).
    pub fn is_connected(&self) -> bool {
        if self.is_clique() {
            return true;
        }
        let n = self.inner.n;
        let mut seen = vec![false; n];
        let mut queue = std::collections::VecDeque::from([0u32]);
        seen[0] = true;
        let mut count = 1;
        while let Some(u) = queue.pop_front() {
            for &v in self.neighbors(NodeIndex(u as usize)) {
                if !seen[v as usize] {
                    seen[v as usize] = true;
                    count += 1;
                    queue.push_back(v);
                }
            }
        }
        count == n
    }

    /// The graph diameter. O(1) for the clique, ring (`⌊n/2⌋`) and
    /// torus (`⌊w/2⌋ + ⌊h/2⌋`); an all-pairs BFS for random-regular and
    /// edge-list graphs, O(n·m) once and memoized after the first call.
    ///
    /// # Panics
    ///
    /// Panics if the graph is disconnected (only possible via
    /// [`Topology::from_edges`]).
    pub fn diameter(&self) -> usize {
        match self.inner.kind {
            TopologyKind::Clique => 1,
            TopologyKind::Ring => self.inner.n / 2,
            TopologyKind::Torus { w, h } => (w / 2 + h / 2) as usize,
            TopologyKind::Regular { .. } | TopologyKind::Edges => {
                *self.inner.diameter.get_or_init(|| self.bfs_diameter())
            }
        }
    }

    /// The largest BFS eccentricity over all sources.
    fn bfs_diameter(&self) -> usize {
        let n = self.inner.n;
        let mut dist = vec![u32::MAX; n];
        let mut queue = std::collections::VecDeque::new();
        let mut diameter = 0usize;
        for s in 0..n {
            dist.iter_mut().for_each(|d| *d = u32::MAX);
            dist[s] = 0;
            queue.push_back(s as u32);
            let mut reached = 1usize;
            while let Some(u) = queue.pop_front() {
                let du = dist[u as usize];
                diameter = diameter.max(du as usize);
                for &v in self.neighbors(NodeIndex(u as usize)) {
                    if dist[v as usize] == u32::MAX {
                        dist[v as usize] = du + 1;
                        reached += 1;
                        queue.push_back(v);
                    }
                }
            }
            assert!(
                reached == n,
                "diameter of a disconnected topology is undefined"
            );
        }
        diameter
    }

    /// Structural hash of `(generator, parameters, n)` — the key arenas
    /// use to decide whether a recycled port map matches the requested
    /// topology. Edge-list topologies hash their canonical edge set.
    #[inline]
    pub fn fingerprint(&self) -> u64 {
        self.inner.fingerprint
    }
}

impl std::fmt::Display for Topology {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.inner.kind {
            TopologyKind::Torus { w, h } => write!(f, "torus{w}x{h}"),
            TopologyKind::Regular { d, .. } => write!(f, "regular{d}"),
            kind => f.write_str(kind.name()),
        }
    }
}

/// Canonical unordered edge key: `(min << 32) | max`.
#[inline]
fn edge_key(a: u32, b: u32) -> u64 {
    let (lo, hi) = if a < b { (a, b) } else { (b, a) };
    ((lo as u64) << 32) | hi as u64
}

/// Uniformly shuffled node labels (Fisher–Yates).
fn shuffled(n: usize, rng: &mut rand::rngs::SmallRng) -> Vec<u32> {
    let mut perm: Vec<u32> = (0..n as u32).collect();
    for i in (1..n).rev() {
        let j = rng.gen_range(0..=i);
        perm.swap(i, j);
    }
    perm
}

/// A simple `d`-regular edge list on `n` nodes (`n·d` even, `d ≤ n−1`).
///
/// `d ≤ 1` is a (possibly empty) random perfect matching and `d = 2` a
/// random Hamiltonian cycle, both straight off a shuffled permutation.
/// `d ≥ 3` starts from the circulant graph (`i ~ i±k` for `k ≤ d/2`,
/// plus the antipode for odd `d`) and mixes with degree-preserving
/// double-edge swaps; every loop is budgeted, so generation always
/// terminates regardless of density. With `require_connected` the swap
/// batches repeat until the result is one component — random `d ≥ 3`
/// regular graphs are connected with high probability, so this settles
/// after ~1 batch.
fn regular_edges(
    n: usize,
    d: usize,
    rng: &mut rand::rngs::SmallRng,
    require_connected: bool,
) -> Vec<(u32, u32)> {
    if d <= 1 {
        let perm = shuffled(n, rng);
        return (0..n * d / 2)
            .map(|k| (perm[2 * k], perm[2 * k + 1]))
            .collect();
    }
    if d == 2 {
        let perm = shuffled(n, rng);
        return (0..n).map(|i| (perm[i], perm[(i + 1) % n])).collect();
    }
    let half = (n / 2) as u32;
    let mut edges: Vec<(u32, u32)> = Vec::with_capacity(n * d / 2);
    for i in 0..n as u32 {
        for k in 1..=(d / 2) as u32 {
            edges.push((i, (i + k) % n as u32));
        }
        if d % 2 == 1 && i < half {
            edges.push((i, i + half));
        }
    }
    let mut present: std::collections::HashSet<u64> =
        edges.iter().map(|&(a, b)| edge_key(a, b)).collect();
    let m = edges.len();
    loop {
        // ~10 accepted swaps per edge wash out the circulant structure;
        // the attempt budget keeps dense complements from stalling (an
        // under-mixed graph is still valid, just less random).
        let mut accepted = 0usize;
        let mut attempts = 0usize;
        while accepted < 10 * m && attempts < 200 * m {
            attempts += 1;
            let i = rng.gen_range(0..m);
            let j = rng.gen_range(0..m);
            let (a, b) = edges[i];
            let (mut c, mut e) = edges[j];
            if rng.gen_range(0..2) == 1 {
                std::mem::swap(&mut c, &mut e);
            }
            if a == c || a == e || b == c || b == e {
                continue;
            }
            let (k1, k2) = (edge_key(a, c), edge_key(b, e));
            if present.contains(&k1) || present.contains(&k2) {
                continue;
            }
            present.remove(&edge_key(a, b));
            present.remove(&edge_key(c, e));
            present.insert(k1);
            present.insert(k2);
            edges[i] = (a, c);
            edges[j] = (b, e);
            accepted += 1;
        }
        if !require_connected {
            return edges;
        }
        let mut dsu = Dsu::new(n);
        for &(a, b) in &edges {
            dsu.union(a as usize, b as usize);
        }
        if dsu.components() == 1 {
            return edges;
        }
    }
}

/// The complement edge list of a simple graph on `n` nodes. `Θ(n²)`.
fn complement_edges(n: usize, edges: &[(u32, u32)]) -> Vec<(u32, u32)> {
    let present: std::collections::HashSet<u64> =
        edges.iter().map(|&(a, b)| edge_key(a, b)).collect();
    let mut out = Vec::with_capacity(n * (n - 1) / 2 - edges.len());
    for a in 0..n as u32 {
        for b in a + 1..n as u32 {
            if !present.contains(&edge_key(a, b)) {
                out.push((a, b));
            }
        }
    }
    out
}

/// Builds the CSR (sorted rows) from an undirected edge list the
/// generators have already validated as simple.
fn build_csr(kind: TopologyKind, n: usize, edges: Vec<(u32, u32)>, fingerprint: u64) -> Topology {
    let m = edges.len() as u64;
    let mut degree = vec![0usize; n];
    for &(a, b) in &edges {
        degree[a as usize] += 1;
        degree[b as usize] += 1;
    }
    let mut offsets = Vec::with_capacity(n + 1);
    let mut acc = 0usize;
    offsets.push(0);
    for &d in &degree {
        acc += d;
        offsets.push(acc);
    }
    let mut cursor = offsets.clone();
    let mut neighbors = vec![0u32; acc];
    for &(a, b) in &edges {
        neighbors[cursor[a as usize]] = b;
        cursor[a as usize] += 1;
        neighbors[cursor[b as usize]] = a;
        cursor[b as usize] += 1;
    }
    for u in 0..n {
        neighbors[offsets[u]..offsets[u + 1]].sort_unstable();
    }
    let max_degree = degree.iter().copied().max().unwrap_or(0);
    Topology {
        inner: Arc::new(TopoInner {
            kind,
            n,
            m,
            offsets,
            neighbors,
            max_degree,
            fingerprint,
            diameter: OnceLock::new(),
        }),
    }
}

/// Union-find with union-by-size and path halving — the component
/// machinery shared by `le_bounds`' communication graph and the
/// topology tests.
#[derive(Debug, Clone)]
pub struct Dsu {
    parent: Vec<u32>,
    size: Vec<u32>,
    components: usize,
}

impl Dsu {
    /// `n` singleton components.
    pub fn new(n: usize) -> Dsu {
        Dsu {
            parent: (0..n as u32).collect(),
            size: vec![1; n],
            components: n,
        }
    }

    /// The representative of `u`'s component.
    pub fn find(&mut self, mut u: usize) -> usize {
        while self.parent[u] as usize != u {
            let grand = self.parent[self.parent[u] as usize];
            self.parent[u] = grand;
            u = grand as usize;
        }
        u
    }

    /// Merges the components of `a` and `b`; `true` if they were
    /// distinct.
    pub fn union(&mut self, a: usize, b: usize) -> bool {
        let (mut ra, mut rb) = (self.find(a), self.find(b));
        if ra == rb {
            return false;
        }
        if self.size[ra] < self.size[rb] {
            std::mem::swap(&mut ra, &mut rb);
        }
        self.parent[rb] = ra as u32;
        self.size[ra] += self.size[rb];
        self.components -= 1;
        true
    }

    /// Current number of components.
    pub fn components(&self) -> usize {
        self.components
    }

    /// Size of `u`'s component.
    pub fn size_of(&mut self, u: usize) -> usize {
        let r = self.find(u);
        self.size[r] as usize
    }

    /// Size of the largest component.
    pub fn largest(&mut self) -> usize {
        (0..self.parent.len())
            .map(|u| {
                let r = self.find(u);
                self.size[r] as usize
            })
            .max()
            .unwrap_or(0)
    }

    /// The components as sorted member lists, ordered by each
    /// component's smallest member.
    pub fn groups(&mut self) -> Vec<Vec<usize>> {
        let n = self.parent.len();
        let mut by_root: std::collections::BTreeMap<usize, Vec<usize>> =
            std::collections::BTreeMap::new();
        for u in 0..n {
            let r = self.find(u);
            by_root.entry(r).or_default().push(u);
        }
        let mut out: Vec<Vec<usize>> = by_root.into_values().collect();
        out.sort_by_key(|c| c[0]);
        out
    }
}

/// A directed message arc stamped with the round it first crossed — the
/// shared edge record `le_bounds`' communication graph accumulates
/// (KT0 lower bounds count *which* links carried messages and when).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimedArc {
    /// The round the arc was recorded in.
    pub round: u32,
    /// Sending node.
    pub src: u32,
    /// Receiving node.
    pub dst: u32,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clique_is_implicit_and_cheap() {
        let t = Topology::clique(64).unwrap();
        assert!(t.is_clique());
        assert_eq!(t.n(), 64);
        assert_eq!(t.m(), 64 * 63 / 2);
        assert_eq!(t.degree(NodeIndex(7)), 63);
        assert_eq!(t.max_degree(), 63);
        assert_eq!(t.diameter(), 1);
        assert!(t.has_edge(NodeIndex(0), NodeIndex(63)));
        assert!(!t.has_edge(NodeIndex(5), NodeIndex(5)));
        // Canonical clique neighbor indices skip u, matching the dense
        // store's pristine peer rows.
        assert_eq!(t.neighbor_index(NodeIndex(3), NodeIndex(2)), Some(2));
        assert_eq!(t.neighbor_index(NodeIndex(3), NodeIndex(4)), Some(3));
        assert_eq!(t.neighbor_index(NodeIndex(3), NodeIndex(3)), None);
        assert!(Topology::clique(1).is_err());
    }

    #[test]
    fn ring_shape_and_diameter() {
        let t = Topology::ring(10).unwrap();
        assert_eq!(t.n(), 10);
        assert_eq!(t.m(), 10);
        assert_eq!(t.max_degree(), 2);
        for u in 0..10 {
            assert_eq!(t.degree(NodeIndex(u)), 2);
        }
        assert_eq!(t.neighbors(NodeIndex(0)), &[1, 9]);
        assert_eq!(t.neighbors(NodeIndex(4)), &[3, 5]);
        assert_eq!(t.diameter(), 5);
        assert!(t.is_connected());
        assert!(Topology::ring(2).is_err());
    }

    #[test]
    fn torus_shape_and_diameter() {
        let t = Topology::torus(4, 3).unwrap();
        assert_eq!(t.n(), 12);
        assert_eq!(t.m(), 24);
        for u in 0..12 {
            assert_eq!(t.degree(NodeIndex(u)), 4, "torus must be 4-regular");
        }
        assert_eq!(t.diameter(), 4 / 2 + 3 / 2);
        assert!(Topology::torus(2, 5).is_err());
        let sq = Topology::torus_square(64).unwrap();
        assert_eq!(sq.kind(), TopologyKind::Torus { w: 8, h: 8 });
        assert_eq!(sq.diameter(), 8);
        assert!(Topology::torus_square(60).is_err());
    }

    #[test]
    fn closed_form_diameters_match_bfs() {
        for n in 3..=12 {
            let t = Topology::ring(n).unwrap();
            assert_eq!(t.diameter(), t.bfs_diameter(), "ring {n}");
        }
        for w in 3..=7 {
            for h in 3..=6 {
                let t = Topology::torus(w, h).unwrap();
                assert_eq!(t.diameter(), t.bfs_diameter(), "torus {w}x{h}");
            }
        }
    }

    #[test]
    fn random_regular_is_simple_regular_connected_and_deterministic() {
        for (n, d) in [(16, 3), (32, 4), (64, 8), (50, 5), (64, 33)] {
            let t = Topology::random_regular(n, d, 7).unwrap();
            assert_eq!(t.n(), n);
            assert_eq!(t.m(), (n * d / 2) as u64);
            for u in 0..n {
                assert_eq!(t.degree(NodeIndex(u)), d, "n={n} d={d} not regular");
                let row = t.neighbors(NodeIndex(u));
                let mut sorted = row.to_vec();
                sorted.dedup();
                assert_eq!(sorted.len(), d, "duplicate neighbor at n={n} d={d}");
                assert!(!row.contains(&(u as u32)), "self-loop at n={n} d={d}");
            }
            assert!(t.is_connected(), "n={n} d={d} disconnected");
            // Same parameters, same graph; different seed, different graph.
            let again = Topology::random_regular(n, d, 7).unwrap();
            assert_eq!(t.fingerprint(), again.fingerprint());
            assert_eq!(t.neighbors(NodeIndex(0)), again.neighbors(NodeIndex(0)));
            let other = Topology::random_regular(n, d, 8).unwrap();
            assert_ne!(t.fingerprint(), other.fingerprint());
        }
        assert!(Topology::random_regular(9, 3, 0).is_err(), "odd n*d");
        assert!(Topology::random_regular(8, 1, 0).is_err(), "d < 2");
        assert!(Topology::random_regular(8, 8, 0).is_err(), "d >= n");
    }

    #[test]
    fn from_edges_validates_and_fingerprints_canonically() {
        let t = Topology::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]).unwrap();
        assert_eq!(t.kind(), TopologyKind::Edges);
        assert_eq!(t.m(), 4);
        assert_eq!(t.diameter(), 2);
        // Listing order and orientation do not change the fingerprint.
        let u = Topology::from_edges(4, &[(3, 2), (0, 3), (2, 1), (1, 0)]).unwrap();
        assert_eq!(t.fingerprint(), u.fingerprint());
        assert_eq!(t, u);
        assert!(Topology::from_edges(4, &[(0, 0)]).is_err());
        assert!(Topology::from_edges(4, &[(0, 4)]).is_err());
        assert!(Topology::from_edges(4, &[(0, 1), (1, 0)]).is_err());
        let split = Topology::from_edges(4, &[(0, 1), (2, 3)]).unwrap();
        assert!(!split.is_connected());
    }

    #[test]
    fn fingerprints_separate_families_and_sizes() {
        let fps = [
            Topology::clique(16).unwrap().fingerprint(),
            Topology::clique(17).unwrap().fingerprint(),
            Topology::ring(16).unwrap().fingerprint(),
            Topology::torus(4, 4).unwrap().fingerprint(),
            Topology::random_regular(16, 4, 0).unwrap().fingerprint(),
        ];
        let mut dedup = fps.to_vec();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), fps.len(), "fingerprint collision: {fps:?}");
    }

    #[test]
    fn dsu_components_and_sizes() {
        let mut dsu = Dsu::new(6);
        assert_eq!(dsu.components(), 6);
        assert!(dsu.union(0, 1));
        assert!(dsu.union(1, 2));
        assert!(!dsu.union(0, 2));
        assert_eq!(dsu.components(), 4);
        assert_eq!(dsu.size_of(1), 3);
        assert_eq!(dsu.largest(), 3);
        dsu.union(3, 4);
        dsu.union(4, 5);
        dsu.union(0, 5);
        assert_eq!(dsu.components(), 1);
        assert_eq!(dsu.largest(), 6);
    }
}

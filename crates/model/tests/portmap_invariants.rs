//! Property-based invariants of `PortMap`, exercised against **both**
//! storage backends (dense flat tables and sparse touched-state tables):
//! after *any* interleaved sequence of resolutions and explicit
//! connections the mapping must remain a partial bijection — no
//! self-loops, no duplicate peers, degrees consistent with the peer
//! enumeration and the partitioned permutations — exhaustive resolution
//! of all `n·(n−1)` half-links must yield a perfect matching of
//! endpoints, and `reset()` must leave either backend observationally
//! identical to a fresh map.

use clique_model::ports::{
    Port, PortBackend, PortMap, PortResolver, RandomResolver, RoundRobinResolver,
};
use clique_model::rng::rng_from_seed;
use clique_model::topology::Topology;
use clique_model::NodeIndex;
use proptest::prelude::*;

/// Applies an interleaved op sequence: even steps resolve through the
/// random resolver, odd steps through the round-robin resolver, and every
/// fifth step first attempts an explicit `connect` of the op's endpoints
/// on their lowest free ports (ignoring rejections, which the map must
/// survive unchanged).
const BACKENDS: [PortBackend; 2] = [PortBackend::Dense, PortBackend::Sparse];

fn apply_ops(n: usize, seed: u64, ops: &[(usize, usize, usize)], backend: PortBackend) -> PortMap {
    let mut map = PortMap::with_backend(n, backend).unwrap();
    let mut random = RandomResolver;
    let mut round_robin = RoundRobinResolver;
    let mut rng = rng_from_seed(seed);
    for (step, &(u, p, v)) in ops.iter().enumerate() {
        let u = u % n;
        let p = p % (n - 1);
        let v = v % n;
        if step % 5 == 4 && u != v {
            let free = |map: &PortMap, w: usize| {
                (0..n - 1)
                    .map(Port)
                    .find(|&q| map.peer(NodeIndex(w), q).is_none())
            };
            if let (Some(pu), Some(pv)) = (free(&map, u), free(&map, v)) {
                // May legitimately be rejected (already connected).
                let _ = map.connect(NodeIndex(u), pu, NodeIndex(v), pv);
            }
        }
        let resolver: &mut dyn PortResolver = if step % 2 == 0 {
            &mut random
        } else {
            &mut round_robin
        };
        map.resolve(NodeIndex(u), Port(p), resolver, &mut rng)
            .unwrap();
    }
    map
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any interleaving of random resolutions, round-robin resolutions and
    /// explicit connections keeps the map a partial bijection.
    #[test]
    fn interleaved_ops_keep_partial_bijection(
        n in 2usize..28,
        seed in 0u64..1000,
        ops in prop::collection::vec((0usize..28, 0usize..27, 0usize..28), 1..80),
    ) {
        for backend in BACKENDS {
        let map = apply_ops(n, seed, &ops, backend);
        map.validate().unwrap();

        let view = map.view();
        let mut total_degree = 0usize;
        for u in (0..n).map(NodeIndex) {
            // No self-loops, no duplicate peer entries.
            let mut peers: Vec<usize> = view.peers_of(u).map(|v| v.0).collect();
            prop_assert!(!peers.contains(&u.0), "self-loop at {u}");
            let distinct = peers.len();
            peers.sort_unstable();
            peers.dedup();
            prop_assert_eq!(peers.len(), distinct, "duplicate peer at {}", u);

            // degree(u) consistent with peers(u) and with assigned ports.
            prop_assert_eq!(map.degree(u), peers.len());
            let assigned = (0..n - 1)
                .filter(|&p| map.peer(u, Port(p)).is_some())
                .count();
            prop_assert_eq!(assigned, map.degree(u));
            prop_assert_eq!(view.unconnected_count(u), n - 1 - map.degree(u));
            total_degree += map.degree(u);

            // Every peer link is symmetric and indexed from both sides.
            for &v in &peers {
                let v = NodeIndex(v);
                let pu = map.port_to(u, v).unwrap();
                let d = map.peer(u, pu).unwrap();
                prop_assert_eq!(d.node, v);
                prop_assert_eq!(map.peer(v, d.port).map(|e| e.node), Some(u));
            }
        }
        prop_assert_eq!(total_degree, 2 * map.link_count());
        }
    }

    /// Resolving every half-link (in a scrambled order) yields a perfect
    /// matching of endpoints: `n·(n−1)/2` links, full connectivity, every
    /// port of every node assigned exactly once.
    #[test]
    fn exhaustive_resolution_is_a_perfect_matching(
        n in 2usize..20,
        seed in 0u64..1000,
        stride in 1usize..997,
    ) {
        let total = n * (n - 1);
        // Force the enumeration stride coprime to the half-link count so
        // every half-link is visited exactly once.
        let mut stride = stride;
        while gcd(stride, total) != 1 {
            stride += 1;
        }
        for backend in BACKENDS {
        let mut map = PortMap::with_backend(n, backend).unwrap();
        let mut resolver = RandomResolver;
        let mut rng = rng_from_seed(seed);
        for s in 0..total {
            let x = (s * stride) % total;
            map.resolve(NodeIndex(x / (n - 1)), Port(x % (n - 1)), &mut resolver, &mut rng)
                .unwrap();
        }
        map.validate().unwrap();
        prop_assert_eq!(map.link_count(), n * (n - 1) / 2);
        for u in (0..n).map(NodeIndex) {
            prop_assert_eq!(map.degree(u), n - 1);
            prop_assert_eq!(map.view().unconnected_count(u), 0);
            for v in (0..n).map(NodeIndex) {
                prop_assert_eq!(map.connected(u, v), u != v);
            }
            // Endpoint bijectivity: u's ports hit each peer exactly once.
            let mut hit: Vec<usize> =
                (0..n - 1).map(|p| map.peer(u, Port(p)).unwrap().node.0).collect();
            hit.sort_unstable();
            let expected: Vec<usize> = (0..n).filter(|&v| v != u.0).collect();
            prop_assert_eq!(hit, expected);
        }
        }
    }

    /// After any interleaved op sequence, `reset()` returns the map to a
    /// state *observationally identical* to a freshly constructed one: the
    /// same op sequence driven by the same RNG state produces the same
    /// resolutions, endpoint for endpoint, on the reset map as on a fresh
    /// map — so recycling a map across trials cannot change any recorded
    /// experiment number.
    #[test]
    fn reset_map_is_observationally_fresh(
        n in 2usize..28,
        warm_seed in 0u64..1000,
        seed in 0u64..1000,
        warm_ops in prop::collection::vec((0usize..28, 0usize..27, 0usize..28), 1..80),
        ops in prop::collection::vec((0usize..28, 0usize..27), 1..80),
    ) {
        // Dirty the map with one op sequence, then reset it.
        for backend in BACKENDS {
        let mut recycled = apply_ops(n, warm_seed, &warm_ops, backend);
        recycled.reset();
        recycled.validate().unwrap();
        prop_assert_eq!(recycled.link_count(), 0);

        // Replay a second sequence on the reset map and on a fresh map,
        // with identical RNG states; every resolution must coincide.
        let mut fresh = PortMap::with_backend(n, backend).unwrap();
        let mut resolver = RandomResolver;
        let mut rng_recycled = rng_from_seed(seed);
        let mut rng_fresh = rng_from_seed(seed);
        for &(u, p) in &ops {
            let (u, p) = (u % n, p % (n - 1));
            let a = recycled
                .resolve(NodeIndex(u), Port(p), &mut resolver, &mut rng_recycled)
                .unwrap();
            let b = fresh
                .resolve(NodeIndex(u), Port(p), &mut resolver, &mut rng_fresh)
                .unwrap();
            prop_assert_eq!(a, b, "resolution diverged after reset at ({}, {})", u, p);
        }
        recycled.validate().unwrap();
        prop_assert_eq!(&recycled, &fresh);

        // And a second reset brings both back to the same pristine state.
        recycled.reset();
        fresh.reset();
        prop_assert_eq!(&recycled, &fresh);
        prop_assert_eq!(&recycled, &PortMap::with_backend(n, backend).unwrap());
        }
    }

    /// The unconnected-peers permutation exposed to resolvers always
    /// enumerates exactly the complement of the connected peers.
    #[test]
    fn unconnected_enumeration_is_exact_complement(
        n in 2usize..24,
        seed in 0u64..1000,
        ops in prop::collection::vec((0usize..24, 0usize..23), 1..60),
    ) {
        for backend in BACKENDS {
        let mut map = PortMap::with_backend(n, backend).unwrap();
        let mut resolver = RandomResolver;
        let mut rng = rng_from_seed(seed);
        for &(u, p) in &ops {
            map.resolve(NodeIndex(u % n), Port(p % (n - 1)), &mut resolver, &mut rng)
                .unwrap();
        }
        let view = map.view();
        for u in (0..n).map(NodeIndex) {
            let mut listed: Vec<usize> = (0..view.unconnected_count(u))
                .map(|k| view.unconnected_peer(u, k).0)
                .collect();
            listed.sort_unstable();
            let complement: Vec<usize> = (0..n)
                .filter(|&v| v != u.0 && !map.connected(u, NodeIndex(v)))
                .collect();
            prop_assert_eq!(listed, complement);

            let mut free: Vec<usize> = (0..view.unconnected_count(u))
                .map(|k| view.free_port(u, k).0)
                .collect();
            free.sort_unstable();
            let unassigned: Vec<usize> = (0..n - 1)
                .filter(|&p| map.peer(u, Port(p)).is_none())
                .collect();
            prop_assert_eq!(free, unassigned);
        }
        }
    }

    /// Topology × backend draw-schedule identity: on a non-clique
    /// topology every backend serves the same CSR graph tables, so any
    /// resolution sequence under `RandomResolver` must produce identical
    /// endpoints (and consume the RNG identically) on all of them.
    #[test]
    fn topology_resolution_is_backend_invariant(
        kind in 0usize..3,
        size in 0usize..25,
        gseed in 0u64..100,
        seed in 0u64..1000,
        ops in prop::collection::vec((0usize..64, 0usize..64), 1..120),
    ) {
        let topo = arbitrary_topology(kind, size, gseed);
        let n = topo.n();
        let mut reference: Option<Vec<(usize, usize)>> = None;
        for backend in BACKENDS {
            let mut map = PortMap::for_topology(&topo, backend).unwrap();
            prop_assert_eq!(map.backend(), backend);
            let mut resolver = RandomResolver;
            let mut rng = rng_from_seed(seed);
            let mut drawn = Vec::new();
            for &(u, p) in &ops {
                let u = NodeIndex(u % n);
                let deg = map.ports_of(u);
                let e = map
                    .resolve(u, Port(p % deg), &mut resolver, &mut rng)
                    .unwrap();
                drawn.push((e.node.0, e.port.0));
            }
            map.validate().unwrap();
            prop_assert!(map.link_count() as u64 <= topo.m());
            match &reference {
                None => reference = Some(drawn),
                Some(expect) => prop_assert_eq!(
                    &drawn,
                    expect,
                    "{} diverged from the dense draw schedule on {}",
                    backend,
                    &topo
                ),
            }
        }
    }

    /// `reset()` on a topology-backed map is observationally fresh —
    /// the graph-arena recycling guarantee: replaying a sequence on a
    /// reset map and on a newly built map (same RNG state) coincides
    /// endpoint for endpoint.
    #[test]
    fn topology_reset_is_observationally_fresh(
        kind in 0usize..3,
        size in 0usize..25,
        gseed in 0u64..100,
        seed in 0u64..1000,
        warm_ops in prop::collection::vec((0usize..64, 0usize..64), 1..80),
        ops in prop::collection::vec((0usize..64, 0usize..64), 1..80),
    ) {
        let topo = arbitrary_topology(kind, size, gseed);
        let n = topo.n();
        for backend in BACKENDS {
            let mut recycled = PortMap::for_topology(&topo, backend).unwrap();
            let mut resolver = RandomResolver;
            let mut rng = rng_from_seed(seed ^ 0xD15C);
            for &(u, p) in &warm_ops {
                let u = NodeIndex(u % n);
                let deg = recycled.ports_of(u);
                recycled.resolve(u, Port(p % deg), &mut resolver, &mut rng).unwrap();
            }
            recycled.reset();
            recycled.validate().unwrap();
            prop_assert_eq!(recycled.link_count(), 0);

            let mut fresh = PortMap::for_topology(&topo, backend).unwrap();
            let mut rng_recycled = rng_from_seed(seed);
            let mut rng_fresh = rng_from_seed(seed);
            for &(u, p) in &ops {
                let u = NodeIndex(u % n);
                let deg = fresh.ports_of(u);
                let a = recycled
                    .resolve(u, Port(p % deg), &mut resolver, &mut rng_recycled)
                    .unwrap();
                let b = fresh
                    .resolve(u, Port(p % deg), &mut resolver, &mut rng_fresh)
                    .unwrap();
                prop_assert_eq!(a, b, "resolution diverged after reset at ({}, {})", u, p);
            }
            prop_assert_eq!(&recycled, &fresh);
        }
    }
}

/// Deterministically maps proptest draws onto the three non-clique
/// generator families at small sizes.
fn arbitrary_topology(kind: usize, size: usize, gseed: u64) -> Topology {
    match kind {
        0 => Topology::ring(4 + size).unwrap(),
        1 => Topology::torus(3 + size % 4, 3 + size / 8).unwrap(),
        _ => Topology::random_regular(6 + 2 * (size % 10), 4, gseed).unwrap(),
    }
}

fn gcd(a: usize, b: usize) -> usize {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

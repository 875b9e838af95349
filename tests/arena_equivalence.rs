//! Arena-recycled multi-seed runs must be *byte-identical* to the
//! run-per-trial path, for every algorithm in the repository — the
//! guarantee that lets the sweep harness recycle one `PortMap` (and all
//! engine buffers) across hundreds of Monte-Carlo trials without changing
//! a single recorded number.
//!
//! Each case runs the same (algorithm, n, seed) grid twice — once building
//! every simulation from scratch, once recycling a single arena across all
//! trials *and algorithms* — and compares full outcome fingerprints:
//! rounds/time, total and per-round message counts, every node's decision,
//! the awake set, the ID assignment, and the halt reason.
//!
//! Recycling must also keep an arena at the live state of its largest
//! trial: asynchronous trials on one arena, fault-free and on a
//! congested lossy network, must not grow its resident bytes, and the
//! engine's per-link state holds one entry per link used, so a sparse
//! topology never pays for the `n²` node pairs it lacks. The
//! `n = 1024` version of the growth check is ignored by default; CI runs
//! it in release mode:
//!
//! ```sh
//! cargo test --release --test arena_equivalence -- --ignored --nocapture
//! ```

use improved_le::algorithms::asynchronous::{afek_gafni as a_ag, tradeoff as a_tr};
use improved_le::algorithms::sync::{
    afek_gafni, gossip_baseline, improved_tradeoff, las_vegas, small_id, sublinear_mc,
    two_round_adversarial,
};
use improved_le::asynchronous::{
    AsyncArena, AsyncContext, AsyncNode, AsyncSimBuilder, AsyncWakeSchedule, NetworkConfig,
    Received, Reliability,
};
use improved_le::model::ids::IdSpace;
use improved_le::model::rng::rng_from_seed;
use improved_le::model::{Decision, NodeIndex, PortBackend, Topology, WakeCause};
use improved_le::sync::{Outcome, SyncArena, SyncSimBuilder, WakeSchedule};

const N: usize = 48;
const SEEDS: [u64; 4] = [0, 1, 7, 42];

/// Everything measurable about a synchronous outcome, byte for byte.
#[derive(Debug, PartialEq)]
struct SyncFingerprint {
    rounds: usize,
    total: u64,
    per_round: Vec<u64>,
    decisions: Vec<Decision>,
    awake: Vec<bool>,
    ids: Vec<improved_le::model::Id>,
    dropped: u64,
    halt: improved_le::sync::HaltReason,
}

fn sync_fingerprint(o: &Outcome) -> SyncFingerprint {
    SyncFingerprint {
        rounds: o.rounds,
        total: o.stats.total(),
        per_round: o.stats.rounds().to_vec(),
        decisions: o.decisions.clone(),
        awake: o.awake.clone(),
        ids: o.ids.as_slice().to_vec(),
        dropped: o.messages_to_terminated,
        halt: o.halt,
    }
}

/// Runs one sync configuration twice (fresh vs. recycled through `arena`)
/// and asserts identical fingerprints. The builder closure is re-invoked
/// per run so wake schedules and explicit IDs are re-derived identically.
fn assert_sync_equivalent<F>(arena: &mut SyncArena, label: &str, mut run: F)
where
    F: FnMut(Option<&mut SyncArena>) -> Outcome,
{
    let fresh = run(None);
    let recycled = run(Some(arena));
    assert_eq!(
        sync_fingerprint(&fresh),
        sync_fingerprint(&recycled),
        "arena-recycled run diverged from fresh run: {label}"
    );
}

#[test]
fn all_sync_algorithms_are_arena_equivalent() {
    // ONE arena deliberately crosses all algorithms, sizes and message
    // types: recycling must never leak state between trials.
    let mut arena = SyncArena::new();

    for seed in SEEDS {
        // Improved deterministic tradeoff (Theorem 3.10).
        let cfg = improved_tradeoff::Config::with_rounds(5);
        assert_sync_equivalent(&mut arena, "improved_tradeoff", |arena| {
            let b = SyncSimBuilder::new(N).seed(seed);
            let sim = |b: SyncSimBuilder, a: Option<&mut SyncArena>| match a {
                Some(a) => b
                    .build_in(a, |id, n| improved_tradeoff::Node::new(id, n, cfg))
                    .unwrap()
                    .run_reusing(a)
                    .unwrap(),
                None => b
                    .build(|id, n| improved_tradeoff::Node::new(id, n, cfg))
                    .unwrap()
                    .run()
                    .unwrap(),
            };
            sim(b, arena)
        });

        // Afek–Gafni baseline under adversarial wake-up.
        let cfg = afek_gafni::Config::with_rounds(4);
        assert_sync_equivalent(&mut arena, "afek_gafni", |arena| {
            let mut wake_rng = rng_from_seed(seed ^ 0xA5);
            let wake = WakeSchedule::random_subset(N, N / 4, &mut wake_rng);
            let b = SyncSimBuilder::new(N).seed(seed).wake(wake);
            match arena {
                Some(a) => b
                    .build_in(a, |id, n| afek_gafni::Node::new(id, n, cfg))
                    .unwrap()
                    .run_reusing(a)
                    .unwrap(),
                None => b
                    .build(|id, n| afek_gafni::Node::new(id, n, cfg))
                    .unwrap()
                    .run()
                    .unwrap(),
            }
        });

        // Las Vegas (Theorem 3.16).
        assert_sync_equivalent(&mut arena, "las_vegas", |arena| {
            let b = SyncSimBuilder::new(N).seed(seed);
            match arena {
                Some(a) => b
                    .build_in(a, |id, _| {
                        las_vegas::Node::new(id, las_vegas::Config::default())
                    })
                    .unwrap()
                    .run_reusing(a)
                    .unwrap(),
                None => b
                    .build(|id, _| las_vegas::Node::new(id, las_vegas::Config::default()))
                    .unwrap()
                    .run()
                    .unwrap(),
            }
        });

        // Sublinear Monte Carlo [16].
        assert_sync_equivalent(&mut arena, "sublinear_mc", |arena| {
            let b = SyncSimBuilder::new(N).seed(seed);
            match arena {
                Some(a) => b
                    .build_in(a, |_, _| {
                        sublinear_mc::Node::new(sublinear_mc::Config::default())
                    })
                    .unwrap()
                    .run_reusing(a)
                    .unwrap(),
                None => b
                    .build(|_, _| sublinear_mc::Node::new(sublinear_mc::Config::default()))
                    .unwrap()
                    .run()
                    .unwrap(),
            }
        });

        // Two-round algorithm under adversarial wake-up (Theorem 4.1).
        assert_sync_equivalent(&mut arena, "two_round_adversarial", |arena| {
            let mut wake_rng = rng_from_seed(seed ^ 0xB7);
            let wake = WakeSchedule::random_subset(N, 3, &mut wake_rng);
            let b = SyncSimBuilder::new(N).seed(seed).wake(wake).max_rounds(2);
            let factory = |_: improved_le::model::Id, _: usize| {
                two_round_adversarial::Node::new(two_round_adversarial::Config::new(0.1))
            };
            match arena {
                Some(a) => b.build_in(a, factory).unwrap().run_reusing(a).unwrap(),
                None => b.build(factory).unwrap().run().unwrap(),
            }
        });

        // Gossip baseline (stand-in for [14]).
        let cfg = gossip_baseline::Config::default();
        assert_sync_equivalent(&mut arena, "gossip_baseline", |arena| {
            let mut wake_rng = rng_from_seed(seed ^ 0xC9);
            let wake = WakeSchedule::random_subset(N, 1, &mut wake_rng);
            let b = SyncSimBuilder::new(N)
                .seed(seed)
                .wake(wake)
                .max_rounds(cfg.total_rounds(N) + 2);
            match arena {
                Some(a) => b
                    .build_in(a, |id, _| gossip_baseline::Node::new(id, cfg))
                    .unwrap()
                    .run_reusing(a)
                    .unwrap(),
                None => b
                    .build(|id, _| gossip_baseline::Node::new(id, cfg))
                    .unwrap()
                    .run()
                    .unwrap(),
            }
        });

        // Small-ID algorithm (Theorem 3.15) with explicit linear IDs.
        let cfg = small_id::Config::new(4, 2);
        assert_sync_equivalent(&mut arena, "small_id", |arena| {
            let mut id_rng = rng_from_seed(seed);
            let ids = IdSpace::linear(N, 2).assign(N, &mut id_rng).unwrap();
            let b = SyncSimBuilder::new(N)
                .seed(seed)
                .ids(ids)
                .max_rounds(cfg.max_rounds(N) + 1);
            match arena {
                Some(a) => b
                    .build_in(a, |id, n| small_id::Node::new(id, n, cfg))
                    .unwrap()
                    .run_reusing(a)
                    .unwrap(),
                None => b
                    .build(|id, n| small_id::Node::new(id, n, cfg))
                    .unwrap()
                    .run()
                    .unwrap(),
            }
        });
    }
}

#[test]
fn async_algorithms_are_arena_equivalent() {
    let fingerprint = |o: &improved_le::asynchronous::AsyncOutcome| {
        (
            o.time.to_bits(),
            o.stats.total(),
            o.stats.rounds().to_vec(),
            o.decisions.clone(),
            o.awake.clone(),
            o.messages_to_terminated,
            o.halt,
        )
    };
    let mut arena = AsyncArena::new();
    for seed in SEEDS {
        // Asynchronous tradeoff (Theorem 5.1, k = 2).
        let fresh = AsyncSimBuilder::new(N)
            .seed(seed)
            .wake(AsyncWakeSchedule::single(NodeIndex(0)))
            .build(|_, _| a_tr::Node::new(a_tr::Config::new(2)))
            .unwrap()
            .run()
            .unwrap();
        let recycled = AsyncSimBuilder::new(N)
            .seed(seed)
            .wake(AsyncWakeSchedule::single(NodeIndex(0)))
            .build_in(&mut arena, |_, _| a_tr::Node::new(a_tr::Config::new(2)))
            .unwrap()
            .run_reusing(&mut arena)
            .unwrap();
        assert_eq!(
            fingerprint(&fresh),
            fingerprint(&recycled),
            "async tradeoff diverged at seed {seed}"
        );

        // Asynchronized Afek–Gafni (Theorem 5.14).
        let fresh = AsyncSimBuilder::new(N)
            .seed(seed)
            .wake(AsyncWakeSchedule::simultaneous(N))
            .build(a_ag::Node::new)
            .unwrap()
            .run()
            .unwrap();
        let recycled = AsyncSimBuilder::new(N)
            .seed(seed)
            .wake(AsyncWakeSchedule::simultaneous(N))
            .build_in(&mut arena, a_ag::Node::new)
            .unwrap()
            .run_reusing(&mut arena)
            .unwrap();
        assert_eq!(
            fingerprint(&fresh),
            fingerprint(&recycled),
            "async afek_gafni diverged at seed {seed}"
        );
    }
}

/// The recycled path must also preserve the golden fingerprints pinned in
/// `tests/determinism.rs` — the strongest cross-check that `reset()` plus
/// buffer recycling leaves the draw schedule untouched.
#[test]
fn golden_fingerprint_holds_through_recycling() {
    let mut arena = SyncArena::new();
    for (n, golden) in [
        (64, (5, 469, Some(NodeIndex(26)))),
        (256, (5, 2819, Some(NodeIndex(136)))),
    ] {
        // Dirty the arena at the same n first, then at a different n, so
        // the golden run exercises both the reset path and the rebuild
        // path.
        for warm_seed in [3u64, 9] {
            let cfg = improved_tradeoff::Config::with_rounds(3);
            SyncSimBuilder::new(n)
                .seed(warm_seed)
                .build_in(&mut arena, |id, n| improved_tradeoff::Node::new(id, n, cfg))
                .unwrap()
                .run_reusing(&mut arena)
                .unwrap();
        }
        let cfg = improved_tradeoff::Config::with_rounds(5);
        let o = SyncSimBuilder::new(n)
            .seed(0)
            .build_in(&mut arena, |id, n| improved_tradeoff::Node::new(id, n, cfg))
            .unwrap()
            .run_reusing(&mut arena)
            .unwrap();
        o.validate_explicit().unwrap();
        assert_eq!(
            (o.rounds, o.stats.total(), o.unique_leader()),
            golden,
            "recycled run broke the golden fingerprint at n = {n}"
        );
    }
}

/// `exp_congestion`'s congested-loss network: 8 messages per time unit
/// per link, 8 queued, 5 % loss, stop-and-wait retransmission.
fn congested_loss() -> NetworkConfig {
    NetworkConfig::new()
        .link_rate(8.0)
        .queue_cap(8)
        .loss(0.05)
        .reliable(Reliability::default())
}

/// Runs Algorithm 2 (`k = 2`) at `n` for seeds `0..trials` on one arena
/// and returns the arena's resident bytes after each trial.
fn async_resident_per_trial(n: usize, trials: u64, network: Option<NetworkConfig>) -> Vec<u64> {
    let mut arena = AsyncArena::new();
    (0..trials)
        .map(|seed| {
            let builder = AsyncSimBuilder::new(n)
                .seed(seed)
                .backend(PortBackend::Auto)
                .wake(AsyncWakeSchedule::single(NodeIndex(0)));
            let builder = match network.clone() {
                Some(net) => builder.network(net),
                None => builder,
            };
            let outcome = builder
                .build_in(&mut arena, |_, _| a_tr::Node::new(a_tr::Config::new(2)))
                .unwrap()
                .run_reusing(&mut arena)
                .unwrap();
            assert!(outcome.elects_despite_faults(), "seed {seed}: no election");
            arena.resident_bytes()
        })
        .collect()
}

/// Asserts that the last trial left the arena within 10 % of its size
/// after the second: the first trials size every store, and from there a
/// recycled store keeps its largest trial's live state instead of growing
/// with every trial.
fn assert_arena_does_not_grow(label: &str, resident: &[u64]) {
    let (second, last) = (resident[1], resident[resident.len() - 1]);
    assert!(
        last * 10 <= second * 11,
        "{label}: recycled trials grew the arena from {second} to {last} B: {resident:?}"
    );
}

#[test]
fn recycled_async_arena_does_not_grow() {
    let clean = async_resident_per_trial(256, 12, None);
    assert_arena_does_not_grow("fault-free", &clean);
    let lossy = async_resident_per_trial(256, 12, Some(congested_loss()));
    assert_arena_does_not_grow("congested-loss", &lossy);
}

#[test]
#[ignore = "large-n arena check: run explicitly (CI) in release mode"]
fn recycled_async_arena_does_not_grow_at_n_1024() {
    // perfbench's `async_lossy` workload: 1024 nodes on the congested-loss
    // network, where the event queue and the reliability slab hold most
    // of a trial's transient state.
    let lossy = async_resident_per_trial(1024, 40, Some(congested_loss()));
    println!("async_lossy arena, bytes after each trial: {lossy:?}");
    assert_arena_does_not_grow("congested-loss, n = 1024", &lossy);
}

/// Floods once: a node sends on every port when it wakes, and a message
/// wakes its receiver. Each link then carries one message each way.
struct Flood;

impl AsyncNode for Flood {
    type Message = ();

    fn on_wake(&mut self, ctx: &mut AsyncContext<'_, ()>, _cause: WakeCause) {
        for p in ctx.all_ports() {
            ctx.send(p, ());
        }
    }

    fn on_message(&mut self, _ctx: &mut AsyncContext<'_, ()>, _m: Received<()>) {}

    fn decision(&self) -> Decision {
        Decision::Undecided
    }
}

#[test]
fn per_link_state_is_linear_in_links_on_a_ring() {
    // The auto backend resolves a 4096-node ring to the dense stand-in.
    // Per-link state keyed by node pairs would take n·n slots, 128 MiB
    // each for the FIFO floors and the busy horizons; indexed by link id
    // each holds one 16-byte entry (both directions) per link.
    let topo = Topology::ring(4096).unwrap();
    let links = topo.m();
    let trial = |arena: Option<&mut AsyncArena>| {
        let builder = AsyncSimBuilder::new(topo.n())
            .seed(5)
            .topology(topo.clone())
            .backend(PortBackend::Auto)
            .wake(AsyncWakeSchedule::single(NodeIndex(0)))
            // A finite link rate turns the busy horizons on too.
            .network(NetworkConfig::new().link_rate(8.0));
        let o = match arena {
            Some(arena) => builder
                .build_in(arena, |_, _| Flood)
                .unwrap()
                .run_reusing(arena),
            None => builder.build(|_, _| Flood).unwrap().run(),
        }
        .unwrap();
        assert_eq!(o.stats.total(), 2 * links, "the flood missed a link");
        (
            o.time.to_bits(),
            o.stats.total(),
            o.stats.rounds().to_vec(),
            o.awake.clone(),
            o.halt,
        )
    };
    let fresh = trial(None);
    let mut arena = AsyncArena::new();
    for _ in 0..2 {
        assert_eq!(trial(Some(&mut arena)), fresh);
        let bytes = arena.link_bytes();
        assert!(
            bytes > 0 && bytes <= 64 * links,
            "{bytes} B of floors and horizons for {links} links: {arena:?}"
        );
    }
}

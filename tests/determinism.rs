//! Every simulation is a deterministic function of its master seed — the
//! property that makes every number the experiment binaries print
//! reproducible.

use improved_le::algorithms::asynchronous::{afek_gafni as a_ag, tradeoff as a_tr};
use improved_le::algorithms::sync::{improved_tradeoff, las_vegas, two_round_adversarial};
use improved_le::asynchronous::{AsyncSimBuilder, AsyncWakeSchedule};
use improved_le::model::NodeIndex;
use improved_le::sync::{SyncSimBuilder, WakeSchedule};

fn sync_fingerprint(
    outcome: &improved_le::sync::Outcome,
) -> (usize, u64, Option<NodeIndex>, Vec<u64>) {
    (
        outcome.rounds,
        outcome.stats.total(),
        outcome.unique_leader(),
        outcome.stats.rounds().to_vec(),
    )
}

#[test]
fn improved_tradeoff_is_seed_deterministic() {
    let run = |seed| {
        let cfg = improved_tradeoff::Config::with_rounds(5);
        let o = SyncSimBuilder::new(64)
            .seed(seed)
            .build(|id, n| improved_tradeoff::Node::new(id, n, cfg))
            .unwrap()
            .run()
            .unwrap();
        sync_fingerprint(&o)
    };
    for seed in [0u64, 1, 99] {
        assert_eq!(run(seed), run(seed));
    }
    // Different seeds draw different IDs (quasilinear universe), so
    // fingerprints differ with overwhelming probability.
    assert_ne!(run(0), run(1));
}

#[test]
fn randomized_sync_algorithms_are_seed_deterministic() {
    let lv = |seed| {
        let o = SyncSimBuilder::new(64)
            .seed(seed)
            .build(|id, _| las_vegas::Node::new(id, las_vegas::Config::default()))
            .unwrap()
            .run()
            .unwrap();
        sync_fingerprint(&o)
    };
    assert_eq!(lv(7), lv(7));

    let tr = |seed| {
        let o = SyncSimBuilder::new(64)
            .seed(seed)
            .wake(WakeSchedule::single(NodeIndex(0)))
            .max_rounds(2)
            .build(|_, _| two_round_adversarial::Node::new(two_round_adversarial::Config::new(0.1)))
            .unwrap()
            .run()
            .unwrap();
        sync_fingerprint(&o)
    };
    assert_eq!(tr(3), tr(3));
}

#[test]
fn async_algorithms_are_seed_deterministic() {
    let tr = |seed| {
        let o = AsyncSimBuilder::new(48)
            .seed(seed)
            .wake(AsyncWakeSchedule::single(NodeIndex(0)))
            .build(|_, _| a_tr::Node::new(a_tr::Config::new(2)))
            .unwrap()
            .run()
            .unwrap();
        (o.time.to_bits(), o.stats.total(), o.unique_leader())
    };
    assert_eq!(tr(5), tr(5));

    let ag = |seed| {
        let o = AsyncSimBuilder::new(48)
            .seed(seed)
            .wake(AsyncWakeSchedule::simultaneous(48))
            .build(a_ag::Node::new)
            .unwrap()
            .run()
            .unwrap();
        (o.time.to_bits(), o.stats.total(), o.unique_leader())
    };
    assert_eq!(ag(5), ag(5));
}

/// Golden fingerprints: the improved deterministic tradeoff (Theorem 3.10,
/// ℓ = 5) at `seed = 0` must reproduce these exact executions on every
/// machine and toolchain, at *two* scales so a hot-path change that only
/// bites past some threshold is still caught. If a row changes, either the
/// engine, the ID assignment, the port resolver, or the RNG stream changed
/// — all of which invalidate recorded experiment numbers and must be
/// deliberate.
///
/// # Re-recording (only after an intentional resolution-schedule change)
///
/// 1. Confirm `tests/portmap_equivalence.rs` still passes — its
///    round-robin outcomes are schedule-independent, so a drift there is
///    a bug, not a re-record.
/// 2. Run each configuration below and paste the printed
///    `(rounds, messages, leader)` triple over the constant.
/// 3. Note the change in `CHANGES.md` (recorded experiment CSVs under
///    `results/` are stale until regenerated).
///
/// History: values re-recorded for the flat `PortMap` rewrite (the
/// `RandomResolver` now draws one index into the unconnected-peers
/// permutation instead of rejection sampling; legacy n = 64 values were
/// `(5, 536, 26)` / `(2, 1457, 1)`).
#[test]
fn golden_fingerprint_improved_tradeoff_seed0() {
    for (n, golden) in [
        (64, (5, 469, Some(NodeIndex(26)))),
        (256, (5, 2819, Some(NodeIndex(136)))),
    ] {
        let cfg = improved_tradeoff::Config::with_rounds(5);
        let o = SyncSimBuilder::new(n)
            .seed(0)
            .build(|id, n| improved_tradeoff::Node::new(id, n, cfg))
            .unwrap()
            .run()
            .unwrap();
        o.validate_explicit().unwrap();
        assert_eq!(
            (o.rounds, o.stats.total(), o.unique_leader()),
            golden,
            "golden fingerprint drifted at n = {n} — cross-version \
             reproducibility broken"
        );
    }
}

/// Golden fingerprints: Theorem 4.1's 2-round algorithm (ε = 0.1) under
/// simultaneous wake-up at `seed = 0`, at two scales. Locks the randomized
/// candidacy draws, the referee rendezvous, and the message accounting.
/// Re-record procedure: see `golden_fingerprint_improved_tradeoff_seed0`.
/// (These values survived the flat-`PortMap` re-record unchanged: at full
/// wake-up every node receives a round-1 ping under either resolution
/// schedule, so candidacy — and hence the whole execution — depends only
/// on the node coin streams.)
#[test]
fn golden_fingerprint_two_round_adversarial_seed0() {
    for (n, golden) in [
        (64, (2, 1457, Some(NodeIndex(1)))),
        (256, (2, 13786, Some(NodeIndex(66)))),
    ] {
        let o = SyncSimBuilder::new(n)
            .seed(0)
            .wake(WakeSchedule::simultaneous(n))
            .max_rounds(2)
            .build(|_, _| two_round_adversarial::Node::new(two_round_adversarial::Config::new(0.1)))
            .unwrap()
            .run()
            .unwrap();
        o.validate_implicit().unwrap();
        assert_eq!(
            (o.rounds, o.stats.total(), o.unique_leader()),
            golden,
            "golden fingerprint drifted at n = {n} — cross-version \
             reproducibility broken"
        );
    }
}

/// Golden fingerprints for the *asynchronous* engine: both async
/// algorithms at `seed = 0` under the default adversary
/// (`Oblivious(UniformDelay::full())`), pinning `(time_bits, messages,
/// leader)` at two scales. Anything that shifts the delay draw schedule,
/// the adversary plumbing, the ID stream, or the resolver stream moves
/// these.
///
/// Async goldens are **adversary-scoped**: they pin the default oblivious
/// uniform adversary only (other adversaries are covered by the
/// `adversary_suite` invariants and the `RecordedSchedule` replay test).
/// Re-record procedure: as for
/// [`golden_fingerprint_improved_tradeoff_seed0`], printing
/// `(time.to_bits(), stats.total(), unique_leader())`.
///
/// History: recorded after `UniformDelay::full()` was fixed to sample the
/// documented open interval `(0, 1]` — it previously clipped the lower end
/// to 0.01, silently flooring every async trial's delays, and drew through
/// `gen_range` instead of `1 − gen::<f64>()`. That fix changed every
/// default-delay async execution, so these constants deliberately pin the
/// *corrected* schedule (there were no async goldens before it).
#[test]
fn golden_fingerprint_async_seed0() {
    for (n, golden_time_bits, golden_msgs, golden_leader) in [
        (64usize, 4616551870472006621u64, 2013u64, 15usize),
        (256, 4618253587610216838, 14799, 70),
    ] {
        let o = AsyncSimBuilder::new(n)
            .seed(0)
            .wake(AsyncWakeSchedule::single(NodeIndex(0)))
            .build(|_, _| a_tr::Node::new(a_tr::Config::new(2)))
            .unwrap()
            .run()
            .unwrap();
        assert_eq!(
            (o.time.to_bits(), o.stats.total(), o.unique_leader()),
            (
                golden_time_bits,
                golden_msgs,
                Some(NodeIndex(golden_leader))
            ),
            "async tradeoff golden drifted at n = {n} (time = {})",
            o.time
        );
    }
    for (n, golden_time_bits, golden_msgs, golden_leader) in [
        (64usize, 4625275065130365182u64, 544u64, 51usize),
        (256, 4626122797709239310, 2400, 26),
    ] {
        let o = AsyncSimBuilder::new(n)
            .seed(0)
            .wake(AsyncWakeSchedule::simultaneous(n))
            .build(a_ag::Node::new)
            .unwrap()
            .run()
            .unwrap();
        assert_eq!(
            (o.time.to_bits(), o.stats.total(), o.unique_leader()),
            (
                golden_time_bits,
                golden_msgs,
                Some(NodeIndex(golden_leader))
            ),
            "async Afek–Gafni golden drifted at n = {n} (time = {})",
            o.time
        );
    }
}

/// The transparent (all-defaults) [`NetworkConfig`] must reproduce the
/// async goldens above **byte-identically** — the fault layer's
/// acceptance bar: merely installing the network plumbing, with every
/// feature off, may not move a single bit of any recorded execution.
#[test]
fn golden_fingerprint_async_seed0_with_transparent_network() {
    use improved_le::asynchronous::NetworkConfig;
    for (n, golden_time_bits, golden_msgs, golden_leader) in [
        (64usize, 4616551870472006621u64, 2013u64, 15usize),
        (256, 4618253587610216838, 14799, 70),
    ] {
        let o = AsyncSimBuilder::new(n)
            .seed(0)
            .wake(AsyncWakeSchedule::single(NodeIndex(0)))
            .network(NetworkConfig::default())
            .build(|_, _| a_tr::Node::new(a_tr::Config::new(2)))
            .unwrap()
            .run()
            .unwrap();
        assert_eq!(
            (o.time.to_bits(), o.stats.total(), o.unique_leader()),
            (
                golden_time_bits,
                golden_msgs,
                Some(NodeIndex(golden_leader))
            ),
            "the transparent network broke byte-identity at n = {n}"
        );
        assert_eq!(o.stats.faults, Default::default());
        assert_eq!(o.crashed_count(), 0);
    }
    for (n, golden_time_bits, golden_msgs, golden_leader) in [
        (64usize, 4625275065130365182u64, 544u64, 51usize),
        (256, 4626122797709239310, 2400, 26),
    ] {
        let o = AsyncSimBuilder::new(n)
            .seed(0)
            .wake(AsyncWakeSchedule::simultaneous(n))
            .network(NetworkConfig::default())
            .build(a_ag::Node::new)
            .unwrap()
            .run()
            .unwrap();
        assert_eq!(
            (o.time.to_bits(), o.stats.total(), o.unique_leader()),
            (
                golden_time_bits,
                golden_msgs,
                Some(NodeIndex(golden_leader))
            ),
            "the transparent network broke byte-identity at n = {n}"
        );
    }
}

/// Golden fingerprints for the *faulty* network path: Algorithm 2
/// (`k = 2`) at `seed = 0` on `exp_congestion`'s congested-loss network
/// (rate 8, queue cap 8, 5 % loss, stop-and-wait ARQ), pinning
/// `(time_bits, messages, fault counters, leader)` at two scales. A third
/// case adds a crash with recovery of the waker while its first wake-up
/// pings are still unacknowledged, so recovery re-arms retransmission
/// timers.
///
/// The transparent-network goldens above schedule only wake-ups and plain
/// deliveries. These also pin the pop order of reliable data copies,
/// acknowledgements and retransmission timers, whose backed-off horizons
/// (`rto · 2^k`) reach furthest into the future of any event. Re-record
/// procedure: as for [`golden_fingerprint_async_seed0`], printing
/// `(time.to_bits(), stats.total(), stats.faults, unique_leader())`.
#[test]
fn golden_fingerprint_async_seed0_faulty_network() {
    use improved_le::asynchronous::{FaultPlan, NetworkConfig, Reliability};
    use improved_le::model::metrics::FaultCounters;

    let congested_loss = || {
        NetworkConfig::new()
            .link_rate(8.0)
            .queue_cap(8)
            .loss(0.05)
            .reliable(Reliability::default())
    };
    // Every case delivers every payload (goodput = payloads) and drops,
    // abandons or loses nothing at a full link queue.
    let faults = |[payloads, retransmits, acks, loss_drops, crash_drops, duplicates]: [u64; 6]| {
        FaultCounters {
            payloads,
            goodput: payloads,
            retransmits,
            acks,
            loss_drops,
            crash_drops,
            duplicates,
            ..FaultCounters::default()
        }
    };
    let cases = [
        (
            64usize,
            congested_loss(),
            4626306702102791776u64,
            2031u64,
            faults([2031, 220, 2145, 220, 0, 114]),
            15usize,
        ),
        (
            256,
            congested_loss(),
            4630647286795457072,
            14809,
            faults([14809, 1619, 15598, 1619, 0, 789]),
            70,
        ),
        (
            64,
            congested_loss().faults(FaultPlan::new().crash_recovering(NodeIndex(0), 0.5, 2.5)),
            4625472540603717693,
            2025,
            faults([2025, 262, 2164, 221, 41, 139]),
            15,
        ),
    ];
    for (n, net, golden_time_bits, golden_msgs, golden_faults, golden_leader) in cases {
        let o = AsyncSimBuilder::new(n)
            .seed(0)
            .wake(AsyncWakeSchedule::single(NodeIndex(0)))
            .network(net)
            .build(|_, _| a_tr::Node::new(a_tr::Config::new(2)))
            .unwrap()
            .run()
            .unwrap();
        assert_eq!(
            (
                o.time.to_bits(),
                o.stats.total(),
                o.stats.faults,
                o.unique_leader()
            ),
            (
                golden_time_bits,
                golden_msgs,
                golden_faults,
                Some(NodeIndex(golden_leader))
            ),
            "faulty-network golden drifted at n = {n} (time = {})",
            o.time
        );
    }
}

/// The trace names every crash drop the fault counters count: on the
/// faulty-network golden's crash-recover case, the data copies that reach
/// node 0 while it is down and the acks that land on it. Each names node 0
/// as its destination: an ack's drop runs from its sender, the copy's
/// receiver, back to the copy's sender.
#[test]
fn the_crash_recover_golden_traces_every_crash_drop() {
    use improved_le::asynchronous::{FaultPlan, NetworkConfig, Reliability};
    use improved_le::model::trace::{FaultKind, SharedSink, TraceEvent};

    let sink = SharedSink::new();
    let o = AsyncSimBuilder::new(64)
        .seed(0)
        .wake(AsyncWakeSchedule::single(NodeIndex(0)))
        .network(
            NetworkConfig::new()
                .link_rate(8.0)
                .queue_cap(8)
                .loss(0.05)
                .reliable(Reliability::default())
                .faults(FaultPlan::new().crash_recovering(NodeIndex(0), 0.5, 2.5)),
        )
        .trace(Box::new(sink.clone()))
        .build(|_, _| a_tr::Node::new(a_tr::Config::new(2)))
        .unwrap()
        .run()
        .unwrap();
    let drops: Vec<u32> = sink
        .take()
        .into_iter()
        .filter_map(|e| match e {
            TraceEvent::Fault {
                kind: FaultKind::CrashDrop,
                dst,
                ..
            } => Some(dst),
            _ => None,
        })
        .collect();
    assert_eq!(o.stats.faults.crash_drops, 41);
    assert_eq!(drops.len() as u64, o.stats.faults.crash_drops);
    assert!(drops.iter().all(|&dst| dst == 0), "{drops:?}");
}

#[test]
fn seed_isolation_between_components() {
    // Changing only the wake schedule must not change the ID assignment
    // (streams are independent).
    let cfg = improved_tradeoff::Config::with_rounds(3);
    let a = SyncSimBuilder::new(32)
        .seed(11)
        .build(|id, n| improved_tradeoff::Node::new(id, n, cfg))
        .unwrap();
    let b = SyncSimBuilder::new(32)
        .seed(11)
        .wake(WakeSchedule::simultaneous(32))
        .build(|id, n| improved_tradeoff::Node::new(id, n, cfg))
        .unwrap();
    assert_eq!(a.ids(), b.ids());
}

/// Tracing is purely observational: with a full-class sink installed via
/// the builder, every golden fingerprint above must reproduce
/// bit-for-bit. The tracer draws from no RNG stream and never touches the
/// event schedule, so "tracing enabled" and "tracing disabled" are the
/// *same execution* — this test pins that contract at the golden anchors.
#[test]
fn golden_fingerprints_unchanged_with_tracing_enabled() {
    use improved_le::model::trace::SharedSink;

    for (n, golden) in [
        (64, (5, 469, Some(NodeIndex(26)))),
        (256, (5, 2819, Some(NodeIndex(136)))),
    ] {
        let sink = SharedSink::new();
        let cfg = improved_tradeoff::Config::with_rounds(5);
        let o = SyncSimBuilder::new(n)
            .seed(0)
            .trace(Box::new(sink.clone()))
            .build(|id, n| improved_tradeoff::Node::new(id, n, cfg))
            .unwrap()
            .run()
            .unwrap();
        assert_eq!(
            (o.rounds, o.stats.total(), o.unique_leader()),
            golden,
            "tracing perturbed the sync golden at n = {n}"
        );
        let events = sink.take();
        assert!(
            events.len() > golden.1 as usize,
            "the sink saw every send plus the other classes at n = {n}"
        );
    }

    for (n, golden_time_bits, golden_msgs, golden_leader) in [
        (64usize, 4616551870472006621u64, 2013u64, 15usize),
        (256, 4618253587610216838, 14799, 70),
    ] {
        let sink = SharedSink::new();
        let o = AsyncSimBuilder::new(n)
            .seed(0)
            .wake(AsyncWakeSchedule::single(NodeIndex(0)))
            .trace(Box::new(sink.clone()))
            .build(|_, _| a_tr::Node::new(a_tr::Config::new(2)))
            .unwrap()
            .run()
            .unwrap();
        assert_eq!(
            (o.time.to_bits(), o.stats.total(), o.unique_leader()),
            (
                golden_time_bits,
                golden_msgs,
                Some(NodeIndex(golden_leader))
            ),
            "tracing perturbed the async golden at n = {n} (time = {})",
            o.time
        );
        assert!(
            sink.take().len() > golden_msgs as usize,
            "the sink saw every send plus the other classes at n = {n}"
        );
    }
}

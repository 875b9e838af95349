//! Invariants of the adversary scheduling subsystem: for *any* adversary
//! and any algorithm, per-link FIFO order holds (messages sent earlier on
//! a directed link are delivered earlier), every event time is finite and
//! non-decreasing, and a [`RecordedSchedule`] replays a captured trace to
//! a byte-identical outcome.

use improved_le::algorithms::asynchronous::{afek_gafni as a_ag, tradeoff as a_tr};
use improved_le::asynchronous::{
    Adversary, AsyncContext, AsyncNode, AsyncOutcome, AsyncSimBuilder, AsyncWakeSchedule,
    BimodalDelay, ConstDelay, CrashTopSender, FaultPlan, MessageClass, NetworkConfig, Oblivious,
    PartitionAdversary, Received, RecordedSchedule, Recorder, Reliability, RushingAdversary,
    TargetedLoss, TargetedSlowdown, TraceStep, UniformDelay,
};
use improved_le::model::metrics::FaultCounters;
use improved_le::model::{Decision, NodeIndex, WakeCause};
use proptest::prelude::*;

/// The adversary grid the proptests draw from — every capability tier.
fn adversary(idx: usize) -> Box<dyn Adversary> {
    match idx % 8 {
        0 => Box::new(Oblivious::new(UniformDelay::full())),
        1 => Box::new(Oblivious::new(ConstDelay::max())),
        2 => Box::new(Oblivious::new(BimodalDelay::new(0.5, 0.05, 1.0))),
        3 => Box::new(PartitionAdversary::new(0.1)),
        4 => Box::new(TargetedSlowdown::new(0.05)),
        5 => Box::new(RushingAdversary::new(MessageClass::WakeUp)),
        6 => Box::new(RushingAdversary::new(MessageClass::Reply)),
        _ => Box::new(RushingAdversary::new(MessageClass::Probe)),
    }
}

/// On wake, sends `burst` numbered messages over every port; receivers
/// verify that each port's stream arrives in send order (the observable
/// face of the engine's FIFO delivery floors).
struct FifoProbe {
    burst: u32,
    next_expected: Vec<u32>,
    in_order: bool,
    decision: Decision,
}

impl FifoProbe {
    fn new(n: usize, burst: u32) -> Self {
        FifoProbe {
            burst,
            next_expected: vec![0; n - 1],
            in_order: true,
            decision: Decision::Undecided,
        }
    }
}

impl AsyncNode for FifoProbe {
    type Message = u32;

    fn on_wake(&mut self, ctx: &mut AsyncContext<'_, u32>, _cause: WakeCause) {
        for p in ctx.all_ports() {
            for i in 0..self.burst {
                ctx.send(p, i);
            }
        }
        self.decision = Decision::non_leader();
    }

    fn on_message(&mut self, _ctx: &mut AsyncContext<'_, u32>, m: Received<u32>) {
        if m.msg != self.next_expected[m.port.0] {
            self.in_order = false;
        }
        self.next_expected[m.port.0] = m.msg + 1;
    }

    fn decision(&self) -> Decision {
        self.decision
    }

    fn classify(msg: &u32) -> MessageClass {
        // Alternate classes so class-sensitive adversaries (rushing) give
        // consecutive same-link messages *different* delays — exactly the
        // schedule that would reorder links without the FIFO floor.
        if msg.is_multiple_of(2) {
            MessageClass::Probe
        } else {
            MessageClass::Reply
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// FIFO-floor monotonicity, observed end-to-end: under every
    /// adversary, every directed link delivers in send order, and global
    /// time advances monotonically through finite values only.
    #[test]
    fn links_are_fifo_and_times_finite_under_every_adversary(
        n in 3usize..12,
        burst in 1u32..5,
        adv in 0usize..8,
        seed in 0u64..500,
    ) {
        let mut sim = AsyncSimBuilder::new(n)
            .seed(seed)
            .wake(AsyncWakeSchedule::single(NodeIndex(seed as usize % n)))
            .adversary(adversary(adv))
            .build(|_, _| FifoProbe::new(n, burst))
            .unwrap();
        let mut prev = 0.0f64;
        // Manual step loops bypass the engine's max_events cap (enforced
        // only by run()); bound them so a livelock regression fails the
        // test instead of hanging CI.
        let cap = 64 * (n as u64) * (n as u64) + 4096;
        let mut steps = 0u64;
        while sim.step().unwrap() {
            steps += 1;
            prop_assert!(steps <= cap, "exceeded the event cap: livelock?");
            let now = sim.now();
            prop_assert!(now.is_finite(), "non-finite event time {now}");
            prop_assert!(now >= prev, "time ran backwards: {prev} -> {now}");
            prev = now;
        }
        for u in 0..n {
            let node = sim.node(NodeIndex(u));
            prop_assert!(node.in_order, "node {u} saw out-of-order delivery");
            prop_assert!(
                node.next_expected.iter().all(|&e| e == burst),
                "node {u} missed messages: {:?}",
                node.next_expected
            );
        }
    }

    /// Both paper algorithms stay live and time-sane under every
    /// adversary tier (the "holds for all of them" claim, in miniature —
    /// the full grid with the quantitative Theorem 5.1 assertion is
    /// exp_adversary_stress).
    #[test]
    fn algorithms_terminate_finitely_under_every_adversary(
        algo in 0usize..2,
        adv in 0usize..8,
        seed in 0u64..200,
    ) {
        let n = 32;
        let mut prev = 0.0f64;
        // As above: bound the manual step loop so a message livelock
        // fails fast instead of hanging CI.
        let cap = 64 * (n as u64) * (n as u64) + 4096;
        let mut steps = 0u64;
        let outcome = if algo == 0 {
            let mut sim = AsyncSimBuilder::new(n)
                .seed(seed)
                .wake(AsyncWakeSchedule::single(NodeIndex(0)))
                .adversary(adversary(adv))
                .build(|_, _| a_tr::Node::new(a_tr::Config::new(2)))
                .unwrap();
            while sim.step().unwrap() {
                steps += 1;
                prop_assert!(steps <= cap, "exceeded the event cap: livelock?");
                prop_assert!(sim.now().is_finite() && sim.now() >= prev);
                prev = sim.now();
            }
            sim.into_outcome(improved_le::asynchronous::AsyncHaltReason::QueueDrained)
        } else {
            let mut sim = AsyncSimBuilder::new(n)
                .seed(seed)
                .wake(AsyncWakeSchedule::simultaneous(n))
                .adversary(adversary(adv))
                .build(a_ag::Node::new)
                .unwrap();
            while sim.step().unwrap() {
                steps += 1;
                prop_assert!(steps <= cap, "exceeded the event cap: livelock?");
                prop_assert!(sim.now().is_finite() && sim.now() >= prev);
                prev = sim.now();
            }
            sim.into_outcome(improved_le::asynchronous::AsyncHaltReason::QueueDrained)
        };
        prop_assert!(outcome.time.is_finite());
        if algo == 1 {
            // Afek–Gafni correctness is deterministic: exactly one leader
            // under EVERY adversary and seed.
            prop_assert!(outcome.validate_implicit().is_ok());
        }
    }
}

fn fingerprint(o: &AsyncOutcome) -> (u64, u64, Vec<u64>, Vec<Decision>, Option<NodeIndex>) {
    (
        o.time.to_bits(),
        o.stats.total(),
        o.stats.rounds().to_vec(),
        o.decisions.clone(),
        o.unique_leader(),
    )
}

/// Capturing a trace with [`Recorder`] and replaying it through
/// [`RecordedSchedule`] reproduces the recorded execution byte for byte —
/// including against an *adaptive* source adversary, whose decisions are
/// frozen into the trace.
#[test]
fn recorded_schedule_replays_byte_identically() {
    for (name, source) in [
        (
            "targeted-slowdown",
            Box::new(TargetedSlowdown::new(0.05)) as Box<dyn Adversary>,
        ),
        ("uniform", Box::new(Oblivious::new(UniformDelay::full()))),
    ] {
        let (recorder, trace) = Recorder::new(source);
        let run = |adv: Box<dyn Adversary>| {
            AsyncSimBuilder::new(64)
                .seed(9)
                .wake(AsyncWakeSchedule::single(NodeIndex(2)))
                .adversary(adv)
                .build(|_, _| a_tr::Node::new(a_tr::Config::new(2)))
                .unwrap()
                .run()
                .unwrap()
        };
        let original = run(Box::new(recorder));
        assert_eq!(
            trace.len() as u64,
            original.stats.total(),
            "{name}: one recorded delay per dispatched message"
        );
        let replayed = run(Box::new(RecordedSchedule::from_trace(trace.snapshot())));
        assert_eq!(
            fingerprint(&original),
            fingerprint(&replayed),
            "{name}: replay diverged from the recording"
        );
    }
}

/// On wake, sends `burst` numbered messages over every port; receivers
/// record each port's arrival sequence verbatim (for the lossy-link
/// subsequence invariant below, where messages may legitimately vanish).
struct SequenceProbe {
    burst: u32,
    seen: Vec<Vec<u32>>,
    decision: Decision,
}

impl AsyncNode for SequenceProbe {
    type Message = u32;

    fn on_wake(&mut self, ctx: &mut AsyncContext<'_, u32>, _cause: WakeCause) {
        for p in ctx.all_ports() {
            for i in 0..self.burst {
                ctx.send(p, i);
            }
        }
        self.decision = Decision::non_leader();
    }

    fn on_message(&mut self, _ctx: &mut AsyncContext<'_, u32>, m: Received<u32>) {
        self.seen[m.port.0].push(m.msg);
    }

    fn decision(&self) -> Decision {
        self.decision
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The faulty network's delivery guarantee, end to end: on every
    /// directed link, the delivered sequence is an order-preserving,
    /// duplicate-free subsequence of the sent sequence — under loss with
    /// retransmission (where duplicates are the easy failure mode) and
    /// under unreliable loss and bounded queues (where gaps are expected
    /// but reordering never is).
    #[test]
    fn lossy_links_deliver_prefix_respecting_subsequences(
        n in 3usize..10,
        burst in 1u32..6,
        loss_pct in 0u32..60,
        reliable_coin in 0u32..2,
        congested_coin in 0u32..2,
        seed in 0u64..500,
    ) {
        let (reliable, congested) = (reliable_coin == 1, congested_coin == 1);
        let mut net = NetworkConfig::new().loss(f64::from(loss_pct) / 100.0);
        if reliable {
            net = net.reliable(Reliability::default());
        }
        if congested {
            net = net.link_rate(8.0).queue_cap(4);
        }
        let active = net.is_active();
        let mut sim = AsyncSimBuilder::new(n)
            .seed(seed)
            .wake(AsyncWakeSchedule::simultaneous(n))
            .network(net)
            .build(|_, _| SequenceProbe {
                burst,
                seen: vec![Vec::new(); n - 1],
                decision: Decision::Undecided,
            })
            .unwrap();
        let cap = 512 * (n as u64) * (n as u64) + 4096;
        let mut steps = 0u64;
        while sim.step().unwrap() {
            steps += 1;
            prop_assert!(steps <= cap, "exceeded the event cap: livelock?");
        }
        let mut delivered = 0u64;
        for u in 0..n {
            let node = sim.node(NodeIndex(u));
            for (port, seq) in node.seen.iter().enumerate() {
                delivered += seq.len() as u64;
                prop_assert!(
                    seq.windows(2).all(|w| w[0] < w[1]),
                    "node {u} port {port}: {seq:?} is not strictly increasing \
                     (reordered or duplicated delivery)"
                );
                prop_assert!(
                    seq.iter().all(|&m| m < burst),
                    "node {u} port {port}: {seq:?} contains an unsent message"
                );
            }
        }
        let f = &sim.stats().faults;
        if !active {
            // Loss 0 with neither ARQ nor congestion is the transparent
            // network: its fault counters stay zero, and every send lands.
            prop_assert_eq!(*f, FaultCounters::default());
            prop_assert_eq!(delivered, sim.stats().total());
        } else {
            prop_assert_eq!(f.goodput, delivered);
            // Every undelivered payload is accounted as lost; the reverse
            // need not hold under reliability (an "abandoned" payload may
            // in fact have arrived while only its acks kept dying), so the
            // identity is an inequality there and exact without it.
            prop_assert!(f.goodput + f.lost_payloads >= f.payloads);
            if reliable {
                prop_assert_eq!(f.lost_payloads, f.abandoned);
            } else {
                prop_assert_eq!(f.goodput + f.lost_payloads, f.payloads);
                prop_assert_eq!(f.retransmits, 0);
                prop_assert_eq!(f.duplicates, 0);
            }
        }
    }
}

/// Capturing a drop/crash trace with [`Recorder`] and replaying it through
/// [`RecordedSchedule::from_steps`] reproduces the faulty execution byte
/// for byte — adversarial loss verdicts and the adaptive crash directive
/// included (satellite: fault-trace replay).
#[test]
fn recorded_fault_traces_replay_byte_identically() {
    let net = || {
        NetworkConfig::new()
            .loss(0.15)
            .link_rate(16.0)
            .queue_cap(8)
            .reliable(Reliability::default())
            .faults(FaultPlan::new().adaptive_crashes(1))
    };
    let source = CrashTopSender::new(
        Box::new(TargetedLoss::new(
            Box::new(Oblivious::new(UniformDelay::full())),
            0.3,
        )),
        8,
    );
    let (recorder, trace) = Recorder::new(Box::new(source));
    let run = |adv: Box<dyn Adversary>| {
        AsyncSimBuilder::new(16)
            .seed(11)
            .wake(AsyncWakeSchedule::single(NodeIndex(2)))
            .adversary(adv)
            .network(net())
            .build(|_, _| a_tr::Node::new(a_tr::Config::new(2)))
            .unwrap()
            .run()
            .unwrap()
    };
    let fault_fingerprint = |o: &AsyncOutcome| {
        (
            fingerprint(o),
            o.stats.faults,
            o.crashed.clone(),
            o.crashed_count(),
            o.halt,
        )
    };
    let original = run(Box::new(recorder));
    let steps = trace.steps();
    assert!(
        steps.iter().any(|s| matches!(s, TraceStep::Loss(true))),
        "the recorded trace must contain at least one adversarial loss"
    );
    assert!(
        steps.iter().any(|s| matches!(s, TraceStep::Crash(Some(_)))),
        "the recorded trace must contain the adaptive crash directive"
    );
    assert_eq!(original.crashed_count(), 1, "the crash budget was spent");
    let replayed = run(Box::new(RecordedSchedule::from_steps(steps)));
    assert_eq!(
        fault_fingerprint(&original),
        fault_fingerprint(&replayed),
        "fault-trace replay diverged from the recording"
    );
}

/// The engine accounts one transcript send per dispatched message and one
/// delivery per dequeued message, across adversary tiers.
#[test]
fn transcript_totals_match_stats_under_adversaries() {
    for adv in 0..4 {
        let mut sim = AsyncSimBuilder::new(16)
            .seed(3)
            .wake(AsyncWakeSchedule::single(NodeIndex(0)))
            .adversary(adversary(adv))
            .build(|_, _| a_tr::Node::new(a_tr::Config::new(2)))
            .unwrap();
        while sim.step().unwrap() {}
        let sent: u64 = (0..16).map(|u| sim.transcript().sent(NodeIndex(u))).sum();
        let delivered: u64 = (0..16)
            .map(|u| sim.transcript().delivered(NodeIndex(u)))
            .sum();
        assert_eq!(sent, sim.stats().total());
        assert_eq!(delivered, sim.stats().total());
    }
}

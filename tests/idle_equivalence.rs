//! The synchronous engine skips a node that reports
//! [`SyncNode::is_idle`] in every round no mail reaches it. The skip must
//! change nothing, so `singular` (the algorithm that opts in) must give
//! the same execution whether the engine honors its `is_idle` or polls
//! every awake node every round:
//!
//! * identical outcomes — rounds, per-round message counts, decisions,
//!   the awake set, messages to terminated nodes and the halt reason;
//! * byte-identical JSONL traces;
//! * and whenever a node reports idle, its send phase and an empty
//!   receive phase really do nothing: no message, no coin, no state
//!   change.

use std::cell::Cell;
use std::rc::Rc;

use improved_le::algorithms::sync::singular::{self, Msg};
use improved_le::model::trace::{SharedSink, TraceEvent};
use improved_le::model::{Decision, Topology};
use improved_le::sync::{Context, Outcome, Received, SyncNode, SyncSimBuilder, WakeCause};

/// Hides `is_idle`, so the engine polls the node every round it is awake
/// and unterminated.
struct Polled(singular::Node);

impl SyncNode for Polled {
    type Message = Msg;
    fn on_wake(&mut self, ctx: &mut Context<'_, Msg>, cause: WakeCause) {
        self.0.on_wake(ctx, cause);
    }
    fn send_phase(&mut self, ctx: &mut Context<'_, Msg>) {
        self.0.send_phase(ctx);
    }
    fn receive_phase(&mut self, ctx: &mut Context<'_, Msg>, inbox: &[Received<Msg>]) {
        self.0.receive_phase(ctx, inbox);
    }
    fn decision(&self) -> Decision {
        self.0.decision()
    }
    fn is_terminated(&self) -> bool {
        self.0.is_terminated()
    }
}

/// Polled like [`Polled`], and checks the `is_idle` promise at every call
/// the engine would have skipped. `audits` counts those calls.
struct Audited {
    node: singular::Node,
    audits: Rc<Cell<u64>>,
}

impl SyncNode for Audited {
    type Message = Msg;
    fn on_wake(&mut self, ctx: &mut Context<'_, Msg>, cause: WakeCause) {
        self.node.on_wake(ctx, cause);
    }
    fn send_phase(&mut self, ctx: &mut Context<'_, Msg>) {
        if !self.node.is_idle() {
            self.node.send_phase(ctx);
            return;
        }
        // The engine's context hides its outbox, so run the idle send
        // phase against a detached one with a copy of the node's coins.
        let state = format!("{:?}", self.node);
        let mut rng = ctx.rng().clone();
        let mut outbox = Vec::new();
        self.node.send_phase(&mut Context::synthetic(
            ctx.id(),
            ctx.n(),
            ctx.round(),
            &mut rng,
            &mut outbox,
        ));
        assert!(outbox.is_empty(), "idle send phase sent {outbox:?}");
        assert!(&rng == ctx.rng(), "idle send phase drew coins");
        assert_eq!(
            format!("{:?}", self.node),
            state,
            "idle send phase changed state"
        );
        self.audits.set(self.audits.get() + 1);
    }
    fn receive_phase(&mut self, ctx: &mut Context<'_, Msg>, inbox: &[Received<Msg>]) {
        if !(self.node.is_idle() && inbox.is_empty()) {
            self.node.receive_phase(ctx, inbox);
            return;
        }
        // Receive phases cannot send: the engine's context refuses.
        let state = format!("{:?}", self.node);
        let rng = ctx.rng().clone();
        self.node.receive_phase(ctx, inbox);
        assert!(&rng == ctx.rng(), "idle receive phase drew coins");
        assert_eq!(
            format!("{:?}", self.node),
            state,
            "idle receive phase changed state"
        );
        self.audits.set(self.audits.get() + 1);
    }
    fn decision(&self) -> Decision {
        self.node.decision()
    }
    fn is_terminated(&self) -> bool {
        self.node.is_terminated()
    }
}

fn topologies(n: usize) -> Vec<(&'static str, Topology)> {
    vec![
        ("ring", Topology::ring(n).unwrap()),
        ("torus", Topology::torus_square(n).unwrap()),
        ("regular8", Topology::random_regular(n, 8, 0xEC).unwrap()),
        ("clique", Topology::clique(n).unwrap()),
    ]
}

fn node(id: improved_le::model::Id) -> singular::Node {
    singular::Node::new(id, singular::Config::default())
}

/// One traced run: its outcome and its JSONL trace.
fn traced_run<N: SyncNode>(
    topo: &Topology,
    seed: u64,
    mut factory: impl FnMut(improved_le::model::Id) -> N,
) -> (Outcome, String)
where
    N::Message: 'static,
{
    let sink = SharedSink::new();
    let outcome = SyncSimBuilder::new(topo.n())
        .seed(seed)
        .topology(topo.clone())
        .trace(Box::new(sink.clone()))
        .build(|id, _| factory(id))
        .unwrap()
        .run()
        .unwrap();
    let trace = sink.take().iter().map(TraceEvent::to_jsonl).collect();
    (outcome, trace)
}

#[test]
fn skipping_idle_nodes_changes_no_outcome_and_no_trace_byte() {
    for n in [64, 256] {
        for (family, topo) in topologies(n) {
            for seed in 0..3 {
                let label = format!("{family} n={n} seed={seed}");
                let (real, real_trace) = traced_run(&topo, seed, node);
                let (polled, polled_trace) = traced_run(&topo, seed, |id| Polled(node(id)));
                real.validate_explicit().unwrap();
                assert_eq!(real.rounds, polled.rounds, "{label}: rounds");
                assert_eq!(real.stats, polled.stats, "{label}: message stats");
                assert_eq!(real.decisions, polled.decisions, "{label}: decisions");
                assert_eq!(real.awake, polled.awake, "{label}: awake set");
                assert_eq!(
                    real.messages_to_terminated, polled.messages_to_terminated,
                    "{label}: messages to terminated nodes"
                );
                assert_eq!(real.halt, polled.halt, "{label}: halt");
                // Compared without `assert_eq!`, whose diff would print
                // megabytes of JSONL.
                assert!(
                    real_trace == polled_trace,
                    "{label}: traces differ ({} vs {} bytes)",
                    real_trace.len(),
                    polled_trace.len()
                );
            }
        }
    }
}

#[test]
fn idle_singular_nodes_keep_their_promise() {
    for (family, topo) in topologies(64) {
        for seed in 0..3 {
            let audits = Rc::new(Cell::new(0));
            let outcome = SyncSimBuilder::new(topo.n())
                .seed(seed)
                .topology(topo.clone())
                .build(|id, _| Audited {
                    node: node(id),
                    audits: Rc::clone(&audits),
                })
                .unwrap()
                .run()
                .unwrap();
            outcome.validate_explicit().unwrap();
            assert!(
                audits.get() > 0,
                "{family} seed={seed}: no idle call was audited"
            );
        }
    }
}

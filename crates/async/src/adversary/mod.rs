//! The adversary scheduling subsystem of the asynchronous engine.
//!
//! The paper's asynchronous bounds (e.g. Theorem 5.1's `k + 8` time bound)
//! are claimed *for every adversary* — not just for delay distributions
//! that are blind to the execution. This module grades adversaries by what
//! they may observe ([`Capability`]) and lets the engine run against any of
//! them:
//!
//! * [`Capability::Oblivious`] — sees only the directed link and the
//!   clock. The classic [`DelayStrategy`] impls ([`ConstDelay`],
//!   [`UniformDelay`], [`BimodalDelay`]) live here, adapted via
//!   [`Oblivious`].
//! * [`Capability::LinkStatic`] — commits to a per-link speed up front and
//!   never revises it ([`PartitionAdversary`]).
//! * [`Capability::Adaptive`] — additionally reads each message's
//!   algorithm-visible [`MessageClass`] and a running [`Transcript`]
//!   summary (per-node sent/delivered counts), reacting to how the
//!   execution actually unfolds ([`RushingAdversary`],
//!   [`TargetedSlowdown`], [`RecordedSchedule`]).
//!
//! Every adversary still answers with a delay in `(0, 1]` — the model's
//! only constraint (one *time unit* bounds any transmission) — and the
//! engine enforces that range in all build profiles
//! ([`ModelError::InvalidDelay`]). The `exp_adversary_stress` experiment
//! sweeps both asynchronous algorithms against the whole grid and asserts
//! the paper's time bounds cell by cell.
//!
//! [`ModelError::InvalidDelay`]: clique_model::ModelError::InvalidDelay

pub mod delay;

mod concrete;

pub use concrete::{
    CrashTopSender, PartitionAdversary, RecordedSchedule, Recorder, RushingAdversary, TargetedLoss,
    TargetedSlowdown, TraceHandle, TraceStep,
};
pub use delay::{BimodalDelay, ConstDelay, DelayStrategy, UniformDelay};

use clique_model::NodeIndex;
use rand::rngs::SmallRng;

/// The algorithm-visible class of an asynchronous message, declared by the
/// algorithm through [`AsyncNode::classify`] and exposed to adaptive
/// adversaries.
///
/// The classes mirror the rôles messages play in the paper's asynchronous
/// algorithms: wake-up pings, probes that open a protocol exchange
/// (compete/request/consult), replies that close one (win/lose/ack/
/// confirm), and decision broadcasts.
///
/// [`AsyncNode::classify`]: crate::node::AsyncNode::classify
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MessageClass {
    /// A wake-up ping (Algorithm 2's `⟨wake up!⟩`).
    WakeUp,
    /// A message opening an exchange: competes, support requests, consults.
    Probe,
    /// A message answering a probe: win/lose verdicts, acks, confirmations.
    Reply,
    /// A decision announcement (a leader informing the network, a kill).
    Decide,
    /// An engine-level delivery acknowledgement of the faulty network
    /// layer's reliability protocol (never seen by algorithms; adaptive
    /// adversaries may stall or destroy acks to force retransmissions).
    Ack,
}

impl MessageClass {
    /// The class's stable name (also its trace wire-format `cls` value).
    pub fn name(self) -> &'static str {
        match self {
            MessageClass::WakeUp => "wake-up",
            MessageClass::Probe => "probe",
            MessageClass::Reply => "reply",
            MessageClass::Decide => "decide",
            MessageClass::Ack => "ack",
        }
    }
}

impl std::fmt::Display for MessageClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// How much of the execution an adversary may observe when choosing a
/// delay — the capability tiers of the subsystem.
///
/// The tiers are strictly ordered: everything an oblivious adversary can
/// do, a link-static one can, and an adaptive one subsumes both. Upper
/// bounds proved "for every adversary" must survive the strongest tier;
/// the stress experiment records the tier per grid row.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Capability {
    /// Sees `(src, dst, now)` and private coins only.
    Oblivious,
    /// Commits to a per-link behaviour before the execution starts.
    LinkStatic,
    /// Additionally reads the message's [`MessageClass`] and the running
    /// [`Transcript`].
    Adaptive,
}

impl std::fmt::Display for Capability {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Capability::Oblivious => "oblivious",
            Capability::LinkStatic => "link-static",
            Capability::Adaptive => "adaptive",
        })
    }
}

/// A running summary of the execution an adaptive adversary may consult:
/// per-node counts of messages sent and delivered so far.
///
/// The engine updates it as the execution unfolds: a node's `sent` count
/// grows once its message is scheduled (delay assigned, or its one wire
/// attempt dropped), its `delivered` count when a message addressed to it
/// is taken off the event queue. Both counts exclude the message currently
/// being scheduled — the adversary sees the transcript *up to but not
/// including* its own decision. Under the reliability protocol a payload
/// counts from its dispatch instead, since it may first wait in its link's
/// backlog, so all of its transmission attempts see it, the first
/// included.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Transcript {
    sent: Vec<u64>,
    delivered: Vec<u64>,
    /// Running argmax of `sent` (lowest index on ties), maintained in
    /// [`Transcript::record_send`] so [`Transcript::top_sender`] is O(1)
    /// on the per-message dispatch path. Counts only ever increment, so
    /// the argmax can only move to the node just incremented.
    top: usize,
}

impl Transcript {
    pub(crate) fn new(n: usize) -> Self {
        Transcript {
            sent: vec![0; n],
            delivered: vec![0; n],
            top: 0,
        }
    }

    /// Network size.
    pub fn n(&self) -> usize {
        self.sent.len()
    }

    /// Messages node `u` has sent (dispatched) so far.
    pub fn sent(&self, u: NodeIndex) -> u64 {
        self.sent[u.0]
    }

    /// Messages delivered to node `u` so far.
    pub fn delivered(&self, u: NodeIndex) -> u64 {
        self.delivered[u.0]
    }

    /// The current *frontrunner*: the node that has sent the most messages
    /// (ties broken towards the lowest index). Heavy senders are the
    /// protagonists of both asynchronous algorithms — candidates spraying
    /// competes, high-level Afek–Gafni candidates requesting support — so
    /// this is the natural target for an adaptive throttler.
    pub fn top_sender(&self) -> NodeIndex {
        NodeIndex(self.top)
    }

    pub(crate) fn record_send(&mut self, src: NodeIndex) {
        self.sent[src.0] += 1;
        if self.sent[src.0] > self.sent[self.top]
            || (self.sent[src.0] == self.sent[self.top] && src.0 < self.top)
        {
            self.top = src.0;
        }
    }

    pub(crate) fn record_delivery(&mut self, dst: NodeIndex) {
        self.delivered[dst.0] += 1;
    }
}

/// Everything an adversary sees about the message it must delay: the
/// directed link, the clock, the message's algorithm-visible class, and
/// the running transcript.
///
/// Oblivious adversaries must ignore `class` and `transcript` (the engine
/// cannot enforce that statically; the [`Capability`] declaration is the
/// contract).
#[derive(Debug)]
pub struct Observation<'a> {
    /// Sending node.
    pub src: NodeIndex,
    /// Receiving node (already resolved through the port mapping).
    pub dst: NodeIndex,
    /// Global time of the send.
    pub now: f64,
    /// The message's algorithm-declared class.
    pub class: MessageClass,
    /// Per-node sent/delivered counts up to (excluding) this message.
    /// Under the reliability protocol a payload counts from its dispatch,
    /// so all of its attempts see it, the first included.
    pub transcript: &'a Transcript,
}

/// An adversarial message scheduler: assigns each message a delay in
/// `(0, 1]` based on an [`Observation`] of the execution.
///
/// Generalizes [`DelayStrategy`] (which sees only `(src, dst, now)`); any
/// strategy lifts to this trait through the [`Oblivious`] adapter. Select
/// an adversary with [`AsyncSimBuilder::adversary`]; construction is
/// per-trial (the builder consumes the box), so recycled arena trials can
/// never leak adaptive state from one execution into the next.
///
/// [`AsyncSimBuilder::adversary`]: crate::engine::AsyncSimBuilder::adversary
pub trait Adversary {
    /// The delay, in `(0, 1]`, for the observed message. Values outside
    /// the range — `NaN` included — make the engine fail the run with
    /// [`ModelError::InvalidDelay`](clique_model::ModelError::InvalidDelay).
    fn delay(&mut self, obs: &Observation<'_>, rng: &mut SmallRng) -> f64;

    /// Human-readable adversary name (may contain commas/parentheses; the
    /// experiment CSV layer quotes per RFC 4180).
    fn name(&self) -> String;

    /// The declared observation tier.
    fn capability(&self) -> Capability;

    /// Fault-injection hook of the faulty network layer: whether this
    /// transmission attempt (payload, retransmission, or ack alike) is
    /// destroyed in transit. Consulted once per attempt, *only* when a
    /// [`NetworkConfig`](crate::network::NetworkConfig) is active — so the
    /// default fault-free engine never calls it and stays byte-identical.
    /// `rng` is the adversary's own fault stream — independent of the
    /// delay, node, resolver, and *engine* fault streams, so however much
    /// an adversary draws here, the engine's configured loss coins are
    /// unaffected (this is what lets a [`RecordedSchedule`], which draws
    /// nothing, replay faulty executions byte-identically). The default
    /// injects no loss and consumes no randomness.
    fn induces_loss(&mut self, _obs: &Observation<'_>, _rng: &mut SmallRng) -> bool {
        false
    }

    /// Adaptive crash directive: a node to crash *right now*, consulted
    /// after each transmission attempt while the
    /// [`FaultPlan`](crate::network::FaultPlan)'s `adaptive_crashes`
    /// budget lasts. Directives naming an already-crashed node are ignored
    /// and do not consume budget; one naming a node outside the network
    /// fails the run with [`ModelError::NodeOutOfRange`]. Strictly
    /// nastier than delay-picking: a [`Transcript`]-driven adversary can
    /// watch for the current top sender and kill it mid-protocol (see
    /// [`CrashTopSender`]).
    ///
    /// [`CrashTopSender`]: crate::adversary::CrashTopSender
    /// [`ModelError::NodeOutOfRange`]: clique_model::ModelError::NodeOutOfRange
    fn crash_directive(&mut self, _obs: &Observation<'_>) -> Option<NodeIndex> {
        None
    }
}

/// Adapter lifting a [`DelayStrategy`] to the [`Adversary`] trait at the
/// [`Capability::Oblivious`] tier: the strategy keeps seeing exactly
/// `(src, dst, now)` and its private coins.
///
/// [`AsyncSimBuilder::delays`](crate::engine::AsyncSimBuilder::delays)
/// applies this adapter automatically, which is why every pre-subsystem
/// call site still compiles unchanged.
#[derive(Debug, Clone, Copy)]
pub struct Oblivious<S: DelayStrategy>(S);

impl<S: DelayStrategy> Oblivious<S> {
    /// Wraps a delay strategy.
    pub fn new(strategy: S) -> Self {
        Oblivious(strategy)
    }
}

impl<S: DelayStrategy> Adversary for Oblivious<S> {
    fn delay(&mut self, obs: &Observation<'_>, rng: &mut SmallRng) -> f64 {
        self.0.delay(obs.src, obs.dst, obs.now, rng)
    }

    fn name(&self) -> String {
        self.0.name()
    }

    fn capability(&self) -> Capability {
        Capability::Oblivious
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clique_model::rng::rng_from_seed;

    #[test]
    fn capability_tiers_are_ordered() {
        assert!(Capability::Oblivious < Capability::LinkStatic);
        assert!(Capability::LinkStatic < Capability::Adaptive);
        assert_eq!(Capability::Adaptive.to_string(), "adaptive");
        assert_eq!(Capability::LinkStatic.to_string(), "link-static");
    }

    #[test]
    fn message_classes_display_lowercase() {
        assert_eq!(MessageClass::WakeUp.to_string(), "wake-up");
        assert_eq!(MessageClass::Decide.to_string(), "decide");
    }

    #[test]
    fn transcript_counts_and_frontrunner() {
        let mut t = Transcript::new(4);
        assert_eq!(t.n(), 4);
        assert_eq!(t.top_sender(), NodeIndex(0), "ties break low");
        t.record_send(NodeIndex(2));
        t.record_send(NodeIndex(2));
        t.record_send(NodeIndex(1));
        t.record_delivery(NodeIndex(3));
        assert_eq!(t.sent(NodeIndex(2)), 2);
        assert_eq!(t.delivered(NodeIndex(3)), 1);
        assert_eq!(t.top_sender(), NodeIndex(2));
        // A lower index *tying* the leader takes the frontrunner slot (the
        // running argmax must preserve the lowest-index tie-break).
        t.record_send(NodeIndex(1));
        assert_eq!(t.sent(NodeIndex(1)), t.sent(NodeIndex(2)));
        assert_eq!(t.top_sender(), NodeIndex(1));
        // A higher index tying it does not.
        t.record_send(NodeIndex(3));
        t.record_send(NodeIndex(3));
        assert_eq!(t.sent(NodeIndex(3)), t.sent(NodeIndex(1)));
        assert_eq!(t.top_sender(), NodeIndex(1));
    }

    #[test]
    fn oblivious_adapter_preserves_strategy_behaviour() {
        let mut adapted = Oblivious::new(ConstDelay::max());
        let transcript = Transcript::new(3);
        let obs = Observation {
            src: NodeIndex(0),
            dst: NodeIndex(1),
            now: 0.5,
            class: MessageClass::Probe,
            transcript: &transcript,
        };
        let mut rng = rng_from_seed(0);
        assert_eq!(adapted.delay(&obs, &mut rng), 1.0);
        assert_eq!(adapted.name(), "const(1)");
        assert_eq!(adapted.capability(), Capability::Oblivious);
    }
}

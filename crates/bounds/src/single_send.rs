//! The multicast-to-single-send simulation of Lemma 3.12.
//!
//! A *single-send* algorithm sends at most one message per node per round.
//! Lemma 3.12: any multicast algorithm with `M(n)` messages and `T(n)`
//! rounds can be simulated by a single-send algorithm with the same message
//! complexity and `n·T(n)` rounds — each *macro round* of the original is
//! stretched over `n` engine rounds, the sender's round-`r` outbox drains
//! one message per engine round, and receivers buffer everything until the
//! macro round ends. The Ω(n·log n) bound of Theorem 3.11 is proved against
//! single-send algorithms and transfers back through this reduction.
//!
//! [`SingleSend`] wraps any [`SyncNode`] and performs the simulation; the
//! accompanying tests and the `exp_lb_tradeoff` experiment check the
//! lemma's guarantees on the paper's own algorithms: unchanged election
//! outcome, unchanged message count, at most one send per node per round.

use std::collections::VecDeque;

use clique_model::ids::Id;
use clique_model::ports::Port;
use clique_model::{Decision, WakeCause};
use clique_sync::{Context, Received, SyncNode};

/// Wraps a [`SyncNode`] into its single-send simulation (Lemma 3.12).
///
/// The wrapped algorithm must be a simultaneous-wake-up algorithm (the
/// lemma's setting — Theorem 3.11 is about Section 3's regime), and its
/// message type must be [`Clone`] because buffered receptions are replayed
/// to the inner node at each macro-round boundary.
pub struct SingleSend<N: SyncNode> {
    inner: N,
    id: Id,
    n: usize,
    /// Messages produced by the inner node's current macro round, drained
    /// one per engine round.
    outgoing: VecDeque<(Port, N::Message)>,
    /// Messages received during the current macro round, delivered to the
    /// inner node at its end.
    incoming: Vec<Received<N::Message>>,
    /// Inner messages that arrived after the inner node terminated (0 for
    /// well-behaved algorithms; exposed for test assertions).
    late_messages: u64,
    /// Set at macro-round boundaries; the wrapper may only halt there.
    halted: bool,
}

impl<N: SyncNode> std::fmt::Debug for SingleSend<N> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SingleSend")
            .field("id", &self.id)
            .field("n", &self.n)
            .field("queued", &self.outgoing.len())
            .field("buffered", &self.incoming.len())
            .field("halted", &self.halted)
            .finish_non_exhaustive()
    }
}

impl<N: SyncNode> SingleSend<N> {
    /// Wraps `inner`, which believes it runs on an `n`-node clique as node
    /// `id`.
    pub fn new(inner: N, id: Id, n: usize) -> Self {
        SingleSend {
            inner,
            id,
            n,
            outgoing: VecDeque::new(),
            incoming: Vec::new(),
            late_messages: 0,
            halted: false,
        }
    }

    /// The wrapped node.
    pub fn inner(&self) -> &N {
        &self.inner
    }

    /// Messages that reached the inner node after it terminated.
    pub fn late_messages(&self) -> u64 {
        self.late_messages
    }

    /// Maps an engine round to `(macro_round, slot)` with `slot ∈ [1, n]`.
    fn position(&self, engine_round: usize) -> (usize, usize) {
        (
            (engine_round - 1) / self.n + 1,
            (engine_round - 1) % self.n + 1,
        )
    }
}

impl<N: SyncNode> SyncNode for SingleSend<N>
where
    N::Message: Clone,
{
    type Message = N::Message;

    fn on_wake(&mut self, ctx: &mut Context<'_, N::Message>, cause: WakeCause) {
        // The lemma's setting is simultaneous wake-up: round 1 = macro
        // round 1, so the inner clock matches at wake time.
        let mut sink = Vec::new();
        let mut inner_ctx = Context::synthetic(self.id, self.n, 1, ctx.rng(), &mut sink);
        self.inner.on_wake(&mut inner_ctx, cause);
        debug_assert!(sink.is_empty(), "nodes may not send during on_wake");
    }

    fn send_phase(&mut self, ctx: &mut Context<'_, N::Message>) {
        let (macro_round, slot) = self.position(ctx.round());
        if slot == 1 && !self.inner.is_terminated() {
            debug_assert!(
                self.outgoing.is_empty(),
                "n slots always suffice to drain at most n-1 sends"
            );
            // Collect the inner node's entire round-r outbox.
            let mut sink = Vec::new();
            {
                let mut inner_ctx =
                    Context::synthetic(self.id, self.n, macro_round, ctx.rng(), &mut sink);
                self.inner.send_phase(&mut inner_ctx);
            }
            debug_assert!(
                sink.len() < self.n,
                "a node sends at most one message per port per round"
            );
            self.outgoing.extend(sink);
        }
        // Drain one message per engine round: the single-send property.
        if let Some((port, msg)) = self.outgoing.pop_front() {
            ctx.send(port, msg);
        }
    }

    fn receive_phase(&mut self, ctx: &mut Context<'_, N::Message>, inbox: &[Received<N::Message>]) {
        self.incoming.extend(inbox.iter().map(|m| Received {
            port: m.port,
            msg: m.msg.clone(),
        }));
        let (macro_round, slot) = self.position(ctx.round());
        if slot == self.n {
            // Macro round boundary: the inner node processes everything it
            // would have received in its round `macro_round`.
            let batch = std::mem::take(&mut self.incoming);
            if self.inner.is_terminated() {
                self.late_messages += batch.len() as u64;
            } else {
                let mut sink = Vec::new();
                let mut inner_ctx =
                    Context::synthetic(self.id, self.n, macro_round, ctx.rng(), &mut sink);
                self.inner.receive_phase(&mut inner_ctx, &batch);
                debug_assert!(sink.is_empty(), "receive phases may not send");
            }
            self.halted = self.inner.is_terminated() && self.outgoing.is_empty();
        }
    }

    fn decision(&self) -> Decision {
        self.inner.decision()
    }

    fn is_terminated(&self) -> bool {
        self.halted && self.outgoing.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clique_model::trace::{At, SharedSink, TraceEvent};
    use clique_sync::SyncSimBuilder;
    use leader_election::sync::improved_tradeoff;

    /// Counts a trace's messages and its breaches of the single-send
    /// property.
    #[derive(Default)]
    struct SingleSendChecker {
        /// Sends beyond a node's first in a round.
        violations: u32,
        total: u64,
    }

    impl SingleSendChecker {
        fn check(events: &[TraceEvent]) -> SingleSendChecker {
            let mut checker = SingleSendChecker::default();
            let mut senders = std::collections::HashSet::new();
            for ev in events {
                if let TraceEvent::Send {
                    at: At::Round(round),
                    src,
                    ..
                } = *ev
                {
                    checker.total += 1;
                    if !senders.insert((round, src)) {
                        checker.violations += 1;
                    }
                }
            }
            checker
        }
    }

    // Both runs use the circulant mapping: it is fixed in advance, so the
    // two executions (which resolve ports in different orders) see the
    // same network and must behave identically message-for-message.
    fn run_wrapped(n: usize, ell: usize, seed: u64) -> (clique_sync::Outcome, SingleSendChecker) {
        let cfg = improved_tradeoff::Config::with_rounds(ell);
        let sink = SharedSink::new();
        let outcome = SyncSimBuilder::new(n)
            .seed(seed)
            .max_rounds(n * (ell + 1))
            .resolver(Box::new(clique_model::CirculantResolver))
            .trace(Box::new(sink.clone()))
            .build(|id, n| SingleSend::new(improved_tradeoff::Node::new(id, n, cfg), id, n))
            .unwrap()
            .run()
            .unwrap();
        (outcome, SingleSendChecker::check(&sink.take()))
    }

    fn run_plain(n: usize, ell: usize, seed: u64) -> clique_sync::Outcome {
        let cfg = improved_tradeoff::Config::with_rounds(ell);
        SyncSimBuilder::new(n)
            .seed(seed)
            .resolver(Box::new(clique_model::CirculantResolver))
            .build(|id, n| improved_tradeoff::Node::new(id, n, cfg))
            .unwrap()
            .run()
            .unwrap()
    }

    #[test]
    fn simulation_preserves_the_election_outcome() {
        for seed in 0..3 {
            let n = 16;
            let (wrapped, _) = run_wrapped(n, 3, seed);
            let plain = run_plain(n, 3, seed);
            wrapped.validate_explicit().unwrap();
            plain.validate_explicit().unwrap();
            // Same IDs (same seed stream) — the leader must coincide.
            assert_eq!(wrapped.ids, plain.ids);
            assert_eq!(wrapped.unique_leader(), plain.unique_leader());
        }
    }

    #[test]
    fn simulation_preserves_message_complexity() {
        let n = 16;
        let (wrapped, checker) = run_wrapped(n, 5, 1);
        let plain = run_plain(n, 5, 1);
        assert_eq!(wrapped.stats.total(), plain.stats.total());
        assert_eq!(checker.total, plain.stats.total());
    }

    #[test]
    fn at_most_one_send_per_node_per_round() {
        let (_, checker) = run_wrapped(16, 3, 2);
        assert_eq!(checker.violations, 0, "single-send property violated");
    }

    #[test]
    fn rounds_dilate_by_at_most_n() {
        let n = 12;
        let ell = 3;
        let (wrapped, _) = run_wrapped(n, ell, 0);
        let plain = run_plain(n, ell, 0);
        assert!(plain.rounds <= ell);
        assert!(
            wrapped.rounds <= n * plain.rounds,
            "dilation exceeded n·T: {} > {}",
            wrapped.rounds,
            n * plain.rounds
        );
        // Dilation is real: strictly more rounds than the original.
        assert!(wrapped.rounds > plain.rounds);
    }

    #[test]
    fn no_late_messages_for_well_behaved_algorithms() {
        let n = 16;
        let cfg = improved_tradeoff::Config::with_rounds(3);
        let sim = SyncSimBuilder::new(n)
            .seed(3)
            .max_rounds(n * 4)
            .build(|id, n| SingleSend::new(improved_tradeoff::Node::new(id, n, cfg), id, n))
            .unwrap();
        let mut sim = sim;
        while sim.step(&mut clique_sync::NullObserver).unwrap() {}
        for u in 0..n {
            assert_eq!(sim.node(clique_model::NodeIndex(u)).late_messages(), 0);
        }
    }
}

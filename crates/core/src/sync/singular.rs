//! Singularly-optimal leader election for **general** communication
//! graphs, in the style of Kutten–Moses Jr.: `O(m)` messages *and*
//! `O(D)` time simultaneously (up to the measured constants pinned in
//! `exp_general_graphs`), on any connected topology the
//! [`Topology`](clique_model::Topology) layer can generate.
//!
//! The paper's clique algorithms exploit `D = 1`; this module is the
//! companion upper bound the "beyond the clique" roadmap item calls
//! for: on a graph with `m` edges and diameter `D` it elects a unique
//! leader in `≤ 3D + O(1)` rounds with `O(m)` messages in expectation
//! (whp `O(m log n)` worst case), with *every* node learning the
//! leader's ID and terminating.
//!
//! # How it works
//!
//! 1. **Candidate sampling.** Each node independently becomes a
//!    candidate with probability `min(1, a·ln n / n)`, so `Θ(log n)`
//!    candidates arise and at least one whp (`1 − n^{−a}`). A
//!    candidate draws a uniform *rank* from `[n⁴]`; its **wave** is
//!    the pair `(rank, ID)`, totally ordered lexicographically (IDs
//!    break rank ties, so waves are globally distinct).
//!
//! 2. **Suppressed priority flooding.** A candidate floods its wave.
//!    A node adopts the best wave it has seen (its *parent* is the
//!    first port the wave arrived on, inbox order breaking ties) and
//!    re-floods it over every other port; inferior or duplicate copies
//!    are answered with a wave-tagged `Reject`. Better waves overwrite
//!    worse ones mid-flight, so the globally best wave builds a BFS-ish
//!    spanning tree while every other wave is eventually suppressed.
//!
//! 3. **Counting convergecast.** When a node has heard one response
//!    (`Reject`, or a child's `Ack`) for every copy it forwarded, it
//!    sends its parent an `Ack` carrying its subtree size. The root
//!    declares itself **leader only if its echo completes with count
//!    `n`** — any wave other than the global maximum can never cover
//!    the best candidate (which never adopts an inferior wave), so at
//!    most one candidate can ever see a full count: uniqueness is
//!    deterministic, not just whp. Responses are tagged with the wave
//!    they answer, so echo state survives mid-flood wave switches.
//!
//! 4. **Decide broadcast.** The leader floods `Decide(ID)`; every node
//!    forwards it once (over all ports but the arrival one), decides
//!    non-leader knowing the leader, and terminates one full round
//!    *after* forwarding: the flood always completes, and colliding
//!    flood fronts (two neighbors forwarding to each other in the same
//!    or adjacent rounds — inevitable on cyclic topologies) are
//!    absorbed while both endpoints are still alive, keeping the
//!    engine's no-mail-to-terminated-nodes invariant intact.
//!
//! If no candidate arises (probability `n^{−a}`, ≈ `10⁻⁷` at the
//! default `a = 4` and `n = 64`) the execution stays silent and the
//! engine's round cap halts it undecided — the standard Monte-Carlo
//! caveat, shared with [`sublinear_mc`](super::sublinear_mc).
//!
//! Requires simultaneous wake-up and a connected topology.

use clique_model::ids::{rank_universe, Id};
use clique_model::ports::Port;
use clique_model::rng::coin;
use clique_model::Decision;
use clique_sync::{Context, Received, SyncNode};
use rand::Rng;

/// A flood wave: a candidate's `(rank, ID)` priority, ordered
/// lexicographically (derive order: rank first, ID as tie-break).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Wave {
    /// The candidate's random rank from `[n⁴]`.
    pub rank: u64,
    /// The candidate's ID (globally unique tie-break).
    pub id: Id,
}

/// Messages of the singularly-optimal algorithm.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Msg {
    /// A candidate's wave, flooded along the tree under construction.
    Wave(Wave),
    /// "I did not join your tree for this wave" (already covered, or
    /// holding a better wave).
    Reject(Wave),
    /// "My subtree under this wave is complete and holds `count` nodes."
    Ack {
        /// The wave this acknowledgement answers.
        wave: Wave,
        /// Nodes in the sender's (completed) subtree.
        count: u64,
    },
    /// The leader's announcement, flooded down and across the graph.
    Decide {
        /// The elected leader's ID.
        leader: Id,
    },
}

/// Parameters of the singularly-optimal algorithm.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Config {
    /// Candidate probability is `min(1, candidate_factor·ln n / n)`;
    /// the zero-candidate failure probability is `n^{−candidate_factor}`.
    pub candidate_factor: f64,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            candidate_factor: 4.0,
        }
    }
}

impl Config {
    /// The probability with which a node becomes a candidate.
    pub fn candidate_probability(&self, n: usize) -> f64 {
        (self.candidate_factor * (n as f64).ln() / n as f64).min(1.0)
    }

    /// Expected number of candidates (`candidate_factor·ln n`, capped
    /// at `n`).
    pub fn expected_candidates(&self, n: usize) -> f64 {
        self.candidate_probability(n) * n as f64
    }
}

/// Per-node state machine of the singularly-optimal algorithm.
#[derive(Debug, Clone)]
pub struct Node {
    id: Id,
    cfg: Config,
    /// The round-1 candidacy coin has been flipped.
    coin_flipped: bool,
    /// The best wave seen so far (our own, if we are its candidate).
    best: Option<Wave>,
    /// Port toward the parent in `best`'s tree (`None` at the root).
    parent: Option<Port>,
    /// `best` was adopted this round and must be re-flooded next send.
    forward_pending: bool,
    /// Copies of `best` forwarded, each owed one `Reject` or `Ack`.
    expected: usize,
    /// Responses received for `best` since forwarding.
    responses: usize,
    /// This node plus every acked child subtree under `best`.
    count: u64,
    /// Whether we already answered our parent (or completed the root
    /// echo) for `best`.
    echo_done: bool,
    /// Wave-tagged replies queued for the next send phase.
    replies: Vec<(Port, Msg)>,
    /// Port the first `Decide` arrived on (`None` for the leader).
    decide_from: Option<Port>,
    /// A `Decide` flood is queued for the next send phase.
    decide_pending: bool,
    /// The `Decide` flood went out; one grace round remains.
    sent_decide: bool,
    /// The grace round after the flood has started (set at its receive
    /// phase); the next receive phase halts.
    lingered: bool,
    /// Grace round over; the node is done.
    halted: bool,
    decision: Decision,
}

impl Node {
    /// Creates the state machine for a node with identifier `id`.
    pub fn new(id: Id, cfg: Config) -> Self {
        Node {
            id,
            cfg,
            coin_flipped: false,
            best: None,
            parent: None,
            forward_pending: false,
            expected: 0,
            responses: 0,
            count: 1,
            echo_done: false,
            replies: Vec::new(),
            decide_from: None,
            decide_pending: false,
            sent_decide: false,
            lingered: false,
            halted: false,
            decision: Decision::Undecided,
        }
    }

    /// The wave this node currently endorses (for experiment probes).
    pub fn best_wave(&self) -> Option<Wave> {
        self.best
    }

    /// Adopts `wave` (strictly better than the current one), resetting
    /// all per-wave echo state.
    fn adopt(&mut self, wave: Wave, parent: Option<Port>) {
        self.best = Some(wave);
        self.parent = parent;
        self.forward_pending = true;
        self.expected = 0;
        self.responses = 0;
        self.count = 1;
        self.echo_done = false;
    }

    /// Completes the echo for the current wave once every forwarded
    /// copy has been answered: ack the parent, or — at the root — claim
    /// leadership iff the tree covers the whole graph.
    fn try_complete_echo(&mut self, n: usize) {
        if self.echo_done || self.forward_pending || self.responses < self.expected {
            return;
        }
        // Awake non-candidates have no wave (and nothing to echo) until
        // one arrives.
        let Some(wave) = self.best else { return };
        self.echo_done = true;
        match self.parent {
            Some(parent) => self.replies.push((
                parent,
                Msg::Ack {
                    wave,
                    count: self.count,
                },
            )),
            None => {
                // Only the globally best wave can ever cover all n
                // nodes (the best candidate never adopts an inferior
                // wave), so a full count is a deterministic certificate
                // of uniqueness. A partial count marks a suppressed
                // candidate: it stays quiet and waits for the winner.
                if self.count == n as u64 {
                    self.decision = Decision::Leader;
                    self.decide_pending = true;
                }
            }
        }
    }
}

impl SyncNode for Node {
    type Message = Msg;

    fn send_phase(&mut self, ctx: &mut Context<'_, Msg>) {
        if self.sent_decide {
            return;
        }
        // Round 1: flip the candidacy coin; candidates root their own
        // wave and flood it below.
        if ctx.round() == 1 {
            self.coin_flipped = true;
            let n = ctx.n();
            if coin(ctx.rng(), self.cfg.candidate_probability(n)) {
                let wave = Wave {
                    rank: ctx.rng().gen_range(0..rank_universe(n)),
                    id: self.id,
                };
                self.adopt(wave, None);
            }
        }
        // Queued wave-tagged replies (Rejects and Acks) from last
        // round's inbox.
        for (port, msg) in std::mem::take(&mut self.replies) {
            ctx.send(port, msg);
        }
        // The Decide flood ends this node's execution: the leader
        // floods every port, a forwarder every port but the arrival
        // one. Termination only after this send keeps the flood alive.
        if self.decide_pending {
            for port in ctx.all_ports() {
                if Some(port) != self.decide_from {
                    ctx.send(
                        port,
                        Msg::Decide {
                            leader: self.leader_id(),
                        },
                    );
                }
            }
            self.decide_pending = false;
            self.sent_decide = true;
            return;
        }
        // Re-flood a freshly adopted wave over every non-parent port.
        if self.forward_pending {
            let wave = self.best.expect("forward_pending implies a wave");
            self.forward_pending = false;
            self.expected = 0;
            for port in ctx.all_ports() {
                if Some(port) != self.parent {
                    ctx.send(port, Msg::Wave(wave));
                    self.expected += 1;
                }
            }
            // A degree-1 node adopting from its only neighbor has
            // nothing to forward: its subtree is itself, ack at once.
            self.try_complete_echo(ctx.n());
        }
    }

    fn receive_phase(&mut self, ctx: &mut Context<'_, Msg>, inbox: &[Received<Msg>]) {
        if self.sent_decide {
            // First post-flood receive phase starts the grace round (mail
            // still delivered, ignored); the second ends the execution.
            // Halting at the flood's own receive phase would be too
            // early: a colliding front that *received* our `Decide` this
            // round forwards its own copy back to us next round.
            if self.lingered {
                self.halted = true;
            }
            self.lingered = true;
            return;
        }
        for m in inbox {
            match m.msg {
                Msg::Wave(wave) => {
                    if self.best.is_none_or(|b| wave > b) {
                        self.adopt(wave, Some(m.port));
                    } else {
                        // Inferior or duplicate: the sender is not our
                        // parent for this wave.
                        self.replies.push((m.port, Msg::Reject(wave)));
                    }
                }
                Msg::Reject(wave) => {
                    // Stale tags (responses to a wave we abandoned) are
                    // dropped; `forward_pending` guards the window
                    // between adopting and flooding.
                    if Some(wave) == self.best && !self.echo_done && !self.forward_pending {
                        self.responses += 1;
                    }
                }
                Msg::Ack { wave, count } => {
                    if Some(wave) == self.best && !self.echo_done && !self.forward_pending {
                        self.responses += 1;
                        self.count += count;
                    }
                }
                Msg::Decide { leader } => {
                    if !self.decision.is_decided() {
                        self.decision = Decision::non_leader_knowing(leader);
                        self.decide_from = Some(m.port);
                        self.decide_pending = true;
                        // Duplicates arriving this same round fall into
                        // the is_decided() guard above.
                    }
                }
            }
        }
        self.try_complete_echo(ctx.n());
    }

    fn decision(&self) -> Decision {
        self.decision
    }

    /// A node participates until it has decided, forwarded the `Decide`
    /// flood (terminating at decision time would strand the flood at
    /// the leader's neighbors), *and* sat out one grace round to absorb
    /// colliding flood fronts.
    fn is_terminated(&self) -> bool {
        self.halted
    }

    /// Idle once the round-1 coin is flipped and nothing is queued: no
    /// replies, no pending forward or decide, and no decide flood in its
    /// grace rounds. Then a send phase does nothing, and so does an empty
    /// receive phase: its echo check cannot fire, because that check
    /// already ran at the end of the hook that last changed the echo
    /// state. Most of a ring's nodes spend Θ(D) rounds like this, waiting
    /// for a wave or for their children's acks.
    fn is_idle(&self) -> bool {
        self.coin_flipped
            && self.replies.is_empty()
            && !self.forward_pending
            && !self.decide_pending
            && !self.sent_decide
    }
}

impl Node {
    /// The leader's ID once decided (own ID for the leader).
    fn leader_id(&self) -> Id {
        if self.decision.is_leader() {
            self.id
        } else {
            self.decision
                .known_leader()
                .expect("decide flood starts only after a decision")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clique_model::Topology;
    use clique_sync::{HaltReason, SyncSimBuilder};

    fn run_on(topo: Topology, seed: u64) -> clique_sync::Outcome {
        let n = topo.n();
        SyncSimBuilder::new(n)
            .seed(seed)
            .topology(topo)
            .build(|id, _| Node::new(id, Config::default()))
            .unwrap()
            .run()
            .unwrap()
    }

    #[test]
    fn elects_unique_leader_on_the_clique() {
        for seed in 0..10 {
            let outcome = run_on(Topology::clique(32).unwrap(), seed);
            outcome.validate_explicit().unwrap();
            assert_eq!(outcome.halt, HaltReason::Quiescent);
        }
    }

    #[test]
    fn elects_unique_leader_on_rings() {
        for seed in 0..10 {
            let outcome = run_on(Topology::ring(48).unwrap(), seed);
            outcome.validate_explicit().unwrap();
            assert_eq!(outcome.halt, HaltReason::Quiescent);
        }
    }

    #[test]
    fn elects_unique_leader_on_tori_and_expanders() {
        for seed in 0..5 {
            let outcome = run_on(Topology::torus(8, 8).unwrap(), seed);
            outcome.validate_explicit().unwrap();
            let outcome = run_on(Topology::random_regular(64, 6, 7).unwrap(), seed);
            outcome.validate_explicit().unwrap();
        }
    }

    #[test]
    fn time_tracks_the_diameter() {
        // 3D + slack: flood down (D), convergecast up (≤ 2D), decide
        // flood (D) — constant overheads for the reply round-trips.
        for (topo, label) in [
            (Topology::ring(64).unwrap(), "ring64"),
            (Topology::torus(8, 8).unwrap(), "torus8x8"),
            (Topology::random_regular(64, 8, 3).unwrap(), "regular8"),
        ] {
            let d = topo.diameter();
            for seed in 0..5 {
                let outcome = run_on(topo.clone(), seed);
                outcome.validate_explicit().unwrap();
                assert!(
                    outcome.rounds <= 3 * d + 12,
                    "{label} seed {seed}: {} rounds exceeds 3·{d} + 12",
                    outcome.rounds
                );
            }
        }
    }

    #[test]
    fn messages_scale_with_edges_not_n_squared() {
        // The message envelope is c·m for a modest constant c (waves +
        // responses + decide flood, times the expected O(log #candidates)
        // adoption overhead on suppression-weak graphs like rings).
        for (topo, label) in [
            (Topology::ring(256).unwrap(), "ring256"),
            (Topology::torus(16, 16).unwrap(), "torus16x16"),
            (Topology::random_regular(256, 8, 11).unwrap(), "regular8"),
        ] {
            let m = topo.m() as f64;
            for seed in 0..3 {
                let outcome = run_on(topo.clone(), seed);
                outcome.validate_explicit().unwrap();
                assert!(
                    (outcome.stats.total() as f64) <= 24.0 * m,
                    "{label} seed {seed}: {} messages exceed 24·m = {}",
                    outcome.stats.total(),
                    24.0 * m
                );
            }
        }
    }

    #[test]
    fn silent_runs_hit_the_round_cap_undecided() {
        let cfg = Config {
            candidate_factor: 0.0,
        };
        let outcome = SyncSimBuilder::new(16)
            .seed(3)
            .topology(Topology::ring(16).unwrap())
            .max_rounds(8)
            .build(|id, _| Node::new(id, cfg))
            .unwrap()
            .run()
            .unwrap();
        assert_eq!(outcome.halt, HaltReason::MaxRounds);
        assert_eq!(outcome.stats.total(), 0);
        assert!(outcome.validate_implicit().is_err());
    }

    #[test]
    fn wave_order_breaks_rank_ties_by_id() {
        let low = Wave { rank: 5, id: Id(1) };
        let high = Wave { rank: 5, id: Id(2) };
        let higher_rank = Wave { rank: 6, id: Id(0) };
        assert!(high > low);
        assert!(higher_rank > high);
    }

    #[test]
    fn every_node_learns_the_leader() {
        let outcome = run_on(Topology::torus(6, 6).unwrap(), 9);
        outcome.validate_explicit().unwrap();
        let leader = outcome.unique_leader().unwrap();
        let leader_id = outcome.ids.id_of(leader);
        for (u, d) in outcome.decisions.iter().enumerate() {
            match d {
                Decision::Leader => {
                    assert_eq!(outcome.ids.id_of(clique_model::NodeIndex(u)), leader_id)
                }
                Decision::NonLeader { leader } => assert_eq!(*leader, Some(leader_id)),
                Decision::Undecided => panic!("node {u} never decided"),
            }
        }
    }
}

//! The node-side programming interface of the synchronous engine.

use clique_model::ids::Id;
use clique_model::ports::Port;
use clique_model::rng::sample_distinct;
use clique_model::Decision;
use rand::rngs::SmallRng;

pub use clique_model::WakeCause;

/// A message delivered to a node, tagged with the local port it arrived on.
///
/// The port tag is all the routing information KT0 grants a receiver: it can
/// reply over `port` without ever learning which node sits behind it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Received<M> {
    /// Local port the message arrived on.
    pub port: Port,
    /// The payload.
    pub msg: M,
}

/// Per-activation view a node gets of itself and the world, enforcing KT0:
/// a node sees its own [`Id`], `n`, the current round, its private coins,
/// and its ports — nothing else.
#[derive(Debug)]
pub struct Context<'a, M> {
    pub(crate) id: Id,
    pub(crate) n: usize,
    /// Size of this node's port space: `n - 1` on the clique, `deg(v)`
    /// on an explicit topology.
    pub(crate) ports: usize,
    pub(crate) round: usize,
    pub(crate) rng: &'a mut SmallRng,
    pub(crate) outbox: &'a mut Vec<(Port, M)>,
    pub(crate) sends_allowed: bool,
}

impl<'a, M> Context<'a, M> {
    /// Builds a detached context that is not driven by an engine.
    ///
    /// Intended for algorithm *transformations* that need to activate an
    /// inner [`SyncNode`] under a synthetic clock — e.g. the single-send
    /// simulation of Lemma 3.12 (`le-bounds`), which runs each inner round
    /// stretched over `n` engine rounds — and for unit tests. Messages the
    /// inner node sends land in `outbox`; the caller decides what happens
    /// to them.
    pub fn synthetic(
        id: Id,
        n: usize,
        round: usize,
        rng: &'a mut SmallRng,
        outbox: &'a mut Vec<(Port, M)>,
    ) -> Self {
        Context {
            id,
            n,
            ports: n - 1,
            round,
            rng,
            outbox,
            sends_allowed: true,
        }
    }

    /// The node's own protocol identifier.
    pub fn id(&self) -> Id {
        self.id
    }

    /// Total number of nodes in the network (known a priori in the model).
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of ports this node owns: `n - 1` on the clique (every
    /// other node sits behind some port), `deg(v)` on an explicit
    /// topology.
    pub fn port_count(&self) -> usize {
        self.ports
    }

    /// The current round (1-based).
    pub fn round(&self) -> usize {
        self.round
    }

    /// The node's private random coins (deterministic per seed and node).
    pub fn rng(&mut self) -> &mut SmallRng {
        self.rng
    }

    /// Queues a message over a local port.
    ///
    /// # Panics
    ///
    /// Panics if called outside the send phase (the synchronous model only
    /// lets a node transmit during its send step) or if `port` is out of
    /// range — both indicate an algorithm bug, not an input error.
    pub fn send(&mut self, port: Port, msg: M) {
        assert!(
            self.sends_allowed,
            "synchronous nodes may only send during the send phase"
        );
        assert!(
            port.0 < self.ports,
            "port {port} out of range ({} ports, n = {})",
            self.ports,
            self.n
        );
        self.outbox.push((port, msg));
    }

    /// Iterator over all of this node's ports, `p0 .. p(port_count-1)`.
    pub fn all_ports(&self) -> impl Iterator<Item = Port> {
        (0..self.ports).map(Port)
    }

    /// The first `k` ports (a canonical deterministic choice used by the
    /// deterministic tradeoff algorithms).
    ///
    /// # Panics
    ///
    /// Panics if `k > port_count()`.
    pub fn first_ports(&self, k: usize) -> impl Iterator<Item = Port> {
        assert!(k <= self.ports, "cannot take {k} of {} ports", self.ports);
        (0..k).map(Port)
    }

    /// Samples `k` distinct ports uniformly at random (without replacement),
    /// as the randomized algorithms of Sections 4 and 5 require.
    ///
    /// # Panics
    ///
    /// Panics if `k > port_count()`.
    pub fn sample_ports(&mut self, k: usize) -> Vec<Port> {
        sample_distinct(self.rng, self.ports, k)
            .into_iter()
            .map(Port)
            .collect()
    }
}

/// A synchronous clique algorithm, written as one state machine per node.
///
/// Implementations must be deterministic functions of `(id, n, coins,
/// received messages)` — exactly the information the KT0 model grants.
///
/// The engine calls the hooks in this order each round: `on_wake` (once, at
/// the round the node wakes), then `send_phase`, then `receive_phase`. A
/// node whose [`SyncNode::is_terminated`] returns `true` is never activated
/// again; one whose [`SyncNode::is_idle`] returns `true` is skipped until
/// mail reaches it.
pub trait SyncNode {
    /// Payload type of this algorithm's messages.
    ///
    /// `Send` so that a recycled [`SyncArena`](crate::SyncArena) (which
    /// retains the message buffers between trials) can migrate between
    /// sweep worker threads; message payloads are plain data in every
    /// algorithm.
    type Message: Send;

    /// Called exactly once when the node wakes up: at the start of round 1
    /// (simultaneous wake-up), at the start of its scheduled round
    /// (adversarial wake-up), or at the end of the round in which the first
    /// message reached it (message wake-up — the inbox follows immediately
    /// via [`SyncNode::receive_phase`]).
    ///
    /// Sending here is not permitted; a node woken in round `r` by the
    /// adversary first sends in round `r`'s send phase, one woken by a
    /// message first sends in round `r + 1`.
    fn on_wake(&mut self, ctx: &mut Context<'_, Self::Message>, cause: WakeCause) {
        let _ = (ctx, cause);
    }

    /// The send step of one round: queue outgoing messages on `ctx`.
    fn send_phase(&mut self, ctx: &mut Context<'_, Self::Message>);

    /// The receive step of one round: `inbox` holds every message that
    /// arrived this round (possibly empty), in a deterministic order.
    fn receive_phase(
        &mut self,
        ctx: &mut Context<'_, Self::Message>,
        inbox: &[Received<Self::Message>],
    );

    /// The node's current (irrevocable once non-undecided) output.
    fn decision(&self) -> Decision;

    /// Whether the node has halted and stopped participating.
    ///
    /// Defaults to "halted iff decided", which suits one-shot algorithms.
    /// Algorithms whose nodes keep serving as referees after deciding (e.g.
    /// the asynchronous-style competitions) override this.
    fn is_terminated(&self) -> bool {
        self.decision().is_decided()
    }

    /// Whether the engine may skip this node until mail reaches it.
    ///
    /// The engine asks after every round in which the node's hooks ran.
    /// Returning `true` promises that, in a round where no message
    /// reaches the node, [`SyncNode::send_phase`] sends nothing and
    /// changes nothing (it draws no coins either), and
    /// [`SyncNode::receive_phase`] with an empty inbox changes nothing.
    /// The engine then calls neither hook in such a round; in a round
    /// where mail arrives it calls only `receive_phase`. Honest answers
    /// leave every execution and trace event unchanged, and rounds cost
    /// O(active nodes + messages) instead of Θ(n).
    ///
    /// The default, `false`, polls the node every round while it is awake
    /// and unterminated.
    fn is_idle(&self) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clique_model::rng::rng_from_seed;

    fn ctx_with<'a>(
        rng: &'a mut SmallRng,
        outbox: &'a mut Vec<(Port, u32)>,
        sends_allowed: bool,
    ) -> Context<'a, u32> {
        Context {
            id: Id(7),
            n: 5,
            ports: 4,
            round: 2,
            rng,
            outbox,
            sends_allowed,
        }
    }

    #[test]
    fn context_accessors() {
        let mut rng = rng_from_seed(0);
        let mut outbox = Vec::new();
        let ctx = ctx_with(&mut rng, &mut outbox, true);
        assert_eq!(ctx.id(), Id(7));
        assert_eq!(ctx.n(), 5);
        assert_eq!(ctx.port_count(), 4);
        assert_eq!(ctx.round(), 2);
        assert_eq!(ctx.all_ports().count(), 4);
        assert_eq!(
            ctx.first_ports(2).collect::<Vec<_>>(),
            vec![Port(0), Port(1)]
        );
    }

    #[test]
    fn send_queues_messages() {
        let mut rng = rng_from_seed(0);
        let mut outbox = Vec::new();
        let mut ctx = ctx_with(&mut rng, &mut outbox, true);
        ctx.send(Port(3), 99);
        ctx.send(Port(0), 1);
        assert_eq!(outbox, vec![(Port(3), 99), (Port(0), 1)]);
    }

    #[test]
    #[should_panic(expected = "only send during the send phase")]
    fn send_outside_send_phase_panics() {
        let mut rng = rng_from_seed(0);
        let mut outbox = Vec::new();
        let mut ctx = ctx_with(&mut rng, &mut outbox, false);
        ctx.send(Port(0), 1);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn send_to_bad_port_panics() {
        let mut rng = rng_from_seed(0);
        let mut outbox = Vec::new();
        let mut ctx = ctx_with(&mut rng, &mut outbox, true);
        ctx.send(Port(4), 1);
    }

    #[test]
    fn sample_ports_distinct_and_in_range() {
        let mut rng = rng_from_seed(8);
        let mut outbox = Vec::new();
        let mut ctx = ctx_with(&mut rng, &mut outbox, true);
        let mut ports = ctx.sample_ports(4);
        ports.sort_unstable();
        ports.dedup();
        assert_eq!(ports.len(), 4);
        assert!(ports.iter().all(|p| p.0 < 4));
    }
}

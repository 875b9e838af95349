//! The communication graph of Definition 3.1 and component capacities of
//! Definition 3.2, built from an execution's trace.
//!
//! The round-`r` communication graph has a directed edge `(u, v)` iff `u`
//! sent a message over a port connected to `v` in some round `r' < r`.
//! Lemma 3.9's adversary and the Theorem 3.8 experiments reason about the
//! *weakly connected components* of this graph: nodes in one component may
//! have correlated states, nodes in different components provably behave
//! independently.

use clique_model::topology::{Dsu, TimedArc};
use clique_model::trace::{At, TraceEvent};
use clique_model::NodeIndex;

/// A time-stamped directed communication graph over `n` nodes.
///
/// Edge records and the union–find machinery are the shared
/// [`clique_model::topology`] types, so the lower-bound layer and the
/// topology generators agree on one vocabulary for graphs over node
/// indices.
#[derive(Debug, Clone)]
pub struct CommGraph {
    n: usize,
    /// One arc per message, in send order.
    edges: Vec<TimedArc>,
}

impl CommGraph {
    /// Creates an empty communication graph over `n` nodes.
    pub fn new(n: usize) -> Self {
        CommGraph {
            n,
            edges: Vec::new(),
        }
    }

    /// Number of nodes.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Records that `src` sent a message that reached `dst` during `round`.
    ///
    /// # Panics
    ///
    /// Panics if either endpoint is out of range.
    pub fn record(&mut self, round: usize, src: NodeIndex, dst: NodeIndex) {
        assert!(src.0 < self.n && dst.0 < self.n, "endpoint out of range");
        self.edges.push(TimedArc {
            round: round as u32,
            src: src.0 as u32,
            dst: dst.0 as u32,
        });
    }

    /// Records one arc per [`TraceEvent::Send`] in `events`, a
    /// synchronous run's trace in execution order, and ignores every other
    /// event. A message counts when it is sent, as in Definition 3.1, so
    /// mail that a terminated node swallows still adds its arc.
    ///
    /// # Panics
    ///
    /// Panics on a send stamped with an asynchronous time, or with an
    /// endpoint out of range.
    ///
    /// # Example
    ///
    /// ```
    /// use clique_model::ports::Port;
    /// use clique_model::trace::SharedSink;
    /// use clique_model::Decision;
    /// use clique_sync::{Context, Received, SyncNode, SyncSimBuilder};
    /// use le_bounds::CommGraph;
    ///
    /// /// Sends once on port 0, then stops.
    /// struct Hello(Decision);
    /// impl SyncNode for Hello {
    ///     type Message = ();
    ///     fn send_phase(&mut self, ctx: &mut Context<'_, ()>) { ctx.send(Port(0), ()); }
    ///     fn receive_phase(&mut self, _: &mut Context<'_, ()>, _: &[Received<()>]) {
    ///         self.0 = Decision::non_leader();
    ///     }
    ///     fn decision(&self) -> Decision { self.0 }
    /// }
    ///
    /// # fn main() -> Result<(), Box<dyn std::error::Error>> {
    /// let sink = SharedSink::new();
    /// SyncSimBuilder::new(8)
    ///     .trace(Box::new(sink.clone()))
    ///     .build(|_, _| Hello(Decision::Undecided))?
    ///     .run()?;
    /// let mut graph = CommGraph::new(8);
    /// graph.record_trace(&sink.take());
    /// assert_eq!(graph.message_count(), 8);
    /// // Round 1's arcs join the graph from round 2 on.
    /// assert_eq!(graph.largest_component_at(1), 1);
    /// assert!(graph.largest_component_at(2) >= 2);
    /// # Ok(())
    /// # }
    /// ```
    pub fn record_trace(&mut self, events: &[TraceEvent]) {
        for ev in events {
            if let TraceEvent::Send { at, src, dst, .. } = *ev {
                let At::Round(round) = at else {
                    panic!("send without a round: not a synchronous trace");
                };
                self.record(
                    round as usize,
                    NodeIndex(src as usize),
                    NodeIndex(dst as usize),
                );
            }
        }
    }

    /// Total messages recorded.
    pub fn message_count(&self) -> usize {
        self.edges.len()
    }

    /// The weakly connected components of the round-`r` graph (edges from
    /// rounds `< r` only, per Definition 3.1), as sorted node lists; the
    /// result is sorted by each component's smallest node.
    pub fn components_at(&self, round: usize) -> Vec<Vec<NodeIndex>> {
        let mut dsu = Dsu::new(self.n);
        for arc in &self.edges {
            if (arc.round as usize) < round {
                dsu.union(arc.src as usize, arc.dst as usize);
            }
        }
        dsu.groups()
            .into_iter()
            .map(|c| c.into_iter().map(NodeIndex).collect())
            .collect()
    }

    /// Size of the largest component of the round-`r` graph.
    pub fn largest_component_at(&self, round: usize) -> usize {
        self.components_at(round)
            .iter()
            .map(Vec::len)
            .max()
            .unwrap_or(0)
    }

    /// The *capacity* (Definition 3.2) of a node set in the round-`r`
    /// graph: the largest `λ` such that every member has at least `λ`
    /// members it has no edge to or from. Returns 0 for sets of size ≤ 1.
    pub fn capacity_at(&self, round: usize, members: &[NodeIndex]) -> usize {
        if members.len() <= 1 {
            return 0;
        }
        let in_set: std::collections::HashSet<u32> = members.iter().map(|u| u.0 as u32).collect();
        // Count, per member, how many *other* members it touches.
        let mut touched: std::collections::HashMap<u32, std::collections::HashSet<u32>> =
            std::collections::HashMap::new();
        for arc in &self.edges {
            if (arc.round as usize) < round
                && in_set.contains(&arc.src)
                && in_set.contains(&arc.dst)
            {
                touched.entry(arc.src).or_default().insert(arc.dst);
                touched.entry(arc.dst).or_default().insert(arc.src);
            }
        }
        members
            .iter()
            .map(|u| {
                let t = touched.get(&(u.0 as u32)).map_or(0, |s| s.len());
                members.len() - 1 - t
            })
            .min()
            .unwrap_or(0)
    }

    /// Whether `members` is isolated in the round-`r` graph: no edge
    /// connects a member to a non-member (in either direction).
    pub fn is_isolated_at(&self, round: usize, members: &[NodeIndex]) -> bool {
        let in_set: std::collections::HashSet<u32> = members.iter().map(|u| u.0 as u32).collect();
        self.edges.iter().all(|arc| {
            (arc.round as usize) >= round || in_set.contains(&arc.src) == in_set.contains(&arc.dst)
        })
    }

    /// The last round with a recorded message (0 if none).
    pub fn last_round(&self) -> usize {
        self.edges
            .iter()
            .map(|arc| arc.round as usize)
            .max()
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn graph_with(n: usize, edges: &[(usize, usize, usize)]) -> CommGraph {
        let mut g = CommGraph::new(n);
        for &(r, u, v) in edges {
            g.record(r, NodeIndex(u), NodeIndex(v));
        }
        g
    }

    #[test]
    fn round_one_graph_is_empty() {
        // Definition 3.1: G_1 contains only edges sent strictly before
        // round 1, i.e. none.
        let g = graph_with(4, &[(1, 0, 1), (2, 1, 2)]);
        let comps = g.components_at(1);
        assert_eq!(comps.len(), 4, "G_1 must be all singletons");
        assert_eq!(g.largest_component_at(1), 1);
    }

    #[test]
    fn edges_appear_one_round_late() {
        let g = graph_with(4, &[(1, 0, 1), (2, 1, 2)]);
        // Round 2 sees only the round-1 edge.
        let comps = g.components_at(2);
        assert_eq!(comps.len(), 3);
        assert_eq!(comps[0], vec![NodeIndex(0), NodeIndex(1)]);
        // Round 3 sees both.
        assert_eq!(g.largest_component_at(3), 3);
    }

    #[test]
    fn weak_connectivity_ignores_direction() {
        // Two directed edges into node 2 still merge all three nodes.
        let g = graph_with(3, &[(1, 0, 2), (1, 1, 2)]);
        assert_eq!(g.largest_component_at(2), 3);
    }

    #[test]
    fn capacity_counts_untouched_members() {
        // Component {0,1,2,3} with a single 0→1 edge: 0 and 1 each still
        // have 2 untouched members; 2 and 3 have 3.
        let g = graph_with(4, &[(1, 0, 1)]);
        let members: Vec<NodeIndex> = (0..4).map(NodeIndex).collect();
        assert_eq!(g.capacity_at(2, &members), 2);
        // Before the edge exists the capacity is full.
        assert_eq!(g.capacity_at(1, &members), 3);
        // Duplicate and reverse edges do not double-count.
        let g2 = graph_with(4, &[(1, 0, 1), (1, 1, 0), (1, 0, 1)]);
        assert_eq!(g2.capacity_at(2, &members), 2);
    }

    #[test]
    fn capacity_of_small_sets_is_zero() {
        let g = graph_with(4, &[]);
        assert_eq!(g.capacity_at(1, &[NodeIndex(0)]), 0);
        assert_eq!(g.capacity_at(1, &[]), 0);
    }

    #[test]
    fn isolation_detects_boundary_edges() {
        let g = graph_with(5, &[(1, 0, 1), (2, 2, 3)]);
        let left = [NodeIndex(0), NodeIndex(1)];
        assert!(g.is_isolated_at(3, &left));
        // {1, 2} is cut by both edges.
        assert!(!g.is_isolated_at(3, &[NodeIndex(1), NodeIndex(2)]));
        // At round 1 nothing has happened, so everything is isolated.
        assert!(g.is_isolated_at(1, &[NodeIndex(1), NodeIndex(2)]));
    }

    #[test]
    fn last_round_and_count() {
        let g = graph_with(5, &[(1, 0, 1), (7, 2, 3)]);
        assert_eq!(g.last_round(), 7);
        assert_eq!(g.message_count(), 2);
        assert_eq!(CommGraph::new(3).last_round(), 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_out_of_range_nodes() {
        let mut g = CommGraph::new(2);
        g.record(1, NodeIndex(0), NodeIndex(5));
    }

    #[test]
    fn trace_builds_graph_from_execution() {
        use clique_model::trace::SharedSink;
        use clique_model::{Decision, Id};
        use clique_sync::{Context, Received, SyncNode, SyncSimBuilder};

        /// Round 1: everyone broadcasts its ID; elects max.
        struct B {
            me: Id,
            best: Id,
            d: Decision,
        }
        impl SyncNode for B {
            type Message = Id;
            fn send_phase(&mut self, ctx: &mut Context<'_, Id>) {
                if ctx.round() == 1 {
                    for p in ctx.all_ports() {
                        ctx.send(p, self.me);
                    }
                }
            }
            fn receive_phase(&mut self, ctx: &mut Context<'_, Id>, inbox: &[Received<Id>]) {
                for m in inbox {
                    self.best = self.best.max(m.msg);
                }
                if ctx.round() == 1 {
                    self.d = if self.best == self.me {
                        Decision::Leader
                    } else {
                        Decision::non_leader()
                    };
                }
            }
            fn decision(&self) -> Decision {
                self.d
            }
        }

        let n = 6;
        let sink = SharedSink::new();
        let outcome = SyncSimBuilder::new(n)
            .seed(2)
            .trace(Box::new(sink.clone()))
            .build(|id, _| B {
                me: id,
                best: id,
                d: Decision::Undecided,
            })
            .unwrap()
            .run()
            .unwrap();
        outcome.validate_implicit().unwrap();
        let mut g = CommGraph::new(n);
        g.record_trace(&sink.take());
        assert_eq!(g.message_count(), n * (n - 1));
        // After the broadcast round the graph is fully connected.
        assert_eq!(g.largest_component_at(2), n);
        // ... but during round 1 it was still empty (Definition 3.1).
        assert_eq!(g.largest_component_at(1), 1);

        /// Broadcasts and decides in round 2's send phase, so each node's
        /// mail reaches peers that have quit or are about to.
        struct Quitter(Decision);
        impl SyncNode for Quitter {
            type Message = ();
            fn send_phase(&mut self, ctx: &mut Context<'_, ()>) {
                if ctx.round() == 2 {
                    for p in ctx.all_ports() {
                        ctx.send(p, ());
                    }
                    self.0 = Decision::Leader;
                }
            }
            fn receive_phase(&mut self, _ctx: &mut Context<'_, ()>, _inbox: &[Received<()>]) {}
            fn decision(&self) -> Decision {
                self.0
            }
        }
        let outcome = SyncSimBuilder::new(5)
            .seed(4)
            .trace(Box::new(sink.clone()))
            .build(|_, _| Quitter(Decision::Undecided))
            .unwrap()
            .run()
            .unwrap();
        let events = sink.take();
        // All 20 messages are swallowed, but the trace marks as delivered
        // the 10 sent before their recipient quit. The graph counts sends.
        let delivers = events
            .iter()
            .filter(|e| matches!(e, TraceEvent::Deliver { .. }))
            .count();
        assert_eq!(outcome.stats.total(), 20);
        assert_eq!(outcome.messages_to_terminated, 20);
        assert_eq!(delivers, 10);
        let mut g = CommGraph::new(5);
        g.record_trace(&events);
        assert_eq!(g.message_count() as u64, outcome.stats.total());
    }

    #[test]
    #[should_panic(expected = "without a round")]
    fn rejects_asynchronous_sends() {
        CommGraph::new(2).record_trace(&[TraceEvent::Send {
            at: At::Time(0.5),
            src: 0,
            port: 0,
            dst: 1,
            cls: None,
        }]);
    }
}

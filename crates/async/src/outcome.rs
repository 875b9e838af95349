//! Execution outcomes of the asynchronous engine.

use clique_model::election;
use clique_model::ids::IdAssignment;
use clique_model::metrics::MessageStats;
use clique_model::{Decision, NodeIndex};

pub use clique_model::election::ElectionViolation;

/// Why the asynchronous engine stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AsyncHaltReason {
    /// The event queue drained: no message is in flight and no wake-up is
    /// pending, so nothing can ever happen again.
    QueueDrained,
    /// The configured event cap was reached (usually an algorithm bug).
    MaxEvents,
    /// Fault-induced livelock: the queue drained, but only because the
    /// faulty network layer gave up — at least one payload was permanently
    /// lost (retransmission budget exhausted, dropped with no reliability
    /// layer, or swallowed by a crashed receiver), or every node crashed.
    /// Never conflated with [`AsyncHaltReason::MaxEvents`], which fires
    /// *before* quiescence; this variant fires only *at* quiescence and
    /// only when a network configuration is active.
    FaultLivelock,
}

/// Everything measurable about one asynchronous execution.
#[derive(Debug, Clone)]
pub struct AsyncOutcome {
    /// Network size.
    pub n: usize,
    /// Asynchronous time complexity: time units from the first wake-up to
    /// the last processed event (paper, Section 5 preliminaries).
    pub time: f64,
    /// Time of the last *spontaneous* (adversarial) wake-up. Theorem 5.14
    /// counts time from here instead of from the first wake-up;
    /// [`AsyncOutcome::time_since_last_spontaneous_wake`] computes that
    /// alternative accounting.
    pub last_adversarial_wake: f64,
    /// Time by which every node had woken up, if all did (the quantity
    /// bounded by Lemma 5.2).
    pub wake_all_time: Option<f64>,
    /// Message accounting; per-round histogram buckets are unit-time
    /// intervals (`⌊t⌋ + 1`).
    pub stats: MessageStats,
    /// Final decision of every node.
    pub decisions: Vec<Decision>,
    /// Which nodes ever woke up.
    pub awake: Vec<bool>,
    /// The IDs the nodes ran with.
    pub ids: IdAssignment,
    /// Messages dropped because their destination had terminated.
    pub messages_to_terminated: u64,
    /// Which nodes were crashed when the engine halted (all `false`
    /// without a fault plan; a node that crashed and recovered is
    /// `false`).
    pub crashed: Vec<bool>,
    /// Why the engine stopped.
    pub halt: AsyncHaltReason,
}

impl AsyncOutcome {
    /// All nodes that elected themselves leader.
    pub fn leaders(&self) -> Vec<NodeIndex> {
        election::leaders(&self.decisions)
    }

    /// The unique leader, if exactly one exists.
    pub fn unique_leader(&self) -> Option<NodeIndex> {
        election::unique_leader(&self.decisions)
    }

    /// Time complexity counted from the last spontaneous (adversarial)
    /// wake-up — the accounting of Theorem 5.14 (Section 5.4).
    pub fn time_since_last_spontaneous_wake(&self) -> f64 {
        (self.time - self.last_adversarial_wake).max(0.0)
    }

    /// Whether every node woke up.
    pub fn all_awake(&self) -> bool {
        self.awake.iter().all(|&a| a)
    }

    /// Number of nodes crashed at halt.
    pub fn crashed_count(&self) -> usize {
        self.crashed.iter().filter(|&&c| c).count()
    }

    /// Graceful-degradation success under crash faults: exactly one node
    /// decided `Leader`, and every node that is *alive and awake* at halt
    /// reached a decision. Crashed and never-woken nodes are excused —
    /// a dead node cannot decide, and the fault-free validators would
    /// (correctly) flag it.
    pub fn elects_despite_faults(&self) -> bool {
        self.leaders().len() == 1
            && self.decisions.iter().enumerate().all(|(u, d)| {
                self.crashed.get(u).copied().unwrap_or(false) || !self.awake[u] || d.is_decided()
            })
    }

    /// Number of nodes that woke up.
    pub fn awake_count(&self) -> usize {
        election::awake_count(&self.awake)
    }

    /// Validates *implicit* leader election.
    ///
    /// # Errors
    ///
    /// Returns the first [`ElectionViolation`] found.
    pub fn validate_implicit(&self) -> Result<(), ElectionViolation> {
        election::validate_implicit(&self.decisions, &self.awake, self.messages_to_terminated)
    }

    /// Validates *explicit* leader election.
    ///
    /// # Errors
    ///
    /// Returns the first [`ElectionViolation`] found.
    pub fn validate_explicit(&self) -> Result<(), ElectionViolation> {
        election::validate_explicit(
            &self.decisions,
            &self.awake,
            self.messages_to_terminated,
            &self.ids,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clique_model::ids::Id;

    #[test]
    fn outcome_validation_delegates() {
        let ids = IdAssignment::new(vec![Id(1), Id(2)]).unwrap();
        let o = AsyncOutcome {
            n: 2,
            time: 3.5,
            last_adversarial_wake: 0.5,
            wake_all_time: Some(1.0),
            stats: MessageStats::new(2),
            decisions: vec![Decision::Leader, Decision::non_leader_knowing(Id(1))],
            awake: vec![true, true],
            ids,
            messages_to_terminated: 0,
            crashed: vec![false, false],
            halt: AsyncHaltReason::QueueDrained,
        };
        o.validate_implicit().unwrap();
        o.validate_explicit().unwrap();
        assert_eq!(o.unique_leader(), Some(NodeIndex(0)));
        assert!(o.all_awake());
        assert_eq!(o.awake_count(), 2);
        assert_eq!(o.time_since_last_spontaneous_wake(), 3.0);
        assert_eq!(o.crashed_count(), 0);
        assert!(o.elects_despite_faults());
    }

    #[test]
    fn elects_despite_faults_excuses_the_dead_and_sleeping() {
        let ids = IdAssignment::new(vec![Id(1), Id(2), Id(3), Id(4)]).unwrap();
        let mut o = AsyncOutcome {
            n: 4,
            time: 1.0,
            last_adversarial_wake: 0.0,
            wake_all_time: None,
            stats: MessageStats::new(4),
            decisions: vec![
                Decision::Leader,
                Decision::Undecided, // crashed: excused
                Decision::Undecided, // asleep: excused
                Decision::non_leader(),
            ],
            awake: vec![true, true, false, true],
            ids,
            messages_to_terminated: 0,
            crashed: vec![false, true, false, false],
            halt: AsyncHaltReason::FaultLivelock,
        };
        assert_eq!(o.crashed_count(), 1);
        assert!(o.elects_despite_faults());
        // An alive, awake, undecided node is a genuine failure.
        o.crashed[1] = false;
        assert!(!o.elects_despite_faults());
        // As are two leaders.
        o.crashed[1] = true;
        o.decisions[3] = Decision::Leader;
        assert!(!o.elects_despite_faults());
    }
}

//! Execution outcomes of the synchronous engine.

use clique_model::election;
use clique_model::ids::IdAssignment;
use clique_model::metrics::MessageStats;
use clique_model::{Decision, NodeIndex};

pub use clique_model::election::ElectionViolation;

/// Why the engine stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HaltReason {
    /// Every awake node terminated and no wake-ups were pending: nothing can
    /// ever happen again.
    Quiescent,
    /// The configured round cap was reached (usually an algorithm bug, or a
    /// deliberately truncated lower-bound experiment).
    MaxRounds,
}

/// Everything measurable about one synchronous execution.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Network size.
    pub n: usize,
    /// Rounds with activity until quiescence (the paper's time complexity).
    pub rounds: usize,
    /// Message accounting (the paper's message complexity is
    /// `stats.total()`).
    pub stats: MessageStats,
    /// Final decision of every node.
    pub decisions: Vec<Decision>,
    /// Which nodes ever woke up.
    pub awake: Vec<bool>,
    /// The IDs the nodes ran with.
    pub ids: IdAssignment,
    /// Messages dropped because their destination had terminated.
    pub messages_to_terminated: u64,
    /// Why the engine stopped.
    pub halt: HaltReason,
}

impl Outcome {
    /// All nodes that elected themselves leader.
    pub fn leaders(&self) -> Vec<NodeIndex> {
        election::leaders(&self.decisions)
    }

    /// The unique leader, if exactly one exists.
    pub fn unique_leader(&self) -> Option<NodeIndex> {
        election::unique_leader(&self.decisions)
    }

    /// Whether every node woke up during the execution (the wake-up problem
    /// of Theorem 4.2 is exactly "make this true").
    pub fn all_awake(&self) -> bool {
        self.awake.iter().all(|&a| a)
    }

    /// Number of nodes that woke up.
    pub fn awake_count(&self) -> usize {
        election::awake_count(&self.awake)
    }

    /// Validates *implicit* leader election: every node woke up and decided,
    /// and exactly one elected itself.
    ///
    /// # Errors
    ///
    /// Returns the first [`ElectionViolation`] found.
    pub fn validate_implicit(&self) -> Result<(), ElectionViolation> {
        election::validate_implicit(&self.decisions, &self.awake, self.messages_to_terminated)
    }

    /// Validates *explicit* leader election: implicit correctness plus every
    /// non-leader output the leader's ID.
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

    fn outcome(decisions: Vec<Decision>, awake: Vec<bool>) -> Outcome {
        let n = decisions.len();
        let ids = IdAssignment::new((0..n as u64).map(|i| Id(i + 1)).collect()).unwrap();
        Outcome {
            n,
            rounds: 1,
            stats: MessageStats::new(n),
            decisions,
            awake,
            ids,
            messages_to_terminated: 0,
            halt: HaltReason::Quiescent,
        }
    }

    #[test]
    fn valid_implicit_election() {
        let o = outcome(
            vec![
                Decision::Leader,
                Decision::non_leader(),
                Decision::non_leader(),
            ],
            vec![true; 3],
        );
        o.validate_implicit().unwrap();
        assert_eq!(o.unique_leader(), Some(NodeIndex(0)));
        assert!(o.all_awake());
        assert_eq!(o.awake_count(), 3);
    }

    #[test]
    fn detects_no_leader_and_multiple() {
        let o = outcome(vec![Decision::non_leader(); 2], vec![true; 2]);
        assert_eq!(o.validate_implicit(), Err(ElectionViolation::NoLeader));
        assert_eq!(o.unique_leader(), None);

        let o = outcome(vec![Decision::Leader, Decision::Leader], vec![true; 2]);
        assert!(matches!(
            o.validate_implicit(),
            Err(ElectionViolation::MultipleLeaders { .. })
        ));
        assert_eq!(o.unique_leader(), None);
    }

    #[test]
    fn explicit_requires_correct_leader_id() {
        let good = outcome(
            vec![Decision::Leader, Decision::non_leader_knowing(Id(1))],
            vec![true; 2],
        );
        good.validate_explicit().unwrap();

        let bad = outcome(
            vec![Decision::Leader, Decision::non_leader_knowing(Id(2))],
            vec![true; 2],
        );
        assert!(matches!(
            bad.validate_explicit(),
            Err(ElectionViolation::WrongLeaderId { .. })
        ));
    }

    #[test]
    fn messages_to_terminated_flagged() {
        let mut o = outcome(vec![Decision::Leader], vec![true]);
        o.messages_to_terminated = 3;
        assert_eq!(
            o.validate_implicit(),
            Err(ElectionViolation::MessageToTerminated { count: 3 })
        );
    }
}

//! Leader election correctness checking, shared by the synchronous and
//! asynchronous engines.
//!
//! The specification (paper, Section 2): in *implicit* leader election every
//! node irrevocably outputs one bit and exactly one node outputs "leader";
//! in *explicit* leader election every node additionally outputs the
//! leader's ID.

use crate::ids::{Id, IdAssignment};
use crate::{Decision, NodeIndex};

/// A violation of the leader election specification.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ElectionViolation {
    /// No node elected itself leader.
    NoLeader,
    /// More than one node elected itself leader.
    MultipleLeaders {
        /// All self-elected leaders.
        leaders: Vec<NodeIndex>,
    },
    /// A node that participated (woke up) never decided.
    UndecidedNode {
        /// The offending node.
        node: NodeIndex,
    },
    /// A node never woke up, so it cannot have decided.
    AsleepNode {
        /// The offending node.
        node: NodeIndex,
    },
    /// Explicit election only: a non-leader output a wrong or missing
    /// leader ID.
    WrongLeaderId {
        /// The offending node.
        node: NodeIndex,
        /// What it reported.
        reported: Option<Id>,
        /// The actual leader's ID.
        actual: Id,
    },
    /// A message was delivered to a node that had already terminated —
    /// an algorithm bug (terminated nodes cannot process anything).
    MessageToTerminated {
        /// How many such messages were dropped.
        count: u64,
    },
}

impl std::fmt::Display for ElectionViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ElectionViolation::NoLeader => write!(f, "no node elected itself leader"),
            ElectionViolation::MultipleLeaders { leaders } => {
                write!(f, "{} nodes elected themselves leader", leaders.len())
            }
            ElectionViolation::UndecidedNode { node } => {
                write!(f, "{node} woke up but never decided")
            }
            ElectionViolation::AsleepNode { node } => write!(f, "{node} never woke up"),
            ElectionViolation::WrongLeaderId {
                node,
                reported,
                actual,
            } => write!(
                f,
                "{node} reported leader {reported:?}, actual leader is {actual}"
            ),
            ElectionViolation::MessageToTerminated { count } => {
                write!(f, "{count} messages were sent to terminated nodes")
            }
        }
    }
}

impl std::error::Error for ElectionViolation {}

/// Indices of the nodes whose decision is `Leader`.
pub fn leaders(decisions: &[Decision]) -> Vec<NodeIndex> {
    decisions
        .iter()
        .enumerate()
        .filter(|(_, d)| d.is_leader())
        .map(|(i, _)| NodeIndex(i))
        .collect()
}

/// The unique leader, if exactly one node's decision is `Leader`.
pub fn unique_leader(decisions: &[Decision]) -> Option<NodeIndex> {
    match leaders(decisions)[..] {
        [leader] => Some(leader),
        _ => None,
    }
}

/// Number of nodes that woke up.
pub fn awake_count(awake: &[bool]) -> usize {
    awake.iter().filter(|&&a| a).count()
}

/// Validates *implicit* leader election over a finished execution: every
/// node woke up and decided, exactly one elected itself, and no message was
/// dropped at a terminated node.
///
/// # Errors
///
/// Returns the first [`ElectionViolation`] found.
pub fn validate_implicit(
    decisions: &[Decision],
    awake: &[bool],
    messages_to_terminated: u64,
) -> Result<(), ElectionViolation> {
    if messages_to_terminated > 0 {
        return Err(ElectionViolation::MessageToTerminated {
            count: messages_to_terminated,
        });
    }
    for (i, &is_awake) in awake.iter().enumerate() {
        if !is_awake {
            return Err(ElectionViolation::AsleepNode { node: NodeIndex(i) });
        }
    }
    for (i, d) in decisions.iter().enumerate() {
        if !d.is_decided() {
            return Err(ElectionViolation::UndecidedNode { node: NodeIndex(i) });
        }
    }
    let ls = leaders(decisions);
    match ls.len() {
        0 => Err(ElectionViolation::NoLeader),
        1 => Ok(()),
        _ => Err(ElectionViolation::MultipleLeaders { leaders: ls }),
    }
}

/// Validates *explicit* leader election: implicit correctness plus every
/// non-leader output the leader's ID.
///
/// # Errors
///
/// Returns the first [`ElectionViolation`] found.
pub fn validate_explicit(
    decisions: &[Decision],
    awake: &[bool],
    messages_to_terminated: u64,
    ids: &IdAssignment,
) -> Result<(), ElectionViolation> {
    validate_implicit(decisions, awake, messages_to_terminated)?;
    let leader = leaders(decisions)[0];
    let leader_id = ids.id_of(leader);
    for (i, d) in decisions.iter().enumerate() {
        if let Decision::NonLeader { leader: reported } = d {
            if *reported != Some(leader_id) {
                return Err(ElectionViolation::WrongLeaderId {
                    node: NodeIndex(i),
                    reported: *reported,
                    actual: leader_id,
                });
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accepts_valid_implicit() {
        let d = vec![Decision::non_leader(), Decision::Leader];
        validate_implicit(&d, &[true, true], 0).unwrap();
        assert_eq!(leaders(&d), vec![NodeIndex(1)]);
    }

    #[test]
    fn unique_leader_needs_exactly_one() {
        let one = [Decision::non_leader(), Decision::Leader];
        assert_eq!(unique_leader(&one), Some(NodeIndex(1)));
        assert_eq!(unique_leader(&[Decision::Leader, Decision::Leader]), None);
        assert_eq!(unique_leader(&[Decision::Undecided]), None);
        assert_eq!(awake_count(&[true, false, true]), 2);
    }

    #[test]
    fn rejects_each_violation() {
        let ok = vec![Decision::Leader, Decision::non_leader()];
        assert!(matches!(
            validate_implicit(&ok, &[true, true], 2),
            Err(ElectionViolation::MessageToTerminated { count: 2 })
        ));
        assert!(matches!(
            validate_implicit(&ok, &[true, false], 0),
            Err(ElectionViolation::AsleepNode { .. })
        ));
        let undecided = vec![Decision::Leader, Decision::Undecided];
        assert!(matches!(
            validate_implicit(&undecided, &[true, true], 0),
            Err(ElectionViolation::UndecidedNode { .. })
        ));
        let none = vec![Decision::non_leader(); 2];
        assert_eq!(
            validate_implicit(&none, &[true, true], 0),
            Err(ElectionViolation::NoLeader)
        );
        let two = vec![Decision::Leader, Decision::Leader];
        assert!(matches!(
            validate_implicit(&two, &[true, true], 0),
            Err(ElectionViolation::MultipleLeaders { .. })
        ));
    }

    #[test]
    fn explicit_checks_leader_ids() {
        let ids = IdAssignment::new(vec![Id(5), Id(6)]).unwrap();
        let good = vec![Decision::Leader, Decision::non_leader_knowing(Id(5))];
        validate_explicit(&good, &[true, true], 0, &ids).unwrap();
        let bad = vec![Decision::Leader, Decision::non_leader_knowing(Id(6))];
        assert!(matches!(
            validate_explicit(&bad, &[true, true], 0, &ids),
            Err(ElectionViolation::WrongLeaderId { .. })
        ));
    }
}

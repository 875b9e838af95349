//! Shared error types for the clique model.

use crate::{Decision, NodeIndex, Port, PortBackend};

/// Errors produced while constructing or manipulating model primitives.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ModelError {
    /// The network must contain at least two nodes for leader election to be
    /// non-trivial and for every node to own at least one port.
    NetworkTooSmall {
        /// The offending node count.
        n: usize,
    },
    /// The requested port-map backend cannot index a network this large
    /// (the dense backend's `u16` tables stop at `n = 65536`).
    NetworkTooLarge {
        /// The backend that was asked for.
        backend: PortBackend,
        /// The requested node count.
        n: usize,
        /// The largest node count the backend supports.
        limit: usize,
    },
    /// A port index was not in `0..n-1`.
    PortOutOfRange {
        /// Node owning the port.
        node: NodeIndex,
        /// The offending port.
        port: Port,
        /// Number of ports each node owns (`n - 1`).
        ports_per_node: usize,
    },
    /// A node index was not in `0..n`.
    NodeOutOfRange {
        /// The offending node.
        node: NodeIndex,
        /// The network size.
        n: usize,
    },
    /// The ID universe is too small to assign `n` distinct IDs.
    UniverseTooSmall {
        /// Universe cardinality.
        universe: u64,
        /// Requested assignment size.
        n: usize,
    },
    /// A resolver returned a peer that is already connected to the source,
    /// the source itself, or out of range.
    InvalidResolution {
        /// Source node whose port was being resolved.
        node: NodeIndex,
        /// Port being resolved.
        port: Port,
        /// Human-readable description of the violation.
        reason: &'static str,
    },
    /// A topology generator was asked for an unrepresentable graph
    /// (bad dimensions, degree/parity constraints, malformed edge list).
    InvalidTopology {
        /// Human-readable description of the violated constraint.
        reason: &'static str,
    },
    /// An ID assignment contained a duplicate identifier.
    DuplicateId {
        /// The duplicated identifier value.
        id: u64,
    },
    /// A delay strategy or adversary returned a delay outside `(0, 1]`
    /// (including `NaN` or an infinity). Checked in *all* build profiles:
    /// a non-finite delay would poison the event queue's time ordering.
    InvalidDelay {
        /// The offending adversary's name.
        adversary: String,
        /// The offending delay, pre-formatted (`f64` is not `Eq`).
        delay: String,
    },
    /// A node changed a decision it had already made. Decisions are
    /// irrevocable, so this is a fault in the node's algorithm.
    DecisionRevoked {
        /// The node that changed its decision.
        node: NodeIndex,
        /// The decision it had made.
        from: Decision,
        /// The decision it changed to.
        to: Decision,
    },
}

impl std::fmt::Display for ModelError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ModelError::NetworkTooSmall { n } => {
                write!(f, "network must contain at least 2 nodes, got {n}")
            }
            ModelError::NetworkTooLarge { backend, n, limit } => write!(
                f,
                "the {backend} port-map backend supports at most {limit} nodes, got {n}"
            ),
            ModelError::PortOutOfRange {
                node,
                port,
                ports_per_node,
            } => write!(
                f,
                "port {port} of {node} out of range (each node has {ports_per_node} ports)"
            ),
            ModelError::NodeOutOfRange { node, n } => {
                write!(f, "{node} out of range for network of {n} nodes")
            }
            ModelError::UniverseTooSmall { universe, n } => write!(
                f,
                "ID universe of size {universe} cannot provide {n} distinct IDs"
            ),
            ModelError::InvalidResolution { node, port, reason } => {
                write!(f, "invalid resolution for {node} port {port}: {reason}")
            }
            ModelError::InvalidTopology { reason } => {
                write!(f, "invalid topology: {reason}")
            }
            ModelError::DuplicateId { id } => write!(f, "duplicate ID {id} in assignment"),
            ModelError::InvalidDelay { adversary, delay } => write!(
                f,
                "adversary {adversary} returned delay {delay}, outside (0, 1]"
            ),
            ModelError::DecisionRevoked { node, from, to } => {
                write!(f, "{node} revoked its decision ({from} -> {to})")
            }
        }
    }
}

impl std::error::Error for ModelError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_lowercase_and_concise() {
        let e = ModelError::NetworkTooSmall { n: 1 };
        assert_eq!(
            e.to_string(),
            "network must contain at least 2 nodes, got 1"
        );
        let e = ModelError::NetworkTooLarge {
            backend: PortBackend::Dense,
            n: 65537,
            limit: 65536,
        };
        assert_eq!(
            e.to_string(),
            "the dense port-map backend supports at most 65536 nodes, got 65537"
        );
        let e = ModelError::DuplicateId { id: 9 };
        assert_eq!(e.to_string(), "duplicate ID 9 in assignment");
        let e = ModelError::InvalidDelay {
            adversary: "hostile".into(),
            delay: "NaN".into(),
        };
        assert_eq!(
            e.to_string(),
            "adversary hostile returned delay NaN, outside (0, 1]"
        );
        let e = ModelError::DecisionRevoked {
            node: NodeIndex(3),
            from: Decision::Leader,
            to: Decision::non_leader(),
        };
        assert_eq!(
            e.to_string(),
            "n3 revoked its decision (leader -> non-leader)"
        );
    }

    #[test]
    fn error_is_std_error_send_sync() {
        fn assert_err<T: std::error::Error + Send + Sync + 'static>() {}
        assert_err::<ModelError>();
    }
}

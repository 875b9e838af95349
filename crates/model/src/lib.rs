//! Primitives of the KT0 ("clean network") clique model used throughout the
//! reproduction of *Improved Tradeoffs for Leader Election* (PODC 2023).
//!
//! The model (paper, Section 2): `n` nodes are connected by point-to-point
//! links into a clique. Each node owns `n - 1` ports over which it sends and
//! receives messages. The assignment of port numbers to destinations is an
//! arbitrary bijection that a node does *not* know — it only learns where a
//! port leads by sending or receiving a message over it. Each node initially
//! knows only its own unique identifier and `n`.
//!
//! This crate provides the pieces shared by the synchronous engine
//! ([`clique-sync`](https://docs.rs/clique-sync)) and the asynchronous engine
//! ([`clique-async`](https://docs.rs/clique-async)):
//!
//! * [`ids`] — protocol identifiers, ID universes and ID assignments
//!   (contiguous, linear-size, quasilinear, polynomial — the sizes the
//!   paper's theorems condition on),
//! * [`ports`] — lazily-resolved bijective port mappings with pluggable
//!   [`PortResolver`] strategies (uniform random,
//!   round-robin, or the adaptive adversary of the lower bounds) *and*
//!   pluggable storage backends ([`ports::PortBackend`]: dense `Θ(n²)`
//!   tables or sparse O(links) touched-state tables for `n = 65536+`),
//! * [`rng`] — deterministic seed derivation and sampling helpers,
//! * [`decision`] — the tri-state leader/non-leader output of a node,
//! * [`metrics`] — message accounting histograms,
//! * [`trace`] — structured execution tracing (typed events, class
//!   specs and sinks) shared by both engines,
//! * [`topology`] — general communication graphs (clique, ring, torus,
//!   random-regular, explicit edge lists) whose per-node port spaces the
//!   engines and port backends draw from,
//! * [`prof`] — the phase profiler (span timers that record inside an
//!   open trial, folded into per-cell timing columns by the sweep runner),
//! * [`sim`] — the engine core: the settings, build steps, arena slot,
//!   port resolution, decision tracking and trace summary that both
//!   engines run on, written once,
//! * [`error`] — shared error types.
//!
//! # Example
//!
//! ```
//! use clique_model::ids::IdSpace;
//! use clique_model::ports::{PortMap, RandomResolver};
//! use clique_model::rng::rng_from_seed;
//! use clique_model::{NodeIndex, Port};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let n = 16;
//! let mut rng = rng_from_seed(7);
//! let assignment = IdSpace::quasilinear(n).assign(n, &mut rng)?;
//! assert_eq!(assignment.len(), n);
//!
//! let mut ports = PortMap::new(n)?;
//! let mut resolver = RandomResolver;
//! // Node 0 opens its port 3; the resolver decides (lazily, uniformly)
//! // where that port leads, and the reverse direction is fixed too.
//! let dest = ports.resolve(NodeIndex(0), Port(3), &mut resolver, &mut rng)?;
//! assert_eq!(ports.peer(dest.node, dest.port), Some(clique_model::Endpoint {
//!     node: NodeIndex(0),
//!     port: Port(3),
//! }));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod decision;
pub mod election;
pub mod error;
pub mod ids;
pub mod metrics;
pub mod ports;
pub mod prof;
pub mod rng;
pub mod sim;
pub mod topology;
pub mod trace;

pub use decision::Decision;
pub use election::ElectionViolation;
pub use error::ModelError;
pub use ids::{Id, IdAssignment, IdSpace};
pub use ports::{
    CirculantResolver, Endpoint, Port, PortBackend, PortMap, PortResolver, RandomResolver,
    RoundRobinResolver,
};
pub use topology::{Topology, TopologyKind};

/// Index of a node inside the simulated network, in `0..n`.
///
/// This is the *simulator's* name for a node. Algorithms never see it: the
/// KT0 model only gives a node its protocol [`Id`] and its ports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct NodeIndex(pub usize);

/// Why a node woke up.
///
/// Theorem 4.1's algorithm branches on exactly this: adversary-woken nodes
/// spray `⌈√n⌉` wake-up messages, message-woken nodes become candidates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WakeCause {
    /// The adversary (or the simultaneous-wake-up schedule) woke the node.
    Adversary,
    /// The first message reached the node and woke it.
    Message,
}

impl NodeIndex {
    /// Returns the underlying index as `usize`.
    #[inline]
    pub fn index(self) -> usize {
        self.0
    }
}

impl std::fmt::Display for NodeIndex {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "n{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_index_display_and_order() {
        assert_eq!(NodeIndex(3).to_string(), "n3");
        assert!(NodeIndex(2) < NodeIndex(10));
        assert_eq!(NodeIndex(5).index(), 5);
    }

    #[test]
    fn node_index_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<NodeIndex>();
    }
}

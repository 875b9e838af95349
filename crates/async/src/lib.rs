//! Asynchronous event-driven engine for the KT0 clique.
//!
//! Implements the asynchronous model of *Improved Tradeoffs for Leader
//! Election* (PODC 2023), Section 5:
//!
//! * the adversary chooses the port mapping *obliviously* (before any node
//!   wakes, independent of algorithm coins) — modelled by resolving ports
//!   with an RNG stream independent of the nodes' streams;
//! * every message suffers an adversarial delay in `(0, 1]`, where one
//!   *time unit* is an upper bound on any transmission time — modelled by a
//!   pluggable [`Adversary`] (graded by observation power: oblivious
//!   [`DelayStrategy`] distributions, link-static schedules, and fully
//!   adaptive class/transcript-aware schedulers — see [`adversary`]);
//! * links deliver in FIFO order;
//! * the adversary wakes an arbitrary non-empty subset of nodes; everyone
//!   else sleeps until a message arrives;
//! * the *asynchronous time complexity* is the total time from the first
//!   wake-up until the last message is received.
//!
//! # What the two engines share
//!
//! The synchronous and asynchronous engines simulate one model and differ
//! only in timing, so everything else lives once in
//! [`clique_model::sim`]: the settings `seed`, `ids`, `resolver`,
//! `backend`, `topology` and `trace`
//! ([`Settings`](clique_model::sim::Settings)); the build steps (the size
//! and ID checks, the topology, the port map recycled from the arena, the
//! node and resolver streams, the tracer); port resolution; decision
//! tracking, which rejects a revoked decision; and the end-of-run trace
//! summary. This crate adds the timing: wake-ups in continuous time
//! ([`AsyncSimBuilder::wake`]), the event queue and its cap
//! ([`AsyncSimBuilder::max_events`]), the adversary
//! ([`AsyncSimBuilder::adversary`]), and the faulty network with its
//! fault schedule ([`AsyncSimBuilder::network`]).
//!
//! # Example
//!
//! An echo protocol: the adversary wakes one node, which pings a port; the
//! receiver wakes and decides.
//!
//! ```
//! use clique_async::{AsyncContext, AsyncNode, AsyncSimBuilder, AsyncWakeSchedule, Received};
//! use clique_model::ports::Port;
//! use clique_model::{Decision, NodeIndex, WakeCause};
//!
//! struct Ping {
//!     decision: Decision,
//! }
//!
//! impl AsyncNode for Ping {
//!     type Message = ();
//!     fn on_wake(&mut self, ctx: &mut AsyncContext<'_, ()>, cause: WakeCause) {
//!         if cause == WakeCause::Adversary {
//!             ctx.send(Port(0), ());
//!         }
//!         self.decision = Decision::Leader; // placeholder decision
//!     }
//!     fn on_message(&mut self, _ctx: &mut AsyncContext<'_, ()>, _m: Received<()>) {}
//!     fn decision(&self) -> Decision {
//!         self.decision
//!     }
//! }
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let outcome = AsyncSimBuilder::new(4)
//!     .seed(9)
//!     .wake(AsyncWakeSchedule::single(NodeIndex(0)))
//!     .build(|_, _| Ping { decision: Decision::Undecided })?
//!     .run()?;
//! assert_eq!(outcome.stats.total(), 1);
//! assert!(outcome.time <= 1.0, "one message, at most one time unit");
//! assert_eq!(outcome.awake_count(), 2);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adversary;
pub mod engine;
pub mod network;
pub mod node;
pub mod outcome;
mod queue;
pub mod wakeup;

pub use adversary::delay::{BimodalDelay, ConstDelay, DelayStrategy, UniformDelay};
// Path-compatibility alias: the delay strategies predate the adversary
// subsystem and were importable as `clique_async::delay::*`.
pub use adversary::delay;
pub use adversary::{
    Adversary, Capability, CrashTopSender, MessageClass, Oblivious, Observation,
    PartitionAdversary, RecordedSchedule, Recorder, RushingAdversary, TargetedLoss,
    TargetedSlowdown, TraceHandle, TraceStep, Transcript,
};
pub use engine::{AsyncArena, AsyncSim, AsyncSimBuilder};
pub use network::{CrashFault, FaultPlan, NetworkConfig, RandomCrash, Reliability};
pub use node::{AsyncContext, AsyncNode, Received};
pub use outcome::{AsyncHaltReason, AsyncOutcome};
pub use wakeup::AsyncWakeSchedule;

//! Leader election algorithms for clique networks, reproducing every
//! algorithm of *Improved Tradeoffs for Leader Election* (Kutten, Robinson,
//! Tan, Zhu — PODC 2023) plus the baselines the paper compares against.
//!
//! # The algorithms
//!
//! Synchronous, in [`sync`]:
//!
//! | Module | Paper | Time | Messages |
//! |---|---|---|---|
//! | [`sync::improved_tradeoff`] | Theorem 3.10 | odd `ℓ ≥ 3` | `O(ℓ·n^{1+2/(ℓ+1)})` |
//! | [`sync::afek_gafni`] | baseline \[1\] | even `ℓ ≥ 2` | `O(ℓ·n^{1+2/ℓ})` |
//! | [`sync::small_id`] | Theorem 3.15, Algorithm 1 | `⌈n/d⌉` | `n·d·g(n)` |
//! | [`sync::las_vegas`] | Theorem 3.16 | 3 (whp) | `O(n)` (whp), never fails |
//! | [`sync::singular`] | Kutten–Moses-style, general graphs | `≤ 3D + O(1)` | `O(m)` expected |
//! | [`sync::sublinear_mc`] | baseline \[16\] | 2 | `O(√n·log^{3/2} n)` whp |
//! | [`sync::two_round_adversarial`] | Theorem 4.1 | 2 | `O(n^{3/2}·log(1/ε))` |
//! | [`sync::gossip_baseline`] | stand-in for \[14\] | `O(log n)` | `O(n·log n)` whp |
//!
//! Asynchronous, in [`asynchronous`]:
//!
//! | Module | Paper | Time | Messages |
//! |---|---|---|---|
//! | [`asynchronous::tradeoff`] | Theorem 5.1, Algorithm 2 | `k + 8` | `O(n^{1+1/k})` |
//! | [`asynchronous::afek_gafni`] | Theorem 5.14, §5.4 | `O(log n)` | `O(n·log n)` |
//!
//! Each module exposes a `Config` (validated parameters derived from `n` and
//! the tradeoff knob) and a node type implementing
//! [`SyncNode`](clique_sync::SyncNode) or
//! [`AsyncNode`](clique_async::AsyncNode); plug the node factory into the
//! corresponding engine builder.
//!
//! # Example
//!
//! Run the paper's improved deterministic tradeoff (Theorem 3.10) in 5
//! rounds on a 64-node clique:
//!
//! ```
//! use clique_sync::SyncSimBuilder;
//! use leader_election::sync::improved_tradeoff::{Config, Node};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let cfg = Config::with_rounds(5);
//! let outcome = SyncSimBuilder::new(64)
//!     .seed(7)
//!     .build(|id, n| Node::new(id, n, cfg))?
//!     .run()?;
//! outcome.validate_explicit()?;
//! assert_eq!(outcome.rounds, 5);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod asynchronous;
pub mod sync;

//! The adaptive port-mapping adversary of Lemma 3.9, executable.
//!
//! The lemma's adversary maintains a decomposition of the clique into
//! blocks `B_1, ..., B_{n/2^{σ_r}}` and, whenever a node opens a previously
//! unused port, connects it to a node *inside the sender's own block* —
//! which is admissible in the clean network model because nobody knows
//! where an unused port leads until a message crosses it (Lemma 3.3). Only
//! when a block runs out of fresh targets does the adversary merge it with
//! `2^t − 1` further blocks (`t = 1 + ⌈log₂ f⌉`, Equation 3), which is how
//! the proof confines components to the `2^{σ_r}` growth envelope for any
//! algorithm respecting the `n·f(n)` message budget.
//!
//! [`ComponentAdversary`] implements [`PortResolver`] with exactly that
//! strategy, fully deterministically. Because every resolution stays inside
//! a block, the *communication-graph components are always subsets of
//! blocks* — Property (A) of Lemma 3.9 — which the experiment
//! `exp_lb_tradeoff` verifies against [`CommGraph`](crate::CommGraph)
//! observations while tracking block growth against the envelope.

use std::cell::RefCell;
use std::rc::Rc;

use clique_model::ports::{Port, PortResolver, PortView};
use clique_model::NodeIndex;
use rand::rngs::SmallRng;

use crate::formulas::merge_exponent;

#[derive(Debug)]
struct State {
    /// Block id of each node.
    block_of: Vec<u32>,
    /// Members per block id; merged-away blocks are left empty.
    blocks: Vec<Vec<u32>>,
    /// `2^t` = number of blocks fused per merge event.
    merge_factor: usize,
    /// Completed merge events.
    merges: u64,
    /// Largest block size ever reached.
    max_block: usize,
}

impl State {
    fn merge_into(&mut self, target_block: usize) {
        // Fuse the 2^t − 1 *smallest* non-empty blocks into `target_block`
        // (ties by block id — deterministic). The proof merges equal-sized
        // blocks of the current decomposition; preferring the smallest
        // keeps block sizes balanced instead of snowballing one giant.
        let mut candidates: Vec<(usize, usize)> = self
            .blocks
            .iter()
            .enumerate()
            .filter(|&(b, members)| b != target_block && !members.is_empty())
            .map(|(b, members)| (members.len(), b))
            .collect();
        candidates.sort_unstable();
        for &(_, b) in candidates.iter().take(self.merge_factor - 1) {
            let members = std::mem::take(&mut self.blocks[b]);
            for &m in &members {
                self.block_of[m as usize] = target_block as u32;
            }
            self.blocks[target_block].extend(members);
        }
        self.merges += 1;
        self.max_block = self.max_block.max(self.blocks[target_block].len());
    }
}

/// Read-only probe into the adversary's evolving block decomposition.
///
/// Obtained from [`ComponentAdversary::new`]; stays valid while the
/// resolver lives inside an engine, so experiments can inspect growth
/// between [`SyncSim::step`](clique_sync::SyncSim::step) calls.
#[derive(Debug, Clone)]
pub struct AdversaryProbe {
    state: Rc<RefCell<State>>,
}

impl AdversaryProbe {
    /// The largest block size reached so far.
    pub fn max_block_size(&self) -> usize {
        self.state.borrow().max_block
    }

    /// Completed merge events.
    pub fn merge_events(&self) -> u64 {
        self.state.borrow().merges
    }

    /// Number of non-empty blocks.
    pub fn block_count(&self) -> usize {
        self.state
            .borrow()
            .blocks
            .iter()
            .filter(|b| !b.is_empty())
            .count()
    }

    /// The block id containing `node`.
    pub fn block_of(&self, node: NodeIndex) -> usize {
        self.state.borrow().block_of[node.0] as usize
    }

    /// Sizes of all non-empty blocks, descending.
    pub fn block_sizes(&self) -> Vec<usize> {
        let mut sizes: Vec<usize> = self
            .state
            .borrow()
            .blocks
            .iter()
            .map(Vec::len)
            .filter(|&s| s > 0)
            .collect();
        sizes.sort_unstable_by(|a, b| b.cmp(a));
        sizes
    }

    /// Whether two nodes currently share a block.
    pub fn same_block(&self, a: NodeIndex, b: NodeIndex) -> bool {
        let s = self.state.borrow();
        s.block_of[a.0] == s.block_of[b.0]
    }
}

/// The Lemma 3.9 adversary as a deterministic [`PortResolver`].
///
/// Use against *deterministic* algorithms (the model only admits adaptive
/// port resolution there). `f` is the per-node message budget factor the
/// adversary assumes (`n·f(n)` messages total); it controls the merge
/// factor `2^{1+⌈log₂ f⌉}` of Equation (3).
#[derive(Debug)]
pub struct ComponentAdversary {
    state: Rc<RefCell<State>>,
}

impl ComponentAdversary {
    /// Creates the adversary for an `n`-node clique against algorithms
    /// with message budget `n·f`, returning the resolver and a probe into
    /// its decomposition.
    ///
    /// # Panics
    ///
    /// Panics unless `n ≥ 2` and `f > 1` (Theorem 3.8's regime).
    pub fn new(n: usize, f: f64) -> (Self, AdversaryProbe) {
        assert!(n >= 2, "need at least two nodes");
        assert!(f > 1.0, "Theorem 3.8's regime requires f > 1, got {f}");
        let state = Rc::new(RefCell::new(State {
            block_of: (0..n as u32).collect(),
            blocks: (0..n as u32).map(|u| vec![u]).collect(),
            merge_factor: 1usize << merge_exponent(f),
            merges: 0,
            max_block: 1,
        }));
        let probe = AdversaryProbe {
            state: Rc::clone(&state),
        };
        (ComponentAdversary { state }, probe)
    }
}

impl PortResolver for ComponentAdversary {
    fn choose_peer(
        &mut self,
        view: PortView<'_>,
        src: NodeIndex,
        _src_port: Port,
        _rng: &mut SmallRng,
    ) -> NodeIndex {
        let mut state = self.state.borrow_mut();
        loop {
            let block = state.block_of[src.0] as usize;
            let peer = state.blocks[block]
                .iter()
                .copied()
                .map(|m| NodeIndex(m as usize))
                .find(|&m| m != src && !view.is_connected(src, m));
            match peer {
                Some(p) => return p,
                None => {
                    // Block saturated: fuse in the next 2^t − 1 blocks
                    // (Lemma 3.9's round-boundary merge).
                    let before = state.blocks[block].len();
                    state.merge_into(block);
                    assert!(
                        state.blocks[block].len() > before,
                        "{src} is connected to the entire network yet opened a port"
                    );
                }
            }
        }
    }

    fn choose_peer_port(
        &mut self,
        view: PortView<'_>,
        _src: NodeIndex,
        _src_port: Port,
        peer: NodeIndex,
        _rng: &mut SmallRng,
    ) -> Port {
        // Lowest free port: keeps the adversary fully deterministic.
        (0..view.n() - 1)
            .map(Port)
            .find(|&p| !view.is_port_assigned(peer, p))
            .expect("an unconnected peer always has a free port")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clique_model::ports::PortMap;
    use clique_model::rng::rng_from_seed;

    #[test]
    fn keeps_early_traffic_in_tiny_blocks() {
        let n = 16;
        let (mut adv, probe) = ComponentAdversary::new(n, 2.0);
        let mut map = PortMap::new(n).unwrap();
        let mut rng = rng_from_seed(0);
        assert_eq!(probe.block_count(), n);
        assert_eq!(probe.max_block_size(), 1);

        // Node 0 opens its first port: its singleton block must merge
        // (factor 2^{1+1} = 4) and the peer must come from inside.
        let d = map
            .resolve(NodeIndex(0), Port(0), &mut adv, &mut rng)
            .unwrap();
        assert!(probe.same_block(NodeIndex(0), d.node));
        assert_eq!(probe.merge_events(), 1);
        assert_eq!(probe.max_block_size(), 4);
        assert_eq!(probe.block_count(), n - 3);
        map.validate().unwrap();
    }

    #[test]
    fn merge_factor_matches_equation_3() {
        // f = 2 → t = 2 → merge 4 blocks; f = 8 → t = 4 → merge 16.
        let (_, probe2) = ComponentAdversary::new(64, 2.0);
        let (_, probe8) = ComponentAdversary::new(64, 8.0);
        assert_eq!(probe2.block_sizes().len(), 64);
        assert_eq!(probe8.block_sizes().len(), 64);
        let (mut adv, probe) = ComponentAdversary::new(64, 8.0);
        let mut map = PortMap::new(64).unwrap();
        let mut rng = rng_from_seed(0);
        map.resolve(NodeIndex(5), Port(0), &mut adv, &mut rng)
            .unwrap();
        assert_eq!(probe.max_block_size(), 16);
    }

    #[test]
    fn all_resolutions_stay_within_blocks() {
        let n = 32;
        let (mut adv, probe) = ComponentAdversary::new(n, 2.0);
        let mut map = PortMap::new(n).unwrap();
        let mut rng = rng_from_seed(1);
        // Every node opens three ports; every link must be intra-block.
        for u in 0..n {
            for p in 0..3 {
                let d = map
                    .resolve(NodeIndex(u), Port(p), &mut adv, &mut rng)
                    .unwrap();
                assert!(
                    probe.same_block(NodeIndex(u), d.node),
                    "link {u} -> {} escaped its block",
                    d.node
                );
            }
        }
        map.validate().unwrap();
        // Growth stayed far from the full network.
        assert!(probe.max_block_size() <= 16, "{}", probe.max_block_size());
    }

    #[test]
    fn saturation_forces_full_connection_eventually() {
        // Resolving every port of every node must still succeed (the
        // adversary ends with one block spanning the clique).
        let n = 8;
        let (mut adv, probe) = ComponentAdversary::new(n, 2.0);
        let mut map = PortMap::new(n).unwrap();
        let mut rng = rng_from_seed(2);
        for u in 0..n {
            for p in 0..n - 1 {
                map.resolve(NodeIndex(u), Port(p), &mut adv, &mut rng)
                    .unwrap();
            }
        }
        map.validate().unwrap();
        assert_eq!(map.link_count(), n * (n - 1) / 2);
        assert_eq!(probe.block_count(), 1);
        assert_eq!(probe.max_block_size(), n);
    }

    #[test]
    fn adversary_is_deterministic() {
        let run = || {
            let n = 24;
            let (mut adv, probe) = ComponentAdversary::new(n, 4.0);
            let mut map = PortMap::new(n).unwrap();
            let mut rng = rng_from_seed(9);
            let mut dests = Vec::new();
            for u in 0..n {
                for p in 0..2 {
                    dests.push(
                        map.resolve(NodeIndex(u), Port(p), &mut adv, &mut rng)
                            .unwrap(),
                    );
                }
            }
            (dests, probe.block_sizes(), probe.merge_events())
        };
        assert_eq!(run(), run());
    }

    #[test]
    #[should_panic(expected = "f > 1")]
    fn rejects_unit_budget() {
        let _ = ComponentAdversary::new(8, 1.0);
    }
}

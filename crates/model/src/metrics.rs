//! Message accounting.
//!
//! The paper's central quantity is *message complexity*: the total number of
//! point-to-point messages sent during an execution (including replies and
//! acknowledgements). [`MessageStats`] tracks totals plus per-round and
//! per-node histograms so experiments can report the fine structure (e.g.
//! round-2 dominance in Theorem 4.1, per-level costs in Section 5.4).

use crate::NodeIndex;

/// Fault-and-overhead accounting of an execution under a faulty network
/// layer: how many distinct application payloads were handed to the
/// network (`payloads`), how many of them actually reached a live node
/// (`goodput`), and where the difference went (queue overflow, in-transit
/// loss, crashed receivers, exhausted retry budgets). The retransmission
/// and acknowledgement counters measure the *overhead* a reliability layer
/// paid to keep goodput up — the central goodput-vs-overhead tradeoff the
/// congestion experiments report.
///
/// All counters stay zero on a fault-free engine (synchronous runs, and
/// asynchronous runs without a network configuration), so existing
/// fingerprints are unaffected.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultCounters {
    /// Distinct application payloads handed to the network layer.
    pub payloads: u64,
    /// Payloads delivered to a live (non-crashed) node, first copy only.
    pub goodput: u64,
    /// Data retransmissions performed by the reliability layer.
    pub retransmits: u64,
    /// Acknowledgements sent by the reliability layer.
    pub acks: u64,
    /// Transmission attempts dropped at a full link queue (drop-tail).
    pub queue_drops: u64,
    /// Transmission attempts destroyed in transit (probabilistic,
    /// targeted, or adversary-induced loss).
    pub loss_drops: u64,
    /// Deliveries swallowed because the receiving node had crashed.
    pub crash_drops: u64,
    /// Duplicate data copies discarded by the receiver's sequence check.
    pub duplicates: u64,
    /// Payloads abandoned after the retransmission budget ran out.
    pub abandoned: u64,
    /// Payloads that are permanently lost: abandoned after the retry
    /// budget, or (without a reliability layer) dropped/crashed-swallowed
    /// with no retransmission coming. Drives the fault-livelock halt.
    pub lost_payloads: u64,
}

impl FaultCounters {
    /// Total reliability-layer overhead messages (retransmits + acks).
    pub fn overhead(&self) -> u64 {
        self.retransmits + self.acks
    }

    /// Total dropped transmission attempts, over every drop cause.
    pub fn drops(&self) -> u64 {
        self.queue_drops + self.loss_drops + self.crash_drops
    }
}

/// Message counters for one execution.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MessageStats {
    total: u64,
    per_round: Vec<u64>,
    per_node: Vec<u64>,
    /// Fault/overhead accounting (all-zero without a faulty network layer).
    pub faults: FaultCounters,
}

impl MessageStats {
    /// Creates counters for an `n`-node network.
    pub fn new(n: usize) -> Self {
        MessageStats {
            total: 0,
            per_round: Vec::new(),
            per_node: vec![0; n],
            faults: FaultCounters::default(),
        }
    }

    /// Records one message sent by `src` in `round` (1-based; asynchronous
    /// engines may pass a coarse time bucket).
    pub fn record(&mut self, round: usize, src: NodeIndex) {
        self.total += 1;
        if self.per_round.len() < round {
            self.per_round.resize(round, 0);
        }
        if round > 0 {
            self.per_round[round - 1] += 1;
        }
        if let Some(slot) = self.per_node.get_mut(src.0) {
            *slot += 1;
        }
    }

    /// Total messages sent.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Messages sent in `round` (1-based); 0 for rounds never reached.
    pub fn in_round(&self, round: usize) -> u64 {
        if round == 0 {
            return 0;
        }
        self.per_round.get(round - 1).copied().unwrap_or(0)
    }

    /// Messages sent by `node`.
    pub fn by_node(&self, node: NodeIndex) -> u64 {
        self.per_node.get(node.0).copied().unwrap_or(0)
    }

    /// Highest round in which a message was sent (0 if none).
    pub fn last_active_round(&self) -> usize {
        self.per_round
            .iter()
            .rposition(|&c| c > 0)
            .map_or(0, |i| i + 1)
    }

    /// Per-round totals as a slice (index 0 = round 1).
    pub fn rounds(&self) -> &[u64] {
        &self.per_round
    }

    /// The maximum number of messages any single node sent.
    pub fn max_by_any_node(&self) -> u64 {
        self.per_node.iter().copied().max().unwrap_or(0)
    }
}

impl std::fmt::Display for MessageStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} messages over {} active rounds",
            self.total,
            self.last_active_round()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_accumulate() {
        let mut s = MessageStats::new(4);
        s.record(1, NodeIndex(0));
        s.record(1, NodeIndex(1));
        s.record(3, NodeIndex(0));
        assert_eq!(s.total(), 3);
        assert_eq!(s.in_round(1), 2);
        assert_eq!(s.in_round(2), 0);
        assert_eq!(s.in_round(3), 1);
        assert_eq!(s.by_node(NodeIndex(0)), 2);
        assert_eq!(s.last_active_round(), 3);
        assert_eq!(s.max_by_any_node(), 2);
    }

    #[test]
    fn empty_stats() {
        let s = MessageStats::new(2);
        assert_eq!(s.total(), 0);
        assert_eq!(s.last_active_round(), 0);
        assert_eq!(s.in_round(0), 0);
        assert_eq!(s.in_round(5), 0);
        assert_eq!(s.to_string(), "0 messages over 0 active rounds");
    }

    #[test]
    fn out_of_range_node_is_ignored_in_histogram_but_counted() {
        let mut s = MessageStats::new(1);
        s.record(1, NodeIndex(10));
        assert_eq!(s.total(), 1);
        assert_eq!(s.by_node(NodeIndex(10)), 0);
    }
}

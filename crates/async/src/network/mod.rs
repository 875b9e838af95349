//! The faulty network layer: link capacity, bounded queues, message loss,
//! crash faults, and a protocol-transparent reliability protocol.
//!
//! The base asynchronous engine delivers every message exactly once at an
//! adversary-chosen delay. Real cliques are harsher: links have finite
//! bandwidth (a message occupies its directed link for `1/rate` time
//! units), queues build up behind slow links and drop on overflow
//! (drop-tail), messages are destroyed in transit, and nodes crash
//! mid-protocol. This module models all four, plus the machinery real
//! systems use to survive them — a per-link stop-and-wait reliability
//! protocol (sequence numbers, delivery acks, timeout retransmission with
//! exponential backoff and a retry budget) that algorithms never see.
//!
//! Everything is **off by default**: on [`NetworkConfig::default`]
//! (infinite rate, unbounded queues, zero loss, no reliability layer,
//! empty fault plan) a message takes the same wire path as on any other
//! network, with every fault step off — no admission, no loss coin, no
//! adversarial loss, no crash directive — so all existing executions stay
//! byte-identical and the fault counters stay zero. Configure faults through
//! [`AsyncSimBuilder::network`](crate::AsyncSimBuilder::network).
//!
//! Per-link network state — the capacity model's busy horizons, the
//! FIFO floors and the reliability protocol's entries — is indexed by the
//! port map's link id ([`PortMap::link_id`]), one slot per direction, so
//! it takes one entry per link used and no hashing on any backend.
//!
//! [`PortMap::link_id`]: clique_model::ports::PortMap::link_id
//!
//! Fault injection composes with the [`Adversary`](crate::Adversary)
//! tiers: an adaptive adversary can destroy chosen transmission attempts
//! ([`Adversary::induces_loss`](crate::Adversary::induces_loss)) and crash
//! the current top sender
//! ([`Adversary::crash_directive`](crate::Adversary::crash_directive)),
//! both Transcript-driven and both replayable byte-identically through
//! [`Recorder`](crate::Recorder) /
//! [`RecordedSchedule`](crate::RecordedSchedule).

pub(crate) mod reliability;

use clique_model::NodeIndex;

/// The direction of `src → dst` on their link: 0 sending from the lower
/// node index, 1 from the higher. Per-link tables keep one `[T; 2]` entry
/// per port-map link id, so a link's two directions share an entry.
#[inline]
pub(crate) fn link_dir(src: u32, dst: u32) -> usize {
    usize::from(src > dst)
}

/// Link `link`'s entry in a link-indexed table, growing the table with
/// `empty` entries up to it. Link ids run `0..link_count()`, so a table
/// holds one entry per link the trial has used.
#[inline]
pub(crate) fn link_entry<T: Copy>(table: &mut Vec<[T; 2]>, link: u32, empty: T) -> &mut [T; 2] {
    let i = link as usize;
    if i >= table.len() {
        table.resize(i + 1, [empty; 2]);
    }
    &mut table[i]
}

/// Configuration of the per-link stop-and-wait reliability protocol.
///
/// Each directed link carries at most one unacknowledged data message;
/// later sends on the link wait in a backlog. Every transmission arms a
/// retransmission timer; if no ack arrives, the payload is retransmitted
/// with exponentially backed-off timeouts until `budget` retransmissions
/// have been spent, after which it is *abandoned* (counted in
/// [`FaultCounters::abandoned`](clique_model::metrics::FaultCounters) and
/// surfaced as [`AsyncHaltReason::FaultLivelock`](crate::AsyncHaltReason)
/// when the run quiesces).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Reliability {
    /// Initial retransmission timeout, in time units. The default (2.5)
    /// exceeds the worst-case uncongested round trip (delay ≤ 1 each
    /// way), so a fault-free reliable run never retransmits spuriously.
    pub rto: f64,
    /// Multiplicative backoff applied to the timeout per retransmission
    /// (≥ 1).
    pub backoff: f64,
    /// Maximum retransmissions per payload before it is abandoned.
    pub budget: u32,
}

impl Default for Reliability {
    fn default() -> Self {
        Reliability {
            rto: 2.5,
            backoff: 2.0,
            budget: 6,
        }
    }
}

impl Reliability {
    /// Timeout armed after the `attempts`-th transmission (1-based):
    /// `rto · backoff^(attempts-1)`.
    pub(crate) fn timeout_after(&self, attempts: u32) -> f64 {
        self.rto * self.backoff.powi(attempts.saturating_sub(1) as i32)
    }

    fn assert_valid(&self) {
        assert!(
            self.rto > 0.0 && self.rto.is_finite(),
            "reliability rto must be positive and finite, got {}",
            self.rto
        );
        assert!(
            self.backoff >= 1.0 && self.backoff.is_finite(),
            "reliability backoff must be >= 1 and finite, got {}",
            self.backoff
        );
    }
}

/// One scheduled crash: `node` halts at time `at` — it silently stops
/// sending, acking, and processing (deliveries to it are swallowed) — and
/// optionally recovers at `recover_at`, resuming with its pre-crash state
/// and re-armed retransmission timers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CrashFault {
    /// The node that crashes.
    pub node: NodeIndex,
    /// Crash time (≥ 0).
    pub at: f64,
    /// Optional recovery time (> `at`); `None` means the crash is
    /// permanent.
    pub recover_at: Option<f64>,
}

/// Uniformly random permanent crashes: `⌊frac · n⌉` distinct victims are
/// drawn from the engine's dedicated fault stream, each with a crash time
/// uniform in `(0, window]`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RandomCrash {
    /// Fraction of the network to crash, in `[0, 1)`.
    pub frac: f64,
    /// Crash times are uniform in `(0, window]`.
    pub window: f64,
}

/// The fault schedule of an execution: explicitly scheduled crashes,
/// uniformly random crashes, and a budget of *adaptive* crashes the
/// scheduling adversary may spend via
/// [`Adversary::crash_directive`](crate::Adversary::crash_directive).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    crashes: Vec<CrashFault>,
    random_crashes: Option<RandomCrash>,
    adaptive_crashes: u32,
}

impl FaultPlan {
    /// An empty plan (no faults).
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Schedules a permanent crash of `node` at time `at`.
    ///
    /// # Panics
    ///
    /// Panics unless `at` is finite and ≥ 0.
    pub fn crash(mut self, node: NodeIndex, at: f64) -> Self {
        assert!(
            at >= 0.0 && at.is_finite(),
            "crash time must be finite and non-negative, got {at}"
        );
        self.crashes.push(CrashFault {
            node,
            at,
            recover_at: None,
        });
        self
    }

    /// Schedules a crash of `node` at `at` with recovery at `recover_at`.
    ///
    /// # Panics
    ///
    /// Panics unless `at` is finite and ≥ 0 and `recover_at > at` is
    /// finite.
    pub fn crash_recovering(mut self, node: NodeIndex, at: f64, recover_at: f64) -> Self {
        assert!(
            at >= 0.0 && at.is_finite(),
            "crash time must be finite and non-negative, got {at}"
        );
        assert!(
            recover_at > at && recover_at.is_finite(),
            "recovery time must be finite and after the crash, got {recover_at} (crash at {at})"
        );
        self.crashes.push(CrashFault {
            node,
            at,
            recover_at: Some(recover_at),
        });
        self
    }

    /// Adds uniformly random permanent crashes (see [`RandomCrash`]).
    ///
    /// # Panics
    ///
    /// Panics unless `0 <= frac < 1` and `window` is positive and finite.
    pub fn random_crashes(mut self, frac: f64, window: f64) -> Self {
        assert!(
            (0.0..1.0).contains(&frac),
            "crash fraction must be in [0, 1), got {frac}"
        );
        assert!(
            window > 0.0 && window.is_finite(),
            "crash window must be positive and finite, got {window}"
        );
        self.random_crashes = Some(RandomCrash { frac, window });
        self
    }

    /// Grants the scheduling adversary a budget of `budget` adaptive
    /// crashes, spendable through
    /// [`Adversary::crash_directive`](crate::Adversary::crash_directive).
    pub fn adaptive_crashes(mut self, budget: u32) -> Self {
        self.adaptive_crashes = budget;
        self
    }

    /// Whether the plan schedules or permits no faults at all.
    pub fn is_empty(&self) -> bool {
        self.crashes.is_empty() && self.random_crashes.is_none() && self.adaptive_crashes == 0
    }

    /// The explicitly scheduled crashes, in insertion order.
    pub fn scheduled(&self) -> &[CrashFault] {
        &self.crashes
    }

    /// The random-crash configuration, if any.
    pub fn random(&self) -> Option<RandomCrash> {
        self.random_crashes
    }

    /// The adaptive crash budget.
    pub fn adaptive(&self) -> u32 {
        self.adaptive_crashes
    }
}

/// Full configuration of the faulty network layer. The default is
/// *transparent*: infinite link rate, unbounded queues, zero loss, no
/// reliability protocol, no faults — and reproduces the fault-free
/// engine's executions byte-identically.
#[derive(Debug, Clone, PartialEq)]
pub struct NetworkConfig {
    link_rate: f64,
    queue_cap: usize,
    loss: f64,
    reliability: Option<Reliability>,
    faults: FaultPlan,
}

impl Default for NetworkConfig {
    fn default() -> Self {
        NetworkConfig {
            link_rate: f64::INFINITY,
            queue_cap: usize::MAX,
            loss: 0.0,
            reliability: None,
            faults: FaultPlan::default(),
        }
    }
}

impl NetworkConfig {
    /// The transparent (fault-free, infinite-capacity) configuration.
    pub fn new() -> Self {
        NetworkConfig::default()
    }

    /// Sets the per-directed-link service rate in messages per time unit:
    /// each transmission occupies its link for `1/rate`. `f64::INFINITY`
    /// disables the capacity model.
    ///
    /// # Panics
    ///
    /// Panics unless `rate > 0` (NaN included).
    pub fn link_rate(mut self, rate: f64) -> Self {
        assert!(rate > 0.0, "link rate must be positive, got {rate}");
        self.link_rate = rate;
        self
    }

    /// Bounds the per-link queue: at most `cap` messages may be pending
    /// (in service or queued) on a directed link; further transmission
    /// attempts are dropped on the tail. `usize::MAX` means unbounded.
    ///
    /// # Panics
    ///
    /// Panics when `cap` is 0 (the link could never carry anything).
    pub fn queue_cap(mut self, cap: usize) -> Self {
        assert!(cap >= 1, "queue capacity must be at least 1");
        self.queue_cap = cap;
        self
    }

    /// Sets the probability that any transmission attempt (payload,
    /// retransmission, or ack) is destroyed in transit, drawn
    /// independently per attempt from the engine's fault stream.
    ///
    /// # Panics
    ///
    /// Panics unless `0 <= p < 1` (certain loss would defeat any retry
    /// budget).
    pub fn loss(mut self, p: f64) -> Self {
        assert!(
            (0.0..1.0).contains(&p),
            "loss probability must be in [0, 1), got {p}"
        );
        self.loss = p;
        self
    }

    /// Enables the per-link reliability protocol (see [`Reliability`]).
    ///
    /// # Panics
    ///
    /// Panics when `r`'s timeout or backoff are out of range.
    pub fn reliable(mut self, r: Reliability) -> Self {
        r.assert_valid();
        self.reliability = Some(r);
        self
    }

    /// Disables the reliability protocol (drops become permanent losses).
    pub fn unreliable(mut self) -> Self {
        self.reliability = None;
        self
    }

    /// Installs a fault plan (scheduled / random / adaptive crashes).
    pub fn faults(mut self, plan: FaultPlan) -> Self {
        self.faults = plan;
        self
    }

    /// Whether any feature deviates from the transparent default — when
    /// `false`, the engine keeps its fault counters at zero and never
    /// consults [`Adversary::induces_loss`](crate::Adversary::induces_loss).
    pub fn is_active(&self) -> bool {
        self.link_rate.is_finite()
            || self.queue_cap != usize::MAX
            || self.loss > 0.0
            || self.reliability.is_some()
            || !self.faults.is_empty()
    }

    /// Per-message link occupancy (`1/rate`; 0 when the capacity model is
    /// off).
    pub(crate) fn service(&self) -> f64 {
        if self.link_rate.is_finite() {
            1.0 / self.link_rate
        } else {
            0.0
        }
    }

    /// The queue bound (`usize::MAX` = unbounded).
    pub fn queue_capacity(&self) -> usize {
        self.queue_cap
    }

    /// The uniform per-attempt loss probability.
    pub fn loss_probability(&self) -> f64 {
        self.loss
    }

    /// The reliability protocol configuration, if enabled.
    pub fn reliability(&self) -> Option<Reliability> {
        self.reliability
    }

    /// The fault plan.
    pub fn fault_plan(&self) -> &FaultPlan {
        &self.faults
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_transparent() {
        let cfg = NetworkConfig::default();
        assert!(!cfg.is_active());
        assert_eq!(cfg.service(), 0.0);
        assert_eq!(cfg.queue_capacity(), usize::MAX);
        assert_eq!(cfg.loss_probability(), 0.0);
        assert!(cfg.reliability().is_none());
        assert!(cfg.fault_plan().is_empty());
    }

    #[test]
    fn every_feature_activates_the_config() {
        assert!(NetworkConfig::new().link_rate(8.0).is_active());
        assert!(NetworkConfig::new().queue_cap(4).is_active());
        assert!(NetworkConfig::new().loss(0.1).is_active());
        assert!(NetworkConfig::new()
            .reliable(Reliability::default())
            .is_active());
        assert!(NetworkConfig::new()
            .faults(FaultPlan::new().crash(NodeIndex(0), 1.0))
            .is_active());
        assert!(NetworkConfig::new()
            .faults(FaultPlan::new().adaptive_crashes(1))
            .is_active());
        // Deactivating again: unreliable() undoes reliable().
        assert!(!NetworkConfig::new()
            .reliable(Reliability::default())
            .unreliable()
            .is_active());
    }

    #[test]
    fn service_inverts_the_rate() {
        assert_eq!(NetworkConfig::new().link_rate(4.0).service(), 0.25);
        assert_eq!(NetworkConfig::new().link_rate(f64::INFINITY).service(), 0.0);
    }

    #[test]
    fn reliability_timeouts_back_off_exponentially() {
        let r = Reliability {
            rto: 2.0,
            backoff: 3.0,
            budget: 2,
        };
        assert_eq!(r.timeout_after(1), 2.0);
        assert_eq!(r.timeout_after(2), 6.0);
        assert_eq!(r.timeout_after(3), 18.0);
    }

    #[test]
    fn fault_plan_accumulates() {
        let plan = FaultPlan::new()
            .crash(NodeIndex(3), 0.5)
            .crash_recovering(NodeIndex(1), 1.0, 4.0)
            .random_crashes(0.1, 2.0)
            .adaptive_crashes(2);
        assert!(!plan.is_empty());
        assert_eq!(plan.scheduled().len(), 2);
        assert_eq!(plan.scheduled()[1].recover_at, Some(4.0));
        assert_eq!(plan.random().unwrap().frac, 0.1);
        assert_eq!(plan.adaptive(), 2);
        assert!(FaultPlan::new().is_empty());
    }

    #[test]
    #[should_panic(expected = "loss probability must be in [0, 1)")]
    fn certain_loss_is_rejected() {
        let _ = NetworkConfig::new().loss(1.0);
    }

    #[test]
    #[should_panic(expected = "loss probability must be in [0, 1)")]
    fn nan_loss_is_rejected() {
        let _ = NetworkConfig::new().loss(f64::NAN);
    }

    #[test]
    #[should_panic(expected = "link rate must be positive")]
    fn zero_rate_is_rejected() {
        let _ = NetworkConfig::new().link_rate(0.0);
    }

    #[test]
    #[should_panic(expected = "queue capacity must be at least 1")]
    fn zero_queue_cap_is_rejected() {
        let _ = NetworkConfig::new().queue_cap(0);
    }

    #[test]
    #[should_panic(expected = "recovery time must be finite and after the crash")]
    fn recovery_before_crash_is_rejected() {
        let _ = FaultPlan::new().crash_recovering(NodeIndex(0), 2.0, 1.0);
    }

    #[test]
    #[should_panic(expected = "reliability rto must be positive")]
    fn bad_rto_is_rejected() {
        let _ = NetworkConfig::new().reliable(Reliability {
            rto: 0.0,
            ..Reliability::default()
        });
    }
}

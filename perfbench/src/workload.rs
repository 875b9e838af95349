//! The four workloads, one election at a time: untraced through
//! `run_reusing`, traced through `step()` with every layer wrapped, the
//! output checks, and the port-layer replay.

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use clique_async::{
    AsyncArena, AsyncHaltReason, AsyncNode, AsyncOutcome, AsyncSimBuilder, AsyncWakeSchedule,
    NetworkConfig, Oblivious, Reliability, UniformDelay,
};
use clique_model::metrics::FaultCounters;
use clique_model::rng::rng_from_seed;
use clique_model::trace::BackendCounters;
use clique_model::{
    Id, ModelError, NodeIndex, Port, PortBackend, PortMap, RandomResolver, Topology,
};
use clique_sync::{HaltReason, NullObserver, Outcome, SyncArena, SyncNode, SyncSimBuilder};
use le_bench::Arenas;
use le_bounds::formulas;
use leader_election::asynchronous::tradeoff;
use leader_election::sync::{las_vegas, singular, sublinear_mc};

use crate::probe::{
    NodeProbe, RecordingSink, ReplayResolver, ResolverProbe, Sampler, SinkReport, Tally, Timed,
    TimedAdversary, TimedResolver,
};

/// Algorithm 2's `k` in both asynchronous workloads.
const TRADEOFF_K: usize = 2;
/// `singular` round envelope: `3·D + ROUND_SLACK`.
const ROUND_SLACK: usize = 12;
/// `singular` message envelope: `MSG_FACTOR·m`.
const MSG_FACTOR: u64 = 24;
/// Finite-size slack over `k + 8` for Algorithm 2 at `n > 256`, as in
/// `exp_adversary_stress`.
const TRADEOFF_SLACK: f64 = 3.0;
/// Replayed maps are checked with the `O(n²)` `PortMap::validate` only
/// up to this size.
const VALIDATE_MAX_N: usize = 4096;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// LV and sublinear Monte Carlo on a synchronous clique.
    CliqueSublinear,
    /// `singular` on a ring.
    SingularRing,
    /// Algorithm 2 on a fault-free asynchronous clique.
    AsyncClean,
    /// Algorithm 2 on a congested, lossy network under stop-and-wait ARQ.
    AsyncLossy,
}

impl Workload {
    /// Every workload, in documentation order.
    pub const ALL: [Workload; 4] = [
        Workload::CliqueSublinear,
        Workload::SingularRing,
        Workload::AsyncClean,
        Workload::AsyncLossy,
    ];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::CliqueSublinear => "clique_sublinear",
            Workload::SingularRing => "singular_ring",
            Workload::AsyncClean => "async_clean",
            Workload::AsyncLossy => "async_lossy",
        }
    }

    /// Looks a workload up by its command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The benchmarked size of this workload.
    pub fn spec(self) -> Spec {
        // A clique trial costs 3.5-5 s, but its medians need four measured
        // trials per pass, so its runs outlast the requested length. A
        // lossy trial's time is quantized by whole retry ladders, so its
        // mean needs many distinct trials: two passes, not more.
        let (n, trial_s, passes, min_per_pass) = match self {
            Workload::CliqueSublinear => (65536, 3.5, 2, 5),
            Workload::SingularRing => (4096, 0.55, 5, 3),
            Workload::AsyncClean => (1024, 0.12, 7, 3),
            Workload::AsyncLossy => (1024, 0.27, 2, 3),
        };
        Spec {
            workload: self,
            n,
            trial_s,
            passes,
            min_per_pass,
            backend: PortBackend::Auto,
        }
    }

    /// Whether this workload runs on the synchronous engine.
    pub fn is_sync(self) -> bool {
        matches!(self, Workload::CliqueSublinear | Workload::SingularRing)
    }
}

/// A workload at a given size, and how a run paces its trials.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    /// The workload.
    pub workload: Workload,
    /// Network size.
    pub n: usize,
    /// Seconds of run length per trial, which turns a run length into a
    /// trial count.
    pub trial_s: f64,
    /// Passes an end-to-end run makes over its seed sequence.
    pub passes: usize,
    /// Fewest trials per pass, the set-up trial included.
    pub min_per_pass: u64,
    /// Port-map backend (`Auto` in the benchmark itself).
    pub backend: PortBackend,
}

impl Spec {
    /// Trials per pass of an end-to-end run of about `seconds`, the
    /// set-up trial included. The count is fixed by the run length, never
    /// by measured time, so a seed and a length always name the same
    /// work.
    pub fn trials_per_pass(&self, seconds: f64) -> u64 {
        let slots = seconds / self.trial_s / self.passes as f64;
        (slots.round() as u64).max(self.min_per_pass)
    }

    /// Trials in a traced run of about `seconds`: each runs once untraced
    /// and once traced, and the traced pass costs about three times as
    /// much.
    pub fn traced_trials(&self, seconds: f64) -> u64 {
        ((seconds / (4.0 * self.trial_s)).round() as u64).max(1)
    }

    /// Builds the workload's communication graph.
    pub fn topology(&self) -> Topology {
        match self.workload {
            Workload::SingularRing => Topology::ring(self.n),
            _ => Topology::clique(self.n),
        }
        .expect("workload sizes are valid topologies")
    }

    /// The sweep cell label; trial seeds derive from it, so it carries
    /// the workload seed.
    pub fn label(&self, seed: u64) -> String {
        format!("{} n={} seed={seed}", self.workload.name(), self.n)
    }

    fn sync_builder(&self, topo: &Topology, seed: u64) -> SyncSimBuilder {
        SyncSimBuilder::new(self.n)
            .seed(seed)
            .topology(topo.clone())
            .backend(self.backend)
            .max_rounds(self.max_rounds())
    }

    fn max_rounds(&self) -> usize {
        4 * self.n + 64
    }

    fn async_builder(&self, topo: &Topology, seed: u64) -> AsyncSimBuilder {
        let builder = AsyncSimBuilder::new(self.n)
            .seed(seed)
            .topology(topo.clone())
            .backend(self.backend)
            .wake(AsyncWakeSchedule::single(NodeIndex(0)))
            .max_events(self.max_events());
        match self.network() {
            Some(net) => builder.network(net),
            None => builder,
        }
    }

    fn max_events(&self) -> u64 {
        64 * (self.n as u64) * (self.n as u64) + 4096
    }

    /// `exp_congestion`'s `congested-loss` network on the lossy workload.
    fn network(&self) -> Option<NetworkConfig> {
        (self.workload == Workload::AsyncLossy).then(|| {
            NetworkConfig::new()
                .link_rate(8.0)
                .queue_cap(8)
                .loss(0.05)
                .reliable(Reliability::default())
        })
    }
}

/// One trial: a single election, or on `clique_sublinear` an LV election
/// followed by a sublinear Monte Carlo one on the same seed.
#[derive(Debug, Clone, Default)]
pub struct Trial {
    /// Time in `build_in`.
    pub build_s: f64,
    /// Time in `run_reusing` (untraced) or in the `step()` loop (traced).
    pub run_s: f64,
    /// Messages sent.
    pub msgs: u64,
    /// Simulated rounds (sync) or time units (async).
    pub rounds: f64,
    /// Elections run.
    pub elections: u64,
    /// Elections that missed a unique leader, hit a cap, or errored.
    pub failed: u64,
    /// Hash of every election's (messages, rounds, halt, leader).
    pub fingerprint: u64,
    /// Output checks that failed.
    pub violations: Vec<String>,
    /// Per-layer tallies (traced trials only).
    pub layers: Layers,
}

impl Trial {
    /// Wall time of the trial.
    pub fn secs(&self) -> f64 {
        self.build_s + self.run_s
    }

    fn absorb(&mut self, e: Election) {
        self.build_s += e.build_s;
        self.run_s += e.run_s;
        self.msgs += e.msgs;
        self.rounds += e.rounds;
        self.elections += 1;
        self.failed += u64::from(e.failed);
        self.fingerprint = mix(self.fingerprint, e.fingerprint);
        self.violations.extend(e.violation);
        self.layers.add(&e.layers);
    }
}

/// One election's result.
#[derive(Debug, Default)]
struct Election {
    build_s: f64,
    run_s: f64,
    msgs: u64,
    rounds: f64,
    failed: bool,
    fingerprint: u64,
    violation: Option<String>,
    layers: Layers,
}

/// Layer tallies of traced elections, summed.
#[derive(Debug, Clone, Default)]
pub struct Layers {
    /// Traced elections summed here.
    pub elections: u64,
    /// Nodes per election (for `sync.mail_frac`).
    pub n: u64,
    /// `step()` calls that did work: rounds (sync) or events (async).
    pub steps: u64,
    /// Node-rounds whose inbox was non-empty (sync).
    pub mail_calls: u64,
    /// Time in `into_outcome_reusing`.
    pub reset_s: f64,
    /// Node handlers.
    pub handlers: Tally,
    /// Resolver choices.
    pub choose: Tally,
    /// Adversary delays.
    pub adversary: Tally,
    /// Trace sink calls.
    pub emit: Tally,
    /// Serialized trace bytes.
    pub trace_bytes: u64,
    /// Port resolutions (one per send).
    pub resolves: u64,
    /// Fresh port resolutions (one resolver consultation each).
    pub fresh: u64,
    /// The replay as a whole: map construction, resolves, checks, reset.
    pub replay_s: f64,
    /// The replayed `PortMap::resolve` loop alone.
    pub resolve_s: f64,
    /// `PortMap::reset` of the replayed map.
    pub ports_reset_s: f64,
    /// Resident bytes of the run's port map after the election.
    pub resident_bytes: u64,
    /// Backend counters accrued during the election.
    pub counters: BackendCounters,
    /// The network layer's counters.
    pub faults: FaultCounters,
    /// Events parsed back from the kept JSONL, and the time it took.
    pub parsed_events: u64,
    /// Time in `parse_trace` plus `rollup`.
    pub parse_s: f64,
}

impl Layers {
    /// Adds another election's tallies into these.
    pub fn add(&mut self, o: &Layers) {
        self.elections += o.elections;
        self.n = self.n.max(o.n);
        self.steps += o.steps;
        self.mail_calls += o.mail_calls;
        self.reset_s += o.reset_s;
        self.handlers.add(&o.handlers);
        self.choose.add(&o.choose);
        self.adversary.add(&o.adversary);
        self.emit.add(&o.emit);
        self.trace_bytes += o.trace_bytes;
        self.resolves += o.resolves;
        self.fresh += o.fresh;
        self.replay_s += o.replay_s;
        self.resolve_s += o.resolve_s;
        self.ports_reset_s += o.ports_reset_s;
        self.resident_bytes = self.resident_bytes.max(o.resident_bytes);
        self.counters.memo_hits += o.counters.memo_hits;
        self.counters.memo_misses += o.counters.memo_misses;
        self.counters.table_grows += o.counters.table_grows;
        self.counters.rows_materialized += o.counters.rows_materialized;
        let (f, g) = (&mut self.faults, &o.faults);
        f.payloads += g.payloads;
        f.goodput += g.goodput;
        f.retransmits += g.retransmits;
        f.acks += g.acks;
        f.queue_drops += g.queue_drops;
        f.loss_drops += g.loss_drops;
        f.crash_drops += g.crash_drops;
        f.duplicates += g.duplicates;
        f.abandoned += g.abandoned;
        f.lost_payloads += g.lost_payloads;
        self.parsed_events += o.parsed_events;
        self.parse_s += o.parse_s;
    }
}

/// State a traced pass carries from trial to trial.
#[derive(Debug, Default)]
pub struct Tracing {
    /// Keep and parse back the next election's JSONL trace.
    pub parse_next: bool,
    /// The replay map, recycled between elections exactly as the arena
    /// recycles the run's map, so backend state (chunked rows, touched
    /// pages) matches the run's.
    replay_map: Option<PortMap>,
}

impl Tracing {
    /// A traced pass that parses its first election's trace back.
    pub fn new() -> Tracing {
        Tracing {
            parse_next: true,
            replay_map: None,
        }
    }
}

/// Runs one trial of `spec` on `seed` in `arenas`: untraced through
/// `run_reusing` when `tracing` is `None`, otherwise with every layer
/// wrapped, driven through `step()`, then replayed.
pub fn run_trial(
    spec: &Spec,
    topo: &Topology,
    seed: u64,
    arenas: &mut Arenas,
    mut tracing: Option<&mut Tracing>,
) -> Trial {
    let mut trial = Trial::default();
    let tr = &mut tracing;
    match spec.workload {
        Workload::CliqueSublinear => {
            let cfg = las_vegas::Config::default();
            let (arena, explicit) = (&mut arenas.sync, true);
            trial.absorb(sync_election(
                spec,
                topo,
                seed,
                arena,
                tr.as_deref_mut(),
                explicit,
                |id, _| las_vegas::Node::new(id, cfg),
            ));
            let (arena, explicit) = (&mut arenas.sync, false);
            trial.absorb(sync_election(
                spec,
                topo,
                seed,
                arena,
                tr.as_deref_mut(),
                explicit,
                |_, _| sublinear_mc::Node::new(cfg),
            ));
        }
        Workload::SingularRing => {
            let (arena, explicit) = (&mut arenas.sync, true);
            trial.absorb(sync_election(
                spec,
                topo,
                seed,
                arena,
                tr.as_deref_mut(),
                explicit,
                |id, _| singular::Node::new(id, singular::Config::default()),
            ));
        }
        Workload::AsyncClean | Workload::AsyncLossy => {
            let arena = &mut arenas.asynch;
            trial.absorb(async_election(
                spec,
                topo,
                seed,
                arena,
                tr.as_deref_mut(),
                |_, _| tradeoff::Node::new(tradeoff::Config::new(TRADEOFF_K)),
            ));
        }
    }
    trial
}

fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// FNV-1a step over one 64-bit word.
fn mix(h: u64, x: u64) -> u64 {
    let mut h = if h == 0 { 0xcbf2_9ce4_8422_2325 } else { h };
    for b in x.to_le_bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn fingerprint(msgs: u64, rounds: f64, halt: u64, leader: Option<NodeIndex>) -> u64 {
    let leader = leader.map_or(u64::MAX, |l| l.0 as u64);
    [msgs, rounds.to_bits(), halt, leader]
        .into_iter()
        .fold(0, mix)
}

fn counters_delta(before: BackendCounters, after: BackendCounters) -> BackendCounters {
    BackendCounters {
        memo_hits: after.memo_hits.saturating_sub(before.memo_hits),
        memo_misses: after.memo_misses.saturating_sub(before.memo_misses),
        table_grows: after.table_grows.saturating_sub(before.table_grows),
        rows_materialized: after
            .rows_materialized
            .saturating_sub(before.rows_materialized),
    }
}

/// Everything a traced election hands over besides its outcome.
struct TracedRun {
    build_s: f64,
    drive_s: f64,
    layers: Layers,
    sink: SinkReport,
    choices: Vec<u32>,
    links: usize,
    backend: PortBackend,
}

fn take_report(slot: &Arc<Mutex<Option<SinkReport>>>) -> SinkReport {
    slot.lock()
        .unwrap_or_else(|e| e.into_inner())
        .take()
        .expect("the engine flushes its trace sink when the run ends")
}

/// One synchronous election. `explicit` selects the stricter check:
/// every node must learn the leader (LV, `singular`); otherwise a miss is
/// a Monte Carlo failure, counted but not an error.
fn sync_election<N, F>(
    spec: &Spec,
    topo: &Topology,
    seed: u64,
    arena: &mut SyncArena,
    tracing: Option<&mut Tracing>,
    explicit: bool,
    factory: F,
) -> Election
where
    N: SyncNode,
    N::Message: 'static,
    F: FnMut(Id, usize) -> N,
{
    let builder = spec.sync_builder(topo, seed);
    let Some(tracing) = tracing else {
        return match sync_plain(builder, arena, factory) {
            Ok((build_s, run_s, outcome)) => Election {
                build_s,
                run_s,
                ..check_sync(spec, topo, &outcome, explicit)
            },
            Err(e) => errored(spec, &e),
        };
    };
    let parse = std::mem::take(&mut tracing.parse_next);
    match sync_traced(builder, arena, factory, spec.max_rounds(), parse) {
        Ok((outcome, t)) => {
            let mut e = check_sync(spec, topo, &outcome, explicit);
            finish_traced(spec, topo, &mut e, t, &mut tracing.replay_map);
            e
        }
        Err(e) => errored(spec, &e),
    }
}

fn errored(spec: &Spec, err: &ModelError) -> Election {
    Election {
        failed: true,
        violation: Some(format!("{}: election errored: {err}", spec.workload.name())),
        ..Election::default()
    }
}

fn sync_plain<N, F>(
    builder: SyncSimBuilder,
    arena: &mut SyncArena,
    factory: F,
) -> Result<(f64, f64, Outcome), ModelError>
where
    N: SyncNode,
    N::Message: 'static,
    F: FnMut(Id, usize) -> N,
{
    let t0 = Instant::now();
    let sim = builder.build_in(arena, factory)?;
    let build_s = secs(t0);
    let t1 = Instant::now();
    let outcome = sim.run_reusing(arena)?;
    Ok((build_s, secs(t1), outcome))
}

fn sync_traced<N, F>(
    builder: SyncSimBuilder,
    arena: &mut SyncArena,
    mut factory: F,
    max_rounds: usize,
    keep_jsonl: bool,
) -> Result<(Outcome, TracedRun), ModelError>
where
    N: SyncNode,
    N::Message: 'static,
    F: FnMut(Id, usize) -> N,
{
    let nodes = NodeProbe::shared();
    let resolver = ResolverProbe::shared();
    let slot = Arc::new(Mutex::new(None));
    let t0 = Instant::now();
    let mut sim = builder
        .resolver(Box::new(TimedResolver::new(
            RandomResolver,
            Rc::clone(&resolver),
        )))
        .trace(Box::new(RecordingSink::new(keep_jsonl, Arc::clone(&slot))))
        .build_in(arena, |id, n| Timed::new(factory(id, n), Rc::clone(&nodes)))?;
    let build_s = secs(t0);
    let before = sim.ports().backend_counters();
    // The loop of `SyncSim::run_reusing`, one `step()` at a time.
    let t1 = Instant::now();
    let mut halt = HaltReason::MaxRounds;
    while sim.round() < max_rounds {
        if !sim.step(&mut NullObserver)? {
            halt = HaltReason::Quiescent;
            break;
        }
    }
    let drive_s = secs(t1);
    let ports = sim.ports();
    let mut layers = Layers {
        elections: 1,
        n: ports.n() as u64,
        steps: sim.round() as u64,
        resident_bytes: ports.resident_bytes(),
        counters: counters_delta(before, ports.backend_counters()),
        ..Layers::default()
    };
    let (links, backend) = (ports.link_count(), ports.backend());
    let t2 = Instant::now();
    let outcome = sim.into_outcome_reusing(halt, arena);
    layers.reset_s = secs(t2);
    let nodes = nodes.borrow();
    layers.handlers = nodes.handlers.tally();
    layers.mail_calls = nodes.mail_calls;
    let mut resolver = resolver.borrow_mut();
    layers.choose = resolver.choose.tally();
    let run = TracedRun {
        build_s,
        drive_s,
        layers,
        sink: take_report(&slot),
        choices: std::mem::take(&mut resolver.choices),
        links,
        backend,
    };
    Ok((outcome, run))
}

fn check_sync(spec: &Spec, topo: &Topology, o: &Outcome, explicit: bool) -> Election {
    let name = spec.workload.name();
    let msgs = o.stats.total();
    let valid = if explicit {
        o.validate_explicit()
    } else {
        o.validate_implicit()
    };
    let failed = valid.is_err() || o.halt == HaltReason::MaxRounds;
    let mut violation = match (&valid, explicit) {
        (Err(v), true) => Some(format!("{name}: election failed validation: {v:?}")),
        _ => None,
    };
    if spec.workload == Workload::SingularRing {
        let round_bound = 3 * topo.diameter() + ROUND_SLACK;
        let msg_bound = MSG_FACTOR * topo.m();
        if o.rounds > round_bound || msgs > msg_bound {
            violation = Some(format!(
                "{name}: {} rounds / {msgs} messages exceed 3D + {ROUND_SLACK} = {round_bound} / \
                 {MSG_FACTOR}m = {msg_bound}",
                o.rounds
            ));
        }
    }
    let halt = match o.halt {
        HaltReason::Quiescent => 0,
        HaltReason::MaxRounds => 1,
    };
    Election {
        msgs,
        rounds: o.rounds as f64,
        failed,
        fingerprint: fingerprint(msgs, o.rounds as f64, halt, o.unique_leader()),
        violation,
        ..Election::default()
    }
}

fn async_election<N, F>(
    spec: &Spec,
    topo: &Topology,
    seed: u64,
    arena: &mut AsyncArena,
    tracing: Option<&mut Tracing>,
    factory: F,
) -> Election
where
    N: AsyncNode,
    N::Message: 'static,
    F: FnMut(Id, usize) -> N,
{
    let builder = spec.async_builder(topo, seed);
    let Some(tracing) = tracing else {
        return match async_plain(builder, arena, factory) {
            Ok((build_s, run_s, outcome)) => Election {
                build_s,
                run_s,
                ..check_async(spec, &outcome)
            },
            Err(e) => errored(spec, &e),
        };
    };
    let parse = std::mem::take(&mut tracing.parse_next);
    match async_traced(spec, builder, arena, factory, parse) {
        Ok((outcome, mut t)) => {
            let mut e = check_async(spec, &outcome);
            t.layers.faults = outcome.stats.faults;
            finish_traced(spec, topo, &mut e, t, &mut tracing.replay_map);
            e
        }
        Err(e) => errored(spec, &e),
    }
}

fn async_plain<N, F>(
    builder: AsyncSimBuilder,
    arena: &mut AsyncArena,
    factory: F,
) -> Result<(f64, f64, AsyncOutcome), ModelError>
where
    N: AsyncNode,
    N::Message: 'static,
    F: FnMut(Id, usize) -> N,
{
    let t0 = Instant::now();
    let sim = builder.build_in(arena, factory)?;
    let build_s = secs(t0);
    let t1 = Instant::now();
    let outcome = sim.run_reusing(arena)?;
    Ok((build_s, secs(t1), outcome))
}

fn async_traced<N, F>(
    spec: &Spec,
    builder: AsyncSimBuilder,
    arena: &mut AsyncArena,
    mut factory: F,
    keep_jsonl: bool,
) -> Result<(AsyncOutcome, TracedRun), ModelError>
where
    N: AsyncNode,
    N::Message: 'static,
    F: FnMut(Id, usize) -> N,
{
    let nodes = NodeProbe::shared();
    let resolver = ResolverProbe::shared();
    let adversary = Rc::new(RefCell::new(Sampler::new(0xBF58_476D_1CE4_E5B9)));
    let slot = Arc::new(Mutex::new(None));
    let t0 = Instant::now();
    let mut sim = builder
        .resolver(Box::new(TimedResolver::new(
            RandomResolver,
            Rc::clone(&resolver),
        )))
        .adversary(Box::new(TimedAdversary::new(
            Box::new(Oblivious::new(UniformDelay::full())),
            Rc::clone(&adversary),
        )))
        .trace(Box::new(RecordingSink::new(keep_jsonl, Arc::clone(&slot))))
        .build_in(arena, |id, n| Timed::new(factory(id, n), Rc::clone(&nodes)))?;
    let build_s = secs(t0);
    let before = sim.ports().backend_counters();
    // The loop of `AsyncSim::run_reusing`, one `step()` at a time. The
    // engine checks its event cap before each pop; from outside, a run
    // that reaches the cap takes one more step to tell a drained queue
    // from a capped one.
    let cap = spec.max_events();
    let t1 = Instant::now();
    let mut events = 0u64;
    let mut capped = false;
    while sim.step()? {
        events += 1;
        if events >= cap {
            capped = sim.step()?;
            break;
        }
    }
    let drive_s = secs(t1);
    let halt = if capped {
        AsyncHaltReason::MaxEvents
    } else if spec.network().is_some() && sim.stats().faults.lost_payloads > 0 {
        // No workload schedules crashes, so a lost payload is the only
        // way to a fault livelock.
        AsyncHaltReason::FaultLivelock
    } else {
        AsyncHaltReason::QueueDrained
    };
    let ports = sim.ports();
    let mut layers = Layers {
        elections: 1,
        n: ports.n() as u64,
        steps: events,
        resident_bytes: ports.resident_bytes(),
        counters: counters_delta(before, ports.backend_counters()),
        ..Layers::default()
    };
    let (links, backend) = (ports.link_count(), ports.backend());
    let t2 = Instant::now();
    let outcome = sim.into_outcome_reusing(halt, arena);
    layers.reset_s = secs(t2);
    layers.handlers = nodes.borrow().handlers.tally();
    layers.adversary = adversary.borrow().tally();
    let mut resolver = resolver.borrow_mut();
    layers.choose = resolver.choose.tally();
    let run = TracedRun {
        build_s,
        drive_s,
        layers,
        sink: take_report(&slot),
        choices: std::mem::take(&mut resolver.choices),
        links,
        backend,
    };
    Ok((outcome, run))
}

fn check_async(spec: &Spec, o: &AsyncOutcome) -> Election {
    let name = spec.workload.name();
    let msgs = o.stats.total();
    let elected = match spec.workload {
        Workload::AsyncLossy => o.elects_despite_faults(),
        _ => o.validate_implicit().is_ok(),
    };
    let failed = !elected || o.halt == AsyncHaltReason::MaxEvents;
    let mut violation = None;
    if spec.workload == Workload::AsyncClean {
        // The Theorem 5.1 envelope covers successful elections; the rare
        // whp failures are counted, as in `exp_adversary_stress`.
        let bound = formulas::thm51_time_upper_bound(TRADEOFF_K) + TRADEOFF_SLACK;
        if elected && o.time > bound {
            violation = Some(format!(
                "{name}: time {} exceeds k + 8 + {TRADEOFF_SLACK} = {bound}",
                o.time
            ));
        }
    }
    if o.halt == AsyncHaltReason::MaxEvents {
        violation = Some(format!("{name}: the run hit the event cap"));
    }
    if o.stats.faults.lost_payloads > 0 && o.halt != AsyncHaltReason::FaultLivelock {
        violation = Some(format!(
            "{name}: payloads were lost without a FaultLivelock halt"
        ));
    }
    let halt = match o.halt {
        AsyncHaltReason::QueueDrained => 0,
        AsyncHaltReason::MaxEvents => 1,
        AsyncHaltReason::FaultLivelock => 2,
    };
    Election {
        msgs,
        rounds: o.time,
        failed,
        fingerprint: fingerprint(msgs, o.time, halt, o.unique_leader()),
        violation,
        ..Election::default()
    }
}

/// Replays the traced run's ports and parses its JSONL, then folds the
/// layer tallies into the election.
fn finish_traced(
    spec: &Spec,
    topo: &Topology,
    e: &mut Election,
    t: TracedRun,
    replay_map: &mut Option<PortMap>,
) {
    let name = spec.workload.name();
    e.build_s = t.build_s;
    e.run_s = t.drive_s;
    let mut layers = t.layers;
    layers.emit = t.sink.emit;
    layers.trace_bytes = t.sink.bytes;
    layers.resolves = t.sink.sends.len() as u64;
    layers.fresh = t.choices.len() as u64 / 2;
    let t0 = Instant::now();
    let validate = spec.n <= VALIDATE_MAX_N;
    match replay(
        replay_map,
        topo,
        t.backend,
        &t.sink.sends,
        t.choices,
        validate,
    ) {
        Ok(r) => {
            layers.resolve_s = r.resolve_s;
            layers.ports_reset_s = r.reset_s;
            if r.links != t.links {
                e.violation = Some(format!(
                    "{name}: replayed map holds {} links, the run's {}",
                    r.links, t.links
                ));
            }
        }
        Err(err) => e.violation = Some(format!("{name}: port replay failed: {err}")),
    }
    layers.replay_s = secs(t0);
    if let Some(jsonl) = t.sink.jsonl {
        let t1 = Instant::now();
        match le_analysis::trace::parse_trace(&jsonl) {
            Ok(events) => {
                let rollup = le_analysis::trace::rollup(&events);
                layers.parse_s = secs(t1);
                layers.parsed_events = rollup.events;
                if rollup.sends != layers.resolves || rollup.halts != 1 {
                    e.violation = Some(format!(
                        "{name}: parsed trace has {} sends and {} halts, the run {} and 1",
                        rollup.sends, rollup.halts, layers.resolves
                    ));
                }
            }
            Err(err) => e.violation = Some(format!("{name}: trace does not parse: {err}")),
        }
    }
    e.layers = layers;
}

/// What replaying a run's sends gave.
pub struct Replay {
    /// The `PortMap::resolve` loop.
    pub resolve_s: f64,
    /// `PortMap::reset` afterwards.
    pub reset_s: f64,
    /// Links fixed by the replay.
    pub links: usize,
}

/// Replays `sends` through `PortMap::resolve` on the map in `slot` (a new
/// one over `topo` and `backend` if it is empty), answering every fresh
/// port from `choices`; the map must consume every choice. It is reset
/// and left in `slot` for the next replay, as an arena leaves its map for
/// the next trial. When `validate`, the sends are also replayed into a
/// fresh map, which must pass `PortMap::validate` with the same link
/// count. (A recycled chunked map can fail `validate` on its own: its
/// materialized rows outlive `reset`.)
pub fn replay(
    slot: &mut Option<PortMap>,
    topo: &Topology,
    backend: PortBackend,
    sends: &[(u32, u32)],
    choices: Vec<u32>,
    validate: bool,
) -> Result<Replay, String> {
    let fresh = || PortMap::for_topology(topo, backend).map_err(|e| e.to_string());
    let validated_links = if validate {
        let mut map = fresh()?;
        resolve_all(&mut map, sends, choices.clone())?;
        map.validate().map_err(|e| e.to_string())?;
        Some(map.link_count())
    } else {
        None
    };
    let mut map = match slot.take() {
        Some(map) => map,
        None => fresh()?,
    };
    let resolve_s = resolve_all(&mut map, sends, choices)?;
    let links = map.link_count();
    if validated_links.is_some_and(|v| v != links) {
        return Err(format!(
            "a fresh map holds {} links, the recycled one {links}",
            validated_links.unwrap_or_default()
        ));
    }
    let t1 = Instant::now();
    map.reset();
    let reset_s = secs(t1);
    *slot = Some(map);
    Ok(Replay {
        resolve_s,
        reset_s,
        links,
    })
}

/// Resolves every send in order; returns the time the loop took.
fn resolve_all(map: &mut PortMap, sends: &[(u32, u32)], choices: Vec<u32>) -> Result<f64, String> {
    let mut resolver = ReplayResolver::new(choices);
    // The replay resolver draws nothing; the engine API still wants a
    // stream.
    let mut rng = rng_from_seed(0);
    let t0 = Instant::now();
    for &(src, port) in sends {
        map.resolve(
            NodeIndex(src as usize),
            Port(port as usize),
            &mut resolver,
            &mut rng,
        )
        .map_err(|e| e.to_string())?;
    }
    let resolve_s = secs(t0);
    if !resolver.exhausted() {
        return Err("recorded choices left over".to_string());
    }
    Ok(resolve_s)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A workload shrunk to test size; the clique pins the chunked
    /// backend that `auto` picks at the benchmarked size.
    fn small(workload: Workload) -> Spec {
        let (n, backend) = match workload {
            Workload::CliqueSublinear => (1024, PortBackend::Chunked),
            Workload::SingularRing => (256, PortBackend::Auto),
            _ => (128, PortBackend::Auto),
        };
        Spec {
            workload,
            n,
            trial_s: 0.01,
            passes: 2,
            min_per_pass: 3,
            backend,
        }
    }

    #[test]
    fn traced_runs_reproduce_untraced_outcomes() {
        for w in Workload::ALL {
            let spec = small(w);
            let topo = spec.topology();
            let mut arenas = Arenas::default();
            let mut tracing = Tracing::default();
            for seed in 0..3 {
                let plain = run_trial(&spec, &topo, seed, &mut arenas, None);
                let parse = seed == 0;
                tracing.parse_next = parse;
                let traced = run_trial(&spec, &topo, seed, &mut arenas, Some(&mut tracing));
                assert!(plain.violations.is_empty(), "{w:?}: {:?}", plain.violations);
                assert!(
                    traced.violations.is_empty(),
                    "{w:?}: {:?}",
                    traced.violations
                );
                assert_eq!(plain.fingerprint, traced.fingerprint, "{w:?} seed {seed}");
                assert_eq!(plain.msgs, traced.msgs, "{w:?} seed {seed}");
                let l = &traced.layers;
                assert_eq!(l.resolves, traced.msgs, "{w:?}: one resolve per send");
                assert!(l.fresh > 0 && l.fresh <= l.resolves);
                assert!(l.handlers.calls > 0 && l.steps > 0);
                assert_eq!(l.parsed_events > 0, parse);
            }
        }
    }

    #[test]
    fn replayed_map_validates_with_the_run_link_count() {
        // The transparency test above checks link counts through
        // `finish_traced`; this one drives `replay` directly on the
        // chunked clique so `validate()` runs on the exact backend.
        let spec = small(Workload::CliqueSublinear);
        let topo = spec.topology();
        let mut arenas = Arenas::default();
        let trial = run_trial(&spec, &topo, 7, &mut arenas, Some(&mut Tracing::default()));
        assert!(trial.violations.is_empty(), "{:?}", trial.violations);
        assert!(trial.layers.resolve_s > 0.0);
    }

    #[test]
    fn replay_rejects_a_tampered_record() {
        let topo = Topology::clique(64).unwrap();
        let err = replay(
            &mut None,
            &topo,
            PortBackend::Dense,
            &[(0, 0)],
            vec![],
            true,
        )
        .err()
        .expect("an empty record cannot answer a fresh port");
        assert!(err.contains("out-of-range"), "{err}");
    }

    #[test]
    fn plain_trials_repeat_per_seed() {
        for w in Workload::ALL {
            let spec = small(w);
            let topo = spec.topology();
            let mut arenas = Arenas::default();
            let a = run_trial(&spec, &topo, 3, &mut arenas, None);
            let _ = run_trial(&spec, &topo, 4, &mut arenas, None);
            let b = run_trial(&spec, &topo, 3, &mut arenas, None);
            assert_eq!(a.fingerprint, b.fingerprint, "{w:?}");
        }
    }
}

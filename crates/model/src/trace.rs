//! Structured execution tracing shared by both engines.
//!
//! The paper's claims are statements about the *fine structure* of
//! executions — per-round message dominance (Theorem 4.1), per-class chain
//! depth against the `k + 8` time bound (Theorem 5.1) — and this module is
//! how that structure leaves the engines: typed [`TraceEvent`]s emitted at
//! round/phase boundaries, sends, deliveries, wake-ups, decisions,
//! network-fault actions, and backend storage milestones.
//!
//! # Zero cost when off
//!
//! Every emission site in the engines is guarded by
//! [`Tracer::enabled`] — a load of one `bool` — and constructs nothing
//! when tracing is off. Crucially, the tracer **never draws from any RNG
//! stream and never touches the event schedule**, so an enabled trace
//! observes the *identical* execution the golden fingerprints pin (this is
//! enforced by `tests/determinism.rs`).
//!
//! # Enabling
//!
//! Both engine builders accept an explicit boxed [`TraceSink`], which
//! receives every event class; without one, nothing is traced. Tests and
//! the `exp_trace_audit` bin pass a [`SharedSink`] to inspect events in
//! process. A [`TraceSpec`] parses the `all` / comma-list spelling of a
//! class selection; `le_bench` reads `LE_TRACE` with it and writes the
//! selected classes of a sweep's runs to one merged JSONL file.
//!
//! # Wire format
//!
//! One flat JSON object per line, `"ev"` first. Synchronous events carry
//! `"round"`, asynchronous events carry `"t"` (shortest-roundtrip `f64`
//! formatting, so serialization is deterministic given identical bits).
//! `le_analysis::trace` is the matching parser/validator.

use std::sync::{Arc, Mutex};

use crate::WakeCause;

/// The event classes a trace spec can select.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceClass {
    /// Round boundaries and run termination ([`TraceEvent::Round`],
    /// [`TraceEvent::Halt`]).
    Round,
    /// Message sends ([`TraceEvent::Send`]).
    Send,
    /// Message deliveries ([`TraceEvent::Deliver`]).
    Deliver,
    /// Node wake-ups ([`TraceEvent::Wake`]).
    Wake,
    /// Decision transitions ([`TraceEvent::Decide`]).
    Decide,
    /// Faulty-network actions ([`TraceEvent::Fault`]).
    Fault,
    /// Backend storage milestone counters ([`TraceEvent::Backend`]).
    Backend,
    /// Communication-graph metadata ([`TraceEvent::Topology`]).
    Topology,
}

impl TraceClass {
    /// This class's bit in a [`TraceSpec`] mask.
    #[inline]
    pub fn bit(self) -> u8 {
        match self {
            TraceClass::Round => 1 << 0,
            TraceClass::Send => 1 << 1,
            TraceClass::Deliver => 1 << 2,
            TraceClass::Wake => 1 << 3,
            TraceClass::Decide => 1 << 4,
            TraceClass::Fault => 1 << 5,
            TraceClass::Backend => 1 << 6,
            TraceClass::Topology => 1 << 7,
        }
    }

    /// The spec keyword naming this class.
    pub fn keyword(self) -> &'static str {
        match self {
            TraceClass::Round => "round",
            TraceClass::Send => "send",
            TraceClass::Deliver => "deliver",
            TraceClass::Wake => "wake",
            TraceClass::Decide => "decide",
            TraceClass::Fault => "fault",
            TraceClass::Backend => "backend",
            TraceClass::Topology => "topo",
        }
    }
}

/// Mask covering every event class.
pub const ALL_CLASSES: u8 = 0xff;

/// A parsed trace specification: which event classes to record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceSpec {
    /// Bitwise OR of [`TraceClass::bit`]s.
    pub mask: u8,
}

impl TraceSpec {
    /// Every class enabled.
    pub fn all() -> TraceSpec {
        TraceSpec { mask: ALL_CLASSES }
    }

    /// Parses a spec string: `all` / `1`, or a comma-separated list of
    /// class keywords.
    ///
    /// # Errors
    ///
    /// Returns the offending token if any token is not a known class.
    pub fn parse(spec: &str) -> Result<TraceSpec, String> {
        let spec = spec.trim();
        if spec == "all" || spec == "1" {
            return Ok(TraceSpec::all());
        }
        let mut mask = 0u8;
        for token in spec.split(',') {
            let token = token.trim();
            let class = [
                TraceClass::Round,
                TraceClass::Send,
                TraceClass::Deliver,
                TraceClass::Wake,
                TraceClass::Decide,
                TraceClass::Fault,
                TraceClass::Backend,
                TraceClass::Topology,
            ]
            .into_iter()
            .find(|c| c.keyword() == token)
            .ok_or_else(|| token.to_string())?;
            mask |= class.bit();
        }
        Ok(TraceSpec { mask })
    }
}

/// When in an execution an event happened: a synchronous round number or
/// an asynchronous time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum At {
    /// Synchronous round (rounds start at 1).
    Round(u32),
    /// Asynchronous time in delay units.
    Time(f64),
}

/// A faulty-network action (the PR-8 fault layer's vocabulary).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// A wire transmission destroyed by the loss coin.
    Loss,
    /// A payload dropped on a full bounded queue's tail.
    Queue,
    /// A transmission swallowed by a crashed receiver.
    CrashDrop,
    /// The reliability layer retransmitted a payload.
    Retransmit,
    /// The reliability layer delivered an acknowledgement.
    Ack,
    /// The reliability layer gave up on a payload (budget exhausted).
    Abandon,
    /// A node crashed.
    Crash,
    /// A crashed node recovered.
    Recover,
}

impl FaultKind {
    /// The wire-format name of this fault kind.
    pub fn name(self) -> &'static str {
        match self {
            FaultKind::Loss => "loss",
            FaultKind::Queue => "queue",
            FaultKind::CrashDrop => "crash_drop",
            FaultKind::Retransmit => "retransmit",
            FaultKind::Ack => "ack",
            FaultKind::Abandon => "abandon",
            FaultKind::Crash => "crash",
            FaultKind::Recover => "recover",
        }
    }
}

/// Backend storage milestone counters, snapshot at the end of a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BackendCounters {
    /// Feistel base-permutation memo-cache hits (sparse).
    pub memo_hits: u64,
    /// Feistel base-permutation memo-cache misses (sparse).
    pub memo_misses: u64,
    /// Open-addressing table growths (rehashes) across the store's tables.
    pub table_grows: u64,
    /// Always 0: no store materializes rows any more. Kept so the
    /// `backend` trace event keeps its fields, and because `perfbench/`
    /// builds this struct field by field.
    pub rows_materialized: u64,
}

/// One typed trace event.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceEvent {
    /// A node woke up.
    Wake {
        /// When.
        at: At,
        /// Which node.
        node: u32,
        /// Adversarial or message-triggered.
        cause: WakeCause,
    },
    /// A node sent a message over a port.
    Send {
        /// When.
        at: At,
        /// Sender.
        src: u32,
        /// The sender-side port used.
        port: u32,
        /// Receiver (after lazy port resolution).
        dst: u32,
        /// Message class (asynchronous engine only).
        cls: Option<&'static str>,
    },
    /// A message was delivered.
    Deliver {
        /// When.
        at: At,
        /// Sender.
        src: u32,
        /// Receiver.
        dst: u32,
        /// Message class (asynchronous engine only).
        cls: Option<&'static str>,
    },
    /// A node's decision left `Undecided`.
    Decide {
        /// When.
        at: At,
        /// Which node.
        node: u32,
        /// `true` iff it elected itself leader.
        leader: bool,
    },
    /// A synchronous round ended.
    Round {
        /// The round that just ended.
        round: u32,
        /// Cumulative messages sent so far.
        msgs: u64,
    },
    /// A faulty-network action.
    Fault {
        /// When.
        at: At,
        /// What happened.
        kind: FaultKind,
        /// Source node (or the affected node for crash/recover).
        src: u32,
        /// Destination node (equals `src` for crash/recover).
        dst: u32,
    },
    /// End-of-run backend storage counters.
    Backend {
        /// Backend name (`dense` / `sparse`).
        backend: &'static str,
        /// The counter snapshot.
        counters: BackendCounters,
    },
    /// The run ended.
    Halt {
        /// When.
        at: At,
        /// Total messages sent.
        msgs: u64,
        /// Engine-specific halt reason.
        reason: &'static str,
    },
    /// The communication graph the run executed on, emitted once per run.
    Topology {
        /// Generator name (`clique`, `ring`, `torus`, `regular`, `edges`).
        generator: &'static str,
        /// Number of nodes.
        n: u32,
        /// Number of undirected edges.
        m: u64,
        /// Maximum degree over all nodes.
        maxdeg: u32,
    },
}

impl TraceEvent {
    /// The class this event belongs to (for spec filtering).
    pub fn class(&self) -> TraceClass {
        match self {
            TraceEvent::Wake { .. } => TraceClass::Wake,
            TraceEvent::Send { .. } => TraceClass::Send,
            TraceEvent::Deliver { .. } => TraceClass::Deliver,
            TraceEvent::Decide { .. } => TraceClass::Decide,
            TraceEvent::Round { .. } | TraceEvent::Halt { .. } => TraceClass::Round,
            TraceEvent::Fault { .. } => TraceClass::Fault,
            TraceEvent::Backend { .. } => TraceClass::Backend,
            TraceEvent::Topology { .. } => TraceClass::Topology,
        }
    }

    /// Appends this event as one JSONL line (including the trailing
    /// newline) to `out`.
    pub fn write_jsonl(&self, out: &mut String) {
        use std::fmt::Write;
        let at = |out: &mut String, at: &At| match at {
            At::Round(r) => write!(out, "\"round\":{r}").expect("infallible"),
            At::Time(t) => write!(out, "\"t\":{t:?}").expect("infallible"),
        };
        out.push('{');
        match self {
            TraceEvent::Wake { at: a, node, cause } => {
                out.push_str("\"ev\":\"wake\",");
                at(out, a);
                let cause = match cause {
                    WakeCause::Adversary => "adv",
                    WakeCause::Message => "msg",
                };
                write!(out, ",\"node\":{node},\"cause\":\"{cause}\"").expect("infallible");
            }
            TraceEvent::Send {
                at: a,
                src,
                port,
                dst,
                cls,
            } => {
                out.push_str("\"ev\":\"send\",");
                at(out, a);
                write!(out, ",\"src\":{src},\"port\":{port},\"dst\":{dst}").expect("infallible");
                if let Some(cls) = cls {
                    write!(out, ",\"cls\":\"{cls}\"").expect("infallible");
                }
            }
            TraceEvent::Deliver {
                at: a,
                src,
                dst,
                cls,
            } => {
                out.push_str("\"ev\":\"deliver\",");
                at(out, a);
                write!(out, ",\"src\":{src},\"dst\":{dst}").expect("infallible");
                if let Some(cls) = cls {
                    write!(out, ",\"cls\":\"{cls}\"").expect("infallible");
                }
            }
            TraceEvent::Decide {
                at: a,
                node,
                leader,
            } => {
                out.push_str("\"ev\":\"decide\",");
                at(out, a);
                let d = if *leader { "leader" } else { "nonleader" };
                write!(out, ",\"node\":{node},\"d\":\"{d}\"").expect("infallible");
            }
            TraceEvent::Round { round, msgs } => {
                write!(out, "\"ev\":\"round\",\"round\":{round},\"msgs\":{msgs}")
                    .expect("infallible");
            }
            TraceEvent::Fault {
                at: a,
                kind,
                src,
                dst,
            } => {
                out.push_str("\"ev\":\"fault\",");
                at(out, a);
                write!(
                    out,
                    ",\"kind\":\"{}\",\"src\":{src},\"dst\":{dst}",
                    kind.name()
                )
                .expect("infallible");
            }
            TraceEvent::Backend { backend, counters } => {
                write!(
                    out,
                    "\"ev\":\"backend\",\"backend\":\"{backend}\",\
                     \"memo_hits\":{},\"memo_misses\":{},\"table_grows\":{},\
                     \"rows_materialized\":{}",
                    counters.memo_hits,
                    counters.memo_misses,
                    counters.table_grows,
                    counters.rows_materialized,
                )
                .expect("infallible");
            }
            TraceEvent::Halt {
                at: a,
                msgs,
                reason,
            } => {
                out.push_str("\"ev\":\"halt\",");
                at(out, a);
                write!(out, ",\"msgs\":{msgs},\"reason\":\"{reason}\"").expect("infallible");
            }
            TraceEvent::Topology {
                generator,
                n,
                m,
                maxdeg,
            } => {
                write!(
                    out,
                    "\"ev\":\"topo\",\"gen\":\"{generator}\",\"n\":{n},\"m\":{m},\
                     \"maxdeg\":{maxdeg}",
                )
                .expect("infallible");
            }
        }
        out.push_str("}\n");
    }

    /// This event as one JSONL line (including the trailing newline).
    pub fn to_jsonl(&self) -> String {
        let mut s = String::new();
        self.write_jsonl(&mut s);
        s
    }
}

/// A consumer of trace events.
///
/// Sinks must be `Send`: the sweep runner executes simulations on worker
/// threads.
pub trait TraceSink: Send {
    /// Called once per recorded event, in execution order.
    fn event(&mut self, ev: &TraceEvent);
    /// Called when the producing engine finishes its run.
    fn flush(&mut self) {}
}

/// A cloneable shared recording sink.
///
/// Hand one clone to an engine builder and keep the other: after the run
/// (which consumes the simulation), [`SharedSink::take`] returns every
/// recorded event. This is how `exp_trace_audit` inspects executions
/// in-process.
#[derive(Debug, Clone, Default)]
pub struct SharedSink {
    events: Arc<Mutex<Vec<TraceEvent>>>,
}

impl SharedSink {
    /// An empty shared sink.
    pub fn new() -> SharedSink {
        SharedSink::default()
    }

    /// Takes every event recorded so far, leaving the sink empty.
    pub fn take(&self) -> Vec<TraceEvent> {
        std::mem::take(&mut *self.events.lock().expect("sink poisoned"))
    }
}

impl TraceSink for SharedSink {
    fn event(&mut self, ev: &TraceEvent) {
        self.events.lock().expect("sink poisoned").push(ev.clone());
    }
}

/// The engine-side tracer: a spec mask plus a destination.
///
/// The disabled path is a single `bool` load ([`Tracer::enabled`]); every
/// engine emission site is guarded by it.
pub struct Tracer {
    active: bool,
    mask: u8,
    sink: Option<Box<dyn TraceSink>>,
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tracer")
            .field("active", &self.active)
            .field("mask", &self.mask)
            .finish()
    }
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::off()
    }
}

impl Tracer {
    /// A disabled tracer.
    pub fn off() -> Tracer {
        Tracer {
            active: false,
            mask: 0,
            sink: None,
        }
    }

    /// A tracer feeding an explicit sink, recording the classes in
    /// `mask` (see [`TraceClass::bit`]; [`ALL_CLASSES`] for everything).
    pub fn with_sink(sink: Box<dyn TraceSink>, mask: u8) -> Tracer {
        Tracer {
            active: mask != 0,
            mask,
            sink: Some(sink),
        }
    }

    /// Whether any class is being recorded — the one branch the hot path
    /// pays when tracing is off.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.active
    }

    /// Whether events of `class` are being recorded.
    #[inline]
    pub fn on(&self, class: TraceClass) -> bool {
        self.active && (self.mask & class.bit()) != 0
    }

    /// Records one event (dropped unless its class is enabled).
    pub fn emit(&mut self, ev: TraceEvent) {
        if !self.on(ev.class()) {
            return;
        }
        if let Some(sink) = &mut self.sink {
            sink.event(&ev);
        }
    }

    /// Finishes the trace: flushes the sink. The tracer is disabled
    /// afterwards.
    pub fn finish(&mut self) {
        if let Some(mut sink) = self.sink.take() {
            sink.flush();
        }
        self.active = false;
        self.mask = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_parses_all_and_lists() {
        assert_eq!(TraceSpec::parse("all").unwrap().mask, ALL_CLASSES);
        assert_eq!(TraceSpec::parse("1").unwrap().mask, ALL_CLASSES);
        let s = TraceSpec::parse("send, deliver").unwrap();
        assert_eq!(s.mask, TraceClass::Send.bit() | TraceClass::Deliver.bit());
        assert_eq!(TraceSpec::parse("sending").unwrap_err(), "sending");
    }

    #[test]
    fn jsonl_lines_are_flat_objects() {
        let ev = TraceEvent::Send {
            at: At::Time(0.5),
            src: 1,
            port: 2,
            dst: 3,
            cls: Some("probe"),
        };
        assert_eq!(
            ev.to_jsonl(),
            "{\"ev\":\"send\",\"t\":0.5,\"src\":1,\"port\":2,\"dst\":3,\"cls\":\"probe\"}\n"
        );
        let ev = TraceEvent::Round { round: 3, msgs: 42 };
        assert_eq!(
            ev.to_jsonl(),
            "{\"ev\":\"round\",\"round\":3,\"msgs\":42}\n"
        );
    }

    #[test]
    fn tracer_filters_by_class() {
        let shared = SharedSink::new();
        let mut tracer = Tracer::with_sink(Box::new(shared.clone()), TraceClass::Round.bit());
        tracer.emit(TraceEvent::Round { round: 1, msgs: 0 });
        tracer.emit(TraceEvent::Wake {
            at: At::Round(1),
            node: 0,
            cause: WakeCause::Adversary,
        });
        tracer.finish();
        let evs = shared.take();
        assert_eq!(evs.len(), 1);
        assert!(matches!(evs[0], TraceEvent::Round { .. }));
    }

    #[test]
    fn shared_sink_round_trips_through_a_tracer() {
        let shared = SharedSink::new();
        let mut tracer = Tracer::with_sink(Box::new(shared.clone()), ALL_CLASSES);
        assert!(tracer.enabled());
        let ev = TraceEvent::Halt {
            at: At::Time(2.0),
            msgs: 7,
            reason: "drained",
        };
        tracer.emit(ev.clone());
        tracer.finish();
        assert!(!tracer.enabled());
        assert_eq!(shared.take(), vec![ev]);
    }
}

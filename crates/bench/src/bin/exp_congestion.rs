//! Graceful degradation of the asynchronous algorithms under a faulty
//! network: loss × link capacity × crash faults, with and without the
//! stop-and-wait reliability protocol.
//!
//! The paper's asynchronous bounds (Theorems 5.1 and 5.14) assume a
//! reliable network: every message arrives within one time unit. This
//! experiment re-tests both algorithms when that assumption is chipped
//! away — probabilistic loss, finite link bandwidth with bounded
//! drop-tail queues, scheduled/adaptive crash faults — and measures how
//! the failure modes show up: retransmission overhead, abandoned
//! payloads, fault-induced livelocks, and (crash-aware) election success.
//!
//! Cells where the reliability protocol can fully mask the faults
//! *assert* their recovery envelope (success stays high, time degrades
//! by at most the retransmission timeouts actually needed). Cells beyond
//! any repair — permanent crashes under a protocol that needs every
//! node, or unreliable loss — are reported as degradation rows and
//! assert only the engine-level guarantees: the run quiesces (never
//! MaxEvents) and permanent losses are flagged as `FaultLivelock`,
//! never silently swallowed.

use clique_async::{
    Adversary, AsyncHaltReason, AsyncWakeSchedule, CrashTopSender, FaultPlan, NetworkConfig,
    Oblivious, Reliability, UniformDelay,
};
use clique_model::NodeIndex;
use le_analysis::stats::{success_rate, Summary};
use le_analysis::table::fmt_count;
use le_analysis::Table;
use le_bench::{async_sim, seeds, sweep, SweepRunner};
use le_bounds::formulas;
use leader_election::asynchronous::{afek_gafni, tradeoff};

/// Per-trial network factory (`fn` pointer so tasks can cross threads).
type MakeNet = fn() -> NetworkConfig;
/// Per-trial adversary factory; `None` keeps the default oblivious
/// uniform adversary.
type MakeAdversary = fn() -> Box<dyn Adversary>;

struct Scenario {
    name: &'static str,
    net: MakeNet,
    adversary: Option<MakeAdversary>,
    /// Minimum crash-aware election success rate, asserted when the
    /// reliability protocol should mask the configured faults.
    min_success: Option<f64>,
    /// Degraded-time allowance in units of the worst-case retransmission
    /// *ladder* (the summed stop-and-wait timeouts across a full retry
    /// budget — 157.5 time units under [`Reliability::default`]). The
    /// asserted envelope is `base_bound + ladders × ladder`: loss
    /// stretches executions by whole retry ladders on the critical path,
    /// not by a multiple of the fault-free bound (Afek–Gafni's `O(log n)`
    /// sequential levels can each eat one). Allowances are measured —
    /// see the degradation table in `EXPERIMENTS.md` — with ≥ 25%
    /// headroom over the observed max. `None` for unmaskable-fault rows,
    /// where time is reported but unbounded by theory.
    ladders: Option<f64>,
}

/// Worst-case retransmission ladder of the default reliability policy:
/// the total time stop-and-wait spends before abandoning one payload.
fn retrans_ladder() -> f64 {
    let r = Reliability::default();
    (0..r.budget)
        .map(|a| r.rto * r.backoff.powi(a as i32))
        .sum()
}

/// The fault grid. Loss probabilities are per wire transmission
/// (payloads, retransmissions, and acks alike); `rate 8` means each
/// directed link serves 8 messages per time unit; crash cells fell node 1
/// (never the designated waker, node 0).
fn scenario_grid() -> Vec<Scenario> {
    vec![
        Scenario {
            name: "reliable",
            net: || NetworkConfig::new().reliable(Reliability::default()),
            adversary: None,
            min_success: Some(1.0),
            ladders: Some(0.0),
        },
        Scenario {
            name: "loss-5",
            net: || {
                NetworkConfig::new()
                    .loss(0.05)
                    .reliable(Reliability::default())
            },
            adversary: None,
            min_success: Some(0.9),
            ladders: Some(1.0),
        },
        Scenario {
            name: "loss-20",
            net: || {
                NetworkConfig::new()
                    .loss(0.20)
                    .reliable(Reliability::default())
            },
            adversary: None,
            min_success: Some(0.9),
            ladders: Some(6.0),
        },
        Scenario {
            name: "congested",
            net: || {
                NetworkConfig::new()
                    .link_rate(8.0)
                    .queue_cap(8)
                    .reliable(Reliability::default())
            },
            adversary: None,
            min_success: Some(1.0),
            ladders: Some(0.25),
        },
        Scenario {
            name: "congested-loss",
            net: || {
                NetworkConfig::new()
                    .link_rate(8.0)
                    .queue_cap(8)
                    .loss(0.05)
                    .reliable(Reliability::default())
            },
            adversary: None,
            min_success: Some(0.9),
            ladders: Some(1.25),
        },
        Scenario {
            name: "crash-recover",
            net: || {
                NetworkConfig::new()
                    .reliable(Reliability::default())
                    .faults(FaultPlan::new().crash_recovering(NodeIndex(1), 0.25, 2.5))
            },
            adversary: None,
            min_success: Some(0.9),
            ladders: Some(1.0),
        },
        Scenario {
            name: "crash-perm",
            net: || {
                NetworkConfig::new()
                    .reliable(Reliability::default())
                    .faults(FaultPlan::new().crash(NodeIndex(1), 0.25))
            },
            adversary: None,
            min_success: None,
            ladders: None,
        },
        Scenario {
            name: "crash-top",
            net: || {
                NetworkConfig::new()
                    .reliable(Reliability::default())
                    .faults(FaultPlan::new().adaptive_crashes(1))
            },
            adversary: Some(|| {
                Box::new(CrashTopSender::new(
                    Box::new(Oblivious::new(UniformDelay::full())),
                    8,
                ))
            }),
            min_success: None,
            ladders: None,
        },
        Scenario {
            name: "unreliable-loss-5",
            net: || NetworkConfig::new().loss(0.05),
            adversary: None,
            min_success: None,
            ladders: None,
        },
    ]
}

/// Finite-size slack over `k + 8` for Algorithm 2 (same allowance as
/// `exp_adversary_stress`; see that binary's docs).
fn tradeoff_slack(n: usize) -> f64 {
    if n <= 64 {
        6.0
    } else if n <= 256 {
        4.0
    } else {
        3.0
    }
}

struct CellOutcome {
    msgs: u64,
    goodput: u64,
    retransmits: u64,
    acks: u64,
    drops: u64,
    abandoned: u64,
    duplicates: u64,
    lost: u64,
    crashed: usize,
    time: f64,
    livelock: bool,
    maxed: bool,
    ok: bool,
    resident: u64,
}

fn main() {
    let k = 2usize;
    let ns = sweep(&[64usize, 256], &[64]);
    let seed_list = seeds(if le_bench::quick() { 4 } else { 10 });

    let mut runner = SweepRunner::new(
        "exp_congestion",
        &[
            "algorithm",
            "n",
            "scenario",
            "time_max",
            "time_bound",
            "messages_mean",
            "goodput_mean",
            "retransmits_mean",
            "acks_mean",
            "drops_mean",
            "abandoned_mean",
            "duplicates_mean",
            "crashed_nodes_max",
            "livelock_rate",
            "success_rate",
            "resident_bytes_max",
        ],
    );

    let grid = scenario_grid();
    let mut handles = Vec::new();
    for &n in &ns {
        for sc in &grid {
            let (sc_name, make_net, make_adv, min_success, ladders) =
                (sc.name, sc.net, sc.adversary, sc.min_success, sc.ladders);
            for algo in ["tradeoff(k=2)", "afek_gafni"] {
                let seed_list = seed_list.clone();
                handles.push(runner.task(
                    format!("algo={algo} n={n} scenario={sc_name}"),
                    move |ws| {
                        let runs = ws.cell(
                            format!("algo={algo} n={n} scenario={sc_name}"),
                            &seed_list,
                            |seed, arenas| {
                                let arena = &mut arenas.asynch;
                                let mut builder = async_sim(n).seed(seed).network(make_net());
                                if let Some(make) = make_adv {
                                    builder = builder.adversary(make());
                                }
                                let outcome = match algo {
                                    "tradeoff(k=2)" => builder
                                        .wake(AsyncWakeSchedule::single(NodeIndex(0)))
                                        .build_in(arena, |_, _| {
                                            tradeoff::Node::new(tradeoff::Config::new(k))
                                        })
                                        .expect("valid configuration")
                                        .run_reusing(arena)
                                        .expect("in-range adversary delays"),
                                    _ => builder
                                        .wake(AsyncWakeSchedule::simultaneous(n))
                                        .build_in(arena, afek_gafni::Node::new)
                                        .expect("valid configuration")
                                        .run_reusing(arena)
                                        .expect("in-range adversary delays"),
                                };
                                let f = &outcome.stats.faults;
                                CellOutcome {
                                    msgs: outcome.stats.total(),
                                    goodput: f.goodput,
                                    retransmits: f.retransmits,
                                    acks: f.acks,
                                    drops: f.drops(),
                                    abandoned: f.abandoned,
                                    duplicates: f.duplicates,
                                    lost: f.lost_payloads,
                                    crashed: outcome.crashed_count(),
                                    time: outcome.time,
                                    livelock: outcome.halt == AsyncHaltReason::FaultLivelock,
                                    maxed: outcome.halt == AsyncHaltReason::MaxEvents,
                                    ok: outcome.elects_despite_faults(),
                                    resident: arenas.asynch.resident_bytes(),
                                }
                            },
                        );
                        // Engine-level guarantee, every cell: the fault
                        // machinery always quiesces (retry budgets are
                        // finite), so the event cap never fires.
                        assert!(
                            runs.iter().all(|r| !r.maxed),
                            "{algo} under {sc_name} at n = {n}: a trial hit MaxEvents — \
                             the fault layer failed to quiesce"
                        );
                        // Permanent payload loss is never silent: a trial
                        // that lost payloads must be flagged FaultLivelock.
                        assert!(
                            runs.iter().all(|r| r.lost == 0 || r.livelock),
                            "{algo} under {sc_name} at n = {n}: payloads vanished without \
                             a FaultLivelock flag"
                        );
                        let mean = |f: fn(&CellOutcome) -> u64| {
                            Summary::from_counts(&runs.iter().map(f).collect::<Vec<_>>())
                                .expect("non-empty sample")
                                .mean
                        };
                        let msgs = mean(|r| r.msgs);
                        let goodput = mean(|r| r.goodput);
                        let retransmits = mean(|r| r.retransmits);
                        let acks = mean(|r| r.acks);
                        let drops = mean(|r| r.drops);
                        let abandoned = mean(|r| r.abandoned);
                        let duplicates = mean(|r| r.duplicates);
                        let crashed_max = runs.iter().map(|r| r.crashed).max().unwrap_or(0);
                        let resident_max = runs.iter().map(|r| r.resident).max().unwrap_or(0);
                        let livelocks =
                            success_rate(&runs.iter().map(|r| r.livelock).collect::<Vec<_>>());
                        let ok = success_rate(&runs.iter().map(|r| r.ok).collect::<Vec<_>>());
                        let time_max = runs
                            .iter()
                            .filter(|r| r.ok)
                            .map(|r| r.time)
                            .fold(0.0f64, f64::max);
                        let base_bound = match algo {
                            "tradeoff(k=2)" => {
                                formulas::thm51_time_upper_bound(k) + tradeoff_slack(n)
                            }
                            _ => 6.0 * (n as f64).log2() + 8.0,
                        };
                        let bound =
                            ladders.map_or(f64::INFINITY, |l| base_bound + l * retrans_ladder());
                        if let Some(min) = min_success {
                            assert!(
                                ok >= min,
                                "{algo} under {sc_name} at n = {n}: crash-aware success \
                                 {ok:.2} fell below the graceful-degradation floor {min}"
                            );
                        }
                        if ladders.is_some() {
                            assert!(
                                time_max <= bound,
                                "{algo} under {sc_name} at n = {n}: measured {time_max:.2} \
                                 exceeds the degraded envelope {bound:.2}"
                            );
                        }
                        ws.emit(&[
                            algo.to_string(),
                            n.to_string(),
                            sc_name.to_string(),
                            time_max.to_string(),
                            bound.to_string(),
                            msgs.to_string(),
                            goodput.to_string(),
                            retransmits.to_string(),
                            acks.to_string(),
                            drops.to_string(),
                            abandoned.to_string(),
                            duplicates.to_string(),
                            crashed_max.to_string(),
                            livelocks.to_string(),
                            ok.to_string(),
                            resident_max.to_string(),
                        ]);
                        vec![
                            algo.into(),
                            sc_name.into(),
                            format!("{time_max:.2}"),
                            fmt_count(msgs),
                            fmt_count(retransmits),
                            fmt_count(drops),
                            format!("{abandoned:.1}"),
                            crashed_max.to_string(),
                            format!("{:.0}%", livelocks * 100.0),
                            format!("{:.0}%", ok * 100.0),
                        ]
                    },
                ));
            }
        }
    }

    let rows_per_n = grid.len() * 2;
    let mut handles = handles.into_iter();
    for &n in &ns {
        let mut table = Table::new(vec![
            "algorithm",
            "scenario",
            "time (max)",
            "messages",
            "retransmits",
            "drops",
            "abandoned",
            "crashed",
            "livelocks",
            "success",
        ]);
        table.title(format!(
            "Faulty-network degradation, n = {n} ({} seeds)",
            seed_list.len()
        ));
        let mut restored = 0;
        for _ in 0..rows_per_n {
            match runner.wait(handles.next().expect("one handle per row")) {
                Some(row) => {
                    table.add_row(row);
                }
                None => restored += 1,
            }
        }
        println!("{table}");
        if restored > 0 {
            println!("({restored} row(s) restored from a checkpointed run; see the CSV)");
        }
    }
    println!(
        "Graceful-degradation envelopes held: reliability masks loss and \
         congestion (success floors, relaxed time bounds), and every \
         unmaskable fault surfaced as an explicit FaultLivelock — never a \
         silent loss or a MaxEvents hang."
    );
    runner.finish();
}

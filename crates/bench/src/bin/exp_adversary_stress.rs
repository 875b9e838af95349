//! Stress-tests the paper's asynchronous time bounds against the whole
//! adversary grid: both asynchronous algorithms × every adversary
//! capability tier (oblivious, link-static, adaptive) × `n`.
//!
//! The paper claims its asynchronous bounds *for every adversary*
//! (Theorem 5.1: `k + 8` time; Theorem 5.14: `O(log n)` from the last
//! spontaneous wake-up). Each cell therefore *asserts* its theory bound —
//! the binary aborts if any adversary pushes an execution past it:
//!
//! * Algorithm 2 (`k = 2`): measured max time ≤ `k + 8` plus the
//!   finite-size consult-queue slack documented in the algorithm's module
//!   docs (decays as `n` grows; the table prints both terms).
//! * Asynchronized Afek–Gafni: measured max time ≤ `6·log₂ n + 8` (the
//!   per-level constant also used by the crate's unit tests).
//!
//! Expected shape: the adaptive adversaries (rushing, targeted slowdown)
//! and the link-static partition push measured time *towards* the bound
//! compared to the oblivious baseline, but never past it.

use clique_async::{
    Adversary, AsyncWakeSchedule, ConstDelay, MessageClass, Oblivious, PartitionAdversary,
    RushingAdversary, TargetedSlowdown, UniformDelay,
};
use clique_model::NodeIndex;
use le_analysis::stats::{success_rate, Summary};
use le_analysis::table::fmt_count;
use le_analysis::Table;
use le_bench::{async_sim, seeds, sweep, SweepRunner};
use le_bounds::formulas;
use leader_election::asynchronous::{afek_gafni, tradeoff};

/// A per-trial adversary factory (adaptive state must never leak across
/// seeds). A plain `fn` pointer, so tasks can carry it across threads.
type MakeAdversary = fn() -> Box<dyn Adversary>;

/// The adversary grid, one factory per capability-tier representative.
fn adversary_grid() -> Vec<(&'static str, MakeAdversary)> {
    vec![
        ("uniform", || Box::new(Oblivious::new(UniformDelay::full()))),
        ("const-max", || Box::new(Oblivious::new(ConstDelay::max()))),
        ("partition", || Box::new(PartitionAdversary::new(0.1))),
        ("rush-wakeup", || {
            Box::new(RushingAdversary::new(MessageClass::WakeUp))
        }),
        ("rush-reply", || {
            Box::new(RushingAdversary::new(MessageClass::Reply))
        }),
        ("targeted", || Box::new(TargetedSlowdown::new(0.05))),
    ]
}

/// Finite-size slack over `k + 8` for Algorithm 2: consult round-trips
/// queue at referees below the paper-scale crossover (see the algorithm's
/// module docs), stretching the decision phase by the queue depth. The
/// allowance shrinks as `n` grows; the assertion tightens with it.
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
    time: f64,
    ok: bool,
}

fn main() {
    let k = 2usize;
    let ns = sweep(&[64usize, 256, 1024], &[64, 256]);
    let seed_list = seeds(if le_bench::quick() { 4 } else { 10 });

    let mut runner = SweepRunner::new(
        "exp_adversary_stress",
        &[
            "algorithm",
            "n",
            "adversary",
            "capability",
            "time_max",
            "time_bound",
            "messages_mean",
            "success_rate",
        ],
    );

    let grid = adversary_grid();
    let mut handles = Vec::new();
    for &n in &ns {
        for &(adv_name, make) in &grid {
            for algo in ["tradeoff(k=2)", "afek_gafni"] {
                let seed_list = seed_list.clone();
                handles.push(runner.task(
                    format!("algo={algo} n={n} adversary={adv_name}"),
                    move |ws| {
                        let runs = ws.cell(
                            format!("algo={algo} n={n} adversary={adv_name}"),
                            &seed_list,
                            |seed, arenas| {
                                let arena = &mut arenas.asynch;
                                let builder = async_sim(n).seed(seed).adversary(make());
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
                                CellOutcome {
                                    msgs: outcome.stats.total(),
                                    time: outcome.time,
                                    ok: outcome.validate_implicit().is_ok(),
                                }
                            },
                        );
                        let capability = make().capability().to_string();
                        let msgs =
                            Summary::from_counts(&runs.iter().map(|r| r.msgs).collect::<Vec<_>>())
                                .expect("non-empty sample");
                        let ok = success_rate(&runs.iter().map(|r| r.ok).collect::<Vec<_>>());
                        // The time assertion covers successful elections; the rare
                        // whp failure modes of Algorithm 2 (no candidate, disjoint
                        // referee sets) are counted by the success column instead.
                        let time_max = runs
                            .iter()
                            .filter(|r| r.ok)
                            .map(|r| r.time)
                            .fold(0.0f64, f64::max);
                        let bound = match algo {
                            "tradeoff(k=2)" => {
                                formulas::thm51_time_upper_bound(k) + tradeoff_slack(n)
                            }
                            _ => 6.0 * (n as f64).log2() + 8.0,
                        };
                        assert!(
                            time_max <= bound,
                            "{algo} under {adv_name} at n = {n}: measured {time_max:.2} \
                             exceeds the theory bound {bound:.2} — an adversary broke \
                             the paper's time guarantee"
                        );
                        assert!(
                            ok >= 0.75,
                            "{algo} under {adv_name} at n = {n}: success rate {ok} \
                             below the whp envelope"
                        );
                        ws.emit(&[
                            algo.to_string(),
                            n.to_string(),
                            make().name(),
                            capability.clone(),
                            time_max.to_string(),
                            bound.to_string(),
                            msgs.mean.to_string(),
                            ok.to_string(),
                        ]);
                        vec![
                            algo.into(),
                            adv_name.into(),
                            capability,
                            format!("{time_max:.2}"),
                            format!("{bound:.1}"),
                            fmt_count(msgs.mean),
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
            "adversary",
            "tier",
            "time (max)",
            "bound",
            "messages (mean)",
            "success",
        ]);
        table.title(format!(
            "Adversary stress, n = {n} ({} seeds)",
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
        "All cells within their theory bounds (Theorem 5.1: k + 8 + \
         finite-size slack; Theorem 5.14 envelope: 6·log2 n + 8)."
    );
    runner.finish();
}

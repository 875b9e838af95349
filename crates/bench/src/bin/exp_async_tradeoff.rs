//! Reproduces Theorem 5.1: the asynchronous tradeoff algorithm
//! (Algorithm 2) terminates within `k + 8` time units and sends
//! `O(n^{1+1/k})` messages, for every `k` in `[2, O(log n / log log n)]`
//! and under several adversarial delay strategies.
//!
//! Expected shape: measured time under the worst (unit-delay) adversary
//! stays below `k + 8`; the fitted message exponent per `k` tracks
//! `1 + 1/k`; `k = 2` matches the Ω(n^{3/2}) line of Theorem 4.2 and large
//! `k` approaches the `O(n·log n)` of \[14\]-style algorithms.

use clique_async::{AsyncArena, AsyncWakeSchedule, ConstDelay, DelayStrategy, UniformDelay};
use clique_model::NodeIndex;
use le_analysis::regression::fit_power_law;
use le_analysis::stats::{success_rate, Summary};
use le_analysis::table::fmt_count;
use le_analysis::Table;
use le_bench::{async_sim, seeds, sweep, SweepRunner};
use le_bounds::formulas;
use leader_election::asynchronous::tradeoff::{Config, Node};

fn measure(
    n: usize,
    k: usize,
    seed: u64,
    delays: Box<dyn DelayStrategy>,
    arena: &mut AsyncArena,
) -> (u64, f64, bool) {
    let outcome = async_sim(n)
        .seed(seed)
        .wake(AsyncWakeSchedule::single(NodeIndex(0)))
        .delays(delays)
        .build_in(arena, |_, _| Node::new(Config::new(k)))
        .expect("valid configuration")
        .run_reusing(arena)
        .expect("no resolver faults");
    (
        outcome.stats.total(),
        outcome.time,
        outcome.validate_implicit().is_ok(),
    )
}

fn main() {
    let ns = sweep(&[256usize, 1024, 4096, 8192], &[256, 1024]);
    let ks = sweep(&[2usize, 3, 4, 6], &[2, 4]);
    let seed_list = seeds(if le_bench::quick() { 5 } else { 10 });

    let mut runner = SweepRunner::new(
        "exp_async_tradeoff",
        &[
            "n",
            "k",
            "delay",
            "messages_mean",
            "time_max",
            "time_bound",
            "messages_bound",
            "success_rate",
        ],
    );

    let mut handles = Vec::new();
    let mut rows_per_n = Vec::new();
    for &n in &ns {
        let mut rows = 0;
        for &k in &ks {
            if k > Config::max_k(n) {
                continue;
            }
            for delay_name in ["uniform(0,1]", "const(1)"] {
                let seed_list = seed_list.clone();
                handles.push(
                    runner.task(format!("n={n} k={k} delay={delay_name}"), move |ws| {
                        let runs = ws.cell(
                            format!("n={n} k={k} delay={delay_name}"),
                            &seed_list,
                            |s, arenas| {
                                let delays: Box<dyn DelayStrategy> = match delay_name {
                                    "uniform(0,1]" => Box::new(UniformDelay::full()),
                                    _ => Box::new(ConstDelay::max()),
                                };
                                measure(n, k, s, delays, &mut arenas.asynch)
                            },
                        );
                        let msgs =
                            Summary::from_counts(&runs.iter().map(|r| r.0).collect::<Vec<_>>())
                                .expect("non-empty sample");
                        let time_max = runs.iter().map(|r| r.1).fold(0.0f64, f64::max);
                        let ok = success_rate(&runs.iter().map(|r| r.2).collect::<Vec<_>>());
                        let time_bound = formulas::thm51_time_upper_bound(k);
                        let msg_bound = formulas::thm51_message_upper_bound(n, k);
                        ws.emit(&[
                            n.to_string(),
                            k.to_string(),
                            delay_name.into(),
                            msgs.mean.to_string(),
                            time_max.to_string(),
                            time_bound.to_string(),
                            msg_bound.to_string(),
                            ok.to_string(),
                        ]);
                        let row = vec![
                            k.to_string(),
                            delay_name.into(),
                            fmt_count(msgs.mean),
                            format!("{time_max:.2}"),
                            format!("{time_bound:.0}"),
                            fmt_count(msg_bound),
                            format!("{:.0}%", ok * 100.0),
                        ];
                        let fit_point =
                            (delay_name == "uniform(0,1]").then_some((k, n as f64, msgs.mean));
                        (row, fit_point)
                    }),
                );
                rows += 1;
            }
        }
        rows_per_n.push(rows);
    }

    let mut handles = handles.into_iter();
    let mut per_k_points: std::collections::BTreeMap<usize, Vec<(f64, f64)>> =
        std::collections::BTreeMap::new();
    let mut any_restored = false;
    for (&n, &rows) in ns.iter().zip(&rows_per_n) {
        let mut table = Table::new(vec![
            "k",
            "delay adversary",
            "messages (mean)",
            "time (max)",
            "bound k+8",
            "n^{1+1/k}",
            "success",
        ]);
        table.title(format!(
            "Asynchronous tradeoff (Theorem 5.1), n = {n} ({} seeds)",
            seed_list.len()
        ));
        let mut restored = 0;
        for _ in 0..rows {
            match runner.wait(handles.next().expect("one handle per row")) {
                Some((row, fit_point)) => {
                    table.add_row(row);
                    if let Some((k, x, y)) = fit_point {
                        per_k_points.entry(k).or_default().push((x, y));
                    }
                }
                None => restored += 1,
            }
        }
        println!("{table}");
        if restored > 0 {
            any_restored = true;
            println!("({restored} row(s) restored from a checkpointed run; see the CSV)");
        }
    }

    if any_restored {
        println!("(exponent fits skipped — some points restored from a checkpointed run)");
    } else {
        println!("Fitted message exponents (uniform delays):");
        for (k, points) in &per_k_points {
            if points.len() < 2 {
                continue;
            }
            let (xs, ys): (Vec<f64>, Vec<f64>) = points.iter().copied().unzip();
            if let Some(fit) = fit_power_law(&xs, &ys) {
                println!(
                    "  k = {k}: measured {fit} vs theory exponent {:.3}",
                    1.0 + 1.0 / *k as f64
                );
            }
        }
    }
    runner.finish();
}

//! Reproduces Theorems 4.1 and 4.2: the 2-round algorithm under
//! adversarial wake-up succeeds with probability ≥ 1 − ε − 1/n, its
//! message count scales as `n^{3/2}` (matching the Ω(n^{3/2}) lower
//! bound), and the cost is insensitive to *which* set the adversary wakes.

use clique_model::rng::rng_from_seed;
use clique_sync::{SyncArena, WakeSchedule};
use le_analysis::regression::fit_power_law;
use le_analysis::stats::{success_rate, Summary};
use le_analysis::table::fmt_count;
use le_analysis::Table;
use le_bench::{seeds, sweep, sync_sim, SweepRunner};
use le_bounds::formulas;
use leader_election::sync::two_round_adversarial::{Config, Node};

fn measure(
    n: usize,
    eps: f64,
    wake: WakeSchedule,
    seed: u64,
    arena: &mut SyncArena,
) -> (u64, bool) {
    let outcome = sync_sim(n)
        .seed(seed)
        .wake(wake)
        .max_rounds(2)
        .build_in(arena, |_, _| Node::new(Config::new(eps)))
        .expect("valid configuration")
        .run_reusing(arena)
        .expect("no resolver faults");
    (outcome.stats.total(), outcome.validate_implicit().is_ok())
}

fn main() {
    let ns = sweep(&[256usize, 1024, 4096, 16384], &[256, 1024]);
    let seed_list = seeds(if le_bench::quick() { 10 } else { 30 });

    let mut runner = SweepRunner::new(
        "exp_adversarial_2round",
        &[
            "n",
            "epsilon",
            "wake_set",
            "messages_mean",
            "success_rate",
            "guarantee",
            "lb_thm42",
        ],
    );

    // One task per (n, ε, |wake set|). The adversarial wake set is drawn
    // from a per-trial stream (`seed ^ 0xA11CE`) instead of one RNG shared
    // across cells — sharing would couple a cell's draws to how many cells
    // ran before it, breaking thread-count and resume invariance.
    let mut handles = Vec::new();
    for &n in &ns {
        let sqrt_n = (n as f64).sqrt() as usize;
        for &eps in &[0.25f64, 0.0625] {
            for &wake_size in &[1usize, sqrt_n, n] {
                let seed_list = seed_list.clone();
                handles.push(
                    runner.task(format!("n={n} eps={eps} wake={wake_size}"), move |ws| {
                        let runs = ws.cell(
                            format!("n={n} eps={eps} wake={wake_size}"),
                            &seed_list,
                            |s, arenas| {
                                let wake = if wake_size == n {
                                    WakeSchedule::simultaneous(n)
                                } else {
                                    let mut wake_rng = rng_from_seed(s ^ 0xA11CE);
                                    WakeSchedule::random_subset(n, wake_size, &mut wake_rng)
                                };
                                measure(n, eps, wake, s, &mut arenas.sync)
                            },
                        );
                        let msgs =
                            Summary::from_counts(&runs.iter().map(|r| r.0).collect::<Vec<_>>())
                                .expect("non-empty sample");
                        let ok = success_rate(&runs.iter().map(|r| r.1).collect::<Vec<_>>());
                        let guarantee = 1.0 - eps - 1.0 / n as f64;
                        ws.emit(&[
                            n.to_string(),
                            eps.to_string(),
                            wake_size.to_string(),
                            msgs.mean.to_string(),
                            ok.to_string(),
                            guarantee.to_string(),
                            formulas::thm42_message_lower_bound(n).to_string(),
                        ]);
                        let row = vec![
                            format!("{eps}"),
                            wake_size.to_string(),
                            fmt_count(msgs.mean),
                            format!("{:.0}%", ok * 100.0),
                            format!("{:.0}%", guarantee * 100.0),
                            fmt_count(formulas::thm42_message_lower_bound(n)),
                        ];
                        let scale_point =
                            (eps == 0.0625 && wake_size == n).then_some((n as f64, msgs.mean));
                        (row, scale_point)
                    }),
                );
            }
        }
    }

    let mut handles = handles.into_iter();
    let mut scale_points: Vec<(f64, f64)> = Vec::new();
    let mut any_restored = false;
    for &n in &ns {
        let mut table = Table::new(vec![
            "ε",
            "|wake set|",
            "messages (mean)",
            "success",
            "guarantee 1−ε−1/n",
            "Ω(n^{3/2}) line",
        ]);
        table.title(format!(
            "2-round algorithm under adversarial wake-up, n = {n} ({} seeds)",
            seed_list.len()
        ));
        let mut restored = 0;
        for _ in 0..6 {
            match runner.wait(handles.next().expect("one handle per row")) {
                Some((row, scale_point)) => {
                    table.add_row(row);
                    scale_points.extend(scale_point);
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
        println!("(scaling fit skipped — some points restored from a checkpointed run)");
    } else {
        let (xs, ys): (Vec<f64>, Vec<f64>) = scale_points.iter().copied().unzip();
        if let Some(fit) = fit_power_law(&xs, &ys) {
            println!(
                "Message scaling at full wake-up: {fit} — Theorems 4.1/4.2 predict exponent 3/2"
            );
        }
    }
    runner.finish();
}

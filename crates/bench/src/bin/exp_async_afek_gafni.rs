//! Reproduces Theorem 5.14: the asynchronized Afek–Gafni algorithm elects
//! a leader in `O(log n)` asynchronous time with `O(n·log n)` messages
//! under simultaneous wake-up, against adversarial delays — answering (for
//! this regime) the open problem of \[1\].
//!
//! Expected shape: time grows logarithmically in `n` (linear in `log₂ n`),
//! the fitted message exponent stays near 1 (times a log factor), and
//! correctness holds in every run (the algorithm is deterministic given
//! the delays).
//!
//! Under `LE_CRASH` a crashed node cannot decide, so a trial is not
//! validated but counted: the run prints how many trials still elected
//! one leader with every live, awake node decided.

use clique_async::{AsyncArena, AsyncWakeSchedule, ConstDelay, DelayStrategy, UniformDelay};
use le_analysis::regression::{fit_linear, fit_power_law};
use le_analysis::stats::Summary;
use le_analysis::table::fmt_count;
use le_analysis::Table;
use le_bench::{async_sim, seeds, sweep, RunEnv, SweepRunner};
use le_bounds::formulas;
use leader_election::asynchronous::afek_gafni::Node;

/// Whether the run's network ([`RunEnv::network`]) schedules crash faults.
fn crash_faults() -> bool {
    !RunEnv::get().network.fault_plan().is_empty()
}

/// Messages, time, and whether the trial elected despite any crashes.
fn measure(
    n: usize,
    seed: u64,
    delays: Box<dyn DelayStrategy>,
    arena: &mut AsyncArena,
) -> (u64, f64, bool) {
    let outcome = async_sim(n)
        .seed(seed)
        .wake(AsyncWakeSchedule::simultaneous(n))
        .delays(delays)
        .build_in(arena, Node::new)
        .expect("valid configuration")
        .run_reusing(arena)
        .expect("no resolver faults");
    if crash_faults() {
        return (
            outcome.stats.total(),
            outcome.time,
            outcome.elects_despite_faults(),
        );
    }
    outcome
        .validate_implicit()
        .expect("the asynchronized Afek-Gafni algorithm never fails");
    (outcome.stats.total(), outcome.time, true)
}

fn main() {
    let ns = sweep(&[64usize, 256, 1024, 4096], &[64, 256]);
    let seed_list = seeds(if le_bench::quick() { 3 } else { 8 });

    let mut runner = SweepRunner::new(
        "exp_async_afek_gafni",
        &[
            "n",
            "delay",
            "messages_mean",
            "time_mean",
            "n_log_n",
            "log2_n",
        ],
    );

    let mut handles = Vec::new();
    for &n in &ns {
        for delay_name in ["uniform(0,1]", "const(1)"] {
            let seed_list = seed_list.clone();
            handles.push(runner.task(format!("n={n} delay={delay_name}"), move |ws| {
                let runs = ws.cell(
                    format!("n={n} delay={delay_name}"),
                    &seed_list,
                    |s, arenas| {
                        let delays: Box<dyn DelayStrategy> = match delay_name {
                            "uniform(0,1]" => Box::new(UniformDelay::full()),
                            _ => Box::new(ConstDelay::max()),
                        };
                        measure(n, s, delays, &mut arenas.asynch)
                    },
                );
                let msgs = Summary::from_counts(&runs.iter().map(|r| r.0).collect::<Vec<_>>())
                    .expect("non-empty sample");
                let time = Summary::from_sample(&runs.iter().map(|r| r.1).collect::<Vec<_>>())
                    .expect("non-empty sample");
                ws.emit(&[
                    n.to_string(),
                    delay_name.into(),
                    msgs.mean.to_string(),
                    time.mean.to_string(),
                    formulas::thm514_message_upper_bound(n).to_string(),
                    formulas::log2(n).to_string(),
                ]);
                let row = vec![
                    n.to_string(),
                    delay_name.into(),
                    fmt_count(msgs.mean),
                    format!("{:.2}", time.mean),
                    fmt_count(formulas::thm514_message_upper_bound(n)),
                    format!("{:.1}", formulas::log2(n)),
                ];
                let fit_points = (delay_name == "const(1)")
                    .then_some(((n as f64, msgs.mean), (formulas::log2(n), time.mean)));
                let elected = runs.iter().filter(|r| r.2).count();
                (row, fit_points, (elected, runs.len()))
            }));
        }
    }

    let mut table = Table::new(vec![
        "n",
        "delay adversary",
        "messages (mean)",
        "time (mean)",
        "n·log₂n line",
        "log₂n",
    ]);
    table.title(format!(
        "Asynchronized Afek–Gafni (Theorem 5.14), simultaneous wake-up ({} seeds)",
        seed_list.len()
    ));

    let mut msg_points = Vec::new();
    let mut time_points = Vec::new();
    let mut restored = 0;
    let (mut elected, mut trials) = (0, 0);
    for handle in handles {
        match runner.wait(handle) {
            Some((row, fit_points, (cell_elected, cell_trials))) => {
                table.add_row(row);
                elected += cell_elected;
                trials += cell_trials;
                if let Some((msg_point, time_point)) = fit_points {
                    msg_points.push(msg_point);
                    time_points.push(time_point);
                }
            }
            None => restored += 1,
        }
    }
    println!("{table}");
    if crash_faults() {
        println!(
            "Crash faults: {elected} of {trials} trials elected one leader with every live, \
             awake node decided"
        );
    }
    if restored > 0 {
        println!(
            "({restored} row(s) restored from a checkpointed run; see the CSV — fits skipped)"
        );
    } else {
        let (xs, ys): (Vec<f64>, Vec<f64>) = msg_points.iter().copied().unzip();
        if let Some(fit) = fit_power_law(&xs, &ys) {
            println!("Message scaling: {fit} — theory predicts exponent 1 (+log factor)");
        }
        let (xs, ys): (Vec<f64>, Vec<f64>) = time_points.iter().copied().unzip();
        if let Some(fit) = fit_linear(&xs, &ys) {
            println!(
                "Time vs log₂n: slope {:.2}, R² = {:.3} — theory predicts a linear \
                 relationship (O(1) time per level)",
                fit.slope, fit.r_squared
            );
        }
    }
    runner.finish();
}

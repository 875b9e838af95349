//! Regenerates **Table 1** of the paper: one row per result, with the
//! paper's claimed time/messages next to this reproduction's measurements
//! (mean over seeds at a fixed `n`). Lower-bound rows print the formula
//! value at the chosen `n` — they are proofs, not algorithms — so the
//! table shows each algorithm sitting above its matching floor.

use clique_async::AsyncWakeSchedule;
use clique_model::ids::IdSpace;
use clique_model::rng::rng_from_seed;
use clique_model::NodeIndex;
use clique_sync::WakeSchedule;
use le_analysis::stats::{success_rate, Summary};
use le_analysis::table::fmt_count;
use le_analysis::Table;
use le_bench::{async_sim, seeds, sync_sim, SweepRunner, Task};
use le_bounds::formulas;
use leader_election::asynchronous::{afek_gafni as a_ag, tradeoff as a_tr};
use leader_election::sync::{
    afek_gafni, gossip_baseline, improved_tradeoff, las_vegas, small_id, sublinear_mc,
    two_round_adversarial,
};

struct Row {
    name: &'static str,
    paper_time: String,
    paper_messages: String,
    measured_time: String,
    measured_messages: String,
    success: String,
}

impl Row {
    fn fields(&self) -> [&str; 6] {
        [
            self.name,
            &self.paper_time,
            &self.paper_messages,
            &self.measured_time,
            &self.measured_messages,
            &self.success,
        ]
    }
}

/// Table rows in presentation order: formula rows are known at submission
/// time (and go straight to the CSV), measured rows are sweep tasks.
enum Entry {
    Literal(Row),
    Measured(Task<Row>),
}

fn summarize(
    name: &'static str,
    paper_time: String,
    paper_msgs: f64,
    runs: &[(f64, u64, bool)],
) -> Row {
    let time = Summary::from_sample(&runs.iter().map(|r| r.0).collect::<Vec<_>>()).unwrap();
    let msgs = Summary::from_counts(&runs.iter().map(|r| r.1).collect::<Vec<_>>()).unwrap();
    let ok = success_rate(&runs.iter().map(|r| r.2).collect::<Vec<_>>());
    Row {
        name,
        paper_time,
        paper_messages: fmt_count(paper_msgs),
        measured_time: format!("{:.1}", time.mean),
        measured_messages: fmt_count(msgs.mean),
        success: format!("{:.0}%", ok * 100.0),
    }
}

fn lower_bound_row(
    runner: &mut SweepRunner,
    entries: &mut Vec<Entry>,
    name: &'static str,
    time: &str,
    value: f64,
) {
    let row = Row {
        name,
        paper_time: time.to_string(),
        paper_messages: fmt_count(value),
        measured_time: "—".into(),
        measured_messages: "(formula)".into(),
        success: "—".into(),
    };
    runner.emit(&row.fields());
    entries.push(Entry::Literal(row));
}

fn main() {
    let n = if le_bench::quick() { 256 } else { 1024 };
    let seed_list = seeds(if le_bench::quick() { 3 } else { 10 });

    let mut runner = SweepRunner::new(
        "exp_table1",
        &[
            "result",
            "paper_time",
            "paper_messages",
            "measured_time",
            "measured_messages",
            "success",
        ],
    );
    let mut entries: Vec<Entry> = Vec::new();

    // ---- Synchronous, deterministic, simultaneous wake-up ----
    lower_bound_row(
        &mut runner,
        &mut entries,
        "LB Thm 3.8 (f=2 ⇒ rounds)",
        &format!("≥{:.1}", formulas::thm38_round_lower_bound(n, 2.0)),
        2.0 * n as f64,
    );
    lower_bound_row(
        &mut runner,
        &mut entries,
        "LB Thm 3.11 (time-bounded)",
        "any T(n)",
        formulas::thm311_message_lower_bound(n),
    );
    {
        let ell = 5;
        let cfg = improved_tradeoff::Config::with_rounds(ell);
        let seed_list = seed_list.clone();
        entries.push(Entry::Measured(runner.task(
            format!("n={n} alg=improved ell={ell}"),
            move |ws| {
                let runs = ws.cell(
                    format!("n={n} alg=improved ell={ell}"),
                    &seed_list,
                    |s, arenas| {
                        let o = sync_sim(n)
                            .seed(s)
                            .build_in(&mut arenas.sync, |id, n| {
                                improved_tradeoff::Node::new(id, n, cfg)
                            })
                            .unwrap()
                            .run_reusing(&mut arenas.sync)
                            .unwrap();
                        (
                            o.rounds as f64,
                            o.stats.total(),
                            o.validate_explicit().is_ok(),
                        )
                    },
                );
                let row = summarize(
                    "Alg Thm 3.10 (ℓ=5)",
                    "5".into(),
                    formulas::thm310_message_upper_bound(n, 5),
                    &runs,
                );
                ws.emit(&row.fields());
                row
            },
        )));
    }
    {
        let g = 2u64;
        let d = (n as f64).sqrt() as usize;
        let cfg = small_id::Config::new(d, g);
        let seed_list = seed_list.clone();
        entries.push(Entry::Measured(runner.task(
            format!("n={n} alg=small_id d={d} g={g}"),
            move |ws| {
                let runs = ws.cell(
                    format!("n={n} alg=small_id d={d} g={g}"),
                    &seed_list,
                    |s, arenas| {
                        let mut rng = rng_from_seed(s);
                        let ids = IdSpace::linear(n, g).assign(n, &mut rng).unwrap();
                        let o = sync_sim(n)
                            .seed(s)
                            .ids(ids)
                            .max_rounds(cfg.max_rounds(n) + 1)
                            .build_in(&mut arenas.sync, |id, n| small_id::Node::new(id, n, cfg))
                            .unwrap()
                            .run_reusing(&mut arenas.sync)
                            .unwrap();
                        (
                            o.rounds as f64,
                            o.stats.total(),
                            o.validate_explicit().is_ok(),
                        )
                    },
                );
                let row = summarize(
                    "Alg Thm 3.15 (d=√n, g=2)",
                    "≤⌈n/d⌉".into(),
                    formulas::thm315_messages(n, d, g),
                    &runs,
                );
                ws.emit(&row.fields());
                row
            },
        )));
    }

    // ---- Synchronous, deterministic, adversarial wake-up ----
    {
        let ell = 4;
        let cfg = afek_gafni::Config::with_rounds(ell);
        let seed_list = seed_list.clone();
        entries.push(Entry::Measured(runner.task(
            format!("n={n} alg=afek_gafni ell={ell} wake=n/4"),
            move |ws| {
                let runs = ws.cell(
                    format!("n={n} alg=afek_gafni ell={ell} wake=n/4"),
                    &seed_list,
                    |s, arenas| {
                        // Wake set derived per-trial (not from a shared stream)
                        // so the draw is a function of the seed alone.
                        let mut wake_rng = rng_from_seed(s ^ 7);
                        let wake = WakeSchedule::random_subset(n, n / 4, &mut wake_rng);
                        let o = sync_sim(n)
                            .seed(s)
                            .wake(wake)
                            .build_in(&mut arenas.sync, |id, n| afek_gafni::Node::new(id, n, cfg))
                            .unwrap()
                            .run_reusing(&mut arenas.sync)
                            .unwrap();
                        (
                            o.rounds as f64,
                            o.stats.total(),
                            o.validate_explicit().is_ok(),
                        )
                    },
                );
                let row = summarize(
                    "Alg AG [1] (ℓ=4, adv. wake)",
                    "4".into(),
                    formulas::afek_gafni_message_upper_bound(n, 4),
                    &runs,
                );
                ws.emit(&row.fields());
                row
            },
        )));
    }
    lower_bound_row(
        &mut runner,
        &mut entries,
        "LB AG [1] (c=2)",
        "≤½log₂n",
        formulas::afek_gafni_message_lower_bound(n, 2.0),
    );

    // ---- Synchronous, randomized, simultaneous wake-up ----
    {
        let seed_list = seed_list.clone();
        entries.push(Entry::Measured(runner.task(
            format!("n={n} alg=las_vegas"),
            move |ws| {
                let runs = ws.cell(format!("n={n} alg=las_vegas"), &seed_list, |s, arenas| {
                    let o = sync_sim(n)
                        .seed(s)
                        .build_in(&mut arenas.sync, |id, _| {
                            las_vegas::Node::new(id, las_vegas::Config::default())
                        })
                        .unwrap()
                        .run_reusing(&mut arenas.sync)
                        .unwrap();
                    (
                        o.rounds as f64,
                        o.stats.total(),
                        o.validate_explicit().is_ok(),
                    )
                });
                let row = summarize("Alg Thm 3.16 (Las Vegas)", "3 whp".into(), n as f64, &runs);
                ws.emit(&row.fields());
                row
            },
        )));
    }
    lower_bound_row(
        &mut runner,
        &mut entries,
        "LB Thm 3.16 (Las Vegas)",
        "any",
        formulas::lasvegas_message_lower_bound(n),
    );
    {
        let seed_list = seed_list.clone();
        entries.push(Entry::Measured(runner.task(
            format!("n={n} alg=sublinear_mc"),
            move |ws| {
                let runs = ws.cell(
                    format!("n={n} alg=sublinear_mc"),
                    &seed_list,
                    |s, arenas| {
                        let o = sync_sim(n)
                            .seed(s)
                            .build_in(&mut arenas.sync, |_, _| {
                                sublinear_mc::Node::new(sublinear_mc::Config::default())
                            })
                            .unwrap()
                            .run_reusing(&mut arenas.sync)
                            .unwrap();
                        (
                            o.rounds as f64,
                            o.stats.total(),
                            o.validate_implicit().is_ok(),
                        )
                    },
                );
                let row = summarize(
                    "Alg [16] (Monte Carlo)",
                    "2".into(),
                    formulas::mc16_message_upper_bound(n),
                    &runs,
                );
                ws.emit(&row.fields());
                row
            },
        )));
    }
    lower_bound_row(
        &mut runner,
        &mut entries,
        "LB [16] (const. error)",
        "any",
        formulas::mc16_message_lower_bound(n),
    );

    // ---- Synchronous, randomized, adversarial wake-up ----
    {
        let eps = 0.0625;
        let seed_list = seed_list.clone();
        entries.push(Entry::Measured(runner.task(
            format!("n={n} alg=two_round eps={eps} wake=1"),
            move |ws| {
                let runs = ws.cell(
                    format!("n={n} alg=two_round eps={eps} wake=1"),
                    &seed_list,
                    |s, arenas| {
                        let mut wake_rng = rng_from_seed(s ^ 11);
                        let wake = WakeSchedule::random_subset(n, 1, &mut wake_rng);
                        let o = sync_sim(n)
                            .seed(s)
                            .wake(wake)
                            .max_rounds(2)
                            .build_in(&mut arenas.sync, |_, _| {
                                two_round_adversarial::Node::new(
                                    two_round_adversarial::Config::new(eps),
                                )
                            })
                            .unwrap()
                            .run_reusing(&mut arenas.sync)
                            .unwrap();
                        (
                            o.rounds as f64,
                            o.stats.total(),
                            o.validate_implicit().is_ok(),
                        )
                    },
                );
                let row = summarize(
                    "Alg Thm 4.1 (ε=1/16)",
                    "2".into(),
                    formulas::thm41_message_upper_bound(n, eps),
                    &runs,
                );
                ws.emit(&row.fields());
                row
            },
        )));
    }
    lower_bound_row(
        &mut runner,
        &mut entries,
        "LB Thm 4.2 (2 rounds)",
        "≤2",
        formulas::thm42_message_lower_bound(n),
    );
    {
        let cfg = gossip_baseline::Config::default();
        let seed_list = seed_list.clone();
        entries.push(Entry::Measured(runner.task(
            format!("n={n} alg=gossip wake=1"),
            move |ws| {
                let runs = ws.cell(
                    format!("n={n} alg=gossip wake=1"),
                    &seed_list,
                    |s, arenas| {
                        let mut wake_rng = rng_from_seed(s ^ 13);
                        let wake = WakeSchedule::random_subset(n, 1, &mut wake_rng);
                        let o = sync_sim(n)
                            .seed(s)
                            .wake(wake)
                            .max_rounds(cfg.total_rounds(n) + 2)
                            .build_in(&mut arenas.sync, |id, _| {
                                gossip_baseline::Node::new(id, cfg)
                            })
                            .unwrap()
                            .run_reusing(&mut arenas.sync)
                            .unwrap();
                        (
                            o.rounds as f64,
                            o.stats.total(),
                            o.validate_explicit().is_ok(),
                        )
                    },
                );
                let row = summarize(
                    "Gossip stand-in for [14]",
                    "O(log n)".into(),
                    n as f64 * formulas::log2(n),
                    &runs,
                );
                ws.emit(&row.fields());
                row
            },
        )));
    }

    // ---- Asynchronous ----
    for k in [2usize, 4] {
        let seed_list = seed_list.clone();
        entries.push(Entry::Measured(runner.task(
            format!("n={n} alg=async_tradeoff k={k}"),
            move |ws| {
                let runs = ws.cell(
                    format!("n={n} alg=async_tradeoff k={k}"),
                    &seed_list,
                    |s, arenas| {
                        let o = async_sim(n)
                            .seed(s)
                            .wake(AsyncWakeSchedule::single(NodeIndex(0)))
                            .build_in(&mut arenas.asynch, |_, _| {
                                a_tr::Node::new(a_tr::Config::new(k))
                            })
                            .unwrap()
                            .run_reusing(&mut arenas.asynch)
                            .unwrap();
                        (o.time, o.stats.total(), o.validate_implicit().is_ok())
                    },
                );
                let name: &'static str = if k == 2 {
                    "Alg Thm 5.1 (k=2)"
                } else {
                    "Alg Thm 5.1 (k=4)"
                };
                let row = summarize(
                    name,
                    format!("≤{}", k + 8),
                    formulas::thm51_message_upper_bound(n, k),
                    &runs,
                );
                ws.emit(&row.fields());
                row
            },
        )));
    }
    {
        let seed_list = seed_list.clone();
        entries.push(Entry::Measured(runner.task(
            format!("n={n} alg=async_afek_gafni"),
            move |ws| {
                let runs = ws.cell(
                    format!("n={n} alg=async_afek_gafni"),
                    &seed_list,
                    |s, arenas| {
                        let o = async_sim(n)
                            .seed(s)
                            .wake(AsyncWakeSchedule::simultaneous(n))
                            .build_in(&mut arenas.asynch, a_ag::Node::new)
                            .unwrap()
                            .run_reusing(&mut arenas.asynch)
                            .unwrap();
                        (o.time, o.stats.total(), o.validate_implicit().is_ok())
                    },
                );
                let row = summarize(
                    "Alg Thm 5.14 (async AG)",
                    "O(log n)".into(),
                    formulas::thm514_message_upper_bound(n),
                    &runs,
                );
                ws.emit(&row.fields());
                row
            },
        )));
    }

    // ---- Render ----
    let mut table = Table::new(vec![
        "Result",
        "paper time",
        "paper msgs @ n",
        "measured time",
        "measured msgs",
        "success",
    ]);
    table.title(format!(
        "Table 1 reproduction, n = {n} (mean of {} seeds; lower bounds print their formula value)",
        seed_list.len()
    ));
    let mut restored = 0;
    for entry in entries {
        let row = match entry {
            Entry::Literal(row) => Some(row),
            Entry::Measured(handle) => runner.wait(handle),
        };
        match row {
            Some(row) => {
                table.add_row(row.fields().iter().map(|s| s.to_string()).collect());
            }
            None => restored += 1,
        }
    }
    println!("{table}");
    if restored > 0 {
        println!("({restored} row(s) restored from a checkpointed run; see the CSV)");
    }
    runner.finish();
}

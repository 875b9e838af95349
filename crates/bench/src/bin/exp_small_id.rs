//! Reproduces Theorem 3.15 (Algorithm 1) and its contrast with the
//! Ω(n·log n) bound of Theorem 3.11: on a linear-size ID universe, the
//! `d` knob trades rounds for messages, and with `d = o(log n)` the
//! algorithm sends `o(n·log n)` messages — the regime the large-ID-space
//! lower bound forbids.

use clique_model::ids::IdSpace;
use clique_model::rng::rng_from_seed;
use clique_sync::SyncArena;
use le_analysis::stats::Summary;
use le_analysis::table::fmt_count;
use le_analysis::Table;
use le_bench::{seeds, sweep, sync_sim, SweepRunner};
use le_bounds::formulas;
use leader_election::sync::small_id;

fn measure(n: usize, d: usize, g: u64, seed: u64, arena: &mut SyncArena) -> (u64, usize) {
    let cfg = small_id::Config::new(d, g);
    let mut rng = rng_from_seed(seed);
    let ids = IdSpace::linear(n, g)
        .assign(n, &mut rng)
        .expect("universe covers n");
    let outcome = sync_sim(n)
        .seed(seed)
        .ids(ids)
        .max_rounds(cfg.max_rounds(n) + 1)
        .build_in(arena, |id, n| small_id::Node::new(id, n, cfg))
        .expect("valid configuration")
        .run_reusing(arena)
        .expect("no resolver faults");
    outcome
        .validate_explicit()
        .expect("Algorithm 1 is deterministic");
    (outcome.stats.total(), outcome.rounds)
}

fn main() {
    let ns = sweep(&[256usize, 1024, 4096, 16384], &[256, 1024]);
    let g = 2u64;
    let seed_list = seeds(5);

    let mut runner = SweepRunner::new(
        "exp_small_id",
        &[
            "n",
            "d",
            "g",
            "messages_mean",
            "messages_budget",
            "rounds_mean",
            "rounds_budget",
            "n_log_n",
        ],
    );

    let mut handles = Vec::new();
    for &n in &ns {
        let log2n = formulas::log2(n);
        // Three points on the tradeoff: sublinear time + o(n log n)
        // messages (the Theorem 3.11 escape), √n-balanced, and 1-round.
        let half_log = ((log2n / 2.0).floor() as usize).max(1);
        let ds = [half_log, (n as f64).sqrt() as usize, n];
        for &d in &ds {
            let seed_list = seed_list.clone();
            handles.push(runner.task(format!("n={n} d={d}"), move |ws| {
                let runs = ws.cell(format!("n={n} d={d} g={g}"), &seed_list, |s, arenas| {
                    measure(n, d, g, s, &mut arenas.sync)
                });
                let msgs = Summary::from_counts(&runs.iter().map(|r| r.0).collect::<Vec<_>>())
                    .expect("non-empty");
                let rounds =
                    Summary::from_sample(&runs.iter().map(|r| r.1 as f64).collect::<Vec<_>>())
                        .expect("non-empty");
                let budget_msgs = formulas::thm315_messages(n, d, g);
                let budget_rounds = formulas::thm315_rounds(n, d);
                assert!(msgs.max <= budget_msgs, "message budget breached");
                assert!(rounds.max <= budget_rounds as f64, "round budget breached");
                let nlogn = n as f64 * log2n;
                ws.emit(&[
                    n.to_string(),
                    d.to_string(),
                    g.to_string(),
                    msgs.mean.to_string(),
                    budget_msgs.to_string(),
                    rounds.mean.to_string(),
                    budget_rounds.to_string(),
                    nlogn.to_string(),
                ]);
                vec![
                    d.to_string(),
                    fmt_count(msgs.mean),
                    fmt_count(budget_msgs),
                    format!("{:.1}", rounds.mean),
                    budget_rounds.to_string(),
                    le_bench::ratio(msgs.mean, nlogn),
                ]
            }));
        }
    }

    let mut handles = handles.into_iter();
    for &n in &ns {
        let log2n = formulas::log2(n);
        let half_log = ((log2n / 2.0).floor() as usize).max(1);
        let mut table = Table::new(vec![
            "d",
            "messages (mean)",
            "budget n·d·g",
            "rounds (mean)",
            "budget ⌈n/d⌉",
            "vs n·log₂n",
        ]);
        table.title(format!(
            "Algorithm 1, n = {n}, universe {{1..{}}} (mean of {} random assignments)",
            n as u64 * g,
            seed_list.len()
        ));
        let mut restored = 0;
        for _ in 0..3 {
            match runner.wait(handles.next().expect("one handle per d")) {
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
        println!(
            "Theorem 3.11 floor for unrestricted ID spaces: Ω(n·log n) ≈ {} — \
             d = {half_log} sends a fraction of it, which a quasi-polynomial ID \
             universe would forbid.\n",
            fmt_count(n as f64 * log2n),
        );
    }
    runner.finish();
}

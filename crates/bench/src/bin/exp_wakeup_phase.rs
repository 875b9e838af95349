//! Reproduces Lemma 5.2 in isolation: if every waking node sends
//! `γ·n^{1/k}` wake-up pings over random ports, every node is awake within
//! `k + 4` time units whp — the geometric cover growth that underpins
//! Theorem 5.1's time bound.
//!
//! The election phase is disabled (candidacy probability 0), so the only
//! traffic is the wake-up cascade; we measure the time by which the last
//! node woke.

use clique_async::{AsyncArena, AsyncWakeSchedule};
use clique_model::rng::rng_from_seed;
use le_analysis::stats::{success_rate, Summary};
use le_analysis::table::fmt_count;
use le_analysis::Table;
use le_bench::{async_sim, seeds, sweep, SweepRunner};
use leader_election::asynchronous::tradeoff::{Config, Node};

/// The pure wake-up configuration: Algorithm 2 with candidacy switched off.
fn wakeup_only(k: usize) -> Config {
    let mut cfg = Config::new(k);
    cfg.candidate_factor = 0.0;
    cfg
}

fn measure(
    n: usize,
    k: usize,
    wake_size: usize,
    seed: u64,
    arena: &mut AsyncArena,
) -> (Option<f64>, u64) {
    let mut wake_rng = rng_from_seed(seed ^ 0xBEEF);
    let wake = AsyncWakeSchedule::random_subset(n, wake_size, &mut wake_rng);
    let cfg = wakeup_only(k);
    let outcome = async_sim(n)
        .seed(seed)
        .wake(wake)
        .build_in(arena, |_, _| Node::new(cfg))
        .expect("valid configuration")
        .run_reusing(arena)
        .expect("no resolver faults");
    (outcome.wake_all_time, outcome.stats.total())
}

fn main() {
    let ns = sweep(&[256usize, 1024, 4096], &[256]);
    let ks = sweep(&[2usize, 4, 8], &[2, 4]);
    let seed_list = seeds(if le_bench::quick() { 5 } else { 15 });

    let mut runner = SweepRunner::new(
        "exp_wakeup_phase",
        &[
            "n",
            "k",
            "wake_set",
            "covered_rate",
            "wake_time_max",
            "bound_k_plus_4",
            "messages_mean",
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
            for &wake_size in &[1usize, (n as f64).sqrt() as usize] {
                let seed_list = seed_list.clone();
                handles.push(
                    runner.task(format!("n={n} k={k} wake={wake_size}"), move |ws| {
                        let runs = ws.cell(
                            format!("n={n} k={k} wake={wake_size}"),
                            &seed_list,
                            |s, arenas| measure(n, k, wake_size, s, &mut arenas.asynch),
                        );
                        let covered =
                            success_rate(&runs.iter().map(|r| r.0.is_some()).collect::<Vec<_>>());
                        let wake_max = runs.iter().filter_map(|r| r.0).fold(0.0f64, f64::max);
                        let msgs =
                            Summary::from_counts(&runs.iter().map(|r| r.1).collect::<Vec<_>>())
                                .expect("non-empty sample");
                        ws.emit(&[
                            n.to_string(),
                            k.to_string(),
                            wake_size.to_string(),
                            covered.to_string(),
                            wake_max.to_string(),
                            (k + 4).to_string(),
                            msgs.mean.to_string(),
                        ]);
                        vec![
                            k.to_string(),
                            wake_size.to_string(),
                            format!("{:.0}%", covered * 100.0),
                            format!("{wake_max:.2}"),
                            format!("{}", k + 4),
                            fmt_count(msgs.mean),
                        ]
                    }),
                );
                rows += 1;
            }
        }
        rows_per_n.push(rows);
    }

    let mut handles = handles.into_iter();
    for (&n, &rows) in ns.iter().zip(&rows_per_n) {
        let mut table = Table::new(vec![
            "k",
            "|wake set|",
            "all awake",
            "wake time (max)",
            "bound k+4",
            "messages (mean)",
        ]);
        table.title(format!(
            "Wake-up phase (Lemma 5.2), n = {n} ({} seeds)",
            seed_list.len()
        ));
        let mut restored = 0;
        for _ in 0..rows {
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
    runner.finish();
}

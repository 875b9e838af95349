//! Reproduces the paper's central deterministic tradeoff (the Table 1
//! block "Synchronous, Deterministic, Simultaneous Wake-up"): measured
//! messages of the improved algorithm (Theorem 3.10) versus the
//! Afek–Gafni baseline \[1\] versus the Theorem 3.8 lower-bound curve,
//! across round budgets ℓ.
//!
//! Expected shape: for every ℓ, `LB(Thm 3.8) ≤ measured(Thm 3.10) ≤
//! measured(AG at ℓ+1)`, with the improved algorithm's advantage largest at
//! small constant ℓ.

use clique_sync::SyncArena;
use le_analysis::stats::Summary;
use le_analysis::table::fmt_count;
use le_analysis::Table;
use le_bench::{seeds, sweep, sync_sim, SweepRunner};
use le_bounds::formulas;
use leader_election::sync::{afek_gafni, improved_tradeoff};

fn measure_improved(n: usize, ell: usize, seed: u64, arena: &mut SyncArena) -> u64 {
    let cfg = improved_tradeoff::Config::with_rounds(ell);
    let outcome = sync_sim(n)
        .seed(seed)
        .build_in(arena, |id, n| improved_tradeoff::Node::new(id, n, cfg))
        .expect("valid configuration")
        .run_reusing(arena)
        .expect("no resolver faults");
    outcome
        .validate_explicit()
        .expect("deterministic algorithm");
    assert_eq!(outcome.rounds, ell);
    outcome.stats.total()
}

fn measure_afek_gafni(n: usize, ell: usize, seed: u64, arena: &mut SyncArena) -> u64 {
    let cfg = afek_gafni::Config::with_rounds(ell);
    let outcome = sync_sim(n)
        .seed(seed)
        .build_in(arena, |id, n| afek_gafni::Node::new(id, n, cfg))
        .expect("valid configuration")
        .run_reusing(arena)
        .expect("no resolver faults");
    outcome
        .validate_explicit()
        .expect("deterministic algorithm");
    assert_eq!(outcome.rounds, ell);
    outcome.stats.total()
}

fn main() {
    let ns = sweep(&[1024usize, 4096, 16384], &[256, 1024]);
    let ells = sweep(&[3usize, 5, 7, 9, 11], &[3, 5]);
    let seed_list = seeds(3);

    let mut runner = SweepRunner::new(
        "exp_tradeoff_det",
        &[
            "n",
            "ell",
            "improved_messages",
            "afek_gafni_messages_at_ell_plus_1",
            "lb_thm38",
            "ub_thm310",
        ],
    );

    // One task per (n, ℓ): both measured cells plus the CSV row, returning
    // the rendered table row for the per-n report below.
    let mut handles = Vec::new();
    for &n in &ns {
        for &ell in &ells {
            let seed_list = seed_list.clone();
            handles.push(runner.task(format!("n={n} ell={ell}"), move |ws| {
                let improved = Summary::from_counts(&ws.cell(
                    format!("n={n} ell={ell} alg=improved"),
                    &seed_list,
                    |s, arenas| measure_improved(n, ell, s, &mut arenas.sync),
                ))
                .expect("non-empty sample");
                // The baseline's round budget must be even; ℓ+1 gives it one
                // MORE round than the improved algorithm, i.e. an advantage.
                let ag = Summary::from_counts(&ws.cell(
                    format!("n={n} ell={} alg=afek_gafni", ell + 1),
                    &seed_list,
                    |s, arenas| measure_afek_gafni(n, ell + 1, s, &mut arenas.sync),
                ))
                .expect("non-empty sample");
                let lb = formulas::thm38_message_lower_bound(n, ell);
                let ub = formulas::thm310_message_upper_bound(n, ell);
                ws.emit(&[
                    n.to_string(),
                    ell.to_string(),
                    improved.mean.to_string(),
                    ag.mean.to_string(),
                    lb.to_string(),
                    ub.to_string(),
                ]);
                vec![
                    ell.to_string(),
                    fmt_count(improved.mean),
                    fmt_count(ag.mean),
                    fmt_count(lb),
                    fmt_count(ub),
                    format!("{:.2}", improved.mean / ag.mean),
                ]
            }));
        }
    }

    let mut handles = handles.into_iter();
    for &n in &ns {
        let mut table = Table::new(vec![
            "ℓ (rounds)",
            "Thm 3.10 measured",
            "AG [1] @ ℓ+1 measured",
            "LB Thm 3.8",
            "UB ℓ·n^{1+2/(ℓ+1)}",
            "improved/AG",
        ]);
        table.title(format!(
            "Deterministic tradeoff, n = {n} (simultaneous wake-up; mean of {} seeds)",
            seed_list.len()
        ));
        let mut restored = 0;
        for _ in &ells {
            match runner.wait(handles.next().expect("one handle per (n, ell)")) {
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

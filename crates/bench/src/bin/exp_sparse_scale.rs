//! The sparse-backend payoff sweep: the paper's sublinear-message
//! algorithms at network sizes the dense engine tables cannot reach.
//!
//! The headline tradeoffs of *Improved Tradeoffs for Leader Election* live
//! in the regime where each node touches only o(n) of its ports — exactly
//! the regime where a `Θ(n²)`-word port map is pure waste. This sweep runs
//! the Θ(n)-message Las Vegas algorithm (Theorem 3.16) and the
//! `Θ(√n·log^{3/2} n)`-message Monte Carlo algorithm of \[16\] at
//! `n = 65536` and `n = 131072` on the sparse backend, sizes the `auto`
//! budget's cost model prices at ~120 GB and ~480 GB (the
//! `dense_equiv_bytes` column: the flat layout's 28 bytes per ordered
//! pair; today's dense store holds 8 bytes per pair, 32 GiB at 65536, and
//! stops at 65536 nodes). The implicit `peak_resident_bytes` column
//! records what the sparse backend actually held.
//!
//! Expected shape: Las Vegas never fails and stays within 3 rounds; both
//! algorithms touch o(n) ports per node (`msgs_per_node` far below
//! `n − 1`), so memory — all touched state — stays far below the dense
//! equivalent while per-trial wall-clock stays flat enough for Monte-Carlo
//! sweeps.

use clique_model::PortBackend;
use clique_sync::SyncArena;
use le_analysis::stats::Summary;
use le_analysis::table::fmt_count;
use le_analysis::Table;
use le_bench::{seeds, sweep, sync_sim, SweepRunner};
use le_bounds::formulas;
use leader_election::sync::las_vegas;
use leader_election::sync::sublinear_mc;

/// One algorithm's per-seed measurements at one `n`.
struct Cell {
    messages: Vec<u64>,
    rounds_max: usize,
    successes: usize,
}

fn run_trial(arena: &mut SyncArena, n: usize, alg: &str, s: u64) -> (u64, usize, bool) {
    let builder = sync_sim(n).seed(s).backend(PortBackend::Sparse);
    let outcome = match alg {
        "las_vegas" => builder
            .build_in(arena, |id, _| {
                las_vegas::Node::new(id, las_vegas::Config::default())
            })
            .expect("valid configuration")
            .run_reusing(arena)
            .expect("no resolver faults"),
        "sublinear_mc" => builder
            .build_in(arena, |_, _| {
                sublinear_mc::Node::new(sublinear_mc::Config::default())
            })
            .expect("valid configuration")
            .run_reusing(arena)
            .expect("no resolver faults"),
        other => panic!("unknown algorithm {other}"),
    };
    if alg == "las_vegas" {
        outcome
            .validate_explicit()
            .expect("Las Vegas algorithms never fail");
    }
    (
        outcome.stats.total(),
        outcome.rounds,
        outcome.validate_implicit().is_ok(),
    )
}

fn main() {
    // Full sweep: the two sizes the dense tables cannot reach on this box.
    // Quick (CI) sweep: exercise the same sparse path at a small n.
    let ns = sweep(&[65536usize, 131072], &[1024]);
    let seed_list = seeds(if le_bench::quick() { 3 } else { 10 });

    let mut runner = SweepRunner::new(
        "exp_sparse_scale",
        &[
            "n",
            "algorithm",
            "messages_mean",
            "messages_max",
            "msgs_per_node",
            "rounds_max",
            "success_rate",
            "dense_equiv_bytes",
        ],
    );

    let mut handles = Vec::new();
    for &n in &ns {
        for alg in ["las_vegas", "sublinear_mc"] {
            let seed_list = seed_list.clone();
            handles.push(runner.task(format!("n={n} alg={alg}"), move |ws| {
                // The sparse maps of this sweep dwarf anything another
                // task may have left in the worker's arena; start clean so
                // the recycled map is at this cell's working size.
                ws.arenas.sync.clear();
                let mut rounds_max = 0;
                let mut successes = 0;
                let messages = ws.cell(format!("n={n} alg={alg}"), &seed_list, |s, arenas| {
                    let (msgs, rounds, ok) = run_trial(&mut arenas.sync, n, alg, s);
                    rounds_max = rounds_max.max(rounds);
                    if ok {
                        successes += 1;
                    }
                    msgs
                });
                let cell = Cell {
                    messages,
                    rounds_max,
                    successes,
                };
                let msgs = Summary::from_counts(&cell.messages).expect("non-empty cell");
                if alg == "las_vegas" {
                    let floor = formulas::lasvegas_message_lower_bound(n);
                    assert!(
                        msgs.min >= floor,
                        "a Las Vegas run sent fewer than the Ω(n) floor"
                    );
                }
                let success = cell.successes as f64 / cell.messages.len() as f64;
                let per_node = msgs.mean / n as f64;
                let dense_bytes = PortBackend::dense_table_bytes(n);
                let resident = ws.arenas.sync.resident_bytes();
                ws.emit(&[
                    n.to_string(),
                    alg.to_string(),
                    msgs.mean.to_string(),
                    msgs.max.to_string(),
                    per_node.to_string(),
                    cell.rounds_max.to_string(),
                    success.to_string(),
                    dense_bytes.to_string(),
                ]);
                vec![
                    n.to_string(),
                    alg.to_string(),
                    fmt_count(msgs.mean),
                    format!("{per_node:.1}"),
                    cell.rounds_max.to_string(),
                    format!("{:.0}%", success * 100.0),
                    format!("{:.1} GB", dense_bytes as f64 / 1e9),
                    format!("{:.1} MB", resident as f64 / 1e6),
                ]
            }));
        }
    }

    let mut table = Table::new(vec![
        "n",
        "algorithm",
        "msgs (mean)",
        "msgs/node",
        "rounds (max)",
        "success",
        "dense tables",
        "sparse resident",
    ]);
    table.title(format!(
        "Sublinear algorithms past the dense wall (sparse backend; {} seeds per cell)",
        seed_list.len()
    ));

    let mut restored = 0;
    for handle in handles {
        match runner.wait(handle) {
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
        "note: every cell runs on PortBackend::Sparse; dense_equiv_bytes is \
         the auto budget's cost model (28 bytes per ordered pair of the \
         flat layout), not the dense store's footprint (8 bytes per pair, \
         n <= 65536)."
    );
    runner.finish();
}

//! Leader election beyond the clique: the topology grid.
//!
//! # Grid A — singularly-optimal LE on general graphs
//!
//! Runs [`leader_election::sync::singular`] (the Kutten–Moses-style
//! spanning-tree algorithm) across ring × torus × random-regular ×
//! clique at n ∈ {64, 256, 1024} and **hard-asserts** the paper-style
//! singular envelopes on every fault-free run:
//!
//! * a unique leader is elected and every node learns its ID (100%
//!   success — the algorithm is deterministic once the candidate coins
//!   land, and a zero-candidate run is a `n^{-4}` event the sweep
//!   would surface as a round-cap halt);
//! * messages ≤ 24·m — linear in the *edge count*, not `n²`: the wave
//!   flood, its wave-tagged responses, and the decide flood each cross
//!   an edge O(1) times in expectation (the 24 covers the O(log
//!   #candidates) re-adoption overhead on suppression-weak graphs like
//!   rings);
//! * rounds ≤ 3·D + 12 — flood down (D), counting convergecast up
//!   (≤ 2·D), decide flood (D), constant slack for the reply
//!   round-trips.
//!
//! # Grid B — clique-born baselines on expanders
//!
//! The paper's sublinear Monte Carlo baseline and the Theorem 3.16
//! Las Vegas algorithm assume any-to-any reach. On a random-regular
//! expander with degree `d ≈ 2·√(n·ln n)` a candidate's neighborhood
//! is large enough that refereeing over incident edges only still
//! separates candidates whp — the Monte Carlo competition carries over
//! and holds its success rate. The Las Vegas algorithm does not: its
//! round-3 *announcement* is also one-hop, so only the winner's `d`
//! neighbors ever learn the outcome and the `n − 1 − d` non-neighbors
//! stay undecided (0% measured success — a negative control showing
//! why general graphs need the spanning-tree broadcast of Grid A).
//! Success rates are reported, not asserted; the algorithms carry no
//! general-graph guarantee.
//!
//! # Grid C — million-node cells
//!
//! `singular` on the ring and the square torus at `n = 2²⁰` (two seeds
//! each; `n = 4096` under `LE_QUICK`), with Grid A's envelopes
//! hard-asserted. The synchronous engine visits only the nodes that act
//! in a round, so a 1.5 M-round ring election costs its messages, not
//! `n` node visits per round. The table reports each cell's slowest
//! trial and the process's peak resident set (`VmHWM`); both are
//! machine-dependent and stay out of the CSV.
//!
//! Topologies are pinned per cell via `SyncSimBuilder::topology`; a run
//! without that call is on the clique.

use std::time::Instant;

use clique_model::Topology;
use le_analysis::stats::success_rate;
use le_analysis::Table;
use le_bench::{seeds, sweep, sync_sim, SweepRunner};
use leader_election::sync::{las_vegas, singular, sublinear_mc};

/// Round envelope: `3·D + SLACK` (see the module docs).
const ROUND_SLACK: usize = 12;
/// Message envelope: `MSG_FACTOR·m`.
const MSG_FACTOR: f64 = 24.0;

/// One measured trial of Grids A and C.
struct Cell {
    rounds: usize,
    msgs: u64,
    ok: bool,
    /// Wall-clock of the trial (build and run).
    secs: f64,
}

/// The Grid A topology families, instantiated per n.
fn families(n: usize) -> Vec<(&'static str, Topology)> {
    vec![
        ("ring", Topology::ring(n).expect("n ≥ 3")),
        ("torus", Topology::torus_square(n).expect("square n")),
        (
            "regular8",
            Topology::random_regular(n, 8, 0xEC).expect("valid degree"),
        ),
        ("clique", Topology::clique(n).expect("n ≥ 2")),
    ]
}

/// Expander degree for Grid B: `2·⌈√(n·ln n)⌉`, comfortably above the
/// baselines' referee count `⌈√(n·ln n)⌉` so the incident-edge clamp
/// rarely binds.
fn expander_degree(n: usize) -> usize {
    let d = 2 * ((n as f64) * (n as f64).ln()).sqrt().ceil() as usize;
    d.min(n - 1)
}

fn run_singular(topo: &Topology, seed: u64, arena: &mut clique_sync::SyncArena) -> Cell {
    let t0 = Instant::now();
    let outcome = sync_sim(topo.n())
        .seed(seed)
        .topology(topo.clone())
        .build_in(arena, |id, _| {
            singular::Node::new(id, singular::Config::default())
        })
        .expect("valid configuration")
        .run_reusing(arena)
        .expect("no resolver faults");
    Cell {
        rounds: outcome.rounds,
        msgs: outcome.stats.total(),
        ok: outcome.validate_explicit().is_ok(),
        secs: t0.elapsed().as_secs_f64(),
    }
}

/// The process's peak resident set in MB (`VmHWM`), where `/proc` has it.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

/// Grids A and C: aggregate one `(family, n)` cell, hard-assert its envelopes,
/// emit the CSV row, and render the table row.
fn summarize_singular(
    family: &str,
    topo: &Topology,
    cells: &[Cell],
    ws: &mut le_bench::Workspace,
) -> Vec<String> {
    let n = topo.n();
    let m = topo.m();
    let d = topo.diameter();
    let round_bound = 3 * d + ROUND_SLACK;
    let msg_bound = MSG_FACTOR * m as f64;
    let ok = success_rate(&cells.iter().map(|c| c.ok).collect::<Vec<_>>());
    let rounds_max = cells.iter().map(|c| c.rounds).max().unwrap_or(0);
    let msgs_max = cells.iter().map(|c| c.msgs).max().unwrap_or(0);
    // Fault-free singular LE must never fail: a unique leader every
    // seed, every topology.
    assert!(
        (ok - 1.0).abs() < f64::EPSILON,
        "{family} n={n}: success rate {ok} below 1.0 on a fault-free network"
    );
    assert!(
        rounds_max <= round_bound,
        "{family} n={n}: {rounds_max} rounds exceed 3·{d} + {ROUND_SLACK}"
    );
    assert!(
        (msgs_max as f64) <= msg_bound,
        "{family} n={n}: {msgs_max} messages exceed {MSG_FACTOR}·m = {msg_bound}"
    );
    ws.emit(&[
        family.to_string(),
        n.to_string(),
        m.to_string(),
        d.to_string(),
        cells.len().to_string(),
        ok.to_string(),
        rounds_max.to_string(),
        round_bound.to_string(),
        msgs_max.to_string(),
        msg_bound.to_string(),
    ]);
    vec![
        family.to_string(),
        n.to_string(),
        m.to_string(),
        d.to_string(),
        rounds_max.to_string(),
        round_bound.to_string(),
        msgs_max.to_string(),
        format!("{msg_bound:.0}"),
        format!("{:.2}", msgs_max as f64 / m as f64),
        format!("{:.0}%", ok * 100.0),
    ]
}

/// Grid B: success of one baseline trial on the expander.
fn run_baseline(
    which: &str,
    topo: &Topology,
    seed: u64,
    arena: &mut clique_sync::SyncArena,
) -> bool {
    let cfg = sublinear_mc::Config::default();
    let outcome = if which == "sublinear_mc" {
        sync_sim(topo.n())
            .seed(seed)
            .topology(topo.clone())
            .max_rounds(2)
            .build_in(arena, |_, _| sublinear_mc::Node::new(cfg))
            .expect("valid configuration")
            .run_reusing(arena)
            .expect("no resolver faults")
    } else {
        // Ten 3-round Las Vegas attempts; a run still undecided after
        // them counts as a failure for the success column.
        sync_sim(topo.n())
            .seed(seed)
            .topology(topo.clone())
            .max_rounds(30)
            .build_in(arena, |id, _| las_vegas::Node::new(id, cfg))
            .expect("valid configuration")
            .run_reusing(arena)
            .expect("no resolver faults")
    };
    outcome.validate_implicit().is_ok()
}

fn main() {
    let ns = sweep(&[64usize, 256, 1024], &[64]);
    let baseline_ns = sweep(&[64usize, 256], &[64]);
    let big_ns = sweep(&[1usize << 20], &[4096]);
    let seed_list = seeds(if le_bench::quick() { 4 } else { 12 });

    let mut runner = SweepRunner::new(
        "exp_general_graphs",
        &[
            "family",
            "n",
            "m",
            "diameter",
            "seeds",
            "success_rate",
            "rounds_max",
            "rounds_bound",
            "msgs_max",
            "msgs_bound",
        ],
    );

    // Grid A: singular LE across the topology × n grid.
    let mut grid_a = Vec::new();
    for &n in &ns {
        for (family, topo) in families(n) {
            let seed_list = seed_list.clone();
            let label = format!("singular {family} n={n}");
            grid_a.push(runner.task(label.clone(), move |ws| {
                let cells = ws.cell(&label, &seed_list, |seed, arenas| {
                    run_singular(&topo, seed, &mut arenas.sync)
                });
                summarize_singular(family, &topo, &cells, ws)
            }));
        }
    }

    // Grid B: clique-born baselines on the dense expander.
    let mut grid_b = Vec::new();
    for &n in &baseline_ns {
        let d = expander_degree(n);
        let topo = Topology::random_regular(n, d, 0xEC).expect("valid degree");
        for which in ["sublinear_mc", "las_vegas"] {
            let seed_list = seed_list.clone();
            let topo = topo.clone();
            let label = format!("{which} expander n={n}");
            grid_b.push(runner.task(label.clone(), move |ws| {
                let oks = ws.cell(&label, &seed_list, |seed, arenas| {
                    run_baseline(which, &topo, seed, &mut arenas.sync)
                });
                let ok = success_rate(&oks);
                ws.emit(&[
                    format!("{which}@regular{d}"),
                    topo.n().to_string(),
                    topo.m().to_string(),
                    topo.diameter().to_string(),
                    oks.len().to_string(),
                    ok.to_string(),
                    String::new(),
                    String::new(),
                    String::new(),
                    String::new(),
                ]);
                vec![
                    format!("{which}@regular{d}"),
                    topo.n().to_string(),
                    topo.m().to_string(),
                    topo.diameter().to_string(),
                    format!("{:.0}%", ok * 100.0),
                ]
            }));
        }
    }

    // Grid C: singular at a million nodes, submitted last so the rows
    // of Grids A and B come first in the CSV and the trace.
    let mut grid_c = Vec::new();
    for &n in &big_ns {
        for (family, topo) in [
            ("ring", Topology::ring(n).expect("n ≥ 3")),
            ("torus", Topology::torus_square(n).expect("square n")),
        ] {
            let label = format!("singular {family} n={n}");
            grid_c.push(runner.task(label.clone(), move |ws| {
                let cells = ws.cell(&label, &seeds(2), |seed, arenas| {
                    run_singular(&topo, seed, &mut arenas.sync)
                });
                let mut row = summarize_singular(family, &topo, &cells, ws);
                let slowest = cells.iter().map(|c| c.secs).fold(0.0, f64::max);
                row.push(format!("{slowest:.2}"));
                row.push(peak_rss_mb().map_or_else(|| "n/a".to_string(), |mb| format!("{mb:.0}")));
                row
            }));
        }
    }

    let singular_columns = [
        "family",
        "n",
        "m",
        "D",
        "rounds",
        "≤ 3D+12",
        "msgs",
        "≤ 24m",
        "msgs/m",
        "success",
    ];
    let mut table_a = Table::new(singular_columns.to_vec());
    table_a.title(format!(
        "Grid A: singularly-optimal LE on general graphs ({} seeds/cell)",
        seed_list.len()
    ));
    let mut restored = 0;
    for handle in grid_a {
        match runner.wait(handle) {
            Some(row) => {
                table_a.add_row(row);
            }
            None => restored += 1,
        }
    }
    println!("{table_a}");

    let mut table_b = Table::new(vec!["baseline", "n", "m", "D", "success"]);
    table_b.title(
        "Grid B: clique-born baselines on d ≈ 2√(n·ln n) expanders (reported, not asserted)"
            .to_string(),
    );
    for handle in grid_b {
        match runner.wait(handle) {
            Some(row) => {
                table_b.add_row(row);
            }
            None => restored += 1,
        }
    }
    println!("{table_b}");

    let mut table_c =
        Table::new([&singular_columns[..], &["s/trial (max)", "peak RSS MB"]].concat());
    table_c.title("Grid C: singularly-optimal LE at a million nodes (2 seeds/cell)".to_string());
    for handle in grid_c {
        match runner.wait(handle) {
            Some(row) => {
                table_c.add_row(row);
            }
            None => restored += 1,
        }
    }
    println!("{table_c}");
    if restored > 0 {
        println!("({restored} row(s) restored from a checkpointed run; see the CSV)");
    }
    println!(
        "Grids A and C held the singular envelopes (unique leader every seed, \
         messages ≤ {MSG_FACTOR}·m, rounds ≤ 3·D + {ROUND_SLACK}) on every topology."
    );
    runner.finish();
}

//! Reproduces the mechanics of the Theorem 3.8 / Lemma 3.9 lower bound:
//! runs the paper's own deterministic algorithm under the adaptive
//! component adversary and reports, per round, the largest
//! communication-graph component against the `2^{σ_r}` envelope, plus the
//! two structural invariants of the proof — every component stays inside
//! one adversary block (Property A), and no component can cover a majority
//! of the clique before the bound's round threshold.

use clique_model::trace::{SharedSink, Tracer, ALL_CLASSES};
use clique_model::NodeIndex;
use clique_sync::{HaltReason, NullObserver};
use le_analysis::table::fmt_count;
use le_analysis::Table;
use le_bench::{sweep, sync_sim, unit_trace, SweepRunner};
use le_bounds::adversary::ComponentAdversary;
use le_bounds::commgraph::CommGraph;
use le_bounds::formulas;
use leader_election::sync::improved_tradeoff;

fn main() {
    let ns = sweep(&[256usize, 1024, 4096], &[64, 256]);
    let fs = sweep(&[2.0f64, 4.0, 8.0], &[2.0, 8.0]);

    let mut runner = SweepRunner::new(
        "exp_lb_tradeoff",
        &[
            "n",
            "f",
            "round",
            "largest_component",
            "envelope_2_sigma",
            "max_block",
            "components_within_blocks",
        ],
    );

    let mut handles = Vec::new();
    for &n in &ns {
        for &f in &fs {
            // ℓ chosen so the algorithm's own message budget roughly
            // respects n·f: messages ≈ ℓ·n^{1+2/(ℓ+1)} ⇒ f ≈ ℓ·n^{2/(ℓ+1)}.
            // A mid-sized ℓ keeps several rounds to observe.
            let ell = 7;
            handles.push(runner.task(format!("n={n} f={f} ell={ell}"), move |ws| {
                let cfg = improved_tradeoff::Config::with_rounds(ell);
                let (adv, probe) = ComponentAdversary::new(n, f);
                let mut graph = CommGraph::new(n);
                // One structural trial per (n, f) cell: the adversary is
                // deterministic, so there is no seed dimension.
                let rows = ws.cell_once(format!("n={n} f={f} ell={ell}"), |arenas| {
                    let arena = &mut arenas.sync;
                    // A sink given to the builder replaces the unit's
                    // trace sink, so each event taken from it is passed on
                    // to a tracer over that sink, which keeps the
                    // `LE_TRACE` classes.
                    let sink = SharedSink::new();
                    let mut env_trace = unit_trace()
                        .map_or_else(Tracer::off, |s| Tracer::with_sink(s, ALL_CLASSES));
                    let mut sim = sync_sim(n)
                        .seed(1)
                        .resolver(Box::new(adv))
                        .trace(Box::new(sink.clone()))
                        .build_in(arena, |id, n| improved_tradeoff::Node::new(id, n, cfg))
                        .expect("valid configuration");
                    let mut rows: Vec<(usize, usize, f64, usize, bool)> = Vec::new();
                    let mut round = 0usize;
                    loop {
                        round += 1;
                        let more = sim.step(&mut NullObserver).expect("no resolver faults");
                        let events = sink.take();
                        graph.record_trace(&events);
                        events.into_iter().for_each(|ev| env_trace.emit(ev));
                        // Definition 3.1: the round-(r+1) graph contains edges
                        // sent in rounds ≤ r.
                        let largest = graph.largest_component_at(round + 1);
                        let envelope = 2f64.powi(formulas::sigma(f, round + 1) as i32);
                        // Property A: every component is contained in one block.
                        let within = graph.components_at(round + 1).iter().all(|comp| {
                            comp.windows(2).all(|w| probe.same_block(w[0], w[1]))
                                && comp
                                    .first()
                                    .is_none_or(|&u| probe.same_block(u, *comp.last().unwrap()))
                        });
                        rows.push((round, largest, envelope, probe.max_block_size(), within));
                        if !more || round >= ell {
                            break;
                        }
                    }
                    // Return the engine state (port map, buffers) to the arena
                    // for the next cell; the truncated outcome itself is not a
                    // measurement here.
                    let _ = sim.into_outcome_reusing(HaltReason::MaxRounds, arena);
                    sink.take().into_iter().for_each(|ev| env_trace.emit(ev));
                    env_trace.finish();
                    rows
                });

                let mut table = Table::new(vec![
                    "round",
                    "largest component",
                    "2^{σ_r} envelope",
                    "max block",
                    "components ⊆ blocks",
                ]);
                table.title(format!(
                    "Lemma 3.9 adversary, n = {n}, f = {f} (algorithm: Thm 3.10, ℓ = {ell})"
                ));
                let resident = ws.arenas.sync.resident_bytes();
                for &(round, largest, envelope, max_block, within) in &rows {
                    table.add_row(vec![
                        round.to_string(),
                        largest.to_string(),
                        fmt_count(envelope.min(n as f64)),
                        max_block.to_string(),
                        if within {
                            "yes".into()
                        } else {
                            "VIOLATED".into()
                        },
                    ]);
                    ws.record_resident_bytes(resident);
                    ws.emit(&[
                        n.to_string(),
                        f.to_string(),
                        round.to_string(),
                        largest.to_string(),
                        envelope.to_string(),
                        max_block.to_string(),
                        within.to_string(),
                    ]);
                }

                let threshold = formulas::thm38_round_lower_bound(n, f);

                // Structural check (the experiment's pass criterion): verify a
                // majority component cannot appear before the threshold.
                for r in 1..=threshold.floor() as usize {
                    let largest = graph.largest_component_at(r);
                    assert!(
                        largest <= n / 2,
                        "n = {n}, f = {f}: round-{r} component of {largest} nodes \
                         breaches the Theorem 3.8 envelope"
                    );
                }
                // Sanity: nodes exist and the probe agrees with the graph.
                assert!(probe.block_of(NodeIndex(0)) < n);

                format!(
                    "{table}\nTheorem 3.8 round threshold for message budget n·{f}: \
                     {threshold:.2} (no component may reach a majority of {n} nodes \
                     before it)\n"
                )
            }));
        }
    }

    let mut restored = 0;
    for handle in handles {
        match runner.wait(handle) {
            Some(text) => println!("{text}"),
            None => restored += 1,
        }
    }
    if restored > 0 {
        println!("({restored} cell(s) restored from a checkpointed run; see the CSV)");
    }
    runner.finish();
}

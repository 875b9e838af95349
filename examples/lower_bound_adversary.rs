//! Watch the Lemma 3.9 adversary at work: run the paper's own algorithm
//! against the adaptive port-mapping adversary and print, round by round,
//! how the adversary confines communication into blocks — the mechanism
//! behind the Theorem 3.8 lower bound.
//!
//! ```text
//! cargo run --release --example lower_bound_adversary
//! ```

use improved_le::algorithms::sync::improved_tradeoff::{Config, Node};
use improved_le::analysis::Table;
use improved_le::bounds::adversary::ComponentAdversary;
use improved_le::bounds::commgraph::CommGraph;
use improved_le::bounds::formulas;
use improved_le::model::trace::SharedSink;
use improved_le::sync::{NullObserver, SyncSimBuilder};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // `LE_N` overrides the network size (the smoke tests shrink it).
    let n: usize = std::env::var("LE_N")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(512);
    let f = 4.0; // assumed message budget n·f
    let ell = 7;

    let cfg = Config::with_rounds(ell);
    let (adversary, probe) = ComponentAdversary::new(n, f);
    // The communication graph is built from the run's send events.
    let sink = SharedSink::new();
    let mut graph = CommGraph::new(n);
    let mut sim = SyncSimBuilder::new(n)
        .seed(3)
        .resolver(Box::new(adversary))
        .trace(Box::new(sink.clone()))
        .build(|id, n| Node::new(id, n, cfg))?;

    let mut table = Table::new(vec![
        "round",
        "largest component",
        "2^σ_r envelope",
        "adversary blocks",
        "merges so far",
    ]);
    table.title(format!(
        "Improved tradeoff (ℓ = {ell}) vs the Lemma 3.9 adversary, n = {n}, f = {f}"
    ));

    let mut round = 0;
    loop {
        round += 1;
        let more = sim.step(&mut NullObserver)?;
        graph.record_trace(&sink.take());
        let largest = graph.largest_component_at(round + 1);
        let envelope = 2f64
            .powi(formulas::sigma(f, round + 1) as i32)
            .min(n as f64);
        table.add_row(vec![
            round.to_string(),
            largest.to_string(),
            format!("{envelope:.0}"),
            probe.block_count().to_string(),
            probe.merge_events().to_string(),
        ]);
        if !more {
            break;
        }
    }
    println!("{table}");
    println!(
        "Theorem 3.8: with budget n·f(n) = {:.0} messages, no algorithm can \
         finish before round {:.2} — a majority component cannot exist \
         earlier. The election above completed anyway because the algorithm \
         spent more than that budget ({} messages), which is exactly the \
         tradeoff.",
        n as f64 * f,
        formulas::thm38_round_lower_bound(n, f),
        sim.stats().total(),
    );
    Ok(())
}

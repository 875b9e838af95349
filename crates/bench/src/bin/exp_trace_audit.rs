//! Audits end-to-end execution traces against the paper's envelopes —
//! and doubles as the CI schema validator for merged trace files.
//!
//! # Default mode: in-process audit
//!
//! Runs both engines with an in-process [`SharedSink`], pushes every
//! event through the JSONL wire format, parses it back with
//! `le_analysis::trace`, and checks that the *fine structure* of the
//! executions matches the theory:
//!
//! * **Asynchronous** (Algorithm 2, `k = 2`, unit delays): under
//!   `ConstDelay::max()` every hop costs exactly one time unit, so the
//!   message-causality critical path is a lower-bound witness for the
//!   clock — its depth must fit under the same `k + 8` (+ finite-size
//!   slack) envelope Theorem 5.1 puts on elapsed time.
//! * **Synchronous** (Theorem 3.10 tradeoff, round budget ℓ): causality
//!   cannot outrun rounds — a message sent in round `r` is acted on in
//!   round `r + 1` at the earliest, so critical-path depth is bounded by
//!   the round count, which the algorithm pins to exactly ℓ.
//!
//! Both audits also pin conservation laws (every fault-free send is
//! delivered; the halt event's message total matches `MessageStats`) and
//! writer/parser agreement (the strict parser accepts every engine-emitted
//! line, count-for-count). The binary aborts on any violation.
//!
//! # `--check <file...>`: trace-file validation
//!
//! Schema-validates merged `results/*.trace.jsonl` files (CI runs this
//! after an `LE_TRACE` smoke sweep) and prints a rollup summary per file.
//! Exits non-zero on the first malformed line.

use clique_async::{AsyncWakeSchedule, ConstDelay, Oblivious};
use clique_model::trace::SharedSink;
use clique_model::NodeIndex;
use le_analysis::stats::success_rate;
use le_analysis::trace::{self, CriticalPath, Rollup};
use le_analysis::Table;
use le_bench::{async_sim, seeds, sweep, sync_sim, SweepRunner};
use le_bounds::formulas;
use leader_election::asynchronous::tradeoff;
use leader_election::sync::improved_tradeoff;

/// Finite-size slack over `k + 8` for Algorithm 2 (same allowance as
/// `exp_adversary_stress`; see the algorithm's module docs).
fn tradeoff_slack(n: usize) -> f64 {
    if n <= 64 {
        6.0
    } else if n <= 256 {
        4.0
    } else {
        3.0
    }
}

/// Per-seed audit result, already checked for structural invariants.
struct AuditCell {
    events: u64,
    sends: u64,
    depth: u64,
    clock: f64,
    ok: bool,
}

/// Serializes engine-captured events through the wire format and parses
/// them back — the writer/parser agreement check every audit rests on.
fn roundtrip(shared: &SharedSink, label: &str) -> (Rollup, CriticalPath, u64) {
    let events = shared.take();
    let mut jsonl = String::new();
    for ev in &events {
        ev.write_jsonl(&mut jsonl);
    }
    let parsed = match trace::parse_trace(&jsonl) {
        Ok(parsed) => parsed,
        Err(e) => panic!("{label}: engine-emitted trace rejected by the parser: {e}"),
    };
    assert_eq!(
        parsed.len(),
        events.len(),
        "{label}: event count changed across the wire"
    );
    let r = trace::rollup(&parsed);
    let cp = trace::critical_path(&parsed);
    assert_eq!(
        cp.unmatched_delivers, 0,
        "{label}: a delivery had no matching send"
    );
    assert_eq!(r.halts, 1, "{label}: expected exactly one halt event");
    assert_eq!(
        r.topologies, 1,
        "{label}: expected exactly one topology-metadata event"
    );
    assert_eq!(
        r.topologies_by_gen,
        vec![("clique".to_string(), 1)],
        "{label}: audits run on the default clique topology"
    );
    (r, cp, parsed.len() as u64)
}

fn audit_async(n: usize, k: usize, seed: u64, arena: &mut clique_async::AsyncArena) -> AuditCell {
    let shared = SharedSink::new();
    let outcome = async_sim(n)
        .seed(seed)
        .adversary(Box::new(Oblivious::new(ConstDelay::max())))
        .wake(AsyncWakeSchedule::single(NodeIndex(0)))
        .trace(Box::new(shared.clone()))
        .build_in(arena, |_, _| tradeoff::Node::new(tradeoff::Config::new(k)))
        .expect("valid configuration")
        .run_reusing(arena)
        .expect("in-range adversary delays");
    let label = format!("async n={n} seed={seed}");
    let (r, cp, events) = roundtrip(&shared, &label);
    assert_eq!(
        r.sends, r.delivers,
        "{label}: fault-free run must deliver every send"
    );
    assert_eq!(
        r.halt_msgs,
        outcome.stats.total(),
        "{label}: halt event disagrees with MessageStats"
    );
    AuditCell {
        events,
        sends: r.sends,
        depth: cp.depth,
        clock: r.max_time,
        ok: outcome.validate_implicit().is_ok(),
    }
}

fn audit_sync(n: usize, ell: usize, seed: u64, arena: &mut clique_sync::SyncArena) -> AuditCell {
    let shared = SharedSink::new();
    let cfg = improved_tradeoff::Config::with_rounds(ell);
    let outcome = sync_sim(n)
        .seed(seed)
        .trace(Box::new(shared.clone()))
        .build_in(arena, |id, n| improved_tradeoff::Node::new(id, n, cfg))
        .expect("valid configuration")
        .run_reusing(arena)
        .expect("no resolver faults");
    let label = format!("sync n={n} seed={seed}");
    let (r, cp, events) = roundtrip(&shared, &label);
    assert!(
        r.delivers <= r.sends,
        "{label}: more deliveries than sends (mail to terminated nodes is swallowed)"
    );
    assert_eq!(
        r.halt_msgs,
        outcome.stats.total(),
        "{label}: halt event disagrees with MessageStats"
    );
    assert_eq!(
        r.max_round as usize, outcome.rounds,
        "{label}: trace round stamps disagree with the outcome"
    );
    AuditCell {
        events,
        sends: r.sends,
        depth: cp.depth,
        clock: outcome.rounds as f64,
        ok: outcome.validate_explicit().is_ok(),
    }
}

/// `--check`: schema-validate trace files and print rollup summaries.
fn check(files: &[String]) -> ! {
    if files.is_empty() {
        eprintln!("usage: exp_trace_audit --check <trace.jsonl>...");
        std::process::exit(2);
    }
    let mut bad = false;
    for path in files {
        match std::fs::read_to_string(path) {
            Err(e) => {
                eprintln!("{path}: {e}");
                bad = true;
            }
            Ok(text) => match trace::parse_trace(&text) {
                Err(e) => {
                    eprintln!("{path}: INVALID — {e}");
                    bad = true;
                }
                Ok(events) => {
                    let r = trace::rollup(&events);
                    // The parser already validated each topo event's graph
                    // metadata (generator tag, degree bound, edge count);
                    // here we only summarize what the file declared.
                    let graphs = if r.topologies_by_gen.is_empty() {
                        String::new()
                    } else {
                        let list: Vec<String> = r
                            .topologies_by_gen
                            .iter()
                            .map(|(g, c)| format!("{g} ×{c}"))
                            .collect();
                        format!("; graphs: {}", list.join(", "))
                    };
                    println!(
                        "{path}: {} event(s) valid — {} send(s), {} deliver(s), \
                         {} wake(s), {} decide(s), {} fault(s), {} run(s){graphs}",
                        r.events, r.sends, r.delivers, r.wakes, r.decides, r.faults, r.halts
                    );
                }
            },
        }
    }
    std::process::exit(if bad { 1 } else { 0 });
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("--check") {
        check(&args[1..]);
    }

    let k = 2usize;
    let ell = 3usize;
    let async_ns = sweep(&[64usize, 256], &[64]);
    let sync_ns = sweep(&[256usize, 1024], &[256]);
    let seed_list = seeds(if le_bench::quick() { 3 } else { 8 });

    let mut runner = SweepRunner::new(
        "exp_trace_audit",
        &[
            "engine",
            "n",
            "events_mean",
            "sends_mean",
            "depth_max",
            "clock_max",
            "bound",
            "success_rate",
        ],
    );

    let mut handles = Vec::new();
    for &n in &async_ns {
        let seed_list = seed_list.clone();
        handles.push(runner.task(format!("async n={n}"), move |ws| {
            let cells = ws.cell(format!("async n={n}"), &seed_list, |seed, arenas| {
                audit_async(n, k, seed, &mut arenas.asynch)
            });
            let bound = formulas::thm51_time_upper_bound(k) + tradeoff_slack(n);
            summarize("async", n, &cells, bound, ws)
        }));
    }
    for &n in &sync_ns {
        let seed_list = seed_list.clone();
        handles.push(runner.task(format!("sync n={n}"), move |ws| {
            let cells = ws.cell(format!("sync n={n}"), &seed_list, |seed, arenas| {
                audit_sync(n, ell, seed, &mut arenas.sync)
            });
            // Causality cannot outrun rounds, and the deterministic
            // algorithm runs exactly ℓ rounds.
            summarize("sync", n, &cells, ell as f64, ws)
        }));
    }

    let mut table = Table::new(vec![
        "engine",
        "n",
        "events",
        "sends",
        "depth (max)",
        "clock (max)",
        "bound",
        "success",
    ]);
    table.title(format!(
        "Trace audit: critical-path depth vs. theory envelopes ({} seeds)",
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
        "All traces parse, conserve messages, and keep causal depth within \
         the Theorem 5.1 / round-budget envelopes."
    );
    runner.finish();
}

/// Aggregates a cell, asserts its envelope, emits the CSV row, and
/// renders the table row.
fn summarize(
    engine: &str,
    n: usize,
    cells: &[AuditCell],
    bound: f64,
    ws: &mut le_bench::Workspace,
) -> Vec<String> {
    let events_mean = cells.iter().map(|c| c.events).sum::<u64>() as f64 / cells.len() as f64;
    let sends_mean = cells.iter().map(|c| c.sends).sum::<u64>() as f64 / cells.len() as f64;
    let ok = success_rate(&cells.iter().map(|c| c.ok).collect::<Vec<_>>());
    // Envelopes cover successful elections; the rare whp failure modes
    // are counted by the success column instead.
    let depth_max = cells
        .iter()
        .filter(|c| c.ok)
        .map(|c| c.depth)
        .max()
        .unwrap_or(0);
    let clock_max = cells
        .iter()
        .filter(|c| c.ok)
        .map(|c| c.clock)
        .fold(0.0f64, f64::max);
    assert!(
        clock_max <= bound,
        "{engine} n={n}: clock {clock_max:.2} exceeds the envelope {bound:.2}"
    );
    assert!(
        depth_max as f64 <= bound,
        "{engine} n={n}: causal depth {depth_max} exceeds the envelope {bound:.2} — \
         a message chain outran the theory bound"
    );
    assert!(
        ok >= 0.75,
        "{engine} n={n}: success rate {ok} below the whp envelope"
    );
    ws.emit(&[
        engine.to_string(),
        n.to_string(),
        events_mean.to_string(),
        sends_mean.to_string(),
        depth_max.to_string(),
        clock_max.to_string(),
        bound.to_string(),
        ok.to_string(),
    ]);
    vec![
        engine.to_string(),
        n.to_string(),
        format!("{events_mean:.0}"),
        format!("{sends_mean:.0}"),
        depth_max.to_string(),
        format!("{clock_max:.2}"),
        format!("{bound:.1}"),
        format!("{:.0}%", ok * 100.0),
    ]
}

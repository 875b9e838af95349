//! One benchmark for the election simulator: four fixed workloads,
//! end-to-end metrics with tracing off, and a traced run that splits
//! trial time across the simulator's layers.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <clique_sublinear|singular_ring|async_clean|async_lossy> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` prints the end-to-end metrics, `--trace 1` the per-layer
//! ones; `perfbench/README.md` lists them all. The last line of standard
//! output is one JSON object. The exit code is non-zero when an output
//! check fails or the run cannot start.

mod calib;
mod probe;
mod report;
mod workload;

use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use clique_model::Topology;
use le_bench::{Arenas, SweepRunner, Task, Workspace};

use calib::Reference;
use report::{json_line, metric, peak_rss_mb, q, ratio, Metric};
use workload::{run_trial, Layers, Spec, Tracing, Trial, Workload};

const USAGE: &str =
    "usage: perfbench --workload <clique_sublinear|singular_ring|async_clean|async_lossy> \
                     --seed <n> --seconds <s> --trace <0|1>";

/// Environment knobs that change what the simulator runs or how the
/// sweep harness behaves. The benchmark refuses to run under any of them.
const KNOBS: [&str; 13] = [
    "LE_BACKEND",
    "LE_TOPOLOGY",
    "LE_TRACE",
    "LE_PROF",
    "LE_TIMING",
    "LE_LOSS",
    "LE_LINK_RATE",
    "LE_QUEUE_CAP",
    "LE_CRASH",
    "LE_CHUNK_THRESHOLD",
    "LE_THREADS",
    "LE_QUICK",
    "LE_ABORT_AFTER_UNITS",
];

/// Topology builds per traced run; `topology.build_ms` is their median.
const TOPOLOGY_REPS: usize = 5;
/// Columns of the sweep CSV each run writes into its private directory.
const COLUMNS: [&str; 8] = [
    "phase",
    "unit",
    "seed_index",
    "build_s",
    "run_s",
    "msgs",
    "rounds",
    "fingerprint",
];

#[derive(Debug)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut raw: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = raw.next() {
        let value = raw.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::parse(&value).ok_or(format!("unknown workload {value:?}"))?);
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err(format!("--seconds must be in (0, 3600], got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value:?}")),
                });
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// What one run found, before printing.
#[derive(Default)]
struct RunReport {
    lines: Vec<String>,
    metrics: Vec<Metric>,
    attempted: u64,
    failed: u64,
    violations: Vec<String>,
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Some(knob) = KNOBS.iter().find(|k| std::env::var_os(k).is_some()) {
        eprintln!("perfbench: refusing to run with {knob} set; it changes the workload");
        return ExitCode::from(2);
    }
    let run_dir = match fresh_run_dir(args.workload) {
        Ok(dir) => dir,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    // The sweep runner latches its results directory on first use; no
    // thread exists yet.
    std::env::set_var("LE_RESULTS_DIR", &run_dir);
    let result = if args.trace {
        layer_run(&args, &run_dir)
    } else {
        end_to_end_run(&args)
    };
    let report = match result {
        Ok(report) => report,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    for line in &report.lines {
        println!("{line}");
    }
    for m in &report.metrics {
        println!("  {:<30} {:>18.6} {}", m.name, m.value, m.unit);
    }
    for v in &report.violations {
        eprintln!("perfbench: output check failed: {v}");
    }
    let correct = report.violations.is_empty();
    println!(
        "{}",
        json_line(correct, report.attempted, report.failed, &report.metrics)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// A fresh private results directory for this workload's sweep, inside
/// the benchmark's own directory. A stale one (and any checkpoint in it)
/// is removed first.
fn fresh_run_dir(workload: Workload) -> Result<PathBuf, String> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join(".runs")
        .join(workload.name());
    if dir.exists() {
        std::fs::remove_dir_all(&dir)
            .map_err(|e| format!("cannot clear {}: {e}", dir.display()))?;
    }
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    Ok(dir)
}

/// Redeems a task, refusing a unit restored from a checkpoint.
fn wait<R: Send + 'static>(runner: &mut SweepRunner, task: Task<R>) -> Result<R, String> {
    let value = runner.wait(task);
    if runner.restored_units() > 0 {
        return Err("a sweep unit was restored from a checkpoint".to_string());
    }
    value.ok_or_else(|| "a sweep unit produced no value".to_string())
}

/// Trials run together, and the wall time they took.
struct Batch {
    wall_s: f64,
    trials: Vec<Trial>,
    /// Reference reps (ns per step) before each trial and after the last;
    /// empty when the batch ran without the reference.
    refs: Vec<f64>,
}

impl Batch {
    /// Trial `i`'s time at the reference's nominal speed.
    fn scaled_secs(&self, i: usize) -> f64 {
        self.trials[i].secs() * calib::scale(self.refs[i], self.refs[i + 1])
    }

    fn fingerprint(&self) -> u64 {
        self.trials.iter().fold(0xcbf2_9ce4_8422_2325, |h, t| {
            (h ^ t.fingerprint).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }

    fn msgs(&self) -> u64 {
        self.trials.iter().map(|t| t.msgs).sum()
    }

    fn rounds(&self) -> f64 {
        self.trials.iter().map(|t| t.rounds).sum()
    }
}

fn emit_rows(ws: &mut Workspace, (phase, unit): (&str, usize), seeds: &[u64], trials: &[Trial]) {
    for (seed, t) in seeds.iter().zip(trials) {
        ws.emit(&[
            phase.to_string(),
            unit.to_string(),
            seed.to_string(),
            format!("{:.6}", t.build_s),
            format!("{:.6}", t.run_s),
            t.msgs.to_string(),
            t.rounds.to_string(),
            format!("{:016x}", t.fingerprint),
        ]);
    }
}

/// How a sweep task runs its trials.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    /// Untraced, through `run_reusing`.
    Plain,
    /// Every layer wrapped, and the first election's trace parsed back.
    Traced,
}

/// One run's sweep: the runner and what every task of it shares.
struct Sweep {
    runner: SweepRunner,
    spec: Spec,
    label: String,
    /// Timed before each trial and after the last, when present.
    reference: Option<Reference>,
}

impl Sweep {
    /// A sweep for `spec` whose trial seeds derive from `seed`.
    fn new(spec: Spec, seed: u64) -> Sweep {
        let name = format!("perfbench_{}", spec.workload.name());
        Sweep {
            runner: SweepRunner::with_threads(&name, &COLUMNS, 1),
            spec,
            label: spec.label(seed),
            reference: None,
        }
    }

    /// Runs `seeds` on `topo` as one sweep task and waits for it.
    /// `fresh` starts from cleared arenas.
    fn batch(
        &mut self,
        topo: &Topology,
        unit: (&'static str, usize),
        seeds: Vec<u64>,
        mode: Mode,
        fresh: bool,
    ) -> Result<Batch, String> {
        let (spec, topo, label) = (self.spec, topo.clone(), self.label.clone());
        let mut reference = self.reference.take();
        let task = self
            .runner
            .task(format!("{} {}", unit.0, unit.1), move |ws| {
                if fresh {
                    ws.arenas = Arenas::default();
                }
                let t0 = Instant::now();
                let mut tracing = (mode == Mode::Traced).then(Tracing::new);
                let mut refs = Vec::new();
                let trials = ws.cell(&label, &seeds, |seed, arenas| {
                    refs.extend(reference.as_mut().map(Reference::rep));
                    run_trial(&spec, &topo, seed, arenas, tracing.as_mut())
                });
                refs.extend(reference.as_mut().map(Reference::rep));
                let wall_s = t0.elapsed().as_secs_f64();
                emit_rows(ws, unit, &seeds, &trials);
                let batch = Batch {
                    wall_s,
                    trials,
                    refs,
                };
                (batch, reference)
            });
        let (batch, reference) = wait(&mut self.runner, task)?;
        self.reference = reference;
        Ok(batch)
    }
}

fn collect(report: &mut RunReport, batch: &Batch) {
    for t in &batch.trials {
        report.violations.extend(t.violations.iter().cloned());
    }
}

fn fingerprint_line(spec: &Spec, seed: u64, batch: &Batch) -> String {
    format!(
        "fingerprint {} seed={seed} trials={} msgs={} rounds={} hash={:016x}",
        spec.workload.name(),
        batch.trials.len(),
        batch.msgs(),
        batch.rounds(),
        batch.fingerprint()
    )
}

/// `--trace 0`: `spec.passes` passes over one fixed seed sequence. Each
/// pass builds the topology and starts from cleared arenas, so every pass
/// does the same work: its first trial is the cold set-up, the rest run
/// in one sweep task on the recycled arenas. Every measured trial is
/// scaled to the reference's nominal speed (`calib`), and a trial's time
/// is its fastest pass (min-of-k), which filters out the contention from
/// other tenants of the machine that the reference did not see.
fn end_to_end_run(args: &Args) -> Result<RunReport, String> {
    let spec = args.workload.spec();
    let mut sweep = Sweep::new(spec, args.seed);
    sweep.reference = Some(Reference::new(calib::steps_for(spec.trial_s)));
    let mut report = RunReport::default();
    let per_pass = spec.trials_per_pass(args.seconds);

    let mut setup_s = Vec::new();
    let mut passes: Vec<Batch> = Vec::new();
    for pass in 0..spec.passes {
        let t0 = Instant::now();
        let topo = spec.topology();
        let unit = ("setup", pass);
        let cold = sweep.batch(&topo, unit, vec![0], Mode::Plain, true)?;
        setup_s.push(t0.elapsed().as_secs_f64() * calib::scale(cold.refs[0], cold.refs[1]));
        collect(&mut report, &cold);
        let mut run = sweep.batch(
            &topo,
            ("pass", pass),
            (1..per_pass).collect(),
            Mode::Plain,
            false,
        )?;
        collect(&mut report, &run);
        run.trials
            .insert(0, cold.trials.into_iter().next().expect("one set-up trial"));
        run.refs.insert(0, cold.refs[0]);
        passes.push(run);
    }
    sweep.runner.finish();

    let first = &passes[0];
    if passes
        .iter()
        .any(|p| p.fingerprint() != first.fingerprint())
    {
        report
            .violations
            .push("a pass over the same seeds changed its outcomes".to_string());
    }
    report.lines.push(fingerprint_line(&spec, args.seed, first));

    // Seed 0 is each pass's set-up; the rest are the measured trials.
    let measured = &first.trials[1..];
    let fastest = |time: &dyn Fn(&Batch, usize) -> f64| -> Vec<f64> {
        (1..first.trials.len())
            .map(|i| {
                passes
                    .iter()
                    .map(|p| time(p, i))
                    .fold(f64::INFINITY, f64::min)
            })
            .collect()
    };
    let times = fastest(&|p, i| p.scaled_secs(i));
    let raw = fastest(&|p, i| p.trials[i].secs());
    let refs: Vec<f64> = passes.iter().flat_map(|p| p.refs.iter().copied()).collect();
    report.lines.push(format!(
        "reference {:.3} ns/step (median of {} reps, nominal {}); unscaled trial_p50_s {:.6}",
        q(&refs, 0.5),
        refs.len(),
        calib::NOMINAL_NS_PER_STEP,
        q(&raw, 0.5)
    ));
    let msgs: u64 = measured.iter().map(|t| t.msgs).sum();
    let rounds: f64 = measured.iter().map(|t| t.rounds).sum();
    let trials = measured.len() as f64;
    let trial_s: f64 = times.iter().sum();
    let all = passes.iter().flat_map(|p| &p.trials[1..]);
    report.attempted = all.clone().map(|t| t.elections).sum();
    report.failed = all.map(|t| t.failed).sum();
    report.metrics = vec![
        metric("setup_s", q(&setup_s, 0.5), "s"),
        metric("wall_s", trial_s, "s"),
        metric("trial_p50_s", q(&times, 0.5), "s"),
        metric("ns_per_msg", ratio(trial_s * 1e9, msgs as f64), "ns"),
        metric(
            "peak_rss_mb",
            peak_rss_mb()? - calib::TABLE_BYTES as f64 / 1048576.0,
            "MB",
        ),
        metric(
            "success_frac",
            1.0 - ratio(report.failed as f64, report.attempted as f64),
            "frac",
        ),
        metric("msgs_per_trial", msgs as f64 / trials, "count"),
        metric("sim_rounds", rounds / trials, "rounds"),
    ];
    Ok(report)
}

/// `--trace 1`: the first trials untraced, then the same trials traced
/// with every layer wrapped, each pass from cleared arenas so both see
/// the same arena history; per-layer metrics from the traced pass.
fn layer_run(args: &Args, run_dir: &Path) -> Result<RunReport, String> {
    let spec = args.workload.spec();
    let mut report = RunReport::default();

    let mut topo_ms = Vec::new();
    for _ in 0..TOPOLOGY_REPS {
        let t0 = Instant::now();
        let topo = std::hint::black_box(spec.topology());
        topo_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        drop(topo);
    }
    let topo = spec.topology();

    let mut sweep = Sweep::new(spec, args.seed);
    let seeds: Vec<u64> = (0..spec.traced_trials(args.seconds)).collect();
    let plain = sweep.batch(&topo, ("untraced", 0), seeds.clone(), Mode::Plain, true)?;
    collect(&mut report, &plain);
    let traced = sweep.batch(&topo, ("traced", 0), seeds, Mode::Traced, true)?;
    collect(&mut report, &traced);
    sweep.runner.finish();

    // Transparency: the wrapped, step-driven run is the same execution.
    for (i, (p, t)) in plain.trials.iter().zip(&traced.trials).enumerate() {
        if p.fingerprint != t.fingerprint {
            report.violations.push(format!(
                "traced trial {i} differs from the untraced one ({} vs {} messages)",
                t.msgs, p.msgs
            ));
        }
    }
    report
        .lines
        .push(fingerprint_line(&spec, args.seed, &plain));
    write_spans(run_dir, &traced)?;

    report.attempted = traced.trials.iter().map(|t| t.elections).sum();
    report.failed = traced.trials.iter().map(|t| t.failed).sum();
    report.metrics = layer_metrics(&spec, &topo_ms, &plain, &traced);
    Ok(report)
}

fn layer_metrics(spec: &Spec, topo_ms: &[f64], plain: &Batch, traced: &Batch) -> Vec<Metric> {
    let mut l = Layers::default();
    for t in &traced.trials {
        l.add(&t.layers);
    }
    let trials = traced.trials.len() as f64;
    let elections = l.elections as f64;
    let build_s: f64 = traced.trials.iter().map(|t| t.build_s).sum();
    let drive_s: f64 = traced.trials.iter().map(|t| t.run_s).sum();
    let trial_ns = (build_s + drive_s + l.reset_s) * 1e9;
    let resolve_ns = l.resolve_s * 1e9;
    let ports_ns = resolve_ns + l.choose.total_ns();
    let (node_ns, adv_ns, emit_ns) = (
        l.handlers.total_ns(),
        l.adversary.total_ns(),
        l.emit.total_ns(),
    );
    let self_ns = drive_s * 1e9 - ports_ns - node_ns - adv_ns - emit_ns;
    let steps = l.steps as f64;
    let sync = spec.workload.is_sync();
    let engine = |v: f64, on: bool| if on { v } else { 0.0 };
    let f = &l.faults;
    let wire = (f.payloads + f.retransmits + f.acks) as f64;
    let plain_s: f64 = plain.trials.iter().map(|t| t.secs()).sum();
    let plain_run_s: f64 = plain.trials.iter().map(|t| t.run_s).sum();
    let plain_build_s: f64 = plain.trials.iter().map(|t| t.build_s).sum();
    let plain_elections: u64 = plain.trials.iter().map(|t| t.elections).sum();
    let spanned_s = traced
        .trials
        .iter()
        .map(|t| t.build_s + t.run_s + t.layers.reset_s + t.layers.replay_s + t.layers.parse_s)
        .sum::<f64>();
    let memo = (l.counters.memo_hits + l.counters.memo_misses) as f64;
    vec![
        metric("ports.resolve_calls", l.resolves as f64 / trials, "count"),
        metric(
            "ports.fresh_frac",
            ratio(l.fresh as f64, l.resolves as f64),
            "frac",
        ),
        metric("ports.choose_ns", l.choose.ns_per_call(), "ns"),
        metric(
            "ports.resolve_ns",
            ratio(resolve_ns, l.resolves as f64),
            "ns",
        ),
        metric(
            "ports.reset_ms",
            ratio(l.ports_reset_s * 1e3, elections),
            "ms",
        ),
        metric(
            "ports.resident_mb",
            l.resident_bytes as f64 / 1048576.0,
            "MB",
        ),
        metric(
            "ports.memo_hit_frac",
            ratio(l.counters.memo_hits as f64, memo),
            "frac",
        ),
        metric(
            "ports.table_grows",
            l.counters.table_grows as f64 / trials,
            "count",
        ),
        metric(
            "ports.rows_materialized",
            l.counters.rows_materialized as f64 / trials,
            "count",
        ),
        metric("ports.time_frac", ratio(ports_ns, trial_ns), "frac"),
        metric("sync.rounds", engine(steps / trials, sync), "count"),
        metric(
            "sync.self_ns_per_round",
            engine(ratio(self_ns, steps), sync),
            "ns",
        ),
        metric(
            "sync.mail_frac",
            engine(ratio(l.mail_calls as f64, l.n as f64 * steps), sync),
            "frac",
        ),
        metric(
            "sync.time_frac",
            engine(ratio(self_ns, trial_ns), sync),
            "frac",
        ),
        metric("async.events", engine(steps / trials, !sync), "count"),
        metric(
            "async.self_ns_per_event",
            engine(ratio(self_ns, steps), !sync),
            "ns",
        ),
        metric(
            "async.time_frac",
            engine(ratio(self_ns, trial_ns), !sync),
            "frac",
        ),
        metric(
            "adversary.calls",
            l.adversary.calls as f64 / trials,
            "count",
        ),
        metric("adversary.delay_ns", l.adversary.ns_per_call(), "ns"),
        metric("adversary.time_frac", ratio(adv_ns, trial_ns), "frac"),
        metric("network.wire_msgs", wire / trials, "count"),
        metric(
            "network.retransmits",
            f.retransmits as f64 / trials,
            "count",
        ),
        metric("network.acks", f.acks as f64 / trials, "count"),
        metric("network.drops", f.drops() as f64 / trials, "count"),
        metric(
            "network.goodput_frac",
            ratio(f.goodput as f64, wire),
            "frac",
        ),
        metric("node.calls", l.handlers.calls as f64 / trials, "count"),
        metric("node.ns_per_call", l.handlers.ns_per_call(), "ns"),
        metric("node.time_frac", ratio(node_ns, trial_ns), "frac"),
        metric("topology.build_ms", q(topo_ms, 0.5), "ms"),
        metric("trace.events", l.emit.calls as f64 / trials, "count"),
        metric(
            "trace.bytes_per_event",
            ratio(l.trace_bytes as f64, l.emit.calls as f64),
            "B",
        ),
        metric("trace.emit_ns", l.emit.ns_per_call(), "ns"),
        metric(
            "trace.overhead_frac",
            ratio(trial_ns, plain_s * 1e9) - 1.0,
            "frac",
        ),
        metric("trace.time_frac", ratio(emit_ns, trial_ns), "frac"),
        metric(
            "analysis.parse_ns_per_event",
            ratio(l.parse_s * 1e9, l.parsed_events as f64),
            "ns",
        ),
        metric(
            "sweep.build_ms",
            ratio(plain_build_s * 1e3, plain_elections as f64),
            "ms",
        ),
        metric("sweep.reset_ms", ratio(l.reset_s * 1e3, elections), "ms"),
        metric(
            "sweep.overhead_frac",
            ratio(plain.wall_s - plain_run_s, plain.wall_s),
            "frac",
        ),
        metric(
            "unattributed_frac",
            ratio(traced.wall_s - spanned_s, traced.wall_s),
            "frac",
        ),
    ]
}

/// Writes the traced batch's spans, kept in memory during the run, as
/// one JSON object per line: each trial, its build/run/reset phases, the
/// sampled layers inside the run (estimated totals), the port replay and
/// the trace parse. Starts are offsets within the trial.
fn write_spans(run_dir: &Path, traced: &Batch) -> Result<(), String> {
    let path = run_dir.join("spans.jsonl");
    let mut out = String::new();
    for (i, t) in traced.trials.iter().enumerate() {
        let l = &t.layers;
        let run0 = t.build_s;
        let reset0 = run0 + t.run_s;
        let replay0 = reset0 + l.reset_s;
        let parse0 = replay0 + l.replay_s;
        let mut span = |name: &str, parent: &str, start: f64, dur: f64, calls: u64| {
            out.push_str(&format!(
                "{{\"trial\":{i},\"span\":\"{name}\",\"parent\":\"{parent}\",\
                 \"start_s\":{start:?},\"dur_s\":{dur:?},\"calls\":{calls}}}\n"
            ));
        };
        span("trial", "", 0.0, parse0 + l.parse_s, t.elections);
        span("sweep.build", "trial", 0.0, t.build_s, t.elections);
        span("engine.run", "trial", run0, t.run_s, l.steps);
        for (name, tally) in [
            ("node.handlers", &l.handlers),
            ("ports.choose", &l.choose),
            ("adversary.delay", &l.adversary),
            ("trace.emit", &l.emit),
        ] {
            span(
                name,
                "engine.run",
                run0,
                tally.total_ns() / 1e9,
                tally.calls,
            );
        }
        span("sweep.reset", "trial", reset0, l.reset_s, t.elections);
        span("ports.replay", "trial", replay0, l.replay_s, l.resolves);
        span(
            "ports.resolve",
            "ports.replay",
            replay0,
            l.resolve_s,
            l.resolves,
        );
        span(
            "analysis.parse",
            "trial",
            parse0,
            l.parse_s,
            l.parsed_events,
        );
    }
    let mut file = std::fs::File::create(&path)
        .map_err(|e| format!("cannot create {}: {e}", path.display()))?;
    file.write_all(out.as_bytes())
        .and_then(|()| file.flush())
        .map_err(|e| format!("cannot write {}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(s.split_whitespace().map(String::from))
    }

    #[test]
    fn arguments_parse_and_reject() {
        let a = args("--workload async_clean --seed 7 --seconds 10 --trace 1").unwrap();
        assert_eq!(a.workload, Workload::AsyncClean);
        assert_eq!((a.seed, a.seconds, a.trace), (7, 10.0, true));
        assert!(args("--workload nope --seed 1 --seconds 1 --trace 0").is_err());
        assert!(args("--workload async_clean --seed 1 --seconds 0 --trace 0").is_err());
        assert!(args("--workload async_clean --seed 1 --seconds 1 --trace 2").is_err());
        assert!(args("--workload async_clean --seed 1 --seconds 1").is_err());
        assert!(args("--workload async_clean --seed").is_err());
    }
}

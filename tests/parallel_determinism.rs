//! End-to-end determinism contract for the parallel sweep engine: a real
//! two-algorithm sweep (Las Vegas + the ℓ-round tradeoff algorithm) must
//! produce byte-identical CSVs at every `LE_THREADS` setting, and an
//! interrupted run must resume from its checkpoint to the same bytes.
//!
//! The whole binary runs with `LE_TRACE=all` (see [`private_results_dir`]),
//! and its trials build through `le_bench::sync_sim`, so every sweep here
//! also writes a merged `*.trace.jsonl` — which must obey the same
//! thread-count-invariance and resume contracts as the CSV.

use std::path::PathBuf;
use std::sync::OnceLock;

use le_bench::{results_path, sync_sim, Arenas, SweepRunner, Task};
use leader_election::sync::{improved_tradeoff, las_vegas};

const SEEDS: [u64; 3] = [0, 1, 2];
const NS: [usize; 2] = [32, 64];

/// Route this test binary's CSVs into a private temp directory. `le_bench`
/// reads its knobs once per process, so the env vars must be set before
/// the first `results_path` / `SweepRunner` call in any test.
fn private_results_dir() -> &'static PathBuf {
    static DIR: OnceLock<PathBuf> = OnceLock::new();
    DIR.get_or_init(|| {
        let dir = std::env::temp_dir().join(format!("le_parallel_det_{}", std::process::id()));
        std::env::set_var("LE_RESULTS_DIR", &dir);
        // Full tracing, set before the first SweepRunner reads the knobs:
        // every sweep in this binary then writes a merged trace file,
        // which the tests below hold to the same byte-identity contracts
        // as the CSV.
        std::env::set_var("LE_TRACE", "all");
        dir
    })
}

fn trace_text(exp: &str) -> String {
    std::fs::read_to_string(results_path(&format!("{exp}.trace.jsonl"))).unwrap()
}

fn run_las_vegas(n: usize, seed: u64, arenas: &mut Arenas) -> u64 {
    let outcome = sync_sim(n)
        .seed(seed)
        .build_in(&mut arenas.sync, |id, _| {
            las_vegas::Node::new(id, las_vegas::Config::default())
        })
        .expect("valid configuration")
        .run_reusing(&mut arenas.sync)
        .expect("no resolver faults");
    outcome.validate_explicit().expect("Las Vegas never fails");
    outcome.stats.total()
}

fn run_tradeoff(n: usize, seed: u64, arenas: &mut Arenas) -> u64 {
    let cfg = improved_tradeoff::Config::with_rounds(3);
    let outcome = sync_sim(n)
        .seed(seed)
        .build_in(&mut arenas.sync, |id, n| {
            improved_tradeoff::Node::new(id, n, cfg)
        })
        .expect("valid configuration")
        .run_reusing(&mut arenas.sync)
        .expect("no resolver faults");
    outcome.stats.total()
}

fn submit(runner: &mut SweepRunner) -> Vec<Task<u64>> {
    let mut tasks = Vec::new();
    for &n in &NS {
        for alg in ["las_vegas", "tradeoff"] {
            tasks.push(runner.task(format!("n={n} alg={alg}"), move |ws| {
                let msgs = ws.cell(
                    format!("n={n} alg={alg}"),
                    &SEEDS,
                    |seed, arenas| match alg {
                        "las_vegas" => run_las_vegas(n, seed, arenas),
                        _ => run_tradeoff(n, seed, arenas),
                    },
                );
                let total: u64 = msgs.iter().sum();
                ws.emit(&[n.to_string(), alg.to_string(), total.to_string()]);
                total
            }));
        }
    }
    tasks
}

fn run_sweep(exp: &str, threads: usize) -> String {
    private_results_dir();
    let mut runner = SweepRunner::with_threads(exp, &["n", "algorithm", "messages"], threads);
    for task in submit(&mut runner) {
        assert!(
            runner.wait(task).is_some(),
            "fresh run must compute every unit"
        );
    }
    runner.finish();
    std::fs::read_to_string(results_path(&format!("{exp}.csv"))).unwrap()
}

#[test]
fn csv_bytes_are_thread_count_invariant() {
    let baseline = run_sweep("par_det_t1", 1);
    assert!(baseline.lines().count() > 1, "sweep produced data rows");
    for threads in [2usize, 4] {
        let text = run_sweep(&format!("par_det_t{threads}"), threads);
        assert_eq!(baseline, text, "CSV bytes drifted at LE_THREADS={threads}");
    }
}

#[test]
fn trace_bytes_are_thread_count_invariant() {
    run_sweep("par_tr_t1", 1);
    let baseline = trace_text("par_tr_t1");
    assert!(!baseline.is_empty(), "traced sweep captured events");
    // The merged trace must also be a valid JSONL document end to end.
    let events = improved_le::analysis::trace::parse_trace(&baseline)
        .expect("merged trace passes the strict schema validator");
    assert!(!events.is_empty());
    for threads in [2usize, 4] {
        let exp = format!("par_tr_t{threads}");
        run_sweep(&exp, threads);
        assert_eq!(
            baseline,
            trace_text(&exp),
            "trace bytes drifted at LE_THREADS={threads}"
        );
    }
}

#[test]
fn killed_sweep_resumes_to_identical_bytes() {
    let exp = "par_det_resume";
    let uninterrupted = run_sweep("par_det_full", 2);

    // Simulate a crash: wait for half the tasks so their rows are durable,
    // then drop the runner without finish() — the checkpoint survives.
    {
        private_results_dir();
        let mut runner = SweepRunner::with_threads(exp, &["n", "algorithm", "messages"], 2);
        let tasks = submit(&mut runner);
        for task in tasks.into_iter().take(2) {
            assert!(runner.wait(task).is_some());
        }
    }
    assert!(
        results_path(&format!("{exp}.ckpt")).exists(),
        "an interrupted sweep leaves its checkpoint behind"
    );

    // The rerun restores the durable prefix and computes the rest.
    {
        let mut runner = SweepRunner::with_threads(exp, &["n", "algorithm", "messages"], 2);
        let tasks = submit(&mut runner);
        let restored = tasks
            .into_iter()
            .map(|t| runner.wait(t))
            .filter(|r| r.is_none())
            .count();
        assert!(restored >= 2, "the durable prefix is not recomputed");
        runner.finish();
    }
    assert!(
        !results_path(&format!("{exp}.ckpt")).exists(),
        "finish removes the checkpoint"
    );

    // CSVs carry no experiment name, so bytes from the two runs compare 1:1.
    let resumed = std::fs::read_to_string(results_path(&format!("{exp}.csv"))).unwrap();
    assert_eq!(
        uninterrupted, resumed,
        "resumed CSV differs from an uninterrupted run"
    );
    // The merged trace resumed from its durable prefix to the same bytes.
    assert_eq!(
        trace_text("par_det_full"),
        trace_text(exp),
        "resumed trace differs from an uninterrupted run"
    );
}

//! Shared plumbing for the experiment binaries that regenerate the paper's
//! tables and tradeoff curves.
//!
//! Each binary (`exp_*`) reproduces one evaluation artifact of *Improved
//! Tradeoffs for Leader Election* — see the root README for the index.
//! Run one with
//!
//! ```text
//! cargo run --release -p le_bench --bin exp_tradeoff_det
//! ```
//!
//! Every binary prints a table to stdout and writes a CSV under the
//! results directory (`results/` by default, `LE_RESULTS_DIR` overrides).
//! Set `LE_QUICK=1` to shrink the sweeps (used by the smoke tests),
//! `LE_TIMING=1` to print per-cell wall-clock timings, and `LE_THREADS=N`
//! to fan the sweep's tasks out across `N` worker threads. [`RunEnv`]
//! holds every knob, parsed once per process; the library crates read no
//! environment, so trials build through [`sync_sim`] and [`async_sim`],
//! which apply the knobs to the builders.
//!
//! All binaries drive their Monte-Carlo grids through one [`SweepRunner`]:
//! a deterministic parallel batch engine. A sweep is a sequence of
//! submission-ordered *units* — [`SweepRunner::task`] closures (which run
//! on a worker thread against that worker's recycled [`Workspace`] of
//! simulation arenas) and [`SweepRunner::emit`] literal rows. Units are
//! executed concurrently but merged back **in submission order**, so the
//! output CSV is byte-identical at every thread count. Each `(cell, seed)`
//! pair runs on an independent RNG stream derived from the cell label via
//! [`clique_model::rng::derive_seed`], so trial outcomes are independent
//! of scheduling, thread count, and checkpoint resume.
//!
//! Completed units are durable: rows stream to the CSV incrementally and a
//! sidecar `results/{exp}.ckpt` records the last durable unit, so re-running
//! an interrupted sweep skips completed work and the final CSV is
//! byte-identical to an uninterrupted run. The checkpoint is removed when
//! the sweep completes.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::any::Any;
use std::cell::RefCell;
use std::collections::{HashMap, VecDeque};
use std::ffi::OsString;
use std::io::Write;
use std::marker::PhantomData;
use std::path::PathBuf;
use std::sync::mpsc::{Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::time::Instant;

use clique_async::{AsyncArena, AsyncSimBuilder, FaultPlan, NetworkConfig, Reliability};
use clique_model::ports::PortBackend;
use clique_model::prof::{self, Phase, TrialProfile};
use clique_model::rng::{derive_seed, splitmix64};
use clique_model::trace::{TraceEvent, TraceSink, TraceSpec};
use clique_sync::{SyncArena, SyncSimBuilder};
use le_analysis::stats::quantile;
use le_analysis::CsvWriter;

/// Every knob of a run, parsed once per process ([`RunEnv::get`]).
///
/// This is the one place configuration enters: the library crates read
/// no environment, and [`sync_sim`] / [`async_sim`] hand the builders the
/// store, network and trace sink chosen here.
#[derive(Debug, Clone, PartialEq)]
pub struct RunEnv {
    /// `LE_QUICK` or a `--quick` argument: run the CI-sized sweeps.
    pub quick: bool,
    /// `LE_TIMING`: print per-cell and total wall-clocks.
    pub timing: bool,
    /// `LE_PROF` or `LE_TIMING`: time each trial's build, run and reset
    /// phases, and add the profiler columns to the CSV.
    pub prof: bool,
    /// `LE_THREADS`: sweep worker threads (default 1, clamped to
    /// `1..=1024`).
    pub threads: usize,
    /// `LE_RESULTS_DIR`: where CSVs, traces and checkpoints go (default
    /// `results`, relative to the working directory).
    pub results_dir: PathBuf,
    /// `LE_ABORT_AFTER_UNITS`: exit once this many units are durable in
    /// this run, as a crash would (the resume smoke tests).
    pub abort_after_units: Option<u64>,
    /// `LE_BACKEND`: the port-map store (`dense`, `sparse` or `auto`, the
    /// default).
    pub backend: PortBackend,
    /// `LE_TRACE`: the event classes a sweep writes to
    /// `<exp>.trace.jsonl`; `None` when unset, empty or `0`.
    pub trace: Option<TraceSpec>,
    /// `LE_LOSS`, `LE_LINK_RATE`, `LE_QUEUE_CAP` and `LE_CRASH`: the
    /// network of [`async_sim`]. Setting any of them also turns on the
    /// default [`Reliability`] protocol, and random crashes strike within
    /// 2 time units; with none set the network is transparent.
    pub network: NetworkConfig,
}

/// A malformed knob value. The message names the knob, what it takes and
/// the value it got.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KnobError(pub String);

impl std::fmt::Display for KnobError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for KnobError {}

impl RunEnv {
    /// This process's knobs, read from the environment on first use.
    ///
    /// On a malformed knob it prints the error and exits with status 2;
    /// a bin reads its knobs before it creates any file.
    pub fn get() -> &'static RunEnv {
        static ENV: OnceLock<RunEnv> = OnceLock::new();
        ENV.get_or_init(|| match RunEnv::parse(|knob| std::env::var_os(knob)) {
            Ok(mut env) => {
                env.quick |= std::env::args().any(|a| a == "--quick");
                env
            }
            Err(err) => {
                eprintln!("{err}");
                std::process::exit(2);
            }
        })
    }

    /// Parses the knobs `lookup` returns raw values for (`None` = unset).
    ///
    /// # Errors
    ///
    /// The first of `LE_BACKEND`, `LE_TRACE`, `LE_LOSS`, `LE_LINK_RATE`,
    /// `LE_QUEUE_CAP` and `LE_CRASH` whose value does not parse.
    pub fn parse(lookup: impl Fn(&str) -> Option<OsString>) -> Result<RunEnv, KnobError> {
        let text = |knob: &str| lookup(knob).map(|v| v.to_string_lossy().into_owned());
        let timing = parse_flag(lookup("LE_TIMING"));
        Ok(RunEnv {
            quick: parse_flag(lookup("LE_QUICK")),
            timing,
            prof: timing || parse_flag(lookup("LE_PROF")),
            threads: parse_threads(lookup("LE_THREADS")),
            results_dir: lookup("LE_RESULTS_DIR").map_or_else(|| "results".into(), PathBuf::from),
            abort_after_units: text("LE_ABORT_AFTER_UNITS").and_then(|v| v.parse().ok()),
            backend: text("LE_BACKEND").map_or(Ok(PortBackend::Auto), |v| parse_backend(&v))?,
            trace: text("LE_TRACE").map_or(Ok(None), |v| parse_trace(&v))?,
            network: parse_network(&text)?,
        })
    }

    /// The values that change a sweep's rows or its trace, on one line. A
    /// checkpoint records them, and only a run under the same values
    /// resumes it: otherwise restored rows would precede rows from another
    /// store or network, or the merged trace would lack the restored
    /// units' blocks. `threads` is left out because the bytes do not
    /// depend on it, `abort_after_units` because the resuming run drops
    /// it, and `results_dir` because it locates the checkpoint. The sweep
    /// mode and the column list cover `quick`, `prof` and `timing`.
    fn row_knobs(&self) -> String {
        format!(
            "backend={:?} trace={:?} network={:?}",
            self.backend, self.trace, self.network
        )
    }
}

/// Whether an on/off knob's raw value means on: set, non-empty and not
/// `0`, the rule every on/off knob follows.
fn parse_flag(raw: Option<OsString>) -> bool {
    raw.and_then(|v| v.into_string().ok())
        .is_some_and(|v| !v.is_empty() && v != "0")
}

fn parse_threads(raw: Option<OsString>) -> usize {
    raw.and_then(|v| v.into_string().ok())
        .and_then(|v| v.trim().parse::<usize>().ok())
        .map_or(1, |t| t.clamp(1, 1024))
}

fn parse_backend(raw: &str) -> Result<PortBackend, KnobError> {
    match raw {
        "" => Ok(PortBackend::Auto),
        _ => [PortBackend::Dense, PortBackend::Sparse, PortBackend::Auto]
            .into_iter()
            .find(|b| b.name() == raw)
            .ok_or_else(|| KnobError(format!("LE_BACKEND must be dense|sparse|auto, got {raw:?}"))),
    }
}

fn parse_trace(raw: &str) -> Result<Option<TraceSpec>, KnobError> {
    if raw.is_empty() || raw == "0" {
        return Ok(None);
    }
    TraceSpec::parse(raw).map(Some).map_err(|tok| {
        KnobError(format!(
            "LE_TRACE: unknown event class {tok:?} (expected `all` or a \
             comma-list of round,send,deliver,wake,decide,fault,backend,topo)"
        ))
    })
}

fn parse_network(text: &impl Fn(&str) -> Option<String>) -> Result<NetworkConfig, KnobError> {
    let [loss, rate, cap, crash] =
        ["LE_LOSS", "LE_LINK_RATE", "LE_QUEUE_CAP", "LE_CRASH"].map(text);
    if loss.is_none() && rate.is_none() && cap.is_none() && crash.is_none() {
        return Ok(NetworkConfig::default());
    }
    let mut cfg = NetworkConfig::new().reliable(Reliability::default());
    if let Some(raw) = loss {
        cfg = cfg.loss(parse_fraction(&raw, "LE_LOSS must be a probability")?);
    }
    // `inf` parses to the transparent default, so setting it changes
    // nothing.
    if let Some(raw) = rate {
        cfg = cfg.link_rate(parse_rate(&raw)?);
    }
    if let Some(raw) = cap {
        cfg = cfg.queue_cap(parse_queue_cap(&raw)?);
    }
    if let Some(raw) = crash {
        let frac = parse_fraction(&raw, "LE_CRASH must be a crash fraction")?;
        if frac > 0.0 {
            cfg = cfg.faults(FaultPlan::new().random_crashes(frac, 2.0));
        }
    }
    Ok(cfg)
}

/// A number in `[0, 1)`; `what` names the knob and its meaning in the
/// error.
fn parse_fraction(raw: &str, what: &str) -> Result<f64, KnobError> {
    match raw.trim().parse::<f64>() {
        Ok(p) if (0.0..1.0).contains(&p) => Ok(p),
        _ => Err(KnobError(format!("{what} in [0, 1), got {raw:?}"))),
    }
}

fn parse_rate(raw: &str) -> Result<f64, KnobError> {
    let t = raw.trim();
    if t.eq_ignore_ascii_case("inf") {
        return Ok(f64::INFINITY);
    }
    match t.parse::<f64>() {
        Ok(r) if r > 0.0 && r.is_finite() => Ok(r),
        _ => Err(KnobError(format!(
            "LE_LINK_RATE must be a positive messages-per-unit rate or \"inf\", got {raw:?}"
        ))),
    }
}

fn parse_queue_cap(raw: &str) -> Result<usize, KnobError> {
    let t = raw.trim();
    if t.eq_ignore_ascii_case("inf") {
        return Ok(usize::MAX);
    }
    match t.parse::<usize>() {
        Ok(c) if c >= 1 => Ok(c),
        _ => Err(KnobError(format!(
            "LE_QUEUE_CAP must be a positive message count or \"inf\", got {raw:?}"
        ))),
    }
}

/// Whether the quick (CI-sized) sweep was requested ([`RunEnv::quick`]).
pub fn quick() -> bool {
    RunEnv::get().quick
}

/// Whether per-cell wall-clock reporting was requested
/// ([`RunEnv::timing`]).
pub fn timing() -> bool {
    RunEnv::get().timing
}

/// Picks the full or quick variant of a sweep.
pub fn sweep<T: Clone>(full: &[T], quick_variant: &[T]) -> Vec<T> {
    if quick() {
        quick_variant.to_vec()
    } else {
        full.to_vec()
    }
}

/// Path under the results directory ([`RunEnv::results_dir`], created on
/// demand). The directory is read once per process, so a bin launched
/// from outside the repository root writes all of its artifacts — CSVs
/// and checkpoints alike — to one place.
///
/// # Panics
///
/// Panics if the directory cannot be created — experiments cannot proceed
/// without their output sink.
pub fn results_path(file: &str) -> PathBuf {
    let dir = &RunEnv::get().results_dir;
    std::fs::create_dir_all(dir).expect("cannot create results directory");
    dir.join(file)
}

thread_local! {
    /// The trace block of the sweep unit running on this thread, while
    /// `LE_TRACE` is on.
    static UNIT_TRACE: RefCell<Option<String>> = const { RefCell::new(None) };
}

/// The sink [`unit_trace`] gives: it keeps the `LE_TRACE` classes of one
/// run and appends their JSONL to the unit's block when the run finishes.
struct UnitTrace {
    mask: u8,
    jsonl: String,
}

impl TraceSink for UnitTrace {
    fn event(&mut self, ev: &TraceEvent) {
        if self.mask & ev.class().bit() != 0 {
            ev.write_jsonl(&mut self.jsonl);
        }
    }

    fn flush(&mut self) {
        let jsonl = std::mem::take(&mut self.jsonl);
        UNIT_TRACE.with_borrow_mut(|block| {
            if let Some(block) = block {
                block.push_str(&jsonl);
            }
        });
    }
}

/// A trace sink for one run inside a sweep unit, when `LE_TRACE` is on:
/// it keeps the selected classes and, when the run finishes, appends them
/// to the unit's block of `<exp>.trace.jsonl`, which the runner merges in
/// submission order. `None` outside a unit or with tracing off.
pub fn unit_trace() -> Option<Box<dyn TraceSink>> {
    let spec = RunEnv::get().trace?;
    let in_unit = UNIT_TRACE.with_borrow(Option::is_some);
    in_unit.then(|| {
        Box::new(UnitTrace {
            mask: spec.mask,
            jsonl: String::new(),
        }) as Box<dyn TraceSink>
    })
}

/// A synchronous builder for `n` nodes under this run's knobs: the
/// `LE_BACKEND` store and, in a traced sweep unit, the [`unit_trace`]
/// sink. Builder calls after it override either.
pub fn sync_sim(n: usize) -> SyncSimBuilder {
    let builder = SyncSimBuilder::new(n).backend(RunEnv::get().backend);
    match unit_trace() {
        Some(sink) => builder.trace(sink),
        None => builder,
    }
}

/// An asynchronous builder for `n` nodes under this run's knobs: the
/// `LE_BACKEND` store, the [`RunEnv::network`] and, in a traced sweep
/// unit, the [`unit_trace`] sink. Builder calls after it override each.
pub fn async_sim(n: usize) -> AsyncSimBuilder {
    let env = RunEnv::get();
    let builder = AsyncSimBuilder::new(n)
        .backend(env.backend)
        .network(env.network.clone());
    match unit_trace() {
        Some(sink) => builder.trace(sink),
        None => builder,
    }
}

/// The seed list for `count` repetitions.
///
/// These are *seed indices*: [`Workspace::cell`] derives the actual trial
/// seed from the cell label and the index, so every `(cell, seed)` pair
/// runs on an independent RNG stream.
pub fn seeds(count: u64) -> Vec<u64> {
    (0..count).collect()
}

/// Formats a ratio as e.g. `0.83×`.
pub fn ratio(measured: f64, predicted: f64) -> String {
    format!("{:.2}×", measured / predicted)
}

/// The RNG stream identifier of a sweep cell, derived from its label
/// (FNV-1a over the bytes, finished with SplitMix64).
///
/// Stable across thread counts, checkpoint resume, and unrelated cells
/// being added or removed — a cell's trials always replay identically.
pub fn cell_stream(label: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in label.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    splitmix64(h)
}

/// The derived seed of trial `seed_index` of the cell labelled `label` —
/// what [`Workspace::cell`] passes to the trial closure.
pub fn trial_seed(label: &str, seed_index: u64) -> u64 {
    derive_seed(cell_stream(label), seed_index)
}

/// The recycled simulation arenas owned by one sweep worker thread.
///
/// Trial closures receive `&mut Arenas` and build through
/// `build_in`/`run_reusing`, which keeps repeated trials O(touched-state)
/// (perfbench reports the recycled build and reset as `sweep.build_ms` and
/// `sweep.reset_ms`). Each worker owns its own pair, so workers never
/// contend and recycling stays single-threaded.
#[derive(Debug, Default)]
pub struct Arenas {
    /// The synchronous-engine arena.
    pub sync: SyncArena,
    /// The asynchronous-engine arena.
    pub asynch: AsyncArena,
}

impl Arenas {
    fn resident_bytes(&self) -> u64 {
        self.sync.resident_bytes().max(self.asynch.resident_bytes())
    }
}

struct CellTiming {
    label: String,
    trials: u64,
    secs: f64,
    /// Phase-span totals over the cell's trials (all-zero when the
    /// profiler is off).
    profile: TrialProfile,
}

/// The per-worker execution context handed to every [`SweepRunner::task`]
/// closure: recycled arenas, cell timing, CSV row collection, and the
/// peak-resident-bytes tracking for the implicit CSV column.
pub struct Workspace {
    /// The worker's recycled simulation arenas.
    pub arenas: Arenas,
    rows: Vec<Vec<String>>,
    timings: Vec<CellTiming>,
    cells: u64,
    trials: u64,
    peak_resident_bytes: u64,
    /// Per-trial phase profiles collected since the previous
    /// [`Workspace::emit`] (empty while the profiler is off).
    profiles: Vec<TrialProfile>,
}

impl std::fmt::Debug for Workspace {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Workspace")
            .field("arenas", &self.arenas)
            .field("pending_rows", &self.rows.len())
            .finish()
    }
}

impl Workspace {
    fn new() -> Workspace {
        Workspace {
            arenas: Arenas::default(),
            rows: Vec::new(),
            timings: Vec::new(),
            cells: 0,
            trials: 0,
            peak_resident_bytes: 0,
            profiles: Vec::new(),
        }
    }

    /// Runs one grid cell: executes `trial` once per seed index, collects
    /// the per-seed results, and records the cell's wall-clock (printed at
    /// merge time when `LE_TIMING=1`).
    ///
    /// Each trial receives the seed **derived** from `(label, seed index)`
    /// via [`trial_seed`], giving every `(cell, seed)` pair an independent
    /// RNG stream regardless of scheduling, thread count, or resume.
    pub fn cell<T>(
        &mut self,
        label: impl AsRef<str>,
        seeds: &[u64],
        mut trial: impl FnMut(u64, &mut Arenas) -> T,
    ) -> Vec<T> {
        let label = label.as_ref();
        let stream = cell_stream(label);
        let profiling = RunEnv::get().prof;
        let t0 = Instant::now();
        let arenas = &mut self.arenas;
        let profiles = &mut self.profiles;
        let results: Vec<T> = seeds
            .iter()
            .map(|&s| {
                if profiling {
                    prof::begin_trial();
                }
                let r = trial(derive_seed(stream, s), arenas);
                if profiling {
                    profiles.push(prof::take_trial());
                }
                r
            })
            .collect();
        self.note_cell(label, t0, seeds.len() as u64);
        results
    }

    /// Runs a single-trial cell (for deterministic experiments with no
    /// seed dimension), timing it like [`Workspace::cell`].
    pub fn cell_once<T>(&mut self, label: impl AsRef<str>, f: impl FnOnce(&mut Arenas) -> T) -> T {
        let profiling = RunEnv::get().prof;
        let t0 = Instant::now();
        if profiling {
            prof::begin_trial();
        }
        let result = f(&mut self.arenas);
        if profiling {
            self.profiles.push(prof::take_trial());
        }
        self.note_cell(label.as_ref(), t0, 1);
        result
    }

    fn note_cell(&mut self, label: &str, t0: Instant, trials: u64) {
        self.cells += 1;
        self.trials += trials;
        self.record_resident_bytes(self.arenas.resident_bytes());
        // The cell's span totals are the tail of `profiles` — the entries
        // this cell just pushed (one per trial when the profiler is on).
        let mut profile = TrialProfile::default();
        let tail = self.profiles.len().saturating_sub(trials as usize);
        for p in &self.profiles[tail..] {
            profile.add(p);
        }
        self.timings.push(CellTiming {
            label: label.to_string(),
            trials,
            secs: t0.elapsed().as_secs_f64(),
            profile,
        });
    }

    /// Reports backend-observed resident bytes for the implicit
    /// `peak_resident_bytes` CSV column. [`Workspace::cell`] and
    /// [`Workspace::cell_once`] already report the arena footprint after
    /// every cell; call this only for hand-driven simulations that bypass
    /// the arenas. The peak since the previous [`Workspace::emit`] lands in
    /// that row's column and then resets.
    pub fn record_resident_bytes(&mut self, bytes: u64) {
        self.peak_resident_bytes = self.peak_resident_bytes.max(bytes);
    }

    /// Queues one data row of the task's CSV output, appending the peak
    /// resident bytes observed since the previous row (the implicit
    /// `peak_resident_bytes` column) and resetting the peak. When the
    /// phase profiler is on (`LE_PROF=1` / `LE_TIMING=1`) the implicit
    /// profiler columns — total build seconds, per-trial run-phase
    /// p50/p99, total reset seconds over the trials since the previous
    /// row — are appended too (and the collected profiles reset).
    ///
    /// Rows from all tasks are merged into the experiment CSV **in unit
    /// submission order** by the runner, whatever the thread count.
    pub fn emit<S: AsRef<str>>(&mut self, row: &[S]) {
        let mut full: Vec<String> = row.iter().map(|c| c.as_ref().to_string()).collect();
        full.push(std::mem::take(&mut self.peak_resident_bytes).to_string());
        if RunEnv::get().prof {
            let runs: Vec<f64> = self.profiles.iter().map(|p| p.phase(Phase::Run)).collect();
            let mut totals = TrialProfile::default();
            for p in &self.profiles {
                totals.add(p);
            }
            full.push(format!("{:.6}", totals.phase(Phase::Build)));
            full.push(format!("{:.6}", quantile(&runs, 0.50).unwrap_or(0.0)));
            full.push(format!("{:.6}", quantile(&runs, 0.99).unwrap_or(0.0)));
            full.push(format!("{:.6}", totals.phase(Phase::Reset)));
            self.profiles.clear();
        }
        self.rows.push(full);
    }

    fn begin_unit(&mut self) {
        self.rows.clear();
        self.timings.clear();
        self.cells = 0;
        self.trials = 0;
        self.peak_resident_bytes = 0;
        self.profiles.clear();
    }
}

/// What one completed unit ships back to the merge loop.
struct UnitOutput {
    rows: Vec<Vec<String>>,
    value: Option<Box<dyn Any + Send>>,
    timings: Vec<CellTiming>,
    cells: u64,
    trials: u64,
    /// The unit's `LE_TRACE` JSONL block (empty when tracing is off),
    /// appended to `results/{exp}.trace.jsonl` in submission order.
    trace: String,
}

impl UnitOutput {
    fn literal(row: Vec<String>) -> UnitOutput {
        UnitOutput {
            rows: vec![row],
            value: None,
            timings: Vec::new(),
            cells: 0,
            trials: 0,
            trace: String::new(),
        }
    }
}

enum Done {
    Ok(u64, UnitOutput),
    Panicked(u64, String),
}

type Job = (u64, Box<dyn FnOnce(&mut Workspace) -> UnitOutput + Send>);

struct JobQueue {
    jobs: Mutex<(VecDeque<Job>, bool)>,
    ready: Condvar,
}

impl JobQueue {
    fn push(&self, job: Job) {
        let mut guard = self.jobs.lock().expect("job queue poisoned");
        guard.0.push_back(job);
        self.ready.notify_one();
    }

    fn close(&self) {
        let mut guard = self.jobs.lock().expect("job queue poisoned");
        guard.1 = true;
        guard.0.clear();
        self.ready.notify_all();
    }

    fn pop(&self) -> Option<Job> {
        let mut guard = self.jobs.lock().expect("job queue poisoned");
        loop {
            if let Some(job) = guard.0.pop_front() {
                return Some(job);
            }
            if guard.1 {
                return None;
            }
            guard = self.ready.wait(guard).expect("job queue poisoned");
        }
    }
}

fn panic_message(payload: Box<dyn Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

struct Pool {
    queue: Arc<JobQueue>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl Pool {
    fn spawn(count: usize, tx: &Sender<Done>) -> Pool {
        let queue = Arc::new(JobQueue {
            jobs: Mutex::new((VecDeque::new(), false)),
            ready: Condvar::new(),
        });
        let workers = (0..count)
            .map(|_| {
                let queue = Arc::clone(&queue);
                let tx = tx.clone();
                std::thread::spawn(move || {
                    let mut ws = Workspace::new();
                    while let Some((unit, run)) = queue.pop() {
                        let outcome =
                            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| run(&mut ws)));
                        // The receiver disappears when the runner is
                        // dropped mid-sweep; completed work is simply
                        // discarded then.
                        match outcome {
                            Ok(out) => {
                                let _ = tx.send(Done::Ok(unit, out));
                            }
                            Err(payload) => {
                                let _ = tx.send(Done::Panicked(unit, panic_message(payload)));
                                // A panicked trial may have left the
                                // recycled arenas half-built.
                                ws = Workspace::new();
                            }
                        }
                    }
                })
            })
            .collect();
        Pool { queue, workers }
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        self.queue.close();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

/// A handle to a submitted [`SweepRunner::task`]; redeem it with
/// [`SweepRunner::wait`].
#[derive(Debug)]
#[must_use = "redeem task handles with SweepRunner::wait"]
pub struct Task<R> {
    unit: u64,
    _result: PhantomData<fn() -> R>,
}

const CKPT_VERSION: &str = "le-sweep-ckpt v3";

struct Checkpoint {
    mode: String,
    knobs: String,
    columns: String,
    units: u64,
    rows: u64,
    bytes: u64,
    trace_bytes: u64,
}

impl Checkpoint {
    fn parse(text: &str) -> Option<Checkpoint> {
        let mut lines = text.lines();
        if lines.next()? != CKPT_VERSION {
            return None;
        }
        let mut fields: HashMap<&str, &str> = HashMap::new();
        for line in lines {
            let (key, value) = line.split_once('=')?;
            fields.insert(key, value);
        }
        Some(Checkpoint {
            mode: (*fields.get("mode")?).to_string(),
            knobs: (*fields.get("knobs")?).to_string(),
            columns: (*fields.get("columns")?).to_string(),
            units: fields.get("units")?.parse().ok()?,
            rows: fields.get("rows")?.parse().ok()?,
            bytes: fields.get("bytes")?.parse().ok()?,
            trace_bytes: fields.get("trace_bytes")?.parse().ok()?,
        })
    }
}

fn sweep_mode() -> &'static str {
    if quick() {
        "quick"
    } else {
        "full"
    }
}

/// The shared sweep harness every `exp_*` binary runs on: a deterministic
/// parallel, checkpointable batch engine.
///
/// A sweep is a sequence of submission-ordered **units**:
///
/// * [`SweepRunner::task`] — a closure executed on one of the
///   `LE_THREADS` worker threads against that worker's recycled
///   [`Workspace`]. Inside the task, [`Workspace::cell`] runs one trial
///   per seed (each on its own derived RNG stream) and
///   [`Workspace::emit`] queues CSV rows.
/// * [`SweepRunner::emit`] — a literal, precomputed row (formula-only
///   rows with no trial work).
///
/// Units execute concurrently but their rows are merged into the CSV **in
/// submission order**, each followed by a flush and a checkpoint update,
/// so the CSV is byte-identical at every thread count and a sweep killed
/// mid-flight resumes from its last durable unit (`results/{exp}.ckpt`)
/// with byte-identical final output. One exception: on the sparse store
/// the `peak_resident_bytes` column and the trace's `backend` counters
/// depend on which units shared a worker, since a worker's recycled
/// sparse map keeps its capacity and lifetime counters across units.
/// [`SweepRunner::wait`] redeems a task's return value on the submitting
/// thread — `None` when the unit was restored from a checkpoint instead
/// of executed.
///
/// ```no_run
/// use le_bench::{sync_sim, SweepRunner};
/// # use clique_model::Decision;
/// # use clique_sync::{Context, Received, SyncNode};
/// # struct Quiet { decision: Decision }
/// # impl SyncNode for Quiet {
/// #     type Message = ();
/// #     fn send_phase(&mut self, _ctx: &mut Context<'_, ()>) { self.decision = Decision::Leader; }
/// #     fn receive_phase(&mut self, _: &mut Context<'_, ()>, _: &[Received<()>]) {}
/// #     fn decision(&self) -> Decision { self.decision }
/// # }
///
/// let mut runner = SweepRunner::new("exp_demo", &["n", "messages_mean"]);
/// let mut tasks = Vec::new();
/// for n in [64usize, 256] {
///     tasks.push(runner.task(format!("n={n}"), move |ws| {
///         let msgs = ws.cell(format!("n={n}"), &[0, 1, 2], |seed, arenas| {
///             sync_sim(n)
///                 .seed(seed)
///                 .build_in(&mut arenas.sync, |_, _| Quiet { decision: Decision::Undecided })
///                 .expect("valid configuration")
///                 .run_reusing(&mut arenas.sync)
///                 .expect("no resolver faults")
///                 .stats
///                 .total()
///         });
///         let mean = msgs.iter().sum::<u64>() as f64 / msgs.len() as f64;
///         ws.emit(&[n.to_string(), mean.to_string()]);
///         mean
///     }));
/// }
/// for task in tasks {
///     let _mean = runner.wait(task);
/// }
/// runner.finish();
/// ```
pub struct SweepRunner {
    exp: String,
    columns_joined: String,
    /// This process's [`RunEnv::row_knobs`], which its checkpoints carry.
    knobs: String,
    csv: Option<CsvWriter>,
    csv_path: PathBuf,
    ckpt_path: PathBuf,
    /// The merged `LE_TRACE` sink (`results/{exp}.trace.jsonl`), open only
    /// while tracing is on; blocks land in submission order.
    trace_file: Option<std::fs::File>,
    trace_path: PathBuf,
    trace_bytes: u64,
    started: Instant,
    cells: u64,
    trials: u64,
    rows_written: u64,
    submitted: u64,
    merged: u64,
    /// Units below this index were durable before this run started and
    /// are skipped (checkpoint resume).
    restored: u64,
    pending: HashMap<u64, UnitOutput>,
    resolved: HashMap<u64, Box<dyn Any + Send>>,
    pool: Option<Pool>,
    thread_count: usize,
    labels: HashMap<u64, String>,
    tx: Sender<Done>,
    rx: Receiver<Done>,
}

impl std::fmt::Debug for SweepRunner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SweepRunner")
            .field("exp", &self.exp)
            .field("submitted", &self.submitted)
            .field("merged", &self.merged)
            .field("restored", &self.restored)
            .field("threads", &self.thread_count)
            .finish()
    }
}

impl SweepRunner {
    /// Opens the sweep for experiment `exp` with the given header plus an
    /// implicit trailing `peak_resident_bytes` column, running its tasks
    /// across [`RunEnv::threads`] worker threads.
    ///
    /// The CSV sink is `results/{exp}.csv` (under `LE_RESULTS_DIR` if
    /// set). If a checkpoint sidecar `results/{exp}.ckpt` from an
    /// interrupted compatible run exists, the sweep **resumes**: the
    /// durable row prefix is kept and the corresponding units are skipped;
    /// otherwise the CSV is created fresh.
    ///
    /// # Panics
    ///
    /// Panics if the results directory is not writable — experiments
    /// cannot proceed without their output sink.
    pub fn new(exp: &str, columns: &[&str]) -> SweepRunner {
        SweepRunner::with_threads(exp, columns, RunEnv::get().threads)
    }

    /// [`SweepRunner::new`] with an explicit worker-thread count instead
    /// of the `LE_THREADS` default (used by the determinism tests, which
    /// compare CSV bytes across thread counts within one process).
    pub fn with_threads(exp: &str, columns: &[&str], thread_count: usize) -> SweepRunner {
        let csv_path = results_path(&format!("{exp}.csv"));
        let ckpt_path = results_path(&format!("{exp}.ckpt"));
        let trace_path = results_path(&format!("{exp}.trace.jsonl"));
        let mut columns = columns.to_vec();
        columns.push("peak_resident_bytes");
        if RunEnv::get().prof {
            columns.extend_from_slice(&[
                "prof_build_s",
                "prof_run_p50_s",
                "prof_run_p99_s",
                "prof_reset_s",
            ]);
        }
        let columns_joined = columns.join(",");
        let (tx, rx) = std::sync::mpsc::channel();
        let mut runner = SweepRunner {
            exp: exp.to_string(),
            columns_joined,
            knobs: RunEnv::get().row_knobs(),
            csv: None,
            csv_path,
            ckpt_path,
            trace_file: None,
            trace_path,
            trace_bytes: 0,
            started: Instant::now(),
            cells: 0,
            trials: 0,
            rows_written: 0,
            submitted: 0,
            merged: 0,
            restored: 0,
            pending: HashMap::new(),
            resolved: HashMap::new(),
            pool: None,
            thread_count: thread_count.max(1),
            labels: HashMap::new(),
            tx,
            rx,
        };
        if !runner.try_resume(&columns) {
            let csv = CsvWriter::create(&runner.csv_path, &columns).expect("results is writable");
            runner.csv = Some(csv);
            // A stale checkpoint (e.g. from an incompatible sweep shape)
            // must not shadow the fresh run we are about to record.
            let _ = std::fs::remove_file(&runner.ckpt_path);
            if RunEnv::get().trace.is_some() {
                let tf = std::fs::File::create(&runner.trace_path).expect("results is writable");
                runner.trace_file = Some(tf);
            }
        }
        runner
    }

    /// Attempts to resume from `self.ckpt_path`; returns `true` (with
    /// `csv` opened in append mode and `restored`/`merged` positioned)
    /// only when the checkpoint matches this sweep's shape and the durable
    /// CSV prefix is intact.
    fn try_resume(&mut self, columns: &[&str]) -> bool {
        let Ok(text) = std::fs::read_to_string(&self.ckpt_path) else {
            return false;
        };
        let Some(ckpt) = Checkpoint::parse(&text) else {
            return false;
        };
        if ckpt.mode != sweep_mode()
            || ckpt.knobs != self.knobs
            || ckpt.columns != self.columns_joined
        {
            return false;
        }
        let Ok(file) = std::fs::OpenOptions::new().write(true).open(&self.csv_path) else {
            return false;
        };
        match file.metadata() {
            Ok(meta) if meta.len() >= ckpt.bytes => {}
            _ => return false,
        }
        // Drop any partial tail beyond the last durable unit (rows the
        // interrupted run buffered or wrote without checkpointing).
        if file.set_len(ckpt.bytes).is_err() {
            return false;
        }
        drop(file);
        if RunEnv::get().trace.is_some() {
            // The trace file resumes the same way the CSV does: keep the
            // durable prefix, drop any partial tail, append from there.
            let Ok(tf) = std::fs::OpenOptions::new()
                .write(true)
                .open(&self.trace_path)
            else {
                return false;
            };
            match tf.metadata() {
                Ok(meta) if meta.len() >= ckpt.trace_bytes => {}
                _ => return false,
            }
            if tf.set_len(ckpt.trace_bytes).is_err() {
                return false;
            }
            drop(tf);
            let Ok(tf) = std::fs::OpenOptions::new()
                .append(true)
                .open(&self.trace_path)
            else {
                return false;
            };
            self.trace_file = Some(tf);
            self.trace_bytes = ckpt.trace_bytes;
        }
        let Ok(csv) = CsvWriter::append(&self.csv_path, columns) else {
            return false;
        };
        self.csv = Some(csv);
        self.restored = ckpt.units;
        self.merged = ckpt.units;
        self.rows_written = ckpt.rows;
        println!(
            "{}: resuming from checkpoint — {} unit(s) ({} row(s)) already durable",
            self.exp, ckpt.units, ckpt.rows
        );
        true
    }

    /// Submits one unit of sweep work: `f` runs on a worker thread against
    /// that worker's [`Workspace`] and its queued rows are merged into the
    /// CSV at this unit's submission-order position. The returned handle
    /// yields `f`'s return value via [`SweepRunner::wait`].
    ///
    /// When this unit is already durable in a resumed sweep, `f` is never
    /// executed and [`SweepRunner::wait`] returns `None`.
    pub fn task<R, F>(&mut self, label: impl Into<String>, f: F) -> Task<R>
    where
        R: Send + 'static,
        F: FnOnce(&mut Workspace) -> R + Send + 'static,
    {
        let unit = self.next_unit();
        if unit >= self.restored {
            self.labels.insert(unit, label.into());
            let job: Box<dyn FnOnce(&mut Workspace) -> UnitOutput + Send> = Box::new(move |ws| {
                ws.begin_unit();
                // Collect this unit's traced runs in a block of its own
                // so the runner can merge blocks in submission order.
                UNIT_TRACE.set(RunEnv::get().trace.map(|_| String::new()));
                let value = f(ws);
                let trace = UNIT_TRACE.take().unwrap_or_default();
                UnitOutput {
                    rows: std::mem::take(&mut ws.rows),
                    value: Some(Box::new(value)),
                    timings: std::mem::take(&mut ws.timings),
                    cells: ws.cells,
                    trials: ws.trials,
                    trace,
                }
            });
            if self.pool.is_none() {
                self.pool = Some(Pool::spawn(self.thread_count, &self.tx));
            }
            self.pool
                .as_ref()
                .expect("pool just spawned")
                .queue
                .push((unit, job));
        }
        self.drain_channel_nonblocking();
        self.merge_ready();
        Task {
            unit,
            _result: PhantomData,
        }
    }

    /// Writes one literal data row (no trial work) at this unit's
    /// submission-order position, appending `0` for the implicit
    /// `peak_resident_bytes` column. Rows produced by trials belong in
    /// [`Workspace::emit`] inside a task instead.
    pub fn emit<S: AsRef<str>>(&mut self, row: &[S]) {
        let unit = self.next_unit();
        if unit >= self.restored {
            let mut full: Vec<String> = row.iter().map(|c| c.as_ref().to_string()).collect();
            full.push("0".to_string());
            if RunEnv::get().prof {
                // Literal rows do no trial work; keep the profiler
                // columns aligned with zeros.
                for _ in 0..4 {
                    full.push("0.000000".to_string());
                }
            }
            self.pending.insert(unit, UnitOutput::literal(full));
        }
        self.drain_channel_nonblocking();
        self.merge_ready();
    }

    /// Blocks until `task`'s unit (and every unit submitted before it) is
    /// durable, then returns the task's value — or `None` when the unit
    /// was restored from a checkpoint rather than executed.
    ///
    /// # Panics
    ///
    /// Re-raises a panic from the task closure on the calling thread.
    pub fn wait<R: Send + 'static>(&mut self, task: Task<R>) -> Option<R> {
        while self.merged <= task.unit {
            self.pump_blocking();
        }
        self.resolved.remove(&task.unit).map(|any| {
            *any.downcast::<R>()
                .expect("task value type matches its handle")
        })
    }

    /// Records the number of restored (checkpoint-skipped) units so far —
    /// bins use this to annotate partial stdout reports on resumed runs.
    pub fn restored_units(&self) -> u64 {
        self.restored.min(self.submitted)
    }

    fn next_unit(&mut self) -> u64 {
        let unit = self.submitted;
        self.submitted += 1;
        unit
    }

    fn handle_done(&mut self, done: Done) {
        match done {
            Done::Ok(unit, out) => {
                self.labels.remove(&unit);
                self.pending.insert(unit, out);
            }
            Done::Panicked(unit, msg) => {
                let label = self.labels.remove(&unit).unwrap_or_default();
                panic!("sweep task '{label}' (unit {unit}) panicked: {msg}");
            }
        }
    }

    fn drain_channel_nonblocking(&mut self) {
        while let Ok(done) = self.rx.try_recv() {
            self.handle_done(done);
        }
    }

    fn pump_blocking(&mut self) {
        let done = self
            .rx
            .recv()
            .expect("all sweep workers exited with units outstanding");
        self.handle_done(done);
        self.drain_channel_nonblocking();
        self.merge_ready();
    }

    /// Folds every completed unit that is next in submission order into
    /// the CSV, making it durable (flush + checkpoint) before moving on.
    fn merge_ready(&mut self) {
        while let Some(out) = self.pending.remove(&self.merged) {
            let csv = self.csv.as_mut().expect("csv open until finish");
            for row in &out.rows {
                csv.write_row(row).expect("results is writable");
            }
            let bytes = csv.flush().expect("results is writable");
            // The trace block must be durable before the checkpoint
            // claims this unit, or a crash between the two would resume
            // with the block missing.
            if let Some(tf) = &mut self.trace_file {
                tf.write_all(out.trace.as_bytes())
                    .expect("results is writable");
                tf.flush().expect("results is writable");
                self.trace_bytes += out.trace.len() as u64;
            }
            self.rows_written += out.rows.len() as u64;
            self.cells += out.cells;
            self.trials += out.trials;
            if timing() {
                for t in &out.timings {
                    let p = &t.profile;
                    println!(
                        "LE_TIMING {} cell={} trials={} secs={:.3} build={:.3} run={:.3} reset={:.3}",
                        self.exp,
                        t.label,
                        t.trials,
                        t.secs,
                        p.phase(Phase::Build),
                        p.phase(Phase::Run),
                        p.phase(Phase::Reset),
                    );
                }
            }
            if let Some(value) = out.value {
                self.resolved.insert(self.merged, value);
            }
            self.merged += 1;
            self.write_ckpt(bytes);
            self.maybe_abort_for_test();
        }
    }

    fn write_ckpt(&self, bytes: u64) {
        let text = format!(
            "{CKPT_VERSION}\nmode={}\nknobs={}\ncolumns={}\nunits={}\nrows={}\nbytes={bytes}\ntrace_bytes={}\n",
            sweep_mode(),
            self.knobs,
            self.columns_joined,
            self.merged,
            self.rows_written,
            self.trace_bytes,
        );
        let tmp = self.ckpt_path.with_extension("ckpt.tmp");
        std::fs::write(&tmp, text).expect("results is writable");
        std::fs::rename(&tmp, &self.ckpt_path).expect("results is writable");
    }

    /// Crash-injection hook for the resume smoke tests:
    /// `LE_ABORT_AFTER_UNITS=k` kills the process (skipping destructors,
    /// like a real interruption) once `k` units are durable in this run.
    fn maybe_abort_for_test(&self) {
        if let Some(k) = RunEnv::get().abort_after_units {
            if self.merged >= self.restored.max(k) && self.merged > self.restored {
                eprintln!(
                    "{}: LE_ABORT_AFTER_UNITS={k} — simulating a crash after {} durable units",
                    self.exp, self.merged
                );
                std::process::exit(42);
            }
        }
    }

    /// Blocks until every submitted unit is durable, closes the CSV,
    /// removes the checkpoint sidecar (the sweep is complete — nothing to
    /// resume), and prints the uniform completion summary.
    ///
    /// # Panics
    ///
    /// Panics if flushing the CSV fails, or re-raises a worker panic.
    pub fn finish(mut self) {
        while self.merged < self.submitted {
            if self.pending.contains_key(&self.merged) {
                self.merge_ready();
            } else {
                self.pump_blocking();
            }
        }
        let secs = self.started.elapsed().as_secs_f64();
        self.csv
            .take()
            .expect("csv open until finish")
            .finish()
            .expect("results is writable");
        if let Some(mut tf) = self.trace_file.take() {
            tf.flush().expect("results is writable");
            drop(tf);
            println!(
                "{}: LE_TRACE written to {}",
                self.exp,
                self.trace_path.display()
            );
        }
        let _ = std::fs::remove_file(&self.ckpt_path);
        let resumed = if self.restored > 0 {
            format!(
                ", {} unit(s) restored from checkpoint",
                self.restored_units()
            )
        } else {
            String::new()
        };
        println!(
            "{}: {} cells, {} trials in {secs:.2}s ({} sweep, {} thread(s){resumed}); CSV written to {}",
            self.exp,
            self.cells,
            self.trials,
            sweep_mode(),
            self.thread_count,
            self.csv_path.display()
        );
        if timing() {
            println!(
                "LE_TIMING {} total cells={} trials={} secs={secs:.3}",
                self.exp, self.cells, self.trials
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_picks_by_mode() {
        // quick() is read once per process, so the pick is stable: both
        // calls must agree with the process's mode and with each other.
        let expect_quick = quick();
        let s = sweep(&[1, 2, 3], &[1]);
        assert_eq!(s, if expect_quick { vec![1] } else { vec![1, 2, 3] });
        assert_eq!(
            sweep(&[4, 5], &[6]),
            if expect_quick { vec![6] } else { vec![4, 5] }
        );
        assert_eq!(quick(), expect_quick, "the flag never flips");
        assert_eq!(seeds(3), vec![0, 1, 2]);
        assert_eq!(ratio(3.0, 4.0), "0.75×");
    }

    #[test]
    fn flag_parser_is_on_only_for_a_non_empty_non_zero_value() {
        assert!(!parse_flag(None));
        assert!(!parse_flag(Some("".into())));
        assert!(!parse_flag(Some("0".into())));
        assert!(parse_flag(Some("1".into())));
    }

    #[test]
    fn threads_parser_defaults_and_clamps() {
        assert_eq!(parse_threads(None), 1);
        assert_eq!(parse_threads(Some("0".into())), 1);
        assert_eq!(parse_threads(Some("4".into())), 4);
        assert_eq!(parse_threads(Some(" 8 ".into())), 8);
        assert_eq!(parse_threads(Some("not-a-number".into())), 1);
        assert_eq!(parse_threads(Some("1000000".into())), 1024);
    }

    /// [`RunEnv::parse`] over the given `(knob, value)` pairs alone.
    fn parse_knobs(knobs: &[(&str, &str)]) -> Result<RunEnv, KnobError> {
        RunEnv::parse(|knob| {
            knobs
                .iter()
                .find(|(k, _)| *k == knob)
                .map(|(_, v)| OsString::from(v))
        })
    }

    fn knob_error(knob: &str, value: &str) -> String {
        parse_knobs(&[(knob, value)]).unwrap_err().to_string()
    }

    #[test]
    fn unset_knobs_give_the_library_defaults() {
        let env = parse_knobs(&[]).unwrap();
        assert!(!env.quick && !env.timing && !env.prof);
        assert_eq!(env.threads, 1);
        assert_eq!(env.results_dir, PathBuf::from("results"));
        assert_eq!(env.abort_after_units, None);
        assert_eq!(env.backend, PortBackend::Auto);
        assert_eq!(env.trace, None);
        assert_eq!(env.network, NetworkConfig::default());
        // Empty values mean unset for the store, the trace and the flags.
        let empty = ["LE_QUICK", "LE_TIMING", "LE_PROF", "LE_BACKEND", "LE_TRACE"];
        assert_eq!(parse_knobs(&empty.map(|knob| (knob, ""))).unwrap(), env);
        assert_eq!(parse_knobs(&[("LE_TRACE", "0")]).unwrap(), env);
    }

    #[test]
    fn every_knob_parses_into_its_field() {
        let env = parse_knobs(&[
            ("LE_QUICK", "1"),
            ("LE_TIMING", "1"),
            ("LE_THREADS", "3"),
            ("LE_RESULTS_DIR", "/tmp/out"),
            ("LE_ABORT_AFTER_UNITS", "2"),
            ("LE_BACKEND", "sparse"),
            ("LE_TRACE", "send,fault"),
            ("LE_LOSS", "0.1"),
            ("LE_LINK_RATE", "16"),
            ("LE_QUEUE_CAP", "8"),
            ("LE_CRASH", "0.05"),
        ])
        .unwrap();
        assert!(
            env.quick && env.timing && env.prof,
            "LE_TIMING implies LE_PROF"
        );
        assert_eq!(env.threads, 3);
        assert_eq!(env.results_dir, PathBuf::from("/tmp/out"));
        assert_eq!(env.abort_after_units, Some(2));
        assert_eq!(env.backend, PortBackend::Sparse);
        assert_eq!(env.trace, TraceSpec::parse("send,fault").ok());
        let network = NetworkConfig::new()
            .reliable(Reliability::default())
            .loss(0.1)
            .link_rate(16.0)
            .queue_cap(8)
            .faults(FaultPlan::new().random_crashes(0.05, 2.0));
        assert_eq!(env.network, network);
        // `inf` and a zero crash fraction leave their feature off, but any
        // set network knob turns on the reliability protocol.
        let env = parse_knobs(&[("LE_LINK_RATE", "inf"), ("LE_CRASH", "0")]).unwrap();
        assert_eq!(
            env.network,
            NetworkConfig::new().reliable(Reliability::default())
        );
        assert!(parse_knobs(&[("LE_PROF", "1")]).unwrap().prof);
    }

    #[test]
    fn store_and_trace_knobs_reject_typos() {
        assert_eq!(
            knob_error("LE_BACKEND", "chunked"),
            "LE_BACKEND must be dense|sparse|auto, got \"chunked\""
        );
        assert_eq!(
            knob_error("LE_TRACE", "send,sends"),
            "LE_TRACE: unknown event class \"sends\" (expected `all` or a comma-list of \
             round,send,deliver,wake,decide,fault,backend,topo)"
        );
    }

    #[test]
    fn env_parsers_accept_the_documented_grammar() {
        let (loss, crash) = (
            "LE_LOSS must be a probability",
            "LE_CRASH must be a crash fraction",
        );
        assert_eq!(parse_fraction("0.05", loss), Ok(0.05));
        assert_eq!(parse_fraction(" 0 ", loss), Ok(0.0));
        assert_eq!(parse_rate("32"), Ok(32.0));
        assert_eq!(parse_rate("inf"), Ok(f64::INFINITY));
        assert_eq!(parse_rate("0.5"), Ok(0.5));
        assert_eq!(parse_queue_cap("8"), Ok(8));
        assert_eq!(parse_queue_cap("INF"), Ok(usize::MAX));
        assert_eq!(parse_fraction("0.25", crash), Ok(0.25));
    }

    #[test]
    fn loss_knob_rejects_typos() {
        assert_eq!(
            knob_error("LE_LOSS", "5%"),
            "LE_LOSS must be a probability in [0, 1), got \"5%\""
        );
    }

    #[test]
    fn loss_knob_rejects_out_of_range() {
        assert_eq!(
            knob_error("LE_LOSS", "1.0"),
            "LE_LOSS must be a probability in [0, 1), got \"1.0\""
        );
    }

    #[test]
    fn rate_knob_rejects_zero() {
        assert_eq!(
            knob_error("LE_LINK_RATE", "0"),
            "LE_LINK_RATE must be a positive messages-per-unit rate or \"inf\", got \"0\""
        );
    }

    #[test]
    fn rate_knob_rejects_typos() {
        assert_eq!(
            knob_error("LE_LINK_RATE", "fast"),
            "LE_LINK_RATE must be a positive messages-per-unit rate or \"inf\", got \"fast\""
        );
    }

    #[test]
    fn queue_knob_rejects_zero() {
        assert_eq!(
            knob_error("LE_QUEUE_CAP", "0"),
            "LE_QUEUE_CAP must be a positive message count or \"inf\", got \"0\""
        );
    }

    #[test]
    fn queue_knob_rejects_typos() {
        assert_eq!(
            knob_error("LE_QUEUE_CAP", "-3"),
            "LE_QUEUE_CAP must be a positive message count or \"inf\", got \"-3\""
        );
    }

    #[test]
    fn crash_knob_rejects_out_of_range() {
        assert_eq!(
            knob_error("LE_CRASH", "1.5"),
            "LE_CRASH must be a crash fraction in [0, 1), got \"1.5\""
        );
    }

    #[test]
    fn results_path_creates_directory_and_is_stable() {
        let p = results_path("probe.csv");
        assert!(p.parent().unwrap().exists());
        // The base directory is read once per process.
        assert_eq!(p, results_path("probe.csv"));
    }

    #[test]
    fn cell_streams_are_label_stable_and_distinct() {
        assert_eq!(cell_stream("n=64 alg=a"), cell_stream("n=64 alg=a"));
        assert_ne!(cell_stream("n=64 alg=a"), cell_stream("n=64 alg=b"));
        assert_eq!(trial_seed("n=64 alg=a", 3), trial_seed("n=64 alg=a", 3));
        assert_ne!(trial_seed("n=64 alg=a", 3), trial_seed("n=64 alg=a", 4));
    }

    fn csv_text(exp: &str) -> String {
        std::fs::read_to_string(results_path(&format!("{exp}.csv"))).unwrap()
    }

    fn run_probe_sweep(exp: &str, threads: usize) {
        let mut runner = SweepRunner::with_threads(exp, &["n", "sum"], threads);
        let mut tasks = Vec::new();
        for n in [4u64, 8, 16] {
            tasks.push(runner.task(format!("n={n}"), move |ws| {
                let results = ws.cell(format!("n={n}"), &[0, 1, 2], |seed, _| (n ^ seed) % 100_003);
                let sum: u64 = results.iter().sum();
                if n == 8 {
                    ws.record_resident_bytes(512);
                }
                ws.emit(&[n.to_string(), sum.to_string()]);
                sum
            }));
        }
        runner.emit(&["0", "0"]);
        for t in tasks {
            assert!(runner.wait(t).is_some());
        }
        runner.finish();
    }

    #[test]
    fn sweep_runner_merges_rows_in_submission_order() {
        run_probe_sweep("probe_sweep", 1);
        let text = csv_text("probe_sweep");
        let mut lines = text.lines();
        assert_eq!(lines.next(), Some("n,sum,peak_resident_bytes"));
        let rows: Vec<&str> = lines.collect();
        assert_eq!(rows.len(), 4, "three task rows plus one literal row");
        assert!(rows[0].starts_with("4,"));
        assert!(rows[1].starts_with("8,"));
        assert!(
            rows[1].ends_with(",512"),
            "manual resident-bytes report: {}",
            rows[1]
        );
        assert!(rows[2].starts_with("16,"));
        assert_eq!(rows[3], "0,0,0", "literal rows carry a zero peak column");
        assert!(
            !results_path("probe_sweep.ckpt").exists(),
            "finish removes the checkpoint"
        );
    }

    #[test]
    fn sweep_runner_output_is_thread_count_invariant() {
        run_probe_sweep("probe_threads_a", 1);
        let base = csv_text("probe_threads_a");
        for threads in [2usize, 4] {
            run_probe_sweep("probe_threads_b", threads);
            assert_eq!(
                base,
                csv_text("probe_threads_b"),
                "CSV bytes drifted at {threads} threads"
            );
        }
    }

    #[test]
    fn interrupted_sweep_resumes_byte_identical() {
        let exp = "probe_resume";
        run_probe_sweep(exp, 2);
        let uninterrupted = csv_text(exp);

        // Interrupted run: two of three tasks made durable, then the
        // runner is dropped without finish() — the checkpoint survives.
        {
            let mut runner = SweepRunner::with_threads(exp, &["n", "sum"], 2);
            let mut tasks = Vec::new();
            for n in [4u64, 8, 16] {
                tasks.push(runner.task(format!("n={n}"), move |ws| {
                    let results =
                        ws.cell(format!("n={n}"), &[0, 1, 2], |seed, _| (n ^ seed) % 100_003);
                    let sum: u64 = results.iter().sum();
                    if n == 8 {
                        ws.record_resident_bytes(512);
                    }
                    ws.emit(&[n.to_string(), sum.to_string()]);
                    sum
                }));
            }
            let mut tasks = tasks.into_iter();
            assert!(runner.wait(tasks.next().unwrap()).is_some());
            assert!(runner.wait(tasks.next().unwrap()).is_some());
            // Dropped here with one task and the literal row outstanding.
        }
        assert!(results_path(&format!("{exp}.ckpt")).exists());

        // Resumed run: durable units are skipped (wait returns None).
        {
            let mut runner = SweepRunner::with_threads(exp, &["n", "sum"], 2);
            let mut tasks = Vec::new();
            for n in [4u64, 8, 16] {
                tasks.push(runner.task(format!("n={n}"), move |ws| {
                    let results =
                        ws.cell(format!("n={n}"), &[0, 1, 2], |seed, _| (n ^ seed) % 100_003);
                    let sum: u64 = results.iter().sum();
                    if n == 8 {
                        ws.record_resident_bytes(512);
                    }
                    ws.emit(&[n.to_string(), sum.to_string()]);
                    sum
                }));
            }
            runner.emit(&["0", "0"]);
            let mut restored = 0;
            for t in tasks {
                if runner.wait(t).is_none() {
                    restored += 1;
                }
            }
            assert!(
                restored >= 2,
                "durable tasks must be skipped, got {restored}"
            );
            runner.finish();
        }
        assert_eq!(
            uninterrupted,
            csv_text(exp),
            "resumed CSV must be byte-identical to an uninterrupted run"
        );
        assert!(!results_path(&format!("{exp}.ckpt")).exists());
    }

    #[test]
    fn incompatible_checkpoint_restarts_fresh() {
        let exp = "probe_stale_ckpt";
        // A finished sweep leaves a CSV whose header a stale checkpoint
        // could claim as its durable prefix.
        run_probe_sweep(exp, 1);
        let fresh = csv_text(exp);
        let header = fresh.lines().next().unwrap();
        let env = RunEnv::get();
        let here = env.row_knobs();
        // A network unlike this process's, whatever knobs it runs under.
        let network = if env.network.is_active() {
            NetworkConfig::default()
        } else {
            NetworkConfig::new().loss(0.1)
        };
        let other = RunEnv {
            network,
            ..env.clone()
        }
        .row_knobs();
        // Each checkpoint is complete, and differs from this process only
        // in its columns or in its network; resuming it would keep the
        // header alone and skip the first two units.
        for (knobs, columns) in [(&here, "other"), (&other, header)] {
            std::fs::write(
                results_path(&format!("{exp}.ckpt")),
                format!(
                    "{CKPT_VERSION}\nmode={}\nknobs={knobs}\ncolumns={columns}\nunits=2\nrows=2\nbytes={}\ntrace_bytes=0\n",
                    sweep_mode(),
                    header.len() + 1,
                ),
            )
            .unwrap();
            run_probe_sweep(exp, 1);
            assert_eq!(csv_text(exp), fresh, "resumed {knobs} / {columns}");
        }
    }

    #[test]
    fn worker_panics_propagate_to_wait() {
        let result = std::panic::catch_unwind(|| {
            let mut runner = SweepRunner::with_threads("probe_panic", &["x"], 2);
            let t = runner.task("boom", |_ws| -> u64 { panic!("trial exploded") });
            runner.wait(t)
        });
        let err = result.expect_err("worker panic must reach the caller");
        let msg = panic_message(err);
        assert!(msg.contains("trial exploded"), "message lost: {msg}");
    }
}

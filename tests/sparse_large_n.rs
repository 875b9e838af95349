//! Large-`n` smoke tests. For the hashed port-map backends (sparse and
//! chunked): one Las Vegas trial at `n = 65536` — the largest size the
//! dense store can index, at 32 GiB of tables — must elect a leader within a
//! generous wall-clock budget and a sparse-sized memory footprint. For
//! the synchronous engine's worklists: one `singular` trial on a
//! 65536-node ring, 98 k rounds in which only a few nodes act, must
//! finish within a minute.
//!
//! Ignored by default so tier-1 wall-clock stays flat; CI runs it
//! explicitly (release profile) as the large-n regression gate:
//!
//! ```sh
//! cargo test --release --test sparse_large_n -- --ignored --nocapture
//! ```

use std::time::{Duration, Instant};

use improved_le::algorithms::sync::singular;
use improved_le::model::{PortBackend, Topology};
use improved_le::sync::{SyncArena, SyncSimBuilder};

#[test]
#[ignore = "large-n smoke: run explicitly (CI) in release mode"]
fn sparse_backend_elects_at_n_65536_within_budget() {
    elects_at_n_65536_within_budget(PortBackend::Sparse);
}

#[test]
#[ignore = "large-n smoke: run explicitly (CI) in release mode"]
fn chunked_backend_elects_at_n_65536_within_budget() {
    // A sublinear-message trial leaves every node's degree far below the
    // materialization threshold, so the chunked backend must stay on its
    // sparse path and keep the same touched-state footprint bound.
    elects_at_n_65536_within_budget(PortBackend::Chunked);
}

fn elects_at_n_65536_within_budget(backend: PortBackend) {
    const N: usize = 65536;
    // One-core CI runners are slow; the reference box does one trial in
    // ~1 s. The budget guards against quadratic regressions (a dense-like
    // O(n²) sweep would blow far past it), not against runner jitter.
    const BUDGET: Duration = Duration::from_secs(300);

    let started = Instant::now();
    let mut arena = SyncArena::new();
    let outcome = SyncSimBuilder::new(N)
        .seed(0)
        .backend(backend)
        .build_in(&mut arena, |id, _| {
            improved_le::algorithms::sync::las_vegas::Node::new(
                id,
                improved_le::algorithms::sync::las_vegas::Config::default(),
            )
        })
        .expect("valid configuration")
        .run_reusing(&mut arena)
        .expect("no resolver faults");
    let elapsed = started.elapsed();

    outcome
        .validate_explicit()
        .expect("Las Vegas elects explicitly");
    assert!(outcome.rounds <= 3, "Las Vegas exceeded 3 rounds");

    let resident = arena.resident_bytes();
    let dense = PortBackend::dense_table_bytes(N);
    println!(
        "n = {N} ({backend}): {} messages, {} rounds, {elapsed:?}, {:.1} MB resident \
         (the auto budget prices dense at {:.1} GB)",
        outcome.stats.total(),
        outcome.rounds,
        resident as f64 / 1e6,
        dense as f64 / 1e9,
    );
    assert!(
        elapsed < BUDGET,
        "large-n trial took {elapsed:?}, budget {BUDGET:?}"
    );
    // The whole point of the backend: touched state only. One trial's
    // footprint must sit orders of magnitude below the dense tables.
    assert!(
        resident * 100 < dense,
        "sparse resident {resident} B is not far below dense {dense} B"
    );
}

#[test]
#[ignore = "large-n smoke: run explicitly (CI) in release mode"]
fn singular_elects_on_a_65536_ring_within_budget() {
    // The worklist engine runs this trial in ~0.3 s on a 2-vCPU VM. An
    // engine that scans all n nodes every round needs minutes: 3D rounds
    // of n node visits is 6.4 G visits.
    const BUDGET: Duration = Duration::from_secs(60);
    let topo = Topology::ring(65536).expect("n >= 3");
    let (d, m) = (topo.diameter(), topo.m());

    let started = Instant::now();
    let outcome = SyncSimBuilder::new(topo.n())
        .seed(0)
        .topology(topo)
        .build(|id, _| singular::Node::new(id, singular::Config::default()))
        .expect("valid configuration")
        .run()
        .expect("no resolver faults");
    let elapsed = started.elapsed();

    outcome
        .validate_explicit()
        .expect("singular elects explicitly");
    let msgs = outcome.stats.total();
    println!(
        "singular ring n = 65536: {msgs} messages, {} rounds, {elapsed:?}",
        outcome.rounds
    );
    assert!(
        outcome.rounds <= 3 * d + 12,
        "{} rounds exceed 3·{d} + 12",
        outcome.rounds
    );
    assert!(msgs <= 24 * m, "{msgs} messages exceed 24·{m}");
    assert!(
        elapsed < BUDGET,
        "large-n trial took {elapsed:?}, budget {BUDGET:?}"
    );
}

//! Dense-vs-sparse port-map backend micro-benchmarks.
//! Recorded in `BENCH_sparse_backend.json` / `BENCH_sparse_warm.json` at
//! the repository root (see the runbook in `README.md`).
//!
//! * `sparse_backend_construct` — map construction across sizes: the dense
//!   backend pays `Θ(n²)` eager table initialization, the sparse backend
//!   O(n); past `n = 16384` only the sparse backend is measured (the
//!   dense tables would not fit a sane bench budget).
//! * `sparse_backend_resolve` — the warm resolution hot path (every node
//!   resolves four ports against a recycled map, `RandomResolver`): the
//!   per-operation price of hashed touched-state tables plus the keyed
//!   Feistel permutations (memoized after the first pass), versus dense
//!   flat-array reads. This is the CPU cost the sparse backend trades for
//!   its O(links) memory, and the number `BENCH_sparse_warm.json` pins.
//! * `sparse_backend_sweep_lv_20x16384` — the end-to-end payoff workload:
//!   a 20-seed Las Vegas sweep at `n = 16384` (the largest size where
//!   both backends are practical to compare head-to-head), through one
//!   recycled `SyncArena` each.
//!
//! Two env knobs compensate for the vendored criterion shim's lack of CLI
//! filtering:
//!
//! * `LE_QUICK=1` shrinks every group to a seconds-scale smoke (small `n`,
//!   few samples) — this is what the CI warm-path regression step runs.
//! * `LE_BENCH_ONLY=<substring>[,<substring>...]` runs only the groups
//!   whose name contains one of the given substrings (e.g.
//!   `LE_BENCH_ONLY=resolve` re-measures just the warm path without
//!   paying the ~minutes-long dense constructions elsewhere).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use clique_model::ports::{Port, PortBackend, PortMap, RandomResolver};
use clique_model::rng::rng_from_seed;
use clique_model::NodeIndex;
use clique_sync::{SyncArena, SyncSimBuilder};
use leader_election::sync::las_vegas;

const BACKENDS: [PortBackend; 2] = [PortBackend::Dense, PortBackend::Sparse];

fn quick() -> bool {
    std::env::var_os("LE_QUICK").is_some_and(|v| !v.is_empty())
}

/// `LE_BENCH_ONLY` filter: unset runs everything; otherwise a group runs
/// iff its name contains one of the comma-separated substrings.
fn group_enabled(name: &str) -> bool {
    match std::env::var("LE_BENCH_ONLY") {
        Ok(filter) if !filter.trim().is_empty() => filter
            .split(',')
            .map(str::trim)
            .filter(|pat| !pat.is_empty())
            .any(|pat| name.contains(pat)),
        _ => true,
    }
}

/// The touched-state profile of a sublinear-message trial: every node
/// resolves its first four ports.
fn sparse_trial(map: &mut PortMap, n: usize) -> usize {
    let mut resolver = RandomResolver;
    let mut rng = rng_from_seed(1);
    for u in 0..n {
        for p in 0..4 {
            map.resolve(NodeIndex(u), Port(p), &mut resolver, &mut rng)
                .unwrap();
        }
    }
    map.link_count()
}

fn bench_construct(c: &mut Criterion) {
    if !group_enabled("sparse_backend_construct") {
        return;
    }
    let mut group = c.benchmark_group("sparse_backend_construct");
    let sizes: &[usize] = if quick() {
        group.sample_size(3);
        &[1024]
    } else {
        group.sample_size(10);
        &[4096, 16384, 65536]
    };
    for &n in sizes {
        for backend in BACKENDS {
            if backend == PortBackend::Dense && n > 16384 {
                continue;
            }
            group.bench_with_input(BenchmarkId::new(backend.to_string(), n), &n, |b, &n| {
                b.iter(|| PortMap::with_backend(n, backend).unwrap().n())
            });
        }
    }
    group.finish();
}

fn bench_resolve(c: &mut Criterion) {
    if !group_enabled("sparse_backend_resolve") {
        return;
    }
    let mut group = c.benchmark_group("sparse_backend_resolve");
    let sizes: &[usize] = if quick() {
        group.sample_size(5);
        &[1024]
    } else {
        group.sample_size(10);
        &[4096, 16384]
    };
    for &n in sizes {
        for backend in BACKENDS {
            group.bench_with_input(BenchmarkId::new(backend.to_string(), n), &n, |b, &n| {
                let mut map = PortMap::with_backend(n, backend).unwrap();
                b.iter(|| {
                    map.reset();
                    sparse_trial(&mut map, n)
                })
            });
        }
    }
    group.finish();
}

fn bench_lv_sweep(c: &mut Criterion) {
    if !group_enabled("sparse_backend_sweep_lv") {
        return;
    }
    let (n, seeds, samples) = if quick() {
        (1024usize, 5u64, 3)
    } else {
        (16384usize, 20u64, 10)
    };
    let mut group = c.benchmark_group(format!("sparse_backend_sweep_lv_{seeds}x{n}"));
    group.sample_size(samples);
    for backend in BACKENDS {
        group.bench_function(backend.to_string(), |b| {
            let mut arena = SyncArena::new();
            b.iter(|| {
                let mut total = 0u64;
                for seed in 0..seeds {
                    total += SyncSimBuilder::new(n)
                        .seed(seed)
                        .backend(backend)
                        .build_in(&mut arena, |id, _| {
                            las_vegas::Node::new(id, las_vegas::Config::default())
                        })
                        .unwrap()
                        .run_reusing(&mut arena)
                        .unwrap()
                        .stats
                        .total();
                }
                total
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_construct, bench_resolve, bench_lv_sweep);
criterion_main!(benches);

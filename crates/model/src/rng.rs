//! Deterministic randomness utilities.
//!
//! Every run of the simulators is reproducible from a single `u64` master
//! seed. Independent random streams (one per node, one for the port
//! resolver, one for the delay scheduler, ...) are derived from the master
//! seed with a SplitMix64 mixer so that streams do not overlap and adding a
//! consumer never perturbs the others.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::ports::OpenTable;

/// Creates a small, fast, deterministic RNG from a 64-bit seed.
///
/// # Example
///
/// ```
/// use clique_model::rng::rng_from_seed;
/// use rand::Rng;
/// let mut a = rng_from_seed(42);
/// let mut b = rng_from_seed(42);
/// assert_eq!(a.gen::<u64>(), b.gen::<u64>());
/// ```
pub fn rng_from_seed(seed: u64) -> SmallRng {
    SmallRng::seed_from_u64(seed)
}

/// SplitMix64 finalizer: a bijective 64-bit mixer with good avalanche.
#[inline]
pub fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Derives a child seed for stream `stream` from `master`.
///
/// Distinct `(master, stream)` pairs give (for practical purposes)
/// independent streams; the same pair always gives the same stream.
///
/// # Example
///
/// ```
/// use clique_model::rng::derive_seed;
/// assert_ne!(derive_seed(1, 0), derive_seed(1, 1));
/// assert_eq!(derive_seed(7, 3), derive_seed(7, 3));
/// ```
#[inline]
pub fn derive_seed(master: u64, stream: u64) -> u64 {
    splitmix64(master ^ splitmix64(stream.wrapping_mul(0xA24B_AED4_963E_E407)))
}

/// Samples `k` distinct values uniformly from `0..universe` without
/// materialising the universe (partial Fisher–Yates on a sparse map).
///
/// The result is in sampling order (itself a uniform random `k`-permutation
/// of a uniform random `k`-subset). Step `i` makes one
/// `gen_range(i..universe)` draw, so a call consumes exactly `k` draws.
/// The displaced entries live in an [`OpenTable`] allocated up front for
/// the at most `k` positions the shuffle touches, so the draw never
/// rehashes and hashes with one multiply.
///
/// # Panics
///
/// Panics if `k > universe`.
///
/// # Example
///
/// ```
/// use clique_model::rng::{rng_from_seed, sample_distinct};
/// let mut rng = rng_from_seed(3);
/// let s = sample_distinct(&mut rng, 1_000_000, 5);
/// assert_eq!(s.len(), 5);
/// let mut t = s.clone();
/// t.sort_unstable();
/// t.dedup();
/// assert_eq!(t.len(), 5, "samples are distinct");
/// ```
pub fn sample_distinct(rng: &mut impl Rng, universe: usize, k: usize) -> Vec<usize> {
    assert!(
        k <= universe,
        "cannot sample {k} distinct values from a universe of {universe}"
    );
    // Sparse Fisher–Yates: conceptually shuffle [0..universe) but only touch
    // the first k positions; `moved` records displaced entries. Positions
    // are below `universe ≤ usize::MAX`, so none is the table's reserved
    // all-ones key.
    let mut moved: OpenTable<u64> = OpenTable::with_capacity(k);
    let at = |moved: &OpenTable<u64>, pos: usize| moved.get(pos as u64).map_or(pos, |v| v as usize);
    let mut out = Vec::with_capacity(k);
    for i in 0..k {
        let j = rng.gen_range(i..universe);
        let value_j = at(&moved, j);
        let value_i = at(&moved, i);
        moved.insert(j as u64, value_i as u64);
        out.push(value_j);
    }
    out
}

/// Returns `true` with probability `p` (clamped to `[0, 1]`).
///
/// The clamped paths — `p <= 0`, `p >= 1`, and a NaN `p` (treated as 0)
/// — consume **no** RNG draw, so a degenerate probability never shifts
/// the caller's draw schedule.
///
/// # Example
///
/// ```
/// use clique_model::rng::{rng_from_seed, coin};
/// let mut rng = rng_from_seed(11);
/// assert!(coin(&mut rng, 1.5), "p >= 1 always succeeds");
/// assert!(!coin(&mut rng, -0.2), "p <= 0 never succeeds");
/// assert!(!coin(&mut rng, f64::NAN), "NaN never succeeds");
/// ```
pub fn coin(rng: &mut impl Rng, p: f64) -> bool {
    // NaN must be rejected explicitly (every NaN comparison is false): the
    // `p <= 0.0` guard alone let NaN fall through to the draw, which
    // burned one RNG value and silently skewed every later draw.
    if p.is_nan() || p <= 0.0 {
        return false;
    }
    if p >= 1.0 {
        return true;
    }
    rng.gen::<f64>() < p
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_is_bijective_on_samples() {
        // Not a full bijectivity proof, but distinct inputs must give
        // distinct outputs on a decent sample.
        let mut seen = std::collections::HashSet::new();
        for i in 0..10_000u64 {
            assert!(seen.insert(splitmix64(i)));
        }
    }

    #[test]
    fn derived_streams_differ() {
        let a = derive_seed(99, 0);
        let b = derive_seed(99, 1);
        let c = derive_seed(100, 0);
        assert_ne!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn sample_distinct_exhausts_universe() {
        let mut rng = rng_from_seed(5);
        let mut s = sample_distinct(&mut rng, 10, 10);
        s.sort_unstable();
        assert_eq!(s, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn sample_distinct_is_unbiased_enough() {
        // Each element of 0..10 should appear roughly 1/10 of the time in
        // position 0 over many trials.
        let mut rng = rng_from_seed(17);
        let mut counts = [0usize; 10];
        let trials = 20_000;
        for _ in 0..trials {
            let s = sample_distinct(&mut rng, 10, 1);
            counts[s[0]] += 1;
        }
        for &c in &counts {
            let freq = c as f64 / trials as f64;
            assert!(
                (freq - 0.1).abs() < 0.02,
                "frequency {freq} too far from 0.1"
            );
        }
    }

    /// The `std` `HashMap` version `sample_distinct` replaced, kept as
    /// the reference its output is pinned to.
    fn sample_distinct_hashmap(rng: &mut impl Rng, universe: usize, k: usize) -> Vec<usize> {
        let mut moved: std::collections::HashMap<usize, usize> = std::collections::HashMap::new();
        let mut out = Vec::with_capacity(k);
        for i in 0..k {
            let j = rng.gen_range(i..universe);
            let value_j = *moved.get(&j).unwrap_or(&j);
            let value_i = *moved.get(&i).unwrap_or(&i);
            moved.insert(j, value_i);
            out.push(value_j);
        }
        out
    }

    #[test]
    fn sample_distinct_matches_the_hashmap_reference() {
        // Same output and same RNG position afterwards: every caller (ID
        // assignment, wake sets, Algorithm 2's port draws, crash victims)
        // sees the stream it saw before.
        let grid = [
            (1, 0),
            (1, 1),
            (10, 10),
            (1023, 96),
            (1023, 1023),
            (21504, 1024),
            (1 << 40, 500),
        ];
        for seed in 0..6 {
            for (universe, k) in grid {
                let mut rng = rng_from_seed(seed);
                let mut reference = rng_from_seed(seed);
                assert_eq!(
                    sample_distinct(&mut rng, universe, k),
                    sample_distinct_hashmap(&mut reference, universe, k),
                    "seed {seed}, {k} of {universe}"
                );
                assert_eq!(
                    rng.gen::<u64>(),
                    reference.gen::<u64>(),
                    "seed {seed}, {k} of {universe}: RNG position moved"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "cannot sample")]
    fn sample_distinct_panics_when_oversampling() {
        let mut rng = rng_from_seed(1);
        let _ = sample_distinct(&mut rng, 3, 4);
    }

    #[test]
    fn coin_clamped_paths_leave_draw_schedule_untouched() {
        // The clamped probabilities must not consume a draw: after any
        // number of them, the RNG is still at the same stream position as
        // an untouched twin. NaN is the regression case — it used to fall
        // through both clamp guards and burn one draw.
        let mut probed = rng_from_seed(1);
        let mut twin = rng_from_seed(1);
        for p in [f64::NAN, 0.0, -0.2, f64::NEG_INFINITY] {
            assert!(!coin(&mut probed, p), "p = {p} must fail");
        }
        for p in [1.0, 1.5, f64::INFINITY] {
            assert!(coin(&mut probed, p), "p = {p} must succeed");
        }
        assert_eq!(
            probed.gen::<u64>(),
            twin.gen::<u64>(),
            "a clamped coin consumed an RNG draw"
        );

        // And an in-range probability consumes exactly one draw.
        let _ = coin(&mut probed, 0.5);
        let schedule: Vec<u64> = (0..4).map(|_| probed.gen()).collect();
        let _ = twin.gen::<f64>();
        let twin_schedule: Vec<u64> = (0..4).map(|_| twin.gen()).collect();
        assert_eq!(
            schedule, twin_schedule,
            "in-range coin must draw exactly once"
        );
    }

    #[test]
    fn coin_respects_extremes_and_is_calibrated() {
        let mut rng = rng_from_seed(23);
        let mut hits = 0;
        let trials = 50_000;
        for _ in 0..trials {
            if coin(&mut rng, 0.3) {
                hits += 1;
            }
        }
        let freq = hits as f64 / trials as f64;
        assert!(
            (freq - 0.3).abs() < 0.02,
            "frequency {freq} too far from 0.3"
        );
    }
}

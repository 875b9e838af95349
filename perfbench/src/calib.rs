//! A fixed reference workload, timed next to every measured trial, that
//! puts a run's timings on one machine-speed scale.
//!
//! The benchmark's host is shared. Other tenants slow the same binary by
//! tens of percent, for seconds or for whole minutes, so the raw trial
//! times of one build spread across runs by more than any useful
//! regression bound. The reference does the kind of work the simulator's
//! hot loops do, integer hashing and independent random reads and writes
//! with many cache misses in flight, and shares no code with the
//! simulator, so no change to the simulator can make it faster or slower.
//! Its table is several times larger than the last-level cache, so nearly
//! every access misses whatever the simulator left in the cache, and its
//! speed does not depend on the workload it runs next to. A trial's time
//! is scaled by how much slower or faster than [`NOMINAL_NS_PER_STEP`] the
//! reference ran just before and just after it.
//!
//! On the 2-vCPU VM the baseline was measured on, the log of a trial's
//! time follows the log of the reference's time with a slope near 1
//! (0.6–1.1 per run, correlation 0.6–0.9), so the scaling removes most
//! of the host's drift without over-correcting.

use std::time::Instant;

/// The speed scaled timings are expressed at: a typical ns per step of
/// [`Reference::rep`] on the 2-vCPU Xeon VM the baseline was measured on.
pub const NOMINAL_NS_PER_STEP: f64 = 17.0;

/// Size of the reference table. It is left out of `peak_rss_mb`.
pub const TABLE_BYTES: usize = 256 << 20;

/// Share of a measured pass the reference reps take.
const SHARE: f64 = 0.1;

/// Steps per rep next to trials of about `trial_s` seconds each.
pub fn steps_for(trial_s: f64) -> u64 {
    (trial_s * SHARE * 1e9 / NOMINAL_NS_PER_STEP) as u64
}

/// The reference workload: a table and a hash stream.
pub struct Reference {
    table: Vec<u64>,
    steps: u64,
    state: u64,
}

impl Reference {
    /// A reference doing `steps` table accesses per rep. The table is
    /// filled here, so no rep pays for first touches.
    pub fn new(steps: u64) -> Reference {
        Reference {
            table: (0..(TABLE_BYTES / 8) as u64).collect(),
            steps: steps.max(1),
            state: 0x2545_F491_4F6C_DD1D,
        }
    }

    /// Runs one rep; returns its time per step in ns.
    pub fn rep(&mut self) -> f64 {
        let mask = self.table.len() - 1;
        let t0 = Instant::now();
        let mut x = self.state;
        for _ in 0..self.steps {
            // splitmix64
            x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = x;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^= z >> 31;
            let slot = &mut self.table[z as usize & mask];
            *slot = slot.wrapping_add(z);
        }
        self.state = std::hint::black_box(x);
        t0.elapsed().as_secs_f64() * 1e9 / self.steps as f64
    }
}

/// How much faster than nominal the machine ran around a trial, from the
/// reference reps (ns per step) taken just before and just after it.
pub fn scale(before: f64, after: f64) -> f64 {
    NOMINAL_NS_PER_STEP / (0.5 * (before + after))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_rep_takes_time_and_scale_is_relative_to_nominal() {
        let mut r = Reference::new(10_000);
        assert!(r.rep() > 0.0);
        let nominal = NOMINAL_NS_PER_STEP;
        assert_eq!(scale(nominal, nominal), 1.0);
        assert_eq!(scale(nominal, 3.0 * nominal), 0.5);
    }
}

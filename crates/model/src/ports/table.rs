//! A purpose-built open-addressing hash table for the sparse backends'
//! packed `u64` keys.
//!
//! The sparse port-map backend stores five maps keyed by packed
//! `(node << 32) | index` coordinates, and `rng::sample_distinct` keys the
//! positions its shuffle displaced — small integers the caller fully
//! controls. The
//! std `HashMap` (even with a splitmix hasher) pays for generality this
//! workload never uses: SIMD control bytes, tombstone bookkeeping, and a
//! layout that keeps keys and values in separate groups. [`OpenTable`] is
//! the minimal replacement tuned for the warm path:
//!
//! * **Power-of-two capacity, linear probing** — one multiplicative hash
//!   (Fibonacci hashing: high bits of `key · φ⁻¹·2⁶⁴`), then a forward
//!   scan of adjacent `(key, value)` pairs. The load factor is capped at
//!   1/2: scalar linear probing degrades steeply past that on
//!   *unsuccessful* lookups (the warm path's most common probe — "is this
//!   port already resolved?"), and the slab bytes a lower load factor
//!   costs are noise next to the O(links) tables it probes.
//! * **Tombstone-free deletion** — `remove` backward-shifts the following
//!   probe-chain entries into the hole, so tables that churn (the override
//!   maps insert *and* remove on every promote) never accumulate
//!   tombstones and never need rehash-on-delete heuristics.
//! * **Capacity-exact accounting** — [`OpenTable::resident_bytes`] is the
//!   size of the slot slab actually allocated, so recycled trials report
//!   *retained* allocation, not live entries (the `peak_resident_bytes`
//!   CSV column depends on this).
//! * **High-water tracking + shrink-on-reset** — [`OpenTable::end_trial`]
//!   gives the trial-recycling reset a policy hook: capacity is kept warm
//!   across trials (that is the point of recycling), but a table left ≥ 8×
//!   larger than anything the just-finished trial needed is shrunk back,
//!   so one huge outlier cell cannot pin a worker's arena at its peak
//!   footprint forever.
//!
//! The all-ones key `u64::MAX` is reserved as the empty-slot sentinel.
//! Every producer in this workspace packs a node index below `u32::MAX`
//! into the high half (or a shuffle position below a universe of at most
//! `usize::MAX`), so the sentinel can never collide with a real key;
//! `insert` debug-asserts it.

/// Reserved empty-slot marker (see the module docs for why no real key can
/// collide with it).
const EMPTY: u64 = u64::MAX;

/// Smallest capacity allocated once a table becomes non-empty.
const MIN_CAP: usize = 16;

/// `2⁶⁴ / φ`, the classic Fibonacci-hashing multiplier.
const FIB: u64 = 0x9e37_79b9_7f4a_7c15;

/// An open-addressing `u64 → V` hash table with linear probing and
/// backward-shift deletion (see the module docs).
///
/// `V` is constrained to `Copy + Default` — every value stored by the
/// port-map and FIFO-floor code is a small scalar; copyable values keep
/// the backward-shift relocation loop branch-free and allocation-free,
/// and the `Default` placeholder fills empty slots.
#[derive(Debug, Clone)]
pub struct OpenTable<V> {
    /// The slot slab: `(key, value)` pairs, `EMPTY`-keyed when free. The
    /// length is zero (nothing allocated) or a power of two.
    slots: Vec<(u64, V)>,
    /// Live entries.
    len: usize,
    /// Largest `len` seen since the last [`OpenTable::end_trial`] — the
    /// shrink policy's measure of what the current trial actually needed.
    high_water: usize,
    /// Lifetime growths (rehashes) — a backend-observability counter,
    /// excluded from equality like every other representation detail.
    grows: u64,
}

impl<V: Copy + Default> OpenTable<V> {
    /// Creates an empty table without allocating.
    pub fn new() -> Self {
        OpenTable {
            slots: Vec::new(),
            len: 0,
            high_water: 0,
            grows: 0,
        }
    }

    /// Creates an empty table whose slab is allocated up front to hold
    /// `entries` entries within the ≤ 1/2 load factor, so the first
    /// `entries` inserts never grow it (nothing is allocated for zero).
    ///
    /// # Example
    ///
    /// ```
    /// use clique_model::ports::OpenTable;
    /// let mut t = OpenTable::with_capacity(100);
    /// for k in 0..100u64 {
    ///     t.insert(k, k);
    /// }
    /// assert_eq!(t.growth_count(), 0);
    /// ```
    pub fn with_capacity(entries: usize) -> Self {
        OpenTable {
            slots: Self::fresh_slab(Self::capacity_for(entries)),
            ..OpenTable::new()
        }
    }

    /// How many times this table has grown (rehashed) over its lifetime.
    #[inline]
    pub fn growth_count(&self) -> u64 {
        self.grows
    }

    /// Number of live entries.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the table holds no entries.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The home slot of `key` in the current slab.
    #[inline]
    fn home(&self, key: u64) -> usize {
        // Fibonacci hashing: the high `log2(capacity)` bits of the
        // product. `slots.len()` is a power of two whenever this is
        // called.
        (key.wrapping_mul(FIB) >> (64 - self.slots.len().trailing_zeros())) as usize
    }

    /// The slot holding `key`, if present.
    #[inline]
    fn find(&self, key: u64) -> Option<usize> {
        if self.slots.is_empty() {
            return None;
        }
        let mask = self.slots.len() - 1;
        let mut i = self.home(key);
        loop {
            let k = self.slots[i].0;
            if k == key {
                return Some(i);
            }
            if k == EMPTY {
                return None;
            }
            i = (i + 1) & mask;
        }
    }

    /// The value stored under `key`, if any.
    #[inline]
    pub fn get(&self, key: u64) -> Option<V> {
        self.find(key).map(|i| self.slots[i].1)
    }

    /// Whether `key` is present.
    #[inline]
    pub fn contains_key(&self, key: u64) -> bool {
        self.find(key).is_some()
    }

    /// Inserts or overwrites `key`, returning the previous value if the
    /// key was present.
    #[inline]
    pub fn insert(&mut self, key: u64, val: V) -> Option<V> {
        debug_assert_ne!(key, EMPTY, "the all-ones key is the empty sentinel");
        if self.len + 1 > self.slots.len() / 2 {
            self.grow();
        }
        let mask = self.slots.len() - 1;
        let mut i = self.home(key);
        loop {
            match self.slots[i].0 {
                k if k == key => {
                    let old = self.slots[i].1;
                    self.slots[i].1 = val;
                    return Some(old);
                }
                EMPTY => {
                    self.slots[i] = (key, val);
                    self.len += 1;
                    self.high_water = self.high_water.max(self.len);
                    return None;
                }
                _ => i = (i + 1) & mask,
            }
        }
    }

    /// Removes `key`, returning its value if it was present.
    ///
    /// Deletion is tombstone-free: the entries following the hole in its
    /// probe chain are shifted backward, preserving the invariant that
    /// every key is reachable from its home slot through a gap-free scan.
    pub fn remove(&mut self, key: u64) -> Option<V> {
        let mut hole = self.find(key)?;
        let removed = self.slots[hole].1;
        let mask = self.slots.len() - 1;
        let mut j = hole;
        loop {
            j = (j + 1) & mask;
            let (k, v) = self.slots[j];
            if k == EMPTY {
                break;
            }
            // The entry at `j` may move into the hole iff its home slot
            // lies cyclically at-or-before the hole (otherwise the move
            // would put it ahead of its own probe chain).
            let home = self.home(k);
            if (j.wrapping_sub(home) & mask) >= (j.wrapping_sub(hole) & mask) {
                self.slots[hole] = (k, v);
                hole = j;
            }
        }
        self.slots[hole].0 = EMPTY;
        self.len -= 1;
        Some(removed)
    }

    /// Removes every entry, keeping the allocated capacity for the next
    /// trial.
    pub fn clear(&mut self) {
        for slot in &mut self.slots {
            slot.0 = EMPTY;
        }
        self.len = 0;
    }

    /// Trial-boundary hook for the recycling reset: keeps the (now empty
    /// or emptied) slab warm unless it is ≥ 8× larger than the capacity
    /// the just-finished trial's high-water mark needed, in which case the
    /// slab is reallocated at that smaller size (dropped entirely when the
    /// trial touched nothing). Resets the high-water mark either way.
    ///
    /// Must only be called when the table is empty (the port-map reset
    /// clears it first).
    pub fn end_trial(&mut self) {
        debug_assert_eq!(self.len, 0, "end_trial on a non-empty table");
        let needed = Self::capacity_for(self.high_water);
        if self.slots.len() >= 8 * needed.max(MIN_CAP) {
            self.slots = Self::fresh_slab(needed);
        }
        self.high_water = 0;
    }

    /// Smallest power-of-two capacity holding `entries` within the ≤ 1/2
    /// load factor (zero when nothing is needed).
    fn capacity_for(entries: usize) -> usize {
        if entries == 0 {
            return 0;
        }
        let mut cap = MIN_CAP;
        while entries > cap / 2 {
            cap *= 2;
        }
        cap
    }

    /// An all-empty slab of `cap` slots (`cap` is zero or a power of two).
    fn fresh_slab(cap: usize) -> Vec<(u64, V)> {
        vec![(EMPTY, V::default()); cap]
    }

    /// Doubles the slab (first allocation: [`MIN_CAP`]) and rehashes.
    #[cold]
    fn grow(&mut self) {
        self.grows += 1;
        let new_cap = (self.slots.len() * 2).max(MIN_CAP);
        let old = std::mem::replace(&mut self.slots, Self::fresh_slab(new_cap));
        let mask = new_cap - 1;
        for (k, v) in old {
            if k == EMPTY {
                continue;
            }
            let mut i = self.home(k);
            while self.slots[i].0 != EMPTY {
                i = (i + 1) & mask;
            }
            self.slots[i] = (k, v);
        }
    }

    /// Iterates over the live `(key, value)` entries in slot order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, V)> + '_ {
        self.slots
            .iter()
            .filter(|(k, _)| *k != EMPTY)
            .map(|&(k, v)| (k, v))
    }

    /// Bytes of the slot slab currently allocated — capacity, not live
    /// entries, so recycled trials report what they actually retain.
    pub fn resident_bytes(&self) -> u64 {
        (self.slots.len() * std::mem::size_of::<(u64, V)>()) as u64
    }
}

impl<V: Copy + Default> Default for OpenTable<V> {
    fn default() -> Self {
        OpenTable::new()
    }
}

/// Content equality, independent of capacity and slot placement — a reset
/// table that retained (or shrank) its slab compares equal to a freshly
/// constructed one, which the reset-is-observationally-fresh tests rely
/// on.
impl<V: Copy + Default + PartialEq> PartialEq for OpenTable<V> {
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len && self.iter().all(|(k, v)| other.get(k) == Some(v))
    }
}

impl<V: Copy + Default + Eq> Eq for OpenTable<V> {}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    /// A cheap deterministic stream for the model-based stress test.
    fn next(x: &mut u64) -> u64 {
        *x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        *x >> 11
    }

    #[test]
    fn insert_get_remove_roundtrip() {
        let mut t = OpenTable::new();
        assert_eq!(t.get(7), None);
        assert_eq!(t.insert(7, 70u32), None);
        assert_eq!(t.insert(7, 71), Some(70));
        assert_eq!(t.get(7), Some(71));
        assert_eq!(t.remove(7), Some(71));
        assert_eq!(t.remove(7), None);
        assert!(t.is_empty());
    }

    #[test]
    fn matches_std_hashmap_under_churn() {
        // Model-based check: a mixed insert/overwrite/remove/lookup
        // workload over a small key universe (dense collisions, long
        // probe chains, constant backward shifts) must agree with
        // std::HashMap at every step.
        let mut t = OpenTable::new();
        let mut model: HashMap<u64, u32> = HashMap::new();
        let mut s = 0xfeed_f00d_u64;
        for step in 0..20_000 {
            let key = next(&mut s) % 257;
            match next(&mut s) % 3 {
                0 | 1 => {
                    let val = (next(&mut s) & 0xffff) as u32;
                    assert_eq!(t.insert(key, val), model.insert(key, val), "step {step}");
                }
                _ => {
                    assert_eq!(t.remove(key), model.remove(&key), "step {step}");
                }
            }
            let probe = next(&mut s) % 257;
            assert_eq!(t.get(probe), model.get(&probe).copied(), "step {step}");
            assert_eq!(t.len(), model.len(), "step {step}");
        }
        // Full-content sweep at the end.
        for (k, v) in t.iter() {
            assert_eq!(model.get(&k), Some(&v));
        }
    }

    #[test]
    fn backward_shift_keeps_wrapped_chains_reachable() {
        // Force a probe chain that wraps around the slab end, then delete
        // from its middle: the wrapped tail must remain reachable.
        let mut t = OpenTable::new();
        // Find keys that all hash to the last few slots of a MIN_CAP slab.
        let mut keys = Vec::new();
        let mut k = 0u64;
        while keys.len() < 5 {
            let home = (k.wrapping_mul(FIB) >> (64 - MIN_CAP.trailing_zeros())) as usize;
            if home >= MIN_CAP - 2 {
                keys.push(k);
            }
            k += 1;
        }
        for (i, &k) in keys.iter().enumerate() {
            t.insert(k, i as u32);
        }
        t.remove(keys[0]);
        for (i, &k) in keys.iter().enumerate().skip(1) {
            assert_eq!(
                t.get(k),
                Some(i as u32),
                "lost key {k} after a wrapped shift"
            );
        }
    }

    #[test]
    fn equality_ignores_capacity_history() {
        let mut grown = OpenTable::new();
        for k in 0..1000u64 {
            grown.insert(k, k as u32);
        }
        for k in 3..1000u64 {
            grown.remove(k);
        }
        let mut fresh = OpenTable::new();
        for k in 0..3u64 {
            fresh.insert(k, k as u32);
        }
        assert_eq!(grown, fresh);
        assert!(grown.resident_bytes() > fresh.resident_bytes());
    }

    #[test]
    fn resident_bytes_tracks_capacity_not_len() {
        let mut t = OpenTable::new();
        assert_eq!(t.resident_bytes(), 0);
        for k in 0..1000u64 {
            t.insert(k, 0u32);
        }
        let at_peak = t.resident_bytes();
        for k in 0..1000u64 {
            t.remove(k);
        }
        // Removing entries frees nothing: the slab is retained.
        assert_eq!(t.resident_bytes(), at_peak);
    }

    #[test]
    fn with_capacity_fits_its_entries_without_growing() {
        for entries in [0, 1, 7, 8, 9, 96, 1023, 1024] {
            let mut t = OpenTable::with_capacity(entries);
            assert_eq!(
                t.resident_bytes(),
                (OpenTable::<u64>::capacity_for(entries) * 16) as u64
            );
            for k in 0..entries as u64 {
                t.insert(k * 7919, k);
            }
            assert_eq!(t.growth_count(), 0, "{entries} entries grew the slab");
            assert_eq!(t.len(), entries);
        }
    }

    #[test]
    fn end_trial_shrinks_only_oversized_slabs() {
        let mut t = OpenTable::new();
        // Trial 1: large working set.
        for k in 0..10_000u64 {
            t.insert(k, 0u32);
        }
        for k in 0..10_000u64 {
            t.remove(k);
        }
        let big = t.resident_bytes();
        t.end_trial();
        // The slab matched this trial's high water: kept warm.
        assert_eq!(t.resident_bytes(), big);
        // Trial 2: tiny working set — now the slab is ≥ 8× oversized.
        t.insert(1, 0);
        t.remove(1);
        t.end_trial();
        let small = t.resident_bytes();
        assert!(small < big / 8);
        // Trial 3: nothing touched — a minimum-size slab is not worth
        // reallocating, so it stays warm.
        t.end_trial();
        assert_eq!(t.resident_bytes(), small);
        // And the table still works afterwards.
        t.insert(42, 7);
        assert_eq!(t.get(42), Some(7));
    }
}

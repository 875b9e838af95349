//! Per-directed-link scalar state, stored to match the port-map backend.
//!
//! The engine keeps two per-link time tables: the FIFO delivery floors
//! (the latest delivery time already scheduled on each link) and — when
//! the capacity model is on — the link-busy horizon (the time each link
//! finishes serving everything already admitted to it). Both are a flat
//! `Θ(n²)` array under the dense backend (one random access per dispatch)
//! and an open-addressing touched-links table under the sparse one
//! (O(active links) entries — the piece that would otherwise keep the
//! asynchronous engine quadratic at `n = 65536+` after the port map goes
//! sparse).

use clique_model::ports::{OpenTable, PortBackend};

/// A per-directed-link `f64` table keyed by `src·n + dst`, defaulting to
/// 0 for untouched links.
pub(crate) enum LinkTable {
    /// Flat `src·n + dst`-indexed array.
    Dense(Vec<f64>),
    /// Open-addressing table over touched directed links only.
    Hashed(OpenTable<f64>),
}

impl Default for LinkTable {
    fn default() -> Self {
        LinkTable::Dense(Vec::new())
    }
}

impl LinkTable {
    /// Returns a table for an `n`-node trial on the (resolved, concrete)
    /// `backend`, recycling the previous trial's storage when the variant
    /// matches.
    pub(crate) fn recycle(self, backend: PortBackend, n: usize) -> LinkTable {
        match (self, backend) {
            (LinkTable::Dense(mut slots), PortBackend::Dense) => {
                slots.clear();
                // Checked even though the port map allocates first: at
                // n ≥ 2³² the flat index arithmetic itself would wrap, so
                // fail loudly rather than corrupt link state.
                slots.resize(n.checked_mul(n).expect("dense link index overflow"), 0.0);
                LinkTable::Dense(slots)
            }
            (LinkTable::Hashed(mut slots), PortBackend::Sparse) => {
                slots.clear();
                slots.end_trial();
                LinkTable::Hashed(slots)
            }
            (_, PortBackend::Dense) => {
                LinkTable::Dense(vec![
                    0.0;
                    n.checked_mul(n).expect("dense link index overflow")
                ])
            }
            (_, PortBackend::Sparse) => LinkTable::Hashed(OpenTable::new()),
            (_, PortBackend::Auto) => unreachable!("backend is resolved before recycling"),
        }
    }

    /// Mutable access to the slot of directed link `key = src·n + dst`
    /// (0 when the link has not been touched yet).
    #[inline]
    pub(crate) fn slot_mut(&mut self, key: usize) -> &mut f64 {
        match self {
            LinkTable::Dense(slots) => &mut slots[key],
            LinkTable::Hashed(slots) => slots.get_or_insert_mut(key as u64, 0.0),
        }
    }

    /// Estimated resident bytes of the table storage.
    pub(crate) fn resident_bytes(&self) -> u64 {
        match self {
            LinkTable::Dense(slots) => (slots.capacity() * 8) as u64,
            LinkTable::Hashed(slots) => slots.resident_bytes(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dense_recycle_reuses_capacity_and_zeroes() {
        let mut t = LinkTable::default().recycle(PortBackend::Dense, 4);
        *t.slot_mut(5) = 3.25;
        let cap_before = match &t {
            LinkTable::Dense(v) => v.capacity(),
            LinkTable::Hashed(_) => unreachable!(),
        };
        let mut t = t.recycle(PortBackend::Dense, 4);
        assert_eq!(*t.slot_mut(5), 0.0);
        match &t {
            LinkTable::Dense(v) => assert_eq!(v.capacity(), cap_before),
            LinkTable::Hashed(_) => unreachable!("dense recycle must stay dense"),
        }
    }

    #[test]
    fn hashed_recycle_clears_touched_links() {
        let mut t = LinkTable::default().recycle(PortBackend::Sparse, 1 << 20);
        *t.slot_mut((1 << 20) * 7 + 3) = 1.5;
        assert!(t.resident_bytes() > 0);
        let mut t = t.recycle(PortBackend::Sparse, 1 << 20);
        assert_eq!(*t.slot_mut((1 << 20) * 7 + 3), 0.0);
    }

    #[test]
    fn backend_switch_rebuilds_the_variant() {
        let t = LinkTable::default().recycle(PortBackend::Dense, 3);
        let t = t.recycle(PortBackend::Sparse, 3);
        assert!(matches!(t, LinkTable::Hashed(_)));
        let t = t.recycle(PortBackend::Dense, 3);
        assert!(matches!(t, LinkTable::Dense(_)));
    }
}

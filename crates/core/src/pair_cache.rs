//! Symmetric pair-distance memoization for the incremental path.
//!
//! Verification sees each candidate pair from both sides — record `a` sees
//! `b` among its candidates and vice versa — and an incremental state
//! re-verifies the unchanged pairs of every entry a batch refreshes.
//! [`PairCache`] stores one entry per *unordered* pair so every
//! verification after the first is a table probe instead of a distance
//! call. Every [`crate::incremental::IncrementalDedup`] holds one; the
//! batch pipeline, which verifies a pair at most twice, does not.
//!
//! The probe sits on the innermost verification loop, in competition with a
//! bit-parallel Myers call that costs a few hundred nanoseconds — a lock
//! round-trip per candidate would cancel the savings. The table is
//! therefore a **direct-mapped array of seqlock-validated slots**:
//!
//! - Each slot is three atomics: a sequence word, a packed pair key, and an
//!   `f64`-bits value. Readers take no lock: load the sequence (odd =
//!   writer in flight → miss), load key and value, re-check the sequence.
//!   A torn read fails validation and degrades to a miss, which is always
//!   sound. On x86 the whole probe is four plain loads and a fence.
//! - Writers claim a slot by a single CAS on the sequence word (even →
//!   odd). A failed CAS means another writer is mid-flight — the store is
//!   *dropped*, not retried: losing a memo entry never affects results.
//! - Direct mapping doubles as eviction: a colliding pair overwrites the
//!   slot, so memory stays exactly `capacity` slots and recency wins.
//!
//! One `u64` key packs the unordered pair `(min << 32) | max`; `u64::MAX`
//! is the empty sentinel (the pair `(u32::MAX, u32::MAX)` never occurs
//! because a record is not its own candidate). One `f64` value encodes both
//! entry kinds: an exact distance `d >= 0.0` is stored as-is (positive
//! sign); a rejection bound `b` ("true distance exceeds `b`") is stored
//! sign-flipped as `-b`, so bound `0.0` maps to `-0.0` and
//! `is_sign_positive` separates the kinds exactly (negation is exact in
//! IEEE 754; an additive offset would not round-trip).
//!
//! Soundness relies on the contract documented on
//! [`PairDistanceCache`](fuzzydedup_nnindex::PairDistanceCache): the
//! distance must be bit-symmetric, exact hits carry true distances, and
//! `KnownAbove` only fires when the stored bound already proves the
//! candidate would be rejected. Under that contract the surviving neighbor
//! sets are identical with the cache on or off, regardless of thread
//! interleaving.

use std::sync::atomic::{fence, AtomicU64, Ordering};

use fuzzydedup_metrics::{incr, Counter};
use fuzzydedup_nnindex::{PairDistanceCache, PairProbe};

const EMPTY: u64 = u64::MAX;

/// Finalizer from SplitMix64; good avalanche for sequential-ish packed ids.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

fn pack(a: u32, b: u32) -> u64 {
    let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
    ((lo as u64) << 32) | hi as u64
}

/// Encode a rejection bound by flipping the sign bit (exact round-trip).
fn encode_bound(bound: f64) -> f64 {
    -bound
}

fn decode_bound(v: f64) -> f64 {
    -v
}

/// Bounded memo of exact distances and rejection bounds keyed on unordered
/// record-id pairs. Lock-free on both paths and safe to share across
/// threads; shared by an incremental state and its forks (the service's
/// published snapshot and the fork a batch runs on).
pub struct PairCache {
    /// Seqlock words: even = stable, odd = writer in flight.
    seqs: Vec<AtomicU64>,
    /// Packed pair keys ([`EMPTY`] = vacant).
    keys: Vec<AtomicU64>,
    /// Value encodings (`f64` bits; see module docs).
    values: Vec<AtomicU64>,
    mask: usize,
}

impl PairCache {
    /// A cache of `capacity` slots, rounded up to a power of two (min 64).
    pub fn new(capacity: usize) -> Self {
        let slots = capacity.next_power_of_two().max(64);
        PairCache {
            seqs: (0..slots).map(|_| AtomicU64::new(0)).collect(),
            keys: (0..slots).map(|_| AtomicU64::new(EMPTY)).collect(),
            values: (0..slots).map(|_| AtomicU64::new(0)).collect(),
            mask: slots - 1,
        }
    }

    fn slot(&self, key: u64) -> usize {
        (splitmix64(key) as usize) & self.mask
    }

    /// Seqlock-validated read of one slot: `Some(value)` only when the slot
    /// holds `key` and both words were read from one stable version.
    fn read_slot(&self, i: usize, key: u64) -> Option<f64> {
        let s1 = self.seqs[i].load(Ordering::Acquire);
        if s1 & 1 == 1 {
            return None;
        }
        let k = self.keys[i].load(Ordering::Relaxed);
        let v = self.values[i].load(Ordering::Relaxed);
        fence(Ordering::Acquire);
        if self.seqs[i].load(Ordering::Relaxed) != s1 || k != key {
            return None;
        }
        Some(f64::from_bits(v))
    }

    /// Claim the slot, merge the new value in, and publish. `merge`
    /// receives the existing value when the slot already holds `key`. A
    /// lost claim drops the store (never blocks the verification loop).
    fn write_slot(&self, i: usize, key: u64, value: f64, merge: fn(f64, f64) -> f64) {
        let s = self.seqs[i].load(Ordering::Relaxed);
        if s & 1 == 1 {
            return;
        }
        if self.seqs[i].compare_exchange(s, s + 1, Ordering::Acquire, Ordering::Relaxed).is_err() {
            return;
        }
        // Seqlock writer protocol: the odd sequence word must become
        // visible before any data store, or a reader on weakly-ordered
        // hardware can pair the new key with the stale value while both of
        // its sequence loads still see the old even count. The CAS's
        // success ordering only orders *prior* accesses, so an explicit
        // release fence is required here.
        fence(Ordering::Release);
        let prior = self.keys[i].load(Ordering::Relaxed);
        let new = if prior == key {
            merge(f64::from_bits(self.values[i].load(Ordering::Relaxed)), value)
        } else {
            if prior != EMPTY {
                incr(Counter::PairCacheEvictions, 1);
            }
            incr(Counter::PairCacheInserts, 1);
            self.keys[i].store(key, Ordering::Relaxed);
            value
        };
        self.values[i].store(new.to_bits(), Ordering::Relaxed);
        self.seqs[i].store(s + 2, Ordering::Release);
    }

    /// Number of occupied slots (test/diagnostic aid; scans the table).
    pub fn len(&self) -> usize {
        self.keys.iter().filter(|k| k.load(Ordering::Relaxed) != EMPTY).count()
    }

    /// True when no slot is occupied.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl PairDistanceCache for PairCache {
    fn probe(&self, a: u32, b: u32, cutoff: f64) -> PairProbe {
        let key = pack(a, b);
        let v = match self.read_slot(self.slot(key), key) {
            Some(v) => v,
            None => return PairProbe::Miss,
        };
        if v.is_sign_positive() {
            PairProbe::Exact(v)
        } else if cutoff <= decode_bound(v) {
            // Stored bound proves d > bound >= cutoff: the bounded distance
            // call would return None, so skipping it cannot change
            // survivors.
            PairProbe::KnownAbove
        } else {
            PairProbe::Miss
        }
    }

    fn store_exact(&self, a: u32, b: u32, d: f64) {
        #[allow(clippy::neg_cmp_op_on_partial_ord)]
        if !(d >= 0.0) {
            return; // NaN or negative would corrupt the encoding.
        }
        let key = pack(a, b);
        // Exact distances replace anything, including rejection bounds.
        // `d + 0.0` normalizes a `-0.0` input to the positive-sign
        // encoding.
        self.write_slot(self.slot(key), key, d + 0.0, |_old, new| new);
    }

    fn store_bound(&self, a: u32, b: u32, cutoff: f64) {
        #[allow(clippy::neg_cmp_op_on_partial_ord)]
        if !(cutoff >= 0.0) {
            return;
        }
        let key = pack(a, b);
        self.write_slot(self.slot(key), key, encode_bound(cutoff), |old, new| {
            // Keep exacts; otherwise keep the higher (more negative) bound.
            if old.is_sign_positive() {
                old
            } else {
                old.min(new)
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn miss_on_empty() {
        let cache = PairCache::new(1024);
        assert!(matches!(cache.probe(1, 2, 0.5), PairProbe::Miss));
        assert!(cache.is_empty());
    }

    #[test]
    fn exact_roundtrip_is_order_insensitive() {
        let cache = PairCache::new(1024);
        cache.store_exact(7, 3, 0.25);
        assert!(matches!(cache.probe(7, 3, 1.0), PairProbe::Exact(d) if d == 0.25));
        assert!(matches!(cache.probe(3, 7, 1.0), PairProbe::Exact(d) if d == 0.25));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn exact_zero_is_distinct_from_bound_zero() {
        let cache = PairCache::new(1024);
        cache.store_bound(1, 2, 0.0);
        // d > 0.0 is known, so cutoff 0.0 is rejectable but cutoff 0.1 is
        // not.
        assert!(matches!(cache.probe(1, 2, 0.0), PairProbe::KnownAbove));
        assert!(matches!(cache.probe(1, 2, 0.1), PairProbe::Miss));
        cache.store_exact(3, 4, 0.0);
        assert!(matches!(cache.probe(3, 4, 0.0), PairProbe::Exact(d) if d == 0.0));
    }

    #[test]
    fn bound_semantics_respect_cutoff() {
        let cache = PairCache::new(1024);
        cache.store_bound(1, 2, 0.4);
        // Tighter or equal cutoffs are conclusively rejectable.
        assert!(matches!(cache.probe(1, 2, 0.4), PairProbe::KnownAbove));
        assert!(matches!(cache.probe(2, 1, 0.3), PairProbe::KnownAbove));
        // A looser cutoff could still admit the pair: must recompute.
        assert!(matches!(cache.probe(1, 2, 0.5), PairProbe::Miss));
    }

    #[test]
    fn bounds_only_raise() {
        let cache = PairCache::new(1024);
        cache.store_bound(1, 2, 0.4);
        cache.store_bound(1, 2, 0.2); // weaker: must not lower the bound
        assert!(matches!(cache.probe(1, 2, 0.4), PairProbe::KnownAbove));
        cache.store_bound(1, 2, 0.6); // stronger: raises
        assert!(matches!(cache.probe(1, 2, 0.6), PairProbe::KnownAbove));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn exact_overwrites_bound_and_is_never_downgraded() {
        let cache = PairCache::new(1024);
        cache.store_bound(1, 2, 0.4);
        cache.store_exact(1, 2, 0.7);
        assert!(matches!(cache.probe(1, 2, 1.0), PairProbe::Exact(d) if d == 0.7));
        cache.store_bound(1, 2, 0.9);
        assert!(matches!(cache.probe(1, 2, 1.0), PairProbe::Exact(d) if d == 0.7));
    }

    #[test]
    fn rejects_nan_and_negative() {
        let cache = PairCache::new(1024);
        cache.store_exact(1, 2, f64::NAN);
        cache.store_exact(1, 2, -1.0);
        cache.store_bound(1, 2, f64::NAN);
        assert!(cache.is_empty());
    }

    #[test]
    fn colliding_pairs_evict_in_place_and_memory_stays_bounded() {
        let cache = PairCache::new(64);
        for i in 0..10_000u32 {
            cache.store_exact(i, i + 1, 0.5);
        }
        // Direct mapping: occupancy never exceeds the slot count.
        assert!(cache.len() <= 64);
        cache.store_exact(42, 43, 0.125);
        assert!(matches!(cache.probe(42, 43, 1.0), PairProbe::Exact(d) if d == 0.125));
    }

    #[test]
    fn parallel_smoke_is_race_free() {
        let cache = PairCache::new(4096);
        std::thread::scope(|s| {
            for t in 0..4u32 {
                let cache = &cache;
                s.spawn(move || {
                    for i in 0..2_000u32 {
                        let (a, b) = (i % 97, i % 89 + 100);
                        if t % 2 == 0 {
                            cache.store_exact(a, b, (i % 10) as f64 / 10.0);
                        } else {
                            cache.store_bound(a, b, (i % 10) as f64 / 10.0);
                        }
                        match cache.probe(a, b, 0.05) {
                            PairProbe::Exact(d) => assert!((0.0..=1.0).contains(&d)),
                            PairProbe::KnownAbove | PairProbe::Miss => {}
                        }
                    }
                });
            }
        });
    }
}

//! Hit/miss statistics.

use std::fmt;
use std::ops::{AddAssign, Sub};

/// Access statistics of a cache (or of one simulation run).
///
/// # Example
///
/// ```
/// use cachekit_sim::CacheStats;
///
/// let mut s = CacheStats::default();
/// s.record_hit();
/// s.record_miss(true);
/// assert_eq!(s.accesses, 2);
/// assert!((s.miss_ratio() - 0.5).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Total accesses.
    pub accesses: u64,
    /// Accesses that hit.
    pub hits: u64,
    /// Accesses that missed.
    pub misses: u64,
    /// Misses that displaced a valid line.
    pub evictions: u64,
    /// Accesses that were writes.
    pub writes: u64,
    /// Dirty lines written back on eviction.
    pub writebacks: u64,
}

impl CacheStats {
    /// Record a hit.
    pub fn record_hit(&mut self) {
        self.accesses += 1;
        self.hits += 1;
    }

    /// Record a miss; `evicted` says whether a valid line was displaced.
    pub fn record_miss(&mut self, evicted: bool) {
        self.accesses += 1;
        self.misses += 1;
        if evicted {
            self.evictions += 1;
        }
    }

    /// Fraction of accesses that missed (0 when there were no accesses).
    pub fn miss_ratio(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.misses as f64 / self.accesses as f64
        }
    }

    /// Fraction of accesses that hit (0 when there were no accesses).
    pub fn hit_ratio(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.hits as f64 / self.accesses as f64
        }
    }
}

impl AddAssign for CacheStats {
    fn add_assign(&mut self, rhs: Self) {
        self.accesses += rhs.accesses;
        self.hits += rhs.hits;
        self.misses += rhs.misses;
        self.evictions += rhs.evictions;
        self.writes += rhs.writes;
        self.writebacks += rhs.writebacks;
    }
}

/// The delta between two snapshots of the same counters (`after -
/// before`).
impl Sub for CacheStats {
    type Output = Self;

    fn sub(self, rhs: Self) -> Self {
        Self {
            accesses: self.accesses - rhs.accesses,
            hits: self.hits - rhs.hits,
            misses: self.misses - rhs.misses,
            evictions: self.evictions - rhs.evictions,
            writes: self.writes - rhs.writes,
            writebacks: self.writebacks - rhs.writebacks,
        }
    }
}

impl fmt::Display for CacheStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} accesses, {} hits, {} misses ({:.2}% miss ratio)",
            self.accesses,
            self.hits,
            self.misses,
            self.miss_ratio() * 100.0
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratios_with_no_accesses_are_zero() {
        let s = CacheStats::default();
        assert_eq!(s.miss_ratio(), 0.0);
        assert_eq!(s.hit_ratio(), 0.0);
    }

    #[test]
    fn add_assign_accumulates() {
        let mut a = CacheStats::default();
        a.record_hit();
        let mut b = CacheStats::default();
        b.record_miss(true);
        b.record_miss(false);
        a += b;
        assert_eq!(a.accesses, 3);
        assert_eq!(a.hits, 1);
        assert_eq!(a.misses, 2);
        assert_eq!(a.evictions, 1);
    }

    #[test]
    fn sub_undoes_add_assign() {
        let mut before = CacheStats::default();
        before.record_hit();
        let mut delta = CacheStats::default();
        delta.record_miss(true);
        delta.writes = 1;
        delta.writebacks = 1;
        let mut after = before;
        after += delta;
        assert_eq!(after - before, delta);
    }

    #[test]
    fn hit_and_miss_ratios_sum_to_one() {
        let mut s = CacheStats::default();
        for i in 0..97 {
            if i % 3 == 0 {
                s.record_miss(i % 2 == 0);
            } else {
                s.record_hit();
            }
        }
        assert!((s.hit_ratio() + s.miss_ratio() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn display_formats_percentage() {
        let mut s = CacheStats::default();
        s.record_hit();
        s.record_miss(false);
        assert!(s.to_string().contains("50.00%"));
    }
}

//! Parameter sweeps: run one trace against many (geometry, policy)
//! combinations.
//!
//! The evaluation figures of the reproduction are all built on these
//! helpers: "miss ratio per policy per workload" (fig. 3), "miss ratio vs
//! cache size" (fig. 4) and "miss ratio vs associativity" (fig. 5) are
//! sweeps over [`PolicyKind`]s crossed with geometries.

use crate::{Cache, CacheConfig, CacheStats};
use cachekit_policies::PolicyKind;

/// One cell of a sweep result: a (policy, geometry) pair with its stats.
#[derive(Debug, Clone)]
pub struct SweepCell {
    /// The policy simulated.
    pub policy: PolicyKind,
    /// Label of the policy (display name).
    pub policy_label: String,
    /// The geometry simulated.
    pub config: CacheConfig,
    /// Statistics of the run.
    pub stats: CacheStats,
}

impl SweepCell {
    /// Miss ratio of this cell.
    pub fn miss_ratio(&self) -> f64 {
        self.stats.miss_ratio()
    }
}

/// Simulate the read trace `trace` once on a fresh cache.
///
/// The trace runs through [`Cache::access_many`], so a (policy,
/// associativity) pair with a batch kernel — LRU, FIFO, tree-PLRU and
/// NRU at 4, 8 and 16 ways — replays on the kernel's interleaved slab
/// pass, and every other pair one access at a time. The statistics are
/// identical to calling [`Cache::access`] per element either way.
pub fn simulate(config: CacheConfig, policy: PolicyKind, trace: &[u64]) -> CacheStats {
    let mut cache = Cache::new(config, policy);
    cache.access_many(trace);
    cache.stats()
}

/// Simulate `trace` with an optional warm-up prefix excluded from the
/// reported statistics: the first `warmup` accesses run first and their
/// hits/misses are discarded. Both parts run through
/// [`Cache::access_many`], like [`simulate`].
pub fn simulate_warm(
    config: CacheConfig,
    policy: PolicyKind,
    trace: &[u64],
    warmup: usize,
) -> CacheStats {
    let mut cache = Cache::new(config, policy);
    let split = warmup.min(trace.len());
    cache.access_many(&trace[..split]);
    let warm = cache.stats();
    cache.access_many(&trace[split..]);
    cache.stats() - warm
}

/// Cross every policy with every geometry on one trace.
pub fn sweep(configs: &[CacheConfig], policies: &[PolicyKind], trace: &[u64]) -> Vec<SweepCell> {
    let mut cells = Vec::with_capacity(configs.len() * policies.len());
    for &config in configs {
        for &policy in policies {
            let stats = simulate(config, policy, trace);
            cells.push(SweepCell {
                policy,
                policy_label: policy.label(),
                config,
                stats,
            });
        }
    }
    cells
}

/// Geometries with capacities doubling from `min_capacity` to
/// `max_capacity` at fixed associativity and line size.
///
/// # Errors
///
/// Returns the first [`crate::ConfigError`] produced by an invalid
/// geometry in the range.
pub fn capacity_series(
    min_capacity: u64,
    max_capacity: u64,
    associativity: usize,
    line_size: u64,
) -> Result<Vec<CacheConfig>, crate::ConfigError> {
    let mut configs = Vec::new();
    let mut cap = min_capacity;
    while cap <= max_capacity {
        configs.push(CacheConfig::new(cap, associativity, line_size)?);
        cap *= 2;
    }
    Ok(configs)
}

/// Geometries with the given associativities at fixed capacity and line
/// size. Associativities whose implied set count is not a power of two
/// are skipped (they do not exist in hardware either).
pub fn associativity_series(
    capacity: u64,
    associativities: &[usize],
    line_size: u64,
) -> Vec<CacheConfig> {
    associativities
        .iter()
        .filter_map(|&a| CacheConfig::new(capacity, a, line_size).ok())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn thrash_trace(lines: u64, reps: usize, line_size: u64) -> Vec<u64> {
        let mut t = Vec::new();
        for _ in 0..reps {
            for i in 0..lines {
                t.push(i * line_size);
            }
        }
        t
    }

    #[test]
    fn lru_thrashes_where_fifo_also_thrashes_but_lip_does_not() {
        // Cyclic working set slightly larger than the cache: LRU misses
        // 100%, LIP keeps most of it.
        let cfg = CacheConfig::new(512, 8, 64).unwrap(); // 1 set, 8 ways
        let trace = thrash_trace(9, 50, 64);
        let lru = simulate(cfg, PolicyKind::Lru, &trace);
        let lip = simulate(cfg, PolicyKind::Lip, &trace);
        assert!(lru.miss_ratio() > 0.99, "LRU {}", lru.miss_ratio());
        assert!(lip.miss_ratio() < 0.5, "LIP {}", lip.miss_ratio());
    }

    #[test]
    fn bigger_caches_do_not_miss_more_under_lru() {
        let trace = thrash_trace(64, 10, 64);
        let configs = capacity_series(512, 8192, 4, 64).unwrap();
        let cells = sweep(&configs, &[PolicyKind::Lru], &trace);
        let ratios: Vec<f64> = cells.iter().map(SweepCell::miss_ratio).collect();
        for w in ratios.windows(2) {
            assert!(w[1] <= w[0] + 1e-12, "LRU is a stack algorithm: {ratios:?}");
        }
    }

    #[test]
    fn capacity_series_doubles() {
        let s = capacity_series(1024, 8192, 2, 64).unwrap();
        let caps: Vec<u64> = s.iter().map(|c| c.capacity()).collect();
        assert_eq!(caps, vec![1024, 2048, 4096, 8192]);
    }

    #[test]
    fn associativity_series_skips_impossible_geometries() {
        // capacity 8 KiB, line 64: assoc 3 would give 42.67 sets -> skipped.
        let s = associativity_series(8192, &[1, 2, 3, 4, 8], 64);
        let assocs: Vec<usize> = s.iter().map(|c| c.associativity()).collect();
        assert_eq!(assocs, vec![1, 2, 4, 8]);
    }

    #[test]
    fn warmup_excludes_cold_misses() {
        let cfg = CacheConfig::new(1024, 2, 64).unwrap();
        let trace: Vec<u64> = (0..16).map(|i| (i % 4) * 64).collect();
        let cold = simulate(cfg, PolicyKind::Lru, &trace);
        let warm = simulate_warm(cfg, PolicyKind::Lru, &trace, 4);
        assert_eq!(cold.misses, 4);
        assert_eq!(warm.misses, 0);
        assert_eq!(warm.accesses, 12);
    }
}

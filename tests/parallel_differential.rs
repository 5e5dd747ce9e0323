//! Differential tests for the parallel execution engine: the parallel
//! entry points must be *bit-identical* to their serial counterparts —
//! same `CacheStats`, same deterministic output order — for every
//! `PolicyKind`, at any worker count. Plus tree-PLRU conformance and
//! policy inference at the non-power-of-two associativities of the
//! paper's actual machines (Atom D525: 24 KiB 6-way L1; Core 2: 24-way
//! L2s).

mod common;

use cachekit::core::infer::{InferenceConfig, SimOracle};
use cachekit::policies::{conformance, PolicyKind, TreePlru};
use cachekit::sim::sweep::sweep;
use cachekit::sim::{sweep_parallel, sweep_parallel_jobs, Cache, CacheConfig};
use cachekit::trace::gen;
use common::infer_strict;

#[test]
fn sweep_parallel_is_bit_identical_to_sweep_for_every_kind() {
    let trace = gen::zipf(4096, 1.05, 20_000, 64, 0xD1FF);
    // Mix of power-of-two and the paper's non-power-of-two geometries.
    let configs: Vec<CacheConfig> = [
        CacheConfig::new(16 * 1024, 4, 64).unwrap(),
        CacheConfig::new(24 * 1024, 6, 64).unwrap(), // Atom D525 L1 shape
        CacheConfig::new(96 * 1024, 24, 64).unwrap(), // Core 2 L2 shape
    ]
    .into_iter()
    .collect();
    let kinds = PolicyKind::differential_kinds();

    let serial = sweep(&configs, &kinds, &trace);
    for jobs in [1, 2, 3, 8, 32] {
        let parallel = sweep_parallel_jobs(&configs, &kinds, &trace, jobs);
        assert_eq!(serial.len(), parallel.len());
        for (s, p) in serial.iter().zip(&parallel) {
            assert_eq!(s.policy_label, p.policy_label, "order must match serial");
            assert_eq!(s.config, p.config, "order must match serial");
            assert_eq!(
                s.stats, p.stats,
                "stats must be bit-identical for {} on {} with jobs={jobs}",
                s.policy_label, s.config
            );
        }
    }
}

#[test]
fn sweep_parallel_env_entry_point_matches_too() {
    let trace = gen::zipf(1024, 1.1, 5_000, 64, 7);
    let configs = [CacheConfig::new(8 * 1024, 8, 64).unwrap()];
    let kinds = PolicyKind::differential_kinds();
    let serial = sweep(&configs, &kinds, &trace);
    let parallel = sweep_parallel(&configs, &kinds, &trace);
    assert_eq!(serial.len(), parallel.len());
    for (s, p) in serial.iter().zip(&parallel) {
        assert_eq!((&s.policy_label, s.stats), (&p.policy_label, p.stats));
    }
}

#[test]
fn policy_inference_identifies_the_paper_geometries() {
    // Atom D525-like 6-way and a PLRU 8-way, plus an undocumented
    // policy that must match nothing in the catalog.
    let cases = [
        (PolicyKind::Lru, 6usize, Some("LRU")),
        (PolicyKind::TreePlru, 8usize, Some("PLRU")),
        (PolicyKind::LazyLru, 4usize, None),
    ];
    let config = InferenceConfig::default();
    for (kind, assoc, expect) in cases {
        let capacity = assoc as u64 * 64 * 64;
        let cache = Cache::new(CacheConfig::new(capacity, assoc, 64).unwrap(), kind);
        let geometry = {
            let mut oracle = SimOracle::new(cache.clone());
            cachekit::core::infer::infer_geometry(&mut oracle, &config).unwrap()
        };
        let report = infer_strict(&mut SimOracle::new(cache), &geometry, &config).unwrap();
        assert_eq!(report.matched, expect, "{kind:?}");
    }
}

/// Acceptance check for the parallel engine's speedup; it needs a
/// release build and a quiet machine, so it is opt-in:
/// `cargo test --release --test parallel_differential -- --ignored`.
#[test]
#[ignore = "perf measurement; run explicitly with --release"]
fn sweep_parallel_speedup_on_a_million_access_trace() {
    use std::time::Instant;
    let trace = gen::zipf(16 * 1024, 1.05, 1_200_000, 64, 0xACCE);
    let configs = [CacheConfig::new(256 * 1024, 8, 64).unwrap()];
    let kinds = PolicyKind::evaluation_kinds(); // 12 cells
    assert!(configs.len() * kinds.len() >= 8);

    let t0 = Instant::now();
    let serial = sweep(&configs, &kinds, &trace);
    let serial_time = t0.elapsed();

    let t1 = Instant::now();
    let parallel = sweep_parallel_jobs(&configs, &kinds, &trace, 4);
    let parallel_time = t1.elapsed();

    for (s, p) in serial.iter().zip(&parallel) {
        assert_eq!(s.stats, p.stats, "speedup must not change results");
    }
    let speedup = serial_time.as_secs_f64() / parallel_time.as_secs_f64();
    eprintln!(
        "serial {serial_time:?}, parallel(4) {parallel_time:?} -> {speedup:.2}x over {} cells",
        parallel.len()
    );
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    if cores < 4 {
        eprintln!("only {cores} core(s) available; speedup threshold needs 4 — skipping");
        return;
    }
    assert!(
        speedup >= 3.0,
        "expected >=3x on 4 workers, measured {speedup:.2}x"
    );
}

#[test]
fn tree_plru_conforms_at_the_paper_associativities() {
    // The D525's 6-way L1 and the Core 2 family's 12/24-way L2 shapes:
    // tree-PLRU over a non-power-of-two way count still has to satisfy
    // the full policy contract (victim validity, reset, state keys,
    // clone independence).
    for assoc in [6usize, 12, 24] {
        conformance::assert_conformance(Box::new(TreePlru::new(assoc)));
    }
}

#[test]
fn tree_plru_non_pow2_replays_deterministically_in_parallel_sweeps() {
    // A regression guard on the exact shapes the fleet uses: repeated
    // parallel sweeps of the 6/12/24-way tree-PLRU caches give the same
    // stats every time (no scheduling-order dependence).
    let trace = gen::zipf(2048, 1.1, 10_000, 64, 3);
    let configs: Vec<CacheConfig> = [(24 * 1024, 6), (48 * 1024, 12), (96 * 1024, 24)]
        .into_iter()
        .map(|(cap, assoc)| CacheConfig::new(cap, assoc, 64).unwrap())
        .collect();
    let kinds = [PolicyKind::TreePlru];
    let first = sweep_parallel_jobs(&configs, &kinds, &trace, 4);
    for _ in 0..3 {
        let again = sweep_parallel_jobs(&configs, &kinds, &trace, 4);
        for (a, b) in first.iter().zip(&again) {
            assert_eq!(a.stats, b.stats);
        }
    }
}

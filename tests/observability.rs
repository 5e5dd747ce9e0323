//! Observability must be *passive*: collection on or off, the pipeline
//! returns bit-identical results for every policy kind, spans stay
//! balanced even when pool workers panic, and the log2 histograms land
//! every value in exactly the documented bucket.

mod common;

use cachekit::core::infer::{Geometry, InferenceConfig, SimOracle};
use cachekit::policies::PolicyKind;
use cachekit::sim::{par_map, Cache, CacheConfig};
use common::infer_strict;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Mutex;

// The obs registry is process-global; tests that reset or toggle it
// must not interleave within this binary.
static LOCK: Mutex<()> = Mutex::new(());

fn guard() -> std::sync::MutexGuard<'static, ()> {
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn infer_all_kinds() -> Vec<(String, String)> {
    let config = InferenceConfig::default();
    let geometry = Geometry {
        line_size: 64,
        capacity: 16 * 1024,
        associativity: 4,
        num_sets: 64,
    };
    PolicyKind::differential_kinds()
        .into_iter()
        .map(|kind| {
            let cache = Cache::new(
                CacheConfig::new(
                    geometry.capacity,
                    geometry.associativity,
                    geometry.line_size,
                )
                .unwrap(),
                kind,
            );
            let mut oracle = SimOracle::new(cache);
            let outcome = match infer_strict(&mut oracle, &geometry, &config) {
                Ok(report) => format!(
                    "{:?}/{}/{}/{}",
                    report.matched,
                    report.spec.render(),
                    report.validation_rounds,
                    report.validation_mismatches
                ),
                Err(e) => format!("rejected: {e:?}"),
            };
            (kind.label(), outcome)
        })
        .collect()
}

#[test]
fn metrics_disabled_runs_are_bit_identical_to_instrumented_runs() {
    let _g = guard();

    cachekit::obs::reset();
    cachekit::obs::set_enabled(false);
    let dark = infer_all_kinds();
    assert!(
        cachekit::obs::snapshot().is_empty(),
        "disabled collection must record nothing"
    );

    cachekit::obs::set_enabled(true);
    let instrumented = infer_all_kinds();

    assert_eq!(dark.len(), PolicyKind::differential_kinds().len());
    for ((label_a, dark_outcome), (label_b, lit_outcome)) in dark.iter().zip(&instrumented) {
        assert_eq!(label_a, label_b);
        assert_eq!(
            dark_outcome, lit_outcome,
            "instrumentation changed the inference of {label_a}"
        );
    }

    // The instrumented pass must actually have measured something, with
    // per-phase attribution of the oracle counters.
    let snap = cachekit::obs::snapshot();
    assert!(snap.spans.contains_key("infer_policy"), "{:?}", snap.spans);
    assert!(
        snap.counters
            .keys()
            .any(|k| k.starts_with("infer_policy/") && k.ends_with("oracle.measurements")),
        "counters must be span-path attributed: {:?}",
        snap.counters
    );
    assert!(snap.counter_totals()["oracle.measurements"] > 0);
}

#[test]
fn span_nesting_stays_balanced_when_a_pool_worker_panics() {
    let _g = guard();
    cachekit::obs::reset();
    cachekit::obs::set_enabled(true);

    let items: Vec<u32> = (0..16).collect();
    let result = catch_unwind(AssertUnwindSafe(|| {
        let _s = cachekit::obs::span("doomed_fanout");
        par_map(&items, 4, |&i| {
            let _w = cachekit::obs::span("worker_item");
            assert!(i != 7, "worker down");
            i
        })
    }));
    assert!(result.is_err(), "the worker panic must propagate");
    assert_eq!(
        cachekit::obs::current_depth(),
        0,
        "unwinding must pop every span on the way out"
    );

    // The registry still works afterwards: new spans nest from depth 0.
    {
        let _s = cachekit::obs::span("after");
        cachekit::obs::add("alive", 1);
    }
    let snap = cachekit::obs::snapshot();
    assert_eq!(snap.spans["doomed_fanout"].count, 1);
    assert_eq!(snap.counters["after/alive"], 1);
}

#[test]
fn histogram_bucketing_is_exact_at_bucket_boundaries() {
    let _g = guard();
    cachekit::obs::reset();
    cachekit::obs::set_enabled(true);

    // Bucket k >= 1 covers [2^(k-1), 2^k - 1]; zero is its own bucket.
    for k in 1..=10u32 {
        let lo = 1u64 << (k - 1);
        let hi = (1u64 << k) - 1;
        assert_eq!(cachekit::obs::bucket_index(lo), k);
        assert_eq!(cachekit::obs::bucket_index(hi), k);
        assert_eq!(cachekit::obs::bucket_bounds(k), (lo, hi));
        cachekit::obs::record("edges", lo);
        cachekit::obs::record("edges", hi);
    }
    cachekit::obs::record("edges", 0);

    let snap = cachekit::obs::snapshot();
    let hist = &snap.histograms["edges"];
    assert_eq!(hist.total(), 21);
    assert_eq!(
        hist.buckets[0],
        cachekit::obs::HistBucket {
            lo: 0,
            hi: 0,
            count: 1
        }
    );
    for (bucket, k) in hist.buckets[1..].iter().zip(1..=10u32) {
        assert_eq!((bucket.lo, bucket.hi), cachekit::obs::bucket_bounds(k));
        assert_eq!(bucket.count, 2, "bucket {k} holds both its edge values");
    }
}

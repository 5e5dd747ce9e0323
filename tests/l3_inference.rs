//! Three-level machines: reverse engineering the L3 through two levels
//! of interference, and detecting hashed (sliced) L3 indexing.

mod common;

use cachekit::core::infer::{infer_geometry, mapping, InferenceConfig};
use cachekit::hw::{CacheLevel, LevelOracle, VirtualCpu};
use cachekit::policies::PolicyKind;
use cachekit::sim::{CacheConfig, IndexFunction};
use common::infer_strict;

/// A scaled-down nehalem-style machine (fast enough for debug tests).
fn mini_3level() -> VirtualCpu {
    VirtualCpu::builder("mini_3level")
        .l1(CacheConfig::new(2 * 1024, 2, 64).unwrap(), PolicyKind::Lru)
        .l2(
            CacheConfig::new(16 * 1024, 4, 64).unwrap(),
            PolicyKind::TreePlru,
        )
        .l3(
            CacheConfig::new(256 * 1024, 8, 64).unwrap(),
            PolicyKind::TreePlru,
        )
        .build()
}

fn mini_sliced() -> VirtualCpu {
    VirtualCpu::builder("mini_sliced")
        .l1(CacheConfig::new(2 * 1024, 2, 64).unwrap(), PolicyKind::Lru)
        .l2(
            CacheConfig::new(16 * 1024, 4, 64).unwrap(),
            PolicyKind::TreePlru,
        )
        .l3(
            CacheConfig::new(128 * 1024, 8, 64)
                .unwrap()
                .with_index_function(IndexFunction::XorFold),
            PolicyKind::Lru,
        )
        .build()
}

#[test]
fn l3_geometry_and_policy_are_recovered_through_l1_and_l2() {
    let mut cpu = mini_3level();
    let mut oracle = LevelOracle::new(&mut cpu, CacheLevel::L3);
    let config = InferenceConfig::default();
    let g = infer_geometry(&mut oracle, &config).unwrap();
    assert_eq!(g.capacity, 256 * 1024);
    assert_eq!(g.associativity, 8);
    assert_eq!(g.line_size, 64);
    let report = infer_strict(&mut oracle, &g, &config).unwrap();
    assert_eq!(report.matched, Some("PLRU"));
}

#[test]
fn middle_level_is_still_measurable_on_a_three_level_machine() {
    let mut cpu = mini_3level();
    let mut oracle = LevelOracle::new(&mut cpu, CacheLevel::L2);
    let config = InferenceConfig::default();
    let g = infer_geometry(&mut oracle, &config).unwrap();
    assert_eq!((g.capacity, g.associativity), (16 * 1024, 4));
    let report = infer_strict(&mut oracle, &g, &config).unwrap();
    assert_eq!(report.matched, Some("PLRU"));
}

#[test]
fn sliced_l3_defeats_the_arithmetic_campaign_and_is_flagged() {
    let mut cpu = mini_sliced();
    let config = InferenceConfig::builder()
        .max_capacity(1024 * 1024)
        .max_associativity(32)
        .build()
        .expect("valid config");

    // The arithmetic geometry campaign must NOT return the true geometry:
    // conflict construction by capacity-stride never lands in one set.
    {
        let mut oracle = LevelOracle::new(&mut cpu, CacheLevel::L3);
        match infer_geometry(&mut oracle, &config) {
            Err(_) => {} // expected: no associativity knee, or inconsistency
            Ok(g) => {
                assert_ne!(
                    (g.capacity, g.associativity),
                    (128 * 1024, 8),
                    "the standard campaign cannot see through the hash"
                );
            }
        }
    }

    // The bit classification contradicts the datasheet geometry — the
    // detection signal for hashed indexing.
    let datasheet = cachekit::core::infer::Geometry {
        line_size: 64,
        capacity: 128 * 1024,
        associativity: 8,
        num_sets: 256,
    };
    let mut oracle = LevelOracle::new(&mut cpu, CacheLevel::L3).without_flushers();
    let roles = mapping::classify_bits(&mut oracle, &datasheet, &config, 20);
    assert!(
        !mapping::consistent_with(&roles, &datasheet),
        "hashed L3 must not classify as standard: {roles:?}"
    );
}

#[test]
fn l3_policy_inference_works_in_timing_mode_too() {
    use cachekit::hw::MeasureMode;
    let mut cpu = mini_3level();
    let config = InferenceConfig::default();
    let mut oracle = LevelOracle::new(&mut cpu, CacheLevel::L3).with_mode(MeasureMode::Timing);
    let g = infer_geometry(&mut oracle, &config).unwrap();
    assert_eq!((g.capacity, g.associativity), (256 * 1024, 8));
    let report = infer_strict(&mut oracle, &g, &config).unwrap();
    assert_eq!(report.matched, Some("PLRU"));
}

#[test]
fn recording_oracle_transcript_matches_the_measurement_count() {
    use cachekit::core::infer::{CacheOracleExt, Counting, Recording};
    let mut cpu = mini_3level();
    let config = InferenceConfig::default();
    let mut oracle = LevelOracle::new(&mut cpu, CacheLevel::L2)
        .layer(Counting)
        .layer(Recording);
    let g = infer_geometry(&mut oracle, &config).unwrap();
    let _ = infer_strict(&mut oracle, &g, &config).unwrap();
    let transcript_len = oracle.records().len() as u64;
    assert_eq!(transcript_len, oracle.into_inner().measurements());
    assert!(transcript_len > 100, "a real campaign leaves a long trail");
}

#[test]
fn timing_mode_separates_l2_hits_from_l3_hits() {
    use cachekit::hw::MeasureMode;
    let mut cpu = mini_3level();
    let config = InferenceConfig::default();
    let mut oracle = LevelOracle::new(&mut cpu, CacheLevel::L2).with_mode(MeasureMode::Timing);
    let g = infer_geometry(&mut oracle, &config).unwrap();
    assert_eq!((g.capacity, g.associativity), (16 * 1024, 4));
}

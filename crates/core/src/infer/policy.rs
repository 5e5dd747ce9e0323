//! What a permutation-policy inference produces, and the address plan
//! and abstract model its read-out and validation share.
//!
//! This is the hardware-facing twin of [`crate::perm::derive_permutation_spec`]:
//! the same read-out algorithm, but phrased purely in terms of
//! [`CacheOracle::measure`](crate::infer::CacheOracle::measure) calls on
//! conflicting addresses. The measuring pipeline itself lives in
//! `infer::robust` and runs behind
//! [`PermutationEngine`](crate::infer::PermutationEngine).

use crate::infer::{Geometry, InferenceConfig};
use crate::perm::PermutationSpec;
use cachekit_policies::rng::Prng;
use std::fmt;

/// The result of a successful policy inference.
#[derive(Debug, Clone, PartialEq)]
pub struct PolicyReport {
    /// The geometry the inference ran against.
    pub geometry: Geometry,
    /// The inferred policy description.
    pub spec: PermutationSpec,
    /// Canonical name if the spec matches the catalog; `None` means a
    /// previously undocumented policy.
    pub matched: Option<&'static str>,
    /// Miss insertion position (always 0 for a successful inference).
    pub insertion_position: usize,
    /// Validation scripts run.
    pub validation_rounds: usize,
    /// Validation scripts that diverged (0 for a successful inference
    /// under the configured tolerance).
    pub validation_mismatches: usize,
}

impl PolicyReport {
    /// Human-readable one-paragraph summary, as printed in Table 2.
    pub fn summary(&self) -> String {
        let name = match self.matched {
            Some(n) => n.to_owned(),
            None => "UNDOCUMENTED (no catalog match)".to_owned(),
        };
        format!(
            "{} cache: policy = {}, validated on {}/{} scripts\n{}",
            self.geometry,
            name,
            self.validation_rounds - self.validation_mismatches,
            self.validation_rounds,
            self.spec.render()
        )
    }
}

impl fmt::Display for PolicyReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.summary())
    }
}

/// Address planner for one cache set: the base blocks, a marked block and
/// a fresh pool, all mapping to set 0 with distinct tags.
pub(crate) struct SetAddrs {
    way_size: u64,
    pub(crate) assoc: usize,
}

impl SetAddrs {
    pub(crate) fn new(geometry: &Geometry) -> Self {
        Self {
            way_size: geometry.way_size(),
            assoc: geometry.associativity,
        }
    }

    pub(crate) fn base(&self, i: usize) -> u64 {
        debug_assert!(i < self.assoc);
        i as u64 * self.way_size
    }

    pub(crate) fn base_fill(&self) -> Vec<u64> {
        (0..self.assoc).map(|i| self.base(i)).collect()
    }

    pub(crate) fn marked(&self) -> u64 {
        999 * self.way_size
    }

    pub(crate) fn fresh(&self, k: usize) -> Vec<u64> {
        (0..k as u64).map(|i| (1000 + i) * self.way_size).collect()
    }

    fn extra(&self, i: usize) -> u64 {
        (self.assoc + i) as u64 * self.way_size
    }
}

/// The seeded random validation scripts over base and extra blocks.
pub(crate) fn validation_tails(addrs: &SetAddrs, config: &InferenceConfig) -> Vec<Vec<u64>> {
    let assoc = addrs.assoc;
    let mut rng = Prng::seed_from_u64(config.seed);
    (0..config.validation_rounds)
        .map(|_| {
            (0..10 * assoc)
                .map(|_| {
                    if rng.gen_bool(0.7) {
                        addrs.base(rng.gen_range(0..assoc))
                    } else {
                        addrs.extra(rng.gen_range(0..assoc))
                    }
                })
                .collect()
        })
        .collect()
}

/// Abstract model prediction: miss count of `tail` run from the read-out
/// base state under `spec`.
pub(crate) fn predict_tail_misses(
    addrs: &SetAddrs,
    base_order: &[usize],
    spec: &PermutationSpec,
    tail: &[u64],
) -> usize {
    let mut state: Vec<u64> = base_order.iter().map(|&b| addrs.base(b)).collect();
    let mut predicted = 0usize;
    for &a in tail {
        match state.iter().position(|&b| b == a) {
            Some(i) => spec.apply_hit(&mut state, i),
            None => {
                predicted += 1;
                spec.apply_miss(&mut state, a);
            }
        }
    }
    predicted
}

/// Noise-adjusted divergence check of one validation script: a channel with false-event rate `p` turns a true
/// count `m` out of `n` into `m + p(n - 2m)` in expectation.
pub(crate) fn prediction_diverges(predicted: usize, measured: usize, n: usize, noise: f64) -> bool {
    let n = n as f64;
    let expected = predicted as f64 + noise * (n - 2.0 * predicted as f64);
    let tolerance = if noise < 0.005 {
        0.0
    } else {
        (3.0 * (n * noise * (1.0 - noise)).sqrt()).max(2.0)
    };
    (measured as f64 - expected).abs() > tolerance
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::infer::oracle::SimOracle;
    use crate::infer::{
        infer_geometry, InferenceEngine, InferenceError, InferenceRequest, PermutationEngine,
    };
    use cachekit_policies::PolicyKind;
    use cachekit_sim::{Cache, CacheConfig};

    fn oracle_for(kind: PolicyKind, capacity: u64, assoc: usize) -> SimOracle {
        SimOracle::new(Cache::new(
            CacheConfig::new(capacity, assoc, 64).unwrap(),
            kind,
        ))
    }

    fn infer(oracle: &mut SimOracle, geometry: Geometry) -> Result<PolicyReport, InferenceError> {
        let request = InferenceRequest::new(geometry, InferenceConfig::default());
        let report = PermutationEngine::strict().infer(oracle, &request);
        report
            .outcome
            .map(|f| f.permutation().cloned().expect("permutation evidence"))
    }

    fn end_to_end(
        kind: PolicyKind,
        capacity: u64,
        assoc: usize,
    ) -> Result<PolicyReport, InferenceError> {
        let mut oracle = oracle_for(kind, capacity, assoc);
        let config = InferenceConfig::default();
        let geometry = infer_geometry(&mut oracle, &config).expect("geometry");
        assert_eq!(geometry.associativity, assoc);
        infer(&mut oracle, geometry)
    }
    #[test]
    fn identifies_lru() {
        let report = end_to_end(PolicyKind::Lru, 16 * 1024, 4).unwrap();
        assert_eq!(report.matched, Some("LRU"));
        assert_eq!(report.spec, PermutationSpec::lru(4));
    }

    #[test]
    fn identifies_fifo() {
        let report = end_to_end(PolicyKind::Fifo, 16 * 1024, 4).unwrap();
        assert_eq!(report.matched, Some("FIFO"));
    }

    #[test]
    fn identifies_plru() {
        let report = end_to_end(PolicyKind::TreePlru, 32 * 1024, 8).unwrap();
        assert_eq!(report.matched, Some("PLRU"));
    }

    #[test]
    fn reports_lazy_lru_as_undocumented() {
        let report = end_to_end(PolicyKind::LazyLru, 16 * 1024, 8).unwrap();
        assert_eq!(report.matched, None);
        assert!(report.summary().contains("UNDOCUMENTED"));
    }

    #[test]
    fn rejects_random_replacement() {
        let err = end_to_end(PolicyKind::Random { seed: 7 }, 16 * 1024, 4).unwrap_err();
        match err {
            InferenceError::InconsistentReadout(_)
            | InferenceError::NotAPermutationPolicy { .. }
            | InferenceError::NotFrontInsertion { .. } => {}
            other => panic!("unexpected error kind: {other:?}"),
        }
    }

    #[test]
    fn rejects_bit_plru() {
        let err = end_to_end(PolicyKind::BitPlru, 16 * 1024, 4).unwrap_err();
        match err {
            InferenceError::InconsistentReadout(_)
            | InferenceError::NotAPermutationPolicy { .. }
            | InferenceError::NotFrontInsertion { .. } => {}
            other => panic!("unexpected error kind: {other:?}"),
        }
    }

    #[test]
    fn detects_lip_insertion_position() {
        let mut oracle = oracle_for(PolicyKind::Lip, 16 * 1024, 4);
        let config = InferenceConfig::default();
        let geometry = infer_geometry(&mut oracle, &config).unwrap();
        let err = infer(&mut oracle, geometry).unwrap_err();
        assert_eq!(err, InferenceError::NotFrontInsertion { position: 3 });
    }

    #[test]
    fn detects_slru_insertion_position() {
        let mut oracle = oracle_for(PolicyKind::Slru { protected: 3 }, 16 * 1024, 8);
        let config = InferenceConfig::default();
        let geometry = infer_geometry(&mut oracle, &config).unwrap();
        assert_eq!(geometry.associativity, 8);
        let err = infer(&mut oracle, geometry).unwrap_err();
        assert_eq!(err, InferenceError::NotFrontInsertion { position: 3 });
    }

    #[test]
    fn summary_mentions_policy_and_geometry() {
        let report = end_to_end(PolicyKind::Lru, 16 * 1024, 4).unwrap();
        let s = report.summary();
        assert!(s.contains("LRU"));
        assert!(s.contains("16 KiB"));
        assert!(s.contains("Π_0"));
    }
}

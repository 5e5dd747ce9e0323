//! The permutation-inference pipeline: budgeted, fault-tolerant, and
//! the only read-out/validation loop in `cachekit-core::infer`.
//!
//! [`PermutationEngine`](crate::infer::PermutationEngine) runs it for
//! both of its constructors. Every query goes through
//! [`VotePlan::measure_budgeted`], so that
//!
//! * every raw oracle attempt is charged against one shared
//!   [`MeasurementBudget`],
//! * transient faults ([`MeasureFault`](crate::infer::MeasureFault))
//!   are absorbed with retry/backoff instead of corrupting readings,
//! * each hit-position read-out carries a per-query confidence score,
//!   and
//! * a campaign that runs its budget dry returns a *partial*
//!   [`InferenceReport`] — `degraded: true`, the confidences gathered so
//!   far, and an [`InferenceError::BudgetExhausted`] outcome — instead
//!   of panicking or silently guessing.

use crate::infer::engine::{Finding, InferenceReport, InferenceRequest};
use crate::infer::oracle::CacheOracle;
use crate::infer::policy::{
    predict_tail_misses, prediction_diverges, validation_tails, PolicyReport, SetAddrs,
};
use crate::infer::vote::{MeasurementBudget, VotePlan};
use crate::infer::{InferenceError, ReadoutSearch};
use crate::perm::{match_spec, Permutation, PermutationSpec};

/// How the pipeline estimates the channel's false-event rate before
/// validation: `readings` single-vote readings, each re-probing one
/// freshly warmed line `probes` times. A clean channel reports every
/// probe as a hit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct NoiseEstimate {
    pub(crate) readings: usize,
    pub(crate) probes: usize,
}

/// Why the campaign stopped early.
enum Stop {
    /// The budget (or the per-measurement attempt cap) ran dry.
    Exhausted,
    /// A finding about the cache (wrong insertion position, inconsistent
    /// read-out, non-permutation behaviour) — not degradation.
    Finding(InferenceError),
}

/// The campaign engine: one oracle, one budget, running fault and
/// confidence accounting.
struct Engine<'a> {
    oracle: &'a mut dyn CacheOracle,
    plan: VotePlan,
    budget: MeasurementBudget,
    timeouts: u64,
    dropped: u64,
    min_confidence_seen: f64,
    any_query_completed: bool,
    position_confidences: Vec<f64>,
}

impl Engine<'_> {
    /// One query under `plan`, charged to the shared budget and fault
    /// accounting; `Err(Stop::Exhausted)` when the budget ran dry before
    /// the plan was satisfied.
    fn measure(
        &mut self,
        plan: &VotePlan,
        warmup: &[u64],
        probe: &[u64],
    ) -> Result<(usize, f64), Stop> {
        let out = plan.measure_budgeted(&mut self.oracle, warmup, probe, &mut self.budget);
        self.timeouts = self.timeouts.saturating_add(out.timeouts);
        self.dropped = self.dropped.saturating_add(out.dropped);
        if out.exhausted {
            return Err(Stop::Exhausted);
        }
        Ok((out.value, out.confidence))
    }

    /// One adaptively voted read-out query; its agreement counts towards
    /// the campaign's overall confidence.
    fn vote(&mut self, warmup: &[u64], probe: &[u64]) -> Result<(usize, f64), Stop> {
        let plan = self.plan;
        let (value, confidence) = self.measure(&plan, warmup, probe)?;
        self.any_query_completed = true;
        self.min_confidence_seen = self.min_confidence_seen.min(confidence);
        Ok((value, confidence))
    }

    /// Was `target` evicted after `base ++ prepare` and `k` fresh
    /// misses? Returns the answer plus the query's confidence.
    fn evicted_within(
        &mut self,
        addrs: &SetAddrs,
        prepare: &[u64],
        target: u64,
        k: usize,
    ) -> Result<(bool, f64), Stop> {
        let mut warmup = addrs.base_fill();
        warmup.extend_from_slice(prepare);
        warmup.extend(addrs.fresh(k));
        let (misses, confidence) = self.vote(&warmup, &[target])?;
        Ok((misses > 0, confidence))
    }

    /// Smallest `k` in `1..=assoc` such that `target` is evicted within
    /// `k` fresh misses (`None` if it survives `assoc` misses), with the
    /// minimum confidence over the boolean queries resolved along the
    /// way. Resolved by binary search over the monotone predicate or by
    /// a linear scan, depending on the configured [`ReadoutSearch`].
    fn eviction_k(
        &mut self,
        addrs: &SetAddrs,
        prepare: &[u64],
        target: u64,
        search: ReadoutSearch,
    ) -> Result<(Option<usize>, f64), Stop> {
        let mut confidence = 1.0f64;
        let mut ask = |eng: &mut Self, k: usize| -> Result<bool, Stop> {
            let (evicted, c) = eng.evicted_within(addrs, prepare, target, k)?;
            confidence = confidence.min(c);
            Ok(evicted)
        };
        let k = match search {
            ReadoutSearch::Binary => {
                if !ask(self, addrs.assoc)? {
                    None
                } else {
                    let (mut lo, mut hi) = (1usize, addrs.assoc);
                    while lo < hi {
                        let mid = (lo + hi) / 2;
                        if ask(self, mid)? {
                            hi = mid;
                        } else {
                            lo = mid + 1;
                        }
                    }
                    Some(lo)
                }
            }
            ReadoutSearch::Linear => {
                let mut found = None;
                for k in 1..=addrs.assoc {
                    if ask(self, k)? {
                        found = Some(k);
                        break;
                    }
                }
                found
            }
        };
        Ok((k, confidence))
    }

    /// Read out the priority order of the base blocks after
    /// `base ++ prepare` (`order[pos] = base index`, position 0 most
    /// protected), with the read-out's aggregate (minimum) confidence.
    fn read_out(
        &mut self,
        addrs: &SetAddrs,
        prepare: &[u64],
        search: ReadoutSearch,
    ) -> Result<(Vec<usize>, f64), Stop> {
        let _span = cachekit_obs::span("read_out");
        let assoc = addrs.assoc;
        let mut order: Vec<Option<usize>> = vec![None; assoc];
        let mut confidence = 1.0f64;
        for b in 0..assoc {
            let (k, c) = self.eviction_k(addrs, prepare, addrs.base(b), search)?;
            confidence = confidence.min(c);
            let k = k.ok_or_else(|| {
                inconsistent(format!("base block {b} survives {assoc} fresh misses"))
            })?;
            let pos = assoc - k;
            if let Some(other) = order[pos] {
                return Err(inconsistent(format!(
                    "blocks {other} and {b} both read out at position {pos}"
                )));
            }
            order[pos] = Some(b);
        }
        let order = order.into_iter().map(|o| o.expect("all filled")).collect();
        Ok((order, confidence))
    }

    /// Re-run a read-out on an inconsistent result: on a noisy channel a
    /// single flipped boolean can corrupt one read-out, and the
    /// measurements of a retry are independent. A dry budget aborts
    /// immediately.
    fn read_out_retry(
        &mut self,
        addrs: &SetAddrs,
        prepare: &[u64],
        search: ReadoutSearch,
    ) -> Result<(Vec<usize>, f64), Stop> {
        let mut last = None;
        for _ in 0..3 {
            match self.read_out(addrs, prepare, search) {
                Err(Stop::Finding(e)) => last = Some(e),
                done => return done,
            }
        }
        Err(Stop::Finding(last.expect("at least one attempt")))
    }

    /// The channel's false-event rate on warm hits, budgeted like every
    /// other query.
    fn estimate_noise(&mut self, estimate: NoiseEstimate) -> Result<f64, Stop> {
        let _span = cachekit_obs::span("estimate_noise");
        let probe = vec![0u64; estimate.probes];
        let mut events = 0usize;
        for _ in 0..estimate.readings {
            let (misses, _) = self.measure(&VotePlan::single(), &[0], &probe)?;
            events += misses.min(estimate.probes);
        }
        Ok(events as f64 / (estimate.readings * estimate.probes) as f64)
    }

    /// Insertion position, base read-out, one hit read-out per position,
    /// predicted-vs-measured validation, catalog match.
    fn campaign(
        &mut self,
        request: &InferenceRequest,
        estimate: NoiseEstimate,
    ) -> Result<PolicyReport, Stop> {
        let config = &request.config;
        let search = config.readout_search;
        let assoc = request.geometry.associativity;
        let addrs = SetAddrs::new(&request.geometry);

        let noise = self.estimate_noise(estimate)?;

        // Insertion position: a block inserted at position `p` of an
        // `A`-way set is evicted by the `(A - p)`-th subsequent miss.
        let marked = addrs.marked();
        let position = match self.eviction_k(&addrs, &[marked], marked, search)? {
            (Some(k), _) => assoc - k,
            (None, _) => {
                return Err(inconsistent(
                    "marked block never evicted by fresh misses".to_owned(),
                ))
            }
        };
        if position != 0 {
            return Err(Stop::Finding(InferenceError::NotFrontInsertion {
                position,
            }));
        }

        let (base_order, _) = self.read_out_retry(&addrs, &[], search)?;

        // One hit read-out per position; each contributes its confidence
        // to the report even when a later position degrades.
        let mut hits = Vec::with_capacity(assoc);
        for &block in &base_order {
            let (new_order, confidence) =
                self.read_out_retry(&addrs, &[addrs.base(block)], search)?;
            let map = base_order
                .iter()
                .map(|old| {
                    new_order
                        .iter()
                        .position(|b| b == old)
                        .expect("read_out returns a permutation of base indices")
                })
                .collect();
            hits.push(Permutation::new(map).map_err(|e| inconsistent(e.to_string()))?);
            self.position_confidences.push(confidence);
        }
        let spec = PermutationSpec::new(hits, 0).map_err(|e| inconsistent(e.to_string()))?;

        let _span = cachekit_obs::span("validate");
        let validation_plan = VotePlan::of(config.repetitions);
        let rounds = config.validation_rounds;
        let mut mismatches = 0usize;
        for tail in validation_tails(&addrs, config) {
            let predicted = predict_tail_misses(&addrs, &base_order, &spec, &tail);
            let (measured, _) = self.measure(&validation_plan, &addrs.base_fill(), &tail)?;
            if prediction_diverges(predicted, measured, tail.len(), noise) {
                mismatches += 1;
            }
        }
        let rejected = if noise < 0.005 {
            mismatches > 0
        } else {
            // A noisy channel occasionally lands outside the tolerance
            // band even for a correct model; reject only on systematic
            // divergence.
            mismatches * 4 > rounds
        };
        if rejected {
            return Err(Stop::Finding(InferenceError::NotAPermutationPolicy {
                mismatches,
                rounds,
            }));
        }

        Ok(PolicyReport {
            geometry: request.geometry,
            matched: match_spec(&spec),
            spec,
            insertion_position: 0,
            validation_rounds: rounds,
            validation_mismatches: mismatches,
        })
    }
}

fn inconsistent(message: String) -> Stop {
    Stop::Finding(InferenceError::InconsistentReadout(message))
}

/// Run one permutation-inference campaign against `oracle`. Never
/// panics on channel behaviour: structural findings and budget
/// exhaustion both come back inside the report, with the accounting of
/// every attempt spent.
pub(crate) fn infer_permutation(
    oracle: &mut dyn CacheOracle,
    request: &InferenceRequest,
    noise: NoiseEstimate,
) -> InferenceReport {
    let _span = cachekit_obs::span("infer_policy");
    let mut eng = Engine {
        oracle,
        plan: request.config.vote_plan(),
        budget: request.config.budget(),
        timeouts: 0,
        dropped: 0,
        min_confidence_seen: 1.0,
        any_query_completed: false,
        position_confidences: Vec::with_capacity(request.geometry.associativity),
    };
    let (outcome, degraded) = match eng.campaign(request, noise) {
        Ok(report) => (Ok(Finding::Permutation(report)), false),
        Err(Stop::Finding(e)) => (Err(e), false),
        Err(Stop::Exhausted) => {
            let used = eng.budget.used();
            let budget = eng.budget.limit().unwrap_or(used);
            (Err(InferenceError::BudgetExhausted { used, budget }), true)
        }
    };
    InferenceReport {
        engine: "permutation",
        outcome,
        degraded,
        confidence: if eng.any_query_completed {
            eng.min_confidence_seen
        } else {
            0.0
        },
        position_confidences: eng.position_confidences,
        measurements_used: eng.budget.used(),
        measurement_budget: eng.budget.limit(),
        timeouts: eng.timeouts,
        dropped: eng.dropped,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::infer::{
        infer_geometry, Geometry, InferenceConfig, InferenceEngine, PermutationEngine, SimOracle,
    };
    use cachekit_policies::PolicyKind;
    use cachekit_sim::{Cache, CacheConfig};

    fn oracle_for(kind: PolicyKind, capacity: u64, assoc: usize) -> SimOracle {
        SimOracle::new(Cache::new(
            CacheConfig::new(capacity, assoc, 64).unwrap(),
            kind,
        ))
    }

    fn budgeted(
        oracle: &mut SimOracle,
        geometry: Geometry,
        config: InferenceConfig,
    ) -> InferenceReport {
        PermutationEngine::budgeted().infer(oracle, &InferenceRequest::new(geometry, config))
    }

    #[test]
    fn clean_oracle_is_confident_and_correct() {
        let mut oracle = oracle_for(PolicyKind::Lru, 16 * 1024, 4);
        let config = InferenceConfig::default();
        let geometry = infer_geometry(&mut oracle, &config).unwrap();
        let result = budgeted(&mut oracle, geometry, config);
        let finding = result.outcome.as_ref().expect("clean LRU infers");
        assert_eq!(finding.matched(), Some("LRU"));
        assert!(!result.degraded);
        assert_eq!(result.confidence, 1.0);
        assert_eq!(result.position_confidences, vec![1.0; 4]);
        assert!(result.is_confident(0.99));
        assert!(result.measurements_used > 0);
        assert_eq!(result.measurement_budget, None);
        assert_eq!(result.timeouts, 0);
        assert_eq!(result.dropped, 0);
    }

    #[test]
    fn tiny_budget_degrades_without_panicking() {
        let mut oracle = oracle_for(PolicyKind::Lru, 16 * 1024, 4);
        let config = InferenceConfig::builder()
            .measurement_budget(40)
            .build()
            .unwrap();
        let geometry = Geometry {
            line_size: 64,
            capacity: 16 * 1024,
            associativity: 4,
            num_sets: 64,
        };
        let result = budgeted(&mut oracle, geometry, config);
        assert!(result.degraded);
        assert!(!result.is_confident(0.5));
        assert_eq!(result.measurement_budget, Some(40));
        assert_eq!(result.measurements_used, 40);
        match result.outcome {
            Err(InferenceError::BudgetExhausted { used, budget }) => {
                assert_eq!(used, 40);
                assert_eq!(budget, 40);
            }
            other => panic!("expected BudgetExhausted, got {other:?}"),
        }
        assert!(result.position_confidences.len() < 4, "partial at best");
    }

    #[test]
    fn non_front_insertion_is_a_finding_not_degradation() {
        let mut oracle = oracle_for(PolicyKind::Lip, 16 * 1024, 4);
        let config = InferenceConfig::default();
        let geometry = infer_geometry(&mut oracle, &config).unwrap();
        let result = budgeted(&mut oracle, geometry, config);
        assert!(!result.degraded);
        assert_eq!(
            result.outcome,
            Err(InferenceError::NotFrontInsertion { position: 3 })
        );
    }

    #[test]
    fn strict_and_budgeted_engines_agree_on_a_clean_oracle() {
        for kind in [PolicyKind::Lru, PolicyKind::Fifo, PolicyKind::TreePlru] {
            let config = InferenceConfig::default();
            let mut oracle = oracle_for(kind, 32 * 1024, 8);
            let geometry = infer_geometry(&mut oracle, &config).unwrap();
            let request = InferenceRequest::new(geometry, config);
            let strict = PermutationEngine::strict().infer(&mut oracle.clone(), &request);
            let robust = PermutationEngine::budgeted().infer(&mut oracle, &request);
            match (strict.outcome, robust.outcome) {
                (Ok(a), Ok(b)) => {
                    assert_eq!(a.permutation().unwrap().spec, b.permutation().unwrap().spec)
                }
                (Err(a), Err(b)) => assert_eq!(a, b),
                (a, b) => panic!("strict {a:?} vs robust {b:?}"),
            }
        }
    }
}

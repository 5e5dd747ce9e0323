//! The voting primitive shared by every measurement site, and the
//! adaptive retry engine built on top of it.
//!
//! [`VotePlan`] is the single repeat-and-take-the-median
//! implementation: `measure_voted` and the inference engines all
//! delegate to it. It is also the
//! funnel through which every pipeline oracle query flows, so it is
//! where the observability counters (`oracle.measurements`,
//! `oracle.accesses`, `oracle.votes_discarded`, `oracle.timeouts`,
//! `oracle.escalations`) are incremented — attributed to whatever phase
//! span is open at the call site.
//!
//! A plan comes in two flavours:
//!
//! * **fixed** ([`VotePlan::of`]) — take exactly N readings, return the
//!   median; the behaviour the pipeline always had;
//! * **adaptive** ([`VotePlan::adaptive`]) — start with N readings,
//!   compute the agreement of the readings with their median, and
//!   escalate (double the repetition count, up to a cap) until the
//!   agreement reaches the plan's confidence bar or the caller's
//!   [`MeasurementBudget`] runs dry. Transient faults reported through
//!   [`CacheOracle::try_measure`] are absorbed: dropped readings are
//!   retried immediately, timeouts are retried under exponential
//!   backoff. Every attempt — successful or not — is charged against
//!   the budget, which is the hard cost ceiling of a robust campaign.

use crate::infer::oracle::{CacheOracle, MeasureFault};

/// Backoff slots are capped so a long timeout burst cannot make the
/// simulated wait grow without bound (the classic truncated exponential
/// backoff).
const MAX_BACKOFF_SLOTS: u64 = 64;

/// Hard ceiling on raw oracle attempts for one measurement: on a channel
/// that times out on (nearly) every attempt, an unbudgeted caller would
/// otherwise spin forever. `measure_budgeted` reports exhaustion when the
/// cap is hit, exactly as if a budget had run dry.
const MAX_ATTEMPTS_PER_MEASUREMENT: u64 = 10_000;

/// A hard ceiling on the number of raw oracle attempts a campaign may
/// spend. Shared by every measurement of the campaign; when it runs dry
/// the campaign must degrade gracefully instead of guessing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MeasurementBudget {
    limit: Option<u64>,
    used: u64,
}

impl MeasurementBudget {
    /// No ceiling: attempts are still counted, never refused.
    pub const fn unlimited() -> Self {
        Self {
            limit: None,
            used: 0,
        }
    }

    /// At most `limit` raw oracle attempts.
    pub const fn of(limit: u64) -> Self {
        Self {
            limit: Some(limit),
            used: 0,
        }
    }

    /// Attempts spent so far (faulted attempts included — they consumed
    /// wall-clock time on the channel whether or not a reading came
    /// back).
    pub fn used(&self) -> u64 {
        self.used
    }

    /// Attempts left before the ceiling, or `None` when unlimited.
    pub fn remaining(&self) -> Option<u64> {
        self.limit.map(|l| l.saturating_sub(self.used))
    }

    /// The configured ceiling, or `None` when unlimited.
    pub fn limit(&self) -> Option<u64> {
        self.limit
    }

    /// Whether the ceiling has been reached.
    pub fn is_exhausted(&self) -> bool {
        matches!(self.limit, Some(l) if self.used >= l)
    }

    /// Charge one attempt. Returns `false` (charging nothing) when the
    /// budget is already spent.
    pub fn try_charge(&mut self) -> bool {
        if self.is_exhausted() {
            return false;
        }
        self.used = self.used.saturating_add(1);
        true
    }
}

impl Default for MeasurementBudget {
    fn default() -> Self {
        Self::unlimited()
    }
}

/// The result of one adaptively voted measurement: the median reading
/// plus everything the caller needs to judge and account for it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VoteOutcome {
    /// Median of the successful readings (0 when no reading landed).
    pub value: usize,
    /// Fraction of the successful readings that agree with the median
    /// exactly — the per-query confidence score (0.0 when no reading
    /// landed).
    pub confidence: f64,
    /// Successful readings taken.
    pub readings: u64,
    /// Transient timeouts absorbed (each retried under backoff).
    pub timeouts: u64,
    /// Dropped/short readings absorbed (each retried immediately).
    pub dropped: u64,
    /// Total backoff slots consumed while retrying timeouts.
    pub backoff_slots: u64,
    /// The budget ran dry (or the per-measurement attempt cap was hit)
    /// before the plan was satisfied; `value`/`confidence` describe
    /// whatever readings were gathered first.
    pub exhausted: bool,
}

/// How many readings to take of one experiment and how to reduce them:
/// the median, which suppresses sporadic counter noise as long as fewer
/// than half the readings are corrupted.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VotePlan {
    repetitions: usize,
    max_repetitions: usize,
    min_confidence: f64,
}

impl VotePlan {
    /// Trust a single reading (no voting).
    pub const fn single() -> Self {
        Self {
            repetitions: 1,
            max_repetitions: 1,
            min_confidence: 0.0,
        }
    }

    /// Take the median of `repetitions` readings.
    ///
    /// # Panics
    ///
    /// Panics if `repetitions` is zero.
    pub fn of(repetitions: usize) -> Self {
        assert!(repetitions >= 1, "need at least one repetition");
        Self {
            repetitions,
            max_repetitions: repetitions,
            min_confidence: 0.0,
        }
    }

    /// An adaptive plan: start with `repetitions` readings, escalate by
    /// doubling up to `max_repetitions` until the readings agree with
    /// their median at the plan's confidence bar (default 2/3; see
    /// [`with_confidence`](Self::with_confidence)).
    ///
    /// # Panics
    ///
    /// Panics if `repetitions` is zero or `max_repetitions` is below
    /// `repetitions`.
    pub fn adaptive(repetitions: usize, max_repetitions: usize) -> Self {
        assert!(repetitions >= 1, "need at least one repetition");
        assert!(
            max_repetitions >= repetitions,
            "max_repetitions must be at least the initial repetitions"
        );
        Self {
            repetitions,
            max_repetitions,
            min_confidence: 2.0 / 3.0,
        }
    }

    /// Require `min_confidence` agreement (fraction of readings equal to
    /// the median) before an adaptive plan stops escalating.
    ///
    /// # Panics
    ///
    /// Panics if `min_confidence` is not within `0.0..=1.0`.
    pub fn with_confidence(mut self, min_confidence: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&min_confidence),
            "confidence must be a fraction in 0..=1"
        );
        self.min_confidence = min_confidence;
        self
    }

    /// Number of readings taken per measurement (the initial count for
    /// adaptive plans).
    pub fn repetitions(&self) -> usize {
        self.repetitions
    }

    /// Ceiling on the escalated repetition count (equal to
    /// [`repetitions`](Self::repetitions) for fixed plans).
    pub fn max_repetitions(&self) -> usize {
        self.max_repetitions
    }

    /// The agreement bar adaptive escalation works towards.
    pub fn min_confidence(&self) -> f64 {
        self.min_confidence
    }

    /// Whether this plan escalates at all.
    pub fn is_adaptive(&self) -> bool {
        self.max_repetitions > self.repetitions
    }

    /// Accesses one *attempt* of this measurement issues, saturating
    /// instead of overflowing on absurd operand sizes.
    fn attempt_accesses(warmup: &[u64], probe: &[u64]) -> u64 {
        (warmup.len() as u64).saturating_add(probe.len() as u64)
    }

    /// Total accesses `reps` attempts would issue — overflow-safe (the
    /// planned cost of `VotePlan::of(usize::MAX)` saturates rather than
    /// wrapping to a small number).
    pub fn planned_accesses(&self, warmup_len: usize, probe_len: usize) -> u64 {
        (self.repetitions as u64)
            .saturating_mul((warmup_len as u64).saturating_add(probe_len as u64))
    }

    /// Run the experiment `repetitions` times and return the median
    /// miss count. Readings that disagree with the median are counted
    /// as `oracle.votes_discarded` in the metrics registry.
    ///
    /// This is the fixed-cost path: adaptive escalation, fault retries
    /// and budgets live in [`measure_budgeted`](Self::measure_budgeted).
    pub fn measure<O: CacheOracle>(&self, oracle: &mut O, warmup: &[u64], probe: &[u64]) -> usize {
        let reps = self.repetitions;
        cachekit_obs::add("oracle.measurements", reps as u64);
        cachekit_obs::add(
            "oracle.accesses",
            self.planned_accesses(warmup.len(), probe.len()),
        );
        if reps == 1 {
            return oracle.measure(warmup, probe);
        }
        let mut results: Vec<usize> = (0..reps).map(|_| oracle.measure(warmup, probe)).collect();
        results.sort_unstable();
        let median = results[results.len() / 2];
        let discarded = results.iter().filter(|&&r| r != median).count();
        cachekit_obs::add("oracle.votes_discarded", discarded as u64);
        median
    }

    /// The adaptive entry point: gather readings through
    /// [`CacheOracle::try_measure`], absorb transient faults, escalate
    /// on disagreement, and stop at confidence or budget exhaustion.
    ///
    /// Every raw attempt (faulted or not) charges one unit from
    /// `budget`; the returned [`VoteOutcome`] carries the median, its
    /// agreement score and the fault accounting. The engine never
    /// panics on a dry budget — it reports `exhausted` and the best
    /// median it has.
    pub fn measure_budgeted<O: CacheOracle>(
        &self,
        oracle: &mut O,
        warmup: &[u64],
        probe: &[u64],
        budget: &mut MeasurementBudget,
    ) -> VoteOutcome {
        let mut readings: Vec<usize> = Vec::with_capacity(self.repetitions);
        let mut timeouts = 0u64;
        let mut dropped = 0u64;
        let mut backoff_slots = 0u64;
        let mut backoff = 1u64;
        let mut attempts = 0u64;
        let mut target = self.repetitions;
        let mut exhausted = false;
        let attempt_accesses = Self::attempt_accesses(warmup, probe);

        'escalate: loop {
            while readings.len() < target {
                if attempts >= MAX_ATTEMPTS_PER_MEASUREMENT || !budget.try_charge() {
                    exhausted = true;
                    break 'escalate;
                }
                attempts = attempts.saturating_add(1);
                cachekit_obs::add("oracle.measurements", 1);
                cachekit_obs::add("oracle.accesses", attempt_accesses);
                match oracle.try_measure(warmup, probe) {
                    Ok(m) => {
                        readings.push(m);
                        backoff = 1;
                    }
                    Err(MeasureFault::Timeout) => {
                        timeouts = timeouts.saturating_add(1);
                        backoff_slots = backoff_slots.saturating_add(backoff);
                        cachekit_obs::add("oracle.timeouts", 1);
                        cachekit_obs::record("oracle.backoff_slots", backoff);
                        backoff = (backoff.saturating_mul(2)).min(MAX_BACKOFF_SLOTS);
                    }
                    Err(MeasureFault::Dropped) => {
                        dropped = dropped.saturating_add(1);
                        cachekit_obs::add("oracle.dropped", 1);
                    }
                }
            }
            let (_, confidence) = median_and_confidence(&mut readings);
            if confidence >= self.min_confidence || target >= self.max_repetitions {
                break;
            }
            target = target.saturating_mul(2).min(self.max_repetitions);
            cachekit_obs::add("oracle.escalations", 1);
        }

        let (value, confidence) = median_and_confidence(&mut readings);
        let discarded = readings.iter().filter(|&&r| r != value).count();
        cachekit_obs::add("oracle.votes_discarded", discarded as u64);
        VoteOutcome {
            value,
            confidence,
            readings: readings.len() as u64,
            timeouts,
            dropped,
            backoff_slots,
            exhausted,
        }
    }
}

/// Median of `readings` (upper median for even counts) and the fraction
/// of readings agreeing with it; `(0, 0.0)` for an empty slice.
fn median_and_confidence(readings: &mut [usize]) -> (usize, f64) {
    if readings.is_empty() {
        return (0, 0.0);
    }
    readings.sort_unstable();
    let median = readings[readings.len() / 2];
    let agree = readings.iter().filter(|&&r| r == median).count();
    (median, agree as f64 / readings.len() as f64)
}

impl Default for VotePlan {
    fn default() -> Self {
        Self::single()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::infer::SimOracle;
    use cachekit_policies::PolicyKind;
    use cachekit_sim::{Cache, CacheConfig};

    fn oracle() -> SimOracle {
        SimOracle::new(Cache::new(
            CacheConfig::new(1024, 2, 64).unwrap(),
            PolicyKind::Lru,
        ))
    }

    #[test]
    #[should_panic(expected = "need at least one repetition")]
    fn zero_repetitions_is_rejected() {
        let _ = VotePlan::of(0);
    }

    #[test]
    #[should_panic(expected = "max_repetitions")]
    fn adaptive_cap_below_initial_is_rejected() {
        let _ = VotePlan::adaptive(5, 3);
    }

    #[test]
    fn single_is_one_repetition() {
        assert_eq!(VotePlan::single().repetitions(), 1);
        assert_eq!(VotePlan::default(), VotePlan::single());
        assert!(!VotePlan::single().is_adaptive());
        assert!(VotePlan::adaptive(3, 9).is_adaptive());
    }

    #[test]
    fn median_matches_a_direct_measurement_on_a_clean_oracle() {
        let mut o = oracle();
        let direct = o.measure(&[0], &[0, 64]);
        let voted = VotePlan::of(5).measure(&mut o, &[0], &[0, 64]);
        assert_eq!(voted, direct);
    }

    #[test]
    fn budgeted_measurement_on_a_clean_oracle_is_confident() {
        let mut o = oracle();
        let mut budget = MeasurementBudget::of(100);
        let out = VotePlan::adaptive(3, 9).measure_budgeted(&mut o, &[0], &[0, 64], &mut budget);
        assert_eq!(out.value, 1);
        assert_eq!(out.confidence, 1.0);
        assert_eq!(out.readings, 3);
        assert!(!out.exhausted);
        assert_eq!(budget.used(), 3);
    }

    #[test]
    fn planned_accesses_saturate_instead_of_wrapping() {
        let plan = VotePlan::of(usize::MAX);
        assert_eq!(plan.planned_accesses(usize::MAX, usize::MAX), u64::MAX);
        assert_eq!(VotePlan::of(3).planned_accesses(2, 3), 15);
    }

    #[test]
    fn budget_charging_stops_at_the_limit() {
        let mut b = MeasurementBudget::of(2);
        assert!(b.try_charge());
        assert!(b.try_charge());
        assert!(!b.try_charge());
        assert!(b.is_exhausted());
        assert_eq!(b.used(), 2);
        assert_eq!(b.remaining(), Some(0));
        let mut u = MeasurementBudget::unlimited();
        for _ in 0..1000 {
            assert!(u.try_charge());
        }
        assert_eq!(u.remaining(), None);
        assert!(!u.is_exhausted());
    }
}

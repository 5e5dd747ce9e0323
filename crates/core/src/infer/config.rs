//! Inference configuration and errors.

use std::error::Error;
use std::fmt;

/// How the read-out resolves the eviction point of one block.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ReadoutSearch {
    /// Binary search over the monotone "evicted within k misses"
    /// predicate: `O(log A)` experiments per block (the default).
    #[default]
    Binary,
    /// Linear scan from `k = 1`: `O(A)` experiments per block. More
    /// measurements, but each is cheaper and the scan gives the
    /// monotonicity violation check for free — the trade-off the
    /// `ablation_readout` experiment quantifies.
    Linear,
}

impl fmt::Display for ReadoutSearch {
    /// The canonical lowercase name (`"binary"` / `"linear"`) used by
    /// the serving protocol and CLI.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            ReadoutSearch::Binary => "binary",
            ReadoutSearch::Linear => "linear",
        })
    }
}

impl std::str::FromStr for ReadoutSearch {
    type Err = String;

    /// Parse `"binary"` / `"linear"` (case-insensitive) — the inverse
    /// of [`Display`](ReadoutSearch#impl-Display-for-ReadoutSearch).
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.trim().to_ascii_lowercase().as_str() {
            "binary" => Ok(ReadoutSearch::Binary),
            "linear" => Ok(ReadoutSearch::Linear),
            other => Err(format!(
                "unknown readout search {other:?} (expected \"binary\" or \"linear\")"
            )),
        }
    }
}

/// Tuning knobs for the reverse-engineering pipeline.
///
/// The defaults work for the virtual CPUs of `cachekit-hw`; on a noisier
/// channel raise [`repetitions`](Self::repetitions).
#[derive(Debug, Clone, PartialEq)]
pub struct InferenceConfig {
    /// Votes per boolean measurement (median). 1 = trust every reading.
    pub repetitions: usize,
    /// Ceiling the adaptive retry engine may escalate the per-query
    /// repetition count to (doubling on disagreement). Equal to
    /// `repetitions` disables escalation. Only the engines'
    /// ([`InferenceEngine`](crate::infer::InferenceEngine)) read-out and
    /// membership queries escalate; geometry inference and validation
    /// always use `repetitions`.
    pub max_repetitions: usize,
    /// Hard ceiling on raw oracle attempts for one engine campaign;
    /// `None` = unlimited. When the budget runs dry the campaign
    /// returns a degraded partial result instead of guessing.
    pub measurement_budget: Option<u64>,
    /// Per-query agreement (fraction of readings equal to the median)
    /// the adaptive engine escalates towards, in `(0, 1]`.
    pub min_confidence: f64,
    /// Largest line size considered (bytes, power of two).
    pub max_line_size: u64,
    /// Smallest capacity considered (bytes).
    pub min_capacity: u64,
    /// Largest capacity considered (bytes).
    pub max_capacity: u64,
    /// Largest associativity considered.
    pub max_associativity: usize,
    /// Second-pass miss-ratio above which a working set is deemed not to
    /// fit (capacity detection threshold).
    pub capacity_miss_threshold: f64,
    /// Number of random scripts in the validation phase.
    pub validation_rounds: usize,
    /// Seed for the validation script generator.
    pub seed: u64,
    /// Search strategy of the state read-out.
    pub readout_search: ReadoutSearch,
}

impl Default for InferenceConfig {
    fn default() -> Self {
        Self {
            repetitions: 3,
            max_repetitions: 12,
            measurement_budget: None,
            min_confidence: 2.0 / 3.0,
            max_line_size: 4096,
            min_capacity: 1024,
            max_capacity: 64 * 1024 * 1024,
            max_associativity: 64,
            capacity_miss_threshold: 0.08,
            validation_rounds: 40,
            seed: 0xCA11AB1E,
            readout_search: ReadoutSearch::default(),
        }
    }
}

impl InferenceConfig {
    /// A configuration with `repetitions` votes and defaults elsewhere
    /// (the escalation ceiling is raised to keep `max_repetitions ≥
    /// repetitions`).
    pub fn with_repetitions(repetitions: usize) -> Self {
        let defaults = Self::default();
        Self {
            repetitions,
            max_repetitions: defaults.max_repetitions.max(repetitions),
            ..defaults
        }
    }

    /// The vote plan the inference engines derive from this
    /// configuration: adaptive between `repetitions` and
    /// `max_repetitions`, escalating towards `min_confidence`.
    pub fn vote_plan(&self) -> crate::infer::VotePlan {
        crate::infer::VotePlan::adaptive(self.repetitions, self.max_repetitions)
            .with_confidence(self.min_confidence)
    }

    /// The measurement budget an inference engine campaign starts from.
    pub fn budget(&self) -> crate::infer::MeasurementBudget {
        match self.measurement_budget {
            Some(limit) => crate::infer::MeasurementBudget::of(limit),
            None => crate::infer::MeasurementBudget::unlimited(),
        }
    }

    /// Start a validating builder from the defaults. Invalid
    /// combinations fail at [`build`](InferenceConfigBuilder::build)
    /// instead of mid-campaign:
    ///
    /// ```
    /// use cachekit_core::infer::{InferenceConfig, ReadoutSearch};
    ///
    /// # fn main() -> Result<(), Box<dyn std::error::Error>> {
    /// let config = InferenceConfig::builder()
    ///     .repetitions(7)
    ///     .readout(ReadoutSearch::Linear)
    ///     .max_capacity(4 * 1024 * 1024)
    ///     .build()?;
    /// assert_eq!(config.repetitions, 7);
    /// # Ok(())
    /// # }
    /// ```
    pub fn builder() -> InferenceConfigBuilder {
        InferenceConfigBuilder {
            config: Self::default(),
            max_repetitions_set: false,
        }
    }
}

/// A configuration that a builder refused to produce, and why.
#[derive(Debug, Clone, PartialEq)]
pub enum ConfigError {
    /// `repetitions` was zero; the voting layer needs at least one
    /// reading.
    ZeroRepetitions,
    /// `max_line_size` must be a power of two (the line-size search
    /// doubles from 1).
    LineSizeNotPowerOfTwo(u64),
    /// The capacity search range is empty or starts at zero.
    CapacityRangeEmpty {
        /// Configured minimum capacity (bytes).
        min: u64,
        /// Configured maximum capacity (bytes).
        max: u64,
    },
    /// `max_associativity` was zero.
    ZeroAssociativity,
    /// `capacity_miss_threshold` must lie strictly between 0 and 1.
    ThresholdOutOfRange(f64),
    /// `validation_rounds` was zero; a spec validated against nothing
    /// proves nothing.
    ZeroValidationRounds,
    /// `max_repetitions` was below `repetitions`; the escalation range
    /// would be empty.
    MaxRepetitionsBelowInitial {
        /// Configured escalation ceiling.
        max: usize,
        /// Configured initial repetition count.
        initial: usize,
    },
    /// `measurement_budget` was `Some(0)`; a campaign that may not
    /// measure at all can only degrade.
    ZeroMeasurementBudget,
    /// `min_confidence` must lie in `(0, 1]`.
    ConfidenceOutOfRange(f64),
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::ZeroRepetitions => write!(f, "repetitions must be at least 1"),
            ConfigError::LineSizeNotPowerOfTwo(v) => {
                write!(f, "max_line_size must be a power of two, got {v}")
            }
            ConfigError::CapacityRangeEmpty { min, max } => {
                write!(f, "capacity range is empty: min {min} .. max {max}")
            }
            ConfigError::ZeroAssociativity => write!(f, "max_associativity must be at least 1"),
            ConfigError::ThresholdOutOfRange(v) => {
                write!(f, "capacity_miss_threshold must be in (0, 1), got {v}")
            }
            ConfigError::ZeroValidationRounds => {
                write!(f, "validation_rounds must be at least 1")
            }
            ConfigError::MaxRepetitionsBelowInitial { max, initial } => {
                write!(
                    f,
                    "max_repetitions ({max}) must be at least repetitions ({initial})"
                )
            }
            ConfigError::ZeroMeasurementBudget => {
                write!(f, "measurement_budget must be at least 1 when set")
            }
            ConfigError::ConfidenceOutOfRange(v) => {
                write!(f, "min_confidence must be in (0, 1], got {v}")
            }
        }
    }
}

impl Error for ConfigError {}

/// Validating builder for [`InferenceConfig`]; see
/// [`InferenceConfig::builder`].
#[derive(Debug, Clone)]
pub struct InferenceConfigBuilder {
    config: InferenceConfig,
    max_repetitions_set: bool,
}

impl InferenceConfigBuilder {
    /// Votes per boolean measurement (median).
    pub fn repetitions(mut self, repetitions: usize) -> Self {
        self.config.repetitions = repetitions;
        self
    }

    /// Ceiling for adaptive repetition escalation. When not set
    /// explicitly, [`build`](Self::build) raises the default ceiling to
    /// at least `repetitions`.
    pub fn max_repetitions(mut self, max: usize) -> Self {
        self.config.max_repetitions = max;
        self.max_repetitions_set = true;
        self
    }

    /// Hard ceiling on raw oracle attempts for an engine campaign.
    pub fn measurement_budget(mut self, budget: u64) -> Self {
        self.config.measurement_budget = Some(budget);
        self
    }

    /// Per-query agreement the adaptive engine escalates towards.
    pub fn min_confidence(mut self, confidence: f64) -> Self {
        self.config.min_confidence = confidence;
        self
    }

    /// Largest line size considered (bytes, power of two).
    pub fn max_line_size(mut self, bytes: u64) -> Self {
        self.config.max_line_size = bytes;
        self
    }

    /// Smallest capacity considered (bytes).
    pub fn min_capacity(mut self, bytes: u64) -> Self {
        self.config.min_capacity = bytes;
        self
    }

    /// Largest capacity considered (bytes).
    pub fn max_capacity(mut self, bytes: u64) -> Self {
        self.config.max_capacity = bytes;
        self
    }

    /// Largest associativity considered.
    pub fn max_associativity(mut self, ways: usize) -> Self {
        self.config.max_associativity = ways;
        self
    }

    /// Second-pass miss-ratio above which a working set is deemed not
    /// to fit.
    pub fn capacity_miss_threshold(mut self, threshold: f64) -> Self {
        self.config.capacity_miss_threshold = threshold;
        self
    }

    /// Number of random scripts in the validation phase.
    pub fn validation_rounds(mut self, rounds: usize) -> Self {
        self.config.validation_rounds = rounds;
        self
    }

    /// Seed for the validation script generator.
    pub fn seed(mut self, seed: u64) -> Self {
        self.config.seed = seed;
        self
    }

    /// Search strategy of the state read-out.
    pub fn readout(mut self, search: ReadoutSearch) -> Self {
        self.config.readout_search = search;
        self
    }

    /// Validate and produce the configuration.
    pub fn build(self) -> Result<InferenceConfig, ConfigError> {
        let mut c = self.config;
        if c.repetitions == 0 {
            return Err(ConfigError::ZeroRepetitions);
        }
        if !self.max_repetitions_set {
            // The default ceiling tracks an explicitly raised initial
            // count so `.repetitions(27)` alone stays valid.
            c.max_repetitions = c.max_repetitions.max(c.repetitions);
        }
        if c.max_repetitions < c.repetitions {
            return Err(ConfigError::MaxRepetitionsBelowInitial {
                max: c.max_repetitions,
                initial: c.repetitions,
            });
        }
        if c.measurement_budget == Some(0) {
            return Err(ConfigError::ZeroMeasurementBudget);
        }
        if !(c.min_confidence > 0.0 && c.min_confidence <= 1.0) {
            return Err(ConfigError::ConfidenceOutOfRange(c.min_confidence));
        }
        if !c.max_line_size.is_power_of_two() {
            return Err(ConfigError::LineSizeNotPowerOfTwo(c.max_line_size));
        }
        if c.min_capacity == 0 || c.min_capacity > c.max_capacity {
            return Err(ConfigError::CapacityRangeEmpty {
                min: c.min_capacity,
                max: c.max_capacity,
            });
        }
        if c.max_associativity == 0 {
            return Err(ConfigError::ZeroAssociativity);
        }
        if !(c.capacity_miss_threshold > 0.0 && c.capacity_miss_threshold < 1.0) {
            return Err(ConfigError::ThresholdOutOfRange(c.capacity_miss_threshold));
        }
        if c.validation_rounds == 0 {
            return Err(ConfigError::ZeroValidationRounds);
        }
        Ok(c)
    }
}

/// Failure modes of the pipeline. Several of these are *results*, not
/// bugs: a processor with random replacement is supposed to surface as
/// [`NotAPermutationPolicy`](Self::NotAPermutationPolicy).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InferenceError {
    /// No line-size knee was found up to the configured maximum.
    LineSizeNotFound,
    /// No capacity knee was found within the configured range.
    CapacityNotFound,
    /// No associativity knee was found up to the configured maximum.
    AssociativityNotFound,
    /// The inferred quantities contradict each other.
    GeometryInconsistent(String),
    /// New lines are inserted away from the most-protected position; the
    /// read-out (like the paper's) requires front insertion.
    NotFrontInsertion {
        /// The detected insertion position.
        position: usize,
    },
    /// A state read-out did not produce a consistent total order —
    /// evidence against the permutation-policy hypothesis.
    InconsistentReadout(String),
    /// The inferred spec failed validation against the hardware — the
    /// policy is outside the permutation class (or the channel is too
    /// noisy for the configured repetitions).
    NotAPermutationPolicy {
        /// Diverging validation scripts.
        mismatches: usize,
        /// Total validation scripts.
        rounds: usize,
    },
    /// The determinism battery found the channel's responses to repeated
    /// identical words unstable — the policy (or the channel) is
    /// stochastic, so no deterministic Mealy machine can model it. Like
    /// [`NotAPermutationPolicy`](Self::NotAPermutationPolicy) this is a
    /// *finding*, not a bug: random replacement is supposed to land here.
    NotDeterministic {
        /// Battery words whose repeated readings disagreed.
        disagreeing: usize,
        /// Total battery words probed.
        battery: usize,
    },
    /// The campaign's measurement budget ran dry before the pipeline
    /// finished; the accompanying
    /// [`InferenceReport`](crate::infer::InferenceReport) carries
    /// whatever partial evidence was gathered (`degraded: true`).
    BudgetExhausted {
        /// Raw oracle attempts spent.
        used: u64,
        /// The configured ceiling.
        budget: u64,
    },
}

impl fmt::Display for InferenceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InferenceError::LineSizeNotFound => write!(f, "no line-size boundary detected"),
            InferenceError::CapacityNotFound => write!(f, "no capacity knee detected"),
            InferenceError::AssociativityNotFound => {
                write!(f, "no associativity conflict point detected")
            }
            InferenceError::GeometryInconsistent(why) => {
                write!(f, "inconsistent geometry: {why}")
            }
            InferenceError::NotFrontInsertion { position } => {
                write!(f, "policy inserts at position {position}, not at the front")
            }
            InferenceError::InconsistentReadout(why) => {
                write!(f, "inconsistent state read-out: {why}")
            }
            InferenceError::NotAPermutationPolicy { mismatches, rounds } => write!(
                f,
                "validation rejected the permutation-policy hypothesis \
                 ({mismatches}/{rounds} scripts diverged)"
            ),
            InferenceError::NotDeterministic {
                disagreeing,
                battery,
            } => write!(
                f,
                "determinism battery rejected the deterministic-policy hypothesis \
                 ({disagreeing}/{battery} words gave unstable readings)"
            ),
            InferenceError::BudgetExhausted { used, budget } => write!(
                f,
                "measurement budget exhausted ({used}/{budget} attempts spent)"
            ),
        }
    }
}

impl Error for InferenceError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_sane() {
        let c = InferenceConfig::default();
        assert!(c.repetitions >= 1);
        assert!(c.min_capacity <= c.max_capacity);
        assert!(c.capacity_miss_threshold > 0.0 && c.capacity_miss_threshold < 1.0);
    }

    #[test]
    fn with_repetitions_overrides_only_votes() {
        let c = InferenceConfig::with_repetitions(9);
        assert_eq!(c.repetitions, 9);
        assert_eq!(c.max_line_size, InferenceConfig::default().max_line_size);
    }

    #[test]
    fn builder_with_no_overrides_equals_default() {
        assert_eq!(
            InferenceConfig::builder().build().unwrap(),
            InferenceConfig::default()
        );
    }

    #[test]
    fn builder_applies_every_knob() {
        let c = InferenceConfig::builder()
            .repetitions(7)
            .max_repetitions(28)
            .measurement_budget(5000)
            .min_confidence(0.9)
            .max_line_size(256)
            .min_capacity(2048)
            .max_capacity(1024 * 1024)
            .max_associativity(16)
            .capacity_miss_threshold(0.2)
            .validation_rounds(11)
            .seed(42)
            .readout(ReadoutSearch::Linear)
            .build()
            .unwrap();
        let expect = InferenceConfig {
            repetitions: 7,
            max_repetitions: 28,
            measurement_budget: Some(5000),
            min_confidence: 0.9,
            max_line_size: 256,
            min_capacity: 2048,
            max_capacity: 1024 * 1024,
            max_associativity: 16,
            capacity_miss_threshold: 0.2,
            validation_rounds: 11,
            seed: 42,
            readout_search: ReadoutSearch::Linear,
        };
        assert_eq!(c, expect);
    }

    #[test]
    fn default_ceiling_tracks_a_raised_repetition_count() {
        // Not setting max_repetitions must never make a plain
        // `.repetitions(n)` config invalid.
        let c = InferenceConfig::builder().repetitions(27).build().unwrap();
        assert_eq!(c.max_repetitions, 27);
        assert_eq!(InferenceConfig::with_repetitions(27).max_repetitions, 27);
        let plan = c.vote_plan();
        assert_eq!(plan.repetitions(), 27);
        assert_eq!(plan.max_repetitions(), 27);
    }

    #[test]
    fn builder_rejects_invalid_robustness_knobs() {
        use ConfigError::*;
        let b = InferenceConfig::builder;
        assert_eq!(
            b().repetitions(5).max_repetitions(3).build(),
            Err(MaxRepetitionsBelowInitial { max: 3, initial: 5 })
        );
        assert_eq!(
            b().measurement_budget(0).build(),
            Err(ZeroMeasurementBudget)
        );
        assert_eq!(
            b().min_confidence(0.0).build(),
            Err(ConfidenceOutOfRange(0.0))
        );
        assert_eq!(
            b().min_confidence(1.5).build(),
            Err(ConfidenceOutOfRange(1.5))
        );
        assert!(matches!(
            b().min_confidence(f64::NAN).build(),
            Err(ConfidenceOutOfRange(v)) if v.is_nan()
        ));
    }

    #[test]
    fn builder_rejects_each_invalid_combination() {
        use ConfigError::*;
        let b = InferenceConfig::builder;
        assert_eq!(b().repetitions(0).build(), Err(ZeroRepetitions));
        assert_eq!(
            b().max_line_size(96).build(),
            Err(LineSizeNotPowerOfTwo(96))
        );
        assert_eq!(
            b().min_capacity(0).build(),
            Err(CapacityRangeEmpty {
                min: 0,
                max: InferenceConfig::default().max_capacity
            })
        );
        assert_eq!(
            b().min_capacity(4096).max_capacity(1024).build(),
            Err(CapacityRangeEmpty {
                min: 4096,
                max: 1024
            })
        );
        assert_eq!(b().max_associativity(0).build(), Err(ZeroAssociativity));
        assert_eq!(
            b().capacity_miss_threshold(1.0).build(),
            Err(ThresholdOutOfRange(1.0))
        );
        assert!(matches!(
            b().capacity_miss_threshold(f64::NAN).build(),
            Err(ThresholdOutOfRange(t)) if t.is_nan()
        ));
        assert_eq!(b().validation_rounds(0).build(), Err(ZeroValidationRounds));
    }

    #[test]
    fn readout_search_round_trips_through_strings() {
        for search in [ReadoutSearch::Binary, ReadoutSearch::Linear] {
            let name = search.to_string();
            assert_eq!(name.parse::<ReadoutSearch>(), Ok(search));
            assert_eq!(name.to_uppercase().parse::<ReadoutSearch>(), Ok(search));
        }
        assert!("quadratic".parse::<ReadoutSearch>().is_err());
    }

    #[test]
    fn errors_render_reasonably() {
        let e = InferenceError::NotAPermutationPolicy {
            mismatches: 3,
            rounds: 40,
        };
        assert!(e.to_string().contains("3/40"));
    }
}

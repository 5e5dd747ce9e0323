//! Shared helpers for the integration-test suites. Each test binary
//! compiles this module independently, so not every helper is used by
//! every binary.
#![allow(dead_code)]

pub mod shrink;

use cachekit::core::infer::{
    CacheOracle, Geometry, InferenceConfig, InferenceEngine, InferenceError, InferenceRequest,
    PermutationEngine, PolicyReport,
};

/// Run the strict permutation engine and unwrap its evidence into the
/// `Result` shape most inference assertions compare.
pub fn infer_strict(
    oracle: &mut dyn CacheOracle,
    geometry: &Geometry,
    config: &InferenceConfig,
) -> Result<PolicyReport, InferenceError> {
    PermutationEngine::strict()
        .infer(oracle, &InferenceRequest::new(*geometry, config.clone()))
        .outcome
        .map(|finding| {
            finding
                .permutation()
                .cloned()
                .expect("the permutation engine reports permutation evidence")
        })
}

//! Whole-machine reverse-engineering campaigns.
//!
//! [`survey_with_engine`] runs the full pipeline (geometry, then policy)
//! against every cache level of a virtual CPU and gathers the per-level
//! results into one report — the programmatic form of the paper's
//! per-processor table rows. The policy step goes through the
//! [`InferenceEngine`] trait, so a survey can run the permutation
//! pipeline, the automata learner, or the auto fallback chain without
//! touching this module.

use crate::{CacheLevel, LevelOracle, MeasureMode, VirtualCpu};
use cachekit_core::infer::{
    infer_geometry, CacheOracleExt, Counting, Geometry, InferenceConfig, InferenceEngine,
    InferenceError, InferenceReport, InferenceRequest,
};
use std::fmt;

/// Result for one cache level of a survey.
#[derive(Debug)]
pub struct LevelSurvey {
    /// The level measured.
    pub level: CacheLevel,
    /// The inferred geometry, or why none was found.
    pub geometry: Result<Geometry, InferenceError>,
    /// The engine's report (only attempted when the geometry
    /// succeeded).
    pub policy: Option<InferenceReport>,
    /// Measurements spent on this level.
    pub measurements: u64,
    /// Memory accesses spent on this level.
    pub accesses: u64,
}

impl LevelSurvey {
    /// Short outcome string: the policy name, `"UNDOCUMENTED"`, or the
    /// rejection reason.
    pub fn verdict(&self) -> String {
        match (&self.geometry, &self.policy) {
            (Err(e), _) => format!("geometry failed: {e}"),
            (Ok(_), Some(report)) => match &report.outcome {
                Ok(finding) => finding
                    .matched()
                    .map(str::to_owned)
                    .unwrap_or_else(|| "UNDOCUMENTED".to_owned()),
                Err(e) => format!("rejected: {e}"),
            },
            (Ok(_), None) => "geometry only".to_owned(),
        }
    }
}

/// A whole-machine survey: one [`LevelSurvey`] per cache level.
#[derive(Debug)]
pub struct MachineSurvey {
    /// The surveyed machine's display name.
    pub cpu: String,
    /// Per-level results, L1 first.
    pub levels: Vec<LevelSurvey>,
}

impl fmt::Display for MachineSurvey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "=== {} ===", self.cpu)?;
        for l in &self.levels {
            write!(f, "{:?}: ", l.level)?;
            match &l.geometry {
                Ok(g) => write!(f, "{g} — {}", l.verdict())?,
                Err(e) => write!(f, "geometry failed: {e}")?,
            }
            writeln!(
                f,
                "  [{} measurements, {} accesses]",
                l.measurements, l.accesses
            )?;
        }
        Ok(())
    }
}

/// Reverse engineer every cache level of `cpu` through `engine`.
///
/// Levels are measured independently (each gets a fresh oracle); a
/// failing level does not stop the survey — rejections are results, not
/// errors (see [`InferenceError`]).
pub fn survey_with_engine(
    cpu: &mut VirtualCpu,
    config: &InferenceConfig,
    mode: MeasureMode,
    engine: &dyn InferenceEngine,
) -> MachineSurvey {
    let mut levels = vec![CacheLevel::L1, CacheLevel::L2];
    if cpu.l3_config().is_some() {
        levels.push(CacheLevel::L3);
    }
    let name = cpu.name().to_owned();
    let results = levels
        .into_iter()
        .map(|level| {
            let _span = cachekit_obs::span(&format!("survey.{level:?}"));
            let mut oracle = LevelOracle::new(cpu, level).with_mode(mode).layer(Counting);
            let geometry = infer_geometry(&mut oracle, config);
            let policy = geometry
                .as_ref()
                .ok()
                .map(|g| engine.infer(&mut oracle, &InferenceRequest::new(*g, config.clone())));
            LevelSurvey {
                level,
                geometry,
                policy,
                measurements: oracle.measurements(),
                accesses: oracle.accesses(),
            }
        })
        .collect();
    MachineSurvey {
        cpu: name,
        levels: results,
    }
}

/// Survey a whole fleet of machines concurrently through `engine`
/// (shared read-only across the workers), one worker per machine,
/// returning the surveys in fleet order.
///
/// Campaigns against different machines share no state at all, so this
/// is a pure fan-out over the bounded pool of `cachekit-sim::parallel`;
/// `jobs` of `None` resolves via `CACHEKIT_JOBS`, then available
/// parallelism. Per-machine results are identical to calling
/// [`survey_with_engine`] serially (each virtual CPU carries its own
/// seeded noise stream).
pub fn survey_fleet_with_engine(
    cpus: Vec<VirtualCpu>,
    config: &InferenceConfig,
    mode: MeasureMode,
    jobs: Option<usize>,
    engine: &(dyn InferenceEngine + Sync),
) -> Vec<MachineSurvey> {
    let jobs = cachekit_sim::parallel::effective_jobs(jobs);
    let cells: Vec<std::sync::Mutex<VirtualCpu>> =
        cpus.into_iter().map(std::sync::Mutex::new).collect();
    cachekit_sim::parallel::par_map(&cells, jobs, |cell| {
        let mut cpu = cell.lock().expect("exactly one worker per machine");
        survey_with_engine(&mut cpu, config, mode, engine)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fleet;
    use cachekit_core::infer::PermutationEngine;
    use cachekit_policies::PolicyKind;
    use cachekit_sim::CacheConfig;

    fn survey(cpu: &mut VirtualCpu, config: &InferenceConfig) -> MachineSurvey {
        survey_with_engine(
            cpu,
            config,
            MeasureMode::PerfCounter,
            &PermutationEngine::strict(),
        )
    }

    /// The whole fleet at release optimisation; debug builds survey
    /// only the two machines without the Core 2 parts' 2–6 MiB L2s,
    /// whose geometry campaigns take minutes unoptimised.
    fn fleet_under_test() -> Vec<VirtualCpu> {
        if cfg!(debug_assertions) {
            vec![fleet::atom_d525(), fleet::mystery_rand()]
        } else {
            fleet::all()
        }
    }

    #[test]
    fn parallel_fleet_survey_matches_serial() {
        let config = InferenceConfig::default();
        let serial: Vec<String> = fleet_under_test()
            .into_iter()
            .map(|mut cpu| survey(&mut cpu, &config).to_string())
            .collect();
        let parallel: Vec<String> = survey_fleet_with_engine(
            fleet_under_test(),
            &config,
            MeasureMode::PerfCounter,
            Some(4),
            &PermutationEngine::strict(),
        )
        .into_iter()
        .map(|s| s.to_string())
        .collect();
        assert_eq!(serial, parallel);
    }

    #[test]
    fn surveys_a_two_level_machine() {
        let mut cpu = fleet::atom_d525();
        let s = survey(&mut cpu, &InferenceConfig::default());
        assert_eq!(s.cpu, "atom_d525");
        assert_eq!(s.levels.len(), 2);
        assert_eq!(s.levels[0].verdict(), "LRU");
        assert_eq!(s.levels[1].verdict(), "PLRU");
        assert!(s.levels.iter().all(|l| l.measurements > 0));
        let rendered = s.to_string();
        assert!(rendered.contains("24 KiB"));
        assert!(rendered.contains("PLRU"));
    }

    #[test]
    fn surveys_include_the_l3_and_keep_rejections_as_results() {
        let mut cpu = crate::VirtualCpu::builder("mini")
            .l1(CacheConfig::new(2 * 1024, 2, 64).unwrap(), PolicyKind::Lru)
            .l2(
                CacheConfig::new(16 * 1024, 4, 64).unwrap(),
                PolicyKind::Random { seed: 1 },
            )
            .l3(
                CacheConfig::new(128 * 1024, 8, 64).unwrap(),
                PolicyKind::TreePlru,
            )
            .build();
        let s = survey(&mut cpu, &InferenceConfig::default());
        assert_eq!(s.levels.len(), 3);
        assert_eq!(s.levels[0].verdict(), "LRU");
        assert!(s.levels[1].verdict().starts_with("rejected"));
        assert_eq!(s.levels[2].verdict(), "PLRU");
    }
}

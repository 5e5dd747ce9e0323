//! `infer_fleet`: reverse-engineering campaigns on one thread.
//!
//! Each campaign is one cache level: `infer_geometry` followed by
//! `InferenceEngine::infer`, the steps `campaign::survey_with_engine`
//! runs per level. The budgeted permutation engine surveys both levels
//! of `atom_d525`, `mystery_rand` and `quark_x1000` (L2 levels, and
//! machines outside the permutation class so the rejection path runs);
//! the automata engine runs on the `atom_d525` L1. The seed is the validation-script seed. The oracle
//! steps a `VirtualCpu` one access at a time, so the simulator's batch
//! path does no work here.

use crate::report::Report;
use crate::stats;
use crate::tracer::{SpanId, Tracer};
use crate::{cpu_timed, timed, Opts};
use cachekit_core::infer::{
    infer_geometry, AutomataEngine, CacheOracle, CacheOracleExt, Counting, InferenceConfig,
    InferenceEngine, InferenceReport, InferenceRequest, MeasureFault, PermutationEngine,
};
use cachekit_hw::{fleet, CacheLevel, LevelOracle, VirtualCpu};
use cachekit_policies::PolicyKind;
use std::cell::Cell;
use std::rc::Rc;
use std::time::{Duration, Instant};

/// Which engine a campaign uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Engine {
    /// The budgeted permutation engine.
    Permutation,
    /// The automata learner.
    Automata,
}

/// One campaign of the set: machine, level, engine.
pub type Campaign = (&'static str, CacheLevel, Engine);

/// The campaign set, in order.
pub fn campaigns() -> Vec<Campaign> {
    use CacheLevel::{L1, L2};
    use Engine::{Automata, Permutation};
    let mut set = Vec::new();
    // Seven campaigns with well-separated times (see `NOMINAL_SET_S`).
    for machine in ["atom_d525", "mystery_rand", "quark_x1000"] {
        set.push((machine, L1, Permutation));
        set.push((machine, L2, Permutation));
    }
    set.push(("atom_d525", L1, Automata));
    set
}

fn machine(name: &str) -> VirtualCpu {
    fleet::by_name(name).expect("campaign machines are fleet members")
}

fn hidden_policy(cpu: &VirtualCpu, level: CacheLevel) -> String {
    match level {
        CacheLevel::L1 => cpu.hidden_l1_policy().to_owned(),
        CacheLevel::L2 => cpu.hidden_l2_policy().to_owned(),
        CacheLevel::L3 => cpu.hidden_l3_policy().unwrap_or("none").to_owned(),
    }
}

/// Whether the verdict is right: a confident finding must name the
/// hidden policy, and a rejection is right exactly when the hidden
/// policy is outside the permutation class (or stochastic).
pub fn verdict_correct(
    engine: Engine,
    report: &InferenceReport,
    truth: &str,
    min_confidence: f64,
) -> bool {
    let outside_permutations = match PolicyKind::parse_label(truth) {
        Some(kind) => {
            !kind.is_deterministic() || PolicyKind::non_permutation_kinds().contains(&kind)
        }
        None => true,
    };
    match &report.outcome {
        Ok(finding) => report.is_confident(min_confidence) && finding.matched() == Some(truth),
        // The automata engine can name non-permutation policies, so its
        // rejections are only expected for stochastic ones.
        Err(_) => match engine {
            Engine::Permutation => outside_permutations,
            Engine::Automata => {
                PolicyKind::parse_label(truth).is_none_or(|k| !k.is_deterministic())
            }
        },
    }
}

/// An oracle wrapper that adds the time of every `measure`/`try_measure`
/// call to a shared counter (shared so the span callbacks can read it
/// while the engine holds the oracle).
pub struct Timed<O> {
    inner: O,
    busy: Rc<Cell<Duration>>,
}

impl<O: CacheOracle> Timed<O> {
    fn add(&self, since: Instant) {
        self.busy.set(self.busy.get() + since.elapsed());
    }
}

impl<O: CacheOracle> CacheOracle for Timed<O> {
    fn measure(&mut self, warmup: &[u64], probe: &[u64]) -> usize {
        let t = Instant::now();
        let r = self.inner.measure(warmup, probe);
        self.add(t);
        r
    }

    fn try_measure(&mut self, warmup: &[u64], probe: &[u64]) -> Result<usize, MeasureFault> {
        let t = Instant::now();
        let r = self.inner.try_measure(warmup, probe);
        self.add(t);
        r
    }
}

/// What one campaign produced.
pub struct Outcome {
    /// Whether the verdict was right.
    pub correct: bool,
    /// Oracle measurements spent.
    pub measurements: u64,
    /// Memory accesses the oracle issued.
    pub accesses: u64,
    /// Timeouts and dropped readouts the engine saw.
    pub faults: (u64, u64),
    /// A one-line description.
    pub verdict: String,
}

fn config(seed: u64) -> InferenceConfig {
    InferenceConfig::builder()
        .seed(seed)
        .build()
        .expect("default inference configuration is valid")
}

/// Run one campaign through `oracle`, calling `phase` around geometry
/// and policy inference (the traced run opens spans there).
fn campaign<O: CacheOracle>(
    oracle: &mut O,
    engine: Engine,
    config: &InferenceConfig,
    mut phase: impl FnMut(&'static str, bool),
) -> Option<InferenceReport> {
    phase("infer.geometry", true);
    let geometry = infer_geometry(oracle, config);
    phase("infer.geometry", false);
    let geometry = geometry.ok()?;
    let request = InferenceRequest::new(geometry, config.clone());
    phase("infer.policy", true);
    let report = match engine {
        Engine::Permutation => PermutationEngine::budgeted().infer(oracle, &request),
        Engine::Automata => AutomataEngine::default().infer(oracle, &request),
    };
    phase("infer.policy", false);
    Some(report)
}

fn judge(
    (name, level, engine): Campaign,
    truth: &str,
    report: Option<InferenceReport>,
    config: &InferenceConfig,
    measurements: u64,
    accesses: u64,
) -> Outcome {
    let (correct, verdict, faults) = match &report {
        None => (false, "geometry inference failed".to_owned(), (0, 0)),
        Some(r) => (
            verdict_correct(engine, r, truth, config.min_confidence),
            match &r.outcome {
                Ok(f) => f.matched().unwrap_or("UNDOCUMENTED").to_owned(),
                Err(e) => format!("rejected: {e}"),
            },
            (r.timeouts, r.dropped),
        ),
    };
    Outcome {
        correct,
        measurements,
        accesses,
        faults,
        verdict: format!("{name} {level:?} {engine:?}: {verdict} (hidden {truth})"),
    }
}

/// Run one campaign untraced on a freshly built machine.
pub fn run_campaign(c: Campaign, mut cpu: VirtualCpu, config: &InferenceConfig) -> Outcome {
    let (_, level, engine) = c;
    let truth = hidden_policy(&cpu, level);
    let mut oracle = LevelOracle::new(&mut cpu, level).layer(Counting);
    let report = campaign(&mut oracle, engine, config, |_, _| {});
    judge(
        c,
        &truth,
        report,
        config,
        oracle.measurements(),
        oracle.accesses(),
    )
}

/// Build every machine of the set (the workload's set-up).
pub fn setup() -> Vec<VirtualCpu> {
    campaigns()
        .iter()
        .map(|&(name, ..)| machine(name))
        .collect()
}

/// CPU time of one campaign set on the reference host (seconds). With
/// k sets the sorted campaign times form seven clusters of k, so the
/// median falls inside the fourth (`mystery_rand` L1) and the tail
/// (p90 or p95) inside the seventh (automata), not between two clusters.
pub const NOMINAL_SET_S: f64 = 0.53;

/// Set-up repeats: building the fleet takes about a millisecond, so it
/// is repeated more often than the other workloads' set-ups.
const SETUP_REPEATS: usize = 25;

/// The untraced run.
pub fn run(opts: &Opts) -> Report {
    let mut report = Report::default();
    let (setup_s, _) = crate::setup_repeated(SETUP_REPEATS, setup);
    let config = config(opts.seed);
    let set = campaigns();
    // One untimed set first: the first campaigns of a process run slower
    // while allocations and engine state warm up. Its verdicts count.
    for (&c, cpu) in set.iter().zip(setup()) {
        let outcome = run_campaign(c, cpu, &config);
        report.check(outcome.correct, || outcome.verdict.clone());
    }

    let mut latencies_ms = Vec::new();
    let mut set_s = Vec::new();
    let mut set_maccess = Vec::new();
    let mut measurements = Vec::new();
    // At least three sets: the tail rule needs 20 campaigns.
    for _ in 0..crate::units(opts, NOMINAL_SET_S).max(3) {
        let mut busy = 0.0;
        let mut accesses = 0u64;
        let mut spent = 0u64;
        for (&c, cpu) in set.iter().zip(setup()) {
            let (outcome, dt) = cpu_timed(|| run_campaign(c, cpu, &config));
            busy += dt;
            accesses += outcome.accesses;
            spent += outcome.measurements;
            latencies_ms.push(dt * 1e3);
            report.check(outcome.correct, || outcome.verdict.clone());
        }
        set_s.push(busy);
        set_maccess.push(accesses as f64 / busy / 1e6);
        measurements.push(spent);
    }
    crate::record_peak_rss(&mut report);
    let infer_s = stats::median(&set_s);
    report.note(format!(
        "{} campaigns per set, {} sets; an operation is one level campaign",
        set.len(),
        set_s.len()
    ));
    report.check(measurements.iter().all(|&m| m == measurements[0]), || {
        format!("oracle measurements differ between identical sets: {measurements:?}")
    });
    crate::end_to_end(
        &mut report,
        setup_s,
        stats::median(&set_maccess),
        set.len() as f64 / infer_s,
        &latencies_ms,
    );
    report.metric("infer_s", infer_s, "s");
    report.metric("oracle_measurements", measurements[0] as f64, "count");
    report
}

/// Time one untraced campaign set (the baseline of the traced set).
pub fn untraced_set_s(seed: u64) -> f64 {
    let config = config(seed);
    let machines = setup();
    timed(|| {
        for (c, cpu) in campaigns().into_iter().zip(machines) {
            std::hint::black_box(run_campaign(c, cpu, &config));
        }
    })
    .1
}

/// The traced section: one campaign set with spans around geometry and
/// policy inference and a timing wrapper around the oracle.
pub fn traced(seed: u64, tracer: &mut Tracer, report: &mut Report) -> f64 {
    // One set first, as in the untraced run: the first campaigns of a
    // process run slower while allocations and engine state warm up.
    untraced_set_s(seed);
    let config = config(seed);
    let mut measure_busy = Duration::ZERO;
    let mut measurements = 0u64;
    let mut accesses = 0u64;
    let mut faults = (0u64, 0u64);
    let mut correct = 0usize;
    let set = campaigns();
    let machines = setup();
    let set_start = Instant::now();
    for (i, (&c, mut cpu)) in set.iter().zip(machines).enumerate() {
        let (_, level, engine) = c;
        let truth = hidden_policy(&cpu, level);
        let busy = Rc::new(Cell::new(Duration::ZERO));
        let root = tracer.open("infer.campaign", None, i as u64);
        let timed_oracle = Timed {
            inner: LevelOracle::new(&mut cpu, level),
            busy: Rc::clone(&busy),
        };
        let mut oracle = timed_oracle.layer(Counting);
        let mut open: Option<(SpanId, Duration)> = None;
        let found = campaign(&mut oracle, engine, &config, |span, start| {
            if start {
                open = Some((tracer.open(span, Some(root), i as u64), busy.get()));
            } else if let Some((id, before)) = open.take() {
                tracer.close(id);
                // The oracle's time inside the phase, as its child span.
                tracer.record("hw.measure", Some(id), i as u64, busy.get() - before);
            }
        });
        tracer.close(root);
        measure_busy += busy.get();
        let outcome = judge(
            c,
            &truth,
            found,
            &config,
            oracle.measurements(),
            oracle.accesses(),
        );
        measurements += outcome.measurements;
        accesses += outcome.accesses;
        faults.0 += outcome.faults.0;
        faults.1 += outcome.faults.1;
        correct += usize::from(outcome.correct);
        report.check(outcome.correct, || outcome.verdict.clone());
    }
    let set_s = set_start.elapsed().as_secs_f64();
    report.metric("hw.measure.busy_s", measure_busy.as_secs_f64(), "s");
    report.metric("hw.measurements", measurements as f64, "count");
    report.metric(
        "hw.accesses_per_measurement",
        accesses as f64 / measurements as f64,
        "access",
    );
    report.metric(
        "infer.geometry_s",
        tracer.total("infer.geometry").as_secs_f64(),
        "s",
    );
    report.metric(
        "infer.policy_s",
        tracer.total("infer.policy").as_secs_f64(),
        "s",
    );
    let self_s: f64 = ["infer.campaign", "infer.geometry", "infer.policy"]
        .iter()
        .map(|name| tracer.self_time(name).as_secs_f64())
        .sum();
    report.metric("infer.self_s", self_s, "s");
    report.metric("infer.timeouts", faults.0 as f64, "count");
    report.metric("infer.dropped", faults.1 as f64, "count");
    report.metric(
        "infer.correct_frac",
        correct as f64 / set.len() as f64,
        "ratio",
    );
    set_s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_set_covers_an_outer_level_and_a_non_permutation_machine() {
        let set = campaigns();
        assert!(set.iter().any(|&(_, level, _)| level != CacheLevel::L1));
        assert!(set
            .iter()
            .any(|&(name, ..)| name == "mystery_rand" || name == "quark_x1000"));
        assert!(set.contains(&("atom_d525", CacheLevel::L1, Engine::Automata)));
    }

    #[test]
    fn every_campaign_of_the_set_is_judged_correct() {
        let config = config(3);
        for (c, cpu) in campaigns().into_iter().zip(setup()) {
            if c.2 == Engine::Automata {
                continue;
            }
            let outcome = run_campaign(c, cpu, &config);
            assert!(outcome.correct, "{}", outcome.verdict);
            assert!(outcome.measurements > 0);
        }
    }
}

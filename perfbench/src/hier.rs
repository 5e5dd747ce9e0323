//! `eval_hierarchy`: an L1/L2/L3 `Hierarchy` under inclusive and
//! exclusive containment, 10% writes from `io::with_writes`, driven
//! access by access through `Hierarchy::access_op`.
//!
//! It uses the `sim::cache` layer the way the hierarchy does:
//! write-backs, dirty merges, back-invalidation, victim fills,
//! install/extract. The traces are the suite sized to the outermost
//! level; generating them and adding the writes is set-up. Every run is
//! checked against its pinned outcome at the default seed, and against
//! the same per-access loop run once untimed at any other seed (see
//! `pinned`).

use crate::report::Report;
use crate::tracer::Tracer;
use crate::{cpu_timed, timed, Opts};
use crate::{pinned, stats};
use cachekit_policies::PolicyKind;
use cachekit_sim::{Cache, CacheConfig, CacheStats, Containment, Hierarchy, HierarchyStats};
use cachekit_trace::io::{self, MemOp};
use cachekit_trace::workloads;
use std::time::Instant;

/// Line size (bytes).
pub const LINE: u64 = 64;
/// Fraction of accesses turned into writes.
pub const WRITES: f64 = 0.1;
/// CPU time of one pass on the reference host (seconds).
pub const NOMINAL_PASS_S: f64 = 0.65;
/// Containment disciplines measured.
pub const CONTAINMENTS: [Containment; 2] = [Containment::Inclusive, Containment::Exclusive];

/// Levels, innermost first: (capacity, ways, policy). L1 and L2 have a
/// batch kernel; L3 does not.
pub fn levels() -> [(u64, usize, PolicyKind); 3] {
    [
        (16 * 1024, 8, PolicyKind::TreePlru),
        (64 * 1024, 8, PolicyKind::Lru),
        (256 * 1024, 16, PolicyKind::Srrip { bits: 2 }),
    ]
}

/// Generated operation streams, one per suite trace.
pub struct Inputs {
    traces: Vec<(&'static str, Vec<MemOp>)>,
}

/// Generate the suite at the outermost capacity and add the writes.
pub fn setup(seed: u64) -> Inputs {
    let outer = levels()[2].0;
    let traces = workloads::suite(outer, LINE, seed)
        .into_iter()
        .map(|w| (w.name, io::with_writes(&w.trace, WRITES, seed)))
        .collect();
    Inputs { traces }
}

fn build(containment: Containment) -> Hierarchy {
    let caches = levels()
        .iter()
        .map(|&(cap, ways, policy)| {
            Cache::new(
                CacheConfig::new(cap, ways, LINE).expect("hierarchy geometries are valid"),
                policy,
            )
        })
        .collect();
    Hierarchy::from_caches(caches).with_containment(containment)
}

/// Everything a hierarchy run is checked on.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    /// Per-level stats, L1 first.
    pub levels: Vec<CacheStats>,
    /// Hierarchy-wide counters.
    pub hierarchy: HierarchyStats,
}

impl Outcome {
    /// Every count, as a pinned row holds them: each level's stats, then
    /// the hierarchy's counters.
    pub fn flat(&self) -> Vec<u64> {
        let mut v: Vec<u64> = self
            .levels
            .iter()
            .flat_map(|s| {
                [
                    s.accesses,
                    s.hits,
                    s.misses,
                    s.evictions,
                    s.writes,
                    s.writebacks,
                ]
            })
            .collect();
        let h = &self.hierarchy;
        v.extend([
            h.accesses,
            h.total_cycles,
            h.memory_fetches,
            h.back_invalidations,
            h.victim_fills,
            h.memory_writebacks,
        ]);
        v
    }
}

/// Run one operation stream through a fresh hierarchy.
pub fn run_ops(containment: Containment, ops: &[MemOp]) -> Outcome {
    let mut h = build(containment);
    for op in ops {
        h.access_op(op.addr, op.write);
    }
    Outcome {
        levels: h.stats(),
        hierarchy: h.hierarchy_stats(),
    }
}

/// The hierarchy runs of one pass: (containment, trace index).
fn runs(inputs: &Inputs) -> Vec<(Containment, usize)> {
    CONTAINMENTS
        .iter()
        .flat_map(|&c| (0..inputs.traces.len()).map(move |t| (c, t)))
        .collect()
}

fn label(inputs: &Inputs, (c, t): (Containment, usize)) -> String {
    format!("{c} {}", inputs.traces[t].0)
}

/// The expected counts of every run: pinned at the default seed, the
/// untimed reference at any other.
fn expected(seed: u64, inputs: &Inputs, runs: &[(Containment, usize)]) -> Vec<Option<Vec<u64>>> {
    if seed == pinned::SEED {
        let labels: Vec<String> = runs.iter().map(|&r| label(inputs, r)).collect();
        pinned::lookup(pinned::HIERARCHY, &labels)
    } else {
        runs.iter()
            .map(|&(c, t)| Some(run_ops(c, &inputs.traces[t].1).flat()))
            .collect()
    }
}

/// The untraced run.
pub fn run(opts: &Opts) -> Report {
    let mut report = Report::default();
    let (setup_s, inputs) = crate::setup_repeated(crate::SETUP_REPEATS, || setup(opts.seed));
    let runs = runs(&inputs);
    let refs = expected(opts.seed, &inputs, &runs);

    let mut latencies_ms = Vec::new();
    let mut pass_maccess = Vec::new();
    let mut pass_runs_per_s = Vec::new();
    for _ in 0..crate::units(opts, NOMINAL_PASS_S) {
        let mut busy = 0.0;
        let mut accesses = 0u64;
        for (&(c, t), want) in runs.iter().zip(&refs) {
            let ops = &inputs.traces[t].1;
            let (got, dt) = cpu_timed(|| run_ops(c, ops));
            busy += dt;
            accesses += ops.len() as u64;
            latencies_ms.push(dt * 1e3);
            let ok = got.hierarchy.accesses == ops.len() as u64;
            let got = got.flat();
            report.check(ok && want.as_ref() == Some(&got), || {
                format!("{}: {got:?} != expected {want:?}", label(&inputs, (c, t)))
            });
        }
        pass_maccess.push(accesses as f64 / busy / 1e6);
        pass_runs_per_s.push(runs.len() as f64 / busy);
    }
    crate::record_peak_rss(&mut report);
    report.note(format!(
        "{} hierarchy runs per pass, {} passes; an operation is one trace through a fresh hierarchy",
        runs.len(),
        pass_maccess.len()
    ));
    report.note(format!(
        "Maccess/s per pass: {}",
        stats::list(&pass_maccess)
    ));
    crate::end_to_end(
        &mut report,
        setup_s,
        stats::median(&pass_maccess),
        stats::median(&pass_runs_per_s),
        &latencies_ms,
    );
    report
}

/// Time one untraced pass (the baseline of the traced pass).
pub fn untraced_pass_s(inputs: &Inputs) -> f64 {
    timed(|| {
        for (c, t) in runs(inputs) {
            std::hint::black_box(run_ops(c, &inputs.traces[t].1));
        }
    })
    .1
}

/// What the traced hierarchy section hands to the layer summary.
pub struct Traced {
    /// Wall time of the traced pass.
    pub pass_s: f64,
    /// Per-level cache counters summed over every run and level.
    pub stats: CacheStats,
}

/// The traced section: one pass, a span around each run's
/// `Hierarchy::access_op` loop.
pub fn traced(inputs: &Inputs, tracer: &mut Tracer, report: &mut Report) -> Traced {
    let mut stats = CacheStats::default();
    let mut totals = HierarchyStats::default();
    let mut accesses = 0u64;
    let pass_start = Instant::now();
    for (i, (c, t)) in runs(inputs).into_iter().enumerate() {
        let (name, ops) = &inputs.traces[t];
        let mut h = build(c);
        let span = tracer.open("hierarchy.access_op", None, i as u64);
        for op in ops {
            h.access_op(op.addr, op.write);
        }
        tracer.close(span);
        let hs = h.hierarchy_stats();
        let level_stats = h.stats();
        report.check(
            hs.accesses == ops.len() as u64 && level_stats[0].accesses == ops.len() as u64,
            || format!("{c} {name}: {hs:?} does not cover {} accesses", ops.len()),
        );
        for s in level_stats {
            stats += s;
        }
        accesses += hs.accesses;
        totals.total_cycles += hs.total_cycles;
        totals.memory_fetches += hs.memory_fetches;
        totals.back_invalidations += hs.back_invalidations;
        totals.victim_fills += hs.victim_fills;
        totals.memory_writebacks += hs.memory_writebacks;
    }
    let pass_s = pass_start.elapsed().as_secs_f64();
    let busy = tracer.total("hierarchy.access_op").as_secs_f64();
    report.metric("hierarchy.access_op.busy_s", busy, "s");
    report.metric(
        "hierarchy.maccess_per_s",
        accesses as f64 / busy / 1e6,
        "Maccess/s",
    );
    report.metric(
        "hierarchy.back_invalidations",
        totals.back_invalidations as f64,
        "count",
    );
    report.metric(
        "hierarchy.victim_fills",
        totals.victim_fills as f64,
        "count",
    );
    report.metric(
        "hierarchy.memory_fetches",
        totals.memory_fetches as f64,
        "count",
    );
    report.metric(
        "hierarchy.memory_writebacks",
        totals.memory_writebacks as f64,
        "count",
    );
    report.metric(
        "hierarchy.amat_cycles",
        totals.total_cycles as f64 / accesses as f64,
        "cycles",
    );
    Traced { pass_s, stats }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The pinned outcomes name every run, and those of the three
    /// shortest traces equal a fresh per-access run at the pinned seed.
    #[test]
    fn pinned_outcomes_are_current() {
        let inputs = setup(pinned::SEED);
        let runs = runs(&inputs);
        let rows = pinned::parse(pinned::HIERARCHY);
        let labels: Vec<String> = runs.iter().map(|&r| label(&inputs, r)).collect();
        let pinned_labels: Vec<&String> = rows.iter().map(|(l, _)| l).collect();
        assert_eq!(pinned_labels, labels.iter().collect::<Vec<_>>());
        let mut by_len: Vec<usize> = (0..inputs.traces.len()).collect();
        by_len.sort_by_key(|&t| inputs.traces[t].1.len());
        for (&(c, t), (label, want)) in runs.iter().zip(&rows) {
            if by_len[..3].contains(&t) {
                assert_eq!(&run_ops(c, &inputs.traces[t].1).flat(), want, "{label}");
            }
        }
    }

    #[test]
    #[ignore = "rewrites perfbench/pinned/; run after a change meant to alter simulated outcomes"]
    fn pin_eval_hierarchy() {
        let inputs = setup(pinned::SEED);
        let rows: Vec<(String, Vec<u64>)> = runs(&inputs)
            .into_iter()
            .map(|(c, t)| {
                (
                    label(&inputs, (c, t)),
                    run_ops(c, &inputs.traces[t].1).flat(),
                )
            })
            .collect();
        pinned::write("eval_hierarchy-seed1.txt", &rows);
    }
}

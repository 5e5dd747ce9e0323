//! `eval_grid`: the paper's single-level miss-ratio grid, reads only.
//!
//! Every suite trace at an L1-sized and an L2-sized capacity is run
//! through `sweep::simulate` (the call fig3/4/5 make) for deterministic
//! catalog policies with a batch kernel (LRU, FIFO, PLRU, NRU) and
//! without one (CLOCK, SRRIP-2, LIP), at 8 and 16 ways. Trace
//! generation is set-up. Every cell is checked against its pinned
//! outcome at the default seed, and against the per-access
//! `Cache::access_op` loop on the enum engine at any other seed (see
//! `pinned`).

use crate::report::Report;
use crate::tracer::Tracer;
use crate::{cpu_timed, timed, Opts};
use crate::{pinned, stats};
use cachekit_policies::kernel::{kernel_available, KernelCache};
use cachekit_policies::PolicyKind;
use cachekit_sim::{sweep, Cache, CacheConfig, CacheStats};
use cachekit_trace::workloads::{self, Workload};
use std::time::Instant;

/// L1-sized and L2-sized capacities (bytes).
pub const CAPACITIES: [u64; 2] = [32 * 1024, 256 * 1024];
/// Associativities of the grid.
pub const WAYS: [usize; 2] = [8, 16];
/// Line size (bytes).
pub const LINE: u64 = 64;
/// CPU time of one pass over every cell on the reference host (seconds).
pub const NOMINAL_PASS_S: f64 = 2.6;

/// Policies of the grid: four with a batch kernel, three without.
pub fn policies() -> [PolicyKind; 7] {
    [
        PolicyKind::Lru,
        PolicyKind::Fifo,
        PolicyKind::TreePlru,
        PolicyKind::Nru,
        PolicyKind::Clock,
        PolicyKind::Srrip { bits: 2 },
        PolicyKind::Lip,
    ]
}

/// The generated traces: one suite per capacity.
pub struct Inputs {
    suites: Vec<Vec<Workload>>,
}

/// One grid cell: a trace crossed with a (policy, geometry).
#[derive(Debug, Clone, Copy)]
pub struct Cell {
    suite: usize,
    trace: usize,
    config: CacheConfig,
    policy: PolicyKind,
}

impl Cell {
    fn trace<'a>(&self, inputs: &'a Inputs) -> &'a Workload {
        &inputs.suites[self.suite][self.trace]
    }

    fn has_kernel(&self) -> bool {
        kernel_available(self.policy, self.config.associativity())
    }

    fn label(&self, inputs: &Inputs) -> String {
        format!(
            "{}@{}KiB/{}w {}",
            self.policy.label(),
            self.config.capacity() / 1024,
            self.config.associativity(),
            self.trace(inputs).name
        )
    }
}

/// Generate the suites (the workload's set-up).
pub fn setup(seed: u64) -> Inputs {
    Inputs {
        suites: CAPACITIES
            .iter()
            .map(|&cap| workloads::suite(cap, LINE, seed))
            .collect(),
    }
}

/// Every cell, in a fixed order.
pub fn cells(inputs: &Inputs) -> Vec<Cell> {
    let mut cells = Vec::new();
    for (suite, &cap) in CAPACITIES.iter().enumerate() {
        for trace in 0..inputs.suites[suite].len() {
            for &ways in &WAYS {
                let config = CacheConfig::new(cap, ways, LINE).expect("grid geometries are valid");
                for policy in policies() {
                    cells.push(Cell {
                        suite,
                        trace,
                        config,
                        policy,
                    });
                }
            }
        }
    }
    cells
}

/// The per-access reference: `Cache::access_op` on the enum engine.
pub fn reference(config: CacheConfig, policy: PolicyKind, trace: &[u64]) -> CacheStats {
    let mut cache = Cache::new(config, policy);
    for &addr in trace {
        cache.access_op(addr, false);
    }
    cache.stats()
}

/// A cell's stats as the counts a pinned row holds.
pub fn flat(s: &CacheStats) -> Vec<u64> {
    vec![
        s.accesses,
        s.hits,
        s.misses,
        s.evictions,
        s.writes,
        s.writebacks,
    ]
}

/// The expected counts of every cell: pinned at the default seed, the
/// untimed per-access reference at any other.
fn expected(seed: u64, inputs: &Inputs, cells: &[Cell]) -> Vec<Option<Vec<u64>>> {
    if seed == pinned::SEED {
        let labels: Vec<String> = cells.iter().map(|c| c.label(inputs)).collect();
        pinned::lookup(pinned::GRID, &labels)
    } else {
        cells
            .iter()
            .map(|c| Some(flat(&reference(c.config, c.policy, &c.trace(inputs).trace))))
            .collect()
    }
}

fn note_trace_shares(report: &mut Report, inputs: &Inputs) {
    for (suite, &cap) in CAPACITIES.iter().enumerate() {
        let total: usize = inputs.suites[suite].iter().map(|w| w.trace.len()).sum();
        let shares: Vec<String> = inputs.suites[suite]
            .iter()
            .map(|w| {
                format!(
                    "{} {:.1}%",
                    w.name,
                    100.0 * w.trace.len() as f64 / total as f64
                )
            })
            .collect();
        report.note(format!(
            "suite @ {} KiB: {total} accesses per cell column; shares: {}",
            cap / 1024,
            shares.join(", ")
        ));
    }
}

/// The untraced run.
pub fn run(opts: &Opts) -> Report {
    let mut report = Report::default();
    let (setup_s, inputs) = crate::setup_repeated(crate::SETUP_REPEATS, || setup(opts.seed));
    let cells = cells(&inputs);
    note_trace_shares(&mut report, &inputs);
    let refs = expected(opts.seed, &inputs, &cells);

    let mut latencies_ms = Vec::new();
    let mut pass_maccess = Vec::new();
    let mut pass_cells_per_s = Vec::new();
    for _ in 0..crate::units(opts, NOMINAL_PASS_S) {
        let mut busy = 0.0;
        let mut accesses = 0u64;
        for (cell, want) in cells.iter().zip(&refs) {
            let trace = &cell.trace(&inputs).trace;
            let (got, dt) = cpu_timed(|| sweep::simulate(cell.config, cell.policy, trace));
            busy += dt;
            accesses += got.accesses;
            latencies_ms.push(dt * 1e3);
            let got = flat(&got);
            report.check(want.as_ref() == Some(&got), || {
                format!("{}: {got:?} != expected {want:?}", cell.label(&inputs))
            });
        }
        pass_maccess.push(accesses as f64 / busy / 1e6);
        pass_cells_per_s.push(cells.len() as f64 / busy);
    }
    crate::record_peak_rss(&mut report);
    report.note(format!(
        "{} cells per pass, {} passes; an operation is one sweep::simulate call",
        cells.len(),
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
        stats::median(&pass_cells_per_s),
        &latencies_ms,
    );
    report
}

/// Time one untraced pass of every cell through `sweep::simulate`
/// (the baseline the traced pass is compared with).
pub fn untraced_pass_s(inputs: &Inputs) -> f64 {
    let cells = cells(inputs);
    timed(|| {
        for c in &cells {
            std::hint::black_box(sweep::simulate(c.config, c.policy, &c.trace(inputs).trace));
        }
    })
    .1
}

/// What the traced grid section hands to the layer summary.
pub struct Traced {
    /// Wall time of the traced `sweep::simulate` pass over every cell.
    pub sweep_pass_s: f64,
    /// Simulated-cache counters summed over every cell.
    pub stats: CacheStats,
}

/// The traced section: the layer ladder over the kernel-pair cells
/// (`KernelCache::access_many` → `Cache::access_many` →
/// `sweep::simulate`), then a traced `sweep::simulate` pass over every
/// cell.
pub fn traced(inputs: &Inputs, tracer: &mut Tracer, report: &mut Report) -> Traced {
    let cells = cells(inputs);
    let kernel_cells: Vec<(usize, &Cell)> = cells
        .iter()
        .enumerate()
        .filter(|(_, c)| c.has_kernel())
        .collect();

    // Rung 1: the batch kernel over a prebuilt (set, tag) stream.
    let mut kernel_hits = Vec::with_capacity(kernel_cells.len());
    for &(i, c) in &kernel_cells {
        let trace = &c.trace(inputs).trace;
        let stream: Vec<(u32, u64)> = trace
            .iter()
            .map(|&a| (c.config.set_index(a) as u32, c.config.tag(a)))
            .collect();
        let span = tracer.open("kernel.access_many", None, i as u64);
        let mut k = KernelCache::for_kind(
            c.policy,
            c.config.associativity(),
            c.config.num_sets() as usize,
        )
        .expect("kernel cells have a kernel");
        let (hits, _) = k.access_many(&stream);
        tracer.close(span);
        kernel_hits.push(hits);
    }

    // Rung 2: the cache's batch path.
    let mut cache_hits = Vec::with_capacity(kernel_cells.len());
    for &(i, c) in &kernel_cells {
        let trace = &c.trace(inputs).trace;
        let span = tracer.open("cache.access_many", None, i as u64);
        let mut cache = Cache::new(c.config, c.policy);
        let (hits, _) = cache.access_many(trace);
        tracer.close(span);
        cache_hits.push(hits);
    }

    // Rung 3: sweep::simulate over every cell.
    let mut sweep_stats = Vec::with_capacity(cells.len());
    let pass_start = Instant::now();
    for (i, c) in cells.iter().enumerate() {
        let trace = &c.trace(inputs).trace;
        let span = tracer.open("sweep.simulate", None, i as u64);
        let stats = sweep::simulate(c.config, c.policy, trace);
        tracer.close(span);
        sweep_stats.push(stats);
    }
    let sweep_pass_s = pass_start.elapsed().as_secs_f64();

    let mut total = CacheStats::default();
    for (c, s) in cells.iter().zip(&sweep_stats) {
        let len = c.trace(inputs).trace.len() as u64;
        report.check(s.accesses == len && s.hits + s.misses == len, || {
            format!("{}: {s:?} does not cover {len} accesses", c.label(inputs))
        });
        total += *s;
    }
    let mut kernel_accesses = 0u64;
    let mut sweep_kernel_s = 0.0;
    for (n, &(i, c)) in kernel_cells.iter().enumerate() {
        let rungs = [kernel_hits[n], cache_hits[n], sweep_stats[i].hits];
        report.check(ladder_hits_agree(&rungs), || {
            format!("{}: ladder hits differ {rungs:?}", c.label(inputs))
        });
        kernel_accesses += sweep_stats[i].accesses;
        sweep_kernel_s += tracer.span_s("sweep.simulate", i as u64);
    }
    let all_accesses = total.accesses;
    let kernel = kernel_accesses as f64 / tracer.total("kernel.access_many").as_secs_f64() / 1e6;
    let cache = kernel_accesses as f64 / tracer.total("cache.access_many").as_secs_f64() / 1e6;
    let sweep_rate = kernel_accesses as f64 / sweep_kernel_s / 1e6;
    report.metric("kernel.maccess_per_s", kernel, "Maccess/s");
    report.metric("cache.access_many.maccess_per_s", cache, "Maccess/s");
    report.metric("sweep.simulate.maccess_per_s", sweep_rate, "Maccess/s");
    report.metric("ladder.cache_over_kernel", cache / kernel, "ratio");
    report.metric("ladder.sweep_over_cache", sweep_rate / cache, "ratio");
    report.metric(
        "cache.kernel_eligible_frac",
        kernel_accesses as f64 / all_accesses as f64,
        "ratio",
    );
    Traced {
        sweep_pass_s,
        stats: total,
    }
}

/// The ladder's assertion: every rung reports the same hit count.
pub fn ladder_hits_agree(rungs: &[u64]) -> bool {
    rungs.windows(2).all(|w| w[0] == w[1])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ladder_assertion_requires_equal_hits_on_every_rung() {
        assert!(ladder_hits_agree(&[7, 7, 7]));
        assert!(ladder_hits_agree(&[7]));
        assert!(!ladder_hits_agree(&[7, 7, 8]));
        assert!(!ladder_hits_agree(&[6, 7, 7]));
    }

    #[test]
    fn rungs_agree_with_the_reference_on_a_small_trace() {
        let config = CacheConfig::new(4096, 8, LINE).unwrap();
        let trace = cachekit_trace::gen::zipf(256, 1.1, 20_000, LINE, 3);
        let want = reference(config, PolicyKind::TreePlru, &trace);
        let stream: Vec<(u32, u64)> = trace
            .iter()
            .map(|&a| (config.set_index(a) as u32, config.tag(a)))
            .collect();
        let mut k =
            KernelCache::for_kind(PolicyKind::TreePlru, 8, config.num_sets() as usize).unwrap();
        let (kh, _) = k.access_many(&stream);
        let (ch, _) = Cache::new(config, PolicyKind::TreePlru).access_many(&trace);
        let sh = sweep::simulate(config, PolicyKind::TreePlru, &trace).hits;
        assert!(ladder_hits_agree(&[want.hits, kh, ch, sh]));
    }

    /// The pinned outcomes name every cell, and those of the L1-sized
    /// suite equal the per-access reference at the pinned seed.
    #[test]
    fn pinned_outcomes_are_current() {
        let inputs = setup(pinned::SEED);
        let cells = cells(&inputs);
        let rows = pinned::parse(pinned::GRID);
        let labels: Vec<String> = cells.iter().map(|c| c.label(&inputs)).collect();
        let pinned_labels: Vec<&String> = rows.iter().map(|(l, _)| l).collect();
        assert_eq!(pinned_labels, labels.iter().collect::<Vec<_>>());
        for (c, (label, want)) in cells.iter().zip(&rows).filter(|(c, _)| c.suite == 0) {
            let got = flat(&reference(c.config, c.policy, &c.trace(&inputs).trace));
            assert_eq!(&got, want, "{label}");
        }
    }

    #[test]
    #[ignore = "rewrites perfbench/pinned/; run after a change meant to alter simulated outcomes"]
    fn pin_eval_grid() {
        let inputs = setup(pinned::SEED);
        let rows: Vec<(String, Vec<u64>)> = cells(&inputs)
            .iter()
            .map(|c| {
                let stats = reference(c.config, c.policy, &c.trace(&inputs).trace);
                (c.label(&inputs), flat(&stats))
            })
            .collect();
        pinned::write("eval_grid-seed1.txt", &rows);
    }
}

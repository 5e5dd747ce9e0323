//! The cachekit benchmark: end-to-end metrics from untraced runs of one
//! workload, per-layer metrics from a traced run of the whole layer
//! ladder.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload eval_grid --seed 1 --seconds 10 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`; the lines before it list every
//! metric with its unit and notes on how it was taken. See
//! `perfbench/README.md`.

mod grid;
mod hier;
mod infer;
mod pinned;
mod report;
mod serve;
mod stats;
mod tracer;

use report::Report;
use std::process::ExitCode;
use std::time::Instant;
use tracer::Tracer;

/// The workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 4] = ["eval_grid", "eval_hierarchy", "serve_cold", "infer_fleet"];

/// End-to-end metrics every untraced run reports.
pub const END_TO_END: [&str; 6] = [
    "setup_s",
    "sim_maccess_per_s",
    "req_per_s",
    "latency_p50_ms",
    "latency_tail_ms",
    "peak_rss_mib",
];

/// Per-layer metrics every traced run reports.
pub const PER_LAYER: [&str; 49] = [
    "trace.suite_ms",
    "trace.with_writes_ms",
    "trace.used_frac",
    "kernel.maccess_per_s",
    "cache.access_many.maccess_per_s",
    "sweep.simulate.maccess_per_s",
    "ladder.cache_over_kernel",
    "ladder.sweep_over_cache",
    "cache.kernel_eligible_frac",
    "cache.hits",
    "cache.misses",
    "cache.evictions",
    "cache.writebacks",
    "hierarchy.access_op.busy_s",
    "hierarchy.maccess_per_s",
    "hierarchy.back_invalidations",
    "hierarchy.victim_fills",
    "hierarchy.memory_fetches",
    "hierarchy.memory_writebacks",
    "hierarchy.amat_cycles",
    "proto.parse_us",
    "exec.execute_ms",
    "exec.encode_us",
    "exec.trace_share",
    "exec.engine.kernel",
    "exec.engine.table",
    "exec.engine.lazy_table",
    "exec.engine.enum",
    "serve.service_ms",
    "serve.overhead_ms",
    "serve.result_cache.hits",
    "serve.result_cache.misses",
    "serve.rejected",
    "serve.shed",
    "hw.measure.busy_s",
    "hw.measurements",
    "hw.accesses_per_measurement",
    "infer.geometry_s",
    "infer.policy_s",
    "infer.self_s",
    "infer.timeouts",
    "infer.dropped",
    "infer.correct_frac",
    "trace.overhead_frac",
    "grid.pass_s",
    "hierarchy.pass_s",
    "serve.cycle_s",
    "infer.set_s",
    "trace.spans",
];

/// How many times a run sets its workload up (`setup_s` is the median).
pub const SETUP_REPEATS: usize = 3;

/// Command-line options.
#[derive(Debug, Clone, PartialEq)]
pub struct Opts {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measurement time.
    pub seconds: f64,
    /// Traced run.
    pub trace: bool,
}

fn parse_args(args: &[String]) -> Result<Opts, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds: f64 = 10.0;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?.clone()),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if seconds.is_nan() || seconds <= 0.0 {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?}; one of {WORKLOADS:?}"
        ));
    }
    Ok(Opts {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// How many whole units (passes, cycles, campaign sets) a run measures:
/// `--seconds` over the unit's nominal CPU time on the reference host, at
/// least two. The count depends only on `--seconds`, never on how fast
/// this run goes, so every run of a workload measures the same work and
/// its tail percentile stays the same.
pub fn units(opts: &Opts, nominal_unit_s: f64) -> usize {
    ((opts.seconds / nominal_unit_s).round() as usize).max(2)
}

/// Set up `repeats` times; the median set-up CPU time and the last
/// set-up's result (each earlier one is dropped before the next starts).
pub fn setup_repeated<T>(repeats: usize, mut setup: impl FnMut() -> T) -> (f64, T) {
    let mut times = Vec::with_capacity(repeats);
    let mut last = None;
    for _ in 0..repeats {
        drop(last.take());
        let (value, dt) = cpu_timed(&mut setup);
        times.push(dt);
        last = Some(value);
    }
    (stats::median(&times), last.expect("at least one set-up"))
}

/// Run `f`, returning its value and the wall seconds it took.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let value = f();
    (value, start.elapsed().as_secs_f64())
}

/// CPU seconds this process has used, summed over all its threads
/// (`CLOCK_PROCESS_CPUTIME_ID`, Linux on a 64-bit target). Unlike wall
/// time it leaves out the time other processes ran instead, and, with
/// paravirtual steal-time accounting, the time the hypervisor gave to
/// other guests, so runs on a shared host measure this program and not
/// its neighbours. The untraced runs time their work with it.
pub fn cpu_s() -> f64 {
    #[repr(C)]
    struct Timespec {
        sec: i64,
        nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a valid, writable timespec for the whole call.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.sec as f64 + ts.nsec as f64 * 1e-9
}

/// Run `f`, returning its value and the CPU seconds ([`cpu_s`]) it took.
pub fn cpu_timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = cpu_s();
    let value = f();
    (value, cpu_s() - start)
}

/// SplitMix64 finalizer: derives request seeds from the run seed.
pub fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Record the end-to-end metrics a workload measures itself. An
/// operation is one call a caller makes: a `sweep::simulate` cell, a
/// hierarchy run, an HTTP request, or a level campaign.
pub fn end_to_end(
    report: &mut Report,
    setup_s: f64,
    sim_maccess_per_s: f64,
    ops_per_s: f64,
    latencies_ms: &[f64],
) {
    report.metric("setup_s", setup_s, "s");
    report.metric("sim_maccess_per_s", sim_maccess_per_s, "Maccess/s");
    report.metric("req_per_s", ops_per_s, "1/s");
    match stats::latency(latencies_ms) {
        Some(l) => {
            report.metric("latency_p50_ms", l.p50, "ms");
            report.metric("latency_tail_ms", l.tail, "ms");
            report.note(format!(
                "latency_tail_ms is p{} of {} operations (at least {} beyond it)",
                l.tail_pct,
                l.samples,
                stats::TAIL_MIN_BEYOND
            ));
        }
        None => {
            report.check(false, || {
                format!(
                    "{} operations are too few for a tail percentile",
                    latencies_ms.len()
                )
            });
            report.metric("latency_p50_ms", stats::median(latencies_ms), "ms");
            report.metric(
                "latency_tail_ms",
                stats::percentile(latencies_ms, 100.0),
                "ms",
            );
        }
    }
}

/// Peak resident set of this process (`VmHWM`), in MiB.
fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Record `peak_rss_mib`. A workload calls this as soon as its measured
/// work ends, before any untimed checking that could raise the mark.
pub fn record_peak_rss(report: &mut Report) {
    let rss = peak_rss_mib().unwrap_or(f64::NAN);
    report.check(rss.is_finite(), || "could not read VmHWM".to_owned());
    report.metric("peak_rss_mib", rss, "MiB");
}

/// The untraced run of one workload.
fn untraced(opts: &Opts) -> Report {
    let mut report = match opts.workload.as_str() {
        "eval_grid" => grid::run(opts),
        "eval_hierarchy" => hier::run(opts),
        "serve_cold" => serve::run(opts),
        "infer_fleet" => infer::run(opts),
        other => unreachable!("workload {other} was validated"),
    };
    report.metric("failed_frac", report.tally.failed_frac(), "ratio");
    report
}

/// The traced run: every section of the layer ladder, with spans
/// recorded from this crate around the calls into each layer. The named
/// workload's section then runs one untraced unit (after the traced one,
/// so both run warm), and the difference is reported as
/// `trace.overhead_frac`. For `serve_cold` the unit is the in-process
/// replay: the HTTP cycle itself calls no tracer while it runs.
fn traced(opts: &Opts) -> (Report, Tracer) {
    let mut report = Report::default();
    let mut tracer = Tracer::new();
    let seed = opts.seed;
    let named = |w: &str| opts.workload == w;
    // (traced, untraced) seconds of the named workload's unit.
    let mut unit_s = None;

    let inputs = grid::setup(seed);
    let g = grid::traced(&inputs, &mut tracer, &mut report);
    if named("eval_grid") {
        unit_s = Some((g.sweep_pass_s, grid::untraced_pass_s(&inputs)));
    }
    drop(inputs);
    report.metric("grid.pass_s", g.sweep_pass_s, "s");

    let inputs = hier::setup(seed);
    let h = hier::traced(&inputs, &mut tracer, &mut report);
    if named("eval_hierarchy") {
        unit_s = Some((h.pass_s, hier::untraced_pass_s(&inputs)));
    }
    drop(inputs);
    report.metric("hierarchy.pass_s", h.pass_s, "s");

    let mut stats = g.stats;
    stats += h.stats;
    report.metric("cache.hits", stats.hits as f64, "count");
    report.metric("cache.misses", stats.misses as f64, "count");
    report.metric("cache.evictions", stats.evictions as f64, "count");
    report.metric("cache.writebacks", stats.writebacks as f64, "count");

    let s = serve::traced(opts, &mut tracer, &mut report, named("serve_cold"));
    if let Some(untraced) = s.untraced_replay_s {
        unit_s = Some((s.replay_s, untraced));
    }
    report.metric("serve.cycle_s", s.cycle_s, "s");

    let set_s = infer::traced(seed, &mut tracer, &mut report);
    if named("infer_fleet") {
        unit_s = Some((set_s, infer::untraced_set_s(seed)));
    }
    report.metric("infer.set_s", set_s, "s");

    let (traced_s, untraced_s) = unit_s.expect("the named workload is one of the four");
    report.metric("trace.overhead_frac", traced_s / untraced_s - 1.0, "ratio");
    report.metric("trace.spans", tracer.len() as f64, "count");
    report.note(format!(
        "trace.overhead_frac compares the traced and an untraced unit of {} in this run{}",
        opts.workload,
        if named("serve_cold") {
            " (the in-process replay of one request cycle)"
        } else {
            ""
        }
    ));
    (report, tracer)
}

/// Write the spans as JSON lines under `.perfbench_out/`.
fn write_spans(opts: &Opts, tracer: &Tracer) -> std::io::Result<String> {
    let dir = std::path::Path::new(".perfbench_out");
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("spans-{}-seed{}.jsonl", opts.workload, opts.seed));
    std::fs::write(&path, tracer.to_json_lines())?;
    Ok(path.display().to_string())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let (report, keep): (Report, &[&str]) = if opts.trace {
        let (mut report, tracer) = traced(&opts);
        match write_spans(&opts, &tracer) {
            Ok(path) => report.note(format!("{} spans written to {path}", tracer.len())),
            Err(e) => report.note(format!("spans not written: {e}")),
        }
        (report, &PER_LAYER)
    } else {
        (untraced(&opts), &END_TO_END)
    };
    for name in keep {
        assert!(report.get(name).is_some(), "metric {name} was not recorded");
    }
    println!(
        "## perfbench {} seed={} trace={}",
        opts.workload,
        opts.seed,
        u8::from(opts.trace)
    );
    print!("{report}");
    println!("{}", report.result_json(keep));
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_owned).collect()
    }

    #[test]
    fn parses_the_command_line() {
        let o = parse_args(&args(
            "--workload serve_cold --seed 9 --seconds 10 --trace 1",
        ))
        .unwrap();
        assert_eq!(o.workload, "serve_cold");
        assert_eq!((o.seed, o.seconds, o.trace), (9, 10.0, true));
        assert!(parse_args(&args("--workload nope")).is_err());
        assert!(parse_args(&args("--seed 1")).is_err());
        assert!(parse_args(&args("--workload eval_grid --trace 2")).is_err());
        assert!(parse_args(&args("--workload eval_grid --seconds 0")).is_err());
    }

    #[test]
    fn every_metric_name_is_valid_and_unique() {
        let mut all: Vec<&str> = END_TO_END.iter().chain(PER_LAYER.iter()).copied().collect();
        assert!(all.iter().all(|n| report::valid_metric_name(n)));
        let n = all.len();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), n);
    }

    /// The lists here and the ones in `BENCHMARK.json` must agree.
    #[test]
    fn benchmark_json_names_the_same_workloads_and_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let json = cachekit_bench::json::Json::parse(&text).unwrap();
        let names = |key: &str| -> Vec<String> {
            json.get(key)
                .and_then(|v| v.as_array())
                .unwrap()
                .iter()
                .map(|m| m.get("name").and_then(|n| n.as_str()).unwrap().to_owned())
                .collect()
        };
        assert_eq!(names("workloads"), WORKLOADS);
        assert_eq!(names("end_to_end"), END_TO_END);
        assert_eq!(names("per_layer"), PER_LAYER);
    }

    #[test]
    fn unit_counts_depend_only_on_seconds() {
        let opts = |seconds| Opts {
            workload: "eval_grid".into(),
            seed: 1,
            seconds,
            trace: false,
        };
        assert_eq!(units(&opts(12.0), 6.0), 2);
        assert_eq!(units(&opts(12.0), 1.5), 8);
        assert_eq!(units(&opts(1.0), 6.0), 2);
    }

    #[test]
    fn mix64_spreads_consecutive_inputs() {
        assert_ne!(mix64(1), mix64(2));
        assert_eq!(mix64(7), mix64(7));
    }
}

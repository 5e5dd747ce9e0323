//! Access-throughput benchmark for the policy execution engines.
//!
//! Measures accesses/second over a realistically sized cache — many
//! sets, interleaved accesses — for every differential policy kind at
//! associativities 4, 8 and 16 on three engines:
//!
//! * **boxed** — a faithful replica of the pre-refactor substrate: one
//!   heap object per set with array-of-`Option` tags driving a
//!   *concrete* policy behind `Box<dyn ReplacementPolicy>` (one virtual
//!   call per policy event);
//! * **enum** — the current [`CacheSet`] with its inline
//!   enum-dispatched state, driven through the public per-access entry
//!   point ([`access_tag`](CacheSet::access_tag));
//! * **kernel** — the monomorphized batch kernel ([`KernelCache`]):
//!   per-(policy, assoc) specialized access loops over
//!   struct-of-arrays slabs with SWAR tag compare and software
//!   prefetch of upcoming rows.
//!
//! Pairs without a compiled kernel carry the **typed skip reason**
//! `no_kernel` in the kernel column instead of a bare `n/a`.
//!
//! The set count (16384 sets at full size — 8 MiB of modeled lines at
//! 8 ways, an L3-class footprint) is the point of the comparison: an
//! interleaved stream visits sets in random order, so the boxed
//! engine's per-set pointer chains (tags `Vec`, policy `Box`, the
//! policy's own heap state) each cost a dependent cache miss, while the
//! other engines keep a set's whole state in one or two dense slabs.
//! Single-set micro-runs hide exactly this difference — every engine
//! fits in L1 there.
//!
//! All engines replay the *same* seeded stream of `(set, tag)` pairs
//! (random set per access, 80/20 hot/cold tags), and their hit counts
//! are asserted equal — the benchmark doubles as a cheap cross-engine
//! differential check. Results land in `results/bench_access.json` (or
//! `bench_access_smoke.json` with `--smoke`) through the usual
//! [`Runner`] plumbing.

use crate::json::Json;
use crate::{jobj, Runner, Table};
use cachekit_policies::kernel::KernelCache;
use cachekit_policies::rng::{mix64, Prng};
use cachekit_policies::{
    Bip, BitPlru, Brrip, Clock, Fifo, LazyLru, Lip, Lru, Nru, PolicyKind, Qlru, RandomPolicy,
    ReplacementPolicy, Slru, Srrip, TreePlru,
};
use cachekit_sim::CacheSet;
use std::hint::black_box;
use std::path::PathBuf;
use std::time::Instant;

/// Associativities the sweep covers.
pub const ASSOCS: [usize; 3] = [4, 8, 16];

/// Base PRNG seed for the access streams.
pub const SEED: u64 = 0xACCE55;

/// Sweep sizing.
#[derive(Debug, Clone, Copy)]
pub struct BenchConfig {
    /// Number of sets in the measured cache.
    pub sets: usize,
    /// Length of the `(set, tag)` stream each engine replays.
    pub accesses: usize,
    /// Timed repetitions per engine (the fastest is reported).
    pub repeats: usize,
}

impl BenchConfig {
    /// The full measurement (what `results/bench_access.json` records).
    pub fn full() -> Self {
        Self {
            sets: 16384,
            accesses: 6_000_000,
            repeats: 3,
        }
    }

    /// A seconds-scale smoke run for CI: same code paths, a small cache
    /// and short streams (the recorded speedups need the full footprint;
    /// a smoke cache is L2-resident and its ratios are meaningless).
    pub fn smoke() -> Self {
        Self {
            sets: 256,
            accesses: 100_000,
            repeats: 2,
        }
    }
}

/// Skip reason recorded in the kernel column of a pair with no
/// compiled kernel.
const NO_KERNEL: &str = "no_kernel";

/// Per-access result the pre-refactor set constructed (replicated so the
/// baseline pays the same cost, not a slimmed-down version of it).
enum BoxedOutcome {
    Hit,
    Miss { _evicted: Option<u64> },
}

/// The pre-refactor cache-set representation, kept verbatim as the
/// baseline: `Option`-boxed tags, `Vec<bool>` dirtiness, a boxed policy
/// dispatched virtually on every event, and the original per-access
/// outcome + write-back computation.
struct BoxedSet {
    tags: Vec<Option<u64>>,
    dirty: Vec<bool>,
    policy: Box<dyn ReplacementPolicy>,
}

impl BoxedSet {
    fn new(policy: Box<dyn ReplacementPolicy>) -> Self {
        let assoc = policy.associativity();
        Self {
            tags: vec![None; assoc],
            dirty: vec![false; assoc],
            policy,
        }
    }

    /// Replica of the pre-refactor `CacheSet::access_tag` entry point.
    /// `inline(never)` reproduces the call boundary its callers actually
    /// paid: the old engine exposed per-access calls across a crate
    /// boundary (the workspace builds without cross-crate LTO), and had
    /// no batch API.
    #[inline(never)]
    fn access_tag(&mut self, tag: u64) -> BoxedOutcome {
        if let Some(way) = self.tags.iter().position(|&t| t == Some(tag)) {
            self.policy.on_hit(way);
            return BoxedOutcome::Hit;
        }
        let way = match self.tags.iter().position(Option::is_none) {
            Some(invalid) => invalid,
            None => self.policy.victim(),
        };
        let evicted = self.tags[way].take();
        let _writeback = if self.dirty[way] { evicted } else { None };
        self.tags[way] = Some(tag);
        self.dirty[way] = false;
        self.policy.on_fill(way);
        BoxedOutcome::Miss { _evicted: evicted }
    }
}

/// Replay an interleaved stream on the boxed baseline, returning hits.
fn boxed_access_many(sets: &mut [BoxedSet], stream: &[(u32, u64)]) -> u64 {
    let mut hits = 0u64;
    for &(set, tag) in stream {
        hits += u64::from(matches!(
            sets[set as usize].access_tag(tag),
            BoxedOutcome::Hit
        ));
    }
    hits
}

/// Replay an interleaved stream on the enum engine, returning hits. The
/// per-access entry point is what real callers use on an interleaved
/// stream (the batched [`CacheSet::access_many`] needs a per-set run of
/// tags); it inlines here because the set exports it `#[inline]`.
fn enum_access_many(sets: &mut [CacheSet], stream: &[(u32, u64)]) -> u64 {
    let mut hits = 0u64;
    for &(set, tag) in stream {
        hits += u64::from(sets[set as usize].access_tag(tag).is_hit());
    }
    hits
}

/// Build the *concrete* boxed policy the pre-refactor engine used (same
/// constructors and per-set seeds as [`PolicyKind::build_state`], but
/// without the enum wrapper — the honest dynamic-dispatch baseline).
fn boxed_policy(kind: PolicyKind, assoc: usize, salt: u64) -> Box<dyn ReplacementPolicy> {
    match kind {
        PolicyKind::Lru => Box::new(Lru::new(assoc)),
        PolicyKind::Fifo => Box::new(Fifo::new(assoc)),
        PolicyKind::TreePlru => Box::new(TreePlru::new(assoc)),
        PolicyKind::BitPlru => Box::new(BitPlru::new(assoc)),
        PolicyKind::Nru => Box::new(Nru::new(assoc)),
        PolicyKind::Clock => Box::new(Clock::new(assoc)),
        PolicyKind::Lip => Box::new(Lip::new(assoc)),
        PolicyKind::Slru { protected } => Box::new(Slru::new(assoc, protected)),
        PolicyKind::Bip { throttle } => Box::new(Bip::new(assoc, throttle, mix64(0xb1b0, salt))),
        PolicyKind::Srrip { bits } => Box::new(Srrip::new(assoc, bits)),
        PolicyKind::Qlru { insert } => Box::new(Qlru::new(assoc, insert)),
        PolicyKind::Brrip { bits, throttle } => {
            Box::new(Brrip::new(assoc, bits, throttle, mix64(0xbbb1, salt)))
        }
        PolicyKind::Random { seed } => Box::new(RandomPolicy::new(assoc, mix64(seed, salt))),
        PolicyKind::LazyLru => Box::new(LazyLru::new(assoc)),
    }
}

/// Seeded interleaved access stream: each access picks a uniformly
/// random set, and within the set an 80/20 hot/cold tag — 80% go to a
/// hot group smaller than the associativity (mostly hits), 20% sweep a
/// cold range (mostly misses), so both policy paths stay exercised in
/// every set.
pub fn workload(assoc: usize, sets: usize, len: usize, seed: u64) -> Vec<(u32, u64)> {
    let mut rng = Prng::seed_from_u64(seed);
    let hot = (3 * assoc as u64 / 4).max(1);
    let cold = 64 * assoc as u64;
    (0..len)
        .map(|_| {
            let set = rng.gen_range(0..sets as u64) as u32;
            let tag = if rng.gen_ratio(4, 5) {
                rng.gen_range(0..hot)
            } else {
                hot + rng.gen_range(0..cold)
            };
            (set, tag)
        })
        .collect()
}

/// One engine's result: best-repeat throughput plus the hit count of a
/// full replay (for the cross-engine consistency assertion).
#[derive(Debug, Clone, Copy)]
struct EngineRun {
    mops: f64,
    hits: u64,
}

fn time_engine(repeats: usize, accesses: usize, mut replay: impl FnMut() -> u64) -> EngineRun {
    let mut best = f64::INFINITY;
    let mut hits = 0;
    for _ in 0..repeats {
        let started = Instant::now();
        hits = black_box(replay());
        best = best.min(started.elapsed().as_secs_f64());
    }
    EngineRun {
        mops: accesses as f64 / best / 1e6,
        hits,
    }
}

/// One (kind, associativity) cell of the sweep.
#[derive(Debug, Clone)]
pub struct Measurement {
    /// Policy kind measured.
    pub kind: PolicyKind,
    /// Number of ways.
    pub assoc: usize,
    /// Boxed-baseline throughput, million accesses/second.
    pub boxed_mops: f64,
    /// Enum-engine throughput, million accesses/second.
    pub enum_mops: f64,
    /// Batch-kernel throughput, or `None` when no kernel serves the pair.
    pub kernel: Option<f64>,
    /// Name of the dispatched kernel (e.g. `lru8/swar64`), if any.
    pub kernel_name: Option<&'static str>,
    /// Hits observed over one stream replay (identical on all engines).
    pub hits: u64,
}

impl Measurement {
    /// Enum-engine speedup over the boxed baseline.
    pub fn enum_speedup(&self) -> f64 {
        self.enum_mops / self.boxed_mops
    }

    /// Batch-kernel speedup over the boxed baseline.
    pub fn kernel_speedup(&self) -> Option<f64> {
        self.kernel.map(|k| k / self.boxed_mops)
    }

    /// Batch-kernel speedup over the same-run enum engine.
    pub fn kernel_over_enum(&self) -> Option<f64> {
        self.kernel.map(|k| k / self.enum_mops)
    }
}

/// Measure one (kind, assoc) cell: replay the same stream on each
/// engine, assert the engines agree on the hit count, report the
/// fastest repeat of each.
pub fn measure(kind: PolicyKind, assoc: usize, cfg: &BenchConfig) -> Measurement {
    let stream = workload(assoc, cfg.sets, cfg.accesses, SEED ^ assoc as u64);

    // State (including stochastic policies' RNG position) carries over
    // across repeats, equally on every engine, so repeats stay
    // access-for-access comparable.
    let mut boxed: Vec<BoxedSet> = (0..cfg.sets)
        .map(|s| BoxedSet::new(boxed_policy(kind, assoc, s as u64)))
        .collect();
    let boxed_run = time_engine(cfg.repeats, cfg.accesses, || {
        boxed_access_many(&mut boxed, &stream)
    });

    let mut enumed: Vec<CacheSet> = (0..cfg.sets)
        .map(|s| CacheSet::from_state(kind.build_state(assoc, s as u64)))
        .collect();
    let enum_run = time_engine(cfg.repeats, cfg.accesses, || {
        enum_access_many(&mut enumed, &stream)
    });

    assert_eq!(
        boxed_run.hits, enum_run.hits,
        "boxed and enum engines disagree for {kind:?} at {assoc} ways"
    );

    let kernel_name = KernelCache::kernel_name(kind, assoc);
    let kernel = KernelCache::for_kind(kind, assoc, cfg.sets).map(|mut cache| {
        let run = time_engine(cfg.repeats, cfg.accesses, || cache.access_many(&stream).0);
        assert_eq!(
            run.hits, enum_run.hits,
            "kernel and enum engines disagree for {kind:?} at {assoc} ways"
        );
        run.mops
    });

    Measurement {
        kind,
        assoc,
        boxed_mops: boxed_run.mops,
        enum_mops: enum_run.mops,
        kernel,
        kernel_name,
        hits: enum_run.hits,
    }
}

fn fmt_mops(m: f64) -> String {
    format!("{m:.1}")
}

/// Kinds whose assoc-8 kernel-over-enum speedup the sweep records.
const TARGET_KINDS: [PolicyKind; 3] = [PolicyKind::Lru, PolicyKind::Fifo, PolicyKind::TreePlru];

/// Minimum same-run kernel/enum speedup at 8 ways for [`TARGET_KINDS`].
const KERNEL_OVER_ENUM_TARGET: f64 = 3.0;

/// Kinds that must have a batch kernel at 16 ways.
const ASSOC16_KERNEL_KINDS: [PolicyKind; 4] = [
    PolicyKind::Lru,
    PolicyKind::Fifo,
    PolicyKind::TreePlru,
    PolicyKind::Nru,
];

/// The outcome of a sweep: where the record landed, plus any *missing*
/// target rows — cells a target needs that the sweep failed to produce
/// (e.g. a kernel pair that no longer compiles). The `bench_access`
/// binary exits nonzero when this list is non-empty.
#[derive(Debug)]
pub struct SweepOutcome {
    /// Path of the written `results/*.json`.
    pub path: PathBuf,
    /// Human-readable descriptions of absent target rows.
    pub missing: Vec<String>,
}

/// Run the whole sweep and write the instrumented record.
pub fn run_and_report(smoke: bool) -> SweepOutcome {
    let cfg = if smoke {
        BenchConfig::smoke()
    } else {
        BenchConfig::full()
    };
    let name = if smoke {
        "bench_access_smoke"
    } else {
        "bench_access"
    };
    let mut run = Runner::new(name).with_seed(SEED).with_jobs(1);
    let mut table = Table::new(
        "Access throughput by engine (million accesses/s, best repeat)",
        &[
            "policy",
            "assoc",
            "boxed",
            "enum",
            "kernel",
            "enum x",
            "kern/enum",
        ],
    );
    let mut entries = Vec::new();
    let mut sweep = Vec::new();
    for kind in PolicyKind::differential_kinds() {
        for assoc in ASSOCS {
            let m = measure(kind, assoc, &cfg);
            let engines = 2 + usize::from(m.kernel.is_some());
            run.add_cells(1);
            run.count("accesses", (cfg.accesses * cfg.repeats * engines) as u64);
            table.row(vec![
                kind.label(),
                assoc.to_string(),
                fmt_mops(m.boxed_mops),
                fmt_mops(m.enum_mops),
                m.kernel.map_or_else(|| NO_KERNEL.into(), fmt_mops),
                format!("{:.2}", m.enum_speedup()),
                m.kernel_over_enum()
                    .map_or_else(|| "-".into(), |x| format!("{x:.2}")),
            ]);
            entries.push(jobj! {
                "policy": kind.label(),
                "assoc": assoc,
                "boxed_mops": m.boxed_mops,
                "enum_mops": m.enum_mops,
                "kernel_mops": m.kernel.map_or(Json::Null, Json::from),
                "kernel_skip": if m.kernel.is_some() { Json::Null } else { Json::from(NO_KERNEL) },
                "kernel": m.kernel_name.map_or(Json::Null, Json::from),
                "enum_speedup": m.enum_speedup(),
                "kernel_speedup": m.kernel_speedup().map_or(Json::Null, Json::from),
                "kernel_over_enum": m.kernel_over_enum().map_or(Json::Null, Json::from),
                "hits": m.hits,
                "accesses": cfg.accesses,
            });
            sweep.push(m);
        }
    }

    // The acceptance targets this sweep records. Presence failures (a
    // target cell the sweep could not produce at all) are collected in
    // `missing` and fail the binary; `met` flags additionally pin the
    // recorded speedups for the committed full run.
    let mut missing = Vec::new();
    let mut targets = Vec::new();
    for kind in TARGET_KINDS {
        let Some(m) = sweep.iter().find(|m| m.kind == kind && m.assoc == 8) else {
            missing.push(format!("{} assoc 8 row absent from sweep", kind.label()));
            continue;
        };
        match m.kernel_over_enum() {
            Some(x) => targets.push(jobj! {
                "check": "kernel_over_enum",
                "policy": kind.label(),
                "assoc": 8,
                "value": x,
                "target": KERNEL_OVER_ENUM_TARGET,
                "met": x >= KERNEL_OVER_ENUM_TARGET,
            }),
            None => missing.push(format!("{} assoc 8 has no kernel row", kind.label())),
        }
    }
    for kind in ASSOC16_KERNEL_KINDS {
        let cell = sweep.iter().find(|m| m.kind == kind && m.assoc == 16);
        let present = cell.is_some_and(|m| m.kernel.is_some());
        if !present {
            missing.push(format!("{} assoc 16 has no kernel row", kind.label()));
        }
        targets.push(jobj! {
            "check": "kernel_assoc16",
            "policy": kind.label(),
            "assoc": 16,
            "kernel": cell
                .and_then(|m| m.kernel_name)
                .map_or(Json::Null, Json::from),
            "met": present,
        });
    }

    let path = run.finish(
        &table,
        jobj! {
            "smoke": smoke,
            "sets": cfg.sets,
            "accesses_per_engine": cfg.accesses,
            "repeats": cfg.repeats,
            "entries": Json::Arr(entries),
            "targets": Json::Arr(targets),
        },
    );
    SweepOutcome { path, missing }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_is_deterministic_and_mixed() {
        let a = workload(8, 32, 5000, 1);
        let b = workload(8, 32, 5000, 1);
        assert_eq!(a, b);
        let hot = a.iter().filter(|&&(_, t)| t < 6).count();
        assert!(hot > 3000 && hot < 4700, "hot fraction off: {hot}/5000");
        assert!(a.iter().all(|&(s, _)| s < 32));
        let first_set = a[0].0;
        assert!(
            a.iter().any(|&(s, _)| s != first_set),
            "stream never changes set"
        );
    }

    #[test]
    fn engines_agree_on_every_differential_kind() {
        let cfg = BenchConfig {
            sets: 32,
            accesses: 20_000,
            repeats: 1,
        };
        for kind in PolicyKind::differential_kinds() {
            for assoc in ASSOCS {
                // `measure` internally asserts the boxed and kernel
                // engines replay to the enum hit count.
                let m = measure(kind, assoc, &cfg);
                assert!(m.hits > 0, "{kind:?}/{assoc}: degenerate stream");
                assert!(m.boxed_mops > 0.0 && m.enum_mops > 0.0);
            }
        }
    }

    #[test]
    fn kernel_column_is_measured_or_skipped_as_no_kernel() {
        let cfg = BenchConfig {
            sets: 16,
            accesses: 4_000,
            repeats: 1,
        };
        let m = measure(PolicyKind::Lru, 16, &cfg);
        assert!(m.kernel.is_some());
        assert_eq!(m.kernel_name, Some("lru16/swar128"));
        assert!(m.kernel_over_enum().is_some());
        for kind in [PolicyKind::Random { seed: 7 }, PolicyKind::Clock] {
            let m = measure(kind, 8, &cfg);
            assert_eq!(m.kernel, None, "{kind:?}");
            assert_eq!(m.kernel_name, None, "{kind:?}");
            assert_eq!(m.kernel_over_enum(), None, "{kind:?}");
        }
    }

    #[test]
    fn boxed_baseline_replays_the_enum_engine() {
        let stream = workload(8, 16, 30_000, 42);
        for kind in PolicyKind::differential_kinds() {
            let mut b: Vec<BoxedSet> = (0..16)
                .map(|s| BoxedSet::new(boxed_policy(kind, 8, s as u64)))
                .collect();
            let mut e: Vec<CacheSet> = (0..16)
                .map(|s| CacheSet::from_state(kind.build_state(8, s as u64)))
                .collect();
            assert_eq!(
                boxed_access_many(&mut b, &stream),
                enum_access_many(&mut e, &stream),
                "kind {kind:?}"
            );
        }
    }
}

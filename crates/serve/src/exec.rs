//! Request execution: the bridge from a validated [`Request`] to a
//! deterministic JSON result body.
//!
//! The server talks to executors through the [`Executor`] trait so
//! tests can substitute scripted ones (a fixed-latency executor turns
//! backpressure tests deterministic). Production uses
//! [`PipelineExecutor`], which drives the same library entry points as
//! the `cachekit` CLI: the budgeted robust inference pipeline, the
//! trace-driven simulator, the permutation-spec distance analyses, and
//! the synthetic workload suite.
//!
//! Result bodies are **bit-deterministic**: for a given canonical
//! request they contain no timestamps, durations, or other
//! run-dependent values. That property is what lets the result cache
//! return stored bytes and still be indistinguishable from a cold
//! execution (asserted by the backpressure test suite).

use crate::proto::{
    AttackScoreRequest, DistancesRequest, EvictionSetRequest, InferRequest, Request,
    SimulateHierarchyRequest, SimulateRequest, WorkloadsRequest,
};
use cachekit_bench::json::Json;
use cachekit_core::analysis::{evict_distance_spec, minimal_lifespan_spec, DistanceError};
use cachekit_core::attack::{eviction_set_for_kind, stealth_score};
use cachekit_core::infer::{engine_by_name, infer_geometry, Finding, InferenceRequest};
use cachekit_core::perm::derive_permutation_spec;
use cachekit_hw::{fleet, CacheLevel, LevelOracle};
use cachekit_sim::{Cache, CacheConfig, Hierarchy};
use cachekit_trace::{io, workloads};

/// Search budget (oracle steps) for the distance analyses — matches the
/// CLI's `distances` command.
const DISTANCE_BUDGET: usize = 8_000_000;

/// Executes validated requests, producing deterministic JSON bodies.
///
/// Implementations must be cheap to share across worker threads; the
/// server holds one instance behind an `Arc`.
pub trait Executor: Send + Sync + 'static {
    /// Run `request` to completion and render its result body.
    ///
    /// The returned JSON must be fully determined by the request's
    /// canonical form (no clocks, no global state) — it may be stored
    /// in the result cache and replayed byte-for-byte.
    fn execute(&self, request: &Request) -> Json;
}

/// The production executor: runs the real cachekit pipelines.
#[derive(Debug, Default, Clone, Copy)]
pub struct PipelineExecutor;

impl Executor for PipelineExecutor {
    fn execute(&self, request: &Request) -> Json {
        match request {
            Request::Infer(r) => run_infer(r),
            Request::Simulate(r) => run_simulate(r),
            Request::SimulateHierarchy(r) => run_simulate_hierarchy(r),
            Request::Distances(r) => run_distances(r),
            Request::Workloads(r) => run_workloads(r),
            Request::EvictionSet(r) => run_eviction_set(r),
            Request::AttackScore(r) => run_attack_score(r),
        }
    }
}

/// A result body for a request that failed *inside* the pipeline
/// (e.g. a CPU level outside the permutation class). These are valid,
/// cacheable answers — the request itself was well-formed.
fn error_body(kind: &str, message: String) -> Json {
    Json::object(vec![
        ("type", Json::from(kind)),
        ("ok", Json::from(false)),
        ("degraded", Json::from(false)),
        ("error", Json::from(message)),
    ])
}

fn run_infer(req: &InferRequest) -> Json {
    let config = match req.inference_config() {
        Ok(c) => c,
        Err(e) => return error_body("infer", e.to_string()),
    };
    let Some(mut cpu) = fleet::by_name(&req.cpu) else {
        return error_body("infer", format!("unknown cpu {:?}", req.cpu));
    };
    let level = match req.level.as_str() {
        "l1" => CacheLevel::L1,
        "l2" => CacheLevel::L2,
        _ => CacheLevel::L3,
    };
    if matches!(level, CacheLevel::L3) && cpu.l3_config().is_none() {
        return error_body("infer", format!("{} has no L3", req.cpu));
    }
    let engine =
        engine_by_name(&req.engine).expect("proto validation admits only known engine names");
    let mut oracle = LevelOracle::new(&mut cpu, level);
    let geometry = match infer_geometry(&mut oracle, &config) {
        Ok(g) => g,
        Err(e) => return error_body("infer", format!("geometry inference failed: {e}")),
    };
    let report = engine.infer(&mut oracle, &InferenceRequest::new(geometry, config));

    let mut fields = vec![
        ("type", Json::from("infer")),
        ("ok", Json::from(report.outcome.is_ok())),
        ("degraded", Json::from(report.degraded)),
        // `engine` echoes the request's (canonicalized) choice;
        // `backend` is the engine that produced the verdict — they
        // differ only under `auto` fallback.
        ("engine", Json::from(req.engine.as_str())),
        ("backend", Json::from(report.engine)),
        (
            "geometry",
            Json::object(vec![
                ("line_size", Json::from(geometry.line_size)),
                ("capacity", Json::from(geometry.capacity)),
                ("associativity", Json::from(geometry.associativity)),
                ("num_sets", Json::from(geometry.num_sets)),
            ]),
        ),
        ("confidence", Json::Num(report.confidence)),
        (
            "position_confidences",
            Json::from(report.position_confidences.clone()),
        ),
        ("measurements_used", Json::from(report.measurements_used)),
        ("measurement_budget", Json::from(report.measurement_budget)),
        ("timeouts", Json::from(report.timeouts)),
        ("dropped", Json::from(report.dropped)),
    ];
    match &report.outcome {
        Ok(Finding::Permutation(found)) => {
            fields.push((
                "policy",
                match found.matched {
                    Some(name) => Json::from(name),
                    None => Json::Null,
                },
            ));
            fields.push(("insertion_position", Json::from(found.insertion_position)));
            fields.push((
                "validation",
                Json::object(vec![
                    ("rounds", Json::from(found.validation_rounds)),
                    ("mismatches", Json::from(found.validation_mismatches)),
                ]),
            ));
            fields.push(("spec", Json::from(found.spec.render())));
        }
        Ok(Finding::Automaton(found)) => {
            fields.push((
                "policy",
                match &found.matched {
                    Some(name) => Json::from(name.as_str()),
                    None => Json::Null,
                },
            ));
            fields.push(("states", Json::from(found.states())));
            fields.push((
                "learning",
                Json::object(vec![
                    (
                        "membership_queries",
                        Json::from(found.stats.membership_queries),
                    ),
                    (
                        "equivalence_words",
                        Json::from(found.stats.equivalence_words),
                    ),
                    ("rounds", Json::from(found.stats.rounds)),
                ]),
            ));
        }
        Err(e) => fields.push(("error", Json::from(e.to_string()))),
    }
    Json::object(fields)
}

fn run_simulate(req: &SimulateRequest) -> Json {
    let config = match CacheConfig::new(req.capacity, req.assoc, req.line) {
        Ok(c) => c,
        Err(e) => return error_body("simulate", format!("invalid geometry: {e}")),
    };
    let suite = workloads::suite(req.capacity, req.line, req.seed);
    let Some(workload) = suite.iter().find(|w| w.name == req.workload) else {
        let names: Vec<&str> = suite.iter().map(|w| w.name).collect();
        return error_body(
            "simulate",
            format!("unknown workload {:?}; available: {names:?}", req.workload),
        );
    };
    let ops = io::with_writes(&workload.trace, req.writes, req.seed);
    // Pure-read workloads on a (policy, assoc) pair with a monomorphized
    // batch kernel run through `Cache::access_many`; everything else runs
    // per access on the inline enum engine. The two are bit-identical, and
    // the pick depends only on (policy, assoc, writes == 0), so bodies stay
    // cacheable.
    let use_kernel = req.writes == 0.0
        && cachekit_policies::kernel::kernel_available(req.policy, config.associativity());
    let mut cache = Cache::new(config, req.policy);
    let (engine, kernel, stats) = if use_kernel {
        let name = cache.batch_kernel();
        let addrs: Vec<u64> = ops.iter().map(|op| op.addr).collect();
        cache.access_many(&addrs);
        ("kernel", name, cache.stats())
    } else {
        let stats = cache.run_ops(ops.iter().map(|op| (op.addr, op.write)));
        ("enum", None, stats)
    };
    Json::object(vec![
        ("type", Json::from("simulate")),
        ("ok", Json::from(true)),
        ("degraded", Json::from(false)),
        ("policy", Json::from(req.policy.label())),
        ("engine", Json::from(engine)),
        (
            "kernel",
            match kernel {
                Some(name) => Json::from(name),
                None => Json::Null,
            },
        ),
        ("workload", Json::from(workload.name)),
        ("accesses", Json::from(stats.accesses)),
        ("hits", Json::from(stats.hits)),
        ("misses", Json::from(stats.misses)),
        ("evictions", Json::from(stats.evictions)),
        ("writes", Json::from(stats.writes)),
        ("writebacks", Json::from(stats.writebacks)),
        ("miss_ratio", Json::Num(stats.miss_ratio())),
    ])
}

fn run_simulate_hierarchy(req: &SimulateHierarchyRequest) -> Json {
    // Every level runs on the enum engine: the batch kernels have no
    // write-back or invalidate edge, which the hierarchy needs under
    // every containment policy.
    let mut caches = Vec::with_capacity(req.levels.len());
    for level in &req.levels {
        match CacheConfig::new(level.capacity, level.assoc, req.line) {
            Ok(config) => caches.push(Cache::new(config, level.policy)),
            Err(e) => return error_body("simulate_hierarchy", format!("invalid geometry: {e}")),
        }
    }
    let outer_capacity = req
        .levels
        .last()
        .expect("levels validated non-empty")
        .capacity;
    let suite = workloads::suite(outer_capacity, req.line, req.seed);
    let Some(workload) = suite.iter().find(|w| w.name == req.workload) else {
        let names: Vec<&str> = suite.iter().map(|w| w.name).collect();
        return error_body(
            "simulate_hierarchy",
            format!("unknown workload {:?}; available: {names:?}", req.workload),
        );
    };
    let ops = io::with_writes(&workload.trace, req.writes, req.seed);
    let mut hierarchy = Hierarchy::from_caches(caches)
        .with_containment(req.containment)
        .with_latencies(req.latencies.clone(), req.memory_latency);
    for op in &ops {
        hierarchy.access_op(op.addr, op.write);
    }
    let hstats = hierarchy.hierarchy_stats();
    let levels: Vec<Json> = req
        .levels
        .iter()
        .zip(hierarchy.stats())
        .map(|(level, stats)| {
            Json::object(vec![
                ("policy", Json::from(level.policy.label())),
                ("capacity", Json::from(level.capacity)),
                ("assoc", Json::from(level.assoc)),
                ("engine", Json::from("enum")),
                ("accesses", Json::from(stats.accesses)),
                ("hits", Json::from(stats.hits)),
                ("misses", Json::from(stats.misses)),
                ("evictions", Json::from(stats.evictions)),
                ("writebacks", Json::from(stats.writebacks)),
                (
                    "miss_ratio",
                    Json::Num(if stats.accesses == 0 {
                        0.0
                    } else {
                        stats.miss_ratio()
                    }),
                ),
            ])
        })
        .collect();
    Json::object(vec![
        ("type", Json::from("simulate_hierarchy")),
        ("ok", Json::from(true)),
        ("degraded", Json::from(false)),
        ("containment", Json::from(req.containment.label())),
        ("workload", Json::from(workload.name)),
        ("levels", Json::Arr(levels)),
        ("accesses", Json::from(hstats.accesses)),
        ("amat_cycles", Json::Num(hierarchy.amat())),
        ("memory_fetches", Json::from(hstats.memory_fetches)),
        ("back_invalidations", Json::from(hstats.back_invalidations)),
        ("victim_fills", Json::from(hstats.victim_fills)),
        ("memory_writebacks", Json::from(hstats.memory_writebacks)),
        ("latencies", Json::from(req.latencies.clone())),
        ("memory_latency", Json::from(req.memory_latency)),
    ])
}

fn run_distances(req: &DistancesRequest) -> Json {
    let spec = match derive_permutation_spec(Box::new(req.policy.build_state(req.assoc, 0))) {
        Ok(s) => s,
        Err(e) => {
            return error_body(
                "distances",
                format!(
                    "{} is not a (front-insertion) permutation policy: {e}",
                    req.policy.label()
                ),
            )
        }
    };
    let show = |r: Result<usize, DistanceError>| match r {
        Ok(v) => Json::from(v),
        Err(DistanceError::Unbounded) => Json::from("unbounded"),
        Err(e) => Json::from(format!("({e})")),
    };
    Json::object(vec![
        ("type", Json::from("distances")),
        ("ok", Json::from(true)),
        ("degraded", Json::from(false)),
        ("policy", Json::from(req.policy.label())),
        ("assoc", Json::from(req.assoc)),
        (
            "evict_distance",
            show(evict_distance_spec(&spec, DISTANCE_BUDGET)),
        ),
        (
            "minimal_lifespan",
            show(minimal_lifespan_spec(&spec, DISTANCE_BUDGET)),
        ),
    ])
}

fn run_workloads(req: &WorkloadsRequest) -> Json {
    let suite = workloads::suite(req.capacity, req.line, req.seed);
    let entries: Vec<Json> = suite
        .iter()
        .map(|w| {
            Json::object(vec![
                ("name", Json::from(w.name)),
                ("description", Json::from(w.description)),
                ("accesses", Json::from(w.trace.len())),
            ])
        })
        .collect();
    Json::object(vec![
        ("type", Json::from("workloads")),
        ("ok", Json::from(true)),
        ("degraded", Json::from(false)),
        ("capacity", Json::from(req.capacity)),
        ("line", Json::from(req.line)),
        ("workloads", Json::Arr(entries)),
    ])
}

/// Congruence stride the eviction-set bodies are rendered with: the
/// way size of the 16-set, 64-byte-line reference geometry every
/// attack suite pins. The construction is stride-generic (addresses
/// only need to be set-congruent); the body states the stride so a
/// client can re-target it.
const ATTACK_STRIDE: u64 = 16 * 64;

fn run_eviction_set(req: &EvictionSetRequest) -> Json {
    let set = match eviction_set_for_kind(req.policy, req.assoc, ATTACK_STRIDE) {
        Ok(set) => set,
        // A stochastic policy (or one with no derivable model) refuses
        // honestly; the refusal is a valid, cacheable answer.
        Err(e) => return error_body("eviction_set", e.to_string()),
    };
    // Confirm against the reference simulator before serving: the body
    // never claims a sequence the ground truth does not certify.
    let config = CacheConfig::new((req.assoc * 16 * 64) as u64, req.assoc, 64)
        .expect("reference geometry is valid");
    let mut oracle = cachekit_core::infer::SimOracle::new(Cache::new(config, req.policy));
    let confirmed = set.confirms_on(&mut oracle);
    Json::object(vec![
        ("type", Json::from("eviction_set")),
        ("ok", Json::from(true)),
        ("degraded", Json::from(false)),
        ("policy", Json::from(req.policy.label())),
        ("assoc", Json::from(req.assoc)),
        ("stride", Json::from(ATTACK_STRIDE)),
        ("target", Json::from(set.target)),
        ("preparation", Json::from(set.preparation.clone())),
        ("accesses", Json::from(set.accesses.clone())),
        ("length", Json::from(set.len())),
        ("attacker_misses", Json::from(set.attacker_misses)),
        ("attacker_hits", Json::from(set.attacker_hits)),
        ("confirmed", Json::from(confirmed)),
    ])
}

fn run_attack_score(req: &AttackScoreRequest) -> Json {
    let score = stealth_score(req.policy, req.assoc, req.scenario, req.rounds, req.seed);
    Json::object(vec![
        ("type", Json::from("attack_score")),
        ("ok", Json::from(true)),
        ("degraded", Json::from(false)),
        ("policy", Json::from(req.policy.label())),
        ("assoc", Json::from(req.assoc)),
        ("scenario", Json::from(req.scenario.label())),
        ("rounds", Json::from(score.rounds)),
        ("guaranteed", Json::from(score.guaranteed)),
        ("hold_rate", Json::Num(score.hold_rate)),
        ("misses_per_round", Json::Num(score.misses_per_round)),
        ("accesses_per_round", Json::Num(score.accesses_per_round)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(body: &str) -> Request {
        Request::parse(body).unwrap()
    }

    #[test]
    fn infer_results_are_bit_deterministic() {
        let req = parse(r#"{"type":"infer","cpu":"atom_d525","level":"l1"}"#);
        let a = PipelineExecutor.execute(&req).to_compact();
        let b = PipelineExecutor.execute(&req).to_compact();
        assert_eq!(a, b);
        assert!(a.contains("\"ok\":true"), "body: {a}");
        assert!(a.contains("\"policy\":"), "body: {a}");
    }

    #[test]
    fn infer_serves_the_automata_engine_for_hidden_nru() {
        // quark_x1000's L1 hides NRU — outside the permutation class,
        // so only the automata engine can name it.
        let req = parse(r#"{"type":"infer","cpu":"quark_x1000","level":"l1","engine":"automata"}"#);
        let body = PipelineExecutor.execute(&req).to_compact();
        assert!(body.contains("\"ok\":true"), "body: {body}");
        assert!(body.contains("\"engine\":\"automata\""), "body: {body}");
        assert!(body.contains("\"backend\":\"automata\""), "body: {body}");
        assert!(body.contains("\"policy\":\"NRU\""), "body: {body}");
        assert!(body.contains("\"states\":"), "body: {body}");
        assert_eq!(body, PipelineExecutor.execute(&req).to_compact());
    }

    #[test]
    fn infer_echoes_the_permutation_engine_and_backend() {
        let req = parse(r#"{"type":"infer","cpu":"atom_d525","level":"l1"}"#);
        let body = PipelineExecutor.execute(&req).to_compact();
        assert!(body.contains("\"engine\":\"permutation\""), "body: {body}");
        assert!(body.contains("\"backend\":\"permutation\""), "body: {body}");
    }

    #[test]
    fn simulate_reports_stats() {
        let req = parse(
            r#"{"type":"simulate","policy":"LRU","capacity":65536,"assoc":8,
                "workload":"seq_stream"}"#,
        );
        let body = PipelineExecutor.execute(&req).to_compact();
        assert!(body.contains("\"ok\":true"), "body: {body}");
        assert!(body.contains("\"miss_ratio\":"), "body: {body}");
        assert_eq!(body, PipelineExecutor.execute(&req).to_compact());
    }

    #[test]
    fn simulate_engine_is_kernel_for_pure_read_kernel_pairs_and_enum_otherwise() {
        let flat = |policy: &str, assoc: usize, writes: f64| {
            format!(
                r#"{{"type":"simulate","policy":"{policy}","capacity":65536,
                    "assoc":{assoc},"workload":"zipf_hot","writes":{writes}}}"#
            )
        };
        // Kernel pairs on both levels: it is the hierarchy, not the pair,
        // that keeps them off the kernel.
        let hierarchy = |containment: &str| {
            format!(
                r#"{{"type":"simulate_hierarchy","workload":"fit_loop",
                    "containment":"{containment}","levels":[
                    {{"policy":"PLRU","capacity":8192,"assoc":4}},
                    {{"policy":"LRU","capacity":65536,"assoc":16}}]}}"#
            )
        };
        let cases = [
            (flat("LRU", 8, 0.0), "kernel"),
            (flat("FIFO", 4, 0.0), "kernel"),
            (flat("PLRU", 16, 0.0), "kernel"),
            (flat("NRU", 16, 0.0), "kernel"),
            // Writes.
            (flat("PLRU", 8, 0.2), "enum"),
            (flat("LRU", 16, 0.2), "enum"),
            // No kernel for the pair.
            (flat("CLOCK", 8, 0.0), "enum"),
            (flat("SRRIP-2", 8, 0.0), "enum"),
            (flat("LIP", 16, 0.0), "enum"),
            // Stochastic.
            (flat("BIP", 8, 0.0), "enum"),
            (hierarchy("nine"), "enum"),
            (hierarchy("inclusive"), "enum"),
            (hierarchy("exclusive"), "enum"),
        ];
        for (request, want) in cases {
            let body = PipelineExecutor.execute(&parse(&request));
            assert_eq!(
                body.get("ok").and_then(Json::as_bool),
                Some(true),
                "{request}"
            );
            let engines: Vec<Option<&str>> = match body.get("levels") {
                Some(Json::Arr(levels)) => levels
                    .iter()
                    .map(|l| l.get("engine").and_then(Json::as_str))
                    .collect(),
                _ => vec![body.get("engine").and_then(Json::as_str)],
            };
            assert!(!engines.is_empty(), "{request}");
            for engine in engines {
                assert_eq!(engine, Some(want), "{request}");
            }
        }
    }

    #[test]
    fn simulate_picks_the_batch_kernel_for_pure_read_compiled_pairs() {
        // Pure-read LRU at 16 ways: the monomorphized batch kernel runs,
        // and the response names which kernel was dispatched.
        let req = parse(
            r#"{"type":"simulate","policy":"LRU","capacity":131072,"assoc":16,
                "workload":"zipf_hot"}"#,
        );
        let body = PipelineExecutor.execute(&req).to_compact();
        assert!(body.contains("\"engine\":\"kernel\""), "body: {body}");
        assert!(
            body.contains("\"kernel\":\"lru16/swar128\""),
            "body: {body}"
        );
        assert_eq!(body, PipelineExecutor.execute(&req).to_compact());
        // Any write traffic falls back to the per-access enum engine.
        let req = parse(
            r#"{"type":"simulate","policy":"LRU","capacity":131072,"assoc":16,
                "workload":"zipf_hot","writes":0.1}"#,
        );
        let body = PipelineExecutor.execute(&req).to_compact();
        assert!(!body.contains("\"engine\":\"kernel\""), "body: {body}");
        assert!(body.contains("\"kernel\":null"), "body: {body}");
    }

    #[test]
    fn kernel_engine_stats_are_bit_identical_to_the_enum_engine() {
        // The same pure-read request forced down the enum path (via a
        // direct Cache) must agree with the kernel path on every stat.
        let config = CacheConfig::new(131072, 16, 64).unwrap();
        let suite = workloads::suite(131072, 64, 7);
        for w in &suite {
            let addrs: Vec<u64> = io::with_writes(&w.trace, 0.0, 7)
                .iter()
                .map(|op| op.addr)
                .collect();
            let mut kerneled = Cache::new(config, cachekit_policies::PolicyKind::Lru);
            assert!(kerneled.batch_kernel().is_some());
            kerneled.access_many(&addrs);
            let mut enumed = Cache::new(config, cachekit_policies::PolicyKind::Lru);
            enumed.run_ops(addrs.iter().map(|&a| (a, false)));
            assert_eq!(kerneled.stats(), enumed.stats(), "workload {}", w.name);
            assert_eq!(
                kerneled.occupancy(),
                enumed.occupancy(),
                "workload {}",
                w.name
            );
        }
    }

    #[test]
    fn simulate_hierarchy_reports_per_level_stats_and_amat() {
        let req = parse(
            r#"{"type":"simulate_hierarchy","workload":"thrash_loop","containment":"inclusive",
                "levels":[{"policy":"PLRU","capacity":8192,"assoc":4},
                          {"policy":"LRU","capacity":65536,"assoc":8}]}"#,
        );
        let body = PipelineExecutor.execute(&req).to_compact();
        assert!(body.contains("\"ok\":true"), "body: {body}");
        assert!(
            body.contains("\"containment\":\"inclusive\""),
            "body: {body}"
        );
        assert!(body.contains("\"amat_cycles\":"), "body: {body}");
        assert!(body.contains("\"back_invalidations\":"), "body: {body}");
        assert_eq!(body, PipelineExecutor.execute(&req).to_compact());
    }

    #[test]
    fn simulate_hierarchy_single_level_nine_matches_flat_simulate() {
        // A depth-1 NINE hierarchy is definitionally a flat cache; the
        // two request types must agree on every shared statistic.
        let hier = parse(
            r#"{"type":"simulate_hierarchy","workload":"zipf_hot","writes":0.25,
                "levels":[{"policy":"SRRIP","capacity":65536,"assoc":8}]}"#,
        );
        let flat = parse(
            r#"{"type":"simulate","policy":"SRRIP","capacity":65536,"assoc":8,
                "workload":"zipf_hot","writes":0.25}"#,
        );
        let hier_body = PipelineExecutor.execute(&hier);
        let flat_body = PipelineExecutor.execute(&flat);
        let level = match hier_body.get("levels") {
            Some(Json::Arr(levels)) => &levels[0],
            other => panic!("levels must be an array, got {other:?}"),
        };
        for field in [
            "accesses",
            "hits",
            "misses",
            "evictions",
            "writebacks",
            "miss_ratio",
        ] {
            assert_eq!(
                level.get(field).and_then(Json::as_f64),
                flat_body.get(field).and_then(Json::as_f64),
                "field {field:?}"
            );
        }
    }

    #[test]
    fn simulate_hierarchy_unknown_workload_is_a_cacheable_error_body() {
        let req = parse(
            r#"{"type":"simulate_hierarchy","workload":"nope","levels":[
                {"policy":"LRU","capacity":65536,"assoc":8}]}"#,
        );
        let body = PipelineExecutor.execute(&req).to_compact();
        assert!(body.contains("\"ok\":false"), "body: {body}");
        assert!(body.contains("unknown workload"), "body: {body}");
    }

    #[test]
    fn distances_match_known_lru_values() {
        let req = parse(r#"{"type":"distances","policy":"LRU","assoc":4}"#);
        let body = PipelineExecutor.execute(&req).to_compact();
        assert!(body.contains("\"evict_distance\":4"), "body: {body}");
        assert!(body.contains("\"minimal_lifespan\":4"), "body: {body}");
    }

    #[test]
    fn workloads_lists_the_suite() {
        let req = parse(r#"{"type":"workloads","capacity":65536}"#);
        let body = PipelineExecutor.execute(&req).to_compact();
        assert!(body.contains("\"workloads\":["), "body: {body}");
        assert!(body.contains("seq_stream"), "body: {body}");
    }

    #[test]
    fn pipeline_errors_become_cacheable_error_bodies() {
        // RANDOM is outside the permutation class at the spec level.
        let req = parse(r#"{"type":"distances","policy":"RANDOM","assoc":4}"#);
        let body = PipelineExecutor.execute(&req).to_compact();
        assert!(body.contains("\"ok\":false"), "body: {body}");
        assert!(body.contains("\"error\":"), "body: {body}");
    }
}

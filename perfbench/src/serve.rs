//! `serve_cold`: a closed loop over one keep-alive connection against a
//! self-hosted `Server` on loopback, every request distinct by seed so
//! each one misses the result cache. With one request in flight, the
//! process's CPU time over a round trip (client, reactor and worker
//! threads) is that request's cost; the untraced run reports it, and
//! the wall round trips only as notes.
//!
//! The mix cycles through pure-read `simulate` on kernel pairs,
//! `simulate` with writes (table and lazy-table engines), non-kernel
//! policies, and an inclusive `simulate_hierarchy` with writes, at
//! capacities from 32 KiB to 1 MiB. The serving cap (16 MiB) stays out
//! of the mix: one such request would generate about 5e9 accesses.

use crate::report::Report;
use crate::stats;
use crate::tracer::Tracer;
use crate::{cpu_s, cpu_timed, mix64, timed, Opts};
use cachekit_bench::json::Json;
use cachekit_policies::PolicyKind;
use cachekit_serve::http::client::{ClientResponse, Connection};
use cachekit_serve::{Executor, PipelineExecutor, Request, ServeConfig, Server, ServerHandle};
use cachekit_sim::{Cache, CacheConfig, Containment, Hierarchy};
use cachekit_trace::{io, workloads};
use std::collections::HashMap;
use std::time::{Duration, Instant};

/// Server worker threads (the host has two cores).
pub const WORKERS: usize = 2;
/// Line size of every request (bytes).
pub const LINE: u64 = 64;
/// CPU time of one cycle of the mix on the reference host (seconds).
pub const NOMINAL_CYCLE_S: f64 = 2.5;
/// Requests checked bit for bit against the per-access reference.
pub const REFERENCE_SAMPLE: usize = 2;

/// One request shape of the mix; the seed makes each request distinct.
#[derive(Debug, Clone, Copy)]
pub enum Shape {
    /// A `simulate` request.
    Simulate {
        /// Policy.
        policy: PolicyKind,
        /// Capacity in bytes.
        capacity: u64,
        /// Ways.
        assoc: usize,
        /// Suite trace name.
        workload: &'static str,
        /// Write fraction.
        writes: f64,
    },
    /// An inclusive three-level `simulate_hierarchy` request.
    Hierarchy {
        /// (policy, capacity, ways) per level, innermost first.
        levels: [(PolicyKind, u64, usize); 3],
        /// Suite trace name.
        workload: &'static str,
        /// Write fraction.
        writes: f64,
    },
}

/// The request mix, one cycle. Every trace named here has a length that
/// depends on the capacity only, never on the seed.
pub fn mix() -> Vec<Shape> {
    use PolicyKind::*;
    let sim = |policy, capacity, assoc, workload, writes| Shape::Simulate {
        policy,
        capacity,
        assoc,
        workload,
        writes,
    };
    let hier = |levels: [(PolicyKind, u64, usize); 3], workload| Shape::Hierarchy {
        levels,
        workload,
        writes: 0.1,
    };
    // Grouped by suite capacity, which sets a request's cost: in a whole
    // number of cycles the median falls inside the 64 KiB group and the
    // 75th percentile inside the 128 KiB group, not on a group boundary.
    vec![
        // 32 KiB.
        sim(Lru, 32 << 10, 8, "zipf_hot", 0.0),
        sim(Nru, 32 << 10, 8, "stack_geo", 0.0),
        sim(Bip { throttle: 32 }, 32 << 10, 8, "thrash_loop", 0.0),
        sim(Lru, 32 << 10, 8, "thrash_loop", 0.1),
        // 64 KiB.
        sim(TreePlru, 64 << 10, 16, "ptr_chase", 0.0),
        sim(Fifo, 64 << 10, 16, "zipf_hot", 0.0),
        sim(TreePlru, 64 << 10, 8, "zipf_hot", 0.1),
        sim(Clock, 64 << 10, 8, "scan_plus_hot", 0.0),
        sim(Srrip { bits: 2 }, 64 << 10, 8, "ptr_chase", 0.0),
        hier(
            [
                (Lru, 8 << 10, 8),
                (TreePlru, 16 << 10, 8),
                (Clock, 64 << 10, 16),
            ],
            "stack_geo",
        ),
        // 128 KiB.
        sim(Fifo, 128 << 10, 8, "scan_plus_hot", 0.0),
        sim(Fifo, 128 << 10, 8, "stack_geo", 0.1),
        sim(Lip, 128 << 10, 16, "ptr_chase", 0.0),
        sim(Lru, 128 << 10, 16, "phase_switch", 0.1),
        // 256 KiB and 1 MiB.
        sim(Srrip { bits: 2 }, 256 << 10, 16, "zipf_hot", 0.0),
        hier(
            [
                (TreePlru, 32 << 10, 8),
                (Lru, 256 << 10, 8),
                (Srrip { bits: 2 }, 1 << 20, 16),
            ],
            "zipf_hot",
        ),
    ]
}

impl Shape {
    /// The capacity the suite is generated for.
    pub fn suite_capacity(&self) -> u64 {
        match self {
            Shape::Simulate { capacity, .. } => *capacity,
            Shape::Hierarchy { levels, .. } => levels[2].1,
        }
    }

    /// The suite trace the request names.
    pub fn workload(&self) -> &'static str {
        match self {
            Shape::Simulate { workload, .. } | Shape::Hierarchy { workload, .. } => workload,
        }
    }

    fn writes(&self) -> f64 {
        match self {
            Shape::Simulate { writes, .. } | Shape::Hierarchy { writes, .. } => *writes,
        }
    }

    /// The same shape shrunk to the smallest capacities, for warm-up:
    /// the same (policy, ways) pairs, so process-wide engine memos fill.
    fn shrunk(&self) -> Shape {
        match *self {
            Shape::Simulate {
                policy,
                assoc,
                workload,
                writes,
                ..
            } => Shape::Simulate {
                policy,
                capacity: 32 << 10,
                assoc,
                workload,
                writes,
            },
            Shape::Hierarchy {
                levels,
                workload,
                writes,
            } => Shape::Hierarchy {
                levels: [
                    (levels[0].0, 8 << 10, levels[0].2),
                    (levels[1].0, 16 << 10, levels[1].2),
                    (levels[2].0, 32 << 10, levels[2].2),
                ],
                workload,
                writes,
            },
        }
    }

    /// The request body with `seed`.
    pub fn body(&self, seed: u64) -> String {
        let json = match *self {
            Shape::Simulate {
                policy,
                capacity,
                assoc,
                workload,
                writes,
            } => Json::object(vec![
                ("type", Json::from("simulate")),
                ("policy", Json::from(policy.label())),
                ("capacity", Json::from(capacity)),
                ("assoc", Json::from(assoc)),
                ("line", Json::from(LINE)),
                ("workload", Json::from(workload)),
                ("writes", Json::Num(writes)),
                ("seed", Json::from(seed)),
            ]),
            Shape::Hierarchy {
                levels,
                workload,
                writes,
            } => Json::object(vec![
                ("type", Json::from("simulate_hierarchy")),
                (
                    "levels",
                    Json::Arr(
                        levels
                            .iter()
                            .map(|&(policy, capacity, assoc)| {
                                Json::object(vec![
                                    ("policy", Json::from(policy.label())),
                                    ("capacity", Json::from(capacity)),
                                    ("assoc", Json::from(assoc)),
                                ])
                            })
                            .collect(),
                    ),
                ),
                ("containment", Json::from("inclusive")),
                ("line", Json::from(LINE)),
                ("workload", Json::from(workload)),
                ("writes", Json::Num(writes)),
                ("seed", Json::from(seed)),
            ]),
        };
        json.to_compact()
    }
}

/// Seed of measured request `i` (warm-up requests use another stream).
fn request_seed(seed: u64, i: u64) -> u64 {
    mix64(seed ^ mix64(i + 1)) >> 16
}

fn warmup_seed(seed: u64, i: u64) -> u64 {
    mix64(!seed ^ mix64(i + 0x5EED)) >> 16
}

/// Request `i` of the closed loop: its shape and body.
fn request(seed: u64, i: u64) -> (Shape, u64, String) {
    let shapes = mix();
    let shape = shapes[i as usize % shapes.len()];
    let s = request_seed(seed, i);
    (shape, s, shape.body(s))
}

/// Start a server and warm it up: one request per (policy, ways,
/// writes) pair of the mix at the smallest capacities, so process-wide
/// engine memos are filled before anything is timed. Returns the server
/// and the time both took.
pub fn setup(seed: u64, round: u64) -> (ServerHandle, f64) {
    cpu_timed(|| {
        let handle = Server::start(ServeConfig {
            addr: "127.0.0.1:0".to_owned(),
            workers_per_shard: WORKERS,
            queue_shards: 1,
            queue_depth: 64,
            reactors: 1,
            deadline: Some(Duration::from_secs(60)),
            ..ServeConfig::default()
        })
        .expect("bind a loopback port");
        let mut bodies: Vec<String> = Vec::new();
        let mut seen = Vec::new();
        for shape in mix() {
            let shrunk = shape.shrunk();
            let key = shrunk.body(0);
            if !seen.contains(&key) {
                seen.push(key);
                let j = bodies.len() as u64;
                bodies.push(shrunk.body(warmup_seed(seed, round * 64 + j)));
            }
        }
        let mut conn = Connection::open(&handle.addr().to_string()).expect("connect to the server");
        for body in &bodies {
            let resp = conn.post_json("/v1/query", body).expect("warm-up request");
            assert_eq!(
                resp.status,
                200,
                "warm-up request failed: {}",
                resp.body_str()
            );
        }
        handle
    })
}

/// One completed round trip.
struct Sample {
    index: u64,
    /// Wall time from request write to full response read.
    rtt: Duration,
    /// CPU seconds the process used over the round trip.
    cpu_s: f64,
    response: std::io::Result<ClientResponse>,
}

/// Drive the closed loop: one client sending its next request only
/// after the previous response arrived, over request indices
/// `first..first + cycles * mix().len()`. Returns the samples and the
/// wall time.
fn closed_loop(addr: &str, seed: u64, first: u64, cycles: u64) -> (Vec<Sample>, f64) {
    let end = first + cycles * mix().len() as u64;
    let mut samples = Vec::with_capacity((end - first) as usize);
    let start = Instant::now();
    let mut conn = Connection::open(addr).expect("connect to the server");
    for index in first..end {
        let (_, _, body) = request(seed, index);
        let (c0, t0) = (cpu_s(), Instant::now());
        let response = conn.post_json("/v1/query", &body);
        let (rtt, cpu_s) = (t0.elapsed(), cpu_s() - c0);
        if response.is_err() {
            // The connection is unusable after an I/O error.
            conn = Connection::open(addr).expect("reconnect to the server");
        }
        samples.push(Sample {
            index,
            rtt,
            cpu_s,
            response,
        });
    }
    (samples, start.elapsed().as_secs_f64())
}

/// Trace lengths by (suite capacity, trace name), generated untimed.
struct Lengths(HashMap<(u64, &'static str), u64>);

impl Lengths {
    fn for_mix(seed: u64) -> Lengths {
        let mut caps: Vec<u64> = mix().iter().map(Shape::suite_capacity).collect();
        caps.sort_unstable();
        caps.dedup();
        let mut map = HashMap::new();
        for cap in caps {
            for w in workloads::suite(cap, LINE, seed) {
                map.insert((cap, w.name), w.trace.len() as u64);
            }
        }
        Lengths(map)
    }

    fn get(&self, shape: &Shape) -> u64 {
        self.0[&(shape.suite_capacity(), shape.workload())]
    }
}

fn num(json: &Json, key: &str) -> Option<u64> {
    json.get(key).and_then(Json::as_u64)
}

/// Check one response: a 200 with `ok:true`, `degraded:false`, and
/// `hits + misses == accesses ==` the trace length. Returns the parsed
/// body and the accesses it simulated.
fn check_response(
    shape: &Shape,
    response: &std::io::Result<ClientResponse>,
    lengths: &Lengths,
) -> Result<(Json, u64), String> {
    let resp = response.as_ref().map_err(|e| format!("I/O error: {e}"))?;
    if resp.status != 200 {
        return Err(format!("status {}: {}", resp.status, resp.body_str()));
    }
    let body = Json::parse(&resp.body_str()).map_err(|e| format!("bad JSON: {e}"))?;
    if body.get("ok").and_then(Json::as_bool) != Some(true)
        || body.get("degraded").and_then(Json::as_bool) != Some(false)
    {
        return Err(format!("not ok or degraded: {}", body.to_compact()));
    }
    let want = lengths.get(shape);
    let (accesses, hits, misses) = match shape {
        Shape::Simulate { .. } => (
            num(&body, "accesses"),
            num(&body, "hits"),
            num(&body, "misses"),
        ),
        Shape::Hierarchy { .. } => {
            let l1 = body
                .get("levels")
                .and_then(Json::as_array)
                .and_then(|l| l.first());
            (
                num(&body, "accesses"),
                l1.and_then(|l| num(l, "hits")),
                l1.and_then(|l| num(l, "misses")),
            )
        }
    };
    match (accesses, hits, misses) {
        (Some(a), Some(h), Some(m)) if a == want && h + m == a => Ok((body, a)),
        _ => Err(format!(
            "accesses/hits/misses {accesses:?}/{hits:?}/{misses:?}, trace has {want}"
        )),
    }
}

/// Counts a `simulate` body carries.
const SIMULATE_KEYS: [&str; 6] = [
    "accesses",
    "hits",
    "misses",
    "evictions",
    "writes",
    "writebacks",
];
/// Counts each level of a `simulate_hierarchy` body carries.
const LEVEL_KEYS: [&str; 5] = ["accesses", "hits", "misses", "evictions", "writebacks"];
/// The hierarchy-wide counts of a `simulate_hierarchy` body.
const HIERARCHY_KEYS: [&str; 5] = [
    "accesses",
    "memory_fetches",
    "back_invalidations",
    "victim_fills",
    "memory_writebacks",
];

/// The per-access reference for a request, on the enum engine: the
/// counts of [`SIMULATE_KEYS`], or those of [`LEVEL_KEYS`] per level
/// followed by [`HIERARCHY_KEYS`].
pub fn reference(shape: &Shape, seed: u64) -> Vec<u64> {
    let suite = workloads::suite(shape.suite_capacity(), LINE, seed);
    let trace = &suite
        .iter()
        .find(|w| w.name == shape.workload())
        .expect("mix names suite traces")
        .trace;
    let ops = io::with_writes(trace, shape.writes(), seed);
    match *shape {
        Shape::Simulate {
            policy,
            capacity,
            assoc,
            ..
        } => {
            let mut cache = Cache::new(
                CacheConfig::new(capacity, assoc, LINE).expect("valid"),
                policy,
            );
            for op in &ops {
                cache.access_op(op.addr, op.write);
            }
            let s = cache.stats();
            vec![
                s.accesses,
                s.hits,
                s.misses,
                s.evictions,
                s.writes,
                s.writebacks,
            ]
        }
        Shape::Hierarchy { levels, .. } => {
            let caches = levels
                .iter()
                .map(|&(policy, cap, assoc)| {
                    Cache::new(CacheConfig::new(cap, assoc, LINE).expect("valid"), policy)
                })
                .collect();
            let mut h = Hierarchy::from_caches(caches).with_containment(Containment::Inclusive);
            for op in &ops {
                h.access_op(op.addr, op.write);
            }
            let hs = h.hierarchy_stats();
            let mut v: Vec<u64> = h
                .stats()
                .into_iter()
                .flat_map(|s| [s.accesses, s.hits, s.misses, s.evictions, s.writebacks])
                .collect();
            v.extend([
                hs.accesses,
                hs.memory_fetches,
                hs.back_invalidations,
                hs.victim_fills,
                hs.memory_writebacks,
            ]);
            v
        }
    }
}

/// The same counts read back from a response body; `None` when the body
/// lacks any of them.
pub fn served(shape: &Shape, body: &Json) -> Option<Vec<u64>> {
    let counts = |obj: &Json, keys: &[&str]| -> Option<Vec<u64>> {
        keys.iter().map(|k| num(obj, k)).collect()
    };
    match shape {
        Shape::Simulate { .. } => counts(body, &SIMULATE_KEYS),
        Shape::Hierarchy { .. } => {
            let mut v = Vec::new();
            for level in body.get("levels").and_then(Json::as_array)? {
                v.extend(counts(level, &LEVEL_KEYS)?);
            }
            v.extend(counts(body, &HIERARCHY_KEYS)?);
            Some(v)
        }
    }
}

/// Set up `repeats` times (start + warm-up); the median time and the
/// last server (the others are shut down). Not `crate::setup_repeated`:
/// a `ServerHandle` has to be shut down, not just dropped.
fn setup_repeated(seed: u64, repeats: usize) -> (f64, ServerHandle) {
    let mut times = Vec::with_capacity(repeats);
    let mut last: Option<ServerHandle> = None;
    for round in 0..repeats as u64 {
        if let Some(h) = last.take() {
            h.shutdown();
        }
        let (h, dt) = setup(seed, round);
        times.push(dt);
        last = Some(h);
    }
    (stats::median(&times), last.expect("at least one set-up"))
}

/// The untraced run.
pub fn run(opts: &Opts) -> Report {
    let mut report = Report::default();
    let (setup_s, server) = setup_repeated(opts.seed, crate::SETUP_REPEATS);
    let addr = server.addr().to_string();
    let cycles = crate::units(opts, NOMINAL_CYCLE_S) as u64;
    let (samples, wall) = closed_loop(&addr, opts.seed, 0, cycles);
    server.shutdown();
    // Before the checks below generate traces of their own.
    crate::record_peak_rss(&mut report);

    let lengths = Lengths::for_mix(opts.seed);
    let mut latencies_ms = Vec::with_capacity(samples.len());
    let mut wall_ms = Vec::with_capacity(samples.len());
    let mut accesses = 0u64;
    let mut bodies = Vec::new();
    for s in &samples {
        let (shape, _, _) = request(opts.seed, s.index);
        latencies_ms.push(s.cpu_s * 1e3);
        wall_ms.push(s.rtt.as_secs_f64() * 1e3);
        match check_response(&shape, &s.response, &lengths) {
            Ok((body, a)) => {
                accesses += a;
                report.check(true, String::new);
                bodies.push((s.index, body));
            }
            Err(e) => report.check(false, || format!("request {}: {e}", s.index)),
        }
    }
    // A seeded sample, bit for bit against the per-access reference.
    for k in 0..REFERENCE_SAMPLE.min(bodies.len()) {
        let (index, body) = &bodies[(mix64(opts.seed ^ k as u64) % bodies.len() as u64) as usize];
        let (shape, s, _) = request(opts.seed, *index);
        let got = served(&shape, body);
        let want = reference(&shape, s);
        report.check(got.as_ref() == Some(&want), || {
            format!("request {index}: served {got:?} != reference {want:?}")
        });
    }
    let busy: f64 = latencies_ms.iter().sum::<f64>() / 1e3;
    report.note(format!(
        "{} requests ({cycles} whole cycles of {} shapes) over one keep-alive connection: {busy:.2} CPU s in {wall:.2} s wall",
        samples.len(),
        mix().len()
    ));
    if let Some(l) = stats::latency(&wall_ms) {
        report.note(format!(
            "wall round trip (not in the result): p50 {:.3} ms, p{} {:.3} ms",
            l.p50, l.tail_pct, l.tail
        ));
    }
    crate::end_to_end(
        &mut report,
        setup_s,
        accesses as f64 / busy / 1e6,
        samples.len() as f64 / busy,
        &latencies_ms,
    );
    report
}

/// What the traced serve section hands to the layer summary.
pub struct Traced {
    /// Wall time of the cycle over HTTP.
    pub cycle_s: f64,
    /// Time of the traced in-process replay of that cycle.
    pub replay_s: f64,
    /// Time of the same replay without spans, when asked for.
    pub untraced_replay_s: Option<f64>,
}

/// The traced section: one cycle over HTTP with client-side spans, an
/// in-process replay of the same requests through `Request::parse`,
/// `PipelineExecutor::execute` and the JSON encoder, the per-request
/// trace generation, and a `/metrics` scrape. With `baseline`, the
/// replay runs once more without spans.
pub fn traced(opts: &Opts, tracer: &mut Tracer, report: &mut Report, baseline: bool) -> Traced {
    let (server, _) = setup(opts.seed, 0);
    let addr = server.addr().to_string();
    let (samples, cycle_s) = closed_loop(&addr, opts.seed, 0, 1);
    let metrics = Connection::open(&addr)
        .and_then(|mut c| c.get("/metrics"))
        .ok()
        .and_then(|r| Json::parse(&r.body_str()).ok())
        .unwrap_or(Json::Null);
    server.shutdown();

    let lengths = Lengths::for_mix(opts.seed);
    let mut engines: HashMap<String, u64> = HashMap::new();
    let mut service_ms = Vec::new();
    let mut overhead_ms = Vec::new();
    let mut generated = 0u64;
    let mut simulated = 0u64;
    for s in &samples {
        let (shape, seed, body) = request(opts.seed, s.index);
        let round_trip = tracer.open("serve.round_trip", None, s.index);
        tracer.record("http.request", Some(round_trip), s.index, s.rtt);
        tracer.close(round_trip);
        let served_body = match check_response(&shape, &s.response, &lengths) {
            Ok((json, _)) => {
                report.check(true, String::new);
                Some(json)
            }
            Err(e) => {
                report.check(false, || format!("request {}: {e}", s.index));
                None
            }
        };
        if let (Ok(resp), Some(json)) = (&s.response, &served_body) {
            if let Some(us) = resp
                .header("x-service-us")
                .and_then(|v| v.parse::<f64>().ok())
            {
                service_ms.push(us / 1e3);
                overhead_ms.push(s.rtt.as_secs_f64() * 1e3 - us / 1e3);
            }
            count_engines(json, &mut engines);
        }

        // In-process replay of the same request.
        let replay = tracer.open("exec.replay", None, s.index);
        let span = tracer.open("proto.parse", Some(replay), s.index);
        let parsed = Request::parse(&body);
        tracer.close(span);
        let Ok(parsed) = parsed else {
            report.check(false, || format!("request {}: does not parse", s.index));
            tracer.close(replay);
            continue;
        };
        let span = tracer.open("exec.execute", Some(replay), s.index);
        let json = PipelineExecutor.execute(&parsed);
        tracer.close(span);
        let span = tracer.open("exec.encode", Some(replay), s.index);
        let encoded = json.to_compact();
        tracer.close(span);
        tracer.close(replay);
        let same = s
            .response
            .as_ref()
            .is_ok_and(|r| r.body == encoded.as_bytes());
        report.check(same, || {
            format!(
                "request {}: replayed body differs from the served one",
                s.index
            )
        });

        // The trace layer alone, at the request's capacity and seed.
        let span = tracer.open("trace.suite", None, s.index);
        let suite = workloads::suite(shape.suite_capacity(), LINE, seed);
        tracer.close(span);
        generated += suite.iter().map(|w| w.trace.len() as u64).sum::<u64>();
        let trace = &suite
            .iter()
            .find(|w| w.name == shape.workload())
            .expect("suite trace")
            .trace;
        simulated += trace.len() as u64;
        let span = tracer.open("trace.with_writes", None, s.index);
        std::hint::black_box(io::with_writes(trace, shape.writes(), seed));
        tracer.close(span);
    }
    let untraced_replay_s = baseline.then(|| {
        let bodies: Vec<String> = samples
            .iter()
            .map(|s| request(opts.seed, s.index).2)
            .collect();
        timed(|| {
            for body in &bodies {
                if let Ok(parsed) = Request::parse(body) {
                    std::hint::black_box(PipelineExecutor.execute(&parsed).to_compact());
                }
            }
        })
        .1
    });
    let n = samples.len().max(1) as f64;
    let mean_ms = |name: &str| tracer.total(name).as_secs_f64() * 1e3 / n;
    report.metric("trace.suite_ms", mean_ms("trace.suite"), "ms");
    report.metric("trace.with_writes_ms", mean_ms("trace.with_writes"), "ms");
    report.metric(
        "trace.used_frac",
        simulated as f64 / generated as f64,
        "ratio",
    );
    report.metric("proto.parse_us", mean_ms("proto.parse") * 1e3, "us");
    report.metric("exec.execute_ms", mean_ms("exec.execute"), "ms");
    report.metric("exec.encode_us", mean_ms("exec.encode") * 1e3, "us");
    report.metric(
        "exec.trace_share",
        mean_ms("trace.suite") / mean_ms("exec.execute"),
        "ratio",
    );
    for engine in ["kernel", "table", "lazy_table", "enum"] {
        let count = engines.get(engine).copied().unwrap_or(0);
        report.metric(format!("exec.engine.{engine}"), count as f64, "count");
    }
    let median_or_zero = |v: &[f64]| if v.is_empty() { 0.0 } else { stats::median(v) };
    report.metric("serve.service_ms", median_or_zero(&service_ms), "ms");
    report.metric("serve.overhead_ms", median_or_zero(&overhead_ms), "ms");
    let scraped = |path: &[&str]| {
        path.iter()
            .try_fold(&metrics, |j, k| j.get(k))
            .and_then(Json::as_u64)
            .unwrap_or(0) as f64
    };
    report.metric(
        "serve.result_cache.hits",
        scraped(&["cache", "hits"]),
        "count",
    );
    report.metric(
        "serve.result_cache.misses",
        scraped(&["cache", "misses"]),
        "count",
    );
    report.metric("serve.rejected", scraped(&["queue", "rejected"]), "count");
    report.metric(
        "serve.shed",
        scraped(&["obs", "counter_totals", "serve.shed"]),
        "count",
    );
    report.check(metrics != Json::Null, || {
        "could not scrape /metrics".to_owned()
    });
    Traced {
        cycle_s,
        replay_s: tracer.total("exec.replay").as_secs_f64(),
        untraced_replay_s,
    }
}

/// Count the `engine` fields of a body (per level for hierarchies).
fn count_engines(body: &Json, engines: &mut HashMap<String, u64>) {
    let levels = body.get("levels").and_then(Json::as_array).unwrap_or(&[]);
    for obj in std::iter::once(body).chain(levels) {
        if let Some(e) = obj.get("engine").and_then(Json::as_str) {
            *engines.entry(e.to_owned()).or_default() += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix_bodies_parse_and_stay_below_the_capacity_cap() {
        for (i, shape) in mix().iter().enumerate() {
            for s in [shape.body(i as u64), shape.shrunk().body(i as u64)] {
                let parsed = Request::parse(&s).unwrap_or_else(|e| panic!("{s}: {e}"));
                assert!(matches!(
                    parsed,
                    Request::Simulate(_) | Request::SimulateHierarchy(_)
                ));
            }
            assert!(shape.suite_capacity() <= 1 << 20);
            assert_ne!(
                shape.workload(),
                "gc_trace",
                "gc_trace's length depends on the seed"
            );
        }
    }

    #[test]
    fn request_seeds_are_distinct() {
        let mut seen: Vec<u64> = (0..1000).map(|i| request_seed(7, i)).collect();
        seen.extend((0..1000).map(|i| warmup_seed(7, i)));
        let n = seen.len();
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), n);
    }

    #[test]
    fn a_served_simulate_matches_its_reference() {
        let shape = mix()[2];
        let seed = 5;
        let body = PipelineExecutor.execute(&Request::parse(&shape.body(seed)).unwrap());
        assert_eq!(served(&shape, &body), Some(reference(&shape, seed)));
    }

    #[test]
    fn a_served_hierarchy_matches_its_reference() {
        let shape = mix()[9];
        assert!(matches!(shape, Shape::Hierarchy { .. }));
        let seed = 5;
        let body = PipelineExecutor.execute(&Request::parse(&shape.body(seed)).unwrap());
        assert_eq!(served(&shape, &body), Some(reference(&shape, seed)));
    }

    #[test]
    fn a_body_missing_a_count_does_not_match() {
        let body =
            Json::parse(r#"{"accesses":3,"hits":1,"misses":2,"evictions":0,"writebacks":0}"#)
                .unwrap();
        assert_eq!(served(&mix()[0], &body), None);
    }
}

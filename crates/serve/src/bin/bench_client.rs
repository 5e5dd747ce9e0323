//! `bench-client`: the load generator for `cachekit-serve`.
//!
//! Runs a multi-phase measurement against a server — by default one it
//! hosts in-process on an ephemeral port, so a single command is a
//! self-contained benchmark (that is what the CI smoke stage runs):
//!
//! 1. **cold** — a seeded mix of distinct queries, all cache misses;
//! 2. **warm** — the same mix replayed closed-loop: asserts cache hits,
//!    byte-identical bodies, and the ≥100× service-time speedup of a
//!    hit over cold inference;
//! 3. **pipelined** — closed-loop HTTP/1.1 pipelining against the warm
//!    cache: prebuilt wire batches of `--pipeline-depth` requests per
//!    write, responses scanned in order; this is the throughput phase
//!    the ≥100k req/s target gates on;
//! 4. **load** — open- or closed-loop request-per-round-trip traffic
//!    for `--duration` seconds, reporting latency percentiles;
//! 5. **c10k** — `--c10k-conns` simultaneous keep-alive connections
//!    (10,000 by default, 1,000 with `--smoke`) driven from a
//!    client-side epoll: one non-pipelined round and one pipelined
//!    round, with per-connection latency percentiles. When this
//!    process's fd limit cannot hold both ends of every connection,
//!    the server side moves to a child process (`--serve-child`);
//! 6. **saturation** (self-hosted only) — a deliberately tiny server
//!    (one worker, queue depth 2) bombarded concurrently: expects
//!    `429 Retry-After` refusals, tolerates `503` sheds, and requires
//!    a drain with zero dropped jobs.
//!
//! The report lands in `results/serve_load.json`
//! (`results/serve_load_smoke.json` with `--smoke`) and includes a
//! `targets` object with `met` flags; any unmet target fails the run.
//!
//! ```text
//! bench-client [--smoke] [--addr HOST:PORT] [--duration SECS]
//!              [--conns N] [--mode open|closed] [--rate REQ_PER_SEC]
//!              [--seed N] [--c10k-conns N] [--pipeline-depth N]
//!              [--pipeline-conns N]
//! ```

use cachekit_bench::json::Json;
use cachekit_bench::{Runner, Table};
use cachekit_serve::http::client::Connection;
use cachekit_serve::server::{ServeConfig, Server};
use cachekit_serve::sys::{self, Epoll, EpollEvent, EPOLLERR, EPOLLHUP, EPOLLIN, EPOLLOUT};
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::os::fd::AsRawFd;
use std::process::{Child, ChildStdout, Command, ExitCode, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Requests per connection in the c10k pipelined round.
const C10K_PIPELINE_DEPTH: usize = 8;
/// Give a c10k round this long before declaring the server wedged.
const C10K_ROUND_DEADLINE: Duration = Duration::from_secs(120);
/// File descriptors reserved for everything that is not a benchmark
/// connection (listener, eventfds, epoll fds, stdio, the report file).
const FD_HEADROOM: u64 = 128;

/// One query in the seeded mix.
#[derive(Clone)]
struct MixEntry {
    body: String,
    /// `true` for `infer` queries — the subset the speedup gate uses.
    is_infer: bool,
}

/// What one issued request came back as.
struct Sample {
    status: u16,
    service_us: u64,
    latency_us: u64,
    cache: Option<String>,
    body: Vec<u8>,
    mix_index: usize,
}

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The seeded request mix: a few cheap shapes plus distinct `infer`
/// queries (the expensive, cache-benefiting kind).
fn build_mix(seed: u64, smoke: bool) -> Vec<MixEntry> {
    let mut entries = Vec::new();
    let mut state = seed;
    let infer_cpus: &[(&str, &str)] = if smoke {
        &[("atom_d525", "l1")]
    } else {
        &[
            ("atom_d525", "l1"),
            ("atom_d525", "l2"),
            ("core2_e6300", "l1"),
        ]
    };
    for (cpu, level) in infer_cpus {
        let salt = splitmix(&mut state) % 1000;
        entries.push(MixEntry {
            body: format!(r#"{{"type":"infer","cpu":"{cpu}","level":"{level}","seed":{salt}}}"#),
            is_infer: true,
        });
    }
    for policy in ["LRU", "FIFO", "PLRU", "NRU"] {
        entries.push(MixEntry {
            body: format!(r#"{{"type":"distances","policy":"{policy}","assoc":8}}"#),
            is_infer: false,
        });
    }
    for (policy, workload) in [
        ("LRU", "seq_stream"),
        ("PLRU", "zipf_hot"),
        ("LIP", "thrash_loop"),
    ] {
        let salt = splitmix(&mut state) % 1000;
        entries.push(MixEntry {
            body: format!(
                r#"{{"type":"simulate","policy":"{policy}","capacity":65536,"assoc":8,
                    "workload":"{workload}","seed":{salt}}}"#
            )
            .replace(char::is_whitespace, ""),
            is_infer: false,
        });
    }
    entries.push(MixEntry {
        body: r#"{"type":"workloads","capacity":65536}"#.to_owned(),
        is_infer: false,
    });
    entries
}

fn issue(conn: &mut Connection, mix: &[MixEntry], index: usize) -> std::io::Result<Sample> {
    let started = Instant::now();
    let resp = conn.post_json("/v1/query", &mix[index].body)?;
    let latency_us = started.elapsed().as_micros() as u64;
    Ok(Sample {
        status: resp.status,
        service_us: resp
            .header("x-service-us")
            .and_then(|v| v.parse().ok())
            .unwrap_or(latency_us),
        latency_us,
        cache: resp.header("x-cache").map(str::to_owned),
        body: resp.body,
        mix_index: index,
    })
}

fn percentile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

fn latency_json(samples_us: &mut [u64]) -> Json {
    samples_us.sort_unstable();
    Json::object(vec![
        ("count", Json::from(samples_us.len())),
        ("p50_us", Json::from(percentile(samples_us, 0.50))),
        ("p95_us", Json::from(percentile(samples_us, 0.95))),
        ("p99_us", Json::from(percentile(samples_us, 0.99))),
        (
            "max_us",
            Json::from(samples_us.last().copied().unwrap_or(0)),
        ),
    ])
}

/// Append one `POST /v1/query` request in wire form.
fn push_request(wire: &mut Vec<u8>, body: &str) {
    wire.extend_from_slice(
        format!(
            "POST /v1/query HTTP/1.1\r\nHost: cachekit\r\n\
             Content-Type: application/json\r\nContent-Length: {}\r\n\r\n",
            body.len()
        )
        .as_bytes(),
    );
    wire.extend_from_slice(body.as_bytes());
}

/// A lean pipelined-response scanner: finds each head terminator,
/// reads `Content-Length` (the first header the server writes), and
/// skips the body without copying or parsing anything else. The full
/// `client::Connection` parser allocates per header line, which would
/// make the client the bottleneck at 100k+ responses/second.
struct ResponseScanner {
    buf: Vec<u8>,
    pos: usize,
}

impl ResponseScanner {
    fn new() -> ResponseScanner {
        ResponseScanner {
            buf: Vec::new(),
            pos: 0,
        }
    }

    fn feed(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Pop the next complete response's status code, if one is fully
    /// buffered.
    fn try_next(&mut self) -> Result<Option<u16>, String> {
        let pending = &self.buf[self.pos..];
        let Some(head_len) = find(pending, b"\r\n\r\n").map(|i| i + 4) else {
            self.compact();
            return Ok(None);
        };
        let head = &pending[..head_len];
        if !head.starts_with(b"HTTP/1.1 ") || head.len() < 12 {
            return Err("response does not start with an HTTP/1.1 status line".to_owned());
        }
        let status: u16 = std::str::from_utf8(&head[9..12])
            .ok()
            .and_then(|s| s.parse().ok())
            .ok_or("unparsable status code")?;
        let marker = b"\r\nContent-Length: ";
        let at = find(head, marker).ok_or("response without Content-Length")? + marker.len();
        let digits = &head[at..];
        let end = digits
            .iter()
            .position(|b| !b.is_ascii_digit())
            .unwrap_or(digits.len());
        let body_len: usize = std::str::from_utf8(&digits[..end])
            .ok()
            .and_then(|s| s.parse().ok())
            .ok_or("unparsable Content-Length")?;
        if pending.len() < head_len + body_len {
            return Ok(None);
        }
        self.pos += head_len + body_len;
        if self.pos == self.buf.len() {
            self.buf.clear();
            self.pos = 0;
        }
        Ok(Some(status))
    }

    fn compact(&mut self) {
        if self.pos > 0 {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
    }
}

fn find(haystack: &[u8], needle: &[u8]) -> Option<usize> {
    haystack
        .windows(needle.len())
        .position(|window| window == needle)
}

struct Flags {
    smoke: bool,
    addr: Option<String>,
    duration: Duration,
    conns: usize,
    open_loop: bool,
    rate: f64,
    seed: u64,
    /// c10k connection count; 0 picks the default for the mode
    /// (10,000 full, 1,000 smoke).
    c10k_conns: usize,
    /// Requests per write in the pipelined throughput phase.
    pipeline_depth: usize,
    /// Concurrent connections in the pipelined throughput phase.
    pipeline_conns: usize,
}

fn parse_flags(args: &[String]) -> Result<Flags, String> {
    let mut flags = Flags {
        smoke: false,
        addr: None,
        duration: Duration::from_secs(10),
        conns: 4,
        open_loop: false,
        rate: 200.0,
        seed: 42,
        c10k_conns: 0,
        pipeline_depth: 64,
        pipeline_conns: 2,
    };
    let mut duration_set = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match arg.as_str() {
            "--smoke" => flags.smoke = true,
            "--addr" => flags.addr = Some(value("--addr")?),
            "--duration" => {
                flags.duration = Duration::from_secs_f64(
                    value("--duration")?
                        .parse()
                        .map_err(|_| "--duration: bad number")?,
                );
                duration_set = true;
            }
            "--conns" => {
                flags.conns = value("--conns")?
                    .parse()
                    .map_err(|_| "--conns: bad number")?
            }
            "--mode" => {
                flags.open_loop = match value("--mode")?.as_str() {
                    "open" => true,
                    "closed" => false,
                    other => return Err(format!("--mode: {other:?} is not open|closed")),
                }
            }
            "--rate" => flags.rate = value("--rate")?.parse().map_err(|_| "--rate: bad number")?,
            "--seed" => flags.seed = value("--seed")?.parse().map_err(|_| "--seed: bad number")?,
            "--c10k-conns" => {
                flags.c10k_conns = value("--c10k-conns")?
                    .parse()
                    .map_err(|_| "--c10k-conns: bad number")?
            }
            "--pipeline-depth" => {
                flags.pipeline_depth = value("--pipeline-depth")?
                    .parse()
                    .map_err(|_| "--pipeline-depth: bad number")?
            }
            "--pipeline-conns" => {
                flags.pipeline_conns = value("--pipeline-conns")?
                    .parse()
                    .map_err(|_| "--pipeline-conns: bad number")?
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    if flags.smoke && !duration_set {
        flags.duration = Duration::from_secs(2);
    }
    if flags.conns == 0 {
        return Err("--conns must be at least 1".to_owned());
    }
    if flags.pipeline_depth == 0 || flags.pipeline_conns == 0 {
        return Err("--pipeline-depth and --pipeline-conns must be at least 1".to_owned());
    }
    Ok(flags)
}

/// Issue every mix entry once per connection, split round-robin.
fn run_phase_once(addr: &str, mix: &[MixEntry], conns: usize) -> Result<Vec<Sample>, String> {
    let results: Mutex<Vec<Sample>> = Mutex::new(Vec::new());
    std::thread::scope(|scope| -> Result<(), String> {
        let mut handles = Vec::new();
        for conn_index in 0..conns {
            let results = &results;
            handles.push(scope.spawn(move || -> Result<(), String> {
                let mut conn = Connection::open(addr).map_err(|e| e.to_string())?;
                let mut mine = Vec::new();
                for index in (conn_index..mix.len()).step_by(conns) {
                    mine.push(issue(&mut conn, mix, index).map_err(|e| e.to_string())?);
                }
                results.lock().unwrap().extend(mine);
                Ok(())
            }));
        }
        for handle in handles {
            handle.join().map_err(|_| "phase thread panicked")??;
        }
        Ok(())
    })?;
    Ok(results.into_inner().unwrap())
}

struct PipelinedOutcome {
    json: Json,
    rps: f64,
    batch_latencies: Vec<u64>,
}

/// The throughput phase: each connection repeatedly writes one
/// prebuilt wire batch of `--pipeline-depth` requests (cycling the
/// warmed mix, so every one is a cache hit served on the reactor) and
/// scans the pipelined responses back off the socket in order.
fn run_pipelined_phase(
    addr: &str,
    mix: &[MixEntry],
    flags: &Flags,
) -> Result<PipelinedOutcome, String> {
    let depth = flags.pipeline_depth;
    let total = AtomicU64::new(0);
    let batch_latencies: Mutex<Vec<u64>> = Mutex::new(Vec::new());
    let started = Instant::now();
    std::thread::scope(|scope| -> Result<(), String> {
        let mut handles = Vec::new();
        for _ in 0..flags.pipeline_conns {
            let total = &total;
            let batch_latencies = &batch_latencies;
            handles.push(scope.spawn(move || -> Result<(), String> {
                let mut stream = TcpStream::connect(addr).map_err(|e| e.to_string())?;
                stream.set_nodelay(true).ok();
                stream.set_read_timeout(Some(Duration::from_secs(30))).ok();
                let mut wire = Vec::new();
                for k in 0..depth {
                    push_request(&mut wire, &mix[k % mix.len()].body);
                }
                let mut scanner = ResponseScanner::new();
                let mut read_buf = vec![0u8; 64 * 1024];
                let mut mine = Vec::new();
                while started.elapsed() < flags.duration {
                    let batch_start = Instant::now();
                    stream.write_all(&wire).map_err(|e| e.to_string())?;
                    let mut got = 0usize;
                    while got < depth {
                        loop {
                            match scanner.try_next()? {
                                Some(200) => got += 1,
                                Some(status) => {
                                    return Err(format!(
                                        "pipelined response status {status} (expected 200 \
                                         against a warm cache)"
                                    ))
                                }
                                None => break,
                            }
                        }
                        if got == depth {
                            break;
                        }
                        let n = stream.read(&mut read_buf).map_err(|e| e.to_string())?;
                        if n == 0 {
                            return Err("server closed a pipelined connection".to_owned());
                        }
                        scanner.feed(&read_buf[..n]);
                    }
                    mine.push(batch_start.elapsed().as_micros() as u64);
                    total.fetch_add(depth as u64, Ordering::Relaxed);
                }
                batch_latencies.lock().unwrap().extend(mine);
                Ok(())
            }));
        }
        for handle in handles {
            handle.join().map_err(|_| "pipelined thread panicked")??;
        }
        Ok(())
    })?;
    let elapsed = started.elapsed().as_secs_f64();
    let responses = total.load(Ordering::Relaxed);
    let rps = responses as f64 / elapsed.max(1e-9);
    let mut batches = batch_latencies.into_inner().unwrap();
    let json = Json::object(vec![
        ("connections", Json::from(flags.pipeline_conns)),
        ("depth", Json::from(depth)),
        ("responses", Json::from(responses)),
        ("duration_s", Json::Num(elapsed)),
        ("throughput_rps", Json::Num(rps)),
        ("batch_latency", latency_json(&mut batches)),
    ]);
    Ok(PipelinedOutcome {
        json,
        rps,
        batch_latencies: batches,
    })
}

/// How the c10k phase reaches its server: an external `--addr`, a
/// dedicated in-process server, or a child process when this
/// process's fd limit cannot hold both ends of every connection.
enum C10kServer {
    External,
    InProcess(cachekit_serve::server::ServerHandle),
    /// Keep the stdout reader alive so the child never hits a closed
    /// pipe if it prints during teardown.
    Child(Child, BufReader<ChildStdout>),
}

struct C10kOutcome {
    json: Json,
    conns: usize,
    single_latencies: Vec<u64>,
    pipelined_latencies: Vec<u64>,
}

fn run_c10k_phase(flags: &Flags) -> Result<C10kOutcome, String> {
    let conns = if flags.c10k_conns > 0 {
        flags.c10k_conns
    } else if flags.smoke {
        1_000
    } else {
        10_000
    };
    // Both sides of every connection live in this process when the
    // server is in-process: two fds per connection plus headroom.
    let fd_budget = sys::raise_nofile_limit(2 * conns as u64 + FD_HEADROOM);
    let (server, addr) = if let Some(addr) = &flags.addr {
        (C10kServer::External, addr.clone())
    } else if fd_budget >= 2 * conns as u64 + FD_HEADROOM {
        let handle =
            Server::start(ServeConfig::default()).map_err(|e| format!("c10k server: {e}"))?;
        let addr = handle.addr().to_string();
        (C10kServer::InProcess(handle), addr)
    } else {
        let (child, reader, addr) = spawn_child_server()?;
        println!(
            "c10k: fd limit {fd_budget} cannot hold {conns} connection pairs; \
             serving from a child process at {addr}"
        );
        (C10kServer::Child(child, reader), addr)
    };

    // One cacheable body shared by every connection. Prewarming it
    // means both rounds run entirely on the reactor's cache-hit path;
    // without it the opening burst would still be safe (single-flight
    // coalesces the stampede into one execution) but the first round's
    // latencies would measure the coalesce wait, not the serving path.
    let body = r#"{"type":"distances","policy":"LRU","assoc":8}"#;
    let mut control = Connection::open(&addr).map_err(|e| format!("c10k prewarm: {e}"))?;
    let warm = control
        .post_json("/v1/query", body)
        .map_err(|e| format!("c10k prewarm: {e}"))?;
    if warm.status != 200 {
        return Err(format!("c10k prewarm got status {}", warm.status));
    }

    let connect_start = Instant::now();
    let mut streams = Vec::with_capacity(conns);
    for index in 0..conns {
        streams.push(c10k_connect(&addr, index)?);
    }
    let connect_s = connect_start.elapsed().as_secs_f64();
    println!("c10k: {conns} connections established in {connect_s:.2}s");

    let mut single_wire = Vec::new();
    push_request(&mut single_wire, body);
    let mut pipelined_wire = Vec::new();
    for _ in 0..C10K_PIPELINE_DEPTH {
        push_request(&mut pipelined_wire, body);
    }

    let mut single = c10k_round(&streams, &single_wire, 1)?;
    println!(
        "c10k: non-pipelined round: {} responses in {:.2}s = {:.0} req/s",
        single.responses, single.wall_s, single.rps
    );
    let mut pipelined = c10k_round(&streams, &pipelined_wire, C10K_PIPELINE_DEPTH)?;
    println!(
        "c10k: pipelined round (depth {C10K_PIPELINE_DEPTH}): \
         {} responses in {:.2}s = {:.0} req/s",
        pipelined.responses, pipelined.wall_s, pipelined.rps
    );

    drop(streams);
    let shutdown = match server {
        C10kServer::External => Json::Null,
        C10kServer::InProcess(handle) => {
            let report = handle.shutdown();
            if report.panicked > 0 || report.submitted != report.completed {
                return Err(format!(
                    "c10k server drain violated its invariant: \
                     submitted {}, completed {}, panicked {}",
                    report.submitted, report.completed, report.panicked
                ));
            }
            Json::object(vec![
                ("submitted", Json::from(report.submitted)),
                ("completed", Json::from(report.completed)),
            ])
        }
        C10kServer::Child(mut child, reader) => {
            let resp = control
                .request("POST", "/shutdown", &[], b"")
                .map_err(|e| format!("c10k shutdown: {e}"))?;
            if resp.status != 200 {
                return Err(format!("c10k shutdown got status {}", resp.status));
            }
            let status = child.wait().map_err(|e| format!("c10k child: {e}"))?;
            drop(reader);
            if !status.success() {
                return Err(format!(
                    "c10k child server exited with {status} — its drain \
                     invariant check failed"
                ));
            }
            Json::object(vec![("child_exited_clean", Json::from(true))])
        }
    };

    let json = Json::object(vec![
        ("connections", Json::from(conns)),
        ("connect_s", Json::Num(connect_s)),
        (
            "non_pipelined",
            Json::object(vec![
                ("responses", Json::from(single.responses)),
                ("wall_s", Json::Num(single.wall_s)),
                ("throughput_rps", Json::Num(single.rps)),
                ("latency", latency_json(&mut single.latencies)),
            ]),
        ),
        (
            "pipelined",
            Json::object(vec![
                ("depth", Json::from(C10K_PIPELINE_DEPTH)),
                ("responses", Json::from(pipelined.responses)),
                ("wall_s", Json::Num(pipelined.wall_s)),
                ("throughput_rps", Json::Num(pipelined.rps)),
                ("latency", latency_json(&mut pipelined.latencies)),
            ]),
        ),
        ("server_shutdown", shutdown),
    ]);
    Ok(C10kOutcome {
        json,
        conns,
        single_latencies: single.latencies,
        pipelined_latencies: pipelined.latencies,
    })
}

/// Connect one benchmark socket, retrying through transient
/// accept-queue pressure while the reactor drains its backlog.
fn c10k_connect(addr: &str, index: usize) -> Result<TcpStream, String> {
    let mut delay = Duration::from_millis(1);
    let mut last_err = String::new();
    for _ in 0..8 {
        match TcpStream::connect(addr) {
            Ok(stream) => {
                stream.set_nodelay(true).ok();
                stream
                    .set_nonblocking(true)
                    .map_err(|e| format!("conn {index}: set_nonblocking: {e}"))?;
                return Ok(stream);
            }
            Err(e) => {
                last_err = e.to_string();
                std::thread::sleep(delay);
                delay = (delay * 2).min(Duration::from_millis(200));
            }
        }
    }
    Err(format!("conn {index}: connect: {last_err}"))
}

struct C10kRound {
    responses: usize,
    wall_s: f64,
    rps: f64,
    latencies: Vec<u64>,
}

struct RoundConn {
    scanner: ResponseScanner,
    received: usize,
    written: usize,
    sent_at: Instant,
    done: bool,
}

/// Drive one request round over every connection at once: write each
/// connection's wire (nonblocking), then collect `expected` responses
/// per connection off a client-side epoll, recording per-connection
/// time from write to last response byte.
fn c10k_round(streams: &[TcpStream], wire: &[u8], expected: usize) -> Result<C10kRound, String> {
    let epoll = Epoll::new().map_err(|e| format!("client epoll: {e}"))?;
    let started = Instant::now();
    let mut states: Vec<RoundConn> = Vec::with_capacity(streams.len());
    for (index, stream) in streams.iter().enumerate() {
        let mut io = stream;
        let mut written = 0usize;
        loop {
            match io.write(&wire[written..]) {
                Ok(n) => {
                    written += n;
                    if written == wire.len() {
                        break;
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(format!("conn {index}: write: {e}")),
            }
        }
        let interest = EPOLLIN | if written < wire.len() { EPOLLOUT } else { 0 };
        epoll
            .add(stream.as_raw_fd(), interest, index as u64)
            .map_err(|e| format!("conn {index}: epoll add: {e}"))?;
        states.push(RoundConn {
            scanner: ResponseScanner::new(),
            received: 0,
            written,
            sent_at: Instant::now(),
            done: false,
        });
    }

    let mut latencies: Vec<u64> = Vec::with_capacity(streams.len());
    let mut remaining = streams.len();
    let mut events = [EpollEvent { events: 0, data: 0 }; 1024];
    let mut read_buf = vec![0u8; 64 * 1024];
    let deadline = started + C10K_ROUND_DEADLINE;
    while remaining > 0 {
        if Instant::now() > deadline {
            return Err(format!(
                "c10k round timed out with {remaining} connections pending"
            ));
        }
        let ready = epoll
            .wait(&mut events, 1_000)
            .map_err(|e| format!("epoll wait: {e}"))?;
        for event in &events[..ready] {
            let (bits, index) = (event.events, event.data as usize);
            let state = &mut states[index];
            if state.done {
                continue;
            }
            let stream = &streams[index];
            let mut io = stream;
            if bits & (EPOLLERR | EPOLLHUP) != 0 {
                return Err(format!("conn {index}: socket error during round"));
            }
            if bits & EPOLLOUT != 0 && state.written < wire.len() {
                loop {
                    match io.write(&wire[state.written..]) {
                        Ok(n) => {
                            state.written += n;
                            if state.written == wire.len() {
                                epoll
                                    .modify(stream.as_raw_fd(), EPOLLIN, index as u64)
                                    .map_err(|e| format!("epoll modify: {e}"))?;
                                break;
                            }
                        }
                        Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                        Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                        Err(e) => return Err(format!("conn {index}: write: {e}")),
                    }
                }
            }
            if bits & EPOLLIN != 0 {
                loop {
                    match io.read(&mut read_buf) {
                        Ok(0) => return Err(format!("conn {index}: server closed mid-round")),
                        Ok(n) => {
                            state.scanner.feed(&read_buf[..n]);
                            loop {
                                match state
                                    .scanner
                                    .try_next()
                                    .map_err(|e| format!("conn {index}: {e}"))?
                                {
                                    Some(200) => state.received += 1,
                                    Some(status) => {
                                        return Err(format!(
                                            "conn {index}: status {status} (expected 200)"
                                        ))
                                    }
                                    None => break,
                                }
                            }
                            if state.received >= expected {
                                state.done = true;
                                latencies.push(state.sent_at.elapsed().as_micros() as u64);
                                epoll
                                    .delete(stream.as_raw_fd())
                                    .map_err(|e| format!("epoll delete: {e}"))?;
                                remaining -= 1;
                                break;
                            }
                        }
                        Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                        Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                        Err(e) => return Err(format!("conn {index}: read: {e}")),
                    }
                }
            }
        }
    }
    let wall_s = started.elapsed().as_secs_f64();
    let responses = streams.len() * expected;
    Ok(C10kRound {
        responses,
        wall_s,
        rps: responses as f64 / wall_s.max(1e-9),
        latencies,
    })
}

/// Spawn this binary as `--serve-child` and read the address it
/// prints. The reader stays alive (returned) until the child exits.
fn spawn_child_server() -> Result<(Child, BufReader<ChildStdout>, String), String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut child = Command::new(exe)
        .arg("--serve-child")
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| format!("spawn child server: {e}"))?;
    let stdout = child.stdout.take().expect("piped stdout");
    let mut reader = BufReader::new(stdout);
    let mut line = String::new();
    reader
        .read_line(&mut line)
        .map_err(|e| format!("read child addr: {e}"))?;
    let addr = line
        .strip_prefix("SERVE_CHILD_ADDR ")
        .map(str::trim)
        .filter(|a| !a.is_empty())
        .ok_or_else(|| format!("child server printed {line:?}, not an addr line"))?
        .to_owned();
    Ok((child, reader, addr))
}

/// Hidden child mode (`--serve-child`): host a default server, print
/// its address, and stay up until a client POSTs `/shutdown`. The
/// c10k phase spawns this when one process cannot hold both ends of
/// every connection within the fd limit.
fn serve_child() -> ExitCode {
    sys::raise_nofile_limit(1 << 20); // clamps to the hard limit
    let handle = match Server::start(ServeConfig::default()) {
        Ok(handle) => handle,
        Err(e) => {
            eprintln!("bench-client --serve-child: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!("SERVE_CHILD_ADDR {}", handle.addr());
    std::io::stdout().flush().ok(); // pipes are block-buffered
    handle.wait_until_shutdown_requested();
    let report = handle.shutdown();
    if report.panicked > 0 || report.submitted != report.completed {
        eprintln!(
            "bench-client --serve-child: drain invariant violated: \
             submitted {}, completed {}, panicked {}",
            report.submitted, report.completed, report.panicked
        );
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

/// Sustained traffic for `duration`: closed-loop (back-to-back) or
/// open-loop (paced at `rate` requests/second split across
/// connections).
fn run_load_phase(
    addr: &str,
    mix: &[MixEntry],
    flags: &Flags,
) -> Result<(Vec<Sample>, f64, u64), String> {
    let results: Mutex<Vec<Sample>> = Mutex::new(Vec::new());
    let lagged = AtomicU64::new(0);
    let started = Instant::now();
    std::thread::scope(|scope| -> Result<(), String> {
        let mut handles = Vec::new();
        for conn_index in 0..flags.conns {
            let results = &results;
            let lagged = &lagged;
            handles.push(scope.spawn(move || -> Result<(), String> {
                let mut conn = Connection::open(addr).map_err(|e| e.to_string())?;
                let mut state = flags.seed ^ (conn_index as u64).wrapping_mul(0xdead_beef);
                let per_conn_rate = flags.rate / flags.conns as f64;
                let pace = Duration::from_secs_f64(1.0 / per_conn_rate.max(0.001));
                let mut next_fire = Instant::now();
                let mut mine = Vec::new();
                while started.elapsed() < flags.duration {
                    if flags.open_loop {
                        let now = Instant::now();
                        if now < next_fire {
                            std::thread::sleep(next_fire - now);
                        } else if now > next_fire + pace {
                            // A blocked connection can't keep an open
                            // loop's schedule; count the slip instead
                            // of silently becoming closed-loop.
                            lagged.fetch_add(1, Ordering::Relaxed);
                        }
                        next_fire += pace;
                    }
                    let index = (splitmix(&mut state) as usize) % mix.len();
                    mine.push(issue(&mut conn, mix, index).map_err(|e| e.to_string())?);
                }
                results.lock().unwrap().extend(mine);
                Ok(())
            }));
        }
        for handle in handles {
            handle.join().map_err(|_| "load thread panicked")??;
        }
        Ok(())
    })?;
    let elapsed = started.elapsed().as_secs_f64();
    Ok((
        results.into_inner().unwrap(),
        elapsed,
        lagged.load(Ordering::Relaxed),
    ))
}

/// The saturation phase: a tiny dedicated server, hammered with more
/// concurrency than it admits.
fn run_saturation_phase(seed: u64) -> Result<Json, String> {
    let handle = Server::start(ServeConfig {
        queue_shards: 1,
        workers_per_shard: 1,
        queue_depth: 2,
        cache_capacity: 0, // every request must reach admission
        deadline: Some(Duration::from_secs(30)),
        ..ServeConfig::default()
    })
    .map_err(|e| format!("saturation server: {e}"))?;
    let addr = handle.addr().to_string();

    let statuses: Mutex<Vec<(u16, Option<u64>)>> = Mutex::new(Vec::new());
    std::thread::scope(|scope| -> Result<(), String> {
        let mut handles = Vec::new();
        for lane in 0..8u64 {
            let addr = &addr;
            let statuses = &statuses;
            handles.push(scope.spawn(move || -> Result<(), String> {
                let mut conn = Connection::open(addr).map_err(|e| e.to_string())?;
                // Distinct seeds defeat caching and make every request
                // a real ~90 ms inference job.
                let body = format!(
                    r#"{{"type":"infer","cpu":"atom_d525","level":"l2","seed":{}}}"#,
                    seed.wrapping_add(lane)
                );
                let resp = conn
                    .post_json("/v1/query", &body)
                    .map_err(|e| e.to_string())?;
                let retry_after = resp.header("retry-after").and_then(|v| v.parse().ok());
                statuses.lock().unwrap().push((resp.status, retry_after));
                Ok(())
            }));
        }
        for handle in handles {
            handle.join().map_err(|_| "saturation thread panicked")??;
        }
        Ok(())
    })?;

    let report = handle.shutdown();
    let statuses = statuses.into_inner().unwrap();
    let ok = statuses.iter().filter(|(s, _)| *s == 200).count();
    let throttled = statuses.iter().filter(|(s, _)| *s == 429).count();
    let shed = statuses.iter().filter(|(s, _)| *s == 503).count();
    let unexpected = statuses.len() - ok - throttled - shed;

    if throttled == 0 {
        return Err("saturation produced no 429s".to_owned());
    }
    if statuses
        .iter()
        .any(|(s, retry)| *s == 429 && retry.is_none())
    {
        return Err("a 429 arrived without Retry-After".to_owned());
    }
    if unexpected > 0 {
        return Err(format!("unexpected statuses: {statuses:?}"));
    }
    if report.panicked > 0 {
        return Err(format!("{} worker jobs panicked", report.panicked));
    }
    if report.submitted != report.completed {
        return Err(format!(
            "drain dropped jobs: submitted {}, completed {}",
            report.submitted, report.completed
        ));
    }
    Ok(Json::object(vec![
        ("requests", Json::from(statuses.len())),
        ("ok", Json::from(ok)),
        ("throttled_429", Json::from(throttled)),
        ("shed_503", Json::from(shed)),
        ("drain_submitted", Json::from(report.submitted)),
        ("drain_completed", Json::from(report.completed)),
    ]))
}

fn run(flags: &Flags) -> Result<(), String> {
    // Started before any phase so the run report's wall time covers
    // the whole run.
    let mut runner = Runner::new(if flags.smoke {
        "serve_load_smoke"
    } else {
        "serve_load"
    })
    .with_seed(flags.seed)
    .with_jobs(flags.conns);
    let self_hosted = flags.addr.is_none();
    let handle = if self_hosted {
        Some(Server::start(ServeConfig::default()).map_err(|e| format!("server: {e}"))?)
    } else {
        None
    };
    let addr = match &flags.addr {
        Some(addr) => addr.clone(),
        None => handle
            .as_ref()
            .expect("self-hosted handle")
            .addr()
            .to_string(),
    };
    let mix = build_mix(flags.seed, flags.smoke);
    println!(
        "bench-client: {} queries/mix against {addr} ({})",
        mix.len(),
        if self_hosted {
            "self-hosted"
        } else {
            "external"
        },
    );

    // Phase 1: cold.
    let cold = run_phase_once(&addr, &mix, flags.conns)?;
    for sample in &cold {
        if sample.status != 200 {
            return Err(format!(
                "cold query {:?} got status {}",
                mix[sample.mix_index].body, sample.status
            ));
        }
    }
    let cold_bodies: HashMap<usize, Vec<u8>> =
        cold.iter().map(|s| (s.mix_index, s.body.clone())).collect();
    let cold_infer_service: Vec<u64> = cold
        .iter()
        .filter(|s| mix[s.mix_index].is_infer && s.cache.as_deref() == Some("miss"))
        .map(|s| s.service_us)
        .collect();

    // Phase 2: warm replay.
    let warm = run_phase_once(&addr, &mix, flags.conns)?;
    let mut warm_hits = 0usize;
    let mut warm_infer_service = Vec::new();
    for sample in &warm {
        if sample.status != 200 {
            return Err(format!("warm query got status {}", sample.status));
        }
        if sample.cache.as_deref() == Some("hit") {
            warm_hits += 1;
            if sample.body != cold_bodies[&sample.mix_index] {
                return Err(format!(
                    "cache hit body differs from cold body for {:?}",
                    mix[sample.mix_index].body
                ));
            }
            if mix[sample.mix_index].is_infer {
                warm_infer_service.push(sample.service_us);
            }
        }
    }
    if self_hosted && warm_hits < mix.len() {
        return Err(format!("warm phase hit {warm_hits}/{} queries", mix.len()));
    }

    // The acceptance gate: a cache hit beats cold inference ≥100× on
    // server-side service time (medians; headers, so cached bodies
    // stay bit-identical).
    let speedup = if !cold_infer_service.is_empty() && !warm_infer_service.is_empty() {
        let mut cold_sorted = cold_infer_service.clone();
        let mut warm_sorted = warm_infer_service.clone();
        cold_sorted.sort_unstable();
        warm_sorted.sort_unstable();
        let cold_p50 = percentile(&cold_sorted, 0.5).max(1);
        let warm_p50 = percentile(&warm_sorted, 0.5).max(1);
        let ratio = cold_p50 as f64 / warm_p50 as f64;
        println!(
            "speedup: cold infer p50 {cold_p50} µs / warm hit p50 {warm_p50} µs = {ratio:.0}x"
        );
        if self_hosted && ratio < 100.0 {
            return Err(format!("cache speedup {ratio:.1}x is below the 100x gate"));
        }
        Some(ratio)
    } else {
        None
    };

    // Phase 3: pipelined closed-loop throughput against the warm cache.
    let pipelined = run_pipelined_phase(&addr, &mix, flags)?;
    println!(
        "pipelined: {} responses = {:.0} req/s (depth {}, {} conns)",
        pipelined
            .json
            .get("responses")
            .map(|j| j.to_compact())
            .unwrap_or_default(),
        pipelined.rps,
        flags.pipeline_depth,
        flags.pipeline_conns
    );

    // Phase 4: sustained request-per-round-trip load.
    let (load, elapsed, lagged) = run_load_phase(&addr, &mix, flags)?;
    let throughput = load.len() as f64 / elapsed.max(1e-9);
    let bad = load
        .iter()
        .filter(|s| !matches!(s.status, 200 | 429 | 503))
        .count();
    if bad > 0 {
        return Err(format!("{bad} load responses outside 200/429/503"));
    }
    let load_ok = load.iter().filter(|s| s.status == 200).count();
    let load_429 = load.iter().filter(|s| s.status == 429).count();
    println!(
        "load: {} requests in {elapsed:.2}s = {throughput:.0} req/s \
         ({load_ok} ok, {load_429} throttled)",
        load.len()
    );

    // Phase 5: c10k (its own server so teardown stays isolated).
    let c10k = run_c10k_phase(flags)?;

    // Phase 6: saturation (needs its own tiny server).
    let saturation = if self_hosted {
        let result = run_saturation_phase(flags.seed)?;
        println!("saturation: {}", result.to_compact());
        Some(result)
    } else {
        None
    };

    // Drain the main server.
    let drain = match handle {
        Some(handle) => {
            let report = handle.shutdown();
            if report.panicked > 0 {
                return Err(format!("{} worker jobs panicked", report.panicked));
            }
            if report.submitted != report.completed {
                return Err(format!(
                    "main server drain dropped jobs: {} submitted, {} completed",
                    report.submitted, report.completed
                ));
            }
            Some(report)
        }
        None => None,
    };

    // Targets: the throughput and concurrency bars this run is graded
    // against (scaled down under --smoke so CI stays fast).
    let rps_target: f64 = if flags.smoke { 10_000.0 } else { 100_000.0 };
    let conns_target: usize = if flags.smoke { 1_000 } else { 10_000 };
    let rps_met = pipelined.rps >= rps_target;
    let conns_met = c10k.conns >= conns_target;
    let targets = Json::object(vec![
        (
            "pipelined_closed_loop_rps",
            Json::object(vec![
                ("target", Json::Num(rps_target)),
                ("measured", Json::Num(pipelined.rps)),
                ("met", Json::from(rps_met)),
            ]),
        ),
        (
            "concurrent_connections",
            Json::object(vec![
                ("target", Json::from(conns_target)),
                ("measured", Json::from(c10k.conns)),
                ("met", Json::from(conns_met)),
            ]),
        ),
    ]);

    // Report.
    runner.count("cold_requests", cold.len() as u64);
    runner.count("warm_requests", warm.len() as u64);
    runner.count("warm_hits", warm_hits as u64);
    runner.count("load_requests", load.len() as u64);
    runner.count("load_throttled", load_429 as u64);
    runner.count("c10k_connections", c10k.conns as u64);

    let mut table = Table::new(
        "serve load phases",
        &["phase", "requests", "p50 µs", "p95 µs", "p99 µs"],
    );
    let mut phase_rows = vec![
        (
            "cold",
            cold.iter().map(|s| s.latency_us).collect::<Vec<_>>(),
        ),
        ("warm", warm.iter().map(|s| s.latency_us).collect()),
        ("pipelined (per batch)", pipelined.batch_latencies.clone()),
        ("load", load.iter().map(|s| s.latency_us).collect()),
        ("c10k non-pipelined", c10k.single_latencies.clone()),
        ("c10k pipelined", c10k.pipelined_latencies.clone()),
    ];
    let mut extra_phases = Vec::new();
    for (name, samples) in &mut phase_rows {
        samples.sort_unstable();
        table.row(vec![
            (*name).to_owned(),
            samples.len().to_string(),
            percentile(samples, 0.50).to_string(),
            percentile(samples, 0.95).to_string(),
            percentile(samples, 0.99).to_string(),
        ]);
        extra_phases.push(((*name).to_owned(), latency_json(samples)));
    }

    let extra = Json::object(vec![
        (
            "mode",
            Json::from(if flags.open_loop { "open" } else { "closed" }),
        ),
        ("self_hosted", Json::from(self_hosted)),
        ("duration_s", Json::Num(elapsed)),
        ("throughput_rps", Json::Num(throughput)),
        ("open_loop_lagged", Json::from(lagged)),
        ("phases", Json::Obj(extra_phases.into_iter().collect())),
        (
            "cache_speedup",
            Json::from(speedup.map(|s| s.round() as u64)),
        ),
        ("pipelined", pipelined.json),
        ("c10k", c10k.json),
        ("targets", targets),
        ("saturation", saturation.unwrap_or(Json::Null)),
        (
            "drain",
            match drain {
                Some(r) => Json::object(vec![
                    ("submitted", Json::from(r.submitted)),
                    ("completed", Json::from(r.completed)),
                    ("panicked", Json::from(r.panicked)),
                    ("rejected", Json::from(r.rejected)),
                ]),
                None => Json::Null,
            },
        ),
    ]);
    let path = runner.finish(&table, extra);
    println!("report: {}", path.display());

    // The report is written either way; unmet targets still fail the
    // run so CI can gate on the exit code.
    if !rps_met || !conns_met {
        return Err(format!(
            "targets unmet: pipelined {:.0} req/s (target {rps_target:.0}, met={rps_met}); \
             {} connections (target {conns_target}, met={conns_met})",
            pipelined.rps, c10k.conns
        ));
    }
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--serve-child") {
        return serve_child();
    }
    let flags = match parse_flags(&args) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("bench-client: {e}");
            return ExitCode::FAILURE;
        }
    };
    match run(&flags) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("bench-client: FAILED: {e}");
            ExitCode::FAILURE
        }
    }
}

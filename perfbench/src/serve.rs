//! `serve-hot` and `serve-churn`: an in-process evaluation `Server`
//! driven over real sockets.
//!
//! * `serve-hot` — 16 keys (IRCNN/Kodak24/96², 4 architectures × 4
//!   schemes), all computed during set-up, so every timed request is a
//!   memory-tier hit; one closed-loop keep-alive client.
//! * `serve-churn` — two resident traces (IRCNN, FFDNet at 96²) × {VAA,
//!   PRA, Diffy} × 4 schemes × 6 memory nodes, behind a memory tier of
//!   16 results over a disk artifact tier that set-up fills with a
//!   seeded 90% of the keys; the rest compute once, in the timed window,
//!   and write through. One closed-loop client draws keys uniformly;
//!   the traced run drives it open loop at a fixed rate (300/s) and times
//!   each request from when it was due.
//!
//! The traced run replays requests through the same layer functions the
//! server calls — HTTP parse, JSON parse, protocol decode, tier lookup,
//! result serialization, JSON emit, response write — under spans.

use crate::cold::price;
use crate::spans::Recorder;
use crate::stats::{self, ms, OpenLoopLedger, Outcome, Rng, Schedule, Tally};
use crate::{
    input_sample, setup_then_measure, tail, timed, Report, RunConfig, Size, MODEL_SEED, SETUP_REPS,
    SPAN_FILE_GROUPS,
};
use diffy_core::accelerator::network_scheme_traffic;
use diffy_core::json::parse as parse_json;
use diffy_core::runner::{datasets_for, SweepCache};
use diffy_core::{evaluate_network, DatasetId, DiskTier, Jobs, JsonValue};
use diffy_models::CiModel;
use diffy_serve::http::{read_request, write_json_response_conn, ParseResult};
use diffy_serve::protocol::{result_to_json, EvalRequest};
use diffy_serve::{KeepAliveClient, ServeConfig, Server, ServerHandle};
use diffy_sim::term_serial::PaddedTerms;
use std::collections::{BTreeMap, BTreeSet};
use std::hint::black_box;
use std::io::Cursor;
use std::net::SocketAddr;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Client socket timeout; a request unanswered this long fails.
const CLIENT_TIMEOUT: Duration = Duration::from_secs(10);
/// Closed-loop clients of the end-to-end runs. One client keeps at most
/// two threads runnable (the client and the worker answering it) on a
/// host of a few shared cores: with more, the latency measures how the
/// scheduler interleaves clients and workers, not the server.
pub const CLIENTS: usize = 1;
/// Server workers behind the closed loop. One client keeps one request
/// in flight, so one worker serves them all. A second one would only
/// take the connection a worker re-queues after each response in turn,
/// a hand-off between threads with no request to run in parallel.
pub const CLOSED_LOOP_WORKERS: usize = 1;
/// Unmeasured closed-loop warm-up before the timed window.
const WARMUP: Duration = Duration::from_millis(500);
/// Share of `serve-churn` keys set-up writes to the artifact tier.
const PRECOMPUTED_SHARE: f64 = 0.9;
/// One response in this many is byte-compared with direct evaluation.
const CHECK_EVERY: u64 = 8;
/// Share of a replayed request's wall time its child spans may leave
/// uncovered, for the median replayed request.
pub const TILING_TOLERANCE: f64 = 0.05;

/// The storage schemes both serve workloads request.
pub const SCHEMES: [&str; 4] = ["NoCompression", "Profiled", "RawD16", "DeltaD16"];
/// The models (resident traces) `serve-churn` requests.
pub const CHURN_MODELS: [CiModel; 2] = [CiModel::Ircnn, CiModel::FfdNet];
/// The memory nodes `serve-churn` requests (set-up warms on HBM3, which
/// is not among them).
pub const CHURN_MEMORY: [&str; 6] = [
    "DDR4-3200",
    "LPDDR4-3200",
    "DDR3-1600",
    "LPDDR4X-4267",
    "HBM2",
    "LPDDR3-1600",
];

/// One evaluation key, rendered as a `POST /evaluate` body.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Key {
    /// The request body.
    pub body: String,
}

impl Key {
    /// The key for the run seed's sample of `dataset`, under the fixed
    /// model weights.
    fn new(
        model: CiModel,
        dataset: DatasetId,
        res: usize,
        seed: u64,
        arch: &str,
        scheme: &str,
        memory: &str,
    ) -> Key {
        let sample = input_sample(dataset, seed);
        Key {
            body: format!(
                "{{\"model\":\"{}\",\"dataset\":\"{}\",\"sample\":{sample},\"resolution\":{res},\
                 \"seed\":{MODEL_SEED},\"arch\":\"{arch}\",\"scheme\":\"{scheme}\",\"memory\":\"{memory}\"}}",
                model.name(),
                dataset.name()
            ),
        }
    }

    /// The parsed request, as the server's protocol layer decodes it.
    pub fn request(&self) -> EvalRequest {
        let v = parse_json(&self.body).expect("benchmark keys are valid JSON");
        EvalRequest::from_json(&v).expect("benchmark keys are valid requests")
    }

    /// The full HTTP request bytes a keep-alive client sends.
    fn http_bytes(&self) -> Vec<u8> {
        format!(
            "POST /evaluate HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\n\r\n{}",
            self.body.len(),
            self.body
        )
        .into_bytes()
    }
}

fn resolution(size: Size) -> usize {
    match size {
        Size::Full => 96,
        Size::Tiny => 32,
    }
}

/// `serve-hot` keys: IRCNN/Kodak24 × 4 architectures × 4 schemes.
pub fn hot_keys(size: Size, seed: u64) -> Vec<Key> {
    let mut keys = Vec::new();
    for arch in ["VAA", "PRA", "Diffy", "SCNN"] {
        for scheme in SCHEMES {
            keys.push(Key::new(
                CiModel::Ircnn,
                DatasetId::Kodak24,
                resolution(size),
                seed,
                arch,
                scheme,
                "DDR4-3200",
            ));
        }
    }
    keys
}

/// `serve-churn` keys: 2 traces × 3 architectures × 4 schemes × memory
/// nodes (all six at full size, two at the tiny size).
pub fn churn_keys(size: Size, seed: u64) -> Vec<Key> {
    let nodes = match size {
        Size::Full => &CHURN_MEMORY[..],
        Size::Tiny => &CHURN_MEMORY[..2],
    };
    let mut keys = Vec::new();
    for model in CHURN_MODELS {
        for arch in ["VAA", "PRA", "Diffy"] {
            for scheme in SCHEMES {
                for memory in nodes {
                    keys.push(Key::new(
                        model,
                        datasets_for(model)[0],
                        resolution(size),
                        seed,
                        arch,
                        scheme,
                        memory,
                    ));
                }
            }
        }
    }
    keys
}

/// The expected response body of each key: `result_to_json` of a direct
/// `evaluate_network` on the key's trace.
fn expected_bodies(keys: &[&Key], cache: &SweepCache) -> BTreeMap<Key, String> {
    keys.iter()
        .map(|k| {
            let r = k.request();
            let bundle = cache.bundle(r.model, r.dataset, r.sample, &r.workload());
            let result = evaluate_network(&bundle.trace, &r.eval_options());
            (
                (*k).clone(),
                result_to_json(&result, bundle.source_pixels).to_json(),
            )
        })
        .collect()
}

/// A server running on its own thread; dropping it drains and joins.
pub struct Running {
    addr: SocketAddr,
    handle: ServerHandle,
    thread: Option<JoinHandle<std::io::Result<()>>>,
}

impl Running {
    fn start(config: ServeConfig) -> Running {
        let server = Server::bind(config).expect("benchmark server binds an ephemeral port");
        let addr = server.local_addr();
        let handle = server.handle();
        let thread = Some(std::thread::spawn(move || server.run()));
        Running {
            addr,
            handle,
            thread,
        }
    }

    /// `GET /metrics`, parsed.
    fn metrics(&self) -> JsonValue {
        let resp =
            diffy_serve::get(self.addr, "/metrics", CLIENT_TIMEOUT).expect("/metrics answers");
        parse_json(&resp.body).expect("/metrics is JSON")
    }
}

impl Drop for Running {
    fn drop(&mut self) {
        self.handle.shutdown();
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

fn base_config(workers: usize) -> ServeConfig {
    ServeConfig {
        addr: "127.0.0.1:0".into(),
        workers: Jobs::new(workers),
        ..ServeConfig::default()
    }
}

/// A counter from a `/metrics` document, by path.
fn counter(m: &JsonValue, path: &[&str]) -> f64 {
    let mut v = m;
    for p in path {
        match v.get(p) {
            Some(next) => v = next,
            None => return 0.0,
        }
    }
    v.as_f64()
        .or_else(|| v.as_u64().map(|u| u as f64))
        .unwrap_or(0.0)
}

/// Posts one key and classifies the answer against `expected` (when
/// given).
fn post(client: &mut KeepAliveClient, key: &Key, expected: Option<&String>) -> Outcome {
    Outcome::classify(
        client
            .post("/evaluate", &key.body)
            .map(|r| (r.status, expected.is_none_or(|e| *e == r.body)))
            .map_err(|e| e.kind()),
    )
}

/// Closed-loop load: `clients` keep-alive clients each draw keys
/// uniformly from `keys` with their own seeded generator, sending one
/// request after the previous answer, for `seconds`. An unmeasured
/// warm-up first draws from `warm_keys` only. Returns the round-trip
/// times (ms) of successful requests, the tally, the timed window's wall
/// time, the throughput (successful requests/s: the median over the
/// window's whole seconds of the requests each completed, so a host stall
/// moves one second's count, not the rate), and the server's `/metrics`
/// as the window opened.
fn closed_loop(
    server: &Running,
    keys: &[Key],
    warm_keys: &[&Key],
    expected: &BTreeMap<Key, String>,
    clients: usize,
    seconds: f64,
    seed: u64,
) -> (Vec<f64>, Tally, f64, f64, JsonValue) {
    let (warmed, go) = (Barrier::new(clients + 1), Barrier::new(clients + 1));
    let window = Duration::from_secs_f64(seconds);
    let addr = server.addr;
    let (outs, start, before) = std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let (warmed, go) = (&warmed, &go);
                s.spawn(move || {
                    let mut rng = Rng::new(seed, 100 + c as u64);
                    let mut client = KeepAliveClient::new(addr, CLIENT_TIMEOUT);
                    let warm_end = Instant::now() + WARMUP;
                    while Instant::now() < warm_end {
                        let key = warm_keys[rng.below(warm_keys.len())];
                        let _ = post(&mut client, key, None);
                    }
                    warmed.wait();
                    go.wait();
                    let start = Instant::now();
                    // Reserved up front: growing by doubling would make
                    // the process's peak RSS depend on the sample count.
                    let mut rtt = Vec::with_capacity((seconds * 100_000.0) as usize);
                    let mut per_second = vec![0u64; seconds.ceil() as usize + 1];
                    let (mut tally, mut last) = (Tally::default(), start);
                    while start.elapsed() < window {
                        let key = &keys[rng.below(keys.len())];
                        let sampled = rng.next_u64().is_multiple_of(CHECK_EVERY);
                        let check = sampled.then(|| expected.get(key)).flatten();
                        let t = Instant::now();
                        let outcome = post(&mut client, key, check);
                        last = Instant::now();
                        tally.record(outcome);
                        if outcome == Outcome::Ok {
                            rtt.push(ms(last - t));
                            let second = (last - start).as_secs() as usize;
                            if let Some(n) = per_second.get_mut(second) {
                                *n += 1;
                            }
                        }
                    }
                    (rtt, tally, last, per_second)
                })
            })
            .collect();
        warmed.wait();
        let before = server.metrics();
        go.wait();
        let start = Instant::now();
        let outs: Vec<_> = handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect();
        (outs, start, before)
    });
    let mut rtt = Vec::new();
    let mut tally = Tally::default();
    let mut end = start;
    let mut per_second = vec![0u64; seconds.ceil() as usize + 1];
    for (r, t, last, counts) in outs {
        rtt.extend(r);
        tally.merge(t);
        end = end.max(last);
        for (sum, n) in per_second.iter_mut().zip(counts) {
            *sum += n;
        }
    }
    let wall = (end - start).as_secs_f64();
    let rps = if seconds >= 1.0 {
        let whole: Vec<f64> = per_second[..seconds as usize]
            .iter()
            .map(|&n| n as f64)
            .collect();
        stats::median_of(&whole)
    } else {
        rtt.len() as f64 / wall
    };
    (rtt, tally, wall, rps, before)
}

/// Open-loop load: request `i` is due at `i / rate`; `senders` threads
/// each send the next due request when it is due (or as soon as they
/// are free, if late). Latency runs from the due time.
fn open_loop(
    addr: SocketAddr,
    sequence: &[Key],
    expected: &BTreeMap<Key, String>,
    senders: usize,
    rate: f64,
) -> (OpenLoopLedger, f64) {
    let sched = Schedule { rate };
    let next = AtomicU64::new(0);
    let origin = Instant::now() + Duration::from_millis(20);
    let ledgers: Vec<(OpenLoopLedger, Instant)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..senders)
            .map(|_| {
                let next = &next;
                s.spawn(move || {
                    let mut client = KeepAliveClient::new(addr, CLIENT_TIMEOUT);
                    let mut ledger = OpenLoopLedger::default();
                    let mut last = origin;
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(key) = sequence.get(i as usize) else {
                            break;
                        };
                        let due = sched.due(i);
                        let wait = (origin + due).saturating_duration_since(Instant::now());
                        if !wait.is_zero() {
                            std::thread::sleep(wait);
                        }
                        let sent = origin.elapsed();
                        let outcome = post(&mut client, key, expected.get(key));
                        last = Instant::now();
                        ledger.record(due, sent, last - origin, outcome);
                    }
                    (ledger, last)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("sender thread"))
            .collect()
    });
    let mut all = OpenLoopLedger::default();
    let mut end = origin;
    for (l, last) in ledgers {
        all.merge(l);
        end = end.max(last);
    }
    (all, (end - origin).as_secs_f64())
}

const STAGES: [&str; 7] = [
    "serve.http.read_request",
    "core.json.parse",
    "serve.protocol.from_json",
    "core.result_lookup",
    "serve.protocol.result_to_json",
    "core.json.emit",
    "serve.http.write_response",
];

/// Replays one request through the layers a worker runs it through.
/// Each stage owns (and drops) what it consumes, as in the server.
fn replay_one(rec: &mut Recorder, raw: &[u8], cache: &SweepCache) -> String {
    rec.next_group();
    rec.span("request", |rec| {
        let request = rec.span(STAGES[0], |_| match read_request(&mut Cursor::new(raw)) {
            ParseResult::Ok(Ok(r)) => r,
            _ => panic!("benchmark requests parse"),
        });
        let json = rec.span(STAGES[1], |_| {
            parse_json(std::str::from_utf8(&request.body).expect("UTF-8 body")).expect("valid JSON")
        });
        let req = rec.span(STAGES[2], move |_| {
            EvalRequest::from_json(&json).expect("valid request")
        });
        let artifact = rec.span(STAGES[3], |_| {
            cache.evaluate_keyed(
                req.model,
                req.dataset,
                req.sample,
                &req.workload(),
                &req.eval_options(),
            )
        });
        let value = rec.span(STAGES[4], move |_| {
            result_to_json(&artifact.result, artifact.source_pixels)
        });
        let body = rec.span(STAGES[5], move |_| value.to_json());
        rec.span(STAGES[6], |_| {
            let mut out = Vec::with_capacity(body.len() + 128);
            write_json_response_conn(&mut out, 200, &body, request.keep_alive())
                .expect("writing to memory");
            drop(request);
            black_box(out);
        });
        body
    })
}

/// Replays `order` through [`replay_one`] against `cache`, checks every
/// body that has an expected value, and returns the per-stage medians
/// (µs); the lookup stage's median is over every lookup, and
/// `memory_lookup` over the lookups the memory tier answered. Also
/// measures tracing overhead against the same replay with the recorder
/// off, and checks that the stages tile each request.
fn replay(
    rec: &mut Recorder,
    order: &[&Key],
    expected: &BTreeMap<Key, String>,
    cache: &SweepCache,
    report: &mut Report,
) -> BTreeMap<&'static str, f64> {
    let raws: Vec<Vec<u8>> = order.iter().map(|k| k.http_bytes()).collect();
    let disk_lookups = || {
        cache.disk().map_or(0, |d| {
            let s = d.stats();
            s.hits + s.misses + s.corrupt
        })
    };
    let mut tally = Tally::default();
    let mut memory_lookup_us = Vec::new();
    for (raw, key) in raws.iter().zip(order) {
        let (base, disk_before) = (rec.spans().len(), disk_lookups());
        let body = replay_one(rec, raw, cache);
        if disk_lookups() == disk_before {
            // Request, read, parse, decode, then the lookup span.
            memory_lookup_us.push(rec.spans()[base + 4].dur_ns as f64 / 1e3);
        }
        tally.record(match expected.get(*key) {
            Some(e) if *e != body => Outcome::Wrong,
            _ => Outcome::Ok,
        });
    }
    report.tally.merge(tally);
    let mut stage_us: BTreeMap<&'static str, f64> = STAGES
        .iter()
        .map(|&s| (s, stats::median_of(&rec.durations_ms(s)) * 1e3))
        .collect();
    stage_us.insert("memory_lookup", stats::median_of(&memory_lookup_us));

    // Tracing overhead: each block with the recorder off and on,
    // alternating which runs first.
    // Every replayed key is resident by now, so both sides do equal work.
    let block = (raws.len() / 4).max(1);
    let run_block = |b: usize, enabled: bool| {
        let mut r = Recorder::new(enabled);
        timed(|| {
            for raw in raws.iter().skip(b * block).take(block) {
                black_box(replay_one(&mut r, raw, cache));
            }
        })
        .1
    };
    let pairs: Vec<(f64, f64)> = (0..4)
        .map(|b| stats::pair_alternating(b, &|enabled| run_block(b, enabled)))
        .collect();
    report.set("trace_overhead_pct", stats::overhead_pct(&pairs));

    // Self-check: the stages tile each replayed request.
    let (checked, median, worst) = rec.tiling_error("request");
    report.notes.push(format!(
        "span self-check: {checked} replayed requests, uncovered share {:.3}% at the median, \
         {:.3}% at worst (tolerance {:.1}% at the median)",
        median * 100.0,
        worst * 100.0,
        TILING_TOLERANCE * 100.0
    ));
    if median > TILING_TOLERANCE {
        report.fail(format!(
            "replayed request stages cover only {:.2}% of the median request",
            (1.0 - median) * 100.0
        ));
    }
    stage_us
}

/// Writes the replay's per-stage medians and the transport remainder
/// (client p50 minus the stages) into the report.
fn report_stages(stage_us: &BTreeMap<&'static str, f64>, client_p50_ms: f64, report: &mut Report) {
    let names = [
        "serve.http.read_request_us",
        "core.json.parse_us",
        "serve.protocol.from_json_us",
        "",
        "serve.protocol.result_to_json_us",
        "core.json.emit_us",
        "serve.http.write_response_us",
    ];
    let mut sum = 0.0;
    for (stage, name) in STAGES.iter().zip(names) {
        let us = stage_us[stage];
        if !name.is_empty() {
            report.set(name, us);
        }
        sum += us;
    }
    report.set("core.result_lookup_us", stage_us["memory_lookup"]);
    report.set("serve.transport_us", client_p50_ms * 1e3 - sum);
}

/// The shares of `requests` client requests that the memory tier, the
/// disk tier and computation answered, from two `/metrics` snapshots
/// around them.
fn tier_shares(before: &JsonValue, after: &JsonValue, requests: f64) -> [(&'static str, f64); 3] {
    let d = |path: &[&str]| counter(after, path) - counter(before, path);
    let disk_hits = d(&["cache", "disk", "hits"]);
    let disk_misses = d(&["cache", "disk", "misses"]) + d(&["cache", "disk", "corrupt"]);
    let n = requests.max(1.0);
    [
        ("memory", (requests - disk_hits - disk_misses).max(0.0) / n),
        ("disk", disk_hits / n),
        ("compute", disk_misses / n),
    ]
}

/// Server-side per-layer figures from two `/metrics` snapshots around a
/// timed phase of `requests` client requests.
fn report_server(before: &JsonValue, after: &JsonValue, requests: f64, report: &mut Report) {
    let d = |path: &[&str]| counter(after, path) - counter(before, path);
    for (tier, share) in tier_shares(before, after, requests) {
        report.set(&format!("tier.{tier}_share"), share);
    }
    report.set("core.cache.evictions", d(&["cache", "evictions"]));
    report.set(
        "serve.queue_wait_ms.p50",
        counter(after, &["stages_ms", "queue_wait", "p50"]),
    );
    let served = d(&["requests_total"]).max(1.0);
    report.set(
        "serve.keepalive_reuse_share",
        d(&["connections", "keepalive_reuses"]) / served,
    );
}

/// Runs `serve-hot`.
pub fn run_hot(cfg: &RunConfig) -> Report {
    let mut report = Report::default();
    let keys = hot_keys(cfg.size, cfg.seed);
    let clients = CLIENTS;
    report.param("loop", "closed");
    report.param("clients", clients as u64);
    report.param("key_draws", "uniform, seeded");
    report.param("server_workers", CLOSED_LOOP_WORKERS as u64);
    report.param("keys", keys.len() as u64);
    let config = base_config(CLOSED_LOOP_WORKERS);
    report.param("trace_cache", config.trace_cache as u64);
    report.param("result_tier_capacity", config.trace_cache as u64 * 8);

    // The reference: direct evaluation of every key. Its cache is dropped
    // before set-up, so the peak RSS counts the server, not the reference.
    let all: Vec<&Key> = keys.iter().collect();
    let expected = expected_bodies(&all, &SweepCache::new());

    // Set-up: boot the server and compute every key through it.
    let reps = if cfg.trace { 1 } else { SETUP_REPS };
    let setup = || {
        let server = Running::start(config.clone());
        let mut client = KeepAliveClient::new(server.addr, CLIENT_TIMEOUT);
        for k in &keys {
            let outcome = post(&mut client, k, None);
            assert_eq!(outcome, Outcome::Ok, "set-up request for {} failed", k.body);
        }
        server
    };
    setup_then_measure(reps, &mut report, setup, |server, report| {
        let seconds = if cfg.trace {
            (cfg.seconds / 2.0).max(1.0)
        } else {
            cfg.seconds
        };
        let (rtt, tally, wall, rps, before) =
            closed_loop(&server, &keys, &all, &expected, clients, seconds, cfg.seed);
        let after = server.metrics();
        report.tally.merge(tally);
        let rtt = stats::sorted(rtt);
        let p50 = stats::median(&rtt).unwrap_or(0.0);
        let (p_tail, q) = tail(&rtt);
        report.notes.push(format!(
            "serve-hot: {} requests ({} ok) in {:.2} s from {clients} closed-loop clients; \
             p50 {p50:.4} ms, p{} {p_tail:.4} ms",
            tally.attempted,
            rtt.len(),
            wall,
            q * 100.0
        ));
        let misses = counter(&after, &["cache", "misses"]) - counter(&before, &["cache", "misses"]);
        if misses > 0.0 {
            report.notes.push(format!(
                "serve-hot: {misses} cache misses during the timed phase"
            ));
        }
        if cfg.trace {
            report_server(&before, &after, tally.attempted as f64, report);
            let reference = SweepCache::new();
            for k in &keys {
                let r = k.request();
                reference.evaluate_keyed(
                    r.model,
                    r.dataset,
                    r.sample,
                    &r.workload(),
                    &r.eval_options(),
                );
            }
            let n = match cfg.size {
                Size::Full => 4000,
                Size::Tiny => 400,
            };
            let mut rng = Rng::new(cfg.seed, 7);
            let order: Vec<&Key> = (0..n).map(|_| &keys[rng.below(keys.len())]).collect();
            let mut rec = Recorder::new(true);
            let stage_us = replay(&mut rec, &order, &expected, &reference, report);
            report_stages(&stage_us, p50, report);
            report.spans = Some(rec.to_json(SPAN_FILE_GROUPS));
        } else {
            report.set("throughput_rps", rps);
            report.set("evals_per_s", rps);
            report.set("p50_ms", p50);
            report.set("p99_ms", p_tail);
        }
    });
    report
}

/// Runs `serve-churn`.
pub fn run_churn(cfg: &RunConfig) -> Report {
    let mut report = Report::default();
    let keys = churn_keys(cfg.size, cfg.seed);
    let (rate, senders, trace_cache) = match cfg.size {
        Size::Full => (CHURN_RATE, 8, 2),
        Size::Tiny => (200.0, 4, 2),
    };
    let mut rng = Rng::new(cfg.seed, 1);
    let mut order: Vec<usize> = (0..keys.len()).collect();
    rng.shuffle(&mut order);
    let n_pre = (keys.len() as f64 * PRECOMPUTED_SHARE).round() as usize;
    let pre: Vec<&Key> = order[..n_pre].iter().map(|&i| &keys[i]).collect();
    let compute_keys: BTreeSet<&Key> = order[n_pre..].iter().map(|&i| &keys[i]).collect();
    report.param("loop", "closed (untraced), open (traced)");
    report.param("clients", CLIENTS as u64);
    report.param("key_draws", "uniform, seeded");
    report.param("traced_rate_rps", rate);
    report.param("traced_senders", senders as u64);
    // The traced open loop keeps 8 connections busy: one worker would sit
    // out the 2 ms park-grace peek after every response and saturate.
    let workers = if cfg.trace {
        Jobs::available().get()
    } else {
        CLOSED_LOOP_WORKERS
    };
    report.param("server_workers", workers as u64);
    report.param("keys", keys.len() as u64);
    report.param("precomputed_keys", n_pre as u64);
    report.param("trace_cache", trace_cache as u64);
    report.param("result_tier_capacity", trace_cache as u64 * 8);

    // A seeded sample of keys whose every response is byte-compared. The
    // reference cache is dropped before set-up, so the peak RSS counts
    // the server, not the reference.
    let mut sample: Vec<&Key> = keys.iter().collect();
    rng.shuffle(&mut sample);
    sample.truncate((keys.len() / 6).max(4));
    let expected = expected_bodies(&sample, &SweepCache::new());

    // Set-up: boot the server on a fresh artifact directory, have it
    // compute the precomputed keys, and make both traces, their term
    // planes and each scheme's traffic resident with requests outside the
    // key set (Diffy on HBM3), so a compute miss in the timed phase costs
    // tile_sim + combine only.
    let reps = if cfg.trace { 1 } else { SETUP_REPS };
    let dir = cfg.out_dir.join("artifacts");
    let setup = || {
        // The previous repetition's server is gone: start the directory over.
        let _ = std::fs::remove_dir_all(&dir);
        let server = Running::start(ServeConfig {
            trace_cache,
            artifact_dir: Some(dir.to_string_lossy().into_owned()),
            ..base_config(workers)
        });
        // The server computes the precomputed keys and writes them through
        // to the directory; the requests outside the key set then leave
        // both traces, their term planes and each scheme's traffic resident.
        let mut client = KeepAliveClient::new(server.addr, CLIENT_TIMEOUT);
        let res = resolution(cfg.size);
        let warm = CHURN_MODELS.iter().flat_map(|&model| {
            let dataset = datasets_for(model)[0];
            SCHEMES.map(|scheme| Key::new(model, dataset, res, cfg.seed, "Diffy", scheme, "HBM3"))
        });
        for key in pre.iter().copied().cloned().chain(warm) {
            let outcome = post(&mut client, &key, None);
            assert_eq!(
                outcome,
                Outcome::Ok,
                "set-up request for {} failed",
                key.body
            );
        }
        server
    };
    setup_then_measure(reps, &mut report, setup, |server, report| {
        if !cfg.trace {
            // The end-to-end run is closed loop: on a 2-vCPU guest the host
            // stalls it ~0.7% of the time, and an open-loop p99 lands on those
            // stalls (run-to-run spread 0.6-1.2 measured), while a closed
            // loop's tail stays the server's own. The warm-up touches only
            // precomputed keys, so every compute miss falls in the window.
            let clients = CLIENTS;
            let (rtt, tally, wall, rps, before) = closed_loop(
                &server,
                &keys,
                &pre,
                &expected,
                clients,
                cfg.seconds,
                cfg.seed,
            );
            let after = server.metrics();
            report.tally.merge(tally);
            let rtt = stats::sorted(rtt);
            let p50 = stats::median(&rtt).unwrap_or(0.0);
            let (p_tail, q) = tail(&rtt);
            let shares = tier_shares(&before, &after, tally.attempted as f64);
            report.notes.push(format!(
                "serve-churn: {} requests ({} ok) in {wall:.2} s from {clients} closed-loop clients; \
                 p50 {p50:.4} ms, p{} {p_tail:.4} ms; tier shares {}",
                tally.attempted,
                rtt.len(),
                q * 100.0,
                shares
                    .iter()
                    .map(|(t, s)| format!("{t} {:.3}%", s * 100.0))
                    .collect::<Vec<_>>()
                    .join(", ")
            ));
            for (tier, share) in shares {
                report.param(&format!("{tier}_share"), share);
            }
            report.set("throughput_rps", rps);
            report.set("evals_per_s", rps);
            report.set("p50_ms", p50);
            report.set("p99_ms", p_tail);
        } else {
            // The traced run drives the same server open loop, timing each
            // request from when it was due, for the tier shares, generator
            // lateness and due-time tail.
            let seconds = (cfg.seconds / 2.0).max(1.0);
            let n = Schedule { rate }.count_before(Duration::from_secs_f64(seconds)) as usize;
            let sequence: Vec<Key> = (0..n)
                .map(|_| keys[rng.below(keys.len())].clone())
                .collect();
            let before = server.metrics();
            let (ledger, wall) = open_loop(server.addr, &sequence, &expected, senders, rate);
            let after = server.metrics();
            report.tally.merge(ledger.tally);
            let lat = stats::sorted(ledger.latency_ms.clone());
            let late = stats::sorted(ledger.late_ms.clone());
            let p50 = stats::median(&lat).unwrap_or(0.0);
            let (p_tail, q) = tail(&lat);
            let (late_tail, late_q) = tail(&late);
            report.notes.push(format!(
                "serve-churn: {} requests due at {rate} rps over {wall:.2} s ({} ok); due-time p50 \
                 {p50:.4} ms, p{} {p_tail:.4} ms; generator late p{} {late_tail:.4} ms",
                ledger.tally.attempted,
                lat.len(),
                q * 100.0,
                late_q * 100.0
            ));
            report_server(&before, &after, ledger.tally.attempted as f64, report);
            report.set("serve.generator_late_ms", late_tail);
            report.set("serve.open_loop_p99_ms", p_tail);
            churn_layers(
                &keys,
                trace_cache,
                &compute_keys,
                &sequence,
                &dir,
                &expected,
                cfg,
                report,
                p50,
            );
        }
    });
    let _ = std::fs::remove_dir_all(&dir);
    report
}

/// The open-loop rate of `serve-churn` at full size, requests/s. On two
/// cores the server saturates near 850/s under this traffic: each of the
/// 8 connections sends every ~10 ms, so after every response a worker
/// sits out the server's 2 ms park-grace peek. At 300/s the workers are
/// about a third busy and the tail reflects tier costs, not overload.
pub const CHURN_RATE: f64 = 300.0;

/// The traced `serve-churn` layers: the compute path of every miss key
/// in the sequence, artifact load and store, and the request replay.
#[allow(clippy::too_many_arguments)]
fn churn_layers(
    keys: &[Key],
    trace_cache: usize,
    compute_keys: &BTreeSet<&Key>,
    sequence: &[Key],
    dir: &Path,
    expected: &BTreeMap<Key, String>,
    cfg: &RunConfig,
    report: &mut Report,
    client_p50_ms: f64,
) {
    let mut rec = Recorder::new(true);
    // Compute misses: the keys the timed phase asked for that were not
    // precomputed, priced on their traces as the server does. The
    // server's set-up made the term planes and each scheme's traffic
    // resident, so they are built here outside any span: only tile_sim
    // and combine are timed, as on the server's timed path.
    let missed: BTreeSet<&Key> = sequence
        .iter()
        .filter(|k| compute_keys.contains(k))
        .collect();
    let reference = SweepCache::new();
    let mut planes: BTreeMap<String, Vec<Arc<PaddedTerms>>> = BTreeMap::new();
    let mut traffic = BTreeMap::new();
    let mut cycles = BTreeMap::new();
    let mut traffic_bytes = 0u64;
    for k in &missed {
        let r = k.request();
        let bundle = reference.bundle(r.model, r.dataset, r.sample, &r.workload());
        let opts = r.eval_options();
        let trace = &bundle.trace;
        let planes = planes.entry(trace.model.clone()).or_insert_with(|| {
            trace
                .layers
                .iter()
                .map(|l| Arc::new(PaddedTerms::for_layer(l)))
                .collect()
        });
        let traffic = traffic
            .entry((trace.model.clone(), opts.scheme.label()))
            .or_insert_with(|| network_scheme_traffic(trace, opts.scheme));
        rec.next_group();
        let result = rec.span("compute_miss", |rec| {
            price(rec, trace, planes, traffic, &opts)
        });
        *cycles
            .entry(r.arch.name().to_ascii_lowercase())
            .or_insert(0u64) += result.compute_cycles();
        traffic_bytes += result.total_traffic_bytes();
    }
    report.set("core.combine_ms", rec.total_ms("core.combine"));
    for a in ["vaa", "pra", "diffy"] {
        report.set(
            &format!("sim.tile_sim_ms.{a}"),
            rec.total_ms(&format!("sim.tile_sim.{a}")),
        );
        report.set(
            &format!("sim.cycles.{a}"),
            cycles.get(a).copied().unwrap_or(0) as f64,
        );
    }
    report.set("memsys.traffic_bytes", traffic_bytes as f64);

    // Artifact load (decode + fingerprint check) and store (encode +
    // atomic publish), on the precomputed keys.
    let tier = DiskTier::open(dir).expect("artifact dir reopens");
    let reader = DiskTier::open(dir).expect("artifact dir reopens");
    let probe = DiskTier::open(cfg.out_dir.join("store-probe")).expect("probe dir is creatable");
    let (mut load_us, mut store_us) = (Vec::new(), Vec::new());
    for k in keys {
        let r = k.request();
        let key = diffy_core::result_key(
            r.model,
            r.dataset,
            r.sample,
            &r.workload(),
            &r.eval_options(),
        );
        let (loaded, s) = timed(|| reader.load(&key));
        if let Ok(Some(artifact)) = loaded {
            load_us.push(s * 1e6);
            let (stored, s) = timed(|| probe.store(&key, &artifact));
            stored.expect("probe store succeeds");
            store_us.push(s * 1e6);
        }
    }
    let _ = std::fs::remove_dir_all(cfg.out_dir.join("store-probe"));
    report.set("core.artifact.load_us", stats::median_of(&load_us));
    report.set("core.artifact.store_us", stats::median_of(&store_us));

    // Request replay: the timed sequence again, in order, through a
    // fresh cache with the server's memory tier over the same artifact
    // directory (every key in it is on disk by now).
    let n = match cfg.size {
        Size::Full => 4000,
        Size::Tiny => 400,
    };
    let order: Vec<&Key> = sequence.iter().cycle().take(n).collect();
    let tiered =
        SweepCache::bounded(trace_cache, ServeConfig::default().plane_cache).with_disk(tier);
    let stage_us = replay(&mut rec, &order, expected, &tiered, report);
    report_stages(&stage_us, client_p50_ms, report);
    report.spans = Some(rec.to_json(SPAN_FILE_GROUPS));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_wrong_response_byte_fails_the_check() {
        let keys = hot_keys(Size::Tiny, 5);
        let server = Running::start(base_config(1));
        let expected = expected_bodies(&[&keys[0], &keys[5]], &SweepCache::new());
        let mut client = KeepAliveClient::new(server.addr, CLIENT_TIMEOUT);
        for k in [&keys[0], &keys[5]] {
            assert_eq!(post(&mut client, k, expected.get(k)), Outcome::Ok);
        }
        let mut bytes = expected[&keys[0]].clone().into_bytes();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 1;
        let wrong = String::from_utf8(bytes).expect("ASCII stays ASCII");
        assert_eq!(post(&mut client, &keys[0], Some(&wrong)), Outcome::Wrong);
        // The other key's body is not the first key's.
        assert_eq!(
            post(&mut client, &keys[0], expected.get(&keys[5])),
            Outcome::Wrong
        );
    }

    #[test]
    fn key_sets_have_the_documented_sizes() {
        assert_eq!(hot_keys(Size::Full, 1).len(), 16);
        assert_eq!(churn_keys(Size::Full, 1).len(), 144);
        let keys = churn_keys(Size::Full, 9);
        assert_eq!(
            keys.iter().collect::<BTreeSet<_>>().len(),
            keys.len(),
            "keys are distinct"
        );
        for k in &keys {
            let r = k.request();
            assert_eq!(
                (r.seed, r.sample),
                (MODEL_SEED, 9),
                "seed 9 picks sample 9 of CBSD68"
            );
        }
    }
}

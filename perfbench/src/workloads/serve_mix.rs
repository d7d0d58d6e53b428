//! `serve-mix`: an in-process `tauhls_serve::Server` (2 workers, one
//! simulation thread per job) driven by a closed loop of two client
//! connections, each request a fresh HTTP round trip.
//!
//! Each connection repeats a seeded shuffle of [`CYCLE`]: mostly
//! cache-hit simulates from a hit set warmed in set-up, some cold small
//! simulates, some binary/gray area requests that share a stage-cache
//! prefix, and one async job (submit, poll, result). No one-hot cell is
//! sent. Every body is compared with the in-process
//! `JobSpec::run_with(..).to_pretty()` of the same spec, computed outside
//! the timed phase.

use std::collections::HashMap;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

use tauhls_core::jobspec::Endpoint;
use tauhls_serve::{ServeConfig, Server};
use tauhls_sim::BatchRunner;

use super::{
    finish_traced, host_header, record_overhead, repeated_setup, Options, Phase, PhaseClock,
};
use crate::calib::Speed;
use crate::client::{exchange, metric, metric_sum, Exchange};
use crate::layers::{digest, parse_spec, replay, run_request};
use crate::report::Report;
use crate::stats::{derive, mean, median, peak_rss_mib, shuffle};
use crate::trace::Recorder;

/// Client connections of the closed loop (one per core of the reference
/// 2-core machine).
pub const CONNECTIONS: usize = 2;
/// Simulate specs in the warmed hit set.
pub const HIT_SET: usize = 24;
/// Client lanes: every (phase, connection) pair draws its own fresh
/// specs, so a traced phase never replays the untraced phase's misses.
const LANES: usize = 2 * CONNECTIONS;
/// Socket timeout of every exchange.
const TIMEOUT: Duration = Duration::from_secs(60);
/// Distinct inputs per endpoint the traced run replays through the
/// layers.
const REPLAY_LIMIT: usize = 24;

/// What a slot of the per-connection cycle sends.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Slot {
    /// A simulate from the warmed hit set.
    Hit,
    /// A simulate with a fresh seed.
    Cold,
    /// An area request with a fresh width; its synthesis prefix is
    /// shared with earlier requests of the same family.
    Area,
    /// An async simulate job: submit, poll until done, fetch the result.
    Job,
}

/// One connection's repeating mix: 14 hits, 2 cold simulates, 1 area
/// request and 3 jobs in every 20 requests. A job round trip takes two
/// exchanges, so with 15 % jobs the p90 falls inside the job round trips
/// rather than on the edge of the hits' scheduling tail. One area request
/// in 20 keeps a 30 s run within the 320 distinct area keys per lane.
pub const CYCLE: [Slot; 20] = {
    let mut c = [Slot::Hit; 20];
    c[14] = Slot::Cold;
    c[15] = Slot::Cold;
    c[16] = Slot::Area;
    c[17] = Slot::Job;
    c[18] = Slot::Job;
    c[19] = Slot::Job;
    c
};

/// Synthesis families of the area requests: binary and gray encodings
/// of these stay in the millisecond range (one-hot is excluded).
const FAMILIES: [(&str, usize, usize, usize, &str); 10] = [
    ("fir3", 2, 1, 0, "left-edge"),
    ("fir5", 2, 1, 0, "left-edge"),
    ("iir2", 2, 1, 0, "left-edge"),
    ("iir3", 3, 2, 0, "left-edge"),
    ("diffeq", 2, 1, 1, "left-edge"),
    ("fir3", 2, 1, 0, "chains"),
    ("fir5", 2, 1, 0, "chains"),
    ("iir2", 2, 1, 0, "chains"),
    ("iir3", 3, 2, 0, "chains"),
    ("diffeq", 2, 1, 1, "chains"),
];

/// The server configuration under test. Admission limits are lifted so
/// the loop measures the service, not its rate limiter.
pub fn config() -> ServeConfig {
    ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 2,
        sim_threads: Some(1),
        admission_rate: 1e9,
        admission_burst: 1e9,
        max_pending_per_client: 1 << 20,
        ..ServeConfig::default()
    }
}

fn small_simulate(seed: u64) -> String {
    format!(r#"{{"dfg":"fir3","muls":2,"adds":1,"subs":0,"p":[0.5],"trials":200,"seed":{seed}}}"#)
}

/// The `i`-th spec of the hit set.
pub fn hit_spec(seed: u64, i: usize) -> String {
    let (name, m, a, s) = [
        ("fir3", 2, 1, 0),
        ("fir5", 2, 1, 0),
        ("iir2", 2, 1, 0),
        ("diffeq", 2, 1, 1),
    ][i % 4];
    let sim_seed = derive(seed, &[1, i as u64]) % 1_000_000;
    format!(
        r#"{{"dfg":"{name}","muls":{m},"adds":{a},"subs":{s},"p":[0.9,0.5],"trials":1000,"seed":{sim_seed}}}"#
    )
}

/// The `j`-th area request of client lane `lane`: families rotate, then
/// encodings, then widths, so keys stay distinct for 320 requests per
/// lane while every family's synthesis prefix is shared. Widths stay in
/// 1..=64: wider area specs pass validation but panic in the datapath
/// model.
pub fn area_spec(seed: u64, lane: usize, j: usize) -> String {
    let f = FAMILIES.len();
    let (name, m, a, s, binding) = FAMILIES[j % f];
    let encoding = ["binary", "gray"][(j / f) % 2];
    let offset = derive(seed, &[4]) as usize;
    let width = 1 + (offset + (j / (2 * f)) * LANES + lane) % 64;
    format!(
        r#"{{"dfg":"{name}","muls":{m},"adds":{a},"subs":{s},"binding":"{binding}","encoding":"{encoding}","width":{width}}}"#
    )
}

/// The synth spec of family `f` in `encoding`: the synthesis prefix of
/// every area request of that family and encoding.
fn family_synth_spec(f: usize, encoding: &str) -> String {
    let (name, m, a, s, binding) = FAMILIES[f];
    format!(
        r#"{{"dfg":"{name}","muls":{m},"adds":{a},"subs":{s},"binding":"{binding}","encoding":"{encoding}"}}"#
    )
}

/// Sends `text` to `endpoint` and checks the body against the
/// in-process reference; returns the reference digest.
fn warm(
    addr: SocketAddr,
    endpoint: Endpoint,
    text: &str,
    runner: &BatchRunner,
) -> Result<u64, String> {
    let mut off = Recorder::new(false, Instant::now());
    let (_, body) = run_request(&mut off, 0, 0, endpoint, text, runner, None)?;
    let want = digest(&body);
    let path = format!("/v1/{}", endpoint.as_str());
    let got = exchange(addr, "POST", &path, Some(text), TIMEOUT)?;
    if got.status != 200 || digest(&got.body) != want {
        return Err(format!("warming {text}: HTTP {} or wrong body", got.status));
    }
    Ok(want)
}

/// The warmed hit set and its reference digests.
pub struct Plan {
    seed: u64,
    hits: Vec<String>,
    hit_digests: Vec<u64>,
}

/// A server that is shut down (gracefully, joining every thread) when
/// dropped.
pub struct Running(Option<Server>);

impl Running {
    /// The bound address.
    pub fn addr(&self) -> SocketAddr {
        self.0.as_ref().expect("server is running").local_addr()
    }
}

impl Drop for Running {
    fn drop(&mut self) {
        if let Some(server) = self.0.take() {
            server.shutdown();
        }
    }
}

/// Starts a server and warms it: the response cache with one request
/// per hit spec, and (with `stage_warm`) the stage cache with one synth
/// request per area family and encoding. Every warming body is checked
/// against its in-process reference.
pub fn start(seed: u64, hits: usize, stage_warm: bool) -> Result<(Running, Plan), String> {
    let server = Running(Some(
        Server::start(config()).map_err(|e| format!("start server: {e}"))?,
    ));
    let runner = BatchRunner::new(1);
    let hits: Vec<String> = (0..hits).map(|i| hit_spec(seed, i)).collect();
    let hit_digests = hits
        .iter()
        .map(|text| warm(server.addr(), Endpoint::Simulate, text, &runner))
        .collect::<Result<Vec<u64>, String>>()?;
    if stage_warm {
        for encoding in ["binary", "gray"] {
            for f in 0..FAMILIES.len() {
                let text = family_synth_spec(f, encoding);
                warm(server.addr(), Endpoint::Synth, &text, &runner)?;
            }
        }
    }
    Ok((
        server,
        Plan {
            seed,
            hits,
            hit_digests,
        },
    ))
}

/// One finished slot.
#[derive(Debug)]
pub struct Outcome {
    slot: Slot,
    endpoint: Endpoint,
    /// The spec text (the hit-set index for hits).
    text: String,
    hit: usize,
    status: u16,
    x_cache: Option<String>,
    digest: u64,
    error: Option<String>,
    latency_ms: f64,
    connect_ms: f64,
    first_byte_ms: f64,
    polls: u32,
}

/// Sends one request, recording its socket phases as child spans.
fn call(
    rec: &mut Recorder,
    request: u64,
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: Option<&str>,
) -> Result<Exchange, String> {
    let ex = exchange(addr, method, path, body, TIMEOUT)?;
    rec.interval("serve.connect", request, 0, ex.start, ex.connected);
    rec.interval("serve.send", request, 0, ex.connected, ex.sent);
    rec.interval("serve.wait", request, 0, ex.sent, ex.first_byte);
    rec.interval("serve.read", request, 0, ex.first_byte, ex.done);
    Ok(ex)
}

fn ms(from: Instant, to: Instant) -> f64 {
    to.duration_since(from).as_secs_f64() * 1e3
}

/// Submits a job, polls its result until it is ready, and returns the
/// final exchange with the number of polls.
fn job_round_trip(
    rec: &mut Recorder,
    request: u64,
    addr: SocketAddr,
    text: &str,
) -> Result<(Exchange, u32), String> {
    let submit = format!(r#"{{"endpoint":"simulate","spec":{text}}}"#);
    let sub = rec.span("serve.submit", request, 0, |rec| {
        call(rec, request, addr, "POST", "/v1/jobs", Some(&submit))
    })?;
    if sub.status != 200 && sub.status != 202 {
        return Err(format!(
            "job submit: HTTP {}: {}",
            sub.status,
            sub.body.trim()
        ));
    }
    let location = sub.location.ok_or("job submit: no Location header")?;
    let path = format!("{location}/result");
    let deadline = Instant::now() + TIMEOUT;
    let mut polls = 0;
    loop {
        polls += 1;
        let ex = rec.span("serve.poll", request, 0, |rec| {
            call(rec, request, addr, "GET", &path, None)
        })?;
        if ex.status != 202 {
            return Ok((ex, polls));
        }
        if Instant::now() > deadline {
            return Err("job never finished".to_string());
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// Per-connection request counters, so every spec a connection sends is
/// derived from (seed, connection, index).
#[derive(Default)]
struct Cursor {
    requests: u64,
    hits: u64,
    colds: u64,
    areas: usize,
    jobs: u64,
}

fn send(
    plan: &Plan,
    addr: SocketAddr,
    lane: usize,
    slot: Slot,
    cur: &mut Cursor,
    rec: &mut Recorder,
) -> Outcome {
    let c = lane as u64;
    let request = (c << 48) | cur.requests;
    cur.requests += 1;
    let (endpoint, text, hit) = match slot {
        Slot::Hit => {
            cur.hits += 1;
            let k = (derive(plan.seed, &[5, c, cur.hits]) % plan.hits.len() as u64) as usize;
            (Endpoint::Simulate, plan.hits[k].clone(), k)
        }
        Slot::Cold => {
            cur.colds += 1;
            let s = derive(plan.seed, &[2, c, cur.colds]) % (1 << 40);
            (Endpoint::Simulate, small_simulate(s), 0)
        }
        Slot::Area => {
            cur.areas += 1;
            (Endpoint::Area, area_spec(plan.seed, lane, cur.areas - 1), 0)
        }
        Slot::Job => {
            cur.jobs += 1;
            let s = derive(plan.seed, &[3, c, cur.jobs]) % (1 << 40);
            (Endpoint::Simulate, small_simulate(s), 0)
        }
    };
    let mut out = Outcome {
        slot,
        endpoint,
        text,
        hit,
        status: 0,
        x_cache: None,
        digest: 0,
        error: None,
        latency_ms: 0.0,
        connect_ms: f64::NAN,
        first_byte_ms: f64::NAN,
        polls: 0,
    };
    let start = Instant::now();
    let result = match slot {
        Slot::Job => rec.span("jobs.round_trip", request, 0, |rec| {
            job_round_trip(rec, request, addr, &out.text)
        }),
        _ => {
            let (name, path) = match slot {
                Slot::Hit => ("serve.hit", "/v1/simulate"),
                Slot::Cold => ("serve.miss", "/v1/simulate"),
                _ => ("serve.miss", "/v1/area"),
            };
            rec.span(name, request, 0, |rec| {
                call(rec, request, addr, "POST", path, Some(&out.text)).map(|ex| (ex, 0))
            })
        }
    };
    out.latency_ms = ms(start, Instant::now());
    match result {
        Ok((ex, polls)) => {
            out.status = ex.status;
            out.digest = digest(&ex.body);
            out.connect_ms = ms(ex.start, ex.connected);
            out.first_byte_ms = ms(ex.start, ex.first_byte);
            out.x_cache = ex.x_cache;
            out.polls = polls;
        }
        Err(e) => out.error = Some(e),
    }
    out
}

/// Requests after which `serve-mix` reads its peak RSS. The service
/// keeps every cold body and finished job, so its memory grows with the
/// requests served; reading it at a fixed request count compares memory
/// at equal work instead of penalising higher throughput.
pub const RSS_AT: u64 = 2000;

/// Reads the peak RSS when the phase's [`RSS_AT`]-th request completes.
#[derive(Default)]
struct RssProbe {
    done: AtomicU64,
    at: OnceLock<f64>,
}

impl RssProbe {
    fn tick(&self) {
        // Relaxed: a statistic; the OnceLock publishes the reading.
        if self.done.fetch_add(1, Ordering::Relaxed) + 1 == RSS_AT {
            let _ = self.at.set(peak_rss_mib());
        }
    }
}

/// Drives one connection as client lane `lane`: a fixed `script`, or
/// seeded shuffles of [`CYCLE`] until `deadline`, counting completed
/// requests on `probe`.
fn drive(
    plan: &Plan,
    addr: SocketAddr,
    lane: usize,
    rec: &mut Recorder,
    deadline: Instant,
    script: Option<&[Slot]>,
    probe: &RssProbe,
) -> Vec<Outcome> {
    let mut cur = Cursor::default();
    let mut outcomes = Vec::new();
    if let Some(script) = script {
        for &slot in script {
            outcomes.push(send(plan, addr, lane, slot, &mut cur, rec));
        }
        return outcomes;
    }
    let mut cycle = 0u64;
    'run: loop {
        let mut slots = CYCLE;
        shuffle(&mut slots, plan.seed, &[6, lane as u64, cycle]);
        for slot in slots {
            if Instant::now() >= deadline {
                break 'run;
            }
            outcomes.push(send(plan, addr, lane, slot, &mut cur, rec));
            probe.tick();
        }
        cycle += 1;
    }
    outcomes
}

/// Runs every connection of phase `phase` (0 or 1) for `seconds` in
/// parallel.
fn timed(
    plan: &Plan,
    addr: SocketAddr,
    phase: usize,
    rec: &mut Recorder,
    seconds: f64,
) -> (Phase, Vec<Outcome>) {
    let (trace, epoch) = (rec.enabled(), rec.epoch());
    let probe = RssProbe::default();
    let probe = &probe;
    let clock = PhaseClock::start();
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let results: Vec<(Vec<Outcome>, Recorder)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CONNECTIONS)
            .map(|conn| {
                scope.spawn(move || {
                    let mut rec = Recorder::new(trace, epoch);
                    let lane = phase * CONNECTIONS + conn;
                    let out = drive(plan, addr, lane, &mut rec, deadline, None, probe);
                    (out, rec)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let mut outcomes = Vec::new();
    for (out, r) in results {
        outcomes.extend(out);
        rec.absorb(r);
    }
    let mut phase = clock.finish(outcomes.iter().map(|o| o.latency_ms).collect());
    if let Some(&rss) = probe.at.get() {
        phase.rss_mib = rss;
    }
    (phase, outcomes)
}

fn scrape(addr: SocketAddr) -> Result<String, String> {
    let ex = exchange(addr, "GET", "/metrics", None, TIMEOUT)?;
    if ex.status != 200 {
        return Err(format!("/metrics: HTTP {}", ex.status));
    }
    Ok(ex.body)
}

/// Records the serve-layer figures of a traced phase: client-side
/// latencies split by `X-Cache`, socket phases, job round trips, and the
/// `/metrics` deltas across the phase.
fn serve_counters(rec: &mut Recorder, outcomes: &[Outcome], before: &str, after: &str) {
    let pick = |f: &dyn Fn(&Outcome) -> Option<f64>| -> Vec<f64> {
        outcomes
            .iter()
            .filter_map(f)
            .filter(|v| v.is_finite())
            .collect()
    };
    let cache = |o: &Outcome, want: &str| {
        (o.slot != Slot::Job && o.x_cache.as_deref() == Some(want)).then_some(o.latency_ms)
    };
    let hits = pick(&|o| cache(o, "hit"));
    let misses = pick(&|o| cache(o, "miss"));
    let sync = |o: &Outcome| o.slot != Slot::Job;
    let connect = pick(&|o| sync(o).then_some(o.connect_ms));
    let first = pick(&|o| sync(o).then_some(o.first_byte_ms));
    let jobs = pick(&|o| (o.slot == Slot::Job && o.error.is_none()).then_some(o.latency_ms));
    let polls = pick(&|o| (o.slot == Slot::Job).then_some(f64::from(o.polls)));
    let delta = |f: &dyn Fn(&str) -> f64| f(after) - f(before);
    let hit_d = delta(&|t| metric(t, "tauhls_serve_cache_hits_total"));
    let miss_d = delta(&|t| metric(t, "tauhls_serve_cache_misses_total"));
    let entry_bytes =
        metric(after, "tauhls_serve_cache_bytes") / metric(after, "tauhls_serve_cache_entries");
    let served = |t: &str, what: &str| {
        ["simulate", "area"]
            .iter()
            .map(|e| {
                metric(
                    t,
                    &format!("tauhls_serve_request_seconds_{what}{{endpoint=\"{e}\"}}"),
                )
            })
            .sum::<f64>()
    };
    let server_s = delta(&|t| served(t, "sum")) / delta(&|t| served(t, "count"));
    let n = |v: &[f64]| v.len() as u64;
    let requests = outcomes.len() as u64;
    let sets: [(&'static str, f64, u64); 9] = [
        ("serve.hit_ms", median(&hits), n(&hits)),
        ("serve.miss_ms", median(&misses), n(&misses)),
        ("serve.connect_ms", median(&connect), n(&connect)),
        ("serve.first_byte_ms", median(&first), n(&first)),
        (
            "serve.overhead_ms",
            mean(&misses) - server_s * 1e3,
            n(&misses),
        ),
        ("serve.cache_hit_ratio", hit_d / (hit_d + miss_d), requests),
        ("serve.cache_entry_bytes", entry_bytes, requests),
        ("jobs.round_trip_ms", median(&jobs), n(&jobs)),
        ("jobs.polls_per_job", mean(&polls), n(&polls)),
    ];
    for (name, value, samples) in sets {
        if value.is_finite() && samples > 0 {
            rec.observe(name, value, samples);
        }
    }
}

/// Checks every outcome against its in-process reference. Cold, area and
/// job references are computed here, after the timed phases, once per
/// distinct spec; when tracing, the first [`REPLAY_LIMIT`] distinct
/// specs per endpoint are also replayed through the layers.
fn check(
    plan: &Plan,
    outcomes: &[Outcome],
    rec: &mut Recorder,
    report: &mut Report,
) -> Result<(), String> {
    let runner = BatchRunner::new(1);
    let mut refs: HashMap<(&'static str, &str), Result<u64, String>> = HashMap::new();
    let mut replayed: HashMap<&'static str, usize> = HashMap::new();
    for o in outcomes {
        let want = match o.slot {
            Slot::Hit => Ok(plan.hit_digests[o.hit]),
            _ => {
                let key = (o.endpoint.as_str(), o.text.as_str());
                if !refs.contains_key(&key) {
                    let id = refs.len() as u64;
                    let reference = run_request(rec, id, id, o.endpoint, &o.text, &runner, None)
                        .map(|(_, body)| digest(&body));
                    let n = replayed.entry(key.0).or_default();
                    if rec.enabled() && *n < REPLAY_LIMIT {
                        *n += 1;
                        replay(rec, id, &parse_spec(o.endpoint, &o.text)?, &runner)?;
                    }
                    refs.insert(key, reference);
                }
                refs[&key].clone()
            }
        };
        let ok = o.error.is_none() && o.status == 200 && want.as_ref().ok() == Some(&o.digest);
        report.check(ok, || {
            let why = match (&o.error, &want) {
                (Some(e), _) | (None, Err(e)) => e.clone(),
                _ if o.status != 200 => format!("HTTP {}", o.status),
                _ => "body differs from the in-process reference".to_string(),
            };
            format!("{:?} {}: {why}", o.slot, o.text)
        });
    }
    Ok(())
}

/// The serve part of the canary: a short fixed script on one connection
/// against a fresh server, recorded into `rec`.
pub fn canary_session(seed: u64, rec: &mut Recorder) -> Result<(), String> {
    const SCRIPT: [Slot; 8] = [
        Slot::Hit,
        Slot::Cold,
        Slot::Area,
        Slot::Hit,
        Slot::Job,
        Slot::Area,
        Slot::Hit,
        Slot::Cold,
    ];
    let (server, plan) = start(seed, 2, false)?;
    let addr = server.addr();
    let before = scrape(addr)?;
    let mut own = Recorder::new(true, rec.epoch());
    let probe = RssProbe::default();
    let outcomes = drive(
        &plan,
        addr,
        0,
        &mut own,
        Instant::now(),
        Some(&SCRIPT),
        &probe,
    );
    let after = scrape(addr)?;
    if let Some(o) = outcomes
        .iter()
        .find(|o| o.error.is_some() || o.status != 200)
    {
        return Err(format!("canary session: {o:?}"));
    }
    serve_counters(&mut own, &outcomes, &before, &after);
    rec.absorb(own);
    Ok(())
}

/// Runs the workload.
pub fn run(opts: &Options) -> Result<Report, String> {
    let mut speed = Speed::default();
    let ((server, plan), setup) = repeated_setup(&mut speed, || start(opts.seed, HIT_SET, true))?;
    let addr = server.addr();
    let mut report = Report::default();

    let seconds = if opts.trace {
        opts.seconds / 2.0
    } else {
        opts.seconds
    };
    let mut off = Recorder::new(false, Instant::now());
    let (untraced, mut outcomes) = timed(&plan, addr, 0, &mut off, seconds);
    report.end_to_end = untraced.end_to_end(&setup.host_s);
    // Requests here wait on sockets and the acceptor's poll more than
    // they compute, so the figures stay in host time; the set-up probes
    // are printed for comparison only.
    report.header.push(host_header(&speed));
    let mut traced = Recorder::new(opts.trace, Instant::now());
    if opts.trace {
        let before = scrape(addr)?;
        let (phase, out) = timed(&plan, addr, 1, &mut traced, seconds);
        let after = scrape(addr)?;
        serve_counters(&mut traced, &out, &before, &after);
        let stage = |t: &str, what: &str| {
            metric_sum(t, &format!("tauhls_serve_stage_cache_{what}_total{{"))
        };
        let stage_hits = stage(&after, "hits") - stage(&before, "hits");
        let stage_misses = stage(&after, "misses") - stage(&before, "misses");
        if stage_hits + stage_misses > 0.0 {
            traced.observe(
                "stage.cache_hit_ratio",
                stage_hits / (stage_hits + stage_misses),
                (stage_hits + stage_misses) as u64,
            );
        }
        record_overhead(&mut traced, &untraced, &phase);
        outcomes.extend(out);
    }
    drop(server);
    check(&plan, &outcomes, &mut traced, &mut report)?;
    if opts.trace {
        finish_traced(opts, "serve-mix", &traced, &mut report)?;
    }
    Ok(report)
}

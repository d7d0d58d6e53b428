//! `sim-sweep`: simulate and resilience specs through `JobSpec::run` on a
//! one-thread `BatchRunner`, alternating, over the six paper benchmarks
//! at their paper allocations.
//!
//! Simulate specs are fault-free (three `p` values, all four styles,
//! elastic skew 2) and take the sliced path; resilience specs run three
//! legs over the six fault kinds and take fault injection and the scalar
//! fallbacks. Every cycle sends each (kind, benchmark) once; the
//! simulation seed rotates through [`POOL_SEEDS`] from a start the
//! workload seed picks, so any eight consecutive cycles do the same work
//! whatever the seed, and the workload seed also orders every cycle.
//! Bodies are checked against digests recorded from the seed revision.

use std::collections::BTreeMap;
use std::time::Instant;

use tauhls_core::jobspec::Endpoint;
use tauhls_json::Json;
use tauhls_sim::BatchRunner;

use super::{
    finish_traced, record_overhead, repeated_setup, report_normalised, Options, Phase, PhaseClock,
};
use crate::calib::Speed;
use crate::layers::{digest, parse_spec, probe_sliced, replay, run_request};
use crate::report::{Better, Metric, Report};
use crate::stats::{derive, mean, shuffle};
use crate::trace::Recorder;

/// Reference body digests, recorded with `--record-digests`.
const DIGESTS: &str = include_str!("../../data/sim_sweep_digests.json");

/// The six paper benchmarks with their allocations `(muls, adds, subs)`
/// and trial counts `(simulate, resilience per fault kind)`. Trials are
/// sized so every request costs about 50 ms on the reference machine:
/// with equal-cost requests the latency quantiles sit inside one mode
/// instead of on the edge between two benchmarks, and every (benchmark,
/// kind) carries the same share of the run.
const BENCHES: [(&str, usize, usize, usize, u64, u64); 6] = [
    ("fir3", 2, 1, 0, 8960, 450),
    ("fir5", 2, 1, 0, 5952, 510),
    ("iir2", 2, 1, 0, 7616, 410),
    ("iir3", 3, 2, 0, 3904, 240),
    ("diffeq", 2, 1, 1, 6720, 375),
    ("ar_lattice4", 4, 2, 0, 2432, 60),
];

/// Simulation seeds every (kind, benchmark) rotates through.
pub const POOL_SEEDS: [u64; 8] = [11, 23, 37, 41, 53, 67, 79, 97];

/// One spec of the sweep.
#[derive(Clone, Debug)]
pub struct SweepSpec {
    /// `simulate` or `resilience`.
    pub endpoint: Endpoint,
    /// Benchmark name.
    pub bench: &'static str,
    /// Simulation seed inside the spec.
    pub sim_seed: u64,
    /// The spec text.
    pub text: String,
    /// Trial-legs of one request: trials × p values × four styles, or
    /// trials × six fault kinds × three legs.
    pub legs: u64,
}

impl SweepSpec {
    fn new(endpoint: Endpoint, bench: usize, sim_seed: u64) -> SweepSpec {
        let (name, m, a, s, sim_trials, res_trials) = BENCHES[bench];
        let (text, legs) = match endpoint {
            Endpoint::Simulate => (
                format!(
                    r#"{{"dfg":"{name}","muls":{m},"adds":{a},"subs":{s},"p":[0.9,0.7,0.5],"trials":{sim_trials},"seed":{sim_seed},"skew":2}}"#
                ),
                sim_trials * 3 * 4,
            ),
            _ => (
                format!(
                    r#"{{"dfg":"{name}","muls":{m},"adds":{a},"subs":{s},"p":0.7,"trials":{res_trials},"seed":{sim_seed}}}"#
                ),
                res_trials * 6 * 3,
            ),
        };
        SweepSpec {
            endpoint,
            bench: name,
            sim_seed,
            text,
            legs,
        }
    }

    /// The digest-table key.
    pub fn id(&self) -> String {
        format!(
            "{} {} {}",
            self.endpoint.as_str(),
            self.bench,
            self.sim_seed
        )
    }
}

/// Every spec of the pool: kind-major, then benchmark, then pool seed.
pub fn pool() -> Vec<SweepSpec> {
    let mut out = Vec::new();
    for endpoint in [Endpoint::Simulate, Endpoint::Resilience] {
        for bench in 0..BENCHES.len() {
            for &seed in &POOL_SEEDS {
                out.push(SweepSpec::new(endpoint, bench, seed));
            }
        }
    }
    out
}

/// The [`pool`] indices of cycle `cycle`, in sending order: simulate
/// and resilience alternate, each kind covering every benchmark once.
pub fn cycle_order(seed: u64, cycle: u64) -> Vec<usize> {
    let (benches, seeds) = (BENCHES.len() as u64, POOL_SEEDS.len() as u64);
    let kind = |k: u64| -> Vec<usize> {
        let mut picks: Vec<usize> = (0..benches)
            .map(|b| {
                let rotation = (derive(seed, &[k, b]) % seeds + cycle % seeds) % seeds;
                ((k * benches + b) * seeds + rotation) as usize
            })
            .collect();
        shuffle(&mut picks, seed, &[cycle, k]);
        picks
    };
    kind(0)
        .into_iter()
        .zip(kind(1))
        .flat_map(|(sim, res)| [sim, res])
        .collect()
}

/// Parses the digest table: spec id → digest.
pub fn digest_table(text: &str) -> Result<BTreeMap<String, u64>, String> {
    let doc = Json::parse(text).map_err(|e| format!("digest table: {e}"))?;
    let entries = doc
        .get("digests")
        .and_then(Json::as_object)
        .ok_or("digest table has no digests object")?;
    entries
        .iter()
        .map(|(id, v)| {
            let hex = v.as_str().ok_or("digest is not a string")?;
            let d = u64::from_str_radix(hex, 16).map_err(|e| format!("digest {hex}: {e}"))?;
            Ok((id.clone(), d))
        })
        .collect()
}

/// Runs every pool spec once and renders the digest table.
pub fn record_digests() -> Result<String, String> {
    let runner = BatchRunner::new(1);
    let mut off = Recorder::new(false, Instant::now());
    let mut entries = Vec::new();
    for spec in pool() {
        let (_, body) = run_request(&mut off, 0, 0, spec.endpoint, &spec.text, &runner, None)?;
        entries.push((
            spec.id(),
            Json::from(format!("{:016x}", digest(&body)).as_str()),
        ));
    }
    let doc = Json::object([
        (
            "about",
            Json::from("FNV-1a 64 digests of sim-sweep response bodies (Json::to_pretty of JobSpec::run), recorded with `perfbench --record-digests`"),
        ),
        ("revision", Json::from(crate::git_revision().as_str())),
        ("digests", Json::object(entries)),
    ]);
    Ok(doc.to_pretty())
}

/// One request's result.
struct Done {
    spec: usize,
    outcome: Result<(u64, Option<f64>), String>,
}

/// Mean DIST `average_cycles` of a simulate body over its `p` values.
fn lt_dist(doc: &Json) -> Option<f64> {
    let cycles: Vec<f64> = doc
        .get("lt_dist")?
        .get("average_cycles")?
        .as_array()?
        .iter()
        .filter_map(Json::as_f64)
        .collect();
    (!cycles.is_empty()).then(|| mean(&cycles))
}

/// Runs whole cycles (each spec once, simulate and resilience
/// alternating) until `seconds` have elapsed, probing `speed` between
/// requests.
fn timed(
    specs: &[SweepSpec],
    rec: &mut Recorder,
    speed: &mut Speed,
    seed: u64,
    seconds: f64,
    first_cycle: u64,
    done: &mut Vec<Done>,
) -> (Phase, u64) {
    let runner = BatchRunner::new(1);
    let clock = PhaseClock::start();
    let first = done.len();
    let mut intervals = Vec::new();
    let mut legs = 0;
    let mut probe_ms = 0.0;
    let mut cycle = first_cycle;
    loop {
        for i in cycle_order(seed, cycle) {
            let spec = &specs[i];
            let request = done.len() as u64;
            let start = Instant::now();
            let out = run_request(
                rec,
                request,
                i as u64,
                spec.endpoint,
                &spec.text,
                &runner,
                None,
            );
            let end = Instant::now();
            intervals.push((start, end));
            probe_ms += speed.after((end - start).as_secs_f64() * 1e3);
            legs += spec.legs;
            let outcome = out.map(|(doc, body)| (digest(&body), lt_dist(&doc)));
            done.push(Done { spec: i, outcome });
        }
        cycle += 1;
        if clock.elapsed() >= seconds {
            break;
        }
    }
    // A cycle sends each (kind, benchmark) once, whatever the seed.
    let keys = done[first..]
        .iter()
        .map(|d| d.spec / POOL_SEEDS.len())
        .collect();
    (clock.finish_passes(intervals, keys, probe_ms), legs)
}

/// Runs the workload against the recorded digests.
pub fn run(opts: &Options) -> Result<Report, String> {
    run_with_digests(opts, DIGESTS)
}

/// Runs the workload, checking bodies against the digest table `digests`.
pub fn run_with_digests(opts: &Options, digests: &str) -> Result<Report, String> {
    let mut speed = Speed::default();
    let ((specs, table), setup) = repeated_setup(&mut speed, || {
        let table = digest_table(digests)?;
        let specs = pool();
        // Warm-up: one untimed cycle, every (kind, benchmark) once.
        let runner = BatchRunner::new(1);
        let mut off = Recorder::new(false, Instant::now());
        for spec in cycle_order(opts.seed, 0).into_iter().map(|i| &specs[i]) {
            run_request(&mut off, 0, 0, spec.endpoint, &spec.text, &runner, None)?;
        }
        Ok((specs, table))
    })?;
    let mut report = Report::default();
    let mut done = Vec::new();
    let mut off = Recorder::new(false, Instant::now());
    let mut traced = Recorder::new(opts.trace, Instant::now());

    let seconds = if opts.trace {
        opts.seconds / 2.0
    } else {
        opts.seconds
    };
    let (untraced, legs) = timed(
        &specs, &mut off, &mut speed, opts.seed, seconds, 0, &mut done,
    );
    report_normalised(&mut report, &untraced, &setup, &speed);
    report.workload.push(Metric {
        name: "trials_per_s",
        value: legs as f64 / untraced.wall_s,
        unit: "1/s",
        better: Better::Higher,
        samples: untraced.latencies_ms.len() as u64,
        note: "trial-legs per host second".to_string(),
    });

    if opts.trace {
        let (phase, _) = timed(
            &specs,
            &mut traced,
            &mut Speed::default(),
            opts.seed,
            seconds,
            1 << 32,
            &mut done,
        );
        record_overhead(&mut traced, &untraced, &phase);
        let runner = BatchRunner::new(1);
        for i in cycle_order(opts.seed, 1 << 32) {
            let spec = &specs[i];
            let parsed = parse_spec(spec.endpoint, &spec.text)?;
            replay(&mut traced, i as u64, &parsed, &runner)?;
            if spec.endpoint == Endpoint::Simulate {
                probe_sliced(&mut traced, i as u64, &parsed, &runner)?;
            }
        }
    }

    // Per distinct spec: once a run has completed eight cycles this is
    // the mean over the whole pool, whatever the seed or run length.
    let mut lt = BTreeMap::new();
    for d in &done {
        let spec = &specs[d.spec];
        let want = table.get(&spec.id());
        let ok = match (&d.outcome, want) {
            (Ok((got, cycles)), Some(want)) => {
                if let Some(c) = cycles {
                    lt.insert(d.spec, *c);
                }
                got == want
            }
            _ => false,
        };
        report.check(ok, || match (&d.outcome, want) {
            (Err(e), _) => format!("{}: {e}", spec.id()),
            (_, None) => format!("{}: no reference digest", spec.id()),
            _ => format!("{}: body digest differs from the reference", spec.id()),
        });
    }
    let lt: Vec<f64> = lt.into_values().collect();
    report.workload.push(Metric {
        name: "lt_dist_cycles",
        value: mean(&lt),
        unit: "cycles",
        better: Better::Lower,
        samples: lt.len() as u64,
        note: "simulated, mean DIST average_cycles".to_string(),
    });
    if opts.trace {
        finish_traced(opts, "sim-sweep", &traced, &mut report)?;
    }
    Ok(report)
}

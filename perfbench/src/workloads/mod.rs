//! The three workloads and what they share: options, the timed-phase
//! summary, repeated set-up, the canary and the per-layer rollup.

pub mod serve_mix;
pub mod sim_sweep;
pub mod synth_suite;

use std::collections::{BTreeMap, BTreeSet};
use std::path::PathBuf;
use std::time::Instant;

use tauhls_core::jobspec::Endpoint;
use tauhls_core::StageCache;
use tauhls_sim::BatchRunner;

use crate::calib::Speed;
use crate::layers::{parse_spec, probe_sliced, replay, run_request};
use crate::report::{Metric, Report, END_TO_END, PER_LAYER};
use crate::stats::{cpu_seconds, median, peak_rss_mib, quantile, sorted, tail_q};
use crate::trace::{rollup, Recorder, Span, Stat};

/// How one run is driven.
#[derive(Clone, Debug)]
pub struct Options {
    /// Workload seed: every input is derived from it.
    pub seed: u64,
    /// Length of the timed phase in seconds.
    pub seconds: f64,
    /// Traced run: report per-layer metrics instead of end-to-end ones.
    pub trace: bool,
}

/// Set-up repetitions per run; `setup_s` is their median. Each set-up
/// does a fixed block of work of about half a second, long enough to
/// average out the sub-second speed swings of a shared host.
pub const SETUP_REPS: usize = 5;

/// Host-speed probes before each set-up and after the last, outside
/// their timing.
const SETUP_PROBES: usize = 3;

/// The set-up times of one run.
#[derive(Clone, Debug)]
pub struct SetupTimes {
    /// Host seconds of each repetition.
    pub host_s: Vec<f64>,
    /// Each repetition in reference time: divided by the host factor
    /// around it.
    pub reference_s: Vec<f64>,
}

/// Runs `setup` [`SETUP_REPS`] times, keeping the last result and every
/// duration, with host-speed probes between repetitions.
pub fn repeated_setup<T>(
    speed: &mut Speed,
    mut setup: impl FnMut() -> Result<T, String>,
) -> Result<(T, SetupTimes), String> {
    let mut reps = Vec::with_capacity(SETUP_REPS);
    let mut last = None;
    let probe = |speed: &mut Speed| {
        for _ in 0..SETUP_PROBES {
            speed.probe();
        }
    };
    for _ in 0..SETUP_REPS {
        drop(last.take());
        probe(speed);
        let start = Instant::now();
        last = Some(setup()?);
        reps.push((start, Instant::now()));
    }
    probe(speed);
    speed.end_setup();
    let host_s: Vec<f64> = reps.iter().map(|(s, e)| (*e - *s).as_secs_f64()).collect();
    let reference_s = reps
        .iter()
        .zip(&host_s)
        .map(|((s, e), t)| t / speed.factor_at(*s, *e))
        .collect();
    let times = SetupTimes {
        host_s,
        reference_s,
    };
    Ok((last.expect("SETUP_REPS > 0"), times))
}

/// What one timed phase measured.
#[derive(Clone, Debug, Default)]
pub struct Phase {
    /// Latency of every request, in completion order.
    pub latencies_ms: Vec<f64>,
    /// When each request started and ended, for in-process workloads.
    pub intervals: Vec<(Instant, Instant)>,
    /// Host seconds from the first request to the last response, less
    /// the host-speed probes in between.
    pub wall_s: f64,
    /// Process CPU seconds over the same interval, less the probes.
    pub cpu_s: f64,
    /// Peak resident memory in MiB, read when the phase ends unless the
    /// workload reads it at a fixed amount of work.
    pub rss_mib: f64,
    /// The input (cell or spec index) of each request of an in-process
    /// phase of whole passes.
    pub keys: Vec<usize>,
}

/// Starts measuring a phase; pair with [`PhaseClock::finish`].
pub struct PhaseClock {
    start: Instant,
    cpu: f64,
}

impl PhaseClock {
    /// Marks the start of a phase.
    pub fn start() -> Self {
        PhaseClock {
            cpu: cpu_seconds(),
            start: Instant::now(),
        }
    }

    /// Seconds since the start.
    pub fn elapsed(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }

    /// Closes the phase over the given request latencies.
    pub fn finish(self, latencies_ms: Vec<f64>) -> Phase {
        Phase {
            wall_s: self.start.elapsed().as_secs_f64(),
            cpu_s: cpu_seconds() - self.cpu,
            rss_mib: peak_rss_mib(),
            latencies_ms,
            intervals: Vec::new(),
            keys: Vec::new(),
        }
    }

    /// Closes a phase of whole passes over requests timed as `(start,
    /// end)` intervals, with their inputs' `keys`; `probe_ms` is the time
    /// its host-speed probes took, which the phase leaves out.
    pub fn finish_passes(
        self,
        intervals: Vec<(Instant, Instant)>,
        keys: Vec<usize>,
        probe_ms: f64,
    ) -> Phase {
        let latencies = intervals
            .iter()
            .map(|(s, e)| (*e - *s).as_secs_f64() * 1e3)
            .collect();
        let mut phase = self.finish(latencies);
        phase.wall_s -= probe_ms / 1e3;
        phase.cpu_s -= probe_ms / 1e3;
        phase.intervals = intervals;
        phase.keys = keys;
        phase
    }
}

impl Phase {
    /// Median request latency.
    pub fn p50_ms(&self) -> f64 {
        median(&self.latencies_ms)
    }

    /// The tail quantile of a phase with no structure to respect:
    /// [`tail_q`] of its request count.
    pub fn tail_q(&self) -> f64 {
        tail_q(self.latencies_ms.len())
    }

    /// The typical pass of a phase of whole passes: every input's median
    /// latency, as often as a pass sends it, in ascending order.
    pub fn typical_pass(&self) -> Vec<f64> {
        let mut by_key: BTreeMap<usize, Vec<f64>> = BTreeMap::new();
        for (key, ms) in self.keys.iter().zip(&self.latencies_ms) {
            by_key.entry(*key).or_default().push(*ms);
        }
        // Whole passes: every input appears a multiple of `passes` times.
        let passes = by_key.values().map(Vec::len).min().unwrap_or(1);
        let pass: Vec<f64> = by_key
            .values()
            .flat_map(|v| std::iter::repeat_n(median(v), v.len() / passes))
            .collect();
        sorted(&pass)
    }

    /// The [`END_TO_END`] metrics of this phase. A phase of whole passes
    /// reports its typical pass: p50 and p90 are nearest-rank quantiles
    /// of it, throughput its requests over their summed latency, and CPU
    /// that latency times the phase's CPU per second of requests. A
    /// stretch where the host slowed then moves a figure only through the
    /// inputs whose median it shifts. Any other phase reports the median
    /// and [`Phase::tail_q`] of all its requests, and its totals.
    pub fn end_to_end(&self, setup_s: &[f64]) -> Vec<Metric> {
        let n = self.latencies_ms.len();
        let (lat, q, rate, cpu, note) = if self.keys.is_empty() {
            let rate = n as f64 / self.wall_s;
            let cpu = self.cpu_s * 1e3 / n as f64;
            (sorted(&self.latencies_ms), self.tail_q(), rate, cpu, None)
        } else {
            let pass = self.typical_pass();
            let pass_s = pass.iter().sum::<f64>() / 1e3;
            let busy_s = self.latencies_ms.iter().sum::<f64>() / 1e3;
            let rate = pass.len() as f64 / pass_s;
            let cpu = self.cpu_s / busy_s * pass_s * 1e3 / pass.len() as f64;
            let note = format!("typical pass of {} requests", pass.len());
            (pass, 0.9, rate, cpu, Some(note))
        };
        let note = note.unwrap_or_default();
        let tail = match note.as_str() {
            "" => format!("p{:.1}", q * 100.0),
            pass => format!("p{:.1}, {pass}", q * 100.0),
        };
        let m = |name, value| Metric::declared(&END_TO_END, name, value, n as u64);
        vec![
            Metric::declared(
                &END_TO_END,
                "setup_s",
                median(setup_s),
                setup_s.len() as u64,
            ),
            m("requests_per_s", rate).with_note(&note),
            m("request_p50_ms", quantile(&lat, 0.5)).with_note(&note),
            m("request_p90_ms", quantile(&lat, q)).with_note(&tail),
            m("cpu_ms_per_request", cpu).with_note(&note),
            Metric::declared(&END_TO_END, "peak_rss_mb", self.rss_mib, 1),
        ]
    }

    /// This phase in reference time: each request's latency divided by
    /// the host factor around it, and the phase's host and CPU seconds
    /// scaled by the ratio of the latency sums.
    pub fn in_reference_time(&self, speed: &Speed) -> Phase {
        let latencies_ms: Vec<f64> = self
            .latencies_ms
            .iter()
            .zip(&self.intervals)
            .map(|(ms, (s, e))| ms / speed.factor_at(*s, *e))
            .collect();
        let scale = latencies_ms.iter().sum::<f64>() / self.latencies_ms.iter().sum::<f64>();
        Phase {
            latencies_ms,
            intervals: self.intervals.clone(),
            wall_s: self.wall_s * scale,
            cpu_s: self.cpu_s * scale,
            rss_mib: self.rss_mib,
            keys: self.keys.clone(),
        }
    }
}

/// Sets the end-to-end figures of a CPU-bound workload: in reference
/// time for the JSON, in host time beside them, and the host factors in
/// the header.
pub fn report_normalised(report: &mut Report, phase: &Phase, setup: &SetupTimes, speed: &Speed) {
    report.raw = phase.end_to_end(&setup.host_s);
    report.end_to_end = phase
        .in_reference_time(speed)
        .end_to_end(&setup.reference_s)
        .into_iter()
        .map(|m| {
            let note = match (m.name, m.note.as_str()) {
                ("peak_rss_mb", _) => return m,
                (_, "") => "reference time".to_string(),
                (_, other) => format!("{other}, reference time"),
            };
            m.with_note(&note)
        })
        .collect();
    report.header.push(host_header(speed));
}

/// The header line that records a run's host factors.
pub fn host_header(speed: &Speed) -> (String, String) {
    let timed = if speed.timed_probes() > 0 {
        format!("{:.4} timed, ", speed.factor())
    } else {
        String::new()
    };
    (
        "host factor".to_string(),
        format!(
            "{timed}{:.4} set-up (median probe over the reference {} ms; {} probes)",
            speed.setup_factor(),
            crate::calib::REFERENCE_MS,
            speed.probes(),
        ),
    )
}

/// The fixed canary: tiny inputs that reach every layer. In a traced
/// run, a per-layer metric the workload itself never reaches is taken
/// from the canary (and marked so), never reported as zero.
fn canary(seed: u64) -> Result<Recorder, String> {
    let mut rec = Recorder::new(true, Instant::now());
    let runner = BatchRunner::new(1);
    // The three area specs differ only in encoding, so the second and
    // third find the synthesis prefix in the stage cache.
    let stages = StageCache::new(64);
    let specs: [(Endpoint, &str); 5] = [
        (
            Endpoint::Area,
            r#"{"dfg":"fir3","muls":2,"adds":1,"subs":0,"encoding":"binary"}"#,
        ),
        (
            Endpoint::Area,
            r#"{"dfg":"fir3","muls":2,"adds":1,"subs":0,"encoding":"gray"}"#,
        ),
        (
            Endpoint::Area,
            r#"{"dfg":"fir3","muls":2,"adds":1,"subs":0,"encoding":"onehot"}"#,
        ),
        (
            Endpoint::Simulate,
            r#"{"dfg":"fir3","muls":2,"adds":1,"subs":0,"p":[0.5],"trials":512,"seed":3,"skew":2}"#,
        ),
        (
            Endpoint::Resilience,
            r#"{"dfg":"fir3","muls":2,"adds":1,"subs":0,"p":0.7,"trials":64,"seed":3}"#,
        ),
    ];
    for (key, (endpoint, text)) in specs.iter().enumerate() {
        let key = key as u64;
        let cache = (*endpoint == Endpoint::Area).then_some(&stages);
        run_request(&mut rec, key, key, *endpoint, text, &runner, cache)?;
        let spec = parse_spec(*endpoint, text)?;
        replay(&mut rec, key, &spec, &runner)?;
        if *endpoint == Endpoint::Simulate {
            probe_sliced(&mut rec, key, &spec, &runner)?;
        }
    }
    let (hits, misses) = (stages.hit_count(), stages.miss_count());
    rec.observe(
        "stage.cache_hit_ratio",
        hits as f64 / (hits + misses) as f64,
        hits + misses,
    );
    serve_mix::canary_session(seed, &mut rec)?;
    Ok(rec)
}

/// Nanoseconds of a key's replayed job work: its stage spans, or its
/// bind and sim-kernel spans — what `JobSpec::run_with` itself calls.
fn job_layer_ns(spans: &[Span], key: u64) -> u64 {
    let of = |pred: &dyn Fn(&str) -> bool| -> u64 {
        spans
            .iter()
            .filter(|s| s.key == key && pred(s.name))
            .map(Span::ns)
            .sum()
    };
    let stages = of(&|n| n.starts_with("stage."));
    if stages > 0 {
        stages
    } else {
        of(&|n| matches!(n, "sched.bind" | "sim.quad" | "sim.resilience"))
    }
}

/// Replayed layer time (ms) under which an input counts as light for
/// `core.overhead_ms`. The overhead is a difference of two separate runs
/// of the same input, so on heavy inputs the noise of the layer calls
/// (tens of ms on second-long cells) would swamp it.
const LIGHT_MS: f64 = 20.0;

/// `core.overhead_ms`: per `core.run` span of a light input that was
/// replayed, its duration minus the replay's stage or sim time. Returns
/// the median of these paired differences, their count and their
/// interquartile range.
fn core_overhead(spans: &[Span]) -> Option<(f64, u64, f64)> {
    let replayed: BTreeSet<u64> = spans
        .iter()
        .filter(|s| {
            s.name.starts_with("stage.") || s.name == "sim.quad" || s.name == "sim.resilience"
        })
        .map(|s| s.key)
        .collect();
    let mut cache = BTreeMap::new();
    let diffs: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == "core.run" && replayed.contains(&s.key))
        .filter_map(|s| {
            let layer = *cache
                .entry(s.key)
                .or_insert_with(|| job_layer_ns(spans, s.key) as f64 / 1e6);
            (layer < LIGHT_MS).then(|| s.ns() as f64 / 1e6 - layer)
        })
        .collect();
    (!diffs.is_empty()).then(|| {
        let d = sorted(&diffs);
        let iqr = quantile(&d, 0.75) - quantile(&d, 0.25);
        (quantile(&d, 0.5), d.len() as u64, iqr)
    })
}

/// One per-layer metric from a recorder and its span rollup, or `None`
/// when the recorder holds nothing for it.
fn measure(
    rec: &Recorder,
    roll: &BTreeMap<&'static str, Stat>,
    name: &'static str,
) -> Option<Metric> {
    let span_mean = |span: &str, scale: f64| {
        roll.get(span)
            .filter(|s| s.calls > 0)
            .map(|s| (s.mean_self_ms() * scale, s.calls))
    };
    let counter_mean = |c: &str| rec.counter(c).map(|(sum, n)| (sum / n as f64, n));
    let span_total_s = |names: &[&str]| -> f64 {
        names
            .iter()
            .filter_map(|n| roll.get(n))
            .map(|s| s.total_ns as f64 / 1e9)
            .sum()
    };
    const LOGIC: [&str; 3] = ["logic.onehot", "logic.binary", "logic.gray"];
    let (value, samples) = match name {
        "jobspec.parse_us" => span_mean("jobspec.parse", 1e3),
        "sched.bind_us" => span_mean("sched.bind", 1e3),
        "json.render_us" => span_mean("json.render", 1e3),
        "logic.max_controller_ms" => {
            let stats: Vec<_> = LOGIC.iter().filter_map(|s| roll.get(s)).collect();
            let calls: u64 = stats.iter().map(|s| s.calls).sum();
            (calls > 0).then(|| {
                let max = stats.iter().map(|s| s.max_ns).max().unwrap_or(0);
                (max as f64 / 1e6, calls)
            })
        }
        "sim.kernel_legs_per_s" => {
            let kernel_s = span_total_s(&["sim.quad", "sim.resilience"]);
            rec.counter("sim.legs")
                .filter(|_| kernel_s > 0.0)
                .map(|(legs, n)| (legs / kernel_s, n))
        }
        "sim.sliced_over_scalar" => match (roll.get("sim.scalar"), roll.get("sim.sliced")) {
            (Some(scalar), Some(sliced)) if sliced.total_ns > 0 => Some((
                scalar.total_ns as f64 / sliced.total_ns as f64,
                sliced.calls,
            )),
            _ => None,
        },
        "core.overhead_ms" => {
            let (value, n, iqr) = core_overhead(rec.spans())?;
            let note = format!("median, IQR {iqr:.3} ms");
            return Some(Metric::declared(&PER_LAYER, name, value, n).with_note(&note));
        }
        n if n.ends_with("_ms")
            && (n.starts_with("stage.") || n.starts_with("logic.") || n.starts_with("sim.")) =>
        {
            span_mean(&n[..n.len() - 3], 1.0)
        }
        _ => counter_mean(name),
    }?;
    Some(Metric::declared(&PER_LAYER, name, value, samples))
}

/// Every [`PER_LAYER`] metric: from the workload's own recorder where it
/// reached the layer, else from the canary's.
fn layer_metrics(own: &Recorder, canary: &Recorder) -> Vec<Metric> {
    let (own_roll, canary_roll) = (rollup(own.spans()), rollup(canary.spans()));
    PER_LAYER
        .iter()
        .map(|&(name, _, _)| {
            measure(own, &own_roll, name).unwrap_or_else(|| {
                let m = measure(canary, &canary_roll, name)
                    .unwrap_or_else(|| Metric::declared(&PER_LAYER, name, f64::NAN, 0));
                let note = match m.note.as_str() {
                    "" => "canary".to_string(),
                    other => format!("canary, {other}"),
                };
                m.with_note(&note)
            })
        })
        .collect()
}

/// The span rollup lines printed with a traced run.
fn breakdown(rec: &Recorder) -> Vec<String> {
    rollup(rec.spans())
        .iter()
        .map(|(name, s)| {
            format!(
                "{name:<20} calls {:>6} total {:>12.3} ms self {:>12.3} ms max {:>10.3} ms",
                s.calls,
                s.total_ns as f64 / 1e6,
                s.self_ns as f64 / 1e6,
                s.max_ns as f64 / 1e6
            )
        })
        .collect()
}

/// Records the traced-phase figures every workload reports: the traced
/// median request latency and its difference from the untraced one.
pub fn record_overhead(rec: &mut Recorder, untraced: &Phase, traced: &Phase) {
    let n = traced.latencies_ms.len() as u64;
    rec.observe("trace.request_ms", traced.p50_ms(), n);
    rec.observe("trace.overhead_ms", traced.p50_ms() - untraced.p50_ms(), n);
}

/// Writes the span dump of a traced run under `perfbench/out/` and
/// returns its path.
fn dump(opts: &Options, workload: &str, rec: &Recorder) -> Result<PathBuf, String> {
    let path =
        PathBuf::from("perfbench/out").join(format!("spans-{workload}-seed{}.jsonl", opts.seed));
    rec.dump(&path)
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    Ok(path)
}

/// Completes a traced run: the per-layer metrics (from the canary for
/// layers the workload never reached), the span rollup and the span dump.
pub fn finish_traced(
    opts: &Options,
    workload: &str,
    traced: &Recorder,
    report: &mut Report,
) -> Result<(), String> {
    let canary = canary(opts.seed)?;
    report.layers = layer_metrics(traced, &canary);
    report.breakdown = breakdown(traced);
    let path = dump(opts, workload, traced)?;
    report
        .header
        .push(("span dump".to_string(), path.display().to_string()));
    Ok(())
}

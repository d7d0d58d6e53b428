//! Metric declarations and the report every run prints.
//!
//! [`END_TO_END`] and [`PER_LAYER`] mirror `BENCHMARK.json` entry for
//! entry (a self-test checks it); a run that would emit a different set
//! of names fails instead of printing a result.

use std::fmt::Write as _;

/// Whether a lower or a higher value is better.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Lower is better.
    Lower,
    /// Higher is better.
    Higher,
}

impl Better {
    /// The `BENCHMARK.json` spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// A declared metric: name, unit, direction.
pub type Decl = (&'static str, &'static str, Better);

/// End-to-end metrics every workload reports with tracing off.
pub const END_TO_END: [Decl; 6] = [
    ("setup_s", "s", Better::Lower),
    ("requests_per_s", "1/s", Better::Higher),
    ("request_p50_ms", "ms", Better::Lower),
    ("request_p90_ms", "ms", Better::Lower),
    ("cpu_ms_per_request", "ms", Better::Lower),
    ("peak_rss_mb", "MiB", Better::Lower),
];

/// Per-layer metrics every workload reports from its traced run.
pub const PER_LAYER: [Decl; 32] = [
    ("jobspec.parse_us", "us", Better::Lower),
    ("stage.canonicalize_ms", "ms", Better::Lower),
    ("stage.order_ms", "ms", Better::Lower),
    ("stage.bind_ms", "ms", Better::Lower),
    ("stage.controllers_ms", "ms", Better::Lower),
    ("stage.logic_ms", "ms", Better::Lower),
    ("stage.report_ms", "ms", Better::Lower),
    ("stage.cache_hit_ratio", "ratio", Better::Higher),
    ("logic.onehot_ms", "ms", Better::Lower),
    ("logic.binary_ms", "ms", Better::Lower),
    ("logic.gray_ms", "ms", Better::Lower),
    ("logic.max_controller_ms", "ms", Better::Lower),
    ("logic.literals", "count", Better::Lower),
    ("sched.bind_us", "us", Better::Lower),
    ("sim.quad_ms", "ms", Better::Lower),
    ("sim.resilience_ms", "ms", Better::Lower),
    ("sim.kernel_legs_per_s", "1/s", Better::Higher),
    ("sim.sliced_over_scalar", "ratio", Better::Higher),
    ("core.overhead_ms", "ms", Better::Lower),
    ("json.render_us", "us", Better::Lower),
    ("json.body_bytes", "bytes", Better::Lower),
    ("serve.hit_ms", "ms", Better::Lower),
    ("serve.miss_ms", "ms", Better::Lower),
    ("serve.connect_ms", "ms", Better::Lower),
    ("serve.first_byte_ms", "ms", Better::Lower),
    ("serve.overhead_ms", "ms", Better::Lower),
    ("serve.cache_hit_ratio", "ratio", Better::Higher),
    ("serve.cache_entry_bytes", "bytes", Better::Lower),
    ("jobs.round_trip_ms", "ms", Better::Lower),
    ("jobs.polls_per_job", "count", Better::Lower),
    ("trace.overhead_ms", "ms", Better::Lower),
    ("trace.request_ms", "ms", Better::Lower),
];

/// One measured value.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Declared name.
    pub name: &'static str,
    /// The value as measured (never rounded).
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Samples behind the value.
    pub samples: u64,
    /// Where the value came from, when not obvious (e.g. `canary`).
    pub note: String,
}

impl Metric {
    /// A metric named in `decls`, with its declared unit and direction.
    pub fn declared(decls: &[Decl], name: &'static str, value: f64, samples: u64) -> Metric {
        let (_, unit, better) = decls
            .iter()
            .find(|d| d.0 == name)
            .copied()
            .unwrap_or_else(|| panic!("metric {name} is not declared"));
        Metric {
            name,
            value,
            unit,
            better,
            samples,
            note: String::new(),
        }
    }

    /// Adds a provenance note.
    pub fn with_note(mut self, note: &str) -> Metric {
        self.note = note.to_string();
        self
    }
}

/// Everything a run prints.
#[derive(Debug, Default)]
pub struct Report {
    /// `key: value` lines printed first.
    pub header: Vec<(String, String)>,
    /// The [`END_TO_END`] metrics.
    pub end_to_end: Vec<Metric>,
    /// The same metrics in host time, when [`Report::end_to_end`] holds
    /// them in reference time (printed, not in the JSON).
    pub raw: Vec<Metric>,
    /// Metrics only this workload defines (printed, not in the JSON).
    pub workload: Vec<Metric>,
    /// The [`PER_LAYER`] metrics (traced runs only).
    pub layers: Vec<Metric>,
    /// Span rollup lines of the traced run.
    pub breakdown: Vec<String>,
    /// Requests attempted.
    pub attempted: u64,
    /// Requests that failed or returned a wrong body.
    pub failed: u64,
    /// First failures, for the log.
    pub failures: Vec<String>,
}

impl Report {
    /// Counts one checked request.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failures.len() < 8 {
                self.failures.push(what());
            }
        }
    }

    /// Prints the human-readable report followed by the result JSON as
    /// the last line. Fails when the emitted names differ from the
    /// declarations.
    pub fn print(&self, traced: bool) -> Result<(), String> {
        let (metrics, decls): (&[Metric], &[Decl]) = if traced {
            (&self.layers, &PER_LAYER)
        } else {
            (&self.end_to_end, &END_TO_END)
        };
        let mut emitted: Vec<&str> = metrics.iter().map(|m| m.name).collect();
        let mut declared: Vec<&str> = decls.iter().map(|d| d.0).collect();
        emitted.sort_unstable();
        declared.sort_unstable();
        if emitted != declared {
            return Err(format!(
                "emitted metrics {emitted:?} differ from the declared {declared:?}"
            ));
        }
        if let Some(m) = metrics.iter().find(|m| !m.value.is_finite()) {
            return Err(format!("metric {} is not a finite number", m.name));
        }
        let mut out = String::new();
        for (k, v) in &self.header {
            let _ = writeln!(out, "# {k}: {v}");
        }
        let mut table = |title: &str, rows: &[Metric]| {
            if rows.is_empty() {
                return;
            }
            let _ = writeln!(out, "# {title}");
            for m in rows {
                let _ = writeln!(
                    out,
                    "#   {:<26} {:>14.6} {:<6} {:<6} n={:<6} {}",
                    m.name,
                    m.value,
                    m.unit,
                    m.better.as_str(),
                    m.samples,
                    m.note
                );
            }
        };
        table("end-to-end", &self.end_to_end);
        table("end-to-end in host time (not in the JSON)", &self.raw);
        table("workload", &self.workload);
        table("per-layer (traced run)", &self.layers);
        if !self.breakdown.is_empty() {
            let _ = writeln!(out, "# span rollup (traced run)");
            for line in &self.breakdown {
                let _ = writeln!(out, "#   {line}");
            }
        }
        let _ = writeln!(
            out,
            "# requests attempted {} failed {} error_rate {}",
            self.attempted,
            self.failed,
            self.failed as f64 / self.attempted.max(1) as f64
        );
        for f in &self.failures {
            let _ = writeln!(out, "# FAILED: {f}");
        }
        let body: Vec<String> = metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        let _ = writeln!(
            out,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0 && self.attempted > 0,
            self.attempted.max(1),
            self.failed,
            body.join(", ")
        );
        print!("{out}");
        Ok(())
    }
}

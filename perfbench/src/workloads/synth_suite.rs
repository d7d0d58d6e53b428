//! `synth-suite`: area specs through `JobSpec::run_with`, no stage cache,
//! one thread, in-process.
//!
//! A pass covers the twelve cells of `results/synth_golden.json` plus
//! fir5, iir2 and diffeq one-hot and ar_lattice4 binary, in a seeded
//! order. Logic minimisation does nearly all the work: one-hot CENT-SYNC
//! covers and wide binary D-FSM covers.

use std::time::Instant;

use tauhls_core::jobspec::Endpoint;
use tauhls_json::Json;
use tauhls_sim::BatchRunner;

use super::{
    finish_traced, record_overhead, repeated_setup, report_normalised, Options, Phase, PhaseClock,
};
use crate::calib::Speed;
use crate::layers::{digest, parse_spec, replay_synth, run_request, SynthReplay};
use crate::report::{Better, Metric, Report};
use crate::stats::shuffle;
use crate::trace::Recorder;

/// The checked-in staged-synthesis golden corpus.
const GOLDEN: &str = include_str!("../../../results/synth_golden.json");

/// Paper allocations `(muls, adds, subs)` of the suite's benchmarks.
const ALLOCATIONS: [(&str, usize, usize, usize); 6] = [
    ("fir3", 2, 1, 0),
    ("fir5", 2, 1, 0),
    ("iir2", 2, 1, 0),
    ("iir3", 3, 2, 0),
    ("diffeq", 2, 1, 1),
    ("ar_lattice4", 4, 2, 0),
];

/// The cells beyond the golden corpus; `verify_synthesis` is their check.
pub const EXTRA_CELLS: [(&str, &str); 4] = [
    ("fir5", "onehot"),
    ("iir2", "onehot"),
    ("diffeq", "onehot"),
    ("ar_lattice4", "binary"),
];

/// One (benchmark, encoding) cell.
#[derive(Clone, Debug)]
pub struct Cell {
    /// Benchmark name.
    pub bench: String,
    /// Encoding name.
    pub encoding: String,
    /// The area spec the request sends.
    pub text: String,
    /// Its golden entry, if the corpus pins it.
    pub golden: Option<Json>,
}

/// The area spec of a benchmark at its paper allocation.
pub fn area_spec(bench: &str, encoding: &str) -> Result<String, String> {
    let (_, m, a, s) = ALLOCATIONS
        .iter()
        .find(|row| row.0 == bench)
        .ok_or_else(|| format!("no paper allocation for {bench}"))?;
    Ok(format!(
        r#"{{"dfg":"{bench}","muls":{m},"adds":{a},"subs":{s},"encoding":"{encoding}"}}"#
    ))
}

/// The pass: golden cells in corpus order, then [`EXTRA_CELLS`].
pub fn cells() -> Result<Vec<Cell>, String> {
    let golden = Json::parse(GOLDEN).map_err(|e| format!("synth golden: {e}"))?;
    let entries = golden.as_array().ok_or("synth golden is not an array")?;
    let mut out = Vec::new();
    for entry in entries {
        let field = |k: &str| {
            entry
                .get(k)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("golden entry lacks {k}"))
        };
        let (bench, encoding) = (field("bench")?, field("encoding")?);
        out.push(Cell {
            text: area_spec(&bench, &encoding)?,
            bench,
            encoding,
            golden: Some(entry.clone()),
        });
    }
    for (bench, encoding) in EXTRA_CELLS {
        out.push(Cell {
            bench: bench.to_string(),
            encoding: encoding.to_string(),
            text: area_spec(bench, encoding)?,
            golden: None,
        });
    }
    Ok(out)
}

/// Structural equality with numbers compared by value, so `75` and
/// `75.0` agree.
pub fn same(a: &Json, b: &Json) -> bool {
    match (a, b) {
        (Json::Array(x), Json::Array(y)) => {
            x.len() == y.len() && x.iter().zip(y).all(|(p, q)| same(p, q))
        }
        (Json::Object(x), Json::Object(y)) => {
            x.len() == y.len()
                && x.iter()
                    .zip(y)
                    .all(|((kp, p), (kq, q))| kp == kq && same(p, q))
        }
        _ => match (a.as_f64(), b.as_f64()) {
            (Some(p), Some(q)) => p == q,
            _ => a == b,
        },
    }
}

fn hex_chain(chain: &[(&str, u64)]) -> Json {
    Json::array(chain.iter().map(|(stage, hash)| {
        Json::object([
            ("stage", Json::from(*stage)),
            ("hash", Json::from(format!("{hash:016x}").as_str())),
        ])
    }))
}

/// The controller fingerprint the golden corpus records.
fn fingerprint(r: &SynthReplay) -> (Json, Json) {
    let units = r.logic.controls().design().bound().allocation().units();
    let fsm = |syn: &tauhls_fsm::SynthesizedFsm| {
        vec![
            ("states", Json::from(syn.num_states())),
            ("flip_flops", Json::from(syn.flip_flops())),
            ("initial_code", Json::from(syn.initial_code())),
            ("area_com", Json::Float(syn.area().combinational)),
            ("area_seq", Json::Float(syn.area().sequential)),
        ]
    };
    let controllers = Json::array(r.logic.controllers().iter().map(|(u, syn)| {
        let mut cells = vec![("unit", Json::from(units[u.0].display_name().as_str()))];
        cells.extend(fsm(syn));
        Json::object(cells)
    }));
    (controllers, Json::object(fsm(r.logic.cent_sync())))
}

/// The body's report rows in the golden corpus's field names.
fn golden_rows(doc: &Json) -> Option<Json> {
    let rows = doc.get("rows")?.as_array()?;
    let keep = [
        ("name", "name"),
        ("inputs", "inputs"),
        ("outputs", "outputs"),
        ("states", "states"),
        ("flip_flops", "flip_flops"),
        ("area_combinational", "area_com"),
        ("area_sequential", "area_seq"),
    ];
    Some(Json::array(rows.iter().map(|row| {
        Json::object(
            keep.iter()
                .map(|(from, to)| (*to, row.get(from).cloned().unwrap_or(Json::Null))),
        )
    })))
}

/// Checks one cell: the replayed pipeline's controllers all pass
/// `verify_synthesis`, its hash chain equals the body's, and a golden
/// cell matches its corpus entry (hash chain, controllers, rows).
pub fn check_cell(cell: &Cell, doc: &Json, replay: &SynthReplay) -> Result<(), String> {
    let bad = replay.unverified();
    if !bad.is_empty() {
        return Err(format!("verify_synthesis failed: {}", bad.join(", ")));
    }
    let body_chain = doc.get("stages").ok_or("body has no stages")?;
    if !same(body_chain, &hex_chain(&replay.chain)) {
        return Err("body hash chain differs from the replayed pipeline".to_string());
    }
    if let Some(golden) = &cell.golden {
        let (controllers, cent_sync) = fingerprint(replay);
        let want = |k: &str| golden.get(k).ok_or_else(|| format!("golden lacks {k}"));
        if !same(body_chain, want("stages")?) {
            return Err("hash chain differs from synth_golden.json".to_string());
        }
        if !same(&controllers, want("controllers")?) || !same(&cent_sync, want("cent_sync")?) {
            return Err("controllers differ from synth_golden.json".to_string());
        }
        let rows = golden_rows(doc).ok_or("body has no rows")?;
        if !same(&rows, want("rows")?) {
            return Err("rows differ from synth_golden.json".to_string());
        }
    }
    Ok(())
}

/// Controller area (combinational + sequential) of one area body: the
/// CENT-SYNC and aggregate DIST rows (component D-FSM rows are already
/// inside the aggregate).
pub fn controller_area(doc: &Json) -> f64 {
    doc.get("rows")
        .and_then(Json::as_array)
        .unwrap_or(&[])
        .iter()
        .filter(|row| {
            !row.get("name")
                .and_then(Json::as_str)
                .unwrap_or("")
                .starts_with("D-FSM-")
        })
        .map(|row| {
            let f = |k: &str| row.get(k).and_then(Json::as_f64).unwrap_or(f64::NAN);
            f("area_combinational") + f("area_sequential")
        })
        .sum()
}

/// One request's result.
struct Done {
    cell: usize,
    outcome: Result<u64, String>,
}

/// Runs whole passes until `seconds` have elapsed (at least one pass),
/// probing `speed` between requests. Keeps the first document of each
/// cell for the checks.
#[allow(clippy::too_many_arguments)]
fn timed(
    cells: &[Cell],
    rec: &mut Recorder,
    speed: &mut Speed,
    seed: u64,
    seconds: f64,
    first_pass: u64,
    docs: &mut [Option<Json>],
    done: &mut Vec<Done>,
) -> Phase {
    let runner = BatchRunner::new(1);
    let clock = PhaseClock::start();
    let first = done.len();
    let mut intervals = Vec::new();
    let mut probe_ms = 0.0;
    let mut pass = first_pass;
    loop {
        let mut order: Vec<usize> = (0..cells.len()).collect();
        shuffle(&mut order, seed, &[pass]);
        for cell in order {
            let request = done.len() as u64;
            let start = Instant::now();
            let out = run_request(
                rec,
                request,
                cell as u64,
                Endpoint::Area,
                &cells[cell].text,
                &runner,
                None,
            );
            let end = Instant::now();
            intervals.push((start, end));
            probe_ms += speed.after((end - start).as_secs_f64() * 1e3);
            let outcome = out.map(|(doc, body)| {
                let d = digest(&body);
                if docs[cell].is_none() {
                    docs[cell] = Some(doc);
                }
                d
            });
            done.push(Done { cell, outcome });
        }
        pass += 1;
        if clock.elapsed() >= seconds {
            break;
        }
    }
    let keys = done[first..].iter().map(|d| d.cell).collect();
    clock.finish_passes(intervals, keys, probe_ms)
}

/// Runs the workload.
pub fn run(opts: &Options) -> Result<Report, String> {
    let mut speed = Speed::default();
    let (cells, setup) = repeated_setup(&mut speed, || {
        let cells = cells()?;
        // Warm-up: one untimed request per golden cell and diffeq
        // one-hot, about half a second of both kinds of logic work.
        let runner = BatchRunner::new(1);
        let mut off = Recorder::new(false, Instant::now());
        let warm = |c: &Cell| c.golden.is_some() || (c.bench == "diffeq" && c.encoding == "onehot");
        for (i, cell) in cells.iter().enumerate().filter(|(_, c)| warm(c)) {
            run_request(
                &mut off,
                0,
                i as u64,
                Endpoint::Area,
                &cell.text,
                &runner,
                None,
            )?;
        }
        Ok(cells)
    })?;
    let mut report = Report::default();
    let mut docs: Vec<Option<Json>> = vec![None; cells.len()];
    let mut done = Vec::new();
    let mut off = Recorder::new(false, Instant::now());
    let mut traced = Recorder::new(opts.trace, Instant::now());

    let seconds = if opts.trace {
        opts.seconds / 2.0
    } else {
        opts.seconds
    };
    let untraced = timed(
        &cells, &mut off, &mut speed, opts.seed, seconds, 0, &mut docs, &mut done,
    );
    report_normalised(&mut report, &untraced, &setup, &speed);
    if opts.trace {
        let phase = timed(
            &cells,
            &mut traced,
            &mut Speed::default(),
            opts.seed,
            seconds,
            1 << 32,
            &mut docs,
            &mut done,
        );
        record_overhead(&mut traced, &untraced, &phase);
    }

    // Checks: one stage-by-stage replay per cell, whose artifacts are
    // verified and compared with the body and the golden corpus. Every
    // request's body must then equal its cell's first body.
    let mut cell_ok: Vec<Result<u64, String>> = Vec::with_capacity(cells.len());
    let mut area = 0.0;
    for (i, cell) in cells.iter().enumerate() {
        let verdict = (|| {
            let doc = docs[i].as_ref().ok_or("no successful request")?;
            let spec = parse_spec(Endpoint::Area, &cell.text)?;
            let replay = replay_synth(&mut traced, i as u64, &spec)?;
            traced.observe("logic.literals", replay.literals() as f64, 1);
            check_cell(cell, doc, &replay)?;
            area += controller_area(doc);
            Ok(digest(&doc.to_pretty()))
        })();
        cell_ok.push(verdict);
    }
    for d in &done {
        let cell = &cells[d.cell];
        let ok = match (&d.outcome, &cell_ok[d.cell]) {
            (Ok(got), Ok(want)) => got == want,
            _ => false,
        };
        report.check(ok, || {
            let why = match (&d.outcome, &cell_ok[d.cell]) {
                (Err(e), _) | (_, Err(e)) => e.clone(),
                _ => "body differs from the cell's first body".to_string(),
            };
            format!("{} {}: {why}", cell.bench, cell.encoding)
        });
    }
    report.workload.push(Metric {
        name: "area_ge",
        value: area,
        unit: "GE",
        better: Better::Lower,
        samples: cells.len() as u64,
        note: "modelled, one pass".to_string(),
    });
    if opts.trace {
        finish_traced(opts, "synth-suite", &traced, &mut report)?;
    }
    Ok(report)
}

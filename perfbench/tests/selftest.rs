//! Self-tests of the benchmark itself. They run the real workloads for
//! one pass or cycle each, so run them optimised:
//! `cargo test --release --manifest-path perfbench/Cargo.toml`.

use tauhls_core::jobspec::Endpoint;
use tauhls_json::Json;
use tauhls_perfbench::layers::{parse_spec, replay_synth, run_request};
use tauhls_perfbench::report::{Decl, END_TO_END, PER_LAYER};
use tauhls_perfbench::trace::Recorder;
use tauhls_perfbench::workloads::{sim_sweep, synth_suite, Options, Phase};
use tauhls_perfbench::{run, WORKLOADS};
use tauhls_sim::BatchRunner;

fn opts(seed: u64) -> Options {
    Options {
        seed,
        // Shorter than any pass or cycle: each run does exactly one.
        seconds: 1e-3,
        trace: false,
    }
}

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    Json::parse(&text).expect("BENCHMARK.json is JSON")
}

fn declared(doc: &Json, key: &str) -> Vec<(String, String, String)> {
    doc.get(key)
        .and_then(Json::as_array)
        .unwrap_or_else(|| panic!("BENCHMARK.json lacks {key}"))
        .iter()
        .map(|m| {
            let f = |k: &str| m.get(k).and_then(Json::as_str).unwrap_or("").to_string();
            (f("name"), f("unit"), f("better"))
        })
        .collect()
}

fn decls(list: &[Decl]) -> Vec<(String, String, String)> {
    list.iter()
        .map(|(n, u, b)| (n.to_string(), u.to_string(), b.as_str().to_string()))
        .collect()
}

#[test]
fn reported_names_match_benchmark_json() {
    let doc = benchmark_json();
    assert_eq!(declared(&doc, "end_to_end"), decls(&END_TO_END));
    assert_eq!(declared(&doc, "per_layer"), decls(&PER_LAYER));
    let workloads: Vec<String> = doc
        .get("workloads")
        .and_then(Json::as_array)
        .expect("workloads")
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(Json::as_str)
                .unwrap_or("")
                .to_string()
        })
        .collect();
    assert_eq!(workloads, WORKLOADS);

    // A real run emits exactly the declared end-to-end names.
    let report = run("sim-sweep", &opts(3)).expect("sim-sweep runs");
    let mut names: Vec<&str> = report.end_to_end.iter().map(|m| m.name).collect();
    names.sort_unstable();
    let mut want: Vec<&str> = END_TO_END.iter().map(|d| d.0).collect();
    want.sort_unstable();
    assert_eq!(names, want);
    assert_eq!(report.failed, 0, "{:?}", report.failures);
}

fn workload_value(report: &tauhls_perfbench::report::Report, name: &str) -> f64 {
    report
        .workload
        .iter()
        .find(|m| m.name == name)
        .unwrap_or_else(|| panic!("no {name}"))
        .value
}

#[test]
fn modelled_and_simulated_figures_repeat_exactly_for_a_seed() {
    let a = synth_suite::run(&opts(5)).expect("synth-suite runs");
    let b = synth_suite::run(&opts(5)).expect("synth-suite runs");
    assert_eq!(a.failed, 0, "{:?}", a.failures);
    assert_eq!(
        workload_value(&a, "area_ge").to_bits(),
        workload_value(&b, "area_ge").to_bits()
    );
    let c = sim_sweep::run(&opts(5)).expect("sim-sweep runs");
    let d = sim_sweep::run(&opts(5)).expect("sim-sweep runs");
    assert_eq!(
        workload_value(&c, "lt_dist_cycles").to_bits(),
        workload_value(&d, "lt_dist_cycles").to_bits()
    );
}

#[test]
fn a_corrupted_reference_digest_is_counted_as_a_failure() {
    let seed = 9;
    let victim = sim_sweep::pool()[sim_sweep::cycle_order(seed, 0)[0]].id();
    let table = sim_sweep::digest_table(include_str!("../data/sim_sweep_digests.json"))
        .expect("digest table parses");
    let good = format!("{:016x}", table[&victim]);
    let text = include_str!("../data/sim_sweep_digests.json")
        .replace(&good, &format!("{:016x}", !table[&victim]));
    let report = sim_sweep::run_with_digests(&opts(seed), &text).expect("sim-sweep runs");
    assert!(report.failed >= 1, "the corrupted digest went unnoticed");
    assert!(
        report.failed < report.attempted,
        "only the victim spec fails"
    );
}

#[test]
fn a_corrupted_golden_cell_is_caught() {
    let cells = synth_suite::cells().expect("golden corpus parses");
    let cell = &cells[0];
    let runner = BatchRunner::new(1);
    let mut off = Recorder::new(false, std::time::Instant::now());
    let (doc, _) =
        run_request(&mut off, 0, 0, Endpoint::Area, &cell.text, &runner, None).expect("runs");
    let spec = parse_spec(Endpoint::Area, &cell.text).expect("parses");
    let replay = replay_synth(&mut off, 0, &spec).expect("replays");
    synth_suite::check_cell(cell, &doc, &replay).expect("the real body passes");

    let mut corrupted = cell.clone();
    let golden = corrupted.golden.as_mut().expect("a golden cell");
    let Json::Object(fields) = golden else {
        panic!("golden entry is an object")
    };
    for (key, value) in fields.iter_mut() {
        if key == "cent_sync" {
            if let Json::Object(inner) = value {
                for (k, v) in inner.iter_mut() {
                    if k == "area_com" {
                        *v = Json::Float(v.as_f64().unwrap_or(0.0) + 1.0);
                    }
                }
            }
        }
    }
    assert!(synth_suite::check_cell(&corrupted, &doc, &replay).is_err());
}

/// A phase of `passes` whole synth-suite passes in which cell `c`'s
/// requests take `c + 1` ms, and each pass is 0.1 ms slower than the
/// last.
fn synth_phase(passes: usize) -> Phase {
    let cells = synth_suite::cells().expect("golden corpus parses").len();
    let keys: Vec<usize> = (0..passes).flat_map(|_| 0..cells).collect();
    let latencies_ms = keys
        .iter()
        .enumerate()
        .map(|(i, &c)| 1.0 + c as f64 + (i / cells) as f64 * 0.1)
        .collect();
    Phase {
        latencies_ms,
        keys,
        cpu_s: 1.0,
        ..Phase::default()
    }
}

#[test]
fn synth_suite_quantiles_name_one_cell_for_any_pass_count() {
    for passes in [3, 4, 5, 6, 9] {
        let phase = synth_phase(passes);
        let value = |name: &str| {
            phase
                .end_to_end(&[1.0])
                .into_iter()
                .find(|m| m.name == name)
                .expect("declared")
                .value
        };
        // The median pass's latencies: 1, 2, ..., 16 ms plus its offset.
        let offset = (passes - 1) / 2;
        let cell = |c: usize| 1.0 + c as f64 + offset as f64 * 0.1;
        // p50 is the 8th of 16 cells, p90 the 15th (nearest rank).
        assert_eq!(value("request_p50_ms"), cell(7), "{passes} passes");
        assert_eq!(value("request_p90_ms"), cell(14), "{passes} passes");
        let pass_ms: f64 = (0..16).map(cell).sum();
        let rate = value("requests_per_s");
        assert!((rate - 16e3 / pass_ms).abs() < 1e-9, "{passes} passes");
    }
}

//! Requests run in-process, and the replay of a request's input through
//! the public functions of each layer it reaches.
//!
//! The replay is how the traced run times layers from outside: the same
//! input goes through `stages::run_stage` per stage, `tauhls_fsm::
//! synthesize` per controller, `BoundDfg::bind`, `latency_quad_batch`,
//! `resilience_sweep_with` and `SimJob::{run, run_scalar}`, each call in
//! its own span. Untraced runs replay synthesis too, because its
//! artifacts are what `verify_synthesis` checks.

use std::hint::black_box;
use std::sync::Arc;

use tauhls_core::jobspec::{Endpoint, JobSpec};
use tauhls_core::resilience::{resilience_sweep_with, FAULT_KINDS};
use tauhls_core::stages::{
    run_stage, Bind, Canonicalize, GenerateControllers, Order, Report, SynthesisInput,
    SynthesizeLogic, SynthesizedLogic,
};
use tauhls_core::{BindStrategy, PipelineTrace, StageCache};
use tauhls_dfg::{Dfg, DfgRegistry, DfgSource};
use tauhls_fsm::{synthesize, verify_synthesis, Encoding};
use tauhls_json::Json;
use tauhls_logic::AreaModel;
use tauhls_sched::{Allocation, BoundDfg};
use tauhls_sim::{
    latency_quad_batch, BatchRunner, CompletionModel, ControlStyle, ControlStyleSet, SimJob,
};

use crate::trace::Recorder;

/// Parses a spec text and runs it the way the service does, returning
/// the response document and its rendered body. Inside a `request` span
/// when tracing: `jobspec.parse` (JSON text to `JobSpec`), `core.run`
/// (`JobSpec::run_with`) and `json.render` (`Json::to_pretty`).
pub fn run_request(
    rec: &mut Recorder,
    request: u64,
    key: u64,
    endpoint: Endpoint,
    text: &str,
    runner: &BatchRunner,
    stage_cache: Option<&StageCache>,
) -> Result<(Json, String), String> {
    rec.span("request", request, key, |rec| {
        let spec = rec.span("jobspec.parse", request, key, |_| {
            parse_spec(endpoint, text)
        })?;
        let (doc, _) = rec
            .span("core.run", request, key, |_| {
                spec.run_with(runner, stage_cache)
            })
            .map_err(|e| e.to_string())?;
        let body = rec.span("json.render", request, key, |_| doc.to_pretty());
        rec.observe("json.body_bytes", body.len() as f64, 1);
        Ok((doc, body))
    })
}

/// Parses a spec text for `endpoint`.
pub fn parse_spec(endpoint: Endpoint, text: &str) -> Result<JobSpec, String> {
    let doc = Json::parse(text).map_err(|e| format!("spec is not JSON: {e}"))?;
    JobSpec::from_json(endpoint, &doc).map_err(|e| e.to_string())
}

/// FNV-1a 64 of a body: the digest every body check compares.
pub fn digest(body: &str) -> u64 {
    let mut h = tauhls_core::stages::Fnv64::new();
    h.write(body.as_bytes());
    h.finish()
}

/// The artifacts of one replayed synthesis.
pub struct SynthReplay {
    /// The logic stage's artifact.
    pub logic: Arc<SynthesizedLogic>,
    /// `(stage, output hash)` in stage order.
    pub chain: Vec<(&'static str, u64)>,
}

impl SynthReplay {
    /// Checks every controller (each D-FSM and CENT-SYNC) with
    /// `tauhls_fsm::verify_synthesis`; returns the failing ones.
    pub fn unverified(&self) -> Vec<String> {
        let controls = self.logic.controls();
        let encoding = self.logic.encoding();
        let mut bad = Vec::new();
        for ((unit, fsm), (_, syn)) in controls
            .distributed()
            .controllers()
            .iter()
            .zip(self.logic.controllers())
        {
            if !verify_synthesis(fsm, syn, encoding) {
                bad.push(format!("D-FSM of unit {}", unit.0));
            }
        }
        if !verify_synthesis(controls.cent_sync(), self.logic.cent_sync(), encoding) {
            bad.push("CENT-SYNC".to_string());
        }
        bad
    }

    /// Literals over every synthesized controller.
    pub fn literals(&self) -> u64 {
        self.logic
            .controllers()
            .iter()
            .map(|(_, syn)| syn)
            .chain([self.logic.cent_sync()])
            .map(|syn| u64::from(syn.area().literals))
            .sum()
    }
}

fn graph_and_allocation(
    dfg: &DfgSource,
    muls: usize,
    adds: usize,
    subs: usize,
) -> Result<(Dfg, Allocation), String> {
    Ok((
        dfg.resolve(DfgRegistry::builtin())?,
        Allocation::paper(muls, adds, subs),
    ))
}

fn bind(rec: &mut Recorder, key: u64, graph: &Dfg, alloc: &Allocation, chains: bool) -> BoundDfg {
    rec.span("sched.bind", key, key, |_| {
        if chains {
            BoundDfg::bind_chains(graph, alloc)
        } else {
            BoundDfg::bind(graph, alloc)
        }
    })
}

fn logic_span(encoding: Encoding) -> &'static str {
    match encoding {
        Encoding::Binary => "logic.binary",
        Encoding::Gray => "logic.gray",
        Encoding::OneHot => "logic.onehot",
    }
}

/// Replays a synth or area spec stage by stage (no stage cache). When
/// tracing, also times `synthesize` once per controller.
pub fn replay_synth(rec: &mut Recorder, key: u64, spec: &JobSpec) -> Result<SynthReplay, String> {
    let (dfg, muls, adds, subs, chains, encoding) = match spec {
        JobSpec::Synth(s) => (&s.dfg, s.muls, s.adds, s.subs, s.chains, s.encoding),
        JobSpec::Area(s) => (&s.dfg, s.muls, s.adds, s.subs, s.chains, s.encoding),
        _ => return Err("not a synthesis spec".to_string()),
    };
    let (graph, allocation) = graph_and_allocation(dfg, muls, adds, subs)?;
    black_box(bind(rec, key, &graph, &allocation, chains));
    let input = SynthesisInput {
        dfg: graph,
        allocation,
        strategy: if chains {
            BindStrategy::Chains
        } else {
            BindStrategy::LeftEdge
        },
    };
    let model = AreaModel::default();
    let mut trace = PipelineTrace::default();
    let t = &mut trace;
    let err = |e: tauhls_core::SynthesisError| e.to_string();
    let canonical = rec
        .span("stage.canonicalize", key, key, |_| {
            run_stage(&Canonicalize, &input, None, t)
        })
        .map_err(err)?;
    let ordered = rec
        .span("stage.order", key, key, |_| {
            run_stage(&Order, &canonical, None, t)
        })
        .map_err(err)?;
    let bound = rec
        .span("stage.bind", key, key, |_| {
            run_stage(&Bind, &ordered, None, t)
        })
        .map_err(err)?;
    let controls = rec
        .span("stage.controllers", key, key, |_| {
            run_stage(&GenerateControllers { centralized: false }, &bound, None, t)
        })
        .map_err(err)?;
    let logic = rec
        .span("stage.logic", key, key, |_| {
            run_stage(&SynthesizeLogic { encoding, model }, &controls, None, t)
        })
        .map_err(err)?;
    rec.span("stage.report", key, key, |_| {
        run_stage(&Report, &logic, None, t)
    })
    .map_err(err)?;
    if rec.enabled() {
        let name = logic_span(encoding);
        let fsms = controls
            .distributed()
            .controllers()
            .iter()
            .map(|(_, fsm)| fsm)
            .chain([controls.cent_sync()]);
        for fsm in fsms {
            black_box(rec.span(name, key, key, |_| synthesize(fsm, encoding, &model)));
        }
    }
    Ok(SynthReplay {
        logic,
        chain: trace.hash_chain(),
    })
}

/// Trials of the sliced-against-scalar probe, per benchmark.
pub const PROBE_TRIALS: u64 = 2048;

/// Replays a simulate or resilience spec: `BoundDfg::bind`, then the sim
/// kernel entry point the job runs. Returns the trial-legs it simulated.
pub fn replay_sim(
    rec: &mut Recorder,
    key: u64,
    spec: &JobSpec,
    runner: &BatchRunner,
) -> Result<u64, String> {
    match spec {
        JobSpec::Simulate(s) => {
            let (graph, alloc) = graph_and_allocation(&s.dfg, s.muls, s.adds, s.subs)?;
            let bound = bind(rec, key, &graph, &alloc, s.chains);
            rec.span("sim.quad", key, key, |_| {
                latency_quad_batch(&bound, &s.p_values, s.trials, s.seed, s.elastic, runner)
            })
            .map_err(|e| e.to_string())?;
            Ok(s.trials * s.p_values.len() as u64 * 4)
        }
        JobSpec::Resilience(s) => {
            let (graph, alloc) = graph_and_allocation(&s.dfg, s.muls, s.adds, s.subs)?;
            let bound = bind(rec, key, &graph, &alloc, s.chains);
            black_box(rec.span("sim.resilience", key, key, |_| {
                resilience_sweep_with(&bound, s.p, s.trials, s.seed, &s.options(), runner)
            }));
            let legs = [
                ControlStyleSet::DIST,
                ControlStyleSet::CENT,
                ControlStyleSet::ELASTIC,
            ]
            .into_iter()
            .filter(|&leg| s.styles.contains(leg))
            .count() as u64;
            Ok(s.trials * FAULT_KINDS.len() as u64 * legs)
        }
        _ => Err("not a simulation spec".to_string()),
    }
}

/// Times the sliced DIST engine against its scalar oracle on one bound
/// graph (`sim.sliced` and `sim.scalar` spans); fails if their
/// statistics differ.
pub fn probe_sliced(
    rec: &mut Recorder,
    key: u64,
    spec: &JobSpec,
    runner: &BatchRunner,
) -> Result<(), String> {
    let JobSpec::Simulate(s) = spec else {
        return Err("the sliced probe takes a simulate spec".to_string());
    };
    let (graph, alloc) = graph_and_allocation(&s.dfg, s.muls, s.adds, s.subs)?;
    let bound = BoundDfg::bind(&graph, &alloc);
    let model = CompletionModel::Bernoulli { p: 0.5 };
    let job = SimJob::new(&bound, ControlStyle::Distributed, &model).trials(PROBE_TRIALS);
    let sliced = rec.span("sim.sliced", key, key, |_| job.run(s.seed, runner));
    let scalar = rec.span("sim.scalar", key, key, |_| job.run_scalar(s.seed, runner));
    if sliced != scalar {
        return Err(format!(
            "{}: sliced and scalar DIST statistics differ",
            graph.name()
        ));
    }
    Ok(())
}

/// Replays any spec through the layers it reaches, recording the
/// trial-legs its sim-kernel call simulated (`sim.legs`).
pub fn replay(
    rec: &mut Recorder,
    key: u64,
    spec: &JobSpec,
    runner: &BatchRunner,
) -> Result<(), String> {
    match spec.endpoint() {
        Endpoint::Synth | Endpoint::Area => replay_synth(rec, key, spec).map(|r| {
            rec.observe("logic.literals", r.literals() as f64, 1);
        }),
        Endpoint::Simulate | Endpoint::Resilience => {
            let legs = replay_sim(rec, key, spec, runner)?;
            rec.observe("sim.legs", legs as f64, 1);
            Ok(())
        }
        other => Err(format!("no replay for {}", other.as_str())),
    }
}

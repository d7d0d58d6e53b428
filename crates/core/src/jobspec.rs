//! Canonical job specifications shared by the CLI and the simulation
//! service.
//!
//! A [`JobSpec`] is the validated, fully-materialized form of a request
//! against one of the service endpoints (`simulate`, `table2`,
//! `resilience`). Parsing is strict — unknown keys, duplicate keys, wrong
//! types, and out-of-range values are all rejected with one-line messages
//! — and every optional field is materialized to its default, so two
//! requests that mean the same job normalize to the same
//! [`JobSpec::canonical`] rendering regardless of field order, omitted
//! defaults, or numeric spelling (`[1]` vs `[1.0]`). That rendering,
//! serialized compactly, is the content-addressed [`JobSpec::cache_key`]:
//! equal keys imply byte-identical responses, because the batch engine is
//! bit-deterministic in `(spec, seed)`.

use std::borrow::Cow;
use std::fmt;

use tauhls_dfg::{benchmarks, canonical_wire, parse_wire_dfg, Dfg, DfgRegistry};
use tauhls_fsm::Encoding;
use tauhls_json::{Json, JsonRef, ToJson};
use tauhls_logic::AreaModel;
use tauhls_sched::{Allocation, BoundDfg};
use tauhls_sim::{
    enhancement_percent, latency_quad_batch, BatchRunner, ControlStyleSet, ElasticSpec,
    LatencySummary, SimError,
};

use crate::experiments::table2;
use crate::explore::{design_space, SweepError, SweepParams, SweepPoint};
use crate::report::system_area_from_logic;
use crate::resilience::{resilience_sweep_with, ResilienceOptions};
use crate::stages::{
    self, BindStrategy, PipelineTrace, StageCache, StageRecord, SynthesisInput, SynthesizedLogic,
};
use crate::{SynthesisError, Timing};

/// Upper bound on Monte-Carlo trials a single job may request.
pub const MAX_TRIALS: u64 = 1_000_000;
/// Upper bound on the number of `P` values in one sweep.
pub const MAX_P_VALUES: usize = 16;
/// Upper bound on the byte length of an inline DFG description.
pub const MAX_DFG_TEXT: usize = 64 * 1024;
/// Upper bound on any one unit count (`muls`/`adds`/`subs`).
pub const MAX_UNITS: usize = 64;
/// Upper bound on the datapath width of an area estimate: the widest
/// ripple-carry adder and subtractor `tauhls-datapath` builds.
pub const MAX_WIDTH: u64 = 64;
/// Upper bound on a per-class unit maximum in an explore sweep.
pub const MAX_EXPLORE_UNITS: usize = 8;
/// Upper bound on the elastic skew bound and handshake latency a job may
/// request (the watchdog budget scales linearly with both).
pub const MAX_SKEW: u64 = 16;
/// Upper bound on swept SD/LD clock ratios in one explore job.
pub const MAX_RATIOS: usize = 8;
/// Upper bound on the full explore grid (allocations × encodings × `P`
/// values × ratios), enforced at parse time so a spec that parses is
/// guaranteed to finish in bounded work.
pub const MAX_EXPLORE_POINTS: usize = 4096;

/// The benchmark DFGs a job may name, in registry order (the canonical
/// [`benchmarks::NAMES`] registry).
pub const BENCHMARKS: [&str; 7] = benchmarks::NAMES;

fn benchmark(name: &str) -> Option<Dfg> {
    benchmarks::by_name(name)
}

/// The service endpoints a [`JobSpec`] can target.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Endpoint {
    /// One DFG, three controller styles, a `P` sweep.
    Simulate,
    /// The paper's Table 2 over the built-in benchmark suite.
    Table2,
    /// Fault-injection sweep over every fault kind.
    Resilience,
    /// Staged controller synthesis: artifact-hash chain plus per-unit
    /// controller logic.
    Synth,
    /// Table-1-style controller area rows plus the full-system estimate.
    Area,
    /// Design-space exploration: allocation × encoding × SD/LD ratio ×
    /// completion probability, with the latency/area Pareto frontier.
    Explore,
}

impl Endpoint {
    /// The endpoint's path segment (`simulate` in `POST /v1/simulate`).
    pub fn as_str(self) -> &'static str {
        match self {
            Endpoint::Simulate => "simulate",
            Endpoint::Table2 => "table2",
            Endpoint::Resilience => "resilience",
            Endpoint::Synth => "synth",
            Endpoint::Area => "area",
            Endpoint::Explore => "explore",
        }
    }

    /// Parses a path segment back into an endpoint.
    pub fn parse(s: &str) -> Option<Endpoint> {
        Some(match s {
            "simulate" => Endpoint::Simulate,
            "table2" => Endpoint::Table2,
            "resilience" => Endpoint::Resilience,
            "synth" => Endpoint::Synth,
            "area" => Endpoint::Area,
            "explore" => Endpoint::Explore,
            _ => return None,
        })
    }
}

pub(crate) fn encoding_name(encoding: Encoding) -> &'static str {
    match encoding {
        Encoding::Binary => "binary",
        Encoding::Gray => "gray",
        Encoding::OneHot => "onehot",
    }
}

pub(crate) fn parse_encoding(s: &str) -> Option<Encoding> {
    Some(match s {
        "binary" => Encoding::Binary,
        "gray" => Encoding::Gray,
        "onehot" => Encoding::OneHot,
        _ => return None,
    })
}

pub use tauhls_dfg::DfgSource;

/// Resolves a [`DfgSource`] against the built-in benchmark registry —
/// the only registry the service exposes. `DfgSource` itself is
/// registry-agnostic, so embedders can resolve the same specs against
/// their own [`DfgRegistry`].
pub(crate) fn build_dfg(source: &DfgSource) -> Result<Dfg, String> {
    source.resolve(DfgRegistry::builtin())
}

/// Validated spec for `POST /v1/simulate`.
#[derive(Clone, Debug, PartialEq)]
pub struct SimulateSpec {
    /// The graph to bind and simulate.
    pub dfg: DfgSource,
    /// Telescopic multipliers allocated.
    pub muls: usize,
    /// Adders allocated.
    pub adds: usize,
    /// Subtractors allocated.
    pub subs: usize,
    /// `true` → chain binding, `false` → left-edge (the default).
    pub chains: bool,
    /// Short-completion probabilities to sweep.
    pub p_values: Vec<f64>,
    /// Monte-Carlo trials.
    pub trials: u64,
    /// Base RNG seed (part of the cache key: same spec, same bytes).
    pub seed: u64,
    /// Clock-domain parameters of the `LT_ELAS` leg.
    pub elastic: ElasticSpec,
}

/// Validated spec for `POST /v1/table2`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Table2Spec {
    /// Monte-Carlo trials per benchmark row.
    pub trials: u64,
    /// Base RNG seed.
    pub seed: u64,
}

/// Validated spec for `POST /v1/resilience`.
#[derive(Clone, Debug, PartialEq)]
pub struct ResilienceSpec {
    /// The graph to bind and inject faults into.
    pub dfg: DfgSource,
    /// Telescopic multipliers allocated.
    pub muls: usize,
    /// Adders allocated.
    pub adds: usize,
    /// Subtractors allocated.
    pub subs: usize,
    /// `true` → chain binding, `false` → left-edge (the default).
    pub chains: bool,
    /// Short-completion probability of the completion draws.
    pub p: f64,
    /// Trials per fault kind.
    pub trials: u64,
    /// Base RNG seed.
    pub seed: u64,
    /// Engine legs to run; always contains the distributed leg.
    pub styles: ControlStyleSet,
    /// Clock-domain parameters of the elastic leg.
    pub elastic: ElasticSpec,
}

impl ResilienceSpec {
    /// The sweep options this spec describes — shared by whole-job
    /// execution and distributed partitions, so both run the same legs.
    pub fn options(&self) -> ResilienceOptions {
        ResilienceOptions {
            styles: self.styles,
            elastic: self.elastic,
        }
    }
}

/// Validated spec for `POST /v1/synth`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SynthSpec {
    /// The graph to synthesize controllers for.
    pub dfg: DfgSource,
    /// Telescopic multipliers allocated.
    pub muls: usize,
    /// Adders allocated.
    pub adds: usize,
    /// Subtractors allocated.
    pub subs: usize,
    /// `true` → chain binding, `false` → left-edge (the default).
    pub chains: bool,
    /// The state encoding for logic synthesis.
    pub encoding: Encoding,
}

/// Validated spec for `POST /v1/area`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AreaSpec {
    /// The graph to estimate.
    pub dfg: DfgSource,
    /// Telescopic multipliers allocated.
    pub muls: usize,
    /// Adders allocated.
    pub adds: usize,
    /// Subtractors allocated.
    pub subs: usize,
    /// `true` → chain binding, `false` → left-edge (the default).
    pub chains: bool,
    /// The state encoding for logic synthesis.
    pub encoding: Encoding,
    /// Datapath operand width of the system estimate.
    pub width: u32,
}

/// Validated spec for `POST /v1/dfg/explore` (also reachable as
/// `POST /v1/explore`): sweep the allocation space of a graph crossed
/// with state encodings, SD/LD clock ratios, and short-completion
/// probabilities, and report the latency/area Pareto frontier.
#[derive(Clone, Debug, PartialEq)]
pub struct ExploreSpec {
    /// The graph whose design space is swept.
    pub dfg: DfgSource,
    /// Highest telescopic-multiplier count to consider.
    pub max_muls: usize,
    /// Highest adder count.
    pub max_adds: usize,
    /// Highest subtractor count.
    pub max_subs: usize,
    /// State encodings to sweep in the area estimate.
    pub encodings: Vec<Encoding>,
    /// Short-completion probabilities to sweep.
    pub p_values: Vec<f64>,
    /// SD/LD clock-period ratios to sweep; each in `[0.5, 1]` so a long
    /// operation still fits in at most two short cycles.
    pub sd_ld: Vec<f64>,
    /// Elastic skew bounds to sweep; `0` measures the synchronous
    /// distributed controllers, `s > 0` the elastic (GALS) controllers.
    pub skew: Vec<u64>,
    /// Monte-Carlo trials per allocation point.
    pub trials: u64,
    /// Datapath width for the area model.
    pub width: u32,
    /// Base RNG seed.
    pub seed: u64,
}

impl ExploreSpec {
    /// The [`SweepParams`] this spec describes — the single source of
    /// truth shared by whole-job execution and distributed partitions, so
    /// both enumerate and seed the identical grid.
    pub fn sweep_params(&self) -> SweepParams {
        SweepParams {
            max_muls: self.max_muls,
            max_adds: self.max_adds,
            max_subs: self.max_subs,
            encodings: self.encodings.clone(),
            p_values: self.p_values.clone(),
            sd_ld: self.sd_ld.clone(),
            skew: self.skew.clone(),
            trials: self.trials,
            width: self.width,
            seed: self.seed,
        }
    }
}

/// One validated, canonicalized service job.
#[derive(Clone, Debug, PartialEq)]
pub enum JobSpec {
    /// `POST /v1/simulate`.
    Simulate(SimulateSpec),
    /// `POST /v1/table2`.
    Table2(Table2Spec),
    /// `POST /v1/resilience`.
    Resilience(ResilienceSpec),
    /// `POST /v1/synth`.
    Synth(SynthSpec),
    /// `POST /v1/area`.
    Area(AreaSpec),
    /// `POST /v1/dfg/explore`.
    Explore(ExploreSpec),
}

/// Why a job could not be completed, pre-sorted into HTTP status classes.
#[derive(Clone, Debug, PartialEq)]
pub enum JobError {
    /// The request itself was malformed (HTTP 400).
    Invalid(String),
    /// The job was cancelled before it finished, e.g. during a graceful
    /// drain (HTTP 503); no partial result is produced or cached.
    Cancelled,
    /// The simulation failed abnormally (HTTP 500).
    Failed(String),
}

impl fmt::Display for JobError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JobError::Invalid(m) => write!(f, "invalid job spec: {m}"),
            JobError::Cancelled => write!(f, "job cancelled before completion"),
            JobError::Failed(m) => write!(f, "simulation failed: {m}"),
        }
    }
}

impl std::error::Error for JobError {}

impl JobError {
    pub(crate) fn from_sim(err: SimError) -> JobError {
        match err {
            SimError::Cancelled => JobError::Cancelled,
            SimError::InvalidConfig(m) => JobError::Invalid(m),
            other => JobError::Failed(other.to_string()),
        }
    }

    pub(crate) fn from_synthesis(err: SynthesisError) -> JobError {
        // Every synthesis failure is a property of the request (bad graph,
        // bad allocation, bad binding), so they all map to HTTP 400.
        JobError::Invalid(err.to_string())
    }
}

// ---------------------------------------------------------------------------
// Strict field extraction
// ---------------------------------------------------------------------------

/// Strict reader over a parsed JSON object: every key must be known, no
/// key may repeat, and each extractor enforces its field's type and range.
///
/// Operates on borrowed [`JsonRef`] pairs so the service's hot request
/// path can decode a spec straight out of the request buffer without
/// per-field string allocations; owned [`Json`] documents go through the
/// [`JsonRef::from_owned`] bridge.
struct Fields<'a> {
    pairs: &'a [(Cow<'a, str>, JsonRef<'a>)],
}

impl<'a> Fields<'a> {
    fn new(spec: &'a JsonRef<'a>, allowed: &[&str]) -> Result<Fields<'a>, String> {
        let pairs = spec
            .as_object()
            .ok_or_else(|| "job spec must be a JSON object".to_string())?;
        Fields::over(pairs, allowed)
    }

    fn over(
        pairs: &'a [(Cow<'a, str>, JsonRef<'a>)],
        allowed: &[&str],
    ) -> Result<Fields<'a>, String> {
        for (i, (key, _)) in pairs.iter().enumerate() {
            if !allowed.contains(&key.as_ref()) {
                return Err(format!(
                    "unknown field '{key}' (allowed: {})",
                    allowed.join(", ")
                ));
            }
            if pairs[..i].iter().any(|(k, _)| k == key) {
                return Err(format!("duplicate field '{key}'"));
            }
        }
        Ok(Fields { pairs })
    }

    fn get(&self, key: &str) -> Option<&'a JsonRef<'a>> {
        self.pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    fn u64_in(&self, key: &str, default: u64, min: u64, max: u64) -> Result<u64, String> {
        let v = match self.get(key) {
            None => default,
            Some(j) => j
                .as_u64()
                .ok_or_else(|| format!("'{key}' must be a non-negative integer"))?,
        };
        if v < min || v > max {
            return Err(format!("'{key}' must be in {min}..={max}, got {v}"));
        }
        Ok(v)
    }

    fn usize_in(&self, key: &str, default: usize, max: usize) -> Result<usize, String> {
        Ok(self.u64_in(key, default as u64, 0, max as u64)? as usize)
    }

    fn seed(&self) -> Result<u64, String> {
        self.u64_in("seed", 2003, 0, u64::MAX)
    }

    fn probability(&self, key: &str, default: f64) -> Result<f64, String> {
        let v = match self.get(key) {
            None => default,
            Some(j) => j
                .as_f64()
                .ok_or_else(|| format!("'{key}' must be a number"))?,
        };
        if !(0.0..=1.0).contains(&v) {
            return Err(format!("'{key}' must be a probability in [0, 1], got {v}"));
        }
        Ok(v)
    }

    fn p_values(&self) -> Result<Vec<f64>, String> {
        let Some(j) = self.get("p") else {
            return Ok(vec![0.9, 0.7, 0.5]);
        };
        let items = j
            .as_array()
            .ok_or_else(|| "'p' must be an array of probabilities".to_string())?;
        if items.is_empty() || items.len() > MAX_P_VALUES {
            return Err(format!("'p' must hold 1..={MAX_P_VALUES} values"));
        }
        items
            .iter()
            .map(|item| {
                let v = item
                    .as_f64()
                    .ok_or_else(|| "'p' must be an array of numbers".to_string())?;
                if !(0.0..=1.0).contains(&v) {
                    return Err(format!("'p' entries must be in [0, 1], got {v}"));
                }
                Ok(v)
            })
            .collect()
    }

    fn encoding(&self) -> Result<Encoding, String> {
        match self.get("encoding") {
            None => Ok(Encoding::Binary),
            Some(j) => j.as_str().and_then(parse_encoding).ok_or_else(|| {
                "'encoding' must be \"binary\", \"gray\", or \"onehot\"".to_string()
            }),
        }
    }

    fn encodings(&self) -> Result<Vec<Encoding>, String> {
        let Some(j) = self.get("encodings") else {
            return Ok(vec![Encoding::Binary]);
        };
        let items = j
            .as_array()
            .ok_or_else(|| "'encodings' must be an array of encoding names".to_string())?;
        if items.is_empty() || items.len() > 3 {
            return Err("'encodings' must hold 1..=3 names".to_string());
        }
        let mut out = Vec::new();
        for item in items {
            let enc = item.as_str().and_then(parse_encoding).ok_or_else(|| {
                "'encodings' entries must be \"binary\", \"gray\", or \"onehot\"".to_string()
            })?;
            if out.contains(&enc) {
                return Err(format!("duplicate encoding '{}'", encoding_name(enc)));
            }
            out.push(enc);
        }
        Ok(out)
    }

    fn ratios(&self) -> Result<Vec<f64>, String> {
        let Some(j) = self.get("sd_ld") else {
            // The paper's operating point: SD = 15 ns against LD = 20 ns.
            return Ok(vec![0.75]);
        };
        let items = j
            .as_array()
            .ok_or_else(|| "'sd_ld' must be an array of clock ratios".to_string())?;
        if items.is_empty() || items.len() > MAX_RATIOS {
            return Err(format!("'sd_ld' must hold 1..={MAX_RATIOS} values"));
        }
        items
            .iter()
            .map(|item| {
                let v = item
                    .as_f64()
                    .ok_or_else(|| "'sd_ld' must be an array of numbers".to_string())?;
                // Below 1/2 a long operation no longer fits in two short
                // cycles, which breaks the telescopic timing model.
                if !(0.5..=1.0).contains(&v) {
                    return Err(format!("'sd_ld' ratios must be in [0.5, 1], got {v}"));
                }
                Ok(v)
            })
            .collect()
    }

    fn skew_list(&self) -> Result<Vec<u64>, String> {
        let Some(j) = self.get("skew") else {
            // Default: the synchronous clocking discipline only.
            return Ok(vec![0]);
        };
        let items = j
            .as_array()
            .ok_or_else(|| "'skew' must be an array of skew bounds".to_string())?;
        if items.is_empty() || items.len() > MAX_RATIOS {
            return Err(format!("'skew' must hold 1..={MAX_RATIOS} values"));
        }
        let mut out = Vec::new();
        for item in items {
            let v = item
                .as_u64()
                .ok_or_else(|| "'skew' entries must be non-negative integers".to_string())?;
            if v > MAX_SKEW {
                return Err(format!("'skew' bounds must be at most {MAX_SKEW}, got {v}"));
            }
            if out.contains(&v) {
                return Err(format!("duplicate skew bound {v}"));
            }
            out.push(v);
        }
        Ok(out)
    }

    fn elastic(&self) -> Result<ElasticSpec, String> {
        let d = ElasticSpec::default();
        Ok(ElasticSpec {
            skew_bound: self.u64_in("skew", u64::from(d.skew_bound), 0, MAX_SKEW)? as u32,
            sync_latency: self.u64_in("sync_latency", u64::from(d.sync_latency), 0, MAX_SKEW)?
                as u32,
        })
    }

    fn styles(&self) -> Result<ControlStyleSet, String> {
        let Some(j) = self.get("styles") else {
            return Ok(ControlStyleSet::DIST | ControlStyleSet::CENT | ControlStyleSet::ELASTIC);
        };
        let set = if let Some(s) = j.as_str() {
            ControlStyleSet::parse(s)?
        } else if let Some(items) = j.as_array() {
            let mut set = ControlStyleSet::empty();
            for item in items {
                let name = item
                    .as_str()
                    .ok_or_else(|| "'styles' entries must be style names".to_string())?;
                set = set | ControlStyleSet::parse_one(name)?;
            }
            if set.is_empty() {
                return Err("'styles' must name at least one style".to_string());
            }
            set
        } else {
            return Err(
                "'styles' must be a comma-separated string or an array of style names".to_string(),
            );
        };
        if set.contains(ControlStyleSet::TAU) {
            return Err("'styles' supports dist, cent, and elastic here".to_string());
        }
        if !set.contains(ControlStyleSet::DIST) {
            return Err("'styles' must include 'dist' (the engine under test)".to_string());
        }
        Ok(set)
    }

    fn binding(&self) -> Result<bool, String> {
        match self.get("binding") {
            None => Ok(false),
            Some(j) => match j.as_str() {
                Some("left-edge") => Ok(false),
                Some("chains") => Ok(true),
                _ => Err("'binding' must be \"left-edge\" or \"chains\"".to_string()),
            },
        }
    }

    fn dfg(&self) -> Result<DfgSource, String> {
        match (self.get("dfg"), self.get("dfg_text")) {
            (Some(_), Some(_)) => Err("give either 'dfg' or 'dfg_text', not both".to_string()),
            (Some(j), None) => {
                if let Some(name) = j.as_str() {
                    if benchmark(name).is_none() {
                        return Err(format!(
                            "unknown benchmark '{name}' (one of: {})",
                            BENCHMARKS.join(", ")
                        ));
                    }
                    return Ok(DfgSource::Named(name.to_string()));
                }
                if j.as_object().is_some() {
                    // An inline wire-format graph. Validate it fully here
                    // and retain the *canonical* rendering, so every JSON
                    // spelling of the same graph shares one cache key and
                    // one job id. Byte offsets in the error refer to the
                    // compact rendering of the 'dfg' object.
                    let text = j.clone().into_owned().to_compact();
                    if text.len() > MAX_DFG_TEXT {
                        return Err(format!(
                            "'dfg' exceeds {MAX_DFG_TEXT} bytes ({} given)",
                            text.len()
                        ));
                    }
                    let graph = parse_wire_dfg(&text).map_err(|e| format!("dfg: {e}"))?;
                    return Ok(DfgSource::InlineWire(canonical_wire(&graph)));
                }
                Err("'dfg' must be a benchmark name string or an inline graph object".to_string())
            }
            (None, Some(j)) => {
                let text = j
                    .as_str()
                    .ok_or_else(|| "'dfg_text' must be a string".to_string())?;
                if text.len() > MAX_DFG_TEXT {
                    return Err(format!(
                        "'dfg_text' exceeds {MAX_DFG_TEXT} bytes ({} given)",
                        text.len()
                    ));
                }
                Ok(DfgSource::InlineText(text.to_string()))
            }
            (None, None) => Ok(DfgSource::Named("fir5".to_string())),
        }
    }
}

/// Parse-time validation for the synthesis endpoints: the graph must
/// build, be non-empty, and be coverable by the allocation — so a spec
/// that parses is guaranteed to synthesize.
fn check_synthesizable(
    dfg: &DfgSource,
    muls: usize,
    adds: usize,
    subs: usize,
) -> Result<(), String> {
    let graph = build_dfg(dfg)?;
    if graph.num_ops() == 0 {
        return Err(format!("graph '{}' has no operations", graph.name()));
    }
    if !Allocation::paper(muls, adds, subs).covers(&graph) {
        return Err("allocation lacks a unit for a used operation class".to_string());
    }
    Ok(())
}

pub(crate) fn bind_spec(
    dfg: &DfgSource,
    muls: usize,
    adds: usize,
    subs: usize,
    chains: bool,
) -> Result<BoundDfg, String> {
    let graph = build_dfg(dfg)?;
    let alloc = Allocation::paper(muls, adds, subs);
    if !alloc.covers(&graph) {
        return Err("allocation lacks a unit for a used operation class".to_string());
    }
    Ok(if chains {
        BoundDfg::bind_chains(&graph, &alloc)
    } else {
        BoundDfg::bind(&graph, &alloc)
    })
}

/// Renders a trace's artifact-hash chain as a JSON array of
/// `{stage, hash}` objects, hashes as fixed-width hex — deliberately
/// without wall times, which vary run to run and would break the
/// byte-identical response-cache guarantee.
fn stage_hashes(trace: &PipelineTrace) -> Json {
    Json::array(
        trace
            .hash_chain()
            .into_iter()
            .map(|(stage, hash)| {
                Json::object([
                    ("stage", Json::from(stage)),
                    ("hash", Json::from(format!("{hash:016x}").as_str())),
                ])
            })
            .collect::<Vec<_>>(),
    )
}

/// The deterministic `/v1/synth` payload: one row per unit controller plus
/// the synchronizing CENT-SYNC-FSM.
fn synth_body(logic: &SynthesizedLogic) -> Json {
    let units = logic.controls().design().bound().allocation().units();
    let fsm_cells = |syn: &tauhls_fsm::SynthesizedFsm| {
        vec![
            ("states", Json::from(syn.num_states())),
            ("flip_flops", Json::from(syn.flip_flops())),
            ("inputs", Json::from(syn.num_inputs())),
            ("outputs", Json::from(syn.num_outputs())),
            ("area_combinational", Json::Float(syn.area().combinational)),
            ("area_sequential", Json::Float(syn.area().sequential)),
        ]
    };
    let controllers: Vec<Json> = logic
        .controllers()
        .iter()
        .map(|(unit, syn)| {
            let mut cells = vec![("unit", Json::from(units[unit.0].display_name().as_str()))];
            cells.extend(fsm_cells(syn));
            Json::object(cells)
        })
        .collect();
    Json::object([
        ("encoding", Json::from(encoding_name(logic.encoding()))),
        ("controllers", Json::array(controllers)),
        ("cent_sync", Json::object(fsm_cells(logic.cent_sync()))),
    ])
}

impl JobSpec {
    /// Parses and fully validates a job spec for `endpoint`.
    ///
    /// Strict by design: unknown or duplicate fields, wrong types,
    /// out-of-range values, unknown benchmarks, unparsable inline DFGs,
    /// and allocations that cannot cover the graph are all rejected here,
    /// so a spec that parses is guaranteed to run (absent cancellation).
    pub fn from_json(endpoint: Endpoint, spec: &Json) -> Result<JobSpec, JobError> {
        let view = JsonRef::from_owned(spec);
        JobSpec::parse(endpoint, &view).map_err(JobError::Invalid)
    }

    /// [`JobSpec::from_json`] over a borrowed document — the zero-copy
    /// entry the service's request path uses: field names and string
    /// values are read in place from the request buffer and only the
    /// strings the spec retains (benchmark names, inline DFG text) are
    /// copied out.
    pub fn from_json_ref(endpoint: Endpoint, spec: &JsonRef<'_>) -> Result<JobSpec, JobError> {
        JobSpec::parse(endpoint, spec).map_err(JobError::Invalid)
    }

    /// Parses a [`JobSpec::canonical`] document back into a spec: the
    /// embedded `endpoint` field selects the variant and the remaining
    /// fields re-validate exactly like a fresh request. This is the
    /// re-entry point for durable job journals, which persist the
    /// canonical rendering; round-tripping preserves the cache key.
    pub fn from_canonical(doc: &Json) -> Result<JobSpec, JobError> {
        let pairs = doc
            .as_object()
            .ok_or_else(|| JobError::Invalid("canonical spec must be a JSON object".to_string()))?;
        let endpoint = pairs
            .iter()
            .find(|(k, _)| k == "endpoint")
            .and_then(|(_, v)| v.as_str())
            .and_then(Endpoint::parse)
            .ok_or_else(|| {
                JobError::Invalid("canonical spec must name a known 'endpoint'".to_string())
            })?;
        let rest: Vec<(Cow<'_, str>, JsonRef<'_>)> = pairs
            .iter()
            .filter(|(k, _)| k != "endpoint")
            .map(|(k, v)| (Cow::Borrowed(k.as_str()), JsonRef::from_owned(v)))
            .collect();
        let view = JsonRef::Object(rest);
        JobSpec::parse(endpoint, &view).map_err(JobError::Invalid)
    }

    fn parse(endpoint: Endpoint, spec: &JsonRef<'_>) -> Result<JobSpec, String> {
        match endpoint {
            Endpoint::Simulate => {
                let f = Fields::new(
                    spec,
                    &[
                        "dfg",
                        "dfg_text",
                        "muls",
                        "adds",
                        "subs",
                        "binding",
                        "p",
                        "trials",
                        "seed",
                        "skew",
                        "sync_latency",
                    ],
                )?;
                let s = SimulateSpec {
                    dfg: f.dfg()?,
                    muls: f.usize_in("muls", 2, MAX_UNITS)?,
                    adds: f.usize_in("adds", 1, MAX_UNITS)?,
                    subs: f.usize_in("subs", 1, MAX_UNITS)?,
                    chains: f.binding()?,
                    p_values: f.p_values()?,
                    trials: f.u64_in("trials", 2000, 1, MAX_TRIALS)?,
                    seed: f.seed()?,
                    elastic: f.elastic()?,
                };
                bind_spec(&s.dfg, s.muls, s.adds, s.subs, s.chains)?;
                Ok(JobSpec::Simulate(s))
            }
            Endpoint::Table2 => {
                let f = Fields::new(spec, &["trials", "seed"])?;
                Ok(JobSpec::Table2(Table2Spec {
                    trials: f.u64_in("trials", 2000, 1, MAX_TRIALS)?,
                    seed: f.seed()?,
                }))
            }
            Endpoint::Resilience => {
                let f = Fields::new(
                    spec,
                    &[
                        "dfg",
                        "dfg_text",
                        "muls",
                        "adds",
                        "subs",
                        "binding",
                        "p",
                        "trials",
                        "seed",
                        "styles",
                        "skew",
                        "sync_latency",
                    ],
                )?;
                let s = ResilienceSpec {
                    dfg: f.dfg()?,
                    muls: f.usize_in("muls", 2, MAX_UNITS)?,
                    adds: f.usize_in("adds", 1, MAX_UNITS)?,
                    subs: f.usize_in("subs", 1, MAX_UNITS)?,
                    chains: f.binding()?,
                    p: f.probability("p", 0.5)?,
                    trials: f.u64_in("trials", 2000, 1, MAX_TRIALS)?,
                    seed: f.seed()?,
                    styles: f.styles()?,
                    elastic: f.elastic()?,
                };
                bind_spec(&s.dfg, s.muls, s.adds, s.subs, s.chains)?;
                Ok(JobSpec::Resilience(s))
            }
            Endpoint::Synth => {
                let f = Fields::new(
                    spec,
                    &[
                        "dfg", "dfg_text", "muls", "adds", "subs", "binding", "encoding",
                    ],
                )?;
                let s = SynthSpec {
                    dfg: f.dfg()?,
                    muls: f.usize_in("muls", 2, MAX_UNITS)?,
                    adds: f.usize_in("adds", 1, MAX_UNITS)?,
                    subs: f.usize_in("subs", 1, MAX_UNITS)?,
                    chains: f.binding()?,
                    encoding: f.encoding()?,
                };
                check_synthesizable(&s.dfg, s.muls, s.adds, s.subs)?;
                Ok(JobSpec::Synth(s))
            }
            Endpoint::Area => {
                let f = Fields::new(
                    spec,
                    &[
                        "dfg", "dfg_text", "muls", "adds", "subs", "binding", "encoding", "width",
                    ],
                )?;
                let s = AreaSpec {
                    dfg: f.dfg()?,
                    muls: f.usize_in("muls", 2, MAX_UNITS)?,
                    adds: f.usize_in("adds", 1, MAX_UNITS)?,
                    subs: f.usize_in("subs", 1, MAX_UNITS)?,
                    chains: f.binding()?,
                    encoding: f.encoding()?,
                    width: f.u64_in("width", 16, 1, MAX_WIDTH)? as u32,
                };
                check_synthesizable(&s.dfg, s.muls, s.adds, s.subs)?;
                Ok(JobSpec::Area(s))
            }
            Endpoint::Explore => {
                let f = Fields::new(
                    spec,
                    &[
                        "dfg",
                        "dfg_text",
                        "max_muls",
                        "max_adds",
                        "max_subs",
                        "encodings",
                        "p",
                        "sd_ld",
                        "skew",
                        "trials",
                        "width",
                        "seed",
                    ],
                )?;
                let s = ExploreSpec {
                    dfg: f.dfg()?,
                    max_muls: f.usize_in("max_muls", 4, MAX_EXPLORE_UNITS)?,
                    max_adds: f.usize_in("max_adds", 2, MAX_EXPLORE_UNITS)?,
                    max_subs: f.usize_in("max_subs", 2, MAX_EXPLORE_UNITS)?,
                    encodings: f.encodings()?,
                    p_values: f.p_values()?,
                    sd_ld: f.ratios()?,
                    skew: f.skew_list()?,
                    trials: f.u64_in("trials", 400, 1, MAX_TRIALS)?,
                    width: f.u64_in("width", 16, 1, MAX_WIDTH)? as u32,
                    seed: f.seed()?,
                };
                // The maximal allocation must cover the graph, so at least
                // one swept point is feasible.
                check_synthesizable(&s.dfg, s.max_muls, s.max_adds, s.max_subs)?;
                let grid = s.max_muls.max(1)
                    * s.max_adds.max(1)
                    * s.max_subs.max(1)
                    * s.encodings.len()
                    * s.p_values.len()
                    * s.sd_ld.len()
                    * s.skew.len();
                if grid > MAX_EXPLORE_POINTS {
                    return Err(format!(
                        "explore grid of {grid} points exceeds {MAX_EXPLORE_POINTS} \
                         (shrink the unit maxima or the swept lists)"
                    ));
                }
                Ok(JobSpec::Explore(s))
            }
        }
    }

    /// The endpoint this spec targets.
    pub fn endpoint(&self) -> Endpoint {
        match self {
            JobSpec::Simulate(_) => Endpoint::Simulate,
            JobSpec::Table2(_) => Endpoint::Table2,
            JobSpec::Resilience(_) => Endpoint::Resilience,
            JobSpec::Synth(_) => Endpoint::Synth,
            JobSpec::Area(_) => Endpoint::Area,
            JobSpec::Explore(_) => Endpoint::Explore,
        }
    }

    /// Monte-Carlo trials this job will run (table2: per benchmark row;
    /// resilience: per fault kind; zero for the synthesis endpoints, which
    /// run no simulation) — the unit of the service's trials-per-second
    /// gauge.
    pub fn trials(&self) -> u64 {
        match self {
            JobSpec::Simulate(s) => s.trials,
            JobSpec::Table2(s) => s.trials,
            JobSpec::Resilience(s) => s.trials,
            JobSpec::Explore(s) => s.trials,
            JobSpec::Synth(_) | JobSpec::Area(_) => 0,
        }
    }

    /// The canonical rendering: every field materialized, in one fixed
    /// order, with the endpoint embedded — the value whose compact form is
    /// [`JobSpec::cache_key`].
    pub fn canonical(&self) -> Json {
        fn dfg_pair(dfg: &DfgSource) -> (&'static str, Json) {
            match dfg {
                DfgSource::Named(name) => ("dfg", Json::from(name.as_str())),
                DfgSource::InlineText(text) => ("dfg_text", Json::from(text.as_str())),
                DfgSource::InlineWire(text) => (
                    // The stored text is the canonical compact rendering
                    // the wire parser itself produced, so it re-parses by
                    // construction; embedding it as a JSON object (not a
                    // string) keeps the canonical spec self-describing and
                    // makes `from_canonical` re-validate it like a fresh
                    // request.
                    "dfg",
                    Json::parse(text).unwrap_or_else(|_| Json::from(text.as_str())),
                ),
            }
        }
        fn binding(chains: bool) -> Json {
            Json::from(if chains { "chains" } else { "left-edge" })
        }
        match self {
            JobSpec::Simulate(s) => Json::object([
                ("endpoint", Json::from("simulate")),
                dfg_pair(&s.dfg),
                ("muls", Json::from(s.muls)),
                ("adds", Json::from(s.adds)),
                ("subs", Json::from(s.subs)),
                ("binding", binding(s.chains)),
                ("p", Json::floats(&s.p_values)),
                ("trials", Json::from(s.trials)),
                ("seed", Json::from(s.seed)),
                ("skew", Json::from(u64::from(s.elastic.skew_bound))),
                (
                    "sync_latency",
                    Json::from(u64::from(s.elastic.sync_latency)),
                ),
            ]),
            JobSpec::Table2(s) => Json::object([
                ("endpoint", Json::from("table2")),
                ("trials", Json::from(s.trials)),
                ("seed", Json::from(s.seed)),
            ]),
            JobSpec::Resilience(s) => Json::object([
                ("endpoint", Json::from("resilience")),
                dfg_pair(&s.dfg),
                ("muls", Json::from(s.muls)),
                ("adds", Json::from(s.adds)),
                ("subs", Json::from(s.subs)),
                ("binding", binding(s.chains)),
                ("p", Json::Float(s.p)),
                ("trials", Json::from(s.trials)),
                ("seed", Json::from(s.seed)),
                (
                    "styles",
                    Json::array(
                        s.styles
                            .names()
                            .into_iter()
                            .map(Json::from)
                            .collect::<Vec<_>>(),
                    ),
                ),
                ("skew", Json::from(u64::from(s.elastic.skew_bound))),
                (
                    "sync_latency",
                    Json::from(u64::from(s.elastic.sync_latency)),
                ),
            ]),
            JobSpec::Synth(s) => Json::object([
                ("endpoint", Json::from("synth")),
                dfg_pair(&s.dfg),
                ("muls", Json::from(s.muls)),
                ("adds", Json::from(s.adds)),
                ("subs", Json::from(s.subs)),
                ("binding", binding(s.chains)),
                ("encoding", Json::from(encoding_name(s.encoding))),
            ]),
            JobSpec::Area(s) => Json::object([
                ("endpoint", Json::from("area")),
                dfg_pair(&s.dfg),
                ("muls", Json::from(s.muls)),
                ("adds", Json::from(s.adds)),
                ("subs", Json::from(s.subs)),
                ("binding", binding(s.chains)),
                ("encoding", Json::from(encoding_name(s.encoding))),
                ("width", Json::from(s.width as u64)),
            ]),
            JobSpec::Explore(s) => Json::object([
                ("endpoint", Json::from("explore")),
                dfg_pair(&s.dfg),
                ("max_muls", Json::from(s.max_muls)),
                ("max_adds", Json::from(s.max_adds)),
                ("max_subs", Json::from(s.max_subs)),
                (
                    "encodings",
                    Json::array(
                        s.encodings
                            .iter()
                            .map(|e| Json::from(encoding_name(*e)))
                            .collect::<Vec<_>>(),
                    ),
                ),
                ("p", Json::floats(&s.p_values)),
                ("sd_ld", Json::floats(&s.sd_ld)),
                (
                    "skew",
                    Json::array(s.skew.iter().map(|&v| Json::from(v)).collect::<Vec<_>>()),
                ),
                ("trials", Json::from(s.trials)),
                ("width", Json::from(s.width as u64)),
                ("seed", Json::from(s.seed)),
            ]),
        }
    }

    /// The content address of this job: the compact canonical rendering.
    /// Two specs with equal keys produce byte-identical responses, because
    /// every field feeding the simulation (seed included) is in the key
    /// and the batch engine is bit-deterministic.
    pub fn cache_key(&self) -> String {
        self.canonical().to_compact()
    }

    /// The content-derived job identifier: the FNV-1a 64-bit hash of
    /// [`JobSpec::cache_key`], as 16 lowercase hex digits. Resubmitting an
    /// identical spec therefore addresses the same job — submission is
    /// idempotent by construction — and the ID is stable across restarts,
    /// which is what lets a replayed journal reconnect status polls to
    /// recovered jobs.
    pub fn job_id(&self) -> String {
        let mut h = stages::Fnv64::new();
        h.write(self.cache_key().as_bytes());
        format!("{:016x}", h.finish())
    }

    /// Runs the job to its JSON response body on `runner`.
    ///
    /// A runner carrying a tripped [`tauhls_sim::CancelToken`] yields
    /// [`JobError::Cancelled`] — never a partial result — so a draining
    /// server cannot poison its cache.
    pub fn run(&self, runner: &BatchRunner) -> Result<Json, JobError> {
        self.run_with(runner, None).map(|(body, _)| body)
    }

    /// Like [`JobSpec::run`], threading an optional shared [`StageCache`]
    /// through the synthesis endpoints and returning the executed
    /// [`StageRecord`]s alongside the body (empty for the simulation
    /// endpoints).
    ///
    /// The response body is a pure function of the spec — per-stage wall
    /// times live only in the records, so a stage-cache hit is
    /// byte-identical to the cold run and response caching stays sound.
    ///
    /// # Errors
    ///
    /// As [`JobSpec::run`].
    pub fn run_with(
        &self,
        runner: &BatchRunner,
        stage_cache: Option<&StageCache>,
    ) -> Result<(Json, Vec<StageRecord>), JobError> {
        match self {
            JobSpec::Synth(s) => {
                let (logic, _, trace) = self.synthesize(
                    &s.dfg,
                    s.muls,
                    s.adds,
                    s.subs,
                    s.chains,
                    s.encoding,
                    stage_cache,
                )?;
                let body = Json::object([
                    ("spec", self.canonical()),
                    ("stages", stage_hashes(&trace)),
                    ("synth", synth_body(&logic)),
                ]);
                Ok((body, trace.records))
            }
            JobSpec::Area(s) => {
                let (logic, reports, trace) = self.synthesize(
                    &s.dfg,
                    s.muls,
                    s.adds,
                    s.subs,
                    s.chains,
                    s.encoding,
                    stage_cache,
                )?;
                let system = system_area_from_logic(&logic, &AreaModel::default(), s.width);
                let rows: Vec<Json> = reports
                    .rows()
                    .iter()
                    .map(|r| {
                        Json::object([
                            ("name", Json::from(r.name.as_str())),
                            ("inputs", Json::from(r.inputs)),
                            ("outputs", Json::from(r.outputs)),
                            ("states", Json::from(r.states)),
                            ("flip_flops", Json::from(r.flip_flops)),
                            ("area_combinational", Json::Float(r.area_combinational)),
                            ("area_sequential", Json::Float(r.area_sequential)),
                        ])
                    })
                    .collect();
                let body = Json::object([
                    ("spec", self.canonical()),
                    ("stages", stage_hashes(&trace)),
                    ("rows", Json::array(rows)),
                    ("system", system.to_json()),
                ]);
                Ok((body, trace.records))
            }
            JobSpec::Explore(s) => {
                let graph = build_dfg(&s.dfg).map_err(JobError::Invalid)?;
                let params = s.sweep_params();
                let (points, records) = design_space(&graph, &params, runner, stage_cache)
                    .map_err(|e| match e {
                        SweepError::Sim(err) => JobError::from_sim(err),
                        SweepError::Synthesis(err) => JobError::from_synthesis(err),
                    })?;
                Ok((self.explore_body(&graph, &points), records))
            }
            _ => self.run_simulation(runner).map(|body| (body, Vec::new())),
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn synthesize(
        &self,
        dfg: &DfgSource,
        muls: usize,
        adds: usize,
        subs: usize,
        chains: bool,
        encoding: Encoding,
        stage_cache: Option<&StageCache>,
    ) -> Result<
        (
            std::sync::Arc<SynthesizedLogic>,
            std::sync::Arc<stages::Reports>,
            PipelineTrace,
        ),
        JobError,
    > {
        let graph = build_dfg(dfg).map_err(JobError::Invalid)?;
        let input = SynthesisInput {
            dfg: graph,
            allocation: Allocation::paper(muls, adds, subs),
            strategy: if chains {
                BindStrategy::Chains
            } else {
                BindStrategy::LeftEdge
            },
        };
        let mut trace = PipelineTrace::default();
        let (logic, reports) = stages::run_full(
            &input,
            false,
            encoding,
            &AreaModel::default(),
            stage_cache,
            &mut trace,
        )
        .map_err(JobError::from_synthesis)?;
        Ok((logic, reports, trace))
    }

    fn run_simulation(&self, runner: &BatchRunner) -> Result<Json, JobError> {
        match self {
            JobSpec::Simulate(s) => {
                let bound = bind_spec(&s.dfg, s.muls, s.adds, s.subs, s.chains)
                    .map_err(JobError::Invalid)?;
                let (tau, dist, cent, elas) =
                    latency_quad_batch(&bound, &s.p_values, s.trials, s.seed, s.elastic, runner)
                        .map_err(JobError::from_sim)?;
                Ok(self.simulate_body(&tau, &dist, &cent, &elas))
            }
            JobSpec::Table2(s) => {
                let t = table2(s.trials as usize, s.seed, runner).map_err(JobError::from_sim)?;
                Ok(Json::object([
                    ("spec", self.canonical()),
                    ("table2", t.to_json()),
                ]))
            }
            JobSpec::Resilience(s) => {
                let bound = bind_spec(&s.dfg, s.muls, s.adds, s.subs, s.chains)
                    .map_err(JobError::Invalid)?;
                let report =
                    resilience_sweep_with(&bound, s.p, s.trials, s.seed, &s.options(), runner);
                // `resilience_sweep` folds whatever chunks ran; surface a
                // cancellation instead of returning (and caching) a
                // partially-populated report.
                runner.check_cancelled().map_err(JobError::from_sim)?;
                Ok(self.resilience_body(&report))
            }
            // The synthesis and exploration endpoints are dispatched by
            // `run_with` before this helper is reached.
            JobSpec::Synth(_) | JobSpec::Area(_) | JobSpec::Explore(_) => {
                unreachable!("synthesis endpoints handled in run_with")
            }
        }
    }

    /// Renders the `/v1/simulate` response body from the four measured
    /// latency summaries. Shared by the local execution path and the
    /// distributed merge, so a body assembled from partition partials is
    /// byte-identical to a single-node run by construction.
    pub(crate) fn simulate_body(
        &self,
        tau: &LatencySummary,
        dist: &LatencySummary,
        cent: &LatencySummary,
        elas: &LatencySummary,
    ) -> Json {
        let clk = Timing::default().clock_ns();
        let cells = |summary: &LatencySummary| {
            Json::object([
                ("best_cycles", Json::from(summary.best_cycles)),
                ("average_cycles", Json::floats(&summary.average_cycles)),
                ("worst_cycles", Json::from(summary.worst_cycles)),
                (
                    "rendered_ns",
                    Json::from(summary.to_ns_string(clk).as_str()),
                ),
            ])
        };
        let enhancement = enhancement_percent(tau, dist);
        Json::object([
            ("spec", self.canonical()),
            ("clock_ns", Json::from(clk)),
            ("lt_tau", cells(tau)),
            ("lt_dist", cells(dist)),
            ("lt_cent", cells(cent)),
            ("lt_elas", cells(elas)),
            ("enhancement_percent", Json::floats(&enhancement)),
        ])
    }

    /// Renders the `/v1/resilience` response body from a finished report.
    /// Shared by local execution and the distributed merge.
    pub(crate) fn resilience_body(&self, report: &crate::resilience::ResilienceReport) -> Json {
        Json::object([("spec", self.canonical()), ("report", report.to_json())])
    }

    /// Renders the `/v1/dfg/explore` response body from the swept (and
    /// Pareto-marked) grid. Shared by local execution and the distributed
    /// merge.
    pub(crate) fn explore_body(&self, graph: &Dfg, points: &[SweepPoint]) -> Json {
        let point_json = |p: &SweepPoint| {
            Json::object([
                ("muls", Json::from(p.muls)),
                ("adds", Json::from(p.adds)),
                ("subs", Json::from(p.subs)),
                ("encoding", Json::from(encoding_name(p.encoding))),
                ("p", Json::Float(p.p)),
                ("sd_ld", Json::Float(p.sd_ld)),
                ("skew", Json::from(p.skew)),
                ("avg_cycles", Json::Float(p.avg_cycles)),
                ("latency_ns", Json::Float(p.latency_ns)),
                ("area_ge", Json::Float(p.area_ge)),
                ("pareto", Json::from(p.pareto)),
            ])
        };
        let frontier: Vec<Json> = points.iter().filter(|p| p.pareto).map(point_json).collect();
        let all: Vec<Json> = points.iter().map(point_json).collect();
        Json::object([
            ("spec", self.canonical()),
            (
                "graph",
                Json::object([
                    ("name", Json::from(graph.name())),
                    ("ops", Json::from(graph.num_ops())),
                    ("inputs", Json::from(graph.num_inputs())),
                ]),
            ),
            ("points", Json::array(all)),
            ("frontier", Json::array(frontier)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tauhls_sim::CancelToken;

    fn parse(endpoint: Endpoint, text: &str) -> Result<JobSpec, JobError> {
        JobSpec::from_json(endpoint, &Json::parse(text).expect("well-formed test spec"))
    }

    #[test]
    fn canonicalization_erases_field_order_defaults_and_number_spelling() {
        let a = parse(Endpoint::Simulate, r#"{"trials":50,"p":[1],"seed":2003}"#).unwrap();
        let b = parse(Endpoint::Simulate, r#"{"p":[1.0],"trials":50}"#).unwrap();
        assert_eq!(a.cache_key(), b.cache_key());
        // Defaults materialize into the key.
        assert!(a.cache_key().contains("\"dfg\":\"fir5\""));
        assert!(a.cache_key().contains("\"binding\":\"left-edge\""));
        // A differing seed is a different content address.
        let c = parse(Endpoint::Simulate, r#"{"p":[1.0],"trials":50,"seed":1}"#).unwrap();
        assert_ne!(a.cache_key(), c.cache_key());
    }

    #[test]
    fn empty_specs_materialize_paper_defaults() {
        let JobSpec::Simulate(s) = parse(Endpoint::Simulate, "{}").unwrap() else {
            panic!("wrong variant");
        };
        assert_eq!(s.dfg, DfgSource::Named("fir5".to_string()));
        assert_eq!((s.muls, s.adds, s.subs), (2, 1, 1));
        assert_eq!(s.p_values, vec![0.9, 0.7, 0.5]);
        assert_eq!((s.trials, s.seed), (2000, 2003));
        let JobSpec::Resilience(r) = parse(Endpoint::Resilience, "{}").unwrap() else {
            panic!("wrong variant");
        };
        assert_eq!(r.p, 0.5);
    }

    #[test]
    fn strict_parsing_rejects_malformed_specs() {
        let cases: &[(Endpoint, &str, &str)] = &[
            (Endpoint::Simulate, "[]", "must be a JSON object"),
            (Endpoint::Simulate, r#"{"wat":1}"#, "unknown field 'wat'"),
            (Endpoint::Table2, r#"{"p":[0.5]}"#, "unknown field 'p'"),
            (
                Endpoint::Simulate,
                r#"{"trials":1,"trials":2}"#,
                "duplicate field 'trials'",
            ),
            (Endpoint::Simulate, r#"{"trials":0}"#, "'trials' must be in"),
            (
                Endpoint::Simulate,
                r#"{"trials":1000001}"#,
                "'trials' must be in",
            ),
            (
                Endpoint::Simulate,
                r#"{"trials":-3}"#,
                "non-negative integer",
            ),
            (Endpoint::Simulate, r#"{"p":[]}"#, "'p' must hold"),
            (Endpoint::Simulate, r#"{"p":[1.5]}"#, "in [0, 1]"),
            (Endpoint::Simulate, r#"{"p":0.5}"#, "'p' must be an array"),
            (
                Endpoint::Resilience,
                r#"{"p":[0.5]}"#,
                "'p' must be a number",
            ),
            (Endpoint::Resilience, r#"{"p":-0.1}"#, "in [0, 1]"),
            (
                Endpoint::Simulate,
                r#"{"binding":"sideways"}"#,
                "'binding' must be",
            ),
            (Endpoint::Simulate, r#"{"dfg":"nope"}"#, "unknown benchmark"),
            (
                Endpoint::Simulate,
                r#"{"dfg":"fir5","dfg_text":"x"}"#,
                "not both",
            ),
            (Endpoint::Simulate, r#"{"dfg_text":"@#$"}"#, "dfg_text:"),
            (Endpoint::Simulate, r#"{"muls":65}"#, "'muls' must be in"),
            (
                Endpoint::Simulate,
                r#"{"dfg":"fir5","subs":0,"adds":0}"#,
                "allocation lacks a unit",
            ),
        ];
        for (endpoint, text, needle) in cases {
            let err = parse(*endpoint, text).expect_err(text).to_string();
            assert!(err.contains(needle), "{text}: got {err:?}, want {needle:?}");
            assert!(!err.contains('\n'), "{text}: multi-line error {err:?}");
        }
    }

    #[test]
    fn simulate_runs_and_embeds_its_canonical_spec() {
        let spec = parse(Endpoint::Simulate, r#"{"trials":40,"p":[0.5],"seed":7}"#).unwrap();
        let body = spec.run(&BatchRunner::serial()).unwrap();
        assert_eq!(body.get("spec").unwrap().to_compact(), spec.cache_key());
        assert!(body.get("lt_tau").unwrap().get("best_cycles").is_some());
        assert_eq!(
            body.get("enhancement_percent")
                .unwrap()
                .as_array()
                .map(<[Json]>::len),
            Some(1)
        );
        // Same spec, same runner → byte-identical body (the cache-hit
        // guarantee, before any cache is involved).
        let again = spec.run(&BatchRunner::new(4)).unwrap();
        assert_eq!(body.to_compact(), again.to_compact());
    }

    #[test]
    fn inline_dfg_and_table2_and_resilience_run() {
        let axpy =
            "dfg axpy\ninput a\ninput x\ninput y\nop m = mul a x\nop r = add m y\noutput r r\n";
        let text = format!(
            r#"{{"dfg_text":"{}","trials":25,"p":[0.5]}}"#,
            axpy.replace('\n', "\\n")
        );
        let spec = parse(Endpoint::Simulate, &text).unwrap();
        assert!(spec.run(&BatchRunner::serial()).is_ok());

        let t2 = parse(Endpoint::Table2, r#"{"trials":20,"seed":3}"#).unwrap();
        let body = t2.run(&BatchRunner::serial()).unwrap();
        assert!(body.get("table2").unwrap().get("rows").is_some());

        let res = parse(Endpoint::Resilience, r#"{"trials":12,"seed":3}"#).unwrap();
        let body = res.run(&BatchRunner::serial()).unwrap();
        assert!(body.get("report").unwrap().get("rows").is_some());
    }

    #[test]
    fn synth_runs_deterministically_and_embeds_its_hash_chain() {
        let spec = parse(Endpoint::Synth, r#"{"dfg":"fir3","muls":2,"adds":1}"#).unwrap();
        let (body, records) = spec.run_with(&BatchRunner::serial(), None).unwrap();
        assert_eq!(body.get("spec").unwrap().to_compact(), spec.cache_key());
        let chain = body.get("stages").unwrap().as_array().unwrap();
        assert_eq!(chain.len(), crate::stages::STAGE_NAMES.len());
        for (entry, name) in chain.iter().zip(crate::stages::STAGE_NAMES) {
            assert_eq!(entry.get("stage").unwrap().as_str(), Some(name));
            assert_eq!(entry.get("hash").unwrap().as_str().map(str::len), Some(16));
        }
        assert_eq!(records.len(), crate::stages::STAGE_NAMES.len());
        let synth = body.get("synth").unwrap();
        assert_eq!(
            synth.get("controllers").unwrap().as_array().map(<[_]>::len),
            Some(3),
            "fir3 @ (2,1,0) binds three units"
        );
        assert!(synth.get("cent_sync").unwrap().get("states").is_some());
        // Byte-identical rerun: the cache-hit guarantee for /v1/synth.
        let (again, _) = spec.run_with(&BatchRunner::serial(), None).unwrap();
        assert_eq!(body.to_compact(), again.to_compact());
    }

    #[test]
    fn area_reports_rows_and_system_breakdown() {
        let spec = parse(Endpoint::Area, r#"{"dfg":"diffeq","subs":1,"width":32}"#).unwrap();
        let body = spec.run(&BatchRunner::serial()).unwrap();
        let rows = body.get("rows").unwrap().as_array().unwrap();
        assert!(rows.iter().any(|r| r
            .get("name")
            .unwrap()
            .as_str()
            .is_some_and(|n| n.starts_with("D-FSM-"))));
        let system = body.get("system").unwrap();
        assert_eq!(system.get("width").unwrap().as_u64(), Some(32));
        assert!(system.get("total").unwrap().as_f64().unwrap() > 0.0);
        let frac = system.get("control_fraction").unwrap().as_f64().unwrap();
        assert!((0.0..1.0).contains(&frac));
    }

    #[test]
    fn synth_cache_is_shared_and_reused_across_encodings() {
        let cache = StageCache::new(64);
        let runner = BatchRunner::serial();
        let base = parse(Endpoint::Synth, r#"{"dfg":"fir5"}"#).unwrap();
        let (cold_body, cold) = base.run_with(&runner, Some(&cache)).unwrap();
        assert!(cold.iter().all(|r| !r.cache_hit));
        // Same graph + allocation, different encoding: the front of the
        // pipeline is served from cache, only logic + report recompute.
        let gray = parse(Endpoint::Synth, r#"{"dfg":"fir5","encoding":"gray"}"#).unwrap();
        let (gray_body, warm) = gray.run_with(&runner, Some(&cache)).unwrap();
        let hits: Vec<&str> = warm
            .iter()
            .filter(|r| r.cache_hit)
            .map(|r| r.stage)
            .collect();
        assert_eq!(hits, ["canonicalize", "order", "bind", "controllers"]);
        assert_ne!(cold_body.to_compact(), gray_body.to_compact());
        // A cache-served replay is byte-identical to the cold run.
        let (replay, records) = base.run_with(&runner, Some(&cache)).unwrap();
        assert!(records.iter().all(|r| r.cache_hit));
        assert_eq!(cold_body.to_compact(), replay.to_compact());
    }

    #[test]
    fn synthesis_specs_reject_uncoverable_and_empty_graphs_at_parse_time() {
        let cases: &[(Endpoint, &str, &str)] = &[
            (
                Endpoint::Synth,
                r#"{"dfg":"fir5","muls":0}"#,
                "allocation lacks a unit",
            ),
            (
                Endpoint::Area,
                r#"{"dfg":"diffeq","subs":0}"#,
                "allocation lacks a unit",
            ),
            (
                Endpoint::Synth,
                r#"{"encoding":"sideways"}"#,
                "'encoding' must be",
            ),
            (Endpoint::Synth, r#"{"trials":5}"#, "unknown field 'trials'"),
            (Endpoint::Area, r#"{"width":0}"#, "'width' must be in"),
            (Endpoint::Area, r#"{"width":65}"#, "'width' must be in"),
            (Endpoint::Area, r#"{"width":129}"#, "'width' must be in"),
            (
                Endpoint::Synth,
                r#"{"dfg_text":"dfg empty\ninput a\n"}"#,
                "has no operations",
            ),
        ];
        for (endpoint, text, needle) in cases {
            let err = parse(*endpoint, text).expect_err(text).to_string();
            assert!(err.contains(needle), "{text}: got {err:?}, want {needle:?}");
            assert!(!err.contains('\n'), "{text}: multi-line error {err:?}");
        }
    }

    #[test]
    fn synth_canonicalization_materializes_encoding_and_width() {
        let a = parse(Endpoint::Synth, "{}").unwrap();
        assert!(a.cache_key().contains("\"encoding\":\"binary\""));
        let b = parse(Endpoint::Area, "{}").unwrap();
        assert!(b.cache_key().contains("\"width\":16"));
        assert_eq!(a.trials() + b.trials(), 0);
        assert_eq!(a.endpoint(), Endpoint::Synth);
        assert_eq!(Endpoint::parse("area"), Some(Endpoint::Area));
    }

    #[test]
    fn canonical_rendering_round_trips_through_from_canonical() {
        let texts: &[(Endpoint, &str)] = &[
            (Endpoint::Simulate, r#"{"trials":50,"p":[1],"seed":9}"#),
            (Endpoint::Table2, r#"{"trials":20}"#),
            (Endpoint::Resilience, r#"{"p":0.25,"trials":8}"#),
            (Endpoint::Synth, r#"{"dfg":"fir3","encoding":"gray"}"#),
            (Endpoint::Area, r#"{"width":32}"#),
            (
                Endpoint::Explore,
                r#"{"dfg":"fir3","max_muls":2,"sd_ld":[0.75,1],"encodings":["gray"]}"#,
            ),
        ];
        for (endpoint, text) in texts {
            let spec = parse(*endpoint, text).unwrap();
            let back = JobSpec::from_canonical(&spec.canonical()).unwrap();
            assert_eq!(back, spec, "{text}");
            assert_eq!(back.cache_key(), spec.cache_key(), "{text}");
            assert_eq!(back.job_id(), spec.job_id(), "{text}");
        }
        // The ID is a pure function of the content address.
        let a = parse(Endpoint::Simulate, r#"{"trials":50,"p":[1.0]}"#).unwrap();
        let b = parse(Endpoint::Simulate, r#"{"p":[1],"trials":50}"#).unwrap();
        assert_eq!(a.job_id(), b.job_id());
        assert_eq!(a.job_id().len(), 16);
        let c = parse(Endpoint::Simulate, r#"{"trials":51,"p":[1]}"#).unwrap();
        assert_ne!(a.job_id(), c.job_id());
        // Hostile canonical documents fail cleanly.
        for bad in [
            "[]",
            "{}",
            r#"{"endpoint":"nope"}"#,
            r#"{"endpoint":"simulate","wat":1}"#,
        ] {
            assert!(JobSpec::from_canonical(&Json::parse(bad).unwrap()).is_err());
        }
    }

    #[test]
    fn borrowed_and_owned_parses_agree() {
        let text = r#"{"dfg":"ewf","trials":40,"p":[0.9,0.5],"seed":7}"#;
        let owned = parse(Endpoint::Simulate, text).unwrap();
        let doc = JsonRef::parse(text).unwrap();
        let borrowed = JobSpec::from_json_ref(Endpoint::Simulate, &doc).unwrap();
        assert_eq!(borrowed, owned);
        // Errors surface identically through both entries.
        let bad = JsonRef::parse(r#"{"wat":1}"#).unwrap();
        let err = JobSpec::from_json_ref(Endpoint::Simulate, &bad).unwrap_err();
        assert!(err.to_string().contains("unknown field 'wat'"));
    }

    #[test]
    fn cancelled_runner_yields_cancelled_not_partial_results() {
        let token = CancelToken::new();
        token.cancel();
        let runner = BatchRunner::serial().with_cancel(token);
        for (endpoint, text) in [
            (Endpoint::Simulate, r#"{"trials":40}"#),
            (Endpoint::Table2, r#"{"trials":20}"#),
            (Endpoint::Resilience, r#"{"trials":12}"#),
        ] {
            let spec = parse(endpoint, text).unwrap();
            assert_eq!(spec.run(&runner), Err(JobError::Cancelled), "{text}");
        }
        let explore = parse(Endpoint::Explore, r#"{"trials":10,"max_muls":2}"#).unwrap();
        assert_eq!(explore.run(&runner), Err(JobError::Cancelled));
    }

    /// AXPY as a wire-format graph object, compact.
    const AXPY_WIRE: &str = r#"{"nodes":[{"id":"a","op":"input"},{"id":"x","op":"input"},{"id":"y","op":"input"},{"id":"m","op":"mul"},{"id":"r","op":"add"}],"edges":[{"from":"a","to":"m"},{"from":"x","to":"m"},{"from":"m","to":"r"},{"from":"y","to":"r"}],"outputs":{"r":"r"},"params":{"name":"axpy"}}"#;

    #[test]
    fn inline_wire_dfg_parses_runs_and_canonicalizes() {
        let text = format!(r#"{{"dfg":{AXPY_WIRE},"trials":25,"p":[0.5]}}"#);
        let spec = parse(Endpoint::Simulate, &text).unwrap();
        let JobSpec::Simulate(s) = &spec else {
            panic!("wrong variant");
        };
        assert!(matches!(&s.dfg, DfgSource::InlineWire(_)));
        let body = spec.run(&BatchRunner::serial()).unwrap();
        assert_eq!(body.get("spec").unwrap().to_compact(), spec.cache_key());
        // The canonical spec embeds the graph as a JSON object, and the
        // journal re-entry path re-validates it to the same spec.
        assert!(spec.cache_key().contains("\"dfg\":{\"nodes\""));
        let back = JobSpec::from_canonical(&spec.canonical()).unwrap();
        assert_eq!(back, spec);
        assert_eq!(back.job_id(), spec.job_id());
        // A different JSON spelling of the same graph — node-object keys
        // reordered — normalizes to the same content address and job id.
        let respelled =
            AXPY_WIRE.replace(r#"{"id":"a","op":"input"}"#, r#"{"op":"input","id":"a"}"#);
        assert_ne!(respelled, AXPY_WIRE);
        let other = parse(
            Endpoint::Simulate,
            &format!(r#"{{"dfg":{respelled},"trials":25,"p":[0.5]}}"#),
        )
        .unwrap();
        assert_eq!(other.cache_key(), spec.cache_key());
        assert_eq!(other.job_id(), spec.job_id());
        // The synthesis endpoints accept the same source.
        let synth = parse(Endpoint::Synth, &format!(r#"{{"dfg":{AXPY_WIRE}}}"#)).unwrap();
        assert!(synth.run_with(&BatchRunner::serial(), None).is_ok());
    }

    #[test]
    fn inline_wire_dfg_rejections() {
        let cases: &[(&str, &str)] = &[
            // Semantic wire errors surface with their byte offset.
            (r#"{"dfg":{"nodes":[]}}"#, "dfg: byte "),
            (
                r#"{"dfg":{"nodes":[{"id":"s","op":"add"}],"edges":[{"from":"s","to":"s"}],"outputs":{"o":"s"}}}"#,
                "dfg: byte ",
            ),
            // Wrong value type for 'dfg'.
            (
                r#"{"dfg":42}"#,
                "'dfg' must be a benchmark name string or an inline graph object",
            ),
            // Mutually exclusive with dfg_text, object or not.
            (
                &format!(r#"{{"dfg":{AXPY_WIRE},"dfg_text":"x"}}"#),
                "not both",
            ),
        ];
        for (text, needle) in cases {
            let err = parse(Endpoint::Simulate, text).expect_err(text).to_string();
            assert!(err.contains(needle), "{text}: got {err:?}, want {needle:?}");
        }
        // An inline graph still hits the allocation-coverage check.
        let err = parse(
            Endpoint::Synth,
            &format!(r#"{{"dfg":{AXPY_WIRE},"muls":0}}"#),
        )
        .expect_err("uncoverable")
        .to_string();
        assert!(err.contains("allocation lacks a unit"), "{err}");
    }

    #[test]
    fn explore_defaults_canonicalize_and_reject_bad_grids() {
        let JobSpec::Explore(s) = parse(Endpoint::Explore, "{}").unwrap() else {
            panic!("wrong variant");
        };
        assert_eq!((s.max_muls, s.max_adds, s.max_subs), (4, 2, 2));
        assert_eq!(s.encodings, vec![Encoding::Binary]);
        assert_eq!(s.p_values, vec![0.9, 0.7, 0.5]);
        assert_eq!(s.sd_ld, vec![0.75]);
        assert_eq!((s.trials, s.width, s.seed), (400, 16, 2003));
        let key = JobSpec::Explore(s).cache_key();
        assert!(key.contains("\"endpoint\":\"explore\""));
        assert!(key.contains("\"sd_ld\":[0.75]"));
        assert!(key.contains("\"encodings\":[\"binary\"]"));

        let cases: &[(&str, &str)] = &[
            (r#"{"sd_ld":[0.4]}"#, "must be in [0.5, 1]"),
            (r#"{"sd_ld":[]}"#, "'sd_ld' must hold"),
            (r#"{"sd_ld":0.75}"#, "'sd_ld' must be an array"),
            (r#"{"encodings":["binary","binary"]}"#, "duplicate encoding"),
            (r#"{"encodings":[]}"#, "'encodings' must hold"),
            (
                r#"{"encodings":["sideways"]}"#,
                "'encodings' entries must be",
            ),
            (r#"{"max_muls":9}"#, "'max_muls' must be in"),
            (r#"{"dfg":"fir5","max_muls":0}"#, "allocation lacks a unit"),
            (
                r#"{"max_muls":8,"max_adds":8,"max_subs":8,"encodings":["binary","gray","onehot"],"sd_ld":[0.5,0.6,0.7,0.8]}"#,
                "exceeds 4096",
            ),
        ];
        for (text, needle) in cases {
            let err = parse(Endpoint::Explore, text).expect_err(text).to_string();
            assert!(err.contains(needle), "{text}: got {err:?}, want {needle:?}");
        }
    }

    #[test]
    fn explore_runs_thread_invariantly_with_a_consistent_frontier() {
        let text =
            r#"{"dfg":"fir3","max_muls":2,"max_adds":1,"trials":30,"p":[0.5],"sd_ld":[0.75,1.0]}"#;
        let spec = parse(Endpoint::Explore, text).unwrap();
        let (body, _) = spec.run_with(&BatchRunner::serial(), None).unwrap();
        assert_eq!(body.get("spec").unwrap().to_compact(), spec.cache_key());
        let points = body.get("points").unwrap().as_array().unwrap();
        // 2 allocations × 1 P × 1 encoding × 2 ratios.
        assert_eq!(points.len(), 4);
        let frontier = body.get("frontier").unwrap().as_array().unwrap();
        assert!(!frontier.is_empty());
        assert!(frontier
            .iter()
            .all(|p| p.get("pareto").unwrap() == &Json::Bool(true)));
        // Bit-identical at any thread count — the durable-job replay and
        // crash-recovery guarantee for explore bodies.
        let (threaded, _) = spec.run_with(&BatchRunner::new(4), None).unwrap();
        assert_eq!(body.to_compact(), threaded.to_compact());
        // The stage cache accelerates the synthesis legs without changing
        // a byte.
        let cache = StageCache::new(64);
        let (cold, _) = spec.run_with(&BatchRunner::serial(), Some(&cache)).unwrap();
        let (warm, records) = spec.run_with(&BatchRunner::serial(), Some(&cache)).unwrap();
        assert_eq!(cold.to_compact(), warm.to_compact());
        assert_eq!(body.to_compact(), warm.to_compact());
        assert!(records.iter().all(|r| r.cache_hit));
    }
}

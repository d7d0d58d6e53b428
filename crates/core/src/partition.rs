//! Deterministic partition planning and bit-identical merging of job
//! results — the single-node core of the distributed cluster mode.
//!
//! A coordinator splits one [`JobSpec`] into contiguous partitions over
//! the spec's natural unit axis, ships each partition to a worker, and
//! reassembles the partial results into the final response body. The
//! invariant this module owes the cluster is **byte-identity**: the body
//! [`merge`] produces must equal the body [`JobSpec::run_with`] produces
//! on one node, at any partition count, for every job kind. Three design
//! rules deliver it:
//!
//! 1. **Global coordinates on the wire.** Every partition runs its slice
//!    with the *global* indices a single-node run would use — simulate
//!    seeds each `P` leg by its index in the full `p_values` list,
//!    resilience seeds each fault kind by its [`FAULT_KINDS`] index, and
//!    explore seeds each allocation by its own triple — so a unit's
//!    numbers never depend on which partition it landed in.
//! 2. **Exact values in partials.** Partials carry raw `u64` counters and
//!    `f64` measurements. Integers are exact by construction; floats are
//!    exact because `tauhls-json` renders shortest-roundtrip, so
//!    `f64 → JSON → f64` is the identity for finite values.
//! 3. **One body builder.** [`merge`] reassembles the same in-memory
//!    structures (latency summaries, resilience counters, sweep points)
//!    the local path computes and renders them through the *same*
//!    builders `run_with` uses — cross-grid post-processing (Pareto
//!    marking, enhancement rows) is recomputed over the merged whole, so
//!    the final rendering is structurally shared, not merely equal.
//!
//! The unit axes: simulate partitions over `p_values`, resilience over
//! the six fault kinds, explore over the deterministic allocation
//! enumeration. `table2`, `synth`, and `area` have no partitionable axis
//! and plan as a single partition whose partial embeds the whole body.

use crate::explore::{
    design_space_slice, enumerate_allocations, mark_scenario_pareto, SweepError, SweepPoint,
};
use crate::jobspec::{bind_spec, build_dfg, encoding_name, parse_encoding, JobError, JobSpec};
use crate::resilience::{
    report_from_counters, resilience_kind_counters_with, KindCounters, FAULT_KINDS,
};
use crate::stages::{StageCache, StageRecord};
use tauhls_json::Json;
use tauhls_sim::{latency_batch, BatchRunner, ControlStyleSet, LatencySummary};

/// One contiguous slice of a job's partition axis.
///
/// `lo..hi` are global unit indices; the planner's slices tile the axis
/// in index order, so concatenating partial results by `index` recovers
/// single-node unit order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Part {
    /// Position of this partition in the plan (0-based).
    pub index: usize,
    /// Number of partitions in the plan.
    pub total: usize,
    /// First unit covered (inclusive, global index).
    pub lo: usize,
    /// One past the last unit covered (global index).
    pub hi: usize,
}

/// The length of `spec`'s partition axis: swept `P` values for simulate,
/// fault kinds for resilience, covering allocations for explore, and `1`
/// for the indivisible kinds.
///
/// # Errors
///
/// [`JobError::Invalid`] when the spec's DFG fails to resolve.
pub fn unit_count(spec: &JobSpec) -> Result<usize, JobError> {
    Ok(match spec {
        JobSpec::Simulate(s) => s.p_values.len(),
        JobSpec::Resilience(_) => FAULT_KINDS.len(),
        JobSpec::Explore(s) => {
            let graph = build_dfg(&s.dfg).map_err(JobError::Invalid)?;
            enumerate_allocations(&graph, &s.sweep_params()).len()
        }
        JobSpec::Table2(_) | JobSpec::Synth(_) | JobSpec::Area(_) => 1,
    })
}

/// Plans `spec` into at most `max_parts` contiguous partitions.
///
/// Partition `k` of `n` covers units `[k·U/n, (k+1)·U/n)` — the same
/// arithmetic on every node, so a coordinator and a worker handed only
/// `(spec, k, n)` agree on the slice without negotiation. The plan never
/// exceeds the unit count (no empty partitions) and is never empty.
///
/// # Errors
///
/// As [`unit_count`].
pub fn plan(spec: &JobSpec, max_parts: usize) -> Result<Vec<Part>, JobError> {
    let units = unit_count(spec)?;
    let total = max_parts.max(1).min(units.max(1));
    Ok((0..total)
        .map(|k| Part {
            index: k,
            total,
            lo: k * units / total,
            hi: (k + 1) * units / total,
        })
        .collect())
}

/// Recomputes the slice partition `index` of `total` covers — the
/// worker-side half of [`plan`], for a node that received only the
/// coordinates.
///
/// # Errors
///
/// [`JobError::Invalid`] when the coordinates are out of range for the
/// spec (wrong `total`, or `index >= total`).
pub fn part_for(spec: &JobSpec, index: usize, total: usize) -> Result<Part, JobError> {
    let parts = plan(spec, total)?;
    if parts.len() != total {
        return Err(JobError::Invalid(format!(
            "job splits into at most {} parts, not {total}",
            parts.len()
        )));
    }
    parts
        .get(index)
        .copied()
        .ok_or_else(|| JobError::Invalid(format!("part {index} out of range for {total} parts")))
}

fn sweep_error(e: SweepError) -> JobError {
    match e {
        SweepError::Sim(err) => JobError::from_sim(err),
        SweepError::Synthesis(err) => JobError::from_synthesis(err),
    }
}

fn summary_partial(s: &LatencySummary) -> Json {
    Json::object([
        ("best_cycles", Json::from(s.best_cycles)),
        ("average_cycles", Json::floats(&s.average_cycles)),
        ("worst_cycles", Json::from(s.worst_cycles)),
    ])
}

/// Runs one partition of `spec` to its partial-result JSON.
///
/// The partial carries the partition coordinates plus exactly the values
/// [`merge`] needs: per-`P` latency legs (simulate), raw fault-kind
/// counters (resilience), unmarked sweep points (explore), or the whole
/// response body (the indivisible kinds). Stage records from synthesis
/// work are returned alongside for the caller's stage metrics, exactly
/// as [`JobSpec::run_with`] does.
///
/// # Errors
///
/// As [`JobSpec::run_with`], plus [`JobError::Invalid`] for slice bounds
/// that don't fit the spec.
pub fn run_part(
    spec: &JobSpec,
    part: Part,
    runner: &BatchRunner,
    stage_cache: Option<&StageCache>,
) -> Result<(Json, Vec<StageRecord>), JobError> {
    let coords = |payload: (&'static str, Json)| {
        Json::object([
            ("part", Json::from(part.index)),
            ("of", Json::from(part.total)),
            payload,
        ])
    };
    match spec {
        JobSpec::Simulate(s) => {
            if part.hi > s.p_values.len() {
                return Err(JobError::Invalid("slice beyond p_values".to_string()));
            }
            let bound =
                bind_spec(&s.dfg, s.muls, s.adds, s.subs, s.chains).map_err(JobError::Invalid)?;
            let indexed: Vec<(u64, f64)> = (part.lo..part.hi)
                .map(|i| (i as u64, s.p_values[i]))
                .collect();
            let all = ControlStyleSet::all();
            let legs = latency_batch(&bound, all, &indexed, s.trials, s.seed, s.elastic, runner)
                .map_err(JobError::from_sim)?;
            let names = ["lt_tau", "lt_dist", "lt_cent", "lt_elas"];
            Ok((
                coords((
                    "legs",
                    Json::object(names.into_iter().zip(legs.iter().map(summary_partial))),
                )),
                Vec::new(),
            ))
        }
        JobSpec::Resilience(s) => {
            if part.hi > FAULT_KINDS.len() {
                return Err(JobError::Invalid("slice beyond fault kinds".to_string()));
            }
            let bound =
                bind_spec(&s.dfg, s.muls, s.adds, s.subs, s.chains).map_err(JobError::Invalid)?;
            let counters = resilience_kind_counters_with(
                &bound,
                s.p,
                s.trials,
                s.seed,
                part.lo..part.hi,
                &s.options(),
                runner,
            );
            runner.check_cancelled().map_err(JobError::from_sim)?;
            let rows: Vec<Json> = counters
                .iter()
                .map(|c| {
                    Json::object([
                        ("deadlock", Json::from(c.deadlock)),
                        ("desync", Json::from(c.desync)),
                        ("survived", Json::from(c.survived)),
                        ("latency_sum", Json::from(c.latency_sum)),
                        ("latency_samples", Json::from(c.latency_samples)),
                        ("cent_agree", Json::from(c.cent_agree)),
                        ("elastic_deadlock", Json::from(c.elastic_deadlock)),
                        ("elastic_desync", Json::from(c.elastic_desync)),
                        ("elastic_survived", Json::from(c.elastic_survived)),
                        ("elastic_latency_sum", Json::from(c.elastic_latency_sum)),
                        (
                            "elastic_latency_samples",
                            Json::from(c.elastic_latency_samples),
                        ),
                    ])
                })
                .collect();
            Ok((coords(("counters", Json::array(rows))), Vec::new()))
        }
        JobSpec::Explore(s) => {
            let graph = build_dfg(&s.dfg).map_err(JobError::Invalid)?;
            let params = s.sweep_params();
            let allocs = enumerate_allocations(&graph, &params);
            if part.hi > allocs.len().max(1) {
                return Err(JobError::Invalid("slice beyond allocations".to_string()));
            }
            let slice = &allocs[part.lo.min(allocs.len())..part.hi.min(allocs.len())];
            let (points, records) = design_space_slice(&graph, &params, slice, runner, stage_cache)
                .map_err(sweep_error)?;
            let pts: Vec<Json> = points
                .iter()
                .map(|p| {
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
                    ])
                })
                .collect();
            Ok((coords(("points", Json::array(pts))), records))
        }
        JobSpec::Table2(_) | JobSpec::Synth(_) | JobSpec::Area(_) => {
            let (body, records) = spec.run_with(runner, stage_cache)?;
            Ok((coords(("body", body)), records))
        }
    }
}

fn bad(msg: &str) -> JobError {
    JobError::Failed(format!("malformed partition partial: {msg}"))
}

fn field<'a>(obj: &'a Json, key: &str, msg: &str) -> Result<&'a Json, JobError> {
    obj.get(key).ok_or_else(|| bad(msg))
}

fn u64_field(obj: &Json, key: &str) -> Result<u64, JobError> {
    field(obj, key, key)?.as_u64().ok_or_else(|| bad(key))
}

fn floats_field(obj: &Json, key: &str) -> Result<Vec<f64>, JobError> {
    field(obj, key, key)?
        .as_array()
        .ok_or_else(|| bad(key))?
        .iter()
        .map(|v| v.as_f64().ok_or_else(|| bad(key)))
        .collect()
}

fn summary_from_partial(
    legs: &Json,
    leg: &str,
    p_values: &[f64],
    lo: usize,
    hi: usize,
) -> Result<LatencySummary, JobError> {
    let obj = field(legs, leg, leg)?;
    let avg = floats_field(obj, "average_cycles")?;
    if avg.len() != hi - lo {
        return Err(bad("average_cycles length mismatch"));
    }
    Ok(LatencySummary {
        best_cycles: u64_field(obj, "best_cycles")? as usize,
        average_cycles: avg,
        worst_cycles: u64_field(obj, "worst_cycles")? as usize,
        p_values: p_values[lo..hi].to_vec(),
    })
}

/// Merges partition partials — in partition order, one per planned part —
/// back into the final response body.
///
/// The reassembled body is byte-identical to [`JobSpec::run`] on a single
/// node: exact integers and round-trip-exact floats restore the very
/// values the single-node run computes, and rendering goes through the
/// same body builders. Cross-partition post-processing (Pareto marking
/// for explore, enhancement rows for simulate) is recomputed here over
/// the merged whole.
///
/// # Errors
///
/// [`JobError::Failed`] when the partials don't form exactly the plan
/// ([`plan`]`(spec, partials.len())`) — wrong count, wrong coordinates,
/// missing fields, or mismatched slice lengths.
pub fn merge(spec: &JobSpec, partials: &[Json]) -> Result<Json, JobError> {
    let parts = plan(spec, partials.len())?;
    if parts.len() != partials.len() {
        return Err(bad(&format!(
            "expected {} partials, got {}",
            parts.len(),
            partials.len()
        )));
    }
    for (part, partial) in parts.iter().zip(partials) {
        if u64_field(partial, "part")? != part.index as u64
            || u64_field(partial, "of")? != part.total as u64
        {
            return Err(bad("partition coordinates out of order"));
        }
    }
    match spec {
        JobSpec::Simulate(s) => {
            let mut tau: Option<LatencySummary> = None;
            let mut dist: Option<LatencySummary> = None;
            let mut cent: Option<LatencySummary> = None;
            let mut elas: Option<LatencySummary> = None;
            for (part, partial) in parts.iter().zip(partials) {
                let legs = field(partial, "legs", "legs")?;
                for (acc, leg) in [
                    (&mut tau, "lt_tau"),
                    (&mut dist, "lt_dist"),
                    (&mut cent, "lt_cent"),
                    (&mut elas, "lt_elas"),
                ] {
                    let piece = summary_from_partial(legs, leg, &s.p_values, part.lo, part.hi)?;
                    match acc {
                        None => *acc = Some(piece),
                        Some(whole) => {
                            // Best/worst are deterministic extremes; every
                            // partition reports the same values.
                            if whole.best_cycles != piece.best_cycles
                                || whole.worst_cycles != piece.worst_cycles
                            {
                                return Err(bad("partitions disagree on best/worst"));
                            }
                            whole.average_cycles.extend(piece.average_cycles);
                            whole.p_values.extend(piece.p_values);
                        }
                    }
                }
            }
            match (tau, dist, cent, elas) {
                (Some(tau), Some(dist), Some(cent), Some(elas)) => {
                    if tau.average_cycles.len() != s.p_values.len() {
                        return Err(bad("merged sweep does not cover p_values"));
                    }
                    Ok(spec.simulate_body(&tau, &dist, &cent, &elas))
                }
                _ => Err(bad("no partials")),
            }
        }
        JobSpec::Resilience(s) => {
            let mut counters = Vec::with_capacity(FAULT_KINDS.len());
            for (part, partial) in parts.iter().zip(partials) {
                let rows = field(partial, "counters", "counters")?
                    .as_array()
                    .ok_or_else(|| bad("counters"))?;
                if rows.len() != part.hi - part.lo {
                    return Err(bad("counters length mismatch"));
                }
                for row in rows {
                    counters.push(KindCounters {
                        deadlock: u64_field(row, "deadlock")?,
                        desync: u64_field(row, "desync")?,
                        survived: u64_field(row, "survived")?,
                        latency_sum: u64_field(row, "latency_sum")?,
                        latency_samples: u64_field(row, "latency_samples")?,
                        cent_agree: u64_field(row, "cent_agree")?,
                        elastic_deadlock: u64_field(row, "elastic_deadlock")?,
                        elastic_desync: u64_field(row, "elastic_desync")?,
                        elastic_survived: u64_field(row, "elastic_survived")?,
                        elastic_latency_sum: u64_field(row, "elastic_latency_sum")?,
                        elastic_latency_samples: u64_field(row, "elastic_latency_samples")?,
                    });
                }
            }
            if counters.len() != FAULT_KINDS.len() {
                return Err(bad("merged counters do not cover all fault kinds"));
            }
            let graph = build_dfg(&s.dfg).map_err(JobError::Invalid)?;
            let report = report_from_counters(graph.name(), s.p, s.trials, s.seed, &counters);
            Ok(spec.resilience_body(&report))
        }
        JobSpec::Explore(s) => {
            let graph = build_dfg(&s.dfg).map_err(JobError::Invalid)?;
            let mut points = Vec::new();
            for partial in partials {
                let pts = field(partial, "points", "points")?
                    .as_array()
                    .ok_or_else(|| bad("points"))?;
                for p in pts {
                    let enc = field(p, "encoding", "encoding")?
                        .as_str()
                        .and_then(parse_encoding)
                        .ok_or_else(|| bad("encoding"))?;
                    let f = |key: &str| -> Result<f64, JobError> {
                        field(p, key, key)?.as_f64().ok_or_else(|| bad(key))
                    };
                    points.push(SweepPoint {
                        muls: u64_field(p, "muls")? as usize,
                        adds: u64_field(p, "adds")? as usize,
                        subs: u64_field(p, "subs")? as usize,
                        encoding: enc,
                        p: f("p")?,
                        sd_ld: f("sd_ld")?,
                        skew: u64_field(p, "skew")?,
                        avg_cycles: f("avg_cycles")?,
                        latency_ns: f("latency_ns")?,
                        area_ge: f("area_ge")?,
                        pareto: false,
                    });
                }
            }
            mark_scenario_pareto(&mut points);
            Ok(spec.explore_body(&graph, &points))
        }
        JobSpec::Table2(_) | JobSpec::Synth(_) | JobSpec::Area(_) => partials
            .first()
            .and_then(|p| p.get("body"))
            .cloned()
            .ok_or_else(|| bad("missing body")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::jobspec::Endpoint;

    fn spec(endpoint: Endpoint, text: &str) -> JobSpec {
        JobSpec::from_json(endpoint, &Json::parse(text).expect("well-formed test spec"))
            .expect("valid test spec")
    }

    /// Splits, runs, and merges `spec` at several partition counts,
    /// demanding byte-identity with the single-node body every time.
    fn assert_conformance(spec: &JobSpec, max_parts_list: &[usize]) {
        let runner = BatchRunner::new(2);
        let single = spec
            .run_with(&runner, None)
            .expect("single-node run")
            .0
            .to_compact();
        for &max_parts in max_parts_list {
            let parts = plan(spec, max_parts).expect("plan");
            let partials: Vec<Json> = parts
                .iter()
                .map(|&part| {
                    // Round-trip each partial through its serialized form,
                    // exactly as the HTTP wire does.
                    let (partial, _) = run_part(spec, part, &runner, None).expect("part run");
                    Json::parse(&partial.to_compact()).expect("partial round-trips")
                })
                .collect();
            let merged = merge(spec, &partials).expect("merge").to_compact();
            assert_eq!(
                merged, single,
                "byte-identity violated at max_parts={max_parts}"
            );
        }
    }

    #[test]
    fn simulate_merges_bit_identically() {
        let s = spec(
            Endpoint::Simulate,
            r#"{"dfg":"fir3","p":[0.3,0.5,0.7,0.9,1.0],"trials":60,"seed":11}"#,
        );
        assert_conformance(&s, &[1, 2, 3, 5, 8]);
    }

    #[test]
    fn resilience_merges_bit_identically() {
        let s = spec(
            Endpoint::Resilience,
            r#"{"dfg":"fir5","p":0.5,"trials":40,"seed":2003}"#,
        );
        assert_conformance(&s, &[1, 2, 3, 6]);
    }

    #[test]
    fn explore_merges_bit_identically() {
        let s = spec(
            Endpoint::Explore,
            r#"{"dfg":"fir5","max_muls":2,"max_adds":2,"p":[0.5,0.9],"trials":40,"seed":7}"#,
        );
        assert_conformance(&s, &[1, 2, 3, 4]);
    }

    #[test]
    fn indivisible_kinds_plan_one_part_and_merge_to_the_body() {
        let s = spec(
            Endpoint::Synth,
            r#"{"dfg":"fir3","muls":1,"adds":1,"encoding":"gray"}"#,
        );
        assert_eq!(unit_count(&s).unwrap(), 1);
        assert_conformance(&s, &[1, 3]);
    }

    #[test]
    fn plan_is_contiguous_total_and_worker_side_recomputable() {
        let s = spec(
            Endpoint::Simulate,
            r#"{"dfg":"fir3","p":[0.1,0.2,0.3,0.4,0.5],"trials":10}"#,
        );
        for max_parts in 1..=7 {
            let parts = plan(&s, max_parts).unwrap();
            assert!(parts.len() <= 5, "never more parts than units");
            assert_eq!(parts[0].lo, 0);
            assert_eq!(parts.last().unwrap().hi, 5);
            for w in parts.windows(2) {
                assert_eq!(w[0].hi, w[1].lo, "contiguous tiling");
            }
            for part in &parts {
                assert!(part.hi > part.lo, "no empty partitions");
                assert_eq!(
                    part_for(&s, part.index, part.total).unwrap(),
                    *part,
                    "worker recomputes the same slice"
                );
            }
        }
        assert!(part_for(&s, 9, 3).is_err());
        assert!(part_for(&s, 0, 9).is_err(), "over-split total is rejected");
    }

    #[test]
    fn merge_rejects_shuffled_or_short_partials() {
        let s = spec(
            Endpoint::Simulate,
            r#"{"dfg":"fir3","p":[0.25,0.75],"trials":20}"#,
        );
        let runner = BatchRunner::serial();
        let parts = plan(&s, 2).unwrap();
        let mut partials: Vec<Json> = parts
            .iter()
            .map(|&part| run_part(&s, part, &runner, None).unwrap().0)
            .collect();
        partials.swap(0, 1);
        assert!(merge(&s, &partials).is_err(), "out-of-order partials");
        partials.truncate(1);
        assert!(merge(&s, &partials).is_err(), "short partials");
    }
}

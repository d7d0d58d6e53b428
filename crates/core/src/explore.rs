//! Allocation-space exploration: enumerate unit allocations, measure each
//! design's average latency (distributed control) and whole-system area,
//! and return the Pareto frontier — the "resource allocation" piece of the
//! paper's §6 future-work HLS tool, built from the parts this workspace
//! already has.

use crate::pipeline::Synthesis;
use crate::report::{system_area, system_area_from_logic};
use crate::stages::{self, BindStrategy, PipelineTrace, StageCache, StageRecord, SynthesisInput};
use crate::{SynthesisError, Timing};
use std::fmt;
use tauhls_dfg::{Dfg, ResourceClass};
use tauhls_fsm::Encoding;
use tauhls_logic::AreaModel;
use tauhls_sched::{Allocation, BoundDfg};
use tauhls_sim::{
    derive_seed, latency_batch, latency_summary_batch, BatchRunner, ControlStyle, ControlStyleSet,
    ElasticSpec, SimError,
};

/// One explored design point.
#[derive(Clone, Debug)]
pub struct DesignPoint {
    /// TAU multipliers allocated.
    pub muls: usize,
    /// Adders allocated.
    pub adds: usize,
    /// Subtractors allocated.
    pub subs: usize,
    /// Mean distributed latency in cycles at the probed `P`.
    pub latency_cycles: f64,
    /// Whole-system area in gate equivalents.
    pub area_ge: f64,
    /// True iff the point survives Pareto filtering.
    pub pareto: bool,
}

/// Exploration parameters.
#[derive(Clone, Copy, Debug)]
pub struct ExploreParams {
    /// Maximum units per class to consider.
    pub max_muls: usize,
    /// Maximum adders.
    pub max_adds: usize,
    /// Maximum subtractors.
    pub max_subs: usize,
    /// Short probability to probe.
    pub p: f64,
    /// Monte-Carlo trials per point.
    pub trials: usize,
    /// Datapath width for the area model.
    pub width: u32,
    /// RNG seed.
    pub seed: u64,
}

impl Default for ExploreParams {
    fn default() -> Self {
        ExploreParams {
            max_muls: 4,
            max_adds: 2,
            max_subs: 2,
            p: 0.7,
            trials: 400,
            width: 16,
            seed: 2003,
        }
    }
}

/// Enumerates the allocation space and measures every feasible point;
/// points not dominated in (latency, area) are flagged `pareto`. Each
/// point's Monte-Carlo trials fan out over `runner`'s workers, seeded by
/// the point's allocation triple so results do not depend on enumeration
/// order or thread count.
///
/// # Panics
///
/// Panics if `trials == 0` or all class maxima are zero.
pub fn explore_allocations(
    dfg: &Dfg,
    params: &ExploreParams,
    runner: &BatchRunner,
) -> Vec<DesignPoint> {
    assert!(params.trials > 0);
    let hist = dfg.class_histogram();
    let need = |c: ResourceClass| hist.get(&c).copied().unwrap_or(0);
    // A class with no operations needs (and gets) no units; otherwise
    // sweep 1..=max.
    let range = |c: ResourceClass, max: usize| {
        if need(c) == 0 {
            0..=0
        } else {
            1..=max.max(1)
        }
    };
    let mut points = Vec::new();

    for muls in range(ResourceClass::Multiplier, params.max_muls) {
        for adds in range(ResourceClass::Adder, params.max_adds) {
            for subs in range(ResourceClass::Subtractor, params.max_subs) {
                let alloc = Allocation::paper(muls, adds, subs);
                if !alloc.covers(dfg) {
                    continue;
                }
                let design = Synthesis::new(dfg.clone())
                    .allocation(alloc)
                    .run()
                    .expect("covered allocation synthesizes");
                let point_id = ((muls as u64) << 16) | ((adds as u64) << 8) | subs as u64;
                let point_seed = derive_seed(params.seed, point_id, 0);
                let dist = latency_batch(
                    design.bound(),
                    ControlStyleSet::DIST,
                    &[(0, params.p)],
                    params.trials as u64,
                    point_seed,
                    ElasticSpec::zero(),
                    runner,
                )
                .expect("fault-free simulation")
                .remove(0);
                let area = system_area(
                    &design,
                    Encoding::Binary,
                    &AreaModel::default(),
                    params.width,
                );
                points.push(DesignPoint {
                    muls,
                    adds,
                    subs,
                    latency_cycles: dist.average_cycles[0],
                    area_ge: area.total(),
                    pareto: false,
                });
            }
        }
    }

    // Pareto filter: a point survives if no other point is at least as
    // good in both dimensions and strictly better in one. Latency is a
    // Monte-Carlo estimate, so comparisons use a small tolerance to keep
    // statistically-tied points from shielding each other.
    const LAT_EPS: f64 = 0.02;
    let snapshot = points.clone();
    for p in &mut points {
        p.pareto = !snapshot.iter().any(|q| {
            (q.latency_cycles <= p.latency_cycles + LAT_EPS && q.area_ge < p.area_ge)
                || (q.latency_cycles < p.latency_cycles - LAT_EPS && q.area_ge <= p.area_ge)
        });
    }
    points
}

// ---------------------------------------------------------------------------
// Full design-space sweep (the `/v1/dfg/explore` engine)
// ---------------------------------------------------------------------------

/// Parameters of a full design-space sweep: the allocation ranges of
/// [`ExploreParams`] crossed with state encodings, SD/LD clock-period
/// ratios, and a list of short-completion probabilities.
#[derive(Clone, Debug)]
pub struct SweepParams {
    /// Maximum telescopic multipliers to consider.
    pub max_muls: usize,
    /// Maximum adders.
    pub max_adds: usize,
    /// Maximum subtractors.
    pub max_subs: usize,
    /// State encodings swept in the area estimate.
    pub encodings: Vec<Encoding>,
    /// Short-completion probabilities swept in the latency estimate.
    pub p_values: Vec<f64>,
    /// SD/LD clock-period ratios; the SD clock is `ratio × ld_ns`.
    pub sd_ld: Vec<f64>,
    /// Elastic skew bounds swept in the latency estimate: `0` measures
    /// the synchronous distributed controllers, `s > 0` the ELASTIC
    /// (GALS) controllers at skew bound `s` (handshake latency fixed at
    /// the [`ElasticSpec::default`] value).
    pub skew: Vec<u64>,
    /// Monte-Carlo trials per allocation.
    pub trials: u64,
    /// Datapath width for the area model.
    pub width: u32,
    /// Base RNG seed.
    pub seed: u64,
}

/// One point of the full sweep grid.
#[derive(Clone, Debug)]
pub struct SweepPoint {
    /// TAU multipliers allocated.
    pub muls: usize,
    /// Adders allocated.
    pub adds: usize,
    /// Subtractors allocated.
    pub subs: usize,
    /// State encoding of the synthesized controllers.
    pub encoding: Encoding,
    /// Short-completion probability of this scenario.
    pub p: f64,
    /// SD/LD clock ratio of this scenario.
    pub sd_ld: f64,
    /// Elastic skew bound of this scenario (`0` = synchronous clocks).
    pub skew: u64,
    /// Mean latency in SD cycles — distributed control at `skew == 0`,
    /// elastic (GALS) control otherwise.
    pub avg_cycles: f64,
    /// Mean latency in nanoseconds: `avg_cycles × sd_ld × ld_ns`.
    pub latency_ns: f64,
    /// Whole-system area in gate equivalents.
    pub area_ge: f64,
    /// True iff no other design dominates this one in its scenario.
    pub pareto: bool,
}

/// Why a design-space sweep failed.
#[derive(Debug)]
pub enum SweepError {
    /// The Monte-Carlo latency estimate failed (e.g. cancelled).
    Sim(SimError),
    /// Controller synthesis failed for a swept allocation.
    Synthesis(SynthesisError),
}

impl fmt::Display for SweepError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SweepError::Sim(e) => write!(f, "sweep simulation failed: {e}"),
            SweepError::Synthesis(e) => write!(f, "sweep synthesis failed: {e}"),
        }
    }
}

impl std::error::Error for SweepError {}

/// Sweeps the full design space of `dfg` and marks the latency/area
/// Pareto frontier.
///
/// The grid is allocations (class-aware, like [`explore_allocations`]) ×
/// `encodings` × `p_values` × `sd_ld` × `skew`. Each allocation is
/// simulated once per skew bound — a batched call covering every `P`,
/// seeded by the allocation triple so results are independent of
/// enumeration order and of `runner`'s thread count — and synthesized
/// once per encoding through the shared [`StageCache`]. Cycle counts
/// don't depend on encoding or clock ratio, so those axes are pure
/// post-processing; the skew axis re-simulates (elastic stalls change
/// cycle counts) but reuses the same per-trial completion tables as the
/// synchronous leg.
///
/// `(p, sd_ld, skew)` describe the *scenario* (workload, clock, and
/// clocking discipline), not the design, so Pareto domination is judged
/// only between points of the same scenario: within each group a point
/// survives if no other allocation/encoding is at least as good in both
/// latency and area and strictly better in one (with the same noise
/// tolerance as [`explore_allocations`]). Skew is a scenario axis rather
/// than a design axis because elastic latency is never below the
/// synchronous latency of the same design — folding it into the frontier
/// would just erase every skewed point.
///
/// Returns the swept points (grid order: allocation, then `P`, then
/// encoding, then ratio, then skew) plus the stage records of every
/// synthesis run, for the caller's stage metrics.
pub fn design_space(
    dfg: &Dfg,
    params: &SweepParams,
    runner: &BatchRunner,
    stage_cache: Option<&StageCache>,
) -> Result<(Vec<SweepPoint>, Vec<StageRecord>), SweepError> {
    let allocs = enumerate_allocations(dfg, params);
    let (mut points, records) = design_space_slice(dfg, params, &allocs, runner, stage_cache)?;
    mark_scenario_pareto(&mut points);
    Ok((points, records))
}

/// The deterministic allocation enumeration a sweep iterates: class-aware
/// ranges (a class with no operations gets 0 units, otherwise `1..=max`),
/// filtered to allocations that cover `dfg`, in nested
/// muls → adds → subs order.
///
/// Exposed so a distributed coordinator can plan contiguous partitions
/// over exactly the order [`design_space`] uses; each allocation is
/// independently seeded by its triple, so any contiguous slice computes
/// the same points the full sweep would.
pub fn enumerate_allocations(dfg: &Dfg, params: &SweepParams) -> Vec<(usize, usize, usize)> {
    let hist = dfg.class_histogram();
    let need = |c: ResourceClass| hist.get(&c).copied().unwrap_or(0);
    let range = |c: ResourceClass, max: usize| {
        if need(c) == 0 {
            0..=0
        } else {
            1..=max.max(1)
        }
    };
    let mut allocs = Vec::new();
    for muls in range(ResourceClass::Multiplier, params.max_muls) {
        for adds in range(ResourceClass::Adder, params.max_adds) {
            for subs in range(ResourceClass::Subtractor, params.max_subs) {
                if Allocation::paper(muls, adds, subs).covers(dfg) {
                    allocs.push((muls, adds, subs));
                }
            }
        }
    }
    allocs
}

/// Measures the sweep points of an explicit allocation list — a
/// contiguous slice of [`enumerate_allocations`] when called by a
/// partition, or the full list when called by [`design_space`].
///
/// Per-allocation seeding (`derive_seed(seed, point_id, 0)` from the
/// triple) makes the output independent of which slice an allocation
/// lands in. Pareto flags are **not** marked: domination is judged across
/// the whole grid, so the caller runs [`mark_scenario_pareto`] after
/// concatenating slices in enumeration order.
pub fn design_space_slice(
    dfg: &Dfg,
    params: &SweepParams,
    allocs: &[(usize, usize, usize)],
    runner: &BatchRunner,
    stage_cache: Option<&StageCache>,
) -> Result<(Vec<SweepPoint>, Vec<StageRecord>), SweepError> {
    let ld_ns = Timing::default().ld_ns;
    let mut points = Vec::new();
    let mut records = Vec::new();

    for &(muls, adds, subs) in allocs {
        let alloc = Allocation::paper(muls, adds, subs);
        let bound = BoundDfg::bind(dfg, &alloc);
        let point_id = ((muls as u64) << 16) | ((adds as u64) << 8) | subs as u64;
        let point_seed = derive_seed(params.seed, point_id, 0);
        let indexed: Vec<(u64, f64)> = (0..).zip(params.p_values.iter().copied()).collect();
        let dist = latency_batch(
            &bound,
            ControlStyleSet::DIST,
            &indexed,
            params.trials,
            point_seed,
            ElasticSpec::zero(),
            runner,
        )
        .map_err(SweepError::Sim)?
        .remove(0);
        // Per-skew cycle estimates, indexed [skew][p]. Skew 0 reuses the
        // coupled distributed leg. Nonzero bounds run the elastic engine
        // at the same seed through `latency_summary_batch`, which is NOT
        // coupled to that leg: its Bernoulli jobs draw each completion
        // inside the kernel, not one table per trial, so the two legs see
        // different completion streams. On fir5 (p = 0.9/0.5, 500 trials,
        // seed 7) the coupled DIST leg averages 5.254/6.114 cycles, while
        // `latency_summary_batch` gives 5.256/6.106 for both DIST and
        // ELASTIC at the zero spec: the gap is the stream, not the clocks.
        // Coupling the legs would change every explore body with skew > 0.
        let mut cycles_by_skew = Vec::with_capacity(params.skew.len());
        for &s in &params.skew {
            if s == 0 {
                cycles_by_skew.push(dist.average_cycles.clone());
            } else {
                let spec = ElasticSpec {
                    skew_bound: s.min(u64::from(u32::MAX)) as u32,
                    ..ElasticSpec::default()
                };
                let elas = latency_summary_batch(
                    &bound,
                    ControlStyle::Elastic(spec),
                    &params.p_values,
                    params.trials,
                    point_seed,
                    runner,
                )
                .map_err(SweepError::Sim)?;
                cycles_by_skew.push(elas.average_cycles);
            }
        }
        let mut areas = Vec::with_capacity(params.encodings.len());
        for &encoding in &params.encodings {
            let input = SynthesisInput {
                dfg: dfg.clone(),
                allocation: Allocation::paper(muls, adds, subs),
                strategy: BindStrategy::LeftEdge,
            };
            let mut trace = PipelineTrace::default();
            let (logic, _) = stages::run_full(
                &input,
                false,
                encoding,
                &AreaModel::default(),
                stage_cache,
                &mut trace,
            )
            .map_err(SweepError::Synthesis)?;
            records.extend(trace.records);
            let area = system_area_from_logic(&logic, &AreaModel::default(), params.width);
            areas.push(area.total());
        }
        for (ip, &p) in params.p_values.iter().enumerate() {
            for (ie, &encoding) in params.encodings.iter().enumerate() {
                for &ratio in &params.sd_ld {
                    for (is, &skew) in params.skew.iter().enumerate() {
                        let cycles = cycles_by_skew[is][ip];
                        points.push(SweepPoint {
                            muls,
                            adds,
                            subs,
                            encoding,
                            p,
                            sd_ld: ratio,
                            skew,
                            avg_cycles: cycles,
                            latency_ns: cycles * ld_ns * ratio,
                            area_ge: areas[ie],
                            pareto: false,
                        });
                    }
                }
            }
        }
    }
    Ok((points, records))
}

/// Marks each point's `pareto` flag within its `(p, sd_ld, skew)`
/// scenario group. Exact float equality is the group key — every group
/// member carries the identical swept value, not a recomputation.
///
/// Public so a merge of distributed partials can re-run the exact filter
/// [`design_space`] applies after reassembling the grid.
pub fn mark_scenario_pareto(points: &mut [SweepPoint]) {
    const LAT_EPS: f64 = 0.02;
    let snapshot: Vec<(f64, f64, u64, f64, f64)> = points
        .iter()
        .map(|p| (p.p, p.sd_ld, p.skew, p.avg_cycles, p.area_ge))
        .collect();
    for p in points.iter_mut() {
        p.pareto = !snapshot.iter().any(|&(qp, qr, qs, q_cycles, q_area)| {
            qp == p.p
                && qr == p.sd_ld
                && qs == p.skew
                && ((q_cycles <= p.avg_cycles + LAT_EPS && q_area < p.area_ge)
                    || (q_cycles < p.avg_cycles - LAT_EPS && q_area <= p.area_ge))
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tauhls_dfg::benchmarks::fir5;

    #[test]
    fn frontier_is_nonempty_and_consistent() {
        let pts = explore_allocations(
            &fir5(),
            &ExploreParams {
                max_muls: 3,
                max_adds: 2,
                max_subs: 0,
                trials: 150,
                ..Default::default()
            },
            &BatchRunner::new(2),
        );
        assert!(!pts.is_empty());
        let frontier: Vec<_> = pts.iter().filter(|p| p.pareto).collect();
        assert!(!frontier.is_empty());
        // No frontier point dominates another (with the filter's noise
        // tolerance).
        for a in &frontier {
            for b in &frontier {
                let dominates = a.latency_cycles <= b.latency_cycles + 0.02
                    && a.area_ge < b.area_ge
                    || a.latency_cycles < b.latency_cycles - 0.02 && a.area_ge <= b.area_ge;
                assert!(!dominates, "{a:?} dominates {b:?}");
            }
        }
        // More multipliers never hurt latency (same adders).
        let lat = |m: usize| {
            pts.iter()
                .find(|p| p.muls == m && p.adds == 1)
                .map(|p| p.latency_cycles)
                .unwrap()
        };
        assert!(lat(3) <= lat(1) + 1e-9);
    }

    #[test]
    fn design_space_sweep_is_grouped_deterministic_and_cache_transparent() {
        let params = SweepParams {
            max_muls: 2,
            max_adds: 1,
            max_subs: 0,
            encodings: vec![Encoding::Binary, Encoding::Gray],
            p_values: vec![0.9, 0.5],
            sd_ld: vec![0.75, 1.0],
            skew: vec![0],
            trials: 60,
            width: 16,
            seed: 2003,
        };
        let (pts, recs) = design_space(&fir5(), &params, &BatchRunner::serial(), None).unwrap();
        // 2 allocations × 2 P × 2 encodings × 2 ratios.
        assert_eq!(pts.len(), 16);
        assert_eq!(recs.len(), 4 * crate::stages::STAGE_NAMES.len());
        // Latency renders as cycles × ratio × LD; cycles are ratio- and
        // encoding-independent.
        for p in &pts {
            assert!((p.latency_ns - p.avg_cycles * 20.0 * p.sd_ld).abs() < 1e-9);
        }
        // Pareto domination never crosses a (p, sd_ld) scenario: every
        // scenario group keeps at least one survivor.
        for &(sp, sr) in &[(0.9, 0.75), (0.9, 1.0), (0.5, 0.75), (0.5, 1.0)] {
            assert!(
                pts.iter().any(|p| p.p == sp && p.sd_ld == sr && p.pareto),
                "scenario ({sp}, {sr}) lost its whole frontier"
            );
        }
        // Thread-count invariance, with and without a stage cache.
        let (threaded, _) = design_space(&fir5(), &params, &BatchRunner::new(3), None).unwrap();
        let cache = StageCache::new(64);
        let (cached, cached_recs) =
            design_space(&fir5(), &params, &BatchRunner::new(2), Some(&cache)).unwrap();
        let render = |ps: &[SweepPoint]| {
            ps.iter()
                .map(|p| format!("{p:?}"))
                .collect::<Vec<_>>()
                .join("\n")
        };
        assert_eq!(render(&pts), render(&threaded));
        assert_eq!(render(&pts), render(&cached));
        // The second encoding of each allocation reuses the cached
        // pipeline prefix.
        assert!(cached_recs.iter().any(|r| r.cache_hit));
    }

    #[test]
    fn design_space_skew_axis_adds_elastic_scenarios() {
        let params = SweepParams {
            max_muls: 2,
            max_adds: 1,
            max_subs: 0,
            encodings: vec![Encoding::Binary],
            p_values: vec![0.7],
            sd_ld: vec![1.0],
            skew: vec![0, 2],
            trials: 60,
            width: 16,
            seed: 2003,
        };
        let (pts, _) = design_space(&fir5(), &params, &BatchRunner::serial(), None).unwrap();
        // 2 allocations × 1 P × 1 encoding × 1 ratio × 2 skews.
        assert_eq!(pts.len(), 4);
        // Each skew scenario keeps its own frontier.
        for skew in [0u64, 2] {
            assert!(
                pts.iter().any(|p| p.skew == skew && p.pareto),
                "skew {skew} scenario lost its whole frontier"
            );
        }
        // Elastic stalls never beat the synchronous leg of the same design.
        for a in pts.iter().filter(|p| p.skew != 0) {
            let twin = pts
                .iter()
                .find(|b| b.skew == 0 && b.muls == a.muls && b.adds == a.adds && b.subs == a.subs)
                .expect("every elastic point has a synchronous twin");
            assert!(
                a.avg_cycles >= twin.avg_cycles - 1e-9,
                "elastic {a:?} undercut synchronous {twin:?}"
            );
        }
        // Determinism across thread counts with the skew axis in play.
        let (threaded, _) = design_space(&fir5(), &params, &BatchRunner::new(3), None).unwrap();
        assert_eq!(format!("{pts:?}"), format!("{threaded:?}"));
    }

    #[test]
    fn subtractor_range_skipped_when_unused() {
        // FIR has no subtract-class ops: subs should stay at 0.
        let pts = explore_allocations(
            &fir5(),
            &ExploreParams {
                max_muls: 2,
                max_adds: 1,
                max_subs: 2,
                trials: 50,
                ..Default::default()
            },
            &BatchRunner::serial(),
        );
        assert!(pts.iter().all(|p| p.subs == 0));
    }
}

//! Latency statistics: best / average / worst summaries in cycles and
//! nanoseconds, in the format of the paper's Table 2.

use crate::batch::{trial_rng, BatchRunner, CycleStats, FirstError, SimJob};
use crate::cent::{simulate_cent_with, CentControlUnit};
use crate::centsync::simulate_cent_sync_with;
use crate::distributed::simulate_distributed_with;
use crate::elastic::{elastic_trial_skew_seed, simulate_elastic_saturated, simulate_elastic_with};
use crate::error::SimError;
use crate::fault::SimConfig;
use crate::kernel::ElasticSpec;
use crate::model::CompletionModel;
use crate::sliced::{LaneConfigs, LaneModels, LaneOutcome, SlicedSim, LANES};
use rand::rngs::StdRng;
use tauhls_fsm::DistributedControlUnit;
use tauhls_sched::BoundDfg;

/// Best / average(s) / worst latency summary for one controller style.
#[derive(Clone, Debug, PartialEq)]
pub struct LatencySummary {
    /// Best-case cycles (every TAU short).
    pub best_cycles: usize,
    /// Mean cycles per swept `P` value, in sweep order.
    pub average_cycles: Vec<f64>,
    /// Worst-case cycles (every TAU long).
    pub worst_cycles: usize,
    /// The swept `P` values.
    pub p_values: Vec<f64>,
}

impl LatencySummary {
    /// Renders the paper's `[best][avg...][worst]` cell in nanoseconds.
    pub fn to_ns_string(&self, clock_ns: f64) -> String {
        let avgs: Vec<String> = self
            .average_cycles
            .iter()
            .map(|c| format!("{:.1}", c * clock_ns))
            .collect();
        format!(
            "[{:.0}][{}][{:.0}]",
            self.best_cycles as f64 * clock_ns,
            avgs.join(", "),
            self.worst_cycles as f64 * clock_ns
        )
    }
}

/// Controller styles the latency harness can evaluate.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ControlStyle {
    /// The distributed control unit (paper's proposal, `LT_DIST`).
    Distributed,
    /// The centralized product controller tracking each TAU independently
    /// (`LT_CENT`; same latency as `LT_DIST` by bisimulation).
    Cent,
    /// The synchronized centralized TAUBM controller (`LT_TAU`).
    CentSync,
    /// The distributed control unit under elastic (GALS) clocking: local
    /// per-controller clocks with bounded skew and handshake-latched
    /// cross-domain completion transfer (`LT_ELAS`).
    Elastic(ElasticSpec),
}

/// A set of controller styles, with the one name↔style mapping every
/// front end (CLI flags, JobSpec parsing, table renderers) shares — so
/// adding a style is a one-site change.
///
/// Canonical names, in canonical order: `tau` (CENT-SYNC), `dist`,
/// `cent`, `elastic`. Parsing accepts the aliases listed on
/// [`ControlStyleSet::parse`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ControlStyleSet {
    bits: u8,
}

impl ControlStyleSet {
    /// The synchronized TAUBM style (`LT_TAU`).
    pub const TAU: ControlStyleSet = ControlStyleSet { bits: 1 };
    /// The distributed style (`LT_DIST`).
    pub const DIST: ControlStyleSet = ControlStyleSet { bits: 2 };
    /// The centralized product style (`LT_CENT`).
    pub const CENT: ControlStyleSet = ControlStyleSet { bits: 4 };
    /// The elastic (GALS) style (`LT_ELAS`).
    pub const ELASTIC: ControlStyleSet = ControlStyleSet { bits: 8 };

    /// The empty set.
    pub fn empty() -> Self {
        ControlStyleSet { bits: 0 }
    }

    /// Every style.
    pub fn all() -> Self {
        Self::TAU | Self::DIST | Self::CENT | Self::ELASTIC
    }

    /// True when every member of `other` is in `self`.
    pub fn contains(self, other: ControlStyleSet) -> bool {
        self.bits & other.bits == other.bits
    }

    /// True when no style is in the set.
    pub fn is_empty(self) -> bool {
        self.bits == 0
    }

    /// The flag a [`ControlStyle`] value belongs to.
    pub fn of(style: ControlStyle) -> Self {
        match style {
            ControlStyle::CentSync => Self::TAU,
            ControlStyle::Distributed => Self::DIST,
            ControlStyle::Cent => Self::CENT,
            ControlStyle::Elastic(_) => Self::ELASTIC,
        }
    }

    /// Parses one style name. Accepted (case-insensitive): `tau`,
    /// `cent_sync`, `centsync`, `sync` → TAU; `dist`, `distributed` →
    /// DIST; `cent`, `centralized` → CENT; `elastic`, `gals` → ELASTIC.
    pub fn parse_one(name: &str) -> Result<ControlStyleSet, String> {
        match name.trim().to_ascii_lowercase().as_str() {
            "tau" | "cent_sync" | "centsync" | "sync" => Ok(Self::TAU),
            "dist" | "distributed" => Ok(Self::DIST),
            "cent" | "centralized" => Ok(Self::CENT),
            "elastic" | "gals" => Ok(Self::ELASTIC),
            other => Err(format!(
                "unknown control style '{other}' (expected tau|dist|cent|elastic)"
            )),
        }
    }

    /// Parses a comma-separated style list (e.g. `dist,cent,elastic`).
    /// Rejects empty lists and unknown names.
    pub fn parse(list: &str) -> Result<ControlStyleSet, String> {
        let mut set = Self::empty();
        for name in list.split(',').filter(|s| !s.trim().is_empty()) {
            set = set | Self::parse_one(name)?;
        }
        if set.is_empty() {
            return Err("empty control-style list (expected tau|dist|cent|elastic)".to_string());
        }
        Ok(set)
    }

    /// The canonical names of the members, in canonical order.
    pub fn names(self) -> Vec<&'static str> {
        let mut out = Vec::new();
        for (flag, name) in [
            (Self::TAU, "tau"),
            (Self::DIST, "dist"),
            (Self::CENT, "cent"),
            (Self::ELASTIC, "elastic"),
        ] {
            if self.contains(flag) {
                out.push(name);
            }
        }
        out
    }
}

impl std::ops::BitOr for ControlStyleSet {
    type Output = ControlStyleSet;
    fn bitor(self, rhs: ControlStyleSet) -> ControlStyleSet {
        ControlStyleSet {
            bits: self.bits | rhs.bits,
        }
    }
}

/// One leg of a coupled trial: the engine a [`ControlStyle`] runs on. The
/// declaration order is the order every trial runs its legs in (sync →
/// dist → cent → elastic), and the discriminant indexes the per-leg
/// arrays of [`latency_batch`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Leg {
    Sync,
    Dist,
    Cent,
    Elastic,
}

impl Leg {
    const ALL: [Leg; 4] = [Leg::Sync, Leg::Dist, Leg::Cent, Leg::Elastic];

    /// The leg a style runs on, with the elastic spec it carries (zero for
    /// the synchronous styles, which never read it).
    pub(crate) fn of(style: ControlStyle) -> (Leg, ElasticSpec) {
        match style {
            ControlStyle::CentSync => (Leg::Sync, ElasticSpec::zero()),
            ControlStyle::Distributed => (Leg::Dist, ElasticSpec::zero()),
            ControlStyle::Cent => (Leg::Cent, ElasticSpec::zero()),
            ControlStyle::Elastic(spec) => (Leg::Elastic, spec),
        }
    }

    fn flag(self) -> ControlStyleSet {
        match self {
            Leg::Sync => ControlStyleSet::TAU,
            Leg::Dist => ControlStyleSet::DIST,
            Leg::Cent => ControlStyleSet::CENT,
            Leg::Elastic => ControlStyleSet::ELASTIC,
        }
    }
}

/// The generated machinery every leg runs on, built once per measurement:
/// the CENT unit, whose component bank is the DIST unit, so one generation
/// serves DIST, CENT and ELASTIC, plus the elastic spec.
pub(crate) struct Engines<'a> {
    bound: &'a BoundDfg,
    cent: CentControlUnit,
    spec: ElasticSpec,
}

impl<'a> Engines<'a> {
    pub(crate) fn new(bound: &'a BoundDfg, spec: ElasticSpec) -> Self {
        Engines {
            bound,
            cent: CentControlUnit::without_product(bound),
            spec,
        }
    }

    pub(crate) fn dist(&self) -> &DistributedControlUnit {
        self.cent.components()
    }

    /// The sliced twin of `leg`: the CENT-SYNC engine, or the DIST bank
    /// that DIST, CENT and ELASTIC lanes all run on.
    pub(crate) fn sliced(&self, leg: Leg) -> SlicedSim<'_> {
        match leg {
            Leg::Sync => SlicedSim::cent_sync(self.bound, None),
            _ => SlicedSim::distributed(self.bound, self.dist(), None),
        }
    }

    /// Runs one leg of one trial through the scalar kernel; only the
    /// elastic leg reads `skew_seed`.
    pub(crate) fn scalar(
        &self,
        leg: Leg,
        model: &CompletionModel,
        rng: &mut StdRng,
        cfg: &SimConfig,
        skew_seed: u64,
    ) -> Result<usize, SimError> {
        let bound = self.bound;
        let run = match leg {
            Leg::Sync => simulate_cent_sync_with(bound, model, None, rng, cfg),
            Leg::Dist => simulate_distributed_with(bound, self.dist(), model, None, rng, cfg),
            Leg::Cent => simulate_cent_with(bound, &self.cent, model, None, rng, cfg),
            Leg::Elastic => {
                let cu = self.dist();
                simulate_elastic_with(bound, cu, model, None, rng, cfg, self.spec, skew_seed)
            }
        };
        Ok(run?.cycles)
    }

    /// The `(best, worst)` cells of one leg. The synchronous legs run the
    /// completion extremes. The elastic leg pins the schedule-space
    /// extremes as well — the stall-free floor for best, the saturated
    /// ceiling for worst — so its envelope brackets the seeded averages
    /// whichever skew seeds they drew, and is the same in every partition.
    /// Deterministic models draw nothing from the RNG.
    fn envelope(&self, leg: Leg, base_seed: u64) -> Result<(usize, usize), SimError> {
        let mut rng = trial_rng(base_seed, u64::MAX, 0);
        let (short, long) = (&CompletionModel::AlwaysShort, &CompletionModel::AlwaysLong);
        let cfg = &SimConfig::default();
        if leg != Leg::Elastic {
            return Ok((
                self.scalar(leg, short, &mut rng, cfg, 0)?,
                self.scalar(leg, long, &mut rng, cfg, 0)?,
            ));
        }
        let (bound, cu) = (self.bound, self.dist());
        let floor = ElasticSpec {
            skew_bound: 0,
            ..self.spec
        };
        let best = simulate_elastic_with(bound, cu, short, None, &mut rng, cfg, floor, 0)?;
        let worst = simulate_elastic_saturated(bound, cu, long, None, &mut rng, cfg, self.spec)?;
        Ok((best.cycles, worst.cycles))
    }
}

/// Per-worker scratch of [`latency_batch`], reused across every chunk the
/// worker claims: the sliced engines of the requested legs plus the lane
/// buffers.
struct Slab<'a> {
    /// The CENT-SYNC engine, when `tau` is requested.
    sync: Option<SlicedSim<'a>>,
    /// The DIST controller bank, when `dist`, `cent` or `elastic` is
    /// requested: CENT records its cycles, ELASTIC re-clocks it.
    bank: Option<SlicedSim<'a>>,
    rngs: Vec<StdRng>,
    tables: Vec<CompletionModel>,
    skews: Vec<u64>,
}

/// Measures one [`LatencySummary`] per style in `styles` with **coupled**
/// completion draws, on the deterministic batch engine.
///
/// Every trial of every swept `(job_id, p)` draws one completion table
/// from `trial_rng(base_seed, job_id, trial)` and feeds it to each
/// requested leg, in the fixed order sync → dist → cent → elastic, so
/// the comparison is free of sampling skew: distributed control dominates
/// per trial, not merely in expectation. Table models draw nothing
/// further, and the elastic skew schedule comes from
/// [`elastic_trial_skew_seed`], so each leg's numbers are the same
/// whichever other styles are requested.
///
/// Only the sliced engines of the requested styles run; CENT records the
/// cycles of the sliced DIST bank it is bisimilar to. A lane the sliced
/// engine declines is re-run through the scalar kernel from a fresh
/// trial RNG. Debug builds assert per trial that DIST never loses to
/// CENT-SYNC, that CENT equals DIST and that ELASTIC never beats DIST.
///
/// Each swept `P` seeds its trials from its supplied `job_id`, not its
/// position in `indexed_p`, so a contiguous sub-range of a sweep run with
/// its global indices reproduces the full sweep's averages exactly; that
/// is what a cluster partitions on. Best and worst cells come from
/// deterministic extremes, identical in every partition.
///
/// Returns the summaries in canonical order (`tau`, `dist`, `cent`,
/// `elastic`; see [`ControlStyleSet::names`]),
/// [`SimError::InvalidConfig`] when `trials == 0` or `styles` is empty,
/// [`SimError::Cancelled`] once `runner`'s token fires, or the error of
/// the lowest-numbered failing trial.
pub fn latency_batch(
    bound: &BoundDfg,
    styles: ControlStyleSet,
    indexed_p: &[(u64, f64)],
    trials: u64,
    base_seed: u64,
    elastic: ElasticSpec,
    runner: &BatchRunner,
) -> Result<Vec<LatencySummary>, SimError> {
    if trials == 0 || styles.is_empty() {
        return Err(SimError::InvalidConfig(
            "latency batch needs trials >= 1 and at least one style".to_string(),
        ));
    }
    let legs: Vec<Leg> = Leg::ALL
        .into_iter()
        .filter(|leg| styles.contains(leg.flag()))
        .collect();
    let wants = |leg: Leg| styles.contains(leg.flag());
    let engines = Engines::new(bound, elastic);
    let fault_free = SimConfig::default();
    let envelopes = legs
        .iter()
        .map(|&leg| engines.envelope(leg, base_seed))
        .collect::<Result<Vec<_>, _>>()?;
    let num_ops = bound.dfg().num_ops();
    let mut averages: [Vec<f64>; 4] = Default::default();
    for &(job_id, p) in indexed_p {
        type LegStats = ([CycleStats; 4], FirstError);
        let (stats, errors): LegStats = runner.run_chunked(
            trials,
            || Slab {
                sync: wants(Leg::Sync).then(|| engines.sliced(Leg::Sync)),
                bank: (wants(Leg::Dist) || wants(Leg::Cent) || wants(Leg::Elastic))
                    .then(|| engines.sliced(Leg::Dist)),
                rngs: Vec::new(),
                tables: Vec::new(),
                skews: Vec::new(),
            },
            |w: &mut Slab, range, (stats, errors): &mut LegStats| {
                let mut start = range.start;
                while start < range.end {
                    let end = (start + LANES as u64).min(range.end);
                    w.rngs.clear();
                    w.tables.clear();
                    w.skews.clear();
                    for trial in start..end {
                        let mut rng = trial_rng(base_seed, job_id, trial);
                        w.tables
                            .push(CompletionModel::draw_table(num_ops, p, &mut rng));
                        w.rngs.push(rng);
                        w.skews
                            .push(elastic_trial_skew_seed(base_seed, job_id, trial));
                    }
                    let models = LaneModels::PerLane(&w.tables);
                    let cfgs = LaneConfigs::Shared(&fault_free);
                    let sync = w
                        .sync
                        .as_mut()
                        .map(|sim| sim.run(&models, &cfgs, &mut w.rngs));
                    let bank = match &mut w.bank {
                        Some(sim) if wants(Leg::Dist) || wants(Leg::Cent) => {
                            Some(sim.run(&models, &cfgs, &mut w.rngs))
                        }
                        _ => None,
                    };
                    let elas = match &mut w.bank {
                        Some(sim) if wants(Leg::Elastic) => {
                            Some(sim.run_elastic(elastic, &w.skews, &models, &cfgs, &mut w.rngs))
                        }
                        _ => None,
                    };
                    let sliced = [&sync, &bank, &bank, &elas];
                    'lanes: for (lane, trial) in (start..end).enumerate() {
                        let mut cycles = [0usize; 4];
                        for &leg in &legs {
                            let done = sliced[leg as usize].as_ref().and_then(|out| out.get(lane));
                            cycles[leg as usize] = match done {
                                Some(LaneOutcome::Done(r)) => r.cycles,
                                _ => {
                                    let mut rng = trial_rng(base_seed, job_id, trial);
                                    let table = CompletionModel::draw_table(num_ops, p, &mut rng);
                                    let skew = elastic_trial_skew_seed(base_seed, job_id, trial);
                                    match engines.scalar(leg, &table, &mut rng, &fault_free, skew) {
                                        Ok(c) => c,
                                        Err(e) => {
                                            errors.record(trial, e);
                                            continue 'lanes;
                                        }
                                    }
                                }
                            };
                        }
                        let [s, d, c, e] = cycles;
                        debug_assert!(
                            !(wants(Leg::Sync) && wants(Leg::Dist)) || d <= s,
                            "distributed lost a coupled trial: {d} > {s}"
                        );
                        debug_assert!(
                            !(wants(Leg::Cent) && wants(Leg::Dist)) || c == d,
                            "CENT diverged from DIST on a coupled trial: {c} != {d}"
                        );
                        debug_assert!(
                            !(wants(Leg::Elastic) && wants(Leg::Dist)) || d <= e,
                            "elastic beat dist on a coupled trial: {e} < {d}"
                        );
                        for &leg in &legs {
                            stats[leg as usize].record(cycles[leg as usize]);
                        }
                    }
                    start = end;
                }
            },
        );
        runner.check_cancelled()?;
        errors.into_result()?;
        for &leg in &legs {
            averages[leg as usize].push(stats[leg as usize].mean());
        }
    }
    let p_values: Vec<f64> = indexed_p.iter().map(|&(_, p)| p).collect();
    Ok(legs
        .iter()
        .zip(envelopes)
        .map(|(&leg, (best_cycles, worst_cycles))| LatencySummary {
            best_cycles,
            average_cycles: std::mem::take(&mut averages[leg as usize]),
            worst_cycles,
            p_values: p_values.clone(),
        })
        .collect())
}

/// [`latency_batch`] over every style, with `P` values indexed by
/// position.
///
/// Returns `(sync, dist, cent, elastic)`, or [`SimError::InvalidConfig`]
/// when `trials == 0`.
pub fn latency_quad_batch(
    bound: &BoundDfg,
    p_values: &[f64],
    trials: u64,
    base_seed: u64,
    spec: ElasticSpec,
    runner: &BatchRunner,
) -> Result<
    (
        LatencySummary,
        LatencySummary,
        LatencySummary,
        LatencySummary,
    ),
    SimError,
> {
    let indexed: Vec<(u64, f64)> = (0..).zip(p_values.iter().copied()).collect();
    let all = ControlStyleSet::all();
    match <[LatencySummary; 4]>::try_from(latency_batch(
        bound, all, &indexed, trials, base_seed, spec, runner,
    )?) {
        Ok([sync, dist, cent, elas]) => Ok((sync, dist, cent, elas)),
        Err(_) => Err(SimError::InvalidConfig(
            "latency batch returned fewer than four legs".to_string(),
        )),
    }
}

/// Measures one style **uncoupled**: best/worst from the deterministic
/// extremes (the same envelope as [`latency_batch`]), averages from
/// batched Bernoulli [`SimJob`]s with one `job_id` per swept `P`, which
/// draw each completion inside the kernel as it is reached.
///
/// Returns [`SimError::InvalidConfig`] when `trials == 0`.
pub fn latency_summary_batch(
    bound: &BoundDfg,
    style: ControlStyle,
    p_values: &[f64],
    trials: u64,
    base_seed: u64,
    runner: &BatchRunner,
) -> Result<LatencySummary, SimError> {
    if trials == 0 {
        return Err(SimError::InvalidConfig(
            "latency summary needs trials >= 1".to_string(),
        ));
    }
    let (leg, spec) = Leg::of(style);
    let (best_cycles, worst_cycles) = Engines::new(bound, spec).envelope(leg, base_seed)?;
    let average_cycles = (0..)
        .zip(p_values)
        .map(|(job_id, &p)| {
            let model = CompletionModel::Bernoulli { p };
            let job = SimJob::new(bound, style, &model).trials(trials);
            Ok(job.job_id(job_id).run(base_seed, runner)?.mean())
        })
        .collect::<Result<_, SimError>>()?;
    Ok(LatencySummary {
        best_cycles,
        average_cycles,
        worst_cycles,
        p_values: p_values.to_vec(),
    })
}

/// Percentage improvement of `dist` over `sync` per swept `P`
/// (the paper's "Performance Enhancement" column).
pub fn enhancement_percent(sync: &LatencySummary, dist: &LatencySummary) -> Vec<f64> {
    sync.average_cycles
        .iter()
        .zip(&dist.average_cycles)
        .map(|(s, d)| (s - d) / s * 100.0)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::CancelToken;
    use tauhls_dfg::benchmarks::{fir3, fir5, iir2};
    use tauhls_sched::Allocation;

    fn fir5_bound() -> BoundDfg {
        BoundDfg::bind(&fir5(), &Allocation::paper(2, 1, 0))
    }

    fn indexed(ps: &[f64]) -> Vec<(u64, f64)> {
        (0..).zip(ps.iter().copied()).collect()
    }

    /// Every non-empty style set, built from the canonical flags.
    fn every_subset() -> Vec<ControlStyleSet> {
        (1u8..16)
            .map(|mask| {
                (0..4)
                    .filter(|bit| mask >> bit & 1 == 1)
                    .fold(ControlStyleSet::empty(), |set, bit| {
                        set | Leg::ALL[bit].flag()
                    })
            })
            .collect()
    }

    #[test]
    fn every_style_subset_reproduces_the_all_styles_legs() {
        let bound = fir5_bound();
        let ps = indexed(&[0.9, 0.5]);
        let spec = ElasticSpec::default();
        for trials in [1u64, 63, 64, 65, 257] {
            let all = latency_batch(
                &bound,
                ControlStyleSet::all(),
                &ps,
                trials,
                5,
                spec,
                &BatchRunner::serial(),
            )
            .unwrap();
            for runner in [
                BatchRunner::serial(),
                BatchRunner::new(4),
                BatchRunner::new(4).with_chunk_size(10),
            ] {
                for set in every_subset() {
                    let want: Vec<LatencySummary> = Leg::ALL
                        .iter()
                        .zip(&all)
                        .filter(|(leg, _)| set.contains(leg.flag()))
                        .map(|(_, summary)| summary.clone())
                        .collect();
                    let got = latency_batch(&bound, set, &ps, trials, 5, spec, &runner).unwrap();
                    assert_eq!(got, want, "{:?}, trials {trials}, {runner:?}", set.names());
                }
            }
        }
    }

    #[test]
    fn coupled_legs_dominate_and_quad_is_the_all_styles_run() {
        let bound = fir5_bound();
        let ps = [0.9, 0.7, 0.5];
        let spec = ElasticSpec::default();
        let runner = BatchRunner::new(2);
        let (sync, dist, cent, elas) =
            latency_quad_batch(&bound, &ps, 400, 9, spec, &runner).unwrap();
        let all = latency_batch(
            &bound,
            ControlStyleSet::all(),
            &indexed(&ps),
            400,
            9,
            spec,
            &runner,
        )
        .unwrap();
        assert_eq!(
            all,
            vec![sync.clone(), dist.clone(), cent.clone(), elas.clone()]
        );
        // CENT is cycle-identical to DIST (bisimulation), trial for trial.
        assert_eq!(cent, dist);
        for i in 0..ps.len() {
            let (s, d, e) = (
                sync.average_cycles[i],
                dist.average_cycles[i],
                elas.average_cycles[i],
            );
            assert!(d <= s, "dist {d} > sync {s}");
            assert!(d <= e, "elastic {e} < dist {d}");
        }
        assert_eq!(sync.best_cycles, dist.best_cycles);
        assert!(dist.worst_cycles <= sync.worst_cycles);
        assert!(dist.worst_cycles <= elas.worst_cycles);
        let enh = enhancement_percent(&sync, &dist);
        // The paper reports 4.9-13.2 % for FIR5; demand a visible gain
        // that widens as P shrinks.
        assert!(enh[2] > 2.0, "enhancement at P=0.5: {enh:?}");
        assert!(enh[2] >= enh[0] - 0.5, "{enh:?}");
    }

    #[test]
    fn indexed_sub_ranges_reproduce_the_full_sweep() {
        let bound = BoundDfg::bind(&fir3(), &Allocation::paper(1, 1, 0));
        let ps = [0.1, 0.35, 0.5, 0.75, 0.9];
        let spec = ElasticSpec::default();
        let runner = BatchRunner::new(2);
        let all = ControlStyleSet::all();
        let full = latency_batch(&bound, all, &indexed(&ps), 40, 9, spec, &runner).unwrap();
        for (lo, hi) in [(0usize, 2usize), (2, 5), (1, 4), (0, 5)] {
            let slice: Vec<(u64, f64)> = (lo..hi).map(|i| (i as u64, ps[i])).collect();
            let part = latency_batch(&bound, all, &slice, 40, 9, spec, &runner).unwrap();
            for (got, whole) in part.iter().zip(&full) {
                assert_eq!(got.best_cycles, whole.best_cycles);
                assert_eq!(got.worst_cycles, whole.worst_cycles);
                assert_eq!(got.average_cycles, whole.average_cycles[lo..hi].to_vec());
                assert_eq!(got.p_values, ps[lo..hi].to_vec());
            }
        }
    }

    #[test]
    fn zero_elastic_spec_collapses_elastic_onto_dist() {
        let bound = fir5_bound();
        let styles = ControlStyleSet::DIST | ControlStyleSet::ELASTIC;
        let legs = latency_batch(
            &bound,
            styles,
            &indexed(&[0.9, 0.5]),
            300,
            7,
            ElasticSpec::zero(),
            &BatchRunner::new(4),
        )
        .unwrap();
        assert_eq!(legs[0], legs[1]);
    }

    #[test]
    fn cancelled_runner_and_bad_arguments_are_typed_errors() {
        let bound = fir5_bound();
        let ps = indexed(&[0.5]);
        let spec = ElasticSpec::default();
        let token = CancelToken::new();
        token.cancel();
        for threads in [1usize, 4] {
            let runner = BatchRunner::new(threads).with_cancel(token.clone());
            let err = latency_batch(&bound, ControlStyleSet::all(), &ps, 100, 3, spec, &runner)
                .unwrap_err();
            assert_eq!(err, SimError::Cancelled);
        }
        let runner = BatchRunner::serial();
        for (styles, trials) in [(ControlStyleSet::all(), 0), (ControlStyleSet::empty(), 10)] {
            let err = latency_batch(&bound, styles, &ps, trials, 3, spec, &runner).unwrap_err();
            assert!(matches!(err, SimError::InvalidConfig(_)), "{err:?}");
        }
        let err = latency_summary_batch(&bound, ControlStyle::Distributed, &[0.5], 0, 3, &runner)
            .unwrap_err();
        assert!(matches!(err, SimError::InvalidConfig(_)));
    }

    #[test]
    fn summary_batch_brackets_extremes_and_is_monotone_in_p() {
        let runner = BatchRunner::new(2);
        let cases = [
            (
                BoundDfg::bind(&fir3(), &Allocation::paper(1, 1, 0)),
                ControlStyle::Distributed,
            ),
            (
                BoundDfg::bind(&iir2(), &Allocation::paper(2, 1, 0)),
                ControlStyle::CentSync,
            ),
            (fir5_bound(), ControlStyle::Elastic(ElasticSpec::default())),
        ];
        for (bound, style) in cases {
            let s =
                latency_summary_batch(&bound, style, &[0.9, 0.5, 0.1], 500, 3, &runner).unwrap();
            assert!(s.best_cycles as f64 <= s.average_cycles[0], "{style:?}");
            assert!(s.average_cycles[0] <= s.average_cycles[1], "{style:?}");
            assert!(s.average_cycles[1] <= s.average_cycles[2], "{style:?}");
            assert!(s.average_cycles[2] <= s.worst_cycles as f64, "{style:?}");
        }
    }

    #[test]
    fn style_set_parses_aliases_and_renders_canonical_names() {
        let set = ControlStyleSet::parse("dist,cent,elastic").unwrap();
        assert!(set.contains(ControlStyleSet::DIST));
        assert!(set.contains(ControlStyleSet::CENT));
        assert!(set.contains(ControlStyleSet::ELASTIC));
        assert!(!set.contains(ControlStyleSet::TAU));
        assert_eq!(set.names(), vec!["dist", "cent", "elastic"]);
        // Aliases, case-insensitivity, spacing.
        assert_eq!(
            ControlStyleSet::parse("CentSync, Distributed").unwrap(),
            ControlStyleSet::TAU | ControlStyleSet::DIST
        );
        assert_eq!(
            ControlStyleSet::parse("gals").unwrap(),
            ControlStyleSet::ELASTIC
        );
        assert_eq!(ControlStyleSet::all().names().len(), 4);
        // Unknown names and empty lists are rejected.
        assert!(ControlStyleSet::parse("dist,bogus").is_err());
        assert!(ControlStyleSet::parse("").is_err());
        assert!(ControlStyleSet::parse(" , ").is_err());
        // Style-value mapping covers the elastic variant.
        assert_eq!(
            ControlStyleSet::of(ControlStyle::Elastic(ElasticSpec::default())),
            ControlStyleSet::ELASTIC
        );
    }

    #[test]
    fn ns_rendering() {
        let s = LatencySummary {
            best_cycles: 3,
            average_cycles: vec![3.29, 3.81],
            worst_cycles: 5,
            p_values: vec![0.9, 0.5],
        };
        assert_eq!(s.to_ns_string(15.0), "[45][49.4, 57.1][75]");
    }
}

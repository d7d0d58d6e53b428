//! End-to-end pipeline integration tests: every paper benchmark through
//! scheduling, binding, controller generation, synthesis and simulation.

use rand::rngs::StdRng;
use rand::SeedableRng;
use tauhls::core::experiments::paper_benchmarks;
use tauhls::fsm::{synthesize, verify_synthesis, DistributedControlUnit, Encoding};
use tauhls::logic::AreaModel;
use tauhls::sched::BoundDfg;
use tauhls::sim::{
    latency_batch, simulate_distributed, BatchRunner, CompletionModel, ControlStyleSet,
    ElasticSpec, LatencySummary,
};
use tauhls::{Allocation, Synthesis};

/// The coupled CENT-SYNC and DIST summaries of one design.
fn sync_and_dist(
    bound: &BoundDfg,
    ps: &[f64],
    trials: u64,
    seed: u64,
) -> (LatencySummary, LatencySummary) {
    let indexed: Vec<(u64, f64)> = (0..).zip(ps.iter().copied()).collect();
    let styles = ControlStyleSet::TAU | ControlStyleSet::DIST;
    let runner = BatchRunner::new(2);
    let mut legs = latency_batch(
        bound,
        styles,
        &indexed,
        trials,
        seed,
        ElasticSpec::zero(),
        &runner,
    )
    .expect("fault-free simulation");
    let dist = legs.remove(1);
    (legs.remove(0), dist)
}

#[test]
fn all_paper_benchmarks_synthesize_and_simulate() {
    let mut rng = StdRng::seed_from_u64(1);
    for (dfg, alloc, _) in paper_benchmarks() {
        let name = dfg.name().to_string();
        let design = Synthesis::new(dfg).allocation(alloc).run().unwrap();
        // Every controller is a valid deterministic Mealy machine.
        for (_, fsm) in design.distributed().controllers() {
            fsm.check().unwrap_or_else(|e| panic!("{name}: {e}"));
        }
        design.cent_sync().check().unwrap();
        // Simulation is legal at both extremes and in between.
        let cu = DistributedControlUnit::generate(design.bound());
        for model in [
            CompletionModel::AlwaysShort,
            CompletionModel::AlwaysLong,
            CompletionModel::Bernoulli { p: 0.7 },
        ] {
            let r = simulate_distributed(design.bound(), &cu, &model, None, &mut rng)
                .expect("fault-free simulation");
            r.verify(design.bound())
                .unwrap_or_else(|e| panic!("{name}: {e}"));
        }
    }
}

#[test]
fn distributed_dominates_sync_on_every_benchmark() {
    for (dfg, alloc, _) in paper_benchmarks() {
        let name = dfg.name().to_string();
        let design = Synthesis::new(dfg).allocation(alloc).run().unwrap();
        let (sync, dist) = sync_and_dist(design.bound(), &[0.9, 0.5], 300, 2);
        assert!(dist.best_cycles <= sync.best_cycles, "{name} best");
        assert!(dist.worst_cycles <= sync.worst_cycles, "{name} worst");
        for (s, d) in sync.average_cycles.iter().zip(&dist.average_cycles) {
            assert!(d <= s, "{name}: dist {d} > sync {s}");
        }
    }
}

#[test]
fn every_controller_synthesizes_correctly_in_all_encodings() {
    for (dfg, alloc, _) in paper_benchmarks() {
        let name = dfg.name().to_string();
        let design = Synthesis::new(dfg).allocation(alloc).run().unwrap();
        for (_, fsm) in design.distributed().controllers() {
            for enc in [Encoding::Binary, Encoding::Gray, Encoding::OneHot] {
                let syn = synthesize(fsm, enc, &AreaModel::default());
                assert!(
                    verify_synthesis(fsm, &syn, enc),
                    "{name}/{}/{enc:?}: synthesized logic diverges",
                    fsm.name()
                );
            }
        }
        // The synchronized controller synthesizes too.
        let syn = synthesize(design.cent_sync(), Encoding::Binary, &AreaModel::default());
        assert!(verify_synthesis(design.cent_sync(), &syn, Encoding::Binary));
    }
}

#[test]
fn paper_latency_cells_reproduce_within_tolerance() {
    // The paper's Diff row: LT_TAU [60][68.6, 82.9, 93.8][105],
    // LT_DIST [60][68.1, 80.7, 90.6][105]. Our reproduction should land
    // within ~2 ns of every average cell.
    let design = Synthesis::new(tauhls::dfg::benchmarks::diffeq())
        .allocation(Allocation::paper(2, 1, 1))
        .run()
        .unwrap();
    let (sync, dist) = sync_and_dist(design.bound(), &[0.9, 0.7, 0.5], 6000, 3);
    let clk = 15.0;
    let paper_tau = [68.6, 82.9, 93.8];
    let paper_dist = [68.1, 80.7, 90.6];
    for (ours, paper) in sync.average_cycles.iter().zip(paper_tau) {
        assert!(
            (ours * clk - paper).abs() < 2.0,
            "LT_TAU {:.1} vs paper {paper}",
            ours * clk
        );
    }
    for (ours, paper) in dist.average_cycles.iter().zip(paper_dist) {
        assert!(
            (ours * clk - paper).abs() < 2.0,
            "LT_DIST {:.1} vs paper {paper}",
            ours * clk
        );
    }
    assert_eq!(sync.best_cycles * 15, 60);
    assert_eq!(sync.worst_cycles * 15, 105);
    assert_eq!(dist.worst_cycles * 15, 105);
}

#[test]
fn unused_units_get_no_controllers() {
    // Allocate more units than needed: surplus units stay controller-less.
    let design = Synthesis::new(tauhls::dfg::benchmarks::fir3())
        .allocation(Allocation::paper(4, 2, 1))
        .run()
        .unwrap();
    // 3 mults fit in 3 units, 2 adds in 2 -> at most 5 controllers and no
    // controller for the subtractor.
    assert!(design.distributed().controllers().len() <= 5);
    let units = design.bound().allocation().units();
    for (u, _) in design.distributed().controllers() {
        assert!(!design.bound().sequence(*u).is_empty());
        let _ = &units[u.0];
    }
}

//! Design-space exploration: sweep the number of telescopic multipliers
//! and the short-probability `P` for the AR-lattice benchmark, reporting
//! the latency/area trade-off of distributed vs synchronized control —
//! the engineering decision the paper's method informs.
//!
//! Run with `cargo run --release --example design_space`.

use tauhls::dfg::benchmarks::ar_lattice4;
use tauhls::fsm::Encoding;
use tauhls::logic::AreaModel;
use tauhls::sim::{latency_batch, BatchRunner, ControlStyleSet, ElasticSpec};
use tauhls::{Allocation, Synthesis};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let runner = BatchRunner::available();
    let styles = ControlStyleSet::TAU | ControlStyleSet::DIST;
    let model = AreaModel::default();
    println!("AR-lattice (16 ×, 8 +) design space — distributed control");
    println!(
        "{:<8} {:<10} {:<22} {:<22} {:<12} ctrl area (GE)",
        "TAUs", "adders", "LT_DIST(ns) @P=.9/.5", "LT_SYNC(ns) @P=.9/.5", "gain@.5"
    );
    for muls in 1..=4usize {
        for adds in [1usize, 2] {
            let design = Synthesis::new(ar_lattice4())
                .allocation(Allocation::paper(muls, adds, 0))
                .run()?;
            let ps = [(0, 0.9), (1, 0.5)];
            let zero = ElasticSpec::zero();
            let legs = latency_batch(design.bound(), styles, &ps, 1200, 11, zero, &runner)?;
            let (sync, dist) = (&legs[0], &legs[1]);
            let clk = design.timing().clock_ns();
            let area: f64 = design
                .distributed()
                .controllers()
                .iter()
                .map(|(u, _)| {
                    design
                        .synthesize_controller(*u, Encoding::Binary, &model)
                        .area()
                        .total()
                })
                .sum();
            let gain =
                (sync.average_cycles[1] - dist.average_cycles[1]) / sync.average_cycles[1] * 100.0;
            println!(
                "{:<8} {:<10} {:>8.1} / {:<10.1} {:>8.1} / {:<10.1} {:>6.1}%     {:>8.0}",
                muls,
                adds,
                dist.average_cycles[0] * clk,
                dist.average_cycles[1] * clk,
                sync.average_cycles[0] * clk,
                sync.average_cycles[1] * clk,
                gain,
                area
            );
        }
    }
    println!("\nMore TAUs shorten the schedule but widen the synchronized");
    println!("controller's P^n penalty — the distributed gain grows with both");
    println!("the TAU count and the long-delay probability.");
    Ok(())
}

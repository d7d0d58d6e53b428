//! Quickstart: build a small dataflow graph, telescope its multipliers,
//! synthesize a distributed control unit, and compare it against the
//! synchronized centralized baseline.
//!
//! Run with `cargo run --example quickstart`.

use tauhls::dfg::DfgBuilder;
use tauhls::fsm::Encoding;
use tauhls::logic::AreaModel;
use tauhls::sim::{latency_batch, BatchRunner, ControlStyleSet, ElasticSpec};
use tauhls::{Allocation, Synthesis};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Describe the computation: two unbalanced chains joining at the
    //    end — r = ((a*b + e) * f) + (c*d * g). Under synchronized control
    //    the short chain is dragged along by the long one; distributed
    //    control lets each multiplier run free.
    let mut b = DfgBuilder::new("quickstart");
    let a = b.input("a");
    let bb = b.input("b");
    let c = b.input("c");
    let d = b.input("d");
    let e = b.input("e");
    let f = b.input("f");
    let g = b.input("g");
    let m1 = b.mul(a.into(), bb.into()); // chain 1: mul -> add -> mul
    let s1 = b.add(m1.into(), e.into());
    let m2 = b.mul(s1.into(), f.into());
    let m3 = b.mul(c.into(), d.into()); // chain 2: mul -> mul
    let m4 = b.mul(m3.into(), g.into());
    let r = b.add(m2.into(), m4.into());
    b.output("r", r);
    let dfg = b.build()?;
    println!("DFG '{}' with {} operations", dfg.name(), dfg.num_ops());
    println!(
        "reference: r(1,2,3,4,5,6,7) = {}",
        dfg.evaluate(&[1, 2, 3, 4, 5, 6, 7])["r"]
    );

    // 2. Allocate two telescopic multipliers and one adder, synthesize.
    let design = Synthesis::new(dfg)
        .allocation(Allocation::paper(2, 1, 0))
        .run()?;

    println!("\nDistributed control unit:");
    let units = design.bound().allocation().units();
    for (u, fsm) in design.distributed().controllers() {
        let syn = design.synthesize_controller(*u, Encoding::Binary, &AreaModel::default());
        println!(
            "  {}: runs {:?} | {} states, {} FFs, area {:.0} GE",
            units[u.0].display_name(),
            design.bound().sequence(*u),
            fsm.num_states(),
            syn.flip_flops(),
            syn.area().total(),
        );
    }

    // 3. Compare latency against the synchronized TAUBM controller.
    let legs = latency_batch(
        design.bound(),
        ControlStyleSet::TAU | ControlStyleSet::DIST,
        &[(0, 0.9), (1, 0.7), (2, 0.5)],
        2000,
        42,
        ElasticSpec::zero(),
        &BatchRunner::available(),
    )?;
    let (sync, dist) = (&legs[0], &legs[1]);
    let clk = design.timing().clock_ns();
    println!("\nLatency at a {clk} ns clock:");
    println!("  synchronized TAUBM : {}", sync.to_ns_string(clk));
    println!("  distributed (ours) : {}", dist.to_ns_string(clk));
    for (p, (s, d)) in sync
        .p_values
        .iter()
        .zip(sync.average_cycles.iter().zip(&dist.average_cycles))
    {
        println!("  P = {p}: {:.1}% faster", (s - d) / s * 100.0);
    }
    Ok(())
}

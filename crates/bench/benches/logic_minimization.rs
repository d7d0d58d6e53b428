//! Ablation bench (DESIGN.md decision 4): exact Quine–McCluskey vs the
//! espresso-style heuristic, in runtime and result quality, on functions
//! shaped like controller next-state logic. The `logic/shapes/*` rows time
//! the two function shapes that dominate paper-suite synthesis, through
//! `minimize_auto` at the synthesizer's exact limit.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tauhls_bench::{black_box, Bench};
use tauhls_logic::{minimize_auto, minimize_exact, minimize_heuristic, Cover, Cube, TruthTable};

/// The variable count up to which FSM synthesis minimizes exactly.
const EXACT_LIMIT: usize = 11;

fn random_table(n: usize, density: f64, seed: u64) -> TruthTable {
    let mut rng = StdRng::seed_from_u64(seed);
    TruthTable::from_fn(n, |_| Some(rng.random_bool(density)))
}

/// A one-hot CENT-SYNC next-state bit: eight state bits x0..x7, two guard
/// inputs x8, x9, "state bit AND guard" with an empty don't-care set.
fn one_hot_cent_sync() -> (Cover, Cover) {
    let on = Cover::from_cubes(
        10,
        [
            Cube::from_literals(&[(3, true), (8, true)]),
            Cube::from_literals(&[(3, true), (9, true)]),
        ],
    );
    (on, Cover::empty(10))
}

/// A binary D-FSM next-state bit: a 3-bit state code x0..x2 over six
/// states (codes 6 and 7 unused, so don't-cares) and eight completion
/// inputs x3..x10.
fn binary_d_fsm() -> (Cover, Cover) {
    let state = |code: u64, extra: &[(usize, bool)]| {
        let mut lits: Vec<(usize, bool)> = (0..3).map(|b| (b, code >> b & 1 == 1)).collect();
        lits.extend_from_slice(extra);
        Cube::from_literals(&lits)
    };
    let on = Cover::from_cubes(
        11,
        [
            state(1, &[(3, true)]),
            state(2, &[]),
            state(4, &[(5, false), (6, true)]),
        ],
    );
    let dc = Cover::from_cubes(11, [state(6, &[]), state(7, &[])]);
    (on, dc)
}

fn main() {
    let bench = Bench::from_args().sample_size(5);

    for (name, (on, dc)) in [
        ("onehot_cent_sync/10", one_hot_cent_sync()),
        ("binary_dfsm/11", binary_d_fsm()),
    ] {
        bench.run(&format!("logic/shapes/{name}"), || {
            black_box(minimize_auto(black_box(&on), &dc, EXACT_LIMIT));
        });
    }

    for n in [6usize, 8, 10] {
        let t = random_table(n, 0.3, n as u64);
        let canon = t.canonical_cover();
        bench.run(&format!("logic/engines/qm_exact/{n}"), || {
            black_box(minimize_exact(black_box(&t)));
        });
        bench.run(&format!("logic/engines/heuristic/{n}"), || {
            black_box(minimize_heuristic(
                black_box(&canon),
                &Cover::empty(canon.num_vars()),
            ));
        });
    }

    // Not a timing bench per se: report literal-count quality once, then
    // time the combined auto engine.
    for n in [6usize, 8] {
        let t = random_table(n, 0.3, 100 + n as u64);
        let exact = minimize_exact(&t);
        let heur = minimize_heuristic(&t.canonical_cover(), &Cover::empty(n));
        eprintln!(
            "quality n={n}: exact {} cubes/{} literals, heuristic {} cubes/{} literals",
            exact.len(),
            exact.literal_count(),
            heur.len(),
            heur.literal_count()
        );
    }
    let t = random_table(9, 0.25, 9);
    let canon = t.canonical_cover();
    bench.run("logic/auto/minimize_auto_9vars", || {
        black_box(minimize_auto(
            black_box(&canon),
            &Cover::empty(9),
            EXACT_LIMIT,
        ));
    });
}

//! Pins the paper cells that `results/synth_golden.json` does not cover:
//! fir5, iir2, diffeq and iir3 under one-hot encoding, and ar_lattice4
//! under binary and gray, each at its paper allocation.
//!
//! These are the cells whose logic goes through the widest exact
//! Quine–McCluskey runs (one-hot CENT-SYNC controllers with ten variables,
//! binary D-FSMs with eleven). The expected artifact-hash chains and
//! per-controller `(states, flip_flops, area_com, area_seq)` tuples were
//! recorded from the all-pairs prime generator, so any change to prime
//! generation or covering that moves a cover shows up here. Every
//! controller is also checked against its behavioural machine with
//! `verify_synthesis`.

use tauhls::core::experiments::paper_benchmarks;
use tauhls::core::stages::{self, BindStrategy, PipelineTrace, SynthesisInput};
use tauhls::fsm::{verify_synthesis, Encoding, SynthesizedFsm};
use tauhls::logic::AreaModel;

/// `(states, flip_flops, area_com, area_seq)` of one synthesized FSM.
type Fingerprint = (usize, usize, f64, f64);

struct Cell {
    bench: &'static str,
    encoding: Encoding,
    /// Output hashes of canonicalize, order, bind, controllers, logic and
    /// report, in that order.
    chain: [u64; 6],
    /// Unit name and fingerprint of every distributed controller.
    controllers: &'static [(&'static str, Fingerprint)],
    cent_sync: Fingerprint,
}

const CELLS: &[Cell] = &[
    Cell {
        bench: "fir5",
        encoding: Encoding::OneHot,
        chain: [
            0x9ab6a157b83952aa,
            0x47b6b7bd2e1a3aa7,
            0x66095d4808af8417,
            0xc8edb105a0296a6b,
            0x5b1a4acd52ad8cbd,
            0x6fa41400af95e3f9,
        ],
        controllers: &[
            ("M1", (6, 6, 97.0, 132.0)),
            ("M2", (4, 4, 65.0, 88.0)),
            ("A1", (8, 8, 117.0, 176.0)),
        ],
        cent_sync: (8, 8, 126.0, 176.0),
    },
    Cell {
        bench: "iir2",
        encoding: Encoding::OneHot,
        chain: [
            0x52e2acaa2353544e,
            0x62c1eb13a0ac8fe4,
            0x5221b14828177ba9,
            0x8d9693cd7c4bbd24,
            0x0ced70b77eac4f95,
            0xd0c3395f00ce9346,
        ],
        controllers: &[
            ("M1", (6, 6, 97.0, 132.0)),
            ("M2", (4, 4, 65.0, 88.0)),
            ("A1", (7, 7, 109.0, 154.0)),
        ],
        cent_sync: (8, 8, 126.0, 176.0),
    },
    Cell {
        bench: "diffeq",
        encoding: Encoding::OneHot,
        chain: [
            0x47cd8f2288a3e9b4,
            0x0e9add342a261f9d,
            0xdfc3e36511f19372,
            0x7e7e71baf1326fd3,
            0x1a43f2d7f88181e4,
            0xb1a19e3ce5eccd12,
        ],
        controllers: &[
            ("M1", (7, 7, 122.0, 154.0)),
            ("M2", (6, 6, 89.0, 132.0)),
            ("A1", (3, 3, 25.0, 66.0)),
            ("S1", (6, 6, 75.0, 132.0)),
        ],
        cent_sync: (7, 7, 152.0, 154.0),
    },
    Cell {
        bench: "iir3",
        encoding: Encoding::OneHot,
        chain: [
            0x56780ecf8615eb1a,
            0x5d85152198122d23,
            0x499efdfcf01ee1c9,
            0xac2af078fbd05f7e,
            0xa711289410ffea38,
            0x7bd38dd87a77d686,
        ],
        controllers: &[
            ("M1", (6, 6, 97.0, 132.0)),
            ("M2", (4, 4, 65.0, 88.0)),
            ("M3", (4, 4, 65.0, 88.0)),
            ("A1", (8, 8, 134.0, 176.0)),
            ("A2", (4, 4, 67.0, 88.0)),
        ],
        cent_sync: (8, 8, 183.0, 176.0),
    },
    Cell {
        bench: "ar_lattice4",
        encoding: Encoding::Binary,
        chain: [
            0x4537a93da947d05a,
            0x837dfed2123a06ca,
            0xc8a2b779936475ee,
            0xc38ef1325eecae7d,
            0xb732c6c82afbcb3c,
            0x5f251780e9b6720d,
        ],
        controllers: &[
            ("M1", (11, 4, 398.0, 88.0)),
            ("M2", (11, 4, 398.0, 88.0)),
            ("M3", (11, 4, 398.0, 88.0)),
            ("M4", (11, 4, 398.0, 88.0)),
            ("A1", (8, 3, 269.0, 66.0)),
            ("A2", (8, 3, 269.0, 66.0)),
        ],
        cent_sync: (12, 4, 884.0, 88.0),
    },
    Cell {
        bench: "ar_lattice4",
        encoding: Encoding::Gray,
        chain: [
            0x4537a93da947d05a,
            0x837dfed2123a06ca,
            0xc8a2b779936475ee,
            0xc38ef1325eecae7d,
            0x6ea5c47c45142836,
            0x27b474108a1a2bd0,
        ],
        controllers: &[
            ("M1", (11, 4, 430.0, 88.0)),
            ("M2", (11, 4, 430.0, 88.0)),
            ("M3", (11, 4, 430.0, 88.0)),
            ("M4", (11, 4, 430.0, 88.0)),
            ("A1", (8, 3, 291.0, 66.0)),
            ("A2", (8, 3, 291.0, 66.0)),
        ],
        cent_sync: (12, 4, 1174.0, 88.0),
    },
];

fn fingerprint(syn: &SynthesizedFsm) -> Fingerprint {
    let area = syn.area();
    (
        syn.num_states(),
        syn.flip_flops(),
        area.combinational,
        area.sequential,
    )
}

#[test]
fn unpinned_paper_cells_keep_their_hash_chains_and_areas() {
    let benchmarks = paper_benchmarks();
    for cell in CELLS {
        let label = format!("{}/{:?}", cell.bench, cell.encoding);
        let (dfg, allocation, _) = benchmarks
            .iter()
            .find(|(dfg, _, _)| dfg.name() == cell.bench)
            .cloned()
            .expect("paper benchmark");
        let input = SynthesisInput {
            dfg,
            allocation,
            strategy: BindStrategy::LeftEdge,
        };
        let mut trace = PipelineTrace::default();
        let (logic, _) = stages::run_full(
            &input,
            false,
            cell.encoding,
            &AreaModel::default(),
            None,
            &mut trace,
        )
        .expect("paper benchmark synthesizes");

        let chain: Vec<u64> = trace.hash_chain().iter().map(|&(_, h)| h).collect();
        assert_eq!(chain, cell.chain, "{label}: artifact-hash chain moved");

        let controls = logic.controls();
        let units = controls.design().bound().allocation().units();
        let got: Vec<(String, Fingerprint)> = logic
            .controllers()
            .iter()
            .map(|(u, syn)| (units[u.0].display_name(), fingerprint(syn)))
            .collect();
        let want: Vec<(String, Fingerprint)> = cell
            .controllers
            .iter()
            .map(|&(name, f)| (name.to_string(), f))
            .collect();
        assert_eq!(got, want, "{label}: controller fingerprints moved");
        assert_eq!(
            fingerprint(logic.cent_sync()),
            cell.cent_sync,
            "{label}: CENT-SYNC fingerprint moved"
        );

        for ((unit, fsm), (synth_unit, syn)) in controls
            .distributed()
            .controllers()
            .iter()
            .zip(logic.controllers())
        {
            assert_eq!(unit, synth_unit);
            assert!(
                verify_synthesis(fsm, syn, cell.encoding),
                "{label}/{}: synthesized logic diverges",
                fsm.name()
            );
        }
        assert!(
            verify_synthesis(controls.cent_sync(), logic.cent_sync(), cell.encoding),
            "{label}: CENT-SYNC logic diverges"
        );
    }
}

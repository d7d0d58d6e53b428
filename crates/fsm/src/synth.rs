//! FSM synthesis: state encoding, next-state/output logic extraction,
//! two-level minimization, and the area report of the paper's Table 1.

use crate::machine::{Fsm, StateId};
use tauhls_logic::{minimize_auto, AreaModel, AreaReport, Cover, Cube, Expr};

/// State encoding styles.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Encoding {
    /// Natural binary encoding (`ceil(log2(n))` flip-flops).
    Binary,
    /// Gray-code encoding (same flip-flop count as binary).
    Gray,
    /// One-hot encoding (`n` flip-flops, shallow logic).
    OneHot,
}

/// A synthesized controller: minimized two-level covers for every
/// next-state bit and every output, plus the resulting area.
#[derive(Clone, Debug)]
pub struct SynthesizedFsm {
    name: String,
    encoding: Encoding,
    num_states: usize,
    num_inputs: usize,
    num_outputs: usize,
    state_bits: usize,
    initial_code: u64,
    input_names: Vec<String>,
    output_names: Vec<String>,
    next_state: Vec<Cover>,
    outputs: Vec<Cover>,
    area: AreaReport,
}

impl SynthesizedFsm {
    /// The source FSM's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The encoding used.
    pub fn encoding(&self) -> Encoding {
        self.encoding
    }

    /// Number of symbolic states.
    pub fn num_states(&self) -> usize {
        self.num_states
    }

    /// Number of input signals (completion signals).
    pub fn num_inputs(&self) -> usize {
        self.num_inputs
    }

    /// Number of output signals (OF/RE/C_CO).
    pub fn num_outputs(&self) -> usize {
        self.num_outputs
    }

    /// Number of flip-flops (state bits).
    pub fn flip_flops(&self) -> usize {
        self.state_bits
    }

    /// Minimized next-state covers, one per state bit, over the variable
    /// order `[state bits..., inputs...]`.
    pub fn next_state_covers(&self) -> &[Cover] {
        &self.next_state
    }

    /// Minimized output covers, one per output signal.
    pub fn output_covers(&self) -> &[Cover] {
        &self.outputs
    }

    /// The area report (combinational + sequential).
    pub fn area(&self) -> &AreaReport {
        &self.area
    }

    /// The encoded reset state.
    pub fn initial_code(&self) -> u64 {
        self.initial_code
    }

    /// Input signal names, in cover variable order (after the state bits).
    pub fn input_names(&self) -> &[String] {
        &self.input_names
    }

    /// Output signal names, aligned with [`SynthesizedFsm::output_covers`].
    pub fn output_names(&self) -> &[String] {
        &self.output_names
    }
}

/// Encodes state `s` under `enc`.
fn encode(enc: Encoding, s: StateId) -> u64 {
    match enc {
        Encoding::Binary => s.0 as u64,
        Encoding::Gray => (s.0 ^ (s.0 >> 1)) as u64,
        Encoding::OneHot => 1u64 << s.0,
    }
}

fn state_bits(enc: Encoding, n: usize) -> usize {
    match enc {
        Encoding::Binary | Encoding::Gray => {
            (usize::BITS - (n.max(2) - 1).leading_zeros()) as usize
        }
        Encoding::OneHot => n,
    }
}

/// The present-state cube selecting state `s` (over the combined variable
/// space, state bits in positions `0..bits`).
fn state_cube(enc: Encoding, bits: usize, s: StateId) -> Cube {
    match enc {
        Encoding::OneHot => {
            // Standard one-hot synthesis: test only the hot bit, relying on
            // the one-hot invariant for the rest.
            Cube::from_literals(&[(s.0, true)])
        }
        _ => {
            let code = encode(enc, s);
            let lits: Vec<(usize, bool)> = (0..bits).map(|b| (b, code >> b & 1 == 1)).collect();
            Cube::from_literals(&lits)
        }
    }
}

/// Shifts a guard cover (over input indices) into the combined variable
/// space (inputs occupy positions `bits..bits+num_inputs`).
fn shift_guard(guard: &Expr, num_inputs: usize, bits: usize) -> Vec<Cube> {
    let cover = guard.to_cover(num_inputs);
    cover
        .cubes()
        .iter()
        .map(|c| Cube::new(c.mask() << bits, c.val() << bits))
        .collect()
}

/// Synthesizes `fsm` under `encoding`, minimizing every next-state and
/// output function and costing the result with `model`.
///
/// Unused state codes (binary/Gray) become don't-cares for all functions;
/// one-hot functions get an empty don't-care set (each product tests only
/// its hot bit). Exact Quine–McCluskey is used up to 11 combined variables
/// (state bits plus inputs) in every encoding, the espresso-style heuristic
/// beyond. The widest exact functions are the slowest: one-hot CENT-SYNC
/// controllers (10–11 variables, on-sets that are wide subcubes) and binary
/// D-FSMs with 8 completion inputs (11 variables).
///
/// # Panics
///
/// Panics if `state_bits + inputs > 64` (cover variable limit).
pub fn synthesize(fsm: &Fsm, encoding: Encoding, model: &AreaModel) -> SynthesizedFsm {
    let n = fsm.num_states();
    let bits = state_bits(encoding, n);
    let num_inputs = fsm.inputs().len();
    let vars = bits + num_inputs;
    assert!(vars <= 64, "too many combined variables");

    // Don't-care cover: unused state codes.
    let mut dc = Cover::empty(vars);
    if matches!(encoding, Encoding::Binary | Encoding::Gray) {
        let used: std::collections::HashSet<u64> =
            (0..n).map(|s| encode(encoding, StateId(s))).collect();
        for code in 0..1u64 << bits {
            if !used.contains(&code) {
                let lits: Vec<(usize, bool)> = (0..bits).map(|b| (b, code >> b & 1 == 1)).collect();
                dc.push(Cube::from_literals(&lits));
            }
        }
    }

    // Onsets.
    let mut next_on: Vec<Cover> = (0..bits).map(|_| Cover::empty(vars)).collect();
    let mut out_on: Vec<Cover> = (0..fsm.outputs().len())
        .map(|_| Cover::empty(vars))
        .collect();
    for t in fsm.transitions() {
        let sc = state_cube(encoding, bits, t.from);
        let guard_cubes = shift_guard(&t.guard, num_inputs, bits);
        let to_code = encode(encoding, t.to);
        for gc in &guard_cubes {
            let Some(full) = sc.intersect(gc) else {
                continue;
            };
            for (b, on) in next_on.iter_mut().enumerate() {
                if to_code >> b & 1 == 1 {
                    on.push(full);
                }
            }
            for &o in &t.outputs {
                out_on[o].push(full);
            }
        }
    }

    const EXACT_LIMIT: usize = 11;
    let minimize = |c: &Cover| -> Cover { minimize_auto(c, &dc, EXACT_LIMIT) };
    let next_state: Vec<Cover> = next_on.iter().map(minimize).collect();
    let outputs: Vec<Cover> = out_on.iter().map(minimize).collect();

    let all: Vec<Cover> = next_state.iter().chain(&outputs).cloned().collect();
    let area = model.area(&all, bits);

    SynthesizedFsm {
        name: fsm.name().to_string(),
        encoding,
        num_states: n,
        num_inputs,
        num_outputs: fsm.outputs().len(),
        state_bits: bits,
        initial_code: encode(encoding, fsm.initial()),
        input_names: fsm.inputs().to_vec(),
        output_names: fsm.outputs().to_vec(),
        next_state,
        outputs,
        area,
    }
}

/// Verifies a synthesized controller against its source FSM by symbolic
/// walk: from every state and every assignment of the *used* inputs, the
/// minimized logic must produce the encoded next state and output set of
/// the behavioural machine. Returns `false` on any mismatch.
pub fn verify_synthesis(fsm: &Fsm, syn: &SynthesizedFsm, encoding: Encoding) -> bool {
    let bits = syn.state_bits;
    let num_inputs = fsm.inputs().len();
    for s in (0..fsm.num_states()).map(StateId) {
        let code = encode(encoding, s);
        for assignment in 0..1u64 << num_inputs {
            let word = code | assignment << bits;
            let (next, outs) = fsm.step(s, |v| assignment >> v & 1 == 1);
            let want_code = encode(encoding, next);
            for b in 0..bits {
                if syn.next_state[b].evaluate(word) != (want_code >> b & 1 == 1) {
                    return false;
                }
            }
            for (o, cover) in syn.outputs.iter().enumerate() {
                if cover.evaluate(word) != outs.contains(&o) {
                    return false;
                }
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distributed::unit_controller;
    use tauhls_dfg::benchmarks::fig3_dfg;
    use tauhls_dfg::OpId;
    use tauhls_sched::{Allocation, BoundDfg, UnitId};

    fn m1_fsm() -> Fsm {
        let bound = BoundDfg::bind_explicit(
            &fig3_dfg(),
            &Allocation::paper(2, 2, 0),
            vec![
                vec![OpId(0), OpId(1)],
                vec![OpId(6), OpId(4), OpId(8)],
                vec![OpId(3), OpId(2)],
                vec![OpId(7), OpId(5)],
            ],
        )
        .unwrap();
        unit_controller(&bound, UnitId(0))
    }

    #[test]
    fn binary_synthesis_verifies() {
        let fsm = m1_fsm();
        let syn = synthesize(&fsm, Encoding::Binary, &AreaModel::default());
        assert_eq!(syn.flip_flops(), 3); // 5 states
        assert!(verify_synthesis(&fsm, &syn, Encoding::Binary));
        assert!(syn.area().combinational > 0.0);
        assert_eq!(syn.area().sequential, 66.0);
    }

    #[test]
    fn gray_synthesis_verifies() {
        let fsm = m1_fsm();
        let syn = synthesize(&fsm, Encoding::Gray, &AreaModel::default());
        assert_eq!(syn.flip_flops(), 3);
        assert!(verify_synthesis(&fsm, &syn, Encoding::Gray));
    }

    #[test]
    fn onehot_synthesis_verifies() {
        let fsm = m1_fsm();
        let syn = synthesize(&fsm, Encoding::OneHot, &AreaModel::default());
        assert_eq!(syn.flip_flops(), 5);
        assert!(verify_synthesis(&fsm, &syn, Encoding::OneHot));
        // One-hot pays flip-flops but saves logic depth; literal count per
        // function should be modest.
        assert!(syn.area().sequential > 100.0);
    }

    #[test]
    fn dontcares_exploited_by_binary() {
        // 5 states in 3 bits leave 3 unused codes; minimized logic should
        // not be larger than one-hot's per-function covers in literals.
        let fsm = m1_fsm();
        let bin = synthesize(&fsm, Encoding::Binary, &AreaModel::default());
        assert!(bin.area().literals > 0);
        assert!(bin.next_state_covers().len() == 3);
        assert!(bin.output_covers().len() == fsm.outputs().len());
    }

    #[test]
    fn toggle_fsm_synthesizes_to_tiny_logic() {
        use tauhls_logic::Expr;
        let mut fsm = Fsm::new("t");
        let s0 = fsm.add_state("S0");
        let s1 = fsm.add_state("S1");
        let a = fsm.add_input("a");
        let o = fsm.add_output("o");
        fsm.add_transition(s0, s1, Expr::var(a), vec![o]);
        fsm.add_transition(s0, s0, Expr::var(a).not(), vec![]);
        fsm.add_transition(s1, s0, Expr::truth(), vec![]);
        let syn = synthesize(&fsm, Encoding::Binary, &AreaModel::default());
        assert_eq!(syn.flip_flops(), 1);
        assert!(verify_synthesis(&fsm, &syn, Encoding::Binary));
        // next = s0' & a ; out = s0' & a... wait state bit: S0=0, S1=1:
        // next-bit onset = (state=0 & a): 2 literals.
        assert_eq!(syn.next_state_covers()[0].literal_count(), 2);
        assert_eq!(syn.output_covers()[0].literal_count(), 2);
    }
}

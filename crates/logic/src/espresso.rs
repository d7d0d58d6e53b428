//! Heuristic two-level minimization in the style of espresso's
//! EXPAND / IRREDUNDANT loop, operating on covers (no minterm enumeration),
//! so it scales to functions too wide for exact Quine–McCluskey. FSM
//! synthesis sends it only functions of more than 11 variables (state bits
//! plus inputs), such as one-hot controllers with many states; narrower
//! one-hot controllers are minimized exactly.
//!
//! The function to minimize is given as an on-set cover `f` plus an optional
//! don't-care cover `dc`. All containment checks go through the
//! unate-recursive tautology test in [`Cover`], which is exact — the result
//! is always a correct implementation, merely not guaranteed minimum.

use crate::cover::Cover;
use crate::cube::Cube;

/// Heuristically minimizes `f` against don't-care set `dc`.
///
/// The result `r` satisfies `f ⊆ r ⊆ f ∪ dc` (correct implementation) and
/// usually has far fewer literals than `f`. Iterates expand → irredundant
/// until the cost stops improving.
///
/// # Examples
///
/// ```
/// use tauhls_logic::{minimize_heuristic, Cover};
/// // f = a·b + a·b' ( = a )
/// let f = Cover::parse_pcn(2, &["11", "10"]).unwrap();
/// let r = minimize_heuristic(&f, &Cover::empty(2));
/// assert_eq!(r.len(), 1);
/// assert_eq!(r.literal_count(), 1);
/// ```
///
/// # Panics
///
/// Panics if `f` and `dc` disagree on variable count.
pub fn minimize_heuristic(f: &Cover, dc: &Cover) -> Cover {
    assert_eq!(f.num_vars(), dc.num_vars());
    if f.is_empty() {
        return f.clone();
    }
    let upper = f.or(dc); // the region a raised cube must stay inside
    let mut current = f.clone();
    current.remove_contained();

    let mut best_cost = cost(&current);
    loop {
        current = expand(&current, &upper);
        current = irredundant(&current, dc);
        let c = cost(&current);
        if c >= best_cost {
            break;
        }
        best_cost = c;
    }
    current
}

fn cost(c: &Cover) -> (usize, u32) {
    (c.len(), c.literal_count())
}

/// EXPAND: raise literals of each cube as long as the raised cube remains
/// inside `upper` (= onset ∪ dcset). Cubes that become covered by an
/// already-expanded cube are dropped.
fn expand(cover: &Cover, upper: &Cover) -> Cover {
    let n = cover.num_vars();
    // Process big cubes first — they are more likely to absorb others.
    let mut cubes: Vec<Cube> = cover.cubes().to_vec();
    cubes.sort_by_key(|c| c.literal_count());

    let mut out: Vec<Cube> = Vec::with_capacity(cubes.len());
    'next: for cube in cubes {
        for done in &out {
            if done.covers(&cube) {
                continue 'next;
            }
        }
        let mut c = cube;
        // Try raising each literal; a literal is raisable iff the raised
        // cube is still contained in upper. Order: try to free the variable
        // that appears in the fewest other cubes first (weak espresso-style
        // heuristic favouring literals unlikely to be needed).
        let mut vars: Vec<usize> = (0..n).filter(|&v| c.literal(v).is_some()).collect();
        vars.sort_by_key(|&v| {
            out.iter()
                .chain(std::iter::once(&c))
                .filter(|d| d.literal(v).is_some())
                .count()
        });
        for v in vars {
            let raised = c.raise(v);
            if upper.covers_cube(&raised) {
                c = raised;
            }
        }
        out.retain(|d| !c.covers(d));
        out.push(c);
    }
    Cover::from_cubes(n, out)
}

/// IRREDUNDANT: drop cubes covered by the union of the remaining cubes and
/// the don't-care set. Greedy single pass, testing the costliest cubes for
/// removal first.
fn irredundant(cover: &Cover, dc: &Cover) -> Cover {
    let n = cover.num_vars();
    let mut cubes: Vec<Cube> = cover.cubes().to_vec();
    // Try to remove cubes with many literals first (they buy the least).
    let mut order: Vec<usize> = (0..cubes.len()).collect();
    order.sort_by_key(|&i| std::cmp::Reverse(cubes[i].literal_count()));

    let mut alive = vec![true; cubes.len()];
    for &i in &order {
        alive[i] = false;
        let rest = Cover::from_cubes(
            n,
            cubes
                .iter()
                .enumerate()
                .filter_map(|(j, c)| alive[j].then_some(*c))
                .chain(dc.cubes().iter().copied()),
        );
        if !rest.covers_cube(&cubes[i]) {
            alive[i] = true; // still needed
        }
    }
    let kept: Vec<Cube> = cubes
        .drain(..)
        .zip(alive)
        .filter_map(|(c, a)| a.then_some(c))
        .collect();
    Cover::from_cubes(n, kept)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::truth::TruthTable;

    fn check_implements(orig: &Cover, dc: &Cover, min: &Cover) {
        let n = orig.num_vars();
        assert!(n <= 16, "exhaustive check limited");
        for m in 0..1u64 << n {
            if orig.evaluate(m) {
                assert!(min.evaluate(m), "lost onset minterm {m:#b}");
            } else if !dc.evaluate(m) {
                assert!(!min.evaluate(m), "gained offset minterm {m:#b}");
            }
        }
    }

    #[test]
    fn merges_complementary_pair() {
        let f = Cover::parse_pcn(2, &["11", "10"]).unwrap();
        let r = minimize_heuristic(&f, &Cover::empty(2));
        assert_eq!(r.len(), 1);
        assert_eq!(r.literal_count(), 1);
        check_implements(&f, &Cover::empty(2), &r);
    }

    #[test]
    fn xor_cannot_shrink() {
        let f = Cover::parse_pcn(2, &["10", "01"]).unwrap();
        let r = minimize_heuristic(&f, &Cover::empty(2));
        assert_eq!(r.literal_count(), 4);
        check_implements(&f, &Cover::empty(2), &r);
    }

    #[test]
    fn uses_dontcares() {
        // on = {111}, dc = everything else with x0=1 -> f reduces to x0.
        let f = Cover::parse_pcn(3, &["111"]).unwrap();
        let dc = Cover::parse_pcn(3, &["110", "101", "100"]).unwrap();
        let r = minimize_heuristic(&f, &dc);
        assert_eq!(r.len(), 1);
        assert_eq!(r.literal_count(), 1);
        check_implements(&f, &dc, &r);
    }

    #[test]
    fn drops_redundant_consensus_cube() {
        // ab + a'c + bc : the bc term is redundant.
        let f = Cover::parse_pcn(3, &["11-", "0-1", "-11"]).unwrap();
        let r = minimize_heuristic(&f, &Cover::empty(3));
        assert_eq!(r.len(), 2);
        check_implements(&f, &Cover::empty(3), &r);
    }

    #[test]
    fn matches_exact_on_random_small_functions() {
        // Heuristic must implement the function; cost should be close to QM.
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(42);
        for _ in 0..30 {
            let n = rng.random_range(3..=5usize);
            let t = TruthTable::from_fn(n, |_| Some(rng.random_bool(0.5)));
            let canon = t.canonical_cover();
            let h = minimize_heuristic(&canon, &Cover::empty(n));
            assert!(t.is_implemented_by(&h));
            let exact = crate::qm::minimize_exact(&t);
            assert!(
                h.len() <= canon.len(),
                "heuristic should not grow the cover"
            );
            // Allow slack, but catch gross regressions.
            assert!(
                h.len() <= exact.len() * 2 + 2,
                "heuristic {} vs exact {}",
                h.len(),
                exact.len()
            );
        }
    }

    #[test]
    fn wide_function_terminates() {
        // 30-variable one-hot-style cover: x_i alone for i in 0..10, each
        // padded with a guard literal; expansion should strip the guards
        // where legal and terminate quickly.
        let n = 30;
        let mut cubes = Vec::new();
        for i in 0..10 {
            cubes.push(Cube::from_literals(&[(i, true), (i + 10, false)]));
            cubes.push(Cube::from_literals(&[(i, true), (i + 10, true)]));
        }
        let f = Cover::from_cubes(n, cubes);
        let r = minimize_heuristic(&f, &Cover::empty(n));
        assert_eq!(r.len(), 10); // each pair merges to the single literal x_i
        assert_eq!(r.literal_count(), 10);
    }
}

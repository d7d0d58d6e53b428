//! Exact two-level minimization: Quine–McCluskey prime generation followed
//! by unate covering (essential extraction + branch-and-bound with a greedy
//! fallback for large instances).

use crate::cover::Cover;
use crate::cube::Cube;
use crate::truth::{Tri, TruthTable};
use std::collections::HashSet;

/// Upper bound on `primes.len() * onset.len()` beyond which the covering
/// step falls back from branch-and-bound to the greedy heuristic.
const EXACT_COVER_BUDGET: usize = 200_000;

/// Minimizes an incompletely-specified function to a (near-)minimum
/// sum-of-products cover.
///
/// Prime implicants are generated exactly by iterative adjacency merging
/// over the on-set ∪ dc-set. The covering problem is then solved exactly by
/// branch-and-bound when small, or greedily otherwise; in both cases every
/// returned cube is a prime implicant and the cover implements the function.
///
/// # Examples
///
/// ```
/// use tauhls_logic::{minimize_exact, TruthTable};
/// // f = majority of 3 inputs
/// let t = TruthTable::from_fn(3, |m| Some(m.count_ones() >= 2));
/// let c = minimize_exact(&t);
/// assert_eq!(c.len(), 3); // ab + bc + ac
/// assert!(t.is_implemented_by(&c));
/// ```
pub fn minimize_exact(table: &TruthTable) -> Cover {
    let n = table.num_vars();
    let onset = table.onset();
    if onset.is_empty() {
        return Cover::empty(n);
    }
    let care_or_dc: Vec<u64> = (0..1u64 << n)
        .filter(|&m| table.get(m) != Tri::Off)
        .collect();
    if care_or_dc.len() == 1 << n {
        return Cover::tautology_cover(n);
    }

    let primes = prime_implicants(n, &care_or_dc);
    select_cover(n, &primes, &onset)
}

/// Generates all prime implicants of the function whose on∪dc set is
/// `minterms` (bits at or above `n` are ignored), sorted by [`Cube`]'s
/// order.
///
/// Quine–McCluskey merging without the all-pairs comparison: each level's
/// implicants are grouped by care mask, every group keeps its values sorted,
/// and a cube `(mask, val)` merges across care bit `b` exactly when
/// `val ^ b` is in the same group, which a two-pointer scan over the sorted
/// values finds. A merged cube is generated only across its highest free
/// bit, so every implicant appears once per level and no level needs a
/// deduplication pass. Each level then holds *every* implicant of its
/// width, so a cube that merges with nothing is prime. Memory is bounded by
/// the number of implicants, never by `2^n`.
///
/// # Panics
///
/// Panics if `minterms` is non-empty and `n > 64`.
pub fn prime_implicants(n: usize, minterms: &[u64]) -> Vec<Cube> {
    let Some(&first) = minterms.first() else {
        return Vec::new();
    };
    // A minterm's care mask is all `n` variables (checks `n <= 64`).
    let full = Cube::minterm(n, first).mask();
    let mut vals: Vec<u64> = minterms.iter().map(|&m| m & full).collect();
    vals.sort_unstable();
    vals.dedup();

    // One level: (care mask, sorted distinct values) per group.
    let mut level: Vec<(u64, Vec<u64>)> = vec![(full, vals)];
    let mut primes: Vec<Cube> = Vec::new();
    while !level.is_empty() {
        let mut next: Vec<(u64, Vec<u64>)> = Vec::new();
        for (mask, vals) in &level {
            let free = full & !mask;
            let mut merged = vec![false; vals.len()];
            let mut care = *mask;
            while care != 0 {
                let b = care & care.wrapping_neg();
                care &= care - 1;
                // `b` above every free bit: the merged cube's unique parent.
                let generate = b > free;
                let mut children = Vec::new();
                let mut j = 0;
                for (i, &v) in vals.iter().enumerate() {
                    if v & b != 0 {
                        continue;
                    }
                    // Partners `v | b` rise with `v`, so `j` only moves on.
                    let partner = v | b;
                    while j < vals.len() && vals[j] < partner {
                        j += 1;
                    }
                    if j < vals.len() && vals[j] == partner {
                        merged[i] = true;
                        merged[j] = true;
                        if generate {
                            children.push(v);
                        }
                    }
                }
                if !children.is_empty() {
                    next.push((mask & !b, children));
                }
            }
            primes.extend(
                vals.iter()
                    .zip(&merged)
                    .filter(|&(_, &m)| !m)
                    .map(|(&v, _)| Cube::new(*mask, v)),
            );
        }
        level = next;
    }
    primes.sort_unstable();
    primes
}

/// Solves the prime-implicant covering problem for `onset`.
fn select_cover(n: usize, primes: &[Cube], onset: &[u64]) -> Cover {
    // Build the coverage matrix.
    let mut covering: Vec<Vec<usize>> = Vec::with_capacity(onset.len()); // minterm -> prime indices
    for &m in onset {
        let rows: Vec<usize> = primes
            .iter()
            .enumerate()
            .filter_map(|(i, p)| p.covers_minterm(m).then_some(i))
            .collect();
        debug_assert!(!rows.is_empty(), "minterm {m} uncovered by any prime");
        covering.push(rows);
    }

    let mut chosen: Vec<usize> = Vec::new();
    let mut covered = vec![false; onset.len()];

    // Essential primes: sole cover of some minterm.
    loop {
        let mut changed = false;
        for (mi, rows) in covering.iter().enumerate() {
            if covered[mi] {
                continue;
            }
            let alive: Vec<usize> = rows
                .iter()
                .copied()
                .filter(|p| !chosen.contains(p))
                .collect();
            if alive.len() == 1 {
                let p = alive[0];
                chosen.push(p);
                for (mj, v) in covered.iter_mut().enumerate() {
                    if primes[p].covers_minterm(onset[mj]) {
                        *v = true;
                    }
                }
                changed = true;
            } else if rows.iter().any(|p| chosen.contains(p)) {
                covered[mi] = true;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }

    let remaining: Vec<usize> = (0..onset.len()).filter(|&i| !covered[i]).collect();
    if !remaining.is_empty() {
        let extra = if primes.len() * remaining.len() <= EXACT_COVER_BUDGET && primes.len() <= 64 {
            cover_branch_bound(primes, onset, &remaining)
        } else {
            cover_greedy(primes, onset, &remaining)
        };
        chosen.extend(extra);
    }

    chosen.sort_unstable();
    chosen.dedup();
    Cover::from_cubes(n, chosen.into_iter().map(|i| primes[i]))
}

/// Greedy covering: repeatedly pick the prime covering the most uncovered
/// minterms (ties broken toward fewer literals).
fn cover_greedy(primes: &[Cube], onset: &[u64], remaining: &[usize]) -> Vec<usize> {
    let mut need: HashSet<usize> = remaining.iter().copied().collect();
    let mut out = Vec::new();
    while !need.is_empty() {
        let best = primes
            .iter()
            .enumerate()
            .map(|(i, p)| {
                let gain = need
                    .iter()
                    .filter(|&&mi| p.covers_minterm(onset[mi]))
                    .count();
                (gain, std::cmp::Reverse(p.literal_count()), i)
            })
            .max()
            .map(|(_, _, i)| i)
            .expect("nonempty primes");
        let gain: Vec<usize> = need
            .iter()
            .copied()
            .filter(|&mi| primes[best].covers_minterm(onset[mi]))
            .collect();
        assert!(!gain.is_empty(), "greedy covering stalled");
        for mi in gain {
            need.remove(&mi);
        }
        out.push(best);
    }
    out
}

/// Exact minimum-cardinality covering by branch-and-bound (cost = cube
/// count, tie-broken by literal count through the search order).
fn cover_branch_bound(primes: &[Cube], onset: &[u64], remaining: &[usize]) -> Vec<usize> {
    struct Ctx<'a> {
        primes: &'a [Cube],
        onset: &'a [u64],
        best: Vec<usize>,
    }
    fn recurse(ctx: &mut Ctx<'_>, need: &[usize], chosen: &mut Vec<usize>) {
        if chosen.len() + 1 >= ctx.best.len() && !ctx.best.is_empty() && !need.is_empty() {
            return; // cannot beat the incumbent
        }
        if need.is_empty() {
            if ctx.best.is_empty() || chosen.len() < ctx.best.len() {
                ctx.best = chosen.clone();
            }
            return;
        }
        // Branch on the hardest minterm (fewest candidate primes).
        let &target = need
            .iter()
            .min_by_key(|&&mi| {
                ctx.primes
                    .iter()
                    .filter(|p| p.covers_minterm(ctx.onset[mi]))
                    .count()
            })
            .expect("nonempty need");
        let mut candidates: Vec<usize> = ctx
            .primes
            .iter()
            .enumerate()
            .filter_map(|(i, p)| p.covers_minterm(ctx.onset[target]).then_some(i))
            .collect();
        // Prefer primes covering more of the needed minterms.
        candidates.sort_by_key(|&i| {
            std::cmp::Reverse(
                need.iter()
                    .filter(|&&mi| ctx.primes[i].covers_minterm(ctx.onset[mi]))
                    .count(),
            )
        });
        for i in candidates {
            let rest: Vec<usize> = need
                .iter()
                .copied()
                .filter(|&mi| !ctx.primes[i].covers_minterm(ctx.onset[mi]))
                .collect();
            chosen.push(i);
            recurse(ctx, &rest, chosen);
            chosen.pop();
        }
    }

    let greedy = cover_greedy(primes, onset, remaining);
    let mut ctx = Ctx {
        primes,
        onset,
        best: greedy,
    };
    let mut chosen = Vec::new();
    recurse(&mut ctx, remaining, &mut chosen);
    ctx.best
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The textbook all-pairs Quine–McCluskey merge, kept as the oracle
    /// for [`prime_implicants`].
    fn prime_implicants_pairwise(n: usize, minterms: &[u64]) -> Vec<Cube> {
        let mut current: HashSet<Cube> = minterms.iter().map(|&m| Cube::minterm(n, m)).collect();
        let mut primes: Vec<Cube> = Vec::new();
        while !current.is_empty() {
            let cubes: Vec<Cube> = current.iter().copied().collect();
            let mut merged_flag = vec![false; cubes.len()];
            let mut next: HashSet<Cube> = HashSet::new();
            for i in 0..cubes.len() {
                for j in (i + 1)..cubes.len() {
                    if let Some(m) = cubes[i].merge_adjacent(&cubes[j]) {
                        merged_flag[i] = true;
                        merged_flag[j] = true;
                        next.insert(m);
                    }
                }
            }
            for (i, c) in cubes.iter().enumerate() {
                if !merged_flag[i] {
                    primes.push(*c);
                }
            }
            current = next;
        }
        primes.sort_unstable();
        primes.dedup();
        let snapshot = primes.clone();
        primes.retain(|c| !snapshot.iter().any(|d| d != c && d.covers(c)));
        primes
    }

    /// Asserts the lookup merge returns exactly the oracle's primes, and
    /// that no returned cube contains another (unmerged means prime).
    fn assert_matches_oracle(n: usize, minterms: &[u64]) -> Vec<Cube> {
        let primes = prime_implicants(n, minterms);
        assert_eq!(
            primes,
            prime_implicants_pairwise(n, minterms),
            "n = {n}, {} minterms",
            minterms.len()
        );
        for (i, p) in primes.iter().enumerate() {
            for (j, q) in primes.iter().enumerate() {
                assert!(i == j || !q.covers(p), "{p:?} lies inside {q:?}");
            }
        }
        primes
    }

    #[test]
    fn lookup_merge_equals_pairwise_oracle_on_random_functions() {
        let mut rng = StdRng::seed_from_u64(0x51ce);
        // (on-set density, on ∪ dc density) pairs from 0.05 to 0.95.
        let densities = [
            (0.05, 0.05),
            (0.05, 0.25),
            (0.25, 0.5),
            (0.5, 0.75),
            (0.25, 0.95),
            (0.95, 0.95),
        ];
        for n in 1..=10usize {
            for &(on, on_dc) in &densities {
                let (mut onset, mut dc) = (Vec::new(), Vec::new());
                for m in 0..1u64 << n {
                    let r: f64 = rng.random();
                    if r < on {
                        onset.push(m);
                    } else if r < on_dc {
                        dc.push(m);
                    }
                }
                let mut care_or_dc = [onset.as_slice(), dc.as_slice()].concat();
                care_or_dc.sort_unstable();
                assert_matches_oracle(n, &care_or_dc);
                let t = TruthTable::from_sets(n, &onset, &dc);
                assert!(t.is_implemented_by(&minimize_exact(&t)));
            }
        }
    }

    #[test]
    fn lookup_merge_equals_oracle_on_one_hot_cent_sync_shape() {
        // Ten variables: eight one-hot state bits x0..x7 and two guard
        // inputs x8, x9. A next-state bit is "state bit AND guard" with an
        // empty don't-care set, so the on-set is a wide subcube.
        let f = |m: u64| m >> 3 & 1 == 1 && (m >> 8 & 1 == 1 || m >> 9 & 1 == 1);
        let onset: Vec<u64> = (0..1u64 << 10).filter(|&m| f(m)).collect();
        let primes = assert_matches_oracle(10, &onset);
        assert_eq!(
            primes,
            vec![
                Cube::from_literals(&[(3, true), (8, true)]),
                Cube::from_literals(&[(3, true), (9, true)]),
            ]
        );
    }

    #[test]
    fn lookup_merge_equals_oracle_on_binary_d_fsm_shape() {
        // Eleven variables: a 3-bit binary state code x0..x2 (codes 6 and 7
        // unused, so don't-cares) and eight completion inputs x3..x10.
        let state = |m: u64| m & 0b111;
        let onset: Vec<u64> = (0..1u64 << 11)
            .filter(|&m| match state(m) {
                1 => m >> 3 & 1 == 1,
                2 => true,
                4 => m >> 5 & 1 == 0 && m >> 6 & 1 == 1,
                _ => false,
            })
            .collect();
        let dc: Vec<u64> = (0..1u64 << 11).filter(|&m| state(m) >= 6).collect();
        let mut care_or_dc = [onset.as_slice(), dc.as_slice()].concat();
        care_or_dc.sort_unstable();
        assert_matches_oracle(11, &care_or_dc);
        let t = TruthTable::from_sets(11, &onset, &dc);
        assert!(t.is_implemented_by(&minimize_exact(&t)));
    }

    #[test]
    fn prime_generation_edge_cases() {
        assert!(prime_implicants(3, &[]).is_empty());
        // No minterm, no width check: the old contract for any `n`.
        assert!(prime_implicants(65, &[]).is_empty());
        assert_eq!(
            assert_matches_oracle(4, &[0b1010]),
            vec![Cube::minterm(4, 0b1010)]
        );
        for n in 1..=8usize {
            let all: Vec<u64> = (0..1u64 << n).collect();
            assert_eq!(assert_matches_oracle(n, &all), vec![Cube::universe()]);
        }
        // Duplicates, and bits at or above `n`, collapse onto one minterm.
        assert_eq!(
            assert_matches_oracle(3, &[5, 7, 5, 7, 5 | 8]),
            vec![Cube::from_literals(&[(0, true), (2, true)])]
        );
        // n = 64, where `1 << n` would overflow.
        let top = 1u64 << 63;
        let primes = assert_matches_oracle(64, &[0, 1, top, top | 1, u64::MAX]);
        assert_eq!(
            primes,
            vec![Cube::new(!(top | 1), 0), Cube::minterm(64, u64::MAX)]
        );
    }

    #[test]
    fn minimize_constant_functions() {
        let f0 = TruthTable::from_fn(3, |_| Some(false));
        assert!(minimize_exact(&f0).is_empty());
        let f1 = TruthTable::from_fn(3, |_| Some(true));
        let c = minimize_exact(&f1);
        assert_eq!(c.len(), 1);
        assert_eq!(c.literal_count(), 0);
    }

    #[test]
    fn minimize_xor_stays_two_cubes() {
        let t = TruthTable::from_fn(2, |m| Some(m.count_ones() == 1));
        let c = minimize_exact(&t);
        assert_eq!(c.len(), 2);
        assert_eq!(c.literal_count(), 4);
        assert!(t.is_implemented_by(&c));
    }

    #[test]
    fn minimize_majority3() {
        let t = TruthTable::from_fn(3, |m| Some(m.count_ones() >= 2));
        let c = minimize_exact(&t);
        assert_eq!(c.len(), 3);
        assert_eq!(c.literal_count(), 6);
        assert!(t.is_implemented_by(&c));
    }

    #[test]
    fn dontcares_reduce_cost() {
        // f(abc): on = {7}, dc = {3,5,6} -> picking dc as 1 lets two-literal
        // or even single-literal cubes... primes over {3,5,6,7}:
        // 3=011,5=101,6=110,7=111 -> merges: 3-7 => -11, 5-7 => 1-1, 6-7 => 11-
        let t = TruthTable::from_sets(3, &[7], &[3, 5, 6]);
        let c = minimize_exact(&t);
        assert_eq!(c.len(), 1);
        assert_eq!(c.literal_count(), 2);
        assert!(t.is_implemented_by(&c));
    }

    #[test]
    fn classic_qm_example() {
        // Standard textbook instance: on = {4,8,10,11,12,15}, dc = {9,14}
        // (variables x3 x2 x1 x0 with x3 = MSB = bit 3).
        let t = TruthTable::from_sets(4, &[4, 8, 10, 11, 12, 15], &[9, 14]);
        let c = minimize_exact(&t);
        assert!(t.is_implemented_by(&c));
        // Known minimum: 3 cubes, e.g. x3x1' + x2x1'x0' + x3x1x0 variants
        // wait — canonical answer is BD' + AB' + AC (3 cubes, 7 literals)
        // under MSB-first labelling; we assert cost only.
        assert_eq!(c.len(), 3);
        assert!(c.literal_count() <= 8);
    }

    #[test]
    fn prime_generation_finds_maximal_cubes() {
        // f = x0 (on every odd minterm of 3 vars)
        let primes = prime_implicants(3, &[1, 3, 5, 7]);
        assert_eq!(primes, vec![Cube::from_literals(&[(0, true)])]);
    }

    #[test]
    fn every_prime_is_maximal() {
        let minterms = [0u64, 1, 2, 5, 6, 7, 8, 9, 10, 14];
        let primes = prime_implicants(4, &minterms);
        for (i, p) in primes.iter().enumerate() {
            for (j, q) in primes.iter().enumerate() {
                if i != j {
                    assert!(!q.covers(p), "{p:?} not maximal (inside {q:?})");
                }
            }
            // Every prime stays within on ∪ dc.
            for m in p.minterms(4) {
                assert!(minterms.contains(&m));
            }
        }
    }
}

//! Order statistics, seeded shuffles and process counters read from
//! `/proc`.

/// Nearest-rank quantile of an ascending slice (`q` in `[0, 1]`).
///
/// Nearest rank never interpolates between two samples, so on the
/// multi-modal latency mixes of these workloads a quantile always names a
/// latency some request really had.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The tail quantile a sample of `n` supports: p90, or the highest
/// quantile that still leaves at least ten samples beyond it, but never
/// below the median.
pub fn tail_q(n: usize) -> f64 {
    (1.0 - 10.0 / n as f64).clamp(0.5, 0.9)
}

/// Sorts a copy ascending (NaN-free input).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median (nearest rank) of unsorted values.
pub fn median(values: &[f64]) -> f64 {
    quantile(&sorted(values), 0.5)
}

/// Arithmetic mean; `NaN` for no values.
pub fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len() as f64
}

/// SplitMix64: the one mixing function behind every seeded choice.
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Derives an independent stream value from a seed and a path of indices.
pub fn derive(seed: u64, path: &[u64]) -> u64 {
    path.iter().fold(splitmix64(seed), |acc, &i| {
        splitmix64(acc ^ i.wrapping_mul(0x2545_f491_4f6c_dd1d))
    })
}

/// Fisher–Yates shuffle driven by [`derive`]`(seed, path)`.
pub fn shuffle<T>(items: &mut [T], seed: u64, path: &[u64]) {
    let mut state = derive(seed, path);
    for i in (1..items.len()).rev() {
        state = splitmix64(state);
        items.swap(i, (state % (i as u64 + 1)) as usize);
    }
}

/// Process CPU time (user + system, all threads) in seconds, from
/// `/proc/self/stat`. Linux reports it in `USER_HZ` ticks, which is 100
/// on every supported architecture.
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name may hold spaces; fields resume after its ')'.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // utime and stime are fields 14 and 15 of the full line, i.e. 11 and
    // 12 after the state field that follows ')'.
    let tick = |i: usize| fields.get(i).and_then(|f| f.parse::<f64>().ok());
    match (tick(11), tick(12)) {
        (Some(user), Some(system)) => (user + system) / 100.0,
        _ => f64::NAN,
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines().find_map(|l| {
                l.strip_prefix("VmHWM:")
                    .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            })
        })
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

/// Cores available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_names_a_sample() {
        let v = sorted(&[5.0, 1.0, 4.0, 2.0, 3.0]);
        assert_eq!(quantile(&v, 0.5), 3.0);
        assert_eq!(quantile(&v, 0.9), 5.0);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(tail_q(1000), 0.9);
        assert!((tail_q(50) - 0.8).abs() < 1e-12);
        assert_eq!(tail_q(12), 0.5);
    }

    #[test]
    fn shuffles_repeat_for_a_seed() {
        let mut a: Vec<u32> = (0..16).collect();
        let mut b = a.clone();
        shuffle(&mut a, 7, &[1]);
        shuffle(&mut b, 7, &[1]);
        assert_eq!(a, b);
        let mut c: Vec<u32> = (0..16).collect();
        shuffle(&mut c, 8, &[1]);
        assert_ne!(a, c);
    }
}

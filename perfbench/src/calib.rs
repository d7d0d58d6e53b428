//! Host-speed calibration.
//!
//! A shared host's speed drifts by up to 1.6× within seconds, and a
//! CPU-bound workload's figures drift with it. A run therefore times a
//! fixed reference kernel — benchmark code that calls nothing in tauhls —
//! between its requests, and divides each CPU-bound timing by the host
//! factor at that moment: the median of the [`NEAREST`] probes closest
//! in time, over [`REFERENCE_MS`], the probe's time on the reference
//! machine. A change to tauhls moves the requests but not the probes, so
//! it shows in full; a slower host moves both, and mostly cancels out.

use std::hint::black_box;
use std::time::Instant;

use crate::stats::{median, splitmix64};

/// Median probe time (ms) on the reference machine: a 2-vCPU shared
/// Intel Xeon VM, release build.
pub const REFERENCE_MS: f64 = 4.0;

/// Work (ms of requests) between two probes of an interleaved phase.
pub const PROBE_EVERY_MS: f64 = 150.0;

/// Probes behind one local host factor. Nine probes span about 1.4 s of
/// an interleaved phase: long enough to average a probe's own noise,
/// short enough to follow the host's swings.
pub const NEAREST: usize = 9;

/// The reference kernel, two halves. The first churns allocated vectors
/// through sorting and an ordered map, then compares a table of 256-bit
/// cubes by masked popcounts; the second intersects a cover of 384-bit
/// cubes pairwise into freshly allocated cubes, sorting and deduplicating
/// each round. Together they are the allocation, branch and bit-vector
/// mix of cover minimisation and the sliced simulator, and on the
/// reference machine they followed the requests' swings more closely
/// than either half, or than pure popcount or memory-latency loops.
/// Returns a checksum that depends on every step.
pub fn kernel() -> u64 {
    let mut state = 0x5eed_u64;
    let mut next = || {
        state = splitmix64(state);
        state
    };
    let mut sum = 0u64;
    for _ in 0..8 {
        let mut v: Vec<u64> = (0..4096).map(|_| next() % 5000).collect();
        v.sort_unstable();
        v.dedup();
        let mut m = std::collections::BTreeMap::new();
        for x in &v {
            *m.entry(x & 255).or_insert(0u64) += x;
        }
        sum = sum.wrapping_add(m.values().sum::<u64>());
    }
    let cubes: Vec<[u64; 4]> = (0..1024)
        .map(|_| [next(), next(), next(), next()])
        .collect();
    for (i, a) in cubes.iter().enumerate() {
        for b in cubes[i..].iter().step_by(5) {
            let d: u32 = a.iter().zip(b).map(|(x, y)| (x & !y).count_ones()).sum();
            if d < 120 {
                sum = sum.wrapping_add(u64::from(d));
            }
        }
    }
    let mut cover: Vec<Vec<u64>> = (0..400).map(|_| (0..6).map(|_| next()).collect()).collect();
    for round in 0..3u64 {
        let mut out = Vec::new();
        for (i, a) in cover.iter().enumerate() {
            for b in cover[i + 1..].iter().step_by(9) {
                let c: Vec<u64> = a.iter().zip(b).map(|(x, y)| x & y | round).collect();
                if c.iter().map(|w| w.count_ones()).sum::<u32>() > 95 {
                    out.push(c);
                }
            }
        }
        out.sort_unstable();
        out.dedup();
        sum = sum.wrapping_add(out.len() as u64);
        out.truncate(400);
        if out.len() > 50 {
            cover = out;
        }
    }
    sum
}

/// The probes of one run, each with the moment it was taken.
#[derive(Clone, Debug)]
pub struct Speed {
    epoch: Instant,
    /// `(seconds since the epoch at the probe's middle, probe ms)`, in
    /// time order.
    probes: Vec<(f64, f64)>,
    /// Request work (ms) since the last probe.
    pending_ms: f64,
    /// How many of the probes were taken during set-up.
    setup_probes: usize,
}

impl Default for Speed {
    fn default() -> Self {
        Speed {
            epoch: Instant::now(),
            probes: Vec::new(),
            pending_ms: 0.0,
            setup_probes: 0,
        }
    }
}

impl Speed {
    /// Times the kernel once and returns the time in ms.
    pub fn probe(&mut self) -> f64 {
        self.pending_ms = 0.0;
        self.time_kernel()
    }

    fn time_kernel(&mut self) -> f64 {
        let start = Instant::now();
        black_box(kernel());
        let ms = start.elapsed().as_secs_f64() * 1e3;
        let mid = (start - self.epoch).as_secs_f64() + ms / 2e3;
        self.probes.push((mid, ms));
        ms
    }

    /// Counts `work_ms` of requests and probes once per
    /// [`PROBE_EVERY_MS`] of them, so probes sample the host evenly over
    /// the phase however long its requests are. Returns the time the
    /// probes took, which the caller keeps out of its phase.
    pub fn after(&mut self, work_ms: f64) -> f64 {
        self.pending_ms += work_ms;
        let mut spent = 0.0;
        while self.pending_ms >= PROBE_EVERY_MS {
            self.pending_ms -= PROBE_EVERY_MS;
            spent += self.time_kernel();
        }
        spent
    }

    /// Marks every probe so far as a set-up probe.
    pub fn end_setup(&mut self) {
        self.setup_probes = self.probes.len();
    }

    /// Probes taken so far.
    pub fn probes(&self) -> usize {
        self.probes.len()
    }

    /// Probes taken since set-up.
    pub fn timed_probes(&self) -> usize {
        self.probes.len() - self.setup_probes
    }

    /// The host factor around the interval `[start, end]`: the median of
    /// the [`NEAREST`] probes closest to its middle, over
    /// [`REFERENCE_MS`]. 1 when nothing was probed.
    pub fn factor_at(&self, start: Instant, end: Instant) -> f64 {
        let mid = ((start - self.epoch) + (end - self.epoch)).as_secs_f64() / 2.0;
        let split = self.probes.partition_point(|p| p.0 < mid);
        let (mut lo, mut hi) = (split, split);
        while hi - lo < NEAREST && (lo > 0 || hi < self.probes.len()) {
            let take_lo = match (lo.checked_sub(1), self.probes.get(hi)) {
                (Some(l), Some(h)) => mid - self.probes[l].0 <= h.0 - mid,
                (Some(_), None) => true,
                (None, _) => false,
            };
            if take_lo {
                lo -= 1;
            } else {
                hi += 1;
            }
        }
        factor(&self.probes[lo..hi])
    }

    /// The median host factor over the timed phase.
    pub fn factor(&self) -> f64 {
        factor(&self.probes[self.setup_probes..])
    }

    /// The median host factor over set-up.
    pub fn setup_factor(&self) -> f64 {
        factor(&self.probes[..self.setup_probes])
    }
}

fn factor(probes: &[(f64, f64)]) -> f64 {
    if probes.is_empty() {
        return 1.0;
    }
    let ms: Vec<f64> = probes.iter().map(|p| p.1).collect();
    median(&ms) / REFERENCE_MS
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    /// A probe every 100 ms for 20 s: at the reference speed for the
    /// first 10 s, the set-up, then at half of it.
    fn two_speeds() -> Speed {
        Speed {
            setup_probes: 100,
            probes: (0..200)
                .map(|i| {
                    let t = f64::from(i) / 10.0;
                    (
                        t,
                        if t < 10.0 {
                            REFERENCE_MS
                        } else {
                            2.0 * REFERENCE_MS
                        },
                    )
                })
                .collect(),
            ..Speed::default()
        }
    }

    #[test]
    fn the_factor_follows_the_probes_nearest_the_interval() {
        let speed = two_speeds();
        let at = |s: f64, e: f64| {
            let epoch = speed.epoch;
            speed.factor_at(
                epoch + Duration::from_secs_f64(s),
                epoch + Duration::from_secs_f64(e),
            )
        };
        assert_eq!(at(2.0, 3.0), 1.0);
        assert_eq!(at(14.0, 16.0), 2.0);
        // Past either end, the nearest probes are the first or last.
        assert_eq!(at(30.0, 31.0), 2.0);
        assert_eq!(speed.setup_factor(), 1.0);
        assert_eq!(speed.factor(), 2.0);
    }

    #[test]
    fn the_kernel_does_fixed_work() {
        assert_eq!(kernel(), kernel());
    }
}

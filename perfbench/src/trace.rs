//! The in-memory span recorder of the traced run.
//!
//! Spans are recorded around the benchmark's own calls into each layer's
//! public functions: nothing inside the program is instrumented. Spans
//! stay in memory until the run ends, when [`Recorder::dump`] writes them
//! out and [`rollup`] folds them into per-name totals and self times.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One timed call.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer-qualified name, e.g. `stage.logic`.
    pub name: &'static str,
    /// Start, in nanoseconds since the recorder's epoch.
    pub start_ns: u64,
    /// End, in nanoseconds since the recorder's epoch.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The request this span belongs to.
    pub request: u64,
    /// The distinct input the request carried (so replays of one input
    /// can be matched with the requests that sent it).
    pub key: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Records spans and counters when enabled; otherwise only runs the
/// wrapped closures, so untraced and traced runs execute the same code.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    enabled: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
    counters: BTreeMap<&'static str, (f64, u64)>,
}

impl Recorder {
    /// A recorder timing relative to `epoch`.
    pub fn new(enabled: bool, epoch: Instant) -> Self {
        Recorder {
            epoch,
            enabled,
            spans: Vec::new(),
            open: Vec::new(),
            counters: BTreeMap::new(),
        }
    }

    /// The instant span times are measured from.
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`; spans opened by `f` become its
    /// children.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        request: u64,
        key: u64,
        f: impl FnOnce(&mut Recorder) -> T,
    ) -> T {
        if !self.enabled {
            return f(self);
        }
        let index = self.spans.len();
        let start_ns = self.ns(Instant::now());
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            request,
            key,
        });
        self.open.push(index);
        let out = f(self);
        self.open.pop();
        self.spans[index].end_ns = self.ns(Instant::now());
        out
    }

    /// Records an interval the caller timed itself (socket phases) as a
    /// child of the innermost open span.
    pub fn interval(
        &mut self,
        name: &'static str,
        request: u64,
        key: u64,
        start: Instant,
        end: Instant,
    ) {
        if !self.enabled {
            return;
        }
        self.spans.push(Span {
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent: self.open.last().copied(),
            request,
            key,
        });
    }

    /// Adds a figure resting on `samples` observations to the counter
    /// `name`, weighted so the counter's mean is the weighted mean.
    pub fn observe(&mut self, name: &'static str, value: f64, samples: u64) {
        if !self.enabled {
            return;
        }
        let entry = self.counters.entry(name).or_insert((0.0, 0));
        entry.0 += value * samples as f64;
        entry.1 += samples;
    }

    /// Sum and observation count of a counter.
    pub fn counter(&self, name: &str) -> Option<(f64, u64)> {
        self.counters.get(name).copied()
    }

    /// The recorded spans, in start order per thread.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Appends another recorder's spans and counters (one per client
    /// thread), re-basing its parent links.
    pub fn absorb(&mut self, other: Recorder) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
        for (name, (sum, n)) in other.counters {
            let entry = self.counters.entry(name).or_insert((0.0, 0));
            entry.0 += sum;
            entry.1 += n;
        }
    }

    /// Writes every span as one JSON line, with its self time.
    pub fn dump(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let selfs = self_times(&self.spans);
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{},\"parent\":{parent},\"request\":{},\"key\":{}}}",
                s.name, s.start_ns, s.end_ns, selfs[i], s.request, s.key
            )?;
        }
        out.flush()
    }
}

/// Each span's duration minus the part its children cover. Children of
/// one span never overlap: every recorder belongs to one thread.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut selfs: Vec<u64> = spans.iter().map(Span::ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            selfs[p] = selfs[p].saturating_sub(s.ns());
        }
    }
    selfs
}

/// Per-name totals of a span set.
#[derive(Clone, Copy, Debug, Default)]
pub struct Stat {
    /// Spans with this name.
    pub calls: u64,
    /// Summed durations.
    pub total_ns: u64,
    /// Summed self times.
    pub self_ns: u64,
    /// Longest single span.
    pub max_ns: u64,
}

impl Stat {
    /// Mean self time per call in milliseconds.
    pub fn mean_self_ms(&self) -> f64 {
        self.self_ns as f64 / self.calls as f64 / 1e6
    }
}

/// Folds spans into per-name [`Stat`]s.
pub fn rollup(spans: &[Span]) -> BTreeMap<&'static str, Stat> {
    let selfs = self_times(spans);
    let mut out: BTreeMap<&'static str, Stat> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(selfs) {
        let stat = out.entry(s.name).or_default();
        stat.calls += 1;
        stat.total_ns += s.ns();
        stat.self_ns += self_ns;
        stat.max_ns = stat.max_ns.max(s.ns());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut rec = Recorder::new(true, Instant::now());
        rec.span("outer", 1, 0, |rec| {
            rec.span("inner", 1, 0, |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
        });
        let roll = rollup(rec.spans());
        let outer = roll["outer"];
        let inner = roll["inner"];
        assert_eq!(outer.calls, 1);
        assert!(inner.total_ns >= 2_000_000);
        assert_eq!(outer.self_ns, outer.total_ns - inner.total_ns);
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut rec = Recorder::new(false, Instant::now());
        assert_eq!(rec.span("x", 0, 0, |_| 7), 7);
        rec.observe("c", 1.0, 1);
        assert!(rec.spans().is_empty());
        assert!(rec.counter("c").is_none());
    }
}

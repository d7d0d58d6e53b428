//! End-to-end and per-layer benchmark of tauhls.
//!
//! Three workloads, each a single closed-loop process seeded by its
//! workload seed: `synth-suite` (staged synthesis, logic minimisation),
//! `sim-sweep` (the Monte-Carlo kernel) and `serve-mix` (the HTTP
//! service). See `METHOD.md` for why each exists and what each metric is
//! expected to move.

pub mod calib;
pub mod client;
pub mod layers;
pub mod report;
pub mod stats;
pub mod trace;
pub mod workloads;

/// The workloads, by command-line name.
pub const WORKLOADS: [&str; 3] = ["synth-suite", "sim-sweep", "serve-mix"];

/// A seed never used while tuning the benchmark: a performance claim
/// must also hold on it.
pub const HELD_OUT_SEED: u64 = 7919;

/// Runs one workload.
pub fn run(workload: &str, opts: &workloads::Options) -> Result<report::Report, String> {
    match workload {
        "synth-suite" => workloads::synth_suite::run(opts),
        "sim-sweep" => workloads::sim_sweep::run(opts),
        "serve-mix" => workloads::serve_mix::run(opts),
        other => Err(format!(
            "unknown workload {other:?} (expected one of {WORKLOADS:?})"
        )),
    }
}

/// The checked-out revision, read from `.git` in the working directory;
/// `unknown` in a plain copy of the tree.
pub fn git_revision() -> String {
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let Some(head) = read(".git/HEAD") else {
        return "unknown (not a git checkout)".to_string();
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    read(&format!(".git/{reference}"))
        .or_else(|| {
            read(".git/packed-refs")?.lines().find_map(|l| {
                l.strip_suffix(reference)
                    .map(|hash| hash.trim().to_string())
            })
        })
        .unwrap_or_else(|| format!("unknown ({reference})"))
}

/// The header lines every report starts with.
pub fn header(workload: &str, opts: &workloads::Options) -> Vec<(String, String)> {
    [
        ("workload", workload.to_string()),
        ("seed", opts.seed.to_string()),
        ("held-out seed", HELD_OUT_SEED.to_string()),
        ("seconds", opts.seconds.to_string()),
        ("trace", u8::from(opts.trace).to_string()),
        ("nproc", stats::nproc().to_string()),
        ("git revision", git_revision()),
        ("build profile", env!("PERFBENCH_PROFILE").to_string()),
        ("rustc", env!("PERFBENCH_RUSTC_VERSION").to_string()),
    ]
    .into_iter()
    .map(|(k, v)| (k.to_string(), v))
    .collect()
}

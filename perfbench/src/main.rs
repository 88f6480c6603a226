//! End-to-end and per-layer benchmark of the band-join pipeline.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Workloads (parameters in `oneshot.rs` and `serve.rs`):
//!
//! * `oneshot-1d-4m` — Pareto z=1.5, d=1, 2M+2M tuples, ε=1e-6, w=30, in-memory
//!   `Executor::execute`;
//! * `oneshot-3d-1m` — Pareto z=1.5, d=3, 500k+500k tuples, ε=0.02, w=30,
//!   `Executor::execute_supervised` with zero faults over a streaming spill shuffle;
//! * `serve-1d` — a `BandJoinService` over Pareto z=1.5, d=1, 250k+250k tuples
//!   answering a seeded, closed-loop stream of bands (1e-6 … 3.2e-5, full or half
//!   width) at w ∈ {30, 64}, with a plan cache that holds one plan.
//!
//! Inputs are drawn from `--seed` before any timing. Every query is checked against
//! an exact oracle computed outside the timed region; a mismatch counts in
//! `failed` and makes the command exit non-zero.
//!
//! `--trace 0` measures the end-to-end metrics ([`report::END_TO_END`]) with no
//! tracing. `--trace 1` is a separate run that times each layer from outside, by
//! wrapping the calls into that layer's public functions ([`report::PER_LAYER`]),
//! and writes every span to `perfbench/out/trace-<workload>-<seed>.json`. The last
//! line of standard output is one JSON record with the metrics of the chosen mode.
//! `perfbench/baseline.json` records each workload's generator parameters, the
//! layers it stresses and bypasses, the predicted effect of each layer on the
//! end-to-end metrics, and the baseline rows.
//!
//! The benchmark's own unit tests: `cargo test --manifest-path perfbench/Cargo.toml`.

mod inputs;
mod layers;
mod oneshot;
mod report;
mod serve;
mod stats;
mod trace;

use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Set-ups measured per run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 15;

const USAGE: &str =
    "usage: perfbench --workload <oneshot-1d-4m|oneshot-3d-1m|serve-1d> --seed <n> --seconds <s> --trace <0|1>";

/// Command-line arguments.
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Input and query-mix seed.
    pub seed: u64,
    /// Seconds of measurement.
    pub seconds: u64,
    /// Per-layer (traced) run instead of the end-to-end run.
    pub trace: bool,
}

impl Args {
    fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = |e: std::num::ParseIntError| format!("{flag} {value}: {e}");
            match flag.as_str() {
                "--workload" => workload = Some(value.clone()),
                "--seed" => seed = Some(value.parse::<u64>().map_err(bad)?),
                "--seconds" => seconds = Some(value.parse::<u64>().map_err(bad)?),
                "--trace" => match value.as_str() {
                    "0" => trace = Some(false),
                    "1" => trace = Some(true),
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                },
                _ => return Err(format!("unknown argument {flag}")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("missing --workload")?,
            seed: seed.ok_or("missing --seed")?,
            seconds: seconds
                .filter(|&s| s > 0)
                .ok_or("missing or zero --seconds")?,
            trace: trace.ok_or("missing --trace")?,
        })
    }
}

/// OS threads every parallel phase runs on: one per available core.
pub fn threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The instant a run of `seconds` stops starting new queries.
pub fn deadline(seconds: u64) -> Instant {
    Instant::now() + Duration::from_secs(seconds)
}

/// Peak resident set of this process in MiB (each workload runs in its own process).
pub fn peak_rss_mb() -> f64 {
    distsim::process_peak_rss_bytes().map_or(f64::NAN, |b| b as f64 / (1u64 << 20) as f64)
}

/// Where traces go: `perfbench/out/` in the checkout the benchmark was built in.
pub fn out_dir() -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir).expect("creating the benchmark's out/ directory");
    dir
}

/// A spill directory for this process under [`out_dir`].
pub fn spill_dir() -> PathBuf {
    out_dir().join(format!("spill-{}", std::process::id()))
}

fn main() {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let report = match args.workload.as_str() {
        "oneshot-1d-4m" => oneshot::run(&oneshot::ONESHOT_1D_4M, &args),
        "oneshot-3d-1m" => oneshot::run(&oneshot::ONESHOT_3D_1M, &args),
        "serve-1d" => serve::run(&args),
        other => {
            eprintln!("unknown workload {other}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let correct = report.print(if args.trace {
        report::PER_LAYER
    } else {
        report::END_TO_END
    });
    if !correct {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Result<Args, String> {
        Args::parse(s.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = parse("--workload serve-1d --seed 42 --seconds 10 --trace 1").unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("serve-1d", 42, 10, true)
        );
        assert!(parse("--workload x --seed 1 --seconds 1").is_err());
        assert!(parse("--workload x --seed 1 --seconds 1 --trace 2").is_err());
        assert!(parse("--workload x --seed -1 --seconds 1 --trace 0").is_err());
        assert!(parse("--bogus 1").is_err());
    }

    #[test]
    fn metric_lists_match_benchmark_json() {
        let json =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repository root");
        let listed = json.matches("\"name\": \"").count();
        let workloads = json.matches("\"why\":").count();
        assert_eq!(
            listed,
            workloads + report::END_TO_END.len() + report::PER_LAYER.len()
        );
        for (name, unit) in report::END_TO_END.iter().chain(report::PER_LAYER) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(json.contains(&entry), "{name} in {unit} missing");
        }
    }
}

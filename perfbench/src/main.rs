//! End-to-end AMR benchmark over the repository's public APIs.
//!
//! `perfbench run --workload <name> --seed <n> [--trace] [--trace-out <path>]`
//! runs one fixed-work episode of a workload (see [`workload::WORKLOADS`])
//! and prints one JSON record: set-up and loop times, per-cycle times,
//! deterministic counts, the correctness gate, peak RSS and, with
//! `--trace`, the per-layer metrics. `perfbench/run.py` repeats episodes
//! for the measured interval and reports the aggregate.
//!
//! `perfbench self-test` runs every workload twice at a short length and
//! asserts that every count repeats exactly, that a traced run ends on the
//! untraced digest, and that on the subcycled workloads the benchmark's
//! cell-update count equals the crates' own `subcycle.cell_updates`
//! counter under a recording sink.

mod check;
mod dist;
mod episode;
mod local;
mod trace;
mod workload;

use std::path::PathBuf;
use std::process::ExitCode;

use ablock_obs::Metrics;
use ablock_solver::TimeStepMode;

use episode::{Episode, Options};
use workload::{Backend, Spec, WORKLOADS};

fn run(spec: &Spec, opt: &Options) -> Episode {
    let ep = match spec.backend {
        Backend::Pool => local::run(spec, opt),
        Backend::Dist => dist::run(spec, opt),
    };
    if let Some(path) = &opt.trace_out {
        let tracks: Vec<(&str, &trace::Tracer)> =
            ep.tracks.iter().map(|(l, t)| (l.as_str(), t)).collect();
        if let Err(e) = trace::write_trace(path, &tracks) {
            eprintln!("perfbench: cannot write {}: {e}", path.display());
        }
    }
    ep
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: perfbench run --workload <name> --seed <n> [--trace] [--trace-out <path>]\n       \
         perfbench cycles --workload <name>\n       perfbench self-test\nworkloads: {}",
        WORKLOADS.map(|w| w.name).join(", ")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .cloned()
    };
    match args.first().map(String::as_str) {
        Some("run") => {
            let Some(spec) = value("--workload").and_then(|n| workload::find(&n)) else {
                return usage();
            };
            let Some(Ok(seed)) = value("--seed").map(|s| s.parse::<u64>()) else {
                return usage();
            };
            let opt = Options {
                seed,
                cycles: spec.cycles,
                trace: args.iter().any(|a| a == "--trace"),
                metrics: Metrics::null(),
                trace_out: value("--trace-out").map(PathBuf::from),
            };
            let ep = run(&spec, &opt);
            println!(
                "{}",
                ep.to_json(&spec, seed, opt.cycles, episode::peak_rss_kb())
            );
            ExitCode::SUCCESS
        }
        Some("cycles") => match value("--workload").and_then(|n| workload::find(&n)) {
            Some(spec) => {
                println!("{}", spec.cycles);
                ExitCode::SUCCESS
            }
            None => usage(),
        },
        Some("self-test") => {
            if self_test() {
                println!("self-test passed");
                ExitCode::SUCCESS
            } else {
                println!("self-test FAILED");
                ExitCode::FAILURE
            }
        }
        _ => usage(),
    }
}

/// Cycles of a self-test episode: the warm-up and two maintenance periods.
const SELF_TEST_CYCLES: usize = 9;

/// Short-mode determinism checks over every workload.
fn self_test() -> bool {
    let mut ok = true;
    let mut expect = |cond: bool, what: String| {
        println!("{} {what}", if cond { "ok  " } else { "FAIL" });
        ok &= cond;
    };
    for spec in &WORKLOADS {
        let opt = Options {
            seed: check::DEFAULT_SEED,
            cycles: SELF_TEST_CYCLES,
            trace: false,
            metrics: Metrics::null(),
            trace_out: None,
        };
        let a = run(spec, &opt);
        let b = run(spec, &opt);
        let name = spec.name;
        expect(
            a.checks.passed() && b.checks.passed(),
            format!("{name}: correctness gate"),
        );
        expect(
            a.counts == b.counts,
            format!("{name}: counts repeat ({:?})", a.counts),
        );
        expect(
            a.checks.digest == b.checks.digest,
            format!("{name}: digest repeats ({})", a.checks.digest),
        );
        let t = run(
            spec,
            &Options {
                trace: true,
                ..opt.clone()
            },
        );
        expect(
            t.checks.digest == a.checks.digest && t.counts == a.counts,
            format!("{name}: traced run ends on the untraced digest and counts"),
        );
        if spec.mode == TimeStepMode::Subcycled {
            let metrics = Metrics::recording();
            let r = run(
                spec,
                &Options {
                    metrics: metrics.clone(),
                    ..opt.clone()
                },
            );
            let counter = metrics.snapshot().counter("subcycle.cell_updates");
            let ours = r.counts.warmup_updates + r.counts.cell_updates;
            expect(
                counter == ours && r.checks.digest == a.checks.digest,
                format!("{name}: subcycle.cell_updates {counter} == benchmark count {ours}"),
            );
        }
    }
    ok
}

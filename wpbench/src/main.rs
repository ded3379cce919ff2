//! The repository benchmark: one command per workload, measuring the
//! simulator only from outside, through its public seams.
//!
//! ```text
//! cargo run --release --manifest-path wpbench/Cargo.toml -- \
//!     --workload <wrongpath_heavy|correctpath_fp> \
//!     [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Every run of either workload exercises every layer: simulation rounds
//! of the workload's kernel mix under all four techniques, interleaved with
//! durable campaigns drained through the service front. `--trace 0` runs
//! them with tracing off and prints the end-to-end metrics; `--trace 1`
//! runs the traced pass and prints the per-layer metrics. The last line of
//! stdout is one JSON object with the keys `correct`, `attempted`, `failed`
//! and `metrics`. See `README.md` for what each metric means and which
//! end-to-end metric each layer moves.

mod campaign;
mod probe;
mod sim;
mod stats;
mod tracer;

use campaign::{Campaigns, Fixture};
use probe::{Probe, NOMINAL_NS};
use sim::{Inputs, Mix, Rounds};
use stats::{median, Outcome};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// The seed used when `--seed` is not given.
const DEFAULT_SEED: u64 = 2023;
/// Input builds per set-up sample: a sample times a batch of builds back
/// to back (about 20 ms), so that it outlasts timer and scheduler jitter.
/// `SETUP_SAMPLES` are taken before timing and one more after every round
/// and campaign, so that `setup_s`, their median, sees the same host drift
/// as the timed trials.
const SETUP_SAMPLES: usize = 5;
const SIM_SETUP_BATCH: usize = 8;
const CAMPAIGN_SETUP_BATCH: usize = 16;
/// Share of the measured time given to simulation rounds; campaigns take
/// the rest. The two alternate, so both spread over the whole run.
const SIM_SHARE: f64 = 0.5;
/// Rounds, and timed campaigns, run even when `--seconds` is already
/// spent.
const MIN_ROUNDS: usize = 3;
const MIN_CAMPAIGNS: usize = 2;

struct Args {
    mix: Mix,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10;
    let mut trace = false;
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: std::num::ParseIntError| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(match value.as_str() {
                    "wrongpath_heavy" => Mix::WrongPathHeavy,
                    "correctpath_fp" => Mix::CorrectPathFp,
                    other => return Err(format!("unknown workload `{other}`")),
                });
            }
            "--seed" => seed = value.parse().map_err(bad)?,
            "--seconds" => seconds = value.parse().map_err(bad)?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                };
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(Args {
        mix: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// Takes one set-up sample of the kernels and one of the campaign fixture,
/// then a probe, and returns the calibrated time of one complete build.
fn sample_setup(
    inputs: &mut Inputs,
    fixture: &mut Fixture,
    probe: &mut Probe,
    out: &mut Outcome,
) -> f64 {
    let build_s = inputs.setup.sample(out) + fixture.setup.sample(out);
    build_s * NOMINAL_NS / probe.run()
}

fn run(args: &Args, work: &Path, out: &mut Outcome) -> Result<(), String> {
    let mut probe = Probe::new();
    let mut inputs = sim::setup(args.mix, args.seed, SIM_SETUP_BATCH)?;
    let mut fixture = campaign::setup(args.mix, args.seed, CAMPAIGN_SETUP_BATCH)?;
    let mut setup_s: Vec<f64> = (0..SETUP_SAMPLES)
        .map(|_| sample_setup(&mut inputs, &mut fixture, &mut probe, out))
        .collect();
    let mut rounds = Rounds::new(&inputs.kernels, args.trace, out);
    let mut campaigns = Campaigns::new(work, args.trace);
    campaigns.run(&fixture, &mut probe, out)?;

    let budget = Duration::from_secs(args.seconds);
    let started = Instant::now();
    let (mut sim_s, mut campaign_s) = (0.0, 0.0);
    loop {
        let rounds_left = rounds.count() < MIN_ROUNDS;
        let campaigns_left = campaigns.timed() < MIN_CAMPAIGNS;
        let sim_turn = if started.elapsed() < budget {
            sim_s <= SIM_SHARE * (sim_s + campaign_s)
        } else if rounds_left || campaigns_left {
            rounds_left
        } else {
            break;
        };
        let step = Instant::now();
        if sim_turn {
            rounds.run(&inputs.kernels, &mut probe, out);
            sim_s += step.elapsed().as_secs_f64();
        } else {
            campaigns.run(&fixture, &mut probe, out)?;
            campaign_s += step.elapsed().as_secs_f64();
        }
        setup_s.push(sample_setup(&mut inputs, &mut fixture, &mut probe, out));
    }

    if args.trace {
        rounds.report_layers(&inputs.kernels, out);
        campaigns.report_layers(out);
        out.metric("workloads.build_s.kernels", inputs.setup.median_s(), "s");
        out.metric("workloads.build_s.campaign", fixture.setup.median_s(), "s");
        out.metric("host.probe_ms", median(&probe.times) / 1e6, "ms");
    } else {
        rounds.report_plain(out);
        campaigns.report_plain(out);
        out.metric("setup_s", median(&setup_s), "s");
        out.metric("peak_rss_mib", stats::peak_rss_mib(), "MiB");
    }
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("wpbench: {e}");
            eprintln!(
                "usage: wpbench --workload <wrongpath_heavy|correctpath_fp> \
                 [--seed N] [--seconds S] [--trace 0|1]"
            );
            return ExitCode::from(2);
        }
    };
    // Campaign directories live inside the benchmark's own directory, one
    // per process, and are removed on exit.
    let work = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join(".work")
        .join(std::process::id().to_string());
    if let Err(e) = std::fs::create_dir_all(&work) {
        eprintln!("wpbench: {}: {e}", work.display());
        return ExitCode::FAILURE;
    }
    let mut out = Outcome::default();
    let result = run(&args, &work, &mut out);
    std::fs::remove_dir_all(&work).ok();
    if let Err(e) = result {
        eprintln!("wpbench: {e}");
        return ExitCode::FAILURE;
    }
    println!("{}", out.to_json());
    ExitCode::SUCCESS
}

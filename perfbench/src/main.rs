//! The repository benchmark. One invocation runs one workload for a
//! fixed time, checks every output, and prints the metrics:
//!
//! ```sh
//! bash perfbench/run.sh --workload paper-rl --seed 1 --seconds 20 --trace 0
//! ```
//!
//! `--trace 0` prints the end-to-end metrics ([`report::END_TO_END`]),
//! measured with tracing off; `--trace 1` is a separate pass that
//! prints the per-layer metrics ([`report::PER_LAYER`]). The last line
//! of standard output is one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`; the line before it records the environment.
//! The workloads, the metrics and how they interact are described in
//! `perfbench/README.md`.

mod inproc;
mod mega;
mod paper;
mod report;
mod serve;
mod session;
mod solve;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use report::{json_str, Report, END_TO_END, PER_LAYER, SERVE_LAYERS};

/// Environment variables that silently change the program's scheduling
/// (`OptimizeConfig` defaults its thread count to `$FP_THREADS`). Every
/// workload pins its thread counts explicitly instead.
const SCHEDULING_ENV: [&str; 2] = ["FP_THREADS", "FP_LRED_WORKERS"];

/// Set-up repetitions at each end of a run, at least.
const SETUP_REPS: usize = 5;
/// Set-up also repeats until this much time is spent at each end, so
/// that a set-up of a millisecond is timed hundreds of times.
const SETUP_MIN: Duration = Duration::from_millis(500);

/// What every workload receives.
pub struct Ctx {
    /// Workload seed: the same seed gives the same inputs.
    pub seed: u64,
    /// How long the measured phase runs.
    pub budget: Duration,
    /// Host parallelism; the workloads that scale pin their threads to it.
    pub nproc: usize,
    /// The `fpserved` binary built from this checkout.
    pub fpserved: PathBuf,
}

impl Ctx {
    /// A seeded 64-bit value for stream `salt` (SplitMix64 finalizer).
    #[must_use]
    pub fn derive(&self, salt: u64) -> u64 {
        let mut z = self
            .seed
            .wrapping_add(salt.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// Times `setup` at least [`SETUP_REPS`] times and for at least
/// [`SETUP_MIN`], and returns the last result. `setup_s` is the median
/// of every set-up the run has timed. Each workload sets up before its
/// measured phase and again after it or between its passes, so that
/// `setup_s` does not rest on how fast the shared host ran in one half
/// second.
pub fn timed_setup<T>(report: &mut Report, setup: &mut impl FnMut() -> T) -> T {
    timed_setup_for(report, setup, SETUP_REPS, SETUP_MIN)
}

/// [`timed_setup`] with at least `reps` repetitions and `min` time.
pub fn timed_setup_for<T>(
    report: &mut Report,
    setup: &mut impl FnMut() -> T,
    reps: usize,
    min: Duration,
) -> T {
    let mut last = None;
    let started = Instant::now();
    let mut done = 0;
    while done < reps.max(1) || started.elapsed() < min {
        drop(last.take());
        let rep_started = Instant::now();
        last = Some(setup());
        report.setup_s.push(rep_started.elapsed().as_secs_f64());
        done += 1;
    }
    report.set("setup_s", report::median(&report.setup_s));
    report.note("setup_reps", report.setup_s.len());
    last.expect("at least one repetition")
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    fpserved: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1;
    let mut seconds = 20;
    let mut trace = false;
    let mut fpserved = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a number: {value}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = number()?,
            "--seconds" => seconds = number()?.max(1),
            "--trace" => trace = number()? != 0,
            "--fpserved" => fpserved = Some(PathBuf::from(&value)),
            _ => return Err(format!("unknown option {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        fpserved: fpserved.ok_or("--fpserved is required")?,
    })
}

/// A fact `run.sh` passes in the environment, or `unknown`.
fn from_env(var: &str) -> String {
    std::env::var(var).unwrap_or_else(|_| "unknown".to_owned())
}

fn main() -> ExitCode {
    for var in SCHEDULING_ENV {
        // Single-threaded here: nothing else reads the environment yet.
        std::env::remove_var(var);
    }
    let args = match parse_args() {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("perfbench: {msg}");
            eprintln!(
                "usage: perfbench --fpserved <path> --workload <paper-rl|mega-cold|session-edit|serve-inproc|serve-open> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let ctx = Ctx {
        seed: args.seed,
        budget: Duration::from_secs(args.seconds),
        nproc: std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
        fpserved: args.fpserved,
    };
    let run = match args.workload.as_str() {
        "paper-rl" => paper::run,
        "mega-cold" => mega::run,
        "session-edit" => session::run,
        "serve-inproc" => inproc::run,
        "serve-open" => serve::run,
        other => {
            eprintln!("perfbench: unknown workload {other}");
            return ExitCode::from(2);
        }
    };
    let mut report = match run(&ctx, args.trace) {
        Ok(report) => report,
        Err(msg) => {
            eprintln!("perfbench: {}: {msg}", args.workload);
            return ExitCode::from(1);
        }
    };
    report.note(
        "failed_frac",
        report::ratio(report.failed as f64, report.attempted as f64),
    );

    let names: &[(&str, &str)] = match (args.trace, args.workload.as_str()) {
        (false, _) => &END_TO_END,
        (true, "serve-open") => &SERVE_LAYERS,
        (true, _) => &PER_LAYER,
    };
    for (name, unit) in names {
        let value = report.metrics.get(name).copied().unwrap_or(0.0);
        eprintln!("{name:<28} {value:>16.4} {unit}");
    }
    for problem in &report.problems {
        eprintln!("perfbench: FAILED: {problem}");
    }
    let mut env = vec![
        ("workload".to_owned(), json_str(&args.workload)),
        ("seed".to_owned(), args.seed.to_string()),
        ("seconds".to_owned(), args.seconds.to_string()),
        ("trace".to_owned(), args.trace.to_string()),
        ("nproc".to_owned(), ctx.nproc.to_string()),
        ("commit".to_owned(), json_str(&from_env("PERFBENCH_COMMIT"))),
        ("rustc".to_owned(), json_str(&from_env("PERFBENCH_RUSTC"))),
    ];
    env.extend(report.notes.iter().map(|(k, v)| (k.clone(), json_str(v))));
    let env: Vec<String> = env
        .iter()
        .map(|(k, v)| format!("{}: {v}", json_str(k)))
        .collect();
    println!("{{\"env\": {{{}}}}}", env.join(", "));
    println!("{}", report::result_line(&report, names));
    if report.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

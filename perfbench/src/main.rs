//! The rdms repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload parallel|sequential --seed N --seconds S --trace 0|1
//! ```
//!
//! Every run drives the three ways users reach the checker, one after the other, from
//! inputs drawn from `--seed` and sized by `--seconds`:
//!
//! * `batch-check` — `Explorer::run` requests, closed loop, certificates re-verified;
//! * `serve-stream` — TCP sessions against `rdms-serve`, then drain, restart, resume;
//! * `revise-loop` — `Workspace` edit-and-recheck sessions.
//!
//! The workload sets the explorer's threads: `parallel` runs `default_threads()` (the
//! work-stealing pool), `sequential` runs one (the sequential engine). With `--trace 0`
//! the last stdout line reports the end-to-end metrics; with `--trace 1` a traced
//! replay reports per-layer metrics instead. Run it from the repository root; see
//! `perfbench/README.md` for what each metric means.
//!
//! End-to-end times are taken on the process's CPU clock (except checks through the
//! pool, on the wall clock) and scaled by a calibration kernel timed between the
//! measured operations, so a shared host's changing speed cancels out; see `calib`.

mod batch;
mod calib;
mod report;
mod revise;
mod rng;
mod serve;
mod stats;
mod trace;

use calib::Calibration;
use report::{Metrics, Tally};
use rng::InputDigest;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

/// Scratch directory for journals and checkpoints, relative to the repository root;
/// wiped before and after every run so a failed run cannot poison the next.
const RUN_DIR: &str = ".perfbench-run";
/// Where the traced run writes its spans, relative to the repository root.
const TRACE_DIR: &str = ".perfbench-trace";
/// Input generation is repeated this many times and the median reported as `setup_s`.
const SETUP_REPEATS: usize = 5;
/// Calibration passes on each side of one input generation.
const SETUP_PASSES: usize = 10;
/// A round — one cycle of batch checks, three sessions per client, twelve edit
/// sessions, and their calibration passes — takes about this long on a 2-core box with
/// one explorer thread; `--seconds` sets the number of rounds. The drain/restart cycle
/// of `serve-stream` comes on top, and the pool makes batch-check slower.
const SECONDS_PER_ROUND: f64 = 4.0;
const MIN_ROUNDS: usize = 3;

/// The workload sets how `batch-check` runs the explorer.
#[derive(Clone, Copy, Debug)]
enum Workload {
    /// `default_threads()` explorer threads: the work-stealing pool.
    Parallel,
    /// One explorer thread: the sequential engine, no pool.
    Sequential,
}

impl Workload {
    fn parse(name: &str) -> Option<Workload> {
        match name {
            "parallel" => Some(Workload::Parallel),
            "sequential" => Some(Workload::Sequential),
            _ => None,
        }
    }

    fn explorer_threads(self) -> usize {
        match self {
            Workload::Parallel => rdms_checker::default_threads(),
            Workload::Sequential => 1,
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str =
    "usage: rdms-perfbench --workload parallel|sequential --seed N --seconds S --trace 0|1";

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(bad)?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .map_err(|_| format!("bad value for {flag}: {value}"))?,
                )
            }
            "--trace" => trace = Some(value == "1"),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds
            .filter(|s| *s > 0.0)
            .ok_or("--seconds must be positive")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

impl Args {
    fn rounds(&self) -> usize {
        ((self.seconds / SECONDS_PER_ROUND).round() as usize).max(MIN_ROUNDS)
    }
}

struct Inputs {
    batch: batch::BatchInputs,
    serve: serve::ServeInputs,
    revise: revise::ReviseInputs,
    digest: u64,
}

/// Everything the phases consume, drawn from the seed and sized by the run length.
fn generate(args: &Args) -> Inputs {
    let mut digest = InputDigest::new();
    let rounds = args.rounds();
    Inputs {
        batch: batch::generate(args.seed, rounds, &mut digest),
        serve: serve::generate(args.seed, rounds, &mut digest),
        revise: revise::generate(args.seed, rounds, &mut digest),
        digest: digest.finish(),
    }
}

/// The run's scratch directory, removed again when dropped.
struct RunDir(PathBuf);

impl RunDir {
    fn create() -> std::io::Result<RunDir> {
        let dir = PathBuf::from(RUN_DIR);
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)?;
        Ok(RunDir(dir))
    }
}

impl Drop for RunDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The untraced measurement: the phases' rounds interleaved, so a slow spell of the
/// machine lands in a few rounds of every phase instead of in all of one phase, and
/// the per-round medians ride it out.
fn run_rounds(
    args: &Args,
    inputs: &Inputs,
    journal_dir: &Path,
    tally: &mut Tally,
    metrics: &mut Metrics,
) -> Result<serve::ServeResult, String> {
    let threads = args.workload.explorer_threads();
    let serve_err = |e: std::io::Error| format!("serve-stream: {e}");
    let mut batch = batch::BatchResult::default();
    let mut serve = serve::ServeRun::start(journal_dir).map_err(serve_err)?;
    let mut revise = revise::ReviseResult::default();
    // wall seconds per phase: batch, serve rounds, revise, drain/recover, oracles
    let mut spent = [0.0f64; 5];
    let mut timed = |slot: usize, start: Instant| spent[slot] += start.elapsed().as_secs_f64();
    for round in 0..args.rounds() {
        let start = Instant::now();
        batch::run_round(&inputs.batch, round, threads, &mut batch, tally);
        timed(0, start);
        let start = Instant::now();
        serve
            .round(&inputs.serve, round, tally)
            .map_err(serve_err)?;
        timed(1, start);
        let start = Instant::now();
        revise::run_round(&inputs.revise, round, &mut revise);
        timed(2, start);
    }
    let start = Instant::now();
    let served = serve.finish(&inputs.serve, tally).map_err(serve_err)?;
    timed(3, start);
    let start = Instant::now();
    revise::check_answers(&inputs.revise, &revise, tally);
    timed(4, start);
    eprintln!(
        "perfbench: seconds spent: batch-check {:.1}, serve-stream {:.1} + drain/recover {:.1}, revise-loop {:.1} + oracle {:.1}",
        spent[0], spent[1], spent[3], spent[2], spent[4]
    );
    batch::end_to_end(&batch, metrics);
    revise::end_to_end(&revise, metrics);
    Ok(served)
}

fn run(args: &Args, dir: &Path) -> Result<String, String> {
    let mut setup_s = Vec::new();
    let mut inputs = None;
    for _ in 0..SETUP_REPEATS {
        let mut calibration = Calibration::start();
        calibration.passes(SETUP_PASSES);
        let start = stats::CpuClock::now();
        inputs = Some(generate(args));
        let cpu_s = start.elapsed_s();
        calibration.passes(SETUP_PASSES);
        setup_s.push(cpu_s / calibration.slowdown());
    }
    let inputs = inputs.expect("at least one setup");
    println!(
        "perfbench: workload {:?} seed {} inputs {:016x}: {} rounds, {} checks, {} serve sessions, {} edit sessions",
        args.workload,
        args.seed,
        inputs.digest,
        args.rounds(),
        inputs.batch.requests().count(),
        inputs.serve.sessions(),
        inputs.revise.sessions(),
    );

    let threads = args.workload.explorer_threads();
    let journal_dir = dir.join("journal");
    let mut tally = Tally::default();
    let mut metrics = Metrics::default();
    if !args.trace {
        metrics.put("setup_s", stats::median(&setup_s), "s");
        let served = run_rounds(args, &inputs, &journal_dir, &mut tally, &mut metrics)?;
        serve::end_to_end(&served, &mut metrics);
        let peak_kb = stats::status_kb("VmHWM").ok_or("no VmHWM in /proc/self/status")?;
        metrics.put("peak_rss_mb", peak_kb / 1024.0, "MB");
    } else {
        // first, while the heap is fresh: a session's estimate against its real growth
        let memory_ratio = serve::memory_probe(&inputs.serve);
        let trace_dir = PathBuf::from(TRACE_DIR);
        std::fs::create_dir_all(&trace_dir).map_err(|e| format!("{TRACE_DIR}: {e}"))?;
        // one file per phase and workload, overwritten by the next traced run
        let spans =
            |phase: &str| trace_dir.join(format!("{phase}-{:?}.csv", args.workload).to_lowercase());
        batch::traced(
            &inputs.batch,
            threads,
            &spans("batch-check"),
            &mut tally,
            &mut metrics,
        )
        .map_err(|e| format!("batch-check trace: {e}"))?;
        // the TCP rounds alone: the transport share is their round trip minus the
        // in-process check
        let serve_err = |e: std::io::Error| format!("serve-stream: {e}");
        let mut serve = serve::ServeRun::start(&journal_dir).map_err(serve_err)?;
        for round in 0..args.rounds() {
            serve
                .round(&inputs.serve, round, &mut tally)
                .map_err(serve_err)?;
        }
        let served = serve.finish(&inputs.serve, &mut tally).map_err(serve_err)?;
        serve::traced(
            &inputs.serve,
            &served,
            memory_ratio,
            &spans("serve-stream"),
            &mut tally,
            &mut metrics,
        )
        .map_err(|e| format!("serve-stream trace: {e}"))?;
        revise::traced(
            &inputs.revise,
            &spans("revise-loop"),
            &mut tally,
            &mut metrics,
        )
        .map_err(|e| format!("revise-loop trace: {e}"))?;
    }
    Ok(metrics.result_line(&tally))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let dir = match RunDir::create() {
        Ok(dir) => dir,
        Err(e) => {
            eprintln!("perfbench: cannot create {RUN_DIR}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let outcome = std::panic::catch_unwind(|| run(&args, &dir.0));
    drop(dir);
    match outcome {
        Ok(Ok(line)) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Ok(Err(e)) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
        Err(_) => ExitCode::FAILURE,
    }
}

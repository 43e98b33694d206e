//! `xtbench`: end-to-end and per-layer benchmark of the XML-trigger engine.
//!
//! ```text
//! xtbench --workload <view-fire|snapshot-oltp|wire-durable> --seed <n>
//!         --seconds <s> --trace <0|1> [--smoke]
//! ```
//!
//! Every run is closed-loop and does a fixed number of operations
//! (`--seconds` × the workload's nominal rate), so both sides of a
//! comparison do the same work. Human-readable metric lines go to stdout;
//! the last line is one JSON object with `correct`, `attempted`, `failed`
//! and `metrics`. See `README.md` next to this crate for the metric map.

mod engine;
mod report;
mod rng;
mod snapshot_oltp;
mod trace;
mod view_fire;
mod wire_durable;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use report::Report;

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    /// Tiny corpora and op counts: the benchmark's own correctness test.
    pub smoke: bool,
}

/// Where a run keeps its durable data directories and trace file: inside
/// the working directory, removed again by the workloads that create data.
pub fn out_dir() -> PathBuf {
    PathBuf::from(".bench_out")
}

/// Set-up passes before and after the measured loop. Untraced runs build
/// `n` corpora, half on each side of the loop, so that a slow phase of
/// the host lasting a few seconds cannot move every sample of `setup_s`;
/// the traced run builds one corpus, traced.
pub fn setup_passes(args: &Args, n: usize) -> (usize, usize) {
    if args.trace {
        (1, 0)
    } else {
        (n.div_ceil(2), n / 2)
    }
}

/// Operations each loop runs before it starts timing: the first tenth of
/// a run, after set-up, goes faster as caches and the allocator settle,
/// and users pay that once per process, not per statement.
pub fn warmup(ops: u64) -> u64 {
    ops / 10
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut smoke = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            smoke = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} needs a whole number, got `{value}`"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => trace = Some(number()? != 0),
            _ => return Err(format!("unknown argument `{flag}`")),
        }
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
        smoke,
    })
}

/// What one workload run hands back: its metrics and its verdict.
#[derive(Default)]
pub struct Outcome {
    pub report: Report,
    /// Statements the workload issued (a pipelined burst counts each row).
    pub attempted: u64,
    /// Statements that returned an error or a wrong result.
    pub failed: u64,
    /// Output checks that did not hold, one line each.
    pub check_failures: Vec<String>,
}

impl Outcome {
    /// Record an output check; a failing one fails the run.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            let line = what();
            eprintln!("check failed: {line}");
            self.check_failures.push(line);
        }
    }
}

/// A fixed CPU kernel (an integer hash chain), timed in microseconds. It
/// touches no memory beyond registers, so its time tracks the speed the
/// host gives this process and nothing else.
fn calib_us() -> f64 {
    let start = Instant::now();
    let mut x = std::hint::black_box(0x9e37_79b9_7f4a_7c15u64);
    for i in 0..4_000_000u64 {
        x = (x ^ i).wrapping_mul(0xbf58_476d_1ce4_e5b9).rotate_left(29);
    }
    std::hint::black_box(x);
    start.elapsed().as_secs_f64() * 1e6
}

/// Median of five kernel runs.
fn calib_median() -> f64 {
    let mut v: Vec<f64> = (0..5).map(|_| calib_us()).collect();
    report::median(&mut v)
}

/// VmHWM of this process in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("xtbench: {e}");
            eprintln!(
                "usage: xtbench --workload <view-fire|snapshot-oltp|wire-durable> \
                 --seed <n> --seconds <s> --trace <0|1> [--smoke]"
            );
            return ExitCode::from(2);
        }
    };
    let calib_before = calib_median();
    let outcome = match args.workload.as_str() {
        "view-fire" => view_fire::run(&args),
        "snapshot-oltp" => snapshot_oltp::run(&args),
        "wire-durable" => wire_durable::run(&args),
        other => {
            eprintln!("xtbench: unknown workload `{other}`");
            return ExitCode::from(2);
        }
    };
    let calib_after = calib_median();
    let mut outcome = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("xtbench: {} failed: {e}", args.workload);
            return ExitCode::from(1);
        }
    };
    let r = &mut outcome.report;
    r.put("peak_rss_mb", "MiB", peak_rss_mb());
    r.put(
        "failed_frac",
        "fraction",
        outcome.failed as f64 / outcome.attempted.max(1) as f64,
    );
    r.put("host.calib_us", "us", (calib_before + calib_after) / 2.0);
    let cpus = std::thread::available_parallelism().map_or(0, |n| n.get());
    r.note(format!(
        "host.calib_us before={calib_before:.0} after={calib_after:.0} cpus={cpus}"
    ));
    let correct = outcome.check_failures.is_empty() && outcome.failed == 0;
    r.print_human(&args.workload);
    match r.json_line(correct, outcome.attempted, outcome.failed, args.trace) {
        Ok(line) => println!("{line}"),
        Err(missing) => {
            eprintln!("xtbench: metrics not measured: {missing}");
            return ExitCode::from(1);
        }
    }
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

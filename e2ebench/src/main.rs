//! End-to-end benchmark of the refgen reference-generation stack.
//!
//! ```text
//! cargo run --quiet --release --offline --manifest-path e2ebench/Cargo.toml -- \
//!     --workload <session|fleet|mesh|transient> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each workload turns `--seed` into its inputs (SPICE netlist text, the
//! form a user hands the tool), sets itself up [`SETUP_REPS`] times, then
//! runs its operation back to back — a closed loop with one client — for
//! `--seconds`. Every operation's output is compared bit for bit with the
//! reference output of the same input computed during set-up, and after
//! the timed loop the references are checked against independent oracles
//! (see `workloads.rs`).
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. With `--trace 0` the
//! metrics are the end-to-end ones:
//!
//! * `op_ms` — median latency of one operation;
//! * `op_p90_ms` — its 90th percentile (a tenth of the operations lie
//!   beyond it: about seven in a 20 s mesh run, eighteen in a fleet run,
//!   hundreds elsewhere);
//! * `ops_per_s` — operations completed per second of operation time;
//! * `setup_s` — median of the set-up repetitions.
//!
//! With `--trace 1` each operation instead runs through the outside-in
//! layer trace of `trace.rs`, and the metrics are the per-layer medians.
//! Every reported time is rescaled to a fixed machine speed (`speed.rs`).
//! Diagnostics, including raw medians, go to standard error.

mod speed;
mod trace;
mod workloads;

use std::process::ExitCode;
use std::time::{Duration, Instant};

/// Set-up repetitions per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;

const USAGE: &str =
    "usage: e2ebench --workload <session|fleet|mesh|transient> --seed <n> --seconds <s> --trace <0|1>";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 0u64, 10.0f64, false);
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().map_err(|_| format!("bad --seed {value}"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("bad --seconds {value}"))?;
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value}")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args { workload: workload.ok_or("--workload is required")?, seed, seconds, trace })
}

fn main() -> ExitCode {
    // The library reads `REFGEN_TEST_*` variables into its configuration
    // defaults; the benchmark measures the plain defaults.
    for (key, _) in std::env::vars_os() {
        if key.to_string_lossy().starts_with("REFGEN_TEST_") {
            std::env::remove_var(key);
        }
    }
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("e2ebench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("e2ebench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &Args) -> Result<String, String> {
    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    let mut workload = None;
    for _ in 0..SETUP_REPS {
        drop(workload.take());
        let before = speed::calibrate();
        let t0 = Instant::now();
        workload = Some(workloads::build(&args.workload, args.seed)?);
        let secs = t0.elapsed().as_secs_f64();
        setup_s.push(secs * speed::factor(0.5 * (before + speed::calibrate())));
    }
    let workload = workload.expect("at least one set-up repetition");

    let budget = Duration::from_secs_f64(args.seconds);
    // (seconds into the loop, milliseconds): operation starts and
    // latencies, calibration samples and kernel times.
    let mut ops: Vec<(f64, f64)> = Vec::new();
    let mut cals: Vec<(f64, f64)> = Vec::new();
    let mut traces = Vec::new();
    let mut failed = 0usize;
    let start = Instant::now();
    while ops.is_empty() || start.elapsed() < budget {
        let now = start.elapsed().as_secs_f64();
        if cals.last().is_none_or(|&(at, _)| now - at >= CAL_INTERVAL_S) {
            cals.push((now, speed::calibrate()));
        }
        let op = ops.len();
        let mut t = trace::OpTrace::default();
        let t0 = Instant::now();
        let outcome = if args.trace { workload.traced_op(op, &mut t) } else { workload.op(op) };
        ops.push(((t0 - start).as_secs_f64(), t0.elapsed().as_secs_f64() * 1e3));
        traces.push(t);
        if let Err(e) = outcome {
            failed += 1;
            if failed <= 3 {
                eprintln!("e2ebench: operation {op} failed: {e}");
            }
        }
    }
    let loop_s = start.elapsed().as_secs_f64();
    cals.push((loop_s, speed::calibrate()));
    let attempted = ops.len();

    let verified = workload.verify();
    if let Err(e) = &verified {
        eprintln!("e2ebench: verification failed: {e}");
    }
    let correct = failed == 0 && verified.is_ok();

    let factors: Vec<f64> =
        ops.iter().map(|&(at, ms)| speed::factor(cal_near(&cals, at, at + ms / 1e3))).collect();
    let metrics: Vec<(&str, &str, f64)> = if args.trace {
        trace::summarize(&traces, &factors)
    } else {
        let raw: Vec<f64> = ops.iter().map(|&(_, ms)| ms).collect();
        let scaled: Vec<f64> = raw.iter().zip(&factors).map(|(ms, f)| ms * f).collect();
        let cal_ms: Vec<f64> = cals.iter().map(|&(_, ms)| ms).collect();
        eprintln!(
            "e2ebench: {} {attempted} operations in {loop_s:.1} s on {} threads; raw median \
             {:.4} ms, p90 {:.4} ms; calibration kernel {:.3}..{:.3} ms (median {:.3})",
            args.workload,
            std::thread::available_parallelism().map_or(1, |n| n.get()),
            median(&raw),
            percentile(&raw, 0.9),
            percentile(&cal_ms, 0.0),
            percentile(&cal_ms, 1.0),
            median(&cal_ms),
        );
        vec![
            ("op_ms", "ms", median(&scaled)),
            ("op_p90_ms", "ms", percentile(&scaled, 0.9)),
            ("ops_per_s", "1/s", 1e3 * attempted as f64 / scaled.iter().sum::<f64>()),
            ("setup_s", "s", median(&setup_s)),
        ]
    };
    Ok(result_json(correct, attempted, failed, &metrics))
}

/// Seconds between calibration samples in the timed loop (an operation
/// longer than this is bracketed by the samples taken before and after
/// it).
const CAL_INTERVAL_S: f64 = 0.1;
/// How far before its start and after its end an operation takes the
/// calibration samples that rescale it.
const CAL_WINDOW_S: f64 = 0.2;

/// Median calibration time of the samples (sorted by time) that fall
/// within [`CAL_WINDOW_S`] of the operation running from `start` to `end`
/// seconds, or of the sample nearest its start when none does.
fn cal_near(cals: &[(f64, f64)], start: f64, end: f64) -> f64 {
    let lo = cals.partition_point(|&(t, _)| t < start - CAL_WINDOW_S);
    let hi = cals.partition_point(|&(t, _)| t <= end + CAL_WINDOW_S);
    if lo < hi {
        median(&cals[lo..hi].iter().map(|&(_, ms)| ms).collect::<Vec<_>>())
    } else {
        cals.iter()
            .min_by(|a, b| (a.0 - start).abs().total_cmp(&(b.0 - start).abs()))
            .map_or(speed::REFERENCE_MS, |c| c.1)
    }
}

/// Nearest-rank `p`-quantile of `values`.
fn percentile(values: &[f64], p: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (p * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Median of `values` (sorted or not); the mean of the middle pair for an
/// even count.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        return 0.0;
    }
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

fn result_json(
    correct: bool,
    attempted: usize,
    failed: usize,
    metrics: &[(&str, &str, f64)],
) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, unit, value)| {
            // JSON has no NaN or infinity; a non-finite value is a defect in
            // the run, so it is reported as an incorrect result.
            let value = if value.is_finite() { *value } else { -1.0 };
            format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    let correct = correct && metrics.iter().all(|(_, _, v)| v.is_finite());
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

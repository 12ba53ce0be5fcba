//! Measures the sampling hot path and writes the perf trajectory to
//! `BENCH_sampling.json` at the repository root — the baseline future PRs
//! regress against.
//!
//! ```text
//! cargo run --release -p refgen_bench --bin perf_snapshot            # full run
//! cargo run --release -p refgen_bench --bin perf_snapshot -- --quick # smoke
//! cargo run --release -p refgen_bench --bin perf_snapshot -- out.json
//! cargo run --release -p refgen_bench --bin perf_snapshot -- --quick --check BENCH_sampling.json
//! ```
//!
//! `--check <committed.json>` holds the run to a committed trajectory
//! (see `refgen_bench::check`), prints the report and exits with status 1
//! when a derived ratio regressed. It writes the run's own trajectory only
//! to an output path given explicitly.

use refgen_bench::{check, perf_snapshot};

fn main() {
    let mut quick = false;
    let mut committed: Option<String> = None;
    let mut out: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--check" => match args.next() {
                Some(path) => committed = Some(path),
                None => usage("--check needs the committed trajectory's path"),
            },
            flag if flag.starts_with("--") => usage(&format!("unknown flag {flag}")),
            path => out = Some(path.to_string()),
        }
    }
    // Read the committed trajectory before the run, so a bad path fails
    // fast.
    let committed = committed.map(|path| {
        let json = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| usage(&format!("cannot read {path}: {e}")));
        check::parse_snapshot(&json).unwrap_or_else(|e| usage(&format!("{path}: {e}")))
    });

    let snapshot = perf_snapshot(quick);
    println!(
        "{:<38} {:>14} {:>14} {:>12} {:>8} {:>6}",
        "row", "ns/point", "min", "mad", "points", "reps"
    );
    for r in &snapshot.rows {
        println!(
            "{:<38} {:>14.1} {:>14.1} {:>12.1} {:>8} {:>6}",
            r.name, r.median_ns_per_point, r.min_ns_per_point, r.mad_ns_per_point, r.points, r.reps
        );
    }
    println!("calibration kernel: {:.3} ms", snapshot.calibration_ns * 1e-6);
    // Default output: the repository root, independent of the invocation
    // directory (the manifest dir is crates/bench); a check writes only
    // where it is told to.
    let out = match (&committed, out) {
        (_, Some(path)) => Some(path),
        (None, None) => Some(format!("{}/../../BENCH_sampling.json", env!("CARGO_MANIFEST_DIR"))),
        (Some(_), None) => None,
    };
    if let Some(out) = out {
        std::fs::write(&out, snapshot.to_json()).expect("write trajectory");
        println!("wrote {out}");
    }
    if let Some(committed) = committed {
        let report = check::check(&committed, &snapshot);
        println!("{report}");
        if !report.passed() {
            std::process::exit(1);
        }
    }
}

fn usage(problem: &str) -> ! {
    eprintln!("{problem} (usage: [--quick] [--check committed.json] [output-path])");
    std::process::exit(2);
}

//! Measures the sampling hot path and writes the perf trajectory to
//! `BENCH_sampling.json` at the repository root — the baseline future PRs
//! regress against.
//!
//! ```text
//! cargo run --release -p refgen_bench --bin perf_snapshot            # full run
//! cargo run --release -p refgen_bench --bin perf_snapshot -- --quick # smoke
//! cargo run --release -p refgen_bench --bin perf_snapshot -- out.json
//! ```

use refgen_bench::perf_snapshot;

fn main() {
    let mut quick = false;
    let mut out: Option<String> = None;
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--quick" => quick = true,
            flag if flag.starts_with("--") => {
                eprintln!("unknown flag {flag} (supported: --quick [output-path])");
                std::process::exit(2);
            }
            path => out = Some(path.to_string()),
        }
    }
    // Default output: the repository root, independent of the invocation
    // directory (the manifest dir is crates/bench).
    let out =
        out.unwrap_or_else(|| format!("{}/../../BENCH_sampling.json", env!("CARGO_MANIFEST_DIR")));

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
    std::fs::write(&out, snapshot.to_json()).expect("write trajectory");
    println!("wrote {out}");
}

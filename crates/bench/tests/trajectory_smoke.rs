//! Mesh-scaling smoke over the committed perf trajectory: the
//! `BENCH_sampling.json` at the repository root must carry every
//! `mesh{256,1024,4096}_{markowitz,amd}_direct` row (a snapshot
//! regenerated with an older binary would silently drop them) and a
//! numeric `mesh4096_amd_speedup_vs_markowitz` ratio. The trajectory
//! writer must give every row its spread next to its median.

use refgen_bench::{PerfEnv, PerfRow, PerfSnapshot};

/// Extracts the numeric value following `"key": ` in the flat trajectory
/// JSON (the format is machine-written, so plain string scanning is
/// reliable and keeps the test dependency-free).
fn derived_value(json: &str, key: &str) -> f64 {
    let needle = format!("\"{key}\": ");
    let at = json.find(&needle).unwrap_or_else(|| panic!("derived entry {key} missing"));
    let rest = &json[at + needle.len()..];
    let end = rest.find([',', '\n', '}']).expect("value terminated");
    rest[..end].trim().parse().expect("numeric derived value")
}

#[test]
fn committed_trajectory_has_mesh_rows() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_sampling.json");
    let json = std::fs::read_to_string(path).expect("committed BENCH_sampling.json readable");
    for nodes in [256, 1024, 4096] {
        for ordering in ["markowitz", "amd"] {
            let row = format!("\"mesh{nodes}_{ordering}_direct\"");
            assert!(json.contains(&row), "trajectory is missing the {row} mesh row");
        }
    }
    let amd = derived_value(&json, "mesh4096_amd_speedup_vs_markowitz");
    assert!(amd.is_finite() && amd > 0.0, "mesh4096 AMD ratio is not a positive number: {amd}");
}

/// Every row the writer emits carries its median, minimum and median
/// absolute deviation, the minimum at most the median.
#[test]
fn written_rows_carry_spread() {
    let names = [
        "fleet_ua741x64_scalar",
        "fleet_ua741x64_batched",
        "session_ua741_mirror_on",
        "session_ua741_mirror_off",
        "mesh256_auto_sweep",
        "mesh1024_auto_sweep",
    ];
    let rows = names
        .iter()
        .map(|name| PerfRow {
            name: name.to_string(),
            median_ns_per_point: 120.0,
            min_ns_per_point: 100.0,
            mad_ns_per_point: 7.5,
            points: 96,
            reps: 5,
        })
        .collect();
    let json = PerfSnapshot {
        env: PerfEnv::detect(),
        calibration_ns: 1.5e6,
        rows,
        mesh4096_amd_speedup: None,
    }
    .to_json();
    for name in names {
        let line = json
            .lines()
            .find(|l| l.contains(&format!("\"name\": \"{name}\"")))
            .unwrap_or_else(|| panic!("row {name} missing"));
        let median = derived_value(line, "median_ns_per_point");
        let min = derived_value(line, "min_ns_per_point");
        let mad = derived_value(line, "mad_ns_per_point");
        assert!(min <= median && mad >= 0.0, "{name}: {line}");
    }
}

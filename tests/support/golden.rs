//! The golden-curve tier's data: `tests/golden/<name>.sp` netlists, their
//! committed `<name>.json` reference curves, and the checks that hold
//! every solver to them.

use refgen::mna::OrderingMode;
use refgen::prelude::*;
use std::path::{Path, PathBuf};

pub fn golden_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden")
}

/// One parsed golden case.
pub struct Golden {
    pub name: String,
    pub solvers: String,
    pub tol_mag_db: f64,
    pub tol_phase_deg: f64,
    pub freq_hz: Vec<f64>,
    pub mag_db: Vec<f64>,
    pub phase_deg: Vec<f64>,
    pub netlist: Netlist,
}

/// Minimal field extraction for the flat `refgen-golden/v1` schema (the
/// workspace has no JSON dependency; the writer emits one known shape).
pub fn json_str(json: &str, key: &str) -> String {
    let pat = format!("\"{key}\": \"");
    let start = json.find(&pat).unwrap_or_else(|| panic!("missing key {key}")) + pat.len();
    let end = json[start..].find('"').expect("unterminated string") + start;
    json[start..end].to_string()
}

pub fn json_f64(json: &str, key: &str) -> f64 {
    let pat = format!("\"{key}\": ");
    let start = json.find(&pat).unwrap_or_else(|| panic!("missing key {key}")) + pat.len();
    let end = json[start..].find([',', '\n']).map_or(json.len(), |e| e + start);
    json[start..end].trim().trim_end_matches(',').parse().expect("number")
}

pub fn json_f64_array(json: &str, key: &str) -> Vec<f64> {
    let pat = format!("\"{key}\": [");
    let start = json.find(&pat).unwrap_or_else(|| panic!("missing key {key}")) + pat.len();
    let end = json[start..].find(']').expect("unterminated array") + start;
    json[start..end].split(',').map(|t| t.trim().parse().expect("array element")).collect()
}

/// The parsed and validated `tests/golden/<name>.sp`.
pub fn golden_netlist(name: &str) -> Netlist {
    let sp = std::fs::read_to_string(golden_dir().join(format!("{name}.sp"))).expect("golden .sp");
    let netlist = parse_netlist(&sp).expect("golden netlist parses");
    netlist.circuit.validate().expect("golden netlist validates");
    netlist
}

pub fn load_golden(name: &str) -> Golden {
    let json =
        std::fs::read_to_string(golden_dir().join(format!("{name}.json"))).expect("golden .json");
    assert_eq!(json_str(&json, "schema"), "refgen-golden/v1");
    assert_eq!(json_str(&json, "name"), name);
    let netlist = golden_netlist(name);
    let golden = Golden {
        name: name.to_string(),
        solvers: json_str(&json, "solvers"),
        tol_mag_db: json_f64(&json, "tol_mag_db"),
        tol_phase_deg: json_f64(&json, "tol_phase_deg"),
        freq_hz: json_f64_array(&json, "freq_hz"),
        mag_db: json_f64_array(&json, "mag_db"),
        phase_deg: json_f64_array(&json, "phase_deg"),
        netlist,
    };
    assert_eq!(golden.freq_hz.len(), golden.mag_db.len());
    assert_eq!(golden.freq_hz.len(), golden.phase_deg.len());
    assert!(!golden.freq_hz.is_empty());
    // The committed grid must be exactly the .AC card's grid: the curve and
    // the netlist travel together.
    let card = golden.netlist.analysis.ac().expect(".AC card");
    let card_grid = card.frequencies();
    assert_eq!(card_grid.len(), golden.freq_hz.len(), "{name}: grid shape");
    for (a, b) in card_grid.iter().zip(&golden.freq_hz) {
        assert!((a - b).abs() <= 1e-9 * b.abs(), "{name}: grid point {a} vs {b}");
    }
    golden
}

pub fn mag_db_of(h: refgen::numeric::Complex) -> f64 {
    let db = 20.0 * h.abs().log10();
    if db.is_finite() {
        db.max(AcPoint::MAG_DB_FLOOR)
    } else {
        AcPoint::MAG_DB_FLOOR
    }
}

pub fn phase_distance_deg(a: f64, b: f64) -> f64 {
    let d = (a - b).rem_euclid(360.0);
    d.min(360.0 - d)
}

/// Golden tolerances pin the *default* pivot path's round-off. A forced
/// ordering ([`OrderingMode::Markowitz`] or [`OrderingMode::Amd`]) runs a
/// different but equally valid pivot sequence, so last-digit rounding
/// legitimately moves — and a ~1e-8 relative perturbation of a recovered
/// coefficient shows up as a phase error growing linearly with frequency
/// (measured 1.2e-8° at 100 Hz → 1.2e-4° at 1 MHz on the tightest case).
/// Forced orderings therefore hold the *curves* to 1e-3 dB / 1e-3 degrees
/// rather than the default path's bit-level 1e-9 pins.
pub fn ordering_slack(ordering: OrderingMode) -> f64 {
    match ordering {
        OrderingMode::Auto => 1.0,
        OrderingMode::Markowitz | OrderingMode::Amd => 1e6,
    }
}

/// Asserts a response curve matches the golden one within its stored
/// tolerances, widened by `slack`.
pub fn assert_curve(
    golden: &Golden,
    label: &str,
    slack: f64,
    response: impl Fn(f64) -> refgen::numeric::Complex,
) {
    for (i, &f) in golden.freq_hz.iter().enumerate() {
        let h = response(f);
        let mag = mag_db_of(h);
        let phase = h.arg().to_degrees();
        let dm = (mag - golden.mag_db[i]).abs();
        let dp = phase_distance_deg(phase, golden.phase_deg[i]);
        assert!(
            dm <= golden.tol_mag_db * slack,
            "{}/{label} at {f} Hz: mag {mag} vs {} (err {dm:e} > tol {:e})",
            golden.name,
            golden.mag_db[i],
            golden.tol_mag_db
        );
        assert!(
            dp <= golden.tol_phase_deg * slack,
            "{}/{label} at {f} Hz: phase {phase} vs {} (err {dp:e} > tol {:e})",
            golden.name,
            golden.phase_deg[i],
            golden.tol_phase_deg
        );
    }
}

/// Runs every solver the case's `solvers` field demands against the
/// committed curve.
///
/// * `"all"` — the adaptive interpolator plus all three baselines,
///   including the unit-circle solver; only normalized circuits (dynamics
///   near 1 rad/s) are within the unit circle's reach, so such cases get a
///   [`MultiScaleGridSolver`] grid matched to that band too.
/// * `"scaled"` — the solvers built for wide coefficient spread. On these
///   engineering-scale circuits the unit-circle baseline is the paper's
///   designed round-off failure (hundreds of dB of error on `rc_cascade`),
///   so it is asserted to *run* but not to match.
///
/// Every solver plans under `ordering`, held to the curve with
/// [`ordering_slack`].
pub fn check_solvers(name: &str, ordering: OrderingMode) {
    let golden = load_golden(name);
    let spec = TransferSpec::from(golden.netlist.analysis.tf().expect(".TF card"));

    // Independent AC path first: confirms the committed curve itself.
    let ac = AcAnalysis::new(&golden.netlist.circuit, spec.clone()).expect("assemble");
    assert_curve(&golden, "ac-lu", 1.0, |f| ac.at(f).expect("nonsingular").response);

    let config = RefgenConfig::builder().ordering(ordering).build();
    let slack = ordering_slack(ordering);
    let normalized = golden.solvers == "all";
    let (grid_lo, grid_hi) = if normalized { (1e-3, 1e3) } else { (1e3, 1e15) };
    let mut solvers: Vec<Box<dyn Solver>> = vec![
        Box::new(AdaptiveInterpolator::new(config)),
        Box::new(StaticScalingSolver::heuristic(config)),
        Box::new(MultiScaleGridSolver::new(grid_lo, grid_hi, 16, config)),
    ];
    if normalized {
        solvers.push(Box::new(UnitCircleSolver::new(config)));
    } else {
        assert_eq!(golden.solvers, "scaled");
        // The designed failure case still solves; its accuracy is not held
        // to the golden curve on circuits beyond its reach.
        Session::for_circuit(&golden.netlist.circuit)
            .spec(spec.clone())
            .solver(UnitCircleSolver::new(config))
            .solve()
            .unwrap_or_else(|e| panic!("{name}: unit-circle failed to run: {e}"));
    }
    for solver in solvers {
        let solution = Session::for_circuit(&golden.netlist.circuit)
            .spec(spec.clone())
            .solver(solver)
            .solve()
            .unwrap_or_else(|e| panic!("{name}: solver failed: {e}"));
        let nf = solution.network;
        assert_curve(&golden, solution.method, slack, |f| nf.response_at_hz(f));
    }
}

//! Regenerates the golden reference curves under `tests/golden/`.
//!
//! ```text
//! cargo run --release -p refgen_bench --bin golden_gen
//! ```
//!
//! Each golden case is a self-contained netlist (`<name>.sp`, built on the
//! `.SUBCKT` building-block library) whose `.AC` card fixes the frequency
//! grid and whose `.TF` card fixes the transfer function, plus a committed
//! JSON curve (`<name>.json`) computed by the independent per-frequency LU
//! path ([`AcAnalysis`]) — the trusted oracle the interpolation engine is
//! validated against throughout the workspace. The root test
//! `tests/golden_curves.rs` requires every `Solver` to reproduce these
//! curves within the stored tolerances.
//!
//! Regenerate only when a golden circuit is deliberately changed; the JSON
//! files are committed so CI compares against a fixed reference.

use refgen_circuit::library::netlist_with_library;
use refgen_circuit::parse_netlist;
use refgen_core::{AdaptiveInterpolator, RefgenConfig, Solver};
use refgen_mna::{AcAnalysis, TransferSpec};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// Which solver set the golden test must run against a case.
enum SolverSet {
    /// Every `Solver` implementation, including the unit-circle baseline —
    /// only sensible for normalized circuits whose coefficient spread is
    /// within the unit circle's reach.
    All,
    /// The solvers designed for wide coefficient spread (adaptive,
    /// static-scaling, multi-scale-grid). The unit-circle baseline is the
    /// paper's designed round-off failure on such circuits and is excluded.
    Scaled,
    /// Only the independent per-frequency AC path (circuits with
    /// inductors, which the interpolation engine rejects by design).
    AcOnly,
}

struct GoldenCase {
    name: &'static str,
    /// Top-level fragment appended to the `.SUBCKT` library.
    top: &'static str,
    solvers: SolverSet,
    tol_mag_db: f64,
    tol_phase_deg: f64,
}

const CASES: &[GoldenCase] = &[
    GoldenCase {
        name: "sallen_key",
        top: "* Sallen-Key biquad on the opamp macromodel (f0 ~ 12.7 kHz)\n\
              VIN in 0 AC 1\n\
              X1 in out sallen_key\n\
              RL out 0 1meg\n\
              .ac dec 10 100 1meg\n\
              .tf V(out) VIN\n\
              .end\n",
        solvers: SolverSet::Scaled,
        tol_mag_db: 1e-9,
        tol_phase_deg: 1e-9,
    },
    GoldenCase {
        name: "rc_cascade",
        top: "* two cascaded 4-section RC ladders, staggered corners\n\
              VIN in 0 AC 1\n\
              X1 in mid rc_lowpass\n\
              X2 mid out rc_lowpass r=2k c=500p\n\
              .ac dec 10 1k 10meg\n\
              .tf V(out) VIN\n\
              .end\n",
        solvers: SolverSet::Scaled,
        tol_mag_db: 1e-9,
        tol_phase_deg: 1e-9,
    },
    GoldenCase {
        name: "rc_prototype",
        top: "* normalized 4-section RC ladder (1 rad/s sections): small\n\
              * coefficient spread, within the unit-circle baseline's reach\n\
              VIN in 0 AC 1\n\
              X1 in out rc_lowpass r=1 c=1\n\
              .ac dec 10 0.01 10\n\
              .tf V(out) VIN\n\
              .end\n",
        solvers: SolverSet::All,
        tol_mag_db: 1e-9,
        tol_phase_deg: 1e-9,
    },
    GoldenCase {
        name: "rlc_butterworth",
        top: "* 3rd-order Butterworth LC ladder, 100 kHz cutoff\n\
              VIN in 0 AC 1\n\
              X1 in out rlc_lowpass\n\
              .ac dec 10 1k 10meg\n\
              .tf V(out) VIN\n\
              .end\n",
        solvers: SolverSet::AcOnly,
        tol_mag_db: 1e-9,
        tol_phase_deg: 1e-9,
    },
];

/// A transient golden case: a self-contained netlist whose `.TRAN` card
/// fixes the time axis and whose `.TF` card names the transfer function;
/// the committed curve is the closed-form
/// [`PartialFractions::step_response`](refgen_core::PartialFractions::step_response)
/// of the symbolically recovered network function — the same oracle the
/// root transient tier converges against. The golden test requires the
/// companion-model stepper to track it within `tol_v`.
struct TranGoldenCase {
    name: &'static str,
    source: &'static str,
    tol_v: f64,
}

const TRAN_CASES: &[TranGoldenCase] = &[TranGoldenCase {
    name: "rc_step_tran",
    source: "* single-pole RC step: v(out) = 1 - e^(-t/tau), tau = 1 us\n\
             VIN in 0 AC 1 PULSE(0 1)\n\
             R1 in out 1k\n\
             C1 out 0 1n\n\
             .tran 5e-8 8e-6\n\
             .tf V(out) VIN\n\
             .end\n",
    tol_v: 1e-3,
}];

fn golden_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden")
}

fn json_array(values: &[f64]) -> String {
    let mut out = String::from("[");
    for (i, v) in values.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        write!(out, "{v:e}").expect("write to string");
    }
    out.push(']');
    out
}

fn main() {
    let dir = golden_dir();
    std::fs::create_dir_all(&dir).expect("create tests/golden");
    for case in CASES {
        let source = netlist_with_library(case.top);
        let netlist = parse_netlist(&source).expect("golden netlist parses");
        netlist.circuit.validate().expect("golden netlist validates");
        let ac_card = netlist.analysis.ac().expect("golden netlist has .AC card");
        let tf_card = netlist.analysis.tf().expect("golden netlist has .TF card");
        let ac =
            AcAnalysis::new(&netlist.circuit, TransferSpec::from(tf_card)).expect("MNA assembly");
        let points = ac.sweep_card(ac_card).expect("AC sweep");

        let freq: Vec<f64> = points.iter().map(|p| p.freq_hz).collect();
        let mag: Vec<f64> = points.iter().map(|p| p.mag_db()).collect();
        let phase: Vec<f64> = points.iter().map(|p| p.phase_deg()).collect();
        let solvers = match case.solvers {
            SolverSet::All => "all",
            SolverSet::Scaled => "scaled",
            SolverSet::AcOnly => "ac",
        };
        let json = format!(
            "{{\n  \"schema\": \"refgen-golden/v1\",\n  \"name\": \"{}\",\n  \
             \"solvers\": \"{}\",\n  \"tol_mag_db\": {:e},\n  \"tol_phase_deg\": {:e},\n  \
             \"freq_hz\": {},\n  \"mag_db\": {},\n  \"phase_deg\": {}\n}}\n",
            case.name,
            solvers,
            case.tol_mag_db,
            case.tol_phase_deg,
            json_array(&freq),
            json_array(&mag),
            json_array(&phase),
        );
        std::fs::write(dir.join(format!("{}.sp", case.name)), &source).expect("write .sp");
        std::fs::write(dir.join(format!("{}.json", case.name)), &json).expect("write .json");
        println!("wrote {} ({} points, solvers={})", case.name, freq.len(), solvers);
    }

    for case in TRAN_CASES {
        let netlist = parse_netlist(case.source).expect("tran golden parses");
        netlist.circuit.validate().expect("tran golden validates");
        let tran = netlist.analysis.tran().expect("tran golden has .TRAN card");
        let tf_card = netlist.analysis.tf().expect("tran golden has .TF card");
        let pf = AdaptiveInterpolator::new(RefgenConfig::default())
            .solve(&netlist.circuit, &TransferSpec::from(tf_card))
            .expect("symbolic solve")
            .partial_fractions()
            .expect("distinct poles");
        let times = tran.times();
        let v_out: Vec<f64> = times.iter().map(|&t| pf.step_response(t)).collect();
        let json = format!(
            "{{\n  \"schema\": \"refgen-golden-tran/v1\",\n  \"name\": \"{}\",\n  \
             \"tol_v\": {:e},\n  \"time_s\": {},\n  \"v_out\": {}\n}}\n",
            case.name,
            case.tol_v,
            json_array(&times),
            json_array(&v_out),
        );
        std::fs::write(dir.join(format!("{}.sp", case.name)), case.source).expect("write .sp");
        std::fs::write(dir.join(format!("{}.json", case.name)), &json).expect("write .json");
        println!("wrote {} ({} transient points)", case.name, times.len());
    }
}

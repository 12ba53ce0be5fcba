//! The configuration-matrix tier: every execution knob changes only
//! wall-clock time, never a bit of the answer.
//!
//! A corpus — the five `tests/golden/*.sp` netlists, the µA741, the
//! Table 1 OTA, an RC ladder, three ±5 % µA741 variants, a 64-variant
//! ±5 % µA741 fleet and a 32-variant ±60 % µA741 fleet — is solved under the default configuration and
//! under [`CONFIGS`], which cover `threads ∈ {1, 4}` × conjugate
//! mirroring on/off × lane widths `∈ {1, 3, 32}`.
//! Every non-default value appears alone and in at least one combined
//! configuration. Each run must reproduce the default run through
//! [`support::assert_same_solution`]: coefficient bits, report fields and
//! every `Diagnostic`, up to the `threads` report field of
//! `SamplingBatched` (and, with mirroring off, the documented split of
//! solved versus mirrored points).
//!
//! The pivot ordering is the one knob that moves round-off: a forced
//! [`OrderingMode::Markowitz`] or [`OrderingMode::Amd`] is held to the
//! golden curves (with the slack [`support::golden::ordering_slack`]
//! documents) and to the independent per-frequency AC solve instead.

mod support;

use refgen::mna::OrderingMode;
use refgen::prelude::*;
use support::golden::{check_solvers, golden_netlist};

/// `(threads, conjugate_mirror, lane_width)` of every non-default
/// configuration. The default is `(1, true, 32)`. Mirroring off appears
/// at both thread counts.
const CONFIGS: [(usize, bool, usize); 6] =
    [(4, true, 32), (1, false, 32), (1, true, 1), (1, true, 3), (4, false, 3), (4, false, 1)];

/// The five golden netlists.
const GOLDEN: [&str; 5] =
    ["rc_prototype", "sallen_key", "rc_cascade", "rlc_butterworth", "rc_step_tran"];

/// Each non-default configuration with its label.
fn configs() -> Vec<(String, RefgenConfig)> {
    assert_eq!(
        RefgenConfig::default(),
        RefgenConfig::builder().threads(1).conjugate_mirror(true).lane_width(32).build(),
        "the matrix is anchored at the documented defaults"
    );
    CONFIGS
        .iter()
        .map(|&(threads, mirror, lanes)| {
            let label = format!("t{threads}/mirror {mirror}/l{lanes}");
            let config = RefgenConfig::builder()
                .threads(threads)
                .conjugate_mirror(mirror)
                .lane_width(lanes)
                .build();
            (label, config)
        })
        .collect()
}

fn gain() -> TransferSpec {
    TransferSpec::voltage_gain("VIN", "out")
}

fn ua741_variants(count: usize, seed: u64) -> VariantSet {
    VariantSet::new(Perturbation::all_relative(0.05), count).seed(seed)
}

fn solve_roster(
    circuit: &Circuit,
    spec: &TransferSpec,
    cfg: RefgenConfig,
) -> Vec<Result<Solution, RefgenError>> {
    let roster: [Box<dyn Solver>; 4] = [
        Box::new(AdaptiveInterpolator::new(cfg)),
        Box::new(UnitCircleSolver::new(cfg)),
        Box::new(StaticScalingSolver::heuristic(cfg)),
        Box::new(MultiScaleGridSolver::new(1e3, 1e15, 16, cfg)),
    ];
    roster
        .into_iter()
        .map(|solver| Session::for_circuit(circuit).spec(spec.clone()).solver(solver).solve())
        .collect()
}

/// Solves `circuit` with all four solvers under the default
/// configuration and under every [`CONFIGS`] entry, and holds each run to
/// the default one. Returns the points the default run mirrored, so the
/// callers can check mirroring off had something to turn off.
fn assert_config_invariant(name: &str, circuit: &Circuit, spec: &TransferSpec) -> u64 {
    let reference = solve_roster(circuit, spec, RefgenConfig::default());
    let solved: Vec<&Solution> = reference.iter().filter_map(|r| r.as_ref().ok()).collect();
    assert!(!solved.is_empty(), "{name}: no solver succeeded");
    for s in &solved {
        // The engine's cheap path carries real solves (pivot-order reuse,
        // not silent fallback).
        assert!(s.refactor_hits() > 0, "{name}/{}: no pivot-order reuse", s.method);
    }
    let mirrored: u64 = solved
        .iter()
        .flat_map(|s| s.diagnostics())
        .filter_map(|d| match d {
            Diagnostic::SamplingBatched { mirrored, .. } => Some(*mirrored),
            _ => None,
        })
        .sum();
    for (label, cfg) in configs() {
        let runs = solve_roster(circuit, spec, cfg);
        assert_eq!(runs.len(), reference.len());
        for (i, (want, got)) in reference.iter().zip(&runs).enumerate() {
            let ctx = format!("{name}/solver {i}/{label}");
            support::assert_same_outcome(&ctx, want, got, !cfg.conjugate_mirror);
        }
    }
    mirrored
}

#[test]
fn rc_ladder_matches_the_default_config_bitwise() {
    let mirrored = assert_config_invariant("ladder12", &library::rc_ladder(12, 1e3, 1e-9), &gain());
    assert!(mirrored > 0, "mirroring never engaged");
}

#[test]
fn ua741_matches_the_default_config_bitwise() {
    let base = library::ua741();
    assert!(assert_config_invariant("ua741", &base, &gain()) > 0, "mirroring never engaged");
    for (i, variant) in ua741_variants(3, 0x5eed).generate(&base).unwrap().iter().enumerate() {
        assert_config_invariant(&format!("ua741 variant {i}"), variant, &gain());
    }
}

#[test]
fn ota_matches_the_default_config_bitwise() {
    let mirrored = assert_config_invariant("ota", &library::positive_feedback_ota(), &gain());
    assert!(mirrored > 0, "mirroring never engaged");
}

#[test]
fn golden_netlists_match_the_default_config_bitwise() {
    for name in GOLDEN {
        let netlist = golden_netlist(name);
        let spec = TransferSpec::from(netlist.analysis.tf().expect(".TF card"));
        assert_config_invariant(name, &netlist.circuit, &spec);
    }
}

/// The 64-variant fleet on the batch-session path: coefficients,
/// diagnostics, variance statistics and the whole report, including the
/// plan-cache counters, under every configuration.
#[test]
fn ua741_fleet_matches_the_default_config_bitwise() {
    let base = library::ua741();
    let fleet = |cfg: RefgenConfig| {
        Session::for_circuit(&base)
            .spec(gain())
            .config(cfg)
            .variants(ua741_variants(64, 0xf1ee7))
            .solve_all()
            .expect("µA741 fleet solves")
    };
    let reference = fleet(RefgenConfig::default());
    assert_eq!(reference.solutions().len(), 64);
    for (label, cfg) in configs() {
        let run = fleet(cfg);
        support::assert_same_fleet(&label, &reference, &run, !cfg.conjugate_mirror, true);
    }
}

/// A 32-variant ±60 % fleet under fault containment: its variants' scale
/// walks spread over many plan cells, each of whose pivot orders must not
/// depend on which variant, on which worker, planned the cell first.
#[test]
fn ua741_wide_fleet_matches_the_default_config_bitwise() {
    let base = library::ua741();
    let fleet = |mut cfg: RefgenConfig| {
        cfg.fault_policy = FaultPolicy::Contain;
        Session::for_circuit(&base)
            .spec(gain())
            .config(cfg)
            .variants(VariantSet::new(Perturbation::all_relative(0.6), 32).seed(26))
            .solve_all()
            .expect("contained fleet runs")
    };
    let reference = fleet(RefgenConfig::default());
    assert_eq!(reference.solutions().len(), 32);
    for (label, cfg) in configs() {
        let run = fleet(cfg);
        support::assert_same_fleet(&label, &reference, &run, !cfg.conjugate_mirror, true);
    }
}

/// Forced orderings hold every golden curve the default ordering holds.
#[test]
fn forced_orderings_hold_the_golden_curves() {
    for ordering in [OrderingMode::Markowitz, OrderingMode::Amd] {
        for name in ["rc_prototype", "sallen_key", "rc_cascade"] {
            check_solvers(name, ordering);
        }
    }
}

/// Forced orderings hold the adaptive solve of the non-golden corpus to
/// the independent per-frequency AC solve.
#[test]
fn forced_orderings_hold_the_ac_oracle() {
    let base = library::ua741();
    let mut corpus = vec![
        ("ladder12".to_string(), library::rc_ladder(12, 1e3, 1e-9)),
        ("ota".to_string(), library::positive_feedback_ota()),
        ("ua741".to_string(), base.clone()),
    ];
    for (i, c) in ua741_variants(3, 0x5eed).generate(&base).unwrap().into_iter().enumerate() {
        corpus.push((format!("ua741 variant {i}"), c));
    }
    let freqs = log_space(1.0, 1e8, 33);
    for ordering in [OrderingMode::Markowitz, OrderingMode::Amd] {
        let cfg = RefgenConfig::builder().ordering(ordering).build();
        for (name, circuit) in &corpus {
            let solution = Session::for_circuit(circuit)
                .spec(gain())
                .config(cfg)
                .solve()
                .unwrap_or_else(|e| panic!("{name}/{ordering:?}: {e}"));
            let ac = AcAnalysis::new(circuit, gain()).expect("assemble");
            for &f in &freqs {
                let truth = ac.at(f).expect("nonsingular").response;
                let got = solution.network.response_at_hz(f);
                let err = (got - truth).abs() / truth.abs();
                assert!(err < 1e-6, "{name}/{ordering:?} at {f} Hz: rel err {err:e}");
            }
        }
    }
}

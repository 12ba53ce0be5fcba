//! Golden-data validation tier.
//!
//! `tests/golden/<name>.sp` are self-contained hierarchical netlists
//! (`.SUBCKT` library blocks + `.AC`/`.TF` cards); `<name>.json` are the
//! committed reference curves computed by the independent per-frequency LU
//! path (`AcAnalysis`), regenerated only deliberately via
//! `cargo run -p refgen_bench --bin golden_gen`. Every `Solver` must
//! reproduce the curves within the stored tolerances, and a netlist-defined
//! subcircuit fleet must solve through one shared pivot search and one
//! compiled symbolic program.

mod support;

use refgen::mna::OrderingMode;
use refgen::prelude::*;
use support::golden::{assert_curve, check_solvers, golden_dir, json_f64, json_f64_array};
use support::golden::{golden_netlist, json_str, load_golden};

#[test]
fn rc_prototype_matches_golden_for_every_solver() {
    check_solvers("rc_prototype", OrderingMode::Auto);
}

#[test]
fn sallen_key_matches_golden_for_scaled_solvers() {
    check_solvers("sallen_key", OrderingMode::Auto);
}

#[test]
fn rc_cascade_matches_golden_for_scaled_solvers() {
    check_solvers("rc_cascade", OrderingMode::Auto);
}

#[test]
fn rlc_butterworth_matches_golden_on_ac_path() {
    // Inductors are outside the interpolation engine by design; this golden
    // pins the independent AC path on an RLC workload.
    let golden = load_golden("rlc_butterworth");
    assert_eq!(golden.solvers, "ac");
    let spec = TransferSpec::from(golden.netlist.analysis.tf().expect(".TF card"));
    let ac = AcAnalysis::new(&golden.netlist.circuit, spec).expect("assemble");
    assert_curve(&golden, "ac-lu", 1.0, |f| ac.at(f).expect("nonsingular").response);
    // Butterworth sanity: 0 dB at DC-ish, −3 dB at cutoff (ladder is
    // doubly terminated, so the passband sits at −6.02 dB absolute).
    let h0 = ac.at(1e3).expect("passband").response.abs();
    assert!((20.0 * h0.log10() + 6.0206).abs() < 0.02);
    let hc = ac.at(1e5).expect("cutoff").response.abs();
    assert!((20.0 * (hc / h0).log10() + 3.0103).abs() < 0.05);
}

/// The transient golden: the committed curve is the closed-form
/// `PartialFractions::step_response` of the symbolically recovered
/// transfer function, sampled on the netlist's own `.TRAN` axis
/// (regenerated via `golden_gen`, so CI's diff check pins the whole
/// symbolic → partial-fraction pipeline bit-for-bit). The companion-model
/// stepper must track it within the stored voltage tolerance with the
/// one-factorization counter contract intact.
#[test]
fn rc_step_tran_matches_golden_step_response() {
    let json =
        std::fs::read_to_string(golden_dir().join("rc_step_tran.json")).expect("golden .json");
    assert_eq!(json_str(&json, "schema"), "refgen-golden-tran/v1");
    assert_eq!(json_str(&json, "name"), "rc_step_tran");
    let tol_v = json_f64(&json, "tol_v");
    let time_s = json_f64_array(&json, "time_s");
    let v_out = json_f64_array(&json, "v_out");
    assert_eq!(time_s.len(), v_out.len());

    let netlist = golden_netlist("rc_step_tran");
    let card = netlist.analysis.tran().expect(".TRAN card").clone();
    let result = Session::for_circuit(&netlist.circuit)
        .transient(TransientAnalysis::new(card))
        .expect("transient runs");

    // The committed axis must be exactly the .TRAN card's axis.
    assert_eq!(result.times().len(), time_s.len(), "time axis shape");
    for (a, b) in result.times().iter().zip(&time_s) {
        assert!((a - b).abs() <= 1e-12 * b.abs().max(1e-12), "time {a} vs {b}");
    }

    let stats = result.stats;
    assert_eq!(stats.refactor_hits, 1, "one numeric factorization per run");
    assert_eq!(stats.fresh_factorizations, 0);
    let wave = result.node("out").expect("out node recorded");
    for (i, (&got, &want)) in wave.iter().zip(&v_out).enumerate() {
        assert!(
            (got - want).abs() <= tol_v,
            "t = {}: stepper {got} vs golden {want} (tol {tol_v:e})",
            time_s[i]
        );
    }
}

/// The acceptance criterion of the hierarchical front end: a
/// netlist-defined fleet of 32 biquad instances with perturbed parameters
/// solves through `Session::variant_circuits` with exactly one pivot
/// search and one compiled symbolic program in total, independent of fleet
/// size. The flattened subcircuits share a topology, so the `PlanCache`
/// and program cache hit for every variant after the first. Each variant
/// recovers both polynomials from its opening window and that window's
/// verify re-interpolation — the structural order bounds (3 and 0) end
/// both ascents there — and the numerator takes those windows' shared
/// transfer samples, so only the denominator's two plans per variant are
/// built: one miss, then 63 hits.
#[test]
fn netlist_biquad_fleet_shares_one_plan_and_program() {
    let golden = load_golden("sallen_key");
    let spec = TransferSpec::from(golden.netlist.analysis.tf().expect(".TF card"));
    let fleet: Vec<Circuit> = (0..32)
        .map(|i| {
            // Deterministic ±4 % component spread, different per instance.
            let wiggle = |k: usize| 1.0 + 0.04 * (((i * 7 + k * 13) % 17) as f64 / 8.0 - 1.0);
            let top = format!(
                "VIN in 0 AC 1\n\
                 X1 in out sallen_key r1={:e} r2={:e} c1={:e} c2={:e}\n\
                 RL out 0 1meg\n",
                1e4 * wiggle(0),
                1e4 * wiggle(1),
                4e-9 * wiggle(2),
                390e-12 * wiggle(3),
            );
            let c = parse_spice(&library::netlist_with_library(&top)).expect("fleet netlist");
            c.validate().expect("fleet netlist validates");
            c
        })
        .collect();

    let run = Session::for_circuit(&fleet[0])
        .spec(spec.clone())
        .variant_circuits(&fleet)
        .solve_all()
        .expect("fleet solves");
    assert_eq!(run.report.variants, 32);
    assert_eq!(run.report.pivot_searches, 1, "one pivot search, fleet-wide");
    assert_eq!(run.report.programs_compiled, 1, "one compiled program, fleet-wide");
    assert_eq!(run.report.shared_plan_hits, 63, "every later plan reuses the first");

    // The counts are fleet-size independent: a quarter-size fleet costs the
    // same search and program.
    let small = Session::for_circuit(&fleet[0])
        .spec(spec.clone())
        .variant_circuits(&fleet[..8])
        .solve_all()
        .expect("small fleet solves");
    assert_eq!(small.report.pivot_searches, run.report.pivot_searches);
    assert_eq!(small.report.programs_compiled, run.report.programs_compiled);

    // Each variant's recovered network function must match its own
    // independent AC solve — the fleet shares the plan, not the answer.
    for (i, (circuit, solution)) in fleet.iter().zip(run.solutions()).enumerate() {
        let ac = AcAnalysis::new(circuit, spec.clone()).expect("assemble");
        for f in [1e3, 12.7e3, 1e5] {
            let truth = ac.at(f).expect("nonsingular").response;
            let got = solution.network.response_at_hz(f);
            let err = (got - truth).abs() / truth.abs();
            assert!(err < 1e-6, "variant {i} at {f} Hz: rel err {err:e}");
        }
    }
}

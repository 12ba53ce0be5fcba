//! Oracle tier: the companion-model transient stepper against the
//! symbolic transfer function.
//!
//! For linear generator-library circuits the adaptive interpolation
//! recovers the *exact* rational transfer function, whose partial-fraction
//! step response is a closed form — an independent oracle for the time
//! stepper. Acceptance here is threefold:
//!
//! * **Convergence**: under Δt halving the stepper's worst-case deviation
//!   from `PartialFractions::step_response` must shrink at the method's
//!   asymptotic order (1 for backward Euler, 2 for trapezoidal).
//! * **Plan reuse**: `TransientStats` counters must show exactly one
//!   numeric factorization per run with every solve replaying the compiled
//!   `FactorProgram` (the `SweepStats` contract, transplanted to time).
//! * **Bit identity**: the full pipeline — symbolic solve, partial
//!   fractions, transient waveforms — must produce identical bits at
//!   `threads` 1 and 4.

use refgen::prelude::*;

fn step_wave() -> Waveform {
    Waveform::Pulse {
        v1: 0.0,
        v2: 1.0,
        delay: 0.0,
        rise: 0.0,
        fall: 0.0,
        width: f64::INFINITY,
        period: f64::INFINITY,
    }
}

/// The generator-library circuits under test: name, circuit (with a unit
/// step attached to `VIN`), step size `h`, and stop time.
fn roster() -> Vec<(&'static str, Circuit, f64, f64)> {
    let mut rc = library::rc_ladder(3, 1e3, 1e-9);
    rc.set_waveform("VIN", step_wave()).unwrap();
    let mut lc = library::lc_ladder_lowpass(3, 50.0, 1e6);
    lc.set_waveform("VIN", step_wave()).unwrap();
    let mut sk = library::sallen_key_lowpass(1e5, 0.7);
    sk.set_waveform("VIN", step_wave()).unwrap();
    vec![
        // Fastest ladder pole ≈ 3.25/RC → h·|p_max| ≈ 0.16.
        ("rc_ladder3", rc, 5e-8, 1e-5),
        // Butterworth poles on the ω_c = 2π MHz circle → h·ω_c ≈ 0.1;
        // exercises the inductor companion branches.
        ("lc_ladder3", lc, 1.6e-8, 2e-6),
        // Complex pole pair behind a VCVS (Q = 0.7, f0 = 100 kHz).
        ("sallen_key", sk, 1.6e-7, 1e-5),
    ]
}

/// Closed-form oracle for `circuit`'s VIN → out unit-step response.
fn oracle(circuit: &Circuit, cfg: RefgenConfig) -> PartialFractions {
    AdaptiveInterpolator::new(cfg)
        .solve(circuit, &TransferSpec::voltage_gain("VIN", "out"))
        .expect("symbolic solve")
        .partial_fractions()
        .expect("distinct poles")
}

/// Runs the stepper at `dt` and returns its worst deviation from the
/// oracle (excluding t = 0, where both are exactly the initial state).
fn max_error(
    circuit: &Circuit,
    pf: &PartialFractions,
    dt: f64,
    tstop: f64,
    method: IntegrationMethod,
) -> f64 {
    let card = TranCard { tstep: dt, tstop, tstart: 0.0 };
    let result = Session::for_circuit(circuit)
        .transient(TransientAnalysis::new(card).method(method))
        .unwrap();

    // The SweepStats-style contract: one pivot search at plan build, one
    // numeric factorization at the first step, every solve through the
    // compiled program (TR pays one extra primer solve).
    let stats = result.stats;
    assert_eq!(stats.refactor_hits, 1, "one numeric factorization per run");
    assert_eq!(stats.fresh_factorizations, 0, "no Markowitz fallback");
    let expected_solves = match method {
        IntegrationMethod::BackwardEuler => stats.steps,
        IntegrationMethod::Trapezoidal => stats.steps + 1,
    };
    assert_eq!(stats.compiled_hits, expected_solves, "every solve replays the program");

    let wave = result.node("out").expect("out node recorded");
    result
        .times()
        .iter()
        .zip(wave)
        .skip(1)
        .map(|(&t, &v)| (v - pf.step_response(t)).abs())
        .fold(0.0, f64::max)
}

#[test]
fn stepper_converges_to_symbolic_step_response_at_method_order() {
    let cfg = RefgenConfig::default();
    for (name, circuit, h, tstop) in roster() {
        let pf = oracle(&circuit, cfg);
        for method in [IntegrationMethod::BackwardEuler, IntegrationMethod::Trapezoidal] {
            let e1 = max_error(&circuit, &pf, h, tstop, method);
            let e2 = max_error(&circuit, &pf, h * 0.5, tstop, method);
            let observed = (e1 / e2).log2();
            let want = method.order() as f64;
            assert!(
                observed >= want - 0.2,
                "{name}/{}: observed order {observed:.2} < {want} (errors {e1:.3e} → {e2:.3e})",
                method.label()
            );
            // And the error is genuinely small, not just shrinking.
            let scale = pf.final_value().abs().max(1e-12);
            assert!(e2 / scale < 0.05, "{name}/{}: error {e2:.3e} too large", method.label());
        }
    }
}

/// One full pipeline pass — symbolic solve, partial fractions, both
/// steppers — rendered to a string whose equality implies bit equality
/// (Debug formatting of f64 round-trips).
fn snapshot(threads: usize) -> String {
    let cfg = RefgenConfig::builder().threads(threads).build();
    let mut out = String::new();
    for (name, circuit, h, tstop) in roster() {
        let pf = oracle(&circuit, cfg);
        out.push_str(&format!("{name}: direct {:?} terms {:?}\n", pf.direct, pf.terms));
        for method in [IntegrationMethod::BackwardEuler, IntegrationMethod::Trapezoidal] {
            let card = TranCard { tstep: h, tstop, tstart: 0.0 };
            let result = Session::for_circuit(&circuit)
                .transient(TransientAnalysis::new(card).method(method).cross_check(true))
                .unwrap();
            out.push_str(&format!(
                "{name}/{}: wave {:?} stats {:?}\n",
                method.label(),
                result.node("out").unwrap(),
                result.stats,
            ));
        }
    }
    out
}

#[test]
fn pipeline_is_bit_identical_across_threads_and_executors() {
    assert_eq!(snapshot(1), snapshot(4), "pipeline output changed under threads = 4");
}

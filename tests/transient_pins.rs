//! Pinned transient waveforms: the companion-model stepper's output, bit
//! for bit.
//!
//! Each case runs one circuit through [`TransientAnalysis`] with the
//! Richardson cross-check on, under backward Euler and the trapezoidal
//! rule, and hashes every bit the run reports: each node's name and
//! waveform samples, the `RichardsonCheck` fields and the
//! `TransientStats` counters. A change to the stepper's arithmetic
//! (element type, operation order, the sign of an exact zero) moves a
//! hash here even when every tolerance-based test still passes.
//!
//! The roster:
//!
//! * the end-to-end benchmark's µA741 step (`.tran 300u 300m`, a 1 mV
//!   ideal pulse on `VIN`) over seeded ±5 % variants;
//! * `rc_ladder(20, 1e3, 1e-9)` under a unit step;
//! * `lc_ladder_lowpass(5, 50, 1e6)` under a unit step, which covers the
//!   inductor companion rows;
//! * an RLC network driven only by current sources: a `Sin` and a `Pwl`
//!   waveform, which cover the current-source RHS stamps.

use refgen::prelude::*;
use std::fmt::Write;

/// FNV-1a over little-endian words and text.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u64(&mut self, x: u64) {
        self.bytes(&x.to_le_bytes());
    }

    fn f64(&mut self, x: f64) {
        self.u64(x.to_bits());
    }
}

fn step(v2: f64) -> Waveform {
    Waveform::Pulse {
        v1: 0.0,
        v2,
        delay: 0.0,
        rise: 0.0,
        fall: 0.0,
        width: f64::INFINITY,
        period: f64::INFINITY,
    }
}

/// Hashes one cross-checked run of `circuit` over `card` under `method`.
fn run_hash(circuit: &Circuit, card: &TranCard, method: IntegrationMethod) -> u64 {
    let result = Session::for_circuit(circuit)
        .transient(TransientAnalysis::new(card.clone()).method(method).cross_check(true))
        .unwrap();
    let mut h = Fnv::new();
    h.u64(result.times().len() as u64);
    for &t in result.times() {
        h.f64(t);
    }
    for (name, wave) in result.nodes() {
        h.bytes(name.as_bytes());
        h.u64(wave.len() as u64);
        for &v in wave {
            h.f64(v);
        }
    }
    let check = result.cross_check.expect("cross-check on");
    h.f64(check.dt_half);
    h.f64(check.max_abs_dev);
    h.u64(u64::from(check.order));
    let stats = result.stats;
    h.u64(stats.steps);
    h.u64(stats.refactor_hits);
    h.u64(stats.fresh_factorizations);
    h.u64(stats.compiled_hits);
    h.0
}

/// An RLC network driven by a sine current into `a` and a piecewise-linear
/// current into `out`; no voltage source at all.
fn current_driven_rlc() -> Circuit {
    let mut c = Circuit::new();
    c.add_isource("IIN", "0", "a", 1.0).unwrap();
    c.add_resistor("R1", "a", "0", 1e3).unwrap();
    c.add_capacitor("C1", "a", "0", 1e-9).unwrap();
    c.add_resistor("R2", "a", "out", 1e3).unwrap();
    c.add_capacitor("C2", "out", "0", 2e-9).unwrap();
    c.add_inductor("L1", "out", "b", 1e-4).unwrap();
    c.add_resistor("R3", "b", "0", 100.0).unwrap();
    c.add_isource("IPWL", "0", "out", 0.0).unwrap();
    c.set_waveform(
        "IIN",
        Waveform::Sin { vo: 1e-4, va: 1e-3, freq_hz: 1e6, delay: 2e-7, theta: 2e5 },
    )
    .unwrap();
    c.set_waveform(
        "IPWL",
        Waveform::Pwl { points: vec![(0.0, 0.0), (1e-6, 5e-4), (2e-6, -5e-4), (3e-6, 0.0)] },
    )
    .unwrap();
    c
}

/// The pinned roster: case name, circuit, `.TRAN` card.
fn roster() -> Vec<(String, Circuit, TranCard)> {
    let mut cases = Vec::new();
    let ua741_card = TranCard { tstep: 300e-6, tstop: 300e-3, tstart: 0.0 };
    let variants = VariantSet::new(Perturbation::all_relative(0.05), 4)
        .seed(0x7a41)
        .generate(&library::ua741())
        .unwrap();
    for (k, mut circuit) in variants.into_iter().enumerate() {
        circuit.set_waveform("VIN", step(1e-3)).unwrap();
        cases.push((format!("ua741_v{k}"), circuit, ua741_card.clone()));
    }
    let mut rc = library::rc_ladder(20, 1e3, 1e-9);
    rc.set_waveform("VIN", step(1.0)).unwrap();
    cases.push(("rc_ladder20".into(), rc, TranCard { tstep: 2e-7, tstop: 1e-4, tstart: 0.0 }));
    let mut lc = library::lc_ladder_lowpass(5, 50.0, 1e6);
    lc.set_waveform("VIN", step(1.0)).unwrap();
    cases.push(("lc_ladder5".into(), lc, TranCard { tstep: 1.6e-8, tstop: 4e-6, tstart: 0.0 }));
    cases.push((
        "current_driven_rlc".into(),
        current_driven_rlc(),
        TranCard { tstep: 2e-8, tstop: 5e-6, tstart: 0.0 },
    ));
    cases
}

#[test]
fn transient_waveforms_match_pinned_hashes() {
    let mut got = Vec::new();
    for (name, circuit, card) in roster() {
        for method in [IntegrationMethod::BackwardEuler, IntegrationMethod::Trapezoidal] {
            got.push((format!("{name}_{}", method.label()), run_hash(&circuit, &card, method)));
        }
    }
    let want = [
        ("ua741_v0_BE", 0xfb58_1f4b_fe1f_5020),
        ("ua741_v0_TR", 0xeb70_2e67_f0ae_0b15),
        ("ua741_v1_BE", 0x4e08_204c_bbaf_859b),
        ("ua741_v1_TR", 0x14c1_eb83_62c3_59b7),
        ("ua741_v2_BE", 0x6c90_c04c_1e67_7e58),
        ("ua741_v2_TR", 0xf8ac_55db_edc6_3ba6),
        ("ua741_v3_BE", 0x0261_0bcf_8507_8489),
        ("ua741_v3_TR", 0x2a15_3d39_6bb9_521d),
        ("rc_ladder20_BE", 0x97c3_a36e_f11c_f922),
        ("rc_ladder20_TR", 0x77b7_8f96_3552_4853),
        ("lc_ladder5_BE", 0x9219_2edb_073c_ccae),
        ("lc_ladder5_TR", 0xba83_8cee_1dbd_28f1),
        ("current_driven_rlc_BE", 0x12f4_a982_e8b9_068b),
        ("current_driven_rlc_TR", 0x1291_fb79_c5b0_783e),
    ];
    if !got.iter().map(|(n, h)| (n.as_str(), *h)).eq(want) {
        let mut table = String::new();
        for (name, hash) in &got {
            writeln!(table, "        (\"{name}\", {hash:#018x}),").unwrap();
        }
        panic!("transient waveforms moved; computed:\n{table}");
    }
}
